//! The AR back-end (CI server) node: reassembles uploaded frames, runs the
//! decode → SURF → pruned-match pipeline, and returns annotations.
//!
//! Matching executes for real against the geo-tagged object database (so
//! accuracy and pruning behaviour are genuine); *time* is virtual — metered
//! operations × the configured device profile — and the server is a serial
//! processor, so concurrent clients queue (the paper's Fig. 12 contention
//! behaviour).
//!
//! A frame's match is a pure function of its view, the matcher
//! configuration and the candidate set, so the server asks the database
//! ([`ObjectDb::match_view`]), which runs each distinct query once and
//! memoizes its outcome; no rendered view outlives its match. The
//! simulated match time still comes from the outcome's metered operations.

use crate::locmgr::LocalizationManager;
use crate::msg::{AppMsg, FrameMeta, AR_PORT, MRS_PORT};
use crate::search::{candidates, SearchContext, SearchStrategy};
use acacia_geo::floor::FloorPlan;
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId};
use acacia_simnet::time::{Duration, Instant};
use acacia_vision::compute::{Device, DeviceProfile};
use acacia_vision::db::ObjectDb;
use acacia_vision::matcher::MatcherConfig;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ArServerConfig {
    /// Server address.
    pub addr: Ipv4Addr,
    /// Search-space strategy.
    pub strategy: SearchStrategy,
    /// Descriptors actually executed per side during matching (op
    /// accounting stays full-scale). Smaller = faster simulation.
    pub exec_cap: usize,
    /// MRS lease target: `(mrs_addr, service)` this server beats for.
    /// `None` disables heartbeats (the default; lease monitoring is a
    /// failover-scenario feature).
    pub heartbeat: Option<(Ipv4Addr, String)>,
}

impl ArServerConfig {
    /// An 8-core i7 server with ACACIA pruning.
    pub fn new(addr: Ipv4Addr) -> ArServerConfig {
        ArServerConfig {
            addr,
            strategy: SearchStrategy::ACACIA_DEFAULT,
            exec_cap: 48,
            heartbeat: None,
        }
    }
}

/// One processed frame, for post-run analysis.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Client that sent it.
    pub client: Ipv4Addr,
    /// Frame sequence number.
    pub seq: u64,
    /// Candidate objects examined after pruning.
    pub candidates: usize,
    /// Virtual decode + SURF time, seconds.
    pub compute_s: f64,
    /// Virtual matching time, seconds.
    pub match_s: f64,
    /// Matched object tag (None = no-match).
    pub matched: Option<String>,
    /// Ground-truth object (the scene id photographed).
    pub truth: u64,
}

struct Assembly {
    received: HashSet<u32>,
    total: u32,
    meta: Option<FrameMeta>,
    reply_to: (Ipv4Addr, u16),
}

const TOKEN_RESULT: u64 = 1;
const TOKEN_HEARTBEAT: u64 = 2;
/// Period of the liveness beats a server with a lease target sends to
/// the MRS.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(100);

/// The AR server node. Port 0 is its network interface.
pub struct ArServer {
    cfg: ArServerConfig,
    profile: DeviceProfile,
    /// Shared: nothing mutates a database after generation, and a metro
    /// runs hundreds of servers over the same one.
    db: Arc<ObjectDb>,
    floor: FloorPlan,
    /// The localization manager co-located with the server (paper Fig. 7).
    pub locmgr: LocalizationManager,
    assembling: HashMap<(Ipv4Addr, u64), Assembly>,
    busy_until: Instant,
    outbox: VecDeque<Packet>,
    /// Per-frame processing records.
    pub records: Vec<FrameRecord>,
    /// rxPower reports ingested.
    pub reports_seen: u64,
    /// Is the periodic heartbeat chain armed? A crash-restart erases the
    /// pending timer along with the rest of the node's state, so the
    /// first packet to reach the restarted server re-arms the chain —
    /// recovery rides on traffic, not on conveniently surviving timers.
    hb_live: bool,
    /// Liveness beats sent to the MRS.
    pub heartbeats_sent: u64,
    /// Crash-restarts this server came back from.
    pub restarts: u64,
}

impl ArServer {
    /// New server over a database (owned, or shared with other servers)
    /// and floor plan.
    pub fn new(
        cfg: ArServerConfig,
        db: impl Into<Arc<ObjectDb>>,
        floor: FloorPlan,
        locmgr: LocalizationManager,
    ) -> ArServer {
        let profile = Device::I7Octa.profile();
        ArServer {
            cfg,
            profile,
            db: db.into(),
            floor,
            locmgr,
            assembling: HashMap::new(),
            busy_until: Instant::ZERO,
            outbox: VecDeque::new(),
            records: Vec::new(),
            reports_seen: 0,
            hb_live: false,
            heartbeats_sent: 0,
            restarts: 0,
        }
    }

    /// Timer token that starts the periodic MRS heartbeat:
    /// `sim.schedule_timer(server, start, ArServer::HEARTBEAT)`.
    pub const HEARTBEAT: u64 = TOKEN_HEARTBEAT;

    /// Send one liveness beat and schedule the next.
    fn beat(&mut self, ctx: &mut Ctx<'_>) {
        let Some((mrs, service)) = self.cfg.heartbeat.clone() else {
            return;
        };
        self.hb_live = true;
        self.heartbeats_sent += 1;
        let msg = AppMsg::Heartbeat {
            service,
            server: self.cfg.addr,
        };
        let pkt = msg.into_packet((self.cfg.addr, AR_PORT), (mrs, MRS_PORT), 0, ctx.now());
        ctx.send(0, pkt);
        ctx.schedule_in(HEARTBEAT_PERIOD, TOKEN_HEARTBEAT);
    }

    /// Fraction of processed frames whose match equals the ground truth.
    pub fn accuracy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let correct = self
            .records
            .iter()
            .filter(|r| r.matched.as_deref() == self.db.get(r.truth).map(|o| o.tag.as_str()))
            .count();
        correct as f64 / self.records.len() as f64
    }

    fn process_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: (Ipv4Addr, u16),
        seq: u64,
        meta: FrameMeta,
    ) {
        let search_ctx = SearchContext {
            rx_readings: self.locmgr.rx_view(),
            location: self.locmgr.estimate(),
        };
        let cands = candidates(self.cfg.strategy, &self.db, &self.floor, &search_ctx);
        let n_cands = cands.len();
        let matcher = MatcherConfig {
            exec_cap: self.cfg.exec_cap,
            seed: meta.view_seed,
            ..MatcherConfig::default()
        };
        // The client photographed object `scene_id` with a hand-held pose
        // derived from `view_seed`; the db renders that view and matches
        // it once per distinct query.
        let outcome = self.db.match_view(
            meta.spec.scene_id,
            meta.spec.feature_count(),
            meta.view_seed,
            &cands,
            &matcher,
        );

        let compute_s = self.profile.decode_time_s(meta.spec.resolution.pixels())
            + self.profile.detect_time_s(meta.spec);
        let match_s = self.profile.match_time_s(&outcome.ops);
        let matched = outcome
            .best
            .as_ref()
            .and_then(|(id, _)| self.db.get(*id))
            .map(|o| o.tag.clone());

        self.records.push(FrameRecord {
            client: client.0,
            seq,
            candidates: n_cands,
            compute_s,
            match_s,
            matched: matched.clone(),
            truth: meta.spec.scene_id,
        });

        // Serial service: the result leaves once the CPU has finished this
        // frame (and everything queued before it).
        let service = Duration::from_secs_f64(compute_s + match_s);
        let start = self.busy_until.max(ctx.now());
        let done = start + service;
        self.busy_until = done;

        let result = AppMsg::FrameResult {
            seq,
            matched,
            compute_s,
            match_s,
            candidates: n_cands,
        }
        .into_packet((self.cfg.addr, AR_PORT), client, 200, ctx.now());
        self.outbox.push_back(result);
        ctx.schedule_at(done, TOKEN_RESULT);
    }

    fn on_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        pkt: &Packet,
        seq: u64,
        chunk: u32,
        total: u32,
        meta: Option<FrameMeta>,
    ) {
        let reply_to = (pkt.src, pkt.src_port);
        // Ack immediately — acks clock the client's upload window.
        let ack = AppMsg::ChunkAck { seq, chunk }.into_packet(
            (self.cfg.addr, AR_PORT),
            reply_to,
            0,
            ctx.now(),
        );
        ctx.send(0, ack);

        let entry = self
            .assembling
            .entry((pkt.src, seq))
            .or_insert_with(|| Assembly {
                received: HashSet::new(),
                total,
                meta: None,
                reply_to,
            });
        entry.received.insert(chunk);
        if meta.is_some() {
            entry.meta = meta;
        }
        if entry.received.len() as u32 == entry.total {
            if let Some(done) = self.assembling.remove(&(pkt.src, seq)) {
                if let Some(meta) = done.meta {
                    self.process_frame(ctx, done.reply_to, seq, meta);
                }
            }
        }
    }
}

impl Node for ArServer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        if self.cfg.heartbeat.is_some() && !self.hb_live {
            // First contact after a crash-restart (the pending beat timer
            // died with the crash): resume beating so the MRS restores
            // this instance's lease.
            self.beat(ctx);
        }
        if pkt.protocol == acacia_simnet::packet::proto::ICMP {
            // Liveness probes (the mobility experiment's interruption
            // meter) are echoed on the same path the AR traffic takes.
            let mut back = pkt;
            std::mem::swap(&mut back.src, &mut back.dst);
            std::mem::swap(&mut back.src_port, &mut back.dst_port);
            ctx.send(0, back);
            return;
        }
        match AppMsg::from_packet(&pkt) {
            Some(AppMsg::FrameChunk {
                seq,
                chunk,
                total_chunks,
                meta,
            }) => self.on_chunk(ctx, &pkt, seq, chunk, total_chunks, meta),
            Some(AppMsg::RxReport {
                landmark,
                rx_power_dbm,
            }) => {
                self.reports_seen += 1;
                self.locmgr.report(&landmark, rx_power_dbm);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_RESULT {
            if let Some(pkt) = self.outbox.pop_front() {
                ctx.send(0, pkt);
            }
        } else if token == TOKEN_HEARTBEAT {
            self.beat(ctx);
        }
    }

    fn on_restart(&mut self) {
        // Crash-restart: every in-flight assembly, queued result and the
        // serial-CPU backlog died with the process. `records` stays — it
        // is the experiment's measurement ledger, not protocol state —
        // and clients recover their in-flight frames through the
        // application protocol (replay), not through server memory.
        self.assembling.clear();
        self.outbox.clear();
        self.busy_until = Instant::ZERO;
        self.hb_live = false;
        self.restarts += 1;
    }
}
