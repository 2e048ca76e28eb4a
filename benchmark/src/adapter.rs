//! The only file that names the repository's types.
//!
//! Everything the benchmark runs goes through here: the five workloads
//! (with their set-up/run split, spans, counters and correctness checks)
//! and the per-layer kernels. `README.md` lists the public items this file
//! pins; a refactor that renames one of them changes this file and nothing
//! else in `benchmark/`.

use crate::spec::Workload;
use crate::trace::Recorder;
use acacia::metro::{MetroConfig, MetroReport, MetroScenario};
use acacia::msg::{AppMsg, FrameMeta, APP_PORT};
use acacia_bench::runner;
use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::{FittedPathLoss, PathLossModel};
use acacia_geo::trilateration::{trilaterate, RangeMeasurement};
use acacia_geo::Point;
use acacia_lte::enb::Enb;
use acacia_lte::entities::GwControl;
use acacia_lte::gtpu;
use acacia_lte::ids::{Ebi, Imsi, Teid};
use acacia_lte::log::MsgLog;
use acacia_lte::mobility::Waypoint;
use acacia_lte::network::{CellConfig, LteConfig, LteNetwork};
use acacia_lte::qci::Qci;
use acacia_lte::radio;
use acacia_lte::switch::{FlowSwitch, SwitchCosts};
use acacia_lte::tft::{Direction, PacketFilter, Tft};
use acacia_lte::ue::{Ue, UeState};
use acacia_lte::wire::{
    ControlMsg, ErabSetup, FlowActionSpec, FlowMatchSpec, PolicyRule, Protocol,
};
use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::{proto, Packet};
use acacia_simnet::sim::{set_default_shards, Ctx, Node, NodeId, PortId, Simulator, TimerHandle};
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::{Reflector, Sink};
use acacia_simnet::transport::PingAgent;
use acacia_simnet::wheel::TimerWheel;
use acacia_vision::compress::Codec;
use acacia_vision::db::ObjectDb;
use acacia_vision::feature::{object_features, render_view, Similarity, ViewParams};
use acacia_vision::image::{ImageSpec, Resolution};
use acacia_vision::matcher::{match_pair, MatcherConfig};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant as HostInstant;

/// What one repetition of a workload produced, beyond its spans.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations tried: tables, frames requested, handovers expected.
    pub attempted: u64,
    /// Operations that did not come out right.
    pub failed: u64,
    /// Broken invariants, each a reason to fail the whole benchmark.
    pub violations: Vec<String>,
    /// FNV digest of the simulated results. Equal for equal seeds at every
    /// shard count; engine counters are left out so a change may dispatch
    /// fewer events without touching it.
    pub digest: Option<u64>,
    /// Engine events dispatched inside the `run` span, as far as public
    /// getters show them.
    pub run_events: u64,
    /// Names of the spans `run_events` were counted in, when that is not
    /// the whole `run` span.
    pub events_in: Vec<String>,
    /// Counters read through public getters at the span boundaries.
    pub counters: Vec<(&'static str, f64)>,
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../figures_output.txt");

const PAPER_APP: [&str; 4] = ["fig11b", "fig12", "fig13", "ablation-radius"];
const PAPER_NET: [&str; 3] = ["fig8", "fig10a", "loaded"];

/// Run one repetition of `workload`, or with `setup_only` just its `setup`
/// span. The process-global knobs (shard count, runner worker count) are
/// set here, which is why every repetition is a process of its own.
pub fn run(workload: &Workload, seed: u64, setup_only: bool, rec: &mut Recorder) -> Outcome {
    set_default_shards(Some(workload.shards));
    runner::set_jobs(Some(1));
    match workload.name {
        "paper-app" => paper(&PAPER_APP, setup_only, rec),
        "paper-net" => paper(&PAPER_NET, setup_only, rec),
        "metro-s1" | "metro-s2" => metro(seed, setup_only, rec),
        "signalling" => signalling(seed, setup_only, rec),
        other => unreachable!("workload {other} is not in spec::WORKLOADS"),
    }
}

// ---------------------------------------------------------------- paper-*

/// The paper's experiments are fixed configurations, so the seed does not
/// reach them; their tables are checked against the recorded reference.
fn paper(ids: &[&str], setup_only: bool, rec: &mut Recorder) -> Outcome {
    // Loading the reference is all the set-up there is.
    let golden = rec.span("setup", |_| {
        std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("reading {GOLDEN}: {e}"))
    });
    let mut out = Outcome::default();
    if setup_only {
        return out;
    }
    rec.span("run", |rec| {
        for id in ids {
            let span = format!("bench.run.{id}");
            let table = rec.span(&span, |_| acacia_bench::run(id));
            // The experiments show their engine events only through the
            // runner's cell timings, and only fig13 and loaded report any.
            // The rate is taken over exactly those tables, so one that
            // reports no events cannot move it.
            let events: u64 = runner::drain_timings().iter().map(|c| c.events).sum();
            if events > 0 {
                out.run_events += events;
                out.events_in.push(span);
            }
            out.attempted += 1;
            match table {
                Some(t) if golden.contains(&t.render()) => {}
                Some(_) => {
                    out.failed += 1;
                    out.violations
                        .push(format!("{id}: table differs from figures_output.txt"));
                }
                None => {
                    out.failed += 1;
                    out.violations.push(format!("{id}: unknown experiment id"));
                }
            }
        }
    });
    out.counters = vec![("simnet.sim.events", out.run_events as f64)];
    out
}

// ---------------------------------------------------------------- metro-*

/// `MetroConfig::figure()` at an eighth of its population and twice its
/// frames: the same 16-region 10:1 skew, 1 280 UEs, 4 frames each. The
/// sharded build costs host time per UE (an engine call per 10 ms step of
/// every attach) and on a noisy host four times that, so the population is
/// what keeps `metro-s2` inside the time a run may take; the frames keep the
/// run phase long enough to read.
fn metro_config(seed: u64) -> MetroConfig {
    let figure = MetroConfig::figure();
    MetroConfig {
        region_sizes: figure.region_sizes.iter().map(|s| s / 8).collect(),
        seed,
        frame_count: 2 * figure.frame_count,
        ..figure
    }
}

fn metro(seed: u64, setup_only: bool, rec: &mut Recorder) -> Outcome {
    let mut sc = rec.span("setup", |rec| {
        rec.span("core.metro.build", |_| {
            MetroScenario::build(metro_config(seed))
        })
    });
    if setup_only {
        return Outcome::default();
    }
    let before = SimCounts::read(&sc.net.sim);
    let report = rec.span("run", |rec| {
        let timeline = rec.span("core.metro.schedule", |_| sc.schedule());
        rec.span("core.metro.await", |_| sc.await_sessions(&timeline));
        rec.span("core.metro.collect", |_| sc.collect(&timeline))
    });
    let after = SimCounts::read(&sc.net.sim);

    let mut out = Outcome {
        attempted: report.ue_count as u64 * report.frames_requested,
        ..Outcome::default()
    };
    let frames_done: u64 = report.ues.iter().map(|u| u.frames_done).sum();
    out.failed = out.attempted.saturating_sub(frames_done);
    if report.wedged() != 0 {
        out.violations
            .push(format!("{} sessions wedged", report.wedged()));
    }
    if !report.cross_shard_conserved() {
        out.violations.push(format!(
            "cross-shard events lost: sent {} received {}",
            report.cross_shard_sent, report.cross_shard_received
        ));
    }
    if report.stuck_ues != 0 || report.outstanding_procedures != 0 {
        out.violations.push(format!(
            "{} UEs stuck, {} handovers open",
            report.stuck_ues, report.outstanding_procedures
        ));
    }
    out.digest = Some(metro_digest(&report));
    out.run_events = after.events - before.events;
    after.since(&before, &mut out.counters);
    lte_counters(&sc.net, &mut out.counters);
    let retx: u64 = report.ues.iter().map(|u| u.retransmissions).sum();
    out.counters.extend([
        ("core.arclient.frames_done", frames_done as f64),
        ("core.arclient.retx", retx as f64),
    ]);
    if sc.net.sim.shards() > 1 {
        let lookahead_us = sc
            .net
            .sim
            .lookahead()
            .map_or(0.0, |d| d.nanos() as f64 / 1e3);
        let windows = if lookahead_us > 0.0 {
            report.sim_elapsed.nanos() as f64 / 1e3 / lookahead_us
        } else {
            0.0
        };
        out.counters.extend([
            ("simnet.shard.cross_sent", report.cross_shard_sent as f64),
            ("simnet.shard.imbalance", report.shard_imbalance()),
            ("simnet.shard.lookahead_us", lookahead_us),
            ("simnet.shard.windows_est", windows),
            (
                "simnet.shard.events_per_window_est",
                if windows > 0.0 {
                    out.run_events as f64 / windows
                } else {
                    0.0
                },
            ),
        ]);
    }
    out
}

/// Simulated results only, and nothing that depends on the shard count.
fn metro_digest(r: &MetroReport) -> u64 {
    let mut h = Fnv::new();
    for v in [
        r.regions as u64,
        r.ue_count as u64,
        r.frames_requested,
        r.x2_msgs,
        r.s1ap_msgs,
        r.gtpc_msgs,
        r.dedicated_reanchored,
        r.x2_forwarded,
        r.stuck_ues as u64,
        r.outstanding_procedures as u64,
        r.sim_elapsed.nanos(),
    ] {
        h.u64(v);
    }
    for ue in &r.ues {
        h.u64(ue.frames_done);
        h.u64(ue.handovers);
        h.u64(ue.retransmissions);
    }
    h.finish()
}

// ------------------------------------------------------------- signalling

const SIG_UES: usize = 1024;
const SIG_LAPS: u64 = 32;
const SIG_SPEED_MPS: f64 = 8.0;
const SIG_NEAR_M: f64 = 2.0;
const SIG_FAR_M: f64 = 38.0;
const SIG_CELL_SPACING_M: f64 = 40.0;

fn signalling(seed: u64, setup_only: bool, rec: &mut Recorder) -> Outcome {
    let (mut net, mec_addr) = rec.span("setup", |rec| {
        rec.span("lte.network.new", |_| {
            let cell = |x| CellConfig {
                pos: Point::new(x, 0.0),
                mec: true,
                region: 0,
            };
            let mut net = LteNetwork::new(LteConfig {
                seed,
                ue_count: SIG_UES,
                cells: vec![cell(0.0), cell(SIG_CELL_SPACING_M)],
                ..LteConfig::default()
            });
            let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
            (net, mec_addr)
        })
    });

    if setup_only {
        return Outcome::default();
    }

    let before = SimCounts::read(&net.sim);
    rec.span("run", |rec| {
        let ips: Vec<Ipv4Addr> = rec.span("lte.network.attach", |_| {
            (0..SIG_UES).map(|i| net.attach(i)).collect()
        });
        rec.span("lte.network.bearer", |_| {
            for (i, &ue_addr) in ips.iter().enumerate() {
                net.activate_dedicated_bearer(
                    i,
                    PolicyRule {
                        service_id: 1,
                        ue_addr,
                        server_addr: mec_addr,
                        server_port: 0,
                        qci: Qci(7),
                        install: true,
                    },
                );
            }
        });
        rec.span("lte.network.walk", |_| {
            // Each UE departs at a moment drawn from the seed within the
            // first lap, so handovers arrive spread out and not as 1 024
            // simultaneous procedures, and the seed decides how they bunch.
            let lap_s = 2.0 * (SIG_FAR_M - SIG_NEAR_M) / SIG_SPEED_MPS;
            let lap_ns = Duration::from_secs_f64(lap_s).nanos();
            let mut departures = Fnv::new();
            departures.u64(seed);
            let near = Point::new(SIG_NEAR_M, 0.0);
            let far = Point::new(SIG_FAR_M, 0.0);
            for i in 0..SIG_UES {
                departures.u64(i as u64);
                let wait = Duration::from_nanos(departures.finish() % lap_ns);
                let mut walk = vec![Waypoint::dwelling(near, wait)];
                for _ in 0..SIG_LAPS {
                    walk.push(Waypoint::passing(far));
                    walk.push(Waypoint::passing(near));
                }
                net.start_mobility(i, walk, SIG_SPEED_MPS);
            }
            // Every walk plus the trailing measurement window, then slack
            // for the last handover to complete.
            net.run_for(Duration::from_secs_f64(
                lap_s * (SIG_LAPS + 1) as f64 + 10.0,
            ));
        });
    });
    let after = SimCounts::read(&net.sim);

    let expected = SIG_UES as u64 * SIG_LAPS * 2;
    let mut out = Outcome {
        attempted: expected,
        ..Outcome::default()
    };
    let mut h = Fnv::new();
    let mut completed = 0;
    let mut stuck = 0;
    for &ue in &net.ues {
        let u = net.sim.node_ref::<Ue>(ue);
        completed += u.handovers;
        h.u64(u.handovers);
        if !matches!(u.state, UeState::Connected | UeState::Idle) {
            stuck += 1;
        }
    }
    out.failed = expected.abs_diff(completed);
    if stuck != 0 {
        out.violations
            .push(format!("{stuck} UEs outside Connected/Idle"));
    }
    let open: usize = net
        .enbs
        .iter()
        .map(|&e| net.sim.node_ref::<Enb>(e).outstanding_handovers())
        .sum();
    if open != 0 {
        out.violations.push(format!("{open} handovers still open"));
    }
    out.run_events = after.events - before.events;
    after.since(&before, &mut out.counters);
    lte_counters(&net, &mut out.counters);
    for (name, v) in &out.counters {
        if name.starts_with("lte.") {
            h.u64(*v as u64);
        }
    }
    h.u64(net.sim.now().nanos());
    out.digest = Some(h.finish());
    out
}

// ------------------------------------------------------- shared read-outs

/// Engine counters at a span boundary.
struct SimCounts {
    events: u64,
    arrivals: u64,
    timers_skipped: u64,
}

impl SimCounts {
    fn read(sim: &Simulator) -> SimCounts {
        SimCounts {
            events: sim.events_processed(),
            arrivals: sim.arrivals_dispatched(),
            timers_skipped: sim.timer_fires_skipped(),
        }
    }

    fn since(&self, earlier: &SimCounts, out: &mut Vec<(&'static str, f64)>) {
        out.extend([
            ("simnet.sim.events", (self.events - earlier.events) as f64),
            (
                "simnet.sim.arrivals",
                (self.arrivals - earlier.arrivals) as f64,
            ),
            (
                "simnet.sim.timers_skipped",
                (self.timers_skipped - earlier.timers_skipped) as f64,
            ),
        ]);
    }
}

/// Control-plane work counts over the whole life of the network. They
/// must not move under a pure speed-up.
fn lte_counters(net: &LteNetwork, out: &mut Vec<(&'static str, f64)>) {
    let handovers: u64 = net
        .ues
        .iter()
        .map(|&ue| net.sim.node_ref::<Ue>(ue).handovers)
        .sum();
    let reanchored = net.sim.node_ref::<GwControl>(net.gwc).dedicated_reanchored;
    out.extend([
        ("lte.log.entries", net.log.len() as f64),
        ("lte.wire.x2_msgs", net.log.count(Protocol::X2Sctp) as f64),
        (
            "lte.wire.s1ap_msgs",
            net.log.count(Protocol::S1apSctp) as f64,
        ),
        ("lte.wire.gtpc_msgs", net.log.count(Protocol::Gtpv2) as f64),
        ("lte.wire.core_bytes", net.log.core_bytes() as f64),
        ("lte.ue.handovers", handovers as f64),
        ("lte.gwc.reanchored", reanchored as f64),
    ]);
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

// ================================================================ kernels

/// Median over 5 batches, each at least 0.2 s of timed work, of host
/// nanoseconds per operation. `batch` returns how many operations it
/// performed and how long the timed part took; what it builds before
/// starting its own clock is not counted.
fn ns_per_op(mut batch: impl FnMut() -> (u64, std::time::Duration)) -> f64 {
    const BATCHES: usize = 5;
    const BATCH_MIN: std::time::Duration = std::time::Duration::from_millis(200);
    let mut per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (mut ops, mut spent) = (0u64, std::time::Duration::ZERO);
            while spent < BATCH_MIN {
                let (o, d) = batch();
                ops += o;
                spent += d;
            }
            spent.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    per_batch.sort_by(f64::total_cmp);
    per_batch[BATCHES / 2]
}

/// Time `n` back-to-back calls of `f`.
fn calls<T>(n: u64, mut f: impl FnMut() -> T) -> (u64, std::time::Duration) {
    let t0 = HostInstant::now();
    for _ in 0..n {
        black_box(f());
    }
    (n, t0.elapsed())
}

/// Time one `run_until(limit)`.
fn timed_run(sim: &mut Simulator, limit: Instant) -> std::time::Duration {
    let t0 = HostInstant::now();
    black_box(sim.run_until(limit));
    t0.elapsed()
}

fn ip(a: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, a)
}

/// Re-arms itself every `period`; with `guarded`, also keeps one
/// cancellable guard timer in flight, cancelling the previous one on every
/// firing.
struct Rearm {
    period: Duration,
    guarded: bool,
    guard: Option<TimerHandle>,
    fired: u64,
}

const TICK: u64 = 1;
const GUARD: u64 = 2;

impl Node for Rearm {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        self.fired += 1;
        if self.guarded {
            if let Some(old) = self.guard.take() {
                ctx.cancel_timer(old);
            }
            self.guard = Some(ctx.schedule_in_cancellable(self.period.saturating_mul(8), GUARD));
        }
        ctx.schedule_in(self.period, TICK);
    }
}

/// Emits fixed-size UDP packets every `gap`, cycling through `tos`.
struct Blaster {
    gap: Duration,
    tos: Vec<u8>,
    sent: u64,
}

impl Node for Blaster {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let tos = self.tos[self.sent as usize % self.tos.len()];
        self.sent += 1;
        ctx.send(
            0,
            Packet::udp((ip(1), 7000), (ip(2), 7001), 1_400).with_tos(tos),
        );
        ctx.schedule_in(self.gap, TICK);
    }
}

/// 256 `Rearm` nodes; host ns per fired timer.
fn rearm_kernel(guarded: bool) -> f64 {
    let mut sim = Simulator::with_shards(1, 1);
    let ids: Vec<NodeId> = (0..256)
        .map(|i| {
            let id = sim.add_node(Box::new(Rearm {
                period: Duration::from_micros(1_000),
                guarded,
                guard: None,
                fired: 0,
            }));
            sim.schedule_timer(id, Instant::from_nanos(3_900 * i), TICK);
            id
        })
        .collect();
    let fired =
        |sim: &Simulator| -> u64 { ids.iter().map(|&n| sim.node_ref::<Rearm>(n).fired).sum() };
    ns_per_op(|| {
        let before = fired(&sim);
        let limit = sim.now() + Duration::from_millis(200);
        let spent = timed_run(&mut sim, limit);
        (fired(&sim) - before, spent)
    })
}

/// `Blaster` → 100 Mb/s link with a 64 KiB queue → `Sink`, offered
/// `offered_bps`; host ns per offered packet.
fn link_kernel(tos: Vec<u8>, offered_bps: u64) -> f64 {
    let wire_bits = u64::from(Packet::udp((ip(1), 7000), (ip(2), 7001), 1_400).wire_size()) * 8;
    let mut sim = Simulator::with_shards(1, 1);
    let src = sim.add_node(Box::new(Blaster {
        gap: Duration::from_nanos(wire_bits * 1_000_000_000 / offered_bps),
        tos,
        sent: 0,
    }));
    let sink = sim.add_node(Box::new(Sink::new()));
    sim.connect_simplex(
        (src, 0),
        (sink, 0),
        LinkConfig::rate_limited(100_000_000, Duration::from_micros(200)).with_queue(64 * 1024),
    );
    sim.schedule_timer(src, Instant::ZERO, TICK);
    let ns = ns_per_op(|| {
        let sent_before = sim.node_ref::<Blaster>(src).sent;
        let limit = sim.now() + Duration::from_millis(500);
        let spent = timed_run(&mut sim, limit);
        (sim.node_ref::<Blaster>(src).sent - sent_before, spent)
    });
    black_box(sim.node_ref::<Sink>(sink).packets());
    ns
}

/// Two nodes in two regions joined by a 500 µs link, on `shards` shards.
fn two_region_sim(shards: usize, ping: bool) -> Simulator {
    let mut sim = Simulator::with_shards(1, shards);
    let a = sim.add_node_in_region(
        Box::new(PingAgent::new(
            ip(1),
            ip(2),
            Duration::from_millis(1),
            u64::MAX,
        )),
        0,
    );
    let b = sim.add_node_in_region(Box::new(Reflector::new()), 1);
    sim.connect(
        (a, 0),
        (b, 0),
        LinkConfig::delay_only(Duration::from_micros(500)),
    );
    if ping {
        sim.schedule_timer(a, Instant::ZERO, PingAgent::KICKOFF);
    }
    sim
}

fn handover_mix() -> Vec<ControlMsg> {
    let imsi = Imsi(310_410_000_000_123);
    let erab = |ebi, teid| ErabSetup {
        ebi: Ebi(ebi),
        qci: Qci(7),
        gw_teid: Teid(teid),
        gw_addr: Ipv4Addr::new(10, 2, 1, 1),
        tft: Tft::single(PacketFilter::to_host(Ipv4Addr::new(10, 4, 0, 1))),
    };
    vec![
        ControlMsg::X2HandoverRequest {
            imsi,
            ue_addr: Some(Ipv4Addr::new(10, 10, 0, 7)),
            bearers: vec![erab(5, 0x1001), erab(6, 0x2001)],
            txid: 9,
        },
        ControlMsg::X2HandoverRequestAck {
            imsi,
            erabs: vec![(Ebi(5), Teid(0x3001)), (Ebi(6), Teid(0x3002))],
            txid: 9,
        },
        ControlMsg::X2SnStatusTransfer {
            imsi,
            dl_count: 1_234,
            ul_count: 987,
        },
        ControlMsg::PathSwitchRequest {
            imsi,
            enb_addr: Ipv4Addr::new(10, 1, 0, 2),
            erabs: vec![(Ebi(5), Teid(0x3001)), (Ebi(6), Teid(0x3002))],
            txid: 4,
        },
        ControlMsg::BearerRelocationRequest {
            imsi,
            enb_addr: Ipv4Addr::new(10, 1, 0, 2),
            enb_teids: vec![(Ebi(5), Teid(0x3001)), (Ebi(6), Teid(0x3002))],
        },
        ControlMsg::BearerRelocationResponse {
            imsi,
            erabs: vec![erab(6, 0x2001)],
            released: Vec::new(),
        },
        ControlMsg::PathSwitchRequestAck {
            imsi,
            erabs: vec![erab(6, 0x2001)],
        },
        ControlMsg::X2UeContextRelease { imsi },
    ]
}

fn rrc_mix() -> Vec<ControlMsg> {
    let imsi = Imsi(310_410_000_000_123);
    let target_radio = Ipv4Addr::new(192, 168, 0, 2);
    vec![
        ControlMsg::RrcMeasurementReport {
            imsi,
            serving_rsrp_cdbm: -9_512,
            target_radio,
            target_rsrp_cdbm: -9_103,
        },
        ControlMsg::RrcHandoverCommand { imsi, target_radio },
        ControlMsg::RrcHandoverConfirm { imsi },
    ]
}

fn app_mix() -> Vec<AppMsg> {
    let meta = FrameMeta {
        spec: ImageSpec::new(7, Resolution::new(320, 240)),
        codec: Codec::Jpeg(90),
        view_seed: 11,
        captured_at_nanos: 123_456_789,
    };
    vec![
        AppMsg::FrameChunk {
            seq: 3,
            chunk: 0,
            total_chunks: 12,
            meta: Some(meta),
        },
        AppMsg::FrameChunk {
            seq: 3,
            chunk: 7,
            total_chunks: 12,
            meta: None,
        },
        AppMsg::ChunkAck { seq: 3, chunk: 7 },
    ]
}

/// Time `f` over every element of `items`, `rounds` times.
fn over<I, T>(items: &[I], rounds: u64, mut f: impl FnMut(&I) -> T) -> (u64, std::time::Duration) {
    let t0 = HostInstant::now();
    for _ in 0..rounds {
        for item in items {
            black_box(f(black_box(item)));
        }
    }
    (rounds * items.len() as u64, t0.elapsed())
}

fn switch_kernel(rules: u32) -> f64 {
    const PACKETS: u64 = 2_000;
    let inner = Packet::udp((ip(1), 40_000), (ip(2), 9_000), 1_400);
    ns_per_op(|| {
        let mut sim = Simulator::with_shards(1, 1);
        let mut sw = FlowSwitch::new(ip(100), SwitchCosts::acacia_ovs());
        // Equal priorities keep install order, so the packets' rule is the
        // last one a linear scan reaches.
        for teid in 1..=rules {
            sw.install(
                1,
                FlowMatchSpec {
                    teid: Some(Teid(teid)),
                    dst: None,
                    src: None,
                },
                vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
            );
        }
        let sw = sim.add_node(Box::new(sw));
        let sink = sim.add_node(Box::new(Sink::new()));
        sim.connect((sw, 2), (sink, 0), LinkConfig::delay_only(Duration::ZERO));
        for i in 0..PACKETS {
            let pkt = gtpu::encapsulate(&inner, Teid(rules), ip(10), ip(100));
            sim.inject_packet(sw, 1, Instant::from_micros(i * 12), pkt);
        }
        let t0 = HostInstant::now();
        sim.run_until_idle();
        let spent = t0.elapsed();
        assert_eq!(sim.node_ref::<Sink>(sink).packets(), PACKETS);
        (PACKETS, spent)
    })
}

fn attach_kernel(n: usize) -> f64 {
    ns_per_op(|| {
        let mut net = LteNetwork::new(LteConfig {
            ue_count: n,
            ..LteConfig::default()
        });
        let t0 = HostInstant::now();
        for i in 0..n {
            black_box(net.attach(i));
        }
        (n as u64, t0.elapsed())
    }) / 1e3
}

const LOG_RECORDS: u64 = 100_000;

/// Run the kernels of the layers `workload` is predicted to spend its run
/// in (`README.md`, the interaction table), handing each result to `report`
/// as it is ready. Every kernel belongs to exactly one workload, so a
/// session over all five runs each kernel once.
pub fn kernels(workload: &str, report: &mut dyn FnMut(&'static str, f64)) {
    set_default_shards(Some(1));
    match workload {
        "paper-app" => vision_kernels(report),
        "paper-net" => packet_flood_kernels(report),
        "metro-s1" => user_plane_kernels(report),
        "metro-s2" => shard_and_build_kernels(report),
        "signalling" => control_plane_kernels(report),
        other => unreachable!("workload {other} is not in spec::WORKLOADS"),
    }
}

/// `signalling`: small timers, the control-plane codecs, the message log.
fn control_plane_kernels(report: &mut dyn FnMut(&'static str, f64)) {
    // -- simnet::wheel: hold 10 k entries, pop one and schedule one.
    for (name, delta_ns) in [
        ("simnet.wheel.near_ns", 10_000_000u64), // inside the 268 ms ring
        ("simnet.wheel.far_ns", 1_000_000_000),  // overflow heap
    ] {
        let mut wheel: TimerWheel<u64, u64> = TimerWheel::new();
        let mut seq = 0u64;
        for i in 0..10_000u64 {
            wheel.schedule(Instant::from_nanos(i * delta_ns / 10_000), seq, i);
            seq += 1;
        }
        report(
            name,
            ns_per_op(|| {
                calls(100_000, || {
                    let (at, _, item) = wheel.pop().expect("wheel stays full");
                    wheel.schedule(Instant::from_nanos(at.nanos() + delta_ns), seq, item);
                    seq += 1;
                })
            }),
        );
    }

    // -- simnet::sim: timers through `Ctx`, plain and cancellable.
    report("simnet.sim.timer_ns", rearm_kernel(false));
    report("simnet.sim.cancel_ns", rearm_kernel(true));

    // -- lte::wire and lte::radio: the control-plane codecs.
    {
        let msgs = handover_mix();
        let (src, dst) = (ip(1), ip(2));
        let pkts: Vec<Packet> = msgs.iter().map(|m| m.into_packet(src, dst)).collect();
        report(
            "lte.wire.encode_ns",
            ns_per_op(|| over(&msgs, 500, |m| m.into_packet(src, dst))),
        );
        report(
            "lte.wire.decode_ns",
            ns_per_op(|| over(&pkts, 500, |p| ControlMsg::from_packet(p).expect("decodes"))),
        );
        let bytes: usize = pkts.iter().map(|p| p.payload.len()).sum();
        report(
            "lte.wire.json_bytes_per_msg",
            bytes as f64 / pkts.len() as f64,
        );
        let rrc = rrc_mix();
        report(
            "lte.radio.rrc_roundtrip_ns",
            ns_per_op(|| {
                over(&rrc, 500, |m| {
                    radio::parse_frame(&radio::rrc_frame(m, src, dst)).expect("parses")
                })
            }),
        );
    }

    // -- lte::log: what one `record` costs the thread that owns the log.
    {
        let msg = ControlMsg::X2UeContextRelease {
            imsi: Imsi(310_410_000_000_123),
        };
        let log = MsgLog::new();
        report(
            "lte.log.record_ns",
            ns_per_op(|| {
                log.clear();
                calls(LOG_RECORDS, || log.record(Instant::ZERO, &msg))
            }),
        );
    }
}

/// `paper-net`: packet floods through rate-limited links and the flow switch.
fn packet_flood_kernels(report: &mut dyn FnMut(&'static str, f64)) {
    // -- simnet::link: one class under capacity; three classes at twice
    //    capacity so the queue stays full and the drop path runs.
    report("simnet.link.fifo_ns", link_kernel(vec![0], 80_000_000));
    report(
        "simnet.link.prio_ns",
        link_kernel(vec![1 << 2, 5 << 2, 9 << 2], 200_000_000),
    );

    // -- lte::switch: cost per packet against the rule count.
    report("lte.switch.pkt_ns.r1", switch_kernel(1));
    report("lte.switch.pkt_ns.r2048", switch_kernel(2_048));
}

/// `metro-s2`: the sharded engine's fixed costs, and what building a
/// population pays them for.
fn shard_and_build_kernels(report: &mut dyn FnMut(&'static str, f64)) {
    // -- simnet::shard: one ping-pong packet across two shards; a window
    //    is the 500 µs lookahead.
    {
        let mut sim = two_region_sim(2, true);
        report(
            "simnet.shard.window_ns",
            ns_per_op(|| {
                let limit = sim.now() + Duration::from_millis(100);
                (200, timed_run(&mut sim, limit))
            }),
        );
    }
    for (name, shards) in [
        ("simnet.sim.run_until_call_ns.s1", 1),
        ("simnet.sim.run_until_call_ns.s2", 2),
    ] {
        let mut sim = two_region_sim(shards, false);
        report(
            name,
            ns_per_op(|| {
                calls(200, || {
                    let limit = sim.now() + Duration::from_millis(10);
                    sim.run_until(limit)
                })
            }),
        );
    }

    // -- lte::network: what building a population costs per UE.
    report("lte.network.attach_us.n256", attach_kernel(256));
    report("lte.network.attach_us.n2048", attach_kernel(2_048));

    // -- lte::log: two threads contending for the shared log.
    {
        let msg = ControlMsg::X2UeContextRelease {
            imsi: Imsi(310_410_000_000_123),
        };
        let log = MsgLog::new();
        report(
            "lte.log.record_2thr_ns",
            ns_per_op(|| {
                log.clear();
                let t0 = HostInstant::now();
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| calls(LOG_RECORDS / 2, || log.record(Instant::ZERO, &msg)));
                    }
                });
                (LOG_RECORDS, t0.elapsed())
            }),
        );
    }
}

/// `metro-s1`: the per-packet user-plane path of an AR session.
fn user_plane_kernels(report: &mut dyn FnMut(&'static str, f64)) {
    // -- core::msg, lte::radio data frames, lte::gtpu, lte::tft: the
    //    per-packet user-plane path of an AR session.
    {
        let msgs = app_mix();
        let (src, dst) = ((ip(1), 40_000), (ip(2), APP_PORT));
        let encode = |m: &AppMsg| m.into_packet(src, dst, 1_200, Instant::from_micros(5));
        let pkts: Vec<Packet> = msgs.iter().map(encode).collect();
        report(
            "core.msg.encode_ns",
            ns_per_op(|| over(&msgs, 1_000, encode)),
        );
        report(
            "core.msg.decode_ns",
            ns_per_op(|| over(&pkts, 1_000, |p| AppMsg::from_packet(p).expect("decodes"))),
        );
        report(
            "lte.radio.data_roundtrip_ns",
            ns_per_op(|| {
                over(&pkts, 1_000, |p| {
                    radio::parse_frame(&radio::data_frame(Ebi(6), p, ip(3), ip(4))).expect("parses")
                })
            }),
        );
        report(
            "lte.gtpu.encap_ns",
            ns_per_op(|| {
                over(&pkts, 1_000, |p| {
                    gtpu::encapsulate(p, Teid(7), ip(10), ip(11))
                })
            }),
        );
        let tunnelled: Vec<Packet> = pkts
            .iter()
            .map(|p| gtpu::encapsulate(p, Teid(7), ip(10), ip(11)))
            .collect();
        report(
            "lte.gtpu.decap_ns",
            ns_per_op(|| {
                over(&tunnelled, 1_000, |p| {
                    gtpu::decapsulate(p).expect("tunnelled")
                })
            }),
        );
        let tft = Tft::single(PacketFilter::to_service(ip(2), APP_PORT, proto::UDP));
        report(
            "lte.tft.match_ns",
            ns_per_op(|| over(&pkts, 10_000, |p| tft.matches(p, Direction::Uplink))),
        );
    }
}

/// `paper-app`: the vision and localisation stages.
fn vision_kernels(report: &mut dyn FnMut(&'static str, f64)) {
    {
        let n = ImageSpec::new(1, Resolution::new(640, 480)).feature_count();
        report(
            "vision.feature.extract_us",
            ns_per_op(|| calls(20, || object_features(black_box(5), n))) / 1e3,
        );
        let base = object_features(5, n);
        report(
            "vision.feature.render_view_us",
            ns_per_op(|| {
                calls(20, || {
                    render_view(
                        black_box(&base),
                        Similarity::from_seed(2),
                        ViewParams::default(),
                        9,
                    )
                })
            }) / 1e3,
        );
        let view = render_view(&base, Similarity::from_seed(2), ViewParams::default(), 9);
        let cfg = MatcherConfig::default();
        report(
            "vision.matcher.match_pair_us",
            ns_per_op(|| calls(5, || match_pair(black_box(&view), &base, &cfg))) / 1e3,
        );
        let floor = FloorPlan::retail_store();
        report(
            "vision.db.retail_build_ms",
            ns_per_op(|| calls(1, || ObjectDb::generate_retail(&floor, 1, 42))) / 1e6,
        );

        let model = PathLossModel::indoor_default();
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
            .iter()
            .map(|&d| (d, model.rx_power_dbm(d)))
            .collect();
        let fit = FittedPathLoss::fit(&samples).expect("six samples fit");
        let truth = Point::new(13.0, 8.0);
        let ranges: Vec<RangeMeasurement> = floor.landmarks[..5]
            .iter()
            .map(|lm| {
                let rx = model.rx_power_dbm(truth.distance(lm.pos));
                RangeMeasurement::new(lm.pos, fit.predict_distance(rx))
            })
            .collect();
        report(
            "geo.trilateration.solve_ns",
            ns_per_op(|| calls(1_000, || trilaterate(black_box(&ranges)).expect("solves"))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let digest = |vals: &[u64]| {
            let mut h = Fnv::new();
            vals.iter().for_each(|&v| h.u64(v));
            h.finish()
        };
        // Pinned: a digest that drifts between builds would make
        // `expected.json` meaningless.
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_eq!(digest(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }

    #[test]
    fn metro_is_an_eighth_of_the_figure_with_the_seed_passed_in() {
        let cfg = metro_config(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.regions(), 16);
        assert_eq!(cfg.ue_count(), 1_280);
        assert_eq!(cfg.frame_count, 4);
    }
}
