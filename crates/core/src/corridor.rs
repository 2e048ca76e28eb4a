//! The two-cell corridor: N AR sessions walking between a MEC small cell
//! and a far cell 40 m away while the dedicated bearer follows them.
//!
//! The paper's deployment is a MEC-equipped small cell coexisting with a
//! commercial macrocell (§6, §8): users walk in and out of MEC coverage
//! mid-session. Every UE walks from 2 m to 38 m and back, handing over
//! twice; UE `k` sets off `k × interval / N` late so frame captures reach
//! the serial server as a uniform ring. [`CorridorMode`] picks how the
//! bearer follows the walk, and two optional layers stress it:
//! [`ControlFaults`] (seeded drops, duplicates and reorders on every
//! S1AP/X2 link, audited per recovery rung in [`Recovery`]) and
//! [`CoreLoad`] (a narrowed core flooded past capacity, the Fig. 3(g)
//! regime). The presets [`CorridorConfig::mobility`], `chaos`, `scale`
//! and `loaded` (each with a `_smoke` twin) name the experiments.
//!
//! The regional [`crate::metro`] scenario is a grid of corridors; it
//! shares the course geometry, [`Timeline`], [`UeReport`], the AR server
//! and MRS wiring, and the control-fault arming.

use crate::arclient::{ArFrontend, ArFrontendConfig, FrameStats};
use crate::arserver::{ArServer, ArServerConfig};
use crate::device_manager::{DeviceManager, ServiceInfo};
use crate::locmgr::{LocalizationManager, LocalizationMetadata};
use crate::mrs::{port as mrs_port, Mrs, ServerInstance};
use crate::msg::APP_PORT;
use crate::scenario::SERVICE;
use crate::search::SearchStrategy;
use acacia_d2d::modem::Modem;
use acacia_geo::floor::FloorPlan;
use acacia_geo::Point;
use acacia_lte::enb::Enb;
use acacia_lte::entities::{pcrf_port, GwControl};
use acacia_lte::mobility::Waypoint;
use acacia_lte::network::{addr, CellConfig, LteConfig, LteNetwork};
use acacia_lte::ue::{AppSelector, Ue, UeState};
use acacia_lte::wire::Protocol;
use acacia_simnet::cloud::Ec2Region;
use acacia_simnet::fault::{FaultPlan, FaultRule, PacketClass};
use acacia_simnet::link::{ClassStats, LinkConfig};
use acacia_simnet::packet::proto;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::Reflector;
use acacia_simnet::transport::PingAgent;
use acacia_vision::db::ObjectDb;
use std::sync::Arc;

/// Two cells 40 m apart; the UE walks from 2 m to 38 m and back. With
/// the indoor path-loss default and 3 dB hysteresis the A3 crossover
/// sits near 22 m outbound (and symmetrically near 18 m inbound).
pub(crate) const CELL_SPACING_M: f64 = 40.0;
const WALK_NEAR_M: f64 = 2.0;
const WALK_FAR_M: f64 = 38.0;
/// Objects per subsection in the retail database every server holds.
const DB_PER_SUBSECTION: usize = 1;
/// Matching execution cap at every AR server.
pub const EXEC_CAP: usize = 24;
/// Where the Cloud mode's server runs.
const CLOUD_REGION: Ec2Region = Ec2Region::California;
/// Liveness-probe spacing: resolves handover interruption to ±25 ms.
const LIVENESS_INTERVAL: Duration = Duration::from_millis(25);
/// Cloud-probe spacing under [`CoreLoad`].
const CLOUD_PROBE_INTERVAL: Duration = Duration::from_millis(200);

/// The there-and-back walk at height `y`: wait `offset` at the near end,
/// walk to the far end, dwell `far_dwell`, walk back.
pub(crate) fn walk(y: f64, offset: Duration, far_dwell: Duration) -> Vec<Waypoint> {
    vec![
        Waypoint::dwelling(Point::new(WALK_NEAR_M, y), offset),
        Waypoint::dwelling(Point::new(WALK_FAR_M, y), far_dwell),
        Waypoint::passing(Point::new(WALK_NEAR_M, y)),
    ]
}

/// Walking time of [`walk`] at `speed_mps`, dwells excluded.
pub(crate) fn walk_time(speed_mps: f64) -> Duration {
    Duration::from_secs_f64(2.0 * (WALK_FAR_M - WALK_NEAR_M) / speed_mps)
}

/// The shared retail database at `seed`.
pub(crate) fn retail_db(seed: u64) -> Arc<ObjectDb> {
    ObjectDb::retail_cached(DB_PER_SUBSECTION, seed)
}

/// The objects every user photographs: one subsection's. Which one is
/// immaterial, and identical vision work across UEs keeps host time in
/// the network and engine rather than the feature pipeline.
pub(crate) fn scene_ids(db: &ObjectDb) -> Vec<u64> {
    db.in_subsections(&[0]).iter().map(|o| o.id).collect()
}

/// An AR server as every corridor and region runs it: i7 octa-core,
/// naive search at [`EXEC_CAP`], the retail store's floor plan.
pub(crate) fn ar_server(cfg: ArServerConfig, db: &Arc<ObjectDb>) -> Box<ArServer> {
    let floor = FloorPlan::retail_store();
    let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(
        &floor,
        &acacia_d2d::technology::ProximityTech::LteDirect.pathloss(),
    ));
    Box::new(ArServer::new(
        ArServerConfig {
            strategy: SearchStrategy::Naive,
            exec_cap: EXEC_CAP,
            ..cfg
        },
        db.clone(),
        floor,
        locmgr,
    ))
}

/// Place `mrs` as the first cloud server, at [`addr::CLOUD_BASE`], and
/// give it its Rx link to the PCRF; returns its node.
pub(crate) fn add_mrs(net: &mut LteNetwork, mrs: Mrs) -> NodeId {
    let (node, assigned) = net.add_cloud_server(
        Box::new(mrs),
        LinkConfig::delay_only(Duration::from_micros(800)),
    );
    assert_eq!(
        assigned,
        addr::CLOUD_BASE,
        "the MRS is the first cloud server"
    );
    net.sim.connect(
        (node, mrs_port::RX),
        (net.pcrf, pcrf_port::AF),
        LinkConfig::delay_only(Duration::from_micros(500)),
    );
    node
}

/// Arm a fault plan on every S1AP and X2 link direction: drops at
/// `drop`, duplicates and reorders (held back 3 ms) at `churn` each,
/// from [`Timeline::settled`] on. Link `idx` of
/// [`LteNetwork::control_fault_points`] draws from its own stream seeded
/// `seed + (idx + 1) × φ`, so the plan is identical at every shard and
/// worker count.
pub(crate) fn arm_control_faults(
    net: &mut LteNetwork,
    timeline: &Timeline,
    seed: u64,
    drop: f64,
    churn: f64,
) {
    if drop <= 0.0 && churn <= 0.0 {
        return;
    }
    let start = timeline.settled();
    let end = start + Duration::from_secs(86_400);
    for (idx, (endpoint, _label)) in net.control_fault_points().iter().enumerate() {
        let mut plan =
            FaultPlan::new(seed.wrapping_add((idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        if drop > 0.0 {
            plan.add_rule(FaultRule::drop(PacketClass::any(), drop).in_window(start, end));
        }
        if churn > 0.0 {
            plan.add_rule(FaultRule::duplicate(PacketClass::any(), churn).in_window(start, end));
            plan.add_rule(
                FaultRule::reorder(PacketClass::any(), churn, Duration::from_millis(3))
                    .in_window(start, end),
            );
        }
        net.sim.attach_fault_plan(*endpoint, plan);
    }
}

/// Timing anchors of a scheduled run, in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// When the scenario's `schedule` was called.
    pub start: Instant,
    /// One stagger past the latest kickoff offset: the last session
    /// starts before `start + stagger_total` and its MRS handshake
    /// completes shortly after.
    pub stagger_total: Duration,
    /// When the last UE finishes its walk.
    pub walk_end: Instant,
    /// Hard stop for the scenario's `await_sessions`.
    pub deadline: Instant,
}

impl Timeline {
    /// Anchors for walks of length `walk` (dwells included) kicked off
    /// across `stagger_total`. The deadline leaves every session twice
    /// its paced length `session` plus 30 s of slack for the server queue
    /// and recovery timers.
    pub(crate) fn new(
        start: Instant,
        stagger_total: Duration,
        walk: Duration,
        session: Duration,
    ) -> Timeline {
        let walk_end = start + stagger_total + walk;
        Timeline {
            start,
            stagger_total,
            walk_end,
            deadline: walk_end
                + Duration::from_nanos(session.nanos() * 2)
                + Duration::from_secs(30),
        }
    }

    /// One second past the last kickoff: every dedicated bearer is up,
    /// so faults and load opened here stress handovers, not bring-up
    /// (bearer set-up crosses the core to the cloud MRS).
    pub(crate) fn settled(&self) -> Instant {
        self.start + self.stagger_total + Duration::from_secs(1)
    }
}

/// Per-UE outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UeReport {
    /// Frames that completed end-to-end.
    pub frames_done: u64,
    /// Serving-cell switches completed.
    pub handovers: u64,
    /// Client-side retransmissions.
    pub retransmissions: u64,
}

impl UeReport {
    /// Read each session's outcome off its client and UE (UE `i` runs
    /// `clients[i]`).
    pub(crate) fn collect(net: &LteNetwork, clients: &[NodeId]) -> Vec<UeReport> {
        clients
            .iter()
            .zip(&net.ues)
            .map(|(&client, &ue)| {
                let c = net.sim.node_ref::<ArFrontend>(client);
                UeReport {
                    frames_done: c.frames.len() as u64,
                    handovers: net.sim.node_ref::<Ue>(ue).handovers,
                    retransmissions: c.retransmissions,
                }
            })
            .collect()
    }

    /// Sessions that did not complete `frames_requested` frames.
    pub(crate) fn wedged(ues: &[UeReport], frames_requested: u64) -> usize {
        ues.iter()
            .filter(|u| u.frames_done < frames_requested)
            .count()
    }

    /// Handovers across every UE.
    pub(crate) fn total_handovers(ues: &[UeReport]) -> u64 {
        ues.iter().map(|u| u.handovers).sum()
    }
}

/// Which corridor variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorridorMode {
    /// ACACIA-reanchor: both cells MEC-equipped; the dedicated bearer is
    /// relocated onto the target cell's local gateway at every handover.
    Reanchor,
    /// Default-fallback: the far cell has no MEC path; the bearer is torn
    /// down at handover, traffic rides the default bearer + core detour,
    /// and the device manager re-creates the bearer on return.
    Fallback,
    /// Remote server over the default bearer (conventional EPC).
    Cloud,
}

impl CorridorMode {
    /// All variants, in presentation order.
    pub const ALL: [CorridorMode; 3] = [
        CorridorMode::Reanchor,
        CorridorMode::Fallback,
        CorridorMode::Cloud,
    ];

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            CorridorMode::Reanchor => "ACACIA-reanchor",
            CorridorMode::Fallback => "default-fallback",
            CorridorMode::Cloud => "CLOUD",
        }
    }
}

/// Control-plane fault injection over the walk.
#[derive(Debug, Clone, Copy)]
pub struct ControlFaults {
    /// Seed of the per-link fault streams (independent of the simulation
    /// seed).
    pub seed: u64,
    /// Drop probability per control packet on every S1AP/X2 link
    /// direction; duplicates and reorders ride along at half this rate
    /// each.
    pub drop: f64,
}

/// Background load through a narrowed shared core.
#[derive(Debug, Clone, Copy)]
pub struct CoreLoad {
    /// Constant-bit-rate flood through the SGW-U → PGW-U leg, bits/s,
    /// from one second after the last kickoff to the deadline. Zero keeps the
    /// narrowed core, reflector and probes but sends no flood (the
    /// unloaded baseline).
    pub bg_rate_bps: u64,
    /// Cloud probes each UE sends through the core leg, every 200 ms from
    /// two seconds after the flood opens.
    pub cloud_probes: u64,
}

impl CoreLoad {
    /// Narrowed shared-core rate: 100 Mbit/s, the regime of Fig. 3(g).
    pub const CORE_RATE_BPS: u64 = 100_000_000;
    /// Core queue bound. 12 MiB at 100 Mbit/s drains in ~1.0 s — the
    /// saturated RTT plateau of Fig. 3(g).
    pub(crate) const CORE_QUEUE_BYTES: u64 = 12 * 1024 * 1024;
}

/// Corridor parameters.
#[derive(Debug, Clone)]
pub struct CorridorConfig {
    /// Variant under test.
    pub mode: CorridorMode,
    /// UEs walking the corridor, each with its own AR session.
    pub ue_count: usize,
    /// Master seed.
    pub seed: u64,
    /// Frames each session captures.
    pub frame_count: u64,
    /// Per-UE pacing between captures before the serial-server floor
    /// (see `CorridorConfig::frame_interval`).
    pub base_frame_interval: Duration,
    /// Walk speed, m/s.
    pub speed_mps: f64,
    /// Dwell at the far end before walking back.
    pub far_dwell: Duration,
    /// Route MEC traffic over the default bearer through the core when a
    /// UE has no dedicated bearer. Fallback mode needs it; chaos, scale
    /// and loaded keep it as a safety net for a lost path switch. Off for
    /// the clean Reanchor walk, where turning it on moves the interrupt
    /// and probe-loss cells of the mobility figure.
    pub core_detour: bool,
    /// A population study (scale, loaded) rather than the close study of
    /// one walk (mobility, chaos). The close study polls every 100 ms,
    /// drives the device manager's re-anchor leg, meters the data path
    /// with 25 ms liveness probes and keeps its own deadline; a population
    /// polls every 200 ms, probes liveness only under [`CoreLoad`] and
    /// stops at `Timeline::new`'s deadline.
    pub population: bool,
    /// Control-plane fault injection (`None` = clean run).
    pub faults: Option<ControlFaults>,
    /// Background load through a narrowed core (`None` = the default
    /// 1 Gbit/s core with no flood, no reflector, no cloud probes).
    pub load: Option<CoreLoad>,
}

impl CorridorConfig {
    /// Serial-server time budget one frame may consume: the effective
    /// interval never drops below `ue_count × budget`. Measured
    /// serial-server occupancy per frame is ~220 ms (decode + detect +
    /// match at exec cap 24, one object per subsection); 300 ms caps
    /// utilization near 73% at any N.
    pub(crate) const PER_FRAME_BUDGET: Duration = Duration::from_millis(300);

    /// The mobility figure: one UE on a ~27 s there-and-back walk under
    /// a session paced (45 × 600 ms) to cover both handovers.
    pub fn mobility(mode: CorridorMode) -> CorridorConfig {
        CorridorConfig {
            mode,
            ue_count: 1,
            seed: 42,
            frame_count: 45,
            base_frame_interval: Duration::from_millis(600),
            speed_mps: 3.0,
            far_dwell: Duration::from_secs(3),
            core_detour: mode == CorridorMode::Fallback,
            population: false,
            faults: None,
            load: None,
        }
    }

    /// Smaller/faster [`mobility`](CorridorConfig::mobility) for tests.
    pub fn mobility_smoke(mode: CorridorMode) -> CorridorConfig {
        CorridorConfig {
            frame_count: 12,
            base_frame_interval: Duration::from_millis(1_200),
            speed_mps: 5.0,
            far_dwell: Duration::from_secs(1),
            ..CorridorConfig::mobility(mode)
        }
    }

    /// The chaos sweep cell at `drop`: the Reanchor mobility walk under
    /// control faults, with the core detour on so a session that loses
    /// its path switch has a path to fall back to.
    pub fn chaos(drop: f64) -> CorridorConfig {
        CorridorConfig::mobility(CorridorMode::Reanchor).under_faults(drop)
    }

    /// Smaller/faster [`chaos`](CorridorConfig::chaos) for tests.
    pub fn chaos_smoke(drop: f64) -> CorridorConfig {
        CorridorConfig::mobility_smoke(CorridorMode::Reanchor).under_faults(drop)
    }

    /// The scale benchmark at `ue_count` concurrent Reanchor sessions.
    pub fn scale(ue_count: usize) -> CorridorConfig {
        CorridorConfig {
            mode: CorridorMode::Reanchor,
            ue_count,
            seed: 42,
            frame_count: 8,
            base_frame_interval: Duration::from_millis(2_500),
            speed_mps: 4.0,
            far_dwell: Duration::ZERO,
            core_detour: true,
            population: true,
            faults: None,
            load: None,
        }
    }

    /// Smaller/faster [`scale`](CorridorConfig::scale) for tests.
    pub fn scale_smoke(ue_count: usize) -> CorridorConfig {
        CorridorConfig {
            frame_count: 4,
            speed_mps: 6.0,
            ..CorridorConfig::scale(ue_count)
        }
    }

    /// The loaded benchmark cell: `ue_count` scale sessions against a
    /// `bg_mbps` Mbit/s flood through the 100 Mbit/s core.
    pub fn loaded(ue_count: usize, bg_mbps: u64) -> CorridorConfig {
        CorridorConfig::scale(ue_count).under_load(bg_mbps, 50)
    }

    /// Smaller/faster [`loaded`](CorridorConfig::loaded) for tests.
    pub fn loaded_smoke(ue_count: usize, bg_mbps: u64) -> CorridorConfig {
        CorridorConfig::scale_smoke(ue_count).under_load(bg_mbps, 25)
    }

    fn under_faults(self, drop: f64) -> CorridorConfig {
        CorridorConfig {
            core_detour: true,
            faults: Some(ControlFaults { seed: 7, drop }),
            ..self
        }
    }

    fn under_load(self, bg_mbps: u64, cloud_probes: u64) -> CorridorConfig {
        CorridorConfig {
            load: Some(CoreLoad {
                bg_rate_bps: bg_mbps * 1_000_000,
                cloud_probes,
            }),
            ..self
        }
    }

    /// The effective per-UE frame interval: the base interval, raised to
    /// `ue_count × PER_FRAME_BUDGET` once the population would
    /// oversubscribe the serial server.
    pub(crate) fn frame_interval(&self) -> Duration {
        let floor = Duration::from_nanos(Self::PER_FRAME_BUDGET.nanos() * self.ue_count as u64);
        self.base_frame_interval.max(floor)
    }

    /// Start offset between consecutive UEs: one frame interval spread
    /// across the population, so captures interleave into a steady ring
    /// at the serial server — bursty arrivals queue past the client's
    /// stall timeout and trigger a re-upload storm.
    pub(crate) fn stagger(&self) -> Duration {
        Duration::from_nanos(self.frame_interval().nanos() / self.ue_count as u64)
    }

    /// Host poll step of [`CorridorScenario::await_sessions`]: how often
    /// it checks the serving cells and the sessions.
    fn poll(&self) -> Duration {
        Duration::from_millis(if self.population { 200 } else { 100 })
    }

    /// Does each UE run a liveness probe to the AR server?
    fn liveness_probes(&self) -> bool {
        !self.population || self.load.is_some()
    }

    /// How long each liveness probe runs from kickoff: the walk and far
    /// dwell, or under [`CoreLoad`] every stagger plus a 2 s tail too.
    fn liveness_span(&self) -> Duration {
        let walk = walk_time(self.speed_mps) + self.far_dwell;
        match self.load {
            Some(_) => {
                Duration::from_nanos(self.stagger().nanos() * self.ue_count as u64)
                    + walk
                    + Duration::from_secs(2)
            }
            None => walk,
        }
    }
}

/// How handovers resolved along the recovery ladder (summed over eNBs),
/// and the control faults that pushed them there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Handovers the target eNBs completed (path switch acknowledged).
    pub completed: u64,
    /// X2 Handover Request retransmissions at source eNBs.
    pub ho_retx: u64,
    /// Handovers cancelled after the target never acked (source side).
    pub cancelled: u64,
    /// Admitted-then-cancelled handovers released at target eNBs.
    pub cancelled_in: u64,
    /// Path Switch Request retransmissions at target eNBs.
    pub ps_retx: u64,
    /// Path-switch exhaustion fallbacks (release to default bearer).
    pub fallback: u64,
    /// RRC re-establishments served by eNBs.
    pub reestablished: u64,
    /// Control packets dropped by injected faults.
    pub injected_drops: u64,
    /// Control packets an injected duplicate fault fired on (a second
    /// copy is delivered only when the link then accepts the packet).
    pub injected_duplicates: u64,
    /// Control packets an injected reorder fault fired on.
    pub injected_reorders: u64,
    /// Control packets lost to congestion/queue overflow instead (the
    /// injected/organic attribution split on the same links).
    pub congestion_drops: u64,
}

/// What [`CoreLoad`] measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Background load offered through the core, bits/s.
    pub bg_rate_bps: u64,
    /// Cloud-probe round trips over the congested path, milliseconds,
    /// every UE in order.
    pub cloud_rtts_ms: Vec<f64>,
    /// Cloud probes (sent, never answered) across every UE.
    pub cloud_probes: (u64, u64),
    /// Per-DSCP-class queue counters on the SGW-U → PGW-U leg, in
    /// ascending class order.
    pub core_classes: Vec<(u8, ClassStats)>,
    /// Total queue-bound drops on that leg (all classes).
    pub core_drops_queue: u64,
}

/// Results of a corridor run.
#[derive(Debug, Clone)]
pub struct CorridorReport {
    /// Variant that produced it.
    pub mode: CorridorMode,
    /// Frames each session was asked to complete.
    pub frames_requested: u64,
    /// Per-UE outcomes, in UE-index order.
    pub ues: Vec<UeReport>,
    /// Per-handover service interruption, milliseconds, every UE in
    /// order.
    pub interruptions_ms: Vec<f64>,
    /// X2AP messages on the wire (handover signalling).
    pub x2_msgs: u64,
    /// S1AP messages on the wire (path switches, attach, paging).
    pub s1ap_msgs: u64,
    /// GTPv2-C messages on the wire (bearer management).
    pub gtpc_msgs: u64,
    /// Total core-network signalling bytes (excludes radio RRC).
    pub core_signalling_bytes: u64,
    /// Downlink packets forwarded over X2 during handover execution.
    pub x2_forwarded: u64,
    /// Liveness probes (sent, lost) across every UE.
    pub probes: (u64, u64),
    /// Liveness-probe round trips, milliseconds, every UE in order.
    pub probe_rtts_ms: Vec<f64>,
    /// Mid-stream MRS re-anchor handshakes (requests, acks).
    pub reanchors: (u64, u64),
    /// Dedicated bearers relocated to a new cell's local gateway.
    pub dedicated_reanchored: u64,
    /// Dedicated bearers released at handover (fallback path).
    pub dedicated_released: u64,
    /// The recovery audit.
    pub recovery: Recovery,
    /// UEs that ended the run outside a legal RRC state.
    pub stuck_ues: usize,
    /// Handover procedures still open at any eNB after the drain.
    pub outstanding_procedures: usize,
    /// GW-C dedicated-bearer activation counter at the end of the run.
    pub dedicated_active: u64,
    /// Dedicated bearers actually present in the GW-C session table.
    pub dedicated_live: u64,
    /// Dedicated activations still mid-flight after the drain.
    pub dedicated_pending: u64,
    /// The load layer's measurements (`None` without [`CoreLoad`]).
    pub load: Option<LoadReport>,
    /// Engine events dispatched over the whole run.
    pub events_processed: u64,
    /// Simulated time the run covered.
    pub sim_elapsed: Duration,
}

impl CorridorReport {
    /// UEs that ran.
    pub fn ue_count(&self) -> usize {
        self.ues.len()
    }

    /// Frames completed across every UE.
    pub fn frames_done(&self) -> u64 {
        self.ues.iter().map(|u| u.frames_done).sum()
    }

    /// Sessions that did not complete every requested frame.
    pub fn wedged(&self) -> usize {
        UeReport::wedged(&self.ues, self.frames_requested)
    }

    /// Total handovers across every UE.
    pub fn total_handovers(&self) -> u64 {
        UeReport::total_handovers(&self.ues)
    }

    /// Total client-side retransmissions across every UE.
    pub fn total_retransmissions(&self) -> u64 {
        self.ues.iter().map(|u| u.retransmissions).sum()
    }

    /// Worst single-handover interruption, milliseconds (0 if none).
    pub fn interrupt_max_ms(&self) -> f64 {
        self.interruptions_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Recovery-counter conservation: every dedicated-bearer activation
    /// the GW-C ever acknowledged is still accounted for by a bearer in
    /// its session table, with none mid-flight — faults may delay or
    /// retry activations, but must never leak or double-count one.
    pub(crate) fn conserved(&self) -> bool {
        self.dedicated_active == self.dedicated_live && self.dedicated_pending == 0
    }

    /// Did every UE land in a legal state with nothing outstanding and
    /// every bearer accounted for?
    pub fn clean(&self) -> bool {
        self.stuck_ues == 0 && self.outstanding_procedures == 0 && self.conserved()
    }
}

/// A built corridor.
pub struct CorridorScenario {
    /// The network (owns the simulator).
    pub net: LteNetwork,
    /// Client nodes, in UE-index order.
    pub clients: Vec<NodeId>,
    liveness: Vec<NodeId>,
    cloud_probes: Vec<NodeId>,
    /// Per-UE device manager and the serving cell it last saw (re-anchor
    /// leg only).
    dms: Vec<(DeviceManager, usize)>,
    cfg: CorridorConfig,
}

impl CorridorScenario {
    /// Build the corridor: server, MRS, every UE attached with its client,
    /// then the load layer's reflector and each UE's probes.
    pub fn build(cfg: CorridorConfig) -> CorridorScenario {
        assert!(cfg.ue_count >= 1, "the corridor needs at least one UE");
        let cell = |x: f64, mec: bool, region: u32| CellConfig {
            pos: Point::new(x, 0.0),
            mec,
            region,
        };
        let mut lte = LteConfig {
            seed: cfg.seed,
            ue_count: cfg.ue_count,
            cells: vec![
                cell(0.0, true, 0),
                cell(CELL_SPACING_M, cfg.mode == CorridorMode::Reanchor, 1),
            ],
            core_detour: cfg.core_detour,
            ..LteConfig::default()
        };
        if cfg.load.is_some() {
            lte.core_rate_bps = CoreLoad::CORE_RATE_BPS;
            lte.core_queue_bytes = CoreLoad::CORE_QUEUE_BYTES;
        }
        let mut net = LteNetwork::new(lte);

        let db = retail_db(cfg.seed);
        let uses_mrs = cfg.mode != CorridorMode::Cloud;
        let server_addr = if uses_mrs {
            addr::MEC_BASE
        } else {
            addr::CLOUD_BASE
        };
        let node = ar_server(ArServerConfig::new(server_addr), &db);
        let (_, assigned) = if uses_mrs {
            net.add_mec_server(node)
        } else {
            net.add_cloud_server(node, CLOUD_REGION.link_config())
        };
        assert_eq!(assigned, server_addr);
        if uses_mrs {
            let mut mrs = Mrs::new(addr::CLOUD_BASE);
            mrs.register_service(
                SERVICE,
                ServerInstance {
                    addr: server_addr,
                    distance: 1.0,
                },
            );
            add_mrs(&mut net, mrs);
        }

        let scene_ids = scene_ids(&db);
        let mrs = uses_mrs.then(|| (addr::CLOUD_BASE, SERVICE.to_string()));
        let mut ips = Vec::with_capacity(cfg.ue_count);
        let mut clients = Vec::with_capacity(cfg.ue_count);
        for i in 0..cfg.ue_count {
            let ue_ip = net.attach(i);
            let client = ArFrontend::new(ArFrontendConfig {
                mrs: mrs.clone(),
                frame_count: cfg.frame_count,
                min_frame_interval: Some(cfg.frame_interval()),
                scene_ids: scene_ids.clone(),
                ..ArFrontendConfig::new(ue_ip, server_addr)
            });
            clients.push(net.connect_ue_app(i, Box::new(client), AppSelector::port(APP_PORT)));
            ips.push(ue_ip);
        }

        // The congestion witness: a reflector on the far side of the
        // core, 2 ms beyond the internet — the Fig. 3(g) cloud server.
        let cloud = cfg.load.map(|load| {
            let (_, reflector) = net.add_cloud_server(
                Box::new(Reflector::new()),
                LinkConfig::delay_only(Duration::from_millis(2)),
            );
            (reflector, load.cloud_probes)
        });
        let liveness_count = cfg.liveness_span().millis() / LIVENESS_INTERVAL.millis();
        let (mut cloud_probes, mut liveness) = (Vec::new(), Vec::new());
        for (i, &ue_ip) in ips.iter().enumerate() {
            let mut probe = |dst, interval, count| {
                let agent = PingAgent::new(ue_ip, dst, interval, count);
                net.connect_ue_app(i, Box::new(agent), AppSelector::protocol(proto::ICMP))
            };
            if let Some((reflector, count)) = cloud {
                cloud_probes.push(probe(reflector, CLOUD_PROBE_INTERVAL, count));
            }
            // Answered by the AR server, riding whatever bearer the TFT
            // puts AR-server traffic on: its losses meter handover gaps.
            if cfg.liveness_probes() {
                liveness.push(probe(server_addr, LIVENESS_INTERVAL, liveness_count));
            }
        }

        // The device manager's connectivity ledger: the CI app opted in
        // at launch, so serving-cell changes drive (re-)creates. Only the
        // close study of one walk drives this re-anchor leg.
        let mut dms = Vec::new();
        if !cfg.population {
            for i in 0..cfg.ue_count {
                let mut dm = DeviceManager::new();
                let app = dm.register_app(
                    &mut Modem::new(),
                    ServiceInfo {
                        service: SERVICE.to_string(),
                        interests: vec![],
                    },
                );
                if uses_mrs {
                    let _ = dm.on_app_launch(app);
                    dm.on_mrs_ack(SERVICE, true);
                }
                dms.push((dm, net.serving_cell(i)));
            }
        }

        CorridorScenario {
            net,
            clients,
            liveness,
            cloud_probes,
            dms,
            cfg,
        }
    }

    /// Per-frame stats of UE `ue`'s session so far.
    pub fn frames(&self, ue: usize) -> &[FrameStats] {
        &self.net.sim.node_ref::<ArFrontend>(self.clients[ue]).frames
    }

    /// Schedule every kickoff and walk, arm the fault and load layers,
    /// and start the probes, returning the run's timing anchors.
    pub fn schedule(&mut self) -> Timeline {
        let start = self.net.sim.now();
        let stagger = self.cfg.stagger();
        for (i, &client) in self.clients.iter().enumerate() {
            let offset = Duration::from_nanos(stagger.nanos() * i as u64);
            self.net
                .sim
                .schedule_timer(client, start + offset, ArFrontend::KICKOFF);
            // The walk begins with the UE's stagger dwell at the near end,
            // so handovers spread out the same way the sessions do.
            self.net
                .start_mobility(i, walk(0.0, offset, self.cfg.far_dwell), self.cfg.speed_mps);
        }
        let n = self.cfg.ue_count as u64;
        let walk = walk_time(self.cfg.speed_mps) + self.cfg.far_dwell;
        let mut timeline = Timeline::new(
            start,
            Duration::from_nanos(stagger.nanos() * n),
            walk,
            Duration::from_nanos(self.cfg.frame_interval().nanos() * self.cfg.frame_count.max(1)),
        );
        if !self.cfg.population {
            // The single walk stops 10 s plus 2 s a frame past its walk.
            // Only a session stalled by faults runs that long, and how
            // long it runs sets how many faults the plan draws.
            timeline.deadline = start + walk + Duration::from_secs(10 + 2 * self.cfg.frame_count);
        }
        if let Some(f) = self.cfg.faults {
            arm_control_faults(&mut self.net, &timeline, f.seed, f.drop, f.drop / 2.0);
        }
        if let Some(load) = self.cfg.load {
            if load.bg_rate_bps > 0 {
                self.net.start_background_traffic(
                    load.bg_rate_bps,
                    timeline.settled(),
                    timeline.deadline,
                );
            }
            // Cloud probes start once the bottleneck queue has begun to
            // fill.
            let probe_start = timeline.settled() + Duration::from_secs(2);
            for &p in &self.cloud_probes {
                self.net
                    .sim
                    .schedule_timer(p, probe_start, PingAgent::KICKOFF);
            }
        }
        for &p in &self.liveness {
            self.net.sim.schedule_timer(p, start, PingAgent::KICKOFF);
        }
        timeline
    }

    /// Run until every session completes and every walk has ended, or the
    /// deadline passes, driving the re-anchor leg on serving-cell
    /// changes; then drain in-flight traffic so counters settle.
    pub fn await_sessions(&mut self, timeline: &Timeline) {
        let poll = self.cfg.poll();
        while self.net.sim.now() < timeline.deadline {
            let t = self.net.sim.now() + poll;
            self.net.sim.run_until(t);
            let now = self.net.sim.now();
            for (i, (dm, serving)) in self.dms.iter_mut().enumerate() {
                let now_serving = self.net.serving_cell(i);
                if now_serving == *serving {
                    continue;
                }
                *serving = now_serving;
                // A cell change either re-creates MEC connectivity
                // (idempotent when the network already re-anchored) or
                // records the fallback to default.
                let cell_is_mec = self.net.cfg.cells[now_serving].mec;
                for _ in dm.on_cell_change(cell_is_mec) {
                    self.net
                        .sim
                        .schedule_timer(self.clients[i], now, ArFrontend::REANCHOR);
                }
            }
            let all_done = self
                .clients
                .iter()
                .all(|&c| self.net.sim.node_ref::<ArFrontend>(c).done());
            if all_done && now >= timeline.walk_end {
                break;
            }
        }
        let drain = self.net.sim.now() + Duration::from_millis(500);
        self.net.sim.run_until(drain);
    }

    /// Collect the report for a run that began at `timeline.start`.
    pub fn collect(&self, timeline: &Timeline) -> CorridorReport {
        let net = &self.net;
        let sim = &net.sim;
        let mut recovery = Recovery::default();
        let (mut x2_forwarded, mut outstanding_procedures) = (0, 0);
        for &enb in &net.enbs {
            let e = sim.node_ref::<Enb>(enb);
            x2_forwarded += e.x2_forwarded;
            outstanding_procedures += e.outstanding_handovers();
            recovery.completed += e.ho_in_done;
            recovery.ho_retx += e.ho_retx;
            recovery.cancelled += e.ho_cancelled;
            recovery.cancelled_in += e.ho_in_cancelled;
            recovery.ps_retx += e.ps_retx;
            recovery.fallback += e.ps_fallback;
            recovery.reestablished += e.reest_in;
        }
        for (endpoint, _label) in net.control_fault_points() {
            if let Some(stats) = sim.link_stats(endpoint) {
                recovery.injected_drops += stats.drops_injected;
                recovery.injected_duplicates += stats.duplicates_injected;
                recovery.injected_reorders += stats.reorders_injected;
                recovery.congestion_drops += stats.drops_queue + stats.drops_loss;
            }
        }
        let (mut interruptions_ms, mut stuck_ues) = (Vec::new(), 0);
        for &ue in &net.ues {
            let u = sim.node_ref::<Ue>(ue);
            interruptions_ms.extend(u.interruption_log.iter().map(|&(_, gap)| ms(gap)));
            if !matches!(u.state, UeState::Connected | UeState::Idle) {
                stuck_ues += 1;
            }
        }
        let mut reanchors = (0, 0);
        for &c in &self.clients {
            let c = sim.node_ref::<ArFrontend>(c);
            reanchors.0 += c.reanchor_requests;
            reanchors.1 += c.reanchor_acks;
        }
        let (probes, probe_rtts_ms) = pings(net, &self.liveness);
        let load = self.cfg.load.map(|load| {
            let (cloud_probes, cloud_rtts_ms) = pings(net, &self.cloud_probes);
            let core = sim
                .link_stats(net.core_uplink())
                .expect("the SGW-U → PGW-U leg always exists");
            LoadReport {
                bg_rate_bps: load.bg_rate_bps,
                cloud_rtts_ms,
                cloud_probes,
                core_classes: core.classes.clone(),
                core_drops_queue: core.drops_queue,
            }
        });
        let gwc = sim.node_ref::<GwControl>(net.gwc);
        CorridorReport {
            mode: self.cfg.mode,
            frames_requested: self.cfg.frame_count,
            ues: UeReport::collect(net, &self.clients),
            interruptions_ms,
            x2_msgs: net.log.count(Protocol::X2Sctp),
            s1ap_msgs: net.log.count(Protocol::S1apSctp),
            gtpc_msgs: net.log.count(Protocol::Gtpv2),
            core_signalling_bytes: net.log.core_bytes(),
            x2_forwarded,
            probes,
            probe_rtts_ms,
            reanchors,
            dedicated_reanchored: gwc.dedicated_reanchored,
            dedicated_released: gwc.dedicated_released,
            recovery,
            stuck_ues,
            outstanding_procedures,
            dedicated_active: gwc.dedicated_active,
            dedicated_live: gwc.dedicated_live(),
            dedicated_pending: gwc.dedicated_pending(),
            load,
            events_processed: sim.events_processed(),
            sim_elapsed: sim.now() - timeline.start,
        }
    }

    /// Run every session to completion (or the deadline) and collect the
    /// report.
    pub fn run(mut self) -> CorridorReport {
        let timeline = self.schedule();
        self.await_sessions(&timeline);
        self.collect(&timeline)
    }
}

fn ms(d: Duration) -> f64 {
    d.secs_f64() * 1e3
}

/// `(sent, lost)` and every round trip in milliseconds across `agents`.
fn pings(net: &LteNetwork, agents: &[NodeId]) -> ((u64, u64), Vec<f64>) {
    let agents: Vec<&PingAgent> = agents.iter().map(|&p| net.sim.node_ref(p)).collect();
    // Sized exactly: a loaded sweep holds every cell's RTTs at once.
    let mut rtts = Vec::with_capacity(agents.iter().map(|p| p.rtts().len()).sum());
    let mut counts = (0, 0);
    for p in agents {
        counts.0 += p.sent();
        counts.1 += p.lost();
        rtts.extend(p.rtts().iter().map(|&d| ms(d)));
    }
    (counts, rtts)
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CorridorConfig>();
    assert_send::<CorridorReport>();
};
