//! The one scenario builder of the mobility experiments: R sites, each a
//! two-cell course that a population of UEs walks with live AR sessions,
//! over one LTE core — from the single-UE mobility walk to the 10 240-UE
//! metro.
//!
//! The paper's deployment is a MEC-equipped small cell coexisting with a
//! commercial macrocell (§6, §8): users walk in and out of MEC coverage
//! mid-session. Each site is two cells 40 m apart; every UE walks from
//! 2 m to 38 m and back, handing over twice, and the k-th UE of a site
//! sets off `k × interval / N` late so frame captures reach the site's
//! serial AR server as a uniform ring.
//!
//! **Sites.** A regional run places each region's course 1 km from its
//! neighbours, pinned to its own [`CellConfig::region`], so the engine
//! can run each region on its own shard. Each region gets its own local
//! GW-U ([`LteConfig::local_gw_per_region`]) and its own MEC server,
//! registered with the cloud MRS under a per-region service name; UEs
//! only see (and only measure) their own region's two cells, so the radio
//! planes never couple regions. Cross-region traffic is the shared
//! control plane (MME / GW-C / PCRF / MRS in the core region), and the
//! conservative-lookahead exchange keeps it ordered identically at every
//! shard count: a run at `--shards 8` is byte-identical to `--shards 1`.
//! A run of one region is the **corridor**: both cells share one GW-U
//! (the only shape the core detour supports), the service is
//! [`SERVICE`], and the far cell sits in region 1, so a sharded corridor
//! still hands over across shards.
//!
//! **Layers** (the regional presets re-anchor, as a population, with the
//! rest off):
//!
//! * [`BearerMode`] — how the session's bearer follows the walk (the far
//!   cell has MEC only under [`BearerMode::Reanchor`]; the cloud baseline
//!   has no MRS; a regional run re-anchors);
//! * [`ControlFaults`] — seeded drops, duplicates and reorders on every
//!   S1AP/X2 link, audited per recovery rung in [`Recovery`];
//! * [`CoreLoad`] — a narrowed core flooded past capacity (the Fig. 3(g)
//!   regime), measured in [`LoadReport`];
//! * [`MetroConfig::crash`] — a MEC crash with the failover machinery
//!   and its audit ([`crate::failover`]);
//! * [`MetroConfig::population`] — a population study rather than the
//!   close study of one walk.
//!
//! **Presets.** [`MetroConfig::figure`] is the metro (16 heterogeneous
//! regions, 10 240 UEs, 10:1 skew for the balanced placement to absorb),
//! [`MetroConfig::city`] the city (8 equal regions of 256 UEs, the shape
//! the drop soak and the failover ladder run over). The corridor presets
//! [`MetroConfig::mobility`], `chaos`, `scale` and `loaded` are one-region
//! runs; each preset has a smoke twin for tests.
//!
//! Pacing is per region: each region's frame interval has a floor of
//! `size_r × per_frame_budget`, so every serial server sees the same
//! one-frame-per-budget arrival ring however many subscribers share it.
//! In the metro, small regions therefore finish early and the tail of the
//! run is carried by the downtown regions alone — exactly the load skew
//! the balanced placement has to absorb.

use crate::arclient::{ArFrontend, ArFrontendConfig, FrameStats};
use crate::arserver::{ArServer, ArServerConfig};
use crate::failover::{self, Crash, FailoverAudit};
use crate::locmgr::{LocalizationManager, LocalizationMetadata};
use crate::mrs::{port as mrs_port, Mrs, ServerInstance, LEASE_CHECK_PERIOD};
use crate::msg::APP_PORT;
use crate::scenario::SERVICE;
use crate::search::SearchStrategy;
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
use acacia_vision::image::Resolution;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Two cells 40 m apart; the UE walks from 2 m to 38 m and back. With
/// the indoor path-loss default and 3 dB hysteresis the A3 crossover
/// sits near 22 m outbound (and symmetrically near 18 m inbound).
const CELL_SPACING_M: f64 = 40.0;
const WALK_NEAR_M: f64 = 2.0;
const WALK_FAR_M: f64 = 38.0;
/// North-south distance between regions. Irrelevant to the radio plane
/// (UEs only measure their own region's cells) but keeps positions
/// honest on a city map.
const REGION_SPACING_M: f64 = 1_000.0;
/// Objects per subsection in the retail database every server holds.
const DB_PER_SUBSECTION: usize = 1;
/// Matching execution cap at every AR server.
pub const EXEC_CAP: usize = 24;
/// The MRS: the first cloud server.
pub(crate) const MRS_ADDR: Ipv4Addr = addr::CLOUD_BASE;
/// Where the [`BearerMode::Cloud`] server runs.
const CLOUD_REGION: Ec2Region = Ec2Region::California;
/// Liveness-probe spacing: resolves handover interruption to ±25 ms.
const LIVENESS_INTERVAL: Duration = Duration::from_millis(25);
/// Cloud-probe spacing under [`CoreLoad`].
const CLOUD_PROBE_INTERVAL: Duration = Duration::from_millis(200);

/// An AR server as every site runs it: i7 octa-core, naive search at
/// [`EXEC_CAP`], the retail store's floor plan.
fn ar_server(cfg: ArServerConfig, db: &Arc<ObjectDb>) -> Box<ArServer> {
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
    /// Hard stop for [`MetroScenario::await_sessions`].
    pub deadline: Instant,
}

impl Timeline {
    /// One second past the last kickoff: every dedicated bearer is up,
    /// so faults and load opened here stress handovers, not bring-up
    /// (bearer set-up crosses the core to the cloud MRS).
    pub(crate) fn settled(&self) -> Instant {
        self.start + self.stagger_total + Duration::from_secs(1)
    }
}

/// How the session's bearer follows the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BearerMode {
    /// ACACIA-reanchor: both cells MEC-equipped; the dedicated bearer is
    /// relocated onto the target cell's local gateway at every handover.
    Reanchor,
    /// Default-fallback: the far cell has no MEC path; the bearer is torn
    /// down at handover, traffic rides the default bearer + core detour,
    /// and the re-anchor leg re-creates the bearer on return.
    Fallback,
    /// Remote server over the default bearer (conventional EPC).
    Cloud,
}

impl BearerMode {
    /// All variants, in presentation order.
    pub const ALL: [BearerMode; 3] = [
        BearerMode::Reanchor,
        BearerMode::Fallback,
        BearerMode::Cloud,
    ];

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            BearerMode::Reanchor => "ACACIA-reanchor",
            BearerMode::Fallback => "default-fallback",
            BearerMode::Cloud => "CLOUD",
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
    /// direction; duplicates and reorders (held back 3 ms) ride along at
    /// half this rate each.
    pub drop: f64,
}

impl ControlFaults {
    /// Arm a fault plan on every S1AP and X2 link direction from
    /// [`Timeline::settled`] on. Link `idx` of
    /// [`LteNetwork::control_fault_points`] draws from its own stream
    /// seeded `seed + (idx + 1) × φ`, so the plan is identical at every
    /// shard and worker count. Rate 0 arms nothing.
    fn arm(&self, net: &mut LteNetwork, timeline: &Timeline) {
        if self.drop <= 0.0 {
            return;
        }
        let churn = self.drop / 2.0;
        let start = timeline.settled();
        let end = start + Duration::from_secs(86_400);
        for (idx, endpoint) in net.control_fault_points().into_iter().enumerate() {
            let stream = (idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut plan = FaultPlan::new(self.seed.wrapping_add(stream));
            plan.add_rule(FaultRule::drop(PacketClass::any(), self.drop).in_window(start, end));
            plan.add_rule(FaultRule::duplicate(PacketClass::any(), churn).in_window(start, end));
            plan.add_rule(
                FaultRule::reorder(PacketClass::any(), churn, Duration::from_millis(3))
                    .in_window(start, end),
            );
            net.sim.attach_fault_plan(endpoint, plan);
        }
    }
}

/// Background load through a narrowed shared core.
#[derive(Debug, Clone, Copy)]
pub struct CoreLoad {
    /// Constant-bit-rate flood through the SGW-U → PGW-U leg, bits/s,
    /// from one second after the last kickoff to the deadline. Zero keeps
    /// the narrowed core, reflector and probes but sends no flood (the
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
    const CORE_QUEUE_BYTES: u64 = 12 * 1024 * 1024;
}

/// Scenario parameters: the sites, the walk, and the layers.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Subscribers homed in each region (two cells per region); the
    /// length is the region count, and one region is the corridor.
    pub region_sizes: Vec<usize>,
    /// Master seed.
    pub seed: u64,
    /// Frames each session captures.
    pub frame_count: u64,
    /// Per-UE pacing between captures before the serial-server floor.
    pub base_frame_interval: Duration,
    /// Serial-server time budget one frame may consume; region `r`'s
    /// effective interval never drops below `region_sizes[r] × budget`.
    /// Measured serial-server occupancy per frame at end-to-end
    /// resolution is ~220 ms, so 300 ms caps utilization near 73%.
    pub per_frame_budget: Duration,
    /// Walk speed, m/s.
    pub speed_mps: f64,
    /// Dwell at the far end before walking back.
    pub far_dwell: Duration,
    /// Camera resolution of every capture. The metro uses the smallest
    /// Fig. 3(e) preview — it measures the engine, not the vision
    /// pipeline, and a lighter frame keeps the serial-server budget (and
    /// with it the whole run's simulated span) small.
    pub resolution: Resolution,
    /// Budget the core region (region 0, which hosts the shared EPC
    /// control plane, MRS and PCRF) one extra average region of
    /// placement weight for the traffic that terminates there. On in the
    /// metro presets; the city leaves it off, because with equal regions
    /// it under-fills the core shard far more than that traffic fills it.
    pub core_weight_bias: bool,
    /// How the bearer follows the walk; a regional run re-anchors.
    pub mode: BearerMode,
    /// Route MEC traffic over the default bearer through the core when a
    /// UE has no dedicated bearer (one-region runs only). Fallback mode
    /// needs it; chaos, scale and loaded keep it as a safety net for a
    /// lost path switch. Off for the clean Reanchor walk, where turning
    /// it on moves the interrupt and probe-loss cells of the mobility
    /// figure.
    pub core_detour: bool,
    /// A population study rather than the close study of one walk
    /// (mobility, chaos). The close study polls every 100 ms, meters the
    /// data path with 25 ms liveness probes and stops 10 s plus 2 s a
    /// frame past its walk; a population polls every 200 ms, probes
    /// liveness only under [`CoreLoad`], stops twice its longest session
    /// plus 30 s past the last walk, and a one-region population (scale,
    /// loaded) runs no re-anchor leg.
    pub population: bool,
    /// Control-plane fault injection (`None` = clean run).
    pub faults: Option<ControlFaults>,
    /// Background load through a narrowed core (`None` = the default
    /// 1 Gbit/s core with no flood, no reflector, no cloud probes).
    pub load: Option<CoreLoad>,
    /// A MEC crash injected mid-stream, with the failover wiring it
    /// needs (server heartbeats, MRS lease monitoring, neighbour/cloud
    /// fallback registrations, the core routes a failed-over session
    /// rides). `None` = no failover machinery at all.
    pub crash: Option<Crash>,
}

impl MetroConfig {
    /// The metro benchmark: 16 regions from 1280-UE downtown to 128-UE
    /// suburb, 10240 subscribers total. Region 0 — the site that also
    /// hosts the shared core and cloud (every S1AP/GTP-C exchange and MRS
    /// lookup terminates there) — is deliberately a mid-sized region, and
    /// [`MetroConfig::core_weight_bias`] budgets it one extra average
    /// region of placement weight for that traffic.
    pub fn figure() -> MetroConfig {
        MetroConfig {
            region_sizes: vec![
                896, 1280, 1152, 1024, 1024, 896, 768, 768, 640, 512, 384, 256, 192, 192, 128, 128,
            ],
            per_frame_budget: Duration::from_millis(100),
            resolution: Resolution::new(320, 240),
            core_weight_bias: true,
            ..MetroConfig::city()
        }
    }

    /// Smaller/faster metro for tests: the same 16-region skew (10:1
    /// between the heaviest and lightest region) so an 8-shard run
    /// genuinely splits and balanced placement still has decisions to
    /// make, with two orders of magnitude fewer subscribers.
    pub fn smoke() -> MetroConfig {
        MetroConfig {
            region_sizes: vec![10, 9, 8, 8, 7, 7, 6, 6, 5, 4, 3, 2, 2, 2, 1, 1],
            frame_count: 3,
            speed_mps: 6.0,
            // A wider budget than the figure's: it puts the heaviest
            // smoke region above the base-interval knee, so the pacing
            // ladder still has both regimes at 10-UE scale.
            per_frame_budget: Duration::from_millis(300),
            ..MetroConfig::figure()
        }
    }

    /// The city benchmark: 8 equal regions × 256 UEs (16 cells, 2048
    /// subscribers) at end-to-end resolution, no placement bias.
    pub fn city() -> MetroConfig {
        MetroConfig {
            region_sizes: vec![256; 8],
            seed: 42,
            frame_count: 2,
            base_frame_interval: Duration::from_millis(2_500),
            per_frame_budget: Duration::from_millis(300),
            speed_mps: 4.0,
            far_dwell: Duration::ZERO,
            resolution: Resolution::E2E,
            core_weight_bias: false,
            mode: BearerMode::Reanchor,
            core_detour: false,
            population: true,
            faults: None,
            load: None,
            crash: None,
        }
    }

    /// Smaller/faster city for tests: the same 16-cell/8-region shape so
    /// an 8-shard run genuinely splits, far fewer subscribers.
    pub fn city_smoke() -> MetroConfig {
        MetroConfig {
            region_sizes: vec![4; 8],
            frame_count: 3,
            speed_mps: 6.0,
            ..MetroConfig::city()
        }
    }

    /// The mobility figure: one UE on a ~27 s there-and-back walk under
    /// a session paced (45 × 600 ms) to cover both handovers.
    pub fn mobility(mode: BearerMode) -> MetroConfig {
        MetroConfig {
            region_sizes: vec![1],
            frame_count: 45,
            base_frame_interval: Duration::from_millis(600),
            speed_mps: 3.0,
            far_dwell: Duration::from_secs(3),
            mode,
            core_detour: mode == BearerMode::Fallback,
            population: false,
            ..MetroConfig::city()
        }
    }

    /// Smaller/faster [`mobility`](MetroConfig::mobility) for tests.
    pub fn mobility_smoke(mode: BearerMode) -> MetroConfig {
        MetroConfig {
            frame_count: 12,
            base_frame_interval: Duration::from_millis(1_200),
            speed_mps: 5.0,
            far_dwell: Duration::from_secs(1),
            ..MetroConfig::mobility(mode)
        }
    }

    /// The chaos sweep cell at `drop`: the Reanchor mobility walk under
    /// control faults, with the core detour on so a session that loses
    /// its path switch has a path to fall back to.
    pub fn chaos(drop: f64) -> MetroConfig {
        MetroConfig::mobility(BearerMode::Reanchor).under_faults(drop)
    }

    /// Smaller/faster [`chaos`](MetroConfig::chaos) for tests.
    pub fn chaos_smoke(drop: f64) -> MetroConfig {
        MetroConfig::mobility_smoke(BearerMode::Reanchor).under_faults(drop)
    }

    /// The scale benchmark: `ue_count` concurrent Reanchor sessions on
    /// one region, eight frames each.
    pub fn scale(ue_count: usize) -> MetroConfig {
        MetroConfig {
            region_sizes: vec![ue_count],
            frame_count: 8,
            core_detour: true,
            ..MetroConfig::city()
        }
    }

    /// Smaller/faster [`scale`](MetroConfig::scale) for tests.
    pub fn scale_smoke(ue_count: usize) -> MetroConfig {
        MetroConfig {
            frame_count: 4,
            speed_mps: 6.0,
            ..MetroConfig::scale(ue_count)
        }
    }

    /// The loaded benchmark cell: `ue_count` scale sessions against a
    /// `bg_mbps` Mbit/s flood through the 100 Mbit/s core.
    pub fn loaded(ue_count: usize, bg_mbps: u64) -> MetroConfig {
        MetroConfig::scale(ue_count).under_load(bg_mbps, 50)
    }

    /// Smaller/faster [`loaded`](MetroConfig::loaded) for tests.
    pub fn loaded_smoke(ue_count: usize, bg_mbps: u64) -> MetroConfig {
        MetroConfig::scale_smoke(ue_count).under_load(bg_mbps, 25)
    }

    fn under_faults(self, drop: f64) -> MetroConfig {
        MetroConfig {
            core_detour: true,
            faults: Some(ControlFaults { seed: 7, drop }),
            ..self
        }
    }

    fn under_load(self, bg_mbps: u64, cloud_probes: u64) -> MetroConfig {
        MetroConfig {
            load: Some(CoreLoad {
                bg_rate_bps: bg_mbps * 1_000_000,
                cloud_probes,
            }),
            ..self
        }
    }

    /// Region count.
    pub fn regions(&self) -> usize {
        self.region_sizes.len()
    }

    /// Total subscribers.
    pub fn ue_count(&self) -> usize {
        self.region_sizes.iter().sum()
    }

    /// The region UE index `i` is homed in (UEs are numbered
    /// region-major).
    pub(crate) fn ue_region(&self, i: usize) -> usize {
        let mut rest = i;
        for (r, &size) in self.region_sizes.iter().enumerate() {
            if rest < size {
                return r;
            }
            rest -= size;
        }
        panic!("UE index {i} out of range for {} UEs", self.ue_count());
    }

    /// The MRS service name region `r`'s clients resolve: per region in
    /// a regional run, the store's own name on the corridor.
    fn service(&self, r: usize) -> String {
        if self.regions() == 1 {
            SERVICE.to_string()
        } else {
            format!("{SERVICE}-r{r}")
        }
    }

    /// Region `r`'s effective per-UE frame interval: the base interval,
    /// raised to `size_r × per_frame_budget` once that region's
    /// population would oversubscribe its serial server. Heavier regions
    /// pace slower — the aggregate arrival rate at every server is the
    /// same.
    pub(crate) fn region_interval(&self, r: usize) -> Duration {
        let floor =
            Duration::from_nanos(self.per_frame_budget.nanos() * self.region_sizes[r] as u64);
        self.base_frame_interval.max(floor)
    }

    /// Kickoff/walk stagger between consecutive UEs of region `r`: one
    /// region interval spread across that region's population, so
    /// captures arrive at each server as a uniform ring even though the
    /// rings turn at different speeds (bursty arrivals would queue past
    /// the client's stall timeout and trigger a re-upload storm).
    pub(crate) fn region_stagger(&self, r: usize) -> Duration {
        Duration::from_nanos(self.region_interval(r).nanos() / self.region_sizes[r] as u64)
    }

    /// One stagger past the latest kickoff: `max_r(size_r × stagger_r)`.
    fn stagger_total(&self) -> Duration {
        (0..self.regions())
            .map(|r| {
                Duration::from_nanos(self.region_stagger(r).nanos() * self.region_sizes[r] as u64)
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// The longest region session: interval × frames of the heaviest
    /// region, which dominates the run's tail.
    fn max_session(&self) -> Duration {
        (0..self.regions())
            .map(|r| {
                Duration::from_nanos(self.region_interval(r).nanos() * self.frame_count.max(1))
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// One walk's length: out and back at `speed_mps` plus the far dwell.
    fn walk_span(&self) -> Duration {
        Duration::from_secs_f64(2.0 * (WALK_FAR_M - WALK_NEAR_M) / self.speed_mps) + self.far_dwell
    }

    /// Host poll step of [`MetroScenario::await_sessions`]: how often it
    /// checks the serving cells and the sessions.
    fn poll(&self) -> Duration {
        Duration::from_millis(if self.population { 200 } else { 100 })
    }

    /// Does each UE run a liveness probe to its AR server?
    fn liveness_probes(&self) -> bool {
        !self.population || self.load.is_some()
    }

    /// How long each liveness probe runs from kickoff: the walk, or under
    /// [`CoreLoad`] every stagger plus a 2 s tail too.
    fn liveness_span(&self) -> Duration {
        match self.load {
            Some(_) => self.stagger_total() + self.walk_span() + Duration::from_secs(2),
            None => self.walk_span(),
        }
    }

    /// Does a serving-cell change send the session back to the MRS? Only
    /// sessions that resolve through the MRS have a bearer to re-anchor,
    /// and a one-region population leaves the re-anchor to the network.
    fn reanchor_leg(&self) -> bool {
        self.mode != BearerMode::Cloud && (!self.population || self.regions() > 1)
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

/// How handovers resolved along the recovery ladder (summed over eNBs)
/// and, under [`ControlFaults`], what happened on the faulted links.
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

/// Results of a run.
#[derive(Debug, Clone)]
pub struct MetroReport {
    /// Regions that ran.
    pub regions: usize,
    /// Total UEs.
    pub ue_count: usize,
    /// Frames each session was asked to complete.
    pub frames_requested: u64,
    /// Per-UE outcomes, in UE-index order (region-major).
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
    /// Dedicated bearers relocated onto a new cell's local gateway.
    pub dedicated_reanchored: u64,
    /// Dedicated bearers released at handover (fallback path).
    pub dedicated_released: u64,
    /// GW-C dedicated-bearer activation counter at the end of the run.
    pub dedicated_active: u64,
    /// Dedicated bearers actually present in the GW-C session table.
    pub dedicated_live: u64,
    /// Dedicated activations still mid-flight after the drain.
    pub dedicated_pending: u64,
    /// The recovery audit.
    pub recovery: Recovery,
    /// UEs that ended the run outside a legal end state
    /// (neither `Connected` nor `Idle`).
    pub stuck_ues: usize,
    /// Handover procedures still open at any eNB after the drain.
    pub outstanding_procedures: usize,
    /// Engine events dispatched over the whole run.
    pub events_processed: u64,
    /// Events dispatched per shard (length = shard count of the run).
    pub events_by_shard: Vec<u64>,
    /// The engine's `(region, shard, weight)` placement for the run.
    pub placement: Vec<(u32, u32, u64)>,
    /// Arrival events handed across shards (sender side).
    pub cross_shard_sent: u64,
    /// Arrival events accepted from other shards (receiver side); equals
    /// `cross_shard_sent` when no exchange lost an event.
    pub cross_shard_received: u64,
    /// Simulated time the run covered.
    pub sim_elapsed: Duration,
    /// The load layer's measurements (`None` without [`CoreLoad`]).
    pub load: Option<LoadReport>,
    /// The failover audit, when [`MetroConfig::crash`] was set.
    pub failover: Option<FailoverAudit>,
}

impl MetroReport {
    /// Frames completed across every UE.
    pub fn frames_done(&self) -> u64 {
        self.ues.iter().map(|u| u.frames_done).sum()
    }

    /// Sessions that did not complete every requested frame. The strict
    /// bar for fault-free runs; under sustained fault injection use
    /// [`MetroReport::protocol_wedged`], which mirrors the chaos sweep's
    /// invariant (lost frames under a drop storm are reported honestly,
    /// an illegal end state is never tolerated).
    pub fn wedged(&self) -> usize {
        self.ues
            .iter()
            .filter(|u| u.frames_done < self.frames_requested)
            .count()
    }

    /// UEs in an illegal end state plus handover procedures left open —
    /// the invariant the recovery ladder guarantees at any drop rate.
    pub fn protocol_wedged(&self) -> usize {
        self.stuck_ues + self.outstanding_procedures
    }

    /// Total handovers across every UE.
    pub fn total_handovers(&self) -> u64 {
        self.ues.iter().map(|u| u.handovers).sum()
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
    /// its session table, with none mid-flight — faults and crashes may
    /// delay or retry activations, but must never leak or double-count
    /// one — and, under a crash, every session lands in exactly one
    /// failover outcome.
    pub fn conserved(&self) -> bool {
        self.dedicated_active == self.dedicated_live
            && self.dedicated_pending == 0
            && self
                .failover
                .as_ref()
                .is_none_or(|a| a.outcomes.total() == self.ue_count)
    }

    /// Did every UE land in a legal state with nothing outstanding and
    /// every bearer accounted for?
    pub fn clean(&self) -> bool {
        self.protocol_wedged() == 0 && self.conserved()
    }

    /// Did every cross-shard event survive the window exchange?
    pub fn cross_shard_conserved(&self) -> bool {
        self.cross_shard_sent == self.cross_shard_received
    }

    /// Per-shard event imbalance of the placement the run used
    /// ([`acacia_simnet::shard_imbalance`] of `events_by_shard`).
    pub fn shard_imbalance(&self) -> f64 {
        acacia_simnet::shard_imbalance(&self.events_by_shard)
    }
}

/// A built scenario.
pub struct MetroScenario {
    /// The network (owns the simulator).
    pub net: LteNetwork,
    /// Client nodes, in UE-index order.
    pub clients: Vec<NodeId>,
    /// Per-region AR server nodes (the one cloud server in
    /// [`BearerMode::Cloud`]).
    pub(crate) servers: Vec<NodeId>,
    /// Their data-plane addresses.
    pub(crate) server_addrs: Vec<Ipv4Addr>,
    /// The MRS node (`None` in [`BearerMode::Cloud`]).
    pub(crate) mrs: Option<NodeId>,
    /// Cloud fallback address (failover wiring only).
    pub(crate) cloud_addr: Option<Ipv4Addr>,
    liveness: Vec<NodeId>,
    cloud_probes: Vec<NodeId>,
    cfg: MetroConfig,
    /// Last observed serving cell per UE, for the re-anchor leg (empty
    /// without it).
    last_serving: Vec<usize>,
}

impl MetroScenario {
    /// Build the scenario: every site's servers, the MRS (and the cloud
    /// fallback server under a crash), then each UE attached with its
    /// client, then the load layer's reflector and each UE's probes, then
    /// the failover core path and the placement bias.
    pub fn build(cfg: MetroConfig) -> MetroScenario {
        assert!(cfg.regions() >= 1, "needs at least one region");
        assert!(
            cfg.region_sizes.iter().all(|&s| s >= 1),
            "regions need at least one UE"
        );
        let one_region = cfg.regions() == 1;
        let uses_mrs = cfg.mode != BearerMode::Cloud;
        assert!(
            one_region || cfg.mode == BearerMode::Reanchor,
            "a regional run re-anchors; {:?} is a one-region mode",
            cfg.mode
        );
        assert!(uses_mrs || cfg.crash.is_none(), "failover needs the MRS");

        let mut cells = Vec::with_capacity(2 * cfg.regions());
        for r in 0..cfg.regions() {
            let y = r as f64 * REGION_SPACING_M;
            for (k, x) in [0.0, CELL_SPACING_M].into_iter().enumerate() {
                cells.push(CellConfig {
                    pos: Point::new(x, y),
                    mec: k == 0 || cfg.mode == BearerMode::Reanchor,
                    // A lone region puts its far cell in region 1, so a sharded
                    // corridor still hands over across shards.
                    region: if one_region { k as u32 } else { r as u32 },
                });
            }
        }
        let ue_count = cfg.ue_count();
        let ue_cells: Vec<Vec<usize>> = (0..ue_count)
            .map(|i| {
                let r = cfg.ue_region(i);
                vec![2 * r, 2 * r + 1]
            })
            .collect();
        let mut lte = LteConfig {
            seed: cfg.seed,
            ue_count,
            cells,
            ue_cells,
            local_gw_per_region: !one_region,
            core_detour: cfg.core_detour,
            ..LteConfig::default()
        };
        if cfg.load.is_some() {
            lte.core_rate_bps = CoreLoad::CORE_RATE_BPS;
            lte.core_queue_bytes = CoreLoad::CORE_QUEUE_BYTES;
        }
        let mut net = LteNetwork::new(lte);

        let db = ObjectDb::retail_cached(DB_PER_SUBSECTION, cfg.seed);
        let mut servers = Vec::with_capacity(cfg.regions());
        let mut server_addrs = Vec::with_capacity(cfg.regions());
        for r in 0..cfg.regions() {
            let server_addr = if uses_mrs {
                addr::mec(r, 0)
            } else {
                addr::CLOUD_BASE
            };
            let mut server_cfg = ArServerConfig::new(server_addr);
            if cfg.crash.is_some() {
                // Each MEC server beats its lease to the cloud MRS
                // (heartbeats ride the failover core path).
                server_cfg.heartbeat = Some((MRS_ADDR, cfg.service(r)));
            }
            let server = ar_server(server_cfg, &db);
            let (server, assigned) = if uses_mrs {
                net.add_mec_server_in_region(r as u32, server)
            } else {
                net.add_cloud_server(server, CLOUD_REGION.link_config())
            };
            assert_eq!(assigned, server_addr);
            servers.push(server);
            server_addrs.push(server_addr);
        }

        // One cloud MRS knows every region's server under its region's
        // service name; each client asks for its own region's service.
        let cloud_addr = cfg
            .crash
            .map(|_| Ipv4Addr::from(u32::from(addr::CLOUD_BASE) + 1));
        let mrs = uses_mrs.then(|| {
            let mut mrs = Mrs::new(MRS_ADDR);
            for (r, &server_addr) in server_addrs.iter().enumerate() {
                mrs.register_service(
                    &cfg.service(r),
                    ServerInstance {
                        addr: server_addr,
                        distance: 1.0,
                    },
                );
            }
            if let Some(cloud_addr) = cloud_addr {
                // Lease-monitor the MEC servers, and register the
                // failover ladder behind each one: the neighbour region's
                // MEC (one hop worse) and the shared cloud AR server
                // (last resort, not monitored — the cloud has no MEC
                // lifecycle).
                for (r, &server_addr) in server_addrs.iter().enumerate() {
                    mrs.monitor_server(server_addr);
                    if cfg.regions() > 1 {
                        mrs.register_service(
                            &cfg.service(r),
                            ServerInstance {
                                addr: server_addrs[(r + 1) % cfg.regions()],
                                distance: 2.0,
                            },
                        );
                    }
                    mrs.register_service(
                        &cfg.service(r),
                        ServerInstance {
                            addr: cloud_addr,
                            distance: 100.0,
                        },
                    );
                }
            }
            add_mrs(&mut net, mrs)
        });
        if let Some(cloud_addr) = cloud_addr {
            let (_, assigned) = net.add_cloud_server(
                ar_server(ArServerConfig::new(cloud_addr), &db),
                LinkConfig::delay_only(Duration::from_micros(800)),
            );
            assert_eq!(assigned, cloud_addr);
        }

        // Every user photographs one subsection's objects. Which one is
        // immaterial, and identical vision work across UEs keeps host
        // time in the network and engine rather than the feature
        // pipeline.
        let scene_ids: Vec<u64> = db.in_subsections(&[0]).iter().map(|o| o.id).collect();
        // UE addresses are kept only for the probes that need them.
        let probed = cfg.liveness_probes() || cfg.load.is_some();
        let mut ue_ips = Vec::new();
        let mut clients = Vec::with_capacity(ue_count);
        for i in 0..ue_count {
            let r = cfg.ue_region(i);
            let ue_ip = net.attach(i);
            let client_cfg = ArFrontendConfig {
                mrs: uses_mrs.then(|| (MRS_ADDR, cfg.service(r))),
                frame_count: cfg.frame_count,
                min_frame_interval: Some(cfg.region_interval(r)),
                resolution: cfg.resolution,
                scene_ids: scene_ids.clone(),
                lease_recheck: cfg.crash.is_some(),
                ..ArFrontendConfig::new(ue_ip, server_addrs[r])
            };
            let client = net.connect_ue_app(
                i,
                Box::new(ArFrontend::new(client_cfg)),
                AppSelector::port(APP_PORT),
            );
            clients.push(client);
            if probed {
                ue_ips.push(ue_ip);
            }
        }

        // The congestion witness: a reflector on the far side of the
        // core, 2 ms beyond the internet — the Fig. 3(g) cloud server.
        let reflector = cfg.load.map(|load| {
            let (_, reflector) = net.add_cloud_server(
                Box::new(Reflector::new()),
                LinkConfig::delay_only(Duration::from_millis(2)),
            );
            (reflector, load.cloud_probes)
        });
        let liveness_count = cfg.liveness_span().millis() / LIVENESS_INTERVAL.millis();
        let (mut cloud_probes, mut liveness) = (Vec::new(), Vec::new());
        for (i, &ue_ip) in ue_ips.iter().enumerate() {
            let mut probe = |dst, interval, count| {
                let agent = PingAgent::new(ue_ip, dst, interval, count);
                net.connect_ue_app(i, Box::new(agent), AppSelector::protocol(proto::ICMP))
            };
            if let Some((reflector, count)) = reflector {
                cloud_probes.push(probe(reflector, CLOUD_PROBE_INTERVAL, count));
            }
            // Answered by the AR server, riding whatever bearer the TFT
            // puts AR-server traffic on: its losses meter handover gaps.
            if cfg.liveness_probes() {
                let server = server_addrs[cfg.ue_region(i)];
                liveness.push(probe(server, LIVENESS_INTERVAL, liveness_count));
            }
        }

        if cfg.crash.is_some() {
            // Every UE is attached and every server placed: snapshot the
            // failover core routes (cross-region default-bearer paths +
            // the heartbeat path to the cloud MRS).
            net.enable_failover_core_path();
        }

        if cfg.core_weight_bias {
            // The shared core and cloud (EPC control plane, MRS, PCRF)
            // live in region 0 — cells[0]'s region — and every region's
            // S1AP, GTP-C and registry traffic terminates there, which
            // the static node/link placement weight cannot see. Budget
            // the core region one extra average region of weight so the
            // balanced packer under-fills its shard by roughly that much
            // population.
            let assigns = net.sim.region_assignments();
            let total_weight: u64 = assigns.iter().map(|&(_, _, w)| w).sum();
            net.sim
                .set_region_weight_bias(0, total_weight / assigns.len().max(1) as u64);
        }

        let last_serving = if cfg.reanchor_leg() {
            (0..ue_count).map(|i| net.serving_cell(i)).collect()
        } else {
            Vec::new()
        };
        MetroScenario {
            net,
            clients,
            servers,
            server_addrs,
            mrs,
            cloud_addr,
            liveness,
            cloud_probes,
            cfg,
            last_serving,
        }
    }

    /// The configuration the scenario was built with.
    pub(crate) fn config(&self) -> &MetroConfig {
        &self.cfg
    }

    /// Per-frame stats of UE `ue`'s session so far.
    pub fn frames(&self, ue: usize) -> &[FrameStats] {
        &self.net.sim.node_ref::<ArFrontend>(self.clients[ue]).frames
    }

    /// Schedule every session kickoff and walk, arm the fault, crash and
    /// load layers, and start the probes, returning the run's timing
    /// anchors. Each region staggers its own population across its own
    /// interval; the k-th UE of region `r` kicks off at
    /// `k × region_stagger(r)`, and its walk begins with that dwell at
    /// the near end, so handovers spread out the way the sessions do.
    pub fn schedule(&mut self) -> Timeline {
        let start = self.net.sim.now();
        if self.cfg.crash.is_some() {
            // Start the lease machinery: each MEC server's heartbeat
            // chain and the MRS audit loop (both self-rescheduling).
            for &server in &self.servers {
                self.net
                    .sim
                    .schedule_timer(server, start, ArServer::HEARTBEAT);
            }
            let mrs = self.mrs.expect("failover needs the MRS");
            self.net
                .sim
                .schedule_timer(mrs, start + LEASE_CHECK_PERIOD, Mrs::LEASE_AUDIT);
        }
        let mut region_base = 0usize;
        for (r, &size) in self.cfg.region_sizes.iter().enumerate() {
            let stagger = self.cfg.region_stagger(r);
            let y = r as f64 * REGION_SPACING_M;
            for k in 0..size {
                let i = region_base + k;
                let offset = Duration::from_nanos(stagger.nanos() * k as u64);
                self.net
                    .sim
                    .schedule_timer(self.clients[i], start + offset, ArFrontend::KICKOFF);
                let walk = vec![
                    Waypoint::dwelling(Point::new(WALK_NEAR_M, y), offset),
                    Waypoint::dwelling(Point::new(WALK_FAR_M, y), self.cfg.far_dwell),
                    Waypoint::passing(Point::new(WALK_NEAR_M, y)),
                ];
                self.net.start_mobility(i, walk, self.cfg.speed_mps);
            }
            region_base += size;
        }

        let walk = self.cfg.walk_span();
        let stagger_total = self.cfg.stagger_total();
        let walk_end = start + stagger_total + walk;
        let deadline = if self.cfg.population {
            // Every session gets twice its paced length plus 30 s of
            // slack for the server queue and recovery timers.
            walk_end
                + Duration::from_nanos(self.cfg.max_session().nanos() * 2)
                + Duration::from_secs(30)
        } else {
            // The single walk stops 10 s plus 2 s a frame past its walk.
            // Only a session stalled by faults runs that long, and how
            // long it runs sets how many faults the plan draws.
            start + walk + Duration::from_secs(10 + 2 * self.cfg.frame_count)
        };
        let mut timeline = Timeline {
            start,
            stagger_total,
            walk_end,
            deadline,
        };
        if let Some(faults) = self.cfg.faults {
            faults.arm(&mut self.net, &timeline);
        }
        if let Some(crash) = self.cfg.crash {
            failover::arm(self, crash, &mut timeline);
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

    /// Run until every session completes and every walk has ended, or
    /// the deadline passes, then drain in-flight traffic so counters
    /// settle. On the re-anchor leg, a session whose UE reached a new
    /// MEC cell since the last poll repeats its MRS connectivity
    /// handshake: idempotent when the network already re-anchored the
    /// bearer, a re-create when the bearer was released or a failed
    /// handover flushed it.
    pub fn await_sessions(&mut self, timeline: &Timeline) {
        let poll = self.cfg.poll();
        while self.net.sim.now() < timeline.deadline {
            let t = self.net.sim.now() + poll;
            self.net.sim.run_until(t);
            let now = self.net.sim.now();
            let mut all_done = true;
            for (i, &client) in self.clients.iter().enumerate() {
                if let Some(last) = self.last_serving.get_mut(i) {
                    let serving = self.net.serving_cell(i);
                    if serving != *last {
                        *last = serving;
                        if self.net.cfg.cells[serving].mec {
                            self.net
                                .sim
                                .schedule_timer(client, now, ArFrontend::REANCHOR);
                        }
                    }
                }
                all_done &= self.net.sim.node_ref::<ArFrontend>(client).done();
            }
            if now >= timeline.walk_end && all_done {
                break;
            }
        }
        let drain = self.net.sim.now() + Duration::from_millis(500);
        self.net.sim.run_until(drain);
    }

    /// Collect the report for a run that began at `timeline.start`.
    pub fn collect(&mut self, timeline: &Timeline) -> MetroReport {
        let placement = self.net.sim.region_assignments();
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
        if self.cfg.faults.is_some() {
            for endpoint in net.control_fault_points() {
                if let Some(stats) = sim.link_stats(endpoint) {
                    recovery.injected_drops += stats.drops_injected;
                    recovery.injected_duplicates += stats.duplicates_injected;
                    recovery.injected_reorders += stats.reorders_injected;
                    recovery.congestion_drops += stats.drops_queue + stats.drops_loss;
                }
            }
        }
        // Sized exactly: a regional report holds every handover's gap.
        let gaps = net
            .ues
            .iter()
            .map(|&ue| sim.node_ref::<Ue>(ue).interruption_log.len());
        let mut interruptions_ms = Vec::with_capacity(gaps.sum());
        let mut stuck_ues = 0;
        for &ue in &net.ues {
            let u = sim.node_ref::<Ue>(ue);
            interruptions_ms.extend(u.interruption_log.iter().map(|&(_, gap)| ms(gap)));
            if !matches!(u.state, UeState::Connected | UeState::Idle) {
                stuck_ues += 1;
            }
        }
        let mut reanchors = (0, 0);
        let ues = self
            .clients
            .iter()
            .zip(&net.ues)
            .map(|(&client, &ue)| {
                let c = sim.node_ref::<ArFrontend>(client);
                reanchors.0 += c.reanchor_requests;
                reanchors.1 += c.reanchor_acks;
                UeReport {
                    frames_done: c.frames.len() as u64,
                    handovers: sim.node_ref::<Ue>(ue).handovers,
                    retransmissions: c.retransmissions,
                }
            })
            .collect();
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
        MetroReport {
            regions: self.cfg.regions(),
            ue_count: self.clients.len(),
            frames_requested: self.cfg.frame_count,
            ues,
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
            dedicated_active: gwc.dedicated_active,
            dedicated_live: gwc.dedicated_live(),
            dedicated_pending: gwc.dedicated_pending(),
            recovery,
            stuck_ues,
            outstanding_procedures,
            events_processed: sim.events_processed(),
            events_by_shard: sim.events_by_shard(),
            placement,
            cross_shard_sent: sim.cross_shard_sent(),
            cross_shard_received: sim.cross_shard_received(),
            sim_elapsed: sim.now() - timeline.start,
            load,
            failover: self.cfg.crash.map(|crash| failover::audit(self, crash)),
        }
    }

    /// Run every session to completion (or the deadline) and collect the
    /// report.
    pub fn run(mut self) -> MetroReport {
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
    assert_send::<MetroConfig>();
    assert_send::<MetroReport>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MetroConfig {
        MetroConfig {
            region_sizes: vec![3, 1],
            frame_count: 2,
            ..MetroConfig::smoke()
        }
    }

    #[test]
    fn heterogeneous_regions_complete_and_hand_over() {
        let report = MetroScenario::build(tiny()).run();
        assert_eq!(report.ue_count, 4);
        assert_eq!(report.wedged(), 0, "every session completes");
        assert_eq!(report.protocol_wedged(), 0);
        assert!(
            report.ues.iter().all(|u| u.handovers >= 2),
            "each UE crosses its region's boundary twice: {:?}",
            report.ues
        );
        assert!(report.x2_msgs > 0, "handovers produce X2 signalling");
        assert!(report.cross_shard_conserved());
    }

    #[test]
    fn region_mapping_and_intervals_follow_the_size_vector() {
        let cfg = MetroConfig::figure();
        assert_eq!(cfg.regions(), 16);
        assert_eq!(cfg.ue_count(), 10_240);
        assert_eq!(cfg.ue_region(0), 0);
        assert_eq!(cfg.ue_region(895), 0);
        assert_eq!(cfg.ue_region(896), 1);
        assert_eq!(cfg.ue_region(10_239), 15);
        // Region 0 hosts the shared core; it is deliberately not the
        // heaviest region so its weight bias keeps its shard light.
        assert!(cfg.region_sizes[0] < *cfg.region_sizes.iter().max().unwrap());
        // Every region above the base-interval knee paces at exactly its
        // population × budget, so all staggers collapse to the budget.
        for r in 0..cfg.regions() {
            assert_eq!(
                cfg.region_interval(r).nanos(),
                cfg.per_frame_budget.nanos() * cfg.region_sizes[r] as u64
            );
            assert_eq!(cfg.region_stagger(r), cfg.per_frame_budget);
        }
        // The smoke config's lightest regions sit under the knee.
        let smoke = MetroConfig::smoke();
        assert_eq!(smoke.region_interval(15), smoke.base_frame_interval);
        assert!(smoke.region_interval(0) > smoke.base_frame_interval);
    }
}
