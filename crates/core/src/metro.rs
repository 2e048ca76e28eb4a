//! The regional sharded scenario: R MEC regions, each a two-cell site
//! with its own AR server and local gateway, sharing one LTE core — the
//! workload the sharded event engine exists for.
//!
//! Every region is a copy of the [`crate::corridor`] geometry — two MEC
//! cells 40 m apart, a population of UEs walking staggered
//! there-and-back trajectories that hand each of them over twice —
//! placed 1 km from its neighbours and pinned to its own
//! [`CellConfig::region`], so the engine can run each region on its own
//! shard. Cross-region traffic is limited to the shared control plane
//! (MME / GW-C / PCRF / MRS in the core region) and the
//! conservative-lookahead exchange keeps those messages ordered
//! identically at every shard count: a run at `--shards 8` is
//! byte-identical to the same run at `--shards 1`. Each region gets its
//! own local GW-U ([`LteConfig::local_gw_per_region`]) and its own MEC
//! server, registered with the cloud MRS under a per-region service
//! name; UEs only see (and only measure) their own region's two cells,
//! so the radio planes never couple regions.
//!
//! Two presets name the two benchmarks built on it:
//!
//! * [`MetroConfig::figure`] — the **metro**: 16 heterogeneous regions,
//!   10 240 UEs from 1280-UE downtown to 128-UE suburb. That 10:1 skew is
//!   the point: `region % N` placement stacks heavy regions onto the same
//!   shard, balanced placement bin-packs them by weight, and the figure
//!   benchmark reports the per-shard event imbalance both produce.
//! * [`MetroConfig::city`] — the **city**: 8 equal regions of 256 UEs
//!   at end-to-end resolution, the shape the control-plane drop soak and
//!   the failover ladder ([`crate::failover`]) run over.
//!
//! Pacing is per region: each region's frame interval has a floor of
//! `size_r × per_frame_budget`, so every serial MEC server sees the
//! same uniform one-frame-per-budget arrival ring regardless of how
//! many subscribers share it. In the metro, small regions therefore
//! finish their sessions early and the tail of the run is carried by the
//! downtown regions alone — exactly the load skew the balanced placement
//! has to absorb.
//!
//! Two layers are off by default: control-plane link drops
//! ([`MetroConfig::ctrl_drop_rate`]) and the MEC failover wiring
//! ([`MetroConfig::failover`]).

use crate::arclient::{ArFrontend, ArFrontendConfig};
use crate::arserver::{ArServer, ArServerConfig};
use crate::corridor::{
    add_mrs, ar_server, arm_control_faults, retail_db, scene_ids, walk, walk_time, Timeline,
    UeReport, CELL_SPACING_M,
};
use crate::mrs::{Mrs, ServerInstance};
use crate::msg::APP_PORT;
use crate::scenario::SERVICE;
use acacia_geo::Point;
use acacia_lte::enb::Enb;
use acacia_lte::entities::GwControl;
use acacia_lte::network::{addr, CellConfig, LteConfig, LteNetwork};
use acacia_lte::timers::Timers;
use acacia_lte::ue::{AppSelector, Ue, UeState};
use acacia_lte::wire::Protocol;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::Duration;
use acacia_vision::image::Resolution;

/// Regional scenario parameters.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Subscribers homed in each region (two cells per region); the
    /// length is the region count.
    pub region_sizes: Vec<usize>,
    /// Master seed.
    pub seed: u64,
    /// Frames each session captures.
    pub frame_count: u64,
    /// Per-UE pacing between captures before the serial-server floor.
    pub base_frame_interval: Duration,
    /// Serial-server time budget one frame may consume; region `r`'s
    /// effective interval never drops below `region_sizes[r] × budget`.
    pub per_frame_budget: Duration,
    /// Walk speed, m/s.
    pub speed_mps: f64,
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
    /// Independent drop probability on every S1AP/X2 control link
    /// direction, applied once the last session's bearer is up (the soak
    /// test's fault injection; 0.0 = clean run).
    pub ctrl_drop_rate: f64,
    /// Seed for the per-link fault streams.
    pub fault_seed: u64,
    /// MEC failover wiring (server heartbeats, MRS lease monitoring,
    /// neighbour/cloud fallback registrations, the core routes a failed-
    /// over session rides). `None` = no failover machinery at all.
    pub failover: Option<FailoverWiring>,
}

/// Failover wiring knobs for the regional scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverWiring {
    /// Heartbeat / lease-audit / recheck intervals.
    pub timers: Timers,
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
            resolution: Resolution::E2E,
            core_weight_bias: false,
            ctrl_drop_rate: 0.0,
            fault_seed: 7,
            failover: None,
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
    pub fn ue_region(&self, i: usize) -> usize {
        let mut rest = i;
        for (r, &size) in self.region_sizes.iter().enumerate() {
            if rest < size {
                return r;
            }
            rest -= size;
        }
        panic!("UE index {i} out of range for {} UEs", self.ue_count());
    }

    /// Region `r`'s effective per-UE frame interval: the base interval,
    /// raised to `size_r × per_frame_budget` once that region's
    /// population would oversubscribe its serial server. Heavier regions
    /// pace slower — the aggregate arrival rate at every server is the
    /// same.
    pub fn region_interval(&self, r: usize) -> Duration {
        let floor =
            Duration::from_nanos(self.per_frame_budget.nanos() * self.region_sizes[r] as u64);
        self.base_frame_interval.max(floor)
    }

    /// Kickoff/walk stagger between consecutive UEs of region `r`: one
    /// region interval spread across that region's population, so
    /// captures arrive at each server as a uniform ring even though the
    /// rings turn at different speeds.
    pub fn region_stagger(&self, r: usize) -> Duration {
        Duration::from_nanos(self.region_interval(r).nanos() / self.region_sizes[r] as u64)
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
}

/// North-south distance between regions. Irrelevant to the radio plane
/// (UEs only measure their own region's cells) but keeps positions
/// honest on a city map.
const REGION_SPACING_M: f64 = 1_000.0;

/// The MRS service name region `r`'s clients resolve.
fn region_service(r: usize) -> String {
    format!("{SERVICE}-r{r}")
}

/// Results of a regional run.
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
    /// X2AP messages on the wire.
    pub x2_msgs: u64,
    /// S1AP messages on the wire.
    pub s1ap_msgs: u64,
    /// GTPv2-C messages on the wire.
    pub gtpc_msgs: u64,
    /// Dedicated bearers relocated onto a new cell's local gateway.
    pub dedicated_reanchored: u64,
    /// Downlink packets forwarded over X2 during handover execution.
    pub x2_forwarded: u64,
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
    /// UEs that ended the run outside a legal end state
    /// (neither `Connected` nor `Idle`).
    pub stuck_ues: usize,
    /// Handover procedures still open at collection time.
    pub outstanding_procedures: usize,
    /// Simulated time the run covered.
    pub sim_elapsed: Duration,
}

impl MetroReport {
    /// Sessions that did not complete every requested frame. The strict
    /// bar for fault-free runs; under sustained fault injection use
    /// [`MetroReport::protocol_wedged`], which mirrors the chaos sweep's
    /// invariant (lost frames under a drop storm are reported honestly,
    /// an illegal end state is never tolerated).
    pub fn wedged(&self) -> usize {
        UeReport::wedged(&self.ues, self.frames_requested)
    }

    /// UEs in an illegal end state plus handover procedures left open —
    /// the invariant the recovery ladder guarantees at any drop rate.
    pub fn protocol_wedged(&self) -> usize {
        self.stuck_ues + self.outstanding_procedures
    }

    /// Total handovers across every UE.
    pub fn total_handovers(&self) -> u64 {
        UeReport::total_handovers(&self.ues)
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

/// A built regional scenario.
pub struct MetroScenario {
    /// The network (owns the simulator).
    pub net: LteNetwork,
    /// Client nodes, in UE-index order.
    pub clients: Vec<NodeId>,
    /// Per-region MEC server nodes.
    pub servers: Vec<NodeId>,
    /// Per-region MEC server data-plane addresses.
    pub server_addrs: Vec<std::net::Ipv4Addr>,
    /// The MRS node.
    pub mrs: NodeId,
    /// The MRS address.
    pub mrs_addr: std::net::Ipv4Addr,
    /// Cloud fallback AR server (failover wiring only).
    pub cloud: Option<NodeId>,
    /// Cloud fallback address (failover wiring only).
    pub cloud_addr: Option<std::net::Ipv4Addr>,
    cfg: MetroConfig,
    /// Last observed serving cell per UE (drives the device-manager
    /// re-anchor leg after handovers).
    last_serving: Vec<usize>,
}

impl MetroScenario {
    /// Build the scenario: regions provisioned, every UE attached,
    /// per-region servers registered with the MRS, clients connected.
    pub fn build(cfg: MetroConfig) -> MetroScenario {
        assert!(cfg.regions() >= 1, "needs at least one region");
        assert!(
            cfg.region_sizes.iter().all(|&s| s >= 1),
            "regions need at least one UE"
        );

        let mut cells = Vec::with_capacity(2 * cfg.regions());
        for r in 0..cfg.regions() {
            let y = r as f64 * REGION_SPACING_M;
            for x in [0.0, CELL_SPACING_M] {
                cells.push(CellConfig {
                    pos: Point::new(x, y),
                    mec: true,
                    region: r as u32,
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

        let mut net = LteNetwork::new(LteConfig {
            seed: cfg.seed,
            ue_count,
            cells,
            ue_cells,
            local_gw_per_region: true,
            ..LteConfig::default()
        });

        let db = retail_db(cfg.seed);
        let mrs_addr = addr::CLOUD_BASE;
        let mut servers = Vec::with_capacity(cfg.regions());
        let mut server_addrs = Vec::with_capacity(cfg.regions());
        for r in 0..cfg.regions() {
            let server_addr = addr::mec(r, 0);
            let mut server_cfg = ArServerConfig::new(server_addr);
            if let Some(w) = cfg.failover {
                // Each MEC server beats its lease to the cloud MRS
                // (heartbeats ride the failover core path).
                server_cfg.heartbeat = Some((mrs_addr, region_service(r)));
                server_cfg.heartbeat_period = w.timers.heartbeat_period;
            }
            let (server, assigned) =
                net.add_mec_server_in_region(r as u32, ar_server(server_cfg, &db));
            assert_eq!(assigned, server_addr);
            servers.push(server);
            server_addrs.push(server_addr);
        }

        // One cloud MRS knows every region's server under a per-region
        // service name; each client asks for its own region's service.
        let cloud_ar_addr = cfg
            .failover
            .map(|_| std::net::Ipv4Addr::from(u32::from(addr::CLOUD_BASE) + 1));
        let mut mrs_node = Mrs::new(mrs_addr);
        for (r, &server_addr) in server_addrs.iter().enumerate() {
            mrs_node.register_service(
                &region_service(r),
                ServerInstance {
                    addr: server_addr,
                    distance: 1.0,
                },
            );
        }
        if let (Some(w), Some(cloud_ar_addr)) = (cfg.failover, cloud_ar_addr) {
            // Lease-monitor the MEC servers, and register the failover
            // ladder behind each one: the neighbour region's MEC (one hop
            // worse) and the shared cloud AR server (last resort, not
            // monitored — the cloud has no MEC lifecycle).
            mrs_node.enable_lease_monitoring(w.timers);
            for (r, &server_addr) in server_addrs.iter().enumerate() {
                mrs_node.monitor_server(server_addr);
                if cfg.regions() > 1 {
                    mrs_node.register_service(
                        &region_service(r),
                        ServerInstance {
                            addr: server_addrs[(r + 1) % cfg.regions()],
                            distance: 2.0,
                        },
                    );
                }
                mrs_node.register_service(
                    &region_service(r),
                    ServerInstance {
                        addr: cloud_ar_addr,
                        distance: 100.0,
                    },
                );
            }
        }
        let mrs = add_mrs(&mut net, mrs_node);
        let cloud = cloud_ar_addr.map(|cloud_ar_addr| {
            let (cloud, assigned) = net.add_cloud_server(
                ar_server(ArServerConfig::new(cloud_ar_addr), &db),
                LinkConfig::delay_only(Duration::from_micros(800)),
            );
            assert_eq!(assigned, cloud_ar_addr);
            cloud
        });

        let scene_ids = scene_ids(&db);

        let mut clients = Vec::with_capacity(ue_count);
        for i in 0..ue_count {
            let r = cfg.ue_region(i);
            let ue_ip = net.attach(i);
            let client_cfg = ArFrontendConfig {
                mrs: Some((mrs_addr, region_service(r))),
                frame_count: cfg.frame_count,
                min_frame_interval: Some(cfg.region_interval(r)),
                resolution: cfg.resolution,
                scene_ids: scene_ids.clone(),
                lease_recheck: cfg.failover.map(|w| w.timers.lease_recheck_period),
                ..ArFrontendConfig::new(ue_ip, server_addrs[r])
            };
            let client = net.connect_ue_app(
                i,
                Box::new(ArFrontend::new(client_cfg)),
                AppSelector::port(APP_PORT),
            );
            clients.push(client);
        }

        if cfg.failover.is_some() {
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

        let last_serving = (0..ue_count).map(|i| net.serving_cell(i)).collect();
        MetroScenario {
            net,
            clients,
            servers,
            server_addrs,
            mrs,
            mrs_addr,
            cloud,
            cloud_addr: cloud_ar_addr,
            cfg,
            last_serving,
        }
    }

    /// The configuration the scenario was built with.
    pub fn config(&self) -> &MetroConfig {
        &self.cfg
    }

    /// Schedule every session kickoff and walk (and, when configured, the
    /// lease machinery and the control-plane fault plans), returning the
    /// run's timing anchors. Each region staggers its own population
    /// across its own interval; the k-th UE of a region kicks off at
    /// `k × region_stagger(r)`.
    pub fn schedule(&mut self) -> Timeline {
        let start = self.net.sim.now();
        if let Some(w) = self.cfg.failover {
            // Start the lease machinery: each MEC server's heartbeat
            // chain and the MRS audit loop (both self-rescheduling).
            for &server in &self.servers {
                self.net
                    .sim
                    .schedule_timer(server, start, ArServer::HEARTBEAT);
            }
            self.net.sim.schedule_timer(
                self.mrs,
                start + w.timers.lease_check_period,
                Mrs::LEASE_AUDIT,
            );
        }
        let mut region_base = 0usize;
        let mut stagger_total = Duration::ZERO;
        for (r, &size) in self.cfg.region_sizes.iter().enumerate() {
            let stagger = self.cfg.region_stagger(r);
            let y = r as f64 * REGION_SPACING_M;
            for k in 0..size {
                let i = region_base + k;
                let offset = Duration::from_nanos(stagger.nanos() * k as u64);
                self.net
                    .sim
                    .schedule_timer(self.clients[i], start + offset, ArFrontend::KICKOFF);
                self.net
                    .start_mobility(i, walk(y, offset, Duration::ZERO), self.cfg.speed_mps);
            }
            stagger_total = stagger_total.max(Duration::from_nanos(stagger.nanos() * size as u64));
            region_base += size;
        }

        let timeline = Timeline::new(
            start,
            stagger_total,
            walk_time(self.cfg.speed_mps),
            self.cfg.max_session(),
        );
        arm_control_faults(
            &mut self.net,
            &timeline,
            self.cfg.fault_seed,
            self.cfg.ctrl_drop_rate,
            0.0,
        );
        timeline
    }

    /// Run until every session completes (or the deadline), driving the
    /// device-manager re-anchor leg: any UE whose serving cell changed
    /// since the last poll repeats its MRS connectivity handshake, which
    /// is idempotent when the network already re-anchored the bearer and
    /// re-creates it when a failed handover flushed it.
    pub fn await_sessions(&mut self, timeline: &Timeline) {
        while self.net.sim.now() < timeline.deadline {
            let t = self.net.sim.now() + Duration::from_millis(200);
            self.net.sim.run_until(t);
            let now = self.net.sim.now();
            let mut all_done = true;
            for (i, &client) in self.clients.iter().enumerate() {
                let serving = self.net.serving_cell(i);
                if serving != self.last_serving[i] {
                    self.last_serving[i] = serving;
                    self.net
                        .sim
                        .schedule_timer(client, now, ArFrontend::REANCHOR);
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
        let mut x2_forwarded = 0;
        let mut outstanding_procedures = 0;
        for &enb in &self.net.enbs {
            let e = self.net.sim.node_ref::<Enb>(enb);
            x2_forwarded += e.x2_forwarded;
            outstanding_procedures += e.outstanding_handovers();
        }
        let stuck_ues = self
            .net
            .ues
            .iter()
            .filter(|&&ue| {
                let u = self.net.sim.node_ref::<Ue>(ue);
                !matches!(u.state, UeState::Connected | UeState::Idle)
            })
            .count();
        let gwc = self.net.sim.node_ref::<GwControl>(self.net.gwc);
        MetroReport {
            regions: self.cfg.regions(),
            ue_count: self.clients.len(),
            frames_requested: self.cfg.frame_count,
            ues: UeReport::collect(&self.net, &self.clients),
            x2_msgs: self.net.log.count(Protocol::X2Sctp),
            s1ap_msgs: self.net.log.count(Protocol::S1apSctp),
            gtpc_msgs: self.net.log.count(Protocol::Gtpv2),
            dedicated_reanchored: gwc.dedicated_reanchored,
            x2_forwarded,
            events_processed: self.net.sim.events_processed(),
            events_by_shard: self.net.sim.events_by_shard(),
            placement: self.net.sim.region_assignments(),
            cross_shard_sent: self.net.sim.cross_shard_sent(),
            cross_shard_received: self.net.sim.cross_shard_received(),
            stuck_ues,
            outstanding_procedures,
            sim_elapsed: self.net.sim.now() - timeline.start,
        }
    }

    /// Run every session to completion (or a generous deadline) and
    /// collect the report.
    pub fn run(mut self) -> MetroReport {
        let timeline = self.schedule();
        self.await_sessions(&timeline);
        self.collect(&timeline)
    }
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

    #[test]
    fn imbalance_is_max_over_mean_of_busy_shards() {
        let mut report = MetroScenario::build(tiny()).run();
        report.events_by_shard = vec![300, 100, 0, 200];
        assert!((report.shard_imbalance() - 0.5).abs() < 1e-12);
        report.events_by_shard = vec![100, 100];
        assert_eq!(report.shard_imbalance(), 0.0);
    }
}
