//! End-to-end scenarios: the paper's CLOUD / MEC / ACACIA deployments
//! (§7.4) assembled from all the substrates.
//!
//! * **CLOUD** — conventional EPC; the AR server lives in a distant cloud
//!   region; full-database (Naive) matching.
//! * **MEC** — ACACIA's network path (MRS handshake, dedicated bearer to a
//!   local gateway, server at the edge) but *no* search-space
//!   optimization.
//! * **ACACIA** — MEC plus LTE-direct localization-driven database
//!   pruning.
//!
//! A scenario builds the whole stack — LTE/EPC network, MRS, AR server,
//! AR front-end on the UE, proximity world — runs a user session at a
//! checkpoint of the retail floor, and reports the per-frame latency
//! breakdown (network / compute / match / total) the paper's Fig. 13
//! plots.

use crate::arclient::{ArFrontend, ArFrontendConfig, FrameStats};
use crate::arserver::{ArServer, ArServerConfig};
use crate::locmgr::{LocalizationManager, LocalizationMetadata};
use crate::metro::add_mrs;
use crate::mrs::{Mrs, ServerInstance};
use crate::msg::APP_PORT;
use crate::search::SearchStrategy;
use acacia_d2d::channel::RadioChannel;
use acacia_d2d::discovery::ProximityWorld;
use acacia_d2d::modem::Modem;
use acacia_d2d::service::SubscriptionFilter;
use acacia_geo::floor::FloorPlan;
use acacia_lte::network::{LteConfig, LteNetwork};
use acacia_lte::ue::AppSelector;
use acacia_simnet::cloud::Ec2Region;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::Duration;
use acacia_vision::db::ObjectDb;
use std::net::Ipv4Addr;

/// The service name used by the retail scenario.
pub const SERVICE: &str = "acme-retail";

/// Cloud region of the CLOUD deployment's server (§7.4).
const CLOUD_REGION: Ec2Region = Ec2Region::California;

/// Which of the paper's three deployments to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deployment {
    /// Conventional EPC + distant cloud server + Naive matching.
    Cloud,
    /// Edge server over a dedicated bearer, Naive matching.
    Mec,
    /// Edge server + localization-pruned matching.
    Acacia,
}

impl Deployment {
    /// All three, in the paper's presentation order.
    pub const ALL: [Deployment; 3] = [Deployment::Acacia, Deployment::Mec, Deployment::Cloud];

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Deployment::Cloud => "CLOUD",
            Deployment::Mec => "MEC",
            Deployment::Acacia => "ACACIA",
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Deployment under test.
    pub deployment: Deployment,
    /// Master seed.
    pub seed: u64,
    /// Index of the floor checkpoint the user stands at.
    pub checkpoint: usize,
    /// Frames to capture.
    pub frame_count: u64,
    /// Objects per subsection in the database (5 ⇒ the paper's 105).
    pub db_per_subsection: usize,
    /// Matching execution cap (see `ArServerConfig::exec_cap`).
    pub exec_cap: usize,
    /// Residual radio loss injected on the data path after attach
    /// (fraction; 0 = clean air).
    pub radio_loss: f64,
    /// Proximity-discovery technology (paper §8: iBeacon and Wi-Fi Aware
    /// drive the same pipeline).
    pub tech: acacia_d2d::technology::ProximityTech,
}

impl ScenarioConfig {
    /// The §7.4 end-to-end configuration for a deployment.
    pub fn e2e(deployment: Deployment) -> ScenarioConfig {
        ScenarioConfig {
            deployment,
            seed: 42,
            checkpoint: 10,
            frame_count: 10,
            db_per_subsection: 5,
            exec_cap: 48,
            radio_loss: 0.0,
            tech: acacia_d2d::technology::ProximityTech::LteDirect,
        }
    }

    /// Smaller/faster variant for tests.
    pub fn smoke(deployment: Deployment) -> ScenarioConfig {
        ScenarioConfig {
            frame_count: 3,
            db_per_subsection: 1,
            exec_cap: 24,
            ..ScenarioConfig::e2e(deployment)
        }
    }
}

/// A built scenario, ready to run.
pub struct Scenario {
    /// The network (owns the simulator).
    pub net: LteNetwork,
    /// The retail floor.
    pub floor: FloorPlan,
    /// Client node.
    pub client: NodeId,
    /// Server node.
    pub server: NodeId,
    /// MRS node (MEC/ACACIA only).
    pub mrs: Option<NodeId>,
    cfg: ScenarioConfig,
}

/// Results of a session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Deployment that produced it.
    pub deployment: Deployment,
    /// Per-frame stats.
    pub frames: Vec<FrameStats>,
    /// Time from MRS request to ack (MEC/ACACIA).
    pub bearer_setup: Option<Duration>,
    /// Fraction of frames matched to the correct object.
    pub accuracy: f64,
    /// Engine events dispatched over the whole run (throughput metering;
    /// deterministic for a fixed config and seed).
    pub events_processed: u64,
}

impl SessionReport {
    fn mean(&self, f: impl Fn(&FrameStats) -> f64) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(f).sum::<f64>() / self.frames.len() as f64
    }

    /// Mean end-to-end latency, seconds.
    pub fn mean_total_s(&self) -> f64 {
        self.mean(FrameStats::total_s)
    }

    /// Mean network component, seconds.
    pub fn mean_network_s(&self) -> f64 {
        self.mean(FrameStats::network_s)
    }

    /// Mean compute component, seconds.
    pub fn mean_compute_s(&self) -> f64 {
        self.mean(FrameStats::compute_s)
    }

    /// Mean match component, seconds.
    pub fn mean_match_s(&self) -> f64 {
        self.mean(FrameStats::match_s)
    }
}

impl Scenario {
    /// Build the scenario.
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::retail_cached(cfg.db_per_subsection, cfg.seed);
        // The discovery technology fixes both the radio model (which the
        // localization regression must be calibrated against) and the
        // discovery cadence.
        let model = cfg.tech.pathloss();
        let channel = RadioChannel::new(model, cfg.seed);
        let mut world = ProximityWorld::from_floor(&floor, SERVICE, channel);
        world.period_s = cfg.tech.period_s();
        let world = world;
        let user_pos = floor.checkpoints[cfg.checkpoint % floor.checkpoints.len()].pos;

        // --- Out-of-band LTE-direct discovery: the modem hears the store's
        // landmarks. The bearer comes from the app-launch trigger (§8), so
        // only the rxPower readings are kept. ---
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide(SERVICE));
        // BTreeMap, not HashMap: the report order reaches the server's
        // localization manager and must not vary run to run.
        let mut rx_readings: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for tick in 0..4 {
            for ev in world.scan(&mut modem, user_pos, tick) {
                rx_readings
                    .entry(ev.publisher.clone())
                    .or_default()
                    .push(ev.rx_power_dbm);
            }
        }
        let rx_reports: Vec<(String, f64)> = rx_readings
            .into_iter()
            .map(|(k, v)| {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                (k, mean)
            })
            .collect();

        // --- The network. ---
        let mut net = LteNetwork::new(LteConfig {
            seed: cfg.seed,
            ..LteConfig::default()
        });

        // --- Server and (for MEC/ACACIA) the MRS. ---
        let strategy = match cfg.deployment {
            Deployment::Acacia => SearchStrategy::ACACIA_DEFAULT,
            _ => SearchStrategy::Naive,
        };
        let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
        let make_server = |addr: Ipv4Addr| {
            ArServer::new(
                ArServerConfig {
                    strategy,
                    exec_cap: cfg.exec_cap,
                    ..ArServerConfig::new(addr)
                },
                db.clone(),
                floor.clone(),
                locmgr.clone(),
            )
        };

        let (server, server_addr, mrs) = match cfg.deployment {
            Deployment::Cloud => {
                let addr = acacia_lte::network::addr::CLOUD_BASE;
                let (server, assigned) =
                    net.add_cloud_server(Box::new(make_server(addr)), CLOUD_REGION.link_config());
                assert_eq!(assigned, addr);
                (server, addr, None)
            }
            Deployment::Mec | Deployment::Acacia => {
                let addr = acacia_lte::network::addr::MEC_BASE;
                let (server, assigned) = net.add_mec_server(Box::new(make_server(addr)));
                assert_eq!(assigned, addr);
                // The MRS lives in the core network, reachable over the
                // default bearer.
                let mrs_addr = acacia_lte::network::addr::CLOUD_BASE;
                let mut mrs_node = Mrs::new(mrs_addr);
                mrs_node.register_service(
                    SERVICE,
                    ServerInstance {
                        addr,
                        distance: 1.0,
                    },
                );
                let mrs = add_mrs(&mut net, mrs_node);
                (server, addr, Some(mrs))
            }
        };

        // --- Attach and the client. ---
        let ue_ip = net.attach(0);
        if cfg.radio_loss > 0.0 {
            net.set_radio_loss(cfg.radio_loss);
        }

        // The user photographs objects from their current subsection.
        let subsection = floor.subsection_at(user_pos).expect("user is on the floor");
        let scene_ids: Vec<u64> = db
            .in_subsections(&[subsection])
            .iter()
            .map(|o| o.id)
            .collect();

        let client_cfg = ArFrontendConfig {
            ue_ip,
            server: server_addr,
            mrs: match cfg.deployment {
                Deployment::Cloud => None,
                _ => Some((acacia_lte::network::addr::CLOUD_BASE, SERVICE.to_string())),
            },
            frame_count: cfg.frame_count,
            scene_ids,
            rx_report_schedule: if cfg.deployment == Deployment::Acacia && !rx_reports.is_empty() {
                vec![rx_reports]
            } else {
                Vec::new()
            },
            ..ArFrontendConfig::new(ue_ip, server_addr)
        };
        let client = net.connect_ue_app(
            0,
            Box::new(ArFrontend::new(client_cfg)),
            AppSelector::port(APP_PORT),
        );

        Scenario {
            net,
            floor,
            client,
            server,
            mrs,
            cfg,
        }
    }

    /// Run the session to completion (or a generous timeout) and report.
    pub fn run(mut self) -> SessionReport {
        let start = self.net.sim.now();
        self.net
            .sim
            .schedule_timer(self.client, start, ArFrontend::KICKOFF);
        let deadline = start + Duration::from_secs(10 + 5 * self.cfg.frame_count);
        while self.net.sim.now() < deadline {
            let t = self.net.sim.now() + Duration::from_millis(100);
            self.net.sim.run_until(t);
            if self.net.sim.node_ref::<ArFrontend>(self.client).done() {
                break;
            }
        }
        let client = self.net.sim.node_ref::<ArFrontend>(self.client);
        let server = self.net.sim.node_ref::<ArServer>(self.server);
        SessionReport {
            deployment: self.cfg.deployment,
            frames: client.frames.clone(),
            bearer_setup: client.bearer_setup,
            accuracy: server.accuracy(),
            events_processed: self.net.sim.events_processed(),
        }
    }
}

// The parallel experiment runner (acacia-bench) builds one `Scenario`
// per worker thread from a config passed across the thread boundary.
// Only the *config* and *report* must be `Send` — a `Scenario` itself
// holds the (deliberately single-threaded) simulation and never leaves
// the thread that built it. These assertions keep that contract from
// regressing silently.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Deployment>();
    assert_send::<ScenarioConfig>();
    assert_send::<SessionReport>();
};
