//! # acacia — context-aware edge computing for continuous interactive apps
//!
//! A full reproduction of **ACACIA** (CoNEXT 2016): a service abstraction
//! framework enabling continuous interactive (CI) applications on mobile
//! edge clouds in LTE networks. The three pillars, and where they live:
//!
//! 1. **User context discovery** — LTE-direct publish/subscribe with
//!    in-modem interest matching ([`device_manager`], `acacia-d2d`).
//! 2. **Context-aware traffic redirection** — the [`mrs`] signals the PCRF
//!    to create on-demand dedicated bearers terminating on *local* MEC
//!    gateways; the UE's modem TFT steers only CI traffic there
//!    (`acacia-lte`).
//! 3. **Context-aware application optimization** — the [`locmgr`]
//!    tri-laterates LTE-direct rxPower into coarse indoor locations that
//!    prune the AR object database ([`search`], [`arserver`]).
//!
//! [`scenario`] ties everything into the paper's CLOUD / MEC / ACACIA
//! end-to-end comparisons:
//!
//! ```no_run
//! use acacia::scenario::{Deployment, Scenario, ScenarioConfig};
//!
//! let report = Scenario::build(ScenarioConfig::e2e(Deployment::Acacia)).run();
//! println!("mean end-to-end: {:.0} ms", report.mean_total_s() * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arclient;
pub mod arserver;
pub mod chaos;
pub mod device_manager;
pub mod failover;
pub mod loaded;
pub mod locmgr;
pub mod metro;
pub mod mobility;
pub mod mrs;
pub mod msg;
pub mod retail;
pub mod scale;
pub mod scenario;
pub mod search;

/// The city is the equal-region preset of the one regional builder,
/// [`metro::MetroConfig::city`]; its tests live under its name.
#[cfg(test)]
mod city {
    mod tests {
        use crate::metro::{MetroConfig, MetroScenario};
        use acacia_simnet::time::Duration;

        fn tiny() -> MetroConfig {
            MetroConfig {
                region_sizes: vec![2, 2],
                frame_count: 2,
                ..MetroConfig::city_smoke()
            }
        }

        #[test]
        fn two_regions_complete_and_hand_over() {
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

        /// The tiny city reproduces, value for value, what the
        /// equal-region builder the city preset replaced recorded for the
        /// same input.
        #[test]
        fn tiny_city_matches_the_recorded_equal_region_run() {
            let r = MetroScenario::build(tiny()).run();
            let ues: Vec<_> = r
                .ues
                .iter()
                .map(|u| (u.frames_done, u.handovers, u.retransmissions))
                .collect();
            assert_eq!(ues, vec![(2, 2, 0); 4]);
            assert_eq!((r.x2_msgs, r.s1ap_msgs, r.gtpc_msgs), (32, 40, 40));
            assert_eq!(r.events_processed, 6_360);
            assert_eq!(r.sim_elapsed, Duration::from_millis(15_100));
        }

        #[test]
        fn interval_floor_scales_with_region_population_not_city_size() {
            let figure = MetroConfig::city();
            for r in 0..figure.regions() {
                assert_eq!(
                    figure.region_interval(r).nanos(),
                    figure.per_frame_budget.nanos() * figure.region_sizes[r] as u64
                );
                assert_eq!(figure.region_stagger(r), figure.per_frame_budget);
            }
            let smoke = MetroConfig::city_smoke();
            assert!(
                (0..smoke.regions()).all(|r| smoke.region_interval(r) == smoke.base_frame_interval)
            );
        }
    }
}

pub use arclient::{ArFrontend, ArFrontendConfig, FrameStats};
pub use arserver::{ArServer, ArServerConfig, FrameRecord};
pub use chaos::{ChaosConfig, ChaosReport, ChaosScenario};
pub use device_manager::{AppId, ConnectivityAction, DeviceManager, ServiceInfo};
pub use loaded::{LoadedConfig, LoadedReport, LoadedScenario, LoadedUeReport};
pub use locmgr::{LocalizationManager, LocalizationMetadata};
pub use mobility::{MobilityConfig, MobilityMode, MobilityReport, MobilityScenario};
pub use mrs::{Mrs, ServerInstance};
pub use msg::{AppMsg, FrameMeta};
pub use retail::{CustomerApp, ShopperNotification, StoreApp};
pub use scale::{ScaleConfig, ScaleReport, ScaleScenario, ScaleUeReport};
pub use scenario::{Deployment, Scenario, ScenarioConfig, SessionReport};
pub use search::{candidates, SearchContext, SearchStrategy};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arclient::{ArFrontend, ArFrontendConfig, FrameStats};
    pub use crate::arserver::{ArServer, ArServerConfig};
    pub use crate::chaos::{ChaosConfig, ChaosReport, ChaosScenario};
    pub use crate::device_manager::{DeviceManager, ServiceInfo};
    pub use crate::loaded::{LoadedConfig, LoadedReport, LoadedScenario};
    pub use crate::locmgr::{LocalizationManager, LocalizationMetadata};
    pub use crate::mobility::{MobilityConfig, MobilityMode, MobilityReport, MobilityScenario};
    pub use crate::mrs::{Mrs, ServerInstance};
    pub use crate::msg::AppMsg;
    pub use crate::scenario::{Deployment, Scenario, ScenarioConfig, SessionReport};
    pub use crate::search::{candidates, SearchContext, SearchStrategy};
}
