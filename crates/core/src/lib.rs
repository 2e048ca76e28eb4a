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
pub mod device_manager;
pub mod failover;
pub mod locmgr;
pub mod metro;
pub mod mrs;
pub mod msg;
pub mod scenario;
pub mod search;

/// `chaos`, `scale` and `loaded` are one-region presets of the one builder,
/// [`metro::MetroConfig`]; their tests live under their names. Each smoke
/// preset also pins what it records (see [`recorded`]).
#[cfg(test)]
mod chaos {
    mod tests {
        use crate::metro::{MetroConfig, MetroScenario};

        /// Faults at rate zero must not perturb the session at all: the
        /// fault layer armed at rate 0 reproduces the walk with the layer
        /// off, field for field.
        #[test]
        fn zero_rate_chaos_matches_plain_mobility() {
            let faulted = MetroScenario::build(MetroConfig::chaos_smoke(0.0)).run();
            let plain = MetroConfig {
                faults: None,
                ..MetroConfig::chaos_smoke(0.0)
            };
            let plain = MetroScenario::build(plain).run();
            assert_eq!(format!("{faulted:?}"), format!("{plain:?}"));
            assert_eq!(faulted.recovery.injected_drops, 0);
            assert!(faulted.clean());
        }

        /// The acceptance gate at smoke scale: 10% control drops, session
        /// still completes, nothing wedges.
        #[test]
        fn ten_percent_control_drops_leave_no_wedged_ues() {
            let r = MetroScenario::build(MetroConfig::chaos_smoke(0.10)).run();
            assert!(r.clean() && r.wedged() == 0, "wedged: {r:?}");
            assert_eq!(
                super::super::recorded(&r),
                "[(12, 2, 0)] msgs (10, 11, 10) events 17731 sim 17100 ms probes (616, 1)"
            );
            let a = r.recovery;
            assert_eq!((a.completed, a.ho_retx, a.ps_retx), (2, 1, 1));
            assert_eq!((a.injected_drops, a.injected_reorders), (3, 1));
        }

        /// Same seed, same plan ⇒ identical report, repeatably.
        #[test]
        fn chaos_runs_are_deterministic() {
            let a = MetroScenario::build(MetroConfig::chaos_smoke(0.15)).run();
            let b = MetroScenario::build(MetroConfig::chaos_smoke(0.15)).run();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[cfg(test)]
mod scale {
    mod tests {
        use crate::metro::{MetroConfig, MetroScenario};

        #[test]
        fn two_ues_complete_and_hand_over() {
            let r = MetroScenario::build(MetroConfig::scale_smoke(2)).run();
            assert_eq!(r.wedged(), 0, "every session completes");
            assert_eq!(
                super::super::recorded(&r),
                "[(4, 2, 0), (4, 2, 0)] msgs (16, 20, 20) events 5908 sim 15100 ms probes (0, 0)"
            );
        }

        #[test]
        fn signalling_grows_with_ue_count() {
            let one = MetroScenario::build(MetroConfig::scale_smoke(1)).run();
            let four = MetroScenario::build(MetroConfig::scale_smoke(4)).run();
            assert_eq!(one.wedged() + four.wedged(), 0);
            assert!(four.x2_msgs > one.x2_msgs, "more UEs, more X2 signalling");
            assert!(four.total_handovers() > one.total_handovers());
        }

        #[test]
        fn interval_floor_scales_with_ue_count() {
            let small = MetroConfig::scale(8);
            let big = MetroConfig::scale(128);
            assert_eq!(small.region_interval(0), small.base_frame_interval);
            assert_eq!(
                big.region_interval(0).nanos(),
                big.per_frame_budget.nanos() * 128
            );
            // The stagger follows the population and the interval, so it
            // cannot go stale when either is edited.
            let edited = MetroConfig {
                region_sizes: vec![128],
                ..small
            };
            assert_eq!(edited.region_stagger(0), edited.per_frame_budget);
        }
    }
}

#[cfg(test)]
mod loaded {
    mod tests {
        use crate::metro::{MetroConfig, MetroScenario};

        fn median(mut v: Vec<f64>) -> f64 {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        }

        #[test]
        fn congestion_inflates_cloud_path_but_sessions_and_handovers_survive() {
            let unloaded = MetroScenario::build(MetroConfig::loaded_smoke(2, 0)).run();
            let loaded = MetroScenario::build(MetroConfig::loaded_smoke(2, 110)).run();
            assert_eq!(
                super::super::recorded(&loaded),
                "[(4, 2, 0), (4, 2, 0)] msgs (16, 20, 20) events 767779 sim 15100 ms probes (1210, 2)"
            );
            let cloud = |r: &crate::metro::MetroReport| {
                let load = r.load.as_ref().expect("the loaded preset reports its load");
                (median(load.cloud_rtts_ms.clone()), load.cloud_probes)
            };
            assert_eq!(cloud(&loaded).1, (50, 0));
            // The cloud path collapses above capacity…
            let (base_ms, cong_ms) = (cloud(&unloaded).0, cloud(&loaded).0);
            assert!(base_ms < 60.0, "unloaded cloud RTT sane: {base_ms:.1} ms");
            assert!(cong_ms > 5.0 * base_ms, "{base_ms:.1} → {cong_ms:.1} ms");
            // …while every MEC session completes and handover
            // interruption stays bounded in both regimes.
            for r in [&unloaded, &loaded] {
                assert_eq!(r.wedged(), 0);
                assert!(r.total_handovers() >= 4);
                assert!(
                    r.interrupt_max_ms() <= 60.0,
                    "{:.1} ms",
                    r.interrupt_max_ms()
                );
            }
        }

        #[test]
        fn per_class_counters_surface_on_the_core_leg() {
            let r = MetroScenario::build(MetroConfig::loaded_smoke(1, 110)).run();
            let core = r.load.expect("the loaded preset reports its load");
            // Background + default-bearer traffic is stamped DSCP 1 (ToS 4).
            let (_, best_effort) = *core
                .core_classes
                .iter()
                .find(|&&(c, _)| c == 1)
                .expect("best-effort class present on the core leg");
            assert!(best_effort.enqueued > 0);
            assert!(best_effort.drops_queue > 0, "110% load overflows it");
            let per_class: u64 = core.core_classes.iter().map(|(_, s)| s.drops_queue).sum();
            assert_eq!(
                core.core_drops_queue, per_class,
                "link drops = Σ class drops"
            );
        }
    }
}

/// The values a smoke preset pins: per-UE (frames, handovers,
/// retransmissions), (X2, S1AP, GTP-C) messages, engine events,
/// simulated time and liveness probes (sent, lost).
#[cfg(test)]
fn recorded(r: &metro::MetroReport) -> String {
    let ues: Vec<_> = r
        .ues
        .iter()
        .map(|u| (u.frames_done, u.handovers, u.retransmissions))
        .collect();
    format!(
        "{ues:?} msgs {:?} events {} sim {} ms probes {:?}",
        (r.x2_msgs, r.s1ap_msgs, r.gtpc_msgs),
        r.events_processed,
        r.sim_elapsed.nanos() as f64 / 1e6,
        r.probes
    )
}

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
pub use device_manager::{AppId, ConnectivityAction, DeviceManager, ServiceInfo};
pub use locmgr::{LocalizationManager, LocalizationMetadata};
pub use mrs::{Mrs, ServerInstance};
pub use msg::{AppMsg, FrameMeta};
pub use scenario::{Deployment, Scenario, ScenarioConfig, SessionReport};
pub use search::{candidates, SearchContext, SearchStrategy};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arclient::{ArFrontend, ArFrontendConfig, FrameStats};
    pub use crate::arserver::{ArServer, ArServerConfig};
    pub use crate::device_manager::{DeviceManager, ServiceInfo};
    pub use crate::locmgr::{LocalizationManager, LocalizationMetadata};
    pub use crate::mrs::{Mrs, ServerInstance};
    pub use crate::msg::AppMsg;
    pub use crate::scenario::{Deployment, Scenario, ScenarioConfig, SessionReport};
    pub use crate::search::{candidates, SearchContext, SearchStrategy};
}
