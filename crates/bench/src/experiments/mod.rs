//! One module per group of paper artifacts. Every public `figXX()`
//! function regenerates the corresponding table/figure as a printable
//! [`Table`](crate::table::Table); `*_data` variants expose the raw series
//! for tests.

pub mod application;
pub mod compute;
pub mod corridor;
pub mod failover;
pub mod localization;
pub mod metro;
pub mod network;

/// `figures city` is the metro sweep run with the
/// [`MetroConfig::city`](acacia::metro::MetroConfig::city) preset; its
/// tests live under its name.
#[cfg(test)]
mod city {
    mod tests {
        use crate::experiments::metro::tests::assert_smoke_sweep;
        use acacia::metro::MetroConfig;

        #[test]
        fn smoke_sweep_is_shard_invariant_and_json_is_well_formed() {
            let _engine = crate::engine_lock();
            let cfg = MetroConfig {
                region_sizes: vec![2; 8],
                frame_count: 2,
                ..MetroConfig::city_smoke()
            };
            assert_smoke_sweep("city", &cfg);
        }
    }
}

/// `figures mobility`, `chaos`, `scale` and `loaded` are the
/// [`corridor`] tables; their tests live under their names.
#[cfg(test)]
mod mobility {
    mod tests {
        use acacia::metro::{BearerMode, MetroConfig, MetroScenario};

        #[test]
        fn mobility_reports_complete_in_every_variant() {
            let _engine = crate::engine_lock();
            // Smoke scale: the figure-scale walk is exercised by `figures`.
            let reports: Vec<_> = BearerMode::ALL
                .map(|m| MetroScenario::build(MetroConfig::mobility_smoke(m)).run())
                .into();
            for (m, r) in BearerMode::ALL.iter().zip(&reports) {
                assert_eq!(r.wedged(), 0, "{} incomplete", m.name());
                assert_eq!(r.total_handovers(), 2, "{}", m.name());
            }
            // Only the re-anchor variant keeps the bearer on the move.
            assert_eq!(reports[0].dedicated_reanchored, 2);
            assert_eq!(reports[1].dedicated_released, 1);
            assert_eq!(reports[2].dedicated_reanchored, 0);
        }
    }
}

#[cfg(test)]
mod chaos {
    mod tests {
        use crate::experiments::corridor::chaos_grid;
        use crate::runner;
        use acacia::metro::MetroScenario;

        /// The assembled sweep must be byte-identical no matter how many
        /// workers raced over the grid (smoke scale; figure scale is
        /// compared across `--jobs` in CI).
        #[test]
        fn chaos_grid_is_byte_identical_across_worker_counts() {
            let _engine = crate::engine_lock();
            let render = |jobs: usize| {
                runner::set_jobs(Some(jobs));
                let reports = runner::pmap("chaos-smoke", chaos_grid(42, true), |cfg| {
                    MetroScenario::build(cfg).run()
                });
                runner::set_jobs(None);
                // Every cell of the smoke sweep must end clean, rate 0
                // included.
                assert!(reports.iter().all(|r| r.clean()), "{reports:?}");
                format!("{reports:?}")
            };
            assert_eq!(render(1), render(4));
        }
    }
}

#[cfg(test)]
mod scale {
    mod tests {
        use crate::experiments::corridor::scale_json_cells;
        use crate::report;
        use acacia::metro::{MetroConfig, MetroScenario};

        #[test]
        fn json_is_well_formed_enough_to_eyeball() {
            let _engine = crate::engine_lock();
            let run = MetroScenario::build(MetroConfig::scale_smoke(2)).run();
            assert_eq!(run.wedged(), 0);
            let json = report::render("scale", &scale_json_cells(&[(run, 1.5)]));
            report::assert_well_formed(&json, "scale", 1);
        }
    }
}

#[cfg(test)]
mod loaded {
    mod tests {
        use crate::runner;
        use acacia::metro::{MetroConfig, MetroScenario};

        /// The assembled sweep must be byte-identical no matter how many
        /// workers raced over the grid (smoke scale; figure scale is
        /// compared across `--jobs` in CI).
        #[test]
        fn loaded_grid_is_byte_identical_across_worker_counts() {
            let _engine = crate::engine_lock();
            let render = |jobs: usize| {
                runner::set_jobs(Some(jobs));
                let grid = vec![
                    ("N=2 bg=0M".to_string(), (2usize, 0u64)),
                    ("N=2 bg=110M".to_string(), (2usize, 110u64)),
                    ("N=3 bg=110M".to_string(), (3usize, 110u64)),
                ];
                let reports = runner::pmap("loaded-smoke", grid, |(n, mbps)| {
                    MetroScenario::build(MetroConfig::loaded_smoke(n, mbps)).run()
                });
                runner::set_jobs(None);
                // Every cell completes every session, congested ones
                // included.
                assert!(reports.iter().all(|r| r.wedged() == 0), "{reports:?}");
                format!("{reports:?}")
            };
            assert_eq!(render(1), render(4));
        }
    }
}

/// Beyond [`STORED_FEATURES`](acacia_vision::db::STORED_FEATURES) (or at
/// cap 0, unlimited) `ObjectDb::match_against` still matches exactly, but
/// regenerates every candidate's executed prefix on every query: a
/// run-time cliff no output shows. Every cap an experiment or server runs
/// at stays within the stored prefix.
#[cfg(test)]
mod exec_caps {
    mod tests {
        use crate::experiments::{application, compute};
        use acacia::arserver::ArServerConfig;
        use acacia::scenario::{Deployment, ScenarioConfig};
        use acacia_vision::db::STORED_FEATURES;
        use std::net::Ipv4Addr;

        #[test]
        fn every_production_cap_executes_within_the_stored_prefix() {
            let mut caps: Vec<(String, usize)> = Deployment::ALL
                .iter()
                .map(|&d| {
                    let name = format!("ScenarioConfig::e2e({})", d.name());
                    (name, ScenarioConfig::e2e(d).exec_cap)
                })
                .collect();
            caps.extend([
                (
                    "ArServerConfig::new".to_string(),
                    ArServerConfig::new(Ipv4Addr::LOCALHOST).exec_cap,
                ),
                ("metro::EXEC_CAP".to_string(), acacia::metro::EXEC_CAP),
                ("fig3b".to_string(), compute::FIG3B_EXEC_CAP),
                ("fig3h".to_string(), compute::FIG3H_EXEC_CAP),
                ("fig11/fig12".to_string(), application::FIG11_EXEC_CAP),
                ("fig13".to_string(), application::FIG13_EXEC_CAP),
            ]);
            for (name, cap) in &caps {
                assert!(
                    (1..=STORED_FEATURES).contains(cap),
                    "{name} executes {cap} features; the database stores {STORED_FEATURES}"
                );
            }
            // The stored prefix is no longer than the largest cap needs.
            assert_eq!(caps.iter().map(|c| c.1).max(), Some(STORED_FEATURES));
        }
    }
}
