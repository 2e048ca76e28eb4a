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
        use acacia::corridor::{CorridorConfig, CorridorMode, CorridorScenario};

        #[test]
        fn mobility_reports_complete_in_every_variant() {
            // Smoke scale: the figure-scale walk is exercised by `figures`.
            let reports: Vec<_> = CorridorMode::ALL
                .iter()
                .map(|&m| CorridorScenario::build(CorridorConfig::mobility_smoke(m)).run())
                .collect();
            for r in &reports {
                assert_eq!(r.wedged(), 0, "{} incomplete", r.mode.name());
                assert_eq!(r.total_handovers(), 2, "{}", r.mode.name());
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
        use acacia::corridor::CorridorScenario;

        /// The assembled sweep must be byte-identical no matter how many
        /// workers raced over the grid (smoke scale; figure scale is
        /// compared across `--jobs` in CI).
        #[test]
        fn chaos_grid_is_byte_identical_across_worker_counts() {
            let render = |jobs: usize| {
                runner::set_jobs(Some(jobs));
                let reports = runner::pmap("chaos-smoke", chaos_grid(42, true), |cfg| {
                    CorridorScenario::build(cfg).run()
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
        use acacia::corridor::{CorridorConfig, CorridorScenario};

        #[test]
        fn json_is_well_formed_enough_to_eyeball() {
            let run = CorridorScenario::build(CorridorConfig::scale_smoke(2)).run();
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
        use acacia::corridor::{CorridorConfig, CorridorScenario};

        /// The assembled sweep must be byte-identical no matter how many
        /// workers raced over the grid (smoke scale; figure scale is
        /// compared across `--jobs` in CI).
        #[test]
        fn loaded_grid_is_byte_identical_across_worker_counts() {
            let render = |jobs: usize| {
                runner::set_jobs(Some(jobs));
                let grid = vec![
                    ("N=2 bg=0M".to_string(), (2usize, 0u64)),
                    ("N=2 bg=110M".to_string(), (2usize, 110u64)),
                    ("N=3 bg=110M".to_string(), (3usize, 110u64)),
                ];
                let reports = runner::pmap("loaded-smoke", grid, |(n, mbps)| {
                    CorridorScenario::build(CorridorConfig::loaded_smoke(n, mbps)).run()
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
