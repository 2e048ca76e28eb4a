//! One module per group of paper artifacts. Every public `figXX()`
//! function regenerates the corresponding table/figure as a printable
//! [`Table`](crate::table::Table); `*_data` variants expose the raw series
//! for tests and the Criterion benches.

pub mod application;
pub mod chaos;
pub mod compute;
pub mod failover;
pub mod loaded;
pub mod localization;
pub mod metro;
pub mod mobility;
pub mod network;
pub mod scale;

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
