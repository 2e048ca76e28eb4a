//! # acacia-bench — the figure/table regeneration harness
//!
//! Every table and figure of the ACACIA paper's evaluation maps to a
//! function in [`experiments`]; the `figures` binary exposes them as
//! subcommands:
//!
//! ```text
//! cargo run -p acacia-bench --release --bin figures -- all
//! cargo run -p acacia-bench --release --bin figures -- fig13
//! ```
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod report;
pub mod runner;
pub mod table;

use std::sync::atomic::{AtomicU64, Ordering};
use table::Table;

/// Process-wide master seed for experiments that honour the `figures
/// --seed N` flag (the chaos, loaded and failover sweeps). Defaults to
/// 42, the seed baked into every fixed-seed experiment config.
static SEED: AtomicU64 = AtomicU64::new(42);

/// Set the master seed used by seed-aware experiments.
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::SeqCst);
}

/// The master seed in effect.
pub(crate) fn seed() -> u64 {
    SEED.load(Ordering::SeqCst)
}

/// All experiment ids, in paper order.
pub const ALL_IDS: [&str; 17] = [
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig3f",
    "fig3g",
    "fig3h",
    "sec4-ctrl",
    "fig6",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "sec73-jpeg",
    "fig11a",
];

/// Extended ids that take noticeably longer (included in `all`).
pub const SLOW_IDS: [&str; 7] = [
    "fig11b",
    "fig12",
    "fig13",
    "ablation-radius",
    "mobility",
    "chaos",
    "loaded",
];

/// Extra experiments runnable by id but excluded from `all` (they
/// measure the harness, not the paper: their stderr/JSON output is
/// wall-clock dependent).
pub const EXTRA_IDS: [&str; 4] = ["scale", "city", "metro", "failover"];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Table> {
    use experiments::*;
    Some(match id {
        "fig3a" => compute::fig3a(),
        "fig3b" => compute::fig3b(),
        "fig3c" => network::fig3c(),
        "fig3d" => network::fig3d(),
        "fig3e" => compute::fig3e(),
        "fig3f" => compute::fig3f(),
        "fig3g" => network::fig3g(),
        "fig3h" => compute::fig3h(),
        "sec4-ctrl" => network::sec4_ctrl(),
        "fig6" => localization::fig6(),
        "fig8" => network::fig8(),
        "fig9a" => localization::fig9a(),
        "fig9b" => localization::fig9b(),
        "fig10a" => network::fig10a(),
        "fig10b" => network::fig10b(),
        "sec73-jpeg" => compute::sec73_jpeg(),
        "fig11a" => application::fig11a(),
        "fig11b" => application::fig11b(),
        "fig12" => application::fig12(),
        "fig13" => application::fig13(),
        "ablation-radius" => application::ablation_radius(),
        "mobility" => corridor::mobility(),
        "chaos" => corridor::chaos(),
        "scale" => corridor::scale(),
        "city" => metro::city(),
        "metro" => metro::metro(),
        "failover" => failover::failover(),
        "loaded" => corridor::loaded(),
        _ => return None,
    })
}
