//! The benchmark's metro runs inside a fixed resident-set budget:
//! `MetroConfig::figure()` with every region cut to an eighth and twice
//! the frames (16 regions, 1 280 UEs, 4 frames each, seed 42) on one
//! shard, through `build`, `schedule`, `await_sessions` and `collect` —
//! the `metro-s1` workload's `peak_rss_mb`.
//!
//! Most of a metro's 8 978 links are rate-0 (5 120 air links, 2 560
//! UE↔application loopbacks) and never queue. Each of them used to keep a
//! per-DSCP class counter vector, one slot per class it carried, 0.81 MB
//! of the heap at peak, and this test read 13.6–13.8 MB in a release
//! build (15.1–15.2 MB debug). Class counters now live with a rated link's
//! class queues only: it reads 12.7–12.8 MB release, 14.1–14.3 MB debug.
//! Each budget is the reading plus twice the ~0.15 MB spread that
//! identical runs of one binary show.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia::metro::{MetroConfig, MetroScenario};
use acacia_integration::peak_rss_mb;

/// Release, and a debug build's (which `cargo test` runs).
const BUDGET_MB: f64 = if cfg!(debug_assertions) { 14.6 } else { 13.1 };

#[test]
fn the_benchmark_metro_fits_in_its_budget() {
    let figure = MetroConfig::figure();
    let cfg = MetroConfig {
        region_sizes: figure.region_sizes.iter().map(|s| s / 8).collect(),
        frame_count: 2 * figure.frame_count,
        ..figure
    };
    let mut sc = MetroScenario::build(cfg);
    let built = peak_rss_mb();
    let timeline = sc.schedule();
    sc.await_sessions(&timeline);
    let report = sc.collect(&timeline);

    assert_eq!(report.ue_count, 1_280);
    assert_eq!(report.wedged(), 0, "a session wedged");
    let frames: u64 = report.ues.iter().map(|u| u.frames_done).sum();
    assert_eq!(frames, 1_280 * 4, "the sessions did not run");

    let peak = peak_rss_mb();
    eprintln!("built {built:.2} MB, peak {peak:.2} MB");
    assert!(
        peak < BUDGET_MB,
        "peak RSS {peak:.2} MB (after `MetroScenario::build`: {built:.2} MB), budget {BUDGET_MB} MB"
    );
}
