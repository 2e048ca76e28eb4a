//! The AR server keeps no rendered frames: the paper's Fig. 13 sessions,
//! run twice, stay inside a fixed resident-set budget. The object database
//! memoizes each vision query's outcome, a few hundred bytes, and drops the
//! view it rendered to compute it. What used to break it: process-wide
//! caches kept every rendered view (≈ 880 features, each with its own
//! 256 B descriptor) and every full base feature set for the life of the
//! process, which read 11.1 MB here in release (12.5 MB debug). A database
//! storing 96 descriptors per object, twice what fig13 executes, read
//! 6.5 MB release / 7.8 MB debug; 48 read 5.2 / 6.4 MB.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia_bench::experiments::application::fig13_reports;
use acacia_bench::runner;
use acacia_integration::peak_rss_mb;

const BUDGET_MB: f64 = 8.0;

#[test]
fn two_fig13_passes_fit_in_8_mb() {
    // One worker: the peak must not depend on the host's core count.
    runner::set_jobs(Some(1));
    let first = fig13_reports(10, 48);
    let after_first = peak_rss_mb();
    // The second pass replays the first one's queries.
    let second = fig13_reports(10, 48);
    assert_eq!(first.len(), 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.frames.len(), 10, "{:?}", a.deployment);
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.mean_total_s(), b.mean_total_s());
        assert_eq!(a.mean_match_s(), b.mean_match_s());
    }

    let peak = peak_rss_mb();
    eprintln!("after one pass {after_first:.1} MB, peak {peak:.1} MB");
    assert!(
        peak < BUDGET_MB,
        "peak RSS {peak:.1} MB (after one pass: {after_first:.1} MB), budget {BUDGET_MB} MB"
    );
}
