//! The AR object database keeps only what the matcher reads: building the
//! paper's 105-object retail database and matching frames against all of
//! it stays inside a fixed resident-set budget. Each object stores its
//! detected feature count and the first `STORED_FEATURES` descriptors, the
//! prefix the matcher executes. What used to break it: every object kept
//! all of its ≈ 700 capture-resolution descriptors, one heap vector each,
//! which read about 27 MB here against about 8 MB now.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia::search::SearchStrategy;
use acacia_bench::experiments::application::fig11_frames;
use acacia_integration::peak_rss_mb;
use acacia_vision::db::{ObjectDb, STORED_FEATURES};
use acacia_vision::image::Resolution;

const BUDGET_MB: f64 = 12.0;

#[test]
fn the_retail_database_and_a_match_pass_fit_in_12_mb() {
    let db = ObjectDb::retail_cached(5, 42);
    assert_eq!(db.len(), 105);
    assert!(db
        .objects()
        .iter()
        .all(|o| o.features.len() == o.feature_count.min(STORED_FEATURES)));
    let built = peak_rss_mb();

    // Two checkpoints, two frames each, matched against every object.
    let frames = fig11_frames(SearchStrategy::Naive, Resolution::new(720, 480), 2, 2, 42);
    assert_eq!(frames.len(), 4);
    assert!(frames.iter().all(|f| f.candidates == db.len()));
    assert!(
        frames.iter().any(|f| f.correct),
        "no frame found its object"
    );

    let peak = peak_rss_mb();
    eprintln!("built {built:.1} MB, peak {peak:.1} MB");
    assert!(
        peak < BUDGET_MB,
        "peak RSS {peak:.1} MB (after building the database: {built:.1} MB), budget {BUDGET_MB} MB"
    );
}
