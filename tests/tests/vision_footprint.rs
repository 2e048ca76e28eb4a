//! The AR vision path keeps only what the matcher reads: building the
//! paper's 105-object retail database and matching frames against all of
//! it stays inside a fixed resident-set budget, and matching adds almost
//! nothing to what the database holds. Each object stores its detected
//! feature count and the first `STORED_FEATURES` descriptors, the largest
//! prefix any experiment executes; a frame is rendered only as far as the
//! matcher's execution cap, and every descriptor lives inline in its
//! feature.
//!
//! What used to break it: every object kept all of its ≈ 700
//! capture-resolution descriptors, one heap vector each (about 27 MB
//! here), and later each frame rendered all of its ≈ 1 500 base and view
//! features, each with its own 256 B heap descriptor. That read 7.5 MB
//! release / 7.8 MB debug, 1.4–1.5 MB of it added by matching. Storing 96
//! descriptors per object, twice what any experiment executes, read
//! 6.0 / 6.2 MB; 48 read 4.7 MB release / 4.9 MB debug, under 0.5 MB of
//! it added by matching.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia::search::SearchStrategy;
use acacia_bench::experiments::application::fig11_frames;
use acacia_integration::peak_rss_mb;
use acacia_vision::db::{ObjectDb, STORED_FEATURES};
use acacia_vision::image::Resolution;

const BUDGET_MB: f64 = 6.0;
/// What matching may add to the peak over the built database.
const MATCH_GROWTH_MB: f64 = 1.0;

#[test]
fn the_retail_database_and_a_match_pass_fit_in_6_mb() {
    let db = ObjectDb::retail_cached(5, 42);
    assert_eq!(db.len(), 105);
    assert!(db
        .objects()
        .iter()
        .all(|o| o.features.len() == o.feature_count.min(STORED_FEATURES)));
    let built = peak_rss_mb();

    // Four checkpoints, four 1280×720 frames each, matched against every
    // object.
    let frames = fig11_frames(SearchStrategy::Naive, Resolution::new(1280, 720), 4, 4, 42);
    assert_eq!(frames.len(), 16);
    assert!(frames.iter().all(|f| f.candidates == db.len()));
    assert!(
        frames.iter().any(|f| f.correct),
        "no frame found its object"
    );

    let peak = peak_rss_mb();
    let growth = peak - built;
    eprintln!("built {built:.2} MB, peak {peak:.2} MB, matching added {growth:.2} MB");
    assert!(
        growth < MATCH_GROWTH_MB,
        "matching added {growth:.2} MB over the built database ({built:.2} MB), \
         allowed {MATCH_GROWTH_MB} MB"
    );
    assert!(
        peak < BUDGET_MB,
        "peak RSS {peak:.2} MB (after building the database: {built:.2} MB), budget {BUDGET_MB} MB"
    );
}
