//! Byte-level golden tests for the heavy mobility-family experiments and
//! the deterministic keys of the checked-in `BENCH_scale.json`.
//!
//! `figures_output.txt` is the checked-in output of `figures all`. The
//! simnet engine overhaul (timing-wheel scheduler, typed payloads,
//! cancellable timers) is only legal because it changes *nothing* the
//! experiments observe — this test pins that contract at the byte level
//! for the experiments that exercise the engine hardest. Any
//! scheduler or hot-path change that reorders events, perturbs a
//! floating-point accumulation, or shifts a timer shows up here as a
//! one-character diff long before a human would notice it in a table.
//!
//! Ignored by default (it reruns four figure-scale grids); CI runs it
//! with `--release -- --ignored`.

use acacia_bench::{run, runner, set_seed};
use acacia_integration::assert_matches_checked_in;

#[test]
#[ignore = "figure-scale grids; run with --release -- --ignored"]
fn mobility_family_matches_checked_in_figures_output() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../figures_output.txt"
    ))
    .expect("figures_output.txt is checked in at the repo root");
    runner::set_jobs(None);
    set_seed(42);
    for id in ["fig13", "mobility", "chaos", "loaded"] {
        // `Table::print` emits `render()` plus one trailing newline.
        let rendered = format!("{}\n", run(id).expect("known experiment id").render());
        assert!(
            golden.contains(&rendered),
            "{id} output drifted from figures_output.txt; rerun `figures all` \
             and inspect the diff before re-recording:\n{rendered}"
        );
    }
    // The grids above record timings into the process-global buffer;
    // drain so co-resident tests see a clean slate.
    let _ = runner::drain_timings();
}

/// `figures scale` stdout is not in `figures_output.txt` (its stderr is
/// wall-clock dependent), so a fresh sweep's JSON is held against the
/// checked-in `BENCH_scale.json`, key for key, minus the wall-clock ones.
#[test]
#[ignore = "figure-scale sweep; run with --release -- --ignored"]
fn scale_matches_checked_in_bench_scale_json() {
    runner::set_jobs(None);
    let table = run("scale").expect("known experiment id");
    let _ = runner::drain_timings();
    assert_matches_checked_in(table.attached(), "BENCH_scale.json");
}
