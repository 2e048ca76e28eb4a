//! Shard-parity differential harness: the sharded engine's determinism
//! contract (DESIGN.md §5.2) at the byte level.
//!
//! The spatially sharded engine is only legal because a run at any
//! `--shards N` is byte-identical to the single-threaded run: shards
//! exchange cross-shard arrivals under conservative lookahead and every
//! shard pops its events in the same `(at, key)` total order the merged
//! single wheel would have used. This test pins that contract the same
//! way `golden_output.rs` pins the engine overhaul: the heavy
//! mobility-family experiments are rendered at shards {1, 2, 4, 8} and
//! every rendering must equal the checked-in single-threaded golden
//! (`figures_output.txt`), so a lookahead bug, a mis-ordered exchange,
//! or a shard-dependent RNG pull shows up as a one-character diff.
//!
//! The scale, city, failover, and metro benchmarks are not part of
//! `figures all` (their stderr is wall-clock dependent), so their stdout
//! is compared against a baseline rendering instead of the golden file.
//! City, failover and metro sweep the shard counts *internally*, so their
//! checks vary the outer process-wide knobs instead — the `--shards`
//! default and the `--jobs` worker count — neither of which may leak
//! into stdout; city's and metro's four table rows (one per swept shard
//! count) are additionally compared token-by-token.
//!
//! Ignored by default (it reruns figure-scale grids 4×); CI runs the
//! matrix with `--release -- --ignored`.

use acacia_bench::{run, runner, set_seed};
use acacia_simnet::set_default_shards;
use std::sync::Mutex;

/// Both the runner's jobs knob and the engine's shard knob are
/// process-wide; tests in this binary run concurrently, so every test
/// that touches either serializes on this lock.
static ENGINE_KNOBS: Mutex<()> = Mutex::new(());

/// The shard counts of the differential matrix.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Render one experiment's stdout at a given shard count, restoring the
/// single-shard default afterwards. Matches `Table::print` (render plus
/// one trailing newline), which is what `figures_output.txt` records.
fn render_at_shards(id: &str, shards: usize) -> String {
    set_default_shards(Some(shards));
    let out = format!("{}\n", run(id).expect("known experiment id").render());
    set_default_shards(None);
    out
}

#[test]
#[ignore = "figure-scale grids x 4 shard counts; run with --release -- --ignored"]
fn mobility_family_matches_golden_at_every_shard_count() {
    let _guard = ENGINE_KNOBS.lock().expect("engine knobs lock");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../figures_output.txt"
    ))
    .expect("figures_output.txt is checked in at the repo root");
    runner::set_jobs(None);
    set_seed(42);
    for id in ["mobility", "chaos", "loaded"] {
        for shards in SHARD_COUNTS {
            let rendered = render_at_shards(id, shards);
            assert!(
                golden.contains(&rendered),
                "{id} at --shards {shards} drifted from the single-threaded \
                 golden in figures_output.txt:\n{rendered}"
            );
        }
    }
    let _ = runner::drain_timings();
}

#[test]
#[ignore = "figure-scale grids x 4 shard counts; run with --release -- --ignored"]
fn scale_benchmark_is_byte_identical_at_every_shard_count() {
    let _guard = ENGINE_KNOBS.lock().expect("engine knobs lock");
    runner::set_jobs(None);
    set_seed(42);
    let single = render_at_shards("scale", 1);
    for shards in [2, 4, 8] {
        let sharded = render_at_shards("scale", shards);
        assert_eq!(
            sharded, single,
            "scale stdout at --shards {shards} must match --shards 1 exactly"
        );
    }
    let _ = runner::drain_timings();
}

/// The failover experiment sweeps `--shards {1, 2, 4, 8}` *internally*
/// (and asserts its own per-config fingerprint parity while it runs),
/// so its stdout must be byte-identical no matter what the outer shard
/// default or `--jobs` worker count is when it starts.
#[test]
#[ignore = "figure-scale grids x 4 shard counts; run with --release -- --ignored"]
fn failover_experiment_is_byte_identical_across_jobs_and_shard_defaults() {
    let _guard = ENGINE_KNOBS.lock().expect("engine knobs lock");
    set_seed(42);
    runner::set_jobs(Some(1));
    let base = render_at_shards("failover", 1);
    for (shards, jobs) in [(2, 4), (4, 1), (8, 4)] {
        runner::set_jobs(Some(jobs));
        assert_eq!(
            render_at_shards("failover", shards),
            base,
            "failover stdout with outer --shards {shards} / --jobs {jobs} \
             must match --shards 1 / --jobs 1 exactly"
        );
    }
    runner::set_jobs(None);
    let _ = runner::drain_timings();
}

/// The data rows of a metro/city-style parity table, stripped to their
/// shard-invariant tokens: column 0 (`shards`) and column 9 (`xshard`)
/// are the only ones allowed to differ between rows.
fn shard_invariant_rows(rendered: &str) -> Vec<Vec<String>> {
    rendered
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with("note:") && !l.is_empty())
        .map(|row| {
            row.split_whitespace()
                .enumerate()
                .filter(|&(i, _)| i != 0 && i != 9)
                .map(|(_, tok)| tok.to_string())
                .collect()
        })
        .collect()
}

/// The city and 10k-UE metro benchmarks sweep `--shards {1, 2, 4, 8}`
/// internally: their stdout must not depend on the outer shard default
/// or `--jobs`, and their four table rows — one per shard count — must
/// be identical in every column except `shards` and `xshard`.
#[test]
#[ignore = "city and 10k-UE metro x 4 shard counts, twice; run with --release -- --ignored"]
fn metro_rows_are_byte_identical_at_every_shard_count() {
    let _guard = ENGINE_KNOBS.lock().expect("engine knobs lock");
    set_seed(42);
    for id in ["city", "metro"] {
        runner::set_jobs(Some(1));
        let base = render_at_shards(id, 1);
        let rows = shard_invariant_rows(&base);
        assert_eq!(rows.len(), 4, "one row per swept shard count:\n{base}");
        for row in &rows[1..] {
            assert_eq!(
                row, &rows[0],
                "{id} rows must agree in every shard-invariant column:\n{base}"
            );
        }
        runner::set_jobs(Some(4));
        assert_eq!(
            render_at_shards(id, 8),
            base,
            "{id} stdout with outer --shards 8 / --jobs 4 must match \
             --shards 1 / --jobs 1 exactly"
        );
    }
    runner::set_jobs(None);
    let _ = runner::drain_timings();
}
