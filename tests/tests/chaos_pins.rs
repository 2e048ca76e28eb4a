//! `figures chaos` pinned at the seeds `figures_output.txt` does not hold.
//!
//! The chaos sweep is the one experiment that runs the link-fault code
//! (`simnet::fault`) at random: its `--seed` reaches the fault plans'
//! probability draws. Seed 42 is in `figures_output.txt`; the other four
//! seeds of CI's seed matrix are held here, each as a 64-bit FNV-1a digest
//! of the rendered table. Each seed is rendered at `--jobs 1`, at
//! `--jobs 4` and at `--shards 2`, and every rendering must match the one
//! digest: a change that moves the chaos output at any of them, or makes
//! it depend on the worker or shard count, fails this test.
//!
//! Ignored by default (the twelve sweeps take ≈ 2.5 s in release, ≈ 35 s
//! in debug); CI runs it with `--release -- --ignored`.
//!
//! To re-record after an intended change, print `fnv1a(render())` for
//! each seed and paste the values below, with the reason in the commit.

use acacia_bench::{run, runner, set_seed};
use acacia_simnet::set_default_shards;

/// `(seed, FNV-1a 64 of chaos's render() at that seed)`.
const PINS: [(u64, u64); 4] = [
    (41, 0x0e2c_f6e0_7c62_46bc),
    (43, 0x3e66_3bb4_7cc1_6651),
    (44, 0x21bc_9fdd_2051_3ddd),
    (45, 0xf9ee_2ea3_e3c5_d4c5),
];

/// `(--jobs, --shards)` settings every pin must hold at.
const SETTINGS: [(usize, usize); 3] = [(1, 1), (4, 1), (1, 2)];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One test for all seeds and settings: the seed, the worker count and
/// the shard count are process-wide, so the runs must not interleave.
#[test]
#[ignore = "twelve chaos sweeps, ~35 s in debug; run with --release -- --ignored"]
fn chaos_output_matches_its_pins() {
    let mut drifted = Vec::new();
    for (seed, pin) in PINS {
        set_seed(seed);
        for (jobs, shards) in SETTINGS {
            runner::set_jobs(Some(jobs));
            set_default_shards(Some(shards));
            let rendered = run("chaos").expect("known experiment id").render();
            let digest = fnv1a(rendered.as_bytes());
            if digest != pin {
                drifted.push(format!(
                    "seed {seed} --jobs {jobs} --shards {shards}: {digest:#018x} (pinned {pin:#018x})"
                ));
            }
        }
    }
    set_default_shards(None);
    runner::set_jobs(None);
    set_seed(42);
    let _ = runner::drain_timings();
    assert!(
        drifted.is_empty(),
        "figures chaos drifted:\n{}",
        drifted.join("\n")
    );
}
