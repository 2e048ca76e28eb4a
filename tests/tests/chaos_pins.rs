//! `figures chaos` pinned at the seeds `figures_output.txt` does not hold.
//!
//! The chaos sweep is the one experiment that runs the link-fault code
//! (`simnet::fault`) at random: its `--seed` reaches the fault plans'
//! probability draws. Seed 42 is in `figures_output.txt`; the other four
//! seeds of CI's seed matrix are held here, each as a 64-bit FNV-1a digest
//! of the rendered table. A change that moves the chaos output at any of
//! them, at every shard and worker count alike, fails this test.
//!
//! Ignored by default (the four sweeps take ≈ 0.8 s in release, ≈ 11 s in
//! debug); CI runs it with `--release -- --ignored`.
//!
//! To re-record after an intended change, print `fnv1a(render())` for
//! each seed and paste the values below, with the reason in the commit.

use acacia_bench::{run, runner, set_seed};

/// `(seed, FNV-1a 64 of chaos's render() at that seed)`.
const PINS: [(u64, u64); 4] = [
    (41, 0x0e2c_f6e0_7c62_46bc),
    (43, 0x3e66_3bb4_7cc1_6651),
    (44, 0x21bc_9fdd_2051_3ddd),
    (45, 0xf9ee_2ea3_e3c5_d4c5),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One test for all seeds: the seed is process-wide, so the runs must
/// not interleave.
#[test]
#[ignore = "four chaos sweeps, ~11 s in debug; run with --release -- --ignored"]
fn chaos_output_matches_its_pins() {
    runner::set_jobs(None);
    let mut drifted = Vec::new();
    for (seed, pin) in PINS {
        set_seed(seed);
        let rendered = run("chaos").expect("known experiment id").render();
        let digest = fnv1a(rendered.as_bytes());
        if digest != pin {
            drifted.push(format!("seed {seed}: {digest:#018x} (pinned {pin:#018x})"));
        }
    }
    set_seed(42);
    let _ = runner::drain_timings();
    assert!(
        drifted.is_empty(),
        "figures chaos drifted:\n{}",
        drifted.join("\n")
    );
}
