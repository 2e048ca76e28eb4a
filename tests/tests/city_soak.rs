//! City soak: the 8-shard city (`MetroConfig::city_smoke`) under a 30%
//! control-plane drop storm.
//!
//! The chaos suite established that one walking UE survives heavy
//! control-plane loss; this soak asks the same of the sharded city —
//! 8 regions on 8 shards, every region's S1AP/X2 signalling crossing
//! shard boundaries to the shared core while 30% of it is dropped —
//! across five seeds. Two invariants:
//!
//! * **zero wedged UEs** — the chaos sweep's definition: no UE ends the
//!   run outside a legal state (`Connected`/`Idle`) and no handover
//!   procedure is left open. A sustained 30% drop storm *can* cost a
//!   session frames (the chaos notes document the same at its 50%
//!   cell — the restore chain is itself signalling), so lost frames are
//!   reported honestly rather than asserted away; every session must
//!   still make forward progress (at least one frame end-to-end);
//! * **zero cross-shard event loss** — the engine's conservation
//!   counters (arrivals handed to the exchange vs arrivals accepted
//!   from it) must balance exactly, so no in-flight message can vanish
//!   at a shard boundary even when the fault plan is dropping its
//!   payload siblings.
//!
//! Ignored by default (five multi-second runs); CI runs it with
//! `--release -- --ignored`.

use acacia::metro::{MetroConfig, MetroScenario};
use acacia_simnet::set_default_shards;

/// Seeds swept by the soak, disjoint from the fixed-seed figures (42).
const SOAK_SEEDS: [u64; 5] = [41, 42, 43, 44, 45];

/// Control-plane drop probability, matching the chaos suite's heaviest
/// sustained sweep point.
const DROP_RATE: f64 = 0.30;

#[test]
#[ignore = "five multi-second sharded city runs; run with --release -- --ignored"]
fn sharded_city_survives_control_plane_drop_storm() {
    for seed in SOAK_SEEDS {
        let cfg = MetroConfig {
            seed,
            ctrl_drop_rate: DROP_RATE,
            fault_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..MetroConfig::city_smoke()
        };
        set_default_shards(Some(8));
        let report = MetroScenario::build(cfg).run();
        set_default_shards(None);

        assert_eq!(report.events_by_shard.len(), 8, "city ran on 8 shards");
        assert!(
            report.cross_shard_sent > 0,
            "seed {seed}: regions must actually exchange events with the core shard"
        );
        assert!(
            report.cross_shard_conserved(),
            "seed {seed}: cross-shard exchange lost events ({} sent, {} received)",
            report.cross_shard_sent,
            report.cross_shard_received
        );
        assert_eq!(
            report.protocol_wedged(),
            0,
            "seed {seed}: {} UEs in an illegal end state, {} open procedures \
             under {DROP_RATE} control-plane drop",
            report.stuck_ues,
            report.outstanding_procedures
        );
        assert!(
            report.ues.iter().all(|u| u.frames_done >= 1),
            "seed {seed}: a session made no forward progress: {:?}",
            report
                .ues
                .iter()
                .enumerate()
                .filter(|(_, u)| u.frames_done == 0)
                .collect::<Vec<_>>()
        );
        let frames_done: u64 = report.ues.iter().map(|u| u.frames_done).sum();
        eprintln!(
            "city soak seed {seed}: {} UEs, {}/{} frames, {} handovers, {} reanchors, \
             {} events, {} cross-shard, 0 protocol-wedged",
            report.ue_count,
            frames_done,
            report.frames_requested * report.ue_count as u64,
            report.total_handovers(),
            report.dedicated_reanchored,
            report.events_processed,
            report.cross_shard_received
        );
    }
}
