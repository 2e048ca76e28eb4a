//! The regional sharding benchmarks: one scenario run at every shard
//! count, proving parity and measuring scaling — `city` (8 equal regions,
//! 16 cells, 2048 UEs) and `metro` (16 heterogeneous regions, 10240 UEs),
//! two presets of [`MetroConfig`].
//!
//! Not figures of the original paper — they measure the harness. Each
//! runs the *same* configuration at `--shards` {1, 2, 4, 8} and prints
//! one table row per shard count. Every deterministic column must be
//! identical across the rows — the table itself is a parity check: a
//! sharded run that diverged from the single-threaded engine shows up as
//! a row that doesn't match. The metro's regions span a 10:1 population
//! skew (1280-UE downtown to 128-UE suburb), so its sweep also exercises
//! balanced region→shard placement (the JSON's imbalance field is the
//! claim) and the serial-first escalation of the run's many thousand
//! `run_until` calls, most of which never leave the calling thread.
//!
//! Stdout carries only deterministic columns (byte-identical across
//! `--jobs` and `--shards` values, like every other experiment).
//! Wall-clock throughput, per-shard speedup, and the event imbalance go
//! to `BENCH_<id>.json` (the runner's stderr timing report carries the
//! per-experiment throughput and per-shard splits). The sweep asserts its
//! own invariants: zero wedged sessions, a conserved exchange, identical
//! deterministic outcomes at every shard count, and, for the metro, the
//! imbalance ceiling.

use crate::report::{self, Fields, Value};
use crate::runner;
use crate::table::{fmt_secs, Table};
use acacia::metro::{MetroConfig, MetroReport, MetroScenario};

/// Shard counts swept by the city, metro and failover benchmarks.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One executed cell: the deterministic report plus its wall-clock.
pub struct MetroCell {
    /// Shard count the engine ran with.
    pub shards: usize,
    /// The scenario's deterministic outcome.
    pub report: MetroReport,
    /// Wall-clock seconds the cell took (non-deterministic; kept off
    /// stdout).
    pub wall_s: f64,
}

impl MetroCell {
    /// Engine throughput: events dispatched per wall-clock second.
    pub(crate) fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / self.wall_s.max(1e-9)
    }
}

/// Run one configuration at every shard count, serially (the shard count
/// is a process-wide engine knob, so cells must not overlap). The knob
/// in effect before the sweep — the `--shards` flag — is restored
/// afterwards so later experiments honour it.
fn sweep(id: &str, cfg: &MetroConfig) -> Vec<MetroCell> {
    let prev = acacia_simnet::default_shards();
    let mut cells = Vec::with_capacity(SHARD_COUNTS.len());
    for &shards in &SHARD_COUNTS {
        acacia_simnet::set_default_shards(Some(shards));
        let cfg = cfg.clone();
        let mut ran = runner::pmap(id, vec![(format!("shards={shards}"), cfg)], |cfg| {
            let t0 = std::time::Instant::now();
            let report = MetroScenario::build(cfg).run();
            runner::report_events(report.events_processed);
            runner::report_shard_events(&report.events_by_shard);
            MetroCell {
                shards,
                report,
                wall_s: t0.elapsed().as_secs_f64(),
            }
        });
        cells.push(ran.remove(0));
    }
    acacia_simnet::set_default_shards(Some(prev));
    cells
}

/// Ceiling on the metro's per-shard event imbalance at every multi-shard
/// row: the balanced placement's claim under the 10:1 region skew. The
/// city's 8-shard split sits too close to it to gate.
const METRO_MAX_IMBALANCE: f64 = 0.25;

/// City: shard-parity table and events/s scaling for the 2048-UE city.
pub(crate) fn city() -> Table {
    parity_table(
        "city",
        "City — sharded engine parity and scaling (8 regions, 16 cells, 2048 UEs)",
        &MetroConfig::city(),
        "throughput and speedup",
        None,
    )
}

/// Metro: shard-parity table and scaling for the 10240-UE metro.
pub(crate) fn metro() -> Table {
    parity_table(
        "metro",
        "Metro — balanced placement at scale (16 heterogeneous regions, 10240 UEs)",
        &MetroConfig::figure(),
        "speedup and imbalance",
        Some(METRO_MAX_IMBALANCE),
    )
}

/// The deterministic outcome that must not vary with the shard count.
fn fingerprint(r: &MetroReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.ues
            .iter()
            .map(|u| (u.frames_done, u.handovers, u.retransmissions))
            .collect::<Vec<_>>(),
        r.x2_msgs,
        r.s1ap_msgs,
        r.gtpc_msgs,
        r.dedicated_reanchored,
        r.events_processed,
        r.sim_elapsed,
    )
}

/// The sweep's invariants, asserted where its rows are made: a conserved
/// cross-shard exchange, zero wedged sessions, every row's deterministic
/// outcome equal to the one-shard row's, and, where a ceiling is given,
/// the per-shard imbalance under it (a one-shard row reads 0).
fn assert_invariants(id: &str, cells: &[MetroCell], max_imbalance: Option<f64>) {
    let base = fingerprint(&cells[0].report); // SHARD_COUNTS[0] == 1
    for c in cells {
        let r = &c.report;
        assert!(
            r.cross_shard_conserved(),
            "{id} shards={}: cross-shard exchange lost events ({} sent, {} received)",
            c.shards,
            r.cross_shard_sent,
            r.cross_shard_received
        );
        assert_eq!(r.wedged(), 0, "{id} shards={}: wedged sessions", c.shards);
        assert_eq!(
            fingerprint(r),
            base,
            "{id}: shards={} diverged from shards=1",
            c.shards
        );
        if let Some(max) = max_imbalance {
            assert!(
                r.shard_imbalance() <= max,
                "{id} shards={}: per-shard imbalance {:.3} above {max}",
                c.shards,
                r.shard_imbalance()
            );
        }
    }
}

/// Sweep `cfg`, check its invariants, render its parity table, and attach
/// `BENCH_<id>.json`. `to_json` names what the last note says goes to
/// stderr and the JSON.
fn parity_table(
    id: &str,
    title: &str,
    cfg: &MetroConfig,
    to_json: &str,
    max_imbalance: Option<f64>,
) -> Table {
    let cells = sweep(id, cfg);
    assert_invariants(id, &cells, max_imbalance);
    let mut t = Table::new(
        title,
        &[
            "shards",
            "frames",
            "handovers",
            "x2 msgs",
            "s1ap msgs",
            "gtp-c msgs",
            "reanchors",
            "wedged",
            "events",
            "xshard",
            "sim time",
        ],
    );
    for c in &cells {
        let r = &c.report;
        let frames_done: u64 = r.ues.iter().map(|u| u.frames_done).sum();
        t.row(vec![
            c.shards.to_string(),
            format!("{}/{}", frames_done, r.frames_requested * r.ue_count as u64),
            r.total_handovers().to_string(),
            r.x2_msgs.to_string(),
            r.s1ap_msgs.to_string(),
            r.gtpc_msgs.to_string(),
            r.dedicated_reanchored.to_string(),
            r.wedged().to_string(),
            r.events_processed.to_string(),
            r.cross_shard_received.to_string(),
            fmt_secs(r.sim_elapsed.secs_f64()),
        ]);
    }
    t.note(&format!(
        "the same {}-UE {id} runs once per shard count; every column except 'shards'",
        cfg.ue_count()
    ));
    t.note("and 'xshard' must be identical across rows (the table is a live parity check)");
    t.note(&format!(
        "and 'wedged' must be 0; {to_json} go to stderr + BENCH_{id}.json"
    ));
    report::attach(&mut t, id, &json_cells(&cells));
    t
}

/// The `BENCH_<id>.json` cells: deterministic keys, then wall-clock.
fn json_cells(cells: &[MetroCell]) -> Vec<Fields> {
    let base = cells[0].events_per_sec().max(1e-9); // SHARD_COUNTS[0] == 1
    cells
        .iter()
        .map(|c| {
            let r = &c.report;
            let frames_done: u64 = r.ues.iter().map(|u| u.frames_done).sum();
            let requested = r.frames_requested * r.ue_count as u64;
            let placement = r
                .placement
                .iter()
                .map(|&(region, shard, weight)| Value::ints([region.into(), shard.into(), weight]));
            vec![
                ("shards", c.shards.into()),
                ("ue_count", r.ue_count.into()),
                ("frames_done", frames_done.into()),
                ("frames_requested", requested.into()),
                ("handovers", r.total_handovers().into()),
                ("x2_msgs", r.x2_msgs.into()),
                ("s1ap_msgs", r.s1ap_msgs.into()),
                ("gtpc_msgs", r.gtpc_msgs.into()),
                ("dedicated_reanchored", r.dedicated_reanchored.into()),
                ("wedged", r.wedged().into()),
                ("events_processed", r.events_processed.into()),
                (
                    "events_by_shard",
                    Value::ints(r.events_by_shard.iter().copied()),
                ),
                ("placement", Value::List(placement.collect())),
                ("imbalance", Value::Fixed(r.shard_imbalance(), 4)),
                ("cross_shard_sent", r.cross_shard_sent.into()),
                ("cross_shard_received", r.cross_shard_received.into()),
                ("sim_elapsed_s", Value::Fixed(r.sim_elapsed.secs_f64(), 3)),
                ("wall_s", Value::Fixed(c.wall_s, 3)),
                ("events_per_sec", Value::Fixed(c.events_per_sec(), 0)),
                ("speedup", Value::Fixed(c.events_per_sec() / base, 3)),
            ]
        })
        .collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// Sweeps `cfg` at smoke size: the sweep's invariants must hold, the
    /// one-shard row must exchange nothing and the widest must exchange
    /// something, and the JSON must be structurally sound. Shared by the
    /// city and metro presets' tests.
    pub(in crate::experiments) fn assert_smoke_sweep(id: &str, cfg: &MetroConfig) {
        let cells = sweep(id, cfg);
        assert_eq!(cells.len(), SHARD_COUNTS.len());
        assert_invariants(id, &cells, None);
        assert_eq!(
            cells[0].report.cross_shard_sent, 0,
            "{id}: one shard, no exchange"
        );
        assert!(cells.last().unwrap().report.cross_shard_sent > 0);
        // The placement is part of each report and covers every region.
        for c in &cells {
            assert_eq!(c.report.placement.len(), cfg.regions());
            assert!(c
                .report
                .placement
                .iter()
                .all(|&(_, s, _)| (s as usize) < c.shards.max(1)));
        }
        let json = report::render(id, &json_cells(&cells));
        report::assert_well_formed(&json, id, SHARD_COUNTS.len());
    }

    #[test]
    fn smoke_sweep_is_shard_invariant_and_json_is_well_formed() {
        let cfg = MetroConfig {
            region_sizes: vec![3, 2, 2, 1],
            frame_count: 2,
            ..MetroConfig::smoke()
        };
        assert_smoke_sweep("metro", &cfg);
    }
}
