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
//! claim), adaptive per-pair lookahead windows, and pool reuse across
//! the run's many thousand `run_until` calls.
//!
//! Stdout carries only deterministic columns (byte-identical across
//! `--jobs` and `--shards` values, like every other experiment).
//! Wall-clock throughput, per-shard speedup, and the event imbalance go
//! to stderr and to `BENCH_<id>.json` at the workspace root, which CI
//! parses for its imbalance ceiling and events/s floor.

use crate::runner;
use crate::table::{fmt_secs, Table};
use acacia::metro::{MetroConfig, MetroReport, MetroScenario};

/// Shard counts swept by the benchmark.
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
    pub fn events_per_sec(&self) -> f64 {
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

/// City: shard-parity table and events/s scaling for the 2048-UE city.
pub fn city() -> Table {
    parity_table(
        "city",
        "City — sharded engine parity and scaling (8 regions, 16 cells, 2048 UEs)",
        &MetroConfig::city(),
        "throughput and speedup",
    )
}

/// Metro: shard-parity table and scaling for the 10240-UE metro.
pub fn metro() -> Table {
    parity_table(
        "metro",
        "Metro — balanced placement at scale (16 heterogeneous regions, 10240 UEs)",
        &MetroConfig::figure(),
        "speedup and imbalance",
    )
}

/// Sweep `cfg`, render its parity table, and write `BENCH_<id>.json`.
/// `to_json` names what the last note says goes to stderr and the JSON.
fn parity_table(id: &str, title: &str, cfg: &MetroConfig, to_json: &str) -> Table {
    let cells = sweep(id, cfg);
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
        assert!(
            r.cross_shard_conserved(),
            "shards={}: cross-shard exchange lost events ({} sent, {} received)",
            c.shards,
            r.cross_shard_sent,
            r.cross_shard_received
        );
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

    // Wall-clock scaling and placement balance are machine/shard-count
    // dependent: stderr + JSON only, so stdout stays byte-identical
    // across runs, --jobs, and --shards.
    let base = single_shard_rate(&cells);
    for c in &cells {
        eprintln!(
            "{id} shards={}: {} events in {:.2}s wall ({:.0} events/s, {:.2}x single-thread, imbalance {:.1}%)",
            c.shards,
            c.report.events_processed,
            c.wall_s,
            c.events_per_sec(),
            c.events_per_sec() / base.max(1e-9),
            c.report.shard_imbalance() * 100.0
        );
    }
    runner::write_bench_json(&format!("BENCH_{id}.json"), &render_json(id, &cells));
    t
}

/// Events/s of the one-shard cell, the speedup baseline.
fn single_shard_rate(cells: &[MetroCell]) -> f64 {
    cells
        .iter()
        .find(|c| c.shards == 1)
        .map(|c| c.events_per_sec())
        .unwrap_or(0.0)
}

/// Hand-rolled JSON (the bench crate deliberately has no serde): the
/// experiment id is a fixed identifier and every value is an integer, a
/// float formatted with `{:.N}`, or an integer array, so no string
/// escaping is needed.
fn render_json(id: &str, cells: &[MetroCell]) -> String {
    let base = single_shard_rate(cells);
    let mut out = format!("{{\n  \"experiment\": \"{id}\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        let frames_done: u64 = r.ues.iter().map(|u| u.frames_done).sum();
        let by_shard: Vec<String> = r.events_by_shard.iter().map(|n| n.to_string()).collect();
        let placement: Vec<String> = r
            .placement
            .iter()
            .map(|&(region, shard, weight)| format!("[{region}, {shard}, {weight}]"))
            .collect();
        out.push_str(&format!(
            concat!(
                "    {{\"shards\": {}, \"ue_count\": {}, \"frames_done\": {}, ",
                "\"frames_requested\": {}, \"handovers\": {}, \"x2_msgs\": {}, ",
                "\"s1ap_msgs\": {}, \"gtpc_msgs\": {}, \"dedicated_reanchored\": {}, ",
                "\"wedged\": {}, \"events_processed\": {}, \"events_by_shard\": [{}], ",
                "\"placement\": [{}], \"imbalance\": {:.4}, ",
                "\"cross_shard_sent\": {}, \"cross_shard_received\": {}, ",
                "\"sim_elapsed_s\": {:.3}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}, ",
                "\"speedup\": {:.3}}}{}\n"
            ),
            c.shards,
            r.ue_count,
            frames_done,
            r.frames_requested * r.ue_count as u64,
            r.total_handovers(),
            r.x2_msgs,
            r.s1ap_msgs,
            r.gtpc_msgs,
            r.dedicated_reanchored,
            r.wedged(),
            r.events_processed,
            by_shard.join(", "),
            placement.join(", "),
            r.shard_imbalance(),
            r.cross_shard_sent,
            r.cross_shard_received,
            r.sim_elapsed.secs_f64(),
            c.wall_s,
            c.events_per_sec(),
            c.events_per_sec() / base.max(1e-9),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// Sweeps `cfg` at smoke size: the deterministic report must be
    /// identical at every shard count, and the JSON must be structurally
    /// sound. Shared by the city and metro presets' tests.
    pub(in crate::experiments) fn assert_smoke_sweep(id: &str, cfg: &MetroConfig) {
        let cells = sweep(id, cfg);
        assert_eq!(cells.len(), SHARD_COUNTS.len());
        let fingerprint = |c: &MetroCell| {
            let r = &c.report;
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
        };
        let base = fingerprint(&cells[0]);
        for c in &cells[1..] {
            assert_eq!(
                fingerprint(c),
                base,
                "{id}: shards={} diverged from shards=1",
                c.shards
            );
            assert!(c.report.cross_shard_conserved());
        }
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

        let json = render_json(id, &cells);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains(&format!("\"experiment\": \"{id}\"")));
        assert_eq!(json.matches("\"shards\"").count(), SHARD_COUNTS.len());
        assert!(json.contains("\"wedged\": 0"));
        assert!(json.contains("\"imbalance\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
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
