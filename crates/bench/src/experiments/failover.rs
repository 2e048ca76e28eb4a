//! The failover ladder experiment: crash schedules over the city and an
//! audit of where every session landed.
//!
//! Not a figure of the original paper — it exercises the robustness
//! ladder the paper's architecture implies but never measures: when a
//! MEC site (or a whole region, gateway included) dies mid-stream, the
//! MRS lease audit must evict it, streaming clients must re-resolve and
//! re-anchor (neighbor MEC over the default bearer, or the cloud
//! fallback), and — when the site comes back — the restored lease must
//! let later rechecks re-bind. Three crash shapes run over the smoke
//! city (`MetroConfig::city_smoke`: 8 MEC regions, 32 sessions), the
//! restarting ones sweeping the outage duration, and *each*
//! configuration runs at `--shards`
//! {1, 2, 4, 8}: every deterministic column must be identical across a
//! configuration's four rows, so the table doubles as a live parity
//! check of the node-fault engine under sharding.
//!
//! Headline invariants, asserted per cell: zero wedged sessions, every
//! session in exactly one outcome bucket, the GW-C's dedicated-bearer
//! activation counter equal to the bearers actually present, and a
//! conserved cross-shard exchange. Wall-clock goes to
//! `BENCH_failover.json`; stdout stays byte-identical across `--jobs`
//! and `--shards`.

use super::metro::SHARD_COUNTS;
use crate::report::{self, Fields, Value};
use crate::runner;
use crate::table::Table;
use acacia::failover::{FailoverConfig, FailoverMode, FailoverReport, FailoverScenario};
use acacia_simnet::time::Duration;

/// The crash schedule matrix: mode × outage duration.
fn configs() -> Vec<(FailoverMode, Duration)> {
    vec![
        (FailoverMode::CrashStop, Duration::ZERO),
        (FailoverMode::CrashRestart, Duration::from_millis(500)),
        (FailoverMode::CrashRestart, Duration::from_secs(1)),
        (FailoverMode::CrashRestart, Duration::from_secs(2)),
        (FailoverMode::RegionOutage, Duration::from_secs(1)),
    ]
}

/// One executed cell: a crash configuration at one shard count.
pub struct FailoverCell {
    /// Crash shape.
    pub mode: FailoverMode,
    /// Outage duration (zero for crash-stop).
    pub outage: Duration,
    /// Shard count the engine ran with.
    pub shards: usize,
    /// The deterministic outcome.
    pub report: FailoverReport,
    /// Wall-clock seconds (non-deterministic; kept off stdout).
    pub wall_s: f64,
}

/// The deterministic fingerprint that must not vary with the shard
/// count.
fn fingerprint(r: &FailoverReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.metro
            .ues
            .iter()
            .map(|u| (u.frames_done, u.handovers, u.retransmissions))
            .collect::<Vec<_>>(),
        r.outcomes,
        r.failovers,
        r.interruptions_s.clone(),
        r.node_restarts,
        r.mrs_evictions,
        r.mrs_restores,
        r.gwu_flush_released,
        r.metro.events_processed,
        r.metro.sim_elapsed,
    )
}

/// Run every crash configuration at every shard count. The shard knob is
/// process-wide, so shard counts run serially; within one shard count
/// the configurations fan out across `--jobs`. The knob in effect
/// before the sweep is restored afterwards.
fn sweep() -> Vec<FailoverCell> {
    let prev = acacia_simnet::default_shards();
    let mut cells = Vec::new();
    for &shards in &SHARD_COUNTS {
        acacia_simnet::set_default_shards(Some(shards));
        let jobs: Vec<(String, (FailoverMode, Duration))> = configs()
            .into_iter()
            .map(|(mode, outage)| {
                (
                    format!("{} outage={} shards={shards}", mode.label(), outage),
                    (mode, outage),
                )
            })
            .collect();
        let ran = runner::pmap("failover", jobs, move |(mode, outage)| {
            let cfg = FailoverConfig::smoke(mode, outage);
            let t0 = std::time::Instant::now();
            let report = FailoverScenario::run(cfg);
            runner::report_events(report.metro.events_processed);
            runner::report_shard_events(&report.metro.events_by_shard);
            FailoverCell {
                mode,
                outage,
                shards,
                report,
                wall_s: t0.elapsed().as_secs_f64(),
            }
        });
        cells.extend(ran);
    }
    acacia_simnet::set_default_shards(Some(prev));
    cells
}

/// Failover: crash schedules, outage sweep, outcome audit, shard parity.
pub(crate) fn failover() -> Table {
    let cells = sweep();
    let mut t = Table::new(
        "Failover — MEC/GW crash schedules over the city (8 regions, 32 sessions)",
        &[
            "mode",
            "outage",
            "shards",
            "frames",
            "failovers",
            "stayed",
            "neigh",
            "cloud",
            "rebind",
            "evict/rest",
            "restarts",
            "p95 gap",
            "wedged",
            "events",
        ],
    );
    // Shard parity: each configuration's deterministic outcome must be
    // identical at every shard count.
    for (mode, outage) in configs() {
        let group: Vec<&FailoverCell> = cells
            .iter()
            .filter(|c| c.mode == mode && c.outage == outage)
            .collect();
        assert_eq!(group.len(), SHARD_COUNTS.len());
        let base = fingerprint(&group[0].report);
        for c in &group[1..] {
            assert_eq!(
                fingerprint(&c.report),
                base,
                "{} outage={}: shards={} diverged from shards={}",
                mode.label(),
                outage,
                c.shards,
                group[0].shards
            );
        }
    }
    for c in &cells {
        let r = &c.report;
        assert_eq!(
            r.metro.wedged(),
            0,
            "{} outage={} shards={}: wedged sessions",
            c.mode.label(),
            c.outage,
            c.shards
        );
        assert_eq!(r.metro.protocol_wedged(), 0);
        assert!(
            r.conserved(),
            "{} outage={} shards={}: recovery counters not conserved",
            c.mode.label(),
            c.outage,
            c.shards
        );
        let frames_done: u64 = r.metro.ues.iter().map(|u| u.frames_done).sum();
        t.row(vec![
            c.mode.label().to_string(),
            format!("{}", c.outage),
            c.shards.to_string(),
            format!(
                "{}/{}",
                frames_done,
                r.metro.frames_requested * r.metro.ue_count as u64
            ),
            r.failovers.to_string(),
            r.outcomes.stayed.to_string(),
            r.outcomes.neighbor_mec.to_string(),
            r.outcomes.cloud_fallback.to_string(),
            r.outcomes.restart_rebind.to_string(),
            format!("{}/{}", r.mrs_evictions, r.mrs_restores),
            r.node_restarts.to_string(),
            format!("{:.3}s", r.interruption_percentile(95.0)),
            r.metro.wedged().to_string(),
            r.metro.events_processed.to_string(),
        ]);
    }
    t.note("each crash configuration runs at --shards {1, 2, 4, 8}: its four rows must be");
    t.note("identical except the 'shards' column (live parity check of the fault engine);");
    t.note("'wedged' must be 0 everywhere and stayed+neigh+cloud+rebind must cover all 32");
    t.note("sessions; 'p95 gap' is the service interruption at each failover adoption");

    report::attach(&mut t, "failover", &json_cells(&cells));
    t
}

/// The `BENCH_failover.json` cells: deterministic keys, then wall-clock.
fn json_cells(cells: &[FailoverCell]) -> Vec<Fields> {
    cells
        .iter()
        .map(|c| {
            let r = &c.report;
            let frames_done: u64 = r.metro.ues.iter().map(|u| u.frames_done).sum();
            let requested = r.metro.frames_requested * r.metro.ue_count as u64;
            let outage_ms = (c.outage.secs_f64() * 1000.0).round() as u64;
            let interruption = |p: f64| Value::Fixed(r.interruption_percentile(p), 3);
            vec![
                ("mode", c.mode.label().into()),
                ("outage_ms", outage_ms.into()),
                ("shards", c.shards.into()),
                ("frames_done", frames_done.into()),
                ("frames_requested", requested.into()),
                ("failovers", r.failovers.into()),
                ("stayed", r.outcomes.stayed.into()),
                ("neighbor_mec", r.outcomes.neighbor_mec.into()),
                ("cloud_fallback", r.outcomes.cloud_fallback.into()),
                ("restart_rebind", r.outcomes.restart_rebind.into()),
                ("mrs_evictions", r.mrs_evictions.into()),
                ("mrs_restores", r.mrs_restores.into()),
                ("node_restarts", r.node_restarts.into()),
                ("gwu_flush_released", r.gwu_flush_released.into()),
                ("interruption_p50_s", interruption(50.0)),
                ("interruption_p95_s", interruption(95.0)),
                ("interruption_max_s", interruption(100.0)),
                ("wedged", r.metro.wedged().into()),
                ("events_processed", r.metro.events_processed.into()),
                ("wall_s", Value::Fixed(c.wall_s, 3)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One crash-restart configuration swept across every shard count:
    /// identical deterministic outcome, zero wedged sessions, conserved
    /// recovery counters, well-formed JSON.
    #[test]
    fn crash_restart_sweep_is_shard_invariant() {
        let prev = acacia_simnet::default_shards();
        let mut cells = Vec::new();
        for &shards in &SHARD_COUNTS {
            acacia_simnet::set_default_shards(Some(shards));
            let mut cfg = FailoverConfig::smoke(FailoverMode::CrashRestart, Duration::from_secs(1));
            cfg.metro.region_sizes = vec![2, 2];
            cfg.metro.frame_count = 2;
            let report = FailoverScenario::run(cfg);
            cells.push(FailoverCell {
                mode: FailoverMode::CrashRestart,
                outage: Duration::from_secs(1),
                shards,
                report,
                wall_s: 0.0,
            });
        }
        acacia_simnet::set_default_shards(Some(prev));

        let base = fingerprint(&cells[0].report);
        for c in &cells[1..] {
            assert_eq!(
                fingerprint(&c.report),
                base,
                "shards={} diverged from shards=1",
                c.shards
            );
        }
        for c in &cells {
            assert_eq!(c.report.metro.wedged(), 0);
            assert!(c.report.conserved(), "shards={}: {:?}", c.shards, c.report);
        }
        assert_eq!(cells[0].report.node_restarts, 1);
        assert_eq!(cells[0].report.mrs_restores, 1);

        let json = report::render("failover", &json_cells(&cells));
        report::assert_well_formed(&json, "failover", SHARD_COUNTS.len());
    }
}
