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
//! city (`MetroConfig::city_smoke` with a `MetroConfig::crash`: 8 MEC
//! regions, 32 sessions), the restarting ones sweeping the outage
//! duration, through the city and metro sweep: *each* configuration runs
//! at `--shards` {1, 2, 4, 8}, and every deterministic outcome, the
//! failover audit included, must be identical across a configuration's
//! four rows, so the table doubles as a live parity check of the
//! node-fault engine under sharding.
//!
//! Headline invariants, asserted per cell: zero wedged sessions, every
//! session in exactly one outcome bucket, the GW-C's dedicated-bearer
//! activation counter equal to the bearers actually present, and a
//! conserved cross-shard exchange. Wall-clock goes to
//! `BENCH_failover.json`; stdout stays byte-identical across `--jobs`
//! and `--shards`.

use super::metro::{assert_invariants, frames_cell, sweep, MetroCell};
use crate::report::{self, Fields, Value};
use crate::table::Table;
use acacia::failover::{Crash, FailoverAudit, FailoverMode};
use acacia::metro::MetroConfig;
use acacia_simnet::time::Duration;

/// The crash schedule matrix, mode × outage duration, each over the
/// smoke city.
fn configs() -> Vec<(String, MetroConfig)> {
    [
        (FailoverMode::CrashStop, Duration::ZERO),
        (FailoverMode::CrashRestart, Duration::from_millis(500)),
        (FailoverMode::CrashRestart, Duration::from_secs(1)),
        (FailoverMode::CrashRestart, Duration::from_secs(2)),
        (FailoverMode::RegionOutage, Duration::from_secs(1)),
    ]
    .into_iter()
    .map(|(mode, outage)| {
        let cfg = MetroConfig {
            crash: Some(Crash { mode, outage }),
            ..MetroConfig::city_smoke()
        };
        (format!("{} outage={outage}", mode.label()), cfg)
    })
    .collect()
}

/// A swept cell's failover audit.
fn audit(c: &MetroCell) -> &FailoverAudit {
    c.report
        .failover
        .as_ref()
        .expect("every failover cell crashes")
}

/// Failover: crash schedules, outage sweep, outcome audit, shard parity.
pub(crate) fn failover() -> Table {
    let cells = sweep("failover", &configs());
    assert_invariants("failover", &cells, None);
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
    for c in &cells {
        let (r, a) = (&c.report, audit(c));
        t.row(vec![
            a.crash.mode.label().to_string(),
            format!("{}", a.crash.outage),
            c.shards.to_string(),
            frames_cell(r),
            a.failovers.to_string(),
            a.outcomes.stayed.to_string(),
            a.outcomes.neighbor_mec.to_string(),
            a.outcomes.cloud_fallback.to_string(),
            a.outcomes.restart_rebind.to_string(),
            format!("{}/{}", a.mrs_evictions, a.mrs_restores),
            a.node_restarts.to_string(),
            format!("{:.3}s", a.interruption_percentile(95.0)),
            r.wedged().to_string(),
            r.events_processed.to_string(),
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
fn json_cells(cells: &[MetroCell]) -> Vec<Fields> {
    cells
        .iter()
        .map(|c| {
            let (r, a) = (&c.report, audit(c));
            let requested = r.frames_requested * r.ue_count as u64;
            let outage_ms = (a.crash.outage.secs_f64() * 1000.0).round() as u64;
            let interruption = |p: f64| Value::Fixed(a.interruption_percentile(p), 3);
            vec![
                ("mode", a.crash.mode.label().into()),
                ("outage_ms", outage_ms.into()),
                ("shards", c.shards.into()),
                ("frames_done", r.frames_done().into()),
                ("frames_requested", requested.into()),
                ("failovers", a.failovers.into()),
                ("stayed", a.outcomes.stayed.into()),
                ("neighbor_mec", a.outcomes.neighbor_mec.into()),
                ("cloud_fallback", a.outcomes.cloud_fallback.into()),
                ("restart_rebind", a.outcomes.restart_rebind.into()),
                ("mrs_evictions", a.mrs_evictions.into()),
                ("mrs_restores", a.mrs_restores.into()),
                ("node_restarts", a.node_restarts.into()),
                ("gwu_flush_released", a.gwu_flush_released.into()),
                ("interruption_p50_s", interruption(50.0)),
                ("interruption_p95_s", interruption(95.0)),
                ("interruption_max_s", interruption(100.0)),
                ("wedged", r.wedged().into()),
                ("events_processed", r.events_processed.into()),
                ("wall_s", Value::Fixed(c.wall_s, 3)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::metro::SHARD_COUNTS;

    /// One crash-restart configuration swept across every shard count:
    /// identical deterministic outcome, zero wedged sessions, conserved
    /// recovery counters, well-formed JSON.
    #[test]
    fn crash_restart_sweep_is_shard_invariant() {
        let _engine = crate::engine_lock();
        let cfg = MetroConfig {
            region_sizes: vec![2, 2],
            frame_count: 2,
            crash: Some(Crash {
                mode: FailoverMode::CrashRestart,
                outage: Duration::from_secs(1),
            }),
            ..MetroConfig::city_smoke()
        };
        let cells = sweep("failover", &[("crash-restart".to_string(), cfg)]);
        assert_invariants("failover", &cells, None);
        assert_eq!(audit(&cells[0]).node_restarts, 1);
        assert_eq!(audit(&cells[0]).mrs_restores, 1);

        let json = report::render("failover", &json_cells(&cells));
        report::assert_well_formed(&json, "failover", SHARD_COUNTS.len());
    }
}
