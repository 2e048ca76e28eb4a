//! Parallel deterministic experiment runner.
//!
//! Every heavy experiment in [`crate::experiments`] is a *grid* of
//! independent cells — one seeded, single-threaded simulation per
//! `(experiment id, cell label, config)` triple. This module fans those
//! cells out across a scoped worker pool and merges the results back in
//! **index order**, so the assembled tables are byte-identical to the
//! serial run no matter how many workers raced over the grid:
//!
//! * parallel **across** cells, strictly serial (and seeded) **within**
//!   a cell — no simulation ever shares state with another thread;
//! * results land in a slot per cell and are read back in submission
//!   order, so floating-point accumulation order never changes;
//! * wall-clock timings are collected per cell for the progress report
//!   but are kept out of the experiment output itself.
//!
//! The worker count is a process-wide knob ([`set_jobs`]) so the
//! `figures` binary's `--jobs N` flag reaches every experiment without
//! threading a handle through each `figXX()` signature. `--jobs 1` takes
//! a dedicated serial path that is exactly the pre-runner `for` loop.
//! The pool uses only `std::thread::scope` — no new dependencies.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker count. 0 = auto (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Wall-clock timings of every cell run since the last [`drain_timings`].
static TIMINGS: Mutex<Vec<CellTiming>> = Mutex::new(Vec::new());

/// Wall-clock record of one executed grid cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Experiment the cell belongs to (e.g. `"fig10b"`).
    pub experiment: String,
    /// Cell label within the grid (e.g. `"bg=40 ACACIA"`).
    pub cell: String,
    /// Wall-clock seconds the cell took.
    pub wall_s: f64,
    /// Engine events the cell's simulation dispatched (0 when the cell
    /// did not call [`report_events`]).
    pub events: u64,
    /// Per-shard breakdown of `events` for cells that ran a sharded
    /// engine and called [`report_shard_events`] (empty otherwise).
    pub shard_events: Vec<u64>,
}

thread_local! {
    /// Events reported by the cell currently running on this worker.
    static CELL_EVENTS: Cell<u64> = const { Cell::new(0) };
    /// Per-shard events reported by the cell currently running here.
    static CELL_SHARD_EVENTS: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Report how many engine events the current cell's simulation
/// dispatched. Call from inside the closure passed to [`pmap`]; the
/// runner attaches the count to that cell's timing record so the stderr
/// report can show throughput (events/sec) per experiment.
pub fn report_events(events: u64) {
    CELL_EVENTS.with(|c| c.set(c.get().saturating_add(events)));
}

/// Report the per-shard split of the current cell's events (the
/// simulator's `events_by_shard()`). Complements [`report_events`]; the
/// timing report prints the split so per-shard occupancy — the scaling
/// claim — is visible without re-running anything.
pub fn report_shard_events(by_shard: &[u64]) {
    CELL_SHARD_EVENTS.with(|c| {
        let mut v = c.borrow_mut();
        if v.len() < by_shard.len() {
            v.resize(by_shard.len(), 0);
        }
        for (slot, &n) in v.iter_mut().zip(by_shard) {
            *slot = slot.saturating_add(n);
        }
    });
}

/// Run one cell: time it, capture any event count it reports, record.
fn run_cell<I, T>(experiment: &str, label: String, cell: I, f: impl Fn(I) -> T) -> T {
    CELL_EVENTS.with(|c| c.set(0));
    CELL_SHARD_EVENTS.with(|c| c.borrow_mut().clear());
    let t0 = std::time::Instant::now();
    let result = f(cell);
    let events = CELL_EVENTS.with(Cell::take);
    let shard_events = CELL_SHARD_EVENTS.with(|c| std::mem::take(&mut *c.borrow_mut()));
    record(
        experiment,
        label,
        t0.elapsed().as_secs_f64(),
        events,
        shard_events,
    );
    result
}

/// Set the worker count used by [`pmap`]. `None` (or `Some(0)`) restores
/// the default: one worker per available hardware thread.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS.store(jobs.unwrap_or(0), Ordering::SeqCst);
}

/// The effective worker count: the value set via [`set_jobs`], or the
/// machine's available parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Run `f` over every cell of a labelled grid, in parallel across up to
/// [`jobs`] workers, and return the results **in cell order**.
///
/// Each cell must be self-contained: `f` receives the cell's config by
/// value and builds whatever simulation it needs inside the worker
/// thread. With `jobs() == 1` the grid runs in a plain `for` loop — the
/// exact serial path experiments used before the runner existed.
pub fn pmap<I, T, F>(experiment: &str, cells: Vec<(String, I)>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = jobs().min(cells.len().max(1));
    if workers <= 1 {
        let mut out = Vec::with_capacity(cells.len());
        for (label, cell) in cells {
            out.push(run_cell(experiment, label, cell, &f));
        }
        return out;
    }

    // Index-claiming pool: each worker grabs the next unclaimed cell,
    // runs it, and stores the result in that cell's dedicated slot.
    // Reading the slots back in index order makes the merge independent
    // of completion order.
    let n = cells.len();
    let cells: Vec<Mutex<Option<(String, I)>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (label, cell) = cells[i]
                    .lock()
                    .expect("cell lock")
                    .take()
                    .expect("cell claimed once");
                *slots[i].lock().expect("slot lock") = Some(run_cell(experiment, label, cell, &f));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every cell completed")
        })
        .collect()
}

fn record(experiment: &str, cell: String, wall_s: f64, events: u64, shard_events: Vec<u64>) {
    TIMINGS.lock().expect("timings lock").push(CellTiming {
        experiment: experiment.to_string(),
        cell,
        wall_s,
        events,
        shard_events,
    });
}

/// Drain and return every cell timing recorded since the last call.
pub fn drain_timings() -> Vec<CellTiming> {
    std::mem::take(&mut *TIMINGS.lock().expect("timings lock"))
}

/// Render the drained timings as a per-experiment report: cell count,
/// total cell seconds, engine events dispatched, throughput, and the
/// slowest cell (the lower bound on that experiment's parallel
/// wall-clock). Experiments whose cells never call [`report_events`]
/// show `-` in the event columns.
pub fn timing_report(timings: &[CellTiming]) -> crate::table::Table {
    let mut t = crate::table::Table::new(
        &format!("Cell timing report ({} workers)", jobs()),
        &[
            "experiment",
            "cells",
            "cell time (s)",
            "events",
            "events/s",
            "slowest cell",
            "(s)",
        ],
    );
    let mut order: Vec<&str> = Vec::new();
    for c in timings {
        if !order.contains(&c.experiment.as_str()) {
            order.push(&c.experiment);
        }
    }
    let (mut grand_total, mut grand_events) = (0.0, 0u64);
    for exp in order {
        let cells: Vec<&CellTiming> = timings.iter().filter(|c| c.experiment == exp).collect();
        let total: f64 = cells.iter().map(|c| c.wall_s).sum();
        let events: u64 = cells.iter().map(|c| c.events).sum();
        grand_total += total;
        grand_events += events;
        let (ev, ev_s) = if events == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (events.to_string(), format!("{:.0}", events as f64 / total))
        };
        let slowest = cells
            .iter()
            .max_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("finite timing"))
            .expect("at least one cell");
        t.row(vec![
            exp.to_string(),
            cells.len().to_string(),
            format!("{total:.2}"),
            ev,
            ev_s,
            slowest.cell.clone(),
            format!("{:.2}", slowest.wall_s),
        ]);
    }
    let throughput = if grand_events == 0 {
        String::new()
    } else {
        format!(
            "; {grand_events} events dispatched ({:.0} events/s of cell time)",
            grand_events as f64 / grand_total
        )
    };
    t.note(&format!(
        "whole run: total cell time {grand_total:.2}s{throughput}; wall-clock is bounded below by each experiment's slowest cell"
    ));
    // Per-shard splits for cells that ran a sharded engine, so occupancy
    // balance (the scaling claim) is readable straight off the report;
    // the imbalance is the same reading `BENCH_*.json` records.
    for c in timings.iter().filter(|c| c.shard_events.len() > 1) {
        let split: Vec<String> = c.shard_events.iter().map(|n| n.to_string()).collect();
        t.note(&format!(
            "{} {}: per-shard events [{}], imbalance {:.1}%",
            c.experiment,
            c.cell,
            split.join(", "),
            acacia_simnet::shard_imbalance(&c.shard_events) * 100.0
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmap_preserves_order() {
        set_jobs(Some(4));
        let cells: Vec<(String, u64)> = (0..64u64).map(|i| (format!("c{i}"), i)).collect();
        let out = pmap("test", cells, |i| i * i);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        set_jobs(None);
    }

    #[test]
    fn serial_path_matches_parallel() {
        let cells =
            |n: u64| -> Vec<(String, u64)> { (0..n).map(|i| (format!("c{i}"), i)).collect() };
        set_jobs(Some(1));
        let serial = pmap("test", cells(33), |i| i.wrapping_mul(0x9e37_79b9));
        set_jobs(Some(8));
        let parallel = pmap("test", cells(33), |i| i.wrapping_mul(0x9e37_79b9));
        assert_eq!(serial, parallel);
        set_jobs(None);
    }

    #[test]
    fn timings_are_recorded_and_drained() {
        set_jobs(Some(2));
        let cells = (1u8..=3).map(|x| (format!("#{x}"), x)).collect();
        let _ = pmap("timed", cells, |x| x);
        // Other tests share the global buffer; only count our experiment.
        let timings: Vec<CellTiming> = drain_timings()
            .into_iter()
            .filter(|c| c.experiment == "timed")
            .collect();
        set_jobs(None);
        assert_eq!(timings.len(), 3);
        let report = timing_report(&timings);
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn shard_splits_ride_with_their_cell_and_reach_the_report() {
        set_jobs(Some(1));
        let _ = pmap("shardrep", vec![("shards=2".to_string(), ())], |()| {
            report_events(30);
            report_shard_events(&[10, 20]);
        });
        let timings: Vec<CellTiming> = drain_timings()
            .into_iter()
            .filter(|c| c.experiment == "shardrep")
            .collect();
        set_jobs(None);
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].events, 30);
        assert_eq!(timings[0].shard_events, vec![10, 20]);
        let rendered = timing_report(&timings).render();
        assert!(rendered.contains("per-shard events [10, 20]"), "{rendered}");
        // max/mean − 1 over busy shards: 20 / 15 − 1.
        assert!(rendered.contains("imbalance 33.3%"), "{rendered}");
        assert!(rendered.contains("whole run"), "{rendered}");
    }

    #[test]
    fn events_ride_with_their_cell() {
        set_jobs(Some(2));
        let cells = vec![("a".to_string(), 10u64), ("b".to_string(), 20)];
        let _ = pmap("evt", cells, |n| {
            report_events(n);
            n
        });
        let mut by_cell: Vec<(String, u64)> = drain_timings()
            .into_iter()
            .filter(|c| c.experiment == "evt")
            .map(|c| (c.cell, c.events))
            .collect();
        set_jobs(None);
        by_cell.sort();
        assert_eq!(by_cell, vec![("a".to_string(), 10), ("b".to_string(), 20)]);
    }
}
