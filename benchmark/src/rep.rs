//! One repetition of one workload, run in a process of its own: the shard
//! count, the runner's worker count, the vision view cache and the message
//! log are process-global, so nothing may survive from one repetition to
//! the next. The child prints its result as one JSON line; the parent
//! parses it back into a [`Rep`].

use crate::adapter;
use crate::json::Json;
use crate::spec::Workload;
use crate::trace::{self, Recorder, Span};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// What the parent keeps of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The host reference's probe just before this repetition,
    /// milliseconds. The parent fills it in.
    pub ref_ms: f64,
    /// Host seconds as the clock read them: from the parent starting the
    /// child to the end of the `setup` span, and the `run` span.
    pub setup_s: f64,
    pub run_s: f64,
    /// Engine events counted, and the host seconds and allocator calls of
    /// the spans they were counted in: the `run` span, or for `paper-*` the
    /// tables that report events.
    pub run_events: u64,
    pub events_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub digest: Option<String>,
    pub counters: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

/// utime + stime of this process, seconds. Field positions are counted
/// after the parenthesised command name, which may itself hold spaces.
fn cpu_seconds() -> f64 {
    // USER_HZ has been 100 on every Linux ABI since 2.6.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks = |n: usize| -> f64 {
        after_comm
            .split_whitespace()
            .nth(n)
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of the whole line are 11 and 12 after the name.
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// `VmHWM`, the peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host nanoseconds since the Unix epoch: the one clock a parent and its
/// child can both read, so set-up can be timed from before the child
/// exists.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Set-up alone, for the parent to time again: start, build, say how long
/// it took since `spawned_at_ns`, go.
pub fn setup_only_main(workload: &Workload, seed: u64, spawned_at_ns: u128) {
    let mut rec = Recorder::new(Instant::now());
    adapter::run(workload, seed, true, &mut rec);
    let setup_s = epoch_ns().saturating_sub(spawned_at_ns) as f64 / 1e9;
    println!("{}", Json::obj([("setup_s", Json::Num(setup_s))]).render());
}

/// The child's whole life: set-up, run, read-outs, one line of JSON.
/// `spawned_at_ns` is [`epoch_ns`] as the parent read it just before
/// starting this process.
pub fn child_main(workload: &Workload, seed: u64, traced: bool, spawned_at_ns: u128) {
    let before_main_s = epoch_ns().saturating_sub(spawned_at_ns) as f64 / 1e9;
    crate::alloc::set_counting(traced);
    let mut rec = Recorder::new(Instant::now());
    let outcome = adapter::run(workload, seed, false, &mut rec);
    crate::alloc::set_counting(false);
    let spans = rec.into_spans();
    // The recorder's clock starts with `main`; the set-up span ends where
    // set-up does.
    let setup_end_s = spans
        .iter()
        .find(|s| s.name == "setup")
        .map_or(0.0, |s| s.end_ns as f64 / 1e9);
    let counted: Vec<&Span> = spans
        .iter()
        .filter(|s| match outcome.events_in.as_slice() {
            [] => s.name == "run",
            names => names.contains(&s.name),
        })
        .collect();

    let result = Json::obj([
        ("setup_s", Json::Num(before_main_s + setup_end_s)),
        ("run_s", Json::Num(trace::duration_of(&spans, "run"))),
        ("run_events", Json::Num(outcome.run_events as f64)),
        (
            "events_s",
            Json::Num(counted.iter().map(|s| s.duration_s()).sum()),
        ),
        (
            "allocs",
            Json::Num(counted.iter().map(|s| s.allocs).sum::<u64>() as f64),
        ),
        (
            "alloc_bytes",
            Json::Num(counted.iter().map(|s| s.alloc_bytes).sum::<u64>() as f64),
        ),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Json::str).collect()),
        ),
        (
            "digest",
            outcome
                .digest
                .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
        ),
        (
            "counters",
            Json::obj(outcome.counters.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", trace::spans_to_json(&spans, workload.name)),
        // Last, so they cover everything above: "at child exit".
        ("cpu_s", Json::Num(cpu_seconds())),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
    ]);
    println!("{}", result.render());
}

impl Rep {
    /// Parse the child's result line; `ref_ms` is the parent's reading of
    /// the host reference before the repetition.
    pub fn from_json(v: &Json, ref_ms: f64) -> Option<Rep> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Rep {
            ref_ms,
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            run_events: v.get("run_events")?.as_u64()?,
            events_s: num("events_s")?,
            allocs: v.get("allocs")?.as_u64()?,
            alloc_bytes: v.get("alloc_bytes")?.as_u64()?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            violations: v
                .get("violations")?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            digest: v.get("digest")?.as_str().map(str::to_string),
            counters: v
                .get("counters")?
                .as_obj()?
                .iter()
                .map(|(k, n)| n.as_f64().map(|n| (k.clone(), n)))
                .collect::<Option<_>>()?,
            spans: trace::spans_from_json(v.get("spans")?)?,
        })
    }

    pub fn events_per_s(&self) -> f64 {
        self.run_events as f64 / self.events_s
    }

    /// The value of one host metric: an end-to-end one or a demoted one.
    pub fn host_metric(&self, metric: &str) -> f64 {
        match metric {
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "host.run_s" => self.run_s,
            "host.events_per_s" => self.events_per_s(),
            "host.cpu_s" => self.cpu_s,
            other => unreachable!("{other} is not in spec::END_TO_END or spec::DEMOTED"),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_read_something_plausible() {
        assert!(
            peak_rss_mb() > 0.5,
            "a test binary is bigger than half a MB"
        );
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn a_result_line_parses_back_into_clock_seconds() {
        let line = r#"{"setup_s": 0.6, "run_s": 6.0, "run_events": 1800000, "events_s": 4.5,
            "allocs": 9, "alloc_bytes": 900,
            "attempted": 5120, "failed": 0, "violations": [], "digest": "00ff00ff00ff00ff",
            "counters": {"lte.ue.handovers": 5120},
            "spans": [{"name": "setup", "start_ns": 1, "end_ns": 2, "parent": null,
                       "allocs": 0, "alloc_bytes": 0, "workload": "metro-s1"}],
            "cpu_s": 6.9, "peak_rss_mb": 151.25}"#;
        let json = Json::parse(line).unwrap();
        // However slow the host reference read, times stay what the clock said.
        let rep = Rep::from_json(&json, 250.0).expect("complete line");
        assert_eq!(rep.host_metric("setup_s"), 0.6);
        assert_eq!(rep.host_metric("host.run_s"), 6.0);
        assert_eq!(rep.host_metric("host.events_per_s"), 400_000.0);
        assert_eq!(rep.host_metric("host.cpu_s"), 6.9);
        assert_eq!(rep.host_metric("peak_rss_mb"), 151.25);
        assert_eq!(rep.ref_ms, 250.0);
        assert_eq!(rep.digest.as_deref(), Some("00ff00ff00ff00ff"));
        assert_eq!(rep.counter("lte.ue.handovers"), 5120.0);
        assert_eq!(rep.counter("absent"), 0.0);
        assert_eq!(rep.spans.len(), 1);
        // A line with a field missing is refused, not defaulted.
        let partial = Json::parse(r#"{"run_s": 6.0}"#).unwrap();
        assert!(Rep::from_json(&partial, 250.0).is_none());
    }
}
