//! The parent side: repetitions as child processes, the noise guard, the
//! correctness gate across repetitions, and the report.

use crate::compare::Verdict;
use crate::hostref::HostRef;
use crate::json::Json;
use crate::rep::Rep;
use crate::spec::{self, Better, Metric, Workload, DEMOTED, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A repetition whose host reference reads this much slower than the best
/// seen in the session is discarded, at most `MAX_RETRIES` per workload.
const NOISE_TOLERANCE: f64 = 1.10;
const MAX_RETRIES: u32 = 2;

/// What the counting allocator and the span file may add to `host.run_s`.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// Budget and cap for timing a workload's set-up again on its own.
const SETUP_AGAIN_S: f64 = 2.0;
const SETUP_AGAIN_MOST: u32 = 20;

/// Seed at which `expected.json` pins the digests.
const PINNED_SEED: u64 = 42;

pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Fixed repetition count, or `None` to derive it from `seconds`.
    pub reps: Option<u32>,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub out: PathBuf,
}

impl Options {
    /// Repetitions of `w`: as asked, else as many nominal repetitions as
    /// fit in `--seconds`, else 3.
    pub fn reps_for(&self, w: &Workload) -> u32 {
        match (self.reps, self.seconds) {
            (Some(n), _) => n,
            (None, Some(s)) => ((s / w.nominal_rep_s).round() as u32).max(1),
            (None, None) => 3,
        }
    }
}

/// Everything measured for one workload in this session.
pub struct WorkloadRun {
    pub workload: &'static Workload,
    /// Untraced repetitions that passed the noise guard.
    pub reps: Vec<Rep>,
    /// `setup_s` of the set-up-only children (see `setup_again`).
    pub setups_again: Vec<f64>,
    pub noisy_reps: u32,
    pub traced: Option<Rep>,
    /// The kernels that ride on this workload's traced pass.
    pub kernels: BTreeMap<&'static str, f64>,
    pub violations: Vec<String>,
}

impl WorkloadRun {
    pub fn attempted(&self) -> u64 {
        self.all_reps().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.all_reps().map(|r| r.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed() == 0 && self.attempted() > 0
    }

    fn all_reps(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Every reading of one host metric (`Rep::host_metric`): one per
    /// untraced repetition, and for `setup_s` the set-up-only children too.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let extra: &[f64] = if metric == "setup_s" {
            &self.setups_again
        } else {
            &[]
        };
        self.reps
            .iter()
            .map(|r| r.host_metric(metric))
            .chain(extra.iter().copied())
            .collect()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(&self.values(metric))
    }

    /// Every host metric — the end-to-end ones with their bound on this
    /// workload, then the demoted ones, which have none — with the summary
    /// of its readings and the value reported for it.
    pub fn host_metrics(&self) -> impl Iterator<Item = HostMetric> + '_ {
        let bounded = END_TO_END
            .iter()
            .map(|b| (&b.metric, Some(spec::bound(b, self.workload.name))));
        let demoted = DEMOTED.iter().map(|d| (&d.metric, None));
        bounded.chain(demoted).map(|(metric, bound)| {
            let summary = self.summary(metric.name).expect("at least one repetition");
            HostMetric {
                metric,
                bound,
                summary,
                reported: best(&summary, metric.better),
            }
        })
    }
}

/// One host metric of one workload in this session.
pub struct HostMetric {
    pub metric: &'static Metric,
    /// `None` for a demoted metric.
    pub bound: Option<f64>,
    pub summary: Summary,
    pub reported: f64,
}

impl HostMetric {
    fn to_json(&self, run: &WorkloadRun) -> (&'static str, Json) {
        let values = run.values(self.metric.name).into_iter().map(Json::Num);
        (
            self.metric.name,
            Json::obj([
                ("value", Json::Num(self.reported)),
                ("unit", Json::str(self.metric.unit)),
                ("values", Json::Arr(values.collect())),
            ]),
        )
    }
}

/// The value reported for a host metric: the best repetition,
/// because noise on a shared host only ever adds time.
pub fn best(summary: &Summary, better: Better) -> f64 {
    match better {
        Better::Lower => summary.min,
        Better::Higher => summary.max,
    }
}

/// Run one repetition (`--traced` or not) or only its set-up
/// (`--setup-only`) in a fresh process and hand back its result line.
fn spawn_child(workload: &Workload, seed: u64, mode: Option<&str>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload.name, "--seed", &seed.to_string()]);
    cmd.args(mode);
    // Last, so that as little as possible of the parent's own work falls
    // between reading the clock and the child existing.
    cmd.args(["--spawned-at-ns", &crate::rep::epoch_ns().to_string()]);
    // `output` waits for the child, so none outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a repetition of {}: {e}", workload.name))?;
    if !out.status.success() {
        return Err(format!(
            "a repetition of {} ended with {}",
            workload.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name))
}

/// One repetition, with the host reference probed just before it. The
/// probe is the repetition's `host.ref_ms`; one that reads noisy condemns
/// the repetition, which is then discarded before it costs its seconds and
/// tried again from a fresh probe. The reference never runs while the
/// repetition does: it would share the memory bus with the code under test.
fn measured_rep(
    run: &mut WorkloadRun,
    seed: u64,
    traced: bool,
    host: &mut HostRef,
) -> Result<Rep, String> {
    let mut ref_ms = host.probe();
    while ref_ms > host.best_probe_ms() * NOISE_TOLERANCE && run.noisy_reps < MAX_RETRIES {
        run.noisy_reps += 1;
        eprintln!(
            "# {}: ref {ref_ms:.1} ms, host is noisy, repetition discarded",
            run.workload.name
        );
        ref_ms = host.probe();
    }
    let line = spawn_child(run.workload, seed, traced.then_some("--traced"))?;
    Rep::from_json(&line, ref_ms)
        .ok_or_else(|| format!("{}: result line is incomplete", run.workload.name))
}

/// Set-up alone, again, in as many fresh children as fit in
/// `SETUP_AGAIN_S` going by what the first repetition's took, at most
/// `SETUP_AGAIN_MOST`: a set-up of milliseconds is read twenty times over,
/// one of several seconds only by its repetitions.
fn setup_again(run: &mut WorkloadRun, seed: u64) -> Result<(), String> {
    let first = run.reps[0].setup_s;
    let times = ((SETUP_AGAIN_S / first) as u32).min(SETUP_AGAIN_MOST);
    for _ in 0..times {
        let setup_s = spawn_child(run.workload, seed, Some("--setup-only"))?
            .get("setup_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: set-up line is incomplete", run.workload.name))?;
        run.setups_again.push(setup_s);
    }
    Ok(())
}

pub struct Session {
    pub host: Json,
    pub seed: u64,
    pub runs: Vec<WorkloadRun>,
}

/// Run the whole session: untraced repetitions round-robin across the
/// workloads, then (with `--trace`) one traced repetition of each, followed
/// by the kernels of the layers that workload is predicted to run in.
pub fn run(opts: &Options) -> Result<Session, String> {
    let description = host_description(opts);
    println!("# host {}", description.render());
    let mut host = HostRef::new();
    let mut runs: Vec<WorkloadRun> = opts
        .workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            reps: Vec::new(),
            setups_again: Vec::new(),
            noisy_reps: 0,
            traced: None,
            kernels: BTreeMap::new(),
            violations: Vec::new(),
        })
        .collect();

    let most = runs
        .iter()
        .map(|r| opts.reps_for(r.workload))
        .max()
        .unwrap_or(0);
    for round in 0..most {
        for run in &mut runs {
            if round >= opts.reps_for(run.workload) {
                continue;
            }
            let rep = measured_rep(run, opts.seed, false, &mut host)?;
            eprintln!(
                "# {} rep {}: setup {:.3} s, run {:.3} s, ref {:.1} ms",
                run.workload.name,
                round + 1,
                rep.setup_s,
                rep.run_s,
                rep.ref_ms
            );
            run.reps.push(rep);
            if round == 0 {
                setup_again(run, opts.seed)?;
            }
        }
    }

    if opts.trace {
        for run in &mut runs {
            let rep = measured_rep(run, opts.seed, true, &mut host)?;
            eprintln!("# {} traced: run {:.3} s", run.workload.name, rep.run_s);
            run.traced = Some(rep);
            crate::adapter::kernels(run.workload.name, &mut |name, value| {
                eprintln!("# kernel {name} = {value:.1}");
                run.kernels.insert(name, value);
            });
        }
    }

    gate(&mut runs, opts.seed);
    Ok(Session {
        host: description,
        seed: opts.seed,
        runs,
    })
}

fn host_description(opts: &Options) -> Json {
    let tool = |cmd: &str, args: &[&str]| -> String {
        Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("rustc", Json::Str(tool("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        (
            "workloads",
            Json::Arr(
                opts.workloads
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("shards", Json::Num(w.shards as f64)),
                            ("reps", Json::Num(f64::from(opts.reps_for(w)))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The correctness gate across repetitions and workloads. What one
/// repetition can check on its own it has already put in `violations`.
fn gate(runs: &mut [WorkloadRun], seed: u64) {
    let expected = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    for run in runs.iter_mut() {
        let name = run.workload.name;
        let reps: Vec<&Rep> = run.reps.iter().chain(&run.traced).collect();
        let mut found: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
        let first = reps[0];
        if reps.iter().any(|r| r.digest != first.digest) {
            found.push("digest differs between repetitions".to_string());
        }
        // Engine counters are exact on one shard only; with more, the
        // digest above is what pins the simulated results.
        if run.workload.shards == 1 && reps.iter().any(|r| r.counters != first.counters) {
            found.push("work counters differ between repetitions".to_string());
        }
        let pinned = expected
            .get(pin_key(name))
            .and_then(Json::as_str)
            .filter(|_| seed == PINNED_SEED);
        if let (Some(want), Some(got)) = (pinned, first.digest.as_deref()) {
            if want != got {
                found.push(format!("digest {got} is not the {want} of expected.json"));
            }
        }
        if trace_overhead(run) == Some(Verdict::Worse) {
            found.push(format!(
                "tracing slowed the run by more than {:.0} %",
                TRACE_OVERHEAD_LIMIT * 100.0
            ));
        }
        run.violations = found;
    }
    // One simulated metro, two engines: same results or one of them is wrong.
    let digest_of = |runs: &[WorkloadRun], name: &str| {
        runs.iter()
            .find(|r| r.workload.name == name)
            .and_then(|r| r.reps[0].digest.clone())
    };
    if let (Some(s1), Some(s2)) = (digest_of(runs, "metro-s1"), digest_of(runs, "metro-s2")) {
        if s1 != s2 {
            let msg = format!("metro-s1 digest {s1} differs from metro-s2 digest {s2}");
            for run in runs
                .iter_mut()
                .filter(|r| r.workload.name.starts_with("metro-"))
            {
                run.violations.push(msg.clone());
            }
        }
    }
}

/// `metro-s1` and `metro-s2` share one pinned digest.
fn pin_key(workload: &str) -> &str {
    workload.split_once("-s").map_or(workload, |(base, _)| base)
}

/// Every per-layer metric of one workload, in `spec::PER_LAYER` order.
/// A layer the workload never enters, and a kernel that rides on another
/// workload's traced pass, read 0.
pub fn per_layer(run: &WorkloadRun) -> Vec<(&'static Metric, f64)> {
    let Some(traced) = &run.traced else {
        return Vec::new();
    };
    let per_event = |total: u64| {
        if traced.run_events == 0 {
            0.0
        } else {
            total as f64 / traced.run_events as f64
        }
    };
    let untraced_run_s = run.summary("host.run_s").map_or(f64::NAN, |s| s.min);
    let demoted: Vec<HostMetric> = run.host_metrics().filter(|h| h.bound.is_none()).collect();
    PER_LAYER
        .iter()
        .map(|m| {
            // `<span>_s` is the self time of the spans of that name, if the
            // adapter opened any; every other name is looked up below, and
            // a counter the workload never reported reads 0.
            let span = m
                .name
                .strip_suffix("_s")
                .filter(|name| traced.spans.iter().any(|s| s.name == *name));
            let value = if let Some(span) = span {
                trace::self_time_of(&traced.spans, span)
            } else if let Some(&k) = run.kernels.get(m.name) {
                k
            } else if let Some(h) = demoted.iter().find(|h| h.metric.name == m.name) {
                h.reported
            } else {
                match m.name {
                    "simnet.sim.ns_per_event" if traced.run_events > 0 => {
                        traced.events_s * 1e9 / traced.run_events as f64
                    }
                    "host.allocs_per_event" => per_event(traced.allocs),
                    "host.alloc_bytes_per_event" => per_event(traced.alloc_bytes),
                    "host.ref_ms" => traced.ref_ms,
                    "trace_overhead_share" => traced.run_s / untraced_run_s - 1.0,
                    counter => traced.counter(counter),
                }
            };
            (m, value)
        })
        .collect()
}

/// Did tracing (the counting allocator) cost more of `run_s` than
/// `TRACE_OVERHEAD_LIMIT`? One traced repetition stands against the
/// untraced ones, so the host's run-to-run spread is in the reading:
/// `ok` when the traced run is within the limit of the best untraced one,
/// `worse` when it is past the limit of even the slowest of at least three,
/// `unresolved` in between. `None` without a traced repetition.
pub fn trace_overhead(run: &WorkloadRun) -> Option<Verdict> {
    let traced = run.traced.as_ref()?.run_s;
    let untraced = run.summary("host.run_s")?;
    Some(if traced <= untraced.min * (1.0 + TRACE_OVERHEAD_LIMIT) {
        Verdict::Ok
    } else if untraced.n >= 3 && traced > untraced.max * (1.0 + TRACE_OVERHEAD_LIMIT) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    })
}

fn metric_json(unit: &str, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

impl Session {
    pub fn correct(&self) -> bool {
        self.runs.iter().all(WorkloadRun::correct)
    }

    /// Print every metric by name with its unit.
    pub fn print(&self) {
        for run in &self.runs {
            let name = run.workload.name;
            println!("# {name}: {}", run.workload.why);
            println!(
                "# {name}: shards {}, reps {}, noisy_reps {}, attempted {}, failed {}, failed_share {}, digest {}",
                run.workload.shards,
                run.reps.len(),
                run.noisy_reps,
                run.attempted(),
                run.failed(),
                run.failed() as f64 / run.attempted().max(1) as f64,
                run.reps[0].digest.as_deref().unwrap_or("-"),
            );
            for h in run.host_metrics() {
                let s = &h.summary;
                let spread = s
                    .spread()
                    .map_or("unknown".to_string(), |x| format!("{:.1} %", x * 100.0));
                let bound = h.bound.map_or("demoted, no bound".to_string(), |b| {
                    format!("bound {:.0} %", b * 100.0)
                });
                println!(
                    "{name} {} {:.6} {} ({} is better; best of {}; median {:.6}, q1 {:.6}, q3 {:.6}, spread {spread}, {bound})",
                    h.metric.name,
                    h.reported,
                    h.metric.unit,
                    h.metric.better.as_str(),
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                );
            }
            // The demoted metrics are per-layer ones too, printed above.
            let layers = per_layer(run)
                .into_iter()
                .filter(|(m, _)| DEMOTED.iter().all(|d| d.metric.name != m.name));
            for (metric, value) in layers {
                println!("{name} {} {value:.6} {}", metric.name, metric.unit);
            }
            if let Some(verdict) = trace_overhead(run) {
                println!(
                    "# {name}: trace_overhead_share against the {:.0} % limit: {}",
                    TRACE_OVERHEAD_LIMIT * 100.0,
                    verdict.as_str()
                );
            }
            for v in &run.violations {
                println!("# {name}: VIOLATION: {v}");
            }
        }
    }

    /// The session as one document, for `compare`.
    pub fn to_json(&self) -> Json {
        let runs = self.runs.iter().map(|run| {
            let host = |bounded: bool| {
                run.host_metrics()
                    .filter(move |h| h.bound.is_some() == bounded)
                    .map(|h| h.to_json(run))
            };
            let layers = per_layer(run)
                .into_iter()
                .map(|(m, value)| (m.name, metric_json(m.unit, value)));
            Json::obj([
                ("name", Json::str(run.workload.name)),
                ("shards", Json::Num(run.workload.shards as f64)),
                ("reps", Json::Num(run.reps.len() as f64)),
                ("noisy_reps", Json::Num(f64::from(run.noisy_reps))),
                ("attempted", Json::Num(run.attempted() as f64)),
                ("failed", Json::Num(run.failed() as f64)),
                ("correct", Json::Bool(run.correct())),
                (
                    "violations",
                    Json::Arr(run.violations.iter().map(Json::str).collect()),
                ),
                (
                    "digest",
                    run.reps[0].digest.as_deref().map_or(Json::Null, Json::str),
                ),
                ("end_to_end", Json::obj(host(true))),
                ("demoted", Json::obj(host(false))),
                ("per_layer", Json::obj(layers)),
                (
                    "ref_ms",
                    Json::Arr(run.reps.iter().map(|r| Json::Num(r.ref_ms)).collect()),
                ),
            ])
        });
        Json::obj([
            ("host", self.host.clone()),
            ("seed", Json::Num(self.seed as f64)),
            ("workloads", Json::Arr(runs.collect())),
        ])
    }

    /// The result line of the acceptance contract, for a session of one
    /// workload: end-to-end metrics, or per-layer ones when traced.
    pub fn contract_line(&self) -> Json {
        let run = &self.runs[0];
        let metrics: Vec<(&str, Json)> = if run.traced.is_some() {
            per_layer(run)
                .into_iter()
                .map(|(m, value)| (m.name, metric_json(m.unit, value)))
                .collect()
        } else {
            run.host_metrics()
                .filter(|h| h.bound.is_some())
                .map(|h| (h.metric.name, metric_json(h.metric.unit, h.reported)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(run.correct())),
            ("attempted", Json::Num(run.attempted() as f64)),
            ("failed", Json::Num(run.failed() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Write the session document and, when traced, one span file per
    /// workload next to it.
    pub fn write(&self, out: &Path) -> Result<(), String> {
        let dir = out.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        std::fs::write(out, self.to_json().render() + "\n")
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        for run in &self.runs {
            if let Some(traced) = &run.traced {
                let path = dir.join(format!("trace-{}.json", run.workload.name));
                let doc = trace::spans_to_json(&traced.spans, run.workload.name).render();
                std::fs::write(&path, doc + "\n")
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn rep(run_s: f64, digest: &str) -> Rep {
        Rep {
            ref_ms: 200.0,
            setup_s: 0.5,
            run_s,
            run_events: 1000,
            events_s: run_s,
            allocs: 0,
            alloc_bytes: 0,
            cpu_s: run_s + 0.5,
            peak_rss_mb: 100.0,
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            digest: Some(digest.to_string()),
            counters: vec![("lte.ue.handovers".to_string(), 20.0)],
            spans: Vec::new(),
        }
    }

    fn workload_run(name: &str, reps: Vec<Rep>) -> WorkloadRun {
        WorkloadRun {
            workload: spec::workload(name).unwrap(),
            reps,
            setups_again: Vec::new(),
            noisy_reps: 0,
            traced: None,
            kernels: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    #[test]
    fn best_is_the_fastest_repetition_in_the_metrics_own_direction() {
        let mut run = workload_run("metro-s1", vec![rep(6.0, "aa"), rep(5.0, "aa")]);
        let run_s = run.summary("host.run_s").unwrap();
        assert_eq!(best(&run_s, Better::Lower), 5.0);
        let rate = run.summary("host.events_per_s").unwrap();
        assert_eq!(best(&rate, Better::Higher), 200.0);
        // Set-up timed again on its own counts for `setup_s` and nothing else.
        run.setups_again = vec![0.4, 0.45];
        assert_eq!(run.summary("setup_s").unwrap().n, 4);
        assert_eq!(run.summary("setup_s").unwrap().min, 0.4);
        assert_eq!(run.summary("peak_rss_mb").unwrap().n, 2);
        let reported: Vec<(&str, bool, f64)> = run
            .host_metrics()
            .map(|h| (h.metric.name, h.bound.is_some(), h.reported))
            .collect();
        assert_eq!(
            reported,
            [
                ("setup_s", true, 0.4),
                ("peak_rss_mb", true, 100.0),
                ("host.run_s", false, 5.0),
                ("host.events_per_s", false, 200.0),
                ("host.cpu_s", false, 5.5),
            ]
        );
    }

    #[test]
    fn gate_flags_digest_drift_and_shard_disagreement() {
        let mut runs = vec![
            workload_run("metro-s1", vec![rep(6.0, "aa"), rep(6.1, "aa")]),
            workload_run("metro-s2", vec![rep(6.0, "bb")]),
            workload_run("signalling", vec![rep(7.0, "cc"), rep(7.0, "dd")]),
        ];
        gate(&mut runs, 7);
        assert!(runs[0].violations.iter().any(|v| v.contains("metro-s2")));
        assert!(runs[1].violations.iter().any(|v| v.contains("metro-s1")));
        assert!(runs[2]
            .violations
            .iter()
            .any(|v| v.contains("between repetitions")));
        assert!(runs.iter().all(|r| !r.correct()));

        let mut ok = vec![
            workload_run("metro-s1", vec![rep(6.0, "aa")]),
            workload_run("metro-s2", vec![rep(6.0, "aa")]),
        ];
        gate(&mut ok, 7);
        assert!(ok.iter().all(WorkloadRun::correct));
    }

    #[test]
    fn gate_checks_the_pinned_digest_only_at_the_pinned_seed() {
        let mut runs = vec![workload_run("metro-s1", vec![rep(6.0, "not-the-pin")])];
        gate(&mut runs, PINNED_SEED + 1);
        assert!(runs[0].correct());
        gate(&mut runs, PINNED_SEED);
        assert!(runs[0]
            .violations
            .iter()
            .any(|v| v.contains("expected.json")));
        assert_eq!(pin_key("metro-s2"), "metro");
        assert_eq!(pin_key("signalling"), "signalling");
    }

    #[test]
    fn counters_must_repeat_on_one_shard() {
        let mut other = rep(6.0, "aa");
        other.counters[0].1 = 21.0;
        let mut runs = vec![workload_run(
            "metro-s1",
            vec![rep(6.0, "aa"), other.clone()],
        )];
        gate(&mut runs, 7);
        assert!(runs[0]
            .violations
            .iter()
            .any(|v| v.contains("work counters")));
        let mut sharded = vec![workload_run("metro-s2", vec![rep(6.0, "aa"), other])];
        gate(&mut sharded, 7);
        assert!(sharded[0].correct());
    }

    #[test]
    fn the_contract_line_has_exactly_the_asked_keys_and_every_metric() {
        let mut run = workload_run("metro-s1", vec![rep(6.0, "aa"), rep(5.0, "aa")]);
        let session = |run: WorkloadRun| Session {
            host: Json::Null,
            seed: 7,
            runs: vec![run],
        };
        let untraced = session(workload_run("metro-s1", run.reps.clone()));
        let line = Json::parse(&untraced.contract_line().render()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(20));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|b| b.metric.name).collect();
        assert_eq!(names, want);
        assert_eq!(
            metrics[0].1.get("value").and_then(Json::as_f64),
            Some(0.5),
            "setup_s reports the best repetition"
        );

        run.traced = Some(rep(5.1, "aa"));
        run.kernels.insert("simnet.wheel.near_ns", 41.5);
        let traced = session(run);
        let line = Json::parse(&traced.contract_line().render()).unwrap();
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let value = |name: &str| {
            line.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("simnet.wheel.near_ns"), Some(41.5));
        assert_eq!(value("lte.ue.handovers"), Some(20.0));
        assert_eq!(
            value("bench.run.fig8_s"),
            Some(0.0),
            "a layer never entered reads 0"
        );
        assert!((value("trace_overhead_share").unwrap() - 0.02).abs() < 1e-9);
        assert_eq!(
            value("host.run_s"),
            Some(5.0),
            "a demoted metric is the best untraced repetition, not the traced one"
        );
        // The whole document is well-formed too.
        assert!(Json::parse(&traced.to_json().render()).is_ok());
    }

    #[test]
    fn tracing_overhead_is_judged_against_the_untraced_spread() {
        let with_traced = |untraced: &[f64], traced: f64| {
            let mut run = workload_run(
                "signalling",
                untraced.iter().map(|&s| rep(s, "aa")).collect(),
            );
            run.traced = Some(rep(traced, "aa"));
            run
        };
        let verdict =
            |untraced: &[f64], traced: f64| trace_overhead(&with_traced(untraced, traced));
        assert_eq!(
            trace_overhead(&workload_run("signalling", vec![rep(7.0, "aa")])),
            None
        );
        assert_eq!(verdict(&[7.0, 7.5, 8.0], 7.3), Some(Verdict::Ok));
        // Slower than the best by 10 %, but an untraced run was slower still.
        assert_eq!(verdict(&[7.0, 7.5, 8.0], 7.7), Some(Verdict::Unresolved));
        assert_eq!(verdict(&[7.0, 7.5, 8.0], 8.5), Some(Verdict::Worse));
        // Too few untraced runs to know the spread.
        assert_eq!(verdict(&[7.0], 8.5), Some(Verdict::Unresolved));
        let mut runs = vec![with_traced(&[7.0, 7.5, 8.0], 8.5)];
        gate(&mut runs, 7);
        assert!(runs[0].violations.iter().any(|v| v.contains("tracing")));
    }

    #[test]
    fn seconds_are_turned_into_a_fixed_repetition_count() {
        let opts = |reps, seconds| Options {
            workloads: Vec::new(),
            seed: 1,
            reps,
            seconds,
            trace: false,
            out: PathBuf::new(),
        };
        let metro = spec::workload("metro-s1").unwrap();
        assert_eq!(opts(None, None).reps_for(metro), 3);
        assert_eq!(opts(Some(5), Some(1.0)).reps_for(metro), 5);
        assert_eq!(opts(None, Some(0.1)).reps_for(metro), 1);
        let by_seconds = opts(None, Some(metro.nominal_rep_s * 2.2)).reps_for(metro);
        assert_eq!(by_seconds, 2);
    }
}
