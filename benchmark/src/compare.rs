//! `compare A.json B.json`: did B get worse than A, per (metric, workload),
//! judged against the bound the benchmark fixed?

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, or one side is a
    /// single repetition that shows no spread at all, so the medians cannot
    /// carry a verdict either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    }
}

/// `bound` is a share of A's median and `floor` an amount in the metric's
/// unit; what B may lose is the larger of the two.
pub fn judge(sa: &Summary, sb: &Summary, better: Better, bound: f64, floor: f64) -> (f64, Verdict) {
    let delta = worsening(sa, sb, better);
    let allowed = (bound * sa.median.abs()).max(floor);
    // Every run of B better than every run of A settles it whatever the spread.
    let b_wins_every_pair = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    let verdict = match (sa.iqr(), sb.iqr()) {
        _ if b_wins_every_pair => Verdict::Ok,
        (Some(a), Some(b)) if a.max(b) <= allowed => {
            if delta * sa.median.abs() > allowed {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
        _ => Verdict::Unresolved,
    };
    (delta, verdict)
}

fn values(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get(section)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Median of the host reference's probes before the repetitions of
/// `workload`, milliseconds.
fn ref_median_ms(doc: &Json, workload: &str) -> Option<f64> {
    let probes: Vec<f64> = doc
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("ref_ms")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<_>>()?;
    Summary::of(&probes).map(|s| s.median)
}

/// How far apart two host-reference readings may be before the hosts the
/// two files were measured on count as different: the noise guard's own
/// tolerance.
const SAME_HOST: f64 = 1.10;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One row per (metric, workload) present in both files: the end-to-end
/// metrics against their bounds, then the demoted ones against the widest
/// bound. `Ok(true)` when no end-to-end row is `worse`; a demoted metric
/// is judged for the reader and fails nothing.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("workload metric median_a median_b worsening bound verdict");
    let mut rows = 0;
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        // The reference is noise only, but it says whether the two files
        // saw the same host: a verdict across a noisy and a quiet period
        // is about the host, not the code.
        if let (Some(ra), Some(rb)) = (ref_median_ms(&a, w.name), ref_median_ms(&b, w.name)) {
            let verdict = if ra.max(rb) > ra.min(rb) * SAME_HOST {
                "the host changed between them"
            } else {
                "same host"
            };
            println!(
                "# {}: host reference {ra:.1} ms in A, {rb:.1} ms in B: {verdict}",
                w.name
            );
        }
        let bounded = spec::END_TO_END.iter().map(|m| {
            let widened = spec::WIDENED
                .iter()
                .find(|x| x.metric == m.metric.name && x.workload == w.name);
            let note = widened.map(|x| {
                format!(
                    "widened: spread {:.1} % measured",
                    x.measured_spread * 100.0
                )
            });
            (
                "end_to_end",
                &m.metric,
                spec::bound(m, w.name),
                m.floor,
                note,
            )
        });
        let demoted = spec::DEMOTED.iter().map(|d| {
            let note = format!(
                "demoted: spread {:.1} % measured on {}",
                d.measured_spread * 100.0,
                d.workload
            );
            ("demoted", &d.metric, spec::WIDEST_BOUND, 0.0, Some(note))
        });
        for (section, metric, bound, floor, note) in bounded.chain(demoted) {
            let (Some(va), Some(vb)) = (
                values(&a, w.name, section, metric.name),
                values(&b, w.name, section, metric.name),
            ) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) else {
                continue;
            };
            let (delta, verdict) = judge(&sa, &sb, metric.better, bound, floor);
            rows += 1;
            all_ok &= section == "demoted" || verdict != Verdict::Worse;
            println!(
                "{} {} {:.6} {:.6} {:+.2}% {:.0}% {}{}",
                w.name,
                metric.name,
                sa.median,
                sb.median,
                delta * 100.0,
                bound * 100.0,
                verdict.as_str(),
                note.map_or(String::new(), |n| format!(" ({n})")),
            );
        }
    }
    if rows == 0 {
        return Err(format!(
            "{path_a} and {path_b} share no (metric, workload) pair"
        ));
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &[f64], b: &[f64], better: Better) -> (f64, Verdict) {
        let (sa, sb) = (Summary::of(a).unwrap(), Summary::of(b).unwrap());
        judge(&sa, &sb, better, 0.10, 0.0)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 10.2];
        // Within the bound.
        let (d, v) = verdict(&a, &[10.5, 10.6, 10.7], Better::Lower);
        assert!((d - 0.0495).abs() < 1e-3, "{d}");
        assert_eq!(v, Verdict::Ok);
        // Past it.
        assert_eq!(
            verdict(&a, &[11.5, 11.6, 11.7], Better::Lower).1,
            Verdict::Worse
        );
        // For a rate, down is worse.
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 8.2], Better::Higher).1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 12.2], Better::Higher).1,
            Verdict::Ok
        );
        // Too noisy to tell, unless B wins every pair.
        assert_eq!(
            verdict(&a, &[9.0, 11.0, 13.0], Better::Lower).1,
            Verdict::Unresolved
        );
        assert_eq!(verdict(&a, &[5.0, 7.0, 9.0], Better::Lower).1, Verdict::Ok);
    }

    #[test]
    fn one_repetition_is_unresolved_not_a_spread_of_zero() {
        let a = [10.0, 10.1, 10.2];
        assert_eq!(verdict(&a, &[13.0], Better::Lower).1, Verdict::Unresolved);
        assert_eq!(verdict(&[10.0], &a, Better::Lower).1, Verdict::Unresolved);
        assert_eq!(
            verdict(&[10.0], &[10.0], Better::Lower).1,
            Verdict::Unresolved
        );
        // Unless the one run of B beats every run of A.
        assert_eq!(verdict(&a, &[9.0], Better::Lower).1, Verdict::Ok);
    }

    #[test]
    fn a_worsening_below_the_floor_is_no_regression() {
        let (sa, sb) = (
            Summary::of(&[4.0e-6, 4.1e-6, 4.2e-6]).unwrap(),
            Summary::of(&[7.0e-6, 7.5e-6, 9.0e-6]).unwrap(),
        );
        // Microseconds of set-up nearly doubled and scattered: 10 % says
        // unresolved, "10 % or 0.05 s" says it does not matter.
        assert_eq!(
            judge(&sa, &sb, Better::Lower, 0.10, 0.0).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&sa, &sb, Better::Lower, 0.10, 0.05).1, Verdict::Ok);
        // Above the floor the share decides again.
        let (sa, sb) = (
            Summary::of(&[10.0, 10.1, 10.2]).unwrap(),
            Summary::of(&[11.5, 11.6, 11.7]).unwrap(),
        );
        assert_eq!(judge(&sa, &sb, Better::Lower, 0.10, 0.05).1, Verdict::Worse);
    }
}
