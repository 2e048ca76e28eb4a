//! Localization experiments: the Fig. 6 rxPower/SNR walking traces and the
//! Fig. 9(b) landmark-count accuracy sweep.

use crate::table::Table;
use acacia_d2d::channel::RadioChannel;
use acacia_d2d::discovery::ProximityWorld;
use acacia_d2d::modem::Modem;
use acacia_d2d::service::SubscriptionFilter;
use acacia_geo::floor::{FloorPlan, WalkPath};
use acacia_geo::pathloss::PathLossModel;
use acacia_geo::point::Point;
use acacia_geo::trilateration::{trilaterate, RangeMeasurement};
use acacia_geo::FittedPathLoss;

/// One sample of the Fig. 6 walking trace.
#[derive(Debug, Clone)]
pub struct WalkSample {
    /// Time into the walk, seconds.
    pub t_s: f64,
    /// Per-landmark readings: (name, rxPower dBm, SNR dB).
    pub readings: Vec<(String, f64, f64)>,
}

/// Generate the Fig. 6(b,c) trace: a 550 s walk past three landmarks,
/// sampling every discovery period.
pub(crate) fn fig6_trace(seed: u64) -> Vec<WalkSample> {
    let floor = FloorPlan::walkway();
    let channel = RadioChannel::new(PathLossModel::indoor_default(), seed);
    let world = ProximityWorld::from_floor(&floor, "walk", channel);
    let walk = WalkPath::fig6_walk();
    let mut modem = Modem::new();
    modem.subscribe(SubscriptionFilter::service_wide("walk"));
    let mut out = Vec::new();
    let period = world.period_s;
    let mut t = 0.0;
    while t <= walk.duration_s() {
        let pos = walk.position_at(t);
        let tick = world.tick_at(t);
        let readings = world
            .scan(&mut modem, pos, tick)
            .into_iter()
            .map(|ev| (ev.publisher, ev.rx_power_dbm, ev.snr_db))
            .collect();
        out.push(WalkSample { t_s: t, readings });
        t += period;
    }
    out
}

/// Pearson correlation between two equal-length slices.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Correlation of rxPower and SNR with −log10(distance) along the walk —
/// quantifying the paper's argument for choosing rxPower.
pub(crate) fn fig6_correlations(seed: u64) -> (f64, f64) {
    let floor = FloorPlan::walkway();
    let walk = WalkPath::fig6_walk();
    let trace = fig6_trace(seed);
    let mut neglogd = Vec::new();
    let mut rx = Vec::new();
    let mut snr = Vec::new();
    for s in &trace {
        let pos = walk.position_at(s.t_s);
        for (name, rxp, snrv) in &s.readings {
            let lm = floor.landmark(name).expect("trace landmark exists");
            neglogd.push(-(lm.pos.distance(pos).max(0.1)).log10());
            rx.push(*rxp);
            snr.push(*snrv);
        }
    }
    (pearson(&neglogd, &rx), pearson(&neglogd, &snr))
}

/// Fig. 6: summary of the walking-trace experiment.
pub(crate) fn fig6() -> Table {
    let (rx_corr, snr_corr) = fig6_correlations(21);
    let trace = fig6_trace(21);
    let mut t = Table::new(
        "Fig 6 — LTE-direct readings along the walk (sampled rows)",
        &["t (s)", "landmark", "rxPower (dBm)", "SNR (dB)"],
    );
    for s in trace.iter().step_by(14) {
        for (name, rx, snr) in &s.readings {
            t.row(vec![
                format!("{:.0}", s.t_s),
                name.clone(),
                format!("{rx:.1}"),
                format!("{snr:.1}"),
            ]);
        }
    }
    t.note(&format!(
        "correlation with -log10(distance): rxPower {rx_corr:.3} vs SNR {snr_corr:.3} (paper: rxPower is the reliable input)"
    ));
    t
}

/// Fig. 9(b) data: per landmark-count k, (best, mean, worst) mean
/// Euclidean error in metres across all C(7,k) landmark subsets evaluated
/// over the 24 checkpoints.
pub(crate) fn fig9b_data(seed: u64) -> Vec<(usize, f64, f64, f64)> {
    let floor = FloorPlan::retail_store();
    let model = PathLossModel::indoor_default();
    let channel = RadioChannel::new(model, seed);
    let world = ProximityWorld::from_floor(&floor, "acme", channel);
    let fit = {
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
            .iter()
            .map(|&d| (d, model.rx_power_dbm(d)))
            .collect();
        FittedPathLoss::fit(&samples).expect("calibration")
    };

    // Average rxPower per (checkpoint, landmark) over several discovery
    // periods.
    let mut readings: Vec<Vec<Option<f64>>> = Vec::new();
    for cp in &floor.checkpoints {
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide("acme"));
        let mut acc: Vec<Vec<f64>> = vec![Vec::new(); floor.landmarks.len()];
        for tick in 0..6 {
            for ev in world.scan(&mut modem, cp.pos, tick) {
                if let Some(idx) = floor.landmarks.iter().position(|l| l.name == ev.publisher) {
                    acc[idx].push(ev.rx_power_dbm);
                }
            }
        }
        readings.push(
            acc.into_iter()
                .map(|v| {
                    if v.is_empty() {
                        None
                    } else {
                        Some(v.iter().sum::<f64>() / v.len() as f64)
                    }
                })
                .collect(),
        );
    }

    // Each (k, subset) placement is an independent cell; the per-k
    // aggregation below walks the results in cell order, so the f64
    // accumulation order matches the serial run exactly.
    let cells: Vec<(String, (usize, Vec<usize>))> = (3..=7usize)
        .flat_map(|k| {
            combinations(7, k)
                .into_iter()
                .map(move |subset| (format!("k={k} {subset:?}"), (k, subset)))
        })
        .collect();
    let ks: Vec<usize> = cells.iter().map(|(_, (k, _))| *k).collect();
    let subset_means = crate::runner::pmap("fig9b", cells, |(_, subset)| -> Option<f64> {
        let mut total = 0.0;
        let mut n = 0usize;
        for (cp, cp_readings) in floor.checkpoints.iter().zip(&readings) {
            let ms: Vec<RangeMeasurement> = subset
                .iter()
                .filter_map(|&li| {
                    let rx = (*cp_readings.get(li)?)?;
                    Some(RangeMeasurement::new(
                        floor.landmarks[li].pos,
                        fit.predict_distance(rx),
                    ))
                })
                .collect();
            if ms.len() < 3 {
                continue;
            }
            if let Ok(sol) = trilaterate(&ms) {
                total += clamp_to_floor(&floor, sol.position).distance(cp.pos);
                n += 1;
            }
        }
        (n > 0).then(|| total / n as f64)
    });

    let mut out = Vec::new();
    for k in 3..=7usize {
        let means: Vec<f64> = ks
            .iter()
            .zip(&subset_means)
            .filter(|(&ck, _)| ck == k)
            .filter_map(|(_, m)| *m)
            .collect();
        let best = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = means.iter().cloned().fold(0.0f64, f64::max);
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        out.push((k, best, mean, worst));
    }
    out
}

/// Clamp wildly-out-of-bounds estimates back to the floor edge (users are
/// inside the store).
fn clamp_to_floor(floor: &FloorPlan, p: Point) -> Point {
    Point::new(
        p.x.clamp(floor.bounds.min.x, floor.bounds.max.x),
        p.y.clamp(floor.bounds.min.y, floor.bounds.max.y),
    )
}

/// All k-subsets of 0..n.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Fig. 9(a) / Fig. 6(a): the evaluation floor plans, rendered.
pub(crate) fn fig9a() -> Table {
    let retail = FloorPlan::retail_store();
    let walkway = FloorPlan::walkway();
    let mut t = Table::new(
        "Fig 9(a) & 6(a) — evaluation floor plans (L = landmark, c = checkpoint, | = section boundary)",
        &["plan", "size", "landmarks", "checkpoints"],
    );
    t.row(vec![
        "retail store".into(),
        "28 x 15 m".into(),
        retail.landmarks.len().to_string(),
        retail.checkpoints.len().to_string(),
    ]);
    t.row(vec![
        "walkway".into(),
        "50 x 20 m".into(),
        walkway.landmarks.len().to_string(),
        walkway.checkpoints.len().to_string(),
    ]);
    t.block(&format!("retail store (Fig 9a):\n{}", retail.ascii_art()));
    t.block(&format!("walkway (Fig 6a):\n{}", walkway.ascii_art()));
    t
}

/// Fig. 9(b): localization accuracy vs number (and placement) of landmarks.
pub(crate) fn fig9b() -> Table {
    let mut t = Table::new(
        "Fig 9(b) — localization error vs number of landmarks (m)",
        &["landmarks", "best placement", "mean", "worst placement"],
    );
    for (k, best, mean, worst) in fig9b_data(17) {
        t.row(vec![
            k.to_string(),
            format!("{best:.2}"),
            format!("{mean:.2}"),
            format!("{worst:.2}"),
        ]);
    }
    t.note("paper: ~3 m mean error with 7 landmarks; best/worst gap shrinks as landmarks grow");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(7, 3).len(), 35);
        assert_eq!(combinations(7, 7).len(), 1);
        assert_eq!(combinations(4, 2).len(), 6);
    }

    #[test]
    fn rxpower_correlates_better_than_snr() {
        let (rx, snr) = fig6_correlations(3);
        assert!(rx > 0.85, "rxPower correlation {rx}");
        // SNR tracks rxPower inside its 25 dB window, so the gap is modest
        // over a whole walk; the decisive difference is SNR's saturation
        // near landmarks (asserted in acacia-d2d's channel tests).
        assert!(rx > snr + 0.02, "rx {rx} vs snr {snr}");
    }

    #[test]
    fn walk_trace_peaks_in_landmark_order() {
        // rxPower from L1 peaks before L2's, which peaks before L3's.
        let trace = fig6_trace(3);
        let peak_time = |name: &str| {
            trace
                .iter()
                .flat_map(|s| {
                    s.readings
                        .iter()
                        .filter(|(n, ..)| n == name)
                        .map(move |(_, rx, _)| (s.t_s, *rx))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("landmark heard")
                .0
        };
        let (t1, t2, t3) = (peak_time("L1"), peak_time("L2"), peak_time("L3"));
        assert!(t1 < t2 && t2 < t3, "peaks at {t1}, {t2}, {t3}");
    }

    #[test]
    fn more_landmarks_reduce_error_and_spread() {
        let data = fig9b_data(5);
        let (_, _, mean3, worst3) = data[0];
        let (_, best7, mean7, worst7) = data[4];
        assert!(mean7 <= mean3 + 0.5, "mean3 {mean3} vs mean7 {mean7}");
        assert!(
            worst7 - best7 < worst3 + 0.01,
            "spread should shrink: k3 worst {worst3}, k7 spread {}",
            worst7 - best7
        );
        // Paper's headline: ~3 m average with all seven landmarks.
        assert!((1.0..5.5).contains(&mean7), "7-landmark mean {mean7}");
    }
}
