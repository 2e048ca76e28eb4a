//! Application-level experiments: search-space optimization (Fig. 11),
//! multi-client contention (Fig. 12) and the end-to-end comparison
//! (Fig. 13).

use crate::runner;
use crate::table::{fmt_secs, Table};
use acacia::locmgr::{LocalizationManager, LocalizationMetadata};
use acacia::scenario::{Deployment, Scenario, ScenarioConfig};
use acacia::search::{candidates, SearchContext, SearchStrategy};
use acacia_d2d::channel::RadioChannel;
use acacia_d2d::discovery::ProximityWorld;
use acacia_d2d::modem::Modem;
use acacia_d2d::service::SubscriptionFilter;
use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::PathLossModel;
use acacia_simnet::stats::Series;
use acacia_vision::compute::{contended_time_s, Device};
use acacia_vision::db::ObjectDb;
use acacia_vision::feature::{object_features, render_view, Similarity, ViewParams};
use acacia_vision::image::{ImageSpec, Resolution};
use acacia_vision::matcher::{MatchOps, MatcherConfig};

/// The three strategies compared in Fig. 11/12, paper order.
pub const STRATEGIES: [SearchStrategy; 3] = [
    SearchStrategy::ACACIA_DEFAULT,
    SearchStrategy::RxPower,
    SearchStrategy::Naive,
];

/// Per-frame result of the Fig. 11 workload.
#[derive(Debug, Clone)]
pub struct Fig11Frame {
    /// Metered matching operations.
    pub ops: MatchOps,
    /// Candidates examined.
    pub candidates: usize,
    /// Whether the true object was found.
    pub correct: bool,
}

/// Run the Fig. 11 workload for one (strategy, resolution): photograph the
/// object at each of `checkpoints` checkpoints, `frames_per_object` views
/// each, matching against the pruned database.
pub fn fig11_frames(
    strategy: SearchStrategy,
    resolution: Resolution,
    checkpoints: usize,
    frames_per_object: usize,
    seed: u64,
) -> Vec<Fig11Frame> {
    let floor = FloorPlan::retail_store();
    let db = ObjectDb::retail_cached(5, seed);
    let model = PathLossModel::indoor_default();
    let channel = RadioChannel::new(model, seed);
    let world = ProximityWorld::from_floor(&floor, "acme", channel);
    let matcher = MatcherConfig {
        exec_cap: 32,
        ..MatcherConfig::default()
    };

    let mut out = Vec::new();
    for (ci, cp) in floor.checkpoints.iter().take(checkpoints).enumerate() {
        // Context from LTE-direct at this checkpoint.
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide("acme"));
        let mut locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
        for tick in 0..4 {
            for ev in world.scan(&mut modem, cp.pos, tick) {
                locmgr.report(&ev.publisher, ev.rx_power_dbm);
            }
        }
        let ctx = SearchContext {
            rx_readings: locmgr.rx_view(),
            location: locmgr.estimate(),
        };

        // The object photographed at this checkpoint: the DB object
        // anchored there (generate_retail puts one at each checkpoint).
        let target_id = db
            .objects()
            .iter()
            .filter(|o| o.pos.distance(cp.pos) < 1e-6)
            .min_by_key(|o| o.id)
            .unwrap_or(&db.objects()[ci % db.len()])
            .id;

        for f in 0..frames_per_object {
            let view_seed = (ci * 97 + f) as u64 ^ seed;
            let spec = ImageSpec::new(target_id, resolution);
            let base = object_features(target_id, spec.feature_count());
            let view = render_view(
                &base,
                Similarity::from_seed(view_seed),
                ViewParams::default(),
                view_seed,
            );
            let cands = candidates(strategy, &db, &floor, &ctx);
            let n = cands.len();
            let outcome = db.match_against(&view, cands, &matcher);
            let correct = outcome
                .best
                .as_ref()
                .map(|(id, _)| *id == target_id)
                .unwrap_or(false);
            out.push(Fig11Frame {
                ops: outcome.ops,
                candidates: n,
                correct,
            });
        }
    }
    out
}

/// Mean match time (s) for a device over a set of frames.
pub fn mean_match_s(frames: &[Fig11Frame], device: Device) -> f64 {
    let p = device.profile();
    frames.iter().map(|f| p.match_time_s(&f.ops)).sum::<f64>() / frames.len() as f64
}

/// The Fig. 11(a)/(b) resolutions, paper order.
pub const FIG11_RESOLUTIONS: [Resolution; 3] = [
    Resolution::new(720, 480),
    Resolution::new(960, 720),
    Resolution::new(1280, 720),
];

/// Fig. 11(a): mean matching time by scheme × machine × resolution.
pub(crate) fn fig11a() -> Table {
    let mut t = Table::new(
        "Fig 11(a) — matching time by search-space scheme (ms)",
        &[
            "machine (res)",
            "ACACIA",
            "rxPower",
            "Naive",
            "naive/acacia",
        ],
    );
    let cells = FIG11_RESOLUTIONS
        .iter()
        .flat_map(|&res| {
            STRATEGIES
                .iter()
                .map(move |&s| (format!("{} {res}", s.name()), (s, res)))
        })
        .collect();
    let all_frames = runner::pmap("fig11a", cells, |(strategy, res)| {
        fig11_frames(strategy, res, 24, 5, 42)
    });
    for (res, frames) in FIG11_RESOLUTIONS
        .iter()
        .zip(all_frames.chunks(STRATEGIES.len()))
    {
        for dev in [Device::I7Octa, Device::Xeon32] {
            let times: Vec<f64> = frames.iter().map(|f| mean_match_s(f, dev)).collect();
            t.row(vec![
                format!("{} ({res})", dev.name()),
                fmt_secs(times[0]),
                fmt_secs(times[1]),
                fmt_secs(times[2]),
                format!("{:.2}x", times[2] / times[0]),
            ]);
        }
    }
    t.note("paper: up to 5.02x vs Naive and 1.93x vs rxPower; Xeon much faster than i7");
    t
}

/// Fig. 11(b): distribution of per-frame match runtimes at 960×720.
pub(crate) fn fig11b() -> Table {
    let res = Resolution::new(960, 720);
    let mut t = Table::new(
        "Fig 11(b) — distribution of match runtime at 960x720 (ms)",
        &["scheme (machine)", "p10", "median", "p90", "max"],
    );
    let cells = STRATEGIES
        .iter()
        .map(|&s| (s.name().to_string(), s))
        .collect();
    let all_frames = runner::pmap("fig11b", cells, |strategy| {
        fig11_frames(strategy, res, 24, 5, 42)
    });
    for (strategy, frames) in STRATEGIES.into_iter().zip(all_frames) {
        for dev in [Device::Xeon32, Device::I7Octa] {
            let p = dev.profile();
            let series = Series::from_iter(frames.iter().map(|f| p.match_time_s(&f.ops) * 1e3));
            t.row(vec![
                format!("{} ({})", strategy.name(), dev.name()),
                format!("{:.0}", series.percentile(10.0)),
                format!("{:.0}", series.median()),
                format!("{:.0}", series.percentile(90.0)),
                format!("{:.0}", series.max()),
            ]);
        }
    }
    t.note("paper: without location pruning some frames exceed 1 s on the i7");
    t
}

/// Fig. 12: matching time vs number of concurrent clients.
pub(crate) fn fig12() -> Table {
    let res = Resolution::new(960, 720);
    let mut t = Table::new(
        "Fig 12 — matching time vs concurrent clients at 960x720 (s)",
        &["machine", "clients", "ACACIA", "rxPower", "Naive"],
    );
    let cells = STRATEGIES
        .iter()
        .map(|&s| (s.name().to_string(), s))
        .collect();
    let base = runner::pmap("fig12", cells, |strategy| {
        fig11_frames(strategy, res, 24, 5, 42)
    });
    for dev in [Device::Xeon32, Device::I7Octa] {
        for clients in [1usize, 2, 4, 8] {
            let mut cells = vec![dev.name().to_string(), clients.to_string()];
            for frames in &base {
                let t0 = mean_match_s(frames, dev);
                cells.push(fmt_secs(contended_time_s(t0, clients)));
            }
            t.row(cells);
        }
    }
    t.note("paper: runtime roughly doubles per doubling of clients (server time-sharing)");
    t
}

/// Fig. 13 data: one end-to-end session report per deployment.
pub fn fig13_reports(frame_count: u64, exec_cap: usize) -> Vec<acacia::scenario::SessionReport> {
    let cells = Deployment::ALL
        .iter()
        .map(|&d| (d.name().to_string(), d))
        .collect();
    // Each worker builds and runs its own full simulation stack; only the
    // (Send) config crosses the thread boundary.
    runner::pmap("fig13", cells, |deployment| {
        let r = Scenario::build(ScenarioConfig {
            frame_count,
            exec_cap,
            ..ScenarioConfig::e2e(deployment)
        })
        .run();
        runner::report_events(r.events_processed);
        r
    })
}

/// Fig. 13: end-to-end latency breakdown, ACACIA vs MEC vs CLOUD.
pub(crate) fn fig13() -> Table {
    let reports = fig13_reports(10, 48);
    let mut t = Table::new(
        "Fig 13 — end-to-end comparison at 720x480 (s)",
        &[
            "deployment",
            "match",
            "compute",
            "network",
            "total",
            "accuracy",
        ],
    );
    for r in &reports {
        t.row(vec![
            r.deployment.name().to_string(),
            fmt_secs(r.mean_match_s()),
            fmt_secs(r.mean_compute_s()),
            fmt_secs(r.mean_network_s()),
            fmt_secs(r.mean_total_s()),
            format!("{:.0}%", r.accuracy * 100.0),
        ]);
    }
    let total = |d: Deployment| {
        reports
            .iter()
            .find(|r| r.deployment == d)
            .expect("deployment present")
            .mean_total_s()
    };
    let (a, m, c) = (
        total(Deployment::Acacia),
        total(Deployment::Mec),
        total(Deployment::Cloud),
    );
    let net = |d: Deployment| {
        reports
            .iter()
            .find(|r| r.deployment == d)
            .expect("deployment present")
            .mean_network_s()
    };
    let mtch = |d: Deployment| {
        reports
            .iter()
            .find(|r| r.deployment == d)
            .expect("deployment present")
            .mean_match_s()
    };
    t.note(&format!(
        "end-to-end reduction: ACACIA vs CLOUD {:.0}% (paper 70%), ACACIA vs MEC {:.0}% (paper 60%), MEC vs CLOUD {:.0}% (paper 25%)",
        (1.0 - a / c) * 100.0,
        (1.0 - a / m) * 100.0,
        (1.0 - m / c) * 100.0
    ));
    t.note(&format!(
        "match reduction {:.1}x (paper 7.7x); network reduction vs CLOUD {:.2}x (paper 3.15x)",
        mtch(Deployment::Cloud) / mtch(Deployment::Acacia),
        net(Deployment::Cloud) / net(Deployment::Acacia)
    ));
    t
}

/// Ablation: sweep the ACACIA pruning radius and report the
/// accuracy / candidate-count / match-time trade-off (the design choice
/// behind `SearchStrategy::ACACIA_DEFAULT`).
pub(crate) fn ablation_radius() -> Table {
    let res = Resolution::new(960, 720);
    let mut t = Table::new(
        "Ablation — ACACIA pruning radius vs accuracy and match time (960x720, i7 8-core)",
        &["radius (m)", "mean candidates", "match time", "accuracy"],
    );
    let radii = [10u32, 15, 20, 25, 30, 40, 60, 100];
    let cells = radii
        .iter()
        .map(|&r| (format!("radius={:.1}m", r as f64 / 10.0), r))
        .collect();
    let all_frames = runner::pmap("ablation-radius", cells, |radius_x10| {
        let strategy = SearchStrategy::Acacia {
            radius_m_x10: radius_x10,
        };
        fig11_frames(strategy, res, 24, 3, 42)
    });
    for (radius_x10, frames) in radii.into_iter().zip(all_frames) {
        let cands = frames.iter().map(|f| f.candidates).sum::<usize>() as f64 / frames.len() as f64;
        let correct = frames.iter().filter(|f| f.correct).count();
        t.row(vec![
            format!("{:.1}", radius_x10 as f64 / 10.0),
            format!("{cands:.1}"),
            fmt_secs(mean_match_s(&frames, Device::I7Octa)),
            format!("{:.0}%", 100.0 * correct as f64 / frames.len() as f64),
        ]);
    }
    t.note("too small: localization error evicts the true object (accuracy drops);");
    t.note("too large: candidates (and time) grow back toward Naive. 2.5 m ≈ the mean error.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_pruning_ratios_in_paper_band() {
        let res = Resolution::new(960, 720);
        // Fewer checkpoints/frames to keep the test quick.
        let acacia = fig11_frames(SearchStrategy::ACACIA_DEFAULT, res, 8, 2, 1);
        let rx = fig11_frames(SearchStrategy::RxPower, res, 8, 2, 1);
        let naive = fig11_frames(SearchStrategy::Naive, res, 8, 2, 1);
        let (ta, tr, tn) = (
            mean_match_s(&acacia, Device::I7Octa),
            mean_match_s(&rx, Device::I7Octa),
            mean_match_s(&naive, Device::I7Octa),
        );
        assert!(ta < tr && tr < tn, "{ta} {tr} {tn}");
        // Wider bands than the full-scale run (8 checkpoints instead of
        // 24 makes the per-checkpoint pruning variance visible).
        let vs_naive = tn / ta;
        let vs_rx = tr / ta;
        assert!((2.5..12.0).contains(&vs_naive), "naive/acacia {vs_naive}");
        assert!((1.2..5.0).contains(&vs_rx), "rx/acacia {vs_rx}");
    }

    #[test]
    fn fig11_accuracy_stays_high_for_acacia_and_naive() {
        let res = Resolution::new(720, 480);
        for strategy in [SearchStrategy::ACACIA_DEFAULT, SearchStrategy::Naive] {
            let frames = fig11_frames(strategy, res, 8, 2, 2);
            let correct = frames.iter().filter(|f| f.correct).count();
            let acc = correct as f64 / frames.len() as f64;
            assert!(acc > 0.8, "{} accuracy {acc}", strategy.name());
        }
    }

    #[test]
    fn fig12_contention_is_linear() {
        assert_eq!(contended_time_s(0.25, 4), 1.0);
    }
}
