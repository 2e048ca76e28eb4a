//! End-to-end scenario tests: the paper's §7.4 headline comparison at
//! smoke-test scale (small database, few frames) so they run quickly in
//! debug builds. The full-scale numbers are produced by the
//! `acacia-bench` figures harness.

use acacia::scenario::{Deployment, Scenario, ScenarioConfig};

fn run(deployment: Deployment) -> acacia::scenario::SessionReport {
    Scenario::build(ScenarioConfig::smoke(deployment)).run()
}

#[test]
fn acacia_session_completes_with_correct_matches() {
    let report = run(Deployment::Acacia);
    assert_eq!(report.frames.len(), 3, "all frames answered");
    assert!(report.accuracy > 0.65, "accuracy {}", report.accuracy);
    assert!(report.bearer_setup.is_some(), "MRS handshake happened");
    let setup = report.bearer_setup.unwrap();
    assert!(
        setup.millis() < 500,
        "bearer setup took {setup} (expected well under a second)"
    );
    // Every component is positive and they add up.
    for f in &report.frames {
        assert!(f.total_s() > 0.0);
        assert!(f.network_s() > 0.0);
        assert!(f.compute_s() > 0.0);
        assert!(f.match_s() > 0.0);
        let sum = f.network_s() + f.compute_s() + f.match_s();
        assert!((sum - f.total_s()).abs() < 1e-6);
    }
}

#[test]
fn cloud_session_runs_without_mrs() {
    let report = run(Deployment::Cloud);
    assert_eq!(report.frames.len(), 3);
    assert!(report.bearer_setup.is_none());
    assert!(report.accuracy > 0.65, "accuracy {}", report.accuracy);
}

#[test]
fn headline_ordering_acacia_beats_mec_beats_cloud() {
    let acacia = run(Deployment::Acacia);
    let mec = run(Deployment::Mec);
    let cloud = run(Deployment::Cloud);

    let (ta, tm, tc) = (
        acacia.mean_total_s(),
        mec.mean_total_s(),
        cloud.mean_total_s(),
    );
    assert!(
        ta < tm && tm < tc,
        "totals: acacia {ta:.3}s mec {tm:.3}s cloud {tc:.3}s"
    );

    // Network: ACACIA/MEC share the edge path; CLOUD is much slower.
    let na = acacia.mean_network_s();
    let nc = cloud.mean_network_s();
    assert!(nc / na > 2.0, "network cloud {nc:.3}s vs acacia {na:.3}s");

    // Match: ACACIA prunes, MEC/CLOUD do not (at smoke scale the DB has 21
    // objects; pruning still cuts it several-fold).
    let ma = acacia.mean_match_s();
    let mm = mec.mean_match_s();
    assert!(mm / ma > 2.0, "match mec {mm:.3}s vs acacia {ma:.3}s");

    // Compute is roughly equal across deployments ("no significant
    // difference between the different approaches").
    let ca = acacia.mean_compute_s();
    let cc = cloud.mean_compute_s();
    assert!(
        (ca / cc - 1.0).abs() < 0.2,
        "compute acacia {ca:.3}s vs cloud {cc:.3}s"
    );
}

#[test]
fn lossy_radio_still_completes_session() {
    // 3% residual frame loss on the air interface: the client's
    // retransmission logic must push every frame through (each ~50-chunk
    // upload loses a chunk or two with near-certainty).
    let report = Scenario::build(ScenarioConfig {
        radio_loss: 0.03,
        ..ScenarioConfig::smoke(Deployment::Acacia)
    })
    .run();
    assert_eq!(
        report.frames.len(),
        3,
        "all frames must complete despite loss"
    );
    assert!(report.accuracy > 0.65, "accuracy {}", report.accuracy);
    // Latency may be worse than the clean run, but must stay bounded (the
    // retransmission timeout is 500 ms).
    for f in &report.frames {
        assert!(
            f.total_s() < 5.0,
            "frame {} took {:.2}s",
            f.seq,
            f.total_s()
        );
    }
}

#[test]
fn alternative_proximity_technologies_complete_sessions() {
    // Paper §8: iBeacon / Wi-Fi Aware slot in for LTE-direct.
    for tech in [
        acacia_d2d::technology::ProximityTech::IBeacon,
        acacia_d2d::technology::ProximityTech::WifiAware,
    ] {
        let report = Scenario::build(ScenarioConfig {
            tech,
            ..ScenarioConfig::smoke(Deployment::Acacia)
        })
        .run();
        assert_eq!(report.frames.len(), 3, "{}", tech.name());
        assert!(
            report.bearer_setup.is_some(),
            "{}: discovery must still trigger the bearer",
            tech.name()
        );
        assert!(
            report.accuracy > 0.65,
            "{} accuracy {}",
            tech.name(),
            report.accuracy
        );
    }
}

#[test]
fn acacia_examines_fewer_candidates() {
    let acacia = run(Deployment::Acacia);
    let mec = run(Deployment::Mec);
    let mean_cands = |r: &acacia::scenario::SessionReport| {
        r.frames.iter().map(|f| f.candidates).sum::<usize>() as f64 / r.frames.len() as f64
    };
    let a = mean_cands(&acacia);
    let m = mean_cands(&mec);
    assert!(a < m / 2.0, "candidates acacia {a} vs mec {m}");
}

/// The server's running accuracy is exactly the one recounted from what
/// its client received: each delivered `FrameStats.matched` against the
/// tag of the object that frame photographed (frame `seq` photographs the
/// `seq`-th object, cyclically, of the subsection the user stands in).
/// At an execution cap of 4 descriptors some frames match the wrong
/// object, so the recount has both kinds of frame to tell apart.
#[test]
fn server_accuracy_equals_the_clients_recount() {
    use acacia_geo::floor::FloorPlan;
    use acacia_vision::db::ObjectDb;
    for deployment in [Deployment::Cloud, Deployment::Acacia] {
        let cfg = ScenarioConfig {
            frame_count: 8,
            exec_cap: 4,
            ..ScenarioConfig::smoke(deployment)
        };
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::retail_cached(cfg.db_per_subsection, cfg.seed);
        let at = floor.checkpoints[cfg.checkpoint % floor.checkpoints.len()].pos;
        let scene = db.in_subsections(&[floor.subsection_at(at).unwrap()]);
        let report = Scenario::build(cfg).run();
        assert_eq!(report.frames.len(), 8);
        let correct = report
            .frames
            .iter()
            .filter(|f| f.matched.as_deref() == Some(&*scene[f.seq as usize % scene.len()].tag))
            .count();
        assert!(0 < correct && correct < 8, "{deployment:?}: {correct}/8");
        assert_eq!(report.accuracy, correct as f64 / 8.0, "{deployment:?}");
    }
}
