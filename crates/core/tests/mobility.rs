//! Mobility e2e tests: an AR session that spans X2 handovers. The UE
//! walks from the MEC-equipped small cell to the far cell and back while
//! frames stream; the session must complete with zero application-level
//! failures in every variant. Each smoke walk also pins its recorded
//! per-UE (frames, handovers, retransmissions), (X2, S1AP, GTP-C)
//! messages, events, simulated time and liveness probes (sent, lost).

use acacia::corridor::{CorridorConfig, CorridorMode, CorridorReport, CorridorScenario};

fn run(mode: CorridorMode, recorded: &str) -> CorridorReport {
    let r = CorridorScenario::build(CorridorConfig::mobility_smoke(mode)).run();
    assert_eq!(
        r.wedged(),
        0,
        "{}/{} frames",
        r.frames_done(),
        r.frames_requested
    );
    // Out to the far cell and back: two handovers.
    assert_eq!(r.total_handovers(), 2, "walk crosses the A3 boundary twice");
    let u = &r.ues[0];
    let got = format!(
        "{:?} msgs {:?} events {} sim {} ms probes {:?}",
        (u.frames_done, u.handovers, u.retransmissions),
        (r.x2_msgs, r.s1ap_msgs, r.gtpc_msgs),
        r.events_processed,
        r.sim_elapsed.nanos() as f64 / 1e6,
        r.probes
    );
    assert_eq!(got, recorded, "{mode:?}");
    r
}

#[test]
fn reanchor_session_survives_both_handovers() {
    let report = run(
        CorridorMode::Reanchor,
        "(12, 2, 0) msgs (8, 10, 10) events 17713 sim 17100 ms probes (616, 1)",
    );
    // Each handover has a bounded service interruption.
    assert_eq!(report.interruptions_ms.len(), 2);
    for &gap in &report.interruptions_ms {
        assert!(gap < 500.0, "service interruption {gap} ms");
    }
    // The dedicated bearer followed the UE both times; nothing released.
    assert_eq!(report.dedicated_reanchored, 2);
    assert_eq!(report.dedicated_released, 0);
    // The device manager re-requested connectivity at each MEC cell and
    // the (idempotent) MRS handshake acked both times.
    assert_eq!(report.reanchors, (2, 2), "one re-anchor per handover");
}

#[test]
fn fallback_session_survives_on_the_default_bearer() {
    let report = run(
        CorridorMode::Fallback,
        "(12, 2, 0) msgs (8, 14, 13) events 24408 sim 17100 ms probes (616, 0)",
    );
    // Out: the far cell has no MEC, so the bearer is released and traffic
    // falls back to the default path. Back: the device manager re-creates
    // it on the home cell.
    assert_eq!(report.dedicated_released, 1);
    // The return-leg bearer is freshly *created* after the handover (the
    // device manager's re-request), not relocated during it.
    assert_eq!(report.dedicated_reanchored, 0);
    assert_eq!(report.reanchors, (1, 1), "re-create on returning to MEC");
}

#[test]
fn cloud_session_is_unaffected_by_bearer_machinery() {
    let report = run(
        CorridorMode::Cloud,
        "(12, 2, 0) msgs (8, 8, 8) events 22441 sim 17100 ms probes (616, 0)",
    );
    assert_eq!(report.dedicated_reanchored, 0);
    assert_eq!(report.dedicated_released, 0);
    assert_eq!(report.reanchors, (0, 0), "no MRS in the cloud baseline");
}
