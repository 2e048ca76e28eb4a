//! Memory follows live state, not history: a 1 024-UE, two-cell control
//! plane (the benchmark's `signalling` population) attaches, sets up its
//! bearers and walks a few handover laps inside a fixed resident-set
//! budget. What used to break it: a link-table row that cost a whole
//! `Link` per unused port number (165 KB per two-cell UE), a timer wheel
//! whose ring slots each kept the buffer of the one burst that passed
//! through them, and a message log with one entry per message ever sent.
//! A port number nobody connected now costs nothing (a row holds only its
//! connected ports), a rate-0 link keeps no transmission queue and no
//! per-class counters, links and nodes keep their random streams as a
//! seed and a position (16 B, not a 112 B generator), and a radio
//! scheduler frees its queue when it drains. The budget is tight enough
//! (it reads about 7.2 MB in a release build, 8.0 MB in a debug one; 7.5
//! and 8.5 MB when every rate-0 link kept a per-class counter vector;
//! 8.5 MB in a release build when every UE's scheduler kept an 896 B
//! `BTreeMap` leaf for life, 9.2 MB with 112 B generators) to catch
//! smaller per-entity waste too. It read
//! 11.9 MB (release) and 13.2 MB (debug) when a UE's
//! row paid a pointer per port number below 202 and every rate-0 link
//! kept a queue per DSCP class, and 17–18 MB
//! when links kept a `BTreeMap` per class, an inline fault plan and a
//! four-block RNG buffer.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia_geo::point::Point;
use acacia_integration::peak_rss_mb;
use acacia_lte::mobility::Waypoint;
use acacia_lte::network::{CellConfig, LteConfig, LteNetwork};
use acacia_lte::qci::Qci;
use acacia_lte::ue::Ue;
use acacia_lte::wire::PolicyRule;
use acacia_simnet::time::Duration;
use acacia_simnet::traffic::Reflector;

const UES: usize = 1_024;
const LAPS: u64 = 3;
const SPEED_MPS: f64 = 8.0;
const BUDGET_MB: f64 = 10.0;

#[test]
fn a_thousand_ue_control_plane_fits_in_10_mb() {
    let cell = |x| CellConfig {
        pos: Point::new(x, 0.0),
        mec: true,
        region: 0,
    };
    let mut net = LteNetwork::new(LteConfig {
        ue_count: UES,
        cells: vec![cell(0.0), cell(40.0)],
        ..LteConfig::default()
    });
    let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
    let built = peak_rss_mb();

    for i in 0..UES {
        let ue_addr = net.attach(i);
        net.activate_dedicated_bearer(
            i,
            PolicyRule {
                service_id: 1,
                ue_addr,
                server_addr: mec_addr,
                server_port: 0,
                qci: Qci(7),
                install: true,
            },
        );
    }

    // Every UE walks between the cells, its departure staggered over the
    // first lap; its measurement timer keeps firing the whole time, so the
    // timer bursts go round the wheel's ring many times over.
    let (near, far) = (Point::new(2.0, 0.0), Point::new(38.0, 0.0));
    let lap = Duration::from_secs_f64(2.0 * 36.0 / SPEED_MPS);
    for i in 0..UES {
        let wait = Duration::from_nanos(lap.nanos() * i as u64 / UES as u64);
        let mut walk = vec![Waypoint::dwelling(near, wait)];
        for _ in 0..LAPS {
            walk.push(Waypoint::passing(far));
            walk.push(Waypoint::passing(near));
        }
        net.start_mobility(i, walk, SPEED_MPS);
    }
    net.run_for(Duration::from_nanos(lap.nanos() * (LAPS + 1)) + Duration::from_secs(10));

    let handovers: u64 = net
        .ues
        .iter()
        .map(|&ue| net.sim.node_ref::<Ue>(ue).handovers)
        .sum();
    assert_eq!(handovers, UES as u64 * LAPS * 2, "the laps did not run");
    assert!(net.log.len() > 100 * UES, "the log counted nothing");

    let peak = peak_rss_mb();
    eprintln!("built {built:.1} MB, peak {peak:.1} MB");
    assert!(
        peak < BUDGET_MB,
        "peak RSS {peak:.1} MB (after `LteNetwork::new`: {built:.1} MB), budget {BUDGET_MB} MB"
    );
}
