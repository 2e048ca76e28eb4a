//! Focused tests of the AR server node: chunk reassembly, ack clocking,
//! localization ingestion and serial service.

use acacia::arserver::{ArServer, ArServerConfig};
use acacia::locmgr::{LocalizationManager, LocalizationMetadata};
use acacia::msg::{AppMsg, FrameMeta, APP_PORT, AR_PORT};
use acacia::search::SearchStrategy;
use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::PathLossModel;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::sim::{NodeId, Simulator};
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::Sink;
use acacia_vision::compress::Codec;
use acacia_vision::db::ObjectDb;
use acacia_vision::image::{ImageSpec, Resolution};
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 1);

fn setup(strategy: SearchStrategy) -> (Simulator, NodeId, NodeId, ObjectDb, FloorPlan) {
    let floor = FloorPlan::retail_store();
    let db = ObjectDb::generate_retail(&floor, 1, 33);
    let model = PathLossModel::indoor_default();
    let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
    let server = ArServer::new(
        ArServerConfig {
            device: acacia_vision::compute::Device::I7Octa,
            strategy,
            exec_cap: 16,
            ..ArServerConfig::new(SERVER)
        },
        db.clone(),
        floor.clone(),
        locmgr,
    );
    let mut sim = Simulator::new(1);
    let srv = sim.add_node(Box::new(server));
    let sink = sim.add_node(Box::new(Sink::new()));
    sim.connect(
        (srv, 0),
        (sink, 0),
        LinkConfig::delay_only(Duration::from_micros(100)),
    );
    (sim, srv, sink, db, floor)
}

fn frame_chunks(db: &ObjectDb, seq: u64, shuffle: bool) -> Vec<acacia_simnet::packet::Packet> {
    let target = &db.objects()[4];
    let spec = ImageSpec::new(target.id, Resolution::E2E);
    let meta = FrameMeta {
        spec,
        codec: Codec::Jpeg(90),
        view_seed: 9,
        captured_at_nanos: 0,
    };
    let total = 4u32;
    let mut chunks: Vec<_> = (0..total)
        .map(|chunk| {
            AppMsg::FrameChunk {
                seq,
                chunk,
                total_chunks: total,
                meta: (chunk == 0).then_some(meta),
            }
            .into_packet((CLIENT, APP_PORT), (SERVER, AR_PORT), 1_000, Instant::ZERO)
        })
        .collect();
    if shuffle {
        chunks.reverse();
    }
    chunks
}

#[test]
fn in_order_chunks_produce_acks_and_a_result() {
    let (mut sim, srv, sink, db, _) = setup(SearchStrategy::Naive);
    for (i, pkt) in frame_chunks(&db, 0, false).into_iter().enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(i as u64 * 100), pkt);
    }
    sim.run_until_idle();
    // 4 acks + 1 result.
    assert_eq!(sim.node_ref::<Sink>(sink).packets(), 5);
    let server = sim.node_ref::<ArServer>(srv);
    assert_eq!(server.records.len(), 1);
    let rec = &server.records[0];
    assert_eq!(rec.candidates, db.len());
    assert!(rec.matched.is_some(), "the photographed object must match");
    assert!(server.accuracy() > 0.99);
}

#[test]
fn out_of_order_chunks_still_reassemble() {
    let (mut sim, srv, _, db, _) = setup(SearchStrategy::Naive);
    for (i, pkt) in frame_chunks(&db, 0, true).into_iter().enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(i as u64 * 100), pkt);
    }
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<ArServer>(srv).records.len(), 1);
}

#[test]
fn duplicate_chunks_process_once() {
    let (mut sim, srv, _, db, _) = setup(SearchStrategy::Naive);
    let chunks = frame_chunks(&db, 0, false);
    for (i, pkt) in chunks.iter().enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(i as u64 * 100), pkt.clone());
    }
    // Re-inject the middle chunk twice more (retransmissions).
    sim.inject_packet(srv, 0, Instant::from_micros(900), chunks[1].clone());
    sim.inject_packet(srv, 0, Instant::from_micros(950), chunks[2].clone());
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<ArServer>(srv).records.len(), 1);
}

#[test]
fn incomplete_frame_never_processes() {
    let (mut sim, srv, sink, db, _) = setup(SearchStrategy::Naive);
    let chunks = frame_chunks(&db, 0, false);
    // Withhold the last chunk.
    for (i, pkt) in chunks.into_iter().take(3).enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(i as u64 * 100), pkt);
    }
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<ArServer>(srv).records.len(), 0);
    // Acks still flowed (they clock the client's window).
    assert_eq!(sim.node_ref::<Sink>(sink).packets(), 3);
}

#[test]
fn rx_reports_feed_pruning() {
    let (mut sim, srv, _, db, floor) = setup(SearchStrategy::ACACIA_DEFAULT);
    // Reports consistent with standing at checkpoint C11 (14±, 7.5).
    let model = PathLossModel::indoor_default();
    let pos = floor.checkpoints[10].pos;
    let mut t = 0u64;
    for lm in &floor.landmarks {
        let rx = model.rx_power_dbm(pos.distance(lm.pos));
        let pkt = AppMsg::RxReport {
            landmark: lm.name.clone(),
            rx_power_dbm: rx,
        }
        .into_packet((CLIENT, APP_PORT), (SERVER, AR_PORT), 0, Instant::ZERO);
        sim.inject_packet(srv, 0, Instant::from_micros(t), pkt);
        t += 50;
    }
    for pkt in frame_chunks(&db, 0, false) {
        sim.inject_packet(srv, 0, Instant::from_micros(t), pkt);
        t += 100;
    }
    sim.run_until_idle();
    let server = sim.node_ref::<ArServer>(srv);
    assert_eq!(server.reports_seen, 7);
    assert_eq!(server.records.len(), 1);
    assert!(
        server.records[0].candidates < db.len(),
        "localized server must prune ({} of {})",
        server.records[0].candidates,
        db.len()
    );
}

#[test]
fn two_frames_are_served_serially() {
    let (mut sim, srv, sink, db, _) = setup(SearchStrategy::Naive);
    for (i, pkt) in frame_chunks(&db, 0, false).into_iter().enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(i as u64 * 10), pkt);
    }
    for (i, pkt) in frame_chunks(&db, 1, false).into_iter().enumerate() {
        sim.inject_packet(srv, 0, Instant::from_micros(1_000 + i as u64 * 10), pkt);
    }
    sim.run_until_idle();
    let server = sim.node_ref::<ArServer>(srv);
    assert_eq!(server.records.len(), 2);
    // The serial processor spaces results by at least the second frame's
    // service time: both frames arrived within ~1 ms, but the two results
    // must be separated by roughly one full (compute + match) interval.
    let s = sim.node_ref::<Sink>(sink);
    // Last two arrivals are the results (acks precede them).
    let results = [s.last_arrival().unwrap()];
    let service = server.records[1].compute_s + server.records[1].match_s;
    let first_possible = Duration::from_secs_f64(service * 2.0); // two serial services
    assert!(
        results[0] >= Instant::ZERO + first_possible,
        "second result at {} should wait for two service times ({service}s each)",
        results[0]
    );
}
