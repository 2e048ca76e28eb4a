//! A saturated link's standing queue costs memory per packet in the link,
//! not per packet on the event wheel and not a doubled copy of its
//! packets: about 9 000 packets standing in one 12 MiB class queue — the
//! 100 Mbit/s core of `figures loaded` above capacity — grow the process's
//! peak resident set by less than 1.2 MB.
//! What used to break it: every queued packet was its own pending wheel
//! event, a 136 B slab cell plus a 32 B overflow handle for arrivals past
//! the wheel's 268 ms ring, and the run grew the peak by 1.86 MB. Then
//! the link held its in-flight packets per class, 80 B each, with only
//! each class's head on the wheel, but in one deque that doubled to
//! 16 384 entries: +1.3 to 1.45 MB. The packets behind the head now fill
//! fixed 256-packet blocks that are freed as they drain, but for the one
//! kept as the next block's spare: +0.87 to 1.07 MB, release or debug.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia_integration::peak_rss_mb;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::sim::Simulator;
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::{Sink, UdpSource};
use std::net::Ipv4Addr;

const QUEUE_BYTES: u64 = 12 * 1024 * 1024;
/// 1 400 B of payload, 1 428 B on the wire.
const PAYLOAD: u32 = 1_400;
const WIRE: u64 = 1_428;
const GROWTH_BUDGET_MB: f64 = 1.2;

#[test]
fn nine_thousand_queued_packets_grow_the_peak_by_under_1_2_mb() {
    // 200 Mbit/s offered to a 100 Mbit/s link for 1.5 s: the queue fills
    // after about a second and then stands full, dropping the excess.
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let stop = Instant::from_millis(1_500);
    let mut sim = Simulator::new(7);
    let source = sim.add_node(Box::new(
        UdpSource::cbr((src, 5000), (dst, 5001), 200_000_000, PAYLOAD).window(Instant::ZERO, stop),
    ));
    let sink = sim.add_node(Box::new(Sink::new()));
    let core =
        LinkConfig::rate_limited(100_000_000, Duration::from_millis(2)).with_queue(QUEUE_BYTES);
    sim.connect_simplex((source, 0), (sink, 0), core);
    sim.schedule_timer(source, Instant::ZERO, UdpSource::KICKOFF);
    let before = peak_rss_mb();

    sim.run_until(stop);
    let stats = sim.link_stats((source, 0)).expect("connected");
    let standing = stats.class(0).expect("one class").backlog_bytes / WIRE;
    sim.run_until_idle();

    let growth = peak_rss_mb() - before;
    let delivered = sim.node_ref::<Sink>(sink).packets();
    println!(
        "{standing} packets standing, {delivered} delivered: peak RSS {before:.1} MB before, \
         +{growth:.2} MB after"
    );
    assert!(
        standing >= QUEUE_BYTES / WIRE - 1,
        "{standing} packets standing"
    );
    assert!(stats.drops_queue > 0, "the queue overflowed");
    let stats = sim.link_stats((source, 0)).expect("connected");
    assert_eq!(delivered, stats.tx_packets);
    assert!(
        growth < GROWTH_BUDGET_MB,
        "the standing queue grew the peak RSS by {growth:.2} MB (budget {GROWTH_BUDGET_MB} MB)"
    );
}
