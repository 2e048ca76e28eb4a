//! A traffic sink's memory does not grow with what it receives: two
//! million datagrams cross a link into a `Sink`, and the process's peak
//! resident set grows by less than 2 MB. What used to break it: the sink
//! kept every packet's one-way delay in a `Vec<Duration>`, 16 MB for this
//! flood, and its regrowth was the peak of the whole `paper-net` run (the
//! `loaded` background sink). It now keeps a running sum and minimum.
//!
//! One test, alone in its binary: the high-water mark is the process's.
#![cfg(target_os = "linux")]

use acacia_integration::peak_rss_mb;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::sim::Simulator;
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::{Sink, UdpSource};
use std::net::Ipv4Addr;

const PACKETS: u64 = 2_000_000;
const GROWTH_BUDGET_MB: f64 = 2.0;

#[test]
fn two_million_packets_into_a_sink_grow_the_peak_by_under_2_mb() {
    // 1 M datagrams/s of 100 B (128 B on the wire) for two seconds.
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut sim = Simulator::new(7);
    let source = sim.add_node(Box::new(
        UdpSource::cbr((src, 5000), (dst, 5001), 1_024_000_000, 100)
            .window(Instant::ZERO, Instant::from_secs(2)),
    ));
    let sink = sim.add_node(Box::new(Sink::new()));
    sim.connect_simplex(
        (source, 0),
        (sink, 0),
        LinkConfig::delay_only(Duration::from_millis(1)),
    );
    sim.schedule_timer(source, Instant::ZERO, UdpSource::KICKOFF);
    let before = peak_rss_mb();

    sim.run_until_idle();

    let growth = peak_rss_mb() - before;
    let sink = sim.node_ref::<Sink>(sink);
    println!(
        "{} packets into the sink: peak RSS {before:.1} MB before, +{growth:.2} MB after",
        sink.packets()
    );
    assert_eq!(sink.packets(), PACKETS);
    assert_eq!(sink.min_delay(), Some(Duration::from_millis(1)));
    assert_eq!(sink.mean_delay_ms(), 1.0);
    assert!(
        growth < GROWTH_BUDGET_MB,
        "the sink grew the peak RSS by {growth:.2} MB (budget {GROWTH_BUDGET_MB} MB)"
    );
}
