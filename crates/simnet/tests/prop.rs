//! Property-based tests for the simulator substrate.

use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::{l4_header_len, Message, Packet, Payload};
use acacia_simnet::prelude::*;
use acacia_simnet::stats::Series;
use acacia_simnet::time::serialization_time;
use proptest::prelude::*;
use rand::RngCore;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::{ChaCha8Rng, ChaCha8Stream};
use std::net::Ipv4Addr;

/// A message that is only a length.
#[derive(Debug, PartialEq)]
struct Opaque(u32);

impl Message for Opaque {
    fn encoded_len(&self) -> u32 {
        self.0
    }
}

proptest! {
    /// Instant/Duration arithmetic round-trips.
    #[test]
    fn time_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = Instant::from_nanos(base);
        let d = Duration::from_nanos(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Serialization time is monotone in size and antitone in rate.
    #[test]
    fn serialization_monotone(bytes in 1u64..10_000_000, rate in 1_000u64..10_000_000_000) {
        let t = serialization_time(bytes, rate);
        prop_assert!(serialization_time(bytes + 1, rate) >= t);
        prop_assert!(serialization_time(bytes, rate * 2) <= t);
        // Exact formula within a nanosecond of rounding.
        let expect = bytes as f64 * 8.0 / rate as f64;
        prop_assert!((t.secs_f64() - expect).abs() < 1e-6 + expect * 1e-9);
    }

    /// Wire size always covers headers + typed and virtual payload.
    #[test]
    fn wire_size_composition(app_len in 0u32..100_000, proto_byte in 0u8..255, payload_len in 0usize..512) {
        let mut p = Packet::udp((Ipv4Addr::UNSPECIFIED, 0), (Ipv4Addr::UNSPECIFIED, 0), app_len);
        p.protocol = proto_byte;
        p.payload = Payload::typed(0, Opaque(payload_len as u32));
        prop_assert_eq!(
            p.wire_size(),
            20 + l4_header_len(proto_byte) + payload_len as u32 + app_len
        );
    }

    /// Longest-prefix match: a /32 host route always beats anything else.
    #[test]
    fn lpm_host_route_wins(addr in any::<u32>(), plen in 0u8..=24) {
        let ip = Ipv4Addr::from(addr);
        let mut t = RouteTable::new();
        t.add(Ipv4Net::new(ip, plen), 1);
        t.add(Ipv4Net::host(ip), 2);
        prop_assert_eq!(t.lookup(ip), Some(2));
    }

    /// Series percentiles are monotone and bounded by min/max.
    #[test]
    fn percentiles_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Series::from_iter(values.clone());
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= last);
            prop_assert!(v >= s.min() && v <= s.max());
            last = v;
        }
        let cdf = s.cdf();
        prop_assert_eq!(cdf.len(), values.len());
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// The position-addressed stream every link and node draws from
    /// gives exactly the words of the buffered generator seeded the same
    /// way, under any mix of reads: `next_u64` straddling a block end and
    /// odd-length fills ending mid-word included.
    #[test]
    fn chacha8_stream_matches_buffered_generator(
        seed in any::<u64>(),
        reads in prop::collection::vec((0u8..3, 0usize..40), 1..120),
    ) {
        let mut want = ChaCha8Rng::seed_from_u64(seed);
        let mut got = ChaCha8Stream::seed_from_u64(seed);
        for (i, &(kind, n)) in reads.iter().enumerate() {
            match kind {
                0 => prop_assert_eq!(got.next_u32(), want.next_u32(), "read {}", i),
                1 => prop_assert_eq!(got.next_u64(), want.next_u64(), "read {}", i),
                _ => {
                    let len = 2 * n + 1;
                    let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                    got.fill_bytes(&mut a);
                    want.fill_bytes(&mut b);
                    prop_assert_eq!(a, b, "read {}: {}-byte fill", i, len);
                }
            }
        }
    }

    /// Links conserve packets: delivered + dropped = offered, and
    /// deliveries never beat propagation delay.
    #[test]
    fn link_conservation(
        n in 1usize..60,
        rate in 100_000u64..100_000_000,
        delay_us in 0u64..50_000,
        loss in 0.0f64..0.3,
        queue in 2_000u64..2_000_000,
    ) {
        let mut sim = Simulator::new(7);
        let src = sim.add_node(Box::new(
            UdpSource::cbr(
                (Ipv4Addr::new(10, 0, 0, 1), 1),
                (Ipv4Addr::new(10, 0, 0, 2), 2),
                10_000_000,
                1_000,
            )
            .window(Instant::ZERO, Instant::from_millis(n as u64)),
        ));
        let sink = sim.add_node(Box::new(Sink::new()));
        let cfg = LinkConfig::rate_limited(rate, Duration::from_micros(delay_us))
            .with_loss(loss)
            .with_queue(queue);
        sim.connect_simplex((src, 0), (sink, 0), cfg);
        sim.schedule_timer(src, Instant::ZERO, UdpSource::KICKOFF);
        sim.run_until_idle();

        let stats = sim.link_stats((src, 0)).unwrap();
        let sent = sim.node_ref::<acacia_simnet::traffic::UdpSource>(src).sent;
        let delivered = sim.node_ref::<Sink>(sink).packets();
        prop_assert_eq!(stats.tx_packets, delivered);
        prop_assert_eq!(delivered + stats.drops(), sent);
        if let Some(d) = sim.node_ref::<Sink>(sink).min_delay() {
            prop_assert!(d >= Duration::from_micros(delay_us));
        }
    }

    /// The timing wheel pops in exactly the ascending `(at, seq)` order a
    /// binary-heap reference model produces, for any interleaving of
    /// schedules and pops — near-cursor ties, in-ring events, and
    /// beyond-horizon overflow alike. This is the equivalence that let the
    /// engine swap its `BinaryHeap` event queue for the wheel without
    /// changing a byte of experiment output.
    #[test]
    fn wheel_matches_heap_reference(
        // (selector, raw): selector % 5 < 3 schedules (selector % 3 picks
        // the delta regime), otherwise pops.
        ops in prop::collection::vec((any::<u8>(), any::<u32>()), 1..400)
    ) {
        use acacia_simnet::wheel::TimerWheel;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64; // advances to each popped deadline, like the engine clock
        for (selector, raw) in ops {
            if selector % 5 < 3 {
                // Three delta regimes: same-slot ties, in-ring, and far
                // enough to land in (and migrate out of) overflow.
                let delta = match selector % 3 {
                    0 => u64::from(raw) & 0xFFFF,
                    1 => u64::from(raw) << 4,
                    _ => u64::from(raw) << 16,
                };
                let at = Instant::from_nanos(now + delta);
                wheel.schedule(at, seq, seq);
                heap.push(Reverse((at, seq)));
                seq += 1;
            } else {
                prop_assert_eq!(
                    wheel.peek_key(),
                    heap.peek().map(|&Reverse((at, s))| (at, s))
                );
                match (heap.pop(), wheel.pop()) {
                    (None, None) => {}
                    (Some(Reverse((at, s))), got) => {
                        prop_assert_eq!(got, Some((at, s, s)));
                        now = at.nanos();
                    }
                    (None, got) => prop_assert_eq!(got, None),
                }
            }
        }
        // Drain: the full backlog comes out in reference order.
        while let Some(Reverse((at, s))) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some((at, s, s)));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }

    /// The sharded engine's conservative-lookahead exchange preserves the
    /// merged-wheel total order: an arbitrary multi-region topology —
    /// cross-shard links with arbitrary positive delays (short enough to
    /// stay in-ring, long enough to land in the wheel's overflow slots
    /// and migrate out mid-rotation), zero-delay same-region chains, and
    /// every kickoff scheduled at the same instant so `(at, key)` ties
    /// cross shard boundaries — produces byte-identical observables at
    /// every shard count, and the exchange conserves every event it
    /// carries.
    #[test]
    fn sharded_exchange_matches_merged_wheel(
        seed in any::<u64>(),
        regions in 2usize..=4,
        cross_delays_us in prop::collection::vec(1u64..100_000, 4),
        counts in prop::collection::vec(1u32..12, 8),
        intervals_us in prop::collection::vec(1u64..100_000, 8),
    ) {
        let run = |shards: usize| {
            let mut sim = Simulator::with_shards(seed, shards);
            let mut pings = Vec::new();
            for r in 0..regions {
                // Cross-shard pair: ping in region r, reflector in the
                // next region, positive link delay (the lookahead source).
                let ping = sim.add_node_in_region(
                    Box::new(PingAgent::new(
                        Ipv4Addr::new(10, 0, r as u8, 1),
                        Ipv4Addr::new(10, 0, ((r + 1) % regions) as u8, 2),
                        Duration::from_micros(intervals_us[2 * r % intervals_us.len()]),
                        counts[2 * r % counts.len()] as u64,
                    )),
                    r as u32,
                );
                let refl = sim.add_node_in_region(
                    Box::new(Reflector::new()),
                    ((r + 1) % regions) as u32,
                );
                sim.connect(
                    (ping, 0),
                    (refl, 0),
                    LinkConfig::delay_only(Duration::from_micros(
                        cross_delays_us[r % cross_delays_us.len()],
                    ))
                    .with_jitter(Duration::from_micros(500))
                    .with_loss(0.05),
                );
                pings.push(ping);

                // Same-region pair on a zero-delay link: same-instant
                // chains whose ties must resolve identically everywhere.
                let local = sim.add_node_in_region(
                    Box::new(PingAgent::new(
                        Ipv4Addr::new(10, 1, r as u8, 1),
                        Ipv4Addr::new(10, 1, r as u8, 2),
                        Duration::from_micros(intervals_us[(2 * r + 1) % intervals_us.len()]),
                        counts[(2 * r + 1) % counts.len()] as u64,
                    )),
                    r as u32,
                );
                let lrefl = sim.add_node_in_region(Box::new(Reflector::new()), r as u32);
                sim.connect((local, 0), (lrefl, 0), LinkConfig::delay_only(Duration::ZERO));
                pings.push(local);
            }
            for &p in &pings {
                sim.schedule_timer(p, Instant::ZERO, PingAgent::KICKOFF);
            }
            sim.run_until_idle();
            let rtts: Vec<Vec<Duration>> = pings
                .iter()
                .map(|&p| sim.node_ref::<PingAgent>(p).rtts().to_vec())
                .collect();
            (rtts, sim.events_processed(), sim.cross_shard_sent(), sim.cross_shard_received())
        };

        let (rtts1, events1, xs1, xr1) = run(1);
        prop_assert_eq!(xs1, 0);
        prop_assert_eq!(xr1, 0);
        for shards in [2, regions, 8] {
            let (rtts, events, xsent, xrecv) = run(shards);
            prop_assert_eq!(&rtts, &rtts1, "shards={} diverged", shards);
            prop_assert_eq!(events, events1, "shards={} event count drifted", shards);
            prop_assert_eq!(xsent, xrecv, "shards={} exchange lost events", shards);
        }
    }

    /// Simulation runs are deterministic functions of the seed.
    #[test]
    fn determinism(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let ping = sim.add_node(Box::new(PingAgent::new(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                Duration::from_millis(7),
                20,
            )));
            let refl = sim.add_node(Box::new(Reflector::new()));
            sim.connect(
                (ping, 0),
                (refl, 0),
                LinkConfig::delay_only(Duration::from_millis(1))
                    .with_jitter(Duration::from_millis(2))
                    .with_loss(0.1),
            );
            sim.schedule_timer(ping, Instant::ZERO, PingAgent::KICKOFF);
            sim.run_until_idle();
            sim.node_ref::<PingAgent>(ping).rtts().to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

use acacia_simnet::fault::{FaultPlan, FaultRule, NodeFaultPlan, NodeFaultRule, PacketClass};

/// A ping/reflector mesh with a node-fault plan: the full observable
/// trace of the run.
fn faulted_trace(
    sim_seed: u64,
    plan: Option<&NodeFaultPlan>,
    packet_faults: Option<FaultPlan>,
) -> (Vec<Vec<Duration>>, u64, u64, u64, u64) {
    let mut sim = Simulator::new(sim_seed);
    let mut pings = Vec::new();
    let mut refls = Vec::new();
    for i in 0..3u8 {
        let ping = sim.add_node(Box::new(PingAgent::new(
            Ipv4Addr::new(10, 0, i, 1),
            Ipv4Addr::new(10, 0, i, 2),
            Duration::from_millis(3),
            12,
        )));
        let refl = sim.add_node(Box::new(Reflector::new()));
        sim.connect(
            (ping, 0),
            (refl, 0),
            LinkConfig::delay_only(Duration::from_millis(1))
                .with_jitter(Duration::from_micros(200)),
        );
        pings.push(ping);
        refls.push(refl);
    }
    if let Some(fp) = packet_faults {
        sim.attach_fault_plan((pings[0], 0), fp);
    }
    if let Some(p) = plan {
        sim.attach_node_fault_plan(p);
    }
    for &p in &pings {
        sim.schedule_timer(p, Instant::ZERO, PingAgent::KICKOFF);
    }
    sim.run_until_idle();
    (
        pings
            .iter()
            .map(|&p| sim.node_ref::<PingAgent>(p).rtts().to_vec())
            .collect(),
        sim.events_processed(),
        sim.node_restarts(),
        sim.node_arrivals_rejected(),
        sim.node_timers_dropped(),
    )
}

/// The rules every plan permutation below is built from: a crash-restart
/// on each of two reflectors, a second, later crash-restart on the first
/// (so its windows must be sorted), and a crash-stop on a ping.
fn fault_rules(ats_us: &[u64; 3], outage_us: u64) -> Vec<NodeFaultRule> {
    // Node ids follow `faulted_trace`'s creation order: ping i = 2i,
    // reflector i = 2i + 1.
    let outage = Duration::from_micros(outage_us);
    let at0 = Instant::from_micros(ats_us[0]);
    vec![
        NodeFaultRule::crash_restart(1, at0, outage),
        NodeFaultRule::crash_restart(3, Instant::from_micros(ats_us[1]), outage),
        NodeFaultRule::crash_stop(4, Instant::from_micros(ats_us[2])),
        NodeFaultRule::crash_restart(1, at0 + Duration::from_micros(2 * outage_us), outage),
    ]
}

proptest! {
    /// A [`NodeFaultPlan`]'s outcome is a function of its rule set only:
    /// inserting the same rules in any order gives a byte-identical run.
    #[test]
    fn node_fault_plan_is_insertion_order_invariant(
        sim_seed in any::<u64>(),
        at0_us in 1_000u64..30_000,
        at1_us in 1_000u64..30_000,
        at2_us in 1_000u64..30_000,
        outage_us in 500u64..20_000,
        rot in 0usize..4,
        rev in any::<bool>(),
    ) {
        let rules = fault_rules(&[at0_us, at1_us, at2_us], outage_us);
        let forward = {
            let mut plan = NodeFaultPlan::default();
            for r in &rules {
                plan.add_rule(r.clone());
            }
            faulted_trace(sim_seed, Some(&plan), None)
        };
        let permuted = {
            let mut reordered = rules.clone();
            reordered.rotate_left(rot);
            if rev {
                reordered.reverse();
            }
            let mut plan = NodeFaultPlan::default();
            for r in reordered {
                plan.add_rule(r);
            }
            faulted_trace(sim_seed, Some(&plan), None)
        };
        prop_assert_eq!(forward, permuted);
    }

    /// Faults off ⇒ byte-identical to no plan at all: an empty node-fault
    /// plan and a packet fault plan whose only rule never fires must both
    /// leave the run untouched.
    #[test]
    fn faults_off_is_byte_identical_to_no_plan(
        sim_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let baseline = faulted_trace(sim_seed, None, None);

        let empty = NodeFaultPlan::default();
        prop_assert_eq!(&faulted_trace(sim_seed, Some(&empty), None), &baseline);

        let no_drops = FaultPlan::new(plan_seed)
            .with_rule(FaultRule::drop(PacketClass::any(), 0.0));
        prop_assert_eq!(&faulted_trace(sim_seed, None, Some(no_drops)), &baseline);

        // And the engine's fault counters all stayed zero.
        let (_, _, restarts, rejected, timers) = baseline;
        prop_assert_eq!((restarts, rejected, timers), (0, 0, 0));
    }
}

/// An arbitrary multi-region ping mesh with skewed per-region weight: a
/// ring of cross-region pairs (positive-delay links, the lookahead
/// source) plus 0–2 extra same-region pairs per region so the regions
/// differ in node/link weight and balanced placement actually has
/// decisions to make. Returns the full observable trace plus the
/// engine's chosen `(region, shard, weight)` assignment.
type MeshTrace = (Vec<Vec<Duration>>, u64, Vec<(u32, u32, u64)>);

fn placement_mesh(
    seed: u64,
    regions: usize,
    shards: usize,
    bias_on_region0: u64,
    delays_us: &[u64],
    counts: &[u32],
    intervals_us: &[u64],
) -> MeshTrace {
    let mut sim = Simulator::with_shards(seed, shards);
    if bias_on_region0 > 0 {
        sim.set_region_weight_bias(0, bias_on_region0);
    }
    let mut pings = Vec::new();
    for r in 0..regions {
        let ping = sim.add_node_in_region(
            Box::new(PingAgent::new(
                Ipv4Addr::new(10, 0, r as u8, 1),
                Ipv4Addr::new(10, 0, ((r + 1) % regions) as u8, 2),
                Duration::from_micros(intervals_us[r % intervals_us.len()]),
                counts[r % counts.len()] as u64,
            )),
            r as u32,
        );
        let refl = sim.add_node_in_region(Box::new(Reflector::new()), ((r + 1) % regions) as u32);
        sim.connect(
            (ping, 0),
            (refl, 0),
            LinkConfig::delay_only(Duration::from_micros(delays_us[r % delays_us.len()]))
                .with_jitter(Duration::from_micros(300))
                .with_loss(0.02),
        );
        pings.push(ping);
        for extra in 0..(r % 3) {
            let local = sim.add_node_in_region(
                Box::new(PingAgent::new(
                    Ipv4Addr::new(10, 1, r as u8, 2 * extra as u8 + 1),
                    Ipv4Addr::new(10, 1, r as u8, 2 * extra as u8 + 2),
                    Duration::from_micros(intervals_us[(r + extra + 1) % intervals_us.len()]),
                    counts[(r + extra + 1) % counts.len()] as u64,
                )),
                r as u32,
            );
            let lrefl = sim.add_node_in_region(Box::new(Reflector::new()), r as u32);
            sim.connect(
                (local, 0),
                (lrefl, 0),
                LinkConfig::delay_only(Duration::ZERO),
            );
            pings.push(local);
        }
    }
    for &p in &pings {
        sim.schedule_timer(p, Instant::ZERO, PingAgent::KICKOFF);
    }
    sim.run_until_idle();
    let rtts = pings
        .iter()
        .map(|&p| sim.node_ref::<PingAgent>(p).rtts().to_vec())
        .collect();
    (rtts, sim.events_processed(), sim.region_assignments())
}

proptest! {
    /// Balanced placement is an engine-internal remapping: for any
    /// topology and any shard count it produces byte-identical
    /// observables to the one-shard run, conserves the per-region weights
    /// it bin-packs (they are a function of the topology alone), and the
    /// assignment is deterministic and seed-independent.
    #[test]
    fn balanced_placement_matches_one_shard_on_any_topology(
        seed in any::<u64>(),
        regions in 2usize..=5,
        delays_us in prop::collection::vec(1u64..50_000, 3),
        counts in prop::collection::vec(1u32..8, 4),
        intervals_us in prop::collection::vec(1u64..50_000, 4),
    ) {
        let (rtts_1, ev_1, asg_1) =
            placement_mesh(seed, regions, 1, 0, &delays_us, &counts, &intervals_us);
        for shards in [2usize, 3, 8] {
            let (rtts_b, ev_b, asg_b) =
                placement_mesh(seed, regions, shards, 0, &delays_us, &counts, &intervals_us);
            prop_assert_eq!(&rtts_b, &rtts_1, "shards={} placement diverged", shards);
            prop_assert_eq!(ev_b, ev_1, "shards={} event count drifted", shards);
            // Weights come from the topology, not the shard count …
            let w_1: Vec<(u32, u64)> = asg_1.iter().map(|&(r, _, w)| (r, w)).collect();
            let w_b: Vec<(u32, u64)> = asg_b.iter().map(|&(r, _, w)| (r, w)).collect();
            prop_assert_eq!(w_b, w_1, "shards={} weights not conserved", shards);
            prop_assert!(asg_b.iter().all(|&(_, s, _)| (s as usize) < shards));
            // … and the assignment ignores the seed entirely.
            let (_, _, asg_b2) = placement_mesh(
                seed.wrapping_add(1), regions, shards, 0, &delays_us, &counts, &intervals_us,
            );
            prop_assert_eq!(asg_b2, asg_b, "shards={} assignment depends on seed", shards);
        }
    }

    /// A region weight bias is placement advice only: it may move
    /// regions between shards and it inflates the biased region's
    /// reported weight by exactly the bias, but the observable trace
    /// and event count never change.
    #[test]
    fn region_weight_bias_is_placement_advice_only(
        seed in any::<u64>(),
        regions in 2usize..=5,
        bias in 1u64..10_000,
        delays_us in prop::collection::vec(1u64..50_000, 3),
        counts in prop::collection::vec(1u32..8, 4),
        intervals_us in prop::collection::vec(1u64..50_000, 4),
    ) {
        for shards in [2usize, 3, 8] {
            let (rtts_p, ev_p, asg_p) =
                placement_mesh(seed, regions, shards, 0, &delays_us, &counts, &intervals_us);
            let (rtts_b, ev_b, asg_b) =
                placement_mesh(seed, regions, shards, bias, &delays_us, &counts, &intervals_us);
            prop_assert_eq!(&rtts_b, &rtts_p, "shards={} bias changed observables", shards);
            prop_assert_eq!(ev_b, ev_p, "shards={} bias changed event count", shards);
            let weight = |asg: &[(u32, u32, u64)], r: u32| {
                asg.iter().find(|&&(reg, _, _)| reg == r).map(|&(_, _, w)| w)
            };
            for &(r, _, _) in &asg_p {
                let expect = weight(&asg_p, r).unwrap() + if r == 0 { bias } else { 0 };
                prop_assert_eq!(weight(&asg_b, r), Some(expect), "region {} weight", r);
            }
        }
    }
}

/// Offers a burst of datagrams on each of its ports every `every` until
/// `until`, cycling through DSCP 0, 10 and 46 and five sizes. A packet's
/// id is `id_base` plus the sender's running count.
struct Burster {
    ports: usize,
    burst: u32,
    every: Duration,
    until: Instant,
    id_base: u64,
    sent: u64,
}

impl Node for Burster {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
        for port in 0..self.ports {
            for _ in 0..self.burst {
                let n = self.sent;
                self.sent += 1;
                let tos = [0, 10, 46][(n % 3) as usize] << 2;
                let ends = (
                    (Ipv4Addr::new(10, 0, 0, 1), 1),
                    (Ipv4Addr::new(10, 0, 0, 2), 2),
                );
                let pkt = Packet::udp(ends.0, ends.1, 100 + (n % 5) as u32 * 300)
                    .with_tos(tos)
                    .with_id(self.id_base + n);
                ctx.send(port, pkt);
            }
        }
        if ctx.now() + self.every < self.until {
            ctx.schedule_in(self.every, 0);
        }
    }
}

/// Records every arrival as `(at, port, packet id)`. The record is the
/// harness's, so it survives a crash-restart.
#[derive(Default)]
struct Recorder(Vec<(Instant, PortId, u64)>);

impl Node for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        self.0.push((ctx.now(), port, pkt.id));
    }
    fn on_restart(&mut self) {}
}

/// One rated link of the chain property: rate (Mbit/s), delay and jitter
/// (µs, none when `None`), loss, queue bound (KiB, unbounded when `None`)
/// and which injected faults it carries (bit 0: duplicate, bit 1:
/// reorder).
type ChainLink = (u64, u64, Option<u64>, f64, Option<u64>, u8);

/// What one run of the chain property leaves behind: each receiver's
/// `(at, port, packet id)` trace; per link its packets sent, queue drops,
/// losses, injected duplicates and reorders; the events, arrivals,
/// rejected arrivals, restarts and cross-shard arrivals; and whether the
/// mid-run bias moved a region to another shard.
type ChainTrace = (
    Vec<Vec<(Instant, PortId, u64)>>,
    Vec<[u64; 5]>,
    [u64; 5],
    bool,
);

/// Three bursting senders, two ports each, feed two receivers over six
/// rated links (`links`, one per sender port), node `i` in region
/// `regions[i]`. Receiver 3 crashes and restarts; at `cut_at` every
/// even-numbered link's delay is cut to a quarter (packets sent after it
/// overtake the ones still in flight) and a region is biased until it
/// moves to another shard, which re-deals the nodes while chains are open.
fn chain_run(
    seed: u64,
    shards: usize,
    regions: &[u32; 5],
    links: &[ChainLink],
    (every_us, burst): (u64, u32),
    (crash_at_us, outage_us): (u64, u64),
    cut_at: Instant,
) -> ChainTrace {
    let mut sim = Simulator::with_shards(seed, shards);
    let senders: Vec<NodeId> = (0..3u64)
        .map(|s| {
            let burster = Burster {
                ports: 2,
                burst,
                every: Duration::from_micros(every_us),
                until: Instant::from_millis(40),
                id_base: s << 32,
                sent: 0,
            };
            sim.add_node_in_region(Box::new(burster), regions[s as usize])
        })
        .collect();
    let receivers: Vec<NodeId> = (3..5)
        .map(|i| sim.add_node_in_region(Box::<Recorder>::default(), regions[i]))
        .collect();
    let mut ports = Vec::new();
    for (i, &(rate_mbps, delay_us, jitter_us, loss, queue_kib, faults)) in links.iter().enumerate()
    {
        let from = (senders[i / 2], i % 2);
        let cfg = LinkConfig::rate_limited(rate_mbps * 1_000_000, Duration::from_micros(delay_us))
            .with_jitter(Duration::from_micros(jitter_us.unwrap_or(0)))
            .with_loss(loss)
            .with_queue(queue_kib.map_or(u64::MAX, |k| k * 1024));
        sim.connect_simplex(from, (receivers[i % 2], i), cfg);
        if faults != 0 {
            let mut plan = FaultPlan::new(seed ^ i as u64);
            if faults & 1 != 0 {
                let mut dup = FaultRule::duplicate(PacketClass::any(), 0.1);
                dup.extra_delay = Duration::from_micros(delay_us / 3);
                plan = plan.with_rule(dup);
            }
            if faults & 2 != 0 {
                let extra = Duration::from_micros(2 * delay_us);
                plan = plan.with_rule(FaultRule::reorder(PacketClass::any(), 0.1, extra));
            }
            sim.attach_fault_plan(from, plan);
        }
        ports.push(from);
    }
    let mut crash = NodeFaultPlan::default();
    crash.add_rule(NodeFaultRule::crash_restart(
        receivers[0],
        Instant::from_micros(crash_at_us),
        Duration::from_micros(outage_us),
    ));
    sim.attach_node_fault_plan(&crash);
    for &s in &senders {
        sim.schedule_timer(s, Instant::ZERO, 0);
    }

    sim.run_until(cut_at);
    for &from in ports.iter().step_by(2) {
        sim.reconfigure_link(from, |cfg| {
            cfg.delay = Duration::from_nanos(cfg.delay.nanos() / 4)
        });
    }
    let before = sim.region_assignments();
    let mut moved = false;
    for r in 0..3 {
        sim.set_region_weight_bias(r, 1_000);
        let now = sim.region_assignments();
        moved = now.iter().zip(&before).any(|(a, b)| a.1 != b.1);
        if moved {
            break;
        }
        sim.set_region_weight_bias(r, 0);
    }
    sim.run_until_idle();

    let traces = receivers
        .iter()
        .map(|&r| sim.node_ref::<Recorder>(r).0.clone())
        .collect();
    let per_link = ports
        .iter()
        .map(|&from| {
            let s = sim.link_stats(from).expect("connected");
            [
                s.tx_packets,
                s.drops_queue,
                s.drops_loss,
                s.duplicates_injected,
                s.reorders_injected,
            ]
        })
        .collect();
    let counters = [
        sim.events_processed(),
        sim.arrivals_dispatched(),
        sim.node_arrivals_rejected(),
        sim.node_restarts(),
        sim.cross_shard_sent(),
    ];
    (traces, per_link, counters, moved)
}

proptest! {
    /// A link's chains deliver exactly what one arrival event per packet
    /// delivers. The reference run puts every sender on one shard and
    /// every receiver on the other, so each packet is its own arrival
    /// event at the instant `Link::transmit` returned for it. On one
    /// shard every rated link chains its local deliveries; on two some
    /// links chain and some cross, and the mid-run region move flushes
    /// the open chains. Both give the reference's per-receiver
    /// `(at, port, packet id)` trace, in `(at, key)` order, and its link
    /// and engine counters, with every accepted copy delivered or
    /// rejected exactly once — through jitter, loss, drop-tail, injected
    /// duplicates and reorders, a delay cut mid-flight and a receiver's
    /// crash-restart.
    #[test]
    fn chained_links_deliver_like_direct_arrivals(
        seed in any::<u64>(),
        links in prop::collection::vec(
            (2u64..20, 500u64..20_000, prop::option::of(1u64..2_000), 0.0f64..0.1,
             prop::option::of(16u64..1_024), 0u8..4),
            6,
        ),
        traffic in (1_000u64..5_000, 1u32..12),
        crash in (0u64..40_000, 1_000u64..20_000),
        receiver_regions in (0u32..3, 0u32..3),
        cut_at_us in 1_000u64..40_000,
    ) {
        let cut_at = Instant::from_micros(cut_at_us);
        let run = |shards: usize, regions: &[u32; 5]| {
            chain_run(seed, shards, regions, &links, traffic, crash, cut_at)
        };
        let (want, want_links, want_ctr, _) = run(2, &[0, 0, 0, 1, 1]);
        // Every accepted packet is delivered or rejected once, and so is
        // each duplicate copy whose original was accepted (a rule can fire
        // on a packet the link then drops).
        let copies = want_ctr[1] + want_ctr[2];
        prop_assert_eq!(want_ctr[4], copies, "every reference copy crossed shards");
        let accepted: u64 = want_links.iter().map(|l| l[0]).sum();
        let duplicated: u64 = want_links.iter().map(|l| l[3]).sum();
        prop_assert!((accepted..=accepted + duplicated).contains(&copies));
        let recorded: usize = want.iter().map(Vec::len).sum();
        prop_assert_eq!(recorded as u64, want_ctr[1], "lost or duplicated");
        for trace in &want {
            prop_assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        }

        let regions = [0, 1, 2, receiver_regions.0, receiver_regions.1];
        for shards in [1, 2] {
            let (got, got_links, got_ctr, moved) = run(shards, &regions);
            prop_assert_eq!(&got, &want, "shards={}", shards);
            prop_assert_eq!(&got_links, &want_links, "shards={}", shards);
            prop_assert_eq!(&got_ctr[..4], &want_ctr[..4], "shards={}", shards);
            prop_assert!(got_ctr[4] < copies, "shards={}: some copies stay local", shards);
            prop_assert_eq!(moved, shards == 2, "shards={}: the bias moved a region", shards);
        }
    }
}
