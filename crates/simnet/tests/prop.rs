//! Property-based tests for the simulator substrate.

use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::{l4_header_len, Packet};
use acacia_simnet::prelude::*;
use acacia_simnet::stats::Series;
use acacia_simnet::time::serialization_time;
use proptest::prelude::*;
use std::net::Ipv4Addr;

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

    /// Wire size always covers headers + both payload kinds.
    #[test]
    fn wire_size_composition(app_len in 0u32..100_000, proto_byte in 0u8..255, payload_len in 0usize..512) {
        let mut p = Packet::udp((Ipv4Addr::UNSPECIFIED, 0), (Ipv4Addr::UNSPECIFIED, 0), app_len);
        p.protocol = proto_byte;
        p.payload = bytes::Bytes::from(vec![0u8; payload_len]);
        prop_assert_eq!(
            p.wire_size(),
            20 + l4_header_len(proto_byte) + payload_len as u32 + app_len
        );
    }

    /// FiveTuple reversal is an involution.
    #[test]
    fn five_tuple_involution(a in any::<u32>(), b in any::<u32>(), pa in any::<u16>(), pb in any::<u16>()) {
        let p = Packet::udp((Ipv4Addr::from(a), pa), (Ipv4Addr::from(b), pb), 1);
        let ft = p.five_tuple();
        prop_assert_eq!(ft.reversed().reversed(), ft);
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

        let stats = sim.link_stats((src, 0)).unwrap().clone();
        let sent = sim.node_ref::<acacia_simnet::traffic::UdpSource>(src).sent;
        let delivered = sim.node_ref::<Sink>(sink).packets();
        prop_assert_eq!(stats.tx_packets, delivered);
        prop_assert_eq!(delivered + stats.drops(), sent);
        for d in sim.node_ref::<Sink>(sink).delays() {
            prop_assert!(*d >= Duration::from_micros(delay_us));
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

proptest! {
    /// `with_src_port` narrows a class to the packet's source port, and
    /// composes conjunctively with the other dimensions.
    #[test]
    fn packet_class_src_port_filters(
        sp in any::<u16>(),
        dp in any::<u16>(),
        want in any::<u16>(),
    ) {
        let p = Packet::udp((Ipv4Addr::new(1, 1, 1, 1), sp), (Ipv4Addr::new(2, 2, 2, 2), dp), 10);
        prop_assert_eq!(PacketClass::src_port(want).matches(&p), sp == want);
        prop_assert_eq!(PacketClass::any().with_src_port(want).matches(&p), sp == want);
        // Both dimensions matching ⇒ the conjunction matches.
        prop_assert!(PacketClass::any().with_src_port(sp).with_dst_port(dp).matches(&p));
        // Breaking either dimension kills the match.
        prop_assert!(!PacketClass::src_port(sp).with_dst_port(dp.wrapping_add(1)).matches(&p));
        prop_assert!(!PacketClass::src_port(sp.wrapping_add(1)).with_dst_port(dp).matches(&p));
    }
}

/// A ping/reflector mesh with a node-fault plan: the full observable
/// trace of the run.
fn faulted_trace(
    sim_seed: u64,
    plan: Option<&NodeFaultPlan>,
    packet_faults: Option<FaultPlan>,
) -> (Vec<Vec<Duration>>, u64, u64, u64, u64, u64) {
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
        sim.node_sends_dropped(),
        sim.node_timers_dropped(),
    )
}

/// The three rules every plan permutation below is built from: one
/// probabilistic crash-restart per reflector plus a partition on a ping.
fn fault_rules(ats_us: &[u64; 3], outage_us: u64, p: f64) -> Vec<NodeFaultRule> {
    // Node ids follow `faulted_trace`'s creation order: ping i = 2i,
    // reflector i = 2i + 1.
    vec![
        NodeFaultRule::crash_restart(
            1,
            Instant::from_micros(ats_us[0]),
            Duration::from_micros(outage_us),
        )
        .with_probability(p),
        NodeFaultRule::crash_restart(
            3,
            Instant::from_micros(ats_us[1]),
            Duration::from_micros(outage_us),
        )
        .with_probability(p),
        NodeFaultRule::partition(
            4,
            Instant::from_micros(ats_us[2]),
            Duration::from_micros(outage_us),
        )
        .with_probability(p),
    ]
}

proptest! {
    /// A [`NodeFaultPlan`]'s outcome is a function of `(seed, rule set)`
    /// only: inserting the same rules in any order — including
    /// probabilistic rules, whose draws are keyed by rule content — gives
    /// a byte-identical run.
    #[test]
    fn node_fault_plan_is_insertion_order_invariant(
        sim_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        at0_us in 1_000u64..30_000,
        at1_us in 1_000u64..30_000,
        at2_us in 1_000u64..30_000,
        outage_us in 500u64..20_000,
        p in 0.0f64..=1.0,
        rot in 0usize..3,
        rev in any::<bool>(),
    ) {
        let rules = fault_rules(&[at0_us, at1_us, at2_us], outage_us, p);
        let forward = {
            let mut plan = NodeFaultPlan::new(plan_seed);
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
            let mut plan = NodeFaultPlan::new(plan_seed);
            for r in reordered {
                plan.add_rule(r);
            }
            faulted_trace(sim_seed, Some(&plan), None)
        };
        prop_assert_eq!(forward, permuted);
    }

    /// Faults off ⇒ byte-identical to no plan at all: an empty node-fault
    /// plan, a node-fault plan whose rules all have probability zero, and
    /// a packet fault plan whose only rule never fires must all leave the
    /// run untouched.
    #[test]
    fn faults_off_is_byte_identical_to_no_plan(
        sim_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        at0_us in 1_000u64..30_000,
        at1_us in 1_000u64..30_000,
        at2_us in 1_000u64..30_000,
        outage_us in 500u64..20_000,
    ) {
        let baseline = faulted_trace(sim_seed, None, None);

        let empty = NodeFaultPlan::new(plan_seed);
        prop_assert_eq!(&faulted_trace(sim_seed, Some(&empty), None), &baseline);

        let mut dormant = NodeFaultPlan::new(plan_seed);
        for r in fault_rules(&[at0_us, at1_us, at2_us], outage_us, 0.0) {
            dormant.add_rule(r);
        }
        prop_assert_eq!(&faulted_trace(sim_seed, Some(&dormant), None), &baseline);

        let no_drops = FaultPlan::new(plan_seed)
            .with_rule(FaultRule::drop(PacketClass::any(), 0.0));
        prop_assert_eq!(&faulted_trace(sim_seed, None, Some(no_drops)), &baseline);

        // And the engine's fault counters all stayed zero.
        let (_, _, restarts, rejected, sends, timers) = baseline;
        prop_assert_eq!((restarts, rejected, sends, timers), (0, 0, 0, 0));
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
