//! Property-based tests for the strict-priority multi-queue link
//! scheduler (`link.rs`): packet conservation across per-class counters,
//! work conservation against a FIFO reference, exact FIFO-equivalence
//! when every packet shares one class, and no per-class state on a link
//! that cannot queue.

use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::Packet;
use acacia_simnet::prelude::*;
use acacia_simnet::sim::{Ctx, Node};
use acacia_simnet::time::serialization_time;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// One scripted transmission: (gap since the previous send, ToS byte,
/// application payload length).
type Step = (u64, u8, u32);

/// Emits a scripted mixed-class packet schedule out port 0.
struct MixSource {
    schedule: Vec<Step>,
    next: usize,
}

impl MixSource {
    fn new(schedule: Vec<Step>) -> MixSource {
        MixSource { schedule, next: 0 }
    }

    fn packet(step: &Step, now: Instant) -> Packet {
        let mut p = Packet::udp(
            (Ipv4Addr::new(10, 0, 0, 1), 1),
            (Ipv4Addr::new(10, 0, 0, 2), 2),
            step.2,
        );
        p.tos = step.1;
        p.created = now;
        p
    }
}

impl Node for MixSource {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(step) = self.schedule.get(self.next).copied() else {
            return;
        };
        self.next += 1;
        ctx.send(0, MixSource::packet(&step, ctx.now()));
        if let Some(next) = self.schedule.get(self.next) {
            ctx.schedule_in(Duration::from_nanos(next.0), 0);
        }
    }
}

/// Records every arrival: (ToS, arrival instant).
#[derive(Default)]
struct ClassSink {
    seen: Vec<(u8, Instant)>,
    bytes: u64,
}

impl Node for ClassSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        self.bytes += pkt.wire_size() as u64;
        self.seen.push((pkt.tos, ctx.now()));
    }
}

/// Run a schedule over one link; returns (link stats, arrivals, bytes).
fn run_mix(
    schedule: &[Step],
    cfg: LinkConfig,
) -> (acacia_simnet::link::LinkStats, Vec<(u8, Instant)>, u64) {
    let mut sim = Simulator::new(1);
    let src = sim.add_node(Box::new(MixSource::new(schedule.to_vec())));
    let sink = sim.add_node(Box::new(ClassSink::default()));
    sim.connect_simplex((src, 0), (sink, 0), cfg);
    // First send happens after the first step's gap, like all the others.
    let first = Duration::from_nanos(schedule.first().map_or(0, |s| s.0));
    sim.schedule_timer(src, Instant::ZERO + first, 0);
    sim.run_until_idle();
    let stats = sim.link_stats((src, 0)).unwrap();
    let s = sim.node_ref::<ClassSink>(sink);
    (stats, s.seen.clone(), s.bytes)
}

/// An arbitrary mixed-class schedule: gaps up to 2 ms, any ToS byte,
/// payloads 100–2000 bytes.
fn schedules() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u64..2_000_000, any::<u8>(), 100u32..2_000), 1..80)
}

proptest! {
    /// Conservation: every offered packet is either delivered or counted
    /// in exactly one drop counter, and the per-class enqueue counters
    /// partition the transmitted packets.
    #[test]
    fn every_packet_delivered_or_counted_in_one_drop_counter(
        schedule in schedules(),
        rate in 1_000_000u64..50_000_000,
        loss in 0.0f64..0.3,
        queue in 4_000u64..60_000,
    ) {
        let cfg = LinkConfig::rate_limited(rate, Duration::from_millis(1))
            .with_loss(loss)
            .with_queue(queue);
        let (stats, seen, _) = run_mix(&schedule, cfg);
        let sent = schedule.len() as u64;
        prop_assert_eq!(stats.tx_packets, seen.len() as u64);
        prop_assert_eq!(seen.len() as u64 + stats.drops(), sent);
        // Per-class enqueues partition the committed packets…
        let class_enqueued: u64 = stats.classes.iter().map(|(_, c)| c.enqueued).sum();
        prop_assert_eq!(class_enqueued, stats.tx_packets);
        // …and per-class queue drops partition the link's queue drops.
        let class_drops: u64 = stats.classes.iter().map(|(_, c)| c.drops_queue).sum();
        prop_assert_eq!(class_drops, stats.drops_queue);
        // Every arrival's class was accounted on the stats side.
        for &(tos, _) in &seen {
            let c = stats.class(tos >> 2).expect("delivered class has stats");
            prop_assert!(c.enqueued > 0);
        }
    }

    /// Work conservation: with nothing dropped, the scheduler transmits
    /// exactly as many bytes for exactly as long as a single-class FIFO
    /// serving the same schedule — priority changes *who* waits, never
    /// how much work the link does.
    #[test]
    fn busy_time_matches_fifo_reference(
        schedule in schedules(),
        rate in 1_000_000u64..50_000_000,
    ) {
        let cfg = LinkConfig::rate_limited(rate, Duration::from_micros(500))
            .with_queue(u64::MAX);
        let fifo_schedule: Vec<Step> =
            schedule.iter().map(|&(gap, _, len)| (gap, 0, len)).collect();
        let (prio, prio_seen, prio_bytes) = run_mix(&schedule, cfg.clone());
        let (fifo, fifo_seen, fifo_bytes) = run_mix(&fifo_schedule, cfg);
        prop_assert_eq!(prio.busy, fifo.busy);
        prop_assert_eq!(prio.tx_packets, fifo.tx_packets);
        prop_assert_eq!(prio.tx_bytes, fifo.tx_bytes);
        prop_assert_eq!(prio_seen.len(), fifo_seen.len());
        prop_assert_eq!(prio_bytes, fifo_bytes);
        prop_assert_eq!(prio.drops(), 0);
    }

    /// A rate-0 link keeps no per-class state, whatever ToS crosses it:
    /// `classes` stays empty, and its packet and byte totals are what the
    /// sink took.
    #[test]
    fn rate_zero_link_keeps_no_class_counters(
        schedule in schedules(),
        delay_us in 0u64..20_000,
        jitter_us in 0u64..2_000,
    ) {
        let cfg = LinkConfig::delay_only(Duration::from_micros(delay_us))
            .with_jitter(Duration::from_micros(jitter_us));
        let (stats, seen, bytes) = run_mix(&schedule, cfg);
        prop_assert!(stats.classes.is_empty());
        prop_assert_eq!(seen.len(), schedule.len());
        prop_assert_eq!(stats.tx_packets, seen.len() as u64);
        prop_assert_eq!(stats.tx_bytes, bytes);
        prop_assert_eq!((stats.drops(), stats.busy), (0, Duration::ZERO));
    }

    /// Single-class degeneration: when every packet shares one class the
    /// scheduler IS the old FIFO — each arrival lands exactly where the
    /// analytic `start = max(send, prev_done)` recurrence puts it.
    #[test]
    fn single_class_is_byte_identical_to_fifo(
        schedule in prop::collection::vec((0u64..2_000_000, 100u32..2_000), 1..80),
        tos in any::<u8>(),
        rate in 1_000_000u64..50_000_000,
        delay_us in 0u64..20_000,
    ) {
        let delay = Duration::from_micros(delay_us);
        let cfg = LinkConfig::rate_limited(rate, delay).with_queue(u64::MAX);
        let steps: Vec<Step> =
            schedule.iter().map(|&(gap, len)| (gap, tos, len)).collect();
        let (stats, seen, _) = run_mix(&steps, cfg);
        prop_assert_eq!(seen.len(), steps.len());
        prop_assert_eq!(stats.drops(), 0);

        // The FIFO reference model, computed exactly.
        let mut t = Instant::ZERO;
        let mut done = Instant::ZERO;
        for (i, step) in steps.iter().enumerate() {
            t += Duration::from_nanos(step.0);
            let wire = MixSource::packet(step, t).wire_size() as u64;
            let start = t.max(done);
            done = start + serialization_time(wire, rate);
            prop_assert_eq!(
                seen[i].1,
                done + delay,
                "packet {} must arrive exactly when the FIFO model says",
                i
            );
        }
    }
}
