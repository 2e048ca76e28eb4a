//! Workload generators and sinks: CBR/Poisson sources, counting sinks and
//! an echo reflector.
//!
//! These reproduce the paper's "background traffic" (iperf UDP at a target
//! rate competing with CI traffic at a shared gateway, Figs. 3(g) and 10(b)).

use crate::packet::Packet;
use crate::sim::{Ctx, Node, PortId};
use crate::time::{Duration, Instant};
use rand::Rng;
use std::net::Ipv4Addr;

/// Shape of a traffic source's inter-packet gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceShape {
    /// Constant bit rate: packets exactly evenly spaced.
    Cbr,
    /// Poisson arrivals: exponential gaps with the same mean rate.
    Poisson,
}

/// A unidirectional UDP traffic generator.
///
/// Emits `payload_bytes`-sized datagrams toward `dst` at `rate_bps`
/// (counting IP/UDP headers in the rate, like iperf's on-the-wire
/// accounting) between `start` and `stop`.
pub struct UdpSource {
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    payload_bytes: u32,
    rate_bps: u64,
    shape: SourceShape,
    start: Instant,
    stop: Instant,
    tos: u8,
    /// Packets emitted so far.
    pub sent: u64,
    /// Wire bytes emitted so far.
    pub sent_bytes: u64,
}

const TOKEN_EMIT: u64 = 1;

impl UdpSource {
    /// New CBR source, running for the whole simulation by default.
    pub fn cbr(
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        rate_bps: u64,
        payload_bytes: u32,
    ) -> UdpSource {
        UdpSource {
            src,
            dst,
            payload_bytes,
            rate_bps,
            shape: SourceShape::Cbr,
            start: Instant::ZERO,
            stop: Instant::MAX,
            tos: 0,
            sent: 0,
            sent_bytes: 0,
        }
    }

    /// Switch to Poisson arrivals.
    pub fn poisson(mut self) -> UdpSource {
        self.shape = SourceShape::Poisson;
        self
    }

    /// Builder-style: restrict the active window.
    pub fn window(mut self, start: Instant, stop: Instant) -> UdpSource {
        self.start = start;
        self.stop = stop;
        self
    }

    /// Builder-style: set the TOS byte on emitted packets.
    pub fn with_tos(mut self, tos: u8) -> UdpSource {
        self.tos = tos;
        self
    }

    /// Mean gap between packets to achieve the configured rate.
    fn mean_gap(&self) -> Duration {
        let wire = Packet::udp(self.src, self.dst, self.payload_bytes).wire_size();
        if self.rate_bps == 0 {
            return Duration::MAX;
        }
        Duration::from_secs_f64(wire as f64 * 8.0 / self.rate_bps as f64)
    }

    /// Must be called once after adding the node to arm the first emission:
    /// `sim.schedule_timer(node, start, UdpSource::KICKOFF)`.
    pub const KICKOFF: u64 = TOKEN_EMIT;
}

impl Node for UdpSource {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
        // Sources ignore inbound traffic.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_EMIT || self.rate_bps == 0 {
            return;
        }
        let now = ctx.now();
        if now < self.start || now >= self.stop {
            if now < self.start {
                ctx.schedule_at(self.start, TOKEN_EMIT);
            }
            return;
        }
        let id = ctx.fresh_packet_id();
        let pkt = Packet::udp(self.src, self.dst, self.payload_bytes)
            .with_tos(self.tos)
            .with_id(id)
            .with_created(now);
        self.sent += 1;
        self.sent_bytes += pkt.wire_size() as u64;
        ctx.send(0, pkt);

        let gap = match self.shape {
            SourceShape::Cbr => self.mean_gap(),
            SourceShape::Poisson => {
                let u: f64 = ctx.rng().gen_range(f64::EPSILON..1.0);
                self.mean_gap().mul_f64(-u.ln())
            }
        };
        let next = now + gap;
        if next < self.stop {
            ctx.schedule_at(next, TOKEN_EMIT);
        }
    }
}

/// A sink that counts packets/bytes and summarises their one-way delays
/// (using [`Packet::created`] timestamps). It keeps a running sum and
/// minimum, not the samples: a flood of millions of packets costs nothing.
#[derive(Default)]
pub struct Sink {
    packets: u64,
    bytes: u64,
    /// Sum of the delays in milliseconds, added in arrival order.
    delay_sum_ms: f64,
    min_delay: Option<Duration>,
    last_arrival: Option<Instant>,
}

impl Sink {
    /// New empty sink.
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Packets received.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Wire bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean one-way delay in milliseconds (0 with no packets). The sum
    /// runs in arrival order, so it equals the mean of a
    /// [`Series`](crate::stats::Series) of the same delays bit for bit.
    pub fn mean_delay_ms(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.delay_sum_ms / self.packets as f64
    }

    /// Smallest one-way delay received, if any packet arrived.
    pub fn min_delay(&self) -> Option<Duration> {
        self.min_delay
    }

    /// Arrival time of the most recent packet.
    pub fn last_arrival(&self) -> Option<Instant> {
        self.last_arrival
    }
}

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        self.packets += 1;
        self.bytes += pkt.wire_size() as u64;
        let delay = ctx.now().saturating_since(pkt.created);
        self.delay_sum_ms += delay.millis_f64();
        self.min_delay = Some(self.min_delay.map_or(delay, |m| m.min(delay)));
        self.last_arrival = Some(ctx.now());
    }
}

/// Reflects every packet back where it came from with src/dst (and ports)
/// swapped — a stand-in for a ping responder or request/response server.
#[derive(Default)]
pub struct Reflector {
    /// Packets reflected.
    pub reflected: u64,
    /// Extra think time before the response leaves.
    pub service_time: Duration,
    /// Responses held back by the service time, due at the stored instant.
    pending: Vec<(Instant, PortId, Packet)>,
}

impl Reflector {
    /// Immediate reflector.
    pub fn new() -> Reflector {
        Reflector::default()
    }
}

impl Node for Reflector {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        self.reflected += 1;
        let mut back = pkt;
        std::mem::swap(&mut back.src, &mut back.dst);
        std::mem::swap(&mut back.src_port, &mut back.dst_port);
        if self.service_time == Duration::ZERO {
            ctx.send(port, back);
        } else {
            // Timers carry no payload, so stash the response and release it
            // when the matching timer fires.
            let due = ctx.now() + self.service_time;
            self.pending.push((due, port, back));
            ctx.schedule_at(due, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, port, pkt) = self.pending.remove(i);
                ctx.send(port, pkt);
            } else {
                i += 1;
            }
        }
    }

    fn on_restart(&mut self) {
        // Configuration (the service time) survives a crash-restart; the
        // dynamic state — counters and responses in flight — does not.
        self.reflected = 0;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulator;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn source_to_sink(
        src: UdpSource,
        horizon: Instant,
    ) -> (Simulator, crate::sim::NodeId, crate::sim::NodeId) {
        let mut sim = Simulator::new(11);
        let s = sim.add_node(Box::new(src));
        let k = sim.add_node(Box::new(Sink::new()));
        sim.connect(
            (s, 0),
            (k, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );
        sim.schedule_timer(s, Instant::ZERO, UdpSource::KICKOFF);
        sim.run_until(horizon);
        (sim, s, k)
    }

    #[test]
    fn cbr_source_hits_configured_rate() {
        // 10 Mbps of 1472-byte datagrams for 2 s => ~2.5 MB on the wire.
        let src = UdpSource::cbr((ip(1), 5000), (ip(2), 5001), 10_000_000, 1472)
            .window(Instant::ZERO, Instant::from_secs(2));
        let (sim, _, k) = source_to_sink(src, Instant::from_secs(3));
        let sink = sim.node_ref::<Sink>(k);
        let rate = sink.bytes as f64 * 8.0 / 2.0;
        assert!(
            (rate - 10_000_000.0).abs() / 10_000_000.0 < 0.01,
            "rate was {rate}"
        );
    }

    #[test]
    fn sink_summary_equals_the_series_of_its_delays() {
        let mut sim = Simulator::new(1);
        let k = sim.add_node(Box::new(Sink::new()));
        assert_eq!(sim.node_ref::<Sink>(k).mean_delay_ms(), 0.0);
        let delays_us = [1_700u64, 333, 25_001, 9, 4_444, 333];
        for (i, &d) in delays_us.iter().enumerate() {
            let at = Instant::from_millis(100 * i as u64 + 50);
            let created = at - Duration::from_micros(d);
            let pkt = Packet::udp((ip(1), 1), (ip(2), 2), 100).with_created(created);
            sim.inject_packet(k, 0, at, pkt);
        }
        sim.run_until_idle();
        let sink = sim.node_ref::<Sink>(k);
        let delays: Vec<Duration> = delays_us.map(Duration::from_micros).to_vec();
        let series = crate::stats::Series::from_durations_ms(&delays);
        assert_eq!(sink.mean_delay_ms().to_bits(), series.mean().to_bits());
        assert_eq!(sink.min_delay(), Some(Duration::from_micros(9)));
        assert_eq!(sink.packets(), 6);
    }

    #[test]
    fn poisson_source_mean_rate_close() {
        let src = UdpSource::cbr((ip(1), 5000), (ip(2), 5001), 5_000_000, 1000)
            .poisson()
            .window(Instant::ZERO, Instant::from_secs(10));
        let (sim, _, k) = source_to_sink(src, Instant::from_secs(11));
        let sink = sim.node_ref::<Sink>(k);
        let rate = sink.bytes as f64 * 8.0 / 10.0;
        assert!(
            (rate - 5_000_000.0).abs() / 5_000_000.0 < 0.1,
            "rate was {rate}"
        );
    }

    #[test]
    fn window_bounds_emission() {
        let src = UdpSource::cbr((ip(1), 1), (ip(2), 2), 1_000_000, 1000)
            .window(Instant::from_secs(1), Instant::from_secs(2));
        let (sim, s, k) = source_to_sink(src, Instant::from_secs(5));
        let sink = sim.node_ref::<Sink>(k);
        assert!(sink.packets() > 0);
        // All arrivals must be within [1s, 2s + link delay].
        assert!(sink.last_arrival().unwrap() <= Instant::from_millis(2001));
        let src = sim.node_ref::<UdpSource>(s);
        assert_eq!(src.sent, sink.packets());
    }

    #[test]
    fn zero_rate_source_emits_nothing() {
        let src = UdpSource::cbr((ip(1), 1), (ip(2), 2), 0, 1000);
        let (sim, s, _) = source_to_sink(src, Instant::from_secs(1));
        assert_eq!(sim.node_ref::<UdpSource>(s).sent, 0);
    }

    #[test]
    fn reflector_service_time_delays_response() {
        let mut sim = Simulator::new(3);
        let sink = sim.add_node(Box::new(Sink::new()));
        let refl = sim.add_node(Box::new(Reflector {
            service_time: Duration::from_millis(30),
            ..Reflector::new()
        }));
        sim.connect(
            (sink, 0),
            (refl, 0),
            LinkConfig::delay_only(Duration::from_millis(5)),
        );
        let pkt = Packet::udp((ip(1), 7), (ip(2), 8), 64).with_created(Instant::ZERO);
        // Deliver directly into the reflector's port 0 at t=5ms as if sent
        // by the sink side.
        sim.inject_packet(refl, 0, Instant::from_millis(5), pkt);
        sim.run_until_idle();
        let s = sim.node_ref::<Sink>(sink);
        assert_eq!(s.packets(), 1);
        // 5ms inbound (injected), +30ms service, +5ms back.
        assert_eq!(s.last_arrival(), Some(Instant::from_millis(40)));
        // Response has swapped endpoints.
        assert_eq!(sim.node_ref::<Reflector>(refl).reflected, 1);
    }
}
