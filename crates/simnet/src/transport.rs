//! Minimal transport agents: an ICMP ping prober and a greedy window-based
//! ("iperf TCP"-like) flow with AIMD congestion control.
//!
//! These are deliberately simple — enough to reproduce the latency CDFs
//! (paper Figs. 3(c), 10(a)) and saturating-throughput curves (Figs. 3(d),
//! 8) without a full TCP implementation.

use crate::packet::{proto, Packet};
use crate::sim::{Ctx, Node, PortId};
use crate::time::{Duration, Instant};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Sends ICMP echo requests at a fixed interval and records RTTs of the
/// replies (a [`Reflector`](crate::traffic::Reflector) or similar must sit
/// at the far end).
pub struct PingAgent {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    interval: Duration,
    count: u64,
    payload: u32,
    tos: u8,
    sent: u64,
    inflight: BTreeMap<u64, Instant>,
    rtts: Vec<Duration>,
}

const TOKEN_PING: u64 = 1;

impl PingAgent {
    /// `count` echo requests of `payload` bytes, one every `interval`.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, interval: Duration, count: u64) -> PingAgent {
        PingAgent {
            src,
            dst,
            interval,
            count,
            payload: 56,
            tos: 0,
            sent: 0,
            inflight: BTreeMap::new(),
            rtts: Vec::new(),
        }
    }

    /// Timer token to arm via `sim.schedule_timer(node, start, PingAgent::KICKOFF)`.
    pub const KICKOFF: u64 = TOKEN_PING;

    /// Round-trip times observed so far.
    pub fn rtts(&self) -> &[Duration] {
        &self.rtts
    }

    /// Echo requests sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Requests with no reply (so far).
    pub fn lost(&self) -> u64 {
        self.inflight.len() as u64
    }
}

impl Node for PingAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        if pkt.protocol != proto::ICMP || pkt.dst != self.src {
            return;
        }
        if let Some(sent_at) = self.inflight.remove(&pkt.id) {
            self.rtts.push(ctx.now() - sent_at);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_PING || self.sent >= self.count {
            return;
        }
        let id = ctx.fresh_packet_id();
        let pkt = Packet::icmp(self.src, self.dst, self.payload)
            .with_tos(self.tos)
            .with_id(id)
            .with_created(ctx.now());
        self.inflight.insert(id, ctx.now());
        self.sent += 1;
        ctx.send(0, pkt);
        if self.sent < self.count {
            ctx.schedule_in(self.interval, TOKEN_PING);
        }
    }
}

/// Greedy AIMD flow sender: keeps a congestion window of MSS-sized segments
/// outstanding toward a [`GreedyReceiver`], halving on timeout-detected loss
/// and growing additively otherwise. Approximates long-lived TCP throughput.
pub struct GreedyFlow {
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    mss: u32,
    cwnd: f64,
    ssthresh: f64,
    rto: Duration,
    start: Instant,
    stop: Instant,
    /// seq -> send time of outstanding segments.
    outstanding: BTreeMap<u64, Instant>,
    next_seq: u64,
    /// Time of the last multiplicative decrease (one cut per RTT-ish).
    last_cut: Instant,
    /// Smoothed RTT estimate.
    srtt: Option<Duration>,
    /// Total segments sent (including retransmit-equivalents).
    pub segments_sent: u64,
    /// Loss events detected.
    pub loss_events: u64,
}

const TOKEN_TICK: u64 = 2;

impl GreedyFlow {
    /// New flow with a 1448-byte MSS, 2-segment initial window.
    pub fn new(
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        start: Instant,
        stop: Instant,
    ) -> GreedyFlow {
        GreedyFlow {
            src,
            dst,
            mss: 1448,
            cwnd: 2.0,
            ssthresh: 64.0,
            rto: Duration::from_millis(200),
            start,
            stop,
            outstanding: BTreeMap::new(),
            next_seq: 0,
            last_cut: Instant::ZERO,
            srtt: None,
            segments_sent: 0,
            loss_events: 0,
        }
    }

    /// Timer token to arm via `sim.schedule_timer(node, start, GreedyFlow::KICKOFF)`.
    pub const KICKOFF: u64 = TOKEN_TICK;

    fn fill_window(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now < self.start || now >= self.stop {
            return;
        }
        while (self.outstanding.len() as f64) < self.cwnd {
            let seq = self.next_seq;
            self.next_seq += 1;
            let pkt = Packet::tcp(self.src, self.dst, self.mss)
                .with_id(seq)
                .with_created(now);
            self.outstanding.insert(seq, now);
            self.segments_sent += 1;
            ctx.send(0, pkt);
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let Some(sent_at) = self.outstanding.remove(&seq) else {
            return;
        };
        let rtt = ctx.now() - sent_at;
        self.srtt = Some(match self.srtt {
            None => rtt,
            Some(s) => Duration::from_nanos((s.nanos() * 7 + rtt.nanos()) / 8),
        });
        // RFC-ish: RTO = srtt * 2 clamped to a sane floor.
        if let Some(s) = self.srtt {
            self.rto = Duration::from_nanos((s.nanos() * 2).max(Duration::from_millis(20).nanos()));
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // slow start
        } else {
            self.cwnd += 1.0 / self.cwnd; // congestion avoidance
        }
        self.fill_window(ctx);
    }

    fn check_losses(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let lost: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, &sent)| now.saturating_since(sent) > self.rto)
            .map(|(&seq, _)| seq)
            .collect();
        if !lost.is_empty() {
            // At most one multiplicative decrease per RTO interval.
            if now.saturating_since(self.last_cut) > self.rto {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.last_cut = now;
                self.loss_events += 1;
            }
            for seq in lost {
                self.outstanding.remove(&seq);
            }
        }
        self.fill_window(ctx);
    }
}

impl Node for GreedyFlow {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        if pkt.protocol == proto::TCP && pkt.dst == self.src.0 {
            self.on_ack(ctx, pkt.id);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        let now = ctx.now();
        if now >= self.stop {
            return;
        }
        if now < self.start {
            ctx.schedule_at(self.start, TOKEN_TICK);
            return;
        }
        self.check_losses(ctx);
        ctx.schedule_in(Duration::from_millis(10), TOKEN_TICK);
    }
}

/// Receiver side of [`GreedyFlow`]: acks each segment and accumulates a
/// per-second goodput series.
pub struct GreedyReceiver {
    addr: Ipv4Addr,
    /// Application bytes received, bucketed per second of arrival.
    buckets: Vec<u64>,
    /// Total application bytes received.
    pub bytes: u64,
}

impl GreedyReceiver {
    /// Receiver listening on `addr`.
    pub fn new(addr: Ipv4Addr) -> GreedyReceiver {
        GreedyReceiver {
            addr,
            buckets: Vec::new(),
            bytes: 0,
        }
    }

    /// Goodput per one-second bucket, in bits per second.
    pub fn throughput_series_bps(&self) -> Vec<f64> {
        self.buckets.iter().map(|&b| b as f64 * 8.0).collect()
    }

    /// Mean goodput over the first `secs` seconds.
    pub fn mean_bps(&self, secs: usize) -> f64 {
        if secs == 0 {
            return 0.0;
        }
        let total: u64 = self.buckets.iter().take(secs).sum();
        total as f64 * 8.0 / secs as f64
    }
}

impl Node for GreedyReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if pkt.protocol != proto::TCP || pkt.dst != self.addr {
            return;
        }
        let sec = (ctx.now().nanos() / 1_000_000_000) as usize;
        if self.buckets.len() <= sec {
            self.buckets.resize(sec + 1, 0);
        }
        self.buckets[sec] += pkt.app_len as u64;
        self.bytes += pkt.app_len as u64;
        // Pure ack: 0 app bytes, reversed endpoints, echoes the seq in `id`.
        let ack = Packet::tcp((pkt.dst, pkt.dst_port), (pkt.src, pkt.src_port), 0)
            .with_id(pkt.id)
            .with_created(ctx.now());
        ctx.send(port, ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulator;
    use crate::traffic::Reflector;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn ping_measures_round_trip() {
        let mut sim = Simulator::new(1);
        let agent = sim.add_node(Box::new(PingAgent::new(
            ip(1),
            ip(2),
            Duration::from_millis(100),
            10,
        )));
        let refl = sim.add_node(Box::new(Reflector::new()));
        sim.connect(
            (agent, 0),
            (refl, 0),
            LinkConfig::delay_only(Duration::from_millis(4)),
        );
        sim.schedule_timer(agent, Instant::ZERO, PingAgent::KICKOFF);
        sim.run_until_idle();
        let a = sim.node_ref::<PingAgent>(agent);
        assert_eq!(a.sent(), 10);
        assert_eq!(a.rtts().len(), 10);
        assert_eq!(a.lost(), 0);
        for rtt in a.rtts() {
            assert_eq!(*rtt, Duration::from_millis(8));
        }
    }

    #[test]
    fn ping_counts_losses() {
        let mut sim = Simulator::new(1);
        let agent = sim.add_node(Box::new(PingAgent::new(
            ip(1),
            ip(2),
            Duration::from_millis(10),
            50,
        )));
        let refl = sim.add_node(Box::new(Reflector::new()));
        sim.connect(
            (agent, 0),
            (refl, 0),
            LinkConfig::delay_only(Duration::from_millis(1)).with_loss(0.5),
        );
        sim.schedule_timer(agent, Instant::ZERO, PingAgent::KICKOFF);
        sim.run_until_idle();
        let a = sim.node_ref::<PingAgent>(agent);
        assert_eq!(a.sent(), 50);
        assert!(a.lost() > 5, "expected substantial loss, got {}", a.lost());
        assert_eq!(a.rtts().len() as u64 + a.lost(), 50);
    }

    /// Build a sender -> bottleneck-link -> receiver flow and run it.
    fn run_flow(rate_bps: u64, secs: u64) -> f64 {
        let mut sim = Simulator::new(2);
        let tx = sim.add_node(Box::new(GreedyFlow::new(
            (ip(1), 5001),
            (ip(2), 5001),
            Instant::ZERO,
            Instant::from_secs(secs),
        )));
        let rx = sim.add_node(Box::new(GreedyReceiver::new(ip(2))));
        let fwd =
            LinkConfig::rate_limited(rate_bps, Duration::from_millis(5)).with_queue(64 * 1024);
        let back = LinkConfig::delay_only(Duration::from_millis(5));
        sim.connect_asymmetric((tx, 0), (rx, 0), fwd, back);
        sim.schedule_timer(tx, Instant::ZERO, GreedyFlow::KICKOFF);
        sim.run_until(Instant::from_secs(secs + 1));
        sim.node_ref::<GreedyReceiver>(rx).mean_bps(secs as usize)
    }

    #[test]
    fn greedy_flow_saturates_bottleneck() {
        let goodput = run_flow(50_000_000, 10);
        // Goodput should reach >70% of the 50 Mbps bottleneck (headers and
        // AIMD sawtooth eat some).
        assert!(
            goodput > 35_000_000.0 && goodput < 50_000_000.0,
            "goodput was {goodput}"
        );
    }

    #[test]
    fn greedy_flow_scales_with_bottleneck() {
        let slow = run_flow(10_000_000, 10);
        let fast = run_flow(100_000_000, 10);
        assert!(
            fast > 3.0 * slow,
            "fast {fast} should be much more than slow {slow}"
        );
    }
}
