//! The GW-U data plane: an OpenFlow-programmed flow switch with GTP
//! encap/decap actions and a slow-path / fast-path processing model.
//!
//! ACACIA extends Open vSwitch "to process GTP packets in a kernel-resident
//! fast-path once a packet is matched in the user-space using OpenFlow
//! tables (called slow path)" (§6.1). The reproduction models exactly that:
//! the **first** packet of a flow pays the user-space lookup cost; later
//! packets hit the kernel flow cache and pay only the fast-path cost. The
//! baseline OpenEPC gateway processes **every** packet in user space
//! (Fig. 8's comparison).

use crate::gtpu;
use crate::ids::Teid;
use crate::wire::{ControlMsg, FlowActionSpec, FlowMatchSpec};
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId};
use acacia_simnet::time::{Duration, Instant};
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;

/// An installed flow rule.
#[derive(Debug, Clone)]
pub struct FlowRule {
    /// Rule priority (higher wins).
    pub priority: u16,
    /// Match specification.
    pub mtch: FlowMatchSpec,
    /// Action list.
    pub actions: Vec<FlowActionSpec>,
    /// Packets that hit this rule.
    pub hits: u64,
}

/// Processing-cost model for a GW-U.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCosts {
    /// User-space (slow path) per-packet cost.
    pub slow_path: Duration,
    /// Kernel fast-path per-packet cost.
    pub fast_path: Duration,
    /// Does the switch have a fast path at all? `false` models the vanilla
    /// OpenEPC user-space gateway.
    pub kernel_cache: bool,
    /// Bound on packets queued for processing.
    pub queue_limit: usize,
}

impl SwitchCosts {
    /// ACACIA's OVS-based GW-U: slow first packet, fast rest.
    pub fn acacia_ovs() -> SwitchCosts {
        SwitchCosts {
            slow_path: Duration::from_micros(40),
            fast_path: Duration::from_nanos(1_100),
            kernel_cache: true,
            queue_limit: 2_000,
        }
    }

    /// Vanilla OpenEPC user-space gateway: every packet pays the slow path.
    pub fn openepc_userspace() -> SwitchCosts {
        SwitchCosts {
            slow_path: Duration::from_micros(40),
            fast_path: Duration::from_micros(40),
            kernel_cache: false,
            queue_limit: 2_000,
        }
    }

    /// An ideal (zero-cost) data plane, for Fig. 8's IDEAL line.
    pub fn ideal() -> SwitchCosts {
        SwitchCosts {
            slow_path: Duration::ZERO,
            fast_path: Duration::ZERO,
            kernel_cache: true,
            queue_limit: 10_000,
        }
    }
}

/// Flow-cache key: enough of the packet to identify a microflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    teid: Option<u32>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    protocol: u8,
}

fn cache_key(pkt: &Packet) -> CacheKey {
    CacheKey {
        teid: gtpu::tunnel(pkt).map(|t| t.teid.0),
        src: pkt.src,
        dst: pkt.dst,
        src_port: pkt.src_port,
        dst_port: pkt.dst_port,
        protocol: pkt.protocol,
    }
}

/// A GW-U node: receives OpenFlow messages on [`FlowSwitch::CONTROL_PORT`]
/// and user traffic on any other port.
pub struct FlowSwitch {
    /// This switch's tunnel-endpoint address.
    pub addr: Ipv4Addr,
    rules: Vec<FlowRule>,
    costs: SwitchCosts,
    cache: HashSet<CacheKey>,
    busy_until: Instant,
    pending: VecDeque<Packet>,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped (no matching rule).
    pub no_rule: u64,
    /// Packets dropped (processing queue full).
    pub proc_drops: u64,
    /// Packets that went through the slow path.
    pub slow_hits: u64,
    /// Packets served by the kernel flow cache.
    pub fast_hits: u64,
    /// Buffer + notify on missed GTP downlink traffic (the SGW's paging
    /// role: "contains buffers for paging functionality").
    pub paging_enabled: bool,
    page_buffer: Vec<Packet>,
    /// Downlink-data notifications sent to the controller.
    pub ddn_sent: u64,
}

const TOKEN_RELEASE: u64 = 1;

impl FlowSwitch {
    /// Port on which the switch listens for OpenFlow messages.
    pub const CONTROL_PORT: PortId = 0;

    /// New switch with the given cost model.
    pub fn new(addr: Ipv4Addr, costs: SwitchCosts) -> FlowSwitch {
        FlowSwitch {
            addr,
            rules: Vec::new(),
            costs,
            cache: HashSet::new(),
            busy_until: Instant::ZERO,
            pending: VecDeque::new(),
            forwarded: 0,
            no_rule: 0,
            proc_drops: 0,
            slow_hits: 0,
            fast_hits: 0,
            paging_enabled: false,
            page_buffer: Vec::new(),
            ddn_sent: 0,
        }
    }

    /// Packets currently held in the paging buffer.
    pub fn paged_packets(&self) -> usize {
        self.page_buffer.len()
    }

    /// Install a rule directly (bypassing OpenFlow) — used by tests and
    /// static topologies.
    pub fn install(&mut self, priority: u16, mtch: FlowMatchSpec, actions: Vec<FlowActionSpec>) {
        // Highest priority first, and among equals the order installed.
        let at = self.rules.partition_point(|r| r.priority >= priority);
        let rule = FlowRule {
            priority,
            mtch,
            actions,
            hits: 0,
        };
        self.rules.insert(at, rule);
        self.cache.clear();
    }

    /// Remove rules matching the spec exactly.
    pub(crate) fn remove(&mut self, mtch: &FlowMatchSpec) {
        self.rules.retain(|r| &r.mtch != mtch);
        self.cache.clear();
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn matches(
        mtch: &FlowMatchSpec,
        teid: Option<Teid>,
        effective_src: Ipv4Addr,
        effective_dst: Ipv4Addr,
    ) -> bool {
        if let Some(want) = mtch.teid {
            if teid != Some(want) {
                return false;
            }
        }
        if let Some(dst) = mtch.dst {
            if effective_dst != dst {
                return false;
            }
        }
        if let Some(src) = mtch.src {
            if effective_src != src {
                return false;
            }
        }
        true
    }

    fn lookup(&mut self, pkt: &Packet) -> Option<usize> {
        // Peek the tunnel header: for tunnelled packets, address matches
        // apply to the *inner* endpoints so rules can steer by UE/server
        // address. The inner packet is never materialized here — only the
        // rule that wins may decapsulate.
        let (teid, esrc, edst) = match gtpu::tunnel(pkt) {
            Some(t) => (Some(t.teid), t.inner.src, t.inner.dst),
            None => (None, pkt.src, pkt.dst),
        };
        let idx = self
            .rules
            .iter()
            .position(|r| Self::matches(&r.mtch, teid, esrc, edst))?;
        self.rules[idx].hits += 1;
        Some(idx)
    }

    fn execute(&mut self, ctx: &mut Ctx<'_>, rule_idx: usize, pkt: Packet) {
        let mut current = pkt;
        // Step through the rule's actions by index: cloning one small
        // action per step instead of the whole Vec keeps the per-packet
        // path allocation-free.
        for i in 0..self.rules[rule_idx].actions.len() {
            let action = self.rules[rule_idx].actions[i].clone();
            match action {
                FlowActionSpec::GtpEncap { peer, teid } => {
                    current = gtpu::encapsulate(&current, teid, self.addr, peer);
                }
                FlowActionSpec::GtpDecap => match gtpu::decapsulate(&current) {
                    Some((_, inner)) => current = inner,
                    None => {
                        self.no_rule += 1;
                        return;
                    }
                },
                FlowActionSpec::SetTos { tos } => current.tos = tos,
                FlowActionSpec::Output { port } => {
                    self.forwarded += 1;
                    ctx.send(port, current);
                    return;
                }
            }
        }
        // No terminal Output: drop.
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match self.lookup(&pkt) {
            Some(idx) => self.execute(ctx, idx, pkt),
            None => {
                // The SGW role: buffer missed downlink tunnel traffic and
                // tell the controller so the MME can page the UE.
                if self.paging_enabled && self.page_buffer.len() < 256 {
                    let first = self.page_buffer.is_empty();
                    if let Some(teid) = gtpu::tunnel(&pkt).map(|t| t.teid) {
                        self.page_buffer.push(pkt);
                        if first {
                            self.ddn_sent += 1;
                            let msg = ControlMsg::DownlinkDataByTeid { teid };
                            ctx.send(
                                Self::CONTROL_PORT,
                                msg.into_packet(self.addr, Ipv4Addr::UNSPECIFIED),
                            );
                        }
                        return;
                    }
                }
                self.no_rule += 1;
            }
        }
    }

    fn handle_openflow(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if let ControlMsg::FlowMod {
            add,
            priority,
            mtch,
            actions,
        } = msg
        {
            if add {
                self.install(priority, mtch, actions);
                // New rules may cover buffered (paged) downlink packets:
                // replay them once; still-unmatched packets wait for the
                // next install.
                let buffered = std::mem::take(&mut self.page_buffer);
                for pkt in buffered {
                    match self.lookup(&pkt) {
                        Some(idx) => self.execute(ctx, idx, pkt),
                        None => self.page_buffer.push(pkt),
                    }
                }
            } else {
                self.remove(&mtch);
            }
        }
    }
}

impl Node for FlowSwitch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if port == Self::CONTROL_PORT {
            if let Some(msg) = ControlMsg::from_packet(&pkt) {
                self.handle_openflow(ctx, msg);
            }
            return;
        }
        // Data path: decide slow vs fast processing cost.
        let key = cache_key(&pkt);
        let cost = if self.costs.kernel_cache && self.cache.contains(&key) {
            self.fast_hits += 1;
            self.costs.fast_path
        } else {
            self.slow_hits += 1;
            if self.costs.kernel_cache {
                self.cache.insert(key);
            }
            self.costs.slow_path
        };
        if cost == Duration::ZERO {
            self.process(ctx, pkt);
            return;
        }
        if self.pending.len() >= self.costs.queue_limit {
            self.proc_drops += 1;
            return;
        }
        let start = self.busy_until.max(ctx.now());
        let done = start + cost;
        self.busy_until = done;
        self.pending.push_back(pkt);
        ctx.schedule_at(done, TOKEN_RELEASE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_RELEASE {
            return;
        }
        if let Some(pkt) = self.pending.pop_front() {
            self.process(ctx, pkt);
        }
    }

    fn on_restart(&mut self) {
        // A crash-restarted switch boots with an empty flow table: per-
        // session rules only come back when the controller reinstalls
        // them (the failover ladder's rebind path). Everything volatile
        // goes: rules, the kernel cache, queued work, paging buffers.
        self.rules.clear();
        self.cache.clear();
        self.pending.clear();
        self.page_buffer.clear();
        self.busy_until = Instant::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ports;
    use acacia_simnet::link::LinkConfig;
    use acacia_simnet::sim::Simulator;
    use acacia_simnet::traffic::Sink;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn user_pkt(dst: Ipv4Addr) -> Packet {
        Packet::udp((ip(1), 40_000), (dst, 9_000), 1_000)
    }

    /// switch with: decap rule for teid 7 -> port 2, encap rule for inner
    /// dst ip(5) -> tunnel to ip(9) on port 3.
    fn build() -> (Simulator, usize, usize, usize) {
        let mut sim = Simulator::new(3);
        let mut sw = FlowSwitch::new(ip(100), SwitchCosts::acacia_ovs());
        sw.install(
            100,
            FlowMatchSpec {
                teid: Some(Teid(7)),
                dst: None,
                src: None,
            },
            vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
        );
        sw.install(
            90,
            FlowMatchSpec {
                teid: None,
                dst: Some(ip(5)),
                src: None,
            },
            vec![
                FlowActionSpec::GtpEncap {
                    peer: ip(9),
                    teid: Teid(42),
                },
                FlowActionSpec::Output { port: 3 },
            ],
        );
        let sw = sim.add_node(Box::new(sw));
        let sink2 = sim.add_node(Box::new(Sink::new()));
        let sink3 = sim.add_node(Box::new(Sink::new()));
        sim.connect((sw, 2), (sink2, 0), LinkConfig::delay_only(Duration::ZERO));
        sim.connect((sw, 3), (sink3, 0), LinkConfig::delay_only(Duration::ZERO));
        (sim, sw, sink2, sink3)
    }

    #[test]
    fn decap_rule_unwraps_tunnel() {
        let (mut sim, sw, sink2, _) = build();
        let inner = user_pkt(ip(2));
        let outer = gtpu::encapsulate(&inner, Teid(7), ip(50), ip(100));
        sim.inject_packet(sw, 1, Instant::ZERO, outer);
        sim.run_until_idle();
        let s = sim.node_ref::<Sink>(sink2);
        assert_eq!(s.packets(), 1);
        assert_eq!(s.bytes(), inner.wire_size() as u64);
    }

    #[test]
    fn encap_rule_wraps_by_inner_destination() {
        let (mut sim, sw, _, sink3) = build();
        sim.inject_packet(sw, 1, Instant::ZERO, user_pkt(ip(5)));
        sim.run_until_idle();
        let s = sim.node_ref::<Sink>(sink3);
        assert_eq!(s.packets(), 1);
        // Tunnel overhead visible on the wire.
        assert_eq!(s.bytes(), (user_pkt(ip(5)).wire_size() + 36) as u64);
    }

    #[test]
    fn unmatched_packet_is_dropped_and_counted() {
        let (mut sim, sw, ..) = build();
        sim.inject_packet(sw, 1, Instant::ZERO, user_pkt(ip(77)));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<FlowSwitch>(sw).no_rule, 1);
    }

    #[test]
    fn port_2152_without_a_tunnel_fails_to_decapsulate() {
        let mut sim = Simulator::new(3);
        let mut sw = FlowSwitch::new(ip(100), SwitchCosts::acacia_ovs());
        let by_dst = FlowMatchSpec {
            teid: None,
            dst: Some(ip(60)),
            src: None,
        };
        sw.install(
            80,
            by_dst,
            vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
        );
        let sw = sim.add_node(Box::new(sw));
        let sink = sim.add_node(Box::new(Sink::new()));
        sim.connect((sw, 2), (sink, 0), LinkConfig::delay_only(Duration::ZERO));
        // UDP/2152 by its ports, but its payload is not a tunnel: the
        // rule matches on the outer destination, and its decap fails.
        let mut fake = user_pkt(ip(60));
        fake.src_port = crate::wire::ports::GTPU;
        fake.dst_port = crate::wire::ports::GTPU;
        assert!(gtpu::is_gtpu(&fake));
        sim.inject_packet(sw, 1, Instant::ZERO, fake);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<FlowSwitch>(sw).no_rule, 1);
        assert_eq!(sim.node_ref::<Sink>(sink).packets(), 0);
    }

    #[test]
    fn fast_path_kicks_in_after_first_packet() {
        let (mut sim, sw, ..) = build();
        for i in 0..10 {
            sim.inject_packet(sw, 1, Instant::from_micros(i * 100), user_pkt(ip(5)));
        }
        sim.run_until_idle();
        let s = sim.node_ref::<FlowSwitch>(sw);
        assert_eq!(s.slow_hits, 1);
        assert_eq!(s.fast_hits, 9);
    }

    #[test]
    fn userspace_switch_never_uses_fast_path() {
        let mut sim = Simulator::new(3);
        let mut sw = FlowSwitch::new(ip(100), SwitchCosts::openepc_userspace());
        sw.install(
            1,
            FlowMatchSpec {
                teid: None,
                dst: None,
                src: None,
            },
            vec![FlowActionSpec::Output { port: 2 }],
        );
        let sw = sim.add_node(Box::new(sw));
        let sink = sim.add_node(Box::new(Sink::new()));
        sim.connect((sw, 2), (sink, 0), LinkConfig::delay_only(Duration::ZERO));
        for i in 0..10 {
            sim.inject_packet(sw, 1, Instant::from_micros(i), user_pkt(ip(5)));
        }
        sim.run_until_idle();
        let s = sim.node_ref::<FlowSwitch>(sw);
        assert_eq!(s.slow_hits, 10);
        assert_eq!(s.fast_hits, 0);
    }

    #[test]
    fn openflow_messages_program_the_switch() {
        let mut sim = Simulator::new(3);
        let sw_node = FlowSwitch::new(ip(100), SwitchCosts::ideal());
        let sw = sim.add_node(Box::new(sw_node));
        let sink = sim.add_node(Box::new(Sink::new()));
        sim.connect((sw, 2), (sink, 0), LinkConfig::delay_only(Duration::ZERO));

        let flowmod = ControlMsg::FlowMod {
            add: true,
            priority: 10,
            mtch: FlowMatchSpec {
                teid: None,
                dst: Some(ip(5)),
                src: None,
            },
            actions: vec![FlowActionSpec::Output { port: 2 }],
        };
        let pkt = flowmod.into_packet(ip(200), ip(100));
        sim.inject_packet(sw, FlowSwitch::CONTROL_PORT, Instant::ZERO, pkt);
        sim.inject_packet(sw, 1, Instant::from_millis(1), user_pkt(ip(5)));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Sink>(sink).packets(), 1);
        assert_eq!(sim.node_ref::<FlowSwitch>(sw).rule_count(), 1);

        // Now delete the rule via OpenFlow and verify traffic stops.
        let del = ControlMsg::FlowMod {
            add: false,
            priority: 10,
            mtch: FlowMatchSpec {
                teid: None,
                dst: Some(ip(5)),
                src: None,
            },
            actions: vec![],
        };
        let pkt = del.into_packet(ip(200), ip(100));
        sim.inject_packet(sw, FlowSwitch::CONTROL_PORT, sim.now(), pkt);
        let t = sim.now() + Duration::from_millis(1);
        sim.inject_packet(sw, 1, t, user_pkt(ip(5)));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Sink>(sink).packets(), 1, "no new delivery");
        assert_eq!(sim.node_ref::<FlowSwitch>(sw).no_rule, 1);
    }

    #[test]
    fn priority_orders_rules() {
        let mut sw = FlowSwitch::new(ip(1), SwitchCosts::ideal());
        sw.install(
            1,
            FlowMatchSpec {
                teid: None,
                dst: None,
                src: None,
            },
            vec![FlowActionSpec::Output { port: 9 }],
        );
        sw.install(
            100,
            FlowMatchSpec {
                teid: None,
                dst: Some(ip(5)),
                src: None,
            },
            vec![FlowActionSpec::Output { port: 2 }],
        );
        // Highest priority first in the table.
        assert_eq!(sw.rules[0].priority, 100);
    }

    #[test]
    fn gtpc_port_constant_sanity() {
        assert_ne!(ports::GTPC, ports::GTPU);
    }

    /// `install` keeps the table in the order a push followed by a stable
    /// sort on descending priority would give, ties included.
    #[test]
    fn install_order_matches_push_and_stable_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let mut sw = FlowSwitch::new(ip(100), SwitchCosts::acacia_ovs());
            let mut reference: Vec<(u16, Teid)> = Vec::new();
            for n in 0..rng.gen_range(1..120u32) {
                // Few distinct priorities, so most installs tie.
                let priority = rng.gen_range(0..6u16) * 10;
                let mtch = FlowMatchSpec {
                    teid: Some(Teid(n)),
                    dst: None,
                    src: None,
                };
                sw.install(priority, mtch, vec![FlowActionSpec::Output { port: 1 }]);
                reference.push((priority, Teid(n)));
                reference.sort_by_key(|&(p, _)| std::cmp::Reverse(p));
            }
            let got: Vec<(u16, Teid)> = sw
                .rules
                .iter()
                .map(|r| (r.priority, r.mtch.teid.expect("set above")))
                .collect();
            assert_eq!(got, reference);
        }
    }
}
