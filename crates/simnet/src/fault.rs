//! Deterministic link-layer fault injection.
//!
//! A [`FaultPlan`] attaches to a [`Link`](crate::link::Link) and decides,
//! packet by packet, whether to drop, duplicate, reorder or delay it. Plans
//! are fully deterministic: each carries its **own** ChaCha8 RNG stream,
//! seeded independently of the simulation RNG, so attaching (or detaching)
//! a plan never perturbs jitter/loss draws elsewhere — runs with faults
//! disabled stay byte-identical to runs on a build without fault injection
//! at all.
//!
//! Rules target packets by *message class* ([`PacketClass`]: protocol,
//! source/destination port, TOS byte, or a typed message's tag) and can
//! be scoped to a time window, to the nth matching occurrence, or to a
//! maximum number of firings. The first rule that matches and fires wins.
//!
//! # Node-lifecycle faults
//!
//! A [`NodeFaultPlan`] targets *nodes* instead of links: crash-stop,
//! crash-restart after a configurable outage, and partition. It follows the
//! same determinism contract — its probability draws come from a private
//! RNG stream keyed by `(seed, node, at)`, so rule insertion order never
//! changes which nodes are hit, and attaching an empty (or all-misses)
//! plan is byte-identical to attaching none at all. While a node is down
//! the engine drops every event addressed to it; a crash additionally
//! erases the node's state through [`crate::sim::Node::on_restart`], so
//! recovery happens through the protocol, never through preserved memory.

use crate::packet::Packet;
use crate::sim::{stream_seed, NodeId};
use crate::time::{Duration, Instant};
use rand::Rng;
use rand_chacha::ChaCha8Stream;

/// What a fault does to a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Silently discard the packet.
    Drop,
    /// Deliver the packet twice (second copy after `extra_delay`).
    Duplicate,
    /// Hold the packet back by `extra_delay` so later traffic overtakes it.
    Reorder,
    /// Add `extra_delay` of latency without reordering intent.
    Delay,
}

/// A message-class selector. Every populated field must match; an empty
/// selector ([`PacketClass::any`]) matches all packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketClass {
    /// Match the IP protocol number (e.g. SCTP for S1AP/X2AP).
    pub protocol: Option<u8>,
    /// Match the source L4 port (e.g. one service's replies or
    /// heartbeats, which all share a destination port).
    pub src_port: Option<u16>,
    /// Match the destination L4 port.
    pub dst_port: Option<u16>,
    /// Match the TOS/DSCP byte (e.g. the RRC priority marking).
    pub tos: Option<u8>,
    /// Match packets carrying a typed message with this tag — precise
    /// per-message targeting of control messages (`PSq`, `HOq`, …).
    pub payload_tag: Option<String>,
}

impl PacketClass {
    /// Match every packet.
    pub fn any() -> PacketClass {
        PacketClass::default()
    }

    /// Match a source port.
    pub fn src_port(port: u16) -> PacketClass {
        PacketClass {
            src_port: Some(port),
            ..PacketClass::default()
        }
    }

    /// Builder-style: additionally require a destination port.
    pub fn with_dst_port(mut self, port: u16) -> PacketClass {
        self.dst_port = Some(port);
        self
    }

    /// Builder-style: additionally require a source port.
    pub fn with_src_port(mut self, port: u16) -> PacketClass {
        self.src_port = Some(port);
        self
    }

    /// Builder-style: additionally require a typed payload whose
    /// [`Message::tag`](crate::packet::Message::tag) is `tag`.
    pub fn with_payload_tag(mut self, tag: &str) -> PacketClass {
        self.payload_tag = Some(tag.to_string());
        self
    }

    /// Does `pkt` belong to this class?
    pub fn matches(&self, pkt: &Packet) -> bool {
        if let Some(p) = self.protocol {
            if pkt.protocol != p {
                return false;
            }
        }
        if let Some(port) = self.src_port {
            if pkt.src_port != port {
                return false;
            }
        }
        if let Some(port) = self.dst_port {
            if pkt.dst_port != port {
                return false;
            }
        }
        if let Some(tos) = self.tos {
            if pkt.tos != tos {
                return false;
            }
        }
        if let Some(tag) = &self.payload_tag {
            if pkt.payload.tag() != Some(tag.as_str()) {
                return false;
            }
        }
        true
    }
}

/// One fault rule: a kind, a class, and scoping knobs.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// What to do to matched packets.
    pub kind: FaultKind,
    /// Which packets to consider.
    pub class: PacketClass,
    /// Probability of firing per matching packet, in `[0, 1]`.
    pub probability: f64,
    /// Only consider packets offered within `[start, end)`.
    pub window: Option<(Instant, Instant)>,
    /// Only fire on the nth matching packet (1-based), exactly once.
    pub nth: Option<u64>,
    /// Stop firing after this many hits.
    pub max_count: Option<u64>,
    /// Extra latency for `Duplicate`/`Reorder`/`Delay` kinds.
    pub extra_delay: Duration,
    seen: u64,
    fired: u64,
}

impl FaultRule {
    fn new(kind: FaultKind, class: PacketClass, probability: f64) -> FaultRule {
        assert!(
            (0.0..=1.0).contains(&probability),
            "fault probability must be a probability"
        );
        FaultRule {
            kind,
            class,
            probability,
            window: None,
            nth: None,
            max_count: None,
            extra_delay: Duration::from_millis(2),
            seen: 0,
            fired: 0,
        }
    }

    /// Drop matching packets with `probability`.
    pub fn drop(class: PacketClass, probability: f64) -> FaultRule {
        FaultRule::new(FaultKind::Drop, class, probability)
    }

    /// Duplicate matching packets with `probability`.
    pub fn duplicate(class: PacketClass, probability: f64) -> FaultRule {
        FaultRule::new(FaultKind::Duplicate, class, probability)
    }

    /// Reorder matching packets (hold back by `extra`) with `probability`.
    pub fn reorder(class: PacketClass, probability: f64, extra: Duration) -> FaultRule {
        FaultRule {
            extra_delay: extra,
            ..FaultRule::new(FaultKind::Reorder, class, probability)
        }
    }

    /// Builder-style: restrict to a time window `[start, end)`.
    pub fn in_window(mut self, start: Instant, end: Instant) -> FaultRule {
        self.window = Some((start, end));
        self
    }

    /// Builder-style: fire only on the nth matching packet (1-based).
    pub fn on_nth(mut self, n: u64) -> FaultRule {
        assert!(n >= 1, "nth is 1-based");
        self.nth = Some(n);
        self
    }
}

/// What the plan decided for one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// No rule fired; transmit normally.
    Pass,
    /// Discard the packet.
    Drop,
    /// Transmit normally, plus a second delivery `extra` later.
    Duplicate {
        /// Offset of the duplicate copy after the primary delivery.
        extra: Duration,
    },
    /// Hold the delivery back by `extra` (reordering intent).
    Reorder {
        /// Extra latency added to the delivery.
        extra: Duration,
    },
    /// Add `extra` latency to the delivery.
    Delay {
        /// Extra latency added to the delivery.
        extra: Duration,
    },
}

/// A deterministic, per-link fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    rng: ChaCha8Stream,
}

impl FaultPlan {
    /// An empty plan with its own RNG stream.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            rng: ChaCha8Stream::seed_from_u64(seed),
        }
    }

    /// Builder-style: append a rule. Rules are evaluated in insertion
    /// order; the first that matches and fires wins.
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Append a rule.
    pub fn add_rule(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    /// Decide the fate of a packet offered to the link at `now`.
    pub(crate) fn apply(&mut self, now: Instant, pkt: &Packet) -> FaultVerdict {
        for rule in &mut self.rules {
            if let Some((start, end)) = rule.window {
                if now < start || now >= end {
                    continue;
                }
            }
            if !rule.class.matches(pkt) {
                continue;
            }
            rule.seen += 1;
            if let Some(n) = rule.nth {
                if rule.seen != n {
                    continue;
                }
            }
            if let Some(max) = rule.max_count {
                if rule.fired >= max {
                    continue;
                }
            }
            if rule.probability < 1.0 && self.rng.gen::<f64>() >= rule.probability {
                continue;
            }
            rule.fired += 1;
            return match rule.kind {
                FaultKind::Drop => FaultVerdict::Drop,
                FaultKind::Duplicate => FaultVerdict::Duplicate {
                    extra: rule.extra_delay,
                },
                FaultKind::Reorder => FaultVerdict::Reorder {
                    extra: rule.extra_delay,
                },
                FaultKind::Delay => FaultVerdict::Delay {
                    extra: rule.extra_delay,
                },
            };
        }
        FaultVerdict::Pass
    }
}

/// What a node-lifecycle fault does to its target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node crashes at the rule's instant and never comes back: every
    /// event addressed to it from then on is dropped.
    CrashStop,
    /// The node crashes, is dead for `outage`, then restarts with **empty
    /// state**: the engine drops everything addressed to it during the
    /// outage (including timers armed before the crash, which never fire
    /// even after restart) and invokes
    /// [`crate::sim::Node::on_restart`] before the first post-restart
    /// event, so recovery is forced through the protocol.
    CrashRestart {
        /// How long the node stays dead before restarting.
        outage: Duration,
    },
    /// The node keeps running but is cut off from the network for
    /// `duration`: deliveries to it are rejected and its own sends are
    /// dropped, while its timers keep firing and its state is preserved.
    Partition {
        /// How long the node stays unreachable.
        duration: Duration,
    },
}

/// One node-lifecycle fault: a target node, a start instant, a kind and a
/// firing probability.
#[derive(Debug, Clone)]
pub struct NodeFaultRule {
    /// The node this rule targets.
    pub node: NodeId,
    /// When the fault begins.
    pub at: Instant,
    /// What happens to the node.
    pub kind: NodeFaultKind,
    /// Probability the fault actually occurs, in `[0, 1]`. Drawn from a
    /// private stream keyed by `(plan seed, node, at, kind)`, so the draw
    /// is independent of rule insertion order.
    pub probability: f64,
}

impl NodeFaultRule {
    fn new(node: NodeId, at: Instant, kind: NodeFaultKind) -> NodeFaultRule {
        NodeFaultRule {
            node,
            at,
            kind,
            probability: 1.0,
        }
    }

    /// Crash `node` at `at`, permanently.
    pub fn crash_stop(node: NodeId, at: Instant) -> NodeFaultRule {
        NodeFaultRule::new(node, at, NodeFaultKind::CrashStop)
    }

    /// Crash `node` at `at`; it restarts with empty state `outage` later.
    pub fn crash_restart(node: NodeId, at: Instant, outage: Duration) -> NodeFaultRule {
        NodeFaultRule::new(node, at, NodeFaultKind::CrashRestart { outage })
    }

    /// Partition `node` off the network for `duration` starting at `at`.
    pub fn partition(node: NodeId, at: Instant, duration: Duration) -> NodeFaultRule {
        NodeFaultRule::new(node, at, NodeFaultKind::Partition { duration })
    }

    /// Builder-style: make the fault probabilistic.
    pub fn with_probability(mut self, probability: f64) -> NodeFaultRule {
        assert!(
            (0.0..=1.0).contains(&probability),
            "fault probability must be a probability"
        );
        self.probability = probability;
        self
    }
}

/// A compiled down-window for one node (see [`NodeFaultPlan::compile`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outage {
    /// First instant the node is down (inclusive).
    pub(crate) from: Instant,
    /// First instant the node is back (exclusive); `Instant::MAX` for a
    /// crash-stop.
    pub(crate) until: Instant,
    /// Crash semantics: state is erased at restart and timers armed before
    /// the crash never fire. `false` = partition (state preserved, timers
    /// keep firing, only the network is cut).
    pub(crate) erase: bool,
}

/// The compiled per-node outage schedule, sorted and non-overlapping.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeOutageSet {
    pub(crate) windows: Vec<Outage>,
}

/// A deterministic node-lifecycle fault schedule, attached to a whole
/// simulator via
/// [`Simulator::attach_node_fault_plan`](crate::sim::Simulator::attach_node_fault_plan).
#[derive(Debug, Clone)]
pub struct NodeFaultPlan {
    seed: u64,
    rules: Vec<NodeFaultRule>,
}

impl NodeFaultPlan {
    /// An empty plan with its own RNG stream for probability draws.
    pub fn new(seed: u64) -> NodeFaultPlan {
        NodeFaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style [`NodeFaultPlan::add_rule`].
    #[cfg(test)]
    pub(crate) fn with_rule(mut self, rule: NodeFaultRule) -> NodeFaultPlan {
        self.rules.push(rule);
        self
    }

    /// Append a rule. Rule order carries no meaning: whether a
    /// probabilistic rule fires depends only on the plan seed and the
    /// rule's `(node, at, kind)`.
    pub fn add_rule(&mut self, rule: NodeFaultRule) {
        self.rules.push(rule);
    }

    /// Resolve probability draws and compile the plan into per-node outage
    /// schedules. Panics on a rule targeting an unknown node or on
    /// overlapping windows for one node (the lifecycle would be ambiguous).
    pub(crate) fn compile(&self, nnodes: usize) -> Vec<NodeOutageSet> {
        let mut sets = vec![NodeOutageSet::default(); nnodes];
        for rule in &self.rules {
            assert!(
                rule.node < nnodes,
                "node fault targets unknown node {}",
                rule.node
            );
            let kind_tag = match rule.kind {
                NodeFaultKind::CrashStop => 1u64,
                NodeFaultKind::CrashRestart { .. } => 2,
                NodeFaultKind::Partition { .. } => 3,
            };
            if rule.probability < 1.0 {
                // Per-rule stream keyed by content, not insertion order.
                let mut rng = ChaCha8Stream::seed_from_u64(stream_seed(
                    self.seed,
                    3,
                    (rule.node as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(kind_tag)
                        ^ rule.at.nanos(),
                ));
                if rng.gen::<f64>() >= rule.probability {
                    continue;
                }
            }
            let (until, erase) = match rule.kind {
                NodeFaultKind::CrashStop => (Instant::MAX, true),
                NodeFaultKind::CrashRestart { outage } => (rule.at + outage, true),
                NodeFaultKind::Partition { duration } => (rule.at + duration, false),
            };
            sets[rule.node].windows.push(Outage {
                from: rule.at,
                until,
                erase,
            });
        }
        for (node, set) in sets.iter_mut().enumerate() {
            set.windows.sort_by_key(|w| (w.from, w.until));
            for pair in set.windows.windows(2) {
                assert!(
                    pair[0].until <= pair[1].from,
                    "overlapping fault windows on node {node}"
                );
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Message, Payload};
    use std::net::Ipv4Addr;

    fn pkt(protocol: u8, dst_port: u16) -> Packet {
        let mut p = Packet::udp(
            (Ipv4Addr::new(10, 0, 0, 1), 100),
            (Ipv4Addr::new(10, 0, 0, 2), dst_port),
            64,
        );
        p.protocol = protocol;
        p
    }

    #[test]
    fn class_matches_on_all_populated_fields() {
        let class = PacketClass {
            protocol: Some(132),
            ..PacketClass::any()
        }
        .with_dst_port(36412);
        assert!(class.matches(&pkt(132, 36412)));
        assert!(!class.matches(&pkt(132, 36422)));
        assert!(!class.matches(&pkt(17, 36412)));
        assert!(PacketClass::any().matches(&pkt(6, 9)));
    }

    #[derive(Debug, PartialEq)]
    struct Tagged(&'static str);

    impl Message for Tagged {
        fn encoded_len(&self) -> u32 {
            self.0.len() as u32
        }

        fn tag(&self) -> Option<&'static str> {
            Some(self.0)
        }
    }

    #[test]
    fn payload_tag_matches_the_typed_message_tag() {
        let class = PacketClass::any().with_payload_tag("PSq");
        let mut p = pkt(132, 36412);
        p.payload = Payload::typed(0, Tagged("PSq"));
        assert!(class.matches(&p));
        p.payload = Payload::typed(0, Tagged("PSa"));
        assert!(!class.matches(&p));
        p.payload = Payload::default();
        assert!(!class.matches(&p));
    }

    #[test]
    fn nth_rule_fires_exactly_once() {
        let mut plan =
            FaultPlan::new(1).with_rule(FaultRule::drop(PacketClass::any(), 1.0).on_nth(2));
        let p = pkt(17, 9);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Pass);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Pass);
        assert_eq!(plan.rules[0].fired, 1);
        assert_eq!(plan.rules[0].seen, 3);
    }

    #[test]
    fn window_scopes_matching() {
        let rule = FaultRule::drop(PacketClass::any(), 1.0)
            .in_window(Instant::from_millis(10), Instant::from_millis(20));
        let mut plan = FaultPlan::new(1).with_rule(rule);
        let p = pkt(17, 9);
        assert_eq!(plan.apply(Instant::from_millis(5), &p), FaultVerdict::Pass);
        assert_eq!(plan.apply(Instant::from_millis(10), &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::from_millis(20), &p), FaultVerdict::Pass);
        // Out-of-window packets are not even counted as seen.
        assert_eq!(plan.rules[0].seen, 1);
    }

    #[test]
    fn max_count_caps_firings() {
        let mut rule = FaultRule::drop(PacketClass::any(), 1.0);
        rule.max_count = Some(2);
        let mut plan = FaultPlan::new(1).with_rule(rule);
        let p = pkt(17, 9);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Pass);
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed).with_rule(FaultRule::drop(PacketClass::any(), 0.3));
            let p = pkt(17, 9);
            (0..64)
                .map(|_| plan.apply(Instant::ZERO, &p) == FaultVerdict::Drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut plan = FaultPlan::new(1)
            .with_rule(FaultRule::duplicate(
                PacketClass {
                    protocol: Some(132),
                    ..PacketClass::any()
                },
                1.0,
            ))
            .with_rule(FaultRule::drop(PacketClass::any(), 1.0));
        assert!(matches!(
            plan.apply(Instant::ZERO, &pkt(132, 1)),
            FaultVerdict::Duplicate { .. }
        ));
        assert_eq!(plan.apply(Instant::ZERO, &pkt(17, 1)), FaultVerdict::Drop);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn probability_outside_unit_interval_panics() {
        let _ = FaultRule::drop(PacketClass::any(), 1.5);
    }

    fn pkt_from(src_port: u16, dst_port: u16) -> Packet {
        Packet::udp(
            (Ipv4Addr::new(10, 0, 0, 1), src_port),
            (Ipv4Addr::new(10, 0, 0, 2), dst_port),
            64,
        )
    }

    #[test]
    fn src_port_matcher_isolates_one_sender() {
        let class = PacketClass::src_port(8000);
        assert!(class.matches(&pkt_from(8000, 9000)));
        assert!(!class.matches(&pkt_from(8001, 9000)));
        // Composes with the other selectors.
        let both = PacketClass::any().with_dst_port(9000).with_src_port(8000);
        assert!(both.matches(&pkt_from(8000, 9000)));
        assert!(!both.matches(&pkt_from(8000, 9001)));
        assert!(!both.matches(&pkt_from(7999, 9000)));
    }

    #[test]
    fn node_plan_compiles_sorted_windows() {
        let plan = NodeFaultPlan::new(1)
            .with_rule(NodeFaultRule::crash_restart(
                2,
                Instant::from_secs(10),
                Duration::from_secs(5),
            ))
            .with_rule(NodeFaultRule::partition(
                2,
                Instant::from_secs(1),
                Duration::from_secs(2),
            ))
            .with_rule(NodeFaultRule::crash_stop(0, Instant::from_secs(3)));
        let sets = plan.compile(4);
        assert_eq!(sets[0].windows.len(), 1);
        assert_eq!(sets[0].windows[0].until, Instant::MAX);
        assert!(sets[0].windows[0].erase);
        assert_eq!(sets[1].windows.len(), 0);
        let w = &sets[2].windows;
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].from, Instant::from_secs(1));
        assert!(!w[0].erase, "partition preserves state");
        assert_eq!(w[1].from, Instant::from_secs(10));
        assert_eq!(w[1].until, Instant::from_secs(15));
    }

    #[test]
    fn node_plan_draws_ignore_insertion_order() {
        let a = NodeFaultRule::crash_stop(0, Instant::from_secs(1)).with_probability(0.5);
        let b = NodeFaultRule::crash_stop(1, Instant::from_secs(2)).with_probability(0.5);
        let hits = |plan: NodeFaultPlan| -> Vec<bool> {
            plan.compile(2)
                .iter()
                .map(|s| !s.windows.is_empty())
                .collect()
        };
        let fwd = hits(
            NodeFaultPlan::new(9)
                .with_rule(a.clone())
                .with_rule(b.clone()),
        );
        let rev = hits(NodeFaultPlan::new(9).with_rule(b).with_rule(a));
        assert_eq!(fwd, rev, "draws are keyed by content, not order");
    }

    #[test]
    #[should_panic(expected = "overlapping fault windows")]
    fn overlapping_node_windows_are_rejected() {
        NodeFaultPlan::new(1)
            .with_rule(NodeFaultRule::crash_stop(0, Instant::from_secs(1)))
            .with_rule(NodeFaultRule::partition(
                0,
                Instant::from_secs(2),
                Duration::from_secs(1),
            ))
            .compile(1);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn node_plan_rejects_unknown_nodes() {
        NodeFaultPlan::new(1)
            .with_rule(NodeFaultRule::crash_stop(5, Instant::ZERO))
            .compile(2);
    }
}
