//! Deterministic link-layer fault injection.
//!
//! A [`FaultPlan`] attaches to a [`Link`](crate::link::Link) and decides,
//! packet by packet, whether to drop, duplicate or reorder it. Plans are
//! fully deterministic: each carries its **own** ChaCha8 RNG stream,
//! seeded independently of the simulation RNG, so attaching (or detaching)
//! a plan never perturbs jitter/loss draws elsewhere — runs with faults
//! disabled stay byte-identical to runs on a build without fault injection
//! at all.
//!
//! A rule fires with a probability on the packets of its [`PacketClass`]
//! (every packet, or those carrying one typed message's tag), optionally
//! only inside a time window or only on the nth matching packet. The
//! first rule that matches and fires wins.
//!
//! # Node-lifecycle faults
//!
//! A [`NodeFaultPlan`] targets *nodes* instead of links: crash-stop, or
//! crash-restart after a configurable outage. It is a fixed schedule, so
//! rule insertion order never changes which nodes are hit, and attaching
//! an empty plan is byte-identical to attaching none at all. While a node
//! is down the engine drops every event addressed to it, and a restart
//! erases the node's state through [`crate::sim::Node::on_restart`], so
//! recovery happens through the protocol, never through preserved memory.

use crate::packet::Packet;
use crate::sim::NodeId;
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
}

/// A message-class selector: every packet ([`PacketClass::any`]), or only
/// those carrying a typed message with one tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketClass {
    /// Match packets carrying a typed message with this tag — precise
    /// per-message targeting of control messages (`PSq`, `HOq`, …).
    pub payload_tag: Option<String>,
}

impl PacketClass {
    /// Match every packet.
    pub fn any() -> PacketClass {
        PacketClass::default()
    }

    /// Builder-style: require a typed payload whose
    /// [`Message::tag`](crate::packet::Message::tag) is `tag`.
    pub fn with_payload_tag(mut self, tag: &str) -> PacketClass {
        self.payload_tag = Some(tag.to_string());
        self
    }

    /// Does `pkt` belong to this class?
    pub fn matches(&self, pkt: &Packet) -> bool {
        match &self.payload_tag {
            Some(tag) => pkt.payload.tag() == Some(tag.as_str()),
            None => true,
        }
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
    /// Extra latency for the `Duplicate`/`Reorder` kinds.
    pub extra_delay: Duration,
    seen: u64,
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
            extra_delay: Duration::from_millis(2),
            seen: 0,
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
            if rule.probability < 1.0 && self.rng.gen::<f64>() >= rule.probability {
                continue;
            }
            return match rule.kind {
                FaultKind::Drop => FaultVerdict::Drop,
                FaultKind::Duplicate => FaultVerdict::Duplicate {
                    extra: rule.extra_delay,
                },
                FaultKind::Reorder => FaultVerdict::Reorder {
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
}

/// One node-lifecycle fault: a target node, a start instant and a kind.
#[derive(Debug, Clone)]
pub struct NodeFaultRule {
    /// The node this rule targets.
    pub node: NodeId,
    /// When the fault begins.
    pub at: Instant,
    /// What happens to the node.
    pub kind: NodeFaultKind,
}

impl NodeFaultRule {
    /// Crash `node` at `at`, permanently.
    pub fn crash_stop(node: NodeId, at: Instant) -> NodeFaultRule {
        NodeFaultRule {
            node,
            at,
            kind: NodeFaultKind::CrashStop,
        }
    }

    /// Crash `node` at `at`; it restarts with empty state `outage` later.
    pub fn crash_restart(node: NodeId, at: Instant, outage: Duration) -> NodeFaultRule {
        NodeFaultRule {
            node,
            at,
            kind: NodeFaultKind::CrashRestart { outage },
        }
    }
}

/// A compiled down-window for one node (see [`NodeFaultPlan::compile`]):
/// the node is down from `from` (inclusive) to `until` (exclusive;
/// `Instant::MAX` for a crash-stop), and restarts empty at `until`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outage {
    pub(crate) from: Instant,
    pub(crate) until: Instant,
}

/// The compiled per-node outage schedule, sorted and non-overlapping.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeOutageSet {
    pub(crate) windows: Vec<Outage>,
}

/// A deterministic node-lifecycle fault schedule, attached to a whole
/// simulator via
/// [`Simulator::attach_node_fault_plan`](crate::sim::Simulator::attach_node_fault_plan).
#[derive(Debug, Clone, Default)]
pub struct NodeFaultPlan {
    rules: Vec<NodeFaultRule>,
}

impl NodeFaultPlan {
    /// Builder-style [`NodeFaultPlan::add_rule`].
    #[cfg(test)]
    pub(crate) fn with_rule(mut self, rule: NodeFaultRule) -> NodeFaultPlan {
        self.rules.push(rule);
        self
    }

    /// Append a rule. Rule order carries no meaning.
    pub fn add_rule(&mut self, rule: NodeFaultRule) {
        self.rules.push(rule);
    }

    /// Compile the plan into per-node outage schedules. Panics on a rule
    /// targeting an unknown node or on overlapping windows for one node
    /// (the lifecycle would be ambiguous).
    pub(crate) fn compile(&self, nnodes: usize) -> Vec<NodeOutageSet> {
        let mut sets = vec![NodeOutageSet::default(); nnodes];
        for rule in &self.rules {
            assert!(
                rule.node < nnodes,
                "node fault targets unknown node {}",
                rule.node
            );
            let until = match rule.kind {
                NodeFaultKind::CrashStop => Instant::MAX,
                NodeFaultKind::CrashRestart { outage } => rule.at + outage,
            };
            sets[rule.node].windows.push(Outage {
                from: rule.at,
                until,
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

    fn pkt() -> Packet {
        Packet::udp(
            (Ipv4Addr::new(10, 0, 0, 1), 100),
            (Ipv4Addr::new(10, 0, 0, 2), 36412),
            64,
        )
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

    fn tagged(tag: &'static str) -> Packet {
        let mut p = pkt();
        p.payload = Payload::typed(0, Tagged(tag));
        p
    }

    #[test]
    fn class_matches_on_all_populated_fields() {
        // The empty selector matches everything, tagged or not.
        assert!(PacketClass::any().matches(&tagged("PSa")));
        assert!(PacketClass::any().matches(&pkt()));
        // A populated selector (the payload tag is the only field) must hold.
        let class = PacketClass {
            payload_tag: Some("PSq".to_string()),
        };
        assert_eq!(class, PacketClass::any().with_payload_tag("PSq"));
        assert!(class.matches(&tagged("PSq")));
        assert!(!class.matches(&pkt()));
    }

    #[test]
    fn payload_tag_matches_the_typed_message_tag() {
        let class = PacketClass::any().with_payload_tag("PSq");
        assert!(class.matches(&tagged("PSq")));
        assert!(!class.matches(&tagged("PSa")));
        assert!(!class.matches(&pkt()));
    }

    #[test]
    fn nth_rule_fires_exactly_once() {
        let mut plan =
            FaultPlan::new(1).with_rule(FaultRule::drop(PacketClass::any(), 1.0).on_nth(2));
        let p = pkt();
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Pass);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::ZERO, &p), FaultVerdict::Pass);
        assert_eq!(plan.rules[0].seen, 3);
    }

    #[test]
    fn window_scopes_matching() {
        let rule = FaultRule::drop(PacketClass::any(), 1.0)
            .in_window(Instant::from_millis(10), Instant::from_millis(20));
        let mut plan = FaultPlan::new(1).with_rule(rule);
        let p = pkt();
        assert_eq!(plan.apply(Instant::from_millis(5), &p), FaultVerdict::Pass);
        assert_eq!(plan.apply(Instant::from_millis(10), &p), FaultVerdict::Drop);
        assert_eq!(plan.apply(Instant::from_millis(20), &p), FaultVerdict::Pass);
        // Out-of-window packets are not even counted as seen.
        assert_eq!(plan.rules[0].seen, 1);
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed).with_rule(FaultRule::drop(PacketClass::any(), 0.3));
            let p = pkt();
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
                PacketClass::any().with_payload_tag("HOq"),
                1.0,
            ))
            .with_rule(
                FaultRule::reorder(PacketClass::any(), 1.0, Duration::from_millis(1))
                    .in_window(Instant::ZERO, Instant::from_millis(10)),
            )
            .with_rule(FaultRule::drop(PacketClass::any(), 1.0));
        assert!(matches!(
            plan.apply(Instant::ZERO, &tagged("HOq")),
            FaultVerdict::Duplicate { .. }
        ));
        assert!(matches!(
            plan.apply(Instant::ZERO, &tagged("PSq")),
            FaultVerdict::Reorder { .. }
        ));
        assert_eq!(
            plan.apply(Instant::from_millis(10), &tagged("PSq")),
            FaultVerdict::Drop
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn probability_outside_unit_interval_panics() {
        let _ = FaultRule::drop(PacketClass::any(), 1.5);
    }

    #[test]
    fn node_plan_compiles_sorted_windows() {
        let plan = NodeFaultPlan::default()
            .with_rule(NodeFaultRule::crash_restart(
                2,
                Instant::from_secs(10),
                Duration::from_secs(5),
            ))
            .with_rule(NodeFaultRule::crash_restart(
                2,
                Instant::from_secs(1),
                Duration::from_secs(2),
            ))
            .with_rule(NodeFaultRule::crash_stop(0, Instant::from_secs(3)));
        let sets = plan.compile(4);
        assert_eq!(sets[0].windows.len(), 1);
        assert_eq!(sets[0].windows[0].until, Instant::MAX);
        assert_eq!(sets[1].windows.len(), 0);
        let w = &sets[2].windows;
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].from, w[0].until),
            (Instant::from_secs(1), Instant::from_secs(3))
        );
        assert_eq!(
            (w[1].from, w[1].until),
            (Instant::from_secs(10), Instant::from_secs(15))
        );
    }

    #[test]
    #[should_panic(expected = "overlapping fault windows")]
    fn overlapping_node_windows_are_rejected() {
        NodeFaultPlan::default()
            .with_rule(NodeFaultRule::crash_stop(0, Instant::from_secs(1)))
            .with_rule(NodeFaultRule::crash_restart(
                0,
                Instant::from_secs(2),
                Duration::from_secs(1),
            ))
            .compile(1);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn node_plan_rejects_unknown_nodes() {
        NodeFaultPlan::default()
            .with_rule(NodeFaultRule::crash_stop(5, Instant::ZERO))
            .compile(2);
    }
}
