//! Links: serialization, propagation, queueing and fault injection.
//!
//! A [`Link`] is a unidirectional channel with
//!
//! * a transmission **rate** (bits/s; `0` means infinitely fast),
//! * a **propagation delay**,
//! * per-class drop-tail **queues** bounded in bytes (`None` = unbounded),
//! * optional uniform **jitter** added to each delivery, and
//! * an optional i.i.d. **loss** probability.
//!
//! # Strict-priority scheduling
//!
//! Packets are classified by DSCP — the top six bits of the IP ToS byte
//! (`tos >> 2`), which is what [`Qci::tos`] in the LTE layer produces.
//! Higher DSCP is strictly higher priority. Each class owns its own
//! byte-bounded drop-tail queue, FIFO within the class, and its counters
//! live with it: a rate-0 link (an air link, a loopback) keeps its totals.
//!
//! Serialization is modelled analytically with per-class committed
//! intervals: a packet of class `c` handed to the link at time `t` begins
//! transmitting at
//!
//! ```text
//! start = max(t, reserved(c), active())
//! ```
//!
//! where `reserved(c)` is the latest committed completion over all classes
//! with priority **≥ c** (a new packet can never overtake equal- or
//! higher-priority traffic), and `active()` is the completion time of
//! whichever packet is on the wire at `t` (a transmission in progress is
//! never preempted — preemption happens at dequeue time only). Queued
//! lower-priority packets that have *not* yet reached the wire are
//! overtaken. The bytes standing between `t` and the class's committed
//! horizon are the backlog used by that class's drop-tail check; with all
//! traffic in a single class this degenerates exactly to the old
//! single-FIFO `busy_until` watermark, reproducing the bufferbloat latency
//! curves of the paper's Fig. 3(g)/10(b) byte-for-byte.
//!
//! One approximation keeps the model enqueue-time-analytic (and therefore
//! deterministic, with per-class state that grows only while a class is
//! backlogged): completion times already promised to lower-priority
//! packets are never revised when higher-priority traffic arrives later,
//! so under sustained cross-class load committed intervals may overlap and
//! low-priority delay is *understated* relative to a cycle-accurate
//! scheduler. See DESIGN.md for the ledger entry.
//!
//! # Packets in flight
//!
//! A link holds the packets it has accepted and not yet delivered, so a
//! saturated class costs the event loop one pending event, not one per
//! queued packet. Each class with a ledger keeps a *chain*: its first
//! packet goes on the shard's wheel as the chain's head, and each later
//! one waits in the link with its arrival instant and the event key it was
//! given when sent. Dispatching the head puts the next packet on the wheel
//! under that same `(at, key)`, so the wheel pops exactly what it would
//! have popped with one event per packet. A packet joins its class's chain
//! only when its destination is on the link's own shard and it arrives no
//! earlier than the chain's tail. Everything else is its own arrival
//! event: the packets of a rate-0 link (no ledger), a cross-shard
//! destination, an injected duplicate copy, and an arrival that jitter, a
//! shortened delay or an injected reorder would land ahead of the tail.
//!
//! The packets behind a head wait in blocks: a first deque that doubles
//! up to 256 packets, which is all a short chain ever allocates, then
//! fixed 256-packet blocks, the last one drained kept for the next. A
//! standing queue of 9 000 packets costs its packets, at most two partly
//! filled blocks and a spare, not a deque doubled to 16 384 entries.
//!
//! [`Qci::tos`]: ../../acacia_lte/qci/struct.Qci.html

use crate::fault::{FaultPlan, FaultVerdict};
use crate::packet::Packet;
use crate::sim::{NodeId, PortId};
use crate::time::{serialization_time, Duration, Instant};
use rand::Rng;
use rand_chacha::ChaCha8Stream;
use std::collections::VecDeque;

/// Static configuration of a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Transmission rate in bits per second; `0` disables serialization
    /// delay entirely (an "infinitely fast" link).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Drop-tail queue bound in bytes, applied to each priority class's
    /// queue independently (`u64::MAX` = unbounded).
    pub queue_bytes: u64,
    /// Uniform random extra delay in `[0, jitter)` applied per packet.
    pub jitter: Duration,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkConfig {
    /// A link with only a fixed propagation delay (no rate limit, no loss).
    pub fn delay_only(delay: Duration) -> LinkConfig {
        LinkConfig {
            rate_bps: 0,
            delay,
            queue_bytes: u64::MAX,
            jitter: Duration::ZERO,
            loss: 0.0,
        }
    }

    /// A rate-limited link with a delay and a default 256 KiB queue.
    pub fn rate_limited(rate_bps: u64, delay: Duration) -> LinkConfig {
        LinkConfig {
            rate_bps,
            delay,
            queue_bytes: 256 * 1024,
            jitter: Duration::ZERO,
            loss: 0.0,
        }
    }

    /// Builder-style: set the queue bound.
    pub fn with_queue(mut self, bytes: u64) -> LinkConfig {
        self.queue_bytes = bytes;
        self
    }

    /// Builder-style: set jitter.
    pub fn with_jitter(mut self, jitter: Duration) -> LinkConfig {
        self.jitter = jitter;
        self
    }

    /// Builder-style: set the loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkConfig {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }
}

/// Per-priority-class counters exported per link.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// Packets accepted into this class's queue.
    pub enqueued: u64,
    /// Wire bytes accepted into this class's queue.
    pub enqueued_bytes: u64,
    /// Packets dropped because this class's queue bound was exceeded.
    pub drops_queue: u64,
    /// Bytes committed but not yet drained, as of the last offer to the
    /// link (backlogs are settled lazily, like the queues themselves).
    pub backlog_bytes: u64,
}

/// Counters exported per link: a snapshot assembled by `Link::stats`.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets accepted and (eventually) delivered.
    pub tx_packets: u64,
    /// Wire bytes accepted.
    pub tx_bytes: u64,
    /// Packets dropped because the queue bound was exceeded.
    pub drops_queue: u64,
    /// Packets dropped by random loss.
    pub drops_loss: u64,
    /// Packets dropped by an injected fault rule.
    pub drops_injected: u64,
    /// Firings of an injected duplicate fault. A firing makes a second
    /// copy only when the link then accepts the packet: one it loses or
    /// queue-drops is counted here and in its drop counter, and neither
    /// copy is delivered.
    pub duplicates_injected: u64,
    /// Firings of an injected reorder fault, likewise counted whether or
    /// not the link then accepts the packet it holds back.
    pub reorders_injected: u64,
    /// Total transmitter busy time committed (sum of serialization times
    /// of accepted packets). A scheduler may reorder service but never
    /// invents or destroys work, so this is scheduler-invariant.
    pub busy: Duration,
    /// Per-DSCP-class counters, keyed by `tos >> 2`, in ascending DSCP
    /// order, kept by rate-limited links: a class appears once it accepts
    /// or queue-drops a packet (a rate-0 link only lists a queue-drop).
    pub classes: Vec<(u8, ClassStats)>,
}

impl LinkStats {
    /// All drops combined (congestion + random loss + injected).
    pub fn drops(&self) -> u64 {
        self.drops_queue + self.drops_loss + self.drops_injected
    }

    /// Counters for one DSCP class (`None` if the class never accepted or
    /// queue-dropped a packet).
    pub fn class(&self, dscp: u8) -> Option<&ClassStats> {
        self.classes
            .iter()
            .find(|&&(d, _)| d == dscp)
            .map(|(_, cs)| cs)
    }
}

/// The counters every link keeps inline. The rest of [`LinkStats`] is
/// derived: the queue-drop and busy totals are sums over the class
/// queues, and the injected-fault counts live with the fault plan.
#[derive(Debug, Default)]
struct Counters {
    tx_packets: u64,
    tx_bytes: u64,
    drops_loss: u64,
}

/// Firings of the injected-fault rules, by kind.
#[derive(Debug, Clone, Copy, Default)]
struct Injected {
    drops: u64,
    duplicates: u64,
    reorders: u64,
}

/// A link's fault state, allocated when a plan is first attached: the
/// current plan, if any, and what every plan attached so far injected.
#[derive(Debug, Default)]
struct Faults {
    plan: Option<FaultPlan>,
    injected: Injected,
}

/// Delivery instants produced by one [`Link::transmit`] call.
#[derive(Debug, Default)]
pub(crate) struct Deliveries<'a> {
    /// When the (possibly fault-delayed) packet arrives, if not dropped.
    pub primary: Option<Instant>,
    /// When an injected duplicate copy arrives, if any.
    pub duplicate: Option<Instant>,
    /// The offered class's chain, when the primary copy may join it: the
    /// class has a ledger and the copy arrives no earlier than the chain's
    /// tail. Whether its destination shares the link's shard is the
    /// caller's to check.
    pub chain: Option<&'a mut ClassQueue>,
}

/// A packet waiting in its class's chain: its arrival instant, the
/// emission counter of the event key it was given when sent (the key's
/// source is the link's source node), and the packet.
pub(crate) type Held = (Instant, u64, Packet);

/// The largest first block a class keeps for its next chain when one
/// closes. A link whose chain opens and closes every few packets then
/// allocates its block once, not an allocation, a free and the regrowth at
/// every reopening, while the blocks a saturated burst filled (9 000
/// packets in `figures loaded`) are freed with its burst.
const KEEP_WAITING: usize = 64;

/// Entries in a chain's first block once it stops doubling, and in every
/// block after it: 256 packets, 20 KiB.
const BLOCK: usize = 256;

/// One block of a chain's waiting packets.
type Block = VecDeque<Held>;

/// The packets waiting behind a chain's head, in send order, stored in
/// blocks. The first block is an ordinary deque that doubles up to
/// `BLOCK` entries, so a short chain (a radio link, signalling) costs what
/// a deque costs. Past that the chain appends fixed `BLOCK`-entry blocks,
/// and the last block popping drained is kept as the spare the next block
/// starts from, so a standing queue allocates no block per `BLOCK` packets
/// it passes. A standing queue of `n` packets therefore holds at most
/// `n + 3 * BLOCK` entries, where one deque doubles to up to `2n`.
#[derive(Debug, Default)]
struct Waiting {
    /// The oldest packets; it takes pushes only until `rest` is made.
    first: Block,
    /// Full blocks behind `first`, then the one being filled (never an
    /// empty block), and the spare: the block drained last, or no
    /// allocation. Boxed, so that a chain that never outgrows its first
    /// block costs a 40 B allocation, the same 48 B malloc chunk as a bare
    /// deque's.
    rest: Option<Box<(VecDeque<Block>, Block)>>,
}

const _: () = assert!(std::mem::size_of::<Waiting>() <= 40);

impl Waiting {
    fn push_back(&mut self, held: Held) {
        if self.rest.is_none() && self.first.len() < BLOCK {
            self.first.push_back(held);
            return;
        }
        let (blocks, spare) = &mut **self.rest.get_or_insert_default();
        match blocks.back_mut() {
            Some(block) if block.len() < BLOCK => block.push_back(held),
            _ => {
                let mut block = std::mem::take(spare);
                block.reserve_exact(BLOCK);
                block.push_back(held);
                blocks.push_back(block);
            }
        }
    }

    fn pop_front(&mut self) -> Option<Held> {
        if self.first.is_empty() {
            // The next block takes the drained one's place, which becomes
            // the spare (freeing the one before it, if any).
            let (blocks, spare) = self.rest.as_deref_mut()?;
            *spare = std::mem::replace(&mut self.first, blocks.pop_front()?);
        }
        self.first.pop_front()
    }

    /// The packets in send order.
    fn into_held(self) -> impl Iterator<Item = Held> {
        let rest = self
            .rest
            .into_iter()
            .flat_map(|rest| rest.0.into_iter().flatten());
        self.first.into_iter().chain(rest)
    }
}

/// One priority class's ledger, chain and counters.
///
/// The ledger holds the committed transmissions `(start, done, wire
/// bytes)`, FIFO within the class, purged lazily once serialization
/// completes. Its byte sum is the class's [`ClassStats::backlog_bytes`],
/// kept incrementally so the drop-tail check is O(1).
///
/// The chain is the class's packets in flight to a same-shard destination
/// (see *Packets in flight* above): the head is on the wheel, the rest
/// wait here, in `Waiting`'s blocks. The chain costs the entry 8 B, the
/// tail instant, while the packets behind the head get their blocks only
/// once a second packet joins.
#[derive(Debug, Default)]
pub(crate) struct ClassQueue {
    q: VecDeque<(Instant, Instant, u64)>,
    /// The class's counters (`backlog_bytes` is the ledger's byte sum) and
    /// the serialization time committed to its accepted packets.
    stats: ClassStats,
    busy: Duration,
    /// Arrival instant of the chain's last packet; `Instant::ZERO` while no
    /// chain is open. A chained packet arrives after its serialization
    /// ends, which is after the instant it was offered, so never at zero.
    tail: Instant,
    /// The open chain's packets behind its head: allocated when a second
    /// packet first joins, and kept, empty, when the chain closes unless
    /// its first block outgrew `KEEP_WAITING` packets. Boxed: a pointer
    /// here, where the blocks inline would cost every class 40 B.
    waiting: Option<Box<Waiting>>,
}

impl ClassQueue {
    /// Add the packet arriving at `at` under key counter `ctr` to the
    /// chain. Returns it when it opens the chain: the caller puts it on the
    /// wheel as the chain's head. Otherwise the link holds it until the
    /// packet ahead of it is dispatched.
    pub(crate) fn hold(&mut self, at: Instant, ctr: u64, pkt: Packet) -> Option<Packet> {
        debug_assert!(at >= self.tail && at > Instant::ZERO);
        let open = self.tail > Instant::ZERO;
        self.tail = at;
        if !open {
            return Some(pkt);
        }
        self.waiting
            .get_or_insert_default()
            .push_back((at, ctr, pkt));
        None
    }

    /// The chain's head was dispatched: the packet behind it, which
    /// becomes the new head, or `None` once the chain is closed.
    pub(crate) fn release(&mut self) -> Option<Held> {
        let next = self.waiting.as_mut().and_then(|w| w.pop_front());
        if next.is_none() {
            self.tail = Instant::ZERO;
            // A closed chain's blocks are all drained but the first.
            if self
                .waiting
                .as_ref()
                .is_some_and(|w| w.first.capacity() > KEEP_WAITING)
            {
                self.waiting = None;
            }
        }
        next
    }

    /// Close the chain, handing back the packets behind its head in send
    /// order.
    pub(crate) fn flush(&mut self) -> impl Iterator<Item = Held> {
        self.tail = Instant::ZERO;
        self.waiting.take().into_iter().flat_map(|w| w.into_held())
    }
}

/// The value for `dscp` in a per-class list sorted by DSCP, inserted as
/// the default if absent. The list grows by exactly one slot: a link
/// carries a few classes for its whole life, and a metro keeps thousands
/// of links.
fn entry<T: Default>(classes: &mut Vec<(u8, T)>, dscp: u8) -> &mut T {
    let i = match classes.binary_search_by_key(&dscp, |&(d, _)| d) {
        Ok(i) => i,
        Err(i) => {
            classes.reserve_exact(1);
            classes.insert(i, (dscp, T::default()));
            i
        }
    };
    &mut classes[i].1
}

/// A node id or port number as a link stores it.
fn narrow(id: usize) -> u32 {
    u32::try_from(id).expect("node ids and ports fit in 32 bits")
}

/// A unidirectional link between two node ports.
pub struct Link {
    cfg: LinkConfig,
    /// Destination node and port, each narrowed to 32 bits.
    to: (u32, u32),
    /// Ledgers, chains and counters per DSCP class, keyed by `tos >> 2`,
    /// in ascending DSCP order. Only intervals still running when offered
    /// are kept, and a class gets its entry on a rated link only, so a
    /// rate-0 link's list stays empty (and it chains nothing) unless a
    /// packet outgrows the queue bound.
    queues: Vec<(u8, ClassQueue)>,
    stats: Counters,
    /// Private RNG stream for loss and jitter draws, seeded from the
    /// master seed and the link's source endpoint. Draw order therefore
    /// depends only on the offered-packet sequence, never on how other
    /// links or shards interleave.
    rng: ChaCha8Stream,
    /// Injected-fault schedule (with its own RNG stream) and counters,
    /// boxed because only chaos runs set one.
    fault: Option<Box<Faults>>,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig, to: (NodeId, PortId), rng_seed: u64) -> Link {
        Link {
            cfg,
            to: (narrow(to.0), narrow(to.1)),
            queues: Vec::new(),
            stats: Counters::default(),
            rng: ChaCha8Stream::seed_from_u64(rng_seed),
            fault: None,
        }
    }

    /// Destination `(node, port)` of this link.
    pub(crate) fn to(&self) -> (NodeId, PortId) {
        (self.to.0 as NodeId, self.to.1 as PortId)
    }

    /// Configured propagation delay — the floor on every delivery this
    /// link can produce (serialization, jitter and injected-fault extras
    /// only add to it), which is what conservative lookahead relies on.
    pub(crate) fn delay(&self) -> Duration {
        self.cfg.delay
    }

    /// Attach (or replace, or with `None` detach) the fault plan. The
    /// injected-fault counters outlive the plans that fed them.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        if plan.is_some() || self.fault.is_some() {
            self.fault.get_or_insert_default().plan = plan;
        }
    }

    /// Offer `pkt` to the link at time `now`.
    ///
    /// Returns the delivery instant(s): `primary` is `None` when the packet
    /// was dropped (queue overflow, random loss, or an injected drop);
    /// `duplicate` is `Some` when an injected fault delivers a second copy.
    pub(crate) fn transmit(&mut self, now: Instant, pkt: &Packet) -> Deliveries<'_> {
        let wire_bytes = u64::from(pkt.wire_size());
        let class = pkt.tos >> 2;
        // Purge packets whose serialization completed, and settle every
        // class's backlog: one whose ledger emptied holds nothing (which
        // also clears the single packet a zero-length interval reported,
        // below), and a class without an entry holds nothing either.
        let mut backlog = 0;
        for (dscp, cq) in &mut self.queues {
            while let Some(&(_, done, bytes)) = cq.q.front() {
                if done > now {
                    break;
                }
                cq.q.pop_front();
                cq.stats.backlog_bytes -= bytes;
            }
            if cq.q.is_empty() {
                cq.stats.backlog_bytes = 0;
            }
            if *dscp == class {
                backlog = cq.stats.backlog_bytes;
            }
        }

        // Injected faults act at the link entrance, before the channel's
        // own loss/queue model, and draw from the plan's private RNG so the
        // global stream is untouched when no plan is attached.
        let mut extra = Duration::ZERO;
        let mut dup_extra = None;
        if let Some(Faults {
            plan: Some(plan),
            injected,
        }) = self.fault.as_deref_mut()
        {
            match plan.apply(now, pkt) {
                FaultVerdict::Pass => {}
                FaultVerdict::Drop => {
                    injected.drops += 1;
                    return Deliveries::default();
                }
                FaultVerdict::Duplicate { extra: d } => {
                    injected.duplicates += 1;
                    dup_extra = Some(d);
                }
                FaultVerdict::Reorder { extra: e } => {
                    injected.reorders += 1;
                    extra = e;
                }
            }
        }

        if self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss {
            self.stats.drops_loss += 1;
            return Deliveries::default();
        }

        if backlog + wire_bytes > self.cfg.queue_bytes {
            entry(&mut self.queues, class).stats.drops_queue += 1;
            return Deliveries::default();
        }

        // Strict priority: wait for everything already committed at equal
        // or higher priority, and for the transmission (of any class)
        // occupying the wire right now — but overtake queued lower-class
        // packets that have not started.
        let reserved = self
            .queues
            .iter()
            .filter(|&&(d, _)| d >= class)
            .filter_map(|(_, cq)| cq.q.back().map(|&(_, done, _)| done))
            .max()
            .unwrap_or(Instant::ZERO);
        let active = self
            .queues
            .iter()
            .filter_map(|(_, cq)| cq.q.front())
            .filter(|&&(start, _, _)| start <= now)
            .map(|&(_, done, _)| done)
            .max()
            .unwrap_or(Instant::ZERO);
        let start = now.max(reserved).max(active);
        let tx = serialization_time(wire_bytes, self.cfg.rate_bps);
        let done = start + tx;
        let jitter = if self.cfg.jitter > Duration::ZERO {
            Duration::from_nanos(self.rng.gen_range(0..self.cfg.jitter.nanos().max(1)))
        } else {
            Duration::ZERO
        };
        let arrival = done + self.cfg.delay + jitter + extra;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire_bytes;
        // A rate-0 link serializes nothing and keeps no class entry. An
        // interval already over when it is offered (a zero-length
        // serialization) is purged by the next offer before anything reads
        // it, and its class's ledger is empty (anything still in it would
        // have pushed `start` past `now`): it joins no ledger and no chain.
        let mut chain = None;
        if self.cfg.rate_bps > 0 {
            let cq = entry(&mut self.queues, class);
            cq.stats.enqueued += 1;
            cq.stats.enqueued_bytes += wire_bytes;
            cq.stats.backlog_bytes = backlog + wire_bytes;
            cq.busy += tx;
            if done > now {
                cq.q.push_back((start, done, wire_bytes));
                chain = Some(cq).filter(|cq| cq.tail <= arrival);
            }
        }
        Deliveries {
            primary: Some(arrival),
            duplicate: dup_extra.map(|d| arrival + d),
            chain,
        }
    }

    /// The queue of class `dscp`, which a chain's class always has (an
    /// entry, once made, is never removed).
    pub(crate) fn chain(&mut self, dscp: u8) -> &mut ClassQueue {
        let i = self.queues.binary_search_by_key(&dscp, |&(d, _)| d);
        &mut self.queues[i.expect("a chain's class has an entry")].1
    }

    /// Link statistics so far.
    pub(crate) fn stats(&self) -> LinkStats {
        let c = &self.stats;
        let injected = self
            .fault
            .as_ref()
            .map_or(Injected::default(), |f| f.injected);
        LinkStats {
            tx_packets: c.tx_packets,
            tx_bytes: c.tx_bytes,
            drops_queue: self.queues.iter().map(|(_, cq)| cq.stats.drops_queue).sum(),
            drops_loss: c.drops_loss,
            drops_injected: injected.drops,
            duplicates_injected: injected.duplicates,
            reorders_injected: injected.reorders,
            busy: self.queues.iter().map(|(_, cq)| cq.busy).sum(),
            classes: self.queues.iter().map(|(d, cq)| (*d, cq.stats)).collect(),
        }
    }

    /// Mutate the configuration in place (takes effect for future packets).
    pub(crate) fn reconfigure(&mut self, f: impl FnOnce(&mut LinkConfig)) {
        f(&mut self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultRule, PacketClass};
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::net::Ipv4Addr;

    /// A packet whose wire size is exactly `wire_bytes` (UDP: 28 B of
    /// headers + virtual payload).
    fn pkt(wire_bytes: u32) -> Packet {
        Packet::udp(
            (Ipv4Addr::new(10, 0, 0, 1), 1),
            (Ipv4Addr::new(10, 0, 0, 2), 2),
            wire_bytes - 28,
        )
    }

    /// Same, with an explicit ToS byte (class = tos >> 2).
    fn pkt_tos(wire_bytes: u32, tos: u8) -> Packet {
        pkt(wire_bytes).with_tos(tos)
    }

    #[test]
    fn infinite_rate_is_pure_delay() {
        let mut link = Link::new(LinkConfig::delay_only(Duration::from_millis(7)), (1, 0), 99);
        let at = link
            .transmit(Instant::from_millis(1), &pkt(1500))
            .primary
            .unwrap();
        assert_eq!(at, Instant::from_millis(8));
        assert_eq!(link.to(), (1, 0));
    }

    #[test]
    fn serialization_accumulates() {
        // 1 Mbps, 1250-byte packets => 10 ms each.
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        let a1 = link.transmit(Instant::ZERO, &pkt(1250)).primary;
        let a2 = link.transmit(Instant::ZERO, &pkt(1250)).primary;
        assert_eq!(a1, Some(Instant::from_millis(10)));
        assert_eq!(a2, Some(Instant::from_millis(20)));
        assert_eq!(link.stats().busy, Duration::from_millis(20));
    }

    #[test]
    fn drop_tail_queue_bounds_backlog() {
        // Queue bound fits exactly two 1000-byte packets beyond nothing:
        // third concurrent offer must drop.
        let cfg = LinkConfig::rate_limited(8_000, Duration::ZERO).with_queue(2_000);
        let mut link = Link::new(cfg, (0, 0), 99);
        assert!(link.transmit(Instant::ZERO, &pkt(1000)).primary.is_some());
        assert!(link.transmit(Instant::ZERO, &pkt(1000)).primary.is_some());
        assert!(link.transmit(Instant::ZERO, &pkt(1000)).primary.is_none());
        assert_eq!(link.stats().drops_queue, 1);
        // After the first packet drains (1 s at 8 kbps), space frees up.
        assert!(link
            .transmit(Instant::from_secs(1), &pkt(1000))
            .primary
            .is_some());
    }

    #[test]
    fn loss_probability_one_drops_everything() {
        let cfg = LinkConfig::delay_only(Duration::ZERO).with_loss(1.0);
        let mut link = Link::new(cfg, (0, 0), 99);
        for _ in 0..10 {
            assert!(link.transmit(Instant::ZERO, &pkt(100)).primary.is_none());
        }
        assert_eq!(link.stats().drops_loss, 10);
        assert_eq!(link.stats().tx_packets, 0);
    }

    #[test]
    fn jitter_stays_in_range() {
        let cfg =
            LinkConfig::delay_only(Duration::from_millis(5)).with_jitter(Duration::from_millis(2));
        let mut link = Link::new(cfg, (0, 0), 99);
        for _ in 0..100 {
            let at = link.transmit(Instant::ZERO, &pkt(100)).primary.unwrap();
            assert!(at >= Instant::from_millis(5));
            assert!(at < Instant::from_millis(7));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_outside_unit_interval_panics() {
        let _ = LinkConfig::delay_only(Duration::ZERO).with_loss(1.5);
    }

    #[test]
    fn injected_drop_is_counted_separately_from_loss() {
        let mut link = Link::new(LinkConfig::delay_only(Duration::ZERO), (0, 0), 99);
        link.set_fault_plan(Some(
            FaultPlan::new(5).with_rule(FaultRule::drop(PacketClass::any(), 1.0).on_nth(2)),
        ));
        assert!(link.transmit(Instant::ZERO, &pkt(100)).primary.is_some());
        assert!(link.transmit(Instant::ZERO, &pkt(100)).primary.is_none());
        assert!(link.transmit(Instant::ZERO, &pkt(100)).primary.is_some());
        assert_eq!(link.stats().drops_injected, 1);
        assert_eq!(link.stats().drops_loss, 0);
        assert_eq!(link.stats().drops(), 1);
        assert_eq!(link.stats().tx_packets, 2);
    }

    #[test]
    fn injected_duplicate_delivers_second_copy_later() {
        let mut link = Link::new(LinkConfig::delay_only(Duration::from_millis(3)), (0, 0), 99);
        let mut dup = FaultRule::duplicate(PacketClass::any(), 1.0);
        dup.extra_delay = Duration::from_millis(4);
        link.set_fault_plan(Some(FaultPlan::new(5).with_rule(dup)));
        let d = link.transmit(Instant::ZERO, &pkt(100));
        assert_eq!(d.primary, Some(Instant::from_millis(3)));
        assert_eq!(d.duplicate, Some(Instant::from_millis(7)));
        assert_eq!(link.stats().duplicates_injected, 1);
        // The primary copy is the only one counted as a normal tx.
        assert_eq!(link.stats().tx_packets, 1);
    }

    #[test]
    fn injected_reorder_holds_the_packet_back() {
        let mut link = Link::new(LinkConfig::delay_only(Duration::from_millis(1)), (0, 0), 99);
        link.set_fault_plan(Some(FaultPlan::new(5).with_rule(
            FaultRule::reorder(PacketClass::any(), 1.0, Duration::from_millis(10)).on_nth(1),
        )));
        let first = link.transmit(Instant::ZERO, &pkt(100)).primary.unwrap();
        let second = link.transmit(Instant::ZERO, &pkt(100)).primary.unwrap();
        assert_eq!(first, Instant::from_millis(11));
        assert_eq!(second, Instant::from_millis(1));
        assert!(second < first, "later offer must overtake the held packet");
        assert_eq!(link.stats().reorders_injected, 1);
    }

    #[test]
    fn faults_disabled_leave_the_global_rng_stream_untouched() {
        // Same channel randomness (jitter) with and without an (empty)
        // fault plan attached: the arrival times must be identical because
        // the plan draws from its own stream.
        let cfg =
            LinkConfig::delay_only(Duration::from_millis(5)).with_jitter(Duration::from_millis(2));
        let run = |plan: Option<FaultPlan>| {
            let mut link = Link::new(cfg.clone(), (0, 0), 99);
            link.set_fault_plan(plan);
            (0..32)
                .map(|_| link.transmit(Instant::ZERO, &pkt(100)).primary)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(123))));
    }

    #[test]
    fn injected_counts_survive_a_replaced_or_cleared_plan() {
        let mut link = Link::new(LinkConfig::delay_only(Duration::ZERO), (0, 0), 99);
        link.set_fault_plan(None);
        assert!(link.fault.is_none(), "no plan, no fault state");
        link.set_fault_plan(Some(
            FaultPlan::new(5).with_rule(FaultRule::drop(PacketClass::any(), 1.0)),
        ));
        link.transmit(Instant::ZERO, &pkt(100));
        let reorder = FaultRule::reorder(PacketClass::any(), 1.0, Duration::from_millis(1));
        link.set_fault_plan(Some(FaultPlan::new(6).with_rule(reorder)));
        link.transmit(Instant::ZERO, &pkt(100));
        link.set_fault_plan(None);
        link.transmit(Instant::ZERO, &pkt(100));
        let stats = link.stats();
        assert_eq!((stats.drops_injected, stats.reorders_injected), (1, 1));
        assert_eq!(stats.tx_packets, 2);
    }

    /// The link's loss and jitter draws are exactly those of a buffered
    /// ChaCha8 generator seeded with the link's seed: one `f64` per offer
    /// for loss, then one jitter draw per accepted packet.
    #[test]
    fn lossy_jittered_link_draws_the_seeded_chacha8_stream() {
        let (delay, jitter, loss) = (Duration::from_millis(2), Duration::from_micros(900), 0.3);
        let cfg = LinkConfig::delay_only(delay)
            .with_jitter(jitter)
            .with_loss(loss);
        let seed = 0x5eed_1234_abcd;
        let mut link = Link::new(cfg, (0, 0), seed);
        let mut draws = ChaCha8Rng::seed_from_u64(seed);
        let mut drops = 0;
        for i in 0..1_000u64 {
            let now = Instant::from_micros(i * 37);
            let got = link.transmit(now, &pkt(200)).primary;
            let want = if draws.gen::<f64>() < loss {
                drops += 1;
                None
            } else {
                Some(now + delay + Duration::from_nanos(draws.gen_range(0..jitter.nanos())))
            };
            assert_eq!(got, want, "offer {i}");
        }
        assert_eq!(link.stats().drops_loss, drops);
        assert!((250..350).contains(&drops), "{drops} drops at p = {loss}");
    }

    #[test]
    fn high_class_overtakes_queued_low_class() {
        // 1 Mbps, 1250-byte packets => 10 ms each. Three best-effort
        // packets committed at t=0 occupy [0,10], [10,20], [20,30]. A
        // high-priority packet offered at t=5 must wait only for the
        // transmission in progress ([0,10]) and go next.
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        for _ in 0..3 {
            link.transmit(Instant::ZERO, &pkt_tos(1250, 4));
        }
        let hi = link
            .transmit(Instant::from_millis(5), &pkt_tos(1250, 28))
            .primary
            .unwrap();
        assert_eq!(hi, Instant::from_millis(20));
    }

    #[test]
    fn equal_class_never_overtakes() {
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        for _ in 0..3 {
            link.transmit(Instant::ZERO, &pkt_tos(1250, 28));
        }
        let same = link
            .transmit(Instant::from_millis(5), &pkt_tos(1250, 28))
            .primary
            .unwrap();
        assert_eq!(same, Instant::from_millis(40));
    }

    #[test]
    fn low_class_waits_for_all_higher_commitments() {
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        // High-priority committed [0,10], [10,20].
        link.transmit(Instant::ZERO, &pkt_tos(1250, 28));
        link.transmit(Instant::ZERO, &pkt_tos(1250, 28));
        // Best effort offered at t=5 starts only at 20.
        let lo = link
            .transmit(Instant::from_millis(5), &pkt_tos(1250, 4))
            .primary
            .unwrap();
        assert_eq!(lo, Instant::from_millis(30));
    }

    #[test]
    fn active_transmission_is_never_preempted() {
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        // Best-effort transmission in progress over [0,10].
        link.transmit(Instant::ZERO, &pkt_tos(1250, 4));
        // Highest priority offered mid-serialization waits for the wire.
        let hi = link
            .transmit(Instant::from_millis(3), &pkt_tos(1250, 252))
            .primary
            .unwrap();
        assert_eq!(hi, Instant::from_millis(20));
    }

    #[test]
    fn queue_bounds_apply_per_class() {
        // Bound fits one 1000-byte packet per class: a second best-effort
        // offer drops, but a high-priority offer still gets in.
        let cfg = LinkConfig::rate_limited(8_000, Duration::ZERO).with_queue(1_000);
        let mut link = Link::new(cfg, (0, 0), 99);
        assert!(link
            .transmit(Instant::ZERO, &pkt_tos(1000, 4))
            .primary
            .is_some());
        assert!(link
            .transmit(Instant::ZERO, &pkt_tos(1000, 4))
            .primary
            .is_none());
        assert!(link
            .transmit(Instant::ZERO, &pkt_tos(1000, 28))
            .primary
            .is_some());
        let stats = link.stats();
        assert_eq!(stats.drops_queue, 1);
        assert_eq!(stats.class(1).unwrap().drops_queue, 1);
        assert_eq!(stats.class(1).unwrap().enqueued, 1);
        assert_eq!(stats.class(7).unwrap().enqueued, 1);
        assert_eq!(stats.class(7).unwrap().drops_queue, 0);
    }

    #[test]
    fn classes_stay_sorted_and_exactly_sized() {
        // Bound 1 500 B per class, everything offered at t=0: the second
        // DSCP 46 packet (1 000 B behind 1 000 B) is the one drop.
        let cfg = LinkConfig::rate_limited(8_000, Duration::ZERO).with_queue(1_500);
        let mut link = Link::new(cfg, (0, 0), 99);
        for (dscp, bytes) in [(46, 1000), (0, 500), (10, 1000), (46, 1000), (0, 500)] {
            link.transmit(Instant::ZERO, &pkt_tos(bytes, dscp << 2));
        }
        let stats = link.stats();
        let got: Vec<_> = stats
            .classes
            .iter()
            .map(|(d, cs)| (*d, cs.enqueued, cs.drops_queue))
            .collect();
        assert_eq!(got, [(0, 2, 0), (10, 1, 0), (46, 1, 1)]);
        assert_eq!(stats.drops_queue, 1);
        for (d, enqueued, drops) in got {
            let cs = stats.class(d).expect("every listed class is found");
            assert_eq!((cs.enqueued, cs.drops_queue), (enqueued, drops));
        }
        assert!(stats.class(1).is_none());
        let queued: Vec<u8> = link.queues.iter().map(|&(d, _)| d).collect();
        assert_eq!(queued, [0, 10, 46]);
        assert_eq!(link.queues.capacity(), link.queues.len());
    }

    /// A rated link's class entries carry its per-class counters: a class
    /// that only ever queue-drops (every packet larger than the bound)
    /// gets its entry too, and the entries' packets, bytes, queue drops
    /// and busy time sum to the link's totals. A zero-length
    /// serialization joins no ledger but is counted all the same.
    #[test]
    fn class_entries_sum_to_the_link_totals() {
        // 8 kbps: a 600 B packet takes 600 ms, so offers every 100 ms
        // against a 1 000 B bound both accept and drop in class 1.
        let cfg = LinkConfig::rate_limited(8_000, Duration::ZERO).with_queue(1_000);
        let mut link = Link::new(cfg, (0, 0), 99);
        for i in 0..40 {
            let now = Instant::from_millis(i * 100);
            link.transmit(now, &pkt_tos(600 + i as u32 % 3 * 100, 4));
            link.transmit(now, &pkt_tos(1_200, 28));
        }
        let stats = link.stats();
        let dropper = stats.class(7).expect("a class that only drops is listed");
        assert_eq!((dropper.enqueued, dropper.drops_queue), (0, 40));
        let low = stats.class(1).expect("accepted");
        assert!(low.enqueued > 0 && low.drops_queue > 0, "{low:?}");
        let sum =
            |f: fn(&ClassStats) -> u64| -> u64 { stats.classes.iter().map(|(_, cs)| f(cs)).sum() };
        assert_eq!(sum(|cs| cs.enqueued), stats.tx_packets);
        assert_eq!(sum(|cs| cs.enqueued_bytes), stats.tx_bytes);
        assert_eq!(sum(|cs| cs.drops_queue), stats.drops_queue);
        assert_eq!(stats.tx_packets + stats.drops_queue, 80);
        let busy: Duration = link.queues.iter().map(|(_, cq)| cq.busy).sum();
        assert_eq!(busy, stats.busy);
        let want = serialization_time(stats.tx_bytes, 8_000);
        assert_eq!(stats.busy, want);

        // A rate this high serializes 100 B in no time at all.
        let fast = LinkConfig::rate_limited(u64::MAX, Duration::ZERO);
        let mut link = Link::new(fast, (0, 0), 99);
        for _ in 0..3 {
            assert!(link.transmit(Instant::ZERO, &pkt(100)).chain.is_none());
        }
        assert!(link.queues.iter().all(|(_, cq)| cq.q.is_empty()));
        let stats = link.stats();
        assert_eq!((stats.tx_packets, stats.tx_bytes), (3, 300));
        let cs = stats.class(0).expect("counted without a ledger");
        assert_eq!(
            (cs.enqueued, cs.enqueued_bytes, cs.backlog_bytes),
            (3, 300, 100)
        );
    }

    /// An infinitely fast link serializes nothing, so however many
    /// classes cross it, it keeps no class entry: its totals alone count
    /// what it accepted, and each delivery is the offer instant plus delay
    /// plus a jitter drawn from the link's own seed.
    #[test]
    fn rate_zero_link_keeps_no_queue() {
        let (delay, jitter) = (Duration::from_millis(3), Duration::from_micros(700));
        let cfg = LinkConfig::delay_only(delay)
            .with_jitter(jitter)
            .with_queue(1_500);
        let mut link = Link::new(cfg, (0, 0), 99);
        let mut draws = ChaCha8Rng::seed_from_u64(99);
        let mut offered = 0;
        for i in 0..600u32 {
            // Four offers per instant, classes DSCP 0 / 10 / 46 / 46.
            let now = Instant::from_micros(u64::from(i / 4) * 250);
            let dscp = [0, 10, 46, 46][i as usize % 4];
            let bytes = 100 + i % 7 * 200;
            offered += u64::from(bytes);
            let at = link
                .transmit(now, &pkt_tos(bytes, dscp << 2))
                .primary
                .expect("an empty queue drops nothing");
            let drawn = Duration::from_nanos(draws.gen_range(0..jitter.nanos()));
            assert_eq!(at, now + delay + drawn);
            assert!(link.queues.is_empty());
        }
        let stats = link.stats();
        assert!(stats.classes.is_empty());
        assert_eq!((stats.tx_packets, stats.tx_bytes), (600, offered));
        assert_eq!((stats.drops(), stats.busy), (0, Duration::ZERO));
    }

    /// A step of the chain property below: hold a burst of packets,
    /// dispatch a run of heads, or flush the chain.
    #[derive(Debug, Clone)]
    enum ChainOp {
        Hold(u16),
        Release(u16),
        Flush,
    }

    fn chain_op() -> impl Strategy<Value = ChainOp> {
        (0u8..5, 1u16..700).prop_map(|(kind, n)| match kind {
            0 | 1 => ChainOp::Hold(n),
            2 | 3 => ChainOp::Release(n),
            _ => ChainOp::Flush,
        })
    }

    /// A held packet's `(arrival, key counter)`.
    type Key = (Instant, u64);

    /// Front, back and length of a chain's waiting packets, by `Key`,
    /// with its block layout checked: the first block at most `BLOCK`
    /// entries, every later one exactly `BLOCK` and never empty, the spare
    /// empty and `BLOCK` entries or none, at most `3 * BLOCK` entries held
    /// that hold nothing.
    fn waiting_ends(cq: &ClassQueue) -> (Option<Key>, Option<Key>, usize) {
        let Some(w) = cq.waiting.as_deref() else {
            return (None, None, 0);
        };
        assert!(w.first.capacity() <= BLOCK, "{}", w.first.capacity());
        let none = Default::default();
        let (rest, spare) = w.rest.as_deref().unwrap_or(&none);
        assert!(rest.iter().all(|b| b.capacity() == BLOCK && !b.is_empty()));
        assert!(spare.is_empty() && [0, BLOCK].contains(&spare.capacity()));
        let len = w.first.len() + rest.iter().map(VecDeque::len).sum::<usize>();
        let capacity = w.first.capacity() + rest.len() * BLOCK + spare.capacity();
        assert!(capacity <= len + 3 * BLOCK, "{capacity} entries for {len}");
        let key = |h: &Held| (h.0, h.1);
        let front = w.first.front().or_else(|| rest.front()?.front());
        let back = rest.back().map_or(w.first.back(), VecDeque::back);
        (front.map(key), back.map(key), len)
    }

    proptest! {
        /// A class's chain holds, releases and flushes exactly what one
        /// `VecDeque` would, through bursts that cross block boundaries,
        /// heads dispatched until the chain closes (dropping its blocks
        /// once they outgrew `KEEP_WAITING`) and reopens, and flushes.
        #[test]
        fn chain_blocks_behave_like_a_deque(ops in prop::collection::vec(chain_op(), 1..24)) {
            let mut cq = ClassQueue::default();
            // The packets behind the head; `None` while the chain is closed.
            let mut model: Option<VecDeque<Key>> = None;
            let mut ctr = 0u64;
            for op in ops {
                match op {
                    ChainOp::Hold(n) => {
                        for _ in 0..n {
                            ctr += 1;
                            let at = Instant::from_micros(ctr);
                            let head = cq.hold(at, ctr, pkt(100)).is_some();
                            match model.as_mut() {
                                None => model = Some(VecDeque::new()),
                                Some(m) => m.push_back((at, ctr)),
                            }
                            prop_assert_eq!(head, model.as_ref().unwrap().is_empty());
                        }
                    }
                    ChainOp::Release(n) => {
                        for _ in 0..n {
                            let Some(m) = model.as_mut() else { break };
                            let want = m.pop_front();
                            prop_assert_eq!(cq.release().map(|h| (h.0, h.1)), want);
                            if want.is_none() {
                                model = None;
                                prop_assert_eq!(cq.tail, Instant::ZERO);
                                prop_assert!(cq
                                    .waiting
                                    .as_ref()
                                    .is_none_or(|w| w.first.capacity() <= KEEP_WAITING));
                            }
                        }
                    }
                    ChainOp::Flush => {
                        let got: Vec<_> = cq.flush().map(|h| (h.0, h.1)).collect();
                        let want: Vec<_> = model.take().unwrap_or_default().into();
                        prop_assert_eq!(got, want);
                        prop_assert!(cq.waiting.is_none() && cq.tail == Instant::ZERO);
                    }
                }
                let m = model.as_ref();
                let want = (
                    m.and_then(|m| m.front().copied()),
                    m.and_then(|m| m.back().copied()),
                    m.map_or(0, VecDeque::len),
                );
                prop_assert_eq!(waiting_ends(&cq), want);
            }
        }
    }

    #[test]
    fn per_class_counters_track_bytes_and_backlog() {
        let mut link = Link::new(
            LinkConfig::rate_limited(1_000_000, Duration::ZERO),
            (0, 0),
            99,
        );
        link.transmit(Instant::ZERO, &pkt_tos(1250, 4));
        link.transmit(Instant::ZERO, &pkt_tos(1250, 4));
        let cs = *link.stats().class(1).unwrap();
        assert_eq!(cs.enqueued, 2);
        assert_eq!(cs.enqueued_bytes, 2_500);
        assert_eq!(cs.backlog_bytes, 2_500);
        // Both drain by t=20ms; the next offer settles the backlog.
        link.transmit(Instant::from_millis(20), &pkt_tos(1250, 4));
        assert_eq!(link.stats().class(1).unwrap().backlog_bytes, 1_250);
    }
}
