//! The discrete-event simulator: nodes, ports, events and the run loop.
//!
//! A [`Simulator`] owns a set of [`Node`]s connected by unidirectional
//! [`Link`]s. Nodes react to packet arrivals and timers
//! through a [`Ctx`] handle that lets them send packets out of their ports
//! and schedule further timers. Event ordering is total — ties on the
//! timestamp break on a *content-derived* [`EvKey`] (originating node plus
//! a per-node emission counter) — so every run is deterministic given the
//! seed **and independent of how the topology is sharded**.
//!
//! # Sharding
//!
//! Every node belongs to a *region* (default 0), assigned at
//! [`Simulator::add_node_in_region`] time. Regions are mapped onto `N`
//! shards by a deterministic, seed-independent balanced placement (greedy
//! bin-packing on per-region node + link weight; see
//! [`Simulator::region_assignments`]), each shard owning its nodes, their
//! outgoing links and a timing wheel. With
//! `N == 1` the engine is exactly the classic single-threaded event loop;
//! with `N > 1` the shards advance in conservative lookahead windows
//! spanning the minimum propagation delay of the links that cross shards —
//! on the calling thread while a `run_until` call is small, on one thread
//! per active shard for the rest of the call once it has enough work (see
//! `crate::shard`). Because
//! every tie-breaking key, every RNG stream and every packet id is derived
//! from content (node identity + per-node counters) rather than from
//! global execution order, the observable results are byte-identical at
//! every shard count.
//!
//! The run loop is built for throughput: events live in a timing wheel
//! ([`crate::wheel`]) instead of a binary heap, links hang off a per-node
//! row holding only the connected ports, sorted (`send` is an array index,
//! a binary search over a few ports and one pointer hop, and a port number
//! nobody connected costs nothing), the per-dispatch
//! action buffer is reused across events, and guard timers can be
//! cancelled ([`Ctx::cancel_timer`]) so dead expiries are dropped at the
//! queue instead of round-tripping through a node.

use crate::fault::{FaultPlan, NodeFaultPlan, NodeOutageSet};
use crate::link::{Link, LinkConfig, LinkStats};
use crate::packet::Packet;
use crate::shard::{Loc, Shard, Slot};
use crate::time::{Duration, Instant};
use rand::RngCore;
use rand_chacha::ChaCha8Stream;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Identifier of a node within a simulator.
pub type NodeId = usize;
/// Identifier of a port on a node. Ports are just small integers; each crate
/// defines its own conventions (e.g. "port 0 faces the eNodeB").
pub type PortId = usize;

/// Process-wide default shard count picked up by [`Simulator::new`]
/// (mirrors the bench runner's jobs knob; the `figures` CLI sets it from
/// `--shards N`).
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the default shard count for subsequently constructed simulators.
/// `None` restores the single-shard default.
pub fn set_default_shards(n: Option<usize>) {
    DEFAULT_SHARDS.store(n.unwrap_or(1).max(1), Ordering::SeqCst);
}

/// The current default shard count.
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::SeqCst).max(1)
}

/// Per-shard event imbalance of a [`Simulator::events_by_shard`] split:
/// `max/mean − 1` over the shards that dispatched any events, as a
/// fraction (0.0 = perfectly even, or at most one busy shard).
pub fn shard_imbalance(events_by_shard: &[u64]) -> f64 {
    let busy: Vec<u64> = events_by_shard.iter().copied().filter(|&e| e > 0).collect();
    if busy.len() <= 1 {
        return 0.0;
    }
    let max = *busy.iter().max().expect("non-empty") as f64;
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    max / mean - 1.0
}

/// Behaviour of a simulated network element.
///
/// Nodes are single-threaded state machines: the simulator calls exactly one
/// of these hooks at a time (each node is owned by exactly one shard, and a
/// shard is borrowed by one lane, on one thread, at a time). `Any`
/// supertrait (plus Rust's dyn upcasting) lets callers recover concrete
/// node types after a run via [`Simulator::node_ref`]; `Send` lets a
/// shard, with its nodes, be lent to a worker thread.
pub trait Node: Any + Send {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet);

    /// A timer scheduled with [`Ctx::schedule_at`]/[`Ctx::schedule_in`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Crash-restart recovery hook: erase every piece of application-visible
    /// state, as if the process had been restarted from scratch. The engine
    /// invokes it when a
    /// [`NodeFaultKind::CrashRestart`](crate::fault::NodeFaultKind) outage
    /// ends, before the first post-restart event reaches the node. The
    /// default panics: a node type must opt in by defining what "empty"
    /// means, so that recovery is forced through the protocol rather than
    /// through conveniently preserved memory.
    fn on_restart(&mut self) {
        panic!("node does not support crash-restart (implement Node::on_restart)");
    }
}

/// Content-derived event tie-break key: the originating node (or
/// [`EvKey::EXTERNAL`] for harness injections) plus that origin's emission
/// counter. Two events can only tie on `(at, key)` if they are the same
/// event, and the key assigned to an event does not depend on the global
/// interleaving of other nodes' dispatches — which is what makes event
/// ordering identical at every shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvKey {
    src: u32,
    ctr: u64,
}

impl EvKey {
    /// Source id used for events injected by the harness (outside any node
    /// dispatch). Sorts after all node-originated events at the same
    /// instant.
    pub const EXTERNAL: u32 = u32::MAX;

    /// Construct a key (exposed for the scheduler property tests).
    pub(crate) fn new(src: u32, ctr: u64) -> EvKey {
        EvKey { src, ctr }
    }
}

/// Handle to a cancellable timer (see [`Ctx::schedule_in_cancellable`]).
///
/// Generation-tagged: the handle names a slab slot plus the generation it
/// was armed in, so a handle left over from a completed or cancelled timer
/// can never affect a later timer that happens to reuse the slot. Slabs
/// are per-node, so handle values are themselves shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// Generation slab backing [`TimerHandle`]s (one per node).
#[derive(Default)]
pub(crate) struct TimerSlab {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Allocate a live handle.
    fn alloc(&mut self) -> TimerHandle {
        if let Some(slot) = self.free.pop() {
            TimerHandle {
                slot,
                gen: self.gens[slot as usize],
            }
        } else {
            self.gens.push(0);
            TimerHandle {
                slot: (self.gens.len() - 1) as u32,
                gen: 0,
            }
        }
    }

    /// Consume a handle: returns `true` (and frees the slot) iff it was
    /// still live. Used both by cancellation and by expiry.
    pub(crate) fn invalidate(&mut self, h: TimerHandle) -> bool {
        if self.gens[h.slot as usize] == h.gen {
            self.gens[h.slot as usize] = self.gens[h.slot as usize].wrapping_add(1);
            self.free.push(h.slot);
            true
        } else {
            false
        }
    }
}

/// Deferred side effects produced by a node during a hook invocation.
pub(crate) enum Action {
    Send {
        port: PortId,
        pkt: Packet,
    },
    Timer {
        at: Instant,
        token: u64,
        guard: Option<TimerHandle>,
    },
}

/// Per-node engine state: the node's private RNG stream, its event/packet
/// emission counters and its timer slab. All of it is keyed by node
/// identity (plus the master seed), never by global execution order, so it
/// evolves identically at every shard count.
pub(crate) struct NodeMeta {
    pub(crate) rng: ChaCha8Stream,
    pub(crate) ev_ctr: u64,
    pub(crate) pkt_ctr: u64,
    pub(crate) timers: TimerSlab,
    /// Lifecycle epoch, bumped at every crash-restart: timers carry the
    /// epoch they were armed in, and a stale epoch never fires (a restarted
    /// node has no timers).
    pub(crate) epoch: u32,
    /// Number of fault windows this node has fully passed through (lazy
    /// cursor into its [`NodeOutageSet`], advanced at dispatch time).
    pub(crate) fault_pos: u32,
}

impl NodeMeta {
    fn new(master_seed: u64, node: NodeId) -> NodeMeta {
        NodeMeta {
            rng: ChaCha8Stream::seed_from_u64(stream_seed(master_seed, 1, node as u64)),
            ev_ctr: 0,
            pkt_ctr: 0,
            timers: TimerSlab::default(),
            epoch: 0,
            fault_pos: 0,
        }
    }
}

/// splitmix64 over a tagged input: derives decorrelated per-entity RNG
/// streams (per node, per link) from the single master seed.
pub(crate) fn stream_seed(master: u64, kind: u64, a: u64) -> u64 {
    let mut z =
        master ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-shard counters. Kept per shard both so worker threads never share a
/// cache line on the hot path and so the runner can report per-shard
/// event throughput.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub(crate) events: u64,
    pub(crate) arrivals: u64,
    pub(crate) unrouted: u64,
    pub(crate) timer_skipped: u64,
    /// Cross-shard arrivals pushed to another shard's inbox.
    pub(crate) xsent: u64,
    /// Cross-shard arrivals accepted from other shards' outboxes.
    pub(crate) xrecv: u64,
    /// Packet deliveries rejected because the destination node was down
    /// (crashed or partitioned).
    pub(crate) node_rejected: u64,
    /// Timer expiries dropped because the node was crashed, or because the
    /// timer was armed before the node's last crash-restart.
    pub(crate) node_timer_dropped: u64,
    /// Crash-restart recoveries performed ([`Node::on_restart`] calls).
    pub(crate) node_restarts: u64,
    /// Sends discarded because the emitting node was partitioned.
    pub(crate) node_tx_dropped: u64,
    /// Lookahead windows this shard's lane drained (windowed drivers only;
    /// a single active shard drains straight through and counts none).
    pub(crate) windows: u64,
    /// `run_until` calls whose remaining windows this shard's lane ran
    /// threaded.
    pub(crate) threaded_runs: u64,
}

/// Placement state of one region (see `Simulator::regions`).
struct RegionSlot {
    /// Node count plus outgoing link count, without any bias.
    weight: u64,
    shard: u32,
}

/// Handle given to nodes during event dispatch.
pub struct Ctx<'a> {
    pub(crate) now: Instant,
    pub(crate) node: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut ChaCha8Stream,
    pub(crate) next_pkt_id: &'a mut u64,
    pub(crate) timers: &'a mut TimerSlab,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Queue `pkt` for transmission out of `port`. If the port is not
    /// connected the packet is dropped and counted as unrouted.
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.actions.push(Action::Send { port, pkt });
    }

    /// Schedule a timer for this node at an absolute instant.
    pub fn schedule_at(&mut self, at: Instant, token: u64) {
        self.actions.push(Action::Timer {
            at,
            token,
            guard: None,
        });
    }

    /// Schedule a timer `d` from now.
    pub fn schedule_in(&mut self, d: Duration, token: u64) {
        let at = self.now + d;
        self.schedule_at(at, token);
    }

    /// Schedule a cancellable timer at an absolute instant. The returned
    /// handle can be passed to [`Ctx::cancel_timer`] to suppress the
    /// expiry; a cancelled timer is dropped inside the engine without
    /// invoking [`Node::on_timer`].
    pub(crate) fn schedule_at_cancellable(&mut self, at: Instant, token: u64) -> TimerHandle {
        let guard = self.timers.alloc();
        self.actions.push(Action::Timer {
            at,
            token,
            guard: Some(guard),
        });
        guard
    }

    /// Schedule a cancellable timer `d` from now (see
    /// `Ctx::schedule_at_cancellable`).
    pub fn schedule_in_cancellable(&mut self, d: Duration, token: u64) -> TimerHandle {
        let at = self.now + d;
        self.schedule_at_cancellable(at, token)
    }

    /// Cancel a timer armed with `Ctx::schedule_at_cancellable`. Returns
    /// `true` if the timer was still pending; `false` if it already fired
    /// or was already cancelled (both safe to call).
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.timers.invalidate(handle)
    }

    /// This node's private deterministic RNG stream (derived from the
    /// master seed and the node id, so draws are independent of other
    /// nodes' dispatch order).
    pub(crate) fn rng(&mut self) -> &mut impl RngCore {
        self.rng
    }

    /// Allocate a fresh, simulation-unique packet id from this node's
    /// private id space.
    pub(crate) fn fresh_packet_id(&mut self) -> u64 {
        let id = ((self.node as u64 + 1) << 40) | *self.next_pkt_id;
        *self.next_pkt_id += 1;
        id
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvKind {
    /// Packet delivery at (node, port).
    Arrive(NodeId, PortId),
    /// Timer expiry at node with a token, optionally guarded by a
    /// cancellation handle, stamped with the node's lifecycle epoch at
    /// arming time (a timer armed before a crash-restart never fires).
    Timer(NodeId, u64, Option<TimerHandle>, u32),
}

/// Event payload stored in the wheel (the `(at, key)` pair lives in the
/// wheel entry itself).
pub(crate) struct EvPayload {
    pub(crate) kind: EvKind,
    pub(crate) pkt: Option<Packet>,
}

impl EvPayload {
    pub(crate) fn node(&self) -> NodeId {
        match self.kind {
            EvKind::Arrive(n, _) | EvKind::Timer(n, _, _, _) => n,
        }
    }
}

/// A node's row in the link table: its connected ports only, sorted by
/// port number. Crates number ports by convention, not densely (a UE's
/// cell-facing ports start at 200), so a row indexed by port would pay a
/// slot for every number below the highest; this one pays 16 B per link,
/// and a lookup is a binary search over a handful of entries.
#[derive(Default)]
pub(crate) struct Ports(Vec<(PortId, Box<Link>)>);
const _: () = assert!(std::mem::size_of::<(PortId, Box<Link>)>() <= 16);

impl Ports {
    pub(crate) fn get(&self, port: PortId) -> Option<&Link> {
        let i = self.0.binary_search_by_key(&port, |&(p, _)| p).ok()?;
        Some(&self.0[i].1)
    }

    pub(crate) fn get_mut(&mut self, port: PortId) -> Option<&mut Link> {
        let i = self.0.binary_search_by_key(&port, |&(p, _)| p).ok()?;
        Some(&mut self.0[i].1)
    }

    /// The connected ports and their links, in port order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PortId, &Link)> {
        self.0.iter().map(|(p, l)| (*p, &**l))
    }

    /// Connect `port` to `link`; `false` (and no change) if the port is
    /// already connected.
    pub(crate) fn insert(&mut self, port: PortId, link: Link) -> bool {
        match self.0.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, (port, Box::new(link)));
                true
            }
        }
    }
}

// Every link and node lives for the whole run (a metro builds thousands of
// each), so their inline state is pinned: rarely used parts such as a
// link's fault plan and its injected-fault counters go behind a pointer,
// totals a link can sum from its per-class counters are not kept, and
// each random stream is a seed and a word position, not a buffered
// generator (most links and nodes never draw). A link's destination is two
// 32-bit numbers and its queue bound a plain `u64`, so a boxed link takes
// a 144 B malloc chunk, not a 160 B one.
const _: () = assert!(std::mem::size_of::<Link>() <= 136);
const _: () = assert!(std::mem::size_of::<NodeMeta>() <= 88);
const _: () = assert!(std::mem::size_of::<ChaCha8Stream>() == 16);
// Packets are moved through every queue and event: the payload is one
// optional message pointer (its null is the empty payload) and a length.
const _: () = assert!(std::mem::size_of::<crate::packet::Packet>() <= 64);

/// The discrete-event network simulator.
pub struct Simulator {
    pub(crate) now: Instant,
    seed: u64,
    /// The shards, each owning its nodes (with their links and engine
    /// state), its event wheel and its counters.
    pub(crate) shards: Vec<Shard>,
    /// Where each node lives, by id: always in its region's current
    /// shard in `regions`, and each shard's slots in ascending id order.
    pub(crate) loc: Vec<Loc>,
    /// Per-node region label (assigned at add time).
    region: Vec<u32>,
    /// Every region that owns a node: its placement weight (node count +
    /// outgoing link count, kept current by `add_node_in_region` and
    /// `connect_simplex`) and the shard it currently sits on. A new region
    /// starts on `region % shards` until the next
    /// [`Simulator::ensure_placement`].
    regions: BTreeMap<u32, RegionSlot>,
    /// Shards that own at least one node, ascending (refreshed with the
    /// placement); only these are driven.
    pub(crate) active: Vec<usize>,
    /// Re-run placement before the next run (a weight or a bias changed).
    placement_dirty: bool,
    /// Extra placement weight per region (see
    /// [`Simulator::set_region_weight_bias`]).
    weight_bias: BTreeMap<u32, u64>,
    /// Emission counter for harness-injected events.
    ext_ctr: u64,
    /// Compiled node-lifecycle outage schedules, indexed by node; empty
    /// when no [`NodeFaultPlan`] is attached (the no-plan fast path).
    pub(crate) node_faults: Vec<NodeOutageSet>,
    /// The conservative lookahead under the current placement: the
    /// minimum delay of the links between different shards. A new
    /// cross-shard link lowers it in place; anything that could *raise*
    /// it, or a zero delay, sets it to `None`, to be recounted from every
    /// link before the next windowed run.
    pub(crate) lookahead: Option<Duration>,
}

/// The shard of every region, in the order `weights` yields them (region
/// order). Deterministic and seed-independent: regions are weighed by
/// node count plus outgoing link count plus any bias (the caller's sum),
/// sorted by `(weight desc, region)`, and greedily packed onto the
/// lightest shard (ties to the lowest shard index).
fn place(weights: impl Iterator<Item = (u32, u64)>, nshards: usize) -> Vec<u32> {
    let mut order: Vec<(usize, u32, u64)> =
        weights.enumerate().map(|(i, (r, w))| (i, r, w)).collect();
    let mut shards = vec![0u32; order.len()];
    order.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)));
    let mut load = vec![0u64; nshards];
    for (slot, _, w) in order {
        let s = load
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("at least one shard");
        load[s] += w;
        shards[slot] = s as u32;
    }
    shards
}

impl Simulator {
    /// Create a simulator seeded for deterministic runs, with the
    /// process-default shard count (see [`set_default_shards`]).
    pub fn new(seed: u64) -> Simulator {
        Simulator::with_shards(seed, default_shards())
    }

    /// Create a simulator with an explicit shard count. `shards == 1` is
    /// the classic single-threaded engine; results are byte-identical at
    /// every shard count.
    pub fn with_shards(seed: u64, shards: usize) -> Simulator {
        let shards = shards.max(1);
        Simulator {
            now: Instant::ZERO,
            seed,
            shards: (0..shards).map(|s| Shard::new(s, shards)).collect(),
            loc: Vec::new(),
            region: Vec::new(),
            regions: BTreeMap::new(),
            active: Vec::new(),
            placement_dirty: false,
            weight_bias: BTreeMap::new(),
            ext_ctr: 0,
            node_faults: Vec::new(),
            lookahead: None,
        }
    }

    /// The slot of node `id`.
    pub(crate) fn slot(&self, id: NodeId) -> &Slot {
        let l = self.loc[id];
        &self.shards[l.shard as usize].slots[l.slot as usize]
    }

    fn slot_mut(&mut self, id: NodeId) -> &mut Slot {
        let l = self.loc[id];
        &mut self.shards[l.shard as usize].slots[l.slot as usize]
    }

    /// A per-shard counter summed over the shards.
    fn total(&self, counter: impl Fn(&ShardCounters) -> u64) -> u64 {
        self.shards.iter().map(|s| counter(&s.ctr)).sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of shards this simulator runs on.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of events dispatched so far (cancelled timer expiries
    /// included, for parity with runs that dispatch them as no-ops).
    pub fn events_processed(&self) -> u64 {
        self.total(|c| c.events)
    }

    /// Events dispatched so far, broken down by shard.
    pub fn events_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ctr.events).collect()
    }

    /// Packet-arrival events dispatched so far (for delivery conservation
    /// checks: every accepted transmission and injected packet must
    /// eventually show up here once the queues drain).
    pub fn arrivals_dispatched(&self) -> u64 {
        self.total(|c| c.arrivals)
    }

    /// Arrival events handed from one shard to another (sender side).
    pub fn cross_shard_sent(&self) -> u64 {
        self.total(|c| c.xsent)
    }

    /// Arrival events accepted from other shards (receiver side). Equals
    /// [`Simulator::cross_shard_sent`] whenever no window exchange lost an
    /// event.
    pub fn cross_shard_received(&self) -> u64 {
        self.total(|c| c.xrecv)
    }

    /// Timer expiries dropped at the queue because the timer was cancelled.
    pub fn timer_fires_skipped(&self) -> u64 {
        self.total(|c| c.timer_skipped)
    }

    /// The conservative lookahead `L` (minimum cross-shard propagation
    /// delay) every window of the sharded driver spans; `None` until a
    /// windowed run first counts it, and again after an edit that needs a
    /// recount (a region moving to another shard, a reconfigured or
    /// zero-delay cross-shard link). A new cross-shard link lowers it in
    /// place. `Duration::ZERO` never occurs — a zero-delay cross-shard
    /// link is rejected.
    pub fn lookahead(&self) -> Option<Duration> {
        self.lookahead
    }

    /// Add a node in region 0, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.add_node_in_region(node, 0)
    }

    /// Add a node in `region`, returning its id. Regions are mapped onto
    /// shards by the balanced placement (recomputed lazily before the
    /// next run); all of a node's events execute on its shard's lane.
    /// Assign regions at creation time, before the node is linked or
    /// targeted by any event.
    pub fn add_node_in_region(&mut self, node: Box<dyn Node>, region: u32) -> NodeId {
        let id = self.loc.len();
        let nshards = self.shards.len() as u32;
        let owner = self.regions.entry(region).or_insert(RegionSlot {
            weight: 0,
            shard: region % nshards,
        });
        owner.weight += 1;
        // The largest id so far: appending keeps the shard's slots sorted.
        let shard = &mut self.shards[owner.shard as usize];
        self.loc.push(Loc {
            shard: owner.shard,
            slot: shard.slots.len() as u32,
        });
        shard.slots.push(Box::new(Slot {
            id,
            node,
            links: Ports::default(),
            meta: NodeMeta::new(self.seed, id),
        }));
        self.region.push(region);
        self.placement_dirty = true;
        id
    }

    /// The region a node was added in.
    pub fn region_of(&self, node: NodeId) -> u32 {
        self.region[node]
    }

    /// Add `extra` placement weight to `region` (replacing any earlier
    /// bias for it). The static node+link weight cannot see *traffic*: a
    /// region hosting shared infrastructure — a core, a metro-wide
    /// registry — draws events from every other region, so a scenario
    /// that knows this can budget the region heavier and the balanced
    /// packer will under-fill its shard accordingly. Bias only moves the
    /// region→shard map; by the sharding contract it never changes an
    /// observable outcome.
    pub fn set_region_weight_bias(&mut self, region: u32, extra: u64) {
        if self.weight_bias.insert(region, extra) != Some(extra) {
            self.placement_dirty = true;
        }
    }

    /// Re-pack the regions onto shards if a weight or a bias changed
    /// since the last run: `O(regions)`, whatever the population, and
    /// nothing to pack on a single shard. Only when a region actually
    /// lands on another shard are the nodes re-dealt, queued events
    /// migrated onto their new wheels and the lookahead recounted. Also
    /// refreshes the active-shard list.
    pub(crate) fn ensure_placement(&mut self) {
        if !self.placement_dirty {
            return;
        }
        self.placement_dirty = false;
        if self.shards.len() > 1 {
            let weights = self
                .regions
                .iter()
                .map(|(&r, slot)| (r, slot.weight + self.bias(r)));
            let target = place(weights, self.shards.len());
            let mut moved = false;
            for (slot, &shard) in self.regions.values_mut().zip(&target) {
                moved |= slot.shard != shard;
                slot.shard = shard;
            }
            if moved {
                self.migrate();
            }
        }
        self.active.clear();
        self.active
            .extend((0..self.shards.len()).filter(|&s| !self.shards[s].slots.is_empty()));
    }

    /// Move every node to its region's shard: the nodes are dealt out
    /// again in id order, so each shard's slots stay sorted and `loc` is
    /// rebuilt on the way. `O(nodes)` pointer moves plus the events.
    fn migrate(&mut self) {
        let mut old: Vec<_> = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.slots).into_iter())
            .collect();
        for (id, loc) in self.loc.iter_mut().enumerate() {
            // Slots are in id order, so this node is next in its shard.
            let slot = old[loc.shard as usize].next().expect("node in its shard");
            debug_assert_eq!(slot.id, id);
            let shard = self.regions[&self.region[id]].shard;
            let slots = &mut self.shards[shard as usize].slots;
            *loc = Loc {
                shard,
                slot: slots.len() as u32,
            };
            slots.push(slot);
        }
        // Events already queued (harness injections, timers from earlier
        // runs) may sit on wheels their node no longer owns: migrate them.
        // `(at, key)` pairs are preserved, so the total event order — and
        // with it every observable outcome — is unchanged.
        let pending: Vec<_> = self
            .shards
            .iter_mut()
            .flat_map(|s| s.wheel.drain())
            .collect();
        for (at, key, payload) in pending {
            let s = self.loc[payload.node()].shard as usize;
            self.shards[s].wheel.schedule(at, key, payload);
        }
        // The set of cross-shard links changed with the assignment.
        self.lookahead = None;
    }

    /// The current region→shard assignment with per-region weights (bias
    /// included), as `(region, shard, weight)` triples in region order.
    /// Forces a placement pass first.
    pub fn region_assignments(&mut self) -> Vec<(u32, u32, u64)> {
        self.ensure_placement();
        self.regions
            .iter()
            .map(|(&r, slot)| (r, slot.shard, slot.weight + self.bias(r)))
            .collect()
    }

    /// The placement bias declared for `region` (zero if none).
    fn bias(&self, region: u32) -> u64 {
        self.weight_bias.get(&region).copied().unwrap_or(0)
    }

    /// [`Simulator::region_assignments`] recounted from every node and
    /// link, ignoring the incremental state: the oracle the cache property
    /// tests compare against.
    #[cfg(test)]
    fn recount_region_assignments(&self) -> Vec<(u32, u32, u64)> {
        let mut weights = BTreeMap::<u32, u64>::new();
        for (node, &r) in self.region.iter().enumerate() {
            let links = self.slot(node).links.iter().count() as u64;
            *weights.entry(r).or_insert(self.bias(r)) += 1 + links;
        }
        let biased = weights.iter().map(|(&r, &w)| (r, w));
        let shards = place(biased, self.shards.len());
        weights
            .iter()
            .zip(shards)
            .map(|((&r, &w), s)| (r, s, w))
            .collect()
    }

    /// Connect `from`'s `from_port` to `to`'s `to_port` with a unidirectional
    /// link.
    pub fn connect_simplex(
        &mut self,
        from: (NodeId, PortId),
        to: (NodeId, PortId),
        cfg: LinkConfig,
    ) {
        assert!(from.0 < self.loc.len(), "unknown source node");
        assert!(to.0 < self.loc.len(), "unknown destination node");
        let seed = stream_seed(self.seed, 2, ((from.0 as u64) << 20) | from.1 as u64);
        let delay = cfg.delay;
        let link = Link::new(cfg, to, seed);
        assert!(
            self.slot_mut(from.0).links.insert(from.1, link),
            "port {from:?} already connected"
        );
        let owner = self.regions.get_mut(&self.region[from.0]);
        owner.expect("every node's region has a slot").weight += 1;
        self.placement_dirty = true;
        // A same-shard link leaves the lookahead as it is; a cross-shard
        // one can only lower it. (A zero delay is judged by the recount at
        // the next run, once placement has settled which regions share a
        // shard.)
        if self.loc[from.0].shard != self.loc[to.0].shard {
            self.lookahead = self
                .lookahead
                .map(|l| l.min(delay))
                .filter(|&l| l > Duration::ZERO);
        }
    }

    /// Connect two nodes with a symmetric pair of links.
    pub fn connect(&mut self, a: (NodeId, PortId), b: (NodeId, PortId), cfg: LinkConfig) {
        self.connect_simplex(a, b, cfg.clone());
        self.connect_simplex(b, a, cfg);
    }

    /// Connect two nodes with asymmetric link configurations (e.g. LTE
    /// uplink vs downlink rates). `a_to_b` shapes traffic from `a` to `b`.
    pub fn connect_asymmetric(
        &mut self,
        a: (NodeId, PortId),
        b: (NodeId, PortId),
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) {
        self.connect_simplex(a, b, a_to_b);
        self.connect_simplex(b, a, b_to_a);
    }

    fn link_mut(&mut self, from: (NodeId, PortId)) -> Option<&mut Link> {
        if from.0 >= self.loc.len() {
            return None;
        }
        self.slot_mut(from.0).links.get_mut(from.1)
    }

    fn link_ref(&self, from: (NodeId, PortId)) -> Option<&Link> {
        if from.0 >= self.loc.len() {
            return None;
        }
        self.slot(from.0).links.get(from.1)
    }

    /// Next key for a harness-originated event.
    fn ext_key(&mut self) -> EvKey {
        let ctr = self.ext_ctr;
        self.ext_ctr += 1;
        EvKey {
            src: EvKey::EXTERNAL,
            ctr,
        }
    }

    /// Put a harness-originated event on the wheel of `node`'s shard.
    fn schedule_external(&mut self, node: NodeId, at: Instant, payload: EvPayload) {
        let key = self.ext_key();
        let shard = self.loc[node].shard as usize;
        self.shards[shard].wheel.schedule(at, key, payload);
    }

    /// Schedule an initial timer for a node (used to kick off sources).
    pub fn schedule_timer(&mut self, node: NodeId, at: Instant, token: u64) {
        let epoch = self.slot(node).meta.epoch;
        let payload = EvPayload {
            kind: EvKind::Timer(node, token, None, epoch),
            pkt: None,
        };
        self.schedule_external(node, at, payload);
    }

    /// Inject a packet arriving at `(node, port)` at time `at`.
    pub fn inject_packet(&mut self, node: NodeId, port: PortId, at: Instant, pkt: Packet) {
        let payload = EvPayload {
            kind: EvKind::Arrive(node, port),
            pkt: Some(pkt),
        };
        self.schedule_external(node, at, payload);
    }

    /// Run until the event queues drain or `limit` is reached, whichever
    /// is first. Returns the number of events processed by this call.
    pub fn run_until(&mut self, limit: Instant) -> u64 {
        let n = crate::shard::run(self, limit);
        // Even if no event lands exactly at `limit`, the clock advances.
        if self.now < limit {
            self.now = limit;
        }
        n
    }

    /// Run until the event queues are fully drained.
    pub fn run_until_idle(&mut self) -> u64 {
        crate::shard::run(self, Instant::MAX)
    }

    /// Borrow a node as its concrete type (panics on wrong type or id).
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        (self.slot(id).node.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node as its concrete type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        (self.slot_mut(id).node.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Attach a fault plan to the link leaving `(node, port)`. Replaces any
    /// existing plan; pass a fresh plan per link so each keeps its own RNG
    /// stream. Panics if the port is not connected.
    pub fn attach_fault_plan(&mut self, from: (NodeId, PortId), plan: FaultPlan) {
        let link = self.link_mut(from).expect("fault plan on unknown link");
        link.set_fault_plan(Some(plan));
    }

    /// Attach a node-lifecycle fault plan. Probability draws are resolved
    /// here (from the plan's own seeded stream, keyed by rule content, so
    /// insertion order is irrelevant) and the plan is compiled into
    /// per-node outage schedules. Replaces any previous plan. Attach after
    /// the topology is built; nodes added later are never faulted. A plan
    /// whose rules all miss their draws behaves byte-identically to no
    /// plan at all.
    pub fn attach_node_fault_plan(&mut self, plan: &NodeFaultPlan) {
        self.node_faults = plan.compile(self.loc.len());
    }

    /// Packet deliveries rejected because the destination node was down.
    pub fn node_arrivals_rejected(&self) -> u64 {
        self.total(|c| c.node_rejected)
    }

    /// Timer expiries dropped by node faults (node crashed at expiry, or
    /// the timer predates the node's last crash-restart).
    pub fn node_timers_dropped(&self) -> u64 {
        self.total(|c| c.node_timer_dropped)
    }

    /// Crash-restart recoveries performed ([`Node::on_restart`] calls).
    pub fn node_restarts(&self) -> u64 {
        self.total(|c| c.node_restarts)
    }

    /// Sends discarded because the emitting node was partitioned.
    pub fn node_sends_dropped(&self) -> u64 {
        self.total(|c| c.node_tx_dropped)
    }

    /// Statistics of the link leaving `(node, port)`, if connected.
    pub fn link_stats(&self, from: (NodeId, PortId)) -> Option<LinkStats> {
        self.link_ref(from).map(|l| l.stats())
    }

    /// Mutate the configuration of an existing link (e.g. change its rate
    /// mid-experiment).
    pub fn reconfigure_link(&mut self, from: (NodeId, PortId), f: impl FnOnce(&mut LinkConfig)) {
        let link = self.link_mut(from).expect("reconfigure of unknown link");
        link.reconfigure(f);
        let to = link.to().0;
        // The new delay may be above the lookahead, which nothing short of
        // a recount can raise.
        if self.loc[from.0].shard != self.loc[to].shard {
            self.lookahead = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn imbalance_is_max_over_mean_of_busy_shards() {
        assert!((shard_imbalance(&[300, 100, 0, 200]) - 0.5).abs() < 1e-12);
        assert_eq!(shard_imbalance(&[100, 100]), 0.0);
    }

    /// Node that reflects every packet back out the port it arrived on.
    struct Echo {
        seen: u32,
    }
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            self.seen += 1;
            let mut back = pkt;
            std::mem::swap(&mut back.src, &mut back.dst);
            ctx.send(port, back);
        }
    }

    /// Node that sends `count` packets then records echo round-trip times.
    struct Prober {
        dst: Ipv4Addr,
        count: u32,
        rtts: Vec<Duration>,
    }
    impl Node for Prober {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            self.rtts.push(ctx.now() - pkt.created);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for _ in 0..self.count {
                let pkt =
                    Packet::icmp(Ipv4Addr::new(10, 0, 0, 1), self.dst, 56).with_created(ctx.now());
                ctx.send(0, pkt);
            }
        }
    }

    #[test]
    fn echo_round_trip_includes_both_directions() {
        let mut sim = Simulator::new(1);
        let prober = sim.add_node(Box::new(Prober {
            dst: Ipv4Addr::new(10, 0, 0, 2),
            count: 3,
            rtts: Vec::new(),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(
            (prober, 0),
            (echo, 0),
            LinkConfig::delay_only(Duration::from_millis(5)),
        );
        sim.schedule_timer(prober, Instant::ZERO, 0);
        sim.run_until_idle();

        assert_eq!(sim.node_ref::<Echo>(echo).seen, 3);
        let rtts = &sim.node_ref::<Prober>(prober).rtts;
        assert_eq!(rtts.len(), 3);
        for rtt in rtts {
            assert_eq!(*rtt, Duration::from_millis(10));
        }
    }

    #[test]
    fn serialization_delays_queue_back_to_back_packets() {
        // 3 packets of 1500B payload at 12 Mbps: ~1 ms serialization each,
        // so arrivals are spaced by the serialization time.
        let mut sim = Simulator::new(1);
        let prober = sim.add_node(Box::new(Prober {
            dst: Ipv4Addr::new(10, 0, 0, 2),
            count: 3,
            rtts: Vec::new(),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let cfg = LinkConfig {
            rate_bps: 12_000_000,
            ..LinkConfig::delay_only(Duration::ZERO)
        };
        sim.connect((prober, 0), (echo, 0), cfg);
        sim.schedule_timer(prober, Instant::ZERO, 0);
        sim.run_until_idle();
        let rtts = &sim.node_ref::<Prober>(prober).rtts;
        // Packet i waits behind i-1 on the forward link; returns are also
        // serialized but echo responses are likewise spaced, so RTT grows
        // linearly.
        assert!(rtts[0] < rtts[1] && rtts[1] < rtts[2], "rtts: {rtts:?}");
    }

    #[test]
    fn unconnected_port_counts_unrouted() {
        struct Shouter;
        impl Node for Shouter {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                let p = Packet::udp(
                    (Ipv4Addr::new(1, 1, 1, 1), 1),
                    (Ipv4Addr::new(2, 2, 2, 2), 2),
                    10,
                );
                ctx.send(9, p);
            }
        }
        let mut sim = Simulator::new(7);
        let n = sim.add_node(Box::new(Shouter));
        sim.schedule_timer(n, Instant::ZERO, 0);
        sim.run_until_idle();
        assert_eq!(sim.total(|c| c.unrouted), 1);
    }

    /// Node that sends one packet on the port its timer token names.
    struct PortSender;
    impl Node for PortSender {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let p = Packet::udp(
                (Ipv4Addr::new(1, 1, 1, 1), 1),
                (Ipv4Addr::new(2, 2, 2, 2), 2),
                10,
            );
            ctx.send(token as PortId, p);
        }
    }

    /// A UE-shaped row, ports {0, 1, 201} connected out of order, holds
    /// exactly its three links in port order; the numbers between them
    /// route nowhere.
    #[test]
    fn port_row_holds_only_connected_ports() {
        let mut sim = Simulator::new(7);
        let n = sim.add_node(Box::new(PortSender));
        let sink = sim.add_node(Box::new(PortSender));
        for port in [201, 0, 1] {
            let cfg = LinkConfig::delay_only(Duration::from_millis(1));
            sim.connect_simplex((n, port), (sink, port), cfg);
        }
        let row = &sim.slot(n).links;
        assert_eq!(row.0.len(), 3);
        let ports: Vec<PortId> = row.iter().map(|(p, _)| p).collect();
        assert_eq!(ports, [0, 1, 201]);
        for (p, link) in row.iter() {
            assert_eq!(link.to(), (sink, p));
            assert!(std::ptr::eq(row.get(p).expect("connected"), link));
        }
        assert!(row.get(2).is_none() && row.get(200).is_none());
        for port in [0, 2, 1, 200, 201, 202] {
            sim.schedule_timer(n, Instant::ZERO, port);
        }
        sim.run_until_idle();
        for port in [0, 1, 201] {
            assert_eq!(sim.link_stats((n, port)).expect("connected").tx_packets, 1);
        }
        assert_eq!(sim.total(|c| c.unrouted), 3);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn connecting_a_port_twice_panics() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node(Box::new(PortSender));
        let b = sim.add_node(Box::new(PortSender));
        let cfg = LinkConfig::delay_only(Duration::from_millis(1));
        sim.connect_simplex((a, 201), (b, 0), cfg.clone());
        sim.connect_simplex((a, 0), (b, 1), cfg.clone());
        sim.connect_simplex((a, 201), (b, 2), cfg);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(0);
        sim.run_until(Instant::from_secs(3));
        assert_eq!(sim.now(), Instant::from_secs(3));
    }

    fn probe_run(seed: u64, shards: usize, regions: [u32; 2]) -> Vec<Duration> {
        let mut sim = Simulator::with_shards(seed, shards);
        let prober = sim.add_node_in_region(
            Box::new(Prober {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                count: 20,
                rtts: Vec::new(),
            }),
            regions[0],
        );
        let echo = sim.add_node_in_region(Box::new(Echo { seen: 0 }), regions[1]);
        let cfg = LinkConfig {
            rate_bps: 1_000_000,
            jitter: Duration::from_micros(500),
            ..LinkConfig::delay_only(Duration::from_millis(2))
        };
        sim.connect((prober, 0), (echo, 0), cfg);
        sim.schedule_timer(prober, Instant::ZERO, 0);
        sim.run_until_idle();
        sim.node_ref::<Prober>(prober).rtts.clone()
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        assert_eq!(probe_run(42, 1, [0, 0]), probe_run(42, 1, [0, 0]));
        assert_ne!(
            probe_run(42, 1, [0, 0]),
            probe_run(43, 1, [0, 0]),
            "jitter should depend on the seed"
        );
    }

    #[test]
    fn sharded_run_matches_single_threaded_run() {
        let serial = probe_run(42, 1, [0, 1]);
        for shards in [2, 4] {
            assert_eq!(
                serial,
                probe_run(42, shards, [0, 1]),
                "shards={shards} must be byte-identical to shards=1"
            );
        }
    }

    #[test]
    fn cross_shard_exchange_conserves_events() {
        let mut sim = Simulator::with_shards(11, 2);
        let prober = sim.add_node_in_region(
            Box::new(Prober {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                count: 50,
                rtts: Vec::new(),
            }),
            0,
        );
        let echo = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 1);
        sim.connect(
            (prober, 0),
            (echo, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );
        sim.schedule_timer(prober, Instant::ZERO, 0);
        sim.run_until_idle();
        assert_eq!(sim.cross_shard_sent(), 100, "50 pings + 50 echoes");
        assert_eq!(sim.cross_shard_sent(), sim.cross_shard_received());
        assert_eq!(sim.node_ref::<Prober>(prober).rtts.len(), 50);
    }

    #[test]
    #[should_panic(expected = "zero propagation delay")]
    fn zero_delay_cross_shard_link_is_rejected() {
        let mut sim = Simulator::with_shards(1, 2);
        let a = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 0);
        let b = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 1);
        sim.connect((a, 0), (b, 0), LinkConfig::delay_only(Duration::ZERO));
        sim.schedule_timer(a, Instant::ZERO, 0);
        sim.run_until_idle();
    }

    /// Node that arms a cancellable timer, then cancels it on the next
    /// (plain) timer, counting which expiries actually reached it.
    struct Canceller {
        armed: Option<TimerHandle>,
        fired: Vec<u64>,
    }
    impl Node for Canceller {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push(token);
            match token {
                0 => {
                    // Arm a guard far in the future, and a checkpoint before
                    // it that will cancel it.
                    self.armed = Some(ctx.schedule_in_cancellable(Duration::from_millis(100), 99));
                    ctx.schedule_in(Duration::from_millis(10), 1);
                }
                1 => {
                    let h = self.armed.take().expect("guard armed");
                    assert!(ctx.cancel_timer(h), "guard should still be pending");
                    assert!(!ctx.cancel_timer(h), "double cancel is a no-op");
                    // A fresh cancellable timer that is allowed to fire.
                    ctx.schedule_in_cancellable(Duration::from_millis(5), 2);
                }
                _ => {}
            }
        }
    }

    use crate::fault::{NodeFaultPlan, NodeFaultRule};

    /// Source that sends one ping every 10 ms, `max` times.
    struct Ticker {
        dst: Ipv4Addr,
        sent: u32,
        max: u32,
    }
    impl Node for Ticker {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if self.sent < self.max {
                self.sent += 1;
                let pkt =
                    Packet::icmp(Ipv4Addr::new(10, 0, 0, 1), self.dst, 56).with_created(ctx.now());
                ctx.send(0, pkt);
                ctx.schedule_in(Duration::from_millis(10), token);
            }
        }
    }

    /// Fault-target node: counts deliveries and self-rescheduled ticks.
    /// `trace` is harness-side instrumentation and survives restarts; the
    /// node's own state (`seen`, `ticks`) is erased by `on_restart`.
    struct Tally {
        seen: u32,
        trace: Vec<u32>,
        ticks: u32,
        tick_every: Option<Duration>,
        long_timer_at: Option<Instant>,
        long_fired: bool,
    }
    impl Tally {
        fn new() -> Tally {
            Tally {
                seen: 0,
                trace: Vec::new(),
                ticks: 0,
                tick_every: None,
                long_timer_at: None,
                long_fired: false,
            }
        }
    }
    impl Node for Tally {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {
            self.seen += 1;
            self.trace.push(self.seen);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                0 => {
                    if self.tick_every.is_some() {
                        ctx.schedule_in(Duration::ZERO, 1);
                    }
                    if let Some(at) = self.long_timer_at {
                        ctx.schedule_at(at, 2);
                    }
                }
                1 => {
                    self.ticks += 1;
                    let pkt =
                        Packet::icmp(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1), 56)
                            .with_created(ctx.now());
                    ctx.send(0, pkt);
                    if let Some(d) = self.tick_every {
                        ctx.schedule_in(d, 1);
                    }
                }
                2 => self.long_fired = true,
                _ => {}
            }
        }
        fn on_restart(&mut self) {
            self.seen = 0;
            self.ticks = 0;
        }
    }

    fn ticker_tally(sim: &mut Simulator, regions: [u32; 2], tally: Tally) -> (NodeId, NodeId) {
        let ticker = sim.add_node_in_region(
            Box::new(Ticker {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                sent: 0,
                max: 30,
            }),
            regions[0],
        );
        let t = sim.add_node_in_region(Box::new(tally), regions[1]);
        sim.connect(
            (ticker, 0),
            (t, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );
        sim.schedule_timer(ticker, Instant::ZERO, 0);
        (ticker, t)
    }

    #[test]
    fn crash_restart_rejects_deliveries_and_erases_state() {
        let mut sim = Simulator::new(5);
        let (_, tally) = ticker_tally(&mut sim, [0, 0], Tally::new());
        // Arrivals land at 1, 11, ..., 291 ms. Down for [100, 150) ms:
        // the five arrivals at 101..141 bounce, and the node restarts
        // empty before the 151 ms delivery.
        let plan = NodeFaultPlan::new(1).with_rule(NodeFaultRule::crash_restart(
            tally,
            Instant::from_millis(100),
            Duration::from_millis(50),
        ));
        sim.attach_node_fault_plan(&plan);
        sim.run_until_idle();
        assert_eq!(sim.node_arrivals_rejected(), 5);
        assert_eq!(sim.node_restarts(), 1);
        let t = sim.node_ref::<Tally>(tally);
        assert_eq!(t.seen, 15, "10 pre-crash + 15 post-restart, reset between");
        let expect: Vec<u32> = (1..=10).chain(1..=15).collect();
        assert_eq!(t.trace, expect, "state restarted from empty");
    }

    #[test]
    fn timers_armed_before_a_crash_never_fire() {
        let mut sim = Simulator::new(5);
        let mut tally = Tally::new();
        tally.tick_every = Some(Duration::from_millis(7));
        tally.long_timer_at = Some(Instant::from_millis(200));
        let (_, tally) = ticker_tally(&mut sim, [0, 0], tally);
        sim.schedule_timer(tally, Instant::ZERO, 0);
        let plan = NodeFaultPlan::new(1).with_rule(NodeFaultRule::crash_restart(
            tally,
            Instant::from_millis(100),
            Duration::from_millis(50),
        ));
        sim.attach_node_fault_plan(&plan);
        sim.run_until_idle();
        let t = sim.node_ref::<Tally>(tally);
        // The tick chain dies inside the crash window (its next expiry is
        // rejected, so nothing reschedules it) and the pre-crash long
        // timer is epoch-stale by the time it pops at 200 ms.
        assert_eq!(t.ticks, 0, "ticks erased at restart and chain is dead");
        assert!(
            !t.long_fired,
            "pre-crash timer must not survive the restart"
        );
        assert!(sim.node_timers_dropped() >= 2);
        assert_eq!(sim.node_restarts(), 1);
    }

    #[test]
    fn partition_preserves_state_and_cuts_traffic_both_ways() {
        let mut sim = Simulator::new(5);
        let mut tally = Tally::new();
        tally.tick_every = Some(Duration::from_millis(7));
        let (_, tally) = ticker_tally(&mut sim, [0, 0], tally);
        sim.schedule_timer(tally, Instant::ZERO, 0);
        let plan = NodeFaultPlan::new(1).with_rule(NodeFaultRule::partition(
            tally,
            Instant::from_millis(100),
            Duration::from_millis(50),
        ));
        sim.attach_node_fault_plan(&plan);
        // The tick chain reschedules forever, so bound the run instead of
        // draining to idle.
        sim.run_until(Instant::from_millis(300));
        let t = sim.node_ref::<Tally>(tally);
        assert_eq!(sim.node_arrivals_rejected(), 5, "deliveries bounce");
        assert_eq!(sim.node_restarts(), 0, "a partition is not a crash");
        assert!(
            sim.node_sends_dropped() >= 7,
            "tick sends inside the window go nowhere"
        );
        assert_eq!(sim.node_timers_dropped(), 0, "timers keep firing");
        assert_eq!(t.seen, 25, "10 before + 15 after, state preserved");
        let expect: Vec<u32> = (1..=25).collect();
        assert_eq!(t.trace, expect, "no reset across a partition");
    }

    #[test]
    fn empty_or_all_miss_node_plan_is_byte_identical_to_none() {
        let run = |plan: Option<NodeFaultPlan>| {
            let mut sim = Simulator::new(42);
            let (_, tally) = ticker_tally(&mut sim, [0, 0], Tally::new());
            if let Some(p) = plan {
                sim.attach_node_fault_plan(&p);
            }
            sim.run_until_idle();
            (
                sim.node_ref::<Tally>(tally).trace.clone(),
                sim.events_processed(),
            )
        };
        let baseline = run(None);
        assert_eq!(baseline, run(Some(NodeFaultPlan::new(7))));
        let all_miss = NodeFaultPlan::new(7).with_rule(
            NodeFaultRule::crash_stop(1, Instant::from_millis(50)).with_probability(0.0),
        );
        assert_eq!(baseline, run(Some(all_miss)));
    }

    #[test]
    fn node_faults_are_shard_invariant() {
        let run = |shards: usize| {
            let mut sim = Simulator::with_shards(42, shards);
            let mut tally = Tally::new();
            tally.tick_every = Some(Duration::from_millis(7));
            let (_, tally) = ticker_tally(&mut sim, [0, 1], tally);
            sim.schedule_timer(tally, Instant::ZERO, 0);
            let plan = NodeFaultPlan::new(3).with_rule(NodeFaultRule::crash_restart(
                tally,
                Instant::from_millis(100),
                Duration::from_millis(50),
            ));
            sim.attach_node_fault_plan(&plan);
            sim.run_until_idle();
            (
                sim.node_ref::<Tally>(tally).trace.clone(),
                sim.events_processed(),
                sim.node_arrivals_rejected(),
                sim.node_restarts(),
            )
        };
        let serial = run(1);
        for shards in [2, 4] {
            assert_eq!(serial, run(shards), "shards={shards}");
        }
    }

    #[test]
    fn crash_stop_silences_a_node_forever() {
        let mut sim = Simulator::new(5);
        let (_, tally) = ticker_tally(&mut sim, [0, 0], Tally::new());
        let plan = NodeFaultPlan::new(1)
            .with_rule(NodeFaultRule::crash_stop(tally, Instant::from_millis(100)));
        sim.attach_node_fault_plan(&plan);
        sim.run_until_idle();
        assert_eq!(sim.node_restarts(), 0);
        assert_eq!(sim.node_arrivals_rejected(), 20);
        assert_eq!(sim.node_ref::<Tally>(tally).seen, 10);
    }

    /// Call-reuse regression: N consecutive `run_until` calls on one
    /// engine must be byte-identical to fresh engines run straight to
    /// each checkpoint — nothing kept between calls may leak from one call
    /// into the next. Small calls stay on the calling thread; calls with
    /// enough work go threaded, and the counters say which happened.
    #[test]
    fn consecutive_run_until_calls_match_fresh_engine_runs() {
        let build = |shards: usize, count: u32| {
            let mut sim = Simulator::with_shards(42, shards);
            let prober = sim.add_node_in_region(
                Box::new(Prober {
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    count,
                    rtts: Vec::new(),
                }),
                0,
            );
            let echo = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 1);
            let cfg = LinkConfig {
                rate_bps: 1_000_000,
                jitter: Duration::from_micros(500),
                ..LinkConfig::delay_only(Duration::from_millis(2))
            };
            sim.connect((prober, 0), (echo, 0), cfg);
            sim.schedule_timer(prober, Instant::ZERO, 0);
            (sim, prober)
        };
        // 40 packets take 27 ms to serialize, 2 000 take 1.3 s: six steps
        // of a few dozen events each, then six of about a thousand.
        for (count, step_ms) in [(40, 25u64), (2_000, 250)] {
            for shards in [2, 4] {
                let (mut windowed, prober) = build(shards, count);
                for k in 1..=6u64 {
                    windowed.run_until(Instant::from_millis(k * step_ms));
                    let (mut fresh, fresh_prober) = build(shards, count);
                    fresh.run_until(Instant::from_millis(k * step_ms));
                    assert_eq!(
                        windowed.node_ref::<Prober>(prober).rtts,
                        fresh.node_ref::<Prober>(fresh_prober).rtts,
                        "shards={shards}: window {k} diverged from a fresh run"
                    );
                    assert_eq!(windowed.events_processed(), fresh.events_processed());
                    assert_eq!(windowed.now(), fresh.now());
                }
                assert!(
                    windowed.total(|c| c.windows) > 0,
                    "two lanes run the window protocol"
                );
                let threaded = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
                if count == 40 || !threaded {
                    assert_eq!(
                        windowed.total(|c| c.threaded_runs),
                        0,
                        "no call went threaded"
                    );
                } else {
                    assert!(
                        windowed.total(|c| c.threaded_runs) >= 2,
                        "a call with a thousand events hands both lanes to threads"
                    );
                }
            }
        }
    }

    /// A region weight bias redirects the balanced packer — the biased
    /// region is budgeted heavier and ends up alone — without changing
    /// anything observable.
    #[test]
    fn region_weight_bias_moves_placement_not_observables() {
        let run = |bias: u64| {
            let mut sim = Simulator::with_shards(42, 2);
            let prober = sim.add_node_in_region(
                Box::new(Prober {
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    count: 30,
                    rtts: Vec::new(),
                }),
                0,
            );
            let echo_b = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 1);
            for _ in 0..3 {
                sim.add_node_in_region(Box::new(Echo { seen: 0 }), 2);
            }
            if bias > 0 {
                sim.set_region_weight_bias(0, bias);
            }
            sim.connect(
                (prober, 0),
                (echo_b, 0),
                LinkConfig::delay_only(Duration::from_millis(1)),
            );
            sim.schedule_timer(prober, Instant::ZERO, 0);
            sim.run_until_idle();
            let assignments = sim.region_assignments();
            (
                sim.node_ref::<Prober>(prober).rtts.clone(),
                sim.events_processed(),
                assignments,
            )
        };
        let (rtts_plain, events_plain, asg_plain) = run(0);
        let (rtts_bias, events_bias, asg_bias) = run(100);
        assert_eq!(rtts_plain, rtts_bias, "bias must not change observables");
        assert_eq!(events_plain, events_bias);
        // Unbiased, region 2 is the heaviest (3 nodes) and region 0 (2
        // nodes + 2 link ends) pairs with region 1. Biased, region 0 is
        // budgeted heaviest and sits alone while 1 and 2 share a shard.
        assert_eq!(
            asg_plain
                .iter()
                .map(|&(r, s, _)| (r, s))
                .collect::<Vec<_>>(),
            vec![(0, 1), (1, 1), (2, 0)]
        );
        assert_eq!(
            asg_bias.iter().map(|&(r, s, _)| (r, s)).collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (2, 1)]
        );
        // The reported weight includes the bias (it is the packer's
        // input), and only for the biased region.
        let w = |asg: &[(u32, u32, u64)], r: u32| asg.iter().find(|a| a.0 == r).unwrap().2;
        assert_eq!(w(&asg_bias, 0), w(&asg_plain, 0) + 100);
        assert_eq!(w(&asg_bias, 1), w(&asg_plain, 1));
        assert_eq!(w(&asg_bias, 2), w(&asg_plain, 2));
    }

    /// One step of an arbitrary build-and-run history (see
    /// `incremental_caches_match_a_recount`): `(what, a, b, c)`.
    type Edit = (u8, u32, u32, u32);

    /// Apply `edits` to an engine on `shards` shards, comparing the
    /// incremental placement and lookahead state against a recount at
    /// every `check` step and at the end. Returns every prober's RTTs and
    /// the event total. No cross-region link ever has zero delay, so the
    /// history is legal whatever the placement.
    fn edit_history(shards: usize, edits: &[Edit]) -> (Vec<Vec<Duration>>, u64) {
        fn check(sim: &mut Simulator) {
            assert_eq!(sim.region_assignments(), sim.recount_region_assignments());
            for (node, &r) in sim.region.iter().enumerate() {
                assert_eq!(sim.loc[node].shard, sim.regions[&r].shard, "node {node}");
            }
            // Each shard owns exactly its nodes, in ascending id order, and
            // `loc` points at them.
            for (s, shard) in sim.shards.iter().enumerate() {
                let ids: Vec<NodeId> = shard.slots.iter().map(|slot| slot.id).collect();
                let owned: Vec<NodeId> = (0..sim.loc.len())
                    .filter(|&id| sim.loc[id].shard as usize == s)
                    .collect();
                assert_eq!(ids, owned, "shard {s}");
                for (i, &id) in ids.iter().enumerate() {
                    assert_eq!(sim.loc[id].slot as usize, i, "node {id}");
                }
            }
            let mut owning: Vec<usize> = sim.loc.iter().map(|l| l.shard as usize).collect();
            owning.sort_unstable();
            owning.dedup();
            assert_eq!(sim.active, owning);
            let lookahead = crate::shard::ensure_lookahead(sim);
            assert_eq!(lookahead.nanos(), crate::shard::count_lookahead(sim));
            assert_eq!(sim.lookahead(), Some(lookahead));
        }
        let mut sim = Simulator::with_shards(7, shards);
        let mut links: Vec<(NodeId, PortId)> = Vec::new();
        let delay = |sim: &Simulator, a: NodeId, b: NodeId, c: u32| {
            let floor = u64::from(sim.region[a] != sim.region[b]);
            Duration::from_micros((u64::from(c) % 20_000).max(floor))
        };
        for &(what, a, b, c) in edits {
            let n = sim.loc.len();
            match what % 9 {
                0 | 1 => {
                    sim.add_node_in_region(
                        Box::new(Prober {
                            dst: Ipv4Addr::new(10, 0, 0, 2),
                            count: 1 + a % 3,
                            rtts: Vec::new(),
                        }),
                        b % 6,
                    );
                }
                2 | 3 if n > 0 => {
                    let (from, to) = (a as usize % n, b as usize % n);
                    let cfg = LinkConfig::delay_only(delay(&sim, from, to, c));
                    // The next free port: one past the node's last.
                    let next =
                        |n: NodeId| sim.slot(n).links.iter().last().map_or(0, |(p, _)| p + 1);
                    let (pf, pt) = (next(from), next(to) + 1);
                    if what % 9 == 2 || from == to {
                        sim.connect_simplex((from, pf), (to, pt), cfg);
                    } else {
                        sim.connect((from, pf), (to, pt), cfg);
                        links.push((to, pt));
                    }
                    links.push((from, pf));
                }
                4 => sim.set_region_weight_bias(a % 6, u64::from(b % 64)),
                5 if !links.is_empty() => {
                    let from = links[a as usize % links.len()];
                    let to = sim.link_ref(from).expect("connected").to().0;
                    let d = delay(&sim, from.0, to, c);
                    sim.reconfigure_link(from, |cfg| cfg.delay = d);
                }
                6 if n > 0 => {
                    let at = sim.now() + Duration::from_micros(u64::from(b % 5_000));
                    sim.schedule_timer(a as usize % n, at, 0);
                }
                7 => {
                    sim.run_until(sim.now() + Duration::from_micros(u64::from(a % 30_000)));
                }
                8 => check(&mut sim),
                _ => {}
            }
        }
        sim.run_until_idle();
        check(&mut sim);
        let rtts = (0..sim.loc.len())
            .map(|n| sim.node_ref::<Prober>(n).rtts.clone())
            .collect();
        (rtts, sim.events_processed())
    }

    proptest::proptest! {
        /// Placement and lookahead are kept current by the edits that
        /// change them; after any interleaving of node and link additions,
        /// bias changes, link reconfigurations, injected timers and runs
        /// they equal a recount over every node and link, each shard owns
        /// exactly its nodes in id order — and
        /// however often regions moved under queued events along the way,
        /// the run is the single-shard run.
        #[test]
        fn incremental_caches_match_a_recount(
            edits in proptest::collection::vec(
                (0u8..9, proptest::any::<u32>(), proptest::any::<u32>(), proptest::any::<u32>()),
                1..120,
            ),
        ) {
            let merged = edit_history(1, &edits);
            for shards in [2, 3, 8] {
                assert_eq!(edit_history(shards, &edits), merged, "shards={shards}");
            }
        }
    }

    /// A zero-delay link is judged against the placement of the run, not
    /// of the moment it was connected: legal while its regions share a
    /// shard (even if they did not yet when it was connected), fatal once
    /// a later placement separates them.
    #[test]
    fn zero_delay_link_is_judged_after_placement() {
        let mut sim = Simulator::with_shards(1, 2);
        // Regions 0 and 1 start on different provisional shards; the heavy
        // region 2 then takes a shard for itself and the packer pairs them.
        let a = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 0);
        let b = sim.add_node_in_region(Box::new(Echo { seen: 0 }), 1);
        sim.connect((a, 0), (b, 0), LinkConfig::delay_only(Duration::ZERO));
        for _ in 0..8 {
            sim.add_node_in_region(Box::new(Echo { seen: 0 }), 2);
        }
        sim.schedule_timer(a, Instant::ZERO, 0);
        sim.run_until(Instant::from_millis(1));
        assert_eq!(sim.loc[a].shard, sim.loc[b].shard);
        // Budgeted heaviest, region 0 takes a shard of its own and leaves
        // region 1 with region 2.
        sim.set_region_weight_bias(0, 100);
        let run = std::panic::AssertUnwindSafe(|| sim.run_until(Instant::from_millis(2)));
        let panic = std::panic::catch_unwind(run).expect_err("must refuse to run");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("zero propagation delay"), "{msg}");
    }

    #[test]
    fn cancelled_timers_never_reach_the_node() {
        let mut sim = Simulator::new(3);
        let n = sim.add_node(Box::new(Canceller {
            armed: None,
            fired: Vec::new(),
        }));
        sim.schedule_timer(n, Instant::ZERO, 0);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Canceller>(n).fired, vec![0, 1, 2]);
        assert_eq!(sim.timer_fires_skipped(), 1);
        // The cancelled expiry still popped from the queue and is counted,
        // matching runs where stale guards dispatch as no-ops.
        assert_eq!(sim.events_processed(), 4);
    }
}
