//! Sharded execution of the event loop: the shards that own the nodes,
//! and the one driver that runs them — a straight drain when one shard is
//! active, conservative-lookahead windows otherwise, serial first and
//! threaded once a call has earned it.
//!
//! # Execution model
//!
//! The topology is partitioned by node region into `N` [`Shard`]s, each
//! owning an event wheel, the nodes assigned to it and every link
//! *leaving* those nodes. With one active shard (every `N == 1` run among
//! them) the driver drains it straight to the limit. Otherwise it
//! repeatedly:
//!
//! 1. finds `t`, the earliest pending event instant over every shard
//!    (which also decides termination);
//! 2. lets every shard independently drain its events in `[t, t + L)`,
//!    where the lookahead `L` is the minimum delay of any link whose
//!    endpoints live on different shards — jitter, serialization and
//!    injected-fault extras only ever *add* delay, so nothing a shard
//!    sends during the window can land inside another shard's window;
//! 3. exchanges the buffered cross-shard arrivals (each lands at or after
//!    `t + L`) into the destination wheels, then loops.
//!
//! Which thread drains which lane is invisible in the output (see
//! *Determinism*), so every call starts its windows on the calling thread
//! and only hands the remaining ones to a thread per lane — at a window
//! boundary — once it has dispatched [`ESCALATE_AFTER_EVENTS`] events, and
//! never when the lanes outnumber the cores. A harness that polls in
//! thousands of small `run_until` steps therefore pays per call for the
//! events in the call and nothing else: the placement, the lookahead and
//! the active-shard list are simulator state kept current by the edits
//! that change them, not recomputed here. The threads live for one call:
//! lane 0 runs on the caller, the others on `std::thread::scope` threads
//! spawned when the call escalates and joined before it returns (their
//! spawn and join cost tens of microseconds, which is what the threshold
//! is sized from).
//!
//! # Determinism
//!
//! Within a window, shards interleave arbitrarily — but they share no
//! mutable state: nodes, per-node RNG/counters and outgoing links are
//! owned by exactly one shard, and event tie-break keys, RNG streams and
//! packet ids are all content-derived (see [`crate::sim::EvKey`]). The
//! wheel pops in `(at, key)` order regardless of insertion order, so the
//! exchange needs no sorting. The result: every observable outcome is
//! byte-identical to the `N = 1` run.
//!
//! # Ownership
//!
//! A lane is a `&mut Shard` plus two read-only tables shared by all
//! lanes: where each node lives ([`Loc`]) and the node outage schedules.
//! Serial windows borrow the shards one at a time; threaded windows move
//! each lane's own shard, split out of `iter_mut()`, into the thread that
//! drives it. The exchange is one flush per window per shard pair: each
//! lane swaps its non-empty per-destination buffers into an `N × N`
//! mailbox of mutex-guarded cells, and after the barrier each lane drains
//! its own column. The barriers separate the two phases, so no lock is
//! ever contended, and the borrow checker checks all of it.

use crate::fault::NodeOutageSet;
use crate::packet::Packet;
use crate::sim::{
    Action, Ctx, EvKey, EvKind, EvPayload, Node, NodeId, NodeMeta, PortId, Ports, ShardCounters,
    Simulator,
};
use crate::time::{Duration, Instant};
use crate::wheel::TimerWheel;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Where a node lives: its shard and its index in that shard's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
}

/// One node and everything the engine keeps for it, owned by the node's
/// shard.
pub(crate) struct Slot {
    pub(crate) id: NodeId,
    pub(crate) node: Box<dyn Node>,
    /// The node's connected ports (links are owned by their source
    /// endpoint).
    pub(crate) links: Ports,
    pub(crate) meta: NodeMeta,
}

/// A buffered cross-shard arrival awaiting the window exchange.
pub(crate) struct OutEntry {
    at: Instant,
    key: EvKey,
    payload: EvPayload,
}

/// One shard: the nodes it owns, its event wheel, its counters and the
/// lane state that survives from one window (or call) to the next.
pub(crate) struct Shard {
    index: u32,
    /// The shard's nodes in ascending id order. Boxed: a region move
    /// shifts pointers, and spare capacity costs a pointer per slot.
    #[allow(clippy::vec_box)]
    pub(crate) slots: Vec<Box<Slot>>,
    pub(crate) wheel: TimerWheel<EvPayload, EvKey>,
    pub(crate) ctr: ShardCounters,
    /// Instant of the last event dispatched here (set to the simulator's
    /// clock at the start of every call).
    pub(crate) now: Instant,
    /// Reusable per-dispatch action buffer.
    scratch: Vec<Action>,
    /// Cross-shard arrivals of the current window, by destination shard
    /// (empty between windows, capacity kept).
    outbox: Vec<Vec<OutEntry>>,
}

impl Shard {
    pub(crate) fn new(index: usize, nshards: usize) -> Shard {
        Shard {
            index: index as u32,
            slots: Vec::new(),
            wheel: TimerWheel::new(),
            ctr: ShardCounters::default(),
            now: Instant::ZERO,
            scratch: Vec::new(),
            outbox: (0..nshards).map(|_| Vec::new()).collect(),
        }
    }

    /// Earliest pending event instant in nanoseconds (`u64::MAX` = idle).
    fn next_at(&mut self) -> u64 {
        self.wheel.peek_key().map_or(u64::MAX, |(at, _)| at.nanos())
    }

    /// Schedule another shard's buffered arrivals, leaving `entries`
    /// empty with its capacity.
    fn receive(&mut self, entries: &mut Vec<OutEntry>) {
        for e in entries.drain(..) {
            self.ctr.xrecv += 1;
            self.wheel.schedule(e.at, e.key, e.payload);
        }
    }
}

/// What every lane reads and none writes during a call.
#[derive(Clone, Copy)]
struct Shared<'a> {
    loc: &'a [Loc],
    /// Compiled node outage schedules (empty when no node-fault plan is
    /// attached). Per-node progress lives in [`NodeMeta`].
    faults: &'a [NodeOutageSet],
}

/// One shard's execution lane: pops, dispatches and applies the events
/// of the nodes it owns.
struct Lane<'a> {
    shard: &'a mut Shard,
    shared: Shared<'a>,
}

impl Lane<'_> {
    /// Process every pending event with `at <= until` (including chains of
    /// events the processing itself schedules inside the window).
    fn drain_window(&mut self, until: Instant) {
        while let Some((at, _)) = self.shard.wheel.peek_key() {
            if at > until {
                break;
            }
            let (at, _, payload) = self.shard.wheel.pop().expect("peeked event vanished");
            self.dispatch(at, payload);
        }
    }

    fn dispatch(&mut self, at: Instant, mut ev: EvPayload) {
        assert!(at >= self.shard.now, "event scheduled in the past");
        self.shard.now = at;
        self.shard.ctr.events += 1;
        if let EvKind::Head { to, from, dscp } = ev.kind {
            ev.kind = self.release(to, from, dscp);
        }
        let node_id = ev.node();
        let loc = self.shared.loc[node_id];
        debug_assert_eq!(
            loc.shard, self.shard.index,
            "event routed to the wrong shard"
        );
        let slot = loc.slot as usize;
        // Cancelled guard timers die here, before the node is touched.
        if let EvKind::Timer(_, _, Some(guard), _) = ev.kind {
            if !self.shard.slots[slot].meta.timers.invalidate(guard) {
                self.shard.ctr.timer_skipped += 1;
                return;
            }
        }
        // Node-lifecycle faults: a down node rejects the event; a
        // completed crash-restart erases the node's state first.
        let faults = self.shared.faults;
        if !faults.is_empty()
            && faults.get(node_id).is_some_and(|s| !s.windows.is_empty())
            && !self.fault_gate(slot, node_id, at, &ev.kind)
        {
            return;
        }
        let mut actions = std::mem::take(&mut self.shard.scratch);
        let Slot { node, meta, .. } = &mut *self.shard.slots[slot];
        let mut ctx = Ctx {
            now: at,
            node: node_id,
            actions: &mut actions,
            rng: &mut meta.rng,
            next_pkt_id: &mut meta.pkt_ctr,
            timers: &mut meta.timers,
        };
        match ev.kind {
            EvKind::Arrive(_, port) => {
                self.shard.ctr.arrivals += 1;
                let pkt = ev.pkt.expect("arrival without a packet");
                node.on_packet(&mut ctx, port, pkt);
            }
            EvKind::Timer(_, token, _, _) => node.on_timer(&mut ctx, token),
            EvKind::Head { .. } => unreachable!("a chain head is released above"),
        }
        self.apply_actions(slot, node_id, &mut actions);
        self.shard.scratch = actions;
    }

    /// A chain head is due: put the next packet of its chain on the wheel
    /// under the `(at, key)` it was given when sent, and hand the head on
    /// as a plain arrival.
    fn release(&mut self, to: (u32, u32), from: (u32, u32), dscp: u8) -> EvKind {
        let loc = self.shared.loc[from.0 as usize];
        debug_assert_eq!(loc.shard, self.shard.index, "a chain crossed shards");
        let link = self.shard.slots[loc.slot as usize]
            .links
            .get_mut(from.1 as PortId);
        let link = link.expect("a chain's link stays connected");
        if let Some((at, ctr, pkt)) = link.chain(dscp).release() {
            let payload = EvPayload {
                kind: EvKind::Head { to, from, dscp },
                pkt: Some(pkt),
            };
            self.shard
                .wheel
                .schedule(at, EvKey::new(from.0, ctr), payload);
        }
        EvKind::Arrive(to.0 as NodeId, to.1 as PortId)
    }

    /// Decide whether an event for a fault-targeted node is delivered
    /// (`false`: drop it; counters are already updated). Lazily advances
    /// the node through its outage schedule: a crash-restart window that
    /// has fully passed erases the node's state (and bumps its timer
    /// epoch) before anything else reaches it. All decisions depend only on
    /// the event's own `(node, at, kind)` — never on other shards — so the
    /// outcome is identical at every shard count.
    fn fault_gate(&mut self, slot: usize, node_id: NodeId, at: Instant, kind: &EvKind) -> bool {
        let windows = &self.shared.faults[node_id].windows;
        let Slot { node, meta: m, .. } = &mut *self.shard.slots[slot];
        let ctr = &mut self.shard.ctr;
        // Complete every window that has fully passed.
        while (m.fault_pos as usize) < windows.len() && windows[m.fault_pos as usize].until <= at {
            m.fault_pos += 1;
            m.epoch = m.epoch.wrapping_add(1);
            ctr.node_restarts += 1;
            node.on_restart();
        }
        let down = windows
            .get(m.fault_pos as usize)
            .is_some_and(|w| w.from <= at);
        match *kind {
            // Crashed: nothing reaches the node, timers included.
            EvKind::Arrive(..) if down => ctr.node_rejected += 1,
            EvKind::Timer(..) if down => ctr.node_timer_dropped += 1,
            // A timer armed before the node's last crash-restart never
            // fires.
            EvKind::Timer(_, _, _, armed_epoch) if armed_epoch != m.epoch => {
                ctr.node_timer_dropped += 1
            }
            _ => return true,
        }
        false
    }

    /// Content-derived key for the next event emitted by the node in
    /// `slot` (id `src`).
    #[inline]
    fn next_key(&mut self, slot: usize, src: NodeId) -> EvKey {
        let m = &mut self.shard.slots[slot].meta;
        let ctr = m.ev_ctr;
        m.ev_ctr += 1;
        EvKey::new(src as u32, ctr)
    }

    /// Offer `pkt` to the link on `port` of the node in `slot` (id `src`)
    /// and schedule what it delivers, each copy under the sender's next
    /// event key, the primary first. The primary joins its class's chain
    /// when the link offers it one and the destination is on this shard;
    /// every other copy is an arrival of its own, on this wheel or in the
    /// outbox of the destination's shard.
    fn send(&mut self, (slot, src): (usize, NodeId), port: PortId, pkt: Packet) {
        let Shard {
            index,
            slots,
            wheel,
            ctr: counters,
            now,
            outbox,
            ..
        } = &mut *self.shard;
        let Slot { links, meta, .. } = &mut *slots[slot];
        let Some(link) = links.get_mut(port) else {
            counters.unrouted += 1;
            return;
        };
        let to = link.to();
        let dst_shard = self.shared.loc[to.0].shard;
        let local = dst_shard == *index;
        let sent = link.transmit(*now, &pkt);
        let mut next_ctr = || {
            meta.ev_ctr += 1;
            meta.ev_ctr - 1
        };
        let mut post = |at: Instant, ctr: u64, kind: EvKind, pkt: Packet| {
            let key = EvKey::new(src as u32, ctr);
            let payload = EvPayload {
                kind,
                pkt: Some(pkt),
            };
            if local {
                wheel.schedule(at, key, payload);
            } else {
                counters.xsent += 1;
                outbox[dst_shard as usize].push(OutEntry { at, key, payload });
            }
        };
        let arrive = EvKind::Arrive(to.0, to.1);
        let primary = |at: Instant, ctr: u64, pkt: Packet| match sent.chain.filter(|_| local) {
            None => post(at, ctr, arrive, pkt),
            Some(chain) => {
                if let Some(pkt) = chain.hold(at, ctr, pkt) {
                    let head = EvKind::Head {
                        to: (to.0 as u32, to.1 as u32),
                        from: (src as u32, port as u32),
                        dscp: pkt.tos >> 2,
                    };
                    post(at, ctr, head, pkt);
                }
            }
        };
        // Payloads are shared buffers, so a duplicate is a header-only copy;
        // with the primary dropped it takes the original.
        match (sent.primary, sent.duplicate) {
            (Some(at), None) => primary(at, next_ctr(), pkt),
            (Some(at), Some(dup_at)) => {
                primary(at, next_ctr(), pkt.clone());
                post(dup_at, next_ctr(), arrive, pkt);
            }
            (None, Some(dup_at)) => post(dup_at, next_ctr(), arrive, pkt),
            (None, None) => {}
        }
    }

    fn apply_actions(&mut self, slot: usize, node_id: NodeId, actions: &mut Vec<Action>) {
        let src = (slot, node_id);
        for action in actions.drain(..) {
            match action {
                Action::Send { port, pkt } => self.send(src, port, pkt),
                Action::Timer { at, token, guard } => {
                    let at = at.max(self.shard.now);
                    let key = self.next_key(slot, node_id);
                    let epoch = self.shard.slots[slot].meta.epoch;
                    // Timers always fire on the arming node's own shard.
                    self.shard.wheel.schedule(
                        at,
                        key,
                        EvPayload {
                            kind: EvKind::Timer(node_id, token, guard, epoch),
                            pkt: None,
                        },
                    );
                }
            }
        }
    }
}

/// The conservative lookahead `L` in nanoseconds, counted from every
/// link: the minimum delay of the links whose endpoints live on
/// different shards (`u64::MAX` = none). Panics on a zero-delay
/// cross-shard link — the window would be empty and the run could never
/// make progress.
pub(crate) fn count_lookahead(sim: &Simulator) -> u64 {
    let mut min = u64::MAX;
    for src in 0..sim.loc.len() {
        for (_, link) in sim.slot(src).links.iter() {
            let dst = link.to().0;
            if sim.loc[src].shard != sim.loc[dst].shard {
                let d = link.delay();
                assert!(
                    d > Duration::ZERO,
                    "cross-shard link {src} -> {dst} has zero propagation delay; \
                     conservative lookahead would be zero (co-locate both endpoints \
                     in one region or give the link a positive delay)"
                );
                min = min.min(d.nanos());
            }
        }
    }
    min
}

/// The lookahead the next windows span. `connect_simplex` lowers the
/// cached value in place, so it is recounted from every link only after
/// an edit that cleared it: a region move, a reconfigured cross-shard
/// link, or a zero-delay cross-shard link (so that the panic names it).
pub(crate) fn ensure_lookahead(sim: &mut Simulator) -> Duration {
    if let Some(l) = sim.lookahead {
        return l;
    }
    let l = Duration::from_nanos(count_lookahead(sim));
    sim.lookahead = Some(l);
    l
}

/// Inclusive end of the window that opens at `t` (nanoseconds): just
/// before `t + L`, the earliest instant a cross-shard arrival sent inside
/// the window can land, capped at the call's limit.
fn window_end(t: u64, lookahead: u64, limit: Instant) -> Instant {
    let end = t.saturating_add(lookahead).saturating_sub(1);
    Instant::from_nanos(end.min(limit.nanos()))
}

/// Events one `run_until` call dispatches on the calling thread before its
/// remaining windows are worth threads of their own. Spawning and joining
/// a scoped thread measured 31 µs at the median (70–90 µs at p99) on a
/// 2-core x86-64 host, where an event costs 1–2.5 µs (the city and the
/// benchmark's two-shard metro), so the events a call runs before it
/// escalates cost about ten times what its threads will.
const ESCALATE_AFTER_EVENTS: u64 = 256;

/// Cores of this host, read once (the query costs tens of microseconds).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The driver: runs every pending event with `at <= limit` and moves the
/// simulator's clock to the last dispatched instant. Returns the number
/// of events processed.
///
/// Only *active* shards (those owning at least one node) take part — a
/// node-less shard can neither produce nor receive events, so `--shards 8`
/// on a two-region topology pays for two lanes, not eight, and a single
/// active shard is simply drained. Windows start on the calling thread
/// and move to a thread per lane after [`ESCALATE_AFTER_EVENTS`] events —
/// never, when the lanes outnumber the cores and the OS would serialize
/// them anyway: the event order is fixed by `(at, key)`, not by which
/// thread drains which lane, so the serial interleaving is byte-identical
/// to the threaded one.
pub(crate) fn run(sim: &mut Simulator, limit: Instant) -> u64 {
    run_with(sim, limit, None)
}

/// [`run`] with the hand-over point spelled out: `Some(u64::MAX)` keeps
/// the whole call on the calling thread, `Some(0)` runs it on threads
/// from the first window, `None` applies the rule above. A seam for the
/// tests that must reach each driver with small fixtures, not a knob.
pub(crate) fn run_with(sim: &mut Simulator, limit: Instant, escalate_after: Option<u64>) -> u64 {
    sim.ensure_placement();
    let escalate_after = escalate_after.unwrap_or(if sim.active.len() > cores() {
        u64::MAX
    } else {
        ESCALATE_AFTER_EVENTS
    });
    let lookahead = if sim.active.len() > 1 {
        ensure_lookahead(sim).nanos()
    } else {
        u64::MAX
    };
    let before = sim.events_processed();
    let start = sim.now;
    for &s in &sim.active {
        sim.shards[s].now = start;
    }
    let shared = Shared {
        loc: &sim.loc,
        faults: &sim.node_faults,
    };
    let active: &[usize] = &sim.active;
    match *active {
        [] => {}
        [s] => Lane {
            shard: &mut sim.shards[s],
            shared,
        }
        .drain_window(limit),
        _ => {
            let shards = &mut sim.shards;
            if run_windows_serial(shards, active, shared, lookahead, limit, escalate_after) {
                run_windows_threaded(shards, active, shared, lookahead, limit);
            }
        }
    }
    let last = active.iter().map(|&s| sim.shards[s].now).max();
    sim.now = sim.now.max(last.unwrap_or(start));
    sim.events_processed() - before
}

/// The windowed algorithm on the calling thread: drain every active
/// lane's window, exchange, repeat. Identical event order and per-shard
/// counters to the threaded driver (lanes share no state and the order is
/// key-derived), none of the barrier or spawn overhead. Returns `true` when
/// more windows are pending after `escalate_after` events were
/// dispatched — the point at which [`run_windows_threaded`] takes the
/// rest — and `false` when the call is finished.
fn run_windows_serial(
    shards: &mut [Shard],
    active: &[usize],
    shared: Shared<'_>,
    lookahead: u64,
    limit: Instant,
    escalate_after: u64,
) -> bool {
    let mut dispatched = 0u64;
    loop {
        let next = active.iter().map(|&s| shards[s].next_at());
        let t = next.min().unwrap_or(u64::MAX);
        if t == u64::MAX || t > limit.nanos() {
            return false;
        }
        if dispatched >= escalate_after {
            return true;
        }
        let until = window_end(t, lookahead, limit);
        for &s in active {
            let shard = &mut shards[s];
            let before = shard.ctr.events;
            Lane {
                shard: &mut *shard,
                shared,
            }
            .drain_window(until);
            shard.ctr.windows += 1;
            dispatched += shard.ctr.events - before;
        }
        // Exchange: every window's cross-shard arrivals land after the
        // window just drained.
        for &w in active {
            for &s in active {
                if w != s {
                    let mut cell = std::mem::take(&mut shards[w].outbox[s]);
                    shards[s].receive(&mut cell);
                    shards[w].outbox[s] = cell;
                }
            }
        }
    }
}

/// Lane-per-active-shard windows, synchronized with a spin barrier, from
/// wherever [`run_windows_serial`] left off. The calling thread drives
/// lane 0; a scoped thread per other lane drives the rest until the call
/// completes (see [`run_lanes`]).
fn run_windows_threaded(
    shards: &mut [Shard],
    active: &[usize],
    shared: Shared<'_>,
    lookahead: u64,
    limit: Instant,
) {
    let nsh = shards.len();
    let lanes: Vec<&mut Shard> = shards
        .iter_mut()
        .enumerate()
        .filter(|(s, _)| active.contains(s))
        .map(|(_, shard)| shard)
        .collect();
    let mailbox: Vec<Mutex<Vec<OutEntry>>> = (0..nsh * nsh).map(|_| Mutex::default()).collect();
    let cell = |i: usize| mailbox[i].lock().expect("a lane panicked in the exchange");
    let mins: Vec<AtomicU64> = (0..active.len())
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();

    run_lanes(lanes, |i, shard: &mut Shard, barrier| {
        let s = active[i];
        shard.ctr.threaded_runs += 1;
        loop {
            mins[i].store(shard.next_at(), Ordering::Release);
            if !barrier.wait() {
                return;
            }
            // Every lane computes the same `t`, so they all either enter
            // the window or leave the loop together.
            let t = mins
                .iter()
                .map(|m| m.load(Ordering::Acquire))
                .min()
                .expect("at least one shard");
            if t == u64::MAX || t > limit.nanos() {
                return;
            }
            Lane {
                shard: &mut *shard,
                shared,
            }
            .drain_window(window_end(t, lookahead, limit));
            shard.ctr.windows += 1;
            // Flush: hand each non-empty buffer to its (empty) mailbox
            // cell, getting that cell's spare capacity back.
            for (d, out) in shard.outbox.iter_mut().enumerate() {
                if !out.is_empty() {
                    std::mem::swap(out, &mut cell(s * nsh + d));
                }
            }
            if !barrier.wait() {
                return;
            }
            // Exchange: pull this shard's column. Each window's
            // cross-shard arrivals land after the window this lane just
            // drained. No third barrier: nobody can flush
            // into a cell again before passing the next window's first
            // barrier, which this lane only reaches after draining.
            for &w in active {
                shard.receive(&mut cell(w * nsh + s));
            }
        }
    });
}

/// Run `lane(i, lanes[i], barrier)` for every lane — lane 0 on the calling
/// thread, each other lane on a `std::thread::scope` thread spawned for
/// this call — with one [`SpinBarrier`] shared by all of them, and return
/// once every lane has. A panicking lane aborts the barrier, so the others
/// leave their loops at their next wait, and the first panic is resumed
/// on the caller with its own payload.
fn run_lanes<T: Send>(lanes: Vec<T>, lane: impl Fn(usize, T, &SpinBarrier) + Sync) {
    let barrier = SpinBarrier::new(lanes.len());
    let first_panic = Mutex::new(None);
    let guarded = |i: usize, t: T| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane(i, t, &barrier))) {
            barrier.abort();
            let mut first = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter().enumerate();
        let (_, first) = lanes.next().expect("at least one lane");
        for (i, t) in lanes {
            let guarded = &guarded;
            let spawned = std::thread::Builder::new().spawn_scoped(scope, move || guarded(i, t));
            if let Err(e) = spawned {
                // The lanes already running would wait at the barrier
                // forever, and the scope would wait for them.
                barrier.abort();
                panic!("cannot spawn a shard lane thread: {e}");
            }
        }
        guarded(0, first);
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
}

/// Sense-counting spin barrier; windows are hundreds of microseconds of
/// simulated work, so parking would dominate. A lane that panicked
/// aborts it: every wait then returns `false` at once, so the other
/// lanes leave their window loops instead of waiting forever.
struct SpinBarrier {
    count: AtomicUsize,
    gen: AtomicUsize,
    total: usize,
    aborted: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            total,
            aborted: AtomicBool::new(false),
        }
    }

    /// Wait until every lane arrived. `false` once a lane has panicked:
    /// the caller must leave its window loop.
    fn wait(&self) -> bool {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                if self.aborted.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    // A long tail in another lane: give the core back.
                    std::thread::yield_now();
                }
            }
        }
        !self.aborted.load(Ordering::Acquire)
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::traffic::Reflector;
    use crate::transport::PingAgent;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Logs every hook call before passing it on: the node's own dispatch
    /// order, which no sharding may change.
    struct Traced<N> {
        inner: N,
        log: Vec<(Instant, u64)>,
    }

    fn traced<N: Node>(inner: N) -> Box<Traced<N>> {
        Box::new(Traced {
            inner,
            log: Vec::new(),
        })
    }

    impl<N: Node> Node for Traced<N> {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            self.log.push((ctx.now(), pkt.id));
            self.inner.on_packet(ctx, port, pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.log.push((ctx.now(), token));
            self.inner.on_timer(ctx, token);
        }
    }

    /// What one run of the mesh leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// Per-node dispatch order, pings then reflectors.
        logs: Vec<Vec<(Instant, u64)>>,
        rtts: Vec<Vec<Duration>>,
        /// Per shard: events, arrivals, cross-shard sent and received,
        /// windows drained.
        by_shard: Vec<[u64; 5]>,
    }

    /// The mesh of `tests/prop.rs::sharded_exchange_matches_merged_wheel`
    /// (a ring of lossy, jittered cross-region ping pairs plus a
    /// zero-delay same-region pair per region, every kickoff at the same
    /// instant), run to idle by `drive`. Also returns how many lane runs
    /// went to threads.
    fn mesh(
        shards: usize,
        drive: impl Fn(&mut Simulator),
        (seed, regions): (u64, usize),
        cross_delays_us: &[u64],
        counts: &[u32],
        intervals_us: &[u64],
    ) -> (Outcome, u64) {
        let mut sim = Simulator::with_shards(seed, shards);
        let (mut pings, mut refls) = (Vec::new(), Vec::new());
        for r in 0..regions {
            let next = (r + 1) % regions;
            for (local, peer) in [(false, next), (true, r)] {
                let k = 2 * r + usize::from(local);
                let ping = sim.add_node_in_region(
                    traced(PingAgent::new(
                        Ipv4Addr::new(10, u8::from(local), r as u8, 1),
                        Ipv4Addr::new(10, u8::from(local), peer as u8, 2),
                        Duration::from_micros(intervals_us[k % intervals_us.len()]),
                        counts[k % counts.len()] as u64,
                    )),
                    r as u32,
                );
                let refl = sim.add_node_in_region(traced(Reflector::new()), peer as u32);
                let cfg = if local {
                    LinkConfig::delay_only(Duration::ZERO)
                } else {
                    let delay = cross_delays_us[r % cross_delays_us.len()];
                    LinkConfig::delay_only(Duration::from_micros(delay))
                        .with_jitter(Duration::from_micros(500))
                        .with_loss(0.05)
                };
                sim.connect((ping, 0), (refl, 0), cfg);
                pings.push(ping);
                refls.push(refl);
            }
        }
        for &p in &pings {
            sim.schedule_timer(p, Instant::ZERO, PingAgent::KICKOFF);
        }
        drive(&mut sim);
        let mut logs: Vec<_> = pings
            .iter()
            .map(|&p| sim.node_ref::<Traced<PingAgent>>(p).log.clone())
            .collect();
        logs.extend(
            refls
                .iter()
                .map(|&n| sim.node_ref::<Traced<Reflector>>(n).log.clone()),
        );
        let outcome = Outcome {
            logs,
            rtts: pings
                .iter()
                .map(|&p| sim.node_ref::<Traced<PingAgent>>(p).inner.rtts().to_vec())
                .collect(),
            by_shard: sim
                .shards
                .iter()
                .map(|s| &s.ctr)
                .map(|c| [c.events, c.arrivals, c.xsent, c.xrecv, c.windows])
                .collect(),
        };
        (
            outcome,
            sim.shards.iter().map(|s| s.ctr.threaded_runs).sum(),
        )
    }

    proptest! {
        /// The three shapes a multi-lane call can take — all windows on
        /// the calling thread, all on threads, hand-over in mid-call —
        /// dispatch every node's events in the merged wheel's order, agree
        /// on every per-shard counter, and lose nothing in the exchange.
        /// (Outside this test small fixtures never leave the calling
        /// thread, so this is what keeps the threaded driver covered.)
        #[test]
        fn every_driver_shape_matches_the_merged_wheel(
            seed in any::<u64>(),
            regions in 2usize..=4,
            cross_delays_us in prop::collection::vec(1u64..100_000, 4),
            counts in prop::collection::vec(1u32..12, 8),
            intervals_us in prop::collection::vec(1u64..100_000, 8),
        ) {
            let run = |shards: usize, escalate_after: Option<u64>| {
                mesh(
                    shards,
                    |sim| match escalate_after {
                        None => drop(sim.run_until_idle()),
                        Some(n) => drop(run_with(sim, Instant::MAX, Some(n))),
                    },
                    (seed, regions),
                    &cross_delays_us,
                    &counts,
                    &intervals_us,
                )
            };
            let (merged, _) = run(1, None);
            let events: u64 = merged.by_shard.iter().map(|c| c[0]).sum();
            for shards in [2, regions, 8] {
                let (serial, serial_threaded) = run(shards, Some(u64::MAX));
                prop_assert_eq!(&serial.logs, &merged.logs, "shards={}", shards);
                prop_assert_eq!(&serial.rtts, &merged.rtts, "shards={}", shards);
                prop_assert_eq!(serial.by_shard.iter().map(|c| c[0]).sum::<u64>(), events);
                let (sent, received) = serial
                    .by_shard
                    .iter()
                    .fold((0, 0), |(s, r), c| (s + c[2], r + c[3]));
                prop_assert_eq!(sent, received, "shards={} exchange lost events", shards);
                prop_assert!(sent > 0 && serial.by_shard.iter().all(|c| c[4] > 0 || c[0] == 0));
                prop_assert_eq!(serial_threaded, 0);

                let lanes = serial.by_shard.iter().filter(|c| c[0] > 0).count() as u64;
                let (threaded, threaded_runs) = run(shards, Some(0));
                prop_assert_eq!(&threaded, &serial, "shards={} threaded", shards);
                prop_assert_eq!(threaded_runs, lanes, "every lane ran threaded");

                let (handed_over, runs) = run(shards, Some(8));
                prop_assert_eq!(&handed_over, &serial, "shards={} hand-over", shards);
                prop_assert!(runs == 0 || runs == lanes);
            }
        }
    }

    /// Panics when its timer fires.
    struct Bomb;

    impl Node for Bomb {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {
            panic!("bomb went off");
        }
    }

    /// Runs a two-shard ping mesh whose node on shard `bomb_shard` panics
    /// at 5 ms, threaded from the first window, on a thread of its own:
    /// the panic must reach the caller of `run_with` rather than leave
    /// the other lane waiting at a barrier (and the caller waiting for
    /// it) forever.
    fn lane_panic_reaches_the_caller(bomb_shard: u32) {
        let (tx, rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            let mut sim = Simulator::with_shards(1, 2);
            let ping = sim.add_node_in_region(
                Box::new(PingAgent::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 1, 2),
                    Duration::from_millis(1),
                    20,
                )),
                0,
            );
            let refl = sim.add_node_in_region(Box::new(Reflector::new()), 1);
            sim.connect(
                (ping, 0),
                (refl, 0),
                LinkConfig::delay_only(Duration::from_millis(1)),
            );
            let bomb = sim.add_node_in_region(Box::new(Bomb), 1);
            // The heavier region takes shard 0.
            sim.set_region_weight_bias(1 - bomb_shard, 10);
            sim.ensure_placement();
            assert_eq!(sim.loc[bomb].shard, bomb_shard);
            sim.schedule_timer(ping, Instant::ZERO, PingAgent::KICKOFF);
            sim.schedule_timer(bomb, Instant::from_millis(5), 0);
            let run = std::panic::AssertUnwindSafe(|| run_with(&mut sim, Instant::MAX, Some(0)));
            let msg = std::panic::catch_unwind(run)
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            tx.send(msg).expect("test thread waits");
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the threaded run neither returned nor panicked in time");
        driver.join().expect("the run thread caught the panic");
        assert_eq!(msg.as_deref(), Some("bomb went off"));
    }

    #[test]
    fn a_worker_lane_panic_reaches_the_caller() {
        lane_panic_reaches_the_caller(1);
    }

    #[test]
    fn a_lane_zero_panic_reaches_the_caller() {
        lane_panic_reaches_the_caller(0);
    }

    /// Three lanes pass ten thousand generations of one barrier, each
    /// counting its arrival just before every wait. Whoever leaves
    /// generation `g` must find all three arrivals of `g` counted (nobody
    /// passed early) and none beyond the two other lanes' next ones (the
    /// generations never ran ahead of a lane still inside one).
    #[test]
    fn spin_barrier_never_lets_a_lane_pass_early() {
        const LANES: usize = 3;
        const GENERATIONS: usize = 10_000;
        let barrier = SpinBarrier::new(LANES);
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..LANES {
                scope.spawn(|| {
                    for g in 1..=GENERATIONS {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        assert!(barrier.wait(), "another lane saw a violation");
                        let a = arrived.load(Ordering::SeqCst);
                        if !(LANES * g..LANES * (g + 1)).contains(&a) {
                            // Release the other lanes so the test fails
                            // instead of hanging.
                            barrier.abort();
                            panic!("left generation {g} with {a} arrivals counted");
                        }
                    }
                });
            }
        });
        assert_eq!(arrived.into_inner(), LANES * GENERATIONS);
    }

    /// Once aborted, a barrier releases the lanes already waiting on it
    /// with `false`, and every later wait returns `false` too, whether it
    /// completes a generation or would have had to wait for one.
    #[test]
    fn an_aborted_barrier_releases_every_current_and_later_wait() {
        let barrier = SpinBarrier::new(3);
        std::thread::scope(|scope| {
            let waiting: Vec<_> = (0..2).map(|_| scope.spawn(|| barrier.wait())).collect();
            // Both lanes are inside `wait` once both arrivals are counted.
            while barrier.count.load(Ordering::Acquire) < 2 {
                std::hint::spin_loop();
            }
            barrier.abort();
            for lane in waiting {
                assert!(!lane.join().expect("a waiting lane returned"));
            }
        });
        // The third arrival completes the generation, the next would wait.
        assert!(!barrier.wait());
        assert!(!barrier.wait());
    }
}
