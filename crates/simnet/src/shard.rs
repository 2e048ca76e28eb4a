//! Sharded execution of the event loop: serial fast path and the
//! conservative-lookahead windowed driver, serial first, threaded once a
//! call has earned it.
//!
//! # Execution model
//!
//! The topology is partitioned by node region into `N` shards, each owning
//! an event wheel, the nodes assigned to it and every link *leaving* those
//! nodes. The parallel driver repeatedly:
//!
//! 1. finds `m_u`, the earliest pending event instant of every shard `u`
//!    (and their minimum `T`, which decides termination);
//! 2. lets every shard `s` independently drain its window
//!    `[T, min_u(m_u + D⁺[u][s]))`, where `D⁺[u][s]` is the minimum delay
//!    of any ≥1-link cross-shard path from `u` to `s` (Floyd–Warshall
//!    closure over per-pair direct link minima, cycles back to `s`
//!    included) — jitter, serialization, same-shard forwarding legs and
//!    injected-fault extras only ever *add* delay, so no event another
//!    shard has yet to process can land inside the window. With adaptive
//!    lookahead disabled the bound degenerates to the classic
//!    `[T, T + L)` where `L` is the global minimum cross-shard delay;
//! 3. exchanges the buffered cross-shard arrivals (each was scheduled
//!    strictly after the destination's window) into the destination
//!    wheels, then loops.
//!
//! Which thread drains which lane is invisible in the output (see
//! *Determinism*), so every call starts its windows on the calling thread
//! and only hands the remaining ones to a thread per lane — at a window
//! boundary — once it has dispatched [`ESCALATE_AFTER_EVENTS`] events, and
//! never when the lanes outnumber the cores. A harness that polls in
//! thousands of small `run_until` steps therefore pays per call for the
//! events in the call and nothing else: the placement, the lookahead
//! matrix, the active-shard list and the outbox cells are simulator state
//! kept current by the edits that change them, not recomputed here. The
//! worker threads live in a persistent [`ShardPool`] owned by the
//! simulator: spawned by the first call that escalates, parked between
//! calls (waking them costs a few hundred events' worth of time, which is
//! what the threshold is sized from), joined on drop.
//!
//! # Determinism
//!
//! Within a window, shards interleave arbitrarily — but they share no
//! mutable state: nodes, per-node RNG/counters and outgoing links are
//! owned by exactly one shard, and event tie-break keys, RNG streams and
//! packet ids are all content-derived (see [`crate::sim::EvKey`]). The
//! wheel pops in `(at, key)` order regardless of insertion order, so the
//! exchange needs no sorting. The result: every observable outcome is
//! byte-identical to the `N = 1` serial run.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe`: worker threads
//! index into shared slices ([`SlicePtr`]) under the partition discipline
//! that thread `s` only ever touches elements whose shard is `s` (nodes,
//! links, per-node meta) or slots reserved for it (its wheel, its
//! counters, its outbox row / inbox column). Windows are separated by
//! barriers, so accesses to an element from different phases never race.

#![allow(unsafe_code)]

use crate::fault::NodeOutageSet;
use crate::sim::{
    Action, Ctx, EvKey, EvKind, EvPayload, NodeId, NodeMeta, ShardCounters, Simulator,
};
use crate::time::{Duration, Instant};
use crate::wheel::TimerWheel;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// A raw view over a `&mut [T]` that can be shared across worker threads.
/// `get_mut` hands out `&mut T` to disjoint elements; callers uphold the
/// partition discipline documented on the module.
pub(crate) struct SlicePtr<'a, T> {
    ptr: *mut T,
    len: usize,
    _pd: PhantomData<&'a mut [T]>,
}

impl<'a, T> SlicePtr<'a, T> {
    fn new(s: &'a mut [T]) -> SlicePtr<'a, T> {
        SlicePtr {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _pd: PhantomData,
        }
    }

    /// # Safety
    /// The caller must guarantee no other live reference to element `i`
    /// (each element is owned by exactly one shard/phase at a time).
    #[inline]
    unsafe fn get_mut(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

impl<T> Clone for SlicePtr<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<'_, T> {}
// Safety: SlicePtr is only a capability to reach elements; the partition
// discipline (one shard per element) provides the actual exclusion.
unsafe impl<T: Send> Send for SlicePtr<'_, T> {}
unsafe impl<T: Send> Sync for SlicePtr<'_, T> {}

/// Sense-counting spin barrier; windows are hundreds of microseconds of
/// simulated work, so parking would dominate.
struct SpinBarrier {
    count: AtomicUsize,
    gen: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                spins += 1;
                if spins < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    // More shards than cores, or a long tail: be polite.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Type-erased pointer to one parallel run's per-lane closure. The
/// borrowed closure is only reachable between a job's publication and the
/// dispatcher's completion wait, which is what makes the `'static` erasure
/// sound (see [`ShardPool::run`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));
// Safety: the pointee is `Sync` (shared by every worker) and the pointer
// is only dereferenced while the dispatching thread keeps it alive.
unsafe impl Send for Job {}

/// Generation-stamped job slot shared between the dispatcher and the
/// parked workers.
struct PoolState {
    /// Bumped once per published job; a worker runs each generation once.
    gen: u64,
    /// Workers participating in the current generation (lanes `1..=n`).
    participants: usize,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Participants that finished the current job.
    done: Mutex<usize>,
    done_cv: Condvar,
}

/// The persistent shard worker pool: threads are spawned once per
/// simulator (grown lazily if later runs activate more shards), parked on
/// a condvar between `run_until` calls, and joined when the simulator is
/// dropped. Cheaper than a `std::thread::scope` spawn per call, but not
/// free: a wake-up and re-park measured 40–220 µs, which is why a call
/// only comes here after [`ESCALATE_AFTER_EVENTS`].
pub(crate) struct ShardPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    pub(crate) fn new() -> ShardPool {
        ShardPool {
            shared: std::sync::Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    gen: 0,
                    participants: 0,
                    job: None,
                    shutdown: false,
                }),
                wake: Condvar::new(),
                done: Mutex::new(0),
                done_cv: Condvar::new(),
            }),
            handles: Vec::new(),
        }
    }

    /// Number of worker threads currently alive (excluding the caller).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    fn ensure_workers(&mut self, n: usize) {
        while self.handles.len() < n {
            let idx = self.handles.len();
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("acacia-shard-{}", idx + 1))
                .spawn(move || worker_loop(&shared, idx))
                .expect("spawn shard pool worker");
            self.handles.push(handle);
        }
    }

    /// Run `f(lane)` for every lane in `0..nlanes`: lane 0 on the calling
    /// thread, the rest on pool workers. Blocks until every lane returned
    /// — including on unwind, so borrows captured by `f` stay valid for
    /// the workers' whole execution (the scoped-spawn guarantee, without
    /// the per-call spawn).
    pub(crate) fn run(&mut self, nlanes: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = nlanes.saturating_sub(1);
        if workers == 0 {
            f(0);
            return;
        }
        self.ensure_workers(workers);
        // Safety: erasing the closure's lifetime is sound because
        // `DoneGuard` (dropped even on unwind) blocks until every
        // participant finished with the pointer.
        let f_static: &'static (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        let job = Job(f_static);
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.gen += 1;
            st.participants = workers;
            st.job = Some(job);
        }
        self.shared.wake.notify_all();
        let guard = DoneGuard {
            shared: &self.shared,
            workers,
        };
        f(0);
        drop(guard);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocks until every participant of the current generation reported
/// done, then resets the counter. Lives in a drop guard so the dispatcher
/// waits even when lane 0 panics — unwinding past the borrowed job
/// context while workers still use it would be undefined behaviour.
struct DoneGuard<'a> {
    shared: &'a PoolShared,
    workers: usize,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let mut done = self.shared.done.lock().expect("pool done");
        while *done < self.workers {
            done = self.shared.done_cv.wait(done).expect("pool done");
        }
        *done = 0;
    }
}

/// Body of a parked pool worker: wait for a new generation, run the job
/// for lane `idx + 1` if this worker participates, report done, re-park.
fn worker_loop(shared: &PoolShared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let (job, participants) = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.gen != seen {
                    seen = st.gen;
                    break (st.job.expect("published job"), st.participants);
                }
                st = shared.wake.wait(st).expect("pool state");
            }
        };
        if idx < participants {
            // Safety: the dispatcher blocks (DoneGuard) until this
            // worker's `done` report below, keeping the closure and its
            // borrows alive.
            let f = unsafe { &*job.0 };
            f(idx + 1);
            let mut done = shared.done.lock().expect("pool done");
            *done += 1;
            shared.done_cv.notify_one();
        }
    }
}

/// A buffered cross-shard arrival awaiting the window exchange.
pub(crate) struct OutEntry {
    at: Instant,
    key: EvKey,
    payload: EvPayload,
}

/// Write handle into the flat `owner × dst` outbox matrix for one owner.
struct Outbox<'a> {
    cells: SlicePtr<'a, Vec<OutEntry>>,
    base: usize,
}

impl Outbox<'_> {
    #[inline]
    fn push(&mut self, dst: usize, e: OutEntry) {
        // Safety: cell `base + dst` belongs to this owner row; only the
        // owning worker writes it during a drain phase.
        unsafe { self.cells.get_mut(self.base + dst) }.push(e);
    }
}

/// One shard's execution lane: everything needed to pop, dispatch and
/// apply events for the nodes of one shard.
struct Lane<'a> {
    shard: u32,
    nodes: SlicePtr<'a, Option<Box<dyn crate::sim::Node>>>,
    links: SlicePtr<'a, Vec<crate::sim::PortSlot>>,
    meta: SlicePtr<'a, NodeMeta>,
    shard_of: &'a [u32],
    /// Compiled node outage schedules (read-only during a run; empty when
    /// no node-fault plan is attached). Per-node progress lives in
    /// [`NodeMeta`], which this lane owns for its shard's nodes.
    faults: &'a [NodeOutageSet],
    queue: &'a mut TimerWheel<EvPayload, EvKey>,
    ctr: &'a mut ShardCounters,
    outbox: Option<Outbox<'a>>,
    scratch: Vec<Action>,
    now: Instant,
}

impl Lane<'_> {
    /// Process every pending event with `at <= until` (including chains of
    /// events the processing itself schedules inside the window).
    fn drain_window(&mut self, until: Instant) {
        while let Some((at, _)) = self.queue.peek_key() {
            if at > until {
                break;
            }
            let (at, _, payload) = self.queue.pop().expect("peeked event vanished");
            self.dispatch(at, payload);
        }
    }

    fn dispatch(&mut self, at: Instant, ev: EvPayload) {
        assert!(at >= self.now, "event scheduled in the past");
        self.now = at;
        self.ctr.last_at = at;
        self.ctr.events += 1;
        let node_id = ev.node();
        debug_assert_eq!(
            self.shard_of[node_id], self.shard,
            "event routed to the wrong shard"
        );
        // Cancelled guard timers die here, before the node is touched.
        if let EvKind::Timer(_, _, Some(guard), _) = ev.kind {
            // Safety: node (and its meta) belongs to this shard.
            let m = unsafe { self.meta.get_mut(node_id) };
            if !m.timers.invalidate(guard) {
                self.ctr.timer_skipped += 1;
                return;
            }
        }
        // Node-lifecycle faults: a down node rejects the event; a
        // completed crash-restart erases the node's state first.
        let mut tx_blocked = false;
        if !self.faults.is_empty()
            && self
                .faults
                .get(node_id)
                .is_some_and(|s| !s.windows.is_empty())
        {
            match self.fault_gate(node_id, at, &ev.kind) {
                FaultGate::Reject => return,
                FaultGate::DeliverTxBlocked => tx_blocked = true,
                FaultGate::Deliver => {}
            }
        }
        // Safety: node belongs to this shard; it is taken out for the
        // duration of the hook so re-entry panics.
        let slot = unsafe { self.nodes.get_mut(node_id) };
        let mut node = slot
            .take()
            .unwrap_or_else(|| panic!("node {node_id} re-entered during dispatch"));
        let mut actions = std::mem::take(&mut self.scratch);
        {
            // Safety: meta belongs to this shard; the node itself was moved
            // out above so no aliasing with the hook's `&mut self`.
            let m = unsafe { self.meta.get_mut(node_id) };
            let mut ctx = Ctx {
                now: at,
                node: node_id,
                actions: &mut actions,
                rng: &mut m.rng,
                next_pkt_id: &mut m.pkt_ctr,
                timers: &mut m.timers,
            };
            match ev.kind {
                EvKind::Arrive(_, port) => {
                    self.ctr.arrivals += 1;
                    let pkt = ev.pkt.expect("arrival without a packet");
                    node.on_packet(&mut ctx, port, pkt);
                }
                EvKind::Timer(_, token, _, _) => node.on_timer(&mut ctx, token),
            }
        }
        // Safety: same element as above; the previous borrow ended.
        *unsafe { self.nodes.get_mut(node_id) } = Some(node);
        self.apply_actions(node_id, &mut actions, tx_blocked);
        self.scratch = actions;
    }

    /// Decide whether an event for a fault-targeted node is delivered. Lazily
    /// advances the node through its outage schedule: a crash-restart window
    /// that has fully passed erases the node's state (and bumps its timer
    /// epoch) before anything else reaches it. All decisions depend only on
    /// the event's own `(node, at, kind)` — never on other shards — so the
    /// outcome is identical at every shard count.
    fn fault_gate(&mut self, node_id: NodeId, at: Instant, kind: &EvKind) -> FaultGate {
        let windows = &self.faults[node_id].windows;
        // Safety: the node's meta belongs to this shard.
        let m = unsafe { self.meta.get_mut(node_id) };
        // Complete every window that has fully passed.
        while (m.fault_pos as usize) < windows.len() && windows[m.fault_pos as usize].until <= at {
            let w = windows[m.fault_pos as usize];
            m.fault_pos += 1;
            if w.erase {
                m.epoch = m.epoch.wrapping_add(1);
                self.ctr.node_restarts += 1;
                // Safety: node belongs to this shard; it is taken out for
                // the duration of the restart hook only.
                let slot = unsafe { self.nodes.get_mut(node_id) };
                let mut node = slot
                    .take()
                    .unwrap_or_else(|| panic!("node {node_id} re-entered during restart"));
                node.on_restart();
                *unsafe { self.nodes.get_mut(node_id) } = Some(node);
            }
        }
        let in_window = windows
            .get(m.fault_pos as usize)
            .copied()
            .filter(|w| w.from <= at);
        if let Some(w) = in_window {
            debug_assert!(at < w.until);
            if w.erase {
                // Crashed: nothing reaches the node, timers included.
                match kind {
                    EvKind::Arrive(..) => self.ctr.node_rejected += 1,
                    EvKind::Timer(..) => self.ctr.node_timer_dropped += 1,
                }
                return FaultGate::Reject;
            }
            // Partitioned: deliveries bounce; timers still fire below, but
            // whatever they send is discarded.
            if matches!(kind, EvKind::Arrive(..)) {
                self.ctr.node_rejected += 1;
                return FaultGate::Reject;
            }
        }
        // A timer armed before the node's last crash-restart never fires.
        if let EvKind::Timer(_, _, _, armed_epoch) = *kind {
            if armed_epoch != m.epoch {
                self.ctr.node_timer_dropped += 1;
                return FaultGate::Reject;
            }
        }
        if in_window.is_some() {
            FaultGate::DeliverTxBlocked
        } else {
            FaultGate::Deliver
        }
    }

    /// Content-derived key for the next event emitted by `src`.
    #[inline]
    fn next_key(&mut self, src: NodeId) -> EvKey {
        // Safety: src is the node just dispatched on this shard.
        let m = unsafe { self.meta.get_mut(src) };
        let ctr = m.ev_ctr;
        m.ev_ctr += 1;
        EvKey::new(src as u32, ctr)
    }

    fn push_arrival(&mut self, src: NodeId, at: Instant, dest: (NodeId, usize), pkt: Packet) {
        let key = self.next_key(src);
        let payload = EvPayload {
            kind: EvKind::Arrive(dest.0, dest.1),
            pkt: Some(pkt),
        };
        let dst_shard = self.shard_of[dest.0];
        if dst_shard == self.shard {
            self.queue.schedule(at, key, payload);
        } else {
            self.ctr.xsent += 1;
            self.outbox
                .as_mut()
                .expect("cross-shard arrival without an outbox")
                .push(dst_shard as usize, OutEntry { at, key, payload });
        }
    }

    fn apply_actions(&mut self, node_id: NodeId, actions: &mut Vec<Action>, tx_blocked: bool) {
        for action in actions.drain(..) {
            match action {
                Action::Send { port, pkt } => {
                    if tx_blocked {
                        // The emitting node is partitioned: its timers run
                        // but nothing it sends reaches the network.
                        self.ctr.node_tx_dropped += 1;
                        drop(pkt);
                        continue;
                    }
                    let now = self.now;
                    // Safety: the link table row of the dispatched node
                    // belongs to this shard (links are owned by their
                    // source endpoint).
                    let ports = unsafe { self.links.get_mut(node_id) };
                    let Some(link) = ports.get_mut(port).and_then(Option::as_deref_mut) else {
                        self.ctr.unrouted += 1;
                        continue;
                    };
                    let dest = link.to();
                    let deliveries = link.transmit(now, &pkt);
                    match (deliveries.primary, deliveries.duplicate) {
                        (Some(at), None) => self.push_arrival(node_id, at, dest, pkt),
                        (Some(at), Some(dup_at)) => {
                            // Payloads are shared buffers, so the duplicate
                            // is a header-only copy.
                            self.push_arrival(node_id, at, dest, pkt.clone());
                            self.push_arrival(node_id, dup_at, dest, pkt);
                        }
                        // Primary dropped: the duplicate takes the original
                        // packet, no clone needed.
                        (None, Some(dup_at)) => self.push_arrival(node_id, dup_at, dest, pkt),
                        (None, None) => {}
                    }
                }
                Action::Timer { at, token, guard } => {
                    let at = at.max(self.now);
                    let key = self.next_key(node_id);
                    // Safety: the arming node's meta belongs to this shard.
                    let epoch = unsafe { self.meta.get_mut(node_id) }.epoch;
                    // Timers always fire on the arming node's own shard.
                    self.queue.schedule(
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

use crate::packet::Packet;

/// Verdict of [`Lane::fault_gate`] for one event.
enum FaultGate {
    /// Deliver normally.
    Deliver,
    /// Deliver (a partitioned node's timer), but discard its sends.
    DeliverTxBlocked,
    /// Drop the event; counters were already updated.
    Reject,
}

/// Serial driver: one lane over the whole simulator. Runs every pending
/// event with `at <= limit`; leaves `sim.now` at the last dispatched
/// instant. Returns the number of events processed.
pub(crate) fn run_serial(sim: &mut Simulator, limit: Instant) -> u64 {
    let scratch = std::mem::take(&mut sim.scratch);
    let before = sim.counters[0].events;
    let mut lane = Lane {
        shard: 0,
        nodes: SlicePtr::new(&mut sim.nodes),
        links: SlicePtr::new(&mut sim.links),
        meta: SlicePtr::new(&mut sim.meta),
        shard_of: &sim.shard_of,
        faults: &sim.node_faults,
        queue: &mut sim.queues[0],
        ctr: &mut sim.counters[0],
        outbox: None,
        scratch,
        now: sim.now,
    };
    lane.drain_window(limit);
    let now = lane.now;
    let scratch = std::mem::take(&mut lane.scratch);
    drop(lane);
    sim.scratch = scratch;
    sim.now = now;
    sim.counters[0].events - before
}

/// Minimum delay of the links running directly from each shard to each
/// other shard, counted from every link (row-major `nsh × nsh`,
/// nanoseconds, `u64::MAX` = none). Panics on a zero-delay cross-shard
/// link — the window would be empty and the run could never make progress.
fn count_direct(sim: &Simulator) -> Vec<u64> {
    let nsh = sim.shards();
    let mut direct = vec![u64::MAX; nsh * nsh];
    for (src, ports) in sim.links.iter().enumerate() {
        for link in ports.iter().flatten() {
            let dst = link.to().0;
            let (su, sv) = (sim.shard_of[src] as usize, sim.shard_of[dst] as usize);
            if su != sv {
                let d = link.delay();
                assert!(
                    d > Duration::ZERO,
                    "cross-shard link {src} -> {dst} has zero propagation delay; \
                     conservative lookahead would be zero (co-locate both endpoints \
                     in one region or give the link a positive delay)"
                );
                let cell = &mut direct[su * nsh + sv];
                *cell = (*cell).min(d.nanos());
            }
        }
    }
    direct
}

/// Floyd–Warshall closure of the direct minima, in place: an event
/// processed on shard `u` can only affect shard `s` through a chain of
/// cross-shard hops (same-shard forwarding legs in between only add
/// delay), so the tightest sound bound per pair is the shortest ≥1-hop
/// path, not just the direct link minimum. The diagonal ends up holding
/// the minimum cycle delay back to a shard.
fn close_paths(pair: &mut [u64], nsh: usize) {
    for k in 0..nsh {
        for i in 0..nsh {
            let dik = pair[i * nsh + k];
            if dik == u64::MAX {
                continue;
            }
            for j in 0..nsh {
                let dkj = pair[k * nsh + j];
                if dkj == u64::MAX {
                    continue;
                }
                let via = dik.saturating_add(dkj);
                let cell = &mut pair[i * nsh + j];
                if via < *cell {
                    *cell = via;
                }
            }
        }
    }
}

/// The conservative lookahead — the global minimum propagation delay over
/// links whose endpoints live on different shards — with the per-shard-pair
/// matrix `D⁺` of minimum ≥1-link cross-shard path delays brought up to
/// date beside it. The direct minima are simulator state that
/// `connect_simplex` lowers in place, so the usual refresh is the `nsh³`
/// closure alone; every link is recounted only after a region moved or a
/// cross-shard link was reconfigured, and when a direct minimum reads zero,
/// so that the panic names the offending link.
pub(crate) fn ensure_lookahead(sim: &mut Simulator) -> Duration {
    if let Some(l) = sim.lookahead {
        return l;
    }
    if sim.look_rescan || sim.pair_direct.contains(&0) {
        sim.pair_direct = count_direct(sim);
        sim.look_rescan = false;
    }
    let nsh = sim.shards();
    sim.pair_look.clone_from(&sim.pair_direct);
    close_paths(&mut sim.pair_look, nsh);
    let min = sim.pair_direct.iter().copied().min().unwrap_or(u64::MAX);
    let look = Duration::from_nanos(min);
    sim.lookahead = Some(look);
    look
}

/// The pair matrix counted from every link, ignoring the incremental
/// state: the oracle the cache property tests compare against.
#[cfg(test)]
pub(crate) fn recount_pair_lookahead(sim: &Simulator) -> Vec<u64> {
    let mut pair = count_direct(sim);
    close_paths(&mut pair, sim.shards());
    pair
}

/// What bounds every window of one `run_until` call.
#[derive(Clone, Copy)]
struct Windows<'a> {
    /// Global minimum cross-shard delay, nanoseconds.
    look: u64,
    /// The per-pair matrix `D⁺` (row-major `nsh × nsh`) when adaptive
    /// lookahead is on.
    pair: Option<&'a [u64]>,
    nsh: usize,
    /// The call's limit, nanoseconds.
    limit_n: u64,
}

impl Windows<'_> {
    /// Inclusive window end for the lane of shard `s`, given every active
    /// lane's earliest pending instant (`m(j)`, `u64::MAX` = idle) and the
    /// round's global minimum `t`.
    ///
    /// Adaptive (`pair = Some`): shard `s` may run until just before the
    /// earliest instant any other shard's pending work could reach it,
    /// `min_u(m_u + D⁺[u][s]) - 1`. Every term is `≥ t + min_delay`, so the
    /// bound never regresses below the classic global window and the shard
    /// holding `t` always makes progress. Non-adaptive (`pair = None`): the
    /// classic global bound `t + look - 1`. Both are capped at the limit.
    fn until(&self, s: usize, active: &[usize], m: impl Fn(usize) -> u64, t: u64) -> Instant {
        let until = match self.pair {
            None => t.saturating_add(self.look.saturating_sub(1)),
            Some(pair) => {
                let mut bound = u64::MAX;
                for (j, &u) in active.iter().enumerate() {
                    let (mj, d) = (m(j), pair[u * self.nsh + s]);
                    if mj != u64::MAX && d != u64::MAX {
                        bound = bound.min(mj.saturating_add(d));
                    }
                }
                bound.saturating_sub(1)
            }
        };
        Instant::from_nanos(until.min(self.limit_n))
    }
}

/// Shared raw views over the simulator's partitioned state: everything a
/// shard driver needs to build its [`Lane`] on demand.
struct LaneParts<'a> {
    nodes: SlicePtr<'a, Option<Box<dyn crate::sim::Node>>>,
    links: SlicePtr<'a, Vec<crate::sim::PortSlot>>,
    meta: SlicePtr<'a, NodeMeta>,
    shard_of: &'a [u32],
    faults: &'a [NodeOutageSet],
    queues: SlicePtr<'a, TimerWheel<EvPayload, EvKey>>,
    counters: SlicePtr<'a, ShardCounters>,
    out: SlicePtr<'a, Vec<OutEntry>>,
    nsh: usize,
}

impl<'a> LaneParts<'a> {
    /// # Safety
    /// The caller must be shard `s`'s current (sole) driver: wheel `s`,
    /// counters `s` and outbox row `s` must not be aliased elsewhere.
    unsafe fn lane(self, s: usize, scratch: Vec<Action>, now: Instant) -> Lane<'a> {
        Lane {
            shard: s as u32,
            nodes: self.nodes,
            links: self.links,
            meta: self.meta,
            shard_of: self.shard_of,
            faults: self.faults,
            queue: self.queues.get_mut(s),
            ctr: self.counters.get_mut(s),
            outbox: Some(Outbox {
                cells: self.out,
                base: s * self.nsh,
            }),
            scratch,
            now,
        }
    }
}

impl<'a> Clone for LaneParts<'a> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a> Copy for LaneParts<'a> {}

/// Events one `run_until` call dispatches on the calling thread before its
/// remaining windows are worth a pool wake-up: waking and re-parking the
/// workers costs about as much as dispatching two hundred events, so a
/// call with less work than that is faster without them.
const ESCALATE_AFTER_EVENTS: u64 = 256;

/// Cores of this host, read once (the query costs tens of microseconds).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parallel driver: conservative-lookahead windows over the shards that
/// own nodes. Runs every pending event with `at <= limit`; results are
/// byte-identical to [`run_serial`] at any shard count. Returns the
/// number of events processed.
///
/// Only *active* shards (those owning at least one node) take part in
/// the window protocol — a node-less shard can neither produce nor
/// receive events, so `--shards 8` on a two-region topology pays for
/// two lanes, not eight. The windows start on the calling thread and move
/// to a thread per lane after [`ESCALATE_AFTER_EVENTS`] events — never,
/// when the lanes outnumber the cores and the OS would serialize them
/// anyway: the event order is fixed by `(at, key)`, not by which thread
/// drains which lane, so the serial interleaving is byte-identical to the
/// threaded one.
pub(crate) fn run_parallel(sim: &mut Simulator, limit: Instant) -> u64 {
    sim.ensure_placement();
    let escalate_after = if sim.active.len() > cores() {
        u64::MAX
    } else {
        ESCALATE_AFTER_EVENTS
    };
    run_parallel_with(sim, limit, escalate_after)
}

/// [`run_parallel`] with the hand-over point spelled out: `u64::MAX` keeps
/// the whole call on the calling thread, `0` runs it on the pool from the
/// first window. A seam for the tests that must reach each driver with
/// small fixtures, not a knob.
pub(crate) fn run_parallel_with(sim: &mut Simulator, limit: Instant, escalate_after: u64) -> u64 {
    sim.ensure_placement();
    let look = ensure_lookahead(sim).nanos();
    let before: u64 = sim.counters.iter().map(|c| c.events).sum();
    let start_now = sim.now;

    let nsh = sim.shards();
    let active: &[usize] = &sim.active;
    let windows = Windows {
        look,
        pair: sim.adaptive.then_some(sim.pair_look.as_slice()),
        nsh,
        limit_n: limit.nanos(),
    };
    let parts = LaneParts {
        nodes: SlicePtr::new(&mut sim.nodes),
        links: SlicePtr::new(&mut sim.links),
        meta: SlicePtr::new(&mut sim.meta),
        shard_of: &sim.shard_of,
        faults: &sim.node_faults,
        queues: SlicePtr::new(&mut sim.queues),
        counters: SlicePtr::new(&mut sim.counters),
        out: SlicePtr::new(&mut sim.outcells),
        nsh,
    };

    if let [s] = *active {
        // All nodes on one shard: no cross-shard traffic is possible, so
        // the window machinery degenerates to a straight drain.
        // Safety: single-threaded, sole driver of shard `s`.
        let mut lane = unsafe { parts.lane(s, Vec::new(), start_now) };
        lane.drain_window(limit);
    } else if let Some(nows) = run_windows_serial(parts, active, windows, start_now, escalate_after)
    {
        let pool = sim.pool.get_or_insert_with(ShardPool::new);
        run_windows_threaded(parts, active, windows, &nows, pool);
    }

    let last = sim
        .counters
        .iter()
        .map(|c| c.last_at)
        .max()
        .unwrap_or(start_now);
    if last > sim.now {
        sim.now = last;
    }
    let after: u64 = sim.counters.iter().map(|c| c.events).sum();
    after - before
}

/// The windowed algorithm on the calling thread: drain every active
/// lane's window, exchange, repeat. Identical event order and per-shard
/// counters to the threaded driver (lanes share no state and the order is
/// key-derived), none of the barrier or wake-up overhead. Returns `None`
/// when the call is finished, or every lane's clock when more windows are
/// pending after `escalate_after` events were dispatched — the point at
/// which [`run_windows_threaded`] can take the rest.
fn run_windows_serial(
    parts: LaneParts<'_>,
    active: &[usize],
    windows: Windows<'_>,
    start_now: Instant,
    escalate_after: u64,
) -> Option<Vec<Instant>> {
    let mut nows = vec![start_now; active.len()];
    let mut scratches: Vec<Vec<Action>> = (0..active.len()).map(|_| Vec::new()).collect();
    let mut mins = vec![u64::MAX; active.len()];
    let mut dispatched = 0u64;
    loop {
        let mut t = u64::MAX;
        for (i, &s) in active.iter().enumerate() {
            // Safety: single-threaded; exclusive access to every wheel.
            mins[i] = unsafe { parts.queues.get_mut(s) }
                .peek_key()
                .map_or(u64::MAX, |(at, _)| at.nanos());
            t = t.min(mins[i]);
        }
        if t == u64::MAX || t > windows.limit_n {
            return None;
        }
        if dispatched >= escalate_after {
            return Some(nows);
        }
        for (i, &s) in active.iter().enumerate() {
            let until = windows.until(s, active, |j| mins[j], t);
            // Safety: single-threaded, sole driver of shard `s`; the lane
            // is dropped before the next one is built.
            let mut lane = unsafe { parts.lane(s, std::mem::take(&mut scratches[i]), nows[i]) };
            let before = lane.ctr.events;
            lane.drain_window(until);
            lane.ctr.windows += 1;
            dispatched += lane.ctr.events - before;
            nows[i] = lane.now;
            scratches[i] = std::mem::take(&mut lane.scratch);
        }
        // Exchange: every window's cross-shard arrivals land strictly
        // after the destination shard's window just drained.
        for &w in active {
            for &s in active {
                // Safety: single-threaded; cells and destination wheels
                // are touched one at a time.
                let cell = unsafe { parts.out.get_mut(w * parts.nsh + s) };
                for e in cell.drain(..) {
                    unsafe { parts.counters.get_mut(s) }.xrecv += 1;
                    unsafe { parts.queues.get_mut(s) }.schedule(e.at, e.key, e.payload);
                }
            }
        }
    }
}

/// Lane-per-active-shard windows on the persistent pool, synchronized
/// with a spin barrier, from wherever [`run_windows_serial`] left off
/// (`nows` = its lanes' clocks). The calling thread drives lane 0; pool
/// workers drive the rest and park when the call completes.
fn run_windows_threaded(
    parts: LaneParts<'_>,
    active: &[usize],
    windows: Windows<'_>,
    nows: &[Instant],
    pool: &mut ShardPool,
) {
    let mins: Vec<AtomicU64> = (0..active.len())
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let barrier = SpinBarrier::new(active.len());
    let mins = &mins;
    let barrier = &barrier;

    let worker = move |i: usize| {
        let s = active[i];
        // Safety: this worker is shard `s`'s sole driver; node/link/
        // meta access inside the lane follows the shard partition.
        let mut lane = unsafe { parts.lane(s, Vec::new(), nows[i]) };
        lane.ctr.pool_dispatches += 1;
        loop {
            let local = lane.queue.peek_key().map_or(u64::MAX, |(at, _)| at.nanos());
            mins[i].store(local, Ordering::Release);
            barrier.wait();
            // Every worker computes the same `t`, so they all either
            // enter the window or leave the loop together.
            let t = mins
                .iter()
                .map(|m| m.load(Ordering::Acquire))
                .min()
                .expect("at least one shard");
            if t == u64::MAX || t > windows.limit_n {
                break;
            }
            let until = windows.until(s, active, |j| mins[j].load(Ordering::Acquire), t);
            lane.drain_window(until);
            lane.ctr.windows += 1;
            barrier.wait();
            // Exchange: pull this shard's inbox column. Each window's
            // cross-shard arrivals land strictly after this shard's
            // window just drained.
            for &w in active {
                // Safety: column `s` cells are read by worker `s` only,
                // in the exchange phase only.
                let cell = unsafe { parts.out.get_mut(w * parts.nsh + s) };
                for e in cell.drain(..) {
                    lane.ctr.xrecv += 1;
                    lane.queue.schedule(e.at, e.key, e.payload);
                }
            }
            // No third barrier: nobody can re-enter a drain phase (and
            // write outboxes again) until this worker passes the next
            // window's min barrier.
        }
    };
    pool.run(active.len(), &worker);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Node, PortId};
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
    /// went to the pool.
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
                .counters
                .iter()
                .map(|c| [c.events, c.arrivals, c.xsent, c.xrecv, c.windows])
                .collect(),
        };
        (outcome, sim.pool_dispatches())
    }

    proptest! {
        /// The three shapes a multi-lane call can take — all windows on
        /// the calling thread, all on the pool, hand-over in mid-call —
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
                        Some(n) => drop(run_parallel_with(sim, Instant::MAX, n)),
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
                let (serial, serial_pool) = run(shards, Some(u64::MAX));
                prop_assert_eq!(&serial.logs, &merged.logs, "shards={}", shards);
                prop_assert_eq!(&serial.rtts, &merged.rtts, "shards={}", shards);
                prop_assert_eq!(serial.by_shard.iter().map(|c| c[0]).sum::<u64>(), events);
                let (sent, received) = serial
                    .by_shard
                    .iter()
                    .fold((0, 0), |(s, r), c| (s + c[2], r + c[3]));
                prop_assert_eq!(sent, received, "shards={} exchange lost events", shards);
                prop_assert!(sent > 0 && serial.by_shard.iter().all(|c| c[4] > 0 || c[0] == 0));
                prop_assert_eq!(serial_pool, 0);

                let lanes = serial.by_shard.iter().filter(|c| c[0] > 0).count() as u64;
                let (threaded, threaded_pool) = run(shards, Some(0));
                prop_assert_eq!(&threaded, &serial, "shards={} threaded", shards);
                prop_assert_eq!(threaded_pool, lanes, "every lane ran on the pool");

                let (handed_over, pool) = run(shards, Some(8));
                prop_assert_eq!(&handed_over, &serial, "shards={} hand-over", shards);
                prop_assert!(pool == 0 || pool == lanes);
            }
        }
    }
}
