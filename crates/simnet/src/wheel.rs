//! A timing-wheel (calendar-queue) priority queue for the event scheduler.
//!
//! The simulator's workload is dominated by near-future events: link
//! serialization completions microseconds ahead, guard timers tens of
//! milliseconds ahead. A binary heap pays `O(log n)` per operation on that
//! workload; the wheel pays amortized `O(1)` by hashing events into
//! fixed-width time slots and only heap-ordering the (tiny) population of
//! the slot currently being drained.
//!
//! Structure:
//!
//! * one slab of cells shared by the whole wheel: a payload is written
//!   into its cell by `schedule` and stays there until `pop` takes it out;
//!   freed cells go on a free list and are reused before the slab grows,
//!   so the slab never holds more cells than the peak number of *pending*
//!   events — however many ring slots a burst has passed through and
//!   however long the run;
//! * a ring of `SLOTS` buckets, each [`SLOT_WIDTH`] of simulated time
//!   wide (the ring horizon is `SLOTS * SLOT_WIDTH` ≈ 268 ms); a bucket is
//!   the `u32` head of an unsorted list threaded through the slab;
//! * `cur`, a small binary heap of `(at, key, cell)` handles for every
//!   pending event at or before the cursor bucket — the only place
//!   fine-grained `(at, seq)` ordering is enforced, and heap sifts move
//!   handles, never payloads;
//! * an occupancy bitmap so advancing the cursor over empty slots costs a
//!   couple of word scans rather than a per-slot walk;
//! * an overflow heap of handles for events beyond the ring horizon,
//!   linked into the ring lazily as the cursor approaches them.
//!
//! Ordering is **exactly** the total order of a `BinaryHeap<Reverse<(at,
//! seq)>>`: every event in `cur` is in a bucket ≤ cursor, every ring event
//! in a bucket strictly after the cursor, and every overflow event beyond
//! the ring horizon, so the minimum of `cur` is always the global minimum.
//! This invariant holds for *any* insertion sequence (even instants before
//! the cursor, which are routed into `cur`), which is what the
//! scheduler-equivalence property test in `tests/prop.rs` exercises.

use crate::time::Instant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the slot width in nanoseconds (2^16 ns = 65.536 µs per slot).
const SLOT_SHIFT: u32 = 16;
/// Number of ring slots; must be a power of two.
const SLOTS: usize = 4096;
/// Occupancy bitmap words.
const WORDS: usize = SLOTS / 64;
/// Width of one slot in simulated time.
pub const SLOT_WIDTH: u64 = 1 << SLOT_SHIFT;
/// End of a cell list (ring slot or free list).
const NIL: u32 = u32::MAX;

/// One slab cell. Live: the scheduled `(at, key)` pair plus its payload,
/// and the next cell of its ring slot while it waits in the ring. Free:
/// `item` is `None` and `next` threads the free list.
struct Cell<T, K> {
    at: Instant,
    seq: K,
    next: u32,
    item: Option<T>,
}

/// What the heaps order: the key of a pending event and the cell that
/// holds its payload. The tie-break key `K` is `u64` for the classic
/// global-sequence ordering, or any other totally ordered copyable key
/// (the sharded engine uses a content-derived `(source, counter)` key so
/// ordering is identical at every shard count).
struct Handle<K> {
    at: Instant,
    seq: K,
    cell: u32,
}

impl<K: Ord + Copy> PartialEq for Handle<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<K: Ord + Copy> Eq for Handle<K> {}
impl<K: Ord + Copy> PartialOrd for Handle<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord + Copy> Ord for Handle<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A timing-wheel priority queue over `(Instant, key)` pairs.
///
/// Pops events in strictly ascending `(at, key)` order — byte-identical to
/// a `BinaryHeap<Reverse<(at, key, ..)>>` — while keeping insert and pop
/// amortized `O(1)` for the near-future events that dominate simulation
/// workloads.
pub struct TimerWheel<T, K: Ord + Copy = u64> {
    /// Bucket index the cursor points at; all events in buckets ≤ cursor
    /// live in `cur`.
    cursor: u64,
    /// Every pending event's cell, plus the cells on the free list.
    slab: Vec<Cell<T, K>>,
    /// Head of the free-cell list.
    free: u32,
    /// Events due in or before the cursor bucket.
    cur: BinaryHeap<Reverse<Handle<K>>>,
    /// The ring: per-slot list heads for buckets in
    /// `(cursor, cursor + SLOTS)`.
    heads: Box<[u32]>,
    /// One bit per slot: set iff the slot list is non-empty.
    occupied: [u64; WORDS],
    /// Events beyond the ring horizon.
    overflow: BinaryHeap<Reverse<Handle<K>>>,
    len: usize,
}

impl<T, K: Ord + Copy> Default for TimerWheel<T, K> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T, K: Ord + Copy> TimerWheel<T, K> {
    /// An empty wheel with the cursor at t = 0.
    pub fn new() -> TimerWheel<T, K> {
        TimerWheel {
            cursor: 0,
            slab: Vec::new(),
            free: NIL,
            cur: BinaryHeap::new(),
            heads: vec![NIL; SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket(at: Instant) -> u64 {
        at.nanos() >> SLOT_SHIFT
    }

    /// Schedule `item` at `(at, seq)`. `seq` must be unique across live
    /// entries at the same instant (the simulator's content-derived event
    /// keys guarantee this).
    pub fn schedule(&mut self, at: Instant, seq: K, item: T) {
        self.len += 1;
        let live = Cell {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let mut cell = self.free;
        if cell == NIL {
            cell = u32::try_from(self.slab.len()).unwrap_or(NIL);
            assert!(cell != NIL, "wheel holds under 2^32 - 1 events");
            self.slab.push(live);
        } else {
            let slot = &mut self.slab[cell as usize];
            self.free = slot.next;
            *slot = live;
        }
        self.route(Handle { at, seq, cell });
    }

    /// Place a pending event in `cur`, the ring, or overflow based on its
    /// bucket. Its payload stays where it is.
    #[inline]
    fn route(&mut self, h: Handle<K>) {
        let b = Self::bucket(h.at);
        if b <= self.cursor {
            self.cur.push(Reverse(h));
        } else if b < self.cursor + SLOTS as u64 {
            let s = (b as usize) & (SLOTS - 1);
            if self.heads[s] == NIL {
                self.occupied[s / 64] |= 1 << (s % 64);
            }
            self.slab[h.cell as usize].next = self.heads[s];
            self.heads[s] = h.cell;
        } else {
            self.overflow.push(Reverse(h));
        }
    }

    /// Key of the next event to pop, without removing it.
    pub fn peek_key(&mut self) -> Option<(Instant, K)> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        self.cur.peek().map(|Reverse(h)| (h.at, h.seq))
    }

    /// Remove and return the globally earliest `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(Instant, K, T)> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        let Reverse(h) = self.cur.pop().expect("advance left cur empty");
        self.len -= 1;
        let slot = &mut self.slab[h.cell as usize];
        let item = slot.item.take().expect("handle names a live cell");
        slot.next = self.free;
        self.free = h.cell;
        Some((h.at, h.seq, item))
    }

    /// Move the cursor forward until `cur` holds the next pending event.
    /// Requires `len > 0`.
    fn advance(&mut self) {
        while self.cur.is_empty() {
            if let Some(b) = self.next_occupied_bucket() {
                self.cursor = b;
                let s = (b as usize) & (SLOTS - 1);
                self.occupied[s / 64] &= !(1 << (s % 64));
                // `cur` is empty: refill its buffer from the slot's list
                // and heapify once. The list is newest-first; reversed it
                // is in schedule order, which for a burst re-armed in pop
                // order is ascending — already a heap, so nothing moves.
                let mut due = std::mem::take(&mut self.cur).into_vec();
                let mut cell = std::mem::replace(&mut self.heads[s], NIL);
                while cell != NIL {
                    let c = &self.slab[cell as usize];
                    due.push(Reverse(Handle {
                        at: c.at,
                        seq: c.seq,
                        cell,
                    }));
                    cell = c.next;
                }
                due.reverse();
                self.cur = BinaryHeap::from(due);
            } else {
                // Ring empty: jump the cursor to the earliest overflow
                // event's bucket.
                let Reverse(head) = self.overflow.peek().expect("wheel len out of sync");
                self.cursor = Self::bucket(head.at);
            }
            self.migrate_overflow();
        }
    }

    /// Pull overflow events that now fall within the ring horizon.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + SLOTS as u64;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if Self::bucket(head.at) >= horizon {
                break;
            }
            let Reverse(h) = self.overflow.pop().expect("peeked entry vanished");
            self.route(h);
        }
    }

    /// Remove every pending entry in `(at, seq)` order. Used when entries
    /// must be re-routed wholesale (e.g. the sharded engine migrating
    /// events after a region→shard reassignment); the wheel is left empty
    /// with its cursor wherever the last pop advanced it, which is legal
    /// for any future insertion sequence (earlier instants route into
    /// `cur`).
    pub(crate) fn drain(&mut self) -> Vec<(Instant, K, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }

    /// The first occupied ring bucket strictly after the cursor, if any.
    fn next_occupied_bucket(&self) -> Option<u64> {
        let c = (self.cursor as usize) & (SLOTS - 1);
        let base = self.cursor - c as u64;
        let mut idx = (c + 1) & (SLOTS - 1);
        let mut remaining = SLOTS - 1;
        while remaining > 0 {
            let word = idx / 64;
            let bit = idx % 64;
            let span = (64 - bit).min(remaining);
            let mut bits = self.occupied[word] >> bit;
            if span < 64 {
                bits &= (1u64 << span) - 1;
            }
            if bits != 0 {
                let s = idx + bits.trailing_zeros() as usize;
                let b = if s > c {
                    base + s as u64
                } else {
                    base + (SLOTS + s) as u64
                };
                return Some(b);
            }
            idx = (idx + span) & (SLOTS - 1);
            remaining -= span;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.nanos(), seq, item));
        }
        out
    }

    #[test]
    fn pops_in_key_order() {
        let mut w = TimerWheel::new();
        w.schedule(Instant::from_nanos(500), 0, 1);
        w.schedule(Instant::from_nanos(100), 1, 2);
        w.schedule(Instant::from_millis(5), 2, 3);
        w.schedule(Instant::from_secs(2), 3, 4); // beyond the horizon
        w.schedule(Instant::from_nanos(100), 4, 5); // tie on `at`
        assert_eq!(
            drain(&mut w),
            vec![
                (100, 1, 2),
                (100, 4, 5),
                (500, 0, 1),
                (5_000_000, 2, 3),
                (2_000_000_000, 3, 4),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_inserts_stay_ordered() {
        let mut w = TimerWheel::new();
        w.schedule(Instant::from_millis(10), 0, 0);
        assert_eq!(w.pop().unwrap().2, 0);
        // Insert at the cursor's own instant and far beyond the horizon.
        w.schedule(Instant::from_millis(10), 1, 1);
        w.schedule(Instant::from_secs(10), 2, 2);
        w.schedule(Instant::from_millis(300), 3, 3);
        assert_eq!(w.pop().unwrap().2, 1);
        assert_eq!(w.pop().unwrap().2, 3);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w = TimerWheel::new();
        w.schedule(Instant::from_micros(70), 0, 10);
        w.schedule(Instant::from_micros(70), 1, 11);
        assert_eq!(w.peek_key(), Some((Instant::from_micros(70), 0)));
        assert_eq!(w.peek_key(), Some((Instant::from_micros(70), 0)));
        assert_eq!(w.pop().unwrap().1, 0);
        assert_eq!(w.peek_key(), Some((Instant::from_micros(70), 1)));
    }

    #[test]
    fn empty_ring_jumps_to_overflow() {
        let mut w = TimerWheel::new();
        // Two events far apart, both beyond the initial horizon.
        w.schedule(Instant::from_secs(100), 0, 1);
        w.schedule(Instant::from_secs(1), 1, 2);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn dense_same_slot_population() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.schedule(Instant::from_nanos(1_000_000 + (i % 7)), i, i as u32);
        }
        let out = drain(&mut w);
        assert_eq!(out.len(), 1000);
        for pair in out.windows(2) {
            assert!((pair[0].0, pair[0].1) < (pair[1].0, pair[1].1));
        }
    }

    /// A burst re-armed every time it fires (1 000 measurement timers in
    /// one slot) walks round the whole ring and through the overflow heap.
    /// The slab must follow what is pending, not where the burst has been.
    #[test]
    fn slab_is_bounded_by_peak_pending_not_by_slots_visited() {
        const BURST: u64 = 1_000;
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut seq = 0u64;
        for i in 0..BURST {
            w.schedule(Instant::from_nanos(i), seq, i);
            seq += 1;
        }
        let mut peak = w.len;
        let mut buckets = std::collections::BTreeSet::new();
        // One slot width per lap while in the ring, then hops beyond the
        // ring horizon so every entry passes through `overflow`.
        let laps = std::iter::repeat_n(SLOT_WIDTH, SLOTS + 100)
            .chain(std::iter::repeat_n(SLOTS as u64 * SLOT_WIDTH + 12_345, 50));
        let mut last = None;
        for period in laps {
            for _ in 0..BURST {
                let (at, key, item) = w.pop().expect("the burst stays pending");
                assert!(Some((at, key)) > last, "pop order broke");
                last = Some((at, key));
                w.schedule(Instant::from_nanos(at.nanos() + period), seq, item);
                seq += 1;
                peak = peak.max(w.len);
            }
            // The burst spans 1 µs: one bucket per lap is enough to count.
            buckets.insert(TimerWheel::<u64>::bucket(last.expect("popped").0));
            assert!(
                w.slab.len() <= 2 * peak,
                "{} cells for a peak of {peak} pending",
                w.slab.len()
            );
        }
        assert_eq!(peak, BURST as usize);
        assert!(buckets.len() >= SLOTS, "{} slots visited", buckets.len());
        assert!(
            w.slab.capacity() <= 4 * peak,
            "slab buffer outgrew the burst"
        );
        assert!(w.cur.capacity() + w.overflow.capacity() <= 8 * peak);
        assert_eq!(w.drain().len(), BURST as usize);
    }
}
