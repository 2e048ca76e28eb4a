//! The host reference: a fixed piece of work that belongs to the benchmark
//! and to no commit of the repository, timed before every repetition. It
//! is the noise guard's thermometer and nothing else: no reported time is
//! scaled by it, and it never runs while a repetition does.
//!
//! A compute-bound loop that stays in the L2 cache does not see this host's
//! noise (neighbours on the shared last-level cache and memory bus). What
//! does is work shaped like the simulator's own: a heap of timed events,
//! node state spread over more memory than the caches hold, a small
//! allocation per event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 1 << 20;
const RESIDENT_EVENTS: u32 = 200_000;
const EVENTS_PER_PASS: u32 = 400_000;

/// A miniature discrete-event loop over 64 MiB of node state.
pub struct HostRef {
    state: Vec<[u64; 8]>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
    /// Fastest probe so far, milliseconds: what "quiet" means this session.
    best_probe_ms: f64,
}

impl HostRef {
    /// Build the state and run one pass to fault it in.
    pub fn new() -> HostRef {
        let mut host = HostRef {
            state: vec![[0u64; 8]; NODES],
            queue: BinaryHeap::with_capacity(RESIDENT_EVENTS as usize + 1),
            rng: 0x9e37_79b9_7f4a_7c15,
            best_probe_ms: f64::INFINITY,
        };
        for i in 0..RESIDENT_EVENTS {
            let at = host.next_random() % 1_000_000;
            host.queue.push(Reverse((at, i * 5 % NODES as u32)));
        }
        host.pass();
        host
    }

    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One pass: a fixed number of events, each popping the earliest, touching
    /// two random nodes, allocating and dropping a packet-sized buffer, and
    /// scheduling a successor. Returns host milliseconds.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..EVENTS_PER_PASS {
            let Reverse((at, node)) = self.queue.pop().expect("the queue stays full");
            let s = &mut self.state[node as usize];
            s[0] = s[0].wrapping_add(at);
            s[7] ^= s[0];
            let packet = vec![s[7] as u8; 64 + (s[0] % 1_400) as usize];
            let next = (self.next_random() % NODES as u64) as u32;
            let peer = &mut self.state[next as usize];
            peer[3] = peer[3].wrapping_add(u64::from(packet[packet.len() / 2]));
            let delay = 1 + self.next_random() % 100_000;
            self.queue.push(Reverse((at + delay, next)));
        }
        black_box(&self.state);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Median of three passes, milliseconds (about 0.2 s each on the host
    /// the benchmark was sized on). Single passes scatter by about 8 % and
    /// now and then one takes half as long again; the median drops that
    /// one. Not the minimum: the probe is meant to follow the host's speed
    /// over the seconds before a repetition, and a repetition cannot pick
    /// its best moment either.
    pub fn probe(&mut self) -> f64 {
        let mut passes = [self.pass(), self.pass(), self.pass()];
        passes.sort_by(f64::total_cmp);
        self.best_probe_ms = self.best_probe_ms.min(passes[1]);
        passes[1]
    }

    pub fn best_probe_ms(&self) -> f64 {
        self.best_probe_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_does_fixed_work_and_keeps_the_queue_full() {
        let mut host = HostRef::new();
        let before = host.queue.len();
        let first = host.probe();
        assert!(first > 0.0);
        assert_eq!(host.best_probe_ms(), first);
        assert_eq!(host.queue.len(), before);
        assert_eq!(before, RESIDENT_EVENTS as usize);
    }
}
