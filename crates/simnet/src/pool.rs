//! The persistent worker pool behind the sharded engine's threaded
//! windows, and the spin barrier its lanes synchronise on.
//!
//! This is the one module in the crate exempt from its code lint, for one
//! thing: a published job is a borrowed closure whose lifetime is erased
//! so that parked workers can call it (see [`ShardPool::run`]). What the
//! closure hands each lane is borrowed, with the usual checks, on the
//! dispatching side.

#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Sense-counting spin barrier; windows are hundreds of microseconds of
/// simulated work, so parking would dominate. A lane that panicked
/// aborts it: every wait then returns `false` at once, so the other
/// lanes leave their window loops instead of waiting forever.
pub(crate) struct SpinBarrier {
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
    pub(crate) fn wait(&self) -> bool {
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

/// Type-erased pointer to one parallel run's per-lane closure. The
/// borrowed closure is only reachable between a job's publication and the
/// dispatcher's completion wait, which is what makes the `'static` erasure
/// sound (see [`ShardPool::run`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` (shared by every worker) and the pointer
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
/// only comes here after enough events (`shard::ESCALATE_AFTER_EVENTS`).
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    pub(crate) fn new() -> ShardPool {
        ShardPool {
            shared: Arc::new(PoolShared {
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

    /// Run `lane(i, barrier)` for every lane `i` in `0..nlanes` — lane 0
    /// on the calling thread, the rest on pool workers — with one
    /// [`SpinBarrier`] shared by all of them. Blocks until every lane
    /// returned, so borrows captured by `lane` stay valid for the workers'
    /// whole execution (the scoped-spawn guarantee, without the per-call
    /// spawn). A panicking lane counts as done: it aborts the barrier, so
    /// the others leave their loops at their next wait, and the first
    /// panic is resumed on the caller once every lane has returned.
    pub(crate) fn run(&mut self, nlanes: usize, lane: &(dyn Fn(usize, &SpinBarrier) + Sync)) {
        let barrier = SpinBarrier::new(nlanes);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let guarded = |i: usize| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane(i, &barrier))) {
                barrier.abort();
                let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        };
        let workers = nlanes.saturating_sub(1);
        if workers > 0 {
            self.ensure_workers(workers);
            let f: &(dyn Fn(usize) + Sync) = &guarded;
            // SAFETY: erasing the closure's lifetime is sound because
            // `DoneGuard` (dropped even on unwind) blocks until every
            // participant finished with the pointer.
            let job = Job(unsafe { std::mem::transmute(f) });
            let mut st = self.shared.state.lock().expect("pool state");
            st.gen += 1;
            st.participants = workers;
            st.job = Some(job);
            drop(st);
            self.shared.wake.notify_all();
        }
        let done = DoneGuard {
            shared: &self.shared,
            workers,
        };
        guarded(0);
        drop(done);
        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
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
/// waits even if it unwinds — leaving the borrowed job context while
/// workers still use it would be undefined behaviour.
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
            // SAFETY: the dispatcher blocks (DoneGuard) until this
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
