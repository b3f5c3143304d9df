//! A persistent worker pool for the CPU engines.
//!
//! The pre-pool CPU path spawned a fresh wave of scoped threads for every
//! phase of every BFS level — three to four `std::thread::scope` blocks per
//! level, each paying thread creation, stack allocation, and join latency.
//! [`WorkerPool`] spawns its OS threads exactly once, when the owning engine
//! is constructed, and reuses them for every phase of every level of every
//! group served afterwards. Phases are dispatched with a generation-counted
//! mutex/condvar handshake (workers block, they do not spin), and
//! [`WorkerPool::run`] does not return until every worker has finished the
//! phase — a barrier, which is what makes lending stack-borrowed closures to
//! the workers sound.
//!
//! The caller participates as worker 0, so a pool of `threads` executes
//! phases on `threads` lanes while owning only `threads - 1` OS threads; a
//! single-threaded pool never synchronizes at all.
//!
//! A lane that panics does not break the barrier: every lane's panic is
//! caught, the phase still waits for all lanes, and only then does
//! [`WorkerPool::run`] resume the first caught panic on the caller. The
//! workers survive and serve the next phase.

use ibfs_obs::{EngineProfiler, ProfPhase};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// OS threads spawned by [`WorkerPool`]s constructed on this thread.
    static THREADS_SPAWNED_HERE: Cell<u64> = const { Cell::new(0) };
}

/// OS threads ever spawned by pools constructed on the calling thread
/// (monotone).
///
/// Tests use this to prove the engines create workers once per engine
/// lifetime rather than once per level: the counter must not move across a
/// multi-level, multi-group run. It is per thread, so pools that other
/// threads build (sibling tests under the parallel harness) never move it.
pub fn threads_spawned_here() -> u64 {
    THREADS_SPAWNED_HERE.with(Cell::get)
}

/// The job pointer lent to workers for the duration of one phase.
///
/// `run` erases the closure's lifetime: the barrier at the end of the phase
/// guarantees no worker holds the pointer after `run` returns, so the borrow
/// it was created from is still live whenever it is dereferenced.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from many threads) and the
// pool's barrier protocol bounds every dereference within the lifetime of
// the borrow captured in `run`.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per phase; workers sleep until it moves.
    generation: u64,
    /// The phase body; `None` between phases.
    job: Option<Job>,
    /// Workers still executing the current phase.
    active: usize,
    /// The first panic caught in the current phase, on any lane.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop` to retire the workers.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The dispatching thread waits here for `active == 0`.
    done_cv: Condvar,
}

/// A fixed set of worker threads executing barrier-synced phases.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Phases dispatched over the pool's lifetime.
    phases: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool executing phases on `threads` lanes (the calling
    /// thread is lane 0; `threads - 1` OS threads are spawned, once).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for lane in 1..threads {
            let shared = Arc::clone(&shared);
            THREADS_SPAWNED_HERE.with(|c| c.set(c.get() + 1));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ibfs-cpu-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool {
            shared,
            handles,
            threads,
            phases: AtomicU64::new(0),
        }
    }

    /// Number of lanes (including the caller's lane 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads owned by the pool (`threads() - 1`).
    pub fn spawned_threads(&self) -> usize {
        self.handles.len()
    }

    /// Phases dispatched so far.
    pub fn phases_run(&self) -> u64 {
        self.phases.load(Ordering::Relaxed)
    }

    /// Runs `f(lane)` on every lane and returns once all lanes finish.
    ///
    /// `f` runs on the calling thread as lane 0 concurrently with the pool
    /// workers on lanes `1..threads`. If any lane panics, the first caught
    /// panic is resumed here once every lane has finished.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.phases.fetch_add(1, Ordering::Relaxed);
        if self.handles.is_empty() {
            f(0);
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY (lifetime erasure): the pointer is dereferenced only by
        // workers between the generation bump below and the `active == 0`
        // barrier we block on before returning, so it never outlives `f`.
        // A panic in `f(0)` is caught, so unwinding cannot skip the barrier.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                wide as *const _,
            )
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.active, 0);
            st.job = Some(job);
            st.active = self.handles.len();
            st.generation += 1;
            self.shared.work_cv.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut st = self.shared.state.lock().unwrap();
        if let Err(payload) = caller {
            st.panic.get_or_insert(payload);
        }
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }

    /// [`WorkerPool::run`] with optional phase profiling: when `prof` is
    /// set, each lane's body time (plus the counter pair `f` returns) is
    /// recorded as a [`PhaseRecord`](ibfs_obs::PhaseRecord) and the phase
    /// wall time synthesizes one `BarrierWait` record per lane. When
    /// `prof` is `None` the only cost over `run` is computing the ignored
    /// counters.
    pub fn run_profiled<F>(
        &self,
        prof: Option<&EngineProfiler>,
        track: u64,
        level: u64,
        phase: ProfPhase,
        f: F,
    ) where
        F: Fn(usize) -> (u64, u64) + Sync,
    {
        match prof {
            None => self.run(|lane| {
                f(lane);
            }),
            Some(p) => {
                let ph = p.begin();
                self.run(|lane| {
                    let (a, b) = f(lane);
                    p.lane(ph, track, lane, level, phase, a, b);
                });
                p.end_phase(ph, track, level, phase);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("generation moved without a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: see `Job` — the dispatcher keeps the closure alive until
        // every worker has decremented `active`.
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(lane)));
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A shared claim cursor: lanes `fetch_add` to steal the next work chunk.
///
/// This is the work-stealing half of the CPU engine's load balancing: the
/// level's work is pre-split into degree-balanced chunks, and lanes claim
/// chunks until the cursor runs past the end — a lane stuck on a hub vertex
/// simply claims fewer chunks.
#[derive(Default)]
pub struct ChunkCursor(AtomicUsize);

impl ChunkCursor {
    /// Resets the cursor for a new phase.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Claims the next chunk index, or `None` when `limit` is exhausted.
    ///
    /// The claim is bounded: the cursor never advances past `limit`, so a
    /// lane that loses the race at a tiny frontier does not push the
    /// cursor into territory a *later* phase (or a later call with a
    /// larger `limit`) would have claimed. The old `fetch_add`-then-check
    /// implementation over-claimed here — with `threads` lanes spinning on
    /// an exhausted cursor it could run `limit` arbitrarily far ahead,
    /// silently swallowing the first chunks of the next claim window
    /// unless every caller remembered to `reset` first.
    pub fn claim(&self, limit: usize) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Relaxed);
        while cur < limit {
            match self
                .0
                .compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(cur),
                Err(seen) => cur = seen,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_lane_exactly_once_per_phase() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.spawned_threads(), 3);
        let hits: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..100 {
            pool.run(|lane| {
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
        assert_eq!(pool.phases_run(), 100);
    }

    #[test]
    fn single_lane_pool_spawns_nothing() {
        let before = threads_spawned_here();
        let pool = WorkerPool::new(1);
        assert_eq!(pool.spawned_threads(), 0);
        let mut x = 0;
        let cell = std::sync::Mutex::new(&mut x);
        pool.run(|lane| {
            assert_eq!(lane, 0);
            **cell.lock().unwrap() += 1;
        });
        drop(cell);
        assert_eq!(x, 1);
        assert_eq!(threads_spawned_here(), before);
    }

    #[test]
    fn phases_observe_prior_phase_writes() {
        // The barrier between phases orders writes: phase 2 reads what
        // phase 1 wrote, across lanes.
        let pool = WorkerPool::new(3);
        let data: Vec<AtomicU32> = (0..300).map(|_| AtomicU32::new(0)).collect();
        pool.run(|lane| {
            for i in (lane..300).step_by(3) {
                data[i].store(i as u32 + 1, Ordering::Relaxed);
            }
        });
        pool.run(|lane| {
            // Read indices written by *other* lanes in phase 1.
            for i in ((lane + 1) % 3..300).step_by(3) {
                assert_eq!(data[i].load(Ordering::Relaxed), i as u32 + 1);
            }
        });
    }

    #[test]
    fn cursor_hands_out_each_chunk_once() {
        let pool = WorkerPool::new(4);
        let cursor = ChunkCursor::default();
        let claims: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.run(|_lane| {
            while let Some(i) = cursor.claim(64) {
                claims[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for c in &claims {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
        cursor.reset();
        assert_eq!(cursor.claim(64), Some(0));
    }

    #[test]
    fn exhausted_cursor_does_not_over_claim() {
        // Regression: many lanes hammering an exhausted cursor at a tiny
        // frontier must leave it parked exactly at the limit, so a later
        // claim window (larger limit, no reset) still sees every chunk.
        let pool = WorkerPool::new(8);
        let cursor = ChunkCursor::default();
        pool.run(|_lane| {
            // Each lane keeps claiming long after the 2-chunk frontier is
            // gone — the failure mode of the old fetch_add cursor.
            let mut claimed = 0;
            for _ in 0..1000 {
                if cursor.claim(2).is_some() {
                    claimed += 1;
                }
            }
            assert!(claimed <= 2);
        });
        // The cursor stopped at the limit: chunks 2..6 of a wider window
        // are still claimable without a reset.
        assert_eq!(cursor.claim(6), Some(2));
        assert_eq!(cursor.claim(6), Some(3));
        assert_eq!(cursor.claim(6), Some(4));
        assert_eq!(cursor.claim(6), Some(5));
        assert_eq!(cursor.claim(6), None);
        assert_eq!(cursor.claim(6), None);
    }

    /// Runs a phase on a 3-lane pool in which lane `failing` panics once
    /// every other lane has started, and returns the panic `run` surfaced
    /// and how many other lanes had finished by then.
    fn panicking_phase(pool: &WorkerPool, failing: usize) -> (Box<dyn Any + Send>, u32) {
        let started = AtomicU32::new(0);
        let finished = AtomicU32::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|lane| {
                if lane == failing {
                    // Panic only while the other lanes are mid-phase.
                    while started.load(Ordering::SeqCst) < 2 {
                        std::hint::spin_loop();
                    }
                    panic!("lane failed");
                }
                started.fetch_add(1, Ordering::SeqCst);
                // Stay mid-phase a while after the panic, so a `run` that
                // returned early would see fewer than two lanes finished.
                for _ in 0..1000 {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .expect_err("the lane's panic surfaces from run");
        (payload, finished.load(Ordering::SeqCst))
    }

    #[test]
    fn lane_panics_surface_only_after_every_lane_finished() {
        let pool = WorkerPool::new(3);
        // A worker lane, then the caller's own lane 0.
        for failing in [2, 0] {
            let (payload, finished) = panicking_phase(&pool, failing);
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"lane failed"),
                "lane {failing}"
            );
            assert_eq!(
                finished, 2,
                "lane {failing}: run returned before the other lanes"
            );
        }
        // The pool survives and runs a normal phase on every lane.
        let hits: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(0)).collect();
        pool.run(|lane| {
            hits[lane].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.phases_run(), 3);
    }

    #[test]
    fn pool_spawn_counter_is_constant_across_phases() {
        let before = threads_spawned_here();
        let pool = WorkerPool::new(3);
        let after_new = threads_spawned_here();
        assert_eq!(after_new - before, 2);
        for _ in 0..50 {
            pool.run(|_| {});
        }
        assert_eq!(threads_spawned_here(), after_new);
    }
}
