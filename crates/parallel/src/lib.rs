//! Deterministic fork–join data parallelism.
//!
//! The render pipeline, the accelerator simulator and the benchmark
//! harness all fan the same shape of work out over cores: a slice of
//! independent items, each mapped to a result, with results needed in
//! input order. This crate provides that shape — a rayon-style
//! `par_map` built on `std::thread::scope` — with two properties the
//! workspace relies on:
//!
//! * **Determinism.** Results are returned in input order and each
//!   item's computation receives only its index and value, so the
//!   output is bit-for-bit identical no matter how many threads run
//!   (including one). The parallel renderer's regression test pins
//!   this.
//! * **Zero dependencies.** Scoped threads only; no external crates,
//!   no global thread pool, no work stealing. Items are split into one
//!   contiguous chunk per worker, which is the right grain for the
//!   workspace's workloads (rays of a frame, patches of a stage,
//!   points of a sweep).
//!
//! The worker count comes from [`num_threads`]: the `GEN_NERF_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`].

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "GEN_NERF_THREADS";

/// A cooperative cancellation flag, shared between a supervisor that
/// decides a computation is no longer wanted and the workers running
/// it. Cloning is cheap (an `Arc` bump); all clones observe the same
/// flag. Cancellation is level-triggered and sticky: once
/// [`cancel`](CancelToken::cancel) is called every subsequent
/// [`is_cancelled`](CancelToken::is_cancelled) returns `true`.
///
/// The token never interrupts anything by itself — long computations
/// must poll it at natural boundaries (chunk starts, per-ray loops)
/// and wind down early. A computation that never checks the token is
/// bit-for-bit unaffected by its existence, which keeps cancellable
/// and plain render paths byte-identical when no cancel fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; wakes nobody — pollers observe it
    /// at their next checkpoint.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// A [`Pool`] job failed because a worker panicked while executing it.
///
/// The pool itself survives: poison is cleared when the next job is
/// submitted, so callers can treat this as a per-job error and keep
/// using the pool (see [`Pool::try_run_chunks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    message: String,
}

impl PoolError {
    /// The panic payload of the (first) worker that panicked, when it
    /// was a string; `"pool worker panicked"` otherwise.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool worker panicked: {}", self.message)
    }
}

impl std::error::Error for PoolError {}

/// The configured worker count: `GEN_NERF_THREADS` if set and
/// positive, otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` in input order with the default worker count.
///
/// Equivalent to `par_map_threads(items, num_threads(), f)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(items, num_threads(), f)
}

/// Maps `f` over `items` in input order using up to `threads` workers.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or too few
/// items to split) the map runs inline on the caller's thread; the
/// output is identical either way, which is what makes the sequential
/// and parallel render paths comparable bit-for-bit.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // One contiguous chunk per worker, sized within one item of each
    // other so no worker idles while another drains a long tail.
    let chunk = n.div_ceil(workers);
    let f = &f;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    let base = w * chunk;
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(base + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Maps `f` over index chunks of `0..n`, in order: each call receives
/// `(start, end)` of a contiguous range, and the per-chunk results are
/// concatenated in range order. Useful when the caller wants one
/// worker-local accumulator per chunk rather than per item.
pub fn par_chunk_ranges<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let ranges = chunk_ranges(n, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(|(s, e)| f(s, e)).collect();
    }
    let f = &f;
    let mut results = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(s, e)| scope.spawn(move || f(s, e)))
            .collect();
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    results
}

/// Splits `0..n` into at most `threads` contiguous ranges, sized
/// within one item of each other — the chunk geometry shared by
/// [`par_chunk_ranges`] and [`Pool::run_chunks`], so a computation is
/// bit-for-bit identical whichever executor runs it.
fn chunk_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers).max(1);
    (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
        .filter(|(s, e)| s < e)
        .collect()
}

/// Splits a worker budget of `total` threads into `parts` shares, each
/// at least one thread, sized within one of each other (larger shares
/// first). When `total < parts` every share still gets one thread —
/// the caller oversubscribes rather than starving a part, which is the
/// right trade for scheduler shards that are mostly parked.
///
/// This is how a sharded server carves one machine-wide thread budget
/// into per-shard [`Pool`]s: while `spawned` shards exist,
/// `partition_threads(budget, spawned)[i]` is shard `i`'s pool size
/// (the server re-divides each time a shard spawns), so the shards
/// together hold (about) the budget while each keeps the fork–join
/// width it needs to make progress independently.
pub fn partition_threads(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let total = total.max(1);
    let base = total / parts;
    let rem = total % parts;
    (0..parts)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

/// One job broadcast to the pool: an erased-lifetime pointer to the
/// caller's task closure. Soundness rests on [`Pool::run_chunks`]
/// blocking until every worker has finished the job, so the pointee
/// (which lives on the caller's stack) strictly outlives every use.
struct Job {
    /// `f(slot)` runs task `slot`; valid only for the current epoch.
    f: *const (dyn Fn(usize) + Sync),
    /// Tasks in this job; workers with index ≥ `tasks` sit it out.
    tasks: usize,
}

// The raw pointer is only dereferenced between the epoch broadcast and
// the matching completion notification, both inside `run_chunks`'s
// borrow of `f`.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Monotonic job counter; workers run a job exactly once per epoch.
    epoch: u64,
    /// Workers still executing the current epoch's job.
    running: usize,
    /// Panic message of the first worker that panicked while executing
    /// the current job (`None` while the job is clean).
    poisoned: Option<String>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Serializes submitters: one job in flight at a time.
    submit: Mutex<()>,
    /// Wakes workers for a new epoch or shutdown.
    work: Condvar,
    /// Wakes the submitter when `running` reaches zero.
    done: Condvar,
}

/// A persistent fork–join worker pool.
///
/// [`par_map`]/[`par_chunk_ranges`] spawn scoped threads per call —
/// the right trade for one-shot frame renders, but a steady-state
/// request server pays that spawn/join tax on every chunk fan-out of
/// every frame. `Pool` keeps the workers alive across jobs: threads
/// are spawned once, parked on a condvar between jobs, and reused for
/// every [`Pool::run_chunks`] call. Chunk geometry and result order
/// are identical to [`par_chunk_ranges`], so swapping executors never
/// changes rendered output (the serve regression suite pins this).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                running: 0,
                poisoned: None,
                shutdown: false,
            }),
            submit: Mutex::new(()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = Self::spawn_crew(&shared, threads);
        Self { shared, workers }
    }

    /// Spawns `threads` workers parked on `shared`. Workers begin at
    /// epoch zero, so the shared state's epoch counter must also be
    /// zero when a fresh crew starts (true at construction and after
    /// the reset in [`Pool::respawn_workers`]).
    fn spawn_crew(shared: &Arc<PoolShared>, threads: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..threads)
            .map(|w| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("gen-nerf-pool-{w}"))
                    .spawn(move || Self::worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect()
    }

    /// Replaces every worker thread with a fresh crew of the same
    /// size, on the same shared state. The pool object survives — only
    /// the OS threads are torn down (joined) and respawned, which is
    /// the slice-reclaim a serving shard performs when its workers
    /// keep getting poisoned by panicking jobs. Takes `&mut self`, so
    /// no job can be in flight across the swap.
    pub fn respawn_workers(&mut self) {
        let crew = self.workers.len();
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = false;
            state.poisoned = None;
            state.job = None;
            state.running = 0;
            // Fresh workers start at epoch zero; rewind the counter so
            // they don't mistake the last job's epoch for new work.
            state.epoch = 0;
        }
        self.workers = Self::spawn_crew(&self.shared, crew);
    }

    /// A pool sized by [`num_threads`] (the `GEN_NERF_THREADS`
    /// environment variable).
    pub fn with_default_threads() -> Self {
        Self::new(num_threads())
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn worker_loop(shared: &PoolShared, index: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        break;
                    }
                    state = shared.work.wait(state).expect("pool wait");
                }
                let job = state.job.as_ref().expect("job set for epoch");
                Job {
                    f: job.f,
                    tasks: job.tasks,
                }
            };
            if index < job.tasks {
                // The pointer is live: `run_chunks` holds the closure
                // on its stack until `running` drains to zero below.
                let f = unsafe { &*job.f };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)));
                if let Err(payload) = outcome {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "pool worker panicked".to_string());
                    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    // Keep the first panic: later ones are usually
                    // knock-on noise from the same root cause.
                    state.poisoned.get_or_insert(message);
                }
            }
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.running -= 1;
            if state.running == 0 {
                shared.done.notify_all();
            }
        }
    }

    /// Maps `f` over contiguous chunk ranges of `0..n` on the pool's
    /// persistent workers, concatenating per-chunk results in range
    /// order — [`par_chunk_ranges`] semantics without the per-call
    /// thread spawn. `threads` caps the chunk count (further capped by
    /// the pool size); one chunk runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while executing `f` (re-raising the
    /// worker's panic message). Callers that want to survive a
    /// poisoned job use [`Pool::try_run_chunks`].
    pub fn run_chunks<R, F>(&self, n: usize, threads: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        match self.try_run_chunks(n, threads, f) {
            Ok(results) => results,
            Err(err) => panic!("{}", err.message().to_string()),
        }
    }

    /// Like [`Pool::run_chunks`], but a worker panic surfaces as
    /// `Err(PoolError)` instead of unwinding the caller. The pool
    /// recovers: poison is cleared on the next submission, so a job
    /// submitted after an `Err` runs clean on the same workers (a unit
    /// test pins this).
    pub fn try_run_chunks<R, F>(&self, n: usize, threads: usize, f: F) -> Result<Vec<R>, PoolError>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        let ranges = chunk_ranges(n, threads.min(self.workers.len()));
        if ranges.len() <= 1 {
            // Inline execution: a panic here propagates to the caller
            // directly (there is no worker to poison).
            return Ok(ranges.into_iter().map(|(s, e)| f(s, e)).collect());
        }
        let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let task = |slot: usize| {
            let (s, e) = ranges[slot];
            *slots[slot].lock().expect("slot lock") = Some(f(s, e));
        };
        let erased: &(dyn Fn(usize) + Sync) = &task;
        // One job in flight at a time: later submitters queue here, so
        // the single `job` slot and the `running` counter are never
        // shared between two jobs.
        let _exclusive = self.shared.submit.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(state.running == 0, "pool job already in flight");
            state.job = Some(Job {
                // Erase the borrow lifetime; the wait below keeps the
                // closure alive past every worker's last use.
                f: unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync),
                        *const (dyn Fn(usize) + Sync),
                    >(erased as *const _)
                },
                tasks: ranges.len(),
            });
            state.epoch += 1;
            state.running = self.workers.len();
            state.poisoned = None;
            self.shared.work.notify_all();
            while state.running > 0 {
                state = self.shared.done.wait(state).expect("pool wait");
            }
            state.job = None;
            if let Some(message) = state.poisoned.take() {
                return Err(PoolError { message });
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("worker filled slot")
            })
            .collect())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_threads(&items, 8, |i, &v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(out, (0..1000).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn threads_do_not_change_results() {
        let items: Vec<f64> = (0..337).map(|i| i as f64 * 0.37).collect();
        let work = |_: usize, &x: &f64| (x.sin() * 1e6).round() as i64;
        let one = par_map_threads(&items, 1, work);
        for t in [2, 3, 7, 16] {
            assert_eq!(par_map_threads(&items, t, work), one, "threads = {t}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(&empty, 4, |_, &v| v).is_empty());
        assert_eq!(par_map_threads(&[9u32], 4, |_, &v| v + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map_threads(&items, 64, |_, &v| v * 2), vec![2, 4, 6]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for t in [1usize, 2, 5, 16] {
                let ranges = par_chunk_ranges(n, t, |s, e| (s, e));
                let mut expect = 0usize;
                for (s, e) in &ranges {
                    assert_eq!(*s, expect);
                    assert!(e > s);
                    expect = *e;
                }
                assert_eq!(expect, n, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn partition_threads_covers_budget() {
        // Enough budget: shares sum to the budget, sizes within one.
        for (total, parts) in [(8usize, 3usize), (16, 4), (7, 7), (9, 2)] {
            let shares = partition_threads(total, parts);
            assert_eq!(shares.len(), parts);
            assert_eq!(shares.iter().sum::<usize>(), total, "{total}/{parts}");
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "{shares:?}");
            assert!(*min >= 1);
        }
        // Scarce budget: every part still gets one thread.
        assert_eq!(partition_threads(2, 5), vec![1; 5]);
        assert_eq!(partition_threads(0, 3), vec![1; 3]);
        // Degenerate part counts.
        assert_eq!(partition_threads(4, 1), vec![4]);
        assert_eq!(partition_threads(4, 0), vec![4]);
    }

    #[test]
    fn pool_matches_par_chunk_ranges() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 7, 64, 1000] {
            for t in [1usize, 2, 4] {
                let work = |s: usize, e: usize| (s, e, (s..e).map(|i| i as u64 * 3).sum::<u64>());
                assert_eq!(
                    pool.run_chunks(n, t, work),
                    par_chunk_ranges(n, t, work),
                    "n={n} t={t}"
                );
            }
        }
    }

    #[test]
    fn pool_reuses_workers_across_jobs() {
        use std::collections::HashSet;
        let pool = Pool::new(3);
        let mut ids = HashSet::new();
        // Many jobs on one pool: the set of worker threads must not
        // grow with the job count.
        for _ in 0..16 {
            for id in pool.run_chunks(6, 3, |_, _| std::thread::current().id()) {
                ids.insert(id);
            }
        }
        assert!(ids.len() <= 3, "workers grew: {}", ids.len());
    }

    #[test]
    fn pool_caps_at_its_size() {
        let pool = Pool::new(2);
        // Asking for more threads than the pool has still covers the
        // domain exactly, just in at most `threads()` chunks.
        let ranges = pool.run_chunks(100, 8, |s, e| (s, e));
        assert!(ranges.len() <= 2);
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(100));
    }

    #[test]
    fn pool_single_chunk_runs_inline() {
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let out = pool.run_chunks(5, 1, |_, _| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn pool_worker_panic_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_chunks(10, 2, |s, _| {
                if s == 0 {
                    panic!("boom");
                }
                s
            })
        }));
        assert!(result.is_err());
        // The pool survives a poisoned job and keeps serving.
        assert_eq!(pool.run_chunks(4, 2, |s, e| e - s).iter().sum::<usize>(), 4);
    }

    #[test]
    fn pool_try_run_reports_poison_and_recovers() {
        let pool = Pool::new(2);
        // A poisoned job surfaces as an error carrying the worker's
        // panic message — the caller does not unwind.
        let err = pool
            .try_run_chunks(10, 2, |s, _| {
                if s == 0 {
                    panic!("injected worker fault");
                }
                s
            })
            .unwrap_err();
        assert_eq!(err.message(), "injected worker fault");
        assert!(err.to_string().contains("injected worker fault"));
        // The pool cleared the poison: the next job runs clean on the
        // same workers and returns full results.
        let clean = pool.try_run_chunks(8, 2, |s, e| e - s).expect("clean job");
        assert_eq!(clean.iter().sum::<usize>(), 8);
    }

    #[test]
    fn pool_respawn_workers_replaces_crew() {
        use std::collections::HashSet;
        let mut pool = Pool::new(3);
        let before: HashSet<_> = pool
            .run_chunks(6, 3, |_, _| std::thread::current().id())
            .into_iter()
            .collect();
        // Poison the pool, then respawn: the new crew is disjoint from
        // the old one, the same size, and serves jobs cleanly.
        let err = pool
            .try_run_chunks(6, 3, |s, _| {
                if s == 0 {
                    panic!("sticky fault");
                }
                s
            })
            .unwrap_err();
        assert_eq!(err.message(), "sticky fault");
        pool.respawn_workers();
        assert_eq!(pool.threads(), 3);
        let after: HashSet<_> = pool
            .run_chunks(6, 3, |_, _| std::thread::current().id())
            .into_iter()
            .collect();
        assert!(before.is_disjoint(&after), "old workers survived respawn");
        let clean = pool.try_run_chunks(8, 3, |s, e| e - s).expect("clean job");
        assert_eq!(clean.iter().sum::<usize>(), 8);
        // Respawning an idle, healthy pool is also fine.
        pool.respawn_workers();
        assert_eq!(pool.run_chunks(4, 2, |s, e| e - s).iter().sum::<usize>(), 4);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled(), "cancel visible through all clones");
        clone.cancel(); // idempotent
        assert!(token.is_cancelled());
        // A fresh token is independent.
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn pool_concurrent_submitters_serialize() {
        let pool = Pool::new(2);
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    scope.spawn(move || {
                        let out = pool.run_chunks(64, 2, move |s, e| {
                            (s..e).map(|i| (i + k) as u64).sum::<u64>()
                        });
                        out.iter().sum::<u64>()
                    })
                })
                .collect();
            for (k, h) in handles.into_iter().enumerate() {
                let expect: u64 = (0..64).map(|i| (i + k) as u64).sum();
                assert_eq!(h.join().unwrap(), expect);
            }
        });
    }
}
