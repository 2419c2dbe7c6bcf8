//! Deterministic data parallelism over claimed items.
//!
//! The render pipeline, the accelerator simulator and the benchmark
//! harness all fan the same shape of work out over cores: `n`
//! independent items, each mapped to a result, with results needed in
//! item order. This crate has one mechanism for that shape, the
//! **claim loop** ([`Executor::claim`]): workers pull item indices from
//! one atomic cursor until it runs dry, a worker may keep private state
//! across its claims, and the result of item `i` lands in slot `i`.
//! Nothing is split up front, so a worker that draws cheap items simply
//! claims more of them, and the list of items is the same whatever the
//! worker count. Two properties follow that the workspace relies on:
//!
//! * **Determinism.** Results are returned in item order and each
//!   item's computation receives only its index (and its worker's
//!   state, which must not influence results), so the output is
//!   bit-for-bit identical no matter how many workers run (including
//!   one). The parallel renderer's regression test pins this.
//! * **Zero dependencies.** Scoped threads and `std` synchronisation
//!   only; no external crates, no global thread pool.
//!
//! Who runs a claim loop is the only choice: [`Executor::Scoped`]
//! spawns scoped threads beside the caller for one call, and
//! [`Executor::Pool`] hands the items to a persistent [`Pool`] crew,
//! which rotates its claims over every job submitted to it.
//!
//! The worker count comes from [`num_threads`]: the `GEN_NERF_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`].

#![warn(unreachable_pub)]

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the worker count.
pub(crate) const THREADS_ENV: &str = "GEN_NERF_THREADS";

/// A cooperative cancellation flag, shared between a supervisor that
/// decides a computation is no longer wanted and the workers running
/// it, plus a progress count those workers tick. Cloning is cheap (an
/// `Arc` bump); all clones observe the same flag and count.
/// Cancellation is level-triggered and sticky: once
/// [`cancel`](CancelToken::cancel) is called every subsequent
/// [`is_cancelled`](CancelToken::is_cancelled) returns `true`.
///
/// The token never interrupts anything by itself — long computations
/// must poll it at natural boundaries (tile starts, per-ray loops)
/// and wind down early. A computation that never checks the token is
/// bit-for-bit unaffected by its existence, which keeps cancellable
/// and plain render paths byte-identical when no cancel fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    progress: AtomicU64,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; wakes nobody — pollers observe it
    /// at their next checkpoint.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Relaxed)
    }

    /// Records one unit of progress (the renderer ticks once per tile
    /// it fills), so whoever holds a clone can tell a computation that
    /// is slow from one that is stuck.
    pub fn tick(&self) {
        self.state.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Units of progress ticked on any clone so far.
    pub fn progress(&self) -> u64 {
        self.state.progress.load(Ordering::Relaxed)
    }
}

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

/// Maps `f` over `items` in input order using up to `threads` workers
/// claiming one item at a time.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or fewer than
/// two items) the map runs inline on the caller's thread; the output
/// is identical either way, which is what makes the sequential and
/// parallel paths comparable bit-for-bit.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Executor::Scoped(threads).claim(items.len(), || (), |_, i| f(i, &items[i]))
}

/// Locks `m`, ignoring poison: every lock here guards data a panic
/// cannot leave half-written (a slot is written whole, a panic payload
/// once), and a panicking item is reported through its job instead.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` with `guard`, ignoring poison as [`lock`] does.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Who runs a claim loop. The items, the cursor and the result slots
/// are the same either way, so the choice never changes results.
#[derive(Clone, Copy)]
pub enum Executor<'a> {
    /// Up to this many workers for one call: the caller plus scoped
    /// threads spawned for the call and joined before it returns.
    Scoped(usize),
    /// The persistent crew of a [`Pool`]; the caller waits.
    Pool(&'a Pool),
}

impl Executor<'_> {
    /// Runs `f(state, i)` for every item `i` in `0..n` and returns the
    /// results in item order. Workers claim items one at a time from
    /// one atomic cursor; a worker builds its `state` with `init` on
    /// its first claim and keeps it across its later claims of this
    /// call. Fewer than two items, or a single scoped worker, run
    /// inline on the caller.
    ///
    /// # Panics
    ///
    /// When an item panics, no further item of this call starts, and
    /// the first panic is resumed on the caller once every item in
    /// flight has finished. A [`Pool`] crew survives it: the panic
    /// belongs to this call, and the crew's next job runs clean.
    pub fn claim<S, R, I, F>(self, n: usize, init: I, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let (workers, inline) = match self {
            Executor::Scoped(threads) => (threads.min(n), threads.min(n) <= 1),
            Executor::Pool(pool) => (pool.threads(), n <= 1),
        };
        if inline {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let claims = Claims {
            next: AtomicUsize::new(0),
            n,
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            states: (0..workers).map(|_| Mutex::new(None)).collect(),
            init,
            f,
            panic: Mutex::new(None),
        };
        match self {
            Executor::Scoped(_) => std::thread::scope(|scope| {
                let claims = &claims;
                for w in 1..workers {
                    scope.spawn(move || while claims.step_as(w) {});
                }
                while claims.step_as(0) {}
            }),
            Executor::Pool(pool) => pool.run(&claims),
        }
        claims.finish()
    }
}

/// One claim loop's shared state: the cursor, a slot per item result,
/// and a state cell per worker.
struct Claims<S, R, I, F> {
    /// The next unclaimed item; at or past `n` once none is left. It
    /// publishes no data, so `Relaxed` is enough: results travel
    /// through the slot locks and then the crew lock or the scope's
    /// join, and a worker that settles back into the crew has every
    /// claim it made ordered before that lock.
    next: AtomicUsize,
    n: usize,
    slots: Vec<Mutex<Option<R>>>,
    /// Worker `w`'s state, built on its first claim. Only worker `w`
    /// locks cell `w`, so the lock is never contended.
    states: Vec<Mutex<Option<S>>>,
    init: I,
    f: F,
    /// The payload of the first item that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A claim loop as the crew sees it, with its item and state types
/// erased.
trait Job: Sync {
    /// Claims the next item and runs it as worker `w`; `false` once
    /// no item is left.
    fn step_as(&self, w: usize) -> bool;
    /// Whether every item has been claimed.
    fn exhausted(&self) -> bool;
}

impl<S, R, I, F> Job for Claims<S, R, I, F>
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    fn step_as(&self, w: usize) -> bool {
        let step = || {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return false;
            }
            let mut state = lock(&self.states[w]);
            let result = (self.f)(state.get_or_insert_with(&self.init), i);
            *lock(&self.slots[i]) = Some(result);
            true
        };
        panic::catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
            // The panic poisons this job only: keep the first payload
            // and close the cursor so no further item starts.
            lock(&self.panic).get_or_insert(payload);
            self.next.fetch_max(self.n, Ordering::Relaxed);
            false
        })
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

impl<S, R, I, F> Claims<S, R, I, F> {
    /// The results in item order, once every worker has stopped —
    /// or the first item's panic, resumed.
    fn finish(self) -> Vec<R> {
        if let Some(payload) = self
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        self.slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every item ran")
            })
            .collect()
    }
}

/// A job registered with the crew: an erased-lifetime pointer to the
/// submitter's [`Claims`], and how many workers are inside it.
struct Entry {
    id: u64,
    job: *const (dyn Job + 'static),
    /// Workers between claiming from this job and settling back here;
    /// the submitter unregisters the job only once this is zero.
    active: usize,
}

// SAFETY: `job` is the only field that is not `Send`. Its pointee is
// `Sync` (`Job: Sync`), so using it from any worker is sound, and it
// lives on the submitter's stack, which blocks in `Pool::run` until the
// entry is unregistered; a worker dereferences it only while the entry
// is registered (under the crew lock) or pinned (`active > 0`), and the
// submitter unregisters it only when unpinned.
unsafe impl Send for Entry {}

impl Entry {
    fn job(&self) -> &dyn Job {
        // SAFETY: callers hold the crew lock, and a registered entry
        // points at a live job (see the `Send` impl).
        unsafe { &*self.job }
    }
}

struct CrewState {
    jobs: Vec<Entry>,
    next_id: u64,
    /// Where the next claim starts looking: claims rotate round-robin
    /// over live jobs, so a short job is never stuck behind a long one.
    turn: usize,
    shutdown: bool,
}

struct Crew {
    state: Mutex<CrewState>,
    /// Wakes workers: a job registered, or shutdown.
    work: Condvar,
    /// Wakes submitters: a worker settled back into a job.
    done: Condvar,
}

/// A persistent worker crew running claim loops for any number of
/// concurrent submitters.
///
/// A steady-state server would pay a spawn/join tax on every fan-out
/// of every frame with [`Executor::Scoped`]; `Pool` keeps the workers
/// alive: they are spawned once, parked on a condvar while no job is
/// live, and every [`Executor::Pool`] call registers its claim loop
/// with them. Each claim goes to the next live job round-robin, so
/// jobs of several submitters (the shards of a render server) share
/// the crew item by item. A panicking item fails its own job and
/// leaves every worker healthy. Results are those of any other
/// executor, so swapping executors never changes rendered output (the
/// serve regression suite pins this).
///
/// Submitting from inside one of the crew's own items deadlocks once
/// every worker waits that way; nothing in the workspace nests them.
pub struct Pool {
    crew: Arc<Crew>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let crew = Arc::new(Crew {
            state: Mutex::new(CrewState {
                jobs: Vec::new(),
                next_id: 0,
                turn: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|w| {
                let crew = Arc::clone(&crew);
                std::thread::Builder::new()
                    .name(format!("gen-nerf-pool-{w}"))
                    .spawn(move || worker_loop(&crew, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { crew, workers }
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Registers `job` with the crew and blocks until every item of it
    /// has been claimed and no worker is inside it any more.
    fn run(&self, job: &(dyn Job + '_)) {
        // SAFETY: only the borrow's lifetime is erased; the wait below
        // keeps `job` registered, and `job` alive, until no worker
        // holds it, and the entry is removed before this returns.
        let job = unsafe {
            std::mem::transmute::<*const (dyn Job + '_), *const (dyn Job + 'static)>(job)
        };
        let crew = &*self.crew;
        let mut state = lock(&crew.state);
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Entry { id, job, active: 0 });
        crew.work.notify_all();
        loop {
            let at = state.jobs.iter().position(|e| e.id == id);
            let at = at.expect("a job stays registered until its submitter returns");
            if state.jobs[at].active == 0 && state.jobs[at].job().exhausted() {
                state.jobs.remove(at);
                return;
            }
            state = wait(&crew.done, state);
        }
    }

    /// Maps `f` over contiguous ranges of `0..n`, concatenating the
    /// per-range results in range order: at most `threads` ranges
    /// (further capped by the pool size), sized within one item of each
    /// other, each one item of a claim loop on the crew. One range runs
    /// inline on the caller.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a range that panicked (see
    /// [`Executor::claim`]); the pool keeps serving.
    pub fn run_chunks<R, F>(&self, n: usize, threads: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        let size = n.div_ceil(threads.clamp(1, self.threads())).max(1);
        Executor::Pool(self).claim(
            n.div_ceil(size),
            || (),
            |_, c| f(c * size, ((c + 1) * size).min(n)),
        )
    }
}

/// A crew worker: claims an item of the next live job round-robin,
/// runs it outside the lock, settles back, and parks while no job has
/// items left.
fn worker_loop(crew: &Crew, w: usize) {
    let mut state = lock(&crew.state);
    loop {
        if state.shutdown {
            return;
        }
        let live = state.jobs.len();
        let pick = (0..live)
            .map(|k| (state.turn + k) % live)
            .find(|&at| !state.jobs[at].job().exhausted());
        let Some(at) = pick else {
            state = wait(&crew.work, state);
            continue;
        };
        state.turn = at + 1;
        let entry = &mut state.jobs[at];
        entry.active += 1;
        let (id, job) = (entry.id, entry.job);
        drop(state);
        // SAFETY: pinned (`active > 0`), so the submitter keeps the job
        // alive until this worker settles back below. A panic inside is
        // caught by the job and never unwinds the worker.
        let job = unsafe { &*job };
        job.step_as(w);
        state = lock(&crew.state);
        let entry = state.jobs.iter_mut().find(|e| e.id == id);
        let entry = entry.expect("a pinned job stays registered");
        entry.active -= 1;
        if entry.active == 0 && job.exhausted() {
            crew.done.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.crew.state).shutdown = true;
        self.crew.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

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
    fn claims_match_the_serial_map() {
        for width in 1..=5 {
            let pool = Pool::new(width);
            for n in [0usize, 1, 7, 1000] {
                let serial: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
                for executor in [Executor::Scoped(width), Executor::Pool(&pool)] {
                    // A worker builds its state once and keeps it: the
                    // claims it counts cover every item exactly once.
                    let inits = AtomicUsize::new(0);
                    let claimed = AtomicUsize::new(0);
                    let out = executor.claim(
                        n,
                        || {
                            inits.fetch_add(1, Ordering::Relaxed);
                            CountOnDrop(0, &claimed)
                        },
                        |seen, i| {
                            seen.0 += 1;
                            (i * i + 3) as u64
                        },
                    );
                    assert_eq!(out, serial, "n={n} width={width}");
                    assert!(inits.into_inner() <= width.max(1), "n={n} width={width}");
                    assert_eq!(claimed.into_inner(), n, "n={n} width={width}");
                }
            }
        }
    }

    /// Adds the claims a worker counted to a shared total when its
    /// state is dropped at the end of the call.
    struct CountOnDrop<'a>(usize, &'a AtomicUsize);

    impl Drop for CountOnDrop<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(self.0, Ordering::Relaxed);
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 7, 64, 1000] {
            for t in [1usize, 2, 5, 16] {
                let ranges = pool.run_chunks(n, t, |s, e| (s, e));
                assert!(ranges.len() <= t.min(4), "n={n} t={t}: {ranges:?}");
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
        // A poisoned job reaches its submitter with the worker's own
        // panic payload, and only once the job has stopped.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_chunks(10, 2, |s, _| {
                if s == 0 {
                    panic!("injected worker fault");
                }
                s
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"injected worker fault"));
        // The crew is healthy: the next job runs clean on the same
        // workers and returns full results.
        let clean = pool.run_chunks(8, 2, |s, e| e - s);
        assert_eq!(clean.iter().sum::<usize>(), 8);
    }

    #[test]
    fn a_panicking_job_poisons_itself_not_the_crew() {
        let pool = Pool::new(2);
        let (panicked, seen) = mpsc::channel();
        let seen = Mutex::new(seen);
        std::thread::scope(|scope| {
            let pool = &pool;
            let panicked = &panicked;
            let bad = scope.spawn(move || {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    Executor::Pool(pool).claim(
                        100,
                        || (),
                        |_, i| {
                            if i == 3 {
                                panicked.send(()).unwrap();
                                panic!("bad item");
                            }
                            i
                        },
                    )
                }))
            });
            // Item 0 of the good job waits until the bad job has
            // panicked, so the two are live on the crew together.
            let good = Executor::Pool(pool).claim(
                1000,
                || (),
                |_, i| {
                    if i == 0 {
                        lock(&seen).recv().unwrap();
                    }
                    i * 3
                },
            );
            assert_eq!(good, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
            let err = bad.join().unwrap().unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"bad item"));
        });
        let next = Executor::Pool(&pool).claim(64, || (), |_, i| i + 1);
        assert_eq!(next, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn a_short_job_behind_a_long_one_finishes_first() {
        // One worker. Every item of the long job announces itself and
        // waits for a token; the short job is registered while the
        // worker sits in the long job's first item.
        let pool = Pool::new(1);
        let (started, long_items) = mpsc::channel();
        let (token, tokens) = mpsc::channel::<()>();
        let tokens = Mutex::new(tokens);
        let short_done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (pool, short_done) = (&pool, &short_done);
            let long = scope.spawn(|| {
                Executor::Pool(pool).claim(
                    3,
                    || (),
                    |_, i| {
                        started.send(i).unwrap();
                        lock(&tokens).recv().unwrap();
                        i
                    },
                )
            });
            assert_eq!(long_items.recv().unwrap(), 0);
            let short = scope.spawn(move || {
                Executor::Pool(pool).claim(
                    2,
                    || (),
                    |_, i| {
                        short_done.fetch_add(1, Ordering::Relaxed);
                        10 + i
                    },
                )
            });
            while lock(&pool.crew.state).jobs.len() < 2 {
                std::thread::yield_now();
            }
            // Each token finishes one long item; the claim after it
            // goes to the short job.
            token.send(()).unwrap();
            assert_eq!(long_items.recv().unwrap(), 1);
            assert_eq!(short_done.load(Ordering::Relaxed), 1);
            token.send(()).unwrap();
            assert_eq!(long_items.recv().unwrap(), 2);
            // The short job is complete; the long one is still in its
            // last item.
            assert_eq!(short_done.load(Ordering::Relaxed), 2);
            assert_eq!(short.join().unwrap(), vec![10, 11]);
            assert!(!long.is_finished());
            token.send(()).unwrap();
            assert_eq!(long.join().unwrap(), vec![0, 1, 2]);
        });
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
        // Progress is shared the same way.
        clone.tick();
        token.tick();
        assert_eq!((token.progress(), clone.progress()), (2, 2));
        // A fresh token is independent.
        assert!(!CancelToken::default().is_cancelled());
        assert_eq!(CancelToken::default().progress(), 0);
    }

    #[test]
    fn pool_concurrent_submitters_serialize() {
        // Concurrent submitters share the crew item by item; each gets
        // exactly its own results.
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
