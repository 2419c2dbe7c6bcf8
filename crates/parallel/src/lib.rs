//! Deterministic data parallelism over claimed items.
//!
//! The render pipeline, the accelerator simulator and the benchmark
//! harness all fan the same shape of work out over cores: `n`
//! independent items, each mapped to a result, with results needed in
//! item order. This crate has one mechanism for that shape, the
//! **claim loop** ([`Pool::claim`]): workers pull item indices from
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
//! * **Zero dependencies.** `std` threads and synchronisation only; no
//!   external crates.
//!
//! One [`Pool`] runs every claim loop: a pool of width `w` is its
//! caller plus a persistent crew of `w − 1` workers. The caller claims
//! as worker 0 — the thread that creates the work runs it, the
//! work-first principle of Cilk — and the crew only helps, so a
//! submitter never parks while its own items wait, and a claim made
//! from inside an item completes.
//!
//! The worker count comes from [`num_threads`]: the `GEN_NERF_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`]. An owner that wants no pool
//! of its own shares [`default_pool`], one process-wide pool that wide.

#![warn(unreachable_pub)]

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    let set = std::env::var(THREADS_ENV).ok().and_then(|v| v.parse().ok());
    set.filter(|&n: &usize| n >= 1).unwrap_or_else(|| {
        let cores = std::thread::available_parallelism();
        cores.map_or(1, NonZeroUsize::get)
    })
}

/// The process-wide default pool, [`num_threads`] wide, built on first
/// use. Owners that claim on "the default width" share it, so creating
/// one (a `Renderer`, a `Simulator`) allocates no pool and later
/// replacing it with a pool of its own frees none.
pub fn default_pool() -> Arc<Pool> {
    static DEFAULT: OnceLock<Arc<Pool>> = OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| Arc::new(Pool::new(num_threads()))))
}

/// Locks `m`, ignoring poison: every lock here guards data a panic
/// cannot leave half-written (a slot is written whole, a panic payload
/// once), and a panicking item is reported through its job instead.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unwraps `m`, ignoring poison as [`lock`] does.
fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` with `guard`, ignoring poison as [`lock`] does.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The crew whose render slot this thread holds, by address (0 for
    /// none): a crew worker's own, or the pool a submitter is claiming
    /// on. A claim made from inside an item runs on the slot its thread
    /// already holds.
    static SLOT: Cell<usize> = const { Cell::new(0) };
}

/// One claim loop's shared state: the cursor, a slot per item result,
/// and a state cell per worker.
struct Claims<S, R, I, F> {
    /// The next unclaimed item; at or past `n` once none is left. It
    /// publishes no data, so `Relaxed` is enough: results travel
    /// through the slot locks and then the crew lock, and a worker that
    /// settles back into the crew has every claim it made ordered
    /// before that lock.
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
    /// Runs claimed item `i` as worker `w`; `false` if it panicked.
    fn run_as(&self, w: usize, i: usize) -> bool;
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
    fn run_as(&self, w: usize, i: usize) -> bool {
        let run = || {
            let mut state = lock(&self.states[w]);
            let result = (self.f)(state.get_or_insert_with(&self.init), i);
            *lock(&self.slots[i]) = Some(result);
        };
        let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) else {
            return true;
        };
        // The panic poisons this job only: keep the first payload and
        // close the cursor so no further item starts.
        lock(&self.panic).get_or_insert(payload);
        self.next.fetch_max(self.n, Ordering::Relaxed);
        false
    }

    fn step_as(&self, w: usize) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        i < self.n && self.run_as(w, i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

impl<S, R, I, F> Claims<S, R, I, F> {
    /// The results in item order, once every worker has stopped —
    /// or the first item's panic, resumed.
    fn finish(self) -> Vec<R> {
        if let Some(payload) = into_inner(self.panic) {
            panic::resume_unwind(payload);
        }
        let slots = self.slots.into_iter().map(into_inner);
        slots.map(|slot| slot.expect("every item ran")).collect()
    }
}

/// A job registered with the crew: an erased-lifetime pointer to the
/// submitter's [`Claims`], and how many crew workers are inside it.
#[derive(Debug)]
struct Entry {
    id: u64,
    job: *const (dyn Job + 'static),
    /// Workers between claiming from this job and settling back here;
    /// the submitter unregisters the job only once this is zero.
    active: usize,
}

// SAFETY: `job` is the only field that is not `Send`. Its pointee is
// `Sync` (`Job: Sync`), so using it from any worker is sound, and it
// lives on the submitter's stack, which stays in `Pool::claim` until the
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

#[derive(Debug, Default)]
struct CrewState {
    jobs: Vec<Entry>,
    next_id: u64,
    /// Where the next crew claim starts looking: claims rotate
    /// round-robin over live jobs.
    turn: usize,
    /// Threads holding one of the pool's render slots: every submitter
    /// from its arrival until its cursor runs dry, and every crew
    /// worker for the one item it runs.
    running: usize,
    /// The crew workers among `running`.
    helping: usize,
    shutdown: bool,
}

#[derive(Debug)]
struct Crew {
    /// The pool's width: its render slots, and one more than its crew.
    width: usize,
    state: Mutex<CrewState>,
    /// Wakes crew workers: a job registered, a slot freed, or shutdown.
    work: Condvar,
    /// Wakes submitters: a crew worker settled back, or a slot freed.
    done: Condvar,
}

/// A claim-loop executor of width `w`: the caller of [`Pool::claim`]
/// and a persistent crew of `w − 1` workers.
///
/// The crew is spawned on the pool's first claim of two or more items
/// (a width-1 pool, or one only ever handed single items, spawns
/// nothing), parks on a condvar while no job has items left, and
/// lives until the pool drops, so an owner that claims every frame
/// pays no spawn/join tax after its first. Any number of threads may
/// submit at once — the shards of a render server all claim on the
/// server's one pool.
///
/// **The slot protocol.** A submitter always runs its own job: it
/// claims the job's first item before the crew can see it and keeps
/// claiming until the cursor runs dry. Crew workers rotate round-robin
/// over the live jobs, one item per claim, and take an item only while
/// fewer than `w` of the pool's threads hold a render slot; a submitter
/// that arrives when every slot is taken and some crew worker holds
/// one waits for that worker's current item to end. So at most
/// max(`w`, concurrent submitters) threads run items, a short job waits
/// behind at most one item of a long one, and a claim from inside an
/// item runs on the slot its thread already holds. Results are those
/// of a serial map at every width, so the width never changes rendered
/// output (the serve regression suite pins this). A panicking item
/// fails its own job and leaves every worker healthy.
#[derive(Debug)]
pub struct Pool {
    crew: Arc<Crew>,
    workers: OnceLock<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A pool of width `threads` (at least one); spawns nothing yet.
    pub fn new(threads: usize) -> Self {
        Self {
            crew: Arc::new(Crew {
                width: threads.max(1),
                state: Mutex::default(),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: OnceLock::new(),
        }
    }

    /// The pool's width: the submitter plus its crew.
    pub fn threads(&self) -> usize {
        self.crew.width
    }

    /// Runs `f(state, i)` for every item `i` in `0..n` and returns the
    /// results in item order. The caller claims items one at a time
    /// from one atomic cursor as worker 0, with crew workers helping
    /// under the slot protocol (see [`Pool`]); a worker builds its
    /// `state` with `init` on its first claim and keeps it across its
    /// later claims of this call.
    ///
    /// # Panics
    ///
    /// When an item panics, no further item of this call starts, and
    /// the first panic is resumed on the caller once every item in
    /// flight has finished. The crew survives it: the panic belongs to
    /// this call, and the crew's next job runs clean.
    pub fn claim<S, R, I, F>(&self, n: usize, init: I, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let claims = Claims {
            next: AtomicUsize::new(0),
            n,
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            states: (0..self.crew.width).map(|_| Mutex::new(None)).collect(),
            init,
            f,
            panic: Mutex::new(None),
        };
        let crew = &*self.crew;
        let help = n > 1 && crew.width > 1;
        if help {
            // Workers `1..width`; worker 0 is whoever submits.
            self.workers.get_or_init(|| {
                let spawn = |w| {
                    let crew = Arc::clone(&self.crew);
                    std::thread::Builder::new()
                        .name(format!("gen-nerf-pool-{w}"))
                        .spawn(move || worker_loop(&crew, w))
                        .expect("spawn pool worker")
                };
                (1..crew.width).map(spawn).collect()
            });
        }
        // The first item is ours before the crew can see the job.
        let first = claims.next.fetch_add(1, Ordering::Relaxed);
        let key = crew as *const Crew as usize;
        let held = SLOT.with(|slot| slot.replace(key));
        let mut state = lock(&crew.state);
        let id = help.then(|| {
            let job: &(dyn Job + '_) = &claims;
            // SAFETY: only the borrow's lifetime is erased; the job
            // stays registered, and `claims` alive, until no worker
            // holds it, and the entry is removed before this returns.
            let job = unsafe {
                std::mem::transmute::<*const (dyn Job + '_), *const (dyn Job + 'static)>(job)
            };
            let id = state.next_id;
            state.next_id += 1;
            state.jobs.push(Entry { id, job, active: 0 });
            crew.work.notify_all();
            id
        });
        // Take a render slot, unless this claim runs inside an item of
        // this pool and so on its slot; wait only while a crew worker
        // holds a slot the pool is short of.
        if held != key {
            state.running += 1;
            while state.helping > 0 && state.running > crew.width {
                state = wait(&crew.done, state);
            }
        }
        drop(state);
        if first < n && claims.run_as(0, first) {
            while claims.step_as(0) {}
        }
        // The cursor is dry: hand the slot back (to a submitter waiting
        // for one, or to the crew), then wait out the crew's items.
        let mut state = lock(&crew.state);
        if held != key {
            if state.running > crew.width {
                crew.done.notify_all();
            }
            state.running -= 1;
            if state.running + 1 == crew.width && state.jobs.iter().any(|e| !e.job().exhausted()) {
                crew.work.notify_all();
            }
        }
        SLOT.with(|slot| slot.set(held));
        if let Some(id) = id {
            while state.jobs.iter().any(|e| e.id == id && e.active > 0) {
                state = wait(&crew.done, state);
            }
            state.jobs.retain(|e| e.id != id);
        }
        drop(state);
        claims.finish()
    }

    /// Maps `f` over contiguous ranges of `0..n`, concatenating the
    /// per-range results in range order: at most `threads` ranges
    /// (further capped by the pool's width), sized within one item of
    /// each other, each one item of a claim loop. One range runs on the
    /// caller alone.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a range that panicked (see
    /// [`Pool::claim`]); the pool keeps serving.
    pub fn run_chunks<R, F>(&self, n: usize, threads: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        let size = n.div_ceil(threads.clamp(1, self.threads())).max(1);
        self.claim(
            n.div_ceil(size),
            || (),
            |_, c| f(c * size, ((c + 1) * size).min(n)),
        )
    }
}

/// Crew worker `w`: while a render slot is free, claims an item of the
/// next live job round-robin, runs it outside the lock and settles
/// back; otherwise parks.
fn worker_loop(crew: &Crew, w: usize) {
    SLOT.with(|slot| slot.set(crew as *const Crew as usize));
    let mut state = lock(&crew.state);
    loop {
        if state.shutdown {
            return;
        }
        let live = state.jobs.len();
        let pick = (0..live)
            .map(|k| (state.turn + k) % live)
            .find(|&at| !state.jobs[at].job().exhausted());
        let Some(at) = pick.filter(|_| state.running < crew.width) else {
            state = wait(&crew.work, state);
            continue;
        };
        state.turn = at + 1;
        state.running += 1;
        state.helping += 1;
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
        // A submitter waits for a slot only while the pool is over-full.
        let crowded = state.running > crew.width;
        state.running -= 1;
        state.helping -= 1;
        let entry = state.jobs.iter_mut().find(|e| e.id == id);
        let entry = entry.expect("a pinned job stays registered");
        entry.active -= 1;
        if crowded || (entry.active == 0 && job.exhausted()) {
            crew.done.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.crew.state).shutdown = true;
        self.crew.work.notify_all();
        for handle in self.workers.take().into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// `f` mapped over `items` on a pool of width `threads`.
    fn par_map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        Pool::new(threads).claim(items.len(), || (), |_, i| f(i, &items[i]))
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |i, &v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(out, (0..1000).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn threads_do_not_change_results() {
        let items: Vec<f64> = (0..337).map(|i| i as f64 * 0.37).collect();
        let work = |_: usize, &x: &f64| (x.sin() * 1e6).round() as i64;
        let one = par_map(&items, 1, work);
        for t in [2, 3, 7, 16] {
            assert_eq!(par_map(&items, t, work), one, "threads = {t}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &v| v).is_empty());
        assert_eq!(par_map(&[9u32], 4, |_, &v| v + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 64, |_, &v| v * 2), vec![2, 4, 6]);
    }

    #[test]
    fn claims_match_the_serial_map() {
        for width in 1..=5 {
            let pool = Pool::new(width);
            for n in [0usize, 1, 7, 1000] {
                let serial: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
                // A worker builds its state once and keeps it: the
                // claims it counts cover every item exactly once.
                let inits = AtomicUsize::new(0);
                let claimed = AtomicUsize::new(0);
                let out = pool.claim(
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
                assert!(inits.into_inner() <= width, "n={n} width={width}");
                assert_eq!(claimed.into_inner(), n, "n={n} width={width}");
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
    fn the_crew_spawns_on_the_first_claim_of_two_items() {
        let pool = Pool::new(3);
        assert!(pool.workers.get().is_none(), "spawned at construction");
        assert_eq!(pool.claim(1, || (), |_, i| i), vec![0]);
        assert!(pool.workers.get().is_none(), "spawned for one item");
        assert_eq!(pool.claim(2, || (), |_, i| i), vec![0, 1]);
        assert_eq!(pool.workers.get().map(Vec::len), Some(2));
        // A width-1 pool has no crew to spawn.
        let solo = Pool::new(1);
        assert_eq!(solo.claim(64, || (), |_, i| i).len(), 64);
        assert_eq!(solo.workers.get().map(Vec::len), None);
    }

    #[test]
    fn pool_reuses_workers_across_jobs() {
        use std::collections::HashSet;
        let pool = Pool::new(3);
        let mut ids = HashSet::new();
        // Many jobs on one pool: the set of threads (the caller and
        // the crew) must not grow with the job count.
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
                    pool.claim(
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
            // Item 0 of the good job, which its submitter runs, waits
            // until the bad job has panicked, so the two are live on
            // the pool together.
            let good = pool.claim(
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
        let next = pool.claim(64, || (), |_, i| i + 1);
        assert_eq!(next, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn a_short_job_behind_a_long_one_finishes_first() {
        // Width 2: the long job's submitter and the crew worker each
        // sit in one of its two items, every item waiting for a token,
        // before the short job is submitted.
        let pool = Pool::new(2);
        let (started, long_items) = mpsc::channel();
        let (token, tokens) = mpsc::channel::<()>();
        let tokens = Mutex::new(tokens);
        std::thread::scope(|scope| {
            let pool = &pool;
            let long = scope.spawn(|| {
                pool.claim(
                    2,
                    || (),
                    |_, i| {
                        started.send(i).unwrap();
                        lock(&tokens).recv().unwrap();
                        i
                    },
                )
            });
            let mut seen = [long_items.recv().unwrap(), long_items.recv().unwrap()];
            seen.sort_unstable();
            assert_eq!(seen, [0, 1]);
            let short = scope.spawn(move || pool.claim(2, || (), |_, i| 10 + i));
            // One token ends one long item, which frees a slot: the
            // short job completes while the other long item still
            // waits.
            token.send(()).unwrap();
            assert_eq!(short.join().unwrap(), vec![10, 11]);
            assert!(!long.is_finished());
            token.send(()).unwrap();
            assert_eq!(long.join().unwrap(), vec![0, 1]);
        });
    }

    #[test]
    fn a_claim_from_inside_an_item_completes() {
        for width in [1, 2, 3] {
            let (sent, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let pool = Pool::new(width);
                let out = pool.claim(
                    4,
                    || (),
                    |_, i| {
                        pool.claim(3, || (), |_, j| i * 10 + j)
                            .iter()
                            .sum::<usize>()
                    },
                );
                let _ = sent.send(out);
            });
            let out = outcome
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("a nested claim hung at width {width}"));
            assert_eq!(out, vec![3, 33, 63, 93], "width {width}");
        }
    }

    #[test]
    fn at_most_max_of_width_and_submitters_threads_run_items() {
        for (width, submitters) in [(1, 3), (2, 1), (2, 2), (3, 2), (4, 2), (2, 5)] {
            let pool = Pool::new(width);
            let inside = AtomicUsize::new(0);
            let high = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..submitters {
                    scope.spawn(|| {
                        for _ in 0..20 {
                            pool.claim(
                                24,
                                || (),
                                |_, i| {
                                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                                    high.fetch_max(now, Ordering::SeqCst);
                                    std::thread::sleep(Duration::from_micros(50));
                                    inside.fetch_sub(1, Ordering::SeqCst);
                                    i
                                },
                            );
                        }
                    });
                }
            });
            let high = high.into_inner();
            let bound = width.max(submitters);
            assert!(
                high <= bound,
                "width {width}, {submitters} submitters: {high} threads"
            );
        }
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
