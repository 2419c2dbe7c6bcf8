//! Supervision: frame deadlines, the watchdog thread, retry/backoff
//! and the per-scene circuit breaker.
//!
//! Admission control is a policy for work the tier has not accepted
//! yet. This module supervises the work it *has* accepted:
//!
//! * **Deadlines.** Every admitted frame is watched against its
//!   [`DeadlineClass`]'s wall-clock budget ([`SupervisorConfig`]). A
//!   single watchdog thread sleeps until the earliest deadline and
//!   times overdue frames out
//!   ([`FrameCore::time_out`](crate::frame::FrameCore::time_out)): the
//!   handle resolves with
//!   [`ServeError::TimedOut`](crate::ServeError::TimedOut) — a frame
//!   can be slow, but its caller can never be stuck.
//! * **Cancellation.** When a watched frame times out mid-render, the
//!   watchdog fires the attempt's
//!   [`CancelToken`](gen_nerf_parallel::CancelToken); the render
//!   pipeline polls it at per-ray boundaries, so the shard worker and
//!   its pool slice drain within one ray's work instead of sleeping
//!   out a stall.
//! * **Retry.** Transient batch failures (an injected panic, a
//!   poisoned pool) re-render the surviving frames one at a time under
//!   a bounded [`RetryPolicy`] — exponential backoff, attempt-capped,
//!   never past the frame's deadline. All render RNG is pose/seed
//!   derived, so a retried frame is bitwise identical to a clean one.
//! * **Breaking.** A per-scene [`CircuitBreaker`] watches the
//!   success/failure history. A scene failing persistently trips the
//!   breaker Open: its submissions shed instantly with
//!   [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen)
//!   instead of burning render budget, until a cooldown admits a small
//!   quota of HalfOpen probe frames whose outcomes close (or re-open)
//!   the circuit. Every state-machine method takes an explicit `now`,
//!   so `tests/shard_scheduling.rs` can property-test transitions
//!   against a reference model on synthetic clocks.

use crate::admission::N_CLASSES;
use crate::frame::FrameCore;
use crate::session::DeadlineClass;
use crate::{lock, wait, wait_timeout};
use gen_nerf_parallel::CancelToken;
use gen_nerf_telemetry::{Clock, Counter, Gauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-class wall-clock frame budgets enforced by the server's
/// watchdog (`Supervisor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Budget for [`DeadlineClass::Interactive`] frames, submission to
    /// resolution.
    pub interactive_budget: Duration,
    /// Budget for [`DeadlineClass::BestEffort`] frames.
    pub best_effort_budget: Duration,
}

impl Default for SupervisorConfig {
    /// Generous defaults (10 s interactive, 30 s best-effort): wide
    /// enough that healthy renders — including deliberately stalled
    /// test frames — never time out spuriously, tight enough that
    /// nothing waits forever. Serving deployments tune these down to
    /// their real frame budgets.
    fn default() -> Self {
        Self {
            interactive_budget: Duration::from_secs(10),
            best_effort_budget: Duration::from_secs(30),
        }
    }
}

impl SupervisorConfig {
    /// Sets the Interactive frame budget.
    pub fn with_interactive_budget(mut self, budget: Duration) -> Self {
        self.interactive_budget = budget;
        self
    }

    /// Sets the BestEffort frame budget.
    pub fn with_best_effort_budget(mut self, budget: Duration) -> Self {
        self.best_effort_budget = budget;
        self
    }

    /// The wall-clock budget of `class`.
    pub fn budget(&self, class: DeadlineClass) -> Duration {
        match class {
            DeadlineClass::Interactive => self.interactive_budget,
            DeadlineClass::BestEffort => self.best_effort_budget,
        }
    }
}

/// Watchdog counters (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Frames ever registered with the watchdog.
    pub watched: u64,
    /// Interactive frames resolved with a timeout.
    pub timed_out_interactive: u64,
    /// BestEffort frames resolved with a timeout.
    pub timed_out_best_effort: u64,
    /// Frames currently in flight (watched, not yet resolved).
    pub in_flight: usize,
}

impl SupervisorStats {
    /// Timeouts across both classes.
    pub fn timed_out_total(&self) -> u64 {
        self.timed_out_interactive + self.timed_out_best_effort
    }
}

/// The watchdog's server-wide meters, labelled `{instance}` only.
/// Registered here and read for [`SupervisorStats`]; moved only by the
/// frame lifecycle ([`crate::frame`]), which reaches them through
/// every shard's [`Meters`](crate::shard::Meters).
#[derive(Clone, Copy)]
pub(crate) struct WatchMeters {
    pub watched: Counter,
    /// Frames admitted and not yet resolved
    /// (`serve_frames_in_flight`).
    pub in_flight: Gauge,
    /// `serve_frames_timed_out_total{class}`, indexed by
    /// [`class_index`](crate::admission::class_index).
    pub timed_out: [Counter; N_CLASSES],
}

/// One watched frame: the shared core to time out, the absolute
/// deadline, and (once rendering) the attempt's cancel token.
struct WatchEntry {
    frame: Arc<FrameCore>,
    deadline: Instant,
    cancel: Option<CancelToken>,
}

struct WatchState {
    watches: HashMap<u64, WatchEntry>,
    shutdown: bool,
}

/// A periodic callback run on the watchdog thread (the server installs
/// its shard health sweep here, so self-healing needs no extra thread).
struct SweepHook {
    interval: Duration,
    /// When the hook last ran (on the supervisor clock); `None` until
    /// the first run.
    last: Option<Instant>,
    run: Box<dyn FnMut() + Send>,
}

struct SupervisorInner {
    state: Mutex<WatchState>,
    /// Wakes the watchdog: a new (possibly earlier) watch or shutdown.
    wake: Condvar,
    /// The periodic sweep hook, under its own lock so running it never
    /// holds the watch state (the hook takes the server's topology
    /// lock and ends frames, which unwatch them).
    sweep: Mutex<Option<SweepHook>>,
    /// Deadline arithmetic goes through this clock so tests can drive
    /// the watchdog on virtual time.
    clock: Clock,
    next_id: AtomicU64,
}

/// The frame watchdog: one thread per server, asleep until the
/// earliest outstanding deadline, timing out every overdue frame and
/// cancelling its render. Shared by every shard context: frames
/// register at admission, attach a cancel token per render attempt,
/// and unwatch when they end.
pub(crate) struct Supervisor {
    inner: Arc<SupervisorInner>,
    pub meters: WatchMeters,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    pub(crate) fn spawn(instance: u64, clock: Clock) -> Self {
        let inst = instance.to_string();
        let labels: [(&'static str, &str); 1] = [("instance", &inst)];
        let timed_out = |class: &str| {
            gen_nerf_telemetry::counter(
                "serve_frames_timed_out_total",
                &[("instance", &inst), ("class", class)],
            )
        };
        let meters = WatchMeters {
            watched: gen_nerf_telemetry::counter("serve_frames_watched_total", &labels),
            in_flight: gen_nerf_telemetry::gauge("serve_frames_in_flight", &labels),
            timed_out: ["interactive", "best_effort"].map(timed_out),
        };
        let inner = Arc::new(SupervisorInner {
            state: Mutex::new(WatchState {
                watches: HashMap::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            sweep: Mutex::new(None),
            clock,
            next_id: AtomicU64::new(1),
        });
        let loop_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("gen-nerf-watchdog".to_string())
            .spawn(move || watchdog_loop(&loop_inner))
            .expect("spawn watchdog thread");
        Self {
            inner,
            meters,
            thread: Some(thread),
        }
    }

    /// Watches `frame` against `deadline`; returns the watch id the
    /// frame carries until it ends.
    pub(crate) fn watch(&self, frame: &Arc<FrameCore>, deadline: Instant) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = WatchEntry {
            frame: Arc::clone(frame),
            deadline,
            cancel: None,
        };
        lock(&self.inner.state).watches.insert(id, entry);
        // The new deadline may be the earliest; the watchdog re-reads
        // the minimum on every wake, so one notify is always enough.
        self.inner.wake.notify_all();
        id
    }

    /// Attaches the executing attempt's cancel token to `watch`, so a
    /// timeout fired mid-render reclaims the worker. A no-op when the
    /// watch already timed out (the shard detects that through the
    /// frame and skips the render).
    pub(crate) fn begin_render(&self, watch: u64, cancel: &CancelToken) {
        if let Some(entry) = lock(&self.inner.state).watches.get_mut(&watch) {
            entry.cancel = Some(cancel.clone());
        }
    }

    /// Drops the watch of an ended frame (idempotent: the watchdog
    /// removes timed-out watches itself).
    pub(crate) fn unwatch(&self, watch: u64) {
        lock(&self.inner.state).watches.remove(&watch);
    }

    /// Installs (or replaces) the periodic sweep hook, run on the
    /// watchdog thread every `interval` (on the supervisor clock),
    /// with the watch-state lock released: the server's health sweep
    /// takes the topology lock, then per-shard locks, then possibly
    /// the watch state (ending a frame unwatches it), and nothing
    /// takes those in the opposite order.
    pub(crate) fn set_sweep(&self, interval: Duration, run: Box<dyn FnMut() + Send>) {
        *lock(&self.inner.sweep) = Some(SweepHook {
            interval: interval.max(Duration::from_millis(1)),
            last: None,
            run,
        });
        // The watchdog may be in an unbounded idle wait from before
        // the hook existed.
        self.inner.wake.notify_all();
    }

    /// Frames currently under watch.
    #[cfg(test)]
    pub(crate) fn watching(&self) -> usize {
        lock(&self.inner.state).watches.len()
    }

    /// The clock this supervisor's deadline math runs on.
    pub(crate) fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    pub(crate) fn stats(&self) -> SupervisorStats {
        let m = &self.meters;
        let [interactive, best_effort] = m.timed_out;
        SupervisorStats {
            watched: m.watched.get(),
            timed_out_interactive: interactive.get(),
            timed_out_best_effort: best_effort.get(),
            in_flight: m.in_flight.get().max(0) as usize,
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.wake.notify_all();
        if let Some(handle) = self.thread.take() {
            // The sweep hook runs on the watchdog thread and may hold
            // the last strong reference to structures that own this
            // supervisor — if that drop lands here, on the watchdog
            // itself, joining would deadlock on self. Detach instead:
            // shutdown is set, so the loop exits on its own.
            if handle.thread().id() == std::thread::current().id() {
                return;
            }
            let _ = handle.join();
        }
    }
}

/// The watchdog body: time out every overdue watch, run the sweep hook
/// if due, then sleep until the earliest remaining deadline or the
/// next sweep (or a wake). The watch-state lock is **released** while
/// the sweep hook runs.
fn watchdog_loop(inner: &SupervisorInner) {
    loop {
        {
            let mut state = lock(&inner.state);
            if state.shutdown {
                return;
            }
            let now = inner.clock.now();
            state.watches.retain(|_, watch| {
                if watch.deadline > now {
                    return true;
                }
                // First write wins: the shard may have resolved the
                // frame a moment ago without dropping the watch yet —
                // then this is a no-op, not a timeout. A winning
                // timeout reclaims the worker: the render polls the
                // token at per-ray boundaries and drains.
                if watch.frame.time_out(now) {
                    if let Some(cancel) = &watch.cancel {
                        cancel.cancel();
                    }
                }
                false
            });
        }
        // Watch state released: run the sweep hook if its interval
        // elapsed, and learn how long until it is next due.
        let sweep_wait: Option<Duration> = lock(&inner.sweep).as_mut().map(|hook| {
            let now = inner.clock.now();
            match hook.last.map(|last| now.saturating_duration_since(last)) {
                Some(since) if since < hook.interval => hook.interval - since,
                _ => {
                    (hook.run)();
                    hook.last = Some(inner.clock.now());
                    hook.interval
                }
            }
        });
        // Re-acquire and sleep. Deadlines are recomputed under the
        // fresh guard: a watch registered while the sweep ran is seen.
        let state = lock(&inner.state);
        if state.shutdown {
            return;
        }
        let deadline_wait = state
            .watches
            .values()
            .map(|w| w.deadline)
            .min()
            .map(|deadline| deadline.saturating_duration_since(inner.clock.now()));
        match deadline_wait.into_iter().chain(sweep_wait).min() {
            Some(nap) => {
                let mut nap = nap.max(Duration::from_millis(1));
                if inner.clock.is_virtual() {
                    // Virtual time advances out of band; poll so an
                    // `advance` past a deadline is noticed promptly.
                    nap = nap.min(Duration::from_millis(1));
                }
                drop(wait_timeout(&inner.wake, state, nap));
            }
            // Nothing watched and no sweep installed: sleep until a
            // registration (or shutdown) wakes us.
            None => drop(wait(&inner.wake, state)),
        }
    }
}

/// Bounded re-render policy for transiently failed frames (render
/// panics, poisoned pools). Retries are attempt-capped, exponentially
/// backed off, and never scheduled past the frame's deadline — the
/// watchdog owns the final word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total render attempts per frame, including the first
    /// (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; each further retry doubles it.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms → 20 ms backoff, capped at 200 ms.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Sets the total attempt cap (at least one).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the base backoff (doubled per further retry).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// The backoff before attempt `attempt` (attempts count from 0;
    /// attempt 1 is the first retry): `base * 2^(attempt-1)`, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return self.backoff_base.min(self.backoff_cap);
        }
        let factor = 1u32 << (attempt - 1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Circuit-breaker tuning. See [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window of most recent frame outcomes consulted while
    /// Closed.
    pub window: usize,
    /// Failure rate (within the window) at which the breaker opens.
    pub failure_threshold: f64,
    /// Minimum outcomes in the window before the rate is trusted — a
    /// single early failure must not open a fresh circuit.
    pub min_samples: usize,
    /// How long an Open circuit sheds before admitting probes.
    pub cooldown: Duration,
    /// Probe frames admitted in HalfOpen; all must succeed to close.
    pub probe_quota: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 16,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_secs(2),
            probe_quota: 2,
        }
    }
}

impl BreakerConfig {
    /// Sets the failure window and the minimum sample count.
    pub fn with_window(mut self, window: usize, min_samples: usize) -> Self {
        self.window = window.max(1);
        self.min_samples = min_samples.clamp(1, self.window);
        self
    }

    /// Sets the opening failure-rate threshold (clamped to (0, 1]).
    pub fn with_failure_threshold(mut self, threshold: f64) -> Self {
        self.failure_threshold = threshold.clamp(f64::EPSILON, 1.0);
        self
    }

    /// Sets the Open→HalfOpen cooldown.
    pub fn with_cooldown(mut self, cooldown: Duration) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Sets the HalfOpen probe quota (at least one).
    pub fn with_probe_quota(mut self, quota: u32) -> Self {
        self.probe_quota = quota.max(1);
        self
    }
}

/// The three circuit states. `Open` and `HalfOpen` carry no public
/// payload; interrogate the breaker with [`CircuitBreaker::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every submission admitted, outcomes windowed.
    Closed,
    /// Tripped: submissions shed until the cooldown elapses.
    Open,
    /// Probing: up to the probe quota admitted; their outcomes close
    /// or re-open the circuit.
    HalfOpen,
}

/// What the breaker decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAdmit {
    /// Circuit closed: admit normally.
    Admit,
    /// Circuit half-open: admit as a probe (its outcome must be
    /// recorded with `probe = true`, or released with
    /// [`CircuitBreaker::abort_probe`] if never rendered).
    Probe,
    /// Circuit open: shed with
    /// [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen).
    Shed,
}

enum BreakerInner {
    Closed {
        /// Most recent outcomes, `true` = success (front = oldest).
        outcomes: std::collections::VecDeque<bool>,
    },
    Open {
        since: Instant,
    },
    HalfOpen {
        /// Probes admitted and not yet resolved.
        in_flight: u32,
        /// Probes that succeeded this HalfOpen episode.
        successes: u32,
    },
}

/// A per-scene failure-rate circuit breaker (Closed → Open →
/// HalfOpen).
///
/// While **Closed**, frame outcomes feed a sliding window; once the
/// window holds at least `min_samples` outcomes and its failure rate
/// reaches `failure_threshold`, the circuit **Opens** and every
/// submission for the scene sheds immediately — a sick scene costs an
/// error result, not a render slot. After `cooldown`, the next
/// submission flips the circuit **HalfOpen**: up to `probe_quota`
/// frames are admitted as probes. A failed probe re-opens the circuit
/// (restarting the cooldown); `probe_quota` successful probes close it
/// with a fresh window.
///
/// Every method takes an explicit `now` so the state machine is a pure
/// function of its call sequence — deterministic under test (the
/// proptest in `tests/shard_scheduling.rs` drives it on a synthetic
/// clock). Outcomes of frames admitted *before* a trip are ignored
/// while Open/HalfOpen: stragglers of the sick era must not corrupt
/// probe accounting.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    clock: Clock,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    shed: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window, on the real clock.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self::with_clock(cfg, Clock::real())
    }

    /// A closed breaker whose convenience methods
    /// ([`CircuitBreaker::admit_now`], [`CircuitBreaker::record_now`])
    /// read `clock` — pass a [`Clock::virtual_clock`] to drive the
    /// state machine on deterministic time (the breaker proptest does).
    pub fn with_clock(cfg: BreakerConfig, clock: Clock) -> Self {
        Self {
            cfg,
            clock,
            inner: Mutex::new(BreakerInner::Closed {
                outcomes: std::collections::VecDeque::new(),
            }),
            trips: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The clock behind [`CircuitBreaker::admit_now`] /
    /// [`CircuitBreaker::record_now`].
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// [`CircuitBreaker::admit`] at the breaker clock's current time.
    pub fn admit_now(&self) -> BreakerAdmit {
        self.admit(self.clock.now())
    }

    /// [`CircuitBreaker::record`] at the breaker clock's current time.
    pub fn record_now(&self, ok: bool, probe: bool) {
        self.record(ok, probe, self.clock.now());
    }

    /// Decides one submission at `now`. `Probe` admissions must be
    /// resolved by a matching [`CircuitBreaker::record`] with
    /// `probe = true` (or released with
    /// [`CircuitBreaker::abort_probe`]).
    pub fn admit(&self, now: Instant) -> BreakerAdmit {
        let mut inner = lock(&self.inner);
        match &mut *inner {
            BreakerInner::Closed { .. } => BreakerAdmit::Admit,
            BreakerInner::Open { since } => {
                if now.saturating_duration_since(*since) < self.cfg.cooldown {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return BreakerAdmit::Shed;
                }
                // Cooldown over: this submission is the first probe.
                *inner = BreakerInner::HalfOpen {
                    in_flight: 1,
                    successes: 0,
                };
                BreakerAdmit::Probe
            }
            BreakerInner::HalfOpen {
                in_flight,
                successes,
            } => {
                if *in_flight + *successes < self.cfg.probe_quota {
                    *in_flight += 1;
                    BreakerAdmit::Probe
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    BreakerAdmit::Shed
                }
            }
        }
    }

    /// Records one frame outcome at `now`. `probe` marks outcomes of
    /// frames admitted as HalfOpen probes; non-probe outcomes are
    /// ignored unless the circuit is Closed (stragglers of a tripped
    /// era carry no signal about recovery).
    pub fn record(&self, ok: bool, probe: bool, now: Instant) {
        let mut inner = lock(&self.inner);
        match &mut *inner {
            BreakerInner::Closed { outcomes } => {
                // A probe outcome arriving while Closed means the
                // circuit already closed on earlier probes; it windows
                // like any other outcome.
                let _ = probe;
                outcomes.push_back(ok);
                while outcomes.len() > self.cfg.window {
                    outcomes.pop_front();
                }
                let n = outcomes.len();
                if n >= self.cfg.min_samples {
                    let failures = outcomes.iter().filter(|&&o| !o).count();
                    if failures as f64 / n as f64 >= self.cfg.failure_threshold {
                        *inner = BreakerInner::Open { since: now };
                        self.trips.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            BreakerInner::Open { .. } => {}
            BreakerInner::HalfOpen {
                in_flight,
                successes,
            } => {
                if !probe {
                    return;
                }
                *in_flight = in_flight.saturating_sub(1);
                if ok {
                    *successes += 1;
                    if *successes >= self.cfg.probe_quota {
                        *inner = BreakerInner::Closed {
                            outcomes: std::collections::VecDeque::new(),
                        };
                    }
                } else {
                    *inner = BreakerInner::Open { since: now };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Releases a probe admission that will never render (e.g. shed by
    /// depth admission after the breaker admitted it), freeing its
    /// quota slot for another probe.
    pub fn abort_probe(&self) {
        let mut inner = lock(&self.inner);
        if let BreakerInner::HalfOpen { in_flight, .. } = &mut *inner {
            *in_flight = in_flight.saturating_sub(1);
        }
    }

    /// The current state (no transition is taken; an elapsed cooldown
    /// still reports `Open` until a submission flips it).
    pub fn state(&self) -> BreakerState {
        match &*lock(&self.inner) {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Times the circuit has tripped Open (from Closed or HalfOpen).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Submissions shed by this breaker.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35)); // capped
        assert_eq!(p.backoff(9), Duration::from_millis(35));
    }

    #[test]
    fn breaker_trips_on_failure_rate_and_probes_back() {
        let base = Instant::now();
        let cfg = BreakerConfig::default()
            .with_window(4, 4)
            .with_failure_threshold(0.5)
            .with_cooldown(Duration::from_millis(100))
            .with_probe_quota(2);
        let b = CircuitBreaker::new(cfg);
        assert_eq!(b.state(), BreakerState::Closed);
        // Two failures in a window of four at threshold 0.5 → trip.
        for ok in [true, true, false, false] {
            assert_eq!(b.admit(t(base, 0)), BreakerAdmit::Admit);
            b.record(ok, false, t(base, 0));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Open sheds until the cooldown elapses.
        assert_eq!(b.admit(t(base, 50)), BreakerAdmit::Shed);
        assert_eq!(b.shed(), 1);
        // Cooldown over: exactly the probe quota is admitted.
        assert_eq!(b.admit(t(base, 150)), BreakerAdmit::Probe);
        assert_eq!(b.admit(t(base, 150)), BreakerAdmit::Probe);
        assert_eq!(b.admit(t(base, 150)), BreakerAdmit::Shed);
        // Both probes succeed → Closed with a fresh window.
        b.record(true, true, t(base, 160));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true, true, t(base, 170));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(t(base, 180)), BreakerAdmit::Admit);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let base = Instant::now();
        let cfg = BreakerConfig::default()
            .with_window(2, 2)
            .with_failure_threshold(0.5)
            .with_cooldown(Duration::from_millis(100))
            .with_probe_quota(1);
        let b = CircuitBreaker::new(cfg);
        b.admit(t(base, 0));
        b.record(false, false, t(base, 0));
        b.admit(t(base, 0));
        b.record(false, false, t(base, 0));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t(base, 150)), BreakerAdmit::Probe);
        b.record(false, true, t(base, 160));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // The cooldown restarted at the probe failure (t=160).
        assert_eq!(b.admit(t(base, 200)), BreakerAdmit::Shed);
        assert_eq!(b.admit(t(base, 300)), BreakerAdmit::Probe);
    }

    #[test]
    fn straggler_outcomes_do_not_corrupt_probe_accounting() {
        let base = Instant::now();
        let cfg = BreakerConfig::default()
            .with_window(2, 2)
            .with_cooldown(Duration::from_millis(10))
            .with_probe_quota(2);
        let b = CircuitBreaker::new(cfg);
        b.record(false, false, t(base, 0));
        b.record(false, false, t(base, 0));
        assert_eq!(b.state(), BreakerState::Open);
        // Stragglers while Open: ignored.
        b.record(true, false, t(base, 5));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t(base, 20)), BreakerAdmit::Probe);
        // A non-probe straggler while HalfOpen: ignored.
        b.record(true, false, t(base, 25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Aborted probe frees its slot.
        b.abort_probe();
        assert_eq!(b.admit(t(base, 30)), BreakerAdmit::Probe);
        assert_eq!(b.admit(t(base, 30)), BreakerAdmit::Probe);
        assert_eq!(b.admit(t(base, 30)), BreakerAdmit::Shed);
    }
}
