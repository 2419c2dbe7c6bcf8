//! Supervision: frame deadlines, retry/backoff and the per-scene
//! circuit breaker.
//!
//! Admission control is a policy for work the tier has not accepted
//! yet. This module supervises the work it *has* accepted:
//!
//! * **Deadlines.** Every admitted frame carries the deadline of its
//!   [`DeadlineClass`]'s wall-clock budget ([`SupervisorConfig`]). The
//!   server's one supervision pass visits every shard, and each shard
//!   times out its own overdue frames, queued and running alike
//!   ([`FrameCore::time_out`](crate::frame::FrameCore::time_out)): the
//!   handle resolves with
//!   [`ServeError::TimedOut`](crate::ServeError::TimedOut) — a frame
//!   can be slow, but its caller can never be stuck. The pass runs at
//!   least 40 times per shortest budget and wakes at the earliest
//!   pending deadline, so a timeout lands on time without any
//!   admission waking the thread.
//! * **Cancellation.** When a frame times out mid-render, the timeout
//!   fires the frame's own attempt
//!   [`CancelToken`](gen_nerf_parallel::CancelToken); the render
//!   pipeline polls it at per-ray boundaries, so the shard worker and
//!   the crew workers on its tiles drain within one ray's work instead
//!   of sleeping out a stall.
//! * **Retry.** A transient batch failure (an injected panic, a
//!   corrupt render) requeues each surviving frame at the front of its
//!   session's lane under a bounded [`RetryPolicy`] — exponential
//!   backoff, attempt-capped, never at or past the frame's deadline.
//!   The backoff is waited out in the queue, not on the shard thread,
//!   which serves other sessions meanwhile; the retry then renders
//!   alone. All render RNG is pose/seed derived, so a retried frame is
//!   bitwise identical to a clean one.
//! * **Breaking.** A per-scene [`CircuitBreaker`] watches the
//!   success/failure history. A scene failing persistently trips the
//!   breaker Open: its submissions shed instantly with
//!   [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen)
//!   instead of burning render budget, until a cooldown admits a small
//!   quota of HalfOpen probe frames whose outcomes close (or re-open)
//!   the circuit. Every state-machine method takes an explicit `now`,
//!   so `tests/shard_scheduling.rs` can property-test transitions
//!   against a reference model on synthetic clocks.

use crate::session::DeadlineClass;
use crate::{doubling_backoff, lock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-class wall-clock frame budgets, enforced by the server's
/// supervision pass. A budget too long to add to an instant means no
/// deadline.
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
    /// The wall-clock budget of `class`.
    pub fn budget(&self, class: DeadlineClass) -> Duration {
        match class {
            DeadlineClass::Interactive => self.interactive_budget,
            DeadlineClass::BestEffort => self.best_effort_budget,
        }
    }
}

/// Deadline counters summed over a server's shards (a point-in-time
/// snapshot of their `serve_frames_timed_out_total{class}` and
/// `serve_frames_in_flight` meters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Interactive frames resolved with a timeout.
    pub timed_out_interactive: u64,
    /// BestEffort frames resolved with a timeout.
    pub timed_out_best_effort: u64,
    /// Frames currently in flight (admitted, not yet resolved).
    pub in_flight: usize,
}

impl SupervisorStats {
    /// Timeouts across both classes.
    pub fn timed_out_total(&self) -> u64 {
        self.timed_out_interactive + self.timed_out_best_effort
    }
}

/// Backoff before the first retry; each further retry doubles it.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Ceiling on any single retry backoff.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Bounded re-render policy for transiently failed frames (render
/// panics, corrupt renders). A failed frame goes back to the front of
/// its session's lane, and no pop takes it before its backoff (10 ms,
/// doubling, capped at 200 ms) is over; meanwhile its shard serves the
/// other sessions. Retries are attempt-capped, render alone, and are
/// never scheduled at or past the frame's deadline — the deadline owns
/// the final word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total render attempts per frame, including the first
    /// (`1` disables retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Three attempts.
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn disabled() -> Self {
        Self { max_attempts: 1 }
    }

    /// How long a frame that failed `attempt` attempts waits in its lane
    /// before the next (attempt 1 is the first retry): 10 ms ·
    /// 2^(attempt−1), capped at 200 ms.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        doubling_backoff(RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, attempt)
    }
}

/// Failure rate (within the window) at which a closed breaker opens.
const FAILURE_THRESHOLD: f64 = 0.5;

/// Circuit-breaker tuning. See [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding window of most recent frame outcomes consulted while
    /// Closed.
    pub window: usize,
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
            min_samples: 8,
            cooldown: Duration::from_secs(2),
            probe_quota: 2,
        }
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
/// window holds at least `min_samples` outcomes and half or more of
/// them are failures, the circuit **Opens** and every
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
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window, under `cfg` normalised
    /// however it was built: a window and a probe quota of at least
    /// one, and at most `window` minimum samples (more could never be
    /// in the window, and the circuit could never open).
    pub fn new(mut cfg: BreakerConfig) -> Self {
        cfg.window = cfg.window.max(1);
        cfg.min_samples = cfg.min_samples.clamp(1, cfg.window);
        cfg.probe_quota = cfg.probe_quota.max(1);
        Self {
            cfg,
            inner: Mutex::new(BreakerInner::Closed {
                outcomes: std::collections::VecDeque::new(),
            }),
            trips: AtomicU64::new(0),
        }
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
                    if failures as f64 / n as f64 >= FAILURE_THRESHOLD {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(5), Duration::from_millis(160));
        assert_eq!(p.backoff(6), Duration::from_millis(200)); // capped
        assert_eq!(p.backoff(9), Duration::from_millis(200));
    }

    #[test]
    fn breaker_trips_on_failure_rate_and_probes_back() {
        let base = Instant::now();
        let cfg = BreakerConfig {
            window: 4,
            min_samples: 4,
            cooldown: Duration::from_millis(100),
            probe_quota: 2,
        };
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
        let cfg = BreakerConfig {
            window: 2,
            min_samples: 2,
            cooldown: Duration::from_millis(100),
            probe_quota: 1,
        };
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
        let cfg = BreakerConfig {
            window: 2,
            min_samples: 2,
            cooldown: Duration::from_millis(10),
            probe_quota: 2,
        };
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
