//! Shard lifecycle: heartbeats, health classification, restart policy.
//!
//! A shard's worker thread is a single point of failure — a loop that
//! dies (panic outside the frame-level `catch_unwind`) or wedges (a
//! stuck render that ignores cancellation) strands every session
//! mapped to it. This module holds the policy side of the self-healing
//! layer:
//!
//! * [`Heartbeat`] — the lock-free progress beacon every shard loop
//!   publishes (an epoch counter plus a last-progress timestamp on the
//!   telemetry [`Clock`](gen_nerf_telemetry::Clock)). The loop beats
//!   on every wakeup, pop, and batch completion, so a healthy shard's
//!   beat is never older than its condvar park interval.
//! * [`ShardHealth`] — the verdict ladder the supervisor's health
//!   sweep walks: `Healthy` → `Wedged` (beat older than the budget
//!   while work is pending, or a persistently poisoned pool) → `Dead`
//!   (worker `JoinHandle` finished while the queue is still open).
//! * [`HealthConfig`] — budgets and thresholds: the heartbeat budget,
//!   the sweep cadence, the exponential restart backoff, the give-up
//!   threshold past which a shard is declared down, and the
//!   poison-streak escalation points.
//! * [`DrainReport`]/[`DrainOutcome`] — what
//!   [`RenderServer::drain`](crate::RenderServer::drain) returns.
//!
//! The mechanism side — condemning, tearing down, and respawning a
//! shard — lives with the shard itself (`shard.rs`); the sweep that
//! drives it is registered on the supervisor's watchdog thread by
//! `RenderServer`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default heartbeat budget. Deliberately above the worst legitimate
/// gap between beats: a batch stalls at most one deadline budget
/// before the watchdog cancels it (the chaos harness stalls up to
/// ~1.5 s), and the loop beats as soon as the batch returns.
const DEFAULT_HEARTBEAT_BUDGET: Duration = Duration::from_millis(2000);

/// The health sweep's verdict for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Beating within budget (or idle with an empty queue).
    Healthy,
    /// No heartbeat past the budget while frames are queued, or the
    /// pool poison streak crossed the condemn threshold. The worker
    /// thread is still running but not making progress.
    Wedged,
    /// The worker thread finished while the queue was still open — the
    /// loop panicked or exited without being asked to.
    Dead,
}

/// Why a shard was condemned — the `b` payload of a
/// [`Condemn`](gen_nerf_telemetry::EventKind::Condemn) trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondemnReason {
    /// Heartbeat older than the budget with work pending.
    Wedged,
    /// Worker `JoinHandle` finished unexpectedly.
    Dead,
    /// Pool poison streak crossed
    /// [`pool_condemn_after`](HealthConfig::pool_condemn_after).
    Poisoned,
}

impl CondemnReason {
    /// Stable wire code for trace events.
    pub fn code(self) -> u64 {
        match self {
            CondemnReason::Wedged => 0,
            CondemnReason::Dead => 1,
            CondemnReason::Poisoned => 2,
        }
    }
}

/// Budgets and thresholds for the shard health sweep.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// How stale a shard's heartbeat may grow, while frames are
    /// queued, before the sweep condemns it as wedged. Default 2 s.
    pub heartbeat_budget: Duration,
    /// Cadence of the health sweep on the watchdog thread.
    pub sweep_interval: Duration,
    /// Base of the exponential restart backoff: restart `n` (1-based)
    /// waits `restart_backoff * 2^(n-1)`, capped at
    /// [`restart_backoff_cap`](HealthConfig::restart_backoff_cap).
    pub restart_backoff: Duration,
    /// Ceiling of the exponential backoff.
    pub restart_backoff_cap: Duration,
    /// Consecutive restarts (without a successfully rendered frame in
    /// between) after which the shard is declared down: queued frames
    /// fail, and later submissions resolve with
    /// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
    pub max_restarts: u32,
    /// Consecutive poisoned (panicked) render attempts after which the
    /// shard loop respawns its own pool workers in place — the cheap
    /// reclaim that handles a sick pool without a full shard restart.
    pub pool_respawn_after: u32,
    /// Consecutive poisoned attempts after which the sweep condemns
    /// the whole shard (pool respawn did not help). Must be well above
    /// `pool_respawn_after`; the streak only clears on a clean render.
    pub pool_condemn_after: u32,
}

impl HealthConfig {
    /// Overrides the heartbeat budget.
    pub fn with_heartbeat_budget(mut self, budget: Duration) -> Self {
        self.heartbeat_budget = budget.max(Duration::from_millis(1));
        self
    }

    /// Overrides the sweep cadence.
    pub fn with_sweep_interval(mut self, interval: Duration) -> Self {
        self.sweep_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Overrides the restart backoff base and cap.
    pub fn with_restart_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.restart_backoff = base;
        self.restart_backoff_cap = cap.max(base);
        self
    }

    /// Overrides the give-up threshold.
    pub fn with_max_restarts(mut self, max: u32) -> Self {
        self.max_restarts = max;
        self
    }

    /// Overrides the poison escalation thresholds (condemn clamped to
    /// at least the respawn point).
    pub fn with_poison_thresholds(mut self, respawn_after: u32, condemn_after: u32) -> Self {
        self.pool_respawn_after = respawn_after.max(1);
        self.pool_condemn_after = condemn_after.max(self.pool_respawn_after);
        self
    }

    /// Backoff before restart number `consecutive` (1-based):
    /// exponential in the restart count, saturating at the cap.
    pub fn backoff_for(&self, consecutive: u32) -> Duration {
        let shift = consecutive.saturating_sub(1).min(16);
        let factor = 1u32 << shift;
        self.restart_backoff
            .saturating_mul(factor)
            .min(self.restart_backoff_cap)
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            heartbeat_budget: DEFAULT_HEARTBEAT_BUDGET,
            sweep_interval: Duration::from_millis(50),
            restart_backoff: Duration::from_millis(50),
            restart_backoff_cap: Duration::from_secs(2),
            max_restarts: 5,
            pool_respawn_after: 4,
            pool_condemn_after: 24,
        }
    }
}

/// A shard's lock-free progress beacon: a monotonically increasing
/// epoch plus the timestamp of the last beat, both published with
/// relaxed atomics (the sweep tolerates a beat-width race — it only
/// ever misreads staleness by one beat).
///
/// Timestamps are stored as nanoseconds since a fixed `origin` instant
/// taken from the telemetry clock at construction, so a virtual clock
/// drives heartbeat age deterministically in tests.
#[derive(Debug)]
pub(crate) struct Heartbeat {
    /// Count of beats since construction (or the last incarnation).
    epoch: AtomicU64,
    /// Nanoseconds from `origin` to the latest beat.
    last_beat_ns: AtomicU64,
    origin: Instant,
}

impl Heartbeat {
    pub(crate) fn new(origin: Instant) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            last_beat_ns: AtomicU64::new(0),
            origin,
        }
    }

    /// Publishes progress: bumps the epoch and stamps `now`.
    pub(crate) fn beat(&self, now: Instant) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let ns = now.saturating_duration_since(self.origin).as_nanos() as u64;
        self.last_beat_ns.store(ns, Ordering::Relaxed);
    }

    /// Time since the last beat, as seen at `now`.
    pub(crate) fn age(&self, now: Instant) -> Duration {
        let now_ns = now.saturating_duration_since(self.origin).as_nanos() as u64;
        Duration::from_nanos(now_ns.saturating_sub(self.last_beat_ns.load(Ordering::Relaxed)))
    }

    /// Beats since construction.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

/// One shard's lifecycle counters, as reported by
/// [`RenderServer::shard_health`](crate::RenderServer::shard_health).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthStats {
    /// Shard index within the server.
    pub shard: usize,
    /// Worker incarnation: 0 for the original spawn, bumped once per
    /// condemnation.
    pub incarnation: u64,
    /// Total restarts performed over the shard's lifetime.
    pub restarts: u64,
    /// Restarts since the last successfully rendered frame — the
    /// give-up counter.
    pub consecutive_restarts: u32,
    /// Whether the shard has been declared down (give-up threshold
    /// crossed); a down shard rejects submissions with
    /// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
    pub down: bool,
    /// Heartbeat epochs published by the current worker.
    pub heartbeat_epoch: u64,
    /// The sweep's current verdict.
    pub health: ShardHealth,
}

/// Per-shard outcome of a [`RenderServer::drain`](crate::RenderServer::drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Shard index.
    pub shard: usize,
    /// Whether the shard finished all queued and in-flight work within
    /// the deadline.
    pub drained: bool,
    /// Frames force-failed (with
    /// [`ServeError::Draining`](crate::ServeError::Draining)) when the
    /// deadline expired — zero for a clean drain.
    pub forced: u64,
    /// How long this shard's drain took (or consumed before the
    /// deadline cut it off).
    pub waited: Duration,
}

/// What [`RenderServer::drain`](crate::RenderServer::drain) returns:
/// one [`DrainOutcome`] per shard, in shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Per-shard outcomes.
    pub outcomes: Vec<DrainOutcome>,
}

impl DrainReport {
    /// Whether every shard drained cleanly (no forced failures, no
    /// leftover in-flight work).
    pub fn complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.drained && o.forced == 0)
    }

    /// Total frames force-failed at the deadline across all shards.
    pub fn forced_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.forced).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = HealthConfig::default()
            .with_restart_backoff(Duration::from_millis(50), Duration::from_millis(400));
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(50));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(100));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(200));
        assert_eq!(cfg.backoff_for(4), Duration::from_millis(400));
        assert_eq!(cfg.backoff_for(5), Duration::from_millis(400));
        assert_eq!(cfg.backoff_for(60), Duration::from_millis(400));
    }

    #[test]
    fn poison_thresholds_clamp() {
        let cfg = HealthConfig::default().with_poison_thresholds(8, 2);
        assert_eq!(cfg.pool_respawn_after, 8);
        assert_eq!(cfg.pool_condemn_after, 8);
    }

    #[test]
    fn heartbeat_age_tracks_beats() {
        let origin = Instant::now();
        let hb = Heartbeat::new(origin);
        assert_eq!(hb.epoch(), 0);
        let later = origin + Duration::from_millis(500);
        assert_eq!(hb.age(later), Duration::from_millis(500));
        hb.beat(origin + Duration::from_millis(400));
        assert_eq!(hb.epoch(), 1);
        assert_eq!(hb.age(later), Duration::from_millis(100));
        // A beat newer than "now" reads as zero age, not underflow.
        hb.beat(origin + Duration::from_millis(600));
        assert_eq!(hb.age(later), Duration::ZERO);
    }

    #[test]
    fn drain_report_complete() {
        let clean = DrainOutcome {
            shard: 0,
            drained: true,
            forced: 0,
            waited: Duration::from_millis(5),
        };
        let forced = DrainOutcome {
            shard: 1,
            drained: true,
            forced: 3,
            waited: Duration::from_millis(9),
        };
        assert!(DrainReport {
            outcomes: vec![clean]
        }
        .complete());
        let report = DrainReport {
            outcomes: vec![clean, forced],
        };
        assert!(!report.complete());
        assert_eq!(report.forced_total(), 3);
    }
}
