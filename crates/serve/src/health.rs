//! Shard lifecycle: health verdicts, restart policy, drain reports.
//!
//! A shard's scheduler thread is a single point of failure — a loop
//! that dies (panic outside the frame-level `catch_unwind`) or wedges
//! (a stuck render that ignores cancellation) strands every session
//! mapped to it. This module holds the policy side of the self-healing
//! layer:
//!
//! * [`ShardHealth`] — the verdict the supervisor's health sweep
//!   reaches: `Healthy`, `Wedged` (busy while its progress reading —
//!   the worker's beat count and the in-flight attempt's tile ticks —
//!   has not moved for the heartbeat budget) or `Dead` (worker
//!   `JoinHandle` finished while the queue is still open).
//! * [`HealthConfig`] — the heartbeat budget, the sweep cadence and
//!   the exponential restart backoff. Past [`MAX_RESTARTS`]
//!   consecutive restarts a shard is declared down.
//! * [`DrainReport`]/[`DrainOutcome`] — what
//!   [`RenderServer::drain`](crate::RenderServer::drain) returns.
//!
//! The mechanism side — reading progress, condemning, respawning —
//! lives with the shard itself (`shard.rs`); the sweep that drives it
//! is registered on the supervisor's watchdog thread by
//! `RenderServer`.

use crate::doubling_backoff;
use std::time::Duration;

/// Default heartbeat budget. Deliberately above the worst legitimate
/// stretch without progress: a rendering batch ticks once per tile, a
/// batch that fills no tile stalls at most one deadline budget before
/// the watchdog cancels it (the chaos harness stalls up to ~1.5 s),
/// and the worker beats as soon as the batch returns.
const DEFAULT_HEARTBEAT_BUDGET: Duration = Duration::from_millis(2000);

/// Consecutive restarts (without a successfully rendered frame in
/// between) after which a shard is declared down: queued frames fail,
/// and later submissions resolve with
/// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
pub(crate) const MAX_RESTARTS: u32 = 5;

/// The health sweep's verdict for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Making progress within budget (or idle).
    Healthy,
    /// Busy, with no progress for the heartbeat budget. The worker
    /// thread is still running but not getting anywhere.
    Wedged,
    /// The worker thread finished while the queue was still open — the
    /// loop panicked or exited without being asked to.
    Dead,
}

/// Why a shard was condemned — the `b` payload of a
/// [`Condemn`](gen_nerf_telemetry::EventKind::Condemn) trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondemnReason {
    /// No progress for the budget with work pending.
    Wedged,
    /// Worker `JoinHandle` finished unexpectedly.
    Dead,
}

impl CondemnReason {
    /// Stable wire code for trace events.
    pub fn code(self) -> u64 {
        match self {
            CondemnReason::Wedged => 0,
            CondemnReason::Dead => 1,
        }
    }
}

/// Budgets for the shard health sweep.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// How long a busy shard's progress reading may stand still before
    /// the sweep condemns it as wedged. Default 2 s.
    pub heartbeat_budget: Duration,
    /// Cadence of the health sweep on the watchdog thread.
    pub sweep_interval: Duration,
    /// Base of the exponential restart backoff: restart `n` (1-based)
    /// waits `restart_backoff * 2^(n-1)`, capped at
    /// [`restart_backoff_cap`](HealthConfig::restart_backoff_cap).
    pub restart_backoff: Duration,
    /// Ceiling of the exponential backoff.
    pub restart_backoff_cap: Duration,
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

    /// Backoff before restart number `consecutive` (1-based).
    pub(crate) fn backoff_for(&self, consecutive: u32) -> Duration {
        doubling_backoff(self.restart_backoff, self.restart_backoff_cap, consecutive)
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            heartbeat_budget: DEFAULT_HEARTBEAT_BUDGET,
            sweep_interval: Duration::from_millis(50),
            restart_backoff: Duration::from_millis(50),
            restart_backoff_cap: Duration::from_secs(2),
        }
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
    /// Total restarts performed over the shard's lifetime (its
    /// `serve_shard_restarts_total`).
    pub restarts: u64,
    /// Restarts since the last successfully rendered frame — the
    /// give-up counter.
    pub consecutive_restarts: u32,
    /// Whether the shard has been declared down (give-up threshold
    /// crossed); a down shard rejects submissions with
    /// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
    pub down: bool,
    /// The shard's progress count: beats its workers published (one
    /// per pop, per attempt start and per finished batch).
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
