//! Shard lifecycle: restart policy and drain reports.
//!
//! A shard's scheduler thread is a single point of failure — a loop
//! that dies (panic outside the frame-level `catch_unwind`) or wedges
//! (a stuck render that ignores cancellation) strands every session
//! mapped to it. This module holds the policy side of the self-healing
//! layer:
//!
//! * [`HealthConfig`] — the heartbeat budget and the base of the
//!   exponential restart backoff. The supervision pass runs at least
//!   40 times per budget, and past [`MAX_RESTARTS`] consecutive
//!   restarts a shard is declared down, which also bounds the backoff.
//! * [`DrainReport`] — what
//!   [`RenderServer::drain`](crate::RenderServer::drain) returns.
//!
//! The mechanism side — reading progress, the sweep's verdict (Wedged:
//! busy while the worker's beat count and the in-flight attempt's tile
//! ticks stood still for the heartbeat budget; Dead: the worker thread
//! finished with the queue open), condemning, respawning — lives with
//! the shard itself (`shard.rs`), as the health half of the server's
//! one supervision pass.

use crate::doubling_backoff;
use crate::supervisor::SupervisorConfig;
use std::time::Duration;

/// Default heartbeat budget. Deliberately above the worst legitimate
/// stretch without progress: a rendering batch ticks once per tile, a
/// batch that fills no tile stalls at most one deadline budget before
/// its timeout cancels it (the chaos harness stalls up to ~1.5 s),
/// and the worker beats as soon as the batch returns.
const DEFAULT_HEARTBEAT_BUDGET: Duration = Duration::from_millis(2000);

/// Consecutive restarts (without a successfully rendered frame in
/// between) after which a shard is declared down: queued frames fail,
/// and later submissions resolve with
/// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
pub(crate) const MAX_RESTARTS: u32 = 5;

/// Supervision passes per heartbeat or frame budget: a wedge is
/// condemned at most a fortieth of the budget late, and every frame is
/// admitted at least this many passes before its deadline.
const SWEEPS_PER_BUDGET: u32 = 40;

/// Why a shard was condemned — the `b` payload of a
/// [`Condemn`](gen_nerf_telemetry::EventKind::Condemn) trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CondemnReason {
    /// No progress for the budget with work pending.
    Wedged,
    /// Worker `JoinHandle` finished unexpectedly.
    Dead,
}

impl CondemnReason {
    /// Stable wire code for trace events.
    pub(crate) fn code(self) -> u64 {
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
    /// the sweep condemns it as wedged (at least 1 ms is used). The
    /// sweep runs every fortieth of it. Default 2 s.
    pub heartbeat_budget: Duration,
    /// Base of the exponential restart backoff: restart `n` (1-based,
    /// at most 5 before the shard is declared down) waits
    /// `restart_backoff * 2^(n-1)`. Default 50 ms.
    pub restart_backoff: Duration,
}

impl HealthConfig {
    /// The heartbeat budget in force: the configured one, at least
    /// 1 ms (a zero budget would condemn every busy shard).
    pub(crate) fn budget(&self) -> Duration {
        self.heartbeat_budget.max(Duration::from_millis(1))
    }

    /// Cadence of the health sweep: the budget over
    /// [`SWEEPS_PER_BUDGET`], at least 1 ms.
    pub(crate) fn sweep_interval(&self) -> Duration {
        (self.budget() / SWEEPS_PER_BUDGET).max(Duration::from_millis(1))
    }

    /// Cadence of the supervision pass: a fortieth of the shortest of
    /// the heartbeat budget and the two frame budgets, at least 1 ms.
    /// A pass thus always sees a frame before its deadline, and sleeps
    /// until the earliest one instead of being woken per admission.
    pub(crate) fn pass_interval(&self, frames: &SupervisorConfig) -> Duration {
        let shortest = frames.interactive_budget.min(frames.best_effort_budget);
        let frame = (shortest / SWEEPS_PER_BUDGET).max(Duration::from_millis(1));
        self.sweep_interval().min(frame)
    }

    /// Backoff before restart number `consecutive` (1-based).
    pub(crate) fn backoff_for(&self, consecutive: u32) -> Duration {
        doubling_backoff(self.restart_backoff, Duration::MAX, consecutive)
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            heartbeat_budget: DEFAULT_HEARTBEAT_BUDGET,
            restart_backoff: Duration::from_millis(50),
        }
    }
}

/// What [`RenderServer::drain`](crate::RenderServer::drain) returns,
/// over every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every shard finished its queued and in-flight work.
    pub(crate) drained: bool,
    /// Frames force-failed (with
    /// [`ServeError::Draining`](crate::ServeError::Draining)) when the
    /// deadline expired.
    pub(crate) forced: u64,
}

impl DrainReport {
    /// Whether every shard drained cleanly (no forced failures, no
    /// leftover in-flight work).
    pub fn complete(&self) -> bool {
        self.drained && self.forced == 0
    }

    /// Total frames force-failed at the deadline across all shards.
    pub fn forced_total(&self) -> u64 {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timing_sweeps_every_50ms_and_doubles_the_backoff() {
        let cfg = HealthConfig::default();
        assert_eq!(cfg.sweep_interval(), Duration::from_millis(50));
        for n in 1..=MAX_RESTARTS {
            assert_eq!(cfg.backoff_for(n), Duration::from_millis(50 << (n - 1)));
        }
        // The budget in force is never zero, and neither is the sweep.
        let zero = HealthConfig {
            heartbeat_budget: Duration::ZERO,
            ..cfg
        };
        assert_eq!(zero.budget(), Duration::from_millis(1));
        assert_eq!(zero.sweep_interval(), Duration::from_millis(1));
    }

    #[test]
    fn the_pass_runs_forty_times_per_shortest_budget() {
        let frames = SupervisorConfig::default();
        assert_eq!(
            HealthConfig::default().pass_interval(&frames),
            Duration::from_millis(50)
        );
        let heal = HealthConfig {
            heartbeat_budget: Duration::from_millis(250),
            ..HealthConfig::default()
        };
        assert_eq!(heal.pass_interval(&frames), Duration::from_micros(6250));
        let chaos = SupervisorConfig {
            interactive_budget: Duration::from_millis(800),
            best_effort_budget: Duration::from_millis(1500),
        };
        let health = HealthConfig::default();
        assert_eq!(health.pass_interval(&chaos), Duration::from_millis(20));
        let instant = SupervisorConfig {
            interactive_budget: Duration::ZERO,
            ..frames
        };
        assert_eq!(health.pass_interval(&instant), Duration::from_millis(1));
    }

    #[test]
    fn drain_report_complete() {
        let report = |drained, forced| DrainReport { drained, forced };
        assert!(report(true, 0).complete());
        assert!(!report(false, 0).complete());
        let forced = report(true, 3);
        assert!(!forced.complete());
        assert_eq!(forced.forced_total(), 3);
    }
}
