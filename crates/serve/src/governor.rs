//! The process-wide memory governor.
//!
//! Every session owns a per-session coarse-cache budget, but budgets
//! compose additively: a server with many sessions (or a restart storm
//! re-anchoring caches) can honour every per-session cap and still
//! exhaust the machine. The [`MemoryGovernor`] closes that gap with
//! **one** byte budget spanning all sessions' coarse-cache LRUs plus
//! the per-shard worker-arena reservations:
//!
//! * **Reserve-before-insert.** A shard about to anchor a coarse pass
//!   first charges the entry's cost ([`try_charge`]); the governor
//!   evicts cold anchors elsewhere to make room, and refuses the
//!   charge (the shard skips the anchor — the frame still renders)
//!   when nothing more can be evicted. Charging *before* inserting
//!   means the budget is never exceeded, even transiently — the heal
//!   gate pins `peak ≤ budget`.
//! * **Pressure-ordered eviction.** Room is made by evicting the
//!   LRU-tail anchor of the *fattest* live session first, one anchor
//!   at a time, so global pressure lands on whoever holds the most
//!   bytes rather than on the session that happened to insert last.
//! * **Admission pressure hook.** Past the pressure watermark
//!   (85 % of the budget), BestEffort submissions are
//!   shed at admission (`reason="memory"`) before any rendering
//!   happens — interactive traffic keeps its anchors while prefetch
//!   yields first.
//!
//! The governor is bookkeeping-only: it never holds a cache lock
//! across another lock acquisition except its own registry, and
//! callers must not invoke it while holding a session cache lock.

use crate::lock;
use crate::session::SessionState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default process-wide budget: 256 MiB.
const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

/// Fraction of the budget at which admission pressure begins:
/// BestEffort submissions are shed while usage is at or above it.
const PRESSURE_FRACTION: f64 = 0.85;

/// Configuration of the process-wide `MemoryGovernor`.
#[derive(Debug, Clone, Copy)]
pub struct GovernorConfig {
    /// The hard byte budget across all sessions' coarse caches plus
    /// worker-arena reservations. Default 256 MiB.
    pub budget_bytes: u64,
}

impl GovernorConfig {
    /// Overrides the byte budget.
    pub fn with_budget_bytes(mut self, bytes: u64) -> Self {
        self.budget_bytes = bytes.max(1);
        self
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            budget_bytes: DEFAULT_BUDGET_BYTES,
        }
    }
}

/// Counters of the process-wide governor, as reported by
/// [`RenderServer::governor_stats`](crate::RenderServer::governor_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// The configured hard budget.
    pub budget_bytes: u64,
    /// Bytes currently charged (caches + arena reservations).
    pub used_bytes: u64,
    /// High-water mark of `used_bytes` — the heal gate pins
    /// `peak_bytes <= budget_bytes`.
    pub peak_bytes: u64,
    /// Anchors evicted across sessions by global pressure (beyond any
    /// per-session budget evictions).
    pub evictions: u64,
    /// Anchor inserts refused because no more room could be made.
    pub refused_inserts: u64,
    /// BestEffort submissions shed by the admission pressure hook.
    pub pressure_sheds: u64,
}

/// The process-wide byte-budget arbiter. One per [`RenderServer`]
/// (shared by every shard via `Arc`); see the module docs for policy.
///
/// [`RenderServer`]: crate::RenderServer
pub(crate) struct MemoryGovernor {
    budget: u64,
    pressure_at: u64,
    used: AtomicU64,
    peak: AtomicU64,
    evictions: AtomicU64,
    refused: AtomicU64,
    pressure_sheds: AtomicU64,
    /// Live sessions whose caches are evictable under pressure. Dead
    /// weaks are pruned opportunistically during eviction scans.
    sessions: Mutex<Vec<Weak<SessionState>>>,
}

impl MemoryGovernor {
    pub(crate) fn new(cfg: &GovernorConfig) -> Self {
        let budget = cfg.budget_bytes.max(1);
        let pressure_at = (budget as f64 * PRESSURE_FRACTION) as u64;
        Self {
            budget,
            pressure_at,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            pressure_sheds: AtomicU64::new(0),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// Makes the session's cache evictable under global pressure.
    pub(crate) fn register(&self, session: &Arc<SessionState>) {
        lock(&self.sessions).push(Arc::downgrade(session));
    }

    fn bump_peak(&self, used_now: u64) {
        self.peak.fetch_max(used_now, Ordering::Relaxed);
    }

    /// Charges `bytes` against the budget, evicting cold anchors from
    /// the fattest sessions to make room. Returns `false` (and charges
    /// nothing) when the budget cannot fit `bytes` even after evicting
    /// everything evictable — the caller skips its insert.
    ///
    /// Must not be called while holding any session's cache lock.
    pub(crate) fn try_charge(&self, bytes: u64) -> bool {
        loop {
            let used = self.used.load(Ordering::Relaxed);
            if used.saturating_add(bytes) <= self.budget {
                if self
                    .used
                    .compare_exchange(used, used + bytes, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    self.bump_peak(used + bytes);
                    return true;
                }
                continue;
            }
            if !self.evict_one() {
                self.refused.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }

    /// Returns `bytes` to the budget (anchor evicted locally, lookup
    /// rejected an anchor, or a session was removed).
    pub(crate) fn discharge(&self, bytes: u64) {
        // Saturating: a discharge can only follow a matching charge,
        // but never trap on accounting drift in release builds.
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
    }

    /// Unconditionally charges a fixed reservation (per-shard worker
    /// arenas at spawn). Reservations are part of `used`, so budgets
    /// must leave headroom for them; they are never evicted.
    pub(crate) fn reserve(&self, bytes: u64) {
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.bump_peak(now);
    }

    /// Evicts the LRU-tail anchor of the live session holding the most
    /// cache bytes. Returns `false` when nothing was evictable.
    fn evict_one(&self) -> bool {
        let mut sessions = lock(&self.sessions);
        sessions.retain(|w| w.strong_count() > 0);
        let victim = sessions
            .iter()
            .filter_map(Weak::upgrade)
            .map(|s| {
                let bytes = lock(&s.cache).bytes();
                (bytes, s)
            })
            .filter(|(bytes, _)| *bytes > 0)
            .max_by_key(|(bytes, _)| *bytes);
        drop(sessions);
        let Some((_, victim)) = victim else {
            return false;
        };
        let freed = lock(&victim.cache).evict_tail();
        match freed {
            Some(freed) => {
                self.discharge(freed as u64);
                victim.evictions.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            // Raced with the victim's own eviction/teardown; report
            // "made no room" only if a rescan would also find nothing.
            None => false,
        }
    }

    /// Whether usage has crossed the pressure watermark (the admission
    /// hook sheds BestEffort while this holds).
    pub(crate) fn under_pressure(&self) -> bool {
        self.used.load(Ordering::Relaxed) >= self.pressure_at
    }

    /// Counts one BestEffort submission shed by the pressure hook.
    pub(crate) fn note_pressure_shed(&self) {
        self.pressure_sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> GovernorStats {
        GovernorStats {
            budget_bytes: self.budget,
            used_bytes: self.used.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            refused_inserts: self.refused.load(Ordering::Relaxed),
            pressure_sheds: self.pressure_sheds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_builders() {
        let cfg = GovernorConfig::default().with_budget_bytes(1 << 20);
        assert_eq!(cfg.budget_bytes, 1 << 20);
        // Clamps.
        assert_eq!(
            GovernorConfig::default().with_budget_bytes(0).budget_bytes,
            1
        );
    }

    #[test]
    fn charge_discharge_and_peak() {
        let gov = MemoryGovernor::new(&GovernorConfig::default().with_budget_bytes(100));
        assert!(gov.try_charge(60));
        assert!(gov.try_charge(40));
        // Full: nothing evictable (no sessions registered) → refused.
        assert!(!gov.try_charge(1));
        let s = gov.stats();
        assert_eq!(s.used_bytes, 100);
        assert_eq!(s.peak_bytes, 100);
        assert_eq!(s.refused_inserts, 1);
        assert_eq!(s.evictions, 0);
        gov.discharge(50);
        assert!(gov.try_charge(30));
        let s = gov.stats();
        assert_eq!(s.used_bytes, 80);
        assert_eq!(s.peak_bytes, 100, "peak is a high-water mark");
        // Peak never exceeded the budget at any point.
        assert!(s.peak_bytes <= s.budget_bytes);
    }

    #[test]
    fn pressure_watermark() {
        let gov = MemoryGovernor::new(&GovernorConfig::default().with_budget_bytes(1000));
        assert!(!gov.under_pressure());
        gov.reserve(849);
        assert!(!gov.under_pressure());
        gov.reserve(1);
        assert!(gov.under_pressure());
        gov.note_pressure_shed();
        assert_eq!(gov.stats().pressure_sheds, 1);
    }

    #[test]
    fn discharge_saturates() {
        let gov = MemoryGovernor::new(&GovernorConfig::default().with_budget_bytes(10));
        gov.discharge(5);
        assert_eq!(gov.stats().used_bytes, 0);
    }
}
