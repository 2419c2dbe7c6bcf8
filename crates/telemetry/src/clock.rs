//! The workspace clock abstraction.
//!
//! Control logic that *decides* on time — supervisor deadlines,
//! circuit-breaker cooldowns, retry backoff budgets — reads a
//! [`Clock`] instead of calling `Instant::now()` directly. Production
//! code uses [`Clock::real`] (a plain monotonic read); tests use
//! [`Clock::virtual_clock`], which pins a base instant at creation and
//! advances only when told to, so time-dependent behavior becomes a
//! pure function of the test's `advance` calls — no sleeping, no
//! flakiness.
//!
//! The clock still *yields* `Instant`s (base + offset for the virtual
//! clock), so every existing deadline comparison, `Duration` math and
//! explicit-`now` API keeps working unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
enum Inner {
    Real,
    Virtual { base: Instant, offset_ns: AtomicU64 },
}

/// A monotonic clock: real, or virtual for deterministic tests.
/// Cloning is cheap and clones share the same time source.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Arc<Inner>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

impl Clock {
    /// The monotonic system clock.
    pub fn real() -> Clock {
        Clock {
            inner: Arc::new(Inner::Real),
        }
    }

    /// A deterministic test clock, frozen at creation; only
    /// [`Clock::advance`] moves it.
    pub fn virtual_clock() -> Clock {
        Clock {
            inner: Arc::new(Inner::Virtual {
                base: Instant::now(),
                offset_ns: AtomicU64::new(0),
            }),
        }
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        match &*self.inner {
            Inner::Real => Instant::now(),
            Inner::Virtual { base, offset_ns } => {
                *base + Duration::from_nanos(offset_ns.load(Ordering::SeqCst))
            }
        }
    }

    /// Advances a virtual clock by `d`.
    ///
    /// # Panics
    ///
    /// On a real clock — wall time cannot be steered.
    pub fn advance(&self, d: Duration) {
        match &*self.inner {
            Inner::Real => panic!("Clock::advance on the real clock"),
            Inner::Virtual { offset_ns, .. } => {
                offset_ns.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_frozen_until_advanced() {
        let c = Clock::virtual_clock();
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now(), t0);
        c.advance(Duration::from_millis(50));
        assert_eq!(c.now() - t0, Duration::from_millis(50));
    }

    #[test]
    fn clones_share_the_source() {
        let c = Clock::virtual_clock();
        let d = c.clone();
        let t0 = c.now();
        d.advance(Duration::from_secs(1));
        assert_eq!(c.now() - t0, Duration::from_secs(1));
    }

    #[test]
    fn real_clock_moves() {
        let c = Clock::real();
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(1));
        assert!(c.now() > t0);
    }
}
