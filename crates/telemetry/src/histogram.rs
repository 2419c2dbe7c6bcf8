//! Fixed-bucket log₂-scale histograms.
//!
//! Values (nanoseconds by convention, but any `u64`) land in one of
//! [`N_BUCKETS`] buckets: bucket 0 holds exactly 0, bucket *i* (i ≥ 1)
//! holds the values with *i* significant bits, i.e. `[2^(i−1), 2^i)`.
//! The layout is fixed at compile time so observation never allocates
//! and snapshots merge bucket-wise. Percentiles derived from a
//! snapshot are exact to one bucket's resolution (a factor of two) —
//! the contract the regression tests pin.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 plus one per possible `u64`
/// bit width.
pub const N_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, else the value's bit width.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The shared atomic core of a [`crate::Histogram`]. Lives leaked in
/// the registry; handles update it with relaxed RMWs.
///
/// There is no separate count: a snapshot derives it from the buckets
/// it loaded, so a snapshot taken beside observing threads is always
/// self-consistent (`count == Σ buckets`, so every percentile lands in
/// a bucket that holds an observation). `sum` is loaded on its own and
/// may be a few observations ahead of or behind the buckets — `mean`
/// can be off by that much while observers run.
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    pub(crate) fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; N_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: bucket counts plus total count and value sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wraps on overflow).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise merge (the fold primitive — label-set merging and
    /// cross-shard aggregation both reduce to this).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound
    /// of the bucket holding that rank — i.e. exact to one bucket's
    /// resolution. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(N_BUCKETS - 1)
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value is ≤ its bucket's upper bound and > the previous
        // bucket's.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn percentiles_land_within_one_bucket() {
        let core = HistogramCore::new();
        let mut values: Vec<u64> = (1..=1000u64).map(|i| i * 7 + 3).collect();
        for &v in &values {
            core.observe(v);
        }
        values.sort_unstable();
        let snap = core.snapshot();
        assert_eq!(snap.count, 1000);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = values[(((values.len() - 1) as f64) * q).round() as usize];
            let approx = snap.percentile(q);
            let (be, ba) = (bucket_index(exact), bucket_index(approx));
            assert!(
                be.abs_diff(ba) <= 1,
                "q={q}: exact {exact} (bucket {be}) vs {approx} (bucket {ba})"
            );
        }
    }

    #[test]
    fn merge_is_bucket_wise_sum() {
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        a.observe(5);
        a.observe(100);
        b.observe(5);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 110);
        assert_eq!(m.buckets[bucket_index(5)], 2);
    }

    #[test]
    fn live_snapshots_are_self_consistent() {
        // One thread observes while this one snapshots: every snapshot's
        // count must be the sum of its buckets, so the top percentile
        // lands in the one bucket that holds observations. The checks
        // run after the observer has stopped, so a failure cannot hang.
        let core = HistogramCore::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (mut torn, mut max_p100) = (0, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    core.observe(5);
                }
            });
            while core.snapshot().count == 0 {
                std::hint::spin_loop();
            }
            for _ in 0..2000 {
                let snap = core.snapshot();
                if snap.count != snap.buckets.iter().sum::<u64>() {
                    torn += 1;
                }
                max_p100 = max_p100.max(snap.percentile(1.0));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(torn, 0, "snapshots whose count is not the bucket sum");
        assert_eq!(max_p100, bucket_upper_bound(bucket_index(5)));
    }
}
