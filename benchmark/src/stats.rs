//! Order statistics for timing samples.
//!
//! Percentiles are nearest-rank. A percentile is *supported* by a
//! sample only when at least [`MIN_BEYOND`] samples lie beyond it:
//! p95 needs 200 samples, p99 needs 1000. A tail read off fewer
//! samples is the position of a handful of outliers, not a property of
//! the system.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when picking the highest one a
/// sample supports.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Sorts ascending. Timing samples are never NaN; a NaN sorts last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    values
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.95 × 200 at rank 190 whichever way the
    // product rounds.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support; the
/// median when they support none.
pub fn highest_supported(n: usize) -> f64 {
    LADDER.into_iter().find(|&q| supported(n, q)).unwrap_or(0.5)
}

/// `q` if the sample supports it, else the highest percentile it does
/// support (short smoke runs fall back this way, and say so).
pub fn supported_or_lower(n: usize, q: f64) -> f64 {
    if supported(n, q) {
        q
    } else {
        highest_supported(n).min(q)
    }
}

/// Median of unsorted values (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The quantile at which the quiet-host estimates are read.
const QUIET_Q: f64 = 0.01;

/// What a slice costs when the host leaves it alone: the 1st percentile
/// (nearest rank) of the slices' costs — the 4th to 6th cheapest of the
/// few hundred slices of a run, the cheapest of fewer than a hundred.
///
/// A shared host only ever adds time — a neighbour on the sibling
/// hardware thread, a polluted cache — and on the reference host it does
/// so for most of a run, so the median slice measures the neighbours
/// while the fast tail stays put: over runs of one binary in a busy hour
/// the median `simulate` call spread by 32 %, the 5th percentile by
/// 10 %, the 1st by 9 % and the fastest call by 7 %; in a quiet hour all
/// of the fast tail spread by 2–4 %. The 1st percentile rather than the
/// fastest slice, because the fastest of several hundred can be a slice
/// that happened to have less to do.
pub fn quiet_low(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), QUIET_Q)
}

/// [`quiet_low`] for a rate, where the quiet slices are the high ones:
/// the 1st percentile counted from the top.
pub fn quiet_high(values: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -quiet_low(&negated)
}

/// (max − min) / median of the values, in percent; 0 for fewer than two
/// values or a zero median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!supported(199, 0.95));
        assert!(supported(200, 0.95));
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(!supported(19, 0.5));
        assert!(supported(20, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        assert_eq!(highest_supported(10_000), 0.999);
        assert_eq!(highest_supported(1000), 0.99);
        assert_eq!(highest_supported(240), 0.95);
        assert_eq!(highest_supported(100), 0.9);
        assert_eq!(highest_supported(40), 0.75);
        assert_eq!(highest_supported(5), 0.5);
        assert_eq!(supported_or_lower(240, 0.95), 0.95);
        assert_eq!(supported_or_lower(100, 0.95), 0.9);
        assert_eq!(supported_or_lower(10_000, 0.95), 0.95);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 100.0);
        assert_eq!(percentile(&s, 0.95), 190.0);
        assert_eq!(percentile(&s, 1.0), 200.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_estimates_read_the_fast_tail() {
        // 400 slices costing 1..=400: the 4th cheapest, the 4th fastest.
        let costs: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(quiet_low(&costs), 4.0);
        assert_eq!(quiet_high(&costs), 397.0);
        // A disturbed majority does not move it.
        let mut disturbed = costs.clone();
        for v in disturbed.iter_mut().filter(|v| **v > 10.0) {
            *v *= 1.3;
        }
        assert_eq!(quiet_low(&disturbed), 4.0);
        // Fifteen set-ups: the fastest one.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(quiet_low(&few), 1.0);
        assert_eq!(quiet_low(&[]), 0.0);
        assert_eq!(quiet_high(&[]), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread_pct(&[9.0, 10.0, 11.0]), 20.0);
        assert_eq!(spread_pct(&[10.0]), 0.0);
    }
}
