//! Point-sampling machinery (Sec. 3.2).
//!
//! * `importance_sample_into` — inverse-transform sampling from a
//!   piecewise-constant PDF over uniform depth bins (the preprocessing
//!   unit's Monte-Carlo sampler, Fig. 7), appending into caller-owned
//!   buffers; the render tiles call it. Its allocating form over
//!   explicit bin edges, `importance_sample`, exists in test builds
//!   only, as its bitwise reference,
//! * [`allocate_focused`] — the cross-ray allocation
//!   `P(j) ∝ N^cr_j` that distributes the image-wide focused budget
//!   over rays (Step ② of the coarse-then-focus pipeline),
//! * `critical_count` — counts points with hitting probability
//!   `w_k ≥ τ`.

use gen_nerf_nn::init::Rng;

/// Counts critical points: samples whose hitting probability meets the
/// threshold `τ` (Sec. 3.2, Step ②).
pub(crate) fn critical_count(weights: &[f32], tau: f32) -> usize {
    weights.iter().filter(|&&w| w >= tau).count()
}

/// Allocates an image-wide focused-sample budget across rays:
/// `n_j ∝ N^cr_j`, rounded, with every ray holding at least one
/// critical point guaranteed one sample, and every ray capped at
/// `n_cap`.
///
/// Returns per-ray counts summing to at most `budget + rays_with_cr`
/// (the minimum-one guarantee can add a few).
pub fn allocate_focused(critical: &[usize], budget: usize, n_cap: usize) -> Vec<usize> {
    let total: usize = critical.iter().sum();
    if total == 0 || budget == 0 {
        return vec![0; critical.len()];
    }
    let mut counts = vec![0usize; critical.len()];
    let mut fractional: Vec<(usize, f64)> = Vec::with_capacity(critical.len());
    let mut assigned = 0usize;
    for (j, &cr) in critical.iter().enumerate() {
        if cr == 0 {
            continue;
        }
        let share = budget as f64 * cr as f64 / total as f64;
        let base = share.floor() as usize;
        counts[j] = base.min(n_cap);
        assigned += counts[j];
        fractional.push((j, share - base as f64));
    }
    // Distribute the remainder to the largest fractional parts.
    let mut remainder = budget.saturating_sub(assigned);
    fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (j, _) in fractional.iter().cycle().take(fractional.len() * 2) {
        if remainder == 0 {
            break;
        }
        if counts[*j] < n_cap {
            counts[*j] += 1;
            remainder -= 1;
        }
    }
    // Minimum-one guarantee for rays with critical points.
    for (j, &cr) in critical.iter().enumerate() {
        if cr > 0 && counts[j] == 0 {
            counts[j] = 1;
        }
    }
    counts
}

/// Inverse-transform sampling of `n` depths from a piecewise-constant
/// PDF: `weights[k]` covers `[edges[k], edges[k+1])`. Stratified with
/// per-stratum jitter from `rng`. Falls back to uniform over the whole
/// range when the weights vanish.
///
/// Returned depths are sorted.
///
/// # Panics
///
/// Panics when `edges.len() != weights.len() + 1` or fewer than two
/// edges are given.
#[cfg(test)]
pub(crate) fn importance_sample(
    edges: &[f32],
    weights: &[f32],
    n: usize,
    rng: &mut Rng,
) -> Vec<f32> {
    assert!(edges.len() >= 2, "need at least one bin");
    assert_eq!(edges.len(), weights.len() + 1, "edges/weights mismatch");
    if n == 0 {
        return Vec::new();
    }
    let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
    let mut out = Vec::with_capacity(n);
    if total <= 1e-12 {
        // Uniform fallback.
        let (lo, hi) = (edges[0], edges[edges.len() - 1]);
        for i in 0..n {
            let u = (i as f32 + rng.uniform(0.0, 1.0)) / n as f32;
            out.push(lo + (hi - lo) * u);
        }
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        return out;
    }
    // CDF over bins.
    let mut cdf = Vec::with_capacity(weights.len() + 1);
    cdf.push(0.0f32);
    let mut acc = 0.0;
    for w in weights {
        acc += w.max(0.0) / total;
        cdf.push(acc);
    }
    for i in 0..n {
        let u = ((i as f32 + rng.uniform(0.0, 1.0)) / n as f32).min(0.999_999);
        // Binary search for the bin with cdf[k] <= u < cdf[k+1].
        let mut lo = 0usize;
        let mut hi = weights.len();
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if cdf[mid] <= u {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let span = (cdf[lo + 1] - cdf[lo]).max(1e-12);
        let frac = (u - cdf[lo]) / span;
        out.push(edges[lo] + (edges[lo + 1] - edges[lo]) * frac);
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

/// `importance_sample` over the uniform bins of `[t0, t1]` — bin `k`
/// of `weights.len()` runs from `uniform_edges`' edge `k` to edge
/// `k + 1`, computed where it is needed by the same expression — with
/// the samples **appended** to `out` (what it already holds stays in
/// front) and the CDF kept in `cdf`, whose contents do not matter. The
/// appended depths and the state `rng` is left in are bit for bit those
/// of `importance_sample(&uniform_edges(t0, t1, weights.len()), …)`;
/// nothing is allocated once the two buffers have grown.
///
/// # Panics
///
/// Panics when `weights` is empty.
pub(crate) fn importance_sample_into(
    t0: f32,
    t1: f32,
    weights: &[f32],
    n: usize,
    rng: &mut Rng,
    cdf: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let bins = weights.len();
    assert!(bins >= 1, "need at least one bin");
    if n == 0 {
        return;
    }
    let edge = |k: usize| t0 + (t1 - t0) * k as f32 / bins as f32;
    let start = out.len();
    let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 1e-12 {
        // Uniform fallback.
        let (lo, hi) = (edge(0), edge(bins));
        for i in 0..n {
            let u = (i as f32 + rng.uniform(0.0, 1.0)) / n as f32;
            out.push(lo + (hi - lo) * u);
        }
    } else {
        // CDF over bins.
        cdf.clear();
        cdf.push(0.0f32);
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(0.0) / total;
            cdf.push(acc);
        }
        for i in 0..n {
            let u = ((i as f32 + rng.uniform(0.0, 1.0)) / n as f32).min(0.999_999);
            // Binary search for the bin with cdf[k] <= u < cdf[k+1].
            let mut lo = 0usize;
            let mut hi = bins;
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                if cdf[mid] <= u {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let span = (cdf[lo + 1] - cdf[lo]).max(1e-12);
            let frac = (u - cdf[lo]) / span;
            out.push(edge(lo) + (edge(lo + 1) - edge(lo)) * frac);
        }
    }
    out[start..].sort_by(|a, b| a.partial_cmp(b).unwrap());
}

/// Uniform bin edges over `[t0, t1]`.
#[cfg(test)]
pub(crate) fn uniform_edges(t0: f32, t1: f32, bins: usize) -> Vec<f32> {
    (0..=bins)
        .map(|k| t0 + (t1 - t0) * k as f32 / bins as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_count_thresholds() {
        let w = [0.0, 0.005, 0.02, 0.5];
        assert_eq!(critical_count(&w, 0.01), 2);
        assert_eq!(critical_count(&w, 0.6), 0);
    }

    #[test]
    fn allocate_proportional() {
        let critical = [0usize, 4, 4, 8];
        let counts = allocate_focused(&critical, 16, 64);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 2 * counts[1]);
        let total: usize = counts.iter().sum();
        assert!((15..=17).contains(&total), "total = {total}");
    }

    #[test]
    fn allocate_empty_scene_gets_nothing() {
        assert_eq!(allocate_focused(&[0, 0, 0], 100, 64), vec![0, 0, 0]);
    }

    #[test]
    fn allocate_minimum_one_for_critical_rays() {
        // 1000 rays with 1 critical point each, budget 10: every ray
        // still gets ≥ 1 sample.
        let critical = vec![1usize; 100];
        let counts = allocate_focused(&critical, 10, 64);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn allocate_respects_cap() {
        let critical = [100usize, 1];
        let counts = allocate_focused(&critical, 64, 16);
        assert!(counts[0] <= 16);
    }

    #[test]
    fn importance_concentrates_on_heavy_bins() {
        let edges = uniform_edges(0.0, 10.0, 10);
        let mut weights = vec![0.0f32; 10];
        weights[7] = 1.0; // all mass in [7, 8)
        let mut rng = Rng::seed_from(1);
        let samples = importance_sample(&edges, &weights, 64, &mut rng);
        assert!(samples.iter().all(|&t| (7.0..8.0).contains(&t)));
    }

    #[test]
    fn importance_sorted_and_in_range() {
        let edges = uniform_edges(2.0, 6.0, 8);
        let weights = [0.1, 0.5, 0.2, 0.0, 0.3, 0.9, 0.05, 0.4];
        let mut rng = Rng::seed_from(2);
        let s = importance_sample(&edges, &weights, 32, &mut rng);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| (2.0..=6.0).contains(&t)));
    }

    #[test]
    fn importance_zero_weights_falls_back_to_uniform() {
        let edges = uniform_edges(0.0, 1.0, 4);
        let weights = [0.0; 4];
        let mut rng = Rng::seed_from(3);
        let s = importance_sample(&edges, &weights, 16, &mut rng);
        assert_eq!(s.len(), 16);
        // Roughly spread over the range.
        assert!(s[0] < 0.2 && s[15] > 0.8);
    }

    #[test]
    fn importance_proportionality() {
        // Two bins with 1:3 weights: expect ~25%/75% of samples.
        let edges = uniform_edges(0.0, 2.0, 2);
        let weights = [1.0f32, 3.0];
        let mut rng = Rng::seed_from(4);
        let s = importance_sample(&edges, &weights, 400, &mut rng);
        let first = s.iter().filter(|&&t| t < 1.0).count();
        assert!(
            (80..120).contains(&first),
            "first-bin count = {first}, want ~100"
        );
    }

    #[test]
    #[should_panic(expected = "edges/weights mismatch")]
    fn importance_rejects_mismatch() {
        let mut rng = Rng::seed_from(5);
        let _ = importance_sample(&[0.0, 1.0], &[0.5, 0.5], 4, &mut rng);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The scratch sampler is the allocating one over
        /// `uniform_edges`, bit for bit: same depths, appended behind
        /// whatever the buffer held, and the random stream left where
        /// the allocating call leaves it — for ordinary weights, bins
        /// of zero weight, weights that vanish altogether (the uniform
        /// fallback), negative weights (clamped), and `n = 0`.
        #[test]
        fn prop_importance_sample_into_matches_importance_sample(
            t0 in -4.0f32..4.0,
            span in 0.01f32..9.0,
            raw in proptest::collection::vec(0.0f32..1.0, 1..24),
            zero_every in 1usize..5,
            scale_pick in 0usize..4,
            n in 0usize..40,
            seed in 0u64..1_000_000,
            kept in proptest::collection::vec(-9.0f32..9.0, 0..5),
        ) {
            let scale = [1.0f32, 1e-14, 0.0, -1.0][scale_pick];
            let weights: Vec<f32> = raw
                .iter()
                .enumerate()
                .map(|(k, &w)| if k % zero_every == 0 { 0.0 } else { w * scale })
                .collect();
            let t1 = t0 + span;
            let mut rng = Rng::seed_from(seed);
            let edges = uniform_edges(t0, t1, weights.len());
            let expected = importance_sample(&edges, &weights, n, &mut rng);

            let mut rng_into = Rng::seed_from(seed);
            let mut cdf = vec![f32::NAN; 3];
            let mut out = kept.clone();
            importance_sample_into(t0, t1, &weights, n, &mut rng_into, &mut cdf, &mut out);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            proptest::prop_assert_eq!(bits(&out[..kept.len()]), bits(&kept));
            proptest::prop_assert_eq!(bits(&out[kept.len()..]), bits(&expected));
            proptest::prop_assert_eq!(
                rng.uniform(0.0, 1.0).to_bits(),
                rng_into.uniform(0.0, 1.0).to_bits()
            );
        }

        /// Importance samples always fall inside the sampled support,
        /// sorted.
        #[test]
        fn prop_importance_samples_in_support(
            weights in proptest::collection::vec(0.0f32..5.0, 4..32),
            n in 1usize..64,
            seed in 0u64..500,
        ) {
            let mut rng = Rng::seed_from(seed);
            let mut samples = Vec::new();
            importance_sample_into(1.0, 9.0, &weights, n, &mut rng, &mut Vec::new(), &mut samples);
            proptest::prop_assert_eq!(samples.len(), n);
            proptest::prop_assert!(samples.iter().all(|&t| (1.0..=9.0).contains(&t)));
            proptest::prop_assert!(samples.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn importance_sample_into_rejects_no_bins() {
        let mut rng = Rng::seed_from(6);
        importance_sample_into(0.0, 1.0, &[], 4, &mut rng, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn uniform_edges_cover_range() {
        let e = uniform_edges(1.0, 3.0, 4);
        assert_eq!(e.len(), 5);
        assert_eq!(e[0], 1.0);
        assert_eq!(e[4], 3.0);
    }
}
