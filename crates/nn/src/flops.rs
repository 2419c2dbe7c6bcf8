//! FLOPs accounting.
//!
//! Every efficiency number in the paper's tables (MFLOPs/pixel in
//! Tabs. 2–3, the 0.328 TFLOPs workload of Sec. 5.1, the 13.8%-of-FLOPs
//! ray-transformer share of Sec. 2.3) is a FLOPs count; this module
//! centralizes the counting conventions so model code and the tables
//! agree: one multiply–accumulate = 2 FLOPs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// FLOPs of a dense layer on `n` rows.
pub fn linear(n: usize, in_dim: usize, out_dim: usize) -> u64 {
    (2 * n * in_dim * out_dim + n * out_dim) as u64
}

/// FLOPs of single-head self-attention over `n` tokens of width `d`
/// with head width `dk`.
pub fn attention(n: usize, d: usize, dk: usize) -> u64 {
    let proj = 3 * 2 * n * d * dk + 2 * n * dk * d;
    let attn = 2 * n * n * dk + 2 * n * n * dk + 5 * n * n;
    (proj + attn) as u64
}

/// FLOPs of the Ray-Mixer over `n` points of width `d`.
pub fn mixer(n: usize, d: usize) -> u64 {
    (2 * n * n * d + 2 * n * d * d + 2 * n * d) as u64
}

/// FLOPs of bilinearly interpolating `n` fetches of `d`-wide features:
/// 4 taps, 3 multiply–adds per channel plus weight computation.
pub fn bilinear_fetch(n: usize, d: usize) -> u64 {
    (n * (8 * d + 12)) as u64
}

/// FLOPs of compositing `n` samples with the volume-rendering
/// quadrature (Eq. 2): per sample, one `exp`, a transmittance update and
/// a weighted color accumulation (counting `exp` as 4 FLOPs).
pub fn volume_render(n: usize) -> u64 {
    (n * 12) as u64
}

/// A labelled FLOPs accumulator used to build latency/compute
/// breakdowns (Fig. 2's stacked bars).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlopsCounter {
    buckets: BTreeMap<String, u64>,
}

impl FlopsCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `flops` to the named bucket. Only the first add to a new
    /// bucket allocates (its key). The render tiles sum plain integers
    /// per ray and call this once per bucket per (tile, frame), and
    /// [`FlopsCounter::merge`] rides it, so an existing bucket must
    /// stay a plain map probe.
    pub fn add(&mut self, bucket: &str, flops: u64) {
        match self.buckets.get_mut(bucket) {
            Some(v) => *v += flops,
            None => {
                self.buckets.insert(bucket.to_string(), flops);
            }
        }
    }

    /// Total across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// The count in one bucket (0 if absent).
    pub fn get(&self, bucket: &str) -> u64 {
        self.buckets.get(bucket).copied().unwrap_or(0)
    }

    /// Fraction of the total contributed by `bucket` (0 when empty).
    pub fn fraction(&self, bucket: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }

    /// Iterates `(bucket, flops)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.buckets.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Self) {
        for (k, v) in &other.buckets {
            self.add(k, *v);
        }
    }
}

impl fmt::Display for FlopsCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FLOPs total: {}", self.total())?;
        for (k, v) in &self.buckets {
            writeln!(f, "  {k:<24} {v:>14}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_layer() {
        use crate::init::Rng;
        use crate::layers::Linear as L;
        let mut rng = Rng::seed_from(31);
        let l = L::new(48, 24, &mut rng);
        assert_eq!(l.flops(7), linear(7, 48, 24));
    }

    #[test]
    fn attention_matches_module() {
        use crate::attention::SelfAttention;
        use crate::init::Rng;
        let mut rng = Rng::seed_from(32);
        let a = SelfAttention::new(16, 8, &mut rng);
        assert_eq!(a.flops(20), attention(20, 16, 8));
    }

    #[test]
    fn mixer_matches_module() {
        use crate::init::Rng;
        use crate::mixer::RayMixer;
        let mut rng = Rng::seed_from(33);
        let m = RayMixer::new(32, 12, &mut rng);
        assert_eq!(m.flops(), mixer(32, 12));
    }

    #[test]
    fn counter_accumulates_and_fractions() {
        let mut c = FlopsCounter::new();
        c.add("mlp", 75);
        c.add("mlp", 25);
        c.add("attn", 100);
        assert_eq!(c.total(), 200);
        assert_eq!(c.get("mlp"), 100);
        assert!((c.fraction("attn") - 0.5).abs() < 1e-12);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn counter_merge() {
        let mut a = FlopsCounter::new();
        a.add("x", 10);
        let mut b = FlopsCounter::new();
        b.add("x", 5);
        b.add("y", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 15);
        assert_eq!(a.get("y"), 7);
    }

    #[test]
    fn empty_counter_fraction_is_zero() {
        assert_eq!(FlopsCounter::new().fraction("anything"), 0.0);
    }

    #[test]
    fn attention_quadratic_mixer_saves_at_high_dim() {
        // For equal n and d = dk, attention adds softmax + projection
        // overhead on top of mixer-like GEMMs.
        let n = 64;
        let d = 32;
        assert!(attention(n, d, d) > mixer(n, d));
    }
}
