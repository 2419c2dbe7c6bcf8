//! Deterministic weight initialization.
//!
//! All randomness in the workspace flows through [`Rng`], a thin wrapper
//! over a ChaCha8 stream, so that every experiment is reproducible from
//! a single seed.

use crate::tensor::Tensor2;
use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded random stream for initialization and sampling.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: ChaCha8Rng,
}

impl Rng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal sample (Box–Muller).
    pub(crate) fn normal(&mut self) -> f32 {
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Kaiming/He-normal initialized `fan_in × fan_out` matrix (for ReLU
    /// networks).
    pub(crate) fn kaiming(&mut self, fan_in: usize, fan_out: usize) -> Tensor2 {
        let std = (2.0 / fan_in as f32).sqrt();
        Tensor2::from_fn(fan_in, fan_out, |_, _| self.normal() * std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..16).filter(|_| a.normal() == b.normal()).count();
        assert!(same < 16);
    }

    #[test]
    fn kaiming_variance_close_to_target() {
        let mut rng = Rng::seed_from(4);
        let w = rng.kaiming(128, 128);
        let var: f32 = w.as_slice().iter().map(|v| v * v).sum::<f32>() / w.len() as f32;
        let target = 2.0 / 128.0;
        assert!(
            (var - target).abs() < target * 0.3,
            "var = {var}, target = {target}"
        );
    }

    #[test]
    fn normal_roughly_standard() {
        let mut rng = Rng::seed_from(5);
        let n = 4000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.08, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.12, "var = {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::seed_from(6);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
