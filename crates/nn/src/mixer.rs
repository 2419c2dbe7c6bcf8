//! The Ray-Mixer module (paper Sec. 3.3, Eqs. 4–5).
//!
//! The Ray-Mixer replaces the ray transformer's attention with two
//! fully connected mixing steps so the PE pool's systolic arrays can
//! execute the whole model:
//!
//! * **token mixing** (Eq. 4): one FC along the *point* dimension fuses
//!   information across all `N` samples of a ray, column by column:
//!   `F_{*,i} = f_{*,i} + φ(W₁ f_{*,i})`;
//! * **channel mixing + projection** (Eq. 5): one FC along the feature
//!   dimension processes each point independently, then `W₃` projects
//!   to a scalar density: `σ_j = W₃ (F_{j,*} + φ(W₂ F_{j,*}))`.

use crate::init::Rng;
use crate::kernels::chain::{dense_chain, token_mix, ChainScratch};
use crate::layers::{Linear, Param, Relu};
use crate::tensor::Tensor2;
use serde::{Deserialize, Serialize};

/// The Ray-Mixer: token-mixing FC (`W₁`, over `n_points`), channel-mixing
/// FC (`W₂`, over `dim`) and a density projection (`W₃`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RayMixer {
    token_fc: Linear,
    channel_fc: Linear,
    proj: Linear,
    token_act: Relu,
    channel_act: Relu,
    n_points: usize,
    cache: Option<()>,
}

/// Reusable buffers for the mixer's fused tile inference
/// ([`RayMixer::forward_inference_stacked`]): one instance per render
/// worker holds the tile's mixed features `F` and the panels of the
/// channel/projection chain.
#[derive(Debug, Clone, Default)]
pub struct MixerScratch {
    /// The token-mixed features `F` of the tile, one `dim`-wide row per
    /// point.
    f: Vec<f32>,
    /// Panels of `F + φ(W₂ F)`, the projection's input.
    chain: ChainScratch,
}

impl MixerScratch {
    /// Bytes of heap the buffers retain.
    pub fn capacity_bytes(&self) -> usize {
        self.f.capacity() * std::mem::size_of::<f32>() + self.chain.capacity_bytes()
    }
}

impl RayMixer {
    /// Creates a mixer for rays of exactly `n_points` samples with
    /// `dim`-wide density features.
    ///
    /// During training the paper pads every ray to `N_max` points; the
    /// same convention applies here — callers pad (with
    /// zero-contribution samples) to `n_points`.
    pub fn new(n_points: usize, dim: usize, rng: &mut Rng) -> Self {
        Self {
            token_fc: Linear::new(n_points, n_points, rng),
            channel_fc: Linear::new(dim, dim, rng),
            proj: Linear::new(dim, 1, rng),
            token_act: Relu::new(),
            channel_act: Relu::new(),
            n_points,
            cache: None,
        }
    }

    /// Number of points (tokens) the mixer was built for.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.channel_fc.in_dim()
    }

    /// Forward pass over `x` (`n_points × dim`); returns per-point
    /// density logits (`n_points × 1`).
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() != n_points`.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        assert_eq!(
            x.rows(),
            self.n_points,
            "RayMixer built for {} points, got {}",
            self.n_points,
            x.rows()
        );
        // Eq. 4 — token mixing along the point dimension: operate on
        // columns by transposing to (dim × n_points).
        let xt = x.transpose();
        let ht = self.token_act.forward(&self.token_fc.forward(&xt));
        let f = &ht.transpose() + x;
        // Eq. 5 — channel mixing per point, then density projection.
        let c = self.channel_act.forward(&self.channel_fc.forward(&f));
        let g = &f + &c;
        self.cache = Some(());
        self.proj.forward(&g)
    }

    /// Forward pass without caching (inference only) — the `&self`
    /// path render workers share across threads.
    ///
    /// Unlike the training pass, inference takes `n ≤ N_max` rows
    /// directly and computes only the live `n × n` token block (the
    /// paper's hardware claim behind
    /// `ModelConfig::ray_module_macs`: zero-padded tokens contribute
    /// nothing, so the PE pool never schedules them). This is the
    /// dynamic-cost path the FLOPs accounting has always assumed.
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() > n_points`.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let f = self.mix_tokens_inference(x);
        self.finish_inference(&f)
    }

    /// The token-mixing phase of inference (Eq. 4): `F = x + φ(W₁ x)`
    /// restricted to the live `n × n` block of `W₁`. Per ray — token
    /// mixing crosses the ray's own samples only.
    ///
    /// # Panics
    ///
    /// Panics when `x.rows() > n_points`.
    pub(crate) fn mix_tokens_inference(&self, x: &Tensor2) -> Tensor2 {
        let n = x.rows();
        assert!(
            n <= self.n_points,
            "RayMixer built for {} points, got {}",
            self.n_points,
            n
        );
        let d = self.dim();
        // Live n×n sub-block of W₁ and the matching bias slice: rows
        // beyond n would only ever multiply zero-padded tokens.
        let w1 = &self.token_fc.w.value;
        let sub_w = Tensor2::from_fn(n, n, |r, c| w1[(r, c)]);
        let sub_b = Tensor2::from_fn(1, n, |_, c| self.token_fc.b.value[(0, c)]);
        let xt = x.transpose();
        let mut ht = xt.matmul(&sub_w);
        ht.add_row_broadcast_in_place(&sub_b);
        ht.relu_in_place();
        let mut f = ht.transpose();
        for r in 0..n {
            for c in 0..d {
                f[(r, c)] += x[(r, c)];
            }
        }
        f
    }

    /// The channel-mixing + projection phase of inference (Eq. 5):
    /// `σ = W₃ (F + φ(W₂ F))`, row by row, layer by layer — the
    /// reference composition the fused
    /// [`RayMixer::forward_inference_stacked`] is pinned against.
    pub(crate) fn finish_inference(&self, f: &Tensor2) -> Tensor2 {
        let mut g = self.channel_fc.forward_inference(f);
        self.channel_act.forward_inference_in_place(&mut g);
        for (gv, &fv) in g.as_mut_slice().iter_mut().zip(f.as_slice()) {
            *gv += fv;
        }
        self.proj.forward_inference(&g)
    }

    /// Fused inference over every ray of a tile, in place on the
    /// stacked activations: ray `i` owns rows
    /// `ray_offsets[i]..ray_offsets[i + 1]` of `x` (its `dim` live
    /// columns at row stride `ldx` — the point-MLP output is read where
    /// it lies, no per-ray copy) and of `logits` (one per point). One
    /// `token_mix` call mixes each ray through its live `n × n` block
    /// of `W₁` — no transposes, no grouping by length — and one
    /// two-layer [`dense_chain`] runs Eq. 5 (`G = F + φ(F·W₂ + b₂)`,
    /// `logit = G·w₃ + b₃`) over the whole tile. Per-ray results are
    /// bit-identical to [`RayMixer::forward_inference`]: the same
    /// products in the same `k` order (see the kernel contract in
    /// [`crate::kernels`]).
    ///
    /// # Panics
    ///
    /// Panics when a ray exceeds `n_points` or a slice is shorter than
    /// the offsets need.
    pub fn forward_inference_stacked(
        &self,
        x: &[f32],
        ldx: usize,
        ray_offsets: &[usize],
        scratch: &mut MixerScratch,
        logits: &mut [f32],
    ) {
        let d = self.dim();
        let total = ray_offsets.last().copied().unwrap_or(0);
        scratch.f.resize(total * d, 0.0);
        token_mix(
            x,
            ldx,
            d,
            ray_offsets,
            self.token_fc.w.value.as_slice(),
            self.n_points,
            self.token_fc.b.value.as_slice(),
            &mut scratch.f,
        );
        let layers = [
            self.channel_fc.chain_layer(true, true),
            self.proj.chain_layer(false, false),
        ];
        dense_chain(&scratch.f, total, &layers, logits, 1, &mut scratch.chain);
    }

    /// Backward pass; accumulates parameter gradients and returns
    /// `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor2) -> Tensor2 {
        self.cache
            .take()
            .expect("RayMixer::backward before forward");
        // Through W₃.
        let g_g = self.proj.backward(grad_out);
        // g = f + channel_act(channel_fc(f))
        let g_c = self.channel_act.backward(&g_g);
        let g_f = &g_g + &self.channel_fc.backward(&g_c);
        // f = x + transpose(token_act(token_fc(xᵀ)))
        let g_ht = g_f.transpose();
        let g_pre = self.token_act.backward(&g_ht);
        let g_xt = self.token_fc.backward(&g_pre);
        &g_f + &g_xt.transpose()
    }

    /// Shared access to the three FC layers `(W₁, W₂, W₃)` (used by
    /// INT8 re-execution and baseline replicas in the bench harness).
    pub fn layers(&self) -> (&Linear, &Linear, &Linear) {
        (&self.token_fc, &self.channel_fc, &self.proj)
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.token_fc.params_mut());
        out.extend(self.channel_fc.params_mut());
        out.extend(self.proj.params_mut());
        out
    }

    /// FLOPs for one ray. All terms are plain GEMMs — the point of the
    /// module: `O(N²D + ND²)` with *no* attention softmax, executable on
    /// the same systolic arrays as the backbone MLP.
    pub fn flops(&self) -> u64 {
        let n = self.n_points;
        let d = self.dim();
        (2 * n * n * d          // token FC applied to d columns
            + 2 * n * d * d     // channel FC applied to n rows
            + 2 * n * d)        // projection
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::mse_loss;
    use crate::optim::Adam;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(21);
        let mut mixer = RayMixer::new(8, 6, &mut rng);
        let x = Tensor2::from_fn(8, 6, |r, c| ((r * 6 + c) as f32 * 0.19).sin());
        let y = mixer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (8, 1));
        assert!(y.is_finite());
    }

    #[test]
    #[should_panic(expected = "RayMixer built for")]
    fn rejects_wrong_point_count() {
        let mut rng = Rng::seed_from(22);
        let mut mixer = RayMixer::new(8, 6, &mut rng);
        let _ = mixer.forward(&Tensor2::zeros(4, 6));
    }

    #[test]
    fn token_mixing_crosses_points() {
        let mut rng = Rng::seed_from(23);
        let mut mixer = RayMixer::new(6, 4, &mut rng);
        let x1 = Tensor2::from_fn(6, 4, |r, c| (r + c) as f32 * 0.1);
        let mut x2 = x1.clone();
        for c in 0..4 {
            x2[(0, c)] += 1.5;
        }
        let y1 = mixer.forward(&x1);
        let y2 = mixer.forward(&x2);
        // Densities of *different* points must change: information flows
        // across the ray like it does through the ray transformer.
        let diff: f32 = (1..6).map(|r| (y1[(r, 0)] - y2[(r, 0)]).abs()).sum();
        assert!(diff > 1e-6, "no cross-point flow: {diff}");
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = Rng::seed_from(24);
        let mut mixer = RayMixer::new(5, 4, &mut rng);
        let mut x = Tensor2::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.31).cos() * 0.6);
        let target = Tensor2::from_fn(5, 1, |r, _| (r as f32 * 0.4).sin());

        let y = mixer.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let gin = mixer.backward(&g);
        let analytic: Vec<f32> = gin.as_slice().to_vec();

        let eps = 1e-2;
        for (i, &a) in analytic.iter().enumerate() {
            let (r, c) = (i / 4, i % 4);
            let orig = x[(r, c)];
            x[(r, c)] = orig + eps;
            let lp = mse_loss(&mixer.forward(&x), &target).0;
            x[(r, c)] = orig - eps;
            let lm = mse_loss(&mixer.forward(&x), &target).0;
            x[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL * 2.5,
                "x[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn gradcheck_token_weight() {
        let mut rng = Rng::seed_from(25);
        let mut mixer = RayMixer::new(4, 3, &mut rng);
        let x = Tensor2::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.53).sin() * 0.8);
        let target = Tensor2::zeros(4, 1);

        for p in mixer.params_mut() {
            p.zero_grad();
        }
        let y = mixer.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let _ = mixer.backward(&g);
        let analytic: Vec<f32> = mixer.token_fc.w.grad.as_slice().to_vec();

        let eps = 1e-2;
        for (i, &a) in analytic.iter().enumerate().take(6) {
            let cols = mixer.token_fc.w.value.cols();
            let (r, c) = (i / cols, i % cols);
            let orig = mixer.token_fc.w.value[(r, c)];
            mixer.token_fc.w.value[(r, c)] = orig + eps;
            let lp = mse_loss(&mixer.forward(&x), &target).0;
            mixer.token_fc.w.value[(r, c)] = orig - eps;
            let lm = mse_loss(&mixer.forward(&x), &target).0;
            mixer.token_fc.w.value[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL * 2.5,
                "w1[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng::seed_from(26);
        let mut mixer = RayMixer::new(8, 5, &mut rng);
        let x = Tensor2::from_fn(8, 5, |r, c| ((r * 5 + c) as f32 * 0.23).sin());
        let target = Tensor2::from_fn(8, 1, |r, _| if (2..5).contains(&r) { 1.0 } else { 0.0 });
        let mut adam = Adam::new(5e-3);
        let (first, _) = mse_loss(&mixer.forward(&x), &target);
        let mut last = first;
        for _ in 0..200 {
            for p in mixer.params_mut() {
                p.zero_grad();
            }
            let y = mixer.forward(&x);
            let (loss, g) = mse_loss(&y, &target);
            mixer.backward(&g);
            adam.step(&mut mixer.params_mut());
            last = loss;
        }
        assert!(last < first * 0.1, "first={first} last={last}");
    }

    #[test]
    fn stacked_inference_matches_per_ray_reference_bitwise() {
        // One tile holding a ray of every length 1..=N_max (and an
        // empty one), the features read in place at a non-unit row
        // stride: the in-place token mix must equal
        // `mix_tokens_inference` (explicit transposes, one GEMM per
        // ray) and the logits `forward_inference`, bit for bit, on
        // whichever backend is active.
        let (n_max, d, ldx) = (64usize, 16usize, 19usize);
        let mut rng = Rng::seed_from(28);
        let mixer = RayMixer::new(n_max, d, &mut rng);
        let mut offsets = vec![0usize, 0];
        for n in 1..=n_max {
            offsets.push(offsets.last().unwrap() + n);
        }
        let total = *offsets.last().unwrap();
        let x: Vec<f32> = (0..total * ldx)
            .map(|i| (i as f32 * 0.173).sin() * 1.7)
            .collect();
        let mut scratch = MixerScratch::default();
        let mut logits = vec![f32::NAN; total];
        mixer.forward_inference_stacked(&x, ldx, &offsets, &mut scratch, &mut logits);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for ray in offsets.windows(2) {
            let (start, n) = (ray[0], ray[1] - ray[0]);
            let x_ray = Tensor2::from_fn(n, d, |r, c| x[(start + r) * ldx + c]);
            assert_eq!(
                bits(&scratch.f[start * d..(start + n) * d]),
                bits(mixer.mix_tokens_inference(&x_ray).as_slice()),
                "token mix of a {n}-point ray"
            );
            assert_eq!(
                bits(&logits[start..start + n]),
                bits(mixer.forward_inference(&x_ray).as_slice()),
                "logits of a {n}-point ray"
            );
        }
    }

    #[test]
    fn flops_has_no_softmax_term() {
        let mut rng = Rng::seed_from(27);
        let mixer = RayMixer::new(64, 16, &mut rng);
        let expect = 2 * 64 * 64 * 16 + 2 * 64 * 16 * 16 + 2 * 64 * 16;
        assert_eq!(mixer.flops(), expect as u64);
    }
}
