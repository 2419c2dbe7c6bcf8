//! Single-head self-attention — the *ray transformer* baseline.
//!
//! SOTA generalizable NeRFs (IBRNet and follow-ups) run a transformer
//! over the density features of all points on a ray to contextualize
//! density prediction (paper Sec. 2.2, Step 4). Gen-NeRF replaces it
//! with the Ray-Mixer; both must exist here so the ablation of Tab. 2
//! and the workload-heterogeneity argument of Fig. 2 can be reproduced.

use crate::init::Rng;
use crate::kernels;
use crate::layers::{softmax_rows, softmax_rows_backward, Linear, Param};
use crate::tensor::Tensor2;
use serde::{Deserialize, Serialize};

/// Reusable buffers for the batched inference path
/// ([`SelfAttention::forward_inference_batch_into`]): one instance per
/// long-lived render worker replaces the seven fresh `Tensor2`
/// allocations the per-ray `forward_inference` pays per call.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    x_all: Tensor2,
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    scores: Tensor2,
    ctx_all: Tensor2,
    /// The stacked output of the latest
    /// [`SelfAttention::forward_inference_batch_into`] (one row per
    /// input token, sequence-major in input order).
    pub out: Tensor2,
}

impl AttnScratch {
    /// Bytes of heap the buffers retain.
    pub fn capacity_bytes(&self) -> usize {
        [
            &self.x_all,
            &self.q,
            &self.k,
            &self.v,
            &self.scores,
            &self.ctx_all,
            &self.out,
        ]
        .iter()
        .map(|t| t.capacity_bytes())
        .sum()
    }
}

/// Single-head self-attention with a residual connection:
/// `Y = X + softmax(XWq (XWk)ᵀ / √d_k) · XWv · Wo`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    head_dim: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AttnCache {
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    attn: Tensor2,
}

impl SelfAttention {
    /// Creates an attention block over `dim`-wide tokens with a
    /// `head_dim`-wide head.
    pub fn new(dim: usize, head_dim: usize, rng: &mut Rng) -> Self {
        Self {
            wq: Linear::new(dim, head_dim, rng),
            wk: Linear::new(dim, head_dim, rng),
            wv: Linear::new(dim, head_dim, rng),
            wo: Linear::new(head_dim, dim, rng),
            head_dim,
            cache: None,
        }
    }

    /// Token width.
    pub fn dim(&self) -> usize {
        self.wq.in_dim()
    }

    /// Forward pass over `x` (`n_tokens × dim`).
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let scores = q.matmul_t(&k).scale(scale);
        let attn = softmax_rows(&scores);
        let ctx = attn.matmul(&v);
        let y = self.wo.forward(&ctx);
        self.cache = Some(AttnCache { q, k, v, attn });
        &y + x
    }

    /// Forward pass without caching (inference only) — the `&self`
    /// path render workers share across threads.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let q = self.wq.forward_inference(x);
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        let attn = softmax_rows(&q.matmul_t(&k).scale(scale));
        let y = self.wo.forward_inference(&attn.matmul(&v));
        &y + x
    }

    /// Fused inference over many independent token sequences (the
    /// rays of a chunk): the row-independent phases — the q/k/v input
    /// projections and the output projection + residual — each run as
    /// **one** GEMM over all sequences stacked row-wise, while the
    /// intrinsically per-sequence attention core (scores, softmax,
    /// context) runs per sequence over slices of the stacked
    /// activations. Temporaries live in `scratch`; the result lands in
    /// `scratch.out`, sequence-major in input order.
    ///
    /// Per-sequence output rows are **bit-identical** to calling
    /// [`SelfAttention::forward_inference`] on each sequence under the
    /// same kernel backend: GEMM rows are independent of their batch
    /// (the kernel contract), and the per-sequence phases replay the
    /// reference arithmetic exactly.
    pub fn forward_inference_batch_into(&self, xs: &[&Tensor2], scratch: &mut AttnScratch) {
        let dim = self.dim();
        let dk = self.head_dim;
        let total: usize = xs.iter().map(|x| x.rows()).sum();
        scratch.out.reset_zeroed(total, dim);
        if total == 0 {
            return;
        }
        // Stack every sequence's tokens into one input tensor, then
        // run each input projection as a single GEMM.
        scratch.x_all.reset_zeroed(total, dim);
        let mut r = 0;
        for x in xs {
            assert_eq!(x.cols(), dim, "attention input width mismatch");
            for i in 0..x.rows() {
                scratch.x_all.row_mut(r).copy_from_slice(x.row(i));
                r += 1;
            }
        }
        self.wq.forward_into(&scratch.x_all, &mut scratch.q);
        self.wk.forward_into(&scratch.x_all, &mut scratch.k);
        self.wv.forward_into(&scratch.x_all, &mut scratch.v);

        // Attention core, per sequence over stacked-row slices.
        let scale = 1.0 / (dk as f32).sqrt();
        scratch.ctx_all.reset_zeroed(total, dk);
        let kern = kernels::active();
        let mut off = 0;
        for x in xs {
            let n = x.rows();
            if n == 0 {
                continue;
            }
            // scores = (Q_i · K_iᵀ) · scale — per element an
            // ascending-t dot product followed by one multiply,
            // matching `matmul_t(..).scale(scale)` bit-for-bit.
            scratch.scores.reset_zeroed(n, n);
            for rr in 0..n {
                let q_row = scratch.q.row(off + rr);
                for cc in 0..n {
                    let k_row = scratch.k.row(off + cc);
                    let mut acc = 0.0f32;
                    for (qv, kv) in q_row.iter().zip(k_row) {
                        acc += qv * kv;
                    }
                    scratch.scores[(rr, cc)] = acc * scale;
                }
            }
            kern.softmax_rows(scratch.scores.as_mut_slice(), n);
            // ctx_i = attn · V_i — the same dispatched GEMM the
            // reference `attn.matmul(&v)` runs, on the stacked slice.
            kern.matmul(
                scratch.scores.as_slice(),
                &scratch.v.as_slice()[off * dk..(off + n) * dk],
                &mut scratch.ctx_all.as_mut_slice()[off * dk..(off + n) * dk],
                n,
                n,
                dk,
            );
            off += n;
        }

        // Output projection as one GEMM, then the residual (an exact
        // element-wise add, identical to the reference `&y + x`).
        self.wo.forward_into(&scratch.ctx_all, &mut scratch.out);
        for (o, &xv) in scratch
            .out
            .as_mut_slice()
            .iter_mut()
            .zip(scratch.x_all.as_slice())
        {
            *o += xv;
        }
    }

    /// Backward pass; accumulates parameter gradients and returns
    /// `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor2) -> Tensor2 {
        let cache = self
            .cache
            .take()
            .expect("SelfAttention::backward before forward");
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Residual.
        let mut grad_x = grad_out.clone();
        // Through Wo.
        let g_ctx = self.wo.backward(grad_out);
        // ctx = attn · v
        let g_attn = g_ctx.matmul_t(&cache.v);
        let g_v = cache.attn.t_matmul(&g_ctx);
        // attn = softmax(scores)
        let g_scores = softmax_rows_backward(&cache.attn, &g_attn).scale(scale);
        // scores(pre-scale) = q · kᵀ
        let g_q = g_scores.matmul(&cache.k);
        let g_k = g_scores.t_matmul(&cache.q);
        grad_x = &grad_x + &self.wq.backward(&g_q);
        grad_x = &grad_x + &self.wk.backward(&g_k);
        grad_x = &grad_x + &self.wv.backward(&g_v);
        grad_x
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.wq.params_mut());
        out.extend(self.wk.params_mut());
        out.extend(self.wv.params_mut());
        out.extend(self.wo.params_mut());
        out
    }

    /// FLOPs for a sequence of `n` tokens (the quadratic attention cost
    /// that makes the ray transformer workload-heterogeneous).
    pub fn flops(&self, n: usize) -> u64 {
        let d = self.dim();
        let dk = self.head_dim;
        let proj = 3 * 2 * n * d * dk + 2 * n * dk * d; // q,k,v,o projections
        let attn = 2 * n * n * dk /* qkᵀ */ + 2 * n * n * dk /* attn·v */ + 5 * n * n /* softmax */;
        (proj + attn) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::mse_loss;

    #[test]
    fn forward_shape_preserved() {
        let mut rng = Rng::seed_from(11);
        let mut attn = SelfAttention::new(8, 4, &mut rng);
        let x = Tensor2::from_fn(6, 8, |r, c| ((r * 8 + c) as f32 * 0.13).sin());
        let y = attn.forward(&x);
        assert_eq!((y.rows(), y.cols()), (6, 8));
        assert!(y.is_finite());
    }

    #[test]
    fn attention_mixes_across_tokens() {
        let mut rng = Rng::seed_from(12);
        let mut attn = SelfAttention::new(4, 4, &mut rng);
        // Two inputs identical except in token 0; outputs must differ in
        // *other* tokens too (information flows along the ray).
        let x1 = Tensor2::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        let mut x2 = x1.clone();
        x2[(0, 0)] += 2.0;
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        let row3_diff: f32 = (0..4).map(|c| (y1[(3, c)] - y2[(3, c)]).abs()).sum();
        assert!(row3_diff > 1e-5, "no cross-token flow: {row3_diff}");
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = Rng::seed_from(13);
        let mut attn = SelfAttention::new(5, 3, &mut rng);
        let mut x = Tensor2::from_fn(4, 5, |r, c| ((r * 5 + c) as f32 * 0.29).sin() * 0.5);
        let target = Tensor2::zeros(4, 5);

        let y = attn.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let gin = attn.backward(&g);
        let analytic: Vec<f32> = gin.as_slice().to_vec();

        let eps = 1e-2;
        for i in (0..analytic.len()).step_by(3) {
            let (r, c) = (i / 5, i % 5);
            let orig = x[(r, c)];
            x[(r, c)] = orig + eps;
            let lp = mse_loss(&attn.forward(&x), &target).0;
            x[(r, c)] = orig - eps;
            let lm = mse_loss(&attn.forward(&x), &target).0;
            x[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(analytic[i].abs()).max(1e-3);
            assert!(
                ((numeric - analytic[i]) / denom).abs() < crate::GRAD_CHECK_TOL * 2.5,
                "x[{i}]: numeric={numeric} analytic={}",
                analytic[i]
            );
        }
    }

    #[test]
    fn gradcheck_weight() {
        let mut rng = Rng::seed_from(14);
        let mut attn = SelfAttention::new(4, 2, &mut rng);
        let x = Tensor2::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.41).cos() * 0.7);
        let target = Tensor2::full(3, 4, 0.25);

        for p in attn.params_mut() {
            p.zero_grad();
        }
        let y = attn.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let _ = attn.backward(&g);
        // Check the first few entries of Wq's gradient.
        let analytic: Vec<f32> = attn.wq.w.grad.as_slice().to_vec();

        let eps = 1e-2;
        for (i, &a) in analytic.iter().enumerate().take(4) {
            let cols = attn.wq.w.value.cols();
            let (r, c) = (i / cols, i % cols);
            let orig = attn.wq.w.value[(r, c)];
            attn.wq.w.value[(r, c)] = orig + eps;
            let lp = mse_loss(&attn.forward(&x), &target).0;
            attn.wq.w.value[(r, c)] = orig - eps;
            let lm = mse_loss(&attn.forward(&x), &target).0;
            attn.wq.w.value[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL * 2.5,
                "wq[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn batched_inference_matches_per_sequence_bitwise() {
        // The fused q/k/v/o contract: stacking sequences changes
        // nothing, bit-for-bit, including empty sequences in the batch
        // and reused scratch buffers across calls.
        let mut rng = Rng::seed_from(19);
        let attn = SelfAttention::new(7, 4, &mut rng);
        let seqs: Vec<Tensor2> = [5usize, 1, 0, 12, 3]
            .iter()
            .map(|&n| Tensor2::from_fn(n, 7, |r, c| ((r * 7 + c) as f32 * 0.23).sin() * 1.7))
            .collect();
        let refs: Vec<&Tensor2> = seqs.iter().collect();
        let mut scratch = AttnScratch::default();
        for round in 0..2 {
            attn.forward_inference_batch_into(&refs, &mut scratch);
            let mut off = 0;
            for (i, x) in seqs.iter().enumerate() {
                let single = attn.forward_inference(x);
                for r in 0..x.rows() {
                    let sb: Vec<u32> = single.row(r).iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u32> = scratch
                        .out
                        .row(off + r)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(sb, bb, "round {round}, seq {i}, row {r} diverged");
                }
                off += x.rows();
            }
            assert_eq!(off, scratch.out.rows());
        }
    }

    #[test]
    fn flops_grow_quadratically_with_tokens() {
        let mut rng = Rng::seed_from(15);
        let attn = SelfAttention::new(16, 16, &mut rng);
        let f1 = attn.flops(32) as f64;
        let f2 = attn.flops(64) as f64;
        // Projection part is linear, attention part quadratic; doubling
        // tokens must more than double the cost.
        assert!(f2 > 2.0 * f1, "f1={f1} f2={f2}");
    }

    #[test]
    fn training_reduces_loss() {
        use crate::optim::Adam;
        let mut rng = Rng::seed_from(16);
        let mut attn = SelfAttention::new(6, 4, &mut rng);
        let x = Tensor2::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.17).sin());
        let target = Tensor2::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.17).sin() * 0.5 + 0.1);
        let mut adam = Adam::new(1e-2);
        let (first, _) = mse_loss(&attn.forward(&x), &target);
        let mut last = first;
        for _ in 0..60 {
            for p in attn.params_mut() {
                p.zero_grad();
            }
            let y = attn.forward(&x);
            let (loss, g) = mse_loss(&y, &target);
            attn.backward(&g);
            adam.step(&mut attn.params_mut());
            last = loss;
        }
        assert!(
            last < first * 0.2,
            "training failed: first={first} last={last}"
        );
    }
}
