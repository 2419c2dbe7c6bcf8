//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer caches what its backward pass needs during `forward` and
//! accumulates parameter gradients during `backward`. Training loops
//! zero gradients, run forward/backward, then hand each [`Param`] to an
//! optimizer from [`crate::optim`].

use crate::init::Rng;
use crate::kernels::chain::ChainLayer;
use crate::kernels::Epilogue;
use crate::tensor::Tensor2;
use serde::{Deserialize, Serialize};

/// A trainable parameter: value, gradient accumulator and Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor2,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor2,
    /// Adam first-moment state.
    pub m: Tensor2,
    /// Adam second-moment state.
    pub v: Tensor2,
}

impl Param {
    /// Wraps a value with zeroed gradient and optimizer state.
    pub fn new(value: Tensor2) -> Self {
        let grad = Tensor2::zeros(value.rows(), value.cols());
        Self {
            m: grad.clone(),
            v: grad.clone(),
            grad,
            value,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A fully connected layer `y = x·W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Param,
    /// Bias row vector, `1 × out_dim`.
    pub b: Param,
    cache_input: Option<Tensor2>,
}

impl Linear {
    /// Creates a Kaiming-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self {
            w: Param::new(rng.kaiming(in_dim, out_dim)),
            b: Param::new(Tensor2::zeros(1, out_dim)),
            cache_input: None,
        }
    }

    /// Builds a layer from explicit weights (used by channel pruning).
    ///
    /// # Panics
    ///
    /// Panics when `b` is not a `1 × w.cols()` row vector.
    pub fn from_weights(w: Tensor2, b: Tensor2) -> Self {
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(b.cols(), w.cols(), "bias width must match weight columns");
        Self {
            w: Param::new(w),
            b: Param::new(b),
            cache_input: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass; caches the input for `backward`.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let y = self.forward_inference(x);
        self.cache_input = Some(x.clone());
        y
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass written into a reusable scratch tensor (resized as
    /// needed) — bit-identical to [`Linear::forward_inference`] but
    /// allocation-free once `out`'s buffer has grown to size. This is
    /// what lets the fused render path stop allocating a fresh tensor
    /// per layer per ray.
    pub fn forward_into(&self, x: &Tensor2, out: &mut Tensor2) {
        x.matmul_into(&self.w.value, out);
        out.add_row_broadcast_in_place(&self.b.value);
    }

    /// This layer as one link of a fused
    /// [`dense_chain`](crate::kernels::chain::dense_chain):
    /// `x·W + b`, then ReLU when `relu`, then `+ x` when `residual`.
    /// Borrows the weights in place — nothing is packed or cached, so
    /// a trainer or pruner that mutates the layer is always seen.
    pub fn chain_layer(&self, relu: bool, residual: bool) -> ChainLayer<'_> {
        ChainLayer {
            w: self.w.value.as_slice(),
            k: self.in_dim(),
            n: self.out_dim(),
            epi: Epilogue {
                bias: Some(self.b.value.as_slice()),
                relu,
                residual,
            },
        }
    }

    /// Backward pass: accumulates `∂L/∂W`, `∂L/∂b` and returns
    /// `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor2) -> Tensor2 {
        let x = self
            .cache_input
            .as_ref()
            .expect("Linear::backward before forward");
        self.w.grad = &self.w.grad + &x.t_matmul(grad_out);
        self.b.grad = &self.b.grad + &grad_out.sum_rows();
        grad_out.matmul_t(&self.w.value)
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Multiply–accumulate count for a batch of `n` rows.
    pub fn flops(&self, n: usize) -> u64 {
        // One MAC = 2 FLOPs; plus the bias add.
        (2 * self.in_dim() * self.out_dim() * n + self.out_dim() * n) as u64
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    mask: Option<Tensor2>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the activation mask.
    pub fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        self.forward_inference(x)
    }

    /// Forward pass without caching (inference only) — usable through
    /// `&self`, so shared references to a model are `Sync`-safe across
    /// render worker threads. Runs through the active kernel backend.
    pub fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let mut y = x.clone();
        y.relu_in_place();
        y
    }

    /// In-place inference forward — bit-identical to
    /// [`Relu::forward_inference`], for scratch-buffer pipelines.
    pub(crate) fn forward_inference_in_place(&self, x: &mut Tensor2) {
        x.relu_in_place();
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&self, grad_out: &Tensor2) -> Tensor2 {
        grad_out.hadamard(self.mask.as_ref().expect("Relu::backward before forward"))
    }
}

/// Row-wise softmax (numerically stabilized), through the active
/// kernel backend.
pub(crate) fn softmax_rows(x: &Tensor2) -> Tensor2 {
    let mut y = x.clone();
    softmax_rows_in_place(&mut y);
    y
}

/// In-place sibling of [`softmax_rows`] — identical arithmetic, no
/// allocation.
pub(crate) fn softmax_rows_in_place(x: &mut Tensor2) {
    let cols = x.cols();
    crate::kernels::active().softmax_rows(x.as_mut_slice(), cols);
}

/// Backward of [`softmax_rows`] given its output `y` and upstream
/// gradient: `gᵢ = yᵢ (ĝᵢ − Σⱼ ĝⱼ yⱼ)` per row.
pub(crate) fn softmax_rows_backward(y: &Tensor2, grad_out: &Tensor2) -> Tensor2 {
    let mut grad_in = Tensor2::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        let dot: f32 = y
            .row(r)
            .iter()
            .zip(grad_out.row(r))
            .map(|(a, b)| a * b)
            .sum();
        for c in 0..y.cols() {
            grad_in[(r, c)] = y[(r, c)] * (grad_out[(r, c)] - dot);
        }
    }
    grad_in
}

/// Mean-squared-error loss; returns `(loss, ∂L/∂pred)`.
///
/// # Panics
///
/// Panics when shapes disagree or tensors are empty.
pub fn mse_loss(pred: &Tensor2, target: &Tensor2) -> (f32, Tensor2) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let diff = pred - target;
    let n = pred.len() as f32;
    let loss = diff.as_slice().iter().map(|v| v * v).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar loss w.r.t. a
    /// parameter tensor accessed through closures.
    fn grad_check(
        mut loss_fn: impl FnMut() -> f32,
        get_set: &mut dyn FnMut(Option<f32>, usize) -> f32,
        analytic: &[f32],
        n_check: usize,
    ) {
        let eps = 1e-2;
        for (i, &a) in analytic.iter().enumerate().take(n_check) {
            let orig = get_set(None, i);
            get_set(Some(orig + eps), i);
            let lp = loss_fn();
            get_set(Some(orig - eps), i);
            let lm = loss_fn();
            get_set(Some(orig), i);
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL,
                "param {i}: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn linear_forward_shape_and_values() {
        let mut rng = Rng::seed_from(1);
        let mut l = Linear::new(3, 2, &mut rng);
        // Overwrite with known weights.
        l.w.value = Tensor2::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        l.b.value = Tensor2::row_vector(vec![0.5, -0.5]);
        let x = Tensor2::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[1.0 + 3.0 + 0.5, 2.0 + 3.0 - 0.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = Rng::seed_from(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Tensor2::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let target = Tensor2::from_fn(5, 3, |r, c| ((r + c) as f32 * 0.21).cos());

        // Analytic gradients.
        l.w.zero_grad();
        l.b.zero_grad();
        let y = l.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let _ = l.backward(&g);
        let wg: Vec<f32> = l.w.grad.as_slice().to_vec();

        let mut w = l.w.value.clone();
        let b = l.b.value.clone();
        let eval = |wt: &Tensor2| {
            let y = x.matmul(wt).add_row_broadcast(&b);
            mse_loss(&y, &target).0
        };
        let analytic = wg.clone();
        let eps = 1e-2;
        let cols = w.cols();
        for (i, &a) in analytic.iter().enumerate().take(8) {
            let (r, c) = (i / cols, i % cols);
            let orig = w[(r, c)];
            w[(r, c)] = orig + eps;
            let lp = eval(&w);
            w[(r, c)] = orig - eps;
            let lm = eval(&w);
            w[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL,
                "w[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn linear_input_gradcheck() {
        let mut rng = Rng::seed_from(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let mut x = Tensor2::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.4);
        let target = Tensor2::zeros(2, 2);
        let y = l.forward(&x);
        let (_, g) = mse_loss(&y, &target);
        let gin = l.backward(&g);
        let analytic: Vec<f32> = gin.as_slice().to_vec();

        let eps = 1e-2;
        for (i, &a) in analytic.iter().enumerate() {
            let (r, c) = (i / 3, i % 3);
            let orig = x[(r, c)];
            x[(r, c)] = orig + eps;
            let lp = mse_loss(&l.forward_inference(&x), &target).0;
            x[(r, c)] = orig - eps;
            let lm = mse_loss(&l.forward_inference(&x), &target).0;
            x[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-3);
            assert!(
                ((numeric - a) / denom).abs() < crate::GRAD_CHECK_TOL,
                "x[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn forward_into_matches_forward_inference_bitwise() {
        let mut rng = Rng::seed_from(5);
        let l = Linear::new(6, 4, &mut rng);
        let relu = Relu::new();
        let x = Tensor2::from_fn(9, 6, |r, c| ((r * 6 + c) as f32 * 0.43).sin() * 2.0);
        let fresh = relu.forward_inference(&l.forward_inference(&x));
        let mut scratch = Tensor2::full(1, 1, f32::NAN);
        l.forward_into(&x, &mut scratch);
        relu.forward_inference_in_place(&mut scratch);
        let fb: Vec<u32> = fresh.as_slice().iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u32> = scratch.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, sb);
    }

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor2::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
        let g = relu.backward(&Tensor2::full(1, 4, 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor2::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.8);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let x = Tensor2::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let shifted = x.map(|v| v + 100.0);
        let a = softmax_rows(&x);
        let b = softmax_rows(&shifted);
        assert!((&a - &b).norm() < 1e-5);
    }

    #[test]
    fn softmax_backward_gradcheck() {
        let mut x = Tensor2::from_vec(2, 4, vec![0.3, -0.7, 1.1, 0.2, -0.5, 0.9, 0.0, 0.4]);
        let target = Tensor2::from_vec(2, 4, vec![0.2, 0.3, 0.1, 0.4, 0.25, 0.25, 0.25, 0.25]);
        let y = softmax_rows(&x);
        let (_, g) = mse_loss(&y, &target);
        let gin = softmax_rows_backward(&y, &g);
        let analytic: Vec<f32> = gin.as_slice().to_vec();
        let eps = 1e-3;
        for (i, &a) in analytic.iter().enumerate() {
            let (r, c) = (i / 4, i % 4);
            let orig = x[(r, c)];
            x[(r, c)] = orig + eps;
            let lp = mse_loss(&softmax_rows(&x), &target).0;
            x[(r, c)] = orig - eps;
            let lm = mse_loss(&softmax_rows(&x), &target).0;
            x[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = numeric.abs().max(a.abs()).max(1e-4);
            assert!(
                ((numeric - a) / denom).abs() < 0.05,
                "x[{i}]: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn mse_loss_zero_for_equal() {
        let x = Tensor2::full(2, 2, 3.0);
        let (loss, grad) = mse_loss(&x, &x);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    fn mse_loss_known_value() {
        let p = Tensor2::from_vec(1, 2, vec![1.0, 3.0]);
        let t = Tensor2::from_vec(1, 2, vec![0.0, 1.0]);
        let (loss, grad) = mse_loss(&p, &t);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn linear_flops_counts_macs() {
        let mut rng = Rng::seed_from(4);
        let l = Linear::new(64, 32, &mut rng);
        assert_eq!(l.flops(1), (2 * 64 * 32 + 32) as u64);
    }

    #[test]
    fn grad_check_helper_is_used() {
        // Keep the shared helper exercised (and the compiler quiet about
        // dead code) with a trivial quadratic.
        let mut p = vec![0.5f32, -1.0];
        let analytic: Vec<f32> = p.iter().map(|v| 2.0 * v).collect();
        let p_cell = std::cell::RefCell::new(&mut p);
        grad_check(
            || {
                let p = p_cell.borrow();
                p.iter().map(|v| v * v).sum::<f32>()
            },
            &mut |set, i| {
                let mut p = p_cell.borrow_mut();
                if let Some(v) = set {
                    p[i] = v;
                }
                p[i]
            },
            &analytic,
            2,
        );
    }
}
