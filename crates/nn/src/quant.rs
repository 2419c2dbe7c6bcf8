//! Symmetric per-tensor INT8 quantization.
//!
//! The Gen-NeRF accelerator's PE pool executes INT8 systolic-array GEMMs
//! (paper Sec. 5.1: "40 16*16 INT8 systolic arrays"). This module
//! provides the quantizer plus an integer GEMM whose
//! arithmetic mirrors what the arrays compute, so algorithm-level
//! results can be produced with accelerator-faithful numerics.

use crate::tensor::Tensor2;
use serde::{Deserialize, Serialize};

/// A quantized tensor: `value ≈ scale · q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantTensor {
    /// Quantized values.
    pub q: Vec<i8>,
    /// Dequantization scale.
    pub scale: f32,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl QuantTensor {
    /// Quantizes a tensor symmetrically: `scale = max|x| / 127`.
    ///
    /// An all-zero tensor quantizes with scale 1 (any scale represents
    /// it exactly).
    pub fn quantize(x: &Tensor2) -> Self {
        let max_abs = x.max_abs();
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let q = x
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            q,
            scale,
            rows: x.rows(),
            cols: x.cols(),
        }
    }

    /// Reconstructs the `f32` tensor (the inverse the quantizer is
    /// tested against).
    #[cfg(test)]
    pub(crate) fn dequantize(&self) -> Tensor2 {
        Tensor2::from_vec(
            self.rows,
            self.cols,
            self.q.iter().map(|&v| v as f32 * self.scale).collect(),
        )
    }

    /// Integer GEMM with i32 accumulation, rescaled to `f32` — what one
    /// systolic-array pass computes. Runs through the active kernel
    /// backend; integer accumulation is exact, so every backend
    /// produces bit-identical results here.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Tensor2 {
        assert_eq!(self.cols, rhs.rows, "quant matmul dims");
        let mut out = Tensor2::zeros(self.rows, rhs.cols);
        crate::kernels::active().int8_matmul(
            &self.q,
            &rhs.q,
            out.as_mut_slice(),
            self.rows,
            self.cols,
            rhs.cols,
            self.scale,
            rhs.scale,
        );
        out
    }

    /// Worst-case absolute quantization error of a single element.
    #[cfg(test)]
    pub(crate) fn quantization_step(&self) -> f32 {
        self.scale * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let x = Tensor2::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 * 0.37).sin() * 4.0);
        let q = QuantTensor::quantize(&x);
        let back = q.dequantize();
        let max_err = (&back - &x).max_abs();
        assert!(
            max_err <= q.quantization_step() + 1e-6,
            "err {max_err} > step {}",
            q.quantization_step()
        );
    }

    #[test]
    fn extremes_map_to_127() {
        let x = Tensor2::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        let q = QuantTensor::quantize(&x);
        assert_eq!(q.q, vec![-127, 0, 127]);
    }

    #[test]
    fn zero_tensor_quantizes_exactly() {
        let x = Tensor2::zeros(4, 4);
        let q = QuantTensor::quantize(&x);
        assert_eq!(q.dequantize(), x);
    }

    #[test]
    fn quant_matmul_close_to_float() {
        let a = Tensor2::from_fn(6, 10, |r, c| ((r * 10 + c) as f32 * 0.21).sin());
        let b = Tensor2::from_fn(10, 4, |r, c| ((r * 4 + c) as f32 * 0.47).cos());
        let exact = a.matmul(&b);
        let qa = QuantTensor::quantize(&a);
        let qb = QuantTensor::quantize(&b);
        let approx = qa.matmul(&qb);
        let rel = (&approx - &exact).norm() / exact.norm();
        assert!(rel < 0.03, "relative error {rel}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_bounded(v in proptest::collection::vec(-50.0f32..50.0, 16)) {
            let x = Tensor2::from_vec(4, 4, v);
            let q = QuantTensor::quantize(&x);
            let err = (&q.dequantize() - &x).max_abs();
            prop_assert!(err <= q.quantization_step() + 1e-5);
        }

        #[test]
        fn prop_scale_positive(v in proptest::collection::vec(-10.0f32..10.0, 9)) {
            let x = Tensor2::from_vec(3, 3, v);
            prop_assert!(QuantTensor::quantize(&x).scale > 0.0);
        }
    }
}
