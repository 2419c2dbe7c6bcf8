//! A row-major 2D `f32` tensor.
//!
//! # The dense `matmul` kernel and its exactness contract
//!
//! [`Tensor2::matmul`] (and [`Tensor2::matmul_into`]) execute through
//! the runtime-dispatched kernel backend ([`crate::kernels`]): the
//! register-blocked scalar reference by default, AVX2+FMA where the
//! host supports it (`GEN_NERF_KERNEL` selects). Every backend holds
//! one accumulator per output element and walks the shared dimension
//! `k` **in ascending order**; blocking tiles `i`/`j` only. Two
//! consequences the workspace relies on:
//!
//! * **Row independence.** Each output row depends only on the matching
//!   input row, so concatenating inputs row-wise (the fused cross-ray
//!   path) produces bit-for-bit the rows a per-row call would — under
//!   whichever backend is active.
//! * **Blocking is invisible.** Under the scalar backend the blocked
//!   kernel equals the naive triple loop bit-for-bit (pinned by a
//!   property test below). The AVX2 backend fuses each multiply-add
//!   (one rounding instead of two), so it matches scalar only to the
//!   tolerance pinned in [`crate::kernels`]'s parity tests.
//!
//! The dense kernel has no data-dependent branches; zero-skipping
//! survives only in the gradient-side [`Tensor2::t_matmul`], where
//! ReLU-masked rows make sparsity real.

use crate::kernels::{self, MicroKernel};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Rows per register tile of the blocked scalar `matmul` kernel
/// (re-exported from [`crate::kernels::scalar`]).
pub use crate::kernels::scalar::{MR, NR};

/// A dense, row-major 2D tensor of `f32`.
///
/// This is deliberately minimal: just the operations the Gen-NeRF models
/// need, each implemented straightforwardly so the FLOPs accounting in
/// [`crate::flops`] matches what actually executes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a tensor by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of heap this tensor retains (its buffer's capacity, not
    /// its current shape) — what a reused scratch tensor costs.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs` through the active dense kernel
    /// backend (see the module docs for the k-order exactness
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs` written into `out` (resized as
    /// needed), so hot loops can reuse one scratch buffer instead of
    /// allocating a fresh tensor per product. Bit-identical to
    /// [`Tensor2::matmul`].
    ///
    /// This dispatched path runs through the ABFT integrity wrapper
    /// ([`crate::kernels::integrity`]): with `GEN_NERF_INTEGRITY` off
    /// (the default) that adds one relaxed atomic load; in `sample`/
    /// `full` mode elected calls verify their output rows against the
    /// row-checksum identity, recording miscompares in the process
    /// fault sink. The output values themselves are untouched either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_prepare(rhs, out);
        kernels::integrity::checked_matmul(
            kernels::active(),
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// [`Tensor2::matmul_into`] through an explicit kernel, bypassing
    /// the integrity wrapper (tests and benchmarks compare backends
    /// this way; ordinary code uses the dispatched
    /// [`Tensor2::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_into_with(&self, rhs: &Self, out: &mut Self, kernel: &dyn MicroKernel) {
        self.matmul_prepare(rhs, out);
        kernel.matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Shared shape check + `out` resize of the `matmul_into` family.
    fn matmul_prepare(&self, rhs: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.rows = self.rows;
        out.cols = rhs.cols;
        // The kernel overwrites every element, so the resize fill value
        // never survives.
        out.data.resize(self.rows * rhs.cols, 0.0);
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// This is the gradient-side kernel (`xᵀ · ∂L/∂y` in
    /// `Linear::backward`); its inputs carry genuinely sparse rows
    /// (ReLU masks, padded tokens), so it keeps the zero-skip branch
    /// the dense forward kernel dropped.
    pub fn t_matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.rows, rhs.rows, "t_matmul dims");
        let mut out = Self::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (j, &b) in b_row.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.cols, "matmul_t dims");
        let mut out = Self::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += a_row[k] * b_row[k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise map in place (the allocation-free sibling of
    /// [`Tensor2::map`]; identical arithmetic).
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|v| *v = f(*v));
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard dims"
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Adds a 1×cols row vector to every row (broadcast).
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_broadcast_in_place(bias);
        out
    }

    /// Adds a 1×cols row vector to every row in place (the
    /// allocation-free sibling of [`Tensor2::add_row_broadcast`];
    /// identical arithmetic, through the active kernel backend).
    pub fn add_row_broadcast_in_place(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        kernels::active().add_bias_rows(&mut self.data, self.cols, &bias.data);
    }

    /// In-place ReLU (`v ← max(v, 0)`) through the active kernel
    /// backend — the vectorized sibling of
    /// `map_in_place(|v| v.max(0.0))`.
    pub fn relu_in_place(&mut self) {
        kernels::active().relu(&mut self.data);
    }

    /// Reshapes to `rows × cols` and fills with zeros, reusing the
    /// existing buffer — the reset step of a reused scratch tensor.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `0 × cols`, reusing the existing buffer — the reset
    /// step of a row-appended tensor (see
    /// [`Tensor2::push_row_zeroed`]).
    pub fn reset_rows(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
    }

    /// Appends one zeroed row and returns it for filling. Capacity is
    /// retained across [`Tensor2::reset_rows`] cycles, so a steady-state
    /// producer (e.g. an aggregation arena growing one stats row per
    /// sampled point) stops allocating once the buffer has grown.
    pub fn push_row_zeroed(&mut self) -> &mut [f32] {
        self.push_rows_zeroed(1)
    }

    /// Appends `n` zeroed rows with one resize and returns them — a
    /// whole ray's stats rows at once (see
    /// [`Tensor2::push_row_zeroed`]).
    pub fn push_rows_zeroed(&mut self, n: usize) -> &mut [f32] {
        let start = self.data.len();
        self.data.resize(start + n * self.cols, 0.0);
        self.rows += n;
        &mut self.data[start..]
    }

    /// Column-wise sum, producing a 1×cols row vector.
    pub fn sum_rows(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Fills the tensor with zeros in place.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Extracts rows `[start, end)` as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Self {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Stacks tensors vertically.
    ///
    /// # Panics
    ///
    /// Panics when widths disagree or `parts` is empty.
    pub fn vstack(parts: &[Self]) -> Self {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "vstack width mismatch");
            data.extend_from_slice(&p.data);
            rows += p.rows;
        }
        Self { rows, cols, data }
    }

    /// Concatenates tensors horizontally.
    ///
    /// # Panics
    ///
    /// Panics when heights disagree or `parts` is empty.
    pub fn hstack(parts: &[Self]) -> Self {
        assert!(!parts.is_empty(), "hstack of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Self::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack height mismatch");
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Tensor2 {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor2 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Tensor2> for &Tensor2 {
    type Output = Tensor2;
    fn add(self, rhs: &Tensor2) -> Tensor2 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add dims");
        Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Tensor2> for &Tensor2 {
    type Output = Tensor2;
    fn sub(self, rhs: &Tensor2) -> Tensor2 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub dims");
        Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f32> for &Tensor2 {
    type Output = Tensor2;
    fn mul(self, s: f32) -> Tensor2 {
        self.scale(s)
    }
}

impl fmt::Display for Tensor2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor2 {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor2::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Tensor2::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor2::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_rejects_mismatch() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor2::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Tensor2::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!((&fast - &slow).norm() < 1e-5);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor2::from_fn(4, 3, |r, c| (r + 2 * c) as f32 * 0.3);
        let b = Tensor2::from_fn(5, 3, |r, c| r as f32 * 0.7 - c as f32);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!((&fast - &slow).norm() < 1e-4);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor2::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let x = Tensor2::zeros(2, 3);
        let b = Tensor2::row_vector(vec![1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses() {
        let x = Tensor2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.sum_rows().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn vstack_hstack_shapes() {
        let a = Tensor2::full(2, 3, 1.0);
        let b = Tensor2::full(1, 3, 2.0);
        let v = Tensor2::vstack(&[a.clone(), b]);
        assert_eq!((v.rows(), v.cols()), (3, 3));
        let c = Tensor2::full(2, 2, 3.0);
        let h = Tensor2::hstack(&[a, c]);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        assert_eq!(h.row(0), &[1.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn slice_rows_extracts() {
        let a = Tensor2::from_fn(4, 2, |r, _| r as f32);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn mean_and_norm() {
        let a = Tensor2::from_vec(1, 4, vec![3.0, 4.0, 0.0, 1.0]);
        assert_eq!(a.mean(), 2.0);
        assert!((a.norm() - (26.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor2::from_vec(2, 2, vec![1.0]);
    }

    /// The textbook triple loop — the reference the blocked kernel
    /// must match bit-for-bit (no zero-skipping, k ascending).
    fn matmul_naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        assert_eq!(a.cols(), b.rows());
        let mut out = Tensor2::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let a = Tensor2::from_fn(5, 7, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
        let b = Tensor2::from_fn(7, 3, |r, c| ((r + c) as f32 * 0.21).cos());
        let mut out = Tensor2::full(9, 9, f32::NAN); // wrong shape, poisoned
        a.matmul_into(&b, &mut out);
        assert_eq!((out.rows(), out.cols()), (5, 3));
        assert_eq!(out, a.matmul(&b));
        // Second use with a different shape reuses the same tensor.
        let c = Tensor2::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        b.matmul_into(&c, &mut out);
        assert_eq!((out.rows(), out.cols()), (7, 2));
        assert_eq!(out, b.matmul(&c));
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let x = Tensor2::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.7);
        let bias = Tensor2::row_vector((0..6).map(|c| c as f32 * 0.3 - 1.0).collect());
        let mut y = x.clone();
        y.add_row_broadcast_in_place(&bias);
        assert_eq!(y, x.add_row_broadcast(&bias));
        let mut z = x.clone();
        z.map_in_place(|v| v.max(0.0));
        assert_eq!(z, x.map(|v| v.max(0.0)));
    }

    #[test]
    fn reset_zeroed_reshapes_and_clears() {
        let mut t = Tensor2::full(2, 3, 7.0);
        t.reset_zeroed(4, 2);
        assert_eq!((t.rows(), t.cols()), (4, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn push_row_zeroed_grows_without_reallocating_after_reset() {
        let mut t = Tensor2::full(2, 3, 7.0);
        t.reset_rows(4);
        assert_eq!((t.rows(), t.cols()), (0, 4));
        t.push_row_zeroed().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.push_row_zeroed();
        assert_eq!(r, &[0.0; 4]);
        assert_eq!((t.rows(), t.cols()), (2, 4));
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0, 4.0]);
        // A reset + refill of the same shape must not reallocate.
        let cap_ptr = t.as_slice().as_ptr();
        t.reset_rows(4);
        t.push_row_zeroed();
        t.push_row_zeroed();
        assert_eq!(t.as_slice().as_ptr(), cap_ptr);
    }

    fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor2> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Tensor2::from_vec(rows, cols, v))
    }

    proptest! {
        #[test]
        fn prop_matmul_distributes_over_add(
            a in arb_tensor(3, 4),
            b in arb_tensor(4, 2),
            c in arb_tensor(4, 2),
        ) {
            let lhs = a.matmul(&(&b + &c));
            let rhs = &a.matmul(&b) + &a.matmul(&c);
            prop_assert!((&lhs - &rhs).norm() < 1e-3);
        }

        #[test]
        fn prop_transpose_of_product(
            a in arb_tensor(3, 4),
            b in arb_tensor(4, 2),
        ) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!((&lhs - &rhs).norm() < 1e-3);
        }

        #[test]
        fn prop_hadamard_commutative(a in arb_tensor(2, 5), b in arb_tensor(2, 5)) {
            prop_assert_eq!(a.hadamard(&b), b.hadamard(&a));
        }

        #[test]
        fn prop_sum_rows_preserves_total(a in arb_tensor(4, 3)) {
            prop_assert!((a.sum_rows().sum() - a.sum()).abs() < 1e-3);
        }

        #[test]
        fn prop_blocked_matmul_matches_naive_bitwise(
            m in 1usize..11,
            k in 1usize..19,
            n in 1usize..23,
            raw in proptest::collection::vec(-6.0f32..6.0, 11 * 19 + 19 * 23),
        ) {
            // Arbitrary shapes spanning partial MR×NR edge tiles, with
            // exact zeros injected so the branchless kernel is checked
            // where the old zero-skip branch used to fire. The bitwise
            // claim is the *scalar* backend's contract, so pin that
            // kernel explicitly (the active backend may be SIMD, whose
            // FMA rounding legitimately differs — see crate::kernels).
            let sparsify = |v: f32| if v.abs() < 1.5 { 0.0 } else { v };
            let a = Tensor2::from_fn(m, k, |r, c| sparsify(raw[r * k + c]));
            let b = Tensor2::from_fn(k, n, |r, c| sparsify(raw[11 * 19 + r * n + c]));
            let mut blocked = Tensor2::zeros(0, 0);
            a.matmul_into_with(
                &b,
                &mut blocked,
                kernels::kernel_for(kernels::Backend::Scalar),
            );
            let naive = matmul_naive(&a, &b);
            let lb: Vec<u32> = blocked.as_slice().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = naive.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(lb, rb, "blocked != naive for {}x{}x{}", m, k, n);
        }

        #[test]
        fn prop_fused_rows_equal_per_row_calls(
            rows in 1usize..9,
            raw in proptest::collection::vec(-3.0f32..3.0, 9 * 5),
        ) {
            // The row-independence half of the bit-exactness contract:
            // multiplying a stacked input equals stacking per-row
            // products (what makes fused cross-ray inference exact).
            let w = Tensor2::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.77).sin());
            let x = Tensor2::from_fn(rows, 5, |r, c| raw[r * 5 + c]);
            let fused = x.matmul(&w);
            for r in 0..rows {
                let single = x.slice_rows(r, r + 1).matmul(&w);
                let fb: Vec<u32> = fused.row(r).iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u32> = single.row(0).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&fb, &sb, "row {} diverged", r);
            }
        }
    }
}
