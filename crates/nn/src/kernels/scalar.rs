//! The portable register-blocked scalar backend — the bit-exact
//! reference every other backend is pinned against.
//!
//! The GEMM here is the kernel the fused-inference work was built on:
//! output tiles of [`MR`]`×`[`NR`] elements held in registers while
//! the shared dimension `k` is walked **in ascending order** with one
//! `f32` accumulator per output element — exactly the accumulation
//! order of the textbook triple loop. Blocking tiles `i`/`j` only, so
//! the result equals the naive reference bit-for-bit and every output
//! row is independent of which other rows share the batch (the fused
//! cross-ray contract). Both dense entry points — the strided
//! [`MicroKernel::gemm`] and the Ray-Mixer's
//! [`MicroKernel::token_mix`] — are that one tile loop over a strided
//! product, followed by the historical element-wise bias / ReLU /
//! residual arithmetic on the finished rows. The remaining ops
//! reproduce the historical element-wise arithmetic unchanged.

use super::{
    apply_epilogue, apply_token_mix_epilogue, assert_gemm_args, assert_token_mix_args, Backend,
    Epilogue, MicroKernel,
};

/// Rows per register tile of the blocked `matmul` kernel.
pub const MR: usize = 6;

/// Columns per register tile of the blocked `matmul` kernel.
pub const NR: usize = 8;

/// The operands of one strided product `out = A · B`: element
/// `A[i, k]` lives at `a[i · a_rs + k · a_ks]` (so the token mix can
/// read `W₁` transposed without materialising it), row `k` of `B` at
/// `b[k · ldb..]`, output row `i` at `out[i · ldo..]`.
struct Product<'a> {
    a: &'a [f32],
    a_rs: usize,
    a_ks: usize,
    b: &'a [f32],
    ldb: usize,
    ldo: usize,
    kdim: usize,
}

/// One full MR×NR register tile: fixed-size accumulators and
/// fixed-width `b` rows so the inner loop auto-vectorizes. Each
/// accumulator walks `k` in ascending order (the bit-exactness
/// contract; see the module docs).
#[inline]
fn tile_full(p: &Product, out: &mut [f32], i0: usize, j0: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for k in 0..p.kdim {
        let b_row: &[f32; NR] = p.b[k * p.ldb + j0..k * p.ldb + j0 + NR].try_into().unwrap();
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            let aik = p.a[(i0 + ii) * p.a_rs + k * p.a_ks];
            for jj in 0..NR {
                acc_row[jj] += aik * b_row[jj];
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        let row = (i0 + ii) * p.ldo + j0;
        out[row..row + NR].copy_from_slice(acc_row);
    }
}

/// A partial edge tile (`ib ≤ MR` rows, `jb ≤ NR` columns): same
/// accumulation order as [`tile_full`], variable bounds.
#[inline]
fn tile_edge(p: &Product, out: &mut [f32], i0: usize, j0: usize, ib: usize, jb: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for k in 0..p.kdim {
        let b_row = &p.b[k * p.ldb + j0..k * p.ldb + j0 + jb];
        for (ii, acc_row) in acc.iter_mut().enumerate().take(ib) {
            let aik = p.a[(i0 + ii) * p.a_rs + k * p.a_ks];
            for (jj, &bv) in b_row.iter().enumerate() {
                acc_row[jj] += aik * bv;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate().take(ib) {
        let row = (i0 + ii) * p.ldo + j0;
        out[row..row + jb].copy_from_slice(&acc_row[..jb]);
    }
}

/// The register-blocked product: the `n` live columns of the `m`
/// output rows are overwritten, nothing else.
fn product(p: &Product, out: &mut [f32], m: usize, n: usize) {
    let mut i0 = 0;
    while i0 < m {
        let ib = (m - i0).min(MR);
        let mut j0 = 0;
        if ib == MR {
            while j0 + NR <= n {
                tile_full(p, out, i0, j0);
                j0 += NR;
            }
        }
        while j0 < n {
            let jb = (n - j0).min(NR);
            tile_edge(p, out, i0, j0, ib, jb);
            j0 += NR;
        }
        i0 += MR;
    }
}

/// The scalar [`MicroKernel`].
#[derive(Debug, Default)]
pub struct ScalarKernel;

impl MicroKernel for ScalarKernel {
    fn backend(&self) -> Backend {
        Backend::Scalar
    }

    fn gemm(
        &self,
        a: &[f32],
        lda: usize,
        b: &[f32],
        out: &mut [f32],
        ldo: usize,
        m: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
    ) {
        assert_gemm_args(a, lda, b, out, ldo, m, k, n, &epi);
        let p = Product {
            a,
            a_rs: lda,
            a_ks: 1,
            b,
            ldb: n,
            ldo,
            kdim: k,
        };
        product(&p, out, m, n);
        apply_epilogue(self, &epi, a, lda, out, ldo, m, n);
    }

    fn token_mix(
        &self,
        x: &[f32],
        ldx: usize,
        w1: &[f32],
        ldw: usize,
        b1: &[f32],
        f: &mut [f32],
        ldf: usize,
        n: usize,
        d: usize,
        epilogue: bool,
    ) {
        assert_token_mix_args(x, ldx, w1, ldw, b1, f, ldf, n, d);
        let p = Product {
            a: w1,
            a_rs: 1,
            a_ks: ldw,
            b: x,
            ldb: ldx,
            ldo: ldf,
            kdim: n,
        };
        product(&p, f, n, d);
        if epilogue {
            apply_token_mix_epilogue(self, b1, x, ldx, f, ldf, n, d);
        }
    }

    fn add_bias_rows(&self, data: &mut [f32], cols: usize, bias: &[f32]) {
        // Hard assert: the AVX2 backend reads `cols` floats of `bias`
        // by raw pointer, so every backend must reject this misuse
        // identically.
        assert_eq!(bias.len(), cols, "add_bias_rows: bias is not cols wide");
        debug_assert_eq!(data.len() % cols.max(1), 0);
        if cols == 0 {
            return;
        }
        for row in data.chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    fn relu(&self, data: &mut [f32]) {
        data.iter_mut().for_each(|v| *v = v.max(0.0));
    }

    fn add_assign(&self, acc: &mut [f32], x: &[f32]) {
        // Hard assert: the AVX2 backend would walk past `acc` on this
        // misuse, so every backend must reject it identically.
        assert!(x.len() <= acc.len(), "add_assign: x longer than acc");
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += v;
        }
    }

    fn sq_diff_add(&self, acc: &mut [f32], x: &[f32], mean: &[f32]) {
        assert!(x.len() <= acc.len(), "sq_diff_add: x longer than acc");
        assert!(x.len() <= mean.len(), "sq_diff_add: x longer than mean");
        for ((a, &v), &m) in acc.iter_mut().zip(x).zip(mean) {
            let d = v - m;
            *a += d * d;
        }
    }

    fn softmax_rows(&self, data: &mut [f32], cols: usize) {
        debug_assert_eq!(data.len() % cols.max(1), 0);
        if cols == 0 {
            return;
        }
        for row in data.chunks_exact_mut(cols) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            // All-(-inf) row: `v − max` would be NaN for every element
            // (a fully-masked attention row). The pinned guarded
            // behavior on every backend is the uniform distribution.
            if max == f32::NEG_INFINITY {
                row.fill(1.0 / cols as f32);
                continue;
            }
            let mut total = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                total += *v;
            }
            for v in row.iter_mut() {
                *v /= total;
            }
        }
    }

    fn is_finite_all(&self, data: &[f32]) -> bool {
        // `f32::is_finite` is the bit predicate "exponent ≠ all-ones";
        // no arithmetic, so this is the exact reference for every
        // backend.
        data.iter().all(|v| v.is_finite())
    }

    fn int8_matmul(
        &self,
        a: &[i8],
        b: &[i8],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        scale_a: f32,
        scale_b: f32,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc: i32 = 0;
                for t in 0..k {
                    acc += a[i * k + t] as i32 * b[t * n + j] as i32;
                }
                out[i * n + j] = acc as f32 * scale_a * scale_b;
            }
        }
    }
}
