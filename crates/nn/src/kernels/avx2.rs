//! The AVX2 + FMA backend.
//!
//! Safety model: [`Avx2Kernel`] is only reachable through
//! [`super::kernel_for`], which hands it out exclusively after
//! `is_x86_feature_detected!("avx2")`/`("fma")` both pass, so the
//! `#[target_feature]` functions below are sound to call.
//!
//! Positional independence (the property that keeps fused cross-ray
//! execution bit-identical to per-ray execution under this backend):
//! every vector operation is paired with a scalar remainder that
//! computes the *same* per-lane function —
//!
//! * GEMM lanes use `vfmadd`; the column remainder (`n % 8`) runs on a
//!   **masked** 8-lane tile (`vmaskmovps` loads and stores) whose live
//!   lanes execute the very same `vfmadd`, so a remainder element is
//!   what [`f32::mul_add`] chains gave it before — and no store ever
//!   reaches past a row's `n` live columns.
//! * The fused GEMM epilogue is `vaddps` (bias), `vmaxps(x, 0)` (ReLU)
//!   and `vaddps` (residual) on the finished accumulators: lane for
//!   lane the element functions of `add_bias_rows` / `relu` /
//!   `add_assign` below.
//! * ReLU lanes use `vmaxps(x, 0)` = `if x > 0 { x } else { 0 }`; the
//!   remainder spells out exactly that comparison (not `f32::max`,
//!   whose −0.0 handling may differ).
//! * The softmax `exp` is a degree-5 polynomial (Cephes `expf`)
//!   evaluated with identical mul/add sequences in the vector body and
//!   the scalar remainder.
//!
//! Relative to the scalar backend, FMA contracts one rounding per
//! multiply-add and the softmax sum reduces as a tree, so results
//! differ in the last ULPs — the tolerance contract pinned by the
//! parity tests in [`super`].

#![allow(unsafe_code)]

use super::{assert_gemm_args, assert_token_mix_args, Backend, Epilogue, MicroKernel};

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Rows per register tile (6 rows × two 8-lane accumulators each =
/// 12 of the 16 ymm registers, leaving room for the `b` loads and the
/// broadcast `a` element).
const MR: usize = 6;

/// The AVX2 [`MicroKernel`]. Constructed only behind runtime feature
/// detection (see the module docs).
#[derive(Debug, Default)]
pub struct Avx2Kernel;

impl MicroKernel for Avx2Kernel {
    fn backend(&self) -> Backend {
        Backend::Avx2
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
        // Hard asserts: the tile loop walks raw pointers from these
        // lengths and strides.
        assert_gemm_args(a, lda, b, out, ldo, m, k, n, &epi);
        debug_assert!(Backend::Avx2.available());
        let p = Product {
            a: a.as_ptr(),
            a_rs: lda,
            a_ks: 1,
            b: b.as_ptr(),
            ldb: n,
            out: out.as_mut_ptr(),
            ldo,
            kdim: k,
            bias: epi.bias.map_or(std::ptr::null(), <[f32]>::as_ptr),
            bias_per_row: false,
            relu: epi.relu,
            residual: if epi.residual {
                a.as_ptr()
            } else {
                std::ptr::null()
            },
            ld_res: lda,
        };
        // SAFETY: avx2+fma verified at dispatch time (module docs);
        // `assert_gemm_args` established every precondition of
        // `product_avx2` for an `m × n` output (rows of `a`/`out` in
        // bounds at their strides, `b` exactly `k × n`, `bias` `n`
        // long, residual rows `n == k` wide).
        unsafe { product_avx2(&p, m, n) }
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
        debug_assert!(Backend::Avx2.available());
        // F = relu(W₁ᵀ[..n, ..n] · X + b₁ ⊗ 1) + X: the same tile loop
        // with `A[r, k]` read transposed out of `W₁` and `B = X`.
        let or_null = |p: *const f32| if epilogue { p } else { std::ptr::null() };
        let p = Product {
            a: w1.as_ptr(),
            a_rs: 1,
            a_ks: ldw,
            b: x.as_ptr(),
            ldb: ldx,
            out: f.as_mut_ptr(),
            ldo: ldf,
            kdim: n,
            bias: or_null(b1.as_ptr()),
            bias_per_row: true,
            relu: epilogue,
            residual: or_null(x.as_ptr()),
            ld_res: ldx,
        };
        // SAFETY: avx2+fma verified at dispatch time (module docs);
        // `assert_token_mix_args` established every precondition of
        // `product_avx2` for an `n × d` output (the `n × n` block of
        // `w1`, `n` rows of `x` and `f` at their strides, `n` biases).
        unsafe { product_avx2(&p, n, d) }
    }

    fn add_bias_rows(&self, data: &mut [f32], cols: usize, bias: &[f32]) {
        // Hard assert: the vector body reads `cols` floats of `bias`
        // by raw pointer.
        assert_eq!(bias.len(), cols, "add_bias_rows: bias is not cols wide");
        debug_assert_eq!(data.len() % cols.max(1), 0);
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs);
        // `bias` is `cols` long by the assert above.
        unsafe { add_bias_rows_avx2(data, cols, bias) }
    }

    fn relu(&self, data: &mut [f32]) {
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs).
        unsafe { relu_avx2(data) }
    }

    fn softmax_rows(&self, data: &mut [f32], cols: usize) {
        debug_assert_eq!(data.len() % cols.max(1), 0);
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs).
        unsafe { softmax_rows_avx2(data, cols) }
    }

    fn add_assign(&self, acc: &mut [f32], x: &[f32]) {
        // Hard assert: the vector body loads/stores `x.len()` elements
        // of `acc`, so a longer `x` would be out-of-bounds UB from
        // safe code if only debug-checked.
        assert!(x.len() <= acc.len(), "add_assign: x longer than acc");
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs);
        // bounds guaranteed by the assert above.
        unsafe { add_assign_avx2(acc, x) }
    }

    fn sq_diff_add(&self, acc: &mut [f32], x: &[f32], mean: &[f32]) {
        assert!(x.len() <= acc.len(), "sq_diff_add: x longer than acc");
        assert!(x.len() <= mean.len(), "sq_diff_add: x longer than mean");
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs);
        // bounds guaranteed by the asserts above.
        unsafe { sq_diff_add_avx2(acc, x, mean) }
    }

    fn is_finite_all(&self, data: &[f32]) -> bool {
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs).
        unsafe { is_finite_all_avx2(data) }
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
        debug_assert!(Backend::Avx2.available());
        // SAFETY: avx2+fma verified at dispatch time (module docs).
        unsafe { int8_matmul_avx2(a, b, out, m, k, n, scale_a, scale_b) }
    }
}

// ---- dense GEMM ------------------------------------------------------

/// One strided product `out = epilogue(A · B)` as the tile loop sees
/// it: element `A[i, k]` at `a + i·a_rs + k·a_ks`, row `k` of `B` at
/// `b + k·ldb`, output row `i` at `out + i·ldo`.
struct Product {
    a: *const f32,
    a_rs: usize,
    a_ks: usize,
    b: *const f32,
    ldb: usize,
    out: *mut f32,
    ldo: usize,
    kdim: usize,
    /// Bias (null: none): one value per output column, or — the token
    /// mix — one per output row.
    bias: *const f32,
    bias_per_row: bool,
    relu: bool,
    /// Residual rows (null: none) added after the activation, row `i`
    /// at `residual + i·ld_res`.
    residual: *const f32,
    ld_res: usize,
}

/// `LANE_MASKS[8 - live..]` is the `vmaskmovps` mask with the first
/// `live` lanes on.
static LANE_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The `vmaskmovps` mask with the first `live` lanes on.
///
/// # Safety
///
/// Requires avx2; `live` must be at most 8.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn lane_mask(live: usize) -> __m256i {
    _mm256_loadu_si256(LANE_MASKS.as_ptr().add(8 - live) as *const __m256i)
}

/// Eight lanes from `p`, or only the lanes `mask` turns on (the rest
/// read as zero and their memory is not accessed).
///
/// # Safety
///
/// Requires avx2; the live lanes at `p` must be readable.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn load<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
    if MASKED {
        _mm256_maskload_ps(p, mask)
    } else {
        _mm256_loadu_ps(p)
    }
}

/// One register tile of a [`Product`]: rows `i0..i0 + rows` (`MR` when
/// `FULL`, else `ib < MR`), `NV` 8-lane vectors of columns from `j0`
/// (the single vector limited to `mask`'s lanes when `MASKED`). Per
/// element a `vfmadd` chain over `k` ascending from zero, then the
/// epilogue.
///
/// # Safety
///
/// Requires avx2+fma. For the tile's rows `i` and live columns `j`:
/// `a + i·a_rs + k·a_ks` (`k < kdim`), `b + k·ldb + j`,
/// `out + i·ldo + j` and — when non-null — `bias + j` (`bias + i` per
/// row) and `residual + i·ld_res + j` must be in bounds, and `out`
/// must not alias an input.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile<const NV: usize, const MASKED: bool, const FULL: bool>(
    p: &Product,
    i0: usize,
    ib: usize,
    j0: usize,
    mask: __m256i,
) {
    let rows = if FULL { MR } else { ib };
    let mut acc = [[_mm256_setzero_ps(); NV]; MR];
    let a0 = p.a.add(i0 * p.a_rs);
    for k in 0..p.kdim {
        let bp = p.b.add(k * p.ldb + j0);
        let mut bv = [_mm256_setzero_ps(); NV];
        for (v, b) in bv.iter_mut().enumerate() {
            *b = load::<MASKED>(bp.add(8 * v), mask);
        }
        let ak = a0.add(k * p.a_ks);
        for (ii, acc_row) in acc.iter_mut().enumerate().take(rows) {
            let av = _mm256_set1_ps(*ak.add(ii * p.a_rs));
            for (c, b) in acc_row.iter_mut().zip(&bv) {
                *c = _mm256_fmadd_ps(av, *b, *c);
            }
        }
    }
    let zero = _mm256_setzero_ps();
    for (ii, acc_row) in acc.iter().enumerate().take(rows) {
        let i = i0 + ii;
        for (v, &c) in acc_row.iter().enumerate() {
            let j = j0 + 8 * v;
            let mut c = c;
            if !p.bias.is_null() {
                let bias = if p.bias_per_row {
                    _mm256_set1_ps(*p.bias.add(i))
                } else {
                    load::<MASKED>(p.bias.add(j), mask)
                };
                c = _mm256_add_ps(c, bias);
            }
            if p.relu {
                c = _mm256_max_ps(c, zero);
            }
            if !p.residual.is_null() {
                c = _mm256_add_ps(c, load::<MASKED>(p.residual.add(i * p.ld_res + j), mask));
            }
            let op = p.out.add(i * p.ldo + j);
            if MASKED {
                _mm256_maskstore_ps(op, mask, c);
            } else {
                _mm256_storeu_ps(op, c);
            }
        }
    }
}

/// Every column tile of one row block: 16-wide tiles, then one 8-wide,
/// then the masked tail.
///
/// # Safety
///
/// As [`product_avx2`], for rows `i0..i0 + ib`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_block<const FULL: bool>(p: &Product, i0: usize, ib: usize, n: usize, mask: __m256i) {
    let mut j0 = 0;
    while j0 + 16 <= n {
        tile::<2, false, FULL>(p, i0, ib, j0, mask);
        j0 += 16;
    }
    if j0 + 8 <= n {
        tile::<1, false, FULL>(p, i0, ib, j0, mask);
        j0 += 8;
    }
    if j0 < n {
        tile::<1, true, FULL>(p, i0, ib, j0, mask);
    }
}

/// The tile loop: the `n` live columns of `m` output rows.
///
/// # Safety
///
/// Requires avx2+fma, and the [`tile`] preconditions for every
/// `i < m`, `j < n`: `A` readable at its two strides, `B` `kdim` rows
/// of at least `n` readable floats at stride `ldb`, `out` `m` rows of
/// `n` writable floats at stride `ldo` aliasing no input, `bias`
/// (when non-null) `n` long — `m` long per row — and `residual` (when
/// non-null) `m` rows of `n` floats at stride `ld_res`.
#[target_feature(enable = "avx2,fma")]
unsafe fn product_avx2(p: &Product, m: usize, n: usize) {
    let mask = lane_mask(n % 8);
    let mut i0 = 0;
    while i0 + MR <= m {
        row_block::<true>(p, i0, MR, n, mask);
        i0 += MR;
    }
    if i0 < m {
        row_block::<false>(p, i0, m - i0, n, mask);
    }
}

// ---- element-wise ----------------------------------------------------

/// `row += bias` for every whole `cols`-wide row of `data`: 8-lane
/// `vaddps` with a scalar `+=` remainder (binary `+` is exactly
/// rounded, so the remainder is lane-identical to `vaddps` and to the
/// scalar backend). One-float rows — the in-panel integrity check
/// applies the bias of the `n = 1` output layers this way — are one
/// broadcast add over the flat data instead of a loop per row.
///
/// # Safety
///
/// Requires avx2; `bias` must hold at least `cols` floats.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_bias_rows_avx2(data: &mut [f32], cols: usize, bias: &[f32]) {
    if cols == 0 {
        return;
    }
    if cols == 1 {
        // Every element is a row and takes the same bias.
        let b = bias[0];
        let splat = _mm256_set1_ps(b);
        let mut chunks = data.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let p = chunk.as_mut_ptr();
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), splat));
        }
        for v in chunks.into_remainder() {
            *v += b;
        }
        return;
    }
    let body = cols - cols % 8;
    for row in data.chunks_exact_mut(cols) {
        let row = row.as_mut_ptr();
        let mut c = 0;
        while c < body {
            let bv = _mm256_loadu_ps(bias.as_ptr().add(c));
            _mm256_storeu_ps(row.add(c), _mm256_add_ps(_mm256_loadu_ps(row.add(c)), bv));
            c += 8;
        }
        for c in body..cols {
            *row.add(c) += *bias.get_unchecked(c);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn relu_avx2(data: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= data.len() {
        let v = _mm256_loadu_ps(data.as_ptr().add(i));
        _mm256_storeu_ps(data.as_mut_ptr().add(i), _mm256_max_ps(v, zero));
        i += 8;
    }
    for v in &mut data[i..] {
        // `vmaxps(x, 0)` semantics exactly: x > 0 ? x : 0 (NaN and
        // −0.0 both map to +0.0).
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// `acc[i] += x[i]` over the leading `x.len()` elements. Binary `+` is
/// exactly rounded, so lanes and the scalar remainder agree with the
/// scalar backend bit-for-bit.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_assign_avx2(acc: &mut [f32], x: &[f32]) {
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let a = _mm256_loadu_ps(acc.as_ptr().add(i));
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, v));
        i += 8;
    }
    for (a, &v) in acc[i..n].iter_mut().zip(&x[i..n]) {
        *a += v;
    }
}

/// `acc[i] += (x[i] − mean[i])²` over the leading `x.len()` elements.
/// Deliberately sub → mul → add (no FMA contraction), so each element
/// matches the scalar backend bit-for-bit — this is what keeps SoA
/// feature aggregation backend-independent.
#[target_feature(enable = "avx2,fma")]
unsafe fn sq_diff_add_avx2(acc: &mut [f32], x: &[f32], mean: &[f32]) {
    let n = x.len();
    let mut i = 0;
    while i + 8 <= n {
        let a = _mm256_loadu_ps(acc.as_ptr().add(i));
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let m = _mm256_loadu_ps(mean.as_ptr().add(i));
        let d = _mm256_sub_ps(v, m);
        _mm256_storeu_ps(
            acc.as_mut_ptr().add(i),
            _mm256_add_ps(a, _mm256_mul_ps(d, d)),
        );
        i += 8;
    }
    for ((a, &v), &m) in acc[i..n].iter_mut().zip(&x[i..n]).zip(&mean[i..n]) {
        let d = v - m;
        *a += d * d;
    }
}

/// `true` when every element is finite. Finiteness is the bit
/// predicate "exponent bits ≠ all-ones" — no rounding — so the vector
/// body (integer mask-and-compare) and the scalar remainder
/// (`f32::is_finite`) decide identically for every bit pattern,
/// including NaN payloads: exact parity with the scalar backend.
#[target_feature(enable = "avx2,fma")]
unsafe fn is_finite_all_avx2(data: &[f32]) -> bool {
    let exp_mask = _mm256_set1_epi32(0x7f80_0000);
    let mut i = 0;
    while i + 8 <= data.len() {
        let bits = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
        // A lane is non-finite iff (bits & exp_mask) == exp_mask.
        let exp = _mm256_and_si256(bits, exp_mask);
        let bad = _mm256_cmpeq_epi32(exp, exp_mask);
        if _mm256_movemask_epi8(bad) != 0 {
            return false;
        }
        i += 8;
    }
    data[i..].iter().all(|v| v.is_finite())
}

// ---- softmax ---------------------------------------------------------

// Cephes expf constants (the classic exp_ps polynomial).
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -88.376_26;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const EXP_C1: f32 = 0.693_359_4; // ln(2) high part
const EXP_C2: f32 = -2.121_944_4e-4; // ln(2) low part
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_4e-1;

/// Vectorized `expf` approximation (max relative error ≈ 2⁻²², i.e. a
/// couple of ULPs).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_ps(x: __m256) -> __m256 {
    let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
    let mut x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
    // n = floor(x·log2(e) + 0.5)
    let mut fx = _mm256_add_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
        _mm256_set1_ps(0.5),
    );
    fx = _mm256_floor_ps(fx);
    // x -= n·ln(2), in two parts for precision.
    x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(EXP_C1)));
    x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(EXP_C2)));
    let z = _mm256_mul_ps(x, x);
    let mut y = _mm256_set1_ps(EXP_P0);
    y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(EXP_P1));
    y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(EXP_P2));
    y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(EXP_P3));
    y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(EXP_P4));
    y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(EXP_P5));
    y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x), _mm256_set1_ps(1.0));
    // 2ⁿ via the exponent bits.
    let n = _mm256_cvttps_epi32(fx);
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        n,
        _mm256_set1_epi32(0x7f),
    )));
    _mm256_mul_ps(y, pow2n)
}

/// Scalar mirror of [`exp_ps`]: the identical operation sequence, so a
/// remainder element matches what its vector lane would have computed.
#[inline]
#[allow(clippy::manual_clamp)] // `vminps` then `vmaxps`, as the lanes do: a NaN comes out `EXP_HI`, `clamp` would keep it
fn exp_scalar_mirror(x: f32) -> f32 {
    let x = x.min(EXP_HI).max(EXP_LO);
    let fx = (x * LOG2EF + 0.5).floor();
    let x = x - fx * EXP_C1;
    let x = x - fx * EXP_C2;
    let z = x * x;
    let mut y = EXP_P0;
    y = y * x + EXP_P1;
    y = y * x + EXP_P2;
    y = y * x + EXP_P3;
    y = y * x + EXP_P4;
    y = y * x + EXP_P5;
    let y = y * z + x + 1.0;
    let n = fx as i32;
    y * f32::from_bits(((n + 0x7f) as u32) << 23)
}

/// Horizontal max of a ymm register.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hmax(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps::<1>(v);
    let lo = _mm256_castps256_ps128(v);
    let m = _mm_max_ps(lo, hi);
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let m = _mm_max_ss(m, _mm_shuffle_ps::<0b01>(m, m));
    _mm_cvtss_f32(m)
}

/// Horizontal sum of a ymm register (fixed tree order).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps::<1>(v);
    let lo = _mm256_castps256_ps128(v);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s));
    _mm_cvtss_f32(s)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_rows_avx2(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in data.chunks_exact_mut(cols) {
        // Max reduction (exact regardless of order for finite data).
        let mut c = 0;
        let mut maxv = _mm256_set1_ps(f32::NEG_INFINITY);
        while c + 8 <= cols {
            maxv = _mm256_max_ps(maxv, _mm256_loadu_ps(row.as_ptr().add(c)));
            c += 8;
        }
        let mut max = hmax(maxv);
        for &v in &row[c..] {
            max = if v > max { v } else { max };
        }
        // All-(-inf) row: `v − max` would be NaN lane-wise. Pinned
        // guarded behavior, identical to the scalar backend: the
        // uniform distribution.
        if max == f32::NEG_INFINITY {
            row.fill(1.0 / cols as f32);
            continue;
        }
        // exp(x − max) and the sum, vector body + mirrored remainder.
        let maxb = _mm256_set1_ps(max);
        let mut sumv = _mm256_setzero_ps();
        c = 0;
        while c + 8 <= cols {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(c)), maxb));
            _mm256_storeu_ps(row.as_mut_ptr().add(c), e);
            sumv = _mm256_add_ps(sumv, e);
            c += 8;
        }
        let mut total = hsum(sumv);
        for v in &mut row[c..] {
            *v = exp_scalar_mirror(*v - max);
            total += *v;
        }
        // Normalize (division is exactly rounded lane-wise).
        let totb = _mm256_set1_ps(total);
        c = 0;
        while c + 8 <= cols {
            let v = _mm256_loadu_ps(row.as_ptr().add(c));
            _mm256_storeu_ps(row.as_mut_ptr().add(c), _mm256_div_ps(v, totb));
            c += 8;
        }
        for v in &mut row[c..] {
            *v /= total;
        }
    }
}

// ---- INT8 GEMM -------------------------------------------------------

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // mirrors the trait signature
unsafe fn int8_matmul_avx2(
    a: &[i8],
    b: &[i8],
    out: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
    scale_a: f32,
    scale_b: f32,
) {
    let sa = _mm256_set1_ps(scale_a);
    let sb = _mm256_set1_ps(scale_b);
    for i in 0..m {
        let a_row = &a[i * kdim..(i + 1) * kdim];
        let mut j0 = 0;
        while j0 + 8 <= n {
            // 8 i32 accumulators: widen 8 bytes of the b row, multiply
            // by the broadcast a element, accumulate. i32 wrap-around
            // arithmetic is exact, so this is bit-identical to the
            // scalar backend.
            let mut acc = _mm256_setzero_si256();
            for (k, &av) in a_row.iter().enumerate() {
                let bv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                    b.as_ptr().add(k * n + j0) as *const __m128i
                ));
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(_mm256_set1_epi32(av as i32), bv));
            }
            // `(acc as f32) · scale_a · scale_b` — the same two
            // rounding steps as the scalar backend, lane-wise.
            let f = _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), sa), sb);
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j0), f);
            j0 += 8;
        }
        for j in j0..n {
            let mut acc: i32 = 0;
            for (k, &av) in a_row.iter().enumerate() {
                acc += av as i32 * b[k * n + j] as i32;
            }
            out[i * n + j] = acc as f32 * scale_a * scale_b;
        }
    }
}
