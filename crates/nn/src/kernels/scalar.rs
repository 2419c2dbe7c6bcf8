//! The portable register-blocked scalar backend: the readable
//! definition of every [`MicroKernel`] op, and bitwise what the AVX2
//! backend computes.
//!
//! The GEMM here is the kernel the fused-inference work was built on:
//! output tiles of [`MR`]`×`[`NR`] elements held in registers while
//! the shared dimension `k` is walked **in ascending order** with one
//! `f32` accumulator per output element — exactly the accumulation
//! order of the textbook triple loop, each step one fused
//! multiply-add ([`f32::mul_add`], one rounding, as AVX2's `vfmadd`).
//! Blocking tiles `i`/`j` only, so the result equals the naive
//! reference bit-for-bit and every output row is independent of which
//! other rows share the batch (the fused cross-ray contract). Both
//! dense entry points — the strided [`MicroKernel::gemm`] and the
//! Ray-Mixer's [`MicroKernel::token_mix`] — are that one tile loop over
//! a strided product, followed by the element-wise bias / ReLU /
//! residual arithmetic on the finished rows.
//!
//! The two multiply-add loops (the tile loop and [`MicroKernel::lanes_mlp`])
//! each have one body, compiled twice: plainly, and inside a
//! `#[target_feature(enable = "fma")]` wrapper that dispatch picks when
//! the CPU has FMA. `mul_add` is exactly rounded either way — a
//! hardware `vfmadd` inside the wrapper, libm's `fmaf` outside it — so
//! the wrapper changes the speed and never a bit. [`MicroKernel::softmax_rows`] sums in
//! AVX2's lane order (eight lane partial sums, the fixed tree of its
//! horizontal add, then the serial remainder) over [`special::exp`],
//! and ReLU is `vmaxps(x, 0)`'s `x > 0 ? x : 0`. So every op here
//! returns the AVX2 backend's bits, and the two backends are one
//! contract.

use super::chain::ChainLayer;
use super::{
    apply_epilogue, apply_token_mix_epilogue, assert_gemm_args, assert_lanes_mlp_args,
    assert_token_mix_args, special, Backend, Epilogue, MicroKernel, LANES_MLP_MAX_HIDDEN,
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
/// accumulator walks `k` in ascending order with one `mul_add` per
/// step (the bit-exactness contract; see the module docs).
#[inline(always)]
fn tile_full(p: &Product, out: &mut [f32], i0: usize, j0: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for k in 0..p.kdim {
        let b_row: &[f32; NR] = p.b[k * p.ldb + j0..k * p.ldb + j0 + NR].try_into().unwrap();
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            let aik = p.a[(i0 + ii) * p.a_rs + k * p.a_ks];
            for jj in 0..NR {
                acc_row[jj] = aik.mul_add(b_row[jj], acc_row[jj]);
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
#[inline(always)]
fn tile_edge(p: &Product, out: &mut [f32], i0: usize, j0: usize, ib: usize, jb: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for k in 0..p.kdim {
        let b_row = &p.b[k * p.ldb + j0..k * p.ldb + j0 + jb];
        for (ii, acc_row) in acc.iter_mut().enumerate().take(ib) {
            let aik = p.a[(i0 + ii) * p.a_rs + k * p.a_ks];
            for (jj, &bv) in b_row.iter().enumerate() {
                acc_row[jj] = aik.mul_add(bv, acc_row[jj]);
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate().take(ib) {
        let row = (i0 + ii) * p.ldo + j0;
        out[row..row + jb].copy_from_slice(&acc_row[..jb]);
    }
}

/// The register-blocked product: the `n` live columns of the `m`
/// output rows are overwritten, nothing else. Runs the FMA build of
/// [`product_body`] when the CPU has FMA (the same bits, faster).
fn product(p: &Product, out: &mut [f32], m: usize, n: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `product_fma` only enables `fma`, which the CPU has.
        return unsafe { product_fma(p, out, m, n) };
    }
    product_body(p, out, m, n)
}

/// [`product_body`] compiled with hardware FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "fma")]
fn product_fma(p: &Product, out: &mut [f32], m: usize, n: usize) {
    product_body(p, out, m, n)
}

/// The tile loop of [`product`].
#[inline(always)]
fn product_body(p: &Product, out: &mut [f32], m: usize, n: usize) {
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
pub(crate) struct ScalarKernel;

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

    fn lanes_mlp(&self, x: &[f32], m: usize, layers: &[ChainLayer<'_>; 3], out: &mut [f32]) {
        let h = assert_lanes_mlp_args(x, m, layers, out);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `lanes_mlp_fma` only enables `fma`, which the CPU
            // has.
            return unsafe { lanes_mlp_fma(x, m, h, layers, out) };
        }
        lanes_mlp_body(x, m, h, layers, out)
    }

    fn exp(&self, data: &mut [f32]) {
        data.iter_mut().for_each(|v| *v = special::exp(*v));
    }

    fn tenth_tanh(&self, data: &mut [f32]) {
        data.iter_mut().for_each(|v| *v = special::tenth_tanh(*v));
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
        data.iter_mut().for_each(|v| *v = relu(*v));
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
            // exp(v − max) and AVX2's sum: a partial sum per lane of
            // the whole eight-blocks, its horizontal add's fixed tree,
            // then the remainder in order.
            let mut lanes = [0.0f32; 8];
            let mut blocks = row.chunks_exact_mut(8);
            for block in &mut blocks {
                for (v, lane) in block.iter_mut().zip(&mut lanes) {
                    *v = special::exp(*v - max);
                    *lane += *v;
                }
            }
            let [p0, p1, p2, p3, p4, p5, p6, p7] = lanes;
            let mut total = ((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7));
            for v in blocks.into_remainder() {
                *v = special::exp(*v - max);
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

/// ReLU as AVX2's `vmaxps(x, 0)`: `x > 0 ? x : 0`, so NaN and −0.0
/// both map to +0.0 (`f32::max` may keep a −0.0).
#[inline(always)]
fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// [`lanes_mlp_body`] compiled with hardware FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "fma")]
fn lanes_mlp_fma(x: &[f32], m: usize, h: usize, layers: &[ChainLayer<'_>; 3], out: &mut [f32]) {
    lanes_mlp_body(x, m, h, layers, out)
}

/// [`MicroKernel::lanes_mlp`] over checked arguments of hidden width
/// `h`. Per element: `mul_add` from +0.0 over ascending `k`, `+ bias`,
/// ReLU — the product loop and `apply_epilogue`.
#[inline(always)]
fn lanes_mlp_body(x: &[f32], m: usize, h: usize, layers: &[ChainLayer<'_>; 3], out: &mut [f32]) {
    let [w1, w2, w3] = layers.each_ref().map(|l| l.w);
    let [b1, b2, b3] = layers.each_ref().map(|l| l.epi.bias.unwrap_or_default());
    for (row, o) in x.chunks_exact(2).zip(out.iter_mut()).take(m) {
        let mut h1 = [0.0f32; LANES_MLP_MAX_HIDDEN];
        for (j, hj) in h1.iter_mut().enumerate().take(h) {
            let acc = row[0].mul_add(w1[j], 0.0);
            let acc = row[1].mul_add(w1[h + j], acc);
            *hj = relu(acc + b1[j]);
        }
        // The output layer accumulates the second hidden layer's units
        // in ascending order as they are finished.
        let mut acc_out = 0.0f32;
        for j in 0..h {
            let mut acc = 0.0f32;
            for (k, &hk) in h1[..h].iter().enumerate() {
                acc = hk.mul_add(w2[k * h + j], acc);
            }
            acc_out = relu(acc + b2[j]).mul_add(w3[j], acc_out);
        }
        *o = acc_out + b3[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream with sign changes, exact zeros and a
    /// spread of magnitudes, so products round and cancel.
    fn values(seed: u32, len: usize) -> Vec<f32> {
        (0..len as u32)
            .map(|i| {
                let x = (i.wrapping_mul(2654435761).wrapping_add(seed) % 4096) as f32 / 2048.0;
                if (x - 1.0).abs() < 0.03 {
                    0.0
                } else {
                    (x - 1.0) * 3.7
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The plain and the FMA build of each multiply-add body return
    /// the same bits: `mul_add` is exactly rounded whether libm or the
    /// CPU computes it. Release builds matter most here, since the
    /// optimiser lowers the two builds differently.
    #[test]
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    fn fma_and_plain_bodies_agree_bitwise() {
        if !std::arch::is_x86_feature_detected!("fma") {
            return; // one build only on this host
        }
        // Full tiles, row edges (m % MR ≠ 0) and column edges (n % NR
        // ≠ 0), through the strided product.
        for m in [1usize, 5, 6, 13] {
            for n in [1usize, 3, 8, 19] {
                let k = 11;
                let a = values(m as u32, m * k);
                let b = values(n as u32 + 100, k * n);
                let p = Product {
                    a: &a,
                    a_rs: k,
                    a_ks: 1,
                    b: &b,
                    ldb: n,
                    ldo: n,
                    kdim: k,
                };
                let mut plain = vec![f32::NAN; m * n];
                let mut fused = vec![f32::NAN; m * n];
                product_body(&p, &mut plain, m, n);
                // SAFETY: the CPU has FMA (checked above).
                unsafe { product_fma(&p, &mut fused, m, n) };
                assert_eq!(bits(&plain), bits(&fused), "product {m}x{k}x{n}");
            }
        }
        for h in [1usize, 5, 8] {
            let w = [values(1, 2 * h), values(2, h * h), values(3, h)];
            let b = [values(4, h), values(5, h), values(6, 1)];
            let layer = |l: usize, k: usize, n: usize| ChainLayer {
                w: &w[l],
                k,
                n,
                epi: Epilogue {
                    bias: Some(&b[l]),
                    relu: l < 2,
                    residual: false,
                },
            };
            let layers = [layer(0, 2, h), layer(1, h, h), layer(2, h, 1)];
            for m in [1usize, 7, 9] {
                let x = values(m as u32 + 7, 2 * m);
                let mut plain = vec![f32::NAN; m];
                let mut fused = vec![f32::NAN; m];
                lanes_mlp_body(&x, m, h, &layers, &mut plain);
                // SAFETY: the CPU has FMA (checked above).
                unsafe { lanes_mlp_fma(&x, m, h, &layers, &mut fused) };
                assert_eq!(bits(&plain), bits(&fused), "lanes_mlp h {h} m {m}");
            }
        }
    }
}
