//! Layer-fused dense chains: the dispatched, integrity-checked entry
//! points of inference.
//!
//! The paper's accelerator keeps a point's intermediate activations in
//! on-chip buffers between PE-pool layers; [`dense_chain`] is the CPU
//! twin. Instead of running each layer of an MLP as a whole-tile GEMM
//! with materialised activations and separate bias / ReLU passes, it
//! walks the rows in small panels ([`PANEL_FLOATS`]) and runs *all*
//! layers on one panel before touching the next — through
//! [`MicroKernel::gemm`]'s fused epilogue, the hidden activations in
//! two panel-sized buffers that never leave L1. [`token_mix`] is the
//! Ray-Mixer's token phase (paper Eq. 4) over every ray of a tile, in
//! place on the stacked activations through
//! [`MicroKernel::token_mix`].
//!
//! Both are safe and backend-independent: per output element they
//! perform exactly the operations of layer-by-layer
//! `matmul` + `add_bias_rows` + `relu` (+ `add_assign`) — rows are
//! positionally independent, so panelling is invisible — and they read
//! the weights in place. Nothing is packed or cached: a model's layers
//! are publicly mutable (trainer, pruning, deserialisation), so a
//! packed copy could go stale, and the 48- and 16-wide weight rows are
//! whole 8-lane vectors already while the masked tail tile covers the
//! 19- and 1-wide output layers.
//!
//! # Integrity
//!
//! Each layer of a call is one logical product for [`integrity`]:
//! elected exactly as a `Tensor2::matmul_into` of it would be, its
//! `r = B·1` computed once per call, and every panel's **pre-bias**
//! accumulators checked against the row-checksum identity while they
//! are still in L1 (for the token mix, per ray:
//! `Σ_c F_pre[r,c] = Σₖ W₁[k,r] · (Σ_c X[k,c])`). A verified product
//! runs the kernel without its epilogue, checks, then applies the
//! epilogue's element functions to the panel — the same op sequence
//! per element, so `full` ≡ `off` bitwise.

use super::integrity::{self, IntegrityMode, ProductCheck, Rows};
use super::scalar::MR;
use super::{apply_epilogue, apply_token_mix_epilogue, Epilogue, MicroKernel};

/// Floats per hidden panel of a [`dense_chain`]: 24 rows of the point
/// MLP's 48-wide hidden layer — two such panels (4.5 KB each) stay in
/// L1 beside the weights. A chain's panel is as many rows as fit its
/// widest hidden layer, rounded down to a multiple of the kernels'
/// six-row register tile (144 rows for the 8-wide blend head, whose
/// per-panel dispatch cost would otherwise rival its arithmetic).
pub const PANEL_FLOATS: usize = 24 * 48;

/// One layer of a [`dense_chain`]: `y = epi(x · w)` with `w` of shape
/// `k × n`, row-major.
#[derive(Debug, Clone, Copy)]
pub struct ChainLayer<'a> {
    /// The `k × n` weight matrix.
    pub w: &'a [f32],
    /// Input width.
    pub k: usize,
    /// Output width.
    pub n: usize,
    /// Bias / ReLU / residual applied to the product.
    pub epi: Epilogue<'a>,
}

/// The two hidden-activation panels of a [`dense_chain`], reused across
/// calls (one instance per render worker per chain).
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    h: [Vec<f32>; 2],
}

impl ChainScratch {
    /// Bytes of heap the panels retain.
    pub fn capacity_bytes(&self) -> usize {
        self.h.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }
}

/// Runs the `m` rows of `x` (contiguous, `layers[0].k` wide) through
/// every layer of the chain on the active kernel backend, the last
/// layer's `n` columns landing in `out` at row stride `ldo` (columns
/// `n..ldo` untouched). Counts as **one** dispatched GEMM call.
///
/// # Panics
///
/// Panics when `layers` is empty, consecutive widths disagree, or a
/// slice is shorter than its shape (the checks of
/// [`MicroKernel::gemm`]).
pub fn dense_chain(
    x: &[f32],
    m: usize,
    layers: &[ChainLayer<'_>],
    out: &mut [f32],
    ldo: usize,
    scratch: &mut ChainScratch,
) {
    dense_chain_on(super::active(), x, m, layers, out, ldo, scratch);
}

/// [`dense_chain`] on an explicit kernel (tests and benchmarks compare
/// backends this way; ordinary code uses the dispatched
/// [`dense_chain`]).
pub fn dense_chain_on(
    kernel: &dyn MicroKernel,
    x: &[f32],
    m: usize,
    layers: &[ChainLayer<'_>],
    out: &mut [f32],
    ldo: usize,
    scratch: &mut ChainScratch,
) {
    let last = layers
        .len()
        .checked_sub(1)
        .expect("dense_chain of no layers");
    for pair in layers.windows(2) {
        assert_eq!(pair[0].n, pair[1].k, "dense_chain: layer widths disagree");
    }
    integrity::count_dispatch(kernel.backend());
    if m == 0 {
        return;
    }
    let widest = layers[..last].iter().map(|l| l.n).max().unwrap_or(0);
    let panel_rows = (PANEL_FLOATS / widest.max(1)).max(MR) / MR * MR;
    for h in &mut scratch.h {
        if h.len() < panel_rows * widest {
            h.resize(panel_rows * widest, 0.0);
        }
    }
    let mut checks = elect_layers(layers, m);

    let k0 = layers[0].k;
    let [h0, h1] = &mut scratch.h;
    for p0 in (0..m).step_by(panel_rows) {
        let rows = (m - p0).min(panel_rows);
        for (l, layer) in layers.iter().enumerate() {
            // Layer l reads the panel layer l−1 wrote (x for the
            // first) and writes the other one (out for the last).
            let (src, dst) = if l % 2 == 1 {
                (&*h0, &mut *h1)
            } else {
                (&*h1, &mut *h0)
            };
            let (input, ldi) = if l == 0 {
                (&x[p0 * k0..], k0)
            } else {
                (&src[..], layer.k)
            };
            let (output, ldout) = if l == last {
                (&mut out[p0 * ldo..], ldo)
            } else {
                (&mut dst[..], layer.n)
            };
            let (k, n) = (layer.k, layer.n);
            let Some(check) = checks.get_mut(l).and_then(Option::as_mut) else {
                kernel.gemm(input, ldi, layer.w, output, ldout, rows, k, n, layer.epi);
                continue;
            };
            kernel.gemm(
                input,
                ldi,
                layer.w,
                output,
                ldout,
                rows,
                k,
                n,
                Epilogue::default(),
            );
            let view = Rows {
                a: input,
                a_rs: ldi,
                a_ks: 1,
                ldo: ldout,
                rows,
                b_rows: 0..k,
            };
            check.check_rows(kernel.backend(), &view, output, p0, m);
            apply_epilogue(kernel, &layer.epi, input, ldi, output, ldout, rows, n);
        }
    }
}

/// Elects each layer of one `m`-row [`dense_chain`] call as a product
/// of its own (nothing is allocated with integrity off) and hands a
/// pending chaos fault to one of the elected.
fn elect_layers<'a>(layers: &[ChainLayer<'a>], m: usize) -> Vec<Option<ProductCheck<'a>>> {
    if integrity::mode() == IntegrityMode::Off {
        return Vec::new();
    }
    let mut checks: Vec<_> = layers
        .iter()
        .map(|l| (l.n > 0 && integrity::elect()).then(|| ProductCheck::new(l.w, l.n, l.k, l.n)))
        .collect();
    let mut elected: Vec<_> = checks.iter_mut().flatten().collect();
    if !elected.is_empty() {
        if let Some(seed) = integrity::take_armed() {
            let target = (seed >> 40) as usize % elected.len();
            elected[target].aim(seed, m);
        }
    }
    checks
}

/// The Ray-Mixer's token mixing (paper Eq. 4) for every ray of a tile,
/// on the active kernel backend: ray `i` owns rows
/// `ray_offsets[i]..ray_offsets[i + 1]` of the stacked activations `x`
/// (`d` live columns at row stride `ldx`) and of the contiguous
/// `d`-wide output `f`, and is mixed through the live `n × n` block of
/// `w1` (row stride `ldw = N_max`) — see [`MicroKernel::token_mix`].
/// Counts as **one** dispatched GEMM call and one logical product.
///
/// # Panics
///
/// Panics when a ray is longer than `ldw` or a slice is shorter than
/// the offsets need (the checks of [`MicroKernel::token_mix`]).
#[allow(clippy::too_many_arguments)] // three strided operands plus the ray table
pub fn token_mix(
    x: &[f32],
    ldx: usize,
    d: usize,
    ray_offsets: &[usize],
    w1: &[f32],
    ldw: usize,
    b1: &[f32],
    f: &mut [f32],
) {
    token_mix_on(super::active(), x, ldx, d, ray_offsets, w1, ldw, b1, f);
}

/// [`token_mix`] on an explicit kernel.
#[allow(clippy::too_many_arguments)] // as `token_mix`
pub fn token_mix_on(
    kernel: &dyn MicroKernel,
    x: &[f32],
    ldx: usize,
    d: usize,
    ray_offsets: &[usize],
    w1: &[f32],
    ldw: usize,
    b1: &[f32],
    f: &mut [f32],
) {
    integrity::count_dispatch(kernel.backend());
    let total = ray_offsets.last().copied().unwrap_or(0);
    // F_pre = W₁ᵀ[..n, ..n] · X per ray: the product's B is the tile's
    // X, each ray multiplying its own rows of it.
    let mut check =
        (total > 0 && d > 0 && integrity::elect()).then(|| ProductCheck::new(x, ldx, total, d));
    if let Some(check) = &mut check {
        if let Some(seed) = integrity::take_armed() {
            check.aim(seed, total);
        }
    }
    for ray in ray_offsets.windows(2) {
        let (start, n) = (ray[0], ray[1] - ray[0]);
        if n == 0 {
            continue;
        }
        let (x_ray, f_ray) = (&x[start * ldx..], &mut f[start * d..]);
        kernel.token_mix(x_ray, ldx, w1, ldw, b1, f_ray, d, n, d, check.is_none());
        let Some(check) = &mut check else {
            continue;
        };
        let view = Rows {
            a: w1,
            a_rs: 1,
            a_ks: ldw,
            ldo: d,
            rows: n,
            b_rows: start..start + n,
        };
        check.check_rows(kernel.backend(), &view, f_ray, start, total);
        apply_token_mix_epilogue(kernel, b1, x_ray, ldx, f_ray, d, n, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{kernel_for, Backend};

    fn runnable_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            v.push(Backend::Avx2);
        }
        v
    }

    /// A deterministic stream with sign changes and exact zeros.
    fn values(seed: u32, len: usize) -> Vec<f32> {
        (0..len as u32)
            .map(|i| {
                let x =
                    (i.wrapping_mul(2654435761).wrapping_add(seed) % 2048) as f32 / 1024.0 - 1.0;
                if x.abs() < 0.05 {
                    0.0
                } else {
                    x * 1.5
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Weights, biases and flags of a chain through `dims`, ReLU on
    /// every layer but the last, a residual on the layers listed.
    struct Chain {
        dims: Vec<usize>,
        w: Vec<Vec<f32>>,
        b: Vec<Vec<f32>>,
        residual: Vec<usize>,
    }

    impl Chain {
        fn new(dims: &[usize], residual: &[usize]) -> Self {
            let pairs = || dims.windows(2).enumerate();
            Chain {
                dims: dims.to_vec(),
                w: pairs()
                    .map(|(l, d)| values(l as u32 * 7 + 1, d[0] * d[1]))
                    .collect(),
                b: pairs()
                    .map(|(l, d)| values(l as u32 * 11 + 3, d[1]))
                    .collect(),
                residual: residual.to_vec(),
            }
        }

        fn layers(&self) -> Vec<ChainLayer<'_>> {
            let last = self.w.len() - 1;
            (0..=last)
                .map(|l| ChainLayer {
                    w: &self.w[l],
                    k: self.dims[l],
                    n: self.dims[l + 1],
                    epi: Epilogue {
                        bias: Some(&self.b[l]),
                        relu: l < last,
                        residual: self.residual.contains(&l),
                    },
                })
                .collect()
        }

        /// The chain as whole-batch, layer-by-layer kernel calls — the
        /// composition `dense_chain` replaced.
        fn reference(&self, kernel: &dyn MicroKernel, x: &[f32], m: usize) -> Vec<f32> {
            let mut h = x.to_vec();
            for layer in self.layers() {
                let mut y = vec![0.0f32; m * layer.n];
                kernel.matmul(&h, layer.w, &mut y, m, layer.k, layer.n);
                kernel.add_bias_rows(&mut y, layer.n, layer.epi.bias.unwrap());
                if layer.epi.relu {
                    kernel.relu(&mut y);
                }
                if layer.epi.residual {
                    kernel.add_assign(&mut y, &h);
                }
                h = y;
            }
            h
        }
    }

    /// The four chains of the fused forward: point MLP, coarse MLP,
    /// blend head, and the mixer's channel phase + projection.
    fn forward_chains() -> Vec<Chain> {
        vec![
            Chain::new(&[26, 48, 48, 19], &[]),
            Chain::new(&[8, 16, 16, 1], &[]),
            Chain::new(&[2, 8, 8, 1], &[]),
            Chain::new(&[16, 16, 1], &[0]),
        ]
    }

    #[test]
    fn dense_chain_matches_layer_by_layer_bitwise() {
        for chain in forward_chains() {
            let layers = chain.layers();
            let (k0, n) = (chain.dims[0], *chain.dims.last().unwrap());
            for m in [0usize, 1, 5, 6, 7, 25, 1000] {
                let x = values(m as u32 + 5, m * k0);
                for backend in runnable_backends() {
                    let kernel = kernel_for(backend);
                    let want = chain.reference(kernel, &x, m);
                    // A strided destination: the columns past `n` must
                    // survive.
                    let ldo = n + 2;
                    let mut out = vec![f32::NAN; m * ldo];
                    let mut scratch = ChainScratch::default();
                    dense_chain_on(kernel, &x, m, &layers, &mut out, ldo, &mut scratch);
                    for (i, row) in out.chunks(ldo).enumerate() {
                        assert_eq!(
                            bits(&row[..n]),
                            bits(&want[i * n..(i + 1) * n]),
                            "{}: chain {:?} m {m} row {i}",
                            backend.name(),
                            chain.dims
                        );
                        assert!(row[n..].iter().all(|v| v.is_nan()));
                    }
                }
            }
        }
    }

    #[test]
    fn token_mix_matches_the_transposed_formulation_bitwise() {
        // Per backend, every ray length up to N_max, `X` at a non-unit
        // row stride: `token_mix` against `xᵀ · W₁[..n, ..n]` through
        // `matmul` with explicit transposes, bias, ReLU and residual —
        // the formulation it replaced. One call covers all 64 rays
        // (and an empty one), stacked.
        let (n_max, d, ldx) = (64usize, 16usize, 19usize);
        let w1 = values(9, n_max * n_max);
        let b1 = values(10, n_max);
        let mut offsets = vec![0usize, 0];
        for n in 1..=n_max {
            offsets.push(offsets.last().unwrap() + n);
        }
        let total = *offsets.last().unwrap();
        let x = values(11, total * ldx);
        for backend in runnable_backends() {
            let kernel = kernel_for(backend);
            let mut f = vec![f32::NAN; total * d];
            token_mix_on(kernel, &x, ldx, d, &offsets, &w1, n_max, &b1, &mut f);
            for ray in offsets.windows(2) {
                let (start, n) = (ray[0], ray[1] - ray[0]);
                let at = |r: usize, c: usize| x[(start + r) * ldx + c];
                let xt: Vec<f32> = (0..d * n).map(|i| at(i % n, i / n)).collect();
                let sub_w: Vec<f32> = (0..n * n).map(|i| w1[i / n * n_max + i % n]).collect();
                let mut ht = vec![0.0f32; d * n];
                kernel.matmul(&xt, &sub_w, &mut ht, d, n, n);
                kernel.add_bias_rows(&mut ht, n, &b1[..n]);
                kernel.relu(&mut ht);
                let want: Vec<f32> = (0..n * d)
                    .map(|i| ht[i % d * n + i / d] + at(i / d, i % d))
                    .collect();
                assert_eq!(
                    bits(&f[start * d..(start + n) * d]),
                    bits(&want),
                    "{}: ray of {n} points",
                    backend.name()
                );
            }
        }
    }
}
