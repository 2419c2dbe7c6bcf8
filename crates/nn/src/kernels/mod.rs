//! Pluggable SIMD kernel backends with runtime dispatch.
//!
//! Every dense hot path of the workspace — the register-blocked GEMM
//! behind [`crate::Tensor2::matmul`] and the layer-fused inference
//! chains of [`chain`], the bias-add and ReLU of [`crate::layers`],
//! [`crate::layers::softmax_rows`] in the attention path, and the INT8
//! GEMM of [`crate::quant`] — executes through a [`MicroKernel`].
//! Which implementation runs is decided once at startup:
//!
//! * [`Backend::Scalar`] — the portable register-blocked reference
//!   kernel ([`scalar`]). Bit-for-bit identical to the pre-SIMD
//!   workspace: every regression baseline (fused ≡ per-ray renders,
//!   blocked ≡ naive GEMM) is stated against this backend.
//! * [`Backend::Avx2`] — AVX2+FMA vectorized kernels ([`avx2`]),
//!   compiled on x86/x86_64 and selected only when
//!   `is_x86_feature_detected!` confirms both features at runtime.
//!
//! Selection order: the `GEN_NERF_KERNEL` environment variable
//! (`auto`, `scalar`, `avx2`) if set, otherwise auto-detection.
//! [`set_active`] overrides the choice at runtime (benchmarks compare
//! backends in one process this way; tests serialize around it).
//!
//! # The two dense entry points
//!
//! A backend implements exactly two dense kernels, both one tile loop
//! over a strided product:
//!
//! * [`MicroKernel::gemm`] — the **strided GEMM with a fused
//!   epilogue**: `a` at row stride `lda`, `out` at row stride `ldo`,
//!   optional `+ bias`, ReLU and `+ input row` applied to the finished
//!   accumulators in registers. [`MicroKernel::matmul`] is this
//!   primitive at unit strides with no epilogue, and
//!   [`chain::dense_chain`] runs whole MLPs through it one small row
//!   panel at a time.
//! * [`MicroKernel::token_mix`] — the Ray-Mixer's token phase (paper
//!   Eq. 4) for one ray, in place on the stacked activations: the same
//!   tile loop with `W₁` read transposed, so no operand is ever
//!   transposed or copied.
//!
//! # Exactness contract
//!
//! The scalar backend preserves the workspace's historical bit-exact
//! results. The AVX2 backend changes float rounding (FMA contracts
//! mul+add into one rounding; reductions tree-sum), so scalar and AVX2
//! agree only to tight tolerances — pinned by the property tests in
//! this module (the INT8 GEMM is the exception: integer accumulation
//! is exact, so both backends match bit-for-bit).
//!
//! What every backend **must** preserve is *positional independence*:
//! an output element's value may depend only on its logical inputs,
//! never on where the element sits in a buffer, at which stride, in
//! which row panel, or how many other rows share the batch. That is
//! what keeps the fused cross-ray schedule bit-identical to per-ray
//! execution *within* a backend, for any tiling. Concretely, per
//! output element of either dense kernel:
//!
//! * **one accumulator, `k` ascending from zero** — blocking tiles `i`
//!   and `j` only; AVX2 is a `vfmadd` chain, scalar `acc += a·b`;
//! * **then the epilogue, as the unfused element functions**: `+ bias`
//!   is [`MicroKernel::add_bias_rows`]'s add, ReLU is
//!   [`MicroKernel::relu`]'s (`vmaxps(·, 0)` on AVX2, `max(0.0)` on
//!   scalar), the residual is [`MicroKernel::add_assign`]'s add — so a
//!   fused call equals the unfused sequence bit for bit, which is also
//!   what lets the integrity layer verify a panel's bare accumulators
//!   and apply the epilogue afterwards without moving a bit;
//! * **the masked-tail rule**: a vector lane and the remainder of the
//!   same loop must compute the same function. The GEMM column tail
//!   (`n % 8`) runs on masked 8-lane tiles whose live lanes execute
//!   the same `vfmadd` as a full tile (≡ the scalar `mul_add` chains
//!   the tail used to run), and a masked store never reaches past a
//!   row's `n` live columns — columns `n..ldo` belong to the caller;
//! * **`token_mix` multiplies `W₁[k,r] · X[k,c]`** where the
//!   transposed formulation multiplied `xᵀ[c,k] · W₁[k,r]`: the same
//!   two factors in the same `k` order, and IEEE multiplication
//!   commutes exactly.
//!
//! # Adding a backend
//!
//! Implement [`MicroKernel`] (a ZST with a `'static` instance) —
//! `gemm` and `token_mix` as one strided tile loop, `matmul` comes for
//! free — extend [`Backend`]/[`Backend::parse`]/[`kernel_for`], gate
//! availability in [`Backend::available`], and add the new backend to
//! the parity property tests below and in [`chain`]. Check arguments
//! with the shared hard asserts (`assert_gemm_args`,
//! `assert_token_mix_args`) before touching a raw pointer: strides and
//! lengths arrive from safe code. Keep the rules above or the
//! fused-inference regression suite will catch you.

pub mod chain;
pub mod integrity;
pub mod scalar;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub mod avx2;

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the kernel backend
/// (`auto` | `scalar` | `avx2`).
pub const KERNEL_ENV: &str = "GEN_NERF_KERNEL";

/// A kernel backend identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable register-blocked scalar kernels — the bit-exact
    /// reference.
    Scalar,
    /// AVX2 + FMA vectorized kernels (x86/x86_64 only).
    Avx2,
}

impl Backend {
    /// The backend's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a `GEN_NERF_KERNEL` value. `auto` (or empty) yields
    /// `None` — detect the best available backend; unknown values are
    /// an error carrying the offending string.
    pub fn parse(value: &str) -> Result<Option<Backend>, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(Backend::Scalar)),
            "avx2" => Ok(Some(Backend::Avx2)),
            other => Err(format!(
                "unknown {KERNEL_ENV} value {other:?} (expected auto, scalar or avx2)"
            )),
        }
    }

    /// `true` when this backend can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                {
                    false
                }
            }
        }
    }

    /// The best backend the current machine supports.
    pub fn detect() -> Backend {
        if Backend::Avx2.available() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    }

    /// Resolves the backend from `GEN_NERF_KERNEL` (falling back to
    /// [`Backend::detect`] on `auto`/unset). Unknown values and
    /// requests for an unavailable backend degrade to the best
    /// available backend with a one-line warning on stderr.
    pub fn from_env() -> Backend {
        let requested = match std::env::var(KERNEL_ENV) {
            Ok(v) => match Backend::parse(&v) {
                Ok(b) => b,
                Err(msg) => {
                    eprintln!("gen-nerf-nn: {msg}; using auto detection");
                    None
                }
            },
            Err(_) => None,
        };
        match requested {
            Some(b) if b.available() => b,
            Some(b) => {
                eprintln!(
                    "gen-nerf-nn: {KERNEL_ENV}={} requested but unavailable on this CPU; \
                     using {}",
                    b.name(),
                    Backend::detect().name()
                );
                Backend::detect()
            }
            None => Backend::detect(),
        }
    }
}

/// What [`MicroKernel::gemm`] applies to an output element once its
/// accumulation over `k` is complete, in this order: `+ bias[j]`, then
/// ReLU, then `+ a[i, j]` (the input row — the residual of a mixing
/// layer, which needs `n == k`). The default is the plain product.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Row vector of length `n` added to every output row.
    pub bias: Option<&'a [f32]>,
    /// Apply ReLU after the bias.
    pub relu: bool,
    /// Add the input row after the activation (`n == k`).
    pub residual: bool,
}

/// The hard argument checks of [`MicroKernel::gemm`], shared by every
/// backend: the AVX2 kernel walks raw pointers from these lengths, so
/// a violation must panic identically on all backends instead of
/// reading or writing out of bounds on one of them.
#[allow(clippy::too_many_arguments)] // mirrors the gemm signature
pub(crate) fn assert_gemm_args(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &[f32],
    ldo: usize,
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue<'_>,
) {
    assert!(lda >= k, "gemm: lda {lda} < k {k}");
    assert!(ldo >= n, "gemm: ldo {ldo} < n {n}");
    assert_eq!(b.len(), k * n, "gemm: weights are not k x n");
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + k, "gemm: a shorter than m rows");
        assert!(
            out.len() >= (m - 1) * ldo + n,
            "gemm: out shorter than m rows"
        );
    }
    if let Some(bias) = epi.bias {
        assert_eq!(bias.len(), n, "gemm: bias is not n wide");
    }
    assert!(!epi.residual || n == k, "gemm: residual needs n == k");
}

/// The hard argument checks of [`MicroKernel::token_mix`] (see
/// [`assert_gemm_args`] for why they are not `debug_assert!`s).
#[allow(clippy::too_many_arguments)] // mirrors the token_mix signature
pub(crate) fn assert_token_mix_args(
    x: &[f32],
    ldx: usize,
    w1: &[f32],
    ldw: usize,
    b1: &[f32],
    f: &[f32],
    ldf: usize,
    n: usize,
    d: usize,
) {
    assert!(ldx >= d, "token_mix: ldx {ldx} < d {d}");
    assert!(ldf >= d, "token_mix: ldf {ldf} < d {d}");
    assert!(ldw >= n, "token_mix: {n} tokens exceed the {ldw}-wide W1");
    assert!(b1.len() >= n, "token_mix: bias shorter than n");
    if n > 0 {
        assert!(
            w1.len() >= (n - 1) * ldw + n,
            "token_mix: W1 shorter than its n x n block"
        );
        assert!(
            x.len() >= (n - 1) * ldx + d,
            "token_mix: x shorter than n rows"
        );
        assert!(
            f.len() >= (n - 1) * ldf + d,
            "token_mix: f shorter than n rows"
        );
    }
}

/// The [`Epilogue`] of a GEMM as the **unfused** element functions of
/// `kernel`, applied to `rows` finished rows of bare accumulators: the
/// definition a fused [`MicroKernel::gemm`] must equal bit for bit. The
/// scalar backend finishes its products with it, and the in-panel
/// integrity check applies it after verifying a panel. A contiguous
/// panel is handled whole, a strided one row by row.
#[allow(clippy::too_many_arguments)] // the operands of a strided epilogue
pub(crate) fn apply_epilogue(
    kernel: &dyn MicroKernel,
    epi: &Epilogue<'_>,
    input: &[f32],
    ldi: usize,
    out: &mut [f32],
    ldo: usize,
    rows: usize,
    n: usize,
) {
    let (chunks, len) = if ldo == n && (ldi == n || !epi.residual) {
        (1, rows * n)
    } else {
        (rows, n)
    };
    for c in 0..chunks {
        let row = &mut out[c * ldo..c * ldo + len];
        if let Some(bias) = epi.bias {
            kernel.add_bias_rows(row, n, bias);
        }
        if epi.relu {
            kernel.relu(row);
        }
        if epi.residual {
            kernel.add_assign(row, &input[c * ldi..c * ldi + len]);
        }
    }
}

/// The epilogue of [`MicroKernel::token_mix`] as the unfused element
/// functions of `kernel`, applied to the `n × d` bare accumulators in
/// `f`: `+ b1[r]` per row, ReLU, `+ x[r, :]` — shared by the scalar
/// backend and the in-panel integrity check like [`apply_epilogue`].
#[allow(clippy::too_many_arguments)] // the operands of a strided epilogue
pub(crate) fn apply_token_mix_epilogue(
    kernel: &dyn MicroKernel,
    b1: &[f32],
    x: &[f32],
    ldx: usize,
    f: &mut [f32],
    ldf: usize,
    n: usize,
    d: usize,
) {
    for r in 0..n {
        let row = &mut f[r * ldf..r * ldf + d];
        row.iter_mut().for_each(|v| *v += b1[r]);
        kernel.relu(row);
        kernel.add_assign(row, &x[r * ldx..r * ldx + d]);
    }
}

/// The micro-kernel surface every backend implements. All slices are
/// row-major; `data.len()` must be a multiple of `cols` where a width
/// is given.
pub trait MicroKernel: Sync {
    /// The backend this kernel implements.
    fn backend(&self) -> Backend;

    /// The dense primitive: strided GEMM with a fused epilogue,
    /// `out[i, j] = epi(Σₖ a[i, k] · b[k, j])` for `i < m`, `j < n`.
    /// `a` has row stride `lda ≥ k`, `out` row stride `ldo ≥ n`, `b` is
    /// `k × n` contiguous. Exactly the `n` live columns of each of the
    /// `m` output rows are written — columns `n..ldo` are never
    /// touched. Every output element accumulates over the shared
    /// dimension in ascending order independently of `m`, `i` and `j`
    /// (row independence — the fused-inference contract), and the
    /// [`Epilogue`] is the element functions of
    /// [`MicroKernel::add_bias_rows`] / [`MicroKernel::relu`] /
    /// [`MicroKernel::add_assign`] applied in that order, so fusing
    /// them never changes a bit.
    ///
    /// # Panics
    ///
    /// Panics when a stride is shorter than its row, a slice is shorter
    /// than the shape needs, `b`/`bias` are not exactly `k·n`/`n` long,
    /// or a residual is requested with `n != k`.
    #[allow(clippy::too_many_arguments)] // a strided GEMM has this many operands
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
    );

    /// Dense GEMM `out = a · b` with `a` of shape `m × k` and `b` of
    /// shape `k × n`: [`MicroKernel::gemm`] at unit strides with no
    /// epilogue. `out` (length `m · n`) is fully overwritten.
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.gemm(a, k, b, out, n, m, k, n, Epilogue::default());
    }

    /// The Ray-Mixer's token mixing (paper Eq. 4) for one ray of `n`
    /// points with `d`-wide features, read and written in place in the
    /// stacked activations:
    /// `f[r, c] = relu(Σₖ w1[k, r] · x[k, c] + b1[r]) + x[r, c]` for
    /// `r < n`, `c < d`, with row strides `ldx`, `ldw` (`W₁` is
    /// `N_max` wide; only its live `n × n` block is read) and `ldf`.
    /// Per element this is the product the transposed formulation
    /// `xᵀ · W₁` computes — the same factors in the same ascending-`k`
    /// order, multiplication commuting — followed by the
    /// [`MicroKernel::add_bias_rows`] / [`MicroKernel::relu`] /
    /// [`MicroKernel::add_assign`] element functions. With `epilogue`
    /// off, `f` receives the bare accumulators `Σₖ w1[k, r] · x[k, c]`
    /// instead (the in-panel integrity check verifies those and then
    /// applies the element functions itself).
    ///
    /// # Panics
    ///
    /// Panics when a stride is shorter than its row, `n > ldw`, or a
    /// slice is shorter than `n` rows (`n` entries for `b1`).
    #[allow(clippy::too_many_arguments)] // three strided operands
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
    );

    /// Adds the `cols`-wide `bias` row vector to every row of `data`
    /// in place.
    fn add_bias_rows(&self, data: &mut [f32], cols: usize, bias: &[f32]);

    /// In-place ReLU.
    fn relu(&self, data: &mut [f32]);

    /// In-place numerically-stabilized softmax over each `cols`-wide
    /// row of `data`.
    fn softmax_rows(&self, data: &mut [f32], cols: usize);

    /// Elementwise accumulate: `acc[i] += x[i]`. One exactly-rounded
    /// binary add per element, so every backend agrees **bit-for-bit**
    /// (like the INT8 GEMM) — the per-view mean-accumulation step of
    /// feature aggregation relies on this to keep SoA acquisition
    /// bitwise equal to the seed AoS path on every backend.
    ///
    /// `x.len()` must not exceed `acc.len()`; trailing `acc` elements
    /// are untouched.
    fn add_assign(&self, acc: &mut [f32], x: &[f32]);

    /// Elementwise squared-difference accumulate:
    /// `acc[i] += (x[i] − mean[i]) · (x[i] − mean[i])`, computed as a
    /// subtract, a multiply and an add — three exactly-rounded ops,
    /// **never** contracted into an FMA — so every backend agrees
    /// bit-for-bit (the per-view variance-accumulation step of feature
    /// aggregation).
    ///
    /// `x.len()` must not exceed `acc.len()` or `mean.len()`.
    fn sq_diff_add(&self, acc: &mut [f32], x: &[f32], mean: &[f32]);

    /// `true` when every element of `data` is finite — the
    /// stage-boundary sentinel scan of the render pipeline. Finiteness
    /// of an `f32` is exactly "exponent bits ≠ all-ones", a pure bit
    /// predicate with no rounding, so every backend agrees on every
    /// input (including NaN payloads and ±0.0) — parity is pinned
    /// bitwise by the property tests below.
    fn is_finite_all(&self, data: &[f32]) -> bool;

    /// INT8 GEMM with i32 accumulation: `out[i,j] = (Σₖ a[i,k]·b[k,j])
    /// as f32 · scale_a · scale_b` (two rescale multiplications, in
    /// that order — the historical arithmetic). Integer accumulation
    /// is exact, so all backends agree bit-for-bit here.
    #[allow(clippy::too_many_arguments)] // mirrors the GEMM signature plus the two scales
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
    );
}

static SCALAR_KERNEL: scalar::ScalarKernel = scalar::ScalarKernel;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2_KERNEL: avx2::Avx2Kernel = avx2::Avx2Kernel;

/// `ACTIVE` holds the selected backend: 0 = not yet selected,
/// otherwise `backend_code`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn backend_code(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
    }
}

fn backend_from_code(c: u8) -> Backend {
    match c {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => unreachable!("invalid backend code {c}"),
    }
}

/// The kernel implementing `backend`, degraded to scalar when the
/// requested backend is unavailable on this machine.
pub fn kernel_for(backend: Backend) -> &'static dyn MicroKernel {
    match backend {
        Backend::Scalar => &SCALAR_KERNEL,
        Backend::Avx2 => {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if Backend::Avx2.available() {
                return &AVX2_KERNEL;
            }
            &SCALAR_KERNEL
        }
    }
}

/// The currently active backend, selecting it from the environment on
/// first use.
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let b = Backend::from_env();
            // A backend quarantined before first use never activates.
            let b = if integrity::is_quarantined(b) {
                Backend::Scalar
            } else {
                b
            };
            // A concurrent first use may win the race; both candidates
            // resolved the same environment, so either store is fine.
            ACTIVE.store(backend_code(b), Ordering::Relaxed);
            b
        }
        c => backend_from_code(c),
    }
}

/// The currently active kernel (the dispatch point every hot path
/// calls).
pub fn active() -> &'static dyn MicroKernel {
    kernel_for(active_backend())
}

/// Overrides the active backend at runtime, returning the backend
/// actually installed (an unavailable **or quarantined** request
/// degrades to scalar — see [`integrity::quarantine`]; the latch is
/// sticky, so a quarantined backend cannot be re-activated for the
/// rest of the process).
///
/// Intended for benchmarks that compare backends within one process
/// and for the dispatch tests; ordinary code should rely on the
/// startup selection. Callers switching backends mid-process own the
/// consistency of any bit-exactness comparison spanning the switch.
pub fn set_active(backend: Backend) -> Backend {
    let effective = if backend.available() && !integrity::is_quarantined(backend) {
        backend
    } else {
        Backend::Scalar
    };
    ACTIVE.store(backend_code(effective), Ordering::Relaxed);
    effective
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All backends that can actually run here (scalar always; avx2
    /// when the host supports it).
    fn runnable_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            v.push(Backend::Avx2);
        }
        v
    }

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Backend::parse("auto"), Ok(None));
        assert_eq!(Backend::parse(""), Ok(None));
        assert_eq!(Backend::parse("scalar"), Ok(Some(Backend::Scalar)));
        assert_eq!(Backend::parse("AVX2"), Ok(Some(Backend::Avx2)));
        assert_eq!(Backend::parse(" Scalar "), Ok(Some(Backend::Scalar)));
        assert!(Backend::parse("neon").is_err());
    }

    #[test]
    fn detect_returns_an_available_backend() {
        assert!(Backend::detect().available());
        assert!(Backend::Scalar.available());
    }

    #[test]
    fn kernel_for_reports_requested_backend_when_available() {
        assert_eq!(kernel_for(Backend::Scalar).backend(), Backend::Scalar);
        let k = kernel_for(Backend::Avx2);
        if Backend::Avx2.available() {
            assert_eq!(k.backend(), Backend::Avx2);
        } else {
            assert_eq!(k.backend(), Backend::Scalar);
        }
    }

    /// `f64` reference GEMM plus a per-element magnitude bound
    /// `Σₖ |a||b|` for tolerance scaling.
    fn matmul_f64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut out = vec![0.0f64; m * n];
        let mut mag = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for t in 0..k {
                    let av = a[i * k + t] as f64;
                    let bv = b[t * n + j] as f64;
                    out[i * n + j] += av * bv;
                    mag[i * n + j] += av.abs() * bv.abs();
                }
            }
        }
        (out, mag)
    }

    fn pseudo(vals: &mut impl Iterator<Item = f32>, len: usize) -> Vec<f32> {
        (0..len).map(|_| vals.next().unwrap()).collect()
    }

    fn value_stream(seed: u32) -> impl Iterator<Item = f32> {
        // A small deterministic stream with sign changes, exact zeros
        // and a wide magnitude range.
        (0u32..).map(move |i| {
            let x = ((i.wrapping_mul(2654435761).wrapping_add(seed)) % 2048) as f32 / 1024.0 - 1.0;
            if x.abs() < 0.05 {
                0.0
            } else {
                x * 6.0
            }
        })
    }

    #[test]
    fn matmul_backends_agree_within_tolerance() {
        // Shapes spanning full tiles, row edges, and every column-edge
        // path: 16-wide, 8-wide, and the masked tail at each width
        // `n % 8 ∈ {1, 3, 5, 7}` — alone (`n < 8`: the projections'
        // `n = 1`) and after full tiles (the point MLP's `n = 19`).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (6, 8, 16),
            (7, 13, 17),
            (12, 64, 33),
            (5, 26, 48),
            (23, 19, 9),
            (25, 16, 1),
            (13, 8, 3),
            (30, 48, 19),
            (9, 16, 5),
            (7, 5, 13),
            (11, 7, 7),
            (8, 9, 23),
        ] {
            let mut vals = value_stream((m * 31 + k * 7 + n) as u32);
            let a = pseudo(&mut vals, m * k);
            let b = pseudo(&mut vals, k * n);
            let (reference, mag) = matmul_f64(&a, &b, m, k, n);
            for backend in runnable_backends() {
                let mut out = vec![f32::NAN; m * n];
                kernel_for(backend).matmul(&a, &b, &mut out, m, k, n);
                for (i, &o) in out.iter().enumerate() {
                    let tol = 1e-5 * mag[i].max(1.0);
                    assert!(
                        ((o as f64) - reference[i]).abs() <= tol,
                        "{}: {m}x{k}x{n} elem {i}: {o} vs {} (tol {tol})",
                        backend.name(),
                        reference[i]
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_rows_are_batch_independent_per_backend() {
        // The fused-inference contract, per backend: stacking rows
        // never changes a row's result — in full tiles (48) and on the
        // masked tail at every width `n % 8 ∈ {1, 3, 5, 7}`, where a
        // row also changes its place in the six-row register tile.
        let k = 26;
        for n in [48usize, 1, 19, 13, 7] {
            let mut vals = value_stream(77 + n as u32);
            let big = pseudo(&mut vals, 9 * k);
            let b = pseudo(&mut vals, k * n);
            for backend in runnable_backends() {
                let kern = kernel_for(backend);
                let mut full = vec![0.0f32; 9 * n];
                kern.matmul(&big, &b, &mut full, 9, k, n);
                for r in 0..9 {
                    let mut single = vec![0.0f32; n];
                    kern.matmul(&big[r * k..(r + 1) * k], &b, &mut single, 1, k, n);
                    assert_eq!(
                        bits(&full[r * n..(r + 1) * n]),
                        bits(&single),
                        "{}: n {n} row {r} depends on its batch",
                        backend.name()
                    );
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn strided_gemm_matches_the_unfused_ops_and_never_writes_past_n() {
        // The strided primitive against its definition, per backend:
        // at `lda > k` / `ldo > n` every live element equals the
        // unit-stride `matmul` followed by the `add_bias_rows` /
        // `relu` / `add_assign` element functions bit for bit, and
        // columns `n..ldo` of every row — the last included — keep
        // the poison they held.
        const POISON: f32 = -12345.5;
        for &(m, k, n) in &[
            (7usize, 13usize, 19usize),
            (6, 8, 16),
            (25, 16, 1),
            (13, 5, 5),
            (9, 23, 23),
            (1, 7, 7),
        ] {
            let (lda, ldo) = (k + 3, n + 5);
            let mut vals = value_stream((m * 13 + k * 5 + n) as u32);
            let a = pseudo(&mut vals, m * lda);
            let b = pseudo(&mut vals, k * n);
            let bias = pseudo(&mut vals, n);
            let packed: Vec<f32> = a.chunks(lda).flat_map(|r| r[..k].to_vec()).collect();
            for backend in runnable_backends() {
                let kern = kernel_for(backend);
                for (with_bias, relu, residual) in [
                    (false, false, false),
                    (true, false, false),
                    (true, true, false),
                    (true, true, n == k),
                ] {
                    let mut want = vec![0.0f32; m * n];
                    kern.matmul(&packed, &b, &mut want, m, k, n);
                    if with_bias {
                        kern.add_bias_rows(&mut want, n, &bias);
                    }
                    if relu {
                        kern.relu(&mut want);
                    }
                    if residual {
                        kern.add_assign(&mut want, &packed);
                    }
                    let epi = Epilogue {
                        bias: with_bias.then_some(&bias[..]),
                        relu,
                        residual,
                    };
                    let mut out = vec![POISON; m * ldo];
                    kern.gemm(&a, lda, &b, &mut out, ldo, m, k, n, epi);
                    for (i, row) in out.chunks(ldo).enumerate() {
                        assert_eq!(
                            bits(&row[..n]),
                            bits(&want[i * n..(i + 1) * n]),
                            "{}: {m}x{k}x{n} {epi:?} row {i}",
                            backend.name()
                        );
                        assert!(
                            row[n..].iter().all(|&v| v == POISON),
                            "{}: {m}x{k}x{n} row {i} wrote past its {n} live columns",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out shorter than m rows")]
    fn strided_gemm_rejects_a_short_output_on_every_backend() {
        // A hard assert, not a debug one: the AVX2 tile loop would
        // write out of bounds.
        let (a, b) = (vec![0.0f32; 12], vec![0.0f32; 6]);
        let mut out = vec![0.0f32; 7];
        active().gemm(&a, 3, &b, &mut out, 2, 4, 3, 2, Epilogue::default());
    }

    #[test]
    fn bias_and_relu_backends_agree_exactly() {
        for cols in [1usize, 7, 8, 9, 16, 19] {
            // Enough rows that one-float rows (a single broadcast add
            // over the flat data under AVX2) fill whole vectors and
            // leave a remainder.
            let rows = 21;
            let mut vals = value_stream(cols as u32);
            let base = pseudo(&mut vals, rows * cols);
            let bias = pseudo(&mut vals, cols);
            let mut reference = base.clone();
            let scalar = kernel_for(Backend::Scalar);
            scalar.add_bias_rows(&mut reference, cols, &bias);
            scalar.relu(&mut reference);
            for backend in runnable_backends() {
                let mut data = base.clone();
                let kern = kernel_for(backend);
                kern.add_bias_rows(&mut data, cols, &bias);
                kern.relu(&mut data);
                // Numerically exact (== treats -0.0 and 0.0 alike,
                // the only sign-of-zero divergence ReLU can produce).
                assert!(
                    data.iter().zip(&reference).all(|(a, b)| a == b),
                    "{}: cols {cols}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn softmax_backends_agree_within_tolerance() {
        for cols in [1usize, 2, 7, 8, 9, 24, 33] {
            let rows = 4;
            let mut vals = value_stream(cols as u32 * 13);
            let base = pseudo(&mut vals, rows * cols);
            let mut reference = base.clone();
            kernel_for(Backend::Scalar).softmax_rows(&mut reference, cols);
            for backend in runnable_backends() {
                let mut data = base.clone();
                kernel_for(backend).softmax_rows(&mut data, cols);
                for r in 0..rows {
                    let row = &data[r * cols..(r + 1) * cols];
                    let sum: f32 = row.iter().sum();
                    assert!(
                        (sum - 1.0).abs() < 1e-5,
                        "{}: cols {cols} row {r} sums to {sum}",
                        backend.name()
                    );
                }
                for (i, (&a, &b)) in data.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() <= 2e-6,
                        "{}: cols {cols} elem {i}: {a} vs {b}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_all_neg_inf_rows_pin_uniform_fallback() {
        // The guarded behavior of a fully-masked row, identical on
        // every backend: exactly 1/cols in every slot (bitwise — it is
        // a constant fill, no arithmetic path). Mixed data must leave
        // ordinary rows on the normal path.
        for cols in [1usize, 2, 7, 8, 9, 24, 33] {
            for backend in runnable_backends() {
                let mut data = vec![f32::NEG_INFINITY; 3 * cols];
                // Middle row is ordinary.
                for (j, v) in data[cols..2 * cols].iter_mut().enumerate() {
                    *v = j as f32 * 0.25 - 1.0;
                }
                kernel_for(backend).softmax_rows(&mut data, cols);
                let uniform = 1.0 / cols as f32;
                for r in [0usize, 2] {
                    for (j, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            uniform.to_bits(),
                            "{}: cols {cols} row {r} elem {j} = {v}",
                            backend.name()
                        );
                    }
                }
                let mid: f32 = data[cols..2 * cols].iter().sum();
                assert!(
                    data[cols..2 * cols].iter().all(|v| v.is_finite()) && (mid - 1.0).abs() < 1e-5,
                    "{}: cols {cols} ordinary row disturbed",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn is_finite_all_backends_agree_on_every_pattern() {
        // Lengths spanning the vector body and the scalar remainder;
        // poison kinds covering NaN (quiet + payload), ±Inf and the
        // largest finite values. Placement sweeps every lane.
        let poisons = [
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling-style NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 40] {
            let clean: Vec<f32> = (0..len)
                .map(|i| (i as f32 - 3.5) * (f32::MAX / 64.0))
                .collect();
            for backend in runnable_backends() {
                let kern = kernel_for(backend);
                assert!(
                    kern.is_finite_all(&clean),
                    "{}: clean len {len} flagged",
                    backend.name()
                );
                for pos in 0..len {
                    for &poison in &poisons {
                        let mut data = clean.clone();
                        data[pos] = poison;
                        assert!(
                            !kern.is_finite_all(&data),
                            "{}: {poison} at {pos}/{len} missed",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_ops_agree_bitwise() {
        // The aggregation accumulators are exact elementwise chains
        // (add; sub → mul → add), so — like the INT8 GEMM — every
        // backend must agree bit-for-bit, including the remainder
        // lanes.
        for len in [1usize, 3, 7, 8, 9, 12, 16, 26, 33] {
            let mut vals = value_stream(len as u32 * 101);
            let base = pseudo(&mut vals, len);
            let x = pseudo(&mut vals, len);
            let mean = pseudo(&mut vals, len);
            let scalar = kernel_for(Backend::Scalar);
            let mut ref_add = base.clone();
            scalar.add_assign(&mut ref_add, &x);
            let mut ref_sq = base.clone();
            scalar.sq_diff_add(&mut ref_sq, &x, &mean);
            for backend in runnable_backends() {
                let kern = kernel_for(backend);
                let mut add = base.clone();
                kern.add_assign(&mut add, &x);
                let ab: Vec<u32> = add.iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = ref_add.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, rb, "{}: add_assign len {len}", backend.name());
                let mut sq = base.clone();
                kern.sq_diff_add(&mut sq, &x, &mean);
                let sb: Vec<u32> = sq.iter().map(|v| v.to_bits()).collect();
                let qb: Vec<u32> = ref_sq.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, qb, "{}: sq_diff_add len {len}", backend.name());
            }
        }
    }

    #[test]
    fn accumulate_ops_leave_tail_untouched() {
        // `x` shorter than `acc`: trailing accumulator elements must
        // not move (aggregation uses a full-width stats row with a
        // shorter fetched-feature slice).
        for backend in runnable_backends() {
            let kern = kernel_for(backend);
            let mut acc = vec![1.0f32; 10];
            kern.add_assign(&mut acc, &[2.0; 4]);
            assert_eq!(&acc[..4], &[3.0; 4]);
            assert_eq!(&acc[4..], &[1.0; 6], "{}", backend.name());
            kern.sq_diff_add(&mut acc, &[5.0; 4], &[2.0; 4]);
            assert_eq!(&acc[..4], &[12.0; 4]);
            assert_eq!(&acc[4..], &[1.0; 6], "{}", backend.name());
        }
    }

    #[test]
    fn int8_backends_agree_bitwise() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (6, 10, 4),
            (13, 48, 17),
            (8, 26, 8),
        ] {
            let a: Vec<i8> = (0..m * k)
                .map(|i| (((i * 37 + 11) % 255) as i32 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..k * n)
                .map(|i| (((i * 53 + 5) % 255) as i32 - 127) as i8)
                .collect();
            let (sa, sb) = (0.037f32, 0.41f32);
            let mut reference = vec![0.0f32; m * n];
            kernel_for(Backend::Scalar).int8_matmul(&a, &b, &mut reference, m, k, n, sa, sb);
            for backend in runnable_backends() {
                let mut out = vec![f32::NAN; m * n];
                kernel_for(backend).int8_matmul(&a, &b, &mut out, m, k, n, sa, sb);
                let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ob, rb, "{}: {m}x{k}x{n}", backend.name());
            }
        }
    }
}
