//! Algorithm-based fault tolerance (ABFT) for the dense GEMM path,
//! plus the integrity state the serve tier drives: the per-thread
//! fault slot, the chaos-injection hook and the backend quarantine
//! latch.
//!
//! # Checksum math
//!
//! For `C = A·B` (`A` m×k, `B` k×n) the check computes the row-sum
//! vector of `B` once — `r = B·1` (one O(k·n) GEMV, the "one extra
//! GEMV" of classical ABFT) — and verifies every output row against
//! the identity
//!
//! ```text
//! Σⱼ C[i,j]  ==  Σₖ A[i,k] · r[k]        (exactly, in real arithmetic)
//! ```
//!
//! Both sides are accumulated in `f64`, so the only slack needed is
//! the `f32` rounding inside the GEMM itself. The tolerance scales
//! with the row's magnitude bound `Σₖ |A[i,k]| · (|B|·1)[k]` — the
//! largest value any intermediate could reach — with `REL` chosen
//! orders of magnitude above worst-case accumulation error so a clean
//! run can never false-positive, yet far below the smallest
//! corruption worth injecting. The comparison is written `!(diff <=
//! tol)` so a NaN or Inf in the output row trips the check too.
//!
//! # Verification inside the panel
//!
//! A *logical product* is one `A·B` of one dispatched call: a
//! `Tensor2::matmul_into` (`checked_matmul`), one layer of a
//! [`dense_chain`](super::chain::dense_chain), or the token mix of a
//! `token_mix` call (its `B` the tile's
//! stacked `X`, each ray multiplying its own rows of it by its
//! `n × n` block of `W₁ᵀ`). Each product is elected on its own —
//! always in `full`, one tick of the process-wide counter per product
//! in `sample` (so a three-layer chain is sampled exactly as three
//! `matmul_into` calls were: 1 product in [`SAMPLE_PERIOD`]) — and an
//! elected product is one check in [`check_stats`].
//!
//! The fused chains never materialise a layer's whole output, so the
//! check runs where the data is: an elected product computes `r`
//! **once per call**, then every row panel's **pre-bias accumulators**
//! are checked against the identity while still in L1, before the
//! epilogue touches them (the kernel runs without its fused epilogue,
//! the panel is verified, then bias / ReLU / residual are applied to
//! it by the same element functions — so `full` ≡ `off` bitwise).
//! Nothing a whole-tile check covered is lost: the same rows, the same
//! identity, the same two-tier tolerance, the same fault slot.
//!
//! Verification costs O(m·k + m·n + k·n) against the GEMM's
//! O(m·k·n) — but the workspace's inner dimensions are small (k in
//! the tens, the blend head's k = 2), so the per-row fixed cost is
//! what matters. The AVX2 lanes therefore verify four rows per step
//! in packed `f64` (the private `simd` module), and a two-tier
//! tolerance keeps the magnitude bound off the clean path entirely
//! (`ProductCheck::check_rows`). The wide lanes are never used while
//! the AVX2 backend is quarantined.
//!
//! # Fault routing
//!
//! The dense entry points are infallible (`Tensor2::matmul_into`
//! cannot return `Result` without rewriting every model layer), so a
//! miscompare does not unwind: it is recorded in the **fault slot of
//! the thread that ran the product** ([`record_fault`], first fault
//! wins until [`take_fault`]) and the corrupt output flows on. A
//! product runs on the thread that runs its caller's work item, so the
//! slot belongs to that item: the render pipeline empties it when a
//! ray tile starts and takes it when the tile ends, and fails the one
//! render that owns the tile before any pixel is published (see
//! `gen_nerf::pipeline`). Renders running side by side on one crew
//! never see each other's faults. [`check_stats`] still counts every
//! miscompare process-wide, for telemetry only.
//!
//! # Quarantine
//!
//! [`quarantine`] latches a backend as untrusted (sticky for the
//! process); [`super::set_active`] refuses to re-activate it and
//! degrades to scalar. The serve tier trips this after repeated
//! miscompares attributed to the AVX2 backend.

use super::{Backend, MicroKernel};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Registry counter for dispatched (checked-path) GEMMs, per backend.
fn dispatch_counter(backend: Backend) -> gen_nerf_telemetry::Counter {
    static SCALAR: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
    static AVX2: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
    let cell = match backend {
        Backend::Scalar => &SCALAR,
        Backend::Avx2 => &AVX2,
    };
    *cell.get_or_init(|| {
        gen_nerf_telemetry::counter("nn_gemm_dispatch_total", &[("backend", backend.name())])
    })
}

fn abft_checks_counter() -> gen_nerf_telemetry::Counter {
    static C: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
    *C.get_or_init(|| gen_nerf_telemetry::counter("nn_abft_checks_total", &[]))
}

fn abft_miscompares_counter() -> gen_nerf_telemetry::Counter {
    static C: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
    *C.get_or_init(|| gen_nerf_telemetry::counter("nn_abft_miscompares_total", &[]))
}

/// Environment variable selecting the integrity mode
/// (`off` | `sample` | `full`).
pub(crate) const INTEGRITY_ENV: &str = "GEN_NERF_INTEGRITY";

/// In `sample` mode, every `SAMPLE_PERIOD`-th dispatched GEMM is
/// verified (process-wide call counter, deterministic for a fixed
/// call sequence).
pub const SAMPLE_PERIOD: u32 = 8;

/// Relative tolerance of the row-checksum comparison, scaled by the
/// row's magnitude bound `Σₖ|A||B|`. Worst-case `f32` accumulation
/// error over the workspace's k/n is below `1e-4` of that bound;
/// `1e-3` leaves an order of magnitude of headroom (zero clean-run
/// false positives) while still catching any perturbation above a
/// tenth of a percent of the row's dynamic range.
pub(crate) const REL: f64 = 1e-3;

/// Absolute tolerance floor for rows whose magnitude bound is ~0.
const ABS_FLOOR: f64 = 1e-6;

/// ABFT verification mode for dispatched GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No verification (the default — zero overhead).
    Off,
    /// Verify every [`SAMPLE_PERIOD`]-th GEMM.
    Sample,
    /// Verify every GEMM.
    Full,
}

impl IntegrityMode {
    /// The mode's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Sample => "sample",
            IntegrityMode::Full => "full",
        }
    }

    /// Parses a `GEN_NERF_INTEGRITY` value. Unknown values are an
    /// error carrying the offending string.
    pub fn parse(value: &str) -> Result<IntegrityMode, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "off" => Ok(IntegrityMode::Off),
            "sample" => Ok(IntegrityMode::Sample),
            "full" => Ok(IntegrityMode::Full),
            other => Err(format!(
                "unknown {INTEGRITY_ENV} value {other:?} (expected off, sample or full)"
            )),
        }
    }

    /// Resolves the mode from `GEN_NERF_INTEGRITY` (off when unset;
    /// unknown values warn on stderr and fall back to off).
    pub fn from_env() -> IntegrityMode {
        match std::env::var(INTEGRITY_ENV) {
            Ok(v) => match IntegrityMode::parse(&v) {
                Ok(m) => m,
                Err(msg) => {
                    eprintln!("gen-nerf-nn: {msg}; integrity checking off");
                    IntegrityMode::Off
                }
            },
            Err(_) => IntegrityMode::Off,
        }
    }
}

/// `MODE` holds the selected mode: 0 = not yet resolved, otherwise
/// `mode_code`.
static MODE: AtomicU8 = AtomicU8::new(0);

fn mode_code(m: IntegrityMode) -> u8 {
    match m {
        IntegrityMode::Off => 1,
        IntegrityMode::Sample => 2,
        IntegrityMode::Full => 3,
    }
}

fn mode_from_code(c: u8) -> IntegrityMode {
    match c {
        1 => IntegrityMode::Off,
        2 => IntegrityMode::Sample,
        3 => IntegrityMode::Full,
        _ => unreachable!("invalid integrity mode code {c}"),
    }
}

/// The active integrity mode, resolving it from the environment on
/// first use.
pub fn mode() -> IntegrityMode {
    match MODE.load(Ordering::Relaxed) {
        0 => {
            let m = IntegrityMode::from_env();
            MODE.store(mode_code(m), Ordering::Relaxed);
            m
        }
        c => mode_from_code(c),
    }
}

/// Overrides the integrity mode at runtime (benchmarks measure
/// per-mode overhead in one process this way; tests serialize around
/// it).
pub fn set_mode(m: IntegrityMode) {
    MODE.store(mode_code(m), Ordering::Relaxed);
}

/// A detected GEMM output miscompare.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityError {
    /// The backend that produced the miscomparing output.
    pub backend: Backend,
    /// First output row that failed the checksum.
    pub row: usize,
    /// GEMM shape (`m × k · k × n`).
    pub m: usize,
    /// Shared dimension.
    pub k: usize,
    /// Output width.
    pub n: usize,
    /// Observed row sum `Σⱼ C[i,j]`.
    pub observed: f64,
    /// Expected row sum `Σₖ A[i,k]·r[k]`.
    pub expected: f64,
    /// The tolerance the difference exceeded.
    pub tolerance: f64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GEMM integrity miscompare on backend {}: row {} of {}x{}x{} \
             sums to {:.6e}, checksum expects {:.6e} (tol {:.3e})",
            self.backend.name(),
            self.row,
            self.m,
            self.k,
            self.n,
            self.observed,
            self.expected,
            self.tolerance
        )
    }
}

thread_local! {
    /// This thread's first undrained miscompare. One slot suffices —
    /// the pipeline fails the tile's render on its first fault; later
    /// faults from the same corrupt tile add nothing.
    static FAULT: Cell<Option<IntegrityError>> = const { Cell::new(None) };
}

/// Count of verified GEMMs (clean or not) since process start.
static CHECKS: AtomicU64 = AtomicU64::new(0);

/// Count of recorded miscompares since process start.
static FAULTS: AtomicU64 = AtomicU64::new(0);

/// Dispatched-GEMM counter driving `sample` mode.
static CALLS: AtomicU32 = AtomicU32::new(0);

/// Records a miscompare in this thread's fault slot (first fault wins
/// until drained) and bumps the fault counter.
pub fn record_fault(err: IntegrityError) {
    FAULTS.fetch_add(1, Ordering::Relaxed);
    abft_miscompares_counter().inc();
    let first = FAULT.take();
    FAULT.set(first.or(Some(err)));
}

/// Drains this thread's fault slot, returning its oldest undrained
/// miscompare.
pub fn take_fault() -> Option<IntegrityError> {
    FAULT.take()
}

/// `(verified GEMMs, recorded miscompares)` since process start.
pub fn check_stats() -> (u64, u64) {
    (
        CHECKS.load(Ordering::Relaxed),
        FAULTS.load(Ordering::Relaxed),
    )
}

// ---- chaos injection -------------------------------------------------

/// When armed, the next dispatched call that verifies at least one
/// product perturbs one pre-bias accumulator of it (deterministically
/// placed from the seed: row `seed % m`, column `(seed >> 17) % n`, and
/// — in a multi-layer [`super::chain::dense_chain`] — the
/// `(seed >> 40) % verified`-th verified layer, so small seeds land in
/// the first verified product) before verification runs — the
/// `Fault::CorruptOutput` GEMM leg of the chaos harness. The
/// perturbation lands well above the row tolerance, so detection is
/// guaranteed; arming is consumed by exactly one call.
static ARMED: Mutex<Option<u64>> = Mutex::new(None);

/// Arms GEMM-output corruption for the next verified GEMM.
pub fn arm_corruption(seed: u64) {
    *ARMED.lock().unwrap() = Some(seed);
}

/// Disarms any pending GEMM corruption (frame teardown), returning
/// `true` when a charge was still pending.
pub fn disarm_corruption() -> bool {
    take_armed().is_some()
}

/// Consumes the armed charge, if any (a call does this only once it
/// knows it verifies a product the charge can land in).
pub(crate) fn take_armed() -> Option<u64> {
    ARMED.lock().unwrap().take()
}

// ---- quarantine ------------------------------------------------------

/// `QUARANTINED` holds the latched-untrusted backend: 0 = none,
/// otherwise `super::backend_code`. Sticky for the process.
static QUARANTINED: AtomicU8 = AtomicU8::new(0);

/// Latches `backend` as untrusted for the rest of the process and, if
/// it is currently active, degrades the active kernel to scalar.
/// Returns `true` when this call performed the latch (`false` when
/// already quarantined — callers count quarantine *events*).
pub fn quarantine(backend: Backend) -> bool {
    let code = super::backend_code(backend);
    let newly = QUARANTINED
        .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok();
    if newly {
        static LATCHES: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
        LATCHES
            .get_or_init(|| gen_nerf_telemetry::counter("nn_quarantine_latches_total", &[]))
            .inc();
        eprintln!(
            "gen-nerf-nn: backend {} quarantined after repeated integrity miscompares; \
             falling back to scalar kernels for the rest of the process",
            backend.name()
        );
    }
    if super::active_backend() == backend {
        // set_active consults the latch and installs scalar.
        super::set_active(Backend::Scalar);
    }
    newly
}

/// `true` when `backend` is latched untrusted.
pub fn is_quarantined(backend: Backend) -> bool {
    QUARANTINED.load(Ordering::Relaxed) == super::backend_code(backend)
}

/// The quarantined backend, if any.
pub fn quarantined() -> Option<Backend> {
    match QUARANTINED.load(Ordering::Relaxed) {
        0 => None,
        c => Some(super::backend_from_code(c)),
    }
}

/// Detected miscompares charged against a SIMD backend, across the
/// process: a quarantine policy (the serve tier's) counts its strikes
/// here, so clearing the latch also starts the count afresh.
static STRIKES: AtomicU32 = AtomicU32::new(0);

/// Charges one detected miscompare against the active SIMD backend and
/// returns the strike count so far, this one included.
pub fn strike() -> u32 {
    STRIKES.fetch_add(1, Ordering::Relaxed) + 1
}

/// Clears the quarantine latch and the strike count. Test/bench support
/// only: production quarantine is deliberately sticky.
pub fn clear_quarantine_for_tests() {
    QUARANTINED.store(0, Ordering::Relaxed);
    STRIKES.store(0, Ordering::Relaxed);
}

// ---- election, dispatch accounting, the checked GEMM ------------------

/// Counts one dispatched dense call (`matmul_into`, `dense_chain` or
/// `token_mix` — per call, not per panel, layer or ray) on `backend`.
pub(crate) fn count_dispatch(backend: Backend) {
    if gen_nerf_telemetry::enabled() {
        dispatch_counter(backend).inc();
    }
}

/// Decides whether the next logical product (one `A·B` of one
/// dispatched call) is verified: never in `Off`, always in `Full`,
/// every [`SAMPLE_PERIOD`]-th in `Sample` — one tick of the
/// process-wide counter per product, so a three-layer chain ticks
/// three times per call exactly as three `matmul_into` calls did. An
/// elected product counts as one check.
pub(crate) fn elect() -> bool {
    let verify = match mode() {
        IntegrityMode::Off => false,
        IntegrityMode::Full => true,
        IntegrityMode::Sample => CALLS
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_PERIOD),
    };
    if verify {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        abft_checks_counter().inc();
    }
    verify
}

/// Dispatched GEMM entry point: runs `kernel.matmul` and, when the
/// active [`IntegrityMode`] elects this call, verifies the output
/// rows against the ABFT checksum, recording any miscompare in this
/// thread's fault slot. `Off` adds one relaxed atomic load over the
/// raw call.
pub(crate) fn checked_matmul(
    kernel: &dyn MicroKernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    kernel.matmul(a, b, out, m, k, n);
    count_dispatch(kernel.backend());
    if m == 0 || n == 0 || !elect() {
        return;
    }
    let mut check = ProductCheck::new(b, n, k, n);
    if let Some(seed) = take_armed() {
        check.aim(seed, m);
    }
    let rows = Rows {
        a,
        a_rs: k,
        a_ks: 1,
        ldo: n,
        rows: m,
        b_rows: 0..k,
    };
    check.check_rows(kernel.backend(), &rows, out, 0, m);
}

/// Sums `xs` widened to `f64` via four independent accumulators. The
/// naive single-accumulator loop is bound by the f64 add latency
/// chain, not memory — splitting the chain (and letting LLVM vectorize
/// the widened lanes) is what keeps `full` checking a single-digit
/// percentage of an AVX2 GEMM. Reassociation moves the sum by at most
/// a few ULPs, noise against the [`REL`] tolerance's
/// orders-of-magnitude headroom.
#[inline]
fn sum_f64(xs: &[f32]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        for l in 0..4 {
            s[l] += c[l] as f64;
        }
    }
    let mut st = (s[0] + s[1]) + (s[2] + s[3]);
    for &v in chunks.remainder() {
        st += v as f64;
    }
    st
}

/// `Σₖ a[k]·r[k]` with the same four-lane accumulation as [`sum_f64`].
#[inline]
fn dot_f64(a_row: &[f32], r: &[f64]) -> f64 {
    let mut e = [0.0f64; 4];
    let head = a_row.len() / 4 * 4;
    let mut i = 0;
    while i < head {
        for l in 0..4 {
            e[l] += a_row[i + l] as f64 * r[i + l];
        }
        i += 4;
    }
    let mut et = (e[0] + e[1]) + (e[2] + e[3]);
    for j in head..a_row.len() {
        et += a_row[j] as f64 * r[j];
    }
    et
}

/// AVX2 lanes for the verification reductions. The checker must not
/// become the bottleneck it guards against: once the fused chains made
/// the unchecked forward twice as fast, a per-row call into packed-f64
/// `sum` / `dot` helpers — two horizontal reductions, two scalar
/// remainder loops and a compare per row, most of them for the blend
/// head's two- and eight-wide rows — cost as much as the forward
/// itself. So the wide lanes verify **four rows at a time**: each
/// row's products accumulate in its own packed-f64 register (masked
/// loads cover the `% 4` tail, no scalar remainder), one 4×4
/// transpose-add turns the four accumulators into a vector of four row
/// sums, and the residual / tolerance compare is one vector op per
/// four rows. Same f64 precision, same tolerance. The slow bound path
/// stays portable — it runs only on corruption or heavy cancellation.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Rows, Suspect, ABS_FLOOR, REL};
    use std::arch::x86_64::*;

    /// `LANE_MASKS[4 - live..]` is the `vmaskmovps` mask with the first
    /// `live` lanes on.
    static LANE_MASKS: [i32; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

    /// The mask of the first `live` lanes.
    ///
    /// # Safety
    ///
    /// Requires avx2; `live` must be at most 4.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_mask(live: usize) -> __m128i {
        _mm_loadu_si128(LANE_MASKS.as_ptr().add(4 - live) as *const __m128i)
    }

    /// One four-column step of [`reduce4`] at column `j`: the whole
    /// group, or — `TAIL` — only the lanes `mask` turns on.
    ///
    /// # Safety
    ///
    /// As [`reduce4`], for the live columns of the group.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn step4<const WEIGHTED: bool, const TAIL: bool>(
        acc: &mut [__m256d; 4],
        p: &[*const f32; 4],
        j: usize,
        w: *const f64,
        mask: __m128i,
    ) {
        let wv = if WEIGHTED {
            _mm256_loadu_pd(w.add(j))
        } else {
            _mm256_setzero_pd()
        };
        for (a, row) in acc.iter_mut().zip(p) {
            let x = if TAIL {
                _mm_maskload_ps(row.add(j), mask)
            } else {
                _mm_loadu_ps(row.add(j))
            };
            let x = _mm256_cvtps_pd(x);
            *a = if WEIGHTED {
                _mm256_fmadd_pd(x, wv, *a)
            } else {
                _mm256_add_pd(*a, x)
            };
        }
    }

    /// For the four rows starting at `p[q]`: `Σ_{j < len} x[j] · w[j]`
    /// (`w ≡ 1` unless `WEIGHTED`), row `q`'s sum in lane `q`.
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; every `p[q]` must have `len` readable floats
    /// and `w` (when `WEIGHTED`) `len` rounded up to a multiple of four
    /// readable, finite doubles.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce4<const WEIGHTED: bool>(
        p: [*const f32; 4],
        len: usize,
        w: *const f64,
    ) -> __m256d {
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut j = 0;
        while j + 4 <= len {
            step4::<WEIGHTED, false>(&mut acc, &p, j, w, _mm_setzero_si128());
            j += 4;
        }
        if j < len {
            step4::<WEIGHTED, true>(&mut acc, &p, j, w, lane_mask(len - j));
        }
        // 4×4 transpose-add: lane q of the result is Σ acc[q].
        let s01 = _mm256_hadd_pd(acc[0], acc[1]);
        let s23 = _mm256_hadd_pd(acc[2], acc[3]);
        _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(s01, s23),
            _mm256_permute2f128_pd::<0x31>(s01, s23),
        )
    }

    /// `r[kk] = Σ_{j < n} b[kk·ldb + j]` for `kk < k` — the `B·1` of a
    /// product, four rows at a time.
    ///
    /// # Safety
    ///
    /// Requires avx2+fma; `b` must hold `k` rows of `n` floats at
    /// stride `ldb` and `r` at least `k` doubles.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn row_sums(b: *const f32, ldb: usize, k: usize, n: usize, r: &mut [f64]) {
        let mut kk = 0;
        while kk < k {
            // Rows past the end repeat the last one; their lanes are
            // not stored.
            let p = [0, 1, 2, 3].map(|q| b.add((kk + q).min(k - 1) * ldb));
            let mut sums = [0.0f64; 4];
            _mm256_storeu_pd(sums.as_mut_ptr(), reduce4::<false>(p, n, std::ptr::null()));
            let live = (k - kk).min(4);
            r[kk..kk + live].copy_from_slice(&sums[..live]);
            kk += 4;
        }
    }

    /// [`super::scan_rows`] four rows at a time, for an `A` that is
    /// either row-major (`a_ks == 1`) or read transposed
    /// (`a_rs == 1`, the token mix — four consecutive rows are then
    /// four adjacent floats and accumulate lane-wise with no
    /// transpose).
    ///
    /// # Safety
    ///
    /// Requires avx2+fma. `out` must hold `rows.rows` rows of `n`
    /// floats at stride `rows.ldo`; `rows.a` `rows.rows` rows of `k`
    /// floats at stride `a_rs` when `a_ks == 1`, else (`a_rs == 1`)
    /// `k` runs of `rows.rows` floats at stride `a_ks`; `r` `k`
    /// doubles followed by at least three more finite ones.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn scan_rows(
        rows: &Rows<'_>,
        out: &[f32],
        r: &[f64],
        k: usize,
        n: usize,
        from: usize,
    ) -> Option<Suspect> {
        let sign = _mm256_set1_pd(-0.0);
        let mut i = from;
        while i < rows.rows {
            let live = (rows.rows - i).min(4);
            // Rows past the end repeat the last one; their lanes are
            // masked out of the verdict.
            let row = |q: usize| (i + q).min(rows.rows - 1);
            let o = [0, 1, 2, 3].map(|q| out.as_ptr().add(row(q) * rows.ldo));
            let observed = reduce4::<false>(o, n, std::ptr::null());
            let expected = if rows.a_ks == 1 {
                let a = [0, 1, 2, 3].map(|q| rows.a.as_ptr().add(row(q) * rows.a_rs));
                reduce4::<true>(a, k, r.as_ptr())
            } else {
                let mask = lane_mask(live);
                let mut acc = _mm256_setzero_pd();
                for (kk, &rk) in r[..k].iter().enumerate() {
                    let x = _mm_maskload_ps(rows.a.as_ptr().add(kk * rows.a_ks + i), mask);
                    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(x), _mm256_set1_pd(rk), acc);
                }
                acc
            };
            let diff = _mm256_andnot_pd(sign, _mm256_sub_pd(observed, expected));
            let tol = _mm256_fmadd_pd(
                _mm256_set1_pd(REL),
                _mm256_andnot_pd(sign, expected),
                _mm256_set1_pd(ABS_FLOOR),
            );
            // Ordered compare: a NaN residual is not accepted.
            let accepted = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(diff, tol)) as u32;
            let missed = !accepted & ((1 << live) - 1);
            if missed != 0 {
                let q = missed.trailing_zeros() as usize;
                let (mut obs, mut exp) = ([0.0f64; 4], [0.0f64; 4]);
                _mm256_storeu_pd(obs.as_mut_ptr(), observed);
                _mm256_storeu_pd(exp.as_mut_ptr(), expected);
                return Some(Suspect {
                    row: i + q,
                    observed: obs[q],
                    expected: exp[q],
                });
            }
            i += 4;
        }
        None
    }
}

/// Whether the wide verification lanes may run: the CPU must have
/// them, and the AVX2 backend must not be quarantined — a unit
/// distrusted for GEMMs does not get to check its own work; the
/// portable lanes take over and check the scalar GEMMs instead.
#[inline]
fn wide_lanes_ok() -> bool {
    cfg!(target_arch = "x86_64") && Backend::Avx2.available() && !is_quarantined(Backend::Avx2)
}

/// The input rows of a product under verification and the layout of
/// its output: `A[i, k]` at `a[i·a_rs + k·a_ks]` (`a_ks = 1` for a
/// GEMM's row-major input; `a_rs = 1` and `a_ks` the `W₁` row stride
/// for the token mix's transposed read), output row `i` at `i·ldo`.
pub(crate) struct Rows<'a> {
    pub a: &'a [f32],
    pub a_rs: usize,
    pub a_ks: usize,
    pub ldo: usize,
    pub rows: usize,
    /// The rows of the product's `B` these rows of `A` multiply: all
    /// `k` of them for a GEMM panel, one ray's points for the token
    /// mix (whose `B` is the whole tile's `X`).
    pub b_rows: Range<usize>,
}

impl Rows<'_> {
    /// `Σₖ f(A[i, k]) · w[k]` over row `i`'s strided elements.
    #[inline]
    fn strided_dot(&self, i: usize, w: &[f64], f: impl Fn(f64) -> f64) -> f64 {
        w.iter()
            .enumerate()
            .map(|(k, &wk)| f(self.a[i * self.a_rs + k * self.a_ks] as f64) * wk)
            .sum()
    }
}

/// A row that missed the fast accept of [`scan_rows`].
pub(crate) struct Suspect {
    row: usize,
    observed: f64,
    expected: f64,
}

/// Scans rows `from..` of a product's pre-bias output against the
/// row-checksum identity and returns the first one outside the fast
/// tolerance `REL·|expected| + ABS_FLOOR` (a NaN residual counts as
/// outside). The portable lanes; [`simd::scan_rows`] is the wide twin.
fn scan_rows(rows: &Rows<'_>, out: &[f32], r: &[f64], n: usize, from: usize) -> Option<Suspect> {
    for i in from..rows.rows {
        let observed = sum_f64(&out[i * rows.ldo..i * rows.ldo + n]);
        let expected = if rows.a_ks == 1 {
            dot_f64(&rows.a[i * rows.a_rs..i * rows.a_rs + r.len()], r)
        } else {
            rows.strided_dot(i, r, |v| v)
        };
        if (observed - expected).abs() <= REL * expected.abs() + ABS_FLOOR {
            continue; // fast accept — a NaN residual falls through
        }
        return Some(Suspect {
            row: i,
            observed,
            expected,
        });
    }
    None
}

/// The ABFT state of one verified product `C = A·B` of one dispatched
/// call: `r = B·1` — computed once, however many panels of rows are
/// then checked against it — the lazily computed `|B|·1` of the slow
/// tolerance path, and the armed chaos fault when it is aimed here.
pub(crate) struct ProductCheck<'a> {
    b: &'a [f32],
    ldb: usize,
    k: usize,
    n: usize,
    /// `B·1`, with three zero entries of padding (the wide lanes read
    /// it four at a time from any row of `B`).
    r: Vec<f64>,
    rabs: Option<Vec<f64>>,
    wide: bool,
    /// `(row, column)` of the call's output the armed fault perturbs.
    fault: Option<(usize, usize)>,
}

impl<'a> ProductCheck<'a> {
    /// The one extra GEMV of classical ABFT: `r = B·1` for the `k × n`
    /// operand `b` at row stride `ldb`.
    pub(crate) fn new(b: &'a [f32], ldb: usize, k: usize, n: usize) -> Self {
        // Hard assert: the wide lanes walk `b` by raw pointer.
        assert!(
            k == 0 || b.len() >= (k - 1) * ldb + n,
            "checksum operand shorter than k rows"
        );
        let wide = wide_lanes_ok();
        let mut r = vec![0.0f64; k + 3];
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` implies `Backend::Avx2.available()`, which
            // detects avx2+fma at runtime; the assert above bounds the
            // `k` rows of `n` floats, and `r` holds at least `k`.
            unsafe { simd::row_sums(b.as_ptr(), ldb, k, n, &mut r) };
        }
        if !wide {
            for (kk, rk) in r[..k].iter_mut().enumerate() {
                *rk = sum_f64(&b[kk * ldb..kk * ldb + n]);
            }
        }
        Self {
            b,
            ldb,
            k,
            n,
            r,
            rabs: None,
            wide,
            fault: None,
        }
    }

    /// Aims the armed chaos fault `seed` at this product's `m`-row
    /// output.
    pub(crate) fn aim(&mut self, seed: u64, m: usize) {
        self.fault = Some(((seed as usize) % m, ((seed >> 17) as usize) % self.n));
    }

    /// The tolerance scale of output row `i`:
    /// `Σₖ |A[i,k]| · (|B|·1)[k]`.
    fn row_bound(&mut self, rows: &Rows<'_>, i: usize) -> f64 {
        let (b, ldb, k, n) = (self.b, self.ldb, self.k, self.n);
        let rabs = self.rabs.get_or_insert_with(|| {
            (0..k)
                .map(|kk| {
                    b[kk * ldb..kk * ldb + n]
                        .iter()
                        .map(|&v| (v as f64).abs())
                        .sum()
                })
                .collect()
        });
        rows.strided_dot(i, &rabs[rows.b_rows.clone()], f64::abs)
    }

    /// Checks one panel — rows `row0..row0 + rows.rows` of the call's
    /// `m`-row product, their pre-bias accumulators in `out` — against
    /// the row-checksum identity, after applying the armed fault if it
    /// is aimed into the panel; the first miscompare goes to the fault
    /// slot.
    ///
    /// Two-tier tolerance: since `|r[k]| ≤ rabs[k]` termwise, the
    /// checksum itself satisfies `|expected| ≤ bound`, so
    /// `REL·|expected| + ABS_FLOOR` *lower-bounds* the true tolerance —
    /// a residual inside it is inside the true tolerance a fortiori,
    /// and the clean path never touches the magnitude bound at all.
    /// Only a row that misses the fast accept (corruption, or heavy
    /// cancellation in the checksum) pays for `|B|·1` and the per-row
    /// `Σ|A|·rabs` — computed lazily, once per product.
    pub(crate) fn check_rows(
        &mut self,
        backend: Backend,
        rows: &Rows<'_>,
        out: &mut [f32],
        row0: usize,
        m: usize,
    ) {
        // Chaos hook: perturb one element far beyond its row tolerance
        // so the verification below must catch it (100%-detection
        // gate).
        if let Some((row, col)) = self.fault {
            if (row0..row0 + rows.rows).contains(&row) {
                self.fault = None;
                let bound = self.row_bound(rows, row - row0);
                let delta = (REL * bound + ABS_FLOOR) * 4096.0 + 1.0;
                out[(row - row0) * rows.ldo + col] += delta as f32;
            }
        }
        if let Some(mut err) = self.verify_rows(backend, rows, out) {
            err.row += row0;
            err.m = m;
            record_fault(err);
        }
    }

    /// The pure verification of [`ProductCheck::check_rows`]: the first
    /// miscomparing row of the panel, if any.
    fn verify_rows(
        &mut self,
        backend: Backend,
        rows: &Rows<'_>,
        out: &[f32],
    ) -> Option<IntegrityError> {
        let (k, n) = (rows.b_rows.len(), self.n);
        assert!(
            rows.b_rows.end <= self.k,
            "checked rows outside the operand"
        );
        let k0 = rows.b_rows.start;
        let wide = self.wide && (rows.a_ks == 1 || rows.a_rs == 1);
        if wide && rows.rows > 0 {
            // Hard asserts: the wide lanes walk `a` and `out` by raw
            // pointer.
            let a_need = if rows.a_ks == 1 {
                (rows.rows - 1) * rows.a_rs + k
            } else {
                k.saturating_sub(1) * rows.a_ks + rows.rows
            };
            assert!(
                rows.a.len() >= a_need,
                "checked input shorter than its rows"
            );
            assert!(
                out.len() >= (rows.rows - 1) * rows.ldo + n,
                "checked output shorter than its rows"
            );
        }
        let mut from = 0;
        loop {
            #[cfg(target_arch = "x86_64")]
            let suspect = if wide {
                // SAFETY: `wide` implies `Backend::Avx2.available()`,
                // which detects avx2+fma at runtime; the asserts above
                // bound `a` and `out` for the layout in use, and `r`
                // has three padding entries past its `k` (see `new`).
                unsafe { simd::scan_rows(rows, out, &self.r[k0..], k, n, from) }
            } else {
                scan_rows(rows, out, &self.r[k0..k0 + k], n, from)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let suspect = scan_rows(rows, out, &self.r[k0..k0 + k], n, from);
            let s = suspect?;
            let tolerance = REL * self.row_bound(rows, s.row) + ABS_FLOOR;
            // `!within`, not `diff > tol`: a NaN/Inf row sum also trips.
            let within = (s.observed - s.expected).abs() <= tolerance;
            if !within {
                return Some(IntegrityError {
                    backend,
                    row: s.row,
                    m: rows.rows,
                    k,
                    n,
                    observed: s.observed,
                    expected: s.expected,
                    tolerance,
                });
            }
            from = s.row + 1;
        }
    }
}

/// Verifies `out = a·b` against the row-checksum identity, returning
/// the first miscomparing row. Pure — no mode gating, no fault slot —
/// so tests exercise detection directly; [`checked_matmul`] and the
/// fused chains of [`super::chain`] are the dispatched entries that
/// layer both on top of the same per-panel check.
#[cfg(test)]
pub(crate) fn verify_gemm(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    out: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Option<IntegrityError> {
    let rows = Rows {
        a,
        a_rs: k,
        a_ks: 1,
        ldo: n,
        rows: m,
        b_rows: 0..k,
    };
    ProductCheck::new(b, n, k, n).verify_rows(backend, &rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::kernel_for;
    use proptest::prelude::*;

    fn runnable_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            v.push(Backend::Avx2);
        }
        v
    }

    /// The tolerance scale of one output row,
    /// `Σₖ |A[i,k]| · (|B|·1)[k]`, spelled out independently of
    /// [`ProductCheck`].
    fn row_magnitude_bound(a_row: &[f32], b: &[f32], n: usize) -> f64 {
        a_row
            .iter()
            .zip(b.chunks_exact(n))
            .map(|(&av, b_row)| {
                (av as f64).abs() * b_row.iter().map(|&v| (v as f64).abs()).sum::<f64>()
            })
            .sum()
    }

    #[test]
    fn mode_parses_known_names() {
        assert_eq!(IntegrityMode::parse("off"), Ok(IntegrityMode::Off));
        assert_eq!(IntegrityMode::parse(""), Ok(IntegrityMode::Off));
        assert_eq!(IntegrityMode::parse(" Sample "), Ok(IntegrityMode::Sample));
        assert_eq!(IntegrityMode::parse("FULL"), Ok(IntegrityMode::Full));
        assert!(IntegrityMode::parse("paranoid").is_err());
    }

    /// A clean GEMM output passes verification on every backend, for
    /// shapes spanning full tiles and every edge path — the
    /// zero-false-positive half of the ABFT contract.
    #[test]
    fn clean_gemm_outputs_verify_on_every_backend() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (6, 8, 16),
            (7, 13, 17),
            (12, 64, 33),
            (23, 19, 9),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.21)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.17)
                .collect();
            for backend in runnable_backends() {
                let mut out = vec![f32::NAN; m * n];
                kernel_for(backend).matmul(&a, &b, &mut out, m, k, n);
                assert_eq!(
                    verify_gemm(backend, &a, &b, &out, m, k, n),
                    None,
                    "{}: clean {m}x{k}x{n} false-positived",
                    backend.name()
                );
            }
        }
    }

    /// NaN and Inf in the output always trip verification (the
    /// `!(diff <= tol)` form), pinpointing the poisoned row.
    #[test]
    fn non_finite_outputs_always_trip() {
        let (m, k, n) = (4usize, 5usize, 6usize);
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut out = vec![f32::NAN; m * n];
            kernel_for(Backend::Scalar).matmul(&a, &b, &mut out, m, k, n);
            out[2 * n + 3] = poison;
            let err = verify_gemm(Backend::Scalar, &a, &b, &out, m, k, n)
                .expect("poisoned output must miscompare");
            assert_eq!(err.row, 2);
        }
    }

    // The quarantine latch test lives in `tests/quarantine.rs`: it
    // must flip the process-global active backend, which would race
    // the dispatched bitwise property tests sharing this test binary.

    #[test]
    fn fault_sink_is_first_write_wins_until_drained() {
        let err = |row| IntegrityError {
            backend: Backend::Scalar,
            row,
            m: 1,
            k: 1,
            n: 1,
            observed: 1.0,
            expected: 0.0,
            tolerance: 1e-6,
        };
        // The slot is this thread's: a test running beside this one
        // cannot leave anything in it.
        assert_eq!(take_fault(), None);
        record_fault(err(7));
        record_fault(err(9));
        assert_eq!(take_fault().map(|e| e.row), Some(7));
        assert_eq!(take_fault(), None);
        // Another thread's fault lands in that thread's slot only.
        std::thread::spawn(move || record_fault(err(3)))
            .join()
            .unwrap();
        assert_eq!(take_fault(), None);
    }

    proptest! {
        /// The satellite contract: ABFT detects **any** single-element
        /// perturbation above the row tolerance (and never flags the
        /// clean output), on both `GEN_NERF_KERNEL` backends.
        #[test]
        fn prop_single_element_perturbation_is_detected(
            m in 1usize..9,
            k in 1usize..17,
            n in 1usize..21,
            idx in 0usize..9 * 21,
            scale in 1.5f64..1000.0,
            raw in proptest::collection::vec(-4.0f32..4.0, 9 * 17 + 17 * 21),
        ) {
            let a = &raw[..m * k];
            let b = &raw[9 * 17..9 * 17 + k * n];
            let idx = idx % (m * n);
            for backend in runnable_backends() {
                let mut out = vec![f32::NAN; m * n];
                kernel_for(backend).matmul(a, b, &mut out, m, k, n);
                prop_assert_eq!(
                    verify_gemm(backend, a, b, &out, m, k, n),
                    None,
                    "{}: clean output flagged", backend.name()
                );
                let row = idx / n;
                let bound = row_magnitude_bound(&a[row * k..(row + 1) * k], b, n);
                let delta = (REL * bound + 1e-6) * scale;
                out[idx] += delta as f32;
                let err = verify_gemm(backend, a, b, &out, m, k, n);
                prop_assert!(
                    err.is_some(),
                    "{}: perturbation of {delta:.3e} at {idx} undetected",
                    backend.name()
                );
                prop_assert_eq!(err.unwrap().row, row);
            }
        }
    }
}
