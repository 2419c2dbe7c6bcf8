//! End-to-end rendering pipeline (Steps 1–5 of Sec. 2.2 with the
//! sampling strategies of Sec. 3.2) plus FLOPs/fetch instrumentation.
//!
//! # The ray-batch engine
//!
//! The accelerator the paper builds exists to exploit one fact: rays
//! are independent, so a frame is a bag of identical per-ray programs
//! whose compute can be overlapped. The software pipeline mirrors that
//! structure. `RayBatch` lays a camera's rays out structure-of-arrays
//! (directions and clip ranges in parallel vectors, indexed by the
//! row-major pixel id), and [`Renderer`] maps a per-ray shading program
//! over the batch with [`gen_nerf_parallel`]'s claim loop: each pass
//! cuts its rays into one list of cache-sized **tiles** (below),
//! workers claim tiles from that list one at a time, every tile
//! accumulates a private [`RenderStats`], and tile results are merged
//! in tile order.
//!
//! Parallel safety comes from [`GenNerfModel`]'s `&self` inference path
//! (no activation caching), so all workers share one model borrow.
//! Determinism comes from two rules:
//!
//! * every per-ray random stream is seeded from `(render seed, ray
//!   index)` — never shared across rays — so a ray's samples do not
//!   depend on which thread ran it or in what order;
//! * per-tile stats are plain integer sums merged in tile order.
//!
//! Together these make the output bit-for-bit identical for any worker
//! count, including one; `tests/batch_parallel_regression.rs` pins
//! this. The tile list itself does not depend on the worker count
//! either, so neither does any tile's booking. The worker count
//! defaults to [`gen_nerf_parallel::num_threads`] (the
//! `GEN_NERF_THREADS` environment variable) and can be pinned per
//! renderer with [`Renderer::with_threads`].
//!
//! # The fused tile schedule (default)
//!
//! A pass never pushes its rays through one GEMM chain: it cuts them
//! into **ray tiles** of at most `TILE_POINTS` sample points
//! (`Renderer::fan_out`; the budget's derivation is on the constant),
//! and a worker runs the full stage chain on the tile it claimed before
//! claiming the next — the software twin of the point *patches*
//! `gen_nerf_accel::scheduler` cuts a frame into so that a patch and
//! its features stay on chip from feature acquisition to the last MLP
//! layer. Here the chip is the core's L2: a tile's stats, activation
//! and blend matrices are written and read back while still resident,
//! where a monolithic chunk (≈ 25 MB for a 48×48 coarse-then-focus
//! frame on one thread) streamed every layer's operands through DRAM.
//!
//! Within a tile, shading is a three-phase schedule instead of a
//! per-ray program: **aggregate** every ray of the tile into the
//! worker's SoA [`AggregateArena`] (zero heap allocations in steady
//! state; see `crate::features` — each ray's sample depths are appended
//! to one flat buffer of the worker scratch and pushed into the arena
//! from there, the arena packs the tile's points into blocks of eight
//! that run on from one ray into the next, and one flush at the end of
//! the tile acquires the last, ragged one; every pass of every
//! strategy does this through the one `Renderer::fill_tile`, which is
//! also where a fired [`CancelToken`] is noticed), then **one fused
//! forward** (the implementation behind
//! [`GenNerfModel::forward_rays_arena`] — four
//! layer-fused kernel dispatches for the whole tile: the point MLP as
//! one row-panel chain reading the arena's stats matrix as the GEMM
//! operand **in place**, the Ray-Mixer's token mix in place on its
//! output, the mixer's channel phase + projection, and the blend head,
//! each layer's activations living in L1-sized panels the way the
//! paper's PE pool keeps them on chip between layers), then a per-ray
//! **composite** through per-worker scratch buffers. The forward
//! leaves the tile's densities and colours in flat ray-major buffers
//! inside the worker's forward scratch and the composite reads each
//! ray's run of them and of the depth buffer — the arena's ray offsets
//! cut all three — so nothing on this path is allocated per ray: no
//! depth, output or weight `Vec`, and the FLOP / fetch accounting is
//! plain integers summed per (tile, frame) and booked into the
//! string-keyed buckets once per tile. Step ① of coarse-then-focus
//! composites straight into the exported [`CoarseFrame`], which is
//! sized before the fan-out.
//! The arena, the forward scratch and the composite buffers live in a
//! thread-local worker scratch, so a persistent [`Pool`] worker keeps
//! them warm across frames — and since they only ever hold one tile,
//! their size is bounded by the tile budget
//! ([`WORKER_SCRATCH_BYTES`]), not by the frame or the batch. Because
//! the dense kernels make output rows independent of their batch
//! (k-order accumulation, see `gen_nerf_nn::tensor` — a contract every
//! SIMD kernel backend upholds; see `gen_nerf_nn::kernels`), the fused
//! schedule is bit-for-bit
//! identical to the per-ray path for any tiling — which is also what
//! keeps the thread-count determinism above intact. The per-ray
//! schedule it replaced survives only in this crate's test build, as
//! the yardstick the unit tests hold every render against; the
//! production build has no per-ray path.
//!
//! # Multi-frame rendering (the serving substrate)
//!
//! The renderer has one render path, [`Renderer::render_frames`]
//! (many cameras into caller-owned buffers, with the integrity
//! verdict), and [`Renderer::render`] is its one-camera door that
//! ignores the verdict. The same batch-independence contract lifts the
//! fused schedule from one frame to *many*: the render
//! concatenates the ray domains of several cameras and tiles the
//! union, so rays of small concurrent frames share fused GEMMs that a
//! single small frame could not fill (tiles straddle frame boundaries
//! freely). Each ray keeps its frame-local index for RNG seeding and
//! each frame keeps a private [`RenderStats`], so the output of every
//! frame is bit-for-bit what a solo [`Renderer::render`] call would
//! produce — `gen-nerf-serve` builds its cross-session admission
//! batching directly on this guarantee, and
//! `tests/serve_regression.rs` pins it.
//!
//! Two more serving hooks live here:
//!
//! * [`Renderer::render_frames`] exports the coarse-then-focus
//!   Step ① outcome as a [`CoarseFrame`] and accepts one back for any
//!   frame, re-running only the focus pass — the temporal-coherence
//!   cache of the render server. An imported coarse pass from the
//!   *same* pose reproduces the full render bitwise (Step ① is
//!   deterministic); a nearby pose reuses the previous probing as an
//!   approximation.
//! * [`Renderer::with_pool`] shares one persistent
//!   [`gen_nerf_parallel::Pool`] between renderers — the server's, on
//!   which every shard thread claims its own tiles as worker 0. The
//!   claim loop and the tile list are the same on every pool, so the
//!   crew never changes pixels.
//!
//! # Output integrity
//!
//! With `GEN_NERF_INTEGRITY` set (see `gen_nerf_nn::kernels::
//! integrity`), every layer of every fused chain is ABFT-checksummed
//! panel by panel and this module adds **stage-boundary sentinels**:
//! finite-value scans after each fused forward (one `is_finite_all`
//! of the active kernel over the tile's flat densities, AVX2 where
//! available, plus its colours) and over the composited pixels right
//! before they become images.
//!
//! A verdict travels with the tile that found it. A GEMM miscompare
//! lands in the nn fault slot of the thread that ran the product, and
//! a tile's sentinel trip in this module's slot of the same thread.
//! `Renderer::fan_out` is the one place a fault is attributed: it
//! empties both slots when a tile starts, takes them when the tile
//! ends, and keeps the first fault in pass and tile order as the
//! render's verdict. The composite-boundary scan runs on the caller's
//! thread and joins that verdict directly. The fallible door
//! ([`Renderer::render_frames`]) returns it as [`RenderError::Corrupt`]
//! instead of publishing the frames; [`Renderer::render`] ignores it.
//! A render fails for its own faults only, whatever runs beside it on
//! the crew, and the same faults give the same verdict at any worker
//! count. The process-wide counters (`nn_abft_miscompares_total`,
//! `core_sentinel_trips_total`) still count every fault, but no
//! verdict is read from them. With integrity off (the default) no
//! check or scan runs and behavior is bit-for-bit what it always was.
//! [`CoarseFrame`]s are additionally sealed with an FNV-1a payload
//! digest at export so a serving cache can reject an anchor that was
//! corrupted at rest ([`CoarseFrame::integrity_ok`]) as a miss instead
//! of shading from it.

use crate::config::SamplingStrategy;
use crate::features::{assert_channels, AggregateArena, SourceViewData};
use crate::model::{ForwardScratch, GenNerfModel, MlpScratch};
use crate::sampling;
use gen_nerf_geometry::{Aabb, Camera, Ray, Vec3};
use gen_nerf_nn::flops::{self, FlopsCounter};
use gen_nerf_nn::init::Rng;
use gen_nerf_nn::kernels::{self, integrity};
use gen_nerf_parallel::{CancelToken, Pool};
use gen_nerf_scene::renderer::{composite_into, composite_to};
use gen_nerf_scene::Image;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::{Arc, Mutex};

#[cfg(test)]
mod reference;

/// Reusable buffers for the per-ray composite phase of the fused tile
/// schedule: one instance per worker replaces the interval-widths and
/// hitting-weights `Vec`s the allocating [`composite`] pays per ray
/// (and, in Step ①, the all-black colours a weights-only composite is
/// handed).
#[derive(Debug, Clone, Default)]
struct CompositeScratch {
    deltas: Vec<f32>,
    weights: Vec<f32>,
    black: Vec<Vec3>,
}

/// Reusable buffers for a tile's depth selection, shared by all three
/// schedules: nothing is allocated per ray once they have grown.
#[derive(Debug, Clone, Default)]
struct SampleScratch {
    /// The tile's sample depths, flat and ray-major. Every ray's depths
    /// are appended here and pushed into the arena from here, so ray
    /// `i`'s run is the arena's `ray_range(i)` (the hierarchical
    /// schedule keeps its coarse pass's depths in front of its fine
    /// pass's).
    depths: Vec<f32>,
    /// The importance sampler's CDF.
    cdf: Vec<f32>,
}

/// One render worker's reusable state: the SoA aggregation arena (the
/// zero-allocation acquisition buffer), the fused-forward buffers, the
/// coarse-MLP activations, the depth buffer and the composite buffers.
///
/// Lives in a thread-local, so every thread that claims tiles — a
/// [`Pool`]'s crew worker, or the submitting thread as worker 0 — keeps
/// its buffers warm **across frames**, and the steady-state serving
/// loop stops paying acquisition allocations entirely. Scratch
/// contents never influence results (every buffer is reset or fully
/// overwritten before use), so which thread claims a tile stays
/// invisible to pixels.
#[derive(Default)]
struct WorkerScratch {
    arena: AggregateArena,
    forward: ForwardScratch,
    coarse: MlpScratch,
    sample: SampleScratch,
    composite: CompositeScratch,
}

thread_local! {
    static WORKER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

#[cfg(test)]
impl WorkerScratch {
    /// Bytes of heap the scratch retains between tiles.
    fn capacity_bytes(&self) -> usize {
        self.arena.capacity_bytes()
            + self.forward.capacity_bytes()
            + self.coarse.capacity_bytes()
            + (self.sample.depths.capacity()
                + self.sample.cdf.capacity()
                + self.composite.deltas.capacity()
                + self.composite.weights.capacity())
                * std::mem::size_of::<f32>()
            + self.composite.black.capacity() * std::mem::size_of::<Vec3>()
    }
}

/// Bytes of heap the calling thread's worker scratch retains — bounded
/// by the tile budget, not by the frames rendered (pinned against
/// [`WORKER_SCRATCH_BYTES`] by a unit test).
#[cfg(test)]
fn worker_scratch_retained_bytes() -> usize {
    with_worker_scratch(|ws| ws.capacity_bytes())
}

/// Runs `f` with the calling worker's persistent scratch.
fn with_worker_scratch<R>(f: impl FnOnce(&mut WorkerScratch) -> R) -> R {
    WORKER_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

// ---- registry handles (cold registration, cached forever) ------------

/// The render path's registry handles, registered on first use.
struct Meters {
    /// Per-stage render time (`render_stage_ns{stage}`). `focus` and
    /// `composite` are observed once per *tile* (≈ 1 K sample points,
    /// tens of rays — a few hundred microseconds of work against two
    /// `Instant` reads), `coarse` once per Step ① fan-out; with
    /// telemetry disabled the `Instant` reads are skipped entirely.
    coarse: gen_nerf_telemetry::Histogram,
    focus: gen_nerf_telemetry::Histogram,
    composite: gen_nerf_telemetry::Histogram,
    /// Tiles claimed, by every pass of every strategy
    /// (`core_render_tiles_total`).
    tiles: gen_nerf_telemetry::Counter,
    /// Points aggregated into worker arenas by focus / uniform tiles,
    /// in total and per tile.
    arena_points: gen_nerf_telemetry::Counter,
    arena_fill: gen_nerf_telemetry::Histogram,
}

fn meters() -> &'static Meters {
    static METERS: std::sync::OnceLock<Meters> = std::sync::OnceLock::new();
    METERS.get_or_init(|| {
        let stage = |s| gen_nerf_telemetry::histogram("render_stage_ns", &[("stage", s)]);
        Meters {
            coarse: stage("coarse"),
            focus: stage("focus"),
            composite: stage("composite"),
            tiles: gen_nerf_telemetry::counter("core_render_tiles_total", &[]),
            arena_points: gen_nerf_telemetry::counter("core_arena_points_total", &[]),
            arena_fill: gen_nerf_telemetry::histogram("core_arena_fill_points", &[]),
        }
    })
}

/// Sample-point budget of one ray tile (see [`Renderer::fan_out`]) —
/// sized so a tile's buffers stay L2-resident from aggregation to
/// composite. Per point, `ModelConfig::fast()` keeps ≈ 0.3 KB live in
/// the worker scratch (stats row 26 floats, point-MLP output 19, the
/// mixer's `F` 16, logit, density and colour — the hidden activations
/// are L1 panels, not per point) plus ≈ 0.03 KB per source view
/// (color, blend input and the blend logit per valid pair), and the
/// acquisition planes of the arena beside them. The budget was sized
/// when the hidden activations were whole-tile (1.5–1.9 KB per point
/// at 6–8 views against half of a 4 MiB L2, the other half left to
/// the source feature maps the aggregation gathers from) and is kept:
/// ≈ 1 K points, i.e. 64 rays at 16 points per ray, is also what
/// amortises the per-tile dispatch and bookkeeping.
const TILE_POINTS: usize = 1024;

/// Upper bound on the heap one render worker's scratch retains, for
/// any frame size or batch: the renderer shades one ray tile of at
/// most 1 K sample points at a time, so the scratch stops growing at
/// one tile's buffers — 0.44 MB measured at 4 source views with
/// `ModelConfig::fast()` (0.3 KB per point of stats, activations and
/// outputs, 0.03 KB per point and view of acquisition planes, one
/// 4 KB depth buffer for the tile, and 2.6 KB — 4.7 KB at 8 views — of
/// block-kernel tile; a unit test pins that figure), ≈ 0.03 MB more
/// per extra view — with room for wider models and for `Vec` growth's
/// slack. A unit test pins the retained capacity under it; the serve
/// tier's memory governor reserves this much per render worker.
pub const WORKER_SCRATCH_BYTES: usize = 4 << 20;

/// Ceiling on steady-state fused-schedule heap allocations per frame
/// on the canonical allocation workload (32×32 frame, uniform
/// n = 12, one inline thread): the measured 33 plus a third. What is
/// left is per frame (the ray batch, the pixel and image buffers) and
/// per tile (its pixels and its counts); nothing is per ray or per
/// point. The 757 before the flat depth buffer were a depth `Vec` per
/// ray, the 2,122 before the flat forward outputs mostly two `Vec`s per
/// ray in `RayOutput`, and the 21,698 before that a `String` per
/// `FlopsCounter::add`, two adds per point — the regressions this
/// ceiling exists to catch. `tests/arena_regression.rs` enforces it, on
/// both kernel legs of CI.
pub const STEADY_STATE_ALLOC_CEILING: u64 = 45;

/// [`STEADY_STATE_ALLOC_CEILING`] for the same frame rendered
/// coarse-then-focus (16, 12) — the schedule the benchmark and the
/// serve tier run: the measured 62 plus a third. Two passes' tiles,
/// the exported `CoarseFrame`'s three blocks and Step ②'s allocation
/// vectors; before the flat depth buffer and the in-place `CoarseFrame`
/// it was four `Vec`s per ray (9,216 of the benchmark frame's 9,767).
pub const STEADY_STATE_CTF_ALLOC_CEILING: u64 = 80;

/// One tile's model evaluations for one frame, as plain integers: a
/// full-model pass's ([`Renderer::book_full_eval`]) or Step ①'s
/// probing ([`Renderer::book_coarse_eval`]). Every `RenderStats` term
/// is linear in these, so a tile sums them per ray and books them once
/// instead of probing the string-keyed FLOPs buckets for every ray.
#[derive(Debug, Clone, Copy, Default)]
struct EvalCounts {
    /// Rays evaluated (with at least one point).
    rays: u64,
    /// Points evaluated.
    points: u64,
    /// Valid (point, view) pairs.
    valid: u64,
    /// Full model only: Σ over rays of the ray module's FLOPs at the
    /// ray's length.
    ray_module: u64,
    /// Step ① only: rays composited (a ray that crosses the bounds,
    /// probed or not).
    composited: u64,
    /// Σ over evaluated rays of the volume-rendering FLOPs at the
    /// ray's length.
    render: u64,
}

/// Instrumentation collected while rendering one image.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RenderStats {
    /// FLOPs by bucket: `acquire`, `mlp`, `ray_module`, `others`.
    pub flops: FlopsCounter,
    /// Camera rays traced.
    pub rays: u64,
    /// Points evaluated by the full model.
    pub points: u64,
    /// Points evaluated by the coarse pass.
    pub coarse_points: u64,
    /// Feature-map texel fetches (4 bilinear taps × valid views ×
    /// points).
    pub feature_fetches: u64,
}

impl RenderStats {
    /// Total MFLOPs per rendered pixel (the Tab. 2/3 efficiency
    /// metric).
    pub fn mflops_per_pixel(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.flops.total() as f64 / self.rays as f64 / 1e6
        }
    }

    /// Average full-model points per ray (the Fig. 9 x-axis, measured).
    pub fn avg_points_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            (self.points + self.coarse_points) as f64 / self.rays as f64
        }
    }

    /// Adds another accumulator's counts into this one (used to fold
    /// per-worker stats; all fields are order-independent sums).
    pub fn merge(&mut self, other: &Self) {
        self.flops.merge(&other.flops);
        self.rays += other.rays;
        self.points += other.points;
        self.coarse_points += other.coarse_points;
        self.feature_fetches += other.feature_fetches;
    }
}

/// A camera's rays in structure-of-arrays layout, indexed by row-major
/// pixel id: `rays[j]` and `ranges[j]` describe pixel
/// `(j % width, j / width)`.
#[derive(Debug, Clone)]
pub(crate) struct RayBatch {
    /// Per-pixel camera rays.
    pub rays: Vec<Ray>,
    /// Per-ray `[t_near, t_far]` against the scene bounds; `None` for
    /// rays that miss entirely.
    pub ranges: Vec<Option<(f32, f32)>>,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl RayBatch {
    /// Builds the batch for every pixel of `camera`, clipping against
    /// `bounds`.
    pub(crate) fn from_camera(camera: &Camera, bounds: &Aabb) -> Self {
        let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
        let n = (w as usize) * (h as usize);
        let mut rays = Vec::with_capacity(n);
        let mut ranges = Vec::with_capacity(n);
        for y in 0..h {
            for x in 0..w {
                let ray = camera.pixel_center_ray(x, y);
                // A ray that only grazes an edge or a corner of the
                // bounds comes back as `(t, t)`: nothing to sample, so
                // it is a miss (every sampler needs `t_far > t_near`).
                ranges.push(bounds.intersect_ray(&ray).filter(|&(t0, t1)| t1 > t0));
                rays.push(ray);
            }
        }
        Self {
            rays,
            ranges,
            width: w,
            height: h,
        }
    }

    /// Number of rays (pixels).
    pub(crate) fn len(&self) -> usize {
        self.rays.len()
    }

    /// Writes per-ray colors (in batch order) into `image`, reshaping
    /// it to this batch's dimensions and reusing its allocation.
    fn write_image(&self, pixels: &[Vec3], image: &mut Image) {
        debug_assert_eq!(pixels.len(), self.len());
        image.reset(self.width, self.height);
        for (j, &rgb) in pixels.iter().enumerate() {
            image.set(j as u32 % self.width, j as u32 / self.width, rgb);
        }
    }
}

/// SplitMix64 finalizer: decorrelates per-ray seeds derived from
/// `(base seed, ray index)`.
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A render whose output failed an integrity check and must not be
/// published (see the "Output integrity" section of the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// A GEMM checksum (`gen_nerf_nn::kernels::integrity`) or a
    /// stage-boundary sentinel tripped during the render: the frame's
    /// pixels are untrustworthy and the caller should discard the
    /// output buffers and retry (re-rendering is deterministic, so a
    /// transient fault does not recur).
    Corrupt {
        /// Which guard detected the corruption: `"gemm"` for the ABFT
        /// checksum, `"sentinel"` for a stage-boundary finite scan.
        stage: &'static str,
        /// Human-readable description of the render's first fault, in
        /// pass and tile order.
        detail: String,
    },
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::Corrupt { stage, detail } => {
                write!(f, "corrupt render output ({stage}): {detail}")
            }
        }
    }
}

impl std::error::Error for RenderError {}

/// Armed single-pixel corruption for the chaos harness (see
/// [`arm_pixel_corruption`]); consumed by the next multi-frame render.
static ARMED_PIXEL: Mutex<Option<u64>> = Mutex::new(None);

thread_local! {
    /// The first sentinel trip of the tile this thread is running
    /// (see the "Output integrity" section of the module docs).
    static TILE_TRIP: Cell<Option<RenderError>> = const { Cell::new(None) };
}

/// Counts one sentinel trip and returns its verdict.
fn sentinel_fault(detail: String) -> RenderError {
    use std::sync::OnceLock;
    static C: OnceLock<gen_nerf_telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| gen_nerf_telemetry::counter("core_sentinel_trips_total", &[]))
        .inc();
    RenderError::Corrupt {
        stage: "sentinel",
        detail,
    }
}

/// Records a sentinel trip of the tile this thread is running (the
/// first trip wins until the tile ends).
fn trip_sentinel(detail: String) {
    let fault = sentinel_fault(detail);
    let first = TILE_TRIP.take();
    TILE_TRIP.set(first.or(Some(fault)));
}

/// Empties this thread's fault slots and returns what they held: the
/// first GEMM miscompare, else the first sentinel trip.
fn take_tile_fault() -> Option<RenderError> {
    let gemm = integrity::take_fault().map(|e| RenderError::Corrupt {
        stage: "gemm",
        detail: e.to_string(),
    });
    let trip = TILE_TRIP.take();
    gemm.or(trip)
}

/// Whether the stage-boundary sentinels are live. They ride the same
/// switch as the GEMM checksums (`GEN_NERF_INTEGRITY`): `off` skips
/// every scan, so the default render path pays nothing.
fn sentinels_enabled() -> bool {
    integrity::mode() != integrity::IntegrityMode::Off
}

/// Scans a fused forward's flat outputs for non-finite densities or
/// colors and trips the sentinel naming `stage`. The density scan is
/// one `is_finite_all` of the active kernel (AVX2 on hosts that have
/// it) over the whole tile, so the guard costs one pass over data the
/// composite is about to read anyway.
fn scan_forward_outputs(densities: &[f32], colors: &[Vec3], stage: &str) {
    let ok = kernels::active().is_finite_all(densities)
        && colors
            .iter()
            .all(|c| c.x.is_finite() && c.y.is_finite() && c.z.is_finite());
    if !ok {
        trip_sentinel(format!("{stage}: non-finite model output in the tile"));
    }
}

/// Arms the corruption-chaos pixel fault: the next multi-frame render
/// poisons one composited pixel (chosen deterministically from `seed`)
/// with NaN *before* the composite-boundary sentinel runs, so the
/// chaos harness can prove corrupt pixels are caught at the publish
/// boundary rather than served. Process-wide, consumed exactly once.
pub fn arm_pixel_corruption(seed: u64) {
    *ARMED_PIXEL.lock().unwrap() = Some(seed);
}

/// Disarms a still-armed pixel fault; `true` when one was pending
/// (i.e. no render consumed it).
pub fn disarm_pixel_corruption() -> bool {
    ARMED_PIXEL.lock().unwrap().take().is_some()
}

/// Applies an armed pixel fault to the composited (not yet published)
/// pixels. The poison is injected whether or not the sentinels are
/// enabled — injection simulates the corruption, detection is the
/// integrity subsystem's job.
fn apply_armed_pixel_fault(pixels: &mut [Vec<Vec3>]) {
    let Some(seed) = ARMED_PIXEL.lock().unwrap().take() else {
        return;
    };
    let frames: Vec<usize> = (0..pixels.len())
        .filter(|&f| !pixels[f].is_empty())
        .collect();
    if frames.is_empty() {
        return;
    }
    let f = frames[(seed as usize) % frames.len()];
    let j = ((seed >> 17) as usize) % pixels[f].len();
    pixels[f][j].x = f32::NAN;
}

/// The exported outcome of one frame's coarse-then-focus Step ①
/// (coarse probing): per-ray hitting weights and critical-sample
/// counts, everything Steps ②/③ consume.
///
/// Produced by [`Renderer::render_frames`] and importable back
/// into it, this is the unit of the render server's temporal-coherence
/// cache: when the next head pose is close enough to the one that
/// produced this probing, the serving layer re-runs only the focus
/// pass against these weights. Step ① is a pure function of the pose,
/// so importing a `CoarseFrame` from the *identical* pose reproduces
/// the uncached render bit-for-bit.
#[derive(Debug, Clone)]
pub struct CoarseFrame {
    /// Every ray's hitting weights from the coarse composite, ray-major
    /// in one block: a frame is cached for seconds in the serving
    /// tier, and a heap block per ray costs half again the payload in
    /// allocator overhead that no byte budget sees.
    weights: Vec<f32>,
    /// `offsets[j]..offsets[j + 1]` is ray `j`'s run of `weights`
    /// (empty for a ray that missed the scene or was cancelled).
    offsets: Vec<u32>,
    /// Per-ray critical sample counts (Step ② input).
    criticals: Vec<u32>,
    /// FNV-1a digest over the weights' bit patterns and the critical
    /// counts, sealed at export. A cached frame sits in the serving
    /// tier's memory for seconds; the digest lets the cache importer
    /// reject a frame whose payload no longer matches what Step ①
    /// produced (treated as a miss, never as pixels).
    checksum: u64,
}

impl CoarseFrame {
    /// An unsealed frame for `batch` probed at `n_coarse` samples a
    /// ray: `n_coarse` weights (zero until Step ① writes them) for
    /// every ray that crosses the bounds, none for one that misses, and
    /// no critical samples anywhere. Sized exactly, so the tiles of
    /// Step ① write their rays in place.
    fn for_batch(batch: &RayBatch, n_coarse: usize) -> Self {
        let mut offsets = Vec::with_capacity(batch.len() + 1);
        let mut end = 0usize;
        offsets.push(0);
        for range in &batch.ranges {
            end += if range.is_some() { n_coarse } else { 0 };
            offsets.push(u32::try_from(end).expect("a frame's coarse weights fit in u32"));
        }
        Self {
            weights: vec![0.0; end],
            offsets,
            criticals: vec![0; batch.len()],
            checksum: 0,
        }
    }

    /// Ray `j`'s hitting weights and critical count, for Step ① to
    /// fill.
    fn ray_mut(&mut self, j: usize) -> (&mut [f32], &mut u32) {
        let run = self.offsets[j] as usize..self.offsets[j + 1] as usize;
        (&mut self.weights[run], &mut self.criticals[j])
    }

    /// Seals the digest over the finished payload (export time).
    fn seal(&mut self) {
        self.checksum = self.fnv1a();
    }

    /// Rays covered (must match the batch it is imported into).
    pub fn n_rays(&self) -> usize {
        self.criticals.len()
    }

    /// The `n_coarse` the frame was probed at — the length of its first
    /// non-empty run, every run being that long or empty. `None` when
    /// no ray crossed the bounds: such a frame fits any strategy, since
    /// no weight of it is ever read.
    fn samples_per_ray(&self) -> Option<usize> {
        let mut runs = self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
        runs.find(|&n| n > 0)
    }

    /// Ray `j`'s hitting weights.
    fn ray_weights(&self, j: usize) -> &[f32] {
        &self.weights[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// Heap footprint in bytes — what the cache budget and the memory
    /// governor charge for holding the frame.
    pub fn approx_bytes(&self) -> usize {
        self.weights.capacity() * std::mem::size_of::<f32>()
            + (self.offsets.capacity() + self.criticals.capacity()) * std::mem::size_of::<u32>()
    }

    /// FNV-1a over the payload: per ray, the weight count then each
    /// weight's IEEE-754 bits, then every critical count. Bit-exact by
    /// construction — any single flipped payload bit changes it.
    fn fnv1a(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for j in 0..self.n_rays() {
            let w = self.ray_weights(j);
            eat(w.len() as u64);
            for &v in w {
                eat(v.to_bits() as u64);
            }
        }
        for &c in &self.criticals {
            eat(c as u64);
        }
        h
    }

    /// The sealed payload digest.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the digest and compares it to the seal. `false`
    /// means the payload was altered since export — the frame must be
    /// discarded, not imported.
    pub fn integrity_ok(&self) -> bool {
        self.fnv1a() == self.checksum
    }

    /// Fault-injection hook for the corruption chaos harness: poisons
    /// one stored weight (NaN — the first weight of a ray chosen
    /// deterministically from `seed`) *without* resealing, so
    /// [`CoarseFrame::integrity_ok`] fails. A frame with no weights at
    /// all gets its seal flipped instead.
    pub fn corrupt_for_chaos(&mut self, seed: u64) {
        let n = self.n_rays();
        if n > 0 {
            let r = (seed as usize) % n;
            for off in 0..n {
                let i = (r + off) % n;
                if !self.ray_weights(i).is_empty() {
                    self.weights[self.offsets[i] as usize] = f32::NAN;
                    return;
                }
            }
        }
        self.checksum ^= 1;
    }
}

/// Several frames' ray batches concatenated into one parallel domain:
/// global ray id `g` maps to `(frame, frame-local ray)` so chunks can
/// span frame boundaries while every per-ray decision (RNG stream,
/// clip range, stats bucket) stays frame-local. A set may hold only
/// some of the frames (Step ① skips those that imported a coarse pass):
/// a frame left out contributes no rays and keeps its index.
struct FrameSet<'b> {
    batches: &'b [RayBatch],
    /// `offsets[f]..offsets[f + 1]` is frame `f`'s global id range
    /// (empty for a frame left out).
    offsets: Vec<usize>,
}

impl<'b> FrameSet<'b> {
    /// The rays of every frame `f` of `batches` with `keep(f)`.
    fn new(batches: &'b [RayBatch], keep: impl Fn(usize) -> bool) -> Self {
        let mut offsets = Vec::with_capacity(batches.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for (f, b) in batches.iter().enumerate() {
            if keep(f) {
                acc += b.len();
            }
            offsets.push(acc);
        }
        Self { batches, offsets }
    }

    fn total(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    fn n_frames(&self) -> usize {
        self.batches.len()
    }

    /// Maps a global ray id to `(frame index, frame-local ray index)`:
    /// the last frame starting at or before `g`, which skips the empty
    /// ranges of frames left out.
    fn locate(&self, g: usize) -> (usize, usize) {
        let f = self.offsets.partition_point(|&o| o <= g) - 1;
        (f, g - self.offsets[f])
    }

    /// The depth rule of a uniform pass, as [`Renderer::fill_tile`]
    /// takes it: `n` depths across the ray's clip range, none for a ray
    /// that misses the bounds.
    fn uniform_depths(&self, n: usize) -> impl Fn(usize, usize, usize, &mut SampleScratch) + '_ {
        move |_, f, j, sample| {
            if let Some((t0, t1)) = self.batches[f].ranges[j] {
                Ray::uniform_depths_into(t0, t1, n, &mut sample.depths);
            }
        }
    }
}

/// The end-to-end renderer: a model + prepared source views + a
/// sampling strategy, rendering novel views inside known scene bounds.
///
/// Holds the model by shared reference — inference never mutates it —
/// so the renderer can fan ray chunks out across threads (see the
/// module docs for the determinism contract).
pub struct Renderer<'a> {
    model: &'a GenNerfModel,
    sources: &'a [SourceViewData],
    strategy: SamplingStrategy,
    bounds: Aabb,
    background: Vec3,
    base_seed: u64,
    /// The pool the tiles are claimed on: the caller as worker 0 and
    /// the pool's crew.
    crew: Arc<Pool>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Renderer<'a> {
    /// Creates a renderer on the process-wide default pool
    /// ([`gen_nerf_parallel::default_pool`], [`gen_nerf_parallel::num_threads`]
    /// wide).
    ///
    /// `bounds` clip each camera ray to `[t_near, t_far]`; `background`
    /// fills rays that miss or terminate without saturating.
    ///
    /// # Panics
    ///
    /// Panics when any source view's feature map carries fewer channels
    /// than the model's `d_features` (or `coarse_channels`): the old
    /// per-point clamp silently zero-padded the trailing aggregation
    /// stats; the mismatch now fails once, loudly, at construction.
    pub fn new(
        model: &'a GenNerfModel,
        sources: &'a [SourceViewData],
        strategy: SamplingStrategy,
        bounds: Aabb,
        background: Vec3,
    ) -> Self {
        assert_channels(sources, model.config.d_features, "Renderer");
        assert_channels(
            sources,
            model.config.coarse_channels,
            "Renderer coarse pass",
        );
        let base_seed = model.config.seed ^ 0x5eed_5a3e;
        Self {
            model,
            sources,
            strategy,
            bounds,
            background,
            base_seed,
            crew: gen_nerf_parallel::default_pool(),
            cancel: None,
        }
    }

    /// Renders on a pool of its own, `threads` wide: the caller plus a
    /// crew of `threads − 1` (1 = fully sequential, no crew), spawned on
    /// the first pass of two or more tiles and reused by every later
    /// call. The rendered image and stats are identical for every
    /// value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.crew = Arc::new(Pool::new(threads));
        self
    }

    /// Claims the tiles on a shared `pool` instead of one of its own —
    /// the render server's, where each shard thread renders as worker 0
    /// beside the one crew (it replaces [`Renderer::with_threads`]).
    /// The tile list is the same, so output is bit-for-bit identical
    /// either way.
    pub fn with_pool(mut self, pool: &Arc<Pool>) -> Self {
        self.crew = Arc::clone(pool);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: render workers poll it
    /// at every per-ray boundary of every tile and, once it fires,
    /// stop evaluating the model — remaining rays resolve to the
    /// background color, so output buffers keep their full shape but
    /// the fan-out (and the [`Pool`] workers running it) drains within
    /// one ray's work. Every tile fill also ticks the token's progress
    /// count, so its holder can tell a slow render from a stuck one.
    /// This is how a serving supervisor reclaims a
    /// worker from a render whose deadline already passed: the partial
    /// image is garbage by construction and must be discarded by the
    /// caller.
    ///
    /// A token that never fires changes nothing: the checks are pure
    /// reads, so cancellable and plain renders are bit-for-bit
    /// identical (the serve regression suite pins this).
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether an attached token has fired (`false` when none is
    /// attached — the hot-path check every per-ray loop performs).
    fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Renders a full image from `camera`: one frame through
    /// [`Renderer::render_frames`], whatever its integrity verdict.
    pub fn render(&self, camera: &Camera) -> (Image, RenderStats) {
        let mut image = Image::new(0, 0);
        let mut stats = RenderStats::default();
        let _verdict = self.render_frames(
            std::slice::from_ref(camera),
            &[None],
            std::slice::from_mut(&mut image),
            std::slice::from_mut(&mut stats),
        );
        (image, stats)
    }

    /// Renders several cameras as **one** fused workload into
    /// caller-owned frame buffers, with coarse-pass import/export and
    /// the integrity verdict — the render server's workhorse.
    ///
    /// The frames' ray domains are concatenated and tiled together, so
    /// concurrent small frames fill fused GEMM batches a lone frame
    /// could not. Every frame's image and stats are bit-for-bit
    /// identical to a solo [`Renderer::render`] of that camera (the
    /// kernel batch-independence contract; pinned by
    /// `tests/serve_regression.rs`). `images`/`stats` are overwritten
    /// per frame, reusing buffer allocations.
    ///
    /// For the coarse-then-focus strategy, `cached[f] = Some(coarse)`
    /// re-uses that frame's imported Step ① probing (only the focus
    /// pass runs) and the return value carries a fresh [`CoarseFrame`]
    /// for every frame that ran Step ① itself (`None` where an import
    /// was used). Other strategies have no coarse pass: imports are
    /// rejected and every export is `None`.
    ///
    /// # Errors
    ///
    /// When a GEMM checksum or a stage-boundary sentinel tripped in one
    /// of this render's tiles, or at its composite boundary, returns
    /// [`RenderError::Corrupt`] carrying the first such fault in pass
    /// and tile order — the same fault at any worker count. The caller
    /// must treat `images`/`stats` as garbage (they were overwritten
    /// before the verdict) and retry or fail the frames. Faults found
    /// by other renders running at the same time, on this crew or any
    /// other thread, never fail this one. With integrity checking off
    /// (the default) this never fails.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths differ from `cameras.len()`, when an
    /// import's ray count mismatches its camera or it was probed at
    /// another `n_coarse` than this renderer's strategy, or when an
    /// import is supplied for a strategy that cannot honor it.
    pub fn render_frames(
        &self,
        cameras: &[Camera],
        cached: &[Option<&CoarseFrame>],
        images: &mut [Image],
        stats: &mut [RenderStats],
    ) -> Result<Vec<Option<CoarseFrame>>, RenderError> {
        let n_frames = cameras.len();
        assert_eq!(cached.len(), n_frames, "one cached slot per camera");
        assert_eq!(images.len(), n_frames, "one image buffer per camera");
        assert_eq!(stats.len(), n_frames, "one stats buffer per camera");
        if n_frames == 0 {
            return Ok(Vec::new());
        }
        let batches: Vec<RayBatch> = cameras
            .iter()
            .map(|c| RayBatch::from_camera(c, &self.bounds))
            .collect();
        for (st, b) in stats.iter_mut().zip(&batches) {
            *st = RenderStats::default();
            st.rays = b.len() as u64;
        }
        let set = FrameSet::new(&batches, |_| true);

        let mut verdict = None;
        let (mut pixels, fresh) = match self.strategy {
            SamplingStrategy::Uniform { n } => {
                assert!(
                    cached.iter().all(|c| c.is_none()),
                    "uniform sampling has no coarse pass to import"
                );
                let depths = set.uniform_depths(n);
                let px = self.shade_frames_fused(&set, |_, _| n, depths, stats, &mut verdict);
                (px, vec![None; n_frames])
            }
            SamplingStrategy::Hierarchical { n_coarse, n_fine } => {
                assert!(
                    cached.iter().all(|c| c.is_none()),
                    "hierarchical sampling has no exportable coarse pass"
                );
                let px =
                    self.render_hierarchical_frames(&set, n_coarse, n_fine, stats, &mut verdict);
                (px, vec![None; n_frames])
            }
            SamplingStrategy::CoarseThenFocus {
                n_coarse,
                n_focused,
                tau,
                s_coarse,
            } => self.render_ctf_frames(
                &set,
                n_coarse,
                n_focused,
                tau,
                s_coarse,
                cached,
                stats,
                &mut verdict,
            ),
        };
        // Corruption-chaos injection point (no-op unless armed), then
        // the composite-boundary sentinel: the last integrity gate
        // before pixels become publishable images.
        apply_armed_pixel_fault(&mut pixels);
        if sentinels_enabled() {
            let non_finite = pixels.iter().enumerate().find_map(|(f, px)| {
                px.iter()
                    .position(|c| !(c.x.is_finite() && c.y.is_finite() && c.z.is_finite()))
                    .map(|j| (f, j))
            });
            if let Some((f, j)) = non_finite {
                let fault = sentinel_fault(format!(
                    "composite boundary: non-finite pixel {j} of frame {f}"
                ));
                verdict.get_or_insert(fault);
            }
        }
        for ((batch, px), image) in batches.iter().zip(&pixels).zip(images.iter_mut()) {
            batch.write_image(px, image);
        }
        verdict.map_or(Ok(fresh), Err)
    }

    fn d_channels(&self) -> usize {
        self.model.config.d_features
    }

    /// Derives the decorrelated random stream of ray `j` — a pure
    /// function of the render seed and the (frame-local) ray index, so
    /// results depend on neither thread scheduling nor on which other
    /// frames share the fused workload.
    fn ray_rng(&self, j: usize) -> Rng {
        Rng::seed_from(mix_seed(self.base_seed, j as u64))
    }

    /// Fans `f` out over `0..n` as **ray tiles**: one serial pass over
    /// `points_of(ray)` cuts the rays into a list of tiles of at most
    /// [`TILE_POINTS`] sample points — a ray is indivisible, so a tile
    /// always takes at least one — and the caller and the pool's crew
    /// claim the tiles one at a time. Returns one result per tile in
    /// tile order. The list depends on the rays alone, not on the pool
    /// or the worker count, and tile geometry never changes results
    /// anyway (GEMM rows are batch-independent and every per-ray
    /// decision is a function of the ray index).
    ///
    /// This is also where integrity faults meet their render: the
    /// worker's fault slots are emptied when a tile starts and taken
    /// when it ends, and the first fault in tile order goes into
    /// `verdict` unless it already holds one from an earlier pass.
    fn fan_out<R, P, F>(
        &self,
        verdict: &mut Option<RenderError>,
        n: usize,
        points_of: P,
        f: F,
    ) -> impl Iterator<Item = R>
    where
        R: Send,
        P: Fn(usize) -> usize,
        F: Fn(usize, usize) -> R + Sync,
    {
        let mut bounds = vec![0];
        let mut points = 0;
        for ray in 0..n {
            // A ray with nothing to sample still costs its per-ray
            // bookkeeping, so it counts as one point and a run of
            // misses cannot grow a tile without bound.
            let ray_points = points_of(ray).max(1);
            if points > 0 && points + ray_points > TILE_POINTS {
                bounds.push(ray);
                points = 0;
            }
            points += ray_points;
        }
        if n > 0 {
            bounds.push(n);
        }
        #[cfg(test)]
        tests::log_tile(|| tests::TileLog::Tiles(bounds.clone()));
        let telemetry = gen_nerf_telemetry::enabled();
        let mut tiles = self.crew.claim(
            bounds.len() - 1,
            || (),
            |_, tile| {
                #[cfg(test)]
                tests::log_thread(&self.crew);
                if telemetry {
                    meters().tiles.inc();
                }
                // Whatever earlier work left on this thread is not
                // this tile's.
                let _stale = take_tile_fault();
                let result = f(bounds[tile], bounds[tile + 1]);
                (result, take_tile_fault())
            },
        );
        if verdict.is_none() {
            *verdict = tiles.iter_mut().find_map(|(_, fault)| fault.take());
        }
        tiles.into_iter().map(|(result, _)| result)
    }

    /// The one tile fill — Phase 1 of every fused pass: aggregates rays
    /// `tile` of `set` against `sources` at `d` channels into the
    /// (reset) `arena`, blocks of eight points running on from one ray
    /// into the next. `depths_for(i, frame, ray, sample)` appends the
    /// samples of the tile's `i`-th ray to the flat depth buffer —
    /// behind whatever it already holds — and appending nothing makes
    /// a background ray; either way ray `i` of the arena is that ray.
    ///
    /// Three contracts live here and nowhere else. **Cancellation:**
    /// the token is polled before each ray's depths are chosen, and
    /// once it has fired every remaining ray of the tile is a
    /// background ray, so the forward that follows shrinks to the work
    /// already aggregated and the worker drains within one ray's work.
    /// **Progress:** every fill ticks the token once.
    /// **Flush:** the block in flight is acquired before this returns,
    /// so every row of the arena is filled when anything reads it.
    #[allow(clippy::too_many_arguments)] // one tile's inputs and buffers, spelled out
    fn fill_tile(
        &self,
        set: &FrameSet,
        tile: std::ops::Range<usize>,
        sources: &[SourceViewData],
        d: usize,
        arena: &mut AggregateArena,
        sample: &mut SampleScratch,
        mut depths_for: impl FnMut(usize, usize, usize, &mut SampleScratch),
    ) {
        if let Some(cancel) = self.cancel {
            cancel.tick();
        }
        arena.reset(sources.len(), d);
        for (i, g) in tile.enumerate() {
            let (f, j) = set.locate(g);
            let from = sample.depths.len();
            if !self.is_cancelled() {
                depths_for(i, f, j, sample);
            }
            arena.push_ray(&set.batches[f].rays[j], &sample.depths[from..], sources);
        }
        arena.flush(sources);
    }

    /// Splits per-tile `(colors, per-frame counts)` results back into
    /// per-frame pixel vectors (frame-local ray order) and books the
    /// counts, tile-major — the join side of every multi-frame fan-out.
    fn merge_frame_chunks(
        &self,
        set: &FrameSet,
        chunks: impl Iterator<Item = (Vec<Vec3>, Vec<EvalCounts>)>,
        stats: &mut [RenderStats],
    ) -> Vec<Vec<Vec3>> {
        let mut pixels: Vec<Vec<Vec3>> = set
            .batches
            .iter()
            .map(|b| Vec::with_capacity(b.len()))
            .collect();
        let mut g = 0usize;
        for (colors, local) in chunks {
            for c in colors {
                let (f, _) = set.locate(g);
                pixels[f].push(c);
                g += 1;
            }
            for (f, counts) in local.iter().enumerate() {
                self.book_full_eval(counts, &mut stats[f]);
                #[cfg(test)]
                tests::log_booking(f, |one| self.book_full_eval(counts, one));
            }
        }
        pixels
    }

    /// The fused tile schedule over a whole frame set: tiles are cut
    /// by `points_of(frame, ray)` (each ray's sample count, known
    /// before shading) and may span frames; per tile,
    /// phase 1 aggregates every ray of the tile at the depths
    /// `depths_for` chooses ([`Renderer::fill_tile`] has its contract),
    /// phase 2 runs **one** fused forward for the whole tile, phase 3
    /// composites per ray.
    /// Bit-identical to shading each frame alone (GEMM rows are
    /// batch-independent) and to [`Renderer::shade_batch`] over
    /// [`Renderer::eval_points`] with the same depth choice.
    fn shade_frames_fused<P, D>(
        &self,
        set: &FrameSet,
        points_of: P,
        depths_for: D,
        stats: &mut [RenderStats],
        verdict: &mut Option<RenderError>,
    ) -> Vec<Vec<Vec3>>
    where
        P: Fn(usize, usize) -> usize + Sync,
        D: Fn(usize, usize, usize, &mut SampleScratch) + Sync,
    {
        let d = self.d_channels();
        let tile_points = |g: usize| {
            let (f, j) = set.locate(g);
            points_of(f, j)
        };
        let chunks = self.fan_out(verdict, set.total(), tile_points, |start, end| {
            with_worker_scratch(|ws| {
                let telemetry = gen_nerf_telemetry::enabled();
                let t_chunk = telemetry.then(std::time::Instant::now);
                let mut local = vec![EvalCounts::default(); set.n_frames()];
                let WorkerScratch {
                    arena,
                    forward,
                    sample,
                    composite: cscratch,
                    ..
                } = ws;
                // Phase 1: depth selection + SoA aggregation for the
                // tile, straight into the worker's arena (zero heap
                // allocations once its buffers have grown).
                sample.depths.clear();
                self.fill_tile(set, start..end, self.sources, d, arena, sample, &depths_for);
                // Phase 2: one fused forward for every ray of the tile
                // — the arena's stats matrix is the GEMM operand, no
                // staging copy.
                let (densities, colors) = self.model.forward_arena_flat(arena, forward);
                // Stage-boundary sentinel: catch non-finite forward
                // outputs before the composite folds them into pixels.
                if sentinels_enabled() {
                    scan_forward_outputs(densities, colors, "fused forward");
                }
                let t_composite = if let Some(t0) = t_chunk {
                    // Aggregation + fused forward = the focus stage.
                    let meters = meters();
                    meters.focus.observe(t0.elapsed().as_nanos() as u64);
                    let pts = arena.total_points() as u64;
                    meters.arena_points.add(pts);
                    meters.arena_fill.observe(pts);
                    Some(std::time::Instant::now())
                } else {
                    None
                };
                // Phase 3: per-ray accounting and composite of each
                // ray's run of the flat outputs, through the worker's
                // scratch buffers.
                let pixels: Vec<Vec3> = (start..end)
                    .map(|g| {
                        let (f, j) = set.locate(g);
                        let run = arena.ray_range(g - start);
                        match set.batches[f].ranges[j] {
                            Some((_, t1)) if !run.is_empty() => {
                                self.count_full_eval(
                                    run.len(),
                                    arena.ray_valid_pairs(g - start),
                                    &mut local[f],
                                );
                                self.composite_ray_scratch(
                                    &sample.depths[run.clone()],
                                    &densities[run.clone()],
                                    &colors[run],
                                    t1,
                                    cscratch,
                                )
                            }
                            _ => self.background,
                        }
                    })
                    .collect();
                if let Some(t0) = t_composite {
                    meters().composite.observe(t0.elapsed().as_nanos() as u64);
                }
                (pixels, local)
            })
        });
        self.merge_frame_chunks(set, chunks, stats)
    }

    /// Adds one ray's full-model evaluation — `n ≥ 1` points, `valid`
    /// (point, view) pairs — to a tile's counts.
    fn count_full_eval(&self, n: usize, valid: usize, counts: &mut EvalCounts) {
        counts.rays += 1;
        counts.points += n as u64;
        counts.valid += valid as u64;
        counts.ray_module += 2 * self.model.config.ray_module_macs(n);
        counts.render += flops::volume_render(n);
    }

    /// Books a tile's full-model counts: one add per bucket, the same
    /// totals as an add per ray (every term is an integer sum). A tile
    /// that evaluated nothing for the frame touches no bucket.
    fn book_full_eval(&self, counts: &EvalCounts, stats: &mut RenderStats) {
        if counts.rays == 0 {
            return;
        }
        stats.feature_fetches += 4 * counts.valid;
        stats.points += counts.points;
        stats.flops.add(
            "acquire",
            counts.valid * flops::bilinear_fetch(1, self.d_channels()),
        );
        // Blend head runs per valid view, the point MLP per point.
        stats.flops.add(
            "mlp",
            counts.valid * 2 * (2 * 8 + 8 * 8 + 8) as u64
                + counts.points * 2 * self.model.config.mlp_macs_per_point(),
        );
        stats.flops.add("ray_module", counts.ray_module);
        stats.flops.add("others", counts.render);
    }

    /// Books a tile's Step ① counts at `dc` coarse channels (see
    /// [`Renderer::book_full_eval`]).
    fn book_coarse_eval(&self, counts: &EvalCounts, dc: usize, stats: &mut RenderStats) {
        stats.feature_fetches += 4 * counts.valid;
        stats.coarse_points += counts.points;
        if counts.rays != 0 {
            stats
                .flops
                .add("acquire", counts.valid * flops::bilinear_fetch(1, dc));
            stats.flops.add(
                "mlp",
                counts.points * 2 * self.model.config.coarse_mlp_macs_per_point(),
            );
        }
        if counts.composited != 0 {
            stats.flops.add("others", counts.render);
        }
    }

    /// One ray's composite through per-worker scratch buffers — the
    /// arithmetic of the allocating `composite` (the per-ray reference
    /// tests pin the equality), with zero allocations once the buffers
    /// have grown.
    fn composite_ray_scratch(
        &self,
        depths: &[f32],
        densities: &[f32],
        colors: &[Vec3],
        t_far: f32,
        scratch: &mut CompositeScratch,
    ) -> Vec3 {
        Ray::interval_widths_into(depths, t_far, &mut scratch.deltas);
        let (color, _) = composite_into(
            densities,
            colors,
            &scratch.deltas,
            self.background,
            &mut scratch.weights,
        );
        color
    }

    /// Hierarchical sampling on the fused tile schedule over a frame
    /// set: two fused forwards per tile (coarse then fine) instead of
    /// two GEMM chains per ray, with tiles free to span frames.
    fn render_hierarchical_frames(
        &self,
        set: &FrameSet,
        n_coarse: usize,
        n_fine: usize,
        stats: &mut [RenderStats],
        verdict: &mut Option<RenderError>,
    ) -> Vec<Vec<Vec3>> {
        let d = self.d_channels();
        let per_pass = |_| n_coarse.max(n_fine);
        let chunks = self.fan_out(verdict, set.total(), per_pass, |start, end| {
            with_worker_scratch(|ws| {
                let mut local = vec![EvalCounts::default(); set.n_frames()];
                let WorkerScratch {
                    arena,
                    forward,
                    sample,
                    composite: cscratch,
                    ..
                } = ws;
                // Coarse phase: SoA-aggregate the tile into the
                // worker's arena, one fused forward off it.
                sample.depths.clear();
                let coarse_depths = set.uniform_depths(n_coarse);
                self.fill_tile(
                    set,
                    start..end,
                    self.sources,
                    d,
                    arena,
                    sample,
                    coarse_depths,
                );
                for g in start..end {
                    let run = arena.ray_range(g - start);
                    if !run.is_empty() {
                        let valid = arena.ray_valid_pairs(g - start);
                        self.count_full_eval(run.len(), valid, &mut local[set.locate(g).0]);
                    }
                }
                // The coarse outputs outlive the arena and the forward
                // scratch (both are reused by the fine pass below), so
                // the tile's flat runs are copied out once.
                let (coarse_runs, coarse_densities, coarse_colors) = {
                    let (densities, colors) = self.model.forward_arena_flat(arena, forward);
                    if sentinels_enabled() {
                        scan_forward_outputs(densities, colors, "hierarchical coarse forward");
                    }
                    (
                        arena.ray_offsets().to_vec(),
                        densities.to_vec(),
                        colors.to_vec(),
                    )
                };
                let coarse_run = |idx: usize| coarse_runs[idx]..coarse_runs[idx + 1];

                // Importance resampling per ray, then the fine fused
                // pass through the same (reset) arena. The fine depths
                // go behind the coarse ones in the flat buffer.
                let fine_base = sample.depths.len();
                let fine_depths = |idx: usize, f: usize, j: usize, sample: &mut SampleScratch| {
                    // A ray whose coarse pass was cancelled never gets
                    // here: the token is sticky, so the fill's
                    // checkpoint has it too.
                    let Some((t0, t1)) = set.batches[f].ranges[j] else {
                        return;
                    };
                    Ray::interval_widths_into(
                        &sample.depths[coarse_run(idx)],
                        t1,
                        &mut cscratch.deltas,
                    );
                    composite_into(
                        &coarse_densities[coarse_run(idx)],
                        &coarse_colors[coarse_run(idx)],
                        &cscratch.deltas,
                        self.background,
                        &mut cscratch.weights,
                    );
                    let mut rng = self.ray_rng(j);
                    sampling::importance_sample_into(
                        t0,
                        t1,
                        &cscratch.weights,
                        n_fine,
                        &mut rng,
                        &mut sample.cdf,
                        &mut sample.depths,
                    );
                };
                self.fill_tile(set, start..end, self.sources, d, arena, sample, fine_depths);
                let (fine_densities, fine_colors) = self.model.forward_arena_flat(arena, forward);
                if sentinels_enabled() {
                    scan_forward_outputs(fine_densities, fine_colors, "hierarchical fine forward");
                }

                // Merge-sort the union by depth and composite, per ray.
                let colors: Vec<Vec3> = (start..end)
                    .map(|g| {
                        let idx = g - start;
                        let (f, j) = set.locate(g);
                        let Some((_, t1)) = set.batches[f].ranges[j] else {
                            return self.background;
                        };
                        let fine_run = arena.ray_range(idx);
                        if !fine_run.is_empty() {
                            self.count_full_eval(
                                fine_run.len(),
                                arena.ray_valid_pairs(idx),
                                &mut local[f],
                            );
                        }
                        let fine_depths =
                            &sample.depths[fine_base + fine_run.start..fine_base + fine_run.end];
                        let mut merged: Vec<(f32, f32, Vec3)> = sample.depths[coarse_run(idx)]
                            .iter()
                            .zip(&coarse_densities[coarse_run(idx)])
                            .zip(&coarse_colors[coarse_run(idx)])
                            .map(|((&t, &d), &c)| (t, d, c))
                            .chain(
                                fine_depths
                                    .iter()
                                    .zip(&fine_densities[fine_run.clone()])
                                    .zip(&fine_colors[fine_run])
                                    .map(|((&t, &d), &c)| (t, d, c)),
                            )
                            .collect();
                        merged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                        let depths: Vec<f32> = merged.iter().map(|m| m.0).collect();
                        let densities: Vec<f32> = merged.iter().map(|m| m.1).collect();
                        let colors: Vec<Vec3> = merged.iter().map(|m| m.2).collect();
                        self.composite_ray_scratch(&depths, &densities, &colors, t1, cscratch)
                    })
                    .collect();
                (colors, local)
            })
        });
        self.merge_frame_chunks(set, chunks, stats)
    }

    /// The proposed coarse-then-focus pipeline (Sec. 3.2) over a frame
    /// set, with coarse import/export.
    ///
    /// Step ① (coarse probing) runs fused across every frame *without*
    /// an imported [`CoarseFrame`]; Step ② (the cross-ray budget
    /// allocation) is a per-frame sequential barrier, exactly like the
    /// workload scheduler sitting between the accelerator's two
    /// stages; Step ③ (focused shading) runs fused across all frames.
    /// Returns per-frame pixels plus the freshly computed coarse
    /// passes (`None` where an import was used).
    #[allow(clippy::too_many_arguments)] // internal dispatch target
    fn render_ctf_frames(
        &self,
        set: &FrameSet,
        n_coarse: usize,
        n_focused: usize,
        tau: f32,
        s_coarse: usize,
        cached: &[Option<&CoarseFrame>],
        stats: &mut [RenderStats],
        verdict: &mut Option<RenderError>,
    ) -> (Vec<Vec<Vec3>>, Vec<Option<CoarseFrame>>) {
        let coarse_sources = &self.sources[..s_coarse.min(self.sources.len())];
        let dc = self.model.config.coarse_channels;
        for (f, c) in cached.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(
                    c.n_rays(),
                    set.batches[f].len(),
                    "imported coarse pass of frame {f} covers {} rays, batch has {}",
                    c.n_rays(),
                    set.batches[f].len()
                );
                // Step ③ resamples over `n_coarse` bins: a frame
                // probed at another rate must stop here, on the
                // caller's thread, not inside a tile worker.
                if let Some(probed_at) = c.samples_per_ray() {
                    assert_eq!(
                        probed_at, n_coarse,
                        "imported coarse pass of frame {f} was probed at {probed_at} samples \
                         a ray, this renderer probes {n_coarse}"
                    );
                }
            }
        }

        // Step ①: lightweight coarse sampling, fused across every
        // frame that did not import a coarse pass. All of a tile's
        // rays go through one coarse GEMM chain.
        let probed = FrameSet::new(set.batches, |f| cached[f].is_none());
        let t_coarse = gen_nerf_telemetry::enabled().then(std::time::Instant::now);
        // Every freshly probed frame exists, sized, before the fan-out:
        // a tile writes its rays' weights and critical counts in place,
        // under the frame's lock (one per run of a frame's rays in the
        // tile), so Step ① hands nothing per ray back to the join.
        let fresh: Vec<Option<Mutex<CoarseFrame>>> = (0..set.n_frames())
            .map(|f| {
                cached[f]
                    .is_none()
                    .then(|| Mutex::new(CoarseFrame::for_batch(&set.batches[f], n_coarse)))
            })
            .collect();
        let points_of = |_| n_coarse;
        let coarse_chunks = self.fan_out(verdict, probed.total(), points_of, |start, end| {
            with_worker_scratch(|ws| {
                let mut local = vec![EvalCounts::default(); set.n_frames()];
                let WorkerScratch {
                    arena,
                    coarse,
                    sample,
                    composite: cscratch,
                    ..
                } = ws;
                // Coarse SoA aggregation into the worker arena (the
                // channel-scaled coarse stats matrix feeds the coarse
                // MLP in place). A ray the fill cancels probes nothing
                // (weights zero, critical count 0) and Step ③ shades it
                // as background.
                sample.depths.clear();
                let depths = probed.uniform_depths(n_coarse);
                self.fill_tile(
                    &probed,
                    start..end,
                    coarse_sources,
                    dc,
                    arena,
                    sample,
                    depths,
                );
                let densities = self.model.coarse_densities_flat(arena, coarse);
                // Stage-boundary sentinel: a non-finite coarse density
                // would silently skew every weight Steps ②/③ consume.
                if sentinels_enabled() && !kernels::active().is_finite_all(densities) {
                    trip_sentinel("coarse forward: non-finite density in the tile".to_string());
                }
                // Per-ray accounting, then the weights-only composite
                // of each ray's run of the flat densities, straight
                // into the ray's place in its frame.
                let mut g = start;
                while g < end {
                    let (f, first) = probed.locate(g);
                    let batch = &set.batches[f];
                    let rays = (batch.len() - first).min(end - g);
                    let mut frame = fresh[f]
                        .as_ref()
                        .expect("fresh frame")
                        .lock()
                        .expect("no tile panics holding a frame");
                    for j in first..first + rays {
                        let idx = g - start + (j - first);
                        let run = arena.ray_range(idx);
                        let Some((_, t1)) = batch.ranges[j] else {
                            continue;
                        };
                        local[f].composited += 1;
                        if run.is_empty() {
                            continue; // cancelled before it was probed
                        }
                        local[f].rays += 1;
                        local[f].points += run.len() as u64;
                        local[f].valid += arena.ray_valid_pairs(idx) as u64;
                        local[f].render += flops::volume_render(run.len());
                        let (weights, critical) = frame.ray_mut(j);
                        Ray::interval_widths_into(
                            &sample.depths[run.clone()],
                            t1,
                            &mut cscratch.deltas,
                        );
                        cscratch.black.resize(run.len(), Vec3::ZERO);
                        composite_to(
                            &densities[run],
                            &cscratch.black,
                            &cscratch.deltas,
                            Vec3::ZERO,
                            weights,
                        );
                        *critical = u32::try_from(sampling::critical_count(weights, tau))
                            .expect("criticals are a subset of the ray's weights");
                    }
                    g += rays;
                }
                local
            })
        });
        for local in coarse_chunks {
            for (f, counts) in local.iter().enumerate() {
                self.book_coarse_eval(counts, dc, &mut stats[f]);
                #[cfg(test)]
                tests::log_booking(f, |one| self.book_coarse_eval(counts, dc, one));
            }
        }
        // Seal every freshly probed frame's digest at export.
        let fresh: Vec<Option<CoarseFrame>> = fresh
            .into_iter()
            .map(|frame| {
                let mut frame = frame?.into_inner().expect("no tile panics holding a frame");
                frame.seal();
                Some(frame)
            })
            .collect();
        if let Some(t0) = t_coarse {
            meters().coarse.observe(t0.elapsed().as_nanos() as u64);
        }

        // Per-frame coarse view: imported or freshly probed.
        let coarse_ref: Vec<&CoarseFrame> = (0..set.n_frames())
            .map(|f| cached[f].unwrap_or_else(|| fresh[f].as_ref().expect("fresh frame")))
            .collect();

        // Step ②: per-frame cross-ray allocation P(j) ∝ N^cr_j.
        let n_cap = self.model.config.n_max;
        let counts: Vec<Vec<usize>> = (0..set.n_frames())
            .map(|f| {
                let budget = n_focused * set.batches[f].len();
                let criticals: Vec<usize> = coarse_ref[f]
                    .criticals
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                sampling::allocate_focused(&criticals, budget, n_cap)
            })
            .collect();

        // Step ③: sparse focused sampling + full pipeline, fused
        // across every frame.
        let pixels = self.shade_frames_fused(
            set,
            |f, j| counts[f][j],
            |_, f, j, sample| {
                let Some((t0, t1)) = set.batches[f].ranges[j] else {
                    return;
                };
                if counts[f][j] == 0 {
                    // Nothing critical along the ray: empty/occluded
                    // region, background shows through.
                    return;
                }
                let mut rng = self.ray_rng(j);
                sampling::importance_sample_into(
                    t0,
                    t1,
                    coarse_ref[f].ray_weights(j),
                    counts[f][j],
                    &mut rng,
                    &mut sample.cdf,
                    &mut sample.depths,
                );
            },
            stats,
            verdict,
        );
        (pixels, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::prepare_sources;
    use gen_nerf_scene::datasets::{Dataset, DatasetKind};
    use gen_nerf_scene::metrics::psnr;

    fn setup() -> (Dataset, Vec<SourceViewData>, GenNerfModel) {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
        let sources = prepare_sources(&ds.source_views);
        let model = GenNerfModel::new(ModelConfig::fast());
        (ds, sources, model)
    }

    thread_local! {
        /// The calling thread's tile bookings while a test listens
        /// (`Some`): each pass's tile bounds, then each tile's booking.
        static TILE_LOG: RefCell<Option<Vec<TileLog>>> = const { RefCell::new(None) };
    }

    /// One entry of [`TILE_LOG`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum TileLog {
        /// A pass's tile list, as the bounds `[0, …, n]`.
        Tiles(Vec<usize>),
        /// What one tile booked for one frame: the frame, then
        /// `(points, coarse_points, feature_fetches)` and the FLOPs of
        /// `acquire`, `mlp`, `ray_module` and `others`.
        Booked(usize, [u64; 7]),
    }

    /// The threads that claimed tiles on each pool a test listens to,
    /// by the pool's address.
    static TILE_THREADS: Mutex<Vec<(usize, Vec<std::thread::ThreadId>)>> = Mutex::new(Vec::new());

    /// Notes the calling thread as one that claimed a tile on `crew`.
    pub(super) fn log_thread(crew: &Arc<Pool>) {
        let key = Arc::as_ptr(crew) as usize;
        let mut listening = TILE_THREADS.lock().unwrap();
        if let Some((_, seen)) = listening.iter_mut().find(|(k, _)| *k == key) {
            let me = std::thread::current().id();
            if !seen.contains(&me) {
                seen.push(me);
            }
        }
    }

    pub(super) fn log_tile(entry: impl FnOnce() -> TileLog) {
        TILE_LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push(entry());
            }
        });
    }

    /// Logs what `book` books for one tile of frame `f`.
    pub(super) fn log_booking(f: usize, book: impl FnOnce(&mut RenderStats)) {
        log_tile(|| {
            let mut one = RenderStats::default();
            book(&mut one);
            let flops = |bucket| one.flops.get(bucket);
            TileLog::Booked(
                f,
                [
                    one.points,
                    one.coarse_points,
                    one.feature_fetches,
                    flops("acquire"),
                    flops("mlp"),
                    flops("ray_module"),
                    flops("others"),
                ],
            )
        });
    }

    fn render(
        ds: &Dataset,
        sources: &[SourceViewData],
        model: &GenNerfModel,
        strategy: SamplingStrategy,
    ) -> (Image, RenderStats) {
        let bounds = ds.scene.bounds;
        let bg = ds.scene.background;
        let r = Renderer::new(model, sources, strategy, bounds, bg);
        r.render(&ds.eval_views[0].camera)
    }

    /// `cameras` through the multi-frame door into fresh buffers.
    fn render_frames(
        r: &Renderer,
        cameras: &[Camera],
        cached: &[Option<&CoarseFrame>],
    ) -> (Vec<Image>, Vec<RenderStats>, Vec<Option<CoarseFrame>>) {
        let mut images = vec![Image::new(0, 0); cameras.len()];
        let mut stats = vec![RenderStats::default(); cameras.len()];
        let exports = r
            .render_frames(cameras, cached, &mut images, &mut stats)
            .expect("integrity checking is off");
        (images, stats, exports)
    }

    #[test]
    fn uniform_render_produces_finite_image() {
        let (ds, sources, model) = setup();
        let (img, stats) = render(&ds, &sources, &model, SamplingStrategy::Uniform { n: 8 });
        assert!(img.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(stats.rays, (img.width() * img.height()) as u64);
        assert!(stats.points > 0);
        assert!(stats.flops.total() > 0);
    }

    #[test]
    fn hierarchical_counts_both_passes() {
        let (ds, sources, model) = setup();
        let (_, stats) = render(
            &ds,
            &sources,
            &model,
            SamplingStrategy::Hierarchical {
                n_coarse: 4,
                n_fine: 4,
            },
        );
        // Coarse + fine points both evaluated by the full model.
        let expected_min = stats.rays * 6; // misses may sample fewer
        assert!(
            stats.points >= expected_min,
            "points = {}, rays = {}",
            stats.points,
            stats.rays
        );
    }

    #[test]
    fn ctf_renders_and_is_sparse() {
        let (ds, sources, model) = setup();
        let (img, stats) = render(
            &ds,
            &sources,
            &model,
            SamplingStrategy::coarse_then_focus(8, 8),
        );
        assert!(img.as_slice().iter().all(|v| v.is_finite()));
        // Focused points stay within the budget (plus the min-1 slack).
        assert!(
            stats.points <= stats.rays * 8 + stats.rays,
            "points = {} rays = {}",
            stats.points,
            stats.rays
        );
        // Coarse pass points are accounted separately.
        assert!(stats.coarse_points > 0);
        // The coarse pass is cheap: its FLOPs bucket share stays small.
        assert!(stats.flops.get("mlp") > 0);
    }

    #[test]
    fn ctf_allocation_is_nonuniform() {
        // The focused budget is *redistributed*, not uniformly spread:
        // rays whose coarse pass finds nothing critical get zero
        // focused samples and render as exact background.
        let (ds, sources, model) = setup();
        let (img, stats) = render(
            &ds,
            &sources,
            &model,
            SamplingStrategy::coarse_then_focus(8, 8),
        );
        // Budget respected (± the minimum-one slack).
        assert!(stats.points <= stats.rays * 8 + stats.rays);
        // With an untrained coarse head the exact pixel set varies, but
        // the image must be valid either way.
        let bg = ds.scene.background;
        let exact_bg = (0..img.height())
            .flat_map(|y| (0..img.width()).map(move |x| (x, y)))
            .filter(|&(x, y)| (img.get(x, y) - bg).length() < 1e-6)
            .count();
        // Report-style sanity: some pixels may be exact background
        // (zero-allocation rays); the count is bounded by the frame.
        assert!(exact_bg <= img.pixel_count());
    }

    #[test]
    fn stats_mflops_positive_and_bucketized() {
        let (ds, sources, model) = setup();
        let (_, stats) = render(&ds, &sources, &model, SamplingStrategy::Uniform { n: 8 });
        assert!(stats.mflops_per_pixel() > 0.0);
        for bucket in ["acquire", "mlp", "ray_module", "others"] {
            assert!(stats.flops.get(bucket) > 0, "missing bucket {bucket}");
        }
    }

    #[test]
    fn rays_missing_bounds_get_background() {
        let (ds, sources, model) = setup();
        let (img, _) = render(&ds, &sources, &model, SamplingStrategy::Uniform { n: 4 });
        // Corner pixels look past the object; with an untrained model
        // they may not match gt, but rays that miss the bounds entirely
        // must be exactly background.
        let corner = img.get(0, 0);
        let bg = ds.scene.background;
        // The corner ray may still hit the bounds; just check validity.
        assert!(corner.x >= 0.0 && corner.x <= 1.0);
        let _ = bg;
    }

    #[test]
    fn trained_model_renders_better_than_untrained() {
        use crate::trainer::{TrainConfig, Trainer};
        let (ds, sources, mut model) = setup();
        let strategy = SamplingStrategy::Uniform { n: 12 };
        let (img_untrained, _) = render(&ds, &sources, &model, strategy);
        let mut trainer = Trainer::new(TrainConfig::fast());
        trainer.pretrain(&mut model, &[&ds]);
        let (img_trained, _) = render(&ds, &sources, &model, strategy);
        let gt = &ds.eval_views[0].image;
        let p_untrained = psnr(gt, &img_untrained);
        let p_trained = psnr(gt, &img_trained);
        assert!(
            p_trained > p_untrained,
            "training did not help: {p_untrained} -> {p_trained}"
        );
    }

    #[test]
    fn ray_batch_matches_pixel_grid() {
        let (ds, _, _) = setup();
        let cam = &ds.eval_views[0].camera;
        let batch = RayBatch::from_camera(cam, &ds.scene.bounds);
        assert_eq!(
            batch.len(),
            (cam.intrinsics.width * cam.intrinsics.height) as usize
        );
        // Row-major indexing: ray j corresponds to pixel (j % w, j / w).
        let j = (batch.width + 1) as usize; // pixel (1, 1)
        let expect = cam.pixel_center_ray(1, 1);
        assert_eq!(batch.rays[j].direction, expect.direction);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        // The determinism contract of the batch engine, on every
        // strategy (the cross-crate regression test covers the trained
        // path at larger scale).
        let (ds, sources, model) = setup();
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::Hierarchical {
                n_coarse: 4,
                n_fine: 4,
            },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let run = |threads: usize| {
                let r = Renderer::new(
                    &model,
                    &sources,
                    strategy,
                    ds.scene.bounds,
                    ds.scene.background,
                )
                .with_threads(threads);
                r.render(&ds.eval_views[0].camera)
            };
            let (img1, stats1) = run(1);
            let (img4, stats4) = run(4);
            assert_eq!(img1.as_slice(), img4.as_slice(), "{strategy:?}");
            assert_eq!(stats1.flops.total(), stats4.flops.total(), "{strategy:?}");
            assert_eq!(stats1.points, stats4.points, "{strategy:?}");
            assert_eq!(
                stats1.feature_fetches, stats4.feature_fetches,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn tiles_and_their_bookings_do_not_depend_on_the_thread_count() {
        let (ds, sources, model) = setup();
        let cam = ds.eval_views[0].camera;
        let logged = |threads: usize| {
            let r = Renderer::new(
                &model,
                &sources,
                SamplingStrategy::coarse_then_focus(16, 12),
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(threads);
            TILE_LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
            let (img, _) = r.render(&cam);
            let log = TILE_LOG.with(|log| log.borrow_mut().take());
            (img, log.expect("the test was listening"))
        };
        let (img1, log1) = logged(1);
        // Step ① and Step ③ each cut several tiles, or the frame would
        // prove nothing about how workers share them.
        let tiles: Vec<usize> = log1
            .iter()
            .filter_map(|entry| match entry {
                TileLog::Tiles(bounds) => Some(bounds.len() - 1),
                TileLog::Booked(..) => None,
            })
            .collect();
        assert_eq!(tiles.len(), 2, "{tiles:?}");
        assert!(tiles.iter().all(|&n| n >= 3), "{tiles:?}");
        for threads in [2, 3] {
            let (img, log) = logged(threads);
            assert_eq!(img.as_slice(), img1.as_slice(), "{threads} threads");
            assert_eq!(log, log1, "{threads} threads");
        }
    }

    /// Every counter of a [`RenderStats`]: the four counts, then every
    /// FLOPs bucket by name.
    fn stats_key(s: &RenderStats) -> (u64, u64, u64, u64, Vec<(String, u64)>) {
        let buckets = s.flops.iter().map(|(k, v)| (k.to_string(), v)).collect();
        (
            s.rays,
            s.points,
            s.coarse_points,
            s.feature_fetches,
            buckets,
        )
    }

    /// Holds the fused schedule against the per-ray reference on
    /// `camera`: the reference on one worker, then the fused render on
    /// one to four, every pixel bit for bit and every [`RenderStats`]
    /// counter and FLOPs bucket equal.
    fn assert_fused_matches_reference<'r>(
        renderer: impl Fn(usize) -> Renderer<'r>,
        camera: &Camera,
        what: &str,
    ) {
        let bits =
            |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        let (img_ref, stats_ref) = renderer(1).render_reference(camera);
        for threads in 1..=4 {
            let (img, stats) = renderer(threads).render(camera);
            assert_eq!(
                bits(&img),
                bits(&img_ref),
                "{what} at {threads} threads: pixels"
            );
            assert_eq!(
                stats_key(&stats),
                stats_key(&stats_ref),
                "{what} at {threads} threads: stats"
            );
        }
    }

    #[test]
    fn fused_schedule_matches_per_ray_reference() {
        // Every strategy, on a Ray-Mixer trained on the scene for the
        // 20×20 eval view and for a 50×37 frame — its 1850 rays divide
        // into neither the workers' ranges nor the tile budget, so every
        // worker ends on a short tile, and coarse-then-focus cuts its
        // focus tiles by the per-ray allocation, so they are ragged in
        // ray count too — and on an untrained ray transformer, whose
        // fused path batches the attention projections across a tile's
        // rays and runs only the softmax core per ray.
        use crate::config::RayModuleChoice;
        use crate::trainer::{TrainConfig, Trainer};
        use gen_nerf_geometry::Intrinsics;
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 6, 1, 24, 11);
        let sources = prepare_sources(&ds.source_views);
        let mut mixer = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig {
            steps: 80,
            ..TrainConfig::fast()
        });
        trainer.pretrain(&mut mixer, &[&ds]);
        let transformer =
            GenNerfModel::new(ModelConfig::fast().with_ray_module(RayModuleChoice::Transformer));
        let eval = ds.eval_views[0].camera;
        let ragged = Camera::new(Intrinsics::from_fov(50, 37, 0.6), eval.pose);
        let cases = [
            (&mixer, "trained mixer", eval),
            (&mixer, "trained mixer", ragged),
            (&transformer, "transformer", eval),
        ];
        for (model, name, camera) in cases {
            for strategy in [
                SamplingStrategy::Uniform { n: 10 },
                SamplingStrategy::Hierarchical {
                    n_coarse: 6,
                    n_fine: 6,
                },
                SamplingStrategy::coarse_then_focus(8, 8),
            ] {
                let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
                assert_fused_matches_reference(
                    |threads| {
                        Renderer::new(
                            model,
                            &sources,
                            strategy,
                            ds.scene.bounds,
                            ds.scene.background,
                        )
                        .with_threads(threads)
                    },
                    &camera,
                    &format!("{name}, {strategy:?}, {w}×{h}"),
                );
            }
        }
    }

    #[test]
    fn per_ray_streams_are_decorrelated() {
        // Neighbouring rays must not share a random stream.
        let (ds, sources, model) = setup();
        let r = Renderer::new(
            &model,
            &sources,
            SamplingStrategy::Uniform { n: 4 },
            ds.scene.bounds,
            ds.scene.background,
        );
        let mut a = r.ray_rng(0);
        let mut b = r.ray_rng(1);
        let same = (0..32)
            .filter(|_| (a.uniform(0.0, 1.0) - b.uniform(0.0, 1.0)).abs() < 1e-9)
            .count();
        assert!(same < 4, "streams look identical: {same}/32 draws equal");
    }

    #[test]
    fn render_into_matches_render_and_reuses_buffers() {
        // The multi-frame door renders into caller-owned buffers.
        let (ds, sources, model) = setup();
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let r = Renderer::new(
                &model,
                &sources,
                strategy,
                ds.scene.bounds,
                ds.scene.background,
            );
            let cam = ds.eval_views[0].camera;
            let (img, stats) = r.render(&cam);
            // A dirty, differently sized buffer must come out identical.
            let mut reused = [Image::from_fn(3, 7, |_, _| Vec3::ONE)];
            let mut rstats = [RenderStats::default()];
            r.render_frames(&[cam], &[None], &mut reused, &mut rstats)
                .expect("integrity checking is off");
            assert_eq!(img.as_slice(), reused[0].as_slice(), "{strategy:?}");
            assert_eq!(stats.points, rstats[0].points, "{strategy:?}");
            assert_eq!(stats.flops.total(), rstats[0].flops.total(), "{strategy:?}");
            // Rendering again into the same buffer stays stable.
            r.render_frames(&[cam], &[None], &mut reused, &mut rstats)
                .expect("integrity checking is off");
            assert_eq!(
                img.as_slice(),
                reused[0].as_slice(),
                "{strategy:?} second fill"
            );
        }
    }

    #[test]
    fn multi_frame_render_matches_solo_renders() {
        // The serving contract: co-scheduling frames in one fused
        // workload changes nothing about any frame's output.
        let (ds, sources, model) = setup();
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::Hierarchical {
                n_coarse: 4,
                n_fine: 4,
            },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let r = Renderer::new(
                &model,
                &sources,
                strategy,
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(2);
            let cameras: Vec<Camera> = ds.eval_views.iter().map(|v| v.camera).collect();
            let none = vec![None; cameras.len()];
            let (images, joint_stats, _) = render_frames(&r, &cameras, &none);
            for (cam, (img, stats)) in cameras.iter().zip(images.iter().zip(&joint_stats)) {
                let (solo_img, solo_stats) = r.render(cam);
                assert_eq!(solo_img.as_slice(), img.as_slice(), "{strategy:?}");
                assert_eq!(solo_stats.points, stats.points, "{strategy:?}");
                assert_eq!(
                    solo_stats.flops.total(),
                    stats.flops.total(),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn imported_coarse_from_same_pose_is_bitwise_stable() {
        // Importing the exported Step ① of the *same* pose must
        // reproduce the uncached render exactly, while skipping the
        // coarse probing work.
        let (ds, sources, model) = setup();
        let r = Renderer::new(
            &model,
            &sources,
            SamplingStrategy::coarse_then_focus(6, 6),
            ds.scene.bounds,
            ds.scene.background,
        );
        let cam = ds.eval_views[0].camera;
        let cameras = [cam];
        let (images, stats, exported) = render_frames(&r, &cameras, &[None]);
        let coarse = exported[0].as_ref().expect("fresh coarse exported");
        assert_eq!(coarse.n_rays(), images[0].pixel_count());
        // The budgeted figure is the heap the frame really holds: three
        // exactly-sized blocks, nothing per ray.
        let held = 4 * (coarse.weights.capacity() + coarse.offsets.capacity())
            + 4 * coarse.criticals.capacity();
        assert_eq!(coarse.approx_bytes(), held);
        assert_eq!(coarse.weights.capacity(), coarse.weights.len());
        assert_eq!(coarse.offsets.len(), coarse.n_rays() + 1);

        let (images2, stats2, exported2) = render_frames(&r, &cameras, &[Some(coarse)]);
        assert!(exported2[0].is_none(), "import must not re-export");
        assert_eq!(images[0].as_slice(), images2[0].as_slice());
        // The cached pass really skipped Step ①.
        assert_eq!(stats2[0].coarse_points, 0);
        assert!(stats[0].coarse_points > 0);
        assert!(stats2[0].flops.total() < stats[0].flops.total());
    }

    #[test]
    fn worker_scratch_is_bounded_by_the_tile_not_the_frame() {
        use gen_nerf_geometry::{Intrinsics, Pose};
        let (ds, sources, model) = setup();
        let pose = Pose::look_at(Vec3::new(3.4, 1.1, 0.9), Vec3::ZERO, Vec3::Y);
        // The benchmark's strategies at its sampling rates.
        for strategy in [
            SamplingStrategy::Uniform { n: 16 },
            SamplingStrategy::coarse_then_focus(16, 12),
        ] {
            let r = Renderer::new(
                &model,
                &sources,
                strategy,
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(1);
            // One thread renders inline, so this thread's scratch is
            // the worker's. A 9× larger frame walks 9× more tiles
            // through the same buffers.
            let retained = |side: u32| {
                r.render(&Camera::new(Intrinsics::from_fov(side, side, 0.6), pose));
                worker_scratch_retained_bytes()
            };
            let small = retained(32);
            let large = retained(96);
            if !matches!(strategy, SamplingStrategy::CoarseThenFocus { .. }) {
                // Every full tile is the same size: nothing grew.
                assert_eq!(small, large, "{strategy:?}");
            }
            assert!(large <= WORKER_SCRATCH_BYTES, "{strategy:?}: {large} B");
            // 425,808 B (uniform) and 443,536 B (coarse-then-focus)
            // measured at these four views: the 464,248 / 481,976 of
            // before the blend head read the arena's slot plane in
            // place, less its staging copy, plus the epilogue's flat
            // residual buffer. Anything per ray or per frame is a
            // multiple.
            assert!(large <= 500_000, "{strategy:?}: {large} B");
        }
    }

    #[test]
    fn a_ray_that_grazes_an_edge_of_the_bounds_is_a_miss() {
        use gen_nerf_geometry::{Intrinsics, Pose};
        // The centre ray of this camera runs along (1, 1, 0) from
        // (−2, 0, 0) and touches the box only on its edge x = −1,
        // y = 1: `intersect_ray` gives `Some((t, t))`, which used to
        // reach `uniform_depths` and panic the whole frame.
        let (_, sources, model) = setup();
        let bounds = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::ONE);
        let pose = Pose::look_at(
            Vec3::new(-2.0, 0.0, 0.0),
            Vec3::new(-1.0, 1.0, 0.0),
            Vec3::Z,
        );
        let cam = Camera::new(Intrinsics::from_fov(3, 3, 0.9), pose);
        let (t0, t1) = bounds
            .intersect_ray(&cam.pixel_center_ray(1, 1))
            .expect("the edge is in the bounds");
        assert_eq!(t0, t1, "the centre ray only touches the bounds");
        let batch = RayBatch::from_camera(&cam, &bounds);
        assert_eq!(batch.ranges[4], None);
        assert!(batch.ranges.iter().any(Option::is_some), "other rays cross");
        let background = Vec3::new(0.25, 0.5, 0.75);
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::Hierarchical {
                n_coarse: 4,
                n_fine: 4,
            },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let r = |threads| {
                Renderer::new(&model, &sources, strategy, bounds, background).with_threads(threads)
            };
            let (img, _) = r(1).render(&cam);
            assert_eq!(img.get(1, 1), background, "{strategy:?}");
            assert_fused_matches_reference(r, &cam, &format!("{strategy:?}"));
        }
    }

    #[test]
    fn a_tiles_blocks_run_on_from_ray_to_ray() {
        // Five points a ray: cut per ray, every block would hold five
        // lanes of eight (one block per ray). A tile is pushed as one
        // stream of points and flushed once, so it takes
        // ⌈points / 8⌉ blocks — at most one ragged block per tile.
        let (ds, sources, model) = setup();
        let r = Renderer::new(
            &model,
            &sources,
            SamplingStrategy::Uniform { n: 5 },
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(1);
        let before = crate::features::blocks_flushed();
        let (_, stats) = r.render(&ds.eval_views[0].camera);
        let blocks = crate::features::blocks_flushed() - before;
        if kernels::active_backend() != kernels::Backend::Avx2 {
            assert_eq!(blocks, 0, "the scalar route forms no blocks");
            return;
        }
        // A miss counts as one point towards the tile budget.
        let tiles = (5 * stats.rays).div_ceil(TILE_POINTS as u64 - 5);
        assert!(blocks >= stats.points.div_ceil(8));
        assert!(
            blocks <= stats.points / 8 + tiles,
            "{blocks} blocks for {} points in at most {tiles} tiles",
            stats.points
        );
        assert!(blocks < stats.points / 5, "no better than a block per ray");
    }

    /// Exports Step ① at CTF(8, 8) and imports it into a CTF(16, 8)
    /// renderer on `threads` workers.
    fn import_a_frame_probed_at_another_rate(threads: usize) {
        let (ds, sources, model) = setup();
        let renderer = |n_coarse| {
            Renderer::new(
                &model,
                &sources,
                SamplingStrategy::coarse_then_focus(n_coarse, 8),
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(threads)
        };
        let cameras = [ds.eval_views[0].camera];
        let (_, _, exported) = render_frames(&renderer(8), &cameras, &[None]);
        render_frames(&renderer(16), &cameras, &[exported[0].as_ref()]);
    }

    #[test]
    #[should_panic(
        expected = "imported coarse pass of frame 0 was probed at 8 samples a ray, \
                    this renderer probes 16"
    )]
    fn an_import_probed_at_another_rate_is_refused_at_the_door_on_one_thread() {
        import_a_frame_probed_at_another_rate(1);
    }

    #[test]
    #[should_panic(
        expected = "imported coarse pass of frame 0 was probed at 8 samples a ray, \
                    this renderer probes 16"
    )]
    fn an_import_probed_at_another_rate_is_refused_at_the_door_on_two_threads() {
        import_a_frame_probed_at_another_rate(2);
    }

    #[test]
    fn a_fired_token_drains_every_schedule() {
        // A token fired before the call: the one tile fill turns every
        // ray into a background ray, so nothing is aggregated, no model
        // runs, and the outputs keep their full shape.
        let (ds, sources, model) = setup();
        let cancel = CancelToken::new();
        cancel.cancel();
        let pool = Arc::new(Pool::new(2));
        let cameras: Vec<Camera> = ds.eval_views.iter().map(|v| v.camera).collect();
        let none = vec![None; cameras.len()];
        let bg = ds.scene.background;
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::Hierarchical {
                n_coarse: 4,
                n_fine: 4,
            },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let base = |threads: usize| {
                Renderer::new(&model, &sources, strategy, ds.scene.bounds, bg)
                    .with_threads(threads)
                    .with_cancel(&cancel)
            };
            for r in [base(1), base(2), base(2).with_pool(&pool)] {
                let (images, stats, exports) = render_frames(&r, &cameras, &none);
                for (f, cam) in cameras.iter().enumerate() {
                    let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
                    assert_eq!((images[f].width(), images[f].height()), (w, h));
                    let all_bg = (0..h).all(|y| (0..w).all(|x| images[f].get(x, y) == bg));
                    assert!(all_bg, "{strategy:?} frame {f}");
                    assert_eq!(stats[f].rays, (w * h) as u64, "{strategy:?}");
                    assert_eq!(stats[f].points, 0, "{strategy:?}");
                    assert_eq!(stats[f].coarse_points, 0, "{strategy:?}");
                    assert_eq!(stats[f].feature_fetches, 0, "{strategy:?}");
                    match (
                        &exports[f],
                        matches!(strategy, SamplingStrategy::CoarseThenFocus { .. }),
                    ) {
                        (Some(coarse), true) => {
                            assert_eq!(coarse.n_rays(), (w * h) as usize);
                            assert!(coarse.criticals.iter().all(|&c| c == 0));
                            assert!(coarse.integrity_ok());
                        }
                        (None, false) => {}
                        _ => panic!("{strategy:?}: unexpected export for frame {f}"),
                    }
                }
            }
        }
    }

    #[test]
    fn an_owned_crew_a_shared_pool_and_one_thread_render_alike() {
        let (ds, sources, model) = setup();
        let pool = Arc::new(Pool::new(2));
        let cam = ds.eval_views[0].camera;
        for strategy in [
            SamplingStrategy::Uniform { n: 6 },
            SamplingStrategy::coarse_then_focus(6, 6),
        ] {
            let base = || {
                Renderer::new(
                    &model,
                    &sources,
                    strategy,
                    ds.scene.bounds,
                    ds.scene.background,
                )
            };
            let bits = |r: Renderer| {
                let (img, stats) = r.render(&cam);
                let bits: Vec<u32> = img.as_slice().iter().map(|v| v.to_bits()).collect();
                (bits, stats.points, stats.feature_fetches)
            };
            let one = bits(base().with_threads(1));
            assert_eq!(bits(base().with_threads(2)), one, "{strategy:?}");
            assert_eq!(bits(base().with_pool(&pool)), one, "{strategy:?}");
        }
    }

    #[test]
    fn renderers_share_the_default_pool_until_given_one() {
        let (ds, sources, model) = setup();
        let new = || {
            Renderer::new(
                &model,
                &sources,
                SamplingStrategy::Uniform { n: 4 },
                ds.scene.bounds,
                ds.scene.background,
            )
        };
        let (a, b) = (new(), new());
        assert!(Arc::ptr_eq(&a.crew, &b.crew));
        let pool = Arc::new(Pool::new(2));
        assert!(Arc::ptr_eq(&new().with_pool(&pool).crew, &pool));
        assert!(!Arc::ptr_eq(&new().with_threads(2).crew, &a.crew));
    }

    #[test]
    fn a_renderer_claims_every_pass_on_one_crew() {
        let (ds, sources, model) = setup();
        let r = Renderer::new(
            &model,
            &sources,
            SamplingStrategy::coarse_then_focus(16, 12),
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(3);
        let key = Arc::as_ptr(&r.crew) as usize;
        TILE_THREADS.lock().unwrap().push((key, Vec::new()));
        // Two frames of two passes each, every pass several tiles: a
        // renderer that spawned threads per pass would show more than
        // its caller and two crew workers here.
        let cam = ds.eval_views[0].camera;
        r.render(&cam);
        r.render(&cam);
        let threads = {
            let mut listening = TILE_THREADS.lock().unwrap();
            let at = listening.iter().position(|(k, _)| *k == key).unwrap();
            listening.remove(at).1
        };
        assert!(
            (1..=3).contains(&threads.len()),
            "tiles ran on {} threads",
            threads.len()
        );
    }
}
