//! Per-point scene-feature acquisition and cross-view aggregation
//! (Steps 1–2 of Sec. 2.2).
//!
//! For every sampled 3D point the pipeline projects it onto each source
//! view, bilinearly fetches the `D`-channel feature vector, and builds
//! the aggregation statistics the point MLP consumes: per-channel mean
//! and variance across views, the mean view-direction similarity, and
//! the fraction of views that see the point. Cross-view *variance* is
//! the key density signal of IBRNet-style models: projections agree at
//! surfaces and disagree in free space.
//!
//! # Two layouts, one arithmetic
//!
//! Aggregates exist in two layouts with one arithmetic of record, the
//! per-point routine `fill_point`:
//!
//! * `PointAggregate` — the standalone AoS value (five heap `Vec`s per
//!   point), built by `aggregate_point`, which *is* `fill_point`. It
//!   exists in this crate's test builds only: the input of the per-ray
//!   reference schedule and what the unit tests hold the arena
//!   against.
//! * [`AggregateArena`] — the chunk-level SoA block the fused render
//!   schedule uses: one flat stats matrix with **one row per point**
//!   (laid out exactly as the point-MLP GEMM operand, so inference
//!   consumes it in place), flat per-(point, view) color/blend/valid
//!   planes, and per-ray offsets. All buffers — including the
//!   projection/fetch scratch — are reused across
//!   [`AggregateArena::reset`] cycles, so steady-state acquisition
//!   performs **zero heap allocations**.
//!
//! Both arena entry points ([`aggregate_ray_into`],
//! [`aggregate_points_into`]) fill it by whichever route the process's
//! kernel backend (`gen_nerf_nn::kernels::active_backend`) selects —
//! there is no other switch:
//!
//! * **Scalar** (`GEN_NERF_KERNEL=scalar`, a host without AVX2, a
//!   quarantined AVX2 backend, any non-x86 target): `fill_point` per
//!   point — projection, clip, footprint and fetch per (point, view)
//!   pair, then the statistics through the backend's
//!   `add_assign`/`sq_diff_add`.
//! * **AVX2**: the block kernel of the private `avx2` submodule —
//!   block-wide from the projection to the finished stats rows, the
//!   shape of the accelerator's preprocessing unit, whose projector,
//!   interpolator and aggregation stream a block of samples without a
//!   per-point control path. Points go eight at a time, one per lane,
//!   and a block is **not** cut at a ray's end: each lane carries its
//!   own viewing direction, so the tail of one ray shares a block with
//!   the head of the next and only the last block of a fill is ragged
//!   (`⌈points / 8⌉` blocks; the render pipeline pushes a whole tile
//!   through `AggregateArena::push_ray` and flushes once, the public
//!   entry points flush before they return). Step 1 takes the block
//!   against **one source view at a time** — the order in which the
//!   unit's projector and interpolator walk one view's epipolar line:
//!   one pass projects, clips, footprints and direction-weights all
//!   eight lanes, then gathers the four taps of every lane that sees
//!   the view eight channels per load. Step 2 keeps the **points in the
//!   lanes**: each view's eight fetched rows are transposed in
//!   registers, mean, variance and per-view deviation are vertical,
//!   branch-free masked adds in view and channel order, and the
//!   finished columns are transposed back and stored a row segment at a
//!   time. The block scratch is sized at `reset` from the arena's view
//!   count and channel width, so neither has a cap. A source whose
//!   image and feature map differ in size (or whose map is not the
//!   plain dense buffer the kernel indexes) is handed, whole, to the
//!   per-pair scalar routine inside the same block.
//!
//! The two routes produce **the same bits**. Acquisition has no
//! reductions whose order a vector unit would change and nothing an
//! FMA could contract: every output is a fixed chain of IEEE-754
//! `+ − × ÷ √ floor`, each correctly rounded per lane exactly as its
//! scalar form, and the kernel keeps the chains' order (`Vec3::dot` is
//! `0 + x·x′ + y·y′ + z·z′` left to right, a bilinear fetch is
//! `0 + t₀w₀ + t₁w₁ + t₂w₂ + t₃w₃`, cross-view sums run in view order,
//! the deviation's in channel order) and turns the scalar code's early
//! exits into lane masks — for the cross-view sums, a term `and`-ed to
//! `+0.0`, which an accumulator that started at `+0.0` absorbs without
//! a trace (the `avx2` module docs give the argument). So
//! acquisition, unlike the GEMMs, is backend-independent — pinned per
//! point against `aggregate_point`, over both entry points and the
//! open-tile path, by the property test below on whichever backend is
//! active, and backend against backend by
//! `tests/kernel_backend_regression.rs`.

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2;

use crate::encoder::{FeatureEncoder, FeatureMap};
use gen_nerf_geometry::{Camera, Ray, Vec3};
use gen_nerf_nn::kernels;
use gen_nerf_nn::Tensor2;
use gen_nerf_scene::{Image, View};
use std::ops::Range;

/// A source view prepared for rendering: camera, image (for color
/// blending) and its encoded feature map.
#[derive(Debug, Clone)]
pub struct SourceViewData {
    /// Source camera.
    pub camera: Camera,
    /// Source image (colors are blended from these).
    pub image: Image,
    /// Encoded features.
    pub(crate) features: FeatureMap,
}

/// Encodes a set of posed views into render-ready sources (the
/// one-time per-scene cost of Step 0).
pub fn prepare_sources(views: &[View]) -> Vec<SourceViewData> {
    let encoder = FeatureEncoder::new();
    views
        .iter()
        .map(|v| SourceViewData {
            camera: v.camera,
            image: v.image.clone(),
            features: encoder.encode(&v.image),
        })
        .collect()
}

/// Aggregated observation of one sampled 3D point, standalone: the
/// per-ray reference's input (test builds only).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PointAggregate {
    /// Point-MLP input: `[mean(D), var(D), mean_dir_sim, valid_frac]`.
    pub(crate) stats: Vec<f32>,
    /// Source colors at the projections (zero where invalid).
    pub(crate) view_colors: Vec<Vec3>,
    /// Per-view blend-head inputs `[dir_sim, feature_deviation]`.
    pub(crate) blend_inputs: Vec<[f32; 2]>,
    /// Which views see the point.
    pub(crate) valid: Vec<bool>,
    /// Number of valid views.
    pub(crate) n_valid: usize,
}

/// Stats width for `d` feature channels: `[mean(D), var(D),
/// mean_dir_sim, valid_frac]`.
fn stats_dim(d: usize) -> usize {
    2 * d + 2
}

/// Validates that every source view's feature map carries at least
/// `d_channels` channels — the satellite fix for the silent shape
/// mismatch: a short map used to zero-pad the trailing mean/variance
/// stats per point; now the mismatch fails loudly, once, at
/// renderer/trainer construction.
///
/// # Panics
///
/// Panics naming the offending source view when a map is too narrow.
pub(crate) fn assert_channels(sources: &[SourceViewData], d_channels: usize, context: &str) {
    for (i, src) in sources.iter().enumerate() {
        assert!(
            src.features.channels() >= d_channels,
            "{context}: source view {i} encodes {} feature channels but \
             {d_channels} are requested — trailing aggregation stats \
             would be silently dead",
            src.features.channels(),
        );
    }
}

/// Step 1 for one (point, view) pair: projects `p` onto `src` and,
/// when the view sees it, bilinearly fetches the leading `feats.len()`
/// feature channels into `feats` and returns the source colour and the
/// direction similarity. `None` (nothing written) when `p` is behind
/// the camera or outside the image.
fn acquire_pair(
    p: Vec3,
    ray_dir: Vec3,
    src: &SourceViewData,
    feats: &mut [f32],
) -> Option<(Vec3, f32)> {
    let uv = src.camera.project(p)?;
    if !src.camera.intrinsics.contains(uv) {
        return None;
    }
    // One footprint serves both fetches: the encoder keeps the
    // image's dimensions, so the taps and weights are the same.
    let fp = src.features.footprint(uv);
    src.features.sample_footprint_into(&fp, feats);
    let color = if (src.image.width(), src.image.height())
        == (src.features.width(), src.features.height())
    {
        src.image.sample_footprint(&fp)
    } else {
        src.image.sample(uv)
    };
    let to_point = (p - src.camera.center())
        .try_normalized()
        .unwrap_or(ray_dir);
    Some((color, ray_dir.dot(to_point)))
}

/// The per-point aggregation routine — the arithmetic of record: exact
/// seed arithmetic (per-view accumulation in view order, one division
/// pass per statistic), written into caller-provided SoA rows.
/// `aggregate_point` is this routine, and so is the arena on the
/// scalar backend; the AVX2 block kernel must reproduce its bits.
///
/// `stats`/`view_colors`/`blend_inputs`/`valid` must arrive zeroed;
/// `feats` (`s × d`) and `dir_sims` (`s`) are fetch scratch whose stale
/// contents are never read (writes are gated on `valid`). Returns the
/// number of views that see the point.
#[allow(clippy::too_many_arguments)] // the SoA destination, spelled out
fn fill_point(
    p: Vec3,
    ray_dir: Vec3,
    sources: &[SourceViewData],
    d: usize,
    stats: &mut [f32],
    view_colors: &mut [Vec3],
    blend_inputs: &mut [[f32; 2]],
    valid: &mut [bool],
    feats: &mut [f32],
    dir_sims: &mut [f32],
) -> usize {
    let s = sources.len();
    debug_assert_eq!(stats.len(), stats_dim(d));
    debug_assert!(feats.len() >= s * d && dir_sims.len() >= s);
    let kern = kernels::active();
    let mut n_valid = 0usize;

    for (i, src) in sources.iter().enumerate() {
        let Some((color, sim)) = acquire_pair(p, ray_dir, src, &mut feats[i * d..(i + 1) * d])
        else {
            continue;
        };
        view_colors[i] = color;
        dir_sims[i] = sim;
        valid[i] = true;
        n_valid += 1;
    }
    if n_valid == 0 {
        return 0;
    }

    // Mean then variance, each accumulated per valid view in view
    // order through the kernel backend (exact elementwise ops — every
    // backend agrees bitwise; see `gen_nerf_nn::kernels`).
    {
        let (mean, rest) = stats.split_at_mut(d);
        let var = &mut rest[..d];
        for i in 0..s {
            if valid[i] {
                kern.add_assign(mean, &feats[i * d..(i + 1) * d]);
            }
        }
        for v in mean.iter_mut() {
            *v /= n_valid as f32;
        }
        for i in 0..s {
            if valid[i] {
                kern.sq_diff_add(var, &feats[i * d..(i + 1) * d], mean);
            }
        }
        for v in var.iter_mut() {
            *v /= n_valid as f32;
        }
    }
    // Mean direction similarity + valid fraction.
    let mean_sim: f32 = dir_sims[..s]
        .iter()
        .zip(valid.iter())
        .filter(|(_, &ok)| ok)
        .map(|(&sim, _)| sim)
        .sum::<f32>()
        / n_valid as f32;
    stats[2 * d] = mean_sim;
    stats[2 * d + 1] = n_valid as f32 / s as f32;

    // Per-view deviation from the mean feature (sequential fold — kept
    // scalar so the sum order matches the seed arithmetic exactly).
    for i in 0..s {
        if valid[i] {
            let dev: f32 = feats[i * d..(i + 1) * d]
                .iter()
                .zip(&stats[..d])
                .map(|(&v, &m)| (v - m) * (v - m))
                .sum::<f32>()
                .sqrt()
                / (d as f32).sqrt();
            blend_inputs[i] = [dir_sims[i], dev];
        }
    }
    n_valid
}

/// Projects `p` onto every source view and aggregates features into a
/// standalone [`PointAggregate`].
///
/// `d_channels` selects the leading channels of the feature maps
/// (channel-scaled coarse stage uses fewer) and must not exceed any
/// source's channel count (validated up front by `assert_channels`;
/// the per-point sample asserts too). `ray_dir` is the novel ray's
/// unit direction (for direction-similarity weighting).
///
/// The reference the arena is held against (it allocates the
/// per-point buffers; test builds only): every fill goes into an
/// [`AggregateArena`] via [`aggregate_ray_into`] /
/// [`aggregate_points_into`] — the same bits, by this routine or by
/// the block kernel.
#[cfg(test)]
pub(crate) fn aggregate_point(
    p: Vec3,
    ray_dir: Vec3,
    sources: &[SourceViewData],
    d_channels: usize,
) -> PointAggregate {
    let s = sources.len();
    let mut stats = vec![0.0f32; stats_dim(d_channels)];
    let mut view_colors = vec![Vec3::ZERO; s];
    let mut blend_inputs = vec![[0.0f32; 2]; s];
    let mut valid = vec![false; s];
    let mut feats = vec![0.0f32; s * d_channels];
    let mut dir_sims = vec![0.0f32; s];
    let n_valid = fill_point(
        p,
        ray_dir,
        sources,
        d_channels,
        &mut stats,
        &mut view_colors,
        &mut blend_inputs,
        &mut valid,
        &mut feats,
        &mut dir_sims,
    );
    PointAggregate {
        stats,
        view_colors,
        blend_inputs,
        valid,
        n_valid,
    }
}

#[cfg(test)]
thread_local! {
    /// Blocks the calling thread has put through the AVX2 kernel.
    static BLOCKS_FLUSHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Blocks the calling thread has put through the AVX2 kernel so far
/// (none on the scalar route) — what the block-packing tests count.
#[cfg(test)]
pub(crate) fn blocks_flushed() -> u64 {
    BLOCKS_FLUSHED.with(|c| c.get())
}

/// A chunk-level SoA block of aggregated points — the zero-allocation
/// acquisition layout of the fused render schedule.
///
/// One arena per worker is reset per chunk ([`AggregateArena::reset`]
/// reshapes, never frees), filled ray by ray
/// ([`aggregate_points_into`]), and handed to
/// `GenNerfModel::forward_rays_arena`, which uses [`AggregateArena::stats`]
/// **directly** as the point-MLP GEMM input: the stats matrix has one
/// row per point in ray-major order, which is exactly the operand
/// layout the fused GEMM wants — nothing is copied between acquisition
/// and the first layer.
#[derive(Debug, Clone)]
pub struct AggregateArena {
    /// Channels aggregated per view.
    d: usize,
    /// Source views per point (width of the per-view planes).
    n_views: usize,
    /// `n_points × (2d + 2)` stats matrix — the GEMM operand.
    stats: Tensor2,
    /// Per-(point, view) source colors, point-major.
    view_colors: Vec<Vec3>,
    /// Per-(point, view) blend-head inputs, point-major.
    blend_inputs: Vec<[f32; 2]>,
    /// Per-(point, view) visibility plane, point-major.
    valid: Vec<bool>,
    /// Per-point valid-view counts.
    n_valid: Vec<usize>,
    /// `ray_offsets[r]..ray_offsets[r + 1]` is ray `r`'s point range.
    ray_offsets: Vec<usize>,
    /// Projection/fetch scratch: per-view features of the point (or,
    /// under the block kernel, of each of the block's points) in
    /// flight.
    feats: Vec<f32>,
    /// Projection scratch: the matching per-view similarities.
    dir_sims: Vec<f32>,
    /// Block-kernel scratch: per view, the lanes of the block in
    /// flight that see it.
    seen: Vec<u32>,
    /// Block-kernel scratch: the block's fetches with the points in
    /// the lanes, and the reduce's accumulators and finished columns.
    tile: Vec<f32>,
    /// The block in flight: the points pushed since the last full
    /// block, not yet acquired. Their rows of the planes above exist
    /// (zeroed) from the moment they are pushed; [`AggregateArena::flush`]
    /// fills them. Empty whenever a public entry point has returned.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    block: avx2::PointBlock,
}

impl Default for AggregateArena {
    /// An empty arena for zero views at zero channels — every field
    /// upholds the `ray_offsets = [0, ...]` sentinel invariant
    /// [`AggregateArena::reset`] establishes, so accessors are safe on
    /// a never-reset arena.
    fn default() -> Self {
        Self {
            d: 0,
            n_views: 0,
            stats: Tensor2::default(),
            view_colors: Vec::new(),
            blend_inputs: Vec::new(),
            valid: Vec::new(),
            n_valid: Vec::new(),
            ray_offsets: vec![0],
            feats: Vec::new(),
            dir_sims: Vec::new(),
            seen: Vec::new(),
            tile: Vec::new(),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            block: avx2::PointBlock::new(),
        }
    }
}

impl AggregateArena {
    /// Clears the arena for a new chunk aggregated against `n_views`
    /// sources at `d_channels` channels. Buffers are reshaped in
    /// place; once grown, no reset allocates.
    pub fn reset(&mut self, n_views: usize, d_channels: usize) {
        self.d = d_channels;
        self.n_views = n_views;
        self.stats.reset_rows(stats_dim(d_channels));
        self.view_colors.clear();
        self.blend_inputs.clear();
        self.valid.clear();
        self.n_valid.clear();
        self.ray_offsets.clear();
        self.ray_offsets.push(0);
        // Fetch scratch for one block of points (feature rows padded
        // to whole vectors) and the block kernel's tile beside it, for
        // whatever view count and channel width were asked for; the
        // per-point route uses the head of the fetch scratch.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let (points, row, tile) = (
            avx2::LANES,
            avx2::padded(d_channels),
            avx2::reduce_scratch_len(n_views, d_channels),
        );
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            self.block.n = 0;
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let (points, row, tile) = (1, d_channels, 0);
        self.feats.clear();
        self.feats.resize(points * n_views * row, 0.0);
        self.dir_sims.clear();
        self.dir_sims.resize(points * n_views, 0.0);
        self.seen.clear();
        self.seen.resize(n_views, 0);
        self.tile.clear();
        self.tile.resize(tile, 0.0);
    }

    /// Bytes of heap the arena's buffers retain (capacities, not the
    /// current fill) — the acquisition share of a render worker's
    /// scratch.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stats.capacity_bytes()
            + self.view_colors.capacity() * size_of::<Vec3>()
            + self.blend_inputs.capacity() * size_of::<[f32; 2]>()
            + self.valid.capacity() * size_of::<bool>()
            + (self.n_valid.capacity() + self.ray_offsets.capacity()) * size_of::<usize>()
            + (self.feats.capacity() + self.dir_sims.capacity() + self.tile.capacity())
                * size_of::<f32>()
            + self.seen.capacity() * size_of::<u32>()
    }

    /// Channels aggregated per view.
    pub fn d_channels(&self) -> usize {
        self.d
    }

    /// Source views per point.
    pub fn n_views(&self) -> usize {
        self.n_views
    }

    /// Sealed rays in the arena.
    pub fn n_rays(&self) -> usize {
        // The leading-0 sentinel is a construction invariant (Default
        // and reset both establish it); saturate anyway so a corrupted
        // arena can never wrap.
        self.ray_offsets.len().saturating_sub(1)
    }

    /// Total points across all rays.
    pub fn total_points(&self) -> usize {
        self.n_valid.len()
    }

    /// Valid (point, view) pairs of ray `r` — what its FLOP and fetch
    /// accounting is linear in.
    pub(crate) fn ray_valid_pairs(&self, r: usize) -> usize {
        self.n_valid[self.ray_range(r)].iter().sum()
    }

    /// The point range of ray `r`.
    pub(crate) fn ray_range(&self, r: usize) -> Range<usize> {
        self.ray_offsets[r]..self.ray_offsets[r + 1]
    }

    /// Every ray's point range as one offset table:
    /// `ray_offsets()[r]..ray_offsets()[r + 1]` is
    /// `AggregateArena::ray_range(r)` (`n_rays() + 1` entries,
    /// ascending from 0) — the form the stacked kernels take a tile's
    /// rays in.
    pub fn ray_offsets(&self) -> &[usize] {
        &self.ray_offsets
    }

    /// The stats matrix (`total_points × (2d + 2)`, ray-major) — fed
    /// to the point MLP in place.
    pub fn stats(&self) -> &Tensor2 {
        &self.stats
    }

    /// Point `k`'s stats row (`[mean(D), var(D), dir_sim, frac]`).
    pub fn stats_row(&self, k: usize) -> &[f32] {
        self.stats.row(k)
    }

    /// Number of views that see point `k`.
    pub fn n_valid(&self, k: usize) -> usize {
        self.n_valid[k]
    }

    /// Point `k`'s per-view visibility plane.
    pub(crate) fn valid_row(&self, k: usize) -> &[bool] {
        &self.valid[k * self.n_views..(k + 1) * self.n_views]
    }

    /// Point `k`'s per-view source colors (zero where invalid).
    pub(crate) fn view_colors_row(&self, k: usize) -> &[Vec3] {
        &self.view_colors[k * self.n_views..(k + 1) * self.n_views]
    }

    /// Point `k`'s per-view blend-head inputs.
    pub(crate) fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]] {
        &self.blend_inputs[k * self.n_views..(k + 1) * self.n_views]
    }

    /// Every point's [`AggregateArena::blend_inputs_row`] back to back:
    /// the whole `total_points × n_views` plane, point-major — the
    /// blend head's operand, read in place.
    pub(crate) fn blend_inputs(&self) -> &[[f32; 2]] {
        &self.blend_inputs
    }

    /// A borrowed view of ray `r`'s points.
    pub(crate) fn ray_view(&self, r: usize) -> ArenaRayView<'_> {
        let range = self.ray_range(r);
        ArenaRayView { arena: self, range }
    }

    /// Seals the current ray (possibly empty — a background ray). Every
    /// point pushed since the previous seal belongs to it.
    fn seal_ray(&mut self) {
        self.ray_offsets.push(self.total_points());
    }

    /// Appends `n` points' rows to every plane, zeroed, and returns the
    /// first one's index — one resize per plane per ray.
    fn grow(&mut self, n: usize) -> usize {
        let first = self.n_valid.len();
        let end = (first + n) * self.n_views;
        self.view_colors.resize(end, Vec3::ZERO);
        self.blend_inputs.resize(end, [0.0f32; 2]);
        self.valid.resize(end, false);
        self.n_valid.resize(first + n, 0);
        self.stats.push_rows_zeroed(n);
        first
    }

    /// Fills point `k`'s (zeroed) rows from `sources` through
    /// [`fill_point`] (shared arithmetic with `aggregate_point`).
    fn fill_row(&mut self, k: usize, p: Vec3, ray_dir: Vec3, sources: &[SourceViewData]) {
        let views = k * self.n_views..(k + 1) * self.n_views;
        let n_valid = fill_point(
            p,
            ray_dir,
            sources,
            self.d,
            self.stats.row_mut(k),
            &mut self.view_colors[views.clone()],
            &mut self.blend_inputs[views.clone()],
            &mut self.valid[views],
            &mut self.feats,
            &mut self.dir_sims,
        );
        self.n_valid[k] = n_valid;
    }

    /// Appends `n` points, point `k` being `point_of(k)` as (position,
    /// viewing direction): into blocks of eight for the AVX2 kernel
    /// when that is the active backend, one by one through
    /// [`fill_point`] otherwise (the scalar backend — chosen, detected
    /// or fallen back to after a quarantine — and every other
    /// architecture). Same bits either way.
    ///
    /// Under AVX2 a block is acquired the moment its eighth lane fills,
    /// whichever call filled it, so up to seven points may be left in
    /// flight: their rows stay zero until [`AggregateArena::flush`].
    fn push_points(
        &mut self,
        n: usize,
        point_of: impl Fn(usize) -> (Vec3, Vec3),
        sources: &[SourceViewData],
    ) {
        assert_eq!(sources.len(), self.n_views, "one source per arena view");
        let first = self.grow(n);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if kernels::active_backend() == kernels::Backend::Avx2 {
            for k in 0..n {
                if self.block.n == 0 {
                    self.block.first = first + k;
                }
                let (p, dir) = point_of(k);
                self.block.push(p, dir);
                if self.block.n == avx2::LANES {
                    self.flush(sources);
                }
            }
            return;
        }
        for k in 0..n {
            let (p, dir) = point_of(k);
            self.fill_row(first + k, p, dir, sources);
        }
    }

    /// Acquires the block in flight, if any: every point pushed so far
    /// has its rows filled when this returns. Both public entry points
    /// end with it; the render pipeline pushes a whole tile's rays
    /// ([`AggregateArena::push_ray`]) and flushes once, so a ray's
    /// ragged tail shares a block with the next ray's head.
    pub(crate) fn flush(&mut self, sources: &[SourceViewData]) {
        debug_assert_eq!(sources.len(), self.n_views);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if self.block.n != 0 {
            // SAFETY: lanes are only ever pushed while the AVX2 backend
            // is active, and `kernels` installs it only after detecting
            // avx2 on this CPU.
            unsafe { self.flush_block(sources) };
        }
    }

    /// Acquires the block in flight through the AVX2 kernel: Step 1 one
    /// source view at a time across the block's lanes, then Step 2 for
    /// all of them at once.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn flush_block(&mut self, sources: &[SourceViewData]) {
        #[cfg(test)]
        BLOCKS_FLUSHED.with(|c| c.set(c.get() + 1));
        let (s, d) = (self.n_views, self.d);
        let points = self.block.first..self.block.first + self.block.n;
        let views = points.start * s..points.end * s;
        let mut planes = avx2::BlockPlanes {
            d,
            n_views: s,
            feats: &mut self.feats,
            dir_sims: &mut self.dir_sims,
            seen: &mut self.seen,
            view_colors: &mut self.view_colors[views.clone()],
            valid: &mut self.valid[views.clone()],
        };
        let row = avx2::padded(d);
        for (i, src) in sources.iter().enumerate() {
            if avx2::takes(src, d) {
                avx2::acquire_view(&self.block, src, i, &mut planes);
                continue;
            }
            planes.seen[i] = 0;
            for l in 0..self.block.n {
                let (p, dir) = self.block.lane(l);
                let at = (i * avx2::LANES + l) * row;
                let feats = &mut planes.feats[at..at + d];
                if let Some((color, sim)) = acquire_pair(p, dir, src, feats) {
                    planes.view_colors[l * s + i] = color;
                    planes.valid[l * s + i] = true;
                    planes.dir_sims[i * avx2::LANES + l] = sim;
                    planes.seen[i] |= 1 << l;
                }
            }
        }
        let width = self.stats.cols();
        avx2::reduce_block(
            d,
            self.block.n,
            &self.feats,
            &self.dir_sims,
            &self.seen,
            &mut self.tile,
            &mut self.stats.as_mut_slice()[points.start * width..points.end * width],
            &mut self.blend_inputs[views],
            &mut self.n_valid[points],
        );
        self.block.n = 0;
    }

    /// Appends one camera ray's depth samples as one sealed ray —
    /// [`aggregate_ray_into`] without the flush: up to seven of the
    /// points pushed so far may still be in flight when this returns.
    /// The caller owes an [`AggregateArena::flush`] before anything
    /// reads the arena.
    pub(crate) fn push_ray(&mut self, ray: &Ray, depths: &[f32], sources: &[SourceViewData]) {
        self.push_points(
            depths.len(),
            |k| (ray.at(depths[k]), ray.direction),
            sources,
        );
        self.seal_ray();
    }

    /// Exports point `k` as a standalone [`PointAggregate`] (what tests
    /// hold against [`aggregate_point`]; allocates).
    #[cfg(test)]
    pub(crate) fn export(&self, k: usize) -> PointAggregate {
        let s = self.n_views;
        PointAggregate {
            stats: self.stats.row(k).to_vec(),
            view_colors: self.view_colors[k * s..(k + 1) * s].to_vec(),
            blend_inputs: self.blend_inputs[k * s..(k + 1) * s].to_vec(),
            valid: self.valid[k * s..(k + 1) * s].to_vec(),
            n_valid: self.n_valid[k],
        }
    }
}

/// A borrowed view of one ray's points inside an [`AggregateArena`]:
/// the arena's per-point accessors with `k` counted from the ray's
/// first point.
#[derive(Debug, Clone)]
pub(crate) struct ArenaRayView<'a> {
    arena: &'a AggregateArena,
    range: Range<usize>,
}

impl ArenaRayView<'_> {
    /// Points in the ray.
    pub(crate) fn n_points(&self) -> usize {
        self.range.len()
    }

    /// Point `k`'s stats row.
    pub(crate) fn stats_row(&self, k: usize) -> &[f32] {
        self.arena.stats_row(self.range.start + k)
    }

    /// Number of views that see point `k`.
    pub(crate) fn n_valid(&self, k: usize) -> usize {
        self.arena.n_valid(self.range.start + k)
    }

    /// Point `k`'s per-view visibility plane.
    pub(crate) fn valid_row(&self, k: usize) -> &[bool] {
        self.arena.valid_row(self.range.start + k)
    }

    /// Point `k`'s per-view source colors (zero where invalid).
    pub(crate) fn view_colors_row(&self, k: usize) -> &[Vec3] {
        self.arena.view_colors_row(self.range.start + k)
    }

    /// Point `k`'s per-view blend-head inputs.
    pub(crate) fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]] {
        self.arena.blend_inputs_row(self.range.start + k)
    }
}

/// Aggregates a batch of points as **one ray** appended to `arena`:
/// `points[i]` is observed along direction `ray_dirs[i]` against every
/// source view, and the ray is sealed at the end (an empty batch seals
/// an empty ray — a background ray keeps its slot).
///
/// Bitwise-identical to the per-point routine on every kernel backend
/// (the module docs say why; the arena property test pins it), with
/// zero steady-state heap allocations.
///
/// # Panics
///
/// Panics when slice lengths disagree, when `arena` was reset for a
/// different view count or channel width, or when a source's feature
/// map has fewer than `d_channels` channels.
pub fn aggregate_points_into(
    points: &[Vec3],
    ray_dirs: &[Vec3],
    sources: &[SourceViewData],
    d_channels: usize,
    arena: &mut AggregateArena,
) {
    assert_eq!(points.len(), ray_dirs.len(), "one direction per point");
    assert_arena_shape(arena, sources, d_channels);
    arena.push_points(points.len(), |k| (points[k], ray_dirs[k]), sources);
    arena.flush(sources);
    arena.seal_ray();
}

/// The fill-time shape check shared by both arena entry points.
fn assert_arena_shape(arena: &AggregateArena, sources: &[SourceViewData], d_channels: usize) {
    assert_eq!(
        arena.n_views,
        sources.len(),
        "arena was reset for {} views, got {} sources",
        arena.n_views,
        sources.len()
    );
    assert_eq!(
        arena.d, d_channels,
        "arena was reset for {} channels, got {d_channels}",
        arena.d
    );
}

/// Aggregates one camera ray's depth samples as one sealed arena ray:
/// point `i` is `ray.at(depths[i])`, observed along `ray.direction`.
/// The staging-free sibling of [`aggregate_points_into`] — no
/// point/direction buffers exist at all — shared by the render
/// pipeline's fused schedule and the trainer's step acquisition, so
/// the depths→points staging contract lives in exactly one place.
///
/// # Panics
///
/// As [`aggregate_points_into`].
pub fn aggregate_ray_into(
    ray: &Ray,
    depths: &[f32],
    sources: &[SourceViewData],
    d_channels: usize,
    arena: &mut AggregateArena,
) {
    assert_arena_shape(arena, sources, d_channels);
    arena.push_ray(ray, depths, sources);
    arena.flush(sources);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_nerf_scene::datasets::{Dataset, DatasetKind};

    fn tiny_dataset() -> Dataset {
        Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, 24, 3)
    }

    #[test]
    fn prepare_sources_encodes_all() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        assert_eq!(sources.len(), 4);
        for s in &sources {
            assert_eq!(s.features.width(), s.image.width());
        }
    }

    #[test]
    fn point_inside_scene_visible_from_sources() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let agg = aggregate_point(
            gen_nerf_geometry::Vec3::ZERO,
            gen_nerf_geometry::Vec3::Z,
            &sources,
            12,
        );
        assert!(agg.n_valid >= 3, "valid = {}", agg.n_valid);
        assert_eq!(agg.stats.len(), 26);
        // Valid fraction recorded.
        assert!(agg.stats[25] > 0.7);
    }

    #[test]
    fn point_far_outside_has_no_valid_views() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let agg = aggregate_point(
            gen_nerf_geometry::Vec3::new(500.0, 0.0, 0.0),
            gen_nerf_geometry::Vec3::X,
            &sources,
            12,
        );
        assert_eq!(agg.n_valid, 0);
        assert!(agg.stats.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn surface_points_have_lower_variance_than_free_space() {
        // The core IBRNet signal: cross-view variance is lower on the
        // surface than in free space near the camera.
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let d = 12;
        // The cube's surface (cube half-extent 0.8).
        let surface = aggregate_point(
            gen_nerf_geometry::Vec3::new(0.0, 0.0, 0.8),
            -gen_nerf_geometry::Vec3::Z,
            &sources,
            d,
        );
        // Free-space probes near the object: their projections fall on
        // different content (object silhouette vs background) across
        // views. Against a *uniform* background a probe can still see
        // agreement, so take the most disagreeing of several probes.
        let var_sum = |a: &PointAggregate| -> f32 { a.stats[d..2 * d].iter().sum() };
        let free_var = [
            gen_nerf_geometry::Vec3::new(0.9, 0.3, 1.1),
            gen_nerf_geometry::Vec3::new(-0.9, 0.5, 1.2),
            gen_nerf_geometry::Vec3::new(0.5, 1.0, -1.2),
            gen_nerf_geometry::Vec3::new(1.1, -0.4, 0.9),
        ]
        .iter()
        .map(|&p| {
            var_sum(&aggregate_point(
                p,
                -gen_nerf_geometry::Vec3::Z,
                &sources,
                d,
            ))
        })
        .fold(0.0f32, f32::max);
        assert!(
            var_sum(&surface) < free_var,
            "surface var {} vs max free var {}",
            var_sum(&surface),
            free_var
        );
    }

    #[test]
    fn coarse_channels_shrink_stats() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let agg = aggregate_point(
            gen_nerf_geometry::Vec3::ZERO,
            gen_nerf_geometry::Vec3::Z,
            &sources,
            3,
        );
        assert_eq!(agg.stats.len(), 8);
    }

    #[test]
    fn fetch_count_is_4_per_valid_view() {
        // The renderer books its texel fetches itself: four bilinear
        // taps for every (point, view) pair the reference sees.
        use crate::config::{ModelConfig, SamplingStrategy};
        use crate::pipeline::{RayBatch, Renderer};
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let model = crate::model::GenNerfModel::new(ModelConfig::fast());
        let (n, bounds) = (4, ds.scene.bounds);
        let strategy = SamplingStrategy::Uniform { n };
        let renderer = Renderer::new(&model, &sources, strategy, bounds, ds.scene.background);
        let camera = &ds.eval_views[0].camera;
        let (_, stats) = renderer.render(camera);
        let batch = RayBatch::from_camera(camera, &bounds);
        let mut valid_pairs = 0u64;
        for (ray, range) in batch.rays.iter().zip(&batch.ranges) {
            let Some((t0, t1)) = *range else { continue };
            for t in Ray::uniform_depths(t0, t1, n) {
                valid_pairs +=
                    aggregate_point(ray.at(t), ray.direction, &sources, 12).n_valid as u64;
            }
        }
        assert!(valid_pairs > 0);
        assert_eq!(stats.feature_fetches, 4 * valid_pairs);
    }

    /// Six sources for the kernel-against-reference cases. The last
    /// one's rotation is scaled ×4: the projection is unchanged (`u`
    /// and `v` are ratios), but a point within `EPSILON` of that
    /// camera's centre keeps a depth above `EPSILON`, so the
    /// `try_normalized` fallback to `ray_dir` is reachable.
    fn kernel_case_sources() -> Vec<SourceViewData> {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 24, 3);
        let mut sources = prepare_sources(&ds.source_views);
        let m = &mut sources[5].camera.pose.rotation.m;
        m.iter_mut().flatten().for_each(|v| *v *= 4.0);
        sources
    }

    /// Rays that put points where the block kernel's masks matter, all
    /// relative to `src`: behind it; along its `u = 0` / `v = 0`
    /// image edge and just under `width` / `height`; and from its
    /// centre outwards, starting exactly at the centre and then within
    /// `EPSILON` of it.
    fn edge_rays(src: &SourceViewData) -> Vec<(Ray, Vec<f32>)> {
        let cam = &src.camera;
        let (w, h) = (cam.intrinsics.width as f32, cam.intrinsics.height as f32);
        let under = |x: f32| f32::from_bits(x.to_bits() - 1);
        let along = |u: f32, v: f32| (cam.pixel_ray(u, v), vec![0.4, 1.1, 2.7, 3.0, 4.5]);
        let forward = cam.pose.forward().normalized();
        vec![
            (Ray::new(cam.center(), -forward), vec![0.5, 2.0]),
            along(0.0, 7.3),
            along(11.6, 0.0),
            along(under(w), 3.2),
            along(5.9, under(h)),
            (
                Ray::new(cam.center(), forward),
                vec![0.0, 2.5e-7, 5e-7, 7.5e-7, 1.5e-6, 3.0],
            ),
        ]
    }

    /// Every bit of an aggregate, so `-0.0` and NaN payloads count.
    fn aggregate_bits(a: &PointAggregate) -> Vec<u32> {
        let colors = a.view_colors.iter().flat_map(|c| [c.x, c.y, c.z]);
        let blend = a.blend_inputs.iter().flatten().copied();
        let flags = a.valid.iter().map(|&ok| ok as u32);
        (a.stats.iter().copied().chain(colors).chain(blend))
            .map(f32::to_bits)
            .chain(flags)
            .chain([a.n_valid as u32])
            .collect()
    }

    /// Overwrites every float of the arena's projection, fetch and
    /// block scratch with NaN and ∞ and every lane mask with all ones —
    /// what a fill must never let through.
    fn poison_scratch(arena: &mut AggregateArena) {
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for buf in [&mut arena.feats, &mut arena.dir_sims, &mut arena.tile] {
            for (k, v) in buf.iter_mut().enumerate() {
                *v = poison[k % 3];
            }
        }
        arena.seen.fill(u32::MAX);
    }

    /// Fills one arena through [`aggregate_ray_into`], one through
    /// [`aggregate_points_into`] (with a direction of its own per
    /// point) and one as an open tile (every ray pushed, one flush at
    /// the end, so blocks run on from ray to ray), each over poisoned
    /// scratch, and holds every point of all three against
    /// [`aggregate_point`].
    fn assert_arena_matches_reference(
        rays: &[(Ray, Vec<f32>)],
        sources: &[SourceViewData],
        d: usize,
    ) {
        let mut by_ray = AggregateArena::default();
        let mut by_points = AggregateArena::default();
        let mut open_tile = AggregateArena::default();
        for arena in [&mut by_ray, &mut by_points, &mut open_tile] {
            arena.reset(sources.len(), d);
            poison_scratch(arena);
        }
        let blocks_before = blocks_flushed();
        for (ray, depths) in rays {
            open_tile.push_ray(ray, depths, sources);
        }
        open_tile.flush(sources);
        let blocks = (blocks_flushed() - blocks_before) as usize;
        let mut reference = Vec::new();
        for (ray, depths) in rays {
            aggregate_ray_into(ray, depths, sources, d, &mut by_ray);
            let points: Vec<Vec3> = depths.iter().map(|&t| ray.at(t)).collect();
            let dirs: Vec<Vec3> = (0..points.len())
                .map(|k| (ray.direction + Vec3::new(0.3, -0.2, 0.1) * k as f32).normalized())
                .collect();
            aggregate_points_into(&points, &dirs, sources, d, &mut by_points);
            for (&p, &dir) in points.iter().zip(&dirs) {
                reference.push((
                    aggregate_point(p, ray.direction, sources, d),
                    aggregate_point(p, dir, sources, d),
                ));
            }
        }
        for arena in [&by_ray, &by_points, &open_tile] {
            assert_eq!(arena.n_rays(), rays.len());
            assert_eq!(arena.total_points(), reference.len());
            assert_eq!(arena.stats().rows(), reference.len());
            assert_eq!(arena.stats().cols(), stats_dim(d));
        }
        // A tile is packed: its blocks are full but for the last.
        let avx2 = kernels::active_backend() == kernels::Backend::Avx2;
        assert_eq!(blocks, if avx2 { reference.len().div_ceil(8) } else { 0 });
        for (r, (_, depths)) in rays.iter().enumerate() {
            assert_eq!(open_tile.ray_range(r), by_ray.ray_range(r));
            assert_eq!(open_tile.ray_range(r).len(), depths.len());
        }
        for (k, (along_ray, own_dir)) in reference.iter().enumerate() {
            if along_ray.n_valid == 0 {
                // Seen by no view: the all-zero row, whatever its
                // neighbours in the block saw.
                assert!(aggregate_bits(&open_tile.export(k)).iter().all(|&b| b == 0));
            }
            assert_eq!(
                aggregate_bits(&open_tile.export(k)),
                aggregate_bits(along_ray),
                "open tile, point {k}, d {d}, {} views",
                sources.len()
            );
            assert_eq!(
                aggregate_bits(&by_ray.export(k)),
                aggregate_bits(along_ray),
                "aggregate_ray_into, point {k}, d {d}, {} views",
                sources.len()
            );
            assert_eq!(
                aggregate_bits(&by_points.export(k)),
                aggregate_bits(own_dir),
                "aggregate_points_into, point {k}, d {d}, {} views",
                sources.len()
            );
        }
    }

    /// Fixed points through every fill route: inside the scene, on the
    /// surface, one no view sees, and one off-axis, each along a
    /// direction of its own, at the coarse and the full channel width.
    #[test]
    fn arena_matches_aggregate_point_bitwise() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let rays: Vec<(Ray, Vec<f32>)> = [
            (Vec3::ZERO, Vec3::Z),
            (Vec3::new(0.0, 0.0, 0.8), -Vec3::Z),
            (Vec3::new(500.0, 0.0, 0.0), Vec3::X), // invisible
            (Vec3::new(0.4, -0.3, 0.2), Vec3::new(0.0, 1.0, 0.0)),
        ]
        .into_iter()
        .map(|(p, dir)| (Ray::new(p, dir), vec![0.0]))
        .collect();
        for d in [3usize, 12] {
            assert_arena_matches_reference(&rays, &sources, d);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Whatever backend fills the arena — per point on the scalar
        /// leg, eight points per source view under AVX2 — and whichever
        /// way it is filled — ray by ray through the public entry
        /// points, or a whole tile pushed and flushed once — it holds
        /// the bits of the per-point reference: tiles of several rays
        /// of 0…19 depths with an empty ray and a single-point ray
        /// between the free ones, every `far_every`-th depth of a free
        /// ray pushed far outside the capture rig (partial visibility
        /// inside a block), a ray no view sees, every channel width from
        /// one to the encoder's twelve, one to six views, and the rays
        /// of [`edge_rays`] against one of them.
        #[test]
        fn prop_arena_matches_aggregate_point_on_either_backend(
            d in 1usize..13,
            n_views in 1usize..7,
            edge_view in 0usize..6,
            far_every in 2usize..5,
            free in proptest::collection::vec(
                (
                    (-3.5f32..3.5, -3.5f32..3.5, -3.5f32..3.5),
                    (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
                    proptest::collection::vec(0.0f32..7.0, 0..20),
                ),
                1..6
            ),
        ) {
            let all = kernel_case_sources();
            let sources = &all[6 - n_views..];
            let mut rays: Vec<(Ray, Vec<f32>)> = Vec::new();
            for ((ox, oy, oz), (dx, dy, dz), mut depths) in free {
                let dir = Vec3::new(dx, dy, dz).try_normalized().unwrap_or(Vec3::Z);
                let ray = Ray::new(Vec3::new(ox, oy, oz), dir);
                let single = vec![depths.first().copied().unwrap_or(1.5)];
                depths.iter_mut().step_by(far_every).for_each(|t| *t *= 400.0);
                rays.extend([(ray, depths), (ray, Vec::new()), (ray, single)]);
            }
            rays.push((Ray::new(Vec3::new(500.0, 0.0, 0.0), Vec3::X), vec![0.0, 1.0]));
            rays.extend(edge_rays(&all[edge_view]));
            assert_arena_matches_reference(&rays, sources, d);
        }
    }

    #[test]
    fn the_block_kernel_caps_neither_views_nor_channels() {
        // Nine views, and nineteen channels (three vectors of eight with
        // a ragged last one) of maps widened past the encoder's twelve:
        // the block scratch is sized from the arena's shape, so both go
        // the same route as the benchmark's 6 × 12.
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 9, 1, 24, 3);
        let mut sources = prepare_sources(&ds.source_views);
        let rays: Vec<(Ray, Vec<f32>)> = sources[..3].iter().flat_map(edge_rays).collect();
        assert_arena_matches_reference(&rays, &sources, 12);
        for src in &mut sources {
            src.features = src.features.widened(20);
        }
        assert_arena_matches_reference(&rays, &sources[..6], 19);
        assert_arena_matches_reference(&rays, &sources, 19);
    }

    #[test]
    fn a_source_whose_image_and_feature_map_differ_takes_the_per_point_route() {
        // `fill_point` footprints such an image on its own dimensions;
        // the block kernel assumes one footprint serves both, so it
        // must hand the whole view to the per-point routine.
        let mut sources = kernel_case_sources();
        sources[2].image = sources[2]
            .image
            .downsample2()
            .expect("a 2×2 or larger image");
        let rays: Vec<(Ray, Vec<f32>)> = sources.iter().flat_map(edge_rays).collect();
        for d in [3, 12] {
            assert_arena_matches_reference(&rays, &sources, d);
        }
    }

    #[test]
    fn a_dot_of_negative_zero_products_is_positive_zero_on_every_backend() {
        // `Vec3::dot` starts from `0.0`, so three `-0.0` products sum
        // to `+0.0`; a kernel that starts from the first product would
        // say `-0.0`. Camera on the z axis at x = y = 0, point on that
        // axis with x = y = -0.0, direction (+, +, -0.0): every
        // product of `ray_dir · to_point` is `-0.0`.
        use gen_nerf_geometry::Pose;
        let mut sources = kernel_case_sources();
        sources.truncate(1);
        sources[0].camera.pose = Pose::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y);
        let p = Vec3::new(-0.0, -0.0, 0.5);
        let dir = Vec3::new(0.6, 0.8, -0.0);
        let reference = aggregate_point(p, dir, &sources, 12);
        assert_eq!(reference.n_valid, 1);
        assert_eq!(reference.blend_inputs[0][0].to_bits(), 0.0f32.to_bits());
        let mut arena = AggregateArena::default();
        arena.reset(1, 12);
        aggregate_points_into(&[p], &[dir], &sources, 12, &mut arena);
        assert_eq!(aggregate_bits(&arena.export(0)), aggregate_bits(&reference));
    }

    #[test]
    #[should_panic(expected = "channel overrun")]
    fn arena_fill_past_the_encoded_channels_panics_on_every_backend() {
        let sources = kernel_case_sources();
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 13);
        aggregate_points_into(&[Vec3::ZERO], &[Vec3::Z], &sources, 13, &mut arena);
    }

    #[test]
    fn arena_reuse_and_empty_rays() {
        use gen_nerf_geometry::Vec3;
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let mut arena = AggregateArena::default();
        // First fill at one shape, then reuse at another: stale state
        // must never leak.
        arena.reset(sources.len(), 12);
        aggregate_points_into(&[Vec3::ZERO], &[Vec3::Z], &sources, 12, &mut arena);
        arena.reset(sources.len(), 3);
        arena.seal_ray(); // empty (background) ray keeps its slot
        aggregate_points_into(
            &[Vec3::ZERO, Vec3::new(0.1, 0.1, 0.1)],
            &[Vec3::Z, Vec3::Z],
            &sources,
            3,
            &mut arena,
        );
        assert_eq!(arena.n_rays(), 2);
        assert_eq!(arena.ray_range(0), 0..0);
        assert_eq!(arena.ray_range(1), 0..2);
        assert_eq!(arena.total_points(), 2);
        let reference = aggregate_point(Vec3::ZERO, Vec3::Z, &sources, 3);
        assert_eq!(arena.ray_view(1).stats_row(0), &reference.stats[..]);
    }

    #[test]
    fn default_arena_is_safe_and_empty() {
        let arena = AggregateArena::default();
        assert_eq!(arena.n_rays(), 0);
        assert_eq!(arena.total_points(), 0);
        assert_eq!(arena.stats().rows(), 0);
    }

    #[test]
    #[should_panic(expected = "feature channels")]
    fn assert_channels_rejects_narrow_maps() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        assert_channels(&sources, 13, "test renderer");
    }

    #[test]
    fn assert_channels_accepts_full_width() {
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        assert_channels(&sources, 12, "test renderer");
        assert_channels(&sources, 3, "coarse");
    }
}
