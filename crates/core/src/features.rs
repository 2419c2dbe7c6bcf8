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
//! Aggregates exist in two layouts backed by a single per-point fill
//! routine ([`aggregate_point`] and [`AggregateArena`] share it, so
//! they are bitwise-identical by construction):
//!
//! * [`PointAggregate`] — the standalone AoS value (five heap `Vec`s
//!   per point). Kept as the reference/compat type for the per-ray
//!   regression path, training targets in tests, and benches.
//! * [`AggregateArena`] — the chunk-level SoA block the fused render
//!   schedule uses: one flat stats matrix with **one row per point**
//!   (laid out exactly as the point-MLP GEMM operand, so inference
//!   consumes it in place), flat per-(point, view) color/blend/valid
//!   planes, and per-ray offsets. All buffers — including the
//!   projection/fetch scratch — are reused across
//!   [`AggregateArena::reset`] cycles, so steady-state acquisition
//!   performs **zero heap allocations**.
//!
//! The mean/variance accumulation loops run through the active
//! [`gen_nerf_nn::kernels::MicroKernel`] backend. Both ops are exact
//! elementwise chains (no FMA contraction, no reductions), so every
//! backend produces bit-identical aggregates — acquisition, unlike the
//! GEMMs, is backend-independent.

use crate::encoder::{FeatureEncoder, FeatureMap};
use gen_nerf_geometry::{Camera, Ray, Vec3};
use gen_nerf_nn::kernels;
use gen_nerf_nn::Tensor2;
use gen_nerf_scene::{Image, View};
use serde::{Deserialize, Serialize};
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
    pub features: FeatureMap,
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

/// Aggregated observation of one sampled 3D point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointAggregate {
    /// Point-MLP input: `[mean(D), var(D), mean_dir_sim, valid_frac]`.
    pub stats: Vec<f32>,
    /// Source colors at the projections (zero where invalid).
    pub view_colors: Vec<Vec3>,
    /// Per-view blend-head inputs `[dir_sim, feature_deviation]`.
    pub blend_inputs: Vec<[f32; 2]>,
    /// Which views see the point.
    pub valid: Vec<bool>,
    /// Number of valid views.
    pub n_valid: usize,
}

impl PointAggregate {
    /// Stats width for `d` feature channels.
    pub fn stats_dim(d: usize) -> usize {
        2 * d + 2
    }
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
pub fn assert_channels(sources: &[SourceViewData], d_channels: usize, context: &str) {
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

/// The single per-point aggregation routine both layouts share: exact
/// seed arithmetic (per-view accumulation in view order, one division
/// pass per statistic), written into caller-provided SoA rows.
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
    debug_assert_eq!(stats.len(), PointAggregate::stats_dim(d));
    debug_assert!(feats.len() >= s * d && dir_sims.len() >= s);
    let kern = kernels::active();
    let mut n_valid = 0usize;

    for (i, src) in sources.iter().enumerate() {
        let Some(uv) = src.camera.project(p) else {
            continue;
        };
        if !src.camera.intrinsics.contains(uv) {
            continue;
        }
        // One footprint serves both fetches: the encoder keeps the
        // image's dimensions, so the taps and weights are the same.
        let fp = src.features.footprint(uv);
        src.features
            .sample_footprint_into(&fp, &mut feats[i * d..(i + 1) * d]);
        view_colors[i] = if (src.image.width(), src.image.height())
            == (src.features.width(), src.features.height())
        {
            src.image.sample_footprint(&fp)
        } else {
            src.image.sample(uv)
        };
        let to_point = (p - src.camera.center())
            .try_normalized()
            .unwrap_or(ray_dir);
        dir_sims[i] = ray_dir.dot(to_point);
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
/// source's channel count (validated up front by [`assert_channels`];
/// the per-point sample asserts too). `ray_dir` is the novel ray's
/// unit direction (for direction-similarity weighting).
///
/// This is the AoS compat entry point (it allocates the per-point
/// buffers); hot paths fill an [`AggregateArena`] via
/// [`aggregate_points_into`] instead — same arithmetic, shared
/// implementation.
pub fn aggregate_point(
    p: Vec3,
    ray_dir: Vec3,
    sources: &[SourceViewData],
    d_channels: usize,
) -> PointAggregate {
    let s = sources.len();
    let mut stats = vec![0.0f32; PointAggregate::stats_dim(d_channels)];
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

/// Read access to a run of aggregated points, independent of layout.
///
/// Implemented by `[PointAggregate]` (AoS) and by [`AggregateArena`] /
/// [`ArenaRayView`] (SoA), so the model's training paths accept either
/// without copying between layouts.
pub trait AggregateView {
    /// Points in the run.
    fn n_points(&self) -> usize;
    /// Point `k`'s stats row (`[mean(D), var(D), dir_sim, frac]`).
    fn stats_row(&self, k: usize) -> &[f32];
    /// Number of views that see point `k`.
    fn n_valid(&self, k: usize) -> usize;
    /// Point `k`'s per-view visibility plane.
    fn valid_row(&self, k: usize) -> &[bool];
    /// Point `k`'s per-view source colors (zero where invalid).
    fn view_colors_row(&self, k: usize) -> &[Vec3];
    /// Point `k`'s per-view blend-head inputs.
    fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]];
    /// `true` when the run has no points.
    fn is_empty(&self) -> bool {
        self.n_points() == 0
    }
}

impl AggregateView for [PointAggregate] {
    fn n_points(&self) -> usize {
        self.len()
    }

    fn stats_row(&self, k: usize) -> &[f32] {
        &self[k].stats
    }

    fn n_valid(&self, k: usize) -> usize {
        self[k].n_valid
    }

    fn valid_row(&self, k: usize) -> &[bool] {
        &self[k].valid
    }

    fn view_colors_row(&self, k: usize) -> &[Vec3] {
        &self[k].view_colors
    }

    fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]] {
        &self[k].blend_inputs
    }
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
/// layout the fused GEMM wants, so the AoS→GEMM staging copy of the
/// `PointAggregate` path disappears.
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
    /// Running Σ `n_valid` — the fused blend head's pair count.
    valid_pairs: usize,
    /// `ray_offsets[r]..ray_offsets[r + 1]` is ray `r`'s point range.
    ray_offsets: Vec<usize>,
    /// Projection/fetch scratch: the current point's per-view features.
    feats: Vec<f32>,
    /// Projection scratch: the current point's per-view similarities.
    dir_sims: Vec<f32>,
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
            valid_pairs: 0,
            ray_offsets: vec![0],
            feats: Vec::new(),
            dir_sims: Vec::new(),
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
        self.stats.reset_rows(PointAggregate::stats_dim(d_channels));
        self.view_colors.clear();
        self.blend_inputs.clear();
        self.valid.clear();
        self.n_valid.clear();
        self.valid_pairs = 0;
        self.ray_offsets.clear();
        self.ray_offsets.push(0);
        self.feats.clear();
        self.feats.resize(n_views * d_channels, 0.0);
        self.dir_sims.clear();
        self.dir_sims.resize(n_views, 0.0);
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
            + (self.feats.capacity() + self.dir_sims.capacity()) * size_of::<f32>()
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

    /// Total valid (point, view) pairs — the fused blend-head row
    /// count.
    pub fn valid_pairs(&self) -> usize {
        self.valid_pairs
    }

    /// The point range of ray `r`.
    pub fn ray_range(&self, r: usize) -> Range<usize> {
        self.ray_offsets[r]..self.ray_offsets[r + 1]
    }

    /// The stats matrix (`total_points × (2d + 2)`, ray-major) — fed
    /// to the point MLP in place.
    pub fn stats(&self) -> &Tensor2 {
        &self.stats
    }

    /// A borrowed [`AggregateView`] of ray `r`'s points.
    pub fn ray_view(&self, r: usize) -> ArenaRayView<'_> {
        let range = self.ray_range(r);
        ArenaRayView { arena: self, range }
    }

    /// Seals the current ray (possibly empty — a background ray). Every
    /// point pushed since the previous seal belongs to it.
    pub fn seal_ray(&mut self) {
        self.ray_offsets.push(self.total_points());
    }

    /// Appends one point aggregated from `sources` (shared arithmetic
    /// with [`aggregate_point`]).
    fn push_point(&mut self, p: Vec3, ray_dir: Vec3, sources: &[SourceViewData]) {
        debug_assert_eq!(sources.len(), self.n_views);
        let s = self.n_views;
        let base = self.n_valid.len() * s;
        self.view_colors.resize(base + s, Vec3::ZERO);
        self.blend_inputs.resize(base + s, [0.0f32; 2]);
        self.valid.resize(base + s, false);
        let stats_row = self.stats.push_row_zeroed();
        let n_valid = fill_point(
            p,
            ray_dir,
            sources,
            self.d,
            stats_row,
            &mut self.view_colors[base..],
            &mut self.blend_inputs[base..],
            &mut self.valid[base..],
            &mut self.feats,
            &mut self.dir_sims,
        );
        self.n_valid.push(n_valid);
        self.valid_pairs += n_valid;
    }

    /// Appends one point copied from a standalone [`PointAggregate`] —
    /// the staging path that lets the AoS compat API ride the fused
    /// arena implementation.
    ///
    /// # Panics
    ///
    /// Panics when the aggregate's view count or stats width disagrees
    /// with the arena's.
    pub fn push_aggregate(&mut self, agg: &PointAggregate) {
        assert_eq!(agg.valid.len(), self.n_views, "view count mismatch");
        let width = self.stats.cols();
        assert_eq!(
            agg.stats.len(),
            width,
            "stats width mismatch (aggregate built at a different \
             d_channels than the arena)"
        );
        let s = self.n_views;
        let base = self.n_valid.len() * s;
        self.view_colors.extend_from_slice(&agg.view_colors);
        self.blend_inputs.extend_from_slice(&agg.blend_inputs);
        self.valid.extend_from_slice(&agg.valid);
        debug_assert_eq!(self.valid.len(), base + s);
        self.stats
            .push_row_zeroed()
            .copy_from_slice(&agg.stats[..width]);
        self.n_valid.push(agg.n_valid);
        self.valid_pairs += agg.n_valid;
    }

    /// Exports point `k` as a standalone [`PointAggregate`] (test and
    /// compat use; allocates).
    pub fn export(&self, k: usize) -> PointAggregate {
        let s = self.n_views;
        PointAggregate {
            stats: self.stats.row(k).to_vec(),
            view_colors: self.view_colors[k * s..(k + 1) * s].to_vec(),
            blend_inputs: self.blend_inputs[k * s..(k + 1) * s].to_vec(),
            valid: self.valid[k * s..(k + 1) * s].to_vec(),
            n_valid: self.n_valid[k],
        }
    }

    /// Exports ray `r` as standalone [`PointAggregate`]s.
    pub fn export_ray(&self, r: usize) -> Vec<PointAggregate> {
        self.ray_range(r).map(|k| self.export(k)).collect()
    }
}

impl AggregateView for AggregateArena {
    fn n_points(&self) -> usize {
        self.total_points()
    }

    fn stats_row(&self, k: usize) -> &[f32] {
        self.stats.row(k)
    }

    fn n_valid(&self, k: usize) -> usize {
        self.n_valid[k]
    }

    fn valid_row(&self, k: usize) -> &[bool] {
        &self.valid[k * self.n_views..(k + 1) * self.n_views]
    }

    fn view_colors_row(&self, k: usize) -> &[Vec3] {
        &self.view_colors[k * self.n_views..(k + 1) * self.n_views]
    }

    fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]] {
        &self.blend_inputs[k * self.n_views..(k + 1) * self.n_views]
    }
}

/// A borrowed view of one ray's points inside an [`AggregateArena`].
#[derive(Debug, Clone)]
pub struct ArenaRayView<'a> {
    arena: &'a AggregateArena,
    range: Range<usize>,
}

impl AggregateView for ArenaRayView<'_> {
    fn n_points(&self) -> usize {
        self.range.len()
    }

    fn stats_row(&self, k: usize) -> &[f32] {
        self.arena.stats_row(self.range.start + k)
    }

    fn n_valid(&self, k: usize) -> usize {
        AggregateView::n_valid(self.arena, self.range.start + k)
    }

    fn valid_row(&self, k: usize) -> &[bool] {
        self.arena.valid_row(self.range.start + k)
    }

    fn view_colors_row(&self, k: usize) -> &[Vec3] {
        self.arena.view_colors_row(self.range.start + k)
    }

    fn blend_inputs_row(&self, k: usize) -> &[[f32; 2]] {
        self.arena.blend_inputs_row(self.range.start + k)
    }
}

/// Aggregates a batch of points as **one ray** appended to `arena`:
/// `points[i]` is observed along direction `ray_dirs[i]` against every
/// source view, and the ray is sealed at the end (an empty batch seals
/// an empty ray — a background ray keeps its slot).
///
/// Bitwise-identical to calling [`aggregate_point`] per point (shared
/// fill routine; the arena proptest pins it), with zero steady-state
/// heap allocations.
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
    for (&p, &dir) in points.iter().zip(ray_dirs) {
        arena.push_point(p, dir, sources);
    }
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
    for &t in depths {
        arena.push_point(ray.at(t), ray.direction, sources);
    }
    arena.seal_ray();
}

/// Counts the feature-map texel fetches of aggregating one point:
/// 4 bilinear taps per valid view.
pub fn fetches_per_point(agg: &PointAggregate) -> u64 {
    4 * agg.n_valid as u64
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
        assert_eq!(fetches_per_point(&agg), 0);
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
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let agg = aggregate_point(
            gen_nerf_geometry::Vec3::ZERO,
            gen_nerf_geometry::Vec3::Z,
            &sources,
            12,
        );
        assert_eq!(fetches_per_point(&agg), 4 * agg.n_valid as u64);
    }

    #[test]
    fn arena_matches_aggregate_point_bitwise() {
        use gen_nerf_geometry::Vec3;
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let pts = [
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 0.8),
            Vec3::new(500.0, 0.0, 0.0), // invisible
            Vec3::new(0.4, -0.3, 0.2),
        ];
        let dirs = [Vec3::Z, -Vec3::Z, Vec3::X, Vec3::new(0.0, 1.0, 0.0)];
        for d in [3usize, 12] {
            let mut arena = AggregateArena::default();
            arena.reset(sources.len(), d);
            aggregate_points_into(&pts, &dirs, &sources, d, &mut arena);
            assert_eq!(arena.n_rays(), 1);
            assert_eq!(arena.total_points(), pts.len());
            assert_eq!(arena.stats().rows(), pts.len());
            assert_eq!(arena.stats().cols(), PointAggregate::stats_dim(d));
            for (k, (&p, &dir)) in pts.iter().zip(&dirs).enumerate() {
                let reference = aggregate_point(p, dir, &sources, d);
                assert_eq!(arena.export(k), reference, "point {k} d {d}");
                let sb: Vec<u32> = arena.stats_row(k).iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = reference.stats.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, rb, "point {k} d {d} stats bits");
            }
        }
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
        assert_eq!(
            arena.valid_pairs(),
            (0..2).map(|k| AggregateView::n_valid(&arena, k)).sum()
        );
        let reference = aggregate_point(Vec3::ZERO, Vec3::Z, &sources, 3);
        assert_eq!(arena.ray_view(1).stats_row(0), &reference.stats[..]);
    }

    #[test]
    fn staging_from_aggregates_round_trips() {
        use gen_nerf_geometry::Vec3;
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let aggs: Vec<PointAggregate> = [Vec3::ZERO, Vec3::new(0.2, 0.0, 0.5)]
            .iter()
            .map(|&p| aggregate_point(p, Vec3::Z, &sources, 12))
            .collect();
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 12);
        for a in &aggs {
            arena.push_aggregate(a);
        }
        arena.seal_ray();
        assert_eq!(arena.export_ray(0), aggs);
    }

    #[test]
    fn default_arena_is_safe_and_empty() {
        let arena = AggregateArena::default();
        assert_eq!(arena.n_rays(), 0);
        assert_eq!(arena.total_points(), 0);
        assert_eq!(arena.valid_pairs(), 0);
        assert_eq!(arena.stats().rows(), 0);
    }

    #[test]
    #[should_panic(expected = "stats width mismatch")]
    fn staging_rejects_width_mismatch() {
        // An aggregate built at d=12 must not be silently truncated
        // into a coarse-width arena.
        let ds = tiny_dataset();
        let sources = prepare_sources(&ds.source_views);
        let agg = aggregate_point(
            gen_nerf_geometry::Vec3::ZERO,
            gen_nerf_geometry::Vec3::Z,
            &sources,
            12,
        );
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 3);
        arena.push_aggregate(&agg);
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
