//! The AVX2 block acquisition kernel: eight sample points against one
//! source view per pass.
//!
//! The accelerator's preprocessing unit (projector + interpolator,
//! paper Sec. 4.5) takes a ray's samples against **one source view at
//! a time**, because they fall along one epipolar line of that view.
//! This is its software twin: [`acquire_view`] projects, clips,
//! footprints, fetches and direction-weights up to eight points of a
//! ray (one lane each) against one view, and [`reduce_point`] folds a
//! point's per-view fetches into its stats row.
//!
//! # Bit-identity with `fill_point`
//!
//! Every lane computes exactly the operation sequence of the scalar
//! per-point routine (`super::fill_point` / `super::acquire_pair`), so
//! the arena holds the same bits whichever route filled it:
//!
//! * only `add`/`sub`/`mul`/`div`/`sqrt`/`floor`/`min`/`max` are used —
//!   each correctly rounded and lane-wise identical to its scalar
//!   counterpart — and **never** an FMA: `mul` and `add` stay separate
//!   roundings (the functions enable `avx2` only, and Rust does not
//!   contract);
//! * `Vec3::dot` is `0.0 + a.x·b.x + a.y·b.y + a.z·b.z` left to right
//!   ([`dot3`] keeps the leading `0.0 +`, which turns `-0.0` into
//!   `+0.0`); a bilinear fetch is `0 + t₀·w₀ + t₁·w₁ + t₂·w₂ + t₃·w₃` in
//!   tap order; cross-view sums run in view order, the deviation's sum
//!   in channel order;
//! * the scalar routine's early `continue`s become a lane mask. A
//!   masked-out lane may hold ∞ or NaN (a point on the camera plane
//!   divides by zero); it is never converted to an address, never
//!   stored, and never read back.
//!
//! # Safety model
//!
//! As in `gen_nerf_nn::kernels::avx2`: the `#[target_feature]`
//! functions here are reached only from
//! `AggregateArena::push_block` (itself one), which `push_points`
//! enters only while `kernels::active_backend()` is `Backend::Avx2` — a
//! backend that is never installed unless
//! `is_x86_feature_detected!("avx2")` passed.
//! Texel reads go through bounds-checked sub-slices of the feature map
//! and the image; the only raw-pointer operations are unaligned vector
//! loads and stores on slices or arrays whose length is established
//! right beside them.

#![allow(unsafe_code)]

use super::SourceViewData;
use gen_nerf_geometry::Vec3;

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Points per block: one per 32-bit lane of a 256-bit register.
pub(super) const LANES: usize = 8;

/// The largest feature map [`acquire_view`] takes: up to here every
/// texel coordinate and `width − 1` / `height − 1` are exact in `f32`
/// and every texel index fits an `i32` lane.
const MAX_TEXELS: usize = 1 << 24;

/// Up to [`LANES`] sample points and their viewing directions in SoA
/// form. Lanes past `n` hold zeros and are masked out of every result.
pub(super) struct PointBlock {
    /// Occupied lanes.
    pub n: usize,
    /// Positions, `[axis][lane]`.
    pub p: [[f32; LANES]; 3],
    /// Unit viewing directions, `[axis][lane]`.
    pub dir: [[f32; LANES]; 3],
}

impl PointBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self {
            n: 0,
            p: [[0.0; LANES]; 3],
            dir: [[0.0; LANES]; 3],
        }
    }

    /// Appends a point observed along `dir`.
    pub fn push(&mut self, p: Vec3, dir: Vec3) {
        let l = self.n;
        (self.p[0][l], self.p[1][l], self.p[2][l]) = (p.x, p.y, p.z);
        (self.dir[0][l], self.dir[1][l], self.dir[2][l]) = (dir.x, dir.y, dir.z);
        self.n += 1;
    }

    /// Lane `l`'s point and direction.
    pub fn lane(&self, l: usize) -> (Vec3, Vec3) {
        (
            Vec3::new(self.p[0][l], self.p[1][l], self.p[2][l]),
            Vec3::new(self.dir[0][l], self.dir[1][l], self.dir[2][l]),
        )
    }
}

/// Where one block's Step 1 results land: the arena's per-(point, view)
/// planes cut down to the block's points, plus the fetch scratch — all
/// indexed by slot `lane · n_views + view`.
pub(super) struct BlockPlanes<'a> {
    /// Channels fetched per view.
    pub d: usize,
    /// Source views per point.
    pub n_views: usize,
    /// One [`padded`]`(d)`-float feature row per slot.
    pub feats: &'a mut [f32],
    pub dir_sims: &'a mut [f32],
    pub view_colors: &'a mut [Vec3],
    pub valid: &'a mut [bool],
}

/// Feature-scratch stride for `d` channels: `d` rounded up to whole
/// vectors, so every scratch row is read and written eight floats at a
/// time. The pad lanes ride through the arithmetic and never reach a
/// result.
pub(super) fn padded(d: usize) -> usize {
    d.div_ceil(LANES) * LANES
}

/// Whether [`acquire_view`] may take `src` at `d` channels. Decided per
/// view, never per lane; a view that fails goes through the scalar
/// `acquire_pair` for every point instead, which keeps that routine's
/// behaviour — the separate image footprint when image and feature map
/// differ in size, the `channel overrun` panic, the out-of-bounds panic
/// on a map whose buffer does not match its dimensions — exactly as it
/// is.
pub(super) fn takes(src: &SourceViewData, d: usize) -> bool {
    let (w, h) = (src.features.width(), src.features.height());
    let texels = w as usize * h as usize;
    (src.image.width(), src.image.height()) == (w, h)
        && (1..=MAX_TEXELS).contains(&texels)
        && d <= src.features.channels()
        && src.features.as_slice().len() == texels * src.features.channels()
        && src.image.as_slice().len() == texels * 3
}

#[inline]
#[target_feature(enable = "avx2")]
fn load8(a: &[f32; LANES]) -> __m256 {
    // SAFETY: `a` is eight readable floats; `loadu` needs no alignment.
    unsafe { _mm256_loadu_ps(a.as_ptr()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store8(v: __m256) -> [f32; LANES] {
    let mut a = [0.0f32; LANES];
    // SAFETY: `a` is eight writable floats; `storeu` needs no alignment.
    unsafe { _mm256_storeu_ps(a.as_mut_ptr(), v) };
    a
}

#[inline]
#[target_feature(enable = "avx2")]
fn store8i(v: __m256i) -> [u32; LANES] {
    let mut a = [0u32; LANES];
    // SAFETY: `a` is 32 writable bytes; `storeu` needs no alignment.
    unsafe { _mm256_storeu_si256(a.as_mut_ptr() as *mut __m256i, v) };
    a
}

/// The lane mask of a `rem`-channel tail (`rem < 8`): the low `rem`
/// lanes set.
#[inline]
#[target_feature(enable = "avx2")]
fn tail_mask(rem: usize) -> __m256i {
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), lane)
}

/// `Vec3::dot` per lane: `0 + a.x·b.x + a.y·b.y + a.z·b.z`, left to
/// right, each product and each sum rounded on its own.
#[inline]
#[target_feature(enable = "avx2")]
fn dot3(a: [__m256; 3], b: [__m256; 3]) -> __m256 {
    let mut acc = _mm256_setzero_ps();
    for k in 0..3 {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(a[k], b[k]));
    }
    acc
}

#[inline]
#[target_feature(enable = "avx2")]
fn splat3(v: Vec3) -> [__m256; 3] {
    [
        _mm256_set1_ps(v.x),
        _mm256_set1_ps(v.y),
        _mm256_set1_ps(v.z),
    ]
}

/// `(v.max(0.0) as u32).min(limit)` of `BilinearFootprint::at` for an
/// integer-valued `v`, clamped while still a float so that the
/// conversion never sees a value outside `0..=limit`.
#[inline]
#[target_feature(enable = "avx2")]
fn clamp_texel(v: __m256, limit: __m256) -> __m256i {
    _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), limit))
}

/// Step 1 for one block against one source view: `Camera::project`,
/// `Intrinsics::contains`, `BilinearFootprint::at`, the feature and
/// colour fetches and the direction similarity of the scalar
/// `acquire_pair`, eight points at a time. For every lane `l` that
/// sees the view, writes slot `l · n_views + view` of `planes`; other
/// slots are left untouched.
///
/// `src` must satisfy [`takes`] at `planes.d` channels.
#[target_feature(enable = "avx2")]
pub(super) fn acquire_view(
    blk: &PointBlock,
    src: &SourceViewData,
    view: usize,
    planes: &mut BlockPlanes<'_>,
) {
    let d = planes.d;
    debug_assert!(takes(src, d));
    let cam = &src.camera;
    let k = &cam.intrinsics;
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let eps = _mm256_set1_ps(gen_nerf_geometry::EPSILON);

    // `Pose::world_to_camera`: Rᵀ · (p − origin), a `Vec3::dot` per row.
    let p = [load8(&blk.p[0]), load8(&blk.p[1]), load8(&blk.p[2])];
    let o = splat3(cam.pose.origin);
    let rel = [
        _mm256_sub_ps(p[0], o[0]),
        _mm256_sub_ps(p[1], o[1]),
        _mm256_sub_ps(p[2], o[2]),
    ];
    let rt = cam.pose.rotation.transpose();
    let cam_x = dot3(splat3(rt.row(0)), rel);
    let cam_y = dot3(splat3(rt.row(1)), rel);
    let cam_z = dot3(splat3(rt.row(2)), rel);

    // `Camera::project`: `None` when `cam.z <= EPSILON` (so a NaN depth
    // passes here and fails `contains` below, as in the scalar code);
    // `u = fx · x / z + cx`.
    let in_front = _mm256_cmp_ps::<_CMP_NLE_UQ>(cam_z, eps);
    let u = _mm256_add_ps(
        _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(k.fx), cam_x), cam_z),
        _mm256_set1_ps(k.cx),
    );
    let v = _mm256_add_ps(
        _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(k.fy), cam_y), cam_z),
        _mm256_set1_ps(k.cy),
    );
    // `Intrinsics::contains`: ordered compares, false for NaN.
    let inside = _mm256_and_ps(
        _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(u, zero),
            _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero),
        ),
        _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(u, _mm256_set1_ps(k.width as f32)),
            _mm256_cmp_ps::<_CMP_LT_OQ>(v, _mm256_set1_ps(k.height as f32)),
        ),
    );
    let occupied = (1u32 << blk.n) - 1;
    let mut seen = _mm256_movemask_ps(_mm256_and_ps(in_front, inside)) as u32 & occupied;
    if seen == 0 {
        return;
    }

    // `BilinearFootprint::at` on the feature map's dimensions (the
    // image has the same ones — `takes`).
    let (w, h) = (src.features.width(), src.features.height());
    let x = _mm256_sub_ps(u, half);
    let y = _mm256_sub_ps(v, half);
    let x0f = _mm256_floor_ps(x);
    let y0f = _mm256_floor_ps(y);
    let fx = _mm256_sub_ps(x, x0f);
    let fy = _mm256_sub_ps(y, y0f);
    let (gx, gy) = (_mm256_sub_ps(one, fx), _mm256_sub_ps(one, fy));
    let weights = [
        store8(_mm256_mul_ps(gx, gy)),
        store8(_mm256_mul_ps(fx, gy)),
        store8(_mm256_mul_ps(gx, fy)),
        store8(_mm256_mul_ps(fx, fy)),
    ];
    let x_limit = _mm256_set1_ps((w - 1) as f32);
    let y_limit = _mm256_set1_ps((h - 1) as f32);
    let x0 = clamp_texel(x0f, x_limit);
    let x1 = clamp_texel(_mm256_add_ps(x0f, one), x_limit);
    let row_len = _mm256_set1_epi32(w as i32);
    let row0 = _mm256_mullo_epi32(clamp_texel(y0f, y_limit), row_len);
    let row1 = _mm256_mullo_epi32(clamp_texel(_mm256_add_ps(y0f, one), y_limit), row_len);
    // Texel indices `y · width + x` in tap order (x0,y0), (x1,y0),
    // (x0,y1), (x1,y1). A masked-out lane's index is meaningless and
    // is never read.
    let texels = [
        store8i(_mm256_add_epi32(row0, x0)),
        store8i(_mm256_add_epi32(row0, x1)),
        store8i(_mm256_add_epi32(row1, x0)),
        store8i(_mm256_add_epi32(row1, x1)),
    ];

    // `(p − center).try_normalized().unwrap_or(ray_dir)`, then
    // `ray_dir.dot(·)`; `p − center` is `rel` again.
    let dir = [load8(&blk.dir[0]), load8(&blk.dir[1]), load8(&blk.dir[2])];
    let len = _mm256_sqrt_ps(dot3(rel, rel));
    let has_len = _mm256_cmp_ps::<_CMP_GT_OQ>(len, eps);
    let to_point = [
        _mm256_blendv_ps(dir[0], _mm256_div_ps(rel[0], len), has_len),
        _mm256_blendv_ps(dir[1], _mm256_div_ps(rel[1], len), has_len),
        _mm256_blendv_ps(dir[2], _mm256_div_ps(rel[2], len), has_len),
    ];
    let sims = store8(dot3(dir, to_point));

    // The interpolator: per seeing lane, four taps accumulated as
    // `0 + t₀·w₀ + … + t₃·w₃` over the channels, eight at a time.
    let channels = src.features.channels();
    let fmap = src.features.as_slice();
    let image = src.image.as_slice();
    let (full, rem) = (d / LANES * LANES, d % LANES);
    let rem_mask = tail_mask(rem);
    let rgb_mask = _mm_setr_epi32(-1, -1, -1, 0);
    let stride = padded(d);
    while seen != 0 {
        let l = seen.trailing_zeros() as usize;
        seen &= seen - 1;
        let slot = l * planes.n_views + view;
        let tap_w = [
            _mm256_set1_ps(weights[0][l]),
            _mm256_set1_ps(weights[1][l]),
            _mm256_set1_ps(weights[2][l]),
            _mm256_set1_ps(weights[3][l]),
        ];
        // The bounds check of these sub-slices is the texel address
        // assertion every load below relies on.
        let texel = |t: usize| -> &[f32] {
            let at = texels[t][l] as usize * channels;
            &fmap[at..at + d]
        };
        let tex = [texel(0), texel(1), texel(2), texel(3)];
        let out = &mut planes.feats[slot * stride..(slot + 1) * stride];
        for c in (0..full).step_by(LANES) {
            let mut acc = zero;
            for t in 0..4 {
                // SAFETY: `c + 8 <= full <= d`, the length of `tex[t]`.
                let texel = unsafe { _mm256_loadu_ps(tex[t].as_ptr().add(c)) };
                acc = _mm256_add_ps(acc, _mm256_mul_ps(texel, tap_w[t]));
            }
            // SAFETY: `c + 8 <= stride`, the length of `out`.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(c), acc) };
        }
        if rem != 0 {
            let mut acc = zero;
            for t in 0..4 {
                // SAFETY: the mask enables `rem` lanes, and
                // `full + rem == d`, the length of `tex[t]`.
                let texel = unsafe { _mm256_maskload_ps(tex[t].as_ptr().add(full), rem_mask) };
                acc = _mm256_add_ps(acc, _mm256_mul_ps(texel, tap_w[t]));
            }
            // SAFETY: `full + 8 == stride`, the length of `out`.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(full), acc) };
        }

        let mut rgb = _mm_setzero_ps();
        for t in 0..4 {
            let at = texels[t][l] as usize * 3;
            let px = &image[at..at + 3];
            // SAFETY: `rgb_mask` enables the low three lanes only, and
            // `px` is three readable floats.
            let px = unsafe { _mm_maskload_ps(px.as_ptr(), rgb_mask) };
            rgb = _mm_add_ps(rgb, _mm_mul_ps(px, _mm256_castps256_ps128(tap_w[t])));
        }
        let mut rgba = [0.0f32; 4];
        // SAFETY: `rgba` is four writable floats.
        unsafe { _mm_storeu_ps(rgba.as_mut_ptr(), rgb) };
        planes.view_colors[slot] = Vec3::new(rgba[0], rgba[1], rgba[2]);
        planes.dir_sims[slot] = sims[l];
        planes.valid[slot] = true;
    }
}

/// Step 2 for one point: the second half of the scalar `fill_point`
/// (mean, variance, mean direction similarity, valid fraction and the
/// per-view deviation) over the point's fetched rows, with the channel
/// loops inlined eight wide.
///
/// `feats` holds the point's `n_views` feature rows at stride
/// [`padded`]`(d)`; `sq` is scratch of the same shape. `stats`
/// (`2d + 2`) and `blend_inputs` must arrive zeroed and
/// stay so when no view sees the point. Returns the number of views
/// that do.
#[target_feature(enable = "avx2")]
pub(super) fn reduce_point(
    d: usize,
    feats: &[f32],
    dir_sims: &[f32],
    valid: &[bool],
    sq: &mut [f32],
    stats: &mut [f32],
    blend_inputs: &mut [[f32; 2]],
) -> usize {
    let s = valid.len();
    let stride = padded(d);
    // What every raw load and store below relies on.
    assert!(feats.len() >= s * stride && sq.len() >= s * stride);
    assert_eq!(stats.len(), 2 * d + 2);
    let n_valid = valid.iter().filter(|&&ok| ok).count();
    if n_valid == 0 {
        return 0;
    }
    let count = _mm256_set1_ps(n_valid as f32);
    let seeing = || (0..s).filter(|&i| valid[i]);

    // Per channel: the mean, then the variance about it, each summed
    // over the seeing views in view order and divided once. The
    // squared differences are kept — the deviation sums the same
    // values along the other axis.
    for c in (0..d).step_by(LANES) {
        let mut sum = _mm256_setzero_ps();
        for i in seeing() {
            // SAFETY: `i < s` and `c + 8 <= stride`, so the eight
            // floats lie inside the first `s * stride` of `feats`.
            let row = unsafe { _mm256_loadu_ps(feats.as_ptr().add(i * stride + c)) };
            sum = _mm256_add_ps(sum, row);
        }
        let mean = _mm256_div_ps(sum, count);
        let mut sum = _mm256_setzero_ps();
        for i in seeing() {
            // SAFETY: as above, for `feats` and for `sq`.
            let row = unsafe { _mm256_loadu_ps(feats.as_ptr().add(i * stride + c)) };
            let diff = _mm256_sub_ps(row, mean);
            let diff_sq = _mm256_mul_ps(diff, diff);
            // SAFETY: as above.
            unsafe { _mm256_storeu_ps(sq.as_mut_ptr().add(i * stride + c), diff_sq) };
            sum = _mm256_add_ps(sum, diff_sq);
        }
        let var = _mm256_div_ps(sum, count);
        // The stats row is `d` wide per statistic, not padded.
        let live = LANES.min(d - c);
        let (mean_at, var_at) = (
            stats[c..c + live].as_mut_ptr(),
            stats[d + c..d + c + live].as_mut_ptr(),
        );
        if live == LANES {
            // SAFETY: both destinations are eight floats long.
            unsafe {
                _mm256_storeu_ps(mean_at, mean);
                _mm256_storeu_ps(var_at, var);
            }
        } else {
            let mask = tail_mask(live);
            // SAFETY: a masked store touches only the lanes whose mask
            // is set — the `live` floats each destination holds.
            unsafe {
                _mm256_maskstore_ps(mean_at, mask, mean);
                _mm256_maskstore_ps(var_at, mask, var);
            }
        }
    }

    // Mean direction similarity + valid fraction.
    let mean_sim: f32 = dir_sims
        .iter()
        .zip(valid.iter())
        .filter(|(_, &ok)| ok)
        .map(|(&sim, _)| sim)
        .sum::<f32>()
        / n_valid as f32;
    stats[2 * d] = mean_sim;
    stats[2 * d + 1] = n_valid as f32 / s as f32;

    // Per-view deviation from the mean feature: a sequential sum in
    // channel order per view, then `sqrt(·) / sqrt(d)` eight views at
    // a time.
    let root_d = _mm256_set1_ps((d as f32).sqrt());
    for first in (0..s).step_by(LANES) {
        let group = first..s.min(first + LANES);
        let mut sums = [0.0f32; LANES];
        for i in group.clone().filter(|&i| valid[i]) {
            sums[i - first] = sq[i * stride..i * stride + d].iter().sum::<f32>();
        }
        let devs = store8(_mm256_div_ps(_mm256_sqrt_ps(load8(&sums)), root_d));
        for i in group.filter(|&i| valid[i]) {
            blend_inputs[i] = [dir_sims[i], devs[i - first]];
        }
    }
    n_valid
}
