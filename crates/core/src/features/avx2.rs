//! The AVX2 block acquisition kernel: eight sample points per pass,
//! one lane each, from projection to the finished stats rows.
//!
//! The accelerator's preprocessing unit (projector, interpolator and
//! aggregation, paper Sec. 4.5) streams a *block* of samples against
//! **one source view at a time** — they fall along one epipolar line of
//! that view — and never returns to a per-point control path. This is
//! its software twin. [`acquire_view`] projects, clips, footprints,
//! fetches and direction-weights a block of up to eight points against
//! one view; [`reduce_block`] then folds the whole block's per-view
//! fetches into its eight stats rows with the **points still in the
//! lanes**: each view's eight fetched rows are transposed in registers
//! so that one vector holds one channel of all eight points, and mean,
//! variance and per-view deviation become vertical adds with no branch
//! per (point, view). The lanes need not belong to one ray — a block
//! carries a direction per lane, and `AggregateArena` tops a ray's
//! ragged tail up with the next ray's points.
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
//!   stored, and never read back unmasked;
//! * with the points in the lanes one vector add serves eight points
//!   that see different subsets of the views, so the scalar routine's
//!   `if valid[i]` becomes a **masked add**: the term of a lane that
//!   does not see the view is `and`-ed to `+0.0` *after* the multiply
//!   (its fetched row is stale scratch — possibly NaN or ∞ — and only
//!   the bit mask can silence that) and then added like any other.
//!   `acc + (+0.0)` is `acc` bit for bit unless `acc` is `-0.0`, and an
//!   accumulator that starts at `+0.0` never becomes `-0.0` under
//!   round-to-nearest (`x + y` is `-0.0` only when both are), so every
//!   lane's chain rounds exactly as the scalar chain that skipped the
//!   view. The deviation's terms need no mask at all: a lane that does
//!   not see the view never has its deviation read. The scalar
//!   deviation and similarity sums are `Iterator::sum`, which starts
//!   from `-0.0`; squares are never `-0.0`, so the vertical chain from
//!   `+0.0` agrees, and the similarity keeps the scalar expression;
//! * a lane no view sees divides `0 / 0`; its row is `and`-ed back to
//!   the all-zero row the scalar routine leaves.
//!
//! # Safety model
//!
//! As in `gen_nerf_nn::kernels::avx2`: the `#[target_feature]`
//! functions here are reached only from
//! `AggregateArena::flush_block` (itself one), which runs only on lanes
//! `push_points` formed while `kernels::active_backend()` was
//! `Backend::Avx2` — a backend that is never installed unless
//! `is_x86_feature_detected!("avx2")` passed.
//! Texel reads go through bounds-checked sub-slices of the feature map
//! and the image, and the reduce handles its scratch as slices of
//! eight-float arrays (`as_chunks`, `first_chunk` — bounds-checked
//! cuts), which [`load8`] / [`put8`] load and store whole. The
//! raw-pointer operations are the unaligned vector loads and stores
//! inside those helpers and in the tap loop — each on a slice or array
//! whose length is established right beside it — plus
//! [`scatter_columns`]' row-segment stores (eight or four floats at
//! `row · width + column`), which sit under the length assert at its
//! head.

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
/// form. Lanes past `n` hold whatever an earlier block left there and
/// are masked out of every result.
#[derive(Debug, Clone)]
pub(super) struct PointBlock {
    /// Occupied lanes.
    pub n: usize,
    /// Lane 0's point index in the arena the block belongs to (lane `l`
    /// is point `first + l`).
    pub first: usize,
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
            first: 0,
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

/// Where one block's Step 1 results land. The arena's per-(point, view)
/// planes, cut down to the block's points, are point-major (slot
/// `lane · n_views + view`); the fetch scratch [`reduce_block`] reads
/// is view-major (slot `view · LANES + lane`), so that a view's eight
/// rows lie together for the transpose.
pub(super) struct BlockPlanes<'a> {
    /// Channels fetched per view.
    pub d: usize,
    /// Source views per point.
    pub n_views: usize,
    /// One [`padded`]`(d)`-float feature row per view-major slot.
    pub feats: &'a mut [f32],
    /// One similarity per view-major slot.
    pub dir_sims: &'a mut [f32],
    /// Per view, the bit mask of the lanes that see it. Written for
    /// every view of every block — the one record of which scratch
    /// slots are live.
    pub seen: &'a mut [u32],
    pub view_colors: &'a mut [Vec3],
    pub valid: &'a mut [bool],
}

/// Floats of reduce scratch [`reduce_block`] needs beside the fetched
/// rows: the transposed tile (`n_views · d` vectors), one lane mask and
/// one deviation accumulator per view, and room for the finished
/// columns of either destination — the `2d + 2` of the stats rows, then
/// the `2 · n_views` of the blend inputs.
pub(super) fn reduce_scratch_len(n_views: usize, d: usize) -> usize {
    LANES * (n_views * d + 2 * n_views + (2 * d + 2).max(2 * n_views))
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
/// sees the view, writes its two slots of `planes` (the similarities
/// are stored for all eight lanes; an unseeing lane's is never read),
/// and records the seeing lanes in `planes.seen[view]`; other slots are
/// left untouched.
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
    planes.seen[view] = seen;
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
    planes.dir_sims[view * LANES..(view + 1) * LANES].copy_from_slice(&store8(dot3(dir, to_point)));

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
        let (slot, row) = (l * planes.n_views + view, view * LANES + l);
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
        let out = &mut planes.feats[row * stride..(row + 1) * stride];
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
        planes.valid[slot] = true;
    }
}

/// One value per lane of a block, as it lies in the reduce scratch.
type Lanes = [f32; LANES];

/// Stores `v` to the eight floats of `a`.
#[inline]
#[target_feature(enable = "avx2")]
fn put8(a: &mut Lanes, v: __m256) {
    // SAFETY: `a` is eight writable floats; `storeu` needs no alignment.
    unsafe { _mm256_storeu_ps(a.as_mut_ptr(), v) };
}

/// All bits of lane `l` set when bit `l` of `bits` is.
#[inline]
#[target_feature(enable = "avx2")]
fn lane_mask(bits: u32) -> __m256i {
    let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), bit), bit)
}

/// An 8×8 transpose: `out[j]` lane `l` is `r[l]` lane `j`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    // Pairs of rows interleaved, then pairs of pairs: `u[j]` holds
    // column `j % 4` (low half) and `j % 4 + 4` (high half) of rows
    // 0..4 (`j < 4`) or 4..8.
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    let u = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    [
        _mm256_permute2f128_ps::<0x20>(u[0], u[4]),
        _mm256_permute2f128_ps::<0x20>(u[1], u[5]),
        _mm256_permute2f128_ps::<0x20>(u[2], u[6]),
        _mm256_permute2f128_ps::<0x20>(u[3], u[7]),
        _mm256_permute2f128_ps::<0x31>(u[0], u[4]),
        _mm256_permute2f128_ps::<0x31>(u[1], u[5]),
        _mm256_permute2f128_ps::<0x31>(u[2], u[6]),
        _mm256_permute2f128_ps::<0x31>(u[3], u[7]),
    ]
}

/// The first four columns of eight rows, transposed: `out[j]` lane `l`
/// is `rows[l · stride + j]`. Half the shuffles of [`transpose8`] for a
/// channel group of four or fewer (the coarse stage's three, the last
/// four of the full width's twelve).
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8x4(rows: &[f32], stride: usize) -> [__m256; 4] {
    let quad = |l: usize| -> __m128 {
        let a: &[f32; 4] = rows[l * stride..].first_chunk().expect("four floats");
        // SAFETY: `a` is four readable floats; `loadu` needs no alignment.
        unsafe { _mm_loadu_ps(a.as_ptr()) }
    };
    // Row `l` beside row `l + 4`, so each 128-bit half transposes 4×4.
    let pair = |l: usize| _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(quad(l)), quad(l + 4));
    let (m0, m1, m2, m3) = (pair(0), pair(1), pair(2), pair(3));
    let t = [
        _mm256_unpacklo_ps(m0, m1),
        _mm256_unpackhi_ps(m0, m1),
        _mm256_unpacklo_ps(m2, m3),
        _mm256_unpackhi_ps(m2, m3),
    ];
    [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
    ]
}

/// Mean, variance and the deviation terms of channels `c0..c0 + N` for
/// all eight lanes: the scalar `add_assign` / `sq_diff_add` /
/// deviation chains of `fill_point`, as masked vertical adds in view
/// order (the module docs say why the bits agree). Leaves the `2N`
/// finished columns in `cols` and adds the channels' terms, in order,
/// to each seeing view's running deviation sum in `devs`.
#[inline]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // one block's registers and scratch, spelled out
fn reduce_channels<const N: usize>(
    c0: usize,
    d: usize,
    seen: &[u32],
    masks: &[Lanes],
    count: __m256,
    any: __m256,
    tile: &[Lanes],
    devs: &mut [Lanes],
    cols: &mut [Lanes],
) {
    let zero = _mm256_setzero_ps();
    // View `i`'s `N` channels, cut out under one bounds check.
    let channels =
        |i: usize| -> &[Lanes; N] { tile[i * d + c0..].first_chunk().expect("N channels") };

    // A view no lane sees adds `+0.0` everywhere: skipped whole.
    let seeing = || seen.iter().enumerate().filter(|(_, &bits)| bits != 0);

    let mut mean = [zero; N];
    for (i, _) in seeing() {
        let (sees, fetched) = (load8(&masks[i]), channels(i));
        for j in 0..N {
            mean[j] = _mm256_add_ps(mean[j], _mm256_and_ps(load8(&fetched[j]), sees));
        }
    }
    for sum in &mut mean {
        *sum = _mm256_div_ps(*sum, count);
    }

    let mut var = [zero; N];
    for (i, _) in seeing() {
        let (sees, fetched) = (load8(&masks[i]), channels(i));
        let mut dev = load8(&devs[i]);
        for j in 0..N {
            let diff = _mm256_sub_ps(load8(&fetched[j]), mean[j]);
            let diff_sq = _mm256_mul_ps(diff, diff);
            var[j] = _mm256_add_ps(var[j], _mm256_and_ps(diff_sq, sees));
            dev = _mm256_add_ps(dev, diff_sq);
        }
        put8(&mut devs[i], dev);
    }
    let (means, vars) = cols[c0..].split_at_mut(d);
    for j in 0..N {
        put8(&mut means[j], _mm256_and_ps(mean[j], any));
        put8(
            &mut vars[j],
            _mm256_and_ps(_mm256_div_ps(var[j], count), any),
        );
    }
}

/// Writes `cols.len()` finished columns (`cols[j]` is column `j` for
/// the eight lanes) as the first `n` rows of `rows`, `cols.len()`
/// floats each: eight columns at a time through [`transpose8`] and one
/// eight-float store per row, then four at a time, and what is left
/// float by float.
#[inline]
#[target_feature(enable = "avx2")]
fn scatter_columns(cols: &[Lanes], n: usize, rows: &mut [f32]) {
    let width = cols.len();
    // What the row stores below rely on.
    assert!(n <= LANES && rows.len() == n * width);
    let mut c = 0;
    while c + LANES <= width {
        let group: &[Lanes; LANES] = cols[c..].first_chunk().expect("eight columns");
        let t = transpose8(std::array::from_fn(|j| load8(&group[j])));
        for (l, &row) in t.iter().enumerate().take(n) {
            // SAFETY: `l < n` and `c + 8 <= width`, so the eight floats
            // lie inside the `n · width` of `rows` asserted above.
            unsafe { _mm256_storeu_ps(rows.as_mut_ptr().add(l * width + c), row) };
        }
        c += LANES;
    }
    if c + 4 <= width {
        // Four columns → rows `l` (low half) and `l + 4` (high half).
        let group: &[Lanes; 4] = cols[c..].first_chunk().expect("four columns");
        let col: [__m256; 4] = std::array::from_fn(|j| load8(&group[j]));
        let t = [
            _mm256_unpacklo_ps(col[0], col[1]),
            _mm256_unpackhi_ps(col[0], col[1]),
            _mm256_unpacklo_ps(col[2], col[3]),
            _mm256_unpackhi_ps(col[2], col[3]),
        ];
        let pair = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        ];
        for l in 0..n {
            let row = if l < 4 {
                _mm256_castps256_ps128(pair[l])
            } else {
                _mm256_extractf128_ps::<1>(pair[l - 4])
            };
            // SAFETY: `l < n` and `c + 4 <= width`, so the four floats
            // lie inside the `n · width` of `rows` asserted above.
            unsafe { _mm_storeu_ps(rows.as_mut_ptr().add(l * width + c), row) };
        }
        c += 4;
    }
    for (j, col) in cols.iter().enumerate().skip(c) {
        for l in 0..n {
            rows[l * width + j] = col[l];
        }
    }
}

/// Lane `l`'s mean direction similarity over the `count` views that
/// see it — `fill_point`'s expression. Not a `#[target_feature]`
/// function on purpose: its closures would inherit the feature, and
/// `Iterator::sum`, which has none, could then not inline them.
#[inline]
fn mean_similarity(dir_sims: &[f32], seen: &[u32], l: usize, count: u32) -> f32 {
    let seeing = seen
        .iter()
        .enumerate()
        .filter(|(_, &bits)| bits >> l & 1 == 1);
    seeing.map(|(i, _)| dir_sims[i * LANES + l]).sum::<f32>() / count as f32
}

/// Step 2 for one block: the second half of the scalar `fill_point`
/// (mean, variance, mean direction similarity, valid fraction and the
/// per-view deviation) for all of the block's points at once, one
/// point per lane.
///
/// `feats` / `dir_sims` / `seen` are what Step 1 left in
/// [`BlockPlanes`] for the block's `n` points; `scratch` is at least
/// [`reduce_scratch_len`] floats whose contents do not matter. `stats`
/// (`n` rows of `2d + 2`), `blend_inputs` (`n · n_views`, point-major)
/// and `n_valid` (`n`) are the block's rows of the arena; they must
/// arrive zeroed, and a point no view sees keeps its zeros. Returns the
/// block's valid (point, view) pairs.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // the SoA destination, spelled out
pub(super) fn reduce_block(
    d: usize,
    n: usize,
    feats: &[f32],
    dir_sims: &[f32],
    seen: &[u32],
    scratch: &mut [f32],
    stats: &mut [f32],
    blend_inputs: &mut [[f32; 2]],
    n_valid: &mut [usize],
) -> usize {
    let s = seen.len();
    let stride = padded(d);
    let width = 2 * d + 2;
    assert!(n <= LANES && feats.len() >= s * LANES * stride && dir_sims.len() >= s * LANES);
    assert!(scratch.len() >= reduce_scratch_len(s, d));
    assert!(stats.len() == n * width && blend_inputs.len() == n * s && n_valid.len() == n);
    let (scratch, _) = scratch.as_chunks_mut::<LANES>();
    let (tile, rest) = scratch.split_at_mut(s * d);
    let (masks, rest) = rest.split_at_mut(s);
    let (devs, cols) = rest.split_at_mut(s);

    // Views per lane, and each view's lane mask. Lanes past `n` are in
    // no view's mask.
    let zero_i = _mm256_setzero_si256();
    let mut count_i = zero_i;
    for (&bits, mask) in seen.iter().zip(masks.iter_mut()) {
        debug_assert_eq!(bits >> n, 0, "a lane past the block's points sees a view");
        let sees = lane_mask(bits);
        count_i = _mm256_sub_epi32(count_i, sees);
        put8(mask, _mm256_castsi256_ps(sees));
    }
    let counts = store8i(count_i);
    let pairs: usize = counts.iter().map(|&c| c as usize).sum();
    if pairs == 0 {
        return 0;
    }
    for (out, &c) in n_valid.iter_mut().zip(&counts) {
        *out = c as usize;
    }
    let count = _mm256_cvtepi32_ps(count_i);
    let any = _mm256_castsi256_ps(_mm256_cmpgt_epi32(count_i, zero_i));

    // Points into the lanes: `tile[i · d + c]` is channel `c` of view
    // `i` for the eight points. A lane that does not see the view
    // contributes whatever its scratch row held; the masks keep it out
    // of every sum — all of a view nobody sees, which is not even
    // transposed.
    for (i, _) in seen.iter().enumerate().filter(|(_, &bits)| bits != 0) {
        let rows = &feats[i * LANES * stride..(i + 1) * LANES * stride];
        let out = &mut tile[i * d..(i + 1) * d];
        let mut c = 0;
        while c < d && d - c > 4 {
            let r = std::array::from_fn(|l| {
                let row: &Lanes = rows[l * stride + c..].first_chunk().expect("eight floats");
                load8(row)
            });
            for (dst, col) in out[c..].iter_mut().zip(transpose8(r)) {
                put8(dst, col);
            }
            c += LANES;
        }
        if c < d {
            for (dst, col) in out[c..].iter_mut().zip(transpose8x4(&rows[c..], stride)) {
                put8(dst, col);
            }
        }
    }

    // Mean and variance per channel, deviation per view — four
    // channels' accumulators at a time stay in registers.
    devs.fill([0.0; LANES]);
    let mut c0 = 0;
    while c0 < d {
        match d - c0 {
            1 => reduce_channels::<1>(c0, d, seen, masks, count, any, tile, devs, cols),
            2 => reduce_channels::<2>(c0, d, seen, masks, count, any, tile, devs, cols),
            3 => reduce_channels::<3>(c0, d, seen, masks, count, any, tile, devs, cols),
            _ => reduce_channels::<4>(c0, d, seen, masks, count, any, tile, devs, cols),
        }
        c0 += 4;
    }

    // Mean direction similarity (the scalar expression, per lane) and
    // valid fraction — the last two stats columns.
    let mut mean_sims = [0.0f32; LANES];
    for (l, mean_sim) in mean_sims.iter_mut().enumerate().take(n) {
        if counts[l] != 0 {
            *mean_sim = mean_similarity(dir_sims, seen, l, counts[l]);
        }
    }
    cols[2 * d] = mean_sims;
    put8(
        &mut cols[2 * d + 1],
        _mm256_div_ps(count, _mm256_set1_ps(s as f32)),
    );
    scatter_columns(&cols[..width], n, stats);

    // Per view, the blend input `[similarity, sqrt(Σ) / sqrt(d)]` of the
    // eight lanes, `and`-ed to the `[0, 0]` the row arrived with where
    // the lane does not see the view; then the columns into rows again.
    let root_d = _mm256_set1_ps((d as f32).sqrt());
    let (sims, _) = dir_sims.as_chunks::<LANES>();
    for (i, pair) in cols[..2 * s].chunks_exact_mut(2).enumerate() {
        let sees = load8(&masks[i]);
        let dev = _mm256_div_ps(_mm256_sqrt_ps(load8(&devs[i])), root_d);
        put8(&mut pair[0], _mm256_and_ps(load8(&sims[i]), sees));
        put8(&mut pair[1], _mm256_and_ps(dev, sees));
    }
    scatter_columns(&cols[..2 * s], n, blend_inputs.as_flattened_mut());
    pairs
}
