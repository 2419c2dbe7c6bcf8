//! The workload scheduler: greedy 3D-point-patch partition (paper
//! Sec. 4.3, Fig. 5).
//!
//! The scheduler walks the `H × W × D` workload cube from the top-left
//! of the near plane, and for each unassigned region greedily picks the
//! patch-shape candidate `δh × δw × δd` whose frusta project to the
//! smallest total area on the source views *per contained point* — the
//! area calculator's memory-traffic estimate — subject to the
//! prefetch-buffer capacity. Two constraints from the paper:
//!
//! 1. patches at the same `(h, w)` but different depth share the same
//!    shape (eases color accumulation in Step 5), and
//! 2. no patch's fetch footprint may exceed the prefetch buffer.
//!
//! # Cost of the search
//!
//! At the paper's configuration (252×189, 64 + 16 depths, 6 + 4 views)
//! the search scores 91 shapes at each of a few hundred tile origins,
//! each over the whole depth column and every source view: some 283 K
//! frustum footprints per frame if each were computed on its own. Six
//! things keep that cheap without moving a single bit of the result.
//!
//! **Vertices are projected once.** Candidates at one origin share
//! almost all of their vertices: the 13 default tiles have 26 distinct
//! corner rays between them, and slice boundaries are shared along
//! depth (the far plane of slice `[d0, d0 + dd)` is the near plane of
//! the next). `VertexMemo` — the software twin of the paper's vertex
//! projector — traces each corner ray once per origin, evaluates it at
//! depth plane `k` at most once and projects that point onto every
//! source at most once; a footprint then *gathers* its eight
//! projections, in the order the frustum's corners would have produced
//! them, and hulls them on the stack. Gathering keeps the bits because
//! every stored value comes from the expression the direct computation
//! evaluates — `pixel_ray`, `ray.at(t_k)`, `project` — with the same
//! operands in the same order; there is deliberately no closed form
//! along the epipolar line (`(A + t·B) / (C + t·D)` rounds
//! differently). Planes are keyed by index only while the two clamps
//! on a slice's depths (`t ≥ 1e-3`, thickness `≥ 1e-4`) leave them
//! alone, which the plane values themselves tell (`depth_slice`
//! evaluates the same expressions); a slice on which either binds is
//! computed directly from its frustum.
//!
//! **The search is best-first and bounded.** The rule is the one a
//! plain scan in list order implements — lowest bytes per point wins,
//! and on a tie the shape listed first — stated as the lexicographic
//! minimum of `(score, index)`, where `index` is the shape's position
//! among the clamped, deduplicated candidates. Under that rule the
//! order of evaluation is free, so the previous origin's winner goes
//! first and the rest follow by descending tile area, and a candidate
//! is abandoned as soon as `lost` holds of a lower bound on its
//! bytes-per-point: the bound is above the best score, or equal to it
//! with a larger index. `lost` is monotone — both conditions persist as
//! the bytes grow, and `bytes as f64 / points as f64` never decreases
//! when `bytes` grows — so a candidate it rejects on a lower bound of
//! its total would be rejected on the total itself: it could not have
//! won. (A candidate abandoned before the slice that would have
//! overflowed the buffer loses either way.) The tie rule matters: where
//! the frame sees none of the sources every shape scores zero and the
//! first listed one, a `1×1×4` column, must still win.
//!
//! **Losing shapes are dropped on a bound before they are hulled**
//! (branch and bound, Land & Doig 1960). `score` takes two passes over
//! a candidate's slices, both far to near:
//!
//! 1. It sums `VertexMemo::footprint_lb` over the slices and views,
//!    and drops the candidate as soon as one slice's bound overflows
//!    the buffer or `lost` holds of the running sum.
//! 2. Otherwise it scores the slices exactly, as before, but what it
//!    hands `lost` is the exact bytes so far plus the bounds of the
//!    slices not yet scored.
//!
//! Each slice's bound is at most its bytes, so every rejection in
//! either pass is one the exact total would also make (above), a slice
//! whose bound overflows the buffer overflows it, and a survivor is
//! scored to its exact total. So `score` returns what it returned
//! without the bounds for every candidate, and the `(score, index)`
//! winner and its tie rule cannot move. The first candidate at an
//! origin has no score to beat, so it skips the first pass. On the
//! paper's frame this cuts the footprints computed in full from 69,582
//! to 10,371 (focused) and from 16,962 to 4,275 (coarse), for ≈ 122 K
//! per-view bounds.
//!
//! The bound needs no hull. For a slice whose eight corners all
//! project, with `w × h` the box of the projections, `f` the share of
//! that box inside the image and `r` the largest coordinate magnitude,
//! it is
//!
//! `(½·A + 2·√(w² + h²) + 4) · (f − 2⁻¹²) − 2⁻¹⁵·r² − 1` texels,
//!
//! where `A` is the largest |shoelace| over the near cap `(0, 1, 2, 3)`,
//! the far cap `(4, 5, 6, 7)` and the two diagonal sweeps `(0, 2, 6,
//! 4)` and `(1, 3, 7, 5)`, and 0 when a corner is behind the camera,
//! the slice is clamped, the box is thinner than 2⁻¹⁰ texel or lies off
//! the image. In exact arithmetic each term is at most its counterpart
//! in `Footprint::from_corners`:
//!
//! * a closed path through four vertices winds at most once around any
//!   point, and never outside their hull, so ½·|shoelace| is at most
//!   the area of the hull of all eight;
//! * the hull touches all four sides of its box, and a closed path that
//!   touches all four sides of a `w × h` box is at least `2·√(w² + h²)`
//!   long (reflect it across two sides and it joins opposite corners of
//!   a `2w × 2h` box);
//! * the hull's extreme vertices are the extreme projections, so its
//!   box, and the visible share `from_corners` scales by, is `f`'s.
//!
//! The margin covers `from_corners`' f32 arithmetic. Its shoelace
//! cancels terms as large as `r²`, so it, and the bound's own, can be
//! off by some hundreds of ulps of `r²`, under 2⁻¹⁶·r²; the hull's
//! collinear pops and 1e-9 dedup can shrink its box by a few ulps of its
//! sides and by 1e-8, which moves `f` by far less than 2⁻¹², since the
//! box is at least 2⁻¹⁰ wide; sums, square roots and quotients are off
//! by a few ulps, far below 2⁻¹²; and the last texel covers the rest,
//! which the ceiling only helps. `prop_footprint_bound_is_admissible`
//! checks it on random and adversarial corner sets, and a bound
//! inflated by 1.5× fails it and the oracle tests.
//!
//! The bound pass is now the larger cost, so it is evaluated for
//! `LANES` views at once, branch-free, from a projection table laid
//! out as separate `x`, `y` and in-front arrays with each row padded to
//! whole lanes; no bound pass allocates.
//!
//! **Footprints are scored far first, and few are hulled.** Three more
//! exact changes cut the focused stage of the paper's frame from
//! 86,839 footprints to 69,582 before the bounds, and skip the hull of
//! every empty one:
//!
//! * A candidate's slices are scored far to near, where its frusta are
//!   widest and a loser crosses the bound soonest; `emit_column` still
//!   emits near to far. The order is free: the bytes are a `u64` sum,
//!   which commutes; both ways to abandon a candidate — one slice over
//!   the buffer, and `lost` on a running sum that only grows — reject
//!   it in some order iff they reject it in every order; and the memo
//!   holds the same values whichever slice asks first.
//! * A footprint whose projections all lie on or beyond one border of
//!   the source image — left, right, top or bottom — is `EMPTY` before
//!   it is sorted or hulled. The hull's vertices are some of those
//!   projections, so its bounding box lies inside theirs and would
//!   clip to nothing on the same side.
//! * The hull is cheaper in place: [`convex_hull_into`] sorts by
//!   insertion, which is what `sort_by` runs on eight points, with the
//!   same comparator evaluated without a branch, and takes a dedup
//!   square root only for points within 4e-9 on both axes, since any
//!   farther pair is farther than the 1e-9 radius after rounding. Area
//!   and perimeter are summed in one walk of the closed hull, edge by
//!   edge from vertex 0, which is the order `polygon_area` and a
//!   per-edge sum add them in.
//!
//! **Free rectangles are known, not checked.** The scan visits the
//! origins row by row, left to right, and places a tile at every pixel
//! of row `v₀` still unassigned before it moves on to row `v₀ + 1`; so
//! on reaching row `v₀` every row above it is assigned. The assigned
//! pixels of each column are then the rows above some first free row,
//! by induction: at the start no pixel is assigned, and a `δu × δv`
//! tile placed at `(u₀, v₀)` covers only columns that are free at row
//! `v₀`, so their first free row moves from `v₀` to `v₀ + δv`. One row
//! index per column, a skyline, is the whole mask, and at the origin a
//! column free at row `v₀` is free down to the bottom of the frame. So
//! the free extent is the run of columns from `u₀` whose first free row
//! is `v₀`, by `height − v₀` rows, and every clamped `δu × δv` at the
//! origin lies inside it: it is free. The mask's cell-by-cell check
//! could only have said so, and the partition holds `width` words
//! instead of `width × height` flags (1 KB against 47 KB on the
//! paper's frame). The oracle in the tests keeps the mask and the
//! check, and `prop_partitions_match_oracle_*` hold the two to the same
//! patches. Two clamped shapes can be equal only on the same clamped
//! tile, so each is deduplicated against the depths already listed on
//! its tile, not against every shape listed before it. Together the
//! skyline and the per-tile dedup take a partition of the paper's
//! frame from ≈ 1.8 to ≈ 1.45 ms (coarse) and from ≈ 4.5 to ≈ 4.15 ms
//! (focused) on one thread of a 2-vCPU AVX2 host.
//!
//! **Nothing outlives the call.** The memo, its bound scratch, the
//! skyline and the candidate lists are owned by one `partition` call
//! and freed on return; a second call with the same arguments does all
//! of the work again. Callers that repeat a frame (the benchmark's
//! closed loop) measure the search, not a lookup.

use gen_nerf_geometry::epipolar::convex_hull_into;
use gen_nerf_geometry::{Camera, Frustum, Intrinsics, Pose, Ray, Vec2, Vec3};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// The camera arrangement a frame is rendered under.
#[derive(Debug, Clone)]
pub struct CameraRig {
    /// The user's novel view.
    pub novel: Camera,
    /// Source views holding the scene features.
    pub sources: Vec<Camera>,
    /// Near depth bound along novel rays.
    pub t_near: f32,
    /// Far depth bound along novel rays.
    pub t_far: f32,
}

impl CameraRig {
    /// A standard object-orbit rig (NeRF-Synthetic-like): the novel
    /// camera at distance 4.2 from the origin, `n_sources` source
    /// cameras on a ±60° arc around the novel azimuth — generalizable
    /// NeRFs condition on the source views *closest* to the user's
    /// view direction (Sec. 3.2), so the rig mirrors that selection.
    ///
    /// # Panics
    ///
    /// Panics if `n_sources == 0`.
    pub fn orbit(width: u32, height: u32, n_sources: usize) -> Self {
        assert!(n_sources > 0, "need at least one source view");
        let intr = Intrinsics::from_fov(width, height, 0.69);
        // Novel camera at azimuth 0.
        let novel = Camera::new(
            intr,
            Pose::look_at(Vec3::new(4.2, 1.6, 0.0), Vec3::ZERO, Vec3::Y),
        );
        let arc = std::f32::consts::FRAC_PI_3; // ±60°
        let sources = (0..n_sources)
            .map(|i| {
                let f = if n_sources > 1 {
                    i as f32 / (n_sources - 1) as f32
                } else {
                    0.5
                };
                let phi = (f - 0.5) * 2.0 * arc;
                let eye = Vec3::new(4.0 * phi.cos(), 1.2 + 0.4 * (i % 2) as f32, 4.0 * phi.sin());
                Camera::new(intr, Pose::look_at(eye, Vec3::ZERO, Vec3::Y))
            })
            .collect();
        Self {
            novel,
            sources,
            t_near: 2.2,
            t_far: 6.2,
        }
    }

    /// Depth (ray parameter) range of sample-index slice `[d0, d0+dd)`
    /// out of `n_depth` samples.
    pub fn depth_slice(&self, d0: u32, dd: u32, n_depth: u32) -> (f32, f32) {
        let span = self.t_far - self.t_near;
        let lo = self.t_near + span * d0 as f32 / n_depth as f32;
        let hi = self.t_near + span * (d0 + dd) as f32 / n_depth as f32;
        (lo, hi.max(lo + 1e-4))
    }
}

/// A patch-shape candidate (pixels × pixels × depth samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PatchShape {
    /// Tile height in pixels (δh).
    pub dh: u32,
    /// Tile width in pixels (δw).
    pub dw: u32,
    /// Depth samples per slice (δd).
    pub dd: u32,
}

/// One scheduled point patch with its per-view fetch footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Patch {
    /// Tile origin column.
    pub u0: u32,
    /// Tile origin row.
    pub v0: u32,
    /// Tile width (clamped at the image edge).
    pub du: u32,
    /// Tile height (clamped at the image edge).
    pub dv: u32,
    /// First depth-sample index.
    pub d0: u32,
    /// Depth samples in this slice (clamped at `n_depth`).
    pub dd: u32,
    /// Estimated texels fetched per source view (hull area, dilated for
    /// bilinear taps, clipped to the source image).
    pub texels_per_view: Vec<u64>,
    /// Per-view hull bounding boxes `(x0, y0, x1, y1)` in source texels
    /// (clipped), used to synthesize DRAM requests.
    pub bbox_per_view: Vec<(u32, u32, u32, u32)>,
}

impl Patch {
    /// Sampled points in the patch.
    pub fn points(&self) -> u64 {
        self.du as u64 * self.dv as u64 * self.dd as u64
    }

    /// Total estimated texels over all views.
    pub fn total_texels(&self) -> u64 {
        self.texels_per_view.iter().sum()
    }
}

#[cfg(test)]
thread_local! {
    /// Footprints the calling thread has computed in full.
    static FOOTPRINTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Footprints the calling thread has computed in full so far — hulled,
/// or found off the image first — which is what the pruning saves.
#[cfg(test)]
fn footprints() -> u64 {
    FOOTPRINTS.with(|c| c.get())
}

/// Source views whose footprint bounds are taken at once, one a lane.
const LANES: usize = 4;

/// Below this extent on either axis the bound gives up (module docs).
const BOUND_MIN_EXTENT: f32 = 1.0 / 1024.0;

/// The bound's margin for the f32 rounding of the hull's estimate, as a
/// share of its dilated area; one texel more is taken off (module docs).
const BOUND_SLACK: f32 = 1.0 / 4096.0;

/// The rest of that margin, as a share of the squared largest
/// coordinate magnitude, on which the shoelace's rounding scales.
const BOUND_SLACK_C2: f32 = 1.0 / 32768.0;

/// Footprint estimate of one frustum on one source view.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    texels: u64,
    bbox: (u32, u32, u32, u32),
}

impl Footprint {
    const EMPTY: Self = Self {
        texels: 0,
        bbox: (0, 0, 0, 0),
    };

    /// Estimates the fetch footprint on `source` of a frustum whose
    /// corners project to `corners` (`None` for a corner behind the
    /// camera), given in [`Frustum::world_corners`] order.
    fn from_corners(corners: impl Iterator<Item = Option<Vec2>>, source: &Camera) -> Self {
        #[cfg(test)]
        FOOTPRINTS.with(|c| c.set(c.get() + 1));
        let (sw, sh) = (
            source.intrinsics.width as f32,
            source.intrinsics.height as f32,
        );
        let mut projections = [Vec2::ZERO; 8];
        let mut visible = 0;
        // Whether every projection lies on or beyond the image's left,
        // right, top or bottom border (a NaN coordinate clears them).
        let mut beyond = [true; 4];
        for uv in corners.flatten() {
            projections[visible] = uv;
            visible += 1;
            beyond[0] &= uv.x <= 0.0;
            beyond[1] &= uv.x >= sw;
            beyond[2] &= uv.y <= 0.0;
            beyond[3] &= uv.y >= sh;
        }
        // The hull's vertices are projections, so its bounding box
        // would clip to nothing on the same side (module docs).
        if visible < 3 || beyond.contains(&true) {
            return Self::EMPTY;
        }
        let mut hull = [Vec2::ZERO; 16];
        let n = convex_hull_into(&mut projections[..visible], &mut hull);
        let hull = &hull[..n];
        // Shoelace area and perimeter in one walk of the closed
        // polygon, each summed edge by edge from vertex 0 as
        // `polygon_area` and a per-edge `length` sum would.
        let mut twice_area = 0.0f32;
        let mut perimeter = 0.0f32;
        let mut p = hull[0];
        for &q in hull[1..].iter().chain(&hull[..1]) {
            twice_area += p.cross(q);
            perimeter += (q - p).length();
            p = q;
        }
        let area = if n < 3 { 0.0 } else { twice_area.abs() * 0.5 };
        // Dilate by one texel on each side for the bilinear taps.
        let dilated = area + perimeter + 4.0;

        // Clip the bounding box to the source image; scale the texel
        // estimate by the visible fraction of the bbox.
        let mut min = hull[0];
        let mut max = hull[0];
        for &p in hull {
            min = min.min(p);
            max = max.max(p);
        }
        let bbox_area = ((max.x - min.x) * (max.y - min.y)).max(1e-6);
        let cx0 = min.x.max(0.0);
        let cy0 = min.y.max(0.0);
        let cx1 = max.x.min(sw);
        let cy1 = max.y.min(sh);
        if cx1 <= cx0 || cy1 <= cy0 {
            return Self::EMPTY;
        }
        let visible = ((cx1 - cx0) * (cy1 - cy0)) / bbox_area;
        let texels = (dilated * visible.clamp(0.0, 1.0)).ceil() as u64;
        Self {
            texels,
            bbox: (cx0 as u32, cy0 as u32, cx1.ceil() as u32, cy1.ceil() as u32),
        }
    }

    /// For each lane, a lower bound on the footprint's texels that
    /// takes no hull: `from_corners` of the lane's eight corners on its
    /// source view, 0 where the lane is not `seen` (module docs, "Cost
    /// of the search", for the bound and its margin).
    fn texels_lb(lanes: &CornerLanes) -> [u64; LANES] {
        let CornerLanes {
            x,
            y,
            seen,
            width,
            height,
        } = lanes;
        // Twice the signed areas of the near cap, the far cap, and the
        // two planes through opposite side edges.
        let shoelace = |[a, b, c, d]: [usize; 4]| {
            lane_map(|v| {
                let cross = |i: usize, j: usize| x[i][v] * y[j][v] - y[i][v] * x[j][v];
                cross(a, b) + cross(b, c) + cross(c, d) + cross(d, a)
            })
        };
        let (near, far) = (shoelace([0, 1, 2, 3]), shoelace([4, 5, 6, 7]));
        let (sweep, other) = (shoelace([0, 2, 6, 4]), shoelace([1, 3, 7, 5]));
        let (mut x0, mut x1, mut y0, mut y1) = (x[0], x[0], y[0], y[0]);
        for i in 1..8 {
            x0 = lane_map(|v| if x[i][v] < x0[v] { x[i][v] } else { x0[v] });
            x1 = lane_map(|v| if x[i][v] > x1[v] { x[i][v] } else { x1[v] });
            y0 = lane_map(|v| if y[i][v] < y0[v] { y[i][v] } else { y0[v] });
            y1 = lane_map(|v| if y[i][v] > y1[v] { y[i][v] } else { y1[v] });
        }
        let bounds = lane_map(|v| {
            let twice_area = near[v]
                .abs()
                .max(far[v].abs())
                .max(sweep[v].abs())
                .max(other[v].abs());
            let (w, h) = (x1[v] - x0[v], y1[v] - y0[v]);
            let clip_w = x1[v].min(width[v]) - x0[v].max(0.0);
            let clip_h = y1[v].min(height[v]) - y0[v].max(0.0);
            let visible = (clip_w * clip_h / (w * h)).min(1.0);
            let reach = x0[v]
                .abs()
                .max(x1[v].abs())
                .max(y0[v].abs())
                .max(y1[v].abs());
            let dilated = 0.5 * twice_area + 2.0 * (w * w + h * h).sqrt() + 4.0;
            let lb = dilated * (visible - BOUND_SLACK) - BOUND_SLACK_C2 * reach * reach - 1.0;
            // The caps hold every corner: a NaN or infinite one shows
            // in their sum.
            let bounded = (near[v] + far[v]).is_finite()
                & (w >= BOUND_MIN_EXTENT)
                & (h >= BOUND_MIN_EXTENT)
                & (clip_w > 0.0)
                & (clip_h > 0.0);
            if bounded {
                lb
            } else {
                0.0
            }
        });
        // A negative bound saturates to 0.
        std::array::from_fn(|v| if seen[v] { bounds[v] as u64 } else { 0 })
    }
}

/// `[f(0), f(1), …]` over the lanes, in a loop simple enough for the
/// compiler to run the lanes side by side.
#[inline(always)]
fn lane_map(f: impl Fn(usize) -> f32) -> [f32; LANES] {
    let mut out = [0.0; LANES];
    for (v, out) in out.iter_mut().enumerate() {
        *out = f(v);
    }
    out
}

/// One slice's eight corners, in [`Frustum::world_corners`] order, on
/// up to [`LANES`] source views: lane `v` holds view `v`'s projections
/// and image size, and is `seen` only when all eight project.
#[derive(Default)]
struct CornerLanes {
    x: [[f32; LANES]; 8],
    y: [[f32; LANES]; 8],
    seen: [bool; LANES],
    width: [f32; LANES],
    height: [f32; LANES],
}

/// A `du × dv` pixel tile at a [`VertexMemo`]'s origin.
#[derive(Debug, Clone, Copy)]
struct Tile {
    du: u32,
    dv: u32,
    /// Its corner rays (indices into the memo), in the order
    /// [`Frustum::world_corners`] visits the rectangle's corners.
    corners: [usize; 4],
}

/// What the vertex projector remembers while one tile origin is under
/// evaluation: corner rays, and their projections onto every source
/// view at the depth planes touched so far (module docs, "Cost of the
/// search"). Owned by one `partition` call and reused across origins.
struct VertexMemo<'a> {
    rig: &'a CameraRig,
    n_depth: u32,
    /// Ray parameter of depth plane `k ∈ 0..=n_depth`; slice
    /// `[d0, d0 + dd)` lies between planes `d0` and `d0 + dd`.
    planes: Vec<f32>,
    origin: (u32, u32),
    /// Corner rays traced at `origin`, keyed by pixel offset from it.
    rays: Vec<((u32, u32), Ray)>,
    /// `[ray][plane][view]` projections, each row `[ray][plane]`
    /// padded to `stride` views: where `seen`, the point projects to
    /// `(xs, ys)`; the padding is never seen. A row is valid once
    /// `projected[ray][plane]`.
    xs: Vec<f32>,
    ys: Vec<f32>,
    seen: Vec<bool>,
    projected: Vec<bool>,
    /// The source views rounded up to whole [`LANES`].
    stride: usize,
    /// Image sizes of the source views, padded as a row is.
    widths: Vec<f32>,
    heights: Vec<f32>,
    /// The slice bounds of the candidate under score, far to near.
    bounds: Vec<u64>,
}

impl<'a> VertexMemo<'a> {
    fn new(rig: &'a CameraRig, n_depth: u32) -> Self {
        let stride = rig.sources.len().next_multiple_of(LANES);
        let sizes = |size: fn(&Camera) -> u32| {
            let mut sizes: Vec<f32> = rig.sources.iter().map(|s| size(s) as f32).collect();
            sizes.resize(stride, 0.0);
            sizes
        };
        Self {
            rig,
            n_depth,
            planes: (0..=n_depth)
                .map(|k| rig.depth_slice(k, 0, n_depth).0)
                .collect(),
            origin: (0, 0),
            rays: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            seen: Vec::new(),
            projected: Vec::new(),
            stride,
            widths: sizes(|s| s.intrinsics.width),
            heights: sizes(|s| s.intrinsics.height),
            bounds: Vec::new(),
        }
    }

    /// Forgets everything about the previous origin.
    fn move_to(&mut self, u0: u32, v0: u32) {
        self.origin = (u0, v0);
        self.rays.clear();
        self.projected.fill(false);
    }

    /// The corner ray at pixel offset `offset` from the origin, traced
    /// on first use.
    fn corner(&mut self, offset: (u32, u32)) -> usize {
        if let Some(i) = self.rays.iter().position(|&(o, _)| o == offset) {
            return i;
        }
        let (u0, v0) = self.origin;
        let ray = self
            .rig
            .novel
            .pixel_ray((u0 + offset.0) as f32, (v0 + offset.1) as f32);
        self.rays.push((offset, ray));
        let rows = self.rays.len() * self.planes.len();
        if self.projected.len() < rows {
            self.projected.resize(rows, false);
            self.xs.resize(rows * self.stride, 0.0);
            self.ys.resize(rows * self.stride, 0.0);
            self.seen.resize(rows * self.stride, false);
        }
        self.rays.len() - 1
    }

    fn tile(&mut self, du: u32, dv: u32) -> Tile {
        Tile {
            du,
            dv,
            corners: [(0, 0), (du, 0), (du, dv), (0, dv)].map(|offset| self.corner(offset)),
        }
    }

    /// Row of corner ray `ray` at depth plane `k`, projected on first
    /// use.
    fn row(&mut self, ray: usize, k: u32) -> usize {
        let row = ray * self.planes.len() + k as usize;
        if !self.projected[row] {
            let point = self.rays[ray].1.at(self.planes[k as usize]);
            for (view, source) in self.rig.sources.iter().enumerate() {
                let at = row * self.stride + view;
                let uv = source.project(point);
                self.seen[at] = uv.is_some();
                (self.xs[at], self.ys[at]) = uv.map_or((0.0, 0.0), |uv| (uv.x, uv.y));
            }
            self.projected[row] = true;
        }
        row
    }

    /// Locates the corners of `tile`'s frustum over depth slice
    /// `[d0, d0 + dd)`, projecting whatever the memo has not seen yet.
    ///
    /// # Panics
    ///
    /// Panics as [`Frustum::new`] does when the slice's depth range is
    /// empty or negative.
    fn slice(&mut self, tile: &Tile, d0: u32, dd: u32) -> SliceCorners {
        // `depth_slice` evaluates the expressions the planes hold and
        // returns `(near, far.max(near + 1e-4))`; the frustum takes the
        // near depth `.max(1e-3)` and needs `far > near`.
        let (near, far) = (self.planes[d0 as usize], self.planes[(d0 + dd) as usize]);
        let on_planes = near.max(1e-3) == near && far.max(near + 1e-4) == far && far > near;
        if !on_planes {
            // A clamp moved one of the slice's depths off its plane:
            // this frustum's corners are its own.
            let (u0, v0) = self.origin;
            let (t_lo, t_hi) = self.rig.depth_slice(d0, dd, self.n_depth);
            let frustum = Frustum::new(
                Vec2::new(u0 as f32, v0 as f32),
                Vec2::new((u0 + tile.du) as f32, (v0 + tile.dv) as f32),
                t_lo.max(1e-3),
                t_hi,
            );
            return SliceCorners::World(frustum.world_corners(&self.rig.novel));
        }
        let mut rows = [0usize; 8];
        for (i, &ray) in tile.corners.iter().enumerate() {
            rows[i] = self.row(ray, d0);
            rows[i + 4] = self.row(ray, d0 + dd);
        }
        SliceCorners::Rows(rows)
    }

    /// Footprint on source view `view` of the frustum whose corners
    /// [`VertexMemo::slice`] located.
    fn footprint(&self, corners: &SliceCorners, view: usize) -> Footprint {
        let source = &self.rig.sources[view];
        match corners {
            SliceCorners::Rows(rows) => {
                let gathered = rows.iter().map(|&row| {
                    let at = row * self.stride + view;
                    self.seen[at].then(|| Vec2::new(self.xs[at], self.ys[at]))
                });
                Footprint::from_corners(gathered, source)
            }
            SliceCorners::World(world) => {
                Footprint::from_corners(world.iter().map(|&p| source.project(p)), source)
            }
        }
    }

    /// Lower bounds on `footprint(corners, view).texels` for views
    /// `first..first + LANES`, one a lane, that take no hull; 0 for a
    /// clamped slice and past the last view.
    fn footprint_lb(&self, corners: &SliceCorners, first: usize) -> [u64; LANES] {
        let SliceCorners::Rows(rows) = corners else {
            return [0; LANES];
        };
        let lane = |values: &[f32], at: usize| -> [f32; LANES] {
            values[at..at + LANES].try_into().expect("a whole lane")
        };
        let mut lanes = CornerLanes {
            seen: [true; LANES],
            width: lane(&self.widths, first),
            height: lane(&self.heights, first),
            ..CornerLanes::default()
        };
        for (i, &row) in rows.iter().enumerate() {
            let at = row * self.stride + first;
            (lanes.x[i], lanes.y[i]) = (lane(&self.xs, at), lane(&self.ys, at));
            for (seen, &projects) in lanes.seen.iter_mut().zip(&self.seen[at..at + LANES]) {
                *seen &= projects;
            }
        }
        Footprint::texels_lb(&lanes)
    }

    /// A lower bound on the bytes [`VertexMemo::slice_bytes`] finds
    /// `tile` fetching over depth slice `[d0, d0 + dd)`.
    fn slice_bytes_lb(&mut self, tile: &Tile, (d0, dd): (u32, u32), texel_bytes: u64) -> u64 {
        let corners = self.slice(tile, d0, dd);
        let views = self.rig.sources.len();
        let texels: u64 = (0..views)
            .step_by(LANES)
            .map(|first| self.footprint_lb(&corners, first).iter().sum::<u64>())
            .sum();
        texels * texel_bytes
    }

    /// Bytes `tile` fetches over depth slice `[d0, d0 + dd)`, summed
    /// over the source views — or `None` as soon as `reject` says so
    /// of the sum so far, which only grows.
    fn slice_bytes(
        &mut self,
        tile: &Tile,
        (d0, dd): (u32, u32),
        texel_bytes: u64,
        reject: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        let corners = self.slice(tile, d0, dd);
        let mut texels = 0u64;
        for view in 0..self.rig.sources.len() {
            texels += self.footprint(&corners, view).texels;
            if reject(texels * texel_bytes) {
                return None;
            }
        }
        Some(texels * texel_bytes)
    }

    /// Emits the full depth column of `tile` with slice depth
    /// `dd_shape`.
    fn emit_column(&mut self, patches: &mut Vec<Patch>, tile: &Tile, dd_shape: u32) {
        let (u0, v0) = self.origin;
        let views = self.rig.sources.len();
        let mut d0 = 0u32;
        while d0 < self.n_depth {
            let dd = dd_shape.min(self.n_depth - d0);
            let corners = self.slice(tile, d0, dd);
            let footprints = (0..views).map(|view| self.footprint(&corners, view));
            let (texels_per_view, bbox_per_view) =
                footprints.map(|fp| (fp.texels, fp.bbox)).unzip();
            patches.push(Patch {
                u0,
                v0,
                du: tile.du,
                dv: tile.dv,
                d0,
                dd,
                texels_per_view,
                bbox_per_view,
            });
            d0 += dd;
        }
    }
}

/// Where the eight corners of one slice's frustum are, in
/// [`Frustum::world_corners`] order.
enum SliceCorners {
    /// Rows of the memo's projection table.
    Rows([usize; 8]),
    /// World-space points still to be projected (a clamped slice).
    World([Vec3; 8]),
}

/// Candidate lists of one origin's search, reused across origins.
#[derive(Default)]
struct Shortlist {
    /// Distinct clamped tiles in list order. Every one is free: the
    /// scan order proves it (module docs, "Cost of the search").
    tiles: Vec<Tile>,
    /// `depths[i]`: the clamped depths listed so far on `tiles[i]`.
    /// Cleared rather than dropped between origins, so it can be
    /// longer than `tiles`.
    depths: Vec<Vec<u32>>,
    /// Distinct clamped shapes in list order: `(tile, δd)`. A shape's
    /// position here is its tie-break rank.
    shapes: Vec<(Tile, u32)>,
    /// `shapes` indices in evaluation order.
    order: Vec<usize>,
}

/// The greedy 3D-point-patch scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Shape candidates (`M` predefined shapes, Fig. 5 (b)).
    pub candidates: Vec<PatchShape>,
    /// Prefetch-buffer capacity in bytes (constraint 2).
    pub buffer_bytes: u64,
}

impl Scheduler {
    /// The default candidate set: square and elongated tiles crossed
    /// with several depth granularities.
    pub fn new(buffer_bytes: u64) -> Self {
        let tiles: [(u32, u32); 13] = [
            (1, 1),
            (2, 2),
            (4, 4),
            (4, 2),
            (2, 4),
            (8, 4),
            (4, 8),
            (8, 8),
            (16, 16),
            (32, 32),
            (16, 8),
            (8, 16),
            (32, 8),
        ];
        let depths = [4u32, 8, 16, 32, 64, 128, 256];
        let mut candidates = Vec::new();
        for (dh, dw) in tiles {
            for dd in depths {
                candidates.push(PatchShape { dh, dw, dd });
            }
        }
        Self {
            candidates,
            buffer_bytes,
        }
    }

    /// Scores a candidate at a tile over the *whole* depth column:
    /// returns bytes-per-point, or `None` when any slice would exceed
    /// the buffer — or as soon as `lost` says the running
    /// bytes-per-point, which only grows, can no longer win.
    ///
    /// Slices are bounded first and scored second, both far to near:
    /// a far slice's frustum is the wider, so a losing candidate is
    /// abandoned sooner, and the result does not depend on the order,
    /// nor on the bounds (module docs).
    fn score(
        &self,
        memo: &mut VertexMemo,
        tile: &Tile,
        dd_shape: u32,
        texel_bytes: u64,
        lost: impl Fn(f64) -> bool,
    ) -> Option<f64> {
        let n_depth = memo.n_depth;
        let points = (tile.du as u64 * tile.dv as u64 * n_depth as u64).max(1);
        let per_point = |bytes: u64| bytes as f64 / points as f64;
        if lost(per_point(0)) {
            return None;
        }
        // The column's slices start at multiples of `dd`; the last one
        // is cut short at `n_depth` (and an empty column has none).
        let dd = dd_shape.min(n_depth);
        let slices = (0..n_depth)
            .step_by(dd.max(1) as usize)
            .rev()
            .map(|d0| (d0, dd.min(n_depth - d0)));
        // `unscored`: the bounds of the slices not yet scored. With no
        // score to beat yet, a bound could find only an overflow, which
        // the exact pass finds too.
        let bounded = lost(f64::INFINITY);
        let mut unscored = 0u64;
        memo.bounds.clear();
        for slice in slices.clone() {
            let bound = if bounded {
                memo.slice_bytes_lb(tile, slice, texel_bytes)
            } else {
                0
            };
            unscored += bound;
            if bound > self.buffer_bytes || lost(per_point(unscored)) {
                return None;
            }
            memo.bounds.push(bound);
        }
        let mut total_bytes = 0u64;
        for (i, slice) in slices.enumerate() {
            unscored -= memo.bounds[i];
            let rest = total_bytes + unscored;
            let reject = |bytes| bytes > self.buffer_bytes || lost(per_point(rest + bytes));
            total_bytes += memo.slice_bytes(tile, slice, texel_bytes, reject)?;
        }
        Some(per_point(total_bytes))
    }

    /// Greedy candidate selection (area calculator + comparator) at the
    /// memo's origin, clamping shapes to the `free_w × free_h` free
    /// extent: the shape with the lowest score, the first listed on a
    /// tie, or `None` when no candidate fits the buffer. `hint` (the
    /// previous origin's winner) is tried first.
    fn best_shape(
        &self,
        memo: &mut VertexMemo,
        list: &mut Shortlist,
        (free_w, free_h): (u32, u32),
        hint: Option<(u32, u32, u32)>,
        texel_bytes: u64,
    ) -> Option<(Tile, u32)> {
        let Shortlist {
            tiles,
            depths,
            shapes,
            order,
        } = list;
        tiles.clear();
        shapes.clear();
        for shape in &self.candidates {
            let du = shape.dw.min(free_w);
            let dv = shape.dh.min(free_h);
            let dd = shape.dd.min(memo.n_depth);
            // A shape can repeat only on the same clamped tile, so it
            // is checked against that tile's depths alone.
            let at = match tiles.iter().position(|t| (t.du, t.dv) == (du, dv)) {
                Some(at) => at,
                None => {
                    tiles.push(memo.tile(du, dv));
                    if depths.len() < tiles.len() {
                        depths.push(Vec::new());
                    }
                    depths[tiles.len() - 1].clear();
                    tiles.len() - 1
                }
            };
            if !depths[at].contains(&dd) {
                depths[at].push(dd);
                shapes.push((tiles[at], dd));
            }
        }

        // Any evaluation order gives the same winner (module docs);
        // this one finds a tight bound early.
        order.clear();
        order.extend(0..shapes.len());
        order.sort_by_key(|&i| Reverse(shapes[i].0.du * shapes[i].0.dv));
        let hinted = |&i: &usize| {
            let (tile, dd) = shapes[i];
            Some((tile.du, tile.dv, dd)) == hint
        };
        if let Some(at) = order.iter().position(hinted) {
            order[..=at].rotate_right(1);
        }

        let mut best: Option<(f64, usize)> = None;
        for &i in order.iter() {
            let (tile, dd) = shapes[i];
            let lost = |running: f64| {
                best.is_some_and(|(score, rank)| running > score || (running == score && i > rank))
            };
            if let Some(score) = self.score(memo, &tile, dd, texel_bytes, lost) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| shapes[i])
    }

    /// Partitions the whole `height × width × n_depth` workload cube.
    ///
    /// Returns the patch queue in processing order (top-left to
    /// bottom-right, near to far within each tile, matching the
    /// top-left sequencer of Fig. 7; its mask bitmap is kept as a
    /// skyline, module docs).
    ///
    /// # Panics
    ///
    /// Panics when not even a 1×1 pixel column fits the buffer.
    pub fn partition(
        &self,
        rig: &CameraRig,
        width: u32,
        height: u32,
        n_depth: u32,
        texel_bytes: u64,
    ) -> Vec<Patch> {
        let mut patches = Vec::new();
        // The skyline: each pixel column's first unassigned row. The
        // assigned pixels of a column are always the rows above it
        // (module docs, "Cost of the search").
        let mut next_free = vec![0u32; width as usize];
        let mut memo = VertexMemo::new(rig, n_depth);
        let mut list = Shortlist::default();
        let mut previous = None;
        let mut v0 = 0u32;
        while v0 < height {
            let mut u0 = 0u32;
            while u0 < width {
                if next_free[u0 as usize] > v0 {
                    u0 += 1;
                    continue;
                }
                // Free extent at (u0, v0): the columns free at row v0
                // to the right, each of them free to the bottom.
                let free_w = next_free[u0 as usize..]
                    .iter()
                    .take_while(|&&row| row == v0)
                    .count() as u32;
                let free_h = height - v0;

                memo.move_to(u0, v0);
                let best = self.best_shape(
                    &mut memo,
                    &mut list,
                    (free_w, free_h),
                    previous,
                    texel_bytes,
                );
                // Fall back to a single full-depth pixel column (then a
                // per-sample column) if no candidate fits.
                let (tile, dd) = best.unwrap_or_else(|| {
                    let pixel = memo.tile(1, 1);
                    let mut fits = |dd| {
                        self.score(&mut memo, &pixel, dd, texel_bytes, |_| false)
                            .is_some()
                    };
                    if fits(n_depth) {
                        (pixel, n_depth)
                    } else {
                        assert!(
                            fits(1),
                            "even a 1-pixel patch exceeds the {}-byte prefetch buffer",
                            self.buffer_bytes
                        );
                        (pixel, 1)
                    }
                });
                memo.emit_column(&mut patches, &tile, dd);
                previous = Some((tile.du, tile.dv, dd));
                next_free[u0 as usize..(u0 + tile.du) as usize].fill(v0 + tile.dv);
                u0 += tile.du;
            }
            v0 += 1;
        }
        patches
    }

    /// Fixed-shape partition for the Fig. 12 Var-1 baseline: constant
    /// `{k, k, D}` patches (full depth, no adaptive slicing) with `k`
    /// the largest tile whose footprint fits the buffer at the probed
    /// tiles (image center and corners).
    pub fn partition_fixed(
        &self,
        rig: &CameraRig,
        width: u32,
        height: u32,
        n_depth: u32,
        texel_bytes: u64,
    ) -> Vec<Patch> {
        let mut memo = VertexMemo::new(rig, n_depth);
        let mut k = 64u32.min(width).min(height);
        'outer: while k > 1 {
            let probes = [
                (
                    (width / 2).saturating_sub(k / 2),
                    (height / 2).saturating_sub(k / 2),
                ),
                (0, 0),
                (width.saturating_sub(k), 0),
                (0, height.saturating_sub(k)),
                (width.saturating_sub(k), height.saturating_sub(k)),
            ];
            for (u0, v0) in probes {
                memo.move_to(u0, v0);
                let tile = memo.tile(k.min(width - u0), k.min(height - v0));
                let too_big = |bytes| bytes > self.buffer_bytes;
                if memo
                    .slice_bytes(&tile, (0, n_depth), texel_bytes, too_big)
                    .is_none()
                {
                    k /= 2;
                    continue 'outer;
                }
            }
            break;
        }
        let mut patches = Vec::new();
        let mut v0 = 0u32;
        while v0 < height {
            let dv = k.min(height - v0);
            let mut u0 = 0u32;
            while u0 < width {
                let du = k.min(width - u0);
                memo.move_to(u0, v0);
                let tile = memo.tile(du, dv);
                memo.emit_column(&mut patches, &tile, n_depth);
                u0 += du;
            }
            v0 += dv;
        }
        patches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn rig(n: usize) -> CameraRig {
        CameraRig::orbit(64, 64, n)
    }

    /// A buffer small enough that the capacity constraint binds at the
    /// 64×64 test scale (mirrors the 256 KB budget at full resolution).
    const TIGHT_BUFFER: u64 = 16 * 1024;

    #[test]
    fn orbit_rig_sources_see_origin() {
        let r = rig(6);
        for s in &r.sources {
            let uv = s.project(Vec3::ZERO).expect("origin visible");
            assert!(s.intrinsics.contains(uv), "origin out of frame: {uv:?}");
        }
    }

    #[test]
    fn depth_slice_spans_range() {
        let r = rig(2);
        let (lo, hi) = r.depth_slice(0, 64, 64);
        assert!((lo - r.t_near).abs() < 1e-5);
        assert!((hi - r.t_far).abs() < 1e-5);
        let (lo2, hi2) = r.depth_slice(16, 16, 64);
        assert!(lo2 > lo && hi2 < hi);
    }

    #[test]
    fn partition_covers_every_pixel_once() {
        let sched = Scheduler::new(TIGHT_BUFFER);
        let r = rig(4);
        let (w, h, d) = (64u32, 64u32, 32u32);
        let patches = sched.partition(&r, w, h, d, 12);
        let mut coverage = vec![0u32; (w * h) as usize];
        for p in &patches {
            if p.d0 == 0 {
                for y in p.v0..p.v0 + p.dv {
                    for x in p.u0..p.u0 + p.du {
                        coverage[(y * w + x) as usize] += 1;
                    }
                }
            }
        }
        let bad = coverage.iter().filter(|&&c| c != 1).count();
        assert_eq!(bad, 0, "{bad} pixels covered != once");
    }

    #[test]
    fn partition_covers_every_depth_sample() {
        let sched = Scheduler::new(TIGHT_BUFFER);
        let r = rig(3);
        let patches = sched.partition(&r, 32, 32, 48, 12);
        use std::collections::HashMap;
        let mut per_tile: HashMap<(u32, u32), u32> = HashMap::new();
        for p in &patches {
            *per_tile.entry((p.u0, p.v0)).or_insert(0) += p.dd;
        }
        for (&tile, &total) in &per_tile {
            assert_eq!(total, 48, "tile {tile:?} covers {total} depth samples");
        }
    }

    #[test]
    fn footprints_respect_buffer() {
        let sched = Scheduler::new(TIGHT_BUFFER);
        let r = rig(6);
        let texel_bytes = 12;
        let patches = sched.partition(&r, 64, 64, 64, texel_bytes);
        for p in &patches {
            assert!(
                p.total_texels() * texel_bytes <= TIGHT_BUFFER,
                "patch at ({},{},{}) needs {} bytes",
                p.u0,
                p.v0,
                p.d0,
                p.total_texels() * texel_bytes
            );
        }
    }

    #[test]
    fn same_tile_shares_shape_across_depth() {
        let sched = Scheduler::new(TIGHT_BUFFER);
        let r = rig(4);
        let patches = sched.partition(&r, 48, 48, 64, 12);
        use std::collections::HashMap;
        let mut tile_shapes: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
        for p in &patches {
            let entry = tile_shapes.entry((p.u0, p.v0)).or_insert((p.du, p.dv));
            assert_eq!(*entry, (p.du, p.dv), "tile shape changed across depth");
        }
    }

    #[test]
    fn greedy_beats_fixed_on_bytes_per_point_under_tight_buffer() {
        let sched = Scheduler::new(TIGHT_BUFFER);
        let r = rig(6);
        let (w, h, d, tb) = (64u32, 64u32, 64u32, 12u64);
        let ours = sched.partition(&r, w, h, d, tb);
        let fixed = sched.partition_fixed(&r, w, h, d, tb);
        let bytes =
            |ps: &[Patch]| -> f64 { ps.iter().map(|p| p.total_texels() * tb).sum::<u64>() as f64 };
        let points = |ps: &[Patch]| -> f64 { ps.iter().map(|p| p.points()).sum::<u64>() as f64 };
        let ours_bpp = bytes(&ours) / points(&ours);
        let fixed_bpp = bytes(&fixed) / points(&fixed);
        assert!(
            ours_bpp <= fixed_bpp * 1.05,
            "greedy {ours_bpp:.3} B/pt vs fixed {fixed_bpp:.3} B/pt"
        );
    }

    #[test]
    fn fixed_partition_spans_full_depth() {
        let sched = Scheduler::new(256 * 1024);
        let r = rig(2);
        let patches = sched.partition_fixed(&r, 32, 32, 40, 12);
        assert!(patches.iter().all(|p| p.d0 == 0 && p.dd == 40));
    }

    #[test]
    fn more_views_more_texels() {
        let sched = Scheduler::new(512 * 1024);
        let few = sched.partition(&rig(2), 32, 32, 32, 12);
        let many = sched.partition(&rig(8), 32, 32, 32, 12);
        let t_few: u64 = few.iter().map(Patch::total_texels).sum();
        let t_many: u64 = many.iter().map(Patch::total_texels).sum();
        assert!(t_many > t_few);
    }

    /// The partition as it was before the vertex memo, the bounded
    /// search and the skyline: every footprint computed from its own
    /// frustum, on the heap, every shape scored in list order over the
    /// whole depth column, and every clamped rectangle checked cell by
    /// cell against a pixel mask. Kept verbatim as the oracle the
    /// production path must match patch for patch.
    mod oracle {
        use super::super::*;
        use gen_nerf_geometry::epipolar::{convex_hull, polygon_area};

        type TileRect = (u32, u32, u32, u32);

        fn footprint(
            rig: &CameraRig,
            (u0, v0, du, dv): TileRect,
            (t_lo, t_hi): (f32, f32),
            source: &Camera,
        ) -> Footprint {
            let frustum = Frustum::new(
                Vec2::new(u0 as f32, v0 as f32),
                Vec2::new((u0 + du) as f32, (v0 + dv) as f32),
                t_lo.max(1e-3),
                t_hi,
            );
            let projections: Vec<Vec2> = frustum
                .world_corners(&rig.novel)
                .iter()
                .filter_map(|&p| source.project(p))
                .collect();
            if projections.len() < 3 {
                return Footprint::EMPTY;
            }
            let hull = convex_hull(&projections);
            let area = polygon_area(&hull);
            let perimeter: f32 = (0..hull.len())
                .map(|i| (hull[(i + 1) % hull.len()] - hull[i]).length())
                .sum();
            let dilated = area + perimeter + 4.0;
            let (sw, sh) = (
                source.intrinsics.width as f32,
                source.intrinsics.height as f32,
            );
            let mut min = hull[0];
            let mut max = hull[0];
            for &p in &hull {
                min = min.min(p);
                max = max.max(p);
            }
            let bbox_area = ((max.x - min.x) * (max.y - min.y)).max(1e-6);
            let cx0 = min.x.max(0.0);
            let cy0 = min.y.max(0.0);
            let cx1 = max.x.min(sw);
            let cy1 = max.y.min(sh);
            if cx1 <= cx0 || cy1 <= cy0 {
                return Footprint::EMPTY;
            }
            let visible = ((cx1 - cx0) * (cy1 - cy0)) / bbox_area;
            let texels = (dilated * visible.clamp(0.0, 1.0)).ceil() as u64;
            Footprint {
                texels,
                bbox: (cx0 as u32, cy0 as u32, cx1.ceil() as u32, cy1.ceil() as u32),
            }
        }

        fn slice_texels(rig: &CameraRig, tile: TileRect, d0: u32, dd: u32, n_depth: u32) -> u64 {
            let slice = rig.depth_slice(d0, dd, n_depth);
            rig.sources
                .iter()
                .map(|s| footprint(rig, tile, slice, s).texels)
                .sum()
        }

        pub(super) fn score(
            sched: &Scheduler,
            rig: &CameraRig,
            tile: TileRect,
            dd_shape: u32,
            n_depth: u32,
            texel_bytes: u64,
        ) -> Option<f64> {
            let mut total_bytes = 0u64;
            let mut d0 = 0u32;
            while d0 < n_depth {
                let dd = dd_shape.min(n_depth - d0);
                let bytes = slice_texels(rig, tile, d0, dd, n_depth) * texel_bytes;
                if bytes > sched.buffer_bytes {
                    return None;
                }
                total_bytes += bytes;
                d0 += dd;
            }
            let points = (tile.2 as u64 * tile.3 as u64 * n_depth as u64).max(1);
            Some(total_bytes as f64 / points as f64)
        }

        fn emit_column(
            rig: &CameraRig,
            patches: &mut Vec<Patch>,
            tile: TileRect,
            dd_shape: u32,
            n_depth: u32,
        ) {
            let (u0, v0, du, dv) = tile;
            let mut d0 = 0u32;
            while d0 < n_depth {
                let dd = dd_shape.min(n_depth - d0);
                let slice = rig.depth_slice(d0, dd, n_depth);
                let mut texels_per_view = Vec::with_capacity(rig.sources.len());
                let mut bbox_per_view = Vec::with_capacity(rig.sources.len());
                for source in &rig.sources {
                    let fp = footprint(rig, tile, slice, source);
                    texels_per_view.push(fp.texels);
                    bbox_per_view.push(fp.bbox);
                }
                patches.push(Patch {
                    u0,
                    v0,
                    du,
                    dv,
                    d0,
                    dd,
                    texels_per_view,
                    bbox_per_view,
                });
                d0 += dd;
            }
        }

        /// Whether the `du × dv` rectangle at `(u0, v0)` is entirely
        /// unassigned.
        fn rect_free(assigned: &[bool], width: u32, u0: u32, v0: u32, du: u32, dv: u32) -> bool {
            for y in v0..v0 + dv {
                for x in u0..u0 + du {
                    if assigned[(y * width + x) as usize] {
                        return false;
                    }
                }
            }
            true
        }

        pub(super) fn partition(
            sched: &Scheduler,
            rig: &CameraRig,
            width: u32,
            height: u32,
            n_depth: u32,
            texel_bytes: u64,
        ) -> Vec<Patch> {
            let mut patches = Vec::new();
            let mut assigned = vec![false; (width * height) as usize];
            let at = |a: &Vec<bool>, x: u32, y: u32| a[(y * width + x) as usize];
            let mut v0 = 0u32;
            while v0 < height {
                let mut u0 = 0u32;
                while u0 < width {
                    if at(&assigned, u0, v0) {
                        u0 += 1;
                        continue;
                    }
                    let mut free_w = 0u32;
                    while u0 + free_w < width && !at(&assigned, u0 + free_w, v0) {
                        free_w += 1;
                    }
                    let mut free_h = 0u32;
                    while v0 + free_h < height && !at(&assigned, u0, v0 + free_h) {
                        free_h += 1;
                    }
                    let mut best: Option<(f64, (u32, u32, u32))> = None;
                    let mut seen = std::collections::HashSet::new();
                    for &shape in &sched.candidates {
                        let du = shape.dw.min(free_w);
                        let dv = shape.dh.min(free_h);
                        let dd = shape.dd.min(n_depth);
                        if !seen.insert((du, dv, dd)) {
                            continue;
                        }
                        if !rect_free(&assigned, width, u0, v0, du, dv) {
                            continue;
                        }
                        let tile = (u0, v0, du, dv);
                        if let Some(score) = score(sched, rig, tile, dd, n_depth, texel_bytes) {
                            if best.is_none_or(|(b, _)| score < b) {
                                best = Some((score, (du, dv, dd)));
                            }
                        }
                    }
                    let pixel = (u0, v0, 1, 1);
                    let (du, dv, dd) = match best {
                        Some((_, s)) => s,
                        None if score(sched, rig, pixel, n_depth, n_depth, texel_bytes)
                            .is_some() =>
                        {
                            (1, 1, n_depth)
                        }
                        None => {
                            let ok = score(sched, rig, pixel, 1, n_depth, texel_bytes).is_some();
                            assert!(ok, "even a 1-pixel patch exceeds the prefetch buffer");
                            (1, 1, 1)
                        }
                    };
                    emit_column(rig, &mut patches, (u0, v0, du, dv), dd, n_depth);
                    for y in v0..v0 + dv {
                        for x in u0..u0 + du {
                            assigned[(y * width + x) as usize] = true;
                        }
                    }
                    u0 += du;
                }
                v0 += 1;
            }
            patches
        }

        pub(super) fn partition_fixed(
            sched: &Scheduler,
            rig: &CameraRig,
            width: u32,
            height: u32,
            n_depth: u32,
            texel_bytes: u64,
        ) -> Vec<Patch> {
            let mut k = 64u32.min(width).min(height);
            'outer: while k > 1 {
                let probes = [
                    (
                        (width / 2).saturating_sub(k / 2),
                        (height / 2).saturating_sub(k / 2),
                    ),
                    (0, 0),
                    (width.saturating_sub(k), 0),
                    (0, height.saturating_sub(k)),
                    (width.saturating_sub(k), height.saturating_sub(k)),
                ];
                for (u0, v0) in probes {
                    let tile = (u0, v0, k.min(width - u0), k.min(height - v0));
                    let texels = slice_texels(rig, tile, 0, n_depth, n_depth);
                    if texels * texel_bytes > sched.buffer_bytes {
                        k /= 2;
                        continue 'outer;
                    }
                }
                break;
            }
            let mut patches = Vec::new();
            let mut v0 = 0u32;
            while v0 < height {
                let dv = k.min(height - v0);
                let mut u0 = 0u32;
                while u0 < width {
                    let du = k.min(width - u0);
                    emit_column(rig, &mut patches, (u0, v0, du, dv), n_depth, n_depth);
                    u0 += du;
                }
                v0 += dv;
            }
            patches
        }
    }

    #[test]
    fn patch_points_counts_cube() {
        let p = Patch {
            u0: 0,
            v0: 0,
            du: 8,
            dv: 4,
            d0: 0,
            dd: 16,
            texels_per_view: vec![],
            bbox_per_view: vec![],
        };
        assert_eq!(p.points(), 8 * 4 * 16);
    }

    /// `f()`, or `None` when it panics (a buffer smaller than one
    /// pixel's footprint, an empty depth range).
    fn caught<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Option<T> {
        std::panic::catch_unwind(f).ok()
    }

    /// Both partitions of one workload, memoised against direct;
    /// a panic must be matched by a panic.
    fn assert_matches_oracle(
        sched: &Scheduler,
        rig: &CameraRig,
        (w, h, n_depth): (u32, u32, u32),
        texel_bytes: u64,
    ) -> Result<(), TestCaseError> {
        let greedy = caught(|| sched.partition(rig, w, h, n_depth, texel_bytes));
        let direct = caught(|| oracle::partition(sched, rig, w, h, n_depth, texel_bytes));
        prop_assert!(greedy == direct, "greedy partition differs from the oracle");
        let fixed = caught(|| sched.partition_fixed(rig, w, h, n_depth, texel_bytes));
        let direct = caught(|| oracle::partition_fixed(sched, rig, w, h, n_depth, texel_bytes));
        prop_assert!(fixed == direct, "fixed partition differs from the oracle");
        Ok(())
    }

    /// Roughly how many footprints the oracle may compute per case: it
    /// scores every listed shape over its whole depth column at every
    /// origin, at several microseconds each in a `cargo test` build.
    const ORACLE_FOOTPRINTS: u64 = 12_000;

    /// A scheduler over `picks` from the default candidates (repeats
    /// allowed; a list without a 1×1 shape reaches the fallbacks) with
    /// a buffer of 1 KB << `shift`, and the drawn frame halved until
    /// the oracle can afford it.
    fn workload(
        picks: &[usize],
        shift: u32,
        (mut w, mut h, n_depth): (u32, u32, u32),
        (views, texel_bytes): (usize, u64),
    ) -> (Scheduler, (u32, u32, u32)) {
        let mut sched = Scheduler::new(1024 << shift);
        sched.candidates = picks.iter().map(|&i| sched.candidates[i]).collect();
        let column = |dd: u32| n_depth.div_ceil(dd.min(n_depth));
        let listed: u32 = sched.candidates.iter().map(|c| column(c.dd)).sum();
        // One origin per smallest listed tile — unless even that tile's
        // own outline (let alone its epipolar sweep) crowds the buffer:
        // then every pixel is an origin that tries, and emits, the
        // per-sample fallback column.
        let texels_per_view = sched.buffer_bytes / (views as u64 * texel_bytes);
        let fits = |c: &&PatchShape| 4 * ((c.dw + 2) * (c.dh + 2)) as u64 <= texels_per_view;
        let smallest = sched
            .candidates
            .iter()
            .filter(fits)
            .map(|c| c.dw * c.dh)
            .min();
        let slices = listed + if smallest.is_none() { 2 * n_depth } else { 0 };
        let footprints = |w: u32, h: u32| {
            (w * h).div_ceil(smallest.unwrap_or(1)) as u64 * slices as u64 * views as u64
        };
        while footprints(w, h) > ORACLE_FOOTPRINTS && (w > 2 || h > 2) {
            (w, h) = ((w / 2).max(2), (h / 2).max(2));
        }
        (sched, (w, h, n_depth))
    }

    const TEXEL_BYTES: [u64; 3] = [3, 12, 32];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_partitions_match_oracle_on_orbit_rigs(
            picks in proptest::collection::vec(0usize..91, 2..12),
            w in 8u32..80,
            h in 8u32..80,
            views in 1usize..8,
            n_depth in 1u32..80,
            texel in 0usize..3,
            shift in 0u32..10,
        ) {
            let texel_bytes = TEXEL_BYTES[texel];
            let (sched, frame) = workload(&picks, shift, (w, h, n_depth), (views, texel_bytes));
            let rig = CameraRig::orbit(frame.0, frame.1, views);
            assert_matches_oracle(&sched, &rig, frame, texel_bytes)?;
        }

        #[test]
        fn prop_partitions_match_oracle_where_the_depth_clamps_bind(
            picks in proptest::collection::vec(0usize..91, 2..12),
            w in 8u32..80,
            h in 8u32..80,
            views in 1usize..8,
            n_depth in 1u32..80,
            texel in 0usize..3,
            shift in 0u32..10,
            thin in 0u32..2,
        ) {
            let texel_bytes = TEXEL_BYTES[texel];
            let (sched, frame) = workload(&picks, shift, (w, h, n_depth), (views, texel_bytes));
            let mut rig = CameraRig::orbit(frame.0, frame.1, views);
            if thin == 1 {
                // Slices thinner than 1e-4: every far plane is clamped.
                rig.t_far = rig.t_near + 1e-3;
            } else {
                // The first near plane is below 1e-3 and is clamped.
                rig.t_near = 5e-4;
            }
            assert_matches_oracle(&sched, &rig, frame, texel_bytes)?;
        }

        #[test]
        fn prop_unseen_frames_fall_to_the_first_listed_shape(
            picks in proptest::collection::vec(0usize..91, 2..12),
            w in 8u32..80,
            h in 8u32..80,
            views in 1usize..8,
            n_depth in 1u32..80,
            texel in 0usize..3,
            shift in 0u32..10,
        ) {
            // Every source sits at the novel camera facing backwards:
            // no corner projects, every shape scores zero, and the tie
            // must go to the first listed shape at every origin.
            let texel_bytes = TEXEL_BYTES[texel];
            let (sched, frame) = workload(&picks, shift, (w, h, n_depth), (views, texel_bytes));
            let mut rig = CameraRig::orbit(frame.0, frame.1, views);
            let eye = rig.novel.pose.origin;
            let backwards = Pose::look_at(eye, eye - rig.novel.pose.forward(), Vec3::Y);
            for source in &mut rig.sources {
                source.pose = backwards;
            }
            let patches = sched.partition(&rig, frame.0, frame.1, n_depth, texel_bytes);
            let first = sched.candidates[0];
            prop_assert_eq!(
                (patches[0].du, patches[0].dv, patches[0].dd),
                (first.dw.min(frame.0), first.dh.min(frame.1), first.dd.min(n_depth))
            );
            prop_assert!(patches.iter().all(|p| p.total_texels() == 0));
            assert_matches_oracle(&sched, &rig, frame, texel_bytes)?;
        }

        #[test]
        fn prop_partitions_match_oracle_where_sources_look_away(
            picks in proptest::collection::vec(0usize..91, 2..12),
            w in 8u32..80,
            h in 8u32..80,
            views in 1usize..8,
            n_depth in 1u32..80,
            texel in 0usize..3,
            shift in 0u32..10,
            side in 0usize..4,
            turn in 0.2f32..1.2,
        ) {
            // Source `i` is yawed (sides 0, 1) or pitched (2, 3) by
            // `turn` radians away from the scene, the side rotating
            // with `i`: the frame's footprints leave its image to the
            // left, right, top or bottom — wholly for some slices,
            // partly for others.
            let texel_bytes = TEXEL_BYTES[texel];
            let (sched, frame) = workload(&picks, shift, (w, h, n_depth), (views, texel_bytes));
            let mut rig = CameraRig::orbit(frame.0, frame.1, views);
            for (i, source) in rig.sources.iter_mut().enumerate() {
                let axes = source.pose.rotation;
                let (sin, cos) = turn.sin_cos();
                let away = match (side + i) % 4 {
                    0 => axes.col(0) * sin,
                    1 => axes.col(0) * -sin,
                    2 => axes.col(1) * sin,
                    _ => axes.col(1) * -sin,
                };
                let eye = source.pose.origin;
                source.pose = Pose::look_at(eye, eye + axes.col(2) * cos + away, Vec3::Y);
            }
            assert_matches_oracle(&sched, &rig, frame, texel_bytes)?;
        }
    }

    /// Eight corners as `kind` says, from `raw` unit draws, a log-scale
    /// `size` in `[1e-9, 10]` and an image of `sw × sh` texels:
    ///
    /// 0. anywhere in and around the image;
    /// 1. near-collinear: on a line, a ±`size`·1e-5 texel wobble off it;
    /// 2. sub-texel: within `size` of one point;
    /// 3. flung up to 1e5 image widths off it, one corner inside;
    /// 4. as 0 with some corners behind the camera;
    /// 5. coordinates snapped to ±0.0, the far border or just inside;
    /// 6. a sliver `size` thin along one image border.
    fn corner_set(
        kind: usize,
        raw: &[(f32, f32)],
        size: f32,
        sw: f32,
        sh: f32,
    ) -> [Option<Vec2>; 8] {
        let (a, b) = raw[0];
        let (c, d) = raw[1];
        let anchor = Vec2::new(a * sw, b * sh);
        let mut corners = [None; 8];
        for (i, (out, &(x, y))) in corners.iter_mut().zip(&raw[2..]).enumerate() {
            let around = Vec2::new((2.0 * x - 0.5) * sw, (2.0 * y - 0.5) * sh);
            *out = Some(match kind {
                0 | 4 => around,
                1 => {
                    let dir = Vec2::new((c * 6.3).cos(), (c * 6.3).sin());
                    let off = Vec2::new(-dir.y, dir.x) * ((y - 0.5) * size * 1e-5);
                    anchor + dir * (x * 300.0 * d) + off
                }
                2 => anchor + Vec2::new(x - 0.5, y - 0.5) * size,
                3 if i == 0 => anchor,
                3 => Vec2::new(2.0 * x - 1.0, 2.0 * y - 1.0) * (sw * 10f32.powf(5.0 * c)),
                5 => {
                    let snap = |t: f32, far: f32| match (t * 8.0) as u32 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => far,
                        3 => 1e-7,
                        4 => far - 1e-5,
                        _ => t * far,
                    };
                    Vec2::new(snap(x, sw), snap(y, sh))
                }
                _ => {
                    let along = (2.0 * x - 0.5) * sw;
                    let across = (y - 0.5) * size;
                    match (c * 4.0) as u32 {
                        0 => Vec2::new(along, across),
                        1 => Vec2::new(along, sh + across),
                        2 => Vec2::new(across, along * sh / sw),
                        _ => Vec2::new(sw + across, along * sh / sw),
                    }
                }
            });
            if kind == 4 && (i as f32) < d * 8.0 {
                *out = None;
            }
        }
        corners
    }

    /// The bound against the footprint for every slice and view of the
    /// tile `(du, dv)` at `(u0, v0)`, sliced `dd` deep.
    fn assert_bounds_hold(
        rig: &CameraRig,
        n_depth: u32,
        (u0, v0, du, dv): (u32, u32, u32, u32),
        dd: u32,
    ) -> Result<(), TestCaseError> {
        let mut memo = VertexMemo::new(rig, n_depth);
        memo.move_to(u0, v0);
        let tile = memo.tile(du, dv);
        let views = rig.sources.len();
        for d0 in (0..n_depth).step_by(dd as usize) {
            let corners = memo.slice(&tile, d0, dd.min(n_depth - d0));
            for first in (0..views).step_by(LANES) {
                let bounds = memo.footprint_lb(&corners, first);
                for (view, &bound) in (first..views).zip(&bounds) {
                    let texels = memo.footprint(&corners, view).texels;
                    prop_assert!(
                        bound <= texels,
                        "slice {d0} view {view}: bound {bound} > {texels} texels"
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_footprint_bound_is_admissible(
            kinds in proptest::collection::vec(0usize..7, LANES),
            raw in proptest::collection::vec((0f32..1.0, 0f32..1.0), 10 * LANES),
            log_sizes in proptest::collection::vec(-9f32..1.0, LANES),
            w in 1u32..300,
            h in 1u32..300,
        ) {
            // A corner set of its own in every lane.
            let source = CameraRig::orbit(w, h, 1).sources[0];
            let (sw, sh) = (w as f32, h as f32);
            let mut lanes = CornerLanes::default();
            let mut sets = [[None; 8]; LANES];
            for (v, set) in sets.iter_mut().enumerate() {
                *set = corner_set(kinds[v], &raw[10 * v..][..10], 10f32.powf(log_sizes[v]), sw, sh);
                lanes.seen[v] = set.iter().all(Option::is_some);
                (lanes.width[v], lanes.height[v]) = (sw, sh);
                for (i, uv) in set.iter().enumerate() {
                    let uv = uv.unwrap_or(Vec2::ZERO);
                    (lanes.x[i][v], lanes.y[i][v]) = (uv.x, uv.y);
                }
            }
            for (set, bound) in sets.iter().zip(Footprint::texels_lb(&lanes)) {
                let texels = Footprint::from_corners(set.iter().copied(), &source).texels;
                prop_assert!(bound <= texels, "{set:?}: bound {bound} > {texels} texels");
            }
        }

        #[test]
        fn prop_footprint_bound_is_admissible_on_rigs(
            w in 8u32..80,
            h in 8u32..80,
            views in 1usize..8,
            n_depth in 1u32..80,
            rig_kind in 0usize..4,
            origin in (0f32..1.0, 0f32..1.0),
            extent in (1u32..33, 1u32..33),
            dd in 1u32..80,
        ) {
            // The orbit rig, the two clamped-depth rigs of
            // `prop_partitions_match_oracle_where_the_depth_clamps_bind`,
            // and sources pitched half a radian away from the scene.
            let mut rig = CameraRig::orbit(w, h, views);
            match rig_kind {
                1 => rig.t_far = rig.t_near + 1e-3,
                2 => rig.t_near = 5e-4,
                3 => {
                    for source in &mut rig.sources {
                        let axes = source.pose.rotation;
                        let eye = source.pose.origin;
                        let away = axes.col(2) * 0.5f32.cos() + axes.col(1) * 0.5f32.sin();
                        source.pose = Pose::look_at(eye, eye + away, Vec3::Y);
                    }
                }
                _ => {}
            }
            let u0 = ((origin.0 * w as f32) as u32).min(w - 1);
            let v0 = ((origin.1 * h as f32) as u32).min(h - 1);
            let tile = (u0, v0, extent.0.min(w - u0), extent.1.min(h - v0));
            assert_bounds_hold(&rig, n_depth, tile, dd.min(n_depth))?;
        }
    }

    #[test]
    fn tie_on_a_nonzero_score_goes_to_the_first_listed_shape() {
        // One source: the novel camera pulled straight back, so a tile
        // at the principal point projects to (just under) itself and
        // its full-depth footprint is `(du + 2)(dv + 2)` texels. 1×6
        // and 2×2 tiles then both cost exactly 4 texels per pixel; a
        // lone pixel costs 9.
        let mut rig = CameraRig::orbit(16, 16, 1);
        let novel = rig.novel;
        let mut behind = novel.pose;
        behind.origin -= novel.pose.forward() * 0.02;
        rig.sources[0] = Camera::new(novel.intrinsics, behind);
        let (n_depth, texel_bytes) = (8, 12);
        let shape = |dw, dh| PatchShape { dh, dw, dd: 8 };
        let (wide, square, pixel) = (shape(6, 1), shape(2, 2), shape(1, 1));

        for candidates in [
            [wide, square, pixel],
            [square, wide, pixel],
            [pixel, square, wide],
        ] {
            let mut sched = Scheduler::new(64 * 1024);
            sched.candidates = candidates.to_vec();
            let score = |s: PatchShape| {
                oracle::score(&sched, &rig, (8, 8, s.dw, s.dh), s.dd, n_depth, texel_bytes)
                    .expect("fits the buffer")
            };
            assert!(score(wide) > 0.0 && score(wide) == score(square));
            assert!(score(pixel) > score(wide));
            let first_tied = *candidates.iter().find(|&&c| c != pixel).unwrap();

            // Whatever is evaluated first — the larger tile, or the
            // previous origin's winner — the first listed one wins.
            for hint in [None, Some(wide), Some(square), Some(pixel)] {
                let mut memo = VertexMemo::new(&rig, n_depth);
                memo.move_to(8, 8);
                let (tile, dd) = sched
                    .best_shape(
                        &mut memo,
                        &mut Shortlist::default(),
                        (8, 8),
                        hint.map(|s| (s.dw, s.dh, s.dd)),
                        texel_bytes,
                    )
                    .expect("a candidate fits");
                assert_eq!(
                    (tile.du, tile.dv, dd),
                    (first_tied.dw, first_tied.dh, first_tied.dd),
                    "listed {candidates:?}, hint {hint:?}"
                );
            }
        }
    }

    #[test]
    fn default_tiles_share_corner_rays_within_the_scratch_budget() {
        // The 13 default tiles at one origin have 26 distinct corners;
        // at the paper's focused stage their projection table is what
        // a `partition` call holds beyond the skyline.
        let rig = CameraRig::orbit(252, 189, 6);
        let mut memo = VertexMemo::new(&rig, 64);
        memo.move_to(40, 40);
        let mut tiles = std::collections::HashSet::new();
        for shape in Scheduler::new(0).candidates {
            if tiles.insert((shape.dw, shape.dh)) {
                memo.tile(shape.dw, shape.dh);
            }
        }
        assert_eq!(tiles.len(), 13);
        assert_eq!(memo.rays.len(), 26);
        let bytes = (memo.xs.len() + memo.ys.len()) * std::mem::size_of::<f32>()
            + memo.seen.len()
            + memo.projected.len()
            + memo.planes.len() * std::mem::size_of::<f32>();
        assert!(bytes <= 256 * 1024, "{bytes} bytes of scratch");
    }

    #[test]
    fn the_paper_frame_hulls_few_footprints() {
        // The benchmark's shape: a 252×189 frame, 4 coarse views of
        // 3-byte texels over 16 depths, 6 focused views of 12-byte
        // texels over 64, and a 256 KB prefetch buffer.
        let sched = Scheduler::new(256 * 1024);
        let rig = CameraRig::orbit(252, 189, 6);
        let coarse_rig = CameraRig {
            sources: rig.sources[..4].to_vec(),
            ..rig.clone()
        };
        let hulled = |rig: &CameraRig, n_depth, texel_bytes| {
            let before = footprints();
            sched.partition(rig, 252, 189, n_depth, texel_bytes);
            footprints() - before
        };
        // The counts repeat exactly: 10,371 and 4,275 with the bound,
        // 69,582 and 16,962 without it (module docs).
        let (coarse, focused) = (hulled(&coarse_rig, 16, 3), hulled(&rig, 64, 12));
        assert!(focused <= 15_000, "{focused} focused footprints hulled");
        assert!(coarse <= 6_000, "{coarse} coarse footprints hulled");
    }
}
