//! Epipolar geometry between a novel view and a source view.
//!
//! The Gen-NeRF accelerator's dataflow rests on three deductions from
//! epipolar geometry (paper Sec. 4.1–4.3):
//!
//! * **Property-1** — the projections of the 3D points sampled along one
//!   novel-view ray all lie on a single *epipolar line* in the source
//!   view.
//! * **Property-2** — novel-view pixels on a line through the novel
//!   epipole share one epipolar line in the source view (single-source
//!   dataflow, Sec. 4.2).
//! * **Property-3** — 3D points that are close in space project to close
//!   epipolar lines in every source view (multi-source patch dataflow,
//!   Sec. 4.3).
//!
//! [`EpipolarPair`] bundles the fundamental matrix and the two epipoles
//! for a `(novel, source)` camera pair; integration tests in this module
//! check all three properties.

use crate::camera::Camera;
use crate::mat::Mat3;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// A 2D line in implicit form `a·u + b·v + c = 0`, normalized so that
/// `a² + b² = 1` (which makes [`Line2::distance_to`] a Euclidean
/// distance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Line2 {
    /// Coefficient of `u`.
    pub a: f32,
    /// Coefficient of `v`.
    pub b: f32,
    /// Constant term.
    pub c: f32,
}

impl Line2 {
    /// Builds a normalized line from raw homogeneous coefficients.
    ///
    /// Returns `None` for a degenerate (all-zero direction) line.
    pub fn from_homogeneous(h: Vec3) -> Option<Self> {
        let n = (h.x * h.x + h.y * h.y).sqrt();
        if n < crate::EPSILON {
            return None;
        }
        Some(Self {
            a: h.x / n,
            b: h.y / n,
            c: h.z / n,
        })
    }

    /// The line through two points.
    ///
    /// Returns `None` when the points coincide.
    pub fn through(p: Vec2, q: Vec2) -> Option<Self> {
        Self::from_homogeneous(p.homogeneous().cross(q.homogeneous()))
    }

    /// Signed perpendicular distance from a point (absolute value taken).
    #[inline]
    pub fn distance_to(&self, p: Vec2) -> f32 {
        (self.a * p.x + self.b * p.y + self.c).abs()
    }

    /// Unit direction along the line.
    #[inline]
    pub fn direction(&self) -> Vec2 {
        Vec2::new(-self.b, self.a)
    }

    /// Perpendicular foot: the point on the line closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        let signed = self.a * p.x + self.b * p.y + self.c;
        Vec2::new(p.x - signed * self.a, p.y - signed * self.b)
    }

    /// Local dissimilarity between two lines near `probe`: the largest
    /// distance from three points of `self` (the foot of `probe` and
    /// ±`half_span` along the line) to `other`.
    ///
    /// Zero iff the lines coincide over the probed span; grows with both
    /// angular and translational separation. Used to verify Property-3
    /// (nearby points → nearby epipolar lines).
    pub fn dissimilarity(&self, other: &Self, probe: Vec2) -> f32 {
        let half_span = 100.0;
        let foot = self.closest_point(probe);
        let dir = self.direction();
        [foot, foot + dir * half_span, foot - dir * half_span]
            .into_iter()
            .map(|p| other.distance_to(p))
            .fold(0.0f32, f32::max)
    }
}

/// The epipolar relationship between a novel camera and a source camera.
#[derive(Debug, Clone, Copy)]
pub struct EpipolarPair {
    /// Fundamental matrix `F` mapping novel-view pixels (homogeneous) to
    /// source-view epipolar lines: `l_s = F · x_n`.
    pub fundamental: Mat3,
    /// Epipole in the *novel* image plane (projection of the source
    /// camera center), if it is in front of the novel camera.
    pub epipole_novel: Option<Vec2>,
    /// Epipole in the *source* image plane (projection of the novel
    /// camera center), if it is in front of the source camera.
    pub epipole_source: Option<Vec2>,
}

impl EpipolarPair {
    /// Computes the epipolar relationship for a `(novel, source)` camera
    /// pair:
    ///
    /// `F = K_s⁻ᵀ · [t]× · R_rel · K_n⁻¹`, with `R_rel = R_sᵀ R_n` the
    /// novel→source rotation and `t = R_sᵀ (O_n − O_s)` the novel camera
    /// center in source-camera coordinates.
    pub fn new(novel: &Camera, source: &Camera) -> Self {
        let r_rel = source.pose.rotation.transpose() * novel.pose.rotation;
        let t = source.pose.world_to_camera(novel.center());
        let f = source.intrinsics.inverse_matrix().transpose()
            * Mat3::skew_symmetric(t)
            * r_rel
            * novel.intrinsics.inverse_matrix();
        Self {
            fundamental: f,
            epipole_novel: novel.project(source.center()),
            epipole_source: source.project(novel.center()),
        }
    }

    /// The epipolar line in the source view for novel-view pixel
    /// `(u, v)`.
    ///
    /// Returns `None` in the degenerate case where the pixel ray passes
    /// through the source camera center (the "line" collapses to the
    /// epipole).
    pub fn epipolar_line_for_pixel(&self, u: f32, v: f32) -> Option<Line2> {
        Line2::from_homogeneous(self.fundamental * Vec2::new(u, v).homogeneous())
    }

    /// The epipolar constraint residual `x_sᵀ F x_n` (zero for a perfect
    /// correspondence). Useful for testing and for sanity checks.
    pub fn residual(&self, novel_px: Vec2, source_px: Vec2) -> f32 {
        source_px
            .homogeneous()
            .dot(self.fundamental * novel_px.homogeneous())
    }
}

/// Computes the 2D convex hull of a point set (Andrew's monotone chain)
/// and returns its vertices in counter-clockwise order.
///
/// Duplicates are tolerated; fewer than three distinct points yield a
/// degenerate hull whose [`polygon_area`] is zero.
///
/// Allocating convenience over [`convex_hull_into`], which is the one
/// hull implementation.
pub fn convex_hull(points: &[Vec2]) -> Vec<Vec2> {
    let mut pts = points.to_vec();
    let mut hull = vec![Vec2::ZERO; 2 * pts.len()];
    let n = convex_hull_into(&mut pts, &mut hull);
    hull.truncate(n);
    hull
}

/// [`convex_hull`] without the heap: sorts and dedups `points` in place
/// (its order on return is unspecified), writes the hull's vertices
/// counter-clockwise to the front of `hull` and returns how many there
/// are. The workload scheduler hulls eight corner projections a few
/// hundred thousand times per frame, from stack arrays.
///
/// The sort is stable and the chain pops on `<= 0.0`, so equal and
/// collinear points resolve the same way for every caller.
///
/// # Panics
///
/// Panics when `hull` is shorter than `2 * points.len()`, the chain's
/// worst-case occupancy before its closing vertex is dropped.
pub fn convex_hull_into(points: &mut [Vec2], hull: &mut [Vec2]) -> usize {
    assert!(
        hull.len() >= 2 * points.len(),
        "hull buffer holds {} vertices, {} points need {}",
        hull.len(),
        points.len(),
        2 * points.len()
    );
    points.sort_by(|p, q| {
        p.x.partial_cmp(&q.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(p.y.partial_cmp(&q.y).unwrap_or(std::cmp::Ordering::Equal))
    });
    // Drop near-duplicates of the last kept point.
    let mut n = 0;
    for i in 0..points.len() {
        let duplicate = n > 0 && (points[i] - points[n - 1]).length() < 1e-9;
        if !duplicate {
            points[n] = points[i];
            n += 1;
        }
    }
    let pts = &points[..n];
    if n < 3 {
        hull[..n].copy_from_slice(pts);
        return n;
    }
    let mut len = 0;
    // Pops the chain back to `floor` vertices while its last edge does
    // not turn left towards `p`, then appends `p`.
    let mut extend = |len: &mut usize, floor: usize, p: Vec2| {
        while *len >= floor {
            let a = hull[*len - 2];
            let b = hull[*len - 1];
            if (b - a).cross(p - a) <= 0.0 {
                *len -= 1;
            } else {
                break;
            }
        }
        hull[*len] = p;
        *len += 1;
    };
    // Lower hull.
    for &p in pts {
        extend(&mut len, 2, p);
    }
    // Upper hull.
    let lower_len = len + 1;
    for &p in pts.iter().rev().skip(1) {
        extend(&mut len, lower_len, p);
    }
    // The chain closes on its first vertex; drop the repeat.
    len - 1
}

/// Area of a simple polygon given its vertices in order (shoelace
/// formula). Returns the absolute area.
pub fn polygon_area(vertices: &[Vec2]) -> f32 {
    if vertices.len() < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..vertices.len() {
        let p = vertices[i];
        let q = vertices[(i + 1) % vertices.len()];
        acc += p.cross(q);
    }
    acc.abs() * 0.5
}

/// Convenience: area of the convex hull of a point set. This is the
/// "projected tetragon area" the workload scheduler's area calculator
/// evaluates per patch-shape candidate (paper Fig. 5).
pub fn convex_hull_area(points: &[Vec2]) -> f32 {
    polygon_area(&convex_hull(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Intrinsics, Pose};
    use proptest::prelude::*;

    fn cam(eye: Vec3, target: Vec3) -> Camera {
        Camera::new(
            Intrinsics::from_fov(800, 600, 0.9),
            Pose::look_at(eye, target, Vec3::Y),
        )
    }

    fn pair() -> (Camera, Camera, EpipolarPair) {
        let novel = cam(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO);
        let source = cam(Vec3::new(2.5, 1.0, 3.0), Vec3::ZERO);
        let p = EpipolarPair::new(&novel, &source);
        (novel, source, p)
    }

    #[test]
    fn property1_ray_points_lie_on_epipolar_line() {
        let (novel, source, pair) = pair();
        let (u, v) = (350.0, 280.0);
        let ray = novel.pixel_ray(u, v);
        let line = pair.epipolar_line_for_pixel(u, v).unwrap();
        for t in [1.0, 2.0, 3.5, 5.0, 8.0] {
            let proj = source.project(ray.at(t)).unwrap();
            assert!(
                line.distance_to(proj) < 1e-2,
                "t = {t}, dist = {}",
                line.distance_to(proj)
            );
        }
    }

    #[test]
    fn property2_pixels_through_epipole_share_epipolar_line() {
        let (novel, _source, pair) = pair();
        let e_n = pair.epipole_novel.expect("novel epipole visible");
        // Pick two pixels on a line through the novel epipole.
        let dir = Vec2::new(0.6, 0.8);
        let p1 = e_n + dir * 60.0;
        let p2 = e_n + dir * 180.0;
        let l1 = pair.epipolar_line_for_pixel(p1.x, p1.y).unwrap();
        let l2 = pair.epipolar_line_for_pixel(p2.x, p2.y).unwrap();
        // Same line (up to sign): compare distances from sample points.
        let ray = novel.pixel_ray(p1.x, p1.y);
        let probe = Vec2::new(400.0, 300.0);
        assert!(
            l1.dissimilarity(&l2, probe) < 1e-2,
            "dissimilarity = {}",
            l1.dissimilarity(&l2, probe)
        );
        let _ = ray;
    }

    #[test]
    fn property3_nearby_points_have_nearby_epipolar_lines() {
        let (novel, _source, pair) = pair();
        let probe = Vec2::new(400.0, 300.0);
        let base = Vec2::new(390.0, 290.0);
        let l0 = pair.epipolar_line_for_pixel(base.x, base.y).unwrap();
        // Lines of progressively farther pixels should be progressively
        // more dissimilar, and tiny offsets give tiny dissimilarity.
        let l_close = pair
            .epipolar_line_for_pixel(base.x + 1.0, base.y + 1.0)
            .unwrap();
        let l_far = pair
            .epipolar_line_for_pixel(base.x + 200.0, base.y + 150.0)
            .unwrap();
        let d_close = l0.dissimilarity(&l_close, probe);
        let d_far = l0.dissimilarity(&l_far, probe);
        assert!(d_close < d_far, "close={d_close} far={d_far}");
        // A 1-pixel neighbour's epipolar line stays within a few source
        // pixels over the probed span.
        assert!(d_close < 10.0, "close={d_close}");
        let _ = novel;
    }

    #[test]
    fn epipole_annihilated_by_fundamental() {
        let (_novel, _source, pair) = pair();
        // F * e_n == 0 (the novel epipole is the right null vector).
        let e_n = pair.epipole_novel.unwrap();
        let res = pair.fundamental * e_n.homogeneous();
        assert!(
            res.length() / pair.fundamental.frobenius_norm() < 1e-3,
            "residual = {}",
            res.length()
        );
    }

    #[test]
    fn epipolar_line_passes_through_source_epipole() {
        let (_novel, _source, pair) = pair();
        let e_s = pair.epipole_source.unwrap();
        for (u, v) in [(100.0, 100.0), (400.0, 300.0), (700.0, 500.0)] {
            let line = pair.epipolar_line_for_pixel(u, v).unwrap();
            assert!(
                line.distance_to(e_s) < 1e-2,
                "epipole off line by {}",
                line.distance_to(e_s)
            );
        }
    }

    #[test]
    fn residual_zero_for_true_correspondence() {
        let (novel, source, pair) = pair();
        let ray = novel.pixel_ray(321.0, 234.0);
        let x_s = source.project(ray.at(2.7)).unwrap();
        let r = pair.residual(Vec2::new(321.0, 234.0), x_s);
        // Normalize by F magnitude and pixel magnitudes.
        let scale = pair.fundamental.frobenius_norm() * 800.0 * 800.0;
        assert!(r.abs() / scale < 1e-6, "residual = {r}");
    }

    #[test]
    fn line_through_points_contains_them() {
        let p = Vec2::new(1.0, 2.0);
        let q = Vec2::new(4.0, -3.0);
        let l = Line2::through(p, q).unwrap();
        assert!(l.distance_to(p) < 1e-5);
        assert!(l.distance_to(q) < 1e-5);
        assert!(l.distance_to(Vec2::new(0.0, 10.0)) > 1.0);
    }

    #[test]
    fn line_through_coincident_points_is_none() {
        let p = Vec2::new(1.0, 1.0);
        assert!(Line2::through(p, p).is_none());
    }

    #[test]
    fn hull_of_square_is_square() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(0.5, 0.5), // interior
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!((convex_hull_area(&pts) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hull_of_collinear_points_has_zero_area() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 2.0),
        ];
        assert_eq!(convex_hull_area(&pts), 0.0);
    }

    /// The hull as it was before [`convex_hull_into`] existed — heap
    /// vectors, `Vec::dedup_by`, push / pop — kept as the oracle the
    /// in-place implementation must match vertex for vertex.
    fn convex_hull_reference(points: &[Vec2]) -> Vec<Vec2> {
        let mut pts: Vec<Vec2> = points.to_vec();
        pts.sort_by(|p, q| {
            p.x.partial_cmp(&q.x)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(p.y.partial_cmp(&q.y).unwrap_or(std::cmp::Ordering::Equal))
        });
        pts.dedup_by(|p, q| (*p - *q).length() < 1e-9);
        let n = pts.len();
        if n < 3 {
            return pts;
        }
        let mut hull: Vec<Vec2> = Vec::with_capacity(2 * n);
        for &p in &pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                if (b - a).cross(p - a) <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        let lower_len = hull.len() + 1;
        for &p in pts.iter().rev().skip(1) {
            while hull.len() >= lower_len {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                if (b - a).cross(p - a) <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        hull.pop();
        hull
    }

    fn bits(vertices: &[Vec2]) -> Vec<(u32, u32)> {
        vertices
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// Hulls `points` from stack arrays, as the scheduler does.
    fn hull_on_stack(points: &[Vec2]) -> Vec<Vec2> {
        let mut pts = [Vec2::ZERO; 16];
        let mut hull = [Vec2::ZERO; 32];
        pts[..points.len()].copy_from_slice(points);
        let n = convex_hull_into(&mut pts[..points.len()], &mut hull);
        hull[..n].to_vec()
    }

    #[test]
    fn hull_into_handles_degenerate_inputs() {
        let p = Vec2::new(1.5, -2.0);
        let q = Vec2::new(-0.5, 4.0);
        for pts in [vec![], vec![p], vec![p, p, p], vec![p, q], vec![q, p, q, p]] {
            assert_eq!(
                bits(&hull_on_stack(&pts)),
                bits(&convex_hull_reference(&pts))
            );
            assert!(hull_on_stack(&pts).len() < 3);
        }
    }

    #[test]
    #[should_panic(expected = "hull buffer")]
    fn hull_into_rejects_short_output() {
        let mut pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
        ];
        let mut hull = [Vec2::ZERO; 5]; // needs 2 · 3
        convex_hull_into(&mut pts, &mut hull);
    }

    #[test]
    fn shoelace_triangle() {
        let tri = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(0.0, 2.0),
        ];
        assert!((polygon_area(&tri) - 2.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_property1_random_pixels(
            u in 50.0f32..750.0,
            v in 50.0f32..550.0,
            t in 1.0f32..8.0,
        ) {
            let (novel, source, pair) = pair();
            let ray = novel.pixel_ray(u, v);
            if let (Some(line), Some(proj)) =
                (pair.epipolar_line_for_pixel(u, v), source.project(ray.at(t)))
            {
                prop_assert!(line.distance_to(proj) < 0.05,
                    "distance = {}", line.distance_to(proj));
            }
        }

        #[test]
        fn prop_hull_area_invariant_under_shuffle(seed in 0u64..1000) {
            use rand::{seq::SliceRandom, SeedableRng};
            let mut pts: Vec<Vec2> = (0..12)
                .map(|i| {
                    let a = i as f32 * 0.7 + seed as f32 * 0.01;
                    Vec2::new(a.sin() * 5.0, (a * 1.3).cos() * 5.0)
                })
                .collect();
            let base = convex_hull_area(&pts);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            pts.shuffle(&mut rng);
            prop_assert!((convex_hull_area(&pts) - base).abs() < 1e-3);
        }

        #[test]
        fn prop_hull_contains_all_points(seed in 0u64..200) {
            let pts: Vec<Vec2> = (0..10)
                .map(|i| {
                    let a = i as f32 * 1.1 + seed as f32 * 0.37;
                    Vec2::new(a.sin() * 3.0 + (seed as f32 * 0.1).cos(), (a * 0.9).cos() * 4.0)
                })
                .collect();
            let hull = convex_hull(&pts);
            prop_assume!(hull.len() >= 3);
            // Every input point is inside or on the hull: all cross
            // products with hull edges are >= -eps.
            for p in &pts {
                for i in 0..hull.len() {
                    let a = hull[i];
                    let b = hull[(i + 1) % hull.len()];
                    prop_assert!((b - a).cross(*p - a) >= -1e-3);
                }
            }
        }

        #[test]
        fn prop_hull_into_matches_reference_on_grid_points(
            cells in proptest::collection::vec((-2i32..3, -2i32..3), 0..17),
        ) {
            // A 5×5 lattice: exact duplicates, collinear runs and fewer
            // than three distinct points all occur often.
            let pts: Vec<Vec2> = cells
                .iter()
                .map(|&(x, y)| Vec2::new(x as f32 * 0.75, y as f32 * 1.25))
                .collect();
            let reference = convex_hull_reference(&pts);
            prop_assert_eq!(bits(&hull_on_stack(&pts)), bits(&reference));
            prop_assert_eq!(bits(&convex_hull(&pts)), bits(&reference));
        }

        #[test]
        fn prop_hull_into_matches_reference_on_scattered_points(
            raw in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 0..13),
            repeats in proptest::collection::vec(0usize..12, 0..5),
        ) {
            // Scattered points with a few exact repeats mixed back in.
            let mut pts: Vec<Vec2> = raw.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
            if !pts.is_empty() {
                for &r in &repeats[..repeats.len().min(16 - pts.len())] {
                    let p = pts[r % pts.len()];
                    pts.insert(r % pts.len(), p);
                }
            }
            let reference = convex_hull_reference(&pts);
            prop_assert_eq!(bits(&hull_on_stack(&pts)), bits(&reference));
            prop_assert_eq!(bits(&convex_hull(&pts)), bits(&reference));
        }
    }
}
