//! View frusta — the 3D shape a point-patch candidate occupies.
//!
//! The workload scheduler (paper Fig. 5) treats each patch-shape
//! candidate `δh × δw × δd` as a frustum in world space: the region swept
//! by the rays of a `δh × δw` pixel tile between two depth planes. Its
//! projection onto a source view (a tetragon-ish convex region) estimates
//! the scene-feature traffic needed to process the patch.

use crate::camera::Camera;
use crate::epipolar::{convex_hull_into, polygon_area};
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// A camera-space frustum: a pixel rectangle swept over a depth range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frustum {
    /// Inclusive pixel rectangle start (u0, v0).
    pub uv_min: Vec2,
    /// Exclusive pixel rectangle end (u1, v1).
    pub uv_max: Vec2,
    /// Near depth along the ray (camera-space `t`).
    pub t_near: f32,
    /// Far depth along the ray.
    pub t_far: f32,
}

impl Frustum {
    /// Creates a frustum from a pixel rectangle and depth range.
    ///
    /// # Panics
    ///
    /// Panics when the rectangle or depth range is empty or inverted.
    pub fn new(uv_min: Vec2, uv_max: Vec2, t_near: f32, t_far: f32) -> Self {
        assert!(
            uv_max.x > uv_min.x && uv_max.y > uv_min.y,
            "empty pixel rectangle"
        );
        assert!(t_far > t_near && t_near >= 0.0, "invalid depth range");
        Self {
            uv_min,
            uv_max,
            t_near,
            t_far,
        }
    }

    /// The eight world-space corners: the four rectangle corners at the
    /// near depth and at the far depth, traced through `camera`.
    pub fn world_corners(&self, camera: &Camera) -> [Vec3; 8] {
        let corners_uv = [
            Vec2::new(self.uv_min.x, self.uv_min.y),
            Vec2::new(self.uv_max.x, self.uv_min.y),
            Vec2::new(self.uv_max.x, self.uv_max.y),
            Vec2::new(self.uv_min.x, self.uv_max.y),
        ];
        let mut out = [Vec3::ZERO; 8];
        for (i, uv) in corners_uv.iter().enumerate() {
            let ray = camera.pixel_ray(uv.x, uv.y);
            out[i] = ray.at(self.t_near);
            out[i + 4] = ray.at(self.t_far);
        }
        out
    }

    /// Projects the frustum onto a source view and returns the convex
    /// hull area of the visible corner projections, in source pixels² —
    /// the workload scheduler's memory-traffic estimate for this patch
    /// candidate.
    ///
    /// Corners behind the source camera are skipped; if fewer than three
    /// corners are visible the area is zero (treated as "free" by the
    /// caller, which also bounds patches by the prefetch-buffer size).
    pub fn projected_area(&self, novel: &Camera, source: &Camera) -> f32 {
        let mut projections = [Vec2::ZERO; 8];
        let mut visible = 0;
        for uv in self
            .world_corners(novel)
            .iter()
            .filter_map(|&p| source.project(p))
        {
            projections[visible] = uv;
            visible += 1;
        }
        let mut hull = [Vec2::ZERO; 16];
        let n = convex_hull_into(&mut projections[..visible], &mut hull);
        polygon_area(&hull[..n])
    }

    /// Sum of [`Frustum::projected_area`] over several source views — the
    /// quantity the greedy partition minimizes per candidate.
    pub fn total_projected_area(&self, novel: &Camera, sources: &[Camera]) -> f32 {
        sources.iter().map(|s| self.projected_area(novel, s)).sum()
    }

    /// Number of whole pixels covered by the rectangle.
    pub fn pixel_footprint(&self) -> usize {
        let w = (self.uv_max.x - self.uv_min.x).round().max(0.0) as usize;
        let h = (self.uv_max.y - self.uv_min.y).round().max(0.0) as usize;
        w * h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Intrinsics, Pose};

    fn novel() -> Camera {
        Camera::new(
            Intrinsics::from_fov(640, 480, 0.9),
            Pose::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y),
        )
    }

    fn source() -> Camera {
        Camera::new(
            Intrinsics::from_fov(640, 480, 0.9),
            Pose::look_at(Vec3::new(2.0, 0.5, 4.5), Vec3::ZERO, Vec3::Y),
        )
    }

    #[test]
    fn corners_are_on_pixel_rays() {
        let f = Frustum::new(Vec2::new(100.0, 100.0), Vec2::new(130.0, 120.0), 2.0, 6.0);
        let cam = novel();
        let corners = f.world_corners(&cam);
        // Near corners reproject to the rectangle corners.
        let uv = cam.project(corners[0]).unwrap();
        assert!((uv - Vec2::new(100.0, 100.0)).length() < 0.05);
        let uv = cam.project(corners[6]).unwrap();
        assert!((uv - Vec2::new(130.0, 120.0)).length() < 0.05);
    }

    #[test]
    fn bigger_patch_projects_bigger_area() {
        let small = Frustum::new(Vec2::new(300.0, 220.0), Vec2::new(310.0, 230.0), 3.0, 4.0);
        let large = Frustum::new(Vec2::new(280.0, 200.0), Vec2::new(340.0, 260.0), 3.0, 4.0);
        let a_small = small.projected_area(&novel(), &source());
        let a_large = large.projected_area(&novel(), &source());
        assert!(a_large > a_small, "large={a_large} small={a_small}");
    }

    #[test]
    fn deeper_patch_projects_bigger_area() {
        let shallow = Frustum::new(Vec2::new(300.0, 220.0), Vec2::new(320.0, 240.0), 3.0, 3.5);
        let deep = Frustum::new(Vec2::new(300.0, 220.0), Vec2::new(320.0, 240.0), 3.0, 7.0);
        // A longer ray segment sweeps a longer epipolar-line stretch.
        assert!(
            deep.projected_area(&novel(), &source()) > shallow.projected_area(&novel(), &source())
        );
    }

    #[test]
    fn total_area_sums_over_sources() {
        let f = Frustum::new(Vec2::new(300.0, 220.0), Vec2::new(320.0, 240.0), 3.0, 4.0);
        let n = novel();
        let sources = vec![source(), source()];
        let total = f.total_projected_area(&n, &sources);
        let single = f.projected_area(&n, &source());
        assert!((total - 2.0 * single).abs() < 1e-3);
    }

    #[test]
    fn pixel_footprint_counts_pixels() {
        let f = Frustum::new(Vec2::new(0.0, 0.0), Vec2::new(8.0, 4.0), 1.0, 2.0);
        assert_eq!(f.pixel_footprint(), 32);
    }

    #[test]
    #[should_panic(expected = "empty pixel rectangle")]
    fn rejects_empty_rectangle() {
        let _ = Frustum::new(Vec2::new(10.0, 10.0), Vec2::new(10.0, 20.0), 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid depth range")]
    fn rejects_inverted_depths() {
        let _ = Frustum::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0), 5.0, 2.0);
    }
}
