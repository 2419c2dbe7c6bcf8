//! Pinhole camera model (OpenCV convention: `x` right, `y` down, `z`
//! forward).

use crate::mat::Mat3;
use crate::ray::Ray;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// Pinhole intrinsics for an image of `width`×`height` pixels.
///
/// Pixel coordinates follow the usual image convention: `u` grows to the
/// right, `v` grows downward, and the center of the top-left pixel is at
/// `(0.5, 0.5)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Intrinsics {
    /// Horizontal focal length in pixels.
    pub fx: f32,
    /// Vertical focal length in pixels.
    pub fy: f32,
    /// Principal point, horizontal.
    pub cx: f32,
    /// Principal point, vertical.
    pub cy: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl Intrinsics {
    /// Creates intrinsics from an explicit focal length and a centered
    /// principal point.
    pub fn new(width: u32, height: u32, fx: f32, fy: f32) -> Self {
        Self {
            fx,
            fy,
            cx: width as f32 / 2.0,
            cy: height as f32 / 2.0,
            width,
            height,
        }
    }

    /// Creates intrinsics from a vertical field of view (radians), with
    /// square pixels and a centered principal point.
    ///
    /// # Panics
    ///
    /// Panics if `fov_y` is not in `(0, π)`.
    pub fn from_fov(width: u32, height: u32, fov_y: f32) -> Self {
        assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "fov_y must be in (0, pi), got {fov_y}"
        );
        let f = height as f32 / (2.0 * (fov_y / 2.0).tan());
        Self::new(width, height, f, f)
    }

    /// The calibration matrix `K`.
    #[cfg(test)]
    pub(crate) fn matrix(&self) -> Mat3 {
        Mat3::from_rows(
            [self.fx, 0.0, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        )
    }

    /// The inverse calibration matrix `K⁻¹`.
    pub(crate) fn inverse_matrix(&self) -> Mat3 {
        Mat3::from_rows(
            [1.0 / self.fx, 0.0, -self.cx / self.fx],
            [0.0, 1.0 / self.fy, -self.cy / self.fy],
            [0.0, 0.0, 1.0],
        )
    }

    /// Whether continuous pixel coordinates fall inside the image.
    #[inline]
    pub fn contains(&self, uv: Vec2) -> bool {
        uv.x >= 0.0 && uv.y >= 0.0 && uv.x < self.width as f32 && uv.y < self.height as f32
    }

    /// Total number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }
}

/// A rigid camera pose: camera-to-world rotation plus camera center.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pose {
    /// Camera-to-world rotation; columns are the camera axes expressed in
    /// world coordinates (`x` right, `y` down, `z` forward).
    pub rotation: Mat3,
    /// Camera center (ray origin) in world coordinates.
    pub origin: Vec3,
}

impl Pose {
    /// The identity pose (camera at the world origin looking along +Z).
    pub const IDENTITY: Self = Self {
        rotation: Mat3::IDENTITY,
        origin: Vec3::ZERO,
    };

    /// Builds a pose located at `eye` looking toward `target` with the
    /// given world-space `up` hint.
    ///
    /// # Panics
    ///
    /// Panics if `eye == target` or if `up` is parallel to the viewing
    /// direction.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let forward = (target - eye)
            .try_normalized()
            .expect("look_at: eye and target coincide");
        let right = forward
            .cross(up)
            .try_normalized()
            .expect("look_at: up is parallel to the view direction");
        let down = forward.cross(right);
        Self {
            rotation: Mat3::from_cols(right, down, forward),
            origin: eye,
        }
    }

    /// World-to-camera transform of a point.
    #[inline]
    pub(crate) fn world_to_camera(&self, p: Vec3) -> Vec3 {
        self.rotation.transpose() * (p - self.origin)
    }

    /// The viewing direction (camera +Z axis) in world space.
    #[inline]
    pub fn forward(&self) -> Vec3 {
        self.rotation.col(2)
    }
}

impl Default for Pose {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// A calibrated camera: intrinsics plus pose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Pinhole intrinsics.
    pub intrinsics: Intrinsics,
    /// Rigid pose.
    pub pose: Pose,
}

impl Camera {
    /// Creates a camera from intrinsics and pose.
    pub fn new(intrinsics: Intrinsics, pose: Pose) -> Self {
        Self { intrinsics, pose }
    }

    /// Projects a world-space point to continuous pixel coordinates.
    ///
    /// Returns `None` when the point is behind (or numerically on) the
    /// camera plane. The returned coordinates may lie outside the image
    /// bounds; use [`Intrinsics::contains`] to test visibility.
    pub fn project(&self, p: Vec3) -> Option<Vec2> {
        let cam = self.pose.world_to_camera(p);
        if cam.z <= crate::EPSILON {
            return None;
        }
        Some(Vec2::new(
            self.intrinsics.fx * cam.x / cam.z + self.intrinsics.cx,
            self.intrinsics.fy * cam.y / cam.z + self.intrinsics.cy,
        ))
    }

    /// The ray through continuous pixel coordinates `(u, v)`.
    pub fn pixel_ray(&self, u: f32, v: f32) -> Ray {
        let dir_cam = Vec3::new(
            (u - self.intrinsics.cx) / self.intrinsics.fx,
            (v - self.intrinsics.cy) / self.intrinsics.fy,
            1.0,
        );
        let dir_world = (self.pose.rotation * dir_cam).normalized();
        Ray::new(self.pose.origin, dir_world)
    }

    /// The ray through the *center* of integer pixel `(px, py)`.
    pub fn pixel_center_ray(&self, px: u32, py: u32) -> Ray {
        self.pixel_ray(px as f32 + 0.5, py as f32 + 0.5)
    }

    /// Camera center in world coordinates.
    #[inline]
    pub fn center(&self) -> Vec3 {
        self.pose.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_camera() -> Camera {
        Camera::new(
            Intrinsics::from_fov(640, 480, 0.9),
            Pose::look_at(Vec3::new(1.0, 2.0, -5.0), Vec3::ZERO, Vec3::Y),
        )
    }

    #[test]
    fn intrinsics_from_fov_focal_length() {
        let intr = Intrinsics::from_fov(800, 800, std::f32::consts::FRAC_PI_2);
        // tan(45 deg) == 1 => f == h/2.
        assert!((intr.fy - 400.0).abs() < 1e-3);
        assert!((intr.fx - intr.fy).abs() < 1e-6);
        assert_eq!(intr.cx, 400.0);
    }

    #[test]
    #[should_panic(expected = "fov_y")]
    fn intrinsics_rejects_bad_fov() {
        let _ = Intrinsics::from_fov(100, 100, -1.0);
    }

    #[test]
    fn k_inverse_matches_inverse() {
        let intr = Intrinsics::new(320, 240, 200.0, 210.0);
        let prod = intr.matrix() * intr.inverse_matrix();
        assert!((prod - Mat3::IDENTITY).frobenius_norm() < 1e-5);
    }

    #[test]
    fn look_at_faces_target() {
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::Y);
        let fwd = pose.forward();
        assert!((fwd - Vec3::Z).length() < 1e-5);
    }

    #[test]
    fn look_at_rotation_is_orthonormal() {
        let pose = Pose::look_at(Vec3::new(2.0, 1.0, 4.0), Vec3::new(-1.0, 0.0, 0.5), Vec3::Y);
        let r = pose.rotation;
        let err = (r * r.transpose() - Mat3::IDENTITY).frobenius_norm();
        assert!(err < 1e-5, "rotation not orthonormal, err={err}");
    }

    #[test]
    fn world_camera_roundtrip() {
        let pose = Pose::look_at(Vec3::new(3.0, -1.0, 2.0), Vec3::ZERO, Vec3::Y);
        let p = Vec3::new(0.3, 0.7, -1.2);
        // Camera-to-world is the rigid transform `R·p + O`.
        let back = pose.rotation * pose.world_to_camera(p) + pose.origin;
        assert!((back - p).length() < 1e-5);
    }

    #[test]
    fn target_projects_to_principal_point() {
        let cam = test_camera();
        // The look-at target lies on the optical axis.
        let uv = cam.project(Vec3::ZERO).unwrap();
        assert!((uv.x - cam.intrinsics.cx).abs() < 1e-2);
        assert!((uv.y - cam.intrinsics.cy).abs() < 1e-2);
    }

    #[test]
    fn behind_camera_projects_to_none() {
        let cam = test_camera();
        let behind = cam.center() - cam.pose.forward() * 2.0;
        assert!(cam.project(behind).is_none());
    }

    #[test]
    fn pixel_ray_project_roundtrip() {
        let cam = test_camera();
        let ray = cam.pixel_ray(123.4, 456.7);
        let p = ray.at(3.5);
        let uv = cam.project(p).unwrap();
        assert!((uv.x - 123.4).abs() < 1e-2, "u = {}", uv.x);
        assert!((uv.y - 456.7).abs() < 1e-2, "v = {}", uv.y);
    }

    #[test]
    fn depth_of_is_positive_in_front() {
        let cam = test_camera();
        let p = cam.center() + cam.pose.forward() * 4.2;
        // Depth is the camera-space `z`.
        assert!((cam.pose.world_to_camera(p).z - 4.2).abs() < 1e-4);
    }

    proptest! {
        #[test]
        fn prop_ray_projects_back_to_pixel(
            u in 1.0f32..639.0,
            v in 1.0f32..479.0,
            t in 0.5f32..20.0,
        ) {
            let cam = test_camera();
            let p = cam.pixel_ray(u, v).at(t);
            let uv = cam.project(p).unwrap();
            prop_assert!((uv.x - u).abs() < 0.05);
            prop_assert!((uv.y - v).abs() < 0.05);
        }

        #[test]
        fn prop_depth_increases_along_ray(
            u in 1.0f32..639.0,
            v in 1.0f32..479.0,
            t1 in 0.5f32..10.0,
            dt in 0.1f32..10.0,
        ) {
            let cam = test_camera();
            let ray = cam.pixel_ray(u, v);
            let depth = |t: f32| cam.pose.world_to_camera(ray.at(t)).z;
            prop_assert!(depth(t1 + dt) > depth(t1));
        }
    }
}
