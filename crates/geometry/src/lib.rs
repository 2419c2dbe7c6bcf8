//! Linear algebra, camera models and epipolar geometry for the Gen-NeRF
//! reproduction.
//!
//! This crate is the geometric substrate of the workspace. It provides:
//!
//! * small fixed-size vectors and a 3×3 matrix ([`Vec2`], [`Vec3`],
//!   [`Mat3`]) tailored to graphics use,
//! * pinhole camera models ([`Intrinsics`], [`Pose`], [`Camera`]) with
//!   world ↔ camera ↔ pixel transforms,
//! * rays and depth-sampling helpers ([`Ray`]),
//! * axis-aligned boxes and view frusta ([`Aabb`], [`Frustum`]),
//! * epipolar geometry ([`epipolar`]): fundamental matrices, epipoles and
//!   epipolar lines, implementing the three properties the Gen-NeRF paper
//!   (ISCA '23, Sec. 4.1–4.3) builds its dataflow on,
//! * bilinear interpolation footprints ([`bilinear`]) used when fetching
//!   scene features from source-view feature maps.
//!
//! # Example
//!
//! Project a 3D point sampled on a novel-view ray onto a source view and
//! verify it lands on the epipolar line:
//!
//! ```
//! use gen_nerf_geometry::{Camera, Intrinsics, Pose, Vec3};
//! use gen_nerf_geometry::epipolar::EpipolarPair;
//!
//! let novel = Camera::new(
//!     Intrinsics::from_fov(800, 800, 0.8),
//!     Pose::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y),
//! );
//! let source = Camera::new(
//!     Intrinsics::from_fov(800, 800, 0.8),
//!     Pose::look_at(Vec3::new(2.0, 1.0, 3.5), Vec3::ZERO, Vec3::Y),
//! );
//! let pair = EpipolarPair::new(&novel, &source);
//! let ray = novel.pixel_ray(400.5, 300.5);
//! let line = pair.epipolar_line_for_pixel(400.5, 300.5).unwrap();
//! let p = ray.at(3.0);
//! let uv = source.project(p).unwrap();
//! assert!(line.distance_to(uv) < 1e-3);
//! ```

#![warn(unreachable_pub)]

mod aabb;
pub mod bilinear;
mod camera;
pub mod epipolar;
mod frustum;
mod mat;
mod ray;
mod vec;

pub use aabb::Aabb;
pub use camera::{Camera, Intrinsics, Pose};
pub use frustum::Frustum;
pub use mat::Mat3;
pub use ray::Ray;
pub use vec::{Vec2, Vec3};

/// Default tolerance used by the crate's geometric predicates.
pub const EPSILON: f32 = 1e-6;
