//! Analytic density/color fields — the ground-truth scenes.
//!
//! A [`Scene`] is a sum of primitive density fields with per-primitive
//! albedo. Density is in "opacity per unit length" units consumed by
//! the volume-rendering quadrature (paper Eq. 2); color is albedo with
//! a cheap analytic shading term plus a mild view-dependent component
//! (so that view interpolation is non-trivial, as with real scenes).

use gen_nerf_geometry::{Aabb, Vec3};
use serde::{Deserialize, Serialize};

/// One density primitive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Primitive {
    /// Gaussian density blob: `σ(p) = density · exp(−½‖p−c‖²/r²)`,
    /// truncated at `3r`.
    Blob {
        /// Center.
        center: Vec3,
        /// Standard-deviation radius.
        radius: f32,
        /// Peak density.
        density: f32,
        /// Base color.
        albedo: Vec3,
    },
    /// Solid sphere with soft shell falloff.
    Sphere {
        /// Center.
        center: Vec3,
        /// Radius.
        radius: f32,
        /// Interior density.
        density: f32,
        /// Base color.
        albedo: Vec3,
    },
    /// Axis-aligned solid box with soft edges.
    Box {
        /// Bounds.
        bounds: Aabb,
        /// Interior density.
        density: f32,
        /// Base color.
        albedo: Vec3,
    },
    /// Horizontal slab (ground plane) with checkerboard albedo.
    Slab {
        /// Top surface height (y).
        y_top: f32,
        /// Slab thickness.
        thickness: f32,
        /// Interior density.
        density: f32,
        /// Checker color A.
        albedo_a: Vec3,
        /// Checker color B.
        albedo_b: Vec3,
        /// Checker period in world units.
        checker: f32,
    },
}

impl Primitive {
    /// Density contribution at `p`.
    pub fn density(&self, p: Vec3) -> f32 {
        match *self {
            Primitive::Blob {
                center,
                radius,
                density,
                ..
            } => {
                let d2 = (p - center).length_squared();
                let r2 = radius * radius;
                if d2 > 9.0 * r2 {
                    0.0
                } else {
                    density * (-0.5 * d2 / r2).exp()
                }
            }
            Primitive::Sphere {
                center,
                radius,
                density,
                ..
            } => {
                let d = (p - center).length();
                if d <= radius {
                    density
                } else if d <= radius * 1.1 {
                    density * (1.0 - (d - radius) / (radius * 0.1))
                } else {
                    0.0
                }
            }
            Primitive::Box {
                ref bounds,
                density,
                ..
            } => {
                if bounds.contains(p) {
                    density
                } else {
                    0.0
                }
            }
            Primitive::Slab {
                y_top,
                thickness,
                density,
                ..
            } => {
                if p.y <= y_top && p.y >= y_top - thickness {
                    density
                } else {
                    0.0
                }
            }
        }
    }

    /// Albedo at `p` (only meaningful where density > 0).
    pub(crate) fn albedo(&self, p: Vec3) -> Vec3 {
        match *self {
            Primitive::Blob { albedo, .. } | Primitive::Sphere { albedo, .. } => albedo,
            Primitive::Box { albedo, .. } => albedo,
            Primitive::Slab {
                albedo_a,
                albedo_b,
                checker,
                ..
            } => {
                let cx = (p.x / checker).floor() as i64;
                let cz = (p.z / checker).floor() as i64;
                if (cx + cz).rem_euclid(2) == 0 {
                    albedo_a
                } else {
                    albedo_b
                }
            }
        }
    }

    /// A bounding box covering the primitive's support.
    pub fn bounds(&self) -> Aabb {
        match *self {
            Primitive::Blob { center, radius, .. } => Aabb::cube(center, radius * 3.0),
            Primitive::Sphere { center, radius, .. } => Aabb::cube(center, radius * 1.1),
            Primitive::Box { ref bounds, .. } => *bounds,
            Primitive::Slab {
                y_top, thickness, ..
            } => Aabb::new(
                Vec3::new(-100.0, y_top - thickness, -100.0),
                Vec3::new(100.0, y_top, 100.0),
            ),
        }
    }
}

/// An analytic volumetric scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Primitives, composited by summing densities and density-weighting
    /// albedos.
    pub primitives: Vec<Primitive>,
    /// Background color returned by rays that exit without saturating.
    pub background: Vec3,
    /// Scene bounds (rays are clipped against this).
    pub bounds: Aabb,
}

impl Scene {
    /// Creates a scene; bounds are the union of primitive bounds plus a
    /// margin, clamped to a sane region.
    ///
    /// # Panics
    ///
    /// Panics when `primitives` is empty.
    pub fn new(primitives: Vec<Primitive>, background: Vec3) -> Self {
        assert!(!primitives.is_empty(), "scene needs at least one primitive");
        let mut bounds = primitives[0].bounds();
        for p in &primitives[1..] {
            bounds = bounds.union(&p.bounds());
        }
        // Slabs inflate bounds; clamp to a reasonable region around the
        // non-slab content.
        let clamped = Aabb::new(
            bounds.min.max(Vec3::splat(-12.0)),
            bounds.max.min(Vec3::splat(12.0)),
        );
        Self {
            primitives,
            background,
            bounds: clamped.expanded(0.5),
        }
    }

    /// Total density at `p`.
    pub fn density(&self, p: Vec3) -> f32 {
        self.primitives.iter().map(|prim| prim.density(p)).sum()
    }

    /// Density-weighted albedo at `p` (background color where empty).
    pub(crate) fn albedo(&self, p: Vec3) -> Vec3 {
        let mut total = 0.0;
        let mut acc = Vec3::ZERO;
        for prim in &self.primitives {
            let d = prim.density(p);
            if d > 0.0 {
                acc += prim.albedo(p) * d;
                total += d;
            }
        }
        if total > 0.0 {
            acc / total
        } else {
            self.background
        }
    }

    /// Emitted color at `p` viewed along `dir`: albedo with analytic
    /// height shading and a small view-dependent highlight.
    pub fn color(&self, p: Vec3, dir: Vec3) -> Vec3 {
        let base = self.albedo(p);
        // Height-based shading stands in for diffuse lighting.
        let extent = (self.bounds.max.y - self.bounds.min.y).max(1e-3);
        let shade = 0.7 + 0.3 * ((p.y - self.bounds.min.y) / extent).clamp(0.0, 1.0);
        // Mild view-dependence: highlight when looking along -y (light
        // from above), giving non-Lambertian behaviour.
        let light = Vec3::new(0.3, -0.9, 0.3).normalized();
        let spec = dir.dot(light).max(0.0).powi(4) * 0.15;
        (base * shade + Vec3::splat(spec)).clamp(0.0, 1.0)
    }

    /// Fraction of `n³` stratified probe points inside the bounds that
    /// carry density above `threshold` — the scene's *occupancy*, the
    /// sparsity statistic the paper's coarse-then-focus sampling
    /// exploits.
    pub fn occupancy(&self, n: usize, threshold: f32) -> f32 {
        let mut hits = 0usize;
        let ext = self.bounds.extent();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let p = self.bounds.min
                        + Vec3::new(
                            ext.x * (i as f32 + 0.5) / n as f32,
                            ext.y * (j as f32 + 0.5) / n as f32,
                            ext.z * (k as f32 + 0.5) / n as f32,
                        );
                    if self.density(p) > threshold {
                        hits += 1;
                    }
                }
            }
        }
        hits as f32 / (n * n * n) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_at_origin() -> Primitive {
        Primitive::Blob {
            center: Vec3::ZERO,
            radius: 1.0,
            density: 4.0,
            albedo: Vec3::new(1.0, 0.0, 0.0),
        }
    }

    #[test]
    fn blob_density_peaks_at_center() {
        let b = blob_at_origin();
        assert!((b.density(Vec3::ZERO) - 4.0).abs() < 1e-6);
        assert!(b.density(Vec3::new(0.5, 0.0, 0.0)) < 4.0);
        assert_eq!(b.density(Vec3::new(4.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn sphere_uniform_inside() {
        let s = Primitive::Sphere {
            center: Vec3::ZERO,
            radius: 1.0,
            density: 2.0,
            albedo: Vec3::ONE,
        };
        assert_eq!(s.density(Vec3::new(0.5, 0.0, 0.0)), 2.0);
        assert_eq!(s.density(Vec3::new(2.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn box_density_inside_only() {
        let b = Primitive::Box {
            bounds: Aabb::cube(Vec3::ZERO, 1.0),
            density: 3.0,
            albedo: Vec3::ONE,
        };
        assert_eq!(b.density(Vec3::ZERO), 3.0);
        assert_eq!(b.density(Vec3::new(1.5, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn slab_checker_alternates() {
        let s = Primitive::Slab {
            y_top: 0.0,
            thickness: 0.5,
            density: 5.0,
            albedo_a: Vec3::ONE,
            albedo_b: Vec3::ZERO,
            checker: 1.0,
        };
        let a = s.albedo(Vec3::new(0.5, -0.1, 0.5));
        let b = s.albedo(Vec3::new(1.5, -0.1, 0.5));
        assert!((a - b).length() > 0.5);
    }

    #[test]
    fn scene_density_sums() {
        let scene = Scene::new(vec![blob_at_origin(), blob_at_origin()], Vec3::splat(0.1));
        assert!((scene.density(Vec3::ZERO) - 8.0).abs() < 1e-5);
    }

    #[test]
    fn scene_albedo_blends_by_density() {
        let red = Primitive::Blob {
            center: Vec3::ZERO,
            radius: 1.0,
            density: 3.0,
            albedo: Vec3::new(1.0, 0.0, 0.0),
        };
        let blue = Primitive::Blob {
            center: Vec3::ZERO,
            radius: 1.0,
            density: 1.0,
            albedo: Vec3::new(0.0, 0.0, 1.0),
        };
        let scene = Scene::new(vec![red, blue], Vec3::ZERO);
        let a = scene.albedo(Vec3::ZERO);
        assert!((a.x - 0.75).abs() < 1e-5);
        assert!((a.z - 0.25).abs() < 1e-5);
    }

    #[test]
    fn empty_region_returns_background() {
        let scene = Scene::new(vec![blob_at_origin()], Vec3::splat(0.3));
        let a = scene.albedo(Vec3::new(8.0, 8.0, 8.0));
        assert!((a - Vec3::splat(0.3)).length() < 1e-6);
    }

    #[test]
    fn color_is_clamped() {
        let scene = Scene::new(vec![blob_at_origin()], Vec3::ZERO);
        let c = scene.color(Vec3::ZERO, Vec3::new(0.3, -0.9, 0.3).normalized());
        assert!(c.x <= 1.0 && c.y <= 1.0 && c.z <= 1.0);
        assert!(c.x >= 0.0);
    }

    #[test]
    fn color_view_dependent() {
        let scene = Scene::new(vec![blob_at_origin()], Vec3::ZERO);
        let c1 = scene.color(Vec3::ZERO, Vec3::new(0.3, -0.9, 0.3).normalized());
        let c2 = scene.color(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
        assert!((c1 - c2).length() > 1e-3, "no view dependence");
    }

    #[test]
    fn occupancy_of_small_blob_is_sparse() {
        let scene = Scene::new(vec![blob_at_origin()], Vec3::ZERO);
        let occ = scene.occupancy(12, 0.1);
        assert!(occ > 0.0 && occ < 0.5, "occupancy = {occ}");
    }

    #[test]
    #[should_panic(expected = "at least one primitive")]
    fn empty_scene_rejected() {
        let _ = Scene::new(vec![], Vec3::ZERO);
    }

    #[test]
    fn bounds_cover_primitives() {
        let scene = Scene::new(
            vec![
                blob_at_origin(),
                Primitive::Sphere {
                    center: Vec3::new(3.0, 0.0, 0.0),
                    radius: 0.5,
                    density: 1.0,
                    albedo: Vec3::ONE,
                },
            ],
            Vec3::ZERO,
        );
        assert!(scene.bounds.contains(Vec3::ZERO));
        assert!(scene.bounds.contains(Vec3::new(3.0, 0.0, 0.0)));
    }
}
