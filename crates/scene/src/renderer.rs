//! Ground-truth volume renderer.
//!
//! Implements the quadrature of paper Eq. 2 against the analytic scene:
//! `Ĉ(r) = Σ_k T_k (1 − exp(−σ_k (t_{k+1} − t_k))) c_k`, with
//! `T_k = exp(−Σ_{j<k} σ_j (t_{j+1} − t_j))`. This renderer produces
//! the *source views* the generalizable NeRF conditions on and the
//! *ground-truth target views* every PSNR in the experiments is
//! measured against.

use crate::field::Scene;
use crate::image::Image;
use gen_nerf_geometry::{Camera, Ray, Vec3};

/// Per-sample compositing result for a single ray.
#[derive(Debug, Clone)]
pub struct RayComposite {
    /// Final pixel color (background blended under residual
    /// transmittance).
    pub color: Vec3,
    /// Hitting probability `w_k = T_k (1 − exp(−σ_k δ_k))` per sample —
    /// the quantity the coarse-then-focus sampler thresholds (Sec. 3.2).
    pub weights: Vec<f32>,
    /// Transmittance remaining after the last sample.
    pub residual_transmittance: f32,
}

/// Composites densities and colors along a ray (Eq. 2).
///
/// `deltas[k]` is the interval width `t_{k+1} − t_k`.
///
/// # Panics
///
/// Panics when slice lengths disagree.
pub fn composite(
    densities: &[f32],
    colors: &[Vec3],
    deltas: &[f32],
    background: Vec3,
) -> RayComposite {
    let mut weights = Vec::with_capacity(densities.len());
    let (color, residual_transmittance) =
        composite_into(densities, colors, deltas, background, &mut weights);
    RayComposite {
        color,
        weights,
        residual_transmittance,
    }
}

/// [`composite`] with a caller-owned weights buffer (cleared first):
/// returns `(color, residual_transmittance)` and leaves the per-sample
/// hitting probabilities in `weights`. Identical arithmetic to
/// [`composite`], no allocation once the buffer has grown to size —
/// the composite phase of the fused render schedule reuses one buffer
/// for a whole chunk of rays.
///
/// # Panics
///
/// Panics when slice lengths disagree.
pub fn composite_into(
    densities: &[f32],
    colors: &[Vec3],
    deltas: &[f32],
    background: Vec3,
    weights: &mut Vec<f32>,
) -> (Vec3, f32) {
    weights.clear();
    weights.resize(densities.len(), 0.0);
    composite_to(densities, colors, deltas, background, weights)
}

/// [`composite_into`] straight into the slice that is to hold the
/// hitting probabilities — one per sample, every one overwritten.
///
/// # Panics
///
/// Panics when slice lengths disagree.
pub fn composite_to(
    densities: &[f32],
    colors: &[Vec3],
    deltas: &[f32],
    background: Vec3,
    weights: &mut [f32],
) -> (Vec3, f32) {
    assert_eq!(densities.len(), colors.len(), "composite: length mismatch");
    assert_eq!(densities.len(), deltas.len(), "composite: length mismatch");
    assert_eq!(densities.len(), weights.len(), "composite: length mismatch");
    let mut transmittance = 1.0f32;
    let mut color = Vec3::ZERO;
    let mut written = 0;
    for k in 0..densities.len() {
        let alpha = 1.0 - (-densities[k].max(0.0) * deltas[k]).exp();
        let w = transmittance * alpha;
        color += colors[k] * w;
        weights[k] = w;
        written = k + 1;
        transmittance *= 1.0 - alpha;
        if transmittance < 1e-5 {
            // Early termination: the remaining samples see (numerically)
            // zero transmittance; record zero weights for them.
            break;
        }
    }
    weights[written..].fill(0.0);
    color += background * transmittance;
    (color, transmittance)
}

/// Traces one ray against the ground-truth scene with `n_samples`
/// uniform samples over the ray's intersection with the scene bounds.
///
/// Rays that miss the bounds return the background color with empty
/// weights.
pub fn trace_ray(scene: &Scene, ray: &Ray, n_samples: usize) -> RayComposite {
    let Some((t0, t1)) = scene.bounds.intersect_ray(ray) else {
        return RayComposite {
            color: scene.background,
            weights: Vec::new(),
            residual_transmittance: 1.0,
        };
    };
    if t1 - t0 < 1e-5 {
        return RayComposite {
            color: scene.background,
            weights: Vec::new(),
            residual_transmittance: 1.0,
        };
    }
    let depths = Ray::uniform_depths(t0, t1, n_samples);
    let deltas = Ray::interval_widths(&depths, t1);
    let mut densities = Vec::with_capacity(n_samples);
    let mut colors = Vec::with_capacity(n_samples);
    for &t in &depths {
        let p = ray.at(t);
        densities.push(scene.density(p));
        colors.push(scene.color(p, ray.direction));
    }
    composite(&densities, &colors, &deltas, scene.background)
}

/// Renders a full image from `camera` with `n_samples` ground-truth
/// samples per ray.
pub fn render(scene: &Scene, camera: &Camera, n_samples: usize) -> Image {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    Image::from_fn(w, h, |x, y| {
        let ray = camera.pixel_center_ray(x, y);
        trace_ray(scene, &ray, n_samples).color
    })
}

/// Renders the depth of the maximum-weight sample per pixel (∞ where
/// the ray saturates nothing) — used by tests and the dataflow
/// analysis.
pub fn render_depth(scene: &Scene, camera: &Camera, n_samples: usize) -> Vec<f32> {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let mut out = Vec::with_capacity((w * h) as usize);
    for y in 0..h {
        for x in 0..w {
            let ray = camera.pixel_center_ray(x, y);
            let Some((t0, t1)) = scene.bounds.intersect_ray(&ray) else {
                out.push(f32::INFINITY);
                continue;
            };
            let depths = Ray::uniform_depths(t0, t1, n_samples);
            let comp = trace_ray(scene, &ray, n_samples);
            let best = comp
                .weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal));
            match best {
                Some((i, &w)) if w > 1e-4 => out.push(depths[i]),
                _ => out.push(f32::INFINITY),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Primitive;
    use gen_nerf_geometry::{Intrinsics, Pose};
    use proptest::prelude::*;

    fn simple_scene() -> Scene {
        Scene::new(
            vec![Primitive::Sphere {
                center: Vec3::ZERO,
                radius: 1.0,
                density: 50.0,
                albedo: Vec3::new(0.9, 0.2, 0.1),
            }],
            Vec3::splat(0.05),
        )
    }

    fn front_camera(res: u32) -> Camera {
        Camera::new(
            Intrinsics::from_fov(res, res, 0.7),
            Pose::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y),
        )
    }

    #[test]
    fn composite_empty_ray_is_background() {
        let c = composite(&[], &[], &[], Vec3::splat(0.3));
        assert!((c.color - Vec3::splat(0.3)).length() < 1e-6);
        assert_eq!(c.residual_transmittance, 1.0);
    }

    #[test]
    fn composite_opaque_sample_dominates() {
        let c = composite(
            &[1000.0, 1000.0],
            &[Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            &[1.0, 1.0],
            Vec3::ZERO,
        );
        // First sample absorbs everything.
        assert!((c.color - Vec3::new(1.0, 0.0, 0.0)).length() < 1e-4);
        assert!(c.weights[0] > 0.999);
        assert!(c.weights[1] < 1e-4);
    }

    #[test]
    fn composite_weights_sum_plus_residual_is_one() {
        let densities = [0.5, 1.0, 0.2, 3.0];
        let colors = [Vec3::ONE; 4];
        let deltas = [0.3, 0.3, 0.3, 0.3];
        let c = composite(&densities, &colors, &deltas, Vec3::ZERO);
        let total: f32 = c.weights.iter().sum();
        assert!(
            (total + c.residual_transmittance - 1.0).abs() < 1e-5,
            "sum={total} residual={}",
            c.residual_transmittance
        );
    }

    #[test]
    fn ray_through_sphere_sees_sphere_color() {
        let scene = simple_scene();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), -Vec3::Z);
        let c = trace_ray(&scene, &ray, 64);
        assert!(c.color.x > 0.5, "color = {:?}", c.color);
        assert!(c.residual_transmittance < 0.01);
    }

    #[test]
    fn ray_missing_sphere_sees_background() {
        let scene = simple_scene();
        let ray = Ray::new(Vec3::new(0.0, 4.0, 5.0), -Vec3::Z);
        let c = trace_ray(&scene, &ray, 64);
        assert!(
            (c.color - Vec3::splat(0.05)).length() < 0.02,
            "{:?}",
            c.color
        );
    }

    #[test]
    fn render_image_center_is_object() {
        let scene = simple_scene();
        let cam = front_camera(16);
        let img = render(&scene, &cam, 48);
        let center = img.get(8, 8);
        let corner = img.get(0, 0);
        assert!(center.x > 0.4, "center = {center:?}");
        assert!(
            (corner - Vec3::splat(0.05)).length() < 0.05,
            "corner = {corner:?}"
        );
    }

    #[test]
    fn render_depth_sees_front_surface() {
        let scene = simple_scene();
        let cam = front_camera(8);
        let depth = render_depth(&scene, &cam, 96);
        // Center pixel: camera at z=5, sphere front surface at z=1 -> t≈4.
        let center = depth[(4 * 8 + 4) as usize];
        assert!((center - 4.0).abs() < 0.2, "depth = {center}");
        // Corner rays miss.
        assert!(depth[0].is_infinite());
    }

    #[test]
    fn weights_concentrate_at_surface() {
        let scene = simple_scene();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), -Vec3::Z);
        let c = trace_ray(&scene, &ray, 128);
        // The max-weight sample should be near t=4 (surface), i.e. in
        // the first half of the samples well before the far side.
        let (argmax, _) = c
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let frac = argmax as f32 / 128.0;
        assert!(frac < 0.6, "argmax fraction = {frac}");
        // And almost all mass is in a thin band: the top-8 samples carry
        // nearly everything.
        let mut sorted = c.weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: f32 = sorted.iter().take(8).sum();
        let total: f32 = c.weights.iter().sum();
        assert!(top / total > 0.9, "mass not concentrated: {}", top / total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_weights_in_unit_interval(
            d in proptest::collection::vec(0.0f32..20.0, 1..32),
        ) {
            let colors = vec![Vec3::ONE; d.len()];
            let deltas = vec![0.1f32; d.len()];
            let c = composite(&d, &colors, &deltas, Vec3::ZERO);
            prop_assert!(c.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
            let total: f32 = c.weights.iter().sum();
            prop_assert!(total <= 1.0 + 1e-4);
        }

        #[test]
        #[ignore = "slow; covered by render_image_center_is_object"]
        fn prop_render_finite(res in 4u32..12) {
            let scene = simple_scene();
            let cam = front_camera(res);
            let img = render(&scene, &cam, 16);
            prop_assert!(img.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}
