//! Regression suite for the runtime-dispatched kernel backends.
//!
//! Pins the three halves of the backend contract:
//!
//! * **Dispatch** — `GEN_NERF_KERNEL` values resolve to the right
//!   backend, unknown values degrade to auto detection, and every
//!   backend can be forced at runtime.
//! * **One set of bits** — every backend renders the same pixels bit
//!   for bit (CI also runs the whole suite under
//!   `GEN_NERF_KERNEL=scalar`, so every pin holds on that leg end to
//!   end).
//! * **SIMD is a perf knob, not a results knob** — switching backends
//!   changes neither a pixel nor the FLOPs/fetch accounting, and the
//!   AVX2 block kernel fills the arena with exactly the bits of the
//!   per-point reference.
//!
//! The active backend is process-global, so every test here serializes
//! on one mutex and restores the startup backend before returning.

use gen_nerf::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
use gen_nerf::features::{
    aggregate_point, aggregate_points_into, aggregate_ray_into, prepare_sources, AggregateArena,
    PointAggregate,
};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_geometry::{Ray, Vec3};
use gen_nerf_nn::init::Rng;
use gen_nerf_nn::kernels::{self, Backend};
use gen_nerf_scene::{Dataset, DatasetKind, Image};
use std::sync::Mutex;

/// Serializes backend-switching tests (the active backend is global).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the backend lock held, restoring the startup backend
/// afterwards even if `f` panics partway through a switch.
fn with_backend_lock(f: impl FnOnce()) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let startup = kernels::active_backend();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    kernels::set_active(startup);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

#[test]
fn env_values_resolve_to_backends() {
    with_backend_lock(|| {
        let original = std::env::var(kernels::KERNEL_ENV).ok();
        for (value, expect) in [
            ("scalar", Backend::Scalar),
            ("avx2", Backend::detect()), // degrades to detect() when unavailable
            ("auto", Backend::detect()),
            ("definitely-not-a-backend", Backend::detect()),
        ] {
            std::env::set_var(kernels::KERNEL_ENV, value);
            let resolved = Backend::from_env();
            if value == "avx2" && Backend::Avx2.available() {
                assert_eq!(resolved, Backend::Avx2, "{value}");
            } else {
                assert_eq!(resolved, expect, "{value}");
            }
        }
        std::env::remove_var(kernels::KERNEL_ENV);
        assert_eq!(Backend::from_env(), Backend::detect());
        match original {
            Some(v) => std::env::set_var(kernels::KERNEL_ENV, v),
            None => std::env::remove_var(kernels::KERNEL_ENV),
        }
    });
}

#[test]
fn every_backend_can_be_forced() {
    with_backend_lock(|| {
        assert_eq!(kernels::set_active(Backend::Scalar), Backend::Scalar);
        assert_eq!(kernels::active().backend(), Backend::Scalar);
        let effective = kernels::set_active(Backend::Avx2);
        if Backend::Avx2.available() {
            assert_eq!(effective, Backend::Avx2);
            assert_eq!(kernels::active().backend(), Backend::Avx2);
        } else {
            // Unavailable requests degrade to the scalar reference.
            assert_eq!(effective, Backend::Scalar);
            assert_eq!(kernels::active().backend(), Backend::Scalar);
        }
    });
}

fn render_frame(
    ds: &Dataset,
    model: &GenNerfModel,
    strategy: SamplingStrategy,
) -> (Image, RenderStats) {
    let sources = prepare_sources(&ds.source_views);
    Renderer::new(
        model,
        &sources,
        strategy,
        ds.scene.bounds,
        ds.scene.background,
    )
    .with_threads(2)
    .render(&ds.eval_views[0].camera)
}

/// Switching backends must change no pixel bit and no instrumentation
/// count — FLOPs accounting is a function of the schedule, never the
/// kernel.
#[test]
fn backends_render_equivalent_frames_with_identical_accounting() {
    if !Backend::Avx2.available() {
        return; // single-backend host: the scalar leg covers everything
    }
    with_backend_lock(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
        for choice in [
            RayModuleChoice::Mixer,
            RayModuleChoice::Transformer,
            RayModuleChoice::None,
        ] {
            let model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
            let strategy = SamplingStrategy::Uniform { n: 10 };
            kernels::set_active(Backend::Scalar);
            let (img_scalar, stats_scalar) = render_frame(&ds, &model, strategy);
            kernels::set_active(Backend::Avx2);
            let (img_simd, stats_simd) = render_frame(&ds, &model, strategy);

            let bits =
                |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(
                bits(&img_scalar),
                bits(&img_simd),
                "{choice:?}: scalar vs avx2 pixels"
            );
            assert_eq!(stats_scalar.rays, stats_simd.rays, "{choice:?}");
            assert_eq!(stats_scalar.points, stats_simd.points, "{choice:?}");
            assert_eq!(
                stats_scalar.feature_fetches, stats_simd.feature_fetches,
                "{choice:?}"
            );
            assert_eq!(
                stats_scalar.flops.total(),
                stats_simd.flops.total(),
                "{choice:?}: FLOPs accounting must be backend-independent"
            );
            for bucket in ["acquire", "mlp", "ray_module", "others"] {
                assert_eq!(
                    stats_scalar.flops.get(bucket),
                    stats_simd.flops.get(bucket),
                    "{choice:?}: bucket {bucket}"
                );
            }
        }
    });
}

/// Within any one backend, the fused schedule stays bit-identical to
/// the per-ray reference (the positional-independence contract the
/// SIMD kernels must uphold).
#[test]
fn fused_equals_per_ray_under_every_backend() {
    with_backend_lock(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
        let model = GenNerfModel::new(ModelConfig::fast());
        let sources = prepare_sources(&ds.source_views);
        let mut backends = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            backends.push(Backend::Avx2);
        }
        for backend in backends {
            kernels::set_active(backend);
            let renderer = Renderer::new(
                &model,
                &sources,
                SamplingStrategy::Uniform { n: 8 },
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(2);
            let (img_f, _) = renderer.render(&ds.eval_views[0].camera);
            let (img_p, _) = renderer.render_reference(&ds.eval_views[0].camera);
            let fb: Vec<u32> = img_f.as_slice().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = img_p.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, pb, "fused diverged from per-ray under {backend:?}");
        }
    });
}

/// One fixed-seed instance of `gen_nerf::features`'s
/// `prop_arena_matches_aggregate_point_on_either_backend`, run under
/// each backend in turn: both arena entry points reproduce
/// `aggregate_point` bit for bit, and therefore each other across
/// backends.
#[test]
fn arena_acquisition_holds_the_reference_bits_under_every_backend() {
    /// Every bit of an aggregate, so `-0.0` and NaN payloads count.
    fn bits(a: &PointAggregate) -> Vec<u32> {
        let colors = a.view_colors.iter().flat_map(|c| [c.x, c.y, c.z]);
        let blend = a.blend_inputs.iter().flatten().copied();
        (a.stats.iter().copied().chain(colors).chain(blend))
            .map(f32::to_bits)
            .chain(a.valid.iter().map(|&ok| ok as u32))
            .chain([a.n_valid as u32])
            .collect()
    }

    with_backend_lock(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 24, 3);
        let mut sources = prepare_sources(&ds.source_views);
        // A rotation scaled ×4 projects as before but keeps a point
        // within EPSILON of the camera centre in front of the camera:
        // the `try_normalized` fallback to the ray direction.
        let m = &mut sources[5].camera.pose.rotation.m;
        m.iter_mut().flatten().for_each(|v| *v *= 4.0);

        // Depth lists of 0…19 samples: an empty ray, a lone point,
        // blocks one short of, exactly, and one past eight lanes.
        let mut rng = Rng::seed_from(15);
        let mut rays: Vec<(Ray, Vec<f32>)> = [0usize, 1, 7, 8, 9, 19]
            .into_iter()
            .map(|n| {
                let mut v = || rng.uniform(-1.0, 1.0);
                let origin = Vec3::new(v(), v(), v()) * 3.5;
                let dir = Vec3::new(v(), v(), v()).try_normalized().unwrap_or(Vec3::Z);
                let depths = (0..n).map(|_| rng.uniform(0.0, 7.0)).collect();
                (Ray::new(origin, dir), depths)
            })
            .collect();
        // Against the first and the scaled source: behind the camera,
        // along u = 0 / v = 0, just under width / height, and from the
        // centre outwards (exactly at it, then within EPSILON of it).
        for src in [&sources[0], &sources[5]] {
            let cam = &src.camera;
            let (w, h) = (cam.intrinsics.width as f32, cam.intrinsics.height as f32);
            let under = |x: f32| f32::from_bits(x.to_bits() - 1);
            let forward = cam.pose.forward().normalized();
            let on_image = vec![0.4, 1.1, 2.7, 3.0, 4.5];
            rays.push((Ray::new(cam.center(), -forward), vec![0.5, 2.0]));
            rays.push((cam.pixel_ray(0.0, 7.3), on_image.clone()));
            rays.push((cam.pixel_ray(11.6, 0.0), on_image.clone()));
            rays.push((cam.pixel_ray(under(w), 3.2), on_image.clone()));
            rays.push((cam.pixel_ray(5.9, under(h)), on_image));
            rays.push((
                Ray::new(cam.center(), forward),
                vec![0.0, 2.5e-7, 5e-7, 7.5e-7, 1.5e-6, 3.0],
            ));
        }

        let mut backends = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            backends.push(Backend::Avx2);
        }
        let mut filled: Vec<Vec<Vec<u32>>> = Vec::new();
        for &backend in &backends {
            kernels::set_active(backend);
            let mut all_bits = Vec::new();
            for (d, s) in [(3usize, 1usize), (5, 4), (12, 6)] {
                let views = &sources[6 - s..];
                let mut by_ray = AggregateArena::default();
                let mut by_points = AggregateArena::default();
                by_ray.reset(s, d);
                by_points.reset(s, d);
                let mut k = 0;
                for (ray, depths) in &rays {
                    aggregate_ray_into(ray, depths, views, d, &mut by_ray);
                    let points: Vec<Vec3> = depths.iter().map(|&t| ray.at(t)).collect();
                    let dirs: Vec<Vec3> = (0..points.len())
                        .map(|i| {
                            (ray.direction + Vec3::new(0.3, -0.2, 0.1) * i as f32).normalized()
                        })
                        .collect();
                    aggregate_points_into(&points, &dirs, views, d, &mut by_points);
                    for (&p, &dir) in points.iter().zip(&dirs) {
                        let along_ray = bits(&aggregate_point(p, ray.direction, views, d));
                        let own_dir = bits(&aggregate_point(p, dir, views, d));
                        let what = format!("{}: point {k}, d {d}, {s} views", backend.name());
                        assert_eq!(bits(&by_ray.export(k)), along_ray, "ray fill, {what}");
                        assert_eq!(bits(&by_points.export(k)), own_dir, "point fill, {what}");
                        all_bits.push(along_ray);
                        all_bits.push(own_dir);
                        k += 1;
                    }
                }
                assert_eq!(by_ray.n_rays(), rays.len());
                assert_eq!(by_ray.total_points(), k);
            }
            filled.push(all_bits);
        }
        assert!(filled.windows(2).all(|w| w[0] == w[1]), "backends disagree");
    });
}
