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
//!   scalar backend's per-point fill.
//!
//! Each backend is compared with the other, and the fused frame with
//! its rays rendered one at a time, here through the public API only.
//! The per-ray reference that the fused schedule and the arena are
//! held against lives in `gen_nerf`'s own unit tests, which run under
//! whichever backend is active (CI runs them on both legs).
//!
//! The active backend is process-global, so every test here serializes
//! on one mutex and restores the startup backend before returning.

mod common;

use common::render_per_ray;
use gen_nerf::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
use gen_nerf::features::{
    aggregate_points_into, aggregate_ray_into, prepare_sources, AggregateArena,
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
/// kernel — for every ray module and every sampling strategy.
#[test]
fn backends_render_equivalent_frames_with_identical_accounting() {
    if !Backend::Avx2.available() {
        return; // single-backend host: the scalar leg covers everything
    }
    with_backend_lock(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
        let bits =
            |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        for choice in [
            RayModuleChoice::Mixer,
            RayModuleChoice::Transformer,
            RayModuleChoice::None,
        ] {
            let model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
            for strategy in [
                SamplingStrategy::Uniform { n: 10 },
                SamplingStrategy::Hierarchical {
                    n_coarse: 6,
                    n_fine: 6,
                },
                SamplingStrategy::coarse_then_focus(8, 8),
            ] {
                let what = format!("{choice:?}, {strategy:?}");
                kernels::set_active(Backend::Scalar);
                let (img_scalar, stats_scalar) = render_frame(&ds, &model, strategy);
                kernels::set_active(Backend::Avx2);
                let (img_simd, stats_simd) = render_frame(&ds, &model, strategy);
                assert_eq!(
                    bits(&img_scalar),
                    bits(&img_simd),
                    "{what}: scalar vs avx2 pixels"
                );
                assert_eq!(stats_scalar.rays, stats_simd.rays, "{what}");
                assert_eq!(stats_scalar.points, stats_simd.points, "{what}");
                assert_eq!(
                    stats_scalar.coarse_points, stats_simd.coarse_points,
                    "{what}"
                );
                assert_eq!(
                    stats_scalar.feature_fetches, stats_simd.feature_fetches,
                    "{what}"
                );
                assert_eq!(
                    stats_scalar.flops.total(),
                    stats_simd.flops.total(),
                    "{what}: FLOPs accounting must be backend-independent"
                );
                for bucket in ["acquire", "mlp", "ray_module", "others"] {
                    assert_eq!(
                        stats_scalar.flops.get(bucket),
                        stats_simd.flops.get(bucket),
                        "{what}: bucket {bucket}"
                    );
                }
            }
        }
    });
}

/// Within any one backend, the fused frame is its rays rendered one at
/// a time, each a one-pixel frame and so a tile of its own: every
/// pixel bit for bit and every count equal (the positional-independence
/// contract the SIMD kernels must uphold).
#[test]
fn fused_equals_per_ray_under_every_backend() {
    with_backend_lock(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
        let model = GenNerfModel::new(ModelConfig::fast());
        let camera = &ds.eval_views[0].camera;
        let bits =
            |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        let key = |s: &RenderStats| {
            let buckets: Vec<(String, u64)> =
                s.flops.iter().map(|(k, v)| (k.to_string(), v)).collect();
            (
                s.rays,
                s.points,
                s.coarse_points,
                s.feature_fetches,
                buckets,
            )
        };
        let mut backends = vec![Backend::Scalar];
        if Backend::Avx2.available() {
            backends.push(Backend::Avx2);
        }
        for backend in backends {
            kernels::set_active(backend);
            let sources = prepare_sources(&ds.source_views);
            let renderer = Renderer::new(
                &model,
                &sources,
                SamplingStrategy::Uniform { n: 8 },
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(2);
            let (img_f, stats_f) = renderer.render(camera);
            let (img_p, stats_p) = render_per_ray(&renderer, camera);
            assert_eq!(
                bits(&img_f),
                bits(&img_p),
                "fused diverged from per-ray under {backend:?}"
            );
            assert_eq!(key(&stats_f), key(&stats_p), "accounting under {backend:?}");
        }
    });
}

/// One fixed-seed instance of the rays of `gen_nerf::features`'
/// `prop_arena_matches_aggregate_point_on_either_backend`, filled under
/// each backend in turn through both arena entry points: every backend
/// holds the bits of the scalar reference backend — every stats row,
/// `-0.0` and NaN payloads included, and every valid-view count.
#[test]
fn arena_acquisition_holds_the_reference_bits_under_every_backend() {
    /// Every bit of an arena's stats matrix, then its valid-view counts.
    fn bits(a: &AggregateArena) -> Vec<u32> {
        let stats = a.stats().as_slice().iter().map(|v| v.to_bits());
        let counts = (0..a.total_points()).map(|k| a.n_valid(k) as u32);
        stats.chain(counts).collect()
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
                for (ray, depths) in &rays {
                    aggregate_ray_into(ray, depths, views, d, &mut by_ray);
                    let points: Vec<Vec3> = depths.iter().map(|&t| ray.at(t)).collect();
                    let dirs: Vec<Vec3> = (0..points.len())
                        .map(|i| {
                            (ray.direction + Vec3::new(0.3, -0.2, 0.1) * i as f32).normalized()
                        })
                        .collect();
                    aggregate_points_into(&points, &dirs, views, d, &mut by_points);
                }
                let points: usize = rays.iter().map(|(_, depths)| depths.len()).sum();
                for arena in [&by_ray, &by_points] {
                    assert_eq!(arena.n_rays(), rays.len());
                    assert_eq!(arena.total_points(), points);
                }
                all_bits.push(bits(&by_ray));
                all_bits.push(bits(&by_points));
            }
            filled.push(all_bits);
        }
        for (backend, bits) in backends.iter().zip(&filled).skip(1) {
            for (fill, (got, want)) in bits.iter().zip(&filled[0]).enumerate() {
                assert!(
                    got == want,
                    "{}: fill {fill} differs from scalar",
                    backend.name()
                );
            }
        }
    });
}
