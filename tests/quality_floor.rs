//! The quality floor: what a rendered frame is worth against the
//! analytic ground truth, one literal set for every kernel backend.
//!
//! The pixel digests of `tests/arena_regression.rs` say *that* a frame
//! moved, not whether it got worse. This suite says the latter:
//!
//! * **The floor.** PSNR and SSIM against `gen_nerf_scene`'s analytic
//!   ground truth (`renderer::render` of the `Dataset`'s procedural
//!   scene), for two cases on every runnable backend — the benchmark's
//!   `render_direct` frame (the "pedestal" scene at scale 0.08, six
//!   source views, 48×48, coarse-then-focus 16 / 12, the fixed-seed
//!   untrained model) and one `eval::evaluate` set (a model trained by
//!   `Trainer`, coarse-then-focus 8 / 8). Each value must stay within
//!   [`PSNR_BAND`] dB (SSIM within [`SSIM_BAND`]) of the literal it was
//!   measured at.
//! * **No backend distance.** The same frame on the scalar and the
//!   AVX2 backend is the same image, bit for bit.
//!
//! **The gate.** A change that moves float bits on purpose rewrites the
//! digest literals once and leaves this file untouched: it must pass
//! here, unchanged, both before and after the change. (The literals
//! below were measured before Step ③'s epilogue moved off libm, and
//! hold after it.) A change that drops a source view or breaks the
//! blend fails the floor; a last-ulp perturbation does not.
//!
//! Backend switching is process-global, so the tests serialize on one
//! lock and restore the startup backend before returning.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::eval::evaluate;
use gen_nerf::features::prepare_sources;
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::Renderer;
use gen_nerf::trainer::{TrainConfig, Trainer};
use gen_nerf_geometry::{Camera, Intrinsics};
use gen_nerf_nn::kernels::{self, Backend};
use gen_nerf_scene::metrics::{psnr, ssim};
use gen_nerf_scene::{renderer, Dataset, DatasetKind, Image};
use std::sync::Mutex;

/// How far a PSNR may sit from its literal, in dB.
const PSNR_BAND: f32 = 0.05;

/// How far an SSIM may sit from its literal.
const SSIM_BAND: f32 = 0.0005;

/// The pinned floor of every backend: `(direct PSNR, direct SSIM,
/// eval PSNR, eval SSIM)`.
const FLOOR: [f32; 4] = [14.045298, 0.22468601, 18.870213, 0.9100255];

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

fn runnable_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2.available() {
        v.push(Backend::Avx2);
    }
    v
}

/// The `render_direct` frame on the active backend and its ground
/// truth: the benchmark's scene, model and strategy, seen from the
/// dataset's held-out pose at the benchmark's 48×48.
fn direct_frame() -> (Image, Image) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "pedestal", 0.08, 6, 1, 48, 11);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let camera = Camera::new(
        Intrinsics::from_fov(48, 48, 0.55),
        ds.eval_views[0].camera.pose,
    );
    let (image, _) = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(16, 12),
        ds.scene.bounds,
        ds.scene.background,
    )
    .with_threads(1)
    .render(&camera);
    (image, renderer::render(&ds.scene, &camera, 48))
}

/// `(PSNR, SSIM)` of one `evaluate` set on the active backend: a model
/// trained on the set's own scene, two held-out views.
fn eval_set() -> (f32, f32) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.035, 6, 2, 24, 5);
    let mut model = GenNerfModel::new(ModelConfig::fast());
    Trainer::new(TrainConfig {
        steps: 150,
        ..TrainConfig::fast()
    })
    .pretrain(&mut model, &[&ds]);
    let r = evaluate(
        &model,
        &ds,
        &SamplingStrategy::coarse_then_focus(8, 8),
        None,
    );
    (r.psnr, r.ssim)
}

#[test]
fn psnr_and_ssim_hold_the_floor_on_every_backend() {
    with_backend_lock(|| {
        for backend in runnable_backends() {
            kernels::set_active(backend);
            let (image, truth) = direct_frame();
            let (eval_psnr, eval_ssim) = eval_set();
            let got = [
                psnr(&truth, &image),
                ssim(&truth, &image),
                eval_psnr,
                eval_ssim,
            ];
            let what = ["direct PSNR", "direct SSIM", "eval PSNR", "eval SSIM"];
            for i in 0..4 {
                let band = if i % 2 == 0 { PSNR_BAND } else { SSIM_BAND };
                assert!(
                    (got[i] - FLOOR[i]).abs() <= band,
                    "{}: {} {} is outside {} ± {band} (all: {got:?})",
                    backend.name(),
                    what[i],
                    got[i],
                    FLOOR[i],
                );
            }
        }
    });
}

#[test]
fn the_backends_render_the_same_bits() {
    if !Backend::Avx2.available() {
        return; // single-backend host: nothing to compare
    }
    with_backend_lock(|| {
        let bits =
            |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
        kernels::set_active(Backend::Scalar);
        let (scalar, _) = direct_frame();
        kernels::set_active(Backend::Avx2);
        let (avx2, _) = direct_frame();
        assert_eq!(bits(&scalar), bits(&avx2), "scalar vs avx2 pixels");
    });
}
