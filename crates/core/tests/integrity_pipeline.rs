//! End-to-end output-integrity guards at the pipeline level: the
//! fallible render door, the fault-injection hooks and the coarse
//! frame digest.
//!
//! These tests flip the process-wide integrity mode and arm
//! process-wide fault injection (a GEMM perturbation, a pixel
//! poison), so they live in their own test binary — away from the
//! bitwise regression suites of the unit tests — and serialize on a
//! local lock so they cannot corrupt each other's renders.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::{prepare_sources, SourceViewData};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{self, RenderError, RenderStats, Renderer};
use gen_nerf_geometry::Camera;
use gen_nerf_nn::kernels::integrity::{self, IntegrityMode};
use gen_nerf_scene::datasets::{Dataset, DatasetKind};
use gen_nerf_scene::Image;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn setup() -> (Dataset, Vec<SourceViewData>, GenNerfModel) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    (ds, sources, model)
}

/// One camera through the fallible door ([`Renderer::render_frames`]).
fn checked_render(r: &Renderer, cam: &Camera) -> Result<(Image, RenderStats), RenderError> {
    let mut images = [Image::new(0, 0)];
    let mut stats = [RenderStats::default()];
    r.render_frames(std::slice::from_ref(cam), &[None], &mut images, &mut stats)?;
    let [image] = images;
    let [stats] = stats;
    Ok((image, stats))
}

fn bits(img: &Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn full_checking_is_clean_and_bitwise_identical() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, sources, model) = setup();
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(8, 8),
        ds.scene.bounds,
        ds.scene.background,
    );
    let cam = &ds.eval_views[0].camera;

    integrity::set_mode(IntegrityMode::Off);
    let (baseline, base_stats) = r.render(cam);

    // Checks run (the counter advances) but a clean render passes and
    // verification never perturbs the output: zero false positives,
    // bit-for-bit the unchecked image.
    integrity::set_mode(IntegrityMode::Full);
    let checks_before = integrity::check_stats().0;
    let (checked, checked_stats) = checked_render(&r, cam).expect("clean render must verify");
    assert!(integrity::check_stats().0 > checks_before);
    assert_eq!(bits(&baseline), bits(&checked));
    assert_eq!(base_stats.points, checked_stats.points);
    integrity::set_mode(IntegrityMode::Off);
}

#[test]
fn gemm_corruption_is_detected_and_retry_matches_unfaulted() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, sources, model) = setup();
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(8, 8),
        ds.scene.bounds,
        ds.scene.background,
    );
    let cam = &ds.eval_views[0].camera;

    integrity::set_mode(IntegrityMode::Full);
    let (unfaulted, _) = checked_render(&r, cam).expect("clean render must verify");

    integrity::arm_corruption(0x5eed);
    let err = checked_render(&r, cam).expect_err("injected GEMM fault must be detected");
    assert!(
        matches!(err, RenderError::Corrupt { stage: "gemm", .. }),
        "unexpected verdict: {err}"
    );
    assert!(
        !integrity::disarm_corruption(),
        "fault must have been consumed"
    );

    // The fault was transient: the retry verifies and reproduces the
    // never-faulted image bit for bit.
    let (retried, _) = checked_render(&r, cam).expect("retry after transient fault");
    assert_eq!(bits(&unfaulted), bits(&retried));
    integrity::set_mode(IntegrityMode::Off);
}

#[test]
fn pixel_corruption_trips_the_composite_sentinel() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, sources, model) = setup();
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::Uniform { n: 8 },
        ds.scene.bounds,
        ds.scene.background,
    );
    let cam = &ds.eval_views[0].camera;

    integrity::set_mode(IntegrityMode::Full);
    let (unfaulted, _) = checked_render(&r, cam).expect("clean render must verify");

    pipeline::arm_pixel_corruption(0xfeed_beef);
    let err = checked_render(&r, cam).expect_err("poisoned pixel must trip the sentinel");
    match &err {
        RenderError::Corrupt { stage, detail } => {
            assert_eq!(*stage, "sentinel");
            assert!(detail.contains("composite boundary"), "detail: {detail}");
        }
    }
    assert!(
        !pipeline::disarm_pixel_corruption(),
        "fault must have been consumed"
    );

    let (retried, _) = checked_render(&r, cam).expect("retry after transient fault");
    assert_eq!(bits(&unfaulted), bits(&retried));
    integrity::set_mode(IntegrityMode::Off);
}

#[test]
fn integrity_off_publishes_injected_poison_unchecked() {
    // The knob matters: with checking off, the same injected pixel
    // fault sails through — no scan runs, the poisoned image is
    // published and the fallible API reports Ok.
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, sources, model) = setup();
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::Uniform { n: 8 },
        ds.scene.bounds,
        ds.scene.background,
    );
    let cam = &ds.eval_views[0].camera;

    integrity::set_mode(IntegrityMode::Off);
    pipeline::arm_pixel_corruption(7);
    let (img, _) = checked_render(&r, cam).expect("off mode never fails a frame");
    assert!(
        !pipeline::disarm_pixel_corruption(),
        "fault must have been consumed"
    );
    assert!(
        img.as_slice().iter().any(|v| v.is_nan()),
        "the poison should have reached the published image"
    );
}

#[test]
fn coarse_frame_digest_rejects_poisoned_payload() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, sources, model) = setup();
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(8, 8),
        ds.scene.bounds,
        ds.scene.background,
    );
    integrity::set_mode(IntegrityMode::Off);

    let cameras = std::slice::from_ref(&ds.eval_views[0].camera);
    let mut images = vec![Image::new(0, 0)];
    let mut stats = vec![RenderStats::default()];
    let fresh = r
        .render_frames(cameras, &[None], &mut images, &mut stats)
        .expect("off mode never fails a frame");
    let mut cf = fresh
        .into_iter()
        .next()
        .flatten()
        .expect("uncached ctf render exports a coarse frame");

    // Sealed at export; a clone round-trips.
    assert!(cf.integrity_ok());
    assert!(cf.clone().integrity_ok());
    let sealed = cf.checksum();

    // Poisoned payload fails verification against the untouched seal.
    cf.corrupt_for_chaos(12345);
    assert!(!cf.integrity_ok());
    assert_eq!(cf.checksum(), sealed, "corruption must not reseal");
}
