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
use gen_nerf_geometry::{Camera, Vec3};
use gen_nerf_nn::kernels::integrity::{self, IntegrityError, IntegrityMode};
use gen_nerf_nn::kernels::Backend;
use gen_nerf_scene::datasets::{Dataset, DatasetKind};
use gen_nerf_scene::Image;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A miscompare no render of these tests can produce: its shape names
/// no product of the model.
fn foreign_fault() -> IntegrityError {
    IntegrityError {
        backend: Backend::Scalar,
        row: 424_242,
        m: 424_243,
        k: 1,
        n: 1,
        observed: 1.0,
        expected: 0.0,
        tolerance: 1e-6,
    }
}

/// Raises its flag when dropped, so a failing test body still stops
/// the thread it started.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `body` while another thread keeps recording [`foreign_fault`]s,
/// as a render running beside it on the same process would.
fn beside_foreign_faults<T>(body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                integrity::record_fault(foreign_fault());
                std::thread::yield_now();
            }
        });
        let _stop = StopOnDrop(&stop);
        body()
    })
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

#[test]
fn a_clean_render_passes_while_another_thread_records_faults() {
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
    let faults_before = integrity::check_stats().1;
    beside_foreign_faults(|| {
        for frame in 0..20 {
            let (image, _) = checked_render(&r, cam).unwrap_or_else(|e| {
                panic!("clean frame {frame} failed for a fault beside it: {e}")
            });
            assert_eq!(bits(&image), bits(&unfaulted), "frame {frame}");
        }
    });
    // The faults beside the renders were real and counted; they just
    // were not these renders' faults.
    assert!(integrity::check_stats().1 > faults_before);
    integrity::set_mode(IntegrityMode::Off);
}

#[test]
fn a_corrupt_render_reports_its_own_first_fault_at_any_worker_count() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut ds, _, model) = setup();
    // A NaN stripe down one source view: every ray that sees it feeds
    // the point MLP a NaN row, which no checksum can match. The stripe
    // spans the image, so several tiles fault, each at its own row.
    let view = &mut ds.source_views[0].image;
    let x = view.width() / 2;
    for y in 0..view.height() {
        view.set(x, y, Vec3::new(f32::NAN, 0.0, 0.0));
    }
    let sources = prepare_sources(&ds.source_views);
    let cam = &ds.eval_views[0].camera;
    integrity::set_mode(IntegrityMode::Full);

    let details: Vec<String> = beside_foreign_faults(|| {
        (1..=3)
            .map(|threads| {
                let r = Renderer::new(
                    &model,
                    &sources,
                    SamplingStrategy::Uniform { n: 8 },
                    ds.scene.bounds,
                    ds.scene.background,
                )
                .with_threads(threads);
                match checked_render(&r, cam) {
                    Err(RenderError::Corrupt { stage, detail }) => {
                        assert_eq!(stage, "gemm", "{threads} threads: {detail}");
                        detail
                    }
                    Ok(_) => panic!("{threads} threads: a NaN source passed the checksums"),
                }
            })
            .collect()
    });
    assert!(
        !details[0].contains(&foreign_fault().m.to_string()),
        "the render took a fault found beside it: {}",
        details[0]
    );
    // One thread runs the tiles in order, so its verdict is the first
    // faulting tile's; more workers must name that same fault.
    assert_eq!(details[1], details[0], "2 threads");
    assert_eq!(details[2], details[0], "3 threads");
    integrity::set_mode(IntegrityMode::Off);
}
