//! Regression suite for the parallel ray-batch engine: the batched,
//! multi-threaded render path must match the sequential path
//! **bit-for-bit** — identical pixels, identical PSNR, identical FLOPs
//! and fetch counts — on a trained model, for every sampling strategy.
//!
//! This is the contract that makes the engine safe to use everywhere:
//! `GEN_NERF_THREADS` is a pure performance knob, never a results
//! knob.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::prepare_sources;
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf::trainer::{TrainConfig, Trainer};
use gen_nerf_geometry::{Camera, Intrinsics};
use gen_nerf_scene::metrics::psnr;
use gen_nerf_scene::{Dataset, DatasetKind, Image};

fn trained_scene() -> (Dataset, GenNerfModel) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 6, 1, 24, 11);
    let mut model = GenNerfModel::new(ModelConfig::fast());
    let mut trainer = Trainer::new(TrainConfig {
        steps: 120,
        ..TrainConfig::fast()
    });
    trainer.pretrain(&mut model, &[&ds]);
    (ds, model)
}

fn render_with_threads(
    ds: &Dataset,
    model: &GenNerfModel,
    strategy: SamplingStrategy,
    threads: usize,
) -> (Image, RenderStats) {
    let sources = prepare_sources(&ds.source_views);
    let renderer = Renderer::new(
        model,
        &sources,
        strategy,
        ds.scene.bounds,
        ds.scene.background,
    )
    .with_threads(threads);
    renderer.render(&ds.eval_views[0].camera)
}

fn assert_bit_identical(strategy: SamplingStrategy) {
    let (ds, model) = trained_scene();
    let (img_seq, stats_seq) = render_with_threads(&ds, &model, strategy, 1);
    for threads in [2usize, 4, 8] {
        let (img_par, stats_par) = render_with_threads(&ds, &model, strategy, threads);

        // Pixels: exact f32 bit equality, not tolerance equality.
        let seq_bits: Vec<u32> = img_seq.as_slice().iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u32> = img_par.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, par_bits, "{strategy:?} with {threads} threads");

        // PSNR follows from pixels, but assert it explicitly since it
        // is the headline quality metric.
        let gt = &ds.eval_views[0].image;
        assert_eq!(
            psnr(gt, &img_seq).to_bits(),
            psnr(gt, &img_par).to_bits(),
            "{strategy:?} PSNR drifted at {threads} threads"
        );

        // Instrumentation: exact integer equality, bucket by bucket.
        assert_eq!(stats_seq.rays, stats_par.rays);
        assert_eq!(stats_seq.points, stats_par.points, "{strategy:?}");
        assert_eq!(
            stats_seq.coarse_points, stats_par.coarse_points,
            "{strategy:?}"
        );
        assert_eq!(
            stats_seq.feature_fetches, stats_par.feature_fetches,
            "{strategy:?}"
        );
        assert_eq!(
            stats_seq.flops.total(),
            stats_par.flops.total(),
            "{strategy:?}"
        );
        for bucket in ["acquire", "mlp", "ray_module", "others"] {
            assert_eq!(
                stats_seq.flops.get(bucket),
                stats_par.flops.get(bucket),
                "{strategy:?} bucket {bucket} at {threads} threads"
            );
        }
    }
}

#[test]
fn uniform_parallel_matches_sequential() {
    assert_bit_identical(SamplingStrategy::Uniform { n: 10 });
}

#[test]
fn hierarchical_parallel_matches_sequential() {
    assert_bit_identical(SamplingStrategy::Hierarchical {
        n_coarse: 6,
        n_fine: 6,
    });
}

#[test]
fn coarse_then_focus_parallel_matches_sequential() {
    assert_bit_identical(SamplingStrategy::coarse_then_focus(8, 8));
}

/// Every counter of a [`RenderStats`], comparable.
fn stats_key(s: &RenderStats) -> (u64, u64, u64, u64, Vec<(String, u64)>) {
    let buckets = s.flops.iter().map(|(k, v)| (k.to_string(), v)).collect();
    (
        s.rays,
        s.points,
        s.coarse_points,
        s.feature_fetches,
        buckets,
    )
}

fn bits(image: &Image) -> Vec<u32> {
    image.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn frames_of_different_shapes_in_one_job_match_solo_renders() {
    // Ragged tiles within one frame (a 50×37 frame against the per-ray
    // reference at every worker count) are pinned by `gen_nerf`'s own
    // `fused_schedule_matches_per_ray_reference`; this pins them across
    // the frames of one job.
    let (ds, model) = trained_scene();
    let sources = prepare_sources(&ds.source_views);
    let pose = ds.eval_views[0].camera.pose;
    for strategy in [
        SamplingStrategy::Uniform { n: 10 },
        SamplingStrategy::Hierarchical {
            n_coarse: 6,
            n_fine: 6,
        },
        SamplingStrategy::coarse_then_focus(8, 8),
    ] {
        let renderer = |threads: usize| {
            Renderer::new(
                &model,
                &sources,
                strategy,
                ds.scene.bounds,
                ds.scene.background,
            )
            .with_threads(threads)
        };
        // Three frames of different shapes in one fused job: the
        // concatenated ray domain is tiled as a whole, so tiles
        // straddle both frame boundaries.
        let cameras: Vec<Camera> = [(17, 13), (24, 24), (9, 31)]
            .into_iter()
            .map(|(w, h)| Camera::new(Intrinsics::from_fov(w, h, 0.6), pose))
            .collect();
        let mut images = vec![Image::new(0, 0); cameras.len()];
        let mut joint_stats = vec![RenderStats::default(); cameras.len()];
        renderer(2)
            .render_frames(
                &cameras,
                &vec![None; cameras.len()],
                &mut images,
                &mut joint_stats,
            )
            .expect("integrity checking is off");
        for (cam, (img, stats)) in cameras.iter().zip(images.iter().zip(&joint_stats)) {
            let (solo_img, solo_stats) = renderer(1).render(cam);
            assert_eq!(bits(img), bits(&solo_img), "{strategy:?} joint frame");
            assert_eq!(
                stats_key(stats),
                stats_key(&solo_stats),
                "{strategy:?} joint frame"
            );
        }
    }
}

#[test]
fn render_is_reproducible_across_calls() {
    // Same renderer, same camera, rendered twice: identical output
    // (per-ray RNG streams are derived, not consumed from shared
    // state).
    let (ds, model) = trained_scene();
    let strategy = SamplingStrategy::coarse_then_focus(8, 8);
    let (a, _) = render_with_threads(&ds, &model, strategy, 4);
    let (b, _) = render_with_threads(&ds, &model, strategy, 4);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn simulator_reports_are_reproducible() {
    // The patch-parallel simulator must give the same report on every
    // run (its per-patch DRAM simulations are independent by
    // construction).
    use gen_nerf_accel::config::AcceleratorConfig;
    use gen_nerf_accel::simulator::Simulator;
    use gen_nerf_accel::workload::WorkloadSpec;
    let sim = Simulator::new(AcceleratorConfig::paper());
    let spec = WorkloadSpec::gen_nerf_default(64, 64, 4, 32);
    let a = sim.simulate(&spec);
    let b = sim.simulate(&spec);
    assert_eq!(a, b);
}

#[test]
fn shared_inference_types_are_sync() {
    // The engine shares these across worker threads by reference; a
    // regression that introduces interior mutability (Cell, RefCell,
    // Rc) must fail to compile here.
    fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<GenNerfModel>();
    assert_sync_send::<gen_nerf::features::SourceViewData>();
    assert_sync_send::<gen_nerf_scene::Scene>();
    assert_sync_send::<gen_nerf_scene::Dataset>();
    assert_sync_send::<gen_nerf_accel::simulator::Simulator>();
}
