//! Regression suite for fused cross-ray batched inference, through the
//! public API: the fused chunk schedule (one point-MLP GEMM + one
//! blend-head call per chunk, [`GenNerfModel::forward_rays_arena`])
//! must give every ray **bit-for-bit** what that ray gets on its own —
//! identical pixels and identical FLOPs/fetch accounting — on a trained
//! model, for every sampling strategy, ray module and thread count.
//!
//! This is the contract that makes the fused path safe as the default:
//! fusion is a pure performance knob, never a results knob. It rests on
//! the dense GEMM kernel's k-order accumulation (see
//! `gen_nerf_nn::tensor`), which makes output rows independent of
//! which other rows share a batch.
//!
//! "On its own" is a one-ray arena for the forward and coarse passes
//! and a one-pixel frame for a render (each ray then fills a tile of
//! its own). Hierarchical and coarse-then-focus sampling draw each
//! ray's fine depths from a stream keyed by its index in the frame, so
//! a one-pixel frame would draw other depths; their renders are held
//! instead against the same frame rendered behind another frame in one
//! job, where every tile boundary falls elsewhere. The comparison with
//! the per-ray *reference* schedule — a second, per-point program —
//! is made in `gen_nerf`'s own unit tests, the only build that compiles
//! it.

mod common;

use common::render_per_ray;
use gen_nerf::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
use gen_nerf::features::{
    aggregate_points_into, aggregate_ray_into, prepare_sources, AggregateArena, SourceViewData,
};
use gen_nerf::model::{ForwardScratch, GenNerfModel, MlpScratch, RayOutput};
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf::trainer::{TrainConfig, Trainer};
use gen_nerf_geometry::{Camera, Intrinsics, Ray, Vec3};
use gen_nerf_scene::{Dataset, DatasetKind, Image};

fn trained_scene() -> (Dataset, GenNerfModel) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 6, 1, 24, 11);
    let mut model = GenNerfModel::new(ModelConfig::fast());
    let mut trainer = Trainer::new(TrainConfig {
        steps: 80,
        ..TrainConfig::fast()
    });
    trainer.pretrain(&mut model, &[&ds]);
    (ds, model)
}

fn bits(img: &Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_stats_identical(a: &RenderStats, b: &RenderStats, ctx: &str) {
    // The FLOPs-accounting satellite: every way of cutting the frame
    // must report identical counts, bucket by bucket.
    assert_eq!(a.rays, b.rays, "{ctx}: rays");
    assert_eq!(a.points, b.points, "{ctx}: points");
    assert_eq!(a.coarse_points, b.coarse_points, "{ctx}: coarse_points");
    assert_eq!(a.feature_fetches, b.feature_fetches, "{ctx}: fetches");
    assert_eq!(a.flops.total(), b.flops.total(), "{ctx}: total FLOPs");
    for bucket in ["acquire", "mlp", "ray_module", "others"] {
        assert_eq!(
            a.flops.get(bucket),
            b.flops.get(bucket),
            "{ctx}: bucket {bucket}"
        );
    }
}

/// Holds the fused frame of `model` under `strategy` on the eval view,
/// rendered on one worker, against the same frame on each of
/// `threads`, behind a 7×5 frame in one job, and — for uniform
/// sampling — one ray at a time: every pixel bit for bit and every
/// count equal.
fn assert_fused_matches_per_ray(
    ds: &Dataset,
    model: &GenNerfModel,
    strategy: SamplingStrategy,
    threads: &[usize],
) {
    let sources = prepare_sources(&ds.source_views);
    let renderer = |threads: usize| {
        Renderer::new(
            model,
            &sources,
            strategy,
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(threads)
    };
    let camera = ds.eval_views[0].camera;
    let (img_one, stats_one) = renderer(1).render(&camera);
    let check = |img: &Image, stats: &RenderStats, what: String| {
        assert_eq!(bits(img), bits(&img_one), "{strategy:?} {what}: pixels");
        assert_stats_identical(stats, &stats_one, &format!("{strategy:?} {what}"));
    };
    for &t in threads {
        let (img, stats) = renderer(t).render(&camera);
        check(&img, &stats, format!("fused@{t} threads"));
    }

    let lead = Camera::new(Intrinsics::from_fov(7, 5, 0.6), camera.pose);
    let mut images = [Image::new(0, 0), Image::new(0, 0)];
    let mut stats = [RenderStats::default(), RenderStats::default()];
    renderer(2)
        .render_frames(&[lead, camera], &[None, None], &mut images, &mut stats)
        .expect("integrity checking is off");
    check(&images[1], &stats[1], "behind a 7×5 frame".into());

    if let SamplingStrategy::Uniform { .. } = strategy {
        let (img, stats) = render_per_ray(&renderer(1), &camera);
        check(&img, &stats, "one ray at a time".into());
    }
}

#[test]
fn uniform_fused_matches_per_ray() {
    let (ds, model) = trained_scene();
    assert_fused_matches_per_ray(&ds, &model, SamplingStrategy::Uniform { n: 10 }, &[1, 2, 4]);
}

#[test]
fn hierarchical_fused_matches_per_ray() {
    let (ds, model) = trained_scene();
    let strategy = SamplingStrategy::Hierarchical {
        n_coarse: 6,
        n_fine: 6,
    };
    assert_fused_matches_per_ray(&ds, &model, strategy, &[1, 2, 4]);
}

#[test]
fn coarse_then_focus_fused_matches_per_ray() {
    let (ds, model) = trained_scene();
    let strategy = SamplingStrategy::coarse_then_focus(8, 8);
    assert_fused_matches_per_ray(&ds, &model, strategy, &[1, 2, 4]);
}

/// The ray-transformer variant's fused q/k/v/o projections: a full
/// frame on the fused chunk schedule must stay bit-identical to its
/// rays rendered one at a time even though the fused path batches the
/// attention projections (and the density projection) across a
/// chunk's rays. Only the softmax attention core runs per ray — the
/// paper's point about the transformer workload.
#[test]
fn transformer_fused_render_matches_per_ray() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
    let model =
        GenNerfModel::new(ModelConfig::fast().with_ray_module(RayModuleChoice::Transformer));
    assert_fused_matches_per_ray(&ds, &model, SamplingStrategy::Uniform { n: 9 }, &[1, 3]);
}

/// A test ray: the ray and the depths it is sampled at.
type SampledRay = (Ray, Vec<f32>);

/// `rays` as one arena, ray by ray through [`aggregate_ray_into`].
fn arena_by_ray(rays: &[SampledRay], sources: &[SourceViewData], d: usize) -> AggregateArena {
    let mut arena = AggregateArena::default();
    arena.reset(sources.len(), d);
    for (ray, depths) in rays {
        aggregate_ray_into(ray, depths, sources, d, &mut arena);
    }
    arena
}

/// `rays` as one arena through [`aggregate_points_into`], the points
/// and a direction for each handed over explicitly.
fn arena_by_points(rays: &[SampledRay], sources: &[SourceViewData], d: usize) -> AggregateArena {
    let mut arena = AggregateArena::default();
    arena.reset(sources.len(), d);
    for (ray, depths) in rays {
        let points: Vec<Vec3> = depths.iter().map(|&t| ray.at(t)).collect();
        let dirs = vec![ray.direction; points.len()];
        aggregate_points_into(&points, &dirs, sources, d, &mut arena);
    }
    arena
}

fn output_bits(out: &RayOutput) -> (Vec<u32>, Vec<[u32; 3]>) {
    let densities = out.densities.iter().map(|v| v.to_bits()).collect();
    let colors = out
        .colors
        .iter()
        .map(|c| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()])
        .collect();
    (densities, colors)
}

/// `forward_rays_arena` over one arena ≡ each ray forwarded from an
/// arena of its own, bit-for-bit, for every ray module and for
/// adversarial groupings (empty rays, invisible points, mixed lengths).
#[test]
fn forward_rays_equals_forward_ray_across_modules() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
    let sources = prepare_sources(&ds.source_views);
    let cam = &ds.eval_views[0].camera;
    let mut rays: Vec<SampledRay> = Vec::new();
    for (px, py, n) in [(2u32, 2u32, 12usize), (8, 4, 5), (1, 9, 1), (5, 5, 17)] {
        let ray = cam.pixel_center_ray(px, py);
        let Some((t0, t1)) = ds.scene.bounds.intersect_ray(&ray) else {
            continue;
        };
        rays.push((ray, Ray::uniform_depths(t0, t1, n)));
    }
    rays.push((cam.pixel_center_ray(0, 0), Vec::new())); // an empty ray inside the chunk
    rays.push((Ray::new(Vec3::new(900.0, 0.0, 0.0), Vec3::X), vec![0.0])); // only invisible points
    let arena = arena_by_ray(&rays, &sources, 12);
    assert_eq!(arena.n_rays(), rays.len());
    assert_eq!(arena.n_valid(arena.total_points() - 1), 0);

    for choice in [
        RayModuleChoice::Mixer,
        RayModuleChoice::Transformer,
        RayModuleChoice::None,
    ] {
        let model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
        let fused = model.forward_rays_arena(&arena, &mut ForwardScratch::default());
        assert_eq!(fused.len(), rays.len());
        for (ray, out) in rays.iter().zip(&fused) {
            let own = arena_by_ray(std::slice::from_ref(ray), &sources, 12);
            let alone = model.forward_rays_arena(&own, &mut ForwardScratch::default());
            assert_eq!(alone.len(), 1);
            assert_eq!(
                out.densities.len(),
                ray.1.len(),
                "{choice:?}: one density a point"
            );
            let (fd, fc) = output_bits(out);
            let (pd, pc) = output_bits(&alone[0]);
            assert_eq!(fd, pd, "{choice:?}: densities diverged");
            assert_eq!(fc, pc, "{choice:?}: colors diverged");
        }
    }
}

/// Chunking must be invisible: any grouping of the same rays into
/// arenas produces the same per-ray outputs (this is what makes the
/// fused schedule deterministic across worker counts).
#[test]
fn forward_rays_is_chunking_invariant() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let cam = &ds.eval_views[0].camera;
    let mut rays: Vec<SampledRay> = Vec::new();
    for px in 0..6u32 {
        let ray = cam.pixel_center_ray(px, 4);
        let Some((t0, t1)) = ds.scene.bounds.intersect_ray(&ray) else {
            continue;
        };
        rays.push((ray, Ray::uniform_depths(t0, t1, 7 + px as usize)));
    }
    assert!(rays.len() >= 3, "need a few hitting rays");
    let mut scratch = ForwardScratch::default();
    let mut forward = |group: &[SampledRay]| {
        model.forward_rays_arena(&arena_by_points(group, &sources, 12), &mut scratch)
    };
    let whole = forward(&rays);
    // Split into two unequal chunks and a per-ray "chunking".
    let (left, right) = rays.split_at(rays.len() / 3);
    let mut split = forward(left);
    split.extend(forward(right));
    let singles: Vec<_> = rays
        .iter()
        .flat_map(|r| forward(std::slice::from_ref(r)))
        .collect();
    assert_eq!((split.len(), singles.len()), (whole.len(), whole.len()));
    for (a, b) in whole.iter().zip(&split).chain(whole.iter().zip(&singles)) {
        assert_eq!(output_bits(a), output_bits(b));
    }
}

/// The coarse pass over one arena ≡ each ray's coarse pass from an
/// arena of its own, bit-for-bit, with an empty ray in the batch.
#[test]
fn coarse_densities_batch_equals_per_ray() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let cam = &ds.eval_views[0].camera;
    let mut rays: Vec<SampledRay> = vec![(cam.pixel_center_ray(0, 0), Vec::new())];
    for px in [1u32, 4, 7] {
        let ray = cam.pixel_center_ray(px, 6);
        let Some((t0, t1)) = ds.scene.bounds.intersect_ray(&ray) else {
            continue;
        };
        rays.push((ray, Ray::uniform_depths(t0, t1, 8)));
    }
    let arena = arena_by_ray(&rays, &sources, 3);
    let fused = model.coarse_densities_arena(&arena, &mut MlpScratch::default());
    assert_eq!(fused.len(), rays.len());
    for (ray, out) in rays.iter().zip(&fused) {
        let own = arena_by_ray(std::slice::from_ref(ray), &sources, 3);
        let alone = model.coarse_densities_arena(&own, &mut MlpScratch::default());
        assert_eq!(alone.len(), 1);
        assert_eq!(out.len(), ray.1.len());
        let fb: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = alone[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, pb);
    }
}
