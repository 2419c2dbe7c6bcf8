//! Regression suite for fused cross-ray batched inference: the fused
//! chunk schedule (one point-MLP GEMM + one blend GEMM per chunk,
//! [`GenNerfModel::forward_rays_arena`]) must match the per-ray reference
//! path **bit-for-bit** — identical pixels and identical FLOPs/fetch
//! accounting — on a trained model, for every sampling strategy, ray
//! module and thread count.
//!
//! This is the contract that makes the fused path safe as the default:
//! fusion is a pure performance knob, never a results knob. It rests on
//! the dense GEMM kernel's k-order accumulation (see
//! `gen_nerf_nn::tensor`), which makes output rows independent of
//! which other rows share a batch.

use gen_nerf::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
use gen_nerf::features::{
    aggregate_point, aggregate_points_into, aggregate_ray_into, prepare_sources, AggregateArena,
    PointAggregate, SourceViewData,
};
use gen_nerf::model::{ForwardScratch, GenNerfModel, MlpScratch, RayOutput};
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf::trainer::{TrainConfig, Trainer};
use gen_nerf_geometry::{Ray, Vec3};
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

fn render(
    ds: &Dataset,
    model: &GenNerfModel,
    strategy: SamplingStrategy,
    fused: bool,
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
    if fused {
        renderer.render(&ds.eval_views[0].camera)
    } else {
        renderer.render_reference(&ds.eval_views[0].camera)
    }
}

fn assert_stats_identical(a: &RenderStats, b: &RenderStats, ctx: &str) {
    // The FLOPs-accounting satellite: fused and per-ray paths must
    // report identical counts, bucket by bucket.
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

fn assert_fused_matches_per_ray(strategy: SamplingStrategy) {
    let (ds, model) = trained_scene();
    let (img_ref, stats_ref) = render(&ds, &model, strategy, false, 1);
    for threads in [1usize, 2, 4] {
        let (img_fused, stats_fused) = render(&ds, &model, strategy, true, threads);
        let ref_bits: Vec<u32> = img_ref.as_slice().iter().map(|v| v.to_bits()).collect();
        let fused_bits: Vec<u32> = img_fused.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            ref_bits, fused_bits,
            "{strategy:?} fused@{threads} threads diverged from per-ray reference"
        );
        assert_stats_identical(
            &stats_ref,
            &stats_fused,
            &format!("{strategy:?} fused@{threads}"),
        );
    }
}

#[test]
fn uniform_fused_matches_per_ray() {
    assert_fused_matches_per_ray(SamplingStrategy::Uniform { n: 10 });
}

#[test]
fn hierarchical_fused_matches_per_ray() {
    assert_fused_matches_per_ray(SamplingStrategy::Hierarchical {
        n_coarse: 6,
        n_fine: 6,
    });
}

#[test]
fn coarse_then_focus_fused_matches_per_ray() {
    assert_fused_matches_per_ray(SamplingStrategy::coarse_then_focus(8, 8));
}

/// The ray-transformer variant's fused q/k/v/o projections: a full
/// frame on the fused chunk schedule must stay bit-identical to the
/// per-ray reference even though the fused path now batches the
/// attention projections (and the density projection) across a
/// chunk's rays. Only the softmax attention core runs per ray — the
/// paper's point about the transformer workload.
#[test]
fn transformer_fused_render_matches_per_ray() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 5, 1, 24, 3);
    let model =
        GenNerfModel::new(ModelConfig::fast().with_ray_module(RayModuleChoice::Transformer));
    let sources = prepare_sources(&ds.source_views);
    let strategy = SamplingStrategy::Uniform { n: 9 };
    let run = |fused: bool, threads: usize| {
        let renderer = Renderer::new(
            &model,
            &sources,
            strategy,
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(threads);
        if fused {
            renderer.render(&ds.eval_views[0].camera)
        } else {
            renderer.render_reference(&ds.eval_views[0].camera)
        }
    };
    let (img_ref, stats_ref) = run(false, 1);
    for threads in [1usize, 3] {
        let (img_fused, stats_fused) = run(true, threads);
        let ref_bits: Vec<u32> = img_ref.as_slice().iter().map(|v| v.to_bits()).collect();
        let fused_bits: Vec<u32> = img_fused.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            ref_bits, fused_bits,
            "transformer fused@{threads} threads diverged from per-ray reference"
        );
        assert_stats_identical(&stats_ref, &stats_fused, &format!("transformer@{threads}"));
    }
}

/// A test ray: the ray and the depths it is sampled at.
type SampledRay = (Ray, Vec<f32>);

/// The per-ray reference's input: [`aggregate_point`] at every sample.
fn reference_aggregates(
    (ray, depths): &SampledRay,
    sources: &[SourceViewData],
    d: usize,
) -> Vec<PointAggregate> {
    depths
        .iter()
        .map(|&t| aggregate_point(ray.at(t), ray.direction, sources, d))
        .collect()
}

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

/// `forward_rays_arena` ≡ per-ray `forward_ray` over `aggregate_point`,
/// bit-for-bit, for every ray module and for adversarial groupings
/// (empty rays, invisible points, mixed lengths) — the API-level half
/// of the contract, with the arena fill under the comparison too.
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
            let per_ray = model.forward_ray(&reference_aggregates(ray, &sources, 12));
            let (fd, fc) = output_bits(out);
            let (pd, pc) = output_bits(&per_ray);
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
    // And every grouping is the per-ray program over the per-point fill.
    for (ray, out) in rays.iter().zip(&whole) {
        let per_ray = model.forward_ray(&reference_aggregates(ray, &sources, 12));
        assert_eq!(output_bits(out), output_bits(&per_ray));
    }
}

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
        let per_ray = model.coarse_densities(&reference_aggregates(ray, &sources, 3));
        let fb: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = per_ray.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, pb);
    }
}
