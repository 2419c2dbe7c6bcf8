//! Criterion benches for fused cross-ray batched inference: one chunk
//! of pre-aggregated rays pushed through
//! [`GenNerfModel::forward_rays_arena`] (one point-MLP chain + one
//! blend chain per chunk, off the arena in place) versus the per-ray
//! reference loop over [`GenNerfModel::forward_ray`] (one GEMM chain
//! per ray, one blend MLP call per point). Same points, bit-identical
//! outputs — the gap is pure dispatch/allocation/GEMM-shape overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use gen_nerf::config::ModelConfig;
use gen_nerf::features::{aggregate_ray_into, prepare_sources, AggregateArena, PointAggregate};
use gen_nerf::model::{ForwardScratch, GenNerfModel};
use gen_nerf_scene::{Dataset, DatasetKind};

/// A model, a chunk of `n_rays` rays of `points_per_ray` samples as one
/// arena, and the same rays exported for the per-ray loop.
fn chunk_fixture(
    n_rays: usize,
    points_per_ray: usize,
) -> (GenNerfModel, AggregateArena, Vec<Vec<PointAggregate>>) {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 32, 7);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let cam = &ds.eval_views[0].camera;
    let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
    let mut arena = AggregateArena::default();
    arena.reset(sources.len(), 12);
    let mut px = 0u32;
    while arena.n_rays() < n_rays {
        let (x, y) = (px % w, (px / w) % h);
        px += 1;
        let ray = cam.pixel_center_ray(x, y);
        let Some((t0, t1)) = ds.scene.bounds.intersect_ray(&ray) else {
            continue;
        };
        let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, points_per_ray);
        aggregate_ray_into(&ray, &depths, &sources, 12, &mut arena);
    }
    let rays = (0..n_rays).map(|r| arena.export_ray(r)).collect();
    (model, arena, rays)
}

fn bench_chunk_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_inference");
    group.sample_size(10);
    for (n_rays, pts) in [(64usize, 16usize), (256, 8)] {
        let (model, arena, rays) = chunk_fixture(n_rays, pts);
        let mut scratch = ForwardScratch::default();
        group.bench_function(format!("fused_forward_rays/{n_rays}x{pts}"), |b| {
            b.iter(|| model.forward_rays_arena(&arena, &mut scratch))
        });
        group.bench_function(format!("per_ray_forward_ray/{n_rays}x{pts}"), |b| {
            b.iter(|| {
                rays.iter()
                    .map(|r| model.forward_ray(r))
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chunk_inference);
criterion_main!(benches);
