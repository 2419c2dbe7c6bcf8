//! Layer probes of the traced run: short timed calls straight into one
//! layer's public functions, on inputs shaped like the ones the frame
//! workloads feed it. Each probe is one span in the trace.

use crate::inputs;
use crate::run::{time_per_call, Ctx};
use crate::stats;
use crate::sys::count_allocations;
use gen_nerf::features::{aggregate_points_into, AggregateArena, SourceViewData};
use gen_nerf::model::{ForwardScratch, GenNerfModel, MlpScratch};
use gen_nerf_geometry::{Aabb, Camera, Ray, Vec3};
use gen_nerf_nn::kernels::integrity::{self, IntegrityMode};
use gen_nerf_nn::quant::QuantTensor;
use gen_nerf_parallel::Pool;
use std::hint::black_box;
use std::time::Instant;

/// Rows of a fused point-MLP GEMM: the renderer's chunk of points.
const CHUNK_POINTS: usize = 2048;
/// The acquisition probe's chunk: rays × points per ray.
const PROBE_RAYS: usize = 128;
const PROBE_POINTS: usize = 16;

/// GFLOP/s of the dense `m×k · k×n` product on seeded operands.
fn gemm_gflops(ctx: &mut Ctx, secs: f64, id: u64, (m, k, n): (usize, usize, usize)) -> f64 {
    let a = inputs::gemm_operand(ctx.seed, 100 + id, m, k);
    let b = inputs::gemm_operand(ctx.seed, 200 + id, k, n);
    let t = ctx.rec.time("nn.kernels.gemm", id, || {
        time_per_call(secs, 8, || {
            black_box(a.matmul(&b));
        })
    });
    2.0 * (m * k * n) as f64 / t / 1e9
}

/// `nn.kernels`: dense GEMM at the point-MLP's shapes and at 128³, INT8
/// GEMM at 128³, and what full ABFT verification costs at the hidden
/// shape.
pub fn nn_kernels(ctx: &mut Ctx, model: &GenNerfModel, secs: f64) {
    let cfg = &model.config;
    let each = secs / 7.0;
    let shapes = [
        (
            "nn.kernels.gemm_gflops_pt_in",
            (CHUNK_POINTS, cfg.point_input_dim(), cfg.hidden),
        ),
        (
            "nn.kernels.gemm_gflops_pt_hid",
            (CHUNK_POINTS, cfg.hidden, cfg.hidden),
        ),
        (
            "nn.kernels.gemm_gflops_pt_out",
            (CHUNK_POINTS, cfg.hidden, cfg.point_output_dim()),
        ),
        ("nn.kernels.gemm_gflops_128", (128, 128, 128)),
    ];
    for (id, (name, shape)) in shapes.into_iter().enumerate() {
        let v = gemm_gflops(ctx, each, id as u64, shape);
        ctx.report.set(name, v);
    }

    let qa = QuantTensor::quantize(&inputs::gemm_operand(ctx.seed, 110, 128, 128));
    let qb = QuantTensor::quantize(&inputs::gemm_operand(ctx.seed, 210, 128, 128));
    let t = ctx.rec.time("nn.kernels.int8_gemm", 10, || {
        time_per_call(each, 8, || {
            black_box(qa.matmul(&qb));
        })
    });
    ctx.report
        .set("nn.kernels.int8_gops_128", 2.0 * 128f64.powi(3) / t / 1e9);

    // Off/full pairs back to back, so drift cancels within a pair; the
    // mode the process started with is put back.
    let a = inputs::gemm_operand(ctx.seed, 120, CHUNK_POINTS, cfg.hidden);
    let b = inputs::gemm_operand(ctx.seed, 220, cfg.hidden, cfg.hidden);
    let before = integrity::mode();
    let ratios = ctx.rec.time("nn.kernels.abft", 11, || {
        let batch = |mode| {
            integrity::set_mode(mode);
            let t0 = Instant::now();
            for _ in 0..16 {
                black_box(a.matmul(&b));
            }
            t0.elapsed().as_secs_f64()
        };
        batch(IntegrityMode::Off);
        let start = Instant::now();
        let mut ratios = Vec::new();
        while ratios.len() < 5 || start.elapsed().as_secs_f64() < 2.0 * each {
            let off = batch(IntegrityMode::Off);
            ratios.push(batch(IntegrityMode::Full) / off);
        }
        ratios
    });
    integrity::set_mode(before);
    ctx.report.set(
        "nn.kernels.abft_full_overhead_pct",
        (stats::median(&ratios) - 1.0) * 100.0,
    );
}

/// Sample points of the first [`PROBE_RAYS`] pixel rays of `camera`
/// that cross `bounds`, [`PROBE_POINTS`] uniform depths each.
fn probe_chunk(camera: &Camera, bounds: &Aabb) -> (Vec<Vec<Vec3>>, Vec<Vec<Vec3>>) {
    let (w, h) = (camera.intrinsics.width, camera.intrinsics.height);
    let (mut pts, mut dirs) = (Vec::new(), Vec::new());
    for px in 0..w * h {
        if pts.len() == PROBE_RAYS {
            break;
        }
        let ray = camera.pixel_center_ray(px % w, px / w);
        if let Some((t0, t1)) = bounds.intersect_ray(&ray) {
            let depths = Ray::uniform_depths(t0, t1, PROBE_POINTS);
            pts.push(depths.iter().map(|&t| ray.at(t)).collect());
            dirs.push(vec![ray.direction; depths.len()]);
        }
    }
    (pts, dirs)
}

/// `core.features` and `core.model`: the arena fill and the two fused
/// forwards, per point, on one probe chunk — at the full width (every
/// source, `d_features` channels) and at the coarse pass's width (its
/// source subset, `coarse_channels`).
pub fn core_chunk(
    ctx: &mut Ctx,
    model: &GenNerfModel,
    sources: &[SourceViewData],
    s_coarse: usize,
    camera: &Camera,
    bounds: &Aabb,
    secs: f64,
) {
    let (pts, dirs) = probe_chunk(camera, bounds);
    let fill = |arena: &mut AggregateArena, srcs: &[SourceViewData], d: usize| {
        arena.reset(srcs.len(), d);
        for (p, dir) in pts.iter().zip(&dirs) {
            aggregate_points_into(p, dir, srcs, d, arena);
        }
    };
    let each = secs / 4.0;
    let d = model.config.d_features;
    let dc = model.config.coarse_channels;
    let coarse_sources = &sources[..s_coarse.min(sources.len())];

    let mut arena = AggregateArena::default();
    let t_fill = ctx.rec.time("core.features.fill", 20, || {
        time_per_call(each, 4, || fill(&mut arena, sources, d))
    });
    let n = arena.total_points().max(1) as f64;
    ctx.report
        .set("core.features.fill_ns_per_point", t_fill * 1e9 / n);
    let ((), allocs) = count_allocations(|| fill(&mut arena, sources, d));
    ctx.report
        .set("core.features.allocs_per_pass", allocs as f64);

    let mut coarse_arena = AggregateArena::default();
    let t_cfill = ctx.rec.time("core.features.coarse_fill", 21, || {
        time_per_call(each, 4, || fill(&mut coarse_arena, coarse_sources, dc))
    });
    ctx.report
        .set("core.features.coarse_fill_ns_per_point", t_cfill * 1e9 / n);

    let mut scratch = ForwardScratch::default();
    let t_fwd = ctx.rec.time("core.model.forward", 22, || {
        time_per_call(each, 4, || {
            black_box(model.forward_rays_arena(&arena, &mut scratch));
        })
    });
    ctx.report
        .set("core.model.forward_ns_per_point", t_fwd * 1e9 / n);

    let mut mlp = MlpScratch::default();
    let t_coarse = ctx.rec.time("core.model.coarse", 23, || {
        time_per_call(each, 4, || {
            black_box(model.coarse_densities_arena(&coarse_arena, &mut mlp));
        })
    });
    ctx.report
        .set("core.model.coarse_ns_per_point", t_coarse * 1e9 / n);
}

/// `parallel`: what handing a job to the persistent pool costs when the
/// job itself is empty.
pub fn pool_dispatch(ctx: &mut Ctx, secs: f64) {
    let pool = Pool::new(2);
    let t = ctx.rec.time("parallel.pool.run_chunks", 30, || {
        time_per_call(secs, 64, || {
            black_box(pool.run_chunks(2, 2, |_, _| ()));
        })
    });
    ctx.report.set("parallel.pool_dispatch_us", t * 1e6);
}
