//! `render_direct`: one caller in a closed loop on `Renderer::render`.
//!
//! `core` and `nn` do all the work here and `serve`, `parallel` and
//! `accel` none: 48×48 frames of the "pedestal" scene, coarse-then-focus
//! sampling, one thread, so the fused GEMM chunks are the largest any
//! workload produces. The traced run adds the `nn.kernels`, `core.*`,
//! `parallel` and `telemetry` probes, which need this workload's scene.

use super::{all_finite, build_scene, direct_renderer, gemm_dispatches, same_pixels, CTF_WALK};
use crate::inputs::ArcPath;
use crate::probes;
use crate::run::{self, closed_loop_round, timed_setup, Ctx, Round};
use crate::stats;
use crate::sys::count_allocations;
use gen_nerf::config::SamplingStrategy;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_geometry::{Camera, Intrinsics};
use gen_nerf_scene::Image;
use std::hint::black_box;
use std::time::Instant;

const RES: u32 = 48;
/// Source-view scale and ground-truth samples of the captured scene.
const SCENE_SCALE: f32 = 0.08;
/// The baseline path of `core.pipeline.uniform_frame_ms`: the same
/// points per ray as coarse-then-focus (16 + 12), placed uniformly.
const UNIFORM: SamplingStrategy = SamplingStrategy::Uniform { n: 28 };
/// Share of a traced run kept for the layer probes: the shares handed
/// out in `layer_metrics` plus the telemetry pairs (≈ 1.8 s).
const PROBE_SHARE: f64 = 0.5;

pub fn run(ctx: &mut Ctx) {
    let setup = || build_scene("pedestal", SCENE_SCALE, 6, RES as usize);
    let scene = timed_setup(ctx, setup);
    let intrinsics = Intrinsics::from_fov(RES, RES, 0.55);
    let path = ArcPath::draw(ctx.seed, 0, 4.0, 0.008);
    let camera = |step: u64| Camera::new(intrinsics, path.pose(step as usize));
    let renderer = direct_renderer(&scene, CTF_WALK).with_threads(1);

    for i in 0..ctx.warmup(5) {
        black_box(renderer.render(&camera(i as u64)));
    }

    // Correctness: the first frame repeats bit for bit, alone and at two
    // threads, and holds no NaN or infinity.
    let (first, first_stats) = renderer.render(&camera(0));
    let again = renderer.render(&camera(0)).0;
    let two = direct_renderer(&scene, CTF_WALK)
        .with_threads(2)
        .render(&camera(0))
        .0;
    ctx.report.check(
        same_pixels(&first, &again),
        "direct frame rendered twice is bitwise identical",
    );
    ctx.report.check(
        same_pixels(&first, &two),
        "direct frame is bitwise identical at 1 and 2 threads",
    );
    ctx.report
        .check(all_finite(&first), "direct frame is finite");

    let (rounds, secs) = ctx.round_plan(PROBE_SHARE);
    let mut request = 0u64;
    let measured: Vec<Round> = (0..rounds)
        .map(|r| {
            ctx.resample_setup(setup);
            ctx.arm_round(r);
            closed_loop_round(
                ctx,
                secs,
                "core.pipeline.render",
                &mut request,
                |i| renderer.render(&camera(i)),
                |(image, _)| all_finite(image),
            )
        })
        .collect();
    let p95 = run::roll_up(ctx, &measured, None);
    ctx.report.set("core.pipeline.frame_ms_p95", p95);

    if ctx.trace {
        ctx.rec.set_on(true);
        layer_metrics(ctx, &scene, &renderer, &camera, &first_stats);
    }
}

/// Quiet-host ms per frame of `renderer` along the path, over `secs`.
fn quiet_frame_ms(
    ctx: &mut Ctx,
    span: &'static str,
    secs: f64,
    renderer: &Renderer<'_>,
    camera: &dyn Fn(u64) -> Camera,
) -> f64 {
    black_box(renderer.render(&camera(0)));
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut i = 0u64;
    while ms.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        let out = ctx.rec.time(span, i, || renderer.render(&camera(i)));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(out);
        i += 1;
    }
    stats::quiet_low(&ms)
}

fn layer_metrics(
    ctx: &mut Ctx,
    scene: &gen_nerf_serve::SceneState,
    renderer: &Renderer<'_>,
    camera: &dyn Fn(u64) -> Camera,
    frame: &RenderStats,
) {
    let SamplingStrategy::CoarseThenFocus { s_coarse, .. } = CTF_WALK else {
        unreachable!("the walkthrough strategy is coarse-then-focus");
    };
    probes::nn_kernels(ctx, &scene.model, ctx.probe_secs(0.1));
    probes::core_chunk(
        ctx,
        &scene.model,
        &scene.sources,
        s_coarse,
        &camera(0),
        &scene.bounds,
        ctx.probe_secs(0.1),
    );
    probes::pool_dispatch(ctx, ctx.probe_secs(0.015));

    // Exact counts of one frame: the path's first pose.
    let rays = frame.rays.max(1) as f64;
    let r = &mut ctx.report;
    r.set("core.sampling.points_per_ray", frame.points as f64 / rays);
    r.set(
        "core.sampling.coarse_points_per_ray",
        frame.coarse_points as f64 / rays,
    );
    r.set(
        "core.features.fetches_per_frame",
        frame.feature_fetches as f64,
    );
    r.set("core.pipeline.mflops_per_pixel", frame.mflops_per_pixel());
    for bucket in ["acquire", "mlp", "ray_module", "others"] {
        r.set(
            &format!("core.pipeline.flops_share_{bucket}"),
            frame.flops.fraction(bucket),
        );
    }
    let mut image = Image::new(0, 0);
    let ((), allocs) = count_allocations(|| {
        image = renderer.render(&camera(1)).0;
    });
    r.set("core.pipeline.allocs_per_frame", allocs as f64);
    let before = gemm_dispatches();
    black_box(renderer.render(&camera(1)));
    r.set(
        "nn.kernels.gemm_dispatches_per_frame",
        (gemm_dispatches() - before) as f64,
    );

    let get = |r: &crate::metrics::Report, name: &str| r.get(name).unwrap_or(0.0);
    // Where the frame time goes: the children measured by the probes,
    // scaled to this frame's point counts, against the frame itself.
    let frame_ms = get(r, "frame_ms");
    let (pts, coarse) = (frame.points as f64, frame.coarse_points as f64);
    let children_ns = get(r, "core.features.fill_ns_per_point") * pts
        + get(r, "core.features.coarse_fill_ns_per_point") * coarse
        + get(r, "core.model.forward_ns_per_point") * pts
        + get(r, "core.model.coarse_ns_per_point") * coarse;
    r.set(
        "core.pipeline.frame_ns_per_point",
        frame_ms * 1e6 / (pts + coarse).max(1.0),
    );
    r.set(
        "core.pipeline.self_share",
        1.0 - children_ns / (frame_ms * 1e6),
    );

    // The same layer used differently: uniform sampling, two threads.
    let uniform = direct_renderer(scene, UNIFORM).with_threads(1);
    let two = direct_renderer(scene, CTF_WALK).with_threads(2);
    let secs = ctx.probe_secs(0.075);
    let uniform_ms = quiet_frame_ms(ctx, "core.pipeline.render_uniform", secs, &uniform, camera);
    let two_ms = quiet_frame_ms(ctx, "core.pipeline.render_2t", secs, &two, camera);
    ctx.report
        .set("core.pipeline.uniform_frame_ms", uniform_ms);
    ctx.report.set("parallel.speedup_2t", frame_ms / two_ms);

    // Telemetry on vs off, one frame per leg, alternating which leg
    // goes first so drift inside a pair cancels over the pairs.
    let timed = |on: bool| {
        gen_nerf_telemetry::set_enabled(on);
        let t0 = Instant::now();
        black_box(renderer.render(&camera(2)));
        t0.elapsed().as_secs_f64()
    };
    let pairs = if ctx.smoke { 3 } else { 16 };
    let ratios: Vec<f64> = ctx.rec.time("telemetry.enabled_pairs", 40, || {
        (0..pairs)
            .map(|p| {
                if p % 2 == 0 {
                    let off = timed(false);
                    timed(true) / off
                } else {
                    let on = timed(true);
                    on / timed(false)
                }
            })
            .collect()
    });
    gen_nerf_telemetry::set_enabled(true);
    ctx.report.set(
        "telemetry.enabled_overhead_pct",
        (stats::median(&ratios) - 1.0) * 100.0,
    );
}
