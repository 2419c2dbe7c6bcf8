//! `serve_walkthrough`: four clients, one session each on one shared
//! scene, in a closed loop of vsync waves — submit four frames, wait
//! for four, recycle their buffers into the next wave.
//!
//! This is the serve tier's reuse path: poses advance along an arc in
//! steps small enough that about five of six frames fall within the
//! coherence cache's pose delta and skip the coarse pass, same-scene
//! frames of a wave co-batch into one fused render, and frame buffers
//! are recycled. 32×32 frames, coarse-then-focus (16, 12), two render
//! threads.

use super::{
    build_scene, direct_renderer, gemm_dispatches, phase_metrics, resolve, same_pixels,
    server_metrics, submit, FrameCounts, Served, TraceTally, CTF_WALK,
};
use crate::inputs::ArcPath;
use crate::run::{self, timed_setup, Ctx, Round, RoundClock, SliceClock};
use gen_nerf_geometry::{Camera, Intrinsics};
use gen_nerf_scene::Image;
use gen_nerf_serve::{
    CoherenceConfig, FrameRequest, RenderServer, SceneState, ServerConfig, SessionConfig, SessionId,
};
use std::sync::Arc;

const RES: u32 = 32;
const CLIENTS: usize = 4;
/// Arc step per wave: 0.008 rad at radius 4 is 0.032 world units, so a
/// pose stays within the cache's 0.2-unit / 0.06-rad delta of its
/// anchor for six steps — a hit rate near 5/6 whatever the seed.
const ARC_STEP: f32 = 0.008;

struct Setup {
    scene: Arc<SceneState>,
    server: RenderServer,
    sessions: Vec<SessionId>,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

fn setup(intrinsics: Intrinsics) -> Setup {
    let scene = Arc::new(build_scene("pedestal", 0.08, 6, RES as usize));
    let server = RenderServer::new(server_config());
    let config =
        SessionConfig::new(intrinsics, CTF_WALK).with_coherence(CoherenceConfig::within(0.2, 0.06));
    let sessions = (0..CLIENTS)
        .map(|_| server.create_session(Arc::clone(&scene), config))
        .collect();
    Setup {
        scene,
        server,
        sessions,
    }
}

pub fn run(ctx: &mut Ctx) {
    let intrinsics = Intrinsics::from_fov(RES, RES, 0.55);
    let s = timed_setup(ctx, || setup(intrinsics));
    let paths: Vec<ArcPath> = (0..CLIENTS)
        .map(|c| ArcPath::draw(ctx.seed, c as u64, 4.0, ARC_STEP))
        .collect();

    // Correctness: with the cache off, the first served frame is the
    // direct render of its pose, bit for bit.
    {
        let server = RenderServer::new(server_config());
        let session = server.create_session(
            Arc::clone(&s.scene),
            SessionConfig::new(intrinsics, CTF_WALK),
        );
        let pose = paths[0].pose(0);
        let p = submit(&server, session, FrameRequest::new(pose), u64::MAX, None);
        let (_, frame) = resolve(ctx, p);
        let direct = direct_renderer(&s.scene, CTF_WALK)
            .render(&Camera::new(intrinsics, pose))
            .0;
        ctx.report.check(
            frame.is_some_and(|f| same_pixels(&f.image, &direct)),
            "cache-off served frame equals the direct render bitwise",
        );
    }

    let mut buffers: Vec<Option<Image>> = (0..CLIENTS).map(|_| None).collect();
    let mut step = 0usize;
    let mut request = 0u64;
    let mut counts = FrameCounts::default();
    // One vsync wave: every client submits its next pose, then every
    // frame is awaited and its buffer kept for the next wave.
    let mut wave = |ctx: &mut Ctx, out: &mut Vec<Served>, counts: &mut FrameCounts| {
        let pending: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut req = FrameRequest::new(paths[c].pose(step));
                if let Some(buf) = buffers[c].take() {
                    req = req.with_buffer(buf);
                }
                request += 1;
                submit(&s.server, s.sessions[c], req, request, None)
            })
            .collect();
        for (c, p) in pending.into_iter().enumerate() {
            let (served, frame) = resolve(ctx, p);
            out.push(served);
            if let Some(frame) = frame {
                counts.add(&frame.stats);
                buffers[c] = Some(frame.image);
            }
        }
        step += 1;
    };

    let mut warm = Vec::new();
    for _ in 0..ctx.warmup(3) {
        wave(ctx, &mut warm, &mut FrameCounts::default());
    }
    s.server.drain_traces();

    // No layer probes here: a traced run spends all its time in rounds.
    let (rounds, secs) = ctx.round_plan(0.0);
    let mut frames: Vec<Served> = Vec::new();
    let mut traces = TraceTally::default();
    let gemms0 = gemm_dispatches();
    let measured: Vec<Round> = (0..rounds)
        .map(|r| {
            ctx.resample_setup(|| setup(intrinsics));
            ctx.arm_round(r);
            let clock = RoundClock::start();
            let from = frames.len();
            let (mut slices, mut slice_ms) = (Vec::new(), Vec::new());
            // One wave is one slice; its frame latency is that of its
            // slowest frame. The four co-batch and resolve together,
            // except for the odd frame that was rendered alone ahead of
            // its wave, which would make a median or a mean look quick.
            while clock.elapsed_s() < secs || slices.is_empty() {
                let slice = SliceClock::start();
                let at = frames.len();
                wave(ctx, &mut frames, &mut counts);
                slices.push(slice.stop((frames.len() - at) as u64));
                let latencies = frames[at..].iter().map(Served::user_ms);
                slice_ms.push(latencies.fold(0.0, f64::max));
            }
            let samples = frames[from..].iter().map(Served::user_ms).collect();
            let round = clock.finish(samples, slice_ms, slices, ctx.rec.is_on());
            traces.drain(&s.server);
            round
        })
        .collect();
    let gemms = gemm_dispatches() - gemms0;
    run::roll_up(ctx, &measured, None);

    let n = frames.len() as u64;
    phase_metrics(&mut ctx.report, "closed", &frames, f64::INFINITY);
    server_metrics(&mut ctx.report, &s.server, &s.sessions, &traces);
    counts.set_metrics(&mut ctx.report);
    ctx.report.set(
        "nn.kernels.gemm_dispatches_per_frame",
        gemms as f64 / n.max(1) as f64,
    );
}
