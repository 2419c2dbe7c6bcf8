//! Output integrity at the serving layer: injected corruption — a
//! supra-tolerance GEMM perturbation, a poisoned pixel, a bit-flipped
//! cache anchor — must never reach a client.
//!
//! * A corrupt render attempt fails verification *before* fulfill; the
//!   frame re-renders under the retry policy and the recovered image
//!   is bitwise identical to a never-faulted render.
//! * A corrupted coarse anchor fails its digest at import and is
//!   discarded as a counted miss — it never seeds a render.
//! * Repeated GEMM miscompares under a SIMD backend quarantine that
//!   backend process-wide; serving continues on the scalar kernels.
//!
//! These tests flip process-global state (the integrity mode, the
//! active kernel backend, the armed chaos hooks), so they serialize on
//! a local lock and restore the environment's configuration on exit.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::Renderer;
use gen_nerf_geometry::{Camera, Intrinsics, Pose, Vec3};
use gen_nerf_nn::kernels::integrity::{self, IntegrityMode};
use gen_nerf_nn::kernels::{self, Backend};
use gen_nerf_scene::{Dataset, DatasetKind};
use gen_nerf_serve::{
    CacheOutcome, CoherenceConfig, Fault, FrameRequest, RenderServer, SceneState, ServerConfig,
    SessionConfig,
};
use gen_nerf_telemetry::EventKind;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn scene() -> Arc<SceneState> {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, 24, 5);
    let model = GenNerfModel::new(ModelConfig::fast());
    Arc::new(SceneState::prepare(
        model,
        &ds.source_views,
        ds.scene.bounds,
        ds.scene.background,
    ))
}

fn intrinsics() -> Intrinsics {
    Intrinsics::from_fov(16, 16, 0.6)
}

fn pose(k: usize) -> Pose {
    let phi = 0.3 + 0.02 * k as f32;
    Pose::look_at(
        Vec3::new(3.5 * phi.cos(), 1.1, 3.5 * phi.sin()),
        Vec3::ZERO,
        Vec3::Y,
    )
}

fn bits(img: &gen_nerf_scene::Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Restores every piece of process-global state a test may have moved:
/// the integrity mode, the quarantine latch, the active backend.
fn restore_globals() {
    integrity::clear_quarantine_for_tests();
    kernels::set_active(Backend::from_env());
    integrity::set_mode(IntegrityMode::from_env());
}

#[test]
fn corrupt_gemm_frame_is_detected_retried_and_bitwise_exact() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    integrity::set_mode(IntegrityMode::Full);

    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let recovered = server
        .submit(
            session,
            FrameRequest::new(pose(0)).with_fault(Fault::CorruptGemm(0x5eed)),
        )
        .wait();

    // The corruption was caught (never published) and the frame was
    // re-rendered; detection and recovery are visible in the counters.
    let corrupt: u64 = server
        .shard_stats_all()
        .iter()
        .map(|s| s.corrupt_renders)
        .sum();
    let retries: u64 = server.shard_stats_all().iter().map(|s| s.retries).sum();
    assert!(corrupt >= 1, "injected GEMM corruption went undetected");
    assert!(retries >= 1, "corrupt frame recovered without a retry");

    // The client cannot tell: the recovered frame is bitwise a
    // never-faulted render.
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), pose(0)));
    assert_eq!(
        bits(&recovered.image),
        bits(&direct),
        "retried frame diverged from a never-faulted render"
    );
    restore_globals();
}

#[test]
fn corrupt_pixels_frame_trips_the_sentinel_and_recovers() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scene = scene();
    let strategy = SamplingStrategy::Uniform { n: 6 };
    integrity::set_mode(IntegrityMode::Full);

    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let recovered = server
        .submit(
            session,
            FrameRequest::new(pose(1)).with_fault(Fault::CorruptPixels(0xfeed_beef)),
        )
        .wait();
    assert!(
        recovered.image.as_slice().iter().all(|v| v.is_finite()),
        "poisoned pixel reached a client"
    );

    let corrupt: u64 = server
        .shard_stats_all()
        .iter()
        .map(|s| s.corrupt_renders)
        .sum();
    assert!(corrupt >= 1, "poisoned pixel went undetected");

    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), pose(1)));
    assert_eq!(bits(&recovered.image), bits(&direct));
    restore_globals();
}

#[test]
fn a_corrupt_attempt_is_classified_alike_for_a_batch_of_three_and_a_solo_frame() {
    // One render path serves the first, batched attempt and every solo
    // retry, so a corrupt attempt must trace the same `Render` outcome
    // (2) on every member of a batch as on a frame rendered alone, and
    // the recovering solo retries the same clean outcome (0).
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scene = scene();
    let strategy = SamplingStrategy::Uniform { n: 6 };
    integrity::set_mode(IntegrityMode::Full);

    let server = RenderServer::new(ServerConfig::default());
    let sessions: Vec<_> = (0..3)
        .map(|_| {
            server.create_session(
                Arc::clone(&scene),
                SessionConfig::new(intrinsics(), strategy),
            )
        })
        .collect();
    // The render outcomes of the frames traced since the last call,
    // in order, grouped per frame in first-seen order, with the size
    // of the batch each frame rode in.
    let traced = |server: &RenderServer| -> Vec<(u64, Vec<u64>)> {
        let mut frames: Vec<(u64, u64, Vec<u64>)> = Vec::new();
        for e in server.drain_traces() {
            if !matches!(e.kind, EventKind::Batch | EventKind::Render) {
                continue;
            }
            if !frames.iter().any(|(id, _, _)| *id == e.frame) {
                frames.push((e.frame, 0, Vec::new()));
            }
            let (_, batch, outcomes) = frames
                .iter_mut()
                .find(|(id, _, _)| *id == e.frame)
                .expect("just inserted");
            match e.kind {
                EventKind::Batch => *batch = e.a,
                _ => outcomes.push(e.b),
            }
        }
        frames.into_iter().map(|(_, b, o)| (b, o)).collect()
    };

    // Solo: the corrupt first attempt, then the clean retry.
    server
        .submit(
            sessions[0],
            FrameRequest::new(pose(1)).with_fault(Fault::CorruptPixels(7)),
        )
        .wait();
    assert_eq!(traced(&server), [(1, vec![2, 0])]);

    // A batch of three, one member corrupt. Park the shard on a stalled
    // frame (the batch counter moves once it is in the worker's hands)
    // so the three queue up behind it and are carved into one batch.
    let shard = server.shard_of(sessions[0]);
    let batches = server.shard_stats(shard).batches;
    let stall = server.submit(
        sessions[0],
        FrameRequest::new(pose(2)).with_fault(Fault::Stall(Duration::from_millis(500))),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.shard_stats(shard).batches == batches {
        assert!(Instant::now() < deadline, "stalled frame never scheduled");
        std::thread::yield_now();
    }
    let handles: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(i, &session)| {
            let mut req = FrameRequest::new(pose(3 + i));
            if i == 1 {
                req = req.with_fault(Fault::CorruptPixels(9));
            }
            server.submit(session, req)
        })
        .collect();
    stall.wait();
    for handle in handles {
        let frame = handle.wait();
        assert!(frame.image.as_slice().iter().all(|v| v.is_finite()));
    }
    assert_eq!(
        traced(&server),
        [
            (1, vec![0]),
            (3, vec![2, 0]),
            (3, vec![2, 0]),
            (3, vec![2, 0])
        ],
        "stalled frame, then three co-batched frames: corrupt together, recovered solo"
    );
    restore_globals();
}

#[test]
fn corrupt_anchor_is_rejected_at_import_as_a_counted_miss() {
    // The digest check is unconditional — no integrity mode needed: a
    // bit-flipped anchor must never seed a render even with GEMM
    // checking off.
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy)
            .with_coherence(CoherenceConfig::within(0.05, 0.02)),
    );

    let first = server.submit(session, FrameRequest::new(pose(2))).wait();
    assert_eq!(first.serve.cache, CacheOutcome::Miss);

    // Same pose, but the retained anchor is bit-flipped before the
    // lookup: the import validation must discard it (a miss, counted)
    // and re-render from scratch — bitwise the same frame.
    let second = server
        .submit(
            session,
            FrameRequest::new(pose(2)).with_fault(Fault::CorruptAnchor(42)),
        )
        .wait();
    assert_eq!(
        second.serve.cache,
        CacheOutcome::Miss,
        "a corrupted anchor must not be imported"
    );
    assert_eq!(bits(&first.image), bits(&second.image));

    // The fresh miss re-anchored: the pose hits again, and the stats
    // attribute the rejection.
    let third = server.submit(session, FrameRequest::new(pose(2))).wait();
    assert_eq!(third.serve.cache, CacheOutcome::Hit);
    assert_eq!(bits(&first.image), bits(&third.image));
    let stats = server.cache_stats(session);
    assert_eq!(stats.integrity_rejects, 1);
    assert_eq!((stats.hits, stats.misses), (1, 2));
    restore_globals();
}

#[test]
fn repeated_gemm_miscompares_quarantine_the_simd_backend() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !Backend::Avx2.available() {
        return; // nothing to quarantine on this host
    }
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    integrity::clear_quarantine_for_tests();
    integrity::set_mode(IntegrityMode::Full);
    assert_eq!(kernels::set_active(Backend::Avx2), Backend::Avx2);

    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    // Three transient miscompares under the SIMD backend: every frame
    // still resolves (the retry recovers each one), and the third
    // strike latches the process-wide quarantine.
    for k in 0..3 {
        let r = server
            .submit(
                session,
                FrameRequest::new(pose(3 + k)).with_fault(Fault::CorruptGemm(k as u64 + 1)),
            )
            .wait();
        assert!(r.image.as_slice().iter().all(|v| v.is_finite()));
    }
    assert_eq!(
        kernels::active_backend(),
        Backend::Scalar,
        "repeated miscompares must demote the SIMD backend"
    );
    let quarantines: u64 = server
        .shard_stats_all()
        .iter()
        .map(|s| s.quarantine_events)
        .sum();
    assert!(quarantines >= 1, "quarantine latch not counted");

    // Serving continues on the scalar kernels — still bitwise-exact.
    let after = server.submit(session, FrameRequest::new(pose(9))).wait();
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), pose(9)));
    assert_eq!(bits(&after.image), bits(&direct));
    restore_globals();
}
