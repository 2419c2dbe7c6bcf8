//! Serving-layer regression: the exactness and determinism contracts
//! of `gen-nerf-serve`.
//!
//! * With the coherence cache **off** (the default), serving is
//!   bitwise-identical to direct `Renderer::render` calls — for every
//!   sampling strategy. Admission batching, the persistent worker
//!   pool, buffer recycling: none of it may change a pixel.
//! * With the cache **on**, an identical repeated pose is a
//!   *guaranteed* coarse-cache hit (the scheduler never co-batches two
//!   frames of a cache-enabled session) and bitwise-stable: the cached
//!   coarse pass of the same pose reproduces the uncached render
//!   exactly while skipping Step ① work.
//! * N sessions submitting concurrently produce the same pixels as the
//!   same frames submitted sequentially — for any `GEN_NERF_THREADS`
//!   (CI runs this suite under multiple settings and on both
//!   `GEN_NERF_KERNEL` legs).

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::Renderer;
use gen_nerf_geometry::{Camera, Intrinsics, Pose, Vec3};
use gen_nerf_scene::{Dataset, DatasetKind};
use gen_nerf_serve::{
    AdmissionConfig, CacheOutcome, CoherenceConfig, DeadlineClass, Fault, FrameRequest,
    HealthConfig, RenderServer, ResolutionTier, SceneState, ServeError, ServerConfig,
    SessionConfig, SupervisorConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    Intrinsics::from_fov(24, 24, 0.6)
}

/// Session `s`'s head pose at walkthrough step `k`: a fine arc, each
/// session phase-offset.
fn walk_pose(s: usize, k: usize) -> Pose {
    let phi = 0.3 * s as f32 + 0.015 * k as f32;
    let eye = Vec3::new(3.5 * phi.cos(), 1.1, 3.5 * phi.sin());
    Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
}

fn strategies() -> [SamplingStrategy; 3] {
    [
        SamplingStrategy::Uniform { n: 6 },
        SamplingStrategy::Hierarchical {
            n_coarse: 4,
            n_fine: 4,
        },
        SamplingStrategy::coarse_then_focus(6, 6),
    ]
}

fn bits(img: &gen_nerf_scene::Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn cache_off_serving_is_bitwise_identical_to_direct_render() {
    let scene = scene();
    for strategy in strategies() {
        let server = RenderServer::new(ServerConfig::default());
        // Default SessionConfig: coherence off ⇒ exact serving.
        let session = server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        );
        let direct = Renderer::new(
            &scene.model,
            &scene.sources,
            strategy,
            scene.bounds,
            scene.background,
        );
        for k in 0..3 {
            let pose = walk_pose(0, k);
            let served = server.submit(session, FrameRequest::new(pose)).wait();
            let (img, stats) = direct.render(&Camera::new(intrinsics(), pose));
            assert_eq!(served.serve.cache, CacheOutcome::Bypass, "{strategy:?}");
            assert_eq!(
                bits(&served.image),
                bits(&img),
                "{strategy:?} pose {k}: served pixels diverged"
            );
            assert_eq!(served.stats.points, stats.points, "{strategy:?}");
            assert_eq!(
                served.stats.coarse_points, stats.coarse_points,
                "{strategy:?}"
            );
            assert_eq!(
                served.stats.flops.total(),
                stats.flops.total(),
                "{strategy:?}"
            );
            assert_eq!(
                served.stats.feature_fetches, stats.feature_fetches,
                "{strategy:?}"
            );
        }
    }
}

#[test]
fn repeated_pose_is_guaranteed_hit_and_bitwise_stable() {
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy)
            .with_coherence(CoherenceConfig::within(0.05, 0.02)),
    );
    let pose = walk_pose(0, 0);
    // Submit the identical pose several times *without waiting in
    // between*: the scheduler must still serve them in order with the
    // cache applied (it never co-batches one session's frames).
    let handles: Vec<_> = (0..4)
        .map(|_| server.submit(session, FrameRequest::new(pose)))
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    assert_eq!(results[0].serve.cache, CacheOutcome::Miss);
    for (i, r) in results.iter().enumerate().skip(1) {
        assert_eq!(r.serve.cache, CacheOutcome::Hit, "frame {i}");
        assert_eq!(r.stats.coarse_points, 0, "frame {i} re-ran Step ①");
        assert_eq!(
            bits(&results[0].image),
            bits(&r.image),
            "frame {i} not bitwise-stable"
        );
    }
    // And the cached result equals the uncached direct render: Step ①
    // of the identical pose is deterministic.
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), pose));
    assert_eq!(bits(&direct), bits(&results[3].image));
    let cache = server.cache_stats(session);
    assert_eq!((cache.hits, cache.misses), (3, 1));
}

#[test]
fn concurrent_sessions_match_sequential_sessions() {
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let coherence = CoherenceConfig::within(0.12, 0.04);
    let (n_sessions, n_steps) = (3usize, 3usize);

    // Sequential reference: one session at a time, one frame at a time.
    let sequential: Vec<Vec<Vec<u32>>> = {
        let server = RenderServer::new(ServerConfig::default());
        (0..n_sessions)
            .map(|s| {
                let session = server.create_session(
                    Arc::clone(&scene),
                    SessionConfig::new(intrinsics(), strategy).with_coherence(coherence),
                );
                (0..n_steps)
                    .map(|k| {
                        bits(
                            &server
                                .submit(session, FrameRequest::new(walk_pose(s, k)))
                                .wait()
                                .image,
                        )
                    })
                    .collect()
            })
            .collect()
    };

    // Concurrent: every session submits its whole trajectory from its
    // own thread, all in flight at once, racing into the admission
    // queue. Arrival interleaving and batch composition are arbitrary;
    // pixels must not be.
    let server = RenderServer::new(ServerConfig::default());
    let sessions: Vec<_> = (0..n_sessions)
        .map(|_| {
            server.create_session(
                Arc::clone(&scene),
                SessionConfig::new(intrinsics(), strategy).with_coherence(coherence),
            )
        })
        .collect();
    let concurrent: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(s, &session)| {
                scope.spawn(move || {
                    // Fire the whole trajectory without waiting, then
                    // collect in order (per-sender FIFO keeps the
                    // session's frames ordered in the queue).
                    let frame_handles: Vec<_> = (0..n_steps)
                        .map(|k| server.submit(session, FrameRequest::new(walk_pose(s, k))))
                        .collect();
                    frame_handles
                        .into_iter()
                        .map(|h| bits(&h.wait().image))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for s in 0..n_sessions {
        for k in 0..n_steps {
            assert_eq!(
                sequential[s][k], concurrent[s][k],
                "session {s} frame {k} diverged between concurrent and sequential serving"
            );
        }
    }
    // Every session saw the same cache behaviour as its sequential
    // twin would: first frame misses, coherent successors hit.
    for &session in &sessions {
        let c = server.cache_stats(session);
        assert_eq!(c.misses + c.hits, n_steps as u64);
        assert!(c.hits > 0, "no temporal coherence exploited");
    }
}

#[test]
fn concurrent_mixed_strategy_sessions_are_isolated() {
    // Sessions on different strategies never share a fused batch; the
    // outputs still match their direct renders exactly (cache off).
    let scene = scene();
    let server = RenderServer::new(ServerConfig::default());
    let pose = walk_pose(1, 1);
    let handles: Vec<_> = strategies()
        .into_iter()
        .map(|strategy| {
            let session = server.create_session(
                Arc::clone(&scene),
                SessionConfig::new(intrinsics(), strategy),
            );
            (strategy, server.submit(session, FrameRequest::new(pose)))
        })
        .collect();
    for (strategy, handle) in handles {
        let served = handle.wait();
        let (img, _) = Renderer::new(
            &scene.model,
            &scene.sources,
            strategy,
            scene.bounds,
            scene.background,
        )
        .render(&Camera::new(intrinsics(), pose));
        assert_eq!(bits(&served.image), bits(&img), "{strategy:?}");
    }
}

#[test]
fn sharded_scenes_serve_bitwise_identical_to_direct_render() {
    // Three distinct scenes on a two-shard server: every scene's
    // frames, served concurrently across shards (two scenes sharing
    // one shard), match its own direct render bit for bit.
    let scenes: Vec<Arc<SceneState>> = (0..3).map(|_| scene()).collect();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default().with_max_shards(2));
    let sessions: Vec<_> = scenes
        .iter()
        .map(|s| server.create_session(Arc::clone(s), SessionConfig::new(intrinsics(), strategy)))
        .collect();
    assert_eq!(server.shard_health().len(), 2);
    assert_ne!(
        server.shard_of(sessions[0]),
        server.shard_of(sessions[1]),
        "distinct scenes under the cap share a shard"
    );
    assert_eq!(
        server.shard_of(sessions[0]),
        server.shard_of(sessions[2]),
        "scene past the cap did not round-robin onto shard 0"
    );
    let handles: Vec<Vec<_>> = sessions
        .iter()
        .map(|&session| {
            (0..2)
                .map(|k| server.submit(session, FrameRequest::new(walk_pose(0, k))))
                .collect()
        })
        .collect();
    for (s, per_scene) in handles.into_iter().enumerate() {
        let direct = Renderer::new(
            &scenes[s].model,
            &scenes[s].sources,
            strategy,
            scenes[s].bounds,
            scenes[s].background,
        );
        for (k, h) in per_scene.into_iter().enumerate() {
            let served = h.wait();
            let (img, _) = direct.render(&Camera::new(intrinsics(), walk_pose(0, k)));
            assert_eq!(
                bits(&served.image),
                bits(&img),
                "scene {s} frame {k} diverged under sharding"
            );
            assert_eq!(
                served.serve.shard,
                server.shard_of(sessions[s]).index(),
                "frame served off its scene's shard"
            );
        }
    }
}

#[test]
fn render_panic_fails_one_frame_and_the_shard_keeps_serving() {
    // A panic inside the render closure mid-frame: the server must
    // survive, the faulted frame's handle must resolve to an error
    // (never hang), and subsequent frames on the same scene must stay
    // bitwise-correct.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let before = server
        .submit(session, FrameRequest::new(walk_pose(0, 0)))
        .wait();
    let faulted = server.submit(
        session,
        FrameRequest::new(walk_pose(0, 1)).with_fault(Fault::Panic),
    );
    match faulted.wait_result() {
        Err(ServeError::Failed(msg)) => {
            assert!(
                msg.contains("injected render fault"),
                "unexpected failure message: {msg}"
            );
        }
        other => panic!("faulted frame resolved to {other:?}"),
    }
    // The shard thread survived: the same session renders on, and the
    // pixels are still exact.
    let after = server
        .submit(session, FrameRequest::new(walk_pose(0, 0)))
        .wait();
    assert_eq!(
        bits(&before.image),
        bits(&after.image),
        "post-panic frame diverged"
    );
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), walk_pose(0, 0)));
    assert_eq!(bits(&after.image), bits(&direct));
}

#[test]
fn overload_sheds_best_effort_first_and_degrades_interactive() {
    // Pin the shed-or-degrade order under deterministic overload: with
    // the shard held busy by a stalled frame and the queue at its
    // watermark, BestEffort submissions shed while Interactive ones
    // are admitted at the degraded quarter tier — and recovery after
    // the backlog drains is bitwise-exact.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let capacity = 2usize;
    let server = RenderServer::new(
        ServerConfig::default()
            .with_max_shards(1)
            .with_admission(AdmissionConfig::with_capacity(capacity)),
    );
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let shard = server.shard_of(session);

    // Occupy the shard, wait for the stall's batch to be sealed, then
    // fill the queue exactly to the watermark with Interactive frames.
    // An empty queue is not enough: the shard pops the stall frame
    // first and gathers batch mates after, so frames submitted in
    // between would ride in the stall's batch instead of queueing.
    let batches = server.shard_health()[shard.index()].batches;
    let stall = server.submit(
        session,
        FrameRequest::new(walk_pose(0, 0)).with_fault(Fault::Stall(Duration::from_millis(700))),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.shard_health()[shard.index()].batches == batches {
        assert!(Instant::now() < deadline, "stall frame never scheduled");
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..capacity)
        .map(|k| server.submit(session, FrameRequest::new(walk_pose(0, k))))
        .collect();
    assert_eq!(server.shard_health()[shard.index()].queued, capacity);

    // At the watermark: every BestEffort submission sheds...
    for k in 0..3 {
        let be = server.submit(
            session,
            FrameRequest::new(walk_pose(0, k)).with_deadline(DeadlineClass::BestEffort),
        );
        match be.wait_result() {
            Err(ServeError::Shed { class }) => assert_eq!(class, DeadlineClass::BestEffort),
            other => panic!("BestEffort frame {k} not shed: {other:?}"),
        }
    }
    // ...while Interactive submissions are admitted, degraded to the
    // quarter tier (half the hard bound is still open).
    let degraded = server.submit(session, FrameRequest::new(walk_pose(0, 5)));
    let adm = server.admission_stats();
    assert_eq!(adm.shed_best_effort, 3, "BestEffort sheds first");
    assert_eq!(adm.shed_interactive, 0, "no Interactive frame shed");
    assert_eq!(adm.degraded, 1);

    let stall = stall.wait();
    assert!(!stall.serve.degraded);
    for h in queued {
        let r = h.wait();
        assert_eq!(r.serve.tier, ResolutionTier::Full);
    }
    let d = degraded.wait();
    assert!(d.serve.degraded, "admission did not mark the degrade");
    assert_eq!(d.serve.tier, ResolutionTier::Quarter);
    // The degraded frame is a *real* quarter-tier render: bitwise
    // equal to directly rendering at the quarter intrinsics.
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(
        ResolutionTier::Quarter.apply(intrinsics()),
        walk_pose(0, 5),
    ));
    assert_eq!(bits(&d.image), bits(&direct), "degraded frame diverged");

    // Past the backlog, serving is exact again at full tier.
    let recovered = server
        .submit(session, FrameRequest::new(walk_pose(0, 7)))
        .wait();
    let (full, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), walk_pose(0, 7)));
    assert_eq!(bits(&recovered.image), bits(&full), "recovery not exact");
}

#[test]
fn timed_out_frame_resolves_and_the_next_frame_is_bitwise_exact() {
    // A stalled render must not wedge the shard: the supervision pass
    // resolves the handle at the class budget with `TimedOut`, cooperative
    // cancellation reclaims the stalled worker, and the very next
    // frame on the same scene renders bitwise-identical to a direct
    // render — supervised serving never trades exactness for
    // liveness.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let budget = Duration::from_millis(1500);
    let server = RenderServer::new(ServerConfig {
        supervision: SupervisorConfig {
            interactive_budget: budget,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let started = Instant::now();
    let stalled = server.submit(
        session,
        FrameRequest::new(walk_pose(0, 1)).with_fault(Fault::Stall(Duration::from_secs(60))),
    );
    match stalled
        .wait_timeout(Duration::from_secs(15))
        .expect("watchdog must resolve a stalled frame at its budget")
    {
        Err(ServeError::TimedOut { class }) => assert_eq!(class, DeadlineClass::Interactive),
        other => panic!("stalled frame resolved to {other:?}"),
    }
    // Resolved at the budget, not the 60 s stall (generous slack for a
    // loaded CI box — the point is the order of magnitude).
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "timeout took {:?}",
        started.elapsed()
    );
    assert_eq!(server.supervisor_stats().timed_out_interactive, 1);

    // The stalled worker was reclaimed: the next frame renders, and
    // bitwise-exactly.
    let after = server
        .submit(session, FrameRequest::new(walk_pose(0, 2)))
        .wait_timeout(Duration::from_secs(30))
        .expect("post-timeout frame must resolve")
        .expect("post-timeout frame must render");
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), walk_pose(0, 2)));
    assert_eq!(
        bits(&after.image),
        bits(&direct),
        "post-timeout frame diverged from direct render"
    );
    assert_eq!(server.supervisor_stats().in_flight, 0);
}

#[test]
fn retried_transient_panic_renders_bitwise_identical_to_a_clean_frame() {
    // `PanicOnce` fails the first (batched) attempt only; the retry
    // path re-renders the frame solo. Kernel batch-independence makes
    // the recovered frame bitwise-equal to a direct render — a client
    // cannot tell a retried frame from one that never faulted.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let pose = walk_pose(0, 3);
    let recovered = server
        .submit(
            session,
            FrameRequest::new(pose).with_fault(Fault::PanicOnce),
        )
        .wait();
    let (direct, _) = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .render(&Camera::new(intrinsics(), pose));
    assert_eq!(
        bits(&recovered.image),
        bits(&direct),
        "retried frame diverged from a never-faulted render"
    );
    // The recovery really went through the retry path.
    let retries: u64 = server.shard_health().iter().map(|s| s.retries).sum();
    assert!(retries >= 1, "transient panic recovered without a retry");
}

#[test]
fn a_failing_frame_does_not_hold_up_another_session_on_its_shard() {
    // A failed attempt sends its frame back to its own lane to wait out
    // the retry backoff (10 ms first) there, so the shard serves a clean
    // frame of another session meanwhile. The two sessions sample
    // differently, so they never share a batch, which would fail both.
    // The clean frame is submitted once the first attempt has failed:
    // that attempt runs on the shard thread, so the clean frame never
    // waits on it. What it must not wait for is the backoff.
    let scene = scene();
    let server = RenderServer::new(ServerConfig::default());
    let [failing, clean] = [strategies()[0], strategies()[1]].map(|strategy| {
        server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        )
    });
    assert_eq!(server.shard_of(failing), server.shard_of(clean));
    let faulted = server.submit(
        failing,
        FrameRequest::new(walk_pose(0, 0)).with_fault(Fault::Panic),
    );
    let shard = server.shard_of(failing).index();
    let give_up = Instant::now() + Duration::from_secs(60);
    while server.shard_health()[shard].retries == 0 {
        assert!(Instant::now() < give_up, "the first attempt never failed");
        std::thread::yield_now();
    }
    let frame = server
        .submit(clean, FrameRequest::new(walk_pose(1, 0)))
        .wait();
    assert!(
        frame.serve.queue_wait < Duration::from_millis(10),
        "a clean frame queued {:?} behind another session's retries",
        frame.serve.queue_wait
    );
    assert!(matches!(faulted.wait_result(), Err(ServeError::Failed(_))));
}

#[test]
fn every_handle_resolves_under_a_mixed_fault_schedule() {
    // The liveness contract under chaos: whatever mix of transient
    // panics, persistent panics, long stalls and slow frames lands on
    // a shard, every submitted handle resolves — rendered, retried,
    // failed, timed out, or shed, but never stuck.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let budget = Duration::from_millis(1200);
    let server = RenderServer::new(ServerConfig {
        supervision: SupervisorConfig {
            interactive_budget: budget,
            best_effort_budget: budget,
        },
        ..ServerConfig::default()
    });
    let sessions = [
        server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        ),
        server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        ),
    ];
    let mut handles = Vec::new();
    for k in 0..24 {
        // A fixed schedule cycling through every fault kind.
        let fault = match k % 8 {
            1 => Some(Fault::PanicOnce),
            3 => Some(Fault::Stall(Duration::from_secs(30))),
            5 => Some(Fault::Panic),
            6 => Some(Fault::Stall(Duration::from_millis(25))),
            _ => None,
        };
        let class = if k % 3 == 0 {
            DeadlineClass::BestEffort
        } else {
            DeadlineClass::Interactive
        };
        let mut req = FrameRequest::new(walk_pose(k % 2, k)).with_deadline(class);
        if let Some(f) = fault {
            req = req.with_fault(f);
        }
        handles.push(server.submit(sessions[k % 2], req));
    }
    for (k, handle) in handles.into_iter().enumerate() {
        assert!(
            handle.wait_timeout(Duration::from_secs(60)).is_some(),
            "frame {k} never resolved"
        );
    }
    assert_eq!(
        server.supervisor_stats().in_flight,
        0,
        "watchdog left watches attached after every handle resolved"
    );
}

#[test]
fn remove_session_resolves_every_handle_before_returning() {
    // Drain-then-drop pin: `remove_session` must not return while any
    // of the session's frames is unresolved. A zero-wait probe after
    // removal therefore finds every handle settled — in-flight frames
    // rendered, still-queued frames failed, none stuck. Before the
    // fix, removal dropped the session map entry immediately and a
    // frame mid-render raced the teardown.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let server = RenderServer::new(ServerConfig::default());
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    // A short in-budget stall parks the shard so the removal provably
    // races in-flight work, with more frames queued behind it.
    let mut handles = vec![server.submit(
        session,
        FrameRequest::new(walk_pose(0, 0)).with_fault(Fault::Stall(Duration::from_millis(150))),
    )];
    for k in 1..6 {
        handles.push(server.submit(session, FrameRequest::new(walk_pose(0, k))));
    }
    // Rendezvous: the shard counts a batch only once every member's
    // session state is resolved and held, so from here on the head is
    // in flight no matter how the two threads are scheduled. Without
    // it a removal that wins the race to the session map fails the
    // head as "queued" like the rest.
    let shard = server.shard_of(session);
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.shard_health()[shard.index()].batches == 0 {
        assert!(Instant::now() < deadline, "head frame never scheduled");
        std::thread::yield_now();
    }
    server.remove_session(session);
    let mut rendered = 0usize;
    for (k, handle) in handles.into_iter().enumerate() {
        match handle.wait_timeout(Duration::from_millis(1)) {
            Some(Ok(_)) => rendered += 1,
            Some(Err(_)) => {}
            None => panic!("frame {k} still unresolved after remove_session returned"),
        }
    }
    // The stalled head frame was in flight when removal began; the
    // drain must have let it finish rather than failing it.
    assert!(rendered >= 1, "removal failed even the in-flight frame");
}

#[test]
fn frames_after_a_shard_kill_render_bitwise_identical() {
    // Self-healing exactness pin: a seeded shard kill mid-queue loses
    // nothing — the killed frame and everything queued behind it are
    // requeued FIFO onto the respawned incarnation and render
    // bitwise-identical to a server that was never killed.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let poses: Vec<Pose> = (0..6).map(|k| walk_pose(0, k)).collect();

    // Reference: a clean server renders the same plan.
    let reference: Vec<Vec<u32>> = {
        let server = RenderServer::new(ServerConfig::default());
        let session = server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        );
        poses
            .iter()
            .map(|&pose| bits(&server.submit(session, FrameRequest::new(pose)).wait().image))
            .collect()
    };

    // A short backoff keeps the restart quick; the heartbeat budget
    // (and so the 50 ms sweep) stays at its default (a kill is
    // detected as Dead via the finished worker thread, and a tight
    // budget would misread a legitimately slow render on a loaded test
    // host as Wedged).
    let server = RenderServer::new(ServerConfig {
        health: HealthConfig {
            restart_backoff: Duration::from_millis(10),
            ..HealthConfig::default()
        },
        ..ServerConfig::default()
    });
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    // Warm frame, then the kill, then the queue the kill strands.
    let mut handles = vec![server.submit(session, FrameRequest::new(poses[0]))];
    handles.push(server.submit(
        session,
        FrameRequest::new(poses[1]).with_fault(Fault::KillShard),
    ));
    for &pose in &poses[2..] {
        handles.push(server.submit(session, FrameRequest::new(pose)));
    }
    for (k, handle) in handles.into_iter().enumerate() {
        let frame = handle
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("frame {k} never resolved across the restart"))
            .unwrap_or_else(|e| panic!("frame {k} failed across the restart: {e}"));
        assert_eq!(
            bits(&frame.image),
            reference[k],
            "frame {k} diverged from the never-killed render"
        );
    }
    let restarts: u64 = server.shard_health().iter().map(|h| h.restarts).sum();
    assert!(
        restarts >= 1,
        "seeded kill never exercised the restart path"
    );
}
