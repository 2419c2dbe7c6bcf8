//! `gen-nerf-serve` — an asynchronous multi-session render server.
//!
//! The paper's motivating scenario (Sec. 1) is a user in an AR headset
//! demanding a novel view *per head pose, now*. A synchronous
//! [`gen_nerf::pipeline::Renderer::render`] call serves one such user
//! badly — every frame re-pays the per-scene setup (source-feature
//! encoding, model construction) and every small frame under-fills the
//! fused GEMM schedule — and serves many users worse, one at a time.
//! This crate is the serving layer that amortizes both:
//!
//! * **Sessions** ([`SceneState`]/[`SessionConfig`]): each session
//!   pins the per-scene state that is otherwise rebuilt per frame —
//!   the encoded source-feature pyramids ([`SceneState::prepare`] runs
//!   `prepare_sources` once), the pretrained model (shared `&self`
//!   across every in-flight frame) and the scene bounds/background.
//! * **Scene shards** ([`ShardId`]): the server is partitioned per
//!   scene. Each registered scene routes (by `Arc` identity) to one
//!   shard — a scheduler thread owning that scene's request queue, its
//!   sessions' coherence caches' scheduling, and a private slice of the
//!   server's thread budget as its own persistent
//!   [`gen_nerf_parallel::Pool`]. Scheduling never serializes across
//!   scenes; up to [`ServerConfig::max_shards`] shards spawn lazily,
//!   further scenes share shards round-robin. There is no async
//!   runtime — the container builds with no external crates, so each
//!   shard is a shared condvar-signalled queue + a scheduler thread +
//!   a worker pool. The scheduler thread itself is supervised: a
//!   heartbeat/health sweep condemns a dead or wedged worker, requeues
//!   its frames, and respawns it under a restart budget
//!   ([`HealthConfig`]), and a process-wide [`GovernorConfig`] memory
//!   budget spans every session cache.
//! * **One frame lifecycle**: every submitted frame is one state
//!   value walking `Submit → Admit → Pop → Batch → Render/Retry →
//!   Resolve`, and it ends through exactly one transition — taken by
//!   whoever owns the frame then (admission, the shard, the health
//!   sweep, a drain) or by the per-class deadline watchdog
//!   ([`SupervisorConfig`]) — which is the only code that resolves a
//!   [`FrameHandle`], moves the frame counters, emits the terminal
//!   trace event and tells the scene's [`CircuitBreaker`] what
//!   happened. The winner books *before* it wakes the handle: once a
//!   handle resolves, its counter, latency observation and trace are
//!   already visible. Transient failures re-render under a bounded
//!   [`RetryPolicy`], bitwise identical to a clean render.
//! * **Admission control** ([`AdmissionConfig`]): every shard queue is
//!   bounded. At the capacity watermark, [`DeadlineClass::BestEffort`]
//!   submissions are **shed** (their [`FrameHandle`] resolves
//!   immediately with [`ServeError::Shed`]) while
//!   [`DeadlineClass::Interactive`] submissions **degrade** to the
//!   cached-coarse [`ResolutionTier::Quarter`] tier, shedding only past
//!   a higher hard bound — overload costs prefetch work and resolution
//!   before it costs interactive frames.
//! * **Fair admission batching** ([`FairQueue`]): the shard scheduler
//!   dequeues in class-priority order with per-tenant round-robin (one
//!   hot session cannot starve its shard-mates; per-session FIFO is
//!   never reordered) and coalesces frames of sessions that share a
//!   scene and strategy into **one** fused multi-frame render
//!   ([`Renderer::render_frames`](gen_nerf::pipeline::Renderer::render_frames)),
//!   so concurrent small requests fill the one-GEMM-per-tile schedule a
//!   lone request cannot. The kernel batch-independence contract makes
//!   this free of approximation: co-scheduled frames are bit-for-bit
//!   what solo renders would produce.
//! * **A temporal-coherence cache** ([`CoherenceConfig`]): per session,
//!   the coarse-then-focus Step ① outcome
//!   ([`CoarseFrame`](gen_nerf::pipeline::CoarseFrame)) of the
//!   last anchor pose is kept; a new pose within the configured
//!   translation/rotation delta re-runs only the focus pass against
//!   the cached coarse probing. With coherence disabled (the default,
//!   [`CoherenceConfig::exact`]) the server is pinned bitwise-identical
//!   to direct rendering by `tests/serve_regression.rs`.
//!
//! # Quickstart
//!
//! ```no_run
//! use gen_nerf::config::{ModelConfig, SamplingStrategy};
//! use gen_nerf::model::GenNerfModel;
//! use gen_nerf_scene::{Dataset, DatasetKind};
//! use gen_nerf_serve::{
//!     CoherenceConfig, FrameRequest, RenderServer, SceneState, ServerConfig, SessionConfig,
//! };
//! use std::sync::Arc;
//!
//! let ds = Dataset::build(DatasetKind::DeepVoxels, "pedestal", 0.08, 6, 1, 64, 11);
//! let model = GenNerfModel::new(ModelConfig::fast());
//! let scene = Arc::new(SceneState::prepare(
//!     model,
//!     &ds.source_views,
//!     ds.scene.bounds,
//!     ds.scene.background,
//! ));
//!
//! let server = RenderServer::new(ServerConfig::default());
//! let session = server.create_session(
//!     Arc::clone(&scene),
//!     SessionConfig::new(
//!         ds.eval_views[0].camera.intrinsics,
//!         SamplingStrategy::coarse_then_focus(8, 16),
//!     )
//!     .with_coherence(CoherenceConfig::within(0.05, 0.02)),
//! );
//!
//! let handle = server.submit(session, FrameRequest::new(ds.eval_views[0].camera.pose));
//! let frame = handle.wait();
//! println!(
//!     "latency {:?}, cache {:?}",
//!     frame.serve.latency, frame.serve.cache
//! );
//! ```

mod admission;
mod frame;
mod governor;
mod health;
mod registry;
mod server;
mod session;
mod shard;
mod supervisor;

pub use admission::{
    admission_decision_supervised, AdmissionConfig, AdmissionDecision, AdmissionStats, FairQueue,
};
pub use governor::{GovernorConfig, GovernorStats};
pub use health::{
    CondemnReason, DrainOutcome, DrainReport, HealthConfig, ShardHealth, ShardHealthStats,
};
pub use registry::ShardId;
pub use server::{
    CacheOutcome, Fault, FrameHandle, FrameRequest, FrameResult, RenderServer, ServeError,
    ServeStats, ServerConfig,
};
pub use session::{
    poses_coherent, CacheStats, CoherenceConfig, DeadlineClass, ResolutionTier, SceneState,
    SessionConfig, SessionId, DEFAULT_CACHE_BUDGET_BYTES,
};
pub use shard::ShardStats;
pub use supervisor::{
    BreakerAdmit, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy, SupervisorConfig,
    SupervisorStats,
};

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard when a holder panicked — the
/// crate's poison policy, stated once. Every mutex here guards state
/// that is valid at each step of every update (counts, queues and maps
/// whose entries go in and out whole), so a poisoned lock holds no
/// torn data, and a tier whose contract is "every handle resolves"
/// must keep serving after a panic instead of cascading it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] under the same poison policy as [`lock`].
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait_timeout`] under the same poison policy as [`lock`];
/// callers re-check their predicate and their own deadline.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(|e| e.into_inner())
        .0
}

/// Blocks on `cv` until `done` holds of the guarded state or `until`
/// passes — the bounded wait behind `drain` and `remove_session`,
/// which are woken by the transition they wait for instead of polling
/// for it. Returns the guard and whether `done` held.
pub(crate) fn wait_until<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    until: Instant,
    done: impl Fn(&T) -> bool,
) -> (MutexGuard<'a, T>, bool) {
    loop {
        if done(&guard) {
            return (guard, true);
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return (guard, false);
        }
        guard = wait_timeout(cv, guard, left);
    }
}
