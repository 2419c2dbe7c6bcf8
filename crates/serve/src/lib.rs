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
//!   shard — a scheduler thread owning that scene's request queue and
//!   its sessions' coherence caches' scheduling. A shard thread renders
//!   its own jobs as worker 0 of the server's one
//!   [`gen_nerf_parallel::Pool`], [`ServerConfig::threads`] wide: a
//!   persistent crew of `threads − 1` workers helps whichever shards
//!   are rendering, rotating round-robin over their jobs, so a lone
//!   busy scene renders on `threads` threads. Scheduling never
//!   serializes across scenes; up to [`ServerConfig::max_shards`]
//!   shards spawn lazily, further scenes share shards round-robin.
//!   There is no async runtime — the container builds with no external
//!   crates, so each shard is a shared condvar-signalled queue + a
//!   scheduler thread that renders beside the shared crew.
//! * **One supervision pass**: one server thread visits every shard on
//!   one [`Clock`](gen_nerf_telemetry::Clock). Each shard times out its
//!   own overdue frames, queued and running alike, against their
//!   per-class deadlines ([`SupervisorConfig`]), and is judged by its
//!   health sweep: the scheduler thread counts a beat per pop, attempt
//!   start and batch, and the sweep reads that count with the in-flight
//!   attempt's tile ticks, condemns a dead or wedged thread and
//!   respawns it on the same queue under a restart backoff
//!   ([`HealthConfig`]). The pass runs at least 40 times per shortest
//!   budget and sleeps until the earliest pending deadline.
//! * **One frame lifecycle**: every submitted frame is one state
//!   value walking `Submit → Admit → Pop → Batch → Render (→ Retry →
//!   Pop → Render)* → Resolve`, and it ends through exactly one transition — taken by
//!   whoever owns the frame then (admission, the shard, the health
//!   sweep, a drain) or by its deadline in the supervision pass
//!   — which is the only code that resolves a
//!   [`FrameHandle`], moves the frame counters, emits the terminal
//!   trace event and tells the scene's [`CircuitBreaker`] what
//!   happened. The winner books *before* it wakes the handle: once a
//!   handle resolves, its counter, latency observation and trace are
//!   already visible. A retry is a requeue: a frame whose attempt
//!   failed goes back to the front of its session's lane, waits out a
//!   bounded [`RetryPolicy`] backoff there while the shard serves
//!   everyone else, and is popped again by the same loop to render
//!   alone, bitwise identical to a clean render.
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
//!   the coarse-then-focus Step ① outcomes
//!   ([`CoarseFrame`](gen_nerf::pipeline::CoarseFrame)) of recent
//!   anchor poses are kept; a new pose within the configured
//!   translation/rotation delta of one re-runs only the focus pass
//!   against the cached coarse probing. One server-wide anchor cache
//!   owns every session's anchors, their counters ([`CacheStats`]) and
//!   the byte budgets: 8 MiB of anchors per session and
//!   one [`GovernorConfig`] budget over all anchors plus the worker
//!   arenas of the crew and of every shard thread. With coherence disabled (the default,
//!   [`CoherenceConfig::exact`]) the server is pinned bitwise-identical
//!   to direct rendering by `tests/serve_regression.rs`.
//! * **One stats view per scope**: a shard's [`ShardStats`]
//!   ([`RenderServer::shard_health`]), the server's
//!   [`AdmissionStats`], [`SupervisorStats`] and [`GovernorStats`], and
//!   a session's [`CacheStats`] each read the counters that scope owns.
//!   The same counters are metrics of the process-global
//!   [`gen_nerf_telemetry`] registry, labelled `{instance, shard}`,
//!   which is for export: filter [`gen_nerf_telemetry::snapshot`] by
//!   [`RenderServer::instance`].
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

#![warn(unreachable_pub)]

mod admission;
mod cache;
mod frame;
mod health;
mod server;
mod session;
mod shard;
mod supervisor;

pub use admission::{AdmissionConfig, AdmissionStats, FairQueue};
pub use cache::{CacheStats, GovernorConfig, GovernorStats};
pub use health::{DrainReport, HealthConfig};
pub use server::{
    CacheOutcome, Fault, FrameHandle, FrameRequest, FrameResult, RenderServer, ServeError,
    ServeStats, ServerConfig, ShardId,
};
pub use session::{
    CoherenceConfig, DeadlineClass, ResolutionTier, SceneState, SessionConfig, SessionId,
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

/// `base · 2^(n−1)`, capped at `cap` — the backoff before retry or
/// restart `n` (1-based; `n ≤ 1` waits `base`).
pub(crate) fn doubling_backoff(base: Duration, cap: Duration, n: u32) -> Duration {
    let factor = 1u32 << n.saturating_sub(1).min(16);
    base.saturating_mul(factor).min(cap)
}

/// Blocks on `cv` until `done` holds of the guarded state or `until`
/// passes (`None`: no bound, for a wait too long to add to an instant)
/// — the wait behind a handle, `drain` and `remove_session`, which are
/// woken by the transition they wait for instead of polling for it.
/// Returns the guard and whether `done` held.
pub(crate) fn wait_until<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    until: Option<Instant>,
    done: impl Fn(&T) -> bool,
) -> (MutexGuard<'a, T>, bool) {
    loop {
        if done(&guard) {
            return (guard, true);
        }
        guard = match until {
            None => wait(cv, guard),
            Some(until) => {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return (guard, false);
                }
                wait_timeout(cv, guard, left)
            }
        };
    }
}
