//! One shard: a scheduler thread owning a scene's request queue, a
//! private render pool, and the fused batch execution path.
//!
//! The server routes every session of a scene to one shard (see
//! [`registry`](crate::registry)); the shard thread drains its bounded
//! queue through a [`FairQueue`] — class priority, round-robin across
//! sessions, FIFO per session — carves the largest batch of frames
//! that can legally share one fused render (same scene `Arc`, same
//! strategy, at most one frame of any cache-enabled session), and runs
//! it on the shard's own [`Pool`] slice of the server's thread budget.
//! A panic inside a render fails that batch's handles and leaves the
//! shard serving; nothing a frame does can take the server down.
//!
//! Supervision (PR 7) hardens the loop: every queued frame carries a
//! watchdog registration, a wall-clock deadline, and its scene's
//! circuit breaker. A render batch runs under a shared [`CancelToken`]
//! the watchdog fires when any batch member blows its budget — the
//! render unwinds cooperatively at the next chunk boundary (releasing
//! the Pool slice a `Fault::Stall` used to park forever) and the
//! surviving frames are re-rendered solo under the shard's
//! [`RetryPolicy`], bitwise identical to a clean render. Every frame's
//! final outcome (success, failure, timeout) is recorded into its
//! scene's breaker so repeated failures open the circuit at admission.
//!
//! Output integrity (PR 8) closes the next gap: batches render through
//! the pipeline's fallible API, so a GEMM checksum miscompare or a
//! tripped stage sentinel fails the batch with
//! [`RenderError::Corrupt`] *before* any pixel is published. A corrupt
//! batch is treated exactly like a transient panic — every member
//! re-renders solo under the retry policy, and the scene's breaker
//! sees the failure. Repeated GEMM miscompares while a SIMD kernel
//! backend is active quarantine that backend process-wide
//! ([`integrity::quarantine`]): all further math falls back to the
//! scalar kernels, which are bitwise-identical by the dispatch
//! contract. Cache anchors are digest-checked at import; a corrupted
//! anchor is discarded and counted as a miss instead of seeding a
//! fresh render with poisoned weights.
//!
//! Self-healing (this PR) makes the scheduler thread itself
//! replaceable. The queue moved out of the thread into a shared
//! control block ([`ShardCtl`]): the worker *incarnation* popping from
//! it publishes a [`Heartbeat`] on every wakeup and batch boundary,
//! and the supervisor's health sweep ([`Shard::sweep`]) classifies the
//! shard Healthy / Wedged / Dead. A condemned incarnation is
//! invalidated (the incarnation counter in the queue state bumps, so
//! the old loop exits at its next queue observation instead of racing
//! its replacement), its in-flight batch is cancelled, queued frames
//! are requeued FIFO-preserving, and a fresh worker spawns under an
//! exponential per-shard restart budget. Past the budget the shard is
//! declared down: queued frames fail with
//! [`ServeError::ShardDown`](crate::ServeError::ShardDown) and further
//! submissions shed at admission. Session caches live in
//! [`SessionState`], not in the worker, so they survive restarts; the
//! worker's coarse-anchor inserts are charged against the server's
//! process-wide [`MemoryGovernor`] *before* insertion, so the global
//! byte budget holds even across a restart storm re-anchoring caches.

use crate::admission::{AdmissionStats, FairQueue};
use crate::governor::MemoryGovernor;
use crate::health::{CondemnReason, HealthConfig, Heartbeat, ShardHealth, ShardHealthStats};
use crate::server::{
    fulfill, fulfill_error, CacheOutcome, Fault, FrameResult, ServeError, ServeStats, Slot,
};
use crate::session::{
    coarse_entry_cost, CacheEntry, DeadlineClass, PendingGuard, ResolutionTier, SessionMap,
    SessionState,
};
use crate::supervisor::{CircuitBreaker, RetryPolicy, Supervisor};
use gen_nerf::config::SamplingStrategy;
use gen_nerf::pipeline::{self, CoarseFrame, RenderError, RenderStats, Renderer};
use gen_nerf_geometry::{Camera, Pose};
use gen_nerf_nn::kernels::{self, integrity, Backend};
use gen_nerf_parallel::{CancelToken, Pool};
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{
    Counter, EventKind, Gauge, Histogram, ResolveOutcome, TraceRing, DEFAULT_RING_CAPACITY,
};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fixed per-worker arena reservation charged against the process-wide
/// memory governor when a shard spawns: the render worker's scratch,
/// which the tile schedule bounds whatever the frame size or batch
/// ([`pipeline::WORKER_SCRATCH_BYTES`], pinned by a unit test there).
/// Reserved once per shard (not per incarnation — a respawned worker
/// reuses the same slice of the budget).
pub(crate) const ARENA_BYTES_PER_WORKER: u64 = pipeline::WORKER_SCRATCH_BYTES as u64;

/// One admitted frame travelling from `submit` to its shard.
pub(crate) struct QueuedFrame {
    /// Frame-trace id ([`gen_nerf_telemetry::next_frame_id`]) — keys
    /// every [`gen_nerf_telemetry::TraceEvent`] of this frame's life.
    pub frame: u64,
    pub session: u64,
    pub pose: Pose,
    /// Tier actually rendered (admission may have degraded it).
    pub tier: ResolutionTier,
    pub deadline: DeadlineClass,
    /// Whether admission lowered the tier below the request.
    pub degraded: bool,
    pub reuse: Option<Image>,
    pub fault: Option<Fault>,
    pub slot: Arc<Slot>,
    pub submitted: Instant,
    /// Wall-clock instant past which the watchdog resolves the handle
    /// with `TimedOut`; retries are never scheduled beyond it.
    pub deadline_at: Instant,
    /// This frame's registration with the server's [`Supervisor`].
    pub watch: u64,
    /// Whether the scene's circuit breaker admitted this frame as a
    /// HalfOpen probe (its outcome decides Closed vs back to Open).
    pub probe: bool,
    /// The scene's breaker — carried on the frame so outcome recording
    /// and probe-quota accounting survive session removal.
    pub breaker: Arc<CircuitBreaker>,
    /// RAII claim on the session's pending-frame counter: dropped
    /// wherever the frame is — resolved, failed, requeued-then-settled
    /// — so `remove_session` can wait for true quiescence. Never read;
    /// its `Drop` is the point.
    #[allow(dead_code)]
    pub pending: PendingGuard,
}

/// The queue half of a shard's shared control block, under one lock:
/// the fair queue itself, the close latch, and the worker incarnation
/// counter that invalidates condemned loops.
pub(crate) struct QueueState {
    pub q: FairQueue<QueuedFrame>,
    /// Set at shutdown: the worker drains what is queued and exits.
    pub closed: bool,
    /// Bumped by every condemnation. A worker loop captures the value
    /// it was spawned at and exits as soon as the shared value moved —
    /// the fence that keeps a condemned incarnation from racing its
    /// replacement for the queue.
    pub incarnation: u64,
}

/// A shard's shared control block: everything the server front end,
/// the health sweep, and the worker incarnation(s) coordinate through.
/// Lives in an `Arc` so a restart replaces the thread, never the
/// state.
pub(crate) struct ShardCtl {
    pub queue: Mutex<QueueState>,
    /// Signals the worker: new frame, close, or incarnation bump.
    pub ready: Condvar,
    /// The worker's progress beacon the health sweep reads.
    pub heartbeat: Heartbeat,
    /// Frames popped from the queue and not yet settled by the current
    /// batch (the sweep's "work pending" signal alongside queue depth).
    pub inflight: AtomicU64,
    /// Consecutive render attempts that panicked or failed integrity;
    /// cleared by any clean render. Crossing
    /// [`HealthConfig::pool_respawn_after`] respawns the pool workers
    /// in place; crossing [`HealthConfig::pool_condemn_after`]
    /// condemns the whole shard.
    pub poison_streak: AtomicU32,
    /// Latched when the restart budget is exhausted: submissions shed
    /// with [`ServeError::ShardDown`], queued frames fail.
    pub down: AtomicBool,
    /// The cancel token of the batch currently rendering, for the
    /// sweep (condemnation) and `drain` to fire from outside the
    /// worker thread.
    pub current_cancel: Mutex<Option<CancelToken>>,
    /// The server's process-wide memory governor (anchor inserts are
    /// charged before insertion).
    pub governor: Arc<MemoryGovernor>,
}

impl ShardCtl {
    /// Frames admitted and still waiting in the queue.
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).q.len()
    }

    /// Publishes worker progress (and counts the beat).
    fn beat(&self, shared: &ShardShared, now: Instant) {
        self.heartbeat.beat(now);
        shared.heartbeats.inc();
    }
}

/// Counters and gauges shared between a shard's thread and the server
/// front end (admission reads the depth gauge, tests read the rest).
///
/// Every handle is a metric in the process-global telemetry registry,
/// labelled `{instance, shard}` — the same atomics back both the
/// exact-count stats views (read through the handles) and any snapshot
/// fold, so there is no parallel bookkeeping to drift.
pub(crate) struct ShardShared {
    /// Frames admitted but not yet pulled into a render batch
    /// (`serve_queue_depth`; SeqCst, the admission policy reads it).
    pub depth: Gauge,
    /// Every frame that entered `submit` for this shard, whatever its
    /// fate (`serve_frames_submitted_total`).
    pub submitted: Counter,
    pub admitted: Counter,
    pub degraded: Counter,
    pub shed_best_effort: Counter,
    pub shed_interactive: Counter,
    /// Frames shed at submission because the scene's breaker was open.
    pub shed_circuit: Counter,
    /// Frames shed at submission because the server was draining.
    pub shed_draining: Counter,
    /// Frames shed at submission because this shard exhausted its
    /// restart budget and was declared down.
    pub shed_shard_down: Counter,
    /// BestEffort frames shed at submission by the memory governor's
    /// pressure hook.
    pub shed_memory: Counter,
    /// Frames whose handle resolved successfully.
    pub rendered: Counter,
    /// Frames whose handle resolved with an error (render panic or
    /// vanished session).
    pub failed: Counter,
    /// Individual re-render attempts after a transient failure.
    pub retries: Counter,
    /// Fused render jobs executed.
    pub batches: Counter,
    /// Render attempts that failed integrity verification (GEMM
    /// checksum miscompare or a tripped stage sentinel) and were never
    /// published.
    pub corrupt: Counter,
    /// Times this shard latched the process-wide kernel quarantine
    /// (repeated SIMD miscompares demoting to the scalar backend).
    pub quarantined: Counter,
    /// Heartbeats published by this shard's worker
    /// (`serve_heartbeats_total`).
    pub heartbeats: Counter,
    /// Worker restarts performed (`serve_shard_restarts_total`).
    pub restarts: Counter,
    /// Condemnations by reason
    /// (`serve_shard_condemned_total{reason}`).
    pub condemned_wedged: Counter,
    pub condemned_dead: Counter,
    pub condemned_poisoned: Counter,
    /// Frames put back in the queue across a restart or a shard-level
    /// fault (`serve_requeued_frames_total`).
    pub requeued: Counter,
    /// Frames force-failed at a drain deadline
    /// (`serve_drain_forced_total`).
    pub drain_forced: Counter,
    /// Submit→resolve latency of successfully rendered frames, per
    /// deadline class (`serve_latency_ns`).
    pub latency_interactive: Histogram,
    pub latency_best_effort: Histogram,
    /// Coarse-cache outcomes served by this shard
    /// (`serve_cache_events_total{outcome}`) — the instance-level view
    /// of the per-session [`CacheStats`](crate::CacheStats) counters.
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_bypasses: Counter,
    pub cache_evictions: Counter,
    pub cache_rejects: Counter,
    /// This shard's frame-lifecycle event ring.
    pub ring: Arc<TraceRing>,
}

impl ShardShared {
    /// Registers this shard's metric set under `{instance, shard}`.
    pub(crate) fn new(instance: u64, shard: usize) -> Self {
        let inst = instance.to_string();
        let idx = shard.to_string();
        let labels: [(&'static str, &str); 2] = [("instance", &inst), ("shard", &idx)];
        let counter = |name: &'static str| gen_nerf_telemetry::counter(name, &labels);
        let shed = |reason: &str| {
            gen_nerf_telemetry::counter(
                "serve_frames_shed_total",
                &[("instance", &inst), ("shard", &idx), ("reason", reason)],
            )
        };
        let condemned = |reason: &str| {
            gen_nerf_telemetry::counter(
                "serve_shard_condemned_total",
                &[("instance", &inst), ("shard", &idx), ("reason", reason)],
            )
        };
        let latency = |class: &str| {
            gen_nerf_telemetry::histogram(
                "serve_latency_ns",
                &[("instance", &inst), ("shard", &idx), ("class", class)],
            )
        };
        let cache = |outcome: &str| {
            gen_nerf_telemetry::counter(
                "serve_cache_events_total",
                &[("instance", &inst), ("shard", &idx), ("outcome", outcome)],
            )
        };
        Self {
            depth: gen_nerf_telemetry::gauge("serve_queue_depth", &labels),
            submitted: counter("serve_frames_submitted_total"),
            admitted: counter("serve_frames_admitted_total"),
            degraded: counter("serve_frames_degraded_total"),
            shed_best_effort: shed("best_effort"),
            shed_interactive: shed("interactive"),
            shed_circuit: shed("circuit"),
            shed_draining: shed("draining"),
            shed_shard_down: shed("shard_down"),
            shed_memory: shed("memory"),
            rendered: counter("serve_frames_rendered_total"),
            failed: counter("serve_frames_failed_total"),
            retries: counter("serve_retries_total"),
            batches: counter("serve_batches_total"),
            corrupt: counter("serve_corrupt_renders_total"),
            quarantined: counter("serve_quarantine_events_total"),
            heartbeats: counter("serve_heartbeats_total"),
            restarts: counter("serve_shard_restarts_total"),
            condemned_wedged: condemned("wedged"),
            condemned_dead: condemned("dead"),
            condemned_poisoned: condemned("poisoned"),
            requeued: counter("serve_requeued_frames_total"),
            drain_forced: counter("serve_drain_forced_total"),
            latency_interactive: latency("interactive"),
            latency_best_effort: latency("best_effort"),
            cache_hits: cache("hit"),
            cache_misses: cache("miss"),
            cache_bypasses: cache("bypass"),
            cache_evictions: cache("eviction"),
            cache_rejects: cache("integrity_reject"),
            ring: Arc::new(TraceRing::new(DEFAULT_RING_CAPACITY)),
        }
    }

    pub(crate) fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.get(),
            degraded: self.degraded.get(),
            shed_best_effort: self.shed_best_effort.get(),
            shed_interactive: self.shed_interactive.get(),
            shed_circuit: self.shed_circuit.get(),
        }
    }

    /// The latency histogram of `class`.
    fn latency(&self, class: DeadlineClass) -> Histogram {
        match class {
            DeadlineClass::Interactive => self.latency_interactive,
            DeadlineClass::BestEffort => self.latency_best_effort,
        }
    }
}

/// A point-in-time snapshot of one shard's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames admitted and still waiting in the shard queue.
    pub queued: usize,
    /// Admission counters (admitted / degraded / shed).
    pub admission: AdmissionStats,
    /// Frames rendered to completion.
    pub rendered_frames: u64,
    /// Frames resolved with an error.
    pub failed_frames: u64,
    /// Individual re-render attempts after a transient failure (panic,
    /// pool poison, or a batch-mate's timeout cancelling the batch).
    pub retries: u64,
    /// Fused render jobs executed (`rendered_frames / batches` is the
    /// shard's average batch occupancy).
    pub batches: u64,
    /// Render attempts caught by the integrity machinery (ABFT GEMM
    /// checksum or a stage sentinel) before any pixel was published.
    /// Each detection feeds the retry path, so a transient corruption
    /// shows up here *and* in `retries`, not in `failed_frames`.
    pub corrupt_renders: u64,
    /// Times this shard tripped the process-wide kernel quarantine,
    /// demoting the active SIMD backend to scalar for good.
    pub quarantine_events: u64,
    /// Persistent render workers owned by this shard.
    pub pool_threads: usize,
}

/// The server's handle on one shard: the shared control block, shared
/// counters, the live worker incarnation, and the restart ledger the
/// health sweep mutates.
pub(crate) struct Shard {
    pub shared: Arc<ShardShared>,
    pub ctl: Arc<ShardCtl>,
    pub pool_threads: usize,
    index: usize,
    max_batch: usize,
    retry: RetryPolicy,
    health: HealthConfig,
    sessions: SessionMap,
    supervisor: Arc<Supervisor>,
    /// The current worker incarnation's thread.
    worker: Option<std::thread::JoinHandle<()>>,
    /// Condemned-but-unfinished incarnations (e.g. wedged in an
    /// uncancellable sleep). Joined at shutdown *before* the live
    /// worker, so a late requeue still lands in a served queue.
    graveyard: Vec<std::thread::JoinHandle<()>>,
    /// Lifetime restart count.
    restarts: u64,
    /// Restarts since the last successfully rendered frame.
    consecutive_restarts: u32,
    /// `rendered` counter at the last condemnation — progress beyond
    /// it proves the restart took and resets the give-up counter.
    rendered_at_condemn: u64,
    /// When the pending (backed-off) respawn is due.
    respawn_at: Option<Instant>,
}

impl Shard {
    /// Spawns shard `index` of server `instance` with `pool_threads`
    /// render workers, reporting frame lifecycles to `supervisor`,
    /// re-rendering transient failures under `retry`, and healing
    /// under `health`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        instance: u64,
        index: usize,
        pool_threads: usize,
        max_batch: usize,
        sessions: SessionMap,
        supervisor: Arc<Supervisor>,
        retry: RetryPolicy,
        health: HealthConfig,
        governor: Arc<MemoryGovernor>,
    ) -> Self {
        let shared = Arc::new(ShardShared::new(instance, index));
        let now = supervisor.clock().now();
        let ctl = Arc::new(ShardCtl {
            queue: Mutex::new(QueueState {
                q: FairQueue::new(),
                closed: false,
                incarnation: 0,
            }),
            ready: Condvar::new(),
            heartbeat: Heartbeat::new(now),
            inflight: AtomicU64::new(0),
            poison_streak: AtomicU32::new(0),
            down: AtomicBool::new(false),
            current_cancel: Mutex::new(None),
            governor,
        });
        // Born alive: the first sweep must not find a zero-aged shard
        // stale.
        ctl.beat(&shared, now);
        ctl.governor
            .reserve(pool_threads.max(1) as u64 * ARENA_BYTES_PER_WORKER);
        let worker = Self::spawn_worker(
            index,
            0,
            &ctl,
            &sessions,
            &shared,
            pool_threads,
            max_batch,
            &supervisor,
            retry,
            health,
        );
        Self {
            shared,
            ctl,
            pool_threads,
            index,
            max_batch,
            retry,
            health,
            sessions,
            supervisor,
            worker: Some(worker),
            graveyard: Vec::new(),
            restarts: 0,
            consecutive_restarts: 0,
            rendered_at_condemn: 0,
            respawn_at: None,
        }
    }

    /// Spawns one worker incarnation bound to `incarnation`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_worker(
        index: usize,
        incarnation: u64,
        ctl: &Arc<ShardCtl>,
        sessions: &SessionMap,
        shared: &Arc<ShardShared>,
        pool_threads: usize,
        max_batch: usize,
        supervisor: &Arc<Supervisor>,
        retry: RetryPolicy,
        health: HealthConfig,
    ) -> std::thread::JoinHandle<()> {
        let ctl = Arc::clone(ctl);
        let sessions = Arc::clone(sessions);
        let shared = Arc::clone(shared);
        let supervisor = Arc::clone(supervisor);
        std::thread::Builder::new()
            .name(format!("gen-nerf-shard-{index}-i{incarnation}"))
            .spawn(move || {
                shard_loop(
                    index,
                    incarnation,
                    ctl,
                    sessions,
                    shared,
                    pool_threads,
                    max_batch,
                    supervisor,
                    retry,
                    health,
                )
            })
            .expect("spawn shard thread")
    }

    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            queued: self.shared.depth.get().max(0) as usize,
            admission: self.shared.admission_stats(),
            rendered_frames: self.shared.rendered.get(),
            failed_frames: self.shared.failed.get(),
            retries: self.shared.retries.get(),
            batches: self.shared.batches.get(),
            corrupt_renders: self.shared.corrupt.get(),
            quarantine_events: self.shared.quarantined.get(),
            pool_threads: self.pool_threads,
        }
    }

    /// One pass of the health sweep, on the supervisor's clock. Runs
    /// on the watchdog thread, under the server's topology lock.
    pub(crate) fn sweep(&mut self, now: Instant) {
        if self.ctl.down.load(Ordering::Relaxed) {
            // Down for good — but a wedged old incarnation may still
            // requeue its frame after the give-up drain; fail such
            // stragglers instead of stranding them.
            if self.ctl.queued() > 0 {
                self.fail_queue_shard_down(now);
            }
            return;
        }
        // Any rendered frame since the last condemnation proves the
        // current incarnation makes progress: give-up counter resets.
        if self.consecutive_restarts > 0 && self.shared.rendered.get() > self.rendered_at_condemn {
            self.consecutive_restarts = 0;
        }
        if let Some(at) = self.respawn_at {
            // Condemned, backing off: no fresh verdicts until the
            // replacement is running.
            if now >= at {
                self.respawn_at = None;
                self.respawn(now);
            }
            return;
        }
        if let Some(reason) = self.verdict(now) {
            self.condemn(reason, now);
        }
    }

    /// Classifies the live worker at `now`.
    fn verdict(&self, now: Instant) -> Option<CondemnReason> {
        let (queued, closed) = {
            let qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            (qs.q.len(), qs.closed)
        };
        if !closed {
            if let Some(worker) = &self.worker {
                if worker.is_finished() {
                    return Some(CondemnReason::Dead);
                }
            }
        }
        if self.ctl.poison_streak.load(Ordering::Relaxed) >= self.health.pool_condemn_after {
            return Some(CondemnReason::Poisoned);
        }
        let busy = queued > 0 || self.ctl.inflight.load(Ordering::SeqCst) > 0;
        if busy && self.ctl.heartbeat.age(now) > self.health.heartbeat_budget {
            return Some(CondemnReason::Wedged);
        }
        None
    }

    /// Tears the live incarnation down: invalidates it, cancels its
    /// in-flight batch, and schedules (or gives up on) a respawn.
    fn condemn(&mut self, reason: CondemnReason, now: Instant) {
        match reason {
            CondemnReason::Wedged => self.shared.condemned_wedged.inc(),
            CondemnReason::Dead => self.shared.condemned_dead.inc(),
            CondemnReason::Poisoned => self.shared.condemned_poisoned.inc(),
        };
        self.shared
            .ring
            .record(0, EventKind::Condemn, self.index as u64, reason.code());
        {
            let mut qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            qs.incarnation += 1;
        }
        self.ctl.ready.notify_all();
        // Unwind whatever the condemned incarnation is rendering; a
        // truly wedged one ignores this, which is why it goes to the
        // graveyard instead of being joined here.
        if let Some(cancel) = self
            .ctl
            .current_cancel
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            cancel.cancel();
        }
        if let Some(worker) = self.worker.take() {
            if worker.is_finished() {
                let _ = worker.join();
            } else {
                self.graveyard.push(worker);
            }
        }
        self.ctl.poison_streak.store(0, Ordering::Relaxed);
        self.consecutive_restarts += 1;
        self.rendered_at_condemn = self.shared.rendered.get();
        if self.consecutive_restarts > self.health.max_restarts {
            self.give_up(now);
        } else {
            self.respawn_at = Some(now + self.health.backoff_for(self.consecutive_restarts));
        }
    }

    /// Restart budget exhausted: latch down, fail everything queued.
    fn give_up(&mut self, now: Instant) {
        self.ctl.down.store(true, Ordering::Relaxed);
        self.fail_queue_shard_down(now);
    }

    /// Fails every queued frame with [`ServeError::ShardDown`],
    /// recording each outcome into its scene's breaker.
    fn fail_queue_shard_down(&self, now: Instant) {
        let drained = {
            let mut qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            qs.q.drain()
        };
        for (_, _, frame) in drained {
            self.shared.depth.dec();
            frame.breaker.record(false, frame.probe, now);
            fail_frame_with(&frame, &self.shared, ServeError::ShardDown);
            self.supervisor.resolve(frame.watch);
        }
    }

    /// Spawns the replacement incarnation: requeues what is queued
    /// (FIFO per lane, tenant ring preserved), grants a fresh
    /// heartbeat grace period, and starts the worker.
    fn respawn(&mut self, now: Instant) {
        let incarnation = {
            let mut qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            let held = qs.q.drain();
            for (position, (class, tenant, frame)) in held.into_iter().enumerate() {
                self.shared.requeued.inc();
                self.shared.ring.record(
                    frame.frame,
                    EventKind::Requeue,
                    self.index as u64,
                    position as u64,
                );
                qs.q.push(class, tenant, frame);
            }
            qs.incarnation
        };
        // The new worker must not be born already past the heartbeat
        // budget.
        self.ctl.beat(&self.shared, now);
        self.restarts += 1;
        self.shared.restarts.inc();
        self.shared
            .ring
            .record(0, EventKind::Restart, self.index as u64, incarnation);
        self.worker = Some(Self::spawn_worker(
            self.index,
            incarnation,
            &self.ctl,
            &self.sessions,
            &self.shared,
            self.pool_threads,
            self.max_batch,
            &self.supervisor,
            self.retry,
            self.health,
        ));
        self.ctl.ready.notify_all();
    }

    /// This shard's lifecycle counters and current health verdict.
    pub(crate) fn health_stats(&self, now: Instant) -> ShardHealthStats {
        let down = self.ctl.down.load(Ordering::Relaxed);
        let health = if down {
            ShardHealth::Dead
        } else if self.respawn_at.is_some() {
            // Condemned, between incarnations.
            ShardHealth::Dead
        } else {
            match self.verdict(now) {
                None => ShardHealth::Healthy,
                Some(CondemnReason::Dead) => ShardHealth::Dead,
                Some(CondemnReason::Wedged) | Some(CondemnReason::Poisoned) => ShardHealth::Wedged,
            }
        };
        let incarnation = self
            .ctl
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .incarnation;
        ShardHealthStats {
            shard: self.index,
            incarnation,
            restarts: self.restarts,
            consecutive_restarts: self.consecutive_restarts,
            down,
            heartbeat_epoch: self.ctl.heartbeat.epoch(),
            health,
        }
    }

    /// Closes the queue (the worker drains, then exits) and joins
    /// every incarnation; frames no incarnation will ever serve (down
    /// shard, late requeues) are failed.
    pub(crate) fn shutdown(&mut self) {
        {
            let mut qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            qs.closed = true;
        }
        self.ctl.ready.notify_all();
        // Graveyard first: a wedged incarnation finishes its sleep and
        // requeues its frame; the live worker (joined next) may still
        // serve it, and the leftover pass below catches the rest.
        for handle in self.graveyard.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        let leftovers = {
            let mut qs = self.ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            qs.q.drain()
        };
        for (_, _, frame) in leftovers {
            self.shared.depth.dec();
            fail_frame(&frame, &self.shared, "server shut down with frames queued");
            release_unrendered(&frame, &self.supervisor);
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cumulative GEMM-checksum miscompares observed under a SIMD backend,
/// across every shard in the process. The counter is process-wide on
/// purpose: quarantine is a verdict about the *hardware/kernel* pair,
/// not about any one scene's queue.
static SIMD_MISCOMPARES: AtomicU32 = AtomicU32::new(0);

/// Miscompares under a SIMD backend tolerated before that backend is
/// quarantined process-wide. One miscompare can be a stray bit flip;
/// a repeat offender is a broken unit.
const QUARANTINE_AFTER: u32 = 3;

/// Books one corrupt render attempt and applies the quarantine policy:
/// a GEMM-stage miscompare while a non-scalar backend is active counts
/// a strike against that backend, and strike `QUARANTINE_AFTER` latches
/// the process-wide quarantine (`kernels` demotes to scalar, sticky).
/// Sentinel trips never strike — a non-finite pixel indicts the math
/// upstream, not the SIMD unit specifically.
fn note_corrupt_render(err: &RenderError, shared: &ShardShared) {
    shared.corrupt.inc();
    let RenderError::Corrupt { stage, detail } = err;
    if *stage != "gemm" {
        return;
    }
    let backend = kernels::active_backend();
    if backend == Backend::Scalar {
        return;
    }
    let strikes = SIMD_MISCOMPARES.fetch_add(1, Ordering::Relaxed) + 1;
    if strikes >= QUARANTINE_AFTER && integrity::quarantine(backend) {
        shared.quarantined.inc();
        eprintln!(
            "gen-nerf-serve: quarantined kernel backend {backend:?} after \
             {strikes} GEMM miscompares (last: {detail}); serving on scalar"
        );
    }
}

/// Nanoseconds elapsed since `since`, saturating (trace payloads).
fn ns_since(since: Instant) -> u64 {
    Instant::now().saturating_duration_since(since).as_nanos() as u64
}

/// Fails a frame's handle with `err`, keeping the counter and the
/// terminal trace event consistent with the first-write-wins fulfil:
/// the counter and the `Resolve` event book only when this call's
/// write is the resolving one.
pub(crate) fn fail_frame_with(frame: &QueuedFrame, shared: &ShardShared, err: ServeError) {
    shared.failed.inc();
    if fulfill(&frame.slot, Err(err)) {
        shared.ring.record(
            frame.frame,
            EventKind::Resolve,
            ResolveOutcome::Failed as u64,
            ns_since(frame.submitted),
        );
    } else {
        shared.failed.sub(1);
    }
}

/// [`fail_frame_with`] for plain message failures.
fn fail_frame(frame: &QueuedFrame, shared: &ShardShared, msg: &str) {
    shared.failed.inc();
    if fulfill_error(&frame.slot, msg) {
        shared.ring.record(
            frame.frame,
            EventKind::Resolve,
            ResolveOutcome::Failed as u64,
            ns_since(frame.submitted),
        );
    } else {
        shared.failed.sub(1);
    }
}

fn resolve(sessions: &SessionMap, id: u64) -> Option<Arc<SessionState>> {
    sessions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&id)
        .cloned()
}

/// Whether the coherence cache constrains batching for `state` (at
/// most one of its frames per fused job, so in-order cache updates are
/// a guarantee rather than a race).
fn cache_applies(state: &SessionState) -> bool {
    state.cfg.coherence.enabled
        && matches!(state.cfg.strategy, SamplingStrategy::CoarseThenFocus { .. })
}

/// Releases a frame that will never render: returns its breaker-probe
/// quota slot (if it held one) and detaches its watchdog registration.
/// Deliberately records **no** breaker outcome — a frame that timed
/// out while still queued, or whose session vanished, says nothing
/// about the scene's health.
pub(crate) fn release_unrendered(frame: &QueuedFrame, supervisor: &Supervisor) {
    if frame.probe {
        frame.breaker.abort_probe();
    }
    supervisor.resolve(frame.watch);
}

/// Force-fails everything queued on `ctl` with
/// [`ServeError::Draining`] — the deadline half of
/// [`RenderServer::drain`](crate::RenderServer::drain). Returns how
/// many frames were forced.
pub(crate) fn force_drain(ctl: &ShardCtl, shared: &ShardShared, supervisor: &Supervisor) -> u64 {
    let drained = {
        let mut qs = ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
        qs.q.drain()
    };
    let mut forced = 0u64;
    for (_, _, frame) in drained {
        shared.depth.dec();
        shared.drain_forced.inc();
        fail_frame_with(&frame, shared, ServeError::Draining);
        release_unrendered(&frame, supervisor);
        forced += 1;
    }
    forced
}

/// Requeues a popped-but-unexecuted head at the **front** of its lane
/// (FIFO preserved) — the hand-back a condemned or killed incarnation
/// uses so its frame is re-served, not lost.
fn requeue_head(frame: QueuedFrame, index: usize, ctl: &ShardCtl, shared: &ShardShared) {
    shared.requeued.inc();
    shared
        .ring
        .record(frame.frame, EventKind::Requeue, index as u64, 0);
    {
        let mut qs = ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
        shared.depth.inc();
        qs.q.push_front(frame.deadline, frame.session, frame);
    }
    ctl.ready.notify_one();
}

/// The shard event loop, one *incarnation* of it: block on the shared
/// queue, dequeue the policy-ordered head, grow the largest compatible
/// batch around it, render, repeat — publishing a heartbeat at every
/// step. Exits when the queue closes and empties, or the moment the
/// shared incarnation counter moves past the one this loop was spawned
/// at (a condemnation installed a replacement).
#[allow(clippy::too_many_arguments)]
fn shard_loop(
    index: usize,
    incarnation: u64,
    ctl: Arc<ShardCtl>,
    sessions: SessionMap,
    shared: Arc<ShardShared>,
    pool_threads: usize,
    max_batch: usize,
    supervisor: Arc<Supervisor>,
    retry: RetryPolicy,
    health: HealthConfig,
) {
    let mut pool = Pool::new(pool_threads.max(1));
    let max_batch = max_batch.max(1);
    let mut last_pool_respawn_streak = 0u32;
    loop {
        // Blocking pop under the shared queue lock; every wakeup beats
        // so an idle shard's heartbeat stays fresh.
        let mut head = {
            let mut qs = ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if qs.incarnation != incarnation {
                    return;
                }
                if let Some(frame) = qs.q.pop() {
                    break frame;
                }
                if qs.closed {
                    return;
                }
                ctl.beat(&shared, supervisor.clock().now());
                qs = ctl
                    .ready
                    .wait_timeout(qs, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        ctl.inflight.fetch_add(1, Ordering::SeqCst);
        ctl.beat(&shared, supervisor.clock().now());
        shared.depth.dec();
        shared.ring.record(
            head.frame,
            EventKind::Pop,
            ns_since(head.submitted),
            shared.depth.get().max(0) as u64,
        );

        // Shard-level chaos faults fire here, between pop and render —
        // where a real scheduler-thread defect would. Both are
        // one-shot (cleared before the requeue) so the re-served frame
        // renders normally, and both hand the frame back first so no
        // frame is ever lost to the fault.
        if let Some(fault) = head.fault {
            if fault.is_shard_level() {
                head.fault = None;
                match fault {
                    Fault::KillShard => {
                        requeue_head(head, index, &ctl, &shared);
                        ctl.inflight.fetch_sub(1, Ordering::SeqCst);
                        // Clean exit with the queue open: the sweep
                        // finds the JoinHandle finished → Dead.
                        return;
                    }
                    Fault::WedgeShard(stall) => {
                        // Uncancellable on purpose — the heartbeat
                        // goes stale while `inflight` holds the shard
                        // busy, which is exactly the Wedged signature.
                        std::thread::sleep(stall);
                        requeue_head(head, index, &ctl, &shared);
                        ctl.inflight.fetch_sub(1, Ordering::SeqCst);
                        // If the sweep condemned us during the sleep,
                        // the incarnation check at the top exits.
                        continue;
                    }
                    _ => unreachable!("is_shard_level covers exactly these"),
                }
            }
        }
        if head.slot.is_resolved() {
            // Timed out while still queued (the watchdog already
            // resolved the handle): skip the render entirely.
            release_unrendered(&head, &supervisor);
            ctl.inflight.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let Some(head_state) = resolve(&sessions, head.session) else {
            fail_frame(&head, &shared, "session removed with frames queued");
            release_unrendered(&head, &supervisor);
            ctl.inflight.fetch_sub(1, Ordering::SeqCst);
            continue;
        };

        // Grow the batch: only lane heads compatible with the batch
        // head ride along (dead sessions and already-resolved frames
        // are popped so they don't park their lane forever; frames
        // carrying a shard-level fault wait to become head so the
        // fault fires against a lone frame).
        let mut cache_sessions: Vec<u64> = Vec::new();
        if cache_applies(&head_state) {
            cache_sessions.push(head.session);
        }
        let mut group: Vec<(QueuedFrame, Arc<SessionState>)> = vec![(head, head_state)];
        while group.len() < max_batch {
            let head_scene = Arc::clone(&group[0].1.scene);
            let head_strategy = group[0].1.cfg.strategy;
            let candidate = {
                let mut qs = ctl.queue.lock().unwrap_or_else(|e| e.into_inner());
                qs.q.pop_next(|frame| {
                    if frame.fault.is_some_and(|f| f.is_shard_level()) {
                        return false;
                    }
                    if frame.slot.is_resolved() {
                        return true;
                    }
                    match resolve(&sessions, frame.session) {
                        // Pop dead-session frames so they fail instead
                        // of parking their lane forever.
                        None => true,
                        Some(state) => {
                            Arc::ptr_eq(&state.scene, &head_scene)
                                && state.cfg.strategy == head_strategy
                                && !(cache_applies(&state)
                                    && cache_sessions.contains(&frame.session))
                        }
                    }
                })
            };
            let Some(frame) = candidate else { break };
            ctl.inflight.fetch_add(1, Ordering::SeqCst);
            shared.depth.dec();
            shared.ring.record(
                frame.frame,
                EventKind::Pop,
                ns_since(frame.submitted),
                shared.depth.get().max(0) as u64,
            );
            if frame.slot.is_resolved() {
                release_unrendered(&frame, &supervisor);
                ctl.inflight.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            match resolve(&sessions, frame.session) {
                None => {
                    fail_frame(&frame, &shared, "session removed with frames queued");
                    release_unrendered(&frame, &supervisor);
                    ctl.inflight.fetch_sub(1, Ordering::SeqCst);
                }
                Some(state) => {
                    if cache_applies(&state) {
                        cache_sessions.push(frame.session);
                    }
                    group.push((frame, state));
                }
            }
        }
        let group_len = group.len() as u64;
        execute_group(index, &pool, group, &shared, &ctl, &supervisor, retry);
        ctl.inflight.fetch_sub(group_len, Ordering::SeqCst);
        ctl.beat(&shared, supervisor.clock().now());

        // Pool-poison escalation: a streak of panicked attempts at the
        // respawn threshold replaces the pool's worker crew in place —
        // the cheap reclaim for a sick pool. The streak keeps counting
        // (only a clean render clears it); if respawning didn't help,
        // the sweep condemns the whole shard at `pool_condemn_after`.
        let streak = ctl.poison_streak.load(Ordering::Relaxed);
        if streak >= health.pool_respawn_after
            && streak != last_pool_respawn_streak
            && streak % health.pool_respawn_after == 0
        {
            pool.respawn_workers();
            last_pool_respawn_streak = streak;
        }
    }
}

/// Renders one admission batch as a single fused multi-frame job and
/// fulfills its handles. A panic anywhere in the render — or a
/// watchdog cancellation fired by any batch member's deadline — fails
/// over to per-frame [`retry_frame`] recovery instead of killing the
/// shard; every frame's final outcome is recorded into its scene's
/// circuit breaker exactly once.
fn execute_group(
    shard: usize,
    pool: &Pool,
    mut group: Vec<(QueuedFrame, Arc<SessionState>)>,
    shared: &ShardShared,
    ctl: &ShardCtl,
    supervisor: &Supervisor,
    retry: RetryPolicy,
) {
    shared.batches.inc();
    for (frame, _) in &group {
        shared.ring.record(
            frame.frame,
            EventKind::Batch,
            group.len() as u64,
            (group.len() - 1) as u64,
        );
    }
    // Take the recycled buffers out of the requests up front: they are
    // moved (not cloned) into the render and returned in the results.
    let buffers: Vec<Option<Image>> = group
        .iter_mut()
        .map(|(frame, _)| frame.reuse.take())
        .collect();
    // One token guards the whole fused job: the watchdog fires it when
    // *any* member blows its budget, and the render unwinds at the
    // next chunk boundary. It is also published on the control block
    // so a condemnation or a drain deadline can fire it from outside
    // this thread.
    let cancel = CancelToken::new();
    *ctl.current_cancel.lock().unwrap_or_else(|e| e.into_inner()) = Some(cancel.clone());
    for (frame, _) in &group {
        supervisor.begin_render(frame.watch, &cancel);
    }
    let attempt_start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        render_group(
            shard,
            pool,
            &group,
            buffers,
            &cancel,
            0,
            shared,
            &ctl.governor,
        )
    }));
    // Render-attempt trace payload: elapsed ns + outcome code (0 ok,
    // 1 cancelled, 2 corrupt, 3 panicked).
    let render_ns = ns_since(attempt_start);
    let render_outcome = match &outcome {
        Ok(Ok(_)) if !cancel.is_cancelled() => 0,
        Ok(Ok(_)) => 1,
        Ok(Err(_)) => 2,
        Err(_) => 3,
    };
    match render_outcome {
        0 => ctl.poison_streak.store(0, Ordering::Relaxed),
        2 | 3 => {
            ctl.poison_streak.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    for (frame, _) in &group {
        shared
            .ring
            .record(frame.frame, EventKind::Render, render_ns, render_outcome);
    }
    let first_error = match outcome {
        Ok(Ok(results)) => {
            if !cancel.is_cancelled() {
                for ((frame, _), result) in group.into_iter().zip(results) {
                    conclude(frame, Ok(result), shared, supervisor);
                }
                return;
            }
            // A cancelled batch renders its remaining rays as
            // background: every member's output is suspect, so none
            // may be fulfilled. Unresolved members re-render solo.
            "render cancelled by a timed-out batch member".to_string()
        }
        // Integrity verification failed: the batch's pixels were never
        // published and every member is retryable, exactly like a
        // panic — corruption is transient until quarantine says
        // otherwise.
        Ok(Err(err)) => {
            note_corrupt_render(&err, shared);
            err.to_string()
        }
        Err(payload) => panic_message(payload.as_ref()),
    };
    for (frame, state) in group {
        retry_frame(
            shard,
            pool,
            frame,
            state,
            shared,
            ctl,
            supervisor,
            retry,
            first_error.clone(),
        );
    }
}

/// Resolves one frame's final outcome: records the outcome into the
/// scene's breaker, fulfills the handle (unless the watchdog got there
/// first — `fulfill` is first-write-wins), and detaches the watch.
fn conclude(
    frame: QueuedFrame,
    outcome: Result<FrameResult, String>,
    shared: &ShardShared,
    supervisor: &Supervisor,
) {
    // The breaker and the counters move *before* the fulfill so a
    // waiter that wakes on the handle already sees them. The breaker
    // takes the render's true outcome even when the watchdog wins the
    // fulfill race — the frame blew its budget, but the scene itself
    // rendered, and the breaker gauges scene health, not deadline
    // pressure. (Stall-sick scenes still record failures: their
    // cancelled renders resolve through the retry path instead.)
    let ok = outcome.is_ok();
    frame.breaker.record(ok, frame.probe, Instant::now());
    match outcome {
        Ok(result) => {
            shared.rendered.inc();
            let latency_ns = ns_since(frame.submitted);
            if fulfill(&frame.slot, Ok(result)) {
                // Winning the race makes this the frame's one terminal
                // trace event; the latency histogram books only real
                // (delivered) successes.
                shared.latency(frame.deadline).observe(latency_ns);
                shared.ring.record(
                    frame.frame,
                    EventKind::Resolve,
                    ResolveOutcome::Ok as u64,
                    latency_ns,
                );
            } else {
                shared.rendered.sub(1);
            }
        }
        Err(message) => {
            fail_frame(&frame, shared, &message);
        }
    }
    supervisor.resolve(frame.watch);
}

/// Re-renders one frame solo after a transient batch failure (panic,
/// pool poison, or a batch-mate's timeout): bounded attempts with
/// exponential backoff, never scheduled past the frame's deadline.
/// The kernel batch-independence contract makes a successful retry
/// bitwise identical to the original batched render.
#[allow(clippy::too_many_arguments)]
fn retry_frame(
    shard: usize,
    pool: &Pool,
    frame: QueuedFrame,
    state: Arc<SessionState>,
    shared: &ShardShared,
    ctl: &ShardCtl,
    supervisor: &Supervisor,
    retry: RetryPolicy,
    mut last_error: String,
) {
    let pair = (frame, state);
    for attempt in 1..retry.max_attempts.max(1) {
        if pair.0.slot.is_resolved() {
            // The watchdog timed this frame out: its budget is spent,
            // which is a scene failure even without a fresh attempt.
            let (frame, _) = pair;
            frame.breaker.record(false, frame.probe, Instant::now());
            supervisor.resolve(frame.watch);
            return;
        }
        let backoff = retry.backoff(attempt);
        if Instant::now() + backoff >= pair.0.deadline_at {
            // A retry that lands past the deadline is wasted work: the
            // watchdog would discard it anyway.
            break;
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        shared.retries.inc();
        shared.ring.record(
            pair.0.frame,
            EventKind::Retry,
            attempt as u64,
            backoff.as_nanos() as u64,
        );
        let cancel = CancelToken::new();
        *ctl.current_cancel.lock().unwrap_or_else(|e| e.into_inner()) = Some(cancel.clone());
        supervisor.begin_render(pair.0.watch, &cancel);
        let attempt_start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            render_group(
                shard,
                pool,
                std::slice::from_ref(&pair),
                vec![None],
                &cancel,
                attempt,
                shared,
                &ctl.governor,
            )
        }));
        let render_ns = ns_since(attempt_start);
        let render_outcome = match &outcome {
            Ok(Ok(_)) if !cancel.is_cancelled() => 0,
            Ok(Ok(_)) => 1,
            Ok(Err(_)) => 2,
            Err(_) => 3,
        };
        match render_outcome {
            0 => ctl.poison_streak.store(0, Ordering::Relaxed),
            2 | 3 => {
                ctl.poison_streak.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        shared
            .ring
            .record(pair.0.frame, EventKind::Render, render_ns, render_outcome);
        match outcome {
            Ok(Ok(mut results)) if !cancel.is_cancelled() => {
                let result = results.pop().expect("one frame in, one result out");
                conclude(pair.0, Ok(result), shared, supervisor);
                return;
            }
            // Cancelled mid-retry: the top-of-loop check (or the
            // exhausted path below) observes the resolved slot.
            Ok(Ok(_)) => {}
            // The retry itself produced corrupt output — book it and
            // keep retrying (quarantine may demote the backend between
            // attempts, which is exactly the recovery path).
            Ok(Err(err)) => {
                note_corrupt_render(&err, shared);
                last_error = err.to_string();
            }
            Err(payload) => last_error = panic_message(payload.as_ref()),
        }
    }
    // Attempts or wall-clock budget exhausted. `fulfill_error` loses
    // (returns false) if the watchdog already resolved the handle.
    let (frame, _) = pair;
    frame.breaker.record(false, frame.probe, Instant::now());
    fail_frame(&frame, shared, &last_error);
    supervisor.resolve(frame.watch);
}

/// Sleeps `total` in small slices, returning early the moment `cancel`
/// fires — a stalled worker yields its slot within ~5 ms of the
/// watchdog's verdict instead of parking for the full stall.
fn cancellable_sleep(total: Duration, cancel: &CancelToken) {
    let deadline = Instant::now() + total;
    while !cancel.is_cancelled() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
}

/// The render half of [`execute_group`]: cache lookups, one fused
/// multi-frame render, cache updates. `group` frames share one scene
/// and strategy (batch carving guarantees it). `attempt` is 0 for the
/// first (batched) render and counts up through retries — transient
/// injected faults consult it via [`Fault::fires`]. When `cancel`
/// fires mid-render the returned images are garbage (remaining rays
/// render as background) and the caller must not fulfill them; cache
/// anchors are likewise withheld. Anchor inserts are charged against
/// `governor` **before** insertion (a refused charge skips the anchor;
/// the frame still renders), so the process-wide byte budget is never
/// exceeded, even transiently.
#[allow(clippy::too_many_arguments)]
fn render_group(
    shard: usize,
    pool: &Pool,
    group: &[(QueuedFrame, Arc<SessionState>)],
    buffers: Vec<Option<Image>>,
    cancel: &CancelToken,
    attempt: u32,
    shared: &ShardShared,
    governor: &MemoryGovernor,
) -> Result<Vec<FrameResult>, RenderError> {
    let started = Instant::now();
    let n = group.len();
    let scene = &group[0].1.scene;
    let strategy = group[0].1.cfg.strategy;
    let is_ctf = matches!(strategy, SamplingStrategy::CoarseThenFocus { .. });

    // Injected faults fire inside the batch's unwind boundary, exactly
    // where a real mid-frame failure would: after admission, before
    // the frame resolves. The corruption family arms the pipeline's
    // chaos hooks — a supra-tolerance GEMM perturbation or a poisoned
    // pixel — which the integrity machinery must then catch.
    for (frame, _) in group {
        let Some(fault) = frame.fault else { continue };
        if !fault.fires(attempt) {
            continue;
        }
        match fault {
            Fault::Stall(delay) => cancellable_sleep(delay, cancel),
            Fault::Panic | Fault::PanicOnce => panic!("injected render fault"),
            Fault::CorruptGemm(seed) => integrity::arm_corruption(seed),
            Fault::CorruptPixels(seed) => pipeline::arm_pixel_corruption(seed),
            // Fired below, against the session's cache under its lock.
            Fault::CorruptAnchor(_) => {}
            // Shard-level faults are intercepted (and cleared) by the
            // shard loop before the frame ever reaches a render.
            Fault::KillShard | Fault::WedgeShard(_) => {}
        }
    }

    // Cache lookups resolve against each session's anchors *before*
    // the job, so a batch behaves exactly like the same frames served
    // one at a time in admission order. Imports are validated: an
    // anchor whose digest or ray count no longer checks out is
    // discarded and the lookup counts as a miss (its bytes are
    // returned to the global budget).
    let mut cameras: Vec<Camera> = Vec::with_capacity(n);
    let mut cached_arcs: Vec<Option<Arc<CoarseFrame>>> = Vec::with_capacity(n);
    let mut outcomes: Vec<CacheOutcome> = Vec::with_capacity(n);
    for (frame, state) in group {
        let intrinsics = frame.tier.apply(state.cfg.intrinsics);
        let expected_rays = intrinsics.width as usize * intrinsics.height as usize;
        cameras.push(Camera::new(intrinsics, frame.pose));
        if !is_ctf || !state.cfg.coherence.enabled {
            state.bypasses.fetch_add(1, Ordering::Relaxed);
            shared.cache_bypasses.inc();
            cached_arcs.push(None);
            outcomes.push(CacheOutcome::Bypass);
            continue;
        }
        let freed = {
            let mut cache = state.cache.lock().unwrap_or_else(|e| e.into_inner());
            let bytes_before = cache.bytes();
            if let Some(fault @ Fault::CorruptAnchor(seed)) = frame.fault {
                if fault.fires(attempt) {
                    cache.corrupt_for_chaos(seed);
                }
            }
            let rejects_before = cache.rejected();
            match cache.lookup(frame.tier, &frame.pose, &state.cfg.coherence, expected_rays) {
                Some(coarse) => {
                    state.hits.fetch_add(1, Ordering::Relaxed);
                    shared.cache_hits.inc();
                    cached_arcs.push(Some(coarse));
                    outcomes.push(CacheOutcome::Hit);
                }
                None => {
                    state.misses.fetch_add(1, Ordering::Relaxed);
                    shared.cache_misses.inc();
                    cached_arcs.push(None);
                    outcomes.push(CacheOutcome::Miss);
                }
            }
            shared.cache_rejects.add(cache.rejected() - rejects_before);
            bytes_before.saturating_sub(cache.bytes())
        };
        if freed > 0 {
            // Integrity rejects discarded anchors: their bytes go back
            // to the process-wide budget.
            governor.discharge(freed as u64);
        }
    }

    let renderer = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .with_threads(pool.threads())
    .with_pool(pool)
    .with_cancel(cancel);

    let mut images: Vec<Image> = buffers
        .into_iter()
        .map(|buf| buf.unwrap_or_else(|| Image::new(0, 0)))
        .collect();
    let mut stats = vec![RenderStats::default(); n];
    let cached_refs: Vec<Option<&CoarseFrame>> = cached_arcs.iter().map(|c| c.as_deref()).collect();
    // The fallible render: a GEMM miscompare or a tripped sentinel
    // surfaces here as `RenderError::Corrupt` — nothing downstream
    // (fulfill, cache anchoring) ever sees the poisoned output.
    let exports =
        renderer.try_render_frames_cached(&cameras, &cached_refs, &mut images, &mut stats)?;
    let finished = Instant::now();

    // Anchor fresh coarse passes, in admission order; the LRU tail is
    // evicted past the session's byte budget and counted. A cancelled
    // render anchors nothing: its coarse exports are as suspect as its
    // images (the token is sticky, so a fire during the render is
    // still visible here). Every insert is charged against the global
    // budget *first*: a refused charge (nothing left to evict
    // anywhere) skips the anchor and the frame still resolves.
    for (((frame, state), export), outcome) in group.iter().zip(exports).zip(&outcomes) {
        if let Some(coarse) = export {
            if *outcome == CacheOutcome::Miss && !cancel.is_cancelled() {
                let coarse = Arc::new(coarse);
                let cost = coarse_entry_cost(&coarse);
                if !governor.try_charge(cost as u64) {
                    continue;
                }
                let (bytes_before, bytes_after, evicted) = {
                    let mut cache = state.cache.lock().unwrap_or_else(|e| e.into_inner());
                    let bytes_before = cache.bytes();
                    let evicted = cache.insert(
                        CacheEntry {
                            pose: frame.pose,
                            tier: frame.tier,
                            coarse,
                        },
                        state.cfg.cache_budget_bytes,
                    );
                    (bytes_before, cache.bytes(), evicted)
                };
                // The insert added `cost`; whatever the session-budget
                // eviction (or an outright refusal) freed goes back.
                let freed = (bytes_before + cost).saturating_sub(bytes_after);
                if freed > 0 {
                    governor.discharge(freed as u64);
                }
                if evicted > 0 {
                    state.evictions.fetch_add(evicted, Ordering::Relaxed);
                    shared.cache_evictions.add(evicted);
                }
            }
        }
    }

    Ok(images
        .into_iter()
        .zip(stats)
        .zip(outcomes)
        .zip(group)
        .map(|(((image, stats), cache), (frame, _))| FrameResult {
            image,
            stats,
            serve: ServeStats {
                queue_wait: started.saturating_duration_since(frame.submitted),
                render_time: finished.saturating_duration_since(started),
                latency: finished.saturating_duration_since(frame.submitted),
                cache,
                batched_frames: n,
                shard,
                degraded: frame.degraded,
                tier: frame.tier,
            },
        })
        .collect())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "render panic".to_string()
    }
}
