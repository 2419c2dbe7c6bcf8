//! One shard: a scheduler thread owning a scene's request queue, a
//! private render pool, and the fused batch execution path.
//!
//! The server routes every session of a scene to one shard (see
//! [`registry`](crate::registry)). Everything the front end, the
//! health sweep and the worker coordinate through lives in one
//! [`ShardCtx`] behind one `Arc` — configuration, metrics, the queue,
//! the heartbeat — so a restart replaces the thread, never the state,
//! and a session reaches its shard without the topology lock.
//!
//! **Scheduling.** The worker drains the bounded queue through a
//! [`FairQueue`] — class priority, round-robin across sessions, FIFO
//! per session — carves the largest batch of frames that can legally
//! share one fused render (same scene `Arc`, same strategy, at most
//! one frame of any cache-enabled session), and runs it on the shard's
//! own [`Pool`] slice of the server's thread budget.
//!
//! **Render attempts.** [`attempt`] is the one function that renders:
//! the first, batched attempt and every solo retry. An attempt runs
//! under a fresh [`CancelToken`] — attached to each member's watch so
//! the watchdog fires it when any member blows its budget, and
//! published on the context so a condemnation or a drain deadline can
//! fire it from outside — inside `catch_unwind`, through the
//! pipeline's fallible API. It ends ok, cancelled (the render unwinds
//! cooperatively at the next chunk boundary and its output is
//! discarded), corrupt (a GEMM checksum miscompare or a tripped stage
//! sentinel failed it *before* any pixel was published) or panicked.
//! Anything but ok sends each member through [`retry`]: solo
//! re-renders under the [`RetryPolicy`](crate::RetryPolicy), bitwise
//! identical to a clean render by the kernel batch-independence
//! contract, never scheduled past the frame's deadline. Repeated GEMM
//! miscompares while a SIMD kernel backend is active quarantine that
//! backend process-wide ([`integrity::quarantine`]). Nothing a frame
//! does can take the shard down, and every frame ends through
//! [`Frame::end`], which tells the scene's breaker what happened.
//!
//! **Self-healing.** The worker *incarnation* popping from the queue
//! publishes a [`Heartbeat`] on every wakeup and batch boundary, and
//! the supervisor's health sweep ([`Shard::sweep`]) classifies the
//! shard Healthy / Wedged / Dead. A condemned incarnation is
//! invalidated (the incarnation counter in the queue state bumps, so
//! the old loop exits at its next queue observation instead of racing
//! its replacement), its in-flight attempt is cancelled, queued frames
//! are requeued FIFO-preserving, and a fresh worker spawns under an
//! exponential per-shard restart budget. Past the budget the shard is
//! declared down: queued frames end with
//! [`ServeError::ShardDown`](crate::ServeError::ShardDown) and further
//! submissions shed at admission. Session caches live in
//! [`SessionState`], not in the worker, so they survive restarts; the
//! worker's coarse-anchor inserts are charged against the server's
//! process-wide [`MemoryGovernor`] *before* insertion, so the global
//! byte budget holds even across a restart storm re-anchoring caches.

use crate::admission::{class_index, AdmissionStats, FairQueue, N_CLASSES};
use crate::frame::{End, Frame, Shed};
use crate::governor::MemoryGovernor;
use crate::health::{CondemnReason, DrainOutcome, Heartbeat, ShardHealth, ShardHealthStats};
use crate::server::{CacheOutcome, Fault, FrameResult, ServeStats, ServerConfig};
use crate::session::{coarse_entry_cost, CacheEntry, DeadlineClass, SessionState};
use crate::supervisor::{Supervisor, WatchMeters};
use crate::{lock, wait_timeout, wait_until};
use gen_nerf::config::SamplingStrategy;
use gen_nerf::pipeline::{self, CoarseFrame, RenderError, RenderStats, Renderer};
use gen_nerf_geometry::Camera;
use gen_nerf_nn::kernels::{self, integrity, Backend};
use gen_nerf_parallel::{CancelToken, Pool};
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{Counter, EventKind, Gauge, Histogram, TraceRing, DEFAULT_RING_CAPACITY};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fixed per-worker arena reservation charged against the process-wide
/// memory governor when a shard spawns: the render worker's scratch,
/// which the tile schedule bounds whatever the frame size or batch
/// ([`pipeline::WORKER_SCRATCH_BYTES`], pinned by a unit test there).
/// Reserved once per shard (not per incarnation — a respawned worker
/// reuses the same slice of the budget).
pub(crate) const ARENA_BYTES_PER_WORKER: u64 = pipeline::WORKER_SCRATCH_BYTES as u64;

/// The queue half of a shard's context, under one lock: the fair
/// queue itself, the close latch, the worker incarnation counter that
/// invalidates condemned loops, and the count of frames out of the
/// queue but not yet ended.
struct QueueState {
    q: FairQueue<Frame>,
    /// Set at shutdown: the worker drains what is queued and exits.
    closed: bool,
    /// Bumped by every condemnation. A worker loop captures the value
    /// it was spawned at and exits as soon as the shared value moved —
    /// the fence that keeps a condemned incarnation from racing its
    /// replacement for the queue.
    incarnation: u64,
    /// Frames popped and neither ended nor handed back. Moves with the
    /// pop under the queue lock, so "queue empty and nothing running"
    /// is never observed with a frame in a worker's hand.
    running: u64,
}

/// A shard's context: everything the server front end, the health
/// sweep, and the worker incarnation(s) coordinate through.
pub(crate) struct ShardCtx {
    pub index: usize,
    /// Persistent render workers owned by this shard.
    pub pool_threads: usize,
    pub cfg: ServerConfig,
    pub supervisor: Arc<Supervisor>,
    /// The server's process-wide memory governor (anchor inserts are
    /// charged before insertion).
    pub governor: Arc<MemoryGovernor>,
    /// Shared with every frame's core, which books into it after the
    /// rest of the context may be gone.
    pub meters: Arc<Meters>,
    queue: Mutex<QueueState>,
    /// Signals the worker: new frame, close, or incarnation bump.
    ready: Condvar,
    /// Signals a drain: the last running frame ended, or another
    /// thread emptied the queue.
    idle: Condvar,
    /// The worker's progress beacon the health sweep reads.
    heartbeat: Heartbeat,
    /// Consecutive render attempts that panicked or failed integrity;
    /// cleared by any clean render. Crossing
    /// [`HealthConfig::pool_respawn_after`](crate::HealthConfig::pool_respawn_after)
    /// respawns the pool workers in place; crossing
    /// [`HealthConfig::pool_condemn_after`](crate::HealthConfig::pool_condemn_after)
    /// condemns the whole shard.
    poison_streak: AtomicU32,
    /// Latched when the restart budget is exhausted: submissions shed
    /// with [`ServeError::ShardDown`](crate::ServeError::ShardDown),
    /// queued frames fail.
    pub down: AtomicBool,
    /// The cancel token of the attempt currently rendering, for the
    /// sweep (condemnation) and `drain` to fire from outside the
    /// worker thread.
    current_cancel: Mutex<Option<CancelToken>>,
}

impl ShardCtx {
    /// The context of shard `index` of server `instance`, with
    /// `pool_threads` render workers under the server's `cfg`.
    pub(crate) fn new(
        instance: u64,
        index: usize,
        pool_threads: usize,
        cfg: ServerConfig,
        supervisor: Arc<Supervisor>,
        governor: Arc<MemoryGovernor>,
    ) -> Arc<Self> {
        let ctx = Arc::new(Self {
            index,
            pool_threads,
            cfg,
            meters: Arc::new(Meters::new(instance, index, supervisor.meters)),
            queue: Mutex::new(QueueState {
                q: FairQueue::new(),
                closed: false,
                incarnation: 0,
                running: 0,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
            heartbeat: Heartbeat::new(supervisor.clock().now()),
            poison_streak: AtomicU32::new(0),
            down: AtomicBool::new(false),
            current_cancel: Mutex::new(None),
            supervisor,
            governor,
        });
        // Born alive: the first sweep must not find a zero-aged shard
        // stale.
        ctx.beat();
        ctx.governor
            .reserve(pool_threads.max(1) as u64 * ARENA_BYTES_PER_WORKER);
        ctx
    }

    /// Records a shard-scoped lifecycle event (frame id 0, `a` = this
    /// shard's index).
    fn event(&self, kind: EventKind, b: u64) {
        self.meters.ring.record(0, kind, self.index as u64, b);
    }

    /// Publishes worker progress (and counts the beat).
    fn beat(&self) {
        self.heartbeat.beat(self.supervisor.clock().now());
        self.meters.heartbeats.inc();
    }

    /// Queues an admitted frame and wakes the worker. A queue that
    /// shutdown already closed hands the frame back (`Some`) instead
    /// of stranding it where no worker will ever serve it.
    pub(crate) fn push(&self, frame: Frame) -> Option<Frame> {
        let mut qs = lock(&self.queue);
        if qs.closed {
            return Some(frame);
        }
        qs.q.push(frame.class(), frame.session, frame);
        drop(qs);
        self.ready.notify_one();
        None
    }

    /// Blocks for the next frame in policy order; every wakeup beats
    /// so an idle shard's heartbeat stays fresh. `None` once the queue
    /// is closed and empty, or the moment the shared incarnation
    /// counter moved past `incarnation`.
    fn pop_head(&self, incarnation: u64) -> Option<Frame> {
        let mut frame = {
            let mut qs = lock(&self.queue);
            loop {
                if qs.incarnation != incarnation {
                    return None;
                }
                if let Some(frame) = qs.q.pop() {
                    qs.running += 1;
                    break frame;
                }
                if qs.closed {
                    return None;
                }
                self.beat();
                qs = wait_timeout(&self.ready, qs, Duration::from_millis(100));
            }
        };
        self.beat();
        frame.pop();
        Some(frame)
    }

    /// Pops the next lane head `take` accepts, without blocking.
    pub(crate) fn pop_mate(&self, take: impl FnMut(&Frame) -> bool) -> Option<Frame> {
        let mut frame = {
            let mut qs = lock(&self.queue);
            let frame = qs.q.pop_next(take)?;
            qs.running += 1;
            frame
        };
        frame.pop();
        Some(frame)
    }

    /// Hands a popped-but-unexecuted head back at the **front** of its
    /// lane (FIFO preserved) — what a dying or wedged incarnation does
    /// so its frame is re-served, not lost.
    fn requeue_front(&self, mut frame: Frame) {
        frame.requeued(0);
        let mut qs = lock(&self.queue);
        qs.running -= 1;
        qs.q.push_front(frame.class(), frame.session, frame);
        drop(qs);
        self.ready.notify_one();
    }

    /// One running frame ended ([`Frame::end`] calls this).
    pub(crate) fn settle(&self) {
        let mut qs = lock(&self.queue);
        qs.running -= 1;
        if qs.running == 0 {
            self.idle.notify_all();
        }
    }

    /// Empties the queue and ends every frame in it with `end()`;
    /// returns how many there were.
    fn end_queued(&self, end: impl Fn() -> End) -> u64 {
        let drained = lock(&self.queue).q.drain();
        self.idle.notify_all();
        let n = drained.len() as u64;
        for (_, _, frame) in drained {
            frame.end(end());
        }
        n
    }

    /// Fires the cancel token of the attempt in flight, if any.
    fn cancel_current(&self) {
        if let Some(cancel) = lock(&self.current_cancel).take() {
            cancel.cancel();
        }
    }

    /// Blocks until `idle` holds of the queue state or `until` passes;
    /// returns whether it held.
    fn wait_idle(&self, until: Instant, idle: impl Fn(&QueueState) -> bool) -> bool {
        wait_until(&self.idle, lock(&self.queue), until, idle).1
    }

    /// This shard's half of [`RenderServer::drain`](crate::RenderServer::drain):
    /// lets the worker finish naturally until `hard_deadline`, then
    /// force-fails what is still queued with
    /// [`ServeError::Draining`](crate::ServeError::Draining), cancels
    /// the attempt in flight and gives the worker `grace` to unwind
    /// (its frames end through the retry path).
    pub(crate) fn drain(&self, hard_deadline: Instant, grace: Duration) -> DrainOutcome {
        let started = Instant::now();
        let mut drained = self.wait_idle(hard_deadline, |qs| qs.q.is_empty() && qs.running == 0);
        let mut forced = 0;
        if !drained {
            forced = self.end_queued(|| End::DrainForced);
            self.cancel_current();
            drained = self.wait_idle(Instant::now() + grace, |qs| qs.running == 0);
            // A condemned/wedged incarnation may have requeued its
            // frame during the grace wait; sweep those stragglers too.
            forced += self.end_queued(|| End::DrainForced);
        }
        self.event(EventKind::Drain, forced);
        DrainOutcome {
            shard: self.index,
            drained,
            forced,
            waited: started.elapsed(),
        }
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let m = &self.meters;
        let [shed_interactive, shed_best_effort] = m.shed_queue;
        ShardStats {
            queued: m.depth.get().max(0) as usize,
            admission: AdmissionStats {
                admitted: m.admitted.get(),
                degraded: m.degraded.get(),
                shed_best_effort: shed_best_effort.get(),
                shed_interactive: shed_interactive.get(),
                shed_circuit: m.shed_circuit.get(),
            },
            rendered_frames: m.rendered.get(),
            failed_frames: m.failed.get(),
            retries: m.retries.get(),
            batches: m.batches.get(),
            corrupt_renders: m.corrupt.get(),
            quarantine_events: m.quarantined.get(),
            pool_threads: self.pool_threads,
        }
    }
}

/// A shard's counters, gauges and trace ring.
///
/// Every handle is a metric in the process-global telemetry registry,
/// labelled `{instance, shard}` — the same atomics back both the
/// exact-count stats views (read through the handles) and any snapshot
/// fold, so there is no parallel bookkeeping to drift. The frame
/// lifecycle ([`crate::frame`]) is the only writer of the per-frame
/// ones.
pub(crate) struct Meters {
    /// Frames admitted but not yet pulled into a render batch
    /// (`serve_queue_depth`; SeqCst, the admission policy reads it).
    pub depth: Gauge,
    /// Every frame that entered `submit` for this shard, whatever its
    /// fate (`serve_frames_submitted_total`).
    pub submitted: Counter,
    pub admitted: Counter,
    pub degraded: Counter,
    /// `serve_frames_shed_total{reason}`, one per [`Shed`] reason; the
    /// queue's is split by deadline class
    /// ([`class_index`](crate::admission::class_index)).
    pub shed_queue: [Counter; N_CLASSES],
    pub shed_circuit: Counter,
    pub shed_draining: Counter,
    pub shed_shard_down: Counter,
    pub shed_memory: Counter,
    /// Frames whose handle resolved successfully.
    pub rendered: Counter,
    /// Frames whose handle resolved with an error other than a
    /// timeout or a shed.
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
    /// Condemnations by reason, indexed by [`CondemnReason::code`]
    /// (`serve_shard_condemned_total{reason}`).
    pub condemned: [Counter; 3],
    /// Frames put back in the queue across a restart or a shard-level
    /// fault (`serve_requeued_frames_total`).
    pub requeued: Counter,
    /// Frames force-failed at a drain deadline
    /// (`serve_drain_forced_total`).
    pub drain_forced: Counter,
    /// Submit→resolve latency of successfully rendered frames, per
    /// deadline class by
    /// [`class_index`](crate::admission::class_index)
    /// (`serve_latency_ns`).
    pub latency: [Histogram; N_CLASSES],
    /// Coarse-cache outcomes served by this shard
    /// (`serve_cache_events_total{outcome}`) — the instance-level view
    /// of the per-session [`CacheStats`](crate::CacheStats) counters.
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_bypasses: Counter,
    pub cache_evictions: Counter,
    pub cache_rejects: Counter,
    /// The server-wide watchdog meters (`{instance}` only).
    pub watch: WatchMeters,
    /// This shard's frame-lifecycle event ring.
    pub ring: TraceRing,
}

impl Meters {
    /// Registers this shard's metric set under `{instance, shard}`.
    fn new(instance: u64, shard: usize, watch: WatchMeters) -> Self {
        let inst = instance.to_string();
        let idx = shard.to_string();
        let labels: [(&'static str, &str); 2] = [("instance", &inst), ("shard", &idx)];
        let counter = |name: &'static str| gen_nerf_telemetry::counter(name, &labels);
        let with = |name: &'static str, key: &'static str, value: &str| {
            gen_nerf_telemetry::counter(name, &[("instance", &inst), ("shard", &idx), (key, value)])
        };
        let shed = |reason: &str| with("serve_frames_shed_total", "reason", reason);
        let condemned = |reason: &str| with("serve_shard_condemned_total", "reason", reason);
        let cache = |outcome: &str| with("serve_cache_events_total", "outcome", outcome);
        let latency = |class: &str| {
            gen_nerf_telemetry::histogram(
                "serve_latency_ns",
                &[("instance", &inst), ("shard", &idx), ("class", class)],
            )
        };
        Self {
            depth: gen_nerf_telemetry::gauge("serve_queue_depth", &labels),
            submitted: counter("serve_frames_submitted_total"),
            admitted: counter("serve_frames_admitted_total"),
            degraded: counter("serve_frames_degraded_total"),
            shed_queue: ["interactive", "best_effort"].map(shed),
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
            condemned: ["wedged", "dead", "poisoned"].map(condemned),
            requeued: counter("serve_requeued_frames_total"),
            drain_forced: counter("serve_drain_forced_total"),
            latency: ["interactive", "best_effort"].map(latency),
            cache_hits: cache("hit"),
            cache_misses: cache("miss"),
            cache_bypasses: cache("bypass"),
            cache_evictions: cache("eviction"),
            cache_rejects: cache("integrity_reject"),
            watch,
            ring: TraceRing::new(DEFAULT_RING_CAPACITY),
        }
    }

    /// The shed counter of `reason` (`class` splits the queue's).
    pub(crate) fn shed(&self, reason: Shed, class: DeadlineClass) -> Counter {
        match reason {
            Shed::Draining => self.shed_draining,
            Shed::ShardDown => self.shed_shard_down,
            Shed::Memory => self.shed_memory,
            Shed::Circuit => self.shed_circuit,
            Shed::Queue => self.shed_queue[class_index(class)],
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

/// The server's handle on one shard: its context, the live worker
/// incarnation, and the restart ledger the health sweep mutates.
pub(crate) struct Shard {
    pub ctx: Arc<ShardCtx>,
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
    /// Spawns the first worker incarnation on a fresh context.
    pub(crate) fn spawn(ctx: Arc<ShardCtx>) -> Self {
        Self {
            worker: Some(Self::spawn_worker(&ctx, 0)),
            ctx,
            graveyard: Vec::new(),
            restarts: 0,
            consecutive_restarts: 0,
            rendered_at_condemn: 0,
            respawn_at: None,
        }
    }

    /// Spawns one worker incarnation bound to `incarnation`.
    fn spawn_worker(ctx: &Arc<ShardCtx>, incarnation: u64) -> std::thread::JoinHandle<()> {
        let ctx = Arc::clone(ctx);
        std::thread::Builder::new()
            .name(format!("gen-nerf-shard-{}-i{incarnation}", ctx.index))
            .spawn(move || shard_loop(&ctx, incarnation))
            .expect("spawn shard thread")
    }

    /// One pass of the health sweep, on the supervisor's clock. Runs
    /// on the watchdog thread, under the server's topology lock.
    pub(crate) fn sweep(&mut self, now: Instant) {
        if self.ctx.down.load(Ordering::Relaxed) {
            // Down for good — but a wedged old incarnation may still
            // requeue its frame after the give-up drain; fail such
            // stragglers instead of stranding them.
            self.ctx.end_queued(|| End::ShardDown);
            return;
        }
        // Any rendered frame since the last condemnation proves the
        // current incarnation makes progress: give-up counter resets.
        if self.consecutive_restarts > 0
            && self.ctx.meters.rendered.get() > self.rendered_at_condemn
        {
            self.consecutive_restarts = 0;
        }
        if let Some(at) = self.respawn_at {
            // Condemned, backing off: no fresh verdicts until the
            // replacement is running.
            if now >= at {
                self.respawn_at = None;
                self.respawn();
            }
            return;
        }
        if let Some(reason) = self.verdict(now) {
            self.condemn(reason, now);
        }
    }

    /// Classifies the live worker at `now`.
    fn verdict(&self, now: Instant) -> Option<CondemnReason> {
        let health = &self.ctx.cfg.health;
        let (busy, closed) = {
            let qs = lock(&self.ctx.queue);
            (!qs.q.is_empty() || qs.running > 0, qs.closed)
        };
        if !closed && self.worker.as_ref().is_some_and(|w| w.is_finished()) {
            return Some(CondemnReason::Dead);
        }
        if self.ctx.poison_streak.load(Ordering::Relaxed) >= health.pool_condemn_after {
            return Some(CondemnReason::Poisoned);
        }
        if busy && self.ctx.heartbeat.age(now) > health.heartbeat_budget {
            return Some(CondemnReason::Wedged);
        }
        None
    }

    /// Tears the live incarnation down: invalidates it, cancels its
    /// in-flight attempt, and schedules (or gives up on) a respawn.
    fn condemn(&mut self, reason: CondemnReason, now: Instant) {
        let ctx = &self.ctx;
        ctx.meters.condemned[reason.code() as usize].inc();
        ctx.event(EventKind::Condemn, reason.code());
        lock(&ctx.queue).incarnation += 1;
        ctx.ready.notify_all();
        // Unwind whatever the condemned incarnation is rendering; a
        // truly wedged one ignores this, which is why it goes to the
        // graveyard instead of being joined here.
        ctx.cancel_current();
        if let Some(worker) = self.worker.take() {
            if worker.is_finished() {
                let _ = worker.join();
            } else {
                self.graveyard.push(worker);
            }
        }
        ctx.poison_streak.store(0, Ordering::Relaxed);
        self.consecutive_restarts += 1;
        self.rendered_at_condemn = ctx.meters.rendered.get();
        if self.consecutive_restarts > ctx.cfg.health.max_restarts {
            // Restart budget exhausted: latch down, fail everything
            // queued.
            ctx.down.store(true, Ordering::Relaxed);
            ctx.end_queued(|| End::ShardDown);
        } else {
            self.respawn_at = Some(now + ctx.cfg.health.backoff_for(self.consecutive_restarts));
        }
    }

    /// Spawns the replacement incarnation: requeues what is queued
    /// (FIFO per lane, tenant ring preserved), grants a fresh
    /// heartbeat grace period, and starts the worker.
    fn respawn(&mut self) {
        let ctx = &self.ctx;
        let incarnation = {
            let mut qs = lock(&ctx.queue);
            let held = qs.q.drain();
            for (position, (class, tenant, mut frame)) in held.into_iter().enumerate() {
                frame.requeued(position as u64);
                qs.q.push(class, tenant, frame);
            }
            qs.incarnation
        };
        // The new worker must not be born already past the heartbeat
        // budget.
        ctx.beat();
        self.restarts += 1;
        ctx.meters.restarts.inc();
        ctx.event(EventKind::Restart, incarnation);
        self.worker = Some(Self::spawn_worker(ctx, incarnation));
        ctx.ready.notify_all();
    }

    /// This shard's lifecycle counters and current health verdict.
    pub(crate) fn health_stats(&self, now: Instant) -> ShardHealthStats {
        let down = self.ctx.down.load(Ordering::Relaxed);
        // Down, or condemned and between incarnations: dead either way.
        let health = if down || self.respawn_at.is_some() {
            ShardHealth::Dead
        } else {
            match self.verdict(now) {
                None => ShardHealth::Healthy,
                Some(CondemnReason::Dead) => ShardHealth::Dead,
                Some(CondemnReason::Wedged) | Some(CondemnReason::Poisoned) => ShardHealth::Wedged,
            }
        };
        ShardHealthStats {
            shard: self.ctx.index,
            incarnation: lock(&self.ctx.queue).incarnation,
            restarts: self.restarts,
            consecutive_restarts: self.consecutive_restarts,
            down,
            heartbeat_epoch: self.ctx.heartbeat.epoch(),
            health,
        }
    }

    /// Closes the queue (the worker drains, then exits) and joins
    /// every incarnation; frames no incarnation will ever serve (down
    /// shard, late requeues) are failed.
    pub(crate) fn shutdown(&mut self) {
        lock(&self.ctx.queue).closed = true;
        self.ctx.ready.notify_all();
        // Graveyard first: a wedged incarnation finishes its sleep and
        // requeues its frame; the live worker (joined next) may still
        // serve it, and the leftover pass below catches the rest.
        for handle in self.graveyard.drain(..).chain(self.worker.take()) {
            let _ = handle.join();
        }
        self.ctx.end_queued(|| End::Shutdown);
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
fn note_corrupt_render(err: &RenderError, meters: &Meters) {
    meters.corrupt.inc();
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
        meters.quarantined.inc();
        eprintln!(
            "gen-nerf-serve: quarantined kernel backend {backend:?} after \
             {strikes} GEMM miscompares (last: {detail}); serving on scalar"
        );
    }
}

/// Whether the coherence cache constrains batching for `state` (at
/// most one of its frames per fused job, so in-order cache updates are
/// a guarantee rather than a race).
fn cache_applies(state: &SessionState) -> bool {
    state.cfg.coherence.enabled
        && matches!(state.cfg.strategy, SamplingStrategy::CoarseThenFocus { .. })
}

/// Why a popped frame must end without a render, if it must: the
/// watchdog already answered for it (it timed out while queued), or
/// its session was removed while it waited.
fn unrenderable(frame: &Frame) -> Option<End> {
    if frame.is_resolved() {
        Some(End::Stale)
    } else if frame.state.is_removed() {
        Some(End::SessionGone)
    } else {
        None
    }
}

/// The shard event loop, one *incarnation* of it: block on the shared
/// queue, dequeue the policy-ordered head, grow the largest compatible
/// batch around it, render, repeat — publishing a heartbeat at every
/// step. Exits when the queue closes and empties, or the moment the
/// shared incarnation counter moves past the one this loop was spawned
/// at (a condemnation installed a replacement).
fn shard_loop(ctx: &ShardCtx, incarnation: u64) {
    let mut pool = Pool::new(ctx.pool_threads.max(1));
    let max_batch = ctx.cfg.max_batch.max(1);
    let health = ctx.cfg.health;
    let mut last_pool_respawn_streak = 0u32;
    while let Some(mut head) = ctx.pop_head(incarnation) {
        // Shard-level chaos faults fire here, between pop and render —
        // where a real scheduler-thread defect would. Both are
        // one-shot (cleared before the requeue) so the re-served frame
        // renders normally, and both hand the frame back first so no
        // frame is ever lost to the fault.
        match head.fault {
            Some(Fault::KillShard) => {
                head.fault = None;
                ctx.requeue_front(head);
                // Clean exit with the queue open: the sweep finds the
                // JoinHandle finished → Dead.
                return;
            }
            Some(Fault::WedgeShard(stall)) => {
                head.fault = None;
                // Uncancellable on purpose — the heartbeat goes stale
                // while the frame counts as running, which is exactly
                // the Wedged signature.
                std::thread::sleep(stall);
                ctx.requeue_front(head);
                // If the sweep condemned us during the sleep, the
                // incarnation check in `pop_head` exits.
                continue;
            }
            _ => {}
        }
        if let Some(end) = unrenderable(&head) {
            head.end(end);
            continue;
        }

        // Grow the batch: only lane heads compatible with the batch
        // head ride along (frames that cannot render are popped so
        // they end instead of parking their lane forever; frames
        // carrying a shard-level fault wait to become head so the
        // fault fires against a lone frame).
        let mut group = vec![head];
        while group.len() < max_batch {
            let lead = &group[0].state;
            let mate = ctx.pop_mate(|frame| {
                if matches!(frame.fault, Some(Fault::KillShard | Fault::WedgeShard(_))) {
                    return false;
                }
                unrenderable(frame).is_some()
                    || (Arc::ptr_eq(&frame.state.scene, &lead.scene)
                        && frame.state.cfg.strategy == lead.cfg.strategy
                        && !(cache_applies(&frame.state)
                            && group.iter().any(|g| g.session == frame.session)))
            });
            let Some(mate) = mate else { break };
            match unrenderable(&mate) {
                Some(end) => mate.end(end),
                None => group.push(mate),
            }
        }
        execute_group(ctx, &pool, group);
        ctx.beat();

        // Pool-poison escalation: a streak of panicked attempts at the
        // respawn threshold replaces the pool's worker crew in place —
        // the cheap reclaim for a sick pool. The streak keeps counting
        // (only a clean render clears it); if respawning didn't help,
        // the sweep condemns the whole shard at `pool_condemn_after`.
        let streak = ctx.poison_streak.load(Ordering::Relaxed);
        if streak >= health.pool_respawn_after
            && streak != last_pool_respawn_streak
            && streak.is_multiple_of(health.pool_respawn_after)
        {
            pool.respawn_workers();
            last_pool_respawn_streak = streak;
        }
    }
}

/// Renders one admission batch as a single fused multi-frame job and
/// ends its frames. Anything but a clean attempt fails over to
/// per-frame [`retry`] recovery instead of killing the shard.
fn execute_group(ctx: &ShardCtx, pool: &Pool, mut group: Vec<Frame>) {
    ctx.meters.batches.inc();
    for frame in &group {
        frame.batched(group.len());
    }
    // Take the recycled buffers out of the requests up front: they are
    // moved (not cloned) into the render and returned in the results.
    let buffers = group.iter_mut().map(|frame| frame.reuse.take()).collect();
    let error = match attempt(ctx, pool, &group, buffers, 0) {
        Attempt::Rendered(results) => {
            for (frame, result) in group.into_iter().zip(results) {
                frame.end(End::Rendered(result));
            }
            return;
        }
        // A cancelled batch renders its remaining rays as background:
        // every member's output is suspect, so none may be delivered.
        // Unresolved members re-render solo.
        Attempt::Cancelled => "render cancelled by a timed-out batch member".to_string(),
        Attempt::Failed(error) => error,
    };
    for frame in group {
        retry(ctx, pool, frame, error.clone());
    }
}

/// Re-renders one frame solo after a transient batch failure (panic,
/// pool poison, corruption, or a batch-mate's timeout): bounded
/// attempts with exponential backoff, never scheduled past the frame's
/// deadline.
fn retry(ctx: &ShardCtx, pool: &Pool, frame: Frame, mut last_error: String) {
    let policy = ctx.cfg.retry;
    for n in 1..policy.max_attempts.max(1) {
        if frame.is_resolved() {
            // The watchdog timed this frame out: its budget is spent,
            // which is a scene failure even without a fresh attempt.
            return frame.end(End::BudgetSpent);
        }
        let backoff = policy.backoff(n);
        if Instant::now() + backoff >= frame.deadline_at {
            // A retry that lands past the deadline is wasted work: the
            // watchdog would discard it anyway.
            break;
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        frame.retrying(n, backoff);
        match attempt(ctx, pool, std::slice::from_ref(&frame), vec![None], n) {
            Attempt::Rendered(mut results) => {
                let result = results.pop().expect("one frame in, one result out");
                return frame.end(End::Rendered(result));
            }
            // Cancelled mid-retry: the top-of-loop check (or the
            // exhausted path below) observes the resolved slot.
            Attempt::Cancelled => {}
            // The retry itself failed — keep retrying (quarantine may
            // demote the backend between attempts, which is exactly
            // the recovery path for a corrupt one).
            Attempt::Failed(error) => last_error = error,
        }
    }
    // Attempts or wall-clock budget exhausted (the verdict loses if
    // the watchdog already resolved the handle).
    frame.end(End::RenderFailed(last_error));
}

/// How one render attempt ended (the `Render` trace event's outcome
/// code: 0 rendered, 1 cancelled, 2 corrupt, 3 panicked).
enum Attempt {
    Rendered(Vec<FrameResult>),
    Cancelled,
    /// Corrupt or panicked, with the error a caller would be shown.
    Failed(String),
}

/// Runs render attempt `n` of `group` — the one render path, for the
/// first batched attempt (`n == 0`) and every solo retry — and
/// classifies how it ended. Integrity verification failing is treated
/// exactly like a panic: the pixels were never published and every
/// member is retryable — corruption is transient until quarantine
/// says otherwise.
fn attempt(
    ctx: &ShardCtx,
    pool: &Pool,
    group: &[Frame],
    buffers: Vec<Option<Image>>,
    n: u32,
) -> Attempt {
    let cancel = CancelToken::new();
    *lock(&ctx.current_cancel) = Some(cancel.clone());
    for frame in group {
        frame.begin_attempt(&cancel);
    }
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Injected faults fire inside the attempt's unwind boundary,
        // exactly where a real mid-frame failure would.
        for frame in group {
            inject(frame, n, &cancel);
        }
        render_group(ctx, pool, group, buffers, &cancel, started)
    }));
    let render_ns = started.elapsed().as_nanos() as u64;
    let (code, outcome) = match outcome {
        Ok(Ok(results)) if !cancel.is_cancelled() => (0, Attempt::Rendered(results)),
        Ok(Ok(_)) => (1, Attempt::Cancelled),
        Ok(Err(err)) => {
            note_corrupt_render(&err, &ctx.meters);
            (2, Attempt::Failed(err.to_string()))
        }
        Err(payload) => (3, Attempt::Failed(panic_message(payload.as_ref()))),
    };
    match code {
        0 => ctx.poison_streak.store(0, Ordering::Relaxed),
        1 => {}
        _ => {
            ctx.poison_streak.fetch_add(1, Ordering::Relaxed);
        }
    }
    for frame in group {
        frame.attempted(render_ns, code);
    }
    outcome
}

/// Fires `frame`'s injected render fault, if it has one due on attempt
/// `n` (transient faults fire on the first attempt only, so replaying
/// a fault schedule is deterministic). The corruption family arms the
/// pipeline's chaos hooks — a supra-tolerance GEMM perturbation, a
/// poisoned pixel, poisoned cache anchors — which the integrity
/// machinery must then catch.
fn inject(frame: &Frame, n: u32, cancel: &CancelToken) {
    let first = n == 0;
    match frame.fault {
        Some(Fault::Stall(delay)) => cancellable_sleep(delay, cancel),
        Some(Fault::Panic) => panic!("injected render fault"),
        Some(Fault::PanicOnce) if first => panic!("injected render fault"),
        Some(Fault::CorruptGemm(seed)) if first => integrity::arm_corruption(seed),
        Some(Fault::CorruptPixels(seed)) if first => pipeline::arm_pixel_corruption(seed),
        Some(Fault::CorruptAnchor(seed)) if first => {
            lock(&frame.state.cache).corrupt_for_chaos(seed);
        }
        // Spent transient faults; shard-level faults were intercepted
        // (and cleared) at pop.
        _ => {}
    }
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

/// The render half of [`attempt`], which `started` it: cache lookups,
/// one fused multi-frame render, cache updates. `group` frames share
/// one scene and strategy (batch carving guarantees it). When `cancel`
/// fires mid-render the returned images are garbage (remaining rays
/// render as background) and the caller must not deliver them; cache
/// anchors are likewise withheld. Anchor inserts are charged against the
/// governor **before** insertion (a refused charge skips the anchor;
/// the frame still renders), so the process-wide byte budget is never
/// exceeded, even transiently.
fn render_group(
    ctx: &ShardCtx,
    pool: &Pool,
    group: &[Frame],
    buffers: Vec<Option<Image>>,
    cancel: &CancelToken,
    started: Instant,
) -> Result<Vec<FrameResult>, RenderError> {
    let (meters, governor) = (&ctx.meters, &ctx.governor);
    let n = group.len();
    let scene = &group[0].state.scene;
    let strategy = group[0].state.cfg.strategy;
    let is_ctf = matches!(strategy, SamplingStrategy::CoarseThenFocus { .. });

    // Cache lookups resolve against each session's anchors *before*
    // the job, so a batch behaves exactly like the same frames served
    // one at a time in admission order. Imports are validated: an
    // anchor whose digest or ray count no longer checks out is
    // discarded and the lookup counts as a miss (its bytes are
    // returned to the global budget).
    let mut cameras: Vec<Camera> = Vec::with_capacity(n);
    let mut cached_arcs: Vec<Option<Arc<CoarseFrame>>> = Vec::with_capacity(n);
    let mut outcomes: Vec<CacheOutcome> = Vec::with_capacity(n);
    for frame in group {
        let state = &frame.state;
        let intrinsics = frame.tier.apply(state.cfg.intrinsics);
        let expected_rays = intrinsics.width as usize * intrinsics.height as usize;
        cameras.push(Camera::new(intrinsics, frame.pose));
        if !is_ctf || !state.cfg.coherence.enabled {
            state.bypasses.fetch_add(1, Ordering::Relaxed);
            meters.cache_bypasses.inc();
            cached_arcs.push(None);
            outcomes.push(CacheOutcome::Bypass);
            continue;
        }
        let freed = {
            let mut cache = lock(&state.cache);
            let bytes_before = cache.bytes();
            let rejects_before = cache.rejected();
            let cached = cache.lookup(frame.tier, &frame.pose, &state.cfg.coherence, expected_rays);
            let (session_counter, shard_counter, outcome) = match cached {
                Some(_) => (&state.hits, meters.cache_hits, CacheOutcome::Hit),
                None => (&state.misses, meters.cache_misses, CacheOutcome::Miss),
            };
            session_counter.fetch_add(1, Ordering::Relaxed);
            shard_counter.inc();
            cached_arcs.push(cached);
            outcomes.push(outcome);
            meters.cache_rejects.add(cache.rejected() - rejects_before);
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
    // (the frame's end, cache anchoring) ever sees the poisoned output.
    let exports = renderer.render_frames(&cameras, &cached_refs, &mut images, &mut stats)?;
    let finished = Instant::now();

    // Anchor fresh coarse passes, in admission order; the LRU tail is
    // evicted past the session's byte budget and counted. A cancelled
    // render anchors nothing: its coarse exports are as suspect as its
    // images (the token is sticky, so a fire during the render is
    // still visible here). Every insert is charged against the global
    // budget *first*: a refused charge (nothing left to evict
    // anywhere) skips the anchor and the frame still resolves.
    for ((frame, export), outcome) in group.iter().zip(exports).zip(&outcomes) {
        let Some(coarse) = export else { continue };
        if *outcome != CacheOutcome::Miss || cancel.is_cancelled() {
            continue;
        }
        let state = &frame.state;
        let coarse = Arc::new(coarse);
        let cost = coarse_entry_cost(&coarse);
        if !governor.try_charge(cost as u64) {
            continue;
        }
        let (bytes_before, bytes_after, evicted) = {
            let mut cache = lock(&state.cache);
            let bytes_before = cache.bytes();
            let entry = CacheEntry {
                pose: frame.pose,
                tier: frame.tier,
                coarse,
            };
            let evicted = cache.insert(entry, state.cfg.cache_budget_bytes);
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
            meters.cache_evictions.add(evicted);
        }
    }

    Ok(images
        .into_iter()
        .zip(stats)
        .zip(outcomes)
        .zip(group)
        .map(|(((image, stats), cache), frame)| FrameResult {
            image,
            stats,
            serve: ServeStats {
                queue_wait: started.saturating_duration_since(frame.submitted()),
                render_time: finished.saturating_duration_since(started),
                latency: finished.saturating_duration_since(frame.submitted()),
                cache,
                batched_frames: n,
                shard: ctx.index,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;
    use crate::server::FrameRequest;
    use crate::session::{SceneState, SessionConfig};
    use crate::supervisor::{BreakerConfig, CircuitBreaker};
    use gen_nerf::config::ModelConfig;
    use gen_nerf::model::GenNerfModel;
    use gen_nerf_geometry::{Intrinsics, Pose, Vec3};
    use gen_nerf_scene::{Dataset, DatasetKind};
    use gen_nerf_telemetry::Clock;

    /// A worker-less shard context and one session per requested
    /// frame, all on one scene and strategy (so they may co-batch).
    fn fixture(sessions: usize) -> (Arc<ShardCtx>, Vec<Arc<SessionState>>) {
        let instance = gen_nerf_telemetry::next_instance_id();
        let ctx = ShardCtx::new(
            instance,
            0,
            1,
            ServerConfig::default(),
            Arc::new(Supervisor::spawn(instance, Clock::real())),
            Arc::new(MemoryGovernor::new(&GovernorConfig::default())),
        );
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 3, 1, 8, 5);
        let scene = Arc::new(SceneState::prepare(
            GenNerfModel::new(ModelConfig::fast()),
            &ds.source_views,
            ds.scene.bounds,
            ds.scene.background,
        ));
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
        let cfg = SessionConfig::new(
            Intrinsics::from_fov(6, 6, 0.6),
            SamplingStrategy::Uniform { n: 3 },
        );
        let states = (0..sessions)
            .map(|_| {
                Arc::new(SessionState::new(
                    Arc::clone(&scene),
                    cfg,
                    Arc::clone(&ctx),
                    Arc::clone(&breaker),
                ))
            })
            .collect();
        (ctx, states)
    }

    /// Admits one frame per session — the first carrying `fault` —
    /// and pops them all, as the worker would for one batch.
    fn running_group(
        ctx: &ShardCtx,
        states: &[Arc<SessionState>],
        fault: Option<Fault>,
    ) -> Vec<Frame> {
        let pose = Pose::look_at(Vec3::new(3.0, 1.0, 3.0), Vec3::ZERO, Vec3::Y);
        for (i, state) in states.iter().enumerate() {
            let mut req = FrameRequest::new(pose);
            req.fault = fault.filter(|_| i == 0);
            let mut frame = Frame::submit(i as u64, Arc::clone(state), req);
            frame.claim();
            frame.admit(false);
            assert!(ctx.push(frame).is_none());
        }
        std::iter::from_fn(|| ctx.pop_mate(|_| true)).collect()
    }

    /// Runs attempt `n` over a fresh group of `size` frames with
    /// `fault` on the first; returns the outcome code every member's
    /// `Render` event carried, the error of a failed attempt, and the
    /// poison streak afterwards (it starts at 5).
    fn classify(size: usize, n: u32, fault: Option<Fault>) -> (u64, Option<String>, u32) {
        let (ctx, states) = fixture(size);
        let pool = Pool::new(1);
        let group = running_group(&ctx, &states, fault);
        assert_eq!(group.len(), size);
        ctx.poison_streak.store(5, Ordering::Relaxed);
        ctx.meters.ring.drain();
        let outcome = std::thread::scope(|scope| {
            if matches!(fault, Some(Fault::Stall(_))) {
                // Whoever fires the token — a member's timeout, a
                // condemnation, a drain — does so once the attempt
                // published it.
                scope.spawn(|| {
                    while lock(&ctx.current_cancel).is_none() {
                        std::thread::yield_now();
                    }
                    ctx.cancel_current();
                });
            }
            attempt(&ctx, &pool, &group, vec![None; size], n)
        });
        let codes: Vec<u64> = ctx
            .meters
            .ring
            .drain()
            .iter()
            .filter(|e| e.kind == EventKind::Render)
            .map(|e| e.b)
            .collect();
        assert_eq!(codes.len(), size, "one Render event per member");
        assert!(codes.iter().all(|&c| c == codes[0]), "members disagree");
        let error = match outcome {
            Attempt::Rendered(results) => {
                assert_eq!((codes[0], results.len()), (0, size));
                None
            }
            Attempt::Cancelled => {
                assert_eq!(codes[0], 1);
                None
            }
            Attempt::Failed(error) => Some(error),
        };
        let streak = ctx.poison_streak.load(Ordering::Relaxed);
        for frame in group {
            frame.end(End::Shutdown);
        }
        (codes[0], error, streak)
    }

    #[test]
    fn attempt_classifies_a_batch_of_three_and_a_solo_retry_alike() {
        // (The corrupt class needs the process-wide integrity hooks,
        // which would bleed into this binary's other tests; the
        // serialised `tests/serve_integrity.rs` pins it.)
        let injected = Some("injected render fault".to_string());
        let rows = [
            // A clean render clears the streak.
            (None, (0, None, 0)),
            // A cancelled one leaves it alone.
            (Some(Fault::Stall(Duration::from_secs(60))), (1, None, 5)),
            // A panicked one extends it.
            (Some(Fault::Panic), (3, injected, 6)),
        ];
        for (fault, want) in rows {
            assert_eq!(classify(3, 0, fault), want, "batch of three, {fault:?}");
            assert_eq!(classify(1, 1, fault), want, "solo retry, {fault:?}");
        }
    }
}
