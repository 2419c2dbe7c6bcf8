//! One shard: a scheduler thread owning a scene's request queue and
//! the fused batch execution path, rendering as worker 0 of the
//! server's one render pool.
//!
//! The server routes every session of a scene to one shard (see
//! [`registry`](crate::registry)). Everything the front end, the
//! health sweep and the worker coordinate through lives in one
//! [`ShardCtx`] behind one `Arc` — configuration, metrics (the beat
//! count among them), the queue — so a restart replaces the thread,
//! never the state, and a session reaches its shard without the
//! topology lock.
//!
//! **Scheduling.** The worker drains the bounded queue through a
//! [`FairQueue`] — class priority, round-robin across sessions, FIFO
//! per session — carves the largest batch of frames that can legally
//! share one fused render (same scene `Arc`, same strategy, at most
//! one frame of any cache-enabled session), and claims its tile lists
//! on the server's one [`Pool`] itself, as worker 0. The pool's crew
//! helps whichever shards are rendering, rotating over their jobs, so
//! a busy scene renders on the whole pool while the others are idle,
//! and a short job never waits for a long one: its own shard thread
//! runs it.
//!
//! **Render attempts.** [`attempt`] is the one function that renders:
//! the first, batched attempt and every solo retry. An attempt runs
//! under a fresh [`CancelToken`] — each member's current attempt token,
//! so any member's timeout fires it, and published on the context so a
//! condemnation or a drain deadline can fire it from outside — inside
//! `catch_unwind`, through the
//! pipeline's fallible API. It ends ok, cancelled (the render unwinds
//! cooperatively at the next chunk boundary and its output is
//! discarded), corrupt (a GEMM checksum miscompare or a tripped stage
//! sentinel failed it *before* any pixel was published) or panicked.
//! Anything but ok sends each member through [`retry`]: solo
//! re-renders under the [`RetryPolicy`](crate::RetryPolicy), bitwise
//! identical to a clean render by the kernel batch-independence
//! contract, never scheduled past the frame's deadline. Repeated GEMM
//! miscompares while a SIMD kernel backend is active quarantine that
//! backend process-wide ([`integrity::quarantine`]); a render fails
//! only for faults found in its own tiles, so each miscompare is one
//! strike however many shards render beside it. Nothing a frame
//! does can take the shard down, and every frame ends through
//! [`Frame::end`], which tells the scene's breaker what happened.
//!
//! **Supervision.** The server's one supervision thread runs
//! [`supervision_pass`] over its shards. For each, the pass first times
//! out the shard's overdue frames, queued and running alike
//! ([`ShardCtx::time_out_overdue`]): every frame the shard owns is in its
//! queue or on its running list, so no other registry of frames
//! exists. It then runs the shard's health sweep.
//!
//! **Self-healing.** The worker *incarnation* popping from the queue
//! only counts beats — one per pop, per attempt start and per finished
//! batch — and never reads the clock. The health sweep
//! ([`Shard::sweep`]) reads that count together with the in-flight
//! attempt's tile ticks, restarts its clock whenever the pair moved or
//! the shard was idle, and condemns the shard Wedged when it has been
//! busy with the pair standing still for the heartbeat budget (a slow
//! batch keeps ticking; a wedged one does not), or Dead when its thread
//! finished with the queue open. A condemned incarnation is
//! invalidated (the incarnation counter in the queue state bumps, so
//! the old loop exits at its next queue observation instead of racing
//! its replacement), its in-flight attempt is cancelled — the frames
//! it could not render go back to the front of their lanes in their
//! original order, never retried beside the replacement — and a fresh
//! worker spawns on the same queue under an exponential per-shard
//! restart backoff. Past [`MAX_RESTARTS`] the shard is declared down:
//! queued frames end with
//! [`ServeError::ShardDown`](crate::ServeError::ShardDown) and further
//! submissions shed at admission. Session anchors live in the server's
//! [`AnchorCache`], not in the worker, so they survive restarts, and
//! the cache's one budget holds even across a restart storm
//! re-anchoring them.

use crate::admission::{class_index, FairQueue, N_CLASSES};
use crate::cache::{AnchorCache, CacheMeters, CACHE_EVENTS};
use crate::frame::{End, Frame, FrameCore, Shed};
use crate::health::{CondemnReason, MAX_RESTARTS};
use crate::server::{CacheOutcome, Fault, FrameResult, ServeStats, ServerConfig};
use crate::session::DeadlineClass;
use crate::supervisor::WatchMeters;
use crate::{lock, wait, wait_until};
use gen_nerf::pipeline::{self, CoarseFrame, RenderError, RenderStats, Renderer};
use gen_nerf_geometry::Camera;
use gen_nerf_nn::kernels::{self, integrity, Backend};
use gen_nerf_parallel::{CancelToken, Pool};
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{
    Clock, Counter, EventKind, Gauge, Histogram, TraceRing, DEFAULT_RING_CAPACITY,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The queue half of a shard's context, under one lock: the fair
/// queue itself, the close latch, the worker incarnation counter that
/// invalidates condemned loops, and the frames out of the queue but not
/// yet ended. Between them, the queue and the running list hold every
/// frame the shard owns.
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
    running: Vec<Arc<FrameCore>>,
}

impl QueueState {
    /// Takes `core` off the running list.
    fn stop_running(&mut self, core: &Arc<FrameCore>) {
        let at = self.running.iter().position(|c| Arc::ptr_eq(c, core));
        self.running
            .swap_remove(at.expect("a running frame is listed"));
    }
}

/// Admission window: at most this many queued frames are coalesced
/// into one fused multi-frame render.
const MAX_BATCH: usize = 8;

/// A shard's context: everything the server front end, the health
/// sweep, and the worker incarnation(s) coordinate through.
pub(crate) struct ShardCtx {
    pub index: usize,
    /// The server's render pool, shared by every shard.
    pub crew: Arc<Pool>,
    pub cfg: ServerConfig,
    /// The server's clock, which frame deadlines are set and checked on.
    pub clock: Clock,
    /// The server's anchor cache, shared by every shard.
    pub cache: Arc<AnchorCache>,
    /// Shared with every frame's core, which books into it after the
    /// rest of the context may be gone.
    pub meters: Arc<Meters>,
    queue: Mutex<QueueState>,
    /// Signals the worker: new frame, close, or incarnation bump.
    ready: Condvar,
    /// Signals a drain: the last running frame ended, or another
    /// thread emptied the queue.
    idle: Condvar,
    /// Latched when the restart budget is exhausted: submissions shed
    /// with [`ServeError::ShardDown`](crate::ServeError::ShardDown),
    /// queued frames fail.
    pub down: AtomicBool,
    /// The cancel token of the attempt currently rendering, for the
    /// sweep (condemnation) and `drain` to fire from outside the
    /// worker thread, and for the sweep to read its tile progress.
    current_cancel: Mutex<Option<CancelToken>>,
}

impl ShardCtx {
    /// The context of shard `index` of server `instance`, rendering on
    /// `crew` under the server's `cfg`.
    pub(crate) fn new(
        instance: u64,
        index: usize,
        crew: Arc<Pool>,
        cfg: ServerConfig,
        watch: WatchMeters,
        clock: Clock,
        cache: Arc<AnchorCache>,
    ) -> Arc<Self> {
        Arc::new(Self {
            index,
            crew,
            cfg,
            clock,
            meters: Arc::new(Meters::new(instance, index, watch)),
            queue: Mutex::new(QueueState {
                q: FairQueue::new(),
                closed: false,
                incarnation: 0,
                running: Vec::new(),
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
            down: AtomicBool::new(false),
            current_cancel: Mutex::new(None),
            cache,
        })
    }

    /// Records a shard-scoped lifecycle event (frame id 0, `a` = this
    /// shard's index).
    fn event(&self, kind: EventKind, b: u64) {
        self.meters.ring.record(0, kind, self.index as u64, b);
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

    /// Blocks for the next frame in policy order, and beats for the
    /// pop. `None` once the queue is closed and empty, or the moment
    /// the shared incarnation counter moved past `incarnation` (push,
    /// close and condemn all notify).
    fn pop_head(&self, incarnation: u64) -> Option<Frame> {
        let mut frame = {
            let mut qs = lock(&self.queue);
            loop {
                if qs.incarnation != incarnation {
                    return None;
                }
                if let Some(frame) = qs.q.pop() {
                    qs.running.push(Arc::clone(frame.core()));
                    self.meters.heartbeats.inc();
                    break frame;
                }
                if qs.closed {
                    return None;
                }
                qs = wait(&self.ready, qs);
            }
        };
        frame.pop();
        Some(frame)
    }

    /// Pops the next lane head `take` accepts, without blocking.
    pub(crate) fn pop_mate(&self, take: impl FnMut(&Frame) -> bool) -> Option<Frame> {
        let mut frame = {
            let mut qs = lock(&self.queue);
            let frame = qs.q.pop_next(take)?;
            qs.running.push(Arc::clone(frame.core()));
            frame
        };
        frame.pop();
        Some(frame)
    }

    /// Hands a popped-but-unexecuted head back at the **front** of its
    /// lane (FIFO preserved) — what a dying or wedged incarnation does
    /// so its frame is re-served, not lost.
    fn requeue_front(&self, mut frame: Frame) {
        frame.requeued();
        let mut qs = lock(&self.queue);
        qs.stop_running(frame.core());
        qs.q.push_front(frame.class(), frame.session, frame);
        drop(qs);
        self.ready.notify_one();
    }

    /// Whether incarnation `incarnation` was condemned: the shared
    /// counter moved past it.
    fn condemned(&self, incarnation: u64) -> bool {
        lock(&self.queue).incarnation != incarnation
    }

    /// What a condemned incarnation does with the frames it could not
    /// render: the ones whose deadline already answered for end
    /// [`End::BudgetSpent`], the rest go back to the front of their
    /// lanes in their original order, for the replacement to serve.
    fn hand_back(&self, frames: Vec<Frame>) {
        for frame in frames.into_iter().rev() {
            if frame.is_resolved() {
                frame.end(End::BudgetSpent);
            } else {
                self.requeue_front(frame);
            }
        }
    }

    /// Running frame `core` ended ([`Frame::end`] calls this).
    pub(crate) fn settle(&self, core: &Arc<FrameCore>) {
        let mut qs = lock(&self.queue);
        qs.stop_running(core);
        if qs.running.is_empty() {
            self.idle.notify_all();
        }
    }

    /// The deadline half of a supervision pass: times out every frame
    /// whose deadline passed by `now`, queued or running, and returns
    /// the earliest deadline still pending. Takes only the queue lock
    /// (released before any timeout) and the frames' own locks, so it
    /// runs even while a shutdown joins the shard's threads.
    pub(crate) fn time_out_overdue(&self, now: Instant) -> Option<Instant> {
        let mut overdue = Vec::new();
        let mut next: Option<Instant> = None;
        {
            let qs = lock(&self.queue);
            for core in qs.q.iter().map(Frame::core).chain(&qs.running) {
                match core.deadline {
                    Some(deadline) if deadline <= now => overdue.push(Arc::clone(core)),
                    Some(deadline) => next = Some(next.map_or(deadline, |n| n.min(deadline))),
                    None => {}
                }
            }
        }
        // A frame that already resolved stays overdue until its owner
        // ends it; timing it out again is a no-op.
        for core in overdue {
            core.time_out(now);
        }
        next
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

    /// Whether the shard has work (queued or running), and whether its
    /// queue is closed.
    fn busy_closed(&self) -> (bool, bool) {
        let qs = lock(&self.queue);
        (!qs.q.is_empty() || !qs.running.is_empty(), qs.closed)
    }

    /// Fires the cancel token of the attempt in flight, if any.
    fn cancel_current(&self) {
        if let Some(cancel) = lock(&self.current_cancel).take() {
            cancel.cancel();
        }
    }

    /// Blocks until `idle` holds of the queue state or `until` passes
    /// (`None`: no bound); returns whether it held.
    fn wait_idle(&self, until: Option<Instant>, idle: impl Fn(&QueueState) -> bool) -> bool {
        wait_until(&self.idle, lock(&self.queue), until, idle).1
    }

    /// This shard's half of [`RenderServer::drain`](crate::RenderServer::drain):
    /// lets the worker finish naturally until `hard_deadline` (`None`:
    /// for as long as it takes), then
    /// force-fails what is still queued with
    /// [`ServeError::Draining`](crate::ServeError::Draining), cancels
    /// the attempt in flight and gives the worker `grace` to unwind
    /// (its frames end through the retry path). Returns whether the
    /// shard went idle, and how many frames it force-failed.
    pub(crate) fn drain(&self, hard_deadline: Option<Instant>, grace: Duration) -> (bool, u64) {
        let idle = |qs: &QueueState| qs.q.is_empty() && qs.running.is_empty();
        let mut drained = self.wait_idle(hard_deadline, idle);
        let mut forced = 0;
        if !drained {
            forced = self.end_queued(|| End::DrainForced);
            self.cancel_current();
            let until = Instant::now().checked_add(grace);
            drained = self.wait_idle(until, |qs| qs.running.is_empty());
            // A condemned/wedged incarnation may have requeued its
            // frame during the grace wait; sweep those stragglers too.
            forced += self.end_queued(|| End::DrainForced);
        }
        self.event(EventKind::Drain, forced);
        (drained, forced)
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
    /// `serve_frames_shed_total{reason}`: one row per [`Shed`] reason
    /// in declaration order, one column per deadline class
    /// ([`class_index`](crate::admission::class_index)). Only the
    /// queue's row holds two counters; every other row holds its one
    /// counter twice. Read it through [`Meters::shed`].
    pub sheds: [[Counter; N_CLASSES]; 5],
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
    /// Beats counted by this shard's workers: one per pop, per attempt
    /// start and per finished batch (`serve_heartbeats_total`) — the
    /// progress count the health sweep reads.
    pub heartbeats: Counter,
    /// Worker restarts performed (`serve_shard_restarts_total`).
    pub restarts: Counter,
    /// Condemnations by reason, indexed by [`CondemnReason::code`]
    /// (`serve_shard_condemned_total{reason}`).
    pub condemned: [Counter; 2],
    /// Frames handed back to the queue by an incarnation that could not
    /// render them (`serve_requeued_frames_total`).
    pub requeued: Counter,
    /// Frames force-failed at a drain deadline
    /// (`serve_drain_forced_total`).
    pub drain_forced: Counter,
    /// Submit→resolve latency of successfully rendered frames, per
    /// deadline class by
    /// [`class_index`](crate::admission::class_index)
    /// (`serve_latency_ns`).
    pub latency: [Histogram; N_CLASSES],
    /// Coarse-cache events of this shard's sessions, moved by the
    /// [`AnchorCache`] alone.
    pub cache: CacheMeters,
    /// The server-wide deadline meters (`{instance}` only).
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
            sheds: [
                ["draining"; N_CLASSES],
                ["shard_down"; N_CLASSES],
                ["memory"; N_CLASSES],
                ["interactive", "best_effort"],
                ["circuit"; N_CLASSES],
            ]
            .map(|row| row.map(shed)),
            rendered: counter("serve_frames_rendered_total"),
            failed: counter("serve_frames_failed_total"),
            retries: counter("serve_retries_total"),
            batches: counter("serve_batches_total"),
            corrupt: counter("serve_corrupt_renders_total"),
            quarantined: counter("serve_quarantine_events_total"),
            heartbeats: counter("serve_heartbeats_total"),
            restarts: counter("serve_shard_restarts_total"),
            condemned: ["wedged", "dead"].map(condemned),
            requeued: counter("serve_requeued_frames_total"),
            drain_forced: counter("serve_drain_forced_total"),
            latency: ["interactive", "best_effort"].map(latency),
            cache: CACHE_EVENTS.map(|event| with("serve_cache_events_total", "outcome", event)),
            watch,
            ring: TraceRing::new(DEFAULT_RING_CAPACITY),
        }
    }

    /// The shed counter of `reason` (`class` splits the queue's).
    pub(crate) fn shed(&self, reason: Shed, class: DeadlineClass) -> Counter {
        self.sheds[reason as usize][class_index(class)]
    }
}

/// One shard's state and counters, as reported by
/// [`RenderServer::shard_health`](crate::RenderServer::shard_health):
/// its `{instance, shard}` registry counters read through the shard's
/// own handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the server.
    pub shard: usize,
    /// Worker incarnation: 0 for the original spawn, bumped once per
    /// condemnation.
    pub incarnation: u64,
    /// Worker restarts over the shard's lifetime
    /// (`serve_shard_restarts_total`).
    pub restarts: u64,
    /// Whether the shard has been declared down (restart budget
    /// exhausted); a down shard rejects submissions with
    /// [`ServeError::ShardDown`](crate::ServeError::ShardDown).
    pub down: bool,
    /// Frames admitted and still waiting in the shard queue
    /// (`serve_queue_depth`).
    pub queued: usize,
    /// Individual re-render attempts after a transient failure (panic,
    /// corruption, or a batch-mate's timeout cancelling the batch).
    pub retries: u64,
    /// Fused render jobs executed.
    pub batches: u64,
    /// Render attempts caught by the integrity machinery (ABFT GEMM
    /// checksum or a stage sentinel) before any pixel was published.
    /// Each detection feeds the retry path, so a transient corruption
    /// shows up here *and* in `retries`.
    pub corrupt_renders: u64,
    /// Times this shard tripped the process-wide kernel quarantine,
    /// demoting the active SIMD backend to scalar for good.
    pub quarantine_events: u64,
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
    /// Restarts since the last successfully rendered frame.
    consecutive_restarts: u32,
    /// `rendered` counter at the last condemnation — progress beyond
    /// it proves the restart took and resets the give-up counter.
    rendered_at_condemn: u64,
    /// While a respawn backs off: when the shard was condemned, and for
    /// how long (compared, never added, so no backoff overflows).
    backoff: Option<(Instant, Duration)>,
    /// The progress reading at the sweep's last look: the beat count
    /// and the in-flight attempt's tile ticks.
    seen: (u64, Option<u64>),
    /// When the reading last moved or the shard was last idle.
    seen_at: Instant,
}

impl Shard {
    /// Spawns the first worker incarnation on a fresh context.
    pub(crate) fn spawn(ctx: Arc<ShardCtx>) -> Self {
        Self {
            worker: Some(Self::spawn_worker(&ctx, 0)),
            seen_at: ctx.clock.now(),
            ctx,
            graveyard: Vec::new(),
            consecutive_restarts: 0,
            rendered_at_condemn: 0,
            backoff: None,
            seen: (0, None),
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

    /// The health half of a supervision pass, at `now` on the server's
    /// clock. A closed shard is left alone: its incarnations are being
    /// joined, and a respawn then would never be.
    pub(crate) fn sweep(&mut self, now: Instant) {
        let (busy, closed) = self.ctx.busy_closed();
        if closed {
            return;
        }
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
        if let Some((since, backoff)) = self.backoff {
            // Condemned, backing off: no fresh verdicts until the
            // replacement is running.
            if now.saturating_duration_since(since) >= backoff {
                self.backoff = None;
                self.respawn(now);
            }
            return;
        }
        // The clock restarts whenever the reading moved or the shard
        // had nothing to do. A batch that keeps filling tiles moves it;
        // a wedged incarnation does not.
        let ticks = lock(&self.ctx.current_cancel)
            .as_ref()
            .map(CancelToken::progress);
        let reading = (self.ctx.meters.heartbeats.get(), ticks);
        if !busy || reading != self.seen {
            self.seen = reading;
            self.seen_at = now;
        }
        let still = now.saturating_duration_since(self.seen_at);
        if self.worker.as_ref().is_some_and(|w| w.is_finished()) {
            self.condemn(CondemnReason::Dead, now);
        } else if busy && still > self.ctx.cfg.health.budget() {
            self.condemn(CondemnReason::Wedged, now);
        }
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
        self.consecutive_restarts += 1;
        self.rendered_at_condemn = ctx.meters.rendered.get();
        if self.consecutive_restarts > MAX_RESTARTS {
            // Restart budget exhausted: latch down, fail everything
            // queued.
            ctx.down.store(true, Ordering::Relaxed);
            ctx.end_queued(|| End::ShardDown);
        } else {
            let backoff = ctx.cfg.health.backoff_for(self.consecutive_restarts);
            self.backoff = Some((now, backoff));
        }
    }

    /// Starts the replacement incarnation at `now` on the queue as it
    /// stands, with a full heartbeat budget before its first verdict.
    fn respawn(&mut self, now: Instant) {
        let ctx = &self.ctx;
        let incarnation = lock(&ctx.queue).incarnation;
        self.seen_at = now;
        ctx.meters.restarts.inc();
        ctx.event(EventKind::Restart, incarnation);
        self.worker = Some(Self::spawn_worker(ctx, incarnation));
    }

    /// This shard's state and counters.
    pub(crate) fn stats(&self) -> ShardStats {
        let ctx = &self.ctx;
        let m = &ctx.meters;
        ShardStats {
            shard: ctx.index,
            incarnation: lock(&ctx.queue).incarnation,
            restarts: m.restarts.get(),
            down: ctx.down.load(Ordering::Relaxed),
            queued: m.depth.get().max(0) as usize,
            retries: m.retries.get(),
            batches: m.batches.get(),
            corrupt_renders: m.corrupt.get(),
            quarantine_events: m.quarantined.get(),
        }
    }

    /// Closes the queue (the worker drains it, then exits) and hands
    /// over every incarnation's thread, for the caller to join in the
    /// order given. Graveyard first: a wedged incarnation finishes its
    /// sleep and requeues its frame, which the live worker (joined
    /// next) may still serve.
    pub(crate) fn close(&mut self) -> Vec<std::thread::JoinHandle<()>> {
        lock(&self.ctx.queue).closed = true;
        self.ctx.ready.notify_all();
        self.graveyard.drain(..).chain(self.worker.take()).collect()
    }
}

impl Drop for Shard {
    /// Joins whatever [`Shard::close`] hands over, then fails the frames
    /// no incarnation will ever serve (down shard, late requeues).
    fn drop(&mut self) {
        for handle in self.close() {
            let _ = handle.join();
        }
        self.ctx.end_queued(|| End::Shutdown);
    }
}

/// One supervision pass over `shards` at `now`: each times out its
/// overdue frames, then its health sweep judges it. Returns when the
/// next pass is due: `interval` after `now`, or the earliest pending
/// deadline if that comes first.
pub(crate) fn supervision_pass(shards: &mut [Shard], now: Instant, interval: Duration) -> Instant {
    let mut next = now + interval;
    for shard in shards {
        if let Some(deadline) = shard.ctx.time_out_overdue(now) {
            next = next.min(deadline);
        }
        shard.sweep(now);
    }
    next
}

/// Miscompares under a SIMD backend tolerated before that backend is
/// quarantined process-wide. One miscompare can be a stray bit flip;
/// a repeat offender is a broken unit.
const QUARANTINE_AFTER: u32 = 3;

/// Books one corrupt render attempt and applies the quarantine policy:
/// a GEMM-stage miscompare while a non-scalar backend is active counts
/// a strike against that backend ([`integrity::strike`], process-wide
/// on purpose: quarantine is a verdict about the *hardware/kernel*
/// pair, not about any one scene's queue), and strike
/// `QUARANTINE_AFTER` latches the process-wide quarantine (`kernels`
/// demotes to scalar, sticky). One strike per detected miscompare: a
/// render's verdict holds only faults found in its own tiles, so a
/// fault fails exactly the one attempt that owns it, however many
/// renders overlap it. Sentinel trips never strike — a non-finite
/// pixel indicts the math upstream, not the SIMD unit specifically.
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
    let strikes = integrity::strike();
    if strikes >= QUARANTINE_AFTER && integrity::quarantine(backend) {
        meters.quarantined.inc();
        eprintln!(
            "gen-nerf-serve: quarantined kernel backend {backend:?} after \
             {strikes} GEMM miscompares (last: {detail}); serving on scalar"
        );
    }
}

/// Why a popped frame must end without a render, if it must: its
/// deadline already answered for it (it timed out while queued), or
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
/// batch around it, render, repeat — beating at every pop and batch.
/// Exits when the queue closes and empties, or the moment the
/// shared incarnation counter moves past the one this loop was spawned
/// at (a condemnation installed a replacement).
fn shard_loop(ctx: &ShardCtx, incarnation: u64) {
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
                // Uncancellable on purpose — no beat while the frame
                // counts as running, which is exactly the Wedged
                // signature.
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
        while group.len() < MAX_BATCH {
            let lead = &group[0].state;
            let mate = ctx.pop_mate(|frame| {
                if matches!(frame.fault, Some(Fault::KillShard | Fault::WedgeShard(_))) {
                    return false;
                }
                unrenderable(frame).is_some()
                    || (Arc::ptr_eq(&frame.state.scene, &lead.scene)
                        && frame.state.cfg.strategy == lead.cfg.strategy
                        // At most one frame of a caching session per
                        // job, so its cache updates land in order.
                        && !(frame.state.cfg.caches()
                            && group.iter().any(|g| g.session == frame.session)))
            });
            let Some(mate) = mate else { break };
            match unrenderable(&mate) {
                Some(end) => mate.end(end),
                None => group.push(mate),
            }
        }
        execute_group(ctx, group, incarnation);
        ctx.meters.heartbeats.inc();
    }
}

/// Renders one admission batch as a single fused multi-frame job and
/// ends its frames. Anything but a clean attempt fails over to
/// per-frame [`retry`] recovery instead of killing the shard — unless
/// `incarnation` was condemned meanwhile: then the members still owed
/// a render are handed back ([`ShardCtx::hand_back`]) for the
/// replacement, never retried beside it.
fn execute_group(ctx: &ShardCtx, mut group: Vec<Frame>, incarnation: u64) {
    ctx.meters.batches.inc();
    for frame in &group {
        frame.batched(group.len());
    }
    // Take the recycled buffers out of the requests up front: they are
    // moved (not cloned) into the render and returned in the results.
    let buffers = group.iter_mut().map(|frame| frame.reuse.take()).collect();
    let error = match attempt(ctx, &group, buffers, 0) {
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
    let mut members = group.into_iter();
    while let Some(frame) = members.next() {
        if let Some(frame) = retry(ctx, frame, error.clone(), incarnation) {
            ctx.hand_back(std::iter::once(frame).chain(members).collect());
            return;
        }
    }
}

/// Re-renders one frame solo after a transient batch failure (panic,
/// corruption, or a batch-mate's timeout): bounded
/// attempts with exponential backoff, never scheduled past the frame's
/// deadline. Returns the frame unended, for the caller to hand back,
/// the moment `incarnation` is found condemned before an attempt.
fn retry(ctx: &ShardCtx, frame: Frame, mut last_error: String, incarnation: u64) -> Option<Frame> {
    let policy = ctx.cfg.retry;
    for n in 1..policy.max_attempts.max(1) {
        if frame.is_resolved() {
            // The frame timed out: its budget is spent,
            // which is a scene failure even without a fresh attempt.
            frame.end(End::BudgetSpent);
            return None;
        }
        if ctx.condemned(incarnation) {
            return Some(frame);
        }
        let backoff = policy.backoff(n);
        if frame
            .core()
            .deadline
            .is_some_and(|d| Instant::now() + backoff >= d)
        {
            // A retry that lands past the deadline is wasted work: its
            // timeout would discard it anyway.
            break;
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
            if ctx.condemned(incarnation) {
                return Some(frame);
            }
        }
        frame.retrying(n, backoff);
        match attempt(ctx, std::slice::from_ref(&frame), vec![None], n) {
            Attempt::Rendered(mut results) => {
                let result = results.pop().expect("one frame in, one result out");
                frame.end(End::Rendered(result));
                return None;
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
    // a timeout already resolved the handle).
    frame.end(End::RenderFailed(last_error));
    None
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
fn attempt(ctx: &ShardCtx, group: &[Frame], buffers: Vec<Option<Image>>, n: u32) -> Attempt {
    let cancel = CancelToken::new();
    *lock(&ctx.current_cancel) = Some(cancel.clone());
    // A fresh token starts at zero ticks; the beat keeps the sweep's
    // reading from repeating an older one.
    ctx.meters.heartbeats.inc();
    for frame in group {
        frame.begin_attempt(&cancel);
    }
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Injected faults fire inside the attempt's unwind boundary,
        // exactly where a real mid-frame failure would.
        for frame in group {
            inject(ctx, frame, n, &cancel);
        }
        render_group(ctx, group, buffers, &cancel, started)
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
fn inject(ctx: &ShardCtx, frame: &Frame, n: u32, cancel: &CancelToken) {
    let first = n == 0;
    match frame.fault {
        Some(Fault::Stall(delay)) => cancellable_sleep(delay, cancel),
        Some(Fault::Panic) => panic!("injected render fault"),
        Some(Fault::PanicOnce) if first => panic!("injected render fault"),
        Some(Fault::CorruptGemm(seed)) if first => integrity::arm_corruption(seed),
        Some(Fault::CorruptPixels(seed)) if first => pipeline::arm_pixel_corruption(seed),
        Some(Fault::CorruptAnchor(seed)) if first => {
            ctx.cache.corrupt_for_chaos(frame.session, seed)
        }
        // Spent transient faults; shard-level faults were intercepted
        // (and cleared) at pop.
        _ => {}
    }
}

/// Sleeps `total` in small slices, returning early the moment `cancel`
/// fires — a stalled worker yields its slot within ~5 ms of its
/// timeout instead of parking for the full stall.
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

/// The render half of [`attempt`], which `started` it: one cache
/// lookup per frame, one fused multi-frame render, one anchor per miss.
/// `group` frames share one scene and strategy (batch carving
/// guarantees it). When `cancel` fires mid-render the returned images
/// are garbage (remaining rays render as background) and the caller
/// must not deliver them; their coarse passes are likewise not
/// anchored.
fn render_group(
    ctx: &ShardCtx,
    group: &[Frame],
    buffers: Vec<Option<Image>>,
    cancel: &CancelToken,
    started: Instant,
) -> Result<Vec<FrameResult>, RenderError> {
    let n = group.len();
    let scene = &group[0].state.scene;
    let strategy = group[0].state.cfg.strategy;
    let cameras: Vec<Camera> = group
        .iter()
        .map(|frame| Camera::new(frame.tier.apply(frame.state.cfg.intrinsics), frame.pose))
        .collect();
    // Lookups resolve against each session's anchors *before* the job,
    // so a batch behaves exactly like the same frames served one at a
    // time in admission order.
    let (outcomes, cached): (Vec<CacheOutcome>, Vec<Option<Arc<CoarseFrame>>>) = group
        .iter()
        .map(|frame| ctx.cache.lookup(frame.session, frame.tier, &frame.pose))
        .unzip();

    let renderer = Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
    .with_pool(&ctx.crew)
    .with_cancel(cancel);

    let mut images: Vec<Image> = buffers
        .into_iter()
        .map(|buf| buf.unwrap_or_else(|| Image::new(0, 0)))
        .collect();
    let mut stats = vec![RenderStats::default(); n];
    let cached_refs: Vec<Option<&CoarseFrame>> = cached.iter().map(|c| c.as_deref()).collect();
    // The fallible render: a GEMM miscompare or a tripped sentinel
    // surfaces here as `RenderError::Corrupt` — nothing downstream
    // (the frame's end, cache anchoring) ever sees the poisoned output.
    let exports = renderer.render_frames(&cameras, &cached_refs, &mut images, &mut stats)?;
    let finished = Instant::now();

    // Anchor fresh coarse passes, in admission order. A cancelled
    // render anchors nothing: its coarse exports are as suspect as its
    // images (the token is sticky, so a fire during the render is
    // still visible here).
    for ((frame, export), outcome) in group.iter().zip(exports).zip(&outcomes) {
        let Some(coarse) = export else { continue };
        if *outcome == CacheOutcome::Miss && !cancel.is_cancelled() {
            ctx.cache
                .anchor(frame.session, frame.pose, frame.tier, coarse);
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
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
    text.unwrap_or_else(|| "render panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{GovernorConfig, DEFAULT_CACHE_BUDGET_BYTES};
    use crate::server::{FrameRequest, ServeError};
    use crate::session::{SceneState, SessionConfig, SessionState};
    use crate::supervisor::{BreakerConfig, CircuitBreaker, SupervisorConfig};
    use gen_nerf::config::ModelConfig;
    use gen_nerf::config::SamplingStrategy;
    use gen_nerf::model::GenNerfModel;
    use gen_nerf_geometry::{Intrinsics, Pose, Vec3};
    use gen_nerf_scene::{Dataset, DatasetKind};
    use gen_nerf_telemetry::Clock;

    /// A worker-less shard context on `clock` and one session per
    /// requested frame, all on one scene and strategy (so they may
    /// co-batch).
    fn fixture(sessions: usize, clock: Clock) -> (Arc<ShardCtx>, Vec<Arc<SessionState>>) {
        fixture_with(sessions, clock, ServerConfig::default())
    }

    /// [`fixture`] under `cfg`.
    fn fixture_with(
        sessions: usize,
        clock: Clock,
        cfg: ServerConfig,
    ) -> (Arc<ShardCtx>, Vec<Arc<SessionState>>) {
        let instance = gen_nerf_telemetry::next_instance_id();
        let ctx = ShardCtx::new(
            instance,
            0,
            Arc::new(Pool::new(1)),
            cfg,
            WatchMeters::new(instance),
            clock,
            Arc::new(AnchorCache::new(
                &GovernorConfig::default(),
                0,
                DEFAULT_CACHE_BUDGET_BYTES,
            )),
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
            .map(|i| {
                ctx.cache.open(i as u64, cfg, ctx.meters.cache);
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

    /// An admitted frame of `state`'s session `i`, carrying `fault`.
    fn admitted(i: usize, state: &Arc<SessionState>, fault: Option<Fault>) -> Frame {
        let pose = Pose::look_at(Vec3::new(3.0, 1.0, 3.0), Vec3::ZERO, Vec3::Y);
        let mut req = FrameRequest::new(pose);
        req.fault = fault;
        let mut frame = Frame::submit(i as u64, Arc::clone(state), req);
        frame.claim();
        frame.admit(false);
        frame
    }

    /// Admits one frame per session — the first carrying `fault` —
    /// and pops them all, as the worker would for one batch.
    fn running_group(
        ctx: &ShardCtx,
        states: &[Arc<SessionState>],
        fault: Option<Fault>,
    ) -> Vec<Frame> {
        for (i, state) in states.iter().enumerate() {
            let frame = admitted(i, state, fault.filter(|_| i == 0));
            assert!(ctx.push(frame).is_none());
        }
        std::iter::from_fn(|| ctx.pop_mate(|_| true)).collect()
    }

    /// Runs attempt `n` over a fresh group of `size` frames with
    /// `fault` on the first; returns the outcome code every member's
    /// `Render` event carried and the error of a failed attempt.
    fn classify(size: usize, n: u32, fault: Option<Fault>) -> (u64, Option<String>) {
        let (ctx, states) = fixture(size, Clock::real());
        let group = running_group(&ctx, &states, fault);
        assert_eq!(group.len(), size);
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
            attempt(&ctx, &group, vec![None; size], n)
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
        for frame in group {
            frame.end(End::Shutdown);
        }
        (codes[0], error)
    }

    #[test]
    fn attempt_classifies_a_batch_of_three_and_a_solo_retry_alike() {
        // (The corrupt class needs the process-wide integrity hooks,
        // which would bleed into this binary's other tests; the
        // serialised `tests/serve_integrity.rs` pins it.)
        let injected = Some("injected render fault".to_string());
        let rows = [
            (None, (0, None)),
            (Some(Fault::Stall(Duration::from_secs(60))), (1, None)),
            (Some(Fault::Panic), (3, injected)),
        ];
        for (fault, want) in rows {
            assert_eq!(classify(3, 0, fault), want, "batch of three, {fault:?}");
            assert_eq!(classify(1, 1, fault), want, "solo retry, {fault:?}");
        }
    }

    #[test]
    fn a_condemned_incarnation_hands_its_frames_back_in_order() {
        // A batch of three whose stalled first member is cancelled by a
        // condemnation: nothing is retried beside the replacement, and
        // every member goes back to the queue in its original order.
        let (ctx, states) = fixture(3, Clock::real());
        let group = running_group(&ctx, &states, Some(Fault::Stall(Duration::from_secs(60))));
        let sessions: Vec<u64> = group.iter().map(|frame| frame.session).collect();
        ctx.meters.ring.drain();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while lock(&ctx.current_cancel).is_none() {
                    std::thread::yield_now();
                }
                // What `Shard::condemn` does to the incarnation in flight.
                lock(&ctx.queue).incarnation += 1;
                ctx.cancel_current();
            });
            execute_group(&ctx, group, 0);
        });
        let requeued: Vec<Frame> = std::iter::from_fn(|| ctx.pop_mate(|_| true)).collect();
        let order: Vec<u64> = requeued.iter().map(|frame| frame.session).collect();
        assert_eq!(order, sessions, "handed back out of order");
        assert_eq!(ctx.meters.retries.get(), 0);
        let events = ctx.meters.ring.drain();
        assert!(events.iter().all(|e| e.kind != EventKind::Retry));
        let requeues = events.iter().filter(|e| e.kind == EventKind::Requeue);
        assert_eq!(requeues.count(), 3);
        for frame in requeued {
            frame.end(End::Shutdown);
        }
    }

    #[test]
    fn an_idle_shard_is_not_wedged_by_its_next_frame() {
        // The sweep's clock restarts while the shard has nothing to do.
        // After ten budgets of idle virtual time, a frame the sweep sees
        // queued before the worker pops it still has a whole budget.
        let clock = Clock::virtual_clock();
        let (ctx, states) = fixture(1, clock.clone());
        let budget = ctx.cfg.health.heartbeat_budget;
        let mut shard = Shard::spawn(Arc::clone(&ctx));
        for _ in 0..10 {
            clock.advance(budget);
            shard.sweep(clock.now());
        }
        // Queue the frame without waking the worker.
        let frame = admitted(0, &states[0], None);
        let core = Arc::clone(frame.core());
        lock(&ctx.queue).q.push(frame.class(), frame.session, frame);
        clock.advance(ctx.cfg.health.sweep_interval());
        shard.sweep(clock.now());
        assert_eq!(shard.backoff, None, "condemned a shard that just woke");
        ctx.ready.notify_one();
        let rendered = core.wait(Some(Instant::now() + Duration::from_secs(60)));
        assert!(matches!(rendered, Some(Ok(_))), "the frame renders");
        assert_eq!(shard.stats().restarts, 0);
        assert_eq!(ctx.meters.condemned.map(|c| c.get()), [0, 0]);
    }

    /// A shard with no worker thread: only the test moves its frames,
    /// and only the test runs its passes.
    fn workerless(ctx: &Arc<ShardCtx>) -> Shard {
        Shard {
            ctx: Arc::clone(ctx),
            worker: None,
            graveyard: Vec::new(),
            consecutive_restarts: 0,
            rendered_at_condemn: 0,
            backoff: None,
            seen: (0, None),
            seen_at: ctx.clock.now(),
        }
    }

    #[test]
    fn a_pass_times_out_queued_and_running_frames_exactly_at_their_deadlines() {
        // Virtual time, no thread, no sleep: one frame running under an
        // attempt token, and one submitted 1 ms later, queued behind it.
        let clock = Clock::virtual_clock();
        let budget = Duration::from_millis(400);
        let cfg = ServerConfig {
            supervision: SupervisorConfig {
                interactive_budget: budget,
                best_effort_budget: budget,
            },
            ..ServerConfig::default()
        };
        let interval = cfg.health.pass_interval(&cfg.supervision);
        assert_eq!(interval, Duration::from_millis(10));
        let (ctx, states) = fixture_with(2, clock.clone(), cfg);
        let mut shard = workerless(&ctx);
        let mut pass = |now| supervision_pass(std::slice::from_mut(&mut shard), now, interval);
        assert!(ctx.push(admitted(0, &states[0], None)).is_none());
        let running = ctx.pop_mate(|_| true).expect("just pushed");
        let cancel = CancelToken::new();
        running.begin_attempt(&cancel);
        clock.advance(Duration::from_millis(1));
        assert!(ctx.push(admitted(1, &states[1], None)).is_none());
        let queued = Arc::clone(lock(&ctx.queue).q.iter().next().expect("queued").core());
        let running_at = running.core().deadline.expect("a bounded budget");
        let queued_at = queued.deadline.expect("a bounded budget");
        assert_eq!(queued_at - running_at, Duration::from_millis(1));

        // Nothing is due: the next pass is one interval away.
        let now = clock.now();
        assert_eq!(pass(now), now + interval);
        let timed_out = |core: &FrameCore| {
            let outcome = core.take();
            matches!(outcome, Some(Err(ServeError::TimedOut { .. })))
        };
        // One nanosecond early nothing resolves, and the pass wakes at
        // the deadline, which comes before the next sweep.
        clock.advance(running_at - clock.now() - Duration::from_nanos(1));
        assert_eq!(pass(clock.now()), running_at);
        assert!(!running.is_resolved() && !cancel.is_cancelled());
        clock.advance(Duration::from_nanos(1));
        assert_eq!(pass(clock.now()), queued_at, "the queued deadline is next");
        assert!(timed_out(running.core()), "the running frame times out");
        assert!(cancel.is_cancelled(), "its attempt token fired");

        clock.advance(queued_at - clock.now() - Duration::from_nanos(1));
        assert_eq!(pass(clock.now()), queued_at);
        assert!(!queued.is_resolved());
        clock.advance(Duration::from_nanos(1));
        let now = clock.now();
        assert_eq!(pass(now), now + interval, "nothing left pending");
        assert!(timed_out(&queued), "the queued frame times out");

        // Their owners end them as the worker would.
        running.end(End::BudgetSpent);
        let stale = ctx.pop_mate(|_| true).expect("still queued");
        assert!(unrenderable(&stale).is_some());
        stale.end(End::Stale);
        assert_eq!(ctx.meters.watch.timed_out[0].get(), 2);
        assert_eq!(ctx.drain(Some(Instant::now()), Duration::ZERO), (true, 0));
    }
}
