//! One shard: a scheduler thread owning a scene's request queue and
//! the fused batch execution path, rendering as worker 0 of the
//! server's one render pool.
//!
//! The server routes every session of a scene to one shard (see
//! [`RenderServer`](crate::RenderServer)). Everything the front end, the
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
//! **Render attempts.** [`attempt`] is the one function that renders,
//! and [`shard_loop`] the one loop that calls it: for the first, batched
//! attempt and for every retry alike. An attempt runs under a fresh
//! [`CancelToken`] — each member's current attempt token,
//! so any member's timeout fires it, and published on the context so a
//! condemnation or a drain deadline can fire it from outside — inside
//! `catch_unwind`, through the
//! pipeline's fallible API. It ends ok, cancelled (the render unwinds
//! cooperatively at the next chunk boundary and its output is
//! discarded), corrupt (a GEMM checksum miscompare or a tripped stage
//! sentinel failed it *before* any pixel was published) or panicked.
//! Anything but ok requeues each member ([`ShardCtx::requeue_failed`]):
//! back at the front of its lane with one more failed attempt and a
//! `not_before` instant a [`RetryPolicy`](crate::RetryPolicy) backoff
//! ahead, never at or past the frame's deadline and never past the
//! attempt cap. No pop takes a lane head before its `not_before`, so a
//! backing-off frame parks only its own session's lane and the shard
//! thread serves the others meanwhile; when only backing-off heads are
//! left, the pop waits until the earliest is due. A
//! retry rides alone, and is bitwise identical to a clean render by the
//! kernel batch-independence contract. Repeated GEMM
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
//! exists — `remove_session` waits on the same two places for a
//! session's frames ([`ShardCtx::wait_session`]). It then runs the
//! shard's health sweep.
//!
//! **Self-healing.** The worker *incarnation* popping from the queue
//! only counts beats — one per pop, per attempt start and per finished
//! batch. The health sweep ([`Shard::sweep`]) reads that count together
//! with the in-flight attempt's tile ticks, restarts its clock whenever
//! the pair moved or the shard was idle — nothing running and no lane
//! head due, so a shard waiting out a retry backoff is idle — and
//! condemns the shard Wedged when it has been busy with the pair
//! standing still for the heartbeat budget (a slow
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
use crate::{lock, wait, wait_timeout, wait_until};
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

    /// Pops the next lane head `take` accepts, skipping heads that wait
    /// out a backoff, onto the running list. The clock is read only
    /// when some head carries a `not_before`.
    fn pop_ready(&mut self, clock: &Clock, mut take: impl FnMut(&Frame) -> bool) -> Option<Frame> {
        let mut now = None;
        let frame = self.q.pop_next(|frame| {
            let due = |at| at <= *now.get_or_insert_with(|| clock.now());
            frame.not_before.is_none_or(due) && take(frame)
        })?;
        self.running.push(Arc::clone(frame.core()));
        Some(frame)
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
        clock: Clock,
        cache: Arc<AnchorCache>,
    ) -> Arc<Self> {
        Arc::new(Self {
            index,
            crew,
            cfg,
            clock,
            meters: Arc::new(Meters::new(instance, index)),
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
        qs.q.push(frame.class(), frame.session(), frame);
        drop(qs);
        self.ready.notify_one();
        None
    }

    /// Blocks for the next frame in policy order whose backoff is over,
    /// and beats for the pop. While only backing-off heads are left it
    /// waits until the earliest is due. `None` once the queue is closed
    /// and empty, or the moment the shared incarnation counter moved
    /// past `incarnation` (push, close and condemn all notify).
    fn pop_head(&self, incarnation: u64) -> Option<Frame> {
        let mut frame = {
            let mut qs = lock(&self.queue);
            loop {
                if qs.incarnation != incarnation {
                    return None;
                }
                if let Some(frame) = qs.pop_ready(&self.clock, |_| true) {
                    self.meters.heartbeats.inc();
                    break frame;
                }
                qs = match qs.q.heads().filter_map(|frame| frame.not_before).min() {
                    Some(due) => {
                        let left = due.saturating_duration_since(self.clock.now());
                        wait_timeout(&self.ready, qs, left)
                    }
                    None if qs.closed => return None,
                    None => wait(&self.ready, qs),
                };
            }
        };
        frame.pop();
        Some(frame)
    }

    /// Pops the next lane head `take` accepts whose backoff is over,
    /// without blocking.
    pub(crate) fn pop_mate(&self, take: impl FnMut(&Frame) -> bool) -> Option<Frame> {
        let mut frame = lock(&self.queue).pop_ready(&self.clock, take)?;
        frame.pop();
        Some(frame)
    }

    /// Grows the largest batch around `head` that may share one fused
    /// render: compatible lane heads, first attempts only. A retry
    /// rides alone. Frames that cannot render are popped so they end
    /// instead of parking their lane forever; frames carrying a
    /// shard-level fault wait to become head so the fault fires against
    /// a lone frame.
    fn batch_around(&self, head: Frame) -> Vec<Frame> {
        let mut group = vec![head];
        while group[0].attempts == 0 && group.len() < MAX_BATCH {
            let lead = &group[0].state;
            let mate = self.pop_mate(|frame| {
                if frame.attempts > 0
                    || matches!(frame.fault, Some(Fault::KillShard | Fault::WedgeShard(_)))
                {
                    return false;
                }
                unrenderable(frame).is_some()
                    || (Arc::ptr_eq(&frame.state.scene, &lead.scene)
                        && frame.state.cfg.strategy == lead.cfg.strategy
                        // At most one frame of a caching session per
                        // job, so its cache updates land in order.
                        && !(frame.state.cfg.caches()
                            && group.iter().any(|g| g.session() == frame.session())))
            });
            let Some(mate) = mate else { break };
            match unrenderable(&mate) {
                Some(end) => mate.end(end),
                None => group.push(mate),
            }
        }
        group
    }

    /// Puts running `frame` back at the **front** of its lane (FIFO
    /// preserved), for a pop to take again: as a retry when `retry`
    /// holds its backoff ([`Frame::requeued`]), else handed back — what a
    /// dying, wedged or condemned incarnation does so its frame is
    /// re-served, not lost.
    fn requeue_front(&self, mut frame: Frame, retry: Option<(Duration, Instant)>) {
        frame.requeued(retry);
        let mut qs = lock(&self.queue);
        qs.stop_running(frame.core());
        qs.q.push_front(frame.class(), frame.session(), frame);
        drop(qs);
        self.ready.notify_one();
        // A drain's grace wait may be waiting for the running list to
        // empty.
        self.idle.notify_all();
    }

    /// Ends or requeues the members of an attempt that incarnation
    /// `incarnation` failed, keeping their order in their lanes. A
    /// member whose deadline already answered for it ends
    /// [`End::BudgetSpent`]; one out of attempts ends
    /// [`End::RenderFailed`] with `error`. The rest go back to the front
    /// of their lanes: handed back for the replacement to serve if the
    /// incarnation was condemned meanwhile, never retried beside it;
    /// else as a retry, not popped before its backoff is over — unless
    /// that lands at or past its deadline, where the timeout would
    /// discard the work: then it ends [`End::RenderFailed`] at once.
    fn requeue_failed(&self, group: Vec<Frame>, error: &str, incarnation: u64) {
        let policy = self.cfg.retry;
        let now = self.clock.now();
        let condemned = lock(&self.queue).incarnation != incarnation;
        // Back to front, each at its lane's front: the order holds.
        for frame in group.into_iter().rev() {
            let backoff = policy.backoff(frame.attempts + 1);
            let retry = (!condemned).then_some((backoff, now + backoff));
            let in_time = |(_, at)| frame.core().deadline.is_none_or(|d| at < d);
            if frame.is_resolved() {
                frame.end(End::BudgetSpent);
            } else if frame.attempts + 1 < policy.max_attempts && retry.is_none_or(in_time) {
                self.requeue_front(frame, retry);
            } else {
                frame.end(End::RenderFailed(error.to_string()));
            }
        }
    }

    /// Takes running `frame` off the running list ([`Frame::end`]
    /// calls this). Wakes the `idle` waiters only when that empties the list
    /// or the frame's session was removed: what `drain` and
    /// [`ShardCtx::wait_session`] wait for.
    pub(crate) fn settle(&self, frame: &Frame) {
        let mut qs = lock(&self.queue);
        qs.stop_running(frame.core());
        if qs.running.is_empty() || frame.state.is_removed() {
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
    /// returns how many there were. The frames end under the queue
    /// lock, so no waiter sees one gone from the queue unresolved.
    fn end_queued(&self, end: impl Fn() -> End) -> u64 {
        let mut qs = lock(&self.queue);
        let drained = qs.q.drain();
        let n = drained.len() as u64;
        for (_, _, frame) in drained {
            frame.end(end());
        }
        drop(qs);
        self.idle.notify_all();
        n
    }

    /// Whether the shard has work at `now` — a frame running, or a lane
    /// head whose backoff is over — and whether its queue is closed. A
    /// shard whose queued frames all wait behind a backoff is idle.
    fn busy_closed(&self, now: Instant) -> (bool, bool) {
        let qs = lock(&self.queue);
        let ready = |frame: &Frame| frame.not_before.is_none_or(|at| at <= now);
        let busy = !qs.running.is_empty() || qs.q.heads().any(ready);
        (busy, qs.closed)
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

    /// Blocks until no frame of `session` is queued or running, or
    /// `until` passes (`None`: no bound); returns whether none is.
    pub(crate) fn wait_session(&self, session: u64, until: Option<Instant>) -> bool {
        self.wait_idle(until, |qs| {
            let mut cores = qs.q.iter().map(Frame::core).chain(&qs.running);
            !cores.any(|core| core.session == session)
        })
    }

    /// This shard's half of [`RenderServer::drain`](crate::RenderServer::drain):
    /// lets the worker finish naturally until `hard_deadline` (`None`:
    /// for as long as it takes), then
    /// force-fails what is still queued with
    /// [`ServeError::Draining`](crate::ServeError::Draining), cancels
    /// the attempt in flight and gives the worker `grace` to unwind (its
    /// frames go back to the queue, and are force-failed too). Returns
    /// whether the shard went idle, and how many frames it
    /// force-failed.
    pub(crate) fn drain(&self, hard_deadline: Option<Instant>, grace: Duration) -> (bool, u64) {
        let idle = |qs: &QueueState| qs.q.is_empty() && qs.running.is_empty();
        let mut drained = self.wait_idle(hard_deadline, idle);
        let mut forced = 0;
        if !drained {
            forced = self.end_queued(|| End::DrainForced);
            self.cancel_current();
            let until = Instant::now().checked_add(grace);
            drained = self.wait_idle(until, |qs| qs.running.is_empty());
            // The cancelled attempt requeued its frames, and a
            // condemned/wedged incarnation may have handed its frame
            // back, during the grace wait; sweep those stragglers too.
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
    /// Frames admitted and not yet resolved (`serve_frames_in_flight`).
    pub in_flight: Gauge,
    /// Frames resolved by their deadline, per class
    /// (`serve_frames_timed_out_total{class}`).
    pub timed_out: [Counter; N_CLASSES],
    /// This shard's frame-lifecycle event ring.
    pub ring: TraceRing,
}

impl Meters {
    /// Registers this shard's metric set under `{instance, shard}`.
    fn new(instance: u64, shard: usize) -> Self {
        let inst = instance.to_string();
        let idx = shard.to_string();
        let labels: [(&'static str, &str); 2] = [("instance", &inst), ("shard", &idx)];
        let classes = ["interactive", "best_effort"];
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
                classes,
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
            latency: classes.map(latency),
            cache: CACHE_EVENTS.map(|event| with("serve_cache_events_total", "outcome", event)),
            in_flight: gen_nerf_telemetry::gauge("serve_frames_in_flight", &labels),
            timed_out: classes.map(|class| with("serve_frames_timed_out_total", "class", class)),
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
        let (busy, closed) = self.ctx.busy_closed(now);
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
/// deadline already answered for it (it timed out while queued — for a
/// retry, its budget is spent), or its session was removed while it
/// waited.
fn unrenderable(frame: &Frame) -> Option<End> {
    if frame.is_resolved() {
        Some(if frame.attempts > 0 {
            End::BudgetSpent
        } else {
            End::Stale
        })
    } else if frame.state.is_removed() {
        Some(End::SessionGone)
    } else {
        None
    }
}

/// The shard event loop, one *incarnation* of it: block on the shared
/// queue, dequeue the policy-ordered head — a first attempt or a retry
/// whose backoff is over — grow the largest compatible batch around it,
/// render, repeat, beating at every pop and batch. The only loop that
/// renders. Exits when the queue closes and empties, or the moment the
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
                ctx.requeue_front(head, None);
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
                ctx.requeue_front(head, None);
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
        execute_group(ctx, ctx.batch_around(head), incarnation);
        ctx.meters.heartbeats.inc();
    }
}

/// Renders one group — a fused batch of first attempts, or one retry —
/// as a single job and ends its frames. A failed attempt requeues or
/// ends each member ([`ShardCtx::requeue_failed`]) instead of killing
/// the shard; if `incarnation` was condemned meanwhile, the members
/// still owed a render are handed back for the replacement.
fn execute_group(ctx: &ShardCtx, mut group: Vec<Frame>, incarnation: u64) {
    if group[0].attempts == 0 {
        ctx.meters.batches.inc();
        for frame in &group {
            frame.batched(group.len());
        }
    }
    // Take the recycled buffers out of the requests up front: they are
    // moved (not cloned) into the render and returned in the results.
    let buffers = group.iter_mut().map(|frame| frame.reuse.take()).collect();
    let error = match attempt(ctx, &group, buffers) {
        Attempt::Rendered(results) => {
            for (frame, result) in group.into_iter().zip(results) {
                frame.end(End::Rendered(result));
            }
            return;
        }
        // A cancelled batch renders its remaining rays as background:
        // every member's output is suspect, so none may be delivered.
        Attempt::Cancelled => "render cancelled by a timed-out batch member".to_string(),
        Attempt::Failed(error) => error,
    };
    ctx.requeue_failed(group, &error, incarnation);
}

/// How one render attempt ended (the `Render` trace event's outcome
/// code: 0 rendered, 1 cancelled, 2 corrupt, 3 panicked).
enum Attempt {
    Rendered(Vec<FrameResult>),
    Cancelled,
    /// Corrupt or panicked, with the error a caller would be shown.
    Failed(String),
}

/// Runs one render attempt of `group` — the one render path, for the
/// first batched attempt and every solo retry — and classifies how it
/// ended. Integrity verification failing is treated
/// exactly like a panic: the pixels were never published and every
/// member is retryable — corruption is transient until quarantine
/// says otherwise.
fn attempt(ctx: &ShardCtx, group: &[Frame], buffers: Vec<Option<Image>>) -> Attempt {
    let cancel = CancelToken::new();
    *lock(&ctx.current_cancel) = Some(cancel.clone());
    // A fresh token starts at zero ticks; the beat keeps the sweep's
    // reading from repeating an older one.
    ctx.meters.heartbeats.inc();
    for frame in group {
        frame.begin_attempt(&cancel);
    }
    let started = ctx.clock.now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Injected faults fire inside the attempt's unwind boundary,
        // exactly where a real mid-frame failure would.
        for frame in group {
            inject(ctx, frame, &cancel);
        }
        render_group(ctx, group, buffers, &cancel, started)
    }));
    let render_ns = ctx.clock.now().duration_since(started).as_nanos() as u64;
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

/// Fires `frame`'s injected render fault, if it has one due on this
/// attempt (transient faults fire on the first attempt only, so
/// replaying a fault schedule is deterministic). A panic fault unwinds
/// with `resume_unwind`, which skips the process's panic hook: an
/// injected fault reports nothing and, with `RUST_BACKTRACE` set,
/// captures no backtrace on the shard thread. The corruption family
/// arms the pipeline's chaos hooks — a supra-tolerance GEMM
/// perturbation, a poisoned pixel, poisoned cache anchors — which the
/// integrity machinery must then catch.
fn inject(ctx: &ShardCtx, frame: &Frame, cancel: &CancelToken) {
    let injected_panic = || std::panic::resume_unwind(Box::new("injected render fault"));
    match (frame.fault, frame.attempts == 0) {
        (Some(Fault::Stall(delay)), _) => cancellable_sleep(delay, cancel),
        (Some(Fault::Panic), _) | (Some(Fault::PanicOnce), true) => injected_panic(),
        (Some(Fault::CorruptGemm(seed)), true) => integrity::arm_corruption(seed),
        (Some(Fault::CorruptPixels(seed)), true) => pipeline::arm_pixel_corruption(seed),
        (Some(Fault::CorruptAnchor(seed)), true) => {
            ctx.cache.corrupt_for_chaos(frame.session(), seed)
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
        .map(|frame| ctx.cache.lookup(frame.session(), frame.tier, &frame.pose))
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
    let finished = ctx.clock.now();

    // Anchor fresh coarse passes, in admission order. A cancelled
    // render anchors nothing: its coarse exports are as suspect as its
    // images (the token is sticky, so a fire during the render is
    // still visible here).
    for ((frame, export), outcome) in group.iter().zip(exports).zip(&outcomes) {
        let Some(coarse) = export else { continue };
        if *outcome == CacheOutcome::Miss && !cancel.is_cancelled() {
            ctx.cache
                .anchor(frame.session(), frame.pose, frame.tier, coarse);
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
    use crate::health::HealthConfig;
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

    /// Runs an attempt over a fresh group of `size` frames, each with
    /// `attempts` failed attempts behind it and `fault` on the first;
    /// returns the outcome code every member's `Render` event carried
    /// and the error of a failed attempt.
    fn classify(size: usize, attempts: u32, fault: Option<Fault>) -> (u64, Option<String>) {
        let (ctx, states) = fixture(size, Clock::real());
        let mut group = running_group(&ctx, &states, fault);
        assert_eq!(group.len(), size);
        for frame in &mut group {
            frame.attempts = attempts;
        }
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
            attempt(&ctx, &group, vec![None; size])
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
    fn an_injected_panic_skips_the_panic_hook() {
        // The process's panic hook reports on the panicking thread —
        // with a backtrace when `RUST_BACKTRACE` asks for one — so an
        // injected fault must not reach it on a shard thread. The hook
        // below counts only the probe thread's panics and passes every
        // other one on to the hook it replaced.
        type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
        const PROBE: &str = "injected-panic-probe";
        let previous: Arc<Hook> = Arc::new(std::panic::take_hook());
        let hooked = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::panic::set_hook({
            let (previous, hooked) = (Arc::clone(&previous), Arc::clone(&hooked));
            Box::new(move |info| match std::thread::current().name() {
                Some(PROBE) => drop(hooked.fetch_add(1, Ordering::SeqCst)),
                _ => previous(info),
            })
        });
        let (ctx, states) = fixture(1, Clock::real());
        let probe = std::thread::Builder::new()
            .name(PROBE.into())
            .spawn(move || {
                let frame = admitted(0, &states[0], Some(Fault::Panic));
                let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inject(&ctx, &frame, &CancelToken::new())
                }));
                frame.end(End::Shutdown);
                fired.map_err(|payload| panic_message(payload.as_ref()))
            });
        let fired = probe.expect("spawn the probe").join();
        std::panic::set_hook(Box::new(move |info| previous(info)));
        assert_eq!(
            fired.expect("the probe thread returned"),
            Err("injected render fault".to_string())
        );
        assert_eq!(hooked.load(Ordering::SeqCst), 0, "the panic hook ran");
    }

    #[test]
    fn a_condemned_incarnation_hands_its_frames_back_in_order() {
        // A batch of three whose stalled first member is cancelled by a
        // condemnation: nothing is retried beside the replacement, and
        // every member goes back to the queue in its original order.
        let (ctx, states) = fixture(3, Clock::real());
        let group = running_group(&ctx, &states, Some(Fault::Stall(Duration::from_secs(60))));
        let sessions: Vec<u64> = group.iter().map(|frame| frame.session()).collect();
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
        let order: Vec<u64> = requeued.iter().map(|frame| frame.session()).collect();
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
        lock(&ctx.queue)
            .q
            .push(frame.class(), frame.session(), frame);
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
        assert_eq!(ctx.meters.timed_out[0].get(), 2);
        assert_eq!(ctx.drain(Some(Instant::now()), Duration::ZERO), (true, 0));
    }

    /// A fixture on a virtual clock whose session 0 submits one frame
    /// carrying `fault`, which the test pops and fails once, as the
    /// worker would: the frame is back in the queue, waiting out the
    /// first backoff. Returns the shard, the sessions, the frame's core
    /// and when it is due.
    fn backing_off(
        sessions: usize,
        cfg: ServerConfig,
        fault: Fault,
    ) -> (
        Arc<ShardCtx>,
        Vec<Arc<SessionState>>,
        Arc<FrameCore>,
        Instant,
    ) {
        let (ctx, states) = fixture_with(sessions, Clock::virtual_clock(), cfg);
        assert!(ctx.push(admitted(0, &states[0], Some(fault))).is_none());
        let frame = ctx.pop_head(0).expect("just pushed");
        let core = Arc::clone(frame.core());
        execute_group(&ctx, ctx.batch_around(frame), 0);
        let due = ctx.clock.now() + Duration::from_millis(10);
        (ctx, states, core, due)
    }

    /// How many of `events` are of `kind`.
    fn count(events: &[gen_nerf_telemetry::TraceEvent], kind: EventKind) -> usize {
        events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn a_retry_waits_in_its_lane_while_other_sessions_pop_and_then_rides_alone() {
        let (ctx, states, core, due) = backing_off(2, ServerConfig::default(), Fault::PanicOnce);
        assert_eq!(ctx.meters.retries.get(), 1);
        assert!(!core.is_resolved());
        assert!(ctx.push(admitted(1, &states[1], None)).is_none());

        // One nanosecond early the retry is skipped, and the other
        // session's frame, queued behind it, pops and renders.
        ctx.clock
            .advance(due - ctx.clock.now() - Duration::from_nanos(1));
        let other = ctx.pop_head(0).expect("the other session's frame is ready");
        assert_eq!((other.session(), other.attempts), (1, 0));
        execute_group(&ctx, ctx.batch_around(other), 0);
        assert_eq!(ctx.meters.rendered.get(), 1);
        let mut qs = lock(&ctx.queue);
        assert!(qs.pop_ready(&ctx.clock, |_| true).is_none(), "popped early");
        let wakes = qs.q.heads().filter_map(|frame| frame.not_before).min();
        assert_eq!(wakes, Some(due), "the pop waits for another instant");
        drop(qs);

        // At `due` it pops, and a compatible first attempt of the other
        // session does not join it.
        assert!(ctx.push(admitted(1, &states[1], None)).is_none());
        ctx.clock.advance(Duration::from_nanos(1));
        let retry = ctx.pop_head(0).expect("due");
        assert!(Arc::ptr_eq(retry.core(), &core));
        let group = ctx.batch_around(retry);
        assert_eq!(group.len(), 1, "a retry rode in a batch");
        ctx.meters.ring.drain();
        execute_group(&ctx, group, 0);
        match core.take() {
            Some(Ok(result)) => assert_eq!(result.serve.batched_frames, 1),
            other => panic!("the retry resolved to {other:?}"),
        }
        // A retry books no batch, and no second Batch event.
        assert_eq!(ctx.meters.batches.get(), 2);
        let events = ctx.meters.ring.drain();
        assert_eq!(count(&events, EventKind::Batch), 0);
        assert_eq!(count(&events, EventKind::Render), 1);
        assert_eq!(ctx.end_queued(|| End::Shutdown), 1);
    }

    #[test]
    fn a_retry_due_at_or_past_the_deadline_fails_at_once() {
        for (budget_ms, retries) in [(10, 0), (15, 1)] {
            let budget = Duration::from_millis(budget_ms);
            let cfg = ServerConfig {
                supervision: SupervisorConfig {
                    interactive_budget: budget,
                    best_effort_budget: budget,
                },
                ..ServerConfig::default()
            };
            // Due at 10 ms: exactly the 10 ms deadline fails at once;
            // before the 15 ms one it retries, and that retry's 20 ms
            // backoff would land at 30 ms.
            let (ctx, _states, core, due) = backing_off(1, cfg, Fault::Panic);
            if retries == 1 {
                ctx.clock.advance(due - ctx.clock.now());
                let retry = ctx.pop_head(0).expect("due");
                execute_group(&ctx, ctx.batch_around(retry), 0);
            }
            match core.take() {
                Some(Err(ServeError::Failed(msg))) => assert_eq!(msg, "injected render fault"),
                other => panic!("{budget_ms} ms: resolved to {other:?}"),
            }
            assert!(ctx.clock.now() < core.deadline.expect("bounded"));
            assert_eq!(ctx.meters.retries.get(), retries, "{budget_ms} ms");
            assert!(lock(&ctx.queue).q.is_empty());
        }
    }

    #[test]
    fn the_attempt_cap_ends_a_retried_frame_failed() {
        let (ctx, _states, core, due) = backing_off(1, ServerConfig::default(), Fault::Panic);
        let events = ctx.meters.ring.drain();
        // The second attempt fails too, and waits out twice the
        // backoff; the third is the last.
        ctx.clock.advance(due - ctx.clock.now());
        let retry = ctx.pop_head(0).expect("due");
        execute_group(&ctx, ctx.batch_around(retry), 0);
        assert!(!core.is_resolved());
        ctx.clock.advance(Duration::from_millis(20));
        let retry = ctx.pop_head(0).expect("due");
        assert_eq!(retry.attempts, 2);
        execute_group(&ctx, ctx.batch_around(retry), 0);
        match core.take() {
            Some(Err(ServeError::Failed(msg))) => assert_eq!(msg, "injected render fault"),
            other => panic!("resolved to {other:?}"),
        }
        let events = [events, ctx.meters.ring.drain()].concat();
        assert_eq!(ctx.meters.retries.get(), 2);
        assert_eq!(count(&events, EventKind::Retry), 2);
        assert_eq!(count(&events, EventKind::Render), 3);
        assert_eq!(count(&events, EventKind::Batch), 1);
        assert_eq!(ctx.meters.batches.get(), 1);
        assert!(lock(&ctx.queue).q.is_empty());
    }

    #[test]
    fn a_shard_waiting_out_a_backoff_is_idle_not_wedged() {
        // A heartbeat budget below the first backoff: a shard whose
        // only queued frame backs off has nothing to do, so two budgets
        // of sweeps condemn nothing.
        let cfg = ServerConfig {
            health: HealthConfig {
                heartbeat_budget: Duration::from_millis(5),
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        };
        let (ctx, _states, _core, _due) = backing_off(1, cfg, Fault::Panic);
        let mut shard = workerless(&ctx);
        for _ in 0..4 {
            ctx.clock.advance(Duration::from_micros(2500));
            shard.sweep(ctx.clock.now());
        }
        assert_eq!(
            shard.backoff, None,
            "condemned a shard waiting out a backoff"
        );
        assert_eq!(ctx.meters.condemned.map(|c| c.get()), [0, 0]);
        assert_eq!(ctx.end_queued(|| End::Shutdown), 1);
    }

    #[test]
    fn a_running_frame_dropped_by_an_unwinding_loop_leaves_the_running_list() {
        let (ctx, states) = fixture(1, Clock::virtual_clock());
        let frame = admitted(0, &states[0], None);
        let core = Arc::clone(frame.core());
        assert!(ctx.push(frame).is_none());
        // A defect in the loop unwinds past a popped frame, which is
        // dropped without `Frame::end` (`resume_unwind` skips the
        // panic hook, as an injected fault does).
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _running = ctx.pop_head(0).expect("just pushed");
            std::panic::resume_unwind(Box::new("shard loop defect"));
        }));
        assert!(unwound.is_err());
        match core.take() {
            Some(Err(ServeError::Failed(msg))) => {
                assert_eq!(msg, "frame dropped by its shard loop")
            }
            other => panic!("the dropped frame's handle holds {other:?}"),
        }
        assert_eq!(ctx.meters.in_flight.get(), 0);
        let now = Some(Instant::now());
        assert_eq!(
            ctx.drain(now, Duration::ZERO),
            (true, 0),
            "drain waits on it"
        );
        assert!(ctx.wait_session(0, now), "its session's wait waits on it");
    }

    #[test]
    fn a_session_wait_counts_its_frames_backing_off_and_running_only() {
        // Session 0's frame failed once and waits out its backoff at the
        // front of its lane; a zero-length wait is a probe, no sleep.
        let probe = |ctx: &ShardCtx, session| ctx.wait_session(session, Some(Instant::now()));
        let (ctx, states, core, due) = backing_off(2, ServerConfig::default(), Fault::PanicOnce);
        assert!(!probe(&ctx, 0), "a frame backing off in the queue counts");
        // Session 1's frame, running meanwhile, counts for session 1
        // alone.
        assert!(ctx.push(admitted(1, &states[1], None)).is_none());
        let other = ctx.pop_head(0).expect("the other session's frame is ready");
        assert_eq!(other.session(), 1);
        assert!(!probe(&ctx, 0) && !probe(&ctx, 1));
        // Due, popped and ended: session 0 has nothing left in the tier.
        ctx.clock.advance(due - ctx.clock.now());
        let retry = ctx.pop_head(0).expect("due");
        assert!(Arc::ptr_eq(retry.core(), &core));
        assert!(!probe(&ctx, 0), "a running frame counts");
        execute_group(&ctx, ctx.batch_around(retry), 0);
        assert!(matches!(core.take(), Some(Ok(_))));
        assert!(probe(&ctx, 0), "session 0 settled");
        assert!(!probe(&ctx, 1), "session 1's frame still runs");
        other.end(End::SessionGone);
        assert!(probe(&ctx, 1));
    }
}
