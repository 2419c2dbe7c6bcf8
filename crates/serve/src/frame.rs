//! The frame lifecycle: one state type, one terminal transition.
//!
//! Every submitted frame is a [`Frame`] that walks the trace grammar
//!
//! ```text
//! Submit → Admit → [Pop → Batch → Render (→ Retry → Render)*] → Resolve
//!            └ shed / break verdicts close the trace at Admit
//! ```
//!
//! and each arrow is a method here — the only code that emits the
//! frame's trace events and moves its counters. What a frame holds on
//! behalf of the rest of the tier is a function of its [`Stage`]:
//!
//! | stage | queue-depth claim | watch + pending claim | counted busy |
//! |---|---|---|---|
//! | `Submitted` | – | – | – |
//! | `Claimed` | yes | – | – |
//! | `Queued` | yes | yes | – |
//! | `Running` | – | yes | yes |
//!
//! A frame ends exactly once, through [`Frame::end`] with an [`End`]
//! value; the policy that maps each `End` to an error, a counter, a
//! trace event and a breaker outcome is the one `match` in
//! [`End::policy`]. The watchdog is the only other resolver: it holds
//! the shared [`FrameCore`] and calls [`FrameCore::time_out`].
//!
//! **Bookkeeping precedes the wake-up.** Both resolvers funnel into
//! [`FrameCore::resolve`], the single writer of the caller-visible
//! slot. It is first-write-wins, and the winner books its counter, its
//! latency observation and its terminal trace event *inside* the
//! slot's critical section, before any waiter is notified: a resolved
//! handle implies its books are already visible, and a loser moves
//! nothing (so exported counters are monotone). Everything booked
//! under the slot lock is lock-free; nothing that takes another lock
//! runs there.

use crate::admission::class_index;
use crate::server::{Fault, FrameRequest, FrameResult, ServeError};
use crate::session::{DeadlineClass, PendingGuard, ResolutionTier, SessionState};
use crate::shard::Meters;
use crate::supervisor::BreakerAdmit;
use crate::{lock, wait, wait_timeout};
use gen_nerf_geometry::Pose;
use gen_nerf_parallel::CancelToken;
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{AdmissionVerdict, EventKind, ResolveOutcome};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a caller reads off its handle.
pub(crate) type Outcome = Result<FrameResult, ServeError>;

/// Why admission refused a frame (`serve_frames_shed_total{reason}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shed {
    /// [`RenderServer::drain`](crate::RenderServer::drain) closed
    /// admission.
    Draining,
    /// The frame's shard exhausted its restart budget.
    ShardDown,
    /// BestEffort under global memory pressure.
    Memory,
    /// The shard queue was at the class's capacity bound.
    Queue,
    /// The scene's circuit breaker is open.
    Circuit,
}

impl Shed {
    fn error(self, class: DeadlineClass) -> ServeError {
        match self {
            Shed::Draining => ServeError::Draining,
            Shed::ShardDown => ServeError::ShardDown,
            Shed::Memory | Shed::Queue => ServeError::Shed { class },
            Shed::Circuit => ServeError::CircuitOpen,
        }
    }
}

/// Every way a frame's owner can end it. [`End::policy`] is the table.
pub(crate) enum End {
    /// Admission refused the frame (with the queue depth it saw); it
    /// was never queued and nothing watches it.
    Shed(Shed, u64),
    /// Shutdown closed the queue under the submission.
    QueueClosed,
    /// Popped, but the watchdog had already answered for it.
    Stale,
    /// Popped, but its session was removed while it waited.
    SessionGone,
    /// A render attempt produced the frame.
    Rendered(FrameResult),
    /// The retry loop found the handle timed out: the budget is spent.
    BudgetSpent,
    /// Attempts or wall-clock budget exhausted; the last error.
    RenderFailed(String),
    /// The shard's restart budget is exhausted.
    ShardDown,
    /// Still queued when a drain deadline expired.
    DrainForced,
    /// Still queued when the server shut down.
    Shutdown,
}

/// What an [`End`] tells the scene's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// The scene rendered (or failed to): a health sample.
    Record(bool),
    /// The frame never rendered, which says nothing about the scene:
    /// only a held probe slot goes back.
    AbortProbe,
}

/// What the winning resolver books and hands the caller.
enum Verdict {
    Rendered(FrameResult),
    TimedOut,
    Shed(Shed, u64),
    Failed(ServeError),
}

impl End {
    /// The frame-end policy, one row per way to end: what the breaker
    /// is told, and the verdict offered to the slot (`None` where the
    /// owner already saw the watchdog's). A rendered frame records a
    /// success even when the watchdog wins the slot — the breaker
    /// gauges scene health, not deadline pressure — and a frame that
    /// never rendered records nothing.
    fn policy(self) -> (Settle, Option<Verdict>) {
        use Settle::{AbortProbe, Record};
        let failed = |msg: &str| Some(Verdict::Failed(ServeError::Failed(msg.to_string())));
        match self {
            End::Shed(reason, depth) => (AbortProbe, Some(Verdict::Shed(reason, depth))),
            End::QueueClosed => (AbortProbe, failed("server shutting down")),
            End::Stale => (AbortProbe, None),
            End::SessionGone => (AbortProbe, failed("session removed with frames queued")),
            End::Rendered(result) => (Record(true), Some(Verdict::Rendered(result))),
            End::BudgetSpent => (Record(false), None),
            End::RenderFailed(msg) => (
                Record(false),
                Some(Verdict::Failed(ServeError::Failed(msg))),
            ),
            End::ShardDown => (Record(false), Some(Verdict::Failed(ServeError::ShardDown))),
            End::DrainForced => (AbortProbe, Some(Verdict::Failed(ServeError::Draining))),
            End::Shutdown => (AbortProbe, failed("server shut down with frames queued")),
        }
    }
}

/// A slot's interior: the outcome (until the caller consumes it) and a
/// sticky `resolved` latch. The latch is what makes resolution
/// first-write-wins *across* consumption: once any writer resolved the
/// slot, every later write is a no-op — even after a waiter took the
/// outcome out — so a render finishing after its watchdog timeout can
/// never resurrect a consumed handle.
#[derive(Default)]
struct SlotState {
    outcome: Option<Outcome>,
    resolved: bool,
}

/// The part of a frame its owner shares with the caller's
/// [`FrameHandle`](crate::FrameHandle) and the watchdog: the slot, and
/// the identity and lock-free books a resolver needs.
pub(crate) struct FrameCore {
    slot: Mutex<SlotState>,
    ready: Condvar,
    /// Frame-trace id ([`gen_nerf_telemetry::next_frame_id`]).
    id: u64,
    class: DeadlineClass,
    submitted: Instant,
    meters: Arc<Meters>,
}

impl FrameCore {
    /// Whether the frame has resolved (by render, error, shed or
    /// timeout) — shards skip frames the watchdog already answered.
    pub(crate) fn is_resolved(&self) -> bool {
        lock(&self.slot).resolved
    }

    /// Whether an unconsumed outcome is waiting.
    pub(crate) fn is_ready(&self) -> bool {
        lock(&self.slot).outcome.is_some()
    }

    /// Takes the outcome if it is there (non-blocking).
    pub(crate) fn take(&self) -> Option<Outcome> {
        lock(&self.slot).outcome.take()
    }

    /// Blocks for the outcome, at most until `until` when one is
    /// given.
    pub(crate) fn wait(&self, until: Option<Instant>) -> Option<Outcome> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(outcome) = slot.outcome.take() {
                return Some(outcome);
            }
            slot = match until {
                None => wait(&self.ready, slot),
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    wait_timeout(&self.ready, slot, left)
                }
            };
        }
    }

    /// The watchdog's transition: the frame blew its class budget at
    /// `now`. Returns whether the timeout won the slot (the caller
    /// then cancels the frame's render attempt).
    pub(crate) fn time_out(&self, now: Instant) -> bool {
        self.resolve(Verdict::TimedOut, now)
    }

    /// Resolves the slot — **first write wins**. The single writer of
    /// a frame's outcome and the single place a terminal counter, the
    /// delivered-latency histogram, the in-flight gauge and the
    /// terminal trace event move; see the module docs for why all of
    /// it sits inside the critical section.
    fn resolve(&self, verdict: Verdict, now: Instant) -> bool {
        let m = &*self.meters;
        let class = self.class;
        let latency_ns = now.saturating_duration_since(self.submitted).as_nanos() as u64;
        let resolved = |o: ResolveOutcome| (EventKind::Resolve, o as u64, latency_ns);
        let mut slot = lock(&self.slot);
        if slot.resolved {
            return false;
        }
        let (outcome, (kind, a, b)) = match verdict {
            Verdict::Rendered(result) => {
                m.rendered.inc();
                m.latency[class_index(class)].observe(latency_ns);
                (Ok(result), resolved(ResolveOutcome::Ok))
            }
            Verdict::TimedOut => {
                m.watch.timed_out[class_index(class)].inc();
                let err = ServeError::TimedOut { class };
                (Err(err), resolved(ResolveOutcome::TimedOut))
            }
            Verdict::Failed(err) => {
                m.failed.inc();
                (Err(err), resolved(ResolveOutcome::Failed))
            }
            // A terminal verdict: the frame never reaches a shard, so
            // the Admit event closes its trace.
            Verdict::Shed(reason, depth) => {
                m.shed(reason, class).inc();
                let code = match reason {
                    Shed::Circuit => AdmissionVerdict::Break,
                    _ => AdmissionVerdict::Shed,
                };
                (
                    Err(reason.error(class)),
                    (EventKind::Admit, code as u64, depth),
                )
            }
        };
        if kind == EventKind::Resolve {
            // Exactly the frames that were admitted, hence watched.
            m.watch.in_flight.dec();
        }
        m.ring.record(self.id, kind, a, b);
        slot.resolved = true;
        slot.outcome = Some(outcome);
        drop(slot);
        self.ready.notify_all();
        true
    }
}

/// Where a frame is in its life; decides what [`Frame::end`] has to
/// give back (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Submitted,
    Claimed,
    Queued,
    Running,
}

/// One frame, owned by whichever side is acting on it: `submit`, the
/// shard queue, or the worker rendering it.
pub(crate) struct Frame {
    core: Arc<FrameCore>,
    stage: Stage,
    pub session: u64,
    /// The session's state — scene, render configuration, cache,
    /// breaker and shard — carried on the frame so rendering it and
    /// recording its outcome survive the session's removal.
    pub state: Arc<SessionState>,
    pub pose: Pose,
    /// Tier actually rendered (admission may have degraded it).
    pub tier: ResolutionTier,
    /// Whether admission lowered the tier below the request.
    pub degraded: bool,
    pub reuse: Option<Image>,
    pub fault: Option<Fault>,
    /// Instant past which the watchdog resolves the handle with
    /// `TimedOut`; retries are never scheduled beyond it.
    pub deadline_at: Instant,
    /// Queue depth admission saw (`Admit.b`).
    depth_seen: u64,
    /// Whether the scene's breaker admitted this frame as a HalfOpen
    /// probe (its outcome decides Closed vs back to Open).
    probe: bool,
    /// Registration with the server's watchdog, while watched.
    watch: Option<u64>,
    /// Claim on the session's pending-frame count, held from admission
    /// until the owner is done touching the session (cache inserts
    /// included) so `remove_session` can wait for true quiescence.
    pending: Option<PendingGuard>,
}

impl Frame {
    /// **Submit.** Creates the frame of `req` for `session` (whose
    /// state is `state`) and the core its handle will wait on.
    pub(crate) fn submit(session: u64, state: Arc<SessionState>, req: FrameRequest) -> Self {
        let shard = &state.shard;
        let m = &shard.meters;
        let now = shard.supervisor.clock().now();
        let core = Arc::new(FrameCore {
            slot: Mutex::default(),
            ready: Condvar::new(),
            id: gen_nerf_telemetry::next_frame_id(),
            class: req.deadline,
            submitted: now,
            meters: Arc::clone(m),
        });
        m.submitted.inc();
        let class_code = class_index(req.deadline) as u64;
        m.ring
            .record(core.id, EventKind::Submit, class_code, session);
        Self {
            core,
            stage: Stage::Submitted,
            session,
            pose: req.pose,
            tier: req.tier,
            degraded: false,
            reuse: req.reuse,
            fault: req.fault,
            deadline_at: now + shard.cfg.supervision.budget(req.deadline),
            depth_seen: m.depth.get().max(0) as u64,
            probe: false,
            watch: None,
            pending: None,
            state,
        }
    }

    pub(crate) fn core(&self) -> &Arc<FrameCore> {
        &self.core
    }

    pub(crate) fn class(&self) -> DeadlineClass {
        self.core.class
    }

    pub(crate) fn submitted(&self) -> Instant {
        self.core.submitted
    }

    /// Whether the handle already resolved (the watchdog's timeout is
    /// the only resolver besides this frame's owner).
    pub(crate) fn is_resolved(&self) -> bool {
        self.core.is_resolved()
    }

    /// Attaches a render attempt's cancel token to the frame's watch,
    /// so a timeout fired mid-render reclaims the worker.
    pub(crate) fn begin_attempt(&self, cancel: &CancelToken) {
        if let Some(watch) = self.watch {
            self.state.shard.supervisor.begin_render(watch, cancel);
        }
    }

    fn event(&self, kind: EventKind, a: u64, b: u64) {
        let ring = &self.state.shard.meters.ring;
        ring.record(self.core.id, kind, a, b);
    }

    /// Asks the scene's breaker, then claims a queue slot for the
    /// admission policy to veto: returns the breaker's verdict and the
    /// queue depth before this frame. The gauge counts
    /// admitted-not-yet-scheduled frames; a refused frame gives its
    /// claim back when it ends.
    pub(crate) fn claim(&mut self) -> (BreakerAdmit, usize) {
        let verdict = self.state.breaker.admit(self.core.submitted);
        self.probe = verdict == BreakerAdmit::Probe;
        let depth = self.state.shard.meters.depth.inc().max(0) as usize;
        self.depth_seen = depth as u64;
        self.stage = Stage::Claimed;
        (verdict, depth)
    }

    /// **Admit.** The policy let the frame in (at the degraded tier
    /// when `degrade`): from here the watchdog guarantees the handle
    /// resolves, and the session counts the frame pending.
    pub(crate) fn admit(&mut self, degrade: bool) {
        let shard = &self.state.shard;
        let m = &shard.meters;
        let mut verdict = AdmissionVerdict::Admit;
        if degrade {
            // The cached-coarse tier: quarter resolution, where a
            // session's cached coarse passes are cheapest to refresh.
            // Never upgrade a request that was already coarser.
            if self.tier.divisor() < ResolutionTier::Quarter.divisor() {
                self.tier = ResolutionTier::Quarter;
            }
            self.degraded = true;
            m.degraded.inc();
            verdict = AdmissionVerdict::Degrade;
        }
        self.event(EventKind::Admit, verdict as u64, self.depth_seen);
        m.admitted.inc();
        m.watch.watched.inc();
        m.watch.in_flight.inc();
        self.watch = Some(shard.supervisor.watch(&self.core, self.deadline_at));
        self.pending = Some(self.state.pending.claim());
        self.stage = Stage::Queued;
    }

    /// **Pop.** The worker took the frame off the queue: the depth
    /// claim goes back.
    pub(crate) fn pop(&mut self) {
        debug_assert_eq!(self.stage, Stage::Queued);
        let depth = &self.state.shard.meters.depth;
        depth.dec();
        self.stage = Stage::Running;
        let queued = depth.get().max(0) as u64;
        let waited = Instant::now().saturating_duration_since(self.core.submitted);
        self.event(EventKind::Pop, waited.as_nanos() as u64, queued);
    }

    /// The frame goes (back) on the queue at `position` of a requeue
    /// pass — across a restart, or handed back by a dying incarnation,
    /// which re-claims the depth it gave up at pop.
    pub(crate) fn requeued(&mut self, position: u64) {
        let m = &self.state.shard.meters;
        m.requeued.inc();
        self.event(EventKind::Requeue, self.state.shard.index as u64, position);
        if self.stage == Stage::Running {
            m.depth.inc();
            self.stage = Stage::Queued;
        }
    }

    /// **Batch.** Placed in a fused render job of `size` frames.
    pub(crate) fn batched(&self, size: usize) {
        self.event(EventKind::Batch, size as u64, (size - 1) as u64);
    }

    /// **Retry.** Attempt `attempt` is scheduled after `backoff`.
    pub(crate) fn retrying(&self, attempt: u32, backoff: Duration) {
        self.state.shard.meters.retries.inc();
        self.event(EventKind::Retry, attempt as u64, backoff.as_nanos() as u64);
    }

    /// **Render.** One attempt finished after `ns` with outcome `code`
    /// (0 ok, 1 cancelled, 2 corrupt, 3 panicked).
    pub(crate) fn attempted(&self, ns: u64, code: u64) {
        self.event(EventKind::Render, ns, code);
    }

    /// Ends a frame admission refused, at the depth it saw.
    pub(crate) fn shed(self, reason: Shed) {
        let depth = self.depth_seen;
        self.end(End::Shed(reason, depth));
    }

    /// **The terminal transition.** Settles the breaker, returns a
    /// still-held depth claim, offers the verdict to the slot, then —
    /// the handle may already be awake — drops the watch, counts the
    /// shard one frame less busy and releases the session's pending
    /// claim. Everything a waiter may read once its handle resolves
    /// (breaker, gauges, counters, events) moves before the wake-up.
    pub(crate) fn end(self, end: End) {
        let shard = &self.state.shard;
        let now = Instant::now();
        if matches!(end, End::DrainForced) {
            shard.meters.drain_forced.inc();
        }
        let (settle, verdict) = end.policy();
        match settle {
            Settle::Record(ok) => self.state.breaker.record(ok, self.probe, now),
            Settle::AbortProbe if self.probe => self.state.breaker.abort_probe(),
            Settle::AbortProbe => {}
        }
        if matches!(self.stage, Stage::Claimed | Stage::Queued) {
            shard.meters.depth.dec();
        }
        if let Some(verdict) = verdict {
            self.core.resolve(verdict, now);
        }
        if let Some(watch) = self.watch {
            shard.supervisor.unwatch(watch);
        }
        if self.stage == Stage::Running {
            shard.settle();
        }
        drop(self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{GovernorConfig, MemoryGovernor};
    use crate::server::{CacheOutcome, ServeStats, ServerConfig};
    use crate::session::{SceneState, SessionConfig};
    use crate::shard::ShardCtx;
    use crate::supervisor::{BreakerConfig, BreakerState, CircuitBreaker, Supervisor};
    use gen_nerf::config::{ModelConfig, SamplingStrategy};
    use gen_nerf::model::GenNerfModel;
    use gen_nerf::pipeline::RenderStats;
    use gen_nerf_geometry::{Aabb, Intrinsics, Vec3};
    use gen_nerf_telemetry::{Clock, TraceEvent};

    /// One worker-less shard with one session on it, and the scene's
    /// breaker held HalfOpen with its single probe slot free — so the
    /// next `claim` is granted the probe, and what an `End` tells the
    /// breaker shows in its state: a recorded success closes it, a
    /// recorded failure re-opens it (a second trip), and an aborted
    /// probe leaves it HalfOpen with the slot free again.
    struct Fixture {
        supervisor: Arc<Supervisor>,
        shard: Arc<ShardCtx>,
        state: Arc<SessionState>,
    }

    fn fixture() -> Fixture {
        let instance = gen_nerf_telemetry::next_instance_id();
        let supervisor = Arc::new(Supervisor::spawn(instance, Clock::real()));
        let governor = Arc::new(MemoryGovernor::new(&GovernorConfig::default()));
        let shard = ShardCtx::new(
            instance,
            0,
            1,
            ServerConfig::default(),
            Arc::clone(&supervisor),
            governor,
        );
        let scene = Arc::new(SceneState::prepare(
            GenNerfModel::new(ModelConfig::fast()),
            &[],
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            Vec3::ZERO,
        ));
        let breaker = Arc::new(CircuitBreaker::new(
            BreakerConfig::default()
                .with_window(1, 1)
                .with_failure_threshold(1.0)
                .with_cooldown(Duration::ZERO)
                .with_probe_quota(1),
        ));
        breaker.record(false, false, Instant::now());
        assert_eq!((breaker.state(), breaker.trips()), (BreakerState::Open, 1));
        let cfg = SessionConfig::new(
            Intrinsics::from_fov(4, 4, 0.6),
            SamplingStrategy::Uniform { n: 2 },
        );
        let state = Arc::new(SessionState::new(scene, cfg, Arc::clone(&shard), breaker));
        Fixture {
            supervisor,
            shard,
            state,
        }
    }

    /// What the breaker was told, read off the fixture's breaker.
    fn settled(breaker: &CircuitBreaker) -> Option<Settle> {
        match (breaker.state(), breaker.trips()) {
            (BreakerState::Closed, 1) => Some(Settle::Record(true)),
            (BreakerState::Open, 2) => Some(Settle::Record(false)),
            (BreakerState::HalfOpen, 1) => {
                let freed = breaker.admit(Instant::now()) == BreakerAdmit::Probe;
                freed.then_some(Settle::AbortProbe)
            }
            // Open with one trip: never asked, never told.
            _ => None,
        }
    }

    fn rendered() -> FrameResult {
        FrameResult {
            image: Image::new(0, 0),
            stats: RenderStats::default(),
            serve: ServeStats {
                queue_wait: Duration::ZERO,
                render_time: Duration::ZERO,
                latency: Duration::ZERO,
                cache: CacheOutcome::Bypass,
                batched_frames: 1,
                shard: 0,
                degraded: false,
                tier: ResolutionTier::Full,
            },
        }
    }

    /// The books a frame's end may move.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Books {
        rendered: u64,
        latencies: u64,
        failed: u64,
        timed_out: u64,
        shed: u64,
        drain_forced: u64,
    }

    /// One row of the policy table: the `End`, the stage it is reached
    /// from, what the caller is handed when the end wins the slot,
    /// what the breaker is told, the winner's books and its terminal
    /// event (kind, `a`).
    struct Row {
        end: fn() -> End,
        stage: Stage,
        error: Option<ServeError>,
        settle: Option<Settle>,
        books: Books,
        event: Option<(EventKind, u64)>,
    }

    fn table() -> Vec<Row> {
        use Settle::{AbortProbe, Record};
        let class = DeadlineClass::Interactive;
        let failed = |msg: &str| Some(ServeError::Failed(msg.to_string()));
        let shed = |end, stage, error, settle, verdict: AdmissionVerdict| Row {
            end,
            stage,
            error: Some(error),
            settle,
            books: Books {
                shed: 1,
                ..Books::default()
            },
            event: Some((EventKind::Admit, verdict as u64)),
        };
        let fails = |end, stage, error, settle, drain_forced| Row {
            end,
            stage,
            error,
            settle: Some(settle),
            books: Books {
                failed: 1,
                drain_forced,
                ..Books::default()
            },
            event: Some((EventKind::Resolve, ResolveOutcome::Failed as u64)),
        };
        let silent = |end, settle| Row {
            end,
            stage: Stage::Running,
            error: None,
            settle: Some(settle),
            books: Books::default(),
            event: None,
        };
        vec![
            // Lifecycle gates refuse before the breaker is asked.
            shed(
                || End::Shed(Shed::Draining, 7),
                Stage::Submitted,
                ServeError::Draining,
                None,
                AdmissionVerdict::Shed,
            ),
            shed(
                || End::Shed(Shed::ShardDown, 7),
                Stage::Submitted,
                ServeError::ShardDown,
                None,
                AdmissionVerdict::Shed,
            ),
            shed(
                || End::Shed(Shed::Memory, 7),
                Stage::Submitted,
                ServeError::Shed { class },
                None,
                AdmissionVerdict::Shed,
            ),
            shed(
                || End::Shed(Shed::Queue, 7),
                Stage::Claimed,
                ServeError::Shed { class },
                Some(AbortProbe),
                AdmissionVerdict::Shed,
            ),
            // (A breaker verdict of Shed grants no probe; the row still
            // pins that a held one would go back.)
            shed(
                || End::Shed(Shed::Circuit, 7),
                Stage::Claimed,
                ServeError::CircuitOpen,
                Some(AbortProbe),
                AdmissionVerdict::Break,
            ),
            fails(
                || End::QueueClosed,
                Stage::Queued,
                failed("server shutting down"),
                AbortProbe,
                0,
            ),
            fails(
                || End::SessionGone,
                Stage::Running,
                failed("session removed with frames queued"),
                AbortProbe,
                0,
            ),
            fails(
                || End::RenderFailed("boom".to_string()),
                Stage::Running,
                failed("boom"),
                Record(false),
                0,
            ),
            fails(
                || End::ShardDown,
                Stage::Queued,
                Some(ServeError::ShardDown),
                Record(false),
                0,
            ),
            fails(
                || End::DrainForced,
                Stage::Queued,
                Some(ServeError::Draining),
                AbortProbe,
                1,
            ),
            fails(
                || End::Shutdown,
                Stage::Queued,
                failed("server shut down with frames queued"),
                AbortProbe,
                0,
            ),
            Row {
                end: || End::Rendered(rendered()),
                stage: Stage::Running,
                error: None,
                settle: Some(Record(true)),
                books: Books {
                    rendered: 1,
                    latencies: 1,
                    ..Books::default()
                },
                event: Some((EventKind::Resolve, ResolveOutcome::Ok as u64)),
            },
            // The owner already saw the watchdog's verdict: nothing is
            // offered to the slot.
            silent(|| End::Stale, AbortProbe),
            silent(|| End::BudgetSpent, Record(false)),
        ]
    }

    /// Walks a fresh frame to `stage`.
    fn frame_at(fx: &Fixture, stage: Stage) -> Frame {
        let mut frame = Frame::submit(1, Arc::clone(&fx.state), FrameRequest::default());
        if stage != Stage::Submitted {
            assert_eq!(frame.claim(), (BreakerAdmit::Probe, 0));
        }
        if matches!(stage, Stage::Queued | Stage::Running) {
            frame.admit(false);
        }
        if stage == Stage::Running {
            assert!(fx.shard.push(frame).is_none());
            frame = fx.shard.pop_mate(|_| true).expect("just pushed");
        }
        assert_eq!(frame.stage, stage);
        frame
    }

    fn books(fx: &Fixture) -> Books {
        let m = &fx.shard.meters;
        let class = DeadlineClass::Interactive;
        Books {
            rendered: m.rendered.get(),
            latencies: m.latency[class_index(class)].snapshot().count,
            failed: m.failed.get(),
            timed_out: m.watch.timed_out[class_index(class)].get(),
            shed: [
                Shed::Draining,
                Shed::ShardDown,
                Shed::Memory,
                Shed::Queue,
                Shed::Circuit,
            ]
            .map(|reason| m.shed(reason, class).get())
            .iter()
            .sum(),
            drain_forced: m.drain_forced.get(),
        }
    }

    fn terminal_events(fx: &Fixture) -> Vec<TraceEvent> {
        let terminal = |e: &TraceEvent| match e.kind {
            EventKind::Resolve => true,
            EventKind::Admit => AdmissionVerdict::from_code(e.a).is_some_and(|v| v.is_terminal()),
            _ => false,
        };
        let mut events = fx.shard.meters.ring.drain();
        events.retain(terminal);
        events
    }

    /// Everything a frame held is back exactly once: the depth claim,
    /// the in-flight count, the watch, the pending claim and the
    /// shard's busy count.
    fn assert_all_returned(fx: &Fixture, what: &str) {
        let m = &fx.shard.meters;
        assert_eq!(m.depth.get(), 0, "{what}: depth claim");
        assert_eq!(m.watch.in_flight.get(), 0, "{what}: in-flight gauge");
        assert_eq!(fx.supervisor.watching(), 0, "{what}: watch");
        assert!(
            fx.state.pending.wait_settled(Duration::ZERO),
            "{what}: pending claim"
        );
        let idle = fx.shard.drain(Instant::now(), Duration::ZERO);
        assert!(idle.drained && idle.forced == 0, "{what}: shard still busy");
    }

    #[test]
    fn every_end_books_exactly_once_when_it_wins_and_nothing_when_it_loses() {
        for (i, row) in table().into_iter().enumerate() {
            // --- the end wins the slot ------------------------------------
            let what = format!("row {i}, wins");
            let fx = fixture();
            let frame = frame_at(&fx, row.stage);
            let core = Arc::clone(frame.core());
            if row.event.is_none() {
                // The silent rows are reached only after the watchdog
                // resolved the frame.
                assert!(core.time_out(Instant::now()));
                core.take();
                fx.shard.meters.ring.drain();
            }
            let before = books(&fx);
            frame.end((row.end)());
            let moved = books(&fx);
            assert_eq!(
                Books {
                    timed_out: before.timed_out,
                    ..row.books
                },
                moved,
                "{what}: books"
            );
            match (&row.error, core.take()) {
                (Some(want), Some(Err(got))) => assert_eq!(want, &got, "{what}"),
                (None, Some(Ok(_))) => assert!(row.books.rendered == 1, "{what}"),
                (None, None) => assert!(row.event.is_none(), "{what}"),
                (want, got) => panic!("{what}: wanted {want:?}, handle holds {got:?}"),
            }
            let events = terminal_events(&fx);
            let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.a)).collect();
            assert_eq!(kinds, Vec::from_iter(row.event), "{what}: terminal event");
            if let Some((EventKind::Admit, _)) = row.event {
                assert_eq!(events[0].b, 7, "{what}: Admit carries the depth seen");
            }
            assert_eq!(settled(&fx.state.breaker), row.settle, "{what}: breaker");
            assert_all_returned(&fx, &what);

            // --- the watchdog's timeout got there first -------------------
            if row.stage == Stage::Submitted || row.stage == Stage::Claimed {
                // Nothing watches a frame admission refuses.
                continue;
            }
            let what = format!("row {i}, loses");
            let fx = fixture();
            let frame = frame_at(&fx, row.stage);
            let core = Arc::clone(frame.core());
            assert!(core.time_out(Instant::now()), "{what}: timeout wins");
            let after_timeout = books(&fx);
            assert_eq!(after_timeout.timed_out, 1);
            frame.end((row.end)());
            // The loser moves nothing but what is booked win or lose.
            assert_eq!(
                books(&fx),
                Books {
                    drain_forced: row.books.drain_forced,
                    ..after_timeout
                },
                "{what}: books"
            );
            let timeout = ServeError::TimedOut {
                class: DeadlineClass::Interactive,
            };
            assert!(
                matches!(core.take(), Some(Err(e)) if e == timeout),
                "{what}: the timeout stands"
            );
            assert!(!core.time_out(Instant::now()), "{what}: latch is sticky");
            let kinds: Vec<_> = terminal_events(&fx).iter().map(|e| (e.kind, e.a)).collect();
            let timed_out = (EventKind::Resolve, ResolveOutcome::TimedOut as u64);
            assert_eq!(kinds, [timed_out], "{what}: one terminal event");
            // The breaker hears the same thing win or lose.
            assert_eq!(settled(&fx.state.breaker), row.settle, "{what}: breaker");
            assert_all_returned(&fx, &what);
        }
    }
}
