//! The render server front end: session registry, scene→shard
//! routing, and submission-time admission control.
//!
//! Scheduling itself lives in [`shard`](crate::shard): every scene's
//! sessions route to one shard, which owns their bounded queue, fair
//! dequeue, and fused batch execution on the server's one render pool.
//! The front end stays thin — resolve the session, apply the
//! shed-or-degrade admission policy against the shard's queue depth,
//! and hand the frame (or an immediate shed error) back through a
//! [`FrameHandle`].

use crate::admission::{admission_decision_supervised, AdmissionDecision, AdmissionStats};
use crate::cache::{
    AnchorCache, CacheStats, GovernorConfig, GovernorStats, DEFAULT_CACHE_BUDGET_BYTES,
};
use crate::frame::{End, Frame, FrameCore, Shed};
use crate::health::{DrainReport, HealthConfig};
use crate::session::{
    DeadlineClass, ResolutionTier, SceneState, SessionConfig, SessionId, SessionState,
};
use crate::shard::{supervision_pass, Shard, ShardCtx, ShardStats};
use crate::supervisor::{
    BreakerConfig, CircuitBreaker, RetryPolicy, SupervisorConfig, SupervisorStats,
};
use crate::{lock, wait_timeout};
use gen_nerf::pipeline::{RenderStats, WORKER_SCRATCH_BYTES};
use gen_nerf_geometry::Pose;
use gen_nerf_parallel::Pool;
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{Clock, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Width of the server's one render pool (at least one): a shard
    /// thread renders its own job as worker 0 beside a crew of
    /// `threads − 1` workers that every shard shares, so a lone busy
    /// scene renders on `threads` threads and no more than
    /// max(`threads`, shards rendering at once) ever render. Defaults
    /// to [`gen_nerf_parallel::num_threads`].
    pub threads: usize,
    /// Shard count ceiling. The first `max_shards` registered scenes
    /// get a shard each; further scenes share shards round-robin.
    pub max_shards: usize,
    /// Bounded-queue admission policy applied per shard.
    pub admission: crate::admission::AdmissionConfig,
    /// Per-class wall-clock frame budgets enforced by the supervision
    /// pass.
    pub supervision: SupervisorConfig,
    /// Re-render policy for transiently failed frames.
    pub retry: RetryPolicy,
    /// Per-scene circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Shard self-healing: heartbeat budget (which, with the frame
    /// budgets, sets the supervision cadence) and restart backoff.
    pub health: HealthConfig,
    /// Server-wide memory budget over session caches and worker
    /// arenas.
    pub governor: GovernorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: gen_nerf_parallel::num_threads(),
            max_shards: 8,
            admission: crate::admission::AdmissionConfig::default(),
            supervision: SupervisorConfig::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            governor: GovernorConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Sets the shard count ceiling (0 reads as one).
    pub fn with_max_shards(mut self, max_shards: usize) -> Self {
        self.max_shards = max_shards;
        self
    }

    /// Sets the per-shard admission policy.
    pub fn with_admission(mut self, admission: crate::admission::AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// Injected failure for resilience testing: makes the shard's render
/// path stall or panic mid-frame, exactly where a real defect would.
/// The fault-injection regression pins that a panicking frame resolves
/// to an error (never hangs) and the shard keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the render closure (fails the frame's batch) on
    /// **every** attempt — a persistent defect that exhausts the retry
    /// budget.
    Panic,
    /// Panic on the first render attempt only — a transient defect a
    /// retry recovers from (the retried frame is bitwise identical to
    /// a never-faulted render; the regression suite pins it).
    PanicOnce,
    /// Sleep inside the render closure (holds the shard busy so tests
    /// can build queue depth deterministically). The sleep polls the
    /// batch's cancel token, so a stall longer than the frame's
    /// deadline budget is reclaimed by its timeout instead of parking
    /// the shard worker.
    Stall(Duration),
    /// Corrupt one GEMM output of the first render attempt (a
    /// supra-tolerance perturbation armed via
    /// `gen_nerf_nn::kernels::integrity::arm_corruption`, seeded by
    /// the payload). With `GEN_NERF_INTEGRITY` enabled the ABFT
    /// checksum detects it, the batch fails over to solo retries, and
    /// the retried frame is bitwise a never-faulted render.
    CorruptGemm(u64),
    /// Poison one composited pixel (NaN) of the first render attempt,
    /// before the pipeline's composite-boundary sentinel — proving
    /// corrupt pixels are caught at the publish boundary, not served.
    CorruptPixels(u64),
    /// Poison the session's retained coarse anchors before the cache
    /// lookup. The import digest check rejects the poisoned anchors as
    /// counted misses, so the frame re-probes instead of shading from
    /// corrupt Step ① data; the frame itself still resolves `Ok`.
    CorruptAnchor(u64),
    /// Kill the shard's scheduler thread when this frame is popped:
    /// the loop hands the frame back to the queue and exits, exactly
    /// like an uncaught scheduler defect. The health sweep detects the
    /// dead worker and restarts it; the frame re-renders under the new
    /// incarnation, bitwise identical to a never-killed render.
    KillShard,
    /// Wedge the shard's scheduler thread for the given duration when
    /// this frame is popped: an uncancellable sleep that starves the
    /// queue while frames wait, exactly the no-progress-with-work
    /// signature the sweep condemns as `Wedged`.
    WedgeShard(Duration),
}

/// One frame request: a head pose plus serving knobs.
#[derive(Debug, Default)]
pub struct FrameRequest {
    /// Camera pose to render from.
    pub pose: Pose,
    /// Output resolution tier (divisor of the session intrinsics).
    pub tier: ResolutionTier,
    /// Scheduling class.
    pub deadline: DeadlineClass,
    /// Optional recycled frame buffer; the server renders into it
    /// (reusing its allocation) instead of allocating a fresh image.
    pub reuse: Option<Image>,
    /// Fault injection (tests only); `None` in production.
    pub fault: Option<Fault>,
}

impl FrameRequest {
    /// An interactive full-resolution request for `pose`.
    pub fn new(pose: Pose) -> Self {
        Self {
            pose,
            ..Self::default()
        }
    }

    /// Selects the deadline class.
    pub fn with_deadline(mut self, deadline: DeadlineClass) -> Self {
        self.deadline = deadline;
        self
    }

    /// Supplies a frame buffer to render into (allocation recycling
    /// for steady-state serving loops).
    pub fn with_buffer(mut self, image: Image) -> Self {
        self.reuse = Some(image);
        self
    }

    /// Injects a fault into this frame's render (resilience tests).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// How the coarse cache treated one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Coarse pass reused from the session's anchor pose.
    Hit,
    /// Coarse pass re-probed (and the anchor replaced).
    Miss,
    /// Cache not applicable (coherence disabled or no coarse pass in
    /// the strategy).
    Bypass,
}

/// Serving-side measurements of one frame.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    /// Submission to job start (queueing + admission).
    pub queue_wait: Duration,
    /// Job start to completion (shared by every frame in the batch).
    pub render_time: Duration,
    /// Submission to completion.
    pub latency: Duration,
    /// Coarse-cache outcome.
    pub cache: CacheOutcome,
    /// Frames co-scheduled in the same fused render job.
    pub batched_frames: usize,
    /// Shard that served the frame.
    pub shard: usize,
    /// Whether admission control lowered the resolution tier below
    /// the request (overload degradation).
    pub degraded: bool,
    /// Tier the frame was actually rendered at.
    pub tier: ResolutionTier,
}

/// A completed frame.
#[derive(Debug)]
pub struct FrameResult {
    /// The rendered image (the recycled buffer when one was supplied).
    pub image: Image,
    /// Render-side instrumentation (cache hits skip Step ① work, so
    /// `coarse_points` is zero for them).
    pub stats: RenderStats,
    /// Serving-side measurements.
    pub serve: ServeStats,
}

/// Why a frame did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the frame: the shard queue was at
    /// capacity (BestEffort) or the Interactive hard bound.
    Shed {
        /// The refused frame's scheduling class.
        class: DeadlineClass,
    },
    /// The frame failed while rendering (a panic in the render path,
    /// with the retry budget exhausted) or its session was removed
    /// with the frame still queued.
    Failed(String),
    /// The frame exceeded its [`DeadlineClass`] wall-clock budget and
    /// the supervision pass resolved it (cancelling its render if one
    /// was in flight).
    TimedOut {
        /// The overdue frame's scheduling class.
        class: DeadlineClass,
    },
    /// The scene's circuit breaker is open: recent frames failed at a
    /// rate that tripped it, and the cooldown/probing has not closed
    /// it yet. Submissions shed instantly instead of burning render
    /// budget on a sick scene.
    CircuitOpen,
    /// The server is draining ([`RenderServer::drain`] was called):
    /// admission is closed, and frames still queued when the drain
    /// deadline expired were force-failed with this error.
    Draining,
    /// The frame's shard exhausted its restart budget and was declared
    /// down: its queued frames failed with this error and further
    /// submissions for its scenes shed instantly.
    ShardDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed { class } => write!(f, "frame shed under load ({class:?})"),
            ServeError::Failed(msg) => write!(f, "render failed: {msg}"),
            ServeError::TimedOut { class } => {
                write!(f, "frame exceeded its deadline budget ({class:?})")
            }
            ServeError::CircuitOpen => write!(f, "scene circuit breaker open"),
            ServeError::Draining => write!(f, "server draining"),
            ServeError::ShardDown => {
                write!(f, "shard down: restart budget exhausted")
            }
        }
    }
}

/// The caller's side of one submitted frame: block on it, with or
/// without a timeout.
pub struct FrameHandle {
    frame: Arc<FrameCore>,
}

impl FrameHandle {
    /// Blocks until the frame resolves; returns the shed/failure error
    /// instead of panicking. This is the overload-aware variant a load
    /// generator uses — shed frames resolve immediately.
    pub fn wait_result(self) -> Result<FrameResult, ServeError> {
        self.frame.wait(None).expect("an unbounded wait resolves")
    }

    /// Blocks until the frame resolves or `timeout` elapses: `Some`
    /// with the outcome, `None` on timeout (the handle stays usable —
    /// wait again, or keep it; the server still owns the frame
    /// and its deadline). A timeout too long to add to an instant waits
    /// unbounded. This is the bounded wait serving loops and tests use
    /// instead of hand-rolled spin loops.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<FrameResult, ServeError>> {
        self.frame.wait(Instant::now().checked_add(timeout))
    }

    /// Blocks until the frame completes.
    ///
    /// # Panics
    ///
    /// Panics if the frame was shed by admission control, the server
    /// failed while rendering it (a render panic), or it shut down
    /// before reaching it. Use [`FrameHandle::wait_result`] when shed
    /// frames are expected.
    pub fn wait(self) -> FrameResult {
        self.wait_result()
            .unwrap_or_else(|e| panic!("render server failed: {e}"))
    }
}

/// The spawned shards and the map routing scenes to them, guarded
/// together so lazily spawning a shard and recording its scene is
/// atomic, and the latch that stops the supervision thread.
///
/// Sharding is per scene: every session viewing one [`SceneState`]
/// (by `Arc` identity) routes to one shard, so scheduling never
/// serializes across scenes, and cross-scene frames were never
/// batchable anyway. A scene's entry also holds its circuit breaker,
/// shared by every session viewing it: scene health is a property of
/// the scene, not of any one viewer.
#[derive(Default)]
struct Topology {
    /// Scene pointer → (liveness witness, shard index, breaker). The
    /// `Weak` witness keeps a recycled allocation address of a dropped
    /// scene from inheriting its shard or its trip history.
    scenes: HashMap<usize, (Weak<SceneState>, usize, Arc<CircuitBreaker>)>,
    /// Next shard for scenes past `max_shards` (round-robin).
    next_shared: usize,
    shards: Vec<Shard>,
    stopped: bool,
}

impl Topology {
    /// Resolves the shard owning `scene` and its breaker, assigning
    /// both if the scene is new: shard `shards.len()`, spawned on the
    /// context `spawn` builds, while fewer than `max_shards` exist,
    /// round-robin over the existing shards after that, and a closed
    /// breaker.
    fn assign(
        &mut self,
        scene: &Arc<SceneState>,
        cfg: &ServerConfig,
        spawn: impl FnOnce(usize) -> Arc<ShardCtx>,
    ) -> (Arc<ShardCtx>, Arc<CircuitBreaker>) {
        let key = Arc::as_ptr(scene) as usize;
        // Only a live witness pinning the *same* allocation proves the
        // entry is this scene's, not a dropped one's at that address.
        let entry = self.scenes.get(&key).filter(|(witness, ..)| {
            witness
                .upgrade()
                .is_some_and(|live| Arc::ptr_eq(&live, scene))
        });
        let (idx, breaker) = match entry {
            Some((_, idx, breaker)) => (*idx, Arc::clone(breaker)),
            None => {
                let idx = if self.shards.len() < cfg.max_shards.max(1) {
                    self.shards.push(Shard::spawn(spawn(self.shards.len())));
                    self.shards.len() - 1
                } else {
                    let idx = self.next_shared;
                    self.next_shared = (idx + 1) % self.shards.len();
                    idx
                };
                let breaker = Arc::new(CircuitBreaker::new(cfg.breaker));
                let entry = (Arc::downgrade(scene), idx, Arc::clone(&breaker));
                self.scenes.insert(key, entry);
                (idx, breaker)
            }
        };
        (Arc::clone(&self.shards[idx].ctx), breaker)
    }
}

/// The supervision thread: one [`supervision_pass`] over every shard,
/// then a sleep until the pass it asked for (or a stop) — at least 40
/// passes per shortest budget, so no admission needs to wake it. A
/// pass holds the topology lock, which `Drop` never holds while it
/// joins threads, so frames keep timing out during a shutdown.
fn supervise(topology: &Mutex<Topology>, wake: &Condvar, clock: &Clock, interval: Duration) {
    let mut topology = lock(topology);
    while !topology.stopped {
        let next = supervision_pass(&mut topology.shards, clock.now(), interval);
        let nap = next.saturating_duration_since(clock.now());
        topology = wait_timeout(wake, topology, nap);
    }
}

/// Identifies one shard of a [`RenderServer`] (dense indices, assigned
/// in scene-registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardId(pub(crate) usize);

impl ShardId {
    /// The raw shard index (stable for the lifetime of the server).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The multi-session, scene-sharded render server. See the crate docs
/// for the architecture; in short: [`RenderServer::create_session`]
/// routes a scene to a shard (spawning it on first sight),
/// [`RenderServer::submit`] applies admission control against that
/// shard's bounded queue and returns a [`FrameHandle`]; the shard
/// thread fair-dequeues, coalesces compatible frames into fused
/// multi-frame renders on the server's one render pool, and resolves
/// the handles.
///
/// Dropping the server closes every shard queue, drains every frame
/// already admitted, and joins the shard threads.
pub struct RenderServer {
    cfg: ServerConfig,
    /// Shared with the supervision thread.
    topology: Arc<Mutex<Topology>>,
    /// Wakes the supervision thread to stop it.
    wake: Arc<Condvar>,
    /// The supervision thread, stopped last.
    supervision: Option<JoinHandle<()>>,
    /// The one clock every frame deadline and health reading is on.
    clock: Clock,
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_session: AtomicU64,
    /// Every session's coarse anchors, under the server's budget.
    cache: Arc<AnchorCache>,
    /// The render pool every shard claims its tile lists on.
    crew: Arc<Pool>,
    /// Latched by [`RenderServer::drain`]: admission closed for good.
    draining: AtomicBool,
    /// Process-unique instance id: every metric this server registers
    /// carries `instance = <id>`, so the counters of concurrent servers
    /// (unit tests!) stay apart in an exported snapshot.
    instance: u64,
}

impl RenderServer {
    /// Builds the server front end, its supervision thread and its
    /// render pool, whose crew spawns on the first render of two or
    /// more tiles. Shards spawn lazily as scenes are registered.
    pub fn new(cfg: ServerConfig) -> Self {
        let instance = gen_nerf_telemetry::next_instance_id();
        let clock = Clock::real();
        let topology = Arc::new(Mutex::new(Topology::default()));
        let wake = Arc::new(Condvar::new());
        let supervision = {
            let (topology, wake, clock) = (Arc::clone(&topology), Arc::clone(&wake), clock.clone());
            let interval = cfg.health.pass_interval(&cfg.supervision);
            std::thread::Builder::new()
                .name("gen-nerf-supervisor".to_string())
                .spawn(move || supervise(&topology, &wake, &clock, interval))
                .expect("spawn supervision thread")
        };
        let crew = Arc::new(Pool::new(cfg.threads));
        // Every crew worker's scratch (which the tile schedule bounds
        // whatever the frame size or batch), charged once for the
        // server's life; each shard thread, which renders too, charges
        // its own when the shard spawns.
        let reserved = ((crew.threads() - 1) * WORKER_SCRATCH_BYTES) as u64;
        let cache = AnchorCache::new(&cfg.governor, reserved, DEFAULT_CACHE_BUDGET_BYTES);
        Self {
            cfg,
            topology,
            wake,
            supervision: Some(supervision),
            clock,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            cache: Arc::new(cache),
            crew,
            draining: AtomicBool::new(false),
            instance,
        }
    }

    /// The live state of `session`.
    ///
    /// # Panics
    ///
    /// Panics (outside the table's lock) if `session` was not created
    /// by this server or was already removed.
    fn session(&self, session: SessionId) -> Arc<SessionState> {
        let state = lock(&self.sessions).get(&session.0).cloned();
        state.expect("unknown session")
    }

    /// Registers a session viewing `scene`, routed to the scene's
    /// shard (spawned now if this is the scene's first session).
    /// Sessions sharing a scene (same `Arc`) and sampling strategy
    /// batch together on that shard, and share its circuit breaker.
    pub fn create_session(&self, scene: Arc<SceneState>, cfg: SessionConfig) -> SessionId {
        let (shard, breaker) = lock(&self.topology).assign(&scene, &self.cfg, |idx| {
            self.cache.reserve(WORKER_SCRATCH_BYTES as u64);
            let (crew, cache) = (Arc::clone(&self.crew), Arc::clone(&self.cache));
            let clock = self.clock.clone();
            ShardCtx::new(self.instance, idx, crew, self.cfg, clock, cache)
        });
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.cache.open(id, cfg, shard.meters.cache);
        let state = Arc::new(SessionState::new(scene, cfg, shard, breaker));
        lock(&self.sessions).insert(id, state);
        SessionId(id)
    }

    /// Enqueues a frame request through admission control; returns
    /// immediately with a handle. Overloaded shards shed BestEffort
    /// frames (the handle resolves at once with [`ServeError::Shed`])
    /// and degrade Interactive frames to the cached-coarse tier before
    /// shedding them at the hard bound. A scene whose circuit breaker
    /// is open sheds instantly with [`ServeError::CircuitOpen`].
    /// Admitted frames carry their class's wall-clock deadline: the
    /// handle always resolves, at worst with [`ServeError::TimedOut`].
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn submit(&self, session: SessionId, req: FrameRequest) -> FrameHandle {
        let state = self.session(session);
        let shard = Arc::clone(&state.shard);
        let mut frame = Frame::submit(session.0, state, req);
        let handle = FrameHandle {
            frame: Arc::clone(frame.core()),
        };
        let class = frame.class();
        // Lifecycle gates come before queue admission: a draining
        // server, a down shard, and global memory pressure are all
        // terminal verdicts no queue state can override. BestEffort
        // sheds first under memory pressure; anchors of interactive
        // traffic keep their budget.
        let verdict = if self.draining.load(Ordering::SeqCst) {
            Err(Shed::Draining)
        } else if shard.down.load(Ordering::Relaxed) {
            Err(Shed::ShardDown)
        } else if class == DeadlineClass::BestEffort && self.cache.under_pressure() {
            Err(Shed::Memory)
        } else {
            let (breaker, depth) = frame.claim();
            match admission_decision_supervised(&self.cfg.admission, class, depth, breaker) {
                AdmissionDecision::Admit => Ok(false),
                AdmissionDecision::Degrade => Ok(true),
                AdmissionDecision::Shed => Err(Shed::Queue),
                AdmissionDecision::Break => Err(Shed::Circuit),
            }
        };
        match verdict {
            Ok(degrade) => {
                frame.admit(degrade);
                if let Some(frame) = shard.push(frame) {
                    frame.end(End::QueueClosed);
                }
            }
            Err(reason) => frame.shed(reason),
        }
        handle
    }

    /// Ends a session: drops its coarse anchors, its scene handle
    /// (the `SceneState` is freed once the last session sharing it
    /// ends) and its counters, and rejects future submissions for the
    /// id. Frames of the session already queued fail ("session
    /// removed"); removal then **waits for every in-flight frame of
    /// the session to settle** before closing the session's books in
    /// the anchor cache — the handle a caller still holds always
    /// resolves, and no insert lands after the close.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server (or was
    /// already removed).
    pub fn remove_session(&self, session: SessionId) {
        let removed = lock(&self.sessions).remove(&session.0);
        // Panic outside the lock so a misuse stays contained to the
        // misusing thread instead of poisoning the table.
        let state = removed.expect("unknown session");
        state.mark_removed();
        // Drain-then-drop: an admitted frame stays in its shard's queue
        // or on its running list until its handle resolved *and* the
        // shard is done touching the session (cache inserts included).
        // The bound is a safety net only — frames resolve at worst at
        // their deadline, well inside it.
        let until = Instant::now().checked_add(Duration::from_secs(120));
        let settled = state.shard.wait_session(session.0, until);
        debug_assert!(settled, "session frames never settled");
        self.cache.close(session.0);
    }

    /// Stops admission for good and waits for every shard to finish
    /// its queued and in-flight work, up to `deadline` per call (the
    /// budget is shared across shards, measured from entry). Frames
    /// still unfinished when the budget expires are force-failed with
    /// [`ServeError::Draining`], so **every** outstanding handle has
    /// resolved by the time this returns. A deadline too long to add
    /// to an instant waits for as long as the work takes. Draining is
    /// terminal: submissions after (or during) a drain resolve
    /// immediately with [`ServeError::Draining`].
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        self.draining.store(true, Ordering::SeqCst);
        let hard_deadline = Instant::now().checked_add(deadline);
        // Past the deadline a cancelled worker gets this long to
        // unwind.
        let supervision = &self.cfg.supervision;
        let grace = supervision
            .interactive_budget
            .max(supervision.best_effort_budget)
            .saturating_add(Duration::from_secs(5));
        // Snapshot the shard contexts, then wait without the topology
        // lock: the supervision pass takes that lock on its own
        // cadence, and a drain must not starve it.
        let shards: Vec<_> = lock(&self.topology)
            .shards
            .iter()
            .map(|s| Arc::clone(&s.ctx))
            .collect();
        let mut report = DrainReport {
            drained: true,
            forced: 0,
        };
        for shard in &shards {
            let (drained, forced) = shard.drain(hard_deadline, grace);
            report.drained &= drained;
            report.forced += forced;
        }
        report
    }

    /// State and counters of every spawned shard, in shard order.
    pub fn shard_health(&self) -> Vec<ShardStats> {
        let topology = lock(&self.topology);
        topology.shards.iter().map(Shard::stats).collect()
    }

    /// Counters of the server-wide memory budget (budget, usage, peak,
    /// pressure evictions, refusals). Memory sheds are this server's
    /// `serve_frames_shed_total{reason="memory"}`.
    pub fn governor_stats(&self) -> GovernorStats {
        self.cache.stats()
    }

    /// Coarse-cache counters of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn cache_stats(&self, session: SessionId) -> CacheStats {
        self.cache.cache_stats(session.0)
    }

    /// The shard serving `session`'s scene.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn shard_of(&self, session: SessionId) -> ShardId {
        ShardId(self.session(session).shard.index)
    }

    /// Admission counters summed over every shard, read through each
    /// shard's registry handles.
    pub fn admission_stats(&self) -> AdmissionStats {
        let mut sum = AdmissionStats::default();
        for shard in &lock(&self.topology).shards {
            let m = &shard.ctx.meters;
            let queue = |class| m.shed(Shed::Queue, class).get();
            sum.admitted += m.admitted.get();
            sum.degraded += m.degraded.get();
            sum.shed_best_effort += queue(DeadlineClass::BestEffort);
            sum.shed_interactive += queue(DeadlineClass::Interactive);
            sum.shed_circuit += m.shed(Shed::Circuit, DeadlineClass::Interactive).get();
        }
        sum
    }

    /// This server's process-unique telemetry instance id: every
    /// metric it registers carries `instance = <id>`, so
    /// `[("instance", &server.instance().to_string())]` filters
    /// [`gen_nerf_telemetry::snapshot`] to this server.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Drains every shard's frame-lifecycle trace ring, concatenated
    /// in shard order. A resolved handle's terminal event is already
    /// in its ring; call once the handles you care about resolved for
    /// complete traces.
    pub fn drain_traces(&self) -> Vec<TraceEvent> {
        lock(&self.topology)
            .shards
            .iter()
            .flat_map(|s| s.ctx.meters.ring.drain())
            .collect()
    }

    /// Trace events overwritten before any drain saw them, summed over
    /// every shard ring (zero at test scale; nonzero means traces are
    /// incomplete and the rings need draining more often).
    pub fn trace_drops(&self) -> u64 {
        lock(&self.topology)
            .shards
            .iter()
            .map(|s| s.ctx.meters.ring.dropped())
            .sum()
    }

    /// Deadline counters summed over every shard: per-class timeouts,
    /// frames currently in flight.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        let mut sum = SupervisorStats::default();
        for shard in &lock(&self.topology).shards {
            let m = &shard.ctx.meters;
            let [interactive, best_effort] = m.timed_out;
            sum.timed_out_interactive += interactive.get();
            sum.timed_out_best_effort += best_effort.get();
            sum.in_flight += m.in_flight.get().max(0) as usize;
        }
        sum
    }

    /// The circuit breaker guarding `session`'s scene — shared by
    /// every session viewing that scene. Introspection for tests and
    /// load harnesses (state and trip count).
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn scene_breaker(&self, session: SessionId) -> Arc<CircuitBreaker> {
        Arc::clone(&self.session(session).breaker)
    }
}

impl Drop for RenderServer {
    fn drop(&mut self) {
        // Closing every shard queue lets the shards drain what's
        // admitted and exit their receive loops. Their threads are
        // joined without the topology lock, so the supervision pass
        // keeps timing their frames out meanwhile; it stops last. The
        // shards' own drop fails any frame left behind.
        let workers: Vec<_> = lock(&self.topology)
            .shards
            .iter_mut()
            .flat_map(Shard::close)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
        lock(&self.topology).stopped = true;
        self.wake.notify_all();
        if let Some(supervision) = self.supervision.take() {
            let _ = supervision.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::health::MAX_RESTARTS;
    use crate::session::CoherenceConfig;
    use gen_nerf::config::{ModelConfig, SamplingStrategy};
    use gen_nerf::model::GenNerfModel;
    use gen_nerf_geometry::Vec3;
    use gen_nerf_scene::{Dataset, DatasetKind};

    fn scene() -> (Dataset, Arc<SceneState>) {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
        let model = GenNerfModel::new(ModelConfig::fast());
        let scene = Arc::new(SceneState::prepare(
            model,
            &ds.source_views,
            ds.scene.bounds,
            ds.scene.background,
        ));
        (ds, scene)
    }

    fn ctf() -> SamplingStrategy {
        SamplingStrategy::coarse_then_focus(6, 6)
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let config = SessionConfig::new(cam.intrinsics, ctf());
        let session = server.create_session(Arc::clone(&scene), config);
        let frame = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(frame.image.pixel_count() as u64, frame.stats.rays);
        assert_eq!(frame.serve.cache, CacheOutcome::Bypass);
        assert!(frame.serve.latency >= frame.serve.render_time);
        assert!(frame.serve.batched_frames >= 1);
        assert!(!frame.serve.degraded);
        assert_eq!(frame.serve.shard, 0);
        assert_eq!(server.shard_health().len(), 1);

        // Zero knobs set in a struct literal are normalised where they
        // are read: one shard, a one-byte budget, and a frame served.
        let server = RenderServer::new(ServerConfig {
            max_shards: 0,
            governor: GovernorConfig { budget_bytes: 0 },
            ..ServerConfig::default()
        });
        let session = server.create_session(scene, config);
        let frame = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(frame.image.pixel_count() as u64, frame.stats.rays);
        assert_eq!(server.shard_health().len(), 1);
        assert_eq!(server.governor_stats().budget_bytes, 1);
    }

    #[test]
    fn wait_timeout_expires_and_leaves_the_handle_usable() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        // The stall keeps the frame unresolved past the first bounded
        // wait (well under the 10 s Interactive budget, so it never
        // times out).
        let handle = server.submit(
            session,
            FrameRequest::new(cam.pose).with_fault(Fault::Stall(Duration::from_millis(300))),
        );
        assert!(
            handle.wait_timeout(Duration::from_millis(1)).is_none(),
            "stalled frame resolved implausibly fast"
        );
        let result = handle
            .wait_timeout(Duration::from_secs(10))
            .expect("stall ends well within 10 s")
            .expect("stalled (not faulted) render succeeds");
        assert!(result.image.pixel_count() > 0);
    }

    #[test]
    fn repeated_pose_hits_cache() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(
            scene,
            SessionConfig::new(cam.intrinsics, ctf())
                .with_coherence(CoherenceConfig::within(0.05, 0.02)),
        );
        let first = server.submit(session, FrameRequest::new(cam.pose)).wait();
        let second = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(first.serve.cache, CacheOutcome::Miss);
        assert_eq!(second.serve.cache, CacheOutcome::Hit);
        // Identical pose ⇒ identical pixels, while Step ① was skipped.
        assert_eq!(first.image.as_slice(), second.image.as_slice());
        assert!(first.stats.coarse_points > 0);
        assert_eq!(second.stats.coarse_points, 0);
        let stats = server.cache_stats(session);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn revisited_pose_hits_a_retained_anchor() {
        // Multi-anchor retention: A, far-B, A again — the second A
        // must hit A's retained anchor (the single-anchor cache of old
        // would have re-probed).
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let far = ds
            .eval_views
            .get(1)
            .map(|v| v.camera.pose)
            .unwrap_or_else(|| {
                gen_nerf_geometry::Pose::look_at(Vec3::new(-3.0, 1.0, -3.0), Vec3::ZERO, Vec3::Y)
            });
        let session = server.create_session(
            scene,
            SessionConfig::new(cam.intrinsics, ctf())
                .with_coherence(CoherenceConfig::within(0.05, 0.02)),
        );
        let a1 = server.submit(session, FrameRequest::new(cam.pose)).wait();
        let b = server.submit(session, FrameRequest::new(far)).wait();
        let a2 = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(a1.serve.cache, CacheOutcome::Miss);
        assert_eq!(b.serve.cache, CacheOutcome::Miss);
        assert_eq!(a2.serve.cache, CacheOutcome::Hit, "revisit did not hit");
        assert_eq!(a1.image.as_slice(), a2.image.as_slice());
        let stats = server.cache_stats(session);
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 0));
    }

    #[test]
    fn cache_budget_caps_anchors_and_counts_evictions() {
        // A one-byte budget evicts every fresh anchor immediately:
        // identical repeated poses keep missing, and the eviction
        // counter records each discarded anchor.
        let (ds, scene) = scene();
        let mut server = RenderServer::new(ServerConfig::default());
        let reserved = server.governor_stats().used_bytes;
        server.cache = Arc::new(AnchorCache::new(&server.cfg.governor, reserved, 1));
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(
            scene,
            SessionConfig::new(cam.intrinsics, ctf())
                .with_coherence(CoherenceConfig::within(0.05, 0.02)),
        );
        let first = server.submit(session, FrameRequest::new(cam.pose)).wait();
        let second = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(first.serve.cache, CacheOutcome::Miss);
        assert_eq!(
            second.serve.cache,
            CacheOutcome::Miss,
            "anchor survived a 1-byte budget"
        );
        // Budget off the cache path entirely: pixels still exact.
        assert_eq!(first.image.as_slice(), second.image.as_slice());
        let stats = server.cache_stats(session);
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(stats.evictions, 2);
    }

    /// A coherence session whose every distinct pose re-anchors: the
    /// translation bound is a tenth of the spacing of [`near_pose`]s
    /// (the rotation bound leaves room for `acos` rounding, so a
    /// repeated pose hits).
    fn anchoring(cam: &gen_nerf_geometry::Camera) -> SessionConfig {
        SessionConfig::new(cam.intrinsics, ctf())
            .with_coherence(CoherenceConfig::within(1e-3, 1e-2))
    }

    /// The `k`-th of a row of poses 0.01 apart, all looking at the
    /// scene from about the same place (so their anchors cost about the
    /// same).
    fn near_pose(k: usize) -> Pose {
        Pose::look_at(
            Vec3::new(3.0 + 0.01 * k as f32, 1.0, 3.0),
            Vec3::ZERO,
            Vec3::Y,
        )
    }

    /// The bytes each of `poses`' anchors charges, measured on a
    /// one-thread server with the default budget.
    fn anchor_costs(scene: &Arc<SceneState>, cfg: SessionConfig, poses: &[Pose]) -> Vec<u64> {
        let server = RenderServer::new(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let session = server.create_session(Arc::clone(scene), cfg);
        poses
            .iter()
            .map(|pose| {
                let before = server.governor_stats().used_bytes;
                server.submit(session, FrameRequest::new(*pose)).wait();
                server.governor_stats().used_bytes - before
            })
            .collect()
    }

    #[test]
    fn pressure_evictions_count_in_the_sessions_and_the_instance_alike() {
        // Two anchoring sessions under a budget of the reservation plus
        // about one and a half anchors: every insert past the first
        // evicts the other session's anchor. Each eviction must show in
        // the victim's `CacheStats` *and* in its shard's
        // `serve_cache_events_total{outcome="eviction"}`.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let cost = anchor_costs(&scene, anchoring(&cam), &[near_pose(0)])[0];
        let reserved = WORKER_SCRATCH_BYTES as u64;
        let budget = reserved + cost * 3 / 2;
        let server = RenderServer::new(ServerConfig {
            threads: 1,
            governor: GovernorConfig {
                budget_bytes: budget,
            },
            ..ServerConfig::default()
        });
        let sessions = [0, 1].map(|_| server.create_session(Arc::clone(&scene), anchoring(&cam)));
        for k in 0..6 {
            let session = sessions[k % 2];
            server
                .submit(session, FrameRequest::new(near_pose(k)))
                .wait();
        }
        let evictions: u64 = sessions
            .iter()
            .map(|&s| server.cache_stats(s).evictions)
            .sum();
        let inst = server.instance().to_string();
        let counted = gen_nerf_telemetry::snapshot().counter_with(
            "serve_cache_events_total",
            &[("instance", &inst), ("outcome", "eviction")],
        );
        let g = server.governor_stats();
        assert!(evictions >= 5, "{evictions} evictions");
        assert_eq!(
            counted, evictions,
            "the instance view drifted from the sessions'"
        );
        // The 8 MiB per-session cap never binds at this size, so every
        // eviction here was a pressure eviction.
        assert_eq!(g.evictions, evictions);
        assert!(g.peak_bytes <= g.budget_bytes, "{g:?}");
    }

    #[test]
    fn pressure_evicts_the_fattest_sessions_lru_tail() {
        // Sessions holding 3, 2 and 1 anchors fill the budget; a fourth
        // session's first anchor must come out of the 3-anchor session's
        // LRU tail and nowhere else.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let poses: Vec<Pose> = (0..7).map(near_pose).collect();
        let costs = anchor_costs(&scene, anchoring(&cam), &poses);
        let reserved = WORKER_SCRATCH_BYTES as u64;
        let budget = reserved + costs.iter().sum::<u64>() - 1;
        let server = RenderServer::new(ServerConfig {
            threads: 1,
            governor: GovernorConfig {
                budget_bytes: budget,
            },
            ..ServerConfig::default()
        });
        let held = [&poses[0..3], &poses[3..5], &poses[5..6]];
        let sessions: Vec<SessionId> = held
            .iter()
            .map(|poses| {
                let session = server.create_session(Arc::clone(&scene), anchoring(&cam));
                for pose in *poses {
                    server.submit(session, FrameRequest::new(*pose)).wait();
                }
                session
            })
            .collect();
        assert_eq!(server.governor_stats().evictions, 0, "the six anchors fit");
        let fourth = server.create_session(Arc::clone(&scene), anchoring(&cam));
        server.submit(fourth, FrameRequest::new(poses[6])).wait();
        let g = server.governor_stats();
        assert_eq!(g.evictions, 1, "{g:?}");
        assert!(g.peak_bytes <= g.budget_bytes, "{g:?}");
        let evictions: Vec<u64> = sessions
            .iter()
            .map(|&s| server.cache_stats(s).evictions)
            .collect();
        assert_eq!(evictions, [1, 0, 0]);
        // Everything but the fattest session's oldest anchor still hits
        // (checked first: a miss would anchor afresh).
        for (session, poses) in sessions.iter().zip(held) {
            let kept = if *session == sessions[0] {
                &poses[1..]
            } else {
                poses
            };
            for pose in kept {
                let frame = server.submit(*session, FrameRequest::new(*pose)).wait();
                assert_eq!(
                    frame.serve.cache,
                    CacheOutcome::Hit,
                    "{session:?} lost {pose:?}"
                );
            }
        }
        let tail = server
            .submit(sessions[0], FrameRequest::new(poses[0]))
            .wait();
        assert_eq!(
            tail.serve.cache,
            CacheOutcome::Miss,
            "the LRU tail survived"
        );
    }

    #[test]
    fn a_memory_shed_counts_once_in_the_governor_stats() {
        // A budget equal to the reservation (one shard thread's
        // scratch, no crew at width 1) is under pressure
        // before any anchor: a BestEffort submission is shed, once, in
        // the instance's memory-shed counter.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let reserved = WORKER_SCRATCH_BYTES as u64;
        let server = RenderServer::new(ServerConfig {
            threads: 1,
            governor: GovernorConfig {
                budget_bytes: reserved,
            },
            ..ServerConfig::default()
        });
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let req = FrameRequest::new(cam.pose).with_deadline(DeadlineClass::BestEffort);
        let shed = server.submit(session, req).wait_result();
        assert!(matches!(shed, Err(ServeError::Shed { .. })), "{shed:?}");
        let inst = server.instance().to_string();
        let memory = [("instance", inst.as_str()), ("reason", "memory")];
        let snap = gen_nerf_telemetry::snapshot();
        assert_eq!(snap.counter_with("serve_frames_shed_total", &memory), 1);
    }

    #[test]
    fn remove_session_returns_its_anchor_bytes() {
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(ServerConfig::default());
        let session = server.create_session(scene, anchoring(&cam));
        // The crew workers' scratch and the one shard thread's.
        let (width, shards) = (server.crew.threads() as u64, 1);
        let reserved = server.governor_stats().used_bytes;
        assert_eq!(reserved, (width - 1 + shards) * WORKER_SCRATCH_BYTES as u64);
        for k in 0..3 {
            server
                .submit(session, FrameRequest::new(near_pose(k)))
                .wait();
        }
        assert!(
            server.governor_stats().used_bytes > reserved,
            "no anchor held"
        );
        server.remove_session(session);
        assert_eq!(server.governor_stats().used_bytes, reserved);
    }

    #[test]
    fn tier_change_is_a_cache_miss() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(
            scene,
            SessionConfig::new(cam.intrinsics, ctf())
                .with_coherence(CoherenceConfig::within(0.05, 0.02)),
        );
        server.submit(session, FrameRequest::new(cam.pose)).wait();
        let half = server
            .submit(
                session,
                FrameRequest {
                    tier: ResolutionTier::Half,
                    ..FrameRequest::new(cam.pose)
                },
            )
            .wait();
        assert_eq!(half.serve.cache, CacheOutcome::Miss);
        assert_eq!(
            half.image.width(),
            cam.intrinsics.width / 2,
            "tier halves the frame"
        );
    }

    #[test]
    fn recycled_buffer_is_used() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let direct = server.submit(session, FrameRequest::new(cam.pose)).wait();
        let recycled = server
            .submit(
                session,
                FrameRequest::new(cam.pose).with_buffer(direct.image),
            )
            .wait();
        assert_eq!(
            recycled.image.pixel_count() as u64,
            recycled.stats.rays,
            "recycled buffer reshaped to the frame"
        );
    }

    #[test]
    fn drop_drains_submitted_frames() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let handles: Vec<FrameHandle> = (0..3)
            .map(|_| server.submit(session, FrameRequest::new(cam.pose)))
            .collect();
        drop(server);
        for h in handles {
            let r = h.wait();
            assert!(r.image.pixel_count() > 0);
        }
    }

    #[test]
    fn remove_session_frees_scene_and_rejects_later_submits() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(cam.intrinsics, ctf()),
        );
        // Drain the session's work, then end it.
        server.submit(session, FrameRequest::new(cam.pose)).wait();
        server.remove_session(session);
        // The shard may still hold transient clones for a moment
        // after fulfilling the frame; once it quiesces, the test's Arc
        // must be the last one standing (the topology's scene map only
        // keeps a Weak witness).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&scene) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "scene handle not released: {} refs",
                Arc::strong_count(&scene)
            );
            std::thread::yield_now();
        }
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.submit(session, FrameRequest::new(cam.pose))
        }));
        assert!(rejected.is_err(), "submit to removed session succeeded");
    }

    #[test]
    #[should_panic(expected = "unknown session")]
    fn unknown_session_rejected() {
        let (_, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let _real = server.create_session(
            scene,
            SessionConfig::new(
                gen_nerf_geometry::Intrinsics::from_fov(8, 8, 0.6),
                SamplingStrategy::Uniform { n: 4 },
            ),
        );
        let bogus = SessionId(999);
        let _ = server.submit(bogus, FrameRequest::new(Pose::IDENTITY));
    }

    #[test]
    fn sessions_on_different_strategies_do_not_batch_incorrectly() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let a = server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(cam.intrinsics, SamplingStrategy::Uniform { n: 6 }),
        );
        let b = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let ha = server.submit(a, FrameRequest::new(cam.pose));
        let hb = server.submit(b, FrameRequest::new(cam.pose));
        let ra = ha.wait();
        let rb = hb.wait();
        // Different strategies do different amounts of coarse work.
        assert_eq!(ra.stats.coarse_points, 0);
        assert!(rb.stats.coarse_points > 0);
        let _ = Vec3::ZERO;
    }

    #[test]
    fn scenes_get_their_own_shards_up_to_the_cap() {
        let (ds, scene_a) = scene();
        let (_, scene_b) = scene();
        let (_, scene_c) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(ServerConfig::default().with_max_shards(2));
        let a = server.create_session(scene_a, SessionConfig::new(cam.intrinsics, ctf()));
        assert_eq!(server.shard_health().len(), 1);
        let b = server.create_session(scene_b, SessionConfig::new(cam.intrinsics, ctf()));
        assert_eq!(server.shard_health().len(), 2);
        // A third scene shares an existing shard (round-robin).
        let c = server.create_session(scene_c, SessionConfig::new(cam.intrinsics, ctf()));
        assert_eq!(server.shard_health().len(), 2);
        assert_eq!(server.shard_of(a).index(), 0);
        assert_eq!(server.shard_of(b).index(), 1);
        assert_eq!(server.shard_of(c).index(), 0);
        // Frames route to their scene's shard and still render.
        let rb = server.submit(b, FrameRequest::new(cam.pose)).wait();
        assert_eq!(rb.serve.shard, 1);
        let inst = server.instance().to_string();
        let shard = [("instance", inst.as_str()), ("shard", "1")];
        let snap = gen_nerf_telemetry::snapshot();
        assert_eq!(snap.counter_with("serve_frames_rendered_total", &shard), 1);
        assert_eq!(snap.counter_with("serve_frames_admitted_total", &shard), 1);
    }

    /// A scene with no source views: all [`Topology::assign`] needs.
    fn bare_scene() -> Arc<SceneState> {
        let bounds = gen_nerf_geometry::Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let model = GenNerfModel::new(ModelConfig::fast());
        Arc::new(SceneState::prepare(model, &[], bounds, Vec3::ZERO))
    }

    /// Assigns `scene` under `max_shards`: the shard index, whether a
    /// shard was spawned for it, and the breaker.
    fn assign(
        topology: &mut Topology,
        scene: &Arc<SceneState>,
        max_shards: usize,
    ) -> (usize, bool, Arc<CircuitBreaker>) {
        let cfg = ServerConfig {
            threads: 1,
            ..ServerConfig::default().with_max_shards(max_shards)
        };
        let mut spawned = false;
        let (shard, breaker) = topology.assign(scene, &cfg, |idx| {
            spawned = true;
            let cache = AnchorCache::new(&cfg.governor, 0, DEFAULT_CACHE_BUDGET_BYTES);
            let crew = Arc::new(Pool::new(1));
            let instance = gen_nerf_telemetry::next_instance_id();
            ShardCtx::new(instance, idx, crew, cfg, Clock::real(), Arc::new(cache))
        });
        (shard.index, spawned, breaker)
    }

    #[test]
    fn one_shard_per_scene_up_to_cap() {
        let mut topology = Topology::default();
        let (a, b, c) = (bare_scene(), bare_scene(), bare_scene());
        let (first_a, spawned, breaker_a) = assign(&mut topology, &a, 2);
        assert_eq!((first_a, spawned), (0, true));
        let (first_b, spawned, _) = assign(&mut topology, &b, 2);
        assert_eq!((first_b, spawned), (1, true));
        // Registered scenes stick to their shard and their breaker.
        let (again_a, spawned, same_breaker) = assign(&mut topology, &a, 2);
        assert_eq!((again_a, spawned), (0, false));
        assert!(Arc::ptr_eq(&breaker_a, &same_breaker));
        // Past the cap: shared round-robin, no new spawn — but a
        // breaker of its own.
        let (first_c, spawned, breaker_c) = assign(&mut topology, &c, 2);
        assert_eq!((first_c, spawned), (0, false));
        assert!(!Arc::ptr_eq(&breaker_a, &breaker_c));
        assert_eq!(topology.shards.len(), 2);
        // Still sticky after sharing.
        let (again_c, spawned, _) = assign(&mut topology, &c, 2);
        assert_eq!((again_c, spawned), (0, false));
    }

    #[test]
    fn recycled_scene_address_is_not_resurrected() {
        let mut topology = Topology::default();
        let a = bare_scene();
        let key = Arc::as_ptr(&a) as usize;
        let (first, spawned, dead_breaker) = assign(&mut topology, &a, 4);
        assert_eq!((first, spawned), (0, true));
        drop(a);
        // Forge a scene at the same address (simulating allocator
        // reuse): the dead witness must force a fresh assignment and a
        // fresh breaker.
        let b = bare_scene();
        let dead = topology.scenes[&key].clone();
        topology.scenes.insert(Arc::as_ptr(&b) as usize, dead);
        let (fresh, spawned, breaker) = assign(&mut topology, &b, 4);
        assert_eq!((fresh, spawned), (1, true));
        assert!(!Arc::ptr_eq(&breaker, &dead_breaker));
    }

    #[test]
    fn shed_best_effort_resolves_immediately() {
        // Zero-capacity queue: every BestEffort submission sheds at
        // admission without ever reaching the shard.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(
            ServerConfig::default().with_admission(AdmissionConfig::with_capacity(1)),
        );
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        // Occupy the shard with a stalled frame, wait until the shard
        // has pulled it out of the queue (depth back to zero), then
        // park one more frame in the queue: depth now holds at the
        // capacity watermark for the stall's duration.
        let stall = server.submit(
            session,
            FrameRequest::new(cam.pose).with_fault(Fault::Stall(Duration::from_millis(500))),
        );
        let shard = server.shard_of(session);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.shard_health()[shard.index()].queued > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stall never scheduled"
            );
            std::thread::yield_now();
        }
        let parked = server.submit(session, FrameRequest::new(cam.pose));
        let be = server.submit(
            session,
            FrameRequest::new(cam.pose).with_deadline(DeadlineClass::BestEffort),
        );
        let shed = be.wait_result();
        match shed {
            Err(ServeError::Shed { class }) => assert_eq!(class, DeadlineClass::BestEffort),
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(stall.wait_result().is_ok());
        assert!(parked.wait_result().is_ok());
        let adm = server.admission_stats();
        assert_eq!(adm.shed_best_effort, 1);
        assert_eq!(adm.shed_interactive, 0);
    }

    /// `scene`'s frame at `cam`, rendered directly (no server).
    fn direct(scene: &SceneState, cam: &gen_nerf_geometry::Camera) -> Image {
        let renderer = gen_nerf::pipeline::Renderer::new(
            &scene.model,
            &scene.sources,
            ctf(),
            scene.bounds,
            scene.background,
        );
        renderer.render(cam).0
    }

    /// Whether every spawned shard renders on `server`'s one crew.
    fn one_crew(server: &RenderServer) -> bool {
        let topology = lock(&server.topology);
        let shards = &topology.shards;
        shards
            .iter()
            .all(|s| Arc::ptr_eq(&s.ctx.crew, &server.crew))
    }

    #[test]
    fn every_shard_renders_on_the_one_crew() {
        let arena = WORKER_SCRATCH_BYTES as u64;
        let scenes: Vec<_> = (0..3)
            .map(|_| {
                let (ds, scene) = scene();
                let cam = ds.eval_views[0].camera;
                let want = direct(&scene, &cam);
                (scene, cam, want)
            })
            .collect();
        for width in 1..=4 {
            let server = RenderServer::new(ServerConfig {
                threads: width,
                ..ServerConfig::default()
            });
            assert_eq!(server.crew.threads(), width);
            let mut sessions = Vec::new();
            for (scene, cam, _) in &scenes {
                let config = SessionConfig::new(cam.intrinsics, ctf());
                sessions.push(server.create_session(Arc::clone(scene), config));
                assert!(one_crew(&server), "width {width}");
                // No anchor exists (coherence is off): the budget
                // holds the scratch of the crew and of every shard thread.
                let used = server.governor_stats().used_bytes;
                let shards = sessions.len();
                assert_eq!(used, (width - 1 + shards) as u64 * arena, "width {width}");
                for (k, ((_, cam, want), session)) in scenes.iter().zip(&sessions).enumerate() {
                    let frame = server.submit(*session, FrameRequest::new(cam.pose)).wait();
                    assert_eq!(frame.serve.shard, k);
                    assert_eq!(
                        frame.image.as_slice(),
                        want.as_slice(),
                        "shard {k} of {} at crew width {width} diverged from the direct render",
                        sessions.len()
                    );
                }
            }
        }
    }

    #[test]
    fn a_killed_shard_comes_back_on_the_one_crew() {
        let (ds, scene_a) = scene();
        let (_, scene_b) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(ServerConfig {
            threads: 4,
            health: HealthConfig {
                restart_backoff: Duration::from_millis(10),
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        });
        let arena = WORKER_SCRATCH_BYTES as u64;
        let reserved = server.governor_stats().used_bytes;
        assert_eq!(reserved, (4 - 1) * arena);
        let config = SessionConfig::new(cam.intrinsics, ctf());
        let a = server.create_session(Arc::clone(&scene_a), config);
        let b = server.create_session(scene_b, config);
        let healed = server
            .submit(a, FrameRequest::new(cam.pose).with_fault(Fault::KillShard))
            .wait_timeout(Duration::from_secs(60))
            .expect("the killed frame resolves across the restart")
            .expect("the requeued frame renders");
        server.submit(b, FrameRequest::new(cam.pose)).wait();
        assert!(server.shard_health()[0].restarts >= 1, "no restart");
        assert!(one_crew(&server));
        assert_eq!(healed.image.as_slice(), direct(&scene_a, &cam).as_slice());
        // The restart reserved nothing more: the crew is the server's,
        // and each shard thread's scratch was charged at its spawn.
        assert_eq!(server.governor_stats().used_bytes, reserved + 2 * arena);
    }

    #[test]
    fn a_shard_that_dies_past_its_restart_budget_goes_down() {
        // One kill more than the budget allows, each on its own session
        // and queued behind a stalled frame: round-robin pops them back
        // to back, so no frame renders between the restarts and the
        // give-up counter never resets.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(ServerConfig {
            health: HealthConfig {
                restart_backoff: Duration::from_millis(5),
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        });
        let config = SessionConfig::new(cam.intrinsics, ctf());
        let stalled = server.create_session(Arc::clone(&scene), config);
        let stall =
            FrameRequest::new(cam.pose).with_fault(Fault::Stall(Duration::from_millis(300)));
        let stall = server.submit(stalled, stall);
        let kills: Vec<FrameHandle> = (0..=MAX_RESTARTS)
            .map(|_| {
                let session = server.create_session(Arc::clone(&scene), config);
                server.submit(
                    session,
                    FrameRequest::new(cam.pose).with_fault(Fault::KillShard),
                )
            })
            .collect();
        assert!(stall.wait_result().is_ok());
        for kill in kills {
            let end = kill.wait_timeout(Duration::from_secs(60));
            assert_eq!(end.expect("resolves").err(), Some(ServeError::ShardDown));
        }
        let health = server.shard_health()[0];
        assert!(health.down, "{health:?}");
        assert_eq!(health.restarts, u64::from(MAX_RESTARTS), "{health:?}");
        let next = server.submit(stalled, FrameRequest::new(cam.pose));
        assert_eq!(next.wait_result().err(), Some(ServeError::ShardDown));
        let shed = lock(&server.topology).shards[0]
            .ctx
            .meters
            .shed(Shed::ShardDown, DeadlineClass::Interactive)
            .get();
        assert_eq!(shed, 1, "the submission after the give-up is shed");
    }

    #[test]
    fn a_batch_that_keeps_filling_tiles_is_not_wedged() {
        // The heartbeat budget is a quarter of one frame's render, which
        // spans ≈ 40 tiles: a beat per batch misses it, a beat per tile
        // has ten tiles to spare. The sweep counts the tiles the attempt
        // fills as beats, so the shard is never condemned.
        let (_, scene) = scene();
        let intrinsics = gen_nerf_geometry::Intrinsics::from_fov(40, 40, 0.6);
        let pose = gen_nerf_geometry::Pose::look_at(Vec3::new(3.0, 1.0, 3.0), Vec3::ZERO, Vec3::Y);
        let strategy = SamplingStrategy::coarse_then_focus(16, 12);
        let renderer = gen_nerf::pipeline::Renderer::new(
            &scene.model,
            &scene.sources,
            strategy,
            scene.bounds,
            scene.background,
        )
        .with_threads(1);
        let camera = gen_nerf_geometry::Camera::new(intrinsics, pose);
        let started = Instant::now();
        let (want, stats) = renderer.render(&camera);
        let budget = started.elapsed() / 4;
        assert!(
            stats.points + stats.coarse_points > 40 * 1024,
            "too few tiles"
        );
        let server = RenderServer::new(ServerConfig {
            threads: 1,
            supervision: SupervisorConfig {
                interactive_budget: Duration::from_secs(600),
                ..SupervisorConfig::default()
            },
            health: HealthConfig {
                heartbeat_budget: budget,
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        });
        let session = server.create_session(scene, SessionConfig::new(intrinsics, strategy));
        let frame = server
            .submit(session, FrameRequest::new(pose))
            .wait_timeout(Duration::from_secs(600))
            .expect("the frame resolves")
            .expect("the frame renders");
        assert_eq!(frame.image.as_slice(), want.as_slice());
        assert_eq!(server.shard_health()[0].restarts, 0);
    }

    // A duration too long to add to an instant means no bound, at
    // every door that adds a caller's duration to one.

    #[test]
    fn an_unbounded_wait_timeout_waits_for_the_frame() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let handle = server.submit(session, FrameRequest::new(cam.pose));
        let frame = handle
            .wait_timeout(Duration::MAX)
            .expect("an unbounded wait");
        assert!(frame.expect("renders").image.pixel_count() > 0);
    }

    #[test]
    fn an_unbounded_drain_waits_for_every_frame() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let stall = Fault::Stall(Duration::from_millis(100));
        let handles: Vec<FrameHandle> = (0..3)
            .map(|_| server.submit(session, FrameRequest::new(cam.pose).with_fault(stall)))
            .collect();
        assert!(server.drain(Duration::MAX).complete());
        for handle in handles {
            assert!(handle.wait_result().is_ok());
        }
    }

    #[test]
    fn unbounded_frame_budgets_render_and_drain() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig {
            supervision: SupervisorConfig {
                interactive_budget: Duration::MAX,
                best_effort_budget: Duration::MAX,
            },
            ..ServerConfig::default()
        });
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        for class in [DeadlineClass::Interactive, DeadlineClass::BestEffort] {
            let req = FrameRequest::new(cam.pose).with_deadline(class);
            assert!(server.submit(session, req).wait().image.pixel_count() > 0);
        }
        // The drain's grace is the longest budget plus 5 s.
        assert!(server.drain(Duration::from_secs(60)).complete());
    }

    #[test]
    fn a_shard_backing_off_forever_still_times_its_frames_out() {
        // A killed shard under an unbounded restart backoff never
        // respawns; the frame it handed back still times out.
        let (ds, scene) = scene();
        let budget = Duration::from_millis(300);
        let server = RenderServer::new(ServerConfig {
            supervision: SupervisorConfig {
                interactive_budget: budget,
                best_effort_budget: budget,
            },
            health: HealthConfig {
                restart_backoff: Duration::MAX,
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        });
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let killed = FrameRequest::new(cam.pose).with_fault(Fault::KillShard);
        let end = server
            .submit(session, killed)
            .wait_timeout(Duration::from_secs(10))
            .expect("the handed-back frame resolves");
        let class = DeadlineClass::Interactive;
        assert_eq!(end.err(), Some(ServeError::TimedOut { class }));
        assert_eq!(server.shard_health()[0].restarts, 0);
        assert_eq!(server.supervisor_stats().timed_out_interactive, 1);
    }
}
