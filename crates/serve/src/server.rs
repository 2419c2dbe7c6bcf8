//! The render server front end: session registry, scene→shard
//! routing, and submission-time admission control.
//!
//! Scheduling itself lives in [`shard`](crate::shard): every scene's
//! sessions route to one shard, which owns their bounded queue, fair
//! dequeue, and fused batch execution on its own slice of the thread
//! budget. The front end stays thin — resolve the session, apply the
//! shed-or-degrade admission policy against the shard's queue depth,
//! and hand the frame (or an immediate shed error) back through a
//! [`FrameHandle`].

use crate::admission::{admission_decision_supervised, AdmissionDecision, AdmissionStats};
use crate::frame::{End, Frame, FrameCore, Shed};
use crate::governor::{GovernorConfig, GovernorStats, MemoryGovernor};
use crate::health::{DrainReport, HealthConfig, ShardHealthStats};
use crate::lock;
use crate::registry::{Assignment, SceneRegistry, ShardId};
use crate::session::{
    CacheStats, DeadlineClass, ResolutionTier, SceneState, SessionConfig, SessionId, SessionState,
};
use crate::shard::{Shard, ShardCtx, ShardStats};
use crate::supervisor::{
    BreakerConfig, CircuitBreaker, RetryPolicy, Supervisor, SupervisorConfig, SupervisorStats,
};
use gen_nerf::pipeline::RenderStats;
use gen_nerf_geometry::Pose;
use gen_nerf_parallel::partition_threads;
use gen_nerf_scene::Image;
use gen_nerf_telemetry::{Snapshot, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Server-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Render-worker thread budget, partitioned across shards
    /// (every shard keeps at least one worker). Defaults to
    /// [`gen_nerf_parallel::num_threads`].
    pub threads: usize,
    /// Admission window: at most this many queued frames are coalesced
    /// into one fused multi-frame render (per shard).
    pub max_batch: usize,
    /// Shard count ceiling. The first `max_shards` registered scenes
    /// get a shard each; further scenes share shards round-robin.
    pub max_shards: usize,
    /// Bounded-queue admission policy applied per shard.
    pub admission: crate::admission::AdmissionConfig,
    /// Per-class wall-clock frame budgets enforced by the watchdog.
    pub supervision: SupervisorConfig,
    /// Re-render policy for transiently failed frames.
    pub retry: RetryPolicy,
    /// Per-scene circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Shard self-healing: heartbeat budget, sweep cadence, restart
    /// backoff/give-up, poison-streak escalation.
    pub health: HealthConfig,
    /// Process-wide memory budget over session caches and worker
    /// arenas.
    pub governor: GovernorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: gen_nerf_parallel::num_threads(),
            max_batch: 8,
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
    /// Sets the shard count ceiling (at least one).
    pub fn with_max_shards(mut self, max_shards: usize) -> Self {
        self.max_shards = max_shards.max(1);
        self
    }

    /// Sets the per-shard admission policy.
    pub fn with_admission(mut self, admission: crate::admission::AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the per-class frame deadline budgets.
    pub fn with_supervision(mut self, supervision: SupervisorConfig) -> Self {
        self.supervision = supervision;
        self
    }

    /// Sets the transient-failure retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-scene circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the shard self-healing policy.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Sets the process-wide memory governor policy.
    pub fn with_governor(mut self, governor: GovernorConfig) -> Self {
        self.governor = governor;
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
    /// deadline budget is reclaimed by the watchdog instead of parking
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
    /// queue while frames wait, exactly the no-heartbeat-with-work
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

    /// Selects the resolution tier.
    pub fn with_tier(mut self, tier: ResolutionTier) -> Self {
        self.tier = tier;
        self
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
    /// the watchdog resolved it (cancelling its render if one was in
    /// flight).
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

/// The caller's side of one submitted frame: poll it, or block on it.
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
    /// wait again, poll, or keep it; the server still owns the frame
    /// and its watchdog deadline). This is the bounded wait serving
    /// loops and tests use instead of hand-rolled spin loops.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<FrameResult, ServeError>> {
        self.frame.wait(Some(Instant::now() + timeout))
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

    /// Takes the result if the frame has resolved (non-blocking).
    ///
    /// # Panics
    ///
    /// Panics if the frame was shed or the server failed while
    /// rendering it.
    pub fn poll(&self) -> Option<FrameResult> {
        self.frame
            .take()
            .map(|outcome| outcome.unwrap_or_else(|e| panic!("render server failed: {e}")))
    }

    /// Whether the frame has resolved (without consuming the result).
    pub fn is_ready(&self) -> bool {
        self.frame.is_ready()
    }
}

/// Scene→shard assignment plus the spawned shards, guarded together
/// so lazily spawning a shard and recording its scene is atomic.
struct Topology {
    registry: SceneRegistry,
    shards: Vec<Shard>,
}

/// Circuit breakers keyed like the registry: the scene's `Arc` pointer,
/// with a `Weak` liveness witness beside the breaker.
type BreakerTable = HashMap<usize, (Weak<SceneState>, Arc<CircuitBreaker>)>;

/// The multi-session, scene-sharded render server. See the crate docs
/// for the architecture; in short: [`RenderServer::create_session`]
/// routes a scene to a shard (spawning it on first sight),
/// [`RenderServer::submit`] applies admission control against that
/// shard's bounded queue and returns a [`FrameHandle`]; the shard
/// thread fair-dequeues, coalesces compatible frames into fused
/// multi-frame renders on its own persistent worker pool, and resolves
/// the handles.
///
/// Dropping the server closes every shard queue, drains every frame
/// already admitted, and joins the shard threads.
pub struct RenderServer {
    cfg: ServerConfig,
    /// Shared with the supervisor's health-sweep hook (which holds
    /// only a `Weak`, so the server still owns the topology's
    /// lifetime).
    topology: Arc<Mutex<Topology>>,
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_session: AtomicU64,
    /// Per-scene circuit breakers. Sessions sharing a scene share its
    /// breaker: scene health is a property of the scene, not of any
    /// one viewer.
    breakers: Mutex<BreakerTable>,
    supervisor: Arc<Supervisor>,
    /// The process-wide memory governor shared by every shard.
    governor: Arc<MemoryGovernor>,
    /// Latched by [`RenderServer::drain`]: admission closed for good.
    draining: AtomicBool,
    /// Process-unique instance id: every metric this server registers
    /// carries `instance = <id>` so concurrent servers (unit tests!)
    /// never fold each other's counters into their stats views.
    instance: u64,
}

impl RenderServer {
    /// Builds the server front end. Shards (and their worker pools)
    /// spawn lazily as scenes are registered.
    pub fn new(cfg: ServerConfig) -> Self {
        Self::with_clock(cfg, gen_nerf_telemetry::Clock::real())
    }

    /// Builds the server with an explicit [`Clock`] behind the
    /// watchdog's deadline math — pass a
    /// [`Clock::virtual_clock`](gen_nerf_telemetry::Clock::virtual_clock)
    /// to drive timeouts deterministically under test.
    ///
    /// [`Clock`]: gen_nerf_telemetry::Clock
    pub fn with_clock(cfg: ServerConfig, clock: gen_nerf_telemetry::Clock) -> Self {
        let instance = gen_nerf_telemetry::next_instance_id();
        let topology = Arc::new(Mutex::new(Topology {
            registry: SceneRegistry::new(cfg.max_shards),
            shards: Vec::new(),
        }));
        let sweep_clock = clock.clone();
        let supervisor = Arc::new(Supervisor::spawn(instance, clock));
        // The health sweep rides the watchdog thread. It holds only a
        // Weak topology reference: once the server drops its Arc, the
        // sweep degrades to a no-op instead of keeping shards alive.
        let sweep_topology = Arc::downgrade(&topology);
        supervisor.set_sweep(
            cfg.health.sweep_interval,
            Box::new(move || {
                let Some(topology) = sweep_topology.upgrade() else {
                    return;
                };
                let now = sweep_clock.now();
                for shard in &mut lock(&topology).shards {
                    shard.sweep(now);
                }
            }),
        );
        Self {
            cfg,
            topology,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            breakers: Mutex::new(HashMap::new()),
            supervisor,
            governor: Arc::new(MemoryGovernor::new(&cfg.governor)),
            draining: AtomicBool::new(false),
            instance,
        }
    }

    /// The circuit breaker owning `scene`'s health, created on first
    /// sight (same Weak-witnessed pointer keying as the registry, so a
    /// recycled allocation never inherits a dead scene's trip
    /// history).
    fn breaker_for(&self, scene: &Arc<SceneState>) -> Arc<CircuitBreaker> {
        let key = Arc::as_ptr(scene) as usize;
        let mut breakers = lock(&self.breakers);
        if let Some((witness, breaker)) = breakers.get(&key) {
            if witness
                .upgrade()
                .is_some_and(|live| Arc::ptr_eq(&live, scene))
            {
                return Arc::clone(breaker);
            }
        }
        let breaker = Arc::new(CircuitBreaker::new(self.cfg.breaker));
        breakers.insert(key, (Arc::downgrade(scene), Arc::clone(&breaker)));
        breaker
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
    /// batch together on that shard.
    pub fn create_session(&self, scene: Arc<SceneState>, cfg: SessionConfig) -> SessionId {
        let shard = {
            let mut topology = lock(&self.topology);
            let assignment = topology.registry.assign(&scene);
            if let Assignment::SpawnNew(idx) = assignment {
                debug_assert_eq!(idx, topology.shards.len());
                let pool_threads = partition_threads(self.cfg.threads, self.cfg.max_shards)[idx];
                topology.shards.push(Shard::spawn(ShardCtx::new(
                    self.instance,
                    idx,
                    pool_threads,
                    self.cfg,
                    Arc::clone(&self.supervisor),
                    Arc::clone(&self.governor),
                )));
            }
            Arc::clone(&topology.shards[assignment.index()].ctx)
        };
        let breaker = self.breaker_for(&scene);
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(SessionState::new(scene, cfg, shard, breaker));
        // Make the session's cache evictable under global memory
        // pressure.
        self.governor.register(&state);
        lock(&self.sessions).insert(id, state);
        SessionId(id)
    }

    /// Enqueues a frame request through admission control; returns
    /// immediately with a handle. Overloaded shards shed BestEffort
    /// frames (the handle resolves at once with [`ServeError::Shed`])
    /// and degrade Interactive frames to the cached-coarse tier before
    /// shedding them at the hard bound. A scene whose circuit breaker
    /// is open sheds instantly with [`ServeError::CircuitOpen`].
    /// Admitted frames are watched against their class's wall-clock
    /// budget: the handle always resolves, at worst with
    /// [`ServeError::TimedOut`].
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
        } else if class == DeadlineClass::BestEffort && self.governor.under_pressure() {
            self.governor.note_pressure_shed();
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

    /// Ends a session: drops its cached coarse pass, its scene handle
    /// (the `SceneState` is freed once the last session sharing it
    /// ends) and its counters, and rejects future submissions for the
    /// id. Frames of the session already queued fail ("session
    /// removed"); removal then **waits for every in-flight frame of
    /// the session to settle** before releasing the session's cache
    /// bytes back to the memory governor — the handle a caller still
    /// holds always resolves, and the governor's books never go
    /// negative on a racing insert.
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
        // Drain-then-drop: every admitted frame holds a pending claim
        // until its handle resolves *and* the shard is done touching
        // the session (cache inserts included). The bound is a safety
        // net only — frames resolve at worst at their watchdog
        // deadline, well inside it.
        let settled = state.pending.wait_settled(Duration::from_secs(120));
        debug_assert!(settled, "session frames never settled");
        // Quiesced: empty the cache under its lock and give the bytes
        // back in one step, so a concurrent governor eviction can
        // never double-count them.
        let freed: usize = {
            let mut cache = lock(&state.cache);
            std::iter::from_fn(|| cache.evict_tail()).sum()
        };
        if freed > 0 {
            self.governor.discharge(freed as u64);
        }
    }

    /// Stops admission for good and waits for every shard to finish
    /// its queued and in-flight work, up to `deadline` per call (the
    /// budget is shared across shards, measured from entry). Frames
    /// still unfinished when the budget expires are force-failed with
    /// [`ServeError::Draining`], so **every** outstanding handle has
    /// resolved by the time this returns. Draining is terminal:
    /// submissions after (or during) a drain resolve immediately with
    /// [`ServeError::Draining`].
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        self.draining.store(true, Ordering::SeqCst);
        let hard_deadline = Instant::now() + deadline;
        // Past the deadline a cancelled worker gets this long to
        // unwind.
        let supervision = &self.cfg.supervision;
        let grace = supervision
            .interactive_budget
            .max(supervision.best_effort_budget)
            + Duration::from_secs(5);
        // Snapshot the shard contexts, then wait without the topology
        // lock: the health sweep (watchdog thread) takes that lock on
        // its own cadence, and a drain must not starve it.
        let shards: Vec<_> = lock(&self.topology)
            .shards
            .iter()
            .map(|s| Arc::clone(&s.ctx))
            .collect();
        let outcomes = shards
            .iter()
            .map(|shard| shard.drain(hard_deadline, grace))
            .collect();
        DrainReport { outcomes }
    }

    /// Lifecycle counters and current health verdict of every spawned
    /// shard, in shard order.
    pub fn shard_health(&self) -> Vec<ShardHealthStats> {
        let now = self.supervisor.clock().now();
        lock(&self.topology)
            .shards
            .iter()
            .map(|s| s.health_stats(now))
            .collect()
    }

    /// Counters of the process-wide memory governor (budget, usage,
    /// peak, evictions, refusals, pressure sheds).
    pub fn governor_stats(&self) -> GovernorStats {
        self.governor.stats()
    }

    /// Coarse-cache counters of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn cache_stats(&self, session: SessionId) -> CacheStats {
        self.session(session).cache_stats()
    }

    /// Shards spawned so far (≤ `max_shards`; one per registered
    /// scene until the ceiling).
    pub fn shard_count(&self) -> usize {
        lock(&self.topology).shards.len()
    }

    /// The shard serving `session`'s scene.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not created by this server.
    pub fn shard_of(&self, session: SessionId) -> ShardId {
        ShardId(self.session(session).shard.index)
    }

    /// A snapshot of one shard's queue depth and counters.
    ///
    /// # Panics
    ///
    /// Panics if `shard` has not been spawned.
    pub fn shard_stats(&self, shard: ShardId) -> ShardStats {
        lock(&self.topology)
            .shards
            .get(shard.0)
            .expect("shard exists")
            .ctx
            .stats()
    }

    /// Admission counters summed over every shard — derived by folding
    /// the telemetry snapshot over this server's `instance` label, so
    /// the aggregate can never drift from the per-shard registry
    /// counters it is a view of.
    pub fn admission_stats(&self) -> AdmissionStats {
        let inst = self.instance.to_string();
        AdmissionStats::from_snapshot(&gen_nerf_telemetry::snapshot(), &[("instance", &inst)])
    }

    /// This server's process-unique telemetry instance id: every
    /// metric it registers carries `instance = <id>`.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// A typed snapshot of the process-global metrics registry.
    /// Includes every instrumented layer (nn kernel dispatch/ABFT,
    /// core render stages, serve counters of *all* server instances);
    /// filter serve metrics to this server with
    /// `[("instance", &server.instance().to_string())]`.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        gen_nerf_telemetry::snapshot()
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

    /// Snapshots of every spawned shard, in shard-index order.
    pub fn shard_stats_all(&self) -> Vec<ShardStats> {
        lock(&self.topology)
            .shards
            .iter()
            .map(|s| s.ctx.stats())
            .collect()
    }

    /// Watchdog counters: frames watched, per-class timeouts, frames
    /// currently under watch.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.supervisor.stats()
    }

    /// The circuit breaker guarding `session`'s scene — shared by
    /// every session viewing that scene. Introspection for tests and
    /// load harnesses (state, trip and shed counts).
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
        // admitted and exit their receive loops; `Shard::shutdown`
        // joins each thread.
        for shard in &mut lock(&self.topology).shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
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
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let frame = server.submit(session, FrameRequest::new(cam.pose)).wait();
        assert_eq!(frame.image.pixel_count() as u64, frame.stats.rays);
        assert_eq!(frame.serve.cache, CacheOutcome::Bypass);
        assert!(frame.serve.latency >= frame.serve.render_time);
        assert!(frame.serve.batched_frames >= 1);
        assert!(!frame.serve.degraded);
        assert_eq!(frame.serve.shard, 0);
        assert_eq!(server.shard_count(), 1);
    }

    #[test]
    fn poll_and_wait_timeout_round_trip() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        let handle = server.submit(session, FrameRequest::new(cam.pose));
        // poll() is non-blocking; wait_timeout() is the bounded wait
        // that replaces hand-rolled poll loops.
        let result = match handle.poll() {
            Some(r) => r,
            None => handle
                .wait_timeout(Duration::from_secs(10))
                .expect("frame resolves well within 10 s")
                .expect("render succeeds"),
        };
        assert!(result.image.pixel_count() > 0);
    }

    #[test]
    fn wait_timeout_expires_and_leaves_the_handle_usable() {
        let (ds, scene) = scene();
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(scene, SessionConfig::new(cam.intrinsics, ctf()));
        // The stall keeps the frame unresolved past the first bounded
        // wait (well under the 10 s Interactive budget, so the
        // watchdog never fires).
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
        let server = RenderServer::new(ServerConfig::default());
        let cam = ds.eval_views[0].camera;
        let session = server.create_session(
            scene,
            SessionConfig::new(cam.intrinsics, ctf())
                .with_coherence(CoherenceConfig::within(0.05, 0.02))
                .with_cache_budget(1),
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
                FrameRequest::new(cam.pose).with_tier(ResolutionTier::Half),
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
        // must be the last one standing (the registry only keeps a
        // Weak witness).
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
        assert_eq!(server.shard_count(), 1);
        let b = server.create_session(scene_b, SessionConfig::new(cam.intrinsics, ctf()));
        assert_eq!(server.shard_count(), 2);
        // A third scene shares an existing shard (round-robin).
        let c = server.create_session(scene_c, SessionConfig::new(cam.intrinsics, ctf()));
        assert_eq!(server.shard_count(), 2);
        assert_eq!(server.shard_of(a).index(), 0);
        assert_eq!(server.shard_of(b).index(), 1);
        assert_eq!(server.shard_of(c).index(), 0);
        // Frames route to their scene's shard and still render.
        let rb = server.submit(b, FrameRequest::new(cam.pose)).wait();
        assert_eq!(rb.serve.shard, 1);
        let stats = server.shard_stats(server.shard_of(b));
        assert_eq!(stats.rendered_frames, 1);
        assert_eq!(stats.admission.admitted, 1);
    }

    #[test]
    fn shed_best_effort_resolves_immediately() {
        // Zero-capacity queue: every BestEffort submission sheds at
        // admission without ever reaching the shard.
        let (ds, scene) = scene();
        let cam = ds.eval_views[0].camera;
        let server = RenderServer::new(
            ServerConfig::default()
                .with_admission(AdmissionConfig::with_capacity(1).with_interactive_capacity(1)),
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
        while server.shard_stats(shard).queued > 0 {
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
}
