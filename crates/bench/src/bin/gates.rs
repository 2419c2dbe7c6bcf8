//! The CI gates: every pass/fail check the serve tier and the render
//! hot path owe CI, in one binary.
//!
//! `gates [NAME…]`, names `load | chaos | integrity |
//! telemetry-overhead`. One name runs that gate in this process; no
//! name (or several) runs each in a child process of its own, because
//! a gate leaves process-global state behind — `integrity` can trip
//! the sticky AVX2 quarantine and sets the integrity mode, `chaos`
//! installs a panic hook, `telemetry-overhead` toggles the telemetry
//! switch. The exit code is the verdict: non-zero if any check failed,
//! 2 for an unknown name. Nothing is written to disk, and nothing here
//! reports a speed — numbers are the repo benchmark's job
//! (`benchmark/`).
//!
//! Request schedules are drawn up front from a fixed seed
//! (`GEN_NERF_SEED` overrides it) by [`gen_nerf_bench::loadgen`], so
//! two runs replay the identical requests and faults:
//!
//! * `load` — open-loop Poisson arrivals below the configuration's
//!   saturation point. `SERVE_LOAD_GATE` fails if admission control
//!   shed any Interactive frame; `TELEMETRY_RECONCILE` fails unless
//!   the registry snapshot agrees exactly with the outcomes observed
//!   through the frame handles and every frame left a complete trace.
//!   Ends with the telemetry watch table.
//! * `chaos` — a loud-failure schedule (panics, stalls, slow frames,
//!   shard kills and wedges) against the supervised tier, then a
//!   scripted circuit-breaker drill (`SERVE_CHAOS_GATE`, plus
//!   `TELEMETRY_RECONCILE` against the chaos ground truth), then the
//!   self-healing drill one deterministic case at a time
//!   (`SERVE_HEAL_GATE`).
//! * `integrity` — a *silent*-failure schedule (supra-tolerance GEMM
//!   perturbations, NaN-poisoned pixels, bit-flipped cache anchors)
//!   under full ABFT checking. `SERVE_INTEGRITY_GATE` fails on any
//!   undetected corruption, published non-finite pixel, clean-run
//!   false positive, or checking overhead past its ceiling (full
//!   < 15 %, sample < 5 %).
//! * `telemetry-overhead` — the fused render with the global telemetry
//!   switch off vs on; `TELEMETRY_OVERHEAD_GATE` holds the cost of
//!   observability under 3 %.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::prepare_sources;
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::Renderer;
use gen_nerf_bench::loadgen::{
    chaos_plan, corruption_plan, heal_plan, load_plan, seed_from_env, ChaosFault, ChaosSpec,
    CorruptionFault, HealFault, LoadSpec,
};
use gen_nerf_geometry::{Intrinsics, Pose};
use gen_nerf_nn::kernels;
use gen_nerf_nn::kernels::integrity::{self, IntegrityMode};
use gen_nerf_scene::{Dataset, DatasetKind};
use gen_nerf_serve::{
    AdmissionConfig, BreakerConfig, BreakerState, CoherenceConfig, DeadlineClass, Fault,
    FrameRequest, FrameResult, GovernorConfig, HealthConfig, RenderServer, RetryPolicy, SceneState,
    ServeError, ServerConfig, SessionConfig, SessionId, SupervisorConfig,
};
use gen_nerf_telemetry::{render_watch, AdmissionVerdict, EventKind};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named CI gate. A failed [`Gate::check`] prints
/// `NAME: FAIL — why` and is remembered; [`Gate::finish`] prints
/// `NAME: OK — summary` only when every check held.
struct Gate<W: Write> {
    name: &'static str,
    out: W,
    failed: bool,
}

impl Gate<std::io::Stdout> {
    fn new(name: &'static str) -> Self {
        Gate {
            name,
            out: std::io::stdout(),
            failed: false,
        }
    }
}

impl<W: Write> Gate<W> {
    fn check(&mut self, ok: bool, why: impl Display) {
        if !ok {
            self.failed = true;
            writeln!(self.out, "{}: FAIL — {why}", self.name).expect("write gate verdict");
        }
    }

    /// Whether the gate passed.
    fn finish(mut self, summary: impl Display) -> bool {
        if !self.failed {
            writeln!(self.out, "{}: OK — {summary}", self.name).expect("write gate verdict");
        }
        !self.failed
    }
}

/// Overhead in percent read off paired checked/unchecked time ratios,
/// at rank `len / divisor` of the sorted series: 2 reads the median, 4
/// the lower quartile. Pairing within a rep cancels frequency/thermal
/// drift; a low rank keeps full sensitivity to a real regression
/// (which shifts every pair) without flaking on host noise (which
/// mostly fattens the upper tail).
fn paired_overhead_pct(ratios: &mut [f64], divisor: usize) -> f64 {
    ratios.sort_by(|a, b| a.total_cmp(b));
    (ratios[ratios.len() / divisor] - 1.0) * 100.0
}

// ---------------------------------------------------------------------------
// The shared serve workload: every serve gate renders the same tiny
// frames over replicas of one scene.
// ---------------------------------------------------------------------------

const RES: u32 = 12;

fn session_config() -> SessionConfig {
    SessionConfig::new(
        Intrinsics::from_fov(RES, RES, 0.55),
        SamplingStrategy::coarse_then_focus(8, 8),
    )
}

fn build_scenes(n: usize) -> Vec<Arc<SceneState>> {
    println!("preparing {n} scene(s) at {RES}x{RES} ...");
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, RES as usize, 5);
    (0..n)
        .map(|_| {
            let model = GenNerfModel::new(ModelConfig::fast());
            Arc::new(SceneState::prepare(
                model,
                &ds.source_views,
                ds.scene.bounds,
                ds.scene.background,
            ))
        })
        .collect()
}

fn make_server(scenes: &[Arc<SceneState>], admission: AdmissionConfig) -> RenderServer {
    RenderServer::new(
        ServerConfig::default()
            .with_max_shards(scenes.len())
            .with_admission(admission),
    )
}

/// `n` sessions assigned round-robin to `scenes`, so sessions
/// `0..scenes.len()` cover every scene (and shard) once.
fn create_sessions(
    server: &RenderServer,
    scenes: &[Arc<SceneState>],
    n: usize,
    config: impl Fn() -> SessionConfig,
) -> Vec<SessionId> {
    (0..n)
        .map(|s| server.create_session(Arc::clone(&scenes[s % scenes.len()]), config()))
        .collect()
}

/// Renders one clean frame per shard before any clock starts.
fn warm_shards(server: &RenderServer, sessions: &[SessionId], shards: usize, pose: Pose) {
    for &session in &sessions[..shards] {
        server.submit(session, FrameRequest::new(pose)).wait();
    }
}

/// Open-loop pacing: sleeps until `at_ms` past `start`. The arrival
/// process never waits for the server.
fn pace(start: Instant, at_ms: f64) {
    let target = Duration::from_secs_f64(at_ms / 1e3);
    if let Some(sleep) = target.checked_sub(start.elapsed()) {
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
}

/// A closed burst of `burst` clean frames over `sessions` sessions,
/// through a server whose admission bounds are far above the burst
/// size, so nothing sheds and the shards run flat out. Returns the
/// wall-clock seconds and the corrupt-render detections — on a clean
/// burst, false positives by definition.
fn closed_burst(scenes: &[Arc<SceneState>], sessions: usize, burst: usize) -> (f64, u64) {
    let server = make_server(scenes, AdmissionConfig::with_capacity(burst + 1));
    let sessions = create_sessions(&server, scenes, sessions, session_config);
    let plan = load_plan(&LoadSpec {
        sessions: sessions.len(),
        frames_per_session: burst.div_ceil(sessions.len()),
        rate_hz: 1.0,
        best_effort_fraction: 0.0,
        scenes: scenes.len(),
        seed: 17,
    });
    // Warm the shard pools before timing.
    server
        .submit(sessions[0], FrameRequest::new(plan[0].pose))
        .wait();
    let t0 = Instant::now();
    let handles: Vec<_> = plan
        .iter()
        .take(burst)
        .map(|a| server.submit(sessions[a.session], FrameRequest::new(a.pose)))
        .collect();
    for h in handles {
        h.wait();
    }
    let secs = t0.elapsed().as_secs_f64();
    let detections = server
        .shard_stats_all()
        .iter()
        .map(|s| s.corrupt_renders)
        .sum();
    (secs, detections)
}

/// One of the server's registry counters, folded by its instance label.
fn instance_counter(server: &RenderServer, name: &str) -> u64 {
    let inst = server.instance().to_string();
    server
        .telemetry_snapshot()
        .counter_with(name, &[("instance", &inst)])
}

// ---------------------------------------------------------------------------
// Telemetry reconciliation: the registry snapshot, folded by a server's
// instance label, must agree *exactly* with the outcomes the harness
// observed through the frame handles — and every submitted frame must
// leave a complete trace in the shard rings.
// ---------------------------------------------------------------------------

/// Harness-side outcome tallies for one server's full life, warm-up
/// frames included.
#[derive(Default)]
struct ServeTruth {
    submitted: u64,
    rendered: u64,
    failed: u64,
    timed_out: u64,
    /// Shed for any reason (capacity, hard bound, or open breaker).
    shed: u64,
    /// Degrade admissions, checkable only when every degraded frame is
    /// known to have been delivered (clean below-saturation load).
    degraded: Option<u64>,
}

/// `TELEMETRY_RECONCILE`: compares the server's snapshot fold and its
/// trace rings against `truth`; returns whether everything reconciled.
fn telemetry_gate(server: &RenderServer, truth: &ServeTruth) -> bool {
    let mut gate = Gate::new("TELEMETRY_RECONCILE");
    let inst = server.instance().to_string();
    let sub: &[(&str, &str)] = &[("instance", &inst)];
    // Every handle has resolved (the callers check), and the serve tier
    // books a frame's counter, latency observation and terminal event
    // before it wakes the handle — so the snapshot is read at once.
    let snap = server.telemetry_snapshot();
    let counters = [
        ("submitted", Some(truth.submitted)),
        ("rendered", Some(truth.rendered)),
        ("failed", Some(truth.failed)),
        ("timed_out", Some(truth.timed_out)),
        ("shed", Some(truth.shed)),
        ("degraded", truth.degraded),
    ];
    for (name, want) in counters {
        let Some(want) = want else { continue };
        let got = snap.counter_with(&format!("serve_frames_{name}_total"), sub);
        gate.check(
            got == want,
            format!("{name}: snapshot {got} != harness {want}"),
        );
    }
    let observed = snap.histogram_merged("serve_latency_ns", sub).count;
    gate.check(
        observed == truth.rendered,
        format!(
            "latency_observations: snapshot {observed} != harness {}",
            truth.rendered
        ),
    );

    // Frame-lifecycle completeness: every submission left exactly one
    // Submit and exactly one terminal event (Resolve, or a shed/break
    // admission verdict), and the rings dropped nothing (a gate's few
    // dozen frames cannot lap a shard ring).
    let drops = server.trace_drops();
    gate.check(drops == 0, format!("{drops} trace ring event(s) dropped"));
    // (submits, resolves, terminal admission verdicts) per frame. Only
    // frame-lifecycle kinds key into the map: shard-lifecycle events
    // (Condemn/Restart/Drain carry the shard, not a frame, in their
    // payload) must not fabricate phantom frame entries.
    let mut by_frame: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for e in server.drain_traces() {
        match e.kind {
            EventKind::Submit => by_frame.entry(e.frame).or_default().0 += 1,
            EventKind::Resolve => by_frame.entry(e.frame).or_default().1 += 1,
            EventKind::Admit
                if AdmissionVerdict::from_code(e.a).is_some_and(|v| v.is_terminal()) =>
            {
                by_frame.entry(e.frame).or_default().2 += 1
            }
            _ => {}
        }
    }
    gate.check(
        by_frame.len() as u64 == truth.submitted,
        format!(
            "{} traced frame(s) != {} submissions",
            by_frame.len(),
            truth.submitted
        ),
    );
    let bad_submit = by_frame.values().filter(|t| t.0 != 1).count();
    gate.check(
        bad_submit == 0,
        format!("{bad_submit} frame(s) without exactly one Submit"),
    );
    let orphans = by_frame.values().filter(|t| t.1 + t.2 != 1).count();
    gate.check(
        orphans == 0,
        format!("{orphans} frame(s) without exactly one terminal event"),
    );
    gate.finish(format!(
        "snapshot matches harness ground truth ({} frames, complete traces, 0 ring drops)",
        truth.submitted
    ))
}

// ---------------------------------------------------------------------------
// `load`: the admission-control regression gate.
// ---------------------------------------------------------------------------

fn load_gate() -> bool {
    // Fixed constants, NOT calibrated against measured throughput at
    // run time: calibration would make the request schedule depend on
    // the host and break run-to-run schedule determinism. The workload
    // sits far below any plausible saturation point, which the gate
    // checks — shedding nothing above saturation would be vacuous.
    let spec = LoadSpec {
        sessions: 6,
        frames_per_session: 3,
        rate_hz: 4.0,
        best_effort_fraction: 0.25,
        scenes: 2,
        seed: seed_from_env(42),
    };
    let scenes = build_scenes(spec.scenes);
    let saturation_burst = 24;
    let (burst_s, _) = closed_burst(&scenes, scenes.len() * 4, saturation_burst);
    let saturation_fps = saturation_burst as f64 / burst_s;
    let offered_fps = spec.sessions as f64 * spec.rate_hz;
    println!(
        "open-loop: {} sessions x {} frames at {:.2} Hz (offered {offered_fps:.0} fps, \
         saturation {saturation_fps:.0} fps, seed {}) ...",
        spec.sessions, spec.frames_per_session, spec.rate_hz, spec.seed
    );

    let plan = load_plan(&spec);
    let server = make_server(&scenes, AdmissionConfig::with_capacity(64));
    let sessions = create_sessions(&server, &scenes, spec.sessions, session_config);
    warm_shards(&server, &sessions, scenes.len(), plan[0].pose);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(plan.len());
    for a in &plan {
        pace(start, a.at_ms);
        let req = FrameRequest::new(a.pose).with_deadline(a.deadline);
        handles.push(server.submit(sessions[a.session], req));
    }
    let (mut completed, mut shed, mut degraded) = (0u64, 0u64, 0u64);
    for handle in handles {
        match handle.wait_result() {
            Ok(frame) => {
                completed += 1;
                degraded += frame.serve.degraded as u64;
            }
            Err(ServeError::Shed { .. }) => shed += 1,
            // No faults are injected and the default budgets are far
            // above any queue wait here; a failure, timeout, open
            // breaker, drain, or downed shard would be a real
            // regression.
            Err(e) => panic!("unexpected outcome under clean load: {e}"),
        }
    }
    let shed_interactive = server.admission_stats().shed_interactive;
    println!(
        "  completed {completed} / {} (degraded {degraded}, shed {shed})",
        plan.len()
    );
    // Clean below-saturation load: every non-shed frame is delivered,
    // so the degrade-admission counter is exactly checkable.
    let telemetry_ok = telemetry_gate(
        &server,
        &ServeTruth {
            submitted: scenes.len() as u64 + plan.len() as u64,
            rendered: completed + scenes.len() as u64,
            shed,
            degraded: Some(degraded),
            ..ServeTruth::default()
        },
    );

    let mut gate = Gate::new("SERVE_LOAD_GATE");
    gate.check(
        telemetry_ok,
        "telemetry did not reconcile with harness ground truth (see TELEMETRY_RECONCILE \
         lines above)",
    );
    gate.check(
        offered_fps < saturation_fps,
        format!(
            "smoke workload is not below saturation ({offered_fps:.0} >= \
             {saturation_fps:.0} fps); the shed gate would be vacuous"
        ),
    );
    gate.check(
        shed_interactive == 0,
        format!("{shed_interactive} Interactive frame(s) shed below the saturation point"),
    );
    let ok = gate.finish("no Interactive frames shed below saturation");
    print!("{}", render_watch(&gen_nerf_telemetry::snapshot()));
    ok
}

// ---------------------------------------------------------------------------
// `chaos`: deterministic fault replay over the supervised serve tier.
// The seed that fixes the request schedule also fixes the fault
// schedule (a chaos-private stream), so a failure reproduces with the
// same GEN_NERF_SEED.
// ---------------------------------------------------------------------------

/// Per-class budgets chosen for chaos runs: small enough that a
/// timeout drill completes in milliseconds-to-seconds, large enough
/// that clean frames at the chaos workload's modest rate never brush
/// against them.
const CHAOS_INTERACTIVE_BUDGET: Duration = Duration::from_millis(800);
const CHAOS_BEST_EFFORT_BUDGET: Duration = Duration::from_millis(1500);
/// A `Timeout` fault stalls past *both* budgets.
const CHAOS_TIMEOUT_STALL: Duration = Duration::from_millis(2500);
/// A `Slow` fault stalls well within both budgets.
const CHAOS_SLOW_STALL: Duration = Duration::from_millis(80);
/// Slack the gate grants beyond the class budget: the watchdog wakes
/// at the deadline and resolution is prompt, but not instantaneous.
const CHAOS_GRACE: Duration = Duration::from_millis(300);
/// Fraction of chaos frames that carry a *shard-lifecycle* fault
/// (kill / wedge) on top of the frame-level chaos schedule — rare, as
/// whole-scheduler failures are in production, but present so every
/// chaos replay also exercises detection + restart + requeue.
const CHAOS_HEAL_FRACTION: f64 = 0.06;
/// A `WedgeShard` stall parks the scheduler thread past the default
/// heartbeat budget (2 s) without beating, so the health sweep must
/// condemn the shard; the wedged frame itself resolves through the
/// watchdog at its class budget long before that.
const CHAOS_WEDGE_STALL: Duration = Duration::from_millis(2500);

fn class_budget(class: DeadlineClass) -> Duration {
    match class {
        DeadlineClass::Interactive => CHAOS_INTERACTIVE_BUDGET,
        DeadlineClass::BestEffort => CHAOS_BEST_EFFORT_BUDGET,
    }
}

fn serve_fault(fault: ChaosFault) -> Fault {
    match fault {
        ChaosFault::TransientPanic => Fault::PanicOnce,
        ChaosFault::PersistentPanic => Fault::Panic,
        ChaosFault::Timeout => Fault::Stall(CHAOS_TIMEOUT_STALL),
        ChaosFault::Slow => Fault::Stall(CHAOS_SLOW_STALL),
    }
}

fn serve_heal_fault(fault: HealFault) -> Fault {
    match fault {
        HealFault::KillShard => Fault::KillShard,
        HealFault::WedgeShard => Fault::WedgeShard(CHAOS_WEDGE_STALL),
    }
}

/// The circuit-breaker drill: a fresh server, one scene, a burst of
/// persistent panics until the breaker trips, a shed check while it is
/// open, then cooldown + clean probes until it closes again. Fully
/// deterministic (no load racing the state machine). Returns whether
/// the breaker re-closed.
fn breaker_drill(scene: &Arc<SceneState>, pose: Pose) -> bool {
    let cooldown = Duration::from_millis(1000);
    let server = RenderServer::new(
        ServerConfig::default()
            // One failure per frame (no retry) makes trip counting
            // exact; a long cooldown keeps the shed check race-free.
            .with_retry(RetryPolicy::disabled())
            .with_breaker(
                BreakerConfig::default()
                    .with_window(8, 4)
                    .with_cooldown(cooldown)
                    .with_probe_quota(2),
            ),
    );
    let session = server.create_session(Arc::clone(scene), session_config());
    let breaker = server.scene_breaker(session);

    let mut frames_to_trip = 0u64;
    while breaker.state() != BreakerState::Open {
        assert!(
            frames_to_trip < 64,
            "breaker never tripped after 64 persistent failures"
        );
        let handle = server.submit(session, FrameRequest::new(pose).with_fault(Fault::Panic));
        let _ = handle.wait_result();
        frames_to_trip += 1;
    }

    // While open (cooldown is 1 s; these submissions take microseconds)
    // every submission sheds instantly with CircuitOpen.
    for _ in 0..4 {
        match server
            .submit(session, FrameRequest::new(pose))
            .wait_result()
        {
            Err(ServeError::CircuitOpen) => {}
            other => panic!("open breaker admitted a frame: {other:?}"),
        }
    }

    // Cooldown elapses; clean probe frames close the circuit again.
    std::thread::sleep(cooldown + Duration::from_millis(100));
    for _ in 0..8 {
        let _ = server
            .submit(session, FrameRequest::new(pose))
            .wait_result();
        if breaker.state() == BreakerState::Closed {
            return true;
        }
    }
    false
}

fn chaos_gate() -> bool {
    // Injected faults unwind through catch_unwind on the shard; the
    // default hook would still spray a backtrace per injection. Keep
    // the log readable — real panics pass through untouched.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected render fault"));
        if !injected {
            default_hook(info);
        }
    }));
    // Modest open-loop pressure: the chaos run probes recovery, not
    // saturation — queue waits must stay far below the tight budgets
    // so every timeout is an *injected* one.
    let spec = LoadSpec {
        sessions: 6,
        frames_per_session: 5,
        rate_hz: 6.0,
        best_effort_fraction: 0.25,
        scenes: 2,
        seed: seed_from_env(42),
    };
    let fraction = 0.35;
    let scenes = build_scenes(spec.scenes);
    println!(
        "chaos replay: {} sessions x {} frames at {:.1} Hz, fault fraction {fraction} \
         (seed {}) ...",
        spec.sessions, spec.frames_per_session, spec.rate_hz, spec.seed
    );
    let supervision = SupervisorConfig::default()
        .with_interactive_budget(CHAOS_INTERACTIVE_BUDGET)
        .with_best_effort_budget(CHAOS_BEST_EFFORT_BUDGET);
    let server = RenderServer::new(
        ServerConfig::default()
            .with_max_shards(scenes.len())
            .with_admission(AdmissionConfig::with_capacity(256))
            .with_supervision(supervision),
    );
    let sessions = create_sessions(&server, &scenes, spec.sessions, session_config);
    let plan = load_plan(&spec);
    let chaos_spec = |fraction| ChaosSpec {
        fraction,
        seed: spec.seed,
    };
    let faults = chaos_plan(&chaos_spec(fraction), plan.len());
    // The shard-lifecycle schedule rides on its own seeded stream; a
    // heal fault replaces the frame-level fault at the same index (the
    // shard dies before the frame would have rendered anyway).
    let heal_faults = heal_plan(&chaos_spec(CHAOS_HEAL_FRACTION), plan.len());
    warm_shards(&server, &sessions, scenes.len(), plan[0].pose);

    let start = Instant::now();
    let mut handles = Vec::with_capacity(plan.len());
    for ((arrival, fault), heal) in plan.iter().zip(&faults).zip(&heal_faults) {
        pace(start, arrival.at_ms);
        let mut req = FrameRequest::new(arrival.pose).with_deadline(arrival.deadline);
        if let Some(h) = heal {
            req = req.with_fault(serve_heal_fault(*h));
        } else if let Some(f) = fault {
            req = req.with_fault(serve_fault(*f));
        }
        let handle = server.submit(sessions[arrival.session], req);
        handles.push((arrival.deadline, handle));
    }

    let mut truth = ServeTruth {
        submitted: scenes.len() as u64 + plan.len() as u64,
        rendered: scenes.len() as u64, // the warm-up frames
        ..ServeTruth::default()
    };
    // Handles that never resolved inside the generous collection
    // window, and frames that completed successfully but past their
    // class budget plus grace: both must be zero.
    let (mut unresolved, mut late_ok) = (0u64, 0u64);
    for (class, handle) in handles {
        let budget = class_budget(class);
        // Every handle must resolve well inside this window (the
        // watchdog resolves stragglers at the budget).
        match handle.wait_timeout(budget * 2 + Duration::from_secs(2)) {
            None => unresolved += 1,
            Some(Ok(frame)) => {
                truth.rendered += 1;
                late_ok += (frame.serve.latency > budget + CHAOS_GRACE) as u64;
            }
            Some(Err(ServeError::TimedOut { .. })) => truth.timed_out += 1,
            Some(Err(ServeError::Failed(_))) => truth.failed += 1,
            Some(Err(ServeError::Shed { .. } | ServeError::CircuitOpen)) => truth.shed += 1,
            // The replay never drains the server and no shard exhausts
            // its restart budget; either error here is a regression.
            Some(Err(e @ (ServeError::Draining | ServeError::ShardDown))) => {
                panic!("unexpected lifecycle error under chaos replay: {e}")
            }
        }
    }
    println!(
        "  submitted {}: ok {} (late {late_ok}), failed {}, timed out {}, shed {}, \
         unresolved {unresolved}",
        plan.len(),
        truth.rendered - scenes.len() as u64,
        truth.failed,
        truth.timed_out,
        truth.shed,
    );
    // With an unresolved handle the run is already broken and the
    // counters can never settle — skip straight to a failed verdict.
    let telemetry_ok = if unresolved == 0 {
        telemetry_gate(&server, &truth)
    } else {
        println!("TELEMETRY_RECONCILE: FAIL — skipped, {unresolved} unresolved handle(s)");
        false
    };
    let reclosed = breaker_drill(&scenes[0], plan[0].pose);
    drop(server);

    // The replay above spread seeded kills/wedges through live load;
    // the drill isolates each lifecycle case for exact measurement.
    let heal_ok = heal_gate(spec.seed);

    let mut gate = Gate::new("SERVE_CHAOS_GATE");
    gate.check(
        unresolved == 0,
        format!("{unresolved} handle(s) never resolved"),
    );
    gate.check(
        late_ok == 0,
        format!("{late_ok} frame(s) completed past their class budget"),
    );
    gate.check(reclosed, "breaker did not close after cooldown probes");
    gate.check(
        telemetry_ok,
        "telemetry did not reconcile with harness ground truth (see TELEMETRY_RECONCILE \
         lines above)",
    );
    let chaos_ok = gate.finish(format!(
        "all {} handles resolved within budget under chaos",
        plan.len()
    ));
    // Back to the default hook: taking the filter unregisters it.
    drop(std::panic::take_hook());
    chaos_ok && heal_ok
}

// ---------------------------------------------------------------------------
// Heal drill (runs with `chaos`): the self-healing layer one
// deterministic case at a time — shard kill and shard wedge (detection
// latency, restart MTTR, bitwise-identical requeue), graceful drain,
// and the global memory governor. Each case starts from a quiet server
// and one known fault, which is what makes its budgets checkable.
// ---------------------------------------------------------------------------

/// Drill-local health policy: a tight heartbeat budget so detection
/// latency is measurable in milliseconds, a fast sweep, and a small
/// restart backoff.
const HEAL_HEARTBEAT_BUDGET: Duration = Duration::from_millis(250);
const HEAL_SWEEP_INTERVAL: Duration = Duration::from_millis(20);
const HEAL_RESTART_BACKOFF: Duration = Duration::from_millis(20);
/// The drill's wedge stall: comfortably past the heartbeat budget (so
/// the sweep must condemn on staleness) and comfortably under the
/// default supervision budgets (so the wedged frame completes after
/// requeue instead of timing out).
const HEAL_WEDGE_STALL: Duration = Duration::from_millis(600);
/// Detection gate: heartbeat budget + sweep cadence + generous
/// scheduling slack for a loaded single-core CI box.
const HEAL_DETECT_GATE: Duration = Duration::from_millis(1500);
/// Recovery gate: submit of the faulted frame → its requeued render
/// completes (includes detection, backoff, respawn, and the render).
const HEAL_MTTR_GATE: Duration = Duration::from_millis(5000);

/// Pixel equality down to the bit — the requeue pin's contract is
/// "bitwise what a never-killed server renders", not "close".
fn image_bits(frame: &FrameResult) -> Vec<u32> {
    frame.image.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What one shard-fault case of the heal drill observed.
struct HealedCase {
    /// Fault submitted → shard condemned (a condemn is the sweep
    /// *noticing*; the restart counter moves only after the backoff).
    /// NaN on a 30 s blowout.
    detection_ms: f64,
    /// Fault submitted → the faulted frame's requeued render complete.
    mttr_ms: f64,
    frames_lost: u64,
    bitwise_ok: bool,
    restarts: u64,
    requeued: u64,
}

/// One shard-lifecycle case: a quiet, warm server; `poses[1]` carries
/// `fault` with `poses[2..]` queued behind it. The sweep must condemn
/// the shard, restart it and requeue — and every frame (the faulted
/// one included) must render bitwise identical to `reference`, the
/// same poses through a server that never saw a fault.
fn shard_fault_case(
    scene: &Arc<SceneState>,
    poses: &[Pose],
    reference: &[Vec<u32>],
    fault: Fault,
) -> HealedCase {
    let health = HealthConfig::default()
        .with_heartbeat_budget(HEAL_HEARTBEAT_BUDGET)
        .with_sweep_interval(HEAL_SWEEP_INTERVAL)
        .with_restart_backoff(HEAL_RESTART_BACKOFF, Duration::from_millis(200));
    let server = RenderServer::new(
        ServerConfig::default()
            .with_max_shards(1)
            .with_health(health),
    );
    let session = server.create_session(Arc::clone(scene), session_config());
    // Warm the shard (pool spawn, first render) out of the timing.
    let warm = server.submit(session, FrameRequest::new(poses[0])).wait();
    let mut bitwise_ok = image_bits(&warm) == reference[0];
    let t0 = Instant::now();
    let mut handles = vec![server.submit(session, FrameRequest::new(poses[1]).with_fault(fault))];
    for p in &poses[2..] {
        handles.push(server.submit(session, FrameRequest::new(*p)));
    }
    let detection_ms = loop {
        if instance_counter(&server, "serve_shard_condemned_total") >= 1 {
            break t0.elapsed().as_secs_f64() * 1e3;
        }
        if t0.elapsed() > Duration::from_secs(30) {
            break f64::NAN;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut frames_lost = 0u64;
    let mut mttr_ms = f64::NAN;
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait_timeout(Duration::from_secs(30)) {
            Some(Ok(frame)) => {
                if i == 0 {
                    mttr_ms = t0.elapsed().as_secs_f64() * 1e3;
                }
                bitwise_ok &= image_bits(&frame) == reference[i + 1];
            }
            _ => frames_lost += 1,
        }
    }
    HealedCase {
        detection_ms,
        mttr_ms,
        frames_lost,
        bitwise_ok,
        restarts: server.shard_health().iter().map(|h| h.restarts).sum(),
        requeued: instance_counter(&server, "serve_requeued_frames_total"),
    }
}

fn heal_gate(seed: u64) -> bool {
    let scenes = build_scenes(1);
    let scene = &scenes[0];
    // Deterministic pose set shared by every case and by the clean
    // reference server (one session's trajectory from the load seed).
    let plan = load_plan(&LoadSpec {
        sessions: 1,
        frames_per_session: 24,
        rate_hz: 1000.0,
        best_effort_fraction: 0.0,
        scenes: 1,
        seed,
    });
    let poses: Vec<Pose> = plan.iter().map(|a| a.pose).collect();

    // Clean reference renders: the bitwise pin every healed frame is
    // compared against (a server that never sees a fault).
    let reference: Vec<Vec<u32>> = {
        let server = RenderServer::new(ServerConfig::default().with_max_shards(1));
        let session = server.create_session(Arc::clone(scene), session_config());
        poses[..8]
            .iter()
            .map(|p| image_bits(&server.submit(session, FrameRequest::new(*p)).wait()))
            .collect()
    };

    // The scheduler thread dies mid-frame with work queued behind it:
    // the sweep must classify Dead, restart, and requeue.
    println!("heal drill: shard kill ...");
    let kill = shard_fault_case(scene, &poses[..8], &reference, Fault::KillShard);
    // The scheduler thread stalls without beating: the heartbeat goes
    // stale past the budget, the sweep condemns Wedged, and a fresh
    // incarnation takes over the queue. The stalled frame is requeued
    // once the old incarnation unwedges and must render clean.
    println!("heal drill: shard wedge ...");
    let wedge_fault = Fault::WedgeShard(HEAL_WEDGE_STALL);
    let wedge = shard_fault_case(scene, &poses[..4], &reference, wedge_fault);

    // Graceful drain: queued work finishes, every handle resolves
    // before drain returns, and the server rejects new work with
    // `Draining` afterwards.
    println!("heal drill: graceful drain ...");
    let (drain_complete, drain_forced, drain_rejects_after, drain_frames_lost) = {
        let server = RenderServer::new(ServerConfig::default().with_max_shards(1));
        let session = server.create_session(Arc::clone(scene), session_config());
        server.submit(session, FrameRequest::new(poses[0])).wait();
        let handles: Vec<_> = poses[1..6]
            .iter()
            .map(|p| server.submit(session, FrameRequest::new(*p)))
            .collect();
        let report = server.drain(Duration::from_secs(30));
        // drain() returning means every queued frame was fulfilled —
        // a zero-wait probe must find each handle already resolved.
        let lost = handles
            .into_iter()
            .filter(|h| !matches!(h.wait_timeout(Duration::from_millis(1)), Some(Ok(_))))
            .count() as u64;
        let rejects = matches!(
            server
                .submit(session, FrameRequest::new(poses[0]))
                .wait_result(),
            Err(ServeError::Draining)
        );
        (report.complete(), report.forced_total(), rejects, lost)
    };

    // Memory governor: a budget with only a sliver of headroom past
    // the worker-arena reservation: anchor inserts contend with the
    // global budget from the first frame, and the arena alone crosses
    // the pressure watermark, so BestEffort must shed at admission.
    // The hard pin is `peak <= budget` — charge-before-insert means
    // the budget is never exceeded even transiently.
    println!("heal drill: memory governor ...");
    let (governor_budget_bytes, governor_peak_bytes, governor_shed_observed) = {
        let arena = gen_nerf_parallel::num_threads().max(1) as u64
            * gen_nerf::pipeline::WORKER_SCRATCH_BYTES as u64;
        let budget = arena + 32 * 1024;
        let server = RenderServer::new(
            ServerConfig::default()
                .with_max_shards(1)
                .with_governor(GovernorConfig::default().with_budget_bytes(budget)),
        );
        let session = server.create_session(
            Arc::clone(scene),
            // Tiny coherence bounds: every distinct pose re-anchors,
            // so each frame tries a fresh insert against the budget.
            session_config().with_coherence(CoherenceConfig::within(1e-6, 1e-6)),
        );
        for pose in &poses {
            server.submit(session, FrameRequest::new(*pose)).wait();
        }
        let shed = server
            .submit(
                session,
                FrameRequest::new(poses[0]).with_deadline(DeadlineClass::BestEffort),
            )
            .wait_result();
        let g = server.governor_stats();
        (
            g.budget_bytes,
            g.peak_bytes,
            matches!(shed, Err(ServeError::Shed { .. })),
        )
    };

    let mut gate = Gate::new("SERVE_HEAL_GATE");
    let detect_gate_ms = HEAL_DETECT_GATE.as_secs_f64() * 1e3;
    let mttr_gate_ms = HEAL_MTTR_GATE.as_secs_f64() * 1e3;
    for (name, case) in [("kill", &kill), ("wedge", &wedge)] {
        gate.check(
            case.detection_ms.is_finite() && case.detection_ms <= detect_gate_ms,
            format!(
                "shard {name} detected in {:.1} ms (gate {detect_gate_ms:.0} ms)",
                case.detection_ms
            ),
        );
        gate.check(
            case.mttr_ms.is_finite() && case.mttr_ms <= mttr_gate_ms,
            format!(
                "{name} MTTR {:.1} ms (gate {mttr_gate_ms:.0} ms)",
                case.mttr_ms
            ),
        );
    }
    gate.check(
        kill.frames_lost + wedge.frames_lost + drain_frames_lost == 0,
        format!(
            "frames lost: kill {}, wedge {}, drain {drain_frames_lost}",
            kill.frames_lost, wedge.frames_lost
        ),
    );
    gate.check(
        kill.bitwise_ok && wedge.bitwise_ok,
        "healed frames not bitwise identical to clean renders",
    );
    gate.check(
        kill.restarts >= 1 && kill.requeued >= 1,
        format!(
            "kill case: {} restarts, {} requeued (expected >= 1 each)",
            kill.restarts, kill.requeued
        ),
    );
    gate.check(
        drain_complete && drain_forced == 0 && drain_rejects_after,
        format!(
            "drain: complete {drain_complete}, forced {drain_forced}, rejects after \
             {drain_rejects_after}"
        ),
    );
    gate.check(
        governor_peak_bytes <= governor_budget_bytes && governor_shed_observed,
        format!(
            "governor: peak {governor_peak_bytes} vs budget {governor_budget_bytes}, \
             pressure shed observed {governor_shed_observed}"
        ),
    );
    gate.finish(format!(
        "kill detected {:.0} ms / MTTR {:.0} ms, wedge detected {:.0} ms, 0 frames lost, \
         requeued renders bitwise clean, drain complete, governor peak within budget",
        kill.detection_ms, kill.mttr_ms, wedge.detection_ms,
    ))
}

// ---------------------------------------------------------------------------
// `integrity`: deterministic *silent*-corruption replay. Where `chaos`
// injects loud failures (panics, stalls) that the supervision layer
// must survive, this plants quiet ones — a perturbed GEMM cell, a
// poisoned pixel, a bit-flipped cache anchor — that the
// output-integrity machinery must catch before a client sees a wrong
// pixel.
// ---------------------------------------------------------------------------

fn integrity_gate() -> bool {
    // Honor an explicit GEN_NERF_INTEGRITY; default the replay to full
    // checking so every injection is checkable.
    if std::env::var("GEN_NERF_INTEGRITY").is_err() {
        integrity::set_mode(IntegrityMode::Full);
    }
    let mode = integrity::mode();
    let initial_backend = kernels::active_backend();
    let spec = LoadSpec {
        sessions: 4,
        frames_per_session: 6,
        // Closed-loop replay: arrival times are unused, only the pose
        // trajectories and deadline classes matter.
        rate_hz: 1000.0,
        best_effort_fraction: 0.25,
        scenes: 2,
        seed: seed_from_env(42),
    };
    let fraction = 0.4;
    let scenes = build_scenes(spec.scenes);

    // Overhead and false-positive measurement first, on clean bursts,
    // *before* any injection can quarantine the SIMD backend (a
    // demotion mid-measurement would skew the ratios). The burst sits
    // well above the replay's plan size: sub-50ms bursts put the
    // overhead ratio at the mercy of scheduler jitter. Even so a burst
    // is only tens of milliseconds, so the off/full ratio must not be
    // decided by one unlucky scheduling quantum: every rep brackets
    // the checked bursts with an off burst on both sides, each checked
    // burst is ratioed against the mean of the two, and the gate reads
    // the median rep.
    let (reps, burst) = (7, 48);
    let clean_burst = |mode| {
        integrity::set_mode(mode);
        closed_burst(&scenes, scenes.len() * 2, burst)
    };
    let mut sample_ratios = Vec::with_capacity(reps);
    let mut full_ratios = Vec::with_capacity(reps);
    let mut false_positives = 0u64;
    println!("measuring checking overhead ({reps} reps x {burst}-frame bursts) ...");
    for _ in 0..reps {
        let (t_off_a, _) = clean_burst(IntegrityMode::Off);
        let (t_sample, fp_sample) = clean_burst(IntegrityMode::Sample);
        let (t_full, fp_full) = clean_burst(IntegrityMode::Full);
        let (t_off_b, _) = clean_burst(IntegrityMode::Off);
        let t_off = (t_off_a + t_off_b) / 2.0;
        false_positives += fp_sample + fp_full;
        sample_ratios.push(t_sample / t_off);
        full_ratios.push(t_full / t_off);
    }
    integrity::set_mode(mode);
    let overhead_sample_pct = paired_overhead_pct(&mut sample_ratios, 2);
    let overhead_full_pct = paired_overhead_pct(&mut full_ratios, 2);

    println!(
        "corruption replay: {} sessions x {} frames, corruption fraction {fraction} \
         (seed {}, mode {}) ...",
        spec.sessions,
        spec.frames_per_session,
        spec.seed,
        mode.name()
    );
    let server = make_server(&scenes, AdmissionConfig::with_capacity(256));
    // Coherence on, with generous bounds: the trajectories' small
    // steps stay coherent, so anchors are retained and the
    // anchor-corruption faults have something to flip.
    let sessions = create_sessions(&server, &scenes, spec.sessions, || {
        session_config().with_coherence(CoherenceConfig::within(0.4, 0.1))
    });
    let plan = load_plan(&spec);
    let chaos_spec = ChaosSpec {
        fraction,
        seed: spec.seed,
    };
    let faults = corruption_plan(&chaos_spec, plan.len());
    let injected = |kind| faults.iter().flatten().filter(|(k, _)| *k == kind).count() as u64;
    // Render corruptions must be detected; a poisoned anchor is
    // rejected at cache import instead (a counted miss).
    let injected_render = injected(CorruptionFault::Gemm) + injected(CorruptionFault::Pixels);

    // The plan is served **closed-loop** (one frame in flight at a
    // time). The chaos hooks that plant a GEMM perturbation or a pixel
    // poison are process-global single slots, so serving open-loop
    // could overwrite one armed fault with the next before a render
    // consumes it — closed-loop keeps injection counting exact, which
    // the 100%-detection gate needs.
    let (mut completed, mut nonfinite_published) = (0u64, 0u64);
    for (arrival, fault) in plan.iter().zip(&faults) {
        let mut req = FrameRequest::new(arrival.pose).with_deadline(arrival.deadline);
        if let Some((kind, fault_seed)) = fault {
            req = req.with_fault(match kind {
                CorruptionFault::Gemm => Fault::CorruptGemm(*fault_seed),
                CorruptionFault::Pixels => Fault::CorruptPixels(*fault_seed),
                CorruptionFault::Anchor => Fault::CorruptAnchor(*fault_seed),
            });
        }
        let handle = server.submit(sessions[arrival.session], req);
        if let Some(Ok(frame)) = handle.wait_timeout(Duration::from_secs(60)) {
            completed += 1;
            // Corruption that escaped to a client.
            if !frame.image.as_slice().iter().all(|v| v.is_finite()) {
                nonfinite_published += 1;
            }
        }
    }
    // Render attempts the integrity machinery failed (GEMM checksum or
    // sentinel) during the replay.
    let detected: u64 = server
        .shard_stats_all()
        .iter()
        .map(|s| s.corrupt_renders)
        .sum();
    let undetected = injected_render.saturating_sub(detected);
    println!(
        "  submitted {}: ok {completed}; injected {injected_render} render / {} anchor \
         corruption(s), detected {detected}; backend {initial_backend:?} -> {:?}",
        plan.len(),
        injected(CorruptionFault::Anchor),
        kernels::active_backend(),
    );

    let mut gate = Gate::new("SERVE_INTEGRITY_GATE");
    gate.check(
        undetected == 0,
        format!("{undetected} injected corruption(s) went undetected"),
    );
    gate.check(
        nonfinite_published == 0,
        format!("{nonfinite_published} corrupt frame(s) reached a client"),
    );
    gate.check(
        false_positives == 0,
        format!("{false_positives} false positive(s) on clean runs"),
    );
    gate.check(
        overhead_full_pct < 15.0,
        format!("full checking overhead {overhead_full_pct:.1}% >= 15%"),
    );
    gate.check(
        overhead_sample_pct < 5.0,
        format!("sampled checking overhead {overhead_sample_pct:.1}% >= 5%"),
    );
    gate.finish(format!(
        "{detected}/{injected_render} injected corruptions detected, 0 false positives, \
         overhead sample {overhead_sample_pct:.1}% / full {overhead_full_pct:.1}%"
    ))
}

// ---------------------------------------------------------------------------
// `telemetry-overhead`: observability must stay ~free on the render
// hot path.
// ---------------------------------------------------------------------------

/// Ceiling on the fused render's telemetry cost: the wall-clock delta
/// between rendering with the global telemetry switch off and on.
/// Stage timers and histogram observations are a handful of relaxed
/// atomics per tile, so anything past a few percent means
/// instrumentation crept onto a per-point path.
const TELEMETRY_OVERHEAD_CEILING_PCT: f64 = 3.0;

fn telemetry_overhead_gate() -> bool {
    // The workload of `STEADY_STATE_ALLOC_CEILING`: a 32×32 uniform
    // n = 12 frame, single-threaded — worker fan-out scheduling noise
    // would swamp a percent-level delta.
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 32, 7);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let renderer = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::Uniform { n: 12 },
        ds.scene.bounds,
        ds.scene.background,
    )
    .with_threads(1);
    let run_frame = || {
        std::hint::black_box(renderer.render(&ds.eval_views[0].camera));
    };
    // Stage timers and histogram observations honor the global enable
    // switch, so the cost of observability is the off-vs-on delta on
    // the identical frame workload.
    let time_batch = |enabled: bool| {
        gen_nerf_telemetry::set_enabled(enabled);
        let t0 = Instant::now();
        for _ in 0..12 {
            run_frame();
        }
        t0.elapsed().as_secs_f64()
    };
    run_frame(); // warm-up
    let mut pair_ratios: Vec<f64> = (0..7)
        .map(|pair| {
            // Off and on batches are interleaved and each adjacent
            // pair ratioed. Alternate which leg runs first:
            // within-run clock decay would otherwise systematically
            // penalize whichever leg always came second in its pair.
            let (t_off, t_on) = if pair % 2 == 0 {
                let t_off = time_batch(false);
                (t_off, time_batch(true))
            } else {
                let t_on = time_batch(true);
                (time_batch(false), t_on)
            };
            t_on / t_off
        })
        .collect();
    gen_nerf_telemetry::set_enabled(true);
    let overhead_pct = paired_overhead_pct(&mut pair_ratios, 4);
    let backend = kernels::active_backend().name();

    let mut gate = Gate::new("TELEMETRY_OVERHEAD_GATE");
    gate.check(
        overhead_pct <= TELEMETRY_OVERHEAD_CEILING_PCT,
        format!(
            "fused render telemetry overhead {overhead_pct:+.2}% > \
             {TELEMETRY_OVERHEAD_CEILING_PCT}% ({backend}): instrumentation has crept onto \
             the hot path"
        ),
    );
    gate.finish(format!(
        "fused render telemetry overhead {overhead_pct:+.2}% (ceiling \
         {TELEMETRY_OVERHEAD_CEILING_PCT}%, {backend})"
    ))
}

/// Runs one gate; returns whether every check passed.
type GateFn = fn() -> bool;

static GATES: [(&str, GateFn); 4] = [
    ("load", load_gate),
    ("chaos", chaos_gate),
    ("integrity", integrity_gate),
    ("telemetry-overhead", telemetry_overhead_gate),
];

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let lookup = |name: &str| GATES.iter().find(|(g, _)| *g == name);
    if let Some(bad) = names.iter().find(|n| lookup(n).is_none()) {
        let valid: Vec<&str> = GATES.iter().map(|(g, _)| *g).collect();
        eprintln!("unknown gate `{bad}`; valid gates: {}", valid.join(" | "));
        return ExitCode::from(2);
    }
    if let [name] = names.as_slice() {
        let (_, run) = lookup(name).expect("validated above");
        return ExitCode::from(u8::from(!run()));
    }
    // A gate leaves process-global state behind (see the module docs),
    // so each runs in a child process of its own.
    if names.is_empty() {
        names = GATES.iter().map(|(g, _)| g.to_string()).collect();
    }
    let exe = std::env::current_exe().expect("path of this binary");
    let mut passed = true;
    for name in &names {
        println!("=== gates {name} ===");
        let status = Command::new(&exe)
            .arg(name)
            .status()
            .expect("re-exec this binary");
        passed &= status.success();
    }
    ExitCode::from(u8::from(!passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(out: &mut Vec<u8>) -> Gate<&mut Vec<u8>> {
        Gate {
            name: "DEMO_GATE",
            out,
            failed: false,
        }
    }

    #[test]
    fn gate_with_every_check_ok_prints_ok_and_passes() {
        let mut out = Vec::new();
        let mut g = gate(&mut out);
        g.check(true, "never printed");
        g.check(true, "nor this");
        assert!(g.finish("2 checks held"));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "DEMO_GATE: OK — 2 checks held\n"
        );
    }

    #[test]
    fn gate_with_a_failed_check_prints_fail_and_fails() {
        let mut out = Vec::new();
        let mut g = gate(&mut out);
        g.check(true, "never printed");
        g.check(false, "budget blown by 3 ms");
        g.check(true, "a later success does not clear it");
        assert!(!g.finish("never printed"));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "DEMO_GATE: FAIL — budget blown by 3 ms\n"
        );
    }

    #[test]
    fn lower_quartile_catches_a_uniform_shift_and_ignores_upper_tail_noise() {
        // Instrumentation on a per-point path shifts every pair.
        let mut shifted = [1.10, 1.11, 1.09, 1.12, 1.10, 1.13, 1.10];
        let pct = paired_overhead_pct(&mut shifted, 4);
        assert!(pct > TELEMETRY_OVERHEAD_CEILING_PCT, "{pct}");
        // A noisy host fattens the upper tail of an unshifted series.
        let mut noisy = [1.00, 1.31, 0.99, 1.18, 1.01, 1.45, 1.00];
        let pct = paired_overhead_pct(&mut noisy, 4);
        assert!(pct <= TELEMETRY_OVERHEAD_CEILING_PCT, "{pct}");
        // The median, by contrast, reads the middle of the same series.
        assert_eq!(paired_overhead_pct(&mut [3.0, 1.0, 2.0], 2), 100.0);
    }
}
