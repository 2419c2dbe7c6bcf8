//! Telemetry regression: the observability layer's exactness
//! contracts.
//!
//! * **Trace completeness under chaos.** A mixed fault schedule
//!   (transient panics, persistent panics, long stalls, overload
//!   sheds) is pushed through a supervised server; afterwards every
//!   submitted frame's trace carries exactly one Submit and exactly
//!   one terminal event (a Resolve, or a shed/break admission
//!   verdict), no frame is orphaned, and the ring dropped nothing.
//! * **Counter reconciliation.** The registry counters — folded from
//!   [`gen_nerf_telemetry::snapshot`] by instance label — must equal
//!   the ground truth the test harness observed through the frame
//!   handles themselves: rendered, failed, timed-out, shed and
//!   degraded counts, plus retries against the Retry trace events.
//!   The server's stats views, which read the same counters through
//!   their handles, must agree with both.
//! * **Histogram exactness.** The latency histogram is fed the same
//!   submit→resolve nanosecond values the Resolve trace events carry,
//!   so every percentile must equal the bucket upper bound of the
//!   exact rank-selected latency — accurate to one log₂ bucket by
//!   construction, and pinned here.
//! * **Restart-boundary reconciliation.** A seeded shard kill tears
//!   one incarnation down mid-schedule; the trace ring must stitch
//!   the boundary seamlessly — exactly one Submit and one terminal
//!   event per frame, Requeue events matching the requeue counter,
//!   Condemn/Restart lifecycle events present, zero ring drops.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::model::GenNerfModel;
use gen_nerf_geometry::{Intrinsics, Pose, Vec3};
use gen_nerf_scene::{Dataset, DatasetKind};
use gen_nerf_serve::{
    AdmissionConfig, DeadlineClass, Fault, FrameRequest, HealthConfig, RenderServer, SceneState,
    ServeError, ServerConfig, SessionConfig, SupervisorConfig,
};
use gen_nerf_telemetry::{
    bucket_index, bucket_upper_bound, AdmissionVerdict, EventKind, ResolveOutcome, TraceEvent,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn scene() -> Arc<SceneState> {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, 24, 5);
    let model = GenNerfModel::new(ModelConfig::fast());
    Arc::new(SceneState::prepare(
        model,
        &ds.source_views,
        ds.scene.bounds,
        ds.scene.background,
    ))
}

fn intrinsics() -> Intrinsics {
    Intrinsics::from_fov(24, 24, 0.6)
}

fn walk_pose(s: usize, k: usize) -> Pose {
    let phi = 0.3 * s as f32 + 0.015 * k as f32;
    let eye = Vec3::new(3.5 * phi.cos(), 1.1, 3.5 * phi.sin());
    Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
}

/// Ground truth tallied from the frame handles themselves.
#[derive(Default, Debug, PartialEq, Eq)]
struct GroundTruth {
    rendered: u64,
    degraded: u64,
    failed: u64,
    timed_out: u64,
    shed: u64,
    circuit: u64,
}

/// Per-frame trace view, grouped from the drained ring events.
#[derive(Default)]
struct FrameTrace {
    submits: u64,
    resolves: Vec<ResolveOutcome>,
    terminal_admits: u64,
    degrade_admits: u64,
    retries: u64,
    requeues: u64,
    first_kind: Option<EventKind>,
}

fn group_traces(events: &[TraceEvent]) -> BTreeMap<u64, FrameTrace> {
    let mut by_frame: BTreeMap<u64, FrameTrace> = BTreeMap::new();
    for e in events {
        // Shard-lifecycle events (Condemn/Restart/Drain) carry no
        // frame id — their `frame` field is 0 and the shard index is
        // in the payload. Grouping them would fabricate a phantom
        // frame 0 with no Submit.
        if matches!(
            e.kind,
            EventKind::Condemn | EventKind::Restart | EventKind::Drain
        ) {
            continue;
        }
        let t = by_frame.entry(e.frame).or_default();
        if t.first_kind.is_none() {
            t.first_kind = Some(e.kind);
        }
        match e.kind {
            EventKind::Submit => t.submits += 1,
            EventKind::Admit => {
                let verdict = AdmissionVerdict::from_code(e.a).expect("bad admit code");
                if verdict.is_terminal() {
                    t.terminal_admits += 1;
                }
                if verdict == AdmissionVerdict::Degrade {
                    t.degrade_admits += 1;
                }
            }
            EventKind::Retry => t.retries += 1,
            EventKind::Requeue => t.requeues += 1,
            EventKind::Resolve => t
                .resolves
                .push(ResolveOutcome::from_code(e.a).expect("bad resolve code")),
            _ => {}
        }
    }
    by_frame
}

#[test]
fn chaos_schedule_traces_are_complete_and_reconcile_with_ground_truth() {
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    let budget = Duration::from_millis(1200);
    // One shard, tight queue: overload sheds and degrades occur
    // naturally alongside the injected faults.
    let server = RenderServer::new(
        ServerConfig {
            supervision: SupervisorConfig {
                interactive_budget: budget,
                best_effort_budget: budget,
            },
            ..ServerConfig::default()
        }
        .with_max_shards(1)
        .with_admission(AdmissionConfig::with_capacity(2)),
    );
    let sessions = [
        server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        ),
        server.create_session(
            Arc::clone(&scene),
            SessionConfig::new(intrinsics(), strategy),
        ),
    ];

    // A fixed schedule cycling through every fault kind, submitted
    // without waiting so queue pressure is real.
    let mut handles = Vec::new();
    for k in 0..24 {
        let fault = match k % 8 {
            1 => Some(Fault::PanicOnce),
            3 => Some(Fault::Stall(Duration::from_secs(30))),
            5 => Some(Fault::Panic),
            6 => Some(Fault::Stall(Duration::from_millis(25))),
            _ => None,
        };
        let class = if k % 3 == 0 {
            DeadlineClass::BestEffort
        } else {
            DeadlineClass::Interactive
        };
        let mut req = FrameRequest::new(walk_pose(k % 2, k)).with_deadline(class);
        if let Some(f) = fault {
            req = req.with_fault(f);
        }
        handles.push(server.submit(sessions[k % 2], req));
    }
    let submitted = handles.len() as u64;

    // Tally ground truth from the handles — the client-visible record
    // of what actually happened to each frame.
    let mut truth = GroundTruth::default();
    for (k, handle) in handles.into_iter().enumerate() {
        match handle
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("frame {k} never resolved"))
        {
            Ok(frame) => {
                truth.rendered += 1;
                if frame.serve.degraded {
                    truth.degraded += 1;
                }
            }
            Err(ServeError::Failed(_)) => truth.failed += 1,
            Err(ServeError::TimedOut { .. }) => truth.timed_out += 1,
            Err(ServeError::Shed { .. }) => truth.shed += 1,
            Err(ServeError::CircuitOpen) => truth.circuit += 1,
            // No shard-level faults and no drain in this schedule.
            Err(e @ (ServeError::Draining | ServeError::ShardDown)) => {
                panic!("frame {k}: unexpected lifecycle error {e}")
            }
        }
    }
    // Every handle has resolved, so every counter, latency observation
    // and terminal event is already booked (bookkeeping precedes the
    // wake-up). What may still be in the shard's hands is late work of
    // frames whose deadline answered for them — a timed-out frame waiting in
    // the queue to be popped and discarded, a cancelled attempt
    // unwinding. The queue-depth gauge and the Retry pairing below read
    // that, so rendezvous with the shard going idle — not with time.
    assert!(
        server.drain(Duration::from_secs(30)).complete(),
        "shard did not go idle after every handle resolved"
    );
    let inst = server.instance().to_string();

    // --- Trace completeness -------------------------------------------------
    assert_eq!(server.trace_drops(), 0, "trace ring dropped events");
    let events = server.drain_traces();
    let by_frame = group_traces(&events);
    assert_eq!(
        by_frame.len() as u64,
        submitted,
        "trace frame count != submissions"
    );
    for (frame, t) in &by_frame {
        assert_eq!(t.submits, 1, "frame {frame}: expected exactly one Submit");
        assert_eq!(
            t.first_kind,
            Some(EventKind::Submit),
            "frame {frame}: trace does not start with Submit"
        );
        let terminals = t.resolves.len() as u64 + t.terminal_admits;
        assert_eq!(
            terminals, 1,
            "frame {frame}: expected exactly one terminal event, got {} resolves + {} terminal admits",
            t.resolves.len(),
            t.terminal_admits
        );
    }

    // Trace-level outcome counts equal ground truth.
    let count_resolve = |o: ResolveOutcome| -> u64 {
        by_frame
            .values()
            .filter(|t| t.resolves.first() == Some(&o))
            .count() as u64
    };
    assert_eq!(count_resolve(ResolveOutcome::Ok), truth.rendered);
    assert_eq!(count_resolve(ResolveOutcome::TimedOut), truth.timed_out);
    assert_eq!(count_resolve(ResolveOutcome::Failed), truth.failed);
    let terminal_admits: u64 = by_frame.values().map(|t| t.terminal_admits).sum();
    assert_eq!(terminal_admits, truth.shed + truth.circuit);

    // --- Counter reconciliation --------------------------------------------
    let snap = gen_nerf_telemetry::snapshot();
    let sub: &[(&str, &str)] = &[("instance", &inst)];
    assert_eq!(
        snap.counter_with("serve_frames_rendered_total", sub),
        truth.rendered
    );
    assert_eq!(
        snap.counter_with("serve_frames_failed_total", sub),
        truth.failed
    );
    assert_eq!(
        snap.counter_with("serve_frames_timed_out_total", sub),
        truth.timed_out
    );
    assert_eq!(
        snap.counter_with("serve_frames_shed_total", sub),
        truth.shed + truth.circuit
    );
    // Degrades are counted at the admission decision; a degraded frame
    // can still time out or fail later, so the counter must equal the
    // Admit(Degrade) trace events and bound the delivered-degraded
    // count from below.
    let degrade_admits: u64 = by_frame.values().map(|t| t.degrade_admits).sum();
    assert_eq!(
        snap.counter_with("serve_frames_degraded_total", sub),
        degrade_admits
    );
    assert!(truth.degraded <= degrade_admits);
    // The admission-stats view sums the shards' handles on the same
    // counters — it must agree with the same truth.
    let adm = server.admission_stats();
    assert_eq!(adm.shed_total(), truth.shed + truth.circuit);
    assert_eq!(adm.degraded, degrade_admits);
    // Every shard's view equals its registry counters, folded by
    // `{instance, shard}`.
    for row in server.shard_health() {
        let idx = row.shard.to_string();
        let shard: &[(&str, &str)] = &[("instance", &inst), ("shard", &idx)];
        let count = |name: &str| snap.counter_with(name, shard);
        let queued = snap.gauge_with("serve_queue_depth", shard);
        assert_eq!(row.restarts, count("serve_shard_restarts_total"));
        assert_eq!(row.retries, count("serve_retries_total"));
        assert_eq!(row.batches, count("serve_batches_total"));
        assert_eq!(row.corrupt_renders, count("serve_corrupt_renders_total"));
        assert_eq!(
            row.quarantine_events,
            count("serve_quarantine_events_total")
        );
        assert_eq!(row.queued as i64, queued, "shard {idx}: queue depth");
    }
    // Retries: the counter and the Retry trace events count the same
    // thing.
    let trace_retries: u64 = by_frame.values().map(|t| t.retries).sum();
    assert_eq!(snap.counter_with("serve_retries_total", sub), trace_retries);
    // Delivered-latency histogram: one observation per rendered frame.
    assert_eq!(
        snap.histogram_merged("serve_latency_ns", sub).count,
        truth.rendered
    );
    // Queue depth and in-flight gauges are back to zero at rest.
    assert_eq!(snap.gauge_with("serve_queue_depth", sub), 0);
    assert_eq!(snap.gauge_with("serve_frames_in_flight", sub), 0);
}

#[test]
fn latency_percentiles_are_exact_to_one_bucket_of_the_trace_latencies() {
    let scene = scene();
    let server = RenderServer::new(ServerConfig::default().with_max_shards(1));
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), SamplingStrategy::Uniform { n: 6 }),
    );
    let n = 40;
    for k in 0..n {
        server
            .submit(session, FrameRequest::new(walk_pose(0, k)))
            .wait();
    }
    assert_eq!(server.trace_drops(), 0);
    let inst = server.instance().to_string();

    // The histogram observation and the Resolve event are booked
    // before `wait()` wakes, so both are read at once. The Resolve
    // events carry the exact submit→resolve nanosecond latencies — the
    // *same* values the histogram observed.
    let mut exact: Vec<u64> = server
        .drain_traces()
        .into_iter()
        .filter(|e| e.kind == EventKind::Resolve && e.a == ResolveOutcome::Ok as u64)
        .map(|e| e.b)
        .collect();
    assert_eq!(exact.len(), n);
    exact.sort_unstable();

    let hist =
        gen_nerf_telemetry::snapshot().histogram_merged("serve_latency_ns", &[("instance", &inst)]);
    assert_eq!(hist.count, n as u64);
    for q in [0.5, 0.9, 0.99, 0.999] {
        // Same rank selection the histogram uses: the percentile must
        // be the bucket upper bound of the exact rank-th latency.
        let rank = ((hist.count as f64 * q).ceil() as u64).clamp(1, hist.count);
        let exact_q = exact[(rank - 1) as usize];
        let approx = hist.percentile(q);
        assert_eq!(
            approx,
            bucket_upper_bound(bucket_index(exact_q)),
            "q={q}: exact latency {exact_q}ns not within one bucket of {approx}ns"
        );
        assert!(approx >= exact_q, "q={q}: percentile under-reports");
        assert!(
            exact_q == 0 || approx < exact_q.saturating_mul(2),
            "q={q}: percentile {approx} more than one bucket above exact {exact_q}"
        );
    }
}

#[test]
fn traces_reconcile_across_a_shard_restart_boundary() {
    // A seeded shard kill mid-schedule tears one incarnation down and
    // respawns another. The trace ring must stitch the boundary
    // seamlessly: every frame still carries exactly one Submit and
    // exactly one terminal event, requeued frames are marked with
    // Requeue events that agree with the counter, the lifecycle
    // events are present, and the ring dropped nothing.
    let scene = scene();
    let strategy = SamplingStrategy::coarse_then_focus(6, 6);
    // A short restart backoff keeps the test quick. The heartbeat
    // budget (and so the 50 ms sweep) stays at its default: a kill is
    // detected as Dead (finished worker thread), not by heartbeat age,
    // and a tight budget would let a legitimately slow batch render on
    // a loaded test host be misread as Wedged.
    let server = RenderServer::new(
        ServerConfig {
            health: HealthConfig {
                restart_backoff: Duration::from_millis(10),
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        }
        .with_max_shards(1),
    );
    let session = server.create_session(
        Arc::clone(&scene),
        SessionConfig::new(intrinsics(), strategy),
    );
    let mut handles = Vec::new();
    for k in 0..12 {
        let mut req = FrameRequest::new(walk_pose(0, k));
        if k == 3 {
            req = req.with_fault(Fault::KillShard);
        }
        handles.push(server.submit(session, req));
    }
    let submitted = handles.len() as u64;
    for (k, handle) in handles.into_iter().enumerate() {
        handle
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("frame {k} never resolved across the restart"))
            .unwrap_or_else(|e| panic!("frame {k} failed across the restart: {e}"));
    }
    let inst = server.instance().to_string();

    assert_eq!(
        server.trace_drops(),
        0,
        "trace ring dropped events across the restart"
    );
    let events = server.drain_traces();
    let condemns = events
        .iter()
        .filter(|e| e.kind == EventKind::Condemn)
        .count();
    let restarts = events
        .iter()
        .filter(|e| e.kind == EventKind::Restart)
        .count();
    assert!(condemns >= 1, "no Condemn event for the killed shard");
    assert!(restarts >= 1, "no Restart event for the respawned shard");

    let by_frame = group_traces(&events);
    assert_eq!(
        by_frame.len() as u64,
        submitted,
        "trace frame count != submissions (phantom or orphaned frames at the boundary)"
    );
    let mut requeued_frames = 0u64;
    for (frame, t) in &by_frame {
        assert_eq!(t.submits, 1, "frame {frame}: expected exactly one Submit");
        assert_eq!(
            t.first_kind,
            Some(EventKind::Submit),
            "frame {frame}: trace does not start with Submit"
        );
        let terminals = t.resolves.len() as u64 + t.terminal_admits;
        assert_eq!(
            terminals,
            1,
            "frame {frame}: expected exactly one terminal event across the incarnation \
             boundary, got {} resolves + {} terminal admits",
            t.resolves.len(),
            t.terminal_admits
        );
        assert_eq!(
            t.resolves.first(),
            Some(&ResolveOutcome::Ok),
            "frame {frame}: not rendered"
        );
        if t.requeues > 0 {
            requeued_frames += 1;
        }
    }
    assert!(
        requeued_frames >= 1,
        "kill produced no Requeue trace events"
    );

    let snap = gen_nerf_telemetry::snapshot();
    let sub: &[(&str, &str)] = &[("instance", &inst)];
    let trace_requeues: u64 = by_frame.values().map(|t| t.requeues).sum();
    assert_eq!(
        snap.counter_with("serve_requeued_frames_total", sub),
        trace_requeues,
        "Requeue trace events disagree with the requeue counter"
    );
    assert!(snap.counter_with("serve_shard_condemned_total", sub) >= 1);
    assert!(snap.counter_with("serve_shard_restarts_total", sub) >= 1);
    // Every frame rendered exactly once — nothing lost, nothing
    // double-counted across the incarnation boundary.
    assert_eq!(
        snap.counter_with("serve_frames_rendered_total", sub),
        submitted
    );
    assert_eq!(
        snap.histogram_merged("serve_latency_ns", sub).count,
        submitted
    );
}
