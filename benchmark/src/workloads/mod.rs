//! The four workloads and what they share: scene building, the
//! bitwise comparisons of the correctness checks, and the bookkeeping
//! of served frames.

pub mod accel_sim;
pub mod render_direct;
pub mod serve_load;
pub mod serve_walkthrough;

use crate::metrics::Report;
use crate::run::{tail, Ctx};
use crate::stats;
use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_scene::{Dataset, DatasetKind, Image};
use gen_nerf_serve::{FrameResult, RenderServer, SceneState, ServeError, SessionId};
use gen_nerf_telemetry::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A workload measures itself into the context's report.
pub type Workload = fn(&mut Ctx);

/// The workloads, by the names `BENCHMARK.json` gives them (all but
/// [`BY_HAND`]).
pub const WORKLOADS: [(&str, Workload); 4] = [
    ("render_direct", render_direct::run),
    ("serve_walkthrough", serve_walkthrough::run),
    ("serve_load", serve_load::run),
    ("accel_sim", accel_sim::run),
];

/// The workload `BENCHMARK.json` does not list, so the driver does not
/// gate changes on it: on the shared reference host its numbers follow
/// the neighbours, not the code (see the README). It is run by hand,
/// in pairs.
pub const BY_HAND: &str = "serve_load";

/// Coarse-then-focus sampling of the walkthrough-sized frames: 16
/// coarse + 12 focused points per ray on average.
pub const CTF_WALK: SamplingStrategy = SamplingStrategy::CoarseThenFocus {
    n_coarse: 16,
    n_focused: 12,
    tau: 0.01,
    s_coarse: 4,
};

/// Captures a DeepVoxels-analog scene and prepares it for rendering:
/// source views rendered from the procedural scene, feature pyramids
/// encoded once, and the fixed-seed untrained `ModelConfig::fast()`
/// (Ray-Mixer) model. This is the scene part of `setup_s`.
pub fn build_scene(name: &str, scale: f32, views: usize, gt_samples: usize) -> SceneState {
    let ds = Dataset::build(
        DatasetKind::DeepVoxels,
        name,
        scale,
        views,
        1,
        gt_samples,
        11,
    );
    let model = GenNerfModel::new(ModelConfig::fast());
    SceneState::prepare(
        model,
        &ds.source_views,
        ds.scene.bounds,
        ds.scene.background,
    )
}

/// The direct renderer over a prepared scene.
pub fn direct_renderer(scene: &SceneState, strategy: SamplingStrategy) -> Renderer<'_> {
    Renderer::new(
        &scene.model,
        &scene.sources,
        strategy,
        scene.bounds,
        scene.background,
    )
}

/// Bitwise equality of two images (`==` on floats would call two NaNs
/// different and +0/−0 equal).
pub fn same_pixels(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn all_finite(image: &Image) -> bool {
    image.pixel_count() > 0 && image.as_slice().iter().all(|v| v.is_finite())
}

/// How one served frame ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Failed,
    Shed,
    TimedOut,
}

/// A `wait_result` that lasted at least this long found the frame
/// unresolved and parked, so its return marks the moment of resolution.
const BLOCKED_WAIT: Duration = Duration::from_micros(20);

/// One served frame as the benchmark saw it. Times are ms except
/// `submit_us`.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub outcome: Outcome,
    pub submit_us: f64,
    /// How long after its due time the generator sent the frame; `None`
    /// in a closed loop, where nothing is due.
    pub late_ms: Option<f64>,
    /// The server's own account: submission to job start, job start to
    /// completion, and their sum.
    pub queue_wait_ms: f64,
    pub render_ms: f64,
    pub latency_ms: f64,
    /// Start of `submit` to the return of `wait_result`.
    pub observed_ms: f64,
    /// Whether the caller was parked in `wait_result` when the frame
    /// resolved, so that `observed_ms` ends at the resolution.
    pub blocked: bool,
    pub batched: f64,
}

impl Served {
    /// The latency the frame's user saw. A closed-loop caller waits for
    /// its frame, so it is the observed submit-to-return time. An
    /// open-loop frame is collected after its phase, so it is the time
    /// from the frame's due moment to the server's completion stamp.
    pub fn user_ms(&self) -> f64 {
        match self.late_ms {
            Some(late) => late + self.latency_ms,
            None => self.observed_ms,
        }
    }

    /// What the serve tier added that its own queue-wait and render
    /// times do not account for — resolving the handle and waking the
    /// caller. Only a parked caller sees the moment of resolution.
    pub fn overhead_ms(&self) -> Option<f64> {
        self.blocked
            .then(|| (self.observed_ms - self.queue_wait_ms - self.render_ms).max(0.0))
    }
}

/// A submitted frame awaiting its result.
pub struct Pending {
    pub handle: gen_nerf_serve::FrameHandle,
    pub request: u64,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub late_ms: Option<f64>,
}

/// Submits one frame, timing the call.
pub fn submit(
    server: &RenderServer,
    session: SessionId,
    req: gen_nerf_serve::FrameRequest,
    request: u64,
    late_ms: Option<f64>,
) -> Pending {
    let submit_start = Instant::now();
    let handle = server.submit(session, req);
    Pending {
        handle,
        request,
        submit_start,
        submit_end: Instant::now(),
        late_ms,
    }
}

/// Waits for a frame, counts it in the report, records its spans, and
/// returns what was observed plus the image when it rendered.
///
/// The spans tile the request: `serve.submit` (the caller inside
/// `submit`), `serve.queue_wait` (the rest of the server's queue wait,
/// after `submit` returned), `serve.render`, and what is left as the
/// request's self time — the overhead. So the four add up to the
/// latency by construction. The request span ends where
/// the parked caller woke, or at the server's completion stamp when the
/// frame had resolved before anyone waited.
pub fn resolve(ctx: &mut Ctx, p: Pending) -> (Served, Option<FrameResult>) {
    let wait_start = Instant::now();
    let result = p.handle.wait_result();
    let returned = Instant::now();
    ctx.report.attempted += 1;
    let mut served = Served {
        outcome: Outcome::Ok,
        submit_us: (p.submit_end - p.submit_start).as_secs_f64() * 1e6,
        late_ms: p.late_ms,
        queue_wait_ms: 0.0,
        render_ms: 0.0,
        latency_ms: 0.0,
        observed_ms: (returned - p.submit_start).as_secs_f64() * 1e3,
        blocked: returned - wait_start >= BLOCKED_WAIT,
        batched: 0.0,
    };
    match result {
        Ok(frame) => {
            let s = &frame.serve;
            served.queue_wait_ms = s.queue_wait.as_secs_f64() * 1e3;
            served.render_ms = s.render_time.as_secs_f64() * 1e3;
            served.latency_ms = s.latency.as_secs_f64() * 1e3;
            served.batched = s.batched_frames as f64;
            if ctx.rec.is_on() {
                let t0 = ctx.rec.ns(p.submit_start);
                let t_sub = ctx.rec.ns(p.submit_end);
                let t_pop = t0 + s.queue_wait.as_nanos() as u64;
                let t_done = t_pop + s.render_time.as_nanos() as u64;
                let t_end = if served.blocked {
                    ctx.rec.ns(returned).max(t_done)
                } else {
                    t_done
                };
                let root = ctx.rec.record("serve.request", t0, t_end, None, p.request);
                ctx.rec.record("serve.submit", t0, t_sub, root, p.request);
                ctx.rec
                    .record("serve.queue_wait", t_sub.min(t_pop), t_pop, root, p.request);
                ctx.rec
                    .record("serve.render", t_pop, t_done, root, p.request);
            }
            if !all_finite(&frame.image) {
                served.outcome = Outcome::Failed;
                ctx.report.failed += 1;
            }
            (served, Some(frame))
        }
        Err(e) => {
            served.outcome = match e {
                ServeError::Shed { .. } | ServeError::CircuitOpen => Outcome::Shed,
                ServeError::TimedOut { .. } => Outcome::TimedOut,
                _ => Outcome::Failed,
            };
            ctx.report.failed += 1;
            (served, None)
        }
    }
}

/// Work counts of served frames, summed from their `RenderStats`.
#[derive(Default)]
pub struct FrameCounts {
    frames: u64,
    stats: RenderStats,
}

impl FrameCounts {
    pub fn add(&mut self, stats: &RenderStats) {
        self.frames += 1;
        self.stats.merge(stats);
    }

    /// Sets the `core.*` work counts, as means over the served frames.
    pub fn set_metrics(&self, report: &mut Report) {
        let rays = self.stats.rays.max(1) as f64;
        report.set(
            "core.sampling.points_per_ray",
            self.stats.points as f64 / rays,
        );
        report.set(
            "core.sampling.coarse_points_per_ray",
            self.stats.coarse_points as f64 / rays,
        );
        report.set(
            "core.features.fetches_per_frame",
            self.stats.feature_fetches as f64 / self.frames.max(1) as f64,
        );
        report.set(
            "core.pipeline.mflops_per_pixel",
            self.stats.mflops_per_pixel(),
        );
    }
}

/// GEMM dispatches the process has made so far.
pub fn gemm_dispatches() -> u64 {
    gen_nerf_telemetry::snapshot().counter_total("nn_gemm_dispatch_total")
}

/// Sets the `serve.<phase>.*` metrics from the frames of one phase
/// (pooled over its rounds) and returns the share of frames sent that
/// resolved Ok within `limit_ms` of their due time.
pub fn phase_metrics(report: &mut Report, phase: &str, frames: &[Served], limit_ms: f64) -> f64 {
    let ok: Vec<&Served> = frames.iter().filter(|f| f.outcome == Outcome::Ok).collect();
    let col = |f: &dyn Fn(&Served) -> f64| stats::sorted(ok.iter().map(|s| f(s)).collect());
    let key = |m: &str| format!("serve.{phase}.{m}");
    let submits: Vec<f64> = frames.iter().map(|f| f.submit_us).collect();
    report.set(&key("submit_us_p50"), stats::median(&submits));
    for (metric, values) in [
        ("queue_wait_ms", col(&|s| s.queue_wait_ms)),
        ("latency_ms", col(&|s| s.user_ms())),
    ] {
        let p95 = tail(report, &key(&format!("{metric}_p95")), &values, 0.95);
        report.set(&key(&format!("{metric}_p50")), stats::median(&values));
        report.set(&key(&format!("{metric}_p95")), p95);
    }
    report.set(&key("render_ms_p50"), stats::median(&col(&|s| s.render_ms)));
    let overheads: Vec<f64> = ok.iter().filter_map(|s| s.overhead_ms()).collect();
    report.set(&key("overhead_ms_p50"), stats::median(&overheads));
    let batched: f64 = ok.iter().map(|s| s.batched).sum();
    report.set(
        &key("batched_frames_mean"),
        batched / ok.len().max(1) as f64,
    );
    let on_time = ok.iter().filter(|s| s.user_ms() <= limit_ms).count();
    let share = on_time as f64 / frames.len().max(1) as f64;
    let count = |o: Outcome| frames.iter().filter(|f| f.outcome == o).count();
    report.note(format!(
        "phase {phase}: sent {} ok {} failed {} shed {} timed-out {} (on time within {limit_ms} ms: {:.4})",
        frames.len(),
        ok.len(),
        count(Outcome::Failed),
        count(Outcome::Shed),
        count(Outcome::TimedOut),
        share
    ));
    share
}

/// Counts the server's frame-lifecycle trace events per frame. The
/// rings are drained between phases, while a frame's last events may
/// still be in flight, so a frame counts only once both its `Submit` and
/// its `Resolve` event have been seen; that makes the mean exact.
#[derive(Default)]
pub struct TraceTally {
    /// Per frame id: events seen, and whether `Submit` / `Resolve` were.
    frames: BTreeMap<u64, (u64, bool, bool)>,
}

impl TraceTally {
    /// Drains the server's trace rings into the tally.
    pub fn drain(&mut self, server: &RenderServer) {
        self.add(&server.drain_traces());
    }

    fn add(&mut self, events: &[TraceEvent]) {
        for e in events {
            let f = self.frames.entry(e.frame).or_default();
            f.0 += 1;
            f.1 |= matches!(e.kind, EventKind::Submit);
            f.2 |= matches!(e.kind, EventKind::Resolve);
        }
    }

    fn events_per_frame(&self) -> f64 {
        let whole: Vec<u64> = self
            .frames
            .values()
            .filter(|(_, submit, resolve)| *submit && *resolve)
            .map(|(n, _, _)| *n)
            .collect();
        whole.iter().sum::<u64>() as f64 / whole.len().max(1) as f64
    }
}

/// Sets the server-wide `serve.*` and `telemetry.*` counters: what the
/// stats getters report once the run is over.
pub fn server_metrics(
    report: &mut Report,
    server: &RenderServer,
    sessions: &[SessionId],
    traces: &TraceTally,
) {
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for &s in sessions {
        let c = server.cache_stats(s);
        hits += c.hits;
        misses += c.misses;
        evictions += c.evictions;
    }
    report.set(
        "serve.session.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("serve.session.cache_evictions", evictions as f64);
    let adm = server.admission_stats();
    let submitted = (adm.admitted + adm.shed_total()).max(1) as f64;
    report.set(
        "serve.admission.shed_share",
        adm.shed_total() as f64 / submitted,
    );
    report.set(
        "serve.admission.degraded_share",
        adm.degraded as f64 / submitted,
    );
    report.set(
        "serve.supervisor.timeouts",
        server.supervisor_stats().timed_out_total() as f64,
    );
    let restarts: u64 = server.shard_health().iter().map(|h| h.restarts).sum();
    report.set("serve.shard.restarts", restarts as f64);
    report.set(
        "serve.shard.retries",
        gen_nerf_telemetry::snapshot().counter_total("serve_retries_total") as f64,
    );
    report.set(
        "serve.governor.peak_bytes",
        server.governor_stats().peak_bytes as f64,
    );
    report.set(
        "telemetry.trace_events_per_frame",
        traces.events_per_frame(),
    );
    report.set("telemetry.trace_drops", server.trace_drops() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(frame: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            frame,
            t_ns: 0,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn trace_tally_counts_only_whole_frames() {
        let mut tally = TraceTally::default();
        // Frame 1 is whole, across two drains; frame 2 lost its Submit
        // to the warm-up drain; frame 3 has not resolved yet.
        tally.add(&[
            event(1, EventKind::Submit),
            event(1, EventKind::Admit),
            event(2, EventKind::Render),
        ]);
        tally.add(&[
            event(1, EventKind::Resolve),
            event(2, EventKind::Resolve),
            event(3, EventKind::Submit),
        ]);
        assert_eq!(tally.events_per_frame(), 3.0);
        assert_eq!(TraceTally::default().events_per_frame(), 0.0);
    }

    #[test]
    fn overhead_is_seen_only_by_a_parked_caller() {
        let mut s = Served {
            outcome: Outcome::Ok,
            submit_us: 5.0,
            late_ms: None,
            queue_wait_ms: 1.0,
            render_ms: 4.0,
            latency_ms: 5.0,
            observed_ms: 5.5,
            blocked: true,
            batched: 1.0,
        };
        assert_eq!(s.overhead_ms(), Some(0.5));
        assert_eq!(s.user_ms(), 5.5);
        s.blocked = false;
        assert_eq!(s.overhead_ms(), None);
        // Open loop: the user's latency runs from the due time.
        s.late_ms = Some(2.0);
        assert_eq!(s.user_ms(), 7.0);
    }
}
