//! `serve_load`: sixty sessions over two scenes on two shards,
//! tiny frames, cache off — the workload on which the serve tier's own
//! per-frame cost (submit, admission, fair queue, watchdog, traces,
//! resolve) is the largest share it ever is.
//!
//! Each round drives one server through three phases, drained between
//! them:
//!
//! * **closed** — a closed loop with twelve frames in flight: callers
//!   that wait. Its rate is the server's capacity.
//! * **open_lo**, **open_hi** — open-loop Poisson arrivals at
//!   [`RATE_LO`] and [`RATE_HI`] frames/s: independent users. Latency
//!   is timed from each frame's due time, and a frame is on time when
//!   it resolves Ok within [`ON_TIME_MS`] of it.
//!
//! The single generator thread only submits during an open phase and
//! collects results when the phase is over, so a slow server never
//! slows the arrivals.
//!
//! `BENCHMARK.json` does not list this workload ([`super::BY_HAND`]): it
//! is compared by hand, in pairs.

use super::{
    build_scene, direct_renderer, gemm_dispatches, phase_metrics, resolve, same_pixels,
    server_metrics, submit, FrameCounts, Pending, Served, TraceTally,
};
use crate::inputs::{self, ArcPath};
use crate::run::{self, timed_setup, Ctx, RoundClock, Slice, SliceClock};
use crate::stats;
use gen_nerf::config::SamplingStrategy;
use gen_nerf_geometry::{Camera, Intrinsics};
use gen_nerf_serve::{
    AdmissionConfig, DeadlineClass, FrameRequest, RenderServer, SceneState, ServerConfig,
    SessionConfig, SessionId,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RES: u32 = 16;
/// One scene per shard, and one shard per core of the 2-core reference
/// host: the server's two render threads are partitioned one to a
/// shard, so the workload never runs more render threads than the host
/// has cores. With three shards (the issue's prototype) it did, and
/// what it measured was the scheduler: the closed-loop rate of one
/// binary on one seed spread by 9–12 % between runs, against 4 % here.
const SCENES: [&str; 2] = ["cube", "vase"];
const SESSIONS: usize = 60;
const IN_FLIGHT: usize = 12;
/// Frames in flight during warm-up: enough that every shard coalesces
/// batches of the server's `max_batch` (8). Worker arenas grow to the
/// largest batch they ever see and never shrink, so without this the
/// peak RSS of a run depends on whether a burst happened to fill a batch.
const WARMUP_IN_FLIGHT: usize = 48;
/// Share of frames submitted as BestEffort (prefetch traffic).
const BEST_EFFORT_SHARE: f64 = 0.25;
/// Offered rates of the open-loop phases, frames/s: about 0.1 and 0.25
/// of the closed-loop capacity of the 2-core reference host (≈ 600
/// frames/s). The issue's prototype used 100 and 250; at half of
/// capacity the latency amplifies every wobble of the host's speed
/// (its median moved by 31 % between two back-to-back sets of ten runs,
/// see the README). The queue is still exercised — batches form, p95
/// queue wait is many times the p50 — and nothing is shed.
pub const RATE_LO: f64 = 60.0;
pub const RATE_HI: f64 = 150.0;
/// A frame is on time when it resolves within one 60 Hz refresh of its
/// due time.
pub const ON_TIME_MS: f64 = 16.7;
/// Frames per slice of the closed phase (about a twelfth of a second at
/// capacity; four times the frames in flight, so that little of a
/// slice's work was done before it began) and of an open phase (about a
/// tenth of a second of arrivals at the high rate).
const CLOSED_SLICE: usize = 48;
const OPEN_SLICE: usize = 16;
/// Shares of a round's time given to the closed, low and high phases.
const PHASE_SHARE: [f64; 3] = [0.3, 0.3, 0.4];

const STRATEGY: SamplingStrategy = SamplingStrategy::CoarseThenFocus {
    n_coarse: 8,
    n_focused: 8,
    tau: 0.01,
    s_coarse: 4,
};

struct Setup {
    scenes: Vec<Arc<SceneState>>,
    server: RenderServer,
    sessions: Vec<SessionId>,
}

fn setup(intrinsics: Intrinsics) -> Setup {
    let scenes: Vec<Arc<SceneState>> = SCENES
        .iter()
        .map(|name| Arc::new(build_scene(name, 0.05, 4, RES as usize)))
        .collect();
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
    .with_max_shards(SCENES.len())
    .with_admission(AdmissionConfig::with_capacity(256));
    let server = RenderServer::new(config);
    // Cache off (`CoherenceConfig::exact()` is the default): every
    // frame pays its full render.
    let sessions = (0..SESSIONS)
        .map(|i| {
            server.create_session(
                Arc::clone(&scenes[i % scenes.len()]),
                SessionConfig::new(intrinsics, STRATEGY),
            )
        })
        .collect();
    Setup {
        scenes,
        server,
        sessions,
    }
}

/// The load generator's state: each session's trajectory and how far
/// it has walked, the request counter, and the work counts of the
/// frames that came back.
struct Driver<'a> {
    server: &'a RenderServer,
    sessions: &'a [SessionId],
    paths: Vec<ArcPath>,
    steps: Vec<usize>,
    request: u64,
    counts: FrameCounts,
}

impl Driver<'_> {
    /// Submits session `session`'s next pose.
    fn send(&mut self, session: usize, best_effort: bool, late_ms: Option<f64>) -> Pending {
        let pose = self.paths[session].pose(self.steps[session]);
        self.steps[session] += 1;
        let req = FrameRequest::new(pose).with_deadline(if best_effort {
            DeadlineClass::BestEffort
        } else {
            DeadlineClass::Interactive
        });
        self.request += 1;
        submit(
            self.server,
            self.sessions[session],
            req,
            self.request,
            late_ms,
        )
    }

    fn collect(&mut self, ctx: &mut Ctx, p: Pending, out: &mut Vec<Served>) {
        let (served, frame) = resolve(ctx, p);
        out.push(served);
        if let Some(f) = frame {
            self.counts.add(&f.stats);
        }
    }

    /// Closed loop for `secs`: `in_flight` frames outstanding, sessions
    /// taken round-robin, the oldest frame awaited first. Every
    /// [`CLOSED_SLICE`] frames collected while the loop is still sending
    /// make one slice; the tail that drains the queue makes none.
    fn closed(
        &mut self,
        ctx: &mut Ctx,
        secs: f64,
        in_flight: usize,
        classes: &[bool],
    ) -> (Vec<Served>, Vec<Slice>) {
        let start = Instant::now();
        let mut out = Vec::new();
        let mut slices = Vec::new();
        let whole = SliceClock::start();
        let mut slice = SliceClock::start();
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut sent = 0usize;
        loop {
            let open = start.elapsed().as_secs_f64() < secs;
            while open && queue.len() < in_flight {
                let best_effort = classes[sent % classes.len()];
                queue.push_back(self.send(sent % SESSIONS, best_effort, None));
                sent += 1;
            }
            let Some(p) = queue.pop_front() else {
                if slices.is_empty() {
                    // A smoke run: too short to fill one slice.
                    slices.push(whole.stop(out.len() as u64));
                }
                return (out, slices);
            };
            self.collect(ctx, p, &mut out);
            if open && out.len() == (slices.len() + 1) * CLOSED_SLICE {
                let done = std::mem::replace(&mut slice, SliceClock::start());
                slices.push(done.stop(CLOSED_SLICE as u64));
            }
        }
    }

    /// Open loop over `plan`: every frame is sent at its due time
    /// whatever the server is doing; results are collected afterwards.
    fn open(&mut self, ctx: &mut Ctx, plan: &[inputs::Arrival]) -> Vec<Served> {
        let start = Instant::now();
        let pending: Vec<Pending> = plan
            .iter()
            .map(|a| {
                let late_ms = wait_until(start + Duration::from_secs_f64(a.due_s));
                self.send(a.session, a.best_effort, Some(late_ms))
            })
            .collect();
        let mut out = Vec::with_capacity(pending.len());
        for p in pending {
            self.collect(ctx, p, &mut out);
        }
        out
    }
}

/// Sleeps, then spins the last stretch, until `due`; returns how late
/// the caller woke, in ms.
fn wait_until(due: Instant) -> f64 {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return (now - due).as_secs_f64() * 1e3;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(ctx: &mut Ctx) {
    let intrinsics = Intrinsics::from_fov(RES, RES, 0.55);
    let s = timed_setup(ctx, || setup(intrinsics));
    let mut driver = Driver {
        server: &s.server,
        sessions: &s.sessions,
        paths: (0..SESSIONS)
            .map(|i| ArcPath::draw(ctx.seed, i as u64, 3.8, 0.01))
            .collect(),
        steps: vec![0; SESSIONS],
        request: 0,
        counts: FrameCounts::default(),
    };

    // Correctness: sessions run with the cache off, so the first served
    // frame of session 0 is the direct render of its pose, bit for bit.
    {
        let pose = driver.paths[0].pose(0);
        let p = driver.send(0, false, None);
        let (_, frame) = resolve(ctx, p);
        let direct = direct_renderer(&s.scenes[0], STRATEGY)
            .render(&Camera::new(intrinsics, pose))
            .0;
        ctx.report.check(
            frame.is_some_and(|f| same_pixels(&f.image, &direct)),
            "cache-off served frame equals the direct render bitwise",
        );
    }

    let classes = inputs::class_draws(ctx.seed, 1000, 4096, BEST_EFFORT_SHARE);
    let warmup_secs = if ctx.smoke { 0.1 } else { 0.5 };
    driver.closed(ctx, warmup_secs, WARMUP_IN_FLIGHT, &classes);
    s.server.drain_traces();
    driver.counts = FrameCounts::default();

    // No layer probes here: a traced run spends all its time in rounds.
    let (rounds, secs) = ctx.round_plan(0.0);
    let mut frames: [Vec<Served>; 3] = Default::default();
    let mut closed_rounds = Vec::new();
    let mut hi_rounds = Vec::new();
    let mut traces = TraceTally::default();
    let gemms0 = gemm_dispatches();
    for r in 0..rounds {
        ctx.resample_setup(|| setup(intrinsics));
        ctx.arm_round(r);
        let traced = ctx.rec.is_on();

        let clock = RoundClock::start();
        let (got, slices) = driver.closed(ctx, secs * PHASE_SHARE[0], IN_FLIGHT, &classes);
        let samples = got.iter().map(Served::user_ms).collect();
        closed_rounds.push(clock.finish(samples, Vec::new(), slices, traced));
        frames[0].extend(got);
        traces.drain(&s.server);

        for (phase, rate) in [(1, RATE_LO), (2, RATE_HI)] {
            let plan = inputs::poisson_schedule(
                ctx.seed,
                2000 + (r * 2 + phase) as u64,
                rate,
                secs * PHASE_SHARE[phase],
                SESSIONS,
                BEST_EFFORT_SHARE,
            );
            let clock = RoundClock::start();
            let got = driver.open(ctx, &plan);
            let samples: Vec<f64> = got.iter().map(Served::user_ms).collect();
            // A slice of an open phase: consecutive arrivals, and the
            // median latency among them.
            let slice_ms = samples.chunks_exact(OPEN_SLICE).map(stats::median).collect();
            let late: Vec<f64> = got.iter().filter_map(|f| f.late_ms).collect();
            let mut round = clock.finish(samples, slice_ms, Vec::new(), traced);
            round.late_ms_p99 = stats::percentile(&stats::sorted(late), 0.99);
            if phase == 2 {
                hi_rounds.push(round);
            }
            frames[phase].extend(got);
            traces.drain(&s.server);
        }
    }
    let gemms = gemm_dispatches() - gemms0;

    // What a user of this workload sees: frame latency under the high
    // offered rate, from the due time; throughput and CPU cost from the
    // closed loop, where the server runs at capacity.
    run::roll_up(ctx, &hi_rounds, Some(&closed_rounds));

    let n: usize = frames.iter().map(Vec::len).sum();
    let r = &mut ctx.report;
    phase_metrics(r, "closed", &frames[0], f64::INFINITY);
    let lo = phase_metrics(r, "open_lo", &frames[1], ON_TIME_MS);
    let hi = phase_metrics(r, "open_hi", &frames[2], ON_TIME_MS);
    r.set("serve.open_lo.on_time_share", lo);
    r.set("serve.open_hi.on_time_share", hi);
    server_metrics(r, &s.server, &s.sessions, &traces);
    driver.counts.set_metrics(r);
    r.set(
        "nn.kernels.gemm_dispatches_per_frame",
        gemms as f64 / n.max(1) as f64,
    );
}
