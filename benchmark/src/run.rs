//! The run protocol every workload shares: repeated set-up, a host
//! calibration spin, timed rounds cut into slices, and the roll-up of
//! the slices into the end-to-end metrics.
//!
//! One process measures one workload. The measuring time is split into
//! rounds, and every round into slices: one frame, one wave, a few dozen
//! served frames. Each slice has its own wall and CPU clock. The
//! end-to-end metrics are quiet-host estimates over all slices of the
//! run ([`stats::quiet_low`]): what the work costs when the shared host
//! leaves it alone. Tail percentiles pool the samples of all rounds. In
//! a traced run the rounds alternate spans on and off, which gives the
//! tracing overhead from one process.

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats;
use crate::sys;
use std::time::Instant;

/// Rounds of an untraced (end-to-end) run. A round is the unit of the
/// harness's own housekeeping — one more set-up timed, the calibration
/// spin, `serve_load`'s cycle of phases — so that all of it is spread
/// over the run.
pub const ROUNDS: usize = 10;
/// Rounds of a traced run, alternating spans on and off.
pub const TRACED_ROUNDS: usize = 6;
/// Open-loop generator lateness (p99) above which a round is flagged.
const NOISY_LATE_MS: f64 = 5.0;
/// Calibration deviation from the run's median above which a round is
/// flagged.
const NOISY_CALIB_SHARE: f64 = 0.10;

/// Everything a workload needs from the command line, plus the span
/// recorder and the report it fills.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub rec: Recorder,
    pub report: Report,
    /// Seconds each set-up of the workload's state took.
    pub setups: Vec<f64>,
}

impl Ctx {
    /// Builds the workload's state once and records how long it took.
    fn time_setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.setups.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Times one more set-up and discards its product; called at the
    /// start of each round, outside the round's clocks. A smoke run
    /// sets up once only.
    pub fn resample_setup<T>(&mut self, build: impl FnOnce() -> T) {
        if !self.smoke {
            drop(self.time_setup(build));
        }
    }

    /// How many rounds this run makes and how long each lasts. A
    /// traced run keeps `probe_share` of `--seconds` for the workload's
    /// layer probes and spends the rest in rounds.
    pub fn round_plan(&self, probe_share: f64) -> (usize, f64) {
        if self.trace {
            (
                TRACED_ROUNDS,
                self.seconds * (1.0 - probe_share) / TRACED_ROUNDS as f64,
            )
        } else {
            (ROUNDS, self.seconds / ROUNDS as f64)
        }
    }

    /// Seconds a probe may take: `share` of `--seconds`.
    pub fn probe_secs(&self, share: f64) -> f64 {
        self.seconds * share
    }

    /// Switches the recorder for round `r`: on in even rounds of a
    /// traced run, off otherwise.
    pub fn arm_round(&mut self, r: usize) {
        self.rec.set_on(self.trace && r.is_multiple_of(2));
    }

    /// Warm-up iterations: fewer in smoke mode.
    pub fn warmup(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// Set-ups timed before the first round. One more is timed at the start
/// of every round ([`Ctx::resample_setup`]), and `setup_s` is the
/// quiet-host estimate over them all: this host's speed wanders over
/// hundreds of milliseconds, so set-ups timed back to back all see the
/// same weather, while set-ups spread over the run do not.
const FIRST_SETUPS: usize = 5;

/// Builds the workload's state [`FIRST_SETUPS`] times (once in a smoke
/// run), dropping each product before the next is built, and returns the
/// last one. Every build time goes into `ctx.setups`.
pub fn timed_setup<T>(ctx: &mut Ctx, mut build: impl FnMut() -> T) -> T {
    let mut last = ctx.time_setup(&mut build);
    for _ in 1..if ctx.smoke { 1 } else { FIRST_SETUPS } {
        drop(last);
        last = ctx.time_setup(&mut build);
    }
    last
}

/// A fixed scalar spin, timed in ms: a dependent multiply-add chain,
/// each link passed through `black_box` so the compiler cannot fold
/// the recurrence. The work never changes, so its time tracks only the
/// host's clock and steal. It keeps one execution port busy and touches
/// no memory, so it does not feel a neighbour on the sibling hardware
/// thread or in the shared cache; `bench.contention_pct` shows those.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..4_000_000u32 {
        x = std::hint::black_box(x)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One short stretch of measured work — a frame, a wave, a few dozen
/// served frames — with what it completed and what it cost. The
/// end-to-end metrics are estimated over the slices of a run.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Operations completed in the slice.
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU seconds (all threads) spent during the slice.
    pub cpu_s: f64,
}

impl Slice {
    pub fn fps(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops.max(1) as f64
    }
}

/// Wall and CPU clocks around one slice.
pub struct SliceClock {
    cpu0: f64,
    start: Instant,
}

impl SliceClock {
    pub fn start() -> Self {
        let cpu0 = sys::cpu_seconds();
        Self {
            cpu0,
            start: Instant::now(),
        }
    }

    /// Closes the slice over `ops` operations.
    pub fn stop(self, ops: u64) -> Slice {
        let wall_s = self.start.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - self.cpu0;
        Slice { ops, wall_s, cpu_s }
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Per-operation latency, ms: every operation of the round.
    pub samples_ms: Vec<f64>,
    /// The frame latency of each slice, ms: the one call a slice of a
    /// single-caller loop is, the slowest frame of a wave, or the median
    /// over an open-loop slice's frames.
    pub slice_ms: Vec<f64>,
    /// What each slice completed and cost; empty where only latency is
    /// measured (an open loop completes what it is sent).
    pub slices: Vec<Slice>,
    pub calib_ms: f64,
    /// Open-loop generator lateness p99 (0 for closed loops).
    pub late_ms_p99: f64,
    /// Whether the benchmark's spans were on.
    pub traced: bool,
}

impl Round {
    pub fn p50(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// Operations per wall second over the round's slices.
    pub fn fps(&self) -> f64 {
        let ops: u64 = self.slices.iter().map(|s| s.ops).sum();
        let wall: f64 = self.slices.iter().map(|s| s.wall_s).sum();
        ops as f64 / wall
    }
}

/// Brackets a round: the calibration spin, then a wall clock for the
/// round's length.
pub struct RoundClock {
    calib_ms: f64,
    start: Instant,
}

impl RoundClock {
    pub fn start() -> Self {
        let calib_ms = calibrate();
        Self {
            calib_ms,
            start: Instant::now(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn finish(
        self,
        samples_ms: Vec<f64>,
        slice_ms: Vec<f64>,
        slices: Vec<Slice>,
        traced: bool,
    ) -> Round {
        Round {
            samples_ms,
            slice_ms,
            slices,
            calib_ms: self.calib_ms,
            late_ms_p99: 0.0,
            traced,
        }
    }
}

/// A closed loop of one caller: `op` back to back for `secs`, each call
/// one slice, recorded as a root span named `span`; `ok` judges each
/// output outside the timed interval.
pub fn closed_loop_round<T>(
    ctx: &mut Ctx,
    secs: f64,
    span: &'static str,
    next_request: &mut u64,
    mut op: impl FnMut(u64) -> T,
    mut ok: impl FnMut(&T) -> bool,
) -> Round {
    let clock = RoundClock::start();
    let mut slices = Vec::new();
    while clock.elapsed_s() < secs || slices.is_empty() {
        let slice = SliceClock::start();
        let t0 = slice.start;
        let out = op(*next_request);
        let slice = slice.stop(1);
        let t1 = t0 + std::time::Duration::from_secs_f64(slice.wall_s);
        ctx.rec
            .record(span, ctx.rec.ns(t0), ctx.rec.ns(t1), None, *next_request);
        slices.push(slice);
        ctx.report.attempted += 1;
        if !ok(&out) {
            ctx.report.failed += 1;
        }
        *next_request += 1;
    }
    let samples: Vec<f64> = slices.iter().map(|s| s.wall_s * 1e3).collect();
    clock.finish(samples.clone(), samples, slices, ctx.rec.is_on())
}

/// Nearest-rank `q` of the ascending `sorted`, falling back to the
/// highest percentile the sample supports (and noting it) when `q` has
/// fewer than ten samples beyond it.
pub fn tail(report: &mut Report, what: &str, sorted: &[f64], q: f64) -> f64 {
    let used = stats::supported_or_lower(sorted.len(), q);
    if used != q {
        report.note(format!(
            "{what}: n={} does not support p{}; reported p{} instead",
            sorted.len(),
            q * 100.0,
            used * 100.0
        ));
    }
    stats::percentile(sorted, used)
}

/// Rolls rounds up into the end-to-end metrics and the `bench.*`
/// harness-health metrics. `latency` holds the rounds whose slices carry
/// the workload's frame latency; `rate` the rounds whose slices carry
/// its throughput and CPU cost when those are other rounds
/// (`serve_load`). Returns the pooled p95 of the frame latency, which
/// the caller files under its layer's name.
pub fn roll_up(ctx: &mut Ctx, latency: &[Round], rate: Option<&[Round]>) -> f64 {
    // End-to-end values come from rounds with spans off: all of them
    // in an untraced run, every other one in a traced run.
    fn untraced(rounds: &[Round]) -> impl Iterator<Item = &Round> {
        rounds.iter().filter(|r| !r.traced)
    }
    fn slice_ms(rounds: &[Round], traced: bool) -> Vec<f64> {
        let of = rounds.iter().filter(|r| r.traced == traced);
        of.flat_map(|r| r.slice_ms.iter().copied()).collect()
    }
    let pooled = stats::sorted(
        untraced(latency)
            .flat_map(|r| r.samples_ms.iter().copied())
            .collect(),
    );
    let mut latencies = slice_ms(latency, false);
    if latencies.is_empty() {
        // A smoke run can be too short to fill one slice.
        latencies = pooled.clone();
    }
    let rate_rounds = rate.unwrap_or(latency);
    let slices: Vec<&Slice> = untraced(rate_rounds).flat_map(|r| &r.slices).collect();
    let fps: Vec<f64> = slices.iter().map(|s| s.fps()).collect();
    let cpu: Vec<f64> = slices.iter().map(|s| s.cpu_ms_per_op()).collect();
    let frame_ms = stats::quiet_low(&latencies);
    let report = &mut ctx.report;
    report.set("setup_s", stats::quiet_low(&ctx.setups));
    report.set("frame_ms", frame_ms);
    report.set("throughput_fps", stats::quiet_high(&fps));
    report.set("cpu_ms_per_frame", stats::quiet_low(&cpu));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let p95 = tail(report, "frame latency p95", &pooled, 0.95);
    let top = stats::highest_supported(pooled.len());
    report.note(format!(
        "frame latency: n={} p50={:.3} ms, highest supported percentile p{}={:.3} ms",
        pooled.len(),
        stats::percentile(&pooled, 0.5),
        top * 100.0,
        stats::percentile(&pooled, top)
    ));
    let p50s: Vec<f64> = untraced(latency).map(Round::p50).collect();
    let round_fps: Vec<f64> = untraced(rate_rounds).map(Round::fps).collect();
    report.note(format!(
        "slices: {} of latency, {} of rate; set-ups: {}",
        latencies.len(),
        slices.len(),
        ctx.setups.len()
    ));
    report.note(format!(
        "rounds: frame latency p50 {} ms (spread {:.1}%), frames/s {} (spread {:.1}%)",
        list(&p50s),
        stats::spread_pct(&p50s),
        list(&round_fps),
        stats::spread_pct(&round_fps)
    ));

    // Harness health, over every round of the run.
    let all: Vec<&Round> = latency.iter().chain(rate.unwrap_or(&[])).collect();
    let calibs: Vec<f64> = all.iter().map(|r| r.calib_ms).collect();
    let calib_med = stats::median(&calibs);
    let late = all.iter().map(|r| r.late_ms_p99).fold(0.0, f64::max);
    let noisy = all
        .iter()
        .filter(|r| {
            r.late_ms_p99 > NOISY_LATE_MS
                || (r.calib_ms - calib_med).abs() > NOISY_CALIB_SHARE * calib_med
        })
        .count();
    report.set("bench.host_calib_ms", calib_med);
    report.set("bench.gen_late_ms_p99", late);
    report.set("bench.round_spread_pct", stats::spread_pct(&p50s));
    report.set("bench.noisy_rounds", noisy as f64);
    // How much slower the run's typical slice was than its quiet ones:
    // what the host's other tenants (and the workload's own variety of
    // frames) added.
    let over = |ms: f64| {
        if frame_ms > 0.0 {
            (ms / frame_ms - 1.0) * 100.0
        } else {
            0.0
        }
    };
    report.set("bench.contention_pct", over(stats::median(&latencies)));
    if noisy > 0 {
        report.note(format!(
            "NOISY: {noisy} of {} rounds (calibration {} ms, median {calib_med:.3}; generator lateness p99 {late:.3} ms) — kept, not dropped",
            all.len(),
            list(&calibs)
        ));
    }
    let on = slice_ms(latency, true);
    if !on.is_empty() {
        report.set("bench.trace_overhead_pct", over(stats::quiet_low(&on)));
    }
    p95
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    parts.join(" / ")
}

/// Seconds per call of `f`, timed in batches of `batch` calls for about
/// `secs` (at least three batches): the quiet-host estimate over the
/// batches, like the end-to-end metrics the probes are set against.
pub fn time_per_call(secs: f64, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        times.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    stats::quiet_low(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            seed: 1,
            seconds: 0.06,
            trace,
            smoke: true,
            rec: Recorder::new(false),
            report: Report::default(),
            setups: Vec::new(),
        }
    }

    #[test]
    fn set_ups_are_timed_before_and_during_the_rounds() {
        let mut c = ctx(false);
        c.smoke = false;
        let mut n = 0;
        let last = timed_setup(&mut c, || {
            n += 1;
            n
        });
        assert_eq!((last, n), (FIRST_SETUPS, FIRST_SETUPS));
        c.resample_setup(|| n += 1);
        assert_eq!((n, c.setups.len()), (FIRST_SETUPS + 1, FIRST_SETUPS + 1));

        let mut smoke = ctx(false);
        assert_eq!(timed_setup(&mut smoke, || 7), 7);
        smoke.resample_setup(|| unreachable!("a smoke run sets up once"));
        assert_eq!(smoke.setups.len(), 1);
    }

    #[test]
    fn closed_loop_rolls_up_into_every_end_to_end_metric() {
        let mut c = ctx(false);
        let (rounds, secs) = c.round_plan(0.5);
        assert_eq!(rounds, ROUNDS);
        let mut req = 0;
        let rs: Vec<Round> = (0..rounds)
            .map(|r| {
                c.arm_round(r);
                closed_loop_round(&mut c, secs, "op", &mut req, |i| i, |_| true)
            })
            .collect();
        c.setups.push(0.5);
        roll_up(&mut c, &rs, None);
        for def in crate::metrics::END_TO_END {
            let v = c.report.get(def.name).expect(def.name);
            // A slice of one no-op may cost less CPU than the clock
            // resolves.
            let floor = if def.name == "cpu_ms_per_frame" {
                -1.0
            } else {
                0.0
            };
            assert!(v > floor && v.is_finite(), "{} = {v}", def.name);
        }
        assert_eq!(c.report.attempted, req);
        assert!(
            c.rec.spans().is_empty(),
            "spans stay off in an end-to-end run"
        );
        assert!(c.report.correct());
    }

    /// Forty slices, the first ten quiet and the rest slowed by a
    /// neighbour: the metrics read the quiet ones, from the latency
    /// rounds and the rate rounds each.
    #[test]
    fn roll_up_reads_the_quiet_slices() {
        let round = |ms_per_op: f64| Round {
            samples_ms: vec![ms_per_op; 4],
            slice_ms: vec![ms_per_op],
            slices: vec![Slice {
                ops: 4,
                wall_s: 4.0 * ms_per_op / 1e3,
                cpu_s: 8.0 * ms_per_op / 1e3,
            }],
            ..Round::default()
        };
        let rounds = |quiet: f64| -> Vec<Round> {
            (0..40)
                .map(|i| round(if i < 10 { quiet } else { quiet * 1.3 }))
                .collect()
        };
        let mut c = ctx(false);
        c.setups = vec![0.3, 0.2, 0.25];
        roll_up(&mut c, &rounds(10.0), Some(&rounds(2.0)));
        let get = |name: &str| c.report.get(name).expect(name);
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("frame_ms"), 10.0);
        assert!((get("throughput_fps") - 500.0).abs() < 1e-9);
        assert!((get("cpu_ms_per_frame") - 4.0).abs() < 1e-9);
        assert!((get("bench.contention_pct") - 30.0).abs() < 1e-9);
    }

    #[test]
    fn traced_runs_alternate_spans_and_report_the_overhead() {
        let mut c = ctx(true);
        let (rounds, secs) = c.round_plan(0.5);
        assert_eq!(rounds, TRACED_ROUNDS);
        let mut req = 0;
        let rs: Vec<Round> = (0..rounds)
            .map(|r| {
                c.arm_round(r);
                closed_loop_round(&mut c, secs, "op", &mut req, |i| i, |i| *i != 1)
            })
            .collect();
        assert_eq!(
            rs.iter().map(|r| r.traced).collect::<Vec<_>>(),
            [true, false, true, false, true, false]
        );
        c.setups.push(0.5);
        roll_up(&mut c, &rs, None);
        assert!(c.report.get("bench.trace_overhead_pct").is_some());
        let traced: usize = rs
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.samples_ms.len())
            .sum();
        assert_eq!(c.rec.spans().len(), traced);
        assert_eq!(c.report.failed, 1, "the one bad output is counted");
    }
}
