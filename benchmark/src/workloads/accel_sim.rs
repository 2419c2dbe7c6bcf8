//! `accel_sim`: one caller in a closed loop on `Simulator::simulate` —
//! the hardware half of the co-design. `accel` and `dram` do all the
//! work and the renderer none.
//!
//! Two kinds of number come out. Host time (how long the simulator
//! takes) is the end-to-end metric and is as noisy as the host.
//! Simulated statistics (cycles, bytes, hit rates) repeat exactly, so a
//! change that only speeds the simulator up must leave every one of
//! them identical, and any change to one of them is a model change.

use crate::run::{self, closed_loop_round, time_per_call, timed_setup, Ctx, Round};
use gen_nerf_accel::simulator::SimMode;
use gen_nerf_accel::{AcceleratorConfig, SimReport, Simulator, WorkloadSpec};
use std::hint::black_box;

/// Share of a traced run kept for the warm-rows pass.
const PROBE_SHARE: f64 = 0.25;

/// The paper's accelerator on a quarter-scale 1008×756 frame: six
/// source views, 64 focused points per ray.
fn spec() -> WorkloadSpec {
    WorkloadSpec::gen_nerf_default(252, 189, 6, 64)
}

/// Builds the simulator and runs its first, cold `simulate`. Building
/// alone takes microseconds today; timing the first call with it means
/// that work a later change moves into construction or lazy start-up
/// shows in `setup_s`.
fn setup() -> (Simulator, SimReport) {
    let sim = Simulator::new(AcceleratorConfig::paper()).with_threads(1);
    let first = sim.simulate(&spec());
    (sim, first)
}

pub fn run(ctx: &mut Ctx) {
    let (sim, reference) = timed_setup(ctx, setup);
    let spec = spec();

    // Correctness: the report repeats exactly, alone and at two host
    // threads, and its headline numbers are finite and positive.
    let again = sim.simulate(&spec);
    let two = Simulator::new(AcceleratorConfig::paper())
        .with_threads(2)
        .simulate(&spec);
    ctx.report.check(
        again == reference,
        "simulate repeated gives an identical SimReport",
    );
    ctx.report.check(
        two == reference,
        "simulate gives an identical SimReport at 1 and 2 threads",
    );
    ctx.report.check(
        reference.total_cycles > 0 && reference.fps.is_finite() && reference.fps > 0.0,
        "simulated frame has cycles and a finite rate",
    );

    let (rounds, secs) = ctx.round_plan(PROBE_SHARE);
    let mut request = 0u64;
    let measured: Vec<Round> = (0..rounds)
        .map(|r| {
            ctx.resample_setup(setup);
            ctx.arm_round(r);
            closed_loop_round(
                ctx,
                secs,
                "accel.simulator.simulate",
                &mut request,
                |_| sim.simulate(&spec),
                |report| *report == reference,
            )
        })
        .collect();
    let p95 = run::roll_up(ctx, &measured, None);
    ctx.report.set("accel.simulator.host_ms_p95", p95);

    if ctx.trace {
        ctx.rec.set_on(true);
        layer_metrics(ctx, &reference);
    }
}

/// The simulated statistics of the frame, and the warm-row pass.
fn layer_metrics(ctx: &mut Ctx, rep: &SimReport) {
    let patches = rep.coarse.patches + rep.focused.patches;
    let stalls = rep.coarse.bank_conflict_stalls + rep.focused.bank_conflict_stalls;
    // Row-buffer hit rate over both stages, weighted by bytes fetched.
    let bytes = rep.bytes_fetched().max(1) as f64;
    let hit_rate = (rep.coarse.row_hit_rate * rep.coarse.bytes_fetched as f64
        + rep.focused.row_hit_rate * rep.focused.bytes_fetched as f64)
        / bytes;
    let r = &mut ctx.report;
    let host_ms = r.get("frame_ms").unwrap_or(0.0);
    r.set("accel.simulator.total_cycles", rep.total_cycles as f64);
    r.set("accel.simulator.sim_fps", rep.fps);
    r.set("accel.simulator.pe_utilization", rep.pe_utilization);
    r.set("accel.simulator.data_cycles", rep.data_cycles() as f64);
    r.set(
        "accel.simulator.compute_cycles",
        rep.compute_cycles() as f64,
    );
    r.set(
        "accel.simulator.host_us_per_patch",
        host_ms * 1e3 / patches.max(1) as f64,
    );
    r.set("accel.scheduler.patches", patches as f64);
    r.set(
        "accel.scheduler.cycles",
        (rep.coarse.scheduler_cycles + rep.focused.scheduler_cycles) as f64,
    );
    r.set("dram.bytes_fetched", rep.bytes_fetched() as f64);
    r.set("dram.row_hit_rate", hit_rate);
    r.set("dram.bank_conflict_stalls", stalls as f64);

    // The same simulator used differently: row buffers kept warm across
    // patches, which serialises the patch loop.
    let warm = Simulator::new(AcceleratorConfig::paper())
        .with_threads(1)
        .with_sim_mode(SimMode::WarmRows);
    let spec = spec();
    let mut warm_rep = SimReport::default();
    let secs = ctx.probe_secs(PROBE_SHARE);
    let t = ctx.rec.time("accel.simulator.simulate_warm_rows", 50, || {
        time_per_call(secs, 1, || {
            warm_rep = black_box(warm.simulate(&spec));
        })
    });
    let warm_bytes = warm_rep.bytes_fetched().max(1) as f64;
    ctx.report
        .set("accel.simulator.warm_rows_host_ms", t * 1e3);
    ctx.report.set(
        "dram.warm_row_hit_rate",
        (warm_rep.coarse.row_hit_rate * warm_rep.coarse.bytes_fetched as f64
            + warm_rep.focused.row_hit_rate * warm_rep.focused.bytes_fetched as f64)
            / warm_bytes,
    );
}
