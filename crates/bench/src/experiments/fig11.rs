//! Fig. 11 — FPS scalability on NeRF-Synthetic 800×800: sweeping the
//! number of source views {10, 6, 4, 2, 1} and the number of focused
//! samples {128, 112, 96, 80, 64} (paper: ≥208.8× speedup over the
//! GPUs everywhere).

use crate::experiments::{hw_scale, scaled_dim};
use crate::harness::{f, par_sweep, print_table};
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::gpu::GpuModel;
use gen_nerf_accel::simulator::Simulator;
use gen_nerf_accel::workload::WorkloadSpec;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Swept axis name.
    pub axis: &'static str,
    /// Swept value.
    pub value: usize,
    /// Gen-NeRF FPS (extrapolated to 800×800).
    pub gen_nerf_fps: f64,
    /// RTX 2080Ti FPS.
    pub rtx_fps: f64,
    /// Jetson TX2 FPS.
    pub tx2_fps: f64,
}

fn measure(s_views: usize, n_focused: usize, threads: usize) -> (f64, f64, f64) {
    let scale = hw_scale();
    let dim = scaled_dim(800, scale);
    let scaled = WorkloadSpec::gen_nerf_default(dim, dim, s_views, n_focused);
    let full = WorkloadSpec::gen_nerf_default(800, 800, s_views, n_focused);
    let sim = Simulator::new(AcceleratorConfig::paper()).with_threads(threads);
    let ratio = (dim as f64 * dim as f64) / (800.0 * 800.0);
    (
        sim.simulate(&scaled).fps * ratio,
        GpuModel::rtx_2080ti().fps(&full),
        GpuModel::jetson_tx2().fps(&full),
    )
}

/// Computes both sweeps; the ten points run in parallel via
/// `par_sweep` (each point is an independent cycle-level simulation
/// plus two closed-form GPU models).
pub fn compute() -> Vec<Fig11Row> {
    let jobs: Vec<(&'static str, usize, usize, usize)> = [10usize, 6, 4, 2, 1]
        .iter()
        .map(|&views| ("#source views", views, views, 64))
        .chain(
            [128usize, 112, 96, 80, 64]
                .iter()
                .map(|&points| ("#sampled points", points, 6, points)),
        )
        .collect();
    par_sweep(&jobs, |&(axis, value, s_views, n_focused), inner| {
        let (g, r, t) = measure(s_views, n_focused, inner);
        Fig11Row {
            axis,
            value,
            gen_nerf_fps: g,
            rtx_fps: r,
            tx2_fps: t,
        }
    })
}

/// Prints Fig. 11.
pub fn run() {
    let rows = compute();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.axis.to_string(),
                r.value.to_string(),
                f(r.gen_nerf_fps, 2),
                f(r.rtx_fps, 4),
                f(r.tx2_fps, 5),
                format!("{:.1}x", r.gen_nerf_fps / r.rtx_fps),
            ]
        })
        .collect();
    print_table(
        "Fig. 11 — FPS scalability on NeRF Synthetic 800x800",
        &[
            "Axis",
            "Value",
            "Gen-NeRF FPS",
            "2080Ti FPS",
            "TX2 FPS",
            "Speedup",
        ],
        &table,
    );
    println!("\nShape check (paper): >=208.8x speedup over both GPUs at every point.");
}
