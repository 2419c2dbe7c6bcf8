//! Tab. 4 — device specifications and typical FPS: Gen-NeRF vs ICARUS
//! vs Jetson TX2 vs RTX 2080Ti.
//!
//! Gen-NeRF's FPS comes from the cycle-level simulator on the typical
//! workload (800×800, 64 focused points, 6 views). The simulator runs
//! at `GEN_NERF_HW_SCALE` resolution and FPS is extrapolated by pixel
//! count (latency is linear in rays at fixed per-ray work).

use crate::experiments::{hw_scale, scaled_dim};
use crate::harness::{f, print_table};
use gen_nerf_accel::area::area_power;
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::gpu::GpuModel;
use gen_nerf_accel::icarus::Icarus;
use gen_nerf_accel::simulator::Simulator;
use gen_nerf_accel::workload::WorkloadSpec;

/// One Tab. 4 column.
#[derive(Debug, Clone)]
pub struct DeviceRow {
    /// Device name.
    pub name: String,
    /// On-chip SRAM, MB.
    pub sram_mb: f64,
    /// Area, mm².
    pub area_mm2: f64,
    /// Frequency, GHz.
    pub freq_ghz: f64,
    /// DRAM technology.
    pub dram: String,
    /// Bandwidth, GB/s (0 = not reported).
    pub bandwidth_gbps: f64,
    /// Technology node, nm.
    pub technology_nm: u32,
    /// Typical power, W.
    pub power_w: f64,
    /// Typical FPS on the canonical workload.
    pub fps: f64,
}

/// Simulated Gen-NeRF FPS on the typical workload at full 800×800
/// (extrapolated from the scaled simulation).
pub(crate) fn gen_nerf_fps(scale: f32) -> f64 {
    let dim = scaled_dim(800, scale);
    let spec = WorkloadSpec::gen_nerf_default(dim, dim, 6, 64);
    let sim = Simulator::new(AcceleratorConfig::paper());
    let report = sim.simulate(&spec);
    let pixel_ratio = (dim as f64 * dim as f64) / (800.0 * 800.0);
    report.fps * pixel_ratio
}

/// Computes all four device rows.
pub fn compute() -> Vec<DeviceRow> {
    let cfg = AcceleratorConfig::paper();
    let ap = area_power(&cfg);
    let gen_fps = gen_nerf_fps(hw_scale());
    let full_spec = WorkloadSpec::gen_nerf_default(800, 800, 6, 64);
    let icarus = Icarus::reported();
    let rtx = GpuModel::rtx_2080ti();
    let tx2 = GpuModel::jetson_tx2();
    vec![
        DeviceRow {
            name: "Gen-NeRF".into(),
            sram_mb: cfg.total_sram_kb() as f64 / 1024.0,
            area_mm2: ap.total_area_mm2(),
            freq_ghz: cfg.freq_ghz,
            dram: cfg.dram.name.into(),
            bandwidth_gbps: cfg.dram.bandwidth_gbps(),
            technology_nm: 28,
            power_w: ap.total_power_mw() / 1000.0,
            fps: gen_fps,
        },
        DeviceRow {
            name: "ICARUS".into(),
            sram_mb: icarus.sram_mb,
            area_mm2: icarus.area_mm2,
            freq_ghz: icarus.freq_ghz,
            dram: "-".into(),
            bandwidth_gbps: 0.0,
            technology_nm: icarus.technology_nm,
            power_w: icarus.power_w,
            fps: icarus.typical_fps,
        },
        DeviceRow {
            name: tx2.name.into(),
            sram_mb: tx2.sram_mb,
            area_mm2: tx2.area_mm2,
            freq_ghz: tx2.freq_ghz,
            dram: tx2.dram_name.into(),
            bandwidth_gbps: tx2.bandwidth_gbps,
            technology_nm: 16,
            power_w: tx2.power_w,
            fps: tx2.fps(&full_spec),
        },
        DeviceRow {
            name: rtx.name.into(),
            sram_mb: rtx.sram_mb,
            area_mm2: rtx.area_mm2,
            freq_ghz: rtx.freq_ghz,
            dram: rtx.dram_name.into(),
            bandwidth_gbps: rtx.bandwidth_gbps,
            technology_nm: 12,
            power_w: rtx.power_w,
            fps: rtx.fps(&full_spec),
        },
    ]
}

/// Prints Tab. 4.
pub fn run() {
    let rows = compute();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f(r.sram_mb, 2),
                f(r.area_mm2, 1),
                f(r.freq_ghz, 2),
                r.dram.clone(),
                if r.bandwidth_gbps > 0.0 {
                    f(r.bandwidth_gbps, 1)
                } else {
                    "-".into()
                },
                format!("{} nm", r.technology_nm),
                f(r.power_w, 2),
                f(r.fps, 3),
            ]
        })
        .collect();
    print_table(
        "Tab. 4 — device comparison (typical workload: 800x800, 64 pts, 6 views)",
        &[
            "Device",
            "SRAM(MB)",
            "Area(mm²)",
            "Freq(GHz)",
            "DRAM",
            "BW(GB/s)",
            "Tech",
            "Power(W)",
            "FPS",
        ],
        &table,
    );
    let gen = rows[0].fps;
    println!(
        "\nSpeedups: vs ICARUS {:.0}x (paper >1000x), vs TX2 {:.0}x, vs 2080Ti {:.0}x\nPaper reference FPS: Gen-NeRF 24.9, ICARUS 0.02, TX2 0.003, 2080Ti 0.096.",
        gen / rows[1].fps,
        gen / rows[2].fps,
        gen / rows[3].fps,
    );
}
