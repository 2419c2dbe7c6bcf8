//! Cycle-level model of the Gen-NeRF accelerator (paper Sec. 4–5).
//!
//! The hardware side of the co-design, built from the components of
//! Fig. 7:
//!
//! * [`config`] — the 28 nm / 1 GHz configuration of Sec. 5.1 (40 16×16
//!   INT8 systolic arrays, 256 KB local buffer, 8 KB weight buffer,
//!   2 × 256 KB prefetch double buffer, LPDDR4-2400) and the PE pool's
//!   GEMM timing (MACs per cycle, derated),
//! * [`scheduler`] — the workload scheduler: greedy 3D-point-patch
//!   partition driven by epipolar projected-area estimates (Fig. 5),
//! * [`workload`] — a device-independent description of one rendering
//!   workload (resolution, views, samples, model cost coefficients),
//! * [`simulator`] — the pipeline simulator: per-patch DRAM prefetch
//!   (via `gen-nerf-dram`) overlapped with PE compute through the
//!   double buffer; reports latency breakdown, PE utilization and FPS,
//! * [`dataflow`] — the Fig. 12 ablation variants (Var-1/2/3),
//! * [`gpu`] — roofline models of RTX 2080Ti and Jetson TX2 calibrated
//!   to the paper's profiled numbers (Fig. 2, Tab. 4),
//! * [`icarus`] — the ICARUS comparison point (reported numbers),
//! * [`area`] — the analytic 28 nm area/power model behind Tab. 1.
//!
//! # Example
//!
//! ```
//! use gen_nerf_accel::config::AcceleratorConfig;
//! use gen_nerf_accel::simulator::Simulator;
//! use gen_nerf_accel::workload::WorkloadSpec;
//!
//! let cfg = AcceleratorConfig::paper();
//! let spec = WorkloadSpec::gen_nerf_default(128, 128, 6, 64);
//! let sim = Simulator::new(cfg);
//! let report = sim.simulate(&spec);
//! assert!(report.fps > 0.0);
//! ```

#![warn(unreachable_pub)]

pub mod area;
pub mod config;
pub mod dataflow;
pub mod gpu;
pub mod icarus;
pub mod scheduler;
pub mod simulator;
pub mod workload;

pub use config::AcceleratorConfig;
pub use dataflow::DataflowVariant;
pub use simulator::{SimReport, Simulator};
pub use workload::WorkloadSpec;
