//! Gen-NeRF: efficient and generalizable neural radiance fields via
//! algorithm–hardware co-design (ISCA '23) — the core algorithm crate.
//!
//! This crate implements the paper's algorithm side end to end and
//! provides the glue to its hardware side (the `gen-nerf-accel`
//! simulator):
//!
//! * `encoder` — the frozen multi-scale feature encoder standing in
//!   for the CNN encoder `E` (Step 0 of Sec. 2.2),
//! * [`features`] — per-point scene-feature acquisition: projection
//!   onto source views, bilinear fetch, cross-view aggregation
//!   statistics (Steps 1–2),
//! * [`model`] — the generalizable NeRF model: point MLP `f`, the ray
//!   transformer baseline `T`, the proposed Ray-Mixer, and the
//!   source-color blending head (Steps 3–4),
//! * [`sampling`] — uniform, hierarchical (IBRNet) and the proposed
//!   coarse-then-focus sampling strategies (Sec. 3.2),
//! * [`pipeline`] — the end-to-end renderer with FLOPs/fetch
//!   accounting (Step 5 plus instrumentation),
//! * [`trainer`] — in-process training (pretraining across scenes,
//!   per-scene finetuning) using `gen-nerf-nn`'s Adam,
//! * [`pruning`] — the channel pruning of Tab. 2,
//! * [`eval`] — PSNR / LPIPS-proxy / MFLOPs-per-pixel evaluation,
//! * [`hardware`] — converts a model + sampling configuration into an
//!   `accel::WorkloadSpec` for the cycle-level simulator.
//!
//! # Quickstart
//!
//! ```no_run
//! use gen_nerf::prelude::*;
//!
//! // Tiny dataset + model for illustration (see examples/ for real use).
//! let ds = Dataset::build(DatasetKind::Llff, "fern", 0.05, 4, 1, 48, 7);
//! let mut model = GenNerfModel::new(ModelConfig::fast());
//! let mut trainer = Trainer::new(TrainConfig::fast());
//! trainer.pretrain(&mut model, &[&ds]);
//! let strategy = SamplingStrategy::coarse_then_focus(8, 16);
//! let result = evaluate(&model, &ds, &strategy, None);
//! println!("PSNR {:.2} dB at {:.3} MFLOPs/pixel", result.psnr, result.mflops_per_pixel);
//! ```

#![warn(unreachable_pub)]

pub mod config;
pub(crate) mod encoder;
pub mod eval;
pub mod features;
pub mod hardware;
pub mod model;
pub mod occupancy;
pub mod pipeline;
pub mod pruning;
// Test-only: the INT8 density-drift check of Sec. 5.1's PE fidelity.
#[cfg(test)]
mod quantized;
pub mod sampling;
pub mod trainer;

/// Convenient re-exports for applications.
pub mod prelude {
    pub use crate::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
    pub use crate::eval::{evaluate, EvalResult};
    pub use crate::hardware::workload_spec;
    pub use crate::model::GenNerfModel;
    pub use crate::pipeline::{RenderError, RenderStats, Renderer};
    pub use crate::trainer::{TrainConfig, Trainer};
    pub use gen_nerf_scene::{Dataset, DatasetKind};
}
