//! Analytic volumetric scenes, ground-truth rendering, dataset analogs
//! and image metrics for the Gen-NeRF reproduction.
//!
//! The paper evaluates on LLFF, NeRF-Synthetic and DeepVoxels — datasets
//! of posed photographs plus trained models. This crate substitutes
//! *analytic* volumetric scenes (see `DESIGN.md` §2): density and albedo
//! are closed-form functions of position, so
//!
//! * source views and ground-truth target views are rendered exactly by
//!   [`renderer::render`],
//! * per-point ground-truth density (needed to train ray modules and to
//!   validate sampling strategies) is available everywhere,
//! * occupancy statistics — which drive every sparsity result in the
//!   paper — are controlled and measurable.
//!
//! Three [`datasets::DatasetKind`]s mirror the paper's three evaluation
//! suites (forward-facing LLFF scenes at 1008×756, NeRF-Synthetic
//! 360° objects at 800×800, DeepVoxels Lambertian objects at 512×512),
//! each at a configurable resolution scale.
//!
//! # Example
//!
//! ```
//! use gen_nerf_scene::datasets::{Dataset, DatasetKind};
//!
//! // A small fern-analog for tests: 1/8 resolution, 3 source views.
//! let ds = Dataset::build(DatasetKind::Llff, "fern", 0.125, 3, 1, 32, 7);
//! assert_eq!(ds.source_views.len(), 3);
//! let view = &ds.eval_views[0];
//! assert!(view.image.width() > 0);
//! ```

#![warn(unreachable_pub)]

pub mod datasets;
mod field;
mod image;
pub mod metrics;
pub mod renderer;

pub use datasets::{Dataset, DatasetKind, View};
pub use field::Scene;
pub use image::Image;
