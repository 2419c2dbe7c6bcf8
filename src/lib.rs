//! Umbrella crate for the Gen-NeRF reproduction workspace.
//!
//! Re-exports every member crate under one roof so downstream users
//! (and the `examples/` + `tests/` at the workspace root) can depend on
//! a single package. See `README.md` for the quickstart and
//! `ARCHITECTURE.md` for the crate map.

#![warn(unreachable_pub)]

pub use gen_nerf as core;
pub use gen_nerf_accel as accel;
pub use gen_nerf_dram as dram;
pub use gen_nerf_geometry as geometry;
pub use gen_nerf_nn as nn;
pub use gen_nerf_parallel as parallel;
pub use gen_nerf_scene as scene;
