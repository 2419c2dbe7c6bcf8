//! Benchmark harness for the Gen-NeRF reproduction.
//!
//! One module per table/figure of the paper's evaluation (Sec. 5); the
//! `src/bin/` wrappers print each artifact, and `reproduce_all` runs
//! the whole evaluation, paper value beside measured value. README
//! "Layout of the reproduction harness" maps binaries to artifacts.
//! [`loadgen`] draws the seeded request and fault schedules the `gates`
//! binary (the CI gates) replays.

pub mod experiments;
pub mod harness;
pub mod loadgen;
