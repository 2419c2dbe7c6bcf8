//! Banked DRAM timing and energy model for the Gen-NeRF accelerator.
//!
//! The paper couples its cycle-accurate accelerator simulator to
//! [Ramulator] for LPDDR4-2400 latency/energy (Sec. 5.1). This crate is
//! the substitute: a bank-state-machine model with row-buffer hits and
//! misses, per-bank queueing, a shared data bus, and activation/read
//! energy accounting. It is deliberately scoped to what the paper uses
//! DRAM modeling *for*:
//!
//! * latency of prefetching the scene features of a point patch
//!   (Fig. 12's data-movement bars),
//! * bank conflicts under the three feature-storage layouts of Fig. 6
//!   (row-major, the proposed spatial interleaving, and Var-3's
//!   view-wise interleaving),
//! * DRAM energy per rendered frame.
//!
//! All timings are expressed in *accelerator* clock cycles (1 GHz per
//! the paper), so the accelerator pipeline can compare compute and data
//! movement directly.
//!
//! [Ramulator]: https://github.com/CMU-SAFARI/ramulator
//!
//! # Example
//!
//! ```
//! use gen_nerf_dram::{Dram, DramConfig, FeatureLayout, FeatureRequest};
//!
//! let mut dram = Dram::new(DramConfig::lpddr4_2400(), FeatureLayout::SpatialInterleave);
//! let reqs: Vec<FeatureRequest> = (0..16)
//!     .map(|i| FeatureRequest { view: 0, x: i % 4, y: i / 4, bytes: 32 })
//!     .collect();
//! let result = dram.serve_batch(&reqs);
//! assert!(result.total_cycles > 0);
//! ```

#![warn(unreachable_pub)]

mod config;
mod layout;
mod sim;

pub use config::{DramConfig, DramTiming};
pub use layout::FeatureLayout;
pub use sim::{BatchResult, Dram, DramStats, FeatureRequest};
