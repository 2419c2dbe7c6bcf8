//! PE-pool GEMM timing.
//!
//! Each PE is a `dim × dim` weight-stationary INT8 systolic array; the
//! pool retires `arrays · dim²` multiply–accumulates per cycle at full
//! occupancy, derated by an efficiency for fill/drain and ragged tiles.

use crate::config::AcceleratorConfig;
use serde::{Deserialize, Serialize};

/// Timing model of the PE pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PePool {
    arrays: usize,
    dim: usize,
}

impl PePool {
    /// Builds the pool from an accelerator config.
    pub(crate) fn new(cfg: &AcceleratorConfig) -> Self {
        Self {
            arrays: cfg.pe_arrays,
            dim: cfg.pe_array_dim,
        }
    }

    /// Cycles to execute `macs` multiply–accumulates assuming perfectly
    /// shaped GEMMs (lower bound; used for aggregate workloads where
    /// exact shapes are already folded into a MAC count).
    ///
    /// `efficiency` in `(0, 1]` derates for fill/drain and ragged tiles.
    ///
    /// # Panics
    ///
    /// Panics when `efficiency` is not in `(0, 1]`.
    pub(crate) fn mac_cycles(&self, macs: u64, efficiency: f64) -> u64 {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1], got {efficiency}"
        );
        let per_cycle = (self.arrays * self.dim * self.dim) as f64 * efficiency;
        (macs as f64 / per_cycle).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PePool {
        PePool::new(&AcceleratorConfig::paper())
    }

    #[test]
    fn mac_cycles_inverse_to_efficiency() {
        let p = pool();
        let full = p.mac_cycles(10_240_000, 1.0);
        let half = p.mac_cycles(10_240_000, 0.5);
        assert_eq!(full, 1000);
        assert_eq!(half, 2000);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn mac_cycles_rejects_zero_efficiency() {
        let _ = pool().mac_cycles(100, 0.0);
    }
}
