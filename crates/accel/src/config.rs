//! Accelerator configuration (paper Sec. 5.1).

use gen_nerf_dram::{DramConfig, FeatureLayout};
use serde::Serialize;

/// Full configuration of the Gen-NeRF accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AcceleratorConfig {
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Number of systolic arrays in the PE pool.
    pub pe_arrays: usize,
    /// Systolic array dimension (arrays are `dim × dim` INT8 MACs).
    pub pe_array_dim: usize,
    /// Local buffer size, KB.
    pub local_buffer_kb: usize,
    /// Weight buffer size, KB.
    pub weight_buffer_kb: usize,
    /// Each half of the prefetch double buffer, KB.
    pub prefetch_buffer_kb: usize,
    /// Off-chip DRAM device.
    pub dram: DramConfig,
    /// Scene-feature storage layout.
    pub layout: FeatureLayout,
}

impl AcceleratorConfig {
    /// The paper's synthesized configuration: 1 GHz, 40 16×16 INT8
    /// systolic arrays, 256 KB local buffer, 8 KB weight buffer,
    /// 2×256 KB prefetch buffers, LPDDR4-2400, spatial-interleaved
    /// feature storage.
    pub fn paper() -> Self {
        Self {
            freq_ghz: 1.0,
            pe_arrays: 40,
            pe_array_dim: 16,
            local_buffer_kb: 256,
            weight_buffer_kb: 8,
            prefetch_buffer_kb: 256,
            dram: DramConfig::lpddr4_2400(),
            layout: FeatureLayout::SpatialInterleave,
        }
    }

    /// Peak multiply–accumulates per cycle.
    pub(crate) fn macs_per_cycle(&self) -> u64 {
        (self.pe_arrays * self.pe_array_dim * self.pe_array_dim) as u64
    }

    /// Cycles the PE pool takes for `macs` multiply–accumulates at
    /// `efficiency` of its peak rate — perfectly shaped GEMMs derated
    /// for fill/drain and ragged tiles (a lower bound; the simulator
    /// has already folded exact shapes into a MAC count).
    ///
    /// # Panics
    ///
    /// Panics when `efficiency` is not in `(0, 1]`.
    pub(crate) fn mac_cycles(&self, macs: u64, efficiency: f64) -> u64 {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1], got {efficiency}"
        );
        let per_cycle = self.macs_per_cycle() as f64 * efficiency;
        (macs as f64 / per_cycle).ceil() as u64
    }

    /// Total on-chip SRAM in KB (local + weight + both prefetch halves).
    pub fn total_sram_kb(&self) -> usize {
        self.local_buffer_kb + self.weight_buffer_kb + 2 * self.prefetch_buffer_kb
    }

    /// Prefetch-buffer capacity in bytes (one half; the patch-size
    /// constraint of Sec. 4.3).
    pub(crate) fn prefetch_capacity_bytes(&self) -> u64 {
        self.prefetch_buffer_kb as u64 * 1024
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_5_1() {
        let cfg = AcceleratorConfig::paper();
        assert_eq!(cfg.pe_arrays, 40);
        assert_eq!(cfg.pe_array_dim, 16);
        assert_eq!(cfg.freq_ghz, 1.0);
        assert_eq!(cfg.local_buffer_kb, 256);
        assert_eq!(cfg.weight_buffer_kb, 8);
        assert_eq!(cfg.prefetch_buffer_kb, 256);
        assert_eq!(cfg.dram.bandwidth_gbps(), 17.8);
    }

    #[test]
    fn macs_per_cycle_is_10240() {
        assert_eq!(AcceleratorConfig::paper().macs_per_cycle(), 40 * 256);
    }

    #[test]
    fn mac_cycles_inverse_to_efficiency() {
        let cfg = AcceleratorConfig::paper();
        let full = cfg.mac_cycles(10_240_000, 1.0);
        let half = cfg.mac_cycles(10_240_000, 0.5);
        assert_eq!(full, 1000);
        assert_eq!(half, 2000);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn mac_cycles_rejects_zero_efficiency() {
        let _ = AcceleratorConfig::paper().mac_cycles(100, 0.0);
    }

    #[test]
    fn total_sram_under_a_megabyte() {
        // Tab. 4 lists 0.8 MB SRAM.
        let kb = AcceleratorConfig::paper().total_sram_kb();
        assert_eq!(kb, 776);
        assert!((kb as f64 / 1024.0 - 0.8).abs() < 0.05);
    }
}
