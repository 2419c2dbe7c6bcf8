//! DRAM device configurations.

use serde::{Deserialize, Serialize};

/// Core DRAM timing parameters, in accelerator (1 GHz) cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Row activate → column command (tRCD).
    pub t_rcd: u64,
    /// Precharge time (tRP).
    pub t_rp: u64,
    /// Column access latency (tCL).
    pub t_cl: u64,
    /// Minimum row-open time before precharge (tRAS).
    pub t_ras: u64,
}

/// A DRAM device model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DramConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of independently schedulable banks.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Peak bandwidth in bytes per accelerator cycle (= GB/s at 1 GHz).
    pub bytes_per_cycle: f64,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Energy per row activation, picojoules.
    pub activate_pj: f64,
    /// Energy per byte read, picojoules.
    pub read_pj_per_byte: f64,
}

impl DramConfig {
    /// LPDDR4-2400 with 17.8 GB/s — the paper's AR/VR device memory
    /// (Tab. 4, following the Meta Quest Pro reference).
    pub fn lpddr4_2400() -> Self {
        Self {
            name: "LPDDR4-2400",
            banks: 8,
            row_bytes: 2048,
            bytes_per_cycle: 17.8,
            timing: DramTiming {
                t_rcd: 18,
                t_rp: 18,
                t_cl: 16,
                t_ras: 34,
            },
            activate_pj: 1700.0,
            read_pj_per_byte: 25.0,
        }
    }

    /// Cycles to stream `bytes` over the data bus (at least 1).
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1)
    }

    /// Peak bandwidth in GB/s (at the 1 GHz accelerator clock,
    /// `bytes_per_cycle` *is* GB/s).
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_bandwidths() {
        assert_eq!(DramConfig::lpddr4_2400().bandwidth_gbps(), 17.8);
    }

    #[test]
    fn transfer_cycles_rounds_up() {
        let cfg = DramConfig::lpddr4_2400();
        assert_eq!(cfg.transfer_cycles(1), 1);
        assert_eq!(cfg.transfer_cycles(18), 2); // 18 / 17.8 -> 2
        assert_eq!(cfg.transfer_cycles(178), 10);
    }

    #[test]
    fn transfer_of_zero_takes_a_cycle() {
        assert_eq!(DramConfig::lpddr4_2400().transfer_cycles(0), 1);
    }

    #[test]
    fn timings_are_sane() {
        let cfg = DramConfig::lpddr4_2400();
        assert!(cfg.timing.t_ras >= cfg.timing.t_rcd);
        assert!(cfg.banks.is_power_of_two());
        assert!(cfg.row_bytes.is_power_of_two());
    }
}
