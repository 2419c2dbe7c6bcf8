//! Roofline models of the GPU baselines (RTX 2080Ti, Jetson TX2).
//!
//! The paper measures its GPU baselines on real hardware; we substitute
//! calibrated analytic models (DESIGN.md §2). Each model decomposes a
//! frame into the Fig. 2 buckets:
//!
//! * **Acquire Features** — per-(point, view) gathers at a calibrated
//!   per-gather cost (random texture access + projection address math
//!   never reaches peak bandwidth),
//! * **MLP** — GEMM FLOPs at a size-dependent efficiency (narrow NeRF
//!   layers utilize a few percent of a big GPU; wider layers more),
//! * **Ray Transformer / Ray-Mixer** — the per-ray module; attention is
//!   derated a further ~5× (the Sec. 2.3 observation: 44.1% of DNN time
//!   from 13.8% of FLOPs),
//! * **Others** — sampling, volume rendering and launch overheads; the
//!   coarse-then-focus pipeline additionally pays a warp-divergence
//!   factor on SIMT hardware because per-ray sample counts become
//!   non-uniform (the motivation for a dedicated ray-marching
//!   micro-architecture).

use crate::workload::{RayModuleKind, Stage, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Time breakdown of one frame on a GPU (seconds), Fig. 2's buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuBreakdown {
    /// Scene-feature acquisition.
    pub acquire_s: f64,
    /// Backbone MLP.
    pub mlp_s: f64,
    /// Ray transformer / Ray-Mixer.
    pub ray_module_s: f64,
    /// Sampling, compositing, kernel overheads.
    pub others_s: f64,
}

impl GpuBreakdown {
    /// Total frame latency, seconds.
    pub fn total_s(&self) -> f64 {
        self.acquire_s + self.mlp_s + self.ray_module_s + self.others_s
    }

    /// Fraction of DNN time (MLP + ray module) spent in the ray module.
    pub fn ray_module_dnn_share(&self) -> f64 {
        let dnn = self.mlp_s + self.ray_module_s;
        if dnn > 0.0 {
            self.ray_module_s / dnn
        } else {
            0.0
        }
    }
}

/// An analytic GPU device model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuModel {
    /// Device name.
    pub name: &'static str,
    /// Peak FP32 throughput, TFLOPS.
    pub fp32_tflops: f64,
    /// Peak DRAM bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Cost of one (point, view) feature gather, nanoseconds
    /// (calibrated; includes projection math, bilinear taps and random
    /// access inefficiency).
    pub gather_ns_per_point_view: f64,
    /// Attention derate relative to GEMM efficiency.
    pub attention_penalty: f64,
    /// Fixed per-frame overhead (launches, host sync), seconds.
    pub frame_overhead_s: f64,
    /// Warp-divergence factor applied to compute when the workload uses
    /// non-uniform (coarse-then-focus) sampling.
    pub divergence_factor: f64,
    /// Rays per launch batch (the paper profiles 4096 on the 2080Ti and
    /// 128 on the TX2).
    pub batch_rays: u64,
    /// Host/device synchronization cost per batch per stage, seconds
    /// (PDF build + inverse-transform resampling round trips).
    pub sync_s_per_batch: f64,
    /// On-chip SRAM, MB (Tab. 4).
    pub sram_mb: f64,
    /// Die area, mm² (Tab. 4).
    pub area_mm2: f64,
    /// Clock, GHz (Tab. 4).
    pub freq_ghz: f64,
    /// Typical board power, W (Tab. 4).
    pub power_w: f64,
    /// DRAM technology (Tab. 4).
    pub dram_name: &'static str,
}

impl GpuModel {
    /// NVIDIA RTX 2080Ti (desktop GPU baseline).
    pub fn rtx_2080ti() -> Self {
        Self {
            name: "RTX 2080Ti",
            fp32_tflops: 13.45,
            bandwidth_gbps: 616.0,
            gather_ns_per_point_view: 2.2,
            attention_penalty: 5.0,
            frame_overhead_s: 0.15,
            divergence_factor: 3.5,
            batch_rays: 4096,
            sync_s_per_batch: 0.008,
            sram_mb: 29.5,
            area_mm2: 754.0,
            freq_ghz: 1.35,
            power_w: 250.0,
            dram_name: "GDDR6",
        }
    }

    /// NVIDIA Jetson TX2 (edge GPU baseline).
    pub fn jetson_tx2() -> Self {
        Self {
            name: "Jetson TX2",
            fp32_tflops: 0.8,
            bandwidth_gbps: 25.6,
            gather_ns_per_point_view: 40.0,
            attention_penalty: 5.0,
            frame_overhead_s: 2.0,
            divergence_factor: 3.5,
            batch_rays: 128,
            sync_s_per_batch: 0.008,
            sram_mb: 2.5,
            area_mm2: 350.0,
            freq_ghz: 0.9,
            power_w: 10.0,
            dram_name: "LPDDR4-1600",
        }
    }

    /// GEMM efficiency as a function of the inner (reduction) dimension
    /// `k`: narrow NeRF layers achieve a few percent of peak; wide
    /// layers saturate around 35%.
    pub(crate) fn gemm_efficiency(&self, k: usize) -> f64 {
        (k as f64 / 800.0).clamp(0.018, 0.35)
    }

    /// Frame latency breakdown for a workload.
    pub fn breakdown(&self, spec: &WorkloadSpec) -> GpuBreakdown {
        let mut acquire_s = 0.0;
        let mut mlp_s = 0.0;
        let mut vr_flops = 0.0;
        for stage in spec.stages() {
            let pv = spec.points(stage) as f64 * spec.views(stage) as f64;
            // Coarse stage gathers fewer channels: scale gather cost by
            // the channel fraction (address math amortizes, data moves
            // shrink).
            let channel_frac = spec.channels(stage) as f64 / spec.d_channels as f64;
            acquire_s += pv * self.gather_ns_per_point_view * 1e-9 * (0.5 + 0.5 * channel_frac);
            let mlp_flops = 2.0 * spec.mlp_macs(stage) as f64;
            let k = gemm_k_for(spec, stage);
            mlp_s += mlp_flops / (self.fp32_tflops * 1e12 * self.gemm_efficiency(k));
            vr_flops += spec.points(stage) as f64 * 12.0;
        }

        let ray_flops = 2.0 * spec.ray_macs_total(Stage::Focused) as f64;
        let ray_eff = match spec.ray_module {
            RayModuleKind::Transformer => {
                self.gemm_efficiency(spec.mlp_gemm_k()) / self.attention_penalty
            }
            RayModuleKind::Mixer => self.gemm_efficiency(16),
            RayModuleKind::None => 1.0,
        };
        let ray_module_s = if ray_flops > 0.0 {
            ray_flops / (self.fp32_tflops * 1e12 * ray_eff)
        } else {
            0.0
        };

        let n_batches = spec.rays().div_ceil(self.batch_rays);
        let sync_s = n_batches as f64 * spec.stages().len() as f64 * self.sync_s_per_batch;
        let others_s = vr_flops / (self.fp32_tflops * 1e12 * 0.02) + self.frame_overhead_s + sync_s;

        // Non-uniform sampling diverges warps: derate all compute.
        let divergent = spec.n_coarse > 0;
        let mut bd = GpuBreakdown {
            acquire_s,
            mlp_s,
            ray_module_s,
            others_s: 0.0,
        };
        if divergent {
            bd.mlp_s *= self.divergence_factor;
            bd.ray_module_s *= self.divergence_factor;
            bd.acquire_s *= self.divergence_factor.sqrt();
        }
        bd.others_s = others_s;
        bd
    }

    /// Frame latency, seconds.
    pub fn latency_s(&self, spec: &WorkloadSpec) -> f64 {
        self.breakdown(spec).total_s()
    }

    /// Frames per second.
    pub fn fps(&self, spec: &WorkloadSpec) -> f64 {
        1.0 / self.latency_s(spec)
    }
}

/// The GEMM reduction dimension the point MLP runs at (reconstructed
/// from the per-point MAC count; see [`WorkloadSpec::mlp_gemm_k`]).
fn gemm_k_for(spec: &WorkloadSpec, stage: Stage) -> usize {
    match stage {
        Stage::Coarse => (spec.mlp_gemm_k() / 4).max(8),
        Stage::Focused => spec.mlp_gemm_k(),
    }
}

impl WorkloadSpec {
    /// Approximate hidden width of the point MLP, recovered from the
    /// per-point MAC count (the dominant term is `hidden²`).
    pub(crate) fn mlp_gemm_k(&self) -> usize {
        ((self.mlp_macs_per_point as f64).sqrt() * 0.7) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2 profiling workload: vanilla generalizable NeRF
    /// (ray transformer), 10 source views, 196 points per ray.
    fn fig2_spec(w: u32, h: u32) -> WorkloadSpec {
        WorkloadSpec::ibrnet_default(w, h, 10, 196)
    }

    #[test]
    fn rtx_cannot_hit_realtime_on_vanilla() {
        // Paper Sec. 2.3: ≤ 0.249 FPS on the 800×800 workload.
        let gpu = GpuModel::rtx_2080ti();
        let fps = gpu.fps(&fig2_spec(800, 800));
        assert!(fps <= 0.249, "fps = {fps}");
        assert!(fps > 0.01, "model unreasonably slow: {fps}");
    }

    #[test]
    fn tx2_much_slower_than_rtx() {
        let spec = fig2_spec(800, 800);
        let rtx = GpuModel::rtx_2080ti().latency_s(&spec);
        let tx2 = GpuModel::jetson_tx2().latency_s(&spec);
        let ratio = tx2 / rtx;
        assert!(
            (5.0..200.0).contains(&ratio),
            "TX2/RTX latency ratio = {ratio}"
        );
    }

    #[test]
    fn acquire_features_is_major_component() {
        // Fig. 2: feature acquisition is a dominant bar.
        let gpu = GpuModel::rtx_2080ti();
        let bd = gpu.breakdown(&fig2_spec(1008, 756));
        assert!(
            bd.acquire_s / bd.total_s() > 0.25,
            "acquire share = {}",
            bd.acquire_s / bd.total_s()
        );
    }

    #[test]
    fn ray_transformer_time_share_exceeds_flops_share() {
        // Sec. 2.3: 44.1% of DNN time from 13.8% of FLOPs.
        let gpu = GpuModel::rtx_2080ti();
        let spec = fig2_spec(1008, 756);
        let bd = gpu.breakdown(&spec);
        let time_share = bd.ray_module_dnn_share();
        let ray_flops = 2.0 * spec.ray_macs_total(Stage::Focused) as f64;
        let mlp_flops = 2.0 * spec.mlp_macs(Stage::Focused) as f64;
        let flops_share = ray_flops / (ray_flops + mlp_flops);
        assert!(
            time_share > 2.0 * flops_share,
            "time share {time_share:.3} vs flops share {flops_share:.3}"
        );
        assert!(
            (0.25..0.75).contains(&time_share),
            "time share = {time_share:.3} (paper: 0.441)"
        );
    }

    #[test]
    fn mixer_has_no_attention_penalty() {
        let gpu = GpuModel::rtx_2080ti();
        let mut mixer_spec = WorkloadSpec::gen_nerf_default(400, 400, 6, 64);
        mixer_spec.n_coarse = 0; // isolate the ray-module effect
        let mut attn_spec = mixer_spec;
        attn_spec.ray_module = RayModuleKind::Transformer;
        attn_spec.ray_macs_quadratic = 2.0 * 8.0;
        attn_spec.ray_macs_linear = 4.0 * 16.0 * 8.0;
        let bd_mixer = gpu.breakdown(&mixer_spec);
        let bd_attn = gpu.breakdown(&attn_spec);
        // Per-FLOP, the mixer executes more efficiently.
        let mixer_eff = 2.0 * mixer_spec.ray_macs_total(Stage::Focused) as f64
            / bd_mixer.ray_module_s.max(1e-12);
        let attn_eff =
            2.0 * attn_spec.ray_macs_total(Stage::Focused) as f64 / bd_attn.ray_module_s.max(1e-12);
        assert!(mixer_eff > attn_eff, "mixer {mixer_eff} vs attn {attn_eff}");
    }

    #[test]
    fn divergence_penalizes_coarse_then_focus_on_gpu() {
        let gpu = GpuModel::rtx_2080ti();
        let with_ctf = WorkloadSpec::gen_nerf_default(400, 400, 6, 64);
        let mut uniform = with_ctf;
        uniform.n_coarse = 0;
        // Same focused work, but non-uniform sampling diverges warps.
        assert!(gpu.breakdown(&with_ctf).mlp_s > gpu.breakdown(&uniform).mlp_s);
    }

    #[test]
    fn latency_scales_with_resolution() {
        let gpu = GpuModel::rtx_2080ti();
        let small = gpu.latency_s(&fig2_spec(400, 400));
        let large = gpu.latency_s(&fig2_spec(800, 800));
        assert!(large > 2.0 * small, "small={small} large={large}");
    }

    #[test]
    fn spec_table_matches_paper_tab4() {
        let rtx = GpuModel::rtx_2080ti();
        assert_eq!(rtx.sram_mb, 29.5);
        assert_eq!(rtx.area_mm2, 754.0);
        assert_eq!(rtx.power_w, 250.0);
        let tx2 = GpuModel::jetson_tx2();
        assert_eq!(tx2.sram_mb, 2.5);
        assert_eq!(tx2.area_mm2, 350.0);
        assert_eq!(tx2.power_w, 10.0);
    }

    #[test]
    fn gemm_efficiency_monotone_in_k() {
        let gpu = GpuModel::rtx_2080ti();
        assert!(gpu.gemm_efficiency(16) < gpu.gemm_efficiency(128));
        assert!(gpu.gemm_efficiency(2048) <= 0.35);
        assert!(gpu.gemm_efficiency(1) >= 0.018);
    }
}
