//! Device-independent description of one rendering workload.
//!
//! A [`WorkloadSpec`] captures everything the hardware models need to
//! cost a frame: resolution, source views, per-ray sample counts for
//! the coarse and focused stages, feature dimensionality and the model
//! cost coefficients (MLP MACs per point; ray-module MACs as a
//! quadratic in the per-ray point count). The algorithm crate builds
//! these from its model configuration; the simulator and the GPU
//! models consume them.

use serde::{Deserialize, Serialize};

/// Which ray module the workload executes per ray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RayModuleKind {
    /// Attention-based ray transformer (IBRNet baseline).
    Transformer,
    /// The proposed MLP-only Ray-Mixer.
    Mixer,
    /// No cross-point module (per-point density projection).
    None,
}

/// One rendering stage (the pipeline of Fig. 8 runs twice: coarse, then
/// focused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Lightweight coarse sampling (few views, scaled channels).
    Coarse,
    /// Focused sampling with the full model.
    Focused,
}

/// A complete frame workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Rendered image width.
    pub width: u32,
    /// Rendered image height.
    pub height: u32,
    /// Source views conditioning the focused stage.
    pub s_views: usize,
    /// Source views used by the coarse stage (`S_c`, paper: 4).
    pub s_coarse: usize,
    /// Coarse samples per ray (`N_c`).
    pub n_coarse: usize,
    /// Average focused samples per ray (`N_f`).
    pub n_focused: usize,
    /// Feature channels per texel (full model).
    pub d_channels: usize,
    /// Channel scale applied to the coarse stage (paper: 0.25).
    pub coarse_channel_scale: f32,
    /// Bytes per feature channel (1 = INT8).
    pub bytes_per_channel: u32,
    /// Bilinear taps per feature fetch.
    pub taps_per_fetch: u32,
    /// MLP multiply–accumulates per sampled point (focused stage).
    pub mlp_macs_per_point: u64,
    /// MLP MACs per point in the coarse stage.
    pub coarse_mlp_macs_per_point: u64,
    /// Ray-module MACs = `quad · n² + lin · n` for an `n`-point ray.
    pub ray_macs_quadratic: f64,
    /// Linear coefficient of the ray-module cost.
    pub ray_macs_linear: f64,
    /// Which ray module runs.
    pub ray_module: RayModuleKind,
}

impl WorkloadSpec {
    /// The canonical Gen-NeRF workload: coarse-then-focus sampling
    /// (`N_c = 16`), Ray-Mixer, `D = 12` INT8 feature channels, model
    /// dimensions matching `gen-nerf`'s default [`ModelConfig`]-derived
    /// cost (hidden 64, `d_σ = 16`).
    ///
    /// [`ModelConfig`]: https://docs.rs/gen-nerf
    pub fn gen_nerf_default(width: u32, height: u32, s_views: usize, n_focused: usize) -> Self {
        let d = 12usize;
        let d_sigma = 16.0;
        Self {
            width,
            height,
            s_views,
            s_coarse: 4.min(s_views),
            n_coarse: 16,
            n_focused,
            d_channels: d,
            coarse_channel_scale: 0.25,
            bytes_per_channel: 1,
            taps_per_fetch: 4,
            mlp_macs_per_point: mlp_macs(d, 48, 16),
            coarse_mlp_macs_per_point: mlp_macs(d / 4, 16, 16),
            // Mixer: n²·dσ (token FC over d columns) + n·dσ² + n·dσ.
            ray_macs_quadratic: d_sigma,
            ray_macs_linear: d_sigma * d_sigma + d_sigma,
            ray_module: RayModuleKind::Mixer,
        }
    }

    /// The IBRNet-baseline workload: single-stage sampling with the ray
    /// transformer (`n_points` per ray, no coarse stage).
    pub fn ibrnet_default(width: u32, height: u32, s_views: usize, n_points: usize) -> Self {
        let d = 12usize;
        let d_sigma = 16.0;
        let dk = 8.0;
        Self {
            width,
            height,
            s_views,
            s_coarse: 0,
            n_coarse: 0,
            n_focused: n_points,
            d_channels: d,
            coarse_channel_scale: 1.0,
            bytes_per_channel: 1,
            taps_per_fetch: 4,
            mlp_macs_per_point: mlp_macs(d, 128, 16),
            coarse_mlp_macs_per_point: 0,
            // Attention: qkᵀ + attn·v ≈ 2·n²·dk, projections 4·n·dσ·dk.
            ray_macs_quadratic: 2.0 * dk,
            ray_macs_linear: 4.0 * d_sigma * dk,
            ray_module: RayModuleKind::Transformer,
        }
    }

    /// Total camera rays.
    pub fn rays(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Sampled points in one stage.
    pub fn points(&self, stage: Stage) -> u64 {
        self.rays()
            * match stage {
                Stage::Coarse => self.n_coarse as u64,
                Stage::Focused => self.n_focused as u64,
            }
    }

    /// Source views used by a stage.
    pub fn views(&self, stage: Stage) -> usize {
        match stage {
            Stage::Coarse => self.s_coarse,
            Stage::Focused => self.s_views,
        }
    }

    /// Feature channels used by a stage.
    pub fn channels(&self, stage: Stage) -> usize {
        match stage {
            Stage::Coarse => {
                ((self.d_channels as f32 * self.coarse_channel_scale).ceil() as usize).max(1)
            }
            Stage::Focused => self.d_channels,
        }
    }

    /// Bytes per texel fetched in a stage (all channels of one texel).
    pub fn texel_bytes(&self, stage: Stage) -> u64 {
        (self.channels(stage) as u64) * self.bytes_per_channel as u64
    }

    /// Per-point gather traffic in a stage on a cache-less device:
    /// `taps × texel_bytes` per (point, view).
    pub fn gather_bytes_per_point_view(&self, stage: Stage) -> u64 {
        self.taps_per_fetch as u64 * self.texel_bytes(stage)
    }

    /// Total nominal gather traffic of a stage (the `H·W·P·S·D` count
    /// of paper Sec. 1) in bytes.
    pub fn nominal_gather_bytes(&self, stage: Stage) -> u64 {
        self.points(stage) * self.views(stage) as u64 * self.gather_bytes_per_point_view(stage)
    }

    /// Total MLP MACs in a stage (point MLP over all sampled points).
    pub fn mlp_macs(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Coarse => self.points(stage) * self.coarse_mlp_macs_per_point,
            Stage::Focused => self.points(stage) * self.mlp_macs_per_point,
        }
    }

    /// Ray-module MACs for one ray with `n` points.
    pub fn ray_macs(&self, n: usize) -> u64 {
        if matches!(self.ray_module, RayModuleKind::None) || n == 0 {
            return 0;
        }
        (self.ray_macs_quadratic * (n * n) as f64 + self.ray_macs_linear * n as f64) as u64
    }

    /// Total ray-module MACs in a stage (one module pass per ray).
    pub fn ray_macs_total(&self, stage: Stage) -> u64 {
        let n = match stage {
            // The coarse stage only needs hitting probabilities, not a
            // contextualized density: no ray module (Sec. 3.2, "super
            // lightweight coarse sampling only to predict the PDF").
            Stage::Coarse => return 0,
            Stage::Focused => self.n_focused,
        };
        self.rays() * self.ray_macs(n)
    }

    /// Total frame MACs (both stages, MLP + ray module).
    pub fn total_macs(&self) -> u64 {
        self.mlp_macs(Stage::Coarse)
            + self.mlp_macs(Stage::Focused)
            + self.ray_macs_total(Stage::Focused)
    }

    /// Total frame FLOPs (2 per MAC).
    pub fn total_flops(&self) -> u64 {
        2 * self.total_macs()
    }

    /// Active stages (coarse stage skipped when `n_coarse == 0`).
    pub fn stages(&self) -> Vec<Stage> {
        if self.n_coarse > 0 {
            vec![Stage::Coarse, Stage::Focused]
        } else {
            vec![Stage::Focused]
        }
    }
}

/// MACs of the point MLP: `(2d+2) → hidden → hidden → (d_sigma + 3)`.
///
/// Input features are the cross-view aggregation statistics (mean `d`,
/// variance `d`, direction similarity, valid fraction).
pub fn mlp_macs(d: usize, hidden: usize, d_sigma: usize) -> u64 {
    let input = 2 * d + 2;
    (input * hidden + hidden * hidden + hidden * (d_sigma + 3)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_nerf_default_is_two_stage() {
        let spec = WorkloadSpec::gen_nerf_default(800, 800, 6, 64);
        assert_eq!(spec.stages(), vec![Stage::Coarse, Stage::Focused]);
        assert_eq!(spec.s_coarse, 4);
        assert_eq!(spec.n_coarse, 16);
    }

    #[test]
    fn ibrnet_default_is_single_stage() {
        let spec = WorkloadSpec::ibrnet_default(800, 800, 10, 196);
        assert_eq!(spec.stages(), vec![Stage::Focused]);
        assert_eq!(spec.ray_module, RayModuleKind::Transformer);
    }

    #[test]
    fn coarse_channels_scaled() {
        let spec = WorkloadSpec::gen_nerf_default(64, 64, 6, 64);
        assert_eq!(spec.channels(Stage::Focused), 12);
        assert_eq!(spec.channels(Stage::Coarse), 3);
    }

    #[test]
    fn nominal_gather_matches_hwpsd() {
        // H·W·P·S·taps·texel_bytes.
        let spec = WorkloadSpec::gen_nerf_default(100, 50, 6, 32);
        let expect = 100 * 50 * 32 * 6 * 4 * 12;
        assert_eq!(spec.nominal_gather_bytes(Stage::Focused), expect);
    }

    #[test]
    fn total_flops_in_paper_ballpark() {
        // Paper Sec. 5.1: the typical 800×800 / 64-point / 6-view
        // workload is 0.328 TFLOPs. Our smaller model lands in the same
        // order of magnitude (`gen-nerf-bench`'s `reproduce_all` prints
        // both; README "Layout of the reproduction harness").
        let spec = WorkloadSpec::gen_nerf_default(800, 800, 6, 64);
        let tflops = spec.total_flops() as f64 / 1e12;
        assert!((0.05..2.0).contains(&tflops), "total = {tflops} TFLOPs");
    }

    #[test]
    fn transformer_costs_more_than_mixer_per_ray() {
        let mixer = WorkloadSpec::gen_nerf_default(64, 64, 6, 64);
        let attn = WorkloadSpec::ibrnet_default(64, 64, 6, 64);
        assert!(attn.ray_macs(64) > mixer.ray_macs(64));
    }

    #[test]
    fn none_module_is_free() {
        let mut spec = WorkloadSpec::gen_nerf_default(64, 64, 6, 64);
        spec.ray_module = RayModuleKind::None;
        assert_eq!(spec.ray_macs(64), 0);
    }

    #[test]
    fn coarse_stage_has_no_ray_module() {
        let spec = WorkloadSpec::gen_nerf_default(64, 64, 6, 64);
        assert_eq!(spec.ray_macs_total(Stage::Coarse), 0);
    }

    #[test]
    fn macs_scale_with_resolution() {
        let small = WorkloadSpec::gen_nerf_default(100, 100, 6, 64);
        let large = WorkloadSpec::gen_nerf_default(200, 200, 6, 64);
        assert_eq!(large.total_macs(), 4 * small.total_macs());
    }

    #[test]
    fn mlp_macs_formula() {
        assert_eq!(mlp_macs(12, 64, 16), (26 * 64 + 64 * 64 + 64 * 19) as u64);
    }
}
