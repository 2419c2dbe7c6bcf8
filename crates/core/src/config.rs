//! Model and sampling configuration.

use serde::{Deserialize, Serialize};

/// Which cross-point ray module the model uses (Tab. 2's ablation
/// axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RayModuleChoice {
    /// Attention ray transformer (vanilla IBRNet).
    Transformer,
    /// The proposed Ray-Mixer (Sec. 3.3).
    Mixer,
    /// No cross-point module ("- ray transformer" row).
    None,
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Scene-feature channels per source view (`D`).
    pub d_features: usize,
    /// Point-MLP hidden width.
    pub hidden: usize,
    /// Density-feature width (`d_σ`, the ray module's token width).
    pub d_sigma: usize,
    /// Attention head width for the transformer variant.
    pub attn_head: usize,
    /// Maximum points per ray the Ray-Mixer is built for (`N_max`;
    /// shorter rays are padded, Sec. 3.2).
    pub n_max: usize,
    /// Coarse-stage hidden width (channel-scaled coarse MLP).
    pub coarse_hidden: usize,
    /// Coarse-stage feature channels (`⌈D · 0.25⌉` per the paper).
    pub coarse_channels: usize,
    /// Ray module variant.
    pub ray_module: RayModuleChoice,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl ModelConfig {
    /// The configuration used by the quality experiments: small enough
    /// to train and render in-process within seconds, structured
    /// exactly like the paper's model.
    pub fn fast() -> Self {
        Self {
            d_features: 12,
            hidden: 48,
            d_sigma: 16,
            attn_head: 8,
            n_max: 64,
            coarse_hidden: 16,
            coarse_channels: 3,
            ray_module: RayModuleChoice::Mixer,
            seed: 17,
        }
    }

    /// `fast()` with a different ray module.
    pub fn with_ray_module(mut self, m: RayModuleChoice) -> Self {
        self.ray_module = m;
        self
    }

    /// Point-MLP input width: mean + variance per channel, mean
    /// direction similarity, valid-view fraction.
    pub fn point_input_dim(&self) -> usize {
        2 * self.d_features + 2
    }

    /// Coarse-MLP input width.
    pub(crate) fn coarse_input_dim(&self) -> usize {
        2 * self.coarse_channels + 2
    }

    /// Point-MLP output width: density feature + RGB residual.
    pub fn point_output_dim(&self) -> usize {
        self.d_sigma + 3
    }

    /// MACs of one point-MLP evaluation.
    pub fn mlp_macs_per_point(&self) -> u64 {
        (self.point_input_dim() * self.hidden
            + self.hidden * self.hidden
            + self.hidden * self.point_output_dim()) as u64
    }

    /// MACs of one coarse-MLP evaluation.
    pub fn coarse_mlp_macs_per_point(&self) -> u64 {
        (self.coarse_input_dim() * self.coarse_hidden
            + self.coarse_hidden * self.coarse_hidden
            + self.coarse_hidden) as u64
    }

    /// Ray-module MACs for an `n`-point ray.
    pub fn ray_module_macs(&self, n: usize) -> u64 {
        let d = self.d_sigma;
        match self.ray_module {
            RayModuleChoice::Transformer => {
                let dk = self.attn_head;
                (2 * n * n * dk + 4 * n * d * dk + n * d) as u64
            }
            RayModuleChoice::Mixer => {
                // Zero-padded tokens contribute nothing to the token FC
                // (their features are zero), so the hardware only
                // computes the n×n block: cost is dynamic in `n`.
                (n * n * d + n * d * d + n * d) as u64
            }
            RayModuleChoice::None => (n * d) as u64,
        }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// A point-sampling strategy (Sec. 3.2 and baselines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// `n` uniform samples per ray.
    Uniform {
        /// Samples per ray.
        n: usize,
    },
    /// IBRNet/NeRF hierarchical sampling: `n_coarse` uniform samples
    /// with the full model, then `n_fine` importance samples; the union
    /// is composited. Every ray gets the same count.
    Hierarchical {
        /// Uniform samples in the first pass.
        n_coarse: usize,
        /// Importance samples in the second pass.
        n_fine: usize,
    },
    /// The proposed coarse-then-focus sampling: a lightweight coarse
    /// pass (`n_coarse` samples, `s_coarse` views, channel-scaled MLP)
    /// estimates hitting probabilities; focused samples are allocated
    /// *across* rays by `P(j) ∝ N^cr_j` with an image-wide budget of
    /// `n_focused` per ray on average.
    CoarseThenFocus {
        /// Coarse samples per ray (`N_c`).
        n_coarse: usize,
        /// Average focused samples per ray (`N_f`).
        n_focused: usize,
        /// Hitting-probability threshold `τ` for critical points.
        tau: f32,
        /// Source views used by the coarse pass (`S_c`).
        s_coarse: usize,
    },
}

impl SamplingStrategy {
    /// The paper's coarse-then-focus defaults (`τ = 0.01`,
    /// `S_c = 4`).
    pub fn coarse_then_focus(n_coarse: usize, n_focused: usize) -> Self {
        SamplingStrategy::CoarseThenFocus {
            n_coarse,
            n_focused,
            tau: 0.01,
            s_coarse: 4,
        }
    }

    /// Average sampled points per ray (the Fig. 9 x-axis): the per-ray
    /// reference schedule's tile weight.
    #[cfg(test)]
    pub(crate) fn avg_points_per_ray(&self) -> usize {
        match *self {
            SamplingStrategy::Uniform { n } => n,
            SamplingStrategy::Hierarchical { n_coarse, n_fine } => n_coarse + n_fine,
            SamplingStrategy::CoarseThenFocus {
                n_coarse,
                n_focused,
                ..
            } => n_coarse + n_focused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_config_dims_consistent() {
        let c = ModelConfig::fast();
        assert_eq!(c.point_input_dim(), 26);
        assert_eq!(c.point_output_dim(), 19);
        assert_eq!(c.coarse_input_dim(), 8);
    }

    #[test]
    fn mlp_macs_formula() {
        let c = ModelConfig::fast();
        let expect = (26 * 48 + 48 * 48 + 48 * 19) as u64;
        assert_eq!(c.mlp_macs_per_point(), expect);
    }

    #[test]
    fn transformer_macs_grow_quadratically() {
        let c = ModelConfig::fast().with_ray_module(RayModuleChoice::Transformer);
        // 2n²dk dominates but the linear projection term tempers the ratio.
        assert!(c.ray_module_macs(64) as f64 > 2.5 * c.ray_module_macs(32) as f64);
    }

    #[test]
    fn mixer_macs_dynamic_in_point_count() {
        // Zero-padding means only the n×n token-FC block is computed.
        let c = ModelConfig::fast();
        assert!(c.ray_module_macs(8) < c.ray_module_macs(64));
    }

    #[test]
    fn none_module_is_cheapest() {
        let base = ModelConfig::fast();
        let none = base.with_ray_module(RayModuleChoice::None);
        assert!(none.ray_module_macs(64) < base.ray_module_macs(64));
    }

    #[test]
    fn strategy_point_counts() {
        assert_eq!(SamplingStrategy::Uniform { n: 24 }.avg_points_per_ray(), 24);
        assert_eq!(
            SamplingStrategy::Hierarchical {
                n_coarse: 8,
                n_fine: 16
            }
            .avg_points_per_ray(),
            24
        );
        assert_eq!(
            SamplingStrategy::coarse_then_focus(8, 16).avg_points_per_ray(),
            24
        );
    }
}
