//! The generalizable NeRF model (Steps 3–4 of Sec. 2.2).
//!
//! [`GenNerfModel`] bundles:
//!
//! * the **point MLP** `f` mapping cross-view aggregation statistics to
//!   a density feature `f^σ` and an RGB residual,
//! * a **ray module** contextualizing density along the ray — the
//!   attention *ray transformer* baseline, the proposed *Ray-Mixer*
//!   (Sec. 3.3) or none (Tab. 2 row 3),
//! * a **blend head** producing per-source-view color weights
//!   (IBRNet-style image-based color prediction),
//! * a channel-scaled **coarse MLP** used only by the lightweight
//!   coarse sampling pass (Sec. 3.2, Step ①).
//!
//! Densities are predicted in `log1p` space: the model outputs
//! `z ≈ ln(1 + σ)`, decoded by `density_from_logit` in Step ①. The
//! full model's per-point epilogue — that decode, the blend softmax and
//! the `0.1·tanh` RGB residual — runs on the one shared definition of
//! `exp` / `0.1·tanh` in `gen_nerf_nn::kernels::special`, as vector passes
//! in the fused forward and one value at a time in the trainer (and in
//! the per-ray reference the unit tests hold the fused forward
//! against). All modules are trainable in-process ([`crate::trainer`]).

use crate::config::{ModelConfig, RayModuleChoice};
use crate::features::AggregateArena;
#[cfg(test)]
use crate::features::PointAggregate;
use gen_nerf_geometry::Vec3;
use gen_nerf_nn::attention::{AttnScratch, SelfAttention};
use gen_nerf_nn::init::Rng;
use gen_nerf_nn::kernels::chain::{dense_chain, lanes_mlp, ChainLayer, ChainScratch};
use gen_nerf_nn::kernels::{self, special};
use gen_nerf_nn::layers::{mse_loss, Linear, Param, Relu};
use gen_nerf_nn::mixer::{MixerScratch, RayMixer};
use gen_nerf_nn::Tensor2;
use serde::{Deserialize, Serialize};

/// Decodes a density logit: `σ = exp(z) − 1`, clamped to `[0, ∞)`
/// (a NaN logit decodes to `0.0`). libm's `exp`: the decode of Step ①'s
/// coarse pass, whose densities choose every focused sample.
pub(crate) fn density_from_logit(z: f32) -> f32 {
    sigma_from_exp(clamp_logit(z).exp())
}

/// [`density_from_logit`] through the shared [`special::exp`]: the
/// decode of the full model (Step ③), which the fused forward runs as
/// one vector pass per tile — one value at a time for the per-ray
/// reference.
#[cfg(test)]
fn focused_density(z: f32) -> f32 {
    sigma_from_exp(special::exp(clamp_logit(z)))
}

/// The density decode's input range: `z` clamped to `[−8, 8]`.
fn clamp_logit(z: f32) -> f32 {
    z.clamp(-8.0, 8.0)
}

/// `σ = max(eᶻ − 1, 0)` from `eᶻ` (a NaN gives `0.0`).
fn sigma_from_exp(e: f32) -> f32 {
    (e - 1.0).max(0.0)
}

/// The largest of one point's blend logits (NaNs skipped), which its
/// softmax subtracts before the `exp`.
fn softmax_max(logits: impl Iterator<Item = f32>) -> f32 {
    logits.fold(f32::NEG_INFINITY, f32::max)
}

/// One point's softmax numerators `exp(l − max l)`, one value at a time
/// — what the fused forward computes as one vector pass per tile.
fn softmax_numerators(logits: &[f32]) -> Vec<f32> {
    let max = softmax_max(logits.iter().copied());
    logits.iter().map(|&l| special::exp(l - max)).collect()
}

/// One point's view blend from its softmax numerators `weights` (one
/// per visible view, in view order) and those views' colours: the
/// weights are normalised in place (`w / Σw`, summed in order), then
/// weight the colours. Shared by the fused forward, the per-ray
/// reference and the trainer, so all three reduce in one order.
fn blend_views(weights: &mut [f32], colors: impl Iterator<Item = Vec3>) -> Vec3 {
    let total: f32 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);
    weights
        .iter()
        .zip(colors)
        .fold(Vec3::ZERO, |blended, (&w, c)| blended + c * w)
}

/// The RGB residual `0.1·tanh` of the point MLP's last three outputs.
fn residual(pre: &[f32]) -> Vec3 {
    let t = special::tenth_tanh;
    Vec3::new(t(pre[0]), t(pre[1]), t(pre[2]))
}

/// Encodes a ground-truth density as a training target:
/// `z = ln(1 + σ)`.
pub(crate) fn logit_from_density(sigma: f32) -> f32 {
    (sigma.max(0.0) + 1.0).ln()
}

/// A three-layer ReLU MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Mlp {
    l1: Linear,
    a1: Relu,
    l2: Linear,
    a2: Relu,
    l3: Linear,
}

impl Mlp {
    /// Creates `in_dim → hidden → hidden → out_dim`.
    pub(crate) fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self {
            l1: Linear::new(in_dim, hidden, rng),
            a1: Relu::new(),
            l2: Linear::new(hidden, hidden, rng),
            a2: Relu::new(),
            l3: Linear::new(hidden, out_dim, rng),
        }
    }

    /// Output width.
    pub(crate) fn out_dim(&self) -> usize {
        self.l3.out_dim()
    }

    /// Forward pass (caches for backward).
    pub(crate) fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let h1 = self.a1.forward(&self.l1.forward(x));
        let h2 = self.a2.forward(&self.l2.forward(&h1));
        self.l3.forward(&h2)
    }

    /// Forward pass without caching, one whole layer at a time: the
    /// per-ray reference's point and coarse MLP.
    #[cfg(test)]
    pub(crate) fn forward_inference(&self, x: &Tensor2) -> Tensor2 {
        let h1 = self.a1.forward_inference(&self.l1.forward_inference(x));
        let h2 = self.a2.forward_inference(&self.l2.forward_inference(&h1));
        self.l3.forward_inference(&h2)
    }

    /// Inference forward of the `m` rows of `x` (contiguous, `in_dim`
    /// wide) as one layer-fused [`dense_chain`]: all three layers run
    /// on a small row panel before the next panel is touched, bias and
    /// ReLU in the GEMM epilogue, so no whole-tile hidden activation
    /// exists. The `m × out_dim` result lands in `scratch.out`.
    /// Bit-identical to [`Mlp::forward_inference`] row for row (the
    /// chain's per-element op sequence is the layers'), allocating
    /// nothing once the scratch buffers have grown to size.
    pub(crate) fn forward_inference_into(&self, x: &[f32], m: usize, scratch: &mut MlpScratch) {
        let n = self.out_dim();
        scratch.out.resize(m * n, 0.0);
        dense_chain(
            x,
            m,
            &self.chain_layers(),
            &mut scratch.out,
            n,
            &mut scratch.chain,
        );
    }

    /// [`Mlp::forward_inference_into`] for a `2 → h → h → 1` MLP (the
    /// blend head, `h ≤ 8`) as one [`lanes_mlp`] call: a row per vector
    /// lane, every hidden activation in registers, bitwise the chain's
    /// output. The `m` outputs land in `scratch.out`.
    ///
    /// # Panics
    ///
    /// Panics when the MLP is not of that shape.
    pub(crate) fn forward_lanes_into(&self, x: &[f32], m: usize, scratch: &mut MlpScratch) {
        scratch.out.resize(m, 0.0);
        lanes_mlp(
            x,
            m,
            &self.chain_layers(),
            &mut scratch.out,
            &mut scratch.chain,
        );
    }

    /// The three layers as chain layers, ReLU on the hidden two.
    fn chain_layers(&self) -> [ChainLayer<'_>; 3] {
        [
            self.l1.chain_layer(true, false),
            self.l2.chain_layer(true, false),
            self.l3.chain_layer(false, false),
        ]
    }

    /// Backward pass; accumulates gradients, returns `∂L/∂x`.
    pub(crate) fn backward(&mut self, grad_out: &Tensor2) -> Tensor2 {
        let g2 = self.a2.backward(&self.l3.backward(grad_out));
        let g1 = self.a1.backward(&self.l2.backward(&g2));
        self.l1.backward(&g1)
    }

    /// Trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.l1.params_mut());
        out.extend(self.l2.params_mut());
        out.extend(self.l3.params_mut());
        out
    }

    /// Shared access to the three layers (used by INT8 re-execution).
    #[cfg(test)]
    pub(crate) fn layers(&self) -> (&Linear, &Linear, &Linear) {
        (&self.l1, &self.l2, &self.l3)
    }

    /// Direct access to the three layers (used by channel pruning).
    pub(crate) fn layers_mut(&mut self) -> (&mut Linear, &mut Linear, &mut Linear) {
        (&mut self.l1, &mut self.l2, &mut self.l3)
    }

    /// Replaces the three layers (used by channel pruning).
    pub(crate) fn replace_layers(&mut self, l1: Linear, l2: Linear, l3: Linear) {
        self.l1 = l1;
        self.l2 = l2;
        self.l3 = l3;
    }
}

/// The cross-point density module.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // one module lives per model; size is irrelevant
pub(crate) enum RayModule {
    /// Attention ray transformer + density projection.
    Transformer {
        /// Self-attention over the ray's density features.
        attn: SelfAttention,
        /// Projection from contextualized features to a density logit.
        proj: Linear,
    },
    /// The Ray-Mixer (projection built in, Eq. 5's `W₃`).
    Mixer(RayMixer),
    /// Per-point projection only.
    None {
        /// Density projection.
        proj: Linear,
    },
}

impl RayModule {
    fn new(cfg: &ModelConfig, rng: &mut Rng) -> Self {
        match cfg.ray_module {
            RayModuleChoice::Transformer => RayModule::Transformer {
                attn: SelfAttention::new(cfg.d_sigma, cfg.attn_head, rng),
                proj: Linear::new(cfg.d_sigma, 1, rng),
            },
            RayModuleChoice::Mixer => RayModule::Mixer(RayMixer::new(cfg.n_max, cfg.d_sigma, rng)),
            RayModuleChoice::None => RayModule::None {
                proj: Linear::new(cfg.d_sigma, 1, rng),
            },
        }
    }

    /// Density logits for an `n × d_σ` feature sequence. The mixer pads
    /// to its fixed `N_max` (paper Sec. 3.2); `n` must not exceed it.
    ///
    /// # Panics
    ///
    /// Panics when `n > N_max` for the mixer variant.
    pub(crate) fn forward(&mut self, f_sigma: &Tensor2) -> Tensor2 {
        let n = f_sigma.rows();
        match self {
            RayModule::Transformer { attn, proj } => {
                let y = attn.forward(f_sigma);
                proj.forward(&y)
            }
            RayModule::Mixer(mixer) => {
                let nm = mixer.n_points();
                assert!(n <= nm, "ray has {n} points, mixer supports {nm}");
                let padded = if n == nm {
                    f_sigma.clone()
                } else {
                    Tensor2::vstack(&[f_sigma.clone(), Tensor2::zeros(nm - n, f_sigma.cols())])
                };
                mixer.forward(&padded).slice_rows(0, n)
            }
            RayModule::None { proj } => proj.forward(f_sigma),
        }
    }

    /// Density logits through `&self` (no caching; inference only).
    ///
    /// The mixer variant runs its dynamic-`n` inference path (only the
    /// live `n × n` token block — no padding work), matching the
    /// dynamic cost `ModelConfig::ray_module_macs` accounts.
    ///
    /// # Panics
    ///
    /// Panics when `n > N_max` for the mixer variant.
    #[cfg(test)]
    pub(crate) fn forward_inference(&self, f_sigma: &Tensor2) -> Tensor2 {
        match self {
            RayModule::Transformer { attn, proj } => {
                let y = attn.forward_inference(f_sigma);
                proj.forward_inference(&y)
            }
            RayModule::Mixer(mixer) => mixer.forward_inference(f_sigma),
            RayModule::None { proj } => proj.forward_inference(f_sigma),
        }
    }

    /// Fused inference over every ray of a tile: ray `i` owns rows
    /// `ray_offsets[i]..ray_offsets[i + 1]` of the point-MLP output
    /// `y` (row stride `ldy`, the density features `f^σ` its first
    /// `d_sigma` columns), and every point's density logit lands in
    /// `scratch.logits`, one row per point in the same ray-major order
    /// (empty rays contribute no rows).
    ///
    /// Cross-point mixing never crosses rays, so only the per-ray
    /// phases run per ray (the mixer's `n × n` token mix, the
    /// transformer's softmax attention core); every row-independent
    /// phase runs once over the stacked tile. The Ray-Mixer reads `y`
    /// in place ([`RayMixer::forward_inference_stacked`]); the
    /// transformer and `None` variants copy the `f^σ` columns out
    /// first. Per-ray logits are bit-identical to
    /// [`RayModule::forward_inference`] on each ray's slice — the GEMM
    /// kernel's row-independence contract again.
    ///
    /// # Panics
    ///
    /// Panics when any ray exceeds `N_max` for the mixer variant.
    fn forward_inference_stacked(
        &self,
        y: &[f32],
        ldy: usize,
        d_sigma: usize,
        ray_offsets: &[usize],
        scratch: &mut RayModuleScratch,
    ) {
        let total = ray_offsets.last().copied().unwrap_or(0);
        scratch.logits.reset_zeroed(total, 1);
        if total == 0 {
            return;
        }
        let f_sigma_row = |k: usize| &y[k * ldy..k * ldy + d_sigma];
        match self {
            RayModule::Transformer { attn, proj } => {
                // The softmax attention core is intrinsically per-ray
                // (the very cost the Ray-Mixer exists to remove,
                // Sec. 3.3), but the q/k/v/o projections are
                // row-independent: batch them across the tile's rays
                // and chain the density projection as one more fused
                // GEMM over the stacked output. The per-ray slice
                // tensors reuse the scratch buffers across tiles.
                let f_sigma = &mut scratch.f_sigma;
                f_sigma.resize_with(f_sigma.len().max(ray_offsets.len() - 1), Tensor2::default);
                for (slice, ray) in f_sigma.iter_mut().zip(ray_offsets.windows(2)) {
                    slice.reset_zeroed(ray[1] - ray[0], d_sigma);
                    for (r, k) in (ray[0]..ray[1]).enumerate() {
                        slice.row_mut(r).copy_from_slice(f_sigma_row(k));
                    }
                }
                let refs: Vec<&Tensor2> = f_sigma[..ray_offsets.len() - 1]
                    .iter()
                    .filter(|t| t.rows() > 0)
                    .collect();
                attn.forward_inference_batch_into(&refs, &mut scratch.attn);
                proj.forward_into(&scratch.attn.out, &mut scratch.logits);
            }
            RayModule::Mixer(mixer) => mixer.forward_inference_stacked(
                y,
                ldy,
                ray_offsets,
                &mut scratch.mixer,
                scratch.logits.as_mut_slice(),
            ),
            RayModule::None { proj } => {
                // Stack the `f^σ` columns into the reusable scratch
                // tensor and project the whole tile in one GEMM.
                scratch.stacked.reset_zeroed(total, d_sigma);
                for k in 0..total {
                    scratch.stacked.row_mut(k).copy_from_slice(f_sigma_row(k));
                }
                proj.forward_into(&scratch.stacked, &mut scratch.logits);
            }
        }
    }

    /// Backward pass from per-point logit gradients; returns the
    /// gradient w.r.t. the input features.
    pub(crate) fn backward(&mut self, grad_logits: &Tensor2, n: usize) -> Tensor2 {
        match self {
            RayModule::Transformer { attn, proj } => {
                let g_y = proj.backward(grad_logits);
                attn.backward(&g_y)
            }
            RayModule::Mixer(mixer) => {
                let nm = mixer.n_points();
                let padded = if n == nm {
                    grad_logits.clone()
                } else {
                    Tensor2::vstack(&[grad_logits.clone(), Tensor2::zeros(nm - n, 1)])
                };
                mixer.backward(&padded).slice_rows(0, n)
            }
            RayModule::None { proj } => proj.backward(grad_logits),
        }
    }

    /// Trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            RayModule::Transformer { attn, proj } => {
                let mut p = attn.params_mut();
                p.extend(proj.params_mut());
                p
            }
            RayModule::Mixer(mixer) => mixer.params_mut(),
            RayModule::None { proj } => proj.params_mut(),
        }
    }
}

/// Reusable buffers for one `Mlp`'s fused inference forward: the
/// chain's two L1-sized hidden panels, the output, and — for the coarse
/// MLP — the tile's decoded densities.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    chain: ChainScratch,
    /// The `m × out_dim` output of the latest
    /// [`Mlp::forward_inference_into`], row-major.
    out: Vec<f32>,
    /// Coarse densities of the latest
    /// [`GenNerfModel::coarse_densities_arena`], flat and ray-major:
    /// ray `i`'s run is `arena.ray_range(i)`.
    densities: Vec<f32>,
}

#[cfg(test)]
impl MlpScratch {
    /// Bytes of heap the buffers retain.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.chain.capacity_bytes()
            + (self.out.capacity() + self.densities.capacity()) * std::mem::size_of::<f32>()
    }
}

/// Reusable buffers for the ray module's fused tile inference (the
/// attention temporaries and per-ray `f^σ` slices of the transformer
/// variant, the mixer's mixed features and chain panels, the `None`
/// variant's stacked projection input, and the logits of all three).
#[derive(Debug, Clone, Default)]
pub(crate) struct RayModuleScratch {
    /// Attention temporaries (transformer variant).
    attn: AttnScratch,
    /// Per-ray `f^σ` slices (transformer variant; buffers reused
    /// across tiles).
    f_sigma: Vec<Tensor2>,
    /// Stacked density logits of the tile.
    logits: Tensor2,
    /// Stacked `f^σ` rows (`None` variant).
    stacked: Tensor2,
    /// Mixed features and channel-phase panels (mixer variant).
    mixer: MixerScratch,
}

/// Tile-level buffers of the fused cross-ray forward
/// ([`GenNerfModel::forward_rays_arena`]). One instance per render
/// worker replaces the per-ray/per-point tensor allocations of a
/// per-ray program (three `Vec`s + a `Tensor2` per point for the blend
/// head alone) and holds the tile's outputs — densities and colours, flat
/// and ray-major — so the render pipeline composites from slices of
/// them instead of from two fresh `Vec`s per ray.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Point-MLP chain panels and output.
    mlp: MlpScratch,
    /// Blend-head output, one logit per (point, view) slot of the
    /// tile, compacted in place to the tile's blend softmaxes (one term
    /// per valid pair: arguments, numerators, weights); and the chain
    /// panels of an integrity-checked call.
    blend: MlpScratch,
    /// The RGB residuals of the tile, three per point.
    resid: Vec<f32>,
    /// Ray-module temporaries.
    ray_module: RayModuleScratch,
    /// The tile's densities, flat and ray-major (`arena.ray_range(i)`
    /// is ray `i`'s run).
    densities: Vec<f32>,
    /// The tile's colours, same layout.
    colors: Vec<Vec3>,
}

#[cfg(test)]
impl ForwardScratch {
    /// Bytes of heap the buffers retain.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        let ForwardScratch {
            mlp,
            blend,
            resid,
            ray_module,
            densities,
            colors,
        } = self;
        let RayModuleScratch {
            attn,
            f_sigma,
            logits,
            stacked,
            mixer,
        } = ray_module;
        mlp.capacity_bytes()
            + blend.capacity_bytes()
            + (resid.capacity() + densities.capacity()) * size_of::<f32>()
            + colors.capacity() * size_of::<Vec3>()
            + f_sigma.capacity() * size_of::<Tensor2>()
            + f_sigma.iter().map(Tensor2::capacity_bytes).sum::<usize>()
            + attn.capacity_bytes()
            + logits.capacity_bytes()
            + stacked.capacity_bytes()
            + mixer.capacity_bytes()
    }
}

/// Inference output for one ray.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RayOutput {
    /// Per-point densities (σ ≥ 0).
    pub densities: Vec<f32>,
    /// Per-point view-blended colors.
    pub colors: Vec<Vec3>,
}

/// Per-ray training losses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RayLosses {
    /// Density-logit MSE.
    pub sigma: f32,
    /// Masked color MSE.
    pub color: f32,
}

/// The full generalizable NeRF model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenNerfModel {
    /// Hyperparameters.
    pub config: ModelConfig,
    /// Point MLP `f` (stats → density feature + RGB residual).
    pub(crate) point_mlp: Mlp,
    /// Lightweight coarse MLP (coarse stats → density logit).
    pub(crate) coarse_mlp: Mlp,
    /// Per-view color blend head (`[dir_sim, deviation] → logit`).
    pub(crate) blend: Mlp,
    /// Cross-point density module.
    pub(crate) ray_module: RayModule,
}

impl GenNerfModel {
    /// Creates a model with seeded initialization.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = Rng::seed_from(config.seed);
        Self {
            point_mlp: Mlp::new(
                config.point_input_dim(),
                config.hidden,
                config.point_output_dim(),
                &mut rng,
            ),
            coarse_mlp: Mlp::new(config.coarse_input_dim(), config.coarse_hidden, 1, &mut rng),
            blend: Mlp::new(2, 8, 1, &mut rng),
            ray_module: RayModule::new(&config, &mut rng),
            config,
        }
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.point_mlp.params_mut();
        p.extend(self.coarse_mlp.params_mut());
        p.extend(self.blend.params_mut());
        p.extend(self.ray_module.params_mut());
        p
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Fused inference over every point of a tile of rays, straight off
    /// an [`AggregateArena`] — the software analog of the paper's PE
    /// pool amortizing the point-MLP GEMM across many rays' samples at
    /// once.
    ///
    /// Where a per-ray program issues one sub-16-row GEMM chain per ray
    /// plus one tiny blend GEMM per *point*, this path
    /// runs **one** layer-fused point-MLP chain over the arena's stats
    /// matrix (one row per point, ray-major — it **is** the GEMM
    /// operand, nothing is copied), the ray module over the stacked
    /// activations (per-ray phases per ray, row-independent phases
    /// once), and **one** blend-head call over all (point, view) slots
    /// of the tile.
    ///
    /// # Bit-exactness contract
    ///
    /// The output is **bit-for-bit identical** to the per-ray reference
    /// — one whole-layer GEMM chain per ray over each point's
    /// standalone aggregate, a program this crate keeps in its test
    /// build only — for any grouping of rays into arenas. The two are
    /// independent formulations: the per-ray reference composes whole
    /// layers (`matmul`, then bias,
    /// then ReLU; explicit transposes in the mixer), the fused path
    /// runs `gen_nerf_nn::kernels::chain`. They agree because the dense
    /// kernels of `gen-nerf-nn` accumulate every output element over
    /// the shared dimension `k` in ascending order with one `f32`
    /// accumulator (register blocking tiles `i`/`j` only) and apply a
    /// fused epilogue as the unfused element functions, making rows
    /// independent of which other rows, panels or strides share the
    /// batch; the blend head's lanes kernel repeats the GEMM's
    /// per-element op sequence; ray modules mix each ray's own points
    /// only; the epilogue's vector `exp` / `0.1·tanh` lanes are the
    /// scalar functions the reference calls, bit for bit; and the fused
    /// assembly replays the reference's per-point softmax reduction in
    /// the same order. This crate's unit tests pin the contract, and
    /// `tests/arena_regression.rs` pins a frame of it as literals.
    ///
    /// This is a thin adaptor over the flat outputs of
    /// `forward_arena_flat`, which the render pipeline reads directly:
    /// it copies each ray's run into a [`RayOutput`].
    ///
    /// # Panics
    ///
    /// Panics when the arena's stats width differs from the point-MLP
    /// input width (it was filled with the wrong channel count).
    pub fn forward_rays_arena(
        &self,
        arena: &AggregateArena,
        scratch: &mut ForwardScratch,
    ) -> Vec<RayOutput> {
        self.forward_fused(arena, scratch);
        (0..arena.n_rays())
            .map(|i| {
                let range = arena.ray_range(i);
                RayOutput {
                    densities: scratch.densities[range.clone()].to_vec(),
                    colors: scratch.colors[range].to_vec(),
                }
            })
            .collect()
    }

    /// [`GenNerfModel::forward_rays_arena`] without the per-ray
    /// copies: the tile's `(densities, colors)`, flat and ray-major —
    /// `arena.ray_range(i)` is ray `i`'s run of both — borrowed from
    /// the scratch until its next forward.
    pub(crate) fn forward_arena_flat<'s>(
        &self,
        arena: &AggregateArena,
        scratch: &'s mut ForwardScratch,
    ) -> (&'s [f32], &'s [Vec3]) {
        self.forward_fused(arena, scratch);
        (&scratch.densities, &scratch.colors)
    }

    /// The fused forward behind both entry points, leaving the tile's
    /// densities and colours in `scratch`.
    /// Four layer-fused kernel dispatches per tile with the Ray-Mixer,
    /// none of them materialising a whole-tile hidden activation:
    ///
    /// 1. the point MLP as one row-panel [`dense_chain`] over the arena
    ///    stats matrix in place ([`Mlp::forward_inference_into`]);
    /// 2. the ray module over the stacked output — the mixer's token
    ///    phase per ray **in place** on it (no `f^σ` copy, no
    ///    transposes, no grouping by length), then
    /// 3. its channel phase + density projection as one two-layer
    ///    chain ([`RayModule::forward_inference_stacked`]);
    /// 4. the blend head as one lanes call over every (point, view)
    ///    slot of the tile ([`Mlp::forward_lanes_into`]);
    ///
    /// then Step ③'s epilogue — the density decode, the RGB residual
    /// and the blend softmaxes' exponentials — as three vector passes
    /// of the [`special`] functions over the tile's flat buffers, and
    /// the per-point assembly in [`blend_views`]' reduction order. With
    /// integrity checking on, each layer of each dispatch is verified
    /// panel by panel inside the chain (see
    /// `gen_nerf_nn::kernels::chain`; a blend call with a verified
    /// layer runs as the chain).
    fn forward_fused(&self, points: &AggregateArena, scratch: &mut ForwardScratch) {
        let total = points.total_points();
        let ForwardScratch {
            mlp,
            blend,
            resid,
            ray_module,
            densities,
            colors,
        } = scratch;
        densities.clear();
        colors.clear();
        if total == 0 {
            return;
        }
        let d_sigma = self.config.d_sigma;
        assert_eq!(
            points.stats().cols(),
            self.config.point_input_dim(),
            "arena stats width is not the point-MLP input width"
        );

        // One point-MLP chain for the whole tile, reading the arena's
        // stats matrix directly.
        self.point_mlp
            .forward_inference_into(points.stats().as_slice(), total, mlp);
        let ldy = self.point_mlp.out_dim();
        let y = &mlp.out[..];

        // Ray module over the stacked activations: per-ray phases stay
        // per ray (mixing never crosses rays), the row-independent
        // phases run once for the whole tile.
        self.ray_module.forward_inference_stacked(
            y,
            ldy,
            d_sigma,
            points.ray_offsets(),
            ray_module,
        );
        let logits = ray_module.logits.as_slice();

        // One blend-head call over every (point, view) slot of the
        // tile, a slot per vector lane, reading the arena's blend-input
        // plane in place. A slot no view sees costs a lane and is never
        // read; skipping it would mean compacting the plane first.
        let slots = points.blend_inputs();
        self.blend
            .forward_lanes_into(slots.as_flattened(), slots.len(), blend);

        // Step ③'s epilogue as vector passes over the tile, each the
        // per-ray reference's scalar function lane for lane: the
        // density decode, the RGB residual, and the exponentials of
        // every blend softmax at once.
        let kernel = kernels::active();
        densities.extend(logits.iter().map(|&z| clamp_logit(z)));
        kernel.exp(densities);
        for (k, sigma) in densities.iter_mut().enumerate() {
            *sigma = if points.n_valid(k) == 0 {
                0.0
            } else {
                sigma_from_exp(*sigma)
            };
        }
        resid.clear();
        for k in 0..total {
            resid.extend_from_slice(&y[k * ldy + d_sigma..k * ldy + d_sigma + 3]);
        }
        kernel.tenth_tanh(resid);
        // The softmax arguments `l − max l` of every valid (point, view)
        // pair, compacted in place over the slot logits without a
        // branch: every slot is written, a visible one advances, and a
        // write never passes the slot being read.
        let n_views = points.n_views();
        let softmax = &mut blend.out;
        let mut pairs = 0;
        for k in 0..total {
            let valid = points.valid_row(k);
            let row = k * n_views;
            let logits = valid.iter().zip(&softmax[row..row + n_views]);
            let max = softmax_max(logits.filter(|v| *v.0).map(|v| *v.1));
            for (j, &ok) in valid.iter().enumerate() {
                softmax[pairs] = softmax[row + j] - max;
                pairs += usize::from(ok);
            }
        }
        let softmax = &mut softmax[..pairs];
        kernel.exp(softmax);

        // Per-point assembly: normalise each point's numerators, blend
        // its visible views, add the RGB residual.
        let mut pair = 0;
        for k in 0..total {
            let m = points.n_valid(k);
            if m == 0 {
                colors.push(Vec3::ZERO);
                continue;
            }
            let views = points.view_colors_row(k).iter().zip(points.valid_row(k));
            let visible = views.filter(|v| *v.1).map(|v| *v.0);
            let blended = blend_views(&mut softmax[pair..pair + m], visible);
            pair += m;
            let r = &resid[3 * k..3 * k + 3];
            colors.push((blended + Vec3::new(r[0], r[1], r[2])).clamp(0.0, 1.0));
        }
    }

    /// Coarse-pass density estimation straight off an
    /// [`AggregateArena`] (filled at `coarse_channels` against the
    /// coarse source subset): one layer-fused coarse-MLP chain over the
    /// arena's stats matrix **in place**, sliced back per ray. Bitwise
    /// equal to the per-ray reference (one whole-layer coarse-MLP chain
    /// per ray; test builds only) for any grouping of rays into arenas
    /// (the row-independence argument of
    /// [`GenNerfModel::forward_rays_arena`]). A thin adaptor over
    /// `coarse_densities_flat`, which the render pipeline reads
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics when the arena's stats width differs from the coarse-MLP
    /// input width.
    pub fn coarse_densities_arena(
        &self,
        arena: &AggregateArena,
        scratch: &mut MlpScratch,
    ) -> Vec<Vec<f32>> {
        let flat = self.coarse_densities_flat(arena, scratch);
        (0..arena.n_rays())
            .map(|r| flat[arena.ray_range(r)].to_vec())
            .collect()
    }

    /// [`GenNerfModel::coarse_densities_arena`] without the per-ray
    /// copies: the tile's coarse densities, flat and ray-major
    /// (`arena.ray_range(i)` is ray `i`'s run), borrowed from the
    /// scratch until its next forward.
    pub(crate) fn coarse_densities_flat<'s>(
        &self,
        arena: &AggregateArena,
        scratch: &'s mut MlpScratch,
    ) -> &'s [f32] {
        let total = arena.total_points();
        scratch.densities.clear();
        if total == 0 {
            return &scratch.densities;
        }
        assert_eq!(
            arena.stats().cols(),
            self.config.coarse_input_dim(),
            "arena stats width is not the coarse-MLP input width"
        );
        self.coarse_mlp
            .forward_inference_into(arena.stats().as_slice(), total, scratch);
        let MlpScratch { out, densities, .. } = scratch;
        densities.extend((0..total).map(|k| {
            if arena.n_valid(k) == 0 {
                0.0
            } else {
                density_from_logit(out[k])
            }
        }));
        densities
    }

    /// One training step's forward+backward for ray `ray` of a step
    /// arena (the trainer acquires a whole step into one): supervises
    /// density logits everywhere and blended colors at points where
    /// `color_mask[k]` holds. Gradients accumulate into the parameters;
    /// the caller runs the optimizer.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the ray's point count.
    pub(crate) fn train_ray_arena(
        &mut self,
        arena: &AggregateArena,
        ray: usize,
        gt_logits: &[f32],
        gt_colors: &[Vec3],
        color_mask: &[bool],
    ) -> RayLosses {
        let aggs = arena.ray_view(ray);
        let n = aggs.n_points();
        assert_eq!(n, gt_logits.len(), "target length mismatch");
        assert_eq!(n, gt_colors.len(), "target length mismatch");
        assert_eq!(n, color_mask.len(), "target length mismatch");
        let d_sigma = self.config.d_sigma;

        // Forward.
        let x = Tensor2::from_fn(n, self.config.point_input_dim(), |r, c| {
            aggs.stats_row(r)[c]
        });
        let y = self.point_mlp.forward(&x);
        let f_sigma = Tensor2::from_fn(n, d_sigma, |r, c| y[(r, c)]);
        let logits = self.ray_module.forward(&f_sigma);
        let target = Tensor2::from_fn(n, 1, |r, _| gt_logits[r]);
        let (sigma_loss, g_logits) = mse_loss(&logits, &target);

        // Density path backward.
        let g_fsigma = self.ray_module.backward(&g_logits, n);

        // Color path: blend + residual at masked points.
        let mut g_y = Tensor2::zeros(n, self.config.point_output_dim());
        for r in 0..n {
            for c in 0..d_sigma {
                g_y[(r, c)] = g_fsigma[(r, c)];
            }
        }
        let mut color_loss = 0.0f32;
        let mut color_count = 0usize;
        for k in 0..n {
            if !color_mask[k] || aggs.n_valid(k) == 0 {
                continue;
            }
            let (loss, g_resid) = self.train_point_color(
                aggs.valid_row(k),
                aggs.blend_inputs_row(k),
                aggs.view_colors_row(k),
                gt_colors[k],
                &y,
                k,
                d_sigma,
            );
            color_loss += loss;
            color_count += 1;
            for c in 0..3 {
                g_y[(k, d_sigma + c)] += g_resid[c];
            }
        }
        if color_count > 0 {
            color_loss /= color_count as f32;
        }

        self.point_mlp.backward(&g_y);
        RayLosses {
            sigma: sigma_loss,
            color: color_loss,
        }
    }

    /// Color loss + backward for one point; returns
    /// `(loss, ∂L/∂resid_pre_tanh)`.
    #[allow(clippy::too_many_arguments)] // one point's SoA rows, spelled out
    fn train_point_color(
        &mut self,
        valid: &[bool],
        blend_inputs: &[[f32; 2]],
        view_colors: &[Vec3],
        gt: Vec3,
        y: &Tensor2,
        k: usize,
        d_sigma: usize,
    ) -> (f32, [f32; 3]) {
        let valid_idx: Vec<usize> = (0..valid.len()).filter(|&i| valid[i]).collect();
        let input = Tensor2::from_fn(valid_idx.len(), 2, |r, c| blend_inputs[valid_idx[r]][c]);
        // The forward the model is evaluated with: the fused forward's
        // softmax and the shared special functions.
        let logits = self.blend.forward(&input);
        let mut s = softmax_numerators(logits.as_slice());
        let blended = blend_views(&mut s, valid_idx.iter().map(|&i| view_colors[i]));
        let resid = residual(&y.row(k)[d_sigma..]);
        let out = blended + resid;
        let diff = out - gt;
        let loss = diff.length_squared() / 3.0;
        let g_out = diff * (2.0 / 3.0);

        // Blend-logit gradients: dL/dl_i = s_i (c_i − blended)·g_out.
        let g_logits = Tensor2::from_fn(valid_idx.len(), 1, |r, _| {
            s[r] * (view_colors[valid_idx[r]] - blended).dot(g_out)
        });
        self.blend.backward(&g_logits);

        // Residual gradients through r = 0.1·tanh p:
        // dr/dp = 0.1·(1 − tanh² p) = 0.1 − 10·r².
        let r = [resid.x, resid.y, resid.z];
        let g = [g_out.x, g_out.y, g_out.z];
        let g_resid = [0, 1, 2].map(|c| g[c] * (0.1 - 10.0 * r[c] * r[c]));
        (loss, g_resid)
    }

    /// Coarse-MLP training step on ray `ray` of a coarse step arena.
    pub(crate) fn train_coarse_arena(
        &mut self,
        arena: &AggregateArena,
        ray: usize,
        gt_logits: &[f32],
    ) -> f32 {
        let aggs = arena.ray_view(ray);
        let n = aggs.n_points();
        assert_eq!(n, gt_logits.len(), "target length mismatch");
        if n == 0 {
            return 0.0;
        }
        let x = Tensor2::from_fn(n, self.config.coarse_input_dim(), |r, c| {
            aggs.stats_row(r)[c]
        });
        let z = self.coarse_mlp.forward(&x);
        let target = Tensor2::from_fn(n, 1, |r, _| gt_logits[r]);
        let (loss, g) = mse_loss(&z, &target);
        self.coarse_mlp.backward(&g);
        loss
    }
}

/// The per-ray reference (test builds only): one whole-layer GEMM
/// chain per ray over standalone [`PointAggregate`]s and one blend-head
/// call per point — the program the fused forward replaced, kept as the
/// yardstick the unit tests hold [`GenNerfModel::forward_rays_arena`]
/// and [`GenNerfModel::coarse_densities_arena`] against, bit for bit.
#[cfg(test)]
impl GenNerfModel {
    /// The stats rows of a reference ray, truncated to `dim` columns.
    fn stats_tensor(aggs: &[PointAggregate], dim: usize) -> Tensor2 {
        Tensor2::from_fn(aggs.len(), dim, |r, c| aggs[r].stats[c])
    }

    /// Full-model inference over the points of one ray. Points seen by
    /// no source view get zero density and color.
    pub(crate) fn forward_ray(&self, aggs: &[PointAggregate]) -> RayOutput {
        if aggs.is_empty() {
            return RayOutput {
                densities: Vec::new(),
                colors: Vec::new(),
            };
        }
        let n = aggs.len();
        let d_sigma = self.config.d_sigma;
        let x = Self::stats_tensor(aggs, self.config.point_input_dim());
        let y = self.point_mlp.forward_inference(&x);
        let f_sigma = Tensor2::from_fn(n, d_sigma, |r, c| y[(r, c)]);
        let logits = self.ray_module.forward_inference(&f_sigma);

        let mut densities = Vec::with_capacity(n);
        let mut colors = Vec::with_capacity(n);
        for (k, agg) in aggs.iter().enumerate() {
            if agg.n_valid == 0 {
                densities.push(0.0);
                colors.push(Vec3::ZERO);
                continue;
            }
            densities.push(focused_density(logits[(k, 0)]));
            let resid = residual(&y.row(k)[d_sigma..]);
            colors.push((self.blend_color(agg) + resid).clamp(0.0, 1.0));
        }
        RayOutput { densities, colors }
    }

    /// Blends source colors with softmax weights from the blend head.
    fn blend_color(&self, agg: &PointAggregate) -> Vec3 {
        let valid_idx: Vec<usize> = (0..agg.valid.len()).filter(|&i| agg.valid[i]).collect();
        if valid_idx.is_empty() {
            return Vec3::ZERO;
        }
        let input = Tensor2::from_fn(valid_idx.len(), 2, |r, c| agg.blend_inputs[valid_idx[r]][c]);
        let logits = self.blend.forward_inference(&input);
        let mut weights = softmax_numerators(logits.as_slice());
        blend_views(&mut weights, valid_idx.iter().map(|&i| agg.view_colors[i]))
    }

    /// Coarse-pass density estimation (lightweight MLP, no ray module).
    pub(crate) fn coarse_densities(&self, aggs: &[PointAggregate]) -> Vec<f32> {
        if aggs.is_empty() {
            return Vec::new();
        }
        let x = Self::stats_tensor(aggs, self.config.coarse_input_dim());
        let z = self.coarse_mlp.forward_inference(&x);
        aggs.iter()
            .enumerate()
            .map(|(k, agg)| {
                if agg.n_valid == 0 {
                    0.0
                } else {
                    density_from_logit(z[(k, 0)])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{aggregate_point, aggregate_ray_into, prepare_sources};
    use gen_nerf_nn::optim::Adam;
    use gen_nerf_scene::datasets::{Dataset, DatasetKind};

    fn tiny_setup() -> (Dataset, Vec<crate::features::SourceViewData>) {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
        let sources = prepare_sources(&ds.source_views);
        (ds, sources)
    }

    fn ray_aggs(
        ds: &Dataset,
        sources: &[crate::features::SourceViewData],
        n: usize,
    ) -> (Vec<PointAggregate>, Vec<f32>, Vec<Vec3>) {
        let cam = &ds.eval_views[0].camera;
        let ray = cam.pixel_center_ray(cam.intrinsics.width / 2, cam.intrinsics.height / 2);
        let (t0, t1) = ds.scene.bounds.intersect_ray(&ray).unwrap();
        let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, n);
        let mut aggs = Vec::new();
        let mut gt_z = Vec::new();
        let mut gt_c = Vec::new();
        for &t in &depths {
            let p = ray.at(t);
            aggs.push(aggregate_point(p, ray.direction, sources, 12));
            gt_z.push(logit_from_density(ds.scene.density(p)));
            gt_c.push(ds.scene.color(p, ray.direction));
        }
        (aggs, gt_z, gt_c)
    }

    /// [`ray_aggs`] as the one ray of a step arena — what training
    /// consumes.
    fn ray_arena(
        ds: &Dataset,
        sources: &[crate::features::SourceViewData],
        n: usize,
    ) -> (AggregateArena, Vec<f32>, Vec<Vec3>) {
        let cam = &ds.eval_views[0].camera;
        let ray = cam.pixel_center_ray(cam.intrinsics.width / 2, cam.intrinsics.height / 2);
        let (t0, t1) = ds.scene.bounds.intersect_ray(&ray).unwrap();
        let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, n);
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 12);
        aggregate_ray_into(&ray, &depths, sources, 12, &mut arena);
        let (_, gt_z, gt_c) = ray_aggs(ds, sources, n);
        (arena, gt_z, gt_c)
    }

    #[test]
    fn density_logit_roundtrip() {
        for sigma in [0.0f32, 0.5, 3.0, 40.0] {
            let z = logit_from_density(sigma);
            let back = density_from_logit(z);
            assert!(
                (back - sigma).abs() < sigma * 0.01 + 1e-4,
                "{sigma} -> {back}"
            );
        }
    }

    #[test]
    fn forward_ray_shapes() {
        let (ds, sources) = tiny_setup();
        let model = GenNerfModel::new(ModelConfig::fast());
        let (aggs, _, _) = ray_aggs(&ds, &sources, 12);
        let out = model.forward_ray(&aggs);
        assert_eq!(out.densities.len(), 12);
        assert_eq!(out.colors.len(), 12);
        assert!(out.densities.iter().all(|&d| d >= 0.0 && d.is_finite()));
        for c in &out.colors {
            assert!(c.x >= 0.0 && c.x <= 1.0);
        }
    }

    /// A test ray: its points and the direction they are observed
    /// along.
    type TestRay = (Vec<Vec3>, Vec3);

    /// One tile mixing every kind of ray the schedule produces — empty,
    /// a single point, lengths off and on the kernels' tile edges, a
    /// full N_max ray, rays through other pixels, a ray no source view
    /// sees at all — and, in every ray of the centre pixel longer than
    /// one point, a point no source view sees (`n_valid == 0`) in
    /// second place.
    fn mixed_tile(ds: &Dataset) -> Vec<TestRay> {
        let cam = &ds.eval_views[0].camera;
        let sampled = |px: u32, py: u32, n: usize| -> TestRay {
            let ray = cam.pixel_center_ray(px, py);
            let (t0, t1) = ds.scene.bounds.intersect_ray(&ray).unwrap();
            let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, n.max(1));
            (
                depths[..n].iter().map(|&t| ray.at(t)).collect(),
                ray.direction,
            )
        };
        let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
        let mut rays: Vec<TestRay> = [12usize, 0, 1, 5, 8, 13, 64]
            .into_iter()
            .map(|n| {
                let (mut pts, dir) = sampled(w / 2, h / 2, n);
                if n > 1 {
                    pts[1] = Vec3::new(1000.0, 0.0, 0.0);
                }
                (pts, dir)
            })
            .collect();
        for (px, py, n) in [(8, 10, 7), (10, 12, 9), (14, 11, 17), (12, 8, 1)] {
            rays.push(sampled(px, py, n));
        }
        rays.push((vec![Vec3::new(900.0, 0.0, 0.0); 3], Vec3::X));
        rays
    }

    /// `rays` through the arena at `d` channels, with the same points
    /// acquired one by one for the per-ray reference.
    fn tile_arena(
        rays: &[TestRay],
        sources: &[crate::features::SourceViewData],
        d: usize,
    ) -> (AggregateArena, Vec<Vec<PointAggregate>>) {
        use crate::features::aggregate_points_into;
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), d);
        let mut reference = Vec::new();
        for (pts, dir) in rays {
            aggregate_points_into(pts, &vec![*dir; pts.len()], sources, d, &mut arena);
            reference.push(
                pts.iter()
                    .map(|&p| aggregate_point(p, *dir, sources, d))
                    .collect(),
            );
        }
        (arena, reference)
    }

    /// The arenas the tests cut `n` rays into, over three cuttings:
    /// one arena, two unequal ones, and one per ray — the reference is
    /// the same ray by ray, so the fused outputs must not notice.
    fn groupings(n: usize) -> Vec<std::ops::Range<usize>> {
        let cuts: [Vec<usize>; 3] = [vec![0, n], vec![0, n / 3, n], (0..=n).collect()];
        cuts.iter()
            .flat_map(|cut| cut.windows(2).map(|w| w[0]..w[1]))
            .collect()
    }

    /// The fused forward of `arena` against the per-ray program over
    /// the per-point fill (neither side of the comparison touches the
    /// other's code), bit for bit — a NaN matching any NaN, since
    /// neither IEEE nor the compiler fixes which NaN an operation on
    /// two of them returns. Returns the fused outputs.
    fn assert_fused_matches_per_ray(
        model: &GenNerfModel,
        arena: &AggregateArena,
        reference: &[Vec<PointAggregate>],
        what: &str,
    ) -> Vec<RayOutput> {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let fused = model.forward_rays_arena(arena, &mut ForwardScratch::default());
        assert_eq!(fused.len(), reference.len());
        for (r, out) in fused.iter().enumerate() {
            let per_ray = model.forward_ray(&reference[r]);
            assert_eq!(out.densities.len(), per_ray.densities.len());
            for (k, (&a, &b)) in out.densities.iter().zip(&per_ray.densities).enumerate() {
                assert!(same(a, b), "{what}: ray {r} point {k} density {a} vs {b}");
            }
            for (k, (a, b)) in out.colors.iter().zip(&per_ray.colors).enumerate() {
                let pairs = a.to_array().into_iter().zip(b.to_array());
                assert!(
                    pairs.into_iter().all(|(a, b)| same(a, b)),
                    "{what}: ray {r} point {k} colour {a:?} vs {b:?}"
                );
            }
        }
        fused
    }

    #[test]
    fn forward_rays_arena_matches_forward_ray_bitwise() {
        let (ds, sources) = tiny_setup();
        let rays = mixed_tile(&ds);
        for choice in [
            RayModuleChoice::Mixer,
            RayModuleChoice::Transformer,
            RayModuleChoice::None,
        ] {
            let model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
            for group in groupings(rays.len()) {
                let (arena, reference) = tile_arena(&rays[group.clone()], &sources, 12);
                let what = format!("{choice:?}, rays {group:?}");
                let fused = assert_fused_matches_per_ray(&model, &arena, &reference, &what);
                // Finite throughout, so the NaN clause never applied.
                let finite = |o: &RayOutput| {
                    o.densities.iter().all(|d| d.is_finite())
                        && o.colors
                            .iter()
                            .all(|c| c.to_array().iter().all(|v| v.is_finite()))
                };
                assert!(fused.iter().all(finite), "{what}");
            }
        }
    }

    #[test]
    fn non_finite_logits_give_the_same_outputs_fused_and_per_ray() {
        let (ds, sources) = tiny_setup();
        let (arena, reference) = tile_arena(&mixed_tile(&ds), &sources, 12);
        assert!((0..arena.total_points()).any(|k| arena.n_valid(k) == 0));

        // A NaN density logit decodes to 0.0 on both paths, as it did
        // when the decode was libm's.
        assert_eq!(density_from_logit(f32::NAN).to_bits(), 0);
        assert_eq!(focused_density(f32::NAN).to_bits(), 0);
        let mut model =
            GenNerfModel::new(ModelConfig::fast().with_ray_module(RayModuleChoice::None));
        let RayModule::None { proj } = &mut model.ray_module else {
            unreachable!("the None variant was asked for");
        };
        proj.b.value = Tensor2::full(1, 1, f32::NAN);
        let fused = assert_fused_matches_per_ray(&model, &arena, &reference, "NaN density logit");
        assert!(fused
            .iter()
            .flat_map(|o| &o.densities)
            .all(|d| d.to_bits() == 0));

        // Blend logits NaN, +∞ or −∞ at every pair, and a mix of NaN
        // (0·∞) and +∞ across pairs.
        for (w, b) in [
            (None, f32::NAN),
            (None, f32::INFINITY),
            (None, f32::NEG_INFINITY),
            (Some(f32::INFINITY), 0.0),
        ] {
            let mut model = GenNerfModel::new(ModelConfig::fast());
            let (_, _, out) = model.blend.layers_mut();
            out.b.value = Tensor2::full(1, 1, b);
            if let Some(w) = w {
                out.w.value[(0, 0)] = w;
            }
            let what = format!("blend output weight {w:?}, bias {b}");
            assert_fused_matches_per_ray(&model, &arena, &reference, &what);
        }
    }

    #[test]
    fn coarse_densities_arena_matches_batch_bitwise() {
        // Step ①'s forward against the per-ray coarse MLP, over the
        // coarse source subset and over every source, for every
        // grouping of the mixed tile into arenas.
        let (ds, sources) = tiny_setup();
        let model = GenNerfModel::new(ModelConfig::fast());
        let rays = mixed_tile(&ds);
        let mut scratch = MlpScratch::default();
        for views in [&sources[..3], &sources[..]] {
            for group in groupings(rays.len()) {
                let (arena, reference) = tile_arena(&rays[group.clone()], views, 3);
                let fused = model.coarse_densities_arena(&arena, &mut scratch);
                assert_eq!(fused.len(), reference.len());
                for (r, out) in fused.iter().enumerate() {
                    let per_ray = model.coarse_densities(&reference[r]);
                    let fb: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    let pb: Vec<u32> = per_ray.iter().map(|v| v.to_bits()).collect();
                    let what = format!("{} views, rays {group:?}, ray {r}", views.len());
                    assert_eq!(fb, pb, "{what}");
                }
            }
        }
    }

    #[test]
    fn forward_rays_of_nothing_is_empty() {
        use crate::features::aggregate_points_into;
        let (_, sources) = tiny_setup();
        let model = GenNerfModel::new(ModelConfig::fast());
        let mut scratch = ForwardScratch::default();
        let mut arena = AggregateArena::default();
        assert!(model.forward_rays_arena(&arena, &mut scratch).is_empty());
        arena.reset(sources.len(), 12);
        for _ in 0..2 {
            aggregate_points_into(&[], &[], &sources, 12, &mut arena);
        }
        let out = model.forward_rays_arena(&arena, &mut scratch);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.densities.is_empty()));
    }

    #[test]
    fn empty_ray_is_empty() {
        let model = GenNerfModel::new(ModelConfig::fast());
        let out = model.forward_ray(&[]);
        assert!(out.densities.is_empty());
    }

    #[test]
    fn invisible_points_get_zero_density() {
        let (_, sources) = tiny_setup();
        let model = GenNerfModel::new(ModelConfig::fast());
        let agg = aggregate_point(Vec3::new(1000.0, 0.0, 0.0), Vec3::X, &sources, 12);
        let out = model.forward_ray(&[agg]);
        assert_eq!(out.densities[0], 0.0);
        assert_eq!(out.colors[0], Vec3::ZERO);
    }

    #[test]
    fn train_ray_reduces_sigma_loss() {
        let (ds, sources) = tiny_setup();
        for choice in [
            RayModuleChoice::Mixer,
            RayModuleChoice::Transformer,
            RayModuleChoice::None,
        ] {
            let mut model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
            let (arena, gt_z, gt_c) = ray_arena(&ds, &sources, 16);
            let mask: Vec<bool> = gt_z.iter().map(|&z| z > 0.3).collect();
            let mut adam = Adam::new(3e-3);
            let first = model.train_ray_arena(&arena, 0, &gt_z, &gt_c, &mask).sigma;
            model.zero_grad();
            let mut last = first;
            for _ in 0..80 {
                model.zero_grad();
                last = model.train_ray_arena(&arena, 0, &gt_z, &gt_c, &mask).sigma;
                adam.step(&mut model.params_mut());
            }
            assert!(
                last < first * 0.5,
                "{choice:?}: sigma loss {first} -> {last}"
            );
        }
    }

    #[test]
    fn train_ray_reduces_color_loss() {
        let (ds, sources) = tiny_setup();
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let (arena, gt_z, gt_c) = ray_arena(&ds, &sources, 16);
        let mask = vec![true; gt_z.len()];
        let mut adam = Adam::new(3e-3);
        let first = model.train_ray_arena(&arena, 0, &gt_z, &gt_c, &mask).color;
        for _ in 0..60 {
            model.zero_grad();
            model.train_ray_arena(&arena, 0, &gt_z, &gt_c, &mask);
            adam.step(&mut model.params_mut());
        }
        model.zero_grad();
        let last = model.train_ray_arena(&arena, 0, &gt_z, &gt_c, &mask).color;
        assert!(last <= first, "color loss {first} -> {last}");
    }

    #[test]
    fn coarse_training_reduces_loss() {
        let (ds, sources) = tiny_setup();
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let cam = &ds.eval_views[0].camera;
        let ray = cam.pixel_center_ray(cam.intrinsics.width / 2, cam.intrinsics.height / 2);
        let (t0, t1) = ds.scene.bounds.intersect_ray(&ray).unwrap();
        let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, 12);
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 3);
        aggregate_ray_into(&ray, &depths, &sources, 3, &mut arena);
        let gt: Vec<f32> = depths
            .iter()
            .map(|&t| logit_from_density(ds.scene.density(ray.at(t))))
            .collect();
        let mut adam = Adam::new(5e-3);
        let first = model.train_coarse_arena(&arena, 0, &gt);
        let mut last = first;
        for _ in 0..100 {
            model.zero_grad();
            last = model.train_coarse_arena(&arena, 0, &gt);
            adam.step(&mut model.params_mut());
        }
        assert!(last < first * 0.7, "coarse loss {first} -> {last}");
    }

    #[test]
    fn coarse_densities_nonnegative() {
        // Coarse aggregates carry 8-wide stats (3 channels).
        let (ds, sources) = tiny_setup();
        let model = GenNerfModel::new(ModelConfig::fast());
        let cam = &ds.eval_views[0].camera;
        let ray = cam.pixel_center_ray(2, 2);
        let aggs3: Vec<_> = [2.0f32, 3.0, 4.0]
            .iter()
            .map(|&t| aggregate_point(ray.at(t), ray.direction, &sources, 3))
            .collect();
        let d = model.coarse_densities(&aggs3);
        assert!(d.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn mixer_rejects_overlong_rays() {
        let mut cfg = ModelConfig::fast();
        cfg.n_max = 4;
        let model = GenNerfModel::new(cfg);
        let (ds, sources) = tiny_setup();
        let (aggs, _, _) = ray_aggs(&ds, &sources, 8);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.forward_ray(&aggs)));
        assert!(result.is_err());
    }

    #[test]
    fn models_with_same_seed_identical() {
        let a = GenNerfModel::new(ModelConfig::fast());
        let b = GenNerfModel::new(ModelConfig::fast());
        let (ds, sources) = tiny_setup();
        let (aggs, _, _) = ray_aggs(&ds, &sources, 6);
        let oa = a.forward_ray(&aggs);
        let ob = b.forward_ray(&aggs);
        assert_eq!(oa, ob);
    }
}
