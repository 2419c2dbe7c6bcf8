//! In-process training.
//!
//! The paper trains for 250 K Adam steps on large multi-dataset
//! corpora; we substitute short in-process training against analytic
//! scenes, where per-point ground-truth density and color are exact
//! (DESIGN.md §2). Two entry points mirror the paper's protocols:
//!
//! * [`Trainer::pretrain`] — cross-scene training over several
//!   datasets (the generalizable setting),
//! * [`Trainer::finetune`] — per-scene finetuning on one dataset
//!   (Tab. 3's setting; supervision comes from the scene's analytic
//!   fields rather than held-in photographs — documented substitution).

use crate::features::{
    aggregate_ray_into, assert_channels, prepare_sources, AggregateArena, SourceViewData,
};
use crate::model::{logit_from_density, GenNerfModel};
use gen_nerf_geometry::{Camera, Ray, Vec3};
use gen_nerf_nn::init::Rng;
use gen_nerf_nn::optim::Adam;
use gen_nerf_scene::Dataset;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Pretraining steps.
    pub steps: usize,
    /// Finetuning steps.
    pub finetune_steps: usize,
    /// Adam learning rate (paper: 5e-4 with exponential decay; we use
    /// a larger rate for the much shorter schedule).
    pub lr: f32,
    /// Per-step exponential LR decay.
    pub lr_decay: f32,
    /// Rays per step.
    pub rays_per_step: usize,
    /// Maximum training samples per ray (each ray draws a length in
    /// `[8, n_points]` so the Ray-Mixer's token weights are trained at
    /// every length it will see at inference).
    pub n_points: usize,
    /// Density threshold above which a point's color is supervised.
    pub color_threshold: f32,
    /// Sampling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// A schedule that trains a usable model in a few seconds.
    pub fn fast() -> Self {
        Self {
            steps: 400,
            finetune_steps: 150,
            lr: 4e-3,
            lr_decay: 0.999,
            rays_per_step: 4,
            n_points: 64,
            color_threshold: 0.5,
            seed: 23,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean density-logit loss over the first 10% of steps.
    pub initial_sigma_loss: f32,
    /// Mean density-logit loss over the last 10% of steps.
    pub final_sigma_loss: f32,
    /// Mean color loss over the last 10% of steps.
    pub final_color_loss: f32,
    /// Steps executed.
    pub steps: usize,
}

/// The training driver.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: TrainConfig,
    rng: Rng,
    /// Step arena for full-model acquisition (one sealed ray per
    /// training ray), reused across every step of a run — steady-state
    /// training acquisition performs zero heap allocations.
    full_arena: AggregateArena,
    /// Step arena for the channel-scaled coarse-pass acquisition.
    coarse_arena: AggregateArena,
}

struct PreparedDataset<'a> {
    dataset: &'a Dataset,
    sources: Vec<SourceViewData>,
    cameras: Vec<Camera>,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            rng: Rng::seed_from(cfg.seed),
            cfg,
            full_arena: AggregateArena::default(),
            coarse_arena: AggregateArena::default(),
        }
    }

    /// Cross-scene pretraining.
    ///
    /// # Panics
    ///
    /// Panics when `datasets` is empty.
    pub fn pretrain(&mut self, model: &mut GenNerfModel, datasets: &[&Dataset]) -> TrainReport {
        self.train(model, datasets, self.cfg.steps)
    }

    /// Per-scene finetuning.
    pub fn finetune(&mut self, model: &mut GenNerfModel, dataset: &Dataset) -> TrainReport {
        self.train(model, &[dataset], self.cfg.finetune_steps)
    }

    fn train(
        &mut self,
        model: &mut GenNerfModel,
        datasets: &[&Dataset],
        steps: usize,
    ) -> TrainReport {
        assert!(!datasets.is_empty(), "need at least one training dataset");
        let prepared: Vec<PreparedDataset> = datasets
            .iter()
            .map(|ds| {
                let mut cameras: Vec<Camera> = ds.source_views.iter().map(|v| v.camera).collect();
                cameras.extend(ds.eval_views.iter().map(|v| v.camera));
                let sources = prepare_sources(&ds.source_views);
                assert_channels(&sources, model.config.d_features, "Trainer");
                assert_channels(
                    &sources,
                    model.config.coarse_channels,
                    "Trainer coarse pass",
                );
                PreparedDataset {
                    dataset: ds,
                    sources,
                    cameras,
                }
            })
            .collect();

        let mut adam = Adam::new(self.cfg.lr).with_decay(self.cfg.lr_decay);
        let mut sigma_losses = Vec::with_capacity(steps);
        let mut color_losses = Vec::with_capacity(steps);
        for step in 0..steps {
            let pd = &prepared[step % prepared.len()];
            model.zero_grad();

            // Sample the step's rays first (sequential — this is the
            // only RNG consumer, and the draw order matches the old
            // ray-at-a-time loop exactly, keeping training streams
            // bit-compatible), then acquire every ray's features into
            // the persistent step arenas — full and coarse-pass
            // aggregation side by side, zero heap allocations once the
            // arenas have grown. Acquisition is RNG-free and fills in
            // (ray, depth) order, so training stays bit-identical to
            // the per-ray AoS acquisition it replaces.
            let mut specs: Vec<RaySpec> = Vec::with_capacity(self.cfg.rays_per_step);
            let mut attempts = 0usize;
            while specs.len() < self.cfg.rays_per_step && attempts < self.cfg.rays_per_step * 8 {
                attempts += 1;
                if let Some(spec) = self.sample_ray(pd) {
                    specs.push(spec);
                }
            }
            let targets = self.acquire_step(pd, &specs, model);

            // Sequential per-ray updates, in sampling order (gradient
            // accumulation order is part of the determinism contract).
            let mut sigma_acc = 0.0f32;
            let mut color_acc = 0.0f32;
            for (r, t) in targets.iter().enumerate() {
                let losses =
                    model.train_ray_arena(&self.full_arena, r, &t.gt_logits, &t.gt_colors, &t.mask);
                let coarse_loss = model.train_coarse_arena(&self.coarse_arena, r, &t.gt_logits);
                sigma_acc += losses.sigma + coarse_loss;
                color_acc += losses.color;
            }
            let rays_done = targets.len();
            if rays_done > 0 {
                adam.step(&mut model.params_mut());
                sigma_losses.push(sigma_acc / rays_done as f32);
                color_losses.push(color_acc / rays_done as f32);
            }
        }

        let window = (sigma_losses.len() / 10).max(1);
        let mean = |xs: &[f32]| -> f32 {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f32>() / xs.len() as f32
            }
        };
        TrainReport {
            initial_sigma_loss: mean(&sigma_losses[..window.min(sigma_losses.len())]),
            final_sigma_loss: mean(&sigma_losses[sigma_losses.len().saturating_sub(window)..]),
            final_color_loss: mean(&color_losses[color_losses.len().saturating_sub(window)..]),
            steps,
        }
    }

    /// Samples one training ray's geometry; returns `None` when the
    /// ray misses the scene bounds. Consumes the trainer RNG in
    /// exactly the order the pre-fusion ray-at-a-time loop did:
    /// camera, pixel x, pixel y, (miss → bail), point count, jitter.
    fn sample_ray(&mut self, pd: &PreparedDataset) -> Option<RaySpec> {
        let cam = pd.cameras[self.rng.below(pd.cameras.len())];
        let x = self.rng.below(cam.intrinsics.width as usize) as u32;
        let y = self.rng.below(cam.intrinsics.height as usize) as u32;
        let ray = cam.pixel_center_ray(x, y);
        let (t0, t1) = pd.dataset.scene.bounds.intersect_ray(&ray)?;
        if t1 - t0 < 1e-4 {
            return None;
        }
        let n_max = self.cfg.n_points.max(9);
        let n = 8 + self.rng.below(n_max - 8 + 1);
        let jitter = self.rng.uniform(-0.4, 0.4) * (t1 - t0) / n as f32;
        let depths: Vec<f32> = Ray::uniform_depths(t0, t1, n)
            .into_iter()
            .map(|t| (t + jitter).clamp(t0, t1))
            .collect();
        Some(RaySpec { ray, depths })
    }

    /// Acquires features + ground truth for every ray of a step into
    /// the trainer's persistent step arenas (one sealed arena ray per
    /// training ray, full and coarse-pass aggregation side by side).
    /// Acquisition is RNG-free and fills in (ray, depth) order — the
    /// same per-point arithmetic and order as the AoS path it
    /// replaces, so training streams stay bit-compatible — and, once
    /// the arenas have grown, performs zero heap allocations beyond
    /// the per-ray target vectors.
    fn acquire_step(
        &mut self,
        pd: &PreparedDataset,
        specs: &[RaySpec],
        model: &GenNerfModel,
    ) -> Vec<RayTargets> {
        let ds = pd.dataset;
        let d = model.config.d_features;
        let dc = model.config.coarse_channels;
        let coarse_views = 4.min(pd.sources.len());
        self.full_arena.reset(pd.sources.len(), d);
        self.coarse_arena.reset(coarse_views, dc);
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            aggregate_ray_into(
                &spec.ray,
                &spec.depths,
                &pd.sources,
                d,
                &mut self.full_arena,
            );
            aggregate_ray_into(
                &spec.ray,
                &spec.depths,
                &pd.sources[..coarse_views],
                dc,
                &mut self.coarse_arena,
            );
            let n = spec.depths.len();
            let mut targets = RayTargets {
                gt_logits: Vec::with_capacity(n),
                gt_colors: Vec::with_capacity(n),
                mask: Vec::with_capacity(n),
            };
            for &t in &spec.depths {
                let p = spec.ray.at(t);
                let sigma = ds.scene.density(p);
                let masked = sigma > self.cfg.color_threshold;
                targets.gt_logits.push(logit_from_density(sigma));
                targets.gt_colors.push(if masked {
                    ds.scene.color(p, spec.ray.direction)
                } else {
                    Vec3::ZERO
                });
                targets.mask.push(masked);
            }
            out.push(targets);
        }
        out
    }
}

/// A sampled training ray: geometry + jittered sample depths.
struct RaySpec {
    ray: Ray,
    depths: Vec<f32>,
}

/// One ray's supervision targets (its features live in the step
/// arenas).
struct RayTargets {
    gt_logits: Vec<f32>,
    gt_colors: Vec<Vec3>,
    mask: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, RayModuleChoice};
    use gen_nerf_scene::DatasetKind;

    fn tiny_dataset(name: &str) -> Dataset {
        Dataset::build(DatasetKind::NerfSynthetic, name, 0.025, 4, 1, 24, 9)
    }

    #[test]
    fn pretrain_reduces_sigma_loss() {
        let ds = tiny_dataset("lego");
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig {
            steps: 120,
            ..TrainConfig::fast()
        });
        let report = trainer.pretrain(&mut model, &[&ds]);
        assert!(
            report.final_sigma_loss < report.initial_sigma_loss,
            "{report:?}"
        );
    }

    #[test]
    fn pretrain_works_across_scenes() {
        let a = tiny_dataset("lego");
        let b = tiny_dataset("chair");
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig {
            steps: 80,
            ..TrainConfig::fast()
        });
        let report = trainer.pretrain(&mut model, &[&a, &b]);
        assert!(report.final_sigma_loss.is_finite());
        assert!(report.final_sigma_loss < report.initial_sigma_loss * 1.2);
    }

    #[test]
    fn finetune_improves_on_target_scene() {
        let train_scene = tiny_dataset("lego");
        let target = tiny_dataset("ship");
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig {
            steps: 100,
            finetune_steps: 80,
            ..TrainConfig::fast()
        });
        trainer.pretrain(&mut model, &[&train_scene]);
        let report = trainer.finetune(&mut model, &target);
        assert!(report.final_sigma_loss.is_finite());
        assert_eq!(report.steps, 80);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = tiny_dataset("mic");
        let cfg = TrainConfig {
            steps: 30,
            ..TrainConfig::fast()
        };
        let run = || {
            let mut model = GenNerfModel::new(ModelConfig::fast());
            let mut trainer = Trainer::new(cfg);
            trainer.pretrain(&mut model, &[&ds])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one training dataset")]
    fn pretrain_rejects_empty() {
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig::fast());
        let _ = trainer.pretrain(&mut model, &[]);
    }

    #[test]
    fn all_ray_modules_trainable() {
        let ds = tiny_dataset("drums");
        for choice in [
            RayModuleChoice::Mixer,
            RayModuleChoice::Transformer,
            RayModuleChoice::None,
        ] {
            let mut model = GenNerfModel::new(ModelConfig::fast().with_ray_module(choice));
            let mut trainer = Trainer::new(TrainConfig {
                steps: 60,
                ..TrainConfig::fast()
            });
            let report = trainer.pretrain(&mut model, &[&ds]);
            assert!(
                report.final_sigma_loss.is_finite() && report.final_sigma_loss >= 0.0,
                "{choice:?}: {report:?}"
            );
        }
    }
}
