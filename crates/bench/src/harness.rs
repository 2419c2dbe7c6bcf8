//! Shared infrastructure for the reproduction harness.
//!
//! Every `fig*`/`tab*` binary uses this module to build datasets, train
//! models and print aligned tables. Three environment variables control
//! the fidelity/runtime trade-off:
//!
//! * `GEN_NERF_SCALE` — resolution scale relative to the paper's
//!   (default 0.08; 1.0 reproduces the paper's resolutions but takes
//!   hours in this pure-Rust pipeline),
//! * `GEN_NERF_STEPS` — pretraining steps (default 800),
//! * `GEN_NERF_THREADS` — worker threads for the parallel engines
//!   (default: all cores; see [`gen_nerf_parallel`]). Sweeps fan their
//!   points out with `par_sweep`; results are identical for any
//!   value.

use gen_nerf::config::{ModelConfig, RayModuleChoice};
use gen_nerf::model::GenNerfModel;
use gen_nerf::trainer::{TrainConfig, Trainer};
use gen_nerf_scene::{Dataset, DatasetKind};

/// Reproduction-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// Resolution scale vs the paper's evaluation resolutions.
    pub scale: f32,
    /// Pretraining steps.
    pub train_steps: usize,
    /// Ground-truth renderer samples per ray (dataset generation).
    pub gt_samples: usize,
    /// Number of source views generated per dataset.
    pub n_source: usize,
    /// Number of held-out eval views per dataset.
    pub n_eval: usize,
    /// Scene/content seed.
    pub seed: u64,
}

impl ReproConfig {
    /// Reads the configuration from the environment (see module docs).
    pub fn from_env() -> Self {
        let scale = std::env::var("GEN_NERF_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.08);
        let train_steps = std::env::var("GEN_NERF_STEPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(800);
        Self {
            scale,
            train_steps,
            gt_samples: 64,
            n_source: 10,
            n_eval: 2,
            seed: 7,
        }
    }

    /// A very small configuration for the harness's own unit tests.
    pub fn smoke() -> Self {
        Self {
            scale: 0.03,
            train_steps: 150,
            gt_samples: 32,
            n_source: 6,
            n_eval: 1,
            seed: 7,
        }
    }
}

/// Builds an evaluation dataset analog.
pub(crate) fn eval_dataset(kind: DatasetKind, name: &str, cfg: &ReproConfig) -> Dataset {
    Dataset::build(
        kind,
        name,
        cfg.scale,
        cfg.n_source,
        cfg.n_eval,
        cfg.gt_samples,
        cfg.seed,
    )
}

/// Builds the cross-scene *training* corpus: procedural scenes distinct
/// from every named evaluation scene (the generalizable setting — the
/// model never trains on the scene it is evaluated on).
pub(crate) fn training_datasets(cfg: &ReproConfig) -> Vec<Dataset> {
    ["train-a", "train-b", "train-c"]
        .iter()
        .map(|name| {
            Dataset::build(
                DatasetKind::NerfSynthetic,
                name,
                cfg.scale,
                cfg.n_source.min(6),
                1,
                cfg.gt_samples,
                cfg.seed + 101,
            )
        })
        .collect()
}

/// Trains a fresh model with the requested ray module on the training
/// corpus.
pub(crate) fn pretrained_model(
    cfg: &ReproConfig,
    ray_module: RayModuleChoice,
    datasets: &[Dataset],
) -> GenNerfModel {
    let mut model = GenNerfModel::new(ModelConfig::fast().with_ray_module(ray_module));
    let mut trainer = Trainer::new(TrainConfig {
        steps: cfg.train_steps,
        ..TrainConfig::fast()
    });
    let refs: Vec<&Dataset> = datasets.iter().collect();
    trainer.pretrain(&mut model, &refs);
    model
}

/// Evaluates every sweep point of an experiment in parallel, returning
/// results in point order.
///
/// Sweep points are independent (each is one `evaluate` or `simulate`
/// call over shared, `Sync`-safe models/configs), so the experiment
/// harness fans them out across host threads. The `GEN_NERF_THREADS`
/// budget is *split*, not nested: with `total` threads and `n` points,
/// up to `min(n, total)` sweep workers run concurrently and each
/// point's closure receives `inner = max(1, total / workers)` — the
/// worker count it should pin on its inner engine
/// (`evaluate_with_threads`, `Simulator::with_threads`), keeping the
/// whole sweep at ~`total` threads. Results are deterministic for any
/// split.
pub(crate) fn par_sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize) -> R + Sync,
{
    let total = gen_nerf_parallel::num_threads();
    let workers = points.len().clamp(1, total);
    let inner = (total / workers).max(1);
    let pool = gen_nerf_parallel::Pool::new(workers);
    pool.claim(points.len(), || (), |_, i| f(&points[i], inner))
}

/// Prints an aligned table with a title.
pub(crate) fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with a fixed number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_is_small() {
        let c = ReproConfig::smoke();
        assert!(c.scale <= 0.05);
        assert!(c.train_steps <= 200);
    }

    #[test]
    fn training_and_eval_scenes_are_disjoint() {
        let cfg = ReproConfig::smoke();
        let train = training_datasets(&cfg);
        for t in &train {
            for kind in DatasetKind::all() {
                for name in kind.scene_names() {
                    assert_ne!(t.name.as_str(), *name, "training scene leaks into eval");
                }
            }
        }
    }

    #[test]
    fn eval_dataset_builds() {
        let cfg = ReproConfig::smoke();
        let ds = eval_dataset(DatasetKind::Llff, "fern", &cfg);
        assert_eq!(ds.source_views.len(), cfg.n_source);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
