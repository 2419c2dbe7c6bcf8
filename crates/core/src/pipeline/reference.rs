//! The per-ray reference schedule (test builds only).
//!
//! One GEMM chain per ray, no tiles, no arena: the schedule the fused
//! tile path replaced, kept as the yardstick the unit tests hold
//! [`Renderer::render`] against (`pipeline::tests`). Output and stats
//! are bit-for-bit those of the fused schedule — the dense kernels make
//! output rows independent of their batch — so nothing but those
//! comparisons calls it, and the production build does not contain it.

use super::{EvalCounts, RayBatch, RenderStats, Renderer};
use crate::config::SamplingStrategy;
use crate::features::{aggregate_point, PointAggregate};
use crate::sampling;
use gen_nerf_geometry::{Camera, Ray, Vec3};
use gen_nerf_nn::flops;
use gen_nerf_scene::renderer::composite;
use gen_nerf_scene::Image;

impl Renderer<'_> {
    /// Renders `camera` on the per-ray reference schedule (see the
    /// module docs): the yardstick [`Renderer::render`] is pinned
    /// bit-for-bit against.
    pub(crate) fn render_reference(&self, camera: &Camera) -> (Image, RenderStats) {
        let mut image = Image::new(0, 0);
        let mut stats = RenderStats::default();
        let batch = RayBatch::from_camera(camera, &self.bounds);
        stats.rays = batch.len() as u64;
        let pixels = match self.strategy {
            SamplingStrategy::Uniform { n } => self.render_uniform(&batch, n, &mut stats),
            SamplingStrategy::Hierarchical { n_coarse, n_fine } => {
                self.render_hierarchical(&batch, n_coarse, n_fine, &mut stats)
            }
            SamplingStrategy::CoarseThenFocus {
                n_coarse,
                n_focused,
                tau,
                s_coarse,
            } => self.render_ctf(&batch, n_coarse, n_focused, tau, s_coarse, &mut stats),
        };
        batch.write_image(&pixels, &mut image);
        (image, stats)
    }

    /// Maps `shade` over every ray of the batch, fanning contiguous
    /// chunks out to worker threads. Returns per-ray colors in batch
    /// order plus merged stats.
    fn shade_batch<F>(&self, n_rays: usize, shade: F) -> (Vec<Vec3>, RenderStats)
    where
        F: Fn(usize, &mut RenderStats) -> Vec3 + Sync,
    {
        let per_ray = |_| self.strategy.avg_points_per_ray();
        // A yardstick: its integrity verdict is never read.
        let chunks = self.fan_out(&mut None, n_rays, per_ray, |start, end| {
            let mut local = RenderStats::default();
            let colors: Vec<Vec3> = (start..end)
                .map(|j| {
                    if self.is_cancelled() {
                        // Cancelled mid-chunk: keep the output shape,
                        // skip the model work for the remaining rays.
                        self.background
                    } else {
                        shade(j, &mut local)
                    }
                })
                .collect();
            (colors, local)
        });
        let mut pixels = Vec::with_capacity(n_rays);
        let mut stats = RenderStats::default();
        for (colors, local) in chunks {
            pixels.extend(colors);
            stats.merge(&local);
        }
        (pixels, stats)
    }

    /// Aggregates every depth sample of a ray against the full source
    /// set.
    fn aggregate_ray(&self, ray: &Ray, depths: &[f32]) -> Vec<PointAggregate> {
        let d = self.d_channels();
        depths
            .iter()
            .map(|&t| aggregate_point(ray.at(t), ray.direction, self.sources, d))
            .collect()
    }

    /// FLOPs/fetch accounting for one ray's full-model evaluation: the
    /// tiles' count-then-book for a tile of one ray, so both schedules
    /// report identical counts.
    fn account_full_eval(&self, aggs: &[PointAggregate], stats: &mut RenderStats) {
        let mut counts = EvalCounts::default();
        let valid = aggs.iter().map(|a| a.n_valid).sum();
        self.count_full_eval(aggs.len(), valid, &mut counts);
        self.book_full_eval(&counts, stats);
    }

    /// Aggregates + full-model forward + accounting for a ray's points
    /// (the per-ray reference path: one GEMM chain per ray).
    fn eval_points(
        &self,
        ray: &Ray,
        depths: &[f32],
        stats: &mut RenderStats,
    ) -> (Vec<f32>, Vec<Vec3>) {
        let aggs = self.aggregate_ray(ray, depths);
        self.account_full_eval(&aggs, stats);
        let out = self.model.forward_ray(&aggs);
        (out.densities, out.colors)
    }

    fn composite_ray(
        &self,
        depths: &[f32],
        densities: &[f32],
        colors: &[Vec3],
        t_far: f32,
    ) -> Vec3 {
        let deltas = Ray::interval_widths(depths, t_far);
        composite(densities, colors, &deltas, self.background).color
    }

    fn render_uniform(&self, batch: &RayBatch, n: usize, stats: &mut RenderStats) -> Vec<Vec3> {
        let (pixels, shaded) = self.shade_batch(batch.len(), |j, local| {
            let Some((t0, t1)) = batch.ranges[j] else {
                return self.background;
            };
            let depths = Ray::uniform_depths(t0, t1, n);
            let (densities, colors) = self.eval_points(&batch.rays[j], &depths, local);
            self.composite_ray(&depths, &densities, &colors, t1)
        });
        stats.merge(&shaded);
        pixels
    }

    /// IBRNet-style hierarchical sampling: `n_coarse` uniform samples
    /// with the full model, importance-resample `n_fine` more, then
    /// composite the union (all evaluated points are counted).
    fn render_hierarchical(
        &self,
        batch: &RayBatch,
        n_coarse: usize,
        n_fine: usize,
        stats: &mut RenderStats,
    ) -> Vec<Vec3> {
        let (pixels, shaded) = self.shade_batch(batch.len(), |j, local| {
            let Some((t0, t1)) = batch.ranges[j] else {
                return self.background;
            };
            let ray = &batch.rays[j];
            let coarse_depths = Ray::uniform_depths(t0, t1, n_coarse);
            let (coarse_densities, coarse_colors) = self.eval_points(ray, &coarse_depths, local);
            // Hitting probabilities from the coarse pass drive the
            // importance resampling.
            let deltas = Ray::interval_widths(&coarse_depths, t1);
            let comp = composite(&coarse_densities, &coarse_colors, &deltas, self.background);
            let edges = sampling::uniform_edges(t0, t1, n_coarse);
            let mut rng = self.ray_rng(j);
            let fine_depths = sampling::importance_sample(&edges, &comp.weights, n_fine, &mut rng);
            let (fine_densities, fine_colors) = self.eval_points(ray, &fine_depths, local);

            // Merge-sort the union by depth.
            let mut merged: Vec<(f32, f32, Vec3)> = coarse_depths
                .iter()
                .zip(&coarse_densities)
                .zip(&coarse_colors)
                .map(|((&t, &d), &c)| (t, d, c))
                .chain(
                    fine_depths
                        .iter()
                        .zip(&fine_densities)
                        .zip(&fine_colors)
                        .map(|((&t, &d), &c)| (t, d, c)),
                )
                .collect();
            merged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let depths: Vec<f32> = merged.iter().map(|m| m.0).collect();
            let densities: Vec<f32> = merged.iter().map(|m| m.1).collect();
            let colors: Vec<Vec3> = merged.iter().map(|m| m.2).collect();
            self.composite_ray(&depths, &densities, &colors, t1)
        });
        stats.merge(&shaded);
        pixels
    }

    /// The per-ray reference coarse-then-focus pipeline (Sec. 3.2):
    /// Step ① probes with one coarse GEMM chain per ray, Step ② is the
    /// sequential cross-ray barrier, Step ③ shades per ray.
    fn render_ctf(
        &self,
        batch: &RayBatch,
        n_coarse: usize,
        n_focused: usize,
        tau: f32,
        s_coarse: usize,
        stats: &mut RenderStats,
    ) -> Vec<Vec3> {
        let n_rays = batch.len();
        let coarse_sources = &self.sources[..s_coarse.min(self.sources.len())];
        let dc = self.model.config.coarse_channels;

        // Step ①: lightweight coarse sampling for every ray.
        let per_ray = |_| n_coarse;
        let coarse_chunks = self.fan_out(&mut None, n_rays, per_ray, |start, end| {
            let mut local = RenderStats::default();
            let mut depths_per: Vec<Vec<f32>> = Vec::with_capacity(end - start);
            let mut aggs_per: Vec<Vec<PointAggregate>> = Vec::with_capacity(end - start);
            for j in start..end {
                // The filter is the cancellation checkpoint of the
                // per-ray reference schedule's coarse pass.
                let range = batch.ranges[j].filter(|_| !self.is_cancelled());
                let Some((t0, t1)) = range else {
                    depths_per.push(Vec::new());
                    aggs_per.push(Vec::new());
                    continue;
                };
                let ray = &batch.rays[j];
                let depths = Ray::uniform_depths(t0, t1, n_coarse);
                let aggs: Vec<PointAggregate> = depths
                    .iter()
                    .map(|&t| aggregate_point(ray.at(t), ray.direction, coarse_sources, dc))
                    .collect();
                let valid: u64 = aggs.iter().map(|a| a.n_valid as u64).sum();
                local.feature_fetches += 4 * valid;
                local
                    .flops
                    .add("acquire", valid * flops::bilinear_fetch(1, dc));
                local.coarse_points += aggs.len() as u64;
                local.flops.add(
                    "mlp",
                    aggs.len() as u64 * 2 * self.model.config.coarse_mlp_macs_per_point(),
                );
                depths_per.push(depths);
                aggs_per.push(aggs);
            }
            let densities_per: Vec<Vec<f32>> = aggs_per
                .iter()
                .map(|aggs| self.model.coarse_densities(aggs))
                .collect();
            let per_ray: Vec<(Vec<f32>, usize)> = (start..end)
                .map(|j| {
                    let idx = j - start;
                    let Some((_, t1)) = batch.ranges[j] else {
                        return (Vec::new(), 0);
                    };
                    let densities = &densities_per[idx];
                    let deltas = Ray::interval_widths(&depths_per[idx], t1);
                    let dummy_colors = vec![Vec3::ZERO; densities.len()];
                    let comp = composite(densities, &dummy_colors, &deltas, Vec3::ZERO);
                    local
                        .flops
                        .add("others", flops::volume_render(densities.len()));
                    let critical = sampling::critical_count(&comp.weights, tau);
                    (comp.weights, critical)
                })
                .collect();
            (per_ray, local)
        });
        let mut ray_weights: Vec<Vec<f32>> = Vec::with_capacity(n_rays);
        let mut criticals: Vec<usize> = Vec::with_capacity(n_rays);
        for (per_ray, local) in coarse_chunks {
            for (weights, critical) in per_ray {
                ray_weights.push(weights);
                criticals.push(critical);
            }
            stats.merge(&local);
        }

        // Step ②: cross-ray allocation P(j) ∝ N^cr_j.
        let budget = n_focused * n_rays;
        let n_cap = self.model.config.n_max;
        let counts = sampling::allocate_focused(&criticals, budget, n_cap);

        // Step ③: sparse focused sampling + full pipeline.
        let (pixels, shaded) = self.shade_batch(n_rays, |j, local| {
            let Some((t0, t1)) = batch.ranges[j] else {
                return self.background;
            };
            if counts[j] == 0 {
                return self.background;
            }
            let edges = sampling::uniform_edges(t0, t1, n_coarse);
            let mut rng = self.ray_rng(j);
            let depths = sampling::importance_sample(&edges, &ray_weights[j], counts[j], &mut rng);
            let (densities, colors) = self.eval_points(&batch.rays[j], &depths, local);
            self.composite_ray(&depths, &densities, &colors, t1)
        });
        stats.merge(&shaded);
        pixels
    }
}
