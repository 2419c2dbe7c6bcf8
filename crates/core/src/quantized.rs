//! INT8 execution fidelity.
//!
//! The Gen-NeRF PE pool executes INT8 systolic-array GEMMs (Sec. 5.1);
//! the algorithm experiments run in `f32`. This module bridges the two:
//! it re-executes the point MLP with symmetric per-tensor INT8
//! quantization (`gen_nerf_nn::quant`) — the same arithmetic the
//! accelerator performs — and measures how far the quantized densities
//! drift from the float reference. Tests pin the drift small enough
//! that the algorithm-level PSNR results transfer to the INT8 hardware;
//! nothing else calls it, so the module is compiled for tests only.

use crate::features::AggregateArena;
use crate::model::{density_from_logit, GenNerfModel, RayModule};
use gen_nerf_nn::quant::QuantTensor;
use gen_nerf_nn::Tensor2;

/// Runs the point MLP in INT8 (weights *and* activations quantized per
/// layer, f32 bias add and ReLU — the usual integer-accumulate /
/// float-rescale flow) over a batch of aggregation stats.
///
/// Returns the `n × (d_sigma + 3)` output like the float path.
pub(crate) fn quantized_point_mlp(model: &GenNerfModel, x: &Tensor2) -> Tensor2 {
    let (l1, l2, l3) = model.point_mlp.layers();
    let mut h = quant_linear(x, &l1.w.value, &l1.b.value);
    h.relu_in_place();
    let mut h2 = quant_linear(&h, &l2.w.value, &l2.b.value);
    h2.relu_in_place();
    quant_linear(&h2, &l3.w.value, &l3.b.value)
}

fn quant_linear(x: &Tensor2, w: &Tensor2, b: &Tensor2) -> Tensor2 {
    let qx = QuantTensor::quantize(x);
    let qw = QuantTensor::quantize(w);
    qx.matmul(&qw).add_row_broadcast(b)
}

/// Compares float vs INT8 densities over every point of an
/// [`AggregateArena`]: the arena's stats matrix feeds both the float
/// and the INT8 point MLP **in place** (the quantizer reads the same
/// SoA rows the fused GEMM consumes — no AoS staging copy).
///
/// Returns `(max_abs_density_error, mean_abs_density_error)` over the
/// points. The ray module itself is executed in float for both paths
/// (its inputs are the quantized-vs-float `f^σ` features), isolating
/// the point-MLP quantization effect the systolic arrays introduce.
///
/// # Panics
///
/// Panics when the arena's stats width differs from the point-MLP
/// input width.
pub(crate) fn density_drift_arena(model: &GenNerfModel, arena: &AggregateArena) -> (f32, f32) {
    if arena.total_points() == 0 {
        return (0.0, 0.0);
    }
    assert_eq!(
        arena.stats().cols(),
        model.config.point_input_dim(),
        "arena stats width is not the point-MLP input width"
    );
    let x = arena.stats();
    let n = x.rows();
    let d_sigma = model.config.d_sigma;
    let mut float_model = model.clone();
    let y_float = float_model.point_mlp.forward(x);
    let y_quant = quantized_point_mlp(model, x);

    let run_ray = |y: &Tensor2, module: &mut RayModule| -> Vec<f32> {
        let f_sigma = Tensor2::from_fn(n, d_sigma, |r, c| y[(r, c)]);
        let logits = module.forward(&f_sigma);
        (0..n).map(|k| density_from_logit(logits[(k, 0)])).collect()
    };
    let mut module_a = model.ray_module.clone();
    let mut module_b = model.ray_module.clone();
    let d_float = run_ray(&y_float, &mut module_a);
    let d_quant = run_ray(&y_quant, &mut module_b);

    let mut max_err = 0.0f32;
    let mut sum_err = 0.0f32;
    for (a, b) in d_float.iter().zip(&d_quant) {
        let e = (a - b).abs();
        max_err = max_err.max(e);
        sum_err += e;
    }
    (max_err, sum_err / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::{aggregate_ray_into, prepare_sources};
    use crate::trainer::{TrainConfig, Trainer};
    use gen_nerf_scene::{Dataset, DatasetKind};

    fn trained_setup() -> (Dataset, Vec<crate::features::SourceViewData>, GenNerfModel) {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
        let sources = prepare_sources(&ds.source_views);
        let mut model = GenNerfModel::new(ModelConfig::fast());
        let mut trainer = Trainer::new(TrainConfig {
            steps: 150,
            ..TrainConfig::fast()
        });
        trainer.pretrain(&mut model, &[&ds]);
        (ds, sources, model)
    }

    /// The eval camera's centre ray, `n` uniform samples, as the one
    /// ray of an arena.
    fn center_ray_arena(
        ds: &Dataset,
        sources: &[crate::features::SourceViewData],
        n: usize,
    ) -> AggregateArena {
        let cam = &ds.eval_views[0].camera;
        let ray = cam.pixel_center_ray(cam.intrinsics.width / 2, cam.intrinsics.height / 2);
        let (t0, t1) = ds.scene.bounds.intersect_ray(&ray).unwrap();
        let depths = gen_nerf_geometry::Ray::uniform_depths(t0, t1, n);
        let mut arena = AggregateArena::default();
        arena.reset(sources.len(), 12);
        aggregate_ray_into(&ray, &depths, sources, 12, &mut arena);
        arena
    }

    #[test]
    fn quantized_mlp_matches_shape() {
        let (ds, sources, model) = trained_setup();
        let arena = center_ray_arena(&ds, &sources, 8);
        let y = quantized_point_mlp(&model, arena.stats());
        assert_eq!((y.rows(), y.cols()), (8, 19));
        assert!(y.is_finite());
    }

    #[test]
    fn int8_density_drift_is_small() {
        // The headline fidelity check: INT8 systolic execution changes
        // trained densities only slightly relative to their magnitude.
        let (ds, sources, model) = trained_setup();
        let arena = center_ray_arena(&ds, &sources, 16);
        let (max_err, mean_err) = density_drift_arena(&model, &arena);
        // Densities in these scenes reach ~50; demand sub-10% worst-case
        // and small mean drift. The exact drift depends on the trained
        // weights and therefore on the RNG stream behind the training
        // seed, so the mean bound carries slack for stream changes.
        assert!(max_err < 5.0, "max INT8 density drift {max_err}");
        assert!(mean_err < 2.0, "mean INT8 density drift {mean_err}");
    }

    #[test]
    fn drift_of_empty_ray_is_zero() {
        let model = GenNerfModel::new(ModelConfig::fast());
        assert_eq!(
            density_drift_arena(&model, &AggregateArena::default()),
            (0.0, 0.0)
        );
    }

    #[test]
    fn quantized_close_to_float_elementwise() {
        let (ds, sources, model) = trained_setup();
        let arena = center_ray_arena(&ds, &sources, 12);
        let x = arena.stats();
        let mut fm = model.clone();
        let y_float = fm.point_mlp.forward(x);
        let y_quant = quantized_point_mlp(&model, x);
        let rel = (&y_quant - &y_float).norm() / y_float.norm().max(1e-6);
        assert!(rel < 0.1, "relative INT8 output error {rel}");
    }
}
