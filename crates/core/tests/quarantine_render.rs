//! The quarantine satellite at the render level: after a backend is
//! quarantined, every render falls back to the scalar kernels and the
//! output is bit-for-bit what a scalar-backend render produces — and,
//! the backends being one contract, what the quarantined backend
//! rendered before the latch.
//!
//! Own test binary: quarantining flips the process-global active
//! kernel backend, which must not race the dispatched bitwise
//! regression tests of other suites.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::prepare_sources;
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::Renderer;
use gen_nerf_nn::kernels::{self, integrity, Backend};
use gen_nerf_scene::datasets::{Dataset, DatasetKind};
use gen_nerf_scene::Image;

#[test]
fn post_quarantine_render_is_bitwise_a_scalar_render() {
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.04, 4, 1, 24, 5);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let r = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(8, 8),
        ds.scene.bounds,
        ds.scene.background,
    );
    let cam = &ds.eval_views[0].camera;

    // Reference: an explicit scalar-backend render.
    assert_eq!(kernels::set_active(Backend::Scalar), Backend::Scalar);
    let (scalar_img, scalar_stats) = r.render(cam);

    // Put the SIMD backend in charge where the host has it and render
    // on it, then quarantine it: the latch must demote the active
    // kernel immediately, without waiting for a new dispatch decision.
    let simd_img = Backend::Avx2.available().then(|| {
        assert_eq!(kernels::set_active(Backend::Avx2), Backend::Avx2);
        r.render(cam).0
    });
    integrity::quarantine(Backend::Avx2);
    assert_eq!(kernels::active_backend(), Backend::Scalar);

    let (img, stats) = r.render(cam);
    let bits = |img: &Image| -> Vec<u32> { img.as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(&scalar_img),
        bits(&img),
        "post-quarantine render must match the scalar render bitwise"
    );
    if let Some(simd_img) = simd_img {
        assert_eq!(
            bits(&simd_img),
            bits(&img),
            "quarantine must not change the pixels: post-quarantine render vs the AVX2 render before it"
        );
    }
    assert_eq!(scalar_stats.points, stats.points);
    assert_eq!(scalar_stats.flops.total(), stats.flops.total());

    integrity::clear_quarantine_for_tests();
    kernels::set_active(Backend::from_env());
}
