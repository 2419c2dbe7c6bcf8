//! Cross-crate invariants of the co-design, checked property-style:
//! sampling budgets, epipolar consistency between the algorithm's
//! fetches and the hardware's footprints, and monotonicity of the
//! cost models.

use gen_nerf::config::{ModelConfig, RayModuleChoice, SamplingStrategy};
use gen_nerf::hardware::workload_spec;
use gen_nerf::sampling;
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::gpu::GpuModel;
use gen_nerf_accel::scheduler::{CameraRig, Scheduler};
use gen_nerf_accel::simulator::Simulator;
use gen_nerf_accel::workload::{Stage, WorkloadSpec};
use gen_nerf_geometry::epipolar::EpipolarPair;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cross-ray focused allocation always respects its budget (up
    /// to the minimum-one guarantee) and never assigns to empty rays.
    #[test]
    fn prop_focused_allocation_budget(
        criticals in proptest::collection::vec(0usize..20, 10..200),
        budget_per_ray in 1usize..32,
    ) {
        let budget = budget_per_ray * criticals.len();
        let counts = sampling::allocate_focused(&criticals, budget, 64);
        let total: usize = counts.iter().sum();
        let rays_with_cr = criticals.iter().filter(|&&c| c > 0).count();
        prop_assert!(total <= budget + rays_with_cr);
        for (j, &c) in counts.iter().enumerate() {
            if criticals[j] == 0 {
                prop_assert_eq!(c, 0);
            }
            prop_assert!(c <= 64);
        }
    }

    /// Workload MACs grow monotonically in every workload dimension.
    #[test]
    fn prop_workload_macs_monotone(
        dim in 32u32..128,
        views in 1usize..10,
        points in 8usize..96,
    ) {
        let base = WorkloadSpec::gen_nerf_default(dim, dim, views, points);
        let more_pixels = WorkloadSpec::gen_nerf_default(dim + 8, dim, views, points);
        let more_points = WorkloadSpec::gen_nerf_default(dim, dim, views, points + 8);
        prop_assert!(more_pixels.total_macs() > base.total_macs());
        prop_assert!(more_points.total_macs() > base.total_macs());
        // Gather traffic also grows with views.
        let more_views = WorkloadSpec::gen_nerf_default(dim, dim, views + 1, points);
        prop_assert!(
            more_views.nominal_gather_bytes(Stage::Focused)
                > base.nominal_gather_bytes(Stage::Focused)
        );
    }

    /// GPU latency is monotone in the workload and the ASIC wins on the
    /// canonical workload family.
    #[test]
    fn prop_gpu_monotone_asic_wins(points in 16usize..96, views in 2usize..8) {
        let spec = WorkloadSpec::gen_nerf_default(64, 64, views, points);
        let bigger = WorkloadSpec::gen_nerf_default(64, 64, views, points + 16);
        let rtx = GpuModel::rtx_2080ti();
        prop_assert!(rtx.latency_s(&bigger) > rtx.latency_s(&spec));
        let sim = Simulator::new(AcceleratorConfig::paper());
        let report = sim.simulate(&spec);
        prop_assert!(report.fps > rtx.fps(&spec));
    }
}

#[test]
fn scheduler_footprints_cover_algorithm_fetch_targets() {
    // Epipolar consistency: points sampled by the algorithm inside a
    // patch's frustum must project inside (a small dilation of) the
    // patch's per-view fetch bounding boxes — i.e., the hardware
    // prefetches what the algorithm will read.
    let (w, h, depth) = (64u32, 64u32, 16u32);
    let rig = CameraRig::orbit(w, h, 4);
    let sched = Scheduler::new(64 * 1024);
    let patches = sched.partition(&rig, w, h, depth, 12);
    let mut checked = 0;
    for patch in patches.iter().take(200) {
        // Center ray / center depth of the patch.
        let u = patch.u0 as f32 + patch.du as f32 / 2.0;
        let v = patch.v0 as f32 + patch.dv as f32 / 2.0;
        let (t_lo, t_hi) = rig.depth_slice(patch.d0, patch.dd, depth);
        let p = rig.novel.pixel_ray(u, v).at((t_lo + t_hi) / 2.0);
        for (view, source) in rig.sources.iter().enumerate() {
            let Some(uv) = source.project(p) else {
                continue;
            };
            if !source.intrinsics.contains(uv) {
                continue;
            }
            let (x0, y0, x1, y1) = patch.bbox_per_view[view];
            if (x1, y1) == (0, 0) {
                continue;
            }
            let margin = 2.0;
            assert!(
                uv.x >= x0 as f32 - margin
                    && uv.x <= x1 as f32 + margin
                    && uv.y >= y0 as f32 - margin
                    && uv.y <= y1 as f32 + margin,
                "projection {uv:?} outside footprint ({x0},{y0})-({x1},{y1})"
            );
            checked += 1;
        }
    }
    assert!(checked > 50, "too few checks executed: {checked}");
}

#[test]
fn epipolar_lines_agree_between_geometry_and_scheduler() {
    // Property-1 holds for the rig the scheduler uses: sampled points
    // along a novel ray project onto the epipolar line.
    let rig = CameraRig::orbit(64, 64, 3);
    for source in &rig.sources {
        let pair = EpipolarPair::new(&rig.novel, source);
        let ray = rig.novel.pixel_ray(32.0, 32.0);
        let Some(line) = pair.epipolar_line_for_pixel(32.0, 32.0) else {
            continue;
        };
        for t in [rig.t_near, (rig.t_near + rig.t_far) / 2.0, rig.t_far] {
            if let Some(uv) = source.project(ray.at(t)) {
                assert!(
                    line.distance_to(uv) < 0.1,
                    "epipolar violation: {}",
                    line.distance_to(uv)
                );
            }
        }
    }
}

#[test]
fn mixer_workload_cheaper_than_transformer_everywhere() {
    // The Ray-Mixer replaces attention to reduce heterogeneity *and*
    // cost; the hardware spec must reflect that at every ray length.
    let mixer_cfg = ModelConfig::fast();
    let attn_cfg = ModelConfig::fast().with_ray_module(RayModuleChoice::Transformer);
    for n in [8usize, 16, 32, 64] {
        assert!(
            mixer_cfg.ray_module_macs(n) <= attn_cfg.ray_module_macs(n),
            "mixer beats transformer at n={n}"
        );
    }
    // And on the GPU, the mixer avoids the attention penalty.
    let strategy = SamplingStrategy::Uniform { n: 64 };
    let mixer_spec = workload_spec(&mixer_cfg, &strategy, 128, 128, 6);
    let attn_spec = workload_spec(&attn_cfg, &strategy, 128, 128, 6);
    let gpu = GpuModel::rtx_2080ti();
    let mixer_bd = gpu.breakdown(&mixer_spec);
    let attn_bd = gpu.breakdown(&attn_spec);
    assert!(mixer_bd.ray_module_s < attn_bd.ray_module_s);
}

#[test]
fn simulated_asic_scales_linearly_in_rays() {
    // FPS extrapolation by pixel count (used by the harness) is valid
    // only if cycles scale ~linearly with rays; verify within 25%.
    let sim = Simulator::new(AcceleratorConfig::paper());
    let small = sim.simulate(&WorkloadSpec::gen_nerf_default(48, 48, 4, 32));
    let large = sim.simulate(&WorkloadSpec::gen_nerf_default(96, 96, 4, 32));
    let ratio = large.total_cycles as f64 / small.total_cycles as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "4x rays gave {ratio:.2}x cycles"
    );
}
