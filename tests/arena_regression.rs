//! Regression suite for zero-allocation SoA feature acquisition.
//!
//! Four contracts pinned here:
//!
//! * **Bitwise layout equivalence** — [`aggregate_points_into`] (the
//!   SoA arena fill the fused render schedule uses) must reproduce the
//!   seed [`aggregate_point`] AoS path bit-for-bit, across view
//!   counts, channel widths and partial visibility. Property-tested;
//!   on the scalar backend both layouts run one per-point fill
//!   routine, under AVX2 the arena runs the block kernel, which must
//!   not diverge from it (an accumulation order, an FMA). The
//!   render-level consequence — fused-arena renders ≡ per-ray
//!   reference renders — is pinned at scale by
//!   `tests/fused_forward_regression.rs`, whose fused path now runs
//!   entirely off the arena.
//! * **Literals, not siblings** — one fixed frame's pixel digest and
//!   its exported `CoarseFrame`'s seal and byte count, as the commit
//!   before the block kernel and the flat `CoarseFrame` produced them.
//! * **The accounting** — `FlopsCounter::add` must not allocate for a
//!   bucket that exists, and the per-tile integer sums that replaced
//!   the per-ray adds (as those had replaced per-point adds) must leave
//!   a fixed frame's `RenderStats` exactly where they were.
//! * **The allocation budget** — steady-state fused rendering must
//!   stay under an allocations/frame ceiling, and the acquisition
//!   phase itself must allocate **nothing** once the worker arena has
//!   grown. Measured with a thread-local counting allocator (the
//!   render is pinned to one inline thread), so concurrently running
//!   tests cannot blur the count. CI runs this on both kernel legs.

use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::{
    aggregate_point, aggregate_points_into, prepare_sources, AggregateArena, PointAggregate,
    SourceViewData,
};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_geometry::Vec3;
use gen_nerf_scene::{Dataset, DatasetKind, Image};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

// ---- thread-local counting allocator --------------------------------

/// Counts heap allocations **per thread**, so the allocation pins below
/// are immune to other tests running concurrently in this binary.
struct ThreadCountingAlloc;

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocations() -> u64 {
    LOCAL_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown stay safe.
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

// ---- shared scene ----------------------------------------------------

fn sources() -> &'static Vec<SourceViewData> {
    static SOURCES: OnceLock<Vec<SourceViewData>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, 24, 3);
        prepare_sources(&ds.source_views)
    })
}

fn stats_bits(stats: &[f32]) -> Vec<u32> {
    stats.iter().map(|v| v.to_bits()).collect()
}

// ---- bitwise layout equivalence --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arena fill reproduces the seed per-point aggregation
    /// bit-for-bit: every exported stats row, color/blend plane,
    /// validity plane and valid count equals `aggregate_point`'s, for
    /// any source-view count, channel width and visibility pattern
    /// (`far_every` pushes a sub-lattice of the points outside every
    /// frustum).
    #[test]
    fn prop_arena_fill_matches_seed_aggregate_point_bitwise(
        d in 1usize..13,
        n_views in 1usize..5,
        far_every in 2usize..5,
        raw in proptest::collection::vec(
            (-1.6f32..1.6, -1.6f32..1.6, -2.2f32..2.2),
            1..14
        ),
    ) {
        let all = sources();
        let views = &all[..n_views.min(all.len())];
        let pts: Vec<Vec3> = raw
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| {
                let p = Vec3::new(x, y, z);
                // Partial visibility: every `far_every`-th point is
                // pushed far outside the capture rig.
                if i % far_every == 0 { p * 400.0 } else { p }
            })
            .collect();
        let dirs: Vec<Vec3> = raw
            .iter()
            .map(|&(x, y, z)| {
                Vec3::new(y, z, x).try_normalized().unwrap_or(Vec3::Z)
            })
            .collect();

        let mut arena = AggregateArena::default();
        arena.reset(views.len(), d);
        aggregate_points_into(&pts, &dirs, views, d, &mut arena);
        prop_assert_eq!(arena.n_rays(), 1);
        prop_assert_eq!(arena.total_points(), pts.len());
        prop_assert_eq!(arena.stats().cols(), PointAggregate::stats_dim(d));

        for (k, (&p, &dir)) in pts.iter().zip(&dirs).enumerate() {
            let seed = aggregate_point(p, dir, views, d);
            prop_assert_eq!(
                stats_bits(arena.stats_row(k)),
                stats_bits(&seed.stats),
                "stats bits diverged at point {} (d={}, views={})",
                k, d, views.len()
            );
            prop_assert_eq!(&arena.export(k), &seed, "export diverged at point {}", k);
            prop_assert_eq!(arena.n_valid(k), seed.n_valid);
        }
        // The pair count feeding the fused blend head is consistent.
        let pairs: usize = (0..pts.len()).map(|k| arena.n_valid(k)).sum();
        prop_assert_eq!(arena.valid_pairs(), pairs);
    }
}

// ---- allocation budget ----------------------------------------------

#[test]
fn steady_state_fused_render_stays_under_alloc_ceiling() {
    // The canonical allocation workload (the `gates telemetry-overhead`
    // gate times the same one): 32×32, single inline thread, uniform
    // n = 12 — and the same frame coarse-then-focus, the schedule the
    // benchmark and the serve tier run. Each ceiling is documented
    // where it is defined.
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 32, 7);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    for (strategy, ceiling) in [
        (
            SamplingStrategy::Uniform { n: 12 },
            gen_nerf::pipeline::STEADY_STATE_ALLOC_CEILING,
        ),
        (
            SamplingStrategy::coarse_then_focus(16, 12),
            gen_nerf::pipeline::STEADY_STATE_CTF_ALLOC_CEILING,
        ),
    ] {
        let renderer = Renderer::new(
            &model,
            &sources,
            strategy,
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(1);
        let cameras = std::slice::from_ref(&ds.eval_views[0].camera);
        let mut images = [Image::new(0, 0)];
        let mut stats = [RenderStats::default()];
        let mut render = || {
            renderer
                .render_frames(cameras, &[None], &mut images, &mut stats)
                .expect("integrity checking is off");
        };
        // Warm the worker scratch (arena growth, forward buffers) once.
        render();
        let before = local_allocations();
        render();
        let per_frame = local_allocations() - before;
        assert!(
            per_frame < ceiling,
            "steady-state {strategy:?} render performed {per_frame} allocations/frame \
             (ceiling {ceiling}) — a per-ray or per-point allocation is back"
        );
    }
}

#[test]
fn steady_state_arena_acquisition_allocates_nothing() {
    let views = sources();
    let pts: Vec<Vec3> = (0..48)
        .map(|i| {
            Vec3::new(
                (i as f32 * 0.13).sin(),
                (i as f32 * 0.07).cos(),
                i as f32 * 0.02 - 0.5,
            )
        })
        .collect();
    let dirs = vec![Vec3::Z; pts.len()];
    let mut arena = AggregateArena::default();
    // Growth pass.
    arena.reset(views.len(), 12);
    aggregate_points_into(&pts, &dirs, views, 12, &mut arena);
    // Steady-state pass: the tentpole contract — zero heap
    // allocations.
    let before = local_allocations();
    arena.reset(views.len(), 12);
    aggregate_points_into(&pts, &dirs, views, 12, &mut arena);
    let during = local_allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state arena acquisition allocated {during} times"
    );
    assert_eq!(arena.total_points(), pts.len());
}

#[test]
fn hoisted_accounting_leaves_render_stats_unchanged() {
    // The per-ray sums of the accounting hoist must add up to exactly
    // what the per-point adds did: a fixed frame's counters, as the
    // commit before the hoist reported them.
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 32, 7);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let stats_of = |strategy| {
        Renderer::new(
            &model,
            &sources,
            strategy,
            ds.scene.bounds,
            ds.scene.background,
        )
        .with_threads(1)
        .render(&ds.eval_views[0].camera)
        .1
    };
    // (strategy, points, coarse_points, feature_fetches,
    //  flops: acquire / mlp / others / ray_module)
    let pins = [
        (
            SamplingStrategy::Uniform { n: 12 },
            (8112, 0, 170_432),
            [4_601_664, 79_922_944, 97_344, 7_527_936],
        ),
        (
            SamplingStrategy::coarse_then_focus(8, 8),
            (5408, 5408, 188_168),
            [3_723_048, 57_570_112, 129_792, 4_345_472],
        ),
    ];
    for (strategy, counts, flops) in pins {
        let s = stats_of(strategy);
        assert_eq!(s.rays, 676);
        assert_eq!(
            (s.points, s.coarse_points, s.feature_fetches),
            counts,
            "{strategy:?}"
        );
        let buckets: Vec<(&str, u64)> = s.flops.iter().collect();
        let names = ["acquire", "mlp", "others", "ray_module"];
        let expect: Vec<(&str, u64)> = names.into_iter().zip(flops).collect();
        assert_eq!(buckets, expect, "{strategy:?}");
    }
}

#[test]
fn flops_counter_add_to_an_existing_bucket_allocates_nothing() {
    let mut counter = gen_nerf_nn::flops::FlopsCounter::new();
    counter.add("mlp", 1);
    counter.add("acquire", 1);
    let before = local_allocations();
    for k in 0..1000 {
        counter.add("mlp", k);
        counter.add("acquire", 2 * k);
    }
    assert_eq!(local_allocations() - before, 0);
    assert_eq!(counter.get("mlp"), 1 + 499_500);
    assert_eq!(counter.get("acquire"), 1 + 999_000);
}

// ---- literals taken at the commit before the block kernel ------------

/// FNV-1a over a word stream, each word eaten as 8 little-endian bytes.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The fixed frame of the pins below: 24×24, coarse-then-focus
/// (16, 12), one inline thread.
fn pinned_ctf_frame() -> (Image, RenderStats, gen_nerf::pipeline::CoarseFrame) {
    use gen_nerf_geometry::{Camera, Intrinsics, Pose};
    let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 6, 1, 32, 7);
    let sources = prepare_sources(&ds.source_views);
    let model = GenNerfModel::new(ModelConfig::fast());
    let renderer = Renderer::new(
        &model,
        &sources,
        SamplingStrategy::coarse_then_focus(16, 12),
        ds.scene.bounds,
        ds.scene.background,
    )
    .with_threads(1);
    let pose = Pose::look_at(Vec3::new(3.4, 1.1, 0.9), Vec3::ZERO, Vec3::Y);
    let cameras = [Camera::new(Intrinsics::from_fov(24, 24, 0.6), pose)];
    let mut images = [Image::new(0, 0)];
    let mut stats = [RenderStats::default()];
    let coarse = renderer
        .render_frames(&cameras, &[None], &mut images, &mut stats)
        .expect("integrity checking is off")
        .into_iter()
        .next()
        .flatten()
        .expect("an uncached coarse-then-focus render exports its coarse pass");
    let [image] = images;
    let [stats] = stats;
    (image, stats, coarse)
}

#[test]
fn pinned_frame_pixels_and_coarse_frame_match_the_parent_literals() {
    // Not a sibling comparison: these literals were produced by the
    // commit before the block acquisition kernel and the flat
    // `CoarseFrame`, one set per kernel backend (the GEMMs differ in
    // the last ulps between backends; acquisition does not).
    use gen_nerf_nn::kernels::{active_backend, Backend};
    let (pixel_digest, coarse_checksum) = match active_backend() {
        Backend::Scalar => (0xd88e_7ea9_552f_dc74_u64, 0x4d4c_23c5_9b6d_7053_u64),
        Backend::Avx2 => (0xf0f2_6f38_c384_f365_u64, 0xd848_b470_f153_f7bc_u64),
    };
    let (image, stats, mut coarse) = pinned_ctf_frame();
    assert_eq!((image.width(), image.height()), (24, 24));
    assert_eq!(
        (
            stats.rays,
            stats.points,
            stats.coarse_points,
            stats.feature_fetches
        ),
        (576, 6912, 9216, 280_516)
    );
    let got = fnv1a(image.as_slice().iter().map(|v| v.to_bits() as u64));
    assert_eq!(got, pixel_digest, "pixel digest {got:#018x}");

    // The flat layout keeps the digest's byte stream (per ray: count,
    // weight bits; then criticals), so the seal is the parent's too.
    assert_eq!(coarse.n_rays(), 576);
    assert!(coarse.integrity_ok());
    assert_eq!(
        coarse.checksum(),
        coarse_checksum,
        "coarse checksum {:#018x}",
        coarse.checksum()
    );
    // Exact heap size: 4 B per weight, a u32 offset per ray plus the
    // leading 0, a u32 critical count per ray — the parent's
    // approximate figure (Vec<Vec<f32>> payloads + usize criticals)
    // plus those 4 bytes.
    assert_eq!(coarse.approx_bytes(), 41_472 + 4);
    let sealed = coarse.checksum();
    coarse.corrupt_for_chaos(12345);
    assert!(!coarse.integrity_ok());
    assert_eq!(coarse.checksum(), sealed, "corruption must not reseal");
}
