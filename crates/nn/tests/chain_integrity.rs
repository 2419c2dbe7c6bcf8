//! In-panel ABFT of the fused chains (`kernels::chain`): verification
//! never moves a bit, covers every product the layer-by-layer path
//! covered, and elects products at the rate it always did.
//!
//! These tests flip the process-wide integrity mode and arm the
//! process-wide chaos fault, so they live in a test binary of their
//! own — away from the bitwise property tests of the unit suite — and
//! serialize on a local lock.

use gen_nerf_nn::init::Rng;
use gen_nerf_nn::kernels::chain::{
    dense_chain_on, lanes_mlp_on, token_mix_on, ChainLayer, ChainScratch,
};
use gen_nerf_nn::kernels::integrity::{self, IntegrityMode};
use gen_nerf_nn::kernels::{kernel_for, Backend, MicroKernel};
use gen_nerf_nn::layers::Linear;
use gen_nerf_nn::Tensor2;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds the lock for a test and leaves the mode off and the sink and
/// the chaos slot empty, whatever a previous (possibly failed) test
/// left behind.
fn serialized() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    integrity::set_mode(IntegrityMode::Off);
    integrity::disarm_corruption();
    let _ = integrity::take_fault();
    guard
}

fn runnable_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2.available() {
        v.push(Backend::Avx2);
    }
    v
}

fn values(seed: u32, len: usize) -> Vec<f32> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed) % 2048) as f32 / 1024.0 - 1.0)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The four chains of the fused forward (point MLP, coarse MLP, blend
/// head, mixer channel phase + projection) with seeded weights.
fn forward_chains() -> Vec<(Vec<Linear>, bool)> {
    let mut rng = Rng::seed_from(7);
    [
        (&[26usize, 48, 48, 19][..], false),
        (&[8, 16, 16, 1][..], false),
        (&[2, 8, 8, 1][..], false),
        (&[16, 16, 1][..], true),
    ]
    .into_iter()
    .map(|(dims, residual)| {
        let layers = dims
            .windows(2)
            .map(|d| {
                let mut l = Linear::new(d[0], d[1], &mut rng);
                l.b.value = Tensor2::from_fn(1, d[1], |_, c| (c as f32 * 0.7).sin() * 0.3);
                l
            })
            .collect();
        (layers, residual)
    })
    .collect()
}

fn chain_layers(linears: &[Linear], residual: bool) -> Vec<ChainLayer<'_>> {
    let last = linears.len() - 1;
    linears
        .iter()
        .enumerate()
        .map(|(l, lin)| lin.chain_layer(l < last, residual && l == 0))
        .collect()
}

fn run_chain(kernel: &dyn MicroKernel, layers: &[ChainLayer<'_>], x: &[f32], m: usize) -> Vec<f32> {
    let n = layers.last().unwrap().n;
    let mut out = vec![f32::NAN; m * n];
    dense_chain_on(
        kernel,
        x,
        m,
        layers,
        &mut out,
        n,
        &mut ChainScratch::default(),
    );
    out
}

/// A tile of rays of mixed lengths (one empty) over `W₁` of `N_max` =
/// 64, the features at a non-unit stride.
struct MixTile {
    offsets: Vec<usize>,
    x: Vec<f32>,
    w1: Vec<f32>,
    b1: Vec<f32>,
}

const MIX_D: usize = 16;
const MIX_LDX: usize = 19;
const MIX_N_MAX: usize = 64;

fn mix_tile() -> MixTile {
    let mut offsets = vec![0usize];
    for n in [5usize, 0, 64, 1, 13, 8, 30] {
        offsets.push(offsets.last().unwrap() + n);
    }
    let total = *offsets.last().unwrap();
    MixTile {
        offsets,
        x: values(21, total * MIX_LDX),
        w1: values(22, MIX_N_MAX * MIX_N_MAX),
        b1: values(23, MIX_N_MAX),
    }
}

fn run_mix(kernel: &dyn MicroKernel, t: &MixTile) -> Vec<f32> {
    let total = *t.offsets.last().unwrap();
    let mut f = vec![f32::NAN; total * MIX_D];
    token_mix_on(
        kernel, &t.x, MIX_LDX, MIX_D, &t.offsets, &t.w1, MIX_N_MAX, &t.b1, &mut f,
    );
    f
}

#[test]
fn full_checking_is_bitwise_invisible_and_clean() {
    let _g = serialized();
    let tile = mix_tile();
    for backend in runnable_backends() {
        let kernel = kernel_for(backend);
        for (linears, residual) in forward_chains() {
            let layers = chain_layers(&linears, residual);
            for m in [1usize, 25, 300] {
                let x = values(m as u32, m * layers[0].k);
                integrity::set_mode(IntegrityMode::Off);
                let off = run_chain(kernel, &layers, &x, m);
                integrity::set_mode(IntegrityMode::Full);
                let checks = integrity::check_stats().0;
                let full = run_chain(kernel, &layers, &x, m);
                assert_eq!(
                    integrity::check_stats().0 - checks,
                    layers.len() as u64,
                    "one check per layer per call"
                );
                assert_eq!(bits(&off), bits(&full), "{}: m {m}", backend.name());
                assert_eq!(integrity::take_fault(), None, "{}: m {m}", backend.name());
            }
        }
        integrity::set_mode(IntegrityMode::Off);
        let off = run_mix(kernel, &tile);
        integrity::set_mode(IntegrityMode::Full);
        let checks = integrity::check_stats().0;
        let full = run_mix(kernel, &tile);
        assert_eq!(integrity::check_stats().0 - checks, 1);
        assert_eq!(bits(&off), bits(&full), "{}: token mix", backend.name());
        assert_eq!(integrity::take_fault(), None, "{}", backend.name());
    }
    integrity::set_mode(IntegrityMode::Off);
}

/// The chaos seed that lands in the `layer`-th verified product at
/// output row `row` of `m` (the fault's placement is `seed >> 40`
/// modulo the verified layers, `seed % m`, `(seed >> 17) % n`).
fn seed_for(layer: usize, col: u64, row: usize, m: usize) -> u64 {
    let (row, m) = (row as u64, m as u64);
    let base = ((layer as u64) << 40) | (col << 17);
    base + (row + m - base % m) % m
}

#[test]
fn an_armed_fault_is_caught_in_every_layer_and_panel_exactly_once() {
    let _g = serialized();
    integrity::set_mode(IntegrityMode::Full);
    // 300 rows: at least three panels of every chain (the widest panel
    // is 144 rows), so row 0 / 150 / 299 are a first, a middle and the
    // last one.
    let m = 300usize;
    for backend in runnable_backends() {
        let kernel = kernel_for(backend);
        for (linears, residual) in forward_chains() {
            let layers = chain_layers(&linears, residual);
            let x = values(5, m * layers[0].k);
            let clean = run_chain(kernel, &layers, &x, m);
            for (l, layer) in layers.iter().enumerate() {
                for row in [0usize, 150, 299] {
                    for col_seed in [0u64, 3, 17] {
                        let seed = seed_for(l, col_seed, row, m);
                        integrity::arm_corruption(seed);
                        let faulted = run_chain(kernel, &layers, &x, m);
                        let err = integrity::take_fault().unwrap_or_else(|| {
                            panic!("{}: layer {l} row {row} undetected", backend.name())
                        });
                        assert_eq!((err.row, err.m), (row, m));
                        assert_eq!((err.k, err.n), (layer.k, layer.n), "wrong product");
                        assert!(
                            !integrity::disarm_corruption(),
                            "the charge must be consumed"
                        );
                        // Exactly once: the perturbed row flows on, no
                        // other row moves, and the next call is clean.
                        let n = layers.last().unwrap().n;
                        for i in (0..m).filter(|&i| i != row) {
                            assert_eq!(
                                bits(&faulted[i * n..(i + 1) * n]),
                                bits(&clean[i * n..(i + 1) * n])
                            );
                        }
                        assert_eq!(bits(&run_chain(kernel, &layers, &x, m)), bits(&clean));
                        assert_eq!(integrity::take_fault(), None);
                    }
                }
            }
        }
        // The token mix: a fault in the first, a middle and the last
        // ray of the tile (row 0 / 70 / total − 1).
        let tile = mix_tile();
        let total = *tile.offsets.last().unwrap();
        let clean = run_mix(kernel, &tile);
        for row in [0usize, 70, total - 1] {
            integrity::arm_corruption(seed_for(0, 5, row, total));
            run_mix(kernel, &tile);
            let err = integrity::take_fault()
                .unwrap_or_else(|| panic!("{}: token row {row} undetected", backend.name()));
            assert_eq!((err.row, err.m, err.n), (row, total, MIX_D));
            assert!(!integrity::disarm_corruption());
            assert_eq!(bits(&run_mix(kernel, &tile)), bits(&clean));
            assert_eq!(integrity::take_fault(), None);
        }
    }
    integrity::set_mode(IntegrityMode::Off);
}

#[test]
fn sample_mode_ticks_once_per_layer_per_call() {
    let _g = serialized();
    integrity::set_mode(IntegrityMode::Sample);
    let kernel = kernel_for(Backend::Scalar);
    let period = integrity::SAMPLE_PERIOD as u64;
    // Whatever phase the process-wide counter is in, `period` calls of
    // an L-layer chain are L·period ticks, i.e. exactly L elections —
    // per layer, not per call (that would be 1) nor per panel (300
    // rows are 3 to 13 panels).
    for (linears, residual) in forward_chains() {
        let layers = chain_layers(&linears, residual);
        let x = values(9, 300 * layers[0].k);
        let before = integrity::check_stats().0;
        for _ in 0..period {
            run_chain(kernel, &layers, &x, 300);
        }
        assert_eq!(integrity::check_stats().0 - before, layers.len() as u64);
    }
    // The token mix is one product per call, however many rays.
    let tile = mix_tile();
    let before = integrity::check_stats().0;
    for _ in 0..period {
        run_mix(kernel, &tile);
    }
    assert_eq!(integrity::check_stats().0 - before, 1);
    // And `matmul_into` is what it always was.
    let (a, b) = (Tensor2::full(4, 3, 0.5), Tensor2::full(3, 2, 0.25));
    let before = integrity::check_stats().0;
    for _ in 0..period {
        a.matmul(&b);
    }
    assert_eq!(integrity::check_stats().0 - before, 1);
    assert_eq!(integrity::take_fault(), None);
    integrity::set_mode(IntegrityMode::Off);
}

/// The blend head through `lanes_mlp`: checked exactly as the chain of
/// its layers is — one check per layer per call in `full`, bitwise the
/// unchecked lanes kernel, an armed fault caught in the layer it was
/// aimed at — and ticking the sample counter once per layer per call.
#[test]
fn lanes_mlp_is_checked_as_its_chain() {
    let _g = serialized();
    let chains = forward_chains();
    let layers = chain_layers(&chains[2].0, false);
    let layers: [ChainLayer<'_>; 3] = layers.try_into().unwrap();
    let m = 300usize;
    let x = values(31, 2 * m);
    let run = |kernel: &dyn MicroKernel| {
        let mut out = vec![f32::NAN; m];
        let mut scratch = ChainScratch::default();
        lanes_mlp_on(kernel, &x, m, &layers, &mut out, &mut scratch);
        out
    };
    for backend in runnable_backends() {
        let kernel = kernel_for(backend);
        integrity::set_mode(IntegrityMode::Off);
        let off = run(kernel);
        integrity::set_mode(IntegrityMode::Full);
        let checks = integrity::check_stats().0;
        let full = run(kernel);
        assert_eq!(
            integrity::check_stats().0 - checks,
            3,
            "one check per layer"
        );
        assert_eq!(bits(&off), bits(&full), "{}", backend.name());
        assert_eq!(integrity::take_fault(), None, "{}", backend.name());
        for (l, row) in [(0usize, 0usize), (1, 150), (2, 299)] {
            integrity::arm_corruption(seed_for(l, 3, row, m));
            run(kernel);
            let err = integrity::take_fault()
                .unwrap_or_else(|| panic!("{}: layer {l} row {row} undetected", backend.name()));
            assert_eq!((err.row, err.m), (row, m));
            assert_eq!((err.k, err.n), (layers[l].k, layers[l].n), "wrong product");
            assert!(
                !integrity::disarm_corruption(),
                "the charge must be consumed"
            );
        }
    }
    integrity::set_mode(IntegrityMode::Sample);
    let before = integrity::check_stats().0;
    for _ in 0..integrity::SAMPLE_PERIOD {
        run(kernel_for(Backend::Scalar));
    }
    assert_eq!(integrity::check_stats().0 - before, 3);
    assert_eq!(integrity::take_fault(), None);
    integrity::set_mode(IntegrityMode::Off);
}
