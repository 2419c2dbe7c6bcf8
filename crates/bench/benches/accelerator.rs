//! Criterion benches for the cycle-level accelerator simulator — the
//! machinery behind Tab. 4, Fig. 10 and Fig. 11.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::dataflow::DataflowVariant;
use gen_nerf_accel::simulator::Simulator;
use gen_nerf_accel::workload::WorkloadSpec;

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for views in [2usize, 6] {
        let spec = WorkloadSpec::gen_nerf_default(96, 96, views, 64);
        group.bench_with_input(
            BenchmarkId::new("gen_nerf_96px", views),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let sim = Simulator::new(AcceleratorConfig::paper());
                    sim.simulate(spec)
                })
            },
        );
    }
    // The repo benchmark's `accel_sim` call, shape for shape.
    let spec = WorkloadSpec::gen_nerf_default(252, 189, 6, 64);
    let sim = Simulator::new(AcceleratorConfig::paper()).with_threads(1);
    group.bench_function(BenchmarkId::new("gen_nerf_252x189", "1thread"), |b| {
        b.iter(|| sim.simulate(&spec))
    });
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_variants");
    group.sample_size(10);
    let mut cfg = AcceleratorConfig::paper();
    cfg.prefetch_buffer_kb = 24;
    let spec = WorkloadSpec::gen_nerf_default(64, 64, 4, 32);
    for variant in DataflowVariant::all() {
        group.bench_with_input(
            BenchmarkId::new("fig12", variant.label()),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    let sim = Simulator::with_variant(cfg, variant);
                    sim.simulate(&spec)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulate, bench_variants);
criterion_main!(benches);
