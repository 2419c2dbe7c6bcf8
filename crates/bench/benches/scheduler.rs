//! Criterion benches for the greedy 3D-point-patch scheduler — the
//! machinery behind Fig. 5 and the workload-scheduler block of Tab. 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::scheduler::{CameraRig, Scheduler};

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_partition");
    group.sample_size(10);
    let rig = CameraRig::orbit(128, 128, 6);
    let sched = Scheduler::new(64 * 1024);
    group.bench_function(BenchmarkId::new("greedy", "128px"), |b| {
        b.iter(|| sched.partition(&rig, 128, 128, 64, 12))
    });
    group.bench_function(BenchmarkId::new("fixed", "128px"), |b| {
        b.iter(|| sched.partition_fixed(&rig, 128, 128, 64, 12))
    });
    // The focused stage of the repo benchmark's `accel_sim` workload:
    // the paper's 256 KB prefetch half at a quarter-scale frame.
    let rig = CameraRig::orbit(252, 189, 6);
    let sched = Scheduler::new(AcceleratorConfig::paper().prefetch_capacity_bytes());
    group.bench_function(BenchmarkId::new("greedy", "252x189"), |b| {
        b.iter(|| sched.partition(&rig, 252, 189, 64, 12))
    });
    group.bench_function(BenchmarkId::new("fixed", "252x189"), |b| {
        b.iter(|| sched.partition_fixed(&rig, 252, 189, 64, 12))
    });
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
