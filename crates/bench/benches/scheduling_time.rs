//! Criterion micro-benchmarks for the §III.F complexity discussion: the
//! wall-clock cost of each scheduler and of LoC-MPS's building blocks as
//! `|V|` and `P` grow (the paper reports LoC-MPS overheads of up to 30 s
//! at 128 processors and ~two orders of magnitude below the application
//! makespans).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use locmps_baselines::registry::paper_set;
use locmps_core::{Allocation, CommModel, LocMps, Locbs, LocbsOptions, Scheduler};
use locmps_platform::{redistribution_time, Cluster, ProcSet};
use locmps_taskgraph::ConcurrencyInfo;
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};

fn graph(n: usize, ccr: f64) -> locmps_taskgraph::TaskGraph {
    synthetic_graph(&SyntheticConfig {
        n_tasks: n,
        ccr,
        seed: 42,
        ..Default::default()
    })
}

/// Full scheduler runs: one per scheme, fixed 30-task CCR=0.1 graph, P=32.
fn bench_schedulers(c: &mut Criterion) {
    let g = graph(30, 0.1);
    let cluster = Cluster::fast_ethernet(32);
    let mut group = c.benchmark_group("scheduler/30tasks/p32");
    group.sample_size(10);
    for kind in paper_set() {
        let s = kind.build();
        group.bench_function(s.name(), |b| {
            b.iter(|| s.schedule(&g, &cluster).unwrap().makespan())
        });
    }
    group.finish();
}

/// LoC-MPS scaling in the number of tasks (the dominant complexity term).
fn bench_locmps_scaling_tasks(c: &mut Criterion) {
    let cluster = Cluster::fast_ethernet(32);
    let mut group = c.benchmark_group("locmps/tasks");
    group.sample_size(10);
    for n in [10usize, 20, 40] {
        let g = graph(n, 0.1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let s = LocMps::default();
            b.iter(|| s.schedule(g, &cluster).unwrap().makespan())
        });
    }
    group.finish();
}

/// LoC-MPS scaling in the machine size.
fn bench_locmps_scaling_procs(c: &mut Criterion) {
    let g = graph(20, 0.1);
    let mut group = c.benchmark_group("locmps/procs");
    group.sample_size(10);
    for p in [8usize, 32, 128] {
        let cluster = Cluster::fast_ethernet(p);
        group.bench_with_input(BenchmarkId::from_parameter(p), &cluster, |b, cluster| {
            let s = LocMps::default();
            b.iter(|| s.schedule(&g, cluster).unwrap().makespan())
        });
    }
    group.finish();
}

/// One LoCBS pass, with and without backfilling (the Figure 6 trade-off at
/// micro scale).
fn bench_locbs(c: &mut Criterion) {
    let g = graph(40, 0.1);
    let cluster = Cluster::fast_ethernet(64);
    let model = CommModel::new(&cluster);
    let alloc = Allocation::from_vec(g.task_ids().map(|t| 1 + t.index() % 8).collect::<Vec<_>>());
    let mut group = c.benchmark_group("locbs/40tasks/p64");
    group.bench_function("backfill", |b| {
        let s = Locbs::new(model, LocbsOptions { backfill: true });
        b.iter(|| s.run(&g, &alloc).unwrap().makespan)
    });
    group.bench_function("no-backfill", |b| {
        let s = Locbs::new(model, LocbsOptions { backfill: false });
        b.iter(|| s.run(&g, &alloc).unwrap().makespan)
    });
    group.finish();
}

/// Building blocks: concurrency sets and block-cyclic transfer times.
fn bench_primitives(c: &mut Criterion) {
    let g = graph(50, 0.1);
    c.bench_function("concurrency_info/50tasks", |b| {
        b.iter(|| ConcurrencyInfo::compute(&g))
    });
    let a: ProcSet = (0u32..96).collect();
    let d: ProcSet = (32u32..112).collect();
    c.bench_function("redistribution_time/96x80", |b| {
        b.iter(|| redistribution_time(&a, &d, 1000.0, 12.5))
    });
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_locmps_scaling_tasks,
    bench_locmps_scaling_procs,
    bench_locbs,
    bench_primitives
);
criterion_main!(benches);
