//! Perf-PR benchmarks: the flat-kernel even solver against the frozen seed
//! kernels, and component-parallel solving against whole-graph solving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmig_bench::corpus::multi_component_even;
use dmig_bench::seed_baseline::solve_even_seed;
use dmig_core::even::solve_even;
use dmig_core::parallel::{default_threads, ParallelSolver};
use dmig_core::solver::{EvenOptimalSolver, Solver};
use dmig_core::MigrationProblem;
use dmig_workloads::{capacities, random};

fn even_instance(n: usize, seed: u64) -> MigrationProblem {
    let g = random::uniform_multigraph(n, 4 * n, seed);
    let caps = capacities::random_even(n, 3, seed ^ 1);
    MigrationProblem::new(g, caps).expect("generated instance is valid")
}

fn kernels_vs_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_even_kernels");
    group.sample_size(10);
    for &n in &[100usize, 1_000] {
        let p = even_instance(n, 0xD16);
        group.bench_with_input(BenchmarkId::new("seed", n), &p, |b, p| {
            b.iter(|| solve_even_seed(p).expect("solves").makespan());
        });
        group.bench_with_input(BenchmarkId::new("optimized", n), &p, |b, p| {
            b.iter(|| solve_even(p).expect("solves").makespan());
        });
    }
    group.finish();
}

fn component_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("component_parallel");
    group.sample_size(10);
    let p = multi_component_even(8, 125, 500, 0xC0);
    let threads = default_threads();
    let split = |threads| ParallelSolver::with_threads(Box::new(EvenOptimalSolver), threads);
    group.bench_with_input(
        BenchmarkId::new("whole_graph", p.num_disks()),
        &p,
        |b, p| {
            b.iter(|| solve_even(p).expect("solves").makespan());
        },
    );
    group.bench_with_input(
        BenchmarkId::new("split_1_thread", p.num_disks()),
        &p,
        |b, p| {
            let solver = split(1);
            b.iter(|| solver.solve(p).expect("solves").makespan());
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("split_{threads}_threads"), p.num_disks()),
        &p,
        |b, p| {
            let solver = split(threads);
            b.iter(|| solver.solve(p).expect("solves").makespan());
        },
    );
    group.finish();
}

/// Recorder cost on the full even pipeline: the disabled fast path must be
/// indistinguishable from an uninstrumented build (≤1%), and the enabled
/// cost stays small because only phase boundaries are recorded.
fn obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let p = even_instance(1_000, 0xD16);
    dmig_obs::set_enabled(false);
    dmig_obs::reset();
    group.bench_with_input(
        BenchmarkId::new("recorder_disabled", p.num_disks()),
        &p,
        |b, p| {
            b.iter(|| solve_even(p).expect("solves").makespan());
        },
    );
    dmig_obs::set_enabled(true);
    group.bench_with_input(
        BenchmarkId::new("recorder_enabled", p.num_disks()),
        &p,
        |b, p| {
            b.iter(|| solve_even(p).expect("solves").makespan());
        },
    );
    dmig_obs::set_enabled(false);
    dmig_obs::reset();
    group.finish();
}

criterion_group!(benches, kernels_vs_seed, component_parallel, obs_overhead);
criterion_main!(benches);
