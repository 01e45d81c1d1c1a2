//! E9 — the Fig. 3 flow machinery: degree-constrained subgraph extraction
//! (the inner loop of the even-capacity solver) and the exact `Γ'`
//! densest-subgraph computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmig_core::{bounds, MigrationProblem};
use dmig_flow::DegreeSubgraphExtractor;
use dmig_workloads::{capacities, random};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A balanced arc set where every node has out-degree = in-degree = `d`,
/// mimicking an Euler-oriented padded transfer graph.
fn regular_arcs(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arcs = Vec::with_capacity(n * d);
    for _ in 0..d {
        // A random permutation is a 1-regular orientation; d of them stack.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (u, &v) in perm.iter().enumerate() {
            arcs.push((u, v));
        }
    }
    arcs
}

fn degree_constrained(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_degree_constrained");
    group.sample_size(10);
    for &(n, d) in &[(64usize, 4usize), (256, 4), (256, 16)] {
        let arcs = regular_arcs(n, d, 9);
        let quota = vec![u32::try_from(d / 2).expect("small"); n];
        group.bench_with_input(
            BenchmarkId::new("extract", format!("n{n}_d{d}")),
            &(arcs, quota),
            |b, (arcs, quota)| {
                let mut extractor = DegreeSubgraphExtractor::new();
                let mut selection = Vec::new();
                b.iter(|| {
                    extractor
                        .extract_into(n, arcs, quota, quota, &mut selection)
                        .expect("regular is feasible");
                });
            },
        );
    }
    group.finish();
}

fn gamma_prime(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma_prime_densest");
    group.sample_size(10);
    for &(n, m) in &[(32usize, 400usize), (64, 1600), (128, 6400)] {
        let g = random::uniform_multigraph(n, m, 5);
        let p = MigrationProblem::new(g, capacities::mixed_parity(n, 1, 5, 5)).expect("valid");
        group.bench_with_input(BenchmarkId::new("lb2", m), &p, |b, p| {
            b.iter(|| bounds::lb2(p));
        });
    }
    group.finish();
}

criterion_group!(benches, degree_constrained, gamma_prime);
criterion_main!(benches);
