//! Edge-coloring substrate benchmarks: the colorers behind Saia's
//! baseline, the homogeneous baseline, and Phase 2 of the general
//! algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmig_color::{kempe::kempe_coloring, misra_gries::misra_gries_coloring};
use dmig_graph::Multigraph;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_multigraph(n: usize, m: usize, seed: u64) -> Multigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Multigraph::with_nodes(n);
    for _ in 0..m {
        loop {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_edge(u.into(), v.into());
                break;
            }
        }
    }
    g
}

fn random_simple(n: usize, p: f64, seed: u64) -> Multigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Multigraph::with_nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u.into(), v.into());
            }
        }
    }
    g
}

fn colorers(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    group.sample_size(10);
    for &(n, m) in &[(64usize, 800usize), (128, 3200)] {
        let g = random_multigraph(n, m, 3);
        group.bench_with_input(BenchmarkId::new("kempe", m), &g, |b, g| {
            b.iter(|| kempe_coloring(g));
        });
    }
    let simple = random_simple(96, 0.3, 4);
    group.bench_with_input(
        BenchmarkId::new("misra_gries", simple.num_edges()),
        &simple,
        |b, g| {
            b.iter(|| misra_gries_coloring(g));
        },
    );
    group.finish();
}

criterion_group!(benches, colorers);
criterion_main!(benches);
