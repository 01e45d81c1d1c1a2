//! Pins the bipartite solver's output byte for byte.
//!
//! `solve_bipartite` runs every item left → right through the quota
//! partition: Euler splits at even round counts and one max-flow peel at
//! odd ones. A seeded sweep of random bipartite instances with mixed odd
//! and even capacities is solved, and every schedule is folded into one
//! FNV-1a digest, so a change that moves any round, or any item within a
//! round, changes the digest. The small sweep covers both even and odd
//! `Δ'` of at least 3. The large instances (at least 512 items, `Δ' ≥ 4`)
//! go through a 4-thread [`ParallelSolver`], which lets the quota
//! recursion recruit helper workers; their schedules must not depend on
//! that.

use dmig_core::bipartite_opt::solve_bipartite;
use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{BipartiteOptimalSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule};
use dmig_graph::Multigraph;

mod digest;
use digest::{Fnv, SplitMix};

/// A random bipartite instance: every disk draws its side, each of the
/// `items` items joins one disk of each side (stored in either direction),
/// and capacities are uniform in `1..=max_cap`.
fn instance(rng: &mut SplitMix, max_n: usize, items: usize, max_cap: usize) -> MigrationProblem {
    let n = rng.range(2, max_n + 1);
    let mut sides = [Vec::new(), Vec::new()];
    for v in 0..n {
        sides[(rng.next() % 2) as usize].push(v);
    }
    if sides[0].is_empty() || sides[1].is_empty() {
        sides = [vec![0], (1..n).collect()];
    }
    let edges: Vec<(usize, usize)> = (0..items)
        .map(|_| {
            let u = sides[0][rng.range(0, sides[0].len())];
            let v = sides[1][rng.range(0, sides[1].len())];
            if rng.next() % 2 == 0 {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    let g = Multigraph::from_edges(n, &edges).unwrap();
    let caps: Capacities = (0..n).map(|_| 1 + rng.range(0, max_cap) as u32).collect();
    MigrationProblem::new(g, caps).unwrap()
}

fn fold(digest: &mut Fnv, p: &MigrationProblem, s: &MigrationSchedule) {
    s.validate(p).unwrap();
    assert_eq!(
        s.makespan(),
        p.delta_prime(),
        "bipartite plans take Δ' on {p}"
    );
    digest.word(s.makespan() as u64);
    for round in s.rounds() {
        digest.word(round.len() as u64);
        for e in round {
            digest.word(e.index() as u64);
        }
    }
}

#[test]
fn bipartite_solver_output_is_pinned() {
    let mut rng = SplitMix(0xB1_9A27);
    let mut digest = Fnv::new();
    // Instances whose Δ' ≥ 3 is even (the recursion opens with a split)
    // and odd (it opens with a peel).
    let mut opened = [0usize; 2];
    for _ in 0..300 {
        let items = rng.range(1, 41);
        let p = instance(&mut rng, 10, items, 5);
        let delta = p.delta_prime();
        if delta >= 3 {
            opened[delta % 2] += 1;
        }
        fold(&mut digest, &p, &solve_bipartite(&p).unwrap());
    }
    assert!(opened[0] > 0, "the sweep must open with an Euler split");
    assert!(opened[1] > 0, "the sweep must open with a max-flow peel");

    let parallel = ParallelSolver::with_threads(Box::new(BipartiteOptimalSolver), 4);
    let mut large = [0usize; 2];
    dmig_obs::set_enabled(true);
    for _ in 0..6 {
        let items = rng.range(512, 1500);
        let p = instance(&mut rng, 16, items, 8);
        let delta = p.delta_prime();
        assert!(delta >= 4, "a large instance must have Δ' ≥ 4, not {delta}");
        large[delta % 2] += 1;
        fold(&mut digest, &p, &parallel.solve(&p).unwrap());
    }
    let snapshot = dmig_obs::snapshot();
    dmig_obs::set_enabled(false);
    let workers = snapshot.gauges.get(dmig_obs::keys::POOL_MAX_WORKERS);
    assert!(
        workers.is_some_and(|&w| w > 1),
        "the quota recursion must recruit helper workers: {workers:?}"
    );
    assert!(
        large[0] > 0 && large[1] > 0,
        "the large instances must take both even and odd Δ': {large:?}"
    );
    assert_eq!(
        digest.0, 0xa855_889e_27ef_94a4,
        "bipartite solver output changed: digest {:#018x}",
        digest.0
    );
}
