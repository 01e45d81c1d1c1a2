//! Integration tests pinning the paper's headline claims, end to end.
//!
//! Each test corresponds to a figure or theorem of *"Data Migration in
//! Heterogeneous Storage Systems"* (ICDCS 2011); see `DESIGN.md` §4 for
//! the experiment index.

use dmig::graph::builder::{complete_multigraph, cycle_multigraph};
use dmig::prelude::*;
use dmig::workloads::{capacities, disk_ops, random, reconfigure};

/// Fig. 2: `K3` with `M` parallel items. With `c_v = 2` the optimum is
/// `M` rounds / `2M` time units; one-at-a-time scheduling needs `3M`
/// rounds / `3M` time units.
#[test]
fn fig2_heterogeneity_gap() {
    for m in [1usize, 3, 10, 25] {
        let p = MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap();
        let cluster = Cluster::uniform(3, 1.0);

        let het = EvenOptimalSolver.solve(&p).unwrap();
        het.validate(&p).unwrap();
        assert_eq!(het.makespan(), m);
        let t_het = simulate_rounds(&p, &het, &cluster).unwrap().total_time;
        assert!((t_het - 2.0 * m as f64).abs() < 1e-9);

        let hom = HomogeneousSolver.solve(&p).unwrap();
        hom.validate(&p).unwrap();
        assert_eq!(hom.makespan(), 3 * m, "χ' of K3 with m parallels is 3m");
        let t_hom = simulate_rounds(&p, &hom, &cluster).unwrap().total_time;
        assert!((t_hom - 3.0 * m as f64).abs() < 1e-9);
    }
}

/// Theorem 4.1: even transfer constraints admit a schedule of exactly
/// `Δ' = max ⌈d_v/c_v⌉` rounds, across workload shapes.
#[test]
fn theorem_4_1_even_capacities_optimal() {
    let cases: Vec<MigrationProblem> = vec![
        MigrationProblem::uniform(complete_multigraph(6, 3), 4).unwrap(),
        MigrationProblem::uniform(cycle_multigraph(9, 2), 2).unwrap(),
        MigrationProblem::new(
            random::uniform_multigraph(40, 600, 1),
            capacities::random_even(40, 4, 1),
        )
        .unwrap(),
        MigrationProblem::new(
            reconfigure::load_balance_delta(30, 500, 2),
            capacities::random_even(30, 3, 2),
        )
        .unwrap(),
        MigrationProblem::new(
            disk_ops::disk_addition(20, 4, 300, 3),
            capacities::random_even(24, 4, 3),
        )
        .unwrap(),
    ];
    for p in &cases {
        let s = EvenOptimalSolver.solve(p).unwrap();
        s.validate(p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime(), "not optimal on {p}");
    }
}

/// Theorem 5.1 shape: on arbitrary capacities the general solver stays
/// within `LB + 2⌈√LB⌉ + 2` (and usually hits LB).
#[test]
fn theorem_5_1_general_near_optimal() {
    for seed in 0..10u64 {
        let n = 10 + (seed as usize % 5) * 8;
        let m = 100 + 150 * seed as usize;
        let p = MigrationProblem::new(
            random::uniform_multigraph(n, m, seed),
            capacities::mixed_parity(n, 1, 5, seed),
        )
        .unwrap();
        let s = GeneralSolver::default().solve(&p).unwrap();
        s.validate(&p).unwrap();
        let lb = bounds::lower_bound(&p);
        let sqrt_envelope = lb + 2 * (lb as f64).sqrt().ceil() as usize + 2;
        assert!(
            s.makespan() <= sqrt_envelope,
            "makespan {} vs envelope {sqrt_envelope} on {p}",
            s.makespan()
        );
    }
}

/// Saia's baseline keeps its 1.5 guarantee; the general solver tracks it
/// within one round (strict dominance is not a theorem — fuzzing finds
/// rare fat-triangle instances where escalation ends one round behind).
#[test]
fn saia_envelope_and_dominance() {
    for seed in 0..8u64 {
        let n = 8 + 2 * seed as usize;
        let p = MigrationProblem::new(
            random::uniform_multigraph(n, 40 * (seed as usize + 1), seed),
            capacities::mixed_parity(n, 1, 4, seed ^ 0xF),
        )
        .unwrap();
        let saia = SaiaSolver.solve(&p).unwrap();
        saia.validate(&p).unwrap();
        let lb1 = bounds::lb1(&p);
        assert!(
            saia.makespan() <= 3 * lb1 / 2 + 1,
            "saia beyond 1.5 envelope on {p}"
        );
        let general = GeneralSolver::default().solve(&p).unwrap();
        assert!(
            general.makespan() <= saia.makespan() + 1,
            "general must stay within one round of saia on {p}"
        );
    }
}

/// Both §III lower bounds hold for every solver's schedule, and
/// `Γ' ≤ Δ'` unconditionally.
#[test]
fn lower_bounds_hold_universally() {
    for seed in 0..6u64 {
        let n = 6 + 2 * seed as usize;
        let p = MigrationProblem::new(
            random::uniform_multigraph(n, 30 + 20 * seed as usize, seed + 50),
            capacities::mixed_parity(n, 1, 5, seed + 51),
        )
        .unwrap();
        let lb1 = bounds::lb1(&p);
        let lb2 = bounds::lb2(&p);
        assert!(lb2 <= lb1, "mediant argument violated on {p}");
        if p.num_disks() <= 18 {
            assert_eq!(lb2, bounds::lb2_bruteforce(&p));
        }
        for solver in all_solvers() {
            if let Ok(s) = solver.solve(&p) {
                s.validate(&p).unwrap();
                assert!(
                    s.makespan() >= lb1.max(lb2),
                    "{} beats the lower bound (!) on {p}",
                    solver.name()
                );
            }
        }
    }
}

/// Bipartite reconfiguration workloads are scheduled exactly optimally
/// regardless of capacity parity (the even solver's quota partition on
/// the left → right orientation the sides give).
#[test]
fn bipartite_workloads_exactly_optimal() {
    for seed in 0..6u64 {
        let g = disk_ops::disk_removal(20, 3, 200 + 30 * seed as usize, seed);
        let p = MigrationProblem::new(g, capacities::mixed_parity(20, 1, 5, seed)).unwrap();
        let s = BipartiteOptimalSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
        // Auto must find the same optimum.
        let auto = AutoSolver.solve(&p).unwrap();
        assert_eq!(auto.makespan(), p.delta_prime());
    }
}

/// The NP-hard frontier: with `c_v = 1` the problem is multigraph edge
/// coloring; on odd cycles the lower bound is off by one and every exact
/// method must pay Δ'+1.
#[test]
fn odd_cycle_hardness_frontier() {
    for n in [3usize, 5, 7, 9] {
        let p = MigrationProblem::uniform(cycle_multigraph(n, 1), 1).unwrap();
        let s = GeneralSolver::default().solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(bounds::lower_bound(&p), 2);
        assert_eq!(s.makespan(), 3, "odd cycles need 3 rounds at c=1");
    }
}
