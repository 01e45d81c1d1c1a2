//! Edge-case and cross-solver agreement tests for the scheduling core.

use dmig_core::solver::{
    all_solvers, AutoSolver, BipartiteOptimalSolver, EvenOptimalSolver, GeneralSolver, Solver,
};
use dmig_core::{bounds, exact::solve_exact, general::solve_general, Capacities, MigrationProblem};
use dmig_graph::builder::{
    complete_multigraph, cycle_multigraph, path_multigraph, star_multigraph,
};
use dmig_graph::{GraphBuilder, Multigraph};

#[test]
fn capacity_larger_than_degree_is_one_round() {
    // Every disk can take far more transfers than it has: 1 round.
    let g = complete_multigraph(4, 1);
    let p = MigrationProblem::uniform(g, 100).unwrap();
    assert_eq!(p.delta_prime(), 1);
    for solver in [&AutoSolver as &dyn Solver, &GeneralSolver::default()] {
        let s = solver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 1, "{}", solver.name());
    }
}

#[test]
fn single_pair_with_huge_multiplicity() {
    let g = GraphBuilder::new().parallel_edges(0, 1, 1000).build();
    let p = MigrationProblem::new(g, Capacities::from_vec(vec![8, 4])).unwrap();
    // Bottleneck is the c=4 disk: ⌈1000/4⌉ = 250 rounds.
    assert_eq!(p.delta_prime(), 250);
    let s = AutoSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 250);
}

#[test]
fn saturated_star_drains_at_hub_rate() {
    let g = star_multigraph(10, 3); // hub degree 30
    let p = MigrationProblem::new(
        g,
        Capacities::from_vec(
            std::iter::once(5u32)
                .chain(std::iter::repeat(3).take(10))
                .collect(),
        ),
    )
    .unwrap();
    assert_eq!(p.delta_prime(), 6); // ⌈30/5⌉
    let s = GeneralSolver::default().solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 6);
}

#[test]
fn three_way_agreement_on_even_bipartite_instances() {
    // Even caps + bipartite: even solver, bipartite solver, and exact
    // solver must all deliver Δ' rounds.
    let g = GraphBuilder::new()
        .parallel_edges(0, 2, 3)
        .parallel_edges(1, 2, 2)
        .parallel_edges(0, 3, 1)
        .build();
    let p = MigrationProblem::uniform(g, 2).unwrap();
    let target = p.delta_prime();
    let even = EvenOptimalSolver.solve(&p).unwrap();
    let bip = BipartiteOptimalSolver.solve(&p).unwrap();
    let exact = solve_exact(&p).unwrap();
    for (name, s) in [
        ("even", &even),
        ("bipartite", &bip),
        ("exact", &exact.schedule),
    ] {
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), target, "{name}");
    }
}

/// At `c = 1` the bipartite solver is an edge colorer: König's theorem
/// (`χ' = Δ` on bipartite multigraphs) on families with known chromatic
/// index — `K_{a,b}`, hypercubes and a long path.
#[test]
fn bipartite_solver_colors_class_one_families_with_delta_rounds() {
    let complete_bipartite = |a: usize, b: usize| {
        let mut g = Multigraph::with_nodes(a + b);
        for l in 0..a {
            for r in 0..b {
                g.add_edge(l.into(), (a + r).into());
            }
        }
        g
    };
    let hypercube = |d: usize| {
        let mut g = Multigraph::with_nodes(1 << d);
        for v in 0..1usize << d {
            for bit in 0..d {
                if v < v ^ (1 << bit) {
                    g.add_edge(v.into(), (v ^ (1 << bit)).into());
                }
            }
        }
        g
    };
    let mut families = vec![(path_multigraph(20, 1), 2)];
    families.extend([(2, 3), (3, 3), (4, 7), (5, 5)].map(|(a, b)| (complete_bipartite(a, b), b)));
    families.extend((1..6).map(|d| (hypercube(d), d)));
    for (g, chromatic_index) in families {
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let s = BipartiteOptimalSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), chromatic_index, "{p}");
    }
}

#[test]
fn general_solver_is_deterministic() {
    let g = complete_multigraph(6, 3);
    let p = MigrationProblem::new(g, Capacities::from_vec(vec![1, 2, 3, 4, 5, 3])).unwrap();
    let a = solve_general(&p);
    let b = solve_general(&p);
    assert_eq!(
        a.schedule, b.schedule,
        "same input must give the same schedule"
    );
    assert_eq!(a.stats, b.stats);
}

#[test]
fn paths_are_bipartite_and_hit_lb() {
    for m in [1usize, 3] {
        let p = MigrationProblem::uniform(path_multigraph(9, m), 3).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
    }
}

#[test]
fn wheel_like_graphs_stay_near_lb() {
    // Cycle + hub connected to every rim node.
    let n = 9;
    let mut b = GraphBuilder::new().nodes(n + 1);
    for u in 0..n {
        b = b.edge(u, (u + 1) % n).edge(u, n);
    }
    let p = MigrationProblem::uniform(b.build(), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert!(s.makespan() <= bounds::lower_bound(&p) + 1);
}

#[test]
fn odd_cycles_certified_by_sharp_bound_and_exact() {
    for n in [3usize, 5, 7] {
        let p = MigrationProblem::uniform(cycle_multigraph(n, 2), 2).unwrap();
        // m=2 doubles the cycle: even caps → exactly Δ' = 2.
        let s = EvenOptimalSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 2);

        // The hard case is m=1, c=1.
        let p1 = MigrationProblem::uniform(cycle_multigraph(n, 1), 1).unwrap();
        let sharp = bounds::lower_bound_sharp(&p1);
        let opt = solve_exact(&p1).unwrap().optimum;
        assert_eq!(sharp, 3, "Γ'' certifies the odd cycle");
        assert_eq!(opt, 3);
    }
}

#[test]
fn mixed_capacity_extremes() {
    // One disk with c=1 neighboring a c=100 disk: the c=1 side paces.
    let g = GraphBuilder::new().parallel_edges(0, 1, 7).build();
    let p = MigrationProblem::new(g, Capacities::from_vec(vec![1, 100])).unwrap();
    assert_eq!(p.delta_prime(), 7);
    let s = GeneralSolver::default().solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 7);
}

#[test]
fn all_solvers_cope_with_one_item() {
    // c = 2 so even the parity-restricted solver applies; the graph is
    // bipartite so every registry member is in-domain.
    let g = GraphBuilder::new().edge(0, 1).build();
    let p = MigrationProblem::uniform(g, 2).unwrap();
    for solver in all_solvers() {
        match solver.solve(&p) {
            Ok(s) => {
                s.validate(&p).unwrap();
                assert_eq!(s.makespan(), 1, "{}", solver.name());
            }
            Err(e) => panic!("{} failed on the trivial instance: {e}", solver.name()),
        }
    }
}

#[test]
fn disconnected_heterogeneous_islands() {
    // Three islands with different shapes and capacity regimes.
    let mut g = Multigraph::with_nodes(9);
    for _ in 0..4 {
        g.add_edge(0.into(), 1.into());
    }
    g.add_edge(2.into(), 3.into());
    g.add_edge(3.into(), 4.into());
    g.add_edge(4.into(), 2.into());
    for _ in 0..6 {
        g.add_edge(5.into(), 6.into());
        g.add_edge(7.into(), 8.into());
    }
    let caps = Capacities::from_vec(vec![2, 2, 1, 1, 1, 3, 3, 6, 6]);
    let p = MigrationProblem::new(g, caps).unwrap();
    let s = GeneralSolver::default().solve(&p).unwrap();
    s.validate(&p).unwrap();
    // Islands are independent: the worst island (the triangle at c=1,
    // OPT 3) and the 4-parallel pair at c=2 (2 rounds) and 6/3=2 →
    // lower bound is max(2, 2, 3) = 3.
    assert!(s.makespan() >= 3);
    assert!(s.makespan() <= 4);
}

#[test]
fn stats_survive_extreme_configs() {
    use dmig_core::general::{solve_general_with, GeneralConfig, ResidueStrategy};
    let p = MigrationProblem::uniform(complete_multigraph(5, 2), 3).unwrap();
    for config in [
        GeneralConfig {
            shift_depth: 0,
            shift_fanout: 0,
            ..Default::default()
        },
        GeneralConfig {
            work_budget: 0,
            ..Default::default()
        },
        GeneralConfig {
            residue_strategy: ResidueStrategy::SplitColor,
            shift_depth: 1,
            ..Default::default()
        },
    ] {
        let r = solve_general_with(&p, &config);
        r.schedule.validate(&p).unwrap();
        let colored =
            r.stats.direct + r.stats.walk_flips + r.stats.shifts + r.stats.residue_colored;
        assert_eq!(colored, p.num_items());
    }
}
