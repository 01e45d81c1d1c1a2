//! Cross-crate pipeline tests: workload generation → bounds → solving →
//! validation → simulation, exercised as a user would.

use dmig::prelude::*;
use dmig::workloads::{capacities, disk_ops, random, reconfigure};

fn suite(seed: u64) -> Vec<MigrationProblem> {
    vec![
        MigrationProblem::new(
            random::uniform_multigraph(16, 120, seed),
            capacities::mixed_parity(16, 1, 5, seed),
        )
        .unwrap(),
        MigrationProblem::new(
            random::power_law_multigraph(20, 200, 1.3, seed),
            capacities::tiered(20, 6, 1, 0.3, seed),
        )
        .unwrap(),
        MigrationProblem::new(
            reconfigure::load_balance_delta(18, 128, seed),
            capacities::random_even(18, 3, seed),
        )
        .unwrap(),
        MigrationProblem::new(
            disk_ops::disk_addition(12, 3, 150, seed),
            capacities::mixed_parity(15, 1, 4, seed),
        )
        .unwrap(),
        MigrationProblem::new(
            reconfigure::hot_spot_drain(14, 5, 120, seed),
            capacities::one_slow(14, 4, 1, 2),
        )
        .unwrap(),
    ]
}

#[test]
fn every_solver_yields_feasible_schedules_everywhere() {
    for seed in [1u64, 2, 3] {
        for p in suite(seed) {
            for solver in all_solvers() {
                match solver.solve(&p) {
                    Ok(s) => {
                        s.validate(&p)
                            .unwrap_or_else(|e| panic!("{} on {p}: {e}", solver.name()));
                        assert_eq!(s.num_items(), p.num_items());
                    }
                    Err(
                        SolveError::NotBipartite
                        | SolveError::OddCapacity { .. }
                        | SolveError::InstanceTooLarge { .. }
                        | SolveError::SearchBudgetExceeded { .. },
                    ) => {}
                    Err(e) => panic!("{} unexpected error: {e}", solver.name()),
                }
            }
        }
    }
}

#[test]
fn simulation_agrees_with_round_structure() {
    for p in suite(7) {
        let s = AutoSolver.solve(&p).unwrap();
        let cluster = Cluster::uniform(p.num_disks(), 1.0);
        let report = simulate_rounds(&p, &s, &cluster).unwrap();
        assert_eq!(report.num_rounds(), s.makespan());
        // With unit items and unit bandwidth, a round lasts as long as its
        // most loaded disk has transfers.
        for (round, &dur) in s.rounds().iter().zip(&report.round_durations) {
            let mut load = vec![0usize; p.num_disks()];
            for &e in round {
                let ep = p.graph().endpoints(e);
                load[ep.u.index()] += 1;
                load[ep.v.index()] += 1;
            }
            let expected = *load.iter().max().unwrap() as f64;
            assert!(
                (dur - expected).abs() < 1e-9,
                "round duration {dur} vs max load {expected}"
            );
        }
        assert!((report.volume - p.num_items() as f64).abs() < 1e-9);
        let adaptive = execute(
            &p,
            &s,
            &cluster,
            &FaultPlan::default(),
            &ExecutorConfig::default(),
            &AutoSolver,
        )
        .unwrap()
        .sim;
        assert!(adaptive.total_time <= report.total_time + 1e-9);
    }
}

#[test]
fn auto_never_worse_than_specialists() {
    for seed in [11u64, 12] {
        for p in suite(seed) {
            let auto = AutoSolver.solve(&p).unwrap();
            auto.validate(&p).unwrap();
            for solver in all_solvers() {
                if solver.name() == "auto" {
                    continue;
                }
                if let Ok(s) = solver.solve(&p) {
                    assert!(
                        auto.makespan() <= s.makespan(),
                        "auto ({}) lost to {} ({}) on {p}",
                        auto.makespan(),
                        solver.name(),
                        s.makespan()
                    );
                }
            }
        }
    }
}

#[test]
fn schedules_respect_per_disk_loads() {
    let p = MigrationProblem::new(
        random::uniform_multigraph(12, 150, 5),
        capacities::mixed_parity(12, 1, 4, 5),
    )
    .unwrap();
    let s = GeneralSolver::default().solve(&p).unwrap();
    let g = p.graph();
    let mut total = vec![0usize; g.num_nodes()];
    for (i, round) in s.rounds().iter().enumerate() {
        let mut load = vec![0usize; g.num_nodes()];
        for &e in round {
            let ep = g.endpoints(e);
            load[ep.u.index()] += 1;
            load[ep.v.index()] += 1;
        }
        for v in g.nodes() {
            let (load, cap) = (load[v.index()], p.capacities().get(v) as usize);
            assert!(load <= cap, "round {i} overloads {v}: {load} > {cap}");
            total[v.index()] += load;
        }
    }
    for v in g.nodes() {
        assert_eq!(total[v.index()], g.degree(v));
    }
}

#[test]
fn graph_io_roundtrips_through_the_pipeline() {
    // The instance reader builds its graph from endpoint pairs with
    // `from_edges`.
    let g = random::uniform_multigraph(10, 60, 3);
    let pairs: Vec<(usize, usize)> = g
        .endpoints_slice()
        .iter()
        .map(|ep| (ep.u.index(), ep.v.index()))
        .collect();
    let g2 = Multigraph::from_edges(g.num_nodes(), &pairs).unwrap();
    assert_eq!(g, g2);
    let p = MigrationProblem::uniform(g2, 2).unwrap();
    let s = EvenOptimalSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), p.delta_prime());
}
