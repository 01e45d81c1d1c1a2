//! Property-based tests over the whole pipeline: random instances in,
//! validated schedules and invariant checks out.

use dmig::prelude::*;
use dmig::workloads::disk_ops;
use proptest::prelude::*;

/// Strategy: a random loop-free multigraph as an edge list over `n` nodes,
/// plus per-node capacities.
fn instance_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<u32>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n - 1), 0..60).prop_map(move |raw| {
            raw.into_iter()
                .map(|(u, v)| {
                    // Shift v past u to rule out self-loops.
                    let v = if v >= u { v + 1 } else { v };
                    (u, v)
                })
                .collect::<Vec<_>>()
        });
        let caps = proptest::collection::vec(1u32..6, n);
        (Just(n), edges, caps)
    })
}

fn build_problem(n: usize, edges: &[(usize, usize)], caps: &[u32]) -> MigrationProblem {
    let mut g = Multigraph::with_nodes(n);
    for &(u, v) in edges {
        g.add_edge(u.into(), v.into());
    }
    MigrationProblem::new(g, Capacities::from_vec(caps.to_vec())).expect("loop-free, caps ≥ 1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every solver produces a feasible schedule meeting the lower bound.
    #[test]
    fn solvers_always_feasible((n, edges, caps) in instance_strategy()) {
        let p = build_problem(n, &edges, &caps);
        let lb = bounds::lower_bound(&p);
        for solver in all_solvers() {
            if let Ok(s) = solver.solve(&p) {
                prop_assert!(s.validate(&p).is_ok(), "{} invalid", solver.name());
                prop_assert!(s.makespan() >= lb);
            }
        }
    }

    /// Even capacities: the §IV algorithm is exactly optimal, on random
    /// instances and on single-source drains onto many receivers, whose
    /// receivers share the padding's quota-1 nodes.
    #[test]
    fn even_solver_exactly_optimal(
        (n, edges, caps) in instance_strategy(),
        (kind, receivers, items, seed) in (0usize..2, 1usize..7, 0usize..300, 0u64..1000),
    ) {
        let p = if kind == 1 {
            let g = disk_ops::disk_removal(1 + 6 * receivers, 1, items, seed);
            let even = (0..g.num_nodes()).map(|v| 2 * caps[v % n]).collect();
            MigrationProblem::new(g, Capacities::from_vec(even)).expect("valid")
        } else {
            let even: Vec<u32> = caps.iter().map(|&c| 2 * c).collect();
            build_problem(n, &edges, &even)
        };
        let s = EvenOptimalSolver.solve(&p).expect("even capacities");
        prop_assert!(s.validate(&p).is_ok());
        prop_assert_eq!(s.makespan(), p.delta_prime());
    }

    /// The flow-based Γ' matches the exponential reference, and never
    /// exceeds Δ'.
    #[test]
    fn gamma_prime_exact((n, edges, caps) in instance_strategy()) {
        let p = build_problem(n, &edges, &caps);
        let flow = bounds::lb2(&p);
        prop_assert_eq!(flow, bounds::lb2_bruteforce(&p));
        prop_assert!(flow <= bounds::lb1(&p));
    }

    /// `lower_bound` is Δ' by proof: Γ' never exceeds it. The max-flow Γ'
    /// stays the oracle, on mixed-parity, all-odd, all-even and bipartite
    /// instances.
    #[test]
    fn lower_bound_is_delta_prime(
        (n, edges, caps) in instance_strategy(),
        mix in 0usize..4,
    ) {
        let caps: Vec<u32> = match mix {
            1 => caps.iter().map(|&c| c | 1).collect(),
            2 => caps.iter().map(|&c| 2 * c).collect(),
            _ => caps,
        };
        let edges: Vec<(usize, usize)> = match mix {
            // Bipartite: only edges between an even and an odd index.
            3 => edges.into_iter().filter(|&(u, v)| (u + v) % 2 == 1).collect(),
            _ => edges,
        };
        let p = build_problem(n, &edges, &caps);
        prop_assert!(bounds::lb2(&p) <= bounds::lb1(&p));
        prop_assert_eq!(bounds::lb1(&p), bounds::lower_bound(&p));
    }

    /// The general solver respects the Shannon/Saia 1.5 envelope, stays
    /// within Theorem 5.1's `LB + O(√LB)` of `LB = max(LB1, LB2)`, and
    /// never loses to Saia by more than a round (strict dominance is NOT a
    /// theorem: on adversarial fat triangles the escalation path can end
    /// one round behind the split-and-color route — found by fuzzing).
    #[test]
    fn general_within_envelope((n, edges, caps) in instance_strategy()) {
        let p = build_problem(n, &edges, &caps);
        let general = GeneralSolver::default().solve(&p).expect("infallible");
        let saia = SaiaSolver.solve(&p).expect("infallible");
        prop_assert!(general.makespan() <= saia.makespan() + 1);
        let lb1 = bounds::lb1(&p);
        prop_assert!(general.makespan() <= (3 * lb1).div_ceil(2) + 1);
        let lb = bounds::lower_bound(&p);
        let sqrt_envelope = lb + 2 * (lb as f64).sqrt().ceil() as usize + 2;
        prop_assert!(
            general.makespan() <= sqrt_envelope,
            "makespan {} vs envelope {}", general.makespan(), sqrt_envelope
        );
    }

    /// Simulated time of a schedule is at least volume / aggregate
    /// bandwidth and at least the longest single transfer.
    #[test]
    fn simulation_lower_bounds((n, edges, caps) in instance_strategy()) {
        let p = build_problem(n, &edges, &caps);
        if p.num_items() == 0 {
            return Ok(());
        }
        let s = GreedySolver.solve(&p).expect("infallible");
        let cluster = Cluster::uniform(n, 1.0);
        let r = simulate_rounds(&p, &s, &cluster).expect("feasible");
        // Each round moves at least one item and takes ≥ 1 time unit.
        prop_assert!(r.total_time >= s.makespan() as f64 - 1e-9);
        prop_assert!(r.total_time >= p.delta_prime() as f64 - 1e-9);
        let adaptive = execute(
            &p,
            &s,
            &cluster,
            &FaultPlan::default(),
            &ExecutorConfig::default(),
            &GreedySolver,
        )
        .expect("feasible")
        .sim;
        prop_assert!(adaptive.total_time <= r.total_time + 1e-9);
    }

    /// The component-parallel solver is bit-for-bit deterministic: the
    /// schedule is identical at every thread count, and merging the
    /// per-component rounds keeps Theorem 4.1's exact optimum `Δ'`.
    #[test]
    fn parallel_solver_deterministic_across_threads(
        comps in proptest::collection::vec(instance_strategy(), 1..4),
    ) {
        // One graph holding every generated instance on its own node block
        // (so the instance has ≥ `comps.len()` connected components), with
        // doubled capacities so the even-optimal solver applies.
        let total: usize = comps.iter().map(|(n, _, _)| n).sum();
        let mut g = Multigraph::with_nodes(total);
        let mut caps = Vec::with_capacity(total);
        let mut offset = 0usize;
        for (n, edges, c) in &comps {
            for &(u, v) in edges {
                g.add_edge((offset + u).into(), (offset + v).into());
            }
            caps.extend(c.iter().map(|&x| 2 * x));
            offset += n;
        }
        let p = MigrationProblem::new(g, Capacities::from_vec(caps)).expect("valid blocks");

        let seq = ParallelSolver::with_threads(Box::new(EvenOptimalSolver), 1)
            .solve(&p)
            .expect("even capacities");
        prop_assert!(seq.validate(&p).is_ok());
        for threads in [2usize, 4, 7] {
            let par = ParallelSolver::with_threads(Box::new(EvenOptimalSolver), threads)
                .solve(&p)
                .expect("even capacities");
            prop_assert_eq!(&seq, &par, "schedule differs at {} threads", threads);
        }
        prop_assert_eq!(seq.makespan(), p.delta_prime());
    }

    /// Bipartite instances (disk additions, drains, single-source drains
    /// onto many receivers, and random edge sets whose sides interleave by
    /// index) with mixed-parity capacities, one side all odd in two cases
    /// of three, get exactly Δ' rounds from the quota partition.
    /// `AutoSolver` takes the same path, byte for byte, whenever a capacity
    /// is odd, and the component-parallel schedule is identical at every
    /// thread count.
    #[test]
    fn bipartite_solver_exactly_optimal(
        (kind, odd_side) in (0usize..4, 0usize..3),
        (nl, nr) in (1usize..7, 1usize..7),
        items in 0usize..300,
        seed in 0u64..1000,
        raw_edges in proptest::collection::vec((0usize..6, 0usize..6), 0..120),
        caps in proptest::collection::vec(1u32..7, 12),
    ) {
        let (g, left_count) = match kind {
            0 => (disk_ops::disk_addition(nl, nr, items, seed), nl),
            1 => (disk_ops::disk_removal(nl + nr, nl, items, seed), nl),
            3 => (disk_ops::disk_removal(1 + 6 * nr, 1, items, seed), 1),
            _ => {
                // Left disks are the even indices, right disks the odd ones.
                let mut g = Multigraph::with_nodes(2 * nl.max(nr));
                for &(l, r) in &raw_edges {
                    g.add_edge((2 * (l % nl)).into(), (2 * (r % nr) + 1).into());
                }
                (g, 0)
            }
        };
        let is_left = |v: usize| if kind == 2 { v % 2 == 0 } else { v < left_count };
        let caps: Vec<u32> = (0..g.num_nodes())
            .map(|v| match odd_side {
                0 if is_left(v) => caps[v % 12] | 1,
                1 if !is_left(v) => caps[v % 12] | 1,
                _ => caps[v % 12],
            })
            .collect();
        let p = MigrationProblem::new(g, Capacities::from_vec(caps)).expect("valid");

        let s = BipartiteOptimalSolver.solve(&p).expect("bipartite");
        prop_assert!(s.validate(&p).is_ok());
        prop_assert_eq!(s.makespan(), p.delta_prime());
        if !p.capacities().all_even() {
            prop_assert_eq!(&AutoSolver.solve(&p).expect("infallible"), &s);
        }
        let seq = ParallelSolver::with_threads(Box::new(BipartiteOptimalSolver), 1)
            .solve(&p)
            .expect("bipartite");
        prop_assert!(seq.validate(&p).is_ok());
        prop_assert_eq!(seq.makespan(), p.delta_prime());
        for threads in [2usize, 4] {
            let par = ParallelSolver::with_threads(Box::new(BipartiteOptimalSolver), threads)
                .solve(&p)
                .expect("bipartite");
            prop_assert_eq!(&seq, &par, "schedule differs at {} threads", threads);
        }
    }

    /// Schedules partition the items: every item exactly once.
    #[test]
    fn schedules_partition_items((n, edges, caps) in instance_strategy()) {
        let p = build_problem(n, &edges, &caps);
        let s = GeneralSolver::default().solve(&p).expect("infallible");
        let mut seen = vec![false; p.num_items()];
        for round in s.rounds() {
            for &e in round {
                prop_assert!(!seen[e.index()]);
                seen[e.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }
}
