//! Sharding must be invisible in the output: the one solve driver has to
//! reproduce a plain serial split → solve → merge over connected
//! components byte-for-byte at every `(shards × threads × recorder)`
//! combination whenever nothing is cut, and when a small cell budget
//! forces real cuts the plan must stay valid, self-identical, and within
//! the round-alignment additive bound of Theorem 4.1.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dmig_core::even::solve_even;
use dmig_core::parallel::ParallelSolver;
use dmig_core::shard::{solve_sharded, ShardConfig};
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule, SolveError};
use dmig_graph::components::connected_components;
use dmig_graph::partition::partition_cells;
use dmig_graph::{EdgeId, GraphBuilder, Multigraph, NodeId};
use proptest::prelude::*;

/// The recorder is process-global; every test in this binary that touches
/// it must hold this lock for its full enable/snapshot window.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores "disabled, empty" even when an assertion panics mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        dmig_obs::set_enabled(false);
        dmig_obs::reset();
    }
}

/// Restores the shared worker pool's 1-thread budget even when an
/// assertion panics mid-test.
struct PoolCleanup;
impl Drop for PoolCleanup {
    fn drop(&mut self) {
        dmig_flow::pool::budget().set_parallelism(1);
    }
}

/// Random multigraph (possibly disconnected, possibly with isolated
/// nodes) with mixed-parity capacities — exercises every solver path
/// through `AutoSolver`.
fn arb_problem() -> impl Strategy<Value = MigrationProblem> {
    (2usize..10)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..24),
                proptest::collection::vec(1u32..5, n),
            )
        })
        .prop_map(|(n, edges, caps)| {
            let mut b = GraphBuilder::new().nodes(n);
            for (u, v) in edges {
                if u != v {
                    b = b.edge(u, v);
                }
            }
            MigrationProblem::new(b.build(), Capacities::from_vec(caps))
                .expect("generated instance is valid")
        })
}

/// Connected multigraph with all-even capacities: one giant component, so
/// a small cell budget forces the partitioner to actually cut it.
fn arb_connected_even_problem() -> impl Strategy<Value = MigrationProblem> {
    (4usize..9)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(1usize..4, n - 1),
                proptest::collection::vec((0..n, 0..n, 1usize..4), 0..8),
                proptest::collection::vec(1u32..4, n),
            )
        })
        .prop_map(|(n, spine, extras, half_caps)| {
            let mut b = GraphBuilder::new().nodes(n);
            for (i, mult) in spine.into_iter().enumerate() {
                b = b.parallel_edges(i, i + 1, mult);
            }
            for (u, v, mult) in extras {
                if u != v {
                    b = b.parallel_edges(u, v, mult);
                }
            }
            let caps: Vec<u32> = half_caps.into_iter().map(|h| 2 * h).collect();
            MigrationProblem::new(b.build(), Capacities::from_vec(caps))
                .expect("generated instance is valid")
        })
}

/// The instances `solve_sharded`'s one-cell case handles: one component over
/// every disk, the same component with isolated disks among its own (the
/// shape a replan leaves after a crash: the dead disk keeps no items),
/// and no items at all. Half of the time the component's capacities are
/// all even and the isolated disks' odd.
fn arb_one_cell_problem() -> impl Strategy<Value = MigrationProblem> {
    (2usize..9, 0usize..4, proptest::bool::ANY)
        .prop_flat_map(|(k, shape, even)| {
            (
                Just((k, shape, even)),
                proptest::collection::vec(1usize..4, k - 1),
                proptest::collection::vec((0..k, 0..k), 0..10),
                proptest::collection::vec(0..=k, 1..4),
                proptest::collection::vec(1u32..5, k + 3),
            )
        })
        .prop_map(|((k, shape, even), spine, extras, gaps, caps)| {
            // Component node `i` lives on disk `slot[i]`; with isolated
            // disks, one is inserted before node `g` for every `g` in
            // `gaps` (`g = k` puts it after the last node).
            let isolated = shape == 1 || shape == 2;
            let gaps: &[usize] = if isolated { &gaps } else { &[] };
            let slot: Vec<usize> = (0..k)
                .map(|i| i + gaps.iter().filter(|&&g| g <= i).count())
                .collect();
            let n = k + gaps.len();
            let mut b = GraphBuilder::new().nodes(n);
            if shape != 3 {
                for (i, mult) in spine.into_iter().enumerate() {
                    b = b.parallel_edges(slot[i], slot[i + 1], mult);
                }
                for (u, v) in extras {
                    if u != v {
                        b = b.edge(slot[u], slot[v]);
                    }
                }
            }
            // Beside an all-even component the isolated disks are odd:
            // `AutoSolver` would turn away from `solve_even` if the cell
            // kept them.
            let caps: Vec<u32> = (0..n)
                .map(|v| match (even, slot.contains(&v)) {
                    (false, _) => caps[v],
                    (true, true) => 2 * caps[v],
                    (true, false) => 2 * caps[v] - 1,
                })
                .collect();
            MigrationProblem::new(b.build(), Capacities::from_vec(caps))
                .expect("generated instance is valid")
        })
}

/// Serial reference for the uncut driver: split `p` into its connected
/// components (local ids in ascending original order), solve each one
/// alone in canonical order, and merge the rounds index-wise.
fn component_reference(
    p: &MigrationProblem,
    solve: impl Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError>,
) -> Result<MigrationSchedule, SolveError> {
    let g = p.graph();
    let comps = connected_components(g);
    let groups = comps.groups();
    let mut local_of = vec![0usize; g.num_nodes()];
    for group in &groups {
        for (local, v) in group.iter().enumerate() {
            local_of[v.index()] = local;
        }
    }
    let mut parts: Vec<(Multigraph, Vec<EdgeId>)> = groups
        .iter()
        .map(|group| (Multigraph::with_nodes(group.len()), Vec::new()))
        .collect();
    for (e, ep) in g.edges() {
        let (sub, edge_map) = &mut parts[comps.component_of(ep.u)];
        sub.add_edge(
            NodeId::new(local_of[ep.u.index()]),
            NodeId::new(local_of[ep.v.index()]),
        );
        edge_map.push(e);
    }
    let mut rounds: Vec<Vec<EdgeId>> = Vec::new();
    for ((sub, edge_map), group) in parts.into_iter().zip(&groups) {
        if edge_map.is_empty() {
            continue;
        }
        let caps: Capacities = group.iter().map(|&v| p.capacities().get(v)).collect();
        let schedule = solve(&MigrationProblem::new(sub, caps).expect("a component is valid"))?;
        for (r, round) in schedule.rounds().iter().enumerate() {
            if rounds.len() == r {
                rounds.push(Vec::new());
            }
            rounds[r].extend(round.iter().map(|&e| edge_map[e.index()]));
        }
    }
    let mut merged = MigrationSchedule::from_rounds(rounds);
    merged.trim_empty_rounds();
    Ok(merged)
}

/// With nothing cut — no cell budget at all, or the default budget,
/// which the test instances never exceed — `solve_sharded` must equal the
/// serial component reference byte-for-byte across shards {1,2,4} ×
/// threads {1,4} × recorder {off,on}, and so must `ParallelSolver` at
/// every thread count.
fn assert_matches_component_reference(p: &MigrationProblem) -> Result<(), TestCaseError> {
    let _g = obs_lock();
    let _cleanup = Cleanup;
    let _pool = PoolCleanup;
    let solve = |q: &MigrationProblem| AutoSolver.solve(q);
    dmig_obs::set_enabled(false);
    dmig_obs::reset();
    let plain = component_reference(p, solve).expect("solves");
    for threads in [1usize, 2, 4] {
        let parallel = ParallelSolver::with_threads(Box::new(AutoSolver), threads)
            .solve(p)
            .expect("solves");
        prop_assert_eq!(&plain, &parallel, "ParallelSolver threads = {}", threads);
    }
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            for recorder in [false, true] {
                dmig_obs::reset();
                dmig_obs::set_enabled(recorder);
                let (uncut, _) =
                    solve_sharded(p, ShardConfig::uncut(shards), threads, solve).expect("solves");
                let (sharded, report) =
                    solve_sharded(p, ShardConfig::with_shards(shards), threads, solve)
                        .expect("solves");
                dmig_obs::set_enabled(false);
                prop_assert_eq!(
                    &plain,
                    &uncut,
                    "uncut shards = {}, threads = {}, recorder = {}",
                    shards,
                    threads,
                    recorder
                );
                prop_assert_eq!(
                    &plain,
                    &sharded,
                    "shards = {}, threads = {}, recorder = {}",
                    shards,
                    threads,
                    recorder
                );
                prop_assert_eq!(report.cut_edges, 0, "nothing to cut at 2^18");
                prop_assert_eq!(report.round_gap, 0);
                prop_assert_eq!(
                    report.per_shard_edges.iter().sum::<u64>(),
                    p.num_items() as u64
                );
            }
        }
    }
    Ok(())
}

/// Every edge of `g` must land in exactly one cell's domestic set or the
/// boundary set — no drops, no double coverage.
fn assert_full_coverage(
    g: &dmig_graph::Multigraph,
    partition: &dmig_graph::partition::CellPartition,
) -> Result<(), TestCaseError> {
    let mut covered = vec![0u32; g.num_edges()];
    for cell in &partition.cells {
        for &e in &cell.edges {
            covered[e.index()] += 1;
        }
    }
    for &e in &partition.boundary {
        covered[e.index()] += 1;
    }
    for (e, &count) in covered.iter().enumerate() {
        prop_assert_eq!(count, 1, "edge {} covered {} times", e, count);
    }
    prop_assert_eq!(partition.total_edges, g.num_edges());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instances, possibly disconnected, match the serial
    /// component reference (see [`assert_matches_component_reference`]).
    #[test]
    fn sharded_equals_unsharded_at_default_budget(p in arb_problem()) {
        assert_matches_component_reference(&p)?;
    }

    /// The same check on the shapes `solve_sharded`'s one-cell case handles:
    /// one component spanning every disk, one component plus isolated
    /// disks, and an edgeless instance.
    #[test]
    fn one_cell_shapes_equal_the_serial_reference(p in arb_one_cell_problem()) {
        let m = p.num_items();
        let (_, report) = solve_sharded(&p, ShardConfig::uncut(1), 1, |q| AutoSolver.solve(q))
            .expect("solves");
        prop_assert_eq!(report.cells, usize::from(m > 0));
        assert_matches_component_reference(&p)?;
    }

    /// A tiny cell budget forces real cuts on a connected instance. The
    /// schedule must stay valid, identical across every
    /// `(shards × threads × recorder)` combination, and — with the
    /// Theorem 4.1 even solver inside — within the additive
    /// `Δ'(boundary)` round bound.
    #[test]
    fn forced_cut_stays_valid_identical_and_gap_bounded(p in arb_connected_even_problem()) {
        let _g = obs_lock();
        let _cleanup = Cleanup;
        let _pool = PoolCleanup;
        let config = ShardConfig { shards: 1, max_cell_edges: 4 };
        dmig_obs::set_enabled(false);
        dmig_obs::reset();
        let (base, report) = solve_sharded(&p, config, 1, solve_even).expect("even solves");
        base.validate(&p).expect("sharded schedule is feasible");
        prop_assert!(report.gap_asserted, "even solver meets every piece's Δ'");
        prop_assert!(
            report.round_gap <= report.gap_bound,
            "gap {} exceeds bound {}", report.round_gap, report.gap_bound
        );
        if p.num_items() > 4 {
            // Budget 4 must break the component apart — into several
            // cells, or (degenerate pieces compacted away) into boundary
            // edges.
            prop_assert!(
                report.cells > 1 || report.cut_edges > 0,
                "budget 4 left {} edges whole", p.num_items()
            );
        }
        for shards in [2usize, 4] {
            for threads in [1usize, 4] {
                for recorder in [false, true] {
                    dmig_obs::reset();
                    dmig_obs::set_enabled(recorder);
                    let cfg = ShardConfig { shards, max_cell_edges: 4 };
                    let (s, r) = solve_sharded(&p, cfg, threads, solve_even)
                        .expect("even solves");
                    dmig_obs::set_enabled(false);
                    prop_assert_eq!(
                        &base, &s,
                        "shards = {}, threads = {}, recorder = {}",
                        shards, threads, recorder
                    );
                    prop_assert_eq!(r.cut_edges, report.cut_edges);
                    prop_assert_eq!(r.boundary_rounds, report.boundary_rounds);
                }
            }
        }
    }

    /// The cell partition covers every edge exactly once (one cell's
    /// domestic set or the boundary), at any budget.
    #[test]
    fn partition_covers_every_edge_exactly_once(p in arb_problem()) {
        // A piece may overshoot its balanced share by the last absorbed
        // node's gain, so the hard per-cell bound is budget + max degree.
        let slack = p.graph().max_degree();
        for budget in [1usize, 4, 64] {
            let partition = partition_cells(p.graph(), budget);
            assert_full_coverage(p.graph(), &partition)?;
            for cell in &partition.cells {
                prop_assert!(
                    cell.edges.len() <= budget.max(1) + slack,
                    "cell overflows budget {}: {} edges", budget, cell.edges.len()
                );
            }
        }
    }
}
