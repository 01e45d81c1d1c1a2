//! Component-parallel solving: the [`Solver`] face of the cell pipeline.
//!
//! Connected components of the transfer graph are provably independent
//! subproblems — a round never couples disks from different components, and
//! `Δ'` of the whole instance is the maximum of the per-component `Δ'`s. So
//! any solver can be run per component and the per-component rounds merged
//! **index-wise**: merged round `r` is the union of every component's round
//! `r` (disjoint disk sets keep each merged round feasible), and the merged
//! makespan is the maximum per-component makespan.
//!
//! [`ParallelSolver`] does exactly that by calling the one solve driver,
//! [`crate::shard::solve_sharded`], with an unlimited cell budget
//! ([`ShardConfig::uncut`]): the cells are the connected components, nothing
//! is cut, and one worker shard per thread solves them. The driver writes
//! every component's schedule into the slot of its canonical index (ascending
//! smallest node id) and merges the slots in order, so the schedule is
//! bit-for-bit identical at every thread count.
//!
//! # Example
//!
//! ```
//! use dmig_core::{parallel::ParallelSolver, solver::{EvenOptimalSolver, Solver}, MigrationProblem};
//! use dmig_graph::GraphBuilder;
//!
//! // Two independent components; each is solved separately and the
//! // rounds are merged index-wise.
//! let g = GraphBuilder::new().parallel_edges(0, 1, 4).parallel_edges(2, 3, 2).build();
//! let p = MigrationProblem::uniform(g, 2)?;
//! let s = ParallelSolver::with_threads(Box::new(EvenOptimalSolver), 2).solve(&p)?;
//! s.validate(&p)?;
//! assert_eq!(s.makespan(), 2); // max(⌈8/2⌉ /2 …) = Δ' = 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::shard::{solve_sharded, ShardConfig};
use crate::solver::Solver;
use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Number of worker threads the host offers (`available_parallelism`,
/// falling back to 1 when unknown).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A [`Solver`] adapter that runs any inner solver per connected component,
/// concurrently, and merges the rounds (see the module docs).
///
/// The schedule is identical for every thread count; `threads` only
/// controls how many components are solved at once.
pub struct ParallelSolver {
    inner: Box<dyn Solver>,
    threads: usize,
}

impl std::fmt::Debug for ParallelSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSolver")
            .field("inner", &self.inner.name())
            .field("threads", &self.threads)
            .finish()
    }
}

impl ParallelSolver {
    /// Wraps `inner` with an explicit worker-thread budget (min 1).
    #[must_use]
    pub fn with_threads(inner: Box<dyn Solver>, threads: usize) -> Self {
        ParallelSolver {
            inner,
            threads: threads.max(1),
        }
    }

    /// The wrapped solver.
    #[must_use]
    pub fn inner(&self) -> &dyn Solver {
        self.inner.as_ref()
    }

    /// The worker-thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Solver for ParallelSolver {
    fn name(&self) -> &'static str {
        "parallel"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        solve_sharded(
            problem,
            ShardConfig::uncut(self.threads),
            self.threads,
            |sub| self.inner.solve(sub),
        )
        .map(|(schedule, _)| schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{AutoSolver, EvenOptimalSolver, GreedySolver};
    use crate::Capacities;
    use dmig_graph::builder::{complete_multigraph, GraphBuilder};

    /// 3 components: K3×2 (Δ'=2), a 4-parallel pair (Δ'=2), a 6-parallel
    /// pair (Δ'=3), plus an isolated node.
    fn multi_component() -> MigrationProblem {
        let g = GraphBuilder::new()
            .nodes(9)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .parallel_edges(3, 4, 4)
            .parallel_edges(6, 7, 6)
            .build();
        MigrationProblem::uniform(g, 2).unwrap()
    }

    fn even(threads: usize) -> ParallelSolver {
        ParallelSolver::with_threads(Box::new(EvenOptimalSolver), threads)
    }

    #[test]
    fn merged_schedule_is_valid_and_optimal() {
        let p = multi_component();
        let s = even(4).solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn thread_count_does_not_change_the_schedule() {
        let p = multi_component();
        let s1 = even(1).solve(&p).unwrap();
        for threads in [2, 3, 8] {
            let st = even(threads).solve(&p).unwrap();
            assert_eq!(s1, st, "schedule differs at {threads} threads");
        }
    }

    #[test]
    fn error_of_lowest_component_wins() {
        // Components in canonical order: {0,1} (even caps), {2,3} (odd cap
        // on a used disk → OddCapacity from solve_even).
        let g = GraphBuilder::new().edge(0, 1).edge(2, 3).build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![2, 2, 1, 1])).unwrap();
        let err = even(4).solve(&p).unwrap_err();
        match err {
            SolveError::OddCapacity { node, .. } => assert_eq!(node.index(), 0, "local id"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn single_component_round_trips() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 2).unwrap();
        let s = even(4).solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
    }

    #[test]
    fn empty_problem_yields_empty_schedule() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(3), 2).unwrap();
        let s = even(4).solve(&p).unwrap();
        assert_eq!(s.makespan(), 0);
    }

    #[test]
    fn parallel_solver_wraps_any_inner() {
        let p = multi_component();
        for inner in [
            Box::new(EvenOptimalSolver) as Box<dyn Solver>,
            Box::new(AutoSolver),
            Box::new(GreedySolver),
        ] {
            let solver = ParallelSolver::with_threads(inner, 3);
            let s = solver.solve(&p).unwrap();
            s.validate(&p).unwrap();
        }
        let wrapped = ParallelSolver::with_threads(Box::new(EvenOptimalSolver), 0);
        assert_eq!(wrapped.threads(), 1);
        assert_eq!(wrapped.name(), "parallel");
        assert_eq!(wrapped.inner().name(), "even-optimal");
    }
}
