//! A common interface over all schedulers, plus automatic dispatch.

use crate::exact::{solve_exact_with, ExactConfig};
use crate::general::{solve_general, solve_general_with, GeneralConfig};
use crate::{
    bipartite_opt::solve_bipartite, even::solve_even, greedy_rounds::solve_greedy,
    homogeneous::solve_homogeneous, saia::solve_saia, MigrationProblem, MigrationSchedule,
    SolveError,
};

/// A migration scheduler.
///
/// Implementations must return a schedule that passes
/// [`MigrationSchedule::validate`] for the given problem, or an error
/// explaining why the instance is outside their domain.
///
/// `Send + Sync` is required so solvers can be shared with the worker
/// threads of [`crate::parallel::ParallelSolver`]; solvers are plain
/// configuration structs, so this costs implementations nothing.
pub trait Solver: Send + Sync {
    /// Short stable identifier (used in experiment tables and the CLI).
    fn name(&self) -> &'static str;

    /// Produces a feasible schedule.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] when the instance is outside the solver's
    /// domain (odd capacities for [`EvenOptimalSolver`], non-bipartite
    /// graphs for [`BipartiteOptimalSolver`]).
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError>;
}

/// The optimal even-capacity algorithm (§IV, Theorem 4.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct EvenOptimalSolver;

impl Solver for EvenOptimalSolver {
    fn name(&self) -> &'static str {
        "even-optimal"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        solve_even(problem)
    }
}

/// The general `(1 + o(1))`-style solver (§V).
#[derive(Clone, Copy, Debug, Default)]
pub struct GeneralSolver {
    /// Configuration forwarded to [`solve_general_with`].
    pub config: GeneralConfig,
}

impl Solver for GeneralSolver {
    fn name(&self) -> &'static str {
        "general"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        Ok(solve_general_with(problem, &self.config).schedule)
    }
}

/// Saia's 1.5-approximation baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaiaSolver;

impl Solver for SaiaSolver {
    fn name(&self) -> &'static str {
        "saia-1.5"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        Ok(solve_saia(problem).schedule)
    }
}

/// The homogeneous (`c_v = 1`) baseline of Hall et al.
#[derive(Clone, Copy, Debug, Default)]
pub struct HomogeneousSolver;

impl Solver for HomogeneousSolver {
    fn name(&self) -> &'static str {
        "homogeneous"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        Ok(solve_homogeneous(problem))
    }
}

/// First-fit greedy round packing.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        Ok(solve_greedy(problem))
    }
}

/// Exact optimum for bipartite transfer graphs.
#[derive(Clone, Copy, Debug, Default)]
pub struct BipartiteOptimalSolver;

impl Solver for BipartiteOptimalSolver {
    fn name(&self) -> &'static str {
        "bipartite-optimal"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        solve_bipartite(problem)
    }
}

/// Branch-and-bound exact optimum, for small instances only.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactSolver {
    /// Search limits forwarded to [`solve_exact_with`].
    pub config: ExactConfig,
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        Ok(solve_exact_with(problem, &self.config)?.schedule)
    }
}

/// Dispatches to the strongest applicable algorithm:
///
/// 1. all capacities even → [`EvenOptimalSolver`] (provably optimal);
/// 2. bipartite transfer graph → [`BipartiteOptimalSolver`] (optimal);
/// 3. otherwise → [`GeneralSolver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoSolver;

impl Solver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        if problem.capacities().all_even() {
            return solve_even(problem);
        }
        if dmig_graph::bipartite::is_bipartite(problem.graph()) {
            return solve_bipartite(problem);
        }
        Ok(solve_general(problem).schedule)
    }
}

/// All solvers, for head-to-head experiments (E5).
#[must_use]
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(AutoSolver),
        Box::new(EvenOptimalSolver),
        Box::new(GeneralSolver::default()),
        Box::new(SaiaSolver),
        Box::new(HomogeneousSolver),
        Box::new(GreedySolver),
        Box::new(BipartiteOptimalSolver),
        // The registry's exact solver gets a tight search budget so
        // head-to-head sweeps over arbitrary instances stay bounded; for
        // certified runs construct ExactSolver with a custom config.
        Box::new(ExactSolver {
            config: ExactConfig {
                max_items: 20,
                node_budget: Some(200_000),
            },
        }),
    ]
}

/// Looks a solver up by its [`Solver::name`].
#[must_use]
pub fn solver_by_name(name: &str) -> Option<Box<dyn Solver>> {
    all_solvers().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dmig_graph::builder::{complete_multigraph, cycle_multigraph};

    #[test]
    fn auto_picks_even_optimal() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 3), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
    }

    #[test]
    fn auto_picks_bipartite_optimal() {
        let p = MigrationProblem::uniform(cycle_multigraph(6, 3), 3).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
    }

    #[test]
    fn auto_falls_back_to_general() {
        let p = MigrationProblem::uniform(complete_multigraph(5, 2), 3).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert!(s.makespan() >= bounds::lower_bound(&p));
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<_> = all_solvers().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(solver_by_name(n).is_some());
        }
        assert!(solver_by_name("no-such-solver").is_none());
    }

    #[test]
    fn every_applicable_solver_validates() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 2).unwrap();
        for solver in all_solvers() {
            match solver.solve(&p) {
                Ok(s) => s.validate(&p).unwrap(),
                Err(e) => assert!(
                    matches!(
                        e,
                        SolveError::NotBipartite
                            | SolveError::InstanceTooLarge { .. }
                            | SolveError::SearchBudgetExceeded { .. }
                    ),
                    "{} failed unexpectedly: {e}",
                    solver.name()
                ),
            }
        }
    }
}
