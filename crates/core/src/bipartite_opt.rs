//! Exact optimum for bipartite transfer graphs.
//!
//! Reconfiguration workloads — moving items from an old layout to a new
//! one, rebuilding onto freshly added disks, draining disks before removal
//! — produce bipartite transfer graphs. There the problem is solvable
//! exactly for *any* capacities. The even solver (§IV) needs even `c_v`
//! only to orient edges along Euler circuits; a bipartite graph is already
//! oriented by its sides. With every edge run left → right, a left disk
//! only sends and a right disk only receives, so its one share
//! `⌈d_v/Δ'⌉` fits `c_v`, and the even solver's group, pad and quota
//! partition (`even::decompose`) yields exactly `Δ' = LB1`
//! rounds — no 1.5 loss, no parity condition. This is the f-coloring
//! setting of Kari's technical report; Coffman et al. \[8\] singled out
//! the bipartite case as optimally solvable.

use dmig_graph::bipartite::bipartition;

use crate::even::decompose;
use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Computes an optimal schedule (exactly `Δ'` rounds) for a bipartite
/// transfer graph with arbitrary capacities.
///
/// # Errors
///
/// Returns [`SolveError::NotBipartite`] when the transfer graph is not
/// bipartite, or [`SolveError::Internal`] if an internal invariant is
/// violated (a bug).
///
/// # Example
///
/// ```
/// use dmig_core::{bipartite_opt::solve_bipartite, MigrationProblem};
/// use dmig_graph::GraphBuilder;
///
/// // Drain disks {0,1} onto disks {2,3}.
/// let g = GraphBuilder::new()
///     .parallel_edges(0, 2, 3)
///     .parallel_edges(0, 3, 2)
///     .parallel_edges(1, 3, 3)
///     .build();
/// let p = MigrationProblem::uniform(g, 3)?;
/// let s = solve_bipartite(&p)?;
/// s.validate(&p)?;
/// assert_eq!(s.makespan(), p.delta_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_bipartite(problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
    let g = problem.graph();
    let sides = bipartition(g).map_err(|_| SolveError::NotBipartite)?;
    let delta_prime = problem.delta_prime();
    if delta_prime == 0 {
        return Ok(MigrationSchedule::default());
    }
    let _span = dmig_obs::span_labeled("solve_bipartite", || {
        format!(
            "n={} m={} delta_prime={delta_prime}",
            g.num_nodes(),
            g.num_edges()
        )
    });
    let mut arcs: Vec<(usize, usize)> = g
        .edges()
        .map(|(_, ep)| {
            let (l, r) = if sides.is_left(ep.u) {
                (ep.u, ep.v)
            } else {
                (ep.v, ep.u)
            };
            (l.index(), r.index())
        })
        .collect();
    decompose(
        [
            "solve_bipartite.pad",
            "solve_bipartite.decompose",
            "solve_bipartite.assemble",
        ],
        g.num_nodes(),
        &mut arcs,
        delta_prime,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capacities;
    use dmig_graph::builder::cycle_multigraph;
    use dmig_graph::{GraphBuilder, Multigraph};

    fn check_optimal(p: &MigrationProblem) {
        let s = solve_bipartite(p).unwrap();
        s.validate(p).unwrap();
        assert_eq!(
            s.makespan(),
            p.delta_prime(),
            "the quota partition must hit Δ' on {p}"
        );
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(Multigraph::with_nodes(3), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap().makespan(), 0);
    }

    #[test]
    fn non_bipartite_rejected() {
        let p =
            MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(3, 1), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap_err(), SolveError::NotBipartite);
    }

    #[test]
    fn odd_capacities_still_optimal() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 2, 5)
            .parallel_edges(1, 2, 3)
            .parallel_edges(0, 3, 2)
            .build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![3, 1, 5, 2])).unwrap();
        check_optimal(&p);
    }

    #[test]
    fn even_cycles() {
        for n in [4usize, 6, 10] {
            let p = MigrationProblem::uniform(cycle_multigraph(n, 3), 2).unwrap();
            check_optimal(&p);
        }
    }
}
