//! Online replanning: repair an in-flight migration after cluster
//! changes.
//!
//! Real clusters do not freeze while a migration runs — disks fail, and
//! bandwidths collapse under live traffic. Replanning keeps
//! already-executed work untouched, turns the *unexecuted* remainder of
//! the current schedule into one residual instance, applies cluster
//! changes (disk crash-stops with optional replacement disks, updated
//! transfer constraints), and re-solves that with any
//! [`crate::solver::Solver`].
//!
//! Item identity is preserved through an explicit mapping: every residual
//! item names the [`EdgeId`] it came from, so callers can track a data
//! item from the original plan through any number of replans.
//! [`replan_with`] takes per-item doneness plus a [`ResidualChanges`]
//! describing dead disks (with optional replacement redirects) and
//! capacity overrides. Pending items touching a dead disk are rewritten to
//! the replacement, or reported in [`Replanned::lost`] when none exists.
//! [`rebuild_residual`] revives a residual instance and its surviving
//! schedule from checkpointed parts without solving.

use dmig_graph::{EdgeId, Endpoints, Multigraph, NodeId};

use crate::solver::Solver;
use crate::{Capacities, MigrationProblem, MigrationSchedule, ProblemError, SolveError};

/// Cluster changes to apply while building the residual instance.
#[derive(Clone, Debug, Default)]
pub struct ResidualChanges {
    /// Transfer-constraint overrides for the residual instance (must cover
    /// every disk when present). Use this to shrink `c_v` for disks whose
    /// observed bandwidth collapsed, or to restore it on recovery.
    pub capacities: Option<Capacities>,
    /// Crash-stopped disks, each with an optional replacement. A pending
    /// item with an endpoint on a dead disk is redirected to the
    /// replacement; with no replacement it is reported lost. Replacements
    /// must be live disks.
    pub redirects: Vec<(NodeId, Option<NodeId>)>,
}

impl ResidualChanges {
    /// Whether the changes are a no-op (no deaths, no capacity updates).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.capacities.is_none() && self.redirects.is_empty()
    }
}

/// Result of [`replan_with`]: the residual instance, a schedule for it,
/// and the identity mapping back to the caller's item space.
#[derive(Clone, Debug)]
pub struct Replanned {
    /// The residual instance (pending items, with dead endpoints
    /// redirected).
    pub problem: MigrationProblem,
    /// Schedule for the residual instance.
    pub schedule: MigrationSchedule,
    /// `origin[e]` is the item of the replanned instance that residual
    /// item `e` came from.
    pub origin: Vec<EdgeId>,
    /// Pending items that could not be carried over: an endpoint died and
    /// no replacement was available.
    pub lost: Vec<EdgeId>,
    /// Pending items whose endpoints both mapped to the same live disk
    /// after redirection — no transfer is needed any more; the caller
    /// should account them as trivially complete.
    pub completed: Vec<EdgeId>,
}

/// Errors from [`replan_with`] and [`rebuild_residual`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplanError {
    /// The `done` vector does not cover every item of the problem.
    DoneLengthMismatch {
        /// Length of the provided doneness vector.
        done: usize,
        /// Items in the problem.
        items: usize,
    },
    /// A redirect entry is unusable: the dead disk or its replacement is
    /// out of range, or the replacement is itself marked dead.
    BadRedirect {
        /// The dead disk of the offending entry.
        disk: NodeId,
        /// Why the entry was rejected.
        reason: String,
    },
    /// The residual instance failed validation (e.g. a capacity override
    /// that does not cover every disk).
    Problem(ProblemError),
    /// The solver failed on the residual instance.
    Solve(SolveError),
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::DoneLengthMismatch { done, items } => {
                write!(
                    f,
                    "doneness vector covers {done} items but problem has {items}"
                )
            }
            ReplanError::BadRedirect { disk, reason } => {
                write!(f, "bad redirect for dead disk {disk}: {reason}")
            }
            ReplanError::Problem(e) => write!(f, "residual instance invalid: {e}"),
            ReplanError::Solve(e) => write!(f, "residual solve failed: {e}"),
        }
    }
}

impl std::error::Error for ReplanError {}

impl From<ProblemError> for ReplanError {
    fn from(e: ProblemError) -> Self {
        ReplanError::Problem(e)
    }
}

impl From<SolveError> for ReplanError {
    fn from(e: SolveError) -> Self {
        ReplanError::Solve(e)
    }
}

/// Per-disk fate under a set of redirects: alive, dead with a replacement,
/// or dead with items lost.
fn build_redirect_map(
    n: usize,
    changes: &ResidualChanges,
) -> Result<Vec<Option<Option<NodeId>>>, ReplanError> {
    // map[v] = None             -> alive
    // map[v] = Some(None)       -> dead, no replacement (items lost)
    // map[v] = Some(Some(w))    -> dead, redirect to w
    let mut map: Vec<Option<Option<NodeId>>> = vec![None; n];
    for &(dead, replacement) in &changes.redirects {
        if dead.index() >= n {
            return Err(ReplanError::BadRedirect {
                disk: dead,
                reason: format!("disk out of range (cluster has {n} disks)"),
            });
        }
        map[dead.index()] = Some(replacement);
    }
    // Validate replacements against the *final* dead set, so a redirect
    // chain (a -> b with b also dead) is rejected instead of silently
    // scheduling transfers onto a dead disk.
    for &(dead, replacement) in &changes.redirects {
        if let Some(r) = replacement {
            if r.index() >= n {
                return Err(ReplanError::BadRedirect {
                    disk: dead,
                    reason: format!("replacement {r} out of range"),
                });
            }
            if map[r.index()].is_some() {
                return Err(ReplanError::BadRedirect {
                    disk: dead,
                    reason: format!("replacement {r} is itself dead"),
                });
            }
        }
    }
    Ok(map)
}

/// Warm-start entry point for resuming an interrupted execution: rebuilds
/// a residual instance and its *surviving* schedule from checkpointed raw
/// parts — endpoints per pending item, the transfer constraints in force,
/// and the remaining rounds as item indices — without invoking a solver.
///
/// A resumed executor continues the rounds the interrupted run already
/// solved (the [`Replanned::origin`] identity chain stays intact through
/// the next real replan) instead of re-solving from scratch, so its
/// continuation is bit-for-bit the one the interrupted run would have
/// taken.
///
/// # Errors
///
/// [`ReplanError::Problem`] when an endpoint is out of range or the
/// rebuilt instance fails validation, and [`ReplanError::Solve`] when the
/// surviving rounds do not form a valid schedule for it.
pub fn rebuild_residual(
    num_disks: usize,
    items: &[Endpoints],
    capacities: Capacities,
    rounds: Vec<Vec<EdgeId>>,
) -> Result<(MigrationProblem, MigrationSchedule), ReplanError> {
    let pairs: Vec<(usize, usize)> = items
        .iter()
        .map(|ep| (ep.u.index(), ep.v.index()))
        .collect();
    let residual = Multigraph::from_edges(num_disks, &pairs)
        .map_err(|e| ReplanError::Solve(SolveError::Internal(e.to_string())))?;
    let problem = MigrationProblem::new(residual, capacities)?;
    let schedule = MigrationSchedule::from_rounds(rounds);
    schedule
        .validate(&problem)
        .map_err(|e| ReplanError::Solve(SolveError::Internal(e.to_string())))?;
    Ok((problem, schedule))
}

/// Replans an in-flight migration: items with `done[e] == true` are
/// finished, the rest are pending. The pending items form a residual
/// instance with `changes` applied — endpoints on dead disks are
/// redirected to their replacement (or the item is reported lost), and
/// capacity overrides replace the inherited transfer constraints — and
/// the residual is solved with `solver`.
///
/// Items whose endpoints both map to the same live disk after redirection
/// are returned in [`Replanned::completed`] (no transfer needed) rather
/// than scheduled. The residual graph is built once, at its final size:
/// residual item `e` is the `e`-th pending item in ascending id order.
///
/// # Errors
///
/// See [`ReplanError`].
pub fn replan_with(
    problem: &MigrationProblem,
    done: &[bool],
    changes: &ResidualChanges,
    solver: &dyn Solver,
) -> Result<Replanned, ReplanError> {
    let g = problem.graph();
    if done.len() != g.num_edges() {
        return Err(ReplanError::DoneLengthMismatch {
            done: done.len(),
            items: g.num_edges(),
        });
    }
    let n = g.num_nodes();
    let redirect = build_redirect_map(n, changes)?;
    // Maps one endpoint through the redirect table; `None` when it is on
    // a dead disk with no replacement.
    let map_endpoint = |v: NodeId| -> Option<NodeId> {
        match redirect[v.index()] {
            None => Some(v),
            Some(replacement) => replacement,
        }
    };

    let mut pairs = Vec::with_capacity(g.num_edges());
    let mut origin = Vec::with_capacity(g.num_edges());
    let mut lost = Vec::new();
    let mut completed = Vec::new();
    for (e, ep) in g.edges() {
        if done[e.index()] {
            continue;
        }
        match (map_endpoint(ep.u), map_endpoint(ep.v)) {
            (Some(u), Some(v)) if u == v => completed.push(e),
            (Some(u), Some(v)) => {
                pairs.push((u.index(), v.index()));
                origin.push(e);
            }
            _ => lost.push(e),
        }
    }
    let residual = Multigraph::from_edges(n, &pairs)
        .expect("redirected items join disks of the replanned instance");

    let caps = match &changes.capacities {
        Some(c) => c.clone(),
        None => Capacities::from_vec(problem.capacities().as_slice().to_vec()),
    };
    let residual_problem = MigrationProblem::new(residual, caps)?;
    let schedule = solver.solve(&residual_problem)?;
    schedule
        .validate(&residual_problem)
        .map_err(|e| ReplanError::Solve(SolveError::Internal(e.to_string())))?;
    Ok(Replanned {
        problem: residual_problem,
        schedule,
        origin,
        lost,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{AutoSolver, GreedySolver};
    use dmig_graph::builder::complete_multigraph;
    use dmig_graph::GraphBuilder;

    /// Doneness after the first `rounds` rounds of `schedule`.
    fn done_after(p: &MigrationProblem, schedule: &MigrationSchedule, rounds: usize) -> Vec<bool> {
        let mut done = vec![false; p.num_items()];
        for round in &schedule.rounds()[..rounds] {
            for &e in round {
                done[e.index()] = true;
            }
        }
        done
    }

    #[test]
    fn replan_with_no_progress_and_no_news_is_resolve() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 2), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let done = vec![false; p.num_items()];
        let r = replan_with(&p, &done, &ResidualChanges::default(), &AutoSolver).unwrap();
        assert_eq!(r.problem.num_items(), p.num_items());
        assert_eq!(r.problem, p);
        assert_eq!(r.schedule.makespan(), s.makespan());
        let all: Vec<EdgeId> = p.graph().edges().map(|(e, _)| e).collect();
        assert_eq!(r.origin, all);
        assert!(r.lost.is_empty());
        assert!(r.completed.is_empty());
    }

    #[test]
    fn executed_rounds_are_dropped() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let executed = 2;
        let moved: usize = s.rounds()[..executed].iter().map(Vec::len).sum();
        let done = done_after(&p, &s, executed);
        let r = replan_with(&p, &done, &ResidualChanges::default(), &AutoSolver).unwrap();
        assert_eq!(r.problem.num_items(), p.num_items() - moved);
        r.schedule.validate(&r.problem).unwrap();
    }

    #[test]
    fn mixed_residual_preserves_identities() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 2), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let done = done_after(&p, &s, 1);
        let r = replan_with(&p, &done, &ResidualChanges::default(), &GreedySolver).unwrap();
        let moved: usize = s.rounds()[..1].iter().map(Vec::len).sum();
        assert_eq!(r.origin.len(), p.num_items() - moved);
        // Each origin refers to a pending edge with identical endpoints,
        // in ascending id order.
        assert!(r.origin.windows(2).all(|w| w[0] < w[1]));
        for (res_idx, &orig) in r.origin.iter().enumerate() {
            assert!(!done[orig.index()]);
            assert_eq!(
                r.problem.graph().endpoints(EdgeId::new(res_idx)),
                p.graph().endpoints(orig)
            );
        }
    }

    #[test]
    fn repeated_replanning_converges() {
        // Run rounds one at a time, replanning after each; the migration
        // must still finish.
        let mut problem = MigrationProblem::uniform(complete_multigraph(3, 3), 2).unwrap();
        let mut schedule = AutoSolver.solve(&problem).unwrap();
        let mut steps = 0;
        while schedule.makespan() > 0 {
            let done = done_after(&problem, &schedule, 1);
            let r = replan_with(&problem, &done, &ResidualChanges::default(), &AutoSolver).unwrap();
            problem = r.problem;
            schedule = r.schedule;
            steps += 1;
            assert!(steps < 50, "replanning loop must terminate");
        }
        assert_eq!(problem.num_items(), 0);
    }

    // --- replan_with: dead disks, redirects, capacity updates ---

    /// 4 disks: 0-1, 1-2, 2-3 pending; disk 3 is a spare for disk 1.
    fn path_problem() -> MigrationProblem {
        let g = GraphBuilder::new().nodes(4).edge(0, 1).edge(1, 2).build();
        MigrationProblem::uniform(g, 2).unwrap()
    }

    #[test]
    fn dead_disk_with_replacement_redirects_edges() {
        let p = path_problem();
        let done = vec![false; p.num_items()];
        let changes = ResidualChanges {
            capacities: None,
            redirects: vec![(NodeId::new(1), Some(NodeId::new(3)))],
        };
        let r = replan_with(&p, &done, &changes, &AutoSolver).unwrap();
        assert_eq!(r.problem.num_items(), 2);
        assert!(r.lost.is_empty());
        // Every residual edge now touches the spare, none touches disk 1.
        for (_, ep) in r.problem.graph().edges() {
            assert!(!ep.contains(NodeId::new(1)));
            assert!(ep.contains(NodeId::new(3)));
        }
        r.schedule.validate(&r.problem).unwrap();
    }

    #[test]
    fn dead_disk_without_replacement_loses_its_items() {
        let p = path_problem();
        let done = vec![false; p.num_items()];
        let changes = ResidualChanges {
            capacities: None,
            redirects: vec![(NodeId::new(1), None)],
        };
        let r = replan_with(&p, &done, &changes, &AutoSolver).unwrap();
        assert_eq!(r.problem.num_items(), 0);
        assert_eq!(r.lost, vec![EdgeId::new(0), EdgeId::new(1)]);
    }

    #[test]
    fn done_items_do_not_resurface_in_losses() {
        let p = path_problem();
        let done = vec![true, false];
        let changes = ResidualChanges {
            capacities: None,
            redirects: vec![(NodeId::new(1), None)],
        };
        let r = replan_with(&p, &done, &changes, &AutoSolver).unwrap();
        assert_eq!(r.lost, vec![EdgeId::new(1)]);
    }

    #[test]
    fn redirect_collapsing_both_endpoints_completes_the_item() {
        // Edge 0-1 with both endpoints dead, both redirected to disk 2:
        // nothing left to transfer.
        let g = GraphBuilder::new().nodes(3).edge(0, 1).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let changes = ResidualChanges {
            capacities: None,
            redirects: vec![
                (NodeId::new(0), Some(NodeId::new(2))),
                (NodeId::new(1), Some(NodeId::new(2))),
            ],
        };
        let r = replan_with(&p, &[false], &changes, &AutoSolver).unwrap();
        assert_eq!(r.problem.num_items(), 0);
        assert_eq!(r.completed, vec![EdgeId::new(0)]);
        assert!(r.lost.is_empty());
    }

    #[test]
    fn replacement_must_be_live_and_in_range() {
        let p = path_problem();
        let done = vec![false; p.num_items()];
        for redirects in [
            // Replacement out of range.
            vec![(NodeId::new(1), Some(NodeId::new(9)))],
            // Replacement is itself dead.
            vec![
                (NodeId::new(1), Some(NodeId::new(2))),
                (NodeId::new(2), None),
            ],
            // Dead disk out of range.
            vec![(NodeId::new(9), None)],
        ] {
            let changes = ResidualChanges {
                capacities: None,
                redirects,
            };
            let err = replan_with(&p, &done, &changes, &AutoSolver).unwrap_err();
            assert!(matches!(err, ReplanError::BadRedirect { .. }), "{err}");
        }
    }

    #[test]
    fn capacity_override_applies_to_residual() {
        let p = path_problem();
        let done = vec![false; p.num_items()];
        let changes = ResidualChanges {
            capacities: Some(Capacities::from_vec(vec![1, 1, 1, 1])),
            redirects: vec![],
        };
        let r = replan_with(&p, &done, &changes, &AutoSolver).unwrap();
        assert_eq!(r.problem.capacities().as_slice(), &[1, 1, 1, 1]);
        // Disk 1 touches both items at c=1: two rounds now.
        assert_eq!(r.schedule.makespan(), 2);
    }

    #[test]
    fn done_length_mismatch_rejected() {
        let p = path_problem();
        let err = replan_with(&p, &[false], &ResidualChanges::default(), &AutoSolver).unwrap_err();
        assert!(matches!(err, ReplanError::DoneLengthMismatch { .. }));
    }
}
