//! Migration schedules: rounds of simultaneous transfers.

use core::fmt;

use dmig_graph::{EdgeId, NodeId};

use crate::MigrationProblem;

/// Errors detected when validating a [`MigrationSchedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// An item appears in more than one round.
    DuplicateItem {
        /// The duplicated edge.
        item: EdgeId,
    },
    /// An item never migrates.
    MissingItem {
        /// The missing edge.
        item: EdgeId,
    },
    /// An item id does not exist in the instance.
    UnknownItem {
        /// The foreign edge.
        item: EdgeId,
    },
    /// A round loads a disk beyond its transfer constraint.
    OverloadedDisk {
        /// The round index.
        round: usize,
        /// The overloaded disk.
        disk: NodeId,
        /// Transfers scheduled for the disk in that round.
        load: usize,
        /// Its constraint `c_v`.
        capacity: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::DuplicateItem { item } => {
                write!(f, "item {item} is scheduled more than once")
            }
            ScheduleError::MissingItem { item } => write!(f, "item {item} is never scheduled"),
            ScheduleError::UnknownItem { item } => {
                write!(f, "item {item} does not exist in the instance")
            }
            ScheduleError::OverloadedDisk {
                round,
                disk,
                load,
                capacity,
            } => write!(
                f,
                "round {round} loads disk {disk} with {load} transfers, constraint is {capacity}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A data-migration schedule: an ordered list of rounds, each a set of
/// items (edges) transferred simultaneously.
///
/// A schedule is *feasible* for a [`MigrationProblem`] when every item is
/// scheduled exactly once and no round loads a disk `v` with more than
/// `c_v` transfers — checked by [`MigrationSchedule::validate`].
///
/// # Example
///
/// ```
/// use dmig_core::{MigrationProblem, MigrationSchedule};
/// use dmig_graph::GraphBuilder;
///
/// let g = GraphBuilder::new().edge(0, 1).edge(1, 2).build();
/// let p = MigrationProblem::uniform(g, 1)?;
/// let s = MigrationSchedule::from_rounds(vec![
///     vec![0.into()],
///     vec![1.into()],
/// ]);
/// s.validate(&p)?;
/// assert_eq!(s.makespan(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationSchedule {
    rounds: Vec<Vec<EdgeId>>,
}

impl MigrationSchedule {
    /// Wraps explicit rounds.
    #[must_use]
    pub fn from_rounds(rounds: Vec<Vec<EdgeId>>) -> Self {
        MigrationSchedule { rounds }
    }

    /// Builds a schedule from an edge coloring: color class `c` becomes
    /// round `c`. Empty classes produce empty rounds until trimmed.
    #[must_use]
    pub fn from_coloring(coloring: &dmig_color::EdgeColoring) -> Self {
        let mut s = MigrationSchedule {
            rounds: coloring.classes(),
        };
        s.trim_empty_rounds();
        s
    }

    /// Number of rounds (the schedule makespan in the unit-size model).
    #[inline]
    #[must_use]
    pub fn makespan(&self) -> usize {
        self.rounds.len()
    }

    /// The rounds, in execution order.
    #[inline]
    #[must_use]
    pub fn rounds(&self) -> &[Vec<EdgeId>] {
        &self.rounds
    }

    /// Total number of scheduled item transfers.
    #[must_use]
    pub fn num_items(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Removes empty rounds (preserving relative order of the rest).
    pub fn trim_empty_rounds(&mut self) {
        self.rounds.retain(|r| !r.is_empty());
    }

    /// Checks feasibility against `problem`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: duplicated/missing/unknown items
    /// or a round that overloads a disk beyond `c_v`.
    pub fn validate(&self, problem: &MigrationProblem) -> Result<(), ScheduleError> {
        let g = problem.graph();
        let m = g.num_edges();
        let mut seen = vec![false; m];
        for round in &self.rounds {
            for &item in round {
                if item.index() >= m {
                    return Err(ScheduleError::UnknownItem { item });
                }
                if seen[item.index()] {
                    return Err(ScheduleError::DuplicateItem { item });
                }
                seen[item.index()] = true;
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(ScheduleError::MissingItem {
                item: EdgeId::new(i),
            });
        }
        let mut load = vec![0usize; g.num_nodes()];
        for (round_idx, round) in self.rounds.iter().enumerate() {
            load.iter_mut().for_each(|l| *l = 0);
            for &item in round {
                let ep = g.endpoints(item);
                load[ep.u.index()] += 1;
                load[ep.v.index()] += 1;
            }
            for v in g.nodes() {
                let cap = problem.capacities().get(v) as usize;
                if load[v.index()] > cap {
                    return Err(ScheduleError::OverloadedDisk {
                        round: round_idx,
                        disk: v,
                        load: load[v.index()],
                        capacity: cap,
                    });
                }
            }
        }
        Ok(())
    }

    /// Sum over all items of the (1-based) round in which they complete —
    /// the *total completion time* objective studied by Kim [J. Alg. '05]
    /// and Gandhi et al. [ICALP '04] as an alternative to makespan.
    #[must_use]
    pub fn total_completion_time(&self) -> usize {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, round)| (i + 1) * round.len())
            .sum()
    }

    /// Reorders rounds so larger rounds run first, which minimizes
    /// [`MigrationSchedule::total_completion_time`] over all permutations
    /// of a fixed round partition (an exchange argument: swapping a
    /// smaller-earlier/larger-later pair never increases the sum).
    /// Makespan and feasibility are unaffected.
    pub fn order_rounds_for_completion(&mut self) {
        self.rounds.sort_by_key(|r| std::cmp::Reverse(r.len()));
    }

    /// Sum over disks of the (1-based) round after which each disk is
    /// done migrating — the "sum of disk completion times" objective of
    /// Kim [J. Alg. '05] / Gandhi et al. [WAOA '04] (§II), which matters
    /// when a disk returns to serving full production traffic as soon as
    /// its own transfers finish. Idle disks contribute 0.
    #[must_use]
    pub fn total_disk_completion_time(&self, problem: &MigrationProblem) -> usize {
        let g = problem.graph();
        let mut last_round = vec![0usize; g.num_nodes()];
        for (i, round) in self.rounds.iter().enumerate() {
            for &e in round {
                let ep = g.endpoints(e);
                last_round[ep.u.index()] = i + 1;
                last_round[ep.v.index()] = i + 1;
            }
        }
        last_round.iter().sum()
    }

    /// Greedy post-compaction: tries to move every item of the *last*
    /// rounds into earlier rounds with spare capacity, repeatedly, then
    /// drops emptied rounds. Never increases the makespan; useful for
    /// tightening baseline schedules (the exact and §IV solvers are
    /// already tight). Returns how many items moved.
    pub fn compact_rounds(&mut self, problem: &MigrationProblem) -> usize {
        let g = problem.graph();
        let n = g.num_nodes();
        let k = self.rounds.len();
        if k <= 1 {
            return 0;
        }
        // Residual capacity per (round, disk).
        let mut residual = vec![0i64; k * n];
        for (r, round) in self.rounds.iter().enumerate() {
            for v in g.nodes() {
                residual[r * n + v.index()] = i64::from(problem.capacities().get(v));
            }
            for &e in round {
                let ep = g.endpoints(e);
                residual[r * n + ep.u.index()] -= 1;
                residual[r * n + ep.v.index()] -= 1;
            }
        }
        let mut moved = 0usize;
        for src in (1..k).rev() {
            let items = std::mem::take(&mut self.rounds[src]);
            let mut keep = Vec::with_capacity(items.len());
            for e in items {
                let ep = g.endpoints(e);
                let dst = (0..src).find(|&r| {
                    residual[r * n + ep.u.index()] > 0 && residual[r * n + ep.v.index()] > 0
                });
                match dst {
                    Some(r) => {
                        residual[r * n + ep.u.index()] -= 1;
                        residual[r * n + ep.v.index()] -= 1;
                        residual[src * n + ep.u.index()] += 1;
                        residual[src * n + ep.v.index()] += 1;
                        self.rounds[r].push(e);
                        moved += 1;
                    }
                    None => keep.push(e),
                }
            }
            self.rounds[src] = keep;
        }
        self.trim_empty_rounds();
        moved
    }
}

impl fmt::Display for MigrationSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule({} rounds, {} transfers)",
            self.makespan(),
            self.num_items()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::builder::complete_multigraph;
    use dmig_graph::GraphBuilder;

    fn k3_problem() -> MigrationProblem {
        MigrationProblem::uniform(complete_multigraph(3, 1), 1).unwrap()
    }

    #[test]
    fn valid_three_round_triangle() {
        let p = k3_problem();
        let s =
            MigrationSchedule::from_rounds(vec![vec![0.into()], vec![1.into()], vec![2.into()]]);
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 3);
        assert_eq!(s.num_items(), 3);
    }

    #[test]
    fn detects_duplicate() {
        let p = k3_problem();
        let s = MigrationSchedule::from_rounds(vec![vec![0.into()], vec![0.into()]]);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::DuplicateItem { .. })
        ));
    }

    #[test]
    fn detects_missing() {
        let p = k3_problem();
        let s = MigrationSchedule::from_rounds(vec![vec![0.into()], vec![1.into()]]);
        assert_eq!(
            s.validate(&p),
            Err(ScheduleError::MissingItem {
                item: EdgeId::new(2)
            })
        );
    }

    #[test]
    fn detects_unknown() {
        let p = k3_problem();
        let s = MigrationSchedule::from_rounds(vec![vec![7.into()]]);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::UnknownItem { .. })
        ));
    }

    #[test]
    fn detects_overload() {
        let p = k3_problem();
        // All three triangle edges in one round: each disk degree 2 > c=1.
        let s = MigrationSchedule::from_rounds(vec![vec![0.into(), 1.into(), 2.into()]]);
        let err = s.validate(&p).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::OverloadedDisk {
                round: 0,
                load: 2,
                capacity: 1,
                ..
            }
        ));
    }

    #[test]
    fn capacity_two_allows_triangle_in_two_rounds() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 1), 2).unwrap();
        let s = MigrationSchedule::from_rounds(vec![vec![0.into(), 1.into(), 2.into()]]);
        s.validate(&p).unwrap();
    }

    #[test]
    fn from_coloring_groups_rounds() {
        use dmig_color::EdgeColoring;
        let mut c = EdgeColoring::uncolored(3);
        c.set(0.into(), 0);
        c.set(1.into(), 2); // color 1 left empty
        c.set(2.into(), 0);
        let s = MigrationSchedule::from_coloring(&c);
        assert_eq!(s.makespan(), 2, "empty classes trimmed");
        assert_eq!(s.num_items(), 3);
    }

    #[test]
    fn completion_time_counts_late_items_more() {
        let s = MigrationSchedule::from_rounds(vec![vec![0.into(), 1.into()], vec![2.into()]]);
        // 2 items finish at round 1, one at round 2: 2·1 + 1·2 = 4.
        assert_eq!(s.total_completion_time(), 4);
    }

    #[test]
    fn ordering_rounds_minimizes_completion() {
        let mut s = MigrationSchedule::from_rounds(vec![
            vec![0.into()],
            vec![1.into(), 2.into(), 3.into()],
        ]);
        assert_eq!(s.total_completion_time(), 1 + 3 * 2);
        s.order_rounds_for_completion();
        assert_eq!(s.total_completion_time(), 3 + 2);
        assert_eq!(s.makespan(), 2);
    }

    #[test]
    fn disk_completion_time_tracks_last_participation() {
        // Edges: (0,1) in round 1, (1,2) in round 2; disk 3 idle.
        let g = GraphBuilder::new().nodes(4).edge(0, 1).edge(1, 2).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let s = MigrationSchedule::from_rounds(vec![vec![0.into()], vec![1.into()]]);
        // disk 0 done after round 1, disks 1 and 2 after round 2, disk 3 idle.
        assert_eq!(s.total_disk_completion_time(&p), (1 + 2 + 2));
    }

    #[test]
    fn compaction_merges_sparse_rounds() {
        // Two independent edges scheduled wastefully in two rounds.
        let g = GraphBuilder::new().edge(0, 1).edge(2, 3).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let mut s = MigrationSchedule::from_rounds(vec![vec![0.into()], vec![1.into()]]);
        s.validate(&p).unwrap();
        let moved = s.compact_rounds(&p);
        assert_eq!(moved, 1);
        assert_eq!(s.makespan(), 1);
        s.validate(&p).unwrap();
    }

    #[test]
    fn compaction_respects_capacity() {
        // Sharing node 1 at c=1: nothing can merge.
        let g = GraphBuilder::new().edge(0, 1).edge(1, 2).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let mut s = MigrationSchedule::from_rounds(vec![vec![0.into()], vec![1.into()]]);
        assert_eq!(s.compact_rounds(&p), 0);
        assert_eq!(s.makespan(), 2);
        s.validate(&p).unwrap();
    }

    #[test]
    fn empty_schedule_for_empty_problem() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(2), 1).unwrap();
        let s = MigrationSchedule::default();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.to_string(), "schedule(0 rounds, 0 transfers)");
    }
}
