//! Problem instances: transfer graph + per-disk transfer constraints.

use core::fmt;

use dmig_graph::{Multigraph, NodeId};

/// Errors detected when constructing a [`MigrationProblem`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProblemError {
    /// The capacity vector length does not match the node count.
    CapacityLengthMismatch {
        /// Provided capacities.
        capacities: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A disk was given transfer constraint 0 but has items to move.
    ZeroCapacity {
        /// The offending disk.
        node: NodeId,
    },
    /// The transfer graph contains a self-loop (an item "moving" to its own
    /// disk), which is not a migration.
    SelfLoop {
        /// The disk carrying the loop.
        node: NodeId,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::CapacityLengthMismatch { capacities, nodes } => {
                write!(f, "{capacities} capacities given for {nodes} disks")
            }
            ProblemError::ZeroCapacity { node } => {
                write!(
                    f,
                    "disk {node} has transfer constraint 0 but incident transfers"
                )
            }
            ProblemError::SelfLoop { node } => {
                write!(f, "transfer graph has a self-loop at disk {node}")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Per-disk transfer constraints `c_v`: how many simultaneous transfers
/// each disk can take part in.
///
/// # Example
///
/// ```
/// use dmig_core::Capacities;
///
/// let caps = Capacities::from_vec(vec![2, 4, 3]);
/// assert_eq!(caps.get(1.into()), 4);
/// assert!(!caps.all_even());
/// assert_eq!(caps.min(), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Capacities {
    values: Vec<u32>,
}

impl Capacities {
    /// Wraps a capacity vector (index `v` holds `c_v`).
    #[must_use]
    pub fn from_vec(values: Vec<u32>) -> Self {
        Capacities { values }
    }

    /// All disks share the same constraint `c`.
    #[must_use]
    pub fn uniform(n: usize, c: u32) -> Self {
        Capacities { values: vec![c; n] }
    }

    /// Number of disks covered.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no disks are covered.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The constraint of disk `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, v: NodeId) -> u32 {
        self.values[v.index()]
    }

    /// The raw capacity slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.values
    }

    /// Returns `true` if every constraint is even — the case with a
    /// polynomial-time optimal schedule (paper §IV).
    #[must_use]
    pub fn all_even(&self) -> bool {
        self.values.iter().all(|c| c % 2 == 0)
    }

    /// Minimum constraint, if any disks exist (`c⁻` in the paper).
    #[must_use]
    pub fn min(&self) -> Option<u32> {
        self.values.iter().copied().min()
    }

    /// Maximum constraint, if any disks exist (`c⁺` in the paper).
    #[must_use]
    pub fn max(&self) -> Option<u32> {
        self.values.iter().copied().max()
    }
}

impl FromIterator<u32> for Capacities {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Capacities {
            values: iter.into_iter().collect(),
        }
    }
}

/// A heterogeneous data-migration instance: the transfer multigraph plus
/// the transfer constraints (§III of the paper).
///
/// Construction validates the instance: capacities must cover every disk,
/// disks with incident transfers need `c_v ≥ 1`, and self-loops are
/// rejected.
///
/// # Example
///
/// ```
/// use dmig_core::{Capacities, MigrationProblem};
/// use dmig_graph::GraphBuilder;
///
/// let g = GraphBuilder::new().parallel_edges(0, 1, 3).edge(1, 2).build();
/// let p = MigrationProblem::new(g, Capacities::from_vec(vec![1, 2, 1]))?;
/// assert_eq!(p.num_disks(), 3);
/// assert_eq!(p.num_items(), 4);
/// assert_eq!(p.delta_prime(), 3); // disk 0: ⌈3/1⌉
/// # Ok::<(), dmig_core::ProblemError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationProblem {
    graph: Multigraph,
    capacities: Capacities,
}

impl MigrationProblem {
    /// Builds and validates an instance.
    ///
    /// # Errors
    ///
    /// * [`ProblemError::CapacityLengthMismatch`] if `capacities` does not
    ///   cover every node;
    /// * [`ProblemError::SelfLoop`] if the graph has a self-loop;
    /// * [`ProblemError::ZeroCapacity`] if a disk with incident transfers
    ///   has constraint 0.
    pub fn new(graph: Multigraph, capacities: Capacities) -> Result<Self, ProblemError> {
        if capacities.len() != graph.num_nodes() {
            return Err(ProblemError::CapacityLengthMismatch {
                capacities: capacities.len(),
                nodes: graph.num_nodes(),
            });
        }
        for (_, ep) in graph.edges() {
            if ep.is_loop() {
                return Err(ProblemError::SelfLoop { node: ep.u });
            }
        }
        for v in graph.nodes() {
            if graph.degree(v) > 0 && capacities.get(v) == 0 {
                return Err(ProblemError::ZeroCapacity { node: v });
            }
        }
        Ok(MigrationProblem { graph, capacities })
    }

    /// Builds an instance where every disk has the same constraint `c`.
    ///
    /// # Errors
    ///
    /// Same as [`MigrationProblem::new`].
    pub fn uniform(graph: Multigraph, c: u32) -> Result<Self, ProblemError> {
        let caps = Capacities::uniform(graph.num_nodes(), c);
        MigrationProblem::new(graph, caps)
    }

    /// The transfer multigraph.
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &Multigraph {
        &self.graph
    }

    /// The transfer constraints.
    #[inline]
    #[must_use]
    pub fn capacities(&self) -> &Capacities {
        &self.capacities
    }

    /// Number of disks.
    #[inline]
    #[must_use]
    pub fn num_disks(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of data items to migrate.
    #[inline]
    #[must_use]
    pub fn num_items(&self) -> usize {
        self.graph.num_edges()
    }

    /// The first lower bound `Δ' = max_v ⌈d_v / c_v⌉` (paper §III, LB1).
    ///
    /// Returns 0 for an instance with no items.
    #[must_use]
    pub fn delta_prime(&self) -> usize {
        self.graph
            .nodes()
            .map(|v| {
                let d = self.graph.degree(v);
                let c = self.capacities.get(v) as usize;
                if d == 0 {
                    0
                } else {
                    d.div_ceil(c)
                }
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for MigrationProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migration problem(disks={}, items={}, Δ'={})",
            self.num_disks(),
            self.num_items(),
            self.delta_prime()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::builder::{complete_multigraph, GraphBuilder};

    #[test]
    fn uniform_construction() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 2), 2).unwrap();
        assert_eq!(p.num_disks(), 3);
        assert_eq!(p.num_items(), 6);
        assert!(p.capacities().all_even());
    }

    #[test]
    fn capacity_length_checked() {
        let g = complete_multigraph(3, 1);
        let err = MigrationProblem::new(g, Capacities::from_vec(vec![1, 1])).unwrap_err();
        assert_eq!(
            err,
            ProblemError::CapacityLengthMismatch {
                capacities: 2,
                nodes: 3
            }
        );
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Multigraph::with_nodes(2);
        g.add_edge(1.into(), 1.into());
        let err = MigrationProblem::uniform(g, 1).unwrap_err();
        assert_eq!(
            err,
            ProblemError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn zero_capacity_rejected_only_when_used() {
        let g = GraphBuilder::new().nodes(3).edge(0, 1).build();
        // Disk 2 is idle; its capacity may be 0.
        assert!(MigrationProblem::new(g.clone(), Capacities::from_vec(vec![1, 1, 0])).is_ok());
        let err = MigrationProblem::new(g, Capacities::from_vec(vec![0, 1, 0])).unwrap_err();
        assert_eq!(
            err,
            ProblemError::ZeroCapacity {
                node: NodeId::new(0)
            }
        );
    }

    #[test]
    fn delta_prime_examples() {
        // Fig. 2 family: K3 with M=4 parallel, c=2 → Δ' = ⌈2M/2⌉ = M = 4.
        let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2).unwrap();
        assert_eq!(p.delta_prime(), 4);
        // Heterogeneous: degrees 4 with c=3 → ⌈4/3⌉ = 2.
        let p2 = MigrationProblem::uniform(complete_multigraph(3, 2), 3).unwrap();
        assert_eq!(p2.delta_prime(), 2);
        // No items.
        let p3 = MigrationProblem::uniform(Multigraph::with_nodes(4), 1).unwrap();
        assert_eq!(p3.delta_prime(), 0);
    }

    #[test]
    fn capacities_helpers() {
        let caps = Capacities::from_vec(vec![2, 4, 6]);
        assert!(caps.all_even());
        assert_eq!(caps.min(), Some(2));
        assert_eq!(caps.max(), Some(6));
        let odd: Capacities = [1u32, 2].into_iter().collect();
        assert!(!odd.all_even());
        assert!(Capacities::from_vec(vec![]).is_empty());
        assert_eq!(Capacities::from_vec(vec![]).min(), None);
    }

    #[test]
    fn display_mentions_sizes() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 1), 1).unwrap();
        let s = p.to_string();
        assert!(s.contains("disks=3"));
        assert!(s.contains("items=3"));
    }

    use dmig_graph::Multigraph;
    use dmig_graph::NodeId;
}
