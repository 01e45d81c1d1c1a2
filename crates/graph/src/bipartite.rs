//! Bipartition detection.
//!
//! Reconfiguration workloads (old layout → new layout, disk addition,
//! drain-before-removal) produce naturally bipartite transfer graphs, for
//! which `dmig-core` has an exactly-optimal special-case solver. This module
//! detects bipartiteness and assigns every node its side.

use crate::{GraphError, Multigraph, NodeId};

/// A two-coloring of the nodes of a bipartite multigraph.
///
/// Produced by [`bipartition`]. Every edge has one endpoint on each side;
/// isolated nodes are assigned to the left side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartition {
    side: Vec<bool>,
}

impl Bipartition {
    /// Returns `true` if `v` is on the left side.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn is_left(&self, v: NodeId) -> bool {
        !self.side[v.index()]
    }
}

/// Attempts to two-color the nodes of `g` so every edge crosses sides.
///
/// Parallel edges are fine; any self-loop makes the graph non-bipartite.
///
/// # Errors
///
/// Returns [`GraphError::NotBipartite`] with a witness node on an odd cycle
/// (or carrying a self-loop).
///
/// # Example
///
/// ```
/// use dmig_graph::{GraphBuilder, bipartite::bipartition};
///
/// let g = GraphBuilder::new().edge(0, 2).edge(1, 2).edge(1, 3).build();
/// let sides = bipartition(&g)?;
/// assert!(sides.is_left(0.into()) != sides.is_left(2.into()));
/// # Ok::<(), dmig_graph::GraphError>(())
/// ```
pub fn bipartition(g: &Multigraph) -> Result<Bipartition, GraphError> {
    let n = g.num_nodes();
    let mut side = vec![false; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();

    for start in g.nodes() {
        if visited[start.index()] {
            continue;
        }
        visited[start.index()] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &e in g.incident_edges(v) {
                let ep = g.endpoints(e);
                if ep.is_loop() {
                    return Err(GraphError::NotBipartite { witness: v });
                }
                let w = ep.other(v);
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    side[w.index()] = !side[v.index()];
                    queue.push_back(w);
                } else if side[w.index()] == side[v.index()] {
                    return Err(GraphError::NotBipartite { witness: w });
                }
            }
        }
    }
    Ok(Bipartition { side })
}

/// Returns `true` if `g` is bipartite.
#[must_use]
pub fn is_bipartite(g: &Multigraph) -> bool {
    bipartition(g).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_multigraph, cycle_multigraph, GraphBuilder};

    #[test]
    fn even_cycle_is_bipartite() {
        let g = cycle_multigraph(6, 3);
        let sides = bipartition(&g).unwrap();
        for (_, ep) in g.edges() {
            assert_ne!(sides.is_left(ep.u), sides.is_left(ep.v));
        }
        let left = g.nodes().filter(|&v| sides.is_left(v)).count();
        assert_eq!((left, g.num_nodes() - left), (3, 3));
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        let g = cycle_multigraph(5, 1);
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn triangle_not_bipartite() {
        assert!(!is_bipartite(&complete_multigraph(3, 2)));
    }

    #[test]
    fn self_loop_not_bipartite() {
        let mut g = Multigraph::with_nodes(1);
        g.add_edge(0.into(), 0.into());
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn parallel_edges_are_fine() {
        let g = GraphBuilder::new().parallel_edges(0, 1, 7).build();
        assert!(is_bipartite(&g));
    }

    #[test]
    fn isolated_nodes_go_left() {
        let g = GraphBuilder::new().nodes(3).edge(0, 1).build();
        let sides = bipartition(&g).unwrap();
        assert!(sides.is_left(2.into()));
    }

    #[test]
    fn disconnected_bipartite_components() {
        let g = GraphBuilder::new().edge(0, 1).edge(2, 3).edge(3, 4).build();
        assert!(is_bipartite(&g));
    }

    #[test]
    fn empty_graph_bipartite() {
        assert!(is_bipartite(&Multigraph::new()));
    }
}
