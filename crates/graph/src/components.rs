//! Connected components of a multigraph.

use crate::{Multigraph, NodeId};

/// A partition of a graph's nodes into connected components.
///
/// Produced by [`connected_components`]. Isolated nodes form singleton
/// components. Component ids are dense (`0..count`) and assigned in order of
/// the smallest node id they contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    component_of: Vec<usize>,
    count: usize,
}

impl Components {
    /// Number of connected components.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component_of[v.index()]
    }

    /// Returns `true` if `u` and `v` lie in the same component.
    #[inline]
    #[must_use]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component_of(u) == self.component_of(v)
    }

    /// Returns the nodes of each component, grouped by component id.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count];
        for (i, &c) in self.component_of.iter().enumerate() {
            out[c].push(NodeId::new(i));
        }
        out
    }
}

/// Computes the connected components of `g` via iterative DFS.
///
/// # Example
///
/// ```
/// use dmig_graph::{GraphBuilder, components::connected_components};
///
/// let g = GraphBuilder::new().nodes(5).edge(0, 1).edge(2, 3).build();
/// let comps = connected_components(&g);
/// assert_eq!(comps.count(), 3); // {0,1}, {2,3}, {4}
/// assert!(comps.same_component(0.into(), 1.into()));
/// assert!(!comps.same_component(1.into(), 2.into()));
/// ```
#[must_use]
pub fn connected_components(g: &Multigraph) -> Components {
    let n = g.num_nodes();
    let mut component_of = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    // Walk a flat CSR snapshot so the DFS reads contiguous slots with the
    // far endpoint precomputed, instead of one Vec plus an endpoint lookup
    // per incidence.
    let csr = g.to_csr();
    for start in 0..n {
        if component_of[start] != usize::MAX {
            continue;
        }
        component_of[start] = count;
        stack.push(NodeId::new(start));
        while let Some(v) = stack.pop() {
            for &(_, w) in csr.incident(v) {
                if component_of[w.index()] == usize::MAX {
                    component_of[w.index()] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    Components {
        component_of,
        count,
    }
}

/// Returns `true` if every pair of non-isolated nodes is connected, i.e. the
/// edges of `g` span a single connected component (isolated nodes ignored).
///
/// One traversal from the first edge, counting the nodes it reaches
/// against the nodes with an edge.
#[must_use]
pub fn edges_connected(g: &Multigraph) -> bool {
    let Some((_, first)) = g.edges().next() else {
        return true;
    };
    let mut seen = vec![false; g.num_nodes()];
    seen[first.u.index()] = true;
    let mut reached = 1usize;
    let mut stack = vec![first.u];
    while let Some(v) = stack.pop() {
        for &e in g.incident_edges(v) {
            let w = g.endpoints(e).other(v);
            if !seen[w.index()] {
                seen[w.index()] = true;
                reached += 1;
                stack.push(w);
            }
        }
    }
    reached == g.nodes().filter(|&v| g.degree(v) > 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_multigraph, GraphBuilder};

    #[test]
    fn empty_graph_has_no_components() {
        let comps = connected_components(&Multigraph::new());
        assert_eq!(comps.count(), 0);
        assert!(comps.groups().is_empty());
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = Multigraph::with_nodes(3);
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 3);
        assert_eq!(
            comps.groups(),
            vec![
                vec![NodeId::new(0)],
                vec![NodeId::new(1)],
                vec![NodeId::new(2)],
            ]
        );
    }

    #[test]
    fn single_component_complete_graph() {
        let g = complete_multigraph(5, 2);
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 1);
    }

    #[test]
    fn self_loops_do_not_merge_components() {
        let mut g = Multigraph::with_nodes(2);
        g.add_edge(0.into(), 0.into());
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 2);
    }

    #[test]
    fn component_ids_ordered_by_smallest_member() {
        let g = GraphBuilder::new().nodes(6).edge(4, 5).edge(0, 2).build();
        let comps = connected_components(&g);
        assert_eq!(comps.component_of(0.into()), 0);
        assert_eq!(comps.component_of(2.into()), 0);
        assert_eq!(comps.component_of(1.into()), 1);
        assert_eq!(comps.component_of(4.into()), 3);
    }

    #[test]
    fn edges_connected_ignores_isolated() {
        let g = GraphBuilder::new().nodes(5).edge(0, 1).edge(1, 2).build();
        assert!(edges_connected(&g));
        let g2 = GraphBuilder::new().nodes(5).edge(0, 1).edge(2, 3).build();
        assert!(!edges_connected(&g2));
        assert!(edges_connected(&Multigraph::with_nodes(4)));
    }
}
