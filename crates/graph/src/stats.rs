//! Descriptive statistics of transfer graphs, for experiment reporting.

use crate::{bipartite::is_bipartite, components::connected_components, Multigraph};

/// Summary statistics of a multigraph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Nodes.
    pub num_nodes: usize,
    /// Edges (parallel edges counted individually).
    pub num_edges: usize,
    /// Minimum degree over non-isolated nodes (0 if none).
    pub min_degree: usize,
    /// Maximum degree (`Δ`).
    pub max_degree: usize,
    /// Mean degree over all nodes.
    pub mean_degree: f64,
    /// Maximum edge multiplicity (`μ`).
    pub max_multiplicity: usize,
    /// Connected components (isolated nodes are singletons).
    pub components: usize,
    /// Nodes with no incident edges.
    pub isolated_nodes: usize,
    /// Whether the graph is bipartite.
    pub bipartite: bool,
    /// Whether the graph is simple (no loops, no parallel edges).
    pub simple: bool,
}

/// Computes [`GraphStats`] for `g`.
///
/// # Example
///
/// ```
/// use dmig_graph::{builder::complete_multigraph, stats::graph_stats};
///
/// let s = graph_stats(&complete_multigraph(3, 2));
/// assert_eq!(s.max_degree, 4);
/// assert_eq!(s.max_multiplicity, 2);
/// assert!(!s.bipartite);
/// ```
#[must_use]
pub fn graph_stats(g: &Multigraph) -> GraphStats {
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let isolated = degrees.iter().filter(|&&d| d == 0).count();
    let min_degree = degrees
        .iter()
        .copied()
        .filter(|&d| d > 0)
        .min()
        .unwrap_or(0);
    GraphStats {
        num_nodes: g.num_nodes(),
        num_edges: g.num_edges(),
        min_degree,
        max_degree: g.max_degree(),
        mean_degree: if g.num_nodes() == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / g.num_nodes() as f64
        },
        max_multiplicity: g.max_multiplicity(),
        components: connected_components(g).count(),
        isolated_nodes: isolated,
        bipartite: is_bipartite(g),
        simple: g.is_simple(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_multigraph, GraphBuilder};

    #[test]
    fn stats_of_k3() {
        let s = graph_stats(&complete_multigraph(3, 2));
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_edges, 6);
        assert_eq!(s.min_degree, 4);
        assert_eq!(s.max_degree, 4);
        assert!((s.mean_degree - 4.0).abs() < 1e-12);
        assert_eq!(s.components, 1);
        assert!(!s.simple);
        assert!(!s.bipartite);
    }

    #[test]
    fn stats_with_isolated_nodes() {
        let g = GraphBuilder::new().nodes(5).edge(0, 1).build();
        let s = graph_stats(&g);
        assert_eq!(s.isolated_nodes, 3);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.components, 4);
        assert!(s.bipartite);
        assert!(s.simple);
    }

    #[test]
    fn empty_graph_stats() {
        let s = graph_stats(&Multigraph::new());
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    use crate::Multigraph;
}
