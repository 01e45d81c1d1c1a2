//! Convenience builder for transfer graphs.

use crate::Multigraph;

/// Incremental builder for a [`Multigraph`] (C-BUILDER).
///
/// The builder grows the node set on demand: adding an edge `(u, v)` with
/// endpoints beyond the current node count allocates the missing nodes, so
/// instances can be written down in one pass without pre-counting disks.
///
/// # Example
///
/// ```
/// use dmig_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .edge(0, 1)
///     .edge(1, 2)
///     .parallel_edges(0, 2, 3)
///     .build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(usize, usize)>,
    min_nodes: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Ensures the graph has at least `n` nodes even if some are isolated.
    #[must_use]
    pub fn nodes(mut self, n: usize) -> Self {
        self.min_nodes = self.min_nodes.max(n);
        self
    }

    /// Adds one edge between (0-based) node indices `u` and `v`.
    #[must_use]
    pub fn edge(mut self, u: usize, v: usize) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds `k` parallel edges between `u` and `v`.
    #[must_use]
    pub fn parallel_edges(mut self, u: usize, v: usize, k: usize) -> Self {
        for _ in 0..k {
            self.edges.push((u, v));
        }
        self
    }

    /// Adds edges from an iterator of `(u, v)` pairs.
    #[must_use]
    pub fn edges_from<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Builds the multigraph; edge ids follow insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the graph is too large to build (see
    /// [`Multigraph::from_edges`]).
    #[must_use]
    pub fn build(&self) -> Multigraph {
        let n = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_nodes);
        Multigraph::from_edges(n, &self.edges).expect("graph too large to build")
    }
}

impl FromIterator<(usize, usize)> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        GraphBuilder::new().edges_from(iter)
    }
}

/// Builds the complete graph `K_n` with `m` parallel edges per pair — the
/// family used by the paper's Fig. 2 motivating example (`K_3`, `m = M`).
///
/// # Example
///
/// ```
/// use dmig_graph::builder::complete_multigraph;
/// let g = complete_multigraph(3, 2);
/// assert_eq!(g.num_edges(), 6);
/// assert_eq!(g.max_degree(), 4);
/// ```
#[must_use]
pub fn complete_multigraph(n: usize, m: usize) -> Multigraph {
    let mut b = GraphBuilder::new().nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b = b.parallel_edges(u, v, m);
        }
    }
    b.build()
}

/// Builds a cycle `C_n` with `m` parallel edges per cycle edge.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle_multigraph(n: usize, m: usize) -> Multigraph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new().nodes(n);
    for u in 0..n {
        b = b.parallel_edges(u, (u + 1) % n, m);
    }
    b.build()
}

/// Builds a star with `leaves` leaves and `m` parallel edges per spoke
/// (hub is node 0) — the shape of the slow-node bottleneck experiment (E7).
#[must_use]
pub fn star_multigraph(leaves: usize, m: usize) -> Multigraph {
    let mut b = GraphBuilder::new().nodes(leaves + 1);
    for leaf in 1..=leaves {
        b = b.parallel_edges(0, leaf, m);
    }
    b.build()
}

/// Builds a path `P_n` (n nodes, n-1 edges) with `m` parallel edges per hop.
#[must_use]
pub fn path_multigraph(n: usize, m: usize) -> Multigraph {
    let mut b = GraphBuilder::new().nodes(n);
    for u in 0..n.saturating_sub(1) {
        b = b.parallel_edges(u, u + 1, m);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_nodes_on_demand() {
        let g = GraphBuilder::new().edge(5, 2).build();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn builder_min_nodes() {
        let g = GraphBuilder::new().nodes(10).edge(0, 1).build();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn builder_from_iterator() {
        let g: Multigraph = [(0, 1), (1, 2)]
            .into_iter()
            .collect::<GraphBuilder>()
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete_multigraph(4, 3);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6 * 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 9);
        }
    }

    #[test]
    fn cycle_graph_shape() {
        let g = cycle_multigraph(5, 2);
        assert_eq!(g.num_edges(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn cycle_too_small_panics() {
        let _ = cycle_multigraph(2, 1);
    }

    #[test]
    fn star_graph_shape() {
        let g = star_multigraph(6, 2);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.degree(0.into()), 12);
        assert_eq!(g.degree(3.into()), 2);
    }

    #[test]
    fn path_graph_shape() {
        let g = path_multigraph(4, 1);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0.into()), 1);
        assert_eq!(g.degree(1.into()), 2);
        let empty = path_multigraph(0, 1);
        assert_eq!(empty.num_edges(), 0);
    }
}
