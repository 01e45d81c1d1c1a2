//! The undirected multigraph at the heart of the migration problem.

use core::fmt;

use crate::{EdgeId, GraphError, NodeId};

/// The two endpoints of an edge.
///
/// For a self-loop both endpoints are equal. `Endpoints` is deliberately a
/// plain data carrier with public fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Endpoints {
    /// First endpoint (the *source* disk of the data item, where relevant).
    pub u: NodeId,
    /// Second endpoint (the *destination* disk).
    pub v: NodeId,
}

impl Endpoints {
    /// Returns the endpoint that is not `w`.
    ///
    /// For a self-loop returns `w` itself.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not an endpoint of this edge.
    #[inline]
    #[must_use]
    pub fn other(self, w: NodeId) -> NodeId {
        if w == self.u {
            self.v
        } else {
            assert_eq!(w, self.v, "node {w} is not an endpoint of this edge");
            self.u
        }
    }

    /// Returns `true` if `w` is one of the two endpoints.
    #[inline]
    #[must_use]
    pub fn contains(self, w: NodeId) -> bool {
        self.u == w || self.v == w
    }

    /// Returns `true` if both endpoints coincide.
    #[inline]
    #[must_use]
    pub fn is_loop(self) -> bool {
        self.u == self.v
    }
}

impl fmt::Display for Endpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// An undirected multigraph: the paper's *transfer graph*.
///
/// Nodes model disks; each edge models one unit-size data item that must
/// move between its endpoints. Parallel edges (several items between the
/// same pair of disks) and self-loops (used internally for degree padding in
/// the even-capacity algorithm, §IV step 1) are both supported.
///
/// Degree convention: a self-loop contributes **2** to the degree of its
/// node, matching the Euler-circuit view used by the paper's algorithm.
///
/// Edge ids are assigned densely in insertion order and are never
/// invalidated; algorithms that need a mutated graph build a new one and
/// keep a mapping back to the original ids (see [`Multigraph::edge_subgraph`]).
///
/// # Example
///
/// ```
/// use dmig_graph::Multigraph;
///
/// let mut g = Multigraph::with_nodes(4);
/// let e0 = g.add_edge(0.into(), 1.into());
/// let e1 = g.add_edge(0.into(), 1.into()); // parallel edge
/// let e2 = g.add_edge(2.into(), 2.into()); // self-loop
/// assert_eq!(g.endpoints(e0), g.endpoints(e1));
/// assert_eq!(g.degree(0.into()), 2);
/// assert_eq!(g.degree(2.into()), 2); // loop counts twice
/// assert_eq!(g.multiplicity(0.into(), 1.into()), 2);
/// let _ = e2;
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Multigraph {
    edges: Vec<Endpoints>,
    /// Incidence lists: for each node, the ids of incident edges.
    /// A self-loop appears twice in its node's list.
    adjacency: Vec<Vec<EdgeId>>,
}

impl Multigraph {
    /// Creates an empty graph with no nodes.
    #[must_use]
    pub fn new() -> Self {
        Multigraph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        Multigraph {
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` isolated nodes and room for `edges` edges,
    /// so the edge list never reallocates while building.
    #[must_use]
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        Multigraph {
            edges: Vec::with_capacity(edges),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Builds a graph with `n` nodes whose edge `i` joins `edges[i]`: the
    /// graph [`Multigraph::with_nodes`] and one
    /// [`Multigraph::try_add_edge`] per pair would give, with the same edge
    /// ids and incidence order. Degrees are counted first, so each
    /// incidence list is allocated once, at its final length.
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooLarge`] if `n` or the edge count exceeds the
    ///   `u32` id space, or the allocator refuses an array;
    /// * [`GraphError::NodeOutOfRange`] for the first endpoint, in edge
    ///   order, that is not a node.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint that is not a node does not fit in `u32`
    /// either (as [`NodeId::new`] does).
    ///
    /// # Example
    ///
    /// ```
    /// use dmig_graph::{Multigraph, NodeId};
    ///
    /// let g = Multigraph::from_edges(3, &[(0, 1), (2, 2), (0, 1)])?;
    /// let mut h = Multigraph::with_nodes(3);
    /// for (u, v) in [(0, 1), (2, 2), (0, 1)] {
    ///     h.try_add_edge(NodeId::new(u), NodeId::new(v))?;
    /// }
    /// assert_eq!(g, h);
    /// # Ok::<(), dmig_graph::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Multigraph, GraphError> {
        let too_large = || GraphError::TooLarge {
            nodes: n,
            edges: edges.len(),
        };
        let ids_fit = |count: usize| count == 0 || count - 1 <= u32::MAX as usize;
        if !ids_fit(n) || !ids_fit(edges.len()) {
            return Err(too_large());
        }
        let mut degree: Vec<usize> = Vec::new();
        degree.try_reserve_exact(n).map_err(|_| too_large())?;
        degree.resize(n, 0);
        for &(u, v) in edges {
            for w in [u, v] {
                let Some(d) = degree.get_mut(w) else {
                    return Err(GraphError::NodeOutOfRange {
                        node: NodeId::new(w),
                        num_nodes: n,
                    });
                };
                *d += 1;
            }
        }
        let mut adjacency: Vec<Vec<EdgeId>> = Vec::new();
        adjacency.try_reserve_exact(n).map_err(|_| too_large())?;
        for d in degree {
            let mut list = Vec::new();
            list.try_reserve_exact(d).map_err(|_| too_large())?;
            adjacency.push(list);
        }
        let mut endpoints = Vec::new();
        endpoints
            .try_reserve_exact(edges.len())
            .map_err(|_| too_large())?;
        for (i, &(u, v)) in edges.iter().enumerate() {
            let id = EdgeId::new(i);
            adjacency[u].push(id);
            adjacency[v].push(id);
            endpoints.push(Endpoints {
                u: NodeId::new(u),
                v: NodeId::new(v),
            });
        }
        Ok(Multigraph {
            edges: endpoints,
            adjacency,
        })
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (parallel edges and loops each counted once).
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds an undirected edge between `u` and `v` and returns its id.
    ///
    /// Self-loops (`u == v`) are allowed and count twice toward degree.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range; use [`Multigraph::try_add_edge`]
    /// for a fallible variant.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        self.try_add_edge(u, v).expect("edge endpoint out of range")
    }

    /// Fallible variant of [`Multigraph::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is not a
    /// node of this graph.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        let n = self.num_nodes();
        for w in [u, v] {
            if w.index() >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    num_nodes: n,
                });
            }
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Endpoints { u, v });
        self.adjacency[u.index()].push(id);
        self.adjacency[v.index()].push(id);
        Ok(id)
    }

    /// Returns the endpoints of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> Endpoints {
        self.edges[e.index()]
    }

    /// Returns the degree of `v` (self-loops count twice).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v.index()].len()
    }

    /// Maximum degree over all nodes (`Δ` in the paper); 0 for an edgeless
    /// graph.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Ids of the edges incident to `v`, in insertion order.
    ///
    /// A self-loop at `v` appears **twice**.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.adjacency[v.index()]
    }

    /// The raw endpoint table, indexed by edge id.
    ///
    /// Hot loops (CSR rebuilds, padding scans) iterate this slice directly
    /// instead of paying the per-item closure of [`Multigraph::edges`].
    #[inline]
    #[must_use]
    pub fn endpoints_slice(&self) -> &[Endpoints] {
        &self.edges
    }

    /// Iterates over `(EdgeId, Endpoints)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Endpoints)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &ep)| (EdgeId::new(i), ep))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Number of parallel edges between `u` and `v`.
    ///
    /// For `u == v` counts self-loops at `u` (each loop once).
    #[must_use]
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        if u == v {
            return self.adjacency[u.index()]
                .iter()
                .filter(|&&e| self.endpoints(e).is_loop())
                .count()
                / 2;
        }
        // Iterate over the smaller incidence list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency[a.index()]
            .iter()
            .filter(|&&e| self.endpoints(e).contains(b))
            .count()
    }

    /// Normalized `(min, max)` endpoint pairs of every edge, sorted — the
    /// shared kernel of [`Multigraph::max_multiplicity`] and
    /// [`Multigraph::is_simple`]. One allocation, no hashing.
    fn sorted_edge_keys(&self) -> Vec<(NodeId, NodeId)> {
        let mut keys: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|ep| {
                if ep.u <= ep.v {
                    (ep.u, ep.v)
                } else {
                    (ep.v, ep.u)
                }
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Maximum edge multiplicity over all node pairs (`μ` in the paper).
    #[must_use]
    pub fn max_multiplicity(&self) -> usize {
        let keys = self.sorted_edge_keys();
        let mut best = 0usize;
        let mut run = 0usize;
        let mut prev: Option<(NodeId, NodeId)> = None;
        for key in keys {
            if prev == Some(key) {
                run += 1;
            } else {
                run = 1;
                prev = Some(key);
            }
            best = best.max(run);
        }
        best
    }

    /// Returns `true` if the graph has neither parallel edges nor self-loops.
    #[must_use]
    pub fn is_simple(&self) -> bool {
        if self.edges.iter().any(|ep| ep.is_loop()) {
            return false;
        }
        let keys = self.sorted_edge_keys();
        keys.windows(2).all(|w| w[0] != w[1])
    }

    /// Returns `true` if the graph contains any self-loop.
    #[must_use]
    pub fn has_loops(&self) -> bool {
        self.edges.iter().any(|ep| ep.is_loop())
    }

    /// Appends the distinct neighbors of `v` to `out` (cleared first),
    /// excluding `v` itself even when loops exist, in first-seen order,
    /// using `marks` as scratch — zero allocations once both buffers are
    /// warm.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors_into(&self, v: NodeId, marks: &mut NodeMarks, out: &mut Vec<NodeId>) {
        out.clear();
        marks.begin(self.num_nodes());
        for &e in &self.adjacency[v.index()] {
            let w = self.endpoints(e).other(v);
            if w != v && marks.mark(w) {
                out.push(w);
            }
        }
    }

    /// Builds the subgraph induced by a set of edges.
    ///
    /// The result keeps **all** nodes (so node ids stay aligned) and
    /// contains exactly the given edges; the returned vector maps each new
    /// edge id back to the original edge id (`mapping[new.index()] = old`).
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    #[must_use]
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> (Multigraph, Vec<EdgeId>) {
        let mut sub = Multigraph::with_capacity(self.num_nodes(), edge_ids.len());
        let mut mapping = Vec::with_capacity(edge_ids.len());
        for &e in edge_ids {
            let ep = self.endpoints(e);
            sub.add_edge(ep.u, ep.v);
            mapping.push(e);
        }
        (sub, mapping)
    }

    /// Sum of degrees (`2·|E|`); useful for sanity checks.
    #[must_use]
    pub fn degree_sum(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }
}

impl fmt::Display for Multigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multigraph(n={}, m={})",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

/// Reusable node-marking scratch with versioned stamps: clearing between
/// uses is `O(1)` (bump the generation) instead of `O(n)` (zero the array),
/// and the buffer is allocated once for any number of queries.
///
/// # Example
///
/// ```
/// use dmig_graph::{Multigraph, NodeMarks};
///
/// let mut g = Multigraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(0.into(), 2.into());
/// let mut marks = NodeMarks::new();
/// let mut out = Vec::new();
/// g.neighbors_into(0.into(), &mut marks, &mut out);
/// assert_eq!(out.len(), 2); // 1 and 2, parallel edge deduplicated
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodeMarks {
    stamp: Vec<u64>,
    generation: u64,
}

impl NodeMarks {
    /// Creates an empty scratch (grows on first use).
    #[must_use]
    pub fn new() -> Self {
        NodeMarks::default()
    }

    /// Starts a fresh marking pass over a graph with `n` nodes.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.generation += 1;
    }

    /// Marks `v`; returns `true` if it was not yet marked this pass.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of the range given to [`NodeMarks::begin`].
    pub fn mark(&mut self, v: NodeId) -> bool {
        let slot = &mut self.stamp[v.index()];
        if *slot == self.generation {
            false
        } else {
            *slot = self.generation;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle(m: usize) -> Multigraph {
        let mut g = Multigraph::with_nodes(3);
        for _ in 0..m {
            g.add_edge(0.into(), 1.into());
            g.add_edge(1.into(), 2.into());
            g.add_edge(0.into(), 2.into());
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = Multigraph::new();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_multiplicity(), 0);
        assert!(g.is_simple());
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Multigraph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let e = g.add_edge(a, b);
        assert_eq!(g.endpoints(e), Endpoints { u: a, v: b });
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 1);
    }

    #[test]
    fn try_add_edge_rejects_out_of_range() {
        let mut g = Multigraph::with_nodes(2);
        let err = g.try_add_edge(0.into(), 5.into()).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(5),
                num_nodes: 2
            }
        );
        assert_eq!(
            g.num_edges(),
            0,
            "failed insertion must not mutate the graph"
        );
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut g = Multigraph::with_nodes(1);
        let e = g.add_edge(0.into(), 0.into());
        assert_eq!(g.degree(0.into()), 2);
        assert!(g.endpoints(e).is_loop());
        assert_eq!(g.incident_edges(0.into()), &[e, e]);
        assert_eq!(g.multiplicity(0.into(), 0.into()), 1);
        assert!(!g.is_simple());
        assert!(g.has_loops());
    }

    #[test]
    fn parallel_edges_and_multiplicity() {
        let g = triangle(4);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.multiplicity(0.into(), 1.into()), 4);
        assert_eq!(g.multiplicity(1.into(), 0.into()), 4);
        assert_eq!(g.max_multiplicity(), 4);
        assert!(!g.is_simple());
        assert!(!g.has_loops());
        assert_eq!(g.max_degree(), 8);
    }

    #[test]
    fn neighbors_dedup_and_exclude_self() {
        let mut g = triangle(2);
        g.add_edge(1.into(), 1.into());
        let mut nbrs = Vec::new();
        g.neighbors_into(1.into(), &mut NodeMarks::new(), &mut nbrs);
        assert_eq!(nbrs, vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn endpoints_other() {
        let ep = Endpoints {
            u: NodeId::new(3),
            v: NodeId::new(8),
        };
        assert_eq!(ep.other(NodeId::new(3)), NodeId::new(8));
        assert_eq!(ep.other(NodeId::new(8)), NodeId::new(3));
        assert!(ep.contains(NodeId::new(3)));
        assert!(!ep.contains(NodeId::new(4)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn endpoints_other_panics_for_foreign_node() {
        let ep = Endpoints {
            u: NodeId::new(0),
            v: NodeId::new(1),
        };
        let _ = ep.other(NodeId::new(2));
    }

    #[test]
    fn edge_subgraph_preserves_nodes_and_maps_edges() {
        let g = triangle(1);
        let ids: Vec<EdgeId> = vec![0.into(), 2.into()];
        let (sub, mapping) = g.edge_subgraph(&ids);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(mapping, ids);
        assert_eq!(sub.endpoints(0.into()), g.endpoints(0.into()));
        assert_eq!(sub.endpoints(1.into()), g.endpoints(2.into()));
    }

    #[test]
    fn degree_sum_is_twice_edges() {
        let mut g = triangle(3);
        g.add_edge(0.into(), 0.into());
        assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }

    #[test]
    fn display_form() {
        let g = triangle(1);
        assert_eq!(g.to_string(), "multigraph(n=3, m=3)");
    }

    #[test]
    fn is_simple_detects_duplicates_in_any_order() {
        let mut g = Multigraph::with_nodes(3);
        g.add_edge(2.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        assert!(!g.is_simple());
    }

    #[test]
    fn neighbors_into_reuses_buffers_across_nodes() {
        // The hub's parallel edges repeat each neighbor many times; every
        // query reuses one marks/buffer pair.
        let mut g = Multigraph::with_nodes(4);
        for _ in 0..20 {
            g.add_edge(0.into(), 1.into());
            g.add_edge(0.into(), 2.into());
        }
        g.add_edge(0.into(), 3.into());
        g.add_edge(3.into(), 3.into());
        let mut marks = NodeMarks::new();
        let mut out = Vec::new();
        let want: [&[usize]; 4] = [&[1, 2, 3], &[0], &[0], &[0]];
        for (v, want) in g.nodes().zip(want) {
            g.neighbors_into(v, &mut marks, &mut out);
            let want: Vec<NodeId> = want.iter().map(|&w| NodeId::new(w)).collect();
            assert_eq!(out, want, "mismatch at {v}");
        }
    }

    #[test]
    fn node_marks_generations_are_independent() {
        let mut marks = NodeMarks::new();
        marks.begin(3);
        assert!(marks.mark(NodeId::new(1)));
        assert!(!marks.mark(NodeId::new(1)));
        marks.begin(3);
        assert!(marks.mark(NodeId::new(1)), "new pass clears marks in O(1)");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn from_edges_refuses_ids_beyond_u32() {
        let n = u32::MAX as usize + 2;
        assert_eq!(
            Multigraph::from_edges(n, &[]).unwrap_err(),
            GraphError::TooLarge { nodes: n, edges: 0 }
        );
    }

    #[test]
    fn with_capacity_and_reserve_behave_like_with_nodes() {
        let mut a = Multigraph::with_capacity(3, 8);
        let mut b = Multigraph::with_nodes(3);
        for g in [&mut a, &mut b] {
            g.add_edge(0.into(), 1.into());
            g.add_edge(1.into(), 2.into());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn multiplicity_iterates_smaller_side() {
        // Star with a high-degree hub: multiplicity from the leaf side.
        let mut g = Multigraph::with_nodes(5);
        for leaf in 1..5usize {
            for _ in 0..leaf {
                g.add_edge(0.into(), leaf.into());
            }
        }
        assert_eq!(g.multiplicity(0.into(), 4.into()), 4);
        assert_eq!(g.multiplicity(4.into(), 0.into()), 4);
        assert_eq!(g.max_multiplicity(), 4);
    }
}
