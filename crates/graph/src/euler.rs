//! Balanced edge orientations and the closed-trail walk behind them.
//!
//! Step (2) of the paper's even-capacity algorithm (§IV) finds an Euler
//! cycle of the padded transfer graph and step (3) uses the traversal
//! direction of each edge to build a bipartite graph `H`. The essential
//! property delivered here is the *balanced orientation*: when every degree
//! is even, orienting each edge along a closed walk gives every node
//! in-degree = out-degree = `deg/2`.
//!
//! [`walk_closed_trails`] is the one closed-trail walk over a
//! [`CsrAdjacency`]: [`orient_csr`] records the direction it walks each
//! edge in, and the quota recursion's Euler splits in `dmig-flow` walk the
//! out- and in-copies of `H` with it. Its output is a function of the CSR
//! arrays alone, so it is deterministic.

use crate::{CsrAdjacency, EdgeId, GraphError, Multigraph, NodeId};

/// A balanced orientation of a multigraph.
///
/// Produced by [`euler_orientation`]. For each edge the orientation records
/// a `tail → head` direction such that at every node the number of outgoing
/// edges equals the number of incoming edges (self-loops count once as
/// outgoing and once as incoming at their node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EulerOrientation {
    tail: Vec<NodeId>,
    head: Vec<NodeId>,
}

impl EulerOrientation {
    /// The tail (origin) of edge `e` under this orientation.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn tail(&self, e: EdgeId) -> NodeId {
        self.tail[e.index()]
    }

    /// The head (target) of edge `e` under this orientation.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn head(&self, e: EdgeId) -> NodeId {
        self.head[e.index()]
    }

    /// Number of oriented edges.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Returns `true` if no edges were oriented.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Iterates over `(edge, tail, head)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.tail
            .iter()
            .zip(self.head.iter())
            .enumerate()
            .map(|(i, (&t, &h))| (EdgeId::new(i), t, h))
    }

    /// Out-degree of `v` under this orientation (loops count once).
    #[must_use]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.tail.iter().filter(|&&t| t == v).count()
    }

    /// In-degree of `v` under this orientation (loops count once).
    #[must_use]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.head.iter().filter(|&&h| h == v).count()
    }
}

/// Reusable state of [`walk_closed_trails`]: a cursor per node and a used
/// flag per edge. A caller that walks many graphs in a row keeps one, so
/// its walks stay out of the allocator once the buffers have grown.
#[derive(Clone, Debug, Default)]
pub struct TrailScratch {
    /// Per node: the first of its slots the walk may still leave by.
    cursor: Vec<usize>,
    /// Per edge: walked already.
    used: Vec<bool>,
}

/// Walks closed trails of `csr` that together cover every edge once, and
/// calls `visit(edge, from, to)` for each edge in walk order.
///
/// Start nodes are taken in ascending order. From each, the walk leaves
/// every node by that node's first unused slot and stops when it is back
/// at the start with no unused slot there. Every degree must be even
/// (self-loops counting twice), so it can stop nowhere else; isolated
/// nodes are fine.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree,
/// before any edge is visited.
///
/// # Example
///
/// ```
/// use dmig_graph::{builder::cycle_multigraph, euler::{walk_closed_trails, TrailScratch}};
///
/// let csr = cycle_multigraph(3, 1).to_csr();
/// let mut walked = Vec::new();
/// walk_closed_trails(&csr, &mut TrailScratch::default(), |e, from, to| {
///     walked.push((e.index(), from.index(), to.index()));
/// })?;
/// assert_eq!(walked, [(0, 0, 1), (1, 1, 2), (2, 2, 0)]);
/// # Ok::<(), dmig_graph::GraphError>(())
/// ```
pub fn walk_closed_trails(
    csr: &CsrAdjacency,
    scratch: &mut TrailScratch,
    mut visit: impl FnMut(EdgeId, NodeId, NodeId),
) -> Result<(), GraphError> {
    let offsets = csr.offsets();
    let entries = csr.entries();
    let n = csr.num_nodes();
    if let Some(v) = (0..n).find(|&v| (offsets[v + 1] - offsets[v]) % 2 != 0) {
        return Err(GraphError::OddDegree {
            node: NodeId::new(v),
            degree: offsets[v + 1] - offsets[v],
        });
    }
    let TrailScratch { cursor, used } = scratch;
    cursor.clear();
    cursor.extend_from_slice(&offsets[..n]);
    used.clear();
    used.resize(csr.num_edges(), false);
    for start in 0..n {
        let mut v = NodeId::new(start);
        loop {
            let end = offsets[v.index() + 1];
            let mut slot = cursor[v.index()];
            while slot < end && used[entries[slot].0.index()] {
                slot += 1;
            }
            if slot == end {
                debug_assert_eq!(v.index(), start, "walk stuck away from its start");
                break;
            }
            cursor[v.index()] = slot + 1;
            let (e, w) = entries[slot];
            used[e.index()] = true;
            visit(e, v, w);
            v = w;
        }
    }
    Ok(())
}

/// Computes the balanced orientation of `g` that [`walk_closed_trails`]
/// walks on its CSR snapshot.
///
/// Every node must have even degree (self-loops counting twice); the graph
/// need not be connected.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
///
/// # Example
///
/// ```
/// use dmig_graph::{builder::complete_multigraph, euler::euler_orientation};
///
/// // K3 with 2 parallel edges: every degree is 4.
/// let g = complete_multigraph(3, 2);
/// let orient = euler_orientation(&g)?;
/// for v in g.nodes() {
///     assert_eq!(orient.out_degree(v), 2);
///     assert_eq!(orient.in_degree(v), 2);
/// }
/// # Ok::<(), dmig_graph::GraphError>(())
/// ```
pub fn euler_orientation(g: &Multigraph) -> Result<EulerOrientation, GraphError> {
    orient_csr(&g.to_csr(), &mut TrailScratch::default())
}

/// [`euler_orientation`] of a caller-built CSR snapshot, such as the one
/// `solve_even` pads with [`CsrAdjacency::rebuild_padded`]: each edge
/// points the way [`walk_closed_trails`] walks it.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
pub fn orient_csr(
    csr: &CsrAdjacency,
    scratch: &mut TrailScratch,
) -> Result<EulerOrientation, GraphError> {
    let mut tail = vec![NodeId::new(0); csr.num_edges()];
    let mut head = tail.clone();
    walk_closed_trails(csr, scratch, |e, from, to| {
        tail[e.index()] = from;
        head[e.index()] = to;
    })?;
    Ok(EulerOrientation { tail, head })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_multigraph, cycle_multigraph, GraphBuilder};

    fn check_balanced(g: &Multigraph, o: &EulerOrientation) {
        assert_eq!(o.len(), g.num_edges());
        for v in g.nodes() {
            assert_eq!(o.out_degree(v), g.degree(v) / 2, "out-degree at {v}");
            assert_eq!(o.in_degree(v), g.degree(v) / 2, "in-degree at {v}");
        }
        for (e, t, h) in o.iter() {
            let ep = g.endpoints(e);
            assert!(
                (ep.u == t && ep.v == h) || (ep.u == h && ep.v == t),
                "orientation must match endpoints"
            );
        }
    }

    #[test]
    fn empty_graph_orients_trivially() {
        let g = Multigraph::with_nodes(3);
        let o = euler_orientation(&g).unwrap();
        assert!(o.is_empty());
    }

    #[test]
    fn odd_degree_rejected() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let err = euler_orientation(&g).unwrap_err();
        assert!(matches!(err, GraphError::OddDegree { degree: 1, .. }));
    }

    #[test]
    fn cycle_is_balanced() {
        let g = cycle_multigraph(5, 1);
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn complete_graph_with_even_degrees() {
        // K5 has all degrees 4 (even).
        let g = complete_multigraph(5, 1);
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn parallel_edges_balanced() {
        let g = complete_multigraph(3, 4);
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn self_loops_balanced() {
        let mut g = cycle_multigraph(3, 2);
        g.add_edge(1.into(), 1.into());
        g.add_edge(1.into(), 1.into());
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn disconnected_components_each_balanced() {
        // Two disjoint triangles plus isolated nodes.
        let g = GraphBuilder::new()
            .nodes(8)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(4, 5)
            .edge(5, 6)
            .edge(6, 4)
            .build();
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn orientation_with_reused_scratch_matches_fresh() {
        let mut scratch = TrailScratch::default();
        // Differently-sized graphs back to back: the cursors and flags
        // must resize down as well as up without leaking between calls.
        for g in [
            complete_multigraph(5, 2),
            cycle_multigraph(3, 2),
            complete_multigraph(3, 4),
        ] {
            let fresh = euler_orientation(&g).unwrap();
            let reused = orient_csr(&g.to_csr(), &mut scratch).unwrap();
            assert_eq!(fresh, reused, "scratch reuse must not change the result");
            check_balanced(&g, &reused);
        }
    }

    #[test]
    fn orientation_of_multi_component_multigraph_with_loops() {
        let mut g = GraphBuilder::new()
            .nodes(6)
            .parallel_edges(0, 1, 2)
            .parallel_edges(2, 3, 4)
            .build();
        g.add_edge(4.into(), 4.into());
        let o = euler_orientation(&g).unwrap();
        check_balanced(&g, &o);
    }

    #[test]
    fn padded_csr_orientation_matches_materialized_padding() {
        use crate::Endpoints;
        let g = cycle_multigraph(6, 1);
        let pad = vec![
            Endpoints {
                u: NodeId::new(0),
                v: NodeId::new(0),
            },
            Endpoints {
                u: NodeId::new(3),
                v: NodeId::new(5),
            },
            Endpoints {
                u: NodeId::new(3),
                v: NodeId::new(5),
            },
        ];
        let mut csr = CsrAdjacency::default();
        csr.rebuild_padded(&g, &pad);
        let mut materialized = g.clone();
        for ep in &pad {
            materialized.add_edge(ep.u, ep.v);
        }
        let expect = euler_orientation(&materialized).unwrap();
        let got = orient_csr(&csr, &mut TrailScratch::default()).unwrap();
        assert_eq!(expect, got, "overlay CSR must orient like the clone");
    }

    #[test]
    fn orientation_is_deterministic_across_calls() {
        let g = complete_multigraph(6, 2); // degrees 10
        let a = euler_orientation(&g).unwrap();
        let b = euler_orientation(&g).unwrap();
        assert_eq!(a, b);
    }
}
