//! Flat CSR (compressed sparse row) snapshot of a multigraph's incidence
//! structure.
//!
//! [`Multigraph`] keeps one heap-allocated incidence list per node, which is
//! the right shape for incremental construction but makes traversal-heavy
//! algorithms (Euler orientation, component DFS, alternating walks) chase a
//! pointer per node. A [`CsrAdjacency`] packs every incidence slot into two
//! contiguous arrays — `offsets` and `(edge, neighbor)` entries — so inner
//! loops walk cache-friendly slices and the `other(v)` endpoint lookup is
//! precomputed.
//!
//! The snapshot is immutable once built, but the *buffers* are reusable.
//! One counting sort, [`CsrAdjacency::rebuild_from_pairs`], fills every
//! snapshot from a list of endpoint pairs: [`CsrAdjacency::rebuild_from`]
//! refills one from a graph in place, [`CsrAdjacency::rebuild_padded`]
//! overlays extra padding edges on top of a graph without materialising the
//! padded multigraph (so `solve_even` never clones the transfer graph), and
//! the quota recursion's Euler splits fill one over the out- and in-copies
//! of their arcs. Build once per algorithm run with [`Multigraph::to_csr`]
//! (or a rebuild) after the graph has stopped changing.

use crate::{EdgeId, Endpoints, Multigraph, NodeId};

/// Immutable flat incidence index of a [`Multigraph`].
///
/// For each node `v`, [`CsrAdjacency::incident`] yields `(e, w)` pairs where
/// `e` is an incident edge and `w` its far endpoint, in the same insertion
/// order as [`Multigraph::incident_edges`]. A self-loop at `v` appears twice
/// with `w == v`, matching the degree convention (loops count twice).
///
/// # Example
///
/// ```
/// use dmig_graph::{Multigraph, NodeId};
///
/// let mut g = Multigraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(0.into(), 2.into());
/// let csr = g.to_csr();
/// let far: Vec<NodeId> = csr.incident(0.into()).iter().map(|&(_, w)| w).collect();
/// assert_eq!(far, vec![NodeId::new(1), NodeId::new(2)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `entries` for node `v`.
    offsets: Vec<usize>,
    /// `(incident edge, far endpoint)` per incidence slot.
    entries: Vec<(EdgeId, NodeId)>,
}

impl CsrAdjacency {
    /// Builds the snapshot by flattening `g`'s incidence lists.
    #[must_use]
    pub fn from_graph(g: &Multigraph) -> Self {
        let mut csr = CsrAdjacency::default();
        csr.rebuild_from(g);
        csr
    }

    /// Number of nodes covered.
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(edge, far endpoint)` incidence slots of `v`, in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn incident(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.entries[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The raw offset array: `offsets()[v]..offsets()[v + 1]` indexes
    /// [`CsrAdjacency::entries`] for node `v`. Length is `num_nodes() + 1`.
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw incidence slots: `(edge, far endpoint)` per slot, all nodes
    /// concatenated. Length is the degree sum (`2 · num_edges()`).
    #[inline]
    #[must_use]
    pub fn entries(&self) -> &[(EdgeId, NodeId)] {
        &self.entries
    }

    /// Number of distinct edges covered (each edge occupies two slots;
    /// a self-loop contributes both of its slots at one node).
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.entries.len() / 2
    }

    /// Refills this snapshot from `g`, reusing the existing buffers.
    ///
    /// Equivalent to `*self = g.to_csr()` without the two allocations.
    pub fn rebuild_from(&mut self, g: &Multigraph) {
        self.rebuild_padded(g, &[]);
    }

    /// Refills this snapshot as if `pad` had been appended to `g`'s edge
    /// list, without materialising the padded multigraph.
    ///
    /// Padding edge `pad[i]` gets id `g.num_edges() + i`. The result is
    /// bit-identical to cloning `g`, `add_edge`-ing every pad endpoint pair
    /// in order, and calling [`Multigraph::to_csr`] on the clone.
    pub fn rebuild_padded(&mut self, g: &Multigraph, pad: &[Endpoints]) {
        let ends = g.endpoints_slice().iter().chain(pad);
        self.rebuild_from_pairs(g.num_nodes(), ends.map(|ep| (ep.u, ep.v)));
    }

    /// Refills this snapshot with `n` nodes and one edge per pair: edge `i`
    /// joins the two nodes of the `i`-th pair.
    ///
    /// A counting sort: slots are scattered in ascending edge id, which is
    /// the incidence order [`Multigraph::add_edge`] produces, and a pair
    /// `(u, v)` fills its slot at `u` before its slot at `v`.
    ///
    /// # Panics
    ///
    /// Panics if a node is not below `n`.
    pub fn rebuild_from_pairs<I>(&mut self, n: usize, pairs: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        // Degree histogram shifted by one, so the prefix sum lands directly
        // in place: offsets[v + 1] accumulates deg(v). A self-loop hits the
        // same counter twice, matching the loops-count-twice convention.
        for (u, v) in pairs.clone() {
            self.offsets[u.index() + 1] += 1;
            self.offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        self.entries.clear();
        self.entries
            .resize(self.offsets[n], (EdgeId::new(0), NodeId::new(0)));

        // Scatter pass, using offsets[v] as node v's write cursor.
        for (e, (u, v)) in pairs.enumerate() {
            let e = EdgeId::new(e);
            for (at, far) in [(u, v), (v, u)] {
                let slot = self.offsets[at.index()];
                self.offsets[at.index()] += 1;
                self.entries[slot] = (e, far);
            }
        }

        // The cursors ended exactly where the next node starts: shift right
        // by one to restore the offset invariant.
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        self.offsets[0] = 0;
    }
}

impl Default for CsrAdjacency {
    /// An empty snapshot (zero nodes), ready for [`CsrAdjacency::rebuild_from`].
    fn default() -> Self {
        CsrAdjacency {
            offsets: vec![0],
            entries: Vec::new(),
        }
    }
}

impl Multigraph {
    /// Builds a flat [`CsrAdjacency`] snapshot of the current incidence
    /// structure (see the [`crate::csr`] module docs).
    #[must_use]
    pub fn to_csr(&self) -> CsrAdjacency {
        CsrAdjacency::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::complete_multigraph;

    #[test]
    fn snapshot_matches_incidence_lists() {
        let mut g = complete_multigraph(4, 2);
        g.add_edge(1.into(), 1.into()); // self-loop: two slots at node 1
        let csr = g.to_csr();
        assert_eq!(csr.num_nodes(), g.num_nodes());
        for v in g.nodes() {
            let slots = csr.incident(v);
            let expected: Vec<(EdgeId, NodeId)> = g
                .incident_edges(v)
                .iter()
                .map(|&e| (e, g.endpoints(e).other(v)))
                .collect();
            assert_eq!(slots, expected.as_slice(), "mismatch at {v}");
        }
    }

    #[test]
    fn rebuild_matches_from_graph() {
        let mut csr = CsrAdjacency::default();
        assert_eq!(csr.num_nodes(), 0);
        for g in [
            complete_multigraph(4, 2),
            complete_multigraph(3, 1),
            Multigraph::with_nodes(5),
        ] {
            csr.rebuild_from(&g);
            assert_eq!(csr, g.to_csr(), "rebuild must be indistinguishable");
        }
    }

    #[test]
    fn padded_overlay_matches_materialized_padding() {
        let mut g = complete_multigraph(4, 2);
        g.add_edge(2.into(), 2.into());
        let pad = vec![
            Endpoints {
                u: NodeId::new(0),
                v: NodeId::new(0),
            },
            Endpoints {
                u: NodeId::new(1),
                v: NodeId::new(3),
            },
            Endpoints {
                u: NodeId::new(3),
                v: NodeId::new(3),
            },
        ];
        let mut csr = CsrAdjacency::default();
        csr.rebuild_padded(&g, &pad);

        let mut materialized = g.clone();
        for ep in &pad {
            materialized.add_edge(ep.u, ep.v);
        }
        assert_eq!(csr, materialized.to_csr(), "overlay must match the clone");
        assert_eq!(csr.num_edges(), g.num_edges() + pad.len());
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let csr = Multigraph::with_nodes(3).to_csr();
        assert_eq!(csr.num_nodes(), 3);
        for v in 0..3usize {
            assert!(csr.incident(NodeId::new(v)).is_empty());
        }
        assert_eq!(Multigraph::new().to_csr().num_nodes(), 0);
    }
}
