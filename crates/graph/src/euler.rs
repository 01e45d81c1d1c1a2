//! Balanced edge orientations.
//!
//! Step (2) of the paper's even-capacity algorithm (§IV) finds an Euler
//! cycle of the padded transfer graph and step (3) uses the traversal
//! direction of each edge to build a bipartite graph `H`. The essential
//! property delivered here is the *balanced orientation*: when every degree
//! is even, orienting each edge along a closed walk gives every node
//! in-degree = out-degree = `deg/2`.
//!
//! # Pairing cycles
//!
//! [`euler_orientation`] does not walk one global Hierholzer traversal,
//! whose stack and cursors make the output depend on the order the walk
//! visits nodes in. Instead it derives the orientation from a
//! *pairing-cycle* decomposition that is a pure function of the CSR layout:
//!
//! * Every incidence **slot** (one entry of [`crate::CsrAdjacency`]) is
//!   paired with its neighbour inside its node's slot range: slot
//!   `base + i` pairs with `base + (i ^ 1)`. Degrees are even, so the
//!   pairing is perfect.
//! * `succ(s) = pair(twin(s))`, where `twin(s)` is the other slot of the
//!   same edge, is a permutation of the slots. Each `succ`-cycle is a
//!   closed walk that *enters* a node through one slot of a pair and
//!   *leaves* through the other.
//! * `twin` conjugates `succ` to its inverse, so the cycles come in
//!   mirror pairs traversing the same edges in opposite directions, and a
//!   parity argument shows no cycle is its own mirror. Labeling every slot
//!   with the minimum slot index of its cycle therefore gives each edge two
//!   *distinct* labels; the edge is oriented out of the smaller-labeled
//!   side. Exactly one cycle of each mirror pair wins every comparison it
//!   participates in, so the chosen cycles are closed directed walks and
//!   the orientation is balanced.
//!
//! The labels depend only on the CSR arrays, so the orientation is
//! deterministic, and three linear passes compute it: one builds `succ`,
//! one ascending scan walks each cycle once from its first slot (which is
//! its minimum), and one orients the edges. [`orient_csr`] runs the same
//! passes on a caller-built CSR, such as the padded one `solve_even`
//! overlays with [`CsrAdjacency::rebuild_padded`].

use crate::{CsrAdjacency, EdgeId, GraphError, Multigraph, NodeId};

/// Sentinel for "slot not yet labeled".
const UNSET: u32 = u32::MAX;

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

/// Reusable buffers for the orientation routines.
///
/// Solvers orient many padded graphs in a row; keeping the CSR snapshot,
/// slot permutation, and label arrays alive across calls removes every
/// per-call allocation except the returned orientation itself.
/// [`euler_orientation`] reuses a thread-local arena, so ordinary callers
/// get this for free.
#[derive(Debug, Default)]
pub struct OrientScratch {
    /// CSR snapshot used by the `Multigraph`-level entry points. Callers
    /// that build their own (possibly padded) CSR use [`orient_csr`] and
    /// leave this empty.
    csr: CsrAdjacency,
    /// Per edge: its two slot indices in the CSR entry array.
    edge_slot: Vec<[u32; 2]>,
    /// The pairing permutation `succ(s) = pair(twin(s))`.
    succ: Vec<u32>,
    /// Cycle-min label per slot.
    label: Vec<u32>,
}

impl OrientScratch {
    /// Creates an empty arena (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        OrientScratch::default()
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<OrientScratch> =
        std::cell::RefCell::new(OrientScratch::new());
}

/// Computes the canonical balanced orientation of `g`.
///
/// Every node must have even degree (self-loops counting twice). Isolated
/// nodes are fine. Components are handled independently, so the graph need
/// not be connected. The result is a deterministic function of the graph
/// (see the module docs).
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
    SCRATCH.with(|scratch| euler_orientation_with(g, &mut scratch.borrow_mut()))
}

/// [`euler_orientation`] with caller-owned scratch buffers.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
pub fn euler_orientation_with(
    g: &Multigraph,
    scratch: &mut OrientScratch,
) -> Result<EulerOrientation, GraphError> {
    scratch.csr.rebuild_from(g);
    let OrientScratch {
        csr,
        edge_slot,
        succ,
        label,
    } = scratch;
    orient(csr, edge_slot, succ, label)
}

/// [`euler_orientation`] of a caller-built CSR snapshot.
///
/// This is the zero-copy entry point used by `solve_even`: the caller
/// overlays padding edges with [`CsrAdjacency::rebuild_padded`] and orients
/// the padded incidence structure directly, never materialising the padded
/// multigraph.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
pub fn orient_csr(
    csr: &CsrAdjacency,
    scratch: &mut OrientScratch,
) -> Result<EulerOrientation, GraphError> {
    let OrientScratch {
        edge_slot,
        succ,
        label,
        ..
    } = scratch;
    orient(csr, edge_slot, succ, label)
}

fn orient(
    csr: &CsrAdjacency,
    edge_slot: &mut Vec<[u32; 2]>,
    succ: &mut Vec<u32>,
    label: &mut Vec<u32>,
) -> Result<EulerOrientation, GraphError> {
    let offsets = csr.offsets();
    for v in 0..csr.num_nodes() {
        let d = offsets[v + 1] - offsets[v];
        if d % 2 != 0 {
            return Err(GraphError::OddDegree {
                node: NodeId::new(v),
                degree: d,
            });
        }
    }
    assert!(
        (csr.entries().len() as u64) < u64::from(UNSET),
        "slot index must fit in u32 (m < 2^31 edges)"
    );

    build_succ(csr, edge_slot, succ);
    label_cycles(succ, label);
    Ok(orient_edges(csr, edge_slot, label))
}

/// Builds `edge_slot` and the pairing permutation `succ` from the CSR.
///
/// Both passes are branch-light linear scans; the permutation is written
/// through the twin (`succ[twin(s)] = pair(s)`) so each slot's write needs
/// only its *own* node base, never the twin's.
fn build_succ(csr: &CsrAdjacency, edge_slot: &mut Vec<[u32; 2]>, succ: &mut Vec<u32>) {
    let entries = csr.entries();
    let offsets = csr.offsets();
    let slots = entries.len();

    edge_slot.clear();
    edge_slot.resize(csr.num_edges(), [UNSET; 2]);
    for (s, &(e, _)) in entries.iter().enumerate() {
        let rec = &mut edge_slot[e.index()];
        // First occurrence fills rec[0], second rec[1] — branchlessly.
        let which = usize::from(rec[0] != UNSET);
        rec[which] = s as u32;
    }

    succ.clear();
    succ.resize(slots, 0);
    for v in 0..offsets.len() - 1 {
        let base = offsets[v];
        for s in base..offsets[v + 1] {
            let pair = (base + ((s - base) ^ 1)) as u32;
            let [a, b] = edge_slot[entries[s].0.index()];
            let twin = if a == s as u32 { b } else { a };
            succ[twin as usize] = pair;
        }
    }
}

/// Labels every slot with the minimum slot of its `succ`-cycle.
///
/// Scanning starts in ascending order, so the first unvisited slot of a
/// cycle *is* its minimum: one walk per cycle suffices.
fn label_cycles(succ: &[u32], label: &mut Vec<u32>) {
    label.clear();
    label.resize(succ.len(), UNSET);
    for s in 0..succ.len() as u32 {
        if label[s as usize] != UNSET {
            continue;
        }
        let mut cur = s;
        loop {
            label[cur as usize] = s;
            cur = succ[cur as usize];
            if cur == s {
                break;
            }
        }
    }
}

/// Emits the per-edge orientation from the cycle labels: each edge exits
/// through its smaller-labeled slot (mirror cycles guarantee the labels of
/// an edge's two slots always differ).
fn orient_edges(csr: &CsrAdjacency, edge_slot: &[[u32; 2]], label: &[u32]) -> EulerOrientation {
    let entries = csr.entries();
    let mut tail = vec![NodeId::new(0); edge_slot.len()];
    let mut head = vec![NodeId::new(0); edge_slot.len()];
    for (k, &[a, b]) in edge_slot.iter().enumerate() {
        let (exit, enter) = if label[a as usize] < label[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        // entries[s] stores the far endpoint: the exit slot names the
        // head it points at, its twin names the node it exits from.
        tail[k] = entries[enter as usize].1;
        head[k] = entries[exit as usize].1;
    }
    EulerOrientation { tail, head }
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
        let mut scratch = OrientScratch::new();
        // Differently-sized graphs back to back: the arena must resize
        // down as well as up without leaking marks between calls.
        for g in [
            complete_multigraph(5, 2),
            cycle_multigraph(3, 2),
            complete_multigraph(3, 4),
        ] {
            let fresh = euler_orientation(&g).unwrap();
            let reused = euler_orientation_with(&g, &mut scratch).unwrap();
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
        let got = orient_csr(&csr, &mut OrientScratch::new()).unwrap();
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
