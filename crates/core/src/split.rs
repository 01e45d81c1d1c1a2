//! Node splitting: turning transfer constraints into plain degree bounds.
//!
//! Splitting disk `v` into `c_v` copies and distributing its incident
//! transfers round-robin over the copies turns a capacitated coloring
//! problem into an ordinary edge-coloring problem: a proper coloring of the
//! split graph uses each color at most once per copy, hence at most `c_v`
//! times per original disk. Every copy receives at most `⌈d_v / c_v⌉`
//! edges, so the split graph has maximum degree `Δ' = LB1`.
//!
//! This construction is the engine of Saia's 1.5-approximation (§I–II of
//! the paper) and of Phase 2 of the general algorithm (§V-C3).

use dmig_graph::{Multigraph, NodeId};

use crate::{Capacities, MigrationProblem};

/// A node-split view of a migration problem.
///
/// Split-graph edge `i` corresponds to original edge `i` (ids align), so a
/// coloring of [`SplitGraph::graph`] transfers back verbatim.
#[derive(Clone, Debug)]
pub struct SplitGraph {
    /// The split multigraph over `Σ_v c_v` copy-nodes.
    pub graph: Multigraph,
    /// `offset[v]` = first copy-node index of original node `v`.
    pub offset: Vec<usize>,
    /// `owner[s]` = original node of copy-node `s`.
    pub owner: Vec<NodeId>,
}

impl SplitGraph {
    /// Maximum degree of the split graph; equals
    /// `Δ' = max_v ⌈d_v / c_v⌉` for a round-robin split.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }
}

/// Splits each disk `v` into `c_v` copies, distributing its incident
/// transfers round-robin so every copy carries at most `⌈d_v / c_v⌉`.
///
/// # Panics
///
/// Panics if some disk with incident transfers has capacity 0 (ruled out
/// by [`MigrationProblem`] validation).
#[must_use]
pub fn split_round_robin(problem: &MigrationProblem) -> SplitGraph {
    split_graph_round_robin(problem.graph(), problem.capacities())
}

/// Round-robin split of an arbitrary graph/capacity pair (used by Phase 2
/// of the general solver on residue subgraphs).
///
/// # Panics
///
/// Panics if a node with incident edges has capacity 0, or on self-loops.
#[must_use]
pub fn split_graph_round_robin(g: &Multigraph, caps: &Capacities) -> SplitGraph {
    let n = g.num_nodes();
    let mut offset = Vec::with_capacity(n);
    let mut owner = Vec::new();
    let mut total = 0usize;
    for v in g.nodes() {
        offset.push(total);
        let c = caps.get(v) as usize;
        if g.degree(v) > 0 {
            assert!(c > 0, "node {v} has edges but zero capacity");
        }
        for _ in 0..c {
            owner.push(v);
        }
        total += c;
    }

    let mut split = Multigraph::with_nodes(total);
    let mut cursor = vec![0usize; n];
    for (_, ep) in g.edges() {
        assert!(!ep.is_loop(), "split of a self-loop is undefined");
        let cu = caps.get(ep.u) as usize;
        let cv = caps.get(ep.v) as usize;
        let su = offset[ep.u.index()] + cursor[ep.u.index()] % cu;
        cursor[ep.u.index()] += 1;
        let sv = offset[ep.v.index()] + cursor[ep.v.index()] % cv;
        cursor[ep.v.index()] += 1;
        split.add_edge(NodeId::new(su), NodeId::new(sv));
    }
    SplitGraph {
        graph: split,
        offset,
        owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::builder::{complete_multigraph, star_multigraph};

    #[test]
    fn split_degrees_bounded_by_delta_prime() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 5), 3).unwrap();
        let split = split_round_robin(&p);
        assert_eq!(split.graph.num_edges(), p.num_items());
        assert_eq!(split.graph.num_nodes(), 12);
        assert_eq!(split.max_degree(), p.delta_prime());
    }

    #[test]
    fn copies_mapped_back_to_owner() {
        let p = MigrationProblem::uniform(star_multigraph(3, 2), 2).unwrap();
        let split = split_round_robin(&p);
        for (e, _) in p.graph().edges() {
            let sep = split.graph.endpoints(e);
            let oep = p.graph().endpoints(e);
            let owners = [split.owner[sep.u.index()], split.owner[sep.v.index()]];
            assert!(owners.contains(&oep.u) && owners.contains(&oep.v));
        }
    }

    #[test]
    fn per_copy_load_is_balanced() {
        // Hub with degree 10 and capacity 4: copies get ⌈10/4⌉ = 3 at most.
        let p = MigrationProblem::new(
            star_multigraph(10, 1),
            Capacities::from_vec(
                std::iter::once(4u32)
                    .chain(std::iter::repeat(1).take(10))
                    .collect(),
            ),
        )
        .unwrap();
        let split = split_round_robin(&p);
        for s in 0..4 {
            let d = split.graph.degree(NodeId::new(s));
            assert!(d <= 3, "copy {s} overloaded: {d}");
        }
        assert_eq!(split.max_degree(), 3);
    }

    #[test]
    fn capacity_one_split_is_identity_shaped() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 2), 1).unwrap();
        let split = split_round_robin(&p);
        assert_eq!(split.graph.num_nodes(), 3);
        assert_eq!(split.max_degree(), 4);
        assert_eq!(split.offset, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_isolated_nodes_allowed() {
        // Disk 2 is isolated.
        let g = Multigraph::from_edges(3, &[(0, 1)]).unwrap();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![1, 1, 0])).unwrap();
        let split = split_round_robin(&p);
        assert_eq!(split.graph.num_nodes(), 2);
    }
}
