//! Graph-cut partitioning of the transfer multigraph into bounded cells.
//!
//! The sharded solve pipeline (`dmig-core::shard`) needs the multigraph
//! split into pieces small enough that no single worker shard owns more
//! than a bounded number of edges. Connected components come first — they
//! are free parallelism, with zero cut edges — and any component heavier
//! than the cell budget is cut by a deterministic greedy grower with a
//! min-cut refinement pass (balanced edge-count objective).
//!
//! Two layers of naming keep the determinism story straight:
//!
//! * **Cells** are the canonical unit: a pure function of the graph and
//!   the `max_cell_edges` budget, *independent of the shard count*. The
//!   schedule a sharded solve produces is a function of the cells, so it
//!   is byte-identical at every `(threads × shards)` combination.
//! * **Shards** are worker groups: [`assign_shards`] bin-packs cells onto
//!   `K` shards (deterministic LPT), which only decides *who solves what
//!   concurrently*, never what the answer is.
//!
//! Edges with both endpoints in one cell are *domestic*; edges spanning
//! two cells land in the global *boundary* set, identified by a stable
//! cut-edge id (their rank in ascending original-edge-id order).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::components::{connected_components, edges_connected};
use crate::{EdgeId, Multigraph, NodeId};

/// Default per-cell edge budget: components above this are cut.
///
/// The value is a partition *parameter*, not a tuning knob: changing it
/// changes which edges are domestic vs. boundary and therefore the
/// sharded schedule. 2^18 keeps a 1e6-edge giant in 4 cells and a
/// 1e7-edge giant in ~39 — enough fan-out for any realistic core count.
pub const DEFAULT_MAX_CELL_EDGES: usize = 1 << 18;

/// One cell of the partition: a node-disjoint piece of one component,
/// carrying every edge whose endpoints both fall inside it.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Canonical component index this cell was carved from.
    pub component: usize,
    /// Piece index within the component (0 for an uncut component).
    pub piece: usize,
    /// Member nodes, ascending original id.
    pub nodes: Vec<NodeId>,
    /// Domestic edges, ascending original id.
    pub edges: Vec<EdgeId>,
}

/// The canonical cell partition of a multigraph (see the module docs).
#[derive(Clone, Debug)]
pub struct CellPartition {
    /// Cells in canonical order: by component, then by piece index.
    pub cells: Vec<Cell>,
    /// Cut edges, ascending original edge id; the position of an edge in
    /// this list is its stable cut-edge id.
    pub boundary: Vec<EdgeId>,
    /// `cell_of[node] = cell index`, `u32::MAX` for nodes in no cell
    /// (isolated, or every incident edge cut away).
    pub cell_of: Vec<u32>,
    /// Total edges of the partitioned graph.
    pub total_edges: usize,
}

impl CellPartition {
    /// Fraction of all edges that were cut to the boundary set (0 when
    /// the graph has no edges).
    #[must_use]
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.boundary.len() as f64 / self.total_edges as f64
        }
    }
}

/// Cuts `g` into cells of at most `max_cell_edges` domestic edges each
/// (budget 0 is treated as 1).
///
/// Connected components are taken whole when they fit; a heavier
/// component is grown into `≥ ⌈m_c / max_cell_edges⌉` pieces by a
/// deterministic greedy grower (absorb the frontier node with the best
/// Fiduccia–Mattheyses score; close the piece once it holds its balanced
/// share of edges, or a little early when the frontier sits on a sparse
/// seam), followed by two min-cut refinement passes (move a node to the
/// adjacent piece holding more of its neighbors, when the balance
/// tolerance allows). All ties break on ascending original ids, so the
/// partition is a pure function of `(g, max_cell_edges)`.
#[must_use]
pub fn partition_cells(g: &Multigraph, max_cell_edges: usize) -> CellPartition {
    let max_cell_edges = max_cell_edges.max(1);
    single_cell(g, max_cell_edges).unwrap_or_else(|| grouped_cells(g, max_cell_edges))
}

/// [`partition_cells`] by connected components, cutting the heavy ones.
fn grouped_cells(g: &Multigraph, max_cell_edges: usize) -> CellPartition {
    let comps = connected_components(g);
    let groups = comps.groups();

    let mut comp_edges = vec![0usize; groups.len()];
    for (_, ep) in g.edges() {
        comp_edges[comps.component_of(ep.u)] += 1;
    }

    // Provisional cell ids: whole components keep one id, heavy ones get
    // one per piece. `cell_of` is the only state the edge pass needs.
    let mut cell_of = vec![u32::MAX; g.num_nodes()];
    let mut cell_meta: Vec<(usize, usize)> = Vec::new(); // (component, piece)
    for (c, group) in groups.iter().enumerate() {
        if comp_edges[c] == 0 {
            continue; // isolated nodes form no cell
        }
        let base = u32::try_from(cell_meta.len()).expect("cell count fits in u32");
        if comp_edges[c] <= max_cell_edges {
            for &v in group {
                cell_of[v.index()] = base;
            }
            cell_meta.push((c, 0));
        } else {
            let pieces = cut_component(g, group, comp_edges[c], max_cell_edges, &mut cell_of, base);
            for piece in 0..pieces {
                cell_meta.push((c, piece));
            }
        }
    }

    // Single ascending edge pass: domestic edges land in their cell,
    // cross-cell edges in the boundary (ascending by construction).
    let mut cell_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); cell_meta.len()];
    let mut boundary = Vec::new();
    for (e, ep) in g.edges() {
        let cu = cell_of[ep.u.index()];
        let cv = cell_of[ep.v.index()];
        if cu == cv {
            cell_edges[cu as usize].push(e);
        } else {
            boundary.push(e);
        }
    }

    // Compact away cells whose every edge went to the boundary (possible
    // for an over-refined piece); their nodes keep no domestic work.
    let mut remap = vec![u32::MAX; cell_meta.len()];
    let mut cells: Vec<Cell> = Vec::new();
    for (old, edges) in cell_edges.into_iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        remap[old] = u32::try_from(cells.len()).expect("cell count fits in u32");
        let (component, piece) = cell_meta[old];
        cells.push(Cell {
            component,
            piece,
            nodes: Vec::new(),
            edges,
        });
    }
    for (v, slot) in cell_of.iter_mut().enumerate() {
        let new = if *slot == u32::MAX {
            u32::MAX
        } else {
            remap[*slot as usize]
        };
        *slot = new;
        if new != u32::MAX {
            cells[new as usize].nodes.push(NodeId::new(v));
        }
    }

    CellPartition {
        cells,
        boundary,
        cell_of,
        total_edges: g.num_edges(),
    }
}

/// The partition of a graph whose edges form one connected component of
/// at most `max_cell_edges` edges: that component as the only cell,
/// without the grouping passes. The result is the one those passes give:
/// every non-isolated node in the cell, every edge domestic, and the
/// component's canonical index equal to its smallest node's, since every
/// smaller node is an isolated singleton. `None` when the graph has no
/// edges, too many, or more than one component.
fn single_cell(g: &Multigraph, max_cell_edges: usize) -> Option<CellPartition> {
    let m = g.num_edges();
    if m == 0 || m > max_cell_edges || !edges_connected(g) {
        return None;
    }
    let nodes: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) > 0).collect();
    let mut cell_of = vec![u32::MAX; g.num_nodes()];
    for v in &nodes {
        cell_of[v.index()] = 0;
    }
    Some(CellPartition {
        cells: vec![Cell {
            component: nodes[0].index(),
            piece: 0,
            nodes,
            edges: (0..m).map(EdgeId::new).collect(),
        }],
        boundary: Vec::new(),
        cell_of,
        total_edges: m,
    })
}

/// Grows at least `⌈m_c / max⌉` pieces over one connected component
/// (more when seam-aligned early closes fire) and refines the cut;
/// writes provisional cell ids (`base + piece`) into `cell_of` and
/// returns the piece count.
fn cut_component(
    g: &Multigraph,
    group: &[NodeId],
    m_c: usize,
    max_cell_edges: usize,
    cell_of: &mut [u32],
    base: u32,
) -> usize {
    let planned = m_c.div_ceil(max_cell_edges);
    let target = m_c.div_ceil(planned);
    // A piece may close early, from `low_water` edges on, when the best
    // frontier candidate would worsen the cut (see below): a balanced cut
    // slightly off the target beats a balanced cut through a dense block.
    let low_water = (target - target / 4).max(1);
    // Balance tolerance for refinement moves: a piece may grow to the
    // budget, but no further than ~1.25x its balanced share.
    let limit = max_cell_edges.min(target + (target / 4).max(1));
    let sentinel = u32::MAX;

    // Greedy graph growing with the Fiduccia–Mattheyses score: each
    // piece repeatedly absorbs the frontier node maximizing
    // `2*gain - degree` — edges into the piece minus edges still facing
    // out (ties: smallest node id). Preferring *low external degree* over
    // raw gain keeps growth inside a dense neighborhood until it is
    // exhausted, so on clustered graphs the piece boundary lands on the
    // sparse seams instead of chasing heavy bridge edges. A lazy max-heap
    // of (score, node) entries keyed per piece epoch keeps this
    // O(m log n) and fully deterministic. `internal` tracks, per piece,
    // the number of edges with both endpoints already assigned to it —
    // exact, because an edge is counted when its second endpoint lands.
    let mut internal: Vec<usize> = vec![0];
    let mut current = 0usize;
    let mut heap: BinaryHeap<(i64, Reverse<usize>)> = BinaryHeap::new();
    let mut gain = vec![0i64; g.num_nodes()];
    let mut stamp = vec![0u32; g.num_nodes()];
    let mut epoch = 1u32;
    let mut seed_cursor = 0usize;
    let mut assigned = 0usize;
    let score = |gain: i64, vi: usize| 2 * gain - g.degree(NodeId::new(vi)) as i64;
    while assigned < group.len() {
        // Surface the best fresh frontier candidate, discarding entries
        // that are assigned or stale (superseded by a higher-gain push).
        let candidate = loop {
            match heap.peek() {
                Some(&(sval, Reverse(vi))) => {
                    if cell_of[vi] == sentinel {
                        let fresh = if stamp[vi] == epoch { gain[vi] } else { 0 };
                        if sval == score(fresh, vi) {
                            break Some((sval, vi));
                        }
                    }
                    heap.pop();
                }
                None => break None,
            }
        };
        // Close the piece when it reached its balanced share, or from
        // `low_water` on when the best candidate has a negative score —
        // meaning even the best absorption adds more cut edges than it
        // removes, i.e. the piece just finished a dense neighborhood and
        // the frontier sits on a sparse seam.
        let full = internal[current] >= target;
        let at_seam =
            internal[current] >= low_water && candidate.map_or(true, |(sval, _)| sval < 0);
        let v = match candidate {
            Some((_, vi)) if !full && !at_seam => {
                heap.pop();
                NodeId::new(vi)
            }
            _ => {
                if full || at_seam {
                    // Frontier gains are meaningless for the next (empty)
                    // piece: bump the epoch and drop the heap.
                    current += 1;
                    internal.push(0);
                    epoch += 1;
                    heap.clear();
                }
                // No frontier (fresh piece, or the piece walled off the
                // rest): seed with the smallest unassigned node.
                while cell_of[group[seed_cursor].index()] != sentinel {
                    seed_cursor += 1;
                }
                group[seed_cursor]
            }
        };
        let cell = base + u32::try_from(current).expect("piece fits in u32");
        let (v_gain, loops) = piece_gain(g, v, cell, cell_of);
        cell_of[v.index()] = cell;
        internal[current] += v_gain + loops;
        assigned += 1;
        for &e in g.incident_edges(v) {
            let ep = g.endpoints(e);
            let w = if ep.u == v { ep.v } else { ep.u };
            if w != v && cell_of[w.index()] == sentinel {
                let wi = w.index();
                if stamp[wi] != epoch {
                    stamp[wi] = epoch;
                    gain[wi] = 0;
                }
                gain[wi] += 1;
                heap.push((score(gain[wi], wi), Reverse(wi)));
            }
        }
    }
    let pieces = internal.len();

    // Min-cut refinement: move a node to the adjacent piece holding more
    // of its neighbors when that piece has balance headroom. Two passes
    // in ascending node order; fully deterministic.
    let mut cnt = vec![0usize; pieces];
    let mut touched: Vec<usize> = Vec::new();
    for _pass in 0..2 {
        for &v in group {
            let p = (cell_of[v.index()] - base) as usize;
            let mut loop_listings = 0usize;
            touched.clear();
            for &e in g.incident_edges(v) {
                let ep = g.endpoints(e);
                let w = if ep.u == v { ep.v } else { ep.u };
                if w == v {
                    loop_listings += 1; // each self-loop listed twice
                    continue;
                }
                let q = (cell_of[w.index()] - base) as usize;
                if cnt[q] == 0 {
                    touched.push(q);
                }
                cnt[q] += 1;
            }
            let loops = loop_listings / 2;
            let mut best = p;
            for &q in &touched {
                if q != p
                    && (cnt[q] > cnt[best] || (cnt[q] == cnt[best] && q < best))
                    && internal[q] + cnt[q] + loops <= limit
                {
                    best = q;
                }
            }
            if best != p && cnt[best] > cnt[p] {
                internal[p] -= cnt[p] + loops;
                internal[best] += cnt[best] + loops;
                cell_of[v.index()] = base + u32::try_from(best).expect("piece fits in u32");
            }
            for &q in &touched {
                cnt[q] = 0;
            }
        }
    }
    pieces
}

/// Edges from `v` into piece `cell` among already-assigned neighbors,
/// plus `v`'s own self-loop count (loops are always domestic).
fn piece_gain(g: &Multigraph, v: NodeId, cell: u32, cell_of: &[u32]) -> (usize, usize) {
    let mut gain = 0usize;
    let mut loop_listings = 0usize;
    for &e in g.incident_edges(v) {
        let ep = g.endpoints(e);
        let w = if ep.u == v { ep.v } else { ep.u };
        if w == v {
            loop_listings += 1;
        } else if cell_of[w.index()] == cell {
            gain += 1;
        }
    }
    (gain, loop_listings / 2)
}

/// Bin-packs cells onto `shards` worker shards: longest-processing-time
/// greedy over the cell edge counts, ties broken by ascending cell index
/// and ascending shard id — deterministic. Returns `shard_of[cell]`.
///
/// The assignment decides which worker solves which cell, never the
/// schedule itself (cells are solved into cell-indexed slots and merged
/// canonically).
#[must_use]
pub fn assign_shards(cell_edges: &[usize], shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let mut order: Vec<usize> = (0..cell_edges.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cell_edges[i]), i));
    let mut load = vec![0usize; shards];
    let mut shard_of = vec![0u32; cell_edges.len()];
    for i in order {
        let lightest = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        shard_of[i] = u32::try_from(lightest).expect("shard count fits in u32");
        load[lightest] += cell_edges[i];
    }
    shard_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// A ladder of `rungs` squares: 2*rungs+2 nodes, 3*rungs+1 edges,
    /// one connected component.
    fn ladder(rungs: usize) -> Multigraph {
        let mut b = GraphBuilder::new().nodes(2 * rungs + 2);
        for i in 0..=rungs {
            b = b.edge(2 * i, 2 * i + 1); // rung
        }
        for i in 0..rungs {
            b = b.edge(2 * i, 2 * i + 2); // left rail
            b = b.edge(2 * i + 1, 2 * i + 3); // right rail
        }
        b.build()
    }

    fn coverage_ok(g: &Multigraph, p: &CellPartition) {
        // Every edge in exactly one cell or the boundary set.
        let mut seen = vec![0u32; g.num_edges()];
        for c in &p.cells {
            for &e in &c.edges {
                seen[e.index()] += 1;
            }
        }
        for &e in &p.boundary {
            seen[e.index()] += 1;
        }
        assert!(seen.iter().all(|&s| s == 1), "each edge covered once");
        // Cells are node-disjoint and agree with cell_of.
        let mut owner = vec![u32::MAX; g.num_nodes()];
        for (i, c) in p.cells.iter().enumerate() {
            assert!(c.nodes.windows(2).all(|w| w[0] < w[1]), "nodes ascending");
            assert!(c.edges.windows(2).all(|w| w[0].index() < w[1].index()));
            for &v in &c.nodes {
                assert_eq!(owner[v.index()], u32::MAX, "cells node-disjoint");
                owner[v.index()] = i as u32;
            }
        }
        assert_eq!(owner, p.cell_of);
        // Domestic edges really are domestic; boundary edges really span.
        for (i, c) in p.cells.iter().enumerate() {
            for &e in &c.edges {
                let ep = g.endpoints(e);
                assert_eq!(p.cell_of[ep.u.index()], i as u32);
                assert_eq!(p.cell_of[ep.v.index()], i as u32);
            }
        }
        for &e in &p.boundary {
            let ep = g.endpoints(e);
            let (cu, cv) = (p.cell_of[ep.u.index()], p.cell_of[ep.v.index()]);
            // Endpoints in two different cells, or in a dropped cell
            // (every edge cut away).
            assert!(cu != cv || cu == u32::MAX);
        }
        assert!(p.boundary.windows(2).all(|w| w[0].index() < w[1].index()));
    }

    #[test]
    fn small_components_stay_whole() {
        let g = GraphBuilder::new()
            .nodes(7)
            .edge(0, 1)
            .edge(1, 2)
            .edge(3, 4)
            .edge(4, 5)
            .edge(5, 3)
            .build();
        let p = partition_cells(&g, DEFAULT_MAX_CELL_EDGES);
        assert_eq!(p.cells.len(), 2);
        assert!(p.boundary.is_empty());
        assert_eq!(p.cut_fraction(), 0.0);
        assert_eq!(p.cells[0].component, 0);
        assert_eq!(p.cells[1].component, 1);
        assert_eq!(p.cell_of[6], u32::MAX); // isolated node, no cell
        coverage_ok(&g, &p);
    }

    #[test]
    fn heavy_component_is_cut_balanced() {
        let g = ladder(100); // 301 edges, one component
        let p = partition_cells(&g, 100);
        assert!(p.cells.len() >= 4, "301 edges / 100 budget => >= 4 pieces");
        for c in &p.cells {
            assert!(c.edges.len() <= 100, "cell respects the budget");
        }
        assert!(!p.boundary.is_empty());
        // A ladder cut into contiguous chunks severs only a few rungs+rails.
        assert!(
            p.boundary.len() <= 24,
            "greedy+refine keeps the ladder cut small, got {}",
            p.boundary.len()
        );
        coverage_ok(&g, &p);
    }

    #[test]
    fn partition_is_deterministic_and_loop_safe() {
        let g = GraphBuilder::new()
            .nodes(6)
            .edge(0, 0)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 4)
            .edge(4, 5)
            .edge(5, 0)
            .build();
        let a = partition_cells(&g, 3);
        let bb = partition_cells(&g, 3);
        assert_eq!(format!("{a:?}"), format!("{bb:?}"));
        coverage_ok(&g, &a);
        // The self-loop at node 0 must be domestic wherever node 0 lives.
        let loop_cell = a.cell_of[0];
        assert!(a.cells[loop_cell as usize].edges.iter().any(|e| {
            let ep = g.endpoints(*e);
            ep.u == ep.v
        }));
    }

    #[test]
    fn single_cell_matches_the_grouping_passes() {
        // One component, with isolated nodes before, inside and after it.
        let one = GraphBuilder::new()
            .nodes(8)
            .edge(2, 3)
            .edge(3, 5)
            .edge(5, 2)
            .edge(3, 6)
            .edge(2, 3)
            .build();
        let fast = single_cell(&one, DEFAULT_MAX_CELL_EDGES).expect("one component");
        assert_eq!(
            format!("{fast:?}"),
            format!("{:?}", grouped_cells(&one, DEFAULT_MAX_CELL_EDGES))
        );
        assert_eq!(fast.cells[0].component, 2);
        coverage_ok(&one, &fast);
        // Two components, an edgeless graph, and a component over the
        // budget take the grouping passes.
        let two = GraphBuilder::new().nodes(4).edge(0, 1).edge(2, 3).build();
        assert!(single_cell(&two, DEFAULT_MAX_CELL_EDGES).is_none());
        assert!(single_cell(&Multigraph::with_nodes(3), DEFAULT_MAX_CELL_EDGES).is_none());
        assert!(single_cell(&ladder(4), 5).is_none());
        assert_eq!(partition_cells(&two, DEFAULT_MAX_CELL_EDGES).cells.len(), 2);
    }

    #[test]
    fn budget_zero_is_treated_as_one() {
        let g = GraphBuilder::new().nodes(3).edge(0, 1).edge(1, 2).build();
        let p = partition_cells(&g, 0);
        coverage_ok(&g, &p);
        for c in &p.cells {
            assert!(c.edges.len() <= 1);
        }
    }

    #[test]
    fn lpt_assignment_balances_and_is_deterministic() {
        let counts = [50usize, 30, 20, 10, 10, 5];
        let a = assign_shards(&counts, 2);
        assert_eq!(a, assign_shards(&counts, 2));
        let mut load = [0usize; 2];
        for (i, &s) in a.iter().enumerate() {
            load[s as usize] += counts[i];
        }
        assert_eq!(load.iter().sum::<usize>(), 125);
        assert!(load[0].abs_diff(load[1]) <= 15, "LPT is near-balanced");
        // More shards than cells, and zero shards, both behave.
        assert_eq!(assign_shards(&[7], 4), vec![0]);
        assert_eq!(assign_shards(&[], 0), Vec::<u32>::new());
    }
}
