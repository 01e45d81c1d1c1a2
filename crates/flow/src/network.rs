//! A directed flow network with Dinic's max-flow algorithm.
//!
//! The adjacency structure is a flat CSR (compressed sparse row) index
//! built lazily from the arc list: one counting sort groups arc ids by
//! tail vertex into a single contiguous array, so the BFS/DFS inner loops
//! walk cache-friendly slices instead of chasing one heap allocation per
//! vertex. The index and all traversal scratch (levels, DFS cursors, BFS
//! queue) persist inside the network, so repeated [`FlowNetwork::max_flow`]
//! calls — and repeated [`FlowNetwork::clear`]/rebuild cycles, the hot
//! pattern of the even-capacity solver's per-round subgraph extraction —
//! allocate nothing after the first solve.

use core::fmt;

/// Opaque handle to a directed edge added to a [`FlowNetwork`].
///
/// Use it after [`FlowNetwork::max_flow`] to read back how much flow the
/// edge carries ([`FlowNetwork::flow`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeHandle(usize);

/// A directed flow network over dense vertex indices `0..n`.
///
/// Max flow is computed with Dinic's algorithm: `O(V²·E)` in general and
/// `O(E·√V)` on the unit-capacity bipartite networks this workspace mostly
/// builds — comfortably polynomial, as Lemma 4.1 of the paper requires.
///
/// # Example
///
/// ```
/// use dmig_flow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// let (s, a, b, t) = (0, 1, 2, 3);
/// net.add_edge(s, a, 3);
/// net.add_edge(s, b, 2);
/// net.add_edge(a, t, 2);
/// net.add_edge(b, t, 3);
/// net.add_edge(a, b, 5);
/// assert_eq!(net.max_flow(s, t), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    num_vertices: usize,
    /// Head vertex per arc; arc `2k` is the forward arc of the `k`-th added
    /// edge, arc `2k+1` its residual twin.
    arc_to: Vec<usize>,
    /// Remaining residual capacity per arc.
    arc_cap: Vec<i64>,
    /// Tail vertex per arc (drives the CSR build).
    arc_tail: Vec<usize>,
    /// Original capacity of each forward arc (for flow read-back).
    original_cap: Vec<i64>,
    /// CSR index: arc ids grouped by tail, insertion order preserved.
    csr_offsets: Vec<usize>,
    csr_arcs: Vec<usize>,
    csr_valid: bool,
    // Traversal scratch, reused across max_flow calls.
    level: Vec<i32>,
    cursor: Vec<usize>,
    queue: Vec<usize>,
}

/// Stable counting sort of arc ids by tail vertex.
fn build_csr(
    num_vertices: usize,
    arc_tail: &[usize],
    offsets: &mut Vec<usize>,
    arcs: &mut Vec<usize>,
) {
    offsets.clear();
    offsets.resize(num_vertices + 1, 0);
    for &tail in arc_tail {
        offsets[tail + 1] += 1;
    }
    for v in 0..num_vertices {
        offsets[v + 1] += offsets[v];
    }
    arcs.clear();
    arcs.resize(arc_tail.len(), 0);
    let mut fill = offsets.clone();
    for (a, &tail) in arc_tail.iter().enumerate() {
        arcs[fill[tail]] = a;
        fill[tail] += 1;
    }
}

/// Dinic blocking-flow DFS over the CSR index (free function so the split
/// field borrows survive the recursion).
#[allow(clippy::too_many_arguments)]
fn blocking_dfs(
    arc_to: &[usize],
    arc_cap: &mut [i64],
    csr_offsets: &[usize],
    csr_arcs: &[usize],
    level: &[i32],
    cursor: &mut [usize],
    v: usize,
    t: usize,
    limit: i64,
) -> i64 {
    if v == t {
        return limit;
    }
    while cursor[v] < csr_offsets[v + 1] {
        let a = csr_arcs[cursor[v]];
        let (to, cap) = (arc_to[a], arc_cap[a]);
        if cap > 0 && level[to] == level[v] + 1 {
            let pushed = blocking_dfs(
                arc_to,
                arc_cap,
                csr_offsets,
                csr_arcs,
                level,
                cursor,
                to,
                t,
                limit.min(cap),
            );
            if pushed > 0 {
                arc_cap[a] -= pushed;
                arc_cap[a ^ 1] += pushed;
                return pushed;
            }
        }
        cursor[v] += 1;
    }
    0
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            num_vertices: n,
            ..FlowNetwork::default()
        }
    }

    /// Number of vertices.
    #[inline]
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges added (residual twins not counted).
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.original_cap.len()
    }

    /// Empties the network down to `n` isolated vertices, retaining every
    /// internal allocation so the next build reuses the same buffers.
    ///
    /// This is the cheap path for solving a *sequence* of flow problems
    /// with one network, e.g. the Δ′ per-round subgraph extractions of the
    /// even-capacity solver.
    pub fn clear(&mut self, n: usize) {
        self.num_vertices = n;
        self.arc_to.clear();
        self.arc_cap.clear();
        self.arc_tail.clear();
        self.original_cap.clear();
        self.csr_valid = false;
    }

    /// Remaining residual capacity on the forward arc of `handle`.
    #[inline]
    #[must_use]
    pub fn residual(&self, handle: EdgeHandle) -> i64 {
        self.arc_cap[2 * handle.0]
    }

    /// Forces `amount` units of flow through `handle`'s forward arc,
    /// adjusting its residual pair and nothing else.
    ///
    /// This is the warm-start primitive: a caller that already knows a
    /// feasible partial flow (e.g. a greedy matching through a bipartite
    /// network) pushes it along complete `s → t` paths before calling
    /// [`FlowNetwork::max_flow`], which then only augments the remainder —
    /// the final flow is still maximal, by the residual-graph argument.
    /// Pushing along anything but complete `s → t` paths leaves the network
    /// violating conservation and later results are meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or exceeds the remaining residual
    /// capacity.
    pub fn push_flow(&mut self, handle: EdgeHandle, amount: i64) {
        let a = 2 * handle.0;
        assert!(
            (0..=self.arc_cap[a]).contains(&amount),
            "push_flow exceeds residual capacity"
        );
        self.arc_cap[a] -= amount;
        self.arc_cap[a ^ 1] += amount;
    }

    /// Adds a directed edge `from → to` with capacity `cap ≥ 0` and returns
    /// a handle for flow read-back.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `cap < 0`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> EdgeHandle {
        let n = self.num_vertices;
        assert!(from < n && to < n, "flow edge endpoint out of range");
        assert!(cap >= 0, "flow capacity must be non-negative");
        self.csr_valid = false;
        self.arc_to.push(to);
        self.arc_cap.push(cap);
        self.arc_tail.push(from);
        self.arc_to.push(from);
        self.arc_cap.push(0);
        self.arc_tail.push(to);
        self.original_cap.push(cap);
        EdgeHandle(self.original_cap.len() - 1)
    }

    /// Flow currently carried by the edge behind `handle` (meaningful after
    /// [`FlowNetwork::max_flow`]).
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this network.
    #[must_use]
    pub fn flow(&self, handle: EdgeHandle) -> i64 {
        self.original_cap[handle.0] - self.arc_cap[handle.0 * 2]
    }

    fn ensure_csr(&mut self) {
        if !self.csr_valid {
            build_csr(
                self.num_vertices,
                &self.arc_tail,
                &mut self.csr_offsets,
                &mut self.csr_arcs,
            );
            self.csr_valid = true;
        }
    }

    /// Computes the maximum `s → t` flow, mutating residual capacities.
    ///
    /// Calling it again continues from the current residual state, so the
    /// usual pattern is one call per network (or per [`FlowNetwork::clear`]
    /// and rebuild).
    /// `s == t` yields 0.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let n = self.num_vertices;
        assert!(s < n && t < n, "source/sink out of range");
        if s == t {
            return 0;
        }
        self.ensure_csr();
        let _span = dmig_obs::span("dinic.max_flow");
        let FlowNetwork {
            arc_to,
            arc_cap,
            csr_offsets,
            csr_arcs,
            level,
            cursor,
            queue,
            ..
        } = self;
        let mut total = 0i64;
        let mut bfs_phases = 0u64;
        let mut aug_paths = 0u64;
        loop {
            bfs_phases += 1;
            // BFS: build the level graph.
            level.clear();
            level.resize(n, -1);
            level[s] = 0;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                for &a in &csr_arcs[csr_offsets[v]..csr_offsets[v + 1]] {
                    let to = arc_to[a];
                    if arc_cap[a] > 0 && level[to] < 0 {
                        level[to] = level[v] + 1;
                        queue.push(to);
                    }
                }
            }
            if level[t] < 0 {
                break;
            }
            cursor.clear();
            cursor.extend_from_slice(&csr_offsets[..n]);
            // DFS blocking flow.
            loop {
                let pushed = blocking_dfs(
                    arc_to,
                    arc_cap,
                    csr_offsets,
                    csr_arcs,
                    level,
                    cursor,
                    s,
                    t,
                    i64::MAX,
                );
                if pushed == 0 {
                    break;
                }
                aug_paths += 1;
                total += pushed;
            }
        }
        dmig_obs::counter_add(dmig_obs::keys::DINIC_CALLS, 1);
        dmig_obs::counter_add(dmig_obs::keys::DINIC_BFS_PHASES, bfs_phases);
        dmig_obs::counter_add(dmig_obs::keys::DINIC_AUGMENTING_PATHS, aug_paths);
        total
    }

    /// Returns the source side of a minimum `s`–`t` cut: the set of vertices
    /// reachable from `s` in the residual graph.
    ///
    /// Call after [`FlowNetwork::max_flow`]; before it, the whole graph is
    /// typically reachable.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let n = self.num_vertices;
        assert!(s < n, "source out of range");
        let reach_over = |offsets: &[usize], arcs: &[usize]| {
            let mut reach = vec![false; n];
            reach[s] = true;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for &a in &arcs[offsets[v]..offsets[v + 1]] {
                    let to = self.arc_to[a];
                    if self.arc_cap[a] > 0 && !reach[to] {
                        reach[to] = true;
                        stack.push(to);
                    }
                }
            }
            reach
        };
        if self.csr_valid {
            reach_over(&self.csr_offsets, &self.csr_arcs)
        } else {
            // Not solved yet (no CSR): build a throwaway index.
            let mut offsets = Vec::new();
            let mut arcs = Vec::new();
            build_csr(n, &self.arc_tail, &mut offsets, &mut arcs);
            reach_over(&offsets, &arcs)
        }
    }
}

impl fmt::Display for FlowNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow network(V={}, E={})",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_no_path() {
        let mut net = FlowNetwork::new(2);
        assert_eq!(net.max_flow(0, 1), 0);
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow(e), 7);
    }

    #[test]
    fn source_equals_sink() {
        let mut net = FlowNetwork::new(1);
        assert_eq!(net.max_flow(0, 0), 0);
    }

    #[test]
    fn classic_diamond() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn flow_conservation_and_capacity() {
        // Random-ish fixed network; verify conservation at internal nodes.
        let mut net = FlowNetwork::new(6);
        let edges = [
            (0usize, 1usize, 10i64),
            (0, 2, 10),
            (1, 3, 4),
            (1, 4, 8),
            (2, 4, 9),
            (3, 5, 10),
            (4, 3, 6),
            (4, 5, 10),
        ];
        let handles: Vec<_> = edges
            .iter()
            .map(|&(u, v, c)| (net.add_edge(u, v, c), u, v, c))
            .collect();
        let value = net.max_flow(0, 5);
        assert_eq!(value, 19);
        let mut net_in = [0i64; 6];
        let mut net_out = [0i64; 6];
        for (h, u, v, c) in handles {
            let f = net.flow(h);
            assert!((0..=c).contains(&f), "flow within capacity");
            net_out[u] += f;
            net_in[v] += f;
        }
        for v in 1..5 {
            assert_eq!(net_in[v], net_out[v], "conservation at {v}");
        }
        assert_eq!(net_out[0] - net_in[0], value);
        assert_eq!(net_in[5] - net_out[5], value);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut net = FlowNetwork::new(4);
        let h = [
            net.add_edge(0, 1, 3),
            net.add_edge(0, 2, 2),
            net.add_edge(1, 3, 2),
            net.add_edge(2, 3, 3),
        ];
        let caps = [3i64, 2, 2, 3];
        let ends = [(0usize, 1usize), (0, 2), (1, 3), (2, 3)];
        let value = net.max_flow(0, 3);
        let side = net.min_cut_source_side(0);
        assert!(side[0] && !side[3]);
        let cut: i64 = ends
            .iter()
            .zip(caps.iter())
            .filter(|(&(u, v), _)| side[u] && !side[v])
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(cut, value);
        let _ = h;
    }

    #[test]
    fn min_cut_before_solving_reaches_everything() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 2, 1);
        // No max_flow yet: the residual graph is the full graph.
        assert_eq!(net.min_cut_source_side(0), vec![true, true, true]);
    }

    #[test]
    fn bipartite_matching_via_unit_capacities() {
        // 3x3 bipartite: left {1,2,3}, right {4,5,6}; perfect matching exists.
        let mut net = FlowNetwork::new(8);
        let (s, t) = (0, 7);
        for l in 1..=3 {
            net.add_edge(s, l, 1);
        }
        for r in 4..=6 {
            net.add_edge(r, t, 1);
        }
        for (l, r) in [(1, 4), (1, 5), (2, 4), (3, 6)] {
            net.add_edge(l, r, 1);
        }
        assert_eq!(net.max_flow(s, t), 3);
    }

    #[test]
    fn zero_capacity_edges_carry_nothing() {
        let mut net = FlowNetwork::new(3);
        let e = net.add_edge(0, 1, 0);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 2), 0);
        assert_eq!(net.flow(e), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_panics() {
        let mut net = FlowNetwork::new(2);
        let _ = net.add_edge(0, 1, -1);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn out_of_range_edge_panics() {
        let mut net = FlowNetwork::new(2);
        let _ = net.add_edge(0, 5, 1);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 2);
        net.add_edge(0, 1, 3);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn long_chain_with_bottleneck() {
        let n = 50;
        let mut net = FlowNetwork::new(n);
        for v in 0..n - 1 {
            let cap = if v == 25 { 3 } else { 100 };
            net.add_edge(v, v + 1, cap);
        }
        assert_eq!(net.max_flow(0, n - 1), 3);
        let side = net.min_cut_source_side(0);
        assert!(side[25] && !side[26]);
    }

    #[test]
    fn clear_reuses_buffers_for_new_topology() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 3, 5);
        assert_eq!(net.max_flow(0, 3), 5);
        net.clear(3);
        assert_eq!(net.num_vertices(), 3);
        assert_eq!(net.num_edges(), 0);
        let e = net.add_edge(0, 2, 7);
        assert_eq!(net.max_flow(0, 2), 7);
        assert_eq!(net.flow(e), 7);
        // Old vertex 3 is gone.
        assert_eq!(net.min_cut_source_side(0).len(), 3);
    }
}
