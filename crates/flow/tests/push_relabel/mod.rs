//! Push–relabel max-flow (Goldberg–Tarjan) with FIFO selection: the
//! oracle the property tests check Dinic against.
//!
//! Dinic's algorithm ([`dmig_flow::FlowNetwork`]) is the only max-flow
//! engine the library ships. This second, independently implemented engine
//! lives with the tests: they drive both over the same random networks and
//! require identical flow values. Like `FlowNetwork`, the adjacency is a
//! flat CSR index built lazily by one counting sort, and the labeling
//! scratch (heights, excess, cursors, FIFO queue) is retained across
//! [`PushRelabelNetwork::max_flow`] calls.

/// A directed flow network solved by FIFO push–relabel.
///
/// The API mirrors [`dmig_flow::FlowNetwork`] deliberately so the tests can
/// swap engines.
#[derive(Clone, Debug, Default)]
pub struct PushRelabelNetwork {
    num_vertices: usize,
    to: Vec<usize>,
    cap: Vec<i64>,
    tail: Vec<usize>,
    original_cap: Vec<i64>,
    /// CSR index: arc ids grouped by tail, insertion order preserved.
    csr_offsets: Vec<usize>,
    csr_arcs: Vec<usize>,
    csr_valid: bool,
    // Labeling scratch, reused across max_flow calls.
    height: Vec<usize>,
    excess: Vec<i64>,
    cursor: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
}

/// Handle to an added edge, for flow read-back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrEdgeHandle(usize);

impl PushRelabelNetwork {
    /// Creates a network with `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PushRelabelNetwork {
            num_vertices: n,
            ..PushRelabelNetwork::default()
        }
    }

    /// Creates a network with `n` vertices and room for `edges` edges.
    #[must_use]
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        PushRelabelNetwork {
            num_vertices: n,
            to: Vec::with_capacity(2 * edges),
            cap: Vec::with_capacity(2 * edges),
            tail: Vec::with_capacity(2 * edges),
            original_cap: Vec::with_capacity(edges),
            csr_offsets: Vec::with_capacity(n + 1),
            csr_arcs: Vec::with_capacity(2 * edges),
            ..PushRelabelNetwork::default()
        }
    }

    /// Empties the network down to `n` isolated vertices, retaining every
    /// internal allocation.
    pub fn clear(&mut self, n: usize) {
        self.num_vertices = n;
        self.to.clear();
        self.cap.clear();
        self.tail.clear();
        self.original_cap.clear();
        self.csr_valid = false;
    }

    /// Restores every edge to its original capacity (zero flow), keeping
    /// the topology and the CSR index intact.
    pub fn reset(&mut self) {
        for (k, &cap) in self.original_cap.iter().enumerate() {
            self.cap[2 * k] = cap;
            self.cap[2 * k + 1] = 0;
        }
    }

    /// Adds a directed edge with capacity `cap ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> PrEdgeHandle {
        let n = self.num_vertices;
        assert!(from < n && to < n, "flow edge endpoint out of range");
        assert!(cap >= 0, "flow capacity must be non-negative");
        self.csr_valid = false;
        self.to.push(to);
        self.cap.push(cap);
        self.tail.push(from);
        self.to.push(from);
        self.cap.push(0);
        self.tail.push(to);
        self.original_cap.push(cap);
        PrEdgeHandle(self.original_cap.len() - 1)
    }

    /// Flow carried by the edge after [`PushRelabelNetwork::max_flow`].
    #[must_use]
    pub fn flow(&self, handle: PrEdgeHandle) -> i64 {
        self.original_cap[handle.0] - self.cap[handle.0 * 2]
    }

    fn ensure_csr(&mut self) {
        if !self.csr_valid {
            self.csr_offsets.clear();
            self.csr_offsets.resize(self.num_vertices + 1, 0);
            for &tail in &self.tail {
                self.csr_offsets[tail + 1] += 1;
            }
            for v in 0..self.num_vertices {
                self.csr_offsets[v + 1] += self.csr_offsets[v];
            }
            self.csr_arcs.clear();
            self.csr_arcs.resize(self.tail.len(), 0);
            let mut fill = self.csr_offsets.clone();
            for (a, &tail) in self.tail.iter().enumerate() {
                self.csr_arcs[fill[tail]] = a;
                fill[tail] += 1;
            }
            self.csr_valid = true;
        }
    }

    /// Computes the maximum `s → t` flow (FIFO push–relabel with the
    /// global-relabel-free textbook variant; heights capped at `2V`).
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
        let PushRelabelNetwork {
            to,
            cap,
            csr_offsets,
            csr_arcs,
            height,
            excess,
            cursor,
            queue,
            ..
        } = self;
        height.clear();
        height.resize(n, 0);
        excess.clear();
        excess.resize(n, 0);
        cursor.clear();
        cursor.extend_from_slice(&csr_offsets[..n]);
        queue.clear();
        height[s] = n;

        // Saturate all source arcs.
        for &a in &csr_arcs[csr_offsets[s]..csr_offsets[s + 1]] {
            let c = cap[a];
            if c > 0 {
                let v = to[a];
                cap[a] = 0;
                cap[a ^ 1] += c;
                excess[v] += c;
                excess[s] -= c;
                if v != t && v != s && excess[v] == c {
                    queue.push_back(v);
                }
            }
        }

        while let Some(v) = queue.pop_front() {
            // Discharge v.
            while excess[v] > 0 {
                if cursor[v] == csr_offsets[v + 1] {
                    // Relabel: minimal neighbor height + 1.
                    let mut min_h = usize::MAX;
                    for &a in &csr_arcs[csr_offsets[v]..csr_offsets[v + 1]] {
                        if cap[a] > 0 {
                            min_h = min_h.min(height[to[a]]);
                        }
                    }
                    if min_h == usize::MAX || min_h + 1 > 2 * n {
                        // No admissible arcs can ever appear: excess is
                        // trapped (flows back via other relabels).
                        break;
                    }
                    height[v] = min_h + 1;
                    cursor[v] = csr_offsets[v];
                    continue;
                }
                let a = csr_arcs[cursor[v]];
                let w = to[a];
                if cap[a] > 0 && height[v] == height[w] + 1 {
                    let delta = excess[v].min(cap[a]);
                    cap[a] -= delta;
                    cap[a ^ 1] += delta;
                    excess[v] -= delta;
                    let had_excess = excess[w] > 0;
                    excess[w] += delta;
                    if w != s && w != t && !had_excess {
                        queue.push_back(w);
                    }
                } else {
                    cursor[v] += 1;
                }
            }
        }
        excess[t]
    }

    /// Source side of a minimum cut: vertices reachable from `s` in the
    /// residual graph (call after [`PushRelabelNetwork::max_flow`]).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let n = self.num_vertices;
        assert!(s < n, "source out of range");
        let mut reach = vec![false; n];
        reach[s] = true;
        let mut stack = vec![s];
        if self.csr_valid {
            while let Some(v) = stack.pop() {
                for &a in &self.csr_arcs[self.csr_offsets[v]..self.csr_offsets[v + 1]] {
                    if self.cap[a] > 0 && !reach[self.to[a]] {
                        reach[self.to[a]] = true;
                        stack.push(self.to[a]);
                    }
                }
            }
        } else {
            // Not solved yet: scan the flat arc list per fixpoint round
            // (only reachable without a prior max_flow call).
            let mut changed = true;
            while changed {
                changed = false;
                for a in 0..self.tail.len() {
                    if self.cap[a] > 0 && reach[self.tail[a]] && !reach[self.to[a]] {
                        reach[self.to[a]] = true;
                        changed = true;
                    }
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = PushRelabelNetwork::new(2);
        let h = net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow(h), 7);
    }

    #[test]
    fn no_path() {
        let mut net = PushRelabelNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn classic_diamond() {
        let mut net = PushRelabelNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn source_equals_sink() {
        let mut net = PushRelabelNetwork::new(1);
        assert_eq!(net.max_flow(0, 0), 0);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut net = PushRelabelNetwork::new(5);
        let edges = [
            (0usize, 1usize, 4i64),
            (0, 2, 3),
            (1, 3, 2),
            (2, 3, 5),
            (3, 4, 6),
            (1, 4, 1),
        ];
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        let value = net.max_flow(0, 4);
        let side = net.min_cut_source_side(0);
        assert!(side[0] && !side[4]);
        let cut: i64 = edges
            .iter()
            .filter(|&&(u, v, _)| side[u] && !side[v])
            .map(|&(_, _, c)| c)
            .sum();
        assert_eq!(cut, value);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = PushRelabelNetwork::new(2);
        net.add_edge(0, 1, 2);
        net.add_edge(0, 1, 3);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn reset_and_clear_reuse_the_network() {
        let mut net = PushRelabelNetwork::with_capacity(4, 5);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 3, 2);
        net.add_edge(0, 2, 2);
        net.add_edge(2, 3, 3);
        let first = net.max_flow(0, 3);
        net.reset();
        assert_eq!(net.max_flow(0, 3), first);
        net.clear(2);
        let h = net.add_edge(0, 1, 9);
        assert_eq!(net.max_flow(0, 1), 9);
        assert_eq!(net.flow(h), 9);
    }
}
