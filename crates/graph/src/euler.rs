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
//! [`euler_orientation`] does not walk one global Hierholzer traversal
//! (whose stack makes the output depend on global visit order and pins the
//! whole walk to one core). Instead it derives the orientation from a
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
//! Because the labels depend only on the CSR arrays, the orientation is
//! deterministic and — crucially — *parallelizable without changing the
//! answer*: [`euler_orientation_parallel`] lets multiple workers claim
//! vertex-disjoint chunks of each cycle concurrently, then stitches the
//! chunks with a deterministic merge. The output is byte-identical to the
//! serial path at every worker count; only the chunk/stitch statistics
//! ([`OrientStats`]) depend on scheduling.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use crate::{CsrAdjacency, EdgeId, GraphError, Multigraph, NodeId};

/// Sentinel for "slot not yet labeled / claimed".
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

/// Chunk/stitch statistics of one orientation run.
///
/// The orientation itself is identical at every worker count; these numbers
/// describe how the work was carved up. A single-worker run labels each
/// pairing cycle in one pass, so `chunks == cycles` and `stitches == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrientStats {
    /// Cycle/ear chunks claimed during labeling (≥ `cycles`).
    pub chunks: u64,
    /// Chunk junctions merged by the stitch pass (`chunks - cycles`).
    pub stitches: u64,
    /// Pairing cycles of the slot permutation (a graph invariant).
    pub cycles: u64,
}

/// One claimed chunk of a pairing cycle: the slots from `start` (inclusive)
/// up to `bound` (exclusive) along `succ`. `bound` is always the start of
/// another chunk — or `start` itself when the chunk closed its whole cycle.
#[derive(Clone, Copy, Debug)]
struct ArcRec {
    start: u32,
    bound: u32,
    /// Minimum slot index among the chunk's slots (including `start`).
    min: u32,
}

/// Reusable buffers for the orientation routines.
///
/// The component-parallel and quota-recursion workers orient many padded
/// graphs in a row; keeping the CSR snapshot, slot permutation, and label
/// arrays alive across calls removes every per-call allocation except the
/// returned orientation itself. [`euler_orientation`] reuses a thread-local
/// arena, so ordinary callers get this for free.
#[derive(Debug, Default)]
pub struct OrientScratch {
    /// CSR snapshot used by the `Multigraph`-level entry points. Callers
    /// that build their own (possibly padded) CSR use
    /// [`orient_csr_parallel`] and leave this empty.
    csr: CsrAdjacency,
    /// Per edge: its two slot indices in the CSR entry array.
    edge_slot: Vec<[u32; 2]>,
    /// The pairing permutation `succ(s) = pair(twin(s))`.
    succ: Vec<u32>,
    /// Cycle-min label per slot; doubles as the claim word under parallel
    /// labeling (atomics are free on the serial path via `get_mut`).
    label: Vec<AtomicU32>,
    /// Claimed chunks, collected from all workers then stitched.
    arcs: Vec<ArcRec>,
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
/// (see the module docs), identical to what
/// [`euler_orientation_parallel`] produces at any worker count.
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
    euler_orientation_parallel(g, 1, scratch).map(|(o, _)| o)
}

/// Chunked orientation of `g` using up to `workers` threads (including the
/// caller), byte-identical to [`euler_orientation`] at every worker count.
///
/// `workers <= 1` runs the serial labeling pass on the calling thread.
/// Callers are expected to gate `workers` on problem size themselves (the
/// solver recruits extra workers only for graphs big enough to amortize
/// thread spawns); this function honors whatever it is given so that small
/// instances can still exercise the parallel machinery in tests.
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
pub fn euler_orientation_parallel(
    g: &Multigraph,
    workers: usize,
    scratch: &mut OrientScratch,
) -> Result<(EulerOrientation, OrientStats), GraphError> {
    scratch.csr.rebuild_from(g);
    let OrientScratch {
        csr,
        edge_slot,
        succ,
        label,
        arcs,
        ..
    } = scratch;
    orient_split(csr, workers, edge_slot, succ, label, arcs)
}

/// Chunked orientation of a caller-built CSR snapshot.
///
/// This is the zero-copy entry point used by `solve_even`: the caller
/// overlays padding edges with [`CsrAdjacency::rebuild_padded`] and orients
/// the padded incidence structure directly, never materialising the padded
/// multigraph. Otherwise identical to [`euler_orientation_parallel`].
///
/// # Errors
///
/// Returns [`GraphError::OddDegree`] naming the first node with odd degree.
pub fn orient_csr_parallel(
    csr: &CsrAdjacency,
    workers: usize,
    scratch: &mut OrientScratch,
) -> Result<(EulerOrientation, OrientStats), GraphError> {
    let OrientScratch {
        edge_slot,
        succ,
        label,
        arcs,
        ..
    } = scratch;
    orient_split(csr, workers, edge_slot, succ, label, arcs)
}

fn orient_split(
    csr: &CsrAdjacency,
    workers: usize,
    edge_slot: &mut Vec<[u32; 2]>,
    succ: &mut Vec<u32>,
    label: &mut Vec<AtomicU32>,
    arcs: &mut Vec<ArcRec>,
) -> Result<(EulerOrientation, OrientStats), GraphError> {
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

    let slots = csr.entries().len();
    if slots == 0 {
        return Ok((
            EulerOrientation {
                tail: Vec::new(),
                head: Vec::new(),
            },
            OrientStats::default(),
        ));
    }
    assert!(
        (slots as u64) < u64::from(UNSET),
        "slot index must fit in u32 (m < 2^31 edges)"
    );

    build_succ(csr, edge_slot, succ);
    label.clear();
    label.resize_with(slots, || AtomicU32::new(UNSET));

    let stats = if workers <= 1 {
        label_serial(succ, label)
    } else {
        label_parallel(succ, label, arcs, workers)
    };
    Ok((orient_edges(csr, edge_slot, label, workers), stats))
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

/// Labels every slot with the minimum slot of its `succ`-cycle, serially.
///
/// Scanning starts in ascending order, so the first unvisited slot of a
/// cycle *is* its minimum: one walk per cycle suffices.
fn label_serial(succ: &[u32], label: &mut [AtomicU32]) -> OrientStats {
    let mut cycles = 0u64;
    for s in 0..label.len() as u32 {
        if *label[s as usize].get_mut() != UNSET {
            continue;
        }
        cycles += 1;
        let mut cur = s;
        loop {
            *label[cur as usize].get_mut() = s;
            cur = succ[cur as usize];
            if cur == s {
                break;
            }
        }
    }
    OrientStats {
        chunks: cycles,
        stitches: 0,
        cycles,
    }
}

/// Labels every slot with the minimum slot of its `succ`-cycle using
/// `workers` threads, producing exactly the same labels as
/// [`label_serial`].
///
/// Workers race to claim start slots (block-strided atomic cursor), then
/// claim-walk forward along `succ` until they close their own cycle or run
/// into another chunk. A chunk only ever grows forward from its start, so
/// every collision lands on another chunk's *start* slot — which makes the
/// serial stitch a simple start → bound chain walk. The race decides who
/// claims which chunk, never the stitched result: the final label is the
/// true cycle minimum regardless of partitioning.
fn label_parallel(
    succ: &[u32],
    label: &mut [AtomicU32],
    arcs: &mut Vec<ArcRec>,
    workers: usize,
) -> OrientStats {
    let slots = succ.len();
    arcs.clear();
    let label_shared: &[AtomicU32] = label;

    // Small blocks keep all workers busy on modest graphs (and exercise the
    // stitch path in tests); the per-block fetch_add is noise either way.
    let block = (slots / (workers * 8)).clamp(32, 1 << 16);
    let nblocks = slots.div_ceil(block);
    let next_block = AtomicUsize::new(0);

    // Claim-walk. Claims use the label word itself (claimer's start slot as
    // the marker, overwritten with the real label by the fill pass below).
    // Relaxed suffices: the CAS only arbitrates traversal ownership, and the
    // scope join orders everything before the stitch reads `arcs`.
    let claim = |out: &mut Vec<ArcRec>| loop {
        let b = next_block.fetch_add(1, Ordering::Relaxed);
        if b >= nblocks {
            break;
        }
        let lo = (b * block) as u32;
        let hi = ((b * block + block).min(slots)) as u32;
        for s in lo..hi {
            if label_shared[s as usize].load(Ordering::Relaxed) != UNSET {
                continue;
            }
            if label_shared[s as usize]
                .compare_exchange(UNSET, s, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let mut min = s;
            let mut cur = succ[s as usize];
            loop {
                if cur == s {
                    out.push(ArcRec {
                        start: s,
                        bound: s,
                        min,
                    });
                    break;
                }
                match label_shared[cur as usize].compare_exchange(
                    UNSET,
                    s,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        min = min.min(cur);
                        cur = succ[cur as usize];
                    }
                    Err(_) => {
                        out.push(ArcRec {
                            start: s,
                            bound: cur,
                            min,
                        });
                        break;
                    }
                }
            }
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    claim(&mut mine);
                    mine
                })
            })
            .collect();
        let mut mine = Vec::new();
        claim(&mut mine);
        arcs.append(&mut mine);
        for h in handles {
            arcs.extend(h.join().expect("claim worker panicked"));
        }
    });

    // Deterministic stitch: chain chunks through their bound pointers into
    // whole cycles and resolve each cycle's true minimum. Sorting by start
    // makes the bound lookups binary searches; the outcome is independent
    // of how the race carved the cycles up.
    arcs.sort_unstable_by_key(|a| a.start);
    let find = |start: u32| {
        arcs.binary_search_by_key(&start, |a| a.start)
            .expect("chunk bound must be another chunk's start")
    };
    let mut cycle_min = vec![UNSET; arcs.len()];
    let mut cycles = 0u64;
    for i in 0..arcs.len() {
        if cycle_min[i] != UNSET {
            continue;
        }
        cycles += 1;
        let mut min = arcs[i].min;
        let mut j = i;
        loop {
            let bound = arcs[j].bound;
            if bound == arcs[i].start {
                break;
            }
            j = find(bound);
            min = min.min(arcs[j].min);
        }
        let mut j = i;
        loop {
            cycle_min[j] = min;
            let bound = arcs[j].bound;
            if bound == arcs[i].start {
                break;
            }
            j = find(bound);
        }
    }

    // Parallel label fill: each chunk re-walks its claimed slots writing the
    // resolved cycle minimum. Chunks partition the slots, so writes are
    // disjoint.
    let arcs_shared: &[ArcRec] = arcs;
    let cycle_min_shared: &[u32] = &cycle_min;
    let next_arc = AtomicUsize::new(0);
    let fill = || loop {
        let i = next_arc.fetch_add(1, Ordering::Relaxed);
        if i >= arcs_shared.len() {
            break;
        }
        let arc = arcs_shared[i];
        let min = cycle_min_shared[i];
        let mut cur = arc.start;
        loop {
            label_shared[cur as usize].store(min, Ordering::Relaxed);
            cur = succ[cur as usize];
            if cur == arc.bound {
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(fill);
        }
        fill();
    });

    OrientStats {
        chunks: arcs.len() as u64,
        stitches: arcs.len() as u64 - cycles,
        cycles,
    }
}

/// Emits the per-edge orientation from the cycle labels: each edge exits
/// through its smaller-labeled slot (mirror cycles guarantee the labels of
/// an edge's two slots always differ).
fn orient_edges(
    csr: &CsrAdjacency,
    edge_slot: &[[u32; 2]],
    label: &[AtomicU32],
    workers: usize,
) -> EulerOrientation {
    let entries = csr.entries();
    let m = csr.num_edges();
    let mut tail = vec![NodeId::new(0); m];
    let mut head = vec![NodeId::new(0); m];

    let fill = |lo: usize, tail: &mut [NodeId], head: &mut [NodeId]| {
        for k in 0..tail.len() {
            let [a, b] = edge_slot[lo + k];
            let la = label[a as usize].load(Ordering::Relaxed);
            let lb = label[b as usize].load(Ordering::Relaxed);
            let (exit, enter) = if la < lb { (a, b) } else { (b, a) };
            // entries[s] stores the far endpoint: the exit slot names the
            // head it points at, its twin names the node it exits from.
            tail[k] = entries[enter as usize].1;
            head[k] = entries[exit as usize].1;
        }
    };
    if workers <= 1 || m < 2 {
        fill(0, &mut tail, &mut head);
    } else {
        let chunk = m.div_ceil(workers);
        let fill = &fill;
        std::thread::scope(|scope| {
            let mut ranges = tail
                .chunks_mut(chunk)
                .zip(head.chunks_mut(chunk))
                .enumerate();
            let first = ranges.next();
            for (i, (t, h)) in ranges {
                scope.spawn(move || fill(i * chunk, t, h));
            }
            if let Some((_, (t, h))) = first {
                fill(0, t, h);
            }
        });
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
    fn parallel_matches_serial_at_every_worker_count() {
        let mut g = complete_multigraph(7, 2); // degrees 12
        g.add_edge(2.into(), 2.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(0.into(), 2.into());
        let serial = euler_orientation(&g).unwrap();
        check_balanced(&g, &serial);
        let mut scratch = OrientScratch::new();
        for workers in 1..=8 {
            let (par, stats) = euler_orientation_parallel(&g, workers, &mut scratch).unwrap();
            assert_eq!(serial, par, "workers={workers} must not change the result");
            assert_eq!(stats.stitches, stats.chunks - stats.cycles);
            if workers == 1 {
                assert_eq!(stats.stitches, 0, "serial labeling never stitches");
            }
        }
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
        let mut scratch = OrientScratch::new();
        for workers in 1..=4 {
            let (got, _) = orient_csr_parallel(&csr, workers, &mut scratch).unwrap();
            assert_eq!(expect, got, "overlay CSR must orient like the clone");
        }
    }

    #[test]
    fn orientation_is_deterministic_across_calls() {
        let g = complete_multigraph(6, 2); // degrees 10
        let a = euler_orientation(&g).unwrap();
        let b = euler_orientation(&g).unwrap();
        assert_eq!(a, b);
    }
}
