//! The optimal migration schedule for even transfer constraints (§IV).
//!
//! When every `c_v` is even the paper gives a polynomial-time algorithm
//! producing exactly `Δ' = max_v ⌈d_v / c_v⌉` rounds (Theorem 4.1):
//!
//! 1. **Orient** along Euler circuits. Dummy edges pair the disks of odd
//!    degree for the walk only; with them dropped, every disk sends
//!    `⌈d_v/2⌉` or `⌊d_v/2⌋` items and receives the rest, so both are at
//!    most `c_v·Δ'/2` (an integer, since `c_v` is even).
//! 2. **Group and pad** (`decompose`, shared with
//!    [`crate::bipartite_opt`]): disk `v` becomes an out-node and an
//!    in-node of a bipartite graph H, and an item `u → v` the arc
//!    `(u_out, v_in)`. A side of degree above `Δ'` gets its own node of
//!    quota `⌈deg/Δ'⌉`; smaller ones share quota-1 nodes, packed next-fit
//!    up to `Δ'`. Dummy arcs pad every node to `quota·Δ'`, and one dummy
//!    node balances the two sides.
//! 3. **Decompose** H into `Δ'` rounds that meet every quota exactly
//!    ([`dmig_flow::quota_round_partition`]: Euler splits at even levels,
//!    one max-flow peel at odd ones; Lemmas 4.1/4.2 give feasibility) and
//!    drop the padding.
//!
//! Disk `v` moves at most `⌈out_v/Δ'⌉ + ⌈in_v/Δ'⌉ ≤ c_v/2 + c_v/2` items
//! per round (Lemma 4.3); on a shared node, at most one per side. The
//! paper pads every disk to `c_v·Δ'` before orienting; padding the
//! grouped nodes after it keeps the padding below `m + Δ'` arcs.

use dmig_flow::pool::ObjectPool;
use dmig_flow::quota_round_partition;
use dmig_graph::euler::{orient_csr, TrailScratch};
use dmig_graph::{CsrAdjacency, EdgeId, Endpoints, Multigraph};

use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Reusable workspace for one `solve_even` call, pooled process-wide so
/// steady-state solves (component workers, the simulator's replanning
/// loop) stop cloning the transfer graph and re-allocating adjacency.
#[derive(Debug, Default)]
struct EvenScratch {
    /// Incidence structure with the pairing overlaid by
    /// [`CsrAdjacency::rebuild_padded`]; the multigraph is never cloned.
    csr: CsrAdjacency,
    /// Dummy edges pairing the disks of odd degree.
    pad: Vec<Endpoints>,
    /// The walk state of [`orient_csr`].
    trails: TrailScratch,
    /// Oriented item arcs, fed to [`decompose`].
    arcs: Vec<(usize, usize)>,
}

static EVEN_SCRATCH: ObjectPool<EvenScratch> = ObjectPool::new();

/// Computes an optimal schedule (exactly `Δ'` rounds) for an instance whose
/// transfer constraints are all even.
///
/// # Errors
///
/// Returns [`SolveError::OddCapacity`] if some disk with transfers has an
/// odd constraint, or [`SolveError::Internal`] if an internal invariant is
/// violated (a bug).
///
/// # Example
///
/// ```
/// use dmig_core::{even::solve_even, MigrationProblem};
/// use dmig_graph::builder::complete_multigraph;
///
/// let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2)?;
/// let s = solve_even(&p)?;
/// s.validate(&p)?;
/// assert_eq!(s.makespan(), p.delta_prime()); // optimal: Theorem 4.1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_even(problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
    let g = problem.graph();
    let caps = problem.capacities();
    for v in g.nodes() {
        let c = caps.get(v);
        if g.degree(v) > 0 && c % 2 != 0 {
            return Err(SolveError::OddCapacity {
                node: v,
                capacity: c,
            });
        }
    }

    let delta_prime = problem.delta_prime();
    if delta_prime == 0 {
        return Ok(MigrationSchedule::default());
    }
    let _span = dmig_obs::span_labeled("solve_even", || {
        format!(
            "n={} m={} delta_prime={delta_prime}",
            g.num_nodes(),
            g.num_edges()
        )
    });

    let mut scratch = EVEN_SCRATCH.acquire();
    orient(g, &mut scratch)?;
    let schedule = decompose(
        [
            "solve_even.pad",
            "solve_even.decompose",
            "solve_even.assemble",
        ],
        g.num_nodes(),
        &mut scratch.arcs,
        delta_prime,
    );
    EVEN_SCRATCH.release(scratch);
    schedule
}

/// Step 1: fills `scratch.arcs` with an Euler orientation of `g`'s items,
/// arc `i` for item `i`.
fn orient(g: &Multigraph, scratch: &mut EvenScratch) -> Result<(), SolveError> {
    let _span = dmig_obs::span("solve_even.euler_orientation");
    // The handshake lemma makes the odd-degree disks even in number.
    scratch.pad.clear();
    let mut odd = g.nodes().filter(|&v| g.degree(v) % 2 == 1);
    while let (Some(u), Some(v)) = (odd.next(), odd.next()) {
        scratch.pad.push(Endpoints { u, v });
    }
    scratch.csr.rebuild_padded(g, &scratch.pad);

    let EvenScratch {
        csr, trails, arcs, ..
    } = scratch;
    let orientation = orient_csr(csr, trails)
        .map_err(|e| SolveError::Internal(format!("euler orientation failed: {e}")))?;
    dmig_obs::counter_add(dmig_obs::keys::EULER_ORIENTATIONS, 1);
    // Edge id i is arc position i; the pairing's ids come after the items.
    arcs.clear();
    arcs.extend(
        orientation
            .iter()
            .take(g.num_edges())
            .map(|(_, t, h)| (t.index(), h.index())),
    );
    Ok(())
}

/// Steps 2–3, shared with [`crate::bipartite_opt`]: `arcs[i]` carries item
/// `i` from disk `arcs[i].0` to disk `arcs[i].1`, both below `num_disks`,
/// oriented so that every disk's shares `⌈out_v/rounds⌉ + ⌈in_v/rounds⌉`
/// fit its capacity. Groups and pads the arcs ([`group_and_pad`]),
/// partitions them into `rounds` quota-exact groups, and drops the
/// padding. `spans` names the three phases.
pub(crate) fn decompose(
    spans: [&'static str; 3],
    num_disks: usize,
    arcs: &mut Vec<(usize, usize)>,
    rounds: usize,
) -> Result<MigrationSchedule, SolveError> {
    let items = arcs.len();
    let pad_span = dmig_obs::span(spans[0]);
    let [out_quota, in_quota] = group_and_pad(num_disks, arcs, rounds)?;
    drop(pad_span);
    // Divide-and-conquer decomposition: Euler splits halve the round count
    // in linear time, max flow runs only at the O(log Δ') odd levels.
    let decompose_span = dmig_obs::span(spans[1]);
    let partition = quota_round_partition(out_quota.len(), arcs, &out_quota, &in_quota, rounds)
        .map_err(|e| SolveError::Internal(format!("round decomposition infeasible: {e}")))?;
    drop(decompose_span);
    debug_assert_eq!(partition.iter().map(Vec::len).sum::<usize>(), arcs.len());
    let _assemble_span = dmig_obs::span(spans[2]);
    let rounds: Vec<Vec<EdgeId>> = partition
        .into_iter()
        .map(|selected| {
            selected
                .into_iter()
                .filter(|&pos| pos < items)
                .map(EdgeId::new)
                .collect()
        })
        .collect();
    let mut schedule = MigrationSchedule::from_rounds(rounds);
    schedule.trim_empty_rounds();
    Ok(schedule)
}

/// Rewrites the item arcs from disks to partition nodes and appends the
/// padding, so that every node is the tail of exactly `out_quota · rounds`
/// arcs and the head of exactly `in_quota · rounds`. Returns `[out_quota,
/// in_quota]`, of equal length.
///
/// Out-nodes and in-nodes are numbered from separate counters, in disk
/// order. A disk whose degree on a side exceeds `rounds` gets a node of
/// quota `⌈deg/rounds⌉` there; smaller degrees share quota-1 nodes, packed
/// next-fit up to `rounds`. One dummy node on the side of less total quota
/// takes the difference. An own node's `quota · rounds` is below twice its
/// degree and two consecutive shared nodes carry more than `rounds`, so
/// each side's quotas sum to less than `(2·items + rounds) / rounds`, and
/// the padding stays below `items + rounds` arcs. A disk's share on a
/// side is its node's quota, `⌈deg/rounds⌉`, or 1 on a shared node.
fn group_and_pad(
    num_disks: usize,
    arcs: &mut Vec<(usize, usize)>,
    rounds: usize,
) -> Result<[Vec<u32>; 2], SolveError> {
    // `node[side][v]` holds disk v's degree on the side until it is
    // replaced by v's node there; `load[side][x]` is node x's degree.
    let mut node = [vec![0usize; num_disks], vec![0usize; num_disks]];
    for &(t, h) in arcs.iter() {
        node[0][t] += 1;
        node[1][h] += 1;
    }
    let mut load: [Vec<usize>; 2] = Default::default();
    let mut quota: [Vec<u32>; 2] = Default::default();
    for side in 0..2 {
        let mut open = None;
        for slot in node[side].iter_mut().filter(|d| **d > 0) {
            let d = *slot;
            let x = match open {
                Some(x) if load[side][x] + d <= rounds => x,
                _ => {
                    let x = quota[side].len();
                    quota[side].push(u32::try_from(d.div_ceil(rounds)).expect("⌈deg/Δ'⌉ ≤ c_v"));
                    load[side].push(0);
                    if d <= rounds {
                        open = Some(x);
                    }
                    x
                }
            };
            *slot = x;
            load[side][x] += d;
        }
    }
    for (t, h) in arcs.iter_mut() {
        (*t, *h) = (node[0][*t], node[1][*h]);
    }

    let total = [0, 1].map(|side| quota[side].iter().map(|&q| u64::from(q)).sum::<u64>());
    let short = usize::from(total[1] < total[0]);
    let surplus = total[1 - short] - total[short];
    quota[short].push(
        u32::try_from(surplus)
            .map_err(|_| SolveError::Internal(format!("quota surplus {surplus} overflows")))?,
    );
    load[short].push(0);
    let nodes = quota[0].len().max(quota[1].len());
    // From here on `load` holds each node's deficit; both sides' deficits
    // sum to the same, so pairing them up pads every node exactly.
    for side in 0..2 {
        quota[side].resize(nodes, 0);
        load[side].resize(nodes, 0);
        for (gap, &q) in load[side].iter_mut().zip(&quota[side]) {
            *gap = q as usize * rounds - *gap;
        }
    }
    // Out-side deficits go node by node, in-side ones round-robin (one
    // unit per node per pass), so a node's padding reaches many nodes of
    // the other side. Padding between a few pairs of nodes made the odd
    // levels' max flow take 68 BFS phases on a 10^6-item instance; spread
    // out, it takes 10.
    let [out_gap, in_gap] = &load;
    let mut tails = (0..nodes).flat_map(|x| std::iter::repeat(x).take(out_gap[x]));
    let mut heads: Vec<(usize, usize)> = in_gap
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, gap)| gap > 0)
        .collect();
    while !heads.is_empty() {
        heads.retain_mut(|(y, gap)| {
            arcs.push((tails.next().expect("balanced deficits"), *y));
            *gap -= 1;
            *gap > 0
        });
    }
    debug_assert!(tails.next().is_none(), "unpaired padding");
    Ok(quota)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounds, Capacities};
    use dmig_graph::builder::{complete_multigraph, cycle_multigraph, star_multigraph};
    use dmig_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_optimal(p: &MigrationProblem) {
        let s = solve_even(p).unwrap();
        s.validate(p).unwrap();
        assert_eq!(
            s.makespan(),
            p.delta_prime(),
            "Theorem 4.1: exactly Δ' rounds on {p}"
        );
        assert!(s.makespan() >= bounds::lower_bound(p));
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(Multigraph::with_nodes(3), 2).unwrap();
        let s = solve_even(&p).unwrap();
        assert_eq!(s.makespan(), 0);
    }

    #[test]
    fn fig2_k3_families() {
        for m in [1usize, 2, 3, 5, 8] {
            let p = MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap();
            check_optimal(&p);
            assert_eq!(p.delta_prime(), m);
        }
    }

    #[test]
    fn odd_capacity_rejected() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 1), 3).unwrap();
        let err = solve_even(&p).unwrap_err();
        assert!(matches!(err, SolveError::OddCapacity { capacity: 3, .. }));
    }

    #[test]
    fn odd_capacity_on_isolated_disk_is_fine() {
        let g = GraphBuilder::new().nodes(3).parallel_edges(0, 1, 4).build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![2, 2, 1])).unwrap();
        check_optimal(&p);
    }

    #[test]
    fn heterogeneous_even_capacities() {
        let g = complete_multigraph(4, 3); // degrees 9
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![2, 4, 6, 2])).unwrap();
        // Δ' = ⌈9/2⌉ = 5.
        assert_eq!(p.delta_prime(), 5);
        check_optimal(&p);
    }

    #[test]
    fn structured_families() {
        check_optimal(&MigrationProblem::uniform(cycle_multigraph(7, 4), 2).unwrap());
        check_optimal(&MigrationProblem::uniform(star_multigraph(6, 3), 4).unwrap());
        check_optimal(&MigrationProblem::uniform(complete_multigraph(6, 2), 6).unwrap());
    }

    #[test]
    fn single_edge_minimal() {
        let p = MigrationProblem::uniform(GraphBuilder::new().edge(0, 1).build(), 2).unwrap();
        let s = solve_even(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 1);
    }

    #[test]
    fn disconnected_components_scheduled_together() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 1, 4)
            .parallel_edges(2, 3, 2)
            .parallel_edges(4, 5, 6)
            .build();
        let p = MigrationProblem::uniform(g, 2).unwrap();
        check_optimal(&p); // Δ' = 3 from the 6-parallel pair
        assert_eq!(p.delta_prime(), 3);
    }

    /// Random Euler-oriented even instances and left → right bipartite
    /// ones with any capacities: the shared padding stays below
    /// `items + Δ'` arcs, every disk's out-node share plus in-node share
    /// fits its capacity, and the solver gets exactly `Δ'` rounds.
    #[test]
    fn random_instances_pad_little_and_are_optimal() {
        let mut rng = StdRng::seed_from_u64(0x9AD);
        for case in 0..80 {
            let bipartite = case % 2 == 1;
            let n = rng.gen_range(2..16);
            let left = rng.gen_range(1..n);
            let mut g = Multigraph::with_nodes(n);
            for _ in 0..rng.gen_range(1..200) {
                let (u, v) = if bipartite {
                    (rng.gen_range(0..left), rng.gen_range(left..n))
                } else {
                    (rng.gen_range(0..n), rng.gen_range(0..n))
                };
                if u != v {
                    g.add_edge(u.into(), v.into());
                }
            }
            let scale = if bipartite { 1 } else { 2 };
            let caps: Capacities = (0..n).map(|_| scale * rng.gen_range(1..5u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            let (rounds, items) = (p.delta_prime(), p.num_items());
            if rounds == 0 {
                continue;
            }
            let mut arcs: Vec<(usize, usize)> = if bipartite {
                let ends = p
                    .graph()
                    .edges()
                    .map(|(_, ep)| (ep.u.index(), ep.v.index()));
                ends.collect()
            } else {
                let mut scratch = EvenScratch::default();
                orient(p.graph(), &mut scratch).unwrap();
                scratch.arcs
            };
            let disks = arcs.clone();
            let quota = group_and_pad(n, &mut arcs, rounds).unwrap();
            // Every padding arc has one end on each side.
            assert!(arcs.len() - items < items + rounds, "case {case}");
            let mut share = vec![[0u32; 2]; n];
            for (&(t, h), &(x, y)) in disks.iter().zip(&arcs) {
                share[t][0] = quota[0][x];
                share[h][1] = quota[1][y];
            }
            for (v, [out, into]) in share.into_iter().enumerate() {
                assert!(
                    out + into <= p.capacities().get(v.into()),
                    "case {case}, disk {v}"
                );
            }
            if bipartite {
                let s = crate::bipartite_opt::solve_bipartite(&p).unwrap();
                s.validate(&p).unwrap();
                assert_eq!(s.makespan(), rounds, "case {case}");
            } else {
                check_optimal(&p);
            }
        }
    }
}
