//! The optimal migration schedule for even transfer constraints (§IV).
//!
//! When every `c_v` is even the paper gives a polynomial-time algorithm
//! producing exactly `Δ' = max_v ⌈d_v / c_v⌉` rounds (Theorem 4.1):
//!
//! 1. **Pad** the transfer graph so every node has degree exactly
//!    `c_v · Δ'`: self-loops while the deficit is ≥ 2, then pair up the
//!    (evenly many) nodes still one short with dummy edges.
//! 2. **Orient** along Euler circuits (all degrees even since `c_v` is):
//!    every node gets in-degree = out-degree = `c_v · Δ' / 2`.
//! 3. **Bipartize**: node `v` becomes `v_out`/`v_in`; an oriented edge
//!    `u → v` becomes `(u_out, v_in)`.
//! 4. **Decompose**: extract `Δ'` successive `c_v/2`-regular
//!    degree-constrained subgraphs by max-flow (the Fig. 3 network;
//!    feasibility by Lemma 4.1/4.2).
//! 5. Each extracted subgraph, minus padding, is one round: at most
//!    `c_v/2 + c_v/2 = c_v` transfers touch `v` (Lemma 4.3).

use std::time::Instant;

use dmig_flow::pool::{self, ObjectPool};
use dmig_flow::quota_round_partition;
use dmig_graph::euler::{orient_csr_parallel, OrientScratch};
use dmig_graph::{CsrAdjacency, EdgeId, Endpoints, NodeId};

use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Reusable workspace for one `solve_even` call: the padded CSR overlay,
/// the padding edge list, and the orientation scratch. Pooled process-wide
/// so steady-state solves (component workers, the simulator's replanning
/// loop) stop cloning the transfer graph and re-allocating adjacency.
#[derive(Debug, Default)]
struct EvenScratch {
    /// Padded incidence structure, overlaid via
    /// [`CsrAdjacency::rebuild_padded`] — the multigraph itself is never
    /// cloned.
    csr: CsrAdjacency,
    /// Padding edges: per-node self-loops, then deficient-pair dummies.
    pad: Vec<Endpoints>,
    /// Nodes still one unit short after self-loop padding.
    deficient: Vec<NodeId>,
    orient: OrientScratch,
    /// Oriented arcs of H, fed to the quota partitioner.
    arcs: Vec<(usize, usize)>,
}

static EVEN_SCRATCH: ObjectPool<EvenScratch> = ObjectPool::new();

/// Padded-edge floor below which orientation never recruits extra workers:
/// thread spawns cost tens of microseconds, and orienting this many edges
/// is cheaper than one spawn.
const PARALLEL_ORIENT_MIN_EDGES: usize = 1 << 12;

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

    let pad_span = dmig_obs::span("solve_even.pad");
    // Step 1: pad to degree exactly c_v·Δ' at every node that matters —
    // as an *overlay*: the padding edges are listed separately and scattered
    // on top of `g`'s incidence structure by `rebuild_padded`, so the
    // multigraph is never cloned. Nodes with zero capacity are necessarily
    // isolated (validated) and get target = degree = 0.
    scratch.pad.clear();
    scratch.deficient.clear();
    for v in g.nodes() {
        let d = g.degree(v);
        // Branchless target: idle disks (no capacity or no transfers) take
        // no part in the migration, so their target collapses to d (= 0
        // deficit) via the mask instead of a skip branch.
        let active = usize::from(d != 0) & usize::from(caps.get(v) != 0);
        let t = active * caps.get(v) as usize * delta_prime + (1 - active) * d;
        debug_assert!(d <= t, "Δ' definition guarantees d_v ≤ c_v·Δ'");
        let deficit = t - d;
        // Self-loops fix the deficit 2 at a time...
        for _ in 0..deficit / 2 {
            scratch.pad.push(Endpoints { u: v, v });
        }
        // ...leaving the odd-deficit nodes exactly 1 short.
        if deficit % 2 == 1 {
            scratch.deficient.push(v);
        }
    }
    // c_v·Δ' is even for every node (c_v even), and the total degree is
    // even, so the deficit-1 nodes pair up.
    if scratch.deficient.len() % 2 != 0 {
        return Err(SolveError::Internal(format!(
            "odd number of deficient nodes after padding: {}",
            scratch.deficient.len()
        )));
    }
    for pair in scratch.deficient.chunks(2) {
        scratch.pad.push(Endpoints {
            u: pair[0],
            v: pair[1],
        });
    }
    scratch.csr.rebuild_padded(g, &scratch.pad);
    debug_assert!(g.nodes().all(|v| {
        let active = g.degree(v) > 0 && caps.get(v) > 0;
        !active || scratch.csr.degree(v) == caps.get(v) as usize * delta_prime
    }));
    drop(pad_span);

    // Step 2–3: Euler orientation → arcs of the bipartite graph H. Big
    // components hand the labeling walk to every extra worker the shared
    // budget will grant; the chunked orientation is byte-identical to the
    // serial one at any worker count, so the permit race never shows up in
    // the schedule.
    let orient_span = dmig_obs::span("solve_even.euler_orientation");
    let padded_edges = scratch.csr.num_edges();
    let permits = if padded_edges >= PARALLEL_ORIENT_MIN_EDGES {
        pool::budget().try_acquire_many(padded_edges / PARALLEL_ORIENT_MIN_EDGES)
    } else {
        Vec::new()
    };
    let orient_started = Instant::now();
    let EvenScratch {
        csr, orient, arcs, ..
    } = &mut scratch;
    let (orientation, stats) = orient_csr_parallel(csr, 1 + permits.len(), orient)
        .map_err(|e| SolveError::Internal(format!("euler orientation failed: {e}")))?;
    drop(permits);
    dmig_obs::counter_add(dmig_obs::keys::EULER_ORIENTATIONS, 1);
    dmig_obs::counter_add(dmig_obs::keys::EULER_CHUNKS, stats.chunks);
    dmig_obs::counter_add(dmig_obs::keys::EULER_STITCHES, stats.stitches);
    dmig_obs::counter_add(
        dmig_obs::keys::EULER_PAR_MS,
        orient_started.elapsed().as_millis() as u64,
    );
    drop(orient_span);
    let n = g.num_nodes();

    // Oriented arcs of H. Arc position i is exactly padded edge id i, so no
    // separate arc → edge table is needed.
    arcs.clear();
    arcs.extend(orientation.iter().map(|(_, t, h)| (t.index(), h.index())));

    // Step 4–5: peel Δ' exact c_v/2-degree subgraphs.
    let half_quota: Vec<u32> = (0..n)
        .map(|v| {
            let v = NodeId::new(v);
            if g.degree(v) == 0 {
                0
            } else {
                caps.get(v) / 2
            }
        })
        .collect();
    let schedule = decompose(
        ["solve_even.decompose", "solve_even.assemble"],
        n,
        arcs,
        [&half_quota, &half_quota],
        delta_prime,
        g.num_edges(),
    );
    EVEN_SCRATCH.release(scratch);
    schedule
}

/// Steps 4–5, shared with [`crate::bipartite_opt`]: partitions `arcs`
/// into `rounds` groups that meet `[out_quota, in_quota]` exactly, then
/// drops the padding. Arc position `i < items` is item `i`; every later
/// arc is padding. `spans` names the two phases.
pub(crate) fn decompose(
    spans: [&'static str; 2],
    num_nodes: usize,
    arcs: &[(usize, usize)],
    [out_quota, in_quota]: [&[u32]; 2],
    rounds: usize,
    items: usize,
) -> Result<MigrationSchedule, SolveError> {
    // Divide-and-conquer decomposition: Euler splits halve the round count
    // in linear time, max flow runs only at the O(log Δ') odd levels.
    let decompose_span = dmig_obs::span(spans[0]);
    let partition = quota_round_partition(num_nodes, arcs, out_quota, in_quota, rounds)
        .map_err(|e| SolveError::Internal(format!("round decomposition infeasible: {e}")))?;
    drop(decompose_span);
    debug_assert_eq!(partition.iter().map(Vec::len).sum::<usize>(), arcs.len());
    let _assemble_span = dmig_obs::span(spans[1]);
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

    use dmig_graph::Multigraph;

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
    fn randomized_even_instances_are_optimal() {
        let mut rng = StdRng::seed_from_u64(0xEEE);
        for _ in 0..40 {
            let n = rng.gen_range(2..14);
            let mut g = Multigraph::with_nodes(n);
            for _ in 0..rng.gen_range(1..60) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u.into(), v.into());
                }
            }
            if g.num_edges() == 0 {
                continue;
            }
            let caps: Capacities = (0..n).map(|_| 2 * rng.gen_range(1..4u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            check_optimal(&p);
        }
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
}
