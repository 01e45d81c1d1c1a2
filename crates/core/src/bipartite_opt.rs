//! Exact optimum for bipartite transfer graphs.
//!
//! Reconfiguration workloads — moving items from an old layout to a new
//! one, rebuilding onto freshly added disks, draining disks before removal
//! — produce bipartite transfer graphs. There the problem is solvable
//! exactly for *any* capacities. The even solver (§IV) needs even `c_v`
//! only to orient edges along Euler circuits; a bipartite graph is already
//! oriented by its sides. With every edge run left → right and the graph
//! padded, a left disk `u` sends exactly `c_u` arcs and a right disk `v`
//! receives exactly `c_v` per round, and the even solver's quota partition
//! yields exactly `Δ' = LB1` rounds — no 1.5 loss, no parity condition.
//! Dropping the padding leaves at most `c_v` transfers per disk. This is the
//! f-coloring setting of Kari's technical report; Coffman et al. \[8\]
//! singled out the bipartite case as optimally solvable.
//!
//! 1. **Group and pad.** A disk with `d_v > Δ'` becomes a node of quota
//!    `⌈d_v/Δ'⌉ ≤ c_v`; each side's disks with `d_v ≤ Δ'` are packed
//!    next-fit into quota-1 nodes of total degree at most `Δ'` (stricter
//!    than `c_v`, and still done in `Δ'` rounds). Left → right dummy arcs
//!    pad every node to `quota · Δ'`; one dummy node on the side with less
//!    total quota absorbs the difference `Δ' · |Q_L − Q_R|` at a whole
//!    quota of `|Q_L − Q_R|` per round. Two consecutive next-fit nodes
//!    exceed `Δ'` together, so the padding is below `m + Δ'` arcs.
//! 2. **Decompose** into `Δ'` quota-exact rounds
//!    ([`dmig_flow::quota_round_partition`]: Euler splits at even levels,
//!    one max-flow peel at odd ones) and drop the padding. Item arcs keep
//!    their positions, so each round maps straight back to its items.

use dmig_graph::bipartite::bipartition;

use crate::even::decompose;
use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Computes an optimal schedule (exactly `Δ'` rounds) for a bipartite
/// transfer graph with arbitrary capacities.
///
/// # Errors
///
/// Returns [`SolveError::NotBipartite`] when the transfer graph is not
/// bipartite, or [`SolveError::Internal`] if an internal invariant is
/// violated (a bug).
///
/// # Example
///
/// ```
/// use dmig_core::{bipartite_opt::solve_bipartite, MigrationProblem};
/// use dmig_graph::GraphBuilder;
///
/// // Drain disks {0,1} onto disks {2,3}.
/// let g = GraphBuilder::new()
///     .parallel_edges(0, 2, 3)
///     .parallel_edges(0, 3, 2)
///     .parallel_edges(1, 3, 3)
///     .build();
/// let p = MigrationProblem::uniform(g, 3)?;
/// let s = solve_bipartite(&p)?;
/// s.validate(&p)?;
/// assert_eq!(s.makespan(), p.delta_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_bipartite(problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
    let g = problem.graph();
    let sides = bipartition(g).map_err(|_| SolveError::NotBipartite)?;
    let delta_prime = problem.delta_prime();
    if delta_prime == 0 {
        return Ok(MigrationSchedule::default());
    }
    let _span = dmig_obs::span_labeled("solve_bipartite", || {
        format!(
            "n={} m={} delta_prime={delta_prime}",
            g.num_nodes(),
            g.num_edges()
        )
    });

    let pad_span = dmig_obs::span("solve_bipartite.pad");
    // Disk v's arcs run through partition node `node[v]`; nodes are
    // numbered as they open, and the dummy takes the next number, `nodes`.
    // `open[side]` is the side's open next-fit node (`n`: none yet). Arc
    // position i < m is item i.
    let n = g.num_nodes();
    let (mut node, mut load, mut open) = (vec![n; n], vec![0usize; n + 1], [n, n]);
    // Index 0 is the left side (out-quotas), 1 the right (in-quotas).
    let mut quota = [vec![0u32; n + 1], vec![0u32; n + 1]];
    let (mut side_quota, mut nodes) = ([0u64; 2], 0);
    for v in g.nodes().filter(|&v| g.degree(v) > 0) {
        let (d, side) = (g.degree(v), usize::from(!sides.is_left(v)));
        let fits = d <= delta_prime && open[side] < n && load[open[side]] + d <= delta_prime;
        let x = if fits { open[side] } else { nodes };
        if !fits {
            nodes += 1;
            if d <= delta_prime {
                open[side] = x;
            }
            quota[side][x] = u32::try_from(d.div_ceil(delta_prime)).expect("⌈d_v/Δ'⌉ ≤ c_v");
            side_quota[side] += u64::from(quota[side][x]);
        }
        node[v.index()] = x;
        load[x] += d;
    }
    let mut arcs: Vec<(usize, usize)> = g
        .edges()
        .map(|(_, ep)| {
            let (l, r) = if sides.is_left(ep.u) {
                (ep.u, ep.v)
            } else {
                (ep.v, ep.u)
            };
            (node[l.index()], node[r.index()])
        })
        .collect();
    let short = usize::from(side_quota[1] < side_quota[0]);
    let surplus = side_quota[1 - short] - side_quota[short];
    quota[short][nodes] = u32::try_from(surplus)
        .map_err(|_| SolveError::Internal(format!("quota surplus {surplus} overflows")))?;
    let mut deficit = [0, 1].map(|side| {
        (0..=nodes)
            .map(|x| (quota[side][x] as usize * delta_prime).saturating_sub(load[x]))
            .collect::<Vec<usize>>()
    });
    // Both sides' deficits now sum to the same: pair them up.
    let (mut l, mut r) = (0, 0);
    loop {
        while l <= nodes && deficit[0][l] == 0 {
            l += 1;
        }
        while r <= nodes && deficit[1][r] == 0 {
            r += 1;
        }
        if l > nodes || r > nodes {
            break;
        }
        let k = deficit[0][l].min(deficit[1][r]);
        arcs.resize(arcs.len() + k, (l, r));
        deficit[0][l] -= k;
        deficit[1][r] -= k;
    }
    debug_assert!(
        deficit.iter().flatten().all(|&d| d == 0),
        "unpaired padding"
    );
    drop(pad_span);

    decompose(
        ["solve_bipartite.decompose", "solve_bipartite.assemble"],
        nodes + 1,
        &arcs,
        [&quota[0], &quota[1]],
        delta_prime,
        g.num_edges(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capacities;
    use dmig_graph::builder::cycle_multigraph;
    use dmig_graph::{GraphBuilder, Multigraph};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_optimal(p: &MigrationProblem) {
        let s = solve_bipartite(p).unwrap();
        s.validate(p).unwrap();
        assert_eq!(
            s.makespan(),
            p.delta_prime(),
            "the quota partition must hit Δ' on {p}"
        );
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(Multigraph::with_nodes(3), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap().makespan(), 0);
    }

    #[test]
    fn non_bipartite_rejected() {
        let p =
            MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(3, 1), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap_err(), SolveError::NotBipartite);
    }

    #[test]
    fn odd_capacities_still_optimal() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 2, 5)
            .parallel_edges(1, 2, 3)
            .parallel_edges(0, 3, 2)
            .build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![3, 1, 5, 2])).unwrap();
        check_optimal(&p);
    }

    #[test]
    fn even_cycles() {
        for n in [4usize, 6, 10] {
            let p = MigrationProblem::uniform(cycle_multigraph(n, 3), 2).unwrap();
            check_optimal(&p);
        }
    }

    #[test]
    fn randomized_bipartite_instances() {
        let mut rng = StdRng::seed_from_u64(0xB1);
        for _ in 0..30 {
            let nl = rng.gen_range(1..7);
            let nr = rng.gen_range(1..7);
            let mut g = Multigraph::with_nodes(nl + nr);
            for _ in 0..rng.gen_range(1..40) {
                let l = rng.gen_range(0..nl);
                let r = nl + rng.gen_range(0..nr);
                g.add_edge(l.into(), r.into());
            }
            if g.num_edges() == 0 {
                continue;
            }
            let caps: Capacities = (0..nl + nr).map(|_| rng.gen_range(1..6u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            check_optimal(&p);
        }
    }
}
