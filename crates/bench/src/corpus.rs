//! Named instance families shared by harnesses and benches.

use dmig_core::{Capacities, MigrationProblem};
use dmig_workloads::{capacities, disk_ops, random, reconfigure};

/// A labeled instance for experiment tables.
#[derive(Clone, Debug)]
pub struct Case {
    /// Human-readable label (appears in tables).
    pub label: String,
    /// The instance.
    pub problem: MigrationProblem,
}

impl Case {
    fn new(label: impl Into<String>, problem: MigrationProblem) -> Self {
        Case {
            label: label.into(),
            problem,
        }
    }
}

/// The paper's Fig. 2 instance: `K3` with `m` parallel items, uniform
/// capacity `c`.
///
/// # Panics
///
/// Panics only on invalid capacities (not for any `m ≥ 0`, `c ≥ 1`).
#[must_use]
pub fn fig2(m: usize, c: u32) -> MigrationProblem {
    MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(3, m), c)
        .expect("K3 with uniform positive capacity is always valid")
}

/// Random instance with uniform edges and a capacity profile chosen by
/// `profile` ∈ {"even", "mixed", "ones", "tiered"}.
///
/// # Panics
///
/// Panics on an unknown profile name.
#[must_use]
pub fn random_case(n: usize, m: usize, profile: &str, seed: u64) -> Case {
    let g = random::uniform_multigraph(n, m, seed);
    let caps: Capacities = match profile {
        "even" => capacities::random_even(n, 3, seed ^ 1),
        "mixed" => capacities::mixed_parity(n, 1, 5, seed ^ 1),
        "ones" => capacities::uniform(n, 1),
        "tiered" => capacities::tiered(n, 6, 1, 0.25, seed ^ 1),
        other => panic!("unknown capacity profile `{other}`"),
    };
    Case::new(
        format!("uniform n={n} m={m} caps={profile}"),
        MigrationProblem::new(g, caps).expect("generated instances are valid"),
    )
}

/// A migration instance with exactly `components` connected components:
/// each block of `nodes_per` disks carries a spanning path (keeping the
/// block connected) plus `extra_edges_per` random internal items. All
/// capacities are even, so the §IV optimal solver applies and the instance
/// exercises the component-parallel split end to end.
///
/// # Panics
///
/// Panics if `components == 0` or `nodes_per < 2`.
#[must_use]
pub fn multi_component_even(
    components: usize,
    nodes_per: usize,
    extra_edges_per: usize,
    seed: u64,
) -> MigrationProblem {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    assert!(components > 0 && nodes_per >= 2, "need non-trivial blocks");
    let n = components * nodes_per;
    let mut g =
        dmig_graph::Multigraph::with_capacity(n, components * (nodes_per - 1 + extra_edges_per));
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..components {
        let base = c * nodes_per;
        for i in 0..nodes_per - 1 {
            g.add_edge((base + i).into(), (base + i + 1).into());
        }
        for _ in 0..extra_edges_per {
            let u = rng.gen_range(0..nodes_per);
            let mut v = rng.gen_range(0..nodes_per);
            while v == u {
                v = rng.gen_range(0..nodes_per);
            }
            g.add_edge((base + u).into(), (base + v).into());
        }
    }
    let caps = capacities::random_even(n, 3, seed ^ 1);
    MigrationProblem::new(g, caps).expect("generated instance is valid")
}

/// A **single giant component** with odd `Δ'` — the shape real transfer
/// graphs take, where component-parallel splitting is useless and only
/// intra-component (recursion-level) parallelism can help. The odd `Δ'`
/// guarantees the quota recursion runs at least one flow solve, so the
/// greedy warm start is exercised (`warm_start_hits` must move).
///
/// Deterministic in `seed`: the seed is bumped until the generated
/// instance has odd `Δ'` (bounded search; parity is near-uniform over
/// seeds).
///
/// # Panics
///
/// Panics if `nodes < 2` or no odd-`Δ'` instance appears within the seed
/// search budget (practically impossible).
#[must_use]
pub fn giant_component_odd_delta(nodes: usize, extra_edges: usize, seed: u64) -> MigrationProblem {
    (0..64)
        .map(|bump| multi_component_even(1, nodes, extra_edges, seed.wrapping_add(bump)))
        .find(|p| p.delta_prime() % 2 == 1)
        .expect("an odd-Δ' instance appears within 64 seeds")
}

/// A connected multigraph with **every degree even**: one Hamiltonian base
/// cycle plus `edges - nodes` further edges laid down as closed random
/// walks. Even degrees mean [`dmig_graph::euler::euler_orientation`]
/// accepts it directly — this is the raw substrate of the orientation
/// benchmarks, padding-free by construction.
///
/// Deterministic in `seed`; exactly `edges` edges.
///
/// # Panics
///
/// Panics if `nodes < 3` or `edges < nodes`.
#[must_use]
pub fn giant_even_multigraph(nodes: usize, edges: usize, seed: u64) -> dmig_graph::Multigraph {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    assert!(
        nodes >= 3 && edges >= nodes,
        "need a base cycle to build on"
    );
    let mut g = dmig_graph::Multigraph::with_capacity(nodes, edges);
    for i in 0..nodes {
        g.add_edge(i.into(), ((i + 1) % nodes).into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = edges - nodes;
    while remaining > 0 {
        if remaining == 1 {
            // A self-loop adds 2 to one degree: the only parity-preserving
            // single edge.
            let v = rng.gen_range(0..nodes);
            g.add_edge(v.into(), v.into());
            break;
        }
        // A closed walk of length ≥ 2 adds 2 to every interior visit and
        // closes back on its anchor: parity stays even everywhere.
        let len = rng.gen_range(2..=remaining.min(8));
        let anchor = rng.gen_range(0..nodes);
        let mut at = anchor;
        for step in 0..len {
            let next = if step + 1 == len {
                anchor
            } else {
                rng.gen_range(0..nodes)
            };
            g.add_edge(at.into(), next.into());
            at = next;
        }
        remaining -= len;
    }
    debug_assert_eq!(g.num_edges(), edges);
    g
}

/// The orientation-benchmark instance: a single ~1e6-edge giant component
/// with even degrees and heterogeneous even capacities, built on
/// [`giant_even_multigraph`], whose 1e6-edge graph `perf_report`'s
/// `euler_parallel` section orients.
///
/// # Panics
///
/// Panics only on generator invariant violations (a bug).
#[must_use]
pub fn giant_component_1e6(seed: u64) -> MigrationProblem {
    let nodes = 50_000;
    let g = giant_even_multigraph(nodes, 1_000_000, seed);
    let caps = capacities::random_even(nodes, 3, seed ^ 1);
    MigrationProblem::new(g, caps).expect("generated instance is valid")
}

/// A clustered giant component with heterogeneous even capacities: the
/// rack-locality shape the shard partitioner targets (dense blocks on a
/// sparse ring — see [`random::clustered_multigraph`]). Cutting it at
/// block boundaries severs only the ring links, so the cut fraction
/// stays in the low percent range.
///
/// # Panics
///
/// Panics on invalid generator parameters (see
/// [`random::clustered_multigraph`]).
#[must_use]
pub fn clustered_giant(nodes: usize, edges: usize, clusters: usize, seed: u64) -> MigrationProblem {
    let g = random::clustered_multigraph(nodes, edges, clusters, 8, seed);
    let caps = capacities::random_even(nodes, 3, seed ^ 1);
    MigrationProblem::new(g, caps).expect("generated instance is valid")
}

/// The shard-bench target: a single connected ~1e7-edge clustered giant
/// (250k disks, 64 clusters) — ~38 cells at the default cell budget, far
/// too heavy for one worker shard. The generator streams edges directly
/// into the multigraph arena, so no intermediate `Vec` of endpoint pairs
/// is ever materialized.
///
/// # Panics
///
/// Panics only on generator invariant violations (a bug).
#[must_use]
pub fn giant_component_1e7(seed: u64) -> MigrationProblem {
    clustered_giant(250_000, 10_000_000, 64, seed)
}

/// The standard head-to-head suite used by E5: one case per (workload,
/// capacity-profile) combination, deterministic in `seed`.
#[must_use]
pub fn faceoff_suite(seed: u64) -> Vec<Case> {
    let mut cases = vec![
        Case::new("fig2 K3 m=16 c=2", fig2(16, 2)),
        random_case(24, 240, "even", seed),
        random_case(24, 240, "mixed", seed + 1),
        random_case(24, 240, "tiered", seed + 2),
    ];
    cases.push(Case::new(
        "power-law n=32 m=320 mixed",
        MigrationProblem::new(
            random::power_law_multigraph(32, 320, 1.2, seed + 3),
            capacities::mixed_parity(32, 1, 5, seed + 3),
        )
        .expect("valid"),
    ));
    cases.push(Case::new(
        "rebalance n=32 items=400 mixed",
        MigrationProblem::new(
            reconfigure::load_balance_delta(32, 400, seed + 4),
            capacities::mixed_parity(32, 1, 5, seed + 4),
        )
        .expect("valid"),
    ));
    cases.push(Case::new(
        "disk-add 24+4 items=300 mixed",
        MigrationProblem::new(
            disk_ops::disk_addition(24, 4, 300, seed + 5),
            capacities::mixed_parity(28, 1, 5, seed + 5),
        )
        .expect("valid"),
    ));
    cases.push(Case::new(
        "disk-drain n=28 gone=3 items=300 mixed",
        MigrationProblem::new(
            disk_ops::disk_removal(28, 3, 300, seed + 6),
            capacities::mixed_parity(28, 1, 5, seed + 6),
        )
        .expect("valid"),
    ));
    cases.push(Case::new(
        "hot-spot n=16 items=200 one-slow",
        MigrationProblem::new(
            reconfigure::hot_spot_drain(16, 0, 200, seed + 7),
            capacities::one_slow(16, 4, 1, 1),
        )
        .expect("valid"),
    ));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape() {
        let p = fig2(3, 2);
        assert_eq!(p.num_items(), 9);
        assert_eq!(p.delta_prime(), 3);
    }

    #[test]
    fn profiles_resolve() {
        for profile in ["even", "mixed", "ones", "tiered"] {
            let c = random_case(10, 40, profile, 1);
            assert_eq!(c.problem.num_items(), 40);
            assert!(c.label.contains(profile));
        }
    }

    #[test]
    #[should_panic(expected = "unknown capacity profile")]
    fn unknown_profile_panics() {
        let _ = random_case(4, 4, "warp", 0);
    }

    #[test]
    fn multi_component_shape() {
        let p = multi_component_even(8, 50, 100, 3);
        assert_eq!(p.num_disks(), 400);
        assert!(p.capacities().all_even());
        let comps = dmig_graph::components::connected_components(p.graph());
        assert_eq!(comps.count(), 8);
        assert_eq!(
            p,
            multi_component_even(8, 50, 100, 3),
            "deterministic in seed"
        );
    }

    #[test]
    fn giant_component_is_connected_with_odd_delta() {
        let p = giant_component_odd_delta(100, 200, 0xA1);
        assert_eq!(p.num_disks(), 100);
        assert_eq!(p.delta_prime() % 2, 1);
        assert!(p.capacities().all_even());
        let comps = dmig_graph::components::connected_components(p.graph());
        assert_eq!(comps.count(), 1);
        assert_eq!(
            p,
            giant_component_odd_delta(100, 200, 0xA1),
            "deterministic in seed"
        );
    }

    #[test]
    fn giant_even_multigraph_has_even_degrees_and_exact_size() {
        for (nodes, edges, seed) in [(40, 40, 1u64), (50, 301, 2), (100, 997, 3)] {
            let g = giant_even_multigraph(nodes, edges, seed);
            assert_eq!(g.num_edges(), edges);
            assert!(g.nodes().all(|v| g.degree(v) % 2 == 0), "all degrees even");
            let comps = dmig_graph::components::connected_components(&g);
            assert_eq!(comps.count(), 1, "base cycle keeps it connected");
            assert!(dmig_graph::euler::euler_orientation(&g).is_ok());
            assert_eq!(
                g,
                giant_even_multigraph(nodes, edges, seed),
                "deterministic"
            );
        }
    }

    #[test]
    #[ignore = "1e6 edges: seconds in debug builds; run with --ignored"]
    fn giant_component_1e6_is_valid() {
        let p = giant_component_1e6(0xE6);
        assert_eq!(p.num_disks(), 50_000);
        assert_eq!(p.num_items(), 1_000_000);
        assert!(p.capacities().all_even());
        let comps = dmig_graph::components::connected_components(p.graph());
        assert_eq!(comps.count(), 1);
    }

    #[test]
    fn clustered_giant_is_connected_even_and_deterministic() {
        let p = clustered_giant(400, 4_000, 8, 0xC1);
        assert_eq!(p.num_disks(), 400);
        assert_eq!(p.num_items(), 4_000);
        assert!(p.capacities().all_even());
        let comps = dmig_graph::components::connected_components(p.graph());
        assert_eq!(comps.count(), 1);
        assert_eq!(p, clustered_giant(400, 4_000, 8, 0xC1), "deterministic");
        // Forcing a tiny cell budget keeps the cut in the ring links:
        // block interiors are dense, so the cut fraction stays small.
        let cut = dmig_graph::partition::partition_cells(p.graph(), 600);
        assert!(cut.cells.len() > 1);
        assert!(
            cut.cut_fraction() < 0.15,
            "clustered shape must cut sparsely, got {}",
            cut.cut_fraction()
        );
    }

    #[test]
    #[ignore = "1e7 edges: tens of seconds in debug builds; run with --ignored"]
    fn giant_component_1e7_is_valid() {
        let p = giant_component_1e7(0xE7);
        assert_eq!(p.num_disks(), 250_000);
        assert_eq!(p.num_items(), 10_000_000);
        assert!(p.capacities().all_even());
        let comps = dmig_graph::components::connected_components(p.graph());
        assert_eq!(comps.count(), 1);
        let cut = dmig_graph::partition::partition_cells(
            p.graph(),
            dmig_graph::partition::DEFAULT_MAX_CELL_EDGES,
        );
        assert!(cut.cells.len() >= 32, "1e7 edges split into many cells");
        assert!(cut.cut_fraction() <= 0.15, "got {}", cut.cut_fraction());
    }

    #[test]
    fn faceoff_suite_is_deterministic_and_valid() {
        let a = faceoff_suite(7);
        let b = faceoff_suite(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.problem, y.problem);
            assert!(x.problem.num_items() > 0);
        }
    }
}
