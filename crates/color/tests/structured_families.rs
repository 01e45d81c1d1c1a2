//! Structured-family tests for the colorers: families with known
//! chromatic indices pin exact behavior, not just bounds.

use dmig_color::{kempe::kempe_coloring, misra_gries::misra_gries_coloring, shannon_bound};
use dmig_graph::builder::complete_multigraph;
use dmig_graph::{GraphBuilder, Multigraph, NodeId};

/// `K_{a,b}` complete bipartite.
fn complete_bipartite(a: usize, b: usize) -> Multigraph {
    let mut g = Multigraph::with_nodes(a + b);
    for l in 0..a {
        for r in 0..b {
            g.add_edge(NodeId::new(l), NodeId::new(a + r));
        }
    }
    g
}

#[test]
fn complete_graphs_parity() {
    // χ'(K_n) = n−1 for even n, n for odd n. Misra–Gries promises Δ+1,
    // so it must match exactly on odd n and be within one on even n.
    for n in 3..10 {
        let g = complete_multigraph(n, 1);
        let c = misra_gries_coloring(&g);
        c.validate_proper(&g).unwrap();
        let chromatic = if n % 2 == 0 { n - 1 } else { n };
        assert!(
            (c.num_colors() as usize) >= chromatic,
            "cannot beat χ'(K{n}) = {chromatic}"
        );
        assert!((c.num_colors() as usize) <= n, "Δ+1 = {n}");
    }
}

#[test]
fn shannon_tight_family() {
    // The "fat triangle": K3 with multiplicities (m, m, m) has
    // χ' = 3m = ⌊3Δ/2⌋ with Δ = 2m — Shannon's bound is tight here.
    for m in [1usize, 2, 4, 7] {
        let g = complete_multigraph(3, m);
        let (c, _) = kempe_coloring(&g);
        c.validate_proper(&g).unwrap();
        assert_eq!(c.num_colors() as usize, 3 * m);
        assert_eq!(shannon_bound(g.max_degree()), 3 * m);
    }
}

#[test]
fn uneven_fat_triangle() {
    // Multiplicities (a, b, c) pairwise: χ' = max(Δ, a+b+c) for triangle
    // multigraphs (folklore: every pair of bundles conflicts).
    let (a, b, c) = (4usize, 2usize, 1usize);
    let g = GraphBuilder::new()
        .parallel_edges(0, 1, a)
        .parallel_edges(1, 2, b)
        .parallel_edges(0, 2, c)
        .build();
    let (coloring, _) = kempe_coloring(&g);
    coloring.validate_proper(&g).unwrap();
    let lower = (a + b + c).max(g.max_degree());
    assert!(coloring.num_colors() as usize >= lower);
    assert!(
        coloring.num_colors() as usize <= lower + 1,
        "near-exact on fat triangles"
    );
}

#[test]
fn kempe_stats_reflect_difficulty() {
    // On a bipartite-ish easy graph, escalations should be zero.
    let g = complete_bipartite(6, 6);
    let (c, stats) = kempe_coloring(&g);
    c.validate_proper(&g).unwrap();
    assert_eq!(stats.escalations, 0, "class-1 family should not escalate");
}
