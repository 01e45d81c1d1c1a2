//! Property-based tests for the edge-coloring substrate.

use dmig_color::{kempe::kempe_coloring, misra_gries::misra_gries_coloring, shannon_bound};
use dmig_graph::{Multigraph, NodeId};
use proptest::prelude::*;

fn arb_multigraph() -> impl Strategy<Value = Multigraph> {
    (2usize..10).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n - 1), 0..40).prop_map(move |edges| {
            let mut g = Multigraph::with_nodes(n);
            for (u, v) in edges {
                let v = if v >= u { v + 1 } else { v };
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
            g
        })
    })
}

fn arb_simple_graph() -> impl Strategy<Value = Multigraph> {
    (
        2usize..12,
        proptest::collection::vec(proptest::bool::ANY, 66),
    )
        .prop_map(|(n, bits)| {
            let mut g = Multigraph::with_nodes(n);
            let mut idx = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if bits[idx % bits.len()] {
                        g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                    idx += 1;
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kempe is proper and within Shannon's bound.
    #[test]
    fn kempe_proper_within_shannon(g in arb_multigraph()) {
        let (c, stats) = kempe_coloring(&g);
        prop_assert!(c.validate_proper(&g).is_ok());
        prop_assert!((c.num_colors() as usize) <= shannon_bound(g.max_degree()).max(1));
        prop_assert_eq!(stats.direct + stats.flips + stats.escalations, g.num_edges());
    }

    /// Misra–Gries is proper and within Vizing's Δ+1 on simple graphs.
    #[test]
    fn misra_gries_within_vizing(g in arb_simple_graph()) {
        let c = misra_gries_coloring(&g);
        prop_assert!(c.validate_proper(&g).is_ok());
        if g.num_edges() > 0 {
            prop_assert!((c.num_colors() as usize) <= g.max_degree() + 1);
        }
    }

    /// Color classes are matchings: each class touches a node at most once.
    #[test]
    fn classes_are_matchings(g in arb_multigraph()) {
        let (c, _) = kempe_coloring(&g);
        for class in c.classes() {
            let mut touched = vec![false; g.num_nodes()];
            for e in class {
                let ep = g.endpoints(e);
                prop_assert!(!touched[ep.u.index()] && !touched[ep.v.index()]);
                touched[ep.u.index()] = true;
                touched[ep.v.index()] = true;
            }
        }
    }

    /// `compact` preserves validity and never increases the color count.
    #[test]
    fn compact_preserves_validity(g in arb_multigraph()) {
        let (mut c, _) = kempe_coloring(&g);
        let before = c.num_colors();
        let after = c.compact();
        prop_assert!(after <= before);
        prop_assert!(c.validate_proper(&g).is_ok());
    }
}
