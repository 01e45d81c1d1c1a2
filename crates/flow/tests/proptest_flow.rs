//! Property-based tests for the flow substrate: max-flow/min-cut duality,
//! the quota round partition, and densest-subgraph exactness.

mod push_relabel;

use dmig_flow::{max_density_subgraph, quota_round_partition, FlowNetwork};
use dmig_graph::{Multigraph, NodeId};
use proptest::prelude::*;
use push_relabel::PushRelabelNetwork;

/// A random small flow network plus source/sink.
fn arb_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2usize..8).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0i64..12), 0..24);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Max-flow equals the capacity of the residual-reachability cut
    /// (weak duality made exact by the algorithm).
    #[test]
    fn max_flow_min_cut_duality((n, edges) in arb_network()) {
        let mut net = FlowNetwork::new(n);
        let mut kept = Vec::new();
        for &(u, v, c) in &edges {
            if u != v {
                net.add_edge(u, v, c);
                kept.push((u, v, c));
            }
        }
        let s = 0;
        let t = n - 1;
        let value = net.max_flow(s, t);
        let side = net.min_cut_source_side(s);
        prop_assert!(side[s]);
        prop_assert!(value == 0 || !side[t]);
        let cut: i64 = kept
            .iter()
            .filter(|&&(u, v, _)| side[u] && !side[v])
            .map(|&(_, _, c)| c)
            .sum();
        prop_assert_eq!(value, cut, "flow value must equal the residual cut");
    }

    /// Flow conservation and capacity constraints hold edge by edge.
    #[test]
    fn conservation_and_capacity((n, edges) in arb_network()) {
        let mut net = FlowNetwork::new(n);
        let mut handles = Vec::new();
        for &(u, v, c) in &edges {
            if u != v {
                handles.push((net.add_edge(u, v, c), u, v, c));
            }
        }
        let s = 0;
        let t = n - 1;
        let value = net.max_flow(s, t);
        let mut net_out = vec![0i64; n];
        let mut net_in = vec![0i64; n];
        for (h, u, v, c) in handles {
            let f = net.flow(h);
            prop_assert!((0..=c).contains(&f));
            net_out[u] += f;
            net_in[v] += f;
        }
        for v in 0..n {
            if v != s && v != t {
                prop_assert_eq!(net_in[v], net_out[v], "conservation at {}", v);
            }
        }
        prop_assert_eq!(net_out[s] - net_in[s], value);
    }

    /// Dinic agrees with the push-relabel oracle on every network.
    #[test]
    fn dinic_and_push_relabel_agree((n, edges) in arb_network()) {
        let mut dinic = FlowNetwork::new(n);
        let mut pr = PushRelabelNetwork::new(n);
        for &(u, v, c) in &edges {
            if u != v {
                dinic.add_edge(u, v, c);
                pr.add_edge(u, v, c);
            }
        }
        prop_assert_eq!(dinic.max_flow(0, n - 1), pr.max_flow(0, n - 1));
    }

    /// A reused network — saturated, then `clear()` + re-add of a
    /// different topology — answers max-flow exactly like a freshly built
    /// network, cross-checked against push-relabel.
    #[test]
    fn rebuild_matches_fresh_networks(
        (n1, edges1) in arb_network(),
        (n2, edges2) in arb_network(),
    ) {
        let mut reused = FlowNetwork::new(n1);
        for &(u, v, c) in &edges1 {
            if u != v {
                reused.add_edge(u, v, c);
            }
        }
        reused.max_flow(0, n1 - 1);

        // Rebuild in place with an unrelated topology; the answer must
        // match both a fresh Dinic network and the push-relabel engine.
        reused.clear(n2);
        let mut fresh = FlowNetwork::new(n2);
        let mut pr = PushRelabelNetwork::new(n2);
        let mut handles = Vec::new();
        for &(u, v, c) in &edges2 {
            if u != v {
                handles.push((reused.add_edge(u, v, c), fresh.add_edge(u, v, c)));
                pr.add_edge(u, v, c);
            }
        }
        let reused_value = reused.max_flow(0, n2 - 1);
        prop_assert_eq!(reused_value, fresh.max_flow(0, n2 - 1));
        prop_assert_eq!(reused_value, pr.max_flow(0, n2 - 1));
        // Not just the value: identical per-edge flows (both engines are
        // deterministic and the reused CSR must not reorder arcs).
        for (hr, hf) in handles {
            prop_assert_eq!(reused.flow(hr), fresh.flow(hf));
        }
    }

    /// An odd round count makes the quota partition peel by flow: arcs
    /// pairing every node's `quota · rounds` out-slots with a shuffled
    /// list of the in-slots always split into `rounds` quota-exact rounds
    /// (Lemma 4.1), whatever the quotas.
    #[test]
    fn quota_partition_peels_odd_round_counts(
        quota in proptest::collection::vec(1u32..4, 2..8),
        rounds in (1usize..5).prop_map(|k| 2 * k + 1),
        seed in 0u64..u64::MAX,
    ) {
        let n = quota.len();
        let slots: Vec<usize> = (0..n)
            .flat_map(|v| std::iter::repeat(v).take(quota[v] as usize * rounds))
            .collect();
        let mut heads = slots.clone();
        let mut state = seed;
        for i in (1..heads.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            heads.swap(i, (state >> 33) as usize % (i + 1));
        }
        let arcs: Vec<(usize, usize)> = slots.into_iter().zip(heads).collect();
        let partition = quota_round_partition(n, &arcs, &quota, &quota, rounds)
            .expect("regular quotas are feasible");
        prop_assert_eq!(partition.len(), rounds);
        let mut seen = vec![false; arcs.len()];
        for round in &partition {
            let mut outd = vec![0u32; n];
            let mut ind = vec![0u32; n];
            for &pos in round {
                prop_assert!(!seen[pos], "arc {} in two rounds", pos);
                seen[pos] = true;
                outd[arcs[pos].0] += 1;
                ind[arcs[pos].1] += 1;
            }
            prop_assert_eq!(&outd, &quota);
            prop_assert_eq!(&ind, &quota);
        }
        prop_assert!(seen.into_iter().all(|s| s), "every arc lands in a round");
    }

    /// The densest-subgraph result dominates the density of (a) the whole
    /// edge-bearing node set and (b) every single-edge pair.
    #[test]
    fn densest_dominates_simple_candidates(
        n in 2usize..9,
        edges in proptest::collection::vec((0usize..9, 0usize..9), 1..20),
        weights in proptest::collection::vec(1u64..5, 9),
    ) {
        let mut g = Multigraph::with_nodes(n);
        for (u, v) in edges {
            let (u, v) = (u % n, v % n);
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        if g.num_edges() == 0 {
            return Ok(());
        }
        let w = &weights[..n];
        let best = max_density_subgraph(&g, w).expect("has edges");
        let best_num = best.num_edges as u128;
        let best_den = best.weight as u128;

        // Whole graph candidate.
        let total_edges = g.num_edges() as u128;
        let total_weight: u128 = g
            .nodes()
            .filter(|&v| g.degree(v) > 0)
            .map(|v| w[v.index()] as u128)
            .sum();
        prop_assert!(best_num * total_weight >= total_edges * best_den);

        // Every pair {u, v} with multiplicity m.
        for (_, ep) in g.edges() {
            let m = g.multiplicity(ep.u, ep.v) as u128;
            let pw = (w[ep.u.index()] + w[ep.v.index()]) as u128;
            prop_assert!(best_num * pw >= m * best_den);
        }
    }
}
