//! Load-balancing reconfiguration deltas.
//!
//! A layout maps each data item to a disk. When demand shifts, a new
//! layout is computed and every item whose placement changed contributes
//! one transfer edge `(old disk, new disk)` — exactly how the paper's §I
//! describes layout reconfiguration producing a transfer graph.

use dmig_graph::Multigraph;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A reconfiguration delta: `items` data items placed uniformly at random,
/// then re-placed uniformly at random; items that moved become transfer
/// edges. Roughly a fraction `(n-1)/n` of items move. Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `n < 2` while `items > 0`.
#[must_use]
pub fn load_balance_delta(n: usize, items: usize, seed: u64) -> Multigraph {
    assert!(items == 0 || n >= 2, "need at least two disks to rebalance");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Multigraph::with_nodes(n);
    for _ in 0..items {
        let old = rng.gen_range(0..n);
        let new = rng.gen_range(0..n);
        if old != new {
            g.add_edge(old.into(), new.into());
        }
    }
    g
}

/// A hot-spot drain: a fraction of the items on one overloaded disk are
/// spread across the others — a skewed star-shaped delta.
///
/// # Panics
///
/// Panics if `n < 2` while `moved_items > 0` or `hot >= n`.
#[must_use]
pub fn hot_spot_drain(n: usize, hot: usize, moved_items: usize, seed: u64) -> Multigraph {
    assert!(moved_items == 0 || n >= 2, "need at least two disks");
    assert!(hot < n || moved_items == 0, "hot disk index out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Multigraph::with_nodes(n);
    for _ in 0..moved_items {
        let mut target = rng.gen_range(0..n - 1);
        if target >= hot {
            target += 1;
        }
        g.add_edge(hot.into(), target.into());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rebalance_moves_most_items() {
        let g = load_balance_delta(10, 1000, 5);
        // E[moved] = 900; very concentrated.
        assert!((800..=970).contains(&g.num_edges()));
        assert!(!g.has_loops());
    }

    #[test]
    fn hot_spot_is_a_star() {
        let g = hot_spot_drain(6, 2, 50, 1);
        assert_eq!(g.num_edges(), 50);
        assert_eq!(g.degree(2.into()), 50);
        for v in g.nodes() {
            if v.index() != 2 {
                assert!(g.degree(v) < 50);
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(load_balance_delta(8, 100, 3), load_balance_delta(8, 100, 3));
        assert_eq!(hot_spot_drain(8, 0, 30, 3), hot_spot_drain(8, 0, 30, 3));
    }
}
