//! Transfer-constraint (capacity) profiles.
//!
//! Heterogeneity is the paper's whole premise: disks added over the years
//! differ in speed, and a disk serving live traffic should take fewer
//! concurrent migrations. These profiles cover the regimes the
//! experiments sweep.

use dmig_core::Capacities;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Every disk gets constraint `c`.
#[must_use]
pub fn uniform(n: usize, c: u32) -> Capacities {
    Capacities::uniform(n, c)
}

/// Random even constraints in `{2, 4, …, 2·half_max}` — the domain of the
/// optimal even-capacity algorithm (§IV). Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `half_max == 0`.
#[must_use]
pub fn random_even(n: usize, half_max: u32, seed: u64) -> Capacities {
    assert!(half_max >= 1, "half_max must be at least 1");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| 2 * rng.gen_range(1..=half_max)).collect()
}

/// Random constraints in `[lo, hi]`, any parity. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `lo == 0` or `lo > hi`.
#[must_use]
pub fn mixed_parity(n: usize, lo: u32, hi: u32, seed: u64) -> Capacities {
    assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// A tiered fleet: a fraction `fast_fraction` of disks are fast
/// (constraint `fast`), the rest slow (constraint `slow`) — modelling old
/// and new hardware generations side by side. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `fast_fraction` is outside `[0, 1]` or either constraint is 0.
#[must_use]
pub fn tiered(n: usize, fast: u32, slow: u32, fast_fraction: f64, seed: u64) -> Capacities {
    assert!(
        (0.0..=1.0).contains(&fast_fraction),
        "fast_fraction must be in [0, 1]"
    );
    assert!(fast >= 1 && slow >= 1, "constraints must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(fast_fraction) {
                fast
            } else {
                slow
            }
        })
        .collect()
}

/// Everyone gets `fast` except disk `slow_disk`, which gets `slow` — the
/// single-bottleneck profile of experiment E7 (§I: "a slow node can be a
/// bottleneck in the schedule").
///
/// # Panics
///
/// Panics if `slow_disk >= n` or either constraint is 0.
#[must_use]
pub fn one_slow(n: usize, fast: u32, slow: u32, slow_disk: usize) -> Capacities {
    assert!(slow_disk < n, "slow disk index out of range");
    assert!(fast >= 1 && slow >= 1, "constraints must be positive");
    (0..n)
        .map(|v| if v == slow_disk { slow } else { fast })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile() {
        let c = uniform(4, 3);
        assert_eq!(c.as_slice(), &[3, 3, 3, 3]);
    }

    #[test]
    fn random_even_is_even() {
        let c = random_even(50, 4, 7);
        assert!(c.all_even());
        assert!(c.as_slice().iter().all(|&x| (2..=8).contains(&x)));
        assert_eq!(c, random_even(50, 4, 7));
    }

    #[test]
    fn mixed_parity_in_range() {
        let c = mixed_parity(100, 1, 5, 3);
        assert!(c.as_slice().iter().all(|&x| (1..=5).contains(&x)));
        assert!(!c.all_even() || c.as_slice().iter().all(|&x| x % 2 == 0));
    }

    #[test]
    fn tiered_has_both_tiers() {
        let c = tiered(200, 8, 1, 0.3, 5);
        let fast = c.as_slice().iter().filter(|&&x| x == 8).count();
        assert!((30..=90).contains(&fast), "fast count {fast}");
        assert!(c.as_slice().iter().all(|&x| x == 8 || x == 1));
    }

    #[test]
    fn one_slow_profile() {
        let c = one_slow(5, 4, 1, 2);
        assert_eq!(c.as_slice(), &[4, 4, 1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_slow_bad_index() {
        let _ = one_slow(3, 2, 1, 3);
    }
}
