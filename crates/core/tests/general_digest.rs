//! Pins the general solver's output byte for byte.
//!
//! A seeded sweep of random instances is solved under every
//! [`GeneralConfig`] combination the solver distinguishes (residue
//! strategy × edge order × shift depth 0 or 4), and every schedule and
//! [`GeneralStats`] is folded into one FNV-1a digest. A change to the
//! solver's internals that alters any round, any edge order within a
//! round, or any counter changes the digest. The sweep is shaped so that
//! walks, shifts, escalations and the split-color residue all occur; the
//! tests assert that too, so the digest cannot silently stop covering them.
//!
//! The instances come from the SplitMix64 stream of `digest/mod.rs`, so
//! the digest depends on nothing but these files and the solver.

use dmig_core::general::{solve_general_with, EdgeOrder, GeneralConfig, ResidueStrategy};
use dmig_core::{Capacities, MigrationProblem};
use dmig_graph::Multigraph;

mod digest;
use digest::{Fnv, SplitMix};

/// A random multigraph instance: `n` disks, capacities in `1..=max_cap`,
/// and `m` items between distinct disks. Half the instances draw their
/// items from a small dense core, which is where escalations, walks and
/// shifts happen.
fn instance(rng: &mut SplitMix, max_n: usize, max_m: usize) -> MigrationProblem {
    let n = rng.range(2, max_n + 1);
    let m = rng.range(1, max_m + 1);
    let core = if rng.next() % 2 == 0 {
        n
    } else {
        n.min(3 + rng.range(0, 3))
    };
    let max_cap = 1 + rng.range(0, 4);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.range(0, core);
        let v = rng.range(0, core);
        if u != v {
            edges.push((u, v));
        }
    }
    let g = Multigraph::from_edges(n, &edges).unwrap();
    let caps: Capacities = (0..n).map(|_| 1 + rng.range(0, max_cap) as u32).collect();
    MigrationProblem::new(g, caps).unwrap()
}

fn configs() -> Vec<GeneralConfig> {
    let mut out = Vec::new();
    for residue_strategy in [ResidueStrategy::Escalate, ResidueStrategy::SplitColor] {
        for edge_order in [EdgeOrder::Input, EdgeOrder::HeavyFirst] {
            for shift_depth in [0, 4] {
                out.push(GeneralConfig {
                    residue_strategy,
                    edge_order,
                    shift_depth,
                    ..GeneralConfig::default()
                });
            }
        }
    }
    out
}

/// Solves `cases` instances under every configuration and returns the
/// digest plus the summed walk flips, shifts, escalations and
/// residue-colored items.
fn sweep(seed: u64, cases: usize, max_n: usize, max_m: usize) -> (u64, [usize; 4]) {
    let mut rng = SplitMix(seed);
    let mut digest = Fnv::new();
    let mut moves = [0usize; 4];
    let configs = configs();
    for _ in 0..cases {
        let p = instance(&mut rng, max_n, max_m);
        for config in &configs {
            let r = solve_general_with(&p, config);
            r.schedule.validate(&p).unwrap();
            digest.word(r.schedule.makespan() as u64);
            for round in r.schedule.rounds() {
                digest.word(round.len() as u64);
                for e in round {
                    digest.word(e.index() as u64);
                }
            }
            let s = r.stats;
            for x in [
                s.initial_colors,
                s.final_colors,
                s.direct,
                s.walk_flips,
                s.shifts,
                s.escalations,
                s.residue_colored,
            ] {
                digest.word(x as u64);
            }
            moves[0] += s.walk_flips;
            moves[1] += s.shifts;
            moves[2] += s.escalations;
            moves[3] += s.residue_colored;
        }
    }
    (digest.0, moves)
}

fn check(seed: u64, cases: usize, max_n: usize, max_m: usize, expected: u64) {
    let (digest, [walks, shifts, escalations, residue]) = sweep(seed, cases, max_n, max_m);
    assert!(walks > 0, "the sweep must exercise alternating walks");
    assert!(shifts > 0, "the sweep must exercise shift moves");
    assert!(escalations > 0, "the sweep must exercise escalations");
    assert!(
        residue > 0,
        "the sweep must exercise the split-color residue"
    );
    assert_eq!(
        digest, expected,
        "general solver output changed: digest {digest:#018x} \
         (walks {walks}, shifts {shifts}, escalations {escalations}, residue {residue})"
    );
}

#[test]
fn general_solver_output_is_pinned() {
    check(9, 300, 8, 16, 0x916c_86f4_6421_b424);
}

/// The same property over larger instances; about a minute in release:
/// `cargo test --release -p dmig-core -- --ignored`.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn general_solver_output_is_pinned_at_scale() {
    check(0x5EED_0B16, 4000, 16, 40, 0xf7cc_21df_2eaf_ddb7);
}
