//! Closed-form scenario tests for the round model and the executor.

use dmig_core::solver::{AutoSolver, EvenOptimalSolver, GreedySolver, HomogeneousSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule};
use dmig_graph::builder::{complete_multigraph, star_multigraph};
use dmig_graph::{GraphBuilder, Multigraph};
use dmig_sim::faults::DegradeFault;
use dmig_sim::{engine::simulate_rounds, execute, Cluster, ExecutorConfig, FaultPlan, SimReport};

/// Continuous-time execution of `s` with an empty fault plan.
fn continuous(p: &MigrationProblem, s: &MigrationSchedule, cluster: &Cluster) -> SimReport {
    run(p, s, cluster, &FaultPlan::default())
}

/// Total time of `s` on unit-bandwidth disks under one `[[degrade]]`
/// fault.
fn degraded(
    p: &MigrationProblem,
    s: &MigrationSchedule,
    disk: usize,
    time: f64,
    factor: f64,
    recover_at: Option<f64>,
) -> f64 {
    let faults = FaultPlan {
        degradations: vec![DegradeFault {
            disk: disk.into(),
            time,
            factor,
            recover_at,
        }],
        ..FaultPlan::default()
    };
    run(p, s, &Cluster::uniform(p.num_disks(), 1.0), &faults).total_time
}

/// Replanning is off (the default), so the schedule runs as planned.
fn run(
    p: &MigrationProblem,
    s: &MigrationSchedule,
    cluster: &Cluster,
    faults: &FaultPlan,
) -> SimReport {
    let config = ExecutorConfig::default();
    execute(p, s, cluster, faults, &config, &AutoSolver)
        .unwrap()
        .sim
}

/// Two sequential rounds through disk 1 at c = 1.
fn chain() -> (MigrationProblem, MigrationSchedule) {
    let g = GraphBuilder::new().edge(0, 1).edge(1, 2).build();
    let p = MigrationProblem::uniform(g, 1).unwrap();
    let s = HomogeneousSolver.solve(&p).unwrap();
    (p, s)
}

/// One item between disks 0 and 1 (plus `idle` disks no transfer touches).
fn one_item(idle: usize) -> (MigrationProblem, MigrationSchedule) {
    let g = GraphBuilder::new().nodes(2 + idle).edge(0, 1).build();
    let p = MigrationProblem::uniform(g, 1).unwrap();
    let s = HomogeneousSolver.solve(&p).unwrap();
    (p, s)
}

/// Star with hub capacity k: every round k transfers share the hub's
/// bandwidth: round time = k / B_hub (leaves are not binding at B = 1).
#[test]
fn star_round_time_is_hub_concurrency() {
    let leaves = 8;
    let g = star_multigraph(leaves, 1);
    let mut caps = vec![4u32; leaves + 1];
    caps[0] = 4;
    let p = MigrationProblem::new(g, Capacities::from_vec(caps)).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 2); // ⌈8/4⌉
    let cluster = Cluster::uniform(leaves + 1, 1.0);
    let r = simulate_rounds(&p, &s, &cluster).unwrap();
    // Each round: 4 transfers at hub rate 1/4 → 4 time units; 2 rounds.
    assert!((r.total_time - 8.0).abs() < 1e-9);
    // Work-conserving cannot help: all transfers in a round are symmetric.
    let a = continuous(&p, &s, &cluster);
    assert!((a.total_time - 8.0).abs() < 1e-9);
}

/// Fig. 2 with non-unit bandwidth scales inversely.
#[test]
fn bandwidth_scales_time() {
    let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    let slow = simulate_rounds(&p, &s, &Cluster::uniform(3, 0.5)).unwrap();
    let fast = simulate_rounds(&p, &s, &Cluster::uniform(3, 2.0)).unwrap();
    assert!((slow.total_time - 4.0 * fast.total_time).abs() < 1e-9);
}

/// Asymmetric bandwidths: the transfer runs at the slower side's share.
#[test]
fn min_rate_semantics() {
    let g = GraphBuilder::new().edge(0, 1).edge(0, 2).build();
    let p = MigrationProblem::uniform(g, 2).unwrap();
    let s = MigrationSchedule::from_rounds(vec![vec![0.into(), 1.into()]]);
    s.validate(&p).unwrap();
    // Disk 0 splits bandwidth 2.0 across both transfers (share 1.0);
    // disks 1 (B=0.25) and 2 (B=1.0) are sole users of their side.
    let cluster = Cluster::from_bandwidths(vec![2.0, 0.25, 1.0]);
    let r = simulate_rounds(&p, &s, &cluster).unwrap();
    // Transfer to disk 1 runs at 0.25 → 4 time units; round time 4.
    assert!((r.total_time - 4.0).abs() < 1e-9);
    // Work-conserving: the fast transfer finishes at t=1; disk 0's share
    // then rises to 2.0, but the bottleneck 0.25 stays → still 4.0.
    let a = continuous(&p, &s, &cluster);
    assert!((a.total_time - 4.0).abs() < 1e-9);
}

/// Re-splitting released bandwidth never makes a round longer.
#[test]
fn continuous_never_slower_than_rounds() {
    let p = MigrationProblem::uniform(star_multigraph(5, 2), 3).unwrap();
    let s = GreedySolver.solve(&p).unwrap();
    let cluster = Cluster::from_bandwidths(vec![2.0, 1.0, 0.5, 1.0, 2.0, 1.0]);
    let fixed = simulate_rounds(&p, &s, &cluster).unwrap();
    let a = continuous(&p, &s, &cluster);
    assert!(a.total_time <= fixed.total_time + 1e-9);
    assert!((a.volume - fixed.volume).abs() < 1e-9);
}

/// When every transfer of a round finishes together, nothing is released
/// early and both models agree.
#[test]
fn continuous_equals_rounds_when_symmetric() {
    let p = MigrationProblem::uniform(complete_multigraph(3, 2), 2).unwrap();
    let s = EvenOptimalSolver.solve(&p).unwrap();
    let cluster = Cluster::uniform(3, 1.0);
    let fixed = simulate_rounds(&p, &s, &cluster).unwrap();
    let a = continuous(&p, &s, &cluster);
    assert!((fixed.total_time - a.total_time).abs() < 1e-9);
}

#[test]
fn empty_schedule_takes_no_time() {
    let p = MigrationProblem::uniform(Multigraph::with_nodes(2), 1).unwrap();
    let s = MigrationSchedule::default();
    let r = continuous(&p, &s, &Cluster::uniform(2, 1.0));
    assert_eq!(r.total_time, 0.0);
}

/// Disk 1 drops to quarter speed after the first round: round 1 takes 1.0,
/// round 2 runs wholly at 0.25 → 4.0.
#[test]
fn slowdown_stretches_the_tail() {
    let (p, s) = chain();
    let t = degraded(&p, &s, 1, 1.0, 0.25, None);
    assert!((t - 5.0).abs() < 1e-9, "got {t}");
}

/// Half the item moves at rate 1 (0.5 time), then the rate halves: the
/// remaining 0.5 takes 1.0 → 1.5.
#[test]
fn mid_transfer_slowdown_is_proportional() {
    let (p, s) = one_item(0);
    let t = degraded(&p, &s, 0, 0.5, 0.5, None);
    assert!((t - 1.5).abs() < 1e-9, "got {t}");
}

/// Half speed until t=0.5 moves a quarter of the item; the recovered disk
/// moves the other 0.75 in 0.75 → 1.25.
#[test]
fn recovery_speeds_things_up() {
    let (p, s) = one_item(0);
    let t = degraded(&p, &s, 0, 0.0, 0.5, Some(0.5));
    assert!((t - 1.25).abs() < 1e-9, "got {t}");
}

/// A slowdown that ends mid-round: round 2 runs 0.5 at rate 0.25 (moves
/// 0.125), then the remaining 0.875 at full speed → 1.0 + 0.5 + 0.875.
#[test]
fn slowdown_with_recovery_mid_round() {
    let (p, s) = chain();
    let t = degraded(&p, &s, 1, 1.0, 0.25, Some(1.5));
    assert!((t - 2.375).abs() < 1e-9, "got {t}");
}

/// Rates integrate piecewise: [0, 0.25] at rate 1 moves 0.25, [0.25, 0.75]
/// at 0.5 moves 0.25, and the recovered disk moves the last 0.5 in 0.5 →
/// 1.25.
#[test]
fn degrade_window_integrates_piecewise() {
    let (p, s) = one_item(0);
    let t = degraded(&p, &s, 0, 0.25, 0.5, Some(0.75));
    assert!((t - 1.25).abs() < 1e-9, "got {t}");
}

/// A degradation on a disk no transfer touches changes nothing.
#[test]
fn degrading_an_idle_disk_is_harmless() {
    let (p, s) = one_item(2);
    let t = degraded(&p, &s, 3, 0.5, 0.01, None);
    assert!((t - 1.0).abs() < 1e-9, "got {t}");
}

/// A degradation scheduled after the run ends never fires.
#[test]
fn degrade_after_completion_is_ignored() {
    let (p, s) = chain();
    let t = degraded(&p, &s, 0, 100.0, 0.1, None);
    assert!((t - 2.0).abs() < 1e-9, "got {t}");
}

/// Busy time never exceeds total time, and utilization is within [0, 1].
#[test]
fn metric_sanity_on_mixed_scenarios() {
    let p = MigrationProblem::uniform(complete_multigraph(5, 3), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    let cluster = Cluster::from_bandwidths(vec![0.5, 1.0, 2.0, 1.5, 0.75]);
    for r in [
        simulate_rounds(&p, &s, &cluster).unwrap(),
        continuous(&p, &s, &cluster),
    ] {
        for &busy in &r.disk_busy {
            assert!(busy <= r.total_time + 1e-9);
        }
        let u = r.mean_utilization();
        assert!((0.0..=1.0 + 1e-9).contains(&u));
        assert!(r.throughput() > 0.0);
        let json = r.to_json();
        assert_eq!(json.matches("\"busy\": ").count(), r.disk_busy.len());
        assert!(json.contains(&format!("\"num_rounds\": {},", r.num_rounds())));
    }
}
