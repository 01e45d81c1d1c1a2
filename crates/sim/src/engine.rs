//! The paper's round-barrier model.
//!
//! Continuous-time execution (work-conserving fair sharing, bandwidth
//! that changes mid-round, faults) lives in [`crate::executor`].

use core::fmt;

use dmig_core::{MigrationProblem, MigrationSchedule, ScheduleError};
use dmig_graph::{EdgeId, Multigraph};

use crate::progress::RoundTicker;
use crate::{Cluster, SimReport};

/// Input errors shared by the round model and the executor.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The schedule is not feasible for the problem.
    InfeasibleSchedule(ScheduleError),
    /// The cluster describes a different number of disks than the problem.
    ClusterSizeMismatch {
        /// Disks in the cluster model.
        cluster: usize,
        /// Disks in the problem.
        problem: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InfeasibleSchedule(e) => write!(f, "infeasible schedule: {e}"),
            SimError::ClusterSizeMismatch { cluster, problem } => {
                write!(f, "cluster has {cluster} disks but problem has {problem}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InfeasibleSchedule(e) => Some(e),
            SimError::ClusterSizeMismatch { .. } => None,
        }
    }
}

/// Per-round telemetry shared by [`simulate_rounds`] and the executor:
/// counters and the progress/stall ticker.
pub(crate) fn record_sim_round(ticker: &mut RoundTicker, transfers: usize) {
    dmig_obs::counter_add(dmig_obs::keys::SIM_ROUNDS, 1);
    dmig_obs::counter_add(dmig_obs::keys::SIM_TRANSFERS, transfers as u64);
    ticker.round_done(transfers);
}

pub(crate) fn check_inputs(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
) -> Result<(), SimError> {
    if cluster.num_disks() != problem.num_disks() {
        return Err(SimError::ClusterSizeMismatch {
            cluster: cluster.num_disks(),
            problem: problem.num_disks(),
        });
    }
    schedule
        .validate(problem)
        .map_err(SimError::InfeasibleSchedule)
}

/// One round under the round model. Fills `finish_at[v]` with the time
/// disk `v`'s last transfer ends (0 for an idle disk) and returns the
/// round's duration. `concurrency` is scratch of the same length.
fn round_model(
    g: &Multigraph,
    cluster: &Cluster,
    round: &[EdgeId],
    concurrency: &mut [usize],
    finish_at: &mut [f64],
) -> f64 {
    concurrency.fill(0);
    finish_at.fill(0.0);
    for &e in round {
        let ep = g.endpoints(e);
        concurrency[ep.u.index()] += 1;
        concurrency[ep.v.index()] += 1;
    }
    let mut round_time = 0.0f64;
    for &e in round {
        let ep = g.endpoints(e);
        let share_u = cluster.bandwidth(ep.u) / concurrency[ep.u.index()] as f64;
        let share_v = cluster.bandwidth(ep.v) / concurrency[ep.v.index()] as f64;
        let t = cluster.item_size(e) / share_u.min(share_v);
        round_time = round_time.max(t);
        finish_at[ep.u.index()] = finish_at[ep.u.index()].max(t);
        finish_at[ep.v.index()] = finish_at[ep.v.index()].max(t);
    }
    round_time
}

/// Executes a schedule under the paper's round model: within a round each
/// disk splits its bandwidth evenly across its transfers *for the whole
/// round*, a transfer runs at the slower of its two endpoint shares, and
/// the round ends when its slowest transfer ends.
///
/// # Errors
///
/// Returns [`SimError`] if the schedule is infeasible or the cluster size
/// does not match.
pub fn simulate_rounds(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
) -> Result<SimReport, SimError> {
    check_inputs(problem, schedule, cluster)?;
    let _span = dmig_obs::span_labeled("simulate_rounds", || {
        format!("rounds={}", schedule.makespan())
    });
    let g = problem.graph();
    let n = g.num_nodes();
    let mut round_durations = Vec::with_capacity(schedule.makespan());
    let mut disk_busy = vec![0.0f64; n];
    let mut volume = 0.0f64;
    let mut concurrency = vec![0usize; n];
    let mut finish_at = vec![0.0f64; n];
    let mut ticker = RoundTicker::new(schedule.makespan());
    let mut base = 0.0f64;

    for round in schedule.rounds() {
        dmig_obs::events::emit(dmig_obs::events::Event::RoundStart {
            round: round_durations.len() as u64,
            transfers: round.len() as u64,
            time: base,
        });
        let round_time = round_model(g, cluster, round, &mut concurrency, &mut finish_at);
        for &e in round {
            volume += cluster.item_size(e);
        }
        for (busy, &t) in disk_busy.iter_mut().zip(&finish_at) {
            *busy += t;
        }
        base += round_time;
        dmig_obs::events::emit(dmig_obs::events::Event::RoundEnd {
            round: round_durations.len() as u64,
            duration: round_time,
            time: base,
        });
        round_durations.push(round_time);
        record_sim_round(&mut ticker, round.len());
    }

    Ok(SimReport {
        total_time: round_durations.iter().sum(),
        round_durations,
        disk_busy,
        volume,
    })
}

/// Replays the round model of [`simulate_rounds`] and returns, for every
/// round, its duration plus the sparse per-disk busy times — the input the
/// attribution engine ([`dmig_obs::explain::attribute`]) needs to find the
/// binding chain. Emits no events and records no metrics: it is a pure
/// analysis pass over the same per-round arithmetic as the simulator, so
/// the round durations match a [`SimReport`] from `simulate_rounds`
/// exactly.
///
/// # Errors
///
/// Returns [`SimError`] if the schedule is infeasible or the cluster size
/// does not match.
pub fn round_profile(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
) -> Result<Vec<dmig_obs::explain::RoundLoad>, SimError> {
    check_inputs(problem, schedule, cluster)?;
    let g = problem.graph();
    let n = g.num_nodes();
    let mut concurrency = vec![0usize; n];
    let mut finish_at = vec![0.0f64; n];
    let mut rounds = Vec::with_capacity(schedule.makespan());
    for round in schedule.rounds() {
        let duration = round_model(g, cluster, round, &mut concurrency, &mut finish_at);
        let busy: Vec<(usize, f64)> = finish_at
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t > 0.0)
            .map(|(v, &t)| (v, t))
            .collect();
        rounds.push(dmig_obs::explain::RoundLoad { duration, busy });
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_core::solver::{EvenOptimalSolver, HomogeneousSolver, Solver};
    use dmig_core::MigrationProblem;
    use dmig_graph::builder::{complete_multigraph, star_multigraph};
    use dmig_graph::GraphBuilder;

    fn fig2(m: usize) -> MigrationProblem {
        MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap()
    }

    #[test]
    fn fig2_round_model_reproduces_paper_numbers() {
        let m = 4;
        let p = fig2(m);
        let cluster = Cluster::uniform(3, 1.0);
        let fast = EvenOptimalSolver.solve(&p).unwrap();
        let report = simulate_rounds(&p, &fast, &cluster).unwrap();
        // M rounds, each a triangle: every disk runs 2 transfers at rate
        // 1/2 → 2 time units per round → 2M total.
        assert_eq!(report.num_rounds(), m);
        assert!((report.total_time - 2.0 * m as f64).abs() < 1e-9);

        let slow = HomogeneousSolver.solve(&p).unwrap();
        let report2 = simulate_rounds(&p, &slow, &cluster).unwrap();
        assert!((report2.total_time - 3.0 * m as f64).abs() < 1e-9);
    }

    #[test]
    fn single_transfer_takes_size_over_bandwidth() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let s = HomogeneousSolver.solve(&p).unwrap();
        let cluster = Cluster::from_bandwidths(vec![2.0, 0.5]);
        let r = simulate_rounds(&p, &s, &cluster).unwrap();
        // Bottlenecked by the 0.5 disk: 1 / 0.5 = 2 time units.
        assert!((r.total_time - 2.0).abs() < 1e-9);
        assert!((r.volume - 1.0).abs() < 1e-9);
    }

    #[test]
    fn item_sizes_scale_time() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let s = HomogeneousSolver.solve(&p).unwrap();
        let cluster = Cluster::uniform(2, 1.0).with_item_sizes(vec![3.0]);
        let r = simulate_rounds(&p, &s, &cluster).unwrap();
        assert!((r.total_time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_schedule_rejected() {
        let p = fig2(1);
        let bogus = dmig_core::MigrationSchedule::from_rounds(vec![vec![0.into()]]);
        let err = simulate_rounds(&p, &bogus, &Cluster::uniform(3, 1.0)).unwrap_err();
        assert!(matches!(err, SimError::InfeasibleSchedule(_)));
    }

    #[test]
    fn cluster_size_mismatch_rejected() {
        let p = fig2(1);
        let s = EvenOptimalSolver.solve(&p).unwrap();
        let err = simulate_rounds(&p, &s, &Cluster::uniform(2, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            SimError::ClusterSizeMismatch {
                cluster: 2,
                problem: 3
            }
        ));
    }

    #[test]
    fn empty_schedule_zero_time() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(2), 1).unwrap();
        let s = dmig_core::MigrationSchedule::default();
        let r = simulate_rounds(&p, &s, &Cluster::uniform(2, 1.0)).unwrap();
        assert_eq!(r.total_time, 0.0);
    }

    #[test]
    fn round_profile_matches_simulate_rounds() {
        let p = MigrationProblem::uniform(star_multigraph(4, 2), 2).unwrap();
        let s = HomogeneousSolver.solve(&p).unwrap();
        let cluster = Cluster::from_bandwidths(vec![1.0, 2.0, 0.5, 1.0, 1.0]);
        let report = simulate_rounds(&p, &s, &cluster).unwrap();
        let profile = round_profile(&p, &s, &cluster).unwrap();
        assert_eq!(profile.len(), report.num_rounds());
        let mut busy = [0.0f64; 5];
        for (load, &dur) in profile.iter().zip(&report.round_durations) {
            assert!((load.duration - dur).abs() < 1e-12);
            // The binding disk's busy time equals the round duration.
            let max_busy = load.busy.iter().map(|&(_, b)| b).fold(0.0, f64::max);
            assert!((max_busy - dur).abs() < 1e-12);
            for w in load.busy.windows(2) {
                assert!(w[0].0 < w[1].0, "busy pairs must ascend by disk id");
            }
            for &(v, b) in &load.busy {
                busy[v] += b;
            }
        }
        for (accumulated, reported) in busy.iter().zip(&report.disk_busy) {
            assert!((accumulated - reported).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_reflects_idle_disks() {
        // Star: hub busy every round, leaves mostly idle.
        let p = MigrationProblem::uniform(star_multigraph(4, 1), 1).unwrap();
        let s = HomogeneousSolver.solve(&p).unwrap();
        let r = simulate_rounds(&p, &s, &Cluster::uniform(5, 1.0)).unwrap();
        assert!(r.mean_utilization() <= 1.0);
        assert!(r.disk_busy[0] >= r.disk_busy[1]);
    }
}
