//! Online replanning — the executor's closed loop under live faults.
//!
//! A 12-disk rebalance (plus one cold spare) is mid-flight when the
//! cluster starts misbehaving: one disk's bandwidth collapses to 30% and
//! later recovers, and another disk crash-stops outright. The fault plan
//! below is exactly what `dmig simulate --faults FILE --replan` consumes;
//! the executor retries, detects the stall, and re-solves the residual
//! problem — redirecting the dead disk's pending items to the spare — so
//! nothing is lost. Run with:
//!
//! ```text
//! cargo run --example online_replanning
//! ```

use dmig::prelude::*;
use dmig::workloads::{capacities, reconfigure};

/// The same TOML a `--faults` file would hold. Disk 3 degrades at t=2 and
/// recovers at t=8; disk 5 dies for good at t=4, replaced by the spare 12.
const FAULTS: &str = "\
seed = 42

[[degrade]]
disk = 3
time = 2.0
factor = 0.3
recover_at = 8.0

[[crash]]
disk = 5
time = 4.0
replacement = 12

[flaky]
probability = 0.02
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DISKS: usize = 12;

    // Rebuild the rebalance delta with one extra node: the cold spare.
    let delta = reconfigure::load_balance_delta(DISKS, 120, 5);
    let graph = GraphBuilder::new()
        .nodes(DISKS + 1)
        .edges_from(delta.edges().map(|(_, ep)| (ep.u.index(), ep.v.index())))
        .build();
    let problem = MigrationProblem::new(graph, capacities::mixed_parity(DISKS + 1, 2, 4, 5))?;
    let schedule = AutoSolver.solve(&problem)?;
    println!(
        "initial plan: {} items in {} rounds",
        problem.num_items(),
        schedule.makespan()
    );

    let faults = FaultPlan::parse(FAULTS)?;
    faults.validate(problem.num_disks())?;
    let cluster = Cluster::uniform(DISKS + 1, 1.0);

    // Without replanning the crash strands every item still routed
    // through disk 5.
    let blind = execute(
        &problem,
        &schedule,
        &cluster,
        &faults,
        &ExecutorConfig::default(),
        &AutoSolver,
    )?;
    println!(
        "open loop  : {} delivered, {} lost ({} on the dead disk)",
        blind.delivered(),
        blind.lost(),
        blind.lost_because(LostReason::DeadDisk),
    );

    // Closed loop: replan on crash/stall, retry flaky transfers.
    let config = ExecutorConfig {
        replan: true,
        retry_max: 3,
    };
    let healed = execute(&problem, &schedule, &cluster, &faults, &config, &AutoSolver)?;
    println!(
        "closed loop: {} delivered ({} redirected to the spare), {} lost",
        healed.delivered(),
        healed.redirected(),
        healed.lost(),
    );
    println!(
        "recovery   : {} replans, {} retries, {} degraded rounds, finished at t={:.2}",
        healed.replans, healed.retries, healed.degraded_rounds, healed.sim.total_time,
    );
    assert_eq!(healed.lost(), 0, "the spare absorbs everything");
    Ok(())
}
