//! Disk-addition rebuild — the paper's §I upgrade scenario.
//!
//! A search-engine cluster adds four disks; data rebalances from the 24
//! old disks onto the new ones. The transfer graph is bipartite
//! (old → new), so the bipartite solver, the even solver's quota partition
//! on the old → new orientation, schedules it *optimally* for any mix of
//! transfer constraints. Run with:
//!
//! ```text
//! cargo run --example disk_upgrade
//! ```

use dmig::prelude::*;
use dmig::workloads::disk_ops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const OLD: usize = 24;
    const NEW: usize = 4;
    const ITEMS: usize = 600;

    let graph = disk_ops::disk_addition(OLD, NEW, ITEMS, 2026);
    // Old disks serve live traffic: 2 concurrent migrations each. New
    // disks are idle: 8 each.
    let caps: Vec<u32> = (0..OLD + NEW)
        .map(|v| if v < OLD { 2 } else { 8 })
        .collect();
    let problem = MigrationProblem::new(graph, Capacities::from_vec(caps))?;

    println!("{problem}");
    println!("lower bound: {} rounds", bounds::lower_bound(&problem));

    let optimal = BipartiteOptimalSolver.solve(&problem)?;
    optimal.validate(&problem)?;
    println!(
        "bipartite-optimal: {} rounds (provably optimal)",
        optimal.makespan()
    );

    // What the same rebuild costs with one-at-a-time scheduling.
    let homogeneous = HomogeneousSolver.solve(&problem)?;
    homogeneous.validate(&problem)?;
    println!(
        "homogeneous     : {} rounds ({}x longer)",
        homogeneous.makespan(),
        homogeneous.makespan() / optimal.makespan().max(1)
    );

    // New disks are also faster hardware.
    let bw: Vec<f64> = (0..OLD + NEW)
        .map(|v| if v < OLD { 1.0 } else { 4.0 })
        .collect();
    let cluster = Cluster::from_bandwidths(bw);
    let fast = simulate_rounds(&problem, &optimal, &cluster)?;
    let slow = simulate_rounds(&problem, &homogeneous, &cluster)?;
    println!(
        "wall-clock: optimal {:.0} vs homogeneous {:.0} time units ({:.2}x)",
        fast.total_time,
        slow.total_time,
        slow.total_time / fast.total_time
    );
    Ok(())
}
