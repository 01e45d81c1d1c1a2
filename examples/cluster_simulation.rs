//! Cluster simulation deep-dive: round-barrier vs work-conserving
//! execution of the same schedule on heterogeneous hardware.
//!
//! The paper's model charges each round its slowest transfer; a real
//! controller would re-split bandwidth the moment a transfer finishes.
//! This example quantifies the difference on a skewed workload. Run with:
//!
//! ```text
//! cargo run --example cluster_simulation
//! ```

use dmig::prelude::*;
use dmig::workloads::{capacities, random};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DISKS: usize = 24;
    const ITEMS: usize = 500;

    // Popularity-skewed transfers over a mixed-generation fleet, with
    // variable item sizes (0.5–2.0) so completions stagger inside rounds.
    let graph = random::power_law_multigraph(DISKS, ITEMS, 1.1, 11);
    let caps = capacities::mixed_parity(DISKS, 1, 6, 11);
    let sizes: Vec<f64> = (0..ITEMS)
        .map(|i| 0.5 + 1.5 * ((i * 37) % 100) as f64 / 100.0)
        .collect();
    let problem = MigrationProblem::new(graph, caps)?;
    let schedule = AutoSolver.solve(&problem)?;
    schedule.validate(&problem)?;
    println!("{problem}");
    println!(
        "schedule: {} rounds (lower bound {})\n",
        schedule.makespan(),
        bounds::lower_bound(&problem)
    );

    // Three hardware mixes: uniform, mildly skewed, strongly skewed.
    for (label, bw) in [
        ("uniform 1x", vec![1.0; DISKS]),
        (
            "mild skew",
            (0..DISKS)
                .map(|v| if v % 4 == 0 { 2.0 } else { 1.0 })
                .collect(),
        ),
        (
            "strong skew",
            (0..DISKS)
                .map(|v| if v % 4 == 0 { 4.0 } else { 0.5 })
                .collect(),
        ),
    ] {
        let cluster = Cluster::from_bandwidths(bw).with_item_sizes(sizes.clone());
        let fixed = simulate_rounds(&problem, &schedule, &cluster)?;
        let adaptive = execute(
            &problem,
            &schedule,
            &cluster,
            &FaultPlan::default(),
            &ExecutorConfig::default(),
            &AutoSolver,
        )?
        .sim;
        println!(
            "{label:<12} barrier {:>8.1}  work-conserving {:>8.1}  savings {:>5.1}%  util {:>4.0}%",
            fixed.total_time,
            adaptive.total_time,
            100.0 * (1.0 - adaptive.total_time / fixed.total_time),
            adaptive.mean_utilization() * 100.0
        );
    }
    Ok(())
}
