//! Failure drain with a slow survivor — the paper's §I bottleneck story,
//! finished by the fault-tolerant executor.
//!
//! Two disks are being evacuated onto 14 survivors, one of which is an
//! old, busy disk with a quarter of the bandwidth and room for only one
//! migration at a time. A capacity-aware plan routes around it; the
//! homogeneous plan lets it pace the whole drain. Then the old disk does
//! what old disks do — it dies mid-drain — and the executor redirects its
//! pending items to a healthy survivor while retrying flaky transfers.
//! Run with:
//!
//! ```text
//! cargo run --example failure_drain
//! ```

use dmig::prelude::*;
use dmig::workloads::disk_ops;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DISKS: usize = 16;
    const FAILED: usize = 2;
    const ITEMS: usize = 280;

    let graph = disk_ops::disk_removal(DISKS, FAILED, ITEMS, 99);
    let mut caps = vec![4u32; DISKS];
    caps[0] = 8; // draining disks push hard
    caps[1] = 8;
    caps[2] = 1; // the slow survivor
    let problem = MigrationProblem::new(graph, Capacities::from_vec(caps))?;

    println!("{problem}");
    println!("lower bound: {} rounds", bounds::lower_bound(&problem));

    let aware = GeneralSolver::default().solve(&problem)?;
    let naive = HomogeneousSolver.solve(&problem)?;
    aware.validate(&problem)?;
    naive.validate(&problem)?;
    println!("capacity-aware : {} rounds", aware.makespan());
    println!("homogeneous    : {} rounds", naive.makespan());

    let mut bw = vec![1.0f64; DISKS];
    bw[2] = 0.25;
    let cluster = Cluster::from_bandwidths(bw);
    let fast = simulate_rounds(&problem, &aware, &cluster)?;
    let slow = simulate_rounds(&problem, &naive, &cluster)?;
    println!(
        "wall-clock     : {:.0} vs {:.0} time units — {:.2}x faster recovery",
        fast.total_time,
        slow.total_time,
        slow.total_time / fast.total_time
    );
    println!(
        "slow survivor busy time: {:.0} (aware) vs {:.0} (homogeneous)",
        fast.disk_busy[2], slow.disk_busy[2]
    );

    // Act two: halfway through the fault-free drain the slow survivor
    // crash-stops. Its pending items are redirected to survivor 3, and a
    // 5% flaky-transfer rate exercises the retry/backoff path.
    let faults = FaultPlan::parse(&format!(
        "seed = 99\n\n\
         [[crash]]\ndisk = 2\ntime = {:.3}\nreplacement = 3\n\n\
         [flaky]\nprobability = 0.05\n",
        fast.total_time / 2.0
    ))?;
    faults.validate(problem.num_disks())?;
    let config = ExecutorConfig {
        replan: true,
        retry_max: 4,
    };
    let report = execute(
        &problem,
        &aware,
        &cluster,
        &faults,
        &config,
        &GeneralSolver::default(),
    )?;
    println!(
        "\nwith a mid-drain crash of the slow survivor (+5% flaky links):\n\
         {} delivered ({} redirected), {} lost; {} replans, {} retries, \
         done at t={:.0}",
        report.delivered(),
        report.redirected(),
        report.lost(),
        report.replans,
        report.retries,
        report.sim.total_time,
    );
    assert_eq!(report.lost(), 0, "every item survives the drain");
    Ok(())
}
