//! Availability-model chaos: compile rack/zone failure statistics into
//! fault plans and drive the executor through them, with a mid-run
//! kill/resume for good measure.
//!
//! `dmig-workloads` emits fault-plan *text*; this test closes the loop by
//! feeding that text to the simulator's `parse_checked` (the single
//! validation authority) and executing the result, resuming from a
//! journal chain of full and delta records. Sweeping the compile
//! seed sweeps chaos scenarios drawn from one availability model.

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::MigrationProblem;
use dmig_sim::executor::DELTA_PREFIX;
use dmig_sim::{Cluster, Executor, ExecutorConfig, FaultPlan, StepOutcome};
use dmig_workloads::availability::AvailabilityModel;
use dmig_workloads::random::uniform_multigraph;

/// Six live disks (0..6) under the model, two spares (6..8), capacity 2.
const MODEL: &str = "\
horizon = 6.0

[[domain]]
name = \"rack-a\"
disks = \"0-2\"
mode = \"degrade\"
mtbf = 2.0
mttr = 1.0
factor = 0.3
correlated = true

[[domain]]
name = \"aging\"
disks = \"3,4\"
mode = \"crash\"
mtbf = 3.0

[spares]
disks = \"6-7\"

[flaky]
probability = 0.05
";

fn instance() -> MigrationProblem {
    let mut b = dmig_graph::GraphBuilder::new();
    for (_, ep) in uniform_multigraph(6, 18, 9).edges() {
        b = b.edge(ep.u.index(), ep.v.index());
    }
    let g = b.nodes(8).build();
    MigrationProblem::uniform(g, 2).expect("valid instance")
}

#[test]
fn compiled_chaos_plans_load_and_execute() {
    let model = AvailabilityModel::parse(MODEL).unwrap();
    model.validate().unwrap();
    let problem = instance();
    assert!(model.max_disk().unwrap() < problem.num_disks());
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let solver = ParallelSolver::with_threads(Box::new(AutoSolver), 2);
    let config = ExecutorConfig {
        replan: true,
        retry_max: 3,
    };
    let mut scenarios_with_faults = 0;
    for seed in 0..12u64 {
        let text = model.compile(seed);
        // The simulator's loader is the validation authority for the
        // generated text — including disk references vs the instance.
        let faults = FaultPlan::parse_checked(&text, problem.num_disks())
            .unwrap_or_else(|e| panic!("seed {seed}: compiled plan rejected: {e}"));
        if !faults.is_empty() {
            scenarios_with_faults += 1;
        }
        let schedule = solver.solve(&problem).unwrap();
        let mut exec =
            Executor::new(&problem, &schedule, &cluster, &faults, &config, &solver).unwrap();
        // Run the first half journaling every boundary, get killed, resume
        // from the journal chain: the deltas after the plan, or after the
        // last replan's full record.
        let mut chain = vec![exec.journal_record()];
        for _ in 0..3 {
            if exec.step().unwrap() == StepOutcome::Finished {
                break;
            }
            let record = exec.journal_record();
            if !record.starts_with(DELTA_PREFIX) {
                chain.clear();
            }
            chain.push(record);
        }
        let mut revived = Executor::resume(
            &problem,
            &schedule,
            &cluster,
            &faults,
            &config,
            &solver,
            &chain.join("\n"),
        )
        .unwrap();
        while revived.step().unwrap() == StepOutcome::Running {}
        let resumed = revived.into_report();
        // Reference: the same scenario uninterrupted.
        let reference = dmig_sim::execute(
            &problem,
            &solver.solve(&problem).unwrap(),
            &cluster,
            &faults,
            &config,
            &solver,
        )
        .unwrap();
        assert_eq!(
            resumed.to_json(),
            reference.to_json(),
            "seed {seed}: resumed chaos run diverged"
        );
        assert_eq!(resumed.delivered() + resumed.lost(), problem.num_items());
    }
    // The statistics make quiet scenarios possible but a silent sweep
    // means the sampler broke.
    assert!(
        scenarios_with_faults >= 8,
        "only {scenarios_with_faults}/12 scenarios injected faults"
    );
}

#[test]
fn oversized_model_is_rejected_against_the_instance() {
    let model = AvailabilityModel::parse(
        "horizon = 4.0\n[[domain]]\nname = \"big\"\ndisks = \"10-12\"\nmode = \"crash\"\nmtbf = 1.0\n",
    )
    .unwrap();
    let problem = instance();
    // Find a seed whose compiled plan actually injects a crash.
    let text = (0..64u64)
        .map(|s| model.compile(s))
        .find(|t| t.contains("[[crash]]"))
        .expect("some seed fires within the horizon");
    let err = FaultPlan::parse_checked(&text, problem.num_disks()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of range"), "{msg}");
    assert!(msg.starts_with("line "), "line-numbered: {msg}");
}
