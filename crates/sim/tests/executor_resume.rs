//! Checkpoint/restore property tests for the resumable executor.
//!
//! The load-bearing guarantee of the durable-workspace layer: an executor
//! killed at *any* round boundary and revived from its last checkpoint
//! produces a final report byte-identical to the uninterrupted run — same
//! seed, same fault plan, any solver thread count. The checkpoint is
//! either one full record or a journal chain: the delta records after its
//! base, which is the last full record (one per replan) or, before any
//! replan, the state the plan starts from. On top of that: checkpoints
//! round-trip losslessly (restore → checkpoint is the identity, from a
//! single record and from a chain alike), a resumed session continues the
//! chain, accounting stays exact across the kill (`delivered + lost ==
//! |items|`), deltas stay small, and corrupt records are rejected with a
//! diagnostic instead of resuming into a wrong run.

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{MigrationProblem, MigrationSchedule};
use dmig_sim::executor::DELTA_PREFIX;
use dmig_sim::faults::{CrashFault, DegradeFault, FlakySpec};
use dmig_sim::{
    Cluster, ExecError, Executor, ExecutorConfig, FaultPlan, ItemFate, LostReason, StepOutcome,
};
use dmig_workloads::random::uniform_multigraph;
use proptest::prelude::*;

/// A small random instance that always admits a schedule: `n` live disks
/// plus one idle spare (disk `n`), uniform capacity 2.
fn instance(n: usize, m: usize, seed: u64) -> MigrationProblem {
    let mut b = dmig_graph::GraphBuilder::new();
    for (_, ep) in uniform_multigraph(n, m, seed).edges() {
        b = b.edge(ep.u.index(), ep.v.index());
    }
    let g = b.nodes(n + 1).build();
    MigrationProblem::uniform(g, 2).expect("valid instance")
}

/// A fault plan exercising every recovery path: one crash with the spare
/// as replacement, one degradation with recovery, flaky transfers.
fn plan(n: usize, seed: u64, crash: bool, degrade: bool, flaky: bool) -> FaultPlan {
    let mut p = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    if crash {
        p.crashes.push(CrashFault {
            disk: (seed as usize % n).into(),
            time: 0.25 + (seed % 4) as f64 * 0.5,
            replacement: Some(n.into()),
        });
    }
    if degrade {
        p.degradations.push(DegradeFault {
            disk: ((seed as usize / 3) % n).into(),
            time: 0.5,
            factor: 0.25,
            recover_at: Some(4.0),
        });
    }
    if flaky {
        p.flaky = Some(FlakySpec { probability: 0.3 });
    }
    p
}

fn config() -> ExecutorConfig {
    ExecutorConfig {
        replan: true,
        retry_max: 3,
    }
}

/// One uninterrupted run, observed at every boundary (including the
/// pristine pre-first-round state).
struct Run {
    /// The plan the run started from.
    schedule: MigrationSchedule,
    /// `checkpoint_json()` at each boundary.
    checkpoints: Vec<String>,
    /// `journal_record()` at each boundary: the journal `migrate execute`
    /// writes.
    records: Vec<String>,
    /// The final report JSON.
    report: String,
    /// Replans the run performed.
    replans: u64,
}

impl Run {
    /// The chain a kill right after boundary `at` leaves to resume from.
    fn chain(&self, at: usize) -> String {
        chain_at(&self.records, at)
    }

    fn deltas(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.starts_with(DELTA_PREFIX))
            .count()
    }
}

/// The chain of `records[..=at]`: the last full record and the deltas
/// after it, or, before any full record, every delta from the first,
/// whose base is the plan.
fn chain_at(records: &[String], at: usize) -> String {
    let start = (0..=at)
        .rfind(|&i| !records[i].starts_with(DELTA_PREFIX))
        .unwrap_or(0);
    records[start..=at].join("\n")
}

/// The position `record` holds in its chain: `k` for delta `k`, 0 for a
/// full record.
fn chain_position(record: &str) -> u64 {
    record.strip_prefix(DELTA_PREFIX).map_or(0, |rest| {
        let digits = rest.find(',').expect("a delta's position ends at a comma");
        rest[..digits]
            .parse()
            .expect("a delta's position is a count")
    })
}

/// Runs to completion, recording every boundary.
fn run_recorded(
    problem: &MigrationProblem,
    cluster: &Cluster,
    faults: &FaultPlan,
    solver: &dyn Solver,
) -> Run {
    let cfg = config();
    let schedule = solver.solve(problem).expect("solvable");
    let mut exec =
        Executor::new(problem, &schedule, cluster, faults, &cfg, solver).expect("executor builds");
    let (mut checkpoints, mut records) = (Vec::new(), Vec::new());
    loop {
        checkpoints.push(exec.checkpoint_json());
        records.push(exec.journal_record());
        if exec.step().expect("step") == StepOutcome::Finished {
            break;
        }
    }
    let report = exec.into_report();
    Run {
        schedule,
        checkpoints,
        records,
        replans: report.replans,
        report: report.to_json(),
    }
}

/// Revives from `checkpoint`, a full record or a chain of the run that
/// started from `schedule`, and runs to completion.
fn resume_to_report(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
    faults: &FaultPlan,
    solver: &dyn Solver,
    checkpoint: &str,
) -> dmig_sim::ExecReport {
    let cfg = config();
    let mut exec = Executor::resume(problem, schedule, cluster, faults, &cfg, solver, checkpoint)
        .expect("checkpoint restores");
    while exec.step().expect("step") == StepOutcome::Running {}
    exec.into_report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill at any sampled boundary, at any thread count: the resumed
    /// run's report is byte-identical and the accounting exact.
    #[test]
    fn resume_from_any_boundary_is_byte_identical(
        n in 3usize..7,
        m in 4usize..14,
        gseed in 0u64..1000,
        fseed in 0u64..1000,
        crash in proptest::bool::ANY,
        degrade in proptest::bool::ANY,
        flaky in proptest::bool::ANY,
        kill in 0u64..1000,
        threads in 1usize..5,
    ) {
        let problem = instance(n, m, gseed);
        let faults = plan(n, fseed, crash, degrade, flaky);
        faults.validate(problem.num_disks()).expect("plan valid");
        let cluster = Cluster::uniform(problem.num_disks(), 1.0);
        let solver = ParallelSolver::with_threads(Box::new(AutoSolver), threads);
        let run = run_recorded(&problem, &cluster, &faults, &solver);
        let checkpoints = &run.checkpoints;

        // Sample one kill boundary from the run's own length.
        let at = (kill as usize * checkpoints.len() / 1000).min(checkpoints.len() - 1);
        let cfg = config();
        for ck in [checkpoints[at].clone(), run.chain(at)] {
            let resumed =
                resume_to_report(&problem, &run.schedule, &cluster, &faults, &solver, &ck);
            prop_assert_eq!(
                resumed.to_json(),
                run.report.clone(),
                "kill at boundary {} of {} diverged",
                at,
                checkpoints.len()
            );
            prop_assert_eq!(resumed.delivered() + resumed.lost(), problem.num_items());

            // A restored executor re-serializes to the exact same document.
            let revived =
                Executor::resume(&problem, &run.schedule, &cluster, &faults, &cfg, &solver, &ck)
                    .expect("restores");
            prop_assert_eq!(&revived.checkpoint_json(), &checkpoints[at]);
        }
        // `restore` reads a full record on its own, as it always has.
        let revived = Executor::restore(&problem, &cluster, &faults, &cfg, &solver, &checkpoints[at])
            .expect("restores");
        prop_assert_eq!(&revived.checkpoint_json(), &checkpoints[at]);
    }
}

/// The CI-shaped scenario: a crash with a spare, a degradation, and flaky
/// transfers.
fn ci_faults() -> FaultPlan {
    FaultPlan {
        seed: 2026,
        crashes: vec![CrashFault {
            disk: 2.into(),
            time: 0.5,
            replacement: Some(5.into()),
        }],
        degradations: vec![DegradeFault {
            disk: 1.into(),
            time: 0.25,
            factor: 0.4,
            recover_at: Some(8.0),
        }],
        flaky: Some(FlakySpec { probability: 0.1 }),
    }
}

/// Exhaustive sweep: every boundary of crash, degrade, and flaky runs
/// with replanning is a valid resume point, from its single checkpoint
/// and from its journal chain, and the chain restores to exactly the
/// state the uninterrupted run had there, whether its base is the plan or
/// a replan's full record. The journal holds one full record per replan
/// and no other.
#[test]
fn every_boundary_of_a_faulty_run_resumes_exactly() {
    // Seeded so that the combined scenario replans twice.
    let problem = instance(5, 12, 37);
    let scenarios = [
        ("crash+degrade+flaky", ci_faults()),
        ("crash", plan(5, 6, true, false, false)),
        ("degrade", plan(5, 6, false, true, false)),
        ("flaky", plan(5, 6, false, false, true)),
    ];
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let cfg = config();
    for (name, faults) in &scenarios {
        faults.validate(problem.num_disks()).unwrap();
        for threads in [1usize, 4] {
            let solver = ParallelSolver::with_threads(Box::new(AutoSolver), threads);
            let run = run_recorded(&problem, &cluster, faults, &solver);
            assert!(
                run.checkpoints.len() >= 3,
                "{name}: the scenario must span rounds"
            );
            assert!(run.deltas() >= 1, "{name}: the journal must hold deltas");
            assert_eq!(
                (run.records.len() - run.deltas()) as u64,
                run.replans,
                "{name}: one full record per replan"
            );
            for at in 0..run.checkpoints.len() {
                let chain = run.chain(at);
                let revived = Executor::resume(
                    &problem,
                    &run.schedule,
                    &cluster,
                    faults,
                    &cfg,
                    &solver,
                    &chain,
                )
                .unwrap_or_else(|e| panic!("{name} threads {threads}: boundary {at}: {e}"));
                assert_eq!(
                    revived.checkpoint_json(),
                    run.checkpoints[at],
                    "{name} threads {threads}: chain at boundary {at} restored another state"
                );
                for ck in [&run.checkpoints[at], &chain] {
                    let resumed =
                        resume_to_report(&problem, &run.schedule, &cluster, faults, &solver, ck);
                    assert_eq!(
                        resumed.to_json(),
                        run.report,
                        "{name} threads {threads}: boundary {at} diverged"
                    );
                }
            }
        }
    }
    // The combined scenario replans, so its journal restarts the chain
    // with a full record mid-run, once per replan.
    let solver = ParallelSolver::with_threads(Box::new(AutoSolver), 1);
    let run = run_recorded(&problem, &cluster, &ci_faults(), &solver);
    let fulls = run.records.len() - run.deltas();
    assert!(fulls >= 2, "a replan must force a full record: {fulls}");
    assert!(
        run.records[0].starts_with(DELTA_PREFIX),
        "the chain starts at the plan"
    );
}

/// Double interruption: resume from a journal chain, journal a few
/// boundaries as a resumed session does (the chain's next delta, then one
/// record per round, full only after a replan), get killed again, resume
/// from the chain the whole journal now holds. At every boundary of the
/// second session that chain restores the uninterrupted run's state, and
/// it lands on the reference report, at 1 and 4 threads.
#[test]
fn chained_resumes_compose() {
    let problem = instance(4, 10, 7);
    let faults = plan(4, 99, true, true, true);
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let cfg = config();
    for threads in [1usize, 4] {
        let solver = ParallelSolver::with_threads(Box::new(AutoSolver), threads);
        let run = run_recorded(&problem, &cluster, &faults, &solver);
        assert!(run.replans >= 1, "the scenario must replan");
        for kill in 0..run.records.len() {
            // The journal of the first session, killed after boundary `kill`.
            let mut journal = run.records[..=kill].to_vec();
            let mut exec = Executor::resume(
                &problem,
                &run.schedule,
                &cluster,
                &faults,
                &cfg,
                &solver,
                &chain_at(&journal, kill),
            )
            .expect("restores");
            // The second session's first record is the chain's next delta,
            // at the boundary the first session died at.
            let first = exec.journal_record();
            assert!(
                first.starts_with(&format!(
                    "{DELTA_PREFIX}{},",
                    chain_position(&journal[kill]) + 1
                )),
                "threads {threads}, kill {kill}: the session continues the chain: {first:.60}"
            );
            journal.push(first);
            let mut at = kill;
            loop {
                let chain = chain_at(&journal, journal.len() - 1);
                let revived = Executor::resume(
                    &problem,
                    &run.schedule,
                    &cluster,
                    &faults,
                    &cfg,
                    &solver,
                    &chain,
                )
                .unwrap_or_else(|e| panic!("threads {threads}, kill {kill}, at {at}: {e}"));
                assert_eq!(
                    revived.checkpoint_json(),
                    run.checkpoints[at],
                    "threads {threads}, kill {kill}: the chain at boundary {at} restored another state"
                );
                if at >= kill + 3 || exec.step().expect("step") == StepOutcome::Finished {
                    break;
                }
                journal.push(exec.journal_record());
                at += 1;
            }
            // Killed again: the chain of the whole journal finishes the run.
            let chain = chain_at(&journal, journal.len() - 1);
            let resumed =
                resume_to_report(&problem, &run.schedule, &cluster, &faults, &solver, &chain);
            assert_eq!(
                resumed.to_json(),
                run.report,
                "threads {threads}, kill {kill}"
            );
        }
    }
}

/// A round changes a few dozen of ~1600 items, so a delta is a small
/// fraction of a full record. A fault-free run journals no full record:
/// its chain starts at the plan.
#[test]
fn deltas_stay_a_tenth_of_a_full_record() {
    let problem = instance(40, 1600, 11);
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let (faults, cfg, solver) = (FaultPlan::default(), config(), AutoSolver);
    let run = run_recorded(&problem, &cluster, &faults, &solver);
    let full = run.checkpoints[0].len();
    assert!(
        run.deltas() == run.records.len() && run.deltas() >= 40,
        "a fault-free run journals a delta per boundary and no full record"
    );
    for (at, record) in run.records.iter().enumerate() {
        assert!(
            record.len() * 10 <= full,
            "delta at boundary {at} is {} bytes, a full record {full}",
            record.len()
        );
    }
    let revived = Executor::resume(
        &problem,
        &run.schedule,
        &cluster,
        &faults,
        &cfg,
        &solver,
        &run.chain(run.records.len() - 1),
    )
    .expect("restores");
    assert_eq!(revived.checkpoint_json(), *run.checkpoints.last().unwrap());
}

#[test]
fn corrupt_checkpoints_are_rejected_with_diagnostics() {
    let problem = instance(3, 6, 1);
    let faults = FaultPlan::default();
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let solver = AutoSolver;
    let cfg = config();
    let run = run_recorded(&problem, &cluster, &faults, &solver);
    let good = &run.checkpoints[0];

    for (mangle, needle) in [
        ("not json at all".to_string(), "unparseable"),
        (
            good.replace("dmig-exec-ckpt/1", "dmig-exec-ckpt/999"),
            "schema",
        ),
        (good.replace("\"disks\": 4", "\"disks\": 9"), "disk"),
    ] {
        let err = Executor::restore(&problem, &cluster, &faults, &cfg, &solver, &mangle)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ExecError::Checkpoint(_)),
            "{mangle:.60}: {err}"
        );
        assert!(err.to_string().contains(needle), "{err}");
    }

    // A checkpoint from a different instance shape must not restore.
    let other = instance(5, 6, 1);
    let err = Executor::restore(
        &other,
        &Cluster::uniform(6, 1.0),
        &faults,
        &cfg,
        &solver,
        good,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, ExecError::Checkpoint(_)), "{err}");

    // Delta chains: every record that does not fit its predecessor is
    // rejected, naming its line. The fault-free run's chain starts at the
    // plan: its first delta, at the first boundary, changes nothing, so it
    // applies to the full record of that boundary as well.
    let problem = instance(4, 16, 3);
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let run = run_recorded(&problem, &cluster, &faults, &solver);
    assert!(run.deltas() >= 3, "the run must journal three deltas");
    let full = &run.checkpoints[0];
    let (d1, d2, d3) = (&run.records[0], &run.records[1], &run.records[2]);
    // A fault-free run never touches bandwidths: every delta has `"bw": []`.
    assert!(d1.contains("\"bw\": []"), "{d1}");
    // Cut one byte into the first `fates` pair: a truncated array.
    let truncated = &d2[..d2.find("\"fates\": [[").expect("round 1 delivers items") + 12];

    for (chain, needle) in [
        (
            format!(
                "{full}\n{}",
                d1.replace("\"bw\": []", "\"bw\": [[9,\"0\"]]")
            ),
            "line 2: bw[0]: index 9 is out of range for 5 entries",
        ),
        (format!("{full}\n{d2}"), "line 2: delta 2 does not chain"),
        (
            format!("{full}\n{d1}\n{d1}"),
            "line 3: delta 1 does not chain",
        ),
        (
            format!("{full}\n{d1}\n{full}"),
            "line 3: a full record can only start",
        ),
        (
            format!("{full}\n{}", d1.replace("\"replans\": 0", "\"replans\": 1")),
            "line 2: delta 1 records 1 replans after 0",
        ),
        (
            format!("{full}\n{}", d1.replace("\"bw\": []", "\"bw\": [[0]]")),
            "line 2: bw[0] is not an [index, value] pair",
        ),
        (format!("{full}\n{d1}\n{truncated}"), "line 3: unparseable"),
        // Without the plan, a chain cannot start at a delta.
        (d1.clone(), "line 1: a delta record needs the full record"),
        (
            format!("{d1}\n{d2}"),
            "line 1: a delta record needs the full record",
        ),
    ] {
        let err = Executor::restore(&problem, &cluster, &faults, &cfg, &solver, &chain)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ExecError::Checkpoint(_)),
            "{chain:.80}: {err}"
        );
        assert!(err.to_string().contains(needle), "want `{needle}`: {err}");
    }

    // With the plan as its base, a chain of deltas must start at delta 1
    // and chain on from there; a chain that starts full reads as above.
    let resume = |chain: &str| {
        Executor::resume(
            &problem,
            &run.schedule,
            &cluster,
            &faults,
            &cfg,
            &solver,
            chain,
        )
    };
    assert!(resume(&format!("{d1}\n{d2}\n{d3}")).is_ok());
    for (chain, needle) in [
        (d2.clone(), "line 1: delta 2 does not chain"),
        (format!("{d1}\n{d3}"), "line 2: delta 3 does not chain"),
        (format!("\n{d1}\n\n{d1}"), "line 4: delta 1 does not chain"),
        (
            format!("{d1}\n{full}"),
            "line 2: a full record can only start",
        ),
        (format!("{d1}\n{truncated}"), "line 2: unparseable"),
        (format!("{full}\n{d2}"), "line 2: delta 2 does not chain"),
        (
            d1.replace("\"disks\": 5", "\"disks\": 9"),
            "line 1: checkpoint is for a 9-disk cluster",
        ),
    ] {
        let err = resume(&chain).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ExecError::Checkpoint(_)),
            "{chain:.80}: {err}"
        );
        assert!(err.to_string().contains(needle), "want `{needle}`: {err}");
    }

    // A delta cut at any byte is an error, never a panic, whatever its
    // chain's base.
    for cut in 0..d2.len() {
        for chain in [
            format!("{full}\n{d1}\n{}", &d2[..cut]),
            format!("{d1}\n{}", &d2[..cut]),
        ] {
            if let Err(err) = resume(&chain) {
                assert!(matches!(err, ExecError::Checkpoint(_)), "cut {cut}: {err}");
            }
        }
    }
}

/// A cluster of the wrong size and a fault plan naming a disk the
/// instance lacks are rejected with the same error whatever the chain's
/// base: by `resume` through a chain that starts at the plan, which `new`
/// checks, and by `restore` through a full record.
#[test]
fn invalid_inputs_are_rejected_alike_from_either_base() {
    let problem = instance(3, 6, 1);
    let faults = FaultPlan::default();
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let solver = AutoSolver;
    let cfg = config();
    let run = run_recorded(&problem, &cluster, &faults, &solver);
    let (chain, full) = (run.chain(1), &run.checkpoints[1]);
    assert!(
        chain.starts_with(DELTA_PREFIX),
        "the chain's base is the plan"
    );
    let wrong_size = Cluster::uniform(problem.num_disks() + 1, 1.0);
    let unknown_disk = FaultPlan {
        crashes: vec![CrashFault {
            disk: problem.num_disks().into(),
            time: 0.5,
            replacement: None,
        }],
        ..FaultPlan::default()
    };
    for (cluster, faults, variant) in [
        (&wrong_size, &faults, "Sim("),
        (&cluster, &unknown_disk, "Fault("),
    ] {
        let errors = [
            Executor::resume(
                &problem,
                &run.schedule,
                cluster,
                faults,
                &cfg,
                &solver,
                &chain,
            ),
            Executor::restore(&problem, cluster, faults, &cfg, &solver, full),
        ]
        .map(|r| format!("{:?}", r.map(|_| ()).unwrap_err()));
        assert!(errors[0].starts_with(variant), "{}", errors[0]);
        assert_eq!(errors[0], errors[1]);
    }
}

/// A record whose `round_idx` is the makespan while items are still
/// pending, which only a journal edited on disk holds, resumed with
/// replanning off: the first step loses every pending item to a dead disk
/// and finishes, with every item accounted for, and the record after it
/// restores that state.
#[test]
fn an_exhausted_schedule_without_replanning_loses_what_is_pending() {
    let problem = instance(4, 16, 3);
    let faults = FaultPlan::default();
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let solver = AutoSolver;
    let run = run_recorded(&problem, &cluster, &faults, &solver);
    let rounds = run.schedule.rounds();
    assert!(rounds.len() >= 3, "the plan must span rounds");
    let at = 1;
    let record = run.records[at]
        .strip_suffix(&format!("\"round_idx\": {at}}}"))
        .expect("a record ends with its round");
    let record = format!("{record}\"round_idx\": {}}}", rounds.len());
    let chain = format!("{}\n{record}", run.records[..at].join("\n"));
    let cfg = ExecutorConfig {
        replan: false,
        ..config()
    };
    let mut exec = Executor::resume(
        &problem,
        &run.schedule,
        &cluster,
        &faults,
        &cfg,
        &solver,
        &chain,
    )
    .expect("the edited chain restores");
    assert_eq!(exec.step().expect("step"), StepOutcome::Finished);
    // The sweep notes the items it settles, so the next delta carries
    // their fates.
    let journal = format!("{chain}\n{}", exec.journal_record());
    let revived = Executor::resume(
        &problem,
        &run.schedule,
        &cluster,
        &faults,
        &cfg,
        &solver,
        &journal,
    )
    .expect("the longer chain restores");
    assert_eq!(revived.checkpoint_json(), exec.checkpoint_json());
    let report = exec.into_report();
    for (r, round) in rounds.iter().enumerate() {
        let want = if r < at {
            ItemFate::Delivered { redirected: false }
        } else {
            ItemFate::Lost(LostReason::DeadDisk)
        };
        for &e in round {
            assert_eq!(report.fates[e.index()], want, "item {e} of round {r}");
        }
    }
    let pending: usize = rounds[at..].iter().map(Vec::len).sum();
    assert_eq!(report.lost(), pending);
    assert_eq!(report.delivered() + report.lost(), problem.num_items());
}
