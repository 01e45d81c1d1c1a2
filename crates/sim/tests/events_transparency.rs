//! Flight-recorder transparency and determinism.
//!
//! The two guarantees the `--events-out` stream ships with:
//!
//! * **Schedule transparency** — enabling the recorder changes neither the
//!   schedule nor a byte of the final `ExecReport::to_json`.
//! * **Thread invariance** — the JSONL stream itself is byte-identical at
//!   any solver thread count, because event payloads carry only
//!   simulated-time quantities.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::MigrationProblem;
use dmig_sim::faults::{CrashFault, FlakySpec};
use dmig_sim::{execute, Cluster, ExecutorConfig, FaultPlan};
use dmig_workloads::random::uniform_multigraph;
use proptest::prelude::*;

/// Event state is process-global; every test body holds this lock.
fn events_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dmig-events-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// `n` live disks plus one spare, uniform capacity 2 (mirrors the
/// executor proptests).
fn instance(n: usize, m: usize, seed: u64) -> MigrationProblem {
    let mut b = dmig_graph::GraphBuilder::new();
    for (_, ep) in uniform_multigraph(n, m, seed).edges() {
        b = b.edge(ep.u.index(), ep.v.index());
    }
    let g = b.nodes(n + 1).build();
    MigrationProblem::uniform(g, 2).expect("valid instance")
}

fn plan(n: usize, seed: u64, crash: bool, flaky: bool) -> FaultPlan {
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
    if flaky {
        p.flaky = Some(FlakySpec { probability: 0.3 });
    }
    p
}

/// Solves and executes; returns the schedule (debug form) and report JSON.
fn run(problem: &MigrationProblem, faults: &FaultPlan, threads: usize) -> (String, String) {
    let solver = ParallelSolver::with_threads(Box::new(AutoSolver), threads);
    let schedule = solver.solve(problem).expect("solvable");
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let config = ExecutorConfig {
        replan: true,
        retry_max: 3,
    };
    let report = execute(problem, &schedule, &cluster, faults, &config, &solver).expect("executes");
    (format!("{:?}", schedule.rounds()), report.to_json())
}

/// Same as [`run`] with the recorder streaming to a fresh sink; returns
/// `(schedule, report, jsonl)`.
fn run_with_events(
    problem: &MigrationProblem,
    faults: &FaultPlan,
    threads: usize,
) -> (String, String, String) {
    let path = temp_path(&format!("t{threads}"));
    dmig_obs::events::reset();
    dmig_obs::events::open_sink(path.to_str().expect("utf-8 temp path")).expect("sink opens");
    dmig_obs::events::set_enabled(true);
    let (sched, rep) = run(problem, faults, threads);
    dmig_obs::events::set_enabled(false);
    dmig_obs::events::close_sink();
    dmig_obs::events::reset();
    let jsonl = std::fs::read_to_string(&path).expect("jsonl readable");
    let _ = std::fs::remove_file(&path);
    (sched, rep, jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Recorder on vs off: identical schedule, byte-identical report.
    /// Recorder on at 1 vs 4 threads: byte-identical JSONL.
    #[test]
    fn events_are_schedule_transparent_and_thread_invariant(
        n in 3usize..6,
        m in 4usize..10,
        gseed in 0u64..500,
        fseed in 0u64..500,
        crash in proptest::bool::ANY,
        flaky in proptest::bool::ANY,
    ) {
        let _guard = events_lock();
        let problem = instance(n, m, gseed);
        let faults = plan(n, fseed, crash, flaky);
        faults.validate(problem.num_disks()).expect("plan valid");

        let (sched_off, rep_off) = run(&problem, &faults, 1);
        let (sched_1, rep_1, jsonl_1) = run_with_events(&problem, &faults, 1);
        let (_sched_4, rep_4, jsonl_4) = run_with_events(&problem, &faults, 4);

        prop_assert_eq!(&sched_off, &sched_1, "recorder changed the schedule");
        prop_assert_eq!(&rep_off, &rep_1, "recorder changed the report");
        prop_assert_eq!(&rep_1, &rep_4, "report diverged across threads");
        prop_assert_eq!(&jsonl_1, &jsonl_4, "JSONL diverged across threads");

        // The stream is non-empty, schema-stamped, line-parseable, and its
        // delivered/lost accounting agrees with the report's fates.
        prop_assert!(!jsonl_1.is_empty());
        let mut delivered = 0usize;
        let mut lost = 0usize;
        for line in jsonl_1.lines() {
            let v = dmig_obs::Value::parse(line).expect("each line is JSON");
            prop_assert_eq!(
                v.get_path("schema").and_then(dmig_obs::Value::as_str),
                Some(dmig_obs::events::EVENTS_SCHEMA)
            );
            match v.get_path("kind").and_then(dmig_obs::Value::as_str) {
                Some("item_delivered") => delivered += 1,
                Some("item_lost") => lost += 1,
                _ => {}
            }
        }
        prop_assert_eq!(delivered + lost, problem.num_items());
    }

    /// The sampling profiler is report-transparent: with the recorder on
    /// and the sampler ticking at an aggressive 1ms interval, both the
    /// schedule and the final report JSON stay byte-identical to the
    /// uninstrumented single-thread run, at 1 and 4 solver threads. The
    /// sampler only reads open spans and writes its own `prof.*`/`mem.*`
    /// keys — nothing the executor consults.
    #[test]
    fn sampler_is_report_transparent(
        n in 3usize..6,
        m in 4usize..10,
        gseed in 0u64..500,
        fseed in 0u64..500,
    ) {
        let _guard = events_lock();
        let problem = instance(n, m, gseed);
        let faults = plan(n, fseed, true, true);
        faults.validate(problem.num_disks()).expect("plan valid");

        let (sched_off, rep_off) = run(&problem, &faults, 1);
        for threads in [1usize, 4] {
            dmig_obs::reset();
            dmig_obs::set_enabled(true);
            let sampler = dmig_obs::sampler::start(std::time::Duration::from_millis(1));
            let (sched, rep) = run(&problem, &faults, threads);
            sampler.stop();
            dmig_obs::set_enabled(false);
            dmig_obs::reset();
            if threads == 1 {
                prop_assert_eq!(&sched_off, &sched, "sampler changed the schedule");
            }
            prop_assert_eq!(
                &rep_off, &rep,
                "sampler changed the report (threads = {})", threads
            );
        }
    }
}
