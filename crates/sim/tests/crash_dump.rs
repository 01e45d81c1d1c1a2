//! Panic-hook crash dump: a run that dies mid-execution leaves a
//! parseable `dmig-crash/1` document whose last ring event is exactly the
//! last line the panic hook wrote to the JSONL sink.

use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{MigrationProblem, MigrationSchedule, SolveError};
use dmig_graph::GraphBuilder;
use dmig_sim::faults::CrashFault;
use dmig_sim::{execute, Cluster, ExecutorConfig, FaultPlan};

/// Plans fine the first time (so `execute` gets a real schedule) but dies
/// when the executor comes back for a replan.
struct PanickingSolver;

impl Solver for PanickingSolver {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn solve(&self, _problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        panic!("injected replan failure for the crash-dump test");
    }
}

#[test]
fn panicking_run_leaves_a_parseable_crash_dump() {
    let g = GraphBuilder::new()
        .nodes(4)
        .edge(0, 1)
        .edge(0, 1)
        .edge(1, 2)
        .edge(1, 2)
        .build();
    let problem = MigrationProblem::uniform(g, 2).unwrap();
    let schedule = AutoSolver.solve(&problem).unwrap();
    let cluster = Cluster::uniform(4, 1.0);
    let faults = FaultPlan {
        crashes: vec![CrashFault {
            disk: 2.into(),
            time: 0.5,
            replacement: Some(3.into()),
        }],
        ..FaultPlan::default()
    };
    let config = ExecutorConfig {
        replan: true,
        ..ExecutorConfig::default()
    };

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sink = dir.join(format!("dmig-crashtest-{pid}.jsonl"));
    let dump = dir.join(format!("dmig-crashtest-{pid}-crash.json"));
    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&dump);

    dmig_obs::events::reset();
    dmig_obs::events::open_sink(sink.to_str().unwrap()).expect("sink opens");
    dmig_obs::events::set_enabled(true);
    dmig_obs::events::set_crash_path(Some(dump.clone()));

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(
            &problem,
            &schedule,
            &cluster,
            &faults,
            &config,
            &PanickingSolver,
        )
    }));

    // Read before the sink closes: closing writes whatever the journal-mode
    // sink still holds, which would hide a hook that forgot to.
    let jsonl = std::fs::read_to_string(&sink).expect("sink readable");

    dmig_obs::events::set_crash_path(None);
    dmig_obs::events::set_enabled(false);
    dmig_obs::events::close_sink();
    dmig_obs::events::reset();

    assert!(result.is_err(), "the injected replan panic must surface");

    let dump_text = std::fs::read_to_string(&dump).expect("crash dump written");
    let doc = dmig_obs::Value::parse(dump_text.trim()).expect("crash dump parses as JSON");
    assert_eq!(
        doc.get_path("schema").and_then(dmig_obs::Value::as_str),
        Some(dmig_obs::events::CRASH_SCHEMA)
    );
    let message = doc
        .get_path("message")
        .and_then(dmig_obs::Value::as_str)
        .expect("message field");
    assert!(message.contains("injected replan failure"));
    let events = doc
        .get_path("events")
        .and_then(dmig_obs::Value::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "the ring saw the round and the crash");

    // The dump's last ring event is byte-for-byte the last sink line: both
    // views come from the same renderer, and the hook writes the held lines
    // before the dump, so a crash leaves the file neither ahead of the dump
    // nor behind it.
    let last_line = jsonl.lines().last().expect("sink is non-empty");
    let last_parsed = dmig_obs::Value::parse(last_line).expect("sink line parses");
    assert_eq!(
        events.last().unwrap(),
        &last_parsed,
        "crash dump's last event must match the last flushed JSONL line"
    );

    // The stream contains the crash event that triggered the replan.
    assert!(
        jsonl.lines().any(|l| l.contains("\"kind\":\"crash\"")),
        "crash event missing from the stream: {jsonl}"
    );

    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&dump);
}
