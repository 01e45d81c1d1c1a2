//! End-to-end benchmark of a dmig migration workspace.
//!
//! One *migration* is what an operator runs against a workspace:
//! `dmig migrate plan`, then `dmig migrate execute`, which is killed
//! mid-run, then `dmig migrate resume`. Every run checks that the resumed
//! `report.json` is byte-identical to the uninterrupted one, that it
//! matches the report of the first (warm-up) migration, and that every
//! item is accounted as delivered or lost.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` calls the CLI entry point (`dmig_cli::run`) in process and
//! reports the wall time of a whole migration and of its resume, plus the
//! time to generate the inputs. `--trace 1` performs the same migration as
//! direct calls into each crate, timing every call, and reports the time
//! per layer plus the work counts that explain it. Each run cycles through
//! a few instances drawn from `--seed`; a metric is the mean over instances
//! of the instance's median. The last line on stdout is one JSON object
//! with the results.
//!
//! The kill: `execute` fsyncs a checkpoint line into `journal.jsonl` at
//! every round boundary, so a `kill -9` leaves the journal prefix through
//! the last synced checkpoint and no `report.json`. The benchmark recreates
//! exactly that state by cutting a finished run's journal after its middle
//! checkpoint and deleting the report, which keeps everything in one
//! process and makes the kill point a function of the input alone.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_obs::{keys, Value};
use dmig_sim::executor::CHECKPOINT_SCHEMA;
use dmig_sim::{Cluster, Executor, ExecutorConfig, FaultPlan, StepOutcome};
use dmig_workloads::availability::AvailabilityModel;

/// One benchmark input family.
///
/// Disk `v` has capacity `caps[v % caps.len()]` and takes part in exactly
/// `capacity × load` items, where `load` is `hot_load` on every tenth disk
/// and `base_load` elsewhere. The seed only decides which disks each item
/// connects, so the lower bound `Δ'` (the most rounds any disk needs) is
/// `hot_load` for every seed and the amount of work barely moves between
/// seeds, while the instances still differ.
struct Workload {
    name: &'static str,
    disks: usize,
    caps: &'static [u32],
    base_load: u32,
    hot_load: u32,
    /// Availability model compiled into the fault plan; `None` runs
    /// fault-free.
    model: Option<&'static str>,
    /// Whether the executor re-solves the residual after failures.
    replan: bool,
}

/// Rack-correlated slowdowns, independently ageing disks, a correlated
/// crash domain with spares to redirect to, and flaky transfers: the
/// failures the executor's recovery path (replan, redirect, retry) exists
/// for.
const CHAOS_MODEL: &str = r#"
horizon = 40.0

[[domain]]
name = "rack-a"
disks = "0-15"
mode = "degrade"
mtbf = 12.0
mttr = 4.0
factor = 0.4
correlated = true

[[domain]]
name = "aged"
disks = "16-47"
mode = "degrade"
mtbf = 60.0
mttr = 3.0
factor = 0.3

[[domain]]
name = "zone-b"
disks = "48-51"
mode = "crash"
mtbf = 15.0
correlated = true

[spares]
disks = "156-159"

[flaky]
probability = 0.02
"#;

/// Seed the availability model is compiled under. It stays fixed so every
/// run meets the same failure history; a per-seed history would make the
/// number of replans, and with it the timings, swing from seed to seed.
const FAULT_SEED: u64 = 2011;

// Each workload stresses a different layer (see BENCHMARK.json). `wide`
// has many items over few rounds, so restoring its large checkpoints
// dominates, and its even capacities take the Euler-orientation solver.
// `long` has few items over many rounds, so the per-round checkpoint and
// journal fsync dominate, and its odd capacities take the general solver.
// `chaos` exercises the executor's failure recovery (replans, redirects,
// retries), which re-enters the solver.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wide",
        disks: 300,
        caps: &[2, 4, 6],
        base_load: 4,
        hot_load: 6,
        model: None,
        replan: false,
    },
    Workload {
        name: "long",
        disks: 40,
        caps: &[1, 3],
        base_load: 40,
        hot_load: 48,
        model: None,
        replan: false,
    },
    Workload {
        name: "chaos",
        disks: 160,
        caps: &[2, 3, 4],
        base_load: 10,
        hot_load: 14,
        model: Some(CHAOS_MODEL),
        replan: true,
    },
];

/// Instances per run, each from its own seed drawn from the run's seed.
/// Migrations cycle through them, so a run's medians describe the
/// workload rather than one draw of it.
const INSTANCES: usize = 4;

/// Times a run sets up to report `setup_s` (the median).
const SETUP_REPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} VALUE"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("bad --seconds: must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: a small seeded generator, enough to shuffle endpoints.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The workload's instance under `seed`, in the text format of
/// `dmig migrate plan`: every disk's endpoint slots shuffled and paired,
/// with self-pairs broken by exchanging an endpoint with another item.
fn instance_text(w: &Workload, seed: u64) -> Result<String, String> {
    let cap = |v: usize| w.caps[v % w.caps.len()];
    let load = |v: usize| {
        if v.is_multiple_of(10) {
            w.hot_load
        } else {
            w.base_load
        }
    };
    let mut ends: Vec<usize> = (0..w.disks)
        .flat_map(|v| std::iter::repeat_n(v, (cap(v) * load(v)) as usize))
        .collect();
    if ends.len() % 2 == 1 {
        return Err(format!("workload {} has an odd endpoint count", w.name));
    }
    let mut rng = SplitMix(seed);
    for i in (1..ends.len()).rev() {
        ends.swap(i, rng.below(i + 1));
    }
    for i in (0..ends.len()).step_by(2) {
        while ends[i] == ends[i + 1] {
            let j = 2 * rng.below(ends.len() / 2);
            if ends[j] != ends[i] && ends[j + 1] != ends[i] {
                ends.swap(i + 1, j);
            }
        }
    }
    let caps: Vec<String> = (0..w.disks).map(|v| cap(v).to_string()).collect();
    let mut text = format!("nodes {}\ncaps {}\n", w.disks, caps.join(" "));
    for pair in ends.chunks(2) {
        let _ = writeln!(text, "edge {} {}", pair[0], pair[1]);
    }
    Ok(text)
}

/// One generated instance and its fault plan, on disk where the CLI reads
/// them.
struct Inputs {
    instance: PathBuf,
    faults: PathBuf,
    items: usize,
}

fn make_inputs(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let problem = dmig_cli::instance::parse_instance(&instance_text(w, seed)?)
        .map_err(|e| format!("generated instance does not parse: {e}"))?;
    let faults_text = match w.model {
        Some(text) => {
            let model = AvailabilityModel::parse(text).map_err(|e| e.to_string())?;
            model.validate().map_err(|e| e.to_string())?;
            model.compile(FAULT_SEED)
        }
        None => "seed = 0\n".to_string(),
    };
    let inputs = Inputs {
        instance: dir.join("instance.txt"),
        faults: dir.join("faults.toml"),
        items: problem.num_items(),
    };
    write(
        &inputs.instance,
        &dmig_cli::instance::to_instance_text(&problem),
    )?;
    write(&inputs.faults, &faults_text)?;
    Ok(inputs)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs one CLI command and returns its wall time.
fn cli_timed(args: &[&str]) -> Result<Duration, String> {
    let args: Vec<String> = args.iter().map(ToString::to_string).collect();
    let started = Instant::now();
    let out = dmig_cli::run(&args);
    let elapsed = started.elapsed();
    if out.code != 0 {
        return Err(format!("dmig {}: {}", args.join(" "), out.stdout.trim()));
    }
    Ok(elapsed)
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("path {} is not UTF-8", p.display()))
}

fn checkpoint_prefix() -> String {
    format!("{{\"schema\": \"{CHECKPOINT_SCHEMA}\"")
}

/// Cuts a finished run's journal after its middle checkpoint line, where a
/// `kill -9` right after that checkpoint's fsync would have left it.
fn cut_journal(journal: &Path) -> Result<(), String> {
    let bytes = fs::read(journal).map_err(|e| format!("cannot read journal: {e}"))?;
    let prefix = checkpoint_prefix();
    let mut ends = Vec::new();
    let mut offset = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.starts_with(prefix.as_bytes()) {
            ends.push(offset);
        }
    }
    if ends.len() < 3 {
        return Err(format!(
            "journal holds {} checkpoints, too few to kill mid-run",
            ends.len()
        ));
    }
    let cut = ends[ends.len() / 2] as u64;
    fs::OpenOptions::new()
        .write(true)
        .open(journal)
        .and_then(|f| f.set_len(cut))
        .map_err(|e| format!("cannot cut journal: {e}"))
}

/// Checks that a report accounts every item exactly once.
fn check_report(report: &str, items: usize) -> Result<(), String> {
    let doc = Value::parse(report).map_err(|e| format!("report is not JSON: {e}"))?;
    let count = |key: &str| doc.get_path(key).and_then(Value::as_f64);
    let fates = doc
        .get_path("fates")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    match (count("delivered"), count("lost")) {
        (Some(d), Some(l)) if d + l == items as f64 && fates == items && d > 0.0 => Ok(()),
        (d, l) => Err(format!(
            "report accounts delivered {d:?} + lost {l:?} with {fates} fates for {items} items"
        )),
    }
}

/// Compares a finished report against the first migration's.
fn check_same(report: &str, reference: Option<&str>, what: &str) -> Result<(), String> {
    match reference {
        Some(want) if want != report => Err(format!("{what} differs from the reference report")),
        _ => Ok(()),
    }
}

// --- trace 0: the CLI, command by command --------------------------------

struct CommandTimes {
    /// `plan`, `execute` and `resume` together.
    migration: Duration,
    resume: Duration,
}

/// One migration through the CLI. Returns the command timings and the
/// final report.
fn migrate_cli(
    inputs: &Inputs,
    ws: &Path,
    replan: bool,
    reference: Option<&str>,
) -> Result<(CommandTimes, String), String> {
    let _ = fs::remove_dir_all(ws);
    let ws_arg = path_str(ws)?;
    let mut plan_args = vec![
        "migrate",
        "plan",
        path_str(&inputs.instance)?,
        "--workspace",
        ws_arg,
        "--faults",
        path_str(&inputs.faults)?,
        "--threads",
        "1",
    ];
    if replan {
        plan_args.push("--replan");
    }
    let plan = cli_timed(&plan_args)?;
    let execute = cli_timed(&["migrate", "execute", "--workspace", ws_arg])?;
    let report = read(&ws.join("report.json"))?;
    check_report(&report, inputs.items)?;
    check_same(&report, reference, "execute report")?;

    // The state a `kill -9` mid-run leaves: a journal prefix, no report.
    cut_journal(&ws.join("journal.jsonl"))?;
    fs::remove_file(ws.join("report.json")).map_err(|e| format!("cannot delete report: {e}"))?;
    let resume = cli_timed(&["migrate", "resume", "--workspace", ws_arg])?;
    let resumed = read(&ws.join("report.json"))?;
    if resumed != report {
        return Err("resumed report differs from the uninterrupted one".to_string());
    }
    let _ = fs::remove_dir_all(ws);
    Ok((
        CommandTimes {
            migration: plan + execute + resume,
            resume,
        },
        report,
    ))
}

// --- trace 1: the same migration, layer by layer -------------------------

/// Time per layer and work counts of one migration.
#[derive(Default)]
struct LayerSample {
    parse: Duration,
    faults: Duration,
    solve: Duration,
    validate: Duration,
    step: Duration,
    checkpoint: Duration,
    journal: Duration,
    restore: Duration,
    report: Duration,
    pipeline: Duration,
    flow_solves: u64,
    euler_splits: u64,
    rounds: u64,
    replans: u64,
    journal_bytes: u64,
}

impl LayerSample {
    fn layers_total(&self) -> Duration {
        self.parse
            + self.faults
            + self.solve
            + self.validate
            + self.step
            + self.checkpoint
            + self.journal
            + self.restore
            + self.report
    }
}

/// Adds the time `f` takes to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

fn open_journal(path: &Path) -> Result<(), String> {
    dmig_obs::events::reset();
    dmig_obs::events::open_sink(path_str(path)?)
        .map_err(|e| format!("cannot open journal: {e}"))?;
    dmig_obs::events::set_enabled(true);
    Ok(())
}

fn close_journal() {
    dmig_obs::events::set_enabled(false);
    dmig_obs::events::close_sink();
    dmig_obs::events::reset();
}

fn journal_checkpoint(exec: &Executor<'_>, s: &mut LayerSample) -> Result<(), String> {
    let line = timed(&mut s.checkpoint, || exec.checkpoint_json());
    let appended = timed(&mut s.journal, || {
        let n = dmig_obs::events::append_sink_line(&line)?;
        dmig_obs::events::sync_sink()?;
        Ok::<u64, std::io::Error>(n)
    })
    .map_err(|e| format!("cannot append to journal: {e}"))?;
    s.journal_bytes += appended;
    Ok(())
}

/// Steps the executor to the end, journaling a checkpoint before the first
/// step and after every further one, as `migrate execute` does.
fn run_to_end(exec: &mut Executor<'_>, s: &mut LayerSample) -> Result<(), String> {
    journal_checkpoint(exec, s)?;
    loop {
        let outcome = timed(&mut s.step, || exec.step()).map_err(|e| e.to_string())?;
        if outcome == StepOutcome::Finished {
            return Ok(());
        }
        journal_checkpoint(exec, s)?;
    }
}

/// One migration as direct calls into each crate, with the executor
/// policy, cluster and solver `migrate plan` persists.
fn migrate_layers(
    inputs: &Inputs,
    ws: &Path,
    replan: bool,
    reference: Option<&str>,
) -> Result<LayerSample, String> {
    let _ = fs::remove_dir_all(ws);
    fs::create_dir_all(ws).map_err(|e| format!("cannot create {}: {e}", ws.display()))?;
    let journal = ws.join("journal.jsonl");
    let mut s = LayerSample::default();
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    let started = Instant::now();

    let problem = timed(&mut s.parse, || {
        let text = read(&inputs.instance)?;
        dmig_cli::instance::parse_instance(&text).map_err(|e| e.to_string())
    })?;
    let faults = timed(&mut s.faults, || {
        let text = read(&inputs.faults)?;
        FaultPlan::parse_checked(&text, problem.num_disks()).map_err(|e| e.to_string())
    })?;
    let solver = ParallelSolver::with_threads(Box::new(AutoSolver), 1);
    let schedule = timed(&mut s.solve, || solver.solve(&problem)).map_err(|e| e.to_string())?;
    timed(&mut s.validate, || schedule.validate(&problem)).map_err(|e| e.to_string())?;
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let config = ExecutorConfig {
        replan,
        ..ExecutorConfig::default()
    };

    open_journal(&journal)?;
    let mut exec = timed(&mut s.step, || {
        Executor::new(&problem, &schedule, &cluster, &faults, &config, &solver)
    })
    .map_err(|e| e.to_string())?;
    run_to_end(&mut exec, &mut s)?;
    close_journal();
    let report = timed(&mut s.report, || exec.into_report());
    // Work counts of the uninterrupted run.
    let snap = dmig_obs::snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    s.flow_solves = counter(keys::FLOW_SOLVES);
    s.euler_splits = counter(keys::EULER_SPLITS);
    s.rounds = report.sim.num_rounds() as u64;
    s.replans = report.replans;
    let report = timed(&mut s.report, || report.to_json());

    let kill_started = Instant::now();
    cut_journal(&journal)?;
    let kill = kill_started.elapsed();

    let mut exec = timed(&mut s.restore, || {
        let text = read(&journal)?;
        let prefix = checkpoint_prefix();
        let ck = text
            .lines()
            .rfind(|l| l.starts_with(&prefix))
            .ok_or("journal holds no checkpoint")?;
        Executor::restore(&problem, &cluster, &faults, &config, &solver, ck)
            .map_err(|e| e.to_string())
    })?;
    open_journal(&journal)?;
    run_to_end(&mut exec, &mut s)?;
    close_journal();
    let resumed = timed(&mut s.report, || exec.into_report().to_json());
    s.pipeline = started.elapsed() - kill;
    check_report(&report, inputs.items)?;
    check_same(&report, reference, "layered report")?;
    if resumed != report {
        return Err("resumed report differs from the uninterrupted one".to_string());
    }

    dmig_obs::set_enabled(false);
    let _ = fs::remove_dir_all(ws);
    Ok(s)
}

// --- statistics and output -----------------------------------------------

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One metric's samples, grouped by the instance they were measured on.
struct Metric {
    name: &'static str,
    unit: &'static str,
    by_instance: Vec<Vec<f64>>,
}

impl Metric {
    /// The mean over instances of each instance's median. Instances differ
    /// in cost, so a median over all samples would jump between them.
    fn value(&self) -> f64 {
        let medians: Vec<f64> = self
            .by_instance
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }
}

/// Samples of one run, `(instance, sample)`.
type Samples<T> = Vec<(usize, T)>;

fn metric<T>(
    name: &'static str,
    unit: &'static str,
    samples: &Samples<T>,
    f: impl Fn(&T) -> f64,
) -> Metric {
    let mut by_instance = vec![Vec::new(); INSTANCES];
    for (i, s) in samples {
        by_instance[*i].push(f(s));
    }
    Metric {
        name,
        unit,
        by_instance,
    }
}

fn render(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value(),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Everything a run does before it measures: generates the instances under
/// seeds drawn from `seed`, then migrates each once through the CLI, which
/// warms caches and records the report every later migration of that
/// instance must reproduce byte for byte.
fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<(Vec<Inputs>, Vec<String>), String> {
    let mut seeds = SplitMix(seed);
    let mut inputs = Vec::with_capacity(INSTANCES);
    let mut references = Vec::with_capacity(INSTANCES);
    for i in 0..INSTANCES {
        let sub = dir.join(format!("input-{i}"));
        fs::create_dir_all(&sub).map_err(|e| format!("cannot create {}: {e}", sub.display()))?;
        let input = make_inputs(w, seeds.next(), &sub)?;
        references.push(migrate_cli(&input, &dir.join("ws"), w.replan, None)?.1);
        inputs.push(input);
    }
    Ok((inputs, references))
}

/// Runs migrations until `budget` is spent, at least one, cycling through
/// `instances`. Returns the samples tagged with their instance, and the
/// numbers of migrations attempted and failed.
fn cycle<T>(
    instances: usize,
    budget: Duration,
    mut migrate: impl FnMut(usize) -> Result<T, String>,
) -> (Samples<T>, u64, u64) {
    let started = Instant::now();
    let (mut samples, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    while attempted == 0 || started.elapsed() < budget {
        let i = attempted as usize % instances;
        attempted += 1;
        match migrate(i) {
            Ok(s) => samples.push((i, s)),
            Err(e) => {
                failed += 1;
                eprintln!("migration {attempted} failed: {e}");
            }
        }
    }
    (samples, attempted, failed)
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut setup = Samples::new();
    let (mut inputs, mut references) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let (again, reports) = set_up(w, args.seed, dir)?;
        setup.push((0, started.elapsed().as_secs_f64()));
        if rep > 0 && reports != references {
            return Err("the same seed produced different reports".to_string());
        }
        (inputs, references) = (again, reports);
    }
    let ws = dir.join("ws");

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (metrics, attempted, failed) = if args.trace {
        let (samples, attempted, failed) = cycle(inputs.len(), budget, |i| {
            migrate_layers(&inputs[i], &ws, w.replan, Some(&references[i]))
        });
        let time =
            |name, f: fn(&LayerSample) -> Duration| metric(name, "ms", &samples, |s| ms(f(s)));
        let count =
            |name, f: fn(&LayerSample) -> u64| metric(name, "count", &samples, |s| f(s) as f64);
        let metrics = vec![
            time("cli.parse_ms", |s| s.parse),
            time("sim.faults_ms", |s| s.faults),
            time("core.solve_ms", |s| s.solve),
            time("core.validate_ms", |s| s.validate),
            time("sim.step_ms", |s| s.step),
            time("sim.checkpoint_ms", |s| s.checkpoint),
            time("obs.journal_ms", |s| s.journal),
            time("sim.restore_ms", |s| s.restore),
            time("sim.report_ms", |s| s.report),
            time("pipeline_ms", |s| s.pipeline),
            metric("coverage_pct", "%", &samples, |s| {
                100.0 * s.layers_total().as_secs_f64() / s.pipeline.as_secs_f64()
            }),
            count("core.flow_solves", |s| s.flow_solves),
            count("core.euler_splits", |s| s.euler_splits),
            count("sim.rounds", |s| s.rounds),
            count("sim.replans", |s| s.replans),
            metric("obs.journal_bytes", "B", &samples, |s| {
                s.journal_bytes as f64
            }),
        ];
        (metrics, attempted, failed)
    } else {
        let (samples, attempted, failed) = cycle(inputs.len(), budget, |i| {
            migrate_cli(&inputs[i], &ws, w.replan, Some(&references[i])).map(|(t, _)| t)
        });
        let metrics = vec![
            metric("migration_ms", "ms", &samples, |t| ms(t.migration)),
            metric("resume_ms", "ms", &samples, |t| ms(t.resume)),
            metric("setup_s", "s", &setup, |s| *s),
        ];
        (metrics, attempted, failed)
    };
    eprintln!(
        "workload {} seed {}: {} instances of {} items, {attempted} migrations in {:.1} s",
        w.name,
        args.seed,
        inputs.len(),
        inputs[0].items,
        started.elapsed().as_secs_f64()
    );
    for m in &metrics {
        let medians: Vec<String> = m
            .by_instance
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| format!("{:.4} (n={})", median(v), v.len()))
            .collect();
        eprintln!("{:>20} {:<5}: {}", m.name, m.unit, medians.join("  "));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        render(&metrics)
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wide|long|chaos> --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Working files live inside the directory the benchmark runs from and
    // are removed on the way out.
    let root = PathBuf::from(".perfbench_work");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir(&root);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
