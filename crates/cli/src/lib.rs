//! `dmig` command-line planner.
//!
//! Subcommands (see `dmig help`):
//!
//! * `solve <file> [--solver NAME]` — plan a migration and print the rounds,
//! * `bounds <file>` — print the lower bounds `Δ'` and `Γ'` with witness,
//! * `compare <file>` — run every applicable solver head-to-head,
//! * `simulate <file> [--solver NAME] [--bandwidths B0,B1,…]` — wall-clock
//!   simulation in the paper's bandwidth-split model,
//! * `generate <kind> …` — emit a synthetic instance (see `help`).
//!
//! The library exposes [`run`] so the whole CLI is unit-testable; the
//! binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod instance;
pub mod workspace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dmig_core::parallel::{default_threads, ParallelSolver};
use dmig_core::shard::{solve_sharded, ShardConfig};
use dmig_core::solver::{all_solvers, solver_by_name, AutoSolver, Solver};
use dmig_core::{bounds, MigrationProblem};
use dmig_obs::{diff, gate, history, trace, Snapshot, SpanNode, Value};
use dmig_sim::{engine::simulate_rounds, Cluster, ExecutorConfig, FaultPlan};

/// Exit status plus rendered output of a CLI invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliOutcome {
    /// Process exit code (0 = success).
    pub code: i32,
    /// Text written to stdout.
    pub stdout: String,
}

/// Runs the CLI on `args` (without the program name), capturing output.
///
/// Never panics on user input; errors become a non-zero exit code with an
/// explanatory message.
#[must_use]
pub fn run(args: &[String]) -> CliOutcome {
    match run_inner(args) {
        Ok(stdout) => CliOutcome { code: 0, stdout },
        Err(msg) => CliOutcome {
            code: 1,
            stdout: format!("error: {msg}\n"),
        },
    }
}

fn run_inner(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(usage()),
        Some("solve") => cmd_solve(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("migrate") => workspace::cmd_migrate(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("import-trace") => cmd_import_trace(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`; try `dmig help`")),
    }
}

fn usage() -> String {
    "dmig — heterogeneous data-migration planner (ICDCS 2011)\n\
     \n\
     usage:\n\
     \x20 dmig solve <file> [--solver NAME] [--threads N] [--shards K]\n\
     \x20          [--trace] [--metrics-out FILE]\n\
     \x20 dmig bounds <file>                    lower bounds Δ' and Γ'\n\
     \x20 dmig compare <file>                   all solvers head-to-head\n\
     \x20 dmig simulate <file> [--solver NAME] [--threads N] [--bandwidths B0,B1,...]\n\
     \x20          [--faults FILE] [--replan] [--retry-max N] [--report-out FILE]\n\
     \x20          [--trace] [--metrics-out FILE] [--explain]\n\
     \x20          [--events-out FILE] [--crash-dump FILE]\n\
     \x20 dmig migrate plan <file> --workspace DIR [--faults FILE] [--solver NAME]\n\
     \x20          [--threads N] [--bandwidths B0,B1,...] [--replan] [--retry-max N]\n\
     \x20          [--metrics-out FILE]\n\
     \x20 dmig migrate execute --workspace DIR [--threads N] [--metrics-out FILE]\n\
     \x20 dmig migrate resume --workspace DIR [--threads N] [--metrics-out FILE]\n\
     \x20 dmig migrate export --workspace DIR --out FILE\n\
     \x20 dmig migrate import <archive> --workspace DIR\n\
     \x20 dmig generate <kind> [params] [--seed S]\n\
     \x20 dmig stats <file>                     transfer-graph statistics\n\
     \x20 dmig dot <file>                       Graphviz DOT export\n\
     \x20 dmig import-trace <trace> [--default-cap K]   trace -> instance\n\
     \x20 dmig obs diff <old> <new> [--tolerance T] [--all]\n\
     \x20 dmig obs gate <rules.toml> <metrics> [--tolerance T] [--baseline SPEC]\n\
     \x20          [--explain]\n\
     \x20 dmig obs serve <snapshot.json> [--addr A] [--addr-file F] [--requests N]\n\
     \x20 dmig obs export-trace <snapshot.json> [--out FILE] [--html FILE] [--check]\n\
     \x20 dmig obs flame <snapshot.json> [--out FILE]   self-time rollup table\n\
     \x20 dmig obs explain <file> [--solver NAME] [--threads N]\n\
     \x20          [--bandwidths B0,B1,...] [--json] [--out FILE]\n\
     \x20 dmig obs compact <history.jsonl> --keep N\n\
     \n\
     solvers: auto even-optimal general saia-1.5 homogeneous greedy\n\
     \x20        bipartite-optimal exact parallel\n\
     \x20 connected components are always solved independently and merged;\n\
     \x20 --threads N caps the worker threads (default: all cores). The\n\
     \x20 schedule is identical for every N.\n\
     \x20 --shards K (solve) cuts heavy components into canonical cells,\n\
     \x20 groups the cells onto K workers, and reconciles cut edges in a\n\
     \x20 boundary pass; the schedule is identical for every K and every\n\
     \x20 --threads, and matches the unsharded plan when nothing is cut.\n\
     observability:\n\
     \x20 --trace             print the phase-timing span tree to stderr\n\
     \x20 --metrics-out FILE  write a JSON snapshot of spans, counters\n\
     \x20                     (flow_solves, euler_splits, ...), and histograms\n\
     \x20 --trace-out FILE    write the span tree as Chrome trace_event JSON\n\
     \x20                     (load in Perfetto or chrome://tracing)\n\
     \x20 --trace-html FILE   write a self-contained HTML timeline\n\
     \x20 --history FILE      append one JSONL entry (git rev, threads,\n\
     \x20                     instance hash, wall ms, metrics) per run\n\
     \x20 --progress          (simulate) live per-round lines + stall alerts\n\
     \x20 --events-out FILE   stream flight-recorder events (rounds, items,\n\
     \x20                     faults) as dmig-events/1 JSONL; byte-identical\n\
     \x20                     for any --threads at a fixed plan seed\n\
     \x20 --crash-dump FILE   on panic, write the last ring events + open\n\
     \x20                     spans as a dmig-crash/1 JSON document\n\
     \x20 --explain           (simulate) append makespan attribution: the\n\
     \x20                     disk realizing LB1, the LB2 witness, and the\n\
     \x20                     per-round binding chain (see `dmig obs explain`)\n\
     \x20 --serve ADDR        expose live telemetry over HTTP while the run\n\
     \x20                     executes: /metrics (Prometheus text) and\n\
     \x20                     /snapshot (JSON); also starts the sampling\n\
     \x20                     profiler (prof.self_ns.*, mem.rss_*, live.*)\n\
     \x20 --serve-addr-file F write the bound address (port 0 resolved) to F\n\
     \x20 none of these flags changes the computed schedule.\n\
     fault injection (simulate):\n\
     \x20 --faults FILE       seeded fault plan (seed, [[crash]], [[degrade]],\n\
     \x20                     [flaky]); executes the schedule under failures\n\
     \x20 --replan            re-solve the residual problem on crash/stall\n\
     \x20 --retry-max N       per-item retry budget for flaky failures\n\
     \x20 --report-out FILE   write the final report JSON (byte-identical\n\
     \x20                     for any --threads at a fixed plan seed)\n\
     durable workspaces (migrate):\n\
     \x20 plan      solve once and persist instance, schedule, fault plan,\n\
     \x20           and executor config into --workspace DIR\n\
     \x20 execute   run the plan, appending an fsync'd write-ahead journal\n\
     \x20           (dmig-events/1 lines + dmig-exec-ckpt/1 checkpoints);\n\
     \x20           safe to kill -9 at any instant\n\
     \x20 resume    revive a killed run from the last durable checkpoint;\n\
     \x20           the final report.json is byte-identical to an\n\
     \x20           uninterrupted run\n\
     \x20 export    pack the workspace into a dmig-archive/1 file with a\n\
     \x20           checksums.sha256 manifest\n\
     \x20 import    unpack an archive, verifying every checksum (mismatches\n\
     \x20           name the manifest line)\n\
     obs file arguments:\n\
     \x20 <metrics> is a dmig-obs/1 snapshot, a JSONL history (use FILE@N\n\
     \x20 for the Nth-from-last entry; default the last), or any flat JSON\n\
     \x20 document (e.g. BENCH_perf.json; nested keys join with dots).\n\
     \x20 gate rules: [[rule]] tables with expr/when/tolerance; functions\n\
     \x20 abs ceil floor round min max quota_flow_solves quota_euler_splits.\n\
     generate kinds:\n\
     \x20 k3 <M> <cap>                 the paper's Fig. 2 instance\n\
     \x20 uniform <n> <m> <lo> <hi>    random graph, caps in [lo,hi]\n\
     \x20 clustered <n> <m> <clusters> rack-local blocks on a sparse ring,\n\
     \x20                              even caps (the shard-friendly shape)\n\
     \x20 rebalance <n> <items> <cap>  load-balancing delta\n\
     \x20 add <old> <new> <items> <cap>   disk addition (bipartite)\n\
     \x20 remove <n> <gone> <items> <cap> disk drain (bipartite)\n"
        .to_string()
}

fn load(path: &str) -> Result<MigrationProblem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    instance::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Resolves `--solver`/`--threads` into a component-parallel wrapper around
/// the named solver. The schedule does not depend on the thread count, so
/// the wrapper is always applied; display code prints the inner name.
fn pick_solver(args: &[String]) -> Result<ParallelSolver, String> {
    let inner: Box<dyn Solver> = match flag_value(args, "--solver") {
        Some(name) => solver_by_name(name)
            .ok_or_else(|| format!("unknown solver `{name}`; try `dmig help`"))?,
        None => Box::new(AutoSolver),
    };
    Ok(ParallelSolver::with_threads(inner, parse_threads(args)?))
}

fn parse_threads(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads") {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err("bad --threads: must be at least 1".to_string()),
            Err(e) => Err(format!("bad --threads: {e}")),
        },
        None if args.iter().any(|a| a == "--threads") => {
            Err("bad --threads: missing value".to_string())
        }
        None => Ok(default_threads()),
    }
}

/// Parses the optional `--shards K` of `solve`: `None` solves whole
/// connected components, `Some(k)` also cuts components over the default
/// cell budget and groups the cells onto `k` workers.
fn parse_shards(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--shards") {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            Ok(_) => Err("bad --shards: must be at least 1".to_string()),
            Err(e) => Err(format!("bad --shards: {e}")),
        },
        None if args.iter().any(|a| a == "--shards") => {
            Err("bad --shards: missing value".to_string())
        }
        None => Ok(None),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Flags that take no value (every other `--flag` consumes the next arg).
const BOOLEAN_FLAGS: &[&str] = &[
    "--trace",
    "--progress",
    "--all",
    "--check",
    "--replan",
    "--explain",
    "--json",
];

/// Parses an optional `--flag VALUE`; a dangling flag is an error, not a
/// silent fallback.
fn optional_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match flag_value(args, flag) {
        Some(v) => Ok(Some(v.to_string())),
        None if args.iter().any(|a| a == flag) => Err(format!("bad {flag}: missing value")),
        None => Ok(None),
    }
}

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOLEAN_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a.as_str());
    }
    out
}

/// The observability request of one invocation (`--trace`,
/// `--metrics-out`, `--trace-out`, `--trace-html`, `--history`,
/// `--events-out`, `--crash-dump`, `--serve`). When no flag is given the
/// recorder stays disabled and the solve runs exactly as before (the
/// instrumentation is a no-op).
struct ObsRequest {
    trace: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    trace_html: Option<String>,
    history: Option<String>,
    events_out: Option<String>,
    crash_dump: Option<String>,
    serve: Option<String>,
    serve_addr_file: Option<String>,
    /// The live plane started by [`ObsRequest::begin`] when `--serve` is
    /// given. The CLI is single-threaded, so interior mutability keeps
    /// `begin`/`finish` taking `&self` like every other accessor.
    live: std::cell::RefCell<Option<LivePlane>>,
}

/// The background half of `--serve`: the HTTP listener plus the sampling
/// profiler that feeds `prof.self_ns.*` and the RSS gauges. Both threads
/// only ever *read* recorder state (and write their own sampler keys), so
/// the solve schedule cannot depend on their timing.
struct LivePlane {
    server: dmig_obs::serve::ObsServer,
    sampler: dmig_obs::sampler::SamplerHandle,
}

/// Per-run metadata handed to [`ObsRequest::finish`] for the history line
/// and the per-disk utilization lane of the HTML timeline.
struct RunContext<'a> {
    source: &'a str,
    threads: usize,
    instance_text: &'a str,
    wall: Duration,
    disks: Vec<trace::DiskUtilRow>,
}

fn hardware_threads() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Counters pre-registered before an instrumented run so the JSON export
/// always contains them, even when a small instance never hits a path.
const WELL_KNOWN_COUNTERS: &[&str] = &[
    dmig_obs::keys::FLOW_SOLVES,
    dmig_obs::keys::EULER_SPLITS,
    dmig_obs::keys::WARM_START_HITS,
    dmig_obs::keys::WARM_START_MISSES,
    dmig_obs::keys::EULER_ORIENTATIONS,
    dmig_obs::keys::DINIC_CALLS,
    dmig_obs::keys::DINIC_BFS_PHASES,
    dmig_obs::keys::DINIC_AUGMENTING_PATHS,
    dmig_obs::keys::SIM_ROUNDS,
    dmig_obs::keys::SIM_TRANSFERS,
    dmig_obs::keys::SIM_STALLS,
    dmig_obs::keys::POOL_ACQUIRES,
    dmig_obs::keys::POOL_ACQUIRE_DENIED,
    dmig_obs::keys::POOL_TASKS,
    dmig_obs::keys::POOL_STEALS,
    dmig_obs::keys::SCRATCH_REUSES,
    dmig_obs::keys::SCRATCH_ALLOCS,
    dmig_obs::keys::EXEC_REPLANS,
    dmig_obs::keys::EXEC_RETRIES,
    dmig_obs::keys::EXEC_LOST_ITEMS,
    dmig_obs::keys::EXEC_DEGRADED_ROUNDS,
    dmig_obs::keys::EXEC_REDIRECTS,
    dmig_obs::keys::EXEC_CRASHES,
    dmig_obs::keys::EVENTS_EMITTED,
    dmig_obs::keys::EVENTS_DROPPED,
    dmig_obs::keys::EVENTS_ITEM_LOST,
];

fn parse_obs(args: &[String]) -> Result<ObsRequest, String> {
    Ok(ObsRequest {
        trace: args.iter().any(|a| a == "--trace"),
        metrics_out: optional_flag(args, "--metrics-out")?,
        trace_out: optional_flag(args, "--trace-out")?,
        trace_html: optional_flag(args, "--trace-html")?,
        history: optional_flag(args, "--history")?,
        events_out: optional_flag(args, "--events-out")?,
        crash_dump: optional_flag(args, "--crash-dump")?,
        serve: optional_flag(args, "--serve")?,
        serve_addr_file: optional_flag(args, "--serve-addr-file")?,
        live: std::cell::RefCell::new(None),
    })
}

impl ObsRequest {
    fn active(&self) -> bool {
        self.trace
            || self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.trace_html.is_some()
            || self.history.is_some()
            || self.serve.is_some()
            || self.events()
    }

    /// Whether the flight recorder itself was requested.
    fn events(&self) -> bool {
        self.events_out.is_some() || self.crash_dump.is_some()
    }

    /// Starts collection (clearing anything a previous `run` left behind).
    fn begin(&self) -> Result<(), String> {
        if !self.active() {
            return Ok(());
        }
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        for key in WELL_KNOWN_COUNTERS {
            dmig_obs::counter_add(key, 0);
        }
        // Live gauges start from a known state so the very first scrape
        // (or an early snapshot) already carries the full key set.
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::IDLE);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ROUND, 0);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ITEMS_DONE, 0);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_SHARD_ACTIVE, 0);
        dmig_obs::counter_add(dmig_obs::keys::PROF_SAMPLES, 0);
        if let Some(addr) = &self.serve {
            let sampler = dmig_obs::sampler::start(dmig_obs::sampler::DEFAULT_INTERVAL);
            let server = match dmig_obs::serve::ObsServer::start(
                addr,
                dmig_obs::serve::ServeSource::Live,
                None,
            ) {
                Ok(s) => s,
                Err(e) => {
                    sampler.stop();
                    self.abandon();
                    return Err(format!("--serve: {e}"));
                }
            };
            if let Some(path) = &self.serve_addr_file {
                // Written *after* bind so a watcher reading the file can
                // immediately connect (port 0 is resolved by now).
                if let Err(e) = dmig_obs::fsio::atomic_write(
                    path,
                    format!("{}\n", server.local_addr()).as_bytes(),
                ) {
                    sampler.stop();
                    drop(server);
                    self.abandon();
                    return Err(format!("cannot write {path}: {e}"));
                }
            }
            *self.live.borrow_mut() = Some(LivePlane { server, sampler });
        }
        if self.events() {
            dmig_obs::events::reset();
            if let Some(path) = &self.events_out {
                // Atomic mode: the stream lands at `path` only when the
                // run completes, so a killed process never leaves a
                // half-written event file behind. (The workspace journal
                // wants the opposite discipline and uses `open_sink`.)
                if let Err(e) = dmig_obs::events::open_sink_atomic(path) {
                    self.abandon();
                    return Err(format!("cannot open {path}: {e}"));
                }
            }
            if let Some(path) = &self.crash_dump {
                dmig_obs::events::set_crash_path(Some(std::path::PathBuf::from(path)));
            }
            dmig_obs::events::set_enabled(true);
        }
        Ok(())
    }

    /// Disarms the flight recorder: stops emission, closes the sink, and
    /// clears the crash path so a later run cannot dump stale events.
    fn teardown_events(&self) {
        if self.events() {
            dmig_obs::events::set_enabled(false);
            dmig_obs::events::close_sink();
            dmig_obs::events::set_crash_path(None);
            dmig_obs::events::reset();
        }
    }

    /// Stops collection and emits the requested outputs: the span tree to
    /// stderr (`--trace`), the JSON snapshot (`--metrics-out`), the Chrome
    /// trace / HTML timeline (`--trace-out` / `--trace-html`), and the
    /// JSONL history entry (`--history`).
    fn finish(&self, run: &RunContext<'_>) -> Result<(), String> {
        if !self.active() {
            return Ok(());
        }
        // Mark completion while the recorder is still enabled, then stop
        // the live plane *before* disabling so a final scrape racing the
        // shutdown still sees a coherent (DONE) snapshot.
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::DONE);
        self.stop_live();
        dmig_obs::set_enabled(false);
        self.teardown_events();
        let snap = dmig_obs::snapshot();
        if self.trace {
            eprint!("{}", snap.render_tree());
        }
        if let Some(path) = &self.metrics_out {
            dmig_obs::fsio::atomic_write(path, snap.to_json().as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &self.trace_out {
            dmig_obs::fsio::atomic_write(path, trace::chrome_trace(&snap.spans).as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &self.trace_html {
            let html = trace::html_timeline_with_disks(&snap.spans, &run.disks);
            dmig_obs::fsio::atomic_write(path, html.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &self.history {
            let meta = history::RunMeta {
                git_rev: history::detect_git_rev(),
                threads: Some(run.threads as u64),
                hardware_threads: Some(hardware_threads()),
                instance: Some(history::fingerprint(run.instance_text)),
                wall_ms: Some(run.wall.as_secs_f64() * 1e3),
                source: run.source.to_string(),
            };
            history::append(path, &meta, &snap.flat_metrics())?;
        }
        Ok(())
    }

    /// Stops the sampler and HTTP listener started by `--serve` (no-op
    /// otherwise). Joining both threads here means no background thread
    /// outlives the command that spawned it.
    fn stop_live(&self) {
        if let Some(plane) = self.live.borrow_mut().take() {
            plane.sampler.stop();
            let served = plane.server.shutdown();
            dmig_obs::counter_add(dmig_obs::keys::SERVE_REQUESTS, served);
        }
    }

    /// Stops collection without emitting (the command failed mid-run).
    fn abandon(&self) {
        if self.active() {
            self.stop_live();
            dmig_obs::set_enabled(false);
            self.teardown_events();
        }
    }
}

/// Sets the per-solve summary gauges on the live recorder so gate rules
/// can compare round counts against the lower bound `Δ'` (`Γ'` never
/// exceeds it; `--explain` adds `solve.lb2` from its witness).
fn record_solve_gauges(problem: &MigrationProblem, rounds: usize) {
    dmig_obs::gauge_set(dmig_obs::keys::SOLVE_ROUNDS, rounds as u64);
    dmig_obs::gauge_set(dmig_obs::keys::SOLVE_LB1, bounds::lb1(problem) as u64);
}

/// `dmig solve`. With an observability flag the recorder is on for the
/// whole command, so the span tree breaks it down by phase:
/// `solve.parse`, `solve_sharded`, `solve.validate` and `solve.render`.
fn cmd_solve(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("solve: missing instance file")?;
    let solver = pick_solver(args)?;
    let threads = solver.threads();
    // Without --shards the cells are the connected components, exactly as
    // `ParallelSolver` solves them; --shards K also cuts heavy components.
    let config = parse_shards(args)?.map_or(ShardConfig::uncut(threads), ShardConfig::with_shards);
    let obs = parse_obs(args)?;
    obs.begin()?;
    let (text, out, wall) = solve_and_render(path, &solver, config).map_err(|e| {
        obs.abandon();
        e
    })?;
    obs.finish(&RunContext {
        source: "cli-solve",
        threads,
        instance_text: &text,
        wall,
        disks: Vec::new(),
    })?;
    Ok(out)
}

/// The body of [`cmd_solve`]: returns the instance text, the rendered
/// schedule and the solve's wall time.
fn solve_and_render(
    path: &str,
    solver: &ParallelSolver,
    config: ShardConfig,
) -> Result<(String, String, Duration), String> {
    let parse_span = dmig_obs::span("solve.parse");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let problem =
        instance::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    drop(parse_span);
    dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::SOLVE);
    let started = Instant::now();
    let (schedule, _report) = solve_sharded(&problem, config, solver.threads(), |piece| {
        solver.inner().solve(piece)
    })
    .map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    {
        let _span = dmig_obs::span("solve.validate");
        schedule
            .validate(&problem)
            .map_err(|e| format!("internal: invalid schedule: {e}"))?;
    }
    record_solve_gauges(&problem, schedule.makespan());

    let _span = dmig_obs::span("solve.render");
    let mut out = String::new();
    let _ = writeln!(out, "{problem}");
    let _ = writeln!(
        out,
        "solver {}: {} rounds (lower bound {})",
        solver.inner().name(),
        schedule.makespan(),
        bounds::lower_bound(&problem)
    );
    let g = problem.graph();
    for (i, round) in schedule.rounds().iter().enumerate() {
        let items: Vec<String> = round
            .iter()
            .map(|&e| {
                let ep = g.endpoints(e);
                format!("{e}({}->{})", ep.u, ep.v)
            })
            .collect();
        let _ = writeln!(out, "round {i}: {}", items.join(" "));
    }
    Ok((text, out, wall))
}

fn cmd_bounds(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("bounds: missing instance file")?;
    let problem = load(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "{problem}");
    let _ = writeln!(out, "LB1 (Δ' = max ⌈d_v/c_v⌉): {}", bounds::lb1(&problem));
    match bounds::lb2_witness(&problem) {
        Some(w) => {
            let _ = writeln!(out, "LB2 (Γ'): {}", w.bound);
            let nodes: Vec<String> = w.nodes.iter().map(ToString::to_string).collect();
            let _ = writeln!(
                out,
                "  witness S = {{{}}} with |E(S)| = {}, Σc_v = {}",
                nodes.join(", "),
                w.internal_edges,
                w.capacity_sum
            );
        }
        None => {
            let _ = writeln!(out, "LB2 (Γ'): 0");
        }
    }
    let _ = writeln!(out, "lower bound: {}", bounds::lower_bound(&problem));
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("compare: missing instance file")?;
    let problem = load(path)?;
    let lb = bounds::lower_bound(&problem);
    let mut out = String::new();
    let _ = writeln!(out, "{problem}  lower bound {lb}");
    let _ = writeln!(out, "{:<20} {:>8} {:>10}", "solver", "rounds", "vs LB");
    for solver in all_solvers() {
        match solver.solve(&problem) {
            Ok(s) => {
                s.validate(&problem)
                    .map_err(|e| format!("{}: {e}", solver.name()))?;
                let ratio = if lb == 0 {
                    1.0
                } else {
                    s.makespan() as f64 / lb as f64
                };
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>9.3}x",
                    solver.name(),
                    s.makespan(),
                    ratio
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<20} {:>8} ({e})", solver.name(), "-");
            }
        }
    }
    Ok(out)
}

/// Parses the fault-execution flags of `simulate`: a [`FaultPlan`] from
/// `--faults FILE` plus the recovery policy (`--replan`, `--retry-max`).
/// The plan is checked against the instance, so a disk reference beyond
/// the cluster fails here with the offending `faults.toml` line.
fn parse_fault_args(
    args: &[String],
    problem: &MigrationProblem,
) -> Result<Option<(FaultPlan, ExecutorConfig)>, String> {
    let Some(fpath) = optional_flag(args, "--faults")? else {
        for flag in ["--replan", "--retry-max"] {
            if args.iter().any(|a| a == flag) {
                return Err(format!("simulate: {flag} requires --faults FILE"));
            }
        }
        return Ok(None);
    };
    let ftext = std::fs::read_to_string(&fpath).map_err(|e| format!("cannot read {fpath}: {e}"))?;
    let plan = FaultPlan::parse_checked(&ftext, problem.num_disks())
        .map_err(|e| format!("{fpath}: {e}"))?;
    let mut config = ExecutorConfig {
        replan: args.iter().any(|a| a == "--replan"),
        ..ExecutorConfig::default()
    };
    if let Some(n) = optional_flag(args, "--retry-max")? {
        config.retry_max = n.parse().map_err(|e| format!("bad --retry-max: {e}"))?;
    }
    Ok(Some((plan, config)))
}

/// Resolves `--bandwidths B0,B1,…` into a [`Cluster`] (uniform unit
/// bandwidth when absent).
fn parse_cluster(args: &[String], problem: &MigrationProblem) -> Result<Cluster, String> {
    let Some(spec) = optional_flag(args, "--bandwidths")? else {
        return Ok(Cluster::uniform(problem.num_disks(), 1.0));
    };
    spec.split(',')
        .enumerate()
        .map(|(v, raw)| {
            raw.parse::<f64>()
                .map_err(|_| format!("disk {v} bandwidth `{raw}` is not a number"))
        })
        .collect::<Result<Vec<f64>, String>>()
        .and_then(|bws| checked_cluster(bws, problem.num_disks()))
        .map_err(|e| format!("bad --bandwidths: {e}"))
}

/// A cluster with one bandwidth per disk of a `disks`-disk instance, each
/// finite and > 0; otherwise an error naming the first bad entry.
fn checked_cluster(bandwidths: Vec<f64>, disks: usize) -> Result<Cluster, String> {
    if bandwidths.len() != disks {
        return Err(format!(
            "{} bandwidths for a {disks}-disk instance",
            bandwidths.len()
        ));
    }
    if let Some((v, b)) = bandwidths
        .iter()
        .enumerate()
        .find(|&(_, &b)| !(b.is_finite() && b > 0.0))
    {
        return Err(format!("disk {v} bandwidth {b} must be finite and > 0"));
    }
    Ok(Cluster::from_bandwidths(bandwidths))
}

/// Assembles the data the attribution engine needs: per-disk degree and
/// capacity, the LB2 witness, and the schedule's per-round busy profile
/// under the round model.
fn explain_input(
    problem: &MigrationProblem,
    schedule: &dmig_core::MigrationSchedule,
    cluster: &Cluster,
) -> Result<dmig_obs::explain::ExplainInput, String> {
    use dmig_obs::explain::{DiskLoad, ExplainInput, WitnessSet};
    let g = problem.graph();
    let caps = problem.capacities();
    let disks = g
        .nodes()
        .map(|v| DiskLoad {
            degree: g.degree(v) as u64,
            capacity: u64::from(caps.get(v)),
        })
        .collect();
    let witness = bounds::lb2_witness(problem).map(|w| WitnessSet {
        nodes: w.nodes.iter().map(|n| n.index()).collect(),
        internal_edges: w.internal_edges,
        capacity_sum: w.capacity_sum,
        bound: w.bound as u64,
    });
    let rounds =
        dmig_sim::engine::round_profile(problem, schedule, cluster).map_err(|e| e.to_string())?;
    Ok(ExplainInput {
        disks,
        witness,
        rounds,
    })
}

/// Publishes the attribution summary gauges so gate rules can check the
/// binding bound against the solver's `solve.lb1`, and `solve.lb2` from
/// the witness the attribution already computed.
fn record_explain_gauges(attr: &dmig_obs::explain::Attribution) {
    dmig_obs::gauge_set(dmig_obs::keys::SOLVE_LB2, attr.lb2);
    dmig_obs::gauge_set(dmig_obs::keys::EXPLAIN_BINDING_BOUND, attr.binding_bound);
    if let Some(d) = attr.lb1_disk {
        dmig_obs::gauge_set(dmig_obs::keys::EXPLAIN_LB1_DISK, d as u64);
    }
}

/// `dmig simulate`. The recorder is on before the inputs are read, so
/// `simulate.parse` is a root span beside the solve, the simulation and
/// `simulate.explain` (Γ' and the attribution, under `--explain`).
fn cmd_simulate(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("simulate: missing instance file")?;
    let solver = pick_solver(args)?;
    let report_out = optional_flag(args, "--report-out")?;
    let obs = parse_obs(args)?;
    let progress = args.iter().any(|a| a == "--progress");
    obs.begin()?;
    let (text, problem, cluster, faulted) = {
        let _span = dmig_obs::span("simulate.parse");
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
        text.and_then(|text| {
            let problem =
                instance::parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            let cluster = parse_cluster(args, &problem)?;
            let faulted = parse_fault_args(args, &problem)?;
            Ok((text, problem, cluster, faulted))
        })
        .map_err(|e| {
            obs.abandon();
            e
        })?
    };
    dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::SOLVE);
    if progress {
        dmig_sim::progress::set_progress(true);
    }
    let started = Instant::now();
    let run =
        solver
            .solve(&problem)
            .map_err(|e| e.to_string())
            .and_then(|schedule| match &faulted {
                Some((plan, config)) => {
                    dmig_sim::execute(&problem, &schedule, &cluster, plan, config, &solver)
                        .map(|r| (schedule, r.sim.clone(), Some(r)))
                        .map_err(|e| e.to_string())
                }
                None => simulate_rounds(&problem, &schedule, &cluster)
                    .map(|report| (schedule, report, None))
                    .map_err(|e| e.to_string()),
            });
    let wall = started.elapsed();
    if progress {
        dmig_sim::progress::set_progress(false);
    }
    let (schedule, report, exec) = match run {
        Ok(triple) => triple,
        Err(e) => {
            obs.abandon();
            return Err(e);
        }
    };
    // Attribution explains the planned schedule under the round model —
    // with faults injected, the executed timeline may differ, but the
    // bounds and binding chain are properties of the plan.
    let explain = if args.iter().any(|a| a == "--explain") {
        let _span = dmig_obs::span("simulate.explain");
        let input = match explain_input(&problem, &schedule, &cluster) {
            Ok(i) => i,
            Err(e) => {
                obs.abandon();
                return Err(e);
            }
        };
        let attr = dmig_obs::explain::attribute(&input);
        Some((attr, input))
    } else {
        None
    };
    record_solve_gauges(&problem, schedule.makespan());
    if let Some((attr, _)) = &explain {
        record_explain_gauges(attr);
    }
    let disks: Vec<trace::DiskUtilRow> = report
        .disk_busy
        .iter()
        .enumerate()
        .map(|(v, &busy)| trace::DiskUtilRow {
            disk: v,
            busy,
            utilization: report.disk_utilization(v),
        })
        .collect();
    obs.finish(&RunContext {
        source: if exec.is_some() {
            "cli-simulate-faults"
        } else {
            "cli-simulate"
        },
        threads: parse_threads(args)?,
        instance_text: &text,
        wall,
        disks,
    })?;
    if let Some(out_path) = &report_out {
        let json = exec
            .as_ref()
            .map_or_else(|| report.to_json(), dmig_sim::ExecReport::to_json);
        dmig_obs::fsio::atomic_write(out_path, json.as_bytes())
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{problem}");
    let _ = writeln!(
        out,
        "solver {}: {} rounds",
        solver.inner().name(),
        schedule.makespan()
    );
    let _ = writeln!(
        out,
        "wall-clock time {:.3}, mean utilization {:.1}%, throughput {:.3}",
        report.total_time,
        report.mean_utilization() * 100.0,
        report.throughput()
    );
    if let Some(r) = &exec {
        let _ = writeln!(
            out,
            "items: {} delivered ({} redirected), {} lost ({} dead-disk, {} retries-exhausted)",
            r.delivered(),
            r.redirected(),
            r.lost(),
            r.lost_because(dmig_sim::LostReason::DeadDisk),
            r.lost_because(dmig_sim::LostReason::RetriesExhausted),
        );
        let _ = writeln!(
            out,
            "recovery: {} replans, {} retries, {} crashes, {} degraded rounds",
            r.replans, r.retries, r.crashes, r.degraded_rounds
        );
    }
    if let Some((attr, input)) = &explain {
        out.push('\n');
        out.push_str(&attr.render_text(&input.disks));
    }
    Ok(out)
}

fn cmd_stats(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("stats: missing instance file")?;
    let problem = load(path)?;
    let s = dmig_graph::stats::graph_stats(problem.graph());
    let caps = problem.capacities();
    let mut out = String::new();
    let _ = writeln!(out, "{problem}");
    let _ = writeln!(out, "nodes: {}  edges: {}", s.num_nodes, s.num_edges);
    let _ = writeln!(
        out,
        "degree: min {} / mean {:.2} / max {}  multiplicity: {}",
        s.min_degree, s.mean_degree, s.max_degree, s.max_multiplicity
    );
    let _ = writeln!(
        out,
        "components: {}  isolated: {}  bipartite: {}  simple: {}",
        s.components, s.isolated_nodes, s.bipartite, s.simple
    );
    let _ = writeln!(
        out,
        "capacities: min {} / max {}  all even: {}",
        caps.min().unwrap_or(0),
        caps.max().unwrap_or(0),
        caps.all_even()
    );
    let _ = writeln!(
        out,
        "LB1 (Δ') = {}  LB2 (Γ') = {}",
        bounds::lb1(&problem),
        bounds::lb2(&problem)
    );
    Ok(out)
}

fn cmd_dot(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("dot: missing instance file")?;
    let problem = load(path)?;
    Ok(dmig_graph::io::to_dot(problem.graph()))
}

fn cmd_import_trace(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("import-trace: missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = dmig_workloads::trace::parse_trace(&text).map_err(|e| e.to_string())?;
    let cap: u32 = flag_value(args, "--default-cap")
        .map_or(Ok(1), str::parse)
        .map_err(|e| format!("bad --default-cap: {e}"))?;
    let problem =
        dmig_core::MigrationProblem::uniform(trace.graph, cap).map_err(|e| e.to_string())?;
    Ok(instance::to_instance_text(&problem))
}

fn cmd_obs(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("gate") => cmd_obs_gate(&args[1..]),
        Some("export-trace") => cmd_obs_export_trace(&args[1..]),
        Some("flame") => cmd_obs_flame(&args[1..]),
        Some("explain") => cmd_obs_explain(&args[1..]),
        Some("compact") => cmd_obs_compact(&args[1..]),
        Some("serve") => cmd_obs_serve(&args[1..]),
        Some(other) => Err(format!(
            "obs: unknown subcommand `{other}` (expected diff, gate, export-trace, flame, explain, compact, or serve)"
        )),
        None => Err(
            "obs: expected a subcommand: diff, gate, export-trace, flame, explain, compact, or serve"
                .to_string(),
        ),
    }
}

/// `dmig obs explain <instance>`: solves the instance, replays the
/// schedule's per-round busy profile, and prints which disk realizes LB1,
/// which witness realizes LB2, and the per-disk binding-chain ranking
/// (`--json` for the machine-readable `dmig-explain/1` form).
fn cmd_obs_explain(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("obs explain: missing instance file")?;
    let problem = load(path)?;
    let solver = pick_solver(args)?;
    let schedule = solver.solve(&problem).map_err(|e| e.to_string())?;
    let cluster = parse_cluster(args, &problem)?;
    let input = explain_input(&problem, &schedule, &cluster)?;
    let attr = dmig_obs::explain::attribute(&input);
    let rendered = if args.iter().any(|a| a == "--json") {
        attr.to_json()
    } else {
        attr.render_text(&input.disks)
    };
    match optional_flag(args, "--out")? {
        Some(out_path) => {
            dmig_obs::fsio::atomic_write(&out_path, rendered.as_bytes())
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            Ok(format!("wrote explanation to {out_path}\n"))
        }
        None => Ok(rendered),
    }
}

/// Functions available in gate/diff expressions: the numeric basics plus
/// the paper's closed forms (Theorem 4.1 operation counts per quota level).
fn gate_functions() -> gate::FunctionRegistry {
    let mut f = gate::FunctionRegistry::default();
    f.register("quota_flow_solves", 1, |a| {
        dmig_flow::quota_flow_solves(a[0].max(0.0) as usize) as f64
    });
    f.register("quota_euler_splits", 1, |a| {
        dmig_flow::quota_euler_splits(a[0].max(0.0) as usize) as f64
    });
    f
}

/// Loads a metrics map from `path`, which may be a `dmig-obs/1` snapshot,
/// a `dmig-history/1` JSONL file (optionally addressed as `FILE@N` for the
/// Nth-from-last entry), or any other JSON document (flattened with
/// dot-joined keys — the `BENCH_perf.json` case).
fn load_metrics(spec: &str) -> Result<BTreeMap<String, f64>, String> {
    let (path, entry_back) = match spec.rsplit_once('@') {
        Some((p, n)) if !p.is_empty() && n.chars().all(|c| c.is_ascii_digit()) => {
            (p, n.parse::<usize>().unwrap_or(0))
        }
        _ => (spec, 0),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(doc) = Value::parse(&text) {
        return Ok(match doc.get_path("schema").and_then(Value::as_str) {
            Some("dmig-obs/1") => Snapshot::from_value(&doc)
                .map_err(|e| format!("{path}: {e}"))?
                .flat_metrics(),
            Some(history::HISTORY_SCHEMA) => history::entry_metrics(&doc),
            _ => doc.flatten(),
        });
    }
    // Not a single JSON document — try JSONL history.
    let (entries, _skipped) = history::read_entries(path)?;
    if entries.is_empty() {
        return Err(format!(
            "{path}: neither a JSON document nor a JSONL history"
        ));
    }
    let idx = entries.len().checked_sub(1 + entry_back).ok_or_else(|| {
        format!(
            "{path}: only {} entries, @{entry_back} is out of range",
            entries.len()
        )
    })?;
    Ok(history::entry_metrics(&entries[idx]))
}

fn cmd_obs_diff(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [old_spec, new_spec] = pos.as_slice() else {
        return Err("obs diff: expected exactly two metrics files".to_string());
    };
    let tolerance = match optional_flag(args, "--tolerance")? {
        Some(t) => t
            .parse::<f64>()
            .map_err(|e| format!("bad --tolerance: {e}"))?,
        // Default noise floor: timing metrics jitter run to run; 5% keeps
        // the diff focused on real movement.
        None => 0.05,
    };
    let old = load_metrics(old_spec)?;
    let new = load_metrics(new_spec)?;
    let d = diff::diff_metrics(&old, &new, tolerance);
    Ok(d.render(!args.iter().any(|a| a == "--all")))
}

fn cmd_obs_gate(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [rules_path, metrics_spec] = pos.as_slice() else {
        return Err("obs gate: expected <rules.toml> <metrics-file>".to_string());
    };
    let rules_text = std::fs::read_to_string(rules_path)
        .map_err(|e| format!("cannot read {rules_path}: {e}"))?;
    let mut rules = gate::parse_rules(&rules_text).map_err(|e| format!("{rules_path}: {e}"))?;
    if let Some(t) = optional_flag(args, "--tolerance")? {
        rules.default_tolerance = t
            .parse::<f64>()
            .map_err(|e| format!("bad --tolerance: {e}"))?;
    }
    let mut metrics = load_metrics(metrics_spec)?;
    if let Some(baseline_spec) = optional_flag(args, "--baseline")? {
        // Baseline metrics join the namespace under a `baseline.` prefix so
        // rules can express drift bounds like
        // `sim.rounds <= baseline.sim.rounds * 1.1`. Current-run keys win on
        // the (pathological) chance of a collision.
        for (k, v) in load_metrics(&baseline_spec)? {
            metrics.entry(format!("baseline.{k}")).or_insert(v);
        }
    }
    let report = gate::evaluate(&rules, &metrics, &gate_functions());
    let rendered = if args.iter().any(|a| a == "--explain") {
        report.render_explained()
    } else {
        report.render()
    };
    if report.failed() {
        Err(format!("perf gate failed\n{rendered}"))
    } else {
        Ok(rendered)
    }
}

/// `dmig obs serve <snapshot.json>` — serve a saved metrics snapshot over
/// HTTP: `/metrics` in Prometheus text exposition, `/snapshot` as the
/// original JSON. Blocks until `--requests N` requests have been served
/// (without `--requests` it runs until killed).
fn cmd_obs_serve(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("obs serve: missing snapshot file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let snapshot = Snapshot::from_value(&doc).map_err(|e| format!("{path}: {e}"))?;
    let addr = optional_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:9464".to_string());
    let max_requests = match optional_flag(args, "--requests")? {
        Some(n) => Some(
            n.parse::<u64>()
                .map_err(|e| format!("bad --requests: {e}"))?,
        ),
        None => None,
    };
    let server = dmig_obs::serve::ObsServer::start(
        &addr,
        dmig_obs::serve::ServeSource::Fixed {
            snapshot,
            raw: text,
        },
        max_requests,
    )?;
    let local = server.local_addr();
    if let Some(addr_file) = optional_flag(args, "--addr-file")? {
        dmig_obs::fsio::atomic_write(&addr_file, format!("{local}\n").as_bytes())
            .map_err(|e| format!("cannot write {addr_file}: {e}"))?;
    }
    let served = server.join();
    Ok(format!("served {served} request(s) on http://{local}\n"))
}

/// The span forest of the `dmig-obs/1` snapshot at `path`, for
/// `export-trace` and `flame`.
fn read_snapshot_spans(path: &str) -> Result<Vec<SpanNode>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Snapshot::from_value(&doc)
        .map_err(|e| format!("{path}: {e}"))?
        .spans)
}

fn cmd_obs_export_trace(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or("obs export-trace: missing snapshot file")?;
    let spans = read_snapshot_spans(path)?;
    let chrome = trace::chrome_trace(&spans);
    let stats = if args.iter().any(|a| a == "--check") {
        Some(trace::validate_chrome_trace(&chrome).map_err(|e| format!("invalid trace: {e}"))?)
    } else {
        None
    };
    let mut out = String::new();
    if let Some(html_path) = optional_flag(args, "--html")? {
        dmig_obs::fsio::atomic_write(&html_path, trace::html_timeline(&spans).as_bytes())
            .map_err(|e| format!("cannot write {html_path}: {e}"))?;
        let _ = writeln!(out, "wrote HTML timeline to {html_path}");
    }
    match optional_flag(args, "--out")? {
        Some(out_path) => {
            dmig_obs::fsio::atomic_write(&out_path, chrome.as_bytes())
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            let _ = writeln!(out, "wrote Chrome trace to {out_path}");
            if let Some(s) = stats {
                let _ = writeln!(
                    out,
                    "checked: {} begin / {} end events, {} open, {} track(s)",
                    s.begins,
                    s.ends,
                    s.open,
                    s.tracks.len()
                );
            }
        }
        // No --out: the trace itself is the output, pipeable to a file.
        None => out.push_str(&chrome),
    }
    Ok(out)
}

fn cmd_obs_flame(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("obs flame: missing snapshot file")?;
    let spans = read_snapshot_spans(path)?;
    let table = trace::render_rollup_text(&trace::self_time_rollup(&spans));
    match optional_flag(args, "--out")? {
        Some(out_path) => {
            dmig_obs::fsio::atomic_write(&out_path, table.as_bytes())
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            Ok(format!("wrote self-time rollup to {out_path}\n"))
        }
        None => Ok(table),
    }
}

fn cmd_obs_compact(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let path = pos.first().ok_or("obs compact: missing history file")?;
    let keep: usize = optional_flag(args, "--keep")?
        .ok_or("obs compact: --keep N is required")?
        .parse()
        .map_err(|e| format!("bad --keep: {e}"))?;
    let (kept, dropped) = history::compact(path, keep)?;
    Ok(format!(
        "compacted {path}: kept {kept} entr{}, dropped {dropped}\n",
        if kept == 1 { "y" } else { "ies" }
    ))
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    use dmig_workloads::{capacities, disk_ops, random, reconfigure};
    let pos = positional(args);
    let kind = pos.first().ok_or("generate: missing kind")?;
    let seed: u64 = flag_value(args, "--seed")
        .map_or(Ok(42), str::parse)
        .map_err(|e| format!("bad --seed: {e}"))?;
    let num = |i: usize, what: &str| -> Result<usize, String> {
        pos.get(i)
            .ok_or_else(|| format!("generate {kind}: missing {what}"))?
            .parse::<usize>()
            .map_err(|_| format!("generate {kind}: invalid {what}"))
    };
    let problem = match *kind {
        "k3" => {
            let m = num(1, "M")?;
            let cap = num(2, "cap")?;
            MigrationProblem::uniform(
                dmig_graph::builder::complete_multigraph(3, m),
                u32::try_from(cap).map_err(|_| "cap too large")?,
            )
        }
        "uniform" => {
            let n = num(1, "n")?;
            let m = num(2, "m")?;
            let lo = u32::try_from(num(3, "lo")?).map_err(|_| "lo too large")?;
            let hi = u32::try_from(num(4, "hi")?).map_err(|_| "hi too large")?;
            let g = random::uniform_multigraph(n, m, seed);
            MigrationProblem::new(g, capacities::mixed_parity(n, lo, hi, seed))
        }
        "clustered" => {
            let n = num(1, "n")?;
            let m = num(2, "m")?;
            let clusters = num(3, "clusters")?;
            // 8 parallel ring links per block boundary and half_max 3 even
            // caps match the bench corpus (`clustered_giant`), so CI can
            // regenerate its instances from the CLI alone. Pre-validate
            // what the generator would assert.
            const INTER_PER_LINK: usize = 8;
            if clusters == 0 || n / clusters < 2 {
                return Err(format!(
                    "generate clustered: need at least 2 nodes per cluster \
                     ({n} nodes / {clusters} clusters)"
                ));
            }
            let ring = if clusters > 1 {
                clusters * INTER_PER_LINK
            } else {
                0
            };
            let base = (n - clusters) + ring;
            if m < base {
                return Err(format!(
                    "generate clustered: need at least {base} edges for \
                     {clusters} connected clusters, got {m}"
                ));
            }
            let g = random::clustered_multigraph(n, m, clusters, INTER_PER_LINK, seed);
            MigrationProblem::new(g, capacities::random_even(n, 3, seed ^ 1))
        }
        "rebalance" => {
            let n = num(1, "n")?;
            let items = num(2, "items")?;
            let cap = u32::try_from(num(3, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(reconfigure::load_balance_delta(n, items, seed), cap)
        }
        "add" => {
            let old = num(1, "old")?;
            let new = num(2, "new")?;
            let items = num(3, "items")?;
            let cap = u32::try_from(num(4, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(disk_ops::disk_addition(old, new, items, seed), cap)
        }
        "remove" => {
            let n = num(1, "n")?;
            let gone = num(2, "gone")?;
            let items = num(3, "items")?;
            let cap = u32::try_from(num(4, "cap")?).map_err(|_| "cap too large")?;
            MigrationProblem::uniform(disk_ops::disk_removal(n, gone, items, seed), cap)
        }
        other => return Err(format!("unknown generate kind `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    Ok(instance::to_instance_text(&problem))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global and every solve writes its
    /// `live.*`/`shard.*` gauges, so no run may overlap a run that has the
    /// recorder enabled: its gauge writes would land in that run's
    /// snapshot (and one run's `reset` would clear another's counters).
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs the CLI in-process while holding [`obs_lock`].
    fn run_str(args: &[&str]) -> CliOutcome {
        let _g = obs_lock();
        run(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("dmig-cli-test-{name}-{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const K3: &str = "nodes 3\ncaps 2 2 2\nedge 0 1\nedge 1 2\nedge 0 2\n";

    #[test]
    fn help_by_default() {
        let out = run_str(&[]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("usage"));
        assert_eq!(run_str(&["help"]).code, 0);
    }

    #[test]
    fn unknown_command_errors() {
        let out = run_str(&["frobnicate"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("unknown command"));
    }

    #[test]
    fn solve_roundtrip() {
        let path = write_temp("solve", K3);
        let out = run_str(&["solve", &path]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("rounds"));
        assert!(out.stdout.contains("round 0:"));
    }

    #[test]
    fn solve_with_named_solver() {
        let path = write_temp("solve2", K3);
        let out = run_str(&["solve", &path, "--solver", "greedy"]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("solver greedy"));
        let bad = run_str(&["solve", &path, "--solver", "nope"]);
        assert_eq!(bad.code, 1);
    }

    #[test]
    fn bounds_reports_witness() {
        let path = write_temp("bounds", K3);
        let out = run_str(&["bounds", &path]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("LB1"));
        assert!(out.stdout.contains("witness"));
    }

    #[test]
    fn compare_lists_all_solvers() {
        let path = write_temp("compare", K3);
        let out = run_str(&["compare", &path]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        for name in [
            "auto",
            "even-optimal",
            "general",
            "saia-1.5",
            "homogeneous",
            "greedy",
        ] {
            assert!(
                out.stdout.contains(name),
                "missing {name} in:\n{}",
                out.stdout
            );
        }
    }

    #[test]
    fn simulate_reports_time() {
        let path = write_temp("simulate", K3);
        let out = run_str(&["simulate", &path, "--bandwidths", "1,1,1"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("wall-clock time"));
    }

    #[test]
    fn generate_then_solve() {
        let gen = run_str(&["generate", "k3", "3", "2"]);
        assert_eq!(gen.code, 0);
        let path = write_temp("gen", &gen.stdout);
        let out = run_str(&["solve", &path]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("3 rounds") || out.stdout.contains("rounds"));
    }

    #[test]
    fn generate_kinds() {
        for args in [
            vec!["generate", "uniform", "8", "30", "1", "4", "--seed", "7"],
            vec!["generate", "clustered", "40", "400", "4", "--seed", "3"],
            vec!["generate", "rebalance", "6", "40", "2"],
            vec!["generate", "add", "6", "2", "30", "3"],
            vec!["generate", "remove", "8", "2", "30", "3"],
        ] {
            let out = run_str(&args);
            assert_eq!(out.code, 0, "{args:?}: {}", out.stdout);
            assert!(instance::parse_instance(&out.stdout).is_ok());
        }
        assert_eq!(run_str(&["generate", "mystery"]).code, 1);
    }

    #[test]
    fn generate_clustered_validates_shape() {
        // Too few edges for the spanning paths plus the ring.
        let out = run_str(&["generate", "clustered", "40", "10", "4"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("need at least"), "{}", out.stdout);
        // Fewer than two nodes per cluster.
        let out = run_str(&["generate", "clustered", "4", "100", "4"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("per cluster"), "{}", out.stdout);
    }

    #[test]
    fn stats_command() {
        let path = write_temp("stats", K3);
        let out = run_str(&["stats", &path]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("bipartite: false"));
        assert!(out.stdout.contains("all even: true"));
        assert!(out.stdout.contains("LB1"));
    }

    #[test]
    fn dot_command() {
        let path = write_temp("dot", K3);
        let out = run_str(&["dot", &path]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.starts_with("graph transfer {"));
        assert_eq!(out.stdout.matches("--").count(), 3);
    }

    #[test]
    fn exact_solver_via_cli() {
        let path = write_temp("exact", K3);
        let out = run_str(&["solve", &path, "--solver", "exact"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("solver exact"));
    }

    #[test]
    fn import_trace_command() {
        let path = write_temp("trace", "item 0 1\nitem 1 2 0.5\nitem 0 2\n");
        let out = run_str(&["import-trace", &path, "--default-cap", "2"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let p = instance::parse_instance(&out.stdout).unwrap();
        assert_eq!(p.num_items(), 3);
        assert_eq!(p.capacities().as_slice(), &[2, 2, 2]);
        let bad = run_str(&["import-trace", &path, "--default-cap", "x"]);
        assert_eq!(bad.code, 1);
    }

    #[test]
    fn threads_flag_does_not_change_output() {
        // Multi-component instance: two independent pairs.
        let path = write_temp(
            "threads",
            "nodes 4\ncaps 2 2 2 2\nedge 0 1\nedge 0 1\nedge 2 3\nedge 2 3\n",
        );
        let one = run_str(&["solve", &path, "--threads", "1"]);
        assert_eq!(one.code, 0, "{}", one.stdout);
        for n in ["2", "4"] {
            let many = run_str(&["solve", &path, "--threads", n]);
            assert_eq!(one, many, "output differs at --threads {n}");
        }
        assert!(one.stdout.contains("solver auto"));
    }

    #[test]
    fn shards_flag_does_not_change_output() {
        // A heavy-ish path next to an independent pair, so sharding has
        // both a component split and (at the default cell budget) nothing
        // to cut: every --shards K must reproduce the plain schedule.
        let mut inst = String::from("nodes 22\ncaps");
        for _ in 0..22 {
            inst.push_str(" 2");
        }
        inst.push('\n');
        for i in 0..19 {
            let _ = writeln!(inst, "edge {i} {}", i + 1);
        }
        inst.push_str("edge 20 21\nedge 20 21\n");
        let path = write_temp("shards", &inst);
        let plain = run_str(&["solve", &path]);
        assert_eq!(plain.code, 0, "{}", plain.stdout);
        for k in ["1", "2", "4"] {
            for threads in ["1", "4"] {
                let sharded = run_str(&["solve", &path, "--shards", k, "--threads", threads]);
                assert_eq!(
                    plain, sharded,
                    "output differs at --shards {k} --threads {threads}"
                );
            }
        }
    }

    #[test]
    fn bad_shards_is_clean_error() {
        let path = write_temp("shards-bad", K3);
        for bad in ["0", "-2", "many"] {
            let out = run_str(&["solve", &path, "--shards", bad]);
            assert_eq!(out.code, 1, "--shards {bad} accepted: {}", out.stdout);
            assert!(out.stdout.contains("--shards"));
        }
        let out = run_str(&["solve", &path, "--shards"]);
        assert_eq!(out.code, 1, "dangling --shards accepted: {}", out.stdout);
        assert!(out.stdout.contains("missing value"));
    }

    #[test]
    fn bad_threads_is_clean_error() {
        let path = write_temp("threads-bad", K3);
        for bad in ["0", "-1", "lots"] {
            let out = run_str(&["solve", &path, "--threads", bad]);
            assert_eq!(out.code, 1, "--threads {bad} accepted: {}", out.stdout);
            assert!(out.stdout.contains("--threads"));
        }
        // A dangling flag is an error, not a silent fallback to the default.
        let out = run_str(&["solve", &path, "--threads"]);
        assert_eq!(out.code, 1, "dangling --threads accepted: {}", out.stdout);
        assert!(out.stdout.contains("missing value"));
    }

    #[test]
    fn parallel_solver_selectable_by_name() {
        let path = write_temp("parallel-name", K3);
        let out = run_str(&["solve", &path, "--solver", "parallel", "--threads", "2"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("solver parallel"));
    }

    #[test]
    fn missing_file_is_clean_error() {
        let out = run_str(&["solve", "/no/such/file"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.starts_with("error:"));
    }

    #[test]
    fn help_documents_observability_and_threads() {
        let help = run_str(&["help"]).stdout;
        for flag in ["--threads", "--trace", "--metrics-out", "--shards"] {
            assert!(help.contains(flag), "usage() missing {flag}");
        }
        assert!(help.contains("clustered"), "usage() missing clustered kind");
    }

    #[test]
    fn trace_flag_leaves_stdout_unchanged() {
        let path = write_temp("trace-flag", K3);
        let plain = run_str(&["solve", &path]);
        // The span tree goes to stderr; stdout must be byte-identical.
        assert_eq!(plain, run_str(&["solve", &path, "--trace"]));
        assert_eq!(plain.code, 0, "{}", plain.stdout);
        let sim_plain = run_str(&["simulate", &path]);
        assert_eq!(sim_plain, run_str(&["simulate", &path, "--trace"]));
    }

    #[test]
    fn metrics_out_writes_json_snapshot() {
        let instance = write_temp("metrics-in", K3);
        let out_path =
            std::env::temp_dir().join(format!("dmig-cli-test-metrics-{}.json", std::process::id()));
        let out_str = out_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &instance, "--metrics-out", &out_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let json = std::fs::read_to_string(&out_path).unwrap();
        for key in [
            "\"schema\"",
            "\"flow_solves\"",
            "\"euler_splits\"",
            "\"warm_start_hits\"",
            "\"spans\"",
            "solve_even",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn simulate_metrics_include_sim_counters() {
        let instance = write_temp("sim-metrics-in", K3);
        let out_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-sim-metrics-{}.json",
            std::process::id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let out = run_str(&["simulate", &instance, "--metrics-out", &out_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"sim.rounds\""), "{json}");
        assert!(json.contains("simulate_rounds"), "{json}");
        std::fs::remove_file(&out_path).ok();
    }

    /// Acceptance: a 1k-node instance solved with `--threads 4` exports a
    /// Chrome trace that parses, keeps B/E stack discipline and per-track
    /// timestamp order, and holds a span per cell. Whether those spans
    /// land on two tracks depends on thread timing here; `dmig-core`'s
    /// `concurrent_cell_solves_trace_on_two_tracks` forces and checks it.
    #[test]
    fn trace_out_exports_every_cell_span() {
        // 500 independent two-disk components, two parallel transfers each.
        let mut inst = String::from("nodes 1000\ncaps");
        for _ in 0..1000 {
            inst.push_str(" 2");
        }
        inst.push('\n');
        for i in 0..500 {
            let (u, v) = (2 * i, 2 * i + 1);
            let _ = writeln!(inst, "edge {u} {v}\nedge {u} {v}");
        }
        let path = write_temp("trace-out-in", &inst);
        let out_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-trace-out-{}.json",
            std::process::id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &path, "--threads", "4", "--trace-out", &out_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let text = std::fs::read_to_string(&out_path).unwrap();
        let stats = dmig_obs::trace::validate_chrome_trace(&text).expect("exported trace valid");
        assert!(stats.begins >= 500, "cell spans present: {stats:?}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn trace_html_writes_timeline() {
        let instance = write_temp("trace-html-in", K3);
        let out_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-trace-html-{}.html",
            std::process::id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &instance, "--trace-html", &out_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let html = std::fs::read_to_string(&out_path).unwrap();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("solve_even"), "{html}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn history_appends_one_entry_per_run() {
        let instance = write_temp("history-in", K3);
        let hist_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-history-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&hist_path).ok();
        let hist_str = hist_path.to_string_lossy().into_owned();
        for _ in 0..2 {
            let out = run_str(&["solve", &instance, "--history", &hist_str]);
            assert_eq!(out.code, 0, "{}", out.stdout);
        }
        let (entries, skipped) = dmig_obs::history::read_entries(&hist_str).unwrap();
        assert_eq!(entries.len(), 2, "exactly one entry per run");
        assert_eq!(skipped, 0);
        let m = dmig_obs::history::entry_metrics(&entries[1]);
        assert!(m.contains_key("flow_solves"), "{m:?}");
        // K3 with caps 2: every disk's degree equals its cap -> one round.
        assert_eq!(m.get("solve.rounds").copied(), Some(1.0), "{m:?}");
        // Both runs solved the same instance text -> same fingerprint.
        let fp0 = entries[0].get_path("instance").and_then(Value::as_str);
        let fp1 = entries[1].get_path("instance").and_then(Value::as_str);
        assert!(fp0.is_some() && fp0 == fp1);
        std::fs::remove_file(&hist_path).ok();
    }

    #[test]
    fn obs_gate_exit_codes() {
        let rules = write_temp(
            "gate-rules",
            "[[rule]]\nname = \"speedup floor\"\nexpr = \"thread_speedup >= 1.5\"\n\
             when = \"hardware_threads >= 4\"\n",
        );
        let good = write_temp(
            "gate-good",
            "{\"thread_speedup\": 2.1, \"hardware_threads\": 8}",
        );
        let bad = write_temp(
            "gate-bad",
            "{\"thread_speedup\": 0.7, \"hardware_threads\": 8}",
        );
        let low = write_temp("gate-low", "{\"hardware_threads\": 2}");

        let ok = run_str(&["obs", "gate", &rules, &good]);
        assert_eq!(ok.code, 0, "{}", ok.stdout);
        assert!(ok.stdout.contains("PASS"));

        let fail = run_str(&["obs", "gate", &rules, &bad]);
        assert_eq!(fail.code, 1, "regressed metrics must gate nonzero");
        assert!(fail.stdout.contains("FAIL"), "{}", fail.stdout);

        // Low-core host: guard false -> skipped, exit zero, and the null
        // speedup (absent metric) never reaches the expression.
        let skip = run_str(&["obs", "gate", &rules, &low]);
        assert_eq!(skip.code, 0, "{}", skip.stdout);
        assert!(skip.stdout.contains("skip"), "{}", skip.stdout);
    }

    #[test]
    fn obs_gate_closed_forms_available() {
        let rules = write_temp(
            "gate-cf-rules",
            "[[rule]]\nname = \"flow solves closed form\"\n\
             expr = \"flow_solves == quota_flow_solves(rounds)\"\n",
        );
        let metrics = write_temp(
            "gate-cf-metrics",
            // quota_flow_solves(4) = one flow solve per odd level = 2.
            &format!(
                "{{\"flow_solves\": {}, \"rounds\": 4}}",
                dmig_flow::quota_flow_solves(4)
            ),
        );
        let out = run_str(&["obs", "gate", &rules, &metrics]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("PASS"));
    }

    #[test]
    fn obs_diff_reports_changes_only() {
        let old = write_temp("diff-old", "{\"rounds\": 10, \"flow_solves\": 5}");
        let new = write_temp("diff-new", "{\"rounds\": 12, \"flow_solves\": 5}");
        let out = run_str(&["obs", "diff", &old, &new]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("rounds"), "{}", out.stdout);
        assert!(
            !out.stdout.contains("flow_solves"),
            "unchanged metric hidden by default:\n{}",
            out.stdout
        );
        let all = run_str(&["obs", "diff", &old, &new, "--all"]);
        assert!(all.stdout.contains("flow_solves"), "{}", all.stdout);
    }

    #[test]
    fn obs_export_trace_roundtrip() {
        let instance = write_temp("export-in", K3);
        let snap_path =
            std::env::temp_dir().join(format!("dmig-cli-test-export-{}.json", std::process::id()));
        let snap_str = snap_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &instance, "--metrics-out", &snap_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let exported = run_str(&["obs", "export-trace", &snap_str, "--check"]);
        assert_eq!(exported.code, 0, "{}", exported.stdout);
        assert!(exported.stdout.contains("\"traceEvents\""));
        dmig_obs::trace::validate_chrome_trace(&exported.stdout).expect("re-exported trace valid");
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn obs_flame_prints_self_time_rollup() {
        let instance = write_temp("flame-in", K3);
        let snap_path =
            std::env::temp_dir().join(format!("dmig-cli-test-flame-{}.json", std::process::id()));
        let snap_str = snap_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &instance, "--metrics-out", &snap_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let flame = run_str(&["obs", "flame", &snap_str]);
        assert_eq!(flame.code, 0, "{}", flame.stdout);
        assert!(flame.stdout.contains("self ms"), "{}", flame.stdout);
        assert!(flame.stdout.contains("solve_even"), "{}", flame.stdout);
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn obs_subcommand_errors_are_clean() {
        assert_eq!(run_str(&["obs"]).code, 1);
        assert_eq!(run_str(&["obs", "frobnicate"]).code, 1);
        assert_eq!(run_str(&["obs", "diff", "/no/such/a"]).code, 1);
        assert_eq!(
            run_str(&["obs", "gate", "/no/such/rules.toml", "/no/such/m.json"]).code,
            1
        );
        assert_eq!(run_str(&["obs", "export-trace", "/no/such/s.json"]).code, 1);
        assert_eq!(run_str(&["obs", "flame", "/no/such/s.json"]).code, 1);
        // Every command reads a snapshot through `Snapshot::from_value`,
        // which names a mistyped field.
        let snap = write_temp(
            "snap-bad-span",
            r#"{"schema": "dmig-obs/1", "spans": [{"name": "a", "thread": "0"}]}"#,
        );
        let rules = write_temp(
            "snap-rules",
            "[[rule]]\nname = \"any\"\nexpr = \"1 == 1\"\n",
        );
        for args in [
            vec!["obs", "export-trace", &snap],
            vec!["obs", "flame", &snap],
            vec!["obs", "diff", &snap, &snap],
            vec!["obs", "gate", &rules, &snap],
            vec![
                "obs",
                "serve",
                &snap,
                "--addr",
                "127.0.0.1:0",
                "--requests",
                "0",
            ],
        ] {
            let out = run_str(&args);
            assert_eq!(out.code, 1, "{args:?}: {}", out.stdout);
            let needle = format!("{snap}: spans[0].thread: not a number");
            assert!(out.stdout.contains(&needle), "{args:?}: {}", out.stdout);
        }
    }

    #[test]
    fn bad_metrics_out_is_clean_error() {
        let path = write_temp("metrics-bad", K3);
        // A dangling flag is an error, mirroring --threads.
        let out = run_str(&["solve", &path, "--metrics-out"]);
        assert_eq!(out.code, 1, "dangling --metrics-out: {}", out.stdout);
        assert!(out.stdout.contains("bad --metrics-out: missing value"));
        // An unwritable destination is reported, not swallowed.
        let out = run_str(&["solve", &path, "--metrics-out", "/no/such/dir/m.json"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("cannot write"));
    }

    /// K3 plus an idle spare disk 3, so a crashed disk has a replacement.
    const K3_SPARE: &str = "nodes 4\ncaps 2 2 2 2\nedge 0 1\nedge 1 2\nedge 0 2\n";

    #[test]
    fn simulate_with_faults_recovers_and_reports() {
        let instance = write_temp("faults-instance", K3_SPARE);
        let faults = write_temp(
            "faults-plan",
            "seed = 7\n\n[[crash]]\ndisk = 2\ntime = 0.25\nreplacement = 3\n",
        );
        let out = run_str(&[
            "simulate",
            &instance,
            "--faults",
            &faults,
            "--replan",
            "--retry-max",
            "2",
        ]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("0 lost"), "{}", out.stdout);
        assert!(out.stdout.contains("replans"), "{}", out.stdout);
    }

    #[test]
    fn simulate_fault_reports_are_thread_count_invariant() {
        let instance = write_temp("faults-det-instance", K3_SPARE);
        let faults = write_temp(
            "faults-det-plan",
            "seed = 11\n\n[[crash]]\ndisk = 1\ntime = 0.5\nreplacement = 3\n\n\
             [flaky]\nprobability = 0.3\n",
        );
        let mut reports = Vec::new();
        for threads in ["1", "4"] {
            let rpt = write_temp(&format!("faults-det-report-{threads}"), "");
            let out = run_str(&[
                "simulate",
                &instance,
                "--faults",
                &faults,
                "--replan",
                "--threads",
                threads,
                "--report-out",
                &rpt,
            ]);
            assert_eq!(out.code, 0, "{}", out.stdout);
            reports.push(std::fs::read_to_string(&rpt).unwrap());
            std::fs::remove_file(&rpt).ok();
        }
        assert_eq!(
            reports[0], reports[1],
            "fault execution must be byte-identical across thread counts"
        );
        assert!(reports[0].contains("\"delivered\""), "{}", reports[0]);
    }

    #[test]
    fn simulate_fault_flags_are_validated() {
        let instance = write_temp("faults-val-instance", K3);
        let out = run_str(&["simulate", &instance, "--replan"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("requires --faults"), "{}", out.stdout);
        let bad_plan = write_temp("faults-val-plan", "seed = \"zap\"\n");
        let out = run_str(&["simulate", &instance, "--faults", &bad_plan]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("line 1"), "{}", out.stdout);
    }

    #[test]
    fn obs_gate_baseline_prefixes_metrics() {
        let rules = write_temp(
            "gate-base-rules",
            "[[rule]]\nname = \"round drift\"\nexpr = \"rounds <= baseline.rounds * 1.5\"\n",
        );
        let current = write_temp("gate-base-cur", "{\"rounds\": 10}");
        let ok_base = write_temp("gate-base-ok", "{\"rounds\": 8}");
        let bad_base = write_temp("gate-base-bad", "{\"rounds\": 4}");

        let ok = run_str(&["obs", "gate", &rules, &current, "--baseline", &ok_base]);
        assert_eq!(ok.code, 0, "{}", ok.stdout);
        let fail = run_str(&["obs", "gate", &rules, &current, "--baseline", &bad_base]);
        assert_eq!(fail.code, 1, "drift past baseline must gate nonzero");
        // Without --baseline the rule's baseline.* operand is missing.
        assert_eq!(run_str(&["obs", "gate", &rules, &current]).code, 1);
    }

    #[test]
    fn obs_compact_trims_history() {
        let line = |instance: &str, round: u64| {
            format!(
                "{{\"schema\":\"dmig-history/1\",\"instance\":\"{instance}\",\
                 \"metrics\":{{\"round\":{round}}}}}\n"
            )
        };
        let mut text = String::new();
        for round in 0..3 {
            text.push_str(&line("aaa", round));
            text.push_str(&line("bbb", round));
        }
        let hist = write_temp("compact-hist", &text);
        let out = run_str(&["obs", "compact", &hist, "--keep", "1"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("kept 2"), "{}", out.stdout);
        assert!(out.stdout.contains("dropped 4"), "{}", out.stdout);
        let survivors = std::fs::read_to_string(&hist).unwrap();
        assert_eq!(survivors.lines().count(), 2);
        assert!(survivors.contains("\"round\":2"));
        assert!(!survivors.contains("\"round\":0"));
        // --keep is mandatory and must be positive.
        assert_eq!(run_str(&["obs", "compact", &hist]).code, 1);
        assert_eq!(run_str(&["obs", "compact", &hist, "--keep", "0"]).code, 1);
        std::fs::remove_file(&hist).ok();
    }

    /// The paper's E7 hot-spot shape: every item touches disk 0, which is
    /// also the slowest disk in the `--bandwidths` profile below.
    const E7_STAR: &str = "nodes 5\ncaps 1 1 1 1 1\n\
        edge 0 1\nedge 0 1\nedge 0 2\nedge 0 2\n\
        edge 0 3\nedge 0 3\nedge 0 4\nedge 0 4\n";

    #[test]
    fn obs_explain_names_the_bottleneck_disk() {
        let path = write_temp("explain-star", E7_STAR);
        let out = run_str(&["obs", "explain", &path, "--bandwidths", "0.25,1,1,1,1"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        // Disk 0 has degree 8 at capacity 1: it realizes LB1 and binds
        // every round of the schedule.
        assert!(out.stdout.contains("realized by disk 0"), "{}", out.stdout);
        assert!(out.stdout.contains("via lb1"), "{}", out.stdout);
        assert!(
            out.stdout
                .contains("binding lower bound: max(LB1, LB2) = 8"),
            "{}",
            out.stdout
        );
        // The ranking's top row is the bottleneck disk at 100% utilization.
        let rank1 = out
            .stdout
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .expect("ranking row");
        assert!(rank1.contains(" 0 "), "top-ranked disk is 0: {rank1}");
        assert!(rank1.contains("100.0%"), "{rank1}");
    }

    #[test]
    fn obs_explain_json_is_parseable_and_consistent() {
        let path = write_temp("explain-json", E7_STAR);
        let out = run_str(&["obs", "explain", &path, "--json"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let doc = Value::parse(&out.stdout).expect("explain JSON parses");
        assert_eq!(
            doc.get_path("schema").and_then(Value::as_str),
            Some("dmig-explain/1")
        );
        let lb1 = doc.get_path("lb1").and_then(Value::as_f64).unwrap();
        let lb2 = doc.get_path("lb2").and_then(Value::as_f64).unwrap();
        let bound = doc
            .get_path("binding_bound")
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(bound, lb1.max(lb2), "binding bound is max(LB1, LB2)");
        assert_eq!(
            doc.get_path("lb1_disk").and_then(Value::as_f64),
            Some(0.0),
            "the hub realizes LB1"
        );
        // --out writes the same document to a file.
        let out_path = write_temp("explain-json-out", "");
        let wrote = run_str(&["obs", "explain", &path, "--json", "--out", &out_path]);
        assert_eq!(wrote.code, 0, "{}", wrote.stdout);
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), out.stdout);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn simulate_explain_appends_attribution() {
        let path = write_temp("sim-explain", K3);
        let plain = run_str(&["simulate", &path]);
        let explained = run_str(&["simulate", &path, "--explain"]);
        assert_eq!(explained.code, 0, "{}", explained.stdout);
        assert!(
            explained.stdout.starts_with(&plain.stdout),
            "--explain only appends:\n{}",
            explained.stdout
        );
        assert!(
            explained.stdout.contains("makespan attribution"),
            "{}",
            explained.stdout
        );
        assert!(
            explained.stdout.contains("binding lower bound"),
            "{}",
            explained.stdout
        );
    }

    #[test]
    fn events_out_streams_parseable_jsonl() {
        let instance = write_temp("events-instance", K3_SPARE);
        let faults = write_temp(
            "events-plan",
            "seed = 7\n\n[[crash]]\ndisk = 2\ntime = 0.25\nreplacement = 3\n",
        );
        let events_path =
            std::env::temp_dir().join(format!("dmig-cli-test-events-{}.jsonl", std::process::id()));
        std::fs::remove_file(&events_path).ok();
        let events_str = events_path.to_string_lossy().into_owned();
        let out = run_str(&[
            "simulate",
            &instance,
            "--faults",
            &faults,
            "--replan",
            "--events-out",
            &events_str,
        ]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let jsonl = std::fs::read_to_string(&events_path).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let v = Value::parse(line).expect("each event line is JSON");
            assert_eq!(
                v.get_path("schema").and_then(Value::as_str),
                Some(dmig_obs::events::EVENTS_SCHEMA)
            );
        }
        for kind in ["round_start", "item_delivered", "crash"] {
            assert!(
                jsonl.contains(&format!("\"kind\":\"{kind}\"")),
                "missing {kind}:\n{jsonl}"
            );
        }
        std::fs::remove_file(&events_path).ok();
    }

    #[test]
    fn crash_dump_flag_is_quiet_on_success() {
        let instance = write_temp("crash-dump-instance", K3);
        let dump_path =
            std::env::temp_dir().join(format!("dmig-cli-test-crash-{}.json", std::process::id()));
        std::fs::remove_file(&dump_path).ok();
        let dump_str = dump_path.to_string_lossy().into_owned();
        let out = run_str(&["simulate", &instance, "--crash-dump", &dump_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(
            !dump_path.exists(),
            "a clean run must not leave a crash dump"
        );
    }

    #[test]
    fn simulate_trace_html_includes_disk_lanes() {
        let instance = write_temp("disk-lane-in", K3);
        let out_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-disk-lane-{}.html",
            std::process::id()
        ));
        let out_str = out_path.to_string_lossy().into_owned();
        let out = run_str(&["simulate", &instance, "--trace-html", &out_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let html = std::fs::read_to_string(&out_path).unwrap();
        assert!(html.contains("disk utilization"), "{html}");
        assert!(html.contains("id=\"disks\""), "{html}");
        assert!(html.contains("sortDisks"), "{html}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn help_documents_events_and_explain() {
        let help = run_str(&["help"]).stdout;
        for needle in [
            "--events-out",
            "--crash-dump",
            "--explain",
            "obs explain",
            "--serve",
            "--serve-addr-file",
            "obs serve",
        ] {
            assert!(help.contains(needle), "usage() missing {needle}");
        }
    }

    #[test]
    fn obs_diff_summary_counts_one_sided_keys() {
        let old = write_temp("diff-sum-old", "{\"kept\": 1.0, \"gone\": 3.0}");
        let new = write_temp("diff-sum-new", "{\"kept\": 1.0, \"fresh\": 2.0}");
        let out = run_str(&["obs", "diff", &old, &new]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(
            out.stdout.contains(
                "3 metrics compared, 0 changed beyond 5.0% tolerance, 1 added, 1 removed"
            ),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("fresh"), "{}", out.stdout);
        assert!(out.stdout.contains("gone"), "{}", out.stdout);
    }

    #[test]
    fn obs_gate_explain_resolves_both_sides() {
        let rules = write_temp(
            "gate-explain-rules",
            "[[rule]]\nname = \"rounds bound\"\nexpr = \"rounds <= 5\"\n",
        );
        let metrics = write_temp("gate-explain-metrics", "{\"rounds\": 3}");
        let plain = run_str(&["obs", "gate", &rules, &metrics]);
        assert_eq!(plain.code, 0, "{}", plain.stdout);
        assert!(!plain.stdout.contains("left `"), "{}", plain.stdout);
        let explained = run_str(&["obs", "gate", &rules, &metrics, "--explain"]);
        assert_eq!(explained.code, 0, "{}", explained.stdout);
        assert!(
            explained
                .stdout
                .contains("left `rounds` = 3, right `5` = 5"),
            "{}",
            explained.stdout
        );
        // A failing gate explains too (on stderr-bound error text).
        let hot = write_temp("gate-explain-hot", "{\"rounds\": 9}");
        let fail = run_str(&["obs", "gate", &rules, &hot, "--explain"]);
        assert_eq!(fail.code, 1);
        assert!(
            fail.stdout.contains("left `rounds` = 9, right `5` = 5"),
            "{}",
            fail.stdout
        );
    }

    /// `--serve` must not perturb planning: stdout (the schedule) is
    /// byte-identical with the plane on or off, and the resolved listen
    /// address lands in `--serve-addr-file`.
    #[test]
    fn serve_flag_keeps_schedule_identical() {
        let path = write_temp("serve-sched", K3);
        let plain = run_str(&["solve", &path, "--shards", "2"]);
        assert_eq!(plain.code, 0, "{}", plain.stdout);
        let addr_file = write_temp("serve-sched-addr", "");
        let served = run_str(&[
            "solve",
            &path,
            "--shards",
            "2",
            "--serve",
            "127.0.0.1:0",
            "--serve-addr-file",
            &addr_file,
        ]);
        assert_eq!(served, plain, "--serve changed the schedule output");
        let addr = std::fs::read_to_string(&addr_file).unwrap();
        assert!(
            addr.trim().starts_with("127.0.0.1:") && !addr.trim().ends_with(":0"),
            "addr file resolves port 0: {addr:?}"
        );
        std::fs::remove_file(&addr_file).ok();
    }

    /// End-to-end scrape of `dmig obs serve`: a background client waits
    /// for the addr file, GETs /metrics and /snapshot, and the command
    /// exits on its own via --requests.
    #[test]
    fn obs_serve_serves_fixed_snapshot_over_http() {
        let instance = write_temp("serve-fixed-in", K3);
        let snap_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-serve-snap-{}.json",
            std::process::id()
        ));
        let snap_str = snap_path.to_string_lossy().into_owned();
        let out = run_str(&["solve", &instance, "--metrics-out", &snap_str]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let raw = std::fs::read_to_string(&snap_path).unwrap();

        let addr_file = std::env::temp_dir().join(format!(
            "dmig-cli-test-serve-addr-{}.txt",
            std::process::id()
        ));
        std::fs::remove_file(&addr_file).ok();
        let addr_str = addr_file.to_string_lossy().into_owned();
        let addr_for_client = addr_file.clone();
        let client = std::thread::spawn(move || {
            use std::io::{Read as _, Write as _};
            let deadline = Instant::now() + Duration::from_secs(10);
            let addr = loop {
                assert!(Instant::now() < deadline, "addr file never appeared");
                match std::fs::read_to_string(&addr_for_client) {
                    Ok(s) if s.contains(':') => break s.trim().to_string(),
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            let get = |path: &str| {
                let mut conn = std::net::TcpStream::connect(&addr).unwrap();
                conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                    .unwrap();
                let mut buf = String::new();
                conn.read_to_string(&mut buf).unwrap();
                buf
            };
            (get("/metrics"), get("/snapshot"))
        });
        let out = run_str(&[
            "obs",
            "serve",
            &snap_str,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_str,
            "--requests",
            "2",
        ]);
        let (metrics, snapshot) = client.join().unwrap();
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("served 2 request(s)"), "{}", out.stdout);
        assert!(metrics.contains("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            metrics.contains("dmig_counter{key=\"flow_solves\"}"),
            "{metrics}"
        );
        assert!(snapshot.ends_with(&raw), "/snapshot returns the raw JSON");
        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_file(&addr_file).ok();
    }

    /// A live scrape during `solve --serve` sees the full key set the
    /// tentpole promises: live.*, mem.*, pool.*, prof.samples.
    #[test]
    fn solve_serve_exposes_live_keys() {
        // Big enough that the run outlives one scrape round-trip is NOT
        // required: begin() pre-registers the live keys, so even a scrape
        // racing the final rounds sees them.
        let path = write_temp("serve-live", K3);
        let addr_file = std::env::temp_dir().join(format!(
            "dmig-cli-test-serve-live-{}.txt",
            std::process::id()
        ));
        std::fs::remove_file(&addr_file).ok();
        let addr_str = addr_file.to_string_lossy().into_owned();
        let metrics_path = std::env::temp_dir().join(format!(
            "dmig-cli-test-serve-live-{}.json",
            std::process::id()
        ));
        let metrics_str = metrics_path.to_string_lossy().into_owned();
        let out = run_str(&[
            "solve",
            &path,
            "--serve",
            "127.0.0.1:0",
            "--serve-addr-file",
            &addr_str,
            "--metrics-out",
            &metrics_str,
        ]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        // The final snapshot (written after the plane stops) carries the
        // live gauges at their terminal values plus the serve counter.
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        for key in [
            "\"live.phase\"",
            "\"live.round\"",
            "\"live.items_done\"",
            "\"live.shard_active\"",
            "\"prof.samples\"",
            "\"serve.requests\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let doc = Value::parse(&json).unwrap();
        // "live.phase" is one key with a literal dot, not a path.
        let phase = doc
            .get_path("gauges")
            .and_then(Value::as_object)
            .and_then(|g| g.get("live.phase"))
            .and_then(Value::as_f64);
        assert_eq!(phase, Some(6.0), "terminal phase is DONE (= 6)");
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_file(&metrics_path).ok();
    }
}
