//! Durable migration workspaces: `dmig migrate plan|execute|resume|export|import`.
//!
//! A *workspace* is a directory that holds everything a migration run
//! needs to survive its operator, its process, and its machine:
//!
//! * `manifest.json` — `dmig-workspace/1`: the fingerprints of the
//!   instance and the plan, solver, thread count, and instance dimensions;
//! * `instance.txt` — the canonical instance text (re-fingerprinted on
//!   every load, so tampering is caught before execution);
//! * `plan.json` — `dmig-plan/1`: the solved schedule, round by round
//!   (re-fingerprinted on every load as well: a journal's chain can start
//!   at it, so an edit between `execute` and `resume` would change the
//!   run);
//! * `faults.toml` — the fault plan, verbatim;
//! * `config.json` — `dmig-exec-config/1`: the executor policy (`replan`
//!   and `retry_max`) and the disks' bandwidths, each bandwidth persisted
//!   as its IEEE-754 bit pattern so reload is exact;
//! * `journal.jsonl` — the write-ahead journal `execute` appends:
//!   `dmig-events/1` flight-recorder lines interleaved with
//!   `dmig-exec-ckpt/1` checkpoint records, one record per round
//!   boundary. The journal is group-committed: a commit writes, and
//!   fdatasyncs, every round that finished while the previous commit's
//!   fdatasync ran, and nothing is written before that fdatasync has
//!   returned. The records form one chain across sessions: deltas of
//!   what each round changed, whose base is the state the plan starts
//!   from, and a full record only where a replan replaced the residual
//!   instance, which starts a new chain;
//! * `report.json` — the final `dmig-exec-report/1` document.
//!
//! `execute` can be `kill -9`ed at any instant, and loses at most the
//! rounds of the commit in flight; `resume` rebuilds the executor from
//! the durable chain — the deltas after the last full record, or after
//! the plan when no replan happened — (a torn tail line is expected,
//! skipped, and cut off before the journal grows again; its bytes need
//! not be text) and continues the chain. The finished
//! `report.json` is byte-identical to an uninterrupted run. Journals of
//! earlier builds, which opened each session with a full record, resume
//! from their last one. `export` packs the directory into an
//! integrity-checked `dmig-archive/1` file; `import` unpacks and refuses
//! anything whose checksums disagree, naming the manifest line, or that
//! lists a file twice, naming the record.
//!
//! All one-shot files are published with write-to-temp + atomic rename
//! ([`dmig_obs::fsio`]); only the journal is appended in place, because
//! its durable prefix *is* the recovery record.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{solver_by_name, Solver};
use dmig_core::{MigrationProblem, MigrationSchedule};
use dmig_graph::{EdgeId, NodeId};
use dmig_obs::json::push_u64;
use dmig_obs::value::{ParseError, Reader, Token};
use dmig_obs::{history, Value};
use dmig_sim::executor::{DELTA_PREFIX, RECORD_PREFIX};
use dmig_sim::{Cluster, ExecReport, Executor, ExecutorConfig, FaultPlan, StepOutcome};

use crate::args::{self, Args};
use crate::files::{self, read_instance};
use crate::record::ObsRequest;
use crate::{archive, instance};

/// Schema tag of `manifest.json`.
pub const WORKSPACE_SCHEMA: &str = "dmig-workspace/1";
/// Schema tag of `plan.json`.
pub const PLAN_SCHEMA: &str = "dmig-plan/1";
/// Schema tag of `config.json`.
pub const CONFIG_SCHEMA: &str = "dmig-exec-config/1";
/// Schema tag of the resume-marker lines `resume` appends to the journal.
pub const RESUME_SCHEMA: &str = "dmig-resume/1";

const MANIFEST: &str = "manifest.json";
const INSTANCE: &str = "instance.txt";
const PLAN: &str = "plan.json";
const FAULTS: &str = "faults.toml";
const CONFIG: &str = "config.json";
const JOURNAL: &str = "journal.jsonl";
const REPORT: &str = "report.json";

/// `dmig migrate plan`.
pub(crate) fn cmd_plan(args: &Args<'_>) -> Result<String, String> {
    ObsRequest::new(args).around(|_| plan_workspace(args))
}

/// `dmig migrate execute`.
pub(crate) fn cmd_execute(args: &Args<'_>) -> Result<String, String> {
    ObsRequest::new(args).around(|_| run_session(args, false))
}

/// `dmig migrate resume`.
pub(crate) fn cmd_resume(args: &Args<'_>) -> Result<String, String> {
    ObsRequest::new(args).around(|_| run_session(args, true))
}

// --- Workspace directory plumbing --------------------------------------

struct Workspace {
    dir: PathBuf,
}

impl Workspace {
    fn at(args: &Args<'_>) -> Result<Workspace, String> {
        let dir = args
            .value("--workspace")
            .ok_or("migrate: missing --workspace DIR")?;
        Ok(Workspace {
            dir: PathBuf::from(dir),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn read(&self, name: &str) -> Result<String, String> {
        files::read_text(self.path(name))
    }

    fn write(&self, name: &str, contents: &str) -> Result<(), String> {
        files::write(self.path(name), contents.as_bytes())
    }

    fn display(&self) -> String {
        self.dir.display().to_string()
    }
}

// --- Exact float persistence -------------------------------------------

/// Writes an `f64` as a JSON string of the decimal rendering of its
/// IEEE-754 bit pattern. The executor's report is bit-for-bit
/// deterministic, so the config that shapes it must reload *exactly* — a
/// round-trip through decimal notation would be a silent source of
/// divergence.
fn push_bits(out: &mut Vec<u8>, v: f64) {
    out.push(b'"');
    push_u64(out, v.to_bits());
    out.push(b'"');
}

fn f64_of_bits(v: &Value, what: impl std::fmt::Display) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{CONFIG}: {what} is not a bit-pattern string"))?;
    let bits: u64 = s
        .parse()
        .map_err(|e| format!("{CONFIG}: {what}: bad bit pattern: {e}"))?;
    Ok(f64::from_bits(bits))
}

/// The `bandwidths` of `config.json`, one bit pattern per disk. An
/// element's label, `bandwidths[i]`, is formatted only for its error.
fn bandwidths(cfg: &Value) -> Result<Vec<f64>, String> {
    field(cfg, CONFIG, "bandwidths")?
        .as_array()
        .ok_or_else(|| format!("{CONFIG}: `bandwidths` is not an array"))?
        .iter()
        .enumerate()
        .map(|(i, b)| f64_of_bits(b, format_args!("bandwidths[{i}]")))
        .collect()
}

// --- plan ---------------------------------------------------------------

/// `migrate plan`. Its `--metrics-out` snapshot breaks the command down
/// into `migrate.parse`, `migrate.solve`, `migrate.render` and
/// `migrate.publish`.
fn plan_workspace(args: &Args<'_>) -> Result<String, String> {
    let parse_span = dmig_obs::span("migrate.parse");
    let (_, problem) = read_instance(args.first("instance file")?)?;
    let ws = Workspace::at(args)?;
    if ws.path(MANIFEST).exists() {
        return Err(format!(
            "{} already holds a workspace ({MANIFEST} present); plan into a fresh directory",
            ws.display()
        ));
    }
    let solver = args::solver(args)?;
    let solver_name = args.value("--solver").unwrap_or("auto");
    let threads = solver.threads();
    let cluster = args::cluster(args, &problem)?;
    // The fault plan is validated against *this* instance at plan time —
    // a disk reference beyond the cluster is a line-numbered error here,
    // not a surprise mid-execution.
    let (faults, config) = args::faults(args, &problem)?;
    let faults_text = faults.map_or_else(|| "seed = 0\n".to_string(), |(text, _)| text);
    drop(parse_span);

    let started = Instant::now();
    let schedule = {
        let _span = dmig_obs::span("migrate.solve");
        let schedule = solver.solve(&problem).map_err(|e| e.to_string())?;
        schedule
            .validate(&problem)
            .map_err(|e| format!("internal: invalid schedule: {e}"))?;
        schedule
    };
    let wall = started.elapsed();

    let files = {
        let _span = dmig_obs::span("migrate.render");
        let canonical = instance::to_instance_text(&problem);
        let plan = render_plan(&schedule);
        let config = render_config(&config, &cluster);
        let manifest =
            render_manifest(&canonical, &plan, solver_name, threads, &problem, &schedule);
        [
            (INSTANCE, canonical),
            (FAULTS, faults_text),
            (PLAN, plan),
            (CONFIG, config),
            (MANIFEST, manifest),
        ]
    };
    {
        let _span = dmig_obs::span("migrate.publish");
        std::fs::create_dir_all(&ws.dir)
            .map_err(|e| format!("cannot create {}: {e}", ws.display()))?;
        for (name, contents) in &files {
            ws.write(name, contents)?;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "planned workspace {}", ws.display());
    let _ = writeln!(
        out,
        "solver {solver_name}: {} rounds for {} items on {} disks ({:.3}s)",
        schedule.makespan(),
        problem.num_items(),
        problem.num_disks(),
        wall.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "next: dmig migrate execute --workspace {}",
        ws.display()
    );
    Ok(out)
}

fn render_manifest(
    canonical_instance: &str,
    plan: &str,
    solver_name: &str,
    threads: usize,
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
) -> String {
    format!(
        "{{\"schema\": {}, \"instance\": {}, \"plan\": {}, \"solver\": {}, \
         \"threads\": {threads}, \"disks\": {}, \"items\": {}, \"planned_rounds\": {}}}\n",
        dmig_obs::json::string(WORKSPACE_SCHEMA),
        dmig_obs::json::string(&history::fingerprint(canonical_instance)),
        dmig_obs::json::string(&history::fingerprint(plan)),
        dmig_obs::json::string(solver_name),
        problem.num_disks(),
        problem.num_items(),
        schedule.makespan(),
    )
}

fn render_plan(schedule: &MigrationSchedule) -> String {
    let rounds = schedule.rounds();
    let items: usize = rounds.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(64 + 4 * rounds.len() + 12 * items);
    out.extend_from_slice(b"{\"schema\": \"");
    out.extend_from_slice(PLAN_SCHEMA.as_bytes());
    out.extend_from_slice(b"\", \"rounds\": [");
    for (i, round) in rounds.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        out.push(b'[');
        for (j, e) in round.iter().enumerate() {
            if j > 0 {
                out.extend_from_slice(b", ");
            }
            push_u64(&mut out, e.index() as u64);
        }
        out.push(b']');
    }
    out.extend_from_slice(b"]}\n");
    String::from_utf8(out).expect("plan.json is ASCII")
}

fn render_config(config: &ExecutorConfig, cluster: &Cluster) -> String {
    let disks = cluster.num_disks();
    let mut out = Vec::with_capacity(96 + 24 * disks);
    out.extend_from_slice(b"{\"schema\": \"");
    out.extend_from_slice(CONFIG_SCHEMA.as_bytes());
    out.extend_from_slice(b"\", \"replan\": ");
    out.extend_from_slice(if config.replan { b"true" } else { b"false" });
    out.extend_from_slice(b", \"retry_max\": ");
    push_u64(&mut out, u64::from(config.retry_max));
    out.extend_from_slice(b", \"bandwidths\": [");
    for v in 0..disks {
        if v > 0 {
            out.extend_from_slice(b", ");
        }
        push_bits(&mut out, cluster.bandwidth(NodeId::new(v)));
    }
    out.extend_from_slice(b"]}\n");
    String::from_utf8(out).expect("config.json is ASCII")
}

// --- Loading ------------------------------------------------------------

struct Loaded {
    problem: MigrationProblem,
    schedule: MigrationSchedule,
    /// Whether the manifest pins `plan.json` by fingerprint. Manifests
    /// written before the pin have no `plan` member.
    plan_pinned: bool,
    faults: FaultPlan,
    config: ExecutorConfig,
    cluster: Cluster,
    solver_name: String,
    threads: usize,
}

fn field<'a>(doc: &'a Value, file: &str, key: &str) -> Result<&'a Value, String> {
    doc.get_path(key)
        .ok_or_else(|| format!("{file}: missing `{key}`"))
}

fn check_schema(doc: &Value, file: &str, want: &str) -> Result<(), String> {
    let got = field(doc, file, "schema")?.as_str().unwrap_or_default();
    if got != want {
        return Err(format!("{file}: schema `{got}` is not `{want}`"));
    }
    Ok(())
}

/// The rounds of `plan.json`, read in one pass straight into item ids of
/// an instance with `items` items. It decodes what a `Value` tree of the
/// file would give, with the same messages: a syntax error anywhere is
/// reported before any semantic one, the last of a repeated key wins, and
/// the schema is checked before the rounds.
fn read_plan(text: &str, items: usize) -> Result<Vec<Vec<EdgeId>>, String> {
    let mut r = Reader::new(text);
    // `Some(tag)` once `schema` occurs; a tag that is not a string reads
    // as "", as `Value::as_str` would have it.
    let mut schema: Option<Cow<'_, str>> = None;
    let mut rounds: Option<Result<Vec<Vec<EdgeId>>, String>> = None;
    let mut members = || -> Result<(), ParseError> {
        let t = r.value()?;
        if t != Token::BeginObject {
            return r.skip(&t);
        }
        while let Some(key) = r.next_key()? {
            let t = r.value()?;
            match &*key {
                "schema" => {
                    schema = Some(match &t {
                        Token::String(s) => s.clone(),
                        _ => Cow::Borrowed(""),
                    });
                    r.skip(&t)?;
                }
                "rounds" if t == Token::BeginArray => rounds = Some(plan_rounds(&mut r, items)?),
                "rounds" => {
                    rounds = Some(Err(format!("{PLAN}: `rounds` is not an array")));
                    r.skip(&t)?;
                }
                _ => r.skip(&t)?,
            }
        }
        Ok(())
    };
    members()
        .and_then(|()| r.finish())
        .map_err(|e| format!("{PLAN}: {e}"))?;
    let schema = schema.ok_or_else(|| format!("{PLAN}: missing `schema`"))?;
    if schema != PLAN_SCHEMA {
        return Err(format!("{PLAN}: schema `{schema}` is not `{PLAN_SCHEMA}`"));
    }
    rounds.ok_or_else(|| format!("{PLAN}: missing `rounds`"))?
}

/// The elements of the `rounds` array `r` has just entered, or the first
/// round or edge id in document order that is not one of the instance's
/// items. The rest of the array is still read, so that a syntax error
/// after a bad id wins.
fn plan_rounds(
    r: &mut Reader<'_>,
    items: usize,
) -> Result<Result<Vec<Vec<EdgeId>>, String>, ParseError> {
    let (mut rounds, mut bad) = (Vec::new(), None);
    let mut i = 0;
    while r.next_element()? {
        let t = r.value()?;
        if t != Token::BeginArray {
            bad.get_or_insert_with(|| format!("{PLAN}: round {i} is not an array"));
            r.skip(&t)?;
            i += 1;
            continue;
        }
        let mut ids = Vec::new();
        while r.next_element()? {
            // An id reads as `Value::as_f64` reads it: booleans are 0/1.
            #[allow(clippy::cast_precision_loss)]
            let id = match r.small_uint_element() {
                Some(n) => Some(n as f64),
                None => {
                    let t = r.value()?;
                    r.skip(&t)?;
                    match t {
                        Token::Number(n) => Some(n.as_f64()),
                        Token::Bool(b) => Some(f64::from(u8::from(b))),
                        _ => None,
                    }
                }
            };
            if bad.is_some() {
                continue;
            }
            let Some(id) = id.filter(|v| v.fract() == 0.0 && *v >= 0.0) else {
                bad = Some(format!("{PLAN}: round {i} holds a non-integer edge id"));
                continue;
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = id as usize;
            if idx >= items {
                bad = Some(format!(
                    "{PLAN}: round {i} references edge {idx} but the instance has {items} items"
                ));
                continue;
            }
            ids.push(EdgeId::new(idx));
        }
        rounds.push(ids);
        i += 1;
    }
    Ok(bad.map_or(Ok(rounds), Err))
}

/// Refuses `text`, read from workspace file `file`, unless it has the
/// fingerprint the manifest recorded for it.
fn check_fingerprint(file: &str, text: &str, want: &str) -> Result<(), String> {
    let got = history::fingerprint(text);
    if got != want {
        return Err(format!(
            "{file} does not match the manifest fingerprint \
             (manifest {want}, file {got}) — the workspace was modified"
        ));
    }
    Ok(())
}

fn load_workspace(ws: &Workspace) -> Result<Loaded, String> {
    let manifest = Value::parse(&ws.read(MANIFEST)?).map_err(|e| format!("{MANIFEST}: {e}"))?;
    check_schema(&manifest, MANIFEST, WORKSPACE_SCHEMA)?;

    let instance_text = ws.read(INSTANCE)?;
    let want_fp = field(&manifest, MANIFEST, "instance")?
        .as_str()
        .ok_or_else(|| format!("{MANIFEST}: `instance` is not a string"))?;
    check_fingerprint(INSTANCE, &instance_text, want_fp)?;
    let problem =
        instance::parse_instance(&instance_text).map_err(|e| format!("{INSTANCE}: {e}"))?;

    // `plan.json` is pinned like the instance: `resume` rebuilds a chain's
    // base from it, so an edit between sessions would change the run.
    let plan_text = ws.read(PLAN)?;
    let plan_pinned = match manifest.get_path("plan") {
        Some(want) => {
            let want = want
                .as_str()
                .ok_or_else(|| format!("{MANIFEST}: `plan` is not a string"))?;
            check_fingerprint(PLAN, &plan_text, want)?;
            true
        }
        None => false,
    };
    let rounds = read_plan(&plan_text, problem.num_items())?;
    let schedule = MigrationSchedule::from_rounds(rounds);
    schedule
        .validate(&problem)
        .map_err(|e| format!("{PLAN}: schedule invalid for {INSTANCE}: {e}"))?;

    // Validation authority for disk references: the checked parser, with
    // line numbers pointing into faults.toml.
    let faults = FaultPlan::parse_checked(&ws.read(FAULTS)?, problem.num_disks())
        .map_err(|e| format!("{FAULTS}: {e}"))?;

    let cfg = Value::parse(&ws.read(CONFIG)?).map_err(|e| format!("{CONFIG}: {e}"))?;
    check_schema(&cfg, CONFIG, CONFIG_SCHEMA)?;
    let config = ExecutorConfig {
        replan: match field(&cfg, CONFIG, "replan")? {
            Value::Bool(b) => *b,
            _ => return Err(format!("{CONFIG}: `replan` is not a boolean")),
        },
        retry_max: field(&cfg, CONFIG, "retry_max")?
            .as_f64()
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or_else(|| format!("{CONFIG}: `retry_max` is not a count"))?
            as u32,
    };
    let cluster = args::checked_cluster(bandwidths(&cfg)?, problem.num_disks())
        .map_err(|e| format!("{CONFIG}: {e}"))?;

    let solver_name = field(&manifest, MANIFEST, "solver")?
        .as_str()
        .ok_or_else(|| format!("{MANIFEST}: `solver` is not a string"))?
        .to_string();
    let threads = field(&manifest, MANIFEST, "threads")?
        .as_f64()
        .filter(|v| v.fract() == 0.0 && *v >= 1.0)
        .ok_or_else(|| format!("{MANIFEST}: `threads` is not a count"))? as usize;

    Ok(Loaded {
        problem,
        schedule,
        plan_pinned,
        faults,
        config,
        cluster,
        solver_name,
        threads,
    })
}

// --- execute / resume ---------------------------------------------------

/// The journal's durable prefix: every newline-terminated line. A final
/// line without its newline is the write a kill interrupted — never
/// fsync'd, so never part of the recovery record — and holds whatever a
/// power loss left there, zeros or bytes that are not UTF-8. Only the
/// durable prefix has to be text; a durable line that is not is an error
/// naming it.
fn durable(journal: &[u8]) -> Result<&str, String> {
    let len = journal
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    std::str::from_utf8(&journal[..len]).map_err(|e| {
        let before = &journal[..e.valid_up_to()];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        format!("{JOURNAL}: line {line} is not UTF-8")
    })
}

/// The text `resume` hands [`Executor::resume`]: the durable journal's
/// chain, each record on its own journal line, with every other line left
/// blank so that a restore error's `line N` is journal line N. The chain
/// starts at the last full record, or, in a journal without one (no
/// replan happened), at the first record: a delta whose base is the plan.
/// Lines are told apart by prefix only, so each record is parsed once, by
/// the executor. `None` when the journal holds no record.
fn resume_chain(durable: &str) -> Option<String> {
    let lines: Vec<&str> = durable.lines().collect();
    let start = lines
        .iter()
        .rposition(|l| l.starts_with(RECORD_PREFIX) && !l.starts_with(DELTA_PREFIX))
        .or_else(|| lines.iter().position(|l| l.starts_with(RECORD_PREFIX)))?;
    let mut chain = "\n".repeat(start);
    for line in &lines[start..] {
        if line.starts_with(RECORD_PREFIX) {
            chain.push_str(line);
        }
        chain.push('\n');
    }
    Some(chain)
}

/// Cuts the torn tail off the journal so the next append starts a line of
/// its own instead of completing the torn one.
fn cut_torn_tail(path: &Path, durable_len: usize) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(durable_len as u64))
        .map_err(|e| format!("cannot cut the torn tail off {}: {e}", path.display()))
}

/// Stops recording events and closes the journal sink, which writes the
/// lines it still holds once the in-flight fdatasync has returned (after a
/// failed one it holds nothing).
fn close_journal() {
    dmig_obs::events::set_enabled(false);
    dmig_obs::events::close_sink();
    dmig_obs::events::reset();
}

/// `migrate execute` and `migrate resume`. Their `--metrics-out` snapshot
/// breaks the command down into `migrate.load`, `migrate.restore` (resume
/// only), `migrate.step`, `migrate.record` and `migrate.sync` once per
/// round boundary, and `migrate.report`.
#[allow(clippy::too_many_lines)]
fn run_session(args: &Args<'_>, resume: bool) -> Result<String, String> {
    let verb = if resume { "resume" } else { "execute" };
    let ws = Workspace::at(args)?;
    let loaded = {
        let _span = dmig_obs::span("migrate.load");
        load_workspace(&ws)?
    };
    let abort_after = args.count("--abort-after-checkpoint")?.map(|n| n as u64);
    let threads = args.count("--threads")?.unwrap_or(loaded.threads);
    // Earlier builds could plan with `parallel`, the registry's
    // `ParallelSolver` around `auto`; the wrapper below is that solver.
    let name = match loaded.solver_name.as_str() {
        "parallel" => "auto",
        name => name,
    };
    let inner: Box<dyn Solver> =
        solver_by_name(name).ok_or_else(|| format!("{MANIFEST}: unknown solver `{name}`"))?;
    let solver = ParallelSolver::with_threads(inner, threads);

    if ws.path(REPORT).exists() {
        return Err(format!(
            "migrate {verb}: {} already holds {REPORT} — the run is complete \
             (delete it to force a re-run)",
            ws.display()
        ));
    }
    let journal_path = ws.path(JOURNAL);
    if resume && !journal_path.exists() {
        return Err(format!(
            "migrate resume: {} has no {JOURNAL}; start with `dmig migrate execute`",
            ws.display()
        ));
    }
    if !resume && journal_path.exists() {
        return Err(format!(
            "migrate execute: {} already holds {JOURNAL}; use `dmig migrate resume`",
            ws.display()
        ));
    }
    // A journal's chain can start at the plan: no session starts on an
    // unpinned one, and no chain that starts there is resumed on one.
    let unpinned = || {
        format!(
            "{MANIFEST}: missing `plan`: {PLAN} is not pinned (the workspace was \
             planned by an older build); plan it again"
        )
    };
    if !resume && !loaded.plan_pinned {
        return Err(unpinned());
    }

    // Revive (or create) the executor *before* opening the journal so a
    // corrupt checkpoint cannot half-open the sink.
    let mut exec = if resume {
        let _span = dmig_obs::span("migrate.restore");
        let journal = files::read_bytes(&journal_path)?;
        let durable = durable(&journal).map_err(|e| format!("migrate resume: {e}"))?;
        let chain = resume_chain(durable)
            .ok_or_else(|| format!("migrate resume: {JOURNAL} holds no checkpoint record"))?;
        let from_plan = chain
            .lines()
            .find(|l| !l.is_empty())
            .is_some_and(|l| l.starts_with(DELTA_PREFIX));
        if from_plan && !loaded.plan_pinned {
            return Err(unpinned());
        }
        let exec = Executor::resume(
            &loaded.problem,
            &loaded.schedule,
            &loaded.cluster,
            &loaded.faults,
            &loaded.config,
            &solver,
            &chain,
        )
        .map_err(|e| format!("migrate resume: {JOURNAL}: {e}"))?;
        // Only a resume that is about to append touches the journal.
        if durable.len() < journal.len() {
            cut_torn_tail(&journal_path, durable.len())?;
        }
        exec
    } else {
        Executor::new(
            &loaded.problem,
            &loaded.schedule,
            &loaded.cluster,
            &loaded.faults,
            &loaded.config,
            &solver,
        )
        .map_err(|e| format!("migrate execute: {e}"))?
    };
    let resumed_at = exec.executed_rounds();

    // The journal sink: durable append mode. The flight recorder's
    // dmig-events/1 lines and the records spliced in via append_sink_line
    // are held in memory. Each round boundary group-commits: the lines go
    // out with one write, and their fdatasync starts, only once the
    // previous fdatasync has returned; until then they stay held, and the
    // session steps on.
    let journal_str = journal_path.display().to_string();
    dmig_obs::events::reset();
    dmig_obs::events::open_sink(&journal_str)
        .map_err(|e| format!("cannot open {journal_str}: {e}"))?;
    dmig_obs::events::set_enabled(true);
    let teardown = |msg: String| -> String {
        close_journal();
        msg
    };
    let sync_error = |e: std::io::Error| format!("cannot sync {journal_str}: {e}");

    let mut journal_bytes = 0u64;
    let mut checkpoints = 0u64;
    let mut hold = |line: &str, checkpoint: bool| -> Result<u64, String> {
        journal_bytes += dmig_obs::events::append_sink_line(line)
            .map_err(|e| format!("cannot append to {journal_str}: {e}"))?;
        if checkpoint {
            checkpoints += 1;
            dmig_obs::counter_add(dmig_obs::keys::WS_CHECKPOINTS, 1);
        }
        dmig_obs::gauge_set(dmig_obs::keys::WS_JOURNAL_BYTES, journal_bytes);
        Ok(checkpoints)
    };
    let record = |exec: &mut Executor<'_>| {
        let _span = dmig_obs::span("migrate.record");
        exec.journal_record()
    };
    // A group commit after the session's `records`-th record; it returns
    // whether it wrote. `migrate.sync` times all the session spends
    // blocked on the journal: each commit's write, and each wait for an
    // fdatasync. `ws.round` moves when a commit writes, so it names the
    // last record the journal holds. `--abort-after-checkpoint N` is the
    // deterministic stand-in for `kill -9` the crash-resume tests and CI
    // smoke use: the commit that holds record N waits until it is durable,
    // and the process dies before any byte of the next round is written,
    // with the report unwritten, exactly like a real mid-run kill.
    let commit = |exec: &Executor<'_>, records: u64| -> Result<bool, String> {
        let _span = dmig_obs::span("migrate.sync");
        if abort_after == Some(records) {
            dmig_obs::events::sync_sink().map_err(sync_error)?;
            std::process::abort();
        }
        let wrote = dmig_obs::events::commit_sink().map_err(sync_error)?;
        if wrote {
            dmig_obs::gauge_set(dmig_obs::keys::WS_ROUND, exec.executed_rounds() as u64);
        }
        Ok(wrote)
    };

    if resume {
        dmig_obs::counter_add(dmig_obs::keys::WS_RESUMES, 1);
        let marker = format!(
            "{{\"schema\": {}, \"from_round\": {resumed_at}}}",
            dmig_obs::json::string(RESUME_SCHEMA)
        );
        hold(&marker, false).map_err(&teardown)?;
    }
    // The session's first record continues the chain: `execute`'s is a
    // delta against the state the plan starts from, `resume`'s the next
    // delta of the chain it restored. It makes round 0 resumable: a kill
    // before the first boundary resumes into a full (still byte-identical)
    // re-run. Only a replan writes a full record. Nothing is in flight
    // yet, so this commit writes.
    let records = hold(&record(&mut exec), true).map_err(&teardown)?;
    let mut record_held = !commit(&exec, records).map_err(&teardown)?;

    // Each round's events and record are held, and committed with every
    // other round that finished while the previous fdatasync ran. A step
    // error writes what is held when the journal closes.
    loop {
        let step = {
            let _span = dmig_obs::span("migrate.step");
            exec.step()
        };
        match step {
            Ok(StepOutcome::Finished) => break,
            Ok(_) => {}
            Err(e) => return Err(teardown(format!("migrate {verb}: {e}"))),
        }
        let records = hold(&record(&mut exec), true).map_err(&teardown)?;
        record_held = !commit(&exec, records).map_err(&teardown)?;
    }

    // The session's last commit, when records are still held: they and
    // the final round's events go out once the running fdatasync has
    // returned. When the last record went out with its own commit, its
    // fdatasync may still run, and the final round's events are written
    // unfenced when the journal closes.
    if record_held {
        let _span = dmig_obs::span("migrate.sync");
        dmig_obs::events::wait_sink()
            .and_then(|()| dmig_obs::events::commit_sink())
            .map_err(sync_error)
            .map_err(&teardown)?;
        dmig_obs::gauge_set(dmig_obs::keys::WS_ROUND, exec.executed_rounds() as u64);
    }
    // The report renders and is staged, written beside its path and
    // fdatasynced, while the journal's last fdatasync runs. It is renamed
    // into place only once that has returned and the journal is closed,
    // so `report.json` never appears before the last record is durable;
    // a failed wait drops the staged file, which removes it.
    let report_path = ws.path(REPORT);
    let write_error = |e: std::io::Error| format!("cannot write {}: {e}", report_path.display());
    let (report, staged) = {
        let _span = dmig_obs::span("migrate.report");
        let report = exec.into_report();
        let staged = dmig_obs::fsio::stage(&report_path, report.to_json().as_bytes())
            .map_err(write_error)
            .map_err(&teardown)?;
        (report, staged)
    };
    {
        let _span = dmig_obs::span("migrate.sync");
        dmig_obs::events::wait_sink()
            .map_err(sync_error)
            .map_err(&teardown)?;
        close_journal();
    }
    {
        let _span = dmig_obs::span("migrate.report");
        staged.publish().map_err(write_error)?;
    }
    Ok(render_exec_summary(
        verb,
        &ws,
        &loaded,
        &report,
        resume.then_some(resumed_at),
        checkpoints,
        journal_bytes,
    ))
}

fn render_exec_summary(
    verb: &str,
    ws: &Workspace,
    loaded: &Loaded,
    report: &ExecReport,
    resumed_at: Option<usize>,
    checkpoints: u64,
    journal_bytes: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "migrate {verb}: workspace {}", ws.display());
    if let Some(round) = resumed_at {
        let _ = writeln!(out, "resumed from the round-{round} checkpoint");
    }
    let _ = writeln!(
        out,
        "items: {} delivered ({} redirected), {} lost of {}",
        report.delivered(),
        report.redirected(),
        report.lost(),
        loaded.problem.num_items()
    );
    let _ = writeln!(
        out,
        "recovery: {} replans, {} retries, {} crashes, {} degraded rounds",
        report.replans, report.retries, report.crashes, report.degraded_rounds
    );
    let _ = writeln!(
        out,
        "journal: {checkpoints} checkpoints, {journal_bytes} bytes appended; report: {}",
        ws.path(REPORT).display()
    );
    out
}

// --- export / import ----------------------------------------------------

/// `dmig migrate export`.
pub(crate) fn cmd_export(args: &Args<'_>) -> Result<String, String> {
    let ws = Workspace::at(args)?;
    let out_path = args
        .value("--out")
        .ok_or("migrate export: missing --out FILE")?;
    if !ws.path(MANIFEST).exists() {
        return Err(format!(
            "migrate export: {} is not a workspace (no {MANIFEST})",
            ws.display()
        ));
    }
    let mut files = archive::read_dir_files(&ws.dir)?;
    // Checksums are regenerated at export time over everything else.
    files.retain(|(name, _)| name != archive::CHECKSUM_FILE);
    let sums = archive::render_checksums(&files);
    ws.write(archive::CHECKSUM_FILE, &sums)?;
    files.push((archive::CHECKSUM_FILE.to_string(), sums.into_bytes()));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let packed = archive::pack(&files);
    files::write(out_path, &packed)?;
    Ok(format!(
        "exported {} files ({} bytes) from {} to {out_path}\n",
        files.len(),
        packed.len(),
        ws.display()
    ))
}

/// `dmig migrate import`.
pub(crate) fn cmd_import(args: &Args<'_>) -> Result<String, String> {
    let apath = args.first("archive file")?;
    let ws = Workspace::at(args)?;
    let data = files::read_bytes(apath)?;
    let files = archive::unpack(&data).map_err(|e| format!("{apath}: {e}"))?;
    archive::verify_checksums(&files).map_err(|e| format!("{apath}: {e}"))?;
    if ws.path(MANIFEST).exists() {
        return Err(format!(
            "migrate import: {} already holds a workspace; import into a fresh directory",
            ws.display()
        ));
    }
    std::fs::create_dir_all(&ws.dir).map_err(|e| format!("cannot create {}: {e}", ws.display()))?;
    // `manifest.json` makes the directory a workspace, so it is published
    // last, and an import that does not load takes back every file it
    // wrote: the directory stays free for the next import.
    let (manifest, rest): (Vec<_>, Vec<_>) = files.iter().partition(|(name, _)| name == MANIFEST);
    let mut written = Vec::with_capacity(files.len());
    let publish = || {
        for (name, bytes) in rest.into_iter().chain(manifest) {
            let path = ws.path(name);
            files::write(&path, bytes)?;
            written.push(path);
        }
        // A verified unpack still has to *be* a workspace: full reload,
        // which re-checks the fingerprint, the schedule, and the fault
        // references.
        load_workspace(&ws)
    };
    let loaded = publish().map_err(|e| {
        for path in written.iter().rev() {
            let _ = std::fs::remove_file(path);
        }
        e
    })?;
    Ok(format!(
        "imported {} files into {} (checksums verified)\n\
         workspace: {} items on {} disks, solver {}, {} planned rounds\n",
        files.len(),
        ws.display(),
        loaded.problem.num_items(),
        loaded.problem.num_disks(),
        loaded.solver_name,
        loaded.schedule.makespan()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `render_plan` as it was before it wrote bytes: the oracle.
    fn fmt_render_plan(schedule: &MigrationSchedule) -> String {
        let mut out = format!(
            "{{\"schema\": {}, \"rounds\": [",
            dmig_obs::json::string(PLAN_SCHEMA)
        );
        for (i, round) in schedule.rounds().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, e) in round.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", e.index());
            }
            out.push(']');
        }
        out.push_str("]}\n");
        out
    }

    /// `render_config` as it was before it wrote bytes: the oracle.
    fn fmt_render_config(config: &ExecutorConfig, cluster: &Cluster) -> String {
        let f64_bits = |v: f64| v.to_bits().to_string();
        let bws: Vec<String> = (0..cluster.num_disks())
            .map(|v| format!("\"{}\"", f64_bits(cluster.bandwidth(NodeId::new(v)))))
            .collect();
        format!(
            "{{\"schema\": {}, \"replan\": {}, \"retry_max\": {}, \"bandwidths\": [{}]}}\n",
            dmig_obs::json::string(CONFIG_SCHEMA),
            config.replan,
            config.retry_max,
            bws.join(", "),
        )
    }

    /// Edge ids: mostly small, some up to `u32::MAX`.
    fn arb_id() -> impl Strategy<Value = EdgeId> {
        (0..4u32, 0..3000usize, 0..=u32::MAX as usize)
            .prop_map(|(k, small, big)| EdgeId::new(if k == 0 { big } else { small }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn plan_bytes_match_the_fmt_renderer(
            rounds in proptest::collection::vec(proptest::collection::vec(arb_id(), 0..40), 0..12),
        ) {
            let schedule = MigrationSchedule::from_rounds(rounds);
            prop_assert_eq!(render_plan(&schedule), fmt_render_plan(&schedule));
        }

        #[test]
        fn config_bytes_match_the_fmt_renderer(
            replan in proptest::bool::ANY,
            retry_max in 0..=u32::MAX,
            bandwidths in proptest::collection::vec(
                (1u64..=f64::MAX.to_bits()).prop_map(f64::from_bits),
                0..40,
            ),
        ) {
            let config = ExecutorConfig { replan, retry_max };
            let cluster = Cluster::from_bandwidths(bandwidths);
            prop_assert_eq!(
                render_config(&config, &cluster),
                fmt_render_config(&config, &cluster)
            );
        }
    }

    #[test]
    fn a_bad_bandwidth_is_named_by_its_index() {
        let cfg = |list: &str| Value::parse(&format!("{{\"bandwidths\": [{list}]}}")).unwrap();
        let one = 1.0f64.to_bits();
        assert_eq!(
            bandwidths(&cfg(&format!("\"{one}\", \"{one}\""))),
            Ok(vec![1.0, 1.0])
        );
        assert_eq!(
            bandwidths(&cfg(&format!("\"{one}\", 2"))),
            Err("config.json: bandwidths[1] is not a bit-pattern string".to_string())
        );
        assert_eq!(
            bandwidths(&cfg("\"-1\"")),
            Err(
                "config.json: bandwidths[0]: bad bit pattern: invalid digit found in string"
                    .to_string()
            )
        );
        assert_eq!(
            bandwidths(&Value::parse("{\"bandwidths\": 1}").unwrap()),
            Err("config.json: `bandwidths` is not an array".to_string())
        );
    }

    #[test]
    fn f64_bit_round_trip_is_exact() {
        for v in [0.25, 2.0, 0.5, 8.0, 1.0e-300, std::f64::consts::PI] {
            let mut out = Vec::new();
            push_bits(&mut out, v);
            let doc = Value::parse(std::str::from_utf8(&out).unwrap()).unwrap();
            let back = f64_of_bits(&doc, "x").unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn resume_chain_starts_at_the_last_full_record_or_the_plan_and_skips_torn_tails() {
        let event = "{\"schema\": \"dmig-events/1\", \"kind\": \"round\"}";
        let full = "{\"schema\": \"dmig-exec-ckpt/1\", \"disks\": 3}";
        let delta =
            |k: u32| format!("{{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": {k}, \"disks\": 3}}");
        let (d1, d2, d3) = (delta(1), delta(2), delta(3));
        let marker = "{\"schema\": \"dmig-resume/1\", \"from_round\": 1}";
        let torn = "{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": 2, \"tor";
        let durable_text = |j: &str| durable(j.as_bytes()).unwrap().to_string();

        // No replan: the chain starts at the first record, a delta whose
        // base is the plan, and runs on through a resume marker; the chain
        // keeps journal line numbers.
        let journal = format!("{d1}\n{event}\n{d2}\n{marker}\n{d3}\n{event}\n{torn}");
        let text = durable_text(&journal);
        assert_eq!(text.len(), journal.rfind('\n').unwrap() + 1);
        assert_eq!(
            resume_chain(&text).unwrap(),
            format!("{d1}\n\n{d2}\n\n{d3}\n\n")
        );
        // A replan's full record starts the chain anew: lines 4 and 6.
        let journal = format!("{d1}\n{event}\n{d2}\n{full}\n{event}\n{d1}\n{event}\n");
        assert_eq!(
            resume_chain(&durable_text(&journal)).unwrap(),
            format!("\n\n\n{full}\n\n{d1}\n\n")
        );
        // Journals of older builds open each session with a full record
        // and resume from the last one; a journal without a record has no
        // chain.
        let older = format!("{full}\n{event}\n{d1}\n{marker}\n{full}\n{event}\n{d1}\n");
        assert_eq!(
            resume_chain(&durable_text(&older)).unwrap(),
            format!("\n\n\n\n{full}\n\n{d1}\n")
        );
        assert_eq!(
            resume_chain(&durable_text(&format!("{event}\n{marker}\n"))),
            None
        );
        assert_eq!(resume_chain(""), None);
        assert_eq!(durable_text("{\"torn"), "");
    }

    /// A power loss can leave any bytes after the last newline. Only the
    /// durable prefix must be UTF-8; a durable line that is not is named.
    #[test]
    fn a_torn_tail_need_not_be_text_but_a_durable_line_must() {
        let mut journal = b"{\"a\": 1}\n{\"b\": 2}\n{\"c\"".to_vec();
        journal.extend_from_slice(&[0xFF; 40]);
        assert_eq!(durable(&journal).unwrap(), "{\"a\": 1}\n{\"b\": 2}\n");
        journal.extend_from_slice(&[0; 8]);
        assert_eq!(durable(&journal).unwrap(), "{\"a\": 1}\n{\"b\": 2}\n");
        let mut broken = b"{\"a\": 1}\n{\"b\": \"".to_vec();
        broken.extend_from_slice(&[0xC3, b'"', b'}', b'\n']);
        assert_eq!(
            durable(&broken).unwrap_err(),
            "journal.jsonl: line 2 is not UTF-8"
        );
    }
}
