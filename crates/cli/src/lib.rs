//! `dmig` command-line planner (see `dmig help`). The library exposes
//! [`run`] so the whole CLI is unit-testable; the binary is a thin
//! wrapper. Each command's body lives in a module of its own; the table
//! here maps a command line to the body and to the flags it takes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
mod args;
mod files;
mod generate;
pub mod instance;
mod obs;
mod record;
mod simulate;
mod solve;
#[cfg(test)]
mod testutil;
pub mod workspace;

use args::{Args, Flags};
use record::RECORDER;

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

/// A command's body: it gets its arguments split by the flags it takes.
type Body = fn(&Args<'_>) -> Result<String, String>;

// Flag lists too long for a row of `COMMANDS`.
const SIMULATE: &str = "--solver NAME --threads N --bandwidths B0,B1,... --faults FILE \
    --replan --retry-max N --report-out FILE --explain --progress";
const PLAN: &str = "--workspace DIR --faults FILE --solver NAME --threads N \
    --bandwidths B0,B1,... --replan --retry-max N --metrics-out FILE";
/// `--abort-after-checkpoint N` is a test hook, left out of `dmig help`.
const SESSION: &str = "--workspace DIR --threads N --metrics-out FILE --abort-after-checkpoint N";
const EXPLAIN: &str = "--solver NAME --threads N --bandwidths B0,B1,... --json --out FILE";

/// Every command `dmig` runs: its name (with the verb under `migrate` and
/// `obs`), the flags it takes, and its body.
#[rustfmt::skip]
const COMMANDS: &[(&str, Flags, Body)] = &[
    ("solve", &["--solver NAME --threads N --shards K", RECORDER], solve::cmd_solve),
    ("bounds", &[], solve::cmd_bounds),
    ("compare", &[], solve::cmd_compare),
    ("simulate", &[SIMULATE, RECORDER], simulate::cmd_simulate),
    ("migrate plan", &[PLAN], workspace::cmd_plan),
    ("migrate execute", &[SESSION], workspace::cmd_execute),
    ("migrate resume", &[SESSION], workspace::cmd_resume),
    ("migrate export", &["--workspace DIR --out FILE"], workspace::cmd_export),
    ("migrate import", &["--workspace DIR"], workspace::cmd_import),
    ("generate", &["--seed S"], generate::cmd_generate),
    ("stats", &[], solve::cmd_stats),
    ("dot", &[], solve::cmd_dot),
    ("import-trace", &["--default-cap K"], generate::cmd_import_trace),
    ("obs diff", &["--tolerance T --all"], obs::cmd_diff),
    ("obs gate", &["--tolerance T --baseline SPEC --explain"], obs::cmd_gate),
    ("obs serve", &["--addr A --addr-file F --requests N"], obs::cmd_serve),
    ("obs export-trace", &["--out FILE --html FILE --check"], obs::cmd_export_trace),
    ("obs flame", &["--out FILE"], obs::cmd_flame),
    ("obs explain", &[EXPLAIN], obs::cmd_explain),
    ("obs compact", &["--keep N"], obs::cmd_compact),
];

fn run_inner(args: &[String]) -> Result<String, String> {
    let group = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(usage()),
        Some(group @ ("migrate" | "obs")) => Some(group),
        Some(_) => None,
    };
    let words = if group.is_some() {
        args.len().min(2)
    } else {
        1
    };
    let name = args[..words].join(" ");
    if let Some(&(name, flags, body)) = COMMANDS.iter().find(|(n, ..)| *n == name) {
        return body(&Args::parse(name, flags, &args[words..])?);
    }
    let Some(group) = group else {
        return Err(format!("unknown command `{}`; try `dmig help`", args[0]));
    };
    let verbs: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|(n, ..)| n.strip_prefix(group)?.strip_prefix(' '))
        .collect();
    Err(match args.get(1) {
        Some(verb) => format!("{group}: unknown verb `{verb}` ({})", verbs.join("|")),
        None => format!("{group}: missing verb ({})", verbs.join("|")),
    })
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
     \x20        bipartite-optimal exact\n\
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
     \x20                     (flow_solves, euler_splits, ...), and gauges\n\
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
     \x20                     /snapshot (JSON), with RSS (mem.rss_*); /metrics\n\
     \x20                     adds each span name's self time (prof.self_ns.*)\n\
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::{usage, COMMANDS};
    use crate::testutil::run_str;

    /// `dmig help` names every command, and exactly the flags the commands
    /// take, but for the test hook `--abort-after-checkpoint`.
    #[test]
    fn help_names_every_command_and_exactly_the_flags_they_take() {
        fn flags(text: &str) -> BTreeSet<&str> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .collect()
        }
        let help = usage();
        let mut taken = BTreeSet::new();
        for (name, specs, _) in COMMANDS {
            assert!(
                help.contains(&format!("dmig {name} ")),
                "usage() misses {name}"
            );
            specs.iter().for_each(|spec| taken.extend(flags(spec)));
        }
        assert!(taken.remove("--abort-after-checkpoint"));
        assert_eq!(flags(&help), taken);
        assert!(
            help.contains("clustered"),
            "usage() misses the clustered kind"
        );
    }

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
}
