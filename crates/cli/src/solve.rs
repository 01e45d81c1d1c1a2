//! `dmig solve`, `bounds`, `compare`, `stats` and `dot`: the commands that
//! read one instance and print what the solvers and bounds make of it.

use std::fmt::Write as _;
use std::time::Instant;

use dmig_core::shard::{solve_sharded, ShardConfig};
use dmig_core::solver::all_solvers;
use dmig_core::{bounds, MigrationProblem};

use crate::args::{self, Args};
use crate::files::read_instance;
use crate::record::{ObsRequest, RunContext};

/// Sets the per-solve summary gauges on the live recorder so gate rules
/// can compare round counts against the lower bound `Δ'` (`Γ'` never
/// exceeds it; `--explain` adds `solve.lb2` from its witness).
pub(crate) fn record_solve_gauges(problem: &MigrationProblem, rounds: usize) {
    dmig_obs::gauge_set(dmig_obs::keys::SOLVE_ROUNDS, rounds as u64);
    dmig_obs::gauge_set(dmig_obs::keys::SOLVE_LB1, bounds::lb1(problem) as u64);
}

/// `dmig solve`. With an observability flag the recorder is on for the
/// whole command, so the span tree breaks it down by phase:
/// `solve.parse`, `solve_sharded`, `solve.validate` and `solve.render`.
pub(crate) fn cmd_solve(args: &Args<'_>) -> Result<String, String> {
    let path = args.first("instance file")?;
    let solver = args::solver(args)?;
    let threads = solver.threads();
    // Without --shards the cells are the connected components, exactly as
    // `ParallelSolver` solves them; --shards K also cuts heavy components.
    let config = args
        .count("--shards")?
        .map_or(ShardConfig::uncut(threads), ShardConfig::with_shards);
    ObsRequest::new(args).around(|run| {
        let parse_span = dmig_obs::span("solve.parse");
        let (text, problem) = read_instance(path)?;
        drop(parse_span);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::SOLVE);
        let started = Instant::now();
        let (schedule, _report) = solve_sharded(&problem, config, solver.threads(), |piece| {
            solver.inner().solve(piece)
        })
        .map_err(|e| e.to_string())?;
        *run = RunContext {
            source: "cli-solve",
            threads,
            instance_text: text,
            wall: started.elapsed(),
            disks: Vec::new(),
        };
        {
            let _span = dmig_obs::span("solve.validate");
            schedule
                .validate(&problem)
                .map_err(|e| format!("internal: invalid schedule: {e}"))?;
        }
        record_solve_gauges(&problem, schedule.makespan());

        let _span = dmig_obs::span("solve.render");
        let mut out = format!(
            "{problem}\nsolver {}: {} rounds (lower bound {})\n",
            solver.inner().name(),
            schedule.makespan(),
            bounds::lower_bound(&problem)
        )
        .into_bytes();
        // Every item line is `e{id}(v{u}->v{v})`, the `Display` forms of
        // the ids, written digit by digit.
        let g = problem.graph();
        let push = dmig_obs::json::push_u64;
        for (i, round) in schedule.rounds().iter().enumerate() {
            out.extend_from_slice(b"round ");
            push(&mut out, i as u64);
            out.extend_from_slice(b": ");
            for (k, &e) in round.iter().enumerate() {
                let ep = g.endpoints(e);
                // A space before every item but the first.
                out.extend_from_slice(&b" e"[usize::from(k == 0)..]);
                push(&mut out, e.index() as u64);
                out.extend_from_slice(b"(v");
                push(&mut out, ep.u.index() as u64);
                out.extend_from_slice(b"->v");
                push(&mut out, ep.v.index() as u64);
                out.push(b')');
            }
            out.push(b'\n');
        }
        Ok(String::from_utf8(out).expect("the header is a String and the rest ASCII"))
    })
}

pub(crate) fn cmd_bounds(args: &Args<'_>) -> Result<String, String> {
    let (_, problem) = read_instance(args.first("instance file")?)?;
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

pub(crate) fn cmd_compare(args: &Args<'_>) -> Result<String, String> {
    let (_, problem) = read_instance(args.first("instance file")?)?;
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

pub(crate) fn cmd_stats(args: &Args<'_>) -> Result<String, String> {
    let (_, problem) = read_instance(args.first("instance file")?)?;
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

pub(crate) fn cmd_dot(args: &Args<'_>) -> Result<String, String> {
    let (_, problem) = read_instance(args.first("instance file")?)?;
    Ok(dmig_graph::io::to_dot(problem.graph()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_ok, run_str, temp_path, write_temp, K3};
    use dmig_obs::Value;

    #[test]
    fn solve_roundtrip() {
        let path = write_temp("solve", K3);
        let out = run_ok(&["solve", &path]);
        assert!(out.contains("rounds"));
        assert!(out.contains("round 0:"));
    }

    #[test]
    fn solve_with_named_solver() {
        let path = write_temp("solve2", K3);
        for name in ["greedy", "exact"] {
            let out = run_ok(&["solve", &path, "--solver", name, "--threads", "2"]);
            assert!(out.contains(&format!("solver {name}")), "{out}");
        }
        // Every command wraps its solver in `ParallelSolver` already.
        for name in ["nope", "parallel"] {
            let out = run_str(&["solve", &path, "--solver", name]);
            assert_eq!(out.code, 1, "{}", out.stdout);
            assert!(out.stdout.contains(&format!("unknown solver `{name}`")));
        }
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
        let out = run_ok(&["compare", &path]);
        for name in [
            "auto",
            "even-optimal",
            "general",
            "saia-1.5",
            "homogeneous",
            "greedy",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{}", out);
        }
    }

    #[test]
    fn stats_command() {
        let path = write_temp("stats", K3);
        let out = run_ok(&["stats", &path]);
        assert!(out.contains("bipartite: false"));
        assert!(out.contains("all even: true"));
        assert!(out.contains("LB1"));
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
    fn bad_counts_are_clean_errors() {
        let path = write_temp("counts-bad", K3);
        for flag in ["--shards", "--threads"] {
            for bad in ["0", "-2", "many"] {
                let out = run_str(&["solve", &path, flag, bad]);
                assert_eq!(out.code, 1, "{flag} {bad} accepted: {}", out.stdout);
                assert!(out.stdout.contains(flag));
            }
            // A dangling flag is an error, not a silent fallback to the default.
            let out = run_str(&["solve", &path, flag]);
            assert_eq!(out.stdout, format!("error: bad {flag}: missing value\n"));
        }
    }

    #[test]
    fn missing_file_is_clean_error() {
        let out = run_str(&["solve", "/no/such/file"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.starts_with("error:"));
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
        let out_str = temp_path("metrics.json");
        run_ok(&["solve", &instance, "--metrics-out", &out_str]);
        let json = std::fs::read_to_string(&out_str).unwrap();
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
        // Every registry counter is exported, the general solver's too,
        // though the even solver planned this instance.
        let snap = dmig_obs::Snapshot::from_value(&Value::parse(&json).unwrap()).unwrap();
        use dmig_obs::keys;
        for key in [
            keys::GENERAL_DIRECT,
            keys::GENERAL_WALK_FLIPS,
            keys::GENERAL_SHIFTS,
            keys::GENERAL_ESCALATIONS,
            keys::GENERAL_RESIDUE_COLORED,
        ] {
            assert_eq!(snap.counters.get(key), Some(&0), "{key} in:\n{json}");
        }
        assert!(!json.contains("histograms"), "{json}");
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
        let out_str = temp_path("trace-out.json");
        run_ok(&["solve", &path, "--threads", "4", "--trace-out", &out_str]);
        let text = std::fs::read_to_string(&out_str).unwrap();
        let stats = dmig_obs::trace::validate_chrome_trace(&text).expect("exported trace valid");
        assert!(stats.begins >= 500, "cell spans present: {stats:?}");
    }

    #[test]
    fn trace_html_writes_timeline() {
        let instance = write_temp("trace-html-in", K3);
        let out_str = temp_path("trace-html.html");
        run_ok(&["solve", &instance, "--trace-html", &out_str]);
        let html = std::fs::read_to_string(&out_str).unwrap();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("solve_even"), "{html}");
    }

    #[test]
    fn history_appends_one_entry_per_run() {
        let instance = write_temp("history-in", K3);
        let hist_str = temp_path("history.jsonl");
        std::fs::remove_file(&hist_str).ok();
        for _ in 0..2 {
            run_ok(&["solve", &instance, "--history", &hist_str]);
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
    }

    /// The final snapshot of `solve --serve` carries the live key set:
    /// live.*, serve.requests, and mem.* where procfs exists.
    #[test]
    fn solve_serve_exposes_live_keys() {
        // Big enough that the run outlives one scrape round-trip is NOT
        // required: begin() pre-registers the live keys, so even a scrape
        // racing the final rounds sees them.
        let path = write_temp("serve-live", K3);
        let addr_str = temp_path("serve-live.txt");
        std::fs::remove_file(&addr_str).ok();
        let metrics_str = temp_path("serve-live.json");
        run_ok(&[
            "solve",
            &path,
            "--serve",
            "127.0.0.1:0",
            "--serve-addr-file",
            &addr_str,
            "--metrics-out",
            &metrics_str,
        ]);
        // The final snapshot (written after the plane stops) carries the
        // live gauges at their terminal values plus the serve counter.
        let json = std::fs::read_to_string(&metrics_str).unwrap();
        for key in [
            "\"live.phase\"",
            "\"live.round\"",
            "\"live.items_done\"",
            "\"live.shard_active\"",
            "\"serve.requests\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(json.contains("\"mem.rss_peak_bytes\""), "{json}");
        }
        let doc = Value::parse(&json).unwrap();
        // "live.phase" is one key with a literal dot, not a path.
        let phase = doc
            .get_path("gauges")
            .and_then(Value::as_object)
            .and_then(|g| g.get("live.phase"))
            .and_then(Value::as_f64);
        assert_eq!(phase, Some(6.0), "terminal phase is DONE (= 6)");
    }
}
