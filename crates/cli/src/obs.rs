//! `dmig obs`: diff, gate, serve, export and roll up metrics snapshots, and
//! explain a plan's makespan.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dmig_core::solver::Solver;
use dmig_obs::{diff, gate, history, trace, Snapshot, Value};

use crate::args::{self, Args};
use crate::files::{self, read_instance};
use crate::simulate::explain_input;

/// `dmig obs explain <instance>`: solves the instance, replays the
/// schedule's per-round busy profile, and prints which disk realizes LB1,
/// which witness realizes LB2, and the per-disk binding-chain ranking
/// (`--json` for the machine-readable `dmig-explain/1` form).
pub(crate) fn cmd_explain(args: &Args<'_>) -> Result<String, String> {
    let (_, problem) = read_instance(args.first("instance file")?)?;
    let solver = args::solver(args)?;
    let schedule = solver.solve(&problem).map_err(|e| e.to_string())?;
    let cluster = args::cluster(args, &problem)?;
    let input = explain_input(&problem, &schedule, &cluster)?;
    let attr = dmig_obs::explain::attribute(&input);
    let rendered = if args.given("--json") {
        attr.to_json()
    } else {
        attr.render_text(&input.disks)
    };
    files::print_or_write(args, rendered, "explanation")
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
    let text = files::read_text(path)?;
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

pub(crate) fn cmd_diff(args: &Args<'_>) -> Result<String, String> {
    let [old_spec, new_spec] = args.operands() else {
        return Err("obs diff: expected exactly two metrics files".to_string());
    };
    // Default noise floor: timing metrics jitter run to run; 5% keeps the
    // diff focused on real movement.
    let tolerance = args.number("--tolerance")?.unwrap_or(0.05);
    let old = load_metrics(old_spec)?;
    let new = load_metrics(new_spec)?;
    let d = diff::diff_metrics(&old, &new, tolerance);
    Ok(d.render(!args.given("--all")))
}

pub(crate) fn cmd_gate(args: &Args<'_>) -> Result<String, String> {
    let [rules_path, metrics_spec] = args.operands() else {
        return Err("obs gate: expected <rules.toml> <metrics-file>".to_string());
    };
    let rules_text = files::read_text(rules_path)?;
    let mut rules = gate::parse_rules(&rules_text).map_err(|e| format!("{rules_path}: {e}"))?;
    if let Some(t) = args.number("--tolerance")? {
        rules.default_tolerance = t;
    }
    let mut metrics = load_metrics(metrics_spec)?;
    if let Some(baseline_spec) = args.value("--baseline") {
        // Baseline metrics join the namespace under a `baseline.` prefix so
        // rules can express drift bounds like
        // `sim.rounds <= baseline.sim.rounds * 1.1`. Current-run keys win on
        // the (pathological) chance of a collision.
        for (k, v) in load_metrics(baseline_spec)? {
            metrics.entry(format!("baseline.{k}")).or_insert(v);
        }
    }
    let report = gate::evaluate(&rules, &metrics, &gate_functions());
    let rendered = if args.given("--explain") {
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
pub(crate) fn cmd_serve(args: &Args<'_>) -> Result<String, String> {
    let (raw, snapshot) = read_snapshot(args.first("snapshot file")?)?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:9464");
    let max_requests = args.number("--requests")?;
    let server = dmig_obs::serve::ObsServer::start(
        addr,
        dmig_obs::serve::ServeSource::Fixed { snapshot, raw },
        max_requests,
    )?;
    let local = server.local_addr();
    if let Some(addr_file) = args.value("--addr-file") {
        files::write(addr_file, format!("{local}\n").as_bytes())?;
    }
    let served = server.join();
    Ok(format!("served {served} request(s) on http://{local}\n"))
}

/// The `dmig-obs/1` snapshot at `path`, and its text.
fn read_snapshot(path: &str) -> Result<(String, Snapshot), String> {
    let text = files::read_text(path)?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let snapshot = Snapshot::from_value(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, snapshot))
}

pub(crate) fn cmd_export_trace(args: &Args<'_>) -> Result<String, String> {
    let spans = read_snapshot(args.first("snapshot file")?)?.1.spans;
    let chrome = trace::chrome_trace(&spans);
    let stats = if args.given("--check") {
        Some(trace::validate_chrome_trace(&chrome).map_err(|e| format!("invalid trace: {e}"))?)
    } else {
        None
    };
    let mut out = String::new();
    if let Some(html_path) = args.value("--html") {
        files::write(html_path, trace::html_timeline(&spans).as_bytes())?;
        let _ = writeln!(out, "wrote HTML timeline to {html_path}");
    }
    // No --out: the trace itself is the output, pipeable to a file.
    out.push_str(&files::print_or_write(args, chrome, "Chrome trace")?);
    if let (Some(s), Some(_)) = (stats, args.value("--out")) {
        let _ = writeln!(
            out,
            "checked: {} begin / {} end events, {} open, {} track(s)",
            s.begins,
            s.ends,
            s.open,
            s.tracks.len()
        );
    }
    Ok(out)
}

pub(crate) fn cmd_flame(args: &Args<'_>) -> Result<String, String> {
    let spans = read_snapshot(args.first("snapshot file")?)?.1.spans;
    let table = trace::render_rollup_text(&trace::self_time_rollup(&spans));
    files::print_or_write(args, table, "self-time rollup")
}

pub(crate) fn cmd_compact(args: &Args<'_>) -> Result<String, String> {
    let path = args.first("history file")?;
    let keep = args
        .count("--keep")?
        .ok_or("obs compact: --keep N is required")?;
    let (kept, dropped) = history::compact(path, keep)?;
    Ok(format!(
        "compacted {path}: kept {kept} entr{}, dropped {dropped}\n",
        if kept == 1 { "y" } else { "ies" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_ok, run_str, temp_path, write_temp, K3};
    use std::time::{Duration, Instant};

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

        let ok = run_ok(&["obs", "gate", &rules, &good]);
        assert!(ok.contains("PASS"));

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
        let out = run_ok(&["obs", "gate", &rules, &metrics]);
        assert!(out.contains("PASS"));
    }

    #[test]
    fn obs_diff_reports_changes_only() {
        let old = write_temp("diff-old", "{\"rounds\": 10, \"flow_solves\": 5}");
        let new = write_temp("diff-new", "{\"rounds\": 12, \"flow_solves\": 5}");
        let out = run_ok(&["obs", "diff", &old, &new]);
        assert!(out.contains("rounds"), "{}", out);
        assert!(
            !out.contains("flow_solves"),
            "unchanged metric hidden by default:\n{}",
            out
        );
        let all = run_str(&["obs", "diff", &old, &new, "--all"]);
        assert!(all.stdout.contains("flow_solves"), "{}", all.stdout);
    }

    #[test]
    fn obs_export_trace_roundtrip() {
        let instance = write_temp("export-in", K3);
        let snap_str = temp_path("export.json");
        run_ok(&["solve", &instance, "--metrics-out", &snap_str]);
        let exported = run_str(&["obs", "export-trace", &snap_str, "--check"]);
        assert_eq!(exported.code, 0, "{}", exported.stdout);
        assert!(exported.stdout.contains("\"traceEvents\""));
        dmig_obs::trace::validate_chrome_trace(&exported.stdout).expect("re-exported trace valid");
        std::fs::remove_file(&snap_str).ok();
    }

    #[test]
    fn obs_flame_prints_self_time_rollup() {
        let instance = write_temp("flame-in", K3);
        let snap_str = temp_path("flame.json");
        run_ok(&["solve", &instance, "--metrics-out", &snap_str]);
        let flame = run_ok(&["obs", "flame", &snap_str]);
        assert!(flame.contains("self ms"), "{}", flame);
        assert!(flame.contains("solve_even"), "{}", flame);
        std::fs::remove_file(&snap_str).ok();
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
    fn obs_gate_baseline_prefixes_metrics() {
        let rules = write_temp(
            "gate-base-rules",
            "[[rule]]\nname = \"round drift\"\nexpr = \"rounds <= baseline.rounds * 1.5\"\n",
        );
        let current = write_temp("gate-base-cur", "{\"rounds\": 10}");
        let ok_base = write_temp("gate-base-ok", "{\"rounds\": 8}");
        let bad_base = write_temp("gate-base-bad", "{\"rounds\": 4}");

        run_ok(&["obs", "gate", &rules, &current, "--baseline", &ok_base]);
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
        let out = run_ok(&["obs", "compact", &hist, "--keep", "1"]);
        assert!(out.contains("kept 2"), "{}", out);
        assert!(out.contains("dropped 4"), "{}", out);
        let survivors = std::fs::read_to_string(&hist).unwrap();
        assert_eq!(survivors.lines().count(), 2);
        assert!(survivors.contains("\"round\":2"));
        assert!(!survivors.contains("\"round\":0"));
        // --keep is mandatory and must be positive.
        assert_eq!(run_str(&["obs", "compact", &hist]).code, 1);
        assert_eq!(
            run_str(&["obs", "compact", &hist, "--keep", "0"]).stdout,
            "error: bad --keep: must be at least 1\n"
        );
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
        run_ok(&["obs", "explain", &path, "--json", "--out", &out_path]);
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), out.stdout);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn obs_diff_summary_counts_one_sided_keys() {
        let old = write_temp("diff-sum-old", "{\"kept\": 1.0, \"gone\": 3.0}");
        let new = write_temp("diff-sum-new", "{\"kept\": 1.0, \"fresh\": 2.0}");
        let out = run_ok(&["obs", "diff", &old, &new]);
        assert!(
            out.contains("3 metrics compared, 0 changed beyond 5.0% tolerance, 1 added, 1 removed"),
            "{}",
            out
        );
        assert!(out.contains("fresh"), "{}", out);
        assert!(out.contains("gone"), "{}", out);
    }

    #[test]
    fn obs_gate_explain_resolves_both_sides() {
        let rules = write_temp(
            "gate-explain-rules",
            "[[rule]]\nname = \"rounds bound\"\nexpr = \"rounds <= 5\"\n",
        );
        let metrics = write_temp("gate-explain-metrics", "{\"rounds\": 3}");
        let plain = run_ok(&["obs", "gate", &rules, &metrics]);
        assert!(!plain.contains("left `"), "{}", plain);
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

    /// End-to-end scrape of `dmig obs serve`: a background client waits
    /// for the addr file, GETs /metrics and /snapshot, and the command
    /// exits on its own via --requests.
    #[test]
    fn obs_serve_serves_fixed_snapshot_over_http() {
        let instance = write_temp("serve-fixed-in", K3);
        let snap_str = temp_path("serve-snap.json");
        run_ok(&["solve", &instance, "--metrics-out", &snap_str]);
        let raw = std::fs::read_to_string(&snap_str).unwrap();

        let addr_str = temp_path("serve-addr.txt");
        std::fs::remove_file(&addr_str).ok();
        let addr_for_client = addr_str.clone();
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
        std::fs::remove_file(&snap_str).ok();
        std::fs::remove_file(&addr_str).ok();
    }
}
