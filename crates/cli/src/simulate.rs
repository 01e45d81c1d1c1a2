//! `dmig simulate`: a schedule run in the bandwidth-split model, under a
//! seeded fault plan when one is given, with its makespan attribution.

use std::fmt::Write as _;
use std::time::Instant;

use dmig_core::solver::Solver;
use dmig_core::{bounds, MigrationProblem};
use dmig_obs::trace;
use dmig_sim::{engine::simulate_rounds, Cluster};

use crate::args::{self, Args};
use crate::files::{self, read_instance};
use crate::record::{ObsRequest, RunContext};
use crate::solve::record_solve_gauges;

/// Assembles the data the attribution engine needs: per-disk degree and
/// capacity, the LB2 witness, and the schedule's per-round busy profile
/// under the round model.
pub(crate) fn explain_input(
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
pub(crate) fn cmd_simulate(args: &Args<'_>) -> Result<String, String> {
    let path = args.first("instance file")?;
    let solver = args::solver(args)?;
    let progress = args.given("--progress");
    let (problem, schedule, report, exec, explain) = ObsRequest::new(args).around(|run| {
        let (text, problem, cluster, faulted) = {
            let _span = dmig_obs::span("simulate.parse");
            let (text, problem) = read_instance(path)?;
            let cluster = args::cluster(args, &problem)?;
            let (plan, config) = args::faults(args, &problem)?;
            let missing = ["--replan", "--retry-max"]
                .into_iter()
                .find(|f| args.given(f));
            if let (None, Some(flag)) = (&plan, missing) {
                return Err(format!("simulate: {flag} requires --faults FILE"));
            }
            let faulted = plan.map(|(_, plan)| (plan, config));
            (text, problem, cluster, faulted)
        };
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::SOLVE);
        if progress {
            dmig_sim::progress::set_progress(true);
        }
        let started = Instant::now();
        let ran = solver
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
        let (schedule, report, exec) = ran?;
        // Attribution explains the planned schedule under the round model —
        // with faults injected, the executed timeline may differ, but the
        // bounds and binding chain are properties of the plan.
        let explain = if args.given("--explain") {
            let _span = dmig_obs::span("simulate.explain");
            let input = explain_input(&problem, &schedule, &cluster)?;
            Some((dmig_obs::explain::attribute(&input), input))
        } else {
            None
        };
        record_solve_gauges(&problem, schedule.makespan());
        if let Some((attr, _)) = &explain {
            record_explain_gauges(attr);
        }
        *run = RunContext {
            source: if exec.is_some() {
                "cli-simulate-faults"
            } else {
                "cli-simulate"
            },
            threads: solver.threads(),
            instance_text: text,
            wall,
            disks: report
                .disk_busy
                .iter()
                .enumerate()
                .map(|(v, &busy)| trace::DiskUtilRow {
                    disk: v,
                    busy,
                    utilization: report.disk_utilization(v),
                })
                .collect(),
        };
        Ok((problem, schedule, report, exec, explain))
    })?;
    if let Some(out_path) = args.value("--report-out") {
        let json = exec
            .as_ref()
            .map_or_else(|| report.to_json(), dmig_sim::ExecReport::to_json);
        files::write(out_path, json.as_bytes())?;
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

#[cfg(test)]
mod tests {
    use crate::testutil::{run_ok, run_str, temp_path, write_temp, K3};
    use dmig_obs::Value;

    #[test]
    fn simulate_reports_time() {
        let path = write_temp("simulate", K3);
        let out = run_ok(&["simulate", &path, "--bandwidths", "1,1,1"]);
        assert!(out.contains("wall-clock time"));
    }

    #[test]
    fn simulate_metrics_include_sim_counters() {
        let instance = write_temp("sim-metrics-in", K3);
        let out_str = temp_path("sim-metrics.json");
        run_ok(&["simulate", &instance, "--metrics-out", &out_str]);
        let json = std::fs::read_to_string(&out_str).unwrap();
        assert!(json.contains("\"sim.rounds\""), "{json}");
        assert!(json.contains("simulate_rounds"), "{json}");
        std::fs::remove_file(&out_str).ok();
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
        let out = run_ok(&[
            "simulate",
            &instance,
            "--faults",
            &faults,
            "--replan",
            "--retry-max",
            "2",
        ]);
        assert!(out.contains("0 lost"), "{}", out);
        assert!(out.contains("replans"), "{}", out);
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
            run_ok(&[
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
    fn simulate_explain_appends_attribution() {
        let path = write_temp("sim-explain", K3);
        let plain = run_str(&["simulate", &path]);
        let explained = run_ok(&["simulate", &path, "--explain"]);
        assert!(
            explained.starts_with(&plain.stdout),
            "--explain only appends:\n{}",
            explained
        );
        assert!(explained.contains("makespan attribution"), "{}", explained);
        assert!(explained.contains("binding lower bound"), "{}", explained);
    }

    #[test]
    fn events_out_streams_parseable_jsonl() {
        let instance = write_temp("events-instance", K3_SPARE);
        let faults = write_temp(
            "events-plan",
            "seed = 7\n\n[[crash]]\ndisk = 2\ntime = 0.25\nreplacement = 3\n",
        );
        let events_str = temp_path("events.jsonl");
        std::fs::remove_file(&events_str).ok();
        run_ok(&[
            "simulate",
            &instance,
            "--faults",
            &faults,
            "--replan",
            "--events-out",
            &events_str,
        ]);
        let jsonl = std::fs::read_to_string(&events_str).unwrap();
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
        std::fs::remove_file(&events_str).ok();
    }

    #[test]
    fn crash_dump_flag_is_quiet_on_success() {
        let instance = write_temp("crash-dump-instance", K3);
        let dump_str = temp_path("crash.json");
        std::fs::remove_file(&dump_str).ok();
        run_ok(&["simulate", &instance, "--crash-dump", &dump_str]);
        assert!(
            !std::path::Path::new(&dump_str).exists(),
            "a clean run must not leave a crash dump"
        );
    }

    #[test]
    fn simulate_trace_html_includes_disk_lanes() {
        let instance = write_temp("disk-lane-in", K3);
        let out_str = temp_path("disk-lane.html");
        run_ok(&["simulate", &instance, "--trace-html", &out_str]);
        let html = std::fs::read_to_string(&out_str).unwrap();
        assert!(html.contains("disk utilization"), "{html}");
        assert!(html.contains("id=\"disks\""), "{html}");
        assert!(html.contains("sortDisks"), "{html}");
        std::fs::remove_file(&out_str).ok();
    }
}
