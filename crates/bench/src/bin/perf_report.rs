//! Emits `BENCH_perf.json`: wall-clock timings of the optimized kernels
//! against the recorded seed baseline, the component-parallel solve
//! against whole-graph solving, the intra-component thread-scaling
//! series on a single giant component, the chunked Euler orientation
//! against the serial walk on a 1e6-edge even multigraph, and the sharded
//! solve pipeline (graph-cut cells + boundary reconciliation) against the
//! unsharded solve on a clustered giant.
//!
//! Run with `cargo run --release -p dmig-bench --bin perf_report`.
//! Pass `--smoke` to shrink the instance sizes for a CI sanity run (the
//! JSON is still written, with `"smoke": true`). Pass `--out PATH` to
//! redirect the JSON file (default `BENCH_perf.json` in the working
//! directory); the JSON is always echoed to stdout as well.
//!
//! After the measurements, every run:
//!
//! 1. appends exactly one entry to the JSONL history (`--history PATH`,
//!    default `BENCH_history.jsonl`) with run metadata — git revision,
//!    thread counts, config fingerprint, wall time — plus the flattened
//!    metrics, and
//! 2. evaluates the declarative perf gate (`--rules PATH`, default
//!    `ci-rules.toml`, falling back to the copy at the repo root). The
//!    closed-form counter cross-checks that used to live here as
//!    hardcoded asserts (flow solves / Euler splits per quota level,
//!    Theorem 4.1) are now rules in that file; a failed rule exits
//!    nonzero *after* the JSON and history are written, so regression
//!    artifacts survive for debugging.
//!
//! Honesty notes, recorded in the JSON itself:
//!
//! * `hardware_threads` is what `available_parallelism()` reports — once
//!   at the top level and again inside each measurement section, so a
//!   section copied out of context still says what machine produced it.
//!   On a host with fewer hardware threads than a measurement needs, the
//!   corresponding speedup is recorded as `null` rather than a misleading
//!   sub-1.0 number (the timings still measure pool overhead and remain);
//!   the gate's `when` guards then skip those rules instead of failing
//!   them. The component *split* itself still pays off on any host
//!   because Dinic's cost is superlinear in the network size, so solving
//!   8 small networks beats one large one even sequentially.
//! * The seed baseline is a verbatim copy of the seed kernels (the seed
//!   tree no longer builds offline), driven by today's instance
//!   generators.

use std::fmt::Write as _;
use std::time::Instant;

use dmig_bench::corpus::{
    clustered_giant, giant_component_odd_delta, giant_even_multigraph, multi_component_even,
};
use dmig_bench::seed_baseline::solve_even_seed;
use dmig_core::even::solve_even;
use dmig_core::parallel::{default_threads, ParallelSolver};
use dmig_core::shard::{solve_sharded, ShardConfig};
use dmig_core::solver::{EvenOptimalSolver, Solver as _};
use dmig_core::{MigrationProblem, MigrationSchedule};
use dmig_flow::{quota_euler_splits, quota_flow_solves};
use dmig_graph::euler::{euler_orientation, euler_orientation_parallel, OrientScratch};
use dmig_workloads::{capacities, random};

/// The default solve: `ParallelSolver` over the even solver, whose cells
/// are the connected components (nothing is cut).
fn solve_uncut(problem: &MigrationProblem, threads: usize) -> MigrationSchedule {
    ParallelSolver::with_threads(Box::new(EvenOptimalSolver), threads)
        .solve(problem)
        .expect("even instance solves")
}

/// Median-of-`reps` wall time in milliseconds.
fn time_ms<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let sink = f();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert!(sink != u64::MAX, "keep the result alive");
            elapsed
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn even_instance(n: usize, seed: u64) -> MigrationProblem {
    let g = random::uniform_multigraph(n, 4 * n, seed);
    let caps = capacities::random_even(n, 3, seed ^ 1);
    MigrationProblem::new(g, caps).expect("generated instance is valid")
}

/// Writes a section's `"hardware_threads"` line. The value is resolved
/// once in `main`; every section repeats it so a section copied out of
/// context still says what machine produced it.
fn hardware_threads_line(json: &mut String, threads: usize) {
    let _ = writeln!(json, "    \"hardware_threads\": {threads},");
}

/// Writes a `"key": value,` line where the value is `base / other` when
/// the host could measure it and `null` otherwise (fewer hardware threads
/// than the measurement needs).
fn speedup_line(json: &mut String, key: &str, base: f64, other: f64, measurable: bool, last: bool) {
    let comma = if last { "" } else { "," };
    if measurable {
        let _ = writeln!(json, "    \"{key}\": {:.2}{comma}", base / other.max(1e-6));
    } else {
        let _ = writeln!(json, "    \"{key}\": null{comma}");
    }
}

/// Writes a `"key": value,` line with measured milliseconds, or `null`
/// when the host skipped the measurement (fewer hardware threads than the
/// timing needs — a multi-thread number taken on one core reads as a
/// regression when it only measures oversubscription).
fn opt_ms_line(json: &mut String, key: &str, ms: Option<f64>, last: bool) {
    let comma = if last { "" } else { "," };
    match ms {
        Some(v) => {
            let _ = writeln!(json, "    \"{key}\": {v:.3}{comma}");
        }
        None => {
            let _ = writeln!(json, "    \"{key}\": null{comma}");
        }
    }
}

/// Writes the section's `"skipped_reason"` line: `null` when the host
/// has at least `needed` hardware threads, otherwise a human-readable
/// explanation of which timings were withheld and why.
fn skipped_reason_line(json: &mut String, threads: usize, needed: usize, what: &str, last: bool) {
    let comma = if last { "" } else { "," };
    if threads >= needed {
        let _ = writeln!(json, "    \"skipped_reason\": null{comma}");
    } else {
        let _ = writeln!(
            json,
            "    \"skipped_reason\": \"host has {threads} hardware thread(s), fewer than \
             {needed}: {what} skipped\"{comma}"
        );
    }
}

fn flag<'a>(args: &'a [String], name: &str, default: &'a str) -> &'a str {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map_or(default, String::as_str)
}

fn main() {
    let run_started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = flag(&args, "--out", "BENCH_perf.json");
    let history_path = flag(&args, "--history", "BENCH_history.jsonl");
    let rules_path = flag(&args, "--rules", "ci-rules.toml");

    let sizes: &[usize] = if smoke { &[100] } else { &[100, 1_000, 10_000] };
    let reps = if smoke { 1 } else { 5 };
    let threads = default_threads();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"hardware_threads\": {threads},");

    // Part 1: flat-kernel solve_even vs the seed kernels, n ∈ sizes.
    let _ = writeln!(json, "  \"solve_even\": [");
    for (i, &n) in sizes.iter().enumerate() {
        let problem = even_instance(n, 0xD16);
        let seed_ms = time_ms(reps, || {
            solve_even_seed(&problem)
                .expect("even instance solves")
                .makespan() as u64
        });
        let opt_ms = time_ms(reps, || {
            solve_even(&problem)
                .expect("even instance solves")
                .makespan() as u64
        });
        let comma = if i + 1 == sizes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"seed_ms\": {seed_ms:.3}, \"optimized_ms\": {opt_ms:.3}, \
             \"speedup\": {:.2}}}{comma}",
            seed_ms / opt_ms.max(1e-6)
        );
    }
    let _ = writeln!(json, "  ],");

    // Part 2: component-parallel vs whole-graph on a multi-component
    // instance (8 components, 10k nodes total in the full run).
    let (components, nodes_per, extra) = if smoke {
        (8, 25, 50)
    } else {
        (8, 1_250, 5_000)
    };
    let problem = multi_component_even(components, nodes_per, extra, 0xC0);
    let whole_ms = time_ms(reps, || {
        solve_even(&problem)
            .expect("even instance solves")
            .makespan() as u64
    });
    let split1_ms = time_ms(reps, || solve_uncut(&problem, 1).makespan() as u64);
    // With one hardware thread `split_n_threads_ms` would duplicate the
    // 1-thread number under a misleading name; withhold it instead.
    let splitn_ms =
        (threads >= 2).then(|| time_ms(reps, || solve_uncut(&problem, threads).makespan() as u64));
    let _ = writeln!(json, "  \"component_parallel\": {{");
    let _ = writeln!(json, "    \"components\": {components},");
    let _ = writeln!(json, "    \"nodes\": {},", problem.num_disks());
    let _ = writeln!(json, "    \"items\": {},", problem.num_items());
    hardware_threads_line(&mut json, threads);
    let _ = writeln!(json, "    \"whole_graph_ms\": {whole_ms:.3},");
    // `split_n_threads_ms` + an explicit `split_threads` field: the old
    // interpolated key (`split_{threads}_threads_ms`) collided with
    // `split_1_thread_ms` on single-core hosts and made the schema
    // depend on the machine.
    let _ = writeln!(json, "    \"split_1_thread_ms\": {split1_ms:.3},");
    let _ = writeln!(json, "    \"split_threads\": {threads},");
    opt_ms_line(&mut json, "split_n_threads_ms", splitn_ms, false);
    // Split-vs-whole is algorithmic (fewer, smaller Dinic networks), real
    // at any core count — on a 1-thread host the split still runs, just
    // sequentially. Thread speedup needs actual parallel hardware.
    let _ = writeln!(
        json,
        "    \"split_speedup_vs_whole\": {:.2},",
        whole_ms / splitn_ms.unwrap_or(split1_ms).max(1e-6)
    );
    speedup_line(
        &mut json,
        "thread_speedup",
        split1_ms,
        splitn_ms.unwrap_or(f64::NAN),
        threads >= 2,
        false,
    );
    skipped_reason_line(
        &mut json,
        threads,
        2,
        "multi-thread component-split timings",
        true,
    );
    let _ = writeln!(json, "  }},");

    // Part 2b: intra-component thread scaling. A single giant component
    // with odd Δ' — component splitting is useless here, so every spare
    // thread lands on the quota recursion's Euler-split fan-out. Odd Δ'
    // guarantees the recursion reaches flow solves, so the greedy warm
    // start must register hits.
    // Full-size even under --smoke (reps drop to 1 instead): a smaller
    // instance would make the CI speedup gate meaningless.
    let problem = giant_component_odd_delta(10_000, 40_000, 0xA1);
    let intra_delta = problem.delta_prime();

    // Determinism spot-check before timing: byte-identical schedules at
    // every thread count (the proptest suite covers small instances; this
    // covers the big one the timings are taken on).
    let baseline = solve_uncut(&problem, 1);
    for t in [2usize, 4] {
        let s = solve_uncut(&problem, t);
        assert_eq!(baseline, s, "schedule must not depend on thread count");
    }

    // Timings at t threads are taken only when the host actually has t
    // hardware threads: an oversubscribed number would read as a thread-
    // scaling regression when it measures nothing but context switching.
    let mut intra_ms: [Option<f64>; 3] = [None; 3];
    for (slot, t) in [1usize, 2, 4].into_iter().enumerate() {
        if threads >= t {
            intra_ms[slot] = Some(time_ms(reps, || solve_uncut(&problem, t).makespan() as u64));
        }
    }

    // Instrumented pass: warm-start and pool counters for this instance.
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    let _ = solve_uncut(&problem, 4);
    dmig_obs::set_enabled(false);
    let intra_snap = dmig_obs::snapshot();
    dmig_obs::reset();
    let intra_counter = |key: &str| intra_snap.counters.get(key).copied().unwrap_or(0);
    // Warm-start and closed-form expectations for this section are now
    // gate rules (ci-rules.toml), not asserts: the run always produces
    // its artifacts, and the gate decides afterwards.
    let intra_warm = intra_counter(dmig_obs::keys::WARM_START_HITS);
    let intra_predicted_flow = quota_flow_solves(intra_delta);

    let _ = writeln!(json, "  \"intra_parallel\": {{");
    let _ = writeln!(json, "    \"components\": 1,");
    let _ = writeln!(json, "    \"nodes\": {},", problem.num_disks());
    let _ = writeln!(json, "    \"items\": {},", problem.num_items());
    hardware_threads_line(&mut json, threads);
    let _ = writeln!(json, "    \"delta_prime\": {intra_delta},");
    let _ = writeln!(
        json,
        "    \"predicted_flow_solves\": {intra_predicted_flow},"
    );
    let _ = writeln!(json, "    \"warm_start_hits\": {intra_warm},");
    let _ = writeln!(json, "    \"pool_tasks\": {},", {
        intra_counter(dmig_obs::keys::POOL_TASKS)
    });
    let _ = writeln!(json, "    \"pool_steals\": {},", {
        intra_counter(dmig_obs::keys::POOL_STEALS)
    });
    let _ = writeln!(json, "    \"scratch_reuses\": {},", {
        intra_counter(dmig_obs::keys::SCRATCH_REUSES)
    });
    let intra_1 = intra_ms[0].expect("1-thread timing always runs");
    opt_ms_line(&mut json, "solve_1_thread_ms", intra_ms[0], false);
    opt_ms_line(&mut json, "solve_2_threads_ms", intra_ms[1], false);
    opt_ms_line(&mut json, "solve_4_threads_ms", intra_ms[2], false);
    speedup_line(
        &mut json,
        "thread_speedup_2",
        intra_1,
        intra_ms[1].unwrap_or(f64::NAN),
        threads >= 2,
        false,
    );
    speedup_line(
        &mut json,
        "thread_speedup_4",
        intra_1,
        intra_ms[2].unwrap_or(f64::NAN),
        threads >= 4,
        false,
    );
    skipped_reason_line(&mut json, threads, 4, "multi-thread solve timings", true);
    let _ = writeln!(json, "  }},");

    // Part 2c: chunked Euler orientation vs serial on a padding-free
    // giant even multigraph — the serial tail the pairing-cycle
    // decomposition parallelizes. The full-size instance is the 1e6-edge
    // single component where the old Hierholzer walk pinned one core;
    // `--smoke` shrinks it so CI exercises the same code path cheaply.
    let (go_nodes, go_edges) = if smoke {
        (2_000, 20_000)
    } else {
        (50_000, 1_000_000)
    };
    let giant = giant_even_multigraph(go_nodes, go_edges, 0xE6);
    let mut orient_scratch = OrientScratch::default();

    // Byte-equality before timing: the orientation is a pure function of
    // the CSR, so every worker count must reproduce the serial output
    // exactly. `cycles` comes from the 1-worker pass — unlike `chunks` /
    // `stitches` it is a property of the graph, not of the race.
    let serial_orientation = euler_orientation(&giant).expect("even-degree multigraph orients");
    let mut euler_cycles = 0u64;
    for w in [1usize, 2, 4] {
        let (par, stats) = euler_orientation_parallel(&giant, w, &mut orient_scratch)
            .expect("even-degree multigraph orients");
        assert_eq!(
            serial_orientation, par,
            "orientation must not depend on worker count"
        );
        if w == 1 {
            euler_cycles = stats.cycles;
        }
    }

    let serial_ms = time_ms(reps, || {
        euler_orientation(&giant)
            .expect("even-degree multigraph orients")
            .len() as u64
    });
    let mut chunked_ms: [Option<f64>; 3] = [None; 3];
    for (slot, w) in [1usize, 2, 4].into_iter().enumerate() {
        if threads >= w {
            chunked_ms[slot] = Some(time_ms(reps, || {
                euler_orientation_parallel(&giant, w, &mut orient_scratch)
                    .expect("even-degree multigraph orients")
                    .0
                    .len() as u64
            }));
        }
    }
    let chunked_1 = chunked_ms[0].expect("1-worker timing always runs");

    let _ = writeln!(json, "  \"euler_parallel\": {{");
    let _ = writeln!(json, "    \"nodes\": {go_nodes},");
    let _ = writeln!(json, "    \"edges\": {go_edges},");
    hardware_threads_line(&mut json, threads);
    let _ = writeln!(json, "    \"cycles\": {euler_cycles},");
    let _ = writeln!(json, "    \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(
        json,
        "    \"serial_medges_per_s\": {:.3},",
        go_edges as f64 / 1e3 / serial_ms.max(1e-6)
    );
    opt_ms_line(&mut json, "chunked_1_thread_ms", chunked_ms[0], false);
    opt_ms_line(&mut json, "chunked_2_threads_ms", chunked_ms[1], false);
    opt_ms_line(&mut json, "chunked_4_threads_ms", chunked_ms[2], false);
    speedup_line(
        &mut json,
        "thread_speedup_2",
        chunked_1,
        chunked_ms[1].unwrap_or(f64::NAN),
        threads >= 2,
        false,
    );
    speedup_line(
        &mut json,
        "thread_speedup_4",
        chunked_1,
        chunked_ms[2].unwrap_or(f64::NAN),
        threads >= 4,
        false,
    );
    skipped_reason_line(
        &mut json,
        threads,
        4,
        "multi-thread orientation timings",
        true,
    );
    let _ = writeln!(json, "  }},");

    // Part 2d: the sharded solve pipeline on a clustered giant — one
    // connected component far heavier than the cell budget, so the
    // graph-cut partitioner must actually cut. The clustered shape (dense
    // blocks on a sparse ring) is what the partitioner is designed for:
    // cuts land on the block seams, keeping the boundary pass tiny. The
    // full run uses the canonical cell budget; `--smoke` shrinks both the
    // instance and the budget so CI exercises the same cut-and-reconcile
    // path cheaply.
    let (sh_nodes, sh_edges, sh_clusters, sh_budget) = if smoke {
        (2_000, 40_000, 16, 8_192)
    } else {
        (
            50_000,
            1_000_000,
            64,
            dmig_graph::partition::DEFAULT_MAX_CELL_EDGES,
        )
    };
    let problem = clustered_giant(sh_nodes, sh_edges, sh_clusters, 0x5A);
    let shard_delta = problem.delta_prime();
    let shard_cfg = |shards| ShardConfig {
        shards,
        max_cell_edges: sh_budget,
    };

    // Byte-equality spot-check before timing: the sharded schedule is a
    // function of the cells alone, so every (shards × threads)
    // combination must reproduce it exactly.
    let (shard_base, shard_report) =
        solve_sharded(&problem, shard_cfg(4), 1, solve_even).expect("even instance solves");
    for shards in [1usize, 2, 4] {
        for t in [1usize, 4] {
            let (s, _) = solve_sharded(&problem, shard_cfg(shards), t, solve_even).expect("solves");
            assert_eq!(
                shard_base, s,
                "schedule must not depend on shards={shards} threads={t}"
            );
        }
    }

    let unsharded_ms = time_ms(reps, || solve_uncut(&problem, threads).makespan() as u64);
    let sharded1_ms = time_ms(reps, || {
        solve_sharded(&problem, shard_cfg(4), 1, solve_even)
            .expect("even instance solves")
            .0
            .makespan() as u64
    });
    let shardedn_ms = (threads >= 2).then(|| {
        time_ms(reps, || {
            solve_sharded(&problem, shard_cfg(4), threads, solve_even)
                .expect("even instance solves")
                .0
                .makespan() as u64
        })
    });

    let _ = writeln!(json, "  \"shard_parallel\": {{");
    let _ = writeln!(json, "    \"nodes\": {sh_nodes},");
    let _ = writeln!(json, "    \"edges\": {sh_edges},");
    let _ = writeln!(json, "    \"clusters\": {sh_clusters},");
    let _ = writeln!(json, "    \"max_cell_edges\": {sh_budget},");
    hardware_threads_line(&mut json, threads);
    let _ = writeln!(json, "    \"shards\": {},", shard_report.shards);
    let _ = writeln!(json, "    \"cells\": {},", shard_report.cells);
    let _ = writeln!(json, "    \"cut_edges\": {},", shard_report.cut_edges);
    let _ = writeln!(
        json,
        "    \"cut_fraction\": {:.6},",
        shard_report.cut_fraction()
    );
    let _ = writeln!(
        json,
        "    \"boundary_rounds\": {},",
        shard_report.boundary_rounds
    );
    let _ = writeln!(json, "    \"delta_prime\": {shard_delta},");
    let _ = writeln!(json, "    \"makespan\": {},", shard_base.makespan());
    let _ = writeln!(json, "    \"round_gap\": {},", shard_report.round_gap);
    let _ = writeln!(json, "    \"gap_bound\": {},", shard_report.gap_bound);
    let _ = writeln!(json, "    \"gap_asserted\": {},", shard_report.gap_asserted);
    let _ = writeln!(json, "    \"reconcile_ms\": {},", shard_report.reconcile_ms);
    let per_shard: Vec<String> = shard_report
        .per_shard_edges
        .iter()
        .map(ToString::to_string)
        .collect();
    let _ = writeln!(json, "    \"per_shard_edges\": [{}],", per_shard.join(", "));
    let _ = writeln!(json, "    \"unsharded_ms\": {unsharded_ms:.3},");
    let _ = writeln!(json, "    \"sharded_1_thread_ms\": {sharded1_ms:.3},");
    opt_ms_line(&mut json, "sharded_n_threads_ms", shardedn_ms, false);
    // Like the component split, sharding pays off at any core count:
    // Dinic's cost is superlinear, so K bounded cells beat one giant
    // network even solved sequentially. Thread speedup on top of that
    // needs actual parallel hardware.
    let _ = writeln!(
        json,
        "    \"speedup_vs_unsharded\": {:.2},",
        unsharded_ms / shardedn_ms.unwrap_or(sharded1_ms).max(1e-6)
    );
    speedup_line(
        &mut json,
        "thread_speedup",
        sharded1_ms,
        shardedn_ms.unwrap_or(f64::NAN),
        threads >= 4,
        false,
    );
    skipped_reason_line(&mut json, threads, 4, "multi-thread sharded timings", true);
    let _ = writeln!(json, "  }},");

    // Part 3: observability. Machine-checked counter cross-check — the
    // quota recursion of Theorem 4.1 performs exactly one flow solve per
    // odd level and one Euler split per even level, so an instrumented
    // solve_even must report precisely the closed-form counts — plus the
    // recorder's measured cost, enabled and disabled.
    let problem = even_instance(if smoke { 100 } else { 1_000 }, 0xD16);
    let delta_prime = problem.delta_prime();
    let disabled_ms = time_ms(reps, || {
        solve_even(&problem)
            .expect("even instance solves")
            .makespan() as u64
    });
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    let enabled_ms = time_ms(reps, || {
        solve_even(&problem)
            .expect("even instance solves")
            .makespan() as u64
    });
    dmig_obs::set_enabled(false);
    let snap = dmig_obs::snapshot();
    dmig_obs::reset();
    let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    let flow_solves = counter(dmig_obs::keys::FLOW_SOLVES);
    let euler_splits = counter(dmig_obs::keys::EULER_SPLITS);
    // Informational only — the gate re-derives these from
    // `quota_flow_solves`/`quota_euler_splits` rules and fails the run if
    // the measured counters drift from the Theorem 4.1 closed forms.
    let predicted_flow = reps as u64 * quota_flow_solves(delta_prime);
    let predicted_splits = reps as u64 * quota_euler_splits(delta_prime);

    // Direct cost of the disabled fast path: one facade call.
    let noop_iters: u64 = if smoke { 1_000_000 } else { 10_000_000 };
    let start = Instant::now();
    for _ in 0..noop_iters {
        dmig_obs::counter_add(dmig_obs::keys::FLOW_SOLVES, 0);
    }
    let noop_ns = start.elapsed().as_nanos() as f64 / noop_iters as f64;

    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(json, "    \"delta_prime\": {delta_prime},");
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"flow_solves\": {flow_solves},");
    let _ = writeln!(json, "    \"predicted_flow_solves\": {predicted_flow},");
    let _ = writeln!(json, "    \"euler_splits\": {euler_splits},");
    let _ = writeln!(json, "    \"predicted_euler_splits\": {predicted_splits},");
    let _ = writeln!(json, "    \"warm_start_hits\": {},", {
        counter(dmig_obs::keys::WARM_START_HITS)
    });
    let _ = writeln!(json, "    \"spans_recorded\": {},", snap.spans.len());
    let _ = writeln!(json, "    \"disabled_ms\": {disabled_ms:.3},");
    let _ = writeln!(json, "    \"enabled_ms\": {enabled_ms:.3},");
    let _ = writeln!(
        json,
        "    \"enabled_overhead_pct\": {:.2},",
        (enabled_ms / disabled_ms.max(1e-6) - 1.0) * 100.0
    );
    let _ = writeln!(json, "    \"disabled_noop_ns_per_call\": {noop_ns:.2}");
    let _ = writeln!(json, "  }},");

    // Part 4: makespan attribution on the paper's E7 bottleneck shape — a
    // star whose hub carries every item and the lowest bandwidth. The
    // attribution engine must name the hub as the LB1 argmax; the gate
    // cross-checks `lb1_disk` against `expected_lb1_disk`, which is
    // computed here independently from the raw degrees and capacities.
    let (leaves, mult) = if smoke { (4usize, 2usize) } else { (16, 8) };
    let star = dmig_graph::builder::star_multigraph(leaves, mult);
    let problem = MigrationProblem::uniform(star, 1).expect("star instance is valid");
    let schedule = dmig_core::solver::AutoSolver
        .solve(&problem)
        .expect("star instance solves");
    let mut bandwidths = vec![1.0f64; problem.num_disks()];
    bandwidths[0] = 0.25; // the hub is also the slowest disk
    let cluster = dmig_sim::Cluster::from_bandwidths(bandwidths);
    let rounds = dmig_sim::engine::round_profile(&problem, &schedule, &cluster)
        .expect("planned schedule replays");
    let g = problem.graph();
    let caps = problem.capacities();
    let disks: Vec<dmig_obs::explain::DiskLoad> = g
        .nodes()
        .map(|v| dmig_obs::explain::DiskLoad {
            degree: g.degree(v) as u64,
            capacity: u64::from(caps.get(v)),
        })
        .collect();
    let expected_lb1_disk = disks
        .iter()
        .enumerate()
        .max_by_key(|(_, d)| d.ratio())
        .map_or(0, |(v, _)| v);
    let witness = dmig_core::bounds::lb2_witness(&problem).map(|w| dmig_obs::explain::WitnessSet {
        nodes: w.nodes.iter().map(|n| n.index()).collect(),
        internal_edges: w.internal_edges,
        capacity_sum: w.capacity_sum,
        bound: w.bound as u64,
    });
    let input = dmig_obs::explain::ExplainInput {
        disks,
        witness,
        rounds,
    };
    let attribute_ms = time_ms(reps, || {
        dmig_obs::explain::attribute(&input).chain.len() as u64
    });
    let attr = dmig_obs::explain::attribute(&input);
    let top = attr.ranking.first();

    let _ = writeln!(json, "  \"attribution\": {{");
    let _ = writeln!(json, "    \"nodes\": {},", problem.num_disks());
    let _ = writeln!(json, "    \"items\": {},", problem.num_items());
    let _ = writeln!(json, "    \"lb1\": {},", attr.lb1);
    match attr.lb1_disk {
        Some(v) => {
            let _ = writeln!(json, "    \"lb1_disk\": {v},");
        }
        None => {
            let _ = writeln!(json, "    \"lb1_disk\": null,");
        }
    }
    let _ = writeln!(json, "    \"expected_lb1_disk\": {expected_lb1_disk},");
    let _ = writeln!(json, "    \"lb2\": {},", attr.lb2);
    let _ = writeln!(json, "    \"binding\": \"{}\",", attr.binding.tag());
    let _ = writeln!(json, "    \"binding_bound\": {},", attr.binding_bound);
    let _ = writeln!(json, "    \"rounds\": {},", attr.chain.len());
    let _ = writeln!(json, "    \"total_time\": {:.6},", attr.total_time);
    let _ = writeln!(
        json,
        "    \"top_disk\": {},",
        top.map_or(-1i64, |r| r.disk as i64)
    );
    let _ = writeln!(
        json,
        "    \"top_disk_utilization\": {:.6},",
        top.map_or(0.0, |r| r.utilization)
    );
    let _ = writeln!(json, "    \"attribute_ms\": {attribute_ms:.3}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    print!("{json}");
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("warning: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // The flattened metrics (same view `dmig obs gate` takes of the file)
    // feed both the history entry and the gate.
    let metrics = dmig_obs::Value::parse(&json)
        .expect("perf_report emits well-formed JSON")
        .flatten();

    // Exactly one history entry per run, appended before the gate so a
    // regressed run still leaves its record behind.
    let config = format!(
        "perf_report smoke={smoke} sizes={sizes:?} components={components} \
         nodes_per={nodes_per} extra={extra} euler={go_nodes}x{go_edges} \
         shard={sh_nodes}x{sh_edges}@{sh_budget} reps={reps}"
    );
    let meta = dmig_obs::history::RunMeta {
        git_rev: dmig_obs::history::detect_git_rev(),
        threads: Some(threads as u64),
        hardware_threads: Some(threads as u64),
        instance: Some(dmig_obs::history::fingerprint(&config)),
        wall_ms: Some(run_started.elapsed().as_secs_f64() * 1e3),
        source: "perf_report".to_string(),
    };
    match dmig_obs::history::append(history_path, &meta, &metrics) {
        Ok(()) => eprintln!("appended history entry to {history_path}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    // Perf gate: declarative replacement for the hardcoded asserts. The
    // repo-root copy is the fallback so the binary also works when run
    // from another working directory.
    let rules_text = std::fs::read_to_string(rules_path).or_else(|_| {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-rules.toml"))
    });
    let rules_text = match rules_text {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read gate rules {rules_path}: {e}");
            std::process::exit(1);
        }
    };
    let rules = match dmig_obs::gate::parse_rules(&rules_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {rules_path}: {e}");
            std::process::exit(1);
        }
    };
    let mut funcs = dmig_obs::gate::FunctionRegistry::default();
    funcs.register("quota_flow_solves", 1, |a| {
        quota_flow_solves(a[0].max(0.0) as usize) as f64
    });
    funcs.register("quota_euler_splits", 1, |a| {
        quota_euler_splits(a[0].max(0.0) as usize) as f64
    });
    let report = dmig_obs::gate::evaluate(&rules, &metrics, &funcs);
    eprint!("{}", report.render());
    if report.failed() {
        eprintln!("error: perf gate failed ({rules_path})");
        std::process::exit(1);
    }
}
