//! Observability must be transparent: enabling the recorder may not change
//! any computed schedule, and its counters must match the closed-form
//! predictions of the quota recursion (Theorem 4.1's decomposition does
//! one flow solve per odd level and one Euler split per even level).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dmig_core::bipartite_opt::solve_bipartite;
use dmig_core::even::solve_even;
use dmig_core::shard::{solve_sharded, ShardConfig};
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule, SolveError};
use dmig_flow::{quota_euler_splits, quota_flow_solves};
use dmig_graph::builder::complete_multigraph;
use dmig_graph::GraphBuilder;
use proptest::prelude::*;

/// The recorder is process-global; every test in this binary that touches
/// it must hold this lock for its full enable/snapshot window.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores "disabled, empty" even when an assertion panics mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        dmig_obs::set_enabled(false);
        dmig_obs::reset();
    }
}

/// Restores the shared worker pool's defaults (spawn floor, 1-thread
/// budget) even when an assertion panics mid-test.
struct PoolCleanup;
impl Drop for PoolCleanup {
    fn drop(&mut self) {
        dmig_flow::pool::set_spawn_min_work(dmig_flow::pool::DEFAULT_SPAWN_MIN_WORK);
        dmig_flow::pool::budget().set_parallelism(1);
    }
}

/// The default solve path: the one driver with connected components as
/// cells, one worker shard per thread.
fn solve_uncut(
    p: &MigrationProblem,
    threads: usize,
    solve: impl Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError> + Sync,
) -> Result<MigrationSchedule, SolveError> {
    solve_sharded(p, ShardConfig::uncut(threads), threads, solve).map(|(schedule, _)| schedule)
}

/// Random connected-or-not multigraph with mixed-parity capacities — the
/// kind of instance that exercises every solver path through `AutoSolver`.
fn arb_problem() -> impl Strategy<Value = MigrationProblem> {
    (2usize..8)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..20),
                proptest::collection::vec(1u32..5, n),
            )
        })
        .prop_map(|(n, edges, caps)| {
            let mut b = GraphBuilder::new().nodes(n);
            for (u, v) in edges {
                if u != v {
                    b = b.edge(u, v);
                }
            }
            MigrationProblem::new(b.build(), Capacities::from_vec(caps))
                .expect("generated instance is valid")
        })
}

/// Connected multigraph with all-even capacities — a **single giant
/// component**, so the driver's spare threads all land on the
/// intra-component quota recursion instead of the component fan-out.
fn arb_connected_even_problem() -> impl Strategy<Value = MigrationProblem> {
    (2usize..7)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(1usize..4, n - 1),
                proptest::collection::vec((0..n, 0..n, 1usize..4), 0..8),
                proptest::collection::vec(1u32..4, n),
            )
        })
        .prop_map(|(n, spine, extras, half_caps)| {
            let mut b = GraphBuilder::new().nodes(n);
            // Path spine keeps the graph connected; extras add parallel
            // bundles that push Δ' up and deepen the recursion tree.
            for (i, mult) in spine.into_iter().enumerate() {
                b = b.parallel_edges(i, i + 1, mult);
            }
            for (u, v, mult) in extras {
                if u != v {
                    b = b.parallel_edges(u, v, mult);
                }
            }
            let caps: Vec<u32> = half_caps.into_iter().map(|h| 2 * h).collect();
            MigrationProblem::new(b.build(), Capacities::from_vec(caps))
                .expect("generated instance is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The schedule is identical with the recorder enabled and disabled,
    /// at every thread count: instrumentation observes, never steers.
    /// Zeroing the spawn floor forces the intra-component recursion to
    /// recruit workers even on these tiny instances.
    #[test]
    fn recorder_never_changes_the_schedule(p in arb_problem()) {
        let _g = obs_lock();
        let _cleanup = Cleanup;
        let _pool = PoolCleanup;
        dmig_flow::pool::set_spawn_min_work(0);
        let solve = |q: &MigrationProblem| AutoSolver.solve(q);
        for threads in 1usize..=4 {
            dmig_obs::set_enabled(false);
            dmig_obs::reset();
            let plain = solve_uncut(&p, threads, solve).expect("solves");
            dmig_obs::reset();
            dmig_obs::set_enabled(true);
            let instrumented = solve_uncut(&p, threads, solve).expect("solves");
            dmig_obs::set_enabled(false);
            prop_assert_eq!(&plain, &instrumented, "threads = {}", threads);
        }
    }

    /// Every recorded run exports to a well-formed Chrome trace: the JSON
    /// parses, every `E` event closes the matching open `B` on its own
    /// track, and per-track timestamps are monotone (all enforced by
    /// `validate_chrome_trace`). Export itself is pure — serializing twice
    /// is byte-identical, a fresh snapshot after an export serializes to
    /// the same trace, and a solve that follows an export still produces
    /// the same schedule.
    #[test]
    fn trace_export_is_valid_and_pure(p in arb_problem()) {
        let _g = obs_lock();
        let _cleanup = Cleanup;
        let _pool = PoolCleanup;
        dmig_flow::pool::set_spawn_min_work(0);
        let solve = |q: &MigrationProblem| AutoSolver.solve(q);
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        let first = solve_uncut(&p, 2, solve).expect("solves");
        let snap = dmig_obs::snapshot();
        let trace = dmig_obs::trace::chrome_trace(&snap.spans);
        let stats = match dmig_obs::trace::validate_chrome_trace(&trace) {
            Ok(stats) => stats,
            Err(why) => return Err(TestCaseError::fail(format!("invalid trace: {why}"))),
        };
        prop_assert!(stats.begins >= 1, "a solve records at least one span");
        prop_assert_eq!(stats.begins, stats.ends, "every B has a matching E");
        prop_assert_eq!(stats.open, 0, "no span is left open after solving");
        prop_assert!(!stats.tracks.is_empty());
        prop_assert_eq!(&trace, &dmig_obs::trace::chrome_trace(&snap.spans));
        prop_assert_eq!(
            &trace,
            &dmig_obs::trace::chrome_trace(&dmig_obs::snapshot().spans),
            "export must not perturb recorder state"
        );
        let second = solve_uncut(&p, 2, solve).expect("solves");
        dmig_obs::set_enabled(false);
        prop_assert_eq!(&first, &second, "export must not steer the solver");
    }

    /// Intra-component parallelism is schedule-transparent: on a single
    /// connected component every spare thread flows to the quota
    /// recursion, and the schedule must stay byte-identical across thread
    /// counts 1–4, with the recorder enabled and disabled.
    #[test]
    fn intra_parallel_schedule_is_thread_count_invariant(p in arb_connected_even_problem()) {
        let _g = obs_lock();
        let _cleanup = Cleanup;
        let _pool = PoolCleanup;
        dmig_flow::pool::set_spawn_min_work(0);
        let baseline = solve_uncut(&p, 1, solve_even).expect("even instance solves");
        for threads in 2usize..=4 {
            for enabled in [false, true] {
                dmig_obs::reset();
                dmig_obs::set_enabled(enabled);
                let schedule = solve_uncut(&p, threads, solve_even).expect("even instance solves");
                dmig_obs::set_enabled(false);
                prop_assert_eq!(
                    &baseline, &schedule,
                    "threads = {}, recorder = {}", threads, enabled
                );
            }
        }
    }
}

/// On the paper's K3 family (caps 2, Δ' = M) the `flow_solves` and
/// `euler_splits` counters equal the closed-form recursion counts.
#[test]
fn counters_match_quota_recursion_prediction() {
    let _g = obs_lock();
    let _cleanup = Cleanup;
    for m in 1usize..=6 {
        let p = MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap();
        assert_eq!(p.delta_prime(), m);
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        let s = solve_even(&p).unwrap();
        dmig_obs::set_enabled(false);
        let snap = dmig_obs::snapshot();
        assert_eq!(s.makespan(), m);
        let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        assert_eq!(
            counter(dmig_obs::keys::FLOW_SOLVES),
            quota_flow_solves(m),
            "flow solves at Δ' = {m}"
        );
        assert_eq!(
            counter(dmig_obs::keys::EULER_SPLITS),
            quota_euler_splits(m),
            "euler splits at Δ' = {m}"
        );
    }
}

/// A drain from one disk pads at most `items + Δ'` dummy arcs, through
/// either exact solver. Disk 0 (c = 3) sends 300 items to 50 receivers of
/// capacity 1–4, so Δ' = 100; padding every receiver to `c_v·Δ'` took
/// 12,000 dummy arcs. With every capacity doubled the even solver takes
/// it in Δ' = 50 rounds. The quota partition's span label counts every
/// arc it splits.
#[test]
fn single_disk_drain_pads_at_most_items_plus_delta() {
    let _g = obs_lock();
    let _cleanup = Cleanup;
    let mut b = GraphBuilder::new();
    for i in 0..300 {
        b = b.edge(0, 1 + i % 50);
    }
    let g = b.build();
    type Solve = fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError>;
    for (scale, solve) in [(1, solve_bipartite as Solve), (2, solve_even)] {
        let caps = std::iter::once(3)
            .chain((0..50).map(|i| 1 + i % 4))
            .map(|c| scale * c)
            .collect();
        let p = MigrationProblem::new(g.clone(), Capacities::from_vec(caps)).unwrap();
        let delta = 100 / scale as usize;
        assert_eq!(p.delta_prime(), delta);
        dmig_obs::reset();
        dmig_obs::set_enabled(true);
        let s = solve(&p).unwrap();
        dmig_obs::set_enabled(false);
        assert_eq!(s.makespan(), delta);
        let snap = dmig_obs::snapshot();
        let mut stack: Vec<&dmig_obs::SpanNode> = snap.spans.iter().collect();
        let label = loop {
            let span = stack.pop().expect("a quota_round_partition span");
            if span.name == "quota_round_partition" {
                break span.label.clone().unwrap_or_default();
            }
            stack.extend(&span.children);
        };
        let arcs: usize = label.split("arcs=").nth(1).unwrap().parse().unwrap();
        assert!(arcs - 300 <= 300 + delta, "{label}");
    }
}

/// Spans recorded on a worker thread carry that worker's track. The first
/// cell solve waits until a second one has started, so two threads are
/// provably inside cells at once, and the Chrome trace of 500 two-disk
/// cells at 4 threads shows at least two tracks however the threads are
/// scheduled.
#[test]
fn concurrent_cell_solves_trace_on_two_tracks() {
    let _g = obs_lock();
    let _cleanup = Cleanup;
    let _pool = PoolCleanup;
    let mut b = GraphBuilder::new();
    for i in 0..500 {
        b = b.edge(2 * i, 2 * i + 1).edge(2 * i, 2 * i + 1);
    }
    let p = MigrationProblem::uniform(b.build(), 2).unwrap();
    let started = Mutex::new(0usize);
    let second_started = Condvar::new();
    let timed_out = AtomicBool::new(false);
    let solve = |q: &MigrationProblem| {
        let mut n = started.lock().unwrap_or_else(PoisonError::into_inner);
        *n += 1;
        if *n == 1 {
            let (_n, wait) = second_started
                .wait_timeout_while(n, Duration::from_secs(30), |n| *n < 2)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out.store(wait.timed_out(), Ordering::Relaxed);
        } else {
            second_started.notify_all();
        }
        AutoSolver.solve(q)
    };
    dmig_obs::reset();
    dmig_obs::set_enabled(true);
    solve_uncut(&p, 4, solve).expect("solves");
    dmig_obs::set_enabled(false);
    assert!(
        !timed_out.load(Ordering::Relaxed),
        "no second cell solve started within 30 s"
    );
    let trace = dmig_obs::trace::chrome_trace(&dmig_obs::snapshot().spans);
    let stats = dmig_obs::trace::validate_chrome_trace(&trace).expect("valid trace");
    assert!(stats.begins >= 500, "cell spans present: {stats:?}");
    assert!(
        stats.tracks.len() >= 2,
        "expected spans on >= 2 tracks, got {:?}",
        stats.tracks
    );
}
