//! Property tests for the fault-injecting executor.
//!
//! The load-bearing guarantees:
//!
//! * **Determinism** — one fault plan (seed and all) yields a byte-identical
//!   final report no matter how many solver threads run underneath, and no
//!   matter how often the run is repeated.
//! * **Oracle equivalence** — without replanning, an empty plan or a
//!   degrade-only plan makes `execute` agree bit for bit with [`oracle`], a
//!   small work-conserving round simulator with bandwidth steps.
//!
//! Both are checked over randomized instances, hardware, and fault plans,
//! with full item accounting (`delivered + lost == |items|`) along the way.

use std::sync::Mutex;

use dmig_core::parallel::ParallelSolver;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule, SolveError};
use dmig_graph::bipartite::is_bipartite;
use dmig_graph::builder::complete_multigraph;
use dmig_graph::{EdgeId, Multigraph};
use dmig_sim::faults::{CrashFault, DegradeFault, FlakySpec};
use dmig_sim::{execute, Cluster, ExecutorConfig, FaultPlan, SimReport};
use dmig_workloads::disk_ops::disk_removal;
use dmig_workloads::random::uniform_multigraph;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// From `time` on, disk `disk` runs at `bandwidth`.
type Step = (f64, usize, f64);

/// Test oracle: rounds are barriers, and inside a round every transfer runs
/// at the `min` of its endpoints' fair shares over the transfers still
/// active, recomputed at every completion and every bandwidth step. Steps
/// apply in `(time, disk, bandwidth)` order at the loop head, once the
/// global clock `base + clock` reaches them.
fn oracle(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
    steps: &[Step],
) -> SimReport {
    let mut steps = steps.to_vec();
    steps.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.total_cmp(&b.2))
    });
    let g = problem.graph();
    let n = g.num_nodes();
    let mut bw: Vec<f64> = (0..n).map(|v| cluster.bandwidth(v.into())).collect();
    let mut next = 0;
    let (mut base, mut volume) = (0.0f64, 0.0f64);
    let mut round_durations = Vec::new();
    let mut disk_busy = vec![0.0f64; n];
    let mut active = vec![0usize; n];
    for round in schedule.rounds() {
        let mut remaining: Vec<(EdgeId, f64)> =
            round.iter().map(|&e| (e, cluster.item_size(e))).collect();
        volume += remaining.iter().map(|&(_, s)| s).sum::<f64>();
        let mut clock = 0.0f64;
        while !remaining.is_empty() {
            let now = base + clock;
            while next < steps.len() && steps[next].0 <= now + 1e-12 {
                bw[steps[next].1] = steps[next].2;
                next += 1;
            }
            active.fill(0);
            for &(e, _) in &remaining {
                let ep = g.endpoints(e);
                active[ep.u.index()] += 1;
                active[ep.v.index()] += 1;
            }
            let share = |v: dmig_graph::NodeId| bw[v.index()] / active[v.index()] as f64;
            let rates: Vec<f64> = remaining
                .iter()
                .map(|&(e, _)| share(g.endpoints(e).u).min(share(g.endpoints(e).v)))
                .collect();
            let to_step = steps
                .get(next)
                .map_or(f64::INFINITY, |s| (s.0 - now).max(0.0));
            let dt = remaining
                .iter()
                .zip(&rates)
                .map(|(&(_, left), &r)| left / r)
                .fold(f64::INFINITY, f64::min)
                .min(to_step);
            clock += dt;
            for (busy, &k) in disk_busy.iter_mut().zip(&active) {
                if k > 0 {
                    *busy += dt;
                }
            }
            remaining = remaining
                .into_iter()
                .zip(rates)
                .map(|((e, left), r)| (e, left - r * dt))
                .filter(|&(_, left)| left > 1e-9)
                .collect();
        }
        base += clock;
        round_durations.push(clock);
    }
    SimReport {
        total_time: base,
        round_durations,
        disk_busy,
        volume,
    }
}

/// Every field the bitwise comparisons cover, as IEEE-754 bit patterns.
fn bits(r: &SimReport) -> (u64, Vec<u64>, Vec<u64>, u64) {
    let v = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (
        r.total_time.to_bits(),
        v(&r.round_durations),
        v(&r.disk_busy),
        r.volume.to_bits(),
    )
}

/// Heterogeneous hardware for `problem`, drawn from `seed`: bandwidths in
/// `[0.25, 4)` and item sizes in `[0.25, 2)`.
fn hetero_cluster(problem: &MigrationProblem, seed: u64) -> Cluster {
    let mut rng = StdRng::seed_from_u64(seed);
    let bw = (0..problem.num_disks())
        .map(|_| 0.25 + 3.75 * rng.gen::<f64>())
        .collect();
    let sizes = (0..problem.num_items())
        .map(|_| 0.25 + 1.75 * rng.gen::<f64>())
        .collect();
    Cluster::from_bandwidths(bw).with_item_sizes(sizes)
}

/// A small random instance that always admits a schedule: `n` live disks
/// plus one idle spare (disk `n`), uniform capacity 2.
fn instance(n: usize, m: usize, seed: u64) -> MigrationProblem {
    let mut b = dmig_graph::GraphBuilder::new();
    for (_, ep) in uniform_multigraph(n, m, seed).edges() {
        b = b.edge(ep.u.index(), ep.v.index());
    }
    // Materialize the spare even if no edge touches it.
    let g = b.nodes(n + 1).build();
    MigrationProblem::uniform(g, 2).expect("valid instance")
}

/// Derives a fault plan from three bytes of proptest entropy: maybe one
/// crash (with the spare as replacement), maybe one degradation with
/// recovery, maybe flaky transfers.
fn plan(n: usize, seed: u64, crash: bool, degrade: bool, flaky: bool) -> FaultPlan {
    let mut p = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    if crash {
        p.crashes.push(CrashFault {
            disk: (seed as usize % n).into(),
            time: 0.25 + (seed % 4) as f64 * 0.5,
            replacement: Some(n.into()),
        });
    }
    if degrade {
        p.degradations.push(DegradeFault {
            disk: ((seed as usize / 3) % n).into(),
            time: 0.5,
            factor: 0.25,
            recover_at: Some(4.0),
        });
    }
    if flaky {
        p.flaky = Some(FlakySpec { probability: 0.3 });
    }
    p
}

fn run(problem: &MigrationProblem, faults: &FaultPlan, threads: usize) -> dmig_sim::ExecReport {
    let solver = ParallelSolver::with_threads(Box::new(AutoSolver), threads);
    let schedule = solver.solve(problem).expect("solvable");
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let config = ExecutorConfig {
        replan: true,
        retry_max: 3,
    };
    execute(problem, &schedule, &cluster, faults, &config, &solver).expect("executes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same plan, any thread count, any repetition: byte-identical report.
    #[test]
    fn report_is_deterministic_across_threads(
        n in 3usize..7,
        m in 4usize..14,
        gseed in 0u64..1000,
        fseed in 0u64..1000,
        crash in proptest::bool::ANY,
        degrade in proptest::bool::ANY,
        flaky in proptest::bool::ANY,
    ) {
        let problem = instance(n, m, gseed);
        let faults = plan(n, fseed, crash, degrade, flaky);
        faults.validate(problem.num_disks()).expect("plan valid");
        let reports: Vec<String> = [1usize, 4, 4]
            .iter()
            .map(|&t| run(&problem, &faults, t).to_json())
            .collect();
        prop_assert_eq!(&reports[0], &reports[1], "threads 1 vs 4 diverged");
        prop_assert_eq!(&reports[1], &reports[2], "repeat run diverged");

        // Full accounting: every item is delivered or lost, never both.
        let r = run(&problem, &faults, 2);
        prop_assert_eq!(r.delivered() + r.lost(), problem.num_items());
        if faults.crashes.iter().all(|c| c.replacement.is_some())
            && faults.flaky.is_none()
        {
            // With a replacement for every crash and no flaky transfers,
            // replanning must save everything.
            prop_assert_eq!(r.lost(), 0, "lost items despite full redundancy");
        }
    }
}

proptest! {
    // One small execution per case, so many cases stay cheap.
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// An empty fault plan makes the executor a bitwise drop-in for the
    /// oracle on heterogeneous bandwidths and item sizes.
    #[test]
    fn zero_faults_matches_oracle_bitwise(
        n in 3usize..7,
        m in 4usize..14,
        gseed in 0u64..1000,
        cseed in 0u64..1000,
    ) {
        let problem = instance(n, m, gseed);
        let solver = ParallelSolver::with_threads(Box::new(AutoSolver), 2);
        let schedule = solver.solve(&problem).expect("solvable");
        let cluster = hetero_cluster(&problem, cseed);
        let r = execute(
            &problem,
            &schedule,
            &cluster,
            &FaultPlan::default(),
            &ExecutorConfig::default(),
            &solver,
        )
        .expect("executes");
        prop_assert_eq!(bits(&r.sim), bits(&oracle(&problem, &schedule, &cluster, &[])));
        prop_assert_eq!(r.delivered(), problem.num_items());
        prop_assert_eq!(r.replans, 0);
    }

    /// Without replanning, one `[[degrade]]` fault (with or without
    /// recovery) is the oracle's bandwidth steps, bit for bit.
    #[test]
    fn degrade_plan_matches_oracle_steps_bitwise(
        n in 3usize..7,
        m in 4usize..14,
        gseed in 0u64..1000,
        cseed in 0u64..1000,
        fseed in 0u64..1000,
        recovers in proptest::bool::ANY,
    ) {
        let problem = instance(n, m, gseed);
        let solver = ParallelSolver::with_threads(Box::new(AutoSolver), 2);
        let schedule = solver.solve(&problem).expect("solvable");
        let cluster = hetero_cluster(&problem, cseed);
        let mut rng = StdRng::seed_from_u64(fseed);
        let disk = rng.gen::<u64>() as usize % n;
        let time = 8.0 * rng.gen::<f64>();
        let factor = 0.05 + 0.9 * rng.gen::<f64>();
        let recover_at = recovers.then(|| time + 0.01 + 8.0 * rng.gen::<f64>());
        let faults = FaultPlan {
            degradations: vec![DegradeFault { disk: disk.into(), time, factor, recover_at }],
            ..FaultPlan::default()
        };
        let r = execute(&problem, &schedule, &cluster, &faults, &ExecutorConfig::default(), &solver)
            .expect("executes");
        let initial = cluster.bandwidth(disk.into());
        let mut steps = vec![(time, disk, initial * factor)];
        steps.extend(recover_at.map(|t| (t, disk, initial)));
        prop_assert_eq!(bits(&r.sim), bits(&oracle(&problem, &schedule, &cluster, &steps)));
        prop_assert_eq!(r.delivered(), problem.num_items());
        prop_assert_eq!(r.replans, 0);
    }
}

/// The oracle comparison on a fixed instance, with replanning enabled: an
/// empty plan never triggers a replan, so nothing changes.
#[test]
fn zero_fault_plan_reproduces_oracle_exactly() {
    let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    let cluster = Cluster::from_bandwidths(vec![2.0, 1.0, 0.5]);
    let r = execute(
        &p,
        &s,
        &cluster,
        &FaultPlan::default(),
        &ExecutorConfig {
            replan: true,
            ..ExecutorConfig::default()
        },
        &AutoSolver,
    )
    .unwrap();
    assert_eq!(bits(&r.sim), bits(&oracle(&p, &s, &cluster, &[])));
    assert_eq!(r.delivered(), p.num_items());
    assert_eq!((r.replans, r.retries, r.crashes), (0, 0, 0));
}

/// Runs `AutoSolver` at a thread count and notes, for every instance it
/// solves, whether the instance is bipartite with an odd capacity (the
/// case `AutoSolver` hands to the bipartite solver) and whether the
/// schedule takes exactly `Δ'` rounds.
struct Recording {
    inner: ParallelSolver,
    solved: Mutex<Vec<(bool, bool)>>,
}

impl Solver for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        let s = self.inner.solve(problem)?;
        self.solved.lock().unwrap().push((
            is_bipartite(problem.graph()) && !problem.capacities().all_even(),
            s.makespan() == problem.delta_prime(),
        ));
        Ok(s)
    }
}

/// A drain with mixed capacities: disks 0–2 move 150 items onto disks
/// 3–11, and disk 12 is an idle spare. A survivor crashes onto the spare
/// and a draining disk degrades, so the executor replans residuals through
/// `AutoSolver`. Redirecting onto the spare keeps every residual bipartite,
/// and each one is solved in exactly `Δ'` rounds; the report is the same
/// bytes at 1 and 4 threads.
#[test]
fn drain_replans_stay_bipartite_and_thread_independent() {
    let drain = disk_removal(12, 3, 150, 23);
    let pairs: Vec<(usize, usize)> = drain
        .edges()
        .map(|(_, ep)| (ep.u.index(), ep.v.index()))
        .collect();
    let g = Multigraph::from_edges(13, &pairs).unwrap();
    let caps = Capacities::from_vec(vec![3, 4, 5, 2, 1, 3, 2, 5, 4, 1, 3, 2, 3]);
    let problem = MigrationProblem::new(g, caps).unwrap();
    let faults = FaultPlan {
        seed: 7,
        crashes: vec![CrashFault {
            disk: 4.into(),
            time: 1.5,
            replacement: Some(12.into()),
        }],
        degradations: vec![DegradeFault {
            disk: 0.into(),
            time: 0.5,
            factor: 0.4,
            recover_at: Some(6.0),
        }],
        ..FaultPlan::default()
    };
    let config = ExecutorConfig {
        replan: true,
        ..ExecutorConfig::default()
    };
    let reports: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let solver = Recording {
                inner: ParallelSolver::with_threads(Box::new(AutoSolver), threads),
                solved: Mutex::new(Vec::new()),
            };
            let schedule = solver.solve(&problem).unwrap();
            let cluster = Cluster::uniform(problem.num_disks(), 1.0);
            let r = execute(&problem, &schedule, &cluster, &faults, &config, &solver).unwrap();
            assert!(
                r.replans >= 2,
                "crash and degrade each replan: {}",
                r.replans
            );
            assert_eq!(
                r.delivered(),
                problem.num_items(),
                "the spare saves every item"
            );
            let solved = solver.solved.into_inner().unwrap();
            assert_eq!(solved.len() as u64, 1 + r.replans);
            assert!(
                solved
                    .iter()
                    .all(|&(bipartite, optimal)| bipartite && optimal),
                "{solved:?}"
            );
            r.to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads 1 vs 4 diverged");
}
