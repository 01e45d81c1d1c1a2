//! Heterogeneous data-migration scheduling — the core algorithms of
//! *"Data Migration in Heterogeneous Storage Systems"* (Kari, Kim,
//! Russell — ICDCS 2011).
//!
//! # The problem
//!
//! A storage cluster must move data items between disks. The *transfer
//! graph* has a node per disk and an edge per unit-size item; disk `v` can
//! take part in at most `c_v` simultaneous transfers (its *transfer
//! constraint*). A schedule partitions the edges into rounds, each round
//! loading every disk `v` with at most `c_v` of its edges; the goal is the
//! fewest rounds.
//!
//! # What is implemented
//!
//! * [`MigrationProblem`] / [`MigrationSchedule`] — instance and solution
//!   types with full validation.
//! * [`bounds`] — both lower bounds of §III: `Δ' = max ⌈d_v/c_v⌉` and
//!   `Γ' = max_S ⌈2|E(S)|/Σc_v⌉`, the latter computed exactly via maximum-
//!   density subgraph.
//! * [`even`] — the polynomial-time **optimal** algorithm for even `c_v`
//!   (§IV): Euler orientation, grouped degree padding, and `Δ'`
//!   quota-exact rounds split by Euler walks and max-flow.
//! * [`general`] — the solver for arbitrary `c_v` (§V): capacitated
//!   alternating-walk recoloring with orbit-style shift moves, escalating
//!   the color budget only in the paper's "witness" situation; optional
//!   Phase-2 residue coloring by node-splitting + Vizing (§V-C3).
//! * [`saia`] — Saia's 1.5-approximation baseline (node splitting +
//!   Shannon-bounded edge coloring).
//! * [`homogeneous`] — the `c_v = 1` baseline of Hall et al. (plain
//!   multigraph edge coloring), quantifying the cost of ignoring
//!   heterogeneity (the paper's Fig. 2 gap).
//! * [`greedy_rounds`] — first-fit maximal round packing, a natural
//!   systems baseline.
//! * [`bipartite_opt`] — exact optimum for bipartite transfer graphs
//!   (reconfiguration workloads), any capacities: the even solver's quota
//!   partition on the left → right orientation the sides give.
//! * [`exact`] — branch-and-bound exact optimum for small instances,
//!   certifying the heuristic solvers' optimality gaps.
//! * [`replan`] — online replanning: merge the unexecuted remainder of a
//!   running migration with newly arrived transfers and re-solve.
//! * [`shard`] — the one solve driver: canonical cells (connected
//!   components, optionally graph-cut further), solved concurrently on
//!   worker shards and merged round-wise with a bit-for-bit deterministic
//!   result, plus a round-aligned boundary pass reconciling any cut edges
//!   within a proven additive gap.
//! * [`parallel`] — [`parallel::ParallelSolver`], the [`solver::Solver`]
//!   adapter that runs any solver through that driver per connected
//!   component.
//! * [`solver`] — a common [`solver::Solver`] trait, a registry of all of
//!   the above, and an automatic dispatcher.
//!
//! # Quickstart
//!
//! ```
//! use dmig_core::{MigrationProblem, solver::{AutoSolver, Solver}};
//! use dmig_graph::builder::complete_multigraph;
//!
//! // Fig. 2 of the paper: 3 disks, M = 4 items between each pair, and
//! // every disk able to run two transfers at once. Each disk has degree
//! // 2M, so Δ' = M rounds — optimal (a homogeneous scheduler needs 3M).
//! let problem = MigrationProblem::uniform(complete_multigraph(3, 4), 2)?;
//! let schedule = AutoSolver::default().solve(&problem)?;
//! schedule.validate(&problem)?;
//! assert_eq!(schedule.makespan(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite_opt;
pub mod bounds;
pub mod error;
pub mod even;
pub mod exact;
pub mod general;
pub mod greedy_rounds;
pub mod homogeneous;
pub mod parallel;
pub mod problem;
pub mod replan;
pub mod saia;
pub mod schedule;
pub mod shard;
pub mod solver;
pub mod split;

pub use error::SolveError;
pub use problem::{Capacities, MigrationProblem, ProblemError};
pub use schedule::{MigrationSchedule, ScheduleError};
