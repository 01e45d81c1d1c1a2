//! Storage-cluster simulator for migration schedules.
//!
//! The ICDCS 2011 paper evaluates its algorithms analytically in a simple
//! transfer model (§I): items have unit size, a disk splits its bandwidth
//! evenly across its concurrent transfers, and a schedule executes round by
//! round. This crate implements exactly that model — substituting for the
//! physical storage testbed the scheduling literature reasons about — so
//! that schedule quality can be reported in *wall-clock time units*, not
//! just round counts. That distinction is the whole point of the paper's
//! Fig. 2: on `K3` with `M` parallel items, the homogeneous schedule runs
//! `3M` rounds × 1 time unit, while the capacity-aware schedule runs `M`
//! rounds × 2 time units (each disk halving its bandwidth across two
//! transfers) — a 1.5× wall-clock win.
//!
//! Two ways to run a schedule:
//!
//! * [`engine::simulate_rounds`] — barrier semantics: a round ends when its
//!   slowest transfer ends; every transfer runs at the fair-share rate set
//!   by its round-long concurrency. This is the paper's model.
//! * [`executor::execute`] — continuous time: rounds remain barriers, but
//!   inside a round the bandwidth a finished transfer releases is
//!   immediately redistributed among the transfers still running
//!   (work-conserving fair sharing). A seeded [`faults::FaultPlan`]
//!   injects crash-stops, bandwidth degradations with optional recovery
//!   (a disk slowing under live traffic, §I), and flaky transfers; the
//!   executor retries with bounded exponential backoff and, when asked,
//!   replans the residual migration via [`dmig_core::replan`] when disks
//!   die, degrade, or rounds stall. With an empty plan it is the plain
//!   work-conserving simulator.
//!
//! ```
//! use dmig_core::{MigrationProblem, solver::{Solver, HomogeneousSolver, EvenOptimalSolver}};
//! use dmig_graph::builder::complete_multigraph;
//! use dmig_sim::{Cluster, engine::simulate_rounds};
//!
//! let m = 4;
//! let p = MigrationProblem::uniform(complete_multigraph(3, m), 2)?;
//! let cluster = Cluster::uniform(3, 1.0);
//! let fast = simulate_rounds(&p, &EvenOptimalSolver.solve(&p)?, &cluster)?;
//! let slow = simulate_rounds(&p, &HomogeneousSolver.solve(&p)?, &cluster)?;
//! assert_eq!(fast.total_time, 2.0 * m as f64); // M rounds × 2 time units
//! assert_eq!(slow.total_time, 3.0 * m as f64); // 3M rounds × 1 time unit
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod executor;
pub mod faults;
pub mod progress;
pub mod report;

pub use cluster::Cluster;
pub use engine::SimError;
pub use executor::{
    execute, ExecError, ExecReport, Executor, ExecutorConfig, ItemFate, LostReason, StepOutcome,
};
pub use faults::{FaultPlan, FaultPlanError};
pub use report::SimReport;
