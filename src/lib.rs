//! `dmig` — heterogeneous data-migration scheduling.
//!
//! A from-scratch Rust reproduction of *"Data Migration in Heterogeneous
//! Storage Systems"* (Chadi Kari, Yoo-Ah Kim, Alexander Russell —
//! ICDCS 2011). This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `dmig-graph` | transfer multigraphs, Euler orientations, bipartitions |
//! | [`flow`] | `dmig-flow` | Dinic max-flow, degree-constrained subgraphs, densest subgraph |
//! | [`color`] | `dmig-color` | Vizing / Kempe edge colorers |
//! | [`core`] | `dmig-core` | the paper's algorithms: lower bounds, even-capacity optimum, bipartite optimum (the same quota partition, left → right), general solver, baselines |
//! | [`sim`] | `dmig-sim` | bandwidth-split cluster simulator |
//! | [`workloads`] | `dmig-workloads` | seeded instance generators |
//!
//! # Quickstart
//!
//! ```
//! use dmig::prelude::*;
//! use dmig::graph::builder::complete_multigraph;
//!
//! // The paper's Fig. 2: three disks, M items per pair, two transfers at
//! // a time per disk. The capacity-aware optimum is M rounds; ignoring
//! // heterogeneity costs 3M.
//! let m = 4;
//! let problem = MigrationProblem::uniform(complete_multigraph(3, m), 2)?;
//! let schedule = AutoSolver::default().solve(&problem)?;
//! schedule.validate(&problem)?;
//! assert_eq!(schedule.makespan(), m);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dmig_color as color;
pub use dmig_core as core;
pub use dmig_flow as flow;
pub use dmig_graph as graph;
pub use dmig_sim as sim;
pub use dmig_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use dmig_core::parallel::{default_threads, ParallelSolver};
    pub use dmig_core::solver::{
        all_solvers, solver_by_name, AutoSolver, BipartiteOptimalSolver, EvenOptimalSolver,
        GeneralSolver, GreedySolver, HomogeneousSolver, SaiaSolver, Solver,
    };
    pub use dmig_core::{
        bounds, Capacities, MigrationProblem, MigrationSchedule, ProblemError, ScheduleError,
        SolveError,
    };
    pub use dmig_graph::{EdgeId, GraphBuilder, Multigraph, NodeId};
    pub use dmig_sim::{
        engine::simulate_rounds, execute, Cluster, ExecReport, ExecutorConfig, FaultPlan, ItemFate,
        LostReason, SimReport,
    };
}
