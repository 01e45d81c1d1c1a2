//! Max-flow substrate for heterogeneous data-migration scheduling.
//!
//! Four pieces, each motivated by a specific step of the ICDCS 2011 paper:
//!
//! * [`network::FlowNetwork`] — Dinic's max-flow algorithm with residual-
//!   graph min-cut extraction; the workhorse under everything else.
//! * [`degree_constrained`] — the flow network of the paper's **Fig. 3**:
//!   extracting a subgraph of the oriented bipartite graph `H` in which
//!   every `v_out` has exactly `c_v/2` outgoing and every `v_in` exactly
//!   `c_v/2` incoming edges (§IV step 4, Lemma 4.1/4.2).
//! * [`densest`] — exact vertex-weighted maximum-density subgraph via
//!   Dinkelbach iterations over min cuts, which computes the paper's second
//!   lower bound `Γ' = max_S ⌈2|E(S)| / Σ_{v∈S} c_v⌉` (§III) in polynomial
//!   time — no heuristic search over subsets is needed.
//! * [`pool`] — the process-wide worker-thread budget shared between
//!   shard-level (`dmig-core::shard`) and recursion-level
//!   ([`quota_round_partition`]) parallelism, plus scratch-arena pooling
//!   for the zero-allocation solver hot path.
//!
//! The property tests check Dinic against an independent Goldberg–Tarjan
//! push–relabel engine that lives in `tests/push_relabel` as an oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degree_constrained;
pub mod densest;
pub mod network;
pub mod pool;

pub use degree_constrained::{
    quota_euler_splits, quota_flow_solves, quota_round_partition, DegreeConstraintError,
    DegreeSubgraphExtractor, SolveScratch,
};
pub use densest::{max_density_subgraph, DensestResult};
pub use network::{EdgeHandle, FlowNetwork};
