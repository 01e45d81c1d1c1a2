//! Multigraph substrate for heterogeneous data-migration scheduling.
//!
//! This crate provides the combinatorial foundation used throughout the
//! `dmig` workspace, a reproduction of *"Data Migration in Heterogeneous
//! Storage Systems"* (Kari, Kim, Russell — ICDCS 2011):
//!
//! * [`Multigraph`] — an undirected multigraph with parallel edges and
//!   self-loops, the paper's *transfer graph* (each node is a disk, each
//!   edge a unit-size data item to move between two disks),
//! * [`euler`] — one closed-trail walk over a [`CsrAdjacency`] and the
//!   balanced edge orientation it gives, the engine behind the paper's
//!   optimal even-capacity schedule (§IV, steps 2–3) and the quota
//!   recursion's Euler splits in `dmig-flow`,
//! * [`components`] — connected components,
//! * [`bipartite`] — bipartition detection for the bipartite special case,
//! * [`io`] — DOT export for debugging (`dmig dot`).
//!
//! # Example
//!
//! ```
//! use dmig_graph::Multigraph;
//!
//! // The triangle instance of the paper's Fig. 2 with M = 2 parallel
//! // edges between every pair of disks.
//! let mut g = Multigraph::with_nodes(3);
//! for _ in 0..2 {
//!     g.add_edge(0.into(), 1.into());
//!     g.add_edge(1.into(), 2.into());
//!     g.add_edge(0.into(), 2.into());
//! }
//! assert_eq!(g.num_edges(), 6);
//! assert_eq!(g.degree(0.into()), 4);
//! assert_eq!(g.max_degree(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod builder;
pub mod components;
pub mod csr;
pub mod error;
pub mod euler;
pub mod ids;
pub mod io;
pub mod multigraph;
pub mod partition;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrAdjacency;
pub use error::GraphError;
pub use ids::{EdgeId, NodeId};
pub use multigraph::{Endpoints, Multigraph, NodeMarks};
