//! Error types for graph construction.

use core::fmt;

use crate::NodeId;

/// Errors produced by graph operations in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id referenced a node outside the graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// An Euler orientation was requested on a graph with an odd-degree
    /// node.
    OddDegree {
        /// The first node whose degree is odd.
        node: NodeId,
        /// Its degree.
        degree: usize,
    },
    /// The graph is not bipartite but a bipartition was required.
    NotBipartite {
        /// A node on an odd cycle witnessing non-bipartiteness.
        witness: NodeId,
    },
    /// A graph too large to build: more nodes or edges than `u32` ids can
    /// name, or per-node arrays the allocator refused.
    TooLarge {
        /// Requested node count.
        nodes: usize,
        /// Requested edge count.
        edges: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::OddDegree { node, degree } => {
                write!(
                    f,
                    "node {node} has odd degree {degree}; euler circuit requires all degrees even"
                )
            }
            GraphError::NotBipartite { witness } => {
                write!(f, "graph is not bipartite (odd cycle through {witness})")
            }
            GraphError::TooLarge { nodes, edges } => {
                write!(
                    f,
                    "cannot allocate a graph of {nodes} nodes and {edges} edges"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            GraphError::NodeOutOfRange {
                node: NodeId::new(7),
                num_nodes: 3,
            },
            GraphError::OddDegree {
                node: NodeId::new(1),
                degree: 3,
            },
            GraphError::NotBipartite {
                witness: NodeId::new(0),
            },
            GraphError::TooLarge {
                nodes: 1 << 33,
                edges: 0,
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
