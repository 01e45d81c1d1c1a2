//! A plain-text edge-list format and DOT export.
//!
//! `dmig dot` renders an instance with [`to_dot`]. The edge-list format
//! is line-oriented; only the round-trip tests read and write it (the
//! CLI reads its own instance format, `dmig_cli::instance`):
//!
//! ```text
//! # comment
//! nodes 4
//! edge 0 1
//! edge 0 1
//! edge 2 3
//! ```
//!
//! `nodes N` is optional (the node count is otherwise inferred from the
//! largest endpoint); `edge U V` lines may repeat for parallel edges.

use std::fmt::Write as _;

use crate::{GraphError, Multigraph, NodeId};

/// Parses a multigraph from the edge-list text format.
///
/// Blank lines and lines starting with `#` are ignored. Directives:
/// `nodes N` (pre-allocate at least `N` nodes) and `edge U V`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`], naming the 1-based line at fault, on a
/// malformed line, on a node count or edge endpoint beyond what a
/// [`NodeId`] can name, and on an edge that references a node beyond a
/// declared `nodes` count that it would otherwise extend implicitly —
/// implicit extension only happens when no `nodes` directive was given.
///
/// # Example
///
/// ```
/// use dmig_graph::io::parse_edge_list;
/// let g = parse_edge_list("nodes 3\nedge 0 1\nedge 1 2\n")?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), dmig_graph::GraphError>(())
/// ```
pub fn parse_edge_list(text: &str) -> Result<Multigraph, GraphError> {
    let mut declared_nodes: Option<usize> = None;
    // (line, u, v): the endpoints are checked against the node count once
    // every line has been read.
    let mut edges: Vec<(usize, NodeId, NodeId)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let error = |message: String| GraphError::Parse {
            line: lineno + 1,
            message,
        };
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        let parse_usize = |tok: Option<&str>, what: &str| -> Result<usize, GraphError> {
            tok.ok_or_else(|| error(format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| error(format!("invalid {what}")))
        };
        let endpoint = |tok: Option<&str>| -> Result<NodeId, GraphError> {
            let w = parse_usize(tok, "edge endpoint")?;
            if w > u32::MAX as usize {
                return Err(error(format!(
                    "edge endpoint {w} exceeds the largest node index {}",
                    u32::MAX
                )));
            }
            Ok(NodeId::new(w))
        };
        match keyword {
            "nodes" => {
                let n = parse_usize(parts.next(), "node count")?;
                if n.saturating_sub(1) > u32::MAX as usize {
                    return Err(error(format!(
                        "node count {n} exceeds {}",
                        u64::from(u32::MAX) + 1
                    )));
                }
                declared_nodes = Some(n);
            }
            "edge" => {
                let u = endpoint(parts.next())?;
                let v = endpoint(parts.next())?;
                edges.push((lineno + 1, u, v));
            }
            other => return Err(error(format!("unknown directive `{other}`"))),
        }
        if parts.next().is_some() {
            return Err(error("trailing tokens".to_string()));
        }
    }

    let inferred = edges
        .iter()
        .map(|&(_, u, v)| u.index().max(v.index()) + 1)
        .max()
        .unwrap_or(0);
    let mut g = Multigraph::with_nodes(declared_nodes.unwrap_or(inferred));
    for (line, u, v) in edges {
        g.try_add_edge(u, v).map_err(|e| GraphError::Parse {
            line,
            message: e.to_string(),
        })?;
    }
    Ok(g)
}

/// Serializes a multigraph to the edge-list text format accepted by
/// [`parse_edge_list`].
#[must_use]
pub fn to_edge_list(g: &Multigraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", g.num_nodes());
    for (_, ep) in g.edges() {
        let _ = writeln!(out, "edge {} {}", ep.u.index(), ep.v.index());
    }
    out
}

/// Renders the multigraph in Graphviz DOT format for visual inspection.
///
/// Parallel edges are drawn individually; self-loops render as loops.
#[must_use]
pub fn to_dot(g: &Multigraph) -> String {
    let mut out = String::from("graph transfer {\n");
    for v in g.nodes() {
        let _ = writeln!(out, "  {} [label=\"{}\"];", v.index(), v);
    }
    for (_, ep) in g.edges() {
        let _ = writeln!(out, "  {} -- {};", ep.u.index(), ep.v.index());
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn roundtrip() {
        let g = GraphBuilder::new()
            .nodes(5)
            .parallel_edges(0, 1, 3)
            .edge(2, 3)
            .build();
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parse_infers_node_count() {
        let g = parse_edge_list("edge 0 4\n").unwrap();
        assert_eq!(g.num_nodes(), 5);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let g = parse_edge_list("# header\n\nnodes 2\n  # indented comment\nedge 0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_rejects_unknown_directive() {
        let err = parse_edge_list("vertex 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_missing_endpoint() {
        let err = parse_edge_list("edge 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_non_numeric() {
        let err = parse_edge_list("edge a b\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_trailing_tokens() {
        let err = parse_edge_list("edge 0 1 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_edge_beyond_declared_nodes_at_its_line() {
        let err = parse_edge_list("nodes 2\nedge 0 1\n\nedge 0 5\nedge 7 0\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 4: node v5 out of range for graph with 2 nodes"
        );
        // The count may follow the edges it bounds.
        let err = parse_edge_list("edge 0 2\nnodes 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn indices_beyond_u32_are_errors_at_their_line() {
        let err = parse_edge_list("nodes 3\nedge 0 5000000000\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2: edge endpoint 5000000000 exceeds the largest node index 4294967295"
        );
        let err = parse_edge_list("# big\nedge 4294967296 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = parse_edge_list("edge 0 1\nnodes 4294967297\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2: node count 4294967297 exceeds 4294967296"
        );
    }

    #[test]
    fn parse_reports_correct_line_numbers() {
        let err = parse_edge_list("nodes 3\nedge 0 1\nedge x 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }));
    }

    #[test]
    fn dot_contains_all_edges() {
        let g = GraphBuilder::new().parallel_edges(0, 1, 2).build();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("0 -- 1;").count(), 2);
        assert!(dot.starts_with("graph transfer {"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_nodes(), 0);
        let text = to_edge_list(&g);
        assert_eq!(parse_edge_list(&text).unwrap(), g);
    }
}
