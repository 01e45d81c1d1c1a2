//! DOT export: `dmig dot` renders an instance with [`to_dot`].

use std::fmt::Write as _;

use crate::Multigraph;

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
    fn dot_contains_all_edges() {
        let g = GraphBuilder::new().parallel_edges(0, 1, 2).build();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("0 -- 1;").count(), 2);
        assert!(dot.starts_with("graph transfer {"));
        assert!(dot.ends_with("}\n"));
    }
}
