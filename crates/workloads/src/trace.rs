//! Migration trace files: item-level source/destination (and size) lists.
//!
//! The experimental-study line of related work (Anderson et al., WAE '01)
//! drives migration algorithms from item traces. This module defines a
//! line-oriented trace format so external traces can be replayed through
//! the planners and the simulator:
//!
//! ```text
//! # dmig trace
//! item 0 3        # item from disk 0 to disk 3, unit size
//! item 2 1 0.5    # half-size item from disk 2 to disk 1
//! ```
//!
//! Item order defines edge ids, so the sizes vector aligns with
//! `Cluster::with_item_sizes` in `dmig-sim`.

use core::fmt;

use dmig_graph::Multigraph;

/// A parsed trace: the transfer multigraph plus per-item sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The transfer graph (one edge per item, in file order).
    pub graph: Multigraph,
    /// Item sizes aligned with edge ids (1.0 when omitted).
    pub sizes: Vec<f64>,
}

/// Errors from trace parsing.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceError {}

/// Parses the trace format described at module level.
///
/// The node count is inferred from the largest disk index mentioned.
///
/// # Errors
///
/// Returns [`TraceError`] on malformed lines, self-transfers,
/// non-positive sizes, or disk indexes above `u32::MAX`. A disk count
/// too large to allocate is reported at the line naming the largest disk.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut sizes: Vec<f64> = Vec::new();
    // The largest disk index and the first line naming it: it sizes the
    // graph, so an allocation failure is reported at that line.
    let mut largest: Option<(usize, usize)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| TraceError {
            line: lineno + 1,
            message,
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("item") => {
                let src: usize = parts
                    .next()
                    .ok_or_else(|| err("missing source disk".into()))?
                    .parse()
                    .map_err(|_| err("invalid source disk".into()))?;
                let dst: usize = parts
                    .next()
                    .ok_or_else(|| err("missing destination disk".into()))?
                    .parse()
                    .map_err(|_| err("invalid destination disk".into()))?;
                for (what, disk) in [("source", src), ("destination", dst)] {
                    if disk > u32::MAX as usize {
                        return Err(err(format!(
                            "{what} disk {disk} exceeds the largest disk index {}",
                            u32::MAX
                        )));
                    }
                }
                if src == dst {
                    return Err(err(format!("item moves from disk {src} to itself")));
                }
                let size: f64 = match parts.next() {
                    Some(tok) => tok.parse().map_err(|_| err("invalid size".into()))?,
                    None => 1.0,
                };
                if !(size.is_finite() && size > 0.0) {
                    return Err(err(format!("non-positive size {size}")));
                }
                if parts.next().is_some() {
                    return Err(err("trailing tokens".into()));
                }
                if largest.map_or(true, |(disk, _)| src.max(dst) > disk) {
                    largest = Some((src.max(dst), lineno + 1));
                }
                pairs.push((src, dst));
                sizes.push(size);
            }
            Some(other) => return Err(err(format!("unknown directive `{other}`"))),
            None => unreachable!("empty lines are skipped"),
        }
    }
    let (n, line) = largest.map_or((0, 0), |(disk, line)| (disk + 1, line));
    let graph = Multigraph::from_edges(n, &pairs).map_err(|e| TraceError {
        line,
        message: e.to_string(),
    })?;
    Ok(Trace { graph, sizes })
}

/// Serializes a trace back to the text format.
#[must_use]
pub fn to_trace_text(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# dmig trace\n");
    for (e, ep) in trace.graph.edges() {
        let size = trace.sizes[e.index()];
        if (size - 1.0).abs() < f64::EPSILON {
            let _ = writeln!(out, "item {} {}", ep.u.index(), ep.v.index());
        } else {
            let _ = writeln!(out, "item {} {} {}", ep.u.index(), ep.v.index(), size);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_trace() {
        let t = parse_trace("# hdr\nitem 0 3\nitem 2 1 0.5\n").unwrap();
        assert_eq!(t.graph.num_nodes(), 4);
        assert_eq!(t.graph.num_edges(), 2);
        assert_eq!(t.sizes, vec![1.0, 0.5]);
    }

    #[test]
    fn disk_index_past_u32_is_a_line_error() {
        // Rejected at its line, before any graph is sized by it.
        let err = parse_trace("item 0 1\nitem 0 4000000000000\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.to_string(),
            "trace parse error at line 2: destination disk 4000000000000 \
             exceeds the largest disk index 4294967295"
        );
        let err = parse_trace("item 4294967296 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.starts_with("source disk 4294967296 exceeds"));
    }

    #[test]
    fn roundtrip() {
        let t = parse_trace("item 0 1 2.5\nitem 1 2\nitem 0 2 0.125\n").unwrap();
        let t2 = parse_trace(&to_trace_text(&t)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn rejects_self_transfer() {
        let err = parse_trace("item 3 3\n").unwrap_err();
        assert!(err.message.contains("itself"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_bad_size() {
        assert!(parse_trace("item 0 1 -2\n").is_err());
        assert!(parse_trace("item 0 1 nanx\n").is_err());
        assert!(parse_trace("item 0 1 0\n").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_trace("move 0 1\n").is_err());
        assert!(parse_trace("item 0\n").is_err());
        assert!(parse_trace("item 0 1 1.0 extra\n").is_err());
        assert_eq!(parse_trace("item a 1\n").unwrap_err().line, 1);
    }

    #[test]
    fn empty_trace() {
        let t = parse_trace("# nothing\n").unwrap();
        assert_eq!(t.graph.num_nodes(), 0);
        assert!(t.sizes.is_empty());
    }

    #[test]
    fn inline_comments() {
        let t = parse_trace("item 0 1 # hot shard\n").unwrap();
        assert_eq!(t.graph.num_edges(), 1);
    }
}
