//! Text format for migration instances (transfer graph + capacities).
//!
//! Extends the `dmig-graph` edge-list format with capacity directives:
//!
//! ```text
//! # disks and transfer constraints
//! nodes 4
//! default_cap 2
//! cap 0 4          # disk 0 can run 4 transfers at a time
//! caps 4 2 2 1     # alternatively: the whole vector at once
//! edge 0 1
//! edge 0 1
//! edge 2 3
//! ```
//!
//! `default_cap` (default 1) applies to disks not covered by `cap`/`caps`.

use std::fmt::Write as _;

use dmig_core::{Capacities, MigrationProblem, ProblemError};
use dmig_graph::{GraphError, Multigraph, NodeId};

/// Errors from parsing an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstanceError {
    /// Graph-level parse problem.
    Graph(GraphError),
    /// Instance-level validation problem.
    Problem(ProblemError),
    /// Instance-specific directive problem.
    Directive {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Graph(e) => write!(f, "{e}"),
            InstanceError::Problem(e) => write!(f, "{e}"),
            InstanceError::Directive { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<GraphError> for InstanceError {
    fn from(e: GraphError) -> Self {
        InstanceError::Graph(e)
    }
}

impl From<ProblemError> for InstanceError {
    fn from(e: ProblemError) -> Self {
        InstanceError::Problem(e)
    }
}

/// Parses an instance from the text format described at module level.
///
/// # Errors
///
/// Returns [`InstanceError`] on malformed directives, graph errors, or
/// instance validation failures.
pub fn parse_instance(text: &str) -> Result<MigrationProblem, InstanceError> {
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut default_cap = 1u32;
    let mut caps_vec: Option<Vec<u32>> = None;
    // (line, disk, capacity): the disk is checked once the count is known.
    let mut cap_overrides: Vec<(usize, usize, u32)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        let mut next_num = |what: &str| -> Result<usize, InstanceError> {
            parts
                .next()
                .ok_or_else(|| InstanceError::Directive {
                    line: lineno + 1,
                    message: format!("missing {what}"),
                })?
                .parse::<usize>()
                .map_err(|_| InstanceError::Directive {
                    line: lineno + 1,
                    message: format!("invalid {what}"),
                })
        };
        match keyword {
            "nodes" => declared_nodes = Some(next_num("node count")?),
            "edge" => {
                let u = next_num("edge endpoint")?;
                let v = next_num("edge endpoint")?;
                edges.push((u, v));
            }
            "default_cap" => {
                default_cap =
                    u32::try_from(next_num("capacity")?).map_err(|_| InstanceError::Directive {
                        line: lineno + 1,
                        message: "capacity too large".to_string(),
                    })?;
            }
            "cap" => {
                let v = next_num("disk index")?;
                let c = next_num("capacity")?;
                cap_overrides.push((
                    lineno + 1,
                    v,
                    u32::try_from(c).map_err(|_| InstanceError::Directive {
                        line: lineno + 1,
                        message: "capacity too large".to_string(),
                    })?,
                ));
            }
            "caps" => {
                let mut values = Vec::new();
                for tok in parts.by_ref() {
                    let c = tok.parse::<u32>().map_err(|_| InstanceError::Directive {
                        line: lineno + 1,
                        message: format!("invalid capacity `{tok}`"),
                    })?;
                    values.push(c);
                }
                if values.is_empty() {
                    return Err(InstanceError::Directive {
                        line: lineno + 1,
                        message: "caps needs at least one value".to_string(),
                    });
                }
                caps_vec = Some(values);
            }
            other => {
                return Err(InstanceError::Directive {
                    line: lineno + 1,
                    message: format!("unknown directive `{other}`"),
                });
            }
        }
    }

    let inferred = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
    let n = declared_nodes
        .unwrap_or(inferred)
        .max(inferred)
        .max(caps_vec.as_ref().map_or(0, Vec::len));
    let mut g = Multigraph::with_nodes(n);
    for (u, v) in edges {
        g.try_add_edge(NodeId::new(u), NodeId::new(v))?;
    }
    let mut caps = match caps_vec {
        Some(mut values) => {
            values.resize(n, default_cap);
            values
        }
        None => vec![default_cap; n],
    };
    for (line, v, c) in cap_overrides {
        if v >= n {
            return Err(InstanceError::Directive {
                line,
                message: format!("cap directive for unknown disk {v}"),
            });
        }
        caps[v] = c;
    }
    Ok(MigrationProblem::new(g, Capacities::from_vec(caps))?)
}

/// Serializes an instance back to the text format.
#[must_use]
pub fn to_instance_text(problem: &MigrationProblem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", problem.num_disks());
    let caps: Vec<String> = problem
        .capacities()
        .as_slice()
        .iter()
        .map(u32::to_string)
        .collect();
    let _ = writeln!(out, "caps {}", caps.join(" "));
    for (_, ep) in problem.graph().edges() {
        let _ = writeln!(out, "edge {} {}", ep.u.index(), ep.v.index());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_form() {
        let p = parse_instance("nodes 3\ncaps 2 4 2\nedge 0 1\nedge 1 2\n").unwrap();
        assert_eq!(p.num_disks(), 3);
        assert_eq!(p.capacities().as_slice(), &[2, 4, 2]);
        assert_eq!(p.num_items(), 2);
    }

    #[test]
    fn default_and_override_caps() {
        let p = parse_instance("default_cap 3\ncap 1 7\nedge 0 1\nedge 1 2\n").unwrap();
        assert_eq!(p.capacities().as_slice(), &[3, 7, 3]);
    }

    #[test]
    fn inline_comments_stripped() {
        let p = parse_instance("edge 0 1  # item A\n").unwrap();
        assert_eq!(p.num_items(), 1);
    }

    #[test]
    fn caps_extend_node_count() {
        let p = parse_instance("caps 1 1 1 1 1\nedge 0 1\n").unwrap();
        assert_eq!(p.num_disks(), 5);
    }

    #[test]
    fn roundtrip() {
        let text = "nodes 4\ncaps 2 1 3 1\nedge 0 1\nedge 0 1\nedge 2 3\n";
        let p = parse_instance(text).unwrap();
        let p2 = parse_instance(&to_instance_text(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse_instance("disk 0\n").unwrap_err();
        assert!(matches!(err, InstanceError::Directive { line: 1, .. }));
    }

    #[test]
    fn rejects_zero_cap_on_busy_disk() {
        let err = parse_instance("caps 0 1\nedge 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            InstanceError::Problem(ProblemError::ZeroCapacity { .. })
        ));
    }

    #[test]
    fn cap_for_an_unknown_disk_names_its_line() {
        let err = parse_instance("nodes 2\ncap 5 1\nedge 0 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: cap directive for unknown disk 5");
        let err = parse_instance("# header\n\nedge 0 1\ncap 1 2\ncap 2 1 # gone\n").unwrap_err();
        assert_eq!(err.to_string(), "line 5: cap directive for unknown disk 2");
    }

    #[test]
    fn rejects_bad_capacity_token() {
        let err = parse_instance("caps 1 x\n").unwrap_err();
        assert!(matches!(err, InstanceError::Directive { .. }));
    }
}
