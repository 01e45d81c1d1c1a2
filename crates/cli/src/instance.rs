//! Text format for migration instances: the transfer graph as one `edge`
//! line per item, and the disks' transfer constraints:
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

use dmig_core::{Capacities, MigrationProblem, ProblemError};
use dmig_graph::Multigraph;
use dmig_obs::json::push_u64;

/// Errors from parsing an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstanceError {
    /// A line that is malformed, or that declares an invalid instance.
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
            InstanceError::Directive { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Parses an instance from the text format described at module level.
///
/// The text is read in one pass over its bytes. A line that is exactly
/// `edge`, a space, 1–18 digits, a space and 1–18 digits, ended by `\n` or
/// the end of the text, is read in place; every other line — a CR, a tab,
/// a comment, a `+`, a longer number, any other directive — is read by the
/// directive reader as `str::lines` would yield it (a `\r` is dropped only
/// before `\n`) and at the same 1-based line number, so values, messages
/// and the first error are the same on either path. The graph is built
/// once every line has parsed, at its final size.
///
/// # Errors
///
/// Returns [`InstanceError`], naming a line, on malformed directives,
/// graph errors, or instance validation failures. An edge endpoint that
/// does not fit a `u32` disk id, or a node count beyond 2^32, is an error
/// at its line; a self-loop is reported at the line of the first one, and
/// a disk count too large to allocate at the line that set it.
pub fn parse_instance(text: &str) -> Result<MigrationProblem, InstanceError> {
    let mut d = Directives {
        declared_nodes: None,
        edges: Vec::new(),
        inferred: 0,
        inferred_line: 0,
        default_cap: 1,
        caps_vec: None,
        cap_overrides: Vec::new(),
        first_loop: None,
        nodes_line: 0,
        default_cap_line: 0,
        caps_line: 0,
    };
    let bytes = text.as_bytes();
    let (mut at, mut line) = (0, 0);
    while at < bytes.len() {
        line += 1;
        if let Some((u, v, len)) = edge_line(&bytes[at..]) {
            d.edge(line, u, v);
            at += len;
            continue;
        }
        let rest = &text[at..];
        let (raw, len) = match rest.find('\n') {
            Some(i) => (rest[..i].strip_suffix('\r').unwrap_or(&rest[..i]), i + 1),
            None => (rest, rest.len()),
        };
        d.directive(raw, line)?;
        at += len;
    }
    d.finish()
}

/// The line `bytes` starts, if it is a fast-path `edge` line (see
/// [`parse_instance`]) whose endpoints fit `u32`: its endpoints and its
/// length with the `\n`. The directive reader reads such a line to the
/// same two values.
#[inline]
fn edge_line(bytes: &[u8]) -> Option<(usize, usize, usize)> {
    let (u, rest) = disk_index(bytes.strip_prefix(b"edge ")?)?;
    let (v, rest) = disk_index(rest.strip_prefix(b" ")?)?;
    let len = bytes.len() - rest.len();
    match rest.first() {
        None => Some((u, v, len)),
        Some(b'\n') => Some((u, v, len + 1)),
        Some(_) => None,
    }
}

/// The value of the 1–18 digits `s` starts with, if it fits `u32`, and the
/// bytes after them. Longer runs are left to the directive reader.
#[inline]
fn disk_index(s: &[u8]) -> Option<(usize, &[u8])> {
    let digits = s.iter().take(19).take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || digits > 18 {
        return None;
    }
    let value = s[..digits]
        .iter()
        .fold(0u64, |v, &b| v * 10 + u64::from(b - b'0'));
    let index = u32::try_from(value).ok()?;
    Some((index as usize, &s[digits..]))
}

/// What the lines of an instance text declare, in line order.
struct Directives {
    declared_nodes: Option<usize>,
    edges: Vec<(usize, usize)>,
    /// One more than the largest edge endpoint, and the first line naming
    /// that endpoint.
    inferred: usize,
    inferred_line: usize,
    default_cap: u32,
    caps_vec: Option<Vec<u32>>,
    /// (line, disk, capacity): the disk is checked once the count is known.
    cap_overrides: Vec<(usize, usize, u32)>,
    /// The line of the first self-loop.
    first_loop: Option<usize>,
    /// The lines of the last `nodes`, `default_cap` and `caps` directives.
    nodes_line: usize,
    default_cap_line: usize,
    caps_line: usize,
}

impl Directives {
    fn edge(&mut self, line: usize, u: usize, v: usize) {
        if u == v && self.first_loop.is_none() {
            self.first_loop = Some(line);
        }
        let n = u.max(v) + 1;
        if n > self.inferred {
            self.inferred = n;
            self.inferred_line = line;
        }
        self.edges.push((u, v));
    }

    /// Reads one line the fast path did not take; `line` is 1-based.
    fn directive(&mut self, raw: &str, line: usize) -> Result<(), InstanceError> {
        let content = raw.split('#').next().unwrap_or_default().trim();
        if content.is_empty() {
            return Ok(());
        }
        let directive_error = |message: String| InstanceError::Directive { line, message };
        let mut parts = content.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        let mut next_num = |what: &str| -> Result<usize, InstanceError> {
            parts
                .next()
                .ok_or_else(|| directive_error(format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| directive_error(format!("invalid {what}")))
        };
        match keyword {
            "nodes" => {
                let n = next_num("node count")?;
                if n.saturating_sub(1) > u32::MAX as usize {
                    return Err(directive_error(format!(
                        "node count {n} exceeds {}",
                        u64::from(u32::MAX) + 1
                    )));
                }
                self.declared_nodes = Some(n);
                self.nodes_line = line;
            }
            "edge" => {
                let u = next_num("edge endpoint")?;
                let v = next_num("edge endpoint")?;
                for w in [u, v] {
                    if w > u32::MAX as usize {
                        return Err(directive_error(format!(
                            "edge endpoint {w} exceeds the largest disk index {}",
                            u32::MAX
                        )));
                    }
                }
                self.edge(line, u, v);
            }
            "default_cap" => {
                self.default_cap = u32::try_from(next_num("capacity")?)
                    .map_err(|_| directive_error("capacity too large".to_string()))?;
                self.default_cap_line = line;
            }
            "cap" => {
                let v = next_num("disk index")?;
                let c = next_num("capacity")?;
                self.cap_overrides.push((
                    line,
                    v,
                    u32::try_from(c)
                        .map_err(|_| directive_error("capacity too large".to_string()))?,
                ));
            }
            "caps" => {
                let mut values = Vec::new();
                for tok in parts.by_ref() {
                    let c = tok
                        .parse::<u32>()
                        .map_err(|_| directive_error(format!("invalid capacity `{tok}`")))?;
                    values.push(c);
                }
                if values.is_empty() {
                    return Err(directive_error("caps needs at least one value".to_string()));
                }
                self.caps_vec = Some(values);
                self.caps_line = line;
            }
            other => {
                return Err(directive_error(format!("unknown directive `{other}`")));
            }
        }
        Ok(())
    }

    /// The instance the lines declare, or the first error found once
    /// every line has parsed: the graph (a disk count too large to
    /// allocate is named at the `nodes` line, else the `caps` line, else
    /// the edge line that set it), then a `cap` for an unknown disk, then
    /// the problem's own validation: the first self-loop, named at its
    /// line, then a zero capacity, named at the line that gave it.
    fn finish(self) -> Result<MigrationProblem, InstanceError> {
        let listed = self.caps_vec.as_ref().map_or(0, Vec::len);
        let n = self
            .declared_nodes
            .unwrap_or(self.inferred)
            .max(self.inferred)
            .max(listed);
        let g = Multigraph::from_edges(n, &self.edges).map_err(|e| {
            let line = if self.declared_nodes == Some(n) {
                self.nodes_line
            } else if listed == n {
                self.caps_line
            } else {
                self.inferred_line
            };
            InstanceError::Directive {
                line,
                message: e.to_string(),
            }
        })?;
        let mut caps = match self.caps_vec {
            Some(mut values) => {
                values.resize(n, self.default_cap);
                values
            }
            None => vec![self.default_cap; n],
        };
        for &(line, v, c) in &self.cap_overrides {
            if v >= n {
                return Err(InstanceError::Directive {
                    line,
                    message: format!("cap directive for unknown disk {v}"),
                });
            }
            caps[v] = c;
        }
        MigrationProblem::new(g, Capacities::from_vec(caps)).map_err(|e| {
            let line = match e {
                // `new` reports the first loop in edge order, which is
                // line order.
                ProblemError::SelfLoop { .. } => self.first_loop.unwrap_or_default(),
                // The disk's last `cap` line, else the `caps` line that
                // lists it, else the `default_cap` line.
                ProblemError::ZeroCapacity { node } => {
                    let disk = node.index();
                    match self.cap_overrides.iter().rev().find(|o| o.1 == disk) {
                        Some(&(line, _, _)) => line,
                        None if disk < listed => self.caps_line,
                        None => self.default_cap_line,
                    }
                }
                // `caps` has one entry per disk, so the lengths agree.
                _ => self.caps_line,
            };
            InstanceError::Directive {
                line,
                message: e.to_string(),
            }
        })
    }
}

/// Serializes an instance back to the text format: `nodes`, `caps` (when
/// there is a disk), then one `edge` line per item in item order.
#[must_use]
pub fn to_instance_text(problem: &MigrationProblem) -> String {
    let n = problem.num_disks();
    let caps = problem.capacities().as_slice();
    let edges = problem.graph().endpoints_slice();
    // A disk index below `n` has no more digits than `n`.
    let width = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut out = Vec::with_capacity(32 + 11 * caps.len() + (7 + 2 * width) * edges.len());
    out.extend_from_slice(b"nodes ");
    push_u64(&mut out, n as u64);
    out.push(b'\n');
    // The reader wants at least one value on a `caps` line.
    if let Some((first, rest)) = caps.split_first() {
        out.extend_from_slice(b"caps ");
        push_u64(&mut out, u64::from(*first));
        for &c in rest {
            out.push(b' ');
            push_u64(&mut out, u64::from(c));
        }
        out.push(b'\n');
    }
    for ep in edges {
        out.extend_from_slice(b"edge ");
        push_u64(&mut out, ep.u.index() as u64);
        out.push(b' ');
        push_u64(&mut out, ep.v.index() as u64);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("instance text is ASCII")
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
    fn a_zero_capacity_on_a_busy_disk_names_its_line() {
        // Its `cap` line, else the `caps` line, else the `default_cap` line;
        // the last of each kind wins.
        for (text, line, disk) in [
            ("nodes 2\ncaps 0 1\nedge 0 1\n", 2, 0),
            (
                "caps 1 1\ncap 0 0\ncaps 0 1\ncap 0 0 # last\nedge 0 1\n",
                4,
                0,
            ),
            ("default_cap 0\ncaps 0\ndefault_cap 1\nedge 0 1\n", 2, 0),
            ("caps 2\ndefault_cap 0\ndefault_cap 0\nedge 1 0\n", 3, 1),
        ] {
            let err = parse_instance(text).unwrap_err();
            let want = format!(
                "line {line}: disk v{disk} has transfer constraint 0 but incident transfers"
            );
            assert_eq!(err.to_string(), want, "{text:?}");
        }
    }

    #[test]
    fn cap_for_an_unknown_disk_names_its_line() {
        let err = parse_instance("nodes 2\ncap 5 1\nedge 0 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: cap directive for unknown disk 5");
        let err = parse_instance("# header\n\nedge 0 1\ncap 1 2\ncap 2 1 # gone\n").unwrap_err();
        assert_eq!(err.to_string(), "line 5: cap directive for unknown disk 2");
    }

    #[test]
    fn a_self_loop_names_its_line() {
        let err = parse_instance("nodes 3\nedge 0 1\nedge 2 2\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: transfer graph has a self-loop at disk v2"
        );
        // The first loop in line order, whichever path reads its line.
        let err = parse_instance("edge 0 1\nedge\t3 3\nedge 2 2\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: transfer graph has a self-loop at disk v3"
        );
        // A syntax error on a later line, or a `cap` for an unknown disk,
        // still wins.
        let err = parse_instance("edge 1 1\nedge 0 x\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: invalid edge endpoint");
        let err = parse_instance("edge 1 1\ncap 9 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: cap directive for unknown disk 9");
    }

    #[test]
    fn indices_beyond_u32_are_errors_at_their_line() {
        let err = parse_instance("edge 0 4000000000000").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: edge endpoint 4000000000000 exceeds the largest disk index 4294967295"
        );
        let err = parse_instance("# big\nedge 4294967296 0\r\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: edge endpoint 4294967296 exceeds the largest disk index 4294967295"
        );
        let err = parse_instance("nodes 4000000000000\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: node count 4000000000000 exceeds 4294967296"
        );
        let err = parse_instance("edge 0 1\nnodes 4294967297\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: node count 4294967297 exceeds 4294967296"
        );
    }

    #[test]
    fn both_paths_read_an_edge_line_alike() {
        let fast = parse_instance("edge 000000000000000002 1\nedge 0 1").unwrap();
        for slow in [
            "edge 0000000000000000002 1\nedge 0 1",
            "edge +2 1\r\nedge 0 1\n",
            "edge  2 1 \nedge\t0 1 # item\n",
            "edge\u{a0}2\u{2003}1\nedge 0 1\r",
        ] {
            assert_eq!(parse_instance(slow).unwrap(), fast, "{slow:?}");
        }
        // A bare CR is not a line break: the words after it are surplus
        // words of the same `edge` line.
        assert_eq!(
            parse_instance("edge 0 1\redge 0 x\n").unwrap().num_items(),
            1
        );
    }

    #[test]
    fn rejects_bad_capacity_token() {
        let err = parse_instance("caps 1 x\n").unwrap_err();
        assert!(matches!(err, InstanceError::Directive { .. }));
    }
}
