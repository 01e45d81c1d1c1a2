//! Differential fuzz of the instance reader, and the instance writer
//! pinned to the renderer it replaced.
//!
//! Each case writes a random instance in the shape perfbench writes
//! (`nodes`, `caps`, then one `edge` line per item) and applies one to
//! four seeded mutations: tabs, CRLF, bare CRs, double and trailing
//! spaces, `+` signs, leading zeros, 18-, 19- and 20-digit values, `#`
//! comments, a missing final newline, U+00A0 and U+2003, self-loops, junk
//! bytes, dropped lines, and `nodes`, `caps`, `cap` and `default_cap`
//! lines anywhere. `parse_instance` reads the text in one byte pass; the
//! oracle is the `str::lines` + `split_whitespace` reader it replaced,
//! kept here, and both must accept the same `MigrationProblem` or reject
//! with the same message. Three departures are stated: the oracle sizes
//! its graph from the largest index, so disk indices and node counts stay
//! far below the `u32` limit the reader enforces (a 20-digit value above
//! `u64::MAX` fails to parse in both); the oracle reports a self-loop
//! without its line, which the reader names; and the oracle reports a
//! zero capacity on a busy disk without its line, which the reader names
//! at the line that gave the disk its 0.

use std::fmt::Write as _;

use dmig_cli::instance::{parse_instance, to_instance_text, InstanceError};
use dmig_core::{Capacities, MigrationProblem, ProblemError};
use dmig_graph::{Multigraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- the oracles: the reader and writer before the byte pass ---------------

/// The instance reader as it was before the byte pass.
fn oracle_parse(text: &str) -> Result<MigrationProblem, InstanceError> {
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut default_cap = 1u32;
    let mut caps_vec: Option<Vec<u32>> = None;
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

/// The instance writer as it was before the byte pass, except that an
/// instance with no disks gets no `caps` line: the reader rejects one with
/// no value.
fn oracle_text(problem: &MigrationProblem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", problem.num_disks());
    let caps: Vec<String> = problem
        .capacities()
        .as_slice()
        .iter()
        .map(u32::to_string)
        .collect();
    if !caps.is_empty() {
        let _ = writeln!(out, "caps {}", caps.join(" "));
    }
    for (_, ep) in problem.graph().edges() {
        let _ = writeln!(out, "edge {} {}", ep.u.index(), ep.v.index());
    }
    out
}

/// The 1-based line of the first self-loop the oracle read from `text`,
/// which it reports without a line.
fn first_loop_line(text: &str) -> usize {
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default();
        let mut parts = line.split_whitespace();
        if parts.next() != Some("edge") {
            continue;
        }
        let u = parts.next().and_then(|t| t.parse::<usize>().ok());
        if u.is_some() && u == parts.next().and_then(|t| t.parse::<usize>().ok()) {
            return lineno + 1;
        }
    }
    panic!("the oracle reported a self-loop that no line holds:\n{text}");
}

/// The 1-based line that gave `disk` the zero capacity the oracle reports
/// without a line: the disk's last `cap` line, else the last `caps` line
/// when it lists the disk, else the last `default_cap` line.
fn zero_capacity_line(text: &str, disk: usize) -> usize {
    let (mut cap, mut caps, mut default_cap) = (None, None, None);
    for (lineno, raw) in text.lines().enumerate() {
        let mut parts = raw.split('#').next().unwrap_or_default().split_whitespace();
        match parts.next() {
            Some("cap") if parts.next().and_then(|t| t.parse().ok()) == Some(disk) => {
                cap = Some(lineno + 1);
            }
            Some("caps") => caps = Some((lineno + 1, parts.count())),
            Some("default_cap") => default_cap = Some(lineno + 1),
            _ => {}
        }
    }
    cap.or(caps
        .filter(|&(_, listed)| disk < listed)
        .map(|(line, _)| line))
        .or(default_cap)
        .unwrap_or_else(|| panic!("no line gave disk {disk} its 0:\n{text}"))
}

// --- the mutations -----------------------------------------------------------

/// A random instance as perfbench writes one: `nodes`, `caps`, then one
/// loop-free `edge` line per item.
fn base_instance(rng: &mut StdRng) -> String {
    let disks = rng.gen_range(2..40usize);
    let items = rng.gen_range(0..120usize);
    let mut b = Multigraph::with_nodes(disks);
    for _ in 0..items {
        let u = rng.gen_range(0..disks);
        let v = (u + rng.gen_range(1..disks)) % disks;
        b.add_edge(NodeId::new(u), NodeId::new(v));
    }
    let caps: Capacities = (0..disks).map(|_| rng.gen_range(1..7u32)).collect();
    oracle_text(&MigrationProblem::new(b, caps).expect("a loop-free instance with caps ≥ 1"))
}

/// A text as lines and the terminator after each (`\n`, `\r\n`, or none
/// after the last).
struct Doc {
    lines: Vec<(String, &'static str)>,
}

impl Doc {
    fn parse(text: &str) -> Doc {
        let mut lines: Vec<(String, &'static str)> =
            text.split('\n').map(|l| (l.to_string(), "\n")).collect();
        // `split` yields an empty piece after a final `\n`.
        let last = lines.pop().expect("split yields at least one piece");
        if !last.0.is_empty() {
            lines.push((last.0, ""));
        }
        Doc { lines }
    }

    fn render(&self) -> String {
        self.lines
            .iter()
            .map(|(l, t)| format!("{l}{t}"))
            .collect::<String>()
    }
}

/// The byte ranges of the digit runs of `line`.
fn digit_runs(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// A digit run of `digits` digits: a random value, or `value` padded with
/// leading zeros.
fn spelled(rng: &mut StdRng, value: &str, digits: usize) -> String {
    if rng.gen_bool(0.5) || digits <= value.len() {
        let mut s = String::from(pick(rng, &["1", "4", "9"]));
        while s.len() < digits {
            s.push(char::from(b'0' + rng.gen_range(0..10u8)));
        }
        s
    } else {
        format!("{}{value}", "0".repeat(digits - value.len()))
    }
}

/// Rewrites one number of `line`. A value that could size the oracle's
/// graph (an edge endpoint or node count) only ever gets leading zeros,
/// a sign, or a value above `u64::MAX`; a capacity or a `cap` disk may get
/// any 18-, 19- or 20-digit value.
fn mutate_number(line: &mut String, rng: &mut StdRng) {
    let runs = digit_runs(line);
    if runs.is_empty() {
        return;
    }
    let (start, end) = pick(rng, &runs);
    let value = line[start..end].to_string();
    let sizes_graph =
        line.trim_start().starts_with("edge") || line.trim_start().starts_with("nodes");
    let new = match rng.gen_range(0..5) {
        0 => format!("+{value}"),
        1 => format!("{}{value}", "0".repeat(rng.gen_range(1..4))),
        2 => {
            let digits: usize = pick(rng, &[18, 19, 20]);
            if sizes_graph {
                format!("{}{value}", "0".repeat(digits.saturating_sub(value.len())))
            } else {
                spelled(rng, &value, digits)
            }
        }
        3 => pick(rng, &["18446744073709551616", "99999999999999999999"]).to_string(),
        _ => format!("-{value}"),
    };
    line.replace_range(start..end, &new);
}

/// A directive line for a text over about `disks` disks.
fn directive(rng: &mut StdRng, disks: usize) -> String {
    match rng.gen_range(0..7) {
        0 => format!("nodes {}", rng.gen_range(0..2 * disks + 2)),
        1 => {
            let k = rng.gen_range(0..disks + 3);
            let caps: Vec<String> = (0..k).map(|_| rng.gen_range(0..5u32).to_string()).collect();
            format!("caps {}", caps.join(" "))
        }
        2 => format!(
            "cap {} {}",
            rng.gen_range(0..disks + 3),
            rng.gen_range(0..5u32)
        ),
        3 => format!("default_cap {}", rng.gen_range(0..5u32)),
        4 => format!("# comment {}", rng.gen_range(0..100)),
        5 => String::new(),
        _ => {
            let u = rng.gen_range(0..disks + 2);
            format!("edge {u} {}", rng.gen_range(0..disks + 2))
        }
    }
}

/// One seeded mutation of `doc`.
fn mutate(doc: &mut Doc, rng: &mut StdRng, disks: usize) {
    if doc.lines.is_empty() {
        doc.lines.push((directive(rng, disks), "\n"));
        return;
    }
    let i = rng.gen_range(0..doc.lines.len());
    let line = &mut doc.lines[i].0;
    match rng.gen_range(0..12) {
        // Another kind of space in place of one space.
        0 | 1 => {
            let spaces: Vec<usize> = line.match_indices(' ').map(|(at, _)| at).collect();
            if !spaces.is_empty() {
                let at = pick(rng, &spaces);
                let with = pick(rng, &["\t", "  ", "\u{a0}", "\u{2003}", "\r", " \t"]);
                line.replace_range(at..=at, with);
            }
        }
        // Trailing blanks, a comment, or a bare CR at the end.
        2 => line.push_str(pick(
            rng,
            &[" ", "\t", " # note", "#", "# edge 9 9", "\r", "\r\r"],
        )),
        3 | 4 => mutate_number(line, rng),
        // A self-loop.
        5 => {
            let mut parts = line.split(' ');
            if let (Some("edge"), Some(u), Some(_)) = (parts.next(), parts.next(), parts.next()) {
                *line = format!("edge {u} {u}");
            }
        }
        // A junk byte in place of one.
        6 => {
            let at = rng.gen_range(0..=line.len());
            if line.is_char_boundary(at) {
                line.insert_str(at, pick(rng, &["x", "-", ".", "é", "#", "E"]));
            }
        }
        // Terminators: CRLF, or no final newline.
        7 => doc.lines[i].1 = "\r\n",
        8 => {
            if let Some(last) = doc.lines.last_mut() {
                last.1 = "";
            }
        }
        9 => {
            doc.lines.remove(i);
        }
        _ => {
            let at = rng.gen_range(0..=doc.lines.len());
            let terminator =
                if at == doc.lines.len() && doc.lines.last().is_some_and(|l| l.1.is_empty()) {
                    doc.lines.last_mut().expect("not empty").1 = "\n";
                    ""
                } else {
                    "\n"
                };
            doc.lines.insert(at, (directive(rng, disks), terminator));
        }
    }
}

/// The reader's verdict on `text` against the oracle's, with the stated
/// self-loop and zero-capacity departures.
fn check(text: &str) -> bool {
    let got = parse_instance(text);
    match oracle_parse(text) {
        Ok(want) => {
            let got = got.unwrap_or_else(|e| panic!("oracle accepts, reader says {e}:\n{text:?}"));
            assert!(got == want, "the problems differ:\n{text:?}");
            let canonical = to_instance_text(&got);
            assert_eq!(canonical, oracle_text(&got), "writer differs:\n{text:?}");
            assert!(parse_instance(&canonical).unwrap() == got, "{canonical:?}");
            true
        }
        Err(want) => {
            let want = match want {
                InstanceError::Problem(e @ ProblemError::SelfLoop { .. }) => {
                    format!("line {}: {e}", first_loop_line(text))
                }
                InstanceError::Problem(e @ ProblemError::ZeroCapacity { node }) => {
                    format!("line {}: {e}", zero_capacity_line(text, node.index()))
                }
                other => other.to_string(),
            };
            match got {
                Ok(_) => panic!("oracle says {want}, reader accepts:\n{text:?}"),
                Err(e) => assert_eq!(e.to_string(), want, "messages differ:\n{text:?}"),
            }
            false
        }
    }
}

#[test]
fn mutated_instances_read_as_the_oracle_reads_them() {
    let mut rng = StdRng::seed_from_u64(19);
    let (mut accepted, mut rejected) = (0, 0);
    let cases = 3000;
    for _ in 0..cases {
        let base = base_instance(&mut rng);
        let disks = base
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("nodes "))
            .and_then(|n| n.parse().ok())
            .expect("the base instance starts with `nodes`");
        let mut doc = Doc::parse(&base);
        for _ in 0..rng.gen_range(1..=4) {
            mutate(&mut doc, &mut rng, disks);
        }
        if check(&doc.render()) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted >= cases / 4 && rejected >= cases / 4,
        "accepted {accepted}, rejected {rejected} of {cases}"
    );
}

fn arb_problem() -> impl Strategy<Value = MigrationProblem> {
    (1usize..400).prop_flat_map(|disks| {
        (
            proptest::collection::vec((0..disks, 0..disks), 0..200),
            // Small capacities mostly; some with ten digits, up to u32::MAX.
            proptest::collection::vec(
                (0..4u32, 1..8u32, 1_000_000_000..=u32::MAX).prop_map(|(k, small, big)| {
                    if k == 0 {
                        big
                    } else {
                        small
                    }
                }),
                disks,
            ),
        )
            .prop_map(move |(pairs, caps)| {
                let mut g = Multigraph::with_nodes(disks);
                for (u, v) in pairs {
                    if u != v {
                        g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
                MigrationProblem::new(g, Capacities::from_vec(caps)).expect("caps ≥ 1, no loops")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The writer's bytes are the old `writeln!` renderer's, and read back
    /// to the same problem.
    #[test]
    fn instance_text_matches_the_old_renderer(p in arb_problem()) {
        let text = to_instance_text(&p);
        prop_assert_eq!(&text, &oracle_text(&p));
        prop_assert!(parse_instance(&text).unwrap() == p);
    }
}
