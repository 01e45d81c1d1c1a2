//! Seeded mutation fuzz of the text readers the CLI hands user files to:
//! the fault plan (`FaultPlan::parse_checked`, behind `--faults`), the gate
//! rules (`gate::parse_rules`, behind `obs gate`) and the item trace
//! (`trace::parse_trace`, behind `import-trace`).
//!
//! Each case mutates a committed or generated text with one to three
//! seeded edits — characters flipped, inserted or deleted, lines dropped,
//! duplicated or swapped, numbers replaced by extreme ones, headers and
//! `key = value` lines spliced in from elsewhere — and reads it. No reader
//! may panic, and every error must name a line of the text. A trace that
//! reads renders with `to_trace_text` and reads back to itself.

use dmig_obs::gate;
use dmig_sim::{FaultPlan, FaultPlanError};
use dmig_workloads::trace::{parse_trace, to_trace_text};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 3000;

/// Disks of the CI fault instance (`dmig generate rebalance 6 24 2`).
const CI_DISKS: usize = 6;

/// Splices: table headers, `key = value` lines and directives of all three
/// formats, some of them wrong.
const SPLICES: &[&str] = &[
    "[[crash]]",
    "[[degrade]]",
    "[flaky]",
    "[[rule]]",
    "[mystery]",
    "[[",
    "seed = 7",
    "disk = 3",
    "disk = 99",
    "time = 0.75",
    "time = -1",
    "factor = 0.5",
    "factor = 1",
    "recover_at = 2",
    "replacement = 4",
    "probability = 0.5",
    "probability = nan",
    "name = \"spliced\"",
    "expr = \"a >= 1\"",
    "expr = \"\"",
    "when = \"b == 2\"",
    "tolerance = 0.1",
    "default_tolerance = 1e-3",
    "item 0 1",
    "item 2 2",
    "item 3 4 0.5",
    "item 1 5 -2",
    "item 1",
    "= 1",
    "key =",
    "# comment = 1",
];

/// Numbers that replace a digit run: empty, signed, huge, fractional,
/// exponent forms and non-finite spellings.
const NUMBERS: &[&str] = &[
    "",
    "0",
    "-1",
    "+2",
    "18446744073709551616",
    "4294967296",
    "1e309",
    "nan",
    "inf",
    "0.0000001",
    "1_0",
    "0x10",
];

/// Characters a flip or an insert uses: the formats' syntax, digits,
/// whitespace, and multi-byte characters.
const CHARS: &[char] = &[
    '[', ']', '=', '#', '"', '\\', '\n', ' ', '\t', '.', '-', '+', 'e', '0', '1', '9', 'a', 'z',
    '_', '\r', '\u{a0}', '\u{2003}', 'é', '∞',
];

fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n.max(1));
    match rng.gen_range(0..9) {
        0 => {
            if !chars.is_empty() {
                let i = pick(rng, chars.len());
                chars[i] = CHARS[pick(rng, CHARS.len())];
            }
            chars.into_iter().collect()
        }
        1 => {
            let i = rng.gen_range(0..=chars.len());
            chars.insert(i, CHARS[pick(rng, CHARS.len())]);
            chars.into_iter().collect()
        }
        2 => {
            let i = pick(rng, chars.len());
            let j = (i + rng.gen_range(1..12)).min(chars.len());
            chars.drain(i.min(j)..j);
            chars.into_iter().collect()
        }
        3 => {
            if !lines.is_empty() {
                lines.remove(pick(rng, lines.len()));
            }
            lines.join("\n")
        }
        4 => {
            if !lines.is_empty() {
                let i = pick(rng, lines.len());
                let copy = lines[i].clone();
                lines.insert(rng.gen_range(0..=lines.len()), copy);
            }
            lines.join("\n")
        }
        5 => {
            if lines.len() > 1 {
                let (i, j) = (pick(rng, lines.len()), pick(rng, lines.len()));
                lines.swap(i, j);
            }
            lines.join("\n") + "\n"
        }
        6 => {
            let at = rng.gen_range(0..=lines.len());
            lines.insert(at, SPLICES[pick(rng, SPLICES.len())].to_string());
            lines.join("\n") + "\n"
        }
        7 => {
            // A run of digits replaced by another number.
            let starts: Vec<usize> = (0..chars.len())
                .filter(|&i| {
                    chars[i].is_ascii_digit() && (i == 0 || !chars[i - 1].is_ascii_digit())
                })
                .collect();
            if starts.is_empty() {
                return chars.into_iter().collect();
            }
            let i = starts[pick(rng, starts.len())];
            let j = (i..chars.len())
                .find(|&k| !chars[k].is_ascii_digit())
                .unwrap_or(chars.len());
            let number = NUMBERS[pick(rng, NUMBERS.len())];
            chars.splice(i..j, number.chars());
            chars.into_iter().collect()
        }
        _ => chars[..pick(rng, chars.len())].iter().collect(),
    }
}

/// Mutates `seed` with one to three edits.
fn case(seed: &str, rng: &mut StdRng) -> String {
    let mut text = seed.to_string();
    for _ in 0..rng.gen_range(1..=3) {
        text = mutate(&text, rng);
    }
    text
}

/// Whether `line` is a line number of `text` (1-based).
fn names_a_line(text: &str, line: usize) -> bool {
    (1..=text.lines().count()).contains(&line)
}

fn repo_file(name: &str) -> String {
    std::fs::read_to_string(format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
}

#[test]
fn mutated_fault_plans_fail_at_a_line() {
    let seeds = [
        repo_file("ci-faults.toml"),
        "seed = 1\n[[crash]]\ndisk = 0\ntime = 1\n[[crash]]\ndisk = 3\ntime = 2\nreplacement = 4\n\
         [[degrade]]\ndisk = 5\ntime = 0\nfactor = 0.5\n"
            .to_string(),
    ];
    FaultPlan::parse_checked(&seeds[0], CI_DISKS).expect("ci-faults.toml reads");
    let mut rng = StdRng::seed_from_u64(41);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..CASES {
        let text = case(&seeds[i % seeds.len()], &mut rng);
        match FaultPlan::parse_checked(&text, CI_DISKS) {
            Ok(plan) => {
                accepted += 1;
                plan.validate(CI_DISKS).expect("a checked plan validates");
            }
            Err(FaultPlanError::Parse { line, message }) => {
                rejected += 1;
                assert!(names_a_line(&text, line), "line {line}: {message}\n{text}");
            }
            Err(e) => panic!("an error without a line: {e}\n{text}"),
        }
    }
    assert!(
        accepted >= 200 && rejected >= 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn mutated_gate_rules_fail_at_a_line() {
    let seeds = [repo_file("ci-fault-rules.toml"), repo_file("ci-rules.toml")];
    let metrics = [("exec.crashes", 1.0), ("a", 2.0), ("b", 2.0)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let mut rng = StdRng::seed_from_u64(43);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..CASES {
        let text = case(&seeds[i % seeds.len()], &mut rng);
        match gate::parse_rules(&text) {
            Ok(rules) => {
                accepted += 1;
                // Evaluating what reads must not panic either.
                let _ = gate::evaluate(&rules, &metrics, &gate::FunctionRegistry::default());
            }
            Err(e) => {
                rejected += 1;
                let line = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse().ok());
                assert!(
                    line.is_some_and(|line| names_a_line(&text, line)),
                    "{e}\n{text}"
                );
            }
        }
    }
    assert!(
        accepted >= 200 && rejected >= 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Whether a trace `text` names a disk index that would size a graph
/// beyond what this test may allocate. Indices above `u32::MAX` are
/// rejected at their line before any graph is built, so they stay in.
fn sizes_a_large_graph(text: &str) -> bool {
    text.split_whitespace()
        .filter_map(|tok| tok.parse::<u128>().ok())
        .any(|n| (1_000_000..=u128::from(u32::MAX)).contains(&n))
}

#[test]
fn mutated_traces_fail_at_a_line_or_round_trip() {
    let mut rng = StdRng::seed_from_u64(47);
    let mut seed = String::from("# a trace\n");
    for i in 0..40 {
        let (u, v) = (rng.gen_range(0..12), rng.gen_range(0..12));
        if u != v {
            match i % 3 {
                0 => seed.push_str(&format!("item {u} {v}\n")),
                1 => seed.push_str(&format!("item {u} {v} 2.5  # big\n")),
                _ => seed.push_str(&format!("item {u} {v} 0.125\n")),
            }
        }
    }
    let (mut accepted, mut rejected, mut skipped) = (0, 0, 0);
    for _ in 0..CASES {
        let text = case(&seed, &mut rng);
        if sizes_a_large_graph(&text) {
            skipped += 1;
            continue;
        }
        match parse_trace(&text) {
            Ok(trace) => {
                accepted += 1;
                let rendered = to_trace_text(&trace);
                assert_eq!(
                    parse_trace(&rendered).as_ref(),
                    Ok(&trace),
                    "{text}\nrendered as\n{rendered}"
                );
            }
            Err(e) => {
                rejected += 1;
                assert!(names_a_line(&text, e.line), "{e}\n{text}");
            }
        }
    }
    assert!(
        accepted >= 200 && rejected >= 1000 && skipped < CASES / 10,
        "{accepted} accepted, {rejected} rejected, {skipped} skipped"
    );
}
