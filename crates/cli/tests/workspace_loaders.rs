//! Seeded mutation fuzz of the workspace's JSON loaders, driven through
//! `dmig migrate execute`.
//!
//! The CI fault workspace is planned once. Each case rewrites one of its
//! JSON files — `plan.json`, `config.json` or `manifest.json` — with one or
//! two seeded mutations (byte flips and inserts, cuts, reordered, unknown,
//! dropped and duplicate members, values of another kind, integers padded
//! or lengthened past the reader's 15-digit fast path, other whitespace,
//! escaped letters, deep nesting, float bit patterns of NaN, infinities
//! and other extremes), runs `execute`, and restores the file. No case
//! may panic or hang. A rejected file exits 1 with an error that names
//! the file first. `plan.json` is read in one pass without a `Value`
//! tree; the oracle here is the `Value`-tree loader it replaced, and both
//! must reject with the same message or accept the same rounds. The
//! manifest pins `plan.json` by fingerprint, so each mutated `plan.json`
//! is pinned again before `execute` reads it: the fuzz is of the reader,
//! not of the pin.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dmig_core::{MigrationProblem, MigrationSchedule};
use dmig_graph::EdgeId;
use dmig_obs::history::fingerprint;
use dmig_obs::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the binary; a run that has not exited after a minute is killed
/// and fails the test, so a loader that lets a tampered value make the
/// executor spin shows up as a failure, not a stuck test.
fn dmig(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let (started, mut nap) = (Instant::now(), Duration::from_micros(100));
    while child.try_wait().expect("wait on the binary").is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            panic!("dmig {args:?} still runs after a minute");
        }
        std::thread::sleep(nap);
        nap = (nap * 2).min(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("binary output");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

// --- the oracle: the `Value`-tree plan loader -------------------------------

const PLAN: &str = "plan.json";
const PLAN_SCHEMA: &str = "dmig-plan/1";
const INSTANCE: &str = "instance.txt";

fn field<'a>(doc: &'a Value, file: &str, key: &str) -> Result<&'a Value, String> {
    doc.get_path(key)
        .ok_or_else(|| format!("{file}: missing `{key}`"))
}

fn check_schema(doc: &Value, file: &str, want: &str) -> Result<(), String> {
    let got = field(doc, file, "schema")?.as_str().unwrap_or_default();
    if got != want {
        return Err(format!("{file}: schema `{got}` is not `{want}`"));
    }
    Ok(())
}

/// The rounds the replaced loader read from `text`, validated against
/// `problem` as `load_workspace` validates them.
fn oracle_plan(text: &str, problem: &MigrationProblem) -> Result<Vec<Vec<EdgeId>>, String> {
    let plan = Value::parse(text).map_err(|e| format!("{PLAN}: {e}"))?;
    check_schema(&plan, PLAN, PLAN_SCHEMA)?;
    let rounds_doc = field(&plan, PLAN, "rounds")?
        .as_array()
        .ok_or(format!("{PLAN}: `rounds` is not an array"))?;
    let mut rounds = Vec::with_capacity(rounds_doc.len());
    for (i, round) in rounds_doc.iter().enumerate() {
        let edges = round
            .as_array()
            .ok_or_else(|| format!("{PLAN}: round {i} is not an array"))?;
        let mut ids = Vec::with_capacity(edges.len());
        for e in edges {
            let idx = e
                .as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .ok_or_else(|| format!("{PLAN}: round {i} holds a non-integer edge id"))?;
            let idx = idx as usize;
            if idx >= problem.num_items() {
                return Err(format!(
                    "{PLAN}: round {i} references edge {idx} but the instance has {} items",
                    problem.num_items()
                ));
            }
            ids.push(EdgeId::new(idx));
        }
        rounds.push(ids);
    }
    MigrationSchedule::from_rounds(rounds.clone())
        .validate(problem)
        .map_err(|e| format!("{PLAN}: schedule invalid for {INSTANCE}: {e}"))?;
    Ok(rounds)
}

// --- mutations ----------------------------------------------------------------

/// Splits a one-line JSON object into its top-level members' text. The
/// workspace files hold no commas or brackets inside strings.
fn members(doc: &str) -> Vec<String> {
    let inner = &doc[1..doc.len() - 1];
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(inner[start..].trim().to_string());
    out
}

fn join(members: &[String]) -> String {
    format!("{{{}}}\n", members.join(", "))
}

/// Byte ranges of unquoted integers.
fn integers(doc: &str) -> Vec<(usize, usize)> {
    let b = doc.as_bytes();
    let (mut out, mut i, mut quoted) = (Vec::new(), 0, false);
    while i < b.len() {
        match b[i] {
            b'"' => quoted = !quoted,
            c if c.is_ascii_digit() && !quoted => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                out.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Byte ranges of the quoted all-digit strings (float bit patterns).
fn bit_patterns(doc: &str) -> Vec<(usize, usize)> {
    let b = doc.as_bytes();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        if b[i] == b'"' {
            let end = i + 1 + b[i + 1..].iter().position(|&c| c == b'"').unwrap_or(0);
            if end > i + 1 && b[i + 1..end].iter().all(u8::is_ascii_digit) {
                out.push((i + 1, end));
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Byte offsets of the characters inside quoted strings.
fn quoted(doc: &str) -> Vec<usize> {
    let (mut out, mut inside) = (Vec::new(), false);
    for (i, b) in doc.bytes().enumerate() {
        if b == b'"' {
            inside = !inside;
        } else if inside {
            out.push(i);
        }
    }
    out
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// One seeded mutation of the one-line JSON document `doc`.
fn mutate(doc: &str, rng: &mut StdRng) -> String {
    const BYTES: &[u8] = b"[]{}\",:-.0123456789eE \\utfn";
    let body = doc.trim_end();
    if body.len() < 2 {
        // What an earlier cut left: grow it instead.
        return format!("{doc}{}", pick(rng, BYTES) as char);
    }
    let mut m = members(body);
    match rng.gen_range(0..13) {
        0 => {
            let mut b = doc.as_bytes().to_vec();
            let i = rng.gen_range(0..b.len());
            b[i] = pick(rng, BYTES);
            String::from_utf8_lossy(&b).into_owned()
        }
        1 => {
            let mut b = doc.as_bytes().to_vec();
            let i = rng.gen_range(0..=b.len());
            b.insert(i, pick(rng, BYTES));
            String::from_utf8_lossy(&b).into_owned()
        }
        2 => {
            // A torn file.
            let cut = rng.gen_range(0..doc.len());
            doc[..cut].to_string()
        }
        3 => {
            for i in (1..m.len()).rev() {
                m.swap(i, rng.gen_range(0..=i));
            }
            join(&m)
        }
        4 => {
            let unknown = [
                "\"zz\": [1, {\"a\": [\"b\"]}]",
                "\"yy\": null",
                "\"x.y\": {}",
            ];
            m.insert(rng.gen_range(0..=m.len()), pick(rng, &unknown).to_string());
            join(&m)
        }
        5 => {
            // A duplicate key, before or after the original, with the same
            // value or another kind of value.
            let i = rng.gen_range(0..m.len());
            let key = m[i].split(':').next().unwrap_or_default().to_string();
            let dup = if rng.gen_bool(0.5) {
                m[i].clone()
            } else {
                format!(
                    "{key}: {}",
                    pick(rng, &["[]", "\"dmig-plan/1\"", "[[0]]", "7"])
                )
            };
            m.insert(if rng.gen_bool(0.5) { i } else { i + 1 }, dup);
            join(&m)
        }
        6 => {
            m.remove(rng.gen_range(0..m.len()));
            join(&m)
        }
        7 => {
            let i = rng.gen_range(0..m.len());
            let key = m[i].split(':').next().unwrap_or_default().to_string();
            let deep = format!("{}{}", "[".repeat(600), "]".repeat(600));
            let values = [
                "[]", "{}", "null", "true", "false", "\"1\"", "-1", "[[0, 1]]", "[\"0\"]", "[1]",
                "0", "1.5", "1e2", "[[true]]", "[{}]", &deep,
            ];
            m[i] = format!("{key}: {}", pick(rng, &values));
            join(&m)
        }
        8 => {
            // An integer padded or lengthened to 15, 16 or 20 digits, given
            // leading zeros, or written as a float.
            let ints = integers(doc);
            if ints.is_empty() {
                return doc.to_string();
            }
            let (start, end) = pick(rng, &ints);
            let digits = &doc[start..end];
            let fill = pick(rng, &[15usize, 16, 20]).saturating_sub(digits.len());
            let int = match rng.gen_range(0..5) {
                0 => format!("{}{digits}", "0".repeat(fill)),
                1 => format!("{digits}{}", "9".repeat(fill)),
                2 => format!("00{digits}"),
                3 => format!("{digits}.0"),
                _ => format!("{digits}e0"),
            };
            format!("{}{int}{}", &doc[..start], &doc[end..])
        }
        9 => {
            // Other whitespace: a space swapped for it, or it inserted
            // after `[`, `,` or `:`.
            let ws = pick(rng, &["\t", "\n", "\r", " \t\r\n "]);
            let spots: Vec<usize> = body
                .bytes()
                .enumerate()
                .filter(|&(_, c)| matches!(c, b' ' | b'[' | b',' | b':'))
                .map(|(i, _)| i)
                .collect();
            if spots.is_empty() {
                return doc.to_string();
            }
            let i = pick(rng, &spots);
            if doc.as_bytes()[i] == b' ' {
                format!("{}{ws}{}", &doc[..i], &doc[i + 1..])
            } else {
                format!("{}{ws}{}", &doc[..=i], &doc[i + 1..])
            }
        }
        10 => {
            // A character of a string written as an escape.
            let chars = quoted(doc);
            if chars.is_empty() {
                return doc.to_string();
            }
            let i = pick(rng, &chars);
            let c = doc.as_bytes()[i];
            format!("{}\\u{:04x}{}", &doc[..i], c, &doc[i + 1..])
        }
        11 => {
            // A quoted bit pattern (a float of `config.json`) swapped for
            // one of a float the executor must not run with, or a benign
            // one.
            let words = bit_patterns(doc);
            if words.is_empty() {
                return doc.to_string();
            }
            let (start, end) = pick(rng, &words);
            let v = pick(
                rng,
                &[
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -0.0,
                    -1.0,
                    1e-310,
                    f64::MAX,
                    3.0,
                ],
            );
            format!("{}{}{}", &doc[..start], v.to_bits(), &doc[end..])
        }
        _ => {
            // A round or list emptied, or an element dropped from it.
            let spans: Vec<(usize, usize)> = body
                .bytes()
                .enumerate()
                .filter(|&(_, c)| c == b'[')
                .filter_map(|(i, _)| {
                    let close = body[i..].find(']')? + i;
                    (!body[i + 1..close].contains('[')).then_some((i, close))
                })
                .collect();
            if spans.is_empty() {
                return doc.to_string();
            }
            let (open, close) = pick(rng, &spans);
            let inner: Vec<&str> = doc[open + 1..close].split(',').collect();
            let kept = if rng.gen_bool(0.5) || inner.len() < 2 {
                String::new()
            } else {
                let drop = rng.gen_range(0..inner.len());
                let rest: Vec<&str> = (0..inner.len())
                    .filter(|&k| k != drop)
                    .map(|k| inner[k])
                    .collect();
                rest.join(",")
            };
            format!("{}{kept}{}", &doc[..=open], &doc[close..])
        }
    }
}

// --- the fuzz ---------------------------------------------------------------

/// The CI fault scenario's workspace, and the report of its uninterrupted
/// execution.
fn workspace(dir: &Path) -> (String, Vec<u8>) {
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = dir.join("fault.instance");
    std::fs::write(&ipath, instance).unwrap();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-faults.toml");
    let ws = dir.join("ws").to_string_lossy().into_owned();
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &ipath.to_string_lossy(),
        "--workspace",
        &ws,
        "--faults",
        faults,
        "--replan",
        "--threads",
        "1",
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    let report = std::fs::read(Path::new(&ws).join("report.json")).unwrap();
    reset(&ws);
    (ws, report)
}

/// Removes what `execute` wrote, so the next case starts from the plan.
fn reset(ws: &str) {
    for file in ["journal.jsonl", "report.json"] {
        std::fs::remove_file(Path::new(ws).join(file)).ok();
    }
}

#[test]
fn mutated_workspace_json_is_rejected_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("dmig-loaders-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (ws, reference) = workspace(&dir);
    let instance = std::fs::read_to_string(Path::new(&ws).join(INSTANCE)).unwrap();
    let problem = dmig_cli::instance::parse_instance(&instance).expect("the planned instance");
    let plan_text = std::fs::read_to_string(Path::new(&ws).join(PLAN)).unwrap();
    let planned = oracle_plan(&plan_text, &problem).expect("the planned schedule loads");

    let manifest_path = Path::new(&ws).join("manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let pin = format!("\"plan\": \"{}\"", fingerprint(&plan_text));
    assert!(manifest.contains(&pin), "{manifest}");

    let mut rng = StdRng::seed_from_u64(17);
    for (file, cases) in [(PLAN, 1000), ("config.json", 400), ("manifest.json", 400)] {
        let (mut accepted, mut rejected) = (0, 0);
        let path = Path::new(&ws).join(file);
        let original = std::fs::read_to_string(&path).unwrap();
        for _ in 0..cases {
            let mut text = mutate(&original, &mut rng);
            if rng.gen_range(0..4) == 0 {
                text = mutate(&text, &mut rng);
            }
            std::fs::write(&path, &text).unwrap();
            if file == PLAN {
                let repinned = format!("\"plan\": \"{}\"", fingerprint(&text));
                std::fs::write(&manifest_path, manifest.replace(&pin, &repinned)).unwrap();
            }
            let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
            assert!(
                code == 0 || code == 1,
                "{file}: exit {code} (a panic?) on\n{text}\n{out}"
            );
            if file == PLAN {
                match oracle_plan(&text, &problem) {
                    Err(want) => {
                        assert_eq!(out, format!("error: {want}\n"), "{file}:\n{text}");
                    }
                    Ok(rounds) => {
                        assert_eq!(code, 0, "{file}: the oracle accepts\n{text}\n{out}");
                        if rounds == planned {
                            let report = std::fs::read(Path::new(&ws).join("report.json")).unwrap();
                            assert!(report == reference, "{file}: another report from\n{text}");
                        }
                    }
                }
            }
            if code == 0 {
                accepted += 1;
            } else {
                rejected += 1;
                // A tampered fingerprint names both files, the pinned one
                // first.
                let named = out.starts_with(&format!("error: {file}: "))
                    || (file == "manifest.json"
                        && [INSTANCE, PLAN].iter().any(|pinned| {
                            out.starts_with(&format!(
                                "error: {pinned} does not match the manifest fingerprint"
                            ))
                        }));
                assert!(
                    named,
                    "{file}: the error does not name the file:\n{text}\n{out}"
                );
            }
            reset(&ws);
        }
        std::fs::write(&path, &original).unwrap();
        std::fs::write(&manifest_path, &manifest).unwrap();
        assert!(
            accepted >= cases / 10 && rejected >= cases / 4,
            "{file}: the mutations must exercise both verdicts: {accepted} accepted, {rejected} rejected"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
