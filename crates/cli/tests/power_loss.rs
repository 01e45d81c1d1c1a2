//! Power loss on the journal, simulated byte by byte.
//!
//! A commit writes every line held since the previous commit that wrote
//! (the event lines and checkpoint records of one round, or of every round
//! that finished while the previous `fdatasync` ran) with one `write(2)`
//! and then `fdatasync`s them. A power cut during a commit can leave the
//! file with any prefix of the commit's bytes followed, up to the commit's
//! length, by whatever the disk held: zeros after the file grew, or
//! arbitrary bytes. The journal before the commit is durable.
//!
//! The CI fault scenario's uninterrupted journal is cut inside four
//! commits, and the rest of each commit is filled once with zeros and once
//! with `0xFF`. `migrate resume` must then either finish with the
//! uninterrupted run's `report.json`, byte for byte, or exit 1 naming a
//! journal line. Two commits hold one record: the first follows the first
//! record, a delta whose base is the plan; the second follows the full
//! record a replan wrote. Two hold three records,
//! as a grouped commit does, and each crosses a replan's full record, so
//! the chain's base moves inside the commit. What a resume does depends on
//! which whole lines precede the cut and on the torn bytes after it, so
//! the cuts are every byte within two of a line's first byte or of its
//! newline, where that changes, and every 11th byte in between within a
//! one-record commit, every 37th within a three-record one: 1,784
//! resumes, where every byte would take 27,722. Every resume runs in this
//! process through `dmig_cli::run`; the file holds one test because the
//! journal sink is process-wide.

use std::path::{Path, PathBuf};

fn dmig(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
    let out = dmig_cli::run(&args);
    (out.code, out.stdout)
}

/// The byte offsets just past each checkpoint record line of `journal`.
fn record_ends(journal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut offset = 0;
    for line in journal.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.starts_with(b"{\"schema\": \"dmig-exec-ckpt/1\"") {
            ends.push(offset);
        }
    }
    ends
}

fn is_full(journal: &[u8], end: usize) -> bool {
    let start = journal[..end - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    !journal[start..].starts_with(b"{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": ")
}

#[test]
fn a_power_cut_in_any_commit_resumes_to_the_same_report_or_names_a_line() {
    let dir: PathBuf = std::env::temp_dir().join(format!("dmig-power-loss-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    std::fs::write(path("fault.instance"), instance).unwrap();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-faults.toml");
    let plan = |ws: &str| {
        let (code, out) = dmig(&[
            "migrate",
            "plan",
            &path("fault.instance"),
            "--workspace",
            &path(ws),
            "--faults",
            faults,
            "--replan",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{out}");
        path(ws)
    };
    let reference = plan("ws-ref");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &reference]);
    assert_eq!(code, 0, "{out}");
    let journal = std::fs::read(Path::new(&reference).join("journal.jsonl")).unwrap();
    let report = std::fs::read(Path::new(&reference).join("report.json")).unwrap();
    let ends = record_ends(&journal);
    let fulls: Vec<bool> = ends.iter().map(|&e| is_full(&journal, e)).collect();
    // Records 2 and 4 are the two replans' full records; 1, 3, 5 and 6
    // are deltas.
    assert_eq!(fulls, [false, true, false, true, false, false], "{ends:?}");

    let ws = plan("ws");
    let journal_path = Path::new(&ws).join("journal.jsonl");
    let report_path = Path::new(&ws).join("report.json");
    let (mut resumed, mut refused) = (0, 0);
    // `ends[a]..ends[b]` is a commit of records a + 2 ..= b + 1. After
    // record 1 the chain's base is the plan; after record 4 it is record
    // 4, a replan's full record. The three-record commits carry records
    // 2–4 and 4–6, so they cross records 2 and 4, the two full records.
    for (a, b, stride) in [(0, 1, 11), (3, 4, 11), (0, 3, 37), (2, 5, 37)] {
        let (from, to) = (ends[a], ends[b]);
        // A line's first byte, and the byte after its newline.
        let starts: Vec<usize> = std::iter::once(from)
            .chain((from..to).filter(|&i| journal[i] == b'\n').map(|i| i + 1))
            .collect();
        let near_a_boundary = |cut: usize| starts.iter().any(|&s| cut.abs_diff(s) <= 2);
        let cuts: Vec<usize> = (from..to)
            .filter(|&cut| near_a_boundary(cut) || (cut - from) % stride == 0)
            .collect();
        for fill in [0x00, 0xFF] {
            for &cut in &cuts {
                let mut cut_journal = journal[..cut].to_vec();
                cut_journal.resize(to, fill);
                std::fs::write(&journal_path, &cut_journal).unwrap();
                std::fs::remove_file(&report_path).ok();
                let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
                let case = format!(
                    "commit of records {}..={}, cut at {cut}, fill {fill:#04x}",
                    a + 2,
                    b + 1
                );
                match code {
                    0 => {
                        resumed += 1;
                        let got = std::fs::read(&report_path).unwrap();
                        assert!(got == report, "{case}: another report\n{out}");
                        let after = std::fs::read(&journal_path).unwrap();
                        assert!(
                            after.starts_with(&journal[..from])
                                && std::str::from_utf8(&after).is_ok(),
                            "{case}: the resumed journal lost its durable prefix or kept the fill"
                        );
                    }
                    1 => {
                        refused += 1;
                        assert!(
                            out.starts_with("error: migrate resume: journal.jsonl: ")
                                && out.contains("line "),
                            "{case}: the error names no journal line: {out}"
                        );
                    }
                    _ => panic!("{case}: exit {code}: {out}"),
                }
            }
        }
    }
    // A fill never holds a newline, so every cut leaves whole lines of the
    // uninterrupted journal before a torn tail, and resumes.
    assert_eq!(refused, 0);
    assert!(resumed >= 1500, "{resumed} cases");
    std::fs::remove_dir_all(&dir).ok();
}
