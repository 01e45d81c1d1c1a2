//! End-to-end crash-resume tests of `dmig migrate`: the workspace is
//! planned once, the executor is killed mid-run (both deterministically
//! via `--abort-after-checkpoint` and with a real `SIGKILL`), and the
//! resumed run must produce a `report.json` byte-identical to an
//! uninterrupted execution. Export/import round-trips and tamper
//! detection ride on the same workspaces.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn dmig(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dmig-migrate-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A faulty scenario exercising crash + degrade + flaky recovery.
const FAULTS: &str = "\
seed = 2026

[[crash]]
disk = 2
time = 0.5
replacement = 5

[[degrade]]
disk = 1
time = 0.25
factor = 0.4
recover_at = 8.0

[flaky]
probability = 0.1
";

/// Writes a seeded random instance (6 live disks + 1 spare would need 7;
/// uniform keeps it simple) and the fault plan into `scratch`, returning
/// their paths.
fn seed_inputs(scratch: &Scratch, edges: usize) -> (String, String) {
    let (code, instance) = dmig(&["generate", "uniform", "6", &edges.to_string(), "2", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("instance.dmig");
    std::fs::write(&ipath, instance).unwrap();
    let fpath = scratch.path("faults.toml");
    std::fs::write(&fpath, FAULTS).unwrap();
    (ipath, fpath)
}

fn plan(scratch: &Scratch, ws: &str, ipath: &str, fpath: &str) -> String {
    let dir = scratch.path(ws);
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        ipath,
        "--workspace",
        &dir,
        "--faults",
        fpath,
        "--replan",
        "--retry-max",
        "3",
        "--threads",
        "2",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("planned workspace"), "{out}");
    dir
}

fn read(dir: &str, name: &str) -> Vec<u8> {
    std::fs::read(Path::new(dir).join(name)).unwrap_or_else(|e| panic!("{dir}/{name}: {e}"))
}

fn count_checkpoints(dir: &str) -> usize {
    let journal = String::from_utf8_lossy(&read(dir, "journal.jsonl")).into_owned();
    journal
        .lines()
        .filter(|l| l.starts_with("{\"schema\": \"dmig-exec-ckpt/1\""))
        .count()
}

#[test]
fn deterministic_abort_then_resume_is_byte_identical() {
    let scratch = Scratch::new("abort-resume");
    let (ipath, fpath) = seed_inputs(&scratch, 16);

    // Reference: the same plan executed uninterrupted.
    let ref_ws = plan(&scratch, "ws-ref", &ipath, &fpath);
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ref_ws]);
    assert_eq!(code, 0, "{out}");
    let reference = read(&ref_ws, "report.json");

    // Victim: killed after the second checkpoint, then after two more,
    // then allowed to finish. Chained kills must compose.
    let ws = plan(&scratch, "ws-victim", &ipath, &fpath);
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0, "the abort must look like a crash, not a success");
    assert!(
        !Path::new(&ws).join("report.json").exists(),
        "a killed run must not leave a report"
    );
    assert!(count_checkpoints(&ws) >= 2);

    let (code, _) = dmig(&[
        "migrate",
        "resume",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);

    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("resumed from the round-"), "{out}");
    assert_eq!(
        read(&ws, "report.json"),
        reference,
        "resumed report diverged from the uninterrupted run"
    );

    // The journal tells the whole story: resume markers are on record.
    let journal = String::from_utf8_lossy(&read(&ws, "journal.jsonl")).into_owned();
    assert_eq!(
        journal.matches("\"schema\": \"dmig-resume/1\"").count(),
        2,
        "two resumes, two markers"
    );

    // Guardrails: a finished workspace refuses both verbs.
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 1);
    assert!(out.contains("report.json"), "{out}");
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 1);
    assert!(out.contains("complete"), "{out}");
}

/// A kill mid-write leaves an unterminated final line. Resume cuts it off
/// before appending, so its marker starts a line of its own, every
/// journal line parses, and the report is still byte-identical.
#[test]
fn resume_cuts_a_torn_tail_before_appending() {
    let scratch = Scratch::new("torn-tail");
    let (ipath, fpath) = seed_inputs(&scratch, 16);
    let ref_ws = plan(&scratch, "ws-ref", &ipath, &fpath);
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ref_ws]);
    assert_eq!(code, 0, "{out}");
    let reference = read(&ref_ws, "report.json");

    let ws = plan(&scratch, "ws-torn", &ipath, &fpath);
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(Path::new(&ws).join("journal.jsonl"))
        .unwrap();
    journal
        .write_all(br#"{"schema":"dmig-events/1","seq":99,"kind":"item_deliv"#)
        .unwrap();
    drop(journal);

    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(read(&ws, "report.json"), reference);
    let text = String::from_utf8(read(&ws, "journal.jsonl")).unwrap();
    for (i, line) in text.lines().enumerate() {
        if let Err(e) = dmig_obs::Value::parse(line) {
            panic!("journal line {} does not parse: {e}: {line:.100}", i + 1);
        }
    }
    let markers = text
        .lines()
        .filter(|l| l.starts_with("{\"schema\": \"dmig-resume/1\""))
        .count();
    assert_eq!(markers, 1, "the marker must start its own line");
    assert_eq!(text.matches("dmig-resume/1").count(), 1);
    assert!(!text.contains("item_deliv\""), "the torn tail must be gone");
}

/// A power loss can leave any bytes after the journal's last newline, not
/// only a torn line: here the rest of the interrupted commit reads back as
/// `0xFF`, which is not UTF-8. Resume skips it as it skips a torn line,
/// cuts it off, and finishes with the reference report.
#[test]
fn resume_skips_a_torn_tail_that_is_not_text() {
    let scratch = Scratch::new("torn-binary");
    let ref_ws = plan_ci_scenario(&scratch, "ws-ref");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ref_ws]);
    assert_eq!(code, 0, "{out}");
    let ws = plan_ci_scenario(&scratch, "ws");
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);
    let path = Path::new(&ws).join("journal.jsonl");
    let durable = std::fs::read(&path).unwrap();
    let mut torn = durable.clone();
    torn.extend_from_slice(b"{\"schema\": \"dmig-ev");
    torn.extend_from_slice(&[0xFF; 300]);
    std::fs::write(&path, &torn).unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(read(&ws, "report.json"), read(&ref_ws, "report.json"));
    let journal = read(&ws, "journal.jsonl");
    assert!(journal.starts_with(&durable) && std::str::from_utf8(&journal).is_ok());

    // A durable line that is not UTF-8 is an error naming it.
    let ws = plan_ci_scenario(&scratch, "ws-bad-line");
    let mut bad = durable.clone();
    let second = bad.iter().position(|&b| b == b'\n').unwrap() + 1;
    bad[second + 5] = 0xFF;
    std::fs::write(Path::new(&ws).join("journal.jsonl"), &bad).unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 1, "{out}");
    assert_eq!(
        out,
        "error: migrate resume: journal.jsonl: line 2 is not UTF-8\n"
    );
    assert_eq!(read(&ws, "journal.jsonl"), bad);

    // A journal that is empty, or holds only a torn line, has no record
    // to resume from.
    for journal in [&b""[..], &[0xFF; 64][..], &torn[durable.len()..]] {
        std::fs::write(Path::new(&ws).join("journal.jsonl"), journal).unwrap();
        let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
        assert_eq!(code, 1, "{out}");
        assert_eq!(
            out,
            "error: migrate resume: journal.jsonl holds no checkpoint record\n"
        );
    }
}

/// `plan.json` is pinned by a fingerprint in `manifest.json`, as the
/// instance is: an edit after `plan` makes `execute` and `resume` exit 1
/// naming the file, before either writes to the journal. A resumed chain
/// can start at the plan, so without the pin an edit between sessions
/// would change the resumed run.
#[test]
fn an_edited_plan_is_refused_by_execute_and_resume() {
    let scratch = Scratch::new("edited-plan");
    let ws = plan_ci_scenario(&scratch, "ws");
    let path = Path::new(&ws).join("plan.json");
    let plan = std::fs::read_to_string(&path).unwrap();
    // Two items of the first round swap places: still a valid schedule.
    let rounds = &plan[plan.find("[[").unwrap() + 2..];
    let first = &rounds[..rounds.find(']').unwrap()];
    let ids: Vec<&str> = first.split(", ").collect();
    assert!(ids.len() >= 2, "{plan}");
    let swapped = format!("{}, {}", ids[1], ids[0]);
    let edited = plan.replacen(&format!("{}, {}", ids[0], ids[1]), &swapped, 1);
    assert_ne!(edited, plan);
    let refused = |verb: &str| {
        let (code, out) = dmig(&["migrate", verb, "--workspace", &ws]);
        assert_eq!(code, 1, "{verb}: {out}");
        assert!(
            out.starts_with("error: plan.json does not match the manifest fingerprint"),
            "{verb}: {out}"
        );
    };
    std::fs::write(&path, &edited).unwrap();
    refused("execute");
    assert!(!Path::new(&ws).join("journal.jsonl").exists());
    std::fs::write(&path, &plan).unwrap();
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "1",
    ]);
    assert_ne!(code, 0);
    let journal = read(&ws, "journal.jsonl");
    std::fs::write(&path, &edited).unwrap();
    refused("resume");
    assert_eq!(read(&ws, "journal.jsonl"), journal);
    std::fs::write(&path, &plan).unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
}

/// A manifest written before `plan.json` was pinned has no `plan` member.
/// Such a workspace still loads: its journal, written by a build that
/// opened every session with a full record, resumes from that record.
/// But a session never starts on an unpinned plan, and a chain that starts
/// at one is not resumed.
#[test]
fn a_manifest_without_the_plan_pin_resumes_only_from_a_full_record() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scratch = Scratch::new("unpinned");
    let unpin = |ws: &str| {
        let path = Path::new(ws).join("manifest.json");
        let manifest = std::fs::read_to_string(&path).unwrap();
        let at = manifest.find(", \"plan\": ").expect("a pinned manifest");
        let end = at + 2 + manifest[at + 2..].find(", ").unwrap();
        std::fs::write(&path, format!("{}{}", &manifest[..at], &manifest[end..])).unwrap();
    };
    let missing = "error: manifest.json: missing `plan`: plan.json is not pinned";

    let ws = plan_inherited(&scratch, "ws-older");
    unpin(&ws);
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 1, "{out}");
    assert!(out.starts_with(missing), "{out}");
    assert!(!Path::new(&ws).join("journal.jsonl").exists());
    std::fs::copy(
        golden.join("inherited/journal.jsonl"),
        Path::new(&ws).join("journal.jsonl"),
    )
    .unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    for (written, file) in [
        ("journal.jsonl", "resumed.jsonl"),
        ("report.json", "report.json"),
    ] {
        assert!(
            read(&ws, written) == std::fs::read(golden.join("inherited").join(file)).unwrap(),
            "{ws}/{written} differs from tests/golden/inherited/{file}"
        );
    }

    let ws = plan_ci_scenario(&scratch, "ws-from-plan");
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "1",
    ]);
    assert_ne!(code, 0);
    unpin(&ws);
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 1, "{out}");
    assert!(out.starts_with(missing), "{out}");
}

/// A complete record of the chain that does not parse, or does not chain
/// onto the one before it, stops resume with exit 1 naming its journal
/// line, and leaves the journal untouched.
#[test]
fn resume_rejects_a_broken_chain_naming_the_journal_line() {
    let scratch = Scratch::new("broken-chain");
    let (ipath, fpath) = seed_inputs(&scratch, 16);
    let ws = plan(&scratch, "ws", &ipath, &fpath);
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "3",
    ]);
    assert_ne!(code, 0);
    let path = Path::new(&ws).join("journal.jsonl");
    let text = String::from_utf8(read(&ws, "journal.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The first delta of the chain resume reads: the last full record's
    // first, or the plan's when no replan happened.
    let at = lines
        .iter()
        .rposition(|l| l.starts_with("{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": 1,"))
        .expect("the journal holds a delta");
    for (broken, needle) in [
        (
            lines[at].replacen("\"delta\": 1,", "\"delta\": 7,", 1),
            "delta 7 does not chain",
        ),
        (lines[at][..lines[at].len() / 2].to_string(), "unparseable"),
    ] {
        let mut mangled = lines.clone();
        mangled[at] = &broken;
        let journal = mangled.join("\n") + "\n";
        std::fs::write(&path, &journal).unwrap();
        let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains(&format!(
                "journal.jsonl: bad checkpoint: line {}: {needle}",
                at + 1
            )),
            "{out}"
        );
        assert_eq!(read(&ws, "journal.jsonl"), journal.as_bytes());
    }
}

#[test]
fn sigkill_mid_execute_then_resume_is_byte_identical() {
    let scratch = Scratch::new("sigkill");
    let (ipath, fpath) = seed_inputs(&scratch, 60);

    let ref_ws = plan(&scratch, "ws-ref", &ipath, &fpath);
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ref_ws]);
    assert_eq!(code, 0, "{out}");
    let reference = read(&ref_ws, "report.json");

    let ws = plan(&scratch, "ws-kill", &ipath, &fpath);
    let journal = Path::new(&ws).join("journal.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(["migrate", "execute", "--workspace", &ws])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawns");
    // Kill as soon as the journal shows a durable checkpoint. The run may
    // legitimately win the race and finish first — then the kill is a
    // no-op and the byte-identity assertion still has to hold.
    for _ in 0..2000 {
        if journal.exists() && !read(&ws, "journal.jsonl").is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().ok();
    let status = child.wait().expect("waits");

    if !status.success() {
        // The kill landed mid-run: resume must finish the job. (Possibly
        // from the very first checkpoint, which is a full re-run.)
        assert!(
            !Path::new(&ws).join("report.json").exists(),
            "SIGKILL must not leave a report"
        );
        let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
        assert_eq!(code, 0, "{out}");
    }
    assert_eq!(
        read(&ws, "report.json"),
        reference,
        "post-SIGKILL report diverged from the uninterrupted run"
    );

    // Item conservation, straight from the report document.
    let report = String::from_utf8_lossy(&read(&ws, "report.json")).into_owned();
    let fates: usize = [
        "\"delivered\"",
        "\"delivered-redirected\"",
        "\"lost-dead-disk\"",
        "\"lost-retries\"",
    ]
    .iter()
    .map(|code| report.matches(code).count())
    .sum();
    assert!(fates >= 60, "every item carries a fate: {report}");
}

#[test]
fn export_import_round_trips_and_detects_tampering() {
    let scratch = Scratch::new("export");
    let (ipath, fpath) = seed_inputs(&scratch, 12);
    let ws = plan(&scratch, "ws-exp", &ipath, &fpath);
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");

    let archive = scratch.path("ws.dmig-archive");
    let (code, out) = dmig(&["migrate", "export", "--workspace", &ws, "--out", &archive]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("exported"), "{out}");

    let dst = scratch.path("ws-imported");
    let (code, out) = dmig(&["migrate", "import", &archive, "--workspace", &dst]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("checksums verified"), "{out}");
    for name in [
        "manifest.json",
        "instance.txt",
        "plan.json",
        "faults.toml",
        "config.json",
        "journal.jsonl",
        "report.json",
        "checksums.sha256",
    ] {
        assert_eq!(
            read(&ws, name),
            read(&dst, name),
            "{name} changed in transit"
        );
    }

    // Flip one byte inside the plan.json payload: import must refuse and
    // point at the manifest line that promised the digest.
    let mut bytes = std::fs::read(&archive).unwrap();
    let needle = b"dmig-plan/1";
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("plan schema tag in archive");
    bytes[at] ^= 0x20;
    let tampered = scratch.path("tampered.dmig-archive");
    std::fs::write(&tampered, &bytes).unwrap();
    let dst2 = scratch.path("ws-tampered");
    let (code, out) = dmig(&["migrate", "import", &tampered, "--workspace", &dst2]);
    assert_eq!(code, 1);
    assert!(out.contains("checksums.sha256:"), "line-numbered: {out}");
    assert!(out.contains("plan.json"), "{out}");
    assert!(out.contains("mismatch"), "{out}");
    assert!(
        !Path::new(&dst2).join("manifest.json").exists(),
        "a failed import must not materialize a workspace"
    );

    // A second `report.json` record with forged bytes appended: checksums
    // cover the first, and writing every record would let the second win.
    let mut forged = std::fs::read(&archive).unwrap();
    let fake = b"{\"delivered\": 0}\n";
    forged.extend_from_slice(format!("file report.json {}\n", fake.len()).as_bytes());
    forged.extend_from_slice(fake);
    forged.push(b'\n');
    let forged_path = scratch.path("forged.dmig-archive");
    std::fs::write(&forged_path, &forged).unwrap();
    let dst3 = scratch.path("ws-forged");
    let (code, out) = dmig(&["migrate", "import", &forged_path, "--workspace", &dst3]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("`report.json` is listed twice"), "{out}");
    assert!(!Path::new(&dst3).exists(), "{out}");
}

/// An archive whose checksums verify but that lacks a file the workspace
/// needs fails to import without leaving a workspace behind: the failed
/// import takes back what it wrote, and a good archive then imports into
/// the same directory.
#[test]
fn a_failed_import_leaves_the_directory_free_for_the_next() {
    let scratch = Scratch::new("import-rollback");
    let good = plan_ci_scenario(&scratch, "ws-good");
    let broken = plan_ci_scenario(&scratch, "ws-broken");
    std::fs::remove_file(Path::new(&broken).join("faults.toml")).unwrap();
    let [good_archive, broken_archive] =
        ["good.archive", "broken.archive"].map(|a| scratch.path(a));
    for (ws, archive) in [(&good, &good_archive), (&broken, &broken_archive)] {
        let (code, out) = dmig(&["migrate", "export", "--workspace", ws, "--out", archive]);
        assert_eq!(code, 0, "{out}");
    }

    let dst = scratch.path("ws-imported");
    let (code, out) = dmig(&["migrate", "import", &broken_archive, "--workspace", &dst]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("faults.toml"), "{out}");
    assert!(
        !Path::new(&dst).join("manifest.json").exists(),
        "a failed import must not leave a workspace"
    );
    let (code, out) = dmig(&["migrate", "import", &good_archive, "--workspace", &dst]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("checksums verified"), "{out}");
    assert_eq!(read(&good, "plan.json"), read(&dst, "plan.json"));
}

#[test]
fn fault_plans_are_checked_against_the_instance_with_line_numbers() {
    let scratch = Scratch::new("fault-check");
    let (ipath, _) = seed_inputs(&scratch, 8);
    let bad = scratch.path("bad-faults.toml");
    std::fs::write(&bad, "seed = 1\n\n[[crash]]\ndisk = 99\ntime = 1.0\n").unwrap();

    // Both entry points route through the checked parser.
    let ws = scratch.path("ws-bad");
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &ipath,
        "--workspace",
        &ws,
        "--faults",
        &bad,
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("line 3"), "{out}");
    assert!(out.contains("out of range"), "{out}");

    let (code, out) = dmig(&["simulate", &ipath, "--faults", &bad]);
    assert_eq!(code, 1);
    assert!(out.contains("line 3"), "{out}");
    assert!(out.contains("out of range"), "{out}");
}

#[test]
fn crash_safe_outputs_leave_no_temp_files() {
    let scratch = Scratch::new("atomic-outs");
    let (ipath, fpath) = seed_inputs(&scratch, 10);
    let report = scratch.path("report.json");
    let metrics = scratch.path("metrics.json");
    let events = scratch.path("events.jsonl");
    let (code, out) = dmig(&[
        "simulate",
        &ipath,
        "--faults",
        &fpath,
        "--replan",
        "--report-out",
        &report,
        "--metrics-out",
        &metrics,
        "--events-out",
        &events,
    ]);
    assert_eq!(code, 0, "{out}");
    for path in [&report, &metrics, &events] {
        assert!(Path::new(path).exists(), "{path} missing");
    }
    let leftovers: Vec<String> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

#[test]
fn bad_bandwidths_exit_1_and_plan_writes_no_workspace() {
    let scratch = Scratch::new("bad-bandwidths");
    let (code, instance) = dmig(&["generate", "k3", "3", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("k3.dmig");
    std::fs::write(&ipath, instance).unwrap();
    let ws = scratch.path("ws-bad");
    for (bad, needle) in [
        ("0,1,1", "disk 0 bandwidth 0 must be finite and > 0"),
        ("1,-1,1", "disk 1 bandwidth -1 must be finite and > 0"),
        ("1,1,nan", "disk 2 bandwidth NaN must be finite and > 0"),
        ("inf,1,1", "disk 0 bandwidth inf must be finite and > 0"),
        ("1,x,1", "disk 1 bandwidth `x` is not a number"),
        ("1,1", "2 bandwidths for a 3-disk instance"),
        ("1,1,1,1", "4 bandwidths for a 3-disk instance"),
    ] {
        for args in [
            vec!["simulate", &ipath, "--bandwidths", bad],
            vec!["obs", "explain", &ipath, "--bandwidths", bad],
            vec![
                "migrate",
                "plan",
                &ipath,
                "--workspace",
                &ws,
                "--bandwidths",
                bad,
            ],
        ] {
            let (code, out) = dmig(&args);
            assert_eq!(code, 1, "{args:?}: {out}");
            assert!(
                out.contains(&format!("bad --bandwidths: {needle}")),
                "{args:?}: {out}"
            );
        }
        assert!(!Path::new(&ws).exists(), "{bad}: migrate plan wrote {ws}");
    }
}

#[test]
fn tampered_config_bandwidth_is_an_error_not_a_panic() {
    let scratch = Scratch::new("tampered-config");
    let (ipath, fpath) = seed_inputs(&scratch, 8);
    let ws = plan(&scratch, "ws", &ipath, &fpath);
    let config = Path::new(&ws).join("config.json");
    let text = std::fs::read_to_string(&config).unwrap();
    // Disk 0's unit bandwidth becomes the bit pattern of 0.0.
    let unit = format!("\"{}\"", 1.0f64.to_bits());
    assert!(text.contains(&unit), "{text}");
    std::fs::write(&config, text.replacen(&unit, "\"0\"", 1)).unwrap();
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("config.json: disk 0 bandwidth 0 must be finite and > 0"),
        "{out}"
    );
}

/// Replaces the value of member `key` of the one-line JSON object `doc`.
fn set_member(doc: &str, key: &str, value: &str) -> String {
    let at = doc.find(&format!("\"{key}\": ")).expect("the member") + key.len() + 4;
    let end = at + doc[at..].find([',', '}']).expect("a scalar member");
    format!("{}{value}{}", &doc[..at], &doc[end..])
}

/// `replan` is `true` or `false`, the only values `migrate plan` writes;
/// anything else used to read as `false` and quietly turn replanning off,
/// which on this scenario loses items that replanning would save. The
/// executor constants earlier builds also stored are not read, so not even
/// a NaN backoff there reaches the executor.
#[test]
fn tampered_config_replan_is_an_error() {
    let scratch = Scratch::new("tampered-replan");
    let ws = plan_ci_scenario(&scratch, "ws");
    let config = Path::new(&ws).join("config.json");
    let text = std::fs::read_to_string(&config).unwrap();
    assert!(text.contains("\"replan\": true"), "{text}");
    for bad in ["\"yes\"", "1", "0", "null", "\"true\"", "[true]"] {
        let bad = set_member(&text, "replan", bad);
        std::fs::write(&config, &bad).unwrap();
        let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
        assert_eq!(code, 1, "{bad}: {out}");
        assert_eq!(
            out, "error: config.json: `replan` is not a boolean\n",
            "{bad}"
        );
        assert!(!Path::new(&ws).join("journal.jsonl").exists(), "{bad}");
    }
    let nan = format!("\"{}\"", f64::NAN.to_bits());
    let older = format!(", \"backoff_base\": {nan}, \"stall_factor\": {nan}, \"bandwidths\"");
    std::fs::write(&config, text.replacen(", \"bandwidths\"", &older, 1)).unwrap();
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 lost of 22"), "{out}");
    assert!(out.contains("recovery: 2 replans"), "{out}");
}

/// Earlier builds offered `parallel`, `ParallelSolver` around `auto`, as a
/// solver name, so a manifest may carry it: such a workspace executes,
/// replans and resumes as `auto`.
#[test]
fn a_manifest_naming_the_parallel_solver_runs_as_auto() {
    let scratch = Scratch::new("parallel-manifest");
    let auto = plan_ci_scenario(&scratch, "ws-auto");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &auto]);
    assert_eq!(code, 0, "{out}");
    let older = plan_ci_scenario(&scratch, "ws-parallel");
    let manifest = Path::new(&older).join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, set_member(&text, "solver", "\"parallel\"")).unwrap();
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &older,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0, "the abort must look like a crash");
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &older]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("recovery: 2 replans"), "{out}");
    assert!(read(&older, "report.json") == read(&auto, "report.json"));
}

/// The CI fault scenario, planned at one thread: `generate rebalance 6 24
/// 2` under `ci-faults.toml` with replanning. Its journal is the same
/// at every thread count and holds crash, replan, retry and delivery
/// events, full records and deltas.
fn plan_ci_scenario(scratch: &Scratch, ws: &str) -> String {
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("fault.instance");
    std::fs::write(&ipath, instance).unwrap();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-faults.toml");
    let dir = scratch.path(ws);
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &ipath,
        "--workspace",
        &dir,
        "--faults",
        faults,
        "--replan",
        "--threads",
        "1",
    ]);
    assert_eq!(code, 0, "{out}");
    dir
}

/// The CI fault scenario as an earlier build planned it: its `plan.json`,
/// `manifest.json` and `config.json` from `tests/golden/inherited/`, where
/// the journal that build's aborted `execute` left was written against
/// them. That `config.json` also holds the executor constants earlier
/// builds stored, which load but are not read.
fn plan_inherited(scratch: &Scratch, ws: &str) -> String {
    let dir = plan_ci_scenario(scratch, ws);
    let inherited = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inherited");
    for file in ["plan.json", "manifest.json", "config.json"] {
        std::fs::copy(inherited.join(file), Path::new(&dir).join(file)).unwrap();
    }
    dir
}

/// The workspace bytes are pinned: `tests/golden/` holds the four files
/// `plan` writes (`instance.txt` as written before the plan-time writers
/// were rewritten), and the output of an uninterrupted `execute`, and of
/// an `execute` aborted after its second checkpoint followed by `resume`
/// (the reports as written before the journal codec was rewritten).
/// `golden/inherited/` holds the same scenario as an earlier build, with
/// an earlier even solver, planned it (`plan.json`, `manifest.json`, and
/// `config.json` with the four executor constants earlier builds stored)
/// and the journal that build's aborted `execute` left when every session
/// opened with a full record (`journal.jsonl`). This build resumes that
/// journal, continuing the chain of its last full record, to
/// `resumed.jsonl` and `report.json` there.
#[test]
fn workspace_bytes_match_the_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scratch = Scratch::new("golden");
    let ws = plan_ci_scenario(&scratch, "ws-execute");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    let crashed = plan_ci_scenario(&scratch, "ws-resume");
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &crashed,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0, "the abort must look like a crash");
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &crashed]);
    assert_eq!(code, 0, "{out}");
    for (dir, run) in [(&ws, "execute"), (&crashed, "resume")] {
        for file in ["instance.txt", "plan.json", "config.json", "manifest.json"] {
            let want = std::fs::read(golden.join("plan").join(file)).unwrap();
            assert!(
                read(dir, file) == want,
                "{dir}/{file} differs from tests/golden/plan/{file}"
            );
        }
        for file in ["journal.jsonl", "report.json"] {
            let want = std::fs::read(golden.join(run).join(file)).unwrap();
            assert!(
                read(dir, file) == want,
                "{dir}/{file} differs from tests/golden/{run}/{file}"
            );
        }
    }

    // The journal an earlier build's aborted `execute` left, resumed by
    // this build on the plan it was written against: the resume appends to
    // it, writes the pinned bytes, and reports what this build's
    // uninterrupted `execute` of that plan reports.
    let older = std::fs::read(golden.join("inherited/journal.jsonl")).unwrap();
    let resumed = std::fs::read(golden.join("inherited/resumed.jsonl")).unwrap();
    let report = std::fs::read(golden.join("inherited/report.json")).unwrap();
    assert!(resumed.starts_with(&older));
    let inherited = plan_inherited(&scratch, "ws-inherited");
    std::fs::write(Path::new(&inherited).join("journal.jsonl"), &older).unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &inherited]);
    assert_eq!(code, 0, "{out}");
    assert!(
        read(&inherited, "journal.jsonl") == resumed,
        "the earlier build's journal, resumed, differs from tests/golden/inherited/resumed.jsonl"
    );
    assert!(
        read(&inherited, "report.json") == report,
        "the earlier build's journal, resumed, differs from tests/golden/inherited/report.json"
    );
    let uninterrupted = plan_inherited(&scratch, "ws-inherited-execute");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &uninterrupted]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(read(&uninterrupted, "report.json"), report);
}

/// The records of a journal that are full records, not deltas.
fn full_records(journal: &[u8]) -> usize {
    journal
        .split(|&b| b == b'\n')
        .filter(|l| {
            l.starts_with(b"{\"schema\": \"dmig-exec-ckpt/1\"")
                && !l.starts_with(b"{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": ")
        })
        .count()
}

/// The chain rule on disk: a journal holds one full record per replan and
/// no other, across sessions. A fault-free run's chain starts at the plan,
/// so its journal holds no full record, and it resumes from the plan.
#[test]
fn journals_hold_one_full_record_per_replan() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let report = String::from_utf8(std::fs::read(golden.join("execute/report.json")).unwrap())
        .expect("the report is text");
    assert!(report.contains("\"replans\": 2,"), "{report}");
    for run in ["execute", "resume"] {
        let journal = std::fs::read(golden.join(run).join("journal.jsonl")).unwrap();
        assert_eq!(
            full_records(&journal),
            2,
            "tests/golden/{run}/journal.jsonl"
        );
    }

    let scratch = Scratch::new("fault-free");
    let (code, instance) = dmig(&["generate", "uniform", "6", "24", "2", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("instance.dmig");
    std::fs::write(&ipath, instance).unwrap();
    let plan_at = |ws: &str| {
        let dir = scratch.path(ws);
        let (code, out) = dmig(&["migrate", "plan", &ipath, "--workspace", &dir]);
        assert_eq!(code, 0, "{out}");
        dir
    };
    let reference = plan_at("ws-ref");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &reference]);
    assert_eq!(code, 0, "{out}");
    assert!(count_checkpoints(&reference) >= 4, "{out}");
    assert_eq!(full_records(&read(&reference, "journal.jsonl")), 0);
    let ws = plan_at("ws");
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);
    let (code, _) = dmig(&[
        "migrate",
        "resume",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "1",
    ]);
    assert_ne!(code, 0);
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(read(&ws, "report.json"), read(&reference, "report.json"));
    assert_eq!(full_records(&read(&ws, "journal.jsonl")), 0);
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

/// An abort after record N, at every N, leaves exactly the uninterrupted
/// journal through its Nth record: nothing of a later round reaches the
/// file before record N is durable. The same holds for a resume's first
/// record, which is committed together with its marker.
#[test]
fn every_abort_point_leaves_a_record_terminated_prefix() {
    let scratch = Scratch::new("abort-points");
    let ws = plan_ci_scenario(&scratch, "ws-execute");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    let journal = read(&ws, "journal.jsonl");
    let ends = record_ends(&journal);
    assert_eq!(ends.len(), 6, "the CI scenario journals 6 records");
    for (n, &end) in (1..).zip(&ends) {
        let crashed = plan_ci_scenario(&scratch, &format!("ws-abort-{n}"));
        let (code, _) = dmig(&[
            "migrate",
            "execute",
            "--workspace",
            &crashed,
            "--abort-after-checkpoint",
            &n.to_string(),
        ]);
        assert_ne!(code, 0, "the abort after record {n} must look like a crash");
        assert!(
            read(&crashed, "journal.jsonl") == journal[..end],
            "the abort after record {n} left more or less than records 1..={n}"
        );
    }

    let crashed = scratch.path("ws-abort-2");
    let (code, _) = dmig(&[
        "migrate",
        "resume",
        "--workspace",
        &crashed,
        "--abort-after-checkpoint",
        "1",
    ]);
    assert_ne!(code, 0, "the resume's abort must look like a crash");
    let golden = std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/resume/journal.jsonl"),
    )
    .unwrap();
    let first_resumed = record_ends(&golden)[2];
    assert!(
        read(&crashed, "journal.jsonl") == golden[..first_resumed],
        "the resume's abort after its first record left more or less than it"
    );
}

/// A step that fails after record N still meets the abort point first:
/// `--abort-after-checkpoint N` dies with the journal ending on record N,
/// as it does when the step succeeds. Here the first step fails: once a
/// degrade cuts disk 0's capacity of 2 to 1, the even-capacity solver
/// cannot replan the residual.
#[test]
fn a_failing_step_still_aborts_after_the_record() {
    let scratch = Scratch::new("abort-step-error");
    let (code, instance) = dmig(&["generate", "rebalance", "6", "24", "2"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("even.dmig");
    std::fs::write(&ipath, instance).unwrap();
    let fpath = scratch.path("degrade.toml");
    std::fs::write(
        &fpath,
        "seed = 1\n\n[[degrade]]\ndisk = 0\ntime = 0.25\nfactor = 0.4\n",
    )
    .unwrap();
    let plan_even = |ws: &str| {
        let dir = scratch.path(ws);
        let (code, out) = dmig(&[
            "migrate",
            "plan",
            &ipath,
            "--workspace",
            &dir,
            "--faults",
            &fpath,
            "--replan",
            "--solver",
            "even-optimal",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "{out}");
        dir
    };
    let failing = plan_even("ws-fail");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &failing]);
    assert_eq!(code, 1, "the replan after round 0 must fail: {out}");
    let journal = read(&failing, "journal.jsonl");
    let first = record_ends(&journal)[0];
    assert!(
        journal.len() > first,
        "the failed run writes round 0's events after record 1"
    );

    let crashed = plan_even("ws-abort");
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &crashed,
        "--abort-after-checkpoint",
        "1",
    ]);
    assert!(
        code != 0 && code != 1,
        "the abort must look like a crash, not a step error (exit {code})"
    );
    assert!(
        read(&crashed, "journal.jsonl") == journal[..first],
        "the abort after record 1 left more or less than record 1"
    );
}

/// Planning into a directory that already holds a workspace is refused
/// before the solver runs: the refusal, not a solver error, is the answer.
#[test]
fn plan_into_an_existing_workspace_is_refused_before_solving() {
    let scratch = Scratch::new("replan-existing");
    let (code, instance) = dmig(&["generate", "uniform", "6", "12", "3", "3"]);
    assert_eq!(code, 0, "{instance}");
    let ipath = scratch.path("odd.dmig");
    std::fs::write(&ipath, instance).unwrap();
    let ws = scratch.path("ws");
    let (code, out) = dmig(&["migrate", "plan", &ipath, "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    let manifest = read(&ws, "manifest.json");
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &ipath,
        "--workspace",
        &ws,
        "--solver",
        "even-optimal",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("already holds a workspace"), "{out}");
    assert_eq!(read(&ws, "manifest.json"), manifest);
}

/// An instance with no disks plans into a workspace that executes: its
/// `instance.txt` carries no `caps` line, which would need a value.
#[test]
fn an_empty_instance_plans_and_executes() {
    let scratch = Scratch::new("empty");
    let ipath = scratch.path("empty.dmig");
    std::fs::write(&ipath, "nodes 0\n").unwrap();
    let ws = scratch.path("ws");
    let (code, out) = dmig(&["migrate", "plan", &ipath, "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(read(&ws, "instance.txt"), b"nodes 0\n");
    let (code, out) = dmig(&["migrate", "execute", "--workspace", &ws]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(count_checkpoints(&ws), 1);
    assert!(Path::new(&ws).join("report.json").exists());
}

/// A record nested deeper than the JSON reader allows is a line-numbered
/// error, not a stack overflow.
#[test]
fn deeply_nested_checkpoint_is_a_line_numbered_error() {
    let scratch = Scratch::new("deep");
    let (ipath, fpath) = seed_inputs(&scratch, 8);
    let ws = plan(&scratch, "ws", &ipath, &fpath);
    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);
    let journal = Path::new(&ws).join("journal.jsonl");
    let lines = std::fs::read_to_string(&journal).unwrap().lines().count();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    let deep = "[".repeat(200_000);
    writeln!(f, "{{\"schema\": \"dmig-exec-ckpt/1\", \"x\": {deep}").unwrap();
    let (code, out) = dmig(&["migrate", "resume", "--workspace", &ws]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains(&format!("line {}: unparseable checkpoint", lines + 1)),
        "{out}"
    );
}

/// The span recorder, on only under `--metrics-out`, observes and never
/// steers: `execute`, and an aborted `execute` then `resume`, write the
/// same journal, report and stdout with the flag and without it.
#[test]
fn metrics_out_changes_no_session_output() {
    let scratch = Scratch::new("metrics-identity");
    let metrics = scratch.path("metrics.json");
    let mut outputs = Vec::new();
    for flags in [&[][..], &["--metrics-out", &metrics][..]] {
        let tag = flags.len();
        let run = |verb: &str, ws: &str, abort: &[&str]| {
            let mut args = vec!["migrate", verb, "--workspace", ws];
            args.extend(abort.iter().chain(flags));
            let (code, out) = dmig(&args);
            (code, out.replace(ws, "WS").into_bytes())
        };
        let ws = plan_ci_scenario(&scratch, &format!("ws-{tag}"));
        let (code, executed) = run("execute", &ws, &[]);
        assert_eq!(code, 0);
        let crashed = plan_ci_scenario(&scratch, &format!("ws-crashed-{tag}"));
        let (code, _) = run("execute", &crashed, &["--abort-after-checkpoint", "2"]);
        assert_ne!(code, 0, "the abort must look like a crash");
        let (code, resumed) = run("resume", &crashed, &[]);
        assert_eq!(code, 0);
        let files =
            [&ws, &crashed].map(|dir| [read(dir, "journal.jsonl"), read(dir, "report.json")]);
        outputs.push((executed, resumed, files));
    }
    assert!(
        outputs[0] == outputs[1],
        "--metrics-out changed a session's output"
    );
    assert!(read(&scratch.path(""), "metrics.json").starts_with(b"{"));
}

/// `--metrics-out` breaks `plan`, `execute` and `resume` down by phase,
/// and a traced `plan` writes the same workspace bytes.
#[test]
fn metrics_snapshot_names_every_migrate_phase() {
    let scratch = Scratch::new("phases");
    let (ipath, fpath) = seed_inputs(&scratch, 12);
    let ws = plan(&scratch, "ws", &ipath, &fpath);
    let traced = scratch.path("ws-traced");
    let plan_metrics = scratch.path("plan-metrics.json");
    let (code, out) = dmig(&[
        "migrate",
        "plan",
        &ipath,
        "--workspace",
        &traced,
        "--faults",
        &fpath,
        "--replan",
        "--retry-max",
        "3",
        "--threads",
        "2",
        "--metrics-out",
        &plan_metrics,
    ]);
    assert_eq!(code, 0, "{out}");
    for file in [
        "instance.txt",
        "faults.toml",
        "plan.json",
        "config.json",
        "manifest.json",
    ] {
        assert!(read(&ws, file) == read(&traced, file), "{file} differs");
    }
    let (code, flame) = dmig(&["obs", "flame", &plan_metrics]);
    assert_eq!(code, 0, "{flame}");
    for phase in [
        "migrate.parse",
        "migrate.solve",
        "migrate.render",
        "migrate.publish",
    ] {
        assert!(flame.contains(phase), "{phase} missing from\n{flame}");
    }

    let (code, _) = dmig(&[
        "migrate",
        "execute",
        "--workspace",
        &ws,
        "--abort-after-checkpoint",
        "2",
    ]);
    assert_ne!(code, 0);
    let metrics = scratch.path("resume-metrics.json");
    let (code, out) = dmig(&[
        "migrate",
        "resume",
        "--workspace",
        &ws,
        "--metrics-out",
        &metrics,
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, flame) = dmig(&["obs", "flame", &metrics]);
    assert_eq!(code, 0, "{flame}");
    for phase in [
        "migrate.load",
        "migrate.restore",
        "migrate.step",
        "migrate.record",
        "migrate.sync",
        "migrate.report",
    ] {
        assert!(flame.contains(phase), "{phase} missing from\n{flame}");
    }
}
