//! Append-only JSONL metrics history.
//!
//! Every instrumented run can append **one line** — a self-contained JSON
//! object with run metadata plus flat numeric metrics — to a history file.
//! Lines accumulate across runs and branches, giving the repo an actual
//! perf trajectory instead of a single overwritten snapshot:
//!
//! ```text
//! {"schema":"dmig-history/1","unix_ts":1754500000,"git_rev":"f04f95c","threads":4,...}
//! {"schema":"dmig-history/1","unix_ts":1754503600,"git_rev":"9a1be2d","threads":4,...}
//! ```
//!
//! `dmig obs diff` and `dmig obs gate` read entries back with
//! [`read_entries`]; corrupt lines (a crashed writer, a merge conflict) are
//! skipped rather than poisoning the whole file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

use crate::json;
use crate::value::Value;

/// Schema tag written into every history line.
pub const HISTORY_SCHEMA: &str = "dmig-history/1";

/// Metadata identifying one run in the history.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Git revision the run was built from (short hash, or "unknown").
    pub git_rev: String,
    /// Worker-thread budget of the run.
    pub threads: Option<u64>,
    /// `available_parallelism()` of the host.
    pub hardware_threads: Option<u64>,
    /// Stable identifier of the solved instance (e.g. an FNV hash of the
    /// instance text), so entries are comparable only when they measured
    /// the same work.
    pub instance: Option<String>,
    /// Wall-clock time of the measured phase, in milliseconds.
    pub wall_ms: Option<f64>,
    /// Free-form tag (e.g. "perf_report", "cli-solve").
    pub source: String,
}

/// Best-effort short git revision of the working directory, falling back
/// to the `DMIG_GIT_REV` environment variable and then `"unknown"`. Never
/// fails: history must be appendable from hosts without git.
#[must_use]
pub fn detect_git_rev() -> String {
    if let Ok(rev) = std::env::var("DMIG_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch (0 when the clock is before it).
#[must_use]
pub fn unix_ts() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// 64-bit FNV-1a over arbitrary text, rendered as 16 hex digits — the
/// instance fingerprint used in [`RunMeta::instance`].
#[must_use]
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Renders one history line (no trailing newline): metadata fields first,
/// then every metric under a `"metrics"` object, keys sorted.
#[must_use]
pub fn render_entry(meta: &RunMeta, metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"schema\":{}", json::string(HISTORY_SCHEMA));
    let _ = write!(out, ",\"unix_ts\":{}", unix_ts());
    let _ = write!(out, ",\"git_rev\":{}", json::string(&meta.git_rev));
    let _ = write!(out, ",\"source\":{}", json::string(&meta.source));
    if let Some(t) = meta.threads {
        let _ = write!(out, ",\"threads\":{t}");
    }
    if let Some(t) = meta.hardware_threads {
        let _ = write!(out, ",\"hardware_threads\":{t}");
    }
    if let Some(i) = &meta.instance {
        let _ = write!(out, ",\"instance\":{}", json::string(i));
    }
    if let Some(w) = meta.wall_ms {
        let _ = write!(out, ",\"wall_ms\":{}", json::number(w));
    }
    out.push_str(",\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::string(k), json::number(*v));
    }
    out.push_str("}}");
    out
}

/// Appends one entry to the JSONL history at `path`, creating the file if
/// needed. Exactly one line is written per call.
///
/// # Errors
///
/// Returns the underlying I/O error message.
pub fn append(path: &str, meta: &RunMeta, metrics: &BTreeMap<String, f64>) -> Result<(), String> {
    let line = render_entry(meta, metrics);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot append to {path}: {e}"))
}

/// Reads every well-formed entry from a JSONL history file, oldest first.
/// Malformed lines are skipped (their count is returned alongside).
///
/// # Errors
///
/// Returns an error only when the file itself cannot be read.
pub fn read_entries(path: &str) -> Result<(Vec<Value>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Value::parse(line) {
            Ok(v) if v.get_path("schema").and_then(Value::as_str) == Some(HISTORY_SCHEMA) => {
                entries.push(v);
            }
            _ => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// Rewrites the history at `path`, keeping only the **last** `keep`
/// entries per instance fingerprint (entries without an `instance` field
/// form their own group). Malformed lines are dropped. Surviving lines
/// keep their original text and relative order; the rewrite goes through
/// [`crate::fsio::atomic_write`], so a crash never truncates the history.
///
/// Returns `(kept, dropped)` line counts.
///
/// # Errors
///
/// Returns the underlying I/O error message; `keep == 0` is rejected
/// (use `rm` to discard a history, not a compaction to nothing).
pub fn compact(path: &str, keep: usize) -> Result<(usize, usize), String> {
    if keep == 0 {
        return Err("--keep must be at least 1".to_string());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Pass 1: survivors per group = the last `keep` valid lines.
    let mut per_group: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut total = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        total += 1;
        if let Ok(v) = Value::parse(line) {
            if v.get_path("schema").and_then(Value::as_str) == Some(HISTORY_SCHEMA) {
                let group = v
                    .get_path("instance")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                per_group.entry(group).or_default().push(i);
            }
        }
    }
    let mut survivors: Vec<usize> = per_group
        .into_values()
        .flat_map(|idx| {
            let cut = idx.len().saturating_sub(keep);
            idx.into_iter().skip(cut)
        })
        .collect();
    survivors.sort_unstable();
    // Pass 2: rewrite in original order through an atomic rename.
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    for &i in &survivors {
        out.push_str(lines[i].trim());
        out.push('\n');
    }
    crate::fsio::atomic_write(path, out.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok((survivors.len(), total - survivors.len()))
}

/// The flat metric map of one history entry (its `"metrics"` object plus
/// top-level numeric metadata like `threads`/`wall_ms`, which are useful
/// in gate conditions).
#[must_use]
pub fn entry_metrics(entry: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(m) = entry.get_path("metrics") {
        m.flatten_into("", &mut out);
    }
    for key in ["threads", "hardware_threads", "wall_ms", "unix_ts"] {
        if let Some(n) = entry.get_path(key).and_then(Value::as_f64) {
            out.insert(key.to_string(), n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dmig-history-test-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn sample_meta() -> RunMeta {
        RunMeta {
            git_rev: "abc1234".into(),
            threads: Some(4),
            hardware_threads: Some(8),
            instance: Some(fingerprint("nodes 3\n")),
            wall_ms: Some(12.5),
            source: "test".into(),
        }
    }

    #[test]
    fn append_writes_exactly_one_line_per_call() {
        let path = tmp("one-line");
        std::fs::remove_file(&path).ok();
        let mut metrics = BTreeMap::new();
        metrics.insert("flow_solves".to_string(), 3.0);
        for expected in 1..=3 {
            append(&path, &sample_meta(), &metrics).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), expected);
        }
        let (entries, skipped) = read_entries(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(skipped, 0);
        let m = entry_metrics(&entries[0]);
        assert_eq!(m["flow_solves"], 3.0);
        assert_eq!(m["threads"], 4.0);
        assert_eq!(m["wall_ms"], 12.5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = tmp("corrupt");
        let mut metrics = BTreeMap::new();
        metrics.insert("x".to_string(), 1.0);
        std::fs::write(&path, "{not json}\n\n").unwrap();
        append(&path, &sample_meta(), &metrics).unwrap();
        let (entries, skipped) = read_entries(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entry_is_valid_json_with_schema() {
        let line = render_entry(&sample_meta(), &BTreeMap::new());
        let v = Value::parse(&line).unwrap();
        assert_eq!(
            v.get_path("schema").and_then(Value::as_str),
            Some(HISTORY_SCHEMA)
        );
        assert_eq!(
            v.get_path("git_rev").and_then(Value::as_str),
            Some("abc1234")
        );
    }

    #[test]
    fn compact_keeps_last_n_per_instance() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let mut metrics = BTreeMap::new();
        for round in 0..4 {
            for inst in ["aaa", "bbb"] {
                metrics.insert("round".to_string(), f64::from(round));
                let meta = RunMeta {
                    instance: Some(inst.to_string()),
                    ..sample_meta()
                };
                append(&path, &meta, &metrics).unwrap();
            }
        }
        // A corrupt line and an instance-less entry ride along.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{{broken").unwrap();
        }
        let no_inst = RunMeta {
            instance: None,
            ..sample_meta()
        };
        append(&path, &no_inst, &metrics).unwrap();

        let (kept, dropped) = compact(&path, 2).unwrap();
        assert_eq!(kept, 5, "2 per fingerprint + 1 instance-less");
        assert_eq!(dropped, 5, "4 old entries + 1 corrupt line");
        let (entries, skipped) = read_entries(&path).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(skipped, 0, "corrupt lines are gone after compaction");
        // Survivors are the *latest* rounds, still oldest-first.
        let rounds: Vec<f64> = entries
            .iter()
            .filter(|e| e.get_path("instance").and_then(Value::as_str) == Some("aaa"))
            .map(|e| entry_metrics(e)["round"])
            .collect();
        assert_eq!(rounds, vec![2.0, 3.0]);
        // Compacting below the current size is a no-op.
        let (kept2, dropped2) = compact(&path, 10).unwrap();
        assert_eq!((kept2, dropped2), (5, 0));
        assert!(compact(&path, 0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }

    #[test]
    fn detect_git_rev_never_fails() {
        assert!(!detect_git_rev().is_empty());
    }
}
