//! The typed checkpoint decoder against the `Value`-tree decoder it
//! replaced.
//!
//! `Executor::restore` reads records with a pull reader straight into
//! typed state. The oracle here is the earlier decoder, kept verbatim in
//! its checks: parse each record into a `dmig_obs::Value` tree, then
//! decode member by member. Both run over seeded mutations of real full
//! and delta records — cuts at every byte, byte flips, reordered,
//! unknown and duplicate keys, escaped digits in bit strings, escaped
//! letters in fate codes, counts written as `1e2` or `1.0`, padded with
//! leading zeros or lengthened to 15, 16 or 20 digits, and tabs, newlines
//! or CRs before elements — and must agree: on acceptance with the same
//! state (compared through `checkpoint_json()`), on rejection with the
//! same `ExecError::Checkpoint` message, `line N:` included. The mutations
//! reach both sides of the reader's element fast paths, which take only
//! digit runs of at most 15 digits and strings without escapes. Chains
//! start at a full record or, before the run's first replan, at the plan:
//! `Executor::resume` must agree with an oracle that decodes a chain whose
//! first record is a delta onto the state `Executor::new` builds, and
//! `Executor::restore`, which has no plan, with one that refuses it.

use dmig_core::replan::rebuild_residual;
use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule};
use dmig_graph::{EdgeId, Endpoints, NodeId};
use dmig_obs::Value;
use dmig_sim::executor::{ItemFate, CHECKPOINT_SCHEMA, DELTA_PREFIX};
use dmig_sim::faults::{CrashFault, DegradeFault, FlakySpec};
use dmig_sim::progress::StallDetector;
use dmig_sim::{Cluster, ExecError, Executor, ExecutorConfig, FaultPlan, StepOutcome};
use dmig_workloads::random::uniform_multigraph;

// --- the oracle: the `Value`-tree decoder ---------------------------------

/// Everything a record chain restores, as the oracle decodes it. Floats
/// are bit patterns; the residual instance and the stall window are
/// normalized the way the executor holds them.
#[derive(Clone, Debug, PartialEq)]
struct State {
    bw: Vec<u64>,
    crashed: Vec<bool>,
    replacement: Vec<Option<usize>>,
    next_fault: usize,
    fates: Vec<Option<ItemFate>>,
    attempts: Vec<u32>,
    redirected: Vec<bool>,
    cur_edges: Vec<usize>,
    cur_caps: Vec<u32>,
    cur_rounds: Vec<Vec<usize>>,
    makespan: usize,
    roots: Vec<usize>,
    done: Vec<bool>,
    base: u64,
    round_durations: Vec<u64>,
    disk_busy: Vec<u64>,
    volume: u64,
    replans: u64,
    retries: u64,
    crashes: u64,
    redirects: u64,
    degraded_rounds: u64,
    stall_recent: Vec<u64>,
    stall_next: usize,
    degraded_set: Vec<bool>,
    crash_dirty: bool,
    round_idx: usize,
}

type Check<T> = Result<T, String>;

fn parse_record(line: &str) -> Check<Value> {
    let doc = Value::parse(line.trim()).map_err(|e| format!("unparseable checkpoint: {e}"))?;
    let schema = doc
        .get_path("schema")
        .and_then(Value::as_str)
        .unwrap_or_default();
    if schema != CHECKPOINT_SCHEMA {
        return Err(format!(
            "checkpoint schema `{schema}` is not `{CHECKPOINT_SCHEMA}`"
        ));
    }
    Ok(doc)
}

fn check_dims(doc: &Value, disks: usize, items: usize) -> Check<()> {
    let d = ck_usize(doc, "disks")?;
    if d != disks {
        return Err(format!(
            "checkpoint is for a {d}-disk cluster, instance has {disks}"
        ));
    }
    let i = ck_usize(doc, "items")?;
    if i != items {
        return Err(format!(
            "checkpoint accounts {i} items, instance has {items}"
        ));
    }
    Ok(())
}

fn ck_get<'v>(doc: &'v Value, key: &str) -> Check<&'v Value> {
    doc.get_path(key)
        .ok_or_else(|| format!("checkpoint missing `{key}`"))
}

fn ck_num(v: &Value, what: &str) -> Check<u64> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0) {
        return Err(format!("{what}: {x} is not an exact non-negative integer"));
    }
    Ok(x as u64)
}

fn ck_index(v: &Value, what: &str) -> Check<usize> {
    usize::try_from(ck_num(v, what)?).map_err(|_| format!("{what} overflows usize"))
}

fn ck_u32(v: &Value, what: &str) -> Check<u32> {
    let x = ck_num(v, what)?;
    u32::try_from(x).map_err(|_| format!("{what} = {x} overflows u32"))
}

fn ck_flag(v: &Value, what: &str) -> Check<bool> {
    Ok(ck_num(v, what)? != 0)
}

fn ck_u64(doc: &Value, key: &str) -> Check<u64> {
    ck_num(ck_get(doc, key)?, key)
}

fn ck_usize(doc: &Value, key: &str) -> Check<usize> {
    ck_index(ck_get(doc, key)?, key)
}

fn ck_array<'v>(doc: &'v Value, key: &str) -> Check<&'v [Value]> {
    ck_get(doc, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn ck_vec<T>(
    doc: &Value,
    key: &str,
    len: Option<usize>,
    decode: impl Fn(&Value, &str) -> Check<T>,
) -> Check<Vec<T>> {
    let xs = ck_array(doc, key)?;
    if let Some(len) = len.filter(|&len| len != xs.len()) {
        return Err(format!("`{key}` has {} entries, expected {len}", xs.len()));
    }
    xs.iter()
        .enumerate()
        .map(|(i, v)| decode(v, &format!("{key}[{i}]")))
        .collect()
}

fn ck_apply<T>(
    doc: &Value,
    key: &str,
    xs: &mut Vec<T>,
    grow: bool,
    decode: impl Fn(&Value, &str) -> Check<T>,
) -> Check<()> {
    for (k, pair) in ck_array(doc, key)?.iter().enumerate() {
        let what = format!("{key}[{k}]");
        let Some([i, v]) = pair
            .as_array()
            .and_then(|p| <&[Value; 2]>::try_from(p).ok())
        else {
            return Err(format!("{what} is not an [index, value] pair"));
        };
        let i = ck_index(i, &what)?;
        let v = decode(v, &what)?;
        if i < xs.len() {
            xs[i] = v;
        } else if grow && i == xs.len() {
            xs.push(v);
        } else {
            return Err(format!(
                "{what}: index {i} is out of range for {} entries",
                xs.len()
            ));
        }
    }
    Ok(())
}

fn ck_fate(v: &Value, what: &str) -> Check<Option<ItemFate>> {
    let code = v
        .as_str()
        .ok_or_else(|| format!("{what} is not a string"))?;
    if code == "pending" {
        return Ok(None);
    }
    ItemFate::from_code(code)
        .map(Some)
        .ok_or_else(|| format!("{what}: unknown fate code `{code}`"))
}

fn ck_replacement(v: &Value, what: &str, n: usize) -> Check<Option<usize>> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if x == -1.0 {
        return Ok(None);
    }
    if !(x.fract() == 0.0 && x >= 0.0 && x < n as f64) {
        return Err(format!("{what} = {x} is out of range"));
    }
    Ok(Some(x as usize))
}

fn ck_u64_str(v: &Value, what: &str) -> Check<u64> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what} is not a string"))?;
    s.parse().map_err(|_| format!("{what}: `{s}` is not a u64"))
}

fn ck_bits(doc: &Value, key: &str) -> Check<u64> {
    ck_u64_str(ck_get(doc, key)?, key)
}

/// What the oracle needs of the run's inputs.
struct Inputs<'a> {
    problem: &'a MigrationProblem,
    timeline: usize,
    /// The state a chain that starts at the plan has as its base: the
    /// state `Executor::new` builds, as its full record decodes.
    start: Option<State>,
}

fn window(recent: Vec<u64>, next: usize) -> (Vec<u64>, usize) {
    let d = StallDetector::from_window(recent, next);
    let (recent, next) = d.window();
    (recent.to_vec(), next)
}

fn oracle_full(cx: &Inputs<'_>, doc: &Value) -> Check<State> {
    let n = cx.problem.num_disks();
    let num_roots = cx.problem.num_items();
    check_dims(doc, n, num_roots)?;
    // Ids are `u32`s: one that does not fit is an error, where the replaced
    // decoder panicked building the id.
    let flat = ck_vec(doc, "cur_edges", None, ck_u32)?;
    if flat.len() % 2 != 0 {
        return Err("cur_edges has an odd number of endpoints".to_string());
    }
    let endpoints: Vec<Endpoints> = flat
        .chunks_exact(2)
        .map(|p| Endpoints {
            u: NodeId::new(p[0] as usize),
            v: NodeId::new(p[1] as usize),
        })
        .collect();
    let cur_caps = ck_vec(doc, "cur_caps", Some(n), ck_u32)?;
    let rounds = ck_vec(doc, "cur_rounds", None, |r, what| {
        r.as_array()
            .ok_or_else(|| format!("{what} is not an array"))?
            .iter()
            .map(|v| Ok(EdgeId::new(ck_u32(v, what)? as usize)))
            .collect()
    })?;
    // A departure from the replaced decoder: a residual instance that does
    // not rebuild is a line-numbered checkpoint error.
    let (residual, schedule) = rebuild_residual(
        n,
        &endpoints,
        Capacities::from_vec(cur_caps.clone()),
        rounds,
    )
    .map_err(|e| format!("the residual instance does not rebuild: {e}"))?;
    let g = residual.graph();
    let cur_edges = (0..g.num_edges())
        .flat_map(|e| {
            let ep = g.endpoints(EdgeId::new(e));
            [ep.u.index(), ep.v.index()]
        })
        .collect();
    let cur_rounds = schedule
        .rounds()
        .iter()
        .map(|r| r.iter().map(|e| e.index()).collect())
        .collect();
    let residual_items = residual.num_items();
    let roots = ck_vec(doc, "roots", Some(residual_items), ck_index)?;
    if let Some(&bad) = roots.iter().find(|&&r| r >= num_roots) {
        return Err(format!("root {bad} is out of range"));
    }
    let executed = ck_usize(doc, "executed_rounds")?;
    let bw = ck_vec(doc, "bw", Some(n), ck_u64_str)?;
    let crashed = ck_vec(doc, "crashed", Some(n), ck_flag)?;
    let replacement = ck_vec(doc, "replacement", Some(n), |v, what| {
        ck_replacement(v, what, n)
    })?;
    let fates = ck_vec(doc, "fates", Some(num_roots), ck_fate)?;
    let attempts = ck_vec(doc, "attempts", Some(num_roots), ck_u32)?;
    let redirected = ck_vec(doc, "redirected", Some(num_roots), ck_flag)?;
    let done = ck_vec(doc, "done", Some(residual_items), ck_flag)?;
    let round_durations = ck_vec(doc, "round_durations", Some(executed), ck_u64_str)?;
    let disk_busy = ck_vec(doc, "disk_busy", Some(n), ck_u64_str)?;
    let replans = ck_u64(doc, "replans")?;
    let recent = ck_vec(doc, "stall_recent", None, ck_u64_str)?;
    let (stall_recent, stall_next) = window(recent, ck_usize(doc, "stall_next")?);
    let degraded_set = ck_vec(doc, "degraded_set", Some(n), ck_flag)?;
    let mut state = State {
        bw,
        crashed,
        replacement,
        next_fault: 0,
        fates,
        attempts,
        redirected,
        cur_edges,
        cur_caps,
        cur_rounds,
        makespan: schedule.makespan(),
        roots,
        done,
        base: 0,
        round_durations,
        disk_busy,
        volume: 0,
        replans,
        retries: 0,
        crashes: 0,
        redirects: 0,
        degraded_rounds: 0,
        stall_recent,
        stall_next,
        degraded_set,
        crash_dirty: false,
        round_idx: 0,
    };
    set_scalars(cx, &mut state, doc)?;
    Ok(state)
}

fn oracle_delta(cx: &Inputs<'_>, s: &mut State, doc: &Value, seq: u64) -> Check<()> {
    let got = doc
        .get_path("delta")
        .ok_or("a full record can only start a chain")?;
    let got = ck_num(got, "delta")?;
    if got != seq {
        return Err(format!(
            "delta {got} does not chain: its predecessor expects delta {seq}"
        ));
    }
    check_dims(doc, s.bw.len(), s.fates.len())?;
    let replans = ck_u64(doc, "replans")?;
    if replans != s.replans {
        return Err(format!(
            "delta {seq} records {replans} replans after {}: a replan starts a full record",
            s.replans
        ));
    }
    let executed = ck_usize(doc, "executed_rounds")?;
    let tail = ck_vec(doc, "round_durations", None, ck_u64_str)?;
    if s.round_durations.len() + tail.len() != executed {
        return Err(format!(
            "delta {seq}: {} new round durations do not take {} executed rounds to {executed}",
            tail.len(),
            s.round_durations.len()
        ));
    }
    s.round_durations.extend(tail);
    let n = s.bw.len();
    ck_apply(doc, "bw", &mut s.bw, false, ck_u64_str)?;
    ck_apply(doc, "crashed", &mut s.crashed, false, ck_flag)?;
    ck_apply(doc, "replacement", &mut s.replacement, false, |v, what| {
        ck_replacement(v, what, n)
    })?;
    ck_apply(doc, "fates", &mut s.fates, false, ck_fate)?;
    ck_apply(doc, "attempts", &mut s.attempts, false, ck_u32)?;
    ck_apply(doc, "redirected", &mut s.redirected, false, ck_flag)?;
    ck_apply(doc, "done", &mut s.done, false, ck_flag)?;
    ck_apply(doc, "disk_busy", &mut s.disk_busy, false, ck_u64_str)?;
    ck_apply(doc, "degraded_set", &mut s.degraded_set, false, ck_flag)?;
    let mut recent = s.stall_recent.clone();
    ck_apply(doc, "stall_recent", &mut recent, true, ck_u64_str)?;
    (s.stall_recent, s.stall_next) = window(recent, ck_usize(doc, "stall_next")?);
    set_scalars(cx, s, doc)
}

fn set_scalars(cx: &Inputs<'_>, s: &mut State, doc: &Value) -> Check<()> {
    let next_fault = ck_usize(doc, "next_fault")?;
    if next_fault > cx.timeline {
        return Err(format!(
            "next_fault {next_fault} exceeds the {}-event timeline",
            cx.timeline
        ));
    }
    let round_idx = ck_usize(doc, "round_idx")?;
    if round_idx > s.makespan {
        return Err(format!(
            "round_idx {round_idx} exceeds the {}-round residual schedule",
            s.makespan
        ));
    }
    s.next_fault = next_fault;
    s.round_idx = round_idx;
    s.base = ck_bits(doc, "base")?;
    s.volume = ck_bits(doc, "volume")?;
    s.retries = ck_u64(doc, "retries")?;
    s.crashes = ck_u64(doc, "crashes")?;
    s.redirects = ck_u64(doc, "redirects")?;
    s.degraded_rounds = ck_u64(doc, "degraded_rounds")?;
    s.crash_dirty = ck_usize(doc, "crash_dirty")? != 0;
    Ok(())
}

/// The replaced `Executor::restore`, decoding into a [`State`]. With
/// `plan`, a chain whose first line starts with the delta prefix starts
/// at [`Inputs::start`], as `Executor::resume` has it.
fn oracle_restore(cx: &Inputs<'_>, checkpoint: &str, plan: bool) -> Check<State> {
    let at = |i: usize| move |m: String| format!("line {}: {m}", i + 1);
    let mut records = checkpoint
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    let from_plan = plan
        && records
            .peek()
            .is_some_and(|(_, l)| l.starts_with(DELTA_PREFIX));
    let mut state = if from_plan {
        cx.start.clone().expect("the state the plan starts from")
    } else {
        let (i, full) = records.next().unwrap_or((0, ""));
        let doc = parse_record(full).map_err(at(i))?;
        if doc.get_path("delta").is_some() {
            return Err(at(i)(
                "a delta record needs the full record it extends before it".to_string(),
            ));
        }
        oracle_full(cx, &doc).map_err(at(i))?
    };
    for (seq, (i, line)) in (1u64..).zip(records) {
        parse_record(line)
            .and_then(|doc| oracle_delta(cx, &mut state, &doc, seq))
            .map_err(at(i))?;
    }
    Ok(state)
}

// --- the fixture: a real journal -------------------------------------------

/// A crash with a spare, a degradation with recovery and flaky transfers,
/// replanning on: the journal holds deltas from the plan, then a replan's
/// full record and the deltas after it.
fn faults() -> FaultPlan {
    FaultPlan {
        seed: 2026,
        crashes: vec![CrashFault {
            disk: 2.into(),
            time: 0.5,
            replacement: Some(5.into()),
        }],
        degradations: vec![DegradeFault {
            disk: 1.into(),
            time: 0.25,
            factor: 0.4,
            recover_at: Some(8.0),
        }],
        flaky: Some(FlakySpec { probability: 0.1 }),
    }
}

fn problem() -> MigrationProblem {
    let mut b = dmig_graph::GraphBuilder::new();
    for (_, ep) in uniform_multigraph(5, 30, 42).edges() {
        b = b.edge(ep.u.index(), ep.v.index());
    }
    MigrationProblem::uniform(b.nodes(6).build(), 2).expect("valid instance")
}

fn config() -> ExecutorConfig {
    ExecutorConfig {
        replan: true,
        retry_max: 3,
    }
}

/// `journal_record()` at every boundary of an uninterrupted run of
/// `schedule`.
fn journal(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
    faults: &FaultPlan,
) -> Vec<String> {
    let cfg = config();
    let mut exec = Executor::new(problem, schedule, cluster, faults, &cfg, &AutoSolver)
        .expect("executor builds");
    let mut records = vec![exec.journal_record()];
    while exec.step().expect("step") == StepOutcome::Running {
        records.push(exec.journal_record());
    }
    records
}

/// SplitMix64: the mutation stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Splits a record into its top-level members' text (`"key": value`).
/// Records hold no commas or brackets inside strings.
fn members(record: &str) -> Vec<String> {
    let inner = &record[1..record.len() - 1];
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
    format!("{{{}}}", members.join(", "))
}

/// Byte offsets of every digit inside a quoted all-digit string (the bit
/// patterns).
fn bit_digits(record: &str) -> Vec<usize> {
    let b = record.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let end = i + 1 + b[i + 1..].iter().position(|&c| c == b'"').unwrap_or(0);
            if end > i + 1 && b[i + 1..end].iter().all(u8::is_ascii_digit) {
                out.extend(i + 1..end);
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Byte ranges of unquoted integers.
fn integers(record: &str) -> Vec<(usize, usize)> {
    let b = record.as_bytes();
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

/// Byte offsets of the ASCII letters inside quoted strings that start with
/// a letter (the fate codes and the schema tag).
fn code_letters(record: &str) -> Vec<usize> {
    let b = record.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let end = i + 1 + b[i + 1..].iter().position(|&c| c == b'"').unwrap_or(0);
            if b.get(i + 1).is_some_and(u8::is_ascii_alphabetic) {
                out.extend((i + 1..end).filter(|&k| b[k].is_ascii_alphabetic()));
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// One seeded mutation of `record`.
fn mutate(record: &str, rng: &mut Mix, others: &[String]) -> String {
    const BYTES: &[u8] = b"[]{}\",:-.0123456789eE \\u";
    let mut m = members(record);
    match rng.below(13) {
        0 => {
            let mut b = record.as_bytes().to_vec();
            let i = rng.below(b.len());
            b[i] = BYTES[rng.below(BYTES.len())];
            String::from_utf8_lossy(&b).into_owned()
        }
        1 => {
            for i in (1..m.len()).rev() {
                m.swap(i, rng.below(i + 1));
            }
            join(&m)
        }
        2 => {
            let unknown = ["\"zz\": [1, {\"a\": [\"b\"]}]", "\"yy\": null", "\"x\": {}"];
            m.insert(rng.below(m.len() + 1), unknown[rng.below(3)].to_string());
            join(&m)
        }
        3 => {
            // A duplicate key, before or after the original, carrying the
            // original value or the one another record gives it.
            let i = rng.below(m.len());
            let key = m[i].split(':').next().unwrap_or_default().to_string();
            let other = &others[rng.below(others.len())];
            let dup = members(other)
                .into_iter()
                .find(|x| x.starts_with(&key))
                .unwrap_or_else(|| m[i].clone());
            m.insert(if rng.below(2) == 0 { i } else { i + 1 }, dup);
            join(&m)
        }
        4 => {
            let digits = bit_digits(record);
            if digits.is_empty() {
                return record.to_string();
            }
            let i = digits[rng.below(digits.len())];
            format!(
                "{}\\u003{}{}",
                &record[..i],
                &record[i..=i],
                &record[i + 1..]
            )
        }
        5 => {
            let ints = integers(record);
            let (_, e) = ints[rng.below(ints.len())];
            let forms = [".0", "e0", "0e-1", ".5", "e2", "1e400"];
            let form = forms[rng.below(forms.len())];
            format!("{}{form}{}", &record[..e], &record[e..])
        }
        6 => {
            // A member dropped.
            m.remove(rng.below(m.len()));
            join(&m)
        }
        7 => {
            // A member's value swapped for another kind of value.
            let i = rng.below(m.len());
            let key = m[i].split(':').next().unwrap_or_default().to_string();
            let values = [
                "[]", "{}", "null", "true", "\"1\"", "-1", "[[0, 1]]", "[\"0\"]", "[1]", "0",
            ];
            m[i] = format!("{key}: {}", values[rng.below(values.len())]);
            join(&m)
        }
        8 => {
            // An integer padded or lengthened to 15, 16 or 20 digits, or
            // given leading zeros: either side of the reader's digit fast
            // path, which takes runs of at most 15 digits.
            let ints = integers(record);
            let (start, end) = ints[rng.below(ints.len())];
            let digits = &record[start..end];
            let long: usize = [15, 16, 20][rng.below(3)];
            let fill = long.saturating_sub(digits.len());
            let int = match rng.below(4) {
                0 => format!("{}{digits}", "0".repeat(fill)),
                1 => format!("{digits}{}", "9".repeat(fill)),
                // Above 2^53, so only 15 digits read as an exact count.
                2 => format!("9{digits}{}", "9".repeat(fill.saturating_sub(1))),
                _ => format!("00{digits}"),
            };
            format!("{}{int}{}", &record[..start], &record[end..])
        }
        9 => {
            // Other whitespace before an element or a member's value: a
            // space swapped for it, or it inserted after `[` or `,`.
            let ws = ["\t", "\n", "\r", " \t\r "][rng.below(4)];
            let spots: Vec<usize> = record
                .bytes()
                .enumerate()
                .filter(|&(_, c)| matches!(c, b' ' | b'[' | b','))
                .map(|(i, _)| i)
                .collect();
            let i = spots[rng.below(spots.len())];
            if record.as_bytes()[i] == b' ' {
                format!("{}{ws}{}", &record[..i], &record[i + 1..])
            } else {
                format!("{}{ws}{}", &record[..=i], &record[i + 1..])
            }
        }
        10 => {
            // A letter of a fate code written as an escape, as in
            // `"deliv\u0065red"`: the reader's plain-string fast path
            // must leave it to the generic path.
            let letters = code_letters(record);
            if letters.is_empty() {
                return record.to_string();
            }
            let i = letters[rng.below(letters.len())];
            let c = record.as_bytes()[i];
            format!("{}\\u{:04x}{}", &record[..i], c, &record[i + 1..])
        }
        _ => {
            let mut b = record.as_bytes().to_vec();
            let i = rng.below(b.len() + 1);
            b.insert(i, BYTES[rng.below(BYTES.len())]);
            String::from_utf8_lossy(&b).into_owned()
        }
    }
}

/// Restores `chain` with the executor and the oracle, with the plan
/// (`Executor::resume`) and without it (`Executor::restore`), and requires
/// the same verdicts; returns `resume`'s.
fn agree(
    cx: &Inputs<'_>,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
    faults: &FaultPlan,
    chain: &str,
) -> bool {
    let cfg = config();
    let verdict = |mine: Result<Executor<'_>, ExecError>, plan: bool| match (
        mine,
        oracle_restore(cx, chain, plan),
    ) {
        (Ok(exec), Ok(state)) => {
            let again = oracle_restore(cx, &exec.checkpoint_json(), false)
                .unwrap_or_else(|e| panic!("a restored state re-reads: {e}\n{chain}"));
            assert_eq!(again, state, "restored another state from\n{chain}");
            true
        }
        (Err(ExecError::Checkpoint(m)), Err(o)) => {
            assert_eq!(m, o, "rejected differently (plan: {plan}):\n{chain}");
            false
        }
        (mine, theirs) => panic!(
            "verdicts differ (plan: {plan}): executor {:?}, oracle {:?}\n{chain}",
            mine.map(|_| ()),
            theirs.map(|_| ())
        ),
    };
    let p = cx.problem;
    verdict(
        Executor::restore(p, cluster, faults, &cfg, &AutoSolver, chain),
        false,
    );
    verdict(
        Executor::resume(p, schedule, cluster, faults, &cfg, &AutoSolver, chain),
        true,
    )
}

#[test]
fn typed_decoder_agrees_with_the_value_tree_oracle() {
    let problem = problem();
    let cluster = Cluster::uniform(problem.num_disks(), 1.0);
    let cfg = config();
    let schedule = AutoSolver.solve(&problem).expect("solvable");
    // Two fixtures: the faulty run replans early, so most of its chains
    // start at a full record; flaky transfers alone never replan, so every
    // chain of that run starts at the plan.
    let flaky = FaultPlan {
        seed: 2026,
        flaky: Some(FlakySpec { probability: 0.1 }),
        ..FaultPlan::default()
    };
    let (mut accepted, mut rejected) = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    };
    let mut rng = Mix(15);
    for (faults, replans) in [(faults(), true), (flaky, false)] {
        let fresh = Executor::new(&problem, &schedule, &cluster, &faults, &cfg, &AutoSolver)
            .expect("executor builds");
        let mut cx = Inputs {
            problem: &problem,
            timeline: faults.timeline().len(),
            start: None,
        };
        let start =
            oracle_restore(&cx, &fresh.checkpoint_json(), false).expect("a fresh state reads");
        cx.start = Some(start);
        let records = journal(&problem, &schedule, &cluster, &faults);
        let fulls: Vec<usize> = (0..records.len())
            .filter(|&i| !records[i].starts_with(DELTA_PREFIX))
            .collect();
        assert!(
            fulls.is_empty() != replans && records.len() - fulls.len() >= 6,
            "the fixture must journal deltas, after a replan's full record only if it \
             replans: {} records, full at {fulls:?}",
            records.len(),
        );
        // Every chain of the journal as written restores, alike: from the
        // plan before the first full record, from the last full record
        // after it.
        let starts: Vec<usize> = std::iter::once(0).chain(fulls.iter().copied()).collect();
        for at in 0..records.len() {
            let start = *starts.iter().rfind(|&&f| f <= at).expect("starts at 0");
            assert!(agree(
                &cx,
                &schedule,
                &cluster,
                &faults,
                &records[start..=at].join("\n")
            ));
        }

        // Cuts at every byte, of a full record alone and of the last delta
        // of a chain of three, from a full record or from the plan.
        if let Some(&f) = fulls.first() {
            let full = &records[f];
            for cut in 0..full.len() {
                tally(agree(&cx, &schedule, &cluster, &faults, &full[..cut]));
            }
        }
        let start = *starts.last().expect("starts at 0");
        let chain = records[start..start + 3].join("\n");
        let last = chain.rfind('\n').expect("a chain of three") + 1;
        for cut in last..chain.len() {
            tally(agree(&cx, &schedule, &cluster, &faults, &chain[..cut]));
        }
        // Seeded mutations of one record in a chain, full or delta, from a
        // full record or from the plan.
        for _ in 0..3000 {
            let f = starts[rng.below(starts.len())];
            let end = (f + 1 + rng.below(3)).min(records.len());
            let mut chain: Vec<String> = records[f..end].to_vec();
            let k = rng.below(chain.len());
            chain[k] = mutate(&chain[k], &mut rng, &records);
            if rng.below(4) == 0 {
                let j = rng.below(chain.len());
                chain[j] = mutate(&chain[j], &mut rng, &records);
            }
            tally(agree(&cx, &schedule, &cluster, &faults, &chain.join("\n")));
        }
    }
    assert!(
        accepted >= 300 && rejected >= 3000,
        "the mutations must exercise both verdicts: {accepted} accepted, {rejected} rejected"
    );
}
