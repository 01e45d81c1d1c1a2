//! The journal codec: executor state to `dmig-exec-ckpt/1` records and
//! back, with nothing in between.
//!
//! **Encode.** A record is written field by field into one pre-sized byte
//! buffer; integers and the decimal IEEE-754 bit patterns of floats go
//! through [`push_u64`]. A delta diffs the state against the [`Recorded`]
//! copy of the previous record as it writes: the per-disk arrays whole,
//! the per-item arrays only at the residual items [`Touched`] lists.
//!
//! **Decode.** A record is read with [`Reader`], the pull reader behind
//! `dmig_obs::Value::parse`, straight into typed vectors. Array elements
//! that are plain digit runs or strings without escapes, nearly all of
//! them, take the reader's element fast paths; any other element is read
//! as a token, so it decodes and fails as before. A member reads as
//! it does in a `Value` tree: keys in any order, unknown keys ignored, the
//! last of duplicate keys winning. Decode failures are kept as a [`Bad`]
//! and every check runs after the record has parsed, in a fixed order, so
//! a record is rejected with the same message whichever way its members
//! are laid out; the `key[i]` label of a failure is formatted only when
//! its error is returned.

use std::borrow::Cow;

use dmig_obs::json::push_u64;
use dmig_obs::value::{ParseError, Reader, Token};

use super::{
    ck_err, rebuild_residual, Capacities, Cluster, EdgeId, Endpoints, ExecError, Executor,
    ExecutorConfig, FaultPlan, ItemFate, MigrationProblem, NodeId, RoundTicker, Solver,
    StallDetector, CHECKPOINT_SCHEMA,
};

/// What the last journal record captured: the base the next delta is
/// diffed against. Floats are kept as the bit patterns records carry.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(super) struct Recorded {
    /// Deltas written since the chain's base.
    deltas: u64,
    /// A replan replaces the residual instance and forces a full record.
    pub(super) replans: u64,
    executed_rounds: usize,
    bw: Vec<u64>,
    crashed: Vec<bool>,
    replacement: Vec<Option<NodeId>>,
    fates: Vec<Option<ItemFate>>,
    attempts: Vec<u32>,
    redirected: Vec<bool>,
    done: Vec<bool>,
    disk_busy: Vec<u64>,
    stall_recent: Vec<u64>,
    degraded_set: Vec<bool>,
}

impl Recorded {
    /// The state `Executor::new` builds for `x`'s inputs, before its first
    /// round: the base of a chain that starts at the plan. It is rebuilt
    /// from the dimensions, so an executor that never journals never pays
    /// for it.
    pub(super) fn start(x: &Executor<'_>) -> Recorded {
        let (n, roots) = (x.bw_init.len(), x.fates.len());
        Recorded {
            deltas: 0,
            replans: 0,
            executed_rounds: 0,
            bw: x.bw_init.iter().map(|b| b.to_bits()).collect(),
            crashed: vec![false; n],
            replacement: vec![None; n],
            fates: vec![None; roots],
            attempts: vec![0; roots],
            redirected: vec![false; roots],
            done: vec![false; x.problem.num_items()],
            disk_busy: vec![0.0f64.to_bits(); n],
            stall_recent: Vec::new(),
            degraded_set: vec![false; n],
        }
    }

    /// The state of `x`, which the `deltas`-th delta after its chain's
    /// base (0: the base itself) captured.
    pub(super) fn of(x: &Executor<'_>, deltas: u64) -> Recorded {
        Recorded {
            deltas,
            replans: x.replans,
            executed_rounds: x.round_durations.len(),
            bw: x.bw.iter().map(|b| b.to_bits()).collect(),
            crashed: x.crashed.clone(),
            replacement: x.replacement_of.clone(),
            fates: x.fates.clone(),
            attempts: x.attempts.clone(),
            redirected: x.redirected_flag.clone(),
            done: x.done.clone(),
            disk_busy: x.disk_busy.iter().map(|b| b.to_bits()).collect(),
            stall_recent: x.stall.window().0.to_vec(),
            degraded_set: x.degraded_at_last_replan.clone(),
        }
    }
}

/// The residual items whose per-item state (their `done` flag, and the
/// `fates`, `attempts` and `redirected` entries of their root) the
/// executor wrote since the last record: the only per-item entries the
/// next delta diffs. It lists at most as many ids as the instance has
/// items; past that it gives up, and the next delta diffs every item.
pub(super) struct Touched(Option<Vec<EdgeId>>);

impl Touched {
    pub(super) fn new() -> Touched {
        Touched(Some(Vec::new()))
    }

    /// Notes that residual item `e`'s state is written, in an instance of
    /// `items` items.
    pub(super) fn note(&mut self, e: EdgeId, items: usize) {
        match &mut self.0 {
            Some(ids) if ids.len() < items => ids.push(e),
            Some(_) => self.0 = None,
            None => {}
        }
    }

    /// Starts a new list, at a record or a restore.
    pub(super) fn clear(&mut self) {
        match &mut self.0 {
            Some(ids) => ids.clear(),
            None => self.0 = Some(Vec::new()),
        }
    }

    /// The residual items listed and their roots, each ascending, or
    /// `None` when every item must be diffed.
    fn entries(&self, roots: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut items: Vec<usize> = self.0.as_ref()?.iter().map(|e| e.index()).collect();
        items.sort_unstable();
        let mut of: Vec<usize> = items.iter().map(|&e| roots[e]).collect();
        of.sort_unstable();
        Some((items, of))
    }
}

// --- encode ---------------------------------------------------------------

/// Writes `, "key": `.
fn key(o: &mut Vec<u8>, key: &str) {
    o.extend_from_slice(b", \"");
    o.extend_from_slice(key.as_bytes());
    o.extend_from_slice(b"\": ");
}

/// Writes `, "key": v`.
fn int(o: &mut Vec<u8>, k: &str, v: u64) {
    key(o, k);
    push_u64(o, v);
}

/// A float as the quoted decimal of its bit pattern.
fn put_bits(o: &mut Vec<u8>, bits: u64) {
    o.push(b'"');
    push_u64(o, bits);
    o.push(b'"');
}

fn put_flag(o: &mut Vec<u8>, f: bool) {
    o.push(if f { b'1' } else { b'0' });
}

fn put_replacement(o: &mut Vec<u8>, r: Option<NodeId>) {
    match r {
        Some(d) => push_u64(o, d.index() as u64),
        None => o.extend_from_slice(b"-1"),
    }
}

fn put_fate(o: &mut Vec<u8>, f: Option<ItemFate>) {
    o.push(b'"');
    o.extend_from_slice(f.map_or("pending", ItemFate::code).as_bytes());
    o.push(b'"');
}

fn put_u32(o: &mut Vec<u8>, x: u32) {
    push_u64(o, u64::from(x));
}

fn put_index(o: &mut Vec<u8>, x: usize) {
    push_u64(o, x as u64);
}

/// Writes array `k` whole.
fn list<T>(o: &mut Vec<u8>, k: &str, xs: impl Iterator<Item = T>, put: fn(&mut Vec<u8>, T)) {
    key(o, k);
    o.push(b'[');
    for (i, x) in xs.enumerate() {
        if i > 0 {
            o.push(b',');
        }
        put(o, x);
    }
    o.push(b']');
}

/// Writes one `[index, value]` pair of a delta array, after a comma unless
/// it is the array's `first`.
fn pair_of<T>(o: &mut Vec<u8>, first: &mut bool, i: usize, x: T, put: fn(&mut Vec<u8>, T)) {
    if !std::mem::take(first) {
        o.push(b',');
    }
    o.push(b'[');
    put_index(o, i);
    o.push(b',');
    put(o, x);
    o.push(b']');
}

/// Writes array `k` whole, or — given the previous record's copy of it —
/// as the `[index, value]` pairs that differ from that copy, updating the
/// copy. Entries past the copy's end are new and always written.
fn array<T: Copy + PartialEq>(
    o: &mut Vec<u8>,
    k: &str,
    xs: impl Iterator<Item = T>,
    last: Option<&mut Vec<T>>,
    put: fn(&mut Vec<u8>, T),
) {
    let Some(last) = last else {
        return list(o, k, xs, put);
    };
    key(o, k);
    o.push(b'[');
    let mut first = true;
    for (i, x) in xs.enumerate() {
        match last.get_mut(i) {
            Some(old) if *old == x => continue,
            Some(old) => *old = x,
            None => last.push(x),
        }
        pair_of(o, &mut first, i, x, put);
    }
    o.push(b']');
}

/// Writes per-item array `k` as [`array`] does, except that a delta given
/// the entries `at` (ascending; a repeat compares equal the second time)
/// diffs only those: every other entry is unchanged since `last`.
fn per_item<T: Copy + PartialEq>(
    o: &mut Vec<u8>,
    k: &str,
    xs: &[T],
    last: Option<&mut Vec<T>>,
    at: Option<&[usize]>,
    put: fn(&mut Vec<u8>, T),
) {
    let (last, at) = match (last, at) {
        (Some(last), Some(at)) => (last, at),
        (last, _) => return array(o, k, xs.iter().copied(), last, put),
    };
    key(o, k);
    o.push(b'[');
    let mut first = true;
    for &i in at {
        if last[i] != xs[i] {
            last[i] = xs[i];
            pair_of(o, &mut first, i, xs[i], put);
        }
    }
    o.push(b']');
}

impl Executor<'_> {
    /// Renders a full record, or, given the state the previous record
    /// captured, the delta against it (advancing `last` to this state).
    /// A delta diffs the per-item arrays only at the items `touched` lists.
    pub(super) fn render(&self, mut last: Option<&mut Recorded>) -> String {
        let (disks, items) = (self.bw.len(), self.fates.len());
        let touched = last
            .as_ref()
            .and_then(|_| self.touched.entries(&self.roots));
        let at_item = touched.as_ref().map(|(item, _)| item.as_slice());
        let at_root = touched.as_ref().map(|(_, root)| root.as_slice());
        // Bytes per entry of the widest encodings (a quoted 20-digit bit
        // pattern, a `"delivered-redirected"` fate, a residual item's
        // endpoints, round and root); a delta is a small fraction of that.
        let full = 128
            + 72 * disks
            + 40 * items
            + 24 * self.cur_problem.num_items()
            + 24 * self.round_durations.len();
        let mut o = Vec::with_capacity(if last.is_some() { full / 8 } else { full });
        o.extend_from_slice(b"{\"schema\": \"");
        o.extend_from_slice(CHECKPOINT_SCHEMA.as_bytes());
        o.push(b'"');
        if let Some(l) = last.as_deref_mut() {
            l.deltas += 1;
            int(&mut o, "delta", l.deltas);
        }
        int(&mut o, "disks", disks as u64);
        int(&mut o, "items", items as u64);
        int(&mut o, "executed_rounds", self.round_durations.len() as u64);
        let bw = self.bw.iter().map(|x| x.to_bits());
        array(
            &mut o,
            "bw",
            bw,
            last.as_deref_mut().map(|l| &mut l.bw),
            put_bits,
        );
        let crashed = self.crashed.iter().copied();
        let l = last.as_deref_mut().map(|l| &mut l.crashed);
        array(&mut o, "crashed", crashed, l, put_flag);
        let replacement = self.replacement_of.iter().copied();
        let l = last.as_deref_mut().map(|l| &mut l.replacement);
        array(&mut o, "replacement", replacement, l, put_replacement);
        int(&mut o, "next_fault", self.next_fault as u64);
        let l = last.as_deref_mut().map(|l| &mut l.fates);
        per_item(&mut o, "fates", &self.fates, l, at_root, put_fate);
        let l = last.as_deref_mut().map(|l| &mut l.attempts);
        per_item(&mut o, "attempts", &self.attempts, l, at_root, put_u32);
        let l = last.as_deref_mut().map(|l| &mut l.redirected);
        per_item(
            &mut o,
            "redirected",
            &self.redirected_flag,
            l,
            at_root,
            put_flag,
        );
        if last.is_none() {
            // The residual instance: endpoints flat [u0, v0, u1, v1, ...],
            // transfer constraints, and the full current schedule. Only a
            // replan changes it, and a replan starts a full record.
            let g = self.cur_problem.graph();
            let ends = (0..g.num_edges()).flat_map(|e| {
                let ep = g.endpoints(EdgeId::new(e));
                [ep.u.index(), ep.v.index()]
            });
            list(&mut o, "cur_edges", ends, put_index);
            let caps = self.cur_problem.capacities().as_slice().iter().copied();
            list(&mut o, "cur_caps", caps, put_u32);
            key(&mut o, "cur_rounds");
            o.push(b'[');
            for (i, round) in self.cur_schedule.rounds().iter().enumerate() {
                if i > 0 {
                    o.push(b',');
                }
                o.push(b'[');
                for (j, e) in round.iter().enumerate() {
                    if j > 0 {
                        o.push(b',');
                    }
                    put_index(&mut o, e.index());
                }
                o.push(b']');
            }
            o.push(b']');
            list(&mut o, "roots", self.roots.iter().copied(), put_index);
        }
        let l = last.as_deref_mut().map(|l| &mut l.done);
        per_item(&mut o, "done", &self.done, l, at_item, put_flag);
        key(&mut o, "base");
        put_bits(&mut o, self.base.to_bits());
        // Grow-only: a delta carries the rounds executed since `last`.
        let from = last.as_deref_mut().map_or(0, |l| {
            std::mem::replace(&mut l.executed_rounds, self.round_durations.len())
        });
        let tail = self.round_durations[from..].iter().map(|x| x.to_bits());
        list(&mut o, "round_durations", tail, put_bits);
        let busy = self.disk_busy.iter().map(|x| x.to_bits());
        let l = last.as_deref_mut().map(|l| &mut l.disk_busy);
        array(&mut o, "disk_busy", busy, l, put_bits);
        key(&mut o, "volume");
        put_bits(&mut o, self.volume.to_bits());
        int(&mut o, "replans", self.replans);
        int(&mut o, "retries", self.retries);
        int(&mut o, "crashes", self.crashes);
        int(&mut o, "redirects", self.redirects);
        int(&mut o, "degraded_rounds", self.degraded_rounds);
        let (recent, next) = self.stall.window();
        let l = last.as_deref_mut().map(|l| &mut l.stall_recent);
        array(&mut o, "stall_recent", recent.iter().copied(), l, put_bits);
        int(&mut o, "stall_next", next as u64);
        let degraded = self.degraded_at_last_replan.iter().copied();
        let l = last.map(|l| &mut l.degraded_set);
        array(&mut o, "degraded_set", degraded, l, put_flag);
        int(&mut o, "crash_dirty", u64::from(self.crash_dirty));
        int(&mut o, "round_idx", self.round_idx as u64);
        o.push(b'}');
        String::from_utf8(o).expect("records are ASCII")
    }
}

// --- decode ---------------------------------------------------------------

/// Why one value did not decode. It becomes an error message, labelled
/// with the member and element it came from, only when it is returned.
#[derive(Debug)]
enum Bad {
    NotNumber,
    NotExact(f64),
    OverflowsUsize,
    OverflowsU32(u64),
    OutOfRange(f64),
    NotString,
    UnknownFate(String),
    NotU64(String),
    NotArray,
    NotPair,
}

impl Bad {
    fn at(self, what: &str) -> ExecError {
        ck_err(match self {
            Bad::NotNumber => format!("{what} is not a number"),
            Bad::NotExact(x) => format!("{what}: {x} is not an exact non-negative integer"),
            Bad::OverflowsUsize => format!("{what} overflows usize"),
            Bad::OverflowsU32(x) => format!("{what} = {x} overflows u32"),
            Bad::OutOfRange(x) => format!("{what} = {x} is out of range"),
            Bad::NotString => format!("{what} is not a string"),
            Bad::UnknownFate(code) => format!("{what}: unknown fate code `{code}`"),
            Bad::NotU64(s) => format!("{what}: `{s}` is not a u64"),
            Bad::NotArray => format!("{what} is not an array"),
            Bad::NotPair => format!("{what} is not an [index, value] pair"),
        })
    }

    fn at_element(self, key: &str, i: usize) -> ExecError {
        self.at(&format!("{key}[{i}]"))
    }
}

/// A number, with booleans read as 0/1.
fn number(t: &Token<'_>) -> Result<f64, Bad> {
    match t {
        Token::Number(n) => Ok(n.as_f64()),
        Token::Bool(b) => Ok(f64::from(u8::from(*b))),
        _ => Err(Bad::NotNumber),
    }
}

fn string<'x>(t: &'x Token<'_>) -> Result<&'x str, Bad> {
    match t {
        Token::String(s) => Ok(s),
        _ => Err(Bad::NotString),
    }
}

/// An exact non-negative integer (f64s are exact to 2^53, far beyond any
/// count the executor tracks).
fn count(t: &Token<'_>) -> Result<u64, Bad> {
    // Plain digits, the form records write, need no float checks.
    if let Token::Number(n) = t {
        if let Some(v) = n.as_small_uint() {
            return Ok(v);
        }
    }
    let x = number(t)?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0) {
        return Err(Bad::NotExact(x));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(x as u64)
}

fn index(n: u64) -> Result<usize, Bad> {
    usize::try_from(n).map_err(|_| Bad::OverflowsUsize)
}

fn small(n: u64) -> Result<u32, Bad> {
    u32::try_from(n).map_err(|_| Bad::OverflowsU32(n))
}

fn flag(n: u64) -> Result<bool, Bad> {
    Ok(n != 0)
}

fn fate(code: &str) -> Result<Option<ItemFate>, Bad> {
    if code == "pending" {
        return Ok(None);
    }
    ItemFate::from_code(code)
        .map(Some)
        .ok_or_else(|| Bad::UnknownFate(code.to_string()))
}

/// A crashed disk's replacement: `-1` for none, else a disk below `n`.
fn replacement(x: f64, n: usize) -> Result<Option<NodeId>, Bad> {
    if x == -1.0 {
        return Ok(None);
    }
    #[allow(clippy::cast_precision_loss)]
    if !(x.fract() == 0.0 && x >= 0.0 && x < n as f64) {
        return Err(Bad::OutOfRange(x));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(Some(NodeId::new(x as usize)))
}

/// A `u64` carried as a decimal string (JSON numbers are exact only to
/// 2^53).
fn word(s: &str) -> Result<u64, Bad> {
    s.parse().map_err(|_| Bad::NotU64(s.to_string()))
}

fn bits(s: &str) -> Result<f64, Bad> {
    word(s).map(f64::from_bits)
}

/// A decoded element, or why it did not decode; `Err` when the record
/// itself breaks the JSON grammar.
type Decoded<T> = Result<Result<T, Bad>, ParseError>;

/// Reads the next value whole and decodes it from its first token.
fn token<'t, T>(
    r: &mut Reader<'t>,
    decode: impl FnOnce(&Token<'t>) -> Result<T, Bad>,
) -> Decoded<T> {
    let t = r.value()?;
    let v = decode(&t);
    r.skip(&t)?;
    Ok(v)
}

/// Reads an element that holds a count: a plain digit run through the
/// reader's fast path, any other value through its token, as [`count`]
/// reads it; `of` types the count.
fn uint<T>(r: &mut Reader<'_>, of: impl Fn(u64) -> Result<T, Bad>) -> Decoded<T> {
    match r.small_uint_element() {
        Some(n) => Ok(of(n)),
        None => token(r, |t| count(t).and_then(of)),
    }
}

/// Reads an element that holds a string: one without escapes through the
/// reader's fast path, any other value through its token.
fn text<T>(r: &mut Reader<'_>, of: impl Fn(&str) -> Result<T, Bad>) -> Decoded<T> {
    match r.plain_str_element() {
        Some(s) => Ok(of(s)),
        None => token(r, |t| string(t).and_then(of)),
    }
}

/// Reads a `replacement` element: `-1` or a disk below `n`.
fn disk(r: &mut Reader<'_>, n: usize) -> Decoded<Option<NodeId>> {
    #[allow(clippy::cast_precision_loss)]
    match r.small_uint_element() {
        Some(d) => Ok(replacement(d as f64, n)),
        None => token(r, |t| number(t).and_then(|x| replacement(x, n))),
    }
}

/// One round of `cur_rounds`: an array of item ids, each held in a `u32`
/// like every id.
fn round(r: &mut Reader<'_>) -> Decoded<Vec<EdgeId>> {
    let t = r.value()?;
    if t != Token::BeginArray {
        r.skip(&t)?;
        return Ok(Err(Bad::NotArray));
    }
    let (mut ids, mut bad) = (Vec::new(), None);
    while r.next_element()? {
        match uint(r, small)? {
            Ok(e) => ids.push(EdgeId::new(e as usize)),
            Err(b) => {
                bad.get_or_insert(b);
            }
        }
    }
    Ok(bad.map_or(Ok(ids), Err))
}

/// One `[index, value]` pair of a delta array, its value read by `value`.
fn pair<'t, T>(
    mut value: impl FnMut(&mut Reader<'t>) -> Decoded<T>,
) -> impl FnMut(&mut Reader<'t>) -> Decoded<(usize, T)> {
    move |r| {
        let t = r.value()?;
        if t != Token::BeginArray {
            r.skip(&t)?;
            return Ok(Err(Bad::NotPair));
        }
        let (mut i, mut v, mut n) = (Err(Bad::NotPair), Err(Bad::NotPair), 0);
        while r.next_element()? {
            match n {
                0 => i = uint(r, index)?,
                1 => v = value(r)?,
                _ => {
                    let t = r.value()?;
                    r.skip(&t)?;
                }
            }
            n += 1;
        }
        if n != 2 {
            return Ok(Err(Bad::NotPair));
        }
        Ok(i.and_then(|i| v.map(|v| (i, v))))
    }
}

/// An array member as read.
#[derive(Default)]
enum Field<T> {
    /// The key did not occur.
    #[default]
    Missing,
    /// Its value is not an array.
    NotArray,
    /// Its elements, as read.
    List(List<T>),
}

/// The elements of an array member up to the first that did not decode.
struct List<T> {
    items: Vec<T>,
    /// Elements in the array, decoded or not.
    len: usize,
    bad: Option<(usize, Bad)>,
}

impl<T> Field<T> {
    /// Reads the member whose first token is `t`, each element with
    /// `element`.
    fn read<'t>(
        r: &mut Reader<'t>,
        t: &Token<'t>,
        mut element: impl FnMut(&mut Reader<'t>) -> Decoded<T>,
    ) -> Result<Field<T>, ParseError> {
        if *t != Token::BeginArray {
            r.skip(t)?;
            return Ok(Field::NotArray);
        }
        let (mut items, mut len, mut bad) = (Vec::new(), 0, None);
        while r.next_element()? {
            match element(r)? {
                Ok(x) if bad.is_none() => items.push(x),
                Ok(_) => {}
                Err(b) => {
                    bad.get_or_insert((len, b));
                }
            }
            len += 1;
        }
        Ok(Field::List(List { items, len, bad }))
    }

    /// The elements as read, or why the member is not an array.
    fn list(self, key: &str) -> Result<List<T>, ExecError> {
        match self {
            Field::Missing => Err(ck_err(format!("checkpoint missing `{key}`"))),
            Field::NotArray => Err(ck_err(format!("`{key}` is not an array"))),
            Field::List(list) => Ok(list),
        }
    }

    /// The whole array, `want` entries long when given.
    fn take(self, key: &str, want: Option<usize>) -> Result<Vec<T>, ExecError> {
        let List { items, len, bad } = self.list(key)?;
        if let Some(want) = want.filter(|&want| want != len) {
            return Err(ck_err(format!(
                "`{key}` has {len} entries, expected {want}"
            )));
        }
        match bad {
            Some((i, b)) => Err(b.at_element(key, i)),
            None => Ok(items),
        }
    }
}

impl<T> Field<(usize, T)> {
    /// Applies the `[index, value]` pairs to `xs` in order. An index must
    /// address an existing entry; a `grow` array may also append at
    /// exactly its current length.
    fn apply(self, key: &str, xs: &mut Vec<T>, grow: bool) -> Result<(), ExecError> {
        let List { items, bad, .. } = self.list(key)?;
        for (k, (i, v)) in items.into_iter().enumerate() {
            if i < xs.len() {
                xs[i] = v;
            } else if grow && i == xs.len() {
                xs.push(v);
            } else {
                return Err(ck_err(format!(
                    "{key}[{k}]: index {i} is out of range for {} entries",
                    xs.len()
                )));
            }
        }
        bad.map_or(Ok(()), |(k, b)| Err(b.at_element(key, k)))
    }
}

/// The members of a record that are not arrays the record's form knows,
/// in document order: each key with the first token of its value.
struct Scalars<'t>(Vec<(Cow<'t, str>, Token<'t>)>);

impl<'t> Scalars<'t> {
    /// The value of the last member named `key`.
    fn find(&self, key: &str) -> Option<&Token<'t>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, t)| t)
    }

    fn get(&self, key: &str) -> Result<&Token<'t>, ExecError> {
        self.find(key)
            .ok_or_else(|| ck_err(format!("checkpoint missing `{key}`")))
    }

    fn u64(&self, key: &str) -> Result<u64, ExecError> {
        count(self.get(key)?).map_err(|b| b.at(key))
    }

    fn usize(&self, key: &str) -> Result<usize, ExecError> {
        count(self.get(key)?).and_then(index).map_err(|b| b.at(key))
    }

    fn bits(&self, key: &str) -> Result<f64, ExecError> {
        string(self.get(key)?).and_then(bits).map_err(|b| b.at(key))
    }

    fn check_dims(&self, disks: usize, items: usize) -> Result<(), ExecError> {
        let d = self.usize("disks")?;
        if d != disks {
            return Err(ck_err(format!(
                "checkpoint is for a {d}-disk cluster, instance has {disks}"
            )));
        }
        let i = self.usize("items")?;
        if i != items {
            return Err(ck_err(format!(
                "checkpoint accounts {i} items, instance has {items}"
            )));
        }
        Ok(())
    }
}

/// Reads one record line: hands each member to `array`, which reads it
/// and returns `true` when it is an array of the record's form, keeps the
/// first token of every other member, then checks the grammar to the end
/// of the line and the schema tag.
fn read_record<'t>(
    line: &'t str,
    mut array: impl FnMut(&str, &mut Reader<'t>, &Token<'t>) -> Result<bool, ParseError>,
) -> Result<Scalars<'t>, ExecError> {
    let mut scalars = Vec::new();
    let mut r = Reader::new(line.trim());
    let mut members = || -> Result<(), ParseError> {
        let t = r.value()?;
        if t != Token::BeginObject {
            return r.skip(&t);
        }
        while let Some(key) = r.next_key()? {
            let t = r.value()?;
            if !array(&key, &mut r, &t)? {
                r.skip(&t)?;
                scalars.push((key, t));
            }
        }
        Ok(())
    };
    members()
        .and_then(|()| r.finish())
        .map_err(|e| ck_err(format!("unparseable checkpoint: {e}")))?;
    let scalars = Scalars(scalars);
    let schema = match scalars.find("schema") {
        Some(Token::String(s)) => s,
        _ => "",
    };
    if schema != CHECKPOINT_SCHEMA {
        return Err(ck_err(format!(
            "checkpoint schema `{schema}` is not `{CHECKPOINT_SCHEMA}`"
        )));
    }
    Ok(scalars)
}

/// The arrays every record carries. A full record holds them whole, so
/// each type parameter is an element type; a delta holds `[index, value]`
/// pairs, so each is an `(index, element)` pair. `round_durations` is a
/// plain list in both.
#[derive(Default)]
struct Arrays<Bits, Flag, Repl, Fate, Small, Word> {
    bw: Field<Bits>,
    crashed: Field<Flag>,
    replacement: Field<Repl>,
    fates: Field<Fate>,
    attempts: Field<Small>,
    redirected: Field<Flag>,
    done: Field<Flag>,
    disk_busy: Field<Bits>,
    stall_recent: Field<Word>,
    degraded_set: Field<Flag>,
    round_durations: Field<f64>,
}

type FullArrays = Arrays<f64, bool, Option<NodeId>, Option<ItemFate>, u32, u64>;

type DeltaArrays = Arrays<
    (usize, f64),
    (usize, bool),
    (usize, Option<NodeId>),
    (usize, Option<ItemFate>),
    (usize, u32),
    (usize, u64),
>;

/// The residual instance a full record carries besides its arrays.
#[derive(Default)]
struct Residual {
    /// Disk ids, held in a `u32` like every id.
    cur_edges: Field<u32>,
    cur_caps: Field<u32>,
    cur_rounds: Field<Vec<EdgeId>>,
    roots: Field<usize>,
}

impl<'a> Executor<'a> {
    /// Builds an executor from a full record line.
    pub(super) fn from_full(
        problem: &'a MigrationProblem,
        cluster: &Cluster,
        faults: &'a FaultPlan,
        config: &'a ExecutorConfig,
        solver: &'a dyn Solver,
        line: &str,
    ) -> Result<Executor<'a>, ExecError> {
        let n = problem.num_disks();
        let num_roots = problem.num_items();
        let (mut a, mut res) = (FullArrays::default(), Residual::default());
        let scalars = read_record(line, |key, r, t| {
            match key {
                "bw" => a.bw = Field::read(r, t, |r| text(r, bits))?,
                "crashed" => a.crashed = Field::read(r, t, |r| uint(r, flag))?,
                "replacement" => a.replacement = Field::read(r, t, |r| disk(r, n))?,
                "fates" => a.fates = Field::read(r, t, |r| text(r, fate))?,
                "attempts" => a.attempts = Field::read(r, t, |r| uint(r, small))?,
                "redirected" => a.redirected = Field::read(r, t, |r| uint(r, flag))?,
                "done" => a.done = Field::read(r, t, |r| uint(r, flag))?,
                "round_durations" => a.round_durations = Field::read(r, t, |r| text(r, bits))?,
                "disk_busy" => a.disk_busy = Field::read(r, t, |r| text(r, bits))?,
                "stall_recent" => a.stall_recent = Field::read(r, t, |r| text(r, word))?,
                "degraded_set" => a.degraded_set = Field::read(r, t, |r| uint(r, flag))?,
                "cur_edges" => res.cur_edges = Field::read(r, t, |r| uint(r, small))?,
                "cur_caps" => res.cur_caps = Field::read(r, t, |r| uint(r, small))?,
                "cur_rounds" => res.cur_rounds = Field::read(r, t, round)?,
                "roots" => res.roots = Field::read(r, t, |r| uint(r, index))?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if scalars.find("delta").is_some() {
            return Err(ck_err(
                "a delta record needs the full record it extends before it",
            ));
        }
        scalars.check_dims(n, num_roots)?;
        let flat = res.cur_edges.take("cur_edges", None)?;
        if flat.len() % 2 != 0 {
            return Err(ck_err("cur_edges has an odd number of endpoints"));
        }
        let endpoints: Vec<Endpoints> = flat
            .chunks_exact(2)
            .map(|p| Endpoints {
                u: NodeId::new(p[0] as usize),
                v: NodeId::new(p[1] as usize),
            })
            .collect();
        let caps = res.cur_caps.take("cur_caps", Some(n))?;
        let rounds = res.cur_rounds.take("cur_rounds", None)?;
        let (cur_problem, cur_schedule) =
            rebuild_residual(n, &endpoints, Capacities::from_vec(caps), rounds)
                .map_err(|e| ck_err(format!("the residual instance does not rebuild: {e}")))?;
        let residual_items = cur_problem.num_items();
        let roots = res.roots.take("roots", Some(residual_items))?;
        if let Some(&bad) = roots.iter().find(|&&r| r >= num_roots) {
            return Err(ck_err(format!("root {bad} is out of range")));
        }
        let executed = scalars.usize("executed_rounds")?;
        let ticker = RoundTicker::new(cur_schedule.makespan());
        let mut exec = Executor {
            problem,
            faults,
            config,
            solver,
            bw_init: (0..n).map(|v| cluster.bandwidth(NodeId::new(v))).collect(),
            sizes: (0..num_roots)
                .map(|e| cluster.item_size(EdgeId::new(e)))
                .collect(),
            timeline: faults.timeline(),
            flaky_p: faults.flaky.map_or(0.0, |f| f.probability),
            bw: a.bw.take("bw", Some(n))?,
            crashed: a.crashed.take("crashed", Some(n))?,
            replacement_of: a.replacement.take("replacement", Some(n))?,
            fates: a.fates.take("fates", Some(num_roots))?,
            attempts: a.attempts.take("attempts", Some(num_roots))?,
            redirected_flag: a.redirected.take("redirected", Some(num_roots))?,
            cur_problem,
            cur_schedule,
            roots,
            done: a.done.take("done", Some(residual_items))?,
            round_durations: a.round_durations.take("round_durations", Some(executed))?,
            disk_busy: a.disk_busy.take("disk_busy", Some(n))?,
            replans: scalars.u64("replans")?,
            stall: StallDetector::from_window(
                a.stall_recent.take("stall_recent", None)?,
                scalars.usize("stall_next")?,
            ),
            degraded_at_last_replan: a.degraded_set.take("degraded_set", Some(n))?,
            // The scalars every record carries, full or delta.
            next_fault: 0,
            base: 0.0,
            volume: 0.0,
            retries: 0,
            crashes: 0,
            redirects: 0,
            degraded_rounds: 0,
            crash_dirty: false,
            round_idx: 0,
            finished: false,
            ticker,
            recorded: None,
            touched: Touched::new(),
        };
        exec.set_scalars(&scalars)?;
        Ok(exec)
    }

    /// Applies a delta record line, expected to be the `seq`-th of its
    /// chain, on top of the state its predecessor left.
    pub(super) fn apply_delta(&mut self, line: &str, seq: u64) -> Result<(), ExecError> {
        let n = self.bw.len();
        let mut a = DeltaArrays::default();
        let scalars = read_record(line, |key, r, t| {
            match key {
                "bw" => a.bw = Field::read(r, t, pair(|r| text(r, bits)))?,
                "crashed" => a.crashed = Field::read(r, t, pair(|r| uint(r, flag)))?,
                "replacement" => a.replacement = Field::read(r, t, pair(|r| disk(r, n)))?,
                "fates" => a.fates = Field::read(r, t, pair(|r| text(r, fate)))?,
                "attempts" => a.attempts = Field::read(r, t, pair(|r| uint(r, small)))?,
                "redirected" => a.redirected = Field::read(r, t, pair(|r| uint(r, flag)))?,
                "done" => a.done = Field::read(r, t, pair(|r| uint(r, flag)))?,
                "round_durations" => a.round_durations = Field::read(r, t, |r| text(r, bits))?,
                "disk_busy" => a.disk_busy = Field::read(r, t, pair(|r| text(r, bits)))?,
                "stall_recent" => a.stall_recent = Field::read(r, t, pair(|r| text(r, word)))?,
                "degraded_set" => a.degraded_set = Field::read(r, t, pair(|r| uint(r, flag)))?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let got = scalars
            .find("delta")
            .ok_or_else(|| ck_err("a full record can only start a chain"))?;
        let got = count(got).map_err(|b| b.at("delta"))?;
        if got != seq {
            return Err(ck_err(format!(
                "delta {got} does not chain: its predecessor expects delta {seq}"
            )));
        }
        scalars.check_dims(n, self.fates.len())?;
        let replans = scalars.u64("replans")?;
        if replans != self.replans {
            return Err(ck_err(format!(
                "delta {seq} records {replans} replans after {}: a replan starts a full record",
                self.replans
            )));
        }
        let executed = scalars.usize("executed_rounds")?;
        let tail = a.round_durations.take("round_durations", None)?;
        if self.round_durations.len() + tail.len() != executed {
            return Err(ck_err(format!(
                "delta {seq}: {} new round durations do not take {} executed rounds to {executed}",
                tail.len(),
                self.round_durations.len()
            )));
        }
        self.round_durations.extend(tail);
        a.bw.apply("bw", &mut self.bw, false)?;
        a.crashed.apply("crashed", &mut self.crashed, false)?;
        let replacement = &mut self.replacement_of;
        a.replacement.apply("replacement", replacement, false)?;
        a.fates.apply("fates", &mut self.fates, false)?;
        a.attempts.apply("attempts", &mut self.attempts, false)?;
        a.redirected
            .apply("redirected", &mut self.redirected_flag, false)?;
        a.done.apply("done", &mut self.done, false)?;
        a.disk_busy.apply("disk_busy", &mut self.disk_busy, false)?;
        let degraded = &mut self.degraded_at_last_replan;
        a.degraded_set.apply("degraded_set", degraded, false)?;
        // The stall window fills up to its size, then overwrites in place.
        let mut recent = self.stall.window().0.to_vec();
        a.stall_recent.apply("stall_recent", &mut recent, true)?;
        self.stall = StallDetector::from_window(recent, scalars.usize("stall_next")?);
        self.set_scalars(&scalars)
    }

    /// Sets the scalars that full and delta records both carry in full.
    fn set_scalars(&mut self, scalars: &Scalars<'_>) -> Result<(), ExecError> {
        let next_fault = scalars.usize("next_fault")?;
        if next_fault > self.timeline.len() {
            return Err(ck_err(format!(
                "next_fault {next_fault} exceeds the {}-event timeline",
                self.timeline.len()
            )));
        }
        let round_idx = scalars.usize("round_idx")?;
        if round_idx > self.cur_schedule.makespan() {
            return Err(ck_err(format!(
                "round_idx {round_idx} exceeds the {}-round residual schedule",
                self.cur_schedule.makespan()
            )));
        }
        self.next_fault = next_fault;
        self.round_idx = round_idx;
        self.base = scalars.bits("base")?;
        self.volume = scalars.bits("volume")?;
        self.retries = scalars.u64("retries")?;
        self.crashes = scalars.u64("crashes")?;
        self.redirects = scalars.u64("redirects")?;
        self.degraded_rounds = scalars.u64("degraded_rounds")?;
        self.crash_dirty = scalars.usize("crash_dirty")? != 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{LostReason, StepOutcome, DELTA_PREFIX};
    use crate::faults::{CrashFault, DegradeFault, FlakySpec};
    use dmig_core::parallel::ParallelSolver;
    use dmig_core::solver::AutoSolver;
    use dmig_graph::GraphBuilder;
    use proptest::prelude::*;

    // --- the `core::fmt` renderer records were written with before the
    // single-buffer encoder: the oracle the encoder must match byte for
    // byte.

    fn push_list<T: std::fmt::Display>(
        out: &mut String,
        key: &str,
        xs: impl Iterator<Item = T>,
        quote: bool,
    ) {
        use core::fmt::Write as _;
        let _ = write!(out, ", \"{key}\": [");
        for (i, x) in xs.enumerate() {
            if i > 0 {
                out.push(',');
            }
            if quote {
                let _ = write!(out, "\"{x}\"");
            } else {
                let _ = write!(out, "{x}");
            }
        }
        out.push(']');
    }

    fn push_array<T: Copy + PartialEq, D: std::fmt::Display>(
        out: &mut String,
        key: &str,
        xs: impl Iterator<Item = T>,
        last: Option<&mut Vec<T>>,
        show: impl Fn(T) -> D,
        quote: bool,
    ) {
        use core::fmt::Write as _;
        let Some(last) = last else {
            return push_list(out, key, xs.map(show), quote);
        };
        let q = if quote { "\"" } else { "" };
        let _ = write!(out, ", \"{key}\": [");
        let mut first = true;
        for (i, x) in xs.enumerate() {
            match last.get_mut(i) {
                Some(old) if *old == x => continue,
                Some(old) => *old = x,
                None => last.push(x),
            }
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(out, "[{i},{q}{}{q}]", show(x));
        }
        out.push(']');
    }

    #[allow(clippy::too_many_lines)]
    fn oracle_render(x: &Executor<'_>, mut last: Option<&mut Recorded>) -> String {
        use core::fmt::Write as _;
        let mut o = String::from("{");
        let _ = write!(o, "\"schema\": \"{CHECKPOINT_SCHEMA}\"");
        if let Some(l) = last.as_deref_mut() {
            l.deltas += 1;
            let _ = write!(o, ", \"delta\": {}", l.deltas);
        }
        let _ = write!(o, ", \"disks\": {}", x.bw.len());
        let _ = write!(o, ", \"items\": {}", x.fates.len());
        let _ = write!(o, ", \"executed_rounds\": {}", x.round_durations.len());
        push_array(
            &mut o,
            "bw",
            x.bw.iter().map(|x| x.to_bits()),
            last.as_deref_mut().map(|l| &mut l.bw),
            |b| b,
            true,
        );
        push_array(
            &mut o,
            "crashed",
            x.crashed.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.crashed),
            u8::from,
            false,
        );
        push_array(
            &mut o,
            "replacement",
            x.replacement_of.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.replacement),
            |r| r.map_or(-1i64, |d| d.index() as i64),
            false,
        );
        let _ = write!(o, ", \"next_fault\": {}", x.next_fault);
        push_array(
            &mut o,
            "fates",
            x.fates.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.fates),
            |f| f.map_or("pending", ItemFate::code),
            true,
        );
        push_array(
            &mut o,
            "attempts",
            x.attempts.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.attempts),
            |a| a,
            false,
        );
        push_array(
            &mut o,
            "redirected",
            x.redirected_flag.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.redirected),
            u8::from,
            false,
        );
        if last.is_none() {
            let g = x.cur_problem.graph();
            push_list(
                &mut o,
                "cur_edges",
                (0..g.num_edges()).flat_map(|e| {
                    let ep = g.endpoints(EdgeId::new(e));
                    [ep.u.index(), ep.v.index()]
                }),
                false,
            );
            push_list(
                &mut o,
                "cur_caps",
                x.cur_problem.capacities().as_slice().iter().copied(),
                false,
            );
            o.push_str(", \"cur_rounds\": [");
            for (i, round) in x.cur_schedule.rounds().iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push('[');
                for (j, e) in round.iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    let _ = write!(o, "{}", e.index());
                }
                o.push(']');
            }
            o.push(']');
            push_list(&mut o, "roots", x.roots.iter().copied(), false);
        }
        push_array(
            &mut o,
            "done",
            x.done.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.done),
            u8::from,
            false,
        );
        let _ = write!(o, ", \"base\": \"{}\"", x.base.to_bits());
        let from = last.as_deref_mut().map_or(0, |l| {
            std::mem::replace(&mut l.executed_rounds, x.round_durations.len())
        });
        push_list(
            &mut o,
            "round_durations",
            x.round_durations[from..].iter().map(|x| x.to_bits()),
            true,
        );
        push_array(
            &mut o,
            "disk_busy",
            x.disk_busy.iter().map(|x| x.to_bits()),
            last.as_deref_mut().map(|l| &mut l.disk_busy),
            |b| b,
            true,
        );
        let _ = write!(o, ", \"volume\": \"{}\"", x.volume.to_bits());
        let _ = write!(
            o,
            ", \"replans\": {}, \"retries\": {}, \"crashes\": {}, \"redirects\": {}, \"degraded_rounds\": {}",
            x.replans, x.retries, x.crashes, x.redirects, x.degraded_rounds
        );
        let (recent, next) = x.stall.window();
        push_array(
            &mut o,
            "stall_recent",
            recent.iter().copied(),
            last.as_deref_mut().map(|l| &mut l.stall_recent),
            |x| x,
            true,
        );
        let _ = write!(o, ", \"stall_next\": {next}");
        push_array(
            &mut o,
            "degraded_set",
            x.degraded_at_last_replan.iter().copied(),
            last.map(|l| &mut l.degraded_set),
            u8::from,
            false,
        );
        let _ = write!(o, ", \"crash_dirty\": {}", u8::from(x.crash_dirty));
        let _ = write!(o, ", \"round_idx\": {}", x.round_idx);
        o.push('}');
        o
    }

    /// SplitMix64, to fill a state from one proptest seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn flag(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// Counts at the extremes as often as in between.
        fn word(&mut self) -> u64 {
            match self.below(4) {
                0 => u64::MAX,
                1 => self.below(10),
                2 => self.next() >> self.below(64),
                _ => self.next(),
            }
        }

        /// Floats with the bit patterns that render specially.
        fn float(&mut self) -> f64 {
            match self.below(7) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => f64::from_bits(u64::MAX),
                4 => f64::from_bits(self.below(1 << 12)),
                5 => f64::from_bits(self.next()),
                _ => self.below(1 << 20) as f64 / 8.0,
            }
        }
    }

    fn fate(rng: &mut Mix) -> Option<ItemFate> {
        match rng.below(5) {
            0 => None,
            1 => Some(ItemFate::Delivered { redirected: false }),
            2 => Some(ItemFate::Delivered { redirected: true }),
            3 => Some(ItemFate::Lost(LostReason::DeadDisk)),
            _ => Some(ItemFate::Lost(LostReason::RetriesExhausted)),
        }
    }

    /// Redraws each entry of the checkpointed state with probability
    /// `1/every`; round durations only grow, as they do in a run. Per-item
    /// state is written as a run writes it: through a residual item (its
    /// `done` flag, its root's `fates`, `attempts` and `redirected`), which
    /// is noted for the next delta.
    fn scramble(x: &mut Executor<'_>, rng: &mut Mix, every: u64) {
        let n = x.bw.len() as u64;
        for v in &mut x.bw {
            if rng.below(every) == 0 {
                *v = rng.float();
            }
        }
        for v in &mut x.disk_busy {
            if rng.below(every) == 0 {
                *v = rng.float();
            }
        }
        for v in x.crashed.iter_mut().chain(&mut x.degraded_at_last_replan) {
            if rng.below(every) == 0 {
                *v = rng.flag();
            }
        }
        for v in &mut x.replacement_of {
            if rng.below(every) == 0 {
                *v = rng.flag().then(|| NodeId::new(rng.below(n) as usize));
            }
        }
        for e in 0..x.done.len() {
            let root = x.roots[e];
            let mut wrote = false;
            if rng.below(every) == 0 {
                x.done[e] = rng.flag();
                wrote = true;
            }
            if rng.below(every) == 0 {
                x.fates[root] = fate(rng);
                wrote = true;
            }
            if rng.below(every) == 0 {
                x.attempts[root] = if rng.flag() {
                    u32::MAX
                } else {
                    rng.below(5) as u32
                };
                wrote = true;
            }
            if rng.below(every) == 0 {
                x.redirected_flag[root] = rng.flag();
                wrote = true;
            }
            if wrote {
                x.touched.note(EdgeId::new(e), x.fates.len());
            }
        }
        for _ in 0..rng.below(4) {
            x.round_durations.push(rng.float());
        }
        let mut recent = x.stall.window().0.to_vec();
        for v in &mut recent {
            if rng.below(every) == 0 {
                *v = rng.float().to_bits();
            }
        }
        for _ in 0..rng.below(3) {
            recent.push(rng.float().to_bits());
        }
        x.stall = StallDetector::from_window(recent, rng.word() as usize);
        x.next_fault = rng.word() as usize;
        x.round_idx = rng.word() as usize;
        x.base = rng.float();
        x.volume = rng.float();
        x.replans = rng.word();
        x.retries = rng.word();
        x.crashes = rng.word();
        x.redirects = rng.word();
        x.degraded_rounds = rng.word();
        x.crash_dirty = rng.flag();
    }

    /// `journal_record` by the oracle: a full record after a replan, else
    /// the delta against `base`, diffed over every entry.
    fn oracle_record(x: &Executor<'_>, base: &mut Recorded) -> String {
        if base.replans == x.replans {
            return oracle_render(x, Some(base));
        }
        *base = Recorded::of(x, 0);
        oracle_render(x, None)
    }

    /// The inputs of a real run: `disks` live disks and an idle spare,
    /// `items` items between live disks, and one of five fault scenarios:
    /// a crash with the spare as replacement, a crash without one, a
    /// degradation that replans, flaky transfers that exhaust their
    /// retries, and a crash with flaky transfers and no replanning.
    fn scenario(
        seed: u64,
        disks: usize,
        items: usize,
        kind: u64,
    ) -> (MigrationProblem, FaultPlan, ExecutorConfig) {
        let mut rng = Mix(seed);
        let mut b = GraphBuilder::new().nodes(disks + 1);
        for _ in 0..items {
            let u = rng.below(disks as u64) as usize;
            let v = (u + 1 + rng.below(disks as u64 - 1) as usize) % disks;
            b = b.edge(u, v);
        }
        let problem = MigrationProblem::uniform(b.build(), 2).expect("valid instance");
        let crash = |replacement: Option<usize>| CrashFault {
            disk: NodeId::new(seed as usize % disks),
            time: 0.25 + (seed % 4) as f64 * 0.5,
            replacement: replacement.map(NodeId::new),
        };
        let mut faults = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let mut config = ExecutorConfig {
            replan: true,
            ..ExecutorConfig::default()
        };
        match kind {
            0 => faults.crashes.push(crash(Some(disks))),
            1 => faults.crashes.push(crash(None)),
            2 => faults.degradations.push(DegradeFault {
                disk: NodeId::new((seed as usize / 3) % disks),
                time: 0.5,
                factor: 0.25,
                recover_at: Some(4.0),
            }),
            3 => {
                faults.flaky = Some(FlakySpec { probability: 0.6 });
                config.retry_max = 1;
            }
            _ => {
                faults.crashes.push(crash(Some(disks)));
                faults.flaky = Some(FlakySpec { probability: 0.3 });
                config.replan = false;
            }
        }
        (problem, faults, config)
    }

    /// The chain a journal of `records` resumes from: the last full
    /// record and the deltas after it, or every delta from the plan.
    fn chain(records: &[String]) -> String {
        let start = records
            .iter()
            .rposition(|r| !r.starts_with(DELTA_PREFIX))
            .unwrap_or(0);
        records[start..].join("\n")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random states, full records and chains of deltas: the encoder
        /// writes the oracle's bytes and leaves the same diff base, and a
        /// chain that starts at the plan starts at the state `new` built.
        /// Each delta diffs the items noted since the last one, or, after
        /// more notes than items, every item.
        #[test]
        fn records_match_the_fmt_oracle(
            seed in 0u64..=u64::MAX,
            disks in 2usize..12,
            items in 1usize..40,
        ) {
            let mut rng = Mix(seed);
            let mut b = GraphBuilder::new().nodes(disks);
            for _ in 0..items {
                let u = rng.below(disks as u64) as usize;
                let v = (u + 1 + rng.below(disks as u64 - 1) as usize) % disks;
                b = b.edge(u, v);
            }
            let problem = MigrationProblem::uniform(b.build(), 2).expect("valid instance");
            let schedule = AutoSolver.solve(&problem).expect("solvable");
            let bandwidths = (0..disks).map(|_| 0.5 + rng.below(8) as f64).collect();
            let cluster = Cluster::from_bandwidths(bandwidths);
            let (faults, config) = (FaultPlan::default(), ExecutorConfig::default());
            let mut x = Executor::new(&problem, &schedule, &cluster, &faults, &config, &AutoSolver)
                .expect("executor builds");
            // The base a fresh executor's first record is diffed against,
            // rebuilt from the dimensions, is the state `new` built.
            prop_assert_eq!(Recorded::start(&x), Recorded::of(&x, 0));
            scramble(&mut x, &mut rng, 1);
            for v in &mut x.roots {
                *v = rng.word() as usize;
            }
            prop_assert_eq!(x.render(None), oracle_render(&x, None));
            // Only a replan writes `roots`, and a delta never crosses one:
            // the chain runs on a residual map, shuffled so that roots do
            // not ascend with items.
            x.roots = (0..items).collect();
            for i in (1..items).rev() {
                x.roots.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let (mut mine, mut theirs) = (Recorded::of(&x, 0), Recorded::of(&x, 0));
            x.touched.clear();
            for (every, pad) in [(1, 0), (3, items), (10, 0), (1000, 0), (1, 0)] {
                // `pad` notes of one item fill the list, so the notes the
                // scramble adds overflow it and the delta diffs every item.
                for _ in 0..pad {
                    x.touched.note(EdgeId::new(0), items);
                }
                scramble(&mut x, &mut rng, every);
                prop_assert_eq!(
                    x.render(Some(&mut mine)),
                    oracle_render(&x, Some(&mut theirs))
                );
                x.touched.clear();
                prop_assert_eq!(&mine, &theirs);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Real runs at 1 and 4 threads under every fault scenario: each
        /// record `journal_record` writes is the oracle's, uninterrupted
        /// and across a kill after every record, where each session
        /// resumes the journal so far, records, steps once and records;
        /// the chained sessions end with the uninterrupted report.
        #[test]
        fn real_runs_record_what_the_oracle_records(
            seed in 0u64..=u64::MAX,
            disks in 3usize..9,
            items in 4usize..40,
            kind in 0u64..5,
            four in proptest::bool::ANY,
        ) {
            let (problem, faults, config) = scenario(seed, disks, items, kind);
            let solver = ParallelSolver::with_threads(Box::new(AutoSolver), if four { 4 } else { 1 });
            let schedule = solver.solve(&problem).expect("solvable");
            let cluster = Cluster::uniform(disks + 1, 1.0);
            let fresh = || {
                Executor::new(&problem, &schedule, &cluster, &faults, &config, &solver)
                    .expect("executor builds")
            };
            let mut x = fresh();
            let mut base = Recorded::start(&x);
            loop {
                let want = oracle_record(&x, &mut base);
                prop_assert_eq!(x.journal_record(), want);
                if x.step().expect("step") == StepOutcome::Finished {
                    break;
                }
            }
            let report = x.into_report().to_json();

            let mut journal: Vec<String> = Vec::new();
            let resumed = loop {
                let mut x = if journal.is_empty() {
                    fresh()
                } else {
                    Executor::resume(
                        &problem, &schedule, &cluster, &faults, &config, &solver, &chain(&journal),
                    )
                    .expect("the journal resumes")
                };
                let mut base = match &x.recorded {
                    Some(last) => Recorded::of(&x, last.deltas),
                    None => Recorded::start(&x),
                };
                let want = oracle_record(&x, &mut base);
                journal.push(x.journal_record());
                prop_assert_eq!(journal.last().unwrap(), &want);
                if x.step().expect("step") == StepOutcome::Finished {
                    break x.into_report().to_json();
                }
                let want = oracle_record(&x, &mut base);
                journal.push(x.journal_record());
                prop_assert_eq!(journal.last().unwrap(), &want);
            };
            prop_assert_eq!(resumed, report);
        }
    }
}
