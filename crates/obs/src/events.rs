//! Flight recorder: a typed, bounded ring of structured execution events
//! with a streaming JSONL sink and a panic-hook crash dump.
//!
//! The span/counter recorder in this crate answers "where did the time
//! go"; the flight recorder answers "what happened, in order" — which
//! round started when, which item was delivered, retried, or lost, which
//! disk crashed, when the executor replanned. Emitters ([`emit`]) pay a
//! single relaxed atomic load when recording is off, so instrumentation
//! stays in hot paths for free, exactly like the span facade.
//!
//! Three consumers, all fed by the same [`emit`] call:
//!
//! * **the ring** — the last [`DEFAULT_RING_CAPACITY`] events are kept
//!   in memory ([`recent`]); older events are evicted (counted in
//!   [`crate::keys::EVENTS_DROPPED`]). The ring is what a crash dump can
//!   still show after hours of execution.
//! * **the JSONL sink** — when a sink is open every event is rendered as
//!   one schema-versioned [`EVENTS_SCHEMA`] line *before* it enters the
//!   ring, field by field into a buffer the sink keeps, with no temporary
//!   strings. [`append_sink_line`] splices pre-formatted lines (executor
//!   checkpoints) into the same stream, through the same buffer. Two
//!   durability disciplines:
//!   - journal mode ([`open_sink`]) appends to the final path, whose
//!     partial prefix is the recovery record. Lines are held in memory
//!     until a commit writes them with one `write_all` and starts their
//!     `fdatasync` on a helper thread. The commits are grouped:
//!     [`commit_sink`] writes only once the previous commit's `fdatasync`
//!     has returned, and while it runs leaves the lines held, so the next
//!     commit that writes carries every line emitted in the meantime.
//!     [`wait_sink`] blocks until the running `fdatasync` returns, and
//!     [`sync_sink`] waits for it, commits and waits again. So nothing is
//!     written before the previous commit is durable, at most one write is
//!     ever un-synced, and a hard kill loses the lines held since the last
//!     commit that wrote, and can tear only that commit. The sink is never
//!     behind the ring at a [`sync_sink`], a close, or a panic with the
//!     crash hook armed.
//!   - atomic mode ([`open_sink_atomic`]) writes every line as it is
//!     emitted to a temp file that [`close_sink`] fences and publishes by
//!     rename, and [`discard_sink`] removes (report mode — readers never
//!     see a torn file, nor one from a failed run).
//! * **the crash dump** — [`set_crash_path`] installs a chaining panic
//!   hook (once per process); on panic the hook writes a
//!   [`CRASH_SCHEMA`] JSON document with the panic message/location, the
//!   ring contents rendered by the *same* serializer as the sink lines,
//!   and the names of all spans still open at panic time.
//!
//! **Determinism:** event payloads carry only simulated-time quantities
//! (round indices, item ids, simulated clocks) — no wall clocks, no
//! thread ids — and [`Event::to_json_line`] formats floats the way
//! [`crate::json::number`] does. The sink writes exactly the bytes of
//! `to_json_line`, in emit order, whenever it writes them. A
//! deterministic emitter therefore produces a
//! byte-identical JSONL stream at any thread count, which
//! `dmig-sim`'s executor proptests pin down.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, Once, OnceLock};
use std::thread::JoinHandle;

use crate::json;
use crate::keys;

/// Schema tag carried by every JSONL sink line.
pub const EVENTS_SCHEMA: &str = "dmig-events/1";

/// Schema tag of the crash-dump document.
pub const CRASH_SCHEMA: &str = "dmig-crash/1";

/// Default number of events the in-memory ring retains.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// One structured execution event. All times are in simulated time units
/// (the unit item-size / unit-bandwidth clock of `dmig-sim`).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A round began executing.
    RoundStart {
        /// Monotonic executed-round index (never resets across replans).
        round: u64,
        /// Transfers scheduled in the round.
        transfers: u64,
        /// Simulated clock at the round start.
        time: f64,
    },
    /// A round finished (all its transfers completed, failed, or aborted).
    RoundEnd {
        /// Monotonic executed-round index.
        round: u64,
        /// Simulated duration of the round.
        duration: f64,
        /// Simulated clock at the round end.
        time: f64,
    },
    /// An item reached a destination.
    ItemDelivered {
        /// Original item id (stable across replans).
        item: u64,
        /// Whether a replan moved the item off its planned endpoints.
        redirected: bool,
        /// Simulated clock at delivery.
        time: f64,
    },
    /// An item was lost.
    ItemLost {
        /// Original item id.
        item: u64,
        /// `"dead-disk"` or `"retries-exhausted"`.
        reason: &'static str,
        /// Simulated clock at the loss.
        time: f64,
    },
    /// A flaky transfer failed and was scheduled for retry.
    Retry {
        /// Original item id.
        item: u64,
        /// Attempts made so far (the failed one included).
        attempt: u64,
        /// Simulated clock at which the retry becomes eligible.
        resume_at: f64,
        /// Simulated clock of the failure.
        time: f64,
    },
    /// The executor re-solved the residual problem.
    Replan {
        /// Items still pending at the replan.
        pending: u64,
        /// Trigger: `"crash"`, `"degraded-set"`, `"stall"`, or
        /// `"exhausted"`.
        reason: &'static str,
        /// Simulated clock of the replan.
        time: f64,
    },
    /// A disk crash-stopped.
    Crash {
        /// The dead disk.
        disk: u64,
        /// Designated replacement, if any.
        replacement: Option<u64>,
        /// Simulated clock of the crash.
        time: f64,
    },
    /// A round blew past the stall detector's rolling-median threshold.
    Stall {
        /// Round index (monotonic for the executor's simulated-time
        /// detector; engine-local for the wall-clock ticker).
        round: u64,
        /// Duration of the stalled round.
        duration: f64,
        /// Rolling median the duration was compared against.
        median: f64,
        /// Clock at the stall verdict.
        time: f64,
    },
}

impl Event {
    /// The event's kind tag as it appears in the JSONL `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::ItemDelivered { .. } => "item_delivered",
            Event::ItemLost { .. } => "item_lost",
            Event::Retry { .. } => "retry",
            Event::Replan { .. } => "replan",
            Event::Crash { .. } => "crash",
            Event::Stall { .. } => "stall",
        }
    }

    /// The simulated clock the event carries.
    #[must_use]
    pub fn time(&self) -> f64 {
        match self {
            Event::RoundStart { time, .. }
            | Event::RoundEnd { time, .. }
            | Event::ItemDelivered { time, .. }
            | Event::ItemLost { time, .. }
            | Event::Retry { time, .. }
            | Event::Replan { time, .. }
            | Event::Crash { time, .. }
            | Event::Stall { time, .. } => *time,
        }
    }

    /// Renders the event as one JSONL line (no trailing newline). The
    /// crash dump embeds events through this same function, so a dump's
    /// last event is byte-equal to the last sink line.
    #[must_use]
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut out = Vec::new();
        self.write_json_line(seq, &mut out);
        String::from_utf8(out).expect("event lines are UTF-8")
    }

    /// Appends [`to_json_line`](Self::to_json_line)`(seq)` to `out`, field
    /// by field, with integers through [`json::push_u64`].
    fn write_json_line(&self, seq: u64, out: &mut Vec<u8>) {
        fn int(out: &mut Vec<u8>, key: &str, v: u64) {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            json::push_u64(out, v);
        }
        fn num(out: &mut Vec<u8>, key: &str, v: f64) {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            json::push_number(out, v);
        }
        fn text(out: &mut Vec<u8>, key: &str, v: &str) {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":\"");
            out.extend_from_slice(v.as_bytes());
            out.push(b'"');
        }
        out.extend_from_slice(b"{\"schema\":\"");
        out.extend_from_slice(EVENTS_SCHEMA.as_bytes());
        out.push(b'"');
        int(out, "seq", seq);
        text(out, "kind", self.kind());
        num(out, "t", self.time());
        match *self {
            Event::RoundStart {
                round, transfers, ..
            } => {
                int(out, "round", round);
                int(out, "transfers", transfers);
            }
            Event::RoundEnd {
                round, duration, ..
            } => {
                int(out, "round", round);
                num(out, "duration", duration);
            }
            Event::ItemDelivered {
                item, redirected, ..
            } => {
                int(out, "item", item);
                out.extend_from_slice(if redirected {
                    b",\"redirected\":true"
                } else {
                    b",\"redirected\":false"
                });
            }
            Event::ItemLost { item, reason, .. } => {
                int(out, "item", item);
                text(out, "reason", reason);
            }
            Event::Retry {
                item,
                attempt,
                resume_at,
                ..
            } => {
                int(out, "item", item);
                int(out, "attempt", attempt);
                num(out, "resume_at", resume_at);
            }
            Event::Replan {
                pending, reason, ..
            } => {
                int(out, "pending", pending);
                text(out, "reason", reason);
            }
            Event::Crash {
                disk, replacement, ..
            } => {
                int(out, "disk", disk);
                match replacement {
                    Some(r) => int(out, "replacement", r),
                    None => out.extend_from_slice(b",\"replacement\":null"),
                }
            }
            Event::Stall {
                round,
                duration,
                median,
                ..
            } => {
                int(out, "round", round);
                num(out, "duration", duration);
                num(out, "median", median);
            }
        }
        out.push(b'}');
    }
}

/// Running totals of the recorder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events emitted since the last [`reset`].
    pub emitted: u64,
    /// Events evicted from the ring (still present in the sink, if one
    /// was open when they were emitted).
    pub dropped: u64,
}

/// The helper thread a journal-mode sink hands its `fdatasync`s to, so a
/// commit returns as soon as its bytes are written and the caller decides
/// when to wait for them to be durable.
struct Syncer {
    /// One `()` per commit; dropping the sender ends the thread's loop.
    requests: mpsc::Sender<()>,
    /// One `fdatasync` result per request, in order.
    results: mpsc::Receiver<io::Result<()>>,
    thread: JoinHandle<()>,
    /// Whether a request is out whose result has not been taken by
    /// [`wait`](Self::wait).
    in_flight: bool,
    /// The in-flight request's result, once [`running`](Self::running)
    /// has seen it arrive.
    returned: Option<io::Result<()>>,
}

impl Syncer {
    /// Starts the thread; each request runs `sync`, the `fdatasync` of the
    /// sink's file.
    fn spawn(mut sync: impl FnMut() -> io::Result<()> + Send + 'static) -> io::Result<Syncer> {
        let (requests, inbox) = mpsc::channel::<()>();
        let (outbox, results) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("dmig-journal-sync".to_string())
            .spawn(move || {
                while inbox.recv().is_ok() {
                    if outbox.send(sync()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Syncer {
            requests,
            results,
            thread,
            in_flight: false,
            returned: None,
        })
    }

    /// Starts one `fdatasync` of everything written so far.
    fn start(&mut self) -> io::Result<()> {
        self.requests.send(()).map_err(|_| sync_thread_gone())?;
        self.in_flight = true;
        Ok(())
    }

    /// Whether the in-flight `fdatasync` is still running. Never blocks; a
    /// result that has arrived is kept for [`wait`](Self::wait).
    fn running(&mut self) -> bool {
        if !self.in_flight || self.returned.is_some() {
            return false;
        }
        self.returned = match self.results.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => return true,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(sync_thread_gone())),
        };
        false
    }

    /// Blocks until the in-flight `fdatasync`, if any, returns its result.
    fn wait(&mut self) -> io::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        match self.returned.take() {
            Some(result) => result,
            None => self.results.recv().map_err(|_| sync_thread_gone())?,
        }
    }

    /// Ends the thread after the `fdatasync` it is running, if any.
    fn shut_down(self) {
        drop(self.requests);
        // The loop cannot panic; a join error would only repeat that.
        let _ = self.thread.join();
    }
}

fn sync_thread_gone() -> io::Error {
    io::Error::other("the journal sync thread has exited")
}

/// How a sink's lines reach its file.
enum Mode {
    /// Journal mode ([`open_sink`]): lines are held in memory until a
    /// commit writes them with one `write_all` and starts their
    /// `fdatasync` on the syncer's thread.
    Journal(Syncer),
    /// Atomic mode ([`open_sink_atomic`]): every line is written as it is
    /// emitted to the temp file, which [`close_sink`] renames to the final
    /// path.
    Atomic { temp: PathBuf, path: PathBuf },
}

/// An open JSONL sink.
struct Sink {
    file: File,
    mode: Mode,
    /// Rendered lines, newlines included. In journal mode: every line
    /// since the last commit that wrote. In atomic mode: the line being
    /// written. The buffer is cleared, never freed, so it stops
    /// reallocating once it has held the largest group.
    held: Vec<u8>,
}

impl Sink {
    fn new(file: File, mode: Mode) -> Sink {
        Sink {
            file,
            mode,
            held: Vec::new(),
        }
    }

    /// Renders one line plus its newline into the buffer; atomic mode
    /// writes it at once with one `write_all`. Returns the line's bytes.
    fn push_line(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        let start = self.held.len();
        render(&mut self.held);
        self.held.push(b'\n');
        let len = (self.held.len() - start) as u64;
        if let Mode::Atomic { .. } = self.mode {
            let written = self.file.write_all(&self.held);
            self.held.clear();
            written?;
        }
        Ok(len)
    }

    /// Journal mode: writes the held lines once the previous commit's
    /// `fdatasync` has returned, waiting for it if need be, and starts
    /// theirs on the helper thread. Atomic mode: fences the temp file
    /// synchronously.
    fn commit(&mut self) -> io::Result<()> {
        self.write_held()?;
        match &mut self.mode {
            Mode::Journal(syncer) => syncer.start(),
            Mode::Atomic { .. } => self.file.sync_data(),
        }
    }

    /// Blocks until the last commit's `fdatasync` returns. After a failed
    /// one the held lines are dropped: nothing may follow a record that is
    /// not known to be durable.
    fn wait(&mut self) -> io::Result<()> {
        let Mode::Journal(syncer) = &mut self.mode else {
            return Ok(());
        };
        let synced = syncer.wait();
        if synced.is_err() {
            self.held.clear();
        }
        synced
    }

    /// Writes whatever is held with one `write_all`, without starting an
    /// `fdatasync`, once the in-flight one has returned; a failed one
    /// drops the lines instead, and so does a failed write. Close and the
    /// panic hook call this too, so the file is never behind the ring
    /// when the sink closes or the process panics.
    fn write_held(&mut self) -> io::Result<()> {
        self.wait()?;
        let written = self.file.write_all(&self.held);
        self.held.clear();
        written
    }
}

struct Inner {
    ring: VecDeque<(u64, Event)>,
    capacity: usize,
    seq: u64,
    dropped: u64,
    sink: Option<Sink>,
}

struct EventState {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

fn state() -> &'static EventState {
    static STATE: OnceLock<EventState> = OnceLock::new();
    STATE.get_or_init(|| EventState {
        enabled: AtomicBool::new(false),
        inner: Mutex::new(Inner {
            ring: VecDeque::with_capacity(DEFAULT_RING_CAPACITY),
            capacity: DEFAULT_RING_CAPACITY,
            seq: 0,
            dropped: 0,
            sink: None,
        }),
    })
}

fn lock() -> std::sync::MutexGuard<'static, Inner> {
    state()
        .inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the flight recorder is collecting (process-global; default
/// off, independent of the span recorder).
#[must_use]
pub fn is_enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Turns event collection on or off.
pub fn set_enabled(enabled: bool) {
    state().enabled.store(enabled, Ordering::Relaxed);
}

/// Clears the ring and the sequence/dropped counters. The sink (if open)
/// and the enabled flag are left alone.
pub fn reset() {
    let mut inner = lock();
    inner.ring.clear();
    inner.seq = 0;
    inner.dropped = 0;
}

/// Resizes the ring (existing oldest events are evicted if over the new
/// capacity). Capacity is clamped to at least 1.
pub fn set_ring_capacity(capacity: usize) {
    let mut inner = lock();
    inner.capacity = capacity.max(1);
    while inner.ring.len() > inner.capacity {
        inner.ring.pop_front();
        inner.dropped += 1;
    }
}

/// Opens (or creates) `path` as the JSONL sink in journal mode, the
/// *durable* mode the migration workspace's write-ahead journal relies
/// on. Lines are appended to the final file, but only at a commit that
/// writes ([`commit_sink`], [`sync_sink`]) or when the sink closes; until
/// then each event is held in memory in the order it entered the ring.
///
/// # Errors
///
/// Propagates the underlying `open` failure, or the failure to start the
/// sink's `fdatasync` thread.
pub fn open_sink(path: &str) -> io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let synced = file.try_clone()?;
    let mode = Mode::Journal(Syncer::spawn(move || synced.sync_data())?);
    replace_sink(Some(Sink::new(file, mode)), true);
    Ok(())
}

/// Opens the JSONL sink in *atomic* mode: lines stream to `<path>.tmp`
/// as they are emitted, and [`close_sink`] publishes the finished file
/// with one rename, so a killed process never leaves a half-written
/// document at `path`. Use this for report-style outputs
/// (`--events-out`); use [`open_sink`] for journals, where the partial
/// prefix is exactly what resume wants.
///
/// # Errors
///
/// Propagates the underlying `create` failure.
pub fn open_sink_atomic(path: &str) -> io::Result<()> {
    let temp = PathBuf::from(format!("{path}.tmp"));
    let file = File::create(&temp)?;
    let mode = Mode::Atomic {
        temp,
        path: PathBuf::from(path),
    };
    replace_sink(Some(Sink::new(file, mode)), true);
    Ok(())
}

/// Closes the sink, if one is open. A journal-mode sink first waits for
/// its in-flight `fdatasync` and then writes the lines it holds (unfenced);
/// an atomic-mode sink is fenced with `fdatasync` and published to its
/// final path by rename (a failed fence publishes nothing). Events keep
/// flowing to the ring.
pub fn close_sink() {
    replace_sink(None, true);
}

/// Closes the sink without publishing it, for a run that failed: an
/// atomic-mode sink's temp file is removed and whatever is at its final
/// path stays as it was. A journal-mode sink closes as with
/// [`close_sink`], since its file is the recovery record.
pub fn discard_sink() {
    replace_sink(None, false);
}

/// Installs `next` as the sink and closes the previous one, outside the
/// lock, so waiting on its `fdatasync` never blocks an emitter. An
/// atomic-mode sink is published when `publish` holds, else removed.
fn replace_sink(next: Option<Sink>, publish: bool) {
    let Some(mut sink) = std::mem::replace(&mut lock().sink, next) else {
        return;
    };
    let _ = sink.write_held();
    match sink.mode {
        Mode::Journal(syncer) => syncer.shut_down(),
        Mode::Atomic { temp, path } => {
            // Fence the data before the rename publishes the name, as
            // `fsio::stage` does.
            let fenced = publish && sink.file.sync_data().is_ok();
            drop(sink.file);
            let _ = if fenced {
                std::fs::rename(temp, path)
            } else {
                std::fs::remove_file(temp)
            };
        }
    }
}

/// Group-commits the sink, without blocking. Once the previous commit's
/// `fdatasync` has returned, it writes every held line with one
/// `write_all`, starts their `fdatasync` on the sink's helper thread, and
/// returns `true`. While that `fdatasync` still runs, it returns `false`
/// and leaves the lines held, so the next commit that writes carries every
/// line emitted in the meantime. Either way no byte held after a commit
/// reaches the file before that commit is durable. An atomic-mode sink is
/// fenced synchronously instead.
///
/// # Errors
///
/// Propagates the previous `fdatasync`'s or the write's failure; the held
/// lines are dropped then. A no-op `Ok(false)` when no sink is open.
pub fn commit_sink() -> io::Result<bool> {
    lock().sink.as_mut().map_or(Ok(false), |sink| {
        if let Mode::Journal(syncer) = &mut sink.mode {
            if syncer.running() {
                return Ok(false);
            }
        }
        sink.commit().map(|()| true)
    })
}

/// Blocks until the last commit's `fdatasync` returns, and hands back its
/// result. After it, a [`commit_sink`] always writes.
///
/// # Errors
///
/// Propagates the `fdatasync` failure; the lines held since that commit
/// are dropped then, because nothing may follow a record that is not known
/// to be on stable storage. A no-op `Ok` when no sink is open or nothing
/// is in flight.
pub fn wait_sink() -> io::Result<()> {
    lock().sink.as_mut().map_or(Ok(()), Sink::wait)
}

/// [`wait_sink`], a commit that writes every held line, and
/// [`wait_sink`] again: every line emitted so far is on stable storage
/// when this returns `Ok`.
///
/// # Errors
///
/// As [`commit_sink`] and [`wait_sink`].
pub fn sync_sink() -> io::Result<()> {
    lock()
        .sink
        .as_mut()
        .map_or(Ok(()), |s| s.commit().and_then(|()| s.wait()))
}

/// Appends one pre-formatted line (newline added here) to the sink,
/// bypassing the ring and the event counters — the hook the workspace
/// journal uses to interleave `dmig-exec-ckpt/1` checkpoint lines with
/// the event stream. In journal mode the line is held for the next commit
/// that writes, like an event. Returns the line's bytes, newline included,
/// 0 when no sink is open.
///
/// # Errors
///
/// Propagates an atomic-mode sink's write failure.
pub fn append_sink_line(line: &str) -> io::Result<u64> {
    match lock().sink.as_mut() {
        Some(sink) => sink.push_line(|buf| buf.extend_from_slice(line.as_bytes())),
        None => Ok(0),
    }
}

/// Records one event: appends it to the sink (if open), then to the ring,
/// and bumps the `events.*` counters on the span recorder. A single
/// relaxed load and out when disabled.
pub fn emit(event: Event) {
    if !is_enabled() {
        return;
    }
    let mut evicted = false;
    {
        let mut inner = lock();
        let seq = inner.seq;
        inner.seq += 1;
        if let Some(sink) = inner.sink.as_mut() {
            let _ = sink.push_line(|buf| event.write_json_line(seq, buf));
        }
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
            evicted = true;
        }
        let lost = matches!(event, Event::ItemLost { .. });
        inner.ring.push_back((seq, event));
        if lost {
            crate::counter_add(keys::EVENTS_ITEM_LOST, 1);
        }
    }
    crate::counter_add(keys::EVENTS_EMITTED, 1);
    if evicted {
        crate::counter_add(keys::EVENTS_DROPPED, 1);
    }
}

/// The ring contents, oldest first, each with its sequence number.
#[must_use]
pub fn recent() -> Vec<(u64, Event)> {
    lock().ring.iter().cloned().collect()
}

/// Emitted/dropped totals since the last [`reset`].
#[must_use]
pub fn stats() -> EventStats {
    let inner = lock();
    EventStats {
        emitted: inner.seq,
        dropped: inner.dropped,
    }
}

static CRASH_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static HOOK: Once = Once::new();

/// Sets (or clears) the crash-dump destination and installs the panic
/// hook on first use. While a path is set, any panic writes the lines a
/// journal-mode sink holds and then a [`CRASH_SCHEMA`] document there;
/// the previous hook still runs after.
pub fn set_crash_path(path: Option<PathBuf>) {
    let install = path.is_some();
    *CRASH_PATH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = path;
    if install {
        install_crash_hook();
    }
}

/// Installs the chaining panic hook (idempotent; normally called through
/// [`set_crash_path`]).
pub fn install_crash_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = CRASH_PATH
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            if let Some(path) = path {
                // The sink catches up with the ring first, so its last line
                // is the dump's last event.
                if let Some(sink) = lock().sink.as_mut() {
                    let _ = sink.write_held();
                }
                let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                let location = info
                    .location()
                    .map_or_else(|| "unknown".to_string(), ToString::to_string);
                let _ = std::fs::write(&path, render_crash_dump(&message, &location));
            }
            prev(info);
        }));
    });
}

/// Renders the crash-dump document: panic message/location, the names of
/// spans still open on the span recorder, and the ring contents (each
/// event rendered exactly as its sink line).
#[must_use]
pub fn render_crash_dump(message: &str, location: &str) -> String {
    use std::fmt::Write as _;
    let stats = stats();
    let mut out = format!(
        "{{\"schema\":\"{CRASH_SCHEMA}\",\"message\":{},\"location\":{}",
        json::string(message),
        json::string(location)
    );
    let _ = write!(
        out,
        ",\"events_emitted\":{},\"ring_dropped\":{}",
        stats.emitted, stats.dropped
    );
    out.push_str(",\"open_spans\":[");
    let mut open = Vec::new();
    collect_open_spans(&crate::snapshot().spans, &mut open);
    for (i, name) in open.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::string(name));
    }
    out.push_str("],\"events\":[");
    for (i, (seq, ev)) in recent().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ev.to_json_line(*seq));
    }
    out.push_str("]}\n");
    out
}

fn collect_open_spans(nodes: &[crate::SpanNode], out: &mut Vec<String>) {
    for n in nodes {
        if n.duration_ns.is_none() {
            out.push(match &n.label {
                Some(l) => format!("{} {l}", n.name),
                None => n.name.clone(),
            });
        }
        collect_open_spans(&n.children, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::MutexGuard;

    /// Event state is process-global; tests in this binary serialize on
    /// this lock and restore the disabled/empty state on exit.
    fn events_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            set_enabled(false);
            close_sink();
            set_crash_path(None);
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            reset();
        }
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dmig-obs-events-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn disabled_recorder_ignores_emit() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        set_enabled(false);
        emit(Event::RoundStart {
            round: 0,
            transfers: 1,
            time: 0.0,
        });
        assert_eq!(stats(), EventStats::default());
        assert!(recent().is_empty());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        set_ring_capacity(3);
        set_enabled(true);
        for i in 0..5 {
            emit(Event::RoundEnd {
                round: i,
                duration: 1.0,
                time: i as f64,
            });
        }
        let r = recent();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].0, 2, "oldest surviving seq");
        assert_eq!(r[2].0, 4);
        assert_eq!(
            stats(),
            EventStats {
                emitted: 5,
                dropped: 2
            }
        );
    }

    #[test]
    fn sink_streams_one_line_per_event() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("sink.jsonl");
        std::fs::remove_file(&path).ok();
        open_sink(&path).unwrap();
        set_enabled(true);
        emit(Event::Crash {
            disk: 2,
            replacement: Some(3),
            time: 0.25,
        });
        emit(Event::ItemLost {
            item: 7,
            reason: "dead-disk",
            time: 0.5,
        });
        close_sink();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"schema\":\"dmig-events/1\""));
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"kind\":\"crash\""));
        assert!(lines[0].contains("\"replacement\":3"));
        assert!(lines[1].contains("\"reason\":\"dead-disk\""));
        // Each line is balanced JSON.
        for l in &lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_sink_publishes_only_on_close() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("atomic.jsonl");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{path}.tmp")).ok();
        open_sink_atomic(&path).unwrap();
        set_enabled(true);
        emit(Event::RoundStart {
            round: 0,
            transfers: 2,
            time: 0.0,
        });
        sync_sink().unwrap();
        // Mid-stream: the final path does not exist, only the temp does.
        assert!(!std::path::Path::new(&path).exists());
        assert!(std::path::Path::new(&format!("{path}.tmp")).exists());
        close_sink();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"kind\":\"round_start\""));
        // A discarded sink removes its temp and leaves the file as it was.
        open_sink_atomic(&path).unwrap();
        emit(Event::RoundStart {
            round: 1,
            transfers: 1,
            time: 1.0,
        });
        discard_sink();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_lines_interleave_with_events() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("journal.jsonl");
        std::fs::remove_file(&path).ok();
        open_sink(&path).unwrap();
        set_enabled(true);
        emit(Event::RoundEnd {
            round: 0,
            duration: 1.0,
            time: 1.0,
        });
        let n = append_sink_line("{\"schema\":\"dmig-exec-ckpt/1\"}").unwrap();
        assert_eq!(n, 30, "line plus newline");
        sync_sink().unwrap();
        emit(Event::RoundEnd {
            round: 1,
            duration: 1.0,
            time: 2.0,
        });
        close_sink();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"round\":0"));
        assert_eq!(lines[1], "{\"schema\":\"dmig-exec-ckpt/1\"}");
        assert!(lines[2].contains("\"round\":1"));
        // Raw lines bypass the ring and the counters.
        assert_eq!(stats().emitted, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_sink_writes_only_at_commits_and_close() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("held.jsonl");
        std::fs::remove_file(&path).ok();
        open_sink(&path).unwrap();
        set_enabled(true);
        let size = || std::fs::metadata(&path).unwrap().len();
        emit(Event::RoundStart {
            round: 0,
            transfers: 1,
            time: 0.0,
        });
        let record = append_sink_line("{\"schema\":\"dmig-exec-ckpt/1\"}").unwrap();
        assert_eq!(size(), 0, "nothing is written before the first commit");
        assert!(
            commit_sink().unwrap(),
            "nothing is in flight: the commit writes"
        );
        let committed = size();
        assert!(
            committed > record,
            "the commit writes the event and the record"
        );
        emit(Event::RoundEnd {
            round: 0,
            duration: 1.0,
            time: 1.0,
        });
        wait_sink().unwrap();
        assert_eq!(
            size(),
            committed,
            "a line held after a commit waits for the next"
        );
        sync_sink().unwrap();
        let synced = size();
        assert!(synced > committed, "sync_sink writes what is held");
        emit(Event::RoundStart {
            round: 1,
            transfers: 1,
            time: 1.0,
        });
        assert_eq!(size(), synced);
        close_sink();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "close_sink writes what is held: {text}");
        assert!(lines[0].contains("\"kind\":\"round_start\""));
        assert_eq!(lines[1], "{\"schema\":\"dmig-exec-ckpt/1\"}");
        assert!(lines[2].contains("\"kind\":\"round_end\""));
        assert!(lines[3].contains("\"round\":1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_sink_writes_every_line_as_it_is_emitted() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("atomic-lines.jsonl");
        let tmp = format!("{path}.tmp");
        open_sink_atomic(&path).unwrap();
        set_enabled(true);
        let mut written = 0;
        for round in 0..3 {
            let event = Event::RoundEnd {
                round,
                duration: 1.0,
                time: round as f64,
            };
            written += event.to_json_line(round).len() as u64 + 1;
            emit(event);
            assert_eq!(std::fs::metadata(&tmp).unwrap().len(), written);
        }
        close_sink();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), written);
        std::fs::remove_file(&path).ok();
    }

    /// Opens `path` as a journal sink whose every `fdatasync` first waits
    /// until the returned gate is signalled or dropped, so that the test
    /// decides when an `fdatasync` returns.
    fn open_gated_sink(path: &str) -> mpsc::Sender<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        let synced = file.try_clone().unwrap();
        let (gate, opened) = mpsc::channel::<()>();
        let syncer = Syncer::spawn(move || {
            let _ = opened.recv();
            synced.sync_data()
        })
        .unwrap();
        replace_sink(Some(Sink::new(file, Mode::Journal(syncer))), true);
        gate
    }

    /// Lines held while an `fdatasync` runs reach the file exactly once,
    /// in emit order, with the first commit that writes after it returns,
    /// whichever way the race between that commit and the `fdatasync`
    /// goes; `sync_sink` returns with every line written and synced.
    #[test]
    fn grouped_commits_write_each_held_line_once_in_order() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("grouped.jsonl");
        std::fs::remove_file(&path).ok();
        let gate = open_gated_sink(&path);
        let line = |i: usize| format!("{{\"line\": {i}}}\n");
        let hold = |i: usize| {
            append_sink_line(line(i).trim_end()).unwrap();
        };
        let upto = |n: usize| (0..n).map(line).collect::<String>();
        let file = || std::fs::read_to_string(&path).unwrap();

        hold(0);
        assert!(commit_sink().unwrap(), "nothing is in flight: it writes");
        assert_eq!(file(), upto(1));
        // The gate holds that fdatasync, so every commit leaves its lines.
        for i in 1..4 {
            hold(i);
            assert!(
                !commit_sink().unwrap(),
                "commit {i} wrote during an fdatasync"
            );
            assert_eq!(file(), upto(1));
        }
        gate.send(()).unwrap();
        wait_sink().unwrap();
        hold(4);
        assert!(commit_sink().unwrap(), "nothing is in flight after a wait");
        assert_eq!(file(), upto(5), "one commit carries the held group");

        // Ungated, each commit races the previous commit's fdatasync.
        drop(gate);
        let mut written = 5;
        for i in 5..300 {
            hold(i);
            if commit_sink().unwrap() {
                written = i + 1;
            }
            assert_eq!(file(), upto(written), "after commit {i}");
        }
        sync_sink().unwrap();
        assert_eq!(file(), upto(300));
        match &lock().sink.as_ref().unwrap().mode {
            Mode::Journal(syncer) => assert!(!syncer.in_flight, "sync_sink left an fdatasync"),
            Mode::Atomic { .. } => unreachable!(),
        }
        std::fs::remove_file(&path).ok();
    }

    /// `/dev/null` takes writes but refuses `fdatasync` (EINVAL): the
    /// helper thread's error reaches the waiter, not the commit, and the
    /// first grouped commit to see it drops every line held behind it.
    #[cfg(target_os = "linux")]
    #[test]
    fn wait_hands_back_the_fdatasync_error() {
        let _l = events_lock();
        let _c = Cleanup;
        open_sink("/dev/null").unwrap();
        append_sink_line("{}").unwrap();
        assert!(commit_sink().unwrap());
        assert!(wait_sink().is_err());
        assert!(wait_sink().is_ok(), "nothing is in flight after a wait");
        assert!(sync_sink().is_err());

        append_sink_line("{}").unwrap();
        assert!(commit_sink().unwrap(), "nothing is in flight after a sync");
        for _ in 0..3 {
            append_sink_line("{\"held\": true}").unwrap();
        }
        loop {
            match commit_sink() {
                Ok(false) => std::thread::yield_now(),
                Ok(true) => panic!("a commit wrote behind a failed fdatasync"),
                Err(_) => break,
            }
        }
        let held = lock().sink.as_ref().map_or(0, |sink| sink.held.len());
        assert_eq!(held, 0, "the failed fdatasync left the group held");
        assert!(wait_sink().is_ok(), "the failure was handed back once");
    }

    #[test]
    fn sync_without_sink_is_a_noop() {
        let _l = events_lock();
        let _c = Cleanup;
        close_sink();
        sync_sink().unwrap();
        commit_sink().unwrap();
        wait_sink().unwrap();
        assert_eq!(append_sink_line("ignored").unwrap(), 0);
    }

    #[test]
    fn json_lines_cover_every_kind() {
        let events = [
            Event::RoundStart {
                round: 1,
                transfers: 4,
                time: 0.0,
            },
            Event::RoundEnd {
                round: 1,
                duration: 2.0,
                time: 2.0,
            },
            Event::ItemDelivered {
                item: 3,
                redirected: true,
                time: 2.0,
            },
            Event::ItemLost {
                item: 4,
                reason: "retries-exhausted",
                time: 2.0,
            },
            Event::Retry {
                item: 5,
                attempt: 2,
                resume_at: 3.5,
                time: 2.0,
            },
            Event::Replan {
                pending: 6,
                reason: "crash",
                time: 2.0,
            },
            Event::Crash {
                disk: 0,
                replacement: None,
                time: 1.0,
            },
            Event::Stall {
                round: 9,
                duration: 80.0,
                median: 1.0,
                time: 100.0,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let line = e.to_json_line(i as u64);
            assert!(
                line.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{line}"
            );
            assert!(line.contains(&format!("\"seq\":{i}")), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(!line.contains('\n'));
        }
        // The null replacement renders as JSON null.
        assert!(events[6].to_json_line(0).contains("\"replacement\":null"));
    }

    /// The `core::fmt` renderer event lines were written with before the
    /// single-buffer encoder; kept as the oracle the encoder must match
    /// byte for byte.
    fn oracle_line(e: &Event, seq: u64) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"schema\":\"{EVENTS_SCHEMA}\",\"seq\":{seq},\"kind\":\"{}\",\"t\":{}",
            e.kind(),
            json::number(e.time())
        );
        match e {
            Event::RoundStart {
                round, transfers, ..
            } => {
                let _ = write!(out, ",\"round\":{round},\"transfers\":{transfers}");
            }
            Event::RoundEnd {
                round, duration, ..
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"duration\":{}",
                    json::number(*duration)
                );
            }
            Event::ItemDelivered {
                item, redirected, ..
            } => {
                let _ = write!(out, ",\"item\":{item},\"redirected\":{redirected}");
            }
            Event::ItemLost { item, reason, .. } => {
                let _ = write!(out, ",\"item\":{item},\"reason\":\"{reason}\"");
            }
            Event::Retry {
                item,
                attempt,
                resume_at,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"item\":{item},\"attempt\":{attempt},\"resume_at\":{}",
                    json::number(*resume_at)
                );
            }
            Event::Replan {
                pending, reason, ..
            } => {
                let _ = write!(out, ",\"pending\":{pending},\"reason\":\"{reason}\"");
            }
            Event::Crash {
                disk, replacement, ..
            } => {
                let _ = write!(out, ",\"disk\":{disk},\"replacement\":");
                match replacement {
                    Some(r) => {
                        let _ = write!(out, "{r}");
                    }
                    None => out.push_str("null"),
                }
            }
            Event::Stall {
                round,
                duration,
                median,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"duration\":{},\"median\":{}",
                    json::number(*duration),
                    json::number(*median)
                );
            }
        }
        out.push('}');
        out
    }

    /// Counts: small, huge, and the extremes.
    fn word() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(k, x)| match k {
            0 => x % 1000,
            1 => u64::MAX,
            2 => 0,
            _ => x,
        })
    }

    /// Clocks: ordinary values, every bit pattern, and the values `{:.6}`
    /// and the `null` mapping treat specially.
    fn clock() -> impl Strategy<Value = f64> {
        (0u8..9, 0u64..=u64::MAX).prop_map(|(k, x)| match k {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MAX,
            5 => f64::from_bits(x % 4096),
            6 => f64::from_bits(x),
            _ => (x % 1_000_000) as f64 / 64.0,
        })
    }

    fn event() -> impl Strategy<Value = Event> {
        const REASONS: [&str; 4] = ["crash", "dead-disk", "retries-exhausted", "stall"];
        (
            0u8..9,
            (word(), word()),
            (clock(), clock(), clock()),
            proptest::bool::ANY,
            0usize..REASONS.len(),
        )
            .prop_map(|(kind, (a, b), (t, x, y), flag, reason)| {
                let reason = REASONS[reason];
                match kind {
                    0 => Event::RoundStart {
                        round: a,
                        transfers: b,
                        time: t,
                    },
                    1 => Event::RoundEnd {
                        round: a,
                        duration: x,
                        time: t,
                    },
                    2 => Event::ItemDelivered {
                        item: a,
                        redirected: flag,
                        time: t,
                    },
                    3 => Event::ItemLost {
                        item: a,
                        reason,
                        time: t,
                    },
                    4 => Event::Retry {
                        item: a,
                        attempt: b,
                        resume_at: x,
                        time: t,
                    },
                    5 => Event::Replan {
                        pending: a,
                        reason,
                        time: t,
                    },
                    6 => Event::Crash {
                        disk: a,
                        replacement: Some(b),
                        time: t,
                    },
                    7 => Event::Crash {
                        disk: a,
                        replacement: None,
                        time: t,
                    },
                    _ => Event::Stall {
                        round: a,
                        duration: x,
                        median: y,
                        time: t,
                    },
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every kind, every field at its extremes: the encoder writes the
        /// oracle's bytes.
        #[test]
        fn event_lines_match_the_fmt_oracle(e in event(), seq in word()) {
            prop_assert_eq!(e.to_json_line(seq), oracle_line(&e, seq));
        }
    }

    #[test]
    fn crash_dump_embeds_ring_and_open_spans() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        crate::reset();
        crate::set_enabled(true);
        set_enabled(true);
        emit(Event::RoundStart {
            round: 0,
            transfers: 2,
            time: 0.0,
        });
        emit(Event::Crash {
            disk: 1,
            replacement: None,
            time: 0.5,
        });
        let dump = {
            let _open = crate::span("executing");
            render_crash_dump("boom", "executor.rs:1")
        };
        crate::set_enabled(false);
        crate::reset();
        assert!(dump.contains("\"schema\":\"dmig-crash/1\""));
        assert!(dump.contains("\"message\":\"boom\""));
        assert!(dump.contains("\"executing\""), "{dump}");
        // The dump's last event is byte-equal to the sink line for it.
        let last_line = Event::Crash {
            disk: 1,
            replacement: None,
            time: 0.5,
        }
        .to_json_line(1);
        assert!(dump.contains(&last_line), "{dump}");
        assert_eq!(dump.matches('{').count(), dump.matches('}').count());
    }

    #[test]
    fn panic_hook_writes_the_dump() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("crash.json");
        let journal = temp("crash-journal.jsonl");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&journal).ok();
        open_sink(&journal).unwrap();
        set_enabled(true);
        emit(Event::Replan {
            pending: 3,
            reason: "stall",
            time: 7.0,
        });
        set_crash_path(Some(PathBuf::from(&path)));
        // Silence the chained default hook's backtrace for this panic.
        let result = std::panic::catch_unwind(|| panic!("deliberate test panic"));
        assert!(result.is_err());
        set_crash_path(None);
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"schema\":\"dmig-crash/1\""));
        assert!(dump.contains("deliberate test panic"));
        assert!(dump.contains("\"kind\":\"replan\""));
        assert!(dump.contains("\"reason\":\"stall\""));
        // The hook wrote the held line before the sink was closed.
        let held = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(held.lines().count(), 1, "{held}");
        assert!(held.contains("\"kind\":\"replan\""), "{held}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn reset_preserves_sink_and_enabled() {
        let _l = events_lock();
        let _c = Cleanup;
        reset();
        let path = temp("reset.jsonl");
        std::fs::remove_file(&path).ok();
        open_sink(&path).unwrap();
        set_enabled(true);
        emit(Event::RoundStart {
            round: 0,
            transfers: 1,
            time: 0.0,
        });
        reset();
        assert!(is_enabled());
        assert_eq!(stats().emitted, 0);
        emit(Event::RoundStart {
            round: 0,
            transfers: 1,
            time: 0.0,
        });
        close_sink();
        // Both the pre- and post-reset events reached the file; the
        // sequence restarted at 0.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"seq\":0")));
        std::fs::remove_file(&path).ok();
    }
}
