//! The thread-safe recorder behind the crate's facade functions.
//!
//! One process-global [`Recorder`] collects two kinds of telemetry:
//!
//! * **spans** — hierarchical wall-clock intervals. Each thread keeps a
//!   stack of open spans, so nesting is implicit; cross-thread parenting
//!   (a worker attributing its span to the coordinator's span) is explicit
//!   via [`Recorder::span_under`]. Timing uses a monotonic [`Instant`]
//!   epoch shared by every span.
//! * **counters / gauges** — named atomic `u64`s. Counters accumulate;
//!   gauges keep a last-written value or a running maximum.
//!
//! Everything is a no-op while the recorder is disabled (the default): the
//! fast path is a single relaxed atomic load, so instrumented hot loops run
//! at full speed in production. [`Recorder::reset`] bumps a generation
//! counter so span guards that straddle a reset never write into the wrong
//! buffer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::snapshot::{SnapSpan, Snapshot};

/// Identity of an open (or closed) span, usable as an explicit parent for
/// spans started on other threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId {
    pub(crate) generation: u64,
    pub(crate) index: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    pub(crate) name: &'static str,
    pub(crate) label: Option<String>,
    pub(crate) parent: Option<usize>,
    pub(crate) thread: u64,
    pub(crate) start_ns: u64,
    pub(crate) duration_ns: Option<u64>,
}

/// The process-wide telemetry sink. Use [`crate::recorder`] to reach the
/// global instance; tests may leak (`Box::leak`) private instances.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    generation: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
        }
    }
}

/// The process-global recorder.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::default)
}

/// Small dense per-thread ordinal for span attribution (assigned on the
/// thread's first recorded span).
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&o| o)
}

thread_local! {
    /// Stack of open spans on this thread, as `(generation, index)`.
    static SPAN_STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// Whether telemetry is being collected. Every recording call checks
    /// this first with one relaxed load.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off. Disabling does not discard data already
    /// collected.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Discards all spans and zeroes every counter and gauge (registered
    /// names are kept). Open span guards from before the reset detect the
    /// generation change and drop silently.
    pub fn reset(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span buffer poisoned").clear();
        for c in self.counters.read().expect("counter map poisoned").values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().expect("gauge map poisoned").values() {
            g.store(0, Ordering::Relaxed);
        }
    }

    /// Nanoseconds since the recorder's epoch (monotonic): the clock of
    /// every span's `start_ns` and `duration_ns`.
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the current thread's innermost open
    /// span. Returns a guard that closes the span when dropped. No-op (and
    /// allocation-free) while disabled.
    pub fn span(&'static self, name: &'static str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        self.span_inner(name, None, None)
    }

    /// Opens a span with a lazily-computed label (the closure only runs
    /// when the recorder is enabled).
    pub fn span_labeled<F: FnOnce() -> String>(
        &'static self,
        name: &'static str,
        f: F,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        self.span_inner(name, Some(f()), None)
    }

    /// Opens a span under an explicit parent — the cross-thread case: a
    /// coordinator captures [`Recorder::current_span`] before spawning and
    /// workers attribute their spans to it.
    pub fn span_under<F: FnOnce() -> String>(
        &'static self,
        parent: Option<SpanId>,
        name: &'static str,
        f: F,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        self.span_inner(name, Some(f()), parent)
    }

    fn span_inner(
        &'static self,
        name: &'static str,
        label: Option<String>,
        parent: Option<SpanId>,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        let generation = self.generation.load(Ordering::Relaxed);
        let parent_index = match parent {
            Some(p) if p.generation == generation => Some(p.index),
            Some(_) => None,
            None => SPAN_STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|&&(g, _)| g == generation)
                    .map(|&(_, i)| i)
            }),
        };
        let record = SpanRecord {
            name,
            label,
            parent: parent_index,
            thread: thread_ordinal(),
            start_ns: self.now_ns(),
            duration_ns: None,
        };
        let index = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(record);
            spans.len() - 1
        };
        SPAN_STACK.with(|s| s.borrow_mut().push((generation, index)));
        SpanGuard {
            rec: self,
            open: Some(SpanId { generation, index }),
        }
    }

    /// The innermost open span on the calling thread, if any.
    #[must_use]
    pub fn current_span(&self) -> Option<SpanId> {
        if !self.is_enabled() {
            return None;
        }
        let generation = self.generation.load(Ordering::Relaxed);
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(g, _)| g == generation)
                .map(|&(_, index)| SpanId { generation, index })
        })
    }

    fn close_span(&self, id: SpanId) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(g, i)| g == id.generation && i == id.index)
            {
                stack.truncate(pos);
            }
        });
        if self.generation.load(Ordering::Relaxed) != id.generation {
            return; // Reset since the span opened; its record is gone.
        }
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if let Some(rec) = spans.get_mut(id.index) {
            rec.duration_ns = Some(end.saturating_sub(rec.start_ns));
        }
    }

    /// Adds `delta` to the named counter, registering the name on first
    /// use. `delta == 0` still registers (used to pre-declare well-known
    /// keys so exports always contain them).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(c) = self
            .counters
            .read()
            .expect("counter map poisoned")
            .get(name)
        {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        self.counters
            .write()
            .expect("counter map poisoned")
            .entry(name)
            .or_default()
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(g) = self.gauges.read().expect("gauge map poisoned").get(name) {
            g.store(value, Ordering::Relaxed);
            return;
        }
        self.gauges
            .write()
            .expect("gauge map poisoned")
            .entry(name)
            .or_default()
            .store(value, Ordering::Relaxed);
    }

    /// Raises the named gauge to `value` if larger (running maximum).
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(g) = self.gauges.read().expect("gauge map poisoned").get(name) {
            g.fetch_max(value, Ordering::Relaxed);
            return;
        }
        self.gauges
            .write()
            .expect("gauge map poisoned")
            .entry(name)
            .or_default()
            .fetch_max(value, Ordering::Relaxed);
    }

    /// Moves the named gauge by a signed `delta`, clamping at zero on
    /// underflow. For occupancy-style gauges (`live.shard_active`) whose
    /// increments and decrements happen on different threads.
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if !self.is_enabled() {
            return;
        }
        let apply = |g: &AtomicU64| {
            if delta >= 0 {
                g.fetch_add(delta.unsigned_abs(), Ordering::Relaxed);
            } else {
                let d = delta.unsigned_abs();
                let _ = g.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(d))
                });
            }
        };
        if let Some(g) = self.gauges.read().expect("gauge map poisoned").get(name) {
            apply(g);
            return;
        }
        apply(
            self.gauges
                .write()
                .expect("gauge map poisoned")
                .entry(name)
                .or_default(),
        );
    }

    /// A point-in-time copy of everything collected so far.
    ///
    /// # Panics
    ///
    /// Panics if a collecting thread panicked while holding an internal
    /// lock (poisoning).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("counter map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("gauge map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let spans: Vec<SnapSpan> = self
            .spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .map(|r| SnapSpan {
                name: r.name.to_string(),
                label: r.label.clone(),
                parent: r.parent,
                thread: r.thread,
                start_ns: r.start_ns,
                duration_ns: r.duration_ns,
            })
            .collect();
        Snapshot::assemble(counters, gauges, spans)
    }
}

/// Closes its span when dropped. Obtained from the span methods on
/// [`Recorder`]; inert when the recorder was disabled at open time.
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    rec: &'static Recorder,
    open: Option<SpanId>,
}

impl SpanGuard {
    /// The identity of this span, for cross-thread parenting (`None` when
    /// the recorder was disabled at open time).
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.open
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.open.take() {
            self.rec.close_span(id);
        }
    }
}
