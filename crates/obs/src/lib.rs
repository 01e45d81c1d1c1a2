//! Std-only observability for the dmig solver pipeline.
//!
//! The crate provides three primitives behind one process-global,
//! thread-safe [`Recorder`]:
//!
//! * **spans** — hierarchical wall-clock intervals with thread
//!   attribution ([`span`], [`span_labeled`], [`span_under`]);
//! * **counters and gauges** — named atomic `u64`s ([`counter_add`],
//!   [`gauge_set`], [`gauge_max`]);
//! * **histograms** — log₂-bucketed distributions for latencies and
//!   operation counts ([`observe`], [`stopwatch`]).
//!
//! Collection is **off by default** and every recording call starts with a
//! single relaxed atomic load, so instrumentation left in hot paths costs
//! nothing measurable in production (the `obs_overhead` bench in
//! `dmig-bench` holds this to ≤1%). Turn it on with [`set_enabled`], pull
//! the data with [`snapshot`], and render it with
//! [`Snapshot::render_tree`] or [`Snapshot::to_json`].
//!
//! The crate is deliberately dependency-free: the workspace has no
//! crates.io access, so JSON is emitted by hand via the [`json`] helpers.
//!
//! # Example
//!
//! ```
//! let _ = dmig_obs::recorder(); // the shared global instance
//! dmig_obs::set_enabled(true);
//! {
//!     let _solve = dmig_obs::span("solve");
//!     dmig_obs::counter_add(dmig_obs::keys::FLOW_SOLVES, 1);
//!     dmig_obs::observe("dinic.max_flow_ns", 1234);
//! }
//! let snap = dmig_obs::snapshot();
//! assert_eq!(snap.counters["flow_solves"], 1);
//! dmig_obs::set_enabled(false);
//! dmig_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod events;
pub mod explain;
pub mod fsio;
pub mod gate;
pub mod hist;
pub mod history;
pub mod json;
mod recorder;
pub mod sampler;
pub mod serve;
mod snapshot;
pub mod trace;
pub mod value;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{global as recorder, OpenSpan, Recorder, SpanGuard, SpanId, Stopwatch};
pub use snapshot::{Snapshot, SpanNode};
pub use value::Value;

/// Codes stored in the [`keys::LIVE_PHASE`] gauge by the pipeline stages,
/// so a live scrape can tell *where* a run currently is. Monotonically
/// ordered by pipeline position for an ordinary `solve`/`simulate` run.
pub mod phase {
    /// No pipeline stage has reported yet.
    pub const IDLE: u64 = 0;
    /// A solve started; the driver has not partitioned the graph yet.
    pub const SOLVE: u64 = 1;
    /// Solve driver: cell partition (components, cut further under
    /// `--shards`).
    pub const PARTITION: u64 = 2;
    /// Solve driver: per-shard cell solving.
    pub const CELLS: u64 = 3;
    /// Solve driver: merge and boundary-round reconciliation.
    pub const BOUNDARY: u64 = 4;
    /// Simulation / fault-tolerant execution of a schedule.
    pub const SIMULATE: u64 = 5;
    /// Run finished; the final snapshot is what remains.
    pub const DONE: u64 = 6;
}

/// Declares every well-known metric key exactly once: one
/// `NAME = "key", "description";` row yields the [`keys`] constant, its
/// rustdoc, and its row in [`keys_reference`] (and therefore in the README
/// table). Each description is one line and names the metric type.
macro_rules! metric_keys {
    ($($name:ident = $key:literal, $doc:literal;)+) => {
        /// Well-known counter, gauge, and histogram names.
        ///
        /// Naming convention: bare snake_case for pipeline-level totals that
        /// appear in reports (`flow_solves`), and `area.metric` for
        /// subsystem-scoped values (`dinic.bfs_phases`, `sim.rounds`).
        /// Histogram names end in a unit suffix (`_ns`) when they record
        /// time.
        pub mod keys {
            $(
                #[doc = $doc]
                pub const $name: &str = $key;
            )+
        }

        const KEYS_REFERENCE: &[(&str, &str)] = &[$((keys::$name, $doc)),+];
    };
}

metric_keys! {
    FLOW_SOLVES = "flow_solves",
        "Max-flow problems solved while peeling quota levels (counter).";
    EULER_SPLITS = "euler_splits",
        "Euler-split halvings performed by the quota partitioner (counter).";
    WARM_START_HITS = "warm_start_hits",
        "Degree-subgraph units satisfied by the greedy warm start (counter).";
    WARM_START_MISSES = "warm_start_misses",
        "Degree-subgraph units that needed the flow solver (counter).";
    EULER_ORIENTATIONS = "euler_orientations",
        "Euler orientations computed by `solve_even` (counter).";
    EULER_CHUNKS = "euler.chunks",
        "Cycle/ear chunks claimed while labeling pairing cycles; thread-count dependent by design \
         (counter).";
    EULER_STITCHES = "euler.stitches",
        "Chunk junctions merged by the deterministic stitch pass (counter).";
    EULER_PAR_MS = "euler.par_ms",
        "Milliseconds spent inside chunked Euler orientation (counter).";
    QUOTA_MAX_DEPTH = "quota.max_recursion_depth",
        "Deepest recursion reached by the quota partitioner (gauge).";
    DINIC_CALLS = "dinic.calls",
        "Dinic max-flow invocations (counter).";
    DINIC_BFS_PHASES = "dinic.bfs_phases",
        "BFS level-graph phases across all Dinic runs (counter).";
    DINIC_AUGMENTING_PATHS = "dinic.augmenting_paths",
        "Augmenting paths found across all Dinic runs (counter).";
    DINIC_MAX_FLOW_NS = "dinic.max_flow_ns",
        "Per-call Dinic wall time in nanoseconds (histogram).";
    POOL_ACQUIRES = "pool.acquires",
        "Worker permits handed out by the shared thread budget (counter).";
    POOL_ACQUIRE_DENIED = "pool.acquire_denied",
        "Worker-permit requests denied because the budget was spent (counter).";
    POOL_TASKS = "pool.tasks",
        "Subproblem tasks enqueued on the intra-component work pool (counter).";
    POOL_STEALS = "pool.steals",
        "Tasks executed by a worker other than the one that enqueued them (counter).";
    POOL_MAX_WORKERS = "pool.max_workers",
        "Widest worker fan-out a single quota recursion reached (gauge).";
    POOL_MAX_QUEUE_DEPTH = "pool.max_queue_depth",
        "Deepest pending-task queue a quota recursion reached (gauge).";
    SCRATCH_REUSES = "scratch.reuses",
        "Solver scratch arenas reused from the process-wide pool (counter).";
    SCRATCH_ALLOCS = "scratch.allocs",
        "Solver scratch arenas freshly allocated on pool miss (counter).";
    SIM_ROUNDS = "sim.rounds",
        "Rounds executed by the simulation engine (counter).";
    SIM_TRANSFERS = "sim.transfers",
        "Object transfers executed by the simulation engine (counter).";
    SIM_ROUND_TRANSFERS = "sim.round_transfers",
        "Transfers per simulated round (histogram).";
    SIM_ROUND_WALL_NS = "sim.round_wall_ns",
        "Wall-clock nanoseconds the engine spent per round (histogram).";
    SIM_STALLS = "sim.stalls",
        "Rounds whose wall time exceeded the stall threshold (counter).";
    SIM_PROGRESS_PCT = "sim.progress_pct",
        "Percentage of scheduled rounds the engine has executed (gauge).";
    SOLVE_ROUNDS = "solve.rounds",
        "Rounds of the schedule the CLI produced (gauge).";
    SOLVE_LB1 = "solve.lb1",
        "Lower bound Δ' (LB1) of the solved instance (gauge).";
    SOLVE_LB2 = "solve.lb2",
        "Lower bound Γ' (LB2), written with `simulate --explain` from its witness (gauge).";
    EXEC_REPLANS = "exec.replans",
        "Closed-loop replans performed by the fault-tolerant executor (counter).";
    EXEC_RETRIES = "exec.retries",
        "Transfer attempts retried after a flaky failure (counter).";
    EXEC_LOST_ITEMS = "exec.lost_items",
        "Items lost to dead disks or exhausted retries (counter).";
    EXEC_DEGRADED_ROUNDS = "exec.degraded_rounds",
        "Executed rounds with some disk below the degradation threshold (counter).";
    EXEC_REDIRECTS = "exec.redirects",
        "Items rerouted to a replacement disk after a crash-stop (counter).";
    EXEC_CRASHES = "exec.crashes",
        "Crash-stop fault events applied by the executor (counter).";
    EVENTS_EMITTED = "events.emitted",
        "Structured events recorded by the flight recorder (counter).";
    EVENTS_DROPPED = "events.dropped",
        "Events evicted from the flight recorder's bounded ring (counter).";
    EVENTS_ITEM_LOST = "events.item_lost",
        "`ItemLost` events recorded by the flight recorder (counter).";
    EXPLAIN_BINDING_BOUND = "explain.binding_bound",
        "Binding lower bound max(Δ', Γ') = Δ' reported by the attribution engine (gauge).";
    EXPLAIN_LB1_DISK = "explain.lb1_disk",
        "The disk realizing LB1 per the attribution engine (gauge).";
    SHARD_COUNT = "shard.count",
        "Worker shards used by the sharded solve pipeline (gauge).";
    SHARD_CUT_EDGES = "shard.cut_edges",
        "Edges cut to the boundary set by the cell partition (gauge).";
    SHARD_CUT_FRACTION = "shard.cut_fraction",
        "Cut fraction in basis points: `cut_edges * 10000 / total` (gauge).";
    SHARD_RECONCILE_MS = "shard.reconcile_ms",
        "Milliseconds spent merging shard schedules and aligning the boundary rounds (counter).";
    SHARD_BOUNDARY_ROUNDS = "shard.boundary_rounds",
        "Rounds of the boundary pass appended after the cell rounds (gauge).";
    LIVE_PHASE = "live.phase",
        "Current pipeline stage code; see the `phase` module (gauge).";
    LIVE_ROUND = "live.round",
        "Rounds the live engine has executed in the current plan (gauge).";
    LIVE_ITEMS_DONE = "live.items_done",
        "Work items finished by the current phase: cells solved while sharding, transfers \
         executed while simulating (gauge).";
    LIVE_SHARD_ACTIVE = "live.shard_active",
        "Shard bins being solved right now (gauge).";
    MEM_RSS_BYTES = "mem.rss_bytes",
        "Resident set size (VmRSS) sampled from /proc/self/status (gauge).";
    MEM_RSS_PEAK_BYTES = "mem.rss_peak_bytes",
        "Peak resident set size (VmHWM) from /proc/self/status (gauge).";
    POOL_PERMITS_AVAILABLE = "pool.permits_available",
        "Extra-worker permits currently free in the shared budget (gauge).";
    POOL_PERMITS_CAPACITY = "pool.permits_capacity",
        "Extra-worker permits the budget was last reset to (gauge).";
    POOL_PARKED = "pool.parked",
        "Scratch arenas currently parked in the process-wide pool (gauge).";
    POOL_PARKED_HIGH_WATER = "pool.parked_high_water",
        "High-water mark of parked scratch arenas (gauge).";
    PROF_SAMPLES = "prof.samples",
        "Ticks taken by the background sampling profiler (counter).";
    SERVE_REQUESTS = "serve.requests",
        "HTTP requests answered by the `--serve` listener (counter).";
    WS_ROUND = "ws.round",
        "Round index of the last checkpoint the workspace journal holds (gauge).";
    WS_CHECKPOINTS = "ws.checkpoints",
        "Executor checkpoints appended to the workspace journal (counter).";
    WS_RESUMES = "ws.resumes",
        "Times an executor was revived from a journal checkpoint (counter).";
    WS_JOURNAL_BYTES = "ws.journal_bytes",
        "Bytes of checkpoint records and resume markers this run appended to the workspace journal; event lines are not counted (gauge).";
}

/// Name prefix of the sampling profiler's per-span self-time family:
/// each distinct open span name gets a `prof.self_ns.<span>` histogram.
/// Lives outside [`keys`] because the family is open-ended — the suffix
/// is the span name observed at runtime.
pub const PROF_SELF_NS_PREFIX: &str = "prof.self_ns.";

/// One row per [`keys`] constant, in declaration order: `(key, one-line
/// description)`. The README carries the rendered [`render_keys_table`]
/// between `<!-- keys:begin/end -->` markers, kept in sync by a unit test.
#[must_use]
pub fn keys_reference() -> &'static [(&'static str, &'static str)] {
    KEYS_REFERENCE
}

/// Renders [`keys_reference`] as the Markdown table embedded in the
/// README's metric-key reference section.
#[must_use]
pub fn render_keys_table() -> String {
    let mut out = String::from("| key | description |\n| --- | --- |\n");
    for (key, doc) in keys_reference() {
        out.push_str(&format!("| `{key}` | {doc} |\n"));
    }
    // The sampler's self-time family is open-ended (one histogram per span
    // name), so it is documented as a prefix row rather than a constant.
    out.push_str(&format!(
        "| `{PROF_SELF_NS_PREFIX}<span>` | Sampled self-time per open span \
         name, one tick interval per hit (histogram). |\n"
    ));
    out
}

/// Whether the global recorder is collecting.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    recorder().is_enabled()
}

/// Turns collection on or off on the global recorder.
pub fn set_enabled(enabled: bool) {
    recorder().set_enabled(enabled);
}

/// Discards all data held by the global recorder (registered names are
/// kept, zeroed).
pub fn reset() {
    recorder().reset();
}

/// Opens a span on the global recorder; closed when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    recorder().span(name)
}

/// Opens a labelled span; the label closure only runs while enabled.
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, f: F) -> SpanGuard {
    recorder().span_labeled(name, f)
}

/// Opens a span under an explicit parent (cross-thread attribution).
pub fn span_under<F: FnOnce() -> String>(
    parent: Option<SpanId>,
    name: &'static str,
    f: F,
) -> SpanGuard {
    recorder().span_under(parent, name, f)
}

/// The innermost open span on this thread, for handing to workers.
#[must_use]
pub fn current_span() -> Option<SpanId> {
    recorder().current_span()
}

/// Adds `delta` to a named counter (0 pre-registers the key).
pub fn counter_add(name: &'static str, delta: u64) {
    recorder().counter_add(name, delta);
}

/// Sets a named gauge.
pub fn gauge_set(name: &'static str, value: u64) {
    recorder().gauge_set(name, value);
}

/// Raises a named gauge to `value` if larger.
pub fn gauge_max(name: &'static str, value: u64) {
    recorder().gauge_max(name, value);
}

/// Moves a named gauge by a signed delta, clamping at zero.
pub fn gauge_add(name: &'static str, delta: i64) {
    recorder().gauge_add(name, delta);
}

/// Records one observation in a named histogram.
pub fn observe(name: &'static str, value: u64) {
    recorder().observe(name, value);
}

/// Starts a stopwatch that records into a named histogram on drop.
pub fn stopwatch(name: &'static str) -> Stopwatch {
    recorder().stopwatch(name)
}

/// Snapshots everything the global recorder has collected.
#[must_use]
pub fn snapshot() -> Snapshot {
    recorder().snapshot()
}

/// Shared helpers for in-crate tests that touch the process-global
/// recorder: one lock serializes them all (lib, sampler, serve tests run
/// in the same binary), and [`testutil::Cleanup`] restores the
/// disabled/empty state on exit even on panic.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    pub(crate) fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            crate::set_enabled(false);
            crate::reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{obs_lock, Cleanup};

    #[test]
    fn disabled_recorder_collects_nothing() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::set_enabled(false);
        super::reset();
        {
            let s = super::span("ghost");
            assert!(s.id().is_none());
            super::counter_add("ghost_counter", 5);
            super::observe("ghost_hist", 1);
            let _w = super::stopwatch("ghost_watch");
        }
        let snap = super::snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counters.get("ghost_counter"), None);
        assert!(snap.histograms.is_empty() || !snap.histograms.contains_key("ghost_hist"));
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let _outer = super::span("outer");
            {
                let _inner = super::span_labeled("inner", || "x=1".to_string());
            }
            let _sibling = super::span("sibling");
        }
        let snap = super::snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "outer");
        let kids: Vec<&str> = snap.spans[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(kids, ["inner", "sibling"]);
        assert_eq!(snap.spans[0].children[0].label.as_deref(), Some("x=1"));
        assert!(snap.spans[0].duration_ns.is_some());
    }

    #[test]
    fn cross_thread_parenting_attributes_to_coordinator() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let coord = super::span("coordinator");
            let parent = coord.id();
            std::thread::scope(|scope| {
                for i in 0..2 {
                    scope.spawn(move || {
                        let _s = super::span_under(parent, "worker", || format!("#{i}"));
                    });
                }
            });
        }
        let snap = super::snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children.len(), 2);
        let threads: Vec<u64> = snap.spans[0].children.iter().map(|c| c.thread).collect();
        assert_ne!(threads[0], snap.spans[0].thread);
        assert_ne!(threads[1], snap.spans[0].thread);
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        super::counter_add("c", 0); // pre-register
        super::counter_add("c", 3);
        super::counter_add("c", 4);
        super::gauge_set("g", 9);
        super::gauge_max("g", 5); // lower: ignored
        super::gauge_max("g", 12);
        super::observe("h", 7);
        super::observe("h", 9);
        let snap = super::snapshot();
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.gauges["g"], 12);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].sum, 16);
    }

    #[test]
    fn reset_keeps_keys_and_invalidates_straddling_guards() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        super::counter_add("kept", 5);
        let straddler = super::span("straddler");
        super::reset();
        drop(straddler); // must not resurrect or corrupt anything
        let snap = super::snapshot();
        assert_eq!(snap.counters["kept"], 0, "key kept, value zeroed");
        assert!(snap.spans.is_empty());
        assert_eq!(super::current_span(), None);
    }

    #[test]
    fn stopwatch_records_on_drop() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        {
            let _w = super::stopwatch("watch_ns");
        }
        let snap = super::snapshot();
        assert_eq!(snap.histograms["watch_ns"].count, 1);
    }

    #[test]
    fn keys_reference_docs_are_one_line_and_typed() {
        for (key, doc) in super::keys_reference() {
            assert!(!doc.contains('\n'), "{key}: doc must be one line");
            assert!(
                doc.contains("(counter)") || doc.contains("(gauge)") || doc.contains("(histogram)"),
                "{key}: doc must state the metric type"
            );
        }
    }

    #[test]
    fn readme_keys_table_is_in_sync() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md readable");
        let embedded = readme
            .split("<!-- keys:begin -->")
            .nth(1)
            .and_then(|rest| rest.split("<!-- keys:end -->").next())
            .expect("README carries <!-- keys:begin/end --> markers");
        assert_eq!(
            embedded.trim(),
            super::render_keys_table().trim(),
            "README metric-key table drifted from `render_keys_table()` — \
             paste the new table between the keys:begin/end markers"
        );
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let _l = obs_lock();
        let _c = Cleanup;
        super::reset();
        super::set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        super::counter_add("spins", 1);
                    }
                });
            }
        });
        assert_eq!(super::snapshot().counters["spins"], 4000);
    }
}
