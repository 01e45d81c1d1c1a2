//! Std-only observability for the dmig solver pipeline.
//!
//! The crate provides two primitives behind one process-global,
//! thread-safe [`Recorder`]:
//!
//! * **spans** — hierarchical wall-clock intervals with thread
//!   attribution ([`span`], [`span_labeled`], [`span_under`]), the one
//!   source of durations;
//! * **counters and gauges** — named atomic `u64`s ([`counter_add`],
//!   [`gauge_set`], [`gauge_max`]).
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
//! }
//! let snap = dmig_obs::snapshot();
//! assert_eq!(snap.counters["flow_solves"], 1);
//! assert_eq!(snap.spans[0].name, "solve");
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
pub mod history;
pub mod json;
mod recorder;
pub mod serve;
mod snapshot;
pub mod trace;
pub mod value;

pub use recorder::{global as recorder, Recorder, SpanGuard, SpanId};
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
/// `NAME = "key", kind, "description";` row yields the [`keys`] constant,
/// its rustdoc, and its row in [`keys_reference`] (and therefore in the
/// README table). Each description is one line; the kind is `counter` or
/// `gauge`.
macro_rules! metric_keys {
    ($($name:ident = $key:literal, $kind:ident, $doc:literal;)+) => {
        /// Well-known counter and gauge names.
        ///
        /// Naming convention: bare snake_case for pipeline-level totals that
        /// appear in reports (`flow_solves`), and `area.metric` for
        /// subsystem-scoped values (`dinic.bfs_phases`, `sim.rounds`).
        /// Durations are spans, never keys.
        pub mod keys {
            $(
                #[doc = concat!($doc, " (", stringify!($kind), ").")]
                pub const $name: &str = $key;
            )+
        }

        const KEYS_REFERENCE: &[(&str, &str, &str)] =
            &[$((keys::$name, stringify!($kind), $doc)),+];
    };
}

metric_keys! {
    FLOW_SOLVES = "flow_solves", counter,
        "Max-flow problems solved while peeling quota levels";
    EULER_SPLITS = "euler_splits", counter,
        "Euler-split halvings performed by the quota partitioner";
    WARM_START_HITS = "warm_start_hits", counter,
        "Degree-subgraph units satisfied by the greedy warm start";
    WARM_START_MISSES = "warm_start_misses", counter,
        "Degree-subgraph units that needed the flow solver";
    EULER_ORIENTATIONS = "euler_orientations", counter,
        "Euler orientations computed by `solve_even`";
    QUOTA_MAX_DEPTH = "quota.max_recursion_depth", gauge,
        "Deepest recursion reached by the quota partitioner";
    DINIC_CALLS = "dinic.calls", counter,
        "Dinic max-flow invocations";
    DINIC_BFS_PHASES = "dinic.bfs_phases", counter,
        "BFS level-graph phases across all Dinic runs";
    DINIC_AUGMENTING_PATHS = "dinic.augmenting_paths", counter,
        "Augmenting paths found across all Dinic runs";
    GENERAL_DIRECT = "general.direct", counter,
        "Items the general solver colored directly";
    GENERAL_WALK_FLIPS = "general.walk_flips", counter,
        "Items the general solver colored after an alternating-walk flip";
    GENERAL_SHIFTS = "general.shifts", counter,
        "Items the general solver colored through a shift (orbit-growth) move";
    GENERAL_ESCALATIONS = "general.escalations", counter,
        "Round-budget escalations of the general solver, one per witness event";
    GENERAL_RESIDUE_COLORED = "general.residue_colored", counter,
        "Items placed by the general solver's residue colorer, which only `SplitColor` runs";
    POOL_ACQUIRES = "pool.acquires", counter,
        "Worker permits handed out by the shared thread budget";
    POOL_ACQUIRE_DENIED = "pool.acquire_denied", counter,
        "Worker-permit requests denied because the budget was spent";
    POOL_TASKS = "pool.tasks", counter,
        "Subproblem tasks enqueued on the intra-component work pool";
    POOL_STEALS = "pool.steals", counter,
        "Tasks executed by a worker other than the one that enqueued them";
    POOL_MAX_WORKERS = "pool.max_workers", gauge,
        "Widest worker fan-out a single quota recursion reached";
    POOL_MAX_QUEUE_DEPTH = "pool.max_queue_depth", gauge,
        "Deepest pending-task queue a quota recursion reached";
    SCRATCH_REUSES = "scratch.reuses", counter,
        "Solver scratch arenas reused from the process-wide pool";
    SCRATCH_ALLOCS = "scratch.allocs", counter,
        "Solver scratch arenas freshly allocated on pool miss";
    SIM_ROUNDS = "sim.rounds", counter,
        "Rounds executed by the simulation engine";
    SIM_TRANSFERS = "sim.transfers", counter,
        "Object transfers executed by the simulation engine";
    SIM_STALLS = "sim.stalls", counter,
        "Rounds whose wall time exceeded the stall threshold";
    SIM_PROGRESS_PCT = "sim.progress_pct", gauge,
        "Percentage of scheduled rounds the engine has executed";
    SOLVE_ROUNDS = "solve.rounds", gauge,
        "Rounds of the schedule the CLI produced";
    SOLVE_LB1 = "solve.lb1", gauge,
        "Lower bound Δ' (LB1) of the solved instance";
    SOLVE_LB2 = "solve.lb2", gauge,
        "Lower bound Γ' (LB2), written with `simulate --explain` from its witness";
    EXEC_REPLANS = "exec.replans", counter,
        "Closed-loop replans performed by the fault-tolerant executor";
    EXEC_RETRIES = "exec.retries", counter,
        "Transfer attempts retried after a flaky failure";
    EXEC_LOST_ITEMS = "exec.lost_items", counter,
        "Items lost to dead disks or exhausted retries";
    EXEC_DEGRADED_ROUNDS = "exec.degraded_rounds", counter,
        "Executed rounds with some disk below the degradation threshold";
    EXEC_REDIRECTS = "exec.redirects", counter,
        "Items rerouted to a replacement disk after a crash-stop";
    EXEC_CRASHES = "exec.crashes", counter,
        "Crash-stop fault events applied by the executor";
    EVENTS_EMITTED = "events.emitted", counter,
        "Structured events recorded by the flight recorder";
    EVENTS_DROPPED = "events.dropped", counter,
        "Events evicted from the flight recorder's bounded ring";
    EVENTS_ITEM_LOST = "events.item_lost", counter,
        "`ItemLost` events recorded by the flight recorder";
    EXPLAIN_BINDING_BOUND = "explain.binding_bound", gauge,
        "Binding lower bound max(Δ', Γ') = Δ' reported by the attribution engine";
    EXPLAIN_LB1_DISK = "explain.lb1_disk", gauge,
        "The disk realizing LB1 per the attribution engine";
    SHARD_COUNT = "shard.count", gauge,
        "Worker shards used by the sharded solve pipeline";
    SHARD_CUT_EDGES = "shard.cut_edges", gauge,
        "Edges cut to the boundary set by the cell partition";
    SHARD_CUT_FRACTION = "shard.cut_fraction", gauge,
        "Cut fraction in basis points: `cut_edges * 10000 / total`";
    SHARD_BOUNDARY_ROUNDS = "shard.boundary_rounds", gauge,
        "Rounds of the boundary pass appended after the cell rounds";
    LIVE_PHASE = "live.phase", gauge,
        "Current pipeline stage code; see the `phase` module";
    LIVE_ROUND = "live.round", gauge,
        "Rounds the live engine has executed in the current plan";
    LIVE_ITEMS_DONE = "live.items_done", gauge,
        "Work items finished by the current phase: cells solved while sharding, transfers \
         executed while simulating";
    LIVE_SHARD_ACTIVE = "live.shard_active", gauge,
        "Shard bins being solved right now";
    MEM_RSS_BYTES = "mem.rss_bytes", gauge,
        "Resident set size (VmRSS) from /proc/self/status, read under `--serve`";
    MEM_RSS_PEAK_BYTES = "mem.rss_peak_bytes", gauge,
        "Peak resident set size (VmHWM) from /proc/self/status, read under `--serve`";
    POOL_PERMITS_AVAILABLE = "pool.permits_available", gauge,
        "Extra-worker permits currently free in the shared budget";
    POOL_PERMITS_CAPACITY = "pool.permits_capacity", gauge,
        "Extra-worker permits the budget was last reset to";
    POOL_PARKED = "pool.parked", gauge,
        "Scratch arenas currently parked in the process-wide pool";
    POOL_PARKED_HIGH_WATER = "pool.parked_high_water", gauge,
        "High-water mark of parked scratch arenas";
    SERVE_REQUESTS = "serve.requests", counter,
        "HTTP requests answered by the `--serve` listener";
    WS_ROUND = "ws.round", gauge,
        "Round index of the last checkpoint the workspace journal holds";
    WS_CHECKPOINTS = "ws.checkpoints", counter,
        "Executor checkpoints appended to the workspace journal";
    WS_RESUMES = "ws.resumes", counter,
        "Times an executor was revived from a journal checkpoint";
    WS_JOURNAL_BYTES = "ws.journal_bytes", gauge,
        "Bytes of checkpoint records and resume markers this run appended to the workspace journal; event lines are not counted";
}

/// Name prefix of the per-span self-time family on `/metrics`: one
/// `prof.self_ns.<span>` gauge per span name of the snapshot (see
/// [`serve::render_prometheus`]). Lives outside [`keys`] because the
/// family is open-ended — the suffix is a span name.
pub const PROF_SELF_NS_PREFIX: &str = "prof.self_ns.";

/// One row per [`keys`] constant, in declaration order: `(key, kind,
/// one-line description)`. The README carries the rendered
/// [`render_keys_table`] between `<!-- keys:begin/end -->` markers, kept
/// in sync by a unit test.
#[must_use]
pub fn keys_reference() -> &'static [(&'static str, &'static str, &'static str)] {
    KEYS_REFERENCE
}

/// Renders [`keys_reference`] as the Markdown table embedded in the
/// README's metric-key reference section.
#[must_use]
pub fn render_keys_table() -> String {
    let mut out = String::from("| key | description |\n| --- | --- |\n");
    for (key, kind, doc) in keys_reference() {
        out.push_str(&format!("| `{key}` | {doc} ({kind}). |\n"));
    }
    // The self-time family is open-ended (one gauge per span name), so it
    // is documented as a prefix row rather than a constant.
    out.push_str(&format!(
        "| `{PROF_SELF_NS_PREFIX}<span>` | Self time of the spans named `<span>` in ns, \
         the `self ms` column of `dmig obs flame`; on `/metrics` only (gauge). |\n"
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

/// Snapshots everything the global recorder has collected.
#[must_use]
pub fn snapshot() -> Snapshot {
    recorder().snapshot()
}

/// Shared helpers for in-crate tests that touch the process-global
/// recorder: one lock serializes them all (lib and serve tests run
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
            super::gauge_set("ghost_gauge", 5);
        }
        let snap = super::snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counters.get("ghost_counter"), None);
        assert_eq!(snap.gauges.get("ghost_gauge"), None);
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
    fn counters_and_gauges_roundtrip() {
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
        let snap = super::snapshot();
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.gauges["g"], 12);
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
    fn keys_reference_rows_are_typed_one_line_docs() {
        for (key, kind, doc) in super::keys_reference() {
            assert!(["counter", "gauge"].contains(kind), "{key}: kind {kind}");
            assert!(!doc.contains('\n'), "{key}: doc must be one line");
            assert!(
                !doc.ends_with(')') && !doc.ends_with('.'),
                "{key}: the table appends ` ({kind}).` to the doc"
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
