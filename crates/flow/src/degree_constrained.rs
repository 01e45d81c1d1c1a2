//! Exact degree-constrained subgraph extraction — the paper's Fig. 3.
//!
//! Step (4) of the even-capacity algorithm (§IV) repeatedly extracts from
//! the oriented bipartite graph `H` a subgraph in which each node `v_out`
//! has exactly `c_v/2` selected outgoing arcs and each `v_in` exactly
//! `c_v/2` selected incoming arcs. The paper realizes this as a flow
//! network (Fig. 3): a source feeding every `v_out` with capacity `c_v/2`,
//! unit-capacity arcs for the oriented edges, and every `v_in` draining
//! into the sink with capacity `c_v/2`. Integrality of max flow turns the
//! fractional existence argument of Lemma 4.1 into an integral selection.

use core::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use dmig_graph::euler::{walk_closed_trails, TrailScratch};
use dmig_graph::{CsrAdjacency, NodeId};

use crate::{pool, EdgeHandle, FlowNetwork};

/// Error returned when no subgraph meets the exact quotas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeConstraintError {
    /// The flow value actually achieved.
    pub achieved: i64,
    /// The flow value required (`Σ out_quota = Σ in_quota`).
    pub required: i64,
}

impl fmt::Display for DegreeConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no degree-exact subgraph: max flow {} of required {}",
            self.achieved, self.required
        )
    }
}

impl std::error::Error for DegreeConstraintError {}

/// Selects a subset of the oriented arcs such that node `v` is the tail of
/// exactly `out_quota[v]` selected arcs and the head of exactly
/// `in_quota[v]` selected arcs: one peel of [`quota_round_partition`].
///
/// The quotas must be balanced (`Σ out_quota == Σ in_quota`); when the
/// arcs are `rounds` times as many as the quotas at every node, a solution
/// exists by the paper's Lemma 4.1. The extractor keeps one
/// [`FlowNetwork`] (and its CSR/scratch buffers) alive across
/// [`DegreeSubgraphExtractor::extract_into`] calls and rebuilds it in
/// place, so a reused extractor stays out of the allocator.
///
/// # Example
///
/// ```
/// use dmig_flow::DegreeSubgraphExtractor;
///
/// // Oriented 4-cycle: select exactly one outgoing and one incoming arc
/// // per node — must take all four arcs.
/// let mut ex = DegreeSubgraphExtractor::new();
/// let mut sel = Vec::new();
/// let arcs = [(0, 1), (1, 2), (2, 3), (3, 0)];
/// ex.extract_into(4, &arcs, &[1; 4], &[1; 4], &mut sel)?;
/// assert_eq!(sel, vec![true; 4]);
/// // A second solve reuses the same buffers.
/// ex.extract_into(2, &[(0, 1), (1, 0)], &[1, 1], &[1, 1], &mut sel)?;
/// assert_eq!(sel, vec![true, true]);
/// # Ok::<(), dmig_flow::DegreeConstraintError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct DegreeSubgraphExtractor {
    net: FlowNetwork,
    handles: Vec<EdgeHandle>,
    out_handles: Vec<EdgeHandle>,
    in_handles: Vec<EdgeHandle>,
    // Greedy warm-start scratch, reused across extracts.
    out_rem: Vec<i64>,
    in_rem: Vec<i64>,
}

impl DegreeSubgraphExtractor {
    /// Creates an extractor with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        DegreeSubgraphExtractor::default()
    }

    /// Selects the arcs that meet the quotas exactly and writes the mask,
    /// aligned with `arcs`, into `selection` (cleared first). A caller that
    /// reuses both the extractor and the mask performs no heap allocation
    /// in steady state; this is the quota recursion's hot path.
    ///
    /// # Errors
    ///
    /// Returns [`DegreeConstraintError`] when no exact selection exists;
    /// `selection` is then unspecified.
    ///
    /// # Panics
    ///
    /// Panics if quota slices are shorter than `num_nodes` or an arc
    /// endpoint is out of range.
    pub fn extract_into(
        &mut self,
        num_nodes: usize,
        arcs: &[(usize, usize)],
        out_quota: &[u32],
        in_quota: &[u32],
        selection: &mut Vec<bool>,
    ) -> Result<(), DegreeConstraintError> {
        assert!(
            out_quota.len() >= num_nodes,
            "out_quota shorter than node count"
        );
        assert!(
            in_quota.len() >= num_nodes,
            "in_quota shorter than node count"
        );

        // Vertex layout: 0 = source, 1 = sink, 2..2+n = out copies,
        // 2+n..2+2n = in copies.
        let s = 0usize;
        let t = 1usize;
        let out_base = 2usize;
        let in_base = 2 + num_nodes;
        let net = &mut self.net;
        net.clear(2 + 2 * num_nodes);

        let mut required = 0i64;
        self.out_handles.clear();
        self.in_handles.clear();
        for v in 0..num_nodes {
            self.out_handles
                .push(net.add_edge(s, out_base + v, i64::from(out_quota[v])));
            self.in_handles
                .push(net.add_edge(in_base + v, t, i64::from(in_quota[v])));
            required += i64::from(out_quota[v]);
        }
        self.handles.clear();
        self.handles.extend(arcs.iter().map(|&(u, v)| {
            assert!(u < num_nodes && v < num_nodes, "arc endpoint out of range");
            net.add_edge(out_base + u, in_base + v, 1)
        }));

        // Greedy warm start: a maximal quota-respecting arc selection,
        // pushed as flow along complete s → arc → t paths, leaves Dinic
        // only the (small) deficit to augment.
        self.out_rem.clear();
        self.out_rem
            .extend(out_quota[..num_nodes].iter().map(|&q| i64::from(q)));
        self.in_rem.clear();
        self.in_rem
            .extend(in_quota[..num_nodes].iter().map(|&q| i64::from(q)));
        let mut greedy = 0i64;
        for (&(u, v), &h) in arcs.iter().zip(&self.handles) {
            if self.out_rem[u] > 0 && self.in_rem[v] > 0 {
                self.out_rem[u] -= 1;
                self.in_rem[v] -= 1;
                net.push_flow(h, 1);
                greedy += 1;
            }
        }
        for v in 0..num_nodes {
            net.push_flow(
                self.out_handles[v],
                i64::from(out_quota[v]) - self.out_rem[v],
            );
            net.push_flow(self.in_handles[v], i64::from(in_quota[v]) - self.in_rem[v]);
        }

        let achieved = greedy + net.max_flow(s, t);
        record_flow_solve(greedy, achieved);
        if achieved != required {
            return Err(DegreeConstraintError { achieved, required });
        }
        selection.clear();
        selection.extend(self.handles.iter().map(|&h| self.net.flow(h) == 1));
        Ok(())
    }
}

/// Counter bookkeeping for [`DegreeSubgraphExtractor::extract_into`]: one flow
/// solve, with the units satisfied by the greedy warm start counted as hits
/// and the deficit Dinic had to augment as misses.
fn record_flow_solve(greedy: i64, achieved: i64) {
    dmig_obs::counter_add(dmig_obs::keys::FLOW_SOLVES, 1);
    dmig_obs::counter_add(dmig_obs::keys::WARM_START_HITS, greedy.max(0) as u64);
    dmig_obs::counter_add(
        dmig_obs::keys::WARM_START_MISSES,
        (achieved - greedy).max(0) as u64,
    );
}

/// Number of max-flow solves [`quota_round_partition`] performs for a given
/// round count: odd levels peel one subgraph by flow, even levels split.
///
/// `E(1) = 0`, `E(2k+1) = 1 + E(2k)`, `E(2k) = 2·E(k)` — so a power of two
/// needs no flow at all and the count is `O(rounds)` worst case but tiny in
/// practice. `perf_report` and the observability tests assert the
/// [`flow_solves`](dmig_obs::keys::FLOW_SOLVES) counter against this.
#[must_use]
pub fn quota_flow_solves(rounds: usize) -> u64 {
    match rounds {
        0 | 1 => 0,
        r if r % 2 == 1 => 1 + quota_flow_solves(r - 1),
        r => 2 * quota_flow_solves(r / 2),
    }
}

/// Number of Euler splits [`quota_round_partition`] performs for a given
/// round count (`S(1) = 0`, `S(2k+1) = S(2k)`, `S(2k) = 1 + 2·S(k)`);
/// the counterpart of [`quota_flow_solves`] for the
/// [`euler_splits`](dmig_obs::keys::EULER_SPLITS) counter.
#[must_use]
pub fn quota_euler_splits(rounds: usize) -> u64 {
    match rounds {
        0 | 1 => 0,
        r if r % 2 == 1 => quota_euler_splits(r - 1),
        r => 1 + 2 * quota_euler_splits(r / 2),
    }
}

/// Partitions `arcs` into `rounds` groups, each meeting the quotas exactly.
///
/// Preconditions (guaranteed by the even solver's padding + Euler
/// orientation, verified here in `O(arcs)`): node `v` is the tail of
/// exactly `out_quota[v] · rounds` arcs and the head of exactly
/// `in_quota[v] · rounds` arcs.
///
/// This is the Kariv–Gabow divide-and-conquer view of the paper's step 4:
/// when the round count is **even**, the bipartite multigraph on
/// out-copies × in-copies has all degrees even, so an *Euler split* —
/// walking closed trails and assigning arcs alternately to two halves —
/// divides every degree exactly in two (every closed trail in a bipartite
/// graph has even length), yielding two independent subproblems with half
/// the rounds, in linear time. When the count is **odd**, one exact
/// subgraph is peeled by max flow. Flow therefore runs `O(log rounds)`
/// times instead of `rounds` times, on geometrically shrinking arc sets.
///
/// Returns `rounds` vectors of positions into `arcs` (a partition of
/// `0..arcs.len()`), deterministically.
///
/// # Parallelism and determinism
///
/// The two halves of an Euler split are **independent** subproblems, so on
/// instances worth the thread-spawn cost the recursion recruits extra
/// workers from the process-wide [`pool::budget`] (shared with the
/// component-parallel driver in `dmig-core` and ultimately governed by the
/// CLI `--threads` flag). Each subtree owns a disjoint `&mut` slice of the
/// position array and a disjoint range of tree-position-indexed output
/// slots, obtained by `split_at_mut` — workers cannot observe each other,
/// every round lands in the slot its recursion path dictates, and the
/// Euler walk itself is untouched, so the returned partition is
/// **byte-identical for any thread count** (including zero extra workers).
/// Per-level scratch lives in a pooled [`SolveScratch`] arena; steady-state
/// levels allocate nothing.
///
/// # Errors
///
/// Returns [`DegreeConstraintError`] if the degree preconditions fail or an
/// odd-level peel finds no exact subgraph (impossible on inputs meeting the
/// preconditions).
///
/// # Panics
///
/// Panics if quota slices are shorter than `num_nodes` or an arc endpoint
/// is out of range.
///
/// # Example
///
/// ```
/// use dmig_flow::quota_round_partition;
///
/// // 3 cyclic shifts on 4 nodes: out/in-degree 3 per node, quota 1 per
/// // round over 3 rounds.
/// let mut arcs = Vec::new();
/// for k in 1..=3 {
///     for u in 0..4 {
///         arcs.push((u, (u + k) % 4));
///     }
/// }
/// let rounds = quota_round_partition(4, &arcs, &[1; 4], &[1; 4], 3)?;
/// assert_eq!(rounds.len(), 3);
/// assert_eq!(rounds.iter().map(Vec::len).sum::<usize>(), arcs.len());
/// # Ok::<(), dmig_flow::DegreeConstraintError>(())
/// ```
pub fn quota_round_partition(
    num_nodes: usize,
    arcs: &[(usize, usize)],
    out_quota: &[u32],
    in_quota: &[u32],
    rounds: usize,
) -> Result<Vec<Vec<usize>>, DegreeConstraintError> {
    assert!(
        out_quota.len() >= num_nodes,
        "out_quota shorter than node count"
    );
    assert!(
        in_quota.len() >= num_nodes,
        "in_quota shorter than node count"
    );
    let _span = dmig_obs::span_labeled("quota_round_partition", || {
        format!("rounds={rounds} arcs={}", arcs.len())
    });
    if rounds == 0 {
        return if arcs.is_empty() {
            Ok(Vec::new())
        } else {
            Err(DegreeConstraintError {
                achieved: arcs.len() as i64,
                required: 0,
            })
        };
    }

    // Verify the regularity preconditions; the Euler splits silently assume
    // them, so a violation must be caught here.
    let mut out_deg = vec![0i64; num_nodes];
    let mut in_deg = vec![0i64; num_nodes];
    for &(u, v) in arcs {
        assert!(u < num_nodes && v < num_nodes, "arc endpoint out of range");
        out_deg[u] += 1;
        in_deg[v] += 1;
    }
    let r = rounds as i64;
    for v in 0..num_nodes {
        for (deg, quota) in [(out_deg[v], out_quota[v]), (in_deg[v], in_quota[v])] {
            let required = i64::from(quota) * r;
            if deg != required {
                return Err(DegreeConstraintError {
                    achieved: deg,
                    required,
                });
            }
        }
    }

    let ctx = QuotaCtx {
        arcs,
        num_nodes,
        out_quota,
        in_quota,
    };
    let mut rounds_out: Vec<Vec<usize>> = Vec::with_capacity(rounds);
    rounds_out.resize_with(rounds, Vec::new);
    let mut positions: Vec<usize> = (0..arcs.len()).collect();
    run_partition(ctx, &mut positions, &mut rounds_out, rounds)?;
    Ok(rounds_out)
}

/// Reusable per-worker scratch arena for the quota recursion.
///
/// Holds every buffer a recursion level touches — the Fig. 3 extractor
/// (with its Dinic network), the Euler split's CSR and walk state, its
/// staging area, and the odd-level sub-arc/selection buffers — so a
/// worker that reuses one arena performs **zero heap allocation per
/// recursion level** once the buffers have grown to the working-set size.
/// Arenas are parked in a process-wide [`pool::ObjectPool`] between solves;
/// reuse is observable via [`dmig_obs::keys::SCRATCH_REUSES`].
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    extractor: DegreeSubgraphExtractor,
    // Euler split over the out- and in-copies, reused across levels.
    csr: CsrAdjacency,
    trails: TrailScratch,
    // In-place split staging: left half then right half.
    stage: Vec<usize>,
    // Odd-level extraction scratch.
    sub_arcs: Vec<(usize, usize)>,
    selection: Vec<bool>,
}

impl SolveScratch {
    /// Creates an empty arena (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SolveScratch::default()
    }
}

/// The process-wide park for [`SolveScratch`] arenas.
fn scratch_pool() -> &'static pool::ObjectPool<SolveScratch> {
    static POOL: pool::ObjectPool<SolveScratch> = pool::ObjectPool::new();
    &POOL
}

/// Most extra workers one quota recursion will recruit, even when the
/// budget is larger; deeper fan-out than the split tree's width is waste.
const MAX_EXTRA_WORKERS: usize = 8;

/// Worker id of the calling thread (helpers are `1..`).
const MAIN_WORKER: usize = 0;

/// Immutable problem context shared by every recursion task.
#[derive(Clone, Copy)]
struct QuotaCtx<'a> {
    arcs: &'a [(usize, usize)],
    num_nodes: usize,
    out_quota: &'a [u32],
    in_quota: &'a [u32],
}

/// One independent subtree of the quota recursion.
///
/// `subset` is the task's private window of the position array and `out`
/// its private window of the output slots (`out.len() == rounds`); both are
/// carved with `split_at_mut`, so tasks are disjoint by construction.
/// `base` is the absolute index of `out[0]` — the task's tree position —
/// used only to pick the canonical (lowest-slot) error.
struct Task<'s> {
    subset: &'s mut [usize],
    out: &'s mut [Vec<usize>],
    rounds: usize,
    base: usize,
    depth: u64,
    pusher: usize,
}

/// State shared by the workers of one [`quota_round_partition`] call.
struct ParShared<'s, 'a> {
    ctx: QuotaCtx<'a>,
    /// LIFO task queue: popping the most recently pushed task keeps each
    /// worker on the subtree it just split (depth-first, cache-warm).
    queue: Mutex<Vec<Task<'s>>>,
    cond: Condvar,
    /// Tasks pushed but not yet finished; the pool drains when it hits 0.
    outstanding: AtomicUsize,
    /// Lowest-`base` error seen — exactly the error a sequential
    /// depth-first recursion would have returned first.
    error: Mutex<Option<(usize, DegreeConstraintError)>>,
}

/// Runs the recursion over `positions`, writing each round into its
/// tree-position-indexed slot of `out`.
///
/// Always drives the same task machinery; extra workers (recruited from
/// the shared [`pool::budget`] when the instance clears
/// [`pool::spawn_min_work`]) merely drain the queue concurrently. With no
/// helpers the LIFO queue degenerates to an explicit depth-first stack.
fn run_partition(
    ctx: QuotaCtx<'_>,
    positions: &mut [usize],
    out: &mut [Vec<usize>],
    rounds: usize,
) -> Result<(), DegreeConstraintError> {
    let mut helpers = Vec::new();
    if rounds >= 4 && positions.len() >= pool::spawn_min_work() {
        let cap = (rounds / 2).min(MAX_EXTRA_WORKERS);
        while helpers.len() < cap {
            match pool::budget().try_acquire() {
                Some(permit) => helpers.push(permit),
                None => break,
            }
        }
    }

    let shared = ParShared {
        ctx,
        queue: Mutex::new(Vec::with_capacity(rounds.min(64))),
        cond: Condvar::new(),
        outstanding: AtomicUsize::new(1),
        error: Mutex::new(None),
    };
    shared
        .queue
        .lock()
        .expect("task queue poisoned")
        .push(Task {
            subset: positions,
            out,
            rounds,
            base: 0,
            depth: 0,
            pusher: MAIN_WORKER,
        });

    if helpers.is_empty() {
        worker_loop(&shared, MAIN_WORKER);
    } else {
        dmig_obs::gauge_max(dmig_obs::keys::POOL_MAX_WORKERS, helpers.len() as u64 + 1);
        let parent = dmig_obs::current_span();
        std::thread::scope(|scope| {
            for (w, permit) in helpers.into_iter().enumerate() {
                let shared = &shared;
                scope.spawn(move || {
                    let _permit = permit;
                    let _span =
                        dmig_obs::span_under(parent, "quota_worker", || format!("#{}", w + 1));
                    worker_loop(shared, w + 1);
                });
            }
            worker_loop(&shared, MAIN_WORKER);
        });
    }

    match shared.error.into_inner().expect("error slot poisoned") {
        Some((_, err)) => Err(err),
        None => Ok(()),
    }
}

/// Pops and runs tasks until every outstanding task has finished.
fn worker_loop(shared: &ParShared<'_, '_>, worker: usize) {
    let mut scratch = scratch_pool().acquire();
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("task queue poisoned");
            loop {
                if let Some(task) = queue.pop() {
                    break task;
                }
                if shared.outstanding.load(Ordering::Acquire) == 0 {
                    drop(queue);
                    scratch_pool().release(scratch);
                    return;
                }
                queue = shared.cond.wait(queue).expect("task queue poisoned");
            }
        };
        if task.pusher != worker {
            dmig_obs::counter_add(dmig_obs::keys::POOL_STEALS, 1);
        }
        run_task(shared, task, worker, &mut scratch);
        if shared.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task in the tree: wake the idle workers so they exit.
            // Taking the lock orders the wake after any in-progress wait.
            let _queue = shared.queue.lock().expect("task queue poisoned");
            shared.cond.notify_all();
        }
    }
}

/// Solves one subtree, descending into the left child iteratively and
/// publishing right children of Euler splits as stealable tasks.
fn run_task<'s>(
    shared: &ParShared<'s, '_>,
    task: Task<'s>,
    worker: usize,
    scratch: &mut SolveScratch,
) {
    let Task {
        mut subset,
        mut out,
        mut rounds,
        base,
        mut depth,
        ..
    } = task;
    let mut slot = base;
    loop {
        dmig_obs::gauge_max(dmig_obs::keys::QUOTA_MAX_DEPTH, depth);
        if rounds == 1 {
            out[0].clear();
            out[0].extend_from_slice(subset);
            return;
        }
        if rounds % 2 == 1 {
            // Peel one exact subgraph by max flow, leaving an even count.
            let (head, tail) = out.split_first_mut().expect("rounds >= 1");
            match peel_one(&shared.ctx, subset, scratch, head) {
                Ok(kept) => {
                    let remaining = subset;
                    subset = &mut remaining[..kept];
                    out = tail;
                    rounds -= 1;
                    slot += 1;
                    depth += 1;
                    continue;
                }
                Err(err) => {
                    record_partition_error(shared, slot, err);
                    return;
                }
            }
        }
        dmig_obs::counter_add(dmig_obs::keys::EULER_SPLITS, 1);
        euler_split_in_place(&shared.ctx, subset, scratch);
        let half_rounds = rounds / 2;
        let mid = subset.len() / 2;
        let (left, right) = subset.split_at_mut(mid);
        let (left_out, right_out) = out.split_at_mut(half_rounds);
        if half_rounds == 1 {
            // A leaf is cheaper than a queue round-trip: fill it inline.
            right_out[0].clear();
            right_out[0].extend_from_slice(right);
        } else {
            shared.outstanding.fetch_add(1, Ordering::AcqRel);
            let mut queue = shared.queue.lock().expect("task queue poisoned");
            queue.push(Task {
                subset: right,
                out: right_out,
                rounds: half_rounds,
                base: slot + half_rounds,
                depth: depth + 1,
                pusher: worker,
            });
            dmig_obs::counter_add(dmig_obs::keys::POOL_TASKS, 1);
            dmig_obs::gauge_max(dmig_obs::keys::POOL_MAX_QUEUE_DEPTH, queue.len() as u64);
            drop(queue);
            shared.cond.notify_one();
        }
        subset = left;
        out = left_out;
        rounds = half_rounds;
        depth += 1;
    }
}

/// Records `err` unless an error from a lower output slot already won.
fn record_partition_error(shared: &ParShared<'_, '_>, slot: usize, err: DegreeConstraintError) {
    let mut best = shared.error.lock().expect("error slot poisoned");
    match &*best {
        Some((winner, _)) if *winner <= slot => {}
        _ => *best = Some((slot, err)),
    }
}

/// Peels one exact degree-constrained subgraph: the selected positions go
/// to `round_out` (in subset order), the rest compact to `subset[..kept]`
/// (order preserved). Returns `kept`.
fn peel_one(
    ctx: &QuotaCtx<'_>,
    subset: &mut [usize],
    scratch: &mut SolveScratch,
    round_out: &mut Vec<usize>,
) -> Result<usize, DegreeConstraintError> {
    scratch.sub_arcs.clear();
    scratch.sub_arcs.extend(subset.iter().map(|&p| ctx.arcs[p]));
    scratch.extractor.extract_into(
        ctx.num_nodes,
        &scratch.sub_arcs,
        ctx.out_quota,
        ctx.in_quota,
        &mut scratch.selection,
    )?;
    round_out.clear();
    let mut kept = 0;
    for i in 0..subset.len() {
        if scratch.selection[i] {
            round_out.push(subset[i]);
        } else {
            subset[kept] = subset[i];
            kept += 1;
        }
    }
    Ok(kept)
}

/// Splits the subset in place into two halves in which every out/in-copy
/// keeps exactly half its degree: [`walk_closed_trails`] over the bipartite
/// multigraph with out-copy `u` as node `u` and in-copy `v` as node
/// `n + v`, one edge per arc in subset order, and arcs walked from an
/// out-copy go left, those walked from an in-copy right. All degrees are
/// even (degree = quota · even rounds) and every arc has an out-copy end,
/// so every trail starts at an out-copy and alternates sides. On return
/// `subset[..m/2]` is the left half and `subset[m/2..]` the right, each in
/// walk order.
fn euler_split_in_place(ctx: &QuotaCtx<'_>, subset: &mut [usize], scratch: &mut SolveScratch) {
    let n = ctx.num_nodes;
    let m = subset.len();
    let SolveScratch {
        csr, trails, stage, ..
    } = scratch;
    csr.rebuild_from_pairs(
        2 * n,
        subset.iter().map(|&pos| {
            let (u, v) = ctx.arcs[pos];
            (NodeId::new(u), NodeId::new(n + v))
        }),
    );
    stage.clear();
    stage.resize(m, 0);
    let (mut li, mut ri) = (0, m / 2);
    walk_closed_trails(csr, trails, |e, from, _| {
        let next = if from.index() < n { &mut li } else { &mut ri };
        stage[*next] = subset[e.index()];
        *next += 1;
    })
    .expect("split degrees are quota · even rounds");
    debug_assert_eq!((li, ri), (m / 2, m), "bipartite Euler split must balance");
    subset.copy_from_slice(stage);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(
        num_nodes: usize,
        arcs: &[(usize, usize)],
        out_quota: &[u32],
        in_quota: &[u32],
    ) -> Result<Vec<bool>, DegreeConstraintError> {
        let mut sel = Vec::new();
        DegreeSubgraphExtractor::new()
            .extract_into(num_nodes, arcs, out_quota, in_quota, &mut sel)
            .map(|()| sel)
    }

    fn check_quotas(
        num_nodes: usize,
        arcs: &[(usize, usize)],
        sel: &[bool],
        out_quota: &[u32],
        in_quota: &[u32],
    ) {
        let mut out = vec![0u32; num_nodes];
        let mut inn = vec![0u32; num_nodes];
        for (i, &(u, v)) in arcs.iter().enumerate() {
            if sel[i] {
                out[u] += 1;
                inn[v] += 1;
            }
        }
        assert_eq!(out, out_quota[..num_nodes]);
        assert_eq!(inn, in_quota[..num_nodes]);
    }

    #[test]
    fn cycle_forced_selection() {
        let arcs = [(0, 1), (1, 2), (2, 0)];
        let sel = extract(3, &arcs, &[1; 3], &[1; 3]).unwrap();
        assert_eq!(sel, vec![true; 3]);
    }

    #[test]
    fn zero_quotas_select_nothing() {
        let arcs = [(0, 1), (1, 0)];
        let sel = extract(2, &arcs, &[0, 0], &[0, 0]).unwrap();
        assert_eq!(sel, vec![false, false]);
    }

    #[test]
    fn parallel_arcs_pick_exact_count() {
        let arcs = [(0, 1), (0, 1), (0, 1), (0, 1)];
        let sel = extract(2, &arcs, &[2, 0], &[0, 2]).unwrap();
        assert_eq!(sel.iter().filter(|&&b| b).count(), 2);
        check_quotas(2, &arcs, &sel, &[2, 0], &[0, 2]);
    }

    #[test]
    fn infeasible_reports_shortfall() {
        // Node 1 must emit 1 arc but has none.
        let arcs = [(0, 1)];
        let err = extract(2, &arcs, &[0, 1], &[1, 0]).unwrap_err();
        assert_eq!(err.achieved, 0);
        assert_eq!(err.required, 1);
        assert!(err.to_string().contains("max flow 0"));
    }

    #[test]
    fn doubled_euler_style_instance() {
        // Every node out-quota 1 / in-quota 1, arcs forming two disjoint
        // 2-cycles plus chords; a valid selection exists.
        let arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0)];
        let sel = extract(4, &arcs, &[1; 4], &[1; 4]).unwrap();
        check_quotas(4, &arcs, &sel, &[1; 4], &[1; 4]);
    }

    #[test]
    fn heterogeneous_quotas() {
        // Node 0 sends 2, nodes 1 and 2 each receive 1.
        let arcs = [(0, 1), (0, 1), (0, 2)];
        let sel = extract(3, &arcs, &[2, 0, 0], &[0, 1, 1]).unwrap();
        check_quotas(3, &arcs, &sel, &[2, 0, 0], &[0, 1, 1]);
    }

    #[test]
    fn self_arc_allowed() {
        // An Euler orientation of a self-loop yields an arc v -> v.
        let arcs = [(0, 0)];
        let sel = extract(1, &arcs, &[1], &[1]).unwrap();
        assert_eq!(sel, vec![true]);
    }

    #[test]
    #[should_panic(expected = "arc endpoint out of range")]
    fn arc_out_of_range_panics() {
        let _ = extract(1, &[(0, 3)], &[1], &[1]);
    }

    #[test]
    fn flow_solve_predictors_match_recursion() {
        // E(r): odd levels peel by flow, even levels halve.
        assert_eq!(
            (1..=8).map(quota_flow_solves).collect::<Vec<_>>(),
            [0, 0, 1, 0, 1, 2, 3, 0]
        );
        // S(r): splits double down the even halvings.
        assert_eq!(
            (1..=8).map(quota_euler_splits).collect::<Vec<_>>(),
            [0, 1, 1, 3, 3, 3, 3, 7]
        );
    }

    /// `rounds` cyclic shifts on `n` nodes: out/in-degree `rounds` per
    /// node, quota 1 per round.
    fn shift_instance(n: usize, rounds: usize) -> Vec<(usize, usize)> {
        let mut arcs = Vec::new();
        for k in 1..=rounds {
            for u in 0..n {
                arcs.push((u, (u + k) % n));
            }
        }
        arcs
    }

    fn check_partition(n: usize, arcs: &[(usize, usize)], rounds: &[Vec<usize>], quota: &[u32]) {
        for round in rounds {
            let mut mask = vec![false; arcs.len()];
            for &pos in round {
                assert!(!mask[pos], "position repeated within a round");
                mask[pos] = true;
            }
            check_quotas(n, arcs, &mask, quota, quota);
        }
        assert_eq!(
            rounds.iter().map(Vec::len).sum::<usize>(),
            arcs.len(),
            "rounds must partition the arc set"
        );
    }

    #[test]
    fn partition_is_identical_with_and_without_extra_workers() {
        // rounds = 12 gives a split tree with both even halvings and an
        // odd peel; force the parallel path by zeroing the spawn floor.
        let n = 12;
        let arcs = shift_instance(n, 12);
        let quota = vec![1u32; n];
        pool::budget().set_parallelism(1);
        let sequential = quota_round_partition(n, &arcs, &quota, &quota, 12).unwrap();
        check_partition(n, &arcs, &sequential, &quota);
        let saved_floor = pool::spawn_min_work();
        pool::set_spawn_min_work(0);
        for threads in [2, 3, 4] {
            pool::budget().set_parallelism(threads);
            let parallel = quota_round_partition(n, &arcs, &quota, &quota, 12).unwrap();
            assert_eq!(
                sequential, parallel,
                "schedule differs with {threads}-thread budget"
            );
        }
        pool::budget().set_parallelism(1);
        pool::set_spawn_min_work(saved_floor);
    }

    #[test]
    fn warm_start_hits_on_doubled_euler_instance() {
        // rounds = 3 is odd, so the quota recursion must run a flow solve;
        // the greedy pre-matching saturates at least one unit of quota and
        // the hit counter must move. Counters are global and other tests
        // only ever add, so comparing before/after is race-safe.
        let n = 6;
        let arcs = shift_instance(n, 3);
        let quota = vec![1u32; n];
        let was_enabled = dmig_obs::is_enabled();
        dmig_obs::set_enabled(true);
        let hits = |snap: &dmig_obs::Snapshot| {
            snap.counters
                .get(dmig_obs::keys::WARM_START_HITS)
                .copied()
                .unwrap_or(0)
        };
        let before = hits(&dmig_obs::snapshot());
        let rounds = quota_round_partition(n, &arcs, &quota, &quota, 3).unwrap();
        let after = hits(&dmig_obs::snapshot());
        dmig_obs::set_enabled(was_enabled);
        check_partition(n, &arcs, &rounds, &quota);
        assert!(
            after > before,
            "warm start must satisfy at least one quota unit ({before} -> {after})"
        );
    }

    #[test]
    fn empty_arc_set_partitions_into_empty_rounds() {
        let rounds = quota_round_partition(3, &[], &[0; 3], &[0; 3], 4).unwrap();
        assert_eq!(rounds, vec![Vec::<usize>::new(); 4]);
    }

    #[test]
    fn deep_power_of_two_rounds_need_no_flow() {
        // rounds = 8: pure Euler halvings, no flow solve (E(8) = 0), and
        // the partition still lands every arc in a quota-exact round.
        let n = 8;
        let arcs = shift_instance(n, 8);
        let quota = vec![1u32; n];
        let rounds = quota_round_partition(n, &arcs, &quota, &quota, 8).unwrap();
        assert_eq!(rounds.len(), 8);
        check_partition(n, &arcs, &rounds, &quota);
    }
}
