//! The solve driver: cut the graph into bounded cells, solve cells on K
//! worker shards, reconcile cut edges with a round-aligned boundary pass.
//!
//! Every solve in the workspace goes through [`solve_sharded`]: the
//! [`crate::parallel::ParallelSolver`] adapter calls it with an unlimited
//! cell budget ([`ShardConfig::uncut`]), so its cells are exactly the
//! connected components, and `dmig solve --shards K` calls it with the
//! default budget, which also cuts *within* a heavy component using
//! [`dmig_graph::partition`]. The pipeline is:
//!
//! 1. **Partition** the graph into canonical cells of at most
//!    `max_cell_edges` domestic edges (a pure function of the instance —
//!    independent of shard count and thread count).
//! 2. **Solve** every cell as a standalone [`MigrationProblem`] on one of
//!    `K` worker shards (deterministic LPT grouping of cells; each extra
//!    shard worker draws a permit from the shared
//!    [`dmig_flow::pool::budget`], so shard- and recursion-level
//!    parallelism together never exceed `--threads`).
//! 3. **Reconcile** foreign edges: cells are node-disjoint, so cell
//!    rounds merge index-wise; the cut edges form a *boundary* subproblem
//!    solved on its own, whose rounds are appended at a canonical offset
//!    (the merged cell makespan). Every merged round is still a
//!    capacity-respecting matching-per-round, and the makespan exceeds
//!    the instance's `Δ'` by at most the boundary's own `Δ'` — the
//!    additive gap is asserted and reported. With nothing cut there is no
//!    boundary pass, and the merge keeps Theorem 4.1's exact `Δ'`.
//!
//! Because steps 1 and 3 are canonical and step 2 writes into
//! cell-indexed slots, the schedule is byte-identical at every
//! `(threads × shards)` combination; when no component exceeds the cell
//! budget it equals the [`ShardConfig::uncut`] schedule exactly.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dmig_flow::pool;
use dmig_graph::partition::{assign_shards, partition_cells, DEFAULT_MAX_CELL_EDGES};
use dmig_graph::{EdgeId, Multigraph, NodeId};

use crate::{Capacities, MigrationProblem, MigrationSchedule, SolveError};

/// Configuration of the sharded pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker shards to group cells onto (min 1). Controls concurrency
    /// only — never the schedule.
    pub shards: usize,
    /// Cell budget handed to [`partition_cells`]. Changing it changes the
    /// partition and therefore the schedule; the default
    /// ([`DEFAULT_MAX_CELL_EDGES`]) is part of the repo's deterministic
    /// contract.
    pub max_cell_edges: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            max_cell_edges: DEFAULT_MAX_CELL_EDGES,
        }
    }
}

impl ShardConfig {
    /// Default cell budget with an explicit shard count (min 1).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards: shards.max(1),
            ..ShardConfig::default()
        }
    }

    /// No cell budget: the cells are exactly the connected components, so
    /// nothing is cut and the plan keeps Theorem 4.1's exact `Δ'`.
    /// `shards` (min 1) is the worker fan-out over the components.
    #[must_use]
    pub fn uncut(shards: usize) -> Self {
        ShardConfig {
            shards: shards.max(1),
            max_cell_edges: usize::MAX,
        }
    }
}

/// What the sharded pipeline did, for perf reports and obs export.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Worker shards actually used (≤ configured, ≥ 1).
    pub shards: usize,
    /// Canonical cells the graph was cut into.
    pub cells: usize,
    /// Edges in the boundary set.
    pub cut_edges: usize,
    /// Total edges of the instance.
    pub total_edges: usize,
    /// Rounds of the boundary pass (0 when nothing was cut).
    pub boundary_rounds: usize,
    /// Realized additive gap: `makespan − Δ'(instance)` (clamped at 0).
    pub round_gap: usize,
    /// Proven additive bound: `Δ'` of the boundary subproblem.
    pub gap_bound: usize,
    /// Whether the `round_gap <= gap_bound` bound was applicable and
    /// asserted (it requires every piece to be solved to its own `Δ'`,
    /// which holds for the Theorem 4.1 even solver but not for
    /// approximate inner solvers).
    pub gap_asserted: bool,
    /// Domestic edges solved by each worker shard, indexed by shard id.
    pub per_shard_edges: Vec<u64>,
}

impl ShardReport {
    /// Fraction of edges cut to the boundary (0 for an edgeless graph).
    #[must_use]
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.total_edges as f64
        }
    }
}

/// Solves `problem` through the sharded pipeline (see the module docs).
///
/// `solve` is the inner per-piece solver, invoked for every cell and once
/// for the boundary subproblem. The schedule is byte-identical for every
/// `(threads, config.shards)` combination; with the default cell budget
/// and no oversized component it equals the [`ShardConfig::uncut`]
/// schedule exactly.
///
/// # Errors
///
/// Returns the first (lowest cell index) error produced by `solve`, or
/// the boundary pass's error.
pub fn solve_sharded<F>(
    problem: &MigrationProblem,
    config: ShardConfig,
    threads: usize,
    solve: F,
) -> Result<(MigrationSchedule, ShardReport), SolveError>
where
    F: Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError> + Sync,
{
    let _span = dmig_obs::span_labeled("solve_sharded", || {
        format!("shards={} threads={threads}", config.shards)
    });
    // One budget for the whole solve: `threads - 1` extra workers beyond
    // this thread, shared between the shard fan-out below and the
    // intra-piece quota recursion (dmig-flow). Whichever layer asks first
    // gets the spare threads; a single giant cell hands them all to the
    // recursion.
    pool::budget().set_parallelism(threads);

    dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::PARTITION);
    let partition = partition_cells(problem.graph(), config.max_cell_edges);
    let mut local_of = vec![usize::MAX; problem.num_disks()];
    let parts: Vec<ComponentPart> = partition
        .cells
        .iter()
        .map(|c| extract_part(problem, &c.nodes, &c.edges, &mut local_of))
        .collect();

    let shards = config.shards.max(1).min(parts.len().max(1));
    let cell_edges: Vec<usize> = partition.cells.iter().map(|c| c.edges.len()).collect();
    let assignment = assign_shards(&cell_edges, shards);
    let mut per_shard_edges = vec![0u64; shards];
    for (cell, &s) in assignment.iter().enumerate() {
        per_shard_edges[s as usize] += cell_edges[cell] as u64;
    }

    dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::CELLS);
    dmig_obs::gauge_set(dmig_obs::keys::LIVE_ITEMS_DONE, 0);
    let schedules = solve_shard_cells(&parts, &assignment, shards, &solve)?;

    // Reconciliation: index-wise merge of the node-disjoint cells, then
    // the boundary pass appended at the canonical offset.
    dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::BOUNDARY);
    let merged = merge_component_schedules(&parts, schedules, problem.num_items());
    let boundary = if partition.boundary.is_empty() {
        None
    } else {
        let _span = dmig_obs::span_labeled("shard_boundary", || {
            format!("cut_edges={}", partition.boundary.len())
        });
        let mut nodes: Vec<NodeId> = Vec::with_capacity(partition.boundary.len() * 2);
        for &e in &partition.boundary {
            let ep = problem.graph().endpoints(e);
            nodes.push(ep.u);
            nodes.push(ep.v);
        }
        nodes.sort_unstable();
        nodes.dedup();
        let part = extract_part(problem, &nodes, &partition.boundary, &mut local_of);
        let schedule = solve(&part.problem)?;
        Some((part, schedule))
    };

    let offset = merged.makespan();
    let boundary_rounds = boundary.as_ref().map_or(0, |(_, s)| s.makespan());
    let combined = match &boundary {
        None => merged,
        Some((part, schedule)) => {
            let mut rounds: Vec<Vec<EdgeId>> = merged.rounds().to_vec();
            for round in schedule.rounds() {
                rounds.push(round.iter().map(|&e| part.edge_map[e.index()]).collect());
            }
            let mut combined = MigrationSchedule::from_rounds(rounds);
            combined.trim_empty_rounds();
            combined
        }
    };
    // Realized additive gap vs. the proven bound. makespan = offset +
    // boundary_rounds, so when every cell met its own Δ' (≤ Δ'(G), always
    // true for the Theorem 4.1 solver) and the boundary met Δ'(boundary),
    // the gap is bounded by Δ'(boundary).
    let delta_prime = problem.delta_prime();
    let round_gap = combined.makespan().saturating_sub(delta_prime);
    let gap_bound = boundary
        .as_ref()
        .map_or(0, |(p, _)| p.problem.delta_prime());
    let gap_asserted = offset <= delta_prime && boundary_rounds <= gap_bound;
    if gap_asserted {
        assert!(
            round_gap <= gap_bound,
            "round-alignment gap {round_gap} exceeds the additive bound {gap_bound} \
             (Δ'={delta_prime}, boundary_rounds={boundary_rounds})"
        );
    }

    let report = ShardReport {
        shards,
        cells: parts.len(),
        cut_edges: partition.boundary.len(),
        total_edges: partition.total_edges,
        boundary_rounds,
        round_gap,
        gap_bound,
        gap_asserted,
        per_shard_edges,
    };
    record_shard_metrics(&report);
    Ok((combined, report))
}

/// One piece of a [`MigrationProblem`] (a cell or the boundary), remapped
/// to dense local ids, plus the mapping back to the original instance.
struct ComponentPart<'a> {
    /// The piece as a standalone instance (local node/edge ids): the
    /// instance itself when the piece spans every disk.
    problem: Cow<'a, MigrationProblem>,
    /// `edge_map[local_edge] = original EdgeId`.
    edge_map: &'a [EdgeId],
}

/// Extracts a node/edge subset of `problem` as a standalone
/// [`ComponentPart`]: local node ids follow ascending original node id
/// (`nodes` must be sorted ascending), local edge ids follow `edges` order
/// (callers pass ascending original edge ids), so a deterministic solver
/// sees a deterministic subinstance.
///
/// A piece that spans every disk holds every edge too (none can cross to
/// another piece), so its local ids are the original ones: the piece
/// borrows `problem` instead of copying it. A piece that misses a disk is
/// extracted even when it holds every edge, because the isolated disks it
/// drops can change an inner solver's result: an odd one beside an
/// all-even component turns `AutoSolver` away from `solve_even`.
///
/// `local_of` is caller-owned scratch of one `usize::MAX` slot per disk;
/// the slots of `nodes` are restored before returning, so extracting every
/// cell costs `O(n + m)` in total rather than `O(n)` per cell.
///
/// # Panics
///
/// Panics if an edge in `edges` has an endpoint outside `nodes`.
fn extract_part<'a>(
    problem: &'a MigrationProblem,
    nodes: &[NodeId],
    edges: &'a [EdgeId],
    local_of: &mut [usize],
) -> ComponentPart<'a> {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes ascending");
    let g = problem.graph();
    if nodes.len() == g.num_nodes() && edges.len() == g.num_edges() {
        return ComponentPart {
            problem: Cow::Borrowed(problem),
            edge_map: edges,
        };
    }
    for (local, v) in nodes.iter().enumerate() {
        local_of[v.index()] = local;
    }
    let local: Vec<(usize, usize)> = edges
        .iter()
        .map(|&e| {
            let ep = g.endpoints(e);
            let (u, v) = (local_of[ep.u.index()], local_of[ep.v.index()]);
            assert!(
                u != usize::MAX && v != usize::MAX,
                "edge endpoints must lie in the node subset"
            );
            (u, v)
        })
        .collect();
    for v in nodes {
        local_of[v.index()] = usize::MAX;
    }
    let sub = Multigraph::from_edges(nodes.len(), &local)
        .expect("a subset of a graph is no larger than the graph");
    let caps: Capacities = nodes.iter().map(|&v| problem.capacities().get(v)).collect();
    let problem =
        MigrationProblem::new(sub, caps).expect("a subset of a valid problem is a valid problem");
    ComponentPart {
        problem: Cow::Owned(problem),
        edge_map: edges,
    }
}

/// Merges node-disjoint piece schedules index-wise back into original
/// edge ids: merged round `r` concatenates every piece's round `r` (pieces
/// in `parts` order, edges mapped through [`ComponentPart::edge_map`]), so
/// the merged makespan is the maximum piece makespan. A single piece that
/// holds every edge has the original edge ids already, so its schedule is
/// moved, not copied.
fn merge_component_schedules(
    parts: &[ComponentPart],
    mut schedules: Vec<MigrationSchedule>,
    total_edges: usize,
) -> MigrationSchedule {
    let _span = dmig_obs::span("shard_merge");
    assert_eq!(parts.len(), schedules.len(), "one schedule per piece");
    if let [part] = parts {
        if part.edge_map.len() == total_edges {
            let mut merged = schedules.pop().expect("one schedule per piece");
            merged.trim_empty_rounds();
            return merged;
        }
    }
    let makespan = schedules
        .iter()
        .map(MigrationSchedule::makespan)
        .max()
        .unwrap_or(0);
    let mut rounds: Vec<Vec<EdgeId>> = vec![Vec::new(); makespan];
    for (part, schedule) in parts.iter().zip(&schedules) {
        for (r, round) in schedule.rounds().iter().enumerate() {
            rounds[r].extend(round.iter().map(|&e| part.edge_map[e.index()]));
        }
    }
    let mut merged = MigrationSchedule::from_rounds(rounds);
    merged.trim_empty_rounds();
    merged
}

/// Exports the shard telemetry (no-ops when the obs layer is disabled).
fn record_shard_metrics(report: &ShardReport) {
    use dmig_obs::keys;
    dmig_obs::gauge_set(keys::SHARD_COUNT, report.shards as u64);
    dmig_obs::gauge_set(keys::SHARD_CUT_EDGES, report.cut_edges as u64);
    // Gauges are integers; export the fraction in basis points (1/10000).
    let bps = if report.total_edges == 0 {
        0
    } else {
        (report.cut_edges as u64).saturating_mul(10_000) / report.total_edges as u64
    };
    dmig_obs::gauge_set(keys::SHARD_CUT_FRACTION, bps);
    dmig_obs::gauge_set(keys::SHARD_BOUNDARY_ROUNDS, report.boundary_rounds as u64);
}

/// Solves every cell into its slot, with one claim-loop worker per shard.
///
/// Workers claim *shard bins*, not cells: shard `s` solves exactly the
/// cells assigned to it, in ascending cell order, matching what a
/// distributed deployment would do. Extra workers beyond the calling
/// thread come from the shared pool budget; with no permits left the
/// calling thread solves every bin serially — the slots make the outcome
/// identical either way.
fn solve_shard_cells<F>(
    parts: &[ComponentPart],
    assignment: &[u32],
    shards: usize,
    solve: &F,
) -> Result<Vec<MigrationSchedule>, SolveError>
where
    F: Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError> + Sync,
{
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (cell, &s) in assignment.iter().enumerate() {
        bins[s as usize].push(cell);
    }

    // Live progress for a mid-run scrape: bins currently being solved and
    // cells finished so far. Gauges only — the schedule cannot depend on
    // them (obs_transparency proptests hold this).
    let cells_done = AtomicUsize::new(0);
    let solve_bin =
        |parent: Option<dmig_obs::SpanId>,
         shard: usize,
         slots: &[Mutex<Option<Result<MigrationSchedule, SolveError>>>]| {
            let _span = dmig_obs::span_under(parent, "shard", || {
                format!("#{shard} cells={}", bins[shard].len())
            });
            dmig_obs::gauge_add(dmig_obs::keys::LIVE_SHARD_ACTIVE, 1);
            for &cell in &bins[shard] {
                let part = &parts[cell];
                let span = dmig_obs::span_labeled("shard_cell", || {
                    format!(
                        "#{cell} disks={} items={}",
                        part.problem.num_disks(),
                        part.problem.num_items()
                    )
                });
                let result = solve(&part.problem);
                drop(span);
                *slots[cell].lock().expect("cell slot poisoned") = Some(result);
                let done = cells_done.fetch_add(1, Ordering::Relaxed) + 1;
                dmig_obs::gauge_set(dmig_obs::keys::LIVE_ITEMS_DONE, done as u64);
            }
            dmig_obs::gauge_add(dmig_obs::keys::LIVE_SHARD_ACTIVE, -1);
        };

    let slots: Vec<Mutex<Option<Result<MigrationSchedule, SolveError>>>> =
        parts.iter().map(|_| Mutex::new(None)).collect();
    let permits: Vec<pool::WorkerPermit<'_>> =
        pool::budget().try_acquire_many(shards.saturating_sub(1));
    if permits.is_empty() {
        for shard in 0..shards {
            solve_bin(None, shard, &slots);
        }
    } else {
        let parent = dmig_obs::current_span();
        let next = AtomicUsize::new(0);
        let work = |span_parent: Option<dmig_obs::SpanId>| loop {
            let shard = next.fetch_add(1, Ordering::Relaxed);
            if shard >= shards {
                break;
            }
            solve_bin(span_parent, shard, &slots);
        };
        std::thread::scope(|scope| {
            for permit in permits {
                let work = &work;
                scope.spawn(move || {
                    let _permit = permit;
                    work(parent);
                });
            }
            work(None);
        });
    }

    // Lowest cell index's error wins, whatever order the bins finished in.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell slot is filled before scope exit")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::builder::GraphBuilder;

    /// One heavy path component plus a small separate triangle.
    fn mixed_problem() -> MigrationProblem {
        let mut b = GraphBuilder::new().nodes(43);
        for i in 0..40 {
            b = b.edge(i, i + 1);
        }
        b = b.edge(41, 42).edge(42, 41).edge(41, 42).edge(42, 41);
        MigrationProblem::uniform(b.build(), 2).unwrap()
    }

    #[test]
    fn default_budget_equals_uncut_when_nothing_is_cut() {
        let p = mixed_problem();
        let (plain, _) =
            solve_sharded(&p, ShardConfig::uncut(2), 2, crate::even::solve_even).unwrap();
        assert_eq!(plain.makespan(), p.delta_prime());
        for shards in [1, 2, 4] {
            for threads in [1, 4] {
                let (s, r) = solve_sharded(
                    &p,
                    ShardConfig::with_shards(shards),
                    threads,
                    crate::even::solve_even,
                )
                .unwrap();
                assert_eq!(s, plain, "shards={shards} threads={threads}");
                assert_eq!(r.cut_edges, 0);
                assert_eq!(r.round_gap, 0);
                assert_eq!(r.boundary_rounds, 0);
                assert!(r.gap_asserted);
                assert_eq!(r.per_shard_edges.iter().sum::<u64>(), p.num_items() as u64);
            }
        }
    }

    #[test]
    fn forced_cut_is_deterministic_valid_and_gap_bounded() {
        let p = mixed_problem();
        let config = ShardConfig {
            shards: 2,
            max_cell_edges: 8,
        };
        let (base, report) = solve_sharded(&p, config, 1, crate::even::solve_even).unwrap();
        base.validate(&p).unwrap();
        assert!(report.cut_edges > 0, "small budget must cut the path");
        assert!(report.cells > 1);
        assert!(report.boundary_rounds > 0);
        assert!(report.gap_asserted);
        assert!(report.round_gap <= report.gap_bound);
        assert!(report.cut_fraction() > 0.0 && report.cut_fraction() < 1.0);
        for shards in [1, 3, 8] {
            for threads in [1, 2, 4] {
                let cfg = ShardConfig {
                    shards,
                    max_cell_edges: 8,
                };
                let (s, r) = solve_sharded(&p, cfg, threads, crate::even::solve_even).unwrap();
                assert_eq!(s, base, "shards={shards} threads={threads}");
                assert_eq!(r.cut_edges, report.cut_edges);
            }
        }
    }

    #[test]
    fn empty_problem_shards_cleanly() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(3), 2).unwrap();
        let (s, r) =
            solve_sharded(&p, ShardConfig::with_shards(4), 2, crate::even::solve_even).unwrap();
        assert_eq!(s.makespan(), 0);
        assert_eq!(r.cells, 0);
        assert_eq!(r.cut_edges, 0);
        assert_eq!(r.cut_fraction(), 0.0);
    }

    #[test]
    fn inner_error_surfaces_from_lowest_cell() {
        // Odd capacity on the first component makes solve_even fail there.
        let g = GraphBuilder::new().edge(0, 1).edge(2, 3).build();
        let p = MigrationProblem::new(g, crate::Capacities::from_vec(vec![1, 1, 2, 2])).unwrap();
        let err =
            solve_sharded(&p, ShardConfig::with_shards(2), 2, crate::even::solve_even).unwrap_err();
        match err {
            SolveError::OddCapacity { node, .. } => assert_eq!(node.index(), 0),
            other => panic!("unexpected error {other}"),
        }
    }
}
