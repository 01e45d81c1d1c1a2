//! The general solver for arbitrary transfer constraints (paper §V).
//!
//! The paper generalizes Sanders–Steurer multigraph edge coloring: keep a
//! partial coloring with `q` colors (each usable `c_v` times at disk `v`),
//! make progress with three structure-driven moves, and only grow `q` when
//! a *witness* certifies the current budget is (near-)exhausted. This
//! implementation keeps the same skeleton with practical counterparts:
//!
//! * **direct coloring** — a color missing at both endpoints (the trivial
//!   case of a balancing orbit, Lemma 5.1);
//! * **alternating-walk flips** — the paper's capacitated `ab`-paths
//!   (Def. 5.2): the two-color subgraph is no longer a union of simple
//!   paths (a color may repeat up to `c_v` times at a node), so walks are
//!   edge-disjoint but may revisit vertices; a flip is applied and
//!   *verified*, rolling back in the rare multi-visit overflow case;
//! * **shift moves** — uncolor an adjacent edge to admit the current one
//!   and recursively re-place the evicted edge (bounded depth): the
//!   practical counterpart of growing edge orbits (Def. 5.6, Lemma 5.4);
//! * **escalation** — when no move applies to any pending edge, the state
//!   is the paper's witness situation (Def. 5.7) and the color budget
//!   grows by one.
//!
//! Phase 2 of the paper (§V-C3) — coloring the sparse residue `G_0` by
//! node-splitting + Vizing — is available as an alternative residue
//! strategy ([`ResidueStrategy::SplitColor`]) and exercised by the
//! ablation experiments; escalation dominates it in schedule quality, as
//! the theory predicts (it exists for the analysis, not for practice).
//!
//! Starting budget is `LB1 = Δ'`; every escalation certifies a round the
//! lower bound cannot see, so `final_colors − max(Δ', Γ')` is a measured
//! upper bound on the optimality gap (experiment E4 tracks its `O(√OPT)`
//! shape).

use dmig_color::kempe::kempe_coloring;
use dmig_color::misra_gries::misra_gries_coloring;
use dmig_graph::{EdgeId, Multigraph, NodeId};
use dmig_obs::keys;

use crate::split::split_graph_round_robin;
use crate::{Capacities, MigrationProblem, MigrationSchedule};

/// How the solver finishes off edges that resist all recoloring moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResidueStrategy {
    /// Grow the budget one color at a time and keep recoloring (the
    /// witness case of §V; best schedules).
    #[default]
    Escalate,
    /// Color the residue in one shot by node-splitting + Vizing/Kempe with
    /// fresh colors (the paper's Phase 2, §V-C3; used for ablation).
    SplitColor,
}

/// Order in which the solver first attempts pending edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Insertion (edge-id) order — deterministic baseline.
    #[default]
    Input,
    /// Heaviest first: descending endpoint degree-over-capacity pressure
    /// (`⌈d_u/c_u⌉ + ⌈d_v/c_v⌉`) — the fail-first heuristic; constrained
    /// edges get colored while the palette is still flexible.
    HeavyFirst,
}

/// Tuning knobs for [`solve_general_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeneralConfig {
    /// Residue handling (default: escalate).
    pub residue_strategy: ResidueStrategy,
    /// Initial edge processing order (default: input order).
    pub edge_order: EdgeOrder,
    /// Maximum recursion depth of shift moves (orbit growth).
    pub shift_depth: usize,
    /// Evicted-edge candidates tried per shift level.
    pub shift_fanout: usize,
    /// Total recoloring work (alternating-walk steps + shift-tree nodes)
    /// spent per edge attempt. Bounds the otherwise super-polynomial
    /// effort the walk×shift machinery can burn on tight instances (fat
    /// triangles spend `Θ(m)` escalations, each sweeping every pending
    /// edge); exhausting the budget just fails the attempt and falls
    /// through to escalation.
    pub work_budget: u64,
}

impl Default for GeneralConfig {
    fn default() -> Self {
        GeneralConfig {
            residue_strategy: ResidueStrategy::Escalate,
            edge_order: EdgeOrder::Input,
            shift_depth: 4,
            shift_fanout: 4,
            work_budget: 20_000,
        }
    }
}

/// Counters describing how a [`solve_general`] run made progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeneralStats {
    /// Starting color budget (`LB1`).
    pub initial_colors: usize,
    /// Final number of colors (= schedule makespan before trimming).
    pub final_colors: usize,
    /// Edges colored directly.
    pub direct: usize,
    /// Edges colored after an alternating-walk flip.
    pub walk_flips: usize,
    /// Edges colored through a shift (orbit-growth) move.
    pub shifts: usize,
    /// Budget escalations (witness events).
    pub escalations: usize,
    /// Edges colored by the Phase-2 residue colorer (SplitColor only).
    pub residue_colored: usize,
}

/// Outcome of the general solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralReport {
    /// The feasible schedule.
    pub schedule: MigrationSchedule,
    /// Progress counters.
    pub stats: GeneralStats,
}

/// Solves an arbitrary-capacity instance with the default configuration.
///
/// # Example
///
/// ```
/// use dmig_core::{general::solve_general, bounds, MigrationProblem};
/// use dmig_graph::builder::complete_multigraph;
///
/// let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3)?;
/// let report = solve_general(&p);
/// report.schedule.validate(&p)?;
/// assert!(report.schedule.makespan() >= bounds::lower_bound(&p));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn solve_general(problem: &MigrationProblem) -> GeneralReport {
    solve_general_with(problem, &GeneralConfig::default())
}

/// Solves an arbitrary-capacity instance with explicit configuration.
#[must_use]
pub fn solve_general_with(problem: &MigrationProblem, config: &GeneralConfig) -> GeneralReport {
    let g = problem.graph();
    let m = g.num_edges();
    let _span = dmig_obs::span_labeled("solve_general", || format!("n={} m={m}", g.num_nodes()));
    let lb = problem.delta_prime();
    let mut stats = GeneralStats {
        initial_colors: lb.max(usize::from(m > 0)),
        ..Default::default()
    };
    if m == 0 {
        return GeneralReport {
            schedule: MigrationSchedule::default(),
            stats,
        };
    }

    let mut state = State::new(g, problem.capacities(), stats.initial_colors, config);
    let mut pending: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
    if config.edge_order == EdgeOrder::HeavyFirst {
        let caps = problem.capacities();
        let pressure = |v: dmig_graph::NodeId| g.degree(v).div_ceil(caps.get(v).max(1) as usize);
        pending.sort_by_key(|&e| {
            let ep = g.endpoints(e);
            std::cmp::Reverse(pressure(ep.u) + pressure(ep.v))
        });
    }

    loop {
        // Keep sweeping while any sweep makes progress.
        loop {
            let before = pending.len();
            pending.retain(|&e| !state.try_color_edge(e, &mut stats));
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        if pending.is_empty() {
            break;
        }
        match config.residue_strategy {
            ResidueStrategy::Escalate => {
                state.add_color();
                stats.escalations += 1;
            }
            ResidueStrategy::SplitColor => {
                state.color_residue(&pending, &mut stats);
                pending.clear();
            }
        }
    }

    let (schedule, final_colors) = state.into_schedule();
    stats.final_colors = final_colors;
    dmig_obs::counter_add(keys::GENERAL_DIRECT, stats.direct as u64);
    dmig_obs::counter_add(keys::GENERAL_WALK_FLIPS, stats.walk_flips as u64);
    dmig_obs::counter_add(keys::GENERAL_SHIFTS, stats.shifts as u64);
    dmig_obs::counter_add(keys::GENERAL_ESCALATIONS, stats.escalations as u64);
    dmig_obs::counter_add(keys::GENERAL_RESIDUE_COLORED, stats.residue_colored as u64);
    GeneralReport { schedule, stats }
}

/// The partial coloring and the structures its moves read (DESIGN §3.2).
struct State<'a> {
    g: &'a Multigraph,
    caps: Vec<u32>,
    q: usize,
    /// Color slots per disk in `count`; doubles when `q` outgrows it, so
    /// a run of escalations moves the table O(log q) times.
    stride: usize,
    /// `count[v * stride + c]`: edges of color `c` incident to `v`.
    count: Vec<u32>,
    /// `u64` words per disk in `full`.
    words: usize,
    /// `full[v * words + c / 64]` bit `c % 64`: color `c` has no room
    /// left at `v` (`count ≥ c_v`). Bits at or above `q` are always set.
    full: Vec<u64>,
    /// `edges_at[v][c]`: the edges of color `c` at `v`, for walk and
    /// shift construction. Empty until [`State::build`] fills all `q`
    /// lists of `v`.
    edges_at: Vec<Vec<Vec<EdgeId>>>,
    color_of: Vec<Option<u32>>,
    /// `seq[e]`: the position of `e`'s latest coloring in assignment
    /// order, which is the order of a never-uncolored disk's lists.
    seq: Vec<u64>,
    next_seq: u64,
    /// Walk membership stamps (versioned to avoid clearing).
    walk_stamp: Vec<u32>,
    stamp: u32,
    /// Work units left for the current edge attempt (walk steps + shift
    /// nodes).
    work_left: u64,
    config: GeneralConfig,
}

impl<'a> State<'a> {
    fn new(g: &'a Multigraph, caps: &Capacities, q: usize, config: &GeneralConfig) -> Self {
        let (n, m, words) = (g.num_nodes(), g.num_edges(), q.div_ceil(64));
        // Every color below `q` has room at a disk with `c_v > 0`.
        let mut full = vec![!0u64; n * words];
        for (v, &cap) in caps.as_slice().iter().enumerate() {
            if cap > 0 {
                for c in 0..q {
                    full[v * words + c / 64] &= !(1 << (c % 64));
                }
            }
        }
        State {
            g,
            caps: caps.as_slice().to_vec(),
            q,
            stride: q,
            count: vec![0; n * q],
            words,
            full,
            edges_at: vec![Vec::new(); n],
            color_of: vec![None; m],
            seq: vec![0; m],
            next_seq: 0,
            walk_stamp: vec![0; m],
            stamp: 0,
            work_left: 0,
            config: *config,
        }
    }

    fn add_color(&mut self) {
        let c = self.q;
        self.q += 1;
        let n = self.g.num_nodes();
        if self.q > self.stride {
            let stride = (self.stride * 2).max(1);
            let words = stride.div_ceil(64);
            let mut count = vec![0; n * stride];
            let mut full = vec![!0; n * words];
            for v in 0..n {
                count[v * stride..v * stride + self.stride]
                    .copy_from_slice(&self.count[v * self.stride..(v + 1) * self.stride]);
                full[v * words..v * words + self.words]
                    .copy_from_slice(&self.full[v * self.words..(v + 1) * self.words]);
            }
            (self.stride, self.count, self.words, self.full) = (stride, count, words, full);
        }
        for v in self.g.nodes() {
            self.sync_full(v, c);
            let lists = &mut self.edges_at[v.index()];
            if !lists.is_empty() {
                lists.push(Vec::new());
            }
        }
    }

    fn cap(&self, v: NodeId) -> u32 {
        self.caps[v.index()]
    }

    fn count(&self, v: NodeId, c: usize) -> u32 {
        self.count[v.index() * self.stride + c]
    }

    fn is_missing(&self, v: NodeId, c: usize) -> bool {
        self.count(v, c) < self.cap(v)
    }

    /// Sets `v`'s `full` bit for color `c` from its count.
    #[inline]
    fn sync_full(&mut self, v: NodeId, c: usize) {
        let full = u64::from(self.count(v, c) >= self.cap(v));
        let word = &mut self.full[v.index() * self.words + c / 64];
        *word = (*word & !(1 << (c % 64))) | (full << (c % 64));
    }

    /// Word `w` of `v`'s `full` bitset.
    fn full_word(&self, v: NodeId, w: usize) -> u64 {
        self.full[v.index() * self.words + w]
    }

    /// The colors whose bit is set in `word(w)` for the bitset word `w`
    /// it covers, ascending.
    fn colors_where(&self, word: impl Fn(usize) -> u64) -> Vec<usize> {
        let mut colors = Vec::new();
        for w in 0..self.words {
            let mut bits = word(w);
            while bits != 0 {
                colors.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        colors
    }

    /// Fills `v`'s lists if no walk, shift or uncoloring has touched `v`
    /// yet. Until then only colorings happened at `v`, each appending to
    /// its color's list, so the eagerly kept lists would hold `v`'s
    /// colored edges in assignment order (a self-loop twice, back to
    /// back): exactly what sorting them by `seq` gives.
    #[inline]
    fn build(&mut self, v: NodeId) {
        if self.edges_at[v.index()].is_empty() {
            self.build_lists(v);
        }
    }

    /// The cold half of [`State::build`].
    #[inline(never)]
    fn build_lists(&mut self, v: NodeId) {
        let mut colored: Vec<(u64, EdgeId)> = self
            .g
            .incident_edges(v)
            .iter()
            .filter(|e| self.color_of[e.index()].is_some())
            .map(|&e| (self.seq[e.index()], e))
            .collect();
        colored.sort_unstable();
        let mut lists = vec![Vec::new(); self.q];
        for (_, e) in colored {
            let c = self.color_of[e.index()].expect("filtered to colored edges");
            lists[c as usize].push(e);
        }
        self.edges_at[v.index()] = lists;
    }

    fn assign(&mut self, e: EdgeId, c: usize) {
        debug_assert!(self.color_of[e.index()].is_none());
        let ep = self.g.endpoints(e);
        debug_assert!(self.is_missing(ep.u, c) && self.is_missing(ep.v, c));
        self.color(e, c);
        self.sync_full(ep.u, c);
        self.sync_full(ep.v, c);
    }

    fn unassign(&mut self, e: EdgeId) -> usize {
        let c = self.uncolor(e);
        let ep = self.g.endpoints(e);
        self.sync_full(ep.u, c);
        self.sync_full(ep.v, c);
        c
    }

    /// Colors `e` with `c`, leaving the `full` bits to the caller.
    fn color(&mut self, e: EdgeId, c: usize) {
        let ep = self.g.endpoints(e);
        for v in [ep.u, ep.v] {
            self.count[v.index() * self.stride + c] += 1;
            if let Some(list) = self.edges_at[v.index()].get_mut(c) {
                list.push(e);
            }
        }
        self.seq[e.index()] = self.next_seq;
        self.next_seq += 1;
        self.color_of[e.index()] = Some(u32::try_from(c).expect("color id overflow"));
    }

    /// Uncolors `e` and returns its color, leaving the `full` bits to the
    /// caller.
    fn uncolor(&mut self, e: EdgeId) -> usize {
        let ep = self.g.endpoints(e);
        self.build(ep.u);
        self.build(ep.v);
        let c = self.color_of[e.index()]
            .take()
            .expect("unassign of uncolored edge") as usize;
        for v in [ep.u, ep.v] {
            self.count[v.index() * self.stride + c] -= 1;
            let list = &mut self.edges_at[v.index()][c];
            let pos = list
                .iter()
                .position(|&x| x == e)
                .expect("edge tracked at endpoint");
            list.swap_remove(pos);
        }
        c
    }

    /// The schedule of the complete coloring (color `c` is round `c`,
    /// edges ascending) and the number of colors used.
    fn into_schedule(self) -> (MigrationSchedule, usize) {
        let color = |c: &Option<u32>| c.expect("all edges colored") as usize;
        let mut sizes = vec![0usize; self.q];
        for c in &self.color_of {
            sizes[color(c)] += 1;
        }
        let used = sizes.iter().rposition(|&k| k > 0).map_or(0, |c| c + 1);
        let mut rounds: Vec<Vec<EdgeId>> = sizes[..used]
            .iter()
            .map(|&k| Vec::with_capacity(k))
            .collect();
        for (i, c) in self.color_of.iter().enumerate() {
            rounds[color(c)].push(EdgeId::new(i));
        }
        let mut schedule = MigrationSchedule::from_rounds(rounds);
        schedule.trim_empty_rounds();
        (schedule, used)
    }

    fn try_color_edge(&mut self, e: EdgeId, stats: &mut GeneralStats) -> bool {
        let ep = self.g.endpoints(e);
        if self.try_direct(e) {
            stats.direct += 1;
            return true;
        }
        self.work_left = self.config.work_budget;
        if self.try_walks(e, ep.u, ep.v) {
            stats.walk_flips += 1;
            return true;
        }
        let mut in_progress = vec![e];
        if self.try_shift(e, self.config.shift_depth, &mut in_progress) {
            stats.shifts += 1;
            return true;
        }
        false
    }

    /// Consumes `cost` work units; returns false once the budget is gone.
    fn spend(&mut self, cost: u64) -> bool {
        if self.work_left < cost {
            self.work_left = 0;
            return false;
        }
        self.work_left -= cost;
        true
    }

    /// Colors `e` with the lowest color missing at both endpoints: the
    /// lowest zero bit of the two disks' `full` bitsets.
    fn try_direct(&mut self, e: EdgeId) -> bool {
        let ep = self.g.endpoints(e);
        for w in 0..self.words {
            let busy = self.full_word(ep.u, w) | self.full_word(ep.v, w);
            if busy != !0 {
                self.assign(e, w * 64 + (!busy).trailing_zeros() as usize);
                return true;
            }
        }
        false
    }

    /// Alternating-walk flips for edge `e = (u, v)` (Def. 5.2): try every
    /// pair of a color `a` missing at `u` and `b` missing at `v`, flipping
    /// the `ab`-walk from `v` (or the `ba`-walk from `u`) to free a shared
    /// color.
    fn try_walks(&mut self, e: EdgeId, u: NodeId, v: NodeId) -> bool {
        let free_u = self.colors_where(|w| !self.full_word(u, w));
        let free_v = self.colors_where(|w| !self.full_word(v, w));
        for &a in &free_u {
            for &b in &free_v {
                if a == b {
                    continue; // would have been a direct coloring
                }
                if self.work_left == 0 {
                    return false;
                }
                // Free `a` at v by flipping the ab-walk from v.
                if self.attempt_flip(v, a, b, u, v) {
                    self.assign(e, a);
                    return true;
                }
                // Symmetric: free `b` at u by flipping the ba-walk from u.
                if self.attempt_flip(u, b, a, u, v) {
                    self.assign(e, b);
                    return true;
                }
            }
        }
        false
    }

    /// Builds and flips the `want/other`-walk from `start`, keeping the
    /// flip only if afterwards color `want` is missing at both `u` and `v`
    /// and no walk vertex exceeds its capacity. Returns whether the flip
    /// was kept.
    fn attempt_flip(
        &mut self,
        start: NodeId,
        want: usize,
        other: usize,
        u: NodeId,
        v: NodeId,
    ) -> bool {
        let walk = self.build_walk(start, want, other, u);
        if walk.is_empty() {
            return false;
        }
        self.flip(&walk, want, other);
        let ok = self.walk_feasible(&walk, want, other)
            && self.is_missing(u, want)
            && self.is_missing(v, want);
        if ok {
            for &f in &walk {
                let ep = self.g.endpoints(f);
                for x in [ep.u, ep.v] {
                    self.sync_full(x, want);
                    self.sync_full(x, other);
                }
            }
        } else {
            self.flip(&walk, want, other); // roll back (involutive)
        }
        ok
    }

    /// Edge-disjoint alternating walk from `start`, first edge colored
    /// `want`. Stops at the first vertex missing the next wanted color
    /// (so the final flipped-in color fits), preferring not to end at
    /// `avoid` where the flip would fill the target color.
    fn build_walk(
        &mut self,
        start: NodeId,
        want0: usize,
        other: usize,
        avoid: NodeId,
    ) -> Vec<EdgeId> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut walk = Vec::new();
        let mut cur = start;
        // `want` is the color of the next edge to traverse; equivalently,
        // the walk's last edge (colored toggle(want)) flips *to* `want`,
        // so `want` is also the color the stop vertex would gain.
        let mut want = want0;
        loop {
            let can_stop = !walk.is_empty()
                && self.is_missing(cur, want)
                && !(cur == avoid && want == want0)
                && cur != start;
            if can_stop {
                return walk;
            }
            if !self.spend(1) {
                return Vec::new();
            }
            self.build(cur);
            let next = self.edges_at[cur.index()][want]
                .iter()
                .copied()
                .find(|&f| self.walk_stamp[f.index()] != stamp);
            match next {
                Some(f) => {
                    self.walk_stamp[f.index()] = stamp;
                    walk.push(f);
                    cur = self.g.endpoints(f).other(cur);
                    want = if want == want0 { other } else { want0 };
                }
                None => {
                    // Cannot extend; stop here if the flipped-in color has
                    // room, otherwise abandon the walk.
                    if !walk.is_empty()
                        && self.is_missing(cur, want)
                        && !(cur == avoid && want == want0)
                    {
                        return walk;
                    }
                    return Vec::new();
                }
            }
        }
    }

    /// Swaps colors `a ↔ b` on every walk edge (two-phase; involutive).
    /// The `full` bits of the walk's disks go stale until the caller
    /// keeps the flip and syncs them, or flips back.
    fn flip(&mut self, walk: &[EdgeId], a: usize, b: usize) {
        let recolored: Vec<(EdgeId, usize)> = walk
            .iter()
            .map(|&f| {
                let old = self.uncolor(f);
                (f, if old == a { b } else { a })
            })
            .collect();
        for (f, new) in recolored {
            // Bypass assign()'s feasibility assert: transient overflow is
            // detected by walk_feasible and rolled back.
            self.color(f, new);
        }
    }

    /// Post-flip feasibility of every vertex touched by the walk.
    fn walk_feasible(&self, walk: &[EdgeId], a: usize, b: usize) -> bool {
        walk.iter().all(|&f| {
            let ep = self.g.endpoints(f);
            [ep.u, ep.v]
                .into_iter()
                .all(|x| self.count(x, a) <= self.cap(x) && self.count(x, b) <= self.cap(x))
        })
    }

    /// Shift move (orbit growth): evict a colored edge adjacent to `e` to
    /// admit `e`, then re-place the evicted edge recursively.
    fn try_shift(&mut self, e: EdgeId, depth: usize, in_progress: &mut Vec<EdgeId>) -> bool {
        if depth == 0 || !self.spend(8) {
            return false;
        }
        let ep = self.g.endpoints(e);
        for (anchor, far) in [(ep.u, ep.v), (ep.v, ep.u)] {
            // Colors missing at `anchor` but full at `far`: evict one of
            // far's edges of that color.
            let candidates =
                self.colors_where(|w| !self.full_word(anchor, w) & self.full_word(far, w));
            for c in candidates {
                self.build(far);
                let evictable: Vec<EdgeId> = self.edges_at[far.index()][c]
                    .iter()
                    .copied()
                    .filter(|f| *f != e && !in_progress.contains(f))
                    .take(self.config.shift_fanout)
                    .collect();
                for f in evictable {
                    self.unassign(f);
                    if !(self.is_missing(ep.u, c) && self.is_missing(ep.v, c)) {
                        self.assign(f, c);
                        continue;
                    }
                    self.assign(e, c);
                    in_progress.push(f);
                    let fep = self.g.endpoints(f);
                    let placed = self.try_direct(f)
                        || self.try_walks(f, fep.u, fep.v)
                        || self.try_shift(f, depth - 1, in_progress);
                    in_progress.pop();
                    if placed {
                        return true;
                    }
                    self.unassign(e);
                    self.assign(f, c);
                }
            }
        }
        false
    }

    /// Phase 2 (§V-C3): color the uncolored residue with fresh colors via
    /// node-splitting; Vizing (Misra–Gries) when the split is simple,
    /// Kempe chains otherwise.
    fn color_residue(&mut self, pending: &[EdgeId], stats: &mut GeneralStats) {
        let (residue, mapping) = self.g.edge_subgraph(pending);
        let caps = Capacities::from_vec(self.caps.clone());
        let split = split_graph_round_robin(&residue, &caps);
        let coloring = if split.graph.is_simple() {
            misra_gries_coloring(&split.graph)
        } else {
            kempe_coloring(&split.graph).0
        };
        let base = self.q;
        for _ in 0..coloring.num_colors() {
            self.add_color();
        }
        for (i, &orig) in mapping.iter().enumerate() {
            let c = base
                + coloring
                    .color(EdgeId::new(i))
                    .expect("residue coloring complete") as usize;
            self.assign(orig, c);
            stats.residue_colored += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dmig_graph::builder::{complete_multigraph, cycle_multigraph, star_multigraph};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Validates and returns (makespan, lower bound).
    fn check(p: &MigrationProblem) -> (usize, usize) {
        let report = solve_general(p);
        report.schedule.validate(p).unwrap();
        let lb = bounds::lower_bound(p);
        let rounds = report.schedule.makespan();
        assert!(rounds >= lb);
        // Hard envelope: never worse than the Saia/Shannon guarantee.
        let envelope = (3 * p.delta_prime()).div_ceil(2) + 1;
        assert!(
            rounds <= envelope.max(1),
            "{rounds} rounds exceeds 1.5-envelope {envelope} on {p}"
        );
        (rounds, lb)
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(2), 1).unwrap();
        let r = solve_general(&p);
        assert_eq!(r.schedule.makespan(), 0);
        assert_eq!(r.stats.final_colors, 0);
    }

    #[test]
    fn homogeneous_triangle_needs_three() {
        // K3 with c=1: LB = 2 but OPT = 3 (odd cycle) — the solver must
        // escalate exactly once.
        let p = MigrationProblem::uniform(complete_multigraph(3, 1), 1).unwrap();
        let (rounds, lb) = check(&p);
        assert_eq!(lb, 2);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn fig2_even_capacities_hit_lb() {
        for m in [1usize, 2, 4] {
            let p = MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap();
            let (rounds, _) = check(&p);
            assert_eq!(rounds, m, "even-capacity instances should reach Δ'");
        }
    }

    #[test]
    fn odd_capacities_near_lb() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3).unwrap();
        let (rounds, lb) = check(&p);
        assert!(rounds <= lb + 1, "small instance: at most one extra round");
    }

    #[test]
    fn heterogeneous_mixed_parity() {
        let p = MigrationProblem::new(
            complete_multigraph(5, 2),
            crate::Capacities::from_vec(vec![1, 2, 3, 4, 5]),
        )
        .unwrap();
        let (rounds, lb) = check(&p);
        assert!(rounds <= lb + 2);
    }

    #[test]
    fn structured_families() {
        check(&MigrationProblem::uniform(cycle_multigraph(9, 3), 2).unwrap());
        check(&MigrationProblem::uniform(star_multigraph(7, 3), 3).unwrap());
        check(&MigrationProblem::uniform(complete_multigraph(6, 4), 5).unwrap());
    }

    #[test]
    fn randomized_instances_stay_near_lb() {
        let mut rng = StdRng::seed_from_u64(0x6E6E);
        let mut total_excess = 0usize;
        let mut cases = 0usize;
        for _ in 0..40 {
            let n = rng.gen_range(2..14);
            let mut g = dmig_graph::Multigraph::with_nodes(n);
            for _ in 0..rng.gen_range(1..70) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u.into(), v.into());
                }
            }
            if g.num_edges() == 0 {
                continue;
            }
            let caps: crate::Capacities = (0..n).map(|_| rng.gen_range(1..6u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            let (rounds, lb) = check(&p);
            total_excess += rounds - lb;
            cases += 1;
        }
        // The 1+o(1) promise: average excess far below the 0.5·LB the
        // baseline would allow. Expect near-zero.
        assert!(
            total_excess <= cases,
            "avg excess too high: {total_excess}/{cases}"
        );
    }

    #[test]
    fn stats_are_coherent() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 3).unwrap();
        let r = solve_general(&p);
        let colored =
            r.stats.direct + r.stats.walk_flips + r.stats.shifts + r.stats.residue_colored;
        assert_eq!(colored, p.num_items());
        assert!(r.stats.final_colors >= r.stats.initial_colors);
        assert_eq!(
            r.stats.final_colors,
            r.stats.initial_colors + r.stats.escalations,
            "escalations account for all growth under the Escalate strategy"
        );
    }

    #[test]
    fn split_color_strategy_is_feasible() {
        let cfg = GeneralConfig {
            residue_strategy: ResidueStrategy::SplitColor,
            ..GeneralConfig::default()
        };
        let p = MigrationProblem::uniform(complete_multigraph(5, 3), 3).unwrap();
        let r = solve_general_with(&p, &cfg);
        r.schedule.validate(&p).unwrap();
        assert!(r.schedule.makespan() >= bounds::lower_bound(&p));
    }

    #[test]
    fn heavy_first_order_is_feasible_and_no_worse_on_tight_instances() {
        let cfg = GeneralConfig {
            edge_order: EdgeOrder::HeavyFirst,
            ..Default::default()
        };
        for p in [
            MigrationProblem::uniform(complete_multigraph(5, 2), 1).unwrap(),
            MigrationProblem::uniform(complete_multigraph(7, 1), 1).unwrap(),
            MigrationProblem::new(
                complete_multigraph(5, 2),
                crate::Capacities::from_vec(vec![1, 2, 3, 4, 5]),
            )
            .unwrap(),
        ] {
            let heavy = solve_general_with(&p, &cfg);
            heavy.schedule.validate(&p).unwrap();
            let input = solve_general(&p);
            // Both are heuristics; demand the heavy-first order stays
            // within one round of the default.
            assert!(heavy.schedule.makespan() <= input.schedule.makespan() + 1);
        }
    }

    /// Checks `full` against `count`: bit `c` is set iff color `c` has no
    /// room left, and every bit at or above `q` is set.
    fn assert_full_bits(state: &State<'_>) {
        for v in state.g.nodes() {
            for c in 0..state.words * 64 {
                let bit = state.full[v.index() * state.words + c / 64] >> (c % 64) & 1 == 1;
                let expected = c >= state.q || !state.is_missing(v, c);
                assert_eq!(bit, expected, "disk {v} color {c}");
            }
        }
    }

    #[test]
    fn lists_first_built_after_an_escalation_match_the_eager_lists() {
        // Path 0-1-2-3 at c = 1: e0 = (0,1), e1 = (2,3), e2 = (1,2).
        let g = dmig_graph::GraphBuilder::new()
            .edge(0, 1)
            .edge(2, 3)
            .edge(1, 2)
            .build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let mut state = State::new(p.graph(), p.capacities(), 1, &GeneralConfig::default());
        let [e0, e1, e2] = [0, 1, 2].map(EdgeId::new);
        assert!(state.try_direct(e0));
        // The escalation outgrows the one-color stride and moves the table.
        state.add_color();
        assert_eq!((state.q, state.stride), (2, 2));
        state.assign(e1, 1);
        assert_full_bits(&state);
        assert!(
            state.edges_at.iter().all(Vec::is_empty),
            "no lists built yet"
        );

        // e2 finds color 1 free only at disk 1 and color 0 only at disk 2,
        // so the walk from disk 2 flips e1 to 0: the first lists are built
        // now, on the grown state.
        let mut stats = GeneralStats::default();
        assert!(state.try_color_edge(e2, &mut stats));
        assert_eq!(stats.walk_flips, 1);
        assert_eq!(state.color_of, vec![Some(0), Some(0), Some(1)]);
        assert_full_bits(&state);
        assert_eq!(state.edges_at[2], vec![vec![e1], vec![e2]]);
        assert_eq!(state.edges_at[3], vec![vec![e1], vec![]]);
        assert!(state.edges_at[0].is_empty() && state.edges_at[1].is_empty());
        // Built late, disks 0 and 1 get what eager lists would hold.
        state.build(NodeId::new(1));
        state.build(NodeId::new(0));
        assert_eq!(state.edges_at[1], vec![vec![e0], vec![e2]]);
        assert_eq!(state.edges_at[0], vec![vec![e0], vec![]]);
    }

    #[test]
    fn shift_depth_zero_still_terminates() {
        let cfg = GeneralConfig {
            shift_depth: 0,
            ..GeneralConfig::default()
        };
        let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3).unwrap();
        let r = solve_general_with(&p, &cfg);
        r.schedule.validate(&p).unwrap();
    }
}
