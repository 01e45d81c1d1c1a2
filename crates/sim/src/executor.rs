//! Continuous-time, fault-tolerant schedule execution.
//!
//! [`crate::engine::simulate_rounds`] prices a frozen schedule under the
//! paper's round model; this module *executes* one in continuous time
//! against a [`FaultPlan`] and repairs the plan as reality diverges from
//! it. Rounds stay barriers. Inside a round every transfer runs at the
//! `min` of its endpoints' fair shares over the transfers still active,
//! recomputed at every completion, fault event, and retry release
//! (work-conserving sharing); with an empty plan that is all it does. Per
//! fault kind:
//!
//! * **flaky transfers** fail at their would-be completion and are retried
//!   from zero after an exponential backoff (0.25 simulated time units,
//!   doubling with every further retry); when
//!   [`ExecutorConfig::retry_max`] retries are spent the item is
//!   [`LostReason::RetriesExhausted`];
//! * **crash-stop failures** zero a disk's bandwidth forever and abort its
//!   in-flight transfers; with replanning enabled the aborted and
//!   not-yet-scheduled items on that disk are carried to the next replan,
//!   which redirects them to the crash's replacement disk (or reports them
//!   [`LostReason::DeadDisk`]);
//! * **degradations** collapse a disk's bandwidth; the executor scales the
//!   disk's transfer constraint `c_v' = max(1, ⌊c_v · bw_now/bw_init⌋)`
//!   at the next replan so the residual schedule stops over-subscribing
//!   the slow disk.
//!
//! At each round boundary the executor replans — re-solving the residual
//! multigraph via [`dmig_core::replan::replan_with`] with per-item
//! doneness — when any of three triggers fires: a crash happened since the
//! last replan, the set of degraded disks changed (a disk fell below half
//! its initial bandwidth, or recovered), or the round blew past the
//! rolling-median [`StallDetector`] fed with *simulated* durations. Item
//! identity is preserved through [`dmig_core::replan::Replanned::origin`]
//! across any number of replans, so the final [`ExecReport`] accounts
//! every original item as delivered (possibly redirected) or lost.
//!
//! **Determinism:** the executor runs entirely in simulated time — the
//! flaky coin is a seeded hash, the stall detector sees simulated
//! durations, and solver results are thread-count independent — so the
//! same instance, fault plan, and config produce a byte-identical
//! [`ExecReport::to_json`] at any thread count.
//!
//! **Checkpoint/resume:** [`Executor`] is the resumable form of
//! [`execute`]: it advances one round-boundary iteration per
//! [`Executor::step`], serializes its complete state between steps as a
//! `dmig-exec-ckpt/1` JSON document ([`Executor::checkpoint_json`]), and
//! revives from one ([`Executor::restore`]) — in a different process,
//! after a `kill -9` — with floating-point state carried as IEEE-754 bit
//! patterns, so the resumed run's final report is byte-identical to an
//! uninterrupted one. A journal written at every boundary uses
//! [`Executor::journal_record`] instead: deltas that carry only what each
//! round changed, against the state [`Executor::new`] built or, after a
//! replan, against a full document; [`Executor::resume`] replays them in
//! order onto their base.

use dmig_core::replan::{rebuild_residual, replan_with, ReplanError, ResidualChanges};
use dmig_core::solver::Solver;
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule};
use dmig_graph::{EdgeId, Endpoints, NodeId};
use dmig_obs::events::{emit, Event};
use dmig_obs::keys;

use crate::engine::{check_inputs, record_sim_round, SimError};
use crate::faults::{attempt_fails, FaultAction, FaultEvent, FaultPlan, FaultPlanError};
use crate::progress::{RoundTicker, StallDetector};
use crate::{Cluster, SimReport};

mod codec;

use codec::{Recorded, Touched};

/// A fault event or retry release this close ahead of the clock is due.
const EVENT_EPS: f64 = 1e-12;
/// A transfer with at most this much volume left has finished.
const DONE_EPS: f64 = 1e-9;

/// Backoff before the first retry, in simulated time units.
const BACKOFF_BASE: f64 = 0.25;
/// Multiplier applied to the backoff on every further retry.
const BACKOFF_FACTOR: f64 = 2.0;
/// A live disk counts as degraded while its bandwidth is below this
/// fraction of its initial bandwidth; a change in the degraded set
/// triggers a replan.
const DEGRADE_THRESHOLD: f64 = 0.5;

/// The recovery policy of [`execute`].
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Enables closed-loop replanning. Without it the executor still
    /// retries flaky transfers, but items touching a crashed disk are
    /// lost where they stand — nothing re-solves the residual.
    pub replan: bool,
    /// Retries allowed per item after its first attempt; the attempt
    /// budget is `retry_max + 1`.
    pub retry_max: u32,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            replan: false,
            retry_max: 3,
        }
    }
}

/// Why an item was not delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LostReason {
    /// An endpoint crashed and no live replacement was available (or
    /// replanning was disabled).
    DeadDisk,
    /// The item's attempt budget ran out.
    RetriesExhausted,
}

/// Final fate of one original item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemFate {
    /// The item reached a destination.
    Delivered {
        /// Whether a replan moved the item off its planned endpoints.
        redirected: bool,
    },
    /// The item was not delivered.
    Lost(
        /// Why.
        LostReason,
    ),
}

impl ItemFate {
    /// Stable string code used in reports, journals, and checkpoints.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            ItemFate::Delivered { redirected: false } => "delivered",
            ItemFate::Delivered { redirected: true } => "delivered-redirected",
            ItemFate::Lost(LostReason::DeadDisk) => "lost-dead-disk",
            ItemFate::Lost(LostReason::RetriesExhausted) => "lost-retries",
        }
    }

    /// Inverse of [`code`](Self::code).
    #[must_use]
    pub fn from_code(code: &str) -> Option<ItemFate> {
        match code {
            "delivered" => Some(ItemFate::Delivered { redirected: false }),
            "delivered-redirected" => Some(ItemFate::Delivered { redirected: true }),
            "lost-dead-disk" => Some(ItemFate::Lost(LostReason::DeadDisk)),
            "lost-retries" => Some(ItemFate::Lost(LostReason::RetriesExhausted)),
            _ => None,
        }
    }
}

/// Errors from [`execute`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// Input validation failed (schedule/cluster/shape).
    Sim(SimError),
    /// The fault plan is invalid for this cluster.
    Fault(FaultPlanError),
    /// A mid-flight replan failed.
    Replan(ReplanError),
    /// A checkpoint record could not be parsed, does not match the inputs
    /// it claims to resume, or is a delta that does not chain onto the
    /// record before it.
    Checkpoint(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Fault(e) => write!(f, "{e}"),
            ExecError::Replan(e) => write!(f, "replan failed: {e}"),
            ExecError::Checkpoint(m) => write!(f, "bad checkpoint: {m}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Sim(e) => Some(e),
            ExecError::Fault(e) => Some(e),
            ExecError::Replan(e) => Some(e),
            ExecError::Checkpoint(_) => None,
        }
    }
}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<FaultPlanError> for ExecError {
    fn from(e: FaultPlanError) -> Self {
        ExecError::Fault(e)
    }
}

impl From<ReplanError> for ExecError {
    fn from(e: ReplanError) -> Self {
        ExecError::Replan(e)
    }
}

/// The outcome of a fault-injected execution: the usual timing report plus
/// per-item accounting and recovery statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecReport {
    /// Timing/utilization report over every executed round (across all
    /// replans). `volume` counts bytes put on the wire, including retried
    /// attempts, minus the unmoved remainder of aborted transfers.
    pub sim: SimReport,
    /// `fates[e]` is the fate of original item `e`. Every item is
    /// accounted.
    pub fates: Vec<ItemFate>,
    /// Residual re-solves performed.
    pub replans: u64,
    /// Transfer attempts restarted after a flaky failure.
    pub retries: u64,
    /// Crash-stop events applied.
    pub crashes: u64,
    /// Items moved off their planned endpoints by a replan (each item
    /// counted once).
    pub redirects: u64,
    /// Rounds that ended with at least one live disk below the
    /// degradation threshold.
    pub degraded_rounds: u64,
}

impl ExecReport {
    /// Items delivered (including redirected ones).
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ItemFate::Delivered { .. }))
            .count()
    }

    /// Items delivered somewhere other than their planned endpoints.
    #[must_use]
    pub fn redirected(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ItemFate::Delivered { redirected: true }))
            .count()
    }

    /// Items lost, for any reason.
    #[must_use]
    pub fn lost(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ItemFate::Lost(_)))
            .count()
    }

    /// Items lost for a specific reason.
    #[must_use]
    pub fn lost_because(&self, reason: LostReason) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ItemFate::Lost(r) if *r == reason))
            .count()
    }

    /// Serializes the report as a self-contained JSON object with
    /// deterministic formatting (the byte-identical determinism guarantee
    /// is stated over this string).
    #[must_use]
    pub fn to_json(&self) -> String {
        use dmig_obs::json::push_u64;
        let mut out = Vec::with_capacity(224 + 24 * self.fates.len() + self.sim.json_capacity());
        let mut int = |key: &[u8], v: u64| {
            out.extend_from_slice(key);
            push_u64(&mut out, v);
        };
        int(b"{\"delivered\": ", self.delivered() as u64);
        int(b", \"redirected\": ", self.redirected() as u64);
        int(b", \"lost\": ", self.lost() as u64);
        let dead = self.lost_because(LostReason::DeadDisk);
        int(b", \"lost_dead_disk\": ", dead as u64);
        let retries = self.lost_because(LostReason::RetriesExhausted);
        int(b", \"lost_retries\": ", retries as u64);
        int(b", \"replans\": ", self.replans);
        int(b", \"retries\": ", self.retries);
        int(b", \"crashes\": ", self.crashes);
        int(b", \"redirect_events\": ", self.redirects);
        int(b", \"degraded_rounds\": ", self.degraded_rounds);
        out.extend_from_slice(b", \"fates\": [");
        for (i, f) in self.fates.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'"');
            out.extend_from_slice(f.code().as_bytes());
            out.push(b'"');
        }
        out.extend_from_slice(b"], \"sim\": ");
        self.sim.write_json(&mut out);
        out.push(b'}');
        String::from_utf8(out).expect("reports are ASCII")
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exec(time={:.3}, delivered={}/{}, redirected={}, lost={}, replans={}, retries={})",
            self.sim.total_time,
            self.delivered(),
            self.fates.len(),
            self.redirected(),
            self.lost(),
            self.replans,
            self.retries,
        )
    }
}

/// One in-flight transfer attempt.
struct Active {
    edge: EdgeId,
    root: usize,
    left: f64,
    will_fail: bool,
}

/// One item waiting out its retry backoff.
struct Waiting {
    edge: EdgeId,
    root: usize,
    resume_at: f64,
}

fn degraded_set(bw: &[f64], bw_init: &[f64], crashed: &[bool]) -> Vec<bool> {
    (0..bw.len())
        .map(|v| !crashed[v] && bw[v] < DEGRADE_THRESHOLD * bw_init[v])
        .collect()
}

/// Records `fate` as the final fate of original item `root`, with its
/// `ItemDelivered` or `ItemLost` event at simulated time `time`.
fn settle(fates: &mut [Option<ItemFate>], root: usize, fate: ItemFate, time: f64) {
    fates[root] = Some(fate);
    let item = root as u64;
    emit(match fate {
        ItemFate::Delivered { redirected } => Event::ItemDelivered {
            item,
            redirected,
            time,
        },
        ItemFate::Lost(reason) => {
            dmig_obs::counter_add(keys::EXEC_LOST_ITEMS, 1);
            let reason = match reason {
                LostReason::DeadDisk => "dead-disk",
                LostReason::RetriesExhausted => "retries-exhausted",
            };
            Event::ItemLost { item, reason, time }
        }
    });
}

/// Executes `schedule` against `faults`, recovering per `config`, and
/// accounts every item of `problem`.
///
/// `solver` re-solves residual instances at replans (pass the same solver
/// the schedule came from for like-for-like plans). The run is fully
/// deterministic — see the module docs. This is the one-shot wrapper over
/// [`Executor`]; drive that directly to checkpoint and resume.
///
/// # Errors
///
/// Returns [`ExecError`] when the inputs are inconsistent, the fault plan
/// is invalid for the cluster, or a replan fails.
pub fn execute(
    problem: &MigrationProblem,
    schedule: &MigrationSchedule,
    cluster: &Cluster,
    faults: &FaultPlan,
    config: &ExecutorConfig,
    solver: &dyn Solver,
) -> Result<ExecReport, ExecError> {
    let mut exec = Executor::new(problem, schedule, cluster, faults, config, solver)?;
    let _span = dmig_obs::span_labeled("execute", || {
        format!(
            "items={} rounds={} replan={}",
            problem.num_items(),
            schedule.makespan(),
            config.replan
        )
    });
    while exec.step()? == StepOutcome::Running {}
    Ok(exec.into_report())
}

/// Outcome of one [`Executor::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// More rounds (or boundary work) remain — step again.
    Running,
    /// Every item is accounted; take the report with
    /// [`Executor::into_report`].
    Finished,
}

/// Schema tag carried by [`Executor::checkpoint_json`] documents.
pub const CHECKPOINT_SCHEMA: &str = "dmig-exec-ckpt/1";

/// First bytes of every [`Executor::journal_record`], full or delta.
pub const RECORD_PREFIX: &str = "{\"schema\": \"dmig-exec-ckpt/1\"";

/// First bytes of a delta [`Executor::journal_record`]; a record that
/// starts with [`RECORD_PREFIX`] but not with this is a full record.
pub const DELTA_PREFIX: &str = "{\"schema\": \"dmig-exec-ckpt/1\", \"delta\": ";

/// Resumable form of [`execute`]: the same closed loop, advanced one
/// round-boundary iteration at a time with [`step`](Executor::step).
///
/// Between any two steps the complete mutable state is serializable with
/// [`checkpoint_json`](Executor::checkpoint_json) and restorable with
/// [`restore`](Executor::restore) — in another process, after a `kill -9`
/// — into a continuation that performs bit-for-bit the work the
/// interrupted run would have performed. Floating-point state travels as
/// IEEE-754 bit patterns and the restored run re-enters the surviving
/// residual schedule via [`dmig_core::replan::rebuild_residual`] instead
/// of re-solving, so the final [`ExecReport::to_json`] is byte-identical
/// to an uninterrupted run under the same seed and fault plan.
pub struct Executor<'a> {
    problem: &'a MigrationProblem,
    faults: &'a FaultPlan,
    config: &'a ExecutorConfig,
    solver: &'a dyn Solver,
    // Derived once from the cluster/fault plan; immutable over the run.
    bw_init: Vec<f64>,
    sizes: Vec<f64>,
    timeline: Vec<FaultEvent>,
    flaky_p: f64,
    // Checkpointed state: everything below round-trips through
    // `checkpoint_json`/`restore`.
    bw: Vec<f64>,
    crashed: Vec<bool>,
    replacement_of: Vec<Option<NodeId>>,
    next_fault: usize,
    fates: Vec<Option<ItemFate>>,
    attempts: Vec<u32>,
    redirected_flag: Vec<bool>,
    cur_problem: MigrationProblem,
    cur_schedule: MigrationSchedule,
    roots: Vec<usize>,
    done: Vec<bool>,
    base: f64,
    round_durations: Vec<f64>,
    disk_busy: Vec<f64>,
    volume: f64,
    replans: u64,
    retries: u64,
    crashes: u64,
    redirects: u64,
    degraded_rounds: u64,
    stall: StallDetector,
    degraded_at_last_replan: Vec<bool>,
    crash_dirty: bool,
    round_idx: usize,
    finished: bool,
    // Wall-clock progress reporting; recreated on restore, never
    // checkpointed (it cannot influence the report).
    ticker: RoundTicker,
    // What the last `journal_record` captured, the base of the next delta.
    // `None` on a fresh executor until its first record, whose base, the
    // state `new` built, is rebuilt then; a restored executor starts with
    // the state it was restored to.
    recorded: Option<Recorded>,
    // The residual items whose per-item state was written since the last
    // record: the entries the next delta diffs.
    touched: Touched,
}

impl<'a> Executor<'a> {
    /// Validates the inputs and builds an executor positioned before the
    /// first round.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the inputs are inconsistent or the
    /// fault plan is invalid for the cluster.
    pub fn new(
        problem: &'a MigrationProblem,
        schedule: &MigrationSchedule,
        cluster: &Cluster,
        faults: &'a FaultPlan,
        config: &'a ExecutorConfig,
        solver: &'a dyn Solver,
    ) -> Result<Executor<'a>, ExecError> {
        check_inputs(problem, schedule, cluster)?;
        faults.validate(problem.num_disks())?;
        let n = problem.num_disks();
        let num_roots = problem.num_items();
        let bw_init: Vec<f64> = (0..n).map(|v| cluster.bandwidth(NodeId::new(v))).collect();
        let sizes: Vec<f64> = (0..num_roots)
            .map(|e| cluster.item_size(EdgeId::new(e)))
            .collect();
        let cur_schedule = schedule.clone();
        let ticker = RoundTicker::new(cur_schedule.makespan());
        Ok(Executor {
            problem,
            faults,
            config,
            solver,
            bw: bw_init.clone(),
            bw_init,
            sizes,
            timeline: faults.timeline(),
            flaky_p: faults.flaky.map_or(0.0, |f| f.probability),
            crashed: vec![false; n],
            replacement_of: vec![None; n],
            next_fault: 0,
            fates: vec![None; num_roots],
            attempts: vec![0; num_roots],
            redirected_flag: vec![false; num_roots],
            cur_problem: problem.clone(),
            cur_schedule,
            roots: (0..num_roots).collect(),
            done: vec![false; num_roots],
            base: 0.0,
            round_durations: Vec::new(),
            disk_busy: vec![0.0; n],
            volume: 0.0,
            replans: 0,
            retries: 0,
            crashes: 0,
            redirects: 0,
            degraded_rounds: 0,
            stall: StallDetector::default(),
            degraded_at_last_replan: vec![false; n],
            crash_dirty: false,
            round_idx: 0,
            finished: false,
            ticker,
            recorded: None,
            touched: Touched::new(),
        })
    }

    /// Whether the run has accounted every item.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Rounds executed so far, monotone across replans (replans reset the
    /// position in the residual schedule, not this count).
    #[must_use]
    pub fn executed_rounds(&self) -> usize {
        self.round_durations.len()
    }

    /// Advances the closed loop by one iteration: executes the next round
    /// of the current (possibly residual) schedule if one remains, then
    /// runs the boundary logic — loss accounting, replan triggers,
    /// termination. The state between any two calls is exactly what
    /// [`checkpoint_json`](Self::checkpoint_json) captures.
    ///
    /// # Errors
    ///
    /// [`ExecError::Replan`] when a boundary replan fails.
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self) -> Result<StepOutcome, ExecError> {
        if self.finished {
            return Ok(StepOutcome::Finished);
        }
        let n = self.bw.len();
        let mut stall_fired = false;
        let executed_round = self.round_idx < self.cur_schedule.makespan();
        if executed_round {
            let round: Vec<EdgeId> = self.cur_schedule.rounds()[self.round_idx].clone();
            self.round_idx += 1;
            // Events carry the monotonic executed-round index (replans
            // reset `round_idx`, not `round_durations`).
            emit(Event::RoundStart {
                round: self.round_durations.len() as u64,
                transfers: round.len() as u64,
                time: self.base,
            });
            let g = self.cur_problem.graph();
            let mut remaining: Vec<Active> = Vec::with_capacity(round.len());
            let mut waiting: Vec<Waiting> = Vec::new();
            for &e in &round {
                // Every per-item write of this round (attempts, retry
                // releases, deliveries, losses at round start, on a crash
                // abort or when retries run out) is to one of its items.
                self.touched.note(e, self.fates.len());
                let ep = g.endpoints(e);
                let root = self.roots[e.index()];
                if self.crashed[ep.u.index()] || self.crashed[ep.v.index()] {
                    // With replanning it stays pending; the crash-triggered
                    // replan at this round's boundary redirects or loses it.
                    if !self.config.replan {
                        self.done[e.index()] = true;
                        let lost = ItemFate::Lost(LostReason::DeadDisk);
                        settle(&mut self.fates, root, lost, self.base);
                    }
                    continue;
                }
                self.attempts[root] += 1;
                let will_fail = attempt_fails(
                    self.faults.seed,
                    root as u64,
                    u64::from(self.attempts[root]),
                    self.flaky_p,
                );
                remaining.push(Active {
                    edge: e,
                    root,
                    left: self.sizes[root],
                    will_fail,
                });
            }
            self.volume += remaining.iter().map(|t| t.left).sum::<f64>();

            let mut local = 0.0f64;
            let mut active = vec![0usize; n];
            loop {
                let now = self.base + local;
                // Apply due fault events.
                while self.next_fault < self.timeline.len()
                    && self.timeline[self.next_fault].time <= now + EVENT_EPS
                {
                    let ev = self.timeline[self.next_fault];
                    self.next_fault += 1;
                    match ev.action {
                        FaultAction::SetBandwidthFactor(d, f) => {
                            // Crash-stop wins: a dead disk never recovers.
                            if !self.crashed[d.index()] {
                                self.bw[d.index()] = self.bw_init[d.index()] * f;
                            }
                        }
                        FaultAction::Crash(d, repl) => {
                            self.crashed[d.index()] = true;
                            self.bw[d.index()] = 0.0;
                            self.replacement_of[d.index()] = repl;
                            self.crash_dirty = true;
                            self.crashes += 1;
                            dmig_obs::counter_add(keys::EXEC_CRASHES, 1);
                            emit(Event::Crash {
                                disk: d.index() as u64,
                                replacement: repl.map(|r| r.index() as u64),
                                time: ev.time,
                            });
                            // Abort the transfers and retries on `d`; without
                            // replanning their items are lost where they stand.
                            let mut abort = |edge: EdgeId, root: usize| {
                                let hit = g.endpoints(edge).contains(d);
                                if hit && !self.config.replan {
                                    self.done[edge.index()] = true;
                                    let lost = ItemFate::Lost(LostReason::DeadDisk);
                                    settle(&mut self.fates, root, lost, ev.time);
                                }
                                !hit
                            };
                            remaining.retain(|t| {
                                let keep = abort(t.edge, t.root);
                                if !keep {
                                    // Un-count the bytes never moved.
                                    self.volume -= t.left;
                                }
                                keep
                            });
                            waiting.retain(|w| abort(w.edge, w.root));
                        }
                    }
                }
                // Release retries whose backoff has elapsed.
                if !waiting.is_empty() {
                    let mut still = Vec::with_capacity(waiting.len());
                    for w in waiting {
                        if w.resume_at <= now + EVENT_EPS {
                            self.attempts[w.root] += 1;
                            let will_fail = attempt_fails(
                                self.faults.seed,
                                w.root as u64,
                                u64::from(self.attempts[w.root]),
                                self.flaky_p,
                            );
                            self.volume += self.sizes[w.root];
                            remaining.push(Active {
                                edge: w.edge,
                                root: w.root,
                                left: self.sizes[w.root],
                                will_fail,
                            });
                        } else {
                            still.push(w);
                        }
                    }
                    waiting = still;
                }
                if remaining.is_empty() && waiting.is_empty() {
                    break;
                }
                if remaining.is_empty() {
                    // Idle: jump to the earliest retry release or fault.
                    let mut wake = waiting
                        .iter()
                        .map(|w| w.resume_at)
                        .fold(f64::INFINITY, f64::min);
                    if let Some(ev) = self.timeline.get(self.next_fault) {
                        wake = wake.min(ev.time);
                    }
                    local = (wake - self.base).max(local);
                    continue;
                }
                active.iter_mut().for_each(|k| *k = 0);
                for t in &remaining {
                    let ep = g.endpoints(t.edge);
                    active[ep.u.index()] += 1;
                    active[ep.v.index()] += 1;
                }
                let rates: Vec<f64> = remaining
                    .iter()
                    .map(|t| {
                        let ep = g.endpoints(t.edge);
                        (self.bw[ep.u.index()] / active[ep.u.index()] as f64)
                            .min(self.bw[ep.v.index()] / active[ep.v.index()] as f64)
                    })
                    .collect();
                let to_completion = remaining
                    .iter()
                    .zip(&rates)
                    .map(|(t, &r)| t.left / r)
                    .fold(f64::INFINITY, f64::min);
                let to_fault = self
                    .timeline
                    .get(self.next_fault)
                    .map_or(f64::INFINITY, |ev| (ev.time - now).max(0.0));
                let to_resume = waiting
                    .iter()
                    .map(|w| (w.resume_at - now).max(0.0))
                    .fold(f64::INFINITY, f64::min);
                let dt = to_completion.min(to_fault).min(to_resume);
                local += dt;
                for (v, &k) in active.iter().enumerate() {
                    if k > 0 {
                        self.disk_busy[v] += dt;
                    }
                }
                let mut next_remaining = Vec::with_capacity(remaining.len());
                for (mut t, r) in remaining.into_iter().zip(rates) {
                    t.left -= r * dt;
                    if t.left > DONE_EPS {
                        next_remaining.push(t);
                        continue;
                    }
                    if t.will_fail {
                        // Flaky failure surfaces at completion (a corrupt
                        // transfer is only detected when verified).
                        if self.attempts[t.root] > self.config.retry_max {
                            self.done[t.edge.index()] = true;
                            let lost = ItemFate::Lost(LostReason::RetriesExhausted);
                            settle(&mut self.fates, t.root, lost, self.base + local);
                        } else {
                            self.retries += 1;
                            dmig_obs::counter_add(keys::EXEC_RETRIES, 1);
                            let delay = BACKOFF_BASE
                                * BACKOFF_FACTOR.powi(
                                    i32::try_from(self.attempts[t.root]).unwrap_or(i32::MAX) - 1,
                                );
                            emit(Event::Retry {
                                item: t.root as u64,
                                attempt: u64::from(self.attempts[t.root]),
                                resume_at: self.base + local + delay,
                                time: self.base + local,
                            });
                            waiting.push(Waiting {
                                edge: t.edge,
                                root: t.root,
                                resume_at: self.base + local + delay,
                            });
                        }
                    } else {
                        self.done[t.edge.index()] = true;
                        let redirected = self.redirected_flag[t.root];
                        let delivered = ItemFate::Delivered { redirected };
                        settle(&mut self.fates, t.root, delivered, self.base + local);
                    }
                }
                remaining = next_remaining;
            }
            self.round_durations.push(local);
            self.base += local;
            emit(Event::RoundEnd {
                round: (self.round_durations.len() - 1) as u64,
                duration: local,
                time: self.base,
            });
            record_sim_round(&mut self.ticker, round.len());
            // Simulated-time stall check: ×1e9 maps time units onto the
            // detector's ns-scaled window; the cast saturates.
            #[allow(clippy::cast_precision_loss)]
            if let Some(median) = self.stall.observe((local * 1e9) as u64) {
                stall_fired = true;
                emit(Event::Stall {
                    round: (self.round_durations.len() - 1) as u64,
                    duration: local,
                    median: median as f64 / 1e9,
                    time: self.base,
                });
            }
        }

        let now_degraded = degraded_set(&self.bw, &self.bw_init, &self.crashed);
        if executed_round && now_degraded.iter().any(|&d| d) {
            self.degraded_rounds += 1;
            dmig_obs::counter_add(keys::EXEC_DEGRADED_ROUNDS, 1);
        }
        let pending = self.done.iter().any(|&d| !d);
        let exhausted = self.round_idx >= self.cur_schedule.makespan();
        if exhausted && !pending {
            self.finished = true;
            return Ok(StepOutcome::Finished);
        }
        // Pending items after the final round can only be placed by a
        // replan; mid-schedule, replan on any fired trigger.
        let trigger = exhausted
            || self.crash_dirty
            || stall_fired
            || now_degraded != self.degraded_at_last_replan;
        if self.config.replan && pending && trigger {
            let caps_init = self.problem.capacities();
            let scaled: Vec<u32> = (0..n)
                .map(|v| {
                    if self.crashed[v] {
                        // Dead disks keep a token constraint; no residual
                        // edge touches them after redirection.
                        1
                    } else {
                        let c =
                            f64::from(caps_init.get(NodeId::new(v))) * self.bw[v] / self.bw_init[v];
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let c = c.floor() as u32;
                        c.max(1)
                    }
                })
                .collect();
            let changes = ResidualChanges {
                capacities: Some(Capacities::from_vec(scaled)),
                redirects: (0..n)
                    .filter(|&v| self.crashed[v])
                    .map(|v| {
                        let repl = self.replacement_of[v].filter(|r| !self.crashed[r.index()]);
                        (NodeId::new(v), repl)
                    })
                    .collect(),
            };
            let pending_count = self.done.iter().filter(|&&d| !d).count();
            let r = {
                let _span = dmig_obs::span_labeled("exec_replan", || {
                    format!("pending={pending_count} crashes={}", self.crashes)
                });
                replan_with(&self.cur_problem, &self.done, &changes, self.solver)?
            };
            self.replans += 1;
            dmig_obs::counter_add(keys::EXEC_REPLANS, 1);
            emit(Event::Replan {
                pending: pending_count as u64,
                reason: if self.crash_dirty {
                    "crash"
                } else if now_degraded != self.degraded_at_last_replan {
                    "degraded-set"
                } else if stall_fired {
                    "stall"
                } else {
                    "exhausted"
                },
                time: self.base,
            });
            // A replan's per-item writes go unnoted: the record after a
            // replan is a full one.
            let mut new_roots = Vec::with_capacity(r.origin.len());
            for (i, &e) in r.origin.iter().enumerate() {
                let root = self.roots[e.index()];
                if r.problem.graph().endpoints(EdgeId::new(i))
                    != self.cur_problem.graph().endpoints(e)
                    && !self.redirected_flag[root]
                {
                    self.redirected_flag[root] = true;
                    self.redirects += 1;
                    dmig_obs::counter_add(keys::EXEC_REDIRECTS, 1);
                }
                new_roots.push(root);
            }
            for e in &r.lost {
                let lost = ItemFate::Lost(LostReason::DeadDisk);
                settle(&mut self.fates, self.roots[e.index()], lost, self.base);
            }
            for e in &r.completed {
                let root = self.roots[e.index()];
                if !self.redirected_flag[root] {
                    self.redirected_flag[root] = true;
                    self.redirects += 1;
                    dmig_obs::counter_add(keys::EXEC_REDIRECTS, 1);
                }
                let delivered = ItemFate::Delivered { redirected: true };
                settle(&mut self.fates, root, delivered, self.base);
            }
            self.cur_problem = r.problem;
            self.cur_schedule = r.schedule;
            self.roots = new_roots;
            self.done = vec![false; self.roots.len()];
            self.round_idx = 0;
            self.ticker = RoundTicker::new(self.cur_schedule.makespan());
            self.degraded_at_last_replan = now_degraded;
            self.crash_dirty = false;
        } else if exhausted {
            // Pending without replanning: crash-stranded items are lost
            // where they stand.
            for (e, d) in self.done.iter().enumerate() {
                if !d {
                    let lost = ItemFate::Lost(LostReason::DeadDisk);
                    settle(&mut self.fates, self.roots[e], lost, self.base);
                    self.touched.note(EdgeId::new(e), self.fates.len());
                }
            }
            self.finished = true;
            return Ok(StepOutcome::Finished);
        }
        Ok(StepOutcome::Running)
    }

    /// Consumes a finished executor and produces the report.
    ///
    /// # Panics
    ///
    /// Panics when called before [`step`](Self::step) returned
    /// [`StepOutcome::Finished`] — an unfinished run has unaccounted
    /// items.
    #[must_use]
    pub fn into_report(self) -> ExecReport {
        assert!(self.finished, "into_report called before the run finished");
        let fates: Vec<ItemFate> = self
            .fates
            .into_iter()
            .map(|f| f.expect("every item is accounted by the executor"))
            .collect();
        ExecReport {
            sim: SimReport {
                total_time: self.base,
                round_durations: self.round_durations,
                disk_busy: self.disk_busy,
                volume: self.volume,
            },
            fates,
            replans: self.replans,
            retries: self.retries,
            crashes: self.crashes,
            redirects: self.redirects,
            degraded_rounds: self.degraded_rounds,
        }
    }

    /// Serializes the complete resume state as one `dmig-exec-ckpt/1`
    /// JSON document (a single line with deterministic field order).
    /// Floating-point state is encoded as IEEE-754 bit patterns in
    /// decimal strings, so a restore continues with bit-identical
    /// arithmetic. This is a *full* record: it restores on its own.
    #[must_use]
    pub fn checkpoint_json(&self) -> String {
        self.render(None)
    }

    /// The next record of a round-boundary journal.
    ///
    /// Records form a *chain*: a base, then deltas against it, numbered
    /// from 1. A fresh executor's base is the state [`new`](Self::new)
    /// built, which the caller can rebuild from the same inputs, so its
    /// first record is already a delta (one with no changes when no round
    /// has run yet). A restored executor continues the chain it was
    /// restored from: its first record is the next delta of that chain.
    /// Only the first record after a replan, which replaces the residual
    /// instance, is a full [`checkpoint_json`](Self::checkpoint_json)
    /// document, and it starts a new chain.
    ///
    /// A delta is the full document with `"delta": k` (its position in
    /// the chain) following the schema, every scalar, no residual instance
    /// (`cur_edges`, `cur_caps`, `cur_rounds`, `roots`), `round_durations`
    /// cut to the rounds executed since the previous record, and every
    /// other array reduced to `[index, value]` pairs for the entries that
    /// changed. It comes from diffing the state against a copy of what the
    /// previous record captured, so it is as large as what the round
    /// changed, not as the instance. The per-item arrays are diffed only at
    /// the items the executor wrote since that record (the rounds' items),
    /// so a delta also costs what the rounds touched; when more were
    /// written than the instance has items, every item is diffed.
    /// [`resume`](Self::resume) reads a chain from either base,
    /// [`restore`](Self::restore) one whose base is a full record.
    pub fn journal_record(&mut self) -> String {
        let mut last = match self.recorded.take() {
            Some(last) if last.replans == self.replans => last,
            None if self.replans == 0 => Recorded::start(self),
            _ => {
                self.recorded = Some(Recorded::of(self, 0));
                self.touched.clear();
                return self.checkpoint_json();
            }
        };
        let delta = self.render(Some(&mut last));
        self.recorded = Some(last);
        self.touched.clear();
        delta
    }

    /// Rebuilds an executor from a [`checkpoint_json`](Self::checkpoint_json)
    /// document — or from a journal chain that starts at one: that full
    /// record followed by the [`journal_record`](Self::journal_record)
    /// deltas written after it, one record per line; blank lines are
    /// skipped but counted — positioned exactly where the interrupted run
    /// was at the last record's boundary. Each record is parsed once. The
    /// restored executor's next `journal_record` continues the chain.
    /// `problem`, `cluster`, `faults`, `config`, and `solver` must be the
    /// ones the original run used (the workspace layer persists and
    /// re-loads them); the residual schedule is *not* re-solved — it is
    /// revived verbatim via [`dmig_core::replan::rebuild_residual`]. A
    /// chain whose base is the plan needs [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// [`ExecError::Checkpoint`], whose message starts with `line N:` (the
    /// 1-based line of `checkpoint` at fault), when a record is
    /// unparseable, does not fit the given inputs, or does not chain onto
    /// the record before it; [`ExecError::Fault`]/[`ExecError::Sim`] when
    /// the inputs themselves are invalid.
    pub fn restore(
        problem: &'a MigrationProblem,
        cluster: &Cluster,
        faults: &'a FaultPlan,
        config: &'a ExecutorConfig,
        solver: &'a dyn Solver,
        checkpoint: &str,
    ) -> Result<Executor<'a>, ExecError> {
        Self::replay(problem, None, cluster, faults, config, solver, checkpoint)
    }

    /// Rebuilds an executor from the chain of a journal that a run started
    /// with `Executor::new(problem, schedule, cluster, …)` wrote. When the
    /// chain's first record is a full record, this is
    /// [`restore`](Self::restore). When it is a delta (it starts with
    /// [`DELTA_PREFIX`]), its base is the state `new` builds from these
    /// inputs, so the deltas are applied to that state and no full record
    /// is parsed and no residual is rebuilt. Records are read by the one
    /// decoder `restore` uses, with the same checks and messages.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore), and as [`new`](Self::new) when the
    /// chain's base is the plan.
    pub fn resume(
        problem: &'a MigrationProblem,
        schedule: &MigrationSchedule,
        cluster: &Cluster,
        faults: &'a FaultPlan,
        config: &'a ExecutorConfig,
        solver: &'a dyn Solver,
        chain: &str,
    ) -> Result<Executor<'a>, ExecError> {
        Self::replay(
            problem,
            Some(schedule),
            cluster,
            faults,
            config,
            solver,
            chain,
        )
    }

    /// Restores a chain whose base is its first record when that is a full
    /// record, else, given the plan's `schedule`, the state `new` builds.
    fn replay(
        problem: &'a MigrationProblem,
        schedule: Option<&MigrationSchedule>,
        cluster: &Cluster,
        faults: &'a FaultPlan,
        config: &'a ExecutorConfig,
        solver: &'a dyn Solver,
        checkpoint: &str,
    ) -> Result<Executor<'a>, ExecError> {
        let at = |i: usize| {
            move |e: ExecError| match e {
                ExecError::Checkpoint(m) => ck_err(format!("line {}: {m}", i + 1)),
                other => other,
            }
        };
        let mut records = checkpoint
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .peekable();
        let mut exec = match (schedule, records.peek()) {
            (Some(schedule), Some((_, first))) if first.starts_with(DELTA_PREFIX) => {
                Self::new(problem, schedule, cluster, faults, config, solver)?
            }
            _ => {
                // The input checks `new` makes for a chain from the plan.
                if cluster.num_disks() != problem.num_disks() {
                    return Err(ExecError::Sim(SimError::ClusterSizeMismatch {
                        cluster: cluster.num_disks(),
                        problem: problem.num_disks(),
                    }));
                }
                faults.validate(problem.num_disks())?;
                let (i, full) = records.next().unwrap_or((0, ""));
                Self::from_full(problem, cluster, faults, config, solver, full).map_err(at(i))?
            }
        };
        let mut deltas = 0;
        for (i, line) in records {
            deltas += 1;
            exec.apply_delta(line, deltas).map_err(at(i))?;
        }
        exec.recorded = Some(Recorded::of(&exec, deltas));
        exec.touched.clear();
        Ok(exec)
    }
}

fn ck_err(m: impl Into<String>) -> ExecError {
    ExecError::Checkpoint(m.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CrashFault, DegradeFault, FlakySpec};
    use dmig_core::solver::AutoSolver;
    use dmig_graph::builder::complete_multigraph;
    use dmig_graph::GraphBuilder;
    use proptest::prelude::*;

    // --- the `core::fmt` renderers reports were written with before the
    // single-buffer writers: the oracles those must match byte for byte.

    fn fmt_sim_json(r: &SimReport) -> String {
        use core::fmt::Write as _;
        use dmig_obs::json::number;
        let mut out = String::from("{");
        let _ = write!(out, "\"total_time\": {}", number(r.total_time));
        let _ = write!(out, ", \"num_rounds\": {}", r.num_rounds());
        let _ = write!(out, ", \"volume\": {}", number(r.volume));
        let _ = write!(out, ", \"throughput\": {}", number(r.throughput()));
        let _ = write!(
            out,
            ", \"mean_utilization\": {}",
            number(r.mean_utilization())
        );
        out.push_str(", \"round_durations\": [");
        for (i, &d) in r.round_durations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&number(d));
        }
        out.push_str("], \"disks\": [");
        for (v, &busy) in r.disk_busy.iter().enumerate() {
            if v > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"busy\": {}, \"utilization\": {}}}",
                number(busy),
                number(r.disk_utilization(v))
            );
        }
        out.push_str("]}");
        out
    }

    fn fmt_exec_json(r: &ExecReport) -> String {
        use core::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"delivered\": {}", r.delivered());
        let _ = write!(out, ", \"redirected\": {}", r.redirected());
        let _ = write!(out, ", \"lost\": {}", r.lost());
        let _ = write!(
            out,
            ", \"lost_dead_disk\": {}",
            r.lost_because(LostReason::DeadDisk)
        );
        let _ = write!(
            out,
            ", \"lost_retries\": {}",
            r.lost_because(LostReason::RetriesExhausted)
        );
        let _ = write!(out, ", \"replans\": {}", r.replans);
        let _ = write!(out, ", \"retries\": {}", r.retries);
        let _ = write!(out, ", \"crashes\": {}", r.crashes);
        let _ = write!(out, ", \"redirect_events\": {}", r.redirects);
        let _ = write!(out, ", \"degraded_rounds\": {}", r.degraded_rounds);
        out.push_str(", \"fates\": [");
        for (i, f) in r.fates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", f.code());
        }
        let _ = write!(out, "], \"sim\": {}}}", fmt_sim_json(&r.sim));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random reports, floats with the bit patterns that render
        /// specially among them: both writers give the oracles' bytes.
        #[test]
        fn reports_match_the_fmt_oracles(
            seed in 0u64..=u64::MAX,
            rounds in 0usize..8,
            disks in 0usize..8,
            items in 0usize..12,
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut float = || {
                let r = next();
                match r % 8 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -0.0,
                    3 => f64::from_bits(r >> 3),
                    4 => (r >> 40) as f64 / 128.0,
                    5 => 1e19 * (r >> 60) as f64,
                    _ => (r >> 20) as f64 / 1e6,
                }
            };
            let sim = SimReport {
                total_time: float(),
                round_durations: (0..rounds).map(|_| float()).collect(),
                disk_busy: (0..disks).map(|_| float()).collect(),
                volume: float(),
            };
            prop_assert_eq!(sim.to_json(), fmt_sim_json(&sim));
            let fates = (0..items)
                .map(|i| match (seed >> (i % 60)) % 4 {
                    0 => ItemFate::Delivered { redirected: false },
                    1 => ItemFate::Delivered { redirected: true },
                    2 => ItemFate::Lost(LostReason::DeadDisk),
                    _ => ItemFate::Lost(LostReason::RetriesExhausted),
                })
                .collect();
            let report = ExecReport {
                sim,
                fates,
                replans: seed % 5,
                retries: seed >> 3,
                crashes: u64::MAX,
                redirects: 0,
                degraded_rounds: seed % 1000,
            };
            prop_assert_eq!(report.to_json(), fmt_exec_json(&report));
        }
    }

    /// 4 disks: items 0-1 ×2 and 1-2 ×2, disk 3 a spare; c = 2.
    fn spare_instance() -> (MigrationProblem, MigrationSchedule, Cluster) {
        let g = GraphBuilder::new()
            .nodes(4)
            .edge(0, 1)
            .edge(0, 1)
            .edge(1, 2)
            .edge(1, 2)
            .build();
        let p = MigrationProblem::uniform(g, 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        (p, s, Cluster::uniform(4, 1.0))
    }

    fn crash_plan(disk: usize, time: f64, replacement: Option<usize>) -> FaultPlan {
        FaultPlan {
            crashes: vec![CrashFault {
                disk: NodeId::new(disk),
                time,
                replacement: replacement.map(NodeId::new),
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn crash_with_replacement_recovers_everything() {
        let (p, s, cluster) = spare_instance();
        let faults = crash_plan(2, 0.5, Some(3));
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig {
                replan: true,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.lost(), 0, "{r}");
        assert_eq!(r.delivered(), 4);
        assert!(r.redirected() >= 1, "items headed to disk 2 must move");
        assert!(r.replans >= 1);
        assert_eq!(r.crashes, 1);
        // The 1-2 items now land on the spare.
        assert_eq!(r.redirected(), 2);
    }

    #[test]
    fn crash_without_replacement_loses_exactly_the_dead_disks_items() {
        let (p, s, cluster) = spare_instance();
        let faults = crash_plan(2, 0.5, None);
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig {
                replan: true,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.lost_because(LostReason::DeadDisk), 2);
        assert_eq!(r.delivered(), 2);
        assert_eq!(r.delivered() + r.lost(), p.num_items());
        assert!(r.replans >= 1);
    }

    #[test]
    fn without_replanning_crash_items_are_lost_in_place() {
        let (p, s, cluster) = spare_instance();
        // Even with a spare on offer, no replan means no redirection.
        let faults = crash_plan(2, 0.5, Some(3));
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig::default(),
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.replans, 0);
        assert_eq!(r.redirected(), 0);
        assert_eq!(r.lost_because(LostReason::DeadDisk), 2);
        assert_eq!(r.delivered() + r.lost(), p.num_items());
    }

    #[test]
    fn flaky_failures_retry_and_deliver() {
        let p = MigrationProblem::uniform(complete_multigraph(3, 3), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let cluster = Cluster::uniform(3, 1.0);
        let faults = FaultPlan {
            seed: 11,
            flaky: Some(FlakySpec { probability: 0.4 }),
            ..FaultPlan::default()
        };
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig {
                retry_max: 20,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.delivered(), p.num_items());
        assert!(r.retries > 0, "p=0.4 over 9 items must fail somewhere");
        // Retried attempts put extra bytes on the wire.
        assert!(r.sim.volume > p.num_items() as f64);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_loss() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let p = MigrationProblem::uniform(g, 1).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let faults = FaultPlan {
            flaky: Some(FlakySpec { probability: 1.0 }),
            ..FaultPlan::default()
        };
        let r = execute(
            &p,
            &s,
            &Cluster::uniform(2, 1.0),
            &faults,
            &ExecutorConfig {
                retry_max: 2,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.lost_because(LostReason::RetriesExhausted), 1);
        assert_eq!(r.retries, 2, "two retries, then the budget is spent");
    }

    #[test]
    fn degradation_counts_rounds_and_triggers_capacity_replan() {
        // Plenty of rounds through disk 0, with an outage long enough
        // (t=1.0 to t=9.0) to span several round boundaries: the onset
        // and the recovery must each be visible at a boundary check.
        let p = MigrationProblem::uniform(complete_multigraph(3, 6), 2).unwrap();
        let s = AutoSolver.solve(&p).unwrap();
        let cluster = Cluster::uniform(3, 1.0);
        let faults = FaultPlan {
            degradations: vec![DegradeFault {
                disk: NodeId::new(0),
                time: 1.0,
                factor: 0.2,
                recover_at: Some(9.0),
            }],
            ..FaultPlan::default()
        };
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig {
                replan: true,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        assert_eq!(r.delivered(), p.num_items());
        assert_eq!(r.lost(), 0);
        assert!(r.degraded_rounds >= 1, "{r}");
        // Degradation onset and recovery each change the degraded set.
        assert!(r.replans >= 2, "{r}");
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (p, s, _) = spare_instance();
        let err = execute(
            &p,
            &s,
            &Cluster::uniform(2, 1.0),
            &FaultPlan::default(),
            &ExecutorConfig::default(),
            &AutoSolver,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Sim(SimError::ClusterSizeMismatch { .. })
        ));
        let bad_faults = crash_plan(9, 0.0, None);
        let err = execute(
            &p,
            &s,
            &Cluster::uniform(4, 1.0),
            &bad_faults,
            &ExecutorConfig::default(),
            &AutoSolver,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Fault(_)));
    }

    #[test]
    fn report_json_is_well_formed_and_accounts_everything() {
        let (p, s, cluster) = spare_instance();
        let faults = crash_plan(2, 0.5, Some(3));
        let r = execute(
            &p,
            &s,
            &cluster,
            &faults,
            &ExecutorConfig {
                replan: true,
                ..ExecutorConfig::default()
            },
            &AutoSolver,
        )
        .unwrap();
        let j = r.to_json();
        assert!(j.contains("\"delivered\": 4"));
        assert!(j.contains("\"lost\": 0"));
        assert!(j.contains("\"replans\": "));
        assert!(j.contains("delivered-redirected"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(r.fates.len(), p.num_items());
    }
}
