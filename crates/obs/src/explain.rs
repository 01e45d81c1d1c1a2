//! Makespan attribution: *why* does a schedule take as long as it does?
//!
//! The paper proves two lower bounds — `LB1 = Δ' = max_v ⌈d_v/c_v⌉` (some
//! disk simply has too much work per round-slot) and `LB2 = Γ'` (some
//! dense subgraph cannot drain its internal items faster) — and CI already
//! asserts schedules land within a factor of their max. This module turns
//! the assertion into an *explanation*: which disk realizes LB1, which
//! witness set realizes LB2, and, round by round, which disk's transfers
//! actually ended each round (the *binding chain*) together with the time
//! the round would have saved had that disk's transfers been free.
//!
//! `dmig-obs` sits below `dmig-core`/`dmig-sim` in the dependency order,
//! so the input is a plain data structure ([`ExplainInput`]) the caller
//! fills from the problem (per-disk degree/capacity), the bounds witness,
//! and a per-round busy profile (`dmig-sim`'s `round_profile`). The output
//! ([`Attribution`]) renders as ranked text ([`Attribution::render_text`]),
//! JSON ([`Attribution::to_json`]), and feeds the per-disk heatmap lane of
//! the HTML timeline ([`crate::trace`]).

use std::fmt::Write as _;

use crate::json;

/// Static per-disk load facts: the LB1 ingredients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskLoad {
    /// Items incident to the disk (its multigraph degree).
    pub degree: u64,
    /// Simultaneous-transfer capacity `c_v` (≥ 1 in valid problems).
    pub capacity: u64,
}

impl DiskLoad {
    /// The disk's LB1 contribution `⌈d_v/c_v⌉` (0 when the capacity is 0,
    /// which valid problems never produce).
    #[must_use]
    pub fn ratio(&self) -> u64 {
        if self.capacity == 0 {
            0
        } else {
            self.degree.div_ceil(self.capacity)
        }
    }
}

/// The LB2 witness set, mirroring `dmig-core`'s `GammaWitness` without
/// the dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessSet {
    /// Disks in the witness set `S`.
    pub nodes: Vec<usize>,
    /// Items internal to `S`.
    pub internal_edges: u64,
    /// `Σ_{v∈S} c_v`.
    pub capacity_sum: u64,
    /// The bound `Γ' = ⌈2·|E(S)| / Σc_v⌉` the set realizes.
    pub bound: u64,
}

/// One executed round's per-disk busy profile. `busy` is sparse — only
/// disks with at least one transfer in the round appear — and each entry
/// is the simulated time the disk spent busy inside the round (its
/// slowest incident transfer under the round model).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundLoad {
    /// Simulated duration of the round (max over `busy`).
    pub duration: f64,
    /// `(disk, busy-time)` pairs, ascending by disk id.
    pub busy: Vec<(usize, f64)>,
}

/// Everything [`attribute`] needs, assembled by the caller.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplainInput {
    /// Per-disk degree/capacity, indexed by disk id.
    pub disks: Vec<DiskLoad>,
    /// The max-density witness realizing LB2, if any.
    pub witness: Option<WitnessSet>,
    /// Per-round busy profiles of the schedule under the round model.
    pub rounds: Vec<RoundLoad>,
}

impl Default for DiskLoad {
    fn default() -> Self {
        DiskLoad {
            degree: 0,
            capacity: 1,
        }
    }
}

/// Which lower bound binds the schedule. `Γ'` never exceeds `Δ'` on a
/// valid instance (`dmig_core::bounds::lower_bound` has the proof), so a
/// dense subgraph can at most tie a single disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding {
    /// `Δ' > Γ'`: a single disk's per-round work governs.
    Lb1,
    /// `Δ' = Γ' > 0`.
    Tie,
    /// Both bounds are zero (empty migration).
    None,
}

impl Binding {
    /// Stable lowercase tag (`"lb1"`, `"tie"`, `"none"`).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Binding::Lb1 => "lb1",
            Binding::Tie => "tie",
            Binding::None => "none",
        }
    }
}

/// One link of the binding chain: the disk whose transfers ended round
/// `round`, and what the round would have saved without them.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainLink {
    /// Round index.
    pub round: usize,
    /// The binding disk (argmax busy; lowest id on ties).
    pub disk: usize,
    /// The binding disk's busy time (equals the round duration).
    pub busy: f64,
    /// Round duration.
    pub duration: f64,
    /// `duration − second-highest busy`: the time this round would shrink
    /// if the binding disk's transfers were removed.
    pub savings: f64,
}

/// Per-disk attribution totals, the rows of the ranked table.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskAttribution {
    /// Disk id.
    pub disk: usize,
    /// Rounds this disk bound.
    pub rounds_bound: usize,
    /// Total duration of the rounds this disk bound.
    pub bound_time: f64,
    /// Total estimated savings from removing this disk's transfers in the
    /// rounds it bound.
    pub savings: f64,
    /// Busy time over makespan (0 for an empty migration).
    pub utilization: f64,
    /// Total busy time across all rounds.
    pub busy: f64,
}

/// The full explanation [`attribute`] produces.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// `Δ' = max_v ⌈d_v/c_v⌉`.
    pub lb1: u64,
    /// The disk realizing LB1 (first argmax), `None` for empty problems.
    pub lb1_disk: Option<usize>,
    /// `Γ'` from the witness (0 when no witness).
    pub lb2: u64,
    /// The witness set, passed through.
    pub witness: Option<WitnessSet>,
    /// Which bound binds.
    pub binding: Binding,
    /// `max(lb1, lb2)`, which is `lb1` on a valid instance.
    pub binding_bound: u64,
    /// Per-round binding chain, in round order.
    pub chain: Vec<ChainLink>,
    /// Ranked per-disk table, descending by `bound_time` (ties: busier
    /// disk first, then lower id).
    pub ranking: Vec<DiskAttribution>,
    /// Makespan (sum of round durations).
    pub total_time: f64,
}

/// Computes the full makespan attribution for one schedule.
#[must_use]
pub fn attribute(input: &ExplainInput) -> Attribution {
    let mut lb1 = 0u64;
    let mut lb1_disk = None;
    for (v, d) in input.disks.iter().enumerate() {
        let r = d.ratio();
        if r > lb1 {
            lb1 = r;
            lb1_disk = Some(v);
        }
    }
    let lb2 = input.witness.as_ref().map_or(0, |w| w.bound);
    let binding = match (lb1, lb2) {
        (0, 0) => Binding::None,
        (a, b) if a > b => Binding::Lb1,
        _ => Binding::Tie,
    };

    let total_time: f64 = input.rounds.iter().map(|r| r.duration).sum();
    let n = input.disks.len();
    let mut busy_total = vec![0.0f64; n];
    let mut rounds_bound = vec![0usize; n];
    let mut bound_time = vec![0.0f64; n];
    let mut savings_total = vec![0.0f64; n];
    let mut chain = Vec::with_capacity(input.rounds.len());
    for (i, round) in input.rounds.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        let mut second = 0.0f64;
        for &(v, b) in &round.busy {
            if v < n {
                busy_total[v] += b;
            }
            match best {
                // Strict `>` keeps the lowest disk id on exact ties
                // (busy pairs are ascending by disk id).
                Some((_, bb)) if b > bb => {
                    second = bb;
                    best = Some((v, b));
                }
                Some(_) => second = second.max(b),
                None => best = Some((v, b)),
            }
        }
        let Some((disk, busy)) = best else {
            continue; // empty round: nothing binds
        };
        let savings = (round.duration - second).max(0.0);
        if disk < n {
            rounds_bound[disk] += 1;
            bound_time[disk] += round.duration;
            savings_total[disk] += savings;
        }
        chain.push(ChainLink {
            round: i,
            disk,
            busy,
            duration: round.duration,
            savings,
        });
    }

    let mut ranking: Vec<DiskAttribution> = (0..n)
        .filter(|&v| busy_total[v] > 0.0 || rounds_bound[v] > 0)
        .map(|v| DiskAttribution {
            disk: v,
            rounds_bound: rounds_bound[v],
            bound_time: bound_time[v],
            savings: savings_total[v],
            utilization: if total_time > 0.0 {
                busy_total[v] / total_time
            } else {
                0.0
            },
            busy: busy_total[v],
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.bound_time
            .total_cmp(&a.bound_time)
            .then(b.busy.total_cmp(&a.busy))
            .then(a.disk.cmp(&b.disk))
    });

    Attribution {
        lb1,
        lb1_disk,
        lb2,
        witness: input.witness.clone(),
        binding,
        binding_bound: lb1.max(lb2),
        chain,
        ranking,
        total_time,
    }
}

impl Attribution {
    /// Renders the explanation as a ranked, human-readable report.
    #[must_use]
    pub fn render_text(&self, disks: &[DiskLoad]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "makespan attribution: {} rounds, total time {:.6}",
            self.chain.len(),
            self.total_time
        );
        match self.lb1_disk {
            Some(v) => {
                let d = disks.get(v).copied().unwrap_or_default();
                let _ = writeln!(
                    out,
                    "LB1 (Δ' = max ⌈d_v/c_v⌉) = {}, realized by disk {v} \
                     (degree {}, capacity {})",
                    self.lb1, d.degree, d.capacity
                );
            }
            None => {
                let _ = writeln!(out, "LB1 (Δ') = 0 (no items)");
            }
        }
        match &self.witness {
            Some(w) => {
                let nodes: Vec<String> = w.nodes.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "LB2 (Γ') = {}, witness S = {{{}}} (|E(S)| = {}, Σc = {})",
                    self.lb2,
                    nodes.join(", "),
                    w.internal_edges,
                    w.capacity_sum
                );
            }
            None => {
                let _ = writeln!(out, "LB2 (Γ') = 0 (no witness)");
            }
        }
        let _ = writeln!(
            out,
            "binding lower bound: max(LB1, LB2) = {} via {}",
            self.binding_bound,
            self.binding.tag()
        );
        if self.ranking.is_empty() {
            let _ = writeln!(out, "(no executed rounds to attribute)");
            return out;
        }
        let _ = writeln!(out, "per-round binding chain, aggregated by disk:");
        let _ = writeln!(
            out,
            "  {:>4}  {:>4}  {:>12}  {:>12}  {:>12}  {:>11}",
            "rank", "disk", "rounds-bound", "bound-time", "est-savings", "utilization"
        );
        for (i, r) in self.ranking.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>4}  {:>4}  {:>12}  {:>12.6}  {:>12.6}  {:>10.1}%",
                i + 1,
                r.disk,
                r.rounds_bound,
                r.bound_time,
                r.savings,
                r.utilization * 100.0
            );
        }
        if let Some(top) = self.ranking.first() {
            if top.savings > 0.0 && self.total_time > 0.0 {
                let _ = writeln!(
                    out,
                    "binding disk {}: removing its transfers would shrink the \
                     makespan by ~{:.6} time units ({:.1}%)",
                    top.disk,
                    top.savings,
                    top.savings / self.total_time * 100.0
                );
            }
        }
        out
    }

    /// Serializes the attribution as a self-contained JSON object
    /// (schema `dmig-explain/1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"dmig-explain/1\"");
        let _ = write!(out, ",\"lb1\":{}", self.lb1);
        out.push_str(",\"lb1_disk\":");
        match self.lb1_disk {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"lb2\":{}", self.lb2);
        let _ = write!(out, ",\"binding\":\"{}\"", self.binding.tag());
        let _ = write!(out, ",\"binding_bound\":{}", self.binding_bound);
        let _ = write!(out, ",\"total_time\":{}", json::number(self.total_time));
        let _ = write!(out, ",\"rounds\":{}", self.chain.len());
        out.push_str(",\"witness\":");
        match &self.witness {
            Some(w) => {
                out.push_str("{\"nodes\":[");
                for (i, v) in w.nodes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                let _ = write!(
                    out,
                    "],\"internal_edges\":{},\"capacity_sum\":{},\"bound\":{}}}",
                    w.internal_edges, w.capacity_sum, w.bound
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"chain\":[");
        for (i, l) in self.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"disk\":{},\"busy\":{},\"duration\":{},\"savings\":{}}}",
                l.round,
                l.disk,
                json::number(l.busy),
                json::number(l.duration),
                json::number(l.savings)
            );
        }
        out.push_str("],\"disks\":[");
        for (i, r) in self.ranking.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"disk\":{},\"rounds_bound\":{},\"bound_time\":{},\"savings\":{},\
                 \"utilization\":{},\"busy\":{}}}",
                r.disk,
                r.rounds_bound,
                json::number(r.bound_time),
                json::number(r.savings),
                json::number(r.utilization),
                json::number(r.busy)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 disks; disk 1 is slow (capacity 1, degree 4 → ratio 4).
    fn sample() -> ExplainInput {
        ExplainInput {
            disks: vec![
                DiskLoad {
                    degree: 6,
                    capacity: 2,
                },
                DiskLoad {
                    degree: 4,
                    capacity: 1,
                },
                DiskLoad {
                    degree: 6,
                    capacity: 4,
                },
            ],
            witness: Some(WitnessSet {
                nodes: vec![0, 1],
                internal_edges: 4,
                capacity_sum: 3,
                bound: 3,
            }),
            rounds: vec![
                RoundLoad {
                    duration: 4.0,
                    busy: vec![(0, 2.0), (1, 4.0), (2, 1.0)],
                },
                RoundLoad {
                    duration: 3.0,
                    busy: vec![(0, 3.0), (1, 3.0)],
                },
                RoundLoad {
                    duration: 2.0,
                    busy: vec![(2, 2.0)],
                },
            ],
        }
    }

    #[test]
    fn lb1_argmax_and_binding() {
        let a = attribute(&sample());
        assert_eq!(a.lb1, 4);
        assert_eq!(a.lb1_disk, Some(1));
        assert_eq!(a.lb2, 3);
        assert_eq!(a.binding, Binding::Lb1);
        assert_eq!(a.binding_bound, 4);
        assert!((a.total_time - 9.0).abs() < 1e-12);
    }

    #[test]
    fn chain_picks_argmax_with_low_id_tiebreak() {
        let a = attribute(&sample());
        assert_eq!(a.chain.len(), 3);
        assert_eq!(a.chain[0].disk, 1);
        assert!((a.chain[0].savings - 2.0).abs() < 1e-12, "4.0 − 2.0");
        // Round 1: disks 0 and 1 tie at 3.0 → lowest id wins, savings 0.
        assert_eq!(a.chain[1].disk, 0);
        assert!((a.chain[1].savings).abs() < 1e-12);
        // Round 2: single busy disk → full duration saved.
        assert_eq!(a.chain[2].disk, 2);
        assert!((a.chain[2].savings - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_sorted_by_bound_time() {
        let a = attribute(&sample());
        assert_eq!(a.ranking[0].disk, 1, "{:?}", a.ranking);
        assert_eq!(a.ranking[0].rounds_bound, 1);
        assert!((a.ranking[0].bound_time - 4.0).abs() < 1e-12);
        assert!((a.ranking[0].utilization - 7.0 / 9.0).abs() < 1e-12);
        let disks: Vec<usize> = a.ranking.iter().map(|r| r.disk).collect();
        assert_eq!(disks, vec![1, 0, 2]);
    }

    #[test]
    fn empty_input_attributes_nothing() {
        let a = attribute(&ExplainInput::default());
        assert_eq!(a.lb1, 0);
        assert_eq!(a.lb1_disk, None);
        assert_eq!(a.binding, Binding::None);
        assert_eq!(a.binding_bound, 0);
        assert!(a.chain.is_empty());
        assert!(a.ranking.is_empty());
        assert_eq!(a.total_time, 0.0);
        let text = a.render_text(&[]);
        assert!(text.contains("no items"), "{text}");
        assert!(text.contains("no executed rounds"), "{text}");
    }

    #[test]
    fn lb2_binding_when_witness_dominates() {
        // Γ' ≤ Δ' on every valid instance, so the witness at best ties.
        let tie = attribute(&ExplainInput {
            witness: Some(WitnessSet {
                nodes: vec![0],
                internal_edges: 1,
                capacity_sum: 2,
                bound: 1,
            }),
            disks: vec![DiskLoad {
                degree: 1,
                capacity: 1,
            }],
            rounds: vec![],
        });
        assert_eq!(tie.binding, Binding::Tie);
    }

    #[test]
    fn render_text_names_binding_disk() {
        let a = attribute(&sample());
        let text = a.render_text(&sample().disks);
        assert!(
            text.contains("realized by disk 1 (degree 4, capacity 1)"),
            "{text}"
        );
        assert!(text.contains("max(LB1, LB2) = 4 via lb1"), "{text}");
        assert!(text.contains("witness S = {0, 1}"), "{text}");
        assert!(text.contains("rounds-bound"), "{text}");
    }

    #[test]
    fn json_is_balanced_and_carries_schema() {
        let a = attribute(&sample());
        let j = a.to_json();
        assert!(j.contains("\"schema\":\"dmig-explain/1\""));
        assert!(j.contains("\"lb1\":4"));
        assert!(j.contains("\"lb1_disk\":1"));
        assert!(j.contains("\"binding\":\"lb1\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // No-witness case renders null.
        let none = attribute(&ExplainInput::default());
        assert!(none.to_json().contains("\"witness\":null"));
        assert!(none.to_json().contains("\"lb1_disk\":null"));
    }
}
