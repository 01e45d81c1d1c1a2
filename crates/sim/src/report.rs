//! Simulation results and derived metrics.

use core::fmt;

use dmig_obs::json::{push_number, push_u64};

/// The outcome of executing a schedule on a modeled cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Total wall-clock time (sum of round durations; rounds are barriers).
    pub total_time: f64,
    /// Duration of each round.
    pub round_durations: Vec<f64>,
    /// Per-disk busy time: time each disk spent with at least one active
    /// transfer.
    pub disk_busy: Vec<f64>,
    /// Bytes (item-sizes) moved in total.
    pub volume: f64,
}

impl SimReport {
    /// Number of executed rounds.
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        self.round_durations.len()
    }

    /// Mean disk utilization: busy time over makespan, averaged over disks
    /// that were busy at all. Returns 0.0 for an empty migration.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        let busy: Vec<f64> = self
            .disk_busy
            .iter()
            .copied()
            .filter(|&b| b > 0.0)
            .collect();
        if busy.is_empty() {
            return 0.0;
        }
        busy.iter().sum::<f64>() / (busy.len() as f64 * self.total_time)
    }

    /// Effective aggregate throughput: volume over makespan (0.0 if empty).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.volume / self.total_time
        }
    }

    /// Utilization of one disk: busy time over makespan (0.0 for an empty
    /// migration or an out-of-range disk).
    #[must_use]
    pub fn disk_utilization(&self, disk: usize) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.disk_busy
            .get(disk)
            .map_or(0.0, |&b| b / self.total_time)
    }

    /// Serializes the report (totals, derived metrics, per-round and
    /// per-disk detail) as a self-contained JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(self.json_capacity());
        self.write_json(&mut out);
        String::from_utf8(out).expect("reports are ASCII")
    }

    /// Bytes [`to_json`](Self::to_json) takes for typical values: floats
    /// below a million and short lists need no growth.
    pub(crate) fn json_capacity(&self) -> usize {
        160 + 16 * self.round_durations.len() + 48 * self.disk_busy.len()
    }

    /// Appends [`to_json`](Self::to_json) to `out`, floats through
    /// [`push_number`].
    pub(crate) fn write_json(&self, out: &mut Vec<u8>) {
        let num = |out: &mut Vec<u8>, key: &[u8], v: f64| {
            out.extend_from_slice(key);
            push_number(out, v);
        };
        num(out, b"{\"total_time\": ", self.total_time);
        out.extend_from_slice(b", \"num_rounds\": ");
        push_u64(out, self.num_rounds() as u64);
        num(out, b", \"volume\": ", self.volume);
        num(out, b", \"throughput\": ", self.throughput());
        num(out, b", \"mean_utilization\": ", self.mean_utilization());
        out.extend_from_slice(b", \"round_durations\": [");
        for (i, &d) in self.round_durations.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            push_number(out, d);
        }
        out.extend_from_slice(b"], \"disks\": [");
        for (v, &busy) in self.disk_busy.iter().enumerate() {
            if v > 0 {
                out.push(b',');
            }
            num(out, b"{\"busy\": ", busy);
            num(out, b", \"utilization\": ", self.disk_utilization(v));
            out.push(b'}');
        }
        out.extend_from_slice(b"]}");
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim(time={:.3}, rounds={}, util={:.1}%)",
            self.total_time,
            self.num_rounds(),
            self.mean_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_from_fields() {
        let r = SimReport {
            total_time: 4.0,
            round_durations: vec![2.0, 2.0],
            disk_busy: vec![4.0, 2.0, 0.0],
            volume: 8.0,
        };
        assert_eq!(r.num_rounds(), 2);
        assert!((r.mean_utilization() - 0.75).abs() < 1e-12);
        assert!((r.throughput() - 2.0).abs() < 1e-12);
        assert!(r.to_string().contains("rounds=2"));
    }

    #[test]
    fn disk_utilization_handles_edge_cases() {
        let r = SimReport {
            total_time: 4.0,
            round_durations: vec![4.0],
            disk_busy: vec![3.0],
            volume: 1.0,
        };
        assert!((r.disk_utilization(0) - 0.75).abs() < 1e-12);
        assert_eq!(r.disk_utilization(9), 0.0, "out of range");
        let empty = SimReport {
            total_time: 0.0,
            round_durations: vec![],
            disk_busy: vec![0.0],
            volume: 0.0,
        };
        assert_eq!(empty.disk_utilization(0), 0.0);
    }

    #[test]
    fn zero_makespan_report_has_zero_utilization_everywhere() {
        // A zero-duration report must not divide by the makespan.
        let r = SimReport {
            total_time: 0.0,
            round_durations: vec![0.0, 0.0],
            disk_busy: vec![0.0, 0.0, 0.0],
            volume: 0.0,
        };
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.disk_utilization(0), 0.0);
        assert_eq!(r.disk_utilization(2), 0.0);
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn never_transferring_disk_is_excluded_from_the_mean() {
        // Disk 2 never transfers: its utilization reads 0.0 but it must
        // not drag the mean down (the mean averages busy disks only).
        let r = SimReport {
            total_time: 10.0,
            round_durations: vec![10.0],
            disk_busy: vec![10.0, 5.0, 0.0],
            volume: 3.0,
        };
        assert_eq!(r.disk_utilization(2), 0.0);
        assert!((r.mean_utilization() - 0.75).abs() < 1e-12);
        let all_idle = SimReport {
            total_time: 10.0,
            round_durations: vec![10.0],
            disk_busy: vec![0.0, 0.0],
            volume: 0.0,
        };
        assert_eq!(all_idle.mean_utilization(), 0.0, "no busy disk, no mean");
    }

    #[test]
    fn e7_bottleneck_disk_utilization_is_one() {
        // E7 profile: one slow disk on every transfer. The bottleneck's
        // busy time equals every round's duration, so its utilization is
        // exactly 1.0 while the fast leaves idle below it.
        use crate::{engine::simulate_rounds, Cluster};
        use dmig_core::solver::{HomogeneousSolver, Solver};
        use dmig_core::MigrationProblem;
        use dmig_graph::builder::star_multigraph;

        let p = MigrationProblem::uniform(star_multigraph(4, 2), 1).unwrap();
        let s = HomogeneousSolver.solve(&p).unwrap();
        let cluster = Cluster::from_bandwidths(vec![0.25, 1.0, 1.0, 1.0, 1.0]);
        let r = simulate_rounds(&p, &s, &cluster).unwrap();
        assert!((r.disk_utilization(0) - 1.0).abs() < 1e-12);
        for leaf in 1..5 {
            assert!(r.disk_utilization(leaf) < 1.0 - 1e-9);
        }
        assert!(r.mean_utilization() < 1.0);
    }

    #[test]
    fn json_roundtrips_key_fields() {
        let r = SimReport {
            total_time: 4.0,
            round_durations: vec![2.0, 2.0],
            disk_busy: vec![4.0, 2.0],
            volume: 8.0,
        };
        let j = r.to_json();
        assert!(j.contains("\"total_time\": 4.000000"));
        assert!(j.contains("\"num_rounds\": 2"));
        assert!(j.contains("\"round_durations\": [2.000000,2.000000]"));
        assert!(j.contains("\"utilization\": 0.500000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_report() {
        let r = SimReport {
            total_time: 0.0,
            round_durations: vec![],
            disk_busy: vec![0.0],
            volume: 0.0,
        };
        assert_eq!(r.mean_utilization(), 0.0);
        assert_eq!(r.throughput(), 0.0);
    }
}
