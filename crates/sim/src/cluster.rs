//! Cluster hardware model: per-disk bandwidths and item sizes.

use dmig_graph::NodeId;

/// Hardware description of a storage cluster: one bandwidth per disk (in
/// item-sizes per time unit) and a size per data item (default 1.0, the
/// paper's unit-size assumption).
///
/// Transfer constraints `c_v` live on the
/// [`dmig_core::MigrationProblem`], not here: they are scheduling inputs,
/// while the cluster describes the physics the schedule runs against.
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    bandwidths: Vec<f64>,
    item_sizes: Option<Vec<f64>>,
}

impl Cluster {
    /// A cluster of `n` identical disks with the given bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive and finite.
    #[must_use]
    pub fn uniform(n: usize, bandwidth: f64) -> Self {
        Cluster::from_bandwidths(vec![bandwidth; n])
    }

    /// A cluster with explicit per-disk bandwidths.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth is not strictly positive and finite.
    #[must_use]
    pub fn from_bandwidths(bandwidths: Vec<f64>) -> Self {
        for (i, &b) in bandwidths.iter().enumerate() {
            assert!(
                b.is_finite() && b > 0.0,
                "disk {i} has invalid bandwidth {b}"
            );
        }
        Cluster {
            bandwidths,
            item_sizes: None,
        }
    }

    /// Overrides the unit item-size assumption with explicit sizes
    /// (indexed by edge id).
    ///
    /// # Panics
    ///
    /// Panics if any size is not strictly positive and finite.
    #[must_use]
    pub fn with_item_sizes(mut self, sizes: Vec<f64>) -> Self {
        for (i, &s) in sizes.iter().enumerate() {
            assert!(s.is_finite() && s > 0.0, "item {i} has invalid size {s}");
        }
        self.item_sizes = Some(sizes);
        self
    }

    /// Number of disks described.
    #[inline]
    #[must_use]
    pub fn num_disks(&self) -> usize {
        self.bandwidths.len()
    }

    /// Bandwidth of disk `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn bandwidth(&self, v: NodeId) -> f64 {
        self.bandwidths[v.index()]
    }

    /// Size of item `e` (1.0 unless overridden).
    #[inline]
    #[must_use]
    pub fn item_size(&self, e: dmig_graph::EdgeId) -> f64 {
        self.item_sizes.as_ref().map_or(1.0, |s| s[e.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cluster() {
        let c = Cluster::uniform(4, 2.0);
        assert_eq!(c.num_disks(), 4);
        assert_eq!(c.bandwidth(3.into()), 2.0);
        assert_eq!(c.item_size(0.into()), 1.0);
    }

    #[test]
    fn heterogeneous_bandwidths() {
        let c = Cluster::from_bandwidths(vec![1.0, 0.5, 4.0]);
        assert_eq!(c.bandwidth(1.into()), 0.5);
    }

    #[test]
    fn item_sizes_override() {
        let c = Cluster::uniform(2, 1.0).with_item_sizes(vec![2.0, 0.5]);
        assert_eq!(c.item_size(0.into()), 2.0);
        assert_eq!(c.item_size(1.into()), 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Cluster::uniform(1, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid size")]
    fn negative_item_size_rejected() {
        let _ = Cluster::uniform(1, 1.0).with_item_sizes(vec![-1.0]);
    }
}
