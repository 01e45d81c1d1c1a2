//! Edge colorings and their validation.

use core::fmt;

use dmig_graph::{EdgeId, Multigraph, NodeId};

/// Errors detected when validating an [`EdgeColoring`] against a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColoringError {
    /// An edge has no color assigned.
    Uncolored {
        /// The uncolored edge.
        edge: EdgeId,
    },
    /// A color id is `>= num_colors`.
    ColorOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// Its color.
        color: u32,
        /// Declared number of colors.
        num_colors: u32,
    },
    /// A node sees the same color on more edges than its allowance.
    CapacityExceeded {
        /// The overloaded node.
        node: NodeId,
        /// The over-used color.
        color: u32,
        /// How many incident edges carry that color.
        used: usize,
        /// The allowance (1 for proper colorings, `c_v` for capacitated).
        allowed: usize,
    },
    /// The coloring covers a different number of edges than the graph has.
    SizeMismatch {
        /// Edges in the coloring.
        coloring_edges: usize,
        /// Edges in the graph.
        graph_edges: usize,
    },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::Uncolored { edge } => write!(f, "edge {edge} is uncolored"),
            ColoringError::ColorOutOfRange {
                edge,
                color,
                num_colors,
            } => {
                write!(
                    f,
                    "edge {edge} has color {color} >= num_colors {num_colors}"
                )
            }
            ColoringError::CapacityExceeded {
                node,
                color,
                used,
                allowed,
            } => write!(
                f,
                "node {node} has {used} incident edges of color {color}, allowed {allowed}"
            ),
            ColoringError::SizeMismatch {
                coloring_edges,
                graph_edges,
            } => write!(
                f,
                "coloring covers {coloring_edges} edges but graph has {graph_edges}"
            ),
        }
    }
}

impl std::error::Error for ColoringError {}

/// A (possibly partial) assignment of colors to the edges of a multigraph.
///
/// Colors are dense ids `0..num_colors`. In migration terms each color is
/// one round of the schedule.
///
/// # Example
///
/// ```
/// use dmig_graph::GraphBuilder;
/// use dmig_color::EdgeColoring;
///
/// let g = GraphBuilder::new().edge(0, 1).edge(1, 2).build();
/// let mut coloring = EdgeColoring::uncolored(g.num_edges());
/// coloring.set(0.into(), 0);
/// coloring.set(1.into(), 0);
/// // Improper: both edges of color 0 meet at node 1.
/// assert!(coloring.validate_proper(&g).is_err());
/// coloring.set(1.into(), 1);
/// assert!(coloring.validate_proper(&g).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeColoring {
    colors: Vec<Option<u32>>,
    num_colors: u32,
}

impl EdgeColoring {
    /// Creates an all-uncolored assignment for `num_edges` edges.
    #[must_use]
    pub fn uncolored(num_edges: usize) -> Self {
        EdgeColoring {
            colors: vec![None; num_edges],
            num_colors: 0,
        }
    }

    /// Number of edges covered (colored or not).
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.colors.len()
    }

    /// Number of colors in use (`max assigned color + 1`).
    #[inline]
    #[must_use]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// Color of edge `e`, if assigned.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn color(&self, e: EdgeId) -> Option<u32> {
        self.colors[e.index()]
    }

    /// Assigns color `c` to edge `e`, growing `num_colors` if needed.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn set(&mut self, e: EdgeId, c: u32) {
        self.colors[e.index()] = Some(c);
        self.num_colors = self.num_colors.max(c + 1);
    }

    /// Removes the color of edge `e` (does not shrink `num_colors`).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn clear(&mut self, e: EdgeId) {
        self.colors[e.index()] = None;
    }

    /// Returns `true` if every edge has a color.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// Groups edge ids by color: `classes()[c]` is color class `c`.
    ///
    /// Uncolored edges are omitted.
    #[must_use]
    pub fn classes(&self) -> Vec<Vec<EdgeId>> {
        let mut out = vec![Vec::new(); self.num_colors as usize];
        for (i, c) in self.colors.iter().enumerate() {
            if let Some(c) = c {
                out[*c as usize].push(EdgeId::new(i));
            }
        }
        out
    }

    /// Validates this coloring as a **proper** edge coloring of `g`: every
    /// edge colored, every color at most once per node (self-loops are
    /// always violations since they meet their node twice).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_proper(&self, g: &Multigraph) -> Result<(), ColoringError> {
        let ones = vec![1usize; g.num_nodes()];
        self.validate_capacitated(g, &ones)
    }

    /// Validates this coloring as a **capacitated** edge coloring of `g`:
    /// every edge colored and, for every node `v` and color `c`, at most
    /// `caps[v]` incident edges of color `c` (self-loops count twice).
    ///
    /// This is exactly the feasibility condition for one color class to run
    /// as one migration round under transfer constraints `c_v`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    ///
    /// # Panics
    ///
    /// Panics if `caps.len() < g.num_nodes()`.
    pub fn validate_capacitated(
        &self,
        g: &Multigraph,
        caps: &[usize],
    ) -> Result<(), ColoringError> {
        assert!(
            caps.len() >= g.num_nodes(),
            "capacity slice shorter than node count"
        );
        if self.colors.len() != g.num_edges() {
            return Err(ColoringError::SizeMismatch {
                coloring_edges: self.colors.len(),
                graph_edges: g.num_edges(),
            });
        }
        for (e, _) in g.edges() {
            match self.color(e) {
                None => return Err(ColoringError::Uncolored { edge: e }),
                Some(c) if c >= self.num_colors => {
                    return Err(ColoringError::ColorOutOfRange {
                        edge: e,
                        color: c,
                        num_colors: self.num_colors,
                    })
                }
                Some(_) => {}
            }
        }
        // Count per (node, color) incidences.
        let n = g.num_nodes();
        let q = self.num_colors as usize;
        let mut used = vec![0usize; n * q];
        for (e, ep) in g.edges() {
            let c = self.color(e).expect("checked above") as usize;
            used[ep.u.index() * q + c] += 1;
            used[ep.v.index() * q + c] += 1; // loops counted twice, as required
        }
        for v in 0..n {
            for c in 0..q {
                let count = used[v * q + c];
                if count > caps[v] {
                    return Err(ColoringError::CapacityExceeded {
                        node: NodeId::new(v),
                        color: c as u32,
                        used: count,
                        allowed: caps[v],
                    });
                }
            }
        }
        Ok(())
    }

    /// Renumbers colors densely by first use, dropping empty color classes;
    /// returns the new number of colors.
    pub fn compact(&mut self) -> u32 {
        let mut remap: Vec<Option<u32>> = vec![None; self.num_colors as usize];
        let mut next = 0u32;
        for c in self.colors.iter_mut().flatten() {
            let slot = &mut remap[*c as usize];
            let new = *slot.get_or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            *c = new;
        }
        self.num_colors = next;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::GraphBuilder;

    #[test]
    fn uncolored_initial_state() {
        let c = EdgeColoring::uncolored(3);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.num_colors(), 0);
        assert!(!c.is_complete());
    }

    #[test]
    fn set_grows_color_count() {
        let mut c = EdgeColoring::uncolored(2);
        c.set(0.into(), 4);
        assert_eq!(c.num_colors(), 5);
        assert_eq!(c.color(0.into()), Some(4));
        c.clear(0.into());
        assert_eq!(c.color(0.into()), None);
        assert_eq!(c.num_colors(), 5, "clear does not shrink");
    }

    #[test]
    fn classes_group_by_color() {
        let mut c = EdgeColoring::uncolored(4);
        c.set(0.into(), 1);
        c.set(1.into(), 0);
        c.set(2.into(), 1);
        let classes = c.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![EdgeId::new(1)]);
        assert_eq!(classes[1], vec![EdgeId::new(0), EdgeId::new(2)]);
    }

    #[test]
    fn validate_detects_uncolored() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let c = EdgeColoring::uncolored(1);
        assert_eq!(
            c.validate_proper(&g),
            Err(ColoringError::Uncolored {
                edge: EdgeId::new(0)
            })
        );
    }

    #[test]
    fn validate_detects_size_mismatch() {
        let g = GraphBuilder::new().edge(0, 1).build();
        let c = EdgeColoring::uncolored(2);
        assert!(matches!(
            c.validate_proper(&g),
            Err(ColoringError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn validate_detects_conflicts() {
        let g = GraphBuilder::new().edge(0, 1).edge(1, 2).build();
        let mut c = EdgeColoring::uncolored(2);
        c.set(0.into(), 0);
        c.set(1.into(), 0);
        let err = c.validate_proper(&g).unwrap_err();
        assert!(matches!(
            err,
            ColoringError::CapacityExceeded { node, color: 0, used: 2, allowed: 1 }
                if node == NodeId::new(1)
        ));
    }

    #[test]
    fn capacitated_allows_repeats_within_cap() {
        let g = GraphBuilder::new().edge(0, 1).edge(1, 2).edge(1, 3).build();
        let mut c = EdgeColoring::uncolored(3);
        c.set(0.into(), 0);
        c.set(1.into(), 0);
        c.set(2.into(), 0);
        // Node 1 sees color 0 three times; fine with cap 3, not with 2.
        assert!(c.validate_capacitated(&g, &[1, 3, 1, 1]).is_ok());
        assert!(c.validate_capacitated(&g, &[1, 2, 1, 1]).is_err());
    }

    #[test]
    fn self_loop_counts_twice_in_validation() {
        let mut g = GraphBuilder::new().nodes(1).build();
        let e = g.add_edge(0.into(), 0.into());
        let mut c = EdgeColoring::uncolored(1);
        c.set(e, 0);
        assert!(c.validate_proper(&g).is_err());
        assert!(c.validate_capacitated(&g, &[2]).is_ok());
        assert!(c.validate_capacitated(&g, &[1]).is_err());
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut c = EdgeColoring::uncolored(3);
        c.set(0.into(), 7);
        c.set(1.into(), 2);
        c.set(2.into(), 7);
        assert_eq!(c.compact(), 2);
        assert_eq!(c.color(0.into()), Some(0));
        assert_eq!(c.color(1.into()), Some(1));
        assert_eq!(c.color(2.into()), Some(0));
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn error_messages_are_lowercase() {
        let e = ColoringError::Uncolored {
            edge: EdgeId::new(3),
        };
        assert!(e.to_string().starts_with("edge"));
    }
}
