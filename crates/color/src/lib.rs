//! Edge-coloring substrate for heterogeneous data-migration scheduling.
//!
//! Scheduling migrations on homogeneous disks (one transfer per disk at a
//! time) *is* multigraph edge coloring: each color class is a matching that
//! runs as one round (Hall et al., SODA '01). The heterogeneous algorithms
//! of the ICDCS 2011 paper lean on the same machinery — Saia's
//! 1.5-approximation splits each disk into `c_v` copies and edge-colors the
//! split graph within Shannon's bound, and Phase 2 of the general algorithm
//! colors the sparse residue with Vizing's theorem (§V-C3). Bipartite
//! transfer graphs need no colorer: `dmig-core` schedules them with the
//! even solver's quota partition on a left → right orientation.
//!
//! Provided colorers:
//!
//! * [`misra_gries::misra_gries_coloring`] — Vizing `Δ+1` for **simple**
//!   graphs, used to color the residue graph `G_0`.
//! * [`kempe::kempe_coloring`] — Kempe-chain colorer for multigraphs with
//!   color-budget escalation; empirically lands at `Δ` or `Δ+μ`, well
//!   inside Shannon's `⌊3Δ/2⌋` envelope.
//!
//! All colorers produce an [`EdgeColoring`], which can be validated against
//! any graph with [`EdgeColoring::validate_proper`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod kempe;
pub mod misra_gries;

pub use coloring::{ColoringError, EdgeColoring};

/// Shannon's upper bound on the chromatic index of a multigraph with
/// maximum degree `max_degree`: `⌊3Δ/2⌋`.
///
/// # Example
///
/// ```
/// assert_eq!(dmig_color::shannon_bound(4), 6);
/// assert_eq!(dmig_color::shannon_bound(5), 7);
/// assert_eq!(dmig_color::shannon_bound(0), 0);
/// ```
#[must_use]
pub fn shannon_bound(max_degree: usize) -> usize {
    3 * max_degree / 2
}

/// Vizing's upper bound for multigraphs: `Δ + μ` where `μ` is the maximum
/// edge multiplicity.
///
/// # Example
///
/// ```
/// assert_eq!(dmig_color::vizing_bound(4, 2), 6);
/// ```
#[must_use]
pub fn vizing_bound(max_degree: usize, max_multiplicity: usize) -> usize {
    max_degree + max_multiplicity
}
