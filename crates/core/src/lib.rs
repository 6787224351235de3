//! # ugs-core
//!
//! The paper's primary contribution: **uncertain graph sparsification**.
//!
//! Given an uncertain graph `G = (V, E, p)` and a sparsification ratio
//! `α ∈ (0, 1)`, the algorithms in this crate produce a sparsified uncertain
//! graph `G' = (V, E', p')` with `|E'| = α|E|` that
//!
//! 1. preserves the *expected vertex degrees* (`Δ1`) or, more generally, the
//!    *expected cut sizes* up to a cardinality `k` (`Δk`), and
//! 2. has *lower entropy* than `G`, so Monte-Carlo query estimation on `G'`
//!    needs fewer samples and each sample is cheaper (fewer edges).
//!
//! ## Components
//!
//! * [`backbone`] — Backbone Graph Initialization (`BGI`, Algorithm 1):
//!   iterated maximum spanning forests followed by probability-proportional
//!   sampling, guaranteeing a connected support for the sparsified graph.
//! * [`gdb`] — Gradient Descent Backbone (`GDB`, Algorithm 2): iteratively
//!   sets each backbone edge to the probability that minimises the squared
//!   discrepancy objective, capping entropy-increasing steps by the
//!   parameter `h` (Equation 9), and generalised cut-preserving update rules
//!   for any `k ≥ 1` (Equations 13–16).
//! * [`emd`] — Expectation-Maximization Degree (`EMD`, Algorithm 3): an
//!   EM-style loop whose E-phase restructures the backbone by swapping edges
//!   towards the vertex with the worst discrepancy (kept in an addressable
//!   max-heap) and whose M-phase re-runs `GDB` on the new backbone.
//! * [`lp_assign`] — the optimal `Δ1` probability assignment of Theorem 1,
//!   solved exactly as a maximum flow on the backbone's bipartite double
//!   cover; the accuracy reference of Table 2.
//! * [`DiscrepancyKind`] / [`DegreeTracker`] — absolute (`δA`) and
//!   relative (`δR`) degree discrepancies and the shared incremental
//!   tracker.
//! * `kcut` — the closed-form coefficients of the general cut-preserving
//!   rule (the `(n choose k)_Σ` enumeration function), evaluated in log space
//!   so arbitrarily large `n`/`k` never overflow.
//! * [`CoreScratch`] — the reusable workspace: zero-allocation
//!   steady-state `GDB` sweeps and `EMD` iterations, and `EMD`'s persistent
//!   vertex heap and swap-position map.
//! * [`spec`] — a builder-style front end ([`SparsifierSpec`]) plus the
//!   [`Sparsifier`] trait implemented by every method (including the
//!   baselines in `ugs-baselines`), so benchmarks and applications can treat
//!   all sparsifiers uniformly.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use uncertain_graph::UncertainGraph;
//! use ugs_core::prelude::*;
//!
//! // K4 with probability 0.3 on every edge (Figure 1(a) of the paper).
//! let g = UncertainGraph::from_edges(
//!     4,
//!     [(0, 1, 0.3), (0, 2, 0.3), (0, 3, 0.3), (1, 2, 0.3), (1, 3, 0.3), (2, 3, 0.3)],
//! )
//! .unwrap();
//!
//! let spec = SparsifierSpec::gdb().alpha(0.5).entropy_h(1.0);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let out = spec.sparsify(&g, &mut rng).unwrap();
//! assert_eq!(out.graph.num_edges(), 3);          // α|E| edges
//! assert!(out.graph.entropy() <= g.entropy());   // entropy reduced
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backbone;
mod discrepancy;
pub mod emd;
mod error;
pub mod gdb;
mod kcut;
pub mod lp_assign;
mod scratch;
pub mod spec;

pub use backbone::{build_backbone, build_backbone_into, BackboneConfig, BackboneKind};
pub use discrepancy::{DegreeTracker, DiscrepancyKind};
pub use emd::{expectation_maximization_sparsify_with, EmdConfig};
pub use error::SparsifyError;
pub use gdb::{gradient_descent_assign_with, CutRule, GdbConfig};
pub use scratch::CoreScratch;
pub use spec::{PhaseTimings, Sparsifier, SparsifierSpec, SparsifyOutput};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::backbone::{build_backbone, BackboneConfig, BackboneKind};
    pub use crate::discrepancy::DiscrepancyKind;
    pub use crate::emd::EmdConfig;
    pub use crate::error::SparsifyError;
    pub use crate::gdb::{CutRule, GdbConfig};
    pub use crate::scratch::CoreScratch;
    pub use crate::spec::{PhaseTimings, Sparsifier, SparsifierSpec, SparsifyOutput};
}
