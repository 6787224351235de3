//! # uncertain-graph
//!
//! Core data structures for *uncertain graphs* (also called probabilistic
//! graphs): undirected graphs `G = (V, E, p)` in which every edge `e ∈ E`
//! carries an existence probability `p(e) ∈ (0, 1]`.
//!
//! Under *possible-world semantics* an uncertain graph with `|E|` edges is a
//! compact representation of `2^|E|` deterministic graphs (worlds), each
//! obtained by independently including every edge `e` with probability
//! `p(e)`.  Exact query evaluation sums over all worlds, which is only
//! feasible for toy graphs; practical systems rely on Monte-Carlo sampling of
//! worlds.  This crate provides:
//!
//! * [`UncertainGraph`] — a compact CSR-backed representation with O(1) edge
//!   probability access and O(deg) neighbourhood iteration,
//! * [`UncertainGraphBuilder`] — validated construction (rejects self loops,
//!   parallel edges and out-of-range probabilities),
//! * [`entropy`] — per-edge and whole-graph entropy `H(G) = Σ_e H(p_e)`,
//! * [`worlds`] — exact possible-world enumeration (small graphs) and
//!   Monte-Carlo world sampling (any size),
//! * [`io`] — the plain-text edge-list format, JSON (through the in-tree
//!   `minijson` crate) and the compact `UGS1` binary format,
//! * [`GraphStatistics`] — summary statistics matching Table 1 of the paper.
//!
//! The crate is the substrate on which the sparsification algorithms
//! (`ugs-core`), the adapted deterministic baselines (`ugs-baselines`) and the
//! Monte-Carlo query engine (`ugs-queries`) are built.
//!
//! ## Example
//!
//! ```
//! use uncertain_graph::UncertainGraphBuilder;
//!
//! // The 4-vertex, 6-edge example of Figure 1(a) in the paper: every edge
//! // has probability 0.3.
//! let mut b = UncertainGraphBuilder::new(4);
//! for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
//!     b.add_edge(u, v, 0.3).unwrap();
//! }
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 6);
//! // Expected degree of every vertex is 3 * 0.3 = 0.9.
//! assert!((g.expected_degree(0) - 0.9).abs() < 1e-12);
//! // Probability that the graph is connected (Figure 1 reports ~0.219).
//! let mut p_connected = 0.0;
//! uncertain_graph::worlds::enumerate_worlds(&g, |world, pr| {
//!     if world.connected_components(&g).1 == 1 {
//!         p_connected += pr;
//!     }
//! })
//! .unwrap();
//! assert!((p_connected - 0.219).abs() < 5e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod entropy;
mod error;
pub mod graph;
pub mod io;
mod stats;
pub mod worlds;

pub use builder::UncertainGraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeId, UncertainGraph, VertexId};
pub use stats::GraphStatistics;
pub use worlds::{PossibleWorld, SkipSampler, WorldSampler};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::builder::UncertainGraphBuilder;
    pub use crate::graph::UncertainGraph;
    pub use crate::stats::GraphStatistics;
    pub use crate::worlds::WorldSampler;
}
