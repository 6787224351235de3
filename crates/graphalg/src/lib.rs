//! # graph-algos
//!
//! Deterministic graph algorithm substrate used throughout the uncertain
//! graph sparsification workspace.
//!
//! The sparsifiers of the paper, the adapted deterministic baselines and the
//! Monte-Carlo query engine all need classical graph machinery:
//!
//! * [`UnionFind`] — disjoint sets with union by rank and path compression,
//! * [`FlatMaxHeap`] — an addressable 8-ary max-heap keyed by vertex, the
//!   data structure that makes the E-phase of `EMD` run in
//!   `O(α|E| log|V|)` instead of `O(α(1-α)|E|² log|V| / |V|)` (Section 4.3),
//! * [`spanning`] — maximum spanning forests (Kruskal) for the backbone
//!   initialisation of Algorithm 1,
//! * [`DeterministicGraph`] — CSR adjacency for sampled possible worlds,
//! * [`traversal`], [`pagerank`], [`clustering`] — BFS hop distances,
//!   connected components, PageRank and local clustering coefficients
//!   evaluated inside individual possible worlds.
//!
//! Everything is implemented from scratch on plain `Vec`s; no external graph
//! crate is used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
mod dgraph;
mod dsu;
mod heap;
pub mod pagerank;
pub mod spanning;
pub mod traversal;

pub use dgraph::DeterministicGraph;
pub use dsu::UnionFind;
pub use heap::FlatMaxHeap;

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::dsu::UnionFind;
    pub use crate::heap::FlatMaxHeap;
}
