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
//! * [`spanning`] — maximum spanning trees / forests (Kruskal) for the
//!   backbone initialisation of Algorithm 1 and the Nagamochi–Ibaraki index,
//! * [`DeterministicGraph`] / [`WeightedGraph`] — CSR adjacency for sampled
//!   possible worlds and for the weighted graphs the baselines operate on,
//! * [`traversal`], [`shortest_path`], [`pagerank`], [`clustering`] — BFS,
//!   connected components, Dijkstra, PageRank and local clustering
//!   coefficients evaluated inside individual possible worlds.
//!
//! Everything is implemented from scratch on plain `Vec`s; no external graph
//! crate is used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod dgraph;
pub mod dsu;
pub mod heap;
pub mod pagerank;
pub mod shortest_path;
pub mod spanning;
pub mod traversal;
pub mod wgraph;

pub use dgraph::DeterministicGraph;
pub use dsu::UnionFind;
pub use heap::FlatMaxHeap;
pub use wgraph::WeightedGraph;

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::clustering::local_clustering_coefficients;
    pub use crate::dgraph::DeterministicGraph;
    pub use crate::dsu::UnionFind;
    pub use crate::heap::FlatMaxHeap;
    pub use crate::pagerank::{pagerank, PageRankConfig};
    pub use crate::shortest_path::{bfs_hop_distances, dijkstra};
    pub use crate::spanning::{maximum_spanning_forest, maximum_spanning_tree_weight};
    pub use crate::traversal::{connected_components, is_connected};
    pub use crate::wgraph::WeightedGraph;
}
