//! # ugs-queries
//!
//! Monte-Carlo query evaluation over uncertain graphs — the workloads of
//! Section 6.3 of the paper (expected PageRank, expected clustering
//! coefficient, shortest-path distance, reliability, connectivity, k-NN) —
//! built on a **zero-allocation world-sampling engine**.
//!
//! ## The engine
//!
//! Sampling-based query answering spends almost all of its time drawing and
//! materialising possible worlds, so the engine optimises exactly that
//! cycle:
//!
//! * [`engine::WorldEngine`] is built once per graph: it sorts the edges by
//!   descending probability for **skip-sampling** (geometric jumps directly
//!   between present edges — `O(Σ pₑ)` expected RNG work per world instead
//!   of one Bernoulli draw per edge) and borrows the graph, whose endpoint
//!   table resolves each world's present edges.
//! * [`engine::WorldScratch`] is the per-thread state: each world is
//!   compacted into its reusable buffers, so steady-state sampling and
//!   materialisation perform **zero heap allocations**.
//! * [`QueryBatch`] drives every run, sequentially or across
//!   `std::thread::scope` workers, and [`MonteCarlo`] is its configuration:
//!   world budget, thread count, sampling method and an optional precision
//!   target.  A run draws one seed from the caller's RNG and every worker
//!   replays the same world stream, so results are reproducible for a fixed
//!   seed and thread count; the per-edge sampling mode draws, world by
//!   world, the edges
//!   [`WorldSampler::sample`](uncertain_graph::WorldSampler::sample) draws.
//!
//! The speedup compounds with the paper's headline result: a sparsified
//! graph `G'` has fewer edges *and* lower entropy, so each world is cheaper
//! to draw (`Σ pₑ` shrinks) and fewer worlds are needed for the same
//! confidence ([`variance`], Figure 12).
//!
//! ## Batched evaluation
//!
//! Every query is implemented as a [`batch::WorldObserver`] over the engine,
//! and [`batch::QueryBatch`] samples each world exactly once and feeds it to
//! *all* registered observers — an experiment mixing `k` queries pays the
//! sampling + materialisation cost once instead of `k` times.  The classic
//! entry points below are thin single-observer wrappers: signatures are
//! unchanged, sequential results are bit-identical to the pre-batch driver,
//! and each call advances the caller RNG by exactly one `u64` draw (zero
//! when there is nothing to sample).  See the [`batch`] module docs for the
//! determinism contract and a worked multi-query example.
//!
//! ## World blocks across processes
//!
//! Every batch samples from one [`engine::WorldEngine`], and the replay
//! partitioning that splits its worlds across threads also spreads a batch
//! over machines: a [`batch::BlockPlan`] cuts the worlds into blocks, a
//! [`batch::SlotRun`] runs a worker's blocks on one thread, and each
//! observer's accumulator crosses the wire as an exact [`partial`] — see
//! [world blocks](batch#world-blocks).  `ugs-server`'s `world_block` op
//! and `ugs-dist`'s coordinator are built on these three pieces.
//!
//! ## Queries
//!
//! All queries follow the same pattern: sample `N` worlds through the
//! engine, evaluate a deterministic kernel from `graph-algos` inside each
//! world and aggregate.
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use uncertain_graph::UncertainGraph;
//! use ugs_queries::prelude::*;
//!
//! let g = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap();
//! let mut rng = SmallRng::seed_from_u64(7);
//!
//! // Sequential, machine-independent run…
//! let mc = MonteCarlo::worlds(500);
//! let pr = expected_pagerank(&g, &mc, &mut rng);
//! assert_eq!(pr.len(), 4);
//!
//! // …or one worker per core (deterministic for a fixed thread count).
//! let mc = MonteCarlo::parallel(500);
//! let estimate = connectivity_query(&g, &mc, &mut rng);
//! assert!(estimate.probability_connected <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod components;
pub mod engine;
pub mod knn;
pub mod mc;
pub mod node_queries;
pub mod pair_queries;
pub mod pairs;
pub mod partial;
pub mod variance;

pub use prelude::*;

/// Commonly used items, suitable for a glob import.  This is the crate's one
/// export list: the crate root re-exports all of it.
pub mod prelude {
    pub use crate::batch::{
        AdaptiveReport, BatchError, BatchResults, BlockPlan, BlockWatch, BoxedObserver, DynHandle,
        EdgeFrequencyObserver, ObserverHandle, QueryBatch, SlotRun, WorldObserver,
    };
    pub use crate::components::{
        connectivity_query, expected_degree_histogram, ConnectivityEstimate, ConnectivityObserver,
        DegreeHistogramObserver,
    };
    pub use crate::engine::{SampleMethod, WorldEngine, WorldScratch};
    pub use crate::knn::{k_nearest_neighbors, knn_overlap, KnnObserver, Neighbor};
    pub use crate::mc::MonteCarlo;
    pub use crate::node_queries::{
        expected_clustering_coefficients, expected_pagerank, ClusteringObserver, PageRankObserver,
    };
    pub use crate::pair_queries::{pair_queries, PairQueriesObserver, PairQueryResult};
    pub use crate::pairs::random_pairs;
    pub use crate::variance::{
        estimator_variance, AccumulatorStats, Precision, StopReason, StoppingRule,
        VarianceEstimate, Welford,
    };
}
