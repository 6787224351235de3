//! # ugs — Uncertain Graph Sparsification
//!
//! A reproduction of *“Uncertain Graph Sparsification”* (Parchas, Papailiou,
//! Papadias, Bonchi — ICDE 2019 / TKDE), packaged as a workspace of focused
//! crates and re-exported here as a single convenient facade.
//!
//! Given an uncertain graph `G = (V, E, p)` (every edge has an existence
//! probability) and a ratio `α ∈ (0, 1)`, the library produces a sparsified
//! uncertain graph `G' = (V, E', p')` with `|E'| = α|E|` that preserves the
//! expected vertex degrees / cut sizes of `G`, has lower entropy, and can be
//! used in place of `G` for Monte-Carlo query answering (PageRank, shortest
//! path distance, reliability, clustering coefficient) at a fraction of the
//! cost.
//!
//! ## Crates
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`graph`] | `uncertain-graph` | the `UncertainGraph` type, possible worlds, entropy, I/O |
//! | [`algo`] | `graph-algos` | union-find, spanning forests, BFS/Dijkstra, PageRank, clustering, addressable vertex heap |
//! | [`sparsify`] | `ugs-core` | backbone initialisation, `GDB`, `EMD`, the LP assignment (solved as a max-flow), `SparsifierSpec` |
//! | [`baselines`] | `ugs-baselines` | the `NI` and `SS` baselines adapted from deterministic sparsification |
//! | [`queries`] | `ugs-queries` | zero-allocation Monte-Carlo world engine, queries, estimator variance |
//! | [`service`] | `ugs-service` | `QuerySpec`/`QueryResult` data API, JSON query plans run as one shared-world batch |
//! | [`server`] | `ugs-server` | line-delimited JSON TCP front-end: deterministic result cache, admission control, graceful shutdown |
//! | [`dist`] | `ugs-dist` | multi-process fleet workers running world blocks, folded bit-identically to in-process runs |
//! | [`metrics`] | `ugs-metrics` | degree/cut discrepancy MAE, relative entropy, earth mover's distance |
//! | [`datasets`] | `ugs-datasets` | Flickr/Twitter-shaped generators, density sweep, Forest Fire sampling |
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use ugs::prelude::*;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! // A Flickr-shaped uncertain social network (tiny scale for the doctest).
//! let g = ugs::datasets::flickr_like(ugs::datasets::Scale::Tiny, &mut rng);
//!
//! // Sparsify to 16% of the edges with EMD (relative discrepancy, spanning
//! // backbone — the paper's best variant).
//! let spec = SparsifierSpec::emd()
//!     .alpha(0.16)
//!     .discrepancy(DiscrepancyKind::Relative)
//!     .entropy_h(0.05);
//! let sparse = spec.sparsify(&g, &mut rng).unwrap();
//! assert_eq!(sparse.graph.num_edges(), (0.16 * g.num_edges() as f64).round() as usize);
//! assert!(sparse.graph.entropy() < g.entropy());
//!
//! // Degrees are preserved...
//! let mae = ugs::metrics::degree_discrepancy_mae(
//!     &g,
//!     &sparse.graph,
//!     ugs::metrics::degree::MetricDiscrepancy::Absolute,
//! );
//! assert!(mae < 1.0);
//!
//! // ...and queries on the sparsified graph approximate queries on G — at a
//! // fraction of the cost: every query runs on the world engine, which
//! // skip-samples worlds in O(Σ pₑ) expected time and materialises them
//! // into reusable scratch buffers (zero allocations per world).  On the
//! // low-probability sparsified graph the skip path shines.
//! let mc = MonteCarlo::worlds(50); // sequential & machine-independent
//! let pr_sparse = ugs::queries::expected_pagerank(&sparse.graph, &mc, &mut rng);
//! assert_eq!(pr_sparse.len(), g.num_vertices());
//!
//! // One worker per core: worlds are split deterministically, each worker
//! // owns an RNG stream seeded from `rng`, and partial accumulators come
//! // back by value on join.  Same seed + same thread count ⇒ same answer.
//! let mc = MonteCarlo::parallel(50);
//! let pr_parallel = ugs::queries::expected_pagerank(&sparse.graph, &mc, &mut rng);
//! assert_eq!(pr_parallel.len(), g.num_vertices());
//!
//! // The engine is also usable directly for custom per-world evaluation.
//! let engine = WorldEngine::new(&sparse.graph);
//! let mut scratch = engine.make_scratch();
//! let world = engine.sample_world(&mut rng, &mut scratch);
//! assert!(world.num_edges() <= sparse.graph.num_edges());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use graph_algos as algo;
pub use ugs_baselines as baselines;
pub use ugs_core as sparsify;
pub use ugs_datasets as datasets;
pub use ugs_dist as dist;
pub use ugs_metrics as metrics;
pub use ugs_queries as queries;
pub use ugs_server as server;
pub use ugs_service as service;
pub use uncertain_graph as graph;

/// The most commonly used items from every crate in the workspace.
pub mod prelude {
    pub use graph_algos::prelude::*;
    pub use ugs_baselines::prelude::*;
    pub use ugs_core::prelude::*;
    pub use ugs_datasets::prelude::*;
    pub use ugs_metrics::prelude::*;
    pub use ugs_queries::prelude::*;
    pub use ugs_service::{QueryAnswer, QueryPlan, QueryResult, QuerySpec, ServiceError};
    pub use uncertain_graph::prelude::*;
}
