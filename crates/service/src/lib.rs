//! # ugs-service
//!
//! A **data-first query API** over the batched Monte-Carlo driver of
//! `ugs-queries`.
//!
//! The query surfaces of this workspace started life as seven
//! statically-typed free functions.  That is the right shape for
//! straight-line Rust, but a server, a query-plan file or any caller that
//! only learns its query mix at run time needs queries *as data*.  This
//! crate provides that in two layers:
//!
//! 1. **Specs: [`QuerySpec`] / [`QueryResult`]** — every query surface as an
//!    enum variant carrying its parameters, JSON-(de)serialisable via
//!    `minijson`.  A spec validates itself against a graph, builds its
//!    type-erased observer (the [`ugs_queries::BoxedObserver`] registry
//!    entry) and recovers its typed result from the erased output.
//! 2. **Plans: [`QueryPlan`]** — a JSON plan document (graph + Monte-Carlo
//!    configuration + query list) that executes as **one**
//!    [`ugs_queries::QueryBatch`] run: every query shares one set of sampled
//!    worlds, split across the plan's threads by the batch's deterministic
//!    replay partitioning.  Each query answers a [`QueryAnswer`] or a typed
//!    [`ServiceError`].  The CLI's `ugs plan` and `ugs batch` subcommands,
//!    the TCP server and the distributed coordinator all speak plans.
//!
//! A one-query plan in a sequential sampling mode is **bit-identical** to
//! the legacy free function run on an RNG seeded with the plan seed, and
//! count-valued answers are invariant to the thread count
//! (`tests/plan_parity.rs`).
//!
//! ## Example
//!
//! ```
//! use ugs_service::{QueryPlan, QueryResult};
//! use uncertain_graph::UncertainGraph;
//!
//! let g = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap();
//! let plan = QueryPlan::parse_str(
//!     r#"{"worlds": 300, "threads": 2, "seed": 7,
//!         "queries": [{"type": "connectivity"}, {"type": "knn", "source": 0, "k": 2}]}"#,
//! )
//! .unwrap();
//!
//! // Both queries share one set of 300 sampled worlds.
//! let answers = plan.execute_detailed(g);
//! for answer in &answers {
//!     assert_eq!(answer.as_ref().unwrap().worlds_used, 300);
//! }
//! match &answers[0].as_ref().unwrap().result {
//!     QueryResult::Connectivity(estimate) => assert!(estimate.probability_connected <= 1.0),
//!     other => panic!("unexpected result {other:?}"),
//! }
//! match &answers[1].as_ref().unwrap().result {
//!     QueryResult::Knn(neighbors) => assert_eq!(neighbors[0].vertex, 1),
//!     other => panic!("unexpected result {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod spec;

pub use plan::{
    mode_name, parse_mode, QueryAnswer, QueryPlan, RenderedAnswer, ServiceError, SEED_LIMIT,
};
pub use spec::{parse_precision, precision_to_json, QueryResult, QuerySpec, SpecError};
