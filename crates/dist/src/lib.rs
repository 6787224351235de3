//! Multi-process distributed query execution: shard workers plus a
//! boundary-exchange coordinator.
//!
//! A **worker** is an `ugs-server` started with
//! [`ServerConfig::shard`](ugs_server::ServerConfig::shard)` = Some((k, w))`
//! (the CLI spelling is `ugs serve --shard k --shards w`): it builds the
//! contiguous `w`-shard partition of its graph and holds only shard `k`'s
//! CSR and scratch state, plus the O(|E|) replay probability table that
//! keeps the sampled world stream identical across every worker and the
//! monolithic engine.  The **coordinator** ([`DistCoordinator`]) connects
//! to one worker per shard, fans a [`QueryPlan`](ugs_service::QueryPlan)
//! out over the line-delimited JSON protocol (`shard_submit` / `boundary`
//! / `shard_result`), glues each world's per-shard boundary messages into
//! the global component structure with a disjoint-set union, and resolves
//! the plan **bit-identically** to an in-process
//! `plan.execute_detailed(graph)` run of the same plan.
//!
//! # Why the answers are bit-identical
//!
//! Three invariants compose, none of them approximate:
//!
//! 1. **Replay sampling.**  Worker `k` samples world `i` by replaying the
//!    full-graph edge stream from the shared batch seed (derived exactly
//!    like the in-process plan derives it: the first `u64` drawn from
//!    `SmallRng::seed_from_u64(plan.seed)`), so every shard — and the
//!    monolithic engine — sees the same coin for every edge of every
//!    world.
//! 2. **Exact glue.**  A world's global component structure decomposes
//!    into per-shard structures joined across present cut edges; the
//!    boundary message carries exactly the labels the union-find needs, so
//!    component counts, largest-component sizes and isolated-vertex counts
//!    come out equal to the in-process sharded observer's, not close to.
//! 3. **Order-faithful accumulation.**  Integer-valued totals (degree
//!    bins, edge presence counts) are order-insensitive and travel as
//!    worker-side cross-world aggregates; the one float-ordered total (the
//!    connectivity observer's isolated fraction) is accumulated per
//!    worker-thread world block and folded in block order — the identical
//!    `f64` addition sequence the in-process driver performs for the
//!    plan's `threads` setting.  Adaptive plans re-run the in-process
//!    stopping rule verbatim (same crate, same code) with the per-world
//!    statistics recorded in world order, so `worlds_used` and
//!    `half_width` match bitwise too.
//!
//! Distributed execution covers the cut-aware *count* queries —
//! `connectivity`, `degree_histogram`, `edge_frequency` — through the
//! boundary exchange above, and the neighbourhood queries — `pagerank`,
//! `clustering`, `knn` — through the **ghost-halo exchange** (the
//! server's `halo` op): after the aggregate job finishes, the coordinator
//! walks the same world stream again, driving each world as Pregel-style
//! supersteps over per-worker halo sessions.  PageRank feeds every shard
//! the ghost ranks it reads, threads the L1 convergence accumulator
//! through the shards in ascending order, and stops at the monolithic
//! kernel's exact break; k-NN routes BFS settlements level by level;
//! clustering is a one-shot halo collect.  All values cross the wire as
//! IEEE-754 bit patterns and land in per-thread-block observer clones
//! merged in block order, so the halo answers replicate the in-process
//! `f64` fold bitwise — the same argument as invariant 3, extended to
//! per-vertex state (see [`ugs_queries::halo`] for the iteration-
//! equivalence argument).  Only `pair_queries` has no distributed path
//! and resolves with a typed
//! [`ServiceError::Policy`](ugs_service::ServiceError::Policy): its
//! cut-corrected observer needs the full per-world edge stream, which
//! neither boundary records nor the halo exchange carry.
//!
//! # Failure model
//!
//! Configured by [`CoordinatorConfig`]; the invariant is **bounded wait,
//! typed degradation, never a hang**:
//!
//! * every worker socket carries read *and* write timeouts;
//! * a failed exchange burns one of the worker's bounded retries and
//!   reconnects, re-validates (fingerprint + shard role) and resubmits —
//!   the fresh job deterministically resamples the identical stream, so a
//!   retried worker cannot skew the answer;
//! * a worker whose sampling position stops advancing while records are
//!   owed is declared stale and retried the same way;
//! * a halo superstep is **stateful**, so a failed halo exchange is never
//!   retried verbatim: the failure burns the same bounded retry budget,
//!   and the coordinator restarts the affected query's *current world*
//!   from step 0 — surviving workers restart their kernel without
//!   resampling, while a reconnected (or freshly promoted) worker rebuilds
//!   its session from the line's full identity and replays the shared
//!   stream up to the world, either way bit-identical to an undisturbed
//!   run;
//! * every plan is preceded by a **pre-submit probe** (`ping` per worker
//!   through the same retry path), so a dead-at-connect worker surfaces —
//!   and fails over — before any shard work starts;
//! * when a worker's retries run out the shard **fails over**: the first
//!   [`CoordinatorConfig::standbys`] address that validates (fingerprint +
//!   shard role) is promoted and the job resubmitted to it — recovery is
//!   bit-identical because a fresh job deterministically resamples the
//!   identical stream while the pager keeps its glue cursor (see
//!   [`recovery`]);
//! * only when no standby validates does the plan degrade to
//!   [`ServiceError::WorkerLost`](ugs_service::ServiceError::WorkerLost)
//!   ([`retryable`](ugs_service::ServiceError::retryable), because a
//!   supervisor may since have respawned the fleet) for every pending
//!   query;
//! * shutting down (or dropping) the coordinator closes every worker
//!   connection, which stops and joins the workers' sampler threads.
//!
//! Chaos-testing all of the above is deterministic: a seeded [`FaultPlan`]
//! ([`CoordinatorConfig::faults`] coordinator-side,
//! [`ServerConfig::fault_plan`](ugs_server::ServerConfig::fault_plan)
//! worker-side) schedules drop/delay/disconnect/garble faults at exact
//! operation counts — see [`fault`].  Process-level resilience is the
//! [`supervisor`] module: it launches a worker fleet, watches liveness via
//! `ping`, and respawns dead workers with bounded backoff and crash-loop
//! detection (the CLI spelling is `ugs supervise`).  See
//! `docs/deployment.md` for the multi-host walkthrough.
//!
//! # Example
//!
//! ```
//! use ugs_dist::{CoordinatorConfig, DistCoordinator};
//! use ugs_server::{serve, ServerConfig};
//! use ugs_service::QueryPlan;
//! use uncertain_graph::UncertainGraph;
//!
//! let graph = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap();
//!
//! // Two shard workers (in-process here; separate processes in production).
//! let workers: Vec<_> = (0..2)
//!     .map(|k| {
//!         let config = ServerConfig { shard: Some((k, 2)), ..ServerConfig::default() };
//!         serve(graph.clone(), config).unwrap()
//!     })
//!     .collect();
//! let addrs: Vec<_> = workers.iter().map(|w| w.addr().to_string()).collect();
//!
//! let mut coordinator =
//!     DistCoordinator::connect(graph.clone(), &addrs, CoordinatorConfig::default()).unwrap();
//! let plan = QueryPlan::parse_str(
//!     r#"{"worlds": 40, "seed": 7, "queries": [{"type": "connectivity"}]}"#,
//! )
//! .unwrap();
//!
//! // Bit-identical to the in-process run of the same plan.
//! let distributed = coordinator.execute(&plan);
//! let monolithic = plan.execute_detailed(graph);
//! assert_eq!(distributed[0].as_ref().unwrap(), monolithic[0].as_ref().unwrap());
//!
//! coordinator.shutdown();
//! for worker in workers {
//!     worker.shutdown();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod fault;
mod merge;
pub mod recovery;
pub mod supervisor;

pub use coordinator::{CoordinatorConfig, DistCoordinator};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use recovery::{Failover, RecoveryReport};
pub use supervisor::{
    supervise, SupervisorConfig, SupervisorReport, WorkerOutcome, WorkerReport, WorkerSpec,
};
