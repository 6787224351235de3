//! Multi-process distributed query execution: fleet workers run a plan's
//! **world blocks**, a coordinator folds their partials.
//!
//! The paper answers every query as a Monte-Carlo average over
//! independently sampled possible worlds, so worlds — not vertices — are
//! what this crate spreads across machines.  A **worker** is an
//! `ugs-server` holding the full graph; started with
//! [`ServerConfig::shard`](ugs_server::ServerConfig::shard)` = Some((k, w))`
//! (the CLI spelling is `ugs serve --shard k --shards w`) it declares itself
//! slot `k` of a `w`-worker fleet.  The **coordinator**
//! ([`DistCoordinator`]) connects to one worker per slot and runs a
//! [`QueryPlan`](ugs_service::QueryPlan) in three steps:
//!
//! 1. it splits the plan's worlds into exactly the world blocks the
//!    in-process [`QueryBatch`](ugs_queries::QueryBatch) uses for
//!    `plan.threads` threads ([`ugs_queries::BlockPlan`]: one epoch for a
//!    fixed budget, `epoch`-sized epochs for an adaptive plan);
//! 2. block `b` runs on worker `b mod w`: one `world_block` job per worker
//!    replays the shared stream to each of its blocks and runs the plan's
//!    observers over them on its own full graph
//!    ([`ugs_queries::SlotRun`], the same block body the in-process threads
//!    run);
//! 3. it folds the returned observer partials in block order.
//!
//! Every answer, `worlds_used` and `half_width` included, is then
//! **bit-identical** to `plan.execute_detailed(graph)` — for all seven
//! query kinds.  A plan with fewer `threads` than workers leaves the extra
//! workers idle by design: `threads` sets the block count, and the block
//! count is part of the answer's bits.
//!
//! # Why the answers are bit-identical
//!
//! Three facts compose, none of them approximate:
//!
//! 1. **Same worlds, same blocks.**  The batch seed is derived exactly as
//!    the in-process plan derives it (the first `u64` drawn from
//!    `SmallRng::seed_from_u64(plan.seed)`) and travels as a decimal
//!    string, never through an `f64`.  Every worker replays the full-graph
//!    edge stream from it, so block `b` sees the very worlds in-process
//!    thread `b` sees, and feeds them to the same observers in the same
//!    order: each block's accumulated state is bitwise the in-process
//!    thread's.
//! 2. **Exact partials.**  An observer's whole accumulated state is one
//!    `Vec<f64>` of sums, its partial
//!    ([`WorldObserver::partial`](ugs_queries::WorldObserver::partial)).
//!    The vector crosses the wire in [`ugs_queries::partial`]'s exact text
//!    codec — decimal integers for counts, IEEE-754 bits for everything
//!    else, `-0.0`, NaN and subnormals included — and is written straight
//!    into a pristine copy of the coordinator's own observer, whose length
//!    it must match.
//! 3. **Same fold.**  Block 0's partial becomes the result; blocks 1, 2, …
//!    merge into it in block order by element-wise `+=` of the partials
//!    ([`BoxedObserver::merge`](ugs_queries::BoxedObserver::merge)) —
//!    the fold the in-process epoch loop performs after its last epoch.
//!    Adaptive plans keep each block job's registry across epochs (summing
//!    per-epoch float partials afterwards would not be bit-identical); at
//!    every epoch checkpoint the jobs pause and return their worlds'
//!    tracked statistics, which the coordinator records in block order
//!    into the same [`StoppingRule`](ugs_queries::StoppingRule), with the
//!    same verdict order, as the in-process epoch loop — so the run stops
//!    after the same epoch with the same half-width.
//!
//! A plan's `shards` field never changes an answer: the fleet echoes it
//! and, like the in-process run, refuses a shard count the graph cannot
//! fill ([`QueryPlan::shard_refusal`](ugs_service::QueryPlan::shard_refusal)).
//!
//! # Failure model
//!
//! Configured by [`CoordinatorConfig`]; the invariant is **bounded wait,
//! typed degradation, never a hang**:
//!
//! * every worker socket carries read *and* write timeouts; the
//!   coordinator sends every outstanding request (one per worker) before
//!   it reads any response, and polls running jobs instead of blocking on
//!   them, so a block that runs longer than the timeout is never cut off
//!   while its worker reports progress;
//! * a failed exchange burns one of the worker's bounded retries; the
//!   coordinator reconnects, re-validates (fingerprint + fleet slot) and
//!   resubmits the slot's job, which deterministically replays the
//!   identical stream — an adaptive job replays from world 0 through
//!   every epoch already decided — so a retried worker cannot skew the
//!   answer;
//! * a running job whose stream position stops advancing for
//!   [`CoordinatorConfig::stale_after`] is treated the same way;
//! * when a worker's retries run out the slot **fails over**: the first
//!   [`CoordinatorConfig::standbys`] address that validates is promoted
//!   and re-runs the slot's blocks (see [`recovery`]);
//! * only when no standby validates does the plan degrade to
//!   [`ServiceError::WorkerLost`](ugs_service::ServiceError::WorkerLost)
//!   ([`retryable`](ugs_service::ServiceError::retryable), because a
//!   supervisor may since have respawned the fleet) for every pending
//!   query; a worker that refuses a well-formed job as over its bounds
//!   (more blocks than its `max_plan_threads`, or an adaptive epoch over
//!   [`MAX_PAUSE_WORLDS`](ugs_server::protocol::MAX_PAUSE_WORLDS) worlds)
//!   answers a typed
//!   [`ServiceError::Policy`](ugs_service::ServiceError::Policy) instead;
//! * shutting down (or dropping) the coordinator closes every worker
//!   connection, which cancels its jobs on the workers.
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
//! // Two fleet workers (in-process here; separate processes in production).
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
//!     r#"{"worlds": 40, "threads": 2, "seed": 7,
//!         "queries": [{"type": "connectivity"}, {"type": "pair_queries", "pairs": [[0, 3]]}]}"#,
//! )
//! .unwrap();
//!
//! // Bit-identical to the in-process run of the same plan, every query.
//! assert_eq!(coordinator.execute(&plan), plan.execute_detailed(graph));
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
pub mod recovery;
pub mod supervisor;

pub use coordinator::{CoordinatorConfig, DistCoordinator};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use recovery::{Failover, RecoveryReport};
pub use supervisor::{
    supervise, SupervisorConfig, SupervisorReport, WorkerOutcome, WorkerReport, WorkerSpec,
};
