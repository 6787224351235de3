//! A panic-free TCP query front-end for the uncertain-graph query service:
//! thread-per-connection, line-delimited JSON, with a deterministic result
//! cache, typed admission control and graceful shutdown.
//!
//! Start a server with [`serve`]; talk to it with [`LineClient`] (or any
//! newline-framed socket client).  Every request is **one line** of JSON,
//! every response is **one line** of JSON — no client input can panic a
//! worker, hang a ticket, or kill the connection.
//!
//! # Wire protocol
//!
//! Requests are JSON objects with a string `op` field.  Unknown ops,
//! unknown fields, malformed JSON and oversized lines (over
//! [`protocol::MAX_LINE_BYTES`]) are answered with the error envelope and
//! the connection stays up.
//!
//! | request | response on success |
//! |---------|---------------------|
//! | `{"op": "submit", "plan": {…}}` | `{"status": "ok", "job": N, "cached": bool}` |
//! | `{"op": "poll", "job": N}` | `{"status": "ok", "job": N, "done": false}` or `{"status": "ok", "job": N, "done": true, "report": {…}}` |
//! | `{"op": "cancel", "job": N}` | `{"status": "ok", "job": N, "cancelled": true}` |
//! | `{"op": "stats"}` | `{"status": "ok", "graph": …, "jobs": {…}, "cache": {…}, "queue": {…}, "executors": […], "connections": N, "engines": E}` (plus `"shard": {"shard": K, "shards": W}` on a fleet worker) |
//! | `{"op": "ping"}` | `{"status": "ok", "pong": true}` |
//! | `{"op": "shutdown"}` | `{"status": "ok", "stopping": true}`, then sockets close |
//! | `{"op": "world_block", "queries": […], "mode": "skip", "seed": "S", "worlds": C, "epoch": E, "blocks": T, "slot": K, "slots": W, "epochs": N, "finish": F}` | `{"status": "ok", "job": J}` |
//! | `{"op": "poll", "job": J, "from": I, "max": M}` on a world-block job | `{"status": "ok", "job": J, "done": false, "pos": P}` or `{"status": "ok", "job": J, "done": true, "epochs": N, "partials": F, "total": L, "from": I, "values": "…"}` |
//! | `{"op": "world_block", "job": J, "epochs": N, "finish": F}` | `{"status": "ok", "job": J, "epochs": N}` |
//!
//! The `plan` document is a [`ugs_service::QueryPlan`] **without** a
//! `graph` field (the server owns its graph): `worlds`, `threads`,
//! `shards` (echoed, never changes an answer), `mode`, `seed` (below
//! 2^53), an optional adaptive `precision` block, and the `queries` array.  The `report` of a finished job is byte-identical
//! to what `QueryPlan::run_report` prints for the same plan against the
//! same graph, with the graph labelled `fingerprint:<hex>`.
//!
//! ## World blocks (`world_block`)
//!
//! A `world_block` job is one fleet slot's share of a plan, the unit the
//! `ugs-dist` coordinator distributes: the worlds split into
//! [`ugs_queries::BlockPlan`] blocks — `T` contiguous blocks per epoch of
//! `E` worlds, up to the cap `C` (a fixed plan is one epoch of `C`
//! worlds) — and the job runs blocks `K, K + W, …` with the `queries`'
//! observers on this server's full graph ([`ugs_queries::SlotRun`]),
//! replaying the stream of batch seed `S` (a **decimal string** — JSON
//! numbers here are f64 and cannot carry every u64).  After `N` epochs it
//! either pauses with that epoch's tracked statistics (`finish` false, an
//! adaptive checkpoint) or exports every block's observer partials
//! (`finish` true).  Polls page the output as [`ugs_queries::partial`]
//! entries, at most `M` values and one response line
//! ([`client::MAX_RESPONSE_BYTES`]) per page; the last page of the
//! partials delivers the job.  The `world_block` form with a `job` field
//! resumes a paused job: run on to `N` epochs, then pause again or
//! export.
//!
//! World-block jobs share the submit path's admission: the
//! [`ServerConfig::max_inflight`] budget, the bounded queue, the executor
//! pool and its panic isolation.  One job holds at most
//! [`ServerConfig::max_plan_threads`] block registries, and a job that may
//! pause at most [`protocol::MAX_PAUSE_WORLDS`] worlds of statistics; a
//! request over either bound answers `plan`.  A job lives and
//! dies with its connection; cancelling it (or closing the connection)
//! stops it after the current world.  [`ServerConfig::shard`] declares the
//! server's fleet slot for the coordinator's checks; any server answers
//! `world_block`.
//!
//! ## Coordinator failure model
//!
//! A distributed coordinator (the `ugs-dist` crate) arms read *and* write
//! timeouts on every worker connection, retries a failed exchange a
//! bounded number of times by reconnecting and resubmitting the slot's
//! job (the fresh job deterministically replays the identical stream),
//! and treats a worker whose job position stops advancing across a
//! deadline as stale.  When the retries are exhausted the plan degrades
//! to the typed `worker_lost` error — a query against a degraded fleet
//! **never hangs**.  Shutting the coordinator down drops every worker
//! connection, which cancels its jobs.
//!
//! ## Error envelope
//!
//! Every failure is one line of
//! `{"status": "error", "code": "<code>", "retryable": <bool>,
//! "message": "…"}` with `code` one
//! of `bad_request`, `unknown_op`, `plan`, `over_budget` (the connection's
//! [`ServerConfig::max_inflight`] budget), `overloaded` (the bounded
//! server-wide queue is full), `unknown_job`, `shutting_down`,
//! `worker_lost` (a distributed worker died mid-plan and bounded retries
//! ran out), `internal` — see [`protocol::ErrorCode`].  The `retryable`
//! flag ([`ErrorCode::retryable`]) marks the transient codes
//! (`worker_lost`, `overloaded`, `over_budget`) a client may usefully
//! retry after a backoff.  Job ids are
//! per-connection; a delivered or cancelled job's id answers
//! `unknown_job` afterwards.
//!
//! Request lines are read under a byte cap
//! ([`ServerConfig::max_line_bytes`]): an oversized line is drained —
//! never buffered whole — answered with `bad_request`, and the connection
//! stays alive.
//!
//! `engines` counts the sampling engines the server has built: one per
//! resolved sampling method it has run, built on the first job that needs
//! it and shared by every job after.
//!
//! ## Result cache
//!
//! Answers are cached under their exact replay identity — graph
//! fingerprint, seed, worlds/threads/shards/mode, precision block and the
//! canonical query spec (adaptive plans additionally hash the whole query
//! mix) — under an LRU byte budget.  An entry is the answer's rendered
//! result fragment, rendered once by the executor that computed it, so a
//! hit copies bytes into the report instead of rendering again.  A cache
//! hit is **bit-identical** to a fresh run; see the [`cache`] module docs
//! for the full key definition and why fixed-budget answers may be reused
//! across plans while adaptive answers may not.
//!
//! # Example
//!
//! ```
//! use uncertain_graph::UncertainGraph;
//! use ugs_server::{serve, LineClient, ServerConfig};
//!
//! let graph = UncertainGraph::from_edges(3, [(0, 1, 0.9), (1, 2, 0.5)]).unwrap();
//! let server = serve(graph, ServerConfig::default()).unwrap();
//!
//! let mut client = LineClient::connect(server.addr()).unwrap();
//! let accepted = client
//!     .submit(r#"{"worlds": 50, "seed": 7, "queries": [{"type": "connectivity"}]}"#)
//!     .unwrap();
//! assert_eq!(accepted.get_str("status"), Some("ok"));
//! let job = accepted.get_usize("job").unwrap() as u64;
//!
//! let report = client.wait_for_report(job).unwrap();
//! let results = report.get("results").unwrap().as_array().unwrap();
//! assert_eq!(results[0].get_str("status"), Some("ok"));
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
mod line;
pub mod protocol;
pub mod server;

pub use cache::{query_key, CacheStats, ResultCache};
pub use client::LineClient;
pub use fault::{FaultClock, FaultEvent, FaultKind, FaultPlan};
pub use protocol::{BlockRequest, ErrorCode, Request};
pub use server::{serve, ServerConfig, ServerHandle};
