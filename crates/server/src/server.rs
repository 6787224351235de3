//! The TCP front-end: listener, connection handlers, executor pool,
//! admission control and graceful shutdown; see the [crate docs](crate)
//! for the wire protocol.
//!
//! ## Threading model
//!
//! * one **listener** thread accepting connections;
//! * one **connection** thread per client, doing *only* non-blocking work
//!   (parse, cache lookups, channel probes) — a connection thread never
//!   parks on a ticket, so a slow job cannot wedge its client's other
//!   requests;
//! * a fixed pool of **executor** threads draining one bounded submission
//!   queue; each job runs its plan as one
//!   [`QueryBatch`](ugs_queries::QueryBatch) pass
//!   ([`QueryPlan::execute_detailed_with_cancel`], the deterministic-replay
//!   path) under `catch_unwind`, so a kernel panic answers `internal`
//!   instead of killing the executor, then inserts the answers into the
//!   shared cache and hands them back over a per-job channel.
//!
//! ## Admission control
//!
//! Two typed backpressure surfaces, checked in order at submit time:
//! a per-connection in-flight budget ([`ServerConfig::max_inflight`],
//! [`ErrorCode::OverBudget`]) and the bounded server-wide queue
//! ([`ServerConfig::queue_capacity`], [`ErrorCode::Overloaded`] when
//! `try_send` finds it full).  Nothing is silently dropped and no queue is
//! unbounded.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or a client's `shutdown` op) sets the stop
//! flag, wakes the listener with a loopback connect, closes every client
//! socket (blocked readers see EOF — never a hang), joins the connection
//! threads, then drops the queue senders so the executors drain: queued
//! jobs whose clients are gone are discarded, the running job finishes.
//! In-flight tickets are thereby either drained or cancelled, never
//! stranded.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use minijson::{ObjBuilder, Value};
use ugs_service::{QueryAnswer, QueryPlan, ServiceError};
use uncertain_graph::{GraphPartition, UncertainGraph};

use crate::cache::{query_key, CacheStats, ResultCache};
use crate::fault::{FaultClock, FaultKind, FaultPlan};
use crate::halo::{HaloEnv, HaloSession};
use crate::line::{read_limited_line, LineRead};
use crate::protocol::{
    error_line, finish_ok, ok_builder, parse_request, ErrorCode, Request, ShardJobRequest,
    MAX_LINE_BYTES,
};
use crate::shard::{ShardJob, ShardOutcome};

/// Tunables of one [`serve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` (the default) picks a free loopback
    /// port — read it back from [`ServerHandle::addr`].
    pub addr: String,
    /// Executor threads draining the submission queue (min 1).
    pub executors: usize,
    /// Bound of the server-wide submission queue; a full queue answers
    /// `overloaded` instead of buffering without limit (min 1).
    pub queue_capacity: usize,
    /// Per-connection budget of undelivered jobs; the budget frees when a
    /// report is delivered or the job is cancelled.
    pub max_inflight: usize,
    /// Byte budget of the deterministic result cache; `0` disables it.
    pub cache_bytes: usize,
    /// Hard cap on a plan's `threads` field (a client must not be able to
    /// spawn an arbitrary number of sampling workers).  Clamping happens
    /// *before* cache-key computation, so the key always reflects the
    /// thread count that actually ran.
    pub max_plan_threads: usize,
    /// `Some((index, total))` runs the server as a **shard worker**: it
    /// builds the contiguous `total`-shard partition of its graph, holds
    /// shard `index`'s CSR state, and accepts the `shard_submit` /
    /// `boundary` / `shard_result` ops.  `None` (the default) serves the
    /// ordinary plan ops only.
    pub shard: Option<(usize, usize)>,
    /// Byte cap on one request line (excluding the newline).  A longer
    /// line is answered with a typed `bad_request` — without ever being
    /// buffered whole — and the connection stays alive.
    pub max_line_bytes: usize,
    /// Test/bench-only seeded fault injection over this server's wire
    /// path; see [`crate::fault`].  `None` (the default) serves faithfully.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            executors: 2,
            queue_capacity: 64,
            max_inflight: 8,
            cache_bytes: 1 << 20,
            max_plan_threads: 8,
            shard: None,
            max_line_bytes: MAX_LINE_BYTES,
            fault_plan: None,
        }
    }
}

/// The worker identity of a server started with [`ServerConfig::shard`].
struct ShardRole {
    index: usize,
    shards: usize,
    partition: Arc<GraphPartition>,
}

/// State shared by every thread of one server.
struct Shared {
    graph: Arc<UncertainGraph>,
    fingerprint: u64,
    addr: SocketAddr,
    config: ServerConfig,
    cache: Mutex<ResultCache>,
    stop: AtomicBool,
    jobs_submitted: AtomicU64,
    jobs_delivered: AtomicU64,
    jobs_cancelled: AtomicU64,
    shard: Option<ShardRole>,
    /// Jobs accepted by `try_send` and not yet picked up by an executor.
    queue_depth: AtomicUsize,
    /// One flag per executor thread, raised while it runs a plan.
    executor_busy: Vec<AtomicBool>,
    /// Live client connections (the `stats` gauge behind the
    /// shutdown-closes-every-connection guarantee).
    connections: AtomicUsize,
    /// Live shard sampling jobs across all connections.
    shard_jobs: AtomicUsize,
    /// Live ghost-halo exchange sessions across all connections.
    halo_sessions: AtomicUsize,
    /// Armed fault schedule ([`ServerConfig::fault_plan`]); server-global
    /// so reconnecting clients cannot rewind the op counter.
    faults: Option<FaultClock>,
}

impl Shared {
    /// Flips the stop flag (idempotent) and wakes the blocked `accept`.
    fn begin_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn graph_label(&self) -> String {
        format!("fingerprint:{:016x}", self.fingerprint)
    }
}

/// One unit of executor work: the (sub-)plan to run, the cache key of each
/// of its queries, and the reply channel back to the connection.
struct ExecJob {
    plan: QueryPlan,
    keys: Vec<String>,
    cancelled: Arc<AtomicBool>,
    done_tx: Sender<Vec<Result<QueryAnswer, ServiceError>>>,
}

/// A connection-local job record.
enum Job {
    /// Every query answered from the cache (or already collected): the
    /// rendered report waits for the next poll.
    Ready(Value),
    /// The executor owes the answers of `misses` (indices into the plan's
    /// query list); everything else was a cache hit.
    Running {
        plan: QueryPlan,
        hits: Vec<Option<Result<QueryAnswer, ServiceError>>>,
        misses: Vec<usize>,
        done_rx: Receiver<Vec<Result<QueryAnswer, ServiceError>>>,
        cancelled: Arc<AtomicBool>,
    },
}

/// A running server; dropping the handle shuts it down gracefully.
pub struct ServerHandle {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    job_tx: Option<SyncSender<ExecJob>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The served graph's fingerprint (the `graph` label of every report).
    pub fn fingerprint(&self) -> u64 {
        self.shared.fingerprint
    }

    /// Current cache counters (also available over the wire via `stats`).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.lock().expect("cache poisoned").stats()
    }

    /// Stops the server gracefully and joins every thread; see the
    /// [module docs](self) for the teardown order.  Equivalent to dropping
    /// the handle, spelled out for call sites that want the intent visible.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the server stops — i.e. until a client sends the
    /// `shutdown` op (or the process is told to stop some other way), then
    /// tears down like [`ServerHandle::shutdown`].  The CLI's `serve`
    /// subcommand runs on this.
    pub fn wait(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Drop completes the teardown (executors, queue senders).
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // All connection threads are joined by now (the listener joins
        // them), so the last queue senders are this handle's and the
        // executors drain to disconnect.
        self.job_tx.take();
        for executor in self.executors.drain(..) {
            let _ = executor.join();
        }
    }
}

/// Binds the address in `config` and serves `graph` until shutdown.
pub fn serve(
    graph: impl Into<Arc<UncertainGraph>>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let graph = graph.into();
    let shard = match config.shard {
        None => None,
        Some((index, total)) => {
            if index >= total {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("shard index {index} out of range for {total} shards"),
                ));
            }
            let partition = GraphPartition::contiguous(&graph, total).map_err(|error| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("cannot partition the graph into {total} shards: {error}"),
                )
            })?;
            Some(ShardRole {
                index,
                shards: total,
                partition: Arc::new(partition),
            })
        }
    };
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let fingerprint = graph.fingerprint();
    let executor_busy = (0..config.executors.max(1))
        .map(|_| AtomicBool::new(false))
        .collect();
    let faults = config
        .fault_plan
        .clone()
        .filter(|plan| !plan.is_empty())
        .map(FaultClock::new);
    let shared = Arc::new(Shared {
        graph,
        fingerprint,
        addr,
        cache: Mutex::new(ResultCache::new(config.cache_bytes)),
        config,
        stop: AtomicBool::new(false),
        jobs_submitted: AtomicU64::new(0),
        jobs_delivered: AtomicU64::new(0),
        jobs_cancelled: AtomicU64::new(0),
        shard,
        queue_depth: AtomicUsize::new(0),
        executor_busy,
        connections: AtomicUsize::new(0),
        shard_jobs: AtomicUsize::new(0),
        halo_sessions: AtomicUsize::new(0),
        faults,
    });
    let (job_tx, job_rx) = mpsc::sync_channel(shared.config.queue_capacity.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let executors = (0..shared.config.executors.max(1))
        .map(|slot| {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            std::thread::spawn(move || executor_loop(&shared, &job_rx, slot))
        })
        .collect();
    let listener_handle = {
        let shared = Arc::clone(&shared);
        let job_tx = job_tx.clone();
        std::thread::spawn(move || listener_loop(listener, &shared, &job_tx))
    };
    Ok(ServerHandle {
        shared,
        listener: Some(listener_handle),
        executors,
        job_tx: Some(job_tx),
    })
}

/// Accepts connections until the stop flag flips, then closes every client
/// socket and joins the connection threads.
fn listener_loop(listener: TcpListener, shared: &Arc<Shared>, job_tx: &SyncSender<ExecJob>) {
    let mut connections: Vec<(Option<TcpStream>, JoinHandle<()>)> = Vec::new();
    for incoming in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = incoming else { continue };
        // One-line responses must not sit in Nagle's buffer waiting for an
        // ACK of the request they answer.
        let _ = stream.set_nodelay(true);
        // Reap finished connection threads so a long-lived server does not
        // accumulate handles.
        let mut live = Vec::with_capacity(connections.len());
        for (stream, handle) in connections.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push((stream, handle));
            }
        }
        connections = live;
        let wakeup = stream.try_clone().ok();
        let handle = {
            let shared = Arc::clone(shared);
            let job_tx = job_tx.clone();
            std::thread::spawn(move || handle_connection(stream, &shared, &job_tx))
        };
        connections.push((wakeup, handle));
    }
    for (stream, handle) in connections {
        if let Some(stream) = stream {
            // Unblocks the connection thread's `read_line` with an EOF; a
            // client blocked on a response read sees the socket close
            // instead of hanging.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = handle.join();
    }
}

/// Drains the submission queue; exits when every sender is gone.
fn executor_loop(shared: &Arc<Shared>, job_rx: &Mutex<Receiver<ExecJob>>, slot: usize) {
    loop {
        // Holding the lock across `recv` is the queue hand-off: exactly one
        // idle executor waits at a time, and it releases the lock before
        // running the job so the others can pick up the next one.
        let job = match job_rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        if job.cancelled.load(Ordering::SeqCst) || shared.stopping() {
            // Cancelled while queued (or the server is draining for
            // shutdown): never execute.  Dropping `done_tx` disconnects the
            // job's channel, which polls surface as a typed error.
            continue;
        }
        shared.executor_busy[slot].store(true, Ordering::SeqCst);
        // The cancel flag reaches the adaptive driver's epoch checkpoints:
        // cancelling a running adaptive plan aborts it between epochs
        // instead of burning the full world budget.
        let answers = run_isolated(&job.plan, || {
            job.plan.execute_detailed_with_cancel(
                Arc::clone(&shared.graph),
                Some(Arc::clone(&job.cancelled)),
            )
        });
        shared.executor_busy[slot].store(false, Ordering::SeqCst);
        if !job.cancelled.load(Ordering::SeqCst) {
            // A cancelled adaptive run stopped early: its answers reflect a
            // truncated world stream and must not be cached.
            let mut cache = shared.cache.lock().expect("cache poisoned");
            for (key, outcome) in job.keys.iter().zip(&answers) {
                if let Ok(answer) = outcome {
                    cache.insert(key.clone(), answer.clone());
                }
            }
        }
        let _ = job.done_tx.send(answers);
    }
}

/// Runs one plan execution with its panics contained: a kernel that panics
/// answers every query of the plan with a typed internal error, and the
/// executor thread lives on to serve the next job.
fn run_isolated(
    plan: &QueryPlan,
    execute: impl FnOnce() -> Vec<Result<QueryAnswer, ServiceError>>,
) -> Vec<Result<QueryAnswer, ServiceError>> {
    catch_unwind(AssertUnwindSafe(execute)).unwrap_or_else(|_| {
        let error = ServiceError::Internal("the query kernel panicked".to_string());
        plan.queries.iter().map(|_| Err(error.clone())).collect()
    })
}

/// One client connection: read a line, answer a line, forever; every
/// failure is a typed error response and the loop continues.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, job_tx: &SyncSender<ExecJob>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut jobs: HashMap<u64, Job> = HashMap::new();
    let mut shard_jobs: HashMap<String, ShardJob> = HashMap::new();
    let mut halo_sessions: HashMap<String, HaloSession<'_>> = HashMap::new();
    let mut next_job: u64 = 1;
    let cap = shared.config.max_line_bytes.max(1);
    loop {
        let line = match read_limited_line(&mut reader, cap) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Overflow) => {
                // The oversized line was drained, never buffered whole; the
                // typed answer keeps the connection usable.
                let response = error_line(
                    ErrorCode::BadRequest,
                    &format!("request line exceeds {cap} bytes"),
                );
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Ok(LineRead::Line(line)) => line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Injected faults tick once per parsed request line (server-global
        // op counter) and misbehave *instead of* answering faithfully.
        let mut garble = false;
        if let Some(clock) = &shared.faults {
            match clock.next() {
                None => {}
                Some(FaultKind::Delay) => std::thread::sleep(clock.delay()),
                Some(FaultKind::Drop) => continue,
                Some(FaultKind::Disconnect) => break,
                Some(FaultKind::Garble) => garble = true,
            }
        }
        let outcome = handle_request(
            trimmed,
            shared,
            job_tx,
            &mut jobs,
            &mut shard_jobs,
            &mut halo_sessions,
            &mut next_job,
        );
        let (mut response, stop_after) = match outcome {
            Outcome::Reply(response) => (response, false),
            Outcome::Shutdown(response) => (response, true),
        };
        if garble {
            response = format!("#!garbled<{response}");
        }
        let written = writeln!(writer, "{response}").and_then(|_| writer.flush());
        if stop_after {
            // Flip the flag only *after* the acknowledgement is on the wire,
            // so the listener cannot close this socket under the response.
            shared.begin_shutdown();
            break;
        }
        if written.is_err() {
            break;
        }
    }
    // The listener keeps a wakeup clone of this socket (to deliver EOF on
    // server shutdown), so dropping our halves alone sends no FIN until
    // that clone is reaped at the next accept.  Shut the socket down
    // explicitly: a client blocked on a response read sees EOF now, not
    // its read timeout.
    let _ = writer.shutdown(Shutdown::Both);
    // The client is gone: flag its queued jobs so no executor burns worlds
    // on answers nobody will collect.
    for job in jobs.into_values() {
        if let Job::Running { cancelled, .. } = job {
            cancelled.store(true, Ordering::SeqCst);
        }
    }
    // Shard jobs live and die with their connection: dropping the map stops
    // and joins every sampler thread.
    shared
        .shard_jobs
        .fetch_sub(shard_jobs.len(), Ordering::SeqCst);
    drop(shard_jobs);
    // Halo sessions are plain connection-local data: drop them, settle the
    // gauge.
    shared
        .halo_sessions
        .fetch_sub(halo_sessions.len(), Ordering::SeqCst);
    drop(halo_sessions);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// What a request leaves the connection loop to do: reply, or reply and
/// then start the server-wide shutdown (acknowledgement before teardown).
enum Outcome {
    Reply(String),
    Shutdown(String),
}

fn handle_request<'g>(
    line: &str,
    shared: &'g Arc<Shared>,
    job_tx: &SyncSender<ExecJob>,
    jobs: &mut HashMap<u64, Job>,
    shard_jobs: &mut HashMap<String, ShardJob>,
    halo_sessions: &mut HashMap<String, HaloSession<'g>>,
    next_job: &mut u64,
) -> Outcome {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err((code, message)) => return Outcome::Reply(error_line(code, &message)),
    };
    Outcome::Reply(match request {
        Request::Ping => finish_ok(ok_builder().field("pong", true)),
        Request::Shutdown => {
            return Outcome::Shutdown(finish_ok(ok_builder().field("stopping", true)));
        }
        Request::Stats => stats(shared),
        Request::Submit(plan) => submit(plan, shared, job_tx, jobs, next_job),
        Request::Poll(id) => poll(id, shared, jobs),
        Request::Cancel(id) => match jobs.remove(&id) {
            None => error_line(
                ErrorCode::UnknownJob,
                &format!("job {id} is not held by this connection"),
            ),
            Some(job) => {
                if let Job::Running { cancelled, .. } = job {
                    cancelled.store(true, Ordering::SeqCst);
                }
                shared.jobs_cancelled.fetch_add(1, Ordering::SeqCst);
                finish_ok(
                    ok_builder()
                        .field("job", id as usize)
                        .field("cancelled", true),
                )
            }
        },
        Request::ShardSubmit(request) => shard_submit(request, shared, shard_jobs),
        Request::Halo(request) => match &shared.shard {
            None => error_line(
                ErrorCode::BadRequest,
                "this server runs no shard role; halo requires a worker (--shard K/N)",
            ),
            Some(role) => crate::halo::handle(
                request,
                &HaloEnv {
                    graph: &shared.graph,
                    partition: &role.partition,
                    shard: role.index,
                    shards: role.shards,
                    budget: shared.config.max_inflight.max(1),
                    gauge: &shared.halo_sessions,
                },
                halo_sessions,
            ),
        },
        Request::Boundary { job, from, max } => match shard_jobs.get(&job) {
            None => unknown_shard_job(&job),
            Some(entry) => {
                if let ShardOutcome::Failed(message) = entry.outcome() {
                    return Outcome::Reply(error_line(ErrorCode::Internal, &message));
                }
                let (records, pos, target) = entry.page(from, max.max(1));
                let records = Value::Arr(records.into_iter().map(Value::Str).collect());
                finish_ok(
                    ok_builder()
                        .field("job", job.as_str())
                        .field("from", from)
                        .field("records", records)
                        .field("pos", pos)
                        .field("target", target),
                )
            }
        },
        Request::ShardResult { job } => match shard_jobs.get(&job) {
            None => unknown_shard_job(&job),
            Some(entry) => match entry.outcome() {
                ShardOutcome::Failed(message) => error_line(ErrorCode::Internal, &message),
                ShardOutcome::Pending { pos, target } => finish_ok(
                    ok_builder()
                        .field("job", job.as_str())
                        .field("done", false)
                        .field("pos", pos)
                        .field("target", target),
                ),
                ShardOutcome::Done {
                    worlds,
                    hist,
                    intra,
                } => {
                    let counts = |values: Vec<u64>| {
                        Value::Arr(values.into_iter().map(|v| Value::Num(v as f64)).collect())
                    };
                    finish_ok(
                        ok_builder()
                            .field("job", job.as_str())
                            .field("done", true)
                            .field("worlds", worlds)
                            .field("hist", counts(hist))
                            .field("intra", counts(intra)),
                    )
                }
            },
        },
    })
}

fn unknown_shard_job(job: &str) -> String {
    error_line(
        ErrorCode::UnknownJob,
        &format!("shard job {job:?} is not held by this connection"),
    )
}

/// Renders the `stats` response: job and cache counters, queue depth,
/// per-executor busy flags, the live-connection gauge, and the shard role
/// (when the server runs as a worker).
fn stats(shared: &Arc<Shared>) -> String {
    let cache = shared.cache.lock().expect("cache poisoned").stats();
    let jobs_obj = ObjBuilder::new()
        .field(
            "submitted",
            shared.jobs_submitted.load(Ordering::SeqCst) as usize,
        )
        .field(
            "delivered",
            shared.jobs_delivered.load(Ordering::SeqCst) as usize,
        )
        .field(
            "cancelled",
            shared.jobs_cancelled.load(Ordering::SeqCst) as usize,
        )
        .build();
    let cache_obj = ObjBuilder::new()
        .field("hits", cache.hits as usize)
        .field("misses", cache.misses as usize)
        .field("insertions", cache.insertions as usize)
        .field("evictions", cache.evictions as usize)
        .field("entries", cache.entries)
        .field("bytes", cache.bytes)
        .build();
    let queue_obj = ObjBuilder::new()
        .field("depth", shared.queue_depth.load(Ordering::SeqCst))
        .field("capacity", shared.config.queue_capacity.max(1))
        .build();
    let executors = Value::Arr(
        shared
            .executor_busy
            .iter()
            .map(|busy| Value::Bool(busy.load(Ordering::SeqCst)))
            .collect(),
    );
    let mut builder = ok_builder()
        .field("graph", shared.graph_label())
        .field("jobs", jobs_obj)
        .field("cache", cache_obj)
        .field("queue", queue_obj)
        .field("executors", executors)
        .field("connections", shared.connections.load(Ordering::SeqCst));
    if let Some(role) = &shared.shard {
        let shard_obj = ObjBuilder::new()
            .field("shard", role.index)
            .field("shards", role.shards)
            .field("jobs", shared.shard_jobs.load(Ordering::SeqCst))
            .field("halo", shared.halo_sessions.load(Ordering::SeqCst))
            .build();
        builder = builder.field("shard", shard_obj);
    }
    if let Some(clock) = &shared.faults {
        builder = builder.field("faults", clock.fired());
    }
    finish_ok(builder)
}

/// Starts a shard sampling job (or extends a running one): validates the
/// request against the worker's role, enforces the per-connection job
/// budget, and spawns the sampler thread.
fn shard_submit(
    request: ShardJobRequest,
    shared: &Arc<Shared>,
    shard_jobs: &mut HashMap<String, ShardJob>,
) -> String {
    if shared.stopping() {
        return error_line(ErrorCode::ShuttingDown, "the server is shutting down");
    }
    let Some(role) = &shared.shard else {
        return error_line(
            ErrorCode::BadRequest,
            "this server runs no shard role; start it with a shard index to accept shard jobs",
        );
    };
    if request.shards != role.shards || request.shard != role.index {
        return error_line(
            ErrorCode::BadRequest,
            &format!(
                "this worker owns shard {}/{}, the request names shard {}/{}",
                role.index, role.shards, request.shard, request.shards
            ),
        );
    }
    if let Some(existing) = shard_jobs.get(&request.job) {
        // Re-submitting the same token is how a coordinator raises the world
        // target of an adaptive plan; any other parameter change is a
        // protocol violation (the replay identity must stay fixed).
        if !existing.matches(&request) {
            return error_line(
                ErrorCode::BadRequest,
                &format!(
                    "shard job {:?} is already running with different parameters; \
                     only the world target may change on resubmission",
                    request.job
                ),
            );
        }
        existing.raise_target(request.worlds);
        let (pos, target) = existing.progress();
        return finish_ok(
            ok_builder()
                .field("job", request.job.as_str())
                .field("accepted", true)
                .field("pos", pos)
                .field("target", target),
        );
    }
    let budget = shared.config.max_inflight.max(1);
    if shard_jobs.len() >= budget {
        return error_line(
            ErrorCode::OverBudget,
            &format!("connection budget of {budget} shard jobs reached"),
        );
    }
    let token = request.job.clone();
    let target = request.worlds;
    let job = ShardJob::spawn(
        Arc::clone(&shared.graph),
        Arc::clone(&role.partition),
        request,
    );
    shard_jobs.insert(token.clone(), job);
    shared.shard_jobs.fetch_add(1, Ordering::SeqCst);
    finish_ok(
        ok_builder()
            .field("job", token.as_str())
            .field("accepted", true)
            .field("pos", 0usize)
            .field("target", target),
    )
}

fn submit(
    mut plan: QueryPlan,
    shared: &Arc<Shared>,
    job_tx: &SyncSender<ExecJob>,
    jobs: &mut HashMap<u64, Job>,
    next_job: &mut u64,
) -> String {
    if shared.stopping() {
        return error_line(ErrorCode::ShuttingDown, "the server is shutting down");
    }
    if jobs.len() >= shared.config.max_inflight.max(1) {
        return error_line(
            ErrorCode::OverBudget,
            &format!(
                "connection budget of {} in-flight jobs reached; poll or cancel first",
                shared.config.max_inflight.max(1)
            ),
        );
    }
    // Clamp *before* key computation so cache keys always name the thread
    // count that actually runs.
    plan.threads = plan.threads.clamp(1, shared.config.max_plan_threads.max(1));
    let keys: Vec<String> = (0..plan.queries.len())
        .map(|index| query_key(shared.fingerprint, &plan, index))
        .collect();
    let mut hits: Vec<Option<Result<QueryAnswer, ServiceError>>> = {
        let mut cache = shared.cache.lock().expect("cache poisoned");
        keys.iter().map(|key| cache.lookup(key).map(Ok)).collect()
    };
    // An adaptive batch's stopping point depends on the whole query mix
    // (the keys are mix-qualified), so a partial hit cannot be assembled
    // from a differently-mixed run: any miss re-runs the full plan.
    let adaptive = plan.precision.is_some();
    let mut misses: Vec<usize> = (0..plan.queries.len())
        .filter(|&index| hits[index].is_none())
        .collect();
    if adaptive && !misses.is_empty() {
        misses = (0..plan.queries.len()).collect();
        hits.iter_mut().for_each(|hit| *hit = None);
    }
    let id = *next_job;
    *next_job += 1;
    let cached = misses.is_empty();
    if cached {
        let answers: Vec<Result<QueryAnswer, ServiceError>> = hits
            .into_iter()
            .map(|hit| hit.expect("all queries hit"))
            .collect();
        let report = plan.report_for(&shared.graph_label(), &answers);
        jobs.insert(id, Job::Ready(report));
    } else {
        let exec_plan = QueryPlan {
            queries: misses
                .iter()
                .map(|&index| plan.queries[index].clone())
                .collect(),
            ..plan.clone()
        };
        let exec_keys: Vec<String> = misses.iter().map(|&index| keys[index].clone()).collect();
        let cancelled = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();
        let exec = ExecJob {
            plan: exec_plan,
            keys: exec_keys,
            cancelled: Arc::clone(&cancelled),
            done_tx,
        };
        match job_tx.try_send(exec) {
            Ok(()) => {
                shared.queue_depth.fetch_add(1, Ordering::SeqCst);
            }
            Err(TrySendError::Full(_)) => {
                return error_line(
                    ErrorCode::Overloaded,
                    &format!(
                        "submission queue of {} jobs is full; retry after polling",
                        shared.config.queue_capacity.max(1)
                    ),
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                return error_line(ErrorCode::ShuttingDown, "the server is shutting down");
            }
        }
        jobs.insert(
            id,
            Job::Running {
                plan,
                hits,
                misses,
                done_rx,
                cancelled,
            },
        );
    }
    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    finish_ok(
        ok_builder()
            .field("job", id as usize)
            .field("cached", cached),
    )
}

fn poll(id: u64, shared: &Arc<Shared>, jobs: &mut HashMap<u64, Job>) -> String {
    match jobs.get_mut(&id) {
        None => error_line(
            ErrorCode::UnknownJob,
            &format!("job {id} is not held by this connection"),
        ),
        Some(Job::Ready(_)) => {
            let Some(Job::Ready(report)) = jobs.remove(&id) else {
                unreachable!("entry checked above");
            };
            deliver(id, report, shared)
        }
        Some(Job::Running { done_rx, .. }) => match done_rx.try_recv() {
            Err(TryRecvError::Empty) => {
                finish_ok(ok_builder().field("job", id as usize).field("done", false))
            }
            Err(TryRecvError::Disconnected) => {
                jobs.remove(&id);
                if shared.stopping() {
                    error_line(ErrorCode::ShuttingDown, "the server is shutting down")
                } else {
                    error_line(ErrorCode::Internal, "the job's executor is gone")
                }
            }
            Ok(sub_answers) => {
                let Some(Job::Running {
                    plan,
                    mut hits,
                    misses,
                    ..
                }) = jobs.remove(&id)
                else {
                    unreachable!("entry checked above");
                };
                for (index, answer) in misses.into_iter().zip(sub_answers) {
                    hits[index] = Some(answer);
                }
                let answers: Vec<Result<QueryAnswer, ServiceError>> = hits
                    .into_iter()
                    .map(|hit| {
                        hit.unwrap_or_else(|| {
                            Err(ServiceError::Internal(
                                "executor returned too few answers".to_string(),
                            ))
                        })
                    })
                    .collect();
                let report = plan.report_for(&shared.graph_label(), &answers);
                deliver(id, report, shared)
            }
        },
    }
}

/// Renders a done-poll response; delivery is exactly-once, freeing the
/// job's in-flight slot.
fn deliver(id: u64, report: Value, shared: &Arc<Shared>) -> String {
    shared.jobs_delivered.fetch_add(1, Ordering::SeqCst);
    finish_ok(
        ok_builder()
            .field("job", id as usize)
            .field("done", true)
            .field("report", report),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_plan_run_answers_internal_for_every_query() {
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 20, "queries": [{"type": "connectivity"}, {"type": "pagerank"}]}"#,
        )
        .unwrap();
        let answers = run_isolated(&plan, || panic!("kernel bug"));
        assert_eq!(answers.len(), 2);
        for answer in answers {
            assert!(
                matches!(answer, Err(ServiceError::Internal(_))),
                "{answer:?}"
            );
        }
        // A run that returns is passed through untouched.
        let graph = UncertainGraph::from_edges(2, [(0, 1, 0.5)]).unwrap();
        let answers = run_isolated(&plan, || plan.execute_detailed(graph.clone()));
        assert_eq!(answers, plan.execute_detailed(graph));
    }
}
