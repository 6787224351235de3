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
//!   queue, run scoped on one thread that owns the server's sampling
//!   engines.  The executors share **one [`WorldEngine`] per resolved
//!   sampling method** (`auto` shares the engine of the method it resolves
//!   to), built by the first job that needs it — a server serves one
//!   graph, so no job rebuilds it.  Each plan job runs as one
//!   [`QueryBatch`](ugs_queries::QueryBatch) pass on that engine
//!   ([`QueryPlan::execute_on`], the deterministic-replay path) under
//!   `catch_unwind`, so a kernel panic answers `internal` instead of
//!   killing the executor.  The executor then renders each answer once
//!   ([`RenderedAnswer`]), inserts the renderings into the shared cache and
//!   hands them back over a per-job channel; a poll writes the report
//!   around them.  A `world_block` job runs its fleet slot's blocks
//!   ([`SlotRun`]) on one executor and the same shared engine; an adaptive
//!   job keeps that executor (and its registries) between epochs, parked
//!   on its connection's advance channel.
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
//! [`ServerHandle::shutdown`] (or a client's `shutdown` op) first refuses
//! new work — a `shutdown` op does so before its acknowledgement is
//! written, so a `submit` or `world_block` that arrives after it is
//! answered `shutting_down` — then sets the stop flag, wakes the listener
//! with a loopback connect, closes every client socket (blocked readers
//! see EOF — never a hang), joins the connection threads, then drops the
//! queue senders so the executors drain: queued jobs whose clients are
//! gone are discarded, the running job finishes.  In-flight tickets are
//! thereby either drained or cancelled, never stranded.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use minijson::{ObjBuilder, Value};
use ugs_queries::batch::BoxedObserver;
use ugs_queries::partial::encode_value;
use ugs_queries::{BlockPlan, BlockWatch, SampleMethod, SlotRun, WorldEngine};
use ugs_service::{QueryAnswer, QueryPlan, RenderedAnswer, ServiceError};
use uncertain_graph::UncertainGraph;

use crate::cache::{query_key, CacheStats, ResultCache};
use crate::client::MAX_RESPONSE_BYTES;
use crate::fault::{FaultClock, FaultKind, FaultPlan};
use crate::line::{read_limited_line, LineRead};
use crate::protocol::{
    error_line, finish_ok, ok_builder, parse_request, BlockRequest, ErrorCode, Request,
    MAX_LINE_BYTES,
};

/// Byte budget of one page of world-block output values: what fits in a
/// response line a [`crate::LineClient`] accepts, less room for the
/// envelope.
const PAGE_BYTES: usize = MAX_RESPONSE_BYTES - 4096;

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
    /// `Some((slot, slots))` declares the server a **fleet worker**: slot
    /// `slot` of a `slots`-worker fleet.  `stats` reports the role, so a
    /// coordinator can check the fleet is wired as intended when it
    /// connects and when it promotes a standby.  The role builds no state
    /// of its own — every server holds the full graph and answers
    /// `world_block` for any slot.  `None` (the default) declares none.
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

/// State shared by every thread of one server.
struct Shared {
    graph: Arc<UncertainGraph>,
    fingerprint: u64,
    addr: SocketAddr,
    config: ServerConfig,
    cache: Mutex<ResultCache>,
    /// Raised first on shutdown: admission refuses new work from here on.
    refusing: AtomicBool,
    /// Raised after `refusing`: the listener stops and closes every socket.
    stop: AtomicBool,
    jobs_submitted: AtomicU64,
    jobs_delivered: AtomicU64,
    jobs_cancelled: AtomicU64,
    /// Jobs accepted by `try_send` and not yet picked up by an executor.
    queue_depth: AtomicUsize,
    /// One flag per executor thread, raised while it runs a plan.
    executor_busy: Vec<AtomicBool>,
    /// Live client connections (the `stats` gauge behind the
    /// shutdown-closes-every-connection guarantee).
    connections: AtomicUsize,
    /// Sampling engines built so far ([`Engines`]; the `stats` op's
    /// `engines`).
    engines_built: AtomicUsize,
    /// Armed fault schedule ([`ServerConfig::fault_plan`]); server-global
    /// so reconnecting clients cannot rewind the op counter.
    faults: Option<FaultClock>,
}

impl Shared {
    /// Refuses new work from now on, without touching the listener, so a
    /// `shutdown` acknowledgement can still be written on its socket.
    fn refuse_work(&self) {
        self.refusing.store(true, Ordering::SeqCst);
    }

    /// Refuses new work, flips the stop flag (idempotent) and wakes the
    /// blocked `accept`.
    fn begin_shutdown(&self) {
        self.refuse_work();
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether new work is refused: true from the moment a shutdown is
    /// requested, before it is acknowledged.
    fn stopping(&self) -> bool {
        self.refusing.load(Ordering::SeqCst)
    }

    fn graph_label(&self) -> String {
        format!("fingerprint:{:016x}", self.fingerprint)
    }
}

/// The server's sampling engines: at most one per resolved sampling method,
/// built by the first job that needs it and shared by every executor and
/// job after it.  A server serves one graph, so an engine never goes stale.
struct Engines<'g> {
    graph: &'g UncertainGraph,
    /// What `auto` resolves to on the graph, worked out once.
    auto: OnceLock<SampleMethod>,
    skip: OnceLock<WorldEngine<'g>>,
    per_edge: OnceLock<WorldEngine<'g>>,
    built: &'g AtomicUsize,
}

impl<'g> Engines<'g> {
    fn new(shared: &'g Shared) -> Self {
        Engines {
            graph: &shared.graph,
            auto: OnceLock::new(),
            skip: OnceLock::new(),
            per_edge: OnceLock::new(),
            built: &shared.engines_built,
        }
    }

    /// The engine that samples the way `mode` resolves on the graph; the
    /// first caller for a method builds it while later ones wait.
    fn get(&self, mode: SampleMethod) -> &WorldEngine<'g> {
        let method = match mode {
            SampleMethod::Auto => *self.auto.get_or_init(|| mode.resolve_for(self.graph)),
            method => method,
        };
        let slot = match method {
            SampleMethod::Skip => &self.skip,
            SampleMethod::PerEdge => &self.per_edge,
            SampleMethod::Auto => unreachable!("auto is resolved above"),
        };
        slot.get_or_init(|| {
            self.built.fetch_add(1, Ordering::SeqCst);
            WorldEngine::new(self.graph).with_method(method)
        })
    }
}

/// A query's outcome as the server keeps it: the rendered answer, or why
/// there is none.
type Answer = Result<RenderedAnswer, ServiceError>;

/// One unit of executor work.
enum Work {
    /// A submitted (sub-)plan.
    Plan(PlanJob),
    /// A world-block job.
    Blocks(BlockJob),
}

/// A submitted (sub-)plan: the plan to run, the cache key of each of its
/// queries, and the reply channel back to the connection.
struct PlanJob {
    plan: QueryPlan,
    keys: Vec<String>,
    cancelled: Arc<AtomicBool>,
    done_tx: Sender<Vec<Answer>>,
}

/// A world-block job as the executor runs it: the request, its validated
/// observers, and the channels to its connection.
struct BlockJob {
    request: BlockRequest,
    observers: Vec<BoxedObserver>,
    watch: Arc<BlockWatch>,
    out_tx: Sender<Result<BlockOutput, String>>,
    /// `(epochs, finish)` targets for a paused job.
    advance_rx: Receiver<(usize, bool)>,
}

/// What a world-block job hands back after a step: the epochs it has run,
/// and either the last epoch's tracked statistics (paused) or every
/// block's partials (finished).
struct BlockOutput {
    epochs: usize,
    partials: bool,
    values: Vec<f64>,
}

/// The connection's side of a world-block job.
struct BlockState {
    plan: BlockPlan,
    out_rx: Receiver<Result<BlockOutput, String>>,
    advance_tx: Sender<(usize, bool)>,
    watch: Arc<BlockWatch>,
    /// The step output being paged out, once it arrived.
    output: Option<BlockOutput>,
}

/// A connection-local job record.
enum Job {
    /// Every query answered from the cache: the next poll writes the
    /// report around the cached fragments.
    Ready {
        plan: QueryPlan,
        answers: Vec<Answer>,
    },
    /// The executor owes the answers of `misses` (indices into the plan's
    /// query list); everything else was a cache hit.
    Running {
        plan: QueryPlan,
        hits: Vec<Option<Answer>>,
        misses: Vec<usize>,
        done_rx: Receiver<Vec<Answer>>,
        cancelled: Arc<AtomicBool>,
    },
    /// A world-block job (running, paused or finished).
    Blocks(BlockState),
}

impl Job {
    /// Stops whatever the job still has running: a queued or running
    /// plan or block job is flagged; a paused block job wakes up to its
    /// closed advance channel once the job record is dropped.
    fn abandon(&self) {
        match self {
            Job::Ready { .. } => {}
            Job::Running { cancelled, .. } => cancelled.store(true, Ordering::SeqCst),
            Job::Blocks(state) => state.watch.cancel(),
        }
    }
}

/// A running server; dropping the handle shuts it down gracefully.
pub struct ServerHandle {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    /// The thread that owns the engines and runs the executors.
    executors: Option<JoinHandle<()>>,
    job_tx: Option<SyncSender<Work>>,
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
        if let Some(executors) = self.executors.take() {
            let _ = executors.join();
        }
    }
}

/// Binds the address in `config` and serves `graph` until shutdown.
pub fn serve(
    graph: impl Into<Arc<UncertainGraph>>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let graph = graph.into();
    if let Some((slot, slots)) = config.shard {
        if slot >= slots {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("fleet slot {slot} out of range for {slots} slots"),
            ));
        }
    }
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
        refusing: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        jobs_submitted: AtomicU64::new(0),
        jobs_delivered: AtomicU64::new(0),
        jobs_cancelled: AtomicU64::new(0),
        queue_depth: AtomicUsize::new(0),
        executor_busy,
        connections: AtomicUsize::new(0),
        engines_built: AtomicUsize::new(0),
        faults,
    });
    let (job_tx, job_rx) = mpsc::sync_channel(shared.config.queue_capacity.max(1));
    // The executors run scoped on one thread that owns the engines, so they
    // borrow the graph and each engine is built once, on first use.
    let executors = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let job_rx = Mutex::new(job_rx);
            let engines = Engines::new(&shared);
            std::thread::scope(|scope| {
                for slot in 0..shared.config.executors.max(1) {
                    let (shared, job_rx, engines) = (&shared, &job_rx, &engines);
                    scope.spawn(move || executor_loop(shared, job_rx, engines, slot));
                }
            });
        })
    };
    let listener_handle = {
        let shared = Arc::clone(&shared);
        let job_tx = job_tx.clone();
        std::thread::spawn(move || listener_loop(listener, &shared, &job_tx))
    };
    Ok(ServerHandle {
        shared,
        listener: Some(listener_handle),
        executors: Some(executors),
        job_tx: Some(job_tx),
    })
}

/// Accepts connections until the stop flag flips, then closes every client
/// socket and joins the connection threads.
fn listener_loop(listener: TcpListener, shared: &Arc<Shared>, job_tx: &SyncSender<Work>) {
    let mut connections: Vec<(Option<TcpStream>, JoinHandle<()>)> = Vec::new();
    for incoming in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
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
fn executor_loop(
    shared: &Shared,
    job_rx: &Mutex<Receiver<Work>>,
    engines: &Engines<'_>,
    slot: usize,
) {
    loop {
        // Holding the lock across `recv` is the queue hand-off: exactly one
        // idle executor waits at a time, and it releases the lock before
        // running the job so the others can pick up the next one.
        let work = match job_rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(work) = work else { return };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let abandoned = match &work {
            Work::Plan(job) => job.cancelled.load(Ordering::SeqCst),
            Work::Blocks(job) => job.watch.is_cancelled(),
        };
        if abandoned || shared.stopping() {
            // Cancelled while queued (or the server is draining for
            // shutdown): never execute.  Dropping the reply sender
            // disconnects the job's channel, which polls surface as a
            // typed error.
            continue;
        }
        shared.executor_busy[slot].store(true, Ordering::SeqCst);
        match work {
            Work::Plan(job) => run_plan(shared, engines, job),
            Work::Blocks(job) => {
                let out_tx = job.out_tx.clone();
                let run = || run_blocks(engines.get(job.request.mode), job);
                if catch_unwind(AssertUnwindSafe(run)).is_err() {
                    let _ = out_tx.send(Err("the query kernel panicked".to_string()));
                }
            }
        }
        shared.executor_busy[slot].store(false, Ordering::SeqCst);
    }
}

/// Runs one submitted plan on the shared engine of its mode, renders each
/// answer once, caches the renderings and sends them back.
fn run_plan(shared: &Shared, engines: &Engines<'_>, job: PlanJob) {
    // The cancel flag reaches the adaptive driver's epoch checkpoints and
    // every world of a fixed budget: cancelling a running plan frees the
    // executor instead of burning the full world budget.
    let answers: Vec<Answer> = run_isolated(&job.plan, || {
        let engine = engines.get(job.plan.mode);
        job.plan
            .execute_on(engine, Some(Arc::clone(&job.cancelled)))
    })
    .into_iter()
    .map(|outcome| outcome.map(|answer| answer.render()))
    .collect();
    if !job.cancelled.load(Ordering::SeqCst) {
        // A cancelled adaptive run stopped early: its answers reflect a
        // truncated world stream and must not be cached.  (A cancelled
        // fixed run answers `ServiceError::Cancelled`, never cached.)
        let mut cache = shared.cache.lock().expect("cache poisoned");
        for (key, outcome) in job.keys.iter().zip(&answers) {
            if let Ok(answer) = outcome {
                cache.insert(key.clone(), answer.clone());
            }
        }
    }
    let _ = job.done_tx.send(answers);
}

/// Runs one world-block job: epochs up to each target, pausing with the
/// last epoch's tracked statistics until the connection advances it, then
/// exporting every block's partials.  A cancelled watch or a closed
/// channel (the connection is gone) ends the job silently.
fn run_blocks(engine: &WorldEngine<'_>, job: BlockJob) {
    let request = &job.request;
    let mut run = SlotRun::new(
        engine,
        request.seed,
        request.plan,
        request.slot,
        request.slots,
        job.observers,
    );
    let (mut epochs, mut finish) = (request.epochs, request.finish);
    let mut stats = Vec::new();
    loop {
        while run.epochs_run() < epochs {
            stats.clear();
            let last = run.epochs_run() + 1 == epochs;
            let wanted = (last && !finish).then_some(&mut stats);
            if !run.run_epoch(wanted, Some(&job.watch)) {
                return;
            }
        }
        let mut values = Vec::new();
        if finish {
            run.export_partials(&mut values);
        } else {
            std::mem::swap(&mut values, &mut stats);
        }
        let output = BlockOutput {
            epochs,
            partials: finish,
            values,
        };
        if job.out_tx.send(Ok(output)).is_err() || finish {
            return;
        }
        match job.advance_rx.recv() {
            Ok(target) => (epochs, finish) = target,
            Err(_) => return,
        }
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
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, job_tx: &SyncSender<Work>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut jobs: HashMap<u64, Job> = HashMap::new();
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
        let outcome = handle_request(trimmed, shared, job_tx, &mut jobs, &mut next_job);
        let (mut response, stop_after) = match outcome {
            Outcome::Reply(response) => (response, false),
            Outcome::Shutdown(response) => (response, true),
        };
        if garble {
            response = format!("#!garbled<{response}");
        }
        if stop_after {
            // Refuse new work *before* the acknowledgement goes out, so no
            // client that has seen it can still be admitted.
            shared.refuse_work();
        }
        let written = writeln!(writer, "{response}").and_then(|_| writer.flush());
        if stop_after {
            // Stop the listener only *after* the acknowledgement is on the
            // wire, so it cannot close this socket under the response.
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
    // The client is gone: stop every job it still owns, so no executor
    // burns worlds on answers nobody will collect (dropping the records
    // closes paused block jobs' advance channels).
    for job in jobs.values() {
        job.abandon();
    }
    drop(jobs);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// What a request leaves the connection loop to do: reply, or reply and
/// then start the server-wide shutdown (acknowledgement before teardown).
enum Outcome {
    Reply(String),
    Shutdown(String),
}

fn handle_request(
    line: &str,
    shared: &Arc<Shared>,
    job_tx: &SyncSender<Work>,
    jobs: &mut HashMap<u64, Job>,
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
        Request::Poll { job, from, max } => poll(job, from, max, shared, jobs),
        Request::Cancel(id) => match jobs.remove(&id) {
            None => unknown_job(id),
            Some(job) => {
                job.abandon();
                shared.jobs_cancelled.fetch_add(1, Ordering::SeqCst);
                finish_ok(
                    ok_builder()
                        .field("job", id as usize)
                        .field("cancelled", true),
                )
            }
        },
        Request::WorldBlock(request) => world_block(request, shared, job_tx, jobs, next_job),
        Request::Advance {
            job,
            epochs,
            finish,
        } => advance(job, epochs, finish, jobs),
    })
}

fn unknown_job(id: u64) -> String {
    error_line(
        ErrorCode::UnknownJob,
        &format!("job {id} is not held by this connection"),
    )
}

/// Renders the `stats` response: job and cache counters, queue depth,
/// per-executor busy flags, the live-connection gauge, and the fleet role
/// (when the server declares one).
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
        .field("connections", shared.connections.load(Ordering::SeqCst))
        .field("engines", shared.engines_built.load(Ordering::SeqCst));
    if let Some((slot, slots)) = shared.config.shard {
        let shard_obj = ObjBuilder::new()
            .field("shard", slot)
            .field("shards", slots)
            .build();
        builder = builder.field("shard", shard_obj);
    }
    if let Some(clock) = &shared.faults {
        builder = builder.field("faults", clock.fired());
    }
    finish_ok(builder)
}

/// Admission shared by `submit` and `world_block`: the server is not
/// stopping and the connection has budget for one more job.
fn admit(shared: &Shared, jobs: &HashMap<u64, Job>) -> Result<(), String> {
    if shared.stopping() {
        return Err(error_line(
            ErrorCode::ShuttingDown,
            "the server is shutting down",
        ));
    }
    let budget = shared.config.max_inflight.max(1);
    if jobs.len() >= budget {
        return Err(error_line(
            ErrorCode::OverBudget,
            &format!("connection budget of {budget} in-flight jobs reached; poll or cancel first"),
        ));
    }
    Ok(())
}

/// Hands work to the bounded executor queue; a full queue answers
/// `overloaded` instead of buffering.
fn enqueue(shared: &Shared, job_tx: &SyncSender<Work>, work: Work) -> Result<(), String> {
    match job_tx.try_send(work) {
        Ok(()) => {
            shared.queue_depth.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        Err(TrySendError::Full(_)) => Err(error_line(
            ErrorCode::Overloaded,
            &format!(
                "submission queue of {} jobs is full; retry after polling",
                shared.config.queue_capacity.max(1)
            ),
        )),
        Err(TrySendError::Disconnected(_)) => Err(error_line(
            ErrorCode::ShuttingDown,
            "the server is shutting down",
        )),
    }
}

fn submit(
    mut plan: QueryPlan,
    shared: &Arc<Shared>,
    job_tx: &SyncSender<Work>,
    jobs: &mut HashMap<u64, Job>,
    next_job: &mut u64,
) -> String {
    if let Err(refusal) = admit(shared, jobs) {
        return refusal;
    }
    // Clamp *before* key computation so cache keys always name the thread
    // count that actually runs.
    plan.threads = plan.threads.clamp(1, shared.config.max_plan_threads.max(1));
    let keys: Vec<String> = (0..plan.queries.len())
        .map(|index| query_key(shared.fingerprint, &plan, index))
        .collect();
    let mut hits: Vec<Option<Answer>> = {
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
        let answers = hits
            .into_iter()
            .map(|hit| hit.expect("all queries hit"))
            .collect();
        jobs.insert(id, Job::Ready { plan, answers });
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
        let work = Work::Plan(PlanJob {
            plan: exec_plan,
            keys: exec_keys,
            cancelled: Arc::clone(&cancelled),
            done_tx,
        });
        if let Err(refusal) = enqueue(shared, job_tx, work) {
            return refusal;
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

/// Starts a world-block job: admission as for `submit`, then the job's own
/// bounds — at most `max_plan_threads` block registries, every query valid
/// on this graph — then the executor queue.
fn world_block(
    request: BlockRequest,
    shared: &Arc<Shared>,
    job_tx: &SyncSender<Work>,
    jobs: &mut HashMap<u64, Job>,
    next_job: &mut u64,
) -> String {
    if let Err(refusal) = admit(shared, jobs) {
        return refusal;
    }
    let held = request.plan.slot_blocks(request.slot, request.slots);
    let budget = shared.config.max_plan_threads.max(1);
    if held > budget {
        return error_line(
            ErrorCode::Plan,
            &format!(
                "slot {} of {} holds {held} world blocks; this worker runs at most {budget} \
                 per job (its max_plan_threads)",
                request.slot, request.slots
            ),
        );
    }
    let mut observers = Vec::with_capacity(request.queries.len());
    for (index, spec) in request.queries.iter().enumerate() {
        match spec.make_observer(&shared.graph) {
            Ok(observer) => observers.push(observer),
            Err(error) => {
                return error_line(ErrorCode::Plan, &format!("queries[{index}]: {error}"))
            }
        }
    }
    let watch = Arc::new(BlockWatch::default());
    let (out_tx, out_rx) = mpsc::channel();
    let (advance_tx, advance_rx) = mpsc::channel();
    let id = *next_job;
    *next_job += 1;
    let plan = request.plan;
    let work = Work::Blocks(BlockJob {
        request,
        observers,
        watch: Arc::clone(&watch),
        out_tx,
        advance_rx,
    });
    if let Err(refusal) = enqueue(shared, job_tx, work) {
        return refusal;
    }
    jobs.insert(
        id,
        Job::Blocks(BlockState {
            plan,
            out_rx,
            advance_tx,
            watch,
            output: None,
        }),
    );
    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    finish_ok(ok_builder().field("job", id as usize))
}

/// Resumes a paused world-block job towards a new epoch target.
fn advance(id: u64, epochs: usize, finish: bool, jobs: &mut HashMap<u64, Job>) -> String {
    let Some(Job::Blocks(state)) = jobs.get_mut(&id) else {
        return unknown_job(id);
    };
    let done = match &state.output {
        Some(output) if !output.partials => output.epochs,
        _ => {
            return error_line(
                ErrorCode::BadRequest,
                &format!("world-block job {id} is not paused at an epoch checkpoint"),
            )
        }
    };
    if epochs < done || (epochs == done && !finish) || epochs > state.plan.num_epochs() {
        return error_line(
            ErrorCode::BadRequest,
            &format!(
                "job {id} paused after {done} of {} epochs; cannot advance to {epochs} \
                 (finish {finish})",
                state.plan.num_epochs()
            ),
        );
    }
    if state.advance_tx.send((epochs, finish)).is_err() {
        jobs.remove(&id);
        return error_line(ErrorCode::Internal, "the job's executor is gone");
    }
    state.output = None;
    finish_ok(
        ok_builder()
            .field("job", id as usize)
            .field("epochs", epochs),
    )
}

fn poll(
    id: u64,
    from: usize,
    max: usize,
    shared: &Arc<Shared>,
    jobs: &mut HashMap<u64, Job>,
) -> String {
    match jobs.get_mut(&id) {
        None => unknown_job(id),
        Some(Job::Ready { .. }) => {
            let Some(Job::Ready { plan, answers }) = jobs.remove(&id) else {
                unreachable!("entry checked above");
            };
            deliver(id, &plan, &answers, shared)
        }
        Some(Job::Blocks(state)) => {
            let (response, settled) = poll_blocks(id, from, max, state, shared);
            if settled {
                jobs.remove(&id);
            }
            response
        }
        Some(Job::Running { done_rx, .. }) => match done_rx.try_recv() {
            Err(TryRecvError::Empty) => {
                finish_ok(ok_builder().field("job", id as usize).field("done", false))
            }
            Err(TryRecvError::Disconnected) => {
                jobs.remove(&id);
                executor_gone(shared)
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
                let answers: Vec<Answer> = hits
                    .into_iter()
                    .map(|hit| {
                        hit.unwrap_or_else(|| {
                            Err(ServiceError::Internal(
                                "executor returned too few answers".to_string(),
                            ))
                        })
                    })
                    .collect();
                deliver(id, &plan, &answers, shared)
            }
        },
    }
}

fn executor_gone(shared: &Shared) -> String {
    if shared.stopping() {
        error_line(ErrorCode::ShuttingDown, "the server is shutting down")
    } else {
        error_line(ErrorCode::Internal, "the job's executor is gone")
    }
}

/// Polls a world-block job: `done: false` with the stream position while
/// the step runs, then pages of its output.  Returns the response and
/// whether the job is settled: the last page of a finished job's partials
/// delivers it (freeing its in-flight slot), and a failed job answers its
/// error once; a paused job stays until advanced or cancelled.
fn poll_blocks(
    id: u64,
    from: usize,
    max: usize,
    state: &mut BlockState,
    shared: &Arc<Shared>,
) -> (String, bool) {
    if state.output.is_none() {
        match state.out_rx.try_recv() {
            Err(TryRecvError::Empty) => {
                let running = ok_builder()
                    .field("job", id as usize)
                    .field("done", false)
                    .field("pos", state.watch.position());
                return (finish_ok(running), false);
            }
            Err(TryRecvError::Disconnected) => return (executor_gone(shared), true),
            Ok(Err(message)) => return (error_line(ErrorCode::Internal, &message), true),
            Ok(Ok(output)) => state.output = Some(output),
        }
    }
    let output = state.output.as_ref().expect("output stored above");
    let total = output.values.len();
    if from > total {
        let message = format!("page starts at {from}, past the output's {total} values");
        return (error_line(ErrorCode::BadRequest, &message), false);
    }
    // Written by hand rather than through the JSON builder: the values
    // string is plain ASCII that needs no escaping, and a page runs to
    // hundreds of kilobytes.
    let mut response = format!(
        "{{\"status\": \"ok\", \"job\": {id}, \"done\": true, \"epochs\": {}, \
         \"partials\": {}, \"total\": {total}, \"from\": {from}, \"values\": \"",
        output.epochs, output.partials
    );
    let end = render_page(&output.values, from, max, PAGE_BYTES, &mut response);
    response.push_str("\"}");
    let delivered = output.partials && end == total;
    if delivered {
        shared.jobs_delivered.fetch_add(1, Ordering::SeqCst);
    }
    (response, delivered)
}

/// Appends `values[from..]` to `out` as [`ugs_queries::partial`] entries,
/// at most `max` of them and — past the first — no more than `budget`
/// bytes; returns the index after the last value encoded.
fn render_page(values: &[f64], from: usize, max: usize, budget: usize, out: &mut String) -> usize {
    let base = out.len();
    let mut end = from;
    while end < values.len() && end - from < max {
        let before = out.len();
        if end > from {
            out.push(',');
        }
        encode_value(values[end], out);
        if end > from && out.len() - base > budget {
            out.truncate(before);
            break;
        }
        end += 1;
    }
    end
}

/// Renders a done-poll response, writing the report around the answers'
/// rendered results; delivery is exactly-once, freeing the job's in-flight
/// slot.
fn deliver(id: u64, plan: &QueryPlan, answers: &[Answer], shared: &Shared) -> String {
    shared.jobs_delivered.fetch_add(1, Ordering::SeqCst);
    // `report` is the response's last field: render the rest, then write
    // the report in before the closing brace.
    let mut response = finish_ok(ok_builder().field("job", id as usize).field("done", true));
    response.pop();
    response.push_str(",\"report\":");
    plan.write_report(&shared.graph_label(), answers, &mut response);
    response.push('}');
    response
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
