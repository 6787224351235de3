//! The world-block coordinator: splits a [`QueryPlan`]'s worlds into the
//! replay blocks the in-process driver uses, runs each fleet slot's blocks
//! on its worker through the `world_block` op, folds the returned partials
//! in block order, and degrades to typed errors — never a hang — when
//! workers die.

use std::sync::Arc;
use std::time::{Duration, Instant};

use minijson::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_queries::batch::BoxedObserver;
use ugs_queries::partial::decode_values;
use ugs_queries::variance::StoppingRule;
use ugs_queries::BlockPlan;
use ugs_server::LineClient;
use ugs_service::{mode_name, QueryAnswer, QueryPlan, QuerySpec, ServiceError};
use uncertain_graph::UncertainGraph;

use crate::fault::{FaultClock, FaultKind, FaultPlan};
use crate::recovery::{Failover, RecoveryReport, StandbyPool};

/// Failure-model knobs of a [`DistCoordinator`].
///
/// Every worker exchange runs under `timeout` (read *and* write).  A failed
/// exchange is retried up to `retries` times per worker per plan by
/// reconnecting and resubmitting the worker's job (the fresh job replays
/// the identical world stream), and a worker whose job stops advancing
/// through the stream for `stale_after` is treated as lost.  When a
/// worker's retry budget runs dry the coordinator **fails over**: the
/// first `standbys` address that validates (same graph fingerprint, the
/// lost worker's fleet slot) is promoted, consuming it from the pool and
/// re-arming the slot's retry budget — so the worst-case wait stays bounded
/// by `(standbys + 1) × (retries + 1)` failed exchanges per slot per plan.
/// Only when no standby validates does the plan degrade to
/// [`ServiceError::WorkerLost`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Per-request socket timeout, both directions (and the connect bound).
    pub timeout: Duration,
    /// Reconnect-and-resubmit attempts per worker per plan before the
    /// slot fails over (or, with no standby left, the plan degrades to
    /// [`ServiceError::WorkerLost`]).
    pub retries: usize,
    /// How long a running job's stream position may sit still before the
    /// stale-worker detector burns one retry.  A job that keeps advancing
    /// is never cut off, however long its blocks take.
    pub stale_after: Duration,
    /// Sleep between polling rounds when no worker delivered anything.
    pub poll_interval: Duration,
    /// Sleep after a failed exchange before the reconnect attempt — gives
    /// a supervisor's respawn (or a restarting host) time to re-bind
    /// instead of burning the whole retry budget in microseconds.
    pub reconnect_backoff: Duration,
    /// Standby worker addresses for failover; see [`crate::RecoveryReport`].
    /// Every standby must serve the same graph; its fleet slot is
    /// validated at promotion time.
    pub standbys: Vec<String>,
    /// Test/bench-only seeded fault injection over the coordinator's
    /// request path; see [`FaultPlan`].  `None` (the default) sends
    /// every exchange faithfully.
    pub faults: Option<FaultPlan>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            timeout: Duration::from_secs(10),
            retries: 2,
            stale_after: Duration::from_secs(30),
            poll_interval: Duration::from_millis(1),
            reconnect_backoff: Duration::from_millis(25),
            standbys: Vec::new(),
            faults: None,
        }
    }
}

/// One fleet worker: its address, its (possibly dropped) connection and
/// what is left of its retry budget for the current plan.
struct Worker {
    addr: String,
    client: Option<LineClient>,
    retries_left: usize,
}

/// The block of a finished job a lane is fetching: a pristine registry
/// being filled with the block's partials, then held until its fold.
struct Held {
    registry: Vec<BoxedObserver>,
    filled: usize,
    complete: bool,
}

/// One fleet slot's part in the running plan: its job on the worker and
/// what the coordinator has received of the job's current step.
struct Lane {
    slot: usize,
    /// Blocks this slot runs (`slot, slot + workers, …`).
    blocks: usize,
    /// The job's id on the live connection; `None` until (re)submitted.
    job: Option<u64>,
    /// The paused job must be advanced to the current step first.
    advance: bool,
    /// A done response of the current step has arrived.
    seen: bool,
    /// Adaptive checkpoint: the step's tracked statistics so far.
    stats: Vec<f64>,
    /// Partials: the next of the lane's blocks to fold, and its fetch.
    next_block: usize,
    held: Option<Held>,
    /// The finished job's last page was read (the worker dropped the job).
    drained: bool,
    /// Stale detector state while the job runs.
    last_pos: usize,
    last_gain: Instant,
}

impl Lane {
    fn new(slot: usize, blocks: usize) -> Lane {
        Lane {
            slot,
            blocks,
            job: None,
            advance: false,
            seen: false,
            stats: Vec::new(),
            next_block: 0,
            held: None,
            drained: false,
            last_pos: 0,
            last_gain: Instant::now(),
        }
    }

    /// Forgets everything of the current step that was not yet complete:
    /// the job is gone with its connection and will be resubmitted.
    fn reset(&mut self) {
        self.job = None;
        self.advance = false;
        self.seen = false;
        self.stats.clear();
        self.drained = false;
        if let Some(held) = self.held.as_mut().filter(|held| !held.complete) {
            held.filled = 0;
        }
        self.last_pos = 0;
        self.last_gain = Instant::now();
    }
}

/// What every `world_block` request of one plan shares: the valid
/// queries, the sampling mode, the batch seed and the block geometry.
struct JobSpec {
    queries: String,
    mode: &'static str,
    seed: u64,
    blocks: BlockPlan,
}

impl JobSpec {
    /// The request starting slot `slot`'s job of a `slots`-worker fleet.
    /// The seed travels as a decimal string: JSON numbers are f64.
    fn submit_line(&self, slot: usize, slots: usize, step: Step) -> String {
        format!(
            "{{\"op\": \"world_block\", \"queries\": {}, \"mode\": \"{}\", \
             \"seed\": \"{}\", \"worlds\": {}, \"epoch\": {}, \"blocks\": {}, \
             \"slot\": {slot}, \"slots\": {slots}, \"epochs\": {}, \"finish\": {}}}",
            self.queries,
            self.mode,
            self.seed,
            self.blocks.cap(),
            self.blocks.epoch(),
            self.blocks.blocks(),
            step.epochs,
            step.finish
        )
    }
}

/// The step every job is working towards: run `epochs` epochs, then pause
/// with the last epoch's statistics or (`finish`) export the partials.
#[derive(Debug, Clone, Copy)]
struct Step {
    epochs: usize,
    finish: bool,
}

/// The request a lane needs this round.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Submit,
    Advance,
    Poll(Asked),
}

/// What a poll asked for: the step's output, `total` values long, from
/// value `from`, at most `max` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    job: u64,
    epochs: usize,
    partials: bool,
    total: usize,
    from: usize,
    max: usize,
}

/// A decoded poll response.
#[derive(Debug, Clone, PartialEq)]
enum Polled {
    /// The step still runs; the job's stream position.
    Running(usize),
    /// A page of the step's output.
    Page(Vec<f64>),
}

/// Checks one poll response against the request it answers and decodes
/// its values.  Every mismatch or malformed field is a typed
/// [`ServiceError::Internal`] — never a panic — and nothing is allocated
/// from the response's own length claims: `total` must equal what the
/// coordinator computed from its own observers, and decoding stops at
/// `max` values.
fn decode_poll(response: &Value, asked: &Asked) -> Result<Polled, ServiceError> {
    let malformed =
        |why: String| ServiceError::Internal(format!("malformed world-block page: {why}"));
    if response.get_str("status") != Some("ok") {
        return Err(malformed(format!(
            "not an ok envelope: {}",
            response.render()
        )));
    }
    if response.get_usize("job") != Some(asked.job as usize) {
        return Err(malformed(format!(
            "answers job {:?}, asked {}",
            response.get("job"),
            asked.job
        )));
    }
    match response.get("done").and_then(Value::as_bool) {
        Some(false) => response
            .get_usize("pos")
            .map(Polled::Running)
            .ok_or_else(|| malformed("a running job without a position".to_string())),
        Some(true) => {
            let field = |name: &str| response.get_usize(name);
            if field("epochs") != Some(asked.epochs) {
                return Err(malformed(format!(
                    "covers {:?} epochs, asked {}",
                    field("epochs"),
                    asked.epochs
                )));
            }
            if response.get("partials").and_then(Value::as_bool) != Some(asked.partials) {
                return Err(malformed("the wrong kind of output".to_string()));
            }
            if field("total") != Some(asked.total) {
                return Err(malformed(format!(
                    "declares {:?} values, expected {}",
                    field("total"),
                    asked.total
                )));
            }
            if field("from") != Some(asked.from) {
                return Err(malformed(format!(
                    "starts at {:?}, asked {}",
                    field("from"),
                    asked.from
                )));
            }
            let text = response
                .get_str("values")
                .ok_or_else(|| malformed("no values string".to_string()))?;
            let mut values = Vec::new();
            for value in decode_values(text) {
                let value = value.map_err(|error| malformed(error.to_string()))?;
                if values.len() == asked.max {
                    return Err(malformed(format!(
                        "more than the {} values asked",
                        asked.max
                    )));
                }
                values.push(value);
            }
            if values.is_empty() && asked.from < asked.total {
                return Err(malformed("an empty page before the end".to_string()));
            }
            Ok(Polled::Page(values))
        }
        None => Err(malformed("no done flag".to_string())),
    }
}

/// Writes `values` into the partial vectors of `registry` (concatenated in
/// observer order), starting `offset` values in.
fn import_partials(registry: &mut [BoxedObserver], offset: usize, values: &[f64]) {
    let slots = registry
        .iter_mut()
        .flat_map(BoxedObserver::partial_mut)
        .skip(offset);
    for (slot, &value) in slots.zip(values) {
        *slot = value;
    }
}

/// The outcome of the sampling part of a plan: the folded registry and
/// the effort it reports.
struct Folded {
    registry: Vec<BoxedObserver>,
    worlds_used: usize,
    half_width: Option<f64>,
}

/// The adaptive part of a fleet run: the in-process stopping rule, fed in
/// block order.
struct Adaptive {
    rule: StoppingRule,
    started: Instant,
}

/// Drives a fleet of workers through [`QueryPlan`]s, resolving each plan
/// **bit-identically** to an in-process run of the same plan.
///
/// See the [crate docs](crate) for the protocol, the parity argument and
/// the failure model.
pub struct DistCoordinator {
    graph: Arc<UncertainGraph>,
    config: CoordinatorConfig,
    workers: Vec<Worker>,
    standbys: StandbyPool,
    faults: Option<FaultClock>,
    recovery: RecoveryReport,
    fingerprint: u64,
}

impl DistCoordinator {
    /// Connects to one worker per fleet slot (worker `k` must declare slot
    /// `k` of `addrs.len()`), validating that every worker serves the same
    /// graph (by fingerprint) under the matching slot.
    ///
    /// Fails with [`ServiceError::Policy`] without addresses, and with
    /// [`ServiceError::WorkerLost`] when a worker is unreachable or
    /// mis-configured and no standby validates in its place.
    pub fn connect(
        graph: impl Into<Arc<UncertainGraph>>,
        addrs: &[impl ToString],
        config: CoordinatorConfig,
    ) -> Result<DistCoordinator, ServiceError> {
        let graph = graph.into();
        if addrs.is_empty() {
            return Err(ServiceError::Policy(
                "a distributed coordinator needs at least one worker address".to_string(),
            ));
        }
        let fingerprint = graph.fingerprint();
        let retries = config.retries;
        let standbys = StandbyPool::new(config.standbys.clone());
        let faults = config
            .faults
            .clone()
            .filter(|plan| !plan.is_empty())
            .map(FaultClock::new);
        let mut coordinator = DistCoordinator {
            graph,
            workers: addrs
                .iter()
                .map(|addr| Worker {
                    addr: addr.to_string(),
                    client: None,
                    retries_left: retries,
                })
                .collect(),
            standbys,
            faults,
            recovery: RecoveryReport::default(),
            config,
            fingerprint,
        };
        for k in 0..coordinator.workers.len() {
            // A worker that is dead or mis-configured at connect fails over
            // immediately (promotion validates a standby); only an empty or
            // exhausted pool degrades to the typed error.
            match coordinator.open_client(k) {
                Ok(client) => coordinator.workers[k].client = Some(client),
                Err(why) => coordinator.promote(k, why)?,
            }
        }
        Ok(coordinator)
    }

    /// Cumulative recovery activity — retries burned and standby
    /// promotions — across this coordinator's lifetime.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Standby addresses not yet consumed by a promotion.
    pub fn standbys_left(&self) -> usize {
        self.standbys.len()
    }

    /// The graph label every report carries (same rendering as the server's).
    pub fn graph_label(&self) -> String {
        format!("fingerprint:{:016x}", self.fingerprint)
    }

    /// Executes a plan across the fleet; one outcome per query, in plan
    /// order.  Every answer — `worlds_used` and `half_width` included — is
    /// bit-identical to `plan.execute_detailed(graph)`, for every query
    /// kind: the fleet runs exactly the in-process world blocks and folds
    /// them in the in-process order.
    pub fn execute(&mut self, plan: &QueryPlan) -> Vec<Result<QueryAnswer, ServiceError>> {
        if let Some(refusal) = plan.shard_refusal(&self.graph) {
            return plan.refuse(refusal);
        }
        // Per-query validation, mirroring the in-process plan run: invalid
        // queries resolve individually, the valid remainder runs.
        let entries = plan.observers(&self.graph);
        let specs: Vec<&QuerySpec> = plan
            .queries
            .iter()
            .zip(&entries)
            .filter(|(_, entry)| entry.is_ok())
            .map(|(spec, _)| spec)
            .collect();
        let registry: Vec<BoxedObserver> = entries
            .iter()
            .filter_map(|entry| entry.as_ref().ok().cloned())
            .collect();
        let folded = if registry.is_empty() {
            Ok(Folded {
                registry,
                worlds_used: plan.worlds,
                half_width: None,
            })
        } else {
            self.run(plan, &specs, registry)
        };
        let folded = match folded {
            Ok(folded) => folded,
            Err(error) => {
                // A run abandoned mid-round may leave responses in flight on
                // live connections: close them all, so the next plan starts
                // on fresh, re-validated ones (the workers cancel the jobs).
                for worker in &mut self.workers {
                    worker.client = None;
                }
                return entries
                    .into_iter()
                    .map(|entry| entry.and(Err(error.clone())))
                    .collect();
            }
        };
        let mut finished = folded.registry.into_iter();
        let outputs = entries
            .into_iter()
            .map(|entry| {
                entry.map(|_| {
                    finished
                        .next()
                        .expect("one folded observer per valid query")
                        .finalize(folded.worlds_used)
                })
            })
            .collect();
        plan.answers(outputs, folded.worlds_used, folded.half_width)
    }

    /// Executes the plan and renders the same report envelope
    /// [`QueryPlan::run_report`] prints for an in-process run, with the
    /// graph labelled by fingerprint (byte-identical answers yield
    /// byte-identical reports).
    pub fn run_report(&mut self, plan: &QueryPlan) -> Value {
        let results = self.execute(plan);
        plan.report_for(&self.graph_label(), &results)
    }

    /// Drops every worker connection; the workers cancel this
    /// coordinator's jobs as their connections close.  (Dropping the
    /// coordinator does the same — this is the explicit spelling.)
    pub fn shutdown(self) {}

    /// Runs the sampling for the plan's valid queries, mirroring the
    /// in-process batch: no worlds (or a zero cap, or an expired deadline)
    /// means pristine observers and no seed draw; otherwise the batch seed
    /// is the first draw of `SmallRng::seed_from_u64(plan.seed)`.
    fn run(
        &mut self,
        plan: &QueryPlan,
        specs: &[&QuerySpec],
        registry: Vec<BoxedObserver>,
    ) -> Result<Folded, ServiceError> {
        if plan.worlds == 0 {
            return Ok(Folded {
                registry,
                worlds_used: 0,
                half_width: None,
            });
        }
        let mut adaptive = match plan.precision {
            None => None,
            Some(precision) => {
                let mut rule = StoppingRule::new(precision);
                for (lo, hi) in registry.iter().filter_map(BoxedObserver::tracked_range) {
                    rule.register(lo, hi);
                }
                let started = Instant::now();
                if precision.cap(plan.worlds) == 0 || rule.deadline_expired(started) {
                    return Ok(Folded {
                        registry,
                        worlds_used: 0,
                        half_width: Some(f64::INFINITY),
                    });
                }
                Some(Adaptive { rule, started })
            }
        };
        let blocks = match plan.precision {
            None => BlockPlan::fixed(plan.worlds, plan.threads),
            Some(precision) => {
                BlockPlan::adaptive(precision.cap(plan.worlds), precision.epoch, plan.threads)
            }
        };
        let job = JobSpec {
            queries: Value::Arr(specs.iter().map(|spec| spec.to_json()).collect()).render(),
            mode: mode_name(plan.mode),
            seed: SmallRng::seed_from_u64(plan.seed).gen::<u64>(),
            blocks,
        };
        let registry = self.run_blocks(&job, registry, adaptive.as_mut())?;
        Ok(match adaptive {
            None => Folded {
                registry,
                worlds_used: plan.worlds,
                half_width: None,
            },
            Some(adaptive) => Folded {
                registry,
                worlds_used: blocks.worlds_through(adaptive.rule.checks() as usize),
                half_width: Some(adaptive.rule.half_width()),
            },
        })
    }

    /// The fleet protocol for one plan.  Every round sends each lane the
    /// one request it needs — submit, advance or poll — to every worker
    /// before reading any response, then folds whatever completed: at an
    /// adaptive checkpoint, every block's statistics in block order into
    /// the stopping rule; once finished, each block's partial in block
    /// order into the result (block 0's partial becomes the result, later
    /// blocks `+=` into it through [`BoxedObserver::merge`], as in process).
    /// A lane fetches one block at a time, so at most one unfolded partial
    /// per worker is held.
    fn run_blocks(
        &mut self,
        job: &JobSpec,
        pristine: Vec<BoxedObserver>,
        mut adaptive: Option<&mut Adaptive>,
    ) -> Result<Vec<BoxedObserver>, ServiceError> {
        let blocks = &job.blocks;
        let workers = self.workers.len();
        for worker in &mut self.workers {
            worker.retries_left = self.config.retries;
        }
        let mut lanes: Vec<Lane> = (0..workers.min(blocks.blocks()))
            .map(|slot| Lane::new(slot, blocks.slot_blocks(slot, workers)))
            .collect();
        let partial_len: usize = pristine
            .iter()
            .map(|observer| observer.partial().len())
            .sum();
        let tracked = adaptive.as_ref().map_or(0, |a| a.rule.num_tracked());
        let mut step = Step {
            epochs: 1,
            finish: adaptive.is_none(),
        };
        let mut merged: Option<Vec<BoxedObserver>> = None;
        let mut next_fold = 0;
        while next_fold < blocks.blocks() {
            // Stats a lane owes for the checkpoint after `step.epochs`.
            let stats_len = |lane: &Lane| -> usize {
                (0..lane.blocks)
                    .map(|i| {
                        blocks
                            .block_range(step.epochs - 1, lane.slot + i * workers)
                            .len()
                    })
                    .sum::<usize>()
                    * tracked
            };
            // 1. Decide and send every lane's request.
            let mut sent: Vec<(usize, Ask)> = Vec::new();
            for (index, lane) in lanes.iter_mut().enumerate() {
                let ask = match (lane.job, lane.advance) {
                    (None, _) => Ask::Submit,
                    (Some(_), true) => Ask::Advance,
                    (Some(job), false) => {
                        let asked = |total: usize, from: usize, max: usize| Asked {
                            job,
                            epochs: step.epochs,
                            partials: step.finish,
                            total,
                            from,
                            max: max.max(1),
                        };
                        if !step.finish {
                            let need = stats_len(lane);
                            if lane.seen && lane.stats.len() == need {
                                continue;
                            }
                            Ask::Poll(asked(need, lane.stats.len(), need - lane.stats.len()))
                        } else if partial_len == 0 {
                            if lane.drained {
                                continue;
                            }
                            Ask::Poll(asked(0, 0, 1))
                        } else {
                            if lane.next_block >= lane.blocks {
                                continue;
                            }
                            let held = lane.held.get_or_insert_with(|| Held {
                                registry: pristine.clone(),
                                filled: 0,
                                complete: false,
                            });
                            if held.complete {
                                continue;
                            }
                            Ask::Poll(asked(
                                lane.blocks * partial_len,
                                lane.next_block * partial_len + held.filled,
                                partial_len - held.filled,
                            ))
                        }
                    }
                };
                let line = match ask {
                    Ask::Submit => job.submit_line(lane.slot, workers, step),
                    Ask::Advance => format!(
                        "{{\"op\": \"world_block\", \"job\": {}, \"epochs\": {}, \"finish\": {}}}",
                        lane.job.expect("advance needs a job"),
                        step.epochs,
                        step.finish
                    ),
                    Ask::Poll(asked) => format!(
                        "{{\"op\": \"poll\", \"job\": {}, \"from\": {}, \"max\": {}}}",
                        asked.job, asked.from, asked.max
                    ),
                };
                match self.send(lane.slot, &line) {
                    Ok(()) => sent.push((index, ask)),
                    Err(why) => {
                        self.fail_worker(lane.slot, &why)?;
                        lane.reset();
                    }
                }
            }
            // 2. Read every response, in send order.
            let mut progressed = false;
            for (index, ask) in sent {
                let lane = &mut lanes[index];
                let outcome = self
                    .receive(lane.slot)
                    .and_then(|response| Self::absorb(lane, ask, &response, &mut progressed));
                match outcome {
                    Ok(()) => {
                        if lane.last_gain.elapsed() > self.config.stale_after {
                            let why = "its job stopped advancing through the world stream";
                            self.fail_worker(lane.slot, why)?;
                            lane.reset();
                        }
                    }
                    Err(Refusal::Plan(why)) => return Err(ServiceError::Policy(why)),
                    Err(Refusal::Failed(why)) => {
                        self.fail_worker(lane.slot, &why)?;
                        lane.reset();
                    }
                }
            }
            // 3. Fold what completed, in block order.
            if !step.finish {
                let need: Vec<usize> = lanes.iter().map(stats_len).collect();
                let ready = lanes
                    .iter()
                    .zip(&need)
                    .all(|(lane, &need)| lane.seen && lane.stats.len() == need);
                if ready {
                    let adaptive = adaptive.as_deref_mut().expect("checkpoints are adaptive");
                    let mut cursors = vec![0usize; lanes.len()];
                    for block in 0..blocks.blocks() {
                        let lane = block % workers;
                        let len = blocks.block_range(step.epochs - 1, block).len() * tracked;
                        let stats = &lanes[lane].stats[cursors[lane]..cursors[lane] + len];
                        adaptive.rule.record_worlds(stats);
                        cursors[lane] += len;
                    }
                    let worlds = blocks.worlds_through(step.epochs);
                    match adaptive
                        .rule
                        .checkpoint(worlds, blocks.cap(), adaptive.started, None)
                    {
                        None => step.epochs += 1,
                        Some(_) => step.finish = true,
                    }
                    for lane in &mut lanes {
                        lane.stats.clear();
                        lane.seen = false;
                        lane.advance = lane.job.is_some();
                    }
                    progressed = true;
                }
            } else {
                while next_fold < blocks.blocks() {
                    let lane = &mut lanes[next_fold % workers];
                    debug_assert_eq!(lane.next_block, next_fold / workers);
                    let registry = if partial_len == 0 {
                        if !lane.drained {
                            break;
                        }
                        pristine.clone()
                    } else {
                        match lane.held.take() {
                            Some(held) if held.complete => held.registry,
                            other => {
                                lane.held = other;
                                break;
                            }
                        }
                    };
                    lane.next_block += 1;
                    match merged.as_mut() {
                        None => merged = Some(registry),
                        Some(merged) => {
                            for (into, other) in merged.iter_mut().zip(registry) {
                                into.merge(other);
                            }
                        }
                    }
                    next_fold += 1;
                    progressed = true;
                }
            }
            if !progressed && next_fold < blocks.blocks() {
                std::thread::sleep(self.config.poll_interval);
            }
        }
        Ok(merged.expect("a plan with worlds has at least one block"))
    }

    /// Applies one response to its lane.
    fn absorb(
        lane: &mut Lane,
        ask: Ask,
        response: &Value,
        progressed: &mut bool,
    ) -> Result<(), Refusal> {
        match ask {
            Ask::Submit => {
                let job = response.get_usize("job").ok_or_else(|| {
                    Refusal::Failed(format!("world_block answered {}", response.render()))
                })?;
                lane.job = Some(job as u64);
                lane.last_gain = Instant::now();
                *progressed = true;
            }
            Ask::Advance => {
                lane.advance = false;
                lane.last_gain = Instant::now();
                *progressed = true;
            }
            Ask::Poll(asked) => match decode_poll(response, &asked) {
                Err(error) => return Err(Refusal::Failed(error.to_string())),
                Ok(Polled::Running(pos)) => {
                    if pos > lane.last_pos {
                        lane.last_pos = pos;
                        lane.last_gain = Instant::now();
                    }
                }
                Ok(Polled::Page(values)) => {
                    lane.seen = true;
                    lane.last_gain = Instant::now();
                    *progressed = true;
                    if asked.from + values.len() == asked.total && asked.partials {
                        lane.drained = true;
                    }
                    if !asked.partials {
                        lane.stats.extend_from_slice(&values);
                    } else if let Some(held) = lane.held.as_mut() {
                        // The poll asked for the rest of the block.
                        let block_len = held.filled + asked.max;
                        import_partials(&mut held.registry, held.filled, &values);
                        held.filled += values.len();
                        held.complete = held.filled == block_len;
                    }
                }
            },
        }
        Ok(())
    }

    /// Sends one request to worker `k` without waiting for the response.
    /// This is the coordinator-side fault injection seam: an armed
    /// [`CoordinatorConfig::faults`] clock ticks once per request and may
    /// misbehave instead — every injected failure then flows through the
    /// ordinary retry/failover model like a real one.
    fn send(&mut self, k: usize, line: &str) -> Result<(), String> {
        if self.workers[k].client.is_none() {
            let client = self.open_client(k)?;
            self.workers[k].client = Some(client);
        }
        let line = match crate::fault::verdict(self.faults.as_ref()) {
            None => line,
            Some(FaultKind::Delay) => {
                let delay = self.faults.as_ref().expect("delay needs a clock").delay();
                std::thread::sleep(delay);
                line
            }
            Some(FaultKind::Drop) => {
                self.workers[k].client = None;
                return Err("injected fault: request dropped".to_string());
            }
            Some(FaultKind::Disconnect) => {
                self.workers[k].client = None;
                return Err("injected fault: connection torn down".to_string());
            }
            // The worker answers a garbled request with a typed
            // `bad_request` — reported like any error envelope.
            Some(FaultKind::Garble) => "#!garbled<injected-request>",
        };
        let client = self.workers[k]
            .client
            .as_mut()
            .ok_or_else(|| "connection closed".to_string())?;
        client.send(line).map_err(|error| error.to_string())
    }

    /// Reads worker `k`'s next response.  An error envelope is a failure,
    /// except a `plan` refusal: the worker rejected a well-formed job as
    /// over its bounds, which no retry can change.
    fn receive(&mut self, k: usize) -> Result<Value, Refusal> {
        let client = self.workers[k]
            .client
            .as_mut()
            .ok_or_else(|| Refusal::Failed("connection closed".to_string()))?;
        let response = client
            .receive()
            .map_err(|error| Refusal::Failed(error.to_string()))?;
        match response.get_str("status") {
            Some("ok") => Ok(response),
            _ if response.get_str("code") == Some("plan") => Err(Refusal::Plan(format!(
                "shard {k} worker refused the world blocks: {}",
                response.get_str("message").unwrap_or("no message")
            ))),
            _ => Err(Refusal::Failed(format!(
                "worker answered {}",
                response.render()
            ))),
        }
    }

    /// Records one failed exchange with worker `k`: drops its connection
    /// (the next request reconnects and resubmits) and burns one retry;
    /// an exhausted budget fails the slot over to a standby, and only
    /// when no standby validates does the plan degrade to the typed
    /// [`ServiceError::WorkerLost`].
    fn fail_worker(&mut self, k: usize, why: &str) -> Result<(), ServiceError> {
        let worker = &mut self.workers[k];
        worker.client = None;
        if worker.retries_left == 0 {
            let exhausted = format!(
                "shard {k} worker at {}: {why} (retries exhausted)",
                worker.addr
            );
            return self.promote(k, exhausted);
        }
        worker.retries_left -= 1;
        self.recovery.retries_burned += 1;
        if !self.config.reconnect_backoff.is_zero() {
            std::thread::sleep(self.config.reconnect_backoff);
        }
        Ok(())
    }

    /// Fails slot `k` over to the first standby that validates: the
    /// candidate must serve the same graph under slot `k`'s role.  The
    /// lane then resubmits its job to it, which replays the identical
    /// world stream from world 0 (see [`crate::recovery`]).  A promoted
    /// (or failed) candidate is consumed from the pool; promotion re-arms
    /// the slot's retry budget.
    ///
    /// `trail` carries the failure story so far; candidates that do not
    /// validate append to it, and the terminal
    /// [`ServiceError::WorkerLost`] reports the whole chain.
    fn promote(&mut self, k: usize, trail: String) -> Result<(), ServiceError> {
        let mut trail = trail;
        for addr in self.standbys.candidates() {
            self.standbys.remove(&addr);
            let client = match self.open_client_to(k, &addr) {
                Ok(client) => client,
                Err(why) => {
                    trail = format!("{trail}; standby {why}");
                    continue;
                }
            };
            let retries = self.config.retries;
            let worker = &mut self.workers[k];
            let from = std::mem::replace(&mut worker.addr, addr.clone());
            worker.client = Some(client);
            worker.retries_left = retries;
            self.recovery.failovers.push(Failover {
                shard: k,
                from,
                to: addr,
            });
            return Ok(());
        }
        Err(ServiceError::WorkerLost(trail))
    }

    /// Opens and validates a connection to worker `k`'s current address.
    fn open_client(&self, k: usize) -> Result<LineClient, String> {
        let addr = self.workers[k].addr.clone();
        self.open_client_to(k, &addr)
    }

    /// Opens and validates a connection for slot `k` at `addr`: connect
    /// bounded by the timeout, timeouts armed both directions, graph
    /// fingerprint and fleet slot checked via `stats`.
    fn open_client_to(&self, k: usize, addr: &str) -> Result<LineClient, String> {
        let describe = |why: String| format!("shard {k} worker at {addr}: {why}");
        let mut client = LineClient::connect_timeout(addr, self.config.timeout)
            .map_err(|error| describe(error.to_string()))?;
        client
            .set_read_timeout(Some(self.config.timeout))
            .and_then(|()| client.set_write_timeout(Some(self.config.timeout)))
            .map_err(|error| describe(error.to_string()))?;
        let stats = client
            .request("{\"op\": \"stats\"}")
            .map_err(|error| describe(error.to_string()))?;
        if stats.get_str("status") != Some("ok") {
            return Err(describe(format!("stats answered {}", stats.render())));
        }
        let label = self.graph_label();
        if stats.get_str("graph") != Some(label.as_str()) {
            return Err(describe(format!(
                "serves graph {:?}, expected {label}",
                stats.get_str("graph").unwrap_or("<missing>")
            )));
        }
        let role = stats.get("shard").ok_or_else(|| {
            describe("declares no fleet slot (start it with --shard)".to_string())
        })?;
        let (have_shard, have_shards) = (role.get_usize("shard"), role.get_usize("shards"));
        if have_shard != Some(k) || have_shards != Some(self.workers.len()) {
            return Err(describe(format!(
                "serves shard {have_shard:?} of {have_shards:?}, expected shard {k} of {}",
                self.workers.len()
            )));
        }
        Ok(client)
    }
}

/// Why an exchange did not deliver what was asked.
enum Refusal {
    /// Transport or protocol failure: burn a retry and resubmit.
    Failed(String),
    /// The worker refused the job as such (`plan` error code).
    Plan(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asked() -> Asked {
        Asked {
            job: 3,
            epochs: 2,
            partials: true,
            total: 10,
            from: 4,
            max: 6,
        }
    }

    fn page(values: &str) -> String {
        format!(
            r#"{{"status": "ok", "job": 3, "done": true, "epochs": 2, "partials": true,
                "total": 10, "from": 4, "values": "{values}"}}"#
        )
    }

    #[test]
    fn well_formed_pages_decode_exactly() {
        let response = Value::parse(&page("0,7,x8000000000000000,x7ff8000000000001")).unwrap();
        match decode_poll(&response, &asked()).unwrap() {
            Polled::Page(values) => {
                let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits,
                    [
                        0,
                        7.0f64.to_bits(),
                        0x8000_0000_0000_0000,
                        0x7ff8_0000_0000_0001
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let running =
            Value::parse(r#"{"status": "ok", "job": 3, "done": false, "pos": 12}"#).unwrap();
        assert_eq!(
            decode_poll(&running, &asked()).unwrap(),
            Polled::Running(12)
        );
    }

    #[test]
    fn a_declared_length_of_ten_to_the_twelve_allocates_nothing() {
        // The coordinator's own observers fix the length: a response that
        // declares 10^12 values is a mismatch, not an allocation.
        let huge = page("1,2").replace(r#""total": 10"#, r#""total": 1000000000000"#);
        let error = decode_poll(&Value::parse(&huge).unwrap(), &asked()).unwrap_err();
        assert!(matches!(error, ServiceError::Internal(_)), "{error:?}");
        // Even when the coordinator itself expects that many, decoding only
        // ever holds the values actually sent.
        let expected = Asked {
            total: 1_000_000_000_000,
            max: usize::MAX,
            ..asked()
        };
        match decode_poll(&Value::parse(&huge).unwrap(), &expected).unwrap() {
            Polled::Page(values) => assert_eq!(values, [1.0, 2.0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn seeded_mutations_of_worker_responses_are_typed_errors_never_panics() {
        let valid = [
            page("0,1,2,3,4,x3fe0000000000000"),
            r#"{"status": "ok", "job": 3, "done": false, "pos": 12}"#.to_string(),
        ];
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        let (mut typed, mut decoded) = (0, 0);
        for round in 0..10_000 {
            let mut bytes = valid[round % valid.len()].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4) {
                if bytes.is_empty() {
                    bytes.push(b'{');
                }
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..4) {
                    0 => bytes[at] = rng.gen::<u8>(),
                    1 => bytes.insert(at, b"0123456789x,\"-.e"[rng.gen_range(0..16usize)]),
                    2 => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at.max(1)),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            // A line that no longer parses never reaches the decoder: the
            // client reports it as a transport failure.
            let Ok(response) = Value::parse(&text) else {
                continue;
            };
            match decode_poll(&response, &asked()) {
                Ok(Polled::Page(values)) => {
                    assert!(values.len() <= asked().max);
                    decoded += 1;
                }
                Ok(Polled::Running(_)) => decoded += 1,
                Err(ServiceError::Internal(_)) => typed += 1,
                Err(other) => panic!("untyped decode failure {other:?}"),
            }
        }
        assert!(
            typed > 100 && decoded > 0,
            "typed {typed}, decoded {decoded}"
        );
    }

    #[test]
    fn imported_partials_overwrite_from_the_offset_across_observers() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let spec = |json: &str| {
            QuerySpec::parse_str(json)
                .unwrap()
                .make_observer(&g)
                .unwrap()
        };
        // Edge frequency (2 values) then degree histogram (3 values).
        let mut registry = vec![
            spec(r#"{"type": "edge_frequency"}"#),
            spec(r#"{"type": "degree_histogram"}"#),
        ];
        import_partials(&mut registry, 1, &[-0.0, 4.0, 5.0]);
        assert_eq!(registry[0].partial()[0].to_bits(), 0);
        assert_eq!(registry[0].partial()[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(registry[1].partial(), [4.0, 5.0, 0.0]);
    }
}
