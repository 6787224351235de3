//! The boundary-exchange coordinator: drives a fleet of `ugs serve --shard`
//! worker processes through one [`QueryPlan`], glues their per-world
//! boundary messages into global answers, and degrades to typed errors —
//! never a hang — when workers die.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graph_algos::pagerank::PageRankConfig;
use minijson::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_queries::batch::WorldObserver;
use ugs_queries::boundary::{glue_records, GluedWorld, ShardWorldRecord};
use ugs_queries::halo::{
    decode_level, decode_rank, encode_level, encode_rank, f64_from_hex, f64_to_hex,
};
use ugs_queries::variance::{Precision, StoppingRule};
use ugs_queries::{ClusteringObserver, KnnObserver, PageRankObserver};
use ugs_server::protocol::DEFAULT_BOUNDARY_PAGE;
use ugs_server::LineClient;
use ugs_service::{mode_name, QueryAnswer, QueryPlan, QueryResult, QuerySpec, ServiceError};
use uncertain_graph::{GraphPartition, HaloPlan, UncertainGraph};

use crate::fault::{FaultClock, FaultKind, FaultPlan};
use crate::merge::{block_owner, ConnAccumulator, FreqAccumulator, HistAccumulator};
use crate::recovery::{Failover, RecoveryReport, StandbyPool};

/// One shard's `(degree_histogram, intra_edge_presence)` cross-world
/// aggregates, as returned by `shard_result`.
type ShardAggregates = (Vec<u64>, Vec<u64>);

/// Ghost-rank entries per `feed` line.  Each entry is at most ~31 bytes
/// on the wire, so a chunk stays around 250 KiB — comfortably inside the
/// worker's default 1 MiB request-line bound even for hub shards whose
/// halo spans most of the graph.
const FEED_CHUNK_ENTRIES: usize = 8_192;

/// Failure-model knobs of a [`DistCoordinator`].
///
/// Every worker exchange runs under `timeout` (read *and* write), a failed
/// exchange is retried up to `retries` times per worker per plan by
/// reconnecting and resubmitting (the fresh job deterministically resamples
/// the identical world stream), and a worker whose sampling position stops
/// advancing for `stale_after` while the coordinator still needs its records
/// is treated as lost.  When a worker's retry budget runs dry the
/// coordinator **fails over**: the first `standbys` address that validates
/// (same graph fingerprint, the lost shard's role) is promoted, consuming
/// it from the pool and re-arming the shard's retry budget — so the
/// worst-case wait stays bounded by `(standbys + 1) × (retries + 1)`
/// exchanges per shard per plan.  Only when no standby validates does the
/// plan degrade to [`ServiceError::WorkerLost`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Per-request socket timeout, both directions (and the connect bound).
    pub timeout: Duration,
    /// Reconnect-and-resubmit attempts per worker per plan before the
    /// shard fails over (or, with no standby left, the plan degrades to
    /// [`ServiceError::WorkerLost`]).
    pub retries: usize,
    /// How long a worker's `pos` may sit still (while records are needed)
    /// before the stale-worker detector burns one retry.
    pub stale_after: Duration,
    /// Sleep between progress probes when no worker has new records.
    pub poll_interval: Duration,
    /// Sleep after a failed exchange before the reconnect attempt — gives
    /// a supervisor's respawn (or a restarting host) time to re-bind
    /// instead of burning the whole retry budget in microseconds.
    pub reconnect_backoff: Duration,
    /// Standby worker addresses for failover; see [`crate::recovery`].
    /// Every standby must serve the same graph; its shard role is
    /// validated at promotion time.
    pub standbys: Vec<String>,
    /// Test/bench-only seeded fault injection over the coordinator's
    /// request path; see [`crate::fault`].  `None` (the default) sends
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

/// The immutable identity of one in-flight distributed sampling job: a
/// resubmission (after a reconnect, or to raise an adaptive target) must
/// repeat every field except the world target.
#[derive(Debug, Clone)]
struct JobParams {
    token: String,
    seed: u64,
    mode: &'static str,
    target: usize,
}

/// One shard worker: its address, its (possibly dropped) connection, and
/// the pager state of the current job.
struct Worker {
    addr: String,
    client: Option<LineClient>,
    retries_left: usize,
    /// Boundary records received so far for the current job (consumed ones
    /// plus the buffered tail) — the `from` cursor of the next page.
    received: usize,
    buffer: VecDeque<ShardWorldRecord>,
    /// Worker-reported sampling position, for the stale detector.
    last_pos: usize,
    last_gain: Instant,
}

/// Coordinator-side accumulator for one validated query of the plan.
enum Slot {
    Connectivity(ConnAccumulator),
    DegreeHistogram(HistAccumulator),
    EdgeFrequency(FreqAccumulator),
}

impl Slot {
    fn for_spec(spec: &QuerySpec, graph: &UncertainGraph, blocks: usize) -> Slot {
        match spec {
            QuerySpec::Connectivity => {
                Slot::Connectivity(ConnAccumulator::new(graph.num_vertices(), blocks))
            }
            QuerySpec::DegreeHistogram => Slot::DegreeHistogram(HistAccumulator::new(graph)),
            QuerySpec::EdgeFrequency => {
                Slot::EdgeFrequency(FreqAccumulator::new(graph.num_edges()))
            }
            other => unreachable!("spec {} has no distributed slot", other.kind()),
        }
    }

    fn tracked_range(&self) -> Option<(f64, f64)> {
        match self {
            Slot::Connectivity(acc) => acc.tracked_range(),
            Slot::EdgeFrequency(acc) => acc.tracked_range(),
            Slot::DegreeHistogram(_) => None,
        }
    }

    /// The per-world increments of the matching observer.
    fn observe(&mut self, block: usize, partition: &GraphPartition, world: &GluedWorld) {
        match self {
            Slot::Connectivity(acc) => acc.observe(block, world),
            Slot::EdgeFrequency(acc) => acc.observe(partition, world),
            Slot::DegreeHistogram(_) => {} // filled from worker aggregates
        }
    }

    /// The tracked statistic of the world just observed — the same scalar
    /// the in-process observer hands the stopping rule.
    fn statistic(&self, world: &GluedWorld, records: &[ShardWorldRecord], num_edges: usize) -> f64 {
        match self {
            Slot::Connectivity(_) => f64::from(world.num_components == 1),
            Slot::EdgeFrequency(_) => {
                let present: usize = records
                    .iter()
                    .map(|record| record.intra_present as usize)
                    .sum::<usize>()
                    + world.present_cuts.len();
                present as f64 / num_edges as f64
            }
            Slot::DegreeHistogram(_) => unreachable!("degree histogram is untracked"),
        }
    }

    fn finalize(self, num_worlds: usize) -> QueryResult {
        match self {
            Slot::Connectivity(acc) => QueryResult::Connectivity(acc.finalize(num_worlds)),
            Slot::DegreeHistogram(acc) => QueryResult::DegreeHistogram(acc.finalize(num_worlds)),
            Slot::EdgeFrequency(acc) => QueryResult::EdgeFrequency(acc.finalize(num_worlds)),
        }
    }
}

/// Coordinator-side driver state for one ghost-halo query of the plan:
/// the kernel parameters plus one observer per world block (the same
/// block-ascending merge order the in-process threaded driver uses, so the
/// accumulated `f64` sums match bitwise).
enum HaloSlot {
    PageRank {
        index: usize,
        config: PageRankConfig,
        blocks: Vec<PageRankObserver>,
    },
    Clustering {
        index: usize,
        blocks: Vec<ClusteringObserver>,
    },
    Knn {
        index: usize,
        source: usize,
        blocks: Vec<KnnObserver>,
    },
}

/// Merges per-block observers in ascending block order — the identical
/// fold the in-process driver performs after its worker threads join.
fn merge_blocks<O: WorldObserver>(blocks: Vec<O>) -> O {
    let mut blocks = blocks.into_iter();
    let mut merged = blocks.next().expect("at least one world block");
    for other in blocks {
        merged.merge(other);
    }
    merged
}

impl HaloSlot {
    fn for_spec(spec: &QuerySpec, index: usize, graph: &UncertainGraph, blocks: usize) -> HaloSlot {
        match spec {
            QuerySpec::PageRank {
                damping,
                max_iterations,
                tolerance,
            } => {
                let config = PageRankConfig {
                    damping: *damping,
                    max_iterations: *max_iterations,
                    tolerance: *tolerance,
                };
                HaloSlot::PageRank {
                    index,
                    config,
                    blocks: (0..blocks)
                        .map(|_| PageRankObserver::with_config(graph, config))
                        .collect(),
                }
            }
            QuerySpec::Clustering => HaloSlot::Clustering {
                index,
                blocks: (0..blocks)
                    .map(|_| ClusteringObserver::new(graph))
                    .collect(),
            },
            QuerySpec::Knn { source, k } => HaloSlot::Knn {
                index,
                source: *source,
                blocks: (0..blocks)
                    .map(|_| KnnObserver::new(graph, *source, *k))
                    .collect(),
            },
            other => unreachable!("spec {} has no halo driver", other.kind()),
        }
    }

    /// The plan position of this query — names the worker session token, so
    /// two queries of the same kind never share superstep state.
    fn index(&self) -> usize {
        match self {
            HaloSlot::PageRank { index, .. }
            | HaloSlot::Clustering { index, .. }
            | HaloSlot::Knn { index, .. } => *index,
        }
    }

    /// The kernel object every `halo` line of this query carries.  The
    /// damping factor travels as IEEE-754 bits so the worker runs exactly
    /// the coordinator's parameters.
    fn kernel_json(&self) -> String {
        match self {
            HaloSlot::PageRank { config, .. } => format!(
                r#"{{"type": "pagerank", "damping": "{}"}}"#,
                f64_to_hex(config.damping)
            ),
            HaloSlot::Clustering { .. } => r#"{"type": "clustering"}"#.to_string(),
            HaloSlot::Knn { source, .. } => format!(r#"{{"type": "bfs", "source": {source}}}"#),
        }
    }

    fn finalize(self, num_worlds: usize) -> QueryResult {
        match self {
            HaloSlot::PageRank { blocks, .. } => {
                QueryResult::PageRank(merge_blocks(blocks).finalize(num_worlds))
            }
            HaloSlot::Clustering { blocks, .. } => {
                QueryResult::Clustering(merge_blocks(blocks).finalize(num_worlds))
            }
            HaloSlot::Knn { blocks, .. } => {
                QueryResult::Knn(merge_blocks(blocks).finalize(num_worlds))
            }
        }
    }
}

/// The immutable wire identity of one halo query's sessions: every `halo`
/// line repeats it verbatim, so a freshly promoted standby can rebuild the
/// session from whatever line reaches it first.
struct HaloCtx {
    token: String,
    seed: u64,
    mode: &'static str,
    kernel: String,
}

/// Which execution path a validly placed query runs on.
#[derive(Clone, Copy)]
enum Placed {
    /// Boundary-exchange aggregate (connectivity, histogram, frequency).
    Aggregate,
    /// Ghost-halo superstep exchange (pagerank, clustering, k-NN).
    Halo,
}

/// Validates one paged halo window: `values` must be strings, `from` must
/// match the cursor we asked for, `total` must be present.  Returns the
/// window's entries and the report's total size.
fn halo_window(response: &Value, expect_from: usize) -> Result<(Vec<String>, usize), String> {
    let total = response
        .get_usize("total")
        .ok_or_else(|| format!("halo window without a total: {}", response.render()))?;
    let from = response
        .get_usize("from")
        .ok_or_else(|| format!("halo window without a cursor: {}", response.render()))?;
    if from != expect_from {
        return Err(format!(
            "halo window starts at {from}, expected {expect_from}"
        ));
    }
    let entries = response
        .get("values")
        .and_then(|value| value.as_array())
        .ok_or_else(|| format!("halo window without values: {}", response.render()))?
        .iter()
        .map(|entry| entry.as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| "halo window carries non-string values".to_string())?;
    Ok((entries, total))
}

/// Drives a fleet of shard workers through [`QueryPlan`]s, resolving each
/// plan **bit-identically** to an in-process run of the same plan.
///
/// See the [crate docs](crate) for the protocol, the parity argument and
/// the failure model.
pub struct DistCoordinator {
    graph: Arc<UncertainGraph>,
    partition: Arc<GraphPartition>,
    /// Per-shard ghost layout, built lazily on the first halo query (the
    /// coordinator only needs the ghost lists and boundary routing; workers
    /// derive the same plan from the same partition).
    halo: Option<Arc<HaloPlan>>,
    config: CoordinatorConfig,
    workers: Vec<Worker>,
    standbys: StandbyPool,
    faults: Option<FaultClock>,
    recovery: RecoveryReport,
    fingerprint: u64,
    next_token: u64,
    job: Option<JobParams>,
}

impl DistCoordinator {
    /// Connects to one worker per shard (worker `k` must serve shard `k` of
    /// `addrs.len()`), validating that every worker serves the same graph
    /// (by fingerprint) under the matching shard role.
    ///
    /// Fails with [`ServiceError::Policy`] when the graph cannot be
    /// partitioned into `addrs.len()` shards, and with
    /// [`ServiceError::WorkerLost`] when a worker is unreachable or
    /// mis-configured.
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
        let partition = GraphPartition::contiguous(&graph, addrs.len())
            .map_err(|error| ServiceError::Policy(error.to_string()))?;
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
            partition: Arc::new(partition),
            halo: None,
            workers: addrs
                .iter()
                .map(|addr| Worker {
                    addr: addr.to_string(),
                    client: None,
                    retries_left: retries,
                    received: 0,
                    buffer: VecDeque::new(),
                    last_pos: 0,
                    last_gain: Instant::now(),
                })
                .collect(),
            standbys,
            faults,
            recovery: RecoveryReport::default(),
            config,
            fingerprint,
            next_token: 0,
            job: None,
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

    /// Number of shard workers (= shards of the partition).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
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

    /// The fingerprint of the coordinated graph.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The graph label every report carries (same rendering as the server's).
    pub fn graph_label(&self) -> String {
        format!("fingerprint:{:016x}", self.fingerprint)
    }

    /// Executes a plan across the fleet; one outcome per query, in plan
    /// order.  Bit-identical to `plan.execute_detailed(graph)` for the
    /// distributed-aggregate queries (`connectivity`, `degree_histogram`,
    /// `edge_frequency` — glued from boundary records) **and** for the
    /// ghost-halo queries (`pagerank`, `clustering`, `knn` — driven as
    /// supersteps over the workers' halo sessions, exchanging values as
    /// IEEE-754 bit patterns).  Only `pair_queries` has no distributed
    /// path and resolves with a typed [`ServiceError::Policy`].
    pub fn execute(&mut self, plan: &QueryPlan) -> Vec<Result<QueryAnswer, ServiceError>> {
        let shards = self.workers.len();
        // Per-query validation, mirroring the in-process plan run: invalid
        // queries resolve individually, the valid remainder runs.
        let mut slots: Vec<Slot> = Vec::new();
        let mut halos: Vec<HaloSlot> = Vec::new();
        let worlds = plan.worlds;
        let cap = match plan.precision {
            Some(precision) => precision.cap(worlds),
            None => worlds,
        };
        let blocks = plan.threads.max(1).clamp(1, cap.max(1));
        let placed: Vec<Result<Placed, ServiceError>> = plan
            .queries
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                spec.validate_sharded(&self.graph, shards)
                    .map_err(ServiceError::Spec)
                    .and_then(|()| match spec {
                        QuerySpec::Connectivity
                        | QuerySpec::DegreeHistogram
                        | QuerySpec::EdgeFrequency => {
                            slots.push(Slot::for_spec(spec, &self.graph, blocks));
                            Ok(Placed::Aggregate)
                        }
                        QuerySpec::PageRank { .. }
                        | QuerySpec::Clustering
                        | QuerySpec::Knn { .. } => {
                            halos.push(HaloSlot::for_spec(spec, index, &self.graph, blocks));
                            Ok(Placed::Halo)
                        }
                        QuerySpec::PairQueries { .. } => Err(ServiceError::Policy(
                            "pair_queries has no distributed execution path: its cut-corrected \
                             observer needs the full per-world edge stream, which neither \
                             boundary records nor the ghost-halo exchange carry across workers"
                                .to_string(),
                        )),
                    })
            })
            .collect();
        if slots.is_empty() && halos.is_empty() {
            return placed
                .into_iter()
                .map(|entry| entry.map(|_| unreachable!("no valid queries placed")))
                .collect();
        }
        let run = self.run_valid(plan, &mut slots, &mut halos, blocks, cap);
        let (worlds_used, half_width) = match run {
            Ok(outcome) => outcome,
            Err(error) => {
                self.job = None;
                return placed
                    .into_iter()
                    .map(|entry| entry.and(Err(error.clone())))
                    .collect();
            }
        };
        let mut finished = slots.into_iter();
        let mut finished_halos = halos.into_iter();
        placed
            .into_iter()
            .map(|entry| {
                entry.map(|kind| {
                    let result = match kind {
                        Placed::Aggregate => finished
                            .next()
                            .expect("one finished slot per aggregate query")
                            .finalize(worlds_used),
                        Placed::Halo => finished_halos
                            .next()
                            .expect("one finished halo slot per halo query")
                            .finalize(worlds_used),
                    };
                    QueryAnswer {
                        result,
                        worlds_used,
                        half_width,
                    }
                })
            })
            .collect()
    }

    /// Executes the plan and renders the same report envelope
    /// [`QueryPlan::run_report`] prints for an in-process run, with the
    /// graph labelled by fingerprint (byte-identical answers yield
    /// byte-identical reports).
    pub fn run_report(&mut self, plan: &QueryPlan) -> Value {
        let results = self.execute(plan);
        plan.report_for(&self.graph_label(), &results)
    }

    /// Drops every worker connection; the workers' sampler threads stop and
    /// join as their connections close.  (Dropping the coordinator does the
    /// same — this is the explicit spelling.)
    pub fn shutdown(self) {}

    /// Runs the sampling for the plan's valid queries; returns
    /// `(worlds_used, half_width)`.  Aggregate slots run first as one
    /// boundary-exchange job; the halo slots then walk the same world
    /// stream through the workers' halo sessions, block-attributed exactly
    /// as the in-process thread fold would attribute them.
    fn run_valid(
        &mut self,
        plan: &QueryPlan,
        slots: &mut [Slot],
        halos: &mut [HaloSlot],
        blocks: usize,
        cap: usize,
    ) -> Result<(usize, Option<f64>), ServiceError> {
        let worlds = plan.worlds;
        if worlds == 0 {
            // Pristine finalize: no batch seed is drawn, no job started —
            // mirrors the in-process batch's zero-world short-circuit.
            return Ok((0, None));
        }
        // The in-process plan runs as one batch whose seed is the first
        // draw of `SmallRng::seed_from_u64(plan.seed)`.
        let seed = SmallRng::seed_from_u64(plan.seed).gen::<u64>();
        let mode = mode_name(plan.mode);
        match &plan.precision {
            None => {
                if slots.is_empty() {
                    self.probe_fleet()?;
                } else {
                    self.start_job(seed, mode, worlds)?;
                    let partition = Arc::clone(&self.partition);
                    self.pump(0, worlds, |world, glued, _records| {
                        let owner = block_owner(world, worlds, blocks);
                        for slot in slots.iter_mut() {
                            slot.observe(owner, &partition, glued);
                        }
                        Ok(())
                    })?;
                    self.finish_job(slots, worlds)?;
                }
                self.run_halo(halos, seed, mode, 0, worlds, |world| {
                    block_owner(world, worlds, blocks)
                })?;
                Ok((worlds, None))
            }
            Some(precision) => self.run_adaptive(seed, mode, precision, slots, halos, blocks, cap),
        }
    }

    /// The adaptive epoch loop, replicating `drive_adaptive` exactly: same
    /// stopping rule, same per-world record order, same check order at each
    /// epoch barrier — so `worlds_used` and `half_width` match the
    /// in-process run bitwise.
    #[allow(clippy::too_many_arguments)] // one call site; mirrors drive_adaptive's knobs
    fn run_adaptive(
        &mut self,
        seed: u64,
        mode: &'static str,
        precision: &Precision,
        slots: &mut [Slot],
        halos: &mut [HaloSlot],
        blocks: usize,
        cap: usize,
    ) -> Result<(usize, Option<f64>), ServiceError> {
        let mut rule = StoppingRule::new(*precision);
        let tracked: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.tracked_range().map(|(lo, hi)| (i, lo, hi)))
            .map(|(i, lo, hi)| {
                rule.register(lo, hi);
                i
            })
            .collect();
        if cap == 0 {
            return Ok((0, Some(f64::INFINITY)));
        }
        let epoch = precision.epoch.max(1);
        let started = Instant::now();
        if rule.deadline_expired(started) {
            return Ok((0, Some(f64::INFINITY)));
        }
        let drive_slots = !slots.is_empty();
        if drive_slots {
            self.start_job(seed, mode, 0)?;
        } else {
            self.probe_fleet()?;
        }
        let partition = Arc::clone(&self.partition);
        let num_edges = self.graph.num_edges();
        let mut consumed = 0usize;
        // Epoch extents, replayed below for the halo queries: block
        // attribution inside an epoch is relative to the epoch start, so
        // the halo observers must see the exact same epoch boundaries the
        // stopping rule produced.
        let mut epochs: Vec<(usize, usize)> = Vec::new();
        loop {
            let block = epoch.min(cap - consumed);
            epochs.push((consumed, block));
            if drive_slots {
                self.raise_target(consumed + block)?;
                let epoch_start = consumed;
                self.pump(consumed, consumed + block, |world, glued, records| {
                    let owner = block_owner(world - epoch_start, block, blocks);
                    for slot in slots.iter_mut() {
                        slot.observe(owner, &partition, glued);
                    }
                    for (s, &i) in tracked.iter().enumerate() {
                        rule.record(s, slots[i].statistic(glued, records, num_edges));
                    }
                    Ok(())
                })?;
            }
            consumed += block;
            // Same verdict order as the in-process checkpoint: convergence,
            // then budget, then deadline — a deadline can only shorten a
            // run, never change a converged answer.
            if rule.check() || consumed >= cap || rule.deadline_expired(started) {
                break;
            }
        }
        if drive_slots {
            self.finish_job(slots, consumed)?;
        }
        for &(start, size) in &epochs {
            self.run_halo(halos, seed, mode, start, start + size, |world| {
                block_owner(world - start, size, blocks)
            })?;
        }
        Ok((consumed, Some(rule.half_width())))
    }

    /// Collects every worker's cross-world aggregates for the finished job
    /// and folds them into the slots.
    fn finish_job(&mut self, slots: &mut [Slot], target: usize) -> Result<(), ServiceError> {
        let aggregates = self.collect_aggregates(target)?;
        for (k, (hist, intra)) in aggregates.iter().enumerate() {
            let shard = self.partition.shard(k);
            for slot in slots.iter_mut() {
                let folded = match slot {
                    Slot::DegreeHistogram(acc) => acc.add_worker(hist),
                    Slot::EdgeFrequency(acc) => acc.add_intra(shard, intra),
                    Slot::Connectivity(_) => Ok(()),
                };
                folded.map_err(|why| {
                    ServiceError::Internal(format!("shard {k} aggregates rejected: {why}"))
                })?;
            }
        }
        self.job = None;
        Ok(())
    }

    /// The fleet-side ghost layout, built once on the first halo query and
    /// reused for every later plan (it depends only on the partition).
    fn halo_plan(&mut self) -> Arc<HaloPlan> {
        if self.halo.is_none() {
            self.halo = Some(Arc::new(HaloPlan::new(&self.graph, &self.partition)));
        }
        Arc::clone(self.halo.as_ref().expect("halo plan built above"))
    }

    /// Drives the halo queries over worlds `from..upto`, attributing world
    /// `w` to observer block `owner(w)` — the caller picks the same block
    /// function the in-process engine would use, so the merged observers
    /// fold world values in the identical order.
    ///
    /// Runs **after** the aggregate job finished (no job in flight), so a
    /// reconnect inside the halo exchange never resubmits a boundary job.
    /// A failed exchange restarts the *current world* of the affected query
    /// from step 0 on every shard: surviving workers restart their kernel
    /// without resampling, a reconnected (or freshly promoted) worker
    /// rebuilds its session from the line's identity and replays the shared
    /// stream up to the world — either way the superstep values are
    /// bit-identical to an undisturbed run.  The restart loop terminates
    /// because every restart burned a retry first, and [`Self::fail_worker`]
    /// bounds total failures per shard before degrading to the typed
    /// [`ServiceError::WorkerLost`].
    fn run_halo(
        &mut self,
        halos: &mut [HaloSlot],
        seed: u64,
        mode: &'static str,
        from: usize,
        upto: usize,
        owner: impl Fn(usize) -> usize,
    ) -> Result<(), ServiceError> {
        if halos.is_empty() || from >= upto {
            return Ok(());
        }
        debug_assert!(self.job.is_none(), "halo exchange with a job in flight");
        if from == 0 {
            // The halo exchange is a fresh phase of the plan: re-arm the
            // per-job retry budgets exactly as `start_job` does.
            for worker in &mut self.workers {
                worker.retries_left = self.config.retries;
            }
        }
        let plan = self.halo_plan();
        for world in from..upto {
            let block = owner(world);
            for slot in halos.iter_mut() {
                // Session tokens are stable per plan position: a later plan
                // with a different replay identity *replaces* the worker's
                // session under the same token, so a long-lived connection
                // never accumulates sessions past the per-query count.
                let ctx = HaloCtx {
                    token: format!("halo-q{}", slot.index()),
                    seed,
                    mode,
                    kernel: slot.kernel_json(),
                };
                match slot {
                    HaloSlot::PageRank { config, blocks, .. } => {
                        let config = *config;
                        loop {
                            if let Some(scores) =
                                self.halo_pagerank_world(&ctx, &config, &plan, world)?
                            {
                                blocks[block].record_scores(&scores);
                                break;
                            }
                        }
                    }
                    HaloSlot::Clustering { blocks, .. } => loop {
                        if let Some(coefficients) = self.halo_collect_owned(&ctx, world)? {
                            blocks[block].record_coefficients(&coefficients);
                            break;
                        }
                    },
                    HaloSlot::Knn { source, blocks, .. } => {
                        let source = *source;
                        loop {
                            if let Some(distances) = self.halo_bfs_world(&ctx, source, world)? {
                                blocks[block].record_distances(&distances);
                                break;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// One world of the PageRank superstep exchange, in the operation order
    /// `graph_algos::pagerank` fixes (per-target ascending-source shares,
    /// an ascending delta fold): per iteration, feed every
    /// shard the ghost ranks it reads (from iteration 1 on), run one
    /// chained step through the shards ascending (threading the L1
    /// convergence accumulator), install the reported boundary ranks on the
    /// coordinator's board, and stop when the accumulated delta drops under
    /// the configured tolerance.  `Ok(None)` means a worker failed and the
    /// world must restart from step 0.
    fn halo_pagerank_world(
        &mut self,
        ctx: &HaloCtx,
        config: &PageRankConfig,
        plan: &HaloPlan,
        world: usize,
    ) -> Result<Option<Vec<f64>>, ServiceError> {
        let n = self.graph.num_vertices();
        let shards = self.workers.len();
        let mut board = vec![1.0 / n.max(1) as f64; n];
        for step in 0..config.max_iterations {
            if step > 0 {
                for k in 0..shards {
                    // Feeds are chunked so a shard with a large halo (the
                    // hub shard of a power-law graph can ghost most of the
                    // graph) never exceeds the worker's request-line bound;
                    // the worker installs each chunk incrementally.
                    for chunk in plan.shard(k).ghosts().chunks(FEED_CHUNK_ENTRIES) {
                        let values = chunk
                            .iter()
                            .map(|&gv| format!("\"{}\"", encode_rank(gv as u32, board[gv])))
                            .collect::<Vec<_>>()
                            .join(", ");
                        let tail = format!("\"phase\": \"feed\", \"values\": [{values}]");
                        let line = self.halo_line(ctx, k, world, &tail);
                        if self.halo_request(k, &line)?.is_none() {
                            return Ok(None);
                        }
                    }
                }
            }
            let mut acc = 0.0f64;
            for k in 0..shards {
                let tail = format!(
                    "\"phase\": \"step\", \"step\": {step}, \"acc\": \"{}\"",
                    f64_to_hex(acc)
                );
                let line = self.halo_line(ctx, k, world, &tail);
                let response = match self.halo_request(k, &line)? {
                    Some(response) => response,
                    None => return Ok(None),
                };
                acc = match response.get_str("acc").map(f64_from_hex) {
                    Some(Ok(acc)) => acc,
                    _ => {
                        self.fail_worker(k, "pagerank step response without a folded acc")?;
                        return Ok(None);
                    }
                };
                let entries = match self.halo_entries(ctx, k, world, response)? {
                    Some(entries) => entries,
                    None => return Ok(None),
                };
                for entry in &entries {
                    match decode_rank(entry) {
                        Ok((gid, rank)) if (gid as usize) < n => board[gid as usize] = rank,
                        _ => {
                            let why = format!("unparseable boundary rank {entry:?}");
                            self.fail_worker(k, &why)?;
                            return Ok(None);
                        }
                    }
                }
            }
            if acc < config.tolerance {
                break;
            }
        }
        self.halo_collect_owned(ctx, world)
    }

    /// One world of the BFS (k-NN core) superstep exchange: level by level,
    /// route the frontier's settlements to their owner shards, step every
    /// shard, and absorb the newly settled vertices (first report wins, as
    /// in the monolithic BFS).  `Ok(None)` restarts the world.
    fn halo_bfs_world(
        &mut self,
        ctx: &HaloCtx,
        source: usize,
        world: usize,
    ) -> Result<Option<Vec<u32>>, ServiceError> {
        let n = self.graph.num_vertices();
        let shards = self.workers.len();
        let partition = Arc::clone(&self.partition);
        let mut dist = vec![u32::MAX; n];
        dist[source] = 0;
        let mut settlements: Vec<(u32, u32)> = vec![(source as u32, 0)];
        let mut step = 0usize;
        while !settlements.is_empty() && step < n.max(1) {
            let mut next: Vec<(u32, u32)> = Vec::new();
            for k in 0..shards {
                let routed = settlements
                    .iter()
                    .filter(|&&(v, _)| partition.shard_of(v as usize) == k)
                    .map(|&(v, level)| format!("\"{}\"", encode_level(v, level)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let tail = format!("\"phase\": \"step\", \"step\": {step}, \"values\": [{routed}]");
                let line = self.halo_line(ctx, k, world, &tail);
                let response = match self.halo_request(k, &line)? {
                    Some(response) => response,
                    None => return Ok(None),
                };
                let entries = match self.halo_entries(ctx, k, world, response)? {
                    Some(entries) => entries,
                    None => return Ok(None),
                };
                for entry in &entries {
                    match decode_level(entry) {
                        Ok((gid, level)) if (gid as usize) < n => {
                            if dist[gid as usize] == u32::MAX {
                                dist[gid as usize] = level;
                                next.push((gid, level));
                            }
                        }
                        _ => {
                            let why = format!("unparseable settlement {entry:?}");
                            self.fail_worker(k, &why)?;
                            return Ok(None);
                        }
                    }
                }
            }
            settlements = next;
            step += 1;
        }
        Ok(Some(dist))
    }

    /// Collects the owned per-vertex values of the current world from every
    /// shard into one global vector (clustering computes its coefficients
    /// lazily on the first collect).  `Ok(None)` restarts the world.
    fn halo_collect_owned(
        &mut self,
        ctx: &HaloCtx,
        world: usize,
    ) -> Result<Option<Vec<f64>>, ServiceError> {
        let n = self.graph.num_vertices();
        let shards = self.workers.len();
        let partition = Arc::clone(&self.partition);
        let mut values = vec![0.0f64; n];
        for k in 0..shards {
            let tail =
                format!("\"phase\": \"collect\", \"from\": 0, \"max\": {DEFAULT_BOUNDARY_PAGE}");
            let line = self.halo_line(ctx, k, world, &tail);
            let response = match self.halo_request(k, &line)? {
                Some(response) => response,
                None => return Ok(None),
            };
            let entries = match self.halo_collected(ctx, k, world, response)? {
                Some(entries) => entries,
                None => return Ok(None),
            };
            let vertices = partition.shard(k).vertices();
            if entries.len() != vertices.len() {
                let why = format!(
                    "shard {k} collected {} values for {} owned vertices",
                    entries.len(),
                    vertices.len()
                );
                self.fail_worker(k, &why)?;
                return Ok(None);
            }
            for (local, entry) in entries.iter().enumerate() {
                match f64_from_hex(entry) {
                    Ok(value) => values[vertices[local]] = value,
                    Err(_) => {
                        let why = format!("unparseable collected value {entry:?}");
                        self.fail_worker(k, &why)?;
                        return Ok(None);
                    }
                }
            }
        }
        Ok(Some(values))
    }

    /// Pages the remainder of a step report whose first window is
    /// `response`; `Ok(None)` restarts the world.
    fn halo_entries(
        &mut self,
        ctx: &HaloCtx,
        k: usize,
        world: usize,
        response: Value,
    ) -> Result<Option<Vec<String>>, ServiceError> {
        self.halo_pages(ctx, k, world, response, "page")
    }

    /// Pages the remainder of a collect whose first window is `response`.
    fn halo_collected(
        &mut self,
        ctx: &HaloCtx,
        k: usize,
        world: usize,
        response: Value,
    ) -> Result<Option<Vec<String>>, ServiceError> {
        self.halo_pages(ctx, k, world, response, "collect")
    }

    /// Drains a paged halo report: validates the first window, then issues
    /// `phase` requests until `total` entries arrived.  Pages are
    /// idempotent re-reads of session state, so re-requesting a window
    /// after a hiccup is safe; a window that fails to advance fails the
    /// worker instead of spinning.
    fn halo_pages(
        &mut self,
        ctx: &HaloCtx,
        k: usize,
        world: usize,
        first: Value,
        phase: &str,
    ) -> Result<Option<Vec<String>>, ServiceError> {
        let (mut entries, total) = match halo_window(&first, 0) {
            Ok(window) => window,
            Err(why) => {
                self.fail_worker(k, &why)?;
                return Ok(None);
            }
        };
        while entries.len() < total {
            let tail = format!(
                "\"phase\": \"{phase}\", \"from\": {}, \"max\": {DEFAULT_BOUNDARY_PAGE}",
                entries.len()
            );
            let line = self.halo_line(ctx, k, world, &tail);
            let response = match self.halo_request(k, &line)? {
                Some(response) => response,
                None => return Ok(None),
            };
            let (page, page_total) = match halo_window(&response, entries.len()) {
                Ok(window) => window,
                Err(why) => {
                    self.fail_worker(k, &why)?;
                    return Ok(None);
                }
            };
            if page_total != total || page.is_empty() {
                self.fail_worker(k, "halo report window did not advance")?;
                return Ok(None);
            }
            entries.extend(page);
        }
        Ok(Some(entries))
    }

    /// One halo exchange with worker `k` — **single attempt**.  A halo
    /// superstep is stateful, so a line must never be retried verbatim the
    /// way [`Self::request_worker`] retries idempotent exchanges; instead a
    /// failure burns the ordinary retry/failover budget and reports
    /// `Ok(None)`: *restart the current world from step 0 on every shard*.
    fn halo_request(&mut self, k: usize, line: &str) -> Result<Option<Value>, ServiceError> {
        if self.workers[k].client.is_none() {
            match self.open_client(k) {
                Ok(client) => {
                    self.workers[k].client = Some(client);
                    self.workers[k].last_gain = Instant::now();
                }
                Err(why) => {
                    self.fail_worker(k, &why)?;
                    return Ok(None);
                }
            }
        }
        match self.raw_request(k, line) {
            Ok(value) => Ok(Some(value)),
            Err(why) => {
                self.fail_worker(k, &why)?;
                Ok(None)
            }
        }
    }

    /// Renders one `halo` line: the full session identity (so any worker —
    /// original, reconnected, or promoted standby — can rebuild the session
    /// from this line alone) plus the phase-specific `tail`.
    fn halo_line(&self, ctx: &HaloCtx, k: usize, world: usize, tail: &str) -> String {
        format!(
            "{{\"op\": \"halo\", \"job\": \"{}\", \"shard\": {k}, \"shards\": {}, \
             \"seed\": \"{}\", \"mode\": \"{}\", \"kernel\": {}, \"world\": {world}, {tail}}}",
            ctx.token,
            self.workers.len(),
            ctx.seed,
            ctx.mode,
            ctx.kernel
        )
    }

    /// Pings every worker once through the ordinary retry/reconnect/
    /// failover path.  Runs **before** a plan fans out, while no job is in
    /// flight, so a dead-at-connect worker is detected — and failed over —
    /// before any shard work starts instead of surfacing as a mid-plan
    /// timeout.
    fn probe_fleet(&mut self) -> Result<(), ServiceError> {
        debug_assert!(self.job.is_none(), "probe with a job in flight");
        for k in 0..self.workers.len() {
            self.request_worker(k, "{\"op\": \"ping\"}")?;
        }
        Ok(())
    }

    /// Starts a fresh sampling job on every worker under a new token,
    /// resetting all pager state and re-arming the retry budgets.
    fn start_job(
        &mut self,
        seed: u64,
        mode: &'static str,
        target: usize,
    ) -> Result<(), ServiceError> {
        self.probe_fleet()?;
        let token = format!("plan-{}", self.next_token);
        self.next_token += 1;
        self.job = Some(JobParams {
            token,
            seed,
            mode,
            target,
        });
        let now = Instant::now();
        for worker in &mut self.workers {
            worker.retries_left = self.config.retries;
            worker.received = 0;
            worker.buffer.clear();
            worker.last_pos = 0;
            worker.last_gain = now;
        }
        for k in 0..self.workers.len() {
            let line = self.submit_line(k);
            // Idempotent: the reconnect path may already have resubmitted —
            // a matching resubmission just re-raises the same target.
            self.request_worker(k, &line)?;
        }
        Ok(())
    }

    /// Raises every worker's world target for the in-flight job (the
    /// adaptive per-epoch extension).
    fn raise_target(&mut self, target: usize) -> Result<(), ServiceError> {
        self.job
            .as_mut()
            .expect("raise_target outside a job")
            .target = target;
        for k in 0..self.workers.len() {
            let line = self.submit_line(k);
            self.request_worker(k, &line)?;
        }
        Ok(())
    }

    /// The `shard_submit` request line for worker `k` and the current job.
    fn submit_line(&self, k: usize) -> String {
        let job = self.job.as_ref().expect("submit_line outside a job");
        format!(
            "{{\"op\": \"shard_submit\", \"job\": \"{}\", \"shard\": {}, \"shards\": {}, \
             \"worlds\": {}, \"seed\": \"{}\", \"mode\": \"{}\"}}",
            job.token,
            k,
            self.workers.len(),
            job.target,
            job.seed,
            job.mode
        )
    }

    /// Glues worlds `from..upto` in world order, invoking `on_world` for
    /// each: pages boundary records from every worker, buffers them, and
    /// glues a world as soon as all shards have reported it.  Applies the
    /// stale-worker detector whenever a pass makes no progress.
    fn pump<F>(&mut self, from: usize, upto: usize, mut on_world: F) -> Result<(), ServiceError>
    where
        F: FnMut(usize, &GluedWorld, &[ShardWorldRecord]) -> Result<(), ServiceError>,
    {
        let shards = self.workers.len();
        let mut next_world = from;
        let mut records: Vec<ShardWorldRecord> = Vec::with_capacity(shards);
        while next_world < upto {
            let mut progressed = false;
            for k in 0..shards {
                let needed = upto - self.workers[k].received;
                if needed == 0 {
                    continue;
                }
                let gained = self.page_records(k, needed.min(DEFAULT_BOUNDARY_PAGE))?;
                progressed |= gained > 0;
            }
            while next_world < upto && self.workers.iter().all(|w| !w.buffer.is_empty()) {
                records.clear();
                for worker in &mut self.workers {
                    records.push(worker.buffer.pop_front().expect("checked non-empty"));
                }
                let glued = glue_records(&self.partition, &records).map_err(|why| {
                    ServiceError::Internal(format!("glue failed at world {next_world}: {why}"))
                })?;
                on_world(next_world, &glued, &records)?;
                next_world += 1;
                progressed = true;
            }
            if !progressed {
                self.check_stale(upto)?;
                std::thread::sleep(self.config.poll_interval);
            }
        }
        Ok(())
    }

    /// Requests one page of boundary records from worker `k`; returns how
    /// many records arrived (possibly zero while the worker still samples).
    fn page_records(&mut self, k: usize, max: usize) -> Result<usize, ServiceError> {
        let job = self.job.as_ref().expect("page_records outside a job");
        let line = format!(
            "{{\"op\": \"boundary\", \"job\": \"{}\", \"from\": {}, \"max\": {}}}",
            job.token, self.workers[k].received, max
        );
        let response = self.request_worker(k, &line)?;
        let parsed: Result<Vec<ShardWorldRecord>, String> =
            match response.get("records").and_then(Value::as_array) {
                None => Err("boundary response without records".to_string()),
                Some(entries) => entries
                    .iter()
                    .map(|entry| {
                        entry
                            .as_str()
                            .ok_or_else(|| "non-string boundary record".to_string())
                            .and_then(ShardWorldRecord::decode)
                    })
                    .collect(),
            };
        let decoded = match parsed {
            Ok(decoded) => decoded,
            Err(why) => {
                // Transport-level corruption: burn a retry and re-page.
                self.fail_worker(k, &why)?;
                return Ok(0);
            }
        };
        let gained = decoded.len();
        let worker = &mut self.workers[k];
        worker.received += gained;
        worker.buffer.extend(decoded);
        let pos = response.get_usize("pos").unwrap_or(worker.last_pos);
        if gained > 0 || pos > worker.last_pos {
            worker.last_pos = pos.max(worker.last_pos);
            worker.last_gain = Instant::now();
        }
        Ok(gained)
    }

    /// Burns a retry on every worker whose sampling position has sat still
    /// beyond the stale window while records are still owed.
    fn check_stale(&mut self, upto: usize) -> Result<(), ServiceError> {
        for k in 0..self.workers.len() {
            if self.workers[k].received < upto
                && self.workers[k].last_gain.elapsed() > self.config.stale_after
            {
                self.fail_worker(k, "sampling position stopped advancing")?;
            }
        }
        Ok(())
    }

    /// Polls every worker's `shard_result` until done, returning each
    /// shard's `(hist, intra)` cross-world aggregates.
    fn collect_aggregates(&mut self, target: usize) -> Result<Vec<ShardAggregates>, ServiceError> {
        let token = self
            .job
            .as_ref()
            .expect("collect_aggregates outside a job")
            .token
            .clone();
        let line = format!("{{\"op\": \"shard_result\", \"job\": \"{token}\"}}");
        let mut aggregates = Vec::with_capacity(self.workers.len());
        for k in 0..self.workers.len() {
            loop {
                let response = self.request_worker(k, &line)?;
                if response.get("done").and_then(Value::as_bool) == Some(true) {
                    let worlds = response.get_usize("worlds");
                    if worlds != Some(target) {
                        self.fail_worker(
                            k,
                            &format!("aggregates cover {worlds:?} worlds, expected {target}"),
                        )?;
                        continue;
                    }
                    match (
                        u64_array(response.get("hist")),
                        u64_array(response.get("intra")),
                    ) {
                        (Some(hist), Some(intra)) => {
                            aggregates.push((hist, intra));
                            break;
                        }
                        _ => {
                            self.fail_worker(k, "malformed aggregate arrays")?;
                            continue;
                        }
                    }
                }
                let pos = response.get_usize("pos").unwrap_or(0);
                let worker = &mut self.workers[k];
                if pos > worker.last_pos {
                    worker.last_pos = pos;
                    worker.last_gain = Instant::now();
                } else if worker.last_gain.elapsed() > self.config.stale_after {
                    self.fail_worker(k, "stalled before finishing its aggregates")?;
                    continue;
                }
                std::thread::sleep(self.config.poll_interval);
            }
        }
        Ok(aggregates)
    }

    /// Sends one request to worker `k`, transparently reconnecting,
    /// re-validating and resubmitting the in-flight job after a failure.
    /// Every failure burns one bounded retry; exhaustion degrades to
    /// [`ServiceError::WorkerLost`].
    fn request_worker(&mut self, k: usize, line: &str) -> Result<Value, ServiceError> {
        loop {
            if self.workers[k].client.is_none() {
                match self.open_client(k) {
                    Ok(client) => {
                        self.workers[k].client = Some(client);
                        self.workers[k].last_gain = Instant::now();
                        if self.job.is_some() {
                            let submit = self.submit_line(k);
                            let resubmitted = self.raw_request(k, &submit);
                            if let Err(why) = resubmitted {
                                self.fail_worker(k, &why)?;
                                continue;
                            }
                        }
                    }
                    Err(why) => {
                        self.fail_worker(k, &why)?;
                        continue;
                    }
                }
            }
            match self.raw_request(k, line) {
                Ok(value) => return Ok(value),
                Err(why) => self.fail_worker(k, &why)?,
            }
        }
    }

    /// One request on the live connection; any transport error or error
    /// envelope comes back as a message (no retry logic here).  This is
    /// also the coordinator-side fault injection seam: an armed
    /// [`CoordinatorConfig::faults`] clock ticks once per call and may
    /// misbehave instead — every injected failure then flows through the
    /// ordinary retry/failover model like a real one.
    fn raw_request(&mut self, k: usize, line: &str) -> Result<Value, String> {
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
            // `bad_request` — reported below like any error envelope.
            Some(FaultKind::Garble) => "#!garbled<injected-request>",
        };
        let client = self.workers[k]
            .client
            .as_mut()
            .ok_or_else(|| "connection closed".to_string())?;
        let response = client.request(line).map_err(|error| error.to_string())?;
        if response.get_str("status") == Some("ok") {
            Ok(response)
        } else {
            Err(format!("worker answered {}", response.render()))
        }
    }

    /// Records one failed exchange with worker `k`: drops its connection
    /// (the next request reconnects and resubmits) and burns one retry;
    /// an exhausted budget fails the shard over to a standby, and only
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
        worker.last_gain = Instant::now();
        self.recovery.retries_burned += 1;
        if !self.config.reconnect_backoff.is_zero() {
            std::thread::sleep(self.config.reconnect_backoff);
        }
        Ok(())
    }

    /// Fails shard `k` over to the first standby that validates: the
    /// candidate must serve the same graph under shard `k`'s role, and the
    /// in-flight job (if any) is resubmitted to it before it takes over —
    /// the job deterministically resamples the identical world stream from
    /// world 0, and the pager's `received` cursor keeps gluing exactly
    /// where it stopped, so recovered answers stay bit-identical (see
    /// [`crate::recovery`]).  A promoted (or failed) candidate is consumed
    /// from the pool; promotion re-arms the shard's retry budget.
    ///
    /// `trail` carries the failure story so far; candidates that do not
    /// validate append to it, and the terminal
    /// [`ServiceError::WorkerLost`] reports the whole chain.
    fn promote(&mut self, k: usize, trail: String) -> Result<(), ServiceError> {
        let mut trail = trail;
        for addr in self.standbys.candidates() {
            self.standbys.remove(&addr);
            let mut client = match self.open_client_to(k, &addr) {
                Ok(client) => client,
                Err(why) => {
                    trail = format!("{trail}; standby {why}");
                    continue;
                }
            };
            if self.job.is_some() {
                let submit = self.submit_line(k);
                let resubmitted = client
                    .request(&submit)
                    .map_err(|error| error.to_string())
                    .and_then(|response| {
                        if response.get_str("status") == Some("ok") {
                            Ok(())
                        } else {
                            Err(format!("answered {}", response.render()))
                        }
                    });
                if let Err(why) = resubmitted {
                    trail = format!("{trail}; standby at {addr} rejected the resubmission: {why}");
                    continue;
                }
            }
            let retries = self.config.retries;
            let worker = &mut self.workers[k];
            let from = std::mem::replace(&mut worker.addr, addr.clone());
            worker.client = Some(client);
            worker.retries_left = retries;
            worker.last_gain = Instant::now();
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

    /// Opens and validates a connection for shard `k` at `addr`: connect
    /// bounded by the timeout, timeouts armed both directions, graph
    /// fingerprint and shard role checked via `stats`.
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
        let role = stats
            .get("shard")
            .ok_or_else(|| describe("runs no shard role (start it with --shard)".to_string()))?;
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

/// Parses a JSON array of non-negative integers carried as `f64` (exact
/// below 2⁵³, which world counts never approach).
fn u64_array(value: Option<&Value>) -> Option<Vec<u64>> {
    value?
        .as_array()?
        .iter()
        .map(|entry| entry.as_f64().map(|f| f as u64))
        .collect()
}
