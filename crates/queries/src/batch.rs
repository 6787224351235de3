//! Batched multi-query evaluation over **shared** sampled worlds.
//!
//! Every Monte-Carlo query in this crate spends most of its time drawing and
//! materialising possible worlds.  When an experiment mixes `k` queries over
//! the same uncertain graph (the paper's Section 6.3 evaluates reliability,
//! shortest-path distance, PageRank and k-NN side by side), running them
//! standalone pays that sampling cost `k` times.  [`QueryBatch`] samples each
//! world exactly **once** and feeds it to every registered
//! [`WorldObserver`], amortising the sampling + materialisation across the
//! whole query mix.
//!
//! ## Observers
//!
//! A [`WorldObserver`] is the per-query accumulator: it sees every sampled
//! world through [`WorldObserver::observe`], partial observers from parallel
//! workers are combined with [`WorldObserver::merge`], and
//! [`WorldObserver::finalize`] turns the accumulated state into the query's
//! result.  Each query surface of this crate ships its observer:
//!
//! | Observer | Output | Standalone wrapper |
//! |---|---|---|
//! | [`crate::node_queries::PageRankObserver`] | `Vec<f64>` | [`crate::expected_pagerank`] |
//! | [`crate::node_queries::ClusteringObserver`] | `Vec<f64>` | [`crate::expected_clustering_coefficients`] |
//! | [`crate::pair_queries::PairQueriesObserver`] | [`crate::PairQueryResult`] | [`crate::pair_queries()`] |
//! | [`crate::components::ConnectivityObserver`] | [`crate::ConnectivityEstimate`] | [`crate::connectivity_query`] |
//! | [`crate::components::DegreeHistogramObserver`] | `Vec<f64>` | [`crate::expected_degree_histogram`] |
//! | [`crate::knn::KnnObserver`] | `Vec<`[`crate::Neighbor`]`>` | [`crate::k_nearest_neighbors`] |
//! | [`EdgeFrequencyObserver`] | `Vec<f64>` | — |
//!
//! ## Determinism and reproducibility
//!
//! The driver draws **exactly one** `u64` from the caller's RNG (the batch
//! seed) when `num_worlds > 0` and at least one observer is registered, and
//! **zero** draws otherwise — regardless of the thread count.  All workers
//! derive their world stream from that one seed: worker `w` replays (samples
//! and discards, without materialising) the worlds before its contiguous
//! block, so the sequence of sampled worlds is *identical for every thread
//! count*.  Consequences:
//!
//! * with one thread, a single-observer batch is **bit-identical** to the
//!   legacy standalone driver ([`MonteCarlo::accumulate`] with one worker);
//! * results are invariant to the observer registration order;
//! * order-insensitive accumulators (counts, and statistics derived from
//!   counts such as reliability) are exactly invariant to the thread count;
//!   floating-point sums may differ across thread counts only in their
//!   round-off (partial sums are merged in worker order).
//!
//! The replay makes parallel sampling cost `O(threads)` × the sequential
//! sampling cost in total, which is a good trade: per-world kernels (BFS,
//! PageRank, components) dominate sampling, and sampling itself is cheap in
//! the paper's sparsified regime (`O(Σ pₑ)` skip-sampling).
//!
//! ## The `DynObserver` layer
//!
//! [`WorldObserver`] is a statically-typed trait: [`QueryBatch::register`]
//! needs the concrete observer type and [`BatchResults::take`] needs it
//! again to give back a typed `Output`.  That works when the caller names
//! every query at compile time, but a *dynamic* front end — a query plan
//! parsed from JSON, a long-lived service accepting arbitrary submissions —
//! only knows its query mix at run time.  The object-safe [`DynObserver`]
//! trait (blanket-implemented for every `WorldObserver`, never implemented
//! by hand) erases the observer type behind the same
//! observe / merge / finalize lifecycle, and [`BoxedObserver`] is the owned
//! handle that heterogeneous registries store:
//!
//! * [`BoxedObserver::new`] erases any [`WorldObserver`];
//! * [`QueryBatch::register_boxed`] registers it and returns an untyped
//!   [`DynHandle`];
//! * [`BatchResults::try_take_boxed`] finalises it to a
//!   `Box<dyn Any + Send>` that the front end downcasts with the knowledge
//!   of which query it submitted (`ugs-service` keeps that knowledge in its
//!   `QuerySpec`).
//!
//! ## Fallible redemption
//!
//! [`BatchResults::take`] panics on a foreign or already-redeemed handle —
//! fine for straight-line query code, wrong for a long-lived service.
//! [`BatchResults::try_take`] / [`BatchResults::try_take_boxed`] return a
//! [`BatchError`] instead ([`BatchError::WrongBatch`] and
//! [`BatchError::AlreadyTaken`]); `take` is a thin `unwrap` over `try_take`.
//!
//! ## Worked example
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use uncertain_graph::UncertainGraph;
//! use ugs_queries::batch::{EdgeFrequencyObserver, QueryBatch};
//! use ugs_queries::components::{ConnectivityObserver, DegreeHistogramObserver};
//! use ugs_queries::MonteCarlo;
//!
//! let g = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap();
//! let mc = MonteCarlo::worlds(400);
//!
//! // One sampling pass serves all three queries.
//! let mut batch = QueryBatch::new(&g, &mc);
//! let connectivity = batch.register(ConnectivityObserver::new(&g));
//! let histogram = batch.register(DegreeHistogramObserver::new(&g));
//! let frequencies = batch.register(EdgeFrequencyObserver::new(&g));
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut results = batch.run(&mut rng); // advances `rng` by exactly one u64 draw
//!
//! let connectivity = results.take(connectivity);
//! assert!(connectivity.probability_connected <= 1.0);
//! let histogram = results.take(histogram);
//! assert!((histogram.iter().sum::<f64>() - 4.0).abs() < 1e-9);
//! let frequencies = results.take(frequencies);
//! assert!((frequencies[0] - 0.9).abs() < 0.1);
//! ```

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::UncertainGraph;

use crate::engine::{WorldEngine, WorldScratch};
use crate::mc::MonteCarlo;
use crate::sharded::{ShardedWorld, ShardedWorldEngine};
use crate::source::{ShardSupport, WorldSource, WorldView};
use crate::variance::{Precision, StopReason, StoppingRule};

/// A per-query accumulator fed by the batch driver.
///
/// The driver clones the registered observer once per worker (clones are
/// taken *before* any observation, so `Clone` must reproduce the pristine
/// state), calls [`WorldObserver::observe`] for every world of the worker's
/// block, combines the partial observers with [`WorldObserver::merge`] in
/// worker order, and [`WorldObserver::finalize`] produces the result.
///
/// To keep the whole batch allocation-free per world in steady state,
/// `observe` must not allocate: pre-size every buffer in the constructor.
///
/// Implementations that mirror a legacy `MonteCarlo::accumulate` kernel can
/// accumulate straight into their running totals and stay bit-identical to
/// the legacy driver (which summed each world's kernel output into the
/// totals) as long as each slot receives at most one floating-point addend
/// per world or only exactly-representable integer counts — true of every
/// observer in this crate, and guarded by the `batch_parity` suite.  A
/// kernel that adds several non-integral contributions to one slot per
/// world must keep the legacy zero-a-local-buffer-then-add pattern to
/// preserve the association order.
pub trait WorldObserver: Send + Clone + 'static {
    /// The finalised query result.
    ///
    /// `Send + 'static` so the type-erased [`DynObserver`] layer can box the
    /// output as `Box<dyn Any + Send>` and ship it across service channels;
    /// every output in this crate is a plain owned value anyway.
    type Output: Send + 'static;

    /// Observes one sampled world (the scratch exposes both the present
    /// edge ids and the materialised [`graph_algos::DeterministicGraph`]).
    fn observe(&mut self, world: &WorldScratch);

    /// Which world views the observer can consume (see
    /// [`ShardSupport`]).  The default is [`ShardSupport::MonolithicOnly`];
    /// observers whose accumulation is exact under a per-shard + cut
    /// decomposition override this to [`ShardSupport::CutAware`], and
    /// observers that are exact through the ghost-halo exchange
    /// ([`crate::halo`]) override it to [`ShardSupport::Halo`]; both
    /// implement [`WorldObserver::observe_sharded`].
    fn shard_support(&self) -> ShardSupport {
        ShardSupport::MonolithicOnly
    }

    /// Observes one sampled world decomposed by a graph partition: the
    /// per-shard contribution plus the boundary (cut-edge) correction.
    ///
    /// An implementation must accumulate exactly what [`WorldObserver::observe`]
    /// would have accumulated for the same world — the sharded engine
    /// replays the monolithic edge stream, so a correct cut correction
    /// makes count-style results bit-identical across shard counts.
    ///
    /// The default implementation panics; drivers never call it unless
    /// [`WorldObserver::shard_support`] declared a sharded path
    /// ([`ShardSupport::CutAware`] or [`ShardSupport::Halo`]).
    fn observe_sharded(&mut self, world: &ShardedWorld<'_>) {
        let _ = world;
        panic!("observer has no cut-aware path (shard_support() is MonolithicOnly)");
    }

    /// The a-priori closed range `[lo, hi]` of the scalar statistic this
    /// observer feeds the adaptive stopping rule, or `None` (the default)
    /// when the observer tracks no bounded per-world scalar.  Observers
    /// returning `None` still run under an adaptive batch — they ride along
    /// without constraining the stopping decision.
    fn tracked_range(&self) -> Option<(f64, f64)> {
        None
    }

    /// The tracked scalar of the most recently observed world.  The adaptive
    /// driver calls this immediately after every [`WorldObserver::observe`] /
    /// [`WorldObserver::observe_sharded`], and only when
    /// [`WorldObserver::tracked_range`] returned `Some`; the default (never
    /// called by the driver) returns NaN.
    fn tracked_statistic(&self) -> f64 {
        f64::NAN
    }

    /// Folds another partial observer (from a parallel worker) into `self`.
    fn merge(&mut self, other: Self);

    /// Consumes the accumulated state and produces the query result;
    /// `num_worlds` is the total number of sampled worlds across all
    /// workers (implementations must tolerate `num_worlds == 0`).
    fn finalize(self, num_worlds: usize) -> Self::Output;
}

/// Object-safe adapter over [`WorldObserver`] so one batch (or registry) can
/// drive a heterogeneous observer set; see the
/// [module docs](self#the-dynobserver-layer).
///
/// Blanket-implemented for every [`WorldObserver`] — do not implement this
/// trait by hand; implement `WorldObserver` and erase it with
/// [`BoxedObserver::new`].
pub trait DynObserver: Send {
    /// Type-erased [`WorldObserver::observe`].
    fn observe_dyn(&mut self, world: &WorldScratch);
    /// Type-erased [`WorldObserver::shard_support`].
    fn shard_support_dyn(&self) -> ShardSupport;
    /// Type-erased [`WorldObserver::observe_sharded`].
    fn observe_sharded_dyn(&mut self, world: &ShardedWorld<'_>);
    /// Type-erased [`WorldObserver::tracked_range`].
    fn tracked_range_dyn(&self) -> Option<(f64, f64)>;
    /// Type-erased [`WorldObserver::tracked_statistic`].
    fn tracked_statistic_dyn(&self) -> f64;
    /// Type-erased [`WorldObserver::merge`].
    ///
    /// # Panics
    ///
    /// Panics if `other` is not the same concrete observer type.
    fn merge_dyn(&mut self, other: Box<dyn DynObserver>);
    /// Clones the observer behind the erasure (used to hand each parallel
    /// worker its own pristine copy).
    fn clone_dyn(&self) -> Box<dyn DynObserver>;
    /// Recovers the concrete observer for a typed downcast.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Type-erased [`WorldObserver::finalize`]: the boxed
    /// [`WorldObserver::Output`], downcastable by whoever knows which query
    /// was registered.
    fn finalize_dyn(self: Box<Self>, num_worlds: usize) -> Box<dyn Any + Send>;
}

impl<O: WorldObserver> DynObserver for O {
    fn observe_dyn(&mut self, world: &WorldScratch) {
        self.observe(world);
    }

    fn shard_support_dyn(&self) -> ShardSupport {
        self.shard_support()
    }

    fn observe_sharded_dyn(&mut self, world: &ShardedWorld<'_>) {
        self.observe_sharded(world);
    }

    fn tracked_range_dyn(&self) -> Option<(f64, f64)> {
        self.tracked_range()
    }

    fn tracked_statistic_dyn(&self) -> f64 {
        self.tracked_statistic()
    }

    fn merge_dyn(&mut self, other: Box<dyn DynObserver>) {
        let other = other
            .into_any()
            .downcast::<O>()
            .expect("merged observers must have the same concrete type");
        self.merge(*other);
    }

    fn clone_dyn(&self) -> Box<dyn DynObserver> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn finalize_dyn(self: Box<Self>, num_worlds: usize) -> Box<dyn Any + Send> {
        Box::new((*self).finalize(num_worlds))
    }
}

/// An owned, type-erased observer — the unit a heterogeneous registry
/// stores.  Create with [`BoxedObserver::new`] and register it with
/// [`QueryBatch::try_register_boxed`].
pub struct BoxedObserver(Box<dyn DynObserver>);

impl BoxedObserver {
    /// Erases a concrete [`WorldObserver`].
    pub fn new<O: WorldObserver>(observer: O) -> Self {
        BoxedObserver(Box::new(observer))
    }

    /// Which world views the erased observer can consume (see
    /// [`WorldObserver::shard_support`]).
    pub fn shard_support(&self) -> ShardSupport {
        self.0.shard_support_dyn()
    }

    /// Finalises to the boxed [`WorldObserver::Output`]; the caller
    /// downcasts with its knowledge of the registered query.
    pub fn finalize(self, num_worlds: usize) -> Box<dyn Any + Send> {
        self.0.finalize_dyn(num_worlds)
    }
}

impl std::fmt::Debug for BoxedObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxedObserver").finish_non_exhaustive()
    }
}

/// Typed handle returned by [`QueryBatch::register`]; redeem it against the
/// [`BatchResults`] of the *same* batch with [`BatchResults::take`].
pub struct ObserverHandle<O> {
    batch: u64,
    index: usize,
    _marker: PhantomData<fn() -> O>,
}

impl<O> Clone for ObserverHandle<O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O> Copy for ObserverHandle<O> {}

impl<O> std::fmt::Debug for ObserverHandle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("batch", &self.batch)
            .field("index", &self.index)
            .finish()
    }
}

/// Untyped handle returned by [`QueryBatch::register_boxed`]; redeem it
/// with [`BatchResults::try_take_boxed`].
#[derive(Debug, Clone, Copy)]
pub struct DynHandle {
    batch: u64,
    index: usize,
}

/// Why a [`BatchResults`] redemption failed; returned by the fallible
/// [`BatchResults::try_take`] / [`BatchResults::try_take_boxed`] paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The handle was issued by a different batch run.
    WrongBatch {
        /// Id of the batch the results belong to.
        results: u64,
        /// Id of the batch that issued the handle.
        handle: u64,
    },
    /// The observer at this slot was already redeemed.
    AlreadyTaken {
        /// The handle's slot index.
        index: usize,
    },
    /// The observer cannot register with this batch: the batch is sharded
    /// ([`QueryBatch::from_sharded`]) and the observer has no sharded path
    /// (neither a cut correction nor the ghost-halo exchange). Returned by
    /// [`QueryBatch::try_register`] / [`QueryBatch::try_register_boxed`].
    Unsupported {
        /// The observer's declared [`ShardSupport`].
        support: ShardSupport,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::WrongBatch { results, handle } => write!(
                f,
                "observer handle redeemed against a different batch \
                 (results of batch {results}, handle from batch {handle})"
            ),
            BatchError::AlreadyTaken { index } => {
                write!(f, "observer result already taken (slot {index})")
            }
            BatchError::Unsupported { support } => write!(
                f,
                "observer has no sharded path (cut correction or ghost halo) and cannot \
                 register with a sharded batch (declared {support:?}; validate the query \
                 against the shard configuration first)"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// Process-wide counter giving every batch a distinct id, so a handle can
/// only be redeemed against the results of the batch that issued it.
static BATCH_IDS: AtomicU64 = AtomicU64::new(0);

/// Samples each world once and feeds it to every registered observer.
///
/// Built from a graph and a [`MonteCarlo`] configuration (world count,
/// thread count, sampling method); see the [module docs](self) for the
/// determinism contract and a worked example.
pub struct QueryBatch<'g> {
    source: BatchSource<'g>,
    num_worlds: usize,
    threads: usize,
    id: u64,
    observers: Vec<Box<dyn DynObserver>>,
    precision: Option<Precision>,
    cancel: Option<Arc<AtomicBool>>,
}

/// Where a batch's worlds come from: the monolithic engine (owned, as
/// before) or a caller-built shard-aware engine.
enum BatchSource<'g> {
    Monolithic(WorldEngine<'g>),
    Sharded(&'g ShardedWorldEngine<'g>),
}

impl<'g> QueryBatch<'g> {
    /// Creates a batch over `g` driven by the [`MonteCarlo`] configuration
    /// (including its optional [`Precision`] target).
    pub fn new(g: &'g UncertainGraph, mc: &MonteCarlo) -> Self {
        let batch = Self::from_engine(
            WorldEngine::new(g).with_method(mc.method),
            mc.num_worlds,
            mc.threads,
        );
        match mc.precision {
            Some(precision) => batch.with_precision(precision),
            None => batch,
        }
    }

    /// Creates a batch from a pre-built engine (lets callers reuse the
    /// engine's `O(|E| log |E|)` construction across batches).
    pub fn from_engine(engine: WorldEngine<'g>, num_worlds: usize, threads: usize) -> Self {
        Self::from_source(BatchSource::Monolithic(engine), num_worlds, threads)
    }

    /// Creates a batch over a **shard-aware** world source: every sampled
    /// world reaches the observers as a [`ShardedWorld`], so only observers
    /// with an exact sharded path — a cut correction
    /// ([`ShardSupport::CutAware`]) or the ghost-halo exchange
    /// ([`ShardSupport::Halo`], see [`crate::halo`]) — can register;
    /// [`QueryBatch::register`] / [`QueryBatch::register_boxed`] panic on
    /// any other (register through [`QueryBatch::try_register_boxed`], as
    /// `ugs-service` does, to get a typed error instead).
    ///
    /// The replay-partitioned world stream is the same as a monolithic
    /// batch's at equal seeds, so both mechanisms produce bit-identical
    /// results here and in [`QueryBatch::new`].
    pub fn from_sharded(
        engine: &'g ShardedWorldEngine<'g>,
        num_worlds: usize,
        threads: usize,
    ) -> Self {
        Self::from_source(BatchSource::Sharded(engine), num_worlds, threads)
    }

    fn from_source(source: BatchSource<'g>, num_worlds: usize, threads: usize) -> Self {
        QueryBatch {
            source,
            num_worlds,
            threads: threads.max(1),
            id: BATCH_IDS.fetch_add(1, Ordering::Relaxed),
            observers: Vec::new(),
            precision: None,
            cancel: None,
        }
    }

    /// Makes the batch **adaptive**: instead of always sampling
    /// `num_worlds`, the run stops at the first epoch boundary where every
    /// tracked statistic meets the [`Precision`] target (`num_worlds`,
    /// possibly tightened by [`Precision::max_worlds`], stays the hard
    /// budget).  [`BatchResults::adaptive`] then reports the outcome.  The
    /// RNG discipline is unchanged: still exactly one `u64` draw.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Attaches a caller-owned cooperative cancellation flag.  While the
    /// flag is raised, an **adaptive** run stops at its next epoch
    /// checkpoint, after convergence, budget and deadline are consulted, so
    /// cancellation can only shorten a run, never change a converged
    /// answer.  The observers still reflect every world consumed before the
    /// stop and [`AdaptiveReport::stopped`] reads
    /// [`StopReason::Cancelled`].  Fixed-budget runs ignore the flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The adaptive target, when one was set.
    pub fn precision(&self) -> Option<&Precision> {
        self.precision.as_ref()
    }

    /// The number of worlds the batch will sample (the hard budget, for an
    /// adaptive batch).
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// The number of registered observers.
    pub fn num_observers(&self) -> usize {
        self.observers.len()
    }

    /// Whether an observer with the given [`ShardSupport`] can register
    /// with this batch (always true for monolithic batches).
    pub fn admits(&self, support: ShardSupport) -> bool {
        match &self.source {
            BatchSource::Monolithic(engine) => engine.admits(support),
            BatchSource::Sharded(engine) => engine.admits(support),
        }
    }

    fn check_admits(&self, support: ShardSupport) -> Result<(), BatchError> {
        if self.admits(support) {
            Ok(())
        } else {
            Err(BatchError::Unsupported { support })
        }
    }

    /// Fallibly registers an observer; the returned typed handle redeems
    /// its result from [`BatchResults::take`] after [`QueryBatch::run`].
    ///
    /// Returns [`BatchError::Unsupported`] when the batch is sharded
    /// ([`QueryBatch::from_sharded`]) and the observer is
    /// [`ShardSupport::MonolithicOnly`]. This is the path front-ends such
    /// as `ugs-service` build on; the panicking [`QueryBatch::register`]
    /// wrapper exists only for callers that validated support up front.
    pub fn try_register<O: WorldObserver>(
        &mut self,
        observer: O,
    ) -> Result<ObserverHandle<O>, BatchError> {
        self.check_admits(observer.shard_support())?;
        let index = self.observers.len();
        self.observers.push(Box::new(observer));
        Ok(ObserverHandle {
            batch: self.id,
            index,
            _marker: PhantomData,
        })
    }

    /// Registers an observer; thin shim over [`QueryBatch::try_register`]
    /// kept for callers that validated shard support up front — prefer the
    /// fallible path in new code.
    ///
    /// # Panics
    ///
    /// Panics when the batch is sharded ([`QueryBatch::from_sharded`]) and
    /// the observer is [`ShardSupport::MonolithicOnly`].
    pub fn register<O: WorldObserver>(&mut self, observer: O) -> ObserverHandle<O> {
        self.try_register(observer)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallibly registers a type-erased observer (a dynamic registry entry
    /// — see the [module docs](self#the-dynobserver-layer)); the returned
    /// untyped handle redeems the boxed output from
    /// [`BatchResults::try_take_boxed`] after [`QueryBatch::run`].
    ///
    /// Returns [`BatchError::Unsupported`] when the batch is sharded
    /// ([`QueryBatch::from_sharded`]) and the observer is
    /// [`ShardSupport::MonolithicOnly`].
    pub fn try_register_boxed(&mut self, observer: BoxedObserver) -> Result<DynHandle, BatchError> {
        self.check_admits(observer.shard_support())?;
        let index = self.observers.len();
        self.observers.push(observer.0);
        Ok(DynHandle {
            batch: self.id,
            index,
        })
    }

    /// Registers a type-erased observer; thin shim over
    /// [`QueryBatch::try_register_boxed`] kept for callers that validated
    /// shard support up front — prefer the fallible path in new code.
    ///
    /// # Panics
    ///
    /// Panics when the batch is sharded ([`QueryBatch::from_sharded`]) and
    /// the observer is [`ShardSupport::MonolithicOnly`].
    pub fn register_boxed(&mut self, observer: BoxedObserver) -> DynHandle {
        self.try_register_boxed(observer)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Samples the worlds (each exactly once per worker stream) and feeds
    /// every world to all registered observers.
    ///
    /// Advances the caller RNG by **exactly one** `u64` draw, or zero draws
    /// when `num_worlds == 0` or no observer is registered; see the
    /// [module docs](self) for the full determinism contract.
    pub fn run<R: Rng + ?Sized>(self, rng: &mut R) -> BatchResults {
        let QueryBatch {
            source,
            num_worlds,
            threads,
            id,
            observers,
            precision,
            cancel,
        } = self;
        if num_worlds == 0 || observers.is_empty() {
            return BatchResults {
                id,
                num_worlds,
                slots: observers.into_iter().map(Some).collect(),
                adaptive: None,
            };
        }
        let seed = rng.gen::<u64>();
        match precision {
            None => {
                let merged = match &source {
                    BatchSource::Monolithic(engine) => {
                        drive(engine, num_worlds, threads, observers, seed)
                    }
                    BatchSource::Sharded(engine) => {
                        drive(*engine, num_worlds, threads, observers, seed)
                    }
                };
                BatchResults {
                    id,
                    num_worlds,
                    slots: merged.into_iter().map(Some).collect(),
                    adaptive: None,
                }
            }
            Some(precision) => {
                let cap = precision.cap(num_worlds);
                let cancel = cancel.as_deref();
                let (merged, report) = match &source {
                    BatchSource::Monolithic(engine) => {
                        drive_adaptive(engine, cap, threads, observers, seed, &precision, cancel)
                    }
                    BatchSource::Sharded(engine) => {
                        drive_adaptive(*engine, cap, threads, observers, seed, &precision, cancel)
                    }
                };
                BatchResults {
                    id,
                    num_worlds: report.worlds_used,
                    slots: merged.into_iter().map(Some).collect(),
                    adaptive: Some(report),
                }
            }
        }
    }
}

/// The replay-partitioned world loop over any [`WorldSource`]: worker `w`
/// re-derives the shared stream from `seed`, advances past the worlds before
/// its contiguous block and observes its own block; partials merge in worker
/// (= world block) order.  The sampled world sequence is independent of the
/// thread count.
fn drive<S: WorldSource>(
    source: &S,
    num_worlds: usize,
    threads: usize,
    mut observers: Vec<Box<dyn DynObserver>>,
    seed: u64,
) -> Vec<Box<dyn DynObserver>> {
    let threads = threads.clamp(1, num_worlds);
    if threads == 1 {
        let mut worker_rng = SmallRng::seed_from_u64(seed);
        let mut scratch = source.make_scratch();
        for _ in 0..num_worlds {
            let view = source.sample_world(&mut worker_rng, &mut scratch);
            observe_all(&mut observers, &view);
        }
        return observers;
    }
    let base = num_worlds / threads;
    let extra = num_worlds % threads;
    let mut partials: Vec<Vec<Box<dyn DynObserver>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_registries(observers, threads)
            .into_iter()
            .enumerate()
            .map(|(idx, mut workers)| {
                let count = base + usize::from(idx < extra);
                let skip = base * idx + idx.min(extra);
                scope.spawn(move || {
                    let mut worker_rng = SmallRng::seed_from_u64(seed);
                    let mut scratch = source.make_scratch();
                    for _ in 0..skip {
                        source.advance_world(&mut worker_rng, &mut scratch);
                    }
                    for _ in 0..count {
                        let view = source.sample_world(&mut worker_rng, &mut scratch);
                        observe_all(&mut workers, &view);
                    }
                    workers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    });
    // Merge the partial observers in worker (= world block) order.
    let mut merged = partials.remove(0);
    for partial in partials {
        for (into, other) in merged.iter_mut().zip(partial) {
            into.merge_dyn(other);
        }
    }
    merged
}

/// One observer registry per worker: the earlier workers get pristine clones
/// and the last takes `observers` itself, so a parallel run holds `threads`
/// registries, not `threads + 1`.
fn worker_registries(
    observers: Vec<Box<dyn DynObserver>>,
    threads: usize,
) -> Vec<Vec<Box<dyn DynObserver>>> {
    let mut registries: Vec<Vec<Box<dyn DynObserver>>> = (1..threads)
        .map(|_| observers.iter().map(|o| o.clone_dyn()).collect())
        .collect();
    registries.push(observers);
    registries
}

/// Summary of an adaptive ([`Precision`]-driven) batch run, attached to its
/// [`BatchResults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// Worlds actually sampled (what every observer's `finalize` divided
    /// by); at most the batch budget.
    pub worlds_used: usize,
    /// Epoch checkpoints run.
    pub epochs: usize,
    /// Pooled empirical-Bernstein half-width at the final checkpoint — the
    /// *achieved* accuracy ([`f64::INFINITY`] when nothing was tracked).
    pub half_width: f64,
    /// Number of observers that fed the stopping rule.
    pub tracked: usize,
    /// Why the run stopped.
    pub stopped: StopReason,
}

/// The adaptive counterpart of [`drive`]: the same replay-partitioned world
/// stream, consumed in epochs of [`Precision::epoch`] worlds with the pooled
/// [`StoppingRule`] consulted at every epoch barrier.
///
/// Thread-count invariance is *bitwise*, by construction: workers do not
/// merge statistic partials — they record each world's raw tracked scalars,
/// and the barrier leader replays them into the rule's accumulators in world
/// order (worker blocks are contiguous, so worker 0's block followed by
/// worker 1's *is* the sequential order).  Every thread count therefore
/// executes the identical sequence of `record`/`check` calls and consumes
/// the same number of worlds.  The wall-clock deadline and the cooperative
/// `cancel` flag are consulted last at each checkpoint, so they can only
/// shorten a run, never change a converged answer.
fn drive_adaptive<S: WorldSource>(
    source: &S,
    cap: usize,
    threads: usize,
    mut observers: Vec<Box<dyn DynObserver>>,
    seed: u64,
    precision: &Precision,
    cancel: Option<&AtomicBool>,
) -> (Vec<Box<dyn DynObserver>>, AdaptiveReport) {
    let cancelled = || cancel.is_some_and(|flag| flag.load(Ordering::SeqCst));
    let tracked: Vec<usize> = observers
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.tracked_range_dyn().map(|_| i))
        .collect();
    let mut rule = StoppingRule::new(*precision);
    for &i in &tracked {
        let (lo, hi) = observers[i]
            .tracked_range_dyn()
            .expect("tracked observer lost its range");
        rule.register(lo, hi);
    }
    if cap == 0 {
        let report = AdaptiveReport {
            worlds_used: 0,
            epochs: 0,
            half_width: f64::INFINITY,
            tracked: tracked.len(),
            stopped: StopReason::BudgetExhausted,
        };
        return (observers, report);
    }
    let epoch = precision.epoch.max(1);
    let threads = threads.clamp(1, cap);
    let started = Instant::now();
    // An already-expired deadline (e.g. `deadline_ms = 0`) stops the run
    // before the first epoch is paid for: `worlds_used` is deterministically
    // zero and the observers come back pristine, instead of charging a full
    // epoch just to notice at the first checkpoint.
    if rule.deadline_expired(started) {
        let report = AdaptiveReport {
            worlds_used: 0,
            epochs: 0,
            half_width: f64::INFINITY,
            tracked: tracked.len(),
            stopped: StopReason::DeadlineExpired,
        };
        return (observers, report);
    }

    if threads == 1 {
        let mut worker_rng = SmallRng::seed_from_u64(seed);
        let mut scratch = source.make_scratch();
        let mut consumed = 0usize;
        let stopped = loop {
            let block = epoch.min(cap - consumed);
            for _ in 0..block {
                let view = source.sample_world(&mut worker_rng, &mut scratch);
                observe_all(&mut observers, &view);
                for (slot, &i) in tracked.iter().enumerate() {
                    rule.record(slot, observers[i].tracked_statistic_dyn());
                }
            }
            consumed += block;
            if rule.check() {
                break StopReason::Converged;
            }
            if consumed >= cap {
                break StopReason::BudgetExhausted;
            }
            if rule.deadline_expired(started) {
                break StopReason::DeadlineExpired;
            }
            if cancelled() {
                break StopReason::Cancelled;
            }
        };
        let report = AdaptiveReport {
            worlds_used: consumed,
            epochs: rule.checks() as usize,
            half_width: rule.half_width(),
            tracked: tracked.len(),
            stopped,
        };
        return (observers, report);
    }

    let barrier = Barrier::new(threads);
    let rule_mx = Mutex::new(rule);
    // One buffer set per worker: this epoch's raw per-world statistics, in
    // the worker's block order.  Swapped (not copied) across the barrier.
    let stat_slots: Vec<Mutex<Vec<Vec<f64>>>> = (0..threads)
        .map(|_| Mutex::new(vec![Vec::new(); tracked.len()]))
        .collect();
    // 0 = keep sampling; otherwise a StopReason discriminant (set by the
    // barrier leader between the two waits of each epoch, read by every
    // worker after the second wait — never concurrently).
    let decision = AtomicUsize::new(0);
    let mut partials: Vec<Vec<Box<dyn DynObserver>>> = std::thread::scope(|scope| {
        let tracked = &tracked;
        let barrier = &barrier;
        let rule_mx = &rule_mx;
        let stat_slots = &stat_slots;
        let decision = &decision;
        let handles: Vec<_> = worker_registries(observers, threads)
            .into_iter()
            .enumerate()
            .map(|(idx, mut workers)| {
                scope.spawn(move || {
                    let mut worker_rng = SmallRng::seed_from_u64(seed);
                    let mut scratch = source.make_scratch();
                    // Position of this worker's RNG in the shared stream.
                    let mut pos = 0usize;
                    // Worlds consumed globally before the current epoch
                    // (every worker tracks the same value).
                    let mut consumed = 0usize;
                    let mut my_stats: Vec<Vec<f64>> = vec![Vec::new(); tracked.len()];
                    loop {
                        let block = epoch.min(cap - consumed);
                        let base = block / threads;
                        let extra = block % threads;
                        let count = base + usize::from(idx < extra);
                        let start = consumed + base * idx + idx.min(extra);
                        for s in my_stats.iter_mut() {
                            s.clear();
                        }
                        for _ in 0..(start - pos) {
                            source.advance_world(&mut worker_rng, &mut scratch);
                        }
                        for _ in 0..count {
                            let view = source.sample_world(&mut worker_rng, &mut scratch);
                            observe_all(&mut workers, &view);
                            for (slot, &i) in tracked.iter().enumerate() {
                                my_stats[slot].push(workers[i].tracked_statistic_dyn());
                            }
                        }
                        pos = start + count;
                        {
                            let mut slot = stat_slots[idx].lock().expect("stat slot poisoned");
                            std::mem::swap(&mut *slot, &mut my_stats);
                        }
                        if barrier.wait().is_leader() {
                            let mut rule = rule_mx.lock().expect("stopping rule poisoned");
                            let guards: Vec<_> = stat_slots
                                .iter()
                                .map(|s| s.lock().expect("stat slot poisoned"))
                                .collect();
                            // Replay in world order: contiguous worker
                            // blocks, so worker-by-worker IS the sequential
                            // order — the accumulators evolve bit-identically
                            // for every thread count.
                            for (w, guard) in guards.iter().enumerate() {
                                let count_w = base + usize::from(w < extra);
                                for i in 0..count_w {
                                    for slot in 0..tracked.len() {
                                        rule.record(slot, guard[slot][i]);
                                    }
                                }
                            }
                            drop(guards);
                            let total = consumed + block;
                            let verdict = if rule.check() {
                                1
                            } else if total >= cap {
                                2
                            } else if rule.deadline_expired(started) {
                                3
                            } else if cancelled() {
                                4
                            } else {
                                0
                            };
                            decision.store(verdict, Ordering::SeqCst);
                        }
                        barrier.wait();
                        {
                            // Reclaim the still-allocated buffers.
                            let mut slot = stat_slots[idx].lock().expect("stat slot poisoned");
                            std::mem::swap(&mut *slot, &mut my_stats);
                        }
                        consumed += block;
                        if decision.load(Ordering::SeqCst) != 0 {
                            break;
                        }
                    }
                    workers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    });
    let mut merged = partials.remove(0);
    for partial in partials {
        for (into, other) in merged.iter_mut().zip(partial) {
            into.merge_dyn(other);
        }
    }
    let rule = rule_mx.into_inner().expect("stopping rule poisoned");
    let epochs = rule.checks() as usize;
    let stopped = match decision.load(Ordering::SeqCst) {
        1 => StopReason::Converged,
        2 => StopReason::BudgetExhausted,
        3 => StopReason::DeadlineExpired,
        4 => StopReason::Cancelled,
        other => unreachable!("adaptive run finished without a verdict ({other})"),
    };
    let report = AdaptiveReport {
        worlds_used: (epochs * epoch).min(cap),
        epochs,
        half_width: rule.half_width(),
        tracked: tracked.len(),
        stopped,
    };
    (merged, report)
}

/// Dispatches one world view to every observer (the view kind is fixed per
/// source, so the match is loop-invariant in practice).
fn observe_all(observers: &mut [Box<dyn DynObserver>], view: &WorldView<'_>) {
    match view {
        WorldView::Monolithic(world) => {
            for observer in observers.iter_mut() {
                observer.observe_dyn(world);
            }
        }
        WorldView::Sharded(world) => {
            for observer in observers.iter_mut() {
                observer.observe_sharded_dyn(world);
            }
        }
    }
}

impl std::fmt::Debug for QueryBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBatch")
            .field("num_worlds", &self.num_worlds)
            .field("threads", &self.threads)
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// The finished observers of a batch run; redeem each with
/// [`BatchResults::take`] using the handle from [`QueryBatch::register`].
pub struct BatchResults {
    id: u64,
    num_worlds: usize,
    slots: Vec<Option<Box<dyn DynObserver>>>,
    adaptive: Option<AdaptiveReport>,
}

impl BatchResults {
    /// The adaptive run's outcome, when the batch had a [`Precision`]
    /// target; `None` for fixed-budget runs.
    pub fn adaptive(&self) -> Option<&AdaptiveReport> {
        self.adaptive.as_ref()
    }

    /// The number of worlds that were sampled.
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Finalises and returns one observer's result.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from a different batch or the result was
    /// already taken; [`BatchResults::try_take`] is the non-panicking
    /// equivalent.
    pub fn take<O: WorldObserver>(&mut self, handle: ObserverHandle<O>) -> O::Output {
        self.try_take(handle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalises and returns one observer's result, or a [`BatchError`]
    /// when the handle belongs to a different batch or was already
    /// redeemed.
    pub fn try_take<O: WorldObserver>(
        &mut self,
        handle: ObserverHandle<O>,
    ) -> Result<O::Output, BatchError> {
        let observer = self.take_slot(handle.batch, handle.index)?;
        let observer = observer
            .into_any()
            .downcast::<O>()
            .expect("observer handle type mismatch");
        Ok(observer.finalize(self.num_worlds))
    }

    /// Finalises one type-erased observer to its boxed output, or a
    /// [`BatchError`] when the handle belongs to a different batch or was
    /// already redeemed.  The caller downcasts the `Box<dyn Any + Send>`
    /// with its knowledge of the registered query.
    pub fn try_take_boxed(&mut self, handle: DynHandle) -> Result<Box<dyn Any + Send>, BatchError> {
        let observer = self.take_slot(handle.batch, handle.index)?;
        Ok(observer.finalize_dyn(self.num_worlds))
    }

    fn take_slot(&mut self, batch: u64, index: usize) -> Result<Box<dyn DynObserver>, BatchError> {
        if batch != self.id {
            return Err(BatchError::WrongBatch {
                results: self.id,
                handle: batch,
            });
        }
        self.slots
            .get_mut(index)
            .and_then(Option::take)
            .ok_or(BatchError::AlreadyTaken { index })
    }
}

impl std::fmt::Debug for BatchResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchResults")
            .field("num_worlds", &self.num_worlds)
            .field(
                "pending",
                &self.slots.iter().filter(|s| s.is_some()).count(),
            )
            .finish()
    }
}

/// Observer counting how often every edge of the support graph appears in
/// the sampled worlds; finalises to per-edge empirical frequencies (indexed
/// by edge id).  Allocation-free per world — a convenient smoke observer and
/// the cheapest way to validate sampling against edge probabilities.
#[derive(Debug, Clone)]
pub struct EdgeFrequencyObserver {
    counts: Vec<f64>,
    last_fraction: f64,
}

impl EdgeFrequencyObserver {
    /// An observer for the edges of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        EdgeFrequencyObserver {
            counts: vec![0.0; g.num_edges()],
            last_fraction: f64::NAN,
        }
    }
}

impl WorldObserver for EdgeFrequencyObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, world: &WorldScratch) {
        for &e in world.present_edges() {
            self.counts[e as usize] += 1.0;
        }
        self.last_fraction = world.present_edges().len() as f64 / self.counts.len() as f64;
    }

    fn shard_support(&self) -> ShardSupport {
        ShardSupport::CutAware
    }

    fn observe_sharded(&mut self, world: &ShardedWorld<'_>) {
        // Per-shard partial: every present intra-shard edge counts under its
        // stable global id.  Cut correction: the boundary pass counts every
        // present cut edge exactly once.  Integer increments into the same
        // slots as the monolithic path, so the totals are bit-identical.
        let partition = world.partition();
        for (s, shard) in partition.shards().iter().enumerate() {
            for &e in world.shard_present(s) {
                self.counts[shard.global_edge(e as usize)] += 1.0;
            }
        }
        for &c in world.present_cuts() {
            self.counts[partition.cut_edge(c as usize).edge] += 1.0;
        }
        let present: usize = (0..partition.shards().len())
            .map(|s| world.shard_present(s).len())
            .sum::<usize>()
            + world.present_cuts().len();
        self.last_fraction = present as f64 / self.counts.len() as f64;
    }

    /// Tracked statistic: the fraction of support edges present in the last
    /// world, a `[0, 1]` mean whose MC estimate converges to the graph's
    /// mean edge probability.
    fn tracked_range(&self) -> Option<(f64, f64)> {
        (!self.counts.is_empty()).then_some((0.0, 1.0))
    }

    fn tracked_statistic(&self) -> f64 {
        self.last_fraction
    }

    fn merge(&mut self, other: Self) {
        for (t, o) in self.counts.iter_mut().zip(other.counts) {
            *t += o;
        }
    }

    fn finalize(self, num_worlds: usize) -> Vec<f64> {
        if num_worlds == 0 {
            return self.counts;
        }
        self.counts
            .into_iter()
            .map(|c| c / num_worlds as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SampleMethod;

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0)]).unwrap()
    }

    #[test]
    fn edge_frequencies_match_probabilities() {
        let g = toy();
        let mc = MonteCarlo::worlds(30_000).with_method(SampleMethod::Skip);
        let mut batch = QueryBatch::new(&g, &mc);
        let handle = batch.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(3);
        let freq = batch.run(&mut rng).take(handle);
        for (f, p) in freq.iter().zip([0.5, 0.25, 1.0]) {
            assert!((f - p).abs() < 0.01, "{f} vs {p}");
        }
    }

    #[test]
    fn run_consumes_exactly_one_seed_draw() {
        let g = toy();
        let mc = MonteCarlo::worlds(50).with_threads(4);
        let mut batch = QueryBatch::new(&g, &mc);
        let _ = batch.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(11);
        batch.run(&mut rng);
        let mut expected = SmallRng::seed_from_u64(11);
        expected.gen::<u64>();
        assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
    }

    #[test]
    fn empty_batches_do_not_consume_the_rng() {
        let g = toy();
        // no observers
        let batch = QueryBatch::new(&g, &MonteCarlo::worlds(50));
        let mut rng = SmallRng::seed_from_u64(5);
        batch.run(&mut rng);
        // zero worlds
        let mut batch = QueryBatch::new(&g, &MonteCarlo::worlds(0));
        let handle = batch.register(EdgeFrequencyObserver::new(&g));
        let mut results = batch.run(&mut rng);
        assert_eq!(results.take(handle), vec![0.0; 3]);
        let mut untouched = SmallRng::seed_from_u64(5);
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "different batch")]
    fn foreign_handles_are_rejected() {
        let g = toy();
        let mc = MonteCarlo::worlds(5);
        let mut batch_a = QueryBatch::new(&g, &mc);
        let handle_a = batch_a.register(EdgeFrequencyObserver::new(&g));
        let mut batch_b = QueryBatch::new(&g, &mc);
        let _ = batch_b.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut results_b = batch_b.run(&mut rng);
        let _ = results_b.take(handle_a);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_take_panics() {
        let g = toy();
        let mut batch = QueryBatch::new(&g, &MonteCarlo::worlds(5));
        let handle = batch.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut results = batch.run(&mut rng);
        let _ = results.take(handle);
        let _ = results.take(handle);
    }

    #[test]
    fn try_take_reports_errors_instead_of_panicking() {
        let g = toy();
        let mc = MonteCarlo::worlds(5);
        let mut batch_a = QueryBatch::new(&g, &mc);
        let handle_a = batch_a.register(EdgeFrequencyObserver::new(&g));
        let mut batch_b = QueryBatch::new(&g, &mc);
        let handle_b = batch_b.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut results_b = batch_b.run(&mut rng);
        assert!(matches!(
            results_b.try_take(handle_a),
            Err(BatchError::WrongBatch { .. })
        ));
        assert!(results_b.try_take(handle_b).is_ok());
        assert_eq!(
            results_b.try_take(handle_b),
            Err(BatchError::AlreadyTaken { index: 0 })
        );
    }

    /// A deliberately `MonolithicOnly` observer (default `shard_support`).
    #[derive(Debug, Clone)]
    struct MonolithicProbe;

    impl WorldObserver for MonolithicProbe {
        type Output = ();

        fn observe(&mut self, _world: &WorldScratch) {}

        fn merge(&mut self, _other: Self) {}

        fn finalize(self, _num_worlds: usize) {}
    }

    #[test]
    fn try_register_rejects_unsupported_observers_with_a_typed_error() {
        use crate::sharded::ShardedWorldEngine;
        use uncertain_graph::GraphPartition;

        let g = toy();
        let partition = GraphPartition::contiguous(&g, 2).unwrap();
        let engine = ShardedWorldEngine::new(&g, &partition);
        let mut batch = QueryBatch::from_sharded(&engine, 10, 1);
        let err = batch.try_register(MonolithicProbe).unwrap_err();
        assert_eq!(
            err,
            BatchError::Unsupported {
                support: ShardSupport::MonolithicOnly
            }
        );
        let err = batch
            .try_register_boxed(BoxedObserver::new(MonolithicProbe))
            .unwrap_err();
        assert!(matches!(err, BatchError::Unsupported { .. }));
        assert_eq!(
            batch.num_observers(),
            0,
            "failed registrations leave no slot"
        );
        // Cut-aware observers still register, typed and boxed alike.
        assert!(batch.try_register(EdgeFrequencyObserver::new(&g)).is_ok());
        // Monolithic batches admit everything.
        let mut mono = QueryBatch::new(&g, &MonteCarlo::worlds(5));
        assert!(mono.try_register(MonolithicProbe).is_ok());
    }

    #[test]
    #[should_panic(expected = "no sharded path")]
    fn register_shim_still_panics_on_unsupported_observers() {
        use crate::sharded::ShardedWorldEngine;
        use uncertain_graph::GraphPartition;

        let g = toy();
        let partition = GraphPartition::contiguous(&g, 2).unwrap();
        let engine = ShardedWorldEngine::new(&g, &partition);
        let mut batch = QueryBatch::from_sharded(&engine, 10, 1);
        let _ = batch.register(MonolithicProbe);
    }

    #[test]
    fn boxed_observers_run_through_the_dyn_registry() {
        // The same worlds, registered typed in one batch and type-erased in
        // another, must produce bit-identical outputs.
        let g = toy();
        let mc = MonteCarlo::worlds(200);
        let mut rng_typed = SmallRng::seed_from_u64(9);
        let mut typed = QueryBatch::new(&g, &mc);
        let h_typed = typed.register(EdgeFrequencyObserver::new(&g));
        let expected = typed.run(&mut rng_typed).take(h_typed);

        let mut rng_dyn = SmallRng::seed_from_u64(9);
        let mut erased = QueryBatch::new(&g, &mc);
        let h_dyn = erased.register_boxed(BoxedObserver::new(EdgeFrequencyObserver::new(&g)));
        let mut results = erased.run(&mut rng_dyn);
        let boxed = results.try_take_boxed(h_dyn).unwrap();
        let freq = *boxed.downcast::<Vec<f64>>().expect("edge frequencies");
        assert_eq!(freq, expected);
        assert!(matches!(
            results.try_take_boxed(h_dyn),
            Err(BatchError::AlreadyTaken { .. })
        ));
    }
}
