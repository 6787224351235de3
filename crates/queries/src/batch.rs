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
//! world through [`WorldObserver::observe`] and adds what it measures into
//! one flat vector of sums, its **partial** ([`WorldObserver::partial`]),
//! from which [`WorldObserver::finalize`] produces the query's result.  The
//! partial is the observer's whole accumulated state, so two observers of
//! one query over disjoint worlds combine by element-wise `+=` of their
//! partials — the one merge every fold uses ([`BoxedObserver::merge`]).
//! Each query surface of this crate ships its observer:
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
//!   pre-batch standalone loop (a `SmallRng` seeded from one caller draw,
//!   each world's kernel output zeroed, filled and added to the totals),
//!   which the `batch_parity` suite keeps as its oracle;
//! * results are invariant to the observer registration order;
//! * order-insensitive accumulators (counts, and statistics derived from
//!   counts such as reliability) are exactly invariant to the thread count;
//!   floating-point sums may differ across thread counts only in their
//!   round-off (partial sums are merged in block order).
//!
//! The replay makes parallel sampling cost `O(threads)` × the sequential
//! sampling cost in total, which is a good trade: per-world kernels (BFS,
//! PageRank, components) dominate sampling, and sampling itself is cheap in
//! the paper's sparsified regime (`O(Σ pₑ)` skip-sampling).
//!
//! ## World blocks and the epoch loop
//!
//! The split itself is a [`BlockPlan`]: epochs of worlds (one epoch for a
//! fixed budget), each cut into `threads` contiguous **world blocks**, and
//! block `b` of every epoch belongs to worker `b`.  A worker's body is a
//! [`SlotRun`]: one replay cursor that advances to each of its blocks in
//! turn and observes it into that block's registry.  In process, a slot
//! holds one block; a fleet worker (the `world_block` op of `ugs-server`)
//! is a slot holding blocks `w, w + workers, …` of the same plan.
//!
//! One loop runs every in-process batch.  Every slot runs on its own
//! scoped thread for the whole batch (a lone slot runs on the caller),
//! which builds the slot's run, steps it one epoch at a time and tears it
//! down.  Slot 0 leads: after each epoch it records every slot's tracked
//! statistics in block order and asks the [`StoppingRule`] whether to
//! stop.  A fixed budget is the one-epoch case with no rule, so no slot
//! waits on another: each tears its run down as soon as its block is done.
//!
//! A block's state crosses a process boundary as its partial
//! ([`crate::partial`] is the exact text codec), and folding the blocks in
//! block order — block 0's partial *is* the result, later blocks `+=` into
//! it — reproduces the in-process answer bit for bit, for every thread
//! count and every fleet size.
//!
//! ## Type-erased observers
//!
//! [`QueryBatch::register`] needs the concrete observer type and
//! [`BatchResults::take`] needs it again to give back a typed `Output`.
//! That works when the caller names every query at compile time, but a
//! *dynamic* front end — a query plan parsed from JSON, a long-lived
//! service accepting arbitrary submissions — only knows its query mix at
//! run time.  [`BoxedObserver`] erases the observer type behind the same
//! observe / partial / finalize lifecycle:
//!
//! * [`BoxedObserver::new`] erases any [`WorldObserver`];
//! * [`QueryBatch::register_boxed`] registers it and returns an untyped
//!   [`DynHandle`];
//! * [`BatchResults::try_take_boxed`] finalises it to a
//!   `Box<dyn Any + Send>` that the front end downcasts with the knowledge
//!   of which query it submitted (`ugs-service` keeps that knowledge in its
//!   `QuerySpec`).
//!
//! A batch stores every observer erased: the typed [`ObserverHandle`] is a
//! [`DynHandle`] that remembers the observer type.
//!
//! ## Fallible redemption
//!
//! [`BatchResults::take`] panics on a foreign or already-redeemed handle,
//! or on a cancelled fixed-budget run — fine for straight-line query code,
//! wrong for a long-lived service.  [`BatchResults::try_take_boxed`]
//! returns a [`BatchError`] instead ([`BatchError::WrongBatch`],
//! [`BatchError::AlreadyTaken`] and [`BatchError::Cancelled`]); `take` is
//! a thin `unwrap` over the crate's `try_take`, which is `try_take_boxed`
//! plus a downcast of the output.
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
use std::borrow::Cow;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::UncertainGraph;

use crate::engine::{WorldEngine, WorldScratch};
use crate::mc::MonteCarlo;
use crate::variance::{Precision, StopReason, StoppingRule};

/// A per-query accumulator fed by the batch driver.
///
/// The observer's accumulated state is its partial
/// ([`WorldObserver::partial`]): [`WorldObserver::observe`] adds each world
/// into it and [`WorldObserver::finalize`] reads the result from it.  The
/// driver clones the registered observer once per world block (clones are
/// taken *before* any observation, so `Clone` must reproduce the pristine
/// state), feeds every world of the block to its clone, and folds the
/// blocks' partials by element-wise `+=` in block order.
///
/// To keep the whole batch allocation-free per world in steady state,
/// `observe` must not allocate: pre-size every buffer in the constructor.
///
/// Implementations that mirror a pre-batch kernel can accumulate straight
/// into their running totals and stay bit-identical to the pre-batch loop
/// (which summed each world's kernel output into the totals) as long as
/// each slot receives at most one floating-point addend per world or only
/// exactly-representable integer counts — true of every observer in this
/// crate, and guarded by the `batch_parity` suite.  A kernel that adds
/// several non-integral contributions to one slot per world must keep the
/// pre-batch zero-a-local-buffer-then-add pattern to preserve the
/// association order.
pub trait WorldObserver: Send + Clone + 'static {
    /// The finalised query result.
    ///
    /// `Send + 'static` so [`BoxedObserver::finalize`] can box the output
    /// as `Box<dyn Any + Send>` and ship it across service channels; every
    /// output in this crate is a plain owned value anyway.
    type Output: Send + 'static;

    /// Observes one sampled world (the scratch exposes both the present
    /// edge ids and the materialised [`graph_algos::DeterministicGraph`]).
    fn observe(&mut self, world: &WorldScratch);

    /// The a-priori closed range `[lo, hi]` of the scalar statistic this
    /// observer feeds the adaptive stopping rule, or `None` (the default)
    /// when the observer tracks no bounded per-world scalar.  Observers
    /// returning `None` still run under an adaptive batch — they ride along
    /// without constraining the stopping decision.
    fn tracked_range(&self) -> Option<(f64, f64)> {
        None
    }

    /// The tracked scalar of the most recently observed world.  The adaptive
    /// driver calls this immediately after every [`WorldObserver::observe`],
    /// and only when [`WorldObserver::tracked_range`] returned `Some`; the
    /// default (never called by the driver) returns NaN.
    fn tracked_statistic(&self) -> f64 {
        f64::NAN
    }

    /// The accumulated state as one flat vector of sums — everything
    /// [`WorldObserver::finalize`] reads besides the observer's fixed
    /// configuration, and the partial a fleet worker ships back for a world
    /// block (see [world blocks](self#world-blocks-and-the-epoch-loop)).
    /// Two observers of one query merge by element-wise `+=` of their
    /// partials, and writing an observer's partial into a pristine clone
    /// reproduces that observer bit for bit.
    fn partial(&self) -> &[f64];

    /// Mutable access to the vector behind [`WorldObserver::partial`]: the
    /// fold adds into it, and a decoded partial is written straight into
    /// a pristine observer.
    fn partial_mut(&mut self) -> &mut [f64];

    /// Consumes the accumulated state and produces the query result;
    /// `num_worlds` is the total number of sampled worlds across all
    /// workers (implementations must tolerate `num_worlds == 0`).
    fn finalize(self, num_worlds: usize) -> Self::Output;
}

/// Object-safe adapter over [`WorldObserver`], blanket-implemented for
/// every observer; [`BoxedObserver`] is the one type that holds it.
trait DynObserver: Send {
    fn observe_dyn(&mut self, world: &WorldScratch);
    fn tracked_range_dyn(&self) -> Option<(f64, f64)>;
    fn tracked_statistic_dyn(&self) -> f64;
    fn partial_dyn(&self) -> &[f64];
    fn partial_mut_dyn(&mut self) -> &mut [f64];
    fn clone_dyn(&self) -> Box<dyn DynObserver>;
    fn finalize_dyn(self: Box<Self>, num_worlds: usize) -> Box<dyn Any + Send>;
}

impl<O: WorldObserver> DynObserver for O {
    fn observe_dyn(&mut self, world: &WorldScratch) {
        self.observe(world);
    }

    fn tracked_range_dyn(&self) -> Option<(f64, f64)> {
        self.tracked_range()
    }

    fn tracked_statistic_dyn(&self) -> f64 {
        self.tracked_statistic()
    }

    fn partial_dyn(&self) -> &[f64] {
        self.partial()
    }

    fn partial_mut_dyn(&mut self) -> &mut [f64] {
        self.partial_mut()
    }

    fn clone_dyn(&self) -> Box<dyn DynObserver> {
        Box::new(self.clone())
    }

    fn finalize_dyn(self: Box<Self>, num_worlds: usize) -> Box<dyn Any + Send> {
        Box::new((*self).finalize(num_worlds))
    }
}

/// An owned, type-erased observer — the unit every registry stores.
/// Create with [`BoxedObserver::new`] and register it with
/// [`QueryBatch::register_boxed`].
pub struct BoxedObserver(Box<dyn DynObserver>);

impl BoxedObserver {
    /// Erases a concrete [`WorldObserver`].
    pub fn new<O: WorldObserver>(observer: O) -> Self {
        BoxedObserver(Box::new(observer))
    }

    /// The range of the statistic the observer feeds an adaptive stopping
    /// rule (see [`WorldObserver::tracked_range`]).
    pub fn tracked_range(&self) -> Option<(f64, f64)> {
        self.0.tracked_range_dyn()
    }

    /// The observer's partial (see [`WorldObserver::partial`]).
    pub fn partial(&self) -> &[f64] {
        self.0.partial_dyn()
    }

    /// The partial's vector, for importing a decoded partial (see
    /// [`WorldObserver::partial_mut`]).
    pub fn partial_mut(&mut self) -> &mut [f64] {
        self.0.partial_mut_dyn()
    }

    /// Folds another block's observer of the same query into this one:
    /// element-wise `+=` of the partials.  Both the in-process block fold
    /// and the fleet coordinator's fold merge through this one method.
    ///
    /// # Panics
    ///
    /// Panics if the two partials differ in length (observers of different
    /// queries).
    pub fn merge(&mut self, other: BoxedObserver) {
        let (into, from) = (self.partial_mut(), other.partial());
        assert_eq!(into.len(), from.len(), "merged partials differ in length");
        for (t, o) in into.iter_mut().zip(from) {
            *t += o;
        }
    }

    /// Finalises to the boxed [`WorldObserver::Output`]; the caller
    /// downcasts with its knowledge of the registered query.
    pub fn finalize(self, num_worlds: usize) -> Box<dyn Any + Send> {
        self.0.finalize_dyn(num_worlds)
    }
}

impl Clone for BoxedObserver {
    fn clone(&self) -> Self {
        BoxedObserver(self.0.clone_dyn())
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
    handle: DynHandle,
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
            .field("batch", &self.handle.batch)
            .field("index", &self.handle.index)
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
/// [`BatchResults::try_take_boxed`] path.
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
    /// The run was a fixed budget stopped by its cancel flag before its
    /// last world (see [`QueryBatch::with_cancel`]), so it has no answer.
    Cancelled,
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
            BatchError::Cancelled => {
                write!(f, "the run was cancelled before its last world")
            }
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
    engine: Cow<'g, WorldEngine<'g>>,
    num_worlds: usize,
    threads: usize,
    id: u64,
    observers: Vec<BoxedObserver>,
    precision: Option<Precision>,
    cancel: Option<Arc<AtomicBool>>,
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

    /// Creates a batch that owns a pre-built engine.
    pub fn from_engine(engine: WorldEngine<'g>, num_worlds: usize, threads: usize) -> Self {
        Self::with_engine(Cow::Owned(engine), num_worlds, threads)
    }

    /// Creates a batch that borrows a pre-built engine, so many batches —
    /// one after another or at once on several threads — share one
    /// engine's `O(|E| log |E|)` construction.
    pub fn on_engine(engine: &'g WorldEngine<'g>, num_worlds: usize, threads: usize) -> Self {
        Self::with_engine(Cow::Borrowed(engine), num_worlds, threads)
    }

    fn with_engine(engine: Cow<'g, WorldEngine<'g>>, num_worlds: usize, threads: usize) -> Self {
        QueryBatch {
            engine,
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
    /// [`StopReason::Cancelled`].  A **fixed-budget** run has no checkpoint
    /// before its last world, so each of its slots checks the flag after
    /// every world; a run it stops has no answer, and every redemption
    /// returns [`BatchError::Cancelled`].
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Registers an observer; the returned typed handle redeems its result
    /// from [`BatchResults::take`] after [`QueryBatch::run`].
    pub fn register<O: WorldObserver>(&mut self, observer: O) -> ObserverHandle<O> {
        ObserverHandle {
            handle: self.register_boxed(BoxedObserver::new(observer)),
            _marker: PhantomData,
        }
    }

    /// Registers a type-erased observer (a dynamic registry entry — see the
    /// [module docs](self#type-erased-observers)); the returned untyped
    /// handle redeems the boxed output from [`BatchResults::try_take_boxed`]
    /// after [`QueryBatch::run`].
    pub fn register_boxed(&mut self, observer: BoxedObserver) -> DynHandle {
        let index = self.observers.len();
        self.observers.push(observer);
        DynHandle {
            batch: self.id,
            index,
        }
    }

    /// Samples the worlds (each exactly once per worker stream) and feeds
    /// every world to all registered observers.
    ///
    /// Advances the caller RNG by **exactly one** `u64` draw, or zero draws
    /// when `num_worlds == 0` or no observer is registered; see the
    /// [module docs](self) for the full determinism contract.
    pub fn run<R: Rng + ?Sized>(self, rng: &mut R) -> BatchResults {
        let QueryBatch {
            engine,
            num_worlds,
            threads,
            id,
            observers,
            precision,
            cancel,
        } = self;
        let results =
            |num_worlds, observers: Vec<BoxedObserver>, adaptive, cancelled| BatchResults {
                id,
                num_worlds,
                slots: observers.into_iter().map(Some).collect(),
                adaptive,
                cancelled,
            };
        if num_worlds == 0 || observers.is_empty() {
            return results(num_worlds, observers, None, false);
        }
        let seed = rng.gen::<u64>();
        match precision {
            None => {
                let plan = BlockPlan::fixed(num_worlds, threads);
                let (merged, stopped) =
                    run_epochs(&engine, seed, plan, observers, None, cancel.as_ref());
                results(num_worlds, merged, None, stopped.is_some())
            }
            Some(precision) => {
                let cap = precision.cap(num_worlds);
                let (merged, report) = drive_adaptive(
                    &engine,
                    cap,
                    threads,
                    observers,
                    seed,
                    &precision,
                    cancel.as_ref(),
                );
                results(report.worlds_used, merged, Some(report), false)
            }
        }
    }
}

/// How a batch's worlds split into **world blocks**: epochs of `epoch`
/// worlds up to the world cap, each split into `blocks` contiguous blocks
/// (the first `len % blocks` blocks one world longer).  A fixed-budget
/// batch is one epoch holding every world.  Block `b` of every epoch
/// belongs to worker `b`, so a worker's blocks ascend through the stream;
/// see the [module docs](self#world-blocks-and-the-epoch-loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPlan {
    cap: usize,
    epoch: usize,
    blocks: usize,
}

impl BlockPlan {
    /// The blocks of a fixed-budget batch of `worlds` worlds run on
    /// `threads` workers: one epoch, `threads.clamp(1, worlds)` blocks.
    pub fn fixed(worlds: usize, threads: usize) -> Self {
        Self::adaptive(worlds, worlds, threads)
    }

    /// The blocks of an adaptive batch: epochs of `epoch` worlds (at least
    /// one) up to `cap`, each split `threads.clamp(1, cap)` ways.
    pub fn adaptive(cap: usize, epoch: usize, threads: usize) -> Self {
        BlockPlan {
            cap,
            epoch: epoch.max(1),
            blocks: threads.clamp(1, cap.max(1)),
        }
    }

    /// The world cap (a fixed batch's budget).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Worlds per epoch.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Blocks per epoch (= workers).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Epochs until the cap.
    pub fn num_epochs(&self) -> usize {
        self.cap.div_ceil(self.epoch)
    }

    /// Worlds consumed by the first `epochs` epochs.
    pub fn worlds_through(&self, epochs: usize) -> usize {
        epochs.saturating_mul(self.epoch).min(self.cap)
    }

    /// The worlds of block `block` in epoch `epoch`: the base/extra split
    /// of the epoch over [`BlockPlan::blocks`] (empty past the cap).
    pub fn block_range(&self, epoch: usize, block: usize) -> Range<usize> {
        let start = self.worlds_through(epoch);
        let len = self.worlds_through(epoch.saturating_add(1)) - start;
        let (base, extra) = (len / self.blocks, len % self.blocks);
        let first = start + base * block + block.min(extra);
        first..first + base + usize::from(block < extra)
    }

    /// How many blocks `slot` of a `slots`-worker fleet runs: blocks
    /// `slot, slot + slots, …` below [`BlockPlan::blocks`].
    pub fn slot_blocks(&self, slot: usize, slots: usize) -> usize {
        if slot >= self.blocks || slots == 0 {
            0
        } else {
            (self.blocks - slot - 1) / slots + 1
        }
    }
}

/// The outside view of a running [`SlotRun`]: its stream position, for
/// liveness probes, and a cooperative cancel flag — both touched after
/// every world, so a long block stays observable and abandonable.
#[derive(Debug, Default)]
pub struct BlockWatch {
    position: AtomicUsize,
    cancelled: Arc<AtomicBool>,
}

impl BlockWatch {
    /// A watch whose cancel flag is `flag`: raising the flag cancels the
    /// run, as [`BlockWatch::cancel`] does.
    fn on(flag: &Arc<AtomicBool>) -> Self {
        BlockWatch {
            position: AtomicUsize::new(0),
            cancelled: Arc::clone(flag),
        }
    }

    /// Worlds sampled or replayed past so far.
    pub fn position(&self) -> usize {
        self.position.load(Ordering::Relaxed)
    }

    /// Asks the run to stop after its current world.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`BlockWatch::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Publishes `position`; `false` once the run should stop.
    fn tick(watch: Option<&BlockWatch>, position: usize) -> bool {
        watch.is_none_or(|watch| {
            watch.position.store(position, Ordering::Relaxed);
            !watch.is_cancelled()
        })
    }
}

/// One worker's share of a batch — **the block body every driver runs**:
/// blocks `slot, slot + slots, …` of a [`BlockPlan`], each with its own
/// observer registry, observed in order on the calling thread by one
/// replay cursor over the shared world stream.
///
/// The in-process epoch loop runs one `SlotRun` per thread (`slots` =
/// thread count, one block each); a fleet worker's `world_block` job runs
/// one per fleet slot.  Either way each registry sees exactly its block's
/// worlds in stream order, so block partials merged in block order
/// reproduce the in-process fold bit for bit.
pub struct SlotRun<'s> {
    engine: &'s WorldEngine<'s>,
    plan: BlockPlan,
    slot: usize,
    slots: usize,
    rng: SmallRng,
    scratch: WorldScratch,
    /// Position of `rng` in the shared stream.
    pos: usize,
    /// One registry per block of the slot, in block order.
    registries: Vec<Vec<BoxedObserver>>,
    /// Indices of the observers that feed an adaptive stopping rule.
    tracked: Vec<usize>,
    epochs: usize,
}

impl<'s> SlotRun<'s> {
    /// Slot `slot` of `slots` over `plan`, replaying the stream of batch
    /// seed `seed`; every block starts from a pristine copy of `observers`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(
        engine: &'s WorldEngine<'s>,
        seed: u64,
        plan: BlockPlan,
        slot: usize,
        slots: usize,
        observers: Vec<BoxedObserver>,
    ) -> Self {
        assert!(slots > 0, "a slot run needs at least one slot");
        let tracked = observers
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.tracked_range().map(|_| i))
            .collect();
        let blocks = plan.slot_blocks(slot, slots);
        // Clones are taken before any observation, so every block starts
        // pristine.
        let mut registries: Vec<Vec<BoxedObserver>> =
            (1..blocks).map(|_| observers.clone()).collect();
        if blocks > 0 {
            registries.insert(0, observers);
        }
        SlotRun {
            engine,
            plan,
            slot,
            slots,
            rng: SmallRng::seed_from_u64(seed),
            scratch: engine.make_scratch(),
            pos: 0,
            registries,
            tracked,
            epochs: 0,
        }
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> usize {
        self.epochs
    }

    /// Runs the next epoch: for each block of the slot, replays the stream
    /// up to the block's start and observes its worlds.  With `stats`,
    /// appends every observed world's tracked statistics — block order,
    /// then world order, then tracked observer order (the layout
    /// [`StoppingRule::record_worlds`] consumes).  Returns `false`, leaving
    /// the run mid-epoch, when `watch` was cancelled.
    pub fn run_epoch(
        &mut self,
        mut stats: Option<&mut Vec<f64>>,
        watch: Option<&BlockWatch>,
    ) -> bool {
        let epoch = self.epochs;
        for (i, registry) in self.registries.iter_mut().enumerate() {
            let range = self.plan.block_range(epoch, self.slot + i * self.slots);
            while self.pos < range.start {
                self.engine.advance_world(&mut self.rng, &mut self.scratch);
                self.pos += 1;
                if !BlockWatch::tick(watch, self.pos) {
                    return false;
                }
            }
            for _ in range {
                self.engine.sample_world(&mut self.rng, &mut self.scratch);
                for observer in registry.iter_mut() {
                    observer.0.observe_dyn(&self.scratch);
                }
                if let Some(stats) = stats.as_deref_mut() {
                    stats.extend(
                        self.tracked
                            .iter()
                            .map(|&t| registry[t].0.tracked_statistic_dyn()),
                    );
                }
                self.pos += 1;
                if !BlockWatch::tick(watch, self.pos) {
                    return false;
                }
            }
        }
        self.epochs += 1;
        true
    }

    /// Appends every block's partials to `out` — block order, then
    /// observer order ([`WorldObserver::partial`]).
    pub fn export_partials(&self, out: &mut Vec<f64>) {
        for observer in self.registries.iter().flatten() {
            out.extend_from_slice(observer.partial());
        }
    }

    /// The registry of a one-block slot (the in-process loop's case).
    fn into_registry(mut self) -> Vec<BoxedObserver> {
        debug_assert_eq!(self.registries.len(), 1, "one block per thread");
        self.registries
            .pop()
            .expect("a thread slot holds one block")
    }
}

/// The stopping side of an adaptive run, consulted after every epoch.
struct Checkpoints<'a> {
    rule: &'a mut StoppingRule,
    started: Instant,
}

/// A follower slot's channels, as its leader holds them: after each epoch
/// the slot's tracked statistics arrive on `done`, and the buffer sent
/// back on `next` starts the slot's next epoch.  Hanging up stops it.
struct Follower {
    next: mpsc::Sender<Vec<f64>>,
    done: mpsc::Receiver<Vec<f64>>,
}

/// The one in-process batch loop, fixed and adaptive alike: one
/// [`SlotRun`] per block of `plan`, each on its own scoped thread (a lone
/// slot runs on the caller), which builds the run, steps it one epoch at a
/// time and tears it down, so its scratch lives and dies on that thread.
/// Slot 0 leads the epochs ([`lead`]).  An adaptive run consults `cancel`
/// at its checkpoints; a fixed budget has none, so each of its slots
/// watches `cancel` after every world instead.  Returns the registries
/// folded in block order — block 0's registry is the result, later blocks
/// merge into it — and the rule's verdict, or [`StopReason::Cancelled`]
/// when a fixed budget's slot stopped short.
fn run_epochs<'s>(
    engine: &'s WorldEngine<'s>,
    seed: u64,
    plan: BlockPlan,
    observers: Vec<BoxedObserver>,
    checkpoints: Option<Checkpoints<'_>>,
    cancel: Option<&Arc<AtomicBool>>,
) -> (Vec<BoxedObserver>, Option<StopReason>) {
    let slots = plan.blocks();
    let adaptive = checkpoints.is_some();
    let new_run = move |slot, registry| SlotRun::new(engine, seed, plan, slot, slots, registry);
    let watch = move || cancel.filter(|_| !adaptive).map(BlockWatch::on);
    // Earlier slots get pristine clones and the last takes `observers`
    // itself, so a run holds `slots` registries, not `slots + 1`.
    let mut registries: Vec<Vec<BoxedObserver>> = (1..slots).map(|_| observers.clone()).collect();
    registries.push(observers);
    let mut registries = registries.into_iter();
    let first = registries.next().expect("a plan has at least one block");
    if slots == 1 {
        return lead(new_run(0, first), Vec::new(), checkpoints, cancel);
    }
    std::thread::scope(|scope| {
        let (followers, ends): (Vec<_>, Vec<_>) = (1..slots)
            .map(|_| {
                let (next, nexts) = mpsc::channel();
                let (finish, done) = mpsc::channel();
                (Follower { next, done }, (nexts, finish))
            })
            .unzip();
        // Spawn in slot order, leader first: spawning the followers first
        // raised perfbench's `fleet` peak RSS by about 0.8 MiB.
        let leader = scope.spawn(move || lead(new_run(0, first), followers, checkpoints, cancel));
        let threads: Vec<_> = registries
            .zip(ends)
            .enumerate()
            .map(|(i, (registry, (nexts, finish)))| {
                scope.spawn(move || {
                    let mut run = new_run(i + 1, registry);
                    let watch = watch();
                    // The first epoch needs no word from the leader, and a
                    // hang-up before or after the statistics go back ends
                    // the slot: a fixed budget's follower never waits.
                    let mut stats = Vec::new();
                    let finished = loop {
                        if !run.run_epoch(adaptive.then_some(&mut stats), watch.as_ref()) {
                            break false;
                        }
                        let Ok(()) = finish.send(stats) else {
                            break true;
                        };
                        let Ok(buffer) = nexts.recv() else { break true };
                        stats = buffer;
                    };
                    (run.into_registry(), finished)
                })
            })
            .collect();
        let (mut merged, mut stopped) = leader.join().expect("worker thread panicked");
        for thread in threads {
            let (registry, finished) = thread.join().expect("worker thread panicked");
            if !finished {
                stopped = Some(StopReason::Cancelled);
            }
            for (into, other) in merged.iter_mut().zip(registry) {
                into.merge(other);
            }
        }
        (merged, stopped)
    })
}

/// Slot 0's side of [`run_epochs`]: each epoch, steps its own `run` (every
/// follower steps its block meanwhile), then, with `checkpoints`, takes
/// every follower's tracked statistics, records all of them in block
/// order — which is world order — and asks the rule for a verdict; to go
/// on, it sends each follower its buffer back.  Without a rule the run is
/// one epoch (a fixed budget), so it hangs up on the followers before
/// stepping, and steps watching `cancel`.  Hanging up stops them.  Returns
/// its own registry and the verdict.
fn lead(
    mut run: SlotRun<'_>,
    mut followers: Vec<Follower>,
    mut checkpoints: Option<Checkpoints<'_>>,
    cancel: Option<&Arc<AtomicBool>>,
) -> (Vec<BoxedObserver>, Option<StopReason>) {
    if checkpoints.is_none() {
        followers.clear();
    }
    let adaptive = checkpoints.is_some();
    let watch = cancel.filter(|_| !adaptive).map(BlockWatch::on);
    let plan = run.plan;
    // Each slot's tracked statistics of the current epoch.
    let mut stats: Vec<Vec<f64>> = vec![Vec::new(); followers.len() + 1];
    let stopped = loop {
        if !run.run_epoch(adaptive.then_some(&mut stats[0]), watch.as_ref()) {
            break Some(StopReason::Cancelled);
        }
        let Some(stop) = checkpoints.as_mut() else {
            break None;
        };
        for (follower, stats) in followers.iter().zip(&mut stats[1..]) {
            *stats = follower.done.recv().expect("worker thread panicked");
        }
        for stats in &mut stats {
            stop.rule.record_worlds(stats);
            stats.clear();
        }
        let worlds = plan.worlds_through(run.epochs_run());
        let verdict =
            stop.rule
                .checkpoint(worlds, plan.cap(), stop.started, cancel.map(Arc::as_ref));
        if verdict.is_some() {
            break verdict;
        }
        for (follower, stats) in followers.iter().zip(&mut stats[1..]) {
            follower
                .next
                .send(std::mem::take(stats))
                .expect("worker thread panicked");
        }
    };
    drop(followers);
    (run.into_registry(), stopped)
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

/// An adaptive batch: [`run_epochs`] over epochs of [`Precision::epoch`]
/// worlds, with the pooled [`StoppingRule`] of the tracked observers
/// consulted at every epoch checkpoint.
///
/// Thread-count invariance is *bitwise*, by construction: slots do not
/// merge statistic partials — they record each world's raw tracked
/// scalars, and slot 0 replays them into the rule's accumulators in world
/// order (blocks are contiguous, so block 0's worlds followed by block 1's
/// *is* the sequential order).  Every thread count therefore executes the
/// identical sequence of `record`/`check` calls and consumes the same
/// number of worlds.
fn drive_adaptive(
    engine: &WorldEngine<'_>,
    cap: usize,
    threads: usize,
    observers: Vec<BoxedObserver>,
    seed: u64,
    precision: &Precision,
    cancel: Option<&Arc<AtomicBool>>,
) -> (Vec<BoxedObserver>, AdaptiveReport) {
    let mut rule = StoppingRule::new(*precision);
    for (lo, hi) in observers.iter().filter_map(BoxedObserver::tracked_range) {
        rule.register(lo, hi);
    }
    let tracked = rule.num_tracked();
    let started = Instant::now();
    // A zero cap, or an already-expired deadline (e.g. `deadline_ms = 0`),
    // stops the run before the first epoch is paid for: `worlds_used` is
    // deterministically zero and the observers come back pristine.
    let early = if cap == 0 {
        Some(StopReason::BudgetExhausted)
    } else if rule.deadline_expired(started) {
        Some(StopReason::DeadlineExpired)
    } else {
        None
    };
    if let Some(stopped) = early {
        let report = AdaptiveReport {
            worlds_used: 0,
            epochs: 0,
            half_width: f64::INFINITY,
            tracked,
            stopped,
        };
        return (observers, report);
    }
    let plan = BlockPlan::adaptive(cap, precision.epoch, threads);
    let checkpoints = Checkpoints {
        rule: &mut rule,
        started,
    };
    let (merged, stopped) = run_epochs(engine, seed, plan, observers, Some(checkpoints), cancel);
    let epochs = rule.checks() as usize;
    let report = AdaptiveReport {
        worlds_used: plan.worlds_through(epochs),
        epochs,
        half_width: rule.half_width(),
        tracked,
        stopped: stopped.expect("an adaptive run stops at a checkpoint"),
    };
    (merged, report)
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
    slots: Vec<Option<BoxedObserver>>,
    adaptive: Option<AdaptiveReport>,
    /// A fixed-budget run stopped short by its cancel flag: the partials
    /// hold fewer worlds than `num_worlds`, so nothing finalises them.
    cancelled: bool,
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
    /// Panics if the handle came from a different batch, the result was
    /// already taken or the run was cancelled;
    /// [`BatchResults::try_take_boxed`] is the non-panicking equivalent.
    pub fn take<O: WorldObserver>(&mut self, handle: ObserverHandle<O>) -> O::Output {
        self.try_take(handle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalises and returns one observer's result, or a [`BatchError`]
    /// when the handle belongs to a different batch or was already
    /// redeemed, or the run was cancelled.
    pub(crate) fn try_take<O: WorldObserver>(
        &mut self,
        handle: ObserverHandle<O>,
    ) -> Result<O::Output, BatchError> {
        let output = self.try_take_boxed(handle.handle)?;
        Ok(*output
            .downcast::<O::Output>()
            .expect("observer handle type mismatch"))
    }

    /// Finalises one type-erased observer to its boxed output, or a
    /// [`BatchError`] when the handle belongs to a different batch or was
    /// already redeemed, or the run was cancelled.  The caller downcasts
    /// the `Box<dyn Any + Send>` with its knowledge of the registered
    /// query.
    pub fn try_take_boxed(&mut self, handle: DynHandle) -> Result<Box<dyn Any + Send>, BatchError> {
        if handle.batch != self.id {
            return Err(BatchError::WrongBatch {
                results: self.id,
                handle: handle.batch,
            });
        }
        if self.cancelled {
            return Err(BatchError::Cancelled);
        }
        let observer = self
            .slots
            .get_mut(handle.index)
            .and_then(Option::take)
            .ok_or(BatchError::AlreadyTaken {
                index: handle.index,
            })?;
        Ok(observer.finalize(self.num_worlds))
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

    /// Tracked statistic: the fraction of support edges present in the last
    /// world, a `[0, 1]` mean whose MC estimate converges to the graph's
    /// mean edge probability.
    fn tracked_range(&self) -> Option<(f64, f64)> {
        (!self.counts.is_empty()).then_some((0.0, 1.0))
    }

    fn tracked_statistic(&self) -> f64 {
        self.last_fraction
    }

    fn partial(&self) -> &[f64] {
        &self.counts
    }

    fn partial_mut(&mut self) -> &mut [f64] {
        &mut self.counts
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
