//! Reusable workspace for the sparsifiers' hot loops.
//!
//! The hot loops of this crate — backbone construction, the `GDB` sweep loop
//! and the `EMD` E/M-phases — all need graph-sized buffers.  Allocating
//! them per call is fine for a one-shot sparsification but wasteful for
//! parameter sweeps and other repeated runs.  [`CoreScratch`] owns every
//! buffer once and is threaded through
//! [`build_backbone_into`](crate::backbone::build_backbone_into),
//! [`gradient_descent_assign_with`](crate::gdb::gradient_descent_assign_with),
//! [`expectation_maximization_sparsify_with`](crate::emd::expectation_maximization_sparsify_with)
//! and [`SparsifierSpec::sparsify_with`](crate::spec::SparsifierSpec::sparsify_with):
//! after a warm-up run, steady-state `GDB` sweeps and `EMD` E-phase
//! iterations perform **zero** heap allocations (proven by the counting
//! `#[global_allocator]` suite in `crates/bench/tests/zero_alloc.rs`).
//!
//! # `EMD`'s books
//!
//! Algorithm 3 reads the vertex with the largest `|δ(u)|` once per backbone
//! edge and replaces a swapped edge in its backbone slot.  `EMD` keeps a
//! cache-aware max-heap over `|δ(u)|`, re-heapified in place at the start
//! of every E-phase (`O(|V|)` Floyd build into reused buffers), and an
//! edge → backbone-position map, so swap bookkeeping is `O(1)`.  The heap's
//! ordering is total (priority, then the smaller vertex id), so its maximum
//! is unique and independent of the internal layout: a peek returns what
//! an argmax scan over `|δ(u)|` returns.  The `emd` unit tests check the
//! loop bit for bit against such a scan-and-search transcription of the
//! paper, which runs every M-phase through the public `GDB`.

use graph_algos::FlatMaxHeap;
use uncertain_graph::EdgeId;

use crate::gdb::AssignmentState;

/// Scratch space for one `GDB` run (also the `EMD` M-phase workspace).
#[derive(Debug, Default)]
pub(crate) struct GdbScratch {
    /// The probability assignment under optimisation.
    pub(crate) state: AssignmentState,
    /// Objective trace of the current run.
    pub(crate) trace: Vec<f64>,
    /// Sweeps executed by the current run.
    pub(crate) iterations: usize,
}

impl GdbScratch {
    /// Materialises the run recorded in this scratch as a `GdbResult`
    /// (allocates the output vectors; the run itself does not).
    pub(crate) fn to_result(&self, backbone: &[EdgeId]) -> crate::gdb::GdbResult {
        crate::gdb::GdbResult {
            probabilities: backbone.iter().map(|&e| (e, self.state.prob[e])).collect(),
            iterations: self.iterations,
            objective_trace: self.trace.clone(),
            entropy: self.state.entropy(),
        }
    }
}

/// Scratch space for one `EMD` run.
#[derive(Debug, Default)]
pub(crate) struct EmdScratch {
    /// The outer probability assignment evolved across EM iterations.
    pub(crate) state: AssignmentState,
    /// Reusable cache-aware max-heap over the vertex discrepancies
    /// `|δ(u)|` (a total order, so a peek is the unique argmax).
    pub(crate) heap: FlatMaxHeap,
    /// Reusable E-phase snapshot of the backbone.
    pub(crate) snapshot: Vec<EdgeId>,
    /// The evolving backbone edge set.
    pub(crate) backbone: Vec<EdgeId>,
    /// `position_of[e]` = slot of `e` in `backbone` (valid only for kept
    /// edges; maintained on every swap).
    pub(crate) position_of: Vec<usize>,
    /// Objective trace across EM iterations.
    pub(crate) trace: Vec<f64>,
    /// M-phase workspace.
    pub(crate) mphase: GdbScratch,
}

/// Scratch space for backbone construction.
#[derive(Debug, Default)]
pub(crate) struct BackboneScratch {
    /// Edge-selected flags.
    pub(crate) selected: Vec<bool>,
    /// Sweep order / remaining-edge pool for the Bernoulli phases.
    pub(crate) order: Vec<EdgeId>,
    /// Weighted-sampling pool.
    pub(crate) pool: Vec<EdgeId>,
    /// `(u, v, p)` triples for the spanning-forest extraction.
    pub(crate) weighted: Vec<(usize, usize, f64)>,
    /// Membership flags of the current spanning forest.
    pub(crate) in_forest: Vec<bool>,
    /// Local-degree nominations `(hub score, edge)`.
    pub(crate) nominated: Vec<(f64, EdgeId)>,
    /// Per-vertex incident-edge buffer of the local-degree construction.
    pub(crate) incident: Vec<(f64, EdgeId)>,
}

/// The shared workspace of the sparsifiers' hot loops.
///
/// Create one with [`CoreScratch::new`] and pass it to the `*_with` /
/// `*_into` entry points; every buffer is sized on first use and reused
/// afterwards.  A single scratch can serve graphs of different sizes and any
/// mix of `GDB`/`EMD`/backbone calls — each run fully re-initialises the
/// slices it reads.  The scratch is deliberately opaque: its layout is an
/// implementation detail of the sparsifiers.
#[derive(Debug, Default)]
pub struct CoreScratch {
    pub(crate) gdb: GdbScratch,
    pub(crate) emd: EmdScratch,
    pub(crate) backbone: BackboneScratch,
    /// Backbone buffer used by `SparsifierSpec::sparsify_with` (taken out of
    /// the scratch while the optimisation phases borrow it).
    pub(crate) spec_backbone: Vec<EdgeId>,
}

impl CoreScratch {
    /// Creates an empty workspace; buffers grow to fit on first use.
    pub fn new() -> Self {
        CoreScratch::default()
    }
}
