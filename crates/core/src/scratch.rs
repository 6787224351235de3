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
//! edge and replaces a swapped edge in its backbone slot.  `EMD` keeps one
//! record per backbone slot (endpoints, current and original probability),
//! so both phases walk the backbone in slot order and a swap rewrites the
//! visited slot: there is no edge → slot map and no per-phase snapshot.  A
//! cache-aware max-heap over `|δ(u)|` is re-heapified in place at the start
//! of every E-phase (`O(|V|)` Floyd build into reused buffers) and updated
//! once per touched vertex per step.  The heap's ordering is total
//! (priority, then the smaller vertex id), so its maximum is unique and
//! independent of the internal layout: a peek returns what an argmax scan
//! over `|δ(u)|` returns.  The `emd` unit tests check the loop bit for bit
//! against such a scan-and-search transcription of the paper, which reads
//! every edge by id and runs every M-phase through the public `GDB`.

use graph_algos::FlatMaxHeap;
use uncertain_graph::EdgeId;

use crate::gdb::{AssignmentState, SlotRecord};

/// Scratch space for one `GDB` run (also the `EMD` M-phase workspace).
#[derive(Debug, Default)]
pub(crate) struct GdbScratch {
    /// The probability assignment under optimisation.
    pub(crate) state: AssignmentState,
    /// One record per backbone edge, in backbone order: gathered once per
    /// run and swept; a public `GDB` run writes them back into `state.prob`
    /// after the last sweep.
    pub(crate) slots: Vec<SlotRecord>,
    /// Objective trace of the current run.
    pub(crate) trace: Vec<f64>,
}

impl GdbScratch {
    /// Materialises the run recorded in this scratch, which took
    /// `iterations` sweeps, as a `GdbResult` (allocates the output vectors;
    /// the run itself does not).
    pub(crate) fn to_result(
        &self,
        backbone: &[EdgeId],
        iterations: usize,
    ) -> crate::gdb::GdbResult {
        crate::gdb::GdbResult {
            probabilities: backbone
                .iter()
                .zip(&self.slots)
                .map(|(&e, slot)| (e, slot.p))
                .collect(),
            iterations,
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
    /// The evolving backbone edge set: a swap replaces an edge in its slot.
    pub(crate) backbone: Vec<EdgeId>,
    /// The outer assignment's record of every backbone slot, in `backbone`'s
    /// order: gathered once per run, rewritten on a swap and retuned after
    /// every M-phase.
    pub(crate) slots: Vec<SlotRecord>,
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
