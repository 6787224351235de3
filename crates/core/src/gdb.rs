//! Gradient Descent Backbone (`GDB`, Algorithm 2) and the cut-preserving
//! update rules of Section 5.
//!
//! Given a backbone edge set, `GDB` keeps the structure fixed and iteratively
//! assigns each edge the probability that minimises the squared discrepancy
//! objective `D_k`, holding all other probabilities fixed.  The closed-form
//! optimum for a single edge is Equation 8 (degrees, `k = 1`) or Equation 13
//! (cuts of cardinality up to `k`); steps that would *increase* the edge's
//! entropy are damped by the factor `h ∈ [0, 1]` (Equation 9), which is how
//! the method trades discrepancy against entropy reduction.

use uncertain_graph::{entropy::edge_entropy, EdgeId, UncertainGraph};

use crate::discrepancy::{DegreeTracker, DiscrepancyKind};
use crate::error::SparsifyError;
use crate::kcut::CutRuleCoefficients;
use crate::scratch::{CoreScratch, GdbScratch};

/// Which objective the gradient descent minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutRule {
    /// Preserve expected vertex degrees (`k = 1`, Equation 9).  Supports both
    /// absolute and relative discrepancies through the `π` weights.
    #[default]
    Degree,
    /// Preserve expected cut sizes for all cardinalities up to `k`
    /// (Equation 13/14).  Defined on the absolute discrepancy.
    Cuts(usize),
    /// The `k = n` limit (Equation 16): redistribute the entire missing
    /// probability mass over the remaining edges.  Equivalent to random
    /// probability reassignment; included as the `GDB^A_n` baseline variant.
    AllCuts,
}

/// Configuration of the `GDB` probability-assignment loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GdbConfig {
    /// Absolute (`GDB^A`) or relative (`GDB^R`) discrepancy.
    pub discrepancy: DiscrepancyKind,
    /// Degree rule, `k`-cut rule or the `k = n` limit.
    pub cut_rule: CutRule,
    /// Entropy parameter `h ∈ [0, 1]`: fraction of the optimal step applied
    /// when the step would increase the edge's entropy.  The paper uses 0.05
    /// as the balanced default (Figure 5).
    pub entropy_h: f64,
    /// Convergence threshold `τ` on the improvement of the objective between
    /// consecutive sweeps.
    pub tolerance: f64,
    /// Hard cap on the number of sweeps.
    pub max_iterations: usize,
}

impl Default for GdbConfig {
    fn default() -> Self {
        GdbConfig {
            discrepancy: DiscrepancyKind::Absolute,
            cut_rule: CutRule::Degree,
            entropy_h: 0.05,
            tolerance: 1e-9,
            max_iterations: 200,
        }
    }
}

impl GdbConfig {
    pub(crate) fn validate(&self) -> Result<(), SparsifyError> {
        if !(0.0..=1.0).contains(&self.entropy_h) || !self.entropy_h.is_finite() {
            return Err(SparsifyError::InvalidParameter {
                name: "entropy_h",
                message: format!("{} is outside [0, 1]", self.entropy_h),
            });
        }
        if self.tolerance < 0.0 || !self.tolerance.is_finite() {
            return Err(SparsifyError::InvalidParameter {
                name: "tolerance",
                message: format!("{} must be a non-negative finite number", self.tolerance),
            });
        }
        if self.max_iterations == 0 {
            return Err(SparsifyError::InvalidParameter {
                name: "max_iterations",
                message: "must be at least 1".into(),
            });
        }
        if let CutRule::Cuts(k) = self.cut_rule {
            if k == 0 {
                return Err(SparsifyError::InvalidParameter {
                    name: "cut_rule",
                    message: "k must be at least 1".into(),
                });
            }
        }
        Ok(())
    }
}

/// Output of a `GDB` run.
#[derive(Debug, Clone)]
pub struct GdbResult {
    /// Final probability of every backbone edge (same order as the input
    /// backbone).  Probabilities may be exactly 0 when gradient descent
    /// decided an edge carries no mass; callers materialising an uncertain
    /// graph floor these at a tiny positive value.
    pub probabilities: Vec<(EdgeId, f64)>,
    /// Number of sweeps executed.
    pub iterations: usize,
    /// Objective value `D_1` before the first sweep and after each sweep.
    pub objective_trace: Vec<f64>,
    /// Entropy (bits) of the final assignment.
    pub entropy: f64,
}

impl GdbResult {
    /// Final objective value.
    pub fn final_objective(&self) -> f64 {
        *self.objective_trace.last().expect("trace is never empty")
    }
}

/// Internal mutable state shared by `GDB` and `EMD`: which edges are kept,
/// their degree discrepancies, and the probability of every edge as of the
/// last reset or write-back.
///
/// A run keeps its backbone's current probabilities in slot records, one
/// per backbone slot and in backbone order, and writes them back into
/// `prob` once, at its end.  The state does not borrow the graph, so it can
/// live inside a long-lived [`CoreScratch`] and be
/// [`reset`](AssignmentState::reset) for each run without reallocating.
#[derive(Debug, Default)]
pub(crate) struct AssignmentState {
    /// Probability of every edge of the original graph as of the last reset
    /// or write-back (0 for edges outside the set at the last reset).
    pub(crate) prob: Vec<f64>,
    /// Whether each edge is currently part of the sparsified edge set.
    pub(crate) in_set: Vec<bool>,
    pub(crate) tracker: DegreeTracker,
}

impl AssignmentState {
    /// Initialises the state for `backbone` with the original probabilities,
    /// reusing the buffers, and fills `slots` with one record per backbone
    /// edge, in backbone order.  Whatever the state held before, the tracker
    /// reset reproduces the same expected degrees and the backbone edges are
    /// inserted in the same order with the same floating-point effects, so a
    /// reused state matches a fresh one bit for bit.
    pub(crate) fn reset(
        &mut self,
        g: &UncertainGraph,
        backbone: &[EdgeId],
        kind: DiscrepancyKind,
        slots: &mut Vec<SlotRecord>,
    ) {
        let m = g.num_edges();
        self.prob.clear();
        self.prob.resize(m, 0.0);
        self.in_set.clear();
        self.in_set.resize(m, false);
        self.tracker.reset(g, kind);
        slots.clear();
        for &e in backbone {
            let (u, v) = g.endpoints()[e];
            let p = g.edge_probability(e);
            let slot = SlotRecord { u, v, p, p_hat: p };
            self.prob[e] = p;
            self.insert(e, &slot);
            slots.push(slot);
        }
    }

    /// Adds edge `e`, whose record is `slot`, to the sparsified set: its
    /// probability lowers its endpoints' discrepancies.
    pub(crate) fn insert(&mut self, e: EdgeId, slot: &SlotRecord) {
        debug_assert!(!self.in_set[e], "edge {e} inserted twice");
        self.in_set[e] = true;
        self.tracker
            .apply_edge_change(slot.u as usize, slot.v as usize, 0.0, slot.p);
    }

    /// Removes edge `e`, whose record is `slot`, from the sparsified set:
    /// its probability mass flows back into its endpoints' discrepancies.
    pub(crate) fn remove(&mut self, e: EdgeId, slot: &SlotRecord) {
        debug_assert!(self.in_set[e], "edge {e} removed but not present");
        self.in_set[e] = false;
        self.tracker
            .apply_edge_change(slot.u as usize, slot.v as usize, slot.p, 0.0);
    }

    /// Writes the probabilities of `slots`, the records of `backbone`'s
    /// edges, back into `prob`.
    pub(crate) fn write_back(&mut self, backbone: &[EdgeId], slots: &[SlotRecord]) {
        for (&e, slot) in backbone.iter().zip(slots) {
            self.prob[e] = slot.p;
        }
    }

    /// Entropy of the current assignment (kept edges only).
    pub(crate) fn entropy(&self) -> f64 {
        self.in_set
            .iter()
            .enumerate()
            .filter(|(_, &kept)| kept)
            .map(|(e, _)| edge_entropy(self.prob[e]))
            .sum()
    }
}

/// One backbone edge as the sweeps and the `EMD` E-phase read it: endpoints
/// `(u, v)` (in either orientation), the current probability `p` and the
/// original probability `p̂`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRecord {
    pub(crate) u: u32,
    pub(crate) v: u32,
    pub(crate) p: f64,
    pub(crate) p_hat: f64,
}

impl SlotRecord {
    /// Moves the edge to probability `new_p` and its endpoints'
    /// discrepancies with it.  An update with `|p − new_p| = 0` writes
    /// nothing, so a probability keeps the sign of its zero.
    #[inline]
    pub(crate) fn set_probability(&mut self, tracker: &mut DegreeTracker, new_p: f64) {
        if (self.p - new_p).abs() != 0.0 {
            tracker.apply_edge_change(self.u as usize, self.v as usize, self.p, new_p);
            self.p = new_p;
        }
    }
}

/// Equation 8's step for an edge `(u, v)`, from each endpoint's weight
/// `π` and absolute discrepancy `δA`.  It is symmetric in its endpoints bit
/// for bit (IEEE `+` and `×` commute), so either orientation of an edge
/// gives the same step.
#[inline]
pub(crate) fn degree_step(pi_u: f64, delta_u: f64, pi_v: f64, delta_v: f64) -> f64 {
    let denom = pi_u + pi_v;
    if denom <= 0.0 {
        0.0
    } else {
        (pi_v * delta_u + pi_u * delta_v) / denom
    }
}

/// The optimal probability step for the backbone edge of `slot` under the
/// configured rule, given the current discrepancies (Equations 8, 13 and
/// 16).
#[inline]
fn optimal_step(
    tracker: &DegreeTracker,
    coefficients: Option<&CutRuleCoefficients>,
    cut_rule: CutRule,
    slot: &SlotRecord,
) -> f64 {
    let (u, v) = (slot.u as usize, slot.v as usize);
    match cut_rule {
        CutRule::Degree => degree_step(
            tracker.pi(u),
            tracker.delta_abs(u),
            tracker.pi(v),
            tracker.delta_abs(v),
        ),
        CutRule::Cuts(_) => {
            let coefficients = coefficients.expect("coefficients prepared for CutRule::Cuts");
            let delta_u = tracker.delta_abs(u);
            let delta_v = tracker.delta_abs(v);
            // Δ̂(e): deficit of the edges not incident to u or v.  The total
            // deficit counts every edge once; subtracting the two endpoint
            // discrepancies removes incident edges twice for e itself, so it
            // is added back.
            let own_deficit = slot.p_hat - slot.p;
            let non_incident = tracker.total_deficit() - delta_u - delta_v + own_deficit;
            coefficients.step(delta_u, delta_v, non_incident)
        }
        CutRule::AllCuts => {
            // Equation 16 distributes "the cumulative probability of
            // eliminated edges" onto each remaining edge: the step is the
            // total probability mass still missing from the assignment,
            // excluding edge e's own deficit.  (Read literally over E' the
            // sum would be identically zero at initialisation and the rule
            // would never move; the described behaviour — every edge driven
            // towards probability 1 when much mass is missing — corresponds
            // to summing the deficit over all edges of E.)
            tracker.total_deficit() - (slot.p_hat - slot.p)
        }
    }
}

/// One Equation-9-style update of an edge with probability `old`: take the
/// optimal `step`, clamp into `[0, 1]`, and damp by `h` when the step would
/// increase the edge's entropy.  Returns the new probability.
#[inline]
pub(crate) fn damped_update(old: f64, step: f64, entropy_h: f64) -> f64 {
    let candidate = old + step;
    if candidate < 0.0 {
        0.0
    } else if candidate > 1.0 {
        1.0
    } else if entropy_rises(candidate, old) {
        (old + entropy_h * step).clamp(0.0, 1.0)
    } else {
        candidate
    }
}

/// The margin of [`entropy_rises`]' two bound rules, `2^-36`.
const ENTROPY_MARGIN: f64 = 1.0 / (1u64 << 36) as f64;

/// Rules 1–4 of [`entropy_rises`]: `Some(rises)` when one of them decides,
/// `None` when rule 5 has to evaluate the entropies.
#[inline]
fn entropy_bound(candidate: f64, old: f64) -> Option<bool> {
    let distance_to_certain = |p: f64| if p <= 0.5 { p } else { 1.0 - p };
    let (a, b) = (distance_to_certain(old), distance_to_certain(candidate));
    if b == 0.0 {
        Some(false)
    } else if (a == 0.0 && b > 0.0) || (b - a) * (1.0 - 2.0 * b) > ENTROPY_MARGIN {
        Some(true)
    } else if (a - b) * (1.0 - 2.0 * a) > ENTROPY_MARGIN {
        Some(false)
    } else {
        None
    }
}

/// Exactly `edge_entropy(candidate) > edge_entropy(old)` for probabilities
/// in `[0, 1]`, but calling `log2` only when a certified bound cannot
/// decide: a floating-point filter (Shewchuk, "Adaptive Precision
/// Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997).
///
/// Let `m(p) = p` for `p ≤ ½` and `1 − p` otherwise (exact, by Sterbenz's
/// lemma), `a = m(old)` and `b = m(candidate)`.  The binary entropy `H` is
/// symmetric about ½, so `H(old) = H(a)` and `H(candidate) = H(b)`.  The
/// rules, in order:
///
/// 1. `b = 0` (`candidate ∈ {0, 1}`): `false`.  The computed
///    `edge_entropy(candidate)` is exactly `+0.0` (`log2(1.0)` is `+0.0` by
///    IEEE) and no computed entropy is negative.
/// 2. `a = 0 < b`: `true`.  The computed `edge_entropy(old)` is exactly
///    `+0.0`, and the computed `edge_entropy(candidate)` is strictly
///    positive: the term of `r = b ∈ (0, ½]` (the candidate itself, or
///    `1 − candidate`, computed exactly) is `−r·log2(r)` with true
///    `log2(r) ≤ −1`, so any faithfully rounded `log2` gives a factor
///    `≤ −1 + ulp < 0` and the term rounds to a value `> 0`; the other term
///    is `≥ 0`.
/// 3. `(b − a)(1 − 2b) > 2^-36`: `true`.
/// 4. `(a − b)(1 − 2a) > 2^-36`: `false`.
/// 5. Otherwise evaluate both entropies and compare them.
///
/// Rules 3 and 4 are sound for two reasons.
///
/// * `H` is concave, so for `a < b ≤ ½`, `H(b) − H(a) ≥ H′(b)(b − a)`, and
///   `H′(b) = log2((1 − b)/b) ≥ ln((1 − b)/b) ≥ 1 − b/(1 − b) ≥ 1 − 2b` by
///   `ln y ≥ 1 − 1/y`: the true entropies differ by at least
///   `(1 − 2b)(b − a)` (rule 4 swaps the roles of `a` and `b`).  The three
///   roundings in the bound's own evaluation move it by a relative error
///   below `2^-51`, so a computed bound above `2^-36` leaves a true gap
///   above `2^-37`.
/// * Each computed entropy is within `2^-39` of the truth whenever
///   `f64::log2(x)` is within `2^-40·|log2 x| + 2^-50` of the true value:
///   `x·|log2 x| ≤ 1/(e·ln 2) < 0.54` on `[0, 1]` bounds each of the two
///   terms' logarithm error by `0.54·2^-40 + 2^-50`, and rounding `1 − p`,
///   the two products and the sum adds less than `2^-51`.  So the computed
///   entropies differ by more than `2^-37 − 2·2^-39 > 0`, in the direction
///   the bound says.  This assumption on `log2` is much weaker than the
///   faithful rounding that rule 2 relies on.
///
/// At `old = 0`, which is every `EMD` E-phase candidate, rules 1 and 2
/// decide, so the candidate scan never calls `log2`.  A NaN fails every
/// test and falls through to rule 5.
#[inline]
fn entropy_rises(candidate: f64, old: f64) -> bool {
    entropy_bound(candidate, old).unwrap_or_else(|| edge_entropy(candidate) > edge_entropy(old))
}

/// Validates the backbone edge ids against the graph: the backbone must be
/// non-empty, and every id in range and listed once.  `seen` is a reusable
/// buffer of per-edge flags (its contents are overwritten), so a warm caller
/// validates without allocating.
pub(crate) fn validate_backbone(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    seen: &mut Vec<bool>,
) -> Result<(), SparsifyError> {
    if backbone.is_empty() {
        return Err(SparsifyError::EmptyGraph);
    }
    seen.clear();
    seen.resize(g.num_edges(), false);
    for &e in backbone {
        if e >= g.num_edges() {
            return Err(SparsifyError::Graph(
                uncertain_graph::GraphError::EdgeOutOfRange {
                    edge: e,
                    num_edges: g.num_edges(),
                },
            ));
        }
        if std::mem::replace(&mut seen[e], true) {
            return Err(SparsifyError::InvalidParameter {
                name: "backbone",
                message: format!("edge {e} is listed more than once"),
            });
        }
    }
    Ok(())
}

/// The cut-rule coefficients needed by `config`, if any.
pub(crate) fn prepare_coefficients(
    g: &UncertainGraph,
    config: &GdbConfig,
) -> Option<CutRuleCoefficients> {
    match config.cut_rule {
        CutRule::Cuts(k) => Some(CutRuleCoefficients::new(g.num_vertices().max(2), k)),
        _ => None,
    }
}

/// The `GDB` sweep loop (Algorithm 2): every sweep re-solves **every**
/// backbone edge, in backbone order, for every cut rule.
///
/// The loop reads each edge from its slot record — endpoints, current
/// probability `p` and original probability `p̂` — so a sweep streams
/// through `slots` and touches the graph's edge tables not at all; the
/// `Cuts(k)` and `AllCuts` rules read `p̂ − p` from the record.  `trace`
/// receives the objective before the first sweep and after each sweep; the
/// return value is the number of sweeps executed.  A sweep's `before` is the
/// trace's last entry: the objective is a pure fold of the discrepancies,
/// which have not changed since that entry was evaluated.
pub(crate) fn sweeps(
    tracker: &mut DegreeTracker,
    slots: &mut [SlotRecord],
    config: &GdbConfig,
    coefficients: Option<&CutRuleCoefficients>,
    trace: &mut Vec<f64>,
) -> usize {
    trace.clear();
    trace.push(tracker.objective());
    let mut iterations = 0usize;
    for _ in 0..config.max_iterations {
        let before = *trace.last().expect("trace holds the initial objective");
        for slot in slots.iter_mut() {
            let step = optimal_step(tracker, coefficients, config.cut_rule, slot);
            slot.set_probability(tracker, damped_update(slot.p, step, config.entropy_h));
        }
        let after = tracker.objective();
        trace.push(after);
        iterations += 1;
        if (before - after).abs() <= config.tolerance {
            break;
        }
    }
    iterations
}

/// Runs `GDB` (Algorithm 2) on a fixed backbone, returning the tuned
/// probabilities.  Allocates a transient scratch — use
/// [`gradient_descent_assign_with`] to amortise it across runs.
///
/// The backbone edge ids must be distinct and valid for `g`; an empty
/// backbone, an id out of range or a repeated id is refused with an error.
pub fn gradient_descent_assign(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &GdbConfig,
) -> Result<GdbResult, SparsifyError> {
    let mut scratch = CoreScratch::new();
    gradient_descent_assign_with(g, backbone, config, &mut scratch)
}

/// [`gradient_descent_assign`] with caller-provided scratch space: repeated
/// runs reuse every buffer, so warm sweeps perform zero heap allocations
/// (proven by the counting-allocator suite in `crates/bench/tests`).
pub fn gradient_descent_assign_with(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &GdbConfig,
    scratch: &mut CoreScratch,
) -> Result<GdbResult, SparsifyError> {
    config.validate()?;
    // The run's reset rebuilds the membership flags, so they double as the
    // validation buffer.
    validate_backbone(g, backbone, &mut scratch.gdb.state.in_set)?;
    let coefficients = prepare_coefficients(g, config);
    let GdbScratch {
        state,
        slots,
        trace,
    } = &mut scratch.gdb;
    state.reset(g, backbone, config.discrepancy, slots);
    let iterations = sweeps(
        &mut state.tracker,
        slots,
        config,
        coefficients.as_ref(),
        trace,
    );
    state.write_back(backbone, slots);
    Ok(scratch.gdb.to_result(backbone, iterations))
}

/// `GDB` on the backbone whose records are `slots`, in the reusable
/// `scratch`, as the `EMD` M-phase runs it.  The records restart from their
/// original probabilities, inserted in slot order, and the discrepancies
/// from the original degrees held by `template` (any tracker of the same
/// graph and kind), copied rather than folded again: bit for bit the sweeps
/// of a fresh `GDB` run on that backbone.  Returns the tuned records, in
/// slot order.
pub(crate) fn run_gdb_on_slots<'s>(
    template: &DegreeTracker,
    slots: &[SlotRecord],
    config: &GdbConfig,
    coefficients: Option<&CutRuleCoefficients>,
    scratch: &'s mut GdbScratch,
) -> &'s [SlotRecord] {
    let tracker = &mut scratch.state.tracker;
    tracker.reset_from(template);
    scratch.slots.clear();
    for slot in slots {
        let fresh = SlotRecord {
            p: slot.p_hat,
            ..*slot
        };
        tracker.apply_edge_change(fresh.u as usize, fresh.v as usize, 0.0, fresh.p);
        scratch.slots.push(fresh);
    }
    sweeps(
        tracker,
        &mut scratch.slots,
        config,
        coefficients,
        &mut scratch.trace,
    );
    &scratch.slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_graph::entropy::assignment_entropy;
    use uncertain_graph::UncertainGraphBuilder;

    /// The running example of Figures 2–3 of the paper: the uncertain graph
    /// whose backbone (bold edges) is {(u1,u4), (u2,u4), (u3,u4)}.
    ///
    /// Graph edges: (u1,u2,0.4), (u1,u3,0.2), (u1,u4,0.2), (u2,u4,0.2),
    /// (u3,u4,0.1).  Expected degrees: u1 = 0.8, u2 = 0.6, u3 = 0.3,
    /// u4 = 0.5, so the initial backbone discrepancies are
    /// δ = (0.6, 0.4, 0.2, 0) and D1 = 0.56, exactly the starting objective
    /// the paper quotes for Figure 2.
    fn figure2_graph() -> (UncertainGraph, Vec<EdgeId>) {
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4), // u1-u2
                (0, 2, 0.2), // u1-u3
                (0, 3, 0.2), // u1-u4
                (1, 3, 0.2), // u2-u4
                (2, 3, 0.1), // u3-u4
            ],
        )
        .unwrap();
        let backbone = vec![2, 3, 4]; // the three edges incident to u4
        (g, backbone)
    }

    /// Edge-id forms of the state's updates: each reads the edge's
    /// endpoints and probability by edge id and keeps `prob` current.
    impl AssignmentState {
        /// A fresh state for `backbone` with the original probabilities.
        pub(crate) fn new(g: &UncertainGraph, backbone: &[EdgeId], kind: DiscrepancyKind) -> Self {
            let mut state = AssignmentState::default();
            state.reset(g, backbone, kind, &mut Vec::new());
            state
        }

        /// Edge `e`'s record, with its current probability.
        fn record(&self, g: &UncertainGraph, e: EdgeId) -> SlotRecord {
            let (u, v) = g.endpoints()[e];
            SlotRecord {
                u,
                v,
                p: self.prob[e],
                p_hat: g.edge_probability(e),
            }
        }

        /// Adds edge `e` to the sparsified set with probability `p`.
        pub(crate) fn insert_edge(&mut self, g: &UncertainGraph, e: EdgeId, p: f64) {
            let slot = SlotRecord {
                p,
                ..self.record(g, e)
            };
            self.insert(e, &slot);
            self.prob[e] = p;
        }

        /// Removes edge `e` from the sparsified set (its probability
        /// becomes 0).
        pub(crate) fn remove_edge(&mut self, g: &UncertainGraph, e: EdgeId) {
            self.remove(e, &self.record(g, e));
            self.prob[e] = 0.0;
        }

        /// Changes the probability of a kept edge.
        pub(crate) fn set_probability(&mut self, g: &UncertainGraph, e: EdgeId, new_p: f64) {
            assert!(self.in_set[e], "edge {e} not in the sparsified set");
            let mut slot = self.record(g, e);
            slot.set_probability(&mut self.tracker, new_p);
            self.prob[e] = slot.p;
        }

        /// The optimal step for edge `e` under `cut_rule`, read by edge id
        /// from the graph and the state (the sweeps' step before slot
        /// records, verbatim).
        pub(crate) fn optimal_step(
            &self,
            g: &UncertainGraph,
            coefficients: Option<&CutRuleCoefficients>,
            cut_rule: CutRule,
            e: EdgeId,
        ) -> f64 {
            let (u, v) = g.edge_endpoints(e);
            match cut_rule {
                CutRule::Degree => {
                    let pi_u = self.tracker.pi(u);
                    let pi_v = self.tracker.pi(v);
                    let denom = pi_u + pi_v;
                    if denom <= 0.0 {
                        0.0
                    } else {
                        (pi_v * self.tracker.delta_abs(u) + pi_u * self.tracker.delta_abs(v))
                            / denom
                    }
                }
                CutRule::Cuts(_) => {
                    let coefficients = coefficients.expect("coefficients for CutRule::Cuts");
                    let delta_u = self.tracker.delta_abs(u);
                    let delta_v = self.tracker.delta_abs(v);
                    let own_deficit = g.edge_probability(e) - self.prob[e];
                    let non_incident =
                        self.tracker.total_deficit() - delta_u - delta_v + own_deficit;
                    coefficients.step(delta_u, delta_v, non_incident)
                }
                CutRule::AllCuts => {
                    self.tracker.total_deficit() - (g.edge_probability(e) - self.prob[e])
                }
            }
        }

        /// The damped update of edge `e`: [`damped_update`] from the edge's
        /// probability, with the step read by edge id.
        pub(crate) fn damped_update(
            &self,
            g: &UncertainGraph,
            coefficients: Option<&CutRuleCoefficients>,
            cut_rule: CutRule,
            entropy_h: f64,
            e: EdgeId,
        ) -> f64 {
            let step = self.optimal_step(g, coefficients, cut_rule, e);
            damped_update(self.prob[e], step, entropy_h)
        }
    }

    /// The state's edge set with probabilities, in ascending edge-id order.
    fn kept_edges(state: &AssignmentState) -> Vec<(EdgeId, f64)> {
        (0..state.in_set.len())
            .filter(|&e| state.in_set[e])
            .map(|e| (e, state.prob[e]))
            .collect()
    }

    #[test]
    fn objective_never_increases_and_entropy_drops_with_h1() {
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        for w in result.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "objective increased: {:?}",
                result.objective_trace
            );
        }
        // The paper reports the objective improving from 0.56 to 0.36 on this
        // example (with h = 1); coordinate descent converges to the exact
        // optimum D1 = 0.36 of the backbone, so we require getting there up
        // to the sweep tolerance.
        assert!((result.objective_trace[0] - 0.56).abs() < 1e-9);
        assert!(result.final_objective() <= 0.36 + 1e-4);
        assert!(result.final_objective() < result.objective_trace[0]);
        // The backbone starts with entropy Σ H(p) of the three kept edges;
        // GDB raises probabilities towards 1 so entropy must not increase
        // relative to the *original full graph*.
        let original_entropy = g.entropy();
        assert!(result.entropy < original_entropy);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let (g, backbone) = figure2_graph();
        for h in [0.0, 0.05, 0.5, 1.0] {
            let config = GdbConfig {
                entropy_h: h,
                ..Default::default()
            };
            let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
            for &(_, p) in &result.probabilities {
                assert!((0.0..=1.0).contains(&p), "h={h}, p={p}");
            }
        }
    }

    #[test]
    fn h_zero_never_increases_edge_entropy() {
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            entropy_h: 0.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        for &(e, p) in &result.probabilities {
            let original = g.edge_probability(e);
            assert!(
                edge_entropy(p) <= edge_entropy(original) + 1e-12,
                "edge {e}: H({p}) > H({original})"
            );
        }
    }

    #[test]
    fn h_one_yields_lower_objective_than_h_zero() {
        let (g, backbone) = figure2_graph();
        let zero = gradient_descent_assign(
            &g,
            &backbone,
            &GdbConfig {
                entropy_h: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let one = gradient_descent_assign(
            &g,
            &backbone,
            &GdbConfig {
                entropy_h: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(one.final_objective() <= zero.final_objective() + 1e-12);
        // with h = 0 every per-edge move must keep that edge's entropy from
        // rising, so the total assignment entropy cannot exceed the entropy
        // the same edges had in the original graph.
        let h0_entropy = assignment_entropy(
            &zero
                .probabilities
                .iter()
                .map(|&(_, p)| p)
                .collect::<Vec<_>>(),
        );
        let backbone_original_entropy = assignment_entropy(
            &zero
                .probabilities
                .iter()
                .map(|&(e, _)| g.edge_probability(e))
                .collect::<Vec<_>>(),
        );
        assert!(h0_entropy <= backbone_original_entropy + 1e-9);
    }

    #[test]
    fn relative_discrepancy_variant_converges() {
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            discrepancy: DiscrepancyKind::Relative,
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        // Equation 8's step zeroes the *sum* of the endpoint relative
        // discrepancies rather than the exact least-squares minimiser, so the
        // relative objective may oscillate by tiny amounts near the fixed
        // point; overall it must still drop substantially from the raw
        // backbone and never blow up.
        assert!(result.final_objective() < 0.9 * result.objective_trace[0]);
        for w in result.objective_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-3, "trace step {:?}", w);
        }
        for &(_, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn k2_rule_improves_cut_discrepancy_over_the_raw_backbone() {
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            cut_rule: CutRule::Cuts(2),
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        for &(_, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
        // Exhaustively check the 2-cut objective D2 = Σ_{|S| ≤ 2} δA(S)²
        // against the untouched backbone (original probabilities): the tuned
        // probabilities must not be worse.
        let d2 = |probs: &dyn Fn(usize) -> f64| -> f64 {
            let n = g.num_vertices();
            let cut = |members: &[usize]| -> (f64, f64) {
                let mut orig = 0.0;
                let mut sparse = 0.0;
                for e in g.edges() {
                    let u_in = members.contains(&e.u);
                    let v_in = members.contains(&e.v);
                    if u_in != v_in {
                        orig += e.p;
                        sparse += probs(e.id);
                    }
                }
                (orig, sparse)
            };
            let mut total = 0.0;
            for u in 0..n {
                let (o, s) = cut(&[u]);
                total += (o - s).powi(2);
            }
            for u in 0..n {
                for v in (u + 1)..n {
                    let (o, s) = cut(&[u, v]);
                    total += (o - s).powi(2);
                }
            }
            total
        };
        let tuned: std::collections::HashMap<usize, f64> =
            result.probabilities.iter().copied().collect();
        let backbone_set: std::collections::HashSet<usize> = backbone.iter().copied().collect();
        let tuned_d2 = d2(&|e| tuned.get(&e).copied().unwrap_or(0.0));
        let raw_d2 = d2(&|e| {
            if backbone_set.contains(&e) {
                g.edge_probability(e)
            } else {
                0.0
            }
        });
        assert!(
            tuned_d2 <= raw_d2 + 1e-9,
            "tuned {tuned_d2} vs raw {raw_d2}"
        );
    }

    #[test]
    fn all_cuts_rule_pushes_probabilities_up() {
        // GDB^A_n redistributes the whole missing mass onto every edge, so on
        // a low-probability graph every kept edge is driven towards 1.
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            cut_rule: CutRule::AllCuts,
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        // missing mass is large (≈ 0.8) so each edge should exceed its
        // original probability.
        for &(e, p) in &result.probabilities {
            assert!(p >= g.edge_probability(e) - 1e-12);
        }
    }

    #[test]
    fn degree_rule_on_trivially_satisfiable_backbone_is_exact() {
        // A graph where the backbone equals the full edge set: the optimal
        // assignment is the original probabilities and the objective is 0.
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.4), (1, 2, 0.7)]).unwrap();
        let backbone = vec![0, 1];
        let result = gradient_descent_assign(&g, &backbone, &GdbConfig::default()).unwrap();
        assert!(result.final_objective() < 1e-18);
        for &(e, p) in &result.probabilities {
            assert!((p - g.edge_probability(e)).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (g, backbone) = figure2_graph();
        let bad_h = GdbConfig {
            entropy_h: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            gradient_descent_assign(&g, &backbone, &bad_h),
            Err(SparsifyError::InvalidParameter {
                name: "entropy_h",
                ..
            })
        ));
        let bad_tol = GdbConfig {
            tolerance: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            gradient_descent_assign(&g, &backbone, &bad_tol),
            Err(SparsifyError::InvalidParameter {
                name: "tolerance",
                ..
            })
        ));
        let bad_iter = GdbConfig {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(matches!(
            gradient_descent_assign(&g, &backbone, &bad_iter),
            Err(SparsifyError::InvalidParameter {
                name: "max_iterations",
                ..
            })
        ));
        let bad_k = GdbConfig {
            cut_rule: CutRule::Cuts(0),
            ..Default::default()
        };
        assert!(matches!(
            gradient_descent_assign(&g, &backbone, &bad_k),
            Err(SparsifyError::InvalidParameter {
                name: "cut_rule",
                ..
            })
        ));
        assert!(matches!(
            gradient_descent_assign(&g, &[], &GdbConfig::default()),
            Err(SparsifyError::EmptyGraph)
        ));
        assert!(matches!(
            gradient_descent_assign(&g, &[99], &GdbConfig::default()),
            Err(SparsifyError::Graph(_))
        ));
    }

    #[test]
    fn repeated_backbone_ids_are_refused_by_every_optimiser() {
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 0, 0.4),
                (0, 2, 0.3),
            ],
        )
        .unwrap();
        let backbone = [0, 1, 1, 2];
        let refused = |result: Result<(), SparsifyError>| {
            matches!(
                result,
                Err(SparsifyError::InvalidParameter { name: "backbone", message })
                    if message.contains("edge 1")
            )
        };
        let gdb = gradient_descent_assign(&g, &backbone, &GdbConfig::default());
        assert!(refused(gdb.map(drop)));
        let emd = crate::emd::expectation_maximization_sparsify(
            &g,
            &backbone,
            &crate::emd::EmdConfig::default(),
        );
        assert!(refused(emd.map(drop)));
        assert!(refused(
            crate::lp_assign::lp_assign(&g, &backbone).map(drop)
        ));
        assert!(gradient_descent_assign(&g, &[0, 1, 2], &GdbConfig::default()).is_ok());
    }

    /// `D1` of the assignment `kept`, evaluated by a fresh tracker.
    fn objective_of(g: &UncertainGraph, kept: &[(EdgeId, f64)], kind: DiscrepancyKind) -> f64 {
        let mut tracker = DegreeTracker::new(g, kind);
        for &(e, p) in kept {
            let (u, v) = g.edge_endpoints(e);
            tracker.apply_edge_change(u, v, 0.0, p);
        }
        tracker.objective()
    }

    /// Ground truth for one `GDB` step (degree rule, `h = 1`, absolute
    /// discrepancy): with every other probability fixed, `D1` is a quadratic
    /// in the edge's probability, and one update must land on its exact
    /// minimiser over `[0, 1]`.  The quadratic is fitted to the tracker's own
    /// `objective()` at `p ∈ {0, ½, 1}`, so the check shares nothing with the
    /// Equation-8 step.  Cases are random 3–8-vertex graphs, each walked
    /// edge by edge through three sweeps of a random multi-edge backbone.
    ///
    /// The relative discrepancy is left out on purpose: its step weights the
    /// endpoints by `π(u) = C_G(u)`, which minimises `Σ δA(u)² / C_G(u)`
    /// rather than the `Σ (δA(u) / C_G(u))²` the tracker reports, and misses
    /// this check by up to 0.27 on these cases (ROADMAP, open item "`GDB^R`'s
    /// step minimises another objective than the one it reports").
    #[test]
    fn one_degree_step_lands_on_the_exact_minimiser() {
        let kind = DiscrepancyKind::Absolute;
        let mut rng = SmallRng::seed_from_u64(2024);
        let (mut cases, mut unclamped) = (0usize, 0usize);
        while cases < 400 {
            let n = rng.gen_range(3..9);
            let mut builder = UncertainGraphBuilder::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen::<f64>() < 0.6 {
                        builder.add_edge(u, v, rng.gen_range(0.05..0.95)).unwrap();
                    }
                }
            }
            let g = builder.build();
            if g.num_edges() < 2 {
                continue;
            }
            let mut backbone: Vec<EdgeId> = (0..g.num_edges())
                .filter(|_| rng.gen::<f64>() < 0.6)
                .collect();
            if backbone.is_empty() {
                backbone.push(rng.gen_range(0..g.num_edges()));
            }
            let mut state = AssignmentState::new(&g, &backbone, kind);
            for _ in 0..3 {
                for &e in &backbone {
                    let at = |p: f64| {
                        let kept: Vec<(EdgeId, f64)> = backbone
                            .iter()
                            .map(|&b| (b, if b == e { p } else { state.prob[b] }))
                            .collect();
                        objective_of(&g, &kept, kind)
                    };
                    let (f0, f_half, f1) = (at(0.0), at(0.5), at(1.0));
                    let curvature = 2.0 * (f1 - 2.0 * f_half + f0);
                    let slope = f1 - f0 - curvature;
                    let vertex = -slope / (2.0 * curvature);
                    let minimiser = vertex.clamp(0.0, 1.0);
                    let updated = state.damped_update(&g, None, CutRule::Degree, 1.0, e);
                    assert!(
                        (updated - minimiser).abs() < 1e-9,
                        "case {cases}, edge {e}: step to {updated}, minimiser {minimiser}"
                    );
                    cases += 1;
                    if vertex > 0.0 && vertex < 1.0 {
                        unclamped += 1;
                    }
                    state.set_probability(&g, e, updated);
                }
            }
        }
        assert!(
            unclamped * 4 >= cases,
            "only {unclamped} of {cases} cases are unclamped"
        );
    }

    /// `sweeps` runs over slot records and takes each sweep's `before` from
    /// the trace.  A per-edge-id loop that reads the graph and the state by
    /// edge id and evaluates the objective before every sweep gives the same
    /// probabilities, trace, iteration count and entropy, bit for bit: for
    /// every rule, kind and `h`, on a backbone in ascending, descending and
    /// shuffled edge-id order (so a slot write-back to the wrong edge shows).
    #[test]
    fn slot_sweeps_match_the_per_edge_loop_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 30;
        let mut builder = UncertainGraphBuilder::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if v == u + 1 || rng.gen::<f64>() < 0.15 {
                    builder.add_edge(u, v, rng.gen_range(0.05..0.95)).unwrap();
                }
            }
        }
        let g = builder.build();
        let ascending: Vec<EdgeId> = (0..g.num_edges())
            .filter(|_| rng.gen::<f64>() < 0.4)
            .collect();
        let descending: Vec<EdgeId> = ascending.iter().rev().copied().collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (order, backbone) in [
            ("ascending", &ascending),
            ("descending", &descending),
            ("shuffled", &shuffled),
        ] {
            for kind in [DiscrepancyKind::Absolute, DiscrepancyKind::Relative] {
                for cut_rule in [CutRule::Degree, CutRule::Cuts(2), CutRule::AllCuts] {
                    for h in [0.0, 0.05, 1.0] {
                        let context = format!("{order}, {kind:?}, {cut_rule:?}, h = {h}");
                        let config = GdbConfig {
                            discrepancy: kind,
                            cut_rule,
                            entropy_h: h,
                            tolerance: 1e-6,
                            ..Default::default()
                        };
                        let run = gradient_descent_assign(&g, backbone, &config).unwrap();
                        let coefficients = prepare_coefficients(&g, &config);
                        let mut state = AssignmentState::new(&g, backbone, kind);
                        let mut trace = vec![state.tracker.objective()];
                        let mut iterations = 0;
                        for _ in 0..config.max_iterations {
                            let before = state.tracker.objective();
                            for &e in backbone.iter() {
                                let p =
                                    state.damped_update(&g, coefficients.as_ref(), cut_rule, h, e);
                                state.set_probability(&g, e, p);
                            }
                            let after = state.tracker.objective();
                            trace.push(after);
                            iterations += 1;
                            if (before - after).abs() <= config.tolerance {
                                break;
                            }
                        }
                        let probabilities: Vec<(EdgeId, u64)> = backbone
                            .iter()
                            .map(|&e| (e, state.prob[e].to_bits()))
                            .collect();
                        let got: Vec<(EdgeId, u64)> = run
                            .probabilities
                            .iter()
                            .map(|&(e, p)| (e, p.to_bits()))
                            .collect();
                        assert_eq!(probabilities, got, "{context}: probabilities");
                        assert_eq!(bits(&trace), bits(&run.objective_trace), "{context}: trace");
                        assert_eq!(iterations, run.iterations, "{context}: iterations");
                        assert_eq!(
                            state.entropy().to_bits(),
                            run.entropy.to_bits(),
                            "{context}: entropy"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (g, backbone) = figure2_graph();
        let config = GdbConfig {
            max_iterations: 1,
            tolerance: 0.0,
            ..Default::default()
        };
        let result = gradient_descent_assign(&g, &backbone, &config).unwrap();
        assert_eq!(result.iterations, 1);
        assert_eq!(result.objective_trace.len(), 2);
    }

    #[test]
    fn assignment_state_bookkeeping_is_consistent() {
        let (g, backbone) = figure2_graph();
        let mut state = AssignmentState::new(&g, &backbone, DiscrepancyKind::Absolute);
        assert_eq!(kept_edges(&state), [(2, 0.2), (3, 0.2), (4, 0.1)]);
        state.set_probability(&g, 2, 0.5);
        assert_eq!(kept_edges(&state), [(2, 0.5), (3, 0.2), (4, 0.1)]);
        state.remove_edge(&g, 2);
        assert_eq!(kept_edges(&state), [(3, 0.2), (4, 0.1)]);
        assert_eq!(state.prob[2], 0.0);
        state.insert_edge(&g, 2, 0.7);
        assert_eq!(kept_edges(&state), [(2, 0.7), (3, 0.2), (4, 0.1)]);
        // tracker total deficit counts dropped edges (0, 1) too
        let dropped_mass = 0.4 + 0.2;
        let expected_total = dropped_mass + (0.2 - 0.7);
        assert!((state.tracker.total_deficit() - expected_total).abs() < 1e-12);
    }

    #[test]
    fn reset_state_is_bit_identical_to_fresh_state() {
        let (g, backbone) = figure2_graph();
        let fresh = AssignmentState::new(&g, &backbone, DiscrepancyKind::Relative);
        // Pollute a state with a different run, then reset it.
        let mut reused = AssignmentState::new(&g, &[0, 1], DiscrepancyKind::Absolute);
        reused.set_probability(&g, 0, 0.9);
        reused.reset(&g, &backbone, DiscrepancyKind::Relative, &mut Vec::new());
        assert_eq!(
            fresh.prob.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            reused.prob.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(fresh.in_set, reused.in_set);
        assert_eq!(
            fresh.tracker.objective().to_bits(),
            reused.tracker.objective().to_bits()
        );
    }

    /// The rules of `entropy_rises`, in its order.
    const RULES: [&str; 5] = [
        "1: candidate certain",
        "2: old certain",
        "3: bound rises",
        "4: bound falls",
        "5: logs",
    ];

    /// Checks one pair against the two `edge_entropy` calls and counts the
    /// rule that decided it.
    fn check_pair(candidate: f64, old: f64, taken: &mut [usize; 5]) {
        let certain = |p: f64| p == 0.0 || p == 1.0;
        let rule = match entropy_bound(candidate, old) {
            Some(_) if certain(candidate) => 0,
            Some(_) if certain(old) => 1,
            Some(true) => 2,
            Some(false) => 3,
            None => 4,
        };
        taken[rule] += 1;
        assert_eq!(
            entropy_rises(candidate, old),
            edge_entropy(candidate) > edge_entropy(old),
            "candidate {candidate:e}, old {old:e}, decided by rule {}",
            RULES[rule]
        );
    }

    /// Checks `(c, o)` with its roles swapped and each side mirrored about ½
    /// (`1 − x` is rounded, which only adds pairs), keeping pairs in `[0, 1]`.
    fn check_variants(c: f64, o: f64, taken: &mut [usize; 5]) {
        for (candidate, old) in [(c, o), (o, c), (1.0 - c, o), (c, 1.0 - o)] {
            if (0.0..=1.0).contains(&candidate) && (0.0..=1.0).contains(&old) {
                check_pair(candidate, old, taken);
            }
        }
    }

    /// `entropy_rises` is the two-`edge_entropy` comparison on every seeded
    /// pair of each class the filter has to get right, and every rule
    /// decides some of them.
    #[test]
    fn entropy_rises_is_the_log_comparison() {
        const PAIRS: usize = 40_000;
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut taken = [0usize; 5];
        let log_uniform = |rng: &mut SmallRng| 10f64.powf(-300.0 * rng.gen::<f64>());
        let subnormal = |rng: &mut SmallRng| f64::from_bits(rng.gen_range(1..1u64 << 52));
        let near_half = |rng: &mut SmallRng| 0.5 + (rng.gen::<f64>() - 0.5) * 2e-6;
        let ulps_away = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        for _ in 0..PAIRS {
            // Uniform, log-uniform down to 1e-300, subnormal, near ½.
            check_variants(rng.gen(), rng.gen(), &mut taken);
            check_variants(log_uniform(&mut rng), log_uniform(&mut rng), &mut taken);
            check_variants(subnormal(&mut rng), log_uniform(&mut rng), &mut taken);
            check_variants(subnormal(&mut rng), subnormal(&mut rng), &mut taken);
            check_variants(near_half(&mut rng), near_half(&mut rng), &mut taken);
            // c = 1 − o.
            let o: f64 = rng.gen();
            check_variants(1.0 - o, o, &mut taken);
            // c = o ± k ulps, k ≤ 4, from a uniform, a near-½ and a tiny o.
            let k = rng.gen_range(1..5i64);
            for o in [rng.gen(), near_half(&mut rng), log_uniform(&mut rng)] {
                if o > 0.0 {
                    check_variants(ulps_away(o, k), o, &mut taken);
                    check_variants(ulps_away(o, -k), o, &mut taken);
                }
            }
            // Gaps that put the bound just below or just above the margin.
            let a = rng.gen_range(0.0..0.49);
            let gap = ENTROPY_MARGIN * rng.gen_range(0.98..1.02) / (1.0 - 2.0 * a);
            check_variants(a + gap, a, &mut taken);
        }
        // Exact 0, ½ and 1, against each other and against seeded values.
        let exact = [0.0, 0.5, 1.0];
        for _ in 0..PAIRS / 10 {
            let others = [
                rng.gen(),
                near_half(&mut rng),
                log_uniform(&mut rng),
                subnormal(&mut rng),
            ];
            for x in exact {
                for y in others.into_iter().chain(exact) {
                    check_variants(x, y, &mut taken);
                }
            }
        }
        for (rule, count) in RULES.iter().zip(taken) {
            assert!(count > 0, "rule {rule} never decided: {taken:?}");
        }
    }

    /// `damped_update` before `entropy_rises`, verbatim: both entropies are
    /// evaluated on every update that reaches the comparison.
    fn damped_update_with_logs(
        g: &UncertainGraph,
        state: &AssignmentState,
        coefficients: Option<&CutRuleCoefficients>,
        cut_rule: CutRule,
        entropy_h: f64,
        e: EdgeId,
    ) -> f64 {
        let old = state.prob[e];
        let step = state.optimal_step(g, coefficients, cut_rule, e);
        let candidate = old + step;
        if candidate < 0.0 {
            0.0
        } else if candidate > 1.0 {
            1.0
        } else if edge_entropy(candidate) > edge_entropy(old) {
            (old + entropy_h * step).clamp(0.0, 1.0)
        } else {
            candidate
        }
    }

    /// The filtered `damped_update` steps whole `GDB^A` and `GDB^R` sweeps
    /// bit for bit like the log-evaluating one, on seeded 30-vertex graphs
    /// with uniform and with low (Flickr-like) probabilities, and agrees at
    /// `old = 0` on every non-backbone edge, which is what the `EMD` E-phase
    /// feeds it.
    #[test]
    fn damped_update_matches_the_log_evaluating_update_bit_for_bit() {
        use crate::backbone::{build_backbone, BackboneConfig};
        let n = 30;
        let mut damped = 0usize;
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let low = seed % 2 == 1;
            let mut builder = UncertainGraphBuilder::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if v == u + 1 || rng.gen::<f64>() < 0.15 {
                        let p = if low {
                            10f64.powf(-2.0 * rng.gen::<f64>())
                        } else {
                            rng.gen_range(0.05..0.95)
                        };
                        builder.add_edge(u, v, p).unwrap();
                    }
                }
            }
            let g = builder.build();
            let backbone = build_backbone(&g, 0.4, &BackboneConfig::spanning(), &mut rng).unwrap();
            for kind in [DiscrepancyKind::Absolute, DiscrepancyKind::Relative] {
                for h in [0.0, 0.05, 1.0] {
                    let context = format!("seed {seed}, {kind:?}, h = {h}");
                    let mut state = AssignmentState::new(&g, &backbone, kind);
                    for sweep in 0..30 {
                        for &e in &backbone {
                            let filtered = state.damped_update(&g, None, CutRule::Degree, h, e);
                            let logs =
                                damped_update_with_logs(&g, &state, None, CutRule::Degree, h, e);
                            assert_eq!(
                                filtered.to_bits(),
                                logs.to_bits(),
                                "{context}, sweep {sweep}, edge {e}: {filtered} vs {logs}"
                            );
                            let old = state.prob[e];
                            let step = state.optimal_step(&g, None, CutRule::Degree, e);
                            damped += usize::from(filtered != (old + step).clamp(0.0, 1.0));
                            state.set_probability(&g, e, filtered);
                        }
                        for e in (0..g.num_edges()).filter(|&e| !state.in_set[e]) {
                            assert_eq!(state.prob[e], 0.0);
                            let filtered = state.damped_update(&g, None, CutRule::Degree, h, e);
                            let logs =
                                damped_update_with_logs(&g, &state, None, CutRule::Degree, h, e);
                            assert_eq!(
                                filtered.to_bits(),
                                logs.to_bits(),
                                "{context}, after sweep {sweep}, non-backbone edge {e}"
                            );
                        }
                    }
                }
            }
        }
        assert!(damped > 0, "no sweep update took the damped branch");
    }
}
