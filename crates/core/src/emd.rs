//! Expectation-Maximization Degree (`EMD`, Algorithm 3).
//!
//! `GDB` only tunes probabilities of a *fixed* backbone, so it is sensitive to
//! the backbone choice.  `EMD` additionally restructures the backbone:
//!
//! * **E-phase** — for each backbone edge `e = (u, v)`: temporarily remove it
//!   (returning its probability mass to the discrepancies of `u` and `v`),
//!   look at the vertex `v_H` with the *largest* current discrepancy (kept in
//!   an addressable max-heap), and among the non-backbone edges incident to
//!   `v_H` (plus `e` itself) re-insert the edge with the highest *gain*
//!   (Equation 10) at its optimal probability (Equation 9).
//! * **M-phase** — run `GDB` on the restructured backbone.
//!
//! The loop repeats until the objective improvement falls below the
//! tolerance.  Thanks to the vertex heap, each E-phase costs
//! `O(α|E| log|V|)` heap work instead of the `O(α(1-α)|E|² log|V| / |V|)` of
//! the naive edge-heap formulation (Section 4.3).
//!
//! The loop keeps its books in a reusable [`CoreScratch`] and reads its
//! data in the order the algorithm visits it, not by edge id:
//!
//! * Every backbone slot has a record: endpoints, current and original
//!   probability.  The E-phase walks the slots in order and reads the
//!   removed edge from its record; a swap rewrites the visited slot.
//! * A candidate is scored straight from `v_H`'s adjacency entry `(w, c)`:
//!   only `in_set[c]` and `w`'s discrepancy are loaded.
//! * The vertex heap is re-heapified in place at each E-phase start, and
//!   each step updates every vertex it touched once, with its final value.
//!   `v_H` is the best of the removed edge's endpoints, read fresh, and the
//!   best heap entry that is neither of them.
//! * The M-phase runs `GDB`'s one sweep loop over a copy of the records,
//!   from the original degrees the run already folded.
//!
//! No floating-point operation differs from Algorithm 3 as the paper states
//! it: a candidate's probability and gain are symmetric in its endpoints,
//! bit for bit, so reading it as `(v_H, w)` changes nothing.  The unit
//! tests hold a heap-free transcription of Algorithm 3 (an argmax scan for
//! `v_H`, candidates and removed edges read by edge id, a linear search for
//! each swapped slot, a fresh `GDB` per M-phase) and check this loop against
//! it bit for bit.

use std::time::{Duration, Instant};

use graph_algos::FlatMaxHeap;
use uncertain_graph::{EdgeId, UncertainGraph, VertexId};

use crate::discrepancy::{DegreeTracker, DiscrepancyKind};
use crate::error::SparsifyError;
use crate::gdb::{
    damped_update, degree_step, run_gdb_on_slots, validate_backbone, AssignmentState, CutRule,
    GdbConfig, SlotRecord,
};
use crate::scratch::CoreScratch;

/// Configuration of the `EMD` sparsifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmdConfig {
    /// Absolute (`EMD^A`) or relative (`EMD^R`) discrepancy.
    pub discrepancy: DiscrepancyKind,
    /// Entropy parameter `h ∈ [0, 1]` shared with the embedded `GDB`.
    pub entropy_h: f64,
    /// Convergence threshold `τ` on the objective improvement of a full
    /// E-phase + M-phase iteration.
    pub tolerance: f64,
    /// Hard cap on the number of EM iterations.
    pub max_iterations: usize,
    /// Configuration of the embedded `GDB` M-phase.  Only its `tolerance`
    /// and `max_iterations` are read: `discrepancy` and `entropy_h` come from
    /// the fields above, and the M-phase always runs the degree rule.
    pub gdb: GdbConfig,
}

impl Default for EmdConfig {
    fn default() -> Self {
        EmdConfig {
            discrepancy: DiscrepancyKind::Absolute,
            entropy_h: 0.05,
            tolerance: 1e-9,
            max_iterations: 20,
            gdb: GdbConfig::default(),
        }
    }
}

impl EmdConfig {
    fn validate(&self) -> Result<(), SparsifyError> {
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
        Ok(())
    }

    fn mphase_gdb(&self) -> GdbConfig {
        GdbConfig {
            discrepancy: self.discrepancy,
            entropy_h: self.entropy_h,
            cut_rule: CutRule::Degree,
            ..self.gdb
        }
    }
}

/// Output of an `EMD` run.
#[derive(Debug, Clone)]
pub struct EmdResult {
    /// Final edge set with probabilities (edge ids refer to the input graph).
    pub probabilities: Vec<(EdgeId, f64)>,
    /// Number of EM iterations executed.
    pub iterations: usize,
    /// Objective after the initial backbone and after each EM iteration.
    pub objective_trace: Vec<f64>,
    /// Number of edge swaps performed across all E-phases (an edge replaced
    /// by a different edge).
    pub swaps: usize,
    /// Entropy (bits) of the final assignment.
    pub entropy: f64,
    /// Wall-clock time of every E-phase, summed.
    pub(crate) e_phase: Duration,
    /// Wall-clock time of every M-phase (the `GDB` sweeps and the copy of
    /// their probabilities into the outer assignment), summed.
    pub(crate) m_phase: Duration,
}

/// Runs `EMD` (Algorithm 3) starting from the given backbone.  Allocates a
/// transient scratch — use [`expectation_maximization_sparsify_with`] to
/// amortise it.
///
/// The number of kept edges always equals the backbone size: every E-phase
/// swap removes one edge and inserts exactly one.  The backbone edge ids must
/// be distinct and valid for `g`; an empty backbone, an id out of range or a
/// repeated id is refused with an error.
pub fn expectation_maximization_sparsify(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &EmdConfig,
) -> Result<EmdResult, SparsifyError> {
    let mut scratch = CoreScratch::new();
    expectation_maximization_sparsify_with(g, backbone, config, &mut scratch)
}

/// [`expectation_maximization_sparsify`] with caller-provided scratch space:
/// repeated runs reuse the outer state, the slot records, the vertex heap
/// and the M-phase workspace, so warm E-phase iterations perform zero heap
/// allocations.
///
/// * The vertex heap is re-heapified in place (`O(|V|)` Floyd build into
///   reused buffers) at each E-phase start.  After each step it is updated
///   once per touched vertex, with that vertex's final discrepancy: the
///   removed edge's endpoints, and on a swap also `v_H` and the inserted
///   edge's other endpoint, the only vertices whose discrepancy changed.
/// * A swap rewrites only the slot being visited, so the E-phase walks the
///   backbone by slot index, with no edge → slot map and no snapshot.
/// * The M-phase runs the `GDB` sweeps on a copy of the slot records in the
///   reusable M-phase workspace and retunes the outer assignment slot by
///   slot, without materialising an intermediate `GdbResult`.
/// * The result records the summed wall time of each phase, which the
///   spec's [`PhaseTimings`](crate::PhaseTimings) report.
pub fn expectation_maximization_sparsify_with(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &EmdConfig,
    scratch: &mut CoreScratch,
) -> Result<EmdResult, SparsifyError> {
    config.validate()?;
    // The embedded M-phase configuration is validated up front, so an
    // invalid nested config is refused before any work.
    config.mphase_gdb().validate()?;
    // The run resets these membership flags before reading them, so they
    // double as the validation buffer.
    validate_backbone(g, backbone, &mut scratch.emd.state.in_set)?;

    let crate::scratch::EmdScratch {
        state,
        heap,
        backbone: current,
        slots,
        trace,
        mphase,
    } = &mut scratch.emd;

    // Lines 1–5 of Algorithm 3: the initial assignment keeps the backbone
    // with its original probabilities.
    state.reset(g, backbone, config.discrepancy, slots);
    current.clear();
    current.extend_from_slice(backbone);
    trace.clear();
    trace.push(state.tracker.objective());

    let mphase_config = config.mphase_gdb();
    let mut swaps = 0usize;
    let mut iterations = 0usize;
    let (mut e_phase, mut m_phase) = (Duration::ZERO, Duration::ZERO);

    for _ in 0..config.max_iterations {
        // The state has not changed since the trace's last entry.
        let before = *trace.last().expect("trace holds the initial objective");

        // ---------------- E-phase: restructure the backbone ----------------
        // Each slot is visited once and a swap rewrites only the slot being
        // visited, so every edge met here is still kept when its turn comes.
        let phase_started = Instant::now();
        heap.rebuild(g.num_vertices(), |u| state.tracker.delta(u).abs());
        for (edge, slot) in current.iter_mut().zip(slots.iter_mut()) {
            let e = *edge;
            let (u, v) = (slot.u as usize, slot.v as usize);
            state.remove(e, slot);
            let v_h = worst_vertex(heap, &state.tracker, u, v);
            let (chosen, w, prob) = best_candidate(g, state, config.entropy_h, v_h, (e, u, v));
            if chosen == e {
                slot.p = prob;
            } else {
                swaps += 1;
                *edge = chosen;
                *slot = SlotRecord {
                    u: v_h as u32,
                    v: w as u32,
                    p: prob,
                    p_hat: g.edge_probability(chosen),
                };
            }
            state.insert(chosen, slot);
            // Every touched vertex gets one update, with its final value.
            heap.update(u, state.tracker.delta(u).abs());
            heap.update(v, state.tracker.delta(v).abs());
            if chosen != e {
                for x in [v_h, w] {
                    if x != u && x != v {
                        heap.update(x, state.tracker.delta(x).abs());
                    }
                }
            }
        }
        e_phase += phase_started.elapsed();

        // ---------------- M-phase: retune probabilities with GDB -----------
        // GDB restarts from the original probabilities of the restructured
        // backbone, bit for bit a fresh `GDB` run on it, and its tuned
        // probabilities move the outer assignment slot by slot.  The heap is
        // not maintained here — the next E-phase re-heapifies in O(|V|),
        // which is far cheaper than 2α|E| logarithmic updates.
        let phase_started = Instant::now();
        let tuned = run_gdb_on_slots(&state.tracker, slots, &mphase_config, None, mphase);
        for (slot, tuned) in slots.iter_mut().zip(tuned) {
            slot.set_probability(&mut state.tracker, tuned.p);
        }
        m_phase += phase_started.elapsed();

        let after = state.tracker.objective();
        trace.push(after);
        iterations += 1;
        if (before - after).abs() <= config.tolerance {
            break;
        }
    }

    state.write_back(current, slots);
    Ok(EmdResult {
        probabilities: current
            .iter()
            .zip(slots.iter())
            .map(|(&e, slot)| (e, slot.p))
            .collect(),
        iterations,
        objective_trace: trace.clone(),
        swaps,
        entropy: state.entropy(),
        e_phase,
        m_phase,
    })
}

/// The vertex `v_H` with the largest `|δ|` right after an edge `(u, v)` was
/// removed, in the heap's total order.  Only `u` and `v` changed since the
/// heap was last brought up to date, so `v_H` is the best of their fresh
/// entries and the best heap entry that is neither of them.
fn worst_vertex(heap: &FlatMaxHeap, tracker: &DegreeTracker, u: VertexId, v: VertexId) -> VertexId {
    let at_u = (u, tracker.delta(u).abs());
    let at_v = (v, tracker.delta(v).abs());
    let mut best = if FlatMaxHeap::ranks_above(at_v, at_u) {
        at_v
    } else {
        at_u
    };
    if let Some(rest) = heap.peek_excluding(u, v) {
        if FlatMaxHeap::ranks_above(rest, best) {
            best = rest;
        }
    }
    best.0
}

/// What scoring a candidate edge reads of one of its endpoints.
#[derive(Clone, Copy)]
struct Endpoint {
    /// The weight `π` of Equation 7.
    pi: f64,
    /// The absolute discrepancy `δA`.
    delta_abs: f64,
    /// The discrepancy in the run's kind (`δA` or `δR`).
    delta: f64,
}

impl Endpoint {
    fn of(tracker: &DegreeTracker, x: VertexId) -> Self {
        Endpoint {
            pi: tracker.pi(x),
            delta_abs: tracker.delta_abs(x),
            delta: tracker.delta(x),
        }
    }

    /// This endpoint's share of the gain of inserting an edge with
    /// probability `p` (Equation 10): inserting it lowers the *absolute*
    /// discrepancy by `p`; in relative mode the change is scaled by the
    /// original degree.
    fn gain(self, p: f64) -> f64 {
        let after = if self.pi > 0.0 {
            self.delta - p / self.pi
        } else {
            self.delta
        };
        self.delta * self.delta - after * after
    }
}

/// The probability (Equation 9 on a non-kept edge, whose probability is 0)
/// and the insertion gain (Equation 10) of a candidate edge `(a, b)`.  Both
/// are symmetric in the endpoints, bit for bit.
fn score(a: Endpoint, b: Endpoint, entropy_h: f64) -> (f64, f64) {
    let step = degree_step(a.pi, a.delta_abs, b.pi, b.delta_abs);
    let p = damped_update(0.0, step, entropy_h);
    (p, a.gain(p) + b.gain(p))
}

/// Picks the E-phase replacement for the removed edge `(e, u, v)`: among the
/// non-kept edges incident to the worst vertex `v_h` (plus `e` itself), the
/// edge with the highest insertion gain, ties broken towards the smaller
/// edge id.  Returns the edge, its endpoint other than `v_h` (meaningful
/// when it is not `e`) and its probability.
///
/// Candidates are scored in adjacency order, then `e`: the tie rule is not
/// transitive, so the order is part of the answer.  Each candidate is read
/// straight from `v_h`'s adjacency entry `(w, c)`: a non-kept edge's
/// probability is 0, so only `in_set[c]` and `w`'s discrepancy are loaded,
/// and `v_h`'s own values once per scan.  A probability-0 candidate is
/// decided without a `log2` call by `damped_update`'s entropy filter.
fn best_candidate(
    g: &UncertainGraph,
    state: &AssignmentState,
    entropy_h: f64,
    v_h: VertexId,
    (e, u, v): (EdgeId, VertexId, VertexId),
) -> (EdgeId, VertexId, f64) {
    let tracker = &state.tracker;
    let mut best: Option<(EdgeId, VertexId, f64, f64)> = None; // (edge, w, prob, gain)
    let mut consider = |candidate: EdgeId, w: VertexId, (p, gain): (f64, f64)| {
        let better = match best {
            None => true,
            Some((be, _, _, bg)) => gain > bg + 1e-15 || (gain >= bg - 1e-15 && candidate < be),
        };
        if better {
            best = Some((candidate, w, p, gain));
        }
    };
    let worst = Endpoint::of(tracker, v_h);
    for (w, candidate, _) in g.neighbors(v_h) {
        if !state.in_set[candidate] {
            consider(
                candidate,
                w,
                score(worst, Endpoint::of(tracker, w), entropy_h),
            );
        }
    }
    consider(
        e,
        v,
        score(
            Endpoint::of(tracker, u),
            Endpoint::of(tracker, v),
            entropy_h,
        ),
    );
    let (chosen, w, prob, _) = best.expect("at least the removed edge itself is a candidate");
    (chosen, w, prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{build_backbone, BackboneConfig};
    use crate::gdb::gradient_descent_assign;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_graph::UncertainGraphBuilder;

    impl EmdResult {
        /// Final objective value.
        fn final_objective(&self) -> f64 {
            *self.objective_trace.last().expect("trace is never empty")
        }
    }

    /// Figure 2/3 running example (see `gdb::tests::figure2_graph`).
    fn figure2_graph() -> (UncertainGraph, Vec<EdgeId>) {
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 3, 0.2),
                (2, 3, 0.1),
            ],
        )
        .unwrap();
        (g, vec![2, 3, 4])
    }

    fn random_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = UncertainGraphBuilder::new(n);
        for u in 0..n {
            b.add_edge(u, (u + 1) % n, 0.1 + 0.8 * rng.gen::<f64>())
                .unwrap();
        }
        let mut added = n;
        while added < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v
                && b.add_edge_if_absent(u, v, 0.05 + 0.9 * rng.gen::<f64>())
                    .unwrap()
            {
                added += 1;
            }
        }
        b.build()
    }

    #[test]
    fn emd_keeps_the_edge_count_and_valid_probabilities() {
        let g = random_graph(1, 30, 120);
        let mut rng = SmallRng::seed_from_u64(5);
        let backbone = build_backbone(&g, 0.3, &BackboneConfig::spanning(), &mut rng).unwrap();
        let config = EmdConfig {
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = expectation_maximization_sparsify(&g, &backbone, &config).unwrap();
        assert_eq!(result.probabilities.len(), backbone.len());
        let unique: std::collections::HashSet<_> =
            result.probabilities.iter().map(|&(e, _)| e).collect();
        assert_eq!(
            unique.len(),
            backbone.len(),
            "duplicate edges in the result"
        );
        for &(e, p) in &result.probabilities {
            assert!(e < g.num_edges());
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn emd_matches_or_beats_gdb_on_the_paper_example() {
        // The paper reports that EMD restructures the Figure 2 backbone and
        // improves D1 to ~0.01, far below GDB's 0.36 on the same backbone.
        let (g, backbone) = figure2_graph();
        let emd = expectation_maximization_sparsify(
            &g,
            &backbone,
            &EmdConfig {
                entropy_h: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let gdb = gradient_descent_assign(
            &g,
            &backbone,
            &GdbConfig {
                entropy_h: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(emd.final_objective() <= gdb.final_objective() + 1e-9);
        assert!(
            emd.final_objective() < 0.1,
            "EMD objective {}",
            emd.final_objective()
        );
        assert!(emd.swaps >= 1, "expected at least one backbone swap");
    }

    #[test]
    fn emd_objective_is_monotonically_non_increasing() {
        let g = random_graph(2, 25, 90);
        let mut rng = SmallRng::seed_from_u64(3);
        let backbone = build_backbone(&g, 0.25, &BackboneConfig::random(), &mut rng).unwrap();
        let config = EmdConfig {
            entropy_h: 1.0,
            max_iterations: 10,
            ..Default::default()
        };
        let result = expectation_maximization_sparsify(&g, &backbone, &config).unwrap();
        for w in result.objective_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "trace {:?}", result.objective_trace);
        }
    }

    #[test]
    fn emd_improves_over_gdb_on_random_graphs() {
        // EMD restructures the backbone, so its objective can only be as good
        // or better than GDB run on the same initial backbone.
        for seed in 0..5u64 {
            let g = random_graph(seed + 10, 20, 70);
            let mut rng = SmallRng::seed_from_u64(seed);
            let backbone = build_backbone(&g, 0.3, &BackboneConfig::random(), &mut rng).unwrap();
            let gdb_cfg = GdbConfig {
                entropy_h: 1.0,
                ..Default::default()
            };
            let emd_cfg = EmdConfig {
                entropy_h: 1.0,
                ..Default::default()
            };
            let gdb = gradient_descent_assign(&g, &backbone, &gdb_cfg).unwrap();
            let emd = expectation_maximization_sparsify(&g, &backbone, &emd_cfg).unwrap();
            assert!(
                emd.final_objective() <= gdb.final_objective() + 1e-6,
                "seed {seed}: EMD {} vs GDB {}",
                emd.final_objective(),
                gdb.final_objective()
            );
        }
    }

    #[test]
    fn relative_variant_runs_and_respects_bounds() {
        let g = random_graph(7, 20, 60);
        let mut rng = SmallRng::seed_from_u64(1);
        let backbone = build_backbone(&g, 0.4, &BackboneConfig::spanning(), &mut rng).unwrap();
        let config = EmdConfig {
            discrepancy: DiscrepancyKind::Relative,
            entropy_h: 0.05,
            ..Default::default()
        };
        let result = expectation_maximization_sparsify(&g, &backbone, &config).unwrap();
        assert_eq!(result.probabilities.len(), backbone.len());
        for &(_, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
        // With h < 1 individual EM iterations are not guaranteed to be
        // monotone (entropy damping constrains both phases); we only require
        // a sane, finite objective and that the run terminated.
        assert!(result.final_objective().is_finite());
        assert!(result.final_objective() >= 0.0);
        assert!(result.iterations >= 1 && result.iterations <= config.max_iterations);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (g, backbone) = figure2_graph();
        assert!(matches!(
            expectation_maximization_sparsify(
                &g,
                &backbone,
                &EmdConfig {
                    entropy_h: 2.0,
                    ..Default::default()
                }
            ),
            Err(SparsifyError::InvalidParameter {
                name: "entropy_h",
                ..
            })
        ));
        assert!(matches!(
            expectation_maximization_sparsify(
                &g,
                &backbone,
                &EmdConfig {
                    tolerance: f64::NAN,
                    ..Default::default()
                }
            ),
            Err(SparsifyError::InvalidParameter {
                name: "tolerance",
                ..
            })
        ));
        assert!(matches!(
            expectation_maximization_sparsify(
                &g,
                &backbone,
                &EmdConfig {
                    max_iterations: 0,
                    ..Default::default()
                }
            ),
            Err(SparsifyError::InvalidParameter {
                name: "max_iterations",
                ..
            })
        ));
        // An invalid *nested* M-phase config is refused before any work.
        let bad_nested = EmdConfig {
            gdb: GdbConfig {
                max_iterations: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            expectation_maximization_sparsify(&g, &backbone, &bad_nested),
            Err(SparsifyError::InvalidParameter {
                name: "max_iterations",
                ..
            })
        ));
        assert!(matches!(
            expectation_maximization_sparsify(&g, &[], &EmdConfig::default()),
            Err(SparsifyError::EmptyGraph)
        ));
        assert!(matches!(
            expectation_maximization_sparsify(&g, &[77], &EmdConfig::default()),
            Err(SparsifyError::Graph(_))
        ));
    }

    #[test]
    fn gain_formula_matches_direct_objective_difference() {
        let (g, backbone) = figure2_graph();
        let state = AssignmentState::new(&g, &backbone, DiscrepancyKind::Absolute);
        // Inserting edge 0 (u1-u2) with probability p must change the
        // objective by exactly -gain, in either orientation.
        let p = 0.35;
        let at = |x: VertexId| Endpoint::of(&state.tracker, x);
        let (u, v) = g.edge_endpoints(0);
        let gain = at(u).gain(p) + at(v).gain(p);
        assert_eq!(gain.to_bits(), (at(v).gain(p) + at(u).gain(p)).to_bits());
        assert_eq!(gain.to_bits(), insertion_gain(&g, &state, 0, p).to_bits());
        let before = state.tracker.objective();
        let mut after_state = AssignmentState::new(&g, &backbone, DiscrepancyKind::Absolute);
        after_state.insert_edge(&g, 0, p);
        let after = after_state.tracker.objective();
        assert!(
            (before - after - gain).abs() < 1e-12,
            "gain {gain} vs {}",
            before - after
        );
    }

    /// The E-phase replacement for the removed edge `removed`, scanned by
    /// edge id: among the non-kept edges incident to `v_h` (plus `removed`
    /// itself), the edge with the highest insertion gain, ties broken
    /// towards the smaller edge id.  Each candidate's endpoints and
    /// probability are read from the graph and the state.
    fn candidate_by_edge_id(
        g: &UncertainGraph,
        state: &AssignmentState,
        entropy_h: f64,
        v_h: VertexId,
        removed: EdgeId,
    ) -> (EdgeId, f64) {
        let mut best: Option<(EdgeId, f64, f64)> = None; // (edge, prob, gain)
        let mut consider = |candidate: EdgeId| {
            if state.in_set[candidate] {
                return;
            }
            let p = state.damped_update(g, None, CutRule::Degree, entropy_h, candidate);
            let gain = insertion_gain(g, state, candidate, p);
            let better = match best {
                None => true,
                Some((be, _, bg)) => gain > bg + 1e-15 || (gain >= bg - 1e-15 && candidate < be),
            };
            if better {
                best = Some((candidate, p, gain));
            }
        };
        for (_, candidate, _) in g.neighbors(v_h) {
            consider(candidate);
        }
        consider(removed);
        let (chosen, prob, _) = best.expect("at least the removed edge itself is a candidate");
        (chosen, prob)
    }

    /// The gain of inserting `candidate` with probability `p` (Equation
    /// 10), with the endpoints read by edge id.
    fn insertion_gain(
        g: &UncertainGraph,
        state: &AssignmentState,
        candidate: EdgeId,
        p: f64,
    ) -> f64 {
        let (u, v) = g.edge_endpoints(candidate);
        let du = state.tracker.delta(u);
        let dv = state.tracker.delta(v);
        let pi_u = state.tracker.pi(u);
        let pi_v = state.tracker.pi(v);
        let du_after = if pi_u > 0.0 { du - p / pi_u } else { du };
        let dv_after = if pi_v > 0.0 { dv - p / pi_v } else { dv };
        (du * du - du_after * du_after) + (dv * dv - dv_after * dv_after)
    }

    /// The vertex `v_H` with the largest `|δ|`, in `FlatMaxHeap`'s order:
    /// NaN ranks as −∞ and ties go to the smaller vertex.
    fn worst_vertex_by_scan(g: &UncertainGraph, state: &AssignmentState) -> VertexId {
        let key = |u: VertexId| {
            let d = state.tracker.delta(u).abs();
            if d.is_nan() {
                f64::NEG_INFINITY
            } else {
                d
            }
        };
        let mut worst = 0;
        for u in 1..g.num_vertices() {
            if key(u) > key(worst) {
                worst = u;
            }
        }
        worst
    }

    /// Algorithm 3 as the paper states it, keeping nothing between steps:
    /// `v_H` is an argmax scan, candidates are scanned by edge id, a swapped
    /// edge's slot is found by linear search, every M-phase runs the public
    /// `GDB` on the current backbone, and the objective is evaluated before
    /// and after every iteration.  It shares only `AssignmentState`, the
    /// clamp-and-damp of `damped_update` and the `GDB` sweeps with the
    /// production loop.
    fn paper_emd(g: &UncertainGraph, backbone: &[EdgeId], config: &EmdConfig) -> EmdResult {
        let mut state = AssignmentState::new(g, backbone, config.discrepancy);
        let mut current = backbone.to_vec();
        let mut trace = vec![state.tracker.objective()];
        let (mut swaps, mut iterations) = (0, 0);
        for _ in 0..config.max_iterations {
            let before = state.tracker.objective();
            for e in current.clone() {
                if !state.in_set[e] {
                    continue;
                }
                state.remove_edge(g, e);
                let v_h = worst_vertex_by_scan(g, &state);
                let (chosen, prob) = candidate_by_edge_id(g, &state, config.entropy_h, v_h, e);
                state.insert_edge(g, chosen, prob);
                if chosen != e {
                    swaps += 1;
                    let slot = current.iter().position(|&x| x == e).unwrap();
                    current[slot] = chosen;
                }
            }
            let mphase = gradient_descent_assign(g, &current, &config.mphase_gdb()).unwrap();
            for (e, p) in mphase.probabilities {
                state.set_probability(g, e, p);
            }
            let after = state.tracker.objective();
            trace.push(after);
            iterations += 1;
            if (before - after).abs() <= config.tolerance {
                break;
            }
        }
        EmdResult {
            probabilities: current.iter().map(|&e| (e, state.prob[e])).collect(),
            iterations,
            objective_trace: trace,
            swaps,
            entropy: state.entropy(),
            e_phase: Duration::ZERO,
            m_phase: Duration::ZERO,
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Probabilities, objective trace, iterations, swaps and entropy agree
    /// bit for bit.
    fn assert_identical(oracle: &EmdResult, run: &EmdResult, context: &str) {
        assert_eq!(oracle.iterations, run.iterations, "{context}: iterations");
        assert_eq!(oracle.swaps, run.swaps, "{context}: swaps");
        let edges = |r: &EmdResult| r.probabilities.iter().map(|&(e, _)| e).collect::<Vec<_>>();
        let probs =
            |r: &EmdResult| bits(&r.probabilities.iter().map(|&(_, p)| p).collect::<Vec<_>>());
        assert_eq!(edges(oracle), edges(run), "{context}: backbone slots");
        assert_eq!(probs(oracle), probs(run), "{context}: probabilities");
        assert_eq!(
            bits(&oracle.objective_trace),
            bits(&run.objective_trace),
            "{context}: objective trace"
        );
        assert_eq!(
            oracle.entropy.to_bits(),
            run.entropy.to_bits(),
            "{context}: entropy"
        );
    }

    /// Runs the oracle and `expectation_maximization_sparsify_with` on one
    /// warm scratch over {absolute, relative} × h ∈ {0, 0.05, 1}.
    fn check_against_the_oracle(
        g: &UncertainGraph,
        backbone: &[EdgeId],
        scratch: &mut CoreScratch,
        label: &str,
    ) {
        for kind in [DiscrepancyKind::Absolute, DiscrepancyKind::Relative] {
            for h in [0.0, 0.05, 1.0] {
                let config = EmdConfig {
                    discrepancy: kind,
                    entropy_h: h,
                    ..Default::default()
                };
                let run =
                    expectation_maximization_sparsify_with(g, backbone, &config, scratch).unwrap();
                let oracle = paper_emd(g, backbone, &config);
                assert_identical(&oracle, &run, &format!("{label}, {kind:?}, h = {h}"));
            }
        }
    }

    fn spanning_backbone(g: &UncertainGraph, seed: u64, alpha: f64) -> Vec<EdgeId> {
        let mut rng = SmallRng::seed_from_u64(seed);
        build_backbone(g, alpha, &BackboneConfig::spanning(), &mut rng).unwrap()
    }

    /// The loop matches the paper-faithful oracle over the configuration
    /// grid of the paper: seeds × {absolute, relative} × h.
    #[test]
    fn emd_matches_the_paper_oracle_across_the_grid() {
        let mut scratch = CoreScratch::new();
        for seed in [1, 7, 23] {
            let g = random_graph(seed + 100, 35, 140);
            let backbone = spanning_backbone(&g, seed, 0.3);
            check_against_the_oracle(&g, &backbone, &mut scratch, &format!("seed {seed}"));
        }
    }

    /// The same check on one larger graph: thousands of swaps per run, so
    /// heap order, slot bookkeeping and scratch reuse are exercised at
    /// scale.  Release builds run at least 2 000 vertices and 8 000 edges.
    #[test]
    fn emd_matches_the_paper_oracle_on_a_larger_graph() {
        let (n, m) = if cfg!(debug_assertions) {
            (600, 2_400)
        } else {
            (2_000, 8_000)
        };
        let g = random_graph(0xE3D, n, m);
        let backbone = spanning_backbone(&g, 5, 0.3);
        let label = format!("{n} vertices, {m} edges");
        check_against_the_oracle(&g, &backbone, &mut CoreScratch::new(), &label);
    }
}
