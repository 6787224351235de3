//! Expectation-Maximization Degree (`EMD`, Algorithm 3).
//!
//! `GDB` only tunes probabilities of a *fixed* backbone, so it is sensitive to
//! the backbone choice.  `EMD` additionally restructures the backbone:
//!
//! * **E-phase** — for each backbone edge `e = (u, v)`: temporarily remove it
//!   (returning its probability mass to the discrepancies of `u` and `v`),
//!   look at the vertex `v_H` with the *largest* current discrepancy (kept in
//!   an indexed max-heap), and among the non-backbone edges incident to `v_H`
//!   (plus `e` itself) re-insert the edge with the highest *gain*
//!   (Equation 10) at its optimal probability (Equation 9).
//! * **M-phase** — run `GDB` on the restructured backbone.
//!
//! The loop repeats until the objective improvement falls below the
//! tolerance.  Thanks to the vertex heap, each E-phase costs
//! `O(α|E| log|V|)` heap work instead of the `O(α(1-α)|E|² log|V| / |V|)` of
//! the naive edge-heap formulation (Section 4.3).
//!
//! Two implementations are provided, selected by [`EmdConfig::engine`] and
//! bit-identical to each other (see [`crate::scratch`] for the argument and
//! the `sparsify_parity` suite for the proof-by-test): the paper-faithful
//! [`Engine::Reference`] loop pushes the vertex heap together from scratch
//! every iteration and scans the backbone linearly on every swap, while
//! [`Engine::Indexed`] re-heapifies a cache-aware 8-ary heap in place,
//! maintains an O(1) edge → slot map and reuses every buffer via
//! [`CoreScratch`].  Both evaluate E-phase candidates with `GDB`'s update
//! rule and run their M-phases through `GDB`'s one sweep loop.

use uncertain_graph::{EdgeId, UncertainGraph, VertexId};

use crate::discrepancy::DiscrepancyKind;
use crate::error::SparsifyError;
use crate::gdb::{
    damped_update, gradient_descent_assign, run_gdb, validate_backbone, AssignmentState, CutRule,
    Engine, GdbConfig,
};
use crate::scratch::CoreScratch;
use graph_algos::IndexedMaxHeap;

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
    /// Which implementation to run; both are bit-identical.
    pub engine: Engine,
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
            engine: Engine::default(),
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
}

impl EmdResult {
    /// Final objective value.
    pub fn final_objective(&self) -> f64 {
        *self.objective_trace.last().expect("trace is never empty")
    }
}

/// Runs `EMD` (Algorithm 3) starting from the given backbone.  Dispatches on
/// [`EmdConfig::engine`]; the indexed engine allocates a transient scratch —
/// use [`expectation_maximization_sparsify_with`] to amortise it.
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
/// with [`Engine::Indexed`] repeated runs reuse the outer state, the vertex
/// heap, the snapshot buffer and the M-phase workspace, so warm E-phase
/// iterations perform zero heap allocations.
pub fn expectation_maximization_sparsify_with(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &EmdConfig,
    scratch: &mut CoreScratch,
) -> Result<EmdResult, SparsifyError> {
    config.validate()?;
    // The embedded M-phase configuration is validated up front so both
    // engines reject invalid nested configs identically (the reference would
    // otherwise only hit the check inside its first M-phase, and the indexed
    // engine not at all).
    config.mphase_gdb().validate()?;
    // The indexed engine resets these membership flags before reading them
    // (the reference keeps its own state), so they double as the validation
    // buffer.
    validate_backbone(g, backbone, &mut scratch.emd.state.in_set)?;
    match config.engine {
        Engine::Reference => emd_reference(g, backbone, config),
        Engine::Indexed => Ok(emd_indexed(g, backbone, config, scratch)),
    }
}

/// The paper-faithful `EMD` loop (the bit-parity oracle): the vertex heap is
/// rebuilt at the start of every E-phase and the M-phase runs through the
/// public [`gradient_descent_assign`] on a fresh assignment state.
fn emd_reference(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &EmdConfig,
) -> Result<EmdResult, SparsifyError> {
    // Lines 1–5 of Algorithm 3: the initial assignment keeps the backbone
    // with its original probabilities.
    let mut state = AssignmentState::new(g, backbone, config.discrepancy);
    let mut current_backbone: Vec<EdgeId> = backbone.to_vec();
    let mut trace = vec![state.tracker.objective()];
    let mut swaps = 0usize;
    let mut iterations = 0usize;
    // One snapshot buffer for all E-phases (each round used to clone the
    // backbone anew; the contents are still rewritten every iteration).
    let mut snapshot: Vec<EdgeId> = Vec::with_capacity(current_backbone.len());

    for _ in 0..config.max_iterations {
        let before = state.tracker.objective();

        // ---------------- E-phase: restructure the backbone ----------------
        let mut heap = IndexedMaxHeap::new(g.num_vertices());
        for u in g.vertices() {
            heap.push_or_update(u, state.tracker.delta(u).abs());
        }
        snapshot.clear();
        snapshot.extend_from_slice(&current_backbone);
        for &e in &snapshot {
            if !state.in_set[e] {
                continue; // already replaced earlier in this phase
            }
            let (u, v) = g.edge_endpoints(e);
            // Remove e: its probability mass flows back into δ(u), δ(v).
            state.remove_edge(g, e);
            heap.update(u, state.tracker.delta(u).abs());
            heap.update(v, state.tracker.delta(v).abs());

            // The vertex that currently hurts the objective the most.
            let (v_h, _) = heap.peek().expect("heap holds every vertex");

            let (chosen, prob) = best_candidate(g, &state, config.entropy_h, v_h, e);
            state.insert_edge(g, chosen, prob);
            let (cu, cv) = g.edge_endpoints(chosen);
            heap.update(cu, state.tracker.delta(cu).abs());
            heap.update(cv, state.tracker.delta(cv).abs());
            if chosen != e {
                swaps += 1;
                let position = current_backbone
                    .iter()
                    .position(|&x| x == e)
                    .expect("edge came from the current backbone");
                current_backbone[position] = chosen;
            }
        }

        // ---------------- M-phase: retune probabilities with GDB -----------
        let gdb_result = gradient_descent_assign(g, &current_backbone, &config.mphase_gdb())?;
        for &(e, p) in &gdb_result.probabilities {
            state.set_probability(g, e, p);
        }

        let after = state.tracker.objective();
        trace.push(after);
        iterations += 1;
        if (before - after).abs() <= config.tolerance {
            break;
        }
    }

    let probabilities = current_backbone
        .iter()
        .map(|&e| (e, state.prob[e]))
        .collect();
    Ok(EmdResult {
        probabilities,
        iterations,
        objective_trace: trace,
        swaps,
        entropy: state.entropy(),
    })
}

/// The indexed `EMD` loop: bit-identical to [`emd_reference`] (checked by
/// the `sparsify_parity` suite) but with the heavy per-iteration work
/// replaced by incremental indexes — see [`crate::scratch`] for why each
/// replacement preserves bit-parity.
///
/// * The vertex heap is re-heapified in place (`O(|V|)` Floyd build into
///   reused buffers) at each E-phase start, instead of the reference's
///   `O(|V| log |V|)` pushes into a freshly allocated heap, and is updated
///   incrementally at the same points the reference instruments during the
///   phase.
/// * The E-phase snapshot and the backbone bookkeeping reuse scratch
///   buffers; swap positions come from an O(1) edge → slot map instead of a
///   linear scan per swap.
/// * The M-phase runs the `GDB` sweeps in the reusable M-phase workspace and
///   applies the tuned probabilities directly, without materialising an
///   intermediate `GdbResult`.
fn emd_indexed(
    g: &UncertainGraph,
    backbone: &[EdgeId],
    config: &EmdConfig,
    scratch: &mut CoreScratch,
) -> EmdResult {
    let crate::scratch::EmdScratch {
        state,
        heap,
        snapshot,
        backbone: current,
        position_of,
        trace,
        mphase,
    } = &mut scratch.emd;

    state.reset(g, backbone, config.discrepancy);
    current.clear();
    current.extend_from_slice(backbone);
    position_of.clear();
    position_of.resize(g.num_edges(), usize::MAX);
    for (slot, &e) in current.iter().enumerate() {
        position_of[e] = slot;
    }
    trace.clear();
    trace.push(state.tracker.objective());

    let mphase_config = config.mphase_gdb();
    let mut swaps = 0usize;
    let mut iterations = 0usize;

    for _ in 0..config.max_iterations {
        let before = state.tracker.objective();

        // ---------------- E-phase: restructure the backbone ----------------
        // In-place O(|V|) Floyd heapify into the reused buffers, instead of
        // the reference's |V| pushes into a freshly allocated heap.  Peeks
        // agree bit for bit: the ordering is total, so the maximum is unique
        // whatever the internal layout.
        heap.rebuild(g.num_vertices(), |u| state.tracker.delta(u).abs());
        snapshot.clear();
        snapshot.extend_from_slice(current);
        for &e in snapshot.iter() {
            if !state.in_set[e] {
                continue; // already replaced earlier in this phase
            }
            let (u, v) = g.edge_endpoints(e);
            state.remove_edge(g, e);
            heap.update(u, state.tracker.delta(u).abs());
            heap.update(v, state.tracker.delta(v).abs());

            let (v_h, _) = heap.peek().expect("heap holds every vertex");

            let (chosen, prob) = best_candidate(g, state, config.entropy_h, v_h, e);
            state.insert_edge(g, chosen, prob);
            let (cu, cv) = g.edge_endpoints(chosen);
            heap.update(cu, state.tracker.delta(cu).abs());
            heap.update(cv, state.tracker.delta(cv).abs());
            if chosen != e {
                swaps += 1;
                let slot = position_of[e];
                debug_assert_eq!(current[slot], e, "stale backbone position");
                current[slot] = chosen;
                position_of[chosen] = slot;
            }
        }

        // ---------------- M-phase: retune probabilities with GDB -----------
        // Same semantics as the reference: GDB restarts from the original
        // probabilities of the restructured backbone (`run_gdb` resets the
        // M-phase state exactly like a fresh construction).  The heap is not
        // maintained here — the next E-phase re-heapifies in O(|V|), which
        // is far cheaper than 2α|E| logarithmic updates.
        let inner = run_gdb(g, current, &mphase_config, None, mphase);
        for &e in current.iter() {
            state.set_probability(g, e, inner.state.prob[e]);
        }

        let after = state.tracker.objective();
        trace.push(after);
        iterations += 1;
        if (before - after).abs() <= config.tolerance {
            break;
        }
    }

    let probabilities = current.iter().map(|&e| (e, state.prob[e])).collect();
    EmdResult {
        probabilities,
        iterations,
        objective_trace: trace.clone(),
        swaps,
        entropy: state.entropy(),
    }
}

/// Picks the E-phase replacement for the removed edge `removed`: among the
/// non-backbone edges incident to the worst vertex `v_h` (plus `removed`
/// itself), the edge with the highest insertion gain, ties broken towards
/// the smaller edge id.  Shared by both engines so the selection logic
/// cannot drift apart.  Every candidate is a non-kept edge with probability
/// exactly 0, which `damped_update` decides without a `log2` call.
fn best_candidate(
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
        let p = damped_update(g, state, None, CutRule::Degree, entropy_h, candidate);
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

/// The gain of inserting `candidate` with probability `p` (Equation 10):
/// reduction of the squared discrepancies of its two endpoints.
fn insertion_gain(g: &UncertainGraph, state: &AssignmentState, candidate: EdgeId, p: f64) -> f64 {
    let (u, v) = g.edge_endpoints(candidate);
    let du = state.tracker.delta(u);
    let dv = state.tracker.delta(v);
    // Inserting the edge with probability p lowers the *absolute*
    // discrepancies of u and v by p; in relative mode the change is scaled by
    // the original degree.
    let pi_u = state.tracker.pi(u);
    let pi_v = state.tracker.pi(v);
    let du_after = if pi_u > 0.0 { du - p / pi_u } else { du };
    let dv_after = if pi_v > 0.0 { dv - p / pi_v } else { dv };
    (du * du - du_after * du_after) + (dv * dv - dv_after * dv_after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{build_backbone, BackboneConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_graph::UncertainGraphBuilder;

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
        // Invalid *nested* M-phase configs are rejected by both engines
        // (the indexed engine must not silently accept what the reference
        // rejects).
        for engine in [Engine::Reference, Engine::Indexed] {
            let bad_nested = EmdConfig {
                engine,
                gdb: GdbConfig {
                    max_iterations: 0,
                    ..Default::default()
                },
                ..Default::default()
            };
            assert!(
                matches!(
                    expectation_maximization_sparsify(&g, &backbone, &bad_nested),
                    Err(SparsifyError::InvalidParameter {
                        name: "max_iterations",
                        ..
                    })
                ),
                "{engine:?}"
            );
        }
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
        // objective by exactly -gain.
        let p = 0.35;
        let gain = insertion_gain(&g, &state, 0, p);
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
}
