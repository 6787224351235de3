//! High-level front end: [`SparsifierSpec`], the [`Sparsifier`] trait and the
//! [`SparsifyOutput`] produced by every method.
//!
//! The spec mirrors the framework of Section 3.3: pick a backbone
//! construction, pick a probability-assignment method (`GDB`, `EMD` or the
//! `LP` reference), pick the discrepancy flavour and the entropy parameter
//! `h`, then call [`SparsifierSpec::sparsify`].  The baselines adapted from
//! deterministic sparsification (`NI`, `SS`) live in the `ugs-baselines`
//! crate and implement the same [`Sparsifier`] trait, so experiments can
//! iterate over a `Vec<Box<dyn Sparsifier>>`.

use std::time::{Duration, Instant};

use rand::RngCore;
use uncertain_graph::{EdgeId, UncertainGraph};

use crate::backbone::{build_backbone_into, target_edge_count, BackboneConfig, BackboneKind};
use crate::discrepancy::DiscrepancyKind;
use crate::emd::{expectation_maximization_sparsify_with, EmdConfig};
use crate::error::SparsifyError;
use crate::gdb::{gradient_descent_assign_with, CutRule, GdbConfig};
use crate::lp_assign::lp_assign;
use crate::scratch::CoreScratch;

/// Probabilities of exactly zero are floored at this value when a sparsified
/// [`UncertainGraph`] is materialised, so that `|E'| = α|E|` holds while the
/// edge stays numerically negligible (an uncertain edge must have
/// probability in `(0, 1]`).
pub const MIN_PROBABILITY: f64 = 1e-9;

/// Probability-assignment method of the proposed framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Gradient Descent Backbone (Algorithm 2).
    Gdb,
    /// Expectation-Maximization Degree (Algorithm 3).
    Emd,
    /// The LP reference of Theorem 1 (optimal absolute `Δ1`).
    Lp,
}

impl Method {
    /// Canonical display name, including the paper's variant notation.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Gdb => "GDB",
            Method::Emd => "EMD",
            Method::Lp => "LP",
        }
    }
}

/// Per-phase wall-clock breakdown of a sparsification run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Backbone construction (`BGI`, Algorithm 1).
    pub backbone: Duration,
    /// Probability optimisation (`GDB`/`EMD`/`LP`).
    pub optimize: Duration,
    /// Materialisation of the sparsified [`UncertainGraph`].
    pub materialize: Duration,
    /// `EMD`'s E-phases, summed: part of `optimize` (zero for every other
    /// method).
    pub e_phase: Duration,
    /// `EMD`'s M-phases, summed: part of `optimize` (zero for every other
    /// method).
    pub m_phase: Duration,
}

/// Execution statistics reported alongside every sparsified graph.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Human-readable method description (e.g. `"EMD^R-t"`).
    pub method: String,
    /// Requested sparsification ratio `α`.
    pub alpha: f64,
    /// Number of edges in the sparsified graph (`round(α|E|)`).
    pub target_edges: usize,
    /// Iterations of the main optimisation loop (sweeps for `GDB`, EM rounds
    /// for `EMD`, max-flow phases for `LP`, calibration rounds for the
    /// baselines).
    pub iterations: usize,
    /// Backbone swaps (only non-zero for `EMD`).
    pub swaps: usize,
    /// Objective value before and after each iteration, when the method
    /// tracks one.
    pub objective_trace: Vec<f64>,
    /// Entropy of the original graph (bits).
    pub entropy_original: f64,
    /// Entropy of the sparsified graph (bits).
    pub entropy_sparsified: f64,
    /// Wall-clock time spent inside the sparsifier.
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown (all zero for methods that do not go
    /// through the backbone/optimise/materialise pipeline, e.g. baselines).
    pub phases: PhaseTimings,
}

impl Diagnostics {
    /// Relative entropy `H(G') / H(G)` (0 when the original entropy is 0).
    pub fn relative_entropy(&self) -> f64 {
        if self.entropy_original <= 0.0 {
            0.0
        } else {
            self.entropy_sparsified / self.entropy_original
        }
    }
}

/// A sparsified uncertain graph together with run diagnostics.
#[derive(Debug, Clone)]
pub struct SparsifyOutput {
    /// The sparsified graph `G' = (V, E', p')`.
    pub graph: UncertainGraph,
    /// Statistics about the run.
    pub diagnostics: Diagnostics,
}

/// Object-safe interface implemented by every sparsification method in the
/// workspace (the proposed `GDB`/`EMD`/`LP` here, the `NI`/`SS` baselines in
/// `ugs-baselines`).
pub trait Sparsifier {
    /// Short display name (e.g. `"EMD^R-t"`, `"NI"`).
    fn name(&self) -> String;

    /// Produces the sparsified graph.
    fn sparsify_dyn(
        &self,
        g: &UncertainGraph,
        rng: &mut dyn RngCore,
    ) -> Result<SparsifyOutput, SparsifyError>;
}

/// Builder-style specification of a sparsification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsifierSpec {
    method: Method,
    alpha: f64,
    discrepancy: DiscrepancyKind,
    backbone: BackboneConfig,
    cut_rule: CutRule,
    entropy_h: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl SparsifierSpec {
    fn new(method: Method) -> Self {
        SparsifierSpec {
            method,
            alpha: 0.16,
            discrepancy: DiscrepancyKind::Absolute,
            backbone: BackboneConfig::default(),
            cut_rule: CutRule::Degree,
            entropy_h: 0.05,
            tolerance: 1e-9,
            max_iterations: 50,
        }
    }

    /// A `GDB` specification with the paper's default settings
    /// (absolute discrepancy, spanning backbone, `h = 0.05`).
    pub fn gdb() -> Self {
        Self::new(Method::Gdb)
    }

    /// An `EMD` specification with the paper's default settings.
    pub fn emd() -> Self {
        Self::new(Method::Emd)
    }

    /// The LP reference method (optimal `Δ1` on the backbone).
    pub fn lp() -> Self {
        Self::new(Method::Lp)
    }

    /// Sets the sparsification ratio `α ∈ (0, 1)`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Selects the absolute or relative discrepancy objective.
    pub fn discrepancy(mut self, kind: DiscrepancyKind) -> Self {
        self.discrepancy = kind;
        self
    }

    /// Selects the backbone construction (random vs Algorithm 1).
    pub fn backbone(mut self, kind: BackboneKind) -> Self {
        self.backbone.kind = kind;
        self
    }

    /// Overrides the full backbone configuration.
    pub fn backbone_config(mut self, config: BackboneConfig) -> Self {
        self.backbone = config;
        self
    }

    /// Selects the cut-preserving rule (`k = 1` degrees by default).
    /// Only `GDB` runs a cut rule: `EMD`'s M-phase and the LP run the
    /// degree rule, so [`SparsifierSpec::sparsify_with`] refuses any other
    /// rule for them.
    pub fn cut_rule(mut self, rule: CutRule) -> Self {
        self.cut_rule = rule;
        self
    }

    /// Sets the entropy parameter `h ∈ [0, 1]`.
    pub fn entropy_h(mut self, h: f64) -> Self {
        self.entropy_h = h;
        self
    }

    /// Sets the convergence tolerance `τ`.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Caps the number of optimisation iterations.
    pub fn max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The configured ratio.
    pub fn configured_alpha(&self) -> f64 {
        self.alpha
    }

    /// Display name in the paper's notation, e.g. `"EMD^R-t"` or `"GDB^A"`
    /// (the `-t` suffix marks the spanning backbone, the superscript the
    /// discrepancy kind, the subscript the cut rule).
    pub fn display_name(&self) -> String {
        let disc = match self.discrepancy {
            DiscrepancyKind::Absolute => "A",
            DiscrepancyKind::Relative => "R",
        };
        let cut = match self.cut_rule {
            CutRule::Degree => String::new(),
            CutRule::Cuts(k) => format!("_{k}"),
            CutRule::AllCuts => "_n".to_string(),
        };
        let backbone = match self.backbone.kind {
            BackboneKind::Random => "",
            BackboneKind::SpanningForests => "-t",
            BackboneKind::LocalDegree => "-ld",
        };
        format!("{}^{disc}{cut}{backbone}", self.method.name())
    }

    /// Runs the configured sparsifier on `g`.
    ///
    /// Allocates a transient [`CoreScratch`]; use
    /// [`SparsifierSpec::sparsify_with`] to amortise the workspace across
    /// repeated runs (parameter sweeps, several graphs in a row).
    pub fn sparsify<R: RngCore + ?Sized>(
        &self,
        g: &UncertainGraph,
        rng: &mut R,
    ) -> Result<SparsifyOutput, SparsifyError> {
        let mut scratch = CoreScratch::new();
        self.sparsify_with(g, rng, &mut scratch)
    }

    /// [`SparsifierSpec::sparsify`] with caller-provided scratch space: the
    /// backbone builder, the optimisation loops and all their graph-sized
    /// buffers are reused across calls.  Results are identical to
    /// [`SparsifierSpec::sparsify`] for the same graph, spec and RNG state.
    ///
    /// Fails with [`SparsifyError::InvalidParameter`] (`cut_rule`) for an
    /// `EMD` or LP spec whose cut rule is not the degree rule, which
    /// neither runs, and (`discrepancy`) for an LP spec with the relative
    /// discrepancy: Theorem 1's LP is the absolute `Δ1` program.
    pub fn sparsify_with<R: RngCore + ?Sized>(
        &self,
        g: &UncertainGraph,
        rng: &mut R,
        scratch: &mut CoreScratch,
    ) -> Result<SparsifyOutput, SparsifyError> {
        if self.method != Method::Gdb && self.cut_rule != CutRule::Degree {
            return Err(SparsifyError::InvalidParameter {
                name: "cut_rule",
                message: format!(
                    "{} runs the degree rule only; k-cut rules are a GDB option",
                    self.method.name()
                ),
            });
        }
        if self.method == Method::Lp && self.discrepancy != DiscrepancyKind::Absolute {
            return Err(SparsifyError::InvalidParameter {
                name: "discrepancy",
                message: "LP solves the absolute discrepancy Δ1 only".to_string(),
            });
        }
        let start = Instant::now();
        let target = target_edge_count(g, self.alpha)?;
        // The backbone buffer is taken out of the scratch so the optimisation
        // phases can borrow the scratch mutably; it is returned afterwards,
        // keeping its capacity warm for the next run.
        let mut backbone = std::mem::take(&mut scratch.spec_backbone);
        let phase_started = Instant::now();
        let built = build_backbone_into(g, self.alpha, &self.backbone, rng, scratch, &mut backbone);
        if let Err(error) = built {
            scratch.spec_backbone = backbone;
            return Err(error);
        }
        let backbone_elapsed = phase_started.elapsed();
        debug_assert_eq!(backbone.len(), target);

        let gdb_config = GdbConfig {
            discrepancy: self.discrepancy,
            cut_rule: self.cut_rule,
            entropy_h: self.entropy_h,
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
        };

        // (assignment, iterations, swaps, objective trace)
        type Optimized = (Vec<(EdgeId, f64)>, usize, usize, Vec<f64>);
        let mut emd_phases = (Duration::ZERO, Duration::ZERO);
        let phase_started = Instant::now();
        let optimized: Result<Optimized, SparsifyError> = match self.method {
            Method::Gdb => {
                gradient_descent_assign_with(g, &backbone, &gdb_config, scratch).map(|result| {
                    (
                        result.probabilities,
                        result.iterations,
                        0,
                        result.objective_trace,
                    )
                })
            }
            Method::Emd => {
                let config = EmdConfig {
                    discrepancy: self.discrepancy,
                    entropy_h: self.entropy_h,
                    tolerance: self.tolerance,
                    max_iterations: self.max_iterations,
                    gdb: gdb_config,
                };
                expectation_maximization_sparsify_with(g, &backbone, &config, scratch).map(
                    |result| {
                        emd_phases = (result.e_phase, result.m_phase);
                        (
                            result.probabilities,
                            result.iterations,
                            result.swaps,
                            result.objective_trace,
                        )
                    },
                )
            }
            Method::Lp => lp_assign(g, &backbone)
                .map(|result| (result.probabilities, result.phases, 0, Vec::new())),
        };
        let optimize_elapsed = phase_started.elapsed();
        scratch.spec_backbone = backbone;
        let (assignment, iterations, swaps, trace) = optimized?;

        let phase_started = Instant::now();
        let graph = materialize(g, &assignment)?;
        let materialize_elapsed = phase_started.elapsed();
        let diagnostics = Diagnostics {
            method: self.display_name(),
            alpha: self.alpha,
            target_edges: target,
            iterations,
            swaps,
            objective_trace: trace,
            entropy_original: g.entropy(),
            entropy_sparsified: graph.entropy(),
            elapsed: start.elapsed(),
            phases: PhaseTimings {
                backbone: backbone_elapsed,
                optimize: optimize_elapsed,
                materialize: materialize_elapsed,
                e_phase: emd_phases.0,
                m_phase: emd_phases.1,
            },
        };
        Ok(SparsifyOutput { graph, diagnostics })
    }
}

impl Sparsifier for SparsifierSpec {
    fn name(&self) -> String {
        self.display_name()
    }

    fn sparsify_dyn(
        &self,
        g: &UncertainGraph,
        rng: &mut dyn RngCore,
    ) -> Result<SparsifyOutput, SparsifyError> {
        self.sparsify(g, rng)
    }
}

/// Materialises a probability assignment as an [`UncertainGraph`] over the
/// original vertex set, flooring zero probabilities at [`MIN_PROBABILITY`].
pub fn materialize(
    g: &UncertainGraph,
    assignment: &[(EdgeId, f64)],
) -> Result<UncertainGraph, SparsifyError> {
    let edges = assignment.iter().map(|&(e, p)| {
        (
            e,
            if p > MIN_PROBABILITY {
                p.min(1.0)
            } else {
                MIN_PROBABILITY
            },
        )
    });
    Ok(g.subgraph_with_probabilities(edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_graph::UncertainGraphBuilder;

    fn test_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
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
    fn every_method_produces_the_requested_edge_count() {
        let g = test_graph(1, 40, 160);
        for (spec, expected_edges) in [
            (SparsifierSpec::gdb().alpha(0.25), 40),
            (SparsifierSpec::emd().alpha(0.25), 40),
            (SparsifierSpec::lp().alpha(0.25), 40),
            (SparsifierSpec::gdb().alpha(0.5), 80),
        ] {
            let mut rng = SmallRng::seed_from_u64(3);
            let out = spec.sparsify(&g, &mut rng).unwrap();
            assert_eq!(
                out.graph.num_edges(),
                expected_edges,
                "{}",
                spec.display_name()
            );
            assert_eq!(out.graph.num_vertices(), g.num_vertices());
            assert_eq!(out.diagnostics.target_edges, expected_edges);
            for e in out.graph.edges() {
                assert!(e.p > 0.0 && e.p <= 1.0);
            }
        }
    }

    #[test]
    fn sparsified_graphs_reduce_entropy_with_default_h() {
        let g = test_graph(2, 30, 120);
        // α = 0.7 keeps more edges than the expected edge count, so the
        // optimal assignment does not fully saturate at probability 1 and a
        // strictly positive (but reduced) entropy remains.
        for spec in [
            SparsifierSpec::gdb().alpha(0.7),
            SparsifierSpec::emd().alpha(0.7),
        ] {
            let mut rng = SmallRng::seed_from_u64(5);
            let out = spec.sparsify(&g, &mut rng).unwrap();
            assert!(
                out.diagnostics.entropy_sparsified < out.diagnostics.entropy_original,
                "{}: {} !< {}",
                spec.display_name(),
                out.diagnostics.entropy_sparsified,
                out.diagnostics.entropy_original
            );
            let rel = out.diagnostics.relative_entropy();
            assert!(
                rel > 0.0 && rel < 1.0,
                "{}: rel = {rel}",
                spec.display_name()
            );
        }
    }

    #[test]
    fn aggressive_sparsification_saturates_probabilities_and_kills_entropy() {
        // When α|E| is below the expected number of edges the missing mass is
        // so large that every kept edge is driven to probability 1 — the
        // mechanism the paper credits for the large variance reductions at
        // small α (Section 6.3).
        let g = test_graph(2, 30, 120);
        let mut rng = SmallRng::seed_from_u64(5);
        let out = SparsifierSpec::gdb()
            .alpha(0.3)
            .sparsify(&g, &mut rng)
            .unwrap();
        let deterministic = out.graph.edges().filter(|e| e.p >= 1.0 - 1e-12).count();
        assert!(deterministic as f64 >= 0.9 * out.graph.num_edges() as f64);
        assert!(out.diagnostics.relative_entropy() < 0.05);
    }

    #[test]
    fn gdb_reduces_degree_discrepancy_relative_to_raw_backbone() {
        let g = test_graph(3, 30, 120);
        let mut rng = SmallRng::seed_from_u64(9);
        let out = SparsifierSpec::gdb()
            .alpha(0.3)
            .entropy_h(1.0)
            .sparsify(&g, &mut rng)
            .unwrap();
        let trace = &out.diagnostics.objective_trace;
        assert!(trace.last().unwrap() < trace.first().unwrap());
    }

    #[test]
    fn display_names_follow_paper_notation() {
        assert_eq!(SparsifierSpec::gdb().display_name(), "GDB^A-t");
        assert_eq!(
            SparsifierSpec::gdb()
                .backbone(BackboneKind::Random)
                .display_name(),
            "GDB^A"
        );
        assert_eq!(
            SparsifierSpec::emd()
                .discrepancy(DiscrepancyKind::Relative)
                .display_name(),
            "EMD^R-t"
        );
        assert_eq!(
            SparsifierSpec::gdb()
                .cut_rule(CutRule::Cuts(2))
                .backbone(BackboneKind::Random)
                .display_name(),
            "GDB^A_2"
        );
        assert_eq!(
            SparsifierSpec::gdb()
                .cut_rule(CutRule::AllCuts)
                .backbone(BackboneKind::Random)
                .display_name(),
            "GDB^A_n"
        );
        assert_eq!(SparsifierSpec::lp().display_name(), "LP^A-t");
    }

    /// `spec` refuses both non-degree cut rules with a typed error naming
    /// `method`, runs the degree rule, and `GDB` runs the same cut rules.
    fn assert_refuses_cut_rules(spec: SparsifierSpec, method: &str) {
        let g = test_graph(3, 30, 120);
        let run = |spec: SparsifierSpec| {
            spec.alpha(0.5)
                .sparsify(&g, &mut SmallRng::seed_from_u64(1))
        };
        for rule in [CutRule::Cuts(2), CutRule::AllCuts] {
            match run(spec.cut_rule(rule)) {
                Err(SparsifyError::InvalidParameter { name, message }) => {
                    assert_eq!(name, "cut_rule");
                    assert!(message.starts_with(method), "{message}");
                }
                other => panic!("{method} with {rule:?}: {other:?}"),
            }
            assert!(run(SparsifierSpec::gdb().cut_rule(rule)).is_ok());
        }
        assert!(run(spec.cut_rule(CutRule::Degree)).is_ok());
    }

    #[test]
    fn emd_refuses_a_cut_rule_it_does_not_run() {
        assert_refuses_cut_rules(SparsifierSpec::emd(), "EMD");
    }

    #[test]
    fn lp_refuses_a_cut_rule_it_does_not_run() {
        assert_refuses_cut_rules(SparsifierSpec::lp(), "LP");
        // Theorem 1's LP is the absolute Δ1 program: a relative spec would
        // be labelled `LP^R` yet write the absolute optimum.
        let g = test_graph(3, 30, 120);
        let run = |kind: DiscrepancyKind| {
            SparsifierSpec::lp()
                .alpha(0.5)
                .discrepancy(kind)
                .sparsify(&g, &mut SmallRng::seed_from_u64(1))
        };
        match run(DiscrepancyKind::Relative) {
            Err(SparsifyError::InvalidParameter { name, message }) => {
                assert_eq!(name, "discrepancy");
                assert!(message.starts_with("LP"), "{message}");
            }
            other => panic!("LP with the relative discrepancy: {other:?}"),
        }
        assert!(run(DiscrepancyKind::Absolute).is_ok());
    }

    #[test]
    fn spec_accessors_and_trait_object_dispatch() {
        let spec = SparsifierSpec::emd().alpha(0.4).entropy_h(0.1);
        assert_eq!(spec.method(), Method::Emd);
        assert!((spec.configured_alpha() - 0.4).abs() < 1e-12);
        assert_eq!(Method::Emd.name(), "EMD");

        let g = test_graph(4, 20, 60);
        let sparsifiers: Vec<Box<dyn Sparsifier>> = vec![
            Box::new(SparsifierSpec::gdb().alpha(0.4)),
            Box::new(SparsifierSpec::emd().alpha(0.4)),
        ];
        let mut rng = SmallRng::seed_from_u64(1);
        for s in &sparsifiers {
            let out = s.sparsify_dyn(&g, &mut rng).unwrap();
            assert_eq!(out.graph.num_edges(), 24);
            assert_eq!(out.diagnostics.method, s.name());
        }
    }

    #[test]
    fn invalid_alpha_is_rejected_before_any_work() {
        let g = test_graph(5, 10, 20);
        let mut rng = SmallRng::seed_from_u64(0);
        for alpha in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            let result = SparsifierSpec::gdb().alpha(alpha).sparsify(&g, &mut rng);
            assert!(
                matches!(result, Err(SparsifyError::InvalidAlpha { .. })),
                "alpha {alpha}"
            );
        }
    }

    #[test]
    fn materialize_floors_zero_probabilities() {
        let g = test_graph(6, 10, 20);
        let assignment = vec![(0, 0.0), (1, 0.5), (2, 1.0)];
        let s = materialize(&g, &assignment).unwrap();
        assert_eq!(s.num_edges(), 3);
        let probs: Vec<f64> = s.edges().map(|e| e.p).collect();
        assert!(probs.iter().all(|&p| p > 0.0 && p <= 1.0));
        assert!(probs.contains(&MIN_PROBABILITY));
    }

    #[test]
    fn relative_entropy_of_zero_entropy_original_is_zero() {
        let d = Diagnostics {
            method: "x".into(),
            alpha: 0.5,
            target_edges: 1,
            iterations: 1,
            swaps: 0,
            objective_trace: vec![],
            entropy_original: 0.0,
            entropy_sparsified: 0.0,
            elapsed: Duration::from_millis(1),
            phases: PhaseTimings::default(),
        };
        assert_eq!(d.relative_entropy(), 0.0);
    }
}
