//! `sparsify_query`: the paper's pipeline.  Each op sparsifies the graph
//! with EMD^R-t (α = 0.5, at most 8 EM iterations), then runs the plan mix
//! on the sparsified graph and compares its answers with the original
//! graph's answers for the same plan seed (computed before the timing).
//! Ops cycle through small pools of sparsifier and plan seeds, so every
//! seed recurs and the same sparsifier seed must give the same sparsified
//! graph.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_core::{
    build_backbone_into, expectation_maximization_sparsify_with, gradient_descent_assign_with,
    BackboneConfig, CoreScratch, DiscrepancyKind, EmdConfig, GdbConfig, SparsifierSpec,
};
use ugs_service::QueryResult;

use crate::ops::Seeds;
use crate::queries::{self, MIX_WORLDS};
use crate::stats::{mean, median};
use crate::trace::{SpanId, Tracer};
use crate::{closed_loop, setup_median, Metrics, Outcome, RunArgs};

/// The sparsification ratio α.
const ALPHA: f64 = 0.5;
/// EM iteration cap (uncapped EMD takes tens of seconds on this graph).
const EM_ITERATIONS: usize = 8;
/// Sparsifier seeds the ops cycle through: each recurs within a run, and a
/// run averages over several backbones.  Odd, like [`PLAN_SEEDS`], so the
/// traced (odd) and untraced (even) ops of a traced run see every seed.
const SPARSIFY_SEEDS: usize = 5;
/// Plan seeds whose original-graph answers are computed before the timing.
const PLAN_SEEDS: usize = 3;

fn spec() -> SparsifierSpec {
    SparsifierSpec::emd()
        .alpha(ALPHA)
        .discrepancy(DiscrepancyKind::Relative)
        .max_iterations(EM_ITERATIONS)
}

/// What one op produced.
struct SparsifyOp {
    sparsify_s: f64,
    query_ms: f64,
    rel_error: f64,
    entropy_ratio: f64,
    /// `None` when the sparsifier or the plan returned an error.
    checked: Option<bool>,
}

struct Pipeline<'a> {
    graph: &'a Arc<UncertainGraph>,
    sparsify_seeds: Vec<u64>,
    plan_seeds: Vec<u64>,
    references: Vec<Vec<QueryResult>>,
    fingerprints: HashMap<u64, u64>,
    scratch: CoreScratch,
}

impl Pipeline<'_> {
    fn op(&mut self, tracer: &Tracer, index: u64) -> SparsifyOp {
        let sparsify_seed = self.sparsify_seeds[index as usize % SPARSIFY_SEEDS];
        let slot = index as usize % PLAN_SEEDS;
        let plan_seed = self.plan_seeds[slot];
        let root = tracer.open("sparsify_query.op", None, index);
        let started = Instant::now();
        let output = tracer.span("core.sparsify", root, index, |_| {
            spec().sparsify_with(
                self.graph,
                &mut SmallRng::seed_from_u64(sparsify_seed),
                &mut self.scratch,
            )
        });
        let sparsify_s = started.elapsed().as_secs_f64();
        let Ok(output) = output else {
            tracer.close(root);
            return SparsifyOp {
                sparsify_s,
                query_ms: f64::NAN,
                rel_error: f64::NAN,
                entropy_ratio: f64::NAN,
                checked: None,
            };
        };
        let target = (ALPHA * self.graph.num_edges() as f64).round() as usize;
        let fingerprint = output.graph.fingerprint();
        let correct = output.graph.num_edges() == target
            && *self
                .fingerprints
                .entry(sparsify_seed)
                .or_insert(fingerprint)
                == fingerprint;
        let entropy_ratio = output.diagnostics.relative_entropy();
        let sparse = Arc::new(output.graph);

        let plan = queries::plan(queries::mix_specs(), MIX_WORLDS, 2, plan_seed);
        let started = Instant::now();
        let answers = tracer.span("service.execute_detailed", root, index, |_| {
            plan.execute_detailed(Arc::clone(&sparse))
        });
        let query_ms = started.elapsed().as_secs_f64() * 1e3;
        let results = queries::results_of(&answers);
        let rel_error = results.as_ref().map_or(f64::NAN, |results| {
            queries::answer_rel_error(&self.references[slot], results)
        });
        tracer.close(root);
        SparsifyOp {
            sparsify_s,
            query_ms,
            rel_error,
            entropy_ratio,
            checked: results.map(|_| correct),
        }
    }
}

/// The sparsifier ladder on the original graph, each phase a span and a
/// direct call into its public function: a full run (whose diagnostics
/// time materialisation), then the backbone, GDB on that backbone and EMD
/// on that backbone.
fn core_ladder(
    tracer: &Tracer,
    parent: Option<SpanId>,
    graph: &UncertainGraph,
    seed: u64,
    out: &mut Metrics,
) {
    // A full run first: it warms the scratch for the phase calls below,
    // and its diagnostics time the materialisation phase.
    let mut scratch = CoreScratch::new();
    let full = tracer.span("core.sparsify", parent, 0, |_| {
        spec()
            .sparsify_with(graph, &mut SmallRng::seed_from_u64(seed), &mut scratch)
            .expect("sparsify the benchmark graph")
    });
    let materialise_ms = full.diagnostics.phases.materialize.as_secs_f64() * 1e3;
    println!(
        "# ladder sparsify: {:.1} ms (backbone {:.1}, optimise {:.1}, materialise {:.1})",
        full.diagnostics.elapsed.as_secs_f64() * 1e3,
        full.diagnostics.phases.backbone.as_secs_f64() * 1e3,
        full.diagnostics.phases.optimize.as_secs_f64() * 1e3,
        materialise_ms
    );
    let mut backbone = Vec::new();
    let backbone_ms = tracer.span("core.backbone", parent, 0, |_| {
        let started = Instant::now();
        build_backbone_into(
            graph,
            ALPHA,
            &BackboneConfig::default(),
            &mut SmallRng::seed_from_u64(seed),
            &mut scratch,
            &mut backbone,
        )
        .expect("backbone of the benchmark graph");
        started.elapsed().as_secs_f64() * 1e3
    });
    let gdb = GdbConfig {
        discrepancy: DiscrepancyKind::Relative,
        max_iterations: EM_ITERATIONS,
        ..GdbConfig::default()
    };
    let gdb_ms = tracer.span("core.gdb", parent, 0, |_| {
        let started = Instant::now();
        std::hint::black_box(
            gradient_descent_assign_with(graph, &backbone, &gdb, &mut scratch)
                .expect("GDB on the benchmark backbone"),
        );
        started.elapsed().as_secs_f64() * 1e3
    });
    let emd = EmdConfig {
        discrepancy: DiscrepancyKind::Relative,
        max_iterations: EM_ITERATIONS,
        gdb,
        ..EmdConfig::default()
    };
    let (emd_ms, result) = tracer.span("core.emd", parent, 0, |_| {
        let started = Instant::now();
        let result = expectation_maximization_sparsify_with(graph, &backbone, &emd, &mut scratch)
            .expect("EMD on the benchmark backbone");
        (started.elapsed().as_secs_f64() * 1e3, result)
    });
    out.set("core.backbone_ms", backbone_ms);
    out.set("core.gdb_ms", gdb_ms);
    out.set("core.emd_ms", emd_ms);
    out.set("core.materialise_ms", materialise_ms);
    out.set("core.emd_swaps", result.swaps as f64);
    out.set("core.emd_iterations", result.iterations as f64);
}

/// Runs the workload; see the [module docs](self).
pub fn run(args: &RunArgs, out: &mut Metrics) -> Outcome {
    let (setup_s, graph) = setup_median(|| queries::generate_graph(args.seed));
    out.set("setup_s", setup_s);
    out.header(&graph, 1, 0);

    let mut seeds = Seeds::new(args.seed, "sparsify");
    let sparsify_seeds: Vec<u64> = (0..SPARSIFY_SEEDS).map(|_| seeds.next_seed()).collect();
    let plan_seeds: Vec<u64> = (0..PLAN_SEEDS).map(|_| seeds.next_seed()).collect();
    let started = Instant::now();
    let references: Vec<Vec<QueryResult>> = plan_seeds
        .iter()
        .map(|&plan_seed| {
            let plan = queries::plan(queries::mix_specs(), MIX_WORLDS, 2, plan_seed);
            queries::results_of(&plan.execute_detailed(Arc::clone(&graph)))
                .expect("reference answers on the original graph")
        })
        .collect();
    println!(
        "# reference answers on the original graph: {} plans in {:.3} s",
        PLAN_SEEDS,
        started.elapsed().as_secs_f64()
    );
    let mut pipeline = Pipeline {
        graph: &graph,
        sparsify_seeds,
        plan_seeds,
        references,
        fingerprints: HashMap::new(),
        scratch: CoreScratch::new(),
    };

    let tracer = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut ops = Vec::new();
    closed_loop(args.budget(), &tracer, |index, tracer| {
        let op = pipeline.op(tracer, index);
        outcome.record(op.checked);
        // A failed op counts only in `failed`, not in the timings, errors
        // and entropies.
        if op.checked.is_some() {
            ops.push((tracer.enabled(), op));
        }
    });
    let column =
        |f: fn(&SparsifyOp) -> f64| -> Vec<f64> { ops.iter().map(|(_, op)| f(op)).collect() };
    let sparsify = column(|op| op.sparsify_s);
    let errors = column(|op| op.rel_error);
    let entropy = column(|op| op.entropy_ratio);
    let op_s = column(|op| op.sparsify_s + op.query_ms / 1e3);
    out.plan_latencies(&column(|op| op.query_ms));
    // A run holds only a handful of these multi-second ops, so the rate is
    // taken at the median op: one op slowed by the host does not move it.
    out.set("plans_per_s", 1.0 / median(&op_s));
    println!(
        "# ops per busy second (mean-based) = {:.4}",
        op_s.len() as f64 / op_s.iter().sum::<f64>()
    );
    out.set("core.sparsify_s", median(&sparsify));
    out.set("quality.answer_rel_error", mean(&errors));
    out.set("quality.entropy_ratio", median(&entropy));
    println!(
        "# sparsify_s = {:.4} s (median of {}), answer_rel_error = {:.4} (mean), \
         entropy_ratio = {:.4}",
        median(&sparsify),
        ops.len(),
        mean(&errors),
        median(&entropy)
    );
    if !args.trace {
        return outcome;
    }
    let op_ms: Vec<(bool, f64)> = ops
        .iter()
        .map(|(traced, op)| (*traced, op.sparsify_s * 1e3 + op.query_ms))
        .collect();
    out.trace_overhead(&op_ms);
    let ladder_seed = Seeds::new(args.seed, "ladder").next_seed();
    core_ladder(&tracer, None, &graph, ladder_seed, out);
    // The query layers again, on a sparsified graph: same layers, other input.
    let sparse = spec()
        .sparsify(&graph, &mut SmallRng::seed_from_u64(ladder_seed))
        .expect("sparsify the benchmark graph");
    queries::ladder(
        &tracer,
        None,
        &Arc::new(sparse.graph),
        ladder_seed,
        true,
        out,
    );
    out.finish_trace(&tracer, args);
    outcome
}
