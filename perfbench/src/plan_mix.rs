//! `plan_mix`: one closed-loop caller runs `QueryPlan::execute_detailed`
//! over the five-query mix (32 worlds, 2 threads, a fresh plan seed per
//! op).  Every query-engine layer works; the sparsifier, server and fleet
//! are idle.

use std::sync::Arc;
use std::time::Instant;

use uncertain_graph::UncertainGraph;

use ugs_queries::WorldEngine;

use crate::ops::Seeds;
use crate::queries::{self, MirrorBatch, MIX_WORLDS};
use crate::trace::Tracer;
use crate::{closed_loop, setup_median, Metrics, Outcome, RunArgs};

/// What one op produced.
struct PlanOp {
    ms: f64,
    /// `None` when the plan returned an error instead of answers.
    checked: Option<bool>,
}

/// One op: the timed plan, then (untimed) the two parity checks — the
/// plan equals a `QueryBatch` with the same seed, and its counts equal a
/// 1-thread run's.
fn op(
    tracer: &Tracer,
    graph: &Arc<UncertainGraph>,
    engine: &WorldEngine<'_>,
    index: u64,
    seed: u64,
) -> PlanOp {
    let specs = queries::mix_specs();
    let plan = queries::plan(specs.clone(), MIX_WORLDS, 2, seed);
    let root = tracer.open("plan_mix.op", None, index);
    let started = Instant::now();
    let answers = tracer.span("service.execute_detailed", root, index, |_| {
        plan.execute_detailed(Arc::clone(graph))
    });
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = answers.iter().all(Result::is_ok);
    let correct = tracer.span("check", root, index, |_| {
        let mirror = MirrorBatch::new(engine, &specs, MIX_WORLDS, 2, seed).run();
        let counts: Vec<_> = specs
            .iter()
            .filter(|spec| queries::is_count_query(spec))
            .cloned()
            .collect();
        let single = MirrorBatch::new(engine, &counts, MIX_WORLDS, 1, seed).run();
        let plan_counts: Vec<_> = answers
            .iter()
            .zip(&specs)
            .filter(|(_, spec)| queries::is_count_query(spec))
            .map(|(answer, _)| answer.clone())
            .collect();
        queries::answers_match(&answers, &mirror) && queries::counts_match(&plan_counts, &single)
    });
    tracer.close(root);
    PlanOp {
        ms,
        checked: ok.then_some(correct),
    }
}

/// Runs the workload; see the [module docs](self).
pub fn run(args: &RunArgs, out: &mut Metrics) -> Outcome {
    let (setup_s, graph) = setup_median(|| {
        let graph = queries::generate_graph(args.seed);
        std::hint::black_box(WorldEngine::new(&graph));
        graph
    });
    out.set("setup_s", setup_s);
    out.header(&graph, 1, 0);
    let engine = WorldEngine::new(&graph);
    // Warm-up: caches, allocator and thread start-up, outside the timing.
    let warm = Tracer::new(false);
    op(
        &warm,
        &graph,
        &engine,
        0,
        Seeds::new(args.seed, "warm-up").next_seed(),
    );

    let tracer = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut seeds = Seeds::new(args.seed, "plan");
    let mut ops = Vec::new();
    closed_loop(args.budget(), &tracer, |index, tracer| {
        let result = op(tracer, &graph, &engine, index, seeds.next_seed());
        outcome.record(result.checked);
        // A failed op counts only in `failed`, not in the timings.
        if result.checked.is_some() {
            ops.push((tracer.enabled(), result.ms));
        }
    });
    let ms: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
    out.plan_latencies(&ms);
    out.set(
        "plans_per_s",
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
    );
    if args.trace {
        out.trace_overhead(&ops);
        let ladder_seed = Seeds::new(args.seed, "ladder").next_seed();
        queries::ladder(&tracer, None, &graph, ladder_seed, true, out);
        out.finish_trace(&tracer, args);
    }
    outcome
}
