//! The query side shared by the workloads: the benchmark graph, the plan
//! mix, `QueryBatch` runs that mirror a plan, answer comparison, and the
//! per-layer ladder (sampling → materialisation → kernels → merge → plan).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_datasets::{preferential_attachment, ProbabilityModel};
use ugs_queries::{QueryBatch, SampleMethod, WorldEngine};
use ugs_service::{QueryAnswer, QueryPlan, QueryResult, QuerySpec, ServiceError};

use crate::ops;
use crate::trace::{SpanId, Tracer};
use crate::Metrics;

/// Vertices of the benchmark graph.
pub const VERTICES: usize = 60_000;
/// Edges each new vertex attaches with.
pub const EDGES_PER_VERTEX: usize = 4;
/// Probability of every edge (the paper's p̄ regime).
pub const MEAN_P: f64 = 0.09;
/// Worlds of the plan mix.
pub const MIX_WORLDS: usize = 32;
/// PageRank tolerance of the plan mix (the default 1e-10 makes PageRank
/// alone take seconds per plan).
pub const PAGERANK_TOLERANCE: f64 = 1e-4;
/// Source vertex and neighbour count of the k-NN query.
pub const KNN: (usize, usize) = (0, 10);

/// Per-plan results as the service returns them.
pub type Answers = Vec<Result<QueryAnswer, ServiceError>>;

/// The benchmark graph of a workload seed.
pub fn generate_graph(seed: u64) -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(ops::graph_seed(seed));
    Arc::new(preferential_attachment(
        VERTICES,
        EDGES_PER_VERTEX,
        ProbabilityModel::Fixed(MEAN_P),
        &mut rng,
    ))
}

/// The k-NN spec of every workload.
pub fn knn_spec() -> QuerySpec {
    QuerySpec::Knn {
        source: KNN.0,
        k: KNN.1,
    }
}

/// The five queries of the plan mix, in plan order.
pub fn mix_specs() -> Vec<QuerySpec> {
    let QuerySpec::PageRank {
        damping,
        max_iterations,
        ..
    } = QuerySpec::pagerank()
    else {
        unreachable!("QuerySpec::pagerank builds a PageRank spec")
    };
    vec![
        QuerySpec::Connectivity,
        QuerySpec::DegreeHistogram,
        QuerySpec::EdgeFrequency,
        QuerySpec::PageRank {
            damping,
            max_iterations,
            tolerance: PAGERANK_TOLERANCE,
        },
        knn_spec(),
    ]
}

/// A fixed-budget plan over `queries`.
pub fn plan(queries: Vec<QuerySpec>, worlds: usize, threads: usize, seed: u64) -> QueryPlan {
    QueryPlan {
        graph: None,
        worlds,
        threads,
        shards: 1,
        mode: SampleMethod::Auto,
        seed,
        precision: None,
        queries,
    }
}

/// Whether a spec's accumulators are integer counts, whose answers do not
/// depend on the thread count (float accumulators merge per worker).
pub fn is_count_query(spec: &QuerySpec) -> bool {
    !matches!(spec, QuerySpec::PageRank { .. } | QuerySpec::Clustering)
}

/// A `QueryBatch` over `specs` built exactly as a plan with the same seed
/// runs it: one batch seed drawn from the plan seed.
pub struct MirrorBatch<'g> {
    batch: QueryBatch<'g>,
    specs: Vec<QuerySpec>,
    handles: Vec<ugs_queries::DynHandle>,
    seed: u64,
}

impl<'g> MirrorBatch<'g> {
    /// Registers one observer per spec on a batch over a clone of `engine`.
    pub fn new(
        engine: &WorldEngine<'g>,
        specs: &[QuerySpec],
        worlds: usize,
        threads: usize,
        seed: u64,
    ) -> Self {
        let graph = engine.graph();
        let mut batch = QueryBatch::from_engine(engine.clone(), worlds, threads);
        let handles = specs
            .iter()
            .map(|spec| {
                let observer = spec
                    .make_observer(graph)
                    .expect("benchmark specs fit the graph");
                batch.register_boxed(observer)
            })
            .collect();
        MirrorBatch {
            batch,
            specs: specs.to_vec(),
            handles,
            seed,
        }
    }

    /// Samples the worlds and returns the typed results in spec order.
    pub fn run(self) -> Vec<QueryResult> {
        let mut results = self.batch.run(&mut SmallRng::seed_from_u64(self.seed));
        self.specs
            .iter()
            .zip(self.handles)
            .map(|(spec, handle)| {
                let output = results
                    .try_take_boxed(handle)
                    .expect("handle of this batch");
                spec.result_of(output).expect("output of this spec")
            })
            .collect()
    }
}

/// Whether every answer is `Ok` and equals the corresponding result.
pub fn answers_match(answers: &Answers, results: &[QueryResult]) -> bool {
    answers.len() == results.len()
        && answers
            .iter()
            .zip(results)
            .all(|(answer, result)| matches!(answer, Ok(a) if a.result == *result))
}

/// Whether every answer is `Ok` and its integer counts equal the
/// corresponding result's: the answers a run must reproduce at any thread
/// count.  Connectivity's isolated-vertex fraction is left out — it sums
/// per-world fractions, whose last bits depend on the merge order.
pub fn counts_match(answers: &Answers, results: &[QueryResult]) -> bool {
    answers.len() == results.len()
        && answers.iter().zip(results).all(|(answer, result)| {
            let Ok(answer) = answer else { return false };
            match (&answer.result, result) {
                (QueryResult::Connectivity(a), QueryResult::Connectivity(b)) => {
                    (a.expected_components, a.expected_largest_component)
                        == (b.expected_components, b.expected_largest_component)
                        && (a.probability_connected, a.num_worlds)
                            == (b.probability_connected, b.num_worlds)
                }
                (a, b) => a == b,
            }
        })
}

/// The results of an all-`Ok` answer list.
pub fn results_of(answers: &Answers) -> Option<Vec<QueryResult>> {
    answers
        .iter()
        .map(|answer| answer.as_ref().ok().map(|a| a.result.clone()))
        .collect()
}

/// Mean relative error of `approx` against `reference` over the answers
/// that can be compared across two graphs on the same vertex set:
/// connectivity (per estimate), degree histogram and PageRank (L1 over L1)
/// and k-NN (mean neighbour distance).  Edge frequencies are skipped: edge
/// ids differ between a graph and its sparsification.
pub fn answer_rel_error(reference: &[QueryResult], approx: &[QueryResult]) -> f64 {
    fn rel(a: f64, b: f64) -> Option<f64> {
        (b != 0.0).then(|| (a - b).abs() / b.abs())
    }
    fn l1_rel(a: &[f64], b: &[f64]) -> Option<f64> {
        let len = a.len().max(b.len());
        let at = |xs: &[f64], i: usize| xs.get(i).copied().unwrap_or(0.0);
        let diff: f64 = (0..len).map(|i| (at(a, i) - at(b, i)).abs()).sum();
        let norm: f64 = b.iter().map(|x| x.abs()).sum();
        (norm > 0.0).then_some(diff / norm)
    }
    let mut errors = Vec::new();
    for (r, a) in reference.iter().zip(approx) {
        let error = match (r, a) {
            (QueryResult::Connectivity(r), QueryResult::Connectivity(a)) => {
                let parts: Vec<f64> = [
                    rel(a.expected_components, r.expected_components),
                    rel(a.expected_largest_component, r.expected_largest_component),
                    rel(a.expected_isolated_fraction, r.expected_isolated_fraction),
                ]
                .into_iter()
                .flatten()
                .collect();
                (!parts.is_empty()).then(|| parts.iter().sum::<f64>() / parts.len() as f64)
            }
            (QueryResult::DegreeHistogram(r), QueryResult::DegreeHistogram(a))
            | (QueryResult::PageRank(r), QueryResult::PageRank(a)) => l1_rel(a, r),
            (QueryResult::Knn(r), QueryResult::Knn(a)) => {
                let mean = |ns: &[ugs_queries::Neighbor]| {
                    ns.iter().map(|n| n.expected_distance).sum::<f64>() / ns.len() as f64
                };
                (!r.is_empty() && !a.is_empty())
                    .then(|| rel(mean(a), mean(r)))
                    .flatten()
            }
            _ => None,
        };
        errors.extend(error);
    }
    if errors.is_empty() {
        f64::NAN
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    }
}

/// Rounds of the ladder; each rung reports its fastest run, the one least
/// disturbed by whatever else shares the cores.
const RUNG_ROUNDS: usize = 3;

/// One ladder rung: its span name, and a run that prepares untimed state
/// and returns the seconds of its timed part.
type Rung<'a> = (&'static str, Box<dyn FnMut() -> f64 + 'a>);

/// Runs every rung once per round, interleaved so that slow drift in the
/// machine's speed touches all rungs alike, each run inside a span named
/// after its rung; returns each rung's fastest run in milliseconds.
fn fastest_ms(tracer: &Tracer, parent: Option<SpanId>, rungs: &mut [Rung<'_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; rungs.len()];
    for _ in 0..RUNG_ROUNDS {
        for ((name, rung), best) in rungs.iter_mut().zip(&mut best) {
            *best = best.min(tracer.span(name, parent, 0, |_| rung()) * 1e3);
        }
    }
    best
}

/// Seconds `f` takes.
fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Span and metric names of a plan-mix kernel rung.
fn kernel_names(spec: &QuerySpec) -> (&'static str, &'static str) {
    match spec {
        QuerySpec::Connectivity => (
            "queries.kernel.connectivity",
            "queries.kernel_us_per_world.connectivity",
        ),
        QuerySpec::DegreeHistogram => (
            "queries.kernel.degree_histogram",
            "queries.kernel_us_per_world.degree_histogram",
        ),
        QuerySpec::EdgeFrequency => (
            "queries.kernel.edge_frequency",
            "queries.kernel_us_per_world.edge_frequency",
        ),
        QuerySpec::PageRank { .. } => (
            "queries.kernel.pagerank",
            "queries.kernel_us_per_world.pagerank",
        ),
        _ => ("queries.kernel.knn", "queries.kernel_us_per_world.knn"),
    }
}

/// The query-layer ladder on `graph`: engine build, sampling only,
/// sampling plus materialisation, and with `kernels` also each kernel
/// alone in a one-observer batch, all five in one batch at 1 and 2
/// threads, and the full plan.  Adjacent rungs differ by one layer, so
/// their differences are the layers' costs per world.
pub fn ladder(
    tracer: &Tracer,
    parent: Option<SpanId>,
    graph: &Arc<UncertainGraph>,
    seed: u64,
    kernels: bool,
    out: &mut Metrics,
) {
    const SAMPLE_WORLDS: usize = 4 * MIX_WORLDS;
    let engine = WorldEngine::new(graph);
    let specs = mix_specs();
    let mix = plan(specs.clone(), MIX_WORLDS, 2, seed);
    let sample = |materialise: bool| -> Box<dyn FnMut() -> f64 + '_> {
        let engine = &engine;
        Box::new(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = engine.make_scratch();
            seconds(|| {
                for _ in 0..SAMPLE_WORLDS {
                    if materialise {
                        std::hint::black_box(engine.sample_world(&mut rng, &mut scratch));
                    } else {
                        engine.advance_world(&mut rng, &mut scratch);
                    }
                }
            })
        })
    };
    let batch = |specs: Vec<QuerySpec>, threads: usize| -> Box<dyn FnMut() -> f64 + '_> {
        let engine = &engine;
        Box::new(move || {
            let batch = MirrorBatch::new(engine, &specs, MIX_WORLDS, threads, seed);
            seconds(|| {
                std::hint::black_box(batch.run());
            })
        })
    };
    let mut rungs: Vec<Rung<'_>> = vec![
        (
            "queries.engine_build",
            Box::new(|| {
                seconds(|| {
                    std::hint::black_box(WorldEngine::new(graph));
                })
            }),
        ),
        ("ugraph.sample", sample(false)),
        ("graphalg.materialise", sample(true)),
    ];
    if kernels {
        for spec in &specs {
            rungs.push((kernel_names(spec).0, batch(vec![spec.clone()], 1)));
        }
        rungs.push(("queries.batch.t1", batch(specs.clone(), 1)));
        rungs.push(("queries.batch.t2", batch(specs.clone(), 2)));
        rungs.push((
            "service.execute_detailed",
            Box::new(|| {
                seconds(|| {
                    std::hint::black_box(mix.execute_detailed(Arc::clone(graph)));
                })
            }),
        ));
    }
    let ms = fastest_ms(tracer, parent, &mut rungs);
    let per_world = |ms: f64, worlds: usize| ms * 1e3 / worlds as f64;
    let sample_us = per_world(ms[1], SAMPLE_WORLDS);
    let sampled_and_materialised = per_world(ms[2], SAMPLE_WORLDS);
    out.set("queries.engine_build_ms", ms[0]);
    out.set("ugraph.sample_us_per_world", sample_us);
    out.set(
        "graphalg.materialise_us_per_world",
        sampled_and_materialised - sample_us,
    );
    if !kernels {
        return;
    }
    let mut kernel_sum = 0.0;
    for (spec, &kernel_ms) in specs.iter().zip(&ms[3..]) {
        let kernel = per_world(kernel_ms, MIX_WORLDS) - sampled_and_materialised;
        kernel_sum += kernel;
        out.set(kernel_names(spec).1, kernel);
    }
    let rest = &ms[3 + specs.len()..];
    let (t1, t2, plan_ms) = (
        per_world(rest[0], MIX_WORLDS),
        per_world(rest[1], MIX_WORLDS),
        rest[2],
    );
    out.set("queries.batch_us_per_world.t1", t1);
    out.set("queries.batch_us_per_world.t2", t2);
    out.set(
        "queries.merge_us_per_world",
        t1 - sampled_and_materialised - kernel_sum,
    );
    out.set("queries.thread_speedup", t1 / t2);
    out.set("service.plan_overhead_ms", plan_ms - rest[1]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_equals_its_mirror_batch_on_a_small_graph() {
        let mut rng = SmallRng::seed_from_u64(5);
        let graph = preferential_attachment(300, 3, ProbabilityModel::Fixed(0.3), &mut rng);
        let engine = WorldEngine::new(&graph);
        let specs = mix_specs();
        let answers = plan(specs.clone(), 16, 2, 99).execute_detailed(graph.clone());
        let mirror = MirrorBatch::new(&engine, &specs, 16, 2, 99).run();
        assert!(answers_match(&answers, &mirror));
        let other_seed = MirrorBatch::new(&engine, &specs, 16, 2, 100).run();
        assert!(!answers_match(&answers, &other_seed));
        assert_eq!(answer_rel_error(&mirror, &mirror), 0.0);
        assert!(answer_rel_error(&mirror, &other_seed) > 0.0);
    }
}
