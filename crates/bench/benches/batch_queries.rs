//! Multi-query amortisation: k standalone Monte-Carlo queries vs one
//! [`QueryBatch`] evaluating the same k queries over **shared** sampled
//! worlds.
//!
//! Standalone, each query pays the full sample-and-materialise cost for its
//! own `N` worlds; batched, that cost is paid once for the whole mix, so the
//! batch should cost roughly `sample + Σ kernels` instead of
//! `Σ (sample + kernel)`.  Measured at p̄ ≈ 0.09 — the paper's Flickr regime,
//! where skip-sampling makes the per-world sampling cheap and the query mix
//! (PageRank + connectivity + degree histogram + edge frequencies) is
//! kernel-heavy on one side and sampling-heavy on the other.
//!
//! The acceptance bar recorded in `BENCH_batch.json`: a 4-query batch
//! completes in **< 2×** the wall-time of the costliest standalone query
//! (and far under the 4-query standalone sum).

use std::time::Duration;

use minijson::{ObjBuilder, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_bench::harness::{fastest, write_bench_json};
use ugs_datasets::{erdos_renyi, ProbabilityModel};
use ugs_queries::prelude::*;

const WORLDS: usize = 256;
const MEAN_P: f64 = 0.09;
/// Timed runs per evaluation; the fastest is kept.
const RUNS: usize = 10;

fn flickr_regime_graph() -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    erdos_renyi(400, 0.05, ProbabilityModel::Fixed(MEAN_P), &mut rng)
}

/// The fastest of [`RUNS`] evaluations of `run`, each on a fresh seed-1
/// stream.
fn fastest_from_seed<T>(mut run: impl FnMut(&mut SmallRng) -> T) -> Duration {
    fastest(RUNS, || run(&mut SmallRng::seed_from_u64(1)))
}

fn ratio(num: Duration, den: Duration) -> f64 {
    let ratio = num.as_nanos() as f64 / den.as_nanos().max(1) as f64;
    (ratio * 100.0).round() / 100.0
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn main() {
    let g = &flickr_regime_graph();
    let mc = &MonteCarlo::worlds(WORLDS).with_method(SampleMethod::Skip);

    // Standalone: each query samples its own worlds (the classic wrappers
    // are single-observer batches, i.e. exactly the standalone cost).
    let pagerank = fastest_from_seed(|rng| expected_pagerank(g, mc, rng));
    let connectivity = fastest_from_seed(|rng| connectivity_query(g, mc, rng));
    let histogram = fastest_from_seed(|rng| expected_degree_histogram(g, mc, rng));
    let frequencies = fastest_from_seed(|rng| {
        let mut batch = QueryBatch::new(g, mc);
        batch.register(EdgeFrequencyObserver::new(g));
        batch.run(rng)
    });
    let standalone = [
        ("pagerank", pagerank),
        ("connectivity", connectivity),
        ("degree_histogram", histogram),
        ("edge_frequencies", frequencies),
    ];
    let standalone_sum = pagerank + connectivity + histogram + frequencies;
    let costliest = standalone.iter().map(|&(_, d)| d).max().expect("four");

    // Batched: one observer (driver overhead floor) and the full mix of
    // four sharing one sampling pass.
    let batch_one = fastest_from_seed(|rng| {
        let mut batch = QueryBatch::new(g, mc);
        batch.register(PageRankObserver::new(g));
        batch.run(rng)
    });
    let batch_four = fastest_from_seed(|rng| {
        let mut batch = QueryBatch::new(g, mc);
        batch.register(PageRankObserver::new(g));
        batch.register(ConnectivityObserver::new(g));
        batch.register(DegreeHistogramObserver::new(g));
        batch.register(EdgeFrequencyObserver::new(g));
        batch.run(rng)
    });

    // Sampling-bound mix: all four kernels are (near-)linear sweeps, so the
    // per-world cost is dominated by sampling + materialisation.  This is
    // where world sharing approaches the ideal k× saving.
    let clustering = fastest_from_seed(|rng| expected_clustering_coefficients(g, mc, rng));
    let knn = fastest_from_seed(|rng| k_nearest_neighbors(g, 0, 10, mc, rng));
    let cheap_standalone_sum = clustering + histogram + frequencies + knn;
    let cheap_batch_four = fastest_from_seed(|rng| {
        let mut batch = QueryBatch::new(g, mc);
        batch.register(ClusteringObserver::new(g));
        batch.register(DegreeHistogramObserver::new(g));
        batch.register(EdgeFrequencyObserver::new(g));
        batch.register(KnnObserver::new(g, 0, 10));
        batch.run(rng)
    });

    println!(
        "p̄ = {MEAN_P}  worlds = {WORLDS}  standalone sum {standalone_sum:.2?}  \
         batch(4) {batch_four:.2?}  amortisation {:.2}x  \
         batch(4)/costliest-standalone {:.2}x  \
         sampling-bound mix {cheap_standalone_sum:.2?} -> {cheap_batch_four:.2?} ({:.2}x)",
        ratio(standalone_sum, batch_four),
        ratio(batch_four, costliest),
        ratio(cheap_standalone_sum, cheap_batch_four),
    );

    let names = |names: [&str; 4]| Value::Arr(names.map(Value::from).to_vec());
    let mut fields = ObjBuilder::new()
        .field(
            "graph",
            format!("erdos_renyi(400 vertices, 5% density, p = {MEAN_P})"),
        )
        .field("worlds", WORLDS)
        .field(
            "unit",
            format!("ns per full {WORLDS}-world query evaluation"),
        )
        .field("runs", RUNS)
        .field("queries", names(standalone.map(|(name, _)| name)))
        .field(
            "notes",
            "4-query batch vs standalone runs at the paper's Flickr regime (p ~ 0.09), each \
             time the fastest of `runs` runs; bar: batch_4query_over_costliest_standalone < 2.0",
        );
    for (name, d) in standalone {
        fields = fields.field(&format!("standalone_{name}_ns"), ns(d));
    }
    let sampling_bound_mix = ObjBuilder::new()
        .field(
            "queries",
            names(["clustering", "degree_histogram", "edge_frequencies", "knn"]),
        )
        .field("standalone_sum_ns", ns(cheap_standalone_sum))
        .field("batch_4query_ns", ns(cheap_batch_four))
        .field(
            "amortisation_sum_over_batch",
            ratio(cheap_standalone_sum, cheap_batch_four),
        )
        .build();
    let fields = fields
        .field("standalone_sum_ns", ns(standalone_sum))
        .field("batch_1query_ns", ns(batch_one))
        .field("batch_4query_ns", ns(batch_four))
        .field(
            "amortisation_sum_over_batch",
            ratio(standalone_sum, batch_four),
        )
        .field(
            "batch_4query_over_costliest_standalone",
            ratio(batch_four, costliest),
        )
        .field(
            "batch_1query_over_standalone_pagerank",
            ratio(batch_one, pagerank),
        )
        .field("sampling_bound_mix", sampling_bound_mix)
        .build();
    write_bench_json("batch", fields);
}
