//! Latency-vs-accuracy frontier of adaptive-precision Monte-Carlo vs the
//! fixed-world baseline on the 60k-vertex power-law graph at the paper's
//! Flickr-regime edge probability (0.09).
//!
//! For each target half-width `ε` the adaptive driver
//! (`QueryBatch::with_precision`, empirical-Bernstein stopping at epoch
//! checkpoints) runs the connectivity mix until it *certifies* `ε` at
//! confidence `1 − δ`.  The fixed-world baseline must pick its budget a
//! priori; the smallest distribution-free budget with the same `(ε, δ)`
//! guarantee is the Hoeffding bound `⌈ln(2/δ) / 2ε²⌉` for a `[0, 1]`
//! statistic.  On the low-variance connectivity mix the empirical bound
//! converges on the range term (`∝ 1/ε`) while the a-priori budget pays
//! `∝ 1/ε²`, so the gap widens as `ε` shrinks — acceptance requires ≥ 2×
//! fewer worlds at matched `(ε, δ)` on at least one frontier point.
//!
//! Release-mode assertions run **before** any timing: worlds-consumed
//! thread-invariance (threads 1/2/4, bitwise half-width), the `max_worlds`
//! cap, the certified frontier, and riders that leave the worlds consumed
//! unchanged.  Results land in `BENCH_adaptive.json`.

use minijson::{ObjBuilder, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_bench::harness::{fastest, write_bench_json};
use ugs_datasets::prelude::*;
use ugs_queries::engine::{SampleMethod, WorldEngine};
use ugs_queries::variance::Precision;
use ugs_queries::{AdaptiveReport, ConnectivityObserver, DegreeHistogramObserver, QueryBatch};

const VERTICES: usize = 60_000;
const MEAN_P: f64 = 0.09;
const DELTA: f64 = 0.05;
/// World budget cap handed to every adaptive run.
const CAP: usize = 100_000;
const BATCH_SEED: u64 = 17;
const EPSILONS: [f64; 3] = [0.1, 0.05, 0.02];
/// Timed runs per frontier point and driver; the fastest is kept.
const RUNS: usize = 3;

fn powerlaw() -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xBB);
    preferential_attachment(VERTICES, 4, ProbabilityModel::Fixed(MEAN_P), &mut rng)
}

/// Smallest a-priori fixed budget with a distribution-free `(ε, δ)`
/// guarantee for a `[0, 1]` statistic (two-sided Hoeffding bound).
fn hoeffding_budget(epsilon: f64) -> usize {
    ((2.0 / DELTA).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

/// One adaptive connectivity run through the product driver; `riders` adds
/// an untracked degree-histogram observer to the mix.
fn adaptive_run(
    g: &UncertainGraph,
    precision: Precision,
    threads: usize,
    riders: bool,
) -> AdaptiveReport {
    let engine = WorldEngine::new(g).with_method(SampleMethod::Skip);
    let mut batch = QueryBatch::from_engine(engine, CAP, threads).with_precision(precision);
    batch.register(ConnectivityObserver::new(g));
    if riders {
        batch.register(DegreeHistogramObserver::new(g));
    }
    let results = batch.run(&mut SmallRng::seed_from_u64(BATCH_SEED));
    *results.adaptive().expect("adaptive batch carries a report")
}

fn at(epsilon: f64) -> Precision {
    Precision::new(epsilon).with_delta(DELTA)
}

/// The fixed-world baseline: the same driver and observer, `worlds` worlds,
/// no stopping rule.
fn fixed_run(g: &UncertainGraph, worlds: usize) {
    let engine = WorldEngine::new(g).with_method(SampleMethod::Skip);
    let mut batch = QueryBatch::from_engine(engine, worlds, 1);
    batch.register(ConnectivityObserver::new(g));
    std::hint::black_box(batch.run(&mut SmallRng::seed_from_u64(BATCH_SEED)));
}

fn main() {
    let g = powerlaw();

    // -- Assertions first, in release, before any timing. --

    // 1. Worlds consumed (and the certified half-width, bitwise) are
    //    invariant to the thread count.
    let baseline = adaptive_run(&g, at(0.05), 1, false);
    for threads in [2usize, 4] {
        let report = adaptive_run(&g, at(0.05), threads, false);
        assert_eq!(
            report.worlds_used, baseline.worlds_used,
            "worlds consumed must not depend on the thread count"
        );
        assert_eq!(
            report.half_width.to_bits(),
            baseline.half_width.to_bits(),
            "certified half-width must be bit-identical across thread counts"
        );
    }

    // 2. Adaptive runs never exceed max_worlds (cap deliberately not a
    //    multiple of the epoch size).
    let capped = adaptive_run(&g, at(1e-4).with_max_worlds(100), 2, false);
    assert!(
        capped.worlds_used <= 100,
        "adaptive run must respect max_worlds, used {}",
        capped.worlds_used
    );

    // 3. Every frontier point certifies its target within the cap, and at
    //    least one needs >= 2x fewer worlds than the a-priori budget.
    let reports = EPSILONS.map(|epsilon| adaptive_run(&g, at(epsilon), 1, false));
    for (report, epsilon) in reports.iter().zip(EPSILONS) {
        assert!(report.worlds_used <= CAP);
        assert!(
            report.half_width <= epsilon,
            "converged run must certify its target"
        );
    }
    let best = reports
        .iter()
        .zip(EPSILONS)
        .map(|(report, epsilon)| {
            hoeffding_budget(epsilon) as f64 / report.worlds_used.max(1) as f64
        })
        .fold(0.0f64, f64::max);
    assert!(
        best >= 2.0,
        "adaptive must use >= 2x fewer worlds than the fixed baseline on at \
         least one frontier point (best ratio {best:.2})"
    );

    // 4. Untracked riders share the adaptive worlds without perturbing the
    //    stopping decision.
    let mixed = adaptive_run(&g, at(0.05), 1, true);
    assert_eq!(
        mixed.worlds_used, baseline.worlds_used,
        "untracked riders must not change the worlds consumed"
    );

    // -- Frontier timings: adaptive vs the a-priori fixed budget. --
    let mut frontier = Vec::new();
    for (report, epsilon) in reports.iter().zip(EPSILONS) {
        let adaptive_wall = fastest(RUNS, || adaptive_run(&g, at(epsilon), 1, false));
        let fixed_budget = hoeffding_budget(epsilon);
        let fixed_wall = fastest(RUNS, || fixed_run(&g, fixed_budget));
        let worlds_ratio = fixed_budget as f64 / report.worlds_used.max(1) as f64;
        println!(
            "connectivity mix at eps = {epsilon}: adaptive {} worlds ({} epochs, hw {:.4}) in \
             {adaptive_wall:.2?} vs fixed a-priori budget {fixed_budget} in {fixed_wall:.2?} — \
             {worlds_ratio:.2}x fewer worlds",
            report.worlds_used, report.epochs, report.half_width,
        );
        frontier.push(
            ObjBuilder::new()
                .field("epsilon", epsilon)
                .field("adaptive_worlds", report.worlds_used)
                .field("adaptive_epochs", report.epochs)
                .field("achieved_half_width", report.half_width)
                .field("adaptive_wall_ns", adaptive_wall.as_nanos() as f64)
                .field("fixed_budget_hoeffding", fixed_budget)
                .field("fixed_wall_ns", fixed_wall.as_nanos() as f64)
                .field("worlds_ratio", (worlds_ratio * 1000.0).round() / 1000.0)
                .build(),
        );
    }
    println!("best worlds ratio {best:.2}x (acceptance >= 2x)");

    write_bench_json(
        "adaptive",
        ObjBuilder::new()
            .field(
                "graph",
                format!(
                    "preferential_attachment({VERTICES} vertices, 4 edges/vertex, p = {MEAN_P})"
                ),
            )
            .field("delta", DELTA)
            .field("runs", RUNS)
            .field(
                "notes",
                "frontier: adaptive empirical-Bernstein stopping (connectivity mix, epoch 64) \
                 vs the smallest a-priori fixed budget with the same distribution-free \
                 (eps, delta) guarantee (Hoeffding, ln(2/delta)/2eps^2); worlds consumed are \
                 thread-count invariant (asserted for 1/2/4 before timing); each wall time is \
                 the fastest of `runs` runs. Acceptance: >= 2x fewer worlds at matched \
                 (eps, delta) on at least one frontier point.",
            )
            .field("frontier", Value::Arr(frontier))
            .build(),
    );
}
