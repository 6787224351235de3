//! Latency-vs-accuracy frontier of adaptive-precision Monte-Carlo vs the
//! fixed-world baseline, plus the sparsifier control-variate estimator, on
//! the 60k-vertex power-law graph at the paper's Flickr-regime edge
//! probability (0.09).
//!
//! **Frontier.**  For each target half-width `ε` the adaptive driver
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
//! **Control variate.**  The sparsifier-friendly workload is two-terminal
//! reliability across the single bridge joining two dense clusters: the
//! bridge is a cut edge, so the spanning-forest backbone (Algorithm 1 of
//! the paper, `ugs_core::build_backbone`) must keep it — at its original
//! probability — and the backbone then carries the query's entire variance.
//! Under common random numbers the coupled residual collapses, the
//! expensive original graph is only sampled to certify the residual, and
//! `E[f(G′)]` is bought with cheap backbone-only worlds.  Acceptance:
//! strictly fewer original-graph worlds than plain adaptive MC at the same
//! `(ε, δ)`, and achieved error ≤ `ε` against the analytic truth on a
//! seeded grid.
//!
//! Release-mode assertions run **before** any timing: worlds-consumed
//! thread-invariance (threads 1/2/4, bitwise half-width), the `max_worlds`
//! cap, and the CV error grid.  Results land in `BENCH_adaptive.json`.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_algos::traversal::connected_components;
use graph_algos::DeterministicGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_core::prelude::{build_backbone, BackboneConfig};
use ugs_datasets::prelude::*;
use ugs_queries::cv::{ControlVariate, CvConfig, CvEstimate};
use ugs_queries::engine::{SampleMethod, WorldEngine};
use ugs_queries::variance::{Precision, StoppingRule};
use ugs_queries::{AdaptiveReport, ConnectivityObserver, DegreeHistogramObserver, QueryBatch};

const VERTICES: usize = 60_000;
const MEAN_P: f64 = 0.09;
const DELTA: f64 = 0.05;
/// World budget cap handed to every adaptive run.
const CAP: usize = 100_000;
const BATCH_SEED: u64 = 17;

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
    epsilon: f64,
    threads: usize,
    riders: bool,
) -> (AdaptiveReport, Duration) {
    let precision = Precision::new(epsilon).with_delta(DELTA);
    let engine = WorldEngine::new(g).with_method(SampleMethod::Skip);
    let mut batch = QueryBatch::from_engine(engine, CAP, threads).with_precision(precision);
    batch.register(ConnectivityObserver::new(g));
    if riders {
        batch.register(DegreeHistogramObserver::new(g));
    }
    let mut rng = SmallRng::seed_from_u64(BATCH_SEED);
    let started = Instant::now();
    let results = batch.run(&mut rng);
    let elapsed = started.elapsed();
    let report = *results.adaptive().expect("adaptive batch carries a report");
    (report, elapsed)
}

/// The fixed-world baseline: the same driver and observer, `worlds` worlds,
/// no stopping rule.
fn fixed_run(g: &UncertainGraph, worlds: usize) -> Duration {
    let engine = WorldEngine::new(g).with_method(SampleMethod::Skip);
    let mut batch = QueryBatch::from_engine(engine, worlds, 1);
    batch.register(ConnectivityObserver::new(g));
    let mut rng = SmallRng::seed_from_u64(BATCH_SEED);
    let started = Instant::now();
    black_box(batch.run(&mut rng));
    started.elapsed()
}

// ---- control-variate workload -------------------------------------------

const CLUSTER: usize = 16;
const P_IN: f64 = 0.9;
const P_BRIDGE: f64 = 0.5;

/// Two 16-vertex clusters (cliques at p = 0.9) joined by one bridge at
/// p = 0.5; two-terminal reliability across the bridge has analytic truth
/// `P_BRIDGE` and all of its variance on the one edge every cut-respecting
/// backbone keeps.
fn cut_graph() -> UncertainGraph {
    let n = 2 * CLUSTER;
    let mut edges = Vec::new();
    for base in [0, CLUSTER] {
        for i in 0..CLUSTER {
            for j in (i + 1)..CLUSTER {
                edges.push((base + i, base + j, P_IN));
            }
        }
    }
    edges.push((0, CLUSTER, P_BRIDGE));
    UncertainGraph::from_edges(n, edges).unwrap()
}

/// The spanning-forest backbone (Algorithm 1) as a standalone graph; kept
/// edges retain their original probabilities.
fn backbone_of(g: &UncertainGraph, alpha: f64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let ids = build_backbone(g, alpha, &BackboneConfig::default(), &mut rng)
        .expect("backbone construction");
    let all: Vec<_> = g.edges().map(|e| (e.u, e.v, e.p)).collect();
    let edges: Vec<_> = ids.iter().map(|&id| all[id]).collect();
    UncertainGraph::from_edges(g.num_vertices(), edges).unwrap()
}

fn reach(world: &DeterministicGraph, s: usize, t: usize) -> f64 {
    let (labels, _) = connected_components(world);
    f64::from(labels[s] == labels[t])
}

/// Plain adaptive MC on the original graph: the same empirical-Bernstein
/// rule the batch driver uses, fed the reliability statistic directly.
fn plain_adaptive(g: &UncertainGraph, precision: Precision, seed: u64) -> (usize, f64, f64) {
    let engine = WorldEngine::new(g).with_method(SampleMethod::Skip);
    let mut rule = StoppingRule::new(precision);
    let slot = rule.register(0.0, 1.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = engine.make_scratch();
    let cap = precision.cap(CAP.max(1_000_000));
    let epoch = precision.epoch.max(1);
    let mut consumed = 0usize;
    let mut total = 0.0;
    loop {
        let block = epoch.min(cap - consumed);
        for _ in 0..block {
            let world = engine.sample_world(&mut rng, &mut scratch);
            let x = reach(world, 0, CLUSTER);
            total += x;
            rule.record(slot, x);
        }
        consumed += block;
        if rule.check() || consumed >= cap {
            break;
        }
    }
    (consumed, total / consumed as f64, rule.half_width())
}

fn cv_run(cv: &ControlVariate<'_>, precision: Precision, seed: u64) -> (CvEstimate, Duration) {
    let config = CvConfig::new(precision, (0.0, 1.0));
    let mut rng = SmallRng::seed_from_u64(seed);
    let started = Instant::now();
    let estimate = cv.estimate(|w| reach(w, 0, CLUSTER), &config, &mut rng);
    (estimate, started.elapsed())
}

// ---- measurement + acceptance -------------------------------------------

struct FrontierPoint {
    epsilon: f64,
    adaptive_worlds: usize,
    adaptive_epochs: usize,
    achieved_half_width: f64,
    adaptive_wall: Duration,
    fixed_budget: usize,
    fixed_wall: Duration,
}

fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_nanos() as f64 / den.as_nanos().max(1) as f64
}

fn adaptive_bench(c: &mut Criterion) {
    let g = powerlaw();

    // -- Assertions first, in release, before any timing. --

    // 1. Worlds consumed (and the certified half-width, bitwise) are
    //    invariant to the thread count.
    let (baseline, _) = adaptive_run(&g, 0.05, 1, false);
    for threads in [2usize, 4] {
        let (report, _) = adaptive_run(&g, 0.05, threads, false);
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
    {
        let precision = Precision::new(1e-4).with_delta(DELTA).with_max_worlds(100);
        let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut batch = QueryBatch::from_engine(engine, CAP, 2).with_precision(precision);
        batch.register(ConnectivityObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(BATCH_SEED);
        let results = batch.run(&mut rng);
        let report = results.adaptive().expect("adaptive report");
        assert!(
            report.worlds_used <= 100,
            "adaptive run must respect max_worlds, used {}",
            report.worlds_used
        );
    }

    // 3. CV achieved error <= epsilon against the analytic truth on a
    //    seeded grid (and within the per-stage world cap).
    let cut = cut_graph();
    let backbone = backbone_of(&cut, 0.15);
    assert!(
        backbone.find_edge(0, CLUSTER).is_some(),
        "the spanning-forest backbone must keep the bridge (a cut edge)"
    );
    let cv = ControlVariate::new(&cut, &backbone).expect("valid backbone");
    for seed in [3u64, 11, 29] {
        for epsilon in [0.05, 0.02] {
            let precision = Precision::new(epsilon)
                .with_delta(DELTA)
                .with_max_worlds(400_000);
            let (estimate, _) = cv_run(&cv, precision, seed);
            assert!(
                (estimate.estimate - P_BRIDGE).abs() <= epsilon,
                "cv error {} above epsilon {epsilon} (seed {seed})",
                (estimate.estimate - P_BRIDGE).abs()
            );
            assert!(estimate.original_worlds() <= 400_000 + estimate.pilot_worlds);
        }
    }

    // -- Frontier: adaptive vs the a-priori fixed budget. --
    let mut frontier = Vec::new();
    for epsilon in [0.1, 0.05, 0.02] {
        let (report, adaptive_wall) = adaptive_run(&g, epsilon, 1, false);
        assert!(report.worlds_used <= CAP);
        assert!(
            report.half_width <= epsilon,
            "converged run must certify its target"
        );
        let fixed_budget = hoeffding_budget(epsilon);
        let fixed_wall = fixed_run(&g, fixed_budget);
        frontier.push(FrontierPoint {
            epsilon,
            adaptive_worlds: report.worlds_used,
            adaptive_epochs: report.epochs,
            achieved_half_width: report.half_width,
            adaptive_wall,
            fixed_budget,
            fixed_wall,
        });
    }
    let best = frontier
        .iter()
        .map(|p| p.fixed_budget as f64 / p.adaptive_worlds.max(1) as f64)
        .fold(0.0f64, f64::max);
    assert!(
        best >= 2.0,
        "adaptive must use >= 2x fewer worlds than the fixed baseline on at \
         least one frontier point (best ratio {best:.2})"
    );

    // A second query mix: untracked riders share the adaptive worlds
    // without perturbing the stopping decision.
    let (mixed, _) = adaptive_run(&g, 0.05, 1, true);
    assert_eq!(
        mixed.worlds_used, baseline.worlds_used,
        "untracked riders must not change the worlds consumed"
    );

    // -- CV vs plain adaptive at the same (epsilon, delta). --
    let cv_precision = Precision::new(0.02)
        .with_delta(DELTA)
        .with_max_worlds(400_000);
    let plain_started = Instant::now();
    let (plain_worlds, plain_estimate, plain_hw) = plain_adaptive(&cut, cv_precision, 11);
    let plain_wall = plain_started.elapsed();
    let (cv_estimate, cv_wall) = cv_run(&cv, cv_precision, 11);
    assert!(
        cv_estimate.original_worlds() < plain_worlds,
        "control variate must strictly dominate plain adaptive MC in \
         original-graph worlds ({} vs {plain_worlds})",
        cv_estimate.original_worlds()
    );
    assert!((cv_estimate.estimate - P_BRIDGE).abs() <= 0.02);
    assert!((plain_estimate - P_BRIDGE).abs() <= 0.02);

    // -- Timings into criterion (each run measured once, above). --
    let mut group = c.benchmark_group("adaptive_precision");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100));
    for point in &frontier {
        group.bench_with_input(
            BenchmarkId::new("adaptive", format!("eps_{}", point.epsilon)),
            &point.adaptive_wall,
            |b, &d| {
                b.iter(|| black_box(d));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fixed_hoeffding", format!("eps_{}", point.epsilon)),
            &point.fixed_wall,
            |b, &d| {
                b.iter(|| black_box(d));
            },
        );
    }
    group.bench_with_input(BenchmarkId::new("cv", "eps_0.02"), &cv_wall, |b, &d| {
        b.iter(|| black_box(d));
    });
    group.bench_with_input(
        BenchmarkId::new("plain_adaptive", "eps_0.02"),
        &plain_wall,
        |b, &d| {
            b.iter(|| black_box(d));
        },
    );
    group.finish();

    let point = &frontier[2];
    println!(
        "60k power-law (p = {MEAN_P}), connectivity mix at eps = {}: adaptive {} worlds \
         ({} epochs, hw {:.4}) in {:.2?} vs fixed a-priori budget {} in {:.2?} — {:.2}x fewer \
         worlds (acceptance >= 2x); speedup {:.2}x",
        point.epsilon,
        point.adaptive_worlds,
        point.adaptive_epochs,
        point.achieved_half_width,
        point.adaptive_wall,
        point.fixed_budget,
        point.fixed_wall,
        point.fixed_budget as f64 / point.adaptive_worlds as f64,
        ratio(point.fixed_wall, point.adaptive_wall),
    );
    println!(
        "cut-reliability CV at eps = 0.02: {} original-graph worlds (pilot {} + residual {}, \
         + {} cheap backbone worlds, beta {:.3}, rho {:.3}) vs plain adaptive {} — {:.2}x fewer \
         (acceptance: strict dominance); |error| = {:.4} <= eps",
        cv_estimate.original_worlds(),
        cv_estimate.pilot_worlds,
        cv_estimate.residual_worlds,
        cv_estimate.backbone_worlds,
        cv_estimate.beta,
        cv_estimate.correlation,
        plain_worlds,
        plain_worlds as f64 / cv_estimate.original_worlds() as f64,
        (cv_estimate.estimate - P_BRIDGE).abs(),
    );
    write_trajectory(
        &frontier,
        plain_worlds,
        plain_hw,
        plain_wall,
        &cv_estimate,
        cv_wall,
    );
}

/// Persists the measured frontier as `BENCH_adaptive.json` at the repo root.
fn write_trajectory(
    frontier: &[FrontierPoint],
    plain_worlds: usize,
    plain_hw: f64,
    plain_wall: Duration,
    cv: &CvEstimate,
    cv_wall: Duration,
) {
    let rows: Vec<String> = frontier
        .iter()
        .map(|p| {
            format!(
                "    {{\"epsilon\": {}, \"adaptive_worlds\": {}, \"adaptive_epochs\": {}, \
                 \"achieved_half_width\": {:.6}, \"adaptive_wall_ns\": {}, \
                 \"fixed_budget_hoeffding\": {}, \"fixed_wall_ns\": {}, \"worlds_ratio\": {:.3}}}",
                p.epsilon,
                p.adaptive_worlds,
                p.adaptive_epochs,
                p.achieved_half_width,
                p.adaptive_wall.as_nanos(),
                p.fixed_budget,
                p.fixed_wall.as_nanos(),
                p.fixed_budget as f64 / p.adaptive_worlds.max(1) as f64,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"adaptive_precision\",\n  \
         \"graph\": \"preferential_attachment({VERTICES} vertices, 4 edges/vertex, p = {MEAN_P})\",\n  \
         \"delta\": {DELTA},\n  \
         \"notes\": \"frontier: adaptive empirical-Bernstein stopping (connectivity mix, epoch 64) \
         vs the smallest a-priori fixed budget with the same distribution-free (eps, delta) \
         guarantee (Hoeffding, ln(2/delta)/2eps^2); worlds consumed are thread-count invariant \
         (asserted for 1/2/4 before timing). cv: two-terminal reliability across the bridge of a \
         two-cluster cut graph, spanning-forest backbone (Algorithm 1) as control variate under \
         common random numbers; original_worlds = pilot + residual is the number to compare with \
         plain adaptive MC. Acceptance: >= 2x fewer worlds at matched (eps, delta) on at least \
         one frontier point; cv strictly dominates plain adaptive; cv error <= eps on a seeded \
         grid.\",\n  \
         \"frontier\": [\n{}\n  ],\n  \
         \"cv\": {{\"workload\": \"bridge reliability, truth {P_BRIDGE}\", \"epsilon\": 0.02, \
         \"plain_adaptive_worlds\": {plain_worlds}, \"plain_half_width\": {plain_hw:.6}, \
         \"plain_wall_ns\": {}, \"cv_original_worlds\": {}, \"cv_pilot_worlds\": {}, \
         \"cv_residual_worlds\": {}, \"cv_backbone_worlds\": {}, \"cv_beta\": {:.6}, \
         \"cv_correlation\": {:.6}, \"cv_estimate\": {:.6}, \"cv_half_width\": {:.6}, \
         \"cv_wall_ns\": {}, \"worlds_ratio\": {:.3}}}\n}}\n",
        rows.join(",\n"),
        plain_wall.as_nanos(),
        cv.original_worlds(),
        cv.pilot_worlds,
        cv.residual_worlds,
        cv.backbone_worlds,
        cv.beta,
        cv.correlation,
        cv.estimate,
        cv.half_width,
        cv_wall.as_nanos(),
        plain_worlds as f64 / cv.original_worlds().max(1) as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write BENCH_adaptive.json: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, adaptive_bench);
criterion_main!(benches);
