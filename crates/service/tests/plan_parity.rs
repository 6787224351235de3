//! Parity suite for query plans — the plan-level extension of
//! `crates/queries/tests/batch_parity.rs`.
//!
//! A plan runs as one `QueryBatch` whose seed is the first `u64` drawn
//! from `SmallRng::seed_from_u64(plan.seed)`.  The contracts under test:
//!
//! * a one-query plan with seed `s`, one thread and a sequential sampling
//!   mode is **bit-identical** to the legacy free function run on a fresh
//!   `SmallRng::seed_from_u64(s)` (`batch_parity.rs` proves the free
//!   functions are themselves bit-identical to the pre-batch driver, so the
//!   oracle chain reaches all the way back);
//! * a mixed plan equals a `QueryBatch` with the same observers;
//! * count-valued answers are invariant to the thread count, also when
//!   there are more threads than worlds;
//! * adaptive plans consume a thread-count-invariant number of worlds and
//!   equal a direct adaptive `QueryBatch`;
//! * a plan's shard count never changes an answer.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_queries::prelude::*;
use ugs_service::{QueryAnswer, QueryPlan, QueryResult, QuerySpec, ServiceError};

const SEEDS: [u64; 3] = [1, 0xDEAD_BEEF, 9_999_999_999];
const MODES: [SampleMethod; 2] = [SampleMethod::Skip, SampleMethod::PerEdge];
const WORLDS: usize = 400;

fn fixture() -> UncertainGraph {
    // The batch_parity fixture: plateaus for the skip sampler's exact fast
    // path, heterogeneous tails for the thinning path, one certain edge.
    UncertainGraph::from_edges(
        10,
        [
            (0, 1, 0.9),
            (1, 2, 0.8),
            (2, 3, 0.7),
            (3, 4, 0.6),
            (4, 5, 0.5),
            (5, 6, 0.4),
            (6, 7, 0.3),
            (7, 8, 0.2),
            (8, 9, 0.1),
            (9, 0, 1.0),
            (0, 5, 0.25),
            (1, 6, 0.25),
            (2, 7, 0.25),
            (3, 8, 0.05),
        ],
    )
    .unwrap()
}

/// Eight vertices: isolated-vertex fractions are multiples of 1/8, so even
/// connectivity's fraction sums are exact and thread-count invariant.
fn count_fixture() -> UncertainGraph {
    UncertainGraph::from_edges(
        8,
        [
            (0, 1, 0.9),
            (1, 2, 0.7),
            (2, 3, 0.5),
            (3, 4, 0.3),
            (4, 5, 0.2),
            (5, 6, 0.6),
            (6, 7, 0.4),
            (7, 0, 0.8),
            (0, 4, 0.15),
            (2, 6, 0.35),
        ],
    )
    .unwrap()
}

fn pairs() -> Vec<(usize, usize)> {
    vec![(0, 4), (0, 9), (3, 8), (5, 1), (2, 2)]
}

/// The count-based query mix: every answer derives from per-world 0/1 or
/// integer counts.
fn count_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::EdgeFrequency,
        QuerySpec::DegreeHistogram,
        QuerySpec::Connectivity,
        QuerySpec::PairQueries {
            pairs: vec![(0, 3), (2, 7), (5, 1), (4, 4)],
        },
    ]
}

fn plan(
    queries: Vec<QuerySpec>,
    worlds: usize,
    threads: usize,
    mode: SampleMethod,
    seed: u64,
) -> QueryPlan {
    QueryPlan {
        graph: None,
        worlds,
        threads,
        shards: 1,
        mode,
        seed,
        precision: None,
        queries,
    }
}

fn adaptive_plan(
    queries: Vec<QuerySpec>,
    threads: usize,
    mode: SampleMethod,
    seed: u64,
) -> QueryPlan {
    QueryPlan {
        precision: Some(Precision::new(0.05).with_epoch(64)),
        ..plan(queries, 100_000, threads, mode, seed)
    }
}

fn answers(outcomes: Vec<Result<QueryAnswer, ServiceError>>) -> Vec<QueryAnswer> {
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every plan query answers"))
        .collect()
}

fn results(outcomes: Vec<Result<QueryAnswer, ServiceError>>) -> Vec<QueryResult> {
    answers(outcomes)
        .into_iter()
        .map(|answer| answer.result)
        .collect()
}

/// Every number of a result as its bit pattern (counts and vertex ids as
/// integers), so `==` on the output is bit identity, NaN-aware.
fn bits(result: &QueryResult) -> Vec<u64> {
    let floats = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match result {
        QueryResult::PageRank(values)
        | QueryResult::Clustering(values)
        | QueryResult::DegreeHistogram(values)
        | QueryResult::EdgeFrequency(values) => floats(values),
        QueryResult::PairQueries(pairs) => {
            let mut out: Vec<u64> = pairs
                .pairs
                .iter()
                .flat_map(|&(s, t)| [s as u64, t as u64])
                .collect();
            out.extend(floats(&pairs.mean_distance));
            out.extend(floats(&pairs.reliability));
            out.extend(pairs.connected_worlds.iter().map(|&c| c as u64));
            out.push(pairs.num_worlds as u64);
            out
        }
        QueryResult::Connectivity(estimate) => vec![
            estimate.expected_components.to_bits(),
            estimate.expected_largest_component.to_bits(),
            estimate.probability_connected.to_bits(),
            estimate.expected_isolated_fraction.to_bits(),
            estimate.num_worlds as u64,
        ],
        QueryResult::Knn(neighbors) => neighbors
            .iter()
            .flat_map(|n| {
                [
                    n.vertex as u64,
                    n.expected_distance.to_bits(),
                    n.reachability.to_bits(),
                ]
            })
            .collect(),
    }
}

fn assert_bit_identical(a: &[QueryResult], b: &[QueryResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: answer count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(bits(x), bits(y), "{what}: answer {i} differs bitwise");
    }
}

#[test]
fn one_query_plans_are_bit_identical_to_the_legacy_free_functions() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = MonteCarlo::worlds(WORLDS).with_method(mode);
            let fresh = || SmallRng::seed_from_u64(seed);
            let legacy = [
                (
                    QuerySpec::pagerank(),
                    QueryResult::PageRank(expected_pagerank(&g, &mc, &mut fresh())),
                ),
                (
                    QuerySpec::Clustering,
                    QueryResult::Clustering(expected_clustering_coefficients(
                        &g,
                        &mc,
                        &mut fresh(),
                    )),
                ),
                (
                    QuerySpec::PairQueries { pairs: pairs() },
                    QueryResult::PairQueries(pair_queries(&g, &pairs(), &mc, &mut fresh())),
                ),
                (
                    QuerySpec::Connectivity,
                    QueryResult::Connectivity(connectivity_query(&g, &mc, &mut fresh())),
                ),
                (
                    QuerySpec::DegreeHistogram,
                    QueryResult::DegreeHistogram(expected_degree_histogram(&g, &mc, &mut fresh())),
                ),
                (
                    QuerySpec::Knn { source: 0, k: 5 },
                    QueryResult::Knn(k_nearest_neighbors(&g, 0, 5, &mc, &mut fresh())),
                ),
            ];
            for (spec, expected) in legacy {
                let what = format!("{} {mode:?} seed {seed}", spec.kind());
                let got =
                    results(plan(vec![spec], WORLDS, 1, mode, seed).execute_detailed(g.clone()));
                assert_bit_identical(&got, &[expected], &what);
            }
        }
    }
}

#[test]
fn a_mixed_plan_equals_one_query_batch_with_the_same_observers() {
    let g = fixture();
    for mode in MODES {
        let seed = 21;
        let mc = MonteCarlo::worlds(WORLDS).with_method(mode);
        let mut batch = QueryBatch::new(&g, &mc);
        let h_pr = batch.register(PageRankObserver::new(&g));
        let h_freq = batch.register(EdgeFrequencyObserver::new(&g));
        let h_knn = batch.register(KnnObserver::new(&g, 0, 5));
        let mut direct = batch.run(&mut SmallRng::seed_from_u64(seed));
        let expected = [
            QueryResult::PageRank(direct.take(h_pr)),
            QueryResult::EdgeFrequency(direct.take(h_freq)),
            QueryResult::Knn(direct.take(h_knn)),
        ];
        let mixed = vec![
            QuerySpec::pagerank(),
            QuerySpec::EdgeFrequency,
            QuerySpec::Knn { source: 0, k: 5 },
        ];
        let got = results(plan(mixed, WORLDS, 1, mode, seed).execute_detailed(g.clone()));
        assert_bit_identical(&got, &expected, &format!("{mode:?}"));
    }
}

#[test]
fn count_answers_are_bit_identical_across_thread_counts_and_equal_query_batch() {
    let g = count_fixture();
    for mode in MODES {
        for seed in [7, 0xBAD_CAFE, 123_456_789] {
            let run = |threads: usize| {
                results(plan(count_mix(), 500, threads, mode, seed).execute_detailed(g.clone()))
            };
            let reference = run(1);
            for threads in [1, 2, 4] {
                let what = format!("{mode:?} seed {seed} threads {threads}");
                let got = run(threads);
                assert_bit_identical(&got, &reference, &what);
                // The same thread count through QueryBatch directly: the
                // replay partitioning and merge order are one code path.
                let mc = MonteCarlo::worlds(500)
                    .with_method(mode)
                    .with_threads(threads);
                let mut batch = QueryBatch::new(&g, &mc);
                let h_freq = batch.register(EdgeFrequencyObserver::new(&g));
                let h_hist = batch.register(DegreeHistogramObserver::new(&g));
                let mut direct = batch.run(&mut SmallRng::seed_from_u64(seed));
                let expected = [
                    QueryResult::EdgeFrequency(direct.take(h_freq)),
                    QueryResult::DegreeHistogram(direct.take(h_hist)),
                ];
                assert_bit_identical(&got[..2], &expected, &what);
            }
        }
    }
    // More threads than worlds: the split clamps to one world per thread.
    let run = |threads: usize| {
        results(plan(count_mix(), 3, threads, SampleMethod::Skip, 5).execute_detailed(g.clone()))
    };
    assert_bit_identical(&run(8), &run(1), "threads > worlds");
}

#[test]
fn adaptive_plans_are_thread_count_invariant_and_equal_a_direct_adaptive_batch() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let run = |threads: usize| {
                answers(
                    adaptive_plan(vec![QuerySpec::Connectivity], threads, mode, seed)
                        .execute_detailed(g.clone()),
                )
                .remove(0)
            };
            let baseline = run(1);
            assert!(baseline.worlds_used < 100_000, "{mode:?}/{seed}: no stop");
            assert!(baseline.half_width.unwrap() <= 0.05, "{mode:?}/{seed}");

            // The direct oracle: one adaptive batch on the plan seed's RNG.
            let mc = MonteCarlo::worlds(100_000)
                .with_method(mode)
                .with_precision(Precision::new(0.05).with_epoch(64));
            let mut batch = QueryBatch::new(&g, &mc);
            let handle = batch.register(ConnectivityObserver::new(&g));
            let mut direct = batch.run(&mut SmallRng::seed_from_u64(seed));
            let report = *direct.adaptive().unwrap();
            let expected = QueryResult::Connectivity(direct.take(handle));
            assert_eq!(baseline.worlds_used, report.worlds_used, "{mode:?}/{seed}");
            assert_eq!(
                baseline.half_width.unwrap().to_bits(),
                report.half_width.to_bits(),
                "{mode:?}/{seed}"
            );
            assert_bit_identical(
                std::slice::from_ref(&baseline.result),
                &[expected],
                "direct",
            );

            for threads in [2, 4] {
                let answer = run(threads);
                let what = format!("{mode:?} seed {seed} threads {threads}");
                assert_eq!(baseline.worlds_used, answer.worlds_used, "{what}");
                assert_eq!(
                    baseline.half_width.unwrap().to_bits(),
                    answer.half_width.unwrap().to_bits(),
                    "{what}"
                );
                // Count-valued fields are bit-identical over the thread
                // count; the isolated *fraction* sums per-world divisions,
                // so only its association depends on the threads.
                let (QueryResult::Connectivity(base), QueryResult::Connectivity(est)) =
                    (&baseline.result, &answer.result)
                else {
                    panic!("{what}: unexpected results");
                };
                assert_eq!(
                    base.probability_connected.to_bits(),
                    est.probability_connected.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    base.expected_components.to_bits(),
                    est.expected_components.to_bits(),
                    "{what}"
                );
                assert_eq!(base.num_worlds, est.num_worlds, "{what}");
            }
        }
    }
}

#[test]
fn zero_world_and_fixed_budget_plans_report_their_effort() {
    let g = fixture();
    let zero_edges = vec![0.0; g.num_edges()];
    // Zero worlds, fixed or adaptive: pristine results, no stopping rule.
    for threads in [1, 2] {
        let fixed = plan(
            vec![QuerySpec::EdgeFrequency],
            0,
            threads,
            SampleMethod::Skip,
            5,
        );
        let adaptive = QueryPlan {
            precision: Some(Precision::new(0.05)),
            ..fixed.clone()
        };
        for zero in [fixed, adaptive] {
            let answer = answers(zero.execute_detailed(g.clone())).remove(0);
            assert_eq!(answer.worlds_used, 0);
            assert_eq!(answer.half_width, None);
            assert_eq!(
                answer.result,
                QueryResult::EdgeFrequency(zero_edges.clone())
            );
        }
    }
    // A fixed budget is spent in full and reports no half-width.
    for answer in
        answers(plan(count_mix(), 120, 2, SampleMethod::Auto, 2).execute_detailed(g.clone()))
    {
        assert_eq!(answer.worlds_used, 120);
        assert_eq!(answer.half_width, None);
    }
    // An adaptive plan whose cap binds reports the cap and a finite width.
    let capped = QueryPlan {
        precision: Some(Precision::new(1e-9).with_epoch(64)),
        ..plan(vec![QuerySpec::Connectivity], 100, 2, SampleMethod::Skip, 2)
    };
    let answer = answers(capped.execute_detailed(g)).remove(0);
    assert_eq!(answer.worlds_used, 100);
    assert!(answer.half_width.unwrap().is_finite());
}

#[test]
fn sharded_plans_answer_bit_identically_to_monolithic_ones() {
    let g = fixture();
    let mix = vec![
        QuerySpec::pagerank(),
        QuerySpec::Clustering,
        QuerySpec::Knn { source: 0, k: 3 },
        QuerySpec::Connectivity,
        QuerySpec::EdgeFrequency,
        QuerySpec::PairQueries { pairs: pairs() },
    ];
    for threads in [1, 2] {
        let monolithic = plan(mix.clone(), 120, threads, SampleMethod::Skip, 7);
        let expected = results(monolithic.execute_detailed(g.clone()));
        for shards in [2, 3, g.num_vertices()] {
            let sharded = QueryPlan {
                shards,
                ..monolithic.clone()
            };
            let got = results(sharded.execute_detailed(g.clone()));
            assert_bit_identical(
                &got,
                &expected,
                &format!("shards {shards} threads {threads}"),
            );
        }
    }
}
