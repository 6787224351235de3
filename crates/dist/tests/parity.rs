//! Distributed parity: a coordinator over {1, 2, 4} fleet workers resolves
//! every plan bit-identically to the in-process run — for a plan mixing
//! all seven query kinds, across thread counts, sampling modes, seeds and
//! adaptive precision targets, plus the edge cases (more threads than
//! worlds, zero worlds, the largest seed, sharded and refused plans).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_queries::Precision;
use ugs_server::{serve, ServerConfig, ServerHandle};
use ugs_service::{QueryAnswer, QueryPlan, ServiceError};
use uncertain_graph::UncertainGraph;

/// A 60-vertex ring with deterministic long chords and pseudo-random edge
/// probabilities, plus a certain spine 0 – 30 – 45 – 10: the pair queries
/// below stay connected in every world, so no `NaN` mean distance defeats
/// `==` on the answers.
fn test_graph() -> UncertainGraph {
    let n = 60;
    let mut rng = SmallRng::seed_from_u64(0xD15);
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n, 0.2 + 0.6 * rng.gen::<f64>()));
    }
    for i in (0..n).step_by(3) {
        edges.push((i, (i + 7) % n, 0.1 + 0.8 * rng.gen::<f64>()));
    }
    edges.extend([(0, 30, 1.0), (30, 45, 1.0), (45, 10, 1.0)]);
    UncertainGraph::from_edges(n, edges).unwrap()
}

struct Fleet {
    workers: Vec<ServerHandle>,
    coordinator: DistCoordinator,
}

impl Fleet {
    fn start(graph: &UncertainGraph, size: usize) -> Fleet {
        let workers: Vec<ServerHandle> = (0..size)
            .map(|k| {
                let config = ServerConfig {
                    shard: Some((k, size)),
                    ..ServerConfig::default()
                };
                serve(graph.clone(), config).unwrap()
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let coordinator =
            DistCoordinator::connect(graph.clone(), &addrs, CoordinatorConfig::default()).unwrap();
        Fleet {
            workers,
            coordinator,
        }
    }

    fn shutdown(self) {
        self.coordinator.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

/// One plan with every query kind: PageRank with a loose tolerance (so
/// the convergence check genuinely stops its iteration), clustering, pair
/// queries, connectivity, degree histogram, k-NN and edge frequency.
fn mixed_plan(worlds: usize, threads: usize, mode: &str, seed: u64) -> QueryPlan {
    QueryPlan::parse_str(&format!(
        r#"{{"worlds": {worlds}, "threads": {threads}, "mode": "{mode}", "seed": {seed},
            "queries": [{{"type": "pagerank", "tolerance": 0.01}},
                        {{"type": "clustering"}},
                        {{"type": "pair_queries", "pairs": [[0, 45], [10, 30], [0, 10]]}},
                        {{"type": "connectivity"}},
                        {{"type": "degree_histogram"}},
                        {{"type": "knn", "source": 3, "k": 5}},
                        {{"type": "edge_frequency"}}]}}"#
    ))
    .unwrap()
}

/// The plan without its pair queries.
fn without_pairs(mut plan: QueryPlan) -> QueryPlan {
    plan.queries.retain(|spec| spec.kind() != "pair_queries");
    plan
}

/// A plan whose only query is a pair query with no pairs: every block's
/// partial has length zero.
fn no_pairs_plan() -> QueryPlan {
    QueryPlan::parse_str(
        r#"{"worlds": 40, "threads": 3, "seed": 12,
            "queries": [{"type": "pair_queries", "pairs": []}]}"#,
    )
    .unwrap()
}

fn answers(outcomes: Vec<Result<QueryAnswer, ServiceError>>) -> Vec<QueryAnswer> {
    outcomes.into_iter().map(|o| o.unwrap()).collect()
}

#[test]
fn every_query_kind_matches_in_process_over_the_whole_grid() {
    let graph = test_graph();
    for workers in [1, 2, 4] {
        let mut fleet = Fleet::start(&graph, workers);
        for threads in [1, 2, 3, 5] {
            for mode in ["skip", "per-edge"] {
                for seed in [1, 2, 3] {
                    let fixed = mixed_plan(24, threads, mode, seed);
                    let distributed = answers(fleet.coordinator.execute(&fixed));
                    assert_eq!(
                        distributed,
                        answers(fixed.execute_detailed(graph.clone())),
                        "fixed: {workers} workers, {threads} threads, {mode}, seed {seed}"
                    );

                    let adaptive = QueryPlan {
                        precision: Some(Precision::new(0.08).with_epoch(48)),
                        ..mixed_plan(4000, threads, mode, seed)
                    };
                    let distributed = answers(fleet.coordinator.execute(&adaptive));
                    assert_eq!(
                        distributed,
                        answers(adaptive.execute_detailed(graph.clone())),
                        "adaptive: {workers} workers, {threads} threads, {mode}, seed {seed}"
                    );
                    // A genuine mid-budget stop: the checkpoints decided.
                    let used = distributed[0].worlds_used;
                    assert!(used > 0 && used < 4000, "used {used} worlds");
                    assert!(distributed[0].half_width.unwrap().is_finite());
                }
            }
        }
        assert!(fleet.coordinator.recovery_report().is_clean());
        fleet.shutdown();
    }
}

#[test]
fn edge_cases_match_in_process() {
    let graph = test_graph();
    let mut fleet = Fleet::start(&graph, 2);
    let plans = [
        // More threads than worlds: one world per block, the rest empty.
        mixed_plan(3, 5, "skip", 4),
        // The largest seed survives the trip (it travels as a string).
        QueryPlan {
            seed: u64::MAX,
            ..mixed_plan(20, 3, "per-edge", 0)
        },
        // Adaptive, more threads than the cap allows blocks.
        QueryPlan {
            precision: Some(Precision::new(0.08).with_max_worlds(4)),
            ..mixed_plan(100, 5, "skip", 6)
        },
        // A cap of zero worlds: no epoch runs at all (pair queries left
        // out: their mean distance over no worlds is NaN, which `==` on
        // the answers cannot compare).
        QueryPlan {
            precision: Some(Precision::new(0.08).with_max_worlds(0)),
            ..without_pairs(mixed_plan(100, 2, "skip", 6))
        },
        // Adaptive with one epoch per world and threads above it.
        QueryPlan {
            precision: Some(Precision::new(0.3).with_epoch(1)),
            ..mixed_plan(50, 3, "auto", 8)
        },
        // Every partial is empty (the one query has no pairs), fixed and
        // adaptive; the adaptive plan tracks nothing, so it runs to its cap.
        no_pairs_plan(),
        QueryPlan {
            precision: Some(Precision::new(0.08).with_epoch(10)),
            ..no_pairs_plan()
        },
    ];
    for plan in &plans {
        assert_eq!(
            answers(fleet.coordinator.execute(plan)),
            answers(plan.execute_detailed(graph.clone())),
            "{plan:?}"
        );
    }
    // Zero worlds: pristine finalize, no sampling job at all.
    let empty = without_pairs(mixed_plan(0, 2, "skip", 5));
    let outcomes = answers(fleet.coordinator.execute(&empty));
    assert_eq!(outcomes, answers(empty.execute_detailed(graph.clone())));
    assert!(outcomes.iter().all(|answer| answer.worlds_used == 0));
    fleet.shutdown();
}

#[test]
fn sharded_invalid_and_refused_plans_resolve_like_in_process() {
    let graph = test_graph();
    let mut fleet = Fleet::start(&graph, 2);
    // A plan's shard count never changes an answer, on the fleet or in
    // process.
    for shards in [2, 3] {
        let mut plan = mixed_plan(30, 2, "skip", 9);
        plan.shards = shards;
        assert_eq!(
            answers(fleet.coordinator.execute(&plan)),
            answers(plan.execute_detailed(graph.clone()))
        );
    }
    // An invalid query resolves alone; the others still answer.
    let mixed = QueryPlan::parse_str(
        r#"{"worlds": 30, "seed": 5,
            "queries": [{"type": "knn", "source": 999},
                        {"type": "pair_queries", "pairs": [[0, 10]]},
                        {"type": "connectivity"}]}"#,
    )
    .unwrap();
    let outcomes = fleet.coordinator.execute(&mixed);
    assert_eq!(outcomes, mixed.execute_detailed(graph.clone()));
    assert!(matches!(outcomes[0], Err(ServiceError::Spec(_))));
    assert_eq!(outcomes[1].as_ref().unwrap().worlds_used, 30);
    // More shards than vertices is refused for every query, as in process.
    let mut refused = mixed_plan(30, 2, "skip", 9);
    refused.shards = 61;
    let outcomes = fleet.coordinator.execute(&refused);
    assert_eq!(outcomes, refused.execute_detailed(graph.clone()));
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, Err(ServiceError::Policy(_)))));
    fleet.shutdown();
}

#[test]
fn reports_render_byte_identical_to_the_in_process_renderer() {
    let graph = test_graph();
    let mut fleet = Fleet::start(&graph, 2);
    let label = fleet.coordinator.graph_label();
    for plan in [
        mixed_plan(40, 3, "auto", 9),
        QueryPlan {
            precision: Some(Precision::new(0.08)),
            ..mixed_plan(4000, 2, "skip", 2)
        },
    ] {
        let distributed = fleet.coordinator.run_report(&plan).render();
        let in_process = plan.run_report(graph.clone(), &label).render();
        assert_eq!(distributed, in_process);
    }
    fleet.shutdown();
}

#[test]
fn a_worker_refuses_more_blocks_than_its_thread_budget_with_a_policy_error() {
    let graph = test_graph();
    // Worker 0 runs at most one block per job; worker 1 has the default
    // budget.
    let workers: Vec<ServerHandle> = [1, 8]
        .iter()
        .enumerate()
        .map(|(k, &budget)| {
            let config = ServerConfig {
                shard: Some((k, 2)),
                max_plan_threads: budget,
                ..ServerConfig::default()
            };
            serve(graph.clone(), config).unwrap()
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let mut coordinator =
        DistCoordinator::connect(graph.clone(), &addrs, CoordinatorConfig::default()).unwrap();
    // Four blocks give each worker two: worker 0 refuses its job with a
    // typed policy error, and no retry is burned on it.
    let plan = mixed_plan(30, 4, "skip", 1);
    for outcome in coordinator.execute(&plan) {
        match outcome {
            Err(ServiceError::Policy(why)) => assert!(why.contains("max_plan_threads"), "{why}"),
            other => panic!("expected a policy error, got {other:?}"),
        }
    }
    assert!(coordinator.recovery_report().is_clean());
    // Worker 1's answer to the refused plan was still in flight: the next
    // plan must not read it as its own.  Two blocks fit and answer
    // bit-identically.
    let plan = mixed_plan(30, 2, "skip", 1);
    assert_eq!(
        answers(coordinator.execute(&plan)),
        answers(plan.execute_detailed(graph.clone()))
    );
    assert!(
        coordinator.recovery_report().is_clean(),
        "a stale response cost a retry: {:?}",
        coordinator.recovery_report()
    );
    coordinator.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}
