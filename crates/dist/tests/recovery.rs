//! Tentpole recovery coverage: a plan that loses a worker mid-run —
//! whether to a seeded worker-side wedge, a coordinator-side fault plan,
//! or a plain dead process — completes **bit-identically** to the
//! fault-free run after failing over to a standby, for fixed and adaptive
//! plans alike.  Deterministic replay (a resubmitted world-block job
//! replays the identical world stream from the batch seed, through every
//! epoch already run) makes this an invariant, not a best effort; these
//! tests pin it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_dist::{CoordinatorConfig, DistCoordinator, FaultKind, FaultPlan};
use ugs_server::{serve, ServerConfig, ServerHandle};
use ugs_service::{QueryAnswer, QueryPlan, ServiceError};
use uncertain_graph::UncertainGraph;

/// Same graph as the parity suite: a 60-vertex ring with chords, so every
/// contiguous shard sees plenty of cut edges.
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
    UncertainGraph::from_edges(n, edges).unwrap()
}

fn shard_server(graph: &UncertainGraph, k: usize, shards: usize) -> ServerHandle {
    serve(
        graph.clone(),
        ServerConfig {
            shard: Some((k, shards)),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// A fleet whose `victim` worker wedges into a terminal Disconnect a few
/// operations in — a deterministic stand-in for a process dying mid-plan.
fn doomed_fleet(
    graph: &UncertainGraph,
    shards: usize,
    victim: usize,
    wedge_at: usize,
) -> (Vec<ServerHandle>, Vec<String>) {
    let workers: Vec<ServerHandle> = (0..shards)
        .map(|k| {
            let fault_plan =
                (k == victim).then(|| FaultPlan::wedge_after(wedge_at, FaultKind::Disconnect));
            serve(
                graph.clone(),
                ServerConfig {
                    shard: Some((k, shards)),
                    fault_plan,
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    (workers, addrs)
}

/// Tight-but-safe failure knobs with a standby pool.
fn recovery_config(standbys: Vec<String>) -> CoordinatorConfig {
    CoordinatorConfig {
        timeout: std::time::Duration::from_secs(5),
        retries: 1,
        stale_after: std::time::Duration::from_secs(10),
        poll_interval: std::time::Duration::from_millis(1),
        reconnect_backoff: std::time::Duration::from_millis(5),
        standbys,
        faults: None,
    }
}

/// The victim's server-global fault clock counts `stats` (validation at
/// connect), the `world_block` submit, then polls: wedging at operation 2
/// kills the first poll — always after the job was accepted and before a
/// single partial was delivered.
const FIRST_POLL: usize = 2;

/// A fixed plan over two world blocks (so a two-worker fleet uses both).
fn fixed_plan(mode: &str, seed: u64) -> QueryPlan {
    QueryPlan::parse_str(&format!(
        r#"{{"worlds": 1200, "threads": 2, "mode": "{mode}", "seed": {seed},
            "queries": [{{"type": "connectivity"}},
                        {{"type": "degree_histogram"}},
                        {{"type": "edge_frequency"}}]}}"#
    ))
    .unwrap()
}

fn adaptive_plan(mode: &str, seed: u64, threads: usize) -> QueryPlan {
    QueryPlan::parse_str(&format!(
        r#"{{"worlds": 4000, "threads": {threads}, "mode": "{mode}", "seed": {seed},
            "precision": {{"epsilon": 0.08}},
            "queries": [{{"type": "connectivity"}},
                        {{"type": "degree_histogram"}},
                        {{"type": "edge_frequency"}}]}}"#
    ))
    .unwrap()
}

fn answers(outcomes: Vec<Result<QueryAnswer, ServiceError>>) -> Vec<QueryAnswer> {
    outcomes.into_iter().map(|o| o.unwrap()).collect()
}

#[test]
fn fixed_plans_recover_bit_identically_after_mid_plan_worker_death() {
    let graph = test_graph();
    for workers in [2usize, 4] {
        for seed in [1u64, 2, 3] {
            let mode = if seed % 2 == 1 { "skip" } else { "per-edge" };
            let (handles, addrs) = doomed_fleet(&graph, workers, 1, FIRST_POLL);
            let standby = shard_server(&graph, 1, workers);
            let config = recovery_config(vec![standby.addr().to_string()]);
            let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();

            let plan = fixed_plan(mode, seed);
            let recovered = answers(coordinator.execute(&plan));
            let monolithic = answers(plan.execute_detailed(graph.clone()));
            assert_eq!(
                recovered, monolithic,
                "recovered({workers} workers) vs fault-free, mode {mode}, seed {seed}"
            );

            let report = coordinator.recovery_report();
            assert_eq!(report.failovers.len(), 1, "exactly one promotion");
            assert_eq!(report.failovers[0].shard, 1, "the wedged shard failed over");
            assert_eq!(report.failovers[0].to, standby.addr().to_string());
            assert_eq!(coordinator.standbys_left(), 0);

            coordinator.shutdown();
            standby.shutdown();
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

#[test]
fn adaptive_plans_recover_bit_identically_after_mid_plan_worker_death() {
    let graph = test_graph();
    for workers in [2usize, 4] {
        for (mode, seed, threads) in [("skip", 1u64, 2), ("per-edge", 2, 3), ("skip", 3, 5)] {
            // The victim's ops: stats, submit, then per epoch at least one
            // poll and one advance, then the partials.  Every plan here
            // runs at least two epochs, so op 6 always falls after the
            // first checkpoint: the standby must replay the job from world
            // 0 through the epochs already decided.
            let (handles, addrs) = doomed_fleet(&graph, workers, 1, 6);
            let standby = shard_server(&graph, 1, workers);
            let config = recovery_config(vec![standby.addr().to_string()]);
            let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();

            let plan = adaptive_plan(mode, seed, threads);
            let recovered = answers(coordinator.execute(&plan));
            let monolithic = answers(plan.execute_detailed(graph.clone()));
            // Bit-identical answers *including* the adaptive stop: same
            // worlds_used, same half_width, down to the last bit.
            assert_eq!(
                recovered, monolithic,
                "adaptive recovered({workers} workers) vs fault-free, mode {mode}, seed {seed}"
            );
            let used = recovered[0].worlds_used;
            assert!(
                used > 0 && used < 4000,
                "expected a converged mid-budget stop, used {used} worlds"
            );

            assert_eq!(coordinator.recovery_report().failovers.len(), 1);
            assert_eq!(coordinator.recovery_report().failovers[0].shard, 1);

            coordinator.shutdown();
            standby.shutdown();
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

#[test]
fn every_query_kind_recovers_bit_identically_after_a_mid_block_worker_death() {
    // The plan every kernel runs in — PageRank, clustering, pair queries,
    // k-NN next to the count queries — loses worker 1 at its first poll,
    // while its blocks run: the standby re-runs the blocks and the
    // answers stay bit-identical.
    let graph = test_graph();
    for workers in [2usize, 4] {
        for seed in [1u64, 2] {
            let mode = if seed % 2 == 1 { "skip" } else { "per-edge" };
            let (handles, addrs) = doomed_fleet(&graph, workers, 1, FIRST_POLL);
            let standby = shard_server(&graph, 1, workers);
            let config = recovery_config(vec![standby.addr().to_string()]);
            let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();

            let plan = QueryPlan::parse_str(&format!(
                r#"{{"worlds": 40, "threads": 3, "mode": "{mode}", "seed": {seed},
                    "queries": [{{"type": "pagerank", "tolerance": 0.01}},
                                {{"type": "clustering"}},
                                {{"type": "pair_queries", "pairs": [[0, 1], [5, 5]]}},
                                {{"type": "connectivity"}},
                                {{"type": "knn", "source": 3, "k": 5}}]}}"#
            ))
            .unwrap();
            let recovered = coordinator.execute(&plan);
            let fault_free = plan.execute_detailed(graph.clone());
            // Rendered comparison: a never-connected pair's NaN distance
            // would defeat `==` while the bits agree.
            assert_eq!(
                plan.report_for("g", &recovered).render(),
                plan.report_for("g", &fault_free).render(),
                "mid-block recovery({workers} workers), mode {mode}, seed {seed}"
            );

            let report = coordinator.recovery_report();
            assert_eq!(report.failovers.len(), 1, "exactly one promotion");
            assert_eq!(report.failovers[0].shard, 1, "the wedged slot failed over");
            assert_eq!(report.failovers[0].to, standby.addr().to_string());

            coordinator.shutdown();
            standby.shutdown();
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

#[test]
fn coordinator_side_seeded_faults_leave_answers_bit_identical() {
    let graph = test_graph();
    for workers in [2usize, 4] {
        for seed in [1u64, 2, 3] {
            let handles: Vec<ServerHandle> = (0..workers)
                .map(|k| shard_server(&graph, k, workers))
                .collect();
            let addrs: Vec<String> = handles.iter().map(|w| w.addr().to_string()).collect();
            // Five seeded faults inside the first 60 exchanges, with a
            // retry budget wide enough to absorb them all on one worker.
            let config = CoordinatorConfig {
                retries: 12,
                reconnect_backoff: std::time::Duration::from_millis(1),
                faults: Some(FaultPlan::seeded(seed, 5, 60)),
                ..recovery_config(Vec::new())
            };
            let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();

            // Fixed and adaptive: faults land in submits, polls, pages and
            // (adaptive) advances at whatever epoch the schedule reaches.
            for plan in [fixed_plan("skip", seed), adaptive_plan("per-edge", seed, 3)] {
                let faulted = answers(coordinator.execute(&plan));
                let monolithic = answers(plan.execute_detailed(graph.clone()));
                assert_eq!(
                    faulted, monolithic,
                    "seeded coordinator faults({workers} workers) vs fault-free, seed {seed}"
                );
            }
            assert!(
                coordinator.recovery_report().failovers.is_empty(),
                "retries absorb coordinator-side faults without promotion"
            );

            coordinator.shutdown();
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

#[test]
fn worker_side_seeded_faults_leave_answers_bit_identical() {
    // Every worker misbehaves on its own seeded one-shot schedule (drops,
    // delays, disconnects and garbled answers among its first operations
    // after the connect handshake, op 0): retries absorb them all and the
    // answers stay bit-identical.
    let graph = test_graph();
    for seed in [1u64, 2, 3] {
        let workers: Vec<ServerHandle> = (0..2)
            .map(|k| {
                let mut fault_plan = FaultPlan::seeded(seed * 10 + k as u64, 6, 24);
                for event in &mut fault_plan.events {
                    event.at_op += 1;
                }
                fault_plan.delay = std::time::Duration::from_millis(2);
                serve(
                    graph.clone(),
                    ServerConfig {
                        shard: Some((k, 2)),
                        fault_plan: Some(fault_plan),
                        ..ServerConfig::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let config = CoordinatorConfig {
            timeout: std::time::Duration::from_millis(500),
            retries: 12,
            reconnect_backoff: std::time::Duration::from_millis(1),
            ..recovery_config(Vec::new())
        };
        let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();
        for plan in [fixed_plan("skip", seed), adaptive_plan("per-edge", seed, 3)] {
            assert_eq!(
                answers(coordinator.execute(&plan)),
                answers(plan.execute_detailed(graph.clone())),
                "seeded worker faults, seed {seed}"
            );
        }
        let report = coordinator.recovery_report();
        assert!(report.retries_burned > 0, "the schedule fired, seed {seed}");
        assert!(report.failovers.is_empty());
        coordinator.shutdown();
        for worker in workers {
            worker.shutdown();
        }
    }
}

#[test]
fn a_dead_at_connect_worker_fails_over_during_validation() {
    let graph = test_graph();
    let worker0 = shard_server(&graph, 0, 2);
    let doomed = shard_server(&graph, 1, 2);
    let standby = shard_server(&graph, 1, 2);
    let addrs = [worker0.addr().to_string(), doomed.addr().to_string()];
    doomed.shutdown();

    let config = recovery_config(vec![standby.addr().to_string()]);
    let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();
    let report = coordinator.recovery_report();
    assert_eq!(report.failovers.len(), 1, "connect-time promotion");
    assert_eq!(report.failovers[0].shard, 1);

    let plan = fixed_plan("skip", 7);
    assert_eq!(
        answers(coordinator.execute(&plan)),
        answers(plan.execute_detailed(graph.clone()))
    );
    coordinator.shutdown();
    worker0.shutdown();
    standby.shutdown();
}

#[test]
fn a_worker_lost_between_plans_fails_over_at_its_next_job() {
    let graph = test_graph();
    let worker0 = shard_server(&graph, 0, 2);
    let worker1 = shard_server(&graph, 1, 2);
    let standby = shard_server(&graph, 1, 2);
    let addrs = [worker0.addr().to_string(), worker1.addr().to_string()];
    let config = recovery_config(vec![standby.addr().to_string()]);
    let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();

    // First plan runs on the original fleet.
    let warm = fixed_plan("skip", 4);
    assert_eq!(
        answers(coordinator.execute(&warm)),
        answers(warm.execute_detailed(graph.clone()))
    );
    assert!(coordinator.recovery_report().is_clean());

    // Worker 1 dies between plans: its next world-block submit fails,
    // the retries find nobody home, the standby is promoted and re-runs
    // the slot's blocks — the next plan still answers bit-identically.
    worker1.shutdown();
    let plan = fixed_plan("per-edge", 5);
    assert_eq!(
        answers(coordinator.execute(&plan)),
        answers(plan.execute_detailed(graph.clone()))
    );
    assert_eq!(coordinator.recovery_report().failovers.len(), 1);
    assert_eq!(coordinator.recovery_report().failovers[0].shard, 1);

    coordinator.shutdown();
    worker0.shutdown();
    standby.shutdown();
}
