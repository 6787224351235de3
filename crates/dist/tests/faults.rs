//! Failure-model coverage: a worker killed mid-plan degrades the plan to
//! the typed `worker_lost` error within a bounded wait — never a hang —
//! and shutting the coordinator down closes every worker connection.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_dist::{CoordinatorConfig, DistCoordinator, FaultKind, FaultPlan};
use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::{QueryPlan, ServiceError};
use uncertain_graph::UncertainGraph;

fn test_graph() -> UncertainGraph {
    let n = 40;
    let mut rng = SmallRng::seed_from_u64(0xFA);
    let edges: Vec<_> = (0..n)
        .map(|i| (i, (i + 1) % n, 0.3 + 0.5 * rng.gen::<f64>()))
        .collect();
    UncertainGraph::from_edges(n, edges).unwrap()
}

fn spawn_workers(graph: &UncertainGraph, shards: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let workers: Vec<ServerHandle> = (0..shards)
        .map(|k| {
            let config = ServerConfig {
                shard: Some((k, shards)),
                ..ServerConfig::default()
            };
            serve(graph.clone(), config).unwrap()
        })
        .collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    (workers, addrs)
}

/// Tight failure knobs so the bounded degradation resolves in test time.
fn fast_failure() -> CoordinatorConfig {
    CoordinatorConfig {
        timeout: Duration::from_millis(500),
        retries: 1,
        stale_after: Duration::from_secs(2),
        poll_interval: Duration::from_millis(1),
        reconnect_backoff: Duration::from_millis(5),
        ..CoordinatorConfig::default()
    }
}

#[test]
fn killing_a_worker_mid_plan_degrades_to_worker_lost_not_a_hang() {
    let graph = test_graph();
    let (workers, addrs) = spawn_workers(&graph, 2);
    let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, fast_failure()).unwrap();

    // Warm run proves the fleet works before the fault.
    let warm =
        QueryPlan::parse_str(r#"{"worlds": 20, "seed": 3, "queries": [{"type": "connectivity"}]}"#)
            .unwrap();
    assert!(coordinator.execute(&warm).into_iter().all(|o| o.is_ok()));

    // Kill worker 1 while a large plan runs: the executing thread must come
    // back with the typed error for every query, within the bounded window
    // (timeout + retries + stale detector), never hang.
    // Two blocks, so both workers hold one.
    let big = QueryPlan::parse_str(
        r#"{"worlds": 4000000, "threads": 2, "seed": 3,
            "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    )
    .unwrap();
    let started = Instant::now();
    let mut workers = workers;
    let outcomes = std::thread::scope(|scope| {
        let execution = scope.spawn(move || {
            let outcomes = coordinator.execute(&big);
            // Dropping the coordinator here closes the surviving worker's
            // connection, which cancels its (huge) world-block job.
            drop(coordinator);
            outcomes
        });
        std::thread::sleep(Duration::from_millis(100));
        // Dropping a ServerHandle shuts the server down: worker 1 dies
        // mid-plan while worker 0 keeps serving.
        workers.remove(1).shutdown();
        execution.join().unwrap()
    });
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "degradation must be bounded, took {:?}",
        started.elapsed()
    );
    assert_eq!(outcomes.len(), 2);
    for outcome in outcomes {
        match outcome {
            Err(ServiceError::WorkerLost(why)) => {
                assert!(why.contains("shard 1"), "names the lost worker: {why}")
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }
}

#[test]
fn a_dead_fleet_fails_connect_with_worker_lost() {
    let graph = test_graph();
    let (workers, addrs) = spawn_workers(&graph, 2);
    for worker in workers {
        worker.shutdown();
    }
    match DistCoordinator::connect(graph, &addrs, fast_failure()) {
        Err(ServiceError::WorkerLost(_)) => {}
        Err(other) => panic!("expected WorkerLost, got {other:?}"),
        Ok(_) => panic!("expected WorkerLost, got a connected coordinator"),
    }
}

#[test]
fn a_worker_with_the_wrong_role_is_rejected_at_connect() {
    let graph = test_graph();
    // Both workers claim shard 0 of 2: the second address fails validation.
    let config = ServerConfig {
        shard: Some((0, 2)),
        ..ServerConfig::default()
    };
    let a = serve(graph.clone(), config.clone()).unwrap();
    let b = serve(graph.clone(), config).unwrap();
    let addrs = [a.addr().to_string(), b.addr().to_string()];
    match DistCoordinator::connect(graph.clone(), &addrs, fast_failure()) {
        Err(ServiceError::WorkerLost(why)) => {
            assert!(why.contains("shard 1"), "names the mismatched role: {why}")
        }
        Err(other) => panic!("expected WorkerLost, got {other:?}"),
        Ok(_) => panic!("expected WorkerLost, got a connected coordinator"),
    }
    // A worker serving a different graph is rejected the same way.
    let other_graph = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
    let c = serve(
        other_graph,
        ServerConfig {
            shard: Some((0, 1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    match DistCoordinator::connect(graph, &[c.addr().to_string()], fast_failure()) {
        Err(ServiceError::WorkerLost(why)) => {
            assert!(why.contains("graph"), "names the graph mismatch: {why}")
        }
        Err(other) => panic!("expected WorkerLost, got {other:?}"),
        Ok(_) => panic!("expected WorkerLost, got a connected coordinator"),
    }
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn coordinator_shutdown_closes_every_worker_connection() {
    let graph = test_graph();
    let (workers, addrs) = spawn_workers(&graph, 2);
    // A separate monitor connection per worker, to read the gauge.
    let mut monitors: Vec<LineClient> = workers
        .iter()
        .map(|w| LineClient::connect(w.addr()).unwrap())
        .collect();
    let connections = |client: &mut LineClient| -> usize {
        client
            .request(r#"{"op": "stats"}"#)
            .unwrap()
            .get_usize("connections")
            .unwrap()
    };

    let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, fast_failure()).unwrap();
    let plan =
        QueryPlan::parse_str(r#"{"worlds": 10, "seed": 1, "queries": [{"type": "connectivity"}]}"#)
            .unwrap();
    assert!(coordinator.execute(&plan).into_iter().all(|o| o.is_ok()));
    for monitor in &mut monitors {
        assert_eq!(connections(monitor), 2, "coordinator + this monitor");
    }

    coordinator.shutdown();
    // The close is asynchronous on the worker side: poll briefly.
    for monitor in &mut monitors {
        let deadline = Instant::now() + Duration::from_secs(10);
        while connections(monitor) != 1 {
            assert!(Instant::now() < deadline, "worker kept a dead connection");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_listener_that_accepts_but_never_responds_fails_typed_and_bounded() {
    let graph = test_graph();
    let (workers, mut addrs) = spawn_workers(&graph, 2);
    // A bound listener that is never accepted from: the kernel backlog
    // completes the TCP handshake, so `connect` succeeds and the request
    // is buffered — but no response ever comes.  Every exchange must
    // resolve through the read timeout, not hang.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    addrs[1] = silent.local_addr().unwrap().to_string();
    let started = Instant::now();
    match DistCoordinator::connect(graph, &addrs, fast_failure()) {
        Err(ServiceError::WorkerLost(why)) => {
            assert!(why.contains("shard 1"), "names the silent worker: {why}")
        }
        Err(other) => panic!("expected WorkerLost, got {other:?}"),
        Ok(_) => panic!("expected WorkerLost, got a connected coordinator"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "silent-listener degradation must be bounded, took {:?}",
        started.elapsed()
    );
    drop(silent);
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_worker_that_goes_silent_mid_plan_degrades_through_the_read_timeout_loop() {
    let graph = test_graph();
    // Worker 1 wedges into Drop at its first poll (ops: stats, submit,
    // poll): from then on it keeps accepting requests (and
    // reconnections) but never answers again — the
    // accepts-but-never-responds shape, hit *mid-plan*.
    let worker0 = serve(
        graph.clone(),
        ServerConfig {
            shard: Some((0, 2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let worker1 = serve(
        graph.clone(),
        ServerConfig {
            shard: Some((1, 2)),
            fault_plan: Some(FaultPlan::wedge_after(2, FaultKind::Drop)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addrs = [worker0.addr().to_string(), worker1.addr().to_string()];
    let mut coordinator = DistCoordinator::connect(graph, &addrs, fast_failure()).unwrap();
    let plan = QueryPlan::parse_str(
        r#"{"worlds": 200, "threads": 2, "seed": 5, "queries": [{"type": "connectivity"}]}"#,
    )
    .unwrap();
    let started = Instant::now();
    let outcomes = coordinator.execute(&plan);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "mid-plan silence must resolve through bounded timeouts, took {:?}",
        started.elapsed()
    );
    match &outcomes[0] {
        Err(ServiceError::WorkerLost(why)) => {
            assert!(why.contains("shard 1"), "names the wedged worker: {why}")
        }
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    coordinator.shutdown();
    worker0.shutdown();
    worker1.shutdown();
}

#[test]
fn a_standby_with_the_wrong_fingerprint_is_rejected_typed_and_bounded() {
    let graph = test_graph();
    let worker0 = serve(
        graph.clone(),
        ServerConfig {
            shard: Some((0, 2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Worker 1 wedges into Disconnect at its first poll, exhausting its
    // retries mid-plan.
    let worker1 = serve(
        graph.clone(),
        ServerConfig {
            shard: Some((1, 2)),
            fault_plan: Some(FaultPlan::wedge_after(2, FaultKind::Disconnect)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The only standby serves a *different* graph under the right role: it
    // must fail fingerprint validation at promotion — the coordinator must
    // degrade typed rather than fold a foreign graph's partials.
    let other_graph = {
        let mut rng = SmallRng::seed_from_u64(0xFB);
        let edges: Vec<_> = (0..40)
            .map(|i| (i, (i + 1) % 40, 0.3 + 0.5 * rng.gen::<f64>()))
            .collect();
        UncertainGraph::from_edges(40, edges).unwrap()
    };
    let imposter = serve(
        other_graph,
        ServerConfig {
            shard: Some((1, 2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut config = fast_failure();
    config.standbys = vec![imposter.addr().to_string()];
    let addrs = [worker0.addr().to_string(), worker1.addr().to_string()];
    let mut coordinator = DistCoordinator::connect(graph, &addrs, config).unwrap();
    let plan = QueryPlan::parse_str(
        r#"{"worlds": 200, "threads": 2, "seed": 5, "queries": [{"type": "connectivity"}]}"#,
    )
    .unwrap();
    let started = Instant::now();
    let outcomes = coordinator.execute(&plan);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "rejected-standby degradation must be bounded, took {:?}",
        started.elapsed()
    );
    match &outcomes[0] {
        Err(ServiceError::WorkerLost(why)) => {
            assert!(why.contains("shard 1"), "names the lost shard: {why}");
            assert!(
                why.contains("graph"),
                "names the fingerprint mismatch: {why}"
            );
        }
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    assert_eq!(
        coordinator.standbys_left(),
        0,
        "the bad standby is consumed"
    );
    coordinator.shutdown();
    worker0.shutdown();
    worker1.shutdown();
    imposter.shutdown();
}

#[test]
fn a_block_that_outlasts_the_socket_timeout_is_not_cut_off_while_it_progresses() {
    let graph = test_graph();
    let (workers, addrs) = spawn_workers(&graph, 2);
    // A 200 ms socket timeout and a 2 s stale window against blocks that
    // take well over a second: polls answer at once with a rising stream
    // position, so neither bound fires and no retry is burned.
    let config = CoordinatorConfig {
        timeout: Duration::from_millis(200),
        stale_after: Duration::from_secs(2),
        ..fast_failure()
    };
    let mut coordinator = DistCoordinator::connect(graph.clone(), &addrs, config).unwrap();
    let long = QueryPlan::parse_str(
        r#"{"worlds": 600000, "threads": 2, "seed": 8,
            "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    )
    .unwrap();
    let started = Instant::now();
    let outcomes = coordinator.execute(&long);
    let took = started.elapsed();
    assert_eq!(outcomes, long.execute_detailed(graph.clone()));
    assert!(
        took > Duration::from_millis(200),
        "the blocks must outlast the socket timeout to test it, took {took:?}"
    );
    assert!(coordinator.recovery_report().is_clean(), "no retry burned");
    coordinator.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn an_adaptive_plan_losing_a_worker_without_a_standby_degrades_to_worker_lost() {
    let graph = test_graph();
    // Worker 1 dies for good at its seventh operation — after the first
    // epoch checkpoint — and there is no standby to take its slot.
    let workers: Vec<ServerHandle> = (0..2)
        .map(|k| {
            let fault_plan = (k == 1).then(|| FaultPlan::wedge_after(6, FaultKind::Disconnect));
            serve(
                graph.clone(),
                ServerConfig {
                    shard: Some((k, 2)),
                    fault_plan,
                    ..ServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let mut coordinator = DistCoordinator::connect(graph, &addrs, fast_failure()).unwrap();
    let plan = QueryPlan::parse_str(
        r#"{"worlds": 400000, "threads": 2, "seed": 5,
            "precision": {"epsilon": 0.0001},
            "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    )
    .unwrap();
    let started = Instant::now();
    let outcomes = coordinator.execute(&plan);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "adaptive degradation must be bounded, took {:?}",
        started.elapsed()
    );
    for outcome in outcomes {
        match outcome {
            Err(ServiceError::WorkerLost(why)) => {
                assert!(why.contains("shard 1"), "names the lost worker: {why}")
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }
    coordinator.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}
