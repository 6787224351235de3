//! Loopback-TCP integration suite: real sockets, real threads, every
//! assertion against the wire.  Covers submit/poll/cancel round-trips,
//! typed protocol errors that leave the connection up, cache-hit
//! bit-identity against a fresh cold-cache server, deterministic
//! backpressure (`over_budget`, `overloaded`) and graceful shutdown that
//! never leaves a client blocked.

use std::time::{Duration, Instant};

use minijson::Value;
use ugs_server::{serve, FaultEvent, FaultKind, FaultPlan, LineClient, ServerConfig, ServerHandle};
use uncertain_graph::UncertainGraph;

/// Every client arms a generous read timeout: a regression that hangs a
/// response turns into a loud test failure instead of a stuck suite.
const SAFETY: Duration = Duration::from_secs(30);

fn toy_graph() -> UncertainGraph {
    UncertainGraph::from_edges(
        6,
        [
            (0, 1, 0.9),
            (1, 2, 0.5),
            (2, 3, 0.7),
            (3, 4, 0.4),
            (4, 5, 0.6),
            (5, 0, 0.8),
            (1, 4, 0.3),
        ],
    )
    .unwrap()
}

fn start(config: ServerConfig) -> ServerHandle {
    serve(toy_graph(), config).unwrap()
}

fn client(server: &ServerHandle) -> LineClient {
    let mut client = LineClient::connect(server.addr()).unwrap();
    client.set_read_timeout(Some(SAFETY)).unwrap();
    client
}

fn submit_job(client: &mut LineClient, plan: &str) -> (u64, bool) {
    let response = client.submit(plan).unwrap();
    assert_eq!(
        response.get_str("status"),
        Some("ok"),
        "{}",
        response.render()
    );
    (
        response.get_usize("job").unwrap() as u64,
        response.get("job").is_some()
            && response.get("cached").and_then(Value::as_bool) == Some(true),
    )
}

#[test]
fn submit_poll_round_trips_deliver_exactly_once() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);

    let pong = c.request(r#"{"op": "ping"}"#).unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    let (job, cached) = submit_job(
        &mut c,
        r#"{"worlds": 80, "seed": 3, "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    );
    assert!(!cached, "a cold cache cannot satisfy the first submit");
    let report = c.wait_for_report(job).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    for entry in results {
        assert_eq!(entry.get_str("status"), Some("ok"));
        assert_eq!(entry.get_usize("worlds_used"), Some(80));
    }

    // Delivery consumed the job: its id is gone.
    let gone = c.poll(job).unwrap();
    assert_eq!(gone.get_str("code"), Some("unknown_job"));
    server.shutdown();
}

#[test]
fn cancel_frees_the_job_and_its_id() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 50, "seed": 1, "queries": [{"type": "connectivity"}]}"#,
    );
    let cancelled = c.cancel(job).unwrap();
    assert_eq!(cancelled.get_str("status"), Some("ok"));
    assert_eq!(
        cancelled.get("cancelled").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(c.poll(job).unwrap().get_str("code"), Some("unknown_job"));
    assert_eq!(c.cancel(job).unwrap().get_str("code"), Some("unknown_job"));
    // The connection is still perfectly usable afterwards.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 50, "seed": 1, "queries": [{"type": "connectivity"}]}"#,
    );
    c.wait_for_report(job).unwrap();
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_and_the_connection_survives() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    // Far under the line cap, far over the parser's nesting bound: without
    // that bound the recursive parser overflows the connection thread's
    // stack and aborts the whole process.
    let deep = "[".repeat(10_000);
    let cases = [
        ("{not json", "bad_request"),
        ("[1, 2, 3]", "bad_request"),
        (r#"{"op": "warp"}"#, "unknown_op"),
        (r#"{"op": "ping", "extra": true}"#, "bad_request"),
        (r#"{"op": "poll"}"#, "bad_request"),
        (r#"{"op": "poll", "job": 999}"#, "unknown_job"),
        (r#"{"op": "submit", "plan": {"queries": []}}"#, "plan"),
        (
            r#"{"op": "submit", "plan": {"worlds": 5, "budget": 9, "queries": [{"type": "connectivity"}]}}"#,
            "bad_request",
        ),
        (
            r#"{"op": "submit", "plan": {"graph": "elsewhere.txt", "queries": [{"type": "connectivity"}]}}"#,
            "plan",
        ),
        (
            r#"{"op": "submit", "plan": {"queries": [{"type": "psychic"}]}}"#,
            "plan",
        ),
        (&deep, "bad_request"),
    ];
    for (line, code) in cases {
        let response = c.request(line).unwrap();
        assert_eq!(response.get_str("status"), Some("error"), "{line:.80}");
        assert_eq!(response.get_str("code"), Some(code), "{line:.80}");
        assert!(response.get_str("message").is_some(), "{line:.80}");
    }
    let pong = c.request(r#"{"op": "ping"}"#).unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    // After eleven abusive lines the connection still answers real work.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 40, "seed": 9, "queries": [{"type": "connectivity"}]}"#,
    );
    c.wait_for_report(job).unwrap();
    server.shutdown();
}

#[test]
fn plans_that_fail_inside_the_service_report_typed_per_query_errors() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    // A spec that cannot fit the graph (knn source out of range) comes back
    // as a per-query typed error, not a worker panic or a dead connection.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 40, "seed": 2, "shards": 2, "queries": [{"type": "knn", "source": 99, "k": 2}, {"type": "degree_histogram"}]}"#,
    );
    let report = c.wait_for_report(job).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get_str("status"), Some("error"));
    assert!(results[0].get_str("error").is_some());
    assert_eq!(results[1].get_str("status"), Some("ok"));
    // The worker pool survived, and a plan's shard count never makes a
    // query error.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 40, "seed": 2, "shards": 2, "queries": [{"type": "pagerank"}]}"#,
    );
    let report = c.wait_for_report(job).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get_str("status"), Some("ok"));
    server.shutdown();
}

#[test]
fn absurd_shard_counts_are_refused_typed_and_the_connection_survives() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    // A plan asking a 6-vertex graph for 10^12 shards is refused before any
    // world is sampled: promptly, typed, per query.
    let asked = Instant::now();
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 40, "seed": 2, "shards": 1000000000000, "queries": [{"type": "connectivity"}, {"type": "pagerank"}]}"#,
    );
    let report = c.wait_for_report(job).unwrap();
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "the refusal took {:?}",
        asked.elapsed()
    );
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    for entry in results {
        assert_eq!(entry.get_str("status"), Some("error"));
        let error = entry.get_str("error").unwrap();
        assert!(error.contains("1000000000000 shards"), "{error}");
    }
    // The same connection then answers a normal plan, at the shard limit.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 40, "seed": 2, "shards": 6, "queries": [{"type": "connectivity"}]}"#,
    );
    let report = c.wait_for_report(job).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get_str("status"), Some("ok"));
    assert_eq!(results[0].get_usize("worlds_used"), Some(40));
    server.shutdown();
}

/// The tentpole determinism claim: a cache hit is bit-identical to a fresh
/// run, across seeds and across fixed/adaptive budgets.  The baseline is a
/// second server with a cold cache — same graph, same plan, zero reuse.
#[test]
fn cache_hits_are_bit_identical_to_fresh_runs() {
    let warm = start(ServerConfig::default());
    let mut wc = client(&warm);
    for seed in [1u64, 7, 13] {
        for precision in ["", r#", "precision": {"epsilon": 0.05, "delta": 0.1}"#] {
            let plan = format!(
                r#"{{"worlds": 120, "threads": 2, "seed": {seed}{precision}, "queries": [{{"type": "connectivity"}}, {{"type": "edge_frequency"}}]}}"#
            );
            let (job, cached) = submit_job(&mut wc, &plan);
            assert!(!cached, "first sighting of this plan cannot be cached");
            let first = wc.wait_for_report(job).unwrap().render();

            let (job, cached) = submit_job(&mut wc, &plan);
            assert!(cached, "identical resubmission must be a full cache hit");
            let replay = wc.wait_for_report(job).unwrap().render();
            assert_eq!(first, replay, "cache replay diverged (seed {seed})");

            let cold = start(ServerConfig::default());
            let mut cc = client(&cold);
            let (job, _) = submit_job(&mut cc, &plan);
            let fresh = cc.wait_for_report(job).unwrap().render();
            assert_eq!(first, fresh, "cached answer differs from a cold run");
            cold.shutdown();
        }
    }
    let stats = warm.cache_stats();
    assert!(stats.hits >= 12, "expected cache hits, saw {stats:?}");
    warm.shutdown();
}

/// Fixed-budget answers are mix-independent, so a query cached from a
/// two-query plan satisfies a later single-query plan — and bit-identically
/// matches a cold server that only ever ran the solo plan.
#[test]
fn fixed_budget_answers_are_reused_across_plans() {
    let warm = start(ServerConfig::default());
    let mut wc = client(&warm);
    let (job, _) = submit_job(
        &mut wc,
        r#"{"worlds": 90, "seed": 5, "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    );
    wc.wait_for_report(job).unwrap();

    let solo = r#"{"worlds": 90, "seed": 5, "queries": [{"type": "connectivity"}]}"#;
    let (job, cached) = submit_job(&mut wc, solo);
    assert!(
        cached,
        "solo plan should be satisfied from the pair's cache"
    );
    let reused = wc.wait_for_report(job).unwrap().render();

    let cold = start(ServerConfig::default());
    let mut cc = client(&cold);
    let (job, _) = submit_job(&mut cc, solo);
    let fresh = cc.wait_for_report(job).unwrap().render();
    assert_eq!(reused, fresh, "cross-plan reuse must stay bit-identical");
    cold.shutdown();
    warm.shutdown();
}

/// Adaptive stopping pools statistics over the whole mix, so a differently
/// mixed adaptive plan must NOT reuse cached answers.
#[test]
fn adaptive_answers_are_never_reused_across_mixes() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 200, "seed": 5, "precision": {"epsilon": 0.05}, "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
    );
    c.wait_for_report(job).unwrap();
    let (_, cached) = submit_job(
        &mut c,
        r#"{"worlds": 200, "seed": 5, "precision": {"epsilon": 0.05}, "queries": [{"type": "connectivity"}]}"#,
    );
    assert!(!cached, "a different adaptive mix must re-run");
    server.shutdown();
}

#[test]
fn the_inflight_budget_rejects_typed_without_killing_jobs() {
    let server = start(ServerConfig {
        max_inflight: 2,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    let plan = |seed: u64| {
        format!(r#"{{"worlds": 60, "seed": {seed}, "queries": [{{"type": "connectivity"}}]}}"#)
    };
    let (job_a, _) = submit_job(&mut c, &plan(1));
    let (job_b, _) = submit_job(&mut c, &plan(2));
    // Slots free only at delivery or cancellation, so the third submit is
    // deterministically over budget no matter how fast the jobs ran.
    let refused = c.submit(&plan(3)).unwrap();
    assert_eq!(refused.get_str("status"), Some("error"));
    assert_eq!(refused.get_str("code"), Some("over_budget"));
    // Delivering one frees its slot.
    c.wait_for_report(job_a).unwrap();
    let (job_c, _) = submit_job(&mut c, &plan(3));
    c.wait_for_report(job_b).unwrap();
    c.wait_for_report(job_c).unwrap();
    server.shutdown();
}

#[test]
fn a_full_queue_answers_overloaded_instead_of_buffering() {
    let server = start(ServerConfig {
        executors: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    // Job A is heavy enough to pin the single executor for a while.
    let heavy = r#"{"worlds": 150000, "seed": 11, "queries": [{"type": "edge_frequency"}]}"#;
    let light = |seed: u64| {
        format!(r#"{{"worlds": 30, "seed": {seed}, "queries": [{{"type": "connectivity"}}]}}"#)
    };
    let (job_a, _) = submit_job(&mut c, heavy);
    // Job B lands in the queue slot as soon as the executor picks up A.
    let job_b = loop {
        let response = c.submit(&light(1)).unwrap();
        match response.get_str("code") {
            Some("overloaded") => std::thread::sleep(Duration::from_millis(1)),
            None => break response.get_usize("job").unwrap() as u64,
            Some(other) => panic!("unexpected rejection {other}"),
        }
    };
    // Executor busy with A, queue holds B: C must bounce, typed.
    let refused = c.submit(&light(2)).unwrap();
    assert_eq!(refused.get_str("status"), Some("error"));
    assert_eq!(refused.get_str("code"), Some("overloaded"));
    assert!(refused.get_str("message").unwrap().contains("queue"));
    // The rejection cost nothing: A and B still deliver.
    c.wait_for_report(job_a).unwrap();
    c.wait_for_report(job_b).unwrap();
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_clients_instead_of_hanging_them() {
    let server = start(ServerConfig::default());
    let mut watcher = client(&server);
    let mut killer = client(&server);
    // The watcher has a queued job it will never collect.
    let (job, _) = submit_job(
        &mut watcher,
        r#"{"worlds": 120, "seed": 4, "queries": [{"type": "edge_frequency"}]}"#,
    );
    let ack = killer.request(r#"{"op": "shutdown"}"#).unwrap();
    assert_eq!(ack.get_str("status"), Some("ok"));
    assert_eq!(ack.get("stopping").and_then(Value::as_bool), Some(true));
    // The killer's socket closes right after the acknowledgement…
    assert_eq!(killer.read_line().unwrap(), None, "expected EOF");
    // …and the watcher is unblocked too: either a typed shutting_down
    // answer (if its poll raced the teardown) or a clean EOF — never a
    // hang (the read timeout would fail the test loudly).
    match watcher.request_raw(&format!(r#"{{"op": "poll", "job": {job}}}"#)) {
        Ok(None) | Err(_) => {}
        Ok(Some(line)) => {
            let value = Value::parse(&line).unwrap();
            let code = value.get_str("code");
            assert!(
                value.get_str("status") == Some("ok") || code == Some("shutting_down"),
                "unexpected shutdown-race response: {line}"
            );
        }
    }
    assert_eq!(watcher.read_line().unwrap(), None, "expected EOF");
    // Joining the server completes promptly; queued work was drained or
    // discarded, not stranded.
    server.shutdown();
}

#[test]
fn submits_after_shutdown_are_refused_typed() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    c.request(r#"{"op": "shutdown"}"#).unwrap();
    // A second connection may race the listener teardown: a connect that
    // still succeeds must be answered typed or closed, never hung.
    if let Ok(mut late) = LineClient::connect(server.addr()) {
        late.set_read_timeout(Some(SAFETY)).unwrap();
        // A closed connection (EOF or error) is also fine — only a typed
        // answer is checked.
        if let Ok(Some(line)) =
            late.request_raw(r#"{"op": "submit", "plan": {"queries": [{"type": "connectivity"}]}}"#)
        {
            let value = Value::parse(&line).unwrap();
            assert_eq!(value.get_str("code"), Some("shutting_down"), "{line}");
        }
    }
    server.shutdown();
}

#[test]
fn world_blocks_after_shutdown_are_refused_typed() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    c.request(r#"{"op": "shutdown"}"#).unwrap();
    // As for submits: a connect that still succeeds must be answered typed
    // or closed, never hung, and never admitted.
    if let Ok(mut late) = LineClient::connect(server.addr()) {
        late.set_read_timeout(Some(SAFETY)).unwrap();
        let line = r#"{"op": "world_block", "queries": [{"type": "connectivity"}],
            "mode": "skip", "seed": "7", "worlds": 8, "epoch": 8, "blocks": 1,
            "slot": 0, "slots": 1, "epochs": 1, "finish": true}"#
            .replace('\n', " ");
        if let Ok(Some(line)) = late.request_raw(&line) {
            let value = Value::parse(&line).unwrap();
            assert_eq!(value.get_str("code"), Some("shutting_down"), "{line}");
        }
    }
    server.shutdown();
}

#[test]
fn stats_report_cache_and_job_counters_over_the_wire() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let plan = r#"{"worlds": 70, "seed": 8, "queries": [{"type": "connectivity"}]}"#;
    let (job, _) = submit_job(&mut c, plan);
    c.wait_for_report(job).unwrap();
    let (job, cached) = submit_job(&mut c, plan);
    assert!(cached);
    c.wait_for_report(job).unwrap();
    let stats = c.request(r#"{"op": "stats"}"#).unwrap();
    assert_eq!(stats.get_str("status"), Some("ok"));
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get_usize("submitted"), Some(2));
    assert_eq!(jobs.get_usize("delivered"), Some(2));
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get_usize("hits"), Some(1));
    assert_eq!(cache.get_usize("insertions"), Some(1));
    assert!(stats.get_str("graph").unwrap().starts_with("fingerprint:"));
    server.shutdown();
}

#[test]
fn plan_thread_counts_are_clamped_to_the_server_cap() {
    let server = start(ServerConfig {
        max_plan_threads: 2,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    // A plan demanding 64 threads runs clamped — and its cache identity is
    // the clamped plan, so an explicit 2-thread plan hits.
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 64, "threads": 64, "seed": 6, "queries": [{"type": "edge_frequency"}]}"#,
    );
    let clamped = c.wait_for_report(job).unwrap();
    assert_eq!(clamped.get_usize("threads"), Some(2));
    let (job, cached) = submit_job(
        &mut c,
        r#"{"worlds": 64, "threads": 2, "seed": 6, "queries": [{"type": "edge_frequency"}]}"#,
    );
    assert!(
        cached,
        "clamped plan and explicit 2-thread plan share a key"
    );
    let explicit = c.wait_for_report(job).unwrap();
    assert_eq!(
        clamped.get("results").unwrap().render(),
        explicit.get("results").unwrap().render()
    );
    server.shutdown();
}

#[test]
fn oversized_request_lines_get_typed_errors_and_the_connection_survives() {
    let server = start(ServerConfig {
        max_line_bytes: 4096,
        ..ServerConfig::default()
    });
    let mut c = client(&server);

    // A single request line past the cap: typed bad_request naming the
    // limit, and the connection keeps serving.
    let huge = format!(r#"{{"op": "ping", "pad": "{}"}}"#, "x".repeat(8192));
    let refused = c.request(&huge).unwrap();
    assert_eq!(refused.get_str("status"), Some("error"));
    assert_eq!(refused.get_str("code"), Some("bad_request"));
    assert!(
        refused.get_str("message").unwrap().contains("4096"),
        "the error names the cap: {}",
        refused.render()
    );
    let pong = c.request(r#"{"op": "ping"}"#).unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    // A newline-free flood well past the cap: the server refuses it as
    // soon as the overflow is certain, drains to the eventual newline,
    // and the next line is served normally — no unbounded buffering.
    let flood = "y".repeat(64 * 1024);
    let refused = c.request(&flood).unwrap();
    assert_eq!(refused.get_str("code"), Some("bad_request"));
    let (job, _) = submit_job(
        &mut c,
        r#"{"worlds": 30, "seed": 2, "queries": [{"type": "connectivity"}]}"#,
    );
    c.wait_for_report(job).unwrap();
    server.shutdown();
}

#[test]
fn a_seeded_fault_plan_misbehaves_deterministically_over_the_wire() {
    // One Disconnect at op 2, then a wedge-free schedule: ops 0 and 1
    // answer, op 2 closes the connection, everything after serves again.
    let server = start(ServerConfig {
        fault_plan: Some(FaultPlan {
            events: vec![FaultEvent {
                at_op: 2,
                kind: FaultKind::Disconnect,
            }],
            wedge: None,
            delay: Duration::from_millis(1),
        }),
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    for _ in 0..2 {
        let pong = c.request(r#"{"op": "ping"}"#).unwrap();
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    }
    // Op 2: the injected disconnect surfaces as EOF (or a reset), never a
    // hang — the read timeout would fail the test loudly.
    match c.request_raw(r#"{"op": "ping"}"#) {
        Ok(None) | Err(_) => {}
        Ok(Some(line)) => panic!("expected the injected disconnect, got {line}"),
    }
    // The schedule is server-global: a fresh connection does NOT replay
    // op 0 — it picks up at op 3, serves normally, and the stats gauge
    // records exactly one fired fault.
    let mut fresh = client(&server);
    let stats = fresh.request(r#"{"op": "stats"}"#).unwrap();
    assert_eq!(stats.get_str("status"), Some("ok"));
    assert_eq!(stats.get_usize("faults"), Some(1));
    server.shutdown();
}
