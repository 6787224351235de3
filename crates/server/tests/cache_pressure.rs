//! Result-cache behaviour under byte-budget pressure: exact LRU eviction
//! order, exact hit/miss/insertion/eviction accounting, and the same
//! pressure observed end-to-end through a live server's `stats` op.

use ugs_server::{serve, LineClient, ResultCache, ServerConfig};
use ugs_service::{QueryAnswer, QueryResult, RenderedAnswer};
use uncertain_graph::UncertainGraph;

fn answer(tag: f64) -> RenderedAnswer {
    QueryAnswer {
        result: QueryResult::EdgeFrequency(vec![tag]),
        worlds_used: 10,
        half_width: None,
    }
    .render()
}

/// Measures the charged bytes of one entry under `key` (identically shaped
/// answers under equal-length keys are charged identically, which the LRU
/// tests below rely on).
fn entry_bytes(key: &str) -> usize {
    let mut probe = ResultCache::new(usize::MAX);
    probe.insert(key.to_string(), answer(0.75));
    probe.stats().bytes
}

#[test]
fn eviction_follows_exact_lru_order_under_pressure() {
    let unit = entry_bytes("k0");
    // Room for exactly three entries.
    let mut cache = ResultCache::new(3 * unit);
    cache.insert("k0".to_string(), answer(0.25));
    cache.insert("k1".to_string(), answer(0.75));
    cache.insert("k2".to_string(), answer(0.25));
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.bytes), (3, 3 * unit), "budget full");
    assert_eq!(stats.evictions, 0, "nothing evicted while the budget holds");

    // A lookup bumps recency: k0 is now the most recent, k1 the LRU victim.
    assert!(cache.lookup("k0").is_some());
    cache.insert("k3".to_string(), answer(0.75));
    assert!(cache.lookup("k1").is_none(), "k1 was least recently used");
    assert!(cache.lookup("k0").is_some(), "bumped entry survives");
    assert!(cache.lookup("k2").is_some());
    assert!(cache.lookup("k3").is_some());
    assert_eq!(cache.stats().evictions, 1);

    // Recency is now k1-miss < k0 < k2 < k3 with k0 oldest of the live
    // three: the next two inserts must evict k0 then k2, never k3.
    cache.insert("k4".to_string(), answer(0.25));
    assert!(cache.lookup("k0").is_none(), "k0 evicted second");
    cache.insert("k5".to_string(), answer(0.75));
    assert!(cache.lookup("k2").is_none(), "k2 evicted third");
    assert!(cache.lookup("k3").is_some(), "k3 outlived both");
    let stats = cache.stats();
    assert_eq!(stats.evictions, 3);
    assert_eq!(stats.entries, 3);
    assert!(stats.bytes <= 3 * unit, "byte invariant holds throughout");
}

#[test]
fn hit_and_miss_accounting_stays_exact_under_pressure() {
    let unit = entry_bytes("k0");
    let mut cache = ResultCache::new(2 * unit);
    // 1 miss.
    assert!(cache.lookup("k0").is_none());
    cache.insert("k0".to_string(), answer(0.25));
    cache.insert("k1".to_string(), answer(0.75));
    // 2 hits.
    assert!(cache.lookup("k0").is_some());
    assert!(cache.lookup("k1").is_some());
    // Overflow: evicts k0 (the older of the two equal-recency bumps).
    cache.insert("k2".to_string(), answer(0.25));
    // 1 more miss, 1 more hit.
    assert!(cache.lookup("k0").is_none());
    assert!(cache.lookup("k2").is_some());
    let stats = cache.stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.insertions, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.bytes, 2 * unit);
}

#[test]
fn an_answer_larger_than_the_whole_budget_is_skipped_and_counted() {
    let unit = entry_bytes("k0");
    let mut cache = ResultCache::new(unit - 1);
    cache.insert("k0".to_string(), answer(0.25));
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "the oversized answer never lands");
    assert_eq!(stats.bytes, 0);
    assert_eq!(stats.insertions, 0);
    assert_eq!(stats.evictions, 1, "the skip is visible in the counters");
    assert!(cache.lookup("k0").is_none());
}

#[test]
fn reinserting_a_key_replaces_without_double_charging() {
    let unit = entry_bytes("k0");
    let mut cache = ResultCache::new(4 * unit);
    cache.insert("k0".to_string(), answer(0.25));
    cache.insert("k0".to_string(), answer(0.75));
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.bytes, unit, "the old charge was released");
    assert_eq!(cache.lookup("k0"), Some(answer(0.75)), "latest answer wins");
}

#[test]
fn a_live_server_reports_cache_pressure_through_stats() {
    let graph = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap();
    // A budget around two entries of this report size: distinct plans must
    // evict each other.
    let server = serve(
        graph,
        ServerConfig {
            cache_bytes: 360,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = LineClient::connect(server.addr()).unwrap();

    let plan = |seed: u64| {
        format!(r#"{{"worlds": 5, "seed": {seed}, "queries": [{{"type": "connectivity"}}]}}"#)
    };
    let run = |client: &mut LineClient, seed: u64| -> bool {
        let accepted = client.submit(&plan(seed)).unwrap();
        assert_eq!(accepted.get_str("status"), Some("ok"));
        let cached = accepted
            .get("cached")
            .and_then(minijson::Value::as_bool)
            .unwrap();
        let job = accepted.get_usize("job").unwrap() as u64;
        client.wait_for_report(job).unwrap();
        cached
    };

    assert!(!run(&mut client, 1), "first run is a miss");
    assert!(run(&mut client, 1), "identical resubmission hits");
    // Flood with distinct seeds until seed 1 must have been evicted.
    for seed in 2..10 {
        assert!(!run(&mut client, seed));
    }
    assert!(!run(&mut client, 1), "seed 1 was evicted under pressure");

    let stats = client.request(r#"{"op": "stats"}"#).unwrap();
    let cache = stats.get("cache").unwrap();
    assert!(cache.get_usize("evictions").unwrap() >= 1);
    assert!(cache.get_usize("hits").unwrap() >= 1);
    assert!(cache.get_usize("bytes").unwrap() <= 360);
    // The new observability fields ride along on the same response.
    let queue = stats.get("queue").unwrap();
    assert!(queue.get_usize("capacity").unwrap() >= 1);
    assert_eq!(stats.get_usize("connections"), Some(1));
    assert!(stats.get("executors").unwrap().as_array().is_some());
    server.shutdown();
}
