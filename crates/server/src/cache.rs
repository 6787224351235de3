//! The deterministic result cache: rendered answers keyed by the exact
//! replay identity, evicted LRU under a byte budget.
//!
//! An entry is a [`RenderedAnswer`]: the answer's result rendered once, on
//! the executor that computed it, as the compact JSON fragment every report
//! splices in.  A hit is therefore a copy of those bytes (taken outside the
//! cache lock — the fragment is shared, so a lookup only clones a handle),
//! never a second render.
//!
//! ## Cache-key definition
//!
//! Replay determinism (one seed draw per plan, thread-count-invariant world
//! streams) means a query's answer is a pure function of:
//!
//! * the **graph fingerprint**
//!   ([`UncertainGraph::fingerprint`](uncertain_graph::UncertainGraph::fingerprint)): vertex
//!   count, edge endpoints and the exact probability bits;
//! * the plan's **seed**, **worlds**, **threads**, **shards**, **mode** and
//!   rendered **precision** block (threads and mode are part of the key
//!   because float-valued observers merge partials in worker order — their
//!   answers are deterministic *per* thread count, not across counts;
//!   `shards` never changes an answer and only keeps its slot in the key
//!   while plans still carry the field);
//! * the canonical rendering of the **`QuerySpec`** itself;
//! * for **adaptive** plans only: a hash of the whole query mix.  The
//!   stopping rule pools the tracked statistics of *every* query in the
//!   plan's batch, so `worlds_used` — and with it every answer — depends on
//!   the mix; a fixed-budget answer depends only on its own spec, which is
//!   what makes cross-plan reuse sound there.
//!
//! Two lookups with equal keys therefore return bit-identical answers, and
//! a cache hit is indistinguishable from a fresh run — asserted end-to-end
//! by the loopback integration suite.

use std::collections::HashMap;

use ugs_service::{QueryPlan, RenderedAnswer};

/// FNV-1a over a byte string (the same construction as
/// [`UncertainGraph::fingerprint`](uncertain_graph::UncertainGraph::fingerprint),
/// here for key-sized inputs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds the cache key of query `index` of `plan` against the graph with
/// the given fingerprint; see the [module docs](self) for why each
/// component is present.
pub(crate) fn query_key(fingerprint: u64, plan: &QueryPlan, index: usize) -> String {
    let precision = plan
        .precision
        .as_ref()
        .map(|p| ugs_service::precision_to_json(p).render())
        .unwrap_or_default();
    // Adaptive plans stop as a function of the whole tracked mix: qualify
    // the key with the rendered query list so only an identical mix hits.
    let mix = if plan.precision.is_some() {
        let mut rendered = String::new();
        for spec in &plan.queries {
            rendered.push_str(&spec.to_json().render());
            rendered.push('\n');
        }
        format!("|mix:{:016x}", fnv1a(rendered.as_bytes()))
    } else {
        String::new()
    };
    format!(
        "{fingerprint:016x}|s{seed}|w{worlds}|t{threads}|sh{shards}|{mode}|{precision}{mix}|{spec}",
        seed = plan.seed,
        worlds = plan.worlds,
        threads = plan.threads,
        shards = plan.shards,
        mode = ugs_service::mode_name(plan.mode),
        spec = plan.queries[index].to_json().render(),
    )
}

/// Counters the `stats` op reports for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Estimated bytes held by live entries.
    pub bytes: usize,
}

struct Entry {
    answer: RenderedAnswer,
    bytes: usize,
    last_used: u64,
}

/// An LRU result cache with a byte budget; `capacity_bytes = 0` disables
/// caching (every lookup misses, every insert is dropped).
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<String, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity_bytes` of estimated entry
    /// bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            capacity: capacity_bytes,
            entries: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks up a key, bumping its recency on a hit.  The answer comes back
    /// cloned — a handle to the immutable rendered fragment, so the clone is
    /// O(1) and bit-identical to what the original execution produced.
    pub fn lookup(&mut self, key: &str) -> Option<RenderedAnswer> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.answer.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The bytes an entry is charged: key, rendered result and a fixed
    /// per-entry overhead.
    pub(crate) fn entry_bytes(key: &str, answer: &RenderedAnswer) -> usize {
        key.len() + answer.result().len() + 64
    }

    /// Inserts an answer, evicting least-recently-used entries until the
    /// byte budget holds.  An answer larger than the whole budget is
    /// silently skipped (typed stats still count the insertion attempt as
    /// an eviction of itself, keeping `bytes <= capacity` an invariant).
    pub fn insert(&mut self, key: String, answer: RenderedAnswer) {
        let bytes = Self::entry_bytes(&key, &answer);
        if bytes > self.capacity {
            self.evictions += 1;
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.capacity {
            // O(n) LRU scan: the cache holds at most a few thousand entries
            // under realistic budgets, and eviction is off the hot path.
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        self.bytes += bytes;
        self.insertions += 1;
        self.entries.insert(
            key,
            Entry {
                answer,
                bytes,
                last_used: self.tick,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugs_service::{QueryAnswer, QueryResult};

    fn answer(tag: f64) -> RenderedAnswer {
        QueryAnswer {
            result: QueryResult::EdgeFrequency(vec![tag]),
            worlds_used: 10,
            half_width: None,
        }
        .render()
    }

    #[test]
    fn lookups_hit_after_insert_and_clone_bit_identically() {
        let mut cache = ResultCache::new(4096);
        assert_eq!(cache.lookup("k"), None);
        cache.insert("k".to_string(), answer(0.25));
        let hit = cache.lookup("k").unwrap();
        assert_eq!(hit, answer(0.25));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn the_byte_budget_evicts_least_recently_used_first() {
        let mut cache = ResultCache::new(400);
        cache.insert("a".to_string(), answer(0.1));
        cache.insert("b".to_string(), answer(0.2));
        cache.insert("c".to_string(), answer(0.3));
        // Touch "a" so "b" is the LRU victim when "d" overflows the budget.
        assert!(cache.lookup("a").is_some());
        cache.insert("d".to_string(), answer(0.4));
        assert!(cache.stats().bytes <= 400);
        assert!(cache.lookup("a").is_some(), "recently used survives");
        assert_eq!(cache.lookup("b"), None, "LRU entry evicted");
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn entries_are_charged_key_plus_rendered_answer_plus_overhead() {
        let entry = answer(0.25);
        let rendered = QueryResult::EdgeFrequency(vec![0.25]).to_json().render();
        assert_eq!(
            ResultCache::entry_bytes("key", &entry),
            3 + rendered.len() + 64
        );
        let mut cache = ResultCache::new(4096);
        cache.insert("key".to_string(), entry.clone());
        assert_eq!(cache.stats().bytes, 3 + rendered.len() + 64);
    }

    #[test]
    fn a_zero_budget_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert("k".to_string(), answer(0.5));
        assert_eq!(cache.lookup("k"), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn keys_separate_plans_by_their_replay_identity() {
        let plan = |seed: u64, worlds: usize, precision: bool| {
            let precision = if precision {
                r#", "precision": {"epsilon": 0.05}"#
            } else {
                ""
            };
            QueryPlan::parse_str(&format!(
                r#"{{"worlds": {worlds}, "seed": {seed}{precision},
                    "queries": [{{"type": "connectivity"}}, {{"type": "edge_frequency"}}]}}"#
            ))
            .unwrap()
        };
        let base = query_key(1, &plan(7, 100, false), 0);
        assert_eq!(base, query_key(1, &plan(7, 100, false), 0), "stable");
        assert_ne!(base, query_key(2, &plan(7, 100, false), 0), "fingerprint");
        assert_ne!(base, query_key(1, &plan(8, 100, false), 0), "seed");
        assert_ne!(base, query_key(1, &plan(7, 101, false), 0), "worlds");
        assert_ne!(base, query_key(1, &plan(7, 100, false), 1), "spec");
        assert_ne!(base, query_key(1, &plan(7, 100, true), 0), "precision");

        // Fixed-budget keys ignore the rest of the mix (cross-plan reuse)…
        let solo = QueryPlan::parse_str(
            r#"{"worlds": 100, "seed": 7, "queries": [{"type": "connectivity"}]}"#,
        )
        .unwrap();
        assert_eq!(base, query_key(1, &solo, 0));
        // …adaptive keys do not: the stopping rule pools over the mix.
        let solo_adaptive = QueryPlan::parse_str(
            r#"{"worlds": 100, "seed": 7, "precision": {"epsilon": 0.05},
                "queries": [{"type": "connectivity"}]}"#,
        )
        .unwrap();
        assert_ne!(
            query_key(1, &plan(7, 100, true), 0),
            query_key(1, &solo_adaptive, 0)
        );
    }
}
