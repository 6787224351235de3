//! Property-based tests of the core invariants: sparsifier contracts,
//! data-structure invariants, metric properties and — new with the world
//! engine — sampling-path equivalence hold for arbitrary random inputs, not
//! just the hand-picked fixtures of the unit tests.
//!
//! The workspace builds offline, so instead of `proptest` this file uses a
//! small deterministic harness: every property runs over `CASES` seeds, each
//! seed derives all inputs for one case from its own `SmallRng` stream, and
//! failures report the offending case number so they can be replayed.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use ugs::prelude::*;

/// Number of random cases per property (proptest used 48 before).
const CASES: u64 = 48;

/// Runs `property` over `CASES` deterministic cases, labelling failures.
fn for_each_case(name: &str, mut property: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0000 ^ (case.wrapping_mul(0x9E37_79B9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".to_string());
            panic!("property {name:?} failed on case {case}: {message}");
        }
    }
}

/// A random connected uncertain graph with `n ∈ [4, 24)` vertices, a
/// spanning ring plus extra random edges and probabilities in (0, 1].
fn random_graph(rng: &mut SmallRng) -> UncertainGraph {
    let n = rng.gen_range(4usize..24);
    let extra = rng.gen_range(0usize..40);
    let mut b = UncertainGraphBuilder::new(n);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, rng.gen_range(0.05..=1.0))
            .unwrap();
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = b.add_edge_if_absent(u, v, rng.gen_range(0.05..=1.0));
        }
    }
    b.build()
}

/// |E'| = round(α|E|), the vertex set is preserved, every probability is in
/// (0, 1], every kept edge exists in the original graph — for every method.
#[test]
fn sparsifier_contract_holds() {
    for_each_case("sparsifier_contract_holds", |rng| {
        let g = random_graph(rng);
        let alpha = rng.gen_range(0.2f64..0.9);
        let method = rng.gen_range(0usize..4);
        let sparsifier: Box<dyn Sparsifier> = match method {
            0 => Box::new(SparsifierSpec::gdb().alpha(alpha)),
            1 => Box::new(SparsifierSpec::emd().alpha(alpha)),
            2 => Box::new(NagamochiIbaraki::new(alpha)),
            _ => Box::new(SpannerSparsifier::new(alpha)),
        };
        let out = sparsifier.sparsify_dyn(&g, rng).unwrap();
        let target = (alpha * g.num_edges() as f64).round() as usize;
        assert_eq!(out.graph.num_edges(), target.min(g.num_edges()));
        assert_eq!(out.graph.num_vertices(), g.num_vertices());
        for e in out.graph.edges() {
            assert!(e.p > 0.0 && e.p <= 1.0);
            assert!(g.has_edge(e.u, e.v));
        }
    });
}

/// GDB with h = 1 and the degree rule never produces a worse Δ1 than the raw
/// backbone it started from, and keeps probabilities valid (Lemma 1's
/// direction).
#[test]
fn gdb_improves_on_the_raw_backbone() {
    for_each_case("gdb_improves_on_the_raw_backbone", |rng| {
        let g = random_graph(rng);
        let alpha = rng.gen_range(0.3f64..0.9);
        let backbone = build_backbone(&g, alpha, &BackboneConfig::spanning(), rng).unwrap();
        let config = GdbConfig {
            entropy_h: 1.0,
            ..Default::default()
        };
        let result = ugs::sparsify::gdb::gradient_descent_assign(&g, &backbone, &config).unwrap();
        assert!(result.final_objective() <= result.objective_trace[0] + 1e-9);
        for &(_, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
    });
}

/// The spanning backbone of Algorithm 1 is connected whenever α allows a
/// spanning tree.
#[test]
fn spanning_backbone_is_connected() {
    for_each_case("spanning_backbone_is_connected", |rng| {
        let g = random_graph(rng);
        let n = g.num_vertices() as f64;
        let m = g.num_edges() as f64;
        // pick α large enough for a spanning tree to fit
        let alpha = ((n / m) + 0.3).min(0.95);
        let backbone = build_backbone(&g, alpha, &BackboneConfig::spanning(), rng).unwrap();
        assert!(ugs::sparsify::backbone::edges_span_connected(&g, &backbone));
    });
}

/// Entropy invariants: H(G) ≥ 0, the relative entropy of a sparsified graph
/// produced with h = 0 never exceeds 1, and dropping edges without touching
/// probabilities always lowers entropy.
#[test]
fn entropy_invariants() {
    for_each_case("entropy_invariants", |rng| {
        let g = random_graph(rng);
        assert!(g.entropy() >= 0.0);
        let out = SparsifierSpec::gdb()
            .alpha(0.5)
            .entropy_h(0.0)
            .sparsify(&g, rng)
            .unwrap();
        assert!(out.diagnostics.relative_entropy() <= 1.0 + 1e-9);
        // plain subgraph (SS-style, original probabilities) also reduces entropy
        let keep: Vec<usize> = (0..g.num_edges()).step_by(2).collect();
        let sub = g.subgraph_with_edges(keep).unwrap();
        assert!(sub.entropy() <= g.entropy() + 1e-9);
    });
}

/// The earth mover's distance is a metric-like quantity: non-negative,
/// symmetric, zero for identical samples and shift-equivariant.
#[test]
fn earth_movers_distance_properties() {
    for_each_case("earth_movers_distance_properties", |rng| {
        let len_a = rng.gen_range(1usize..60);
        let len_b = rng.gen_range(1usize..60);
        let a: Vec<f64> = (0..len_a).map(|_| rng.gen_range(0.0f64..100.0)).collect();
        let b: Vec<f64> = (0..len_b).map(|_| rng.gen_range(0.0f64..100.0)).collect();
        let shift = rng.gen_range(0.0f64..10.0);
        let d_ab = earth_movers_distance(&a, &b);
        let d_ba = earth_movers_distance(&b, &a);
        assert!(d_ab >= 0.0);
        assert!((d_ab - d_ba).abs() < 1e-9);
        assert!(earth_movers_distance(&a, &a) < 1e-12);
        let shifted: Vec<f64> = a.iter().map(|x| x + shift).collect();
        assert!((earth_movers_distance(&a, &shifted) - shift).abs() < 1e-9);
    });
}

/// Union-find maintains the number of connected components of the edges
/// merged so far.
#[test]
fn union_find_component_count() {
    for_each_case("union_find_component_count", |rng| {
        let n = rng.gen_range(2usize..40);
        let num_edges = rng.gen_range(0usize..80);
        let edges: Vec<(usize, usize)> = (0..num_edges)
            .map(|_| (rng.gen_range(0..40), rng.gen_range(0..40)))
            .collect();
        let mut uf = UnionFind::new(n);
        let mut adjacency = vec![vec![]; n];
        for &(u, v) in edges.iter().filter(|(u, v)| u < &n && v < &n && u != v) {
            uf.union(u, v);
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        // brute-force component count
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for &v in &adjacency[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        assert_eq!(uf.num_sets(), components);
    });
}

/// The addressable max-heap's `peek` is the argmax of its priorities (ties
/// to the smaller key) after every update, whatever the interleaving of
/// updates.
#[test]
fn flat_heap_peek_is_the_argmax() {
    for_each_case("flat_heap_peek_is_the_argmax", |rng| {
        let len = rng.gen_range(1usize..120);
        // Small integers make ties between keys common.
        let value = |rng: &mut SmallRng| -> f64 {
            if rng.gen::<f64>() < 0.3 {
                f64::from(rng.gen_range(-3i32..3))
            } else {
                rng.gen_range(-1e6f64..1e6)
            }
        };
        let argmax = |priorities: &[f64]| {
            let mut best = 0;
            for (key, &p) in priorities.iter().enumerate() {
                if p > priorities[best] {
                    best = key;
                }
            }
            Some((best, priorities[best]))
        };
        let mut priorities: Vec<f64> = (0..len).map(|_| value(rng)).collect();
        let mut heap = FlatMaxHeap::new();
        heap.rebuild(len, |key| priorities[key]);
        assert_eq!(heap.peek(), argmax(&priorities));
        for _ in 0..rng.gen_range(0usize..60) {
            let key = rng.gen_range(0..len);
            priorities[key] = value(rng);
            heap.update(key, priorities[key]);
            assert_eq!(heap.peek(), argmax(&priorities));
        }
    });
}

/// Possible-world probabilities are a distribution: a sampled world's
/// probability is positive and exact enumeration of small graphs sums to one.
#[test]
fn world_probabilities_form_a_distribution() {
    for_each_case("world_probabilities_form_a_distribution", |rng| {
        let g = random_graph(rng);
        let world = WorldSampler::new().sample(&g, rng);
        assert!(world.probability(&g) >= 0.0);
        assert_eq!(world.len(), g.num_edges());
        if g.num_edges() <= 12 {
            let mut total = 0.0;
            ugs::graph::worlds::enumerate_worlds(&g, |_, pr| total += pr).unwrap();
            assert!((total - 1.0).abs() < 1e-9);
        }
    });
}

/// The skip-sampling engine is equivalent to the legacy per-edge Bernoulli
/// path: over many worlds of a random graph, per-edge presence frequencies
/// agree with the edge probabilities (and hence with each other) within
/// binomial tolerance.
#[test]
fn skip_sampling_matches_per_edge_frequencies() {
    for_each_case("skip_sampling_matches_per_edge_frequencies", |rng| {
        let g = random_graph(rng);
        let worlds = 4_000usize;
        let tolerance = 4.0 * (0.25f64 / worlds as f64).sqrt(); // 4σ of a Bernoulli mean
        let count_frequencies = |method: SampleMethod, rng: &mut SmallRng| -> Vec<f64> {
            let engine = WorldEngine::new(&g).with_method(method);
            let mut scratch = engine.make_scratch();
            let mut hits = vec![0usize; g.num_edges()];
            for _ in 0..worlds {
                engine.sample_world(rng, &mut scratch);
                for &e in scratch.present_edges() {
                    hits[e as usize] += 1;
                }
            }
            hits.into_iter().map(|h| h as f64 / worlds as f64).collect()
        };
        let skip = count_frequencies(SampleMethod::Skip, rng);
        let per_edge = count_frequencies(SampleMethod::PerEdge, rng);
        for e in 0..g.num_edges() {
            let p = g.edge_probability(e);
            assert!(
                (skip[e] - p).abs() < tolerance,
                "skip frequency {} vs probability {p} on edge {e}",
                skip[e]
            );
            assert!(
                (per_edge[e] - p).abs() < tolerance,
                "per-edge frequency {} vs probability {p} on edge {e}",
                per_edge[e]
            );
        }
    });
}

/// The engine's per-edge path draws, world by world, the present edges the
/// plain per-edge sampler draws from the same seed, on arbitrary graphs.
#[test]
fn engine_per_edge_worlds_match_the_world_sampler() {
    for_each_case("engine_per_edge_worlds_match_the_world_sampler", |rng| {
        let g = random_graph(rng);
        let seed = rng.gen::<u64>();
        let engine = WorldEngine::new(&g).with_method(SampleMethod::PerEdge);
        let mut scratch = engine.make_scratch();
        let mut engine_rng = SmallRng::seed_from_u64(seed);
        let mut sampler_rng = SmallRng::seed_from_u64(seed);
        for world in 0..64 {
            let edges = engine
                .sample_world(&mut engine_rng, &mut scratch)
                .num_edges();
            let expected = WorldSampler::new().sample(&g, &mut sampler_rng);
            let present: Vec<usize> = scratch
                .present_edges()
                .iter()
                .map(|&e| e as usize)
                .collect();
            assert_eq!(
                present,
                expected.present_edges().collect::<Vec<_>>(),
                "world {world}"
            );
            assert_eq!(edges, expected.num_present(), "world {world}");
        }
    });
}

/// Expected degrees equal the per-vertex sum of incident probabilities and
/// their total equals twice the probability mass.
#[test]
fn expected_degree_identities() {
    for_each_case("expected_degree_identities", |rng| {
        let g = random_graph(rng);
        let degrees = g.expected_degrees();
        let total: f64 = degrees.iter().sum();
        assert!((total - 2.0 * g.expected_num_edges()).abs() < 1e-9);
        for u in g.vertices() {
            assert!((degrees[u] - g.expected_degree(u)).abs() < 1e-9);
        }
    });
}

/// Text serialisation round-trips arbitrary graphs.
#[test]
fn graph_text_io_round_trips() {
    for_each_case("graph_text_io_round_trips", |rng| {
        let g = random_graph(rng);
        let mut buffer = Vec::new();
        ugs::graph::io::write_text(&g, &mut buffer).unwrap();
        let back = ugs::graph::io::read_text(std::io::Cursor::new(buffer)).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        for e in g.edges() {
            let id = back.find_edge(e.u, e.v).unwrap();
            assert!((back.edge_probability(id) - e.p).abs() < 1e-9);
        }
    });
}

// Silence the unused-import lint: `RngCore` is part of the prelude contract
// exercised above via `gen`/`gen_range`.
const _: fn(&mut SmallRng) -> u64 = <SmallRng as RngCore>::next_u64;
