//! Parity suite: every query ported onto the batch driver must be
//! **bit-identical** to the legacy standalone path for sequential runs on
//! the same seed, in both Skip and PerEdge sampling modes.
//!
//! The legacy path is reconstructed here on the sequential pre-batch loop
//! ([`accumulate`]) with the exact pre-batch kernels and post-processing
//! (this is what the query functions compiled to before the port), so any
//! drift in the batch driver's RNG consumption, accumulation order or
//! finalisation arithmetic fails these tests exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::UncertainGraph;

use graph_algos::clustering::local_clustering_coefficients;
use graph_algos::pagerank::{pagerank, PageRankConfig};
use graph_algos::traversal::{bfs_distances, connected_components};
use graph_algos::DeterministicGraph;
use ugs_queries::prelude::*;

const SEEDS: [u64; 3] = [1, 0xDEAD_BEEF, 9_999_999_999];
const MODES: [SampleMethod; 2] = [SampleMethod::Skip, SampleMethod::PerEdge];

fn fixture() -> UncertainGraph {
    // Mixed probability regime: plateaus for the skip sampler's exact fast
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

// ---------------------------------------------------------------------------
// Legacy reconstructions (the exact pre-batch implementations).
// ---------------------------------------------------------------------------

/// The pre-batch world loop, sequential: one caller draw seeds a
/// `SmallRng`, and each world's kernel output is zeroed, filled and added
/// to the totals.
fn accumulate<R, F>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    len: usize,
    rng: &mut R,
    per_world: F,
) -> Vec<f64>
where
    R: Rng + ?Sized,
    F: Fn(&DeterministicGraph, &mut [f64]),
{
    assert_eq!(mc.threads, 1, "the pre-batch loop is sequential");
    let mut total = vec![0.0; len];
    if mc.num_worlds == 0 {
        return total;
    }
    let engine = WorldEngine::new(g).with_method(mc.method);
    let mut scratch = engine.make_scratch();
    let mut rng = SmallRng::seed_from_u64(rng.gen::<u64>());
    let mut local = vec![0.0; len];
    for _ in 0..mc.num_worlds {
        let world = engine.sample_world(&mut rng, &mut scratch);
        local.fill(0.0);
        per_world(world, &mut local);
        for (t, x) in total.iter_mut().zip(&local) {
            *t += x;
        }
    }
    total
}

fn legacy_expected_pagerank<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    if mc.num_worlds == 0 || n == 0 {
        return vec![0.0; n];
    }
    let config = PageRankConfig::default();
    let totals = accumulate(g, mc, n, rng, |world, acc| {
        let pr = pagerank(world, &config);
        for (a, p) in acc.iter_mut().zip(pr.iter()) {
            *a += p;
        }
    });
    totals
        .into_iter()
        .map(|x| x / mc.num_worlds as f64)
        .collect()
}

fn legacy_expected_clustering<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    let totals = accumulate(g, mc, n, rng, |world, acc| {
        let cc = local_clustering_coefficients(world);
        for (a, c) in acc.iter_mut().zip(cc.iter()) {
            *a += c;
        }
    });
    totals
        .into_iter()
        .map(|x| x / mc.num_worlds as f64)
        .collect()
}

fn legacy_pair_queries<R: Rng + ?Sized>(
    g: &UncertainGraph,
    pairs: &[(usize, usize)],
    mc: &MonteCarlo,
    rng: &mut R,
) -> PairQueryResult {
    let num_pairs = pairs.len();
    let mut by_source: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (idx, &(u, _)) in pairs.iter().enumerate() {
        by_source.entry(u).or_default().push(idx);
    }
    let sources: Vec<(usize, Vec<usize>)> = {
        let mut s: Vec<_> = by_source.into_iter().collect();
        s.sort_by_key(|&(src, _)| src);
        s
    };
    let totals = accumulate(g, mc, 2 * num_pairs, rng, |world, acc| {
        let (labels, _) = connected_components(world);
        let (distance_acc, connected_acc) = acc.split_at_mut(num_pairs);
        for (source, pair_indices) in &sources {
            let any_connected = pair_indices
                .iter()
                .any(|&idx| labels[pairs[idx].0] == labels[pairs[idx].1]);
            if !any_connected {
                continue;
            }
            let dist = bfs_distances(world, *source);
            for &idx in pair_indices {
                let (u, v) = pairs[idx];
                if labels[u] == labels[v] {
                    connected_acc[idx] += 1.0;
                    distance_acc[idx] += dist[v] as f64;
                }
            }
        }
    });
    let mut mean_distance = Vec::with_capacity(num_pairs);
    let mut reliability = Vec::with_capacity(num_pairs);
    let mut connected_worlds = Vec::with_capacity(num_pairs);
    for idx in 0..num_pairs {
        let connected = totals[num_pairs + idx];
        connected_worlds.push(connected as usize);
        reliability.push(connected / mc.num_worlds as f64);
        if connected > 0.0 {
            mean_distance.push(totals[idx] / connected);
        } else {
            mean_distance.push(f64::NAN);
        }
    }
    PairQueryResult {
        pairs: pairs.to_vec(),
        mean_distance,
        reliability,
        connected_worlds,
        num_worlds: mc.num_worlds,
    }
}

fn legacy_connectivity<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> ConnectivityEstimate {
    let n = g.num_vertices();
    let totals = accumulate(g, mc, 4, rng, |world, acc| {
        let (labels, count) = connected_components(world);
        let mut sizes = vec![0usize; count];
        for &label in &labels {
            sizes[label] += 1;
        }
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let isolated = (0..world.num_vertices())
            .filter(|&u| world.degree(u) == 0)
            .count();
        acc[0] += count as f64;
        acc[1] += largest as f64;
        acc[2] += f64::from(count == 1);
        acc[3] += isolated as f64 / n as f64;
    });
    let w = mc.num_worlds as f64;
    ConnectivityEstimate {
        expected_components: totals[0] / w,
        expected_largest_component: totals[1] / w,
        probability_connected: totals[2] / w,
        expected_isolated_fraction: totals[3] / w,
        num_worlds: mc.num_worlds,
    }
}

fn legacy_degree_histogram<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    let max_degree = (0..n).map(|u| g.degree(u)).max().unwrap_or(0);
    let totals = accumulate(g, mc, max_degree + 1, rng, |world, acc| {
        for u in 0..world.num_vertices() {
            acc[world.degree(u)] += 1.0;
        }
    });
    let mut histogram: Vec<f64> = totals
        .into_iter()
        .map(|x| x / mc.num_worlds as f64)
        .collect();
    while histogram.len() > 1 && histogram.last() == Some(&0.0) {
        histogram.pop();
    }
    histogram
}

fn legacy_knn<R: Rng + ?Sized>(
    g: &UncertainGraph,
    source: usize,
    k: usize,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<Neighbor> {
    let n = g.num_vertices();
    let totals = accumulate(g, mc, 2 * n, rng, |world, acc| {
        let dist = bfs_distances(world, source);
        let (distance_acc, reach_acc) = acc.split_at_mut(n);
        for (v, &d) in dist.iter().enumerate() {
            if v != source && d != usize::MAX {
                distance_acc[v] += d as f64;
                reach_acc[v] += 1.0;
            }
        }
    });
    let mut neighbors: Vec<Neighbor> = (0..n)
        .filter(|&v| v != source && totals[n + v] > 0.0)
        .map(|v| Neighbor {
            vertex: v,
            expected_distance: totals[v] / totals[n + v],
            reachability: totals[n + v] / mc.num_worlds as f64,
        })
        .collect();
    neighbors.sort_by(|a, b| {
        a.expected_distance
            .partial_cmp(&b.expected_distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                b.reachability
                    .partial_cmp(&a.reachability)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.vertex.cmp(&b.vertex))
    });
    neighbors.truncate(k);
    neighbors
}

// ---------------------------------------------------------------------------
// Bit-identity assertions (sequential, both modes, several seeds).
// ---------------------------------------------------------------------------

fn sequential(mode: SampleMethod) -> MonteCarlo {
    MonteCarlo::worlds(400).with_method(mode)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ bitwise"
        );
    }
}

#[test]
fn expected_pagerank_is_bit_identical_to_the_legacy_path() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = expected_pagerank(&g, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_expected_pagerank(&g, &mc, &mut rng_old);
            assert_bits_eq(&new, &old, &format!("pagerank {mode:?} seed {seed}"));
            // Both paths consumed exactly one u64 draw from the caller RNG.
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
        }
    }
}

#[test]
fn expected_clustering_is_bit_identical_to_the_legacy_path() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = expected_clustering_coefficients(&g, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_expected_clustering(&g, &mc, &mut rng_old);
            assert_bits_eq(&new, &old, &format!("clustering {mode:?} seed {seed}"));
        }
    }
}

#[test]
fn pair_queries_are_bit_identical_to_the_legacy_path() {
    let g = fixture();
    let pairs = [(0, 4), (0, 9), (3, 8), (5, 1), (2, 2)];
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = pair_queries(&g, &pairs, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_pair_queries(&g, &pairs, &mc, &mut rng_old);
            let what = format!("pairs {mode:?} seed {seed}");
            assert_eq!(new.pairs, old.pairs, "{what}");
            assert_eq!(new.connected_worlds, old.connected_worlds, "{what}");
            assert_eq!(new.num_worlds, old.num_worlds, "{what}");
            assert_bits_eq(&new.reliability, &old.reliability, &what);
            // NaN-aware bitwise comparison for the mean distances.
            for (x, y) in new.mean_distance.iter().zip(old.mean_distance.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn connectivity_query_is_bit_identical_to_the_legacy_path() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = connectivity_query(&g, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_connectivity(&g, &mc, &mut rng_old);
            let what = format!("connectivity {mode:?} seed {seed}");
            assert_bits_eq(
                &[
                    new.expected_components,
                    new.expected_largest_component,
                    new.probability_connected,
                    new.expected_isolated_fraction,
                ],
                &[
                    old.expected_components,
                    old.expected_largest_component,
                    old.probability_connected,
                    old.expected_isolated_fraction,
                ],
                &what,
            );
            assert_eq!(new.num_worlds, old.num_worlds, "{what}");
        }
    }
}

#[test]
fn degree_histogram_is_bit_identical_to_the_legacy_path() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = ugs_queries::expected_degree_histogram(&g, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_degree_histogram(&g, &mc, &mut rng_old);
            assert_bits_eq(&new, &old, &format!("histogram {mode:?} seed {seed}"));
        }
    }
}

#[test]
fn knn_is_bit_identical_to_the_legacy_path() {
    let g = fixture();
    for mode in MODES {
        for seed in SEEDS {
            let mc = sequential(mode);
            let mut rng_new = SmallRng::seed_from_u64(seed);
            let new = k_nearest_neighbors(&g, 0, 5, &mc, &mut rng_new);
            let mut rng_old = SmallRng::seed_from_u64(seed);
            let old = legacy_knn(&g, 0, 5, &mc, &mut rng_old);
            let what = format!("knn {mode:?} seed {seed}");
            assert_eq!(new.len(), old.len(), "{what}");
            for (a, b) in new.iter().zip(old.iter()) {
                assert_eq!(a.vertex, b.vertex, "{what}");
                assert_eq!(
                    a.expected_distance.to_bits(),
                    b.expected_distance.to_bits(),
                    "{what}"
                );
                assert_eq!(a.reachability.to_bits(), b.reachability.to_bits(), "{what}");
            }
        }
    }
}

#[test]
fn auto_mode_matches_its_resolved_mode_bit_for_bit() {
    // Auto must be a pure dispatch: identical to whichever concrete mode it
    // resolves to (Skip here: the fixture's mean probability is ~0.45).
    let g = fixture();
    let mut rng_auto = SmallRng::seed_from_u64(77);
    let auto = expected_pagerank(&g, &sequential(SampleMethod::Auto), &mut rng_auto);
    let mut rng_skip = SmallRng::seed_from_u64(77);
    let skip = expected_pagerank(&g, &sequential(SampleMethod::Skip), &mut rng_skip);
    assert_bits_eq(&auto, &skip, "auto vs skip");
}
