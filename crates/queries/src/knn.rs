//! k-nearest-neighbour queries in uncertain graphs.
//!
//! The paper's `SP` workload is based on Potamias et al.'s work on k-NN in
//! uncertain graphs (its reference \[32\]): for a query vertex, return the `k`
//! vertices with the smallest *expected* shortest-path distance (conditioned
//! on connectivity), or — in the "majority-distance" variant — with the
//! highest probability of being within a given number of hops.  Both
//! variants are implemented here on top of the shared Monte-Carlo driver, so
//! the sparsified graphs produced by `ugs-core` can serve k-NN workloads
//! directly.

//! The query is a [`crate::batch::WorldObserver`] ([`KnnObserver`]) so it
//! can share sampled worlds with other queries in a [`QueryBatch`];
//! [`k_nearest_neighbors`] is the single-observer wrapper keeping the
//! original signature (bit-identical sequentially, one caller-RNG draw).

use rand::Rng;
use uncertain_graph::UncertainGraph;

use crate::batch::{QueryBatch, WorldObserver};
use crate::engine::WorldScratch;
use crate::mc::MonteCarlo;
use graph_algos::traversal::bfs_distances;

/// One k-NN result entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The neighbour vertex.
    pub vertex: usize,
    /// Expected hop distance over the worlds in which the vertex is
    /// reachable from the query vertex.
    pub expected_distance: f64,
    /// Fraction of worlds in which the vertex is reachable.
    pub reachability: f64,
}

/// Observer accumulating reachability and hop distances from a fixed source
/// vertex; finalises to the `k` nearest neighbours.
#[derive(Debug, Clone)]
pub struct KnnObserver {
    n: usize,
    source: usize,
    k: usize,
    /// Layout: [0, n) = Σ distance when reachable, [n, 2n) = # reachable.
    totals: Vec<f64>,
}

impl KnnObserver {
    /// An observer for the `k` nearest neighbours of `source` in `g`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of `g`.
    pub fn new(g: &UncertainGraph, source: usize, k: usize) -> Self {
        let n = g.num_vertices();
        assert!(source < n, "source vertex out of range");
        KnnObserver {
            n,
            source,
            k,
            totals: vec![0.0; 2 * n],
        }
    }

    /// The query source vertex.
    pub fn source(&self) -> usize {
        self.source
    }
}

impl WorldObserver for KnnObserver {
    type Output = Vec<Neighbor>;

    fn observe(&mut self, scratch: &WorldScratch) {
        let world = scratch.world();
        let dist = bfs_distances(world, self.source);
        let (distance_acc, reach_acc) = self.totals.split_at_mut(self.n);
        for (v, &d) in dist.iter().enumerate() {
            if v != self.source && d != usize::MAX {
                distance_acc[v] += d as f64;
                reach_acc[v] += 1.0;
            }
        }
    }

    fn partial(&self) -> &[f64] {
        &self.totals
    }

    fn partial_mut(&mut self) -> &mut [f64] {
        &mut self.totals
    }

    fn finalize(self, num_worlds: usize) -> Vec<Neighbor> {
        if self.k == 0 || num_worlds == 0 {
            return Vec::new();
        }
        let n = self.n;
        let mut neighbors: Vec<Neighbor> = (0..n)
            .filter(|&v| v != self.source && self.totals[n + v] > 0.0)
            .map(|v| Neighbor {
                vertex: v,
                expected_distance: self.totals[v] / self.totals[n + v],
                reachability: self.totals[n + v] / num_worlds as f64,
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
        neighbors.truncate(self.k);
        neighbors
    }
}

/// Monte-Carlo k-nearest-neighbour query: the `k` vertices with the smallest
/// expected hop distance from `source`, breaking ties by higher
/// reachability.  Vertices never reached within the sampled worlds are
/// excluded; fewer than `k` entries may therefore be returned on sparse or
/// unreliable graphs.
pub fn k_nearest_neighbors<R: Rng + ?Sized>(
    g: &UncertainGraph,
    source: usize,
    k: usize,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<Neighbor> {
    let n = g.num_vertices();
    assert!(source < n, "source vertex out of range");
    if k == 0 || mc.num_worlds == 0 {
        return Vec::new();
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(KnnObserver::new(g, source, k));
    batch.run(rng).take(handle)
}

/// The fraction of the top-`k` sets that two k-NN answers share — used to
/// compare k-NN answers on an original and a sparsified graph.
pub fn knn_overlap(a: &[Neighbor], b: &[Neighbor]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let set_a: std::collections::HashSet<usize> = a.iter().map(|n| n.vertex).collect();
    let common = b.iter().filter(|n| set_a.contains(&n.vertex)).count();
    common as f64 / a.len().max(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn path_graph() -> UncertainGraph {
        UncertainGraph::from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]).unwrap()
    }

    #[test]
    fn deterministic_path_ranks_by_hop_distance() {
        let g = path_graph();
        let mc = MonteCarlo::worlds(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let knn = k_nearest_neighbors(&g, 0, 3, &mc, &mut rng);
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].vertex, 1);
        assert_eq!(knn[1].vertex, 2);
        assert_eq!(knn[2].vertex, 3);
        assert_eq!(knn[0].expected_distance, 1.0);
        assert_eq!(knn[2].expected_distance, 3.0);
        assert!(knn.iter().all(|n| n.reachability == 1.0));
    }

    #[test]
    fn unreliable_far_vertices_are_excluded_or_ranked_lower() {
        // Vertex 2 is close but unreliable; vertex 3 unreachable entirely.
        let g = UncertainGraph::from_edges(4, [(0, 1, 1.0), (0, 2, 0.05)]).unwrap();
        let mc = MonteCarlo::worlds(2_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let knn = k_nearest_neighbors(&g, 0, 4, &mc, &mut rng);
        assert_eq!(knn[0].vertex, 1);
        assert!(
            knn.iter().all(|n| n.vertex != 3),
            "unreachable vertex must not appear"
        );
        let v2 = knn
            .iter()
            .find(|n| n.vertex == 2)
            .expect("vertex 2 occasionally reachable");
        assert!((v2.reachability - 0.05).abs() < 0.02);
    }

    #[test]
    fn ties_break_by_reachability_then_id() {
        // Both 1 and 2 are at distance 1, but the edge to 2 is less likely.
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.9), (0, 2, 0.3)]).unwrap();
        let mc = MonteCarlo::worlds(4_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let knn = k_nearest_neighbors(&g, 0, 2, &mc, &mut rng);
        assert_eq!(knn[0].vertex, 1);
        assert_eq!(knn[1].vertex, 2);
    }

    #[test]
    fn overlap_measures_agreement() {
        let a = vec![
            Neighbor {
                vertex: 1,
                expected_distance: 1.0,
                reachability: 1.0,
            },
            Neighbor {
                vertex: 2,
                expected_distance: 2.0,
                reachability: 1.0,
            },
        ];
        let b = vec![
            Neighbor {
                vertex: 2,
                expected_distance: 1.5,
                reachability: 0.9,
            },
            Neighbor {
                vertex: 3,
                expected_distance: 2.5,
                reachability: 0.8,
            },
        ];
        assert!((knn_overlap(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(knn_overlap(&a, &a), 1.0);
        assert_eq!(knn_overlap(&a, &[]), 0.0);
    }

    #[test]
    fn zero_k_or_zero_worlds_return_empty() {
        let g = path_graph();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(k_nearest_neighbors(&g, 0, 0, &MonteCarlo::worlds(10), &mut rng).is_empty());
        assert!(k_nearest_neighbors(&g, 0, 3, &MonteCarlo::worlds(0), &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "source vertex out of range")]
    fn out_of_range_source_panics() {
        let g = path_graph();
        let mut rng = SmallRng::seed_from_u64(5);
        k_nearest_neighbors(&g, 99, 2, &MonteCarlo::worlds(5), &mut rng);
    }
}
