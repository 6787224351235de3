//! Pairwise Monte-Carlo queries: shortest-path distance (`SP`) and
//! reliability (`RL`).
//!
//! * `SP(u, v)` — the average hop distance between `u` and `v` over the
//!   sampled worlds in which the pair is connected (worlds that disconnect
//!   the pair are excluded, exactly as in the paper).
//! * `RL(u, v)` — the fraction of sampled worlds in which `v` is reachable
//!   from `u`.
//!
//! Both are evaluated together: reliability falls out of the per-world
//! connected-components labelling, and distances reuse one BFS per distinct
//! source vertex per world (pairs sharing a source share the BFS).
//!
//! The evaluation is a [`crate::batch::WorldObserver`]
//! ([`PairQueriesObserver`]) so it can share sampled worlds with other
//! queries in a [`QueryBatch`]; [`pair_queries()`] is the single-observer
//! wrapper keeping the original signature (bit-identical sequentially, one
//! caller-RNG draw).

use rand::Rng;
use uncertain_graph::UncertainGraph;

use crate::batch::{QueryBatch, WorldObserver};
use crate::engine::WorldScratch;
use crate::mc::MonteCarlo;
use graph_algos::traversal::{bfs_distances, connected_components};

/// Result of the pairwise queries for a fixed pair list.
#[derive(Debug, Clone, PartialEq)]
pub struct PairQueryResult {
    /// The evaluated pairs, in the order the observations refer to.
    pub pairs: Vec<(usize, usize)>,
    /// `SP`: mean hop distance over the worlds in which the pair was
    /// connected; `f64::NAN` when the pair was never connected.
    pub mean_distance: Vec<f64>,
    /// `RL`: fraction of worlds in which the pair was connected.
    pub reliability: Vec<f64>,
    /// Number of worlds in which each pair was connected.
    pub connected_worlds: Vec<usize>,
    /// Total number of sampled worlds.
    pub num_worlds: usize,
}

impl PairQueryResult {
    /// The `SP` observations with never-connected pairs removed (used when
    /// building empirical distributions).
    pub fn finite_distances(&self) -> Vec<f64> {
        self.mean_distance
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .collect()
    }
}

/// Observer evaluating `SP` and `RL` for a fixed pair list; finalises to a
/// [`PairQueryResult`].
///
/// Pairs are grouped by source vertex at construction so that one BFS per
/// world serves all pairs sharing a source.
#[derive(Debug, Clone)]
pub struct PairQueriesObserver {
    pairs: Vec<(usize, usize)>,
    sources: Vec<(usize, Vec<usize>)>,
    /// Layout: [0, num_pairs) = Σ distances over connected worlds,
    ///         [num_pairs, 2*num_pairs) = # connected worlds.
    totals: Vec<f64>,
}

impl PairQueriesObserver {
    /// An observer for the given `(source, target)` pairs.
    pub fn new(pairs: &[(usize, usize)]) -> Self {
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
        PairQueriesObserver {
            pairs: pairs.to_vec(),
            sources,
            totals: vec![0.0; 2 * pairs.len()],
        }
    }
}

impl WorldObserver for PairQueriesObserver {
    type Output = PairQueryResult;

    fn observe(&mut self, scratch: &WorldScratch) {
        let world = scratch.world();
        let num_pairs = self.pairs.len();
        let (labels, _) = connected_components(world);
        let (distance_acc, connected_acc) = self.totals.split_at_mut(num_pairs);
        for (source, pair_indices) in &self.sources {
            // Check whether any pair from this source is connected in this
            // world before paying for the BFS.
            let any_connected = pair_indices
                .iter()
                .any(|&idx| labels[self.pairs[idx].0] == labels[self.pairs[idx].1]);
            if !any_connected {
                continue;
            }
            let dist = bfs_distances(world, *source);
            for &idx in pair_indices {
                let (u, v) = self.pairs[idx];
                debug_assert_eq!(u, *source);
                if labels[u] == labels[v] {
                    connected_acc[idx] += 1.0;
                    distance_acc[idx] += dist[v] as f64;
                }
            }
        }
    }

    fn partial(&self) -> &[f64] {
        &self.totals
    }

    fn partial_mut(&mut self) -> &mut [f64] {
        &mut self.totals
    }

    fn finalize(self, num_worlds: usize) -> PairQueryResult {
        let num_pairs = self.pairs.len();
        let mut mean_distance = Vec::with_capacity(num_pairs);
        let mut reliability = Vec::with_capacity(num_pairs);
        let mut connected_worlds = Vec::with_capacity(num_pairs);
        for idx in 0..num_pairs {
            let connected = self.totals[num_pairs + idx];
            connected_worlds.push(connected as usize);
            reliability.push(if num_worlds == 0 {
                0.0
            } else {
                connected / num_worlds as f64
            });
            if connected > 0.0 {
                mean_distance.push(self.totals[idx] / connected);
            } else {
                mean_distance.push(f64::NAN);
            }
        }
        PairQueryResult {
            pairs: self.pairs,
            mean_distance,
            reliability,
            connected_worlds,
            num_worlds,
        }
    }
}

/// Evaluates `SP` and `RL` for `pairs` with Monte-Carlo sampling.
pub fn pair_queries<R: Rng + ?Sized>(
    g: &UncertainGraph,
    pairs: &[(usize, usize)],
    mc: &MonteCarlo,
    rng: &mut R,
) -> PairQueryResult {
    let num_pairs = pairs.len();
    if num_pairs == 0 || mc.num_worlds == 0 {
        return PairQueryResult {
            pairs: pairs.to_vec(),
            mean_distance: vec![f64::NAN; num_pairs],
            reliability: vec![0.0; num_pairs],
            connected_worlds: vec![0; num_pairs],
            num_worlds: mc.num_worlds,
        };
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(PairQueriesObserver::new(pairs));
    batch.run(rng).take(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_path_graph_has_exact_distances_and_full_reliability() {
        let g = UncertainGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let pairs = vec![(0, 3), (0, 1), (1, 3)];
        let mc = MonteCarlo::worlds(50);
        let mut rng = SmallRng::seed_from_u64(1);
        let result = pair_queries(&g, &pairs, &mc, &mut rng);
        assert_eq!(result.mean_distance, vec![3.0, 1.0, 2.0]);
        assert_eq!(result.reliability, vec![1.0, 1.0, 1.0]);
        assert_eq!(result.connected_worlds, vec![50, 50, 50]);
    }

    #[test]
    fn reliability_matches_closed_form_for_a_single_edge() {
        let g = UncertainGraph::from_edges(2, [(0, 1, 0.3)]).unwrap();
        let pairs = vec![(0, 1)];
        let mc = MonteCarlo::worlds(30_000);
        let mut rng = SmallRng::seed_from_u64(5);
        let result = pair_queries(&g, &pairs, &mc, &mut rng);
        assert!((result.reliability[0] - 0.3).abs() < 0.01);
        // whenever connected the distance is exactly 1
        assert!((result.mean_distance[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_hop_reliability_matches_product_of_probabilities() {
        // 0 -0.6- 1 -0.5- 2: reliability(0,2) = 0.3, distance always 2.
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.6), (1, 2, 0.5)]).unwrap();
        let pairs = vec![(0, 2)];
        let mc = MonteCarlo::worlds(40_000);
        let mut rng = SmallRng::seed_from_u64(9);
        let result = pair_queries(&g, &pairs, &mc, &mut rng);
        assert!((result.reliability[0] - 0.3).abs() < 0.01);
        assert!((result.mean_distance[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pairs_get_nan_distance_and_zero_reliability() {
        let g = UncertainGraph::from_edges(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        let pairs = vec![(0, 2), (0, 1)];
        let mc = MonteCarlo::worlds(100);
        let mut rng = SmallRng::seed_from_u64(2);
        let result = pair_queries(&g, &pairs, &mc, &mut rng);
        assert!(result.mean_distance[0].is_nan());
        assert_eq!(result.reliability[0], 0.0);
        assert_eq!(result.finite_distances().len(), 1);
    }

    #[test]
    fn shortest_path_uses_alternative_routes_when_available() {
        // Square 0-1-2-3-0: distance(0,2) is 2 whenever any of the two
        // 2-hop routes survives.
        let g = UncertainGraph::from_edges(4, [(0, 1, 0.7), (1, 2, 0.7), (2, 3, 0.7), (3, 0, 0.7)])
            .unwrap();
        let pairs = vec![(0, 2)];
        let mc = MonteCarlo::worlds(20_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let result = pair_queries(&g, &pairs, &mc, &mut rng);
        // Conditional on connectivity the distance is always exactly 2.
        assert!((result.mean_distance[0] - 2.0).abs() < 1e-12);
        // P(connected) = P(route A) + P(route B) - P(both) with route prob 0.49
        let route = 0.7 * 0.7;
        let expected = 2.0 * route - route * route;
        assert!((result.reliability[0] - expected).abs() < 0.01);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let mc = MonteCarlo::worlds(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let result = pair_queries(&g, &[], &mc, &mut rng);
        assert!(result.pairs.is_empty());
        let result = pair_queries(&g, &[(0, 1)], &MonteCarlo::worlds(0), &mut rng);
        assert!(result.mean_distance[0].is_nan());
        assert_eq!(result.reliability[0], 0.0);
    }
}
