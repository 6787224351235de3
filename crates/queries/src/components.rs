//! Connectivity-structure queries: expected number of connected components,
//! expected size of the largest component, and the probability that the
//! whole graph is connected.
//!
//! These are the "graph-level" probabilistic queries the paper uses to
//! motivate possible-world semantics (the introduction's
//! `Pr[G is connected]` example): their output is inherently a probability
//! or an expectation over worlds, which is exactly what a deterministic
//! representative instance cannot express and a sparsified *uncertain* graph
//! can.

//! Both queries are [`crate::batch::WorldObserver`]s
//! ([`ConnectivityObserver`], [`DegreeHistogramObserver`]) so they can share
//! sampled worlds with other queries in a [`QueryBatch`]; the free functions
//! are single-observer wrappers keeping the original signatures
//! (bit-identical sequentially, one caller-RNG draw).

use rand::Rng;
use uncertain_graph::UncertainGraph;

use crate::batch::{QueryBatch, WorldObserver};
use crate::engine::WorldScratch;
use crate::mc::MonteCarlo;
use graph_algos::traversal::connected_components;

/// Monte-Carlo estimates of the connectivity structure of an uncertain graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityEstimate {
    /// Expected number of connected components.
    pub expected_components: f64,
    /// Expected number of vertices in the largest component.
    pub expected_largest_component: f64,
    /// Probability that the graph consists of a single connected component
    /// (the Figure 1 query of the paper).
    pub probability_connected: f64,
    /// Expected fraction of isolated vertices.
    pub expected_isolated_fraction: f64,
    /// Number of sampled worlds.
    pub num_worlds: usize,
}

/// Observer accumulating connectivity structure over sampled worlds;
/// finalises to a [`ConnectivityEstimate`].
#[derive(Debug, Clone)]
pub struct ConnectivityObserver {
    n: usize,
    /// Layout: [components, largest, connected, isolated]
    totals: Vec<f64>,
    /// Component-size tally, pre-sized to `n` (a world has at most `n`
    /// components) so `observe` never allocates.
    sizes: Vec<usize>,
    /// Connectedness indicator of the last observed world, the statistic
    /// fed to the adaptive stopping rule.
    last_connected: f64,
}

impl ConnectivityObserver {
    /// An observer for the vertices of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        let n = g.num_vertices();
        ConnectivityObserver {
            n,
            totals: vec![0.0; 4],
            sizes: vec![0; n],
            last_connected: f64::NAN,
        }
    }
}

impl WorldObserver for ConnectivityObserver {
    type Output = ConnectivityEstimate;

    fn observe(&mut self, scratch: &WorldScratch) {
        let world = scratch.world();
        let (labels, count) = connected_components(world);
        let sizes = &mut self.sizes[..count];
        sizes.fill(0);
        for &label in &labels {
            sizes[label] += 1;
        }
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let isolated = (0..world.num_vertices())
            .filter(|&u| world.degree(u) == 0)
            .count();
        self.totals[0] += count as f64;
        self.totals[1] += largest as f64;
        self.totals[2] += f64::from(count == 1);
        // A graph with no vertices has no isolated fraction to add (0 / 0).
        if self.n > 0 {
            self.totals[3] += isolated as f64 / self.n as f64;
        }
        self.last_connected = f64::from(count == 1);
    }

    /// Tracked statistic: the per-world connectedness indicator, so an
    /// adaptive run bounds the error of `probability_connected` (the
    /// paper's Figure 1 query).
    fn tracked_range(&self) -> Option<(f64, f64)> {
        (self.n > 0).then_some((0.0, 1.0))
    }

    fn tracked_statistic(&self) -> f64 {
        self.last_connected
    }

    fn partial(&self) -> &[f64] {
        &self.totals
    }

    fn partial_mut(&mut self) -> &mut [f64] {
        &mut self.totals
    }

    fn finalize(self, num_worlds: usize) -> ConnectivityEstimate {
        if num_worlds == 0 {
            return ConnectivityEstimate {
                expected_components: 0.0,
                expected_largest_component: 0.0,
                probability_connected: 0.0,
                expected_isolated_fraction: 0.0,
                num_worlds,
            };
        }
        let w = num_worlds as f64;
        ConnectivityEstimate {
            expected_components: self.totals[0] / w,
            expected_largest_component: self.totals[1] / w,
            probability_connected: self.totals[2] / w,
            expected_isolated_fraction: self.totals[3] / w,
            num_worlds,
        }
    }
}

/// Observer accumulating the per-world degree distribution; finalises to the
/// expected degree histogram (truncated at the maximum observed degree).
#[derive(Debug, Clone)]
pub struct DegreeHistogramObserver {
    totals: Vec<f64>,
}

impl DegreeHistogramObserver {
    /// An observer sized for the maximum support degree of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        let max_degree = (0..g.num_vertices())
            .map(|u| g.degree(u))
            .max()
            .unwrap_or(0);
        DegreeHistogramObserver {
            totals: vec![0.0; max_degree + 1],
        }
    }
}

impl WorldObserver for DegreeHistogramObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, scratch: &WorldScratch) {
        let world = scratch.world();
        for u in 0..world.num_vertices() {
            self.totals[world.degree(u)] += 1.0;
        }
    }

    fn partial(&self) -> &[f64] {
        &self.totals
    }

    fn partial_mut(&mut self) -> &mut [f64] {
        &mut self.totals
    }

    fn finalize(self, num_worlds: usize) -> Vec<f64> {
        if num_worlds == 0 {
            return self.totals;
        }
        let mut histogram: Vec<f64> = self
            .totals
            .into_iter()
            .map(|x| x / num_worlds as f64)
            .collect();
        while histogram.len() > 1 && histogram.last() == Some(&0.0) {
            histogram.pop();
        }
        histogram
    }
}

/// Estimates the connectivity structure of `g` over `mc.num_worlds` sampled
/// worlds.
pub fn connectivity_query<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> ConnectivityEstimate {
    let n = g.num_vertices();
    if mc.num_worlds == 0 || n == 0 {
        return ConnectivityEstimate {
            expected_components: 0.0,
            expected_largest_component: 0.0,
            probability_connected: 0.0,
            expected_isolated_fraction: 0.0,
            num_worlds: mc.num_worlds,
        };
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(ConnectivityObserver::new(g));
    batch.run(rng).take(handle)
}

/// Expected degree distribution: `result[d]` is the expected number of
/// vertices with degree exactly `d` in a sampled world (the vector is
/// truncated at the maximum observed degree).
pub fn expected_degree_histogram<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    if mc.num_worlds == 0 || n == 0 {
        return Vec::new();
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(DegreeHistogramObserver::new(g));
    batch.run(rng).take(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn figure1_connectivity_probability_is_recovered() {
        // K4 with p = 0.3 on every edge: Pr[connected] ≈ 0.219 (Figure 1).
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.3),
                (0, 2, 0.3),
                (0, 3, 0.3),
                (1, 2, 0.3),
                (1, 3, 0.3),
                (2, 3, 0.3),
            ],
        )
        .unwrap();
        let mc = MonteCarlo::worlds(40_000);
        let mut rng = SmallRng::seed_from_u64(1);
        let estimate = connectivity_query(&g, &mc, &mut rng);
        assert!((estimate.probability_connected - 0.219).abs() < 0.01);
        assert!(estimate.expected_components > 1.0);
        assert!(estimate.expected_largest_component <= 4.0);
        assert_eq!(estimate.num_worlds, 40_000);
    }

    #[test]
    fn deterministic_graph_has_exact_connectivity() {
        let g = UncertainGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let mc = MonteCarlo::worlds(20);
        let mut rng = SmallRng::seed_from_u64(2);
        let estimate = connectivity_query(&g, &mc, &mut rng);
        assert_eq!(estimate.probability_connected, 1.0);
        assert_eq!(estimate.expected_components, 1.0);
        assert_eq!(estimate.expected_largest_component, 4.0);
        assert_eq!(estimate.expected_isolated_fraction, 0.0);
    }

    #[test]
    fn isolated_fraction_matches_closed_form() {
        // Star with centre 0: leaf i is isolated iff its spoke is absent.
        let p = 0.25;
        let g = UncertainGraph::from_edges(4, [(0, 1, p), (0, 2, p), (0, 3, p)]).unwrap();
        let mc = MonteCarlo::worlds(30_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let estimate = connectivity_query(&g, &mc, &mut rng);
        // E[isolated vertices] = 3(1-p) + P(no spoke at all) for the centre.
        let expected = (3.0 * (1.0 - p) + (1.0f64 - p).powi(3)) / 4.0;
        assert!((estimate.expected_isolated_fraction - expected).abs() < 0.01);
    }

    #[test]
    fn degree_histogram_sums_to_vertex_count() {
        let g = UncertainGraph::from_edges(5, [(0, 1, 0.5), (1, 2, 0.7), (2, 3, 0.2), (3, 4, 0.9)])
            .unwrap();
        let mc = MonteCarlo::worlds(5_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let histogram = expected_degree_histogram(&g, &mc, &mut rng);
        let total: f64 = histogram.iter().sum();
        assert!((total - 5.0).abs() < 1e-9);
        // expected number of degree-0 realisations of vertex 0 is 0.5
        assert!(histogram[0] > 0.0);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let estimate = connectivity_query(&g, &MonteCarlo::worlds(0), &mut rng);
        assert_eq!(estimate.probability_connected, 0.0);
        assert!(expected_degree_histogram(&g, &MonteCarlo::worlds(0), &mut rng).is_empty());
        // A graph with no vertices, through the batch (no early return):
        // every world is empty and no fraction is 0 / 0.
        let empty = UncertainGraph::from_edges(0, []).unwrap();
        for threads in [1, 2] {
            let mut batch = QueryBatch::new(&empty, &MonteCarlo::worlds(10).with_threads(threads));
            let handle = batch.register(ConnectivityObserver::new(&empty));
            let estimate = batch.run(&mut rng).take(handle);
            assert_eq!(estimate.expected_isolated_fraction, 0.0);
            assert_eq!(estimate.expected_components, 0.0);
        }
    }
}
