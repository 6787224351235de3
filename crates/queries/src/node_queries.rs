//! Vertex-centric Monte-Carlo queries: expected PageRank (`PR`) and expected
//! local clustering coefficient (`CC`).
//!
//! Both queries are [`crate::batch::WorldObserver`]s ([`PageRankObserver`],
//! [`ClusteringObserver`]) so they can share sampled worlds with other
//! queries in a [`QueryBatch`]; the free functions below are thin
//! single-observer wrappers that keep the original signatures (and, for
//! sequential runs, bit-identical results).  They advance the caller RNG by
//! exactly one `u64` draw (zero when `num_worlds == 0` or the graph is
//! empty).

use rand::Rng;
use uncertain_graph::UncertainGraph;

use crate::batch::{QueryBatch, WorldObserver};
use crate::engine::WorldScratch;
use crate::mc::MonteCarlo;
use graph_algos::clustering::local_clustering_coefficients;
use graph_algos::pagerank::{pagerank_into, PageRankConfig, PageRankScratch};

/// Observer accumulating deterministic PageRank over sampled worlds;
/// finalises to the per-vertex expected PageRank.
#[derive(Debug, Clone)]
pub struct PageRankObserver {
    config: PageRankConfig,
    totals: Vec<f64>,
    /// Kernel scratch (lazily sized; not part of the accumulated state).
    scratch: PageRankScratch,
}

impl PageRankObserver {
    /// An observer for the vertices of `g` with the default configuration.
    pub fn new(g: &UncertainGraph) -> Self {
        Self::with_config(g, PageRankConfig::default())
    }

    /// An observer with an explicit PageRank configuration.
    pub fn with_config(g: &UncertainGraph, config: PageRankConfig) -> Self {
        PageRankObserver {
            config,
            totals: vec![0.0; g.num_vertices()],
            scratch: PageRankScratch::default(),
        }
    }

    /// The PageRank configuration this observer runs.
    pub fn config(&self) -> PageRankConfig {
        self.config
    }
}

impl WorldObserver for PageRankObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, world: &WorldScratch) {
        let pr = pagerank_into(world.world(), &self.config, &mut self.scratch);
        add_scores(&mut self.totals, pr);
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
        self.totals
            .into_iter()
            .map(|x| x / num_worlds as f64)
            .collect()
    }
}

/// Adds one world's per-vertex ranks onto the running totals.
fn add_scores(totals: &mut [f64], scores: &[f64]) {
    for (t, p) in totals.iter_mut().zip(scores) {
        *t += p;
    }
}

/// Observer accumulating local clustering coefficients over sampled worlds;
/// finalises to the per-vertex expected coefficient.
#[derive(Debug, Clone)]
pub struct ClusteringObserver {
    totals: Vec<f64>,
}

impl ClusteringObserver {
    /// An observer for the vertices of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        ClusteringObserver {
            totals: vec![0.0; g.num_vertices()],
        }
    }

    /// Accumulates one world's per-vertex coefficients.
    pub fn record_coefficients(&mut self, coefficients: &[f64]) {
        for (t, c) in self.totals.iter_mut().zip(coefficients.iter()) {
            *t += c;
        }
    }
}

impl WorldObserver for ClusteringObserver {
    type Output = Vec<f64>;

    fn observe(&mut self, world: &WorldScratch) {
        let cc = local_clustering_coefficients(world.world());
        self.record_coefficients(&cc);
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
        self.totals
            .into_iter()
            .map(|x| x / num_worlds as f64)
            .collect()
    }
}

/// Expected PageRank of every vertex: deterministic PageRank averaged over
/// sampled possible worlds.
pub fn expected_pagerank<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    expected_pagerank_with(g, mc, &PageRankConfig::default(), rng)
}

/// [`expected_pagerank`] with an explicit PageRank configuration.
pub fn expected_pagerank_with<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    config: &PageRankConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    if mc.num_worlds == 0 || n == 0 {
        return vec![0.0; n];
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(PageRankObserver::with_config(g, *config));
    batch.run(rng).take(handle)
}

/// Expected local clustering coefficient of every vertex, averaged over
/// sampled possible worlds.
pub fn expected_clustering_coefficients<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mc: &MonteCarlo,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.num_vertices();
    if mc.num_worlds == 0 || n == 0 {
        return vec![0.0; n];
    }
    let mut batch = QueryBatch::new(g, mc);
    let handle = batch.register(ClusteringObserver::new(g));
    batch.run(rng).take(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_algos::pagerank::pagerank;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_graph_matches_deterministic_kernels() {
        // All probabilities 1 → every world is the support graph, so the MC
        // estimate equals the deterministic value exactly.
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
                (0, 2, 1.0),
            ],
        )
        .unwrap();
        let mc = MonteCarlo::worlds(16);
        let mut rng = SmallRng::seed_from_u64(1);
        let pr = expected_pagerank(&g, &mc, &mut rng);
        let support = graph_algos::DeterministicGraph::support(&g);
        let exact_pr = pagerank(&support, &PageRankConfig::default());
        for (a, b) in pr.iter().zip(exact_pr.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let cc = expected_clustering_coefficients(&g, &mc, &mut rng);
        let exact_cc = local_clustering_coefficients(&support);
        for (a, b) in cc.iter().zip(exact_cc.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pagerank_estimates_sum_to_one_per_world_on_average() {
        let g = UncertainGraph::from_edges(5, [(0, 1, 0.5), (1, 2, 0.4), (2, 3, 0.6), (3, 4, 0.7)])
            .unwrap();
        let mc = MonteCarlo::worlds(300);
        let mut rng = SmallRng::seed_from_u64(7);
        let pr = expected_pagerank(&g, &mc, &mut rng);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn clustering_coefficient_matches_closed_form_on_a_triangle() {
        // In a triangle with edge probability p on one edge and 1 on the
        // others, cc(0) is the probability that edge (1,2) exists.
        let p = 0.3;
        let g = UncertainGraph::from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, p)]).unwrap();
        let mc = MonteCarlo::worlds(40_000);
        let mut rng = SmallRng::seed_from_u64(11);
        let cc = expected_clustering_coefficients(&g, &mc, &mut rng);
        assert!((cc[0] - p).abs() < 0.02, "cc[0] = {}", cc[0]);
        // vertices 1 and 2 have degree 2 only when (1,2) exists, giving cc 1;
        // otherwise degree 1 and cc 0, so the expectation is also p.
        assert!((cc[1] - p).abs() < 0.02);
    }

    #[test]
    fn zero_worlds_yield_zero_vectors() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let mc = MonteCarlo::worlds(0);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(expected_pagerank(&g, &mc, &mut rng), vec![0.0; 3]);
        assert_eq!(
            expected_clustering_coefficients(&g, &mc, &mut rng),
            vec![0.0; 3]
        );
    }

    #[test]
    fn hub_vertices_receive_higher_expected_pagerank() {
        // A star with reliable spokes: the centre must dominate.
        let g = UncertainGraph::from_edges(
            6,
            [
                (0, 1, 0.9),
                (0, 2, 0.9),
                (0, 3, 0.9),
                (0, 4, 0.9),
                (0, 5, 0.9),
            ],
        )
        .unwrap();
        let mc = MonteCarlo::worlds(400);
        let mut rng = SmallRng::seed_from_u64(5);
        let pr = expected_pagerank(&g, &mc, &mut rng);
        for leaf in 1..6 {
            assert!(pr[0] > pr[leaf]);
        }
    }
}
