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
///
/// Each world is labelled by a union-find over its present edges'
/// endpoints, so a world costs
/// O(present edges), not O(|V|): the world has `n − merges` components,
/// and its isolated vertices are the `n` minus those the merges cover (an
/// uncertain graph has no self loops).  The four per-world values are
/// integer counts (and `isolated / n`), independent of how the vertices
/// are labelled.
#[derive(Debug, Clone)]
pub struct ConnectivityObserver {
    n: usize,
    /// Layout: [components, largest, connected, isolated]
    totals: Vec<f64>,
    /// Per vertex, its union-find link: a root holds its component's
    /// negated size, any other vertex its parent (`i64`, since vertex ids
    /// reach `2^32 − 1`).  Every vertex is a singleton root (`-1`) between
    /// worlds: a world touches only its present endpoints, and resets them
    /// through the same list.
    links: Vec<i64>,
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
            links: vec![-1; n],
            last_connected: f64::NAN,
        }
    }
}

/// The root of `u`'s tree in `links`, halving the path on the way.
fn find_root(links: &mut [i64], mut u: usize) -> usize {
    while links[u] >= 0 {
        let parent = links[u] as usize;
        if links[parent] < 0 {
            return parent;
        }
        links[u] = links[parent];
        u = links[parent] as usize;
    }
    u
}

impl WorldObserver for ConnectivityObserver {
    type Output = ConnectivityEstimate;

    fn observe(&mut self, scratch: &WorldScratch) {
        let links = &mut self.links;
        let edges = scratch.present_endpoints();
        let (mut merges, mut covered) = (0, 0);
        let mut largest = usize::from(self.n > 0);
        for &(u, v) in edges {
            let (a, b) = (find_root(links, u as usize), find_root(links, v as usize));
            if a == b {
                continue;
            }
            let (size_a, size_b) = (-links[a], -links[b]);
            // Union by size: the smaller tree hangs under the larger root.
            let (root, child) = if size_a >= size_b { (a, b) } else { (b, a) };
            links[child] = root as i64;
            links[root] = -(size_a + size_b);
            merges += 1;
            covered += usize::from(size_a == 1) + usize::from(size_b == 1);
            largest = largest.max((size_a + size_b) as usize);
        }
        for &(u, v) in edges {
            links[u as usize] = -1;
            links[v as usize] = -1;
        }
        let count = self.n - merges;
        let isolated = self.n - covered;
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
    use crate::engine::WorldEngine;
    use graph_algos::traversal::connected_components;
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

    /// A random simple graph: each vertex pair an edge with probability
    /// `density`, of probability `p` (or uniform in `(0, 1]` when `None`).
    fn random_graph(rng: &mut SmallRng, n: usize, density: f64, p: Option<f64>) -> UncertainGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(density) {
                    let p = p.unwrap_or_else(|| 1.0 - rng.gen::<f64>());
                    edges.push((u, v, p));
                }
            }
        }
        UncertainGraph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn union_find_counts_equal_the_dfs_labelling_world_by_world() {
        let mut rng = SmallRng::seed_from_u64(0xC0);
        let path: Vec<_> = (0..9).map(|u| (u, u + 1, 1.0)).collect();
        let mut graphs = vec![
            UncertainGraph::from_edges(0, []).unwrap(),
            UncertainGraph::from_edges(1, []).unwrap(),
            UncertainGraph::from_edges(12, []).unwrap(),
            // Connected in every world.
            UncertainGraph::from_edges(10, path).unwrap(),
            random_graph(&mut rng, 30, 0.3, Some(1.0)),
        ];
        for density in [0.02, 0.05, 0.1, 0.3] {
            for _ in 0..8 {
                let n = rng.gen_range(2..80usize);
                graphs.push(random_graph(&mut rng, n, density, None));
            }
        }
        let mut connected_worlds = 0;
        for g in &graphs {
            let engine = WorldEngine::new(g);
            let mut scratch = engine.make_scratch();
            let mut observer = ConnectivityObserver::new(g);
            let mut want = [0.0; 4];
            for _ in 0..40 {
                engine.sample_world(&mut rng, &mut scratch);
                observer.observe(&scratch);
                let world = scratch.world();
                let n = world.num_vertices();
                let (labels, count) = connected_components(world);
                let mut sizes = vec![0usize; count];
                for &label in &labels {
                    sizes[label] += 1;
                }
                let largest = sizes.iter().copied().max().unwrap_or(0);
                let isolated = (0..n).filter(|&u| world.degree(u) == 0).count();
                want[0] += count as f64;
                want[1] += largest as f64;
                want[2] += f64::from(count == 1);
                if n > 0 {
                    want[3] += isolated as f64 / n as f64;
                }
                connected_worlds += usize::from(count == 1 && n > 1);
                let context = format!("n {n}, {} present edges", world.num_edges());
                assert_eq!(observer.partial(), &want[..], "{context}");
                assert_eq!(
                    observer.tracked_statistic(),
                    f64::from(count == 1),
                    "{context}"
                );
            }
        }
        assert!(connected_worlds > 40, "{connected_worlds} connected worlds");
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
