//! The `SS` baseline: Baswana–Sen `(2t−1)`-spanner adapted to uncertain
//! graphs (Section 3.2 and Appendix Algorithm 5).
//!
//! The uncertain graph is mapped to a weighted deterministic graph with
//! `w_e = −log p_e`, so that the lightest paths are the most probable ones.
//! A Baswana–Sen spanner of stretch `2t−1` is then computed; `t` is chosen by
//! solving `α|E| = t·n^{1+1/t}` and calibrated (in integer steps) until the
//! spanner holds at most `α|E|` edges.  The spanner keeps the *original*
//! probabilities — no redistribution at all — and is topped up to exactly
//! `α|E|` edges by probability-proportional sampling, exactly as the paper
//! prescribes.  The total absence of probability redistribution is what makes
//! `SS` the weakest baseline in every experiment of Section 6.

use std::time::Instant;

use rand::{Rng, RngCore};
use uncertain_graph::{EdgeId, UncertainGraph};

use crate::common::resize_selection;
use ugs_core::backbone::target_edge_count;
use ugs_core::spec::{materialize, Diagnostics, PhaseTimings, Sparsifier, SparsifyOutput};
use ugs_core::SparsifyError;

/// Configuration of the `SS` baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannerConfig {
    /// Sparsification ratio `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Maximum number of stretch-calibration rounds (each round increases
    /// `t` by one).
    pub max_calibration_rounds: usize,
    /// Upper bound on the stretch parameter `t`.
    pub max_t: usize,
}

impl Default for SpannerConfig {
    fn default() -> Self {
        SpannerConfig {
            alpha: 0.16,
            max_calibration_rounds: 12,
            max_t: 32,
        }
    }
}

/// The Baswana–Sen spanner baseline.
#[derive(Debug, Clone, Default)]
pub struct SpannerSparsifier {
    config: SpannerConfig,
}

impl SpannerSparsifier {
    /// Creates the baseline with ratio `alpha` and default calibration
    /// settings.
    pub fn new(alpha: f64) -> Self {
        SpannerSparsifier {
            config: SpannerConfig {
                alpha,
                ..Default::default()
            },
        }
    }

    /// Creates the baseline from a full configuration.
    pub fn with_config(config: SpannerConfig) -> Self {
        SpannerSparsifier { config }
    }

    /// Runs the baseline.
    pub fn sparsify<R: Rng + ?Sized>(
        &self,
        g: &UncertainGraph,
        rng: &mut R,
    ) -> Result<SparsifyOutput, SparsifyError> {
        let start = Instant::now();
        let config = &self.config;
        let target = target_edge_count(g, config.alpha)?;
        let n = g.num_vertices();

        // -log p weights (deterministic edges get weight 0, the lightest).
        let weights: Vec<f64> = g.probabilities().iter().map(|&p| -(p.ln())).collect();

        // Initial stretch: smallest integer t ≥ 2 with t·n^(1+1/t) ≤ α|E|,
        // i.e. the smallest spanner (in expectation) that still fits.
        let target_f = target as f64;
        let expected_size = |t: usize| t as f64 * (n as f64).powf(1.0 + 1.0 / t as f64);
        let mut t = (2..=config.max_t)
            .find(|&t| expected_size(t) <= target_f)
            .unwrap_or(config.max_t);

        let mut selection = Vec::new();
        let mut calibration_rounds = 0usize;
        while calibration_rounds < config.max_calibration_rounds {
            calibration_rounds += 1;
            selection = baswana_sen_spanner(g, &weights, t, rng);
            if selection.len() <= target || t >= config.max_t {
                break;
            }
            t += 1; // larger stretch → sparser spanner
        }

        // Keep the original probabilities and adjust to exactly α|E| edges.
        let resized = resize_selection(g, selection, target, rng);
        let assignment: Vec<(EdgeId, f64)> = resized
            .into_iter()
            .map(|e| (e, g.edge_probability(e)))
            .collect();

        let graph = materialize(g, &assignment)?;
        let diagnostics = Diagnostics {
            method: "SS".into(),
            alpha: config.alpha,
            target_edges: target,
            iterations: calibration_rounds,
            swaps: 0,
            objective_trace: Vec::new(),
            entropy_original: g.entropy(),
            entropy_sparsified: graph.entropy(),
            elapsed: start.elapsed(),
            phases: PhaseTimings::default(),
        };
        Ok(SparsifyOutput { graph, diagnostics })
    }
}

impl Sparsifier for SpannerSparsifier {
    fn name(&self) -> String {
        "SS".into()
    }

    fn sparsify_dyn(
        &self,
        g: &UncertainGraph,
        rng: &mut dyn RngCore,
    ) -> Result<SparsifyOutput, SparsifyError> {
        self.sparsify(g, rng)
    }
}

/// Baswana–Sen randomized `(2t−1)`-spanner (Appendix Algorithm 5): `t − 1`
/// clustering iterations followed by a vertex–cluster joining phase, plus the
/// final cluster-connection step the paper adds to keep the spanner
/// connected.  Returns the selected edge ids.
fn baswana_sen_spanner<R: Rng + ?Sized>(
    g: &UncertainGraph,
    weights: &[f64],
    t: usize,
    rng: &mut R,
) -> Vec<EdgeId> {
    let n = g.num_vertices();
    if n == 0 || g.num_edges() == 0 {
        return Vec::new();
    }
    let t = t.max(2);
    let sample_probability = (n as f64).powf(-1.0 / t as f64);

    // cluster[v] = Some(cluster id) while v is still clustered, None once v
    // has been settled (it added edges to all its adjacent clusters).
    let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();
    let mut edge_alive: Vec<bool> = vec![true; g.num_edges()];
    let mut spanner: Vec<EdgeId> = Vec::new();
    let mut in_spanner: Vec<bool> = vec![false; g.num_edges()];

    let add_edge = |e: EdgeId, spanner: &mut Vec<EdgeId>, in_spanner: &mut Vec<bool>| {
        if !in_spanner[e] {
            in_spanner[e] = true;
            spanner.push(e);
        }
    };

    // ---------------- Phase 1: t − 1 clustering iterations ----------------
    for _ in 1..t {
        // Sample the surviving clusters, one draw each in ascending id order
        // (a hash set's iteration order changes from call to call).
        let mut cluster_ids: Vec<usize> = cluster.iter().flatten().copied().collect();
        if cluster_ids.is_empty() {
            break;
        }
        cluster_ids.sort_unstable();
        cluster_ids.dedup();
        let sampled: std::collections::HashSet<usize> = cluster_ids
            .into_iter()
            .filter(|_| rng.gen::<f64>() < sample_probability)
            .collect();

        let previous = cluster.clone();
        for v in 0..n {
            let Some(own) = previous[v] else { continue };
            if sampled.contains(&own) {
                continue; // v's own cluster survived; v stays in it.
            }
            // Least-weight alive edge from v to each adjacent cluster.
            let mut best_per_cluster: std::collections::HashMap<usize, (f64, EdgeId)> =
                std::collections::HashMap::new();
            for (u, e, _) in g.neighbors(v) {
                if !edge_alive[e] {
                    continue;
                }
                let Some(cu) = previous[u] else { continue };
                if cu == own {
                    continue;
                }
                let w = weights[e];
                let entry = best_per_cluster.entry(cu).or_insert((w, e));
                if w < entry.0 || (w == entry.0 && e < entry.1) {
                    *entry = (w, e);
                }
            }
            // Adjacent sampled cluster with the overall lightest edge.
            let best_sampled = best_per_cluster
                .iter()
                .filter(|(c, _)| sampled.contains(c))
                .min_by(|a, b| {
                    a.1 .0
                        .partial_cmp(&b.1 .0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1 .1.cmp(&b.1 .1))
                })
                .map(|(&c, &(w, e))| (c, w, e));

            match best_sampled {
                None => {
                    // No sampled neighbour: connect to every adjacent cluster
                    // with its lightest edge and retire v.
                    for (&c, &(_, e)) in &best_per_cluster {
                        add_edge(e, &mut spanner, &mut in_spanner);
                        // discard remaining edges between v and cluster c
                        for (u, e2, _) in g.neighbors(v) {
                            if previous[u] == Some(c) {
                                edge_alive[e2] = false;
                            }
                        }
                    }
                    cluster[v] = None;
                }
                Some((c_star, w_star, e_star)) => {
                    // Join the sampled cluster through its lightest edge.
                    add_edge(e_star, &mut spanner, &mut in_spanner);
                    cluster[v] = Some(c_star);
                    // Connect to every adjacent cluster with a strictly
                    // lighter edge and discard the handled edges.
                    for (&c, &(w, e)) in &best_per_cluster {
                        if c == c_star || w < w_star {
                            if c != c_star {
                                add_edge(e, &mut spanner, &mut in_spanner);
                            }
                            for (u, e2, _) in g.neighbors(v) {
                                if previous[u] == Some(c) {
                                    edge_alive[e2] = false;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // ---------------- Phase 2: vertex–cluster joining ----------------------
    for v in 0..n {
        let mut best_per_cluster: std::collections::HashMap<usize, (f64, EdgeId)> =
            std::collections::HashMap::new();
        for (u, e, _) in g.neighbors(v) {
            if !edge_alive[e] {
                continue;
            }
            let Some(cu) = cluster[u] else { continue };
            if cluster[v] == Some(cu) {
                continue;
            }
            let w = weights[e];
            let entry = best_per_cluster.entry(cu).or_insert((w, e));
            if w < entry.0 || (w == entry.0 && e < entry.1) {
                *entry = (w, e);
            }
        }
        for &(_, e) in best_per_cluster.values() {
            add_edge(e, &mut spanner, &mut in_spanner);
        }
    }

    // ------- Final step of Appendix Algorithm 5: keep the spanner connected.
    // Join the connected components of the current spanner with the lightest
    // available edges (a maximum-probability spanning forest over the
    // remaining edges restricted to inter-component pairs).
    let mut uf = graph_algos::UnionFind::new(n);
    for &e in &spanner {
        let (u, v) = g.edge_endpoints(e);
        uf.union(u, v);
    }
    if uf.num_sets() > 1 {
        let mut order: Vec<EdgeId> = (0..g.num_edges()).filter(|&e| !in_spanner[e]).collect();
        order.sort_by(|&a, &b| {
            weights[a]
                .partial_cmp(&weights[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for e in order {
            let (u, v) = g.edge_endpoints(e);
            if uf.union(u, v) {
                add_edge(e, &mut spanner, &mut in_spanner);
                if uf.num_sets() == 1 {
                    break;
                }
            }
        }
    }

    spanner
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uncertain_graph::UncertainGraphBuilder;

    fn random_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = UncertainGraphBuilder::new(n);
        for u in 0..n {
            b.add_edge(u, (u + 1) % n, rng.gen_range(0.05..0.95))
                .unwrap();
        }
        let mut added = n;
        while added < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v
                && b.add_edge_if_absent(u, v, rng.gen_range(0.05..0.95))
                    .unwrap()
            {
                added += 1;
            }
        }
        b.build()
    }

    #[test]
    fn produces_exact_edge_count_and_keeps_original_probabilities() {
        let g = random_graph(1, 40, 240);
        for alpha in [0.15, 0.3, 0.6] {
            let mut rng = SmallRng::seed_from_u64(5);
            let out = SpannerSparsifier::new(alpha)
                .sparsify(&g, &mut rng)
                .unwrap();
            let expected = (alpha * 240.0).round() as usize;
            assert_eq!(out.graph.num_edges(), expected, "alpha {alpha}");
            // SS performs no probability redistribution at all.
            for e in out.graph.edges() {
                let original = g.edge_probability(g.find_edge(e.u, e.v).unwrap());
                assert!((e.p - original).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn a_fixed_seed_gives_the_same_spanner_on_every_call() {
        let g = random_graph(6, 60, 400);
        let run = || {
            let mut rng = SmallRng::seed_from_u64(5);
            let out = SpannerSparsifier::new(0.3).sparsify(&g, &mut rng).unwrap();
            out.graph
                .edges()
                .map(|e| (e.u, e.v, e.p.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = run();
        for call in 1..5 {
            assert_eq!(run(), first, "call {call}");
        }
    }

    #[test]
    fn entropy_is_not_reduced_relative_to_edge_count() {
        // Because SS keeps original probabilities, the entropy of its output
        // is exactly the sum of the original entropies of the kept edges.
        let g = random_graph(2, 30, 150);
        let mut rng = SmallRng::seed_from_u64(9);
        let out = SpannerSparsifier::new(0.3).sparsify(&g, &mut rng).unwrap();
        let expected_entropy: f64 = out
            .graph
            .edges()
            .map(|e| {
                uncertain_graph::entropy::edge_entropy(
                    g.edge_probability(g.find_edge(e.u, e.v).unwrap()),
                )
            })
            .sum();
        assert!((out.diagnostics.entropy_sparsified - expected_entropy).abs() < 1e-9);
    }

    #[test]
    fn spanner_output_is_connected_when_enough_edges_are_allowed() {
        let g = random_graph(3, 30, 180);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = SpannerSparsifier::new(0.4).sparsify(&g, &mut rng).unwrap();
        assert!(out.graph.support_is_connected());
    }

    #[test]
    fn spanner_core_respects_connectivity_step() {
        let g = random_graph(4, 25, 100);
        let weights: Vec<f64> = g.probabilities().iter().map(|&p| -(p.ln())).collect();
        let mut rng = SmallRng::seed_from_u64(8);
        let spanner = baswana_sen_spanner(&g, &weights, 3, &mut rng);
        // spanning requirement
        let mut uf = graph_algos::UnionFind::new(g.num_vertices());
        for &e in &spanner {
            let (u, v) = g.edge_endpoints(e);
            uf.union(u, v);
        }
        assert_eq!(uf.num_sets(), 1, "spanner must connect the graph");
        // no duplicates
        let unique: std::collections::HashSet<_> = spanner.iter().collect();
        assert_eq!(unique.len(), spanner.len());
    }

    #[test]
    fn larger_stretch_produces_sparser_spanners_on_average() {
        let g = random_graph(5, 60, 600);
        let weights: Vec<f64> = g.probabilities().iter().map(|&p| -(p.ln())).collect();
        let mut sizes = Vec::new();
        for t in [2usize, 6] {
            let mut total = 0usize;
            for seed in 0..5u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                total += baswana_sen_spanner(&g, &weights, t, &mut rng).len();
            }
            sizes.push(total as f64 / 5.0);
        }
        assert!(
            sizes[1] <= sizes[0] + 1.0,
            "stretch 11 spanner ({}) should not be denser than stretch 3 ({})",
            sizes[1],
            sizes[0]
        );
    }

    #[test]
    fn invalid_alpha_is_rejected() {
        let g = random_graph(6, 10, 20);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            SpannerSparsifier::new(1.5).sparsify(&g, &mut rng),
            Err(SparsifyError::InvalidAlpha { .. })
        ));
    }

    #[test]
    fn trait_object_interface_works() {
        let g = random_graph(7, 20, 80);
        let s: Box<dyn Sparsifier> = Box::new(SpannerSparsifier::new(0.25));
        assert_eq!(s.name(), "SS");
        let mut rng = SmallRng::seed_from_u64(2);
        let out = s.sparsify_dyn(&g, &mut rng).unwrap();
        assert_eq!(out.graph.num_edges(), 20);
        assert_eq!(out.diagnostics.method, "SS");
    }

    #[test]
    fn handles_tiny_graphs() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]).unwrap();
        let weights = vec![1.0, 1.0, 1.0];
        let mut rng = SmallRng::seed_from_u64(0);
        let spanner = baswana_sen_spanner(&g, &weights, 2, &mut rng);
        assert!(!spanner.is_empty());
        let empty = UncertainGraph::from_edges(2, []).unwrap();
        assert!(baswana_sen_spanner(&empty, &[], 2, &mut rng).is_empty());
    }
}
