//! Expected-cut-size discrepancy over sampled vertex sets
//! (Figures 4(a), 6(b,d), 7(b)).
//!
//! Enumerating every cut is intractable, so — exactly like the paper — the
//! metric samples random vertex sets `S` of various cardinalities and reports
//! the mean absolute error of `δA(S) = C_G(S) − C_G'(S)`, where the expected
//! cut size `C_G(S)` is the sum of the probabilities of the edges with
//! exactly one endpoint in `S`.

use rand::Rng;
use uncertain_graph::UncertainGraph;

/// Configuration of the random-cut sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutSamplingConfig {
    /// Total number of random vertex sets to sample.
    pub num_cuts: usize,
    /// Largest cardinality to sample (clamped to `|V| − 1`); cardinalities
    /// are drawn uniformly from `1..=max_cardinality`.
    pub max_cardinality: usize,
}

impl Default for CutSamplingConfig {
    fn default() -> Self {
        CutSamplingConfig {
            num_cuts: 1000,
            max_cardinality: usize::MAX,
        }
    }
}

/// Expected size of the cut induced by the vertex set `members` in `g`.
pub(crate) fn expected_cut_size(g: &UncertainGraph, in_set: &[bool]) -> f64 {
    g.edges()
        .filter(|e| in_set[e.u] != in_set[e.v])
        .map(|e| e.p)
        .sum()
}

/// Mean absolute error of the cut discrepancy over `config.num_cuts` randomly
/// sampled vertex sets.  Both graphs must share a vertex set.
pub fn cut_discrepancy_mae<R: Rng + ?Sized>(
    original: &UncertainGraph,
    sparsified: &UncertainGraph,
    config: &CutSamplingConfig,
    rng: &mut R,
) -> f64 {
    assert_eq!(
        original.num_vertices(),
        sparsified.num_vertices(),
        "graphs must share a vertex set"
    );
    let n = original.num_vertices();
    if n < 2 || config.num_cuts == 0 {
        return 0.0;
    }
    let max_k = config.max_cardinality.min(n - 1).max(1);
    let mut in_set = vec![false; n];
    let mut members: Vec<usize> = Vec::new();
    let mut total = 0.0;
    for _ in 0..config.num_cuts {
        // Draw a random cardinality, then a random subset of that size via
        // partial Fisher–Yates over the vertex ids.
        let k = rng.gen_range(1..=max_k);
        members.clear();
        // Reservoir-free subset sampling: pick k distinct vertices.
        while members.len() < k {
            let v = rng.gen_range(0..n);
            if !in_set[v] {
                in_set[v] = true;
                members.push(v);
            }
        }
        let c0 = expected_cut_size(original, &in_set);
        let c1 = expected_cut_size(sparsified, &in_set);
        total += (c0 - c1).abs();
        for &v in &members {
            in_set[v] = false;
        }
    }
    total / config.num_cuts as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Exact mean absolute cut discrepancy over *all* non-empty subsets of
    /// cardinality at most `max_cardinality`, weighting every cardinality
    /// equally (mean over subsets within each cardinality, then mean over
    /// cardinalities) — the same weighting the sampled metric and the paper use
    /// ("1000 random k-cuts for each value of k").  Exponential: the oracle
    /// for the sampled metric on toy graphs.
    fn exact_cut_discrepancy_mae(
        original: &UncertainGraph,
        sparsified: &UncertainGraph,
        max_cardinality: usize,
    ) -> f64 {
        assert_eq!(original.num_vertices(), sparsified.num_vertices());
        let n = original.num_vertices();
        assert!(
            n <= 20,
            "exact enumeration is exponential; use the sampled metric"
        );
        if n < 2 {
            return 0.0;
        }
        let max_k = max_cardinality.min(n - 1);
        let mut total_per_k = vec![0.0f64; max_k + 1];
        let mut count_per_k = vec![0usize; max_k + 1];
        let mut in_set = vec![false; n];
        for mask in 1u32..(1u32 << n) {
            let k = mask.count_ones() as usize;
            if k == 0 || k > max_k {
                continue;
            }
            for (v, flag) in in_set.iter_mut().enumerate() {
                *flag = (mask >> v) & 1 == 1;
            }
            let c0 = expected_cut_size(original, &in_set);
            let c1 = expected_cut_size(sparsified, &in_set);
            total_per_k[k] += (c0 - c1).abs();
            count_per_k[k] += 1;
        }
        let mut mean_of_means = 0.0;
        let mut cardinalities = 0usize;
        for k in 1..=max_k {
            if count_per_k[k] > 0 {
                mean_of_means += total_per_k[k] / count_per_k[k] as f64;
                cardinalities += 1;
            }
        }
        if cardinalities == 0 {
            0.0
        } else {
            mean_of_means / cardinalities as f64
        }
    }

    fn original() -> UncertainGraph {
        UncertainGraph::from_edges(
            5,
            [
                (0, 1, 0.4),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 3, 0.2),
                (2, 3, 0.1),
                (3, 4, 0.7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn expected_cut_size_sums_crossing_probabilities() {
        let g = original();
        let mut in_set = vec![false; 5];
        in_set[0] = true;
        // edges leaving {0}: (0,1), (0,2), (0,3)
        assert!((expected_cut_size(&g, &in_set) - 0.8).abs() < 1e-12);
        in_set[3] = true;
        // edges leaving {0,3}: (0,1), (0,2), (1,3), (2,3), (3,4)
        assert!((expected_cut_size(&g, &in_set) - (0.4 + 0.2 + 0.2 + 0.1 + 0.7)).abs() < 1e-12);
    }

    #[test]
    fn identical_graphs_have_zero_discrepancy() {
        let g = original();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cut_discrepancy_mae(&g, &g, &CutSamplingConfig::default(), &mut rng),
            0.0
        );
        assert_eq!(exact_cut_discrepancy_mae(&g, &g, 5), 0.0);
    }

    #[test]
    fn sampled_metric_approximates_exact_metric() {
        let g = original();
        let s = g.subgraph_with_edges([0, 5]).unwrap();
        let exact = exact_cut_discrepancy_mae(&g, &s, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        let sampled = cut_discrepancy_mae(
            &g,
            &s,
            &CutSamplingConfig {
                num_cuts: 60_000,
                max_cardinality: 4,
            },
            &mut rng,
        );
        assert!(
            (sampled - exact).abs() < 0.05 * exact.max(0.1),
            "sampled {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn cardinality_one_restriction_equals_degree_discrepancy() {
        let g = original();
        let s = g.subgraph_with_edges([1, 2, 3]).unwrap();
        let exact = exact_cut_discrepancy_mae(&g, &s, 1);
        // Exact over all singletons = mean over vertices of |δA(u)|.
        let d0 = g.expected_degrees();
        let d1 = s.expected_degrees();
        let manual: f64 = d0
            .iter()
            .zip(d1.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / d0.len() as f64;
        assert!((exact - manual).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_zero() {
        let g = UncertainGraph::from_edges(1, []).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cut_discrepancy_mae(&g, &g, &CutSamplingConfig::default(), &mut rng),
            0.0
        );
        let g2 = original();
        assert_eq!(
            cut_discrepancy_mae(
                &g2,
                &g2,
                &CutSamplingConfig {
                    num_cuts: 0,
                    max_cardinality: 3
                },
                &mut rng
            ),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "share a vertex set")]
    fn mismatched_graphs_panic() {
        let a = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let b = UncertainGraph::from_edges(4, [(0, 1, 0.5)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        cut_discrepancy_mae(&a, &b, &CutSamplingConfig::default(), &mut rng);
    }
}
