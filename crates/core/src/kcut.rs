//! Coefficients of the general cut-preserving update rule (Section 5).
//!
//! For `k > 1` the optimal probability change of an edge `e = (u0, v0)`
//! cannot enumerate all `k`-cuts containing `e`; the paper instead counts how
//! many times each vertex/edge discrepancy appears across those cuts through
//! the *enumeration function*
//!
//! ```text
//! (n choose k)_Σ = 0                 if k < 0
//!                = Σ_{i=0}^{k} C(n,i) otherwise
//! ```
//!
//! which yields the closed-form rule (Equation 13)
//!
//! ```text
//! p'_e = p̂_e + [ (n-3 choose k-1)_Σ (δA(u0)+δA(v0)) + 4 (n-4 choose k-2)_Σ Δ̂(e) ]
//!              / ( 2 (n-2 choose k-1)_Σ )
//! ```
//!
//! The binomial sums overflow `f64` spectacularly for realistic `n`, but only
//! their *ratios* matter, so this module evaluates them in log space
//! (log-sum-exp over `ln C(n,i)`), producing the two normalised coefficients
//! used by `GDB`:
//!
//! * `vertex_coefficient = (n-3 choose k-1)_Σ / (n-2 choose k-1)_Σ`
//! * `edge_coefficient   = (n-4 choose k-2)_Σ / (n-2 choose k-1)_Σ`
//!
//! Special cases: `k = 1` reduces to the degree rule of Equation 9
//! (coefficients 1 and 0) and `k = 2` to Equation 15.

/// Normalised coefficients of the general `k`-cut update rule for a graph
/// with `n` vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CutRuleCoefficients {
    /// `(n-3 choose k-1)_Σ / (n-2 choose k-1)_Σ` — weight of the endpoint
    /// degree discrepancies.
    pub(crate) vertex_coefficient: f64,
    /// `(n-4 choose k-2)_Σ / (n-2 choose k-1)_Σ` — weight of the
    /// non-incident-edge deficit `Δ̂(e)`.
    pub(crate) edge_coefficient: f64,
}

impl CutRuleCoefficients {
    /// Computes the coefficients for a graph with `num_vertices` vertices and
    /// cut cardinality `k ≥ 1`.
    ///
    /// # Panics
    /// Panics if `k == 0` (the rule is defined for `k ≥ 1`) or if the graph
    /// has fewer than 2 vertices.
    pub(crate) fn new(num_vertices: usize, k: usize) -> Self {
        assert!(k >= 1, "the cut-preserving rule requires k >= 1");
        assert!(num_vertices >= 2, "need at least two vertices");
        let n = num_vertices as i64;
        let denominator = log_binomial_prefix_sum(n - 2, k as i64 - 1);
        let vertex_num = log_binomial_prefix_sum(n - 3, k as i64 - 1);
        let edge_num = log_binomial_prefix_sum(n - 4, k as i64 - 2);
        let ratio = |num: Option<f64>| -> f64 {
            match (num, denominator) {
                (Some(a), Some(b)) => (a - b).exp(),
                // numerator sum empty (k-2 < 0 or n too small) => 0
                (None, Some(_)) => 0.0,
                // denominator empty can only happen for degenerate n; treat
                // the whole step as the plain degree rule.
                _ => 0.0,
            }
        };
        CutRuleCoefficients {
            vertex_coefficient: ratio(vertex_num),
            edge_coefficient: ratio(edge_num),
        }
    }

    /// The optimal (unclamped) probability step of Equation 13:
    /// `[ c_v (δA(u0)+δA(v0)) + 4 c_e Δ̂(e) ] / 2`.
    pub(crate) fn step(&self, delta_u: f64, delta_v: f64, non_incident_deficit: f64) -> f64 {
        (self.vertex_coefficient * (delta_u + delta_v)
            + 4.0 * self.edge_coefficient * non_incident_deficit)
            / 2.0
    }
}

/// `ln Σ_{i=0}^{k} C(n, i)` — `None` when the sum is empty (`k < 0` or
/// `n < 0`).  For `k ≥ n` the sum is `2^n`.
///
/// Runs in `O(k)` by updating `ln C(n, i)` incrementally and folding the
/// log-sum-exp in a streaming fashion, so even `n` and `k` in the millions
/// are cheap and overflow free.
fn log_binomial_prefix_sum(n: i64, k: i64) -> Option<f64> {
    if k < 0 || n < 0 {
        return None;
    }
    let k = k.min(n);
    let n = n as f64;
    // Streaming log-sum-exp with an incrementally updated ln C(n, i).
    let mut ln_c = 0.0f64; // ln C(n, 0)
    let mut max = ln_c;
    let mut scaled_sum = 1.0f64; // Σ exp(term - max), currently just i = 0
    for i in 1..=k {
        let i_f = i as f64;
        ln_c += (n - i_f + 1.0).ln() - i_f.ln();
        if ln_c > max {
            scaled_sum = scaled_sum * (max - ln_c).exp() + 1.0;
            max = ln_c;
        } else {
            scaled_sum += (ln_c - max).exp();
        }
    }
    Some(max + scaled_sum.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binomial(n: u64, k: u64) -> f64 {
        if k > n {
            return 0.0;
        }
        let mut acc = 1.0f64;
        for i in 1..=k {
            acc *= (n - k + i) as f64 / i as f64;
        }
        acc
    }

    fn prefix_sum(n: i64, k: i64) -> f64 {
        if k < 0 || n < 0 {
            return 0.0;
        }
        (0..=k.min(n)).map(|i| binomial(n as u64, i as u64)).sum()
    }

    /// `ln C(n, k)` via log-factorials (`Σ ln i`), exact enough for ratio
    /// work: a reference for the prefix-sum tests.
    fn ln_binomial(n: u64, k: u64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        let k = k.min(n - k);
        // ln C(n,k) = Σ_{i=1}^{k} ln((n - k + i) / i)
        let mut acc = 0.0;
        for i in 1..=k {
            acc += ((n - k + i) as f64).ln() - (i as f64).ln();
        }
        acc
    }

    #[test]
    fn ln_binomial_matches_direct_computation() {
        for n in 0u64..20 {
            for k in 0..=n {
                let direct = binomial(n, k).ln();
                let logged = ln_binomial(n, k);
                assert!((direct - logged).abs() < 1e-9, "C({n},{k})");
            }
        }
        assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn prefix_sums_match_direct_computation() {
        for n in 0i64..18 {
            for k in -2i64..=(n + 3) {
                let direct = prefix_sum(n, k);
                match log_binomial_prefix_sum(n, k) {
                    None => assert_eq!(direct, 0.0),
                    Some(l) => assert!(
                        (l.exp() - direct).abs() / direct.max(1.0) < 1e-9,
                        "S({n},{k}): {} vs {direct}",
                        l.exp()
                    ),
                }
            }
        }
    }

    #[test]
    fn k1_reduces_to_the_degree_rule() {
        // Equation 9: p' = p̂ + (δ(u)+δ(v))/2 — coefficients (1, 0).
        for n in [4usize, 10, 1000, 100_000] {
            let c = CutRuleCoefficients::new(n, 1);
            assert!((c.vertex_coefficient - 1.0).abs() < 1e-9, "n={n}");
            assert_eq!(c.edge_coefficient, 0.0);
            let step = c.step(0.4, 0.2, 123.0);
            assert!((step - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn k2_matches_equation_15() {
        // Equation 15: [ (n-2)(δu+δv) + 4Δ ] / (2n-2)
        for n in [5usize, 12, 250] {
            let c = CutRuleCoefficients::new(n, 2);
            let nf = n as f64;
            assert!((c.vertex_coefficient - (nf - 2.0) / (nf - 1.0)).abs() < 1e-9);
            assert!((c.edge_coefficient - 1.0 / (nf - 1.0)).abs() < 1e-9);
            let (du, dv, dd) = (0.3, 0.1, 2.0);
            let expected = ((nf - 2.0) * (du + dv) + 4.0 * dd) / (2.0 * nf - 2.0);
            assert!((c.step(du, dv, dd) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn coefficients_match_exact_ratios_for_small_graphs() {
        for n in 4i64..16 {
            for k in 1i64..n {
                let c = CutRuleCoefficients::new(n as usize, k as usize);
                let denom = prefix_sum(n - 2, k - 1);
                let v = prefix_sum(n - 3, k - 1) / denom;
                let e = prefix_sum(n - 4, k - 2) / denom;
                assert!((c.vertex_coefficient - v).abs() < 1e-9, "n={n} k={k}");
                assert!((c.edge_coefficient - e).abs() < 1e-9, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn coefficients_are_finite_for_huge_graphs_and_large_k() {
        // These binomial sums would overflow f64 by thousands of orders of
        // magnitude if computed directly.
        let c = CutRuleCoefficients::new(1_000_000, 500_000);
        assert!(c.vertex_coefficient.is_finite());
        assert!(c.edge_coefficient.is_finite());
        assert!(c.vertex_coefficient > 0.0 && c.vertex_coefficient <= 1.0);
        assert!(c.edge_coefficient > 0.0 && c.edge_coefficient <= 1.0);
    }

    #[test]
    fn vertex_coefficient_decreases_with_k() {
        // As k grows, cuts share more edges and the endpoint terms matter
        // relatively less.
        let n = 100;
        let c1 = CutRuleCoefficients::new(n, 1).vertex_coefficient;
        let c5 = CutRuleCoefficients::new(n, 5).vertex_coefficient;
        let c50 = CutRuleCoefficients::new(n, 50).vertex_coefficient;
        assert!(c1 >= c5 && c5 >= c50);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        CutRuleCoefficients::new(10, 0);
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn tiny_graph_panics() {
        CutRuleCoefficients::new(1, 1);
    }
}
