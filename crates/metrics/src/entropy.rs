//! Entropy-based metrics (Figures 5(b) and 8).

use uncertain_graph::UncertainGraph;

/// Relative entropy `H(G') / H(G)`; 0 when the original graph has zero
/// entropy.  Re-exported from the core graph crate for a uniform metrics
/// namespace.
pub fn relative_entropy(original: &UncertainGraph, sparsified: &UncertainGraph) -> f64 {
    uncertain_graph::entropy::relative_entropy(original, sparsified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_entropy_matches_ratio_of_entropies() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let s = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        assert!((relative_entropy(&g, &s) - 0.5).abs() < 1e-12);
    }
}
