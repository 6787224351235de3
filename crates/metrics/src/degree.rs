//! Degree-discrepancy metrics (Table 2, Figures 6(a,c), 7(a)).

use uncertain_graph::UncertainGraph;

/// Which discrepancy flavour a metric reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricDiscrepancy {
    /// Absolute discrepancy `δA(u) = d_G(u) − d_G'(u)`.
    #[default]
    Absolute,
    /// Relative discrepancy `δR(u) = δA(u) / d_G(u)` (0 for isolated
    /// vertices of the original graph).
    Relative,
}

fn per_vertex_discrepancies(
    original: &UncertainGraph,
    sparsified: &UncertainGraph,
    kind: MetricDiscrepancy,
) -> Vec<f64> {
    assert_eq!(
        original.num_vertices(),
        sparsified.num_vertices(),
        "graphs must share a vertex set"
    );
    let d0 = original.expected_degrees();
    let d1 = sparsified.expected_degrees();
    d0.iter()
        .zip(d1.iter())
        .map(|(&a, &b)| match kind {
            MetricDiscrepancy::Absolute => a - b,
            MetricDiscrepancy::Relative => {
                if a > 0.0 {
                    (a - b) / a
                } else {
                    0.0
                }
            }
        })
        .collect()
}

/// Mean absolute error of the degree discrepancy over all vertices —
/// the quantity of Table 2 and Figures 6–7.
pub fn degree_discrepancy_mae(
    original: &UncertainGraph,
    sparsified: &UncertainGraph,
    kind: MetricDiscrepancy,
) -> f64 {
    let deltas = per_vertex_discrepancies(original, sparsified, kind);
    if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().map(|d| d.abs()).sum::<f64>() / deltas.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn original() -> UncertainGraph {
        UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 3, 0.2),
                (2, 3, 0.1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn identical_graphs_have_zero_error() {
        let g = original();
        assert_eq!(
            degree_discrepancy_mae(&g, &g, MetricDiscrepancy::Absolute),
            0.0
        );
        assert_eq!(
            degree_discrepancy_mae(&g, &g, MetricDiscrepancy::Relative),
            0.0
        );
    }

    #[test]
    fn mae_matches_hand_computation() {
        let g = original();
        // Keep only edge (0, 1) at its original probability.
        let s = g.subgraph_with_edges([0]).unwrap();
        // Original expected degrees: (0.8, 0.6, 0.3, 0.5); sparsified:
        // (0.4, 0.4, 0, 0).
        let expected_abs = (0.4 + 0.2 + 0.3 + 0.5) / 4.0;
        assert!(
            (degree_discrepancy_mae(&g, &s, MetricDiscrepancy::Absolute) - expected_abs).abs()
                < 1e-12
        );
        let expected_rel = (0.4 / 0.8 + 0.2 / 0.6 + 1.0 + 1.0) / 4.0;
        assert!(
            (degree_discrepancy_mae(&g, &s, MetricDiscrepancy::Relative) - expected_rel).abs()
                < 1e-12
        );
    }

    #[test]
    fn isolated_original_vertices_do_not_blow_up_relative_error() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let s = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        assert_eq!(
            degree_discrepancy_mae(&g, &s, MetricDiscrepancy::Relative),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "share a vertex set")]
    fn mismatched_vertex_sets_panic() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let s = UncertainGraph::from_edges(2, [(0, 1, 0.5)]).unwrap();
        degree_discrepancy_mae(&g, &s, MetricDiscrepancy::Absolute);
    }

    #[test]
    fn empty_graphs_have_zero_error() {
        let g = UncertainGraph::from_edges(0, []).unwrap();
        assert_eq!(
            degree_discrepancy_mae(&g, &g, MetricDiscrepancy::Absolute),
            0.0
        );
    }
}
