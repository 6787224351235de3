//! Summary statistics of uncertain graphs (Table 1 of the paper).

use crate::entropy::graph_entropy;
use crate::graph::UncertainGraph;

/// Per-dataset characteristics as reported in Table 1 of the paper:
/// vertices, edges, density `|E|/|V|`, mean edge probability `E[p_e]` and
/// mean expected degree `E[d_u]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStatistics {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of edges `|E|`.
    pub num_edges: usize,
    /// Edge-to-vertex ratio `|E| / |V|`.
    pub edge_vertex_ratio: f64,
    /// Fraction of the complete graph: `|E| / (|V|·(|V|-1)/2)`.
    pub density: f64,
    /// Mean edge probability `E[p_e]`.
    pub mean_edge_probability: f64,
    /// Mean expected degree `E[d_u] = (2 Σ_e p_e) / |V|`.
    pub(crate) mean_expected_degree: f64,
    /// Maximum expected degree over all vertices.
    pub(crate) max_expected_degree: f64,
    /// Total entropy `H(G)` in bits.
    pub entropy: f64,
    /// Whether the support graph (all edges present) is connected.
    pub support_connected: bool,
}

impl GraphStatistics {
    /// Computes the statistics of `g`.
    pub fn compute(g: &UncertainGraph) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let expected_degrees = g.expected_degrees();
        let max_expected_degree = expected_degrees.iter().copied().fold(0.0, f64::max);
        let mean_expected_degree = if n == 0 {
            0.0
        } else {
            expected_degrees.iter().sum::<f64>() / n as f64
        };
        let complete_edges = if n < 2 {
            0.0
        } else {
            n as f64 * (n as f64 - 1.0) / 2.0
        };
        GraphStatistics {
            num_vertices: n,
            num_edges: m,
            edge_vertex_ratio: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            density: if complete_edges == 0.0 {
                0.0
            } else {
                m as f64 / complete_edges
            },
            mean_edge_probability: g.mean_edge_probability(),
            mean_expected_degree,
            max_expected_degree,
            entropy: graph_entropy(g),
            support_connected: g.support_is_connected(),
        }
    }

    /// Formats the statistics as a single Table-1-style row:
    /// `vertices  edges  |E|/|V|  E[p_e]  E[d_u]`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<12} {:>9} {:>11} {:>9.2} {:>7.3} {:>7.2}",
            name,
            self.num_vertices,
            self.num_edges,
            self.edge_vertex_ratio,
            self.mean_edge_probability,
            self.mean_expected_degree
        )
    }

    /// Header matching [`GraphStatistics::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>9} {:>11} {:>9} {:>7} {:>7}",
            "dataset", "vertices", "edges", "|E|/|V|", "E[p]", "E[d]"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_of_figure1a() {
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
        let s = GraphStatistics::compute(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 6);
        assert!((s.edge_vertex_ratio - 1.5).abs() < 1e-12);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert!((s.mean_edge_probability - 0.3).abs() < 1e-12);
        assert!((s.mean_expected_degree - 0.9).abs() < 1e-12);
        assert!((s.max_expected_degree - 0.9).abs() < 1e-12);
        assert!(s.support_connected);
        assert!(s.entropy > 0.0);
    }

    #[test]
    fn statistics_of_empty_graph_are_zero() {
        let g = UncertainGraph::from_edges(0, []).unwrap();
        let s = GraphStatistics::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.edge_vertex_ratio, 0.0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_expected_degree, 0.0);
    }

    #[test]
    fn table_rendering_contains_fields() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let s = GraphStatistics::compute(&g);
        let header = GraphStatistics::table_header();
        let row = s.table_row("toy");
        assert!(header.contains("dataset"));
        assert!(row.contains("toy"));
        assert!(row.contains('3'));
        assert!(row.contains('2'));
    }
}
