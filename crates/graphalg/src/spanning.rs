//! Maximum spanning forests (Kruskal).
//!
//! Algorithm 1 of the paper (Backbone Graph Initialization) repeatedly
//! extracts *maximum* spanning forests of the uncertain graph, using the edge
//! probabilities as weights, until the backbone holds `α'|E|` edges.
//! [`maximum_spanning_forest`] works over a plain edge list, so the caller
//! can hold whichever graph representation it likes.

use crate::dsu::UnionFind;

/// Computes a maximum spanning forest of the subgraph formed by the edges in
/// `candidates` (indices into `edges`), using Kruskal's algorithm on weights
/// in decreasing order.
///
/// Returns the indices (into `edges`) of the forest edges.  If the candidate
/// subgraph is connected the result is a spanning tree of its vertices;
/// otherwise one tree per connected component.
///
/// Ties are broken by edge index so the result is deterministic.
pub fn maximum_spanning_forest(
    num_vertices: usize,
    edges: &[(usize, usize, f64)],
    candidates: &[usize],
) -> Vec<usize> {
    let mut order: Vec<usize> = candidates.to_vec();
    order.sort_by(|&a, &b| {
        edges[b]
            .2
            .partial_cmp(&edges[a].2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut uf = UnionFind::new(num_vertices);
    let mut forest = Vec::new();
    for e in order {
        let (u, v, _) = edges[e];
        if uf.union(u, v) {
            forest.push(e);
            if forest.len() + 1 == num_vertices {
                break;
            }
        }
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum spanning forest over *all* edges.
    fn maximum_spanning_forest_all(
        num_vertices: usize,
        edges: &[(usize, usize, f64)],
    ) -> Vec<usize> {
        let all: Vec<usize> = (0..edges.len()).collect();
        maximum_spanning_forest(num_vertices, edges, &all)
    }

    fn toy_edges() -> Vec<(usize, usize, f64)> {
        // A square with one heavy diagonal.
        vec![
            (0, 1, 0.9),  // 0
            (1, 2, 0.8),  // 1
            (2, 3, 0.7),  // 2
            (3, 0, 0.1),  // 3
            (0, 2, 0.95), // 4
        ]
    }

    #[test]
    fn max_spanning_tree_picks_heaviest_edges() {
        let edges = toy_edges();
        let tree = maximum_spanning_forest_all(4, &edges);
        assert_eq!(tree.len(), 3);
        // heaviest spanning tree: (0,2,0.95), (0,1,0.9), (2,3,0.7)
        let mut got = tree.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4]);
        let weight: f64 = tree.iter().map(|&e| edges[e].2).sum();
        assert!((weight - (0.95 + 0.9 + 0.7)).abs() < 1e-12);
    }

    #[test]
    fn forest_on_disconnected_graph_spans_each_component() {
        let edges = vec![(0, 1, 0.5), (2, 3, 0.5), (2, 4, 0.4), (3, 4, 0.9)];
        let forest = maximum_spanning_forest_all(5, &edges);
        assert_eq!(forest.len(), 3); // 1 edge + 2 edges
        assert!(forest.contains(&0));
        assert!(forest.contains(&3)); // heaviest in second component
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let edges = toy_edges();
        // Exclude the two heaviest edges from the candidate set.
        let forest = maximum_spanning_forest(4, &edges, &[1, 2, 3]);
        let mut got = forest.clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_forest() {
        let forest = maximum_spanning_forest_all(3, &[]);
        assert!(forest.is_empty());
    }

    #[test]
    fn deterministic_under_ties() {
        let edges = vec![(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)];
        let a = maximum_spanning_forest_all(3, &edges);
        let b = maximum_spanning_forest_all(3, &edges);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1]); // smallest indices win ties
    }
}
