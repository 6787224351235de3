//! Local clustering coefficients.
//!
//! The clustering coefficient (`CC`) query of the paper measures, for each
//! vertex, the ratio of edges among its neighbours to the maximum possible
//! number of such edges.  The Monte-Carlo query engine averages these values
//! over sampled possible worlds; this module provides the deterministic
//! kernel.

use crate::dgraph::DeterministicGraph;

/// Local clustering coefficient of every vertex.
///
/// `cc(u) = 2·T(u) / (deg(u)·(deg(u)-1))` where `T(u)` is the number of edges
/// between neighbours of `u`; vertices with degree < 2 get 0 by convention.
///
/// The implementation sorts adjacency lists once and counts triangles via
/// merge-style intersection, `O(Σ_u deg(u)·d_max)` worst case but cache
/// friendly and allocation free per vertex pair.
pub fn local_clustering_coefficients(g: &DeterministicGraph) -> Vec<f64> {
    let n = g.num_vertices();
    // Sorted copies of the adjacency lists for O(d1 + d2) intersections.
    let sorted: Vec<Vec<u32>> = (0..n)
        .map(|u| {
            let mut ns: Vec<u32> = g.neighbor_slice(u).to_vec();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();
    let mut cc = vec![0.0; n];
    for u in 0..n {
        let neighbors = &sorted[u];
        let deg = neighbors.len();
        if deg < 2 {
            continue;
        }
        let mut triangles = 0usize;
        for (i, &v) in neighbors.iter().enumerate() {
            let nv = &sorted[v as usize];
            // Count common neighbours of u and v that come after v in u's
            // list (each triangle counted once per (v, w) pair with v < w).
            let rest = &neighbors[i + 1..];
            triangles += sorted_intersection_size(rest, nv);
        }
        cc[u] = 2.0 * triangles as f64 / (deg * (deg - 1)) as f64;
    }
    cc
}

fn sorted_intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_coefficient_one() {
        let g = DeterministicGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn path_has_coefficient_zero() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![0.0; 4]);
    }

    #[test]
    fn square_with_one_diagonal() {
        // 0-1, 1-2, 2-3, 3-0 and diagonal 0-2.
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let cc = local_clustering_coefficients(&g);
        // Vertices 1 and 3 have degree 2 and their two neighbours (0, 2) are
        // linked: cc = 1.  Vertices 0 and 2 have degree 3 and two edges among
        // their three neighbours: cc = 2/3.
        assert!((cc[1] - 1.0).abs() < 1e-12);
        assert!((cc[3] - 1.0).abs() < 1e-12);
        assert!((cc[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cc[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_and_degree_one_vertices_get_zero() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![0.0; 4]);
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 30;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.2 {
                    edges.push((u, v));
                }
            }
        }
        let g = DeterministicGraph::from_edges(n, &edges);
        let fast = local_clustering_coefficients(&g);
        // brute force
        let adj: Vec<std::collections::HashSet<usize>> = (0..n)
            .map(|u| g.neighbors(u).collect::<std::collections::HashSet<_>>())
            .collect();
        for u in 0..n {
            let ns: Vec<usize> = adj[u].iter().copied().collect();
            let d = ns.len();
            let expected = if d < 2 {
                0.0
            } else {
                let mut t = 0usize;
                for i in 0..d {
                    for j in (i + 1)..d {
                        if adj[ns[i]].contains(&ns[j]) {
                            t += 1;
                        }
                    }
                }
                2.0 * t as f64 / (d * (d - 1)) as f64
            };
            assert!((fast[u] - expected).abs() < 1e-12, "vertex {u}");
        }
    }
}
