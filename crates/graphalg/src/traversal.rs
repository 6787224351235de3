//! Breadth-first traversal and connectivity over deterministic graphs.

use std::collections::VecDeque;

use crate::dgraph::DeterministicGraph;

/// Connected components of `g`: returns `(labels, count)` where `labels[u]`
/// is the component index of vertex `u` (components numbered in discovery
/// order from vertex 0 upward).
pub fn connected_components(g: &DeterministicGraph) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = next;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (labels, next)
}

/// Hop distances from `source` to every vertex by BFS.  Unreachable vertices
/// get `usize::MAX`.
pub fn bfs_distances(g: &DeterministicGraph, source: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> DeterministicGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        DeterministicGraph::from_edges(n, &edges)
    }

    #[test]
    fn components_of_connected_and_disconnected_graphs() {
        let g = path_graph(5);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 1);
        assert!(labels.iter().all(|&l| l == 0));

        let g = DeterministicGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = path_graph(6);
        let dist = bfs_distances(&g, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
        let dist = bfs_distances(&g, 3);
        assert_eq!(dist, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_distances_mark_unreachable() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1)]);
        let dist = bfs_distances(&g, 0);
        assert_eq!(dist[1], 1);
        assert_eq!(dist[2], usize::MAX);
        assert_eq!(dist[3], usize::MAX);
    }
}
