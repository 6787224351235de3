//! Shared machinery of the baseline adaptations: forcing an edge selection to
//! exactly `α|E|` edges, as described at the end of Section 3.2.
//!
//! Both benchmark methods only control their output size in expectation
//! (through `ε` for `NI`, through the stretch `t` for the spanner), so the
//! paper calibrates the parameter until the selection has *at most* `α|E|`
//! edges and then tops the selection up to exactly `α|E|` by sampling the
//! remaining edges with their original probabilities.

use rand::Rng;
use uncertain_graph::{EdgeId, UncertainGraph};

/// Adjusts `selection` to exactly `target` edges:
///
/// * if it is too large, the lowest-probability edges are dropped (the
///   calibration loops normally prevent this; it is a safety net),
/// * if it is too small, missing edges are drawn from the rest of the graph
///   by probability-proportional sampling without replacement.
pub(crate) fn resize_selection<R: Rng + ?Sized>(
    g: &UncertainGraph,
    mut selection: Vec<EdgeId>,
    target: usize,
    rng: &mut R,
) -> Vec<EdgeId> {
    selection.sort_unstable();
    selection.dedup();
    if selection.len() > target {
        // Keep the highest-probability edges; deterministic tie-break by id.
        selection.sort_by(|&a, &b| {
            g.edge_probability(b)
                .partial_cmp(&g.edge_probability(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        selection.truncate(target);
        selection.sort_unstable();
        return selection;
    }
    if selection.len() == target {
        return selection;
    }
    let mut chosen = vec![false; g.num_edges()];
    for &e in &selection {
        chosen[e] = true;
    }
    let mut pool: Vec<EdgeId> = (0..g.num_edges()).filter(|&e| !chosen[e]).collect();
    while selection.len() < target && !pool.is_empty() {
        let total: f64 = pool.iter().map(|&e| g.edge_probability(e)).sum();
        let idx = if total <= 0.0 {
            rng.gen_range(0..pool.len())
        } else {
            let mut ticket = rng.gen::<f64>() * total;
            let mut found = pool.len() - 1;
            for (i, &e) in pool.iter().enumerate() {
                ticket -= g.edge_probability(e);
                if ticket <= 0.0 {
                    found = i;
                    break;
                }
            }
            found
        };
        let e = pool.swap_remove(idx);
        selection.push(e);
    }
    selection.sort_unstable();
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> UncertainGraph {
        UncertainGraph::from_edges(
            6,
            [
                (0, 1, 0.9),
                (1, 2, 0.8),
                (2, 3, 0.7),
                (3, 4, 0.6),
                (4, 5, 0.5),
                (5, 0, 0.4),
                (0, 2, 0.3),
                (1, 3, 0.2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn oversized_selection_keeps_highest_probability_edges() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let resized = resize_selection(&g, vec![0, 1, 2, 3, 4, 5, 6, 7], 3, &mut rng);
        assert_eq!(resized, vec![0, 1, 2]);
    }

    #[test]
    fn undersized_selection_is_topped_up_without_duplicates() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(2);
        let resized = resize_selection(&g, vec![7], 5, &mut rng);
        assert_eq!(resized.len(), 5);
        let unique: std::collections::HashSet<_> = resized.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(resized.contains(&7), "existing selection must be preserved");
    }

    #[test]
    fn exact_selection_is_untouched() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(3);
        let resized = resize_selection(&g, vec![3, 1], 2, &mut rng);
        assert_eq!(resized, vec![1, 3]);
    }

    #[test]
    fn duplicates_in_input_are_removed_before_resizing() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(4);
        let resized = resize_selection(&g, vec![2, 2, 2], 2, &mut rng);
        assert_eq!(resized.len(), 2);
        assert!(resized.contains(&2));
    }

    #[test]
    fn target_larger_than_graph_returns_all_edges() {
        let g = graph();
        let mut rng = SmallRng::seed_from_u64(5);
        let resized = resize_selection(&g, vec![], 50, &mut rng);
        assert_eq!(resized.len(), g.num_edges());
    }
}
