//! Degree discrepancies (`δA`, `δR`) and the incremental tracker shared by
//! `GDB`, `EMD` and the evaluation metrics.
//!
//! For a vertex set `S`, the paper defines the *absolute discrepancy*
//! `δA(S) = C_G(S) − C_G'(S)` (difference of expected cut sizes) and the
//! *relative discrepancy* `δR(S) = δA(S) / C_G(S)`.  For `k = 1` the set `S`
//! is a single vertex and the expected cut size is simply the expected
//! degree, so minimising `Δ1` preserves expected degrees.
//!
//! [`DegreeTracker`] maintains, for a candidate sparsified assignment, the
//! per-vertex absolute discrepancies `δA(u)`, updating them in `O(1)` per
//! edge-probability change, and evaluates the objective `D1 = Σ_u δ(u)²`
//! (with `δ` either absolute or relative) from them in `O(|V|)`.  This is the
//! inner loop of both proposed sparsifiers.

use uncertain_graph::{UncertainGraph, VertexId};

/// Which discrepancy the objective targets.
///
/// The paper's variants are denoted with `A` / `R` superscripts (e.g.
/// `GDB^A`, `EMD^R`): the absolute discrepancy emphasises high-degree
/// vertices (large absolute errors), while the relative discrepancy treats
/// all degrees equally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscrepancyKind {
    /// Absolute discrepancy `δA(u) = d_G(u) − d_G'(u)`.
    #[default]
    Absolute,
    /// Relative discrepancy `δR(u) = δA(u) / d_G(u)`.
    Relative,
}

impl DiscrepancyKind {
    /// The weight `π(u)` of Equation 7: 1 for the absolute discrepancy and
    /// the original expected degree `C_G(u)` for the relative one.
    pub(crate) fn pi(&self, original_expected_degree: f64) -> f64 {
        match self {
            DiscrepancyKind::Absolute => 1.0,
            DiscrepancyKind::Relative => original_expected_degree,
        }
    }
}

/// Incremental tracker of per-vertex degree discrepancies for a candidate
/// probability assignment.
///
/// The tracker starts from the *empty* assignment (no edges kept), in which
/// `δA(u) = d_G(u)` for every vertex, and is updated through
/// [`DegreeTracker::apply_edge_change`] as edges are added, removed or have
/// their probability tuned.
#[derive(Debug, Clone, Default)]
pub struct DegreeTracker {
    /// Expected degrees in the original graph (`d` in the paper).
    original: Vec<f64>,
    /// Current absolute discrepancies `δA(u) = d_G(u) − d_G'(u)`.
    delta: Vec<f64>,
    kind: DiscrepancyKind,
}

impl DegreeTracker {
    /// Creates a tracker for graph `g` with the empty assignment
    /// (`d_G'(u) = 0` everywhere).
    pub fn new(g: &UncertainGraph, kind: DiscrepancyKind) -> Self {
        let mut tracker = DegreeTracker::default();
        tracker.reset(g, kind);
        tracker
    }

    /// Re-initialises the tracker for graph `g` with the empty assignment,
    /// reusing the existing buffers (no allocation once the capacity fits).
    /// The resulting state is bit-identical to [`DegreeTracker::new`].
    pub(crate) fn reset(&mut self, g: &UncertainGraph, kind: DiscrepancyKind) {
        let n = g.num_vertices();
        self.original.clear();
        self.original.resize(n, 0.0);
        for e in g.edges() {
            self.original[e.u] += e.p;
            self.original[e.v] += e.p;
        }
        self.delta.clear();
        self.delta.extend_from_slice(&self.original);
        self.kind = kind;
    }

    /// Re-initialises the tracker to the empty assignment of `other`'s graph
    /// and kind, copying its original degrees instead of folding the graph
    /// again: bit for bit what [`DegreeTracker::reset`] gives for that graph
    /// and kind, without allocating once the capacity fits.
    pub(crate) fn reset_from(&mut self, other: &DegreeTracker) {
        self.original.clone_from(&other.original);
        self.delta.clone_from(&other.original);
        self.kind = other.kind;
    }

    /// Current absolute discrepancy `δA(u)`.
    #[inline]
    pub(crate) fn delta_abs(&self, u: VertexId) -> f64 {
        self.delta[u]
    }

    /// Current discrepancy in the tracker's own kind: `δA(u)` for
    /// [`DiscrepancyKind::Absolute`], `δA(u)/d_G(u)` for
    /// [`DiscrepancyKind::Relative`] (0 when `d_G(u) = 0`).
    #[inline]
    pub(crate) fn delta(&self, u: VertexId) -> f64 {
        match self.kind {
            DiscrepancyKind::Absolute => self.delta[u],
            DiscrepancyKind::Relative => {
                if self.original[u] > 0.0 {
                    self.delta[u] / self.original[u]
                } else {
                    0.0
                }
            }
        }
    }

    /// The weight `π(u)` of Equation 7 for this tracker's discrepancy kind.
    #[inline]
    pub(crate) fn pi(&self, u: VertexId) -> f64 {
        self.kind.pi(self.original[u])
    }

    /// Records that the probability of an edge `(u, v)` changed from
    /// `old_p` to `new_p` in the candidate assignment (use `old_p = 0` for a
    /// newly added edge and `new_p = 0` for a removed edge).  A zero shift
    /// leaves the discrepancies untouched.
    #[inline]
    pub fn apply_edge_change(&mut self, u: VertexId, v: VertexId, old_p: f64, new_p: f64) {
        let shift = old_p - new_p;
        if shift != 0.0 {
            self.delta[u] += shift;
            self.delta[v] += shift;
        }
    }

    /// The objective `D1 = Σ_u δ(u)²` (Section 4.2), using the tracker's
    /// discrepancy kind.
    pub(crate) fn objective(&self) -> f64 {
        (0..self.original.len())
            .map(|u| self.delta(u).powi(2))
            .sum()
    }

    /// Sum of absolute values `Δ1 = Σ_u |δ(u)|` (the quantity Problem 1
    /// minimises for `k = 1`).
    pub fn delta1(&self) -> f64 {
        (0..self.original.len()).map(|u| self.delta(u).abs()).sum()
    }

    /// Total probability mass still missing from the candidate assignment,
    /// `Σ_e (p_e − p̂_e) = ½ Σ_u δA(u)`.  Used by the cut-preserving update
    /// rules (term `Δ̂(e)` of Equation 13).
    pub(crate) fn total_deficit(&self) -> f64 {
        self.delta.iter().sum::<f64>() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_graph::UncertainGraph;

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4),
                (1, 2, 0.2),
                (2, 3, 0.4),
                (0, 3, 0.2),
                (0, 2, 0.1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_assignment_has_delta_equal_to_degrees() {
        let g = toy();
        let t = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        for u in g.vertices() {
            assert!((t.delta_abs(u) - g.expected_degree(u)).abs() < 1e-12);
            assert!((t.delta(u) - g.expected_degree(u)).abs() < 1e-12);
        }
        assert!((t.total_deficit() - g.expected_num_edges()).abs() < 1e-12);
        assert_eq!(t.original.len(), 4);
        assert_eq!(t.kind, DiscrepancyKind::Absolute);
    }

    #[test]
    fn applying_full_original_assignment_zeroes_discrepancy() {
        let g = toy();
        let mut t = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        for e in g.edges() {
            t.apply_edge_change(e.u, e.v, 0.0, e.p);
        }
        assert!(t.objective() < 1e-20);
        assert!(t.delta1() < 1e-10);
        assert!(t.total_deficit().abs() < 1e-12);
    }

    #[test]
    fn edge_change_moves_only_its_endpoints() {
        let g = toy();
        let mut t = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        let before: Vec<f64> = (0..4).map(|u| t.delta_abs(u)).collect();
        t.apply_edge_change(0, 1, 0.0, 0.4);
        assert!((t.delta_abs(0) - (before[0] - 0.4)).abs() < 1e-12);
        assert!((t.delta_abs(1) - (before[1] - 0.4)).abs() < 1e-12);
        assert!((t.delta_abs(2) - before[2]).abs() < 1e-12);
        assert!((t.delta_abs(3) - before[3]).abs() < 1e-12);
        // now undo it
        t.apply_edge_change(0, 1, 0.4, 0.0);
        for (u, &b) in before.iter().enumerate() {
            assert!((t.delta_abs(u) - b).abs() < 1e-12);
        }
    }

    #[test]
    fn relative_discrepancy_scales_by_original_degree() {
        let g = toy();
        let mut t = DegreeTracker::new(&g, DiscrepancyKind::Relative);
        t.apply_edge_change(0, 1, 0.0, 0.4);
        let d0 = g.expected_degree(0);
        assert!((t.delta(0) - (d0 - 0.4) / d0).abs() < 1e-12);
        assert_eq!(t.kind, DiscrepancyKind::Relative);
        assert!((t.pi(0) - d0).abs() < 1e-12);
        // absolute π is 1
        let ta = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        assert_eq!(ta.pi(0), 1.0);
    }

    #[test]
    fn relative_discrepancy_of_isolated_vertex_is_zero() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5)]).unwrap();
        let t = DegreeTracker::new(&g, DiscrepancyKind::Relative);
        assert_eq!(t.delta(2), 0.0);
        assert_eq!(t.pi(2), 0.0);
    }

    #[test]
    fn objective_matches_manual_computation() {
        let g = toy();
        let mut t = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        t.apply_edge_change(0, 1, 0.0, 0.3);
        let manual: f64 = (0..4).map(|u| t.delta(u).powi(2)).sum();
        assert!((t.objective() - manual).abs() < 1e-12);
    }

    #[test]
    fn reset_matches_fresh_tracker_bit_for_bit() {
        let g = toy();
        let fresh = DegreeTracker::new(&g, DiscrepancyKind::Relative);
        let mut reused = DegreeTracker::new(&g, DiscrepancyKind::Absolute);
        reused.apply_edge_change(0, 1, 0.0, 0.9);
        reused.reset(&g, DiscrepancyKind::Relative);
        assert_eq!(reused.kind, DiscrepancyKind::Relative);
        for u in g.vertices() {
            assert_eq!(fresh.delta_abs(u).to_bits(), reused.delta_abs(u).to_bits());
            assert_eq!(fresh.original[u].to_bits(), reused.original[u].to_bits());
        }
        assert_eq!(fresh.objective().to_bits(), reused.objective().to_bits());
    }
}
