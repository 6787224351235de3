//! Optimal probability assignment for `Δ1` via linear programming
//! (Section 4.1, Theorem 1).
//!
//! Lemma 1 shows an optimal assignment never exceeds the original expected
//! degrees, so minimising `Δ1 = Σ_u |d_u − d'_u|` over a fixed backbone is
//! equivalent to the LP
//!
//! ```text
//!   maximise   Σ_e p'_e
//!   subject to A_b p' ≤ d      (incidence matrix of the backbone)
//!              0 ≤ p'_e ≤ 1
//! ```
//!
//! The paper treats this LP as the accuracy reference (Table 2) but notes it
//! is far too slow for large graphs — which our experiments confirm; it is
//! intended for reduced-scale runs only.

use uncertain_graph::{EdgeId, UncertainGraph};

use crate::error::SparsifyError;
use crate::gdb::validate_backbone;
use lp_solver::{LpProblem, LpStatus};

/// Output of the LP probability assignment.
#[derive(Debug, Clone)]
pub struct LpAssignResult {
    /// Final probability of every backbone edge (same order as the input
    /// backbone).  Values may be exactly 0; callers materialising an
    /// uncertain graph floor them at a tiny positive value.
    pub probabilities: Vec<(EdgeId, f64)>,
    /// Objective value `Σ_e p'_e` reached by the LP.
    pub total_probability: f64,
    /// Number of simplex pivots.
    pub pivots: usize,
}

/// Computes the `Δ1`-optimal probability assignment for the backbone
/// (Theorem 1).  The backbone edge ids must be distinct and valid for `g`,
/// as for `GDB`.
pub fn lp_assign(g: &UncertainGraph, backbone: &[EdgeId]) -> Result<LpAssignResult, SparsifyError> {
    validate_backbone(g, backbone, &mut Vec::new())?;

    let degrees = g.expected_degrees();
    let mut problem = LpProblem::new(backbone.len());
    // Objective: maximise Σ p'_e; box constraints 0 ≤ p' ≤ 1.
    for var in 0..backbone.len() {
        problem
            .set_objective(var, 1.0)
            .map_err(|e| SparsifyError::Lp(e.to_string()))?;
        problem
            .set_upper_bound(var, 1.0)
            .map_err(|e| SparsifyError::Lp(e.to_string()))?;
    }
    // One row per vertex touched by the backbone: Σ_{e ∋ u} p'_e ≤ d_u.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); g.num_vertices()];
    for (var, &e) in backbone.iter().enumerate() {
        let (u, v) = g.edge_endpoints(e);
        rows[u].push((var, 1.0));
        rows[v].push((var, 1.0));
    }
    for (u, row) in rows.iter().enumerate() {
        if !row.is_empty() {
            problem
                .add_le_constraint(row, degrees[u])
                .map_err(|e| SparsifyError::Lp(e.to_string()))?;
        }
    }

    let solution = lp_solver::solve(&problem).map_err(|e| SparsifyError::Lp(e.to_string()))?;
    if solution.status != LpStatus::Optimal {
        return Err(SparsifyError::Lp(format!(
            "unexpected LP status {:?}",
            solution.status
        )));
    }
    let probabilities = backbone
        .iter()
        .zip(solution.values.iter())
        .map(|(&e, &p)| (e, p.clamp(0.0, 1.0)))
        .collect();
    Ok(LpAssignResult {
        probabilities,
        total_probability: solution.objective,
        pivots: solution.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrepancy::{DegreeTracker, DiscrepancyKind};
    use crate::gdb::{gradient_descent_assign, GdbConfig};

    fn figure2_graph() -> (UncertainGraph, Vec<EdgeId>) {
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 3, 0.2),
                (2, 3, 0.1),
            ],
        )
        .unwrap();
        (g, vec![2, 3, 4])
    }

    fn delta1(g: &UncertainGraph, assignment: &[(EdgeId, f64)]) -> f64 {
        let mut tracker = DegreeTracker::new(g, DiscrepancyKind::Absolute);
        for &(e, p) in assignment {
            let (u, v) = g.edge_endpoints(e);
            tracker.apply_edge_change(u, v, 0.0, p);
        }
        tracker.delta1()
    }

    #[test]
    fn lp_solution_respects_degree_caps_and_bounds() {
        let (g, backbone) = figure2_graph();
        let result = lp_assign(&g, &backbone).unwrap();
        assert_eq!(result.probabilities.len(), 3);
        let degrees = g.expected_degrees();
        let mut new_degrees = vec![0.0; g.num_vertices()];
        for &(e, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
            let (u, v) = g.edge_endpoints(e);
            new_degrees[u] += p;
            new_degrees[v] += p;
        }
        // Lemma 1: no vertex exceeds its original expected degree.
        for u in g.vertices() {
            assert!(new_degrees[u] <= degrees[u] + 1e-6, "vertex {u}");
        }
    }

    #[test]
    fn lp_is_at_least_as_good_as_gdb_for_delta1() {
        let (g, backbone) = figure2_graph();
        let lp = lp_assign(&g, &backbone).unwrap();
        let gdb = gradient_descent_assign(
            &g,
            &backbone,
            &GdbConfig {
                entropy_h: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let lp_delta1 = delta1(&g, &lp.probabilities);
        let gdb_delta1 = delta1(&g, &gdb.probabilities);
        assert!(
            lp_delta1 <= gdb_delta1 + 1e-6,
            "LP Δ1 = {lp_delta1}, GDB Δ1 = {gdb_delta1}"
        );
    }

    #[test]
    fn lp_matches_hand_computed_optimum_on_the_paper_backbone() {
        // For the Figure 2 backbone (three edges incident to u4, degree cap
        // d(u4) = 0.5) the best Δ1 assignment puts total probability 0.5 on
        // the star: Δ1 = |0.8-a| + |0.6-b| + |0.3-c| + 0 with a+b+c = 0.5
        // and a,b,c ≤ their other endpoints' caps — total objective Σp = 0.5.
        let (g, backbone) = figure2_graph();
        let result = lp_assign(&g, &backbone).unwrap();
        assert!((result.total_probability - 0.5).abs() < 1e-6);
        let d1 = delta1(&g, &result.probabilities);
        // Δ1 = (0.8+0.6+0.3) - 0.5 (mass placed on u1..u3 side) - 0.5 (u4)
        assert!((d1 - 1.2).abs() < 1e-6, "Δ1 = {d1}");
    }

    #[test]
    fn full_backbone_recovers_probabilities_with_zero_discrepancy_bound() {
        // When the backbone is the whole edge set, the optimum saturates all
        // degree constraints and Δ1 = 0; the LP objective equals the total
        // original probability mass.
        let g = UncertainGraph::from_edges(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9)]).unwrap();
        let backbone = vec![0, 1, 2];
        let result = lp_assign(&g, &backbone).unwrap();
        assert!((result.total_probability - g.expected_num_edges()).abs() < 1e-6);
        assert!(delta1(&g, &result.probabilities) < 1e-6);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (g, _) = figure2_graph();
        assert!(matches!(lp_assign(&g, &[]), Err(SparsifyError::EmptyGraph)));
        assert!(matches!(lp_assign(&g, &[42]), Err(SparsifyError::Graph(_))));
    }
}
