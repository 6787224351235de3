//! Ground truth for `GDB` on perfbench's graph shape: `lp_assign` solves
//! Theorem 1's LP, the least `Δ1 = Σ_u |δA(u)|` any assignment of the
//! backbone reaches, so no degree-rule `GDB` run on the same backbone may
//! end below it.  This checks the sweeps against an independent optimum,
//! not against another copy of themselves.
//!
//! The graph is `preferential_attachment(60 000, 4, Fixed(0.09))` with a
//! spanning-forest backbone at α = 0.5, as perfbench's `sparsify_query`
//! builds it; debug builds run 2 000 vertices.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ugs_core::backbone::{build_backbone, BackboneConfig};
use ugs_core::gdb::{gradient_descent_assign, CutRule, GdbConfig};
use ugs_core::lp_assign::lp_assign;
use ugs_core::{DegreeTracker, DiscrepancyKind};
use ugs_datasets::prelude::*;
use uncertain_graph::{EdgeId, UncertainGraph};

/// `Δ1` of an assignment, by a fresh tracker.
fn delta1(g: &UncertainGraph, assignment: &[(EdgeId, f64)]) -> f64 {
    let mut tracker = DegreeTracker::new(g, DiscrepancyKind::Absolute);
    for &(e, p) in assignment {
        let (u, v) = g.edge_endpoints(e);
        tracker.apply_edge_change(u, v, 0.0, p);
    }
    tracker.delta1()
}

#[test]
fn lp_delta1_bounds_every_degree_rule_gdb_on_perfbench_shape() {
    let n = if cfg!(debug_assertions) {
        2_000
    } else {
        60_000
    };
    let mut rng = SmallRng::seed_from_u64(0xBB);
    let g = preferential_attachment(n, 4, ProbabilityModel::Fixed(0.09), &mut rng);
    let backbone = build_backbone(&g, 0.5, &BackboneConfig::spanning(), &mut rng).unwrap();
    let lp = delta1(&g, &lp_assign(&g, &backbone).unwrap().probabilities);
    for discrepancy in [DiscrepancyKind::Absolute, DiscrepancyKind::Relative] {
        for entropy_h in [0.05, 1.0] {
            let config = GdbConfig {
                discrepancy,
                cut_rule: CutRule::Degree,
                entropy_h,
                ..Default::default()
            };
            let gdb = gradient_descent_assign(&g, &backbone, &config).unwrap();
            let gdb = delta1(&g, &gdb.probabilities);
            assert!(
                lp <= gdb + 1e-9,
                "{n} vertices: LP Δ1 = {lp}, GDB Δ1 = {gdb} ({config:?})"
            );
        }
    }
}
