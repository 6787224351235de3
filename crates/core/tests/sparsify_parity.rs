//! Scratch-reuse parity suite: a `GDB` run on a warm [`CoreScratch`] must
//! match a run on a fresh one **bit for bit** — probabilities, objective
//! traces, iteration counts and entropies — across seeds × kinds ×
//! {Degree, Cuts(2), AllCuts} × h ∈ {0.0, 0.05, 1.0}; spec-level runs and
//! the backbone builder must agree between `sparsify` and a warm
//! `sparsify_with`.  (`EMD` is checked against a paper-faithful oracle by
//! the unit tests in `src/emd.rs`.)
//!
//! The suite also proves that scratch reuse cannot leak state between runs:
//! a single [`CoreScratch`] driven across many different graphs and configs
//! produces the same bits as a fresh scratch per run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_core::backbone::{build_backbone, build_backbone_into, BackboneConfig};
use ugs_core::emd::{expectation_maximization_sparsify_with, EmdConfig, EmdResult};
use ugs_core::gdb::{gradient_descent_assign_with, CutRule, GdbConfig, GdbResult};
use ugs_core::prelude::*;
use uncertain_graph::{EdgeId, UncertainGraph, UncertainGraphBuilder};

const SEEDS: [u64; 3] = [1, 7, 23];
const KINDS: [DiscrepancyKind; 2] = [DiscrepancyKind::Absolute, DiscrepancyKind::Relative];
const RULES: [CutRule; 3] = [CutRule::Degree, CutRule::Cuts(2), CutRule::AllCuts];
const HS: [f64; 3] = [0.0, 0.05, 1.0];

fn random_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = UncertainGraphBuilder::new(n);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, 0.1 + 0.8 * rng.gen::<f64>())
            .unwrap();
    }
    let mut added = n;
    while added < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v
            && b.add_edge_if_absent(u, v, 0.05 + 0.9 * rng.gen::<f64>())
                .unwrap()
        {
            added += 1;
        }
    }
    b.build()
}

fn backbone_for(g: &UncertainGraph, seed: u64, alpha: f64) -> Vec<EdgeId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    build_backbone(g, alpha, &BackboneConfig::spanning(), &mut rng).unwrap()
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn assert_gdb_identical(expected: &GdbResult, got: &GdbResult, context: &str) {
    assert_eq!(expected.iterations, got.iterations, "{context}");
    assert_eq!(
        expected.probabilities.len(),
        got.probabilities.len(),
        "{context}"
    );
    for (e, g) in expected.probabilities.iter().zip(got.probabilities.iter()) {
        assert_eq!(e.0, g.0, "{context}: edge order");
        assert_eq!(
            e.1.to_bits(),
            g.1.to_bits(),
            "{context}: edge {} probability {} vs {}",
            e.0,
            e.1,
            g.1
        );
    }
    assert_eq!(
        bits(expected.objective_trace.iter().copied()),
        bits(got.objective_trace.iter().copied()),
        "{context}: objective trace"
    );
    assert_eq!(
        expected.entropy.to_bits(),
        got.entropy.to_bits(),
        "{context}: entropy"
    );
}

fn assert_emd_identical(expected: &EmdResult, got: &EmdResult, context: &str) {
    assert_eq!(expected.iterations, got.iterations, "{context}");
    assert_eq!(expected.swaps, got.swaps, "{context}: swaps");
    assert_eq!(
        expected.probabilities.len(),
        got.probabilities.len(),
        "{context}"
    );
    for (e, g) in expected.probabilities.iter().zip(got.probabilities.iter()) {
        assert_eq!(e.0, g.0, "{context}: edge order (swap bookkeeping)");
        assert_eq!(
            e.1.to_bits(),
            g.1.to_bits(),
            "{context}: edge {} probability",
            e.0
        );
    }
    assert_eq!(
        bits(expected.objective_trace.iter().copied()),
        bits(got.objective_trace.iter().copied()),
        "{context}: objective trace"
    );
    assert_eq!(
        expected.entropy.to_bits(),
        got.entropy.to_bits(),
        "{context}: entropy"
    );
}

#[test]
fn gdb_warm_scratch_matches_a_fresh_one_across_the_grid() {
    let mut warm = CoreScratch::new();
    for seed in SEEDS {
        let g = random_graph(seed, 40, 160);
        let backbone = backbone_for(&g, seed, 0.35);
        for kind in KINDS {
            for rule in RULES {
                for h in HS {
                    let context = format!("seed {seed}, {kind:?}, {rule:?}, h={h}");
                    let config = GdbConfig {
                        discrepancy: kind,
                        cut_rule: rule,
                        entropy_h: h,
                        ..Default::default()
                    };
                    let fresh = gradient_descent_assign_with(
                        &g,
                        &backbone,
                        &config,
                        &mut CoreScratch::new(),
                    )
                    .unwrap();
                    let reused =
                        gradient_descent_assign_with(&g, &backbone, &config, &mut warm).unwrap();
                    assert_gdb_identical(&fresh, &reused, &context);
                }
            }
        }
    }
}

#[test]
fn spec_level_runs_agree_between_fresh_and_warm_scratch() {
    // End-to-end through SparsifierSpec: `sparsify` (a fresh scratch per
    // call) and `sparsify_with` on one warm scratch must produce identical
    // graphs and diagnostics for the same RNG seed.
    let mut warm = CoreScratch::new();
    for seed in SEEDS {
        let g = random_graph(seed + 200, 50, 200);
        for spec in [
            SparsifierSpec::gdb().alpha(0.3).entropy_h(0.05),
            SparsifierSpec::gdb()
                .alpha(0.4)
                .discrepancy(DiscrepancyKind::Relative)
                .cut_rule(CutRule::Cuts(2)),
            SparsifierSpec::emd().alpha(0.3),
            SparsifierSpec::emd()
                .alpha(0.5)
                .discrepancy(DiscrepancyKind::Relative)
                .entropy_h(1.0),
        ] {
            let fresh = spec
                .sparsify(&g, &mut SmallRng::seed_from_u64(seed))
                .unwrap();
            let reused = spec
                .sparsify_with(&g, &mut SmallRng::seed_from_u64(seed), &mut warm)
                .unwrap();
            let name = spec.display_name();
            assert_eq!(fresh.graph.num_edges(), reused.graph.num_edges(), "{name}");
            for (a, b) in fresh.graph.edges().zip(reused.graph.edges()) {
                assert_eq!((a.u, a.v), (b.u, b.v), "{name}");
                assert_eq!(a.p.to_bits(), b.p.to_bits(), "{name}");
            }
            assert_eq!(fresh.diagnostics.iterations, reused.diagnostics.iterations);
            assert_eq!(fresh.diagnostics.swaps, reused.diagnostics.swaps);
            assert_eq!(
                bits(fresh.diagnostics.objective_trace.iter().copied()),
                bits(reused.diagnostics.objective_trace.iter().copied())
            );
        }
    }
}

#[test]
fn backbone_into_matches_the_allocating_builder() {
    // The scratch-reusing builder must consume the RNG identically and
    // produce the same edges, for every backbone kind, even with a polluted
    // scratch.
    let mut scratch = CoreScratch::new();
    for seed in SEEDS {
        let g = random_graph(seed + 300, 30, 120);
        for kind in [
            BackboneKind::Random,
            BackboneKind::SpanningForests,
            BackboneKind::LocalDegree,
        ] {
            for alpha in [0.15, 0.4, 0.8] {
                let config = BackboneConfig {
                    kind,
                    ..Default::default()
                };
                let fresh =
                    build_backbone(&g, alpha, &config, &mut SmallRng::seed_from_u64(seed)).unwrap();
                let mut reused = Vec::new();
                build_backbone_into(
                    &g,
                    alpha,
                    &config,
                    &mut SmallRng::seed_from_u64(seed),
                    &mut scratch,
                    &mut reused,
                )
                .unwrap();
                assert_eq!(fresh, reused, "{kind:?}, alpha {alpha}, seed {seed}");
            }
        }
    }
}

#[test]
fn scratch_reuse_cannot_leak_state_between_runs() {
    // Drive one scratch across wildly different graphs, methods and configs;
    // every run must match a run with a brand-new scratch bit for bit.
    let mut warm = CoreScratch::new();
    for (index, (n, m)) in [(12usize, 30usize), (60, 240), (25, 80), (40, 300)]
        .iter()
        .enumerate()
    {
        let seed = index as u64;
        let g = random_graph(seed + 400, *n, *m);
        let backbone = backbone_for(&g, seed, 0.4);
        let gdb_config = GdbConfig {
            discrepancy: KINDS[index % 2],
            cut_rule: RULES[index % 3],
            entropy_h: HS[index % 3],
            ..Default::default()
        };
        let warm_gdb = gradient_descent_assign_with(&g, &backbone, &gdb_config, &mut warm).unwrap();
        let cold_gdb =
            gradient_descent_assign_with(&g, &backbone, &gdb_config, &mut CoreScratch::new())
                .unwrap();
        assert_gdb_identical(&cold_gdb, &warm_gdb, &format!("gdb run {index}"));

        let emd_config = EmdConfig {
            discrepancy: KINDS[(index + 1) % 2],
            entropy_h: HS[(index + 1) % 3],
            ..Default::default()
        };
        let warm_emd =
            expectation_maximization_sparsify_with(&g, &backbone, &emd_config, &mut warm).unwrap();
        let cold_emd = expectation_maximization_sparsify_with(
            &g,
            &backbone,
            &emd_config,
            &mut CoreScratch::new(),
        )
        .unwrap();
        assert_emd_identical(&cold_emd, &warm_emd, &format!("emd run {index}"));
    }
}
