//! Pins the sparsifiers' output bits across commits.
//!
//! Every `GDB` rule (degree, `Cuts(2)`, `AllCuts`) and `EMD` runs over
//! {absolute, relative} × h ∈ {0, 0.05, 1} × {random, spanning} backbones on
//! two seeded graphs, and an FNV-1a hash folds, run by run, the kept edge
//! ids, the probability bits, the objective-trace bits, the iteration count
//! and the swap count.  The libm-dependent `entropy` sum is left out, so the
//! pins hold on any platform whose basic arithmetic is IEEE.
//!
//! A change that is meant to keep every answer (a faster loop, a new
//! layout) must leave these constants alone.  A change that alters answers
//! on purpose re-pins them and says so in CHANGES.md.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_core::backbone::{build_backbone, BackboneConfig};
use ugs_core::emd::{expectation_maximization_sparsify, EmdConfig};
use ugs_core::gdb::{gradient_descent_assign, CutRule, GdbConfig};
use ugs_core::DiscrepancyKind;
use uncertain_graph::{EdgeId, UncertainGraph, UncertainGraphBuilder};

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn run(
        &mut self,
        probabilities: &[(EdgeId, f64)],
        trace: &[f64],
        iterations: usize,
        swaps: usize,
    ) {
        self.word(probabilities.len() as u64);
        for &(e, p) in probabilities {
            self.word(e as u64);
            self.word(p.to_bits());
        }
        self.word(trace.len() as u64);
        for x in trace {
            self.word(x.to_bits());
        }
        self.word(iterations as u64);
        self.word(swaps as u64);
    }
}

/// A ring plus random chords, with probabilities from `probability`.
fn seeded_graph(
    seed: u64,
    n: usize,
    m: usize,
    probability: fn(&mut SmallRng) -> f64,
) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = UncertainGraphBuilder::new(n);
    for u in 0..n {
        let p = probability(&mut rng);
        builder.add_edge(u, (u + 1) % n, p).unwrap();
    }
    let mut added = n;
    while added < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let p = probability(&mut rng);
        if u != v && builder.add_edge_if_absent(u, v, p).unwrap() {
            added += 1;
        }
    }
    builder.build()
}

/// The two pinned graphs: 300 vertices with uniform probabilities, and 500
/// vertices with one fixed probability (perfbench's regime, where many
/// vertices tie on `|δ|`).
fn graphs() -> [UncertainGraph; 2] {
    [
        seeded_graph(0x51A7, 300, 1_200, |rng| 0.05 + 0.9 * rng.gen::<f64>()),
        seeded_graph(0x0909, 500, 2_000, |_| 0.09),
    ]
}

/// The random and the spanning-forest backbone of `g` at α = 0.5.
fn backbones(g: &UncertainGraph) -> [Vec<EdgeId>; 2] {
    [BackboneConfig::random(), BackboneConfig::spanning()]
        .map(|config| build_backbone(g, 0.5, &config, &mut SmallRng::seed_from_u64(11)).unwrap())
}

const KINDS: [DiscrepancyKind; 2] = [DiscrepancyKind::Absolute, DiscrepancyKind::Relative];
const HS: [f64; 3] = [0.0, 0.05, 1.0];

/// The hash of one method over the grid on `g`.
fn grid_hash(g: &UncertainGraph, method: Option<CutRule>) -> u64 {
    let mut hash = Fnv1a::new();
    for backbone in backbones(g) {
        for discrepancy in KINDS {
            for entropy_h in HS {
                match method {
                    Some(cut_rule) => {
                        let config = GdbConfig {
                            discrepancy,
                            cut_rule,
                            entropy_h,
                            ..Default::default()
                        };
                        let run = gradient_descent_assign(g, &backbone, &config).unwrap();
                        hash.run(&run.probabilities, &run.objective_trace, run.iterations, 0);
                    }
                    None => {
                        let config = EmdConfig {
                            discrepancy,
                            entropy_h,
                            ..Default::default()
                        };
                        let run = expectation_maximization_sparsify(g, &backbone, &config).unwrap();
                        hash.run(
                            &run.probabilities,
                            &run.objective_trace,
                            run.iterations,
                            run.swaps,
                        );
                    }
                }
            }
        }
    }
    hash.0
}

/// `[Degree, Cuts(2), AllCuts, EMD]` hashes, one row per graph of
/// [`graphs`], computed at commit `00251b2`.
const PINS: [[u64; 4]; 2] = [
    [
        0x91fe_c864_7e12_e014,
        0xf475_0c26_63bd_4830,
        0x9512_f14a_cecb_eac0,
        0x659d_10cd_7fdb_b470,
    ],
    [
        0xe3db_1ffd_967d_4694,
        0x6e36_4f87_88d8_67f8,
        0x8035_ba03_fabc_0367,
        0x3b94_6586_9276_1422,
    ],
];

/// `method`'s hashes on both graphs equal column `column` of [`PINS`].
fn assert_pinned(name: &str, method: Option<CutRule>, column: usize) {
    let got: Vec<u64> = graphs().iter().map(|g| grid_hash(g, method)).collect();
    let want = [PINS[0][column], PINS[1][column]];
    assert_eq!(got, want, "{name}: got {got:#018x?}");
}

#[test]
fn gdb_degree_rule_bits_are_pinned() {
    assert_pinned("GDB degree", Some(CutRule::Degree), 0);
}

#[test]
fn gdb_two_cut_rule_bits_are_pinned() {
    assert_pinned("GDB Cuts(2)", Some(CutRule::Cuts(2)), 1);
}

#[test]
fn gdb_all_cuts_rule_bits_are_pinned() {
    assert_pinned("GDB AllCuts", Some(CutRule::AllCuts), 2);
}

#[test]
fn emd_bits_are_pinned() {
    assert_pinned("EMD", None, 3);
}
