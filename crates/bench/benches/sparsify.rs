//! Sparsifier benchmark: `EMD` across the paper's sparsification ratios
//! α ∈ {0.3, 0.5, 0.7} on synthetic power-law and forest-fire-sampled
//! topologies, plus `EMD` at α = 0.5 on a 60k-vertex power-law graph.
//! Each row also writes `EMD`'s backbone, materialisation and summed E- and
//! M-phase times, and a full `GDB` run at the row's α on the same graph,
//! timed in the same run as a baseline for reading the row across a
//! drifting host.  Each graph's generation is timed too.  This bench only
//! times; `EMD`'s release-scale correctness check is the paper-faithful
//! oracle in `ugs-core`'s `emd` unit tests (a 2 000-vertex, 8 000-edge case
//! in release builds).  The measured trajectory is written to
//! `BENCH_sparsify.json` at the repository root so successive changes can
//! track it.

use std::time::Duration;

use minijson::{ObjBuilder, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_bench::harness::{fastest, write_bench_json};
use ugs_core::prelude::*;
use ugs_datasets::prelude::*;

/// Timed runs per row; the fastest is kept.
const RUNS: usize = 3;

/// Preferential-attachment graph with the workspace's canonical uniform
/// probability model (matching the `0.05 + 0.9·u` generators used across
/// the test suites).
fn powerlaw_uniform(num_vertices: usize) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xBB);
    preferential_attachment(
        num_vertices,
        4,
        ProbabilityModel::Uniform {
            low: 0.05,
            high: 0.95,
        },
        &mut rng,
    )
}

/// 12k-vertex power-law graph in the paper's low-probability Flickr regime.
fn powerlaw_flickr() -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xBB);
    preferential_attachment(12_000, 4, ProbabilityModel::FlickrLike, &mut rng)
}

/// Forest-fire sample of a denser power-law graph (the paper's
/// graph-reduction pipeline, Table 2).
fn forest_fire_graph() -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xFF);
    let source = preferential_attachment(9_000, 5, ProbabilityModel::TwitterLike, &mut rng);
    forest_fire_sample(&source, 3_000, 0.7, &mut rng).0
}

/// The graph named `name`, after recording the fastest of `RUNS`
/// generations of it.
fn generate(
    generation: &mut Vec<(&'static str, Duration)>,
    name: &'static str,
    generator: impl Fn() -> UncertainGraph,
) -> (&'static str, UncertainGraph) {
    let generate = fastest(RUNS, &generator);
    println!("{name:<20} generate {generate:>10.2?}");
    generation.push((name, generate));
    (name, generator())
}

/// Runs `spec` once with a fixed seed and warm scratch, returning the output.
fn run_once(
    spec: &SparsifierSpec,
    g: &UncertainGraph,
    scratch: &mut CoreScratch,
) -> ugs_core::SparsifyOutput {
    let mut rng = SmallRng::seed_from_u64(1);
    spec.sparsify_with(g, &mut rng, scratch).expect("sparsify")
}

struct Measurement {
    graph: &'static str,
    alpha: f64,
    emd: Duration,
    backbone: Duration,
    e_phase: Duration,
    m_phase: Duration,
    materialise: Duration,
    gdb: Duration,
}

/// Times `EMD` on `g` at `alpha` and records the measurement: the fastest
/// full run, the fastest of the runs' backbones, summed E-phases and
/// M-phases and materialisations, and the fastest full `GDB` run.
fn measure(
    results: &mut Vec<Measurement>,
    scratch: &mut CoreScratch,
    graph_name: &'static str,
    g: &UncertainGraph,
    alpha: f64,
) {
    let spec = SparsifierSpec::emd().alpha(alpha).max_iterations(8);
    let mut phases = Vec::new();
    let emd = fastest(RUNS, || {
        let output = run_once(&spec, g, scratch);
        phases.push(output.diagnostics.phases);
        output
    });
    let fastest_phase = |phase: fn(&PhaseTimings) -> Duration| {
        phases.iter().map(phase).min().expect("at least one run")
    };
    let backbone = fastest_phase(|p| p.backbone);
    let e_phase = fastest_phase(|p| p.e_phase);
    let m_phase = fastest_phase(|p| p.m_phase);
    let materialise = fastest_phase(|p| p.materialize);
    let gdb_spec = SparsifierSpec::gdb().alpha(alpha).max_iterations(8);
    let gdb = fastest(RUNS, || run_once(&gdb_spec, g, scratch));
    println!(
        "{graph_name:<20} EMD  α={alpha:<4} {emd:>10.2?}  (backbone {backbone:>9.2?}, \
         E {e_phase:>9.2?}, M {m_phase:>9.2?}, materialise {materialise:>9.2?})  \
         GDB {gdb:>9.2?}"
    );
    results.push(Measurement {
        graph: graph_name,
        alpha,
        emd,
        backbone,
        e_phase,
        m_phase,
        materialise,
        gdb,
    });
}

fn main() {
    let mut scratch = CoreScratch::new();
    let mut results: Vec<Measurement> = Vec::new();
    let mut generation: Vec<(&'static str, Duration)> = Vec::new();

    // Full α grid on the mid-size topologies.
    let graphs = [
        generate(&mut generation, "powerlaw_uniform_12k", || {
            powerlaw_uniform(12_000)
        }),
        generate(&mut generation, "powerlaw_flickr_12k", powerlaw_flickr),
        generate(&mut generation, "forest_fire_3k", forest_fire_graph),
    ];
    for (graph_name, g) in &graphs {
        for alpha in [0.3, 0.5, 0.7] {
            measure(&mut results, &mut scratch, graph_name, g, alpha);
        }
    }

    // EMD at α = 0.5 on a 60k-vertex power-law graph.
    let (big_name, big) = generate(&mut generation, "powerlaw_uniform_60k", || {
        powerlaw_uniform(60_000)
    });
    measure(&mut results, &mut scratch, big_name, &big, 0.5);

    let rows = results
        .iter()
        .map(|m| {
            ObjBuilder::new()
                .field("graph", m.graph)
                .field("method", "EMD")
                .field("alpha", m.alpha)
                .field("emd_ns", m.emd.as_nanos() as f64)
                .field("backbone_ns", m.backbone.as_nanos() as f64)
                .field("e_phase_ns", m.e_phase.as_nanos() as f64)
                .field("m_phase_ns", m.m_phase.as_nanos() as f64)
                .field("materialise_ns", m.materialise.as_nanos() as f64)
                .field("gdb_ns", m.gdb.as_nanos() as f64)
                .build()
        })
        .collect();
    let generation = generation
        .iter()
        .map(|&(graph, generate)| {
            ObjBuilder::new()
                .field("graph", graph)
                .field("generate_ns", generate.as_nanos() as f64)
                .build()
        })
        .collect();
    write_bench_json(
        "sparsify",
        ObjBuilder::new()
            .field(
                "graphs",
                "powerlaw_uniform_* = preferential_attachment(N vertices, 4 edges/vertex, \
                 Uniform(0.05, 0.95)); powerlaw_flickr_12k = same topology with FlickrLike \
                 probabilities; forest_fire_3k = forest_fire_sample(3000 vertices of a \
                 9000-vertex TwitterLike power-law, burn 0.7)",
            )
            .field(
                "unit",
                "ns per full sparsification (backbone + optimise + materialise), \
                 max_iterations = 8",
            )
            .field("runs", RUNS)
            .field(
                "notes",
                "One EMD implementation: an in-place 8-ary vertex heap updated once per \
                 touched vertex per step, slot-ordered E-phase and GDB sweeps, and \
                 CoreScratch reuse across runs. No parity check runs here; the release \
                 oracle check is ugs-core's emd unit tests (2000 vertices, 8000 edges). \
                 emd_ns is the fastest of `runs` runs on one warm scratch; backbone_ns, \
                 e_phase_ns, m_phase_ns and materialise_ns are the fastest of the same \
                 runs' backbone builds, summed E-phases and M-phases, and \
                 materialisations. gdb_ns is the fastest of `runs` full GDB runs \
                 (SparsifierSpec::gdb(), same alpha, max_iterations = 8; backbone, sweeps \
                 and materialisation) on the same graph in the same process: divide a row \
                 by it to compare rows across runs of this bench on a drifting host. \
                 generation[].generate_ns is the fastest of `runs` generations of each graph",
            )
            .field("generation", Value::Arr(generation))
            .field("results", Value::Arr(rows))
            .build(),
    );
}
