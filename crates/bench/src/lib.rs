//! # ugs-bench
//!
//! Experiment harness regenerating **every table and figure** of the paper's
//! evaluation (Section 6), plus five benchmarks for the runtime claims.
//!
//! * The accuracy/entropy/variance experiments live in [`experiments`]; each
//!   `run_*` function corresponds to one table or figure and returns
//!   [`ugs_metrics::ExperimentReport`]s whose rows/series match what the
//!   paper plots.  The thin binaries in `src/bin/exp_*.rs` print them.
//! * The benches under `benches/` are plain `main` programs
//!   (`harness = false`): `mc_engine`, `batch_queries`, `sparsify`,
//!   `adaptive` and `dist`.  Each bench with a second path to compare
//!   asserts its parity checks before timing anything; every bench times
//!   with [`harness::fastest`] and records the result with
//!   [`harness::write_bench_json`] as `BENCH_{mc,batch,sparsify,
//!   adaptive,dist}.json` at the repository root.
//!
//! The real Flickr/Twitter datasets are replaced by the statistical
//! look-alikes from `ugs-datasets` (its crate docs give the substitution
//! argument); experiments default
//! to the `small` scale so a full sweep finishes on a laptop.  Set
//! `UGS_SCALE=tiny|small|medium|paper` (or pass `--scale <name>` to the
//! binaries) to change the scale, and `UGS_SEED` to change the RNG seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

/// Timing and recording shared by the benches under `benches/`.
pub mod harness {
    use std::time::{Duration, Instant};

    use minijson::Value;

    /// The fastest of `runs` calls of `f`.  Load on the host only ever adds
    /// time, so the minimum is the least disturbed measurement, and it
    /// discards a first, cold call by itself.
    pub fn fastest<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
        (0..runs.max(1))
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(f());
                started.elapsed()
            })
            .min()
            .expect("at least one run")
    }

    /// Writes `fields` (a JSON object) as `BENCH_<name>.json` at the
    /// repository root, pretty-printed, after a `"benchmark"` and a
    /// `"cores"` field, and prints the path.
    pub fn write_bench_json(name: &str, fields: Value) {
        let Value::Obj(fields) = fields else {
            panic!("BENCH_{name}.json: the fields must form a JSON object");
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut entries = vec![
            ("benchmark".to_string(), Value::from(name)),
            ("cores".to_string(), Value::from(cores)),
        ];
        entries.extend(fields);
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = Value::Obj(entries).pretty() + "\n";
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
        println!("wrote {path}");
    }
}

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ugs_baselines::prelude::*;
use ugs_core::prelude::*;
use ugs_datasets::prelude::*;
use uncertain_graph::UncertainGraph;

/// Knobs shared by every experiment: dataset scale, Monte-Carlo effort and
/// sweep ranges, sized so the default (`small`) run finishes in minutes and
/// the `tiny` run in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Sparsification ratios, in percent (the paper sweeps 8–64 %).
    pub(crate) alphas_percent: Vec<f64>,
    /// Worlds per Monte-Carlo query evaluation (the paper uses 500).
    pub(crate) num_worlds: usize,
    /// Vertex pairs for SP / RL queries (the paper uses 1 000).
    pub(crate) num_pairs: usize,
    /// Random cuts for the cut-discrepancy MAE (the paper uses 1 000 per
    /// cardinality; we sample this many cuts with random cardinalities).
    pub(crate) num_cuts: usize,
    /// Repetitions of each estimator for the variance experiment
    /// (the paper uses 100).
    pub(crate) variance_repetitions: usize,
    /// Worlds per estimator run inside the variance experiment.
    pub(crate) variance_worlds: usize,
    /// Number of vertices of the Forest-Fire-reduced graph, the paper's
    /// reduction for Table 2 and Figures 4–5.
    pub(crate) reduced_vertices: usize,
    /// Number of vertices of the base graph for the density sweep.
    pub(crate) density_base_vertices: usize,
    /// Base RNG seed; every experiment derives its own stream from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Configuration for a given scale.
    pub(crate) fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => ExperimentConfig {
                scale,
                alphas_percent: vec![8.0, 16.0, 32.0, 64.0],
                num_worlds: 60,
                num_pairs: 40,
                num_cuts: 200,
                variance_repetitions: 10,
                variance_worlds: 20,
                reduced_vertices: 80,
                density_base_vertices: 60,
                seed: 0xC0FFEE,
            },
            Scale::Small => ExperimentConfig {
                scale,
                alphas_percent: vec![8.0, 16.0, 32.0, 64.0],
                num_worlds: 200,
                num_pairs: 100,
                num_cuts: 1000,
                variance_repetitions: 20,
                variance_worlds: 40,
                reduced_vertices: 200,
                density_base_vertices: 150,
                seed: 0xC0FFEE,
            },
            Scale::Medium => ExperimentConfig {
                scale,
                alphas_percent: vec![8.0, 16.0, 32.0, 64.0],
                num_worlds: 500,
                num_pairs: 500,
                num_cuts: 1000,
                variance_repetitions: 50,
                variance_worlds: 100,
                reduced_vertices: 1000,
                density_base_vertices: 400,
                seed: 0xC0FFEE,
            },
            Scale::Paper => ExperimentConfig {
                scale,
                alphas_percent: vec![8.0, 16.0, 32.0, 64.0],
                num_worlds: 500,
                num_pairs: 1000,
                num_cuts: 1000,
                variance_repetitions: 100,
                variance_worlds: 500,
                reduced_vertices: 5000,
                density_base_vertices: 1000,
                seed: 0xC0FFEE,
            },
        }
    }

    /// Reads the scale from the command line (`--scale <name>`) or the
    /// `UGS_SCALE` environment variable, defaulting to `small`; `UGS_SEED`
    /// overrides the seed.
    pub fn from_env_and_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut scale_name = std::env::var("UGS_SCALE").unwrap_or_else(|_| "small".to_string());
        if let Some(pos) = args.iter().position(|a| a == "--scale") {
            if let Some(value) = args.get(pos + 1) {
                scale_name = value.clone();
            }
        }
        let scale = Scale::parse(&scale_name).unwrap_or(Scale::Small);
        let mut config = Self::for_scale(scale);
        if let Ok(seed) = std::env::var("UGS_SEED") {
            if let Ok(seed) = seed.parse() {
                config.seed = seed;
            }
        }
        config
    }

    /// Sparsification ratios as fractions.
    pub(crate) fn alphas(&self) -> Vec<f64> {
        self.alphas_percent.iter().map(|a| a / 100.0).collect()
    }

    /// A fresh RNG stream for the experiment `label` (deterministic per
    /// label so experiments are independent of each other's ordering).
    pub(crate) fn rng(&self, label: &str) -> SmallRng {
        let mut hash = 0xcbf29ce484222325u64;
        for byte in label.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        SmallRng::seed_from_u64(self.seed ^ hash)
    }
}

/// The datasets every experiment draws from, generated once per run.
#[derive(Debug, Clone)]
pub(crate) struct Workload {
    /// Flickr-shaped graph (dense, low probabilities).
    pub(crate) flickr: UncertainGraph,
    /// Twitter-shaped graph (sparser, higher probabilities).
    pub(crate) twitter: UncertainGraph,
}

impl Workload {
    /// Generates the two social-network-shaped datasets for `config`.
    pub(crate) fn generate(config: &ExperimentConfig) -> Self {
        let mut rng = config.rng("workload");
        Workload {
            flickr: flickr_like(config.scale, &mut rng),
            twitter: twitter_like(config.scale, &mut rng),
        }
    }

    /// The Forest-Fire-reduced Flickr instance (the paper's reduction for
    /// Table 2 and Figures 4–5).
    pub(crate) fn flickr_reduced(&self, config: &ExperimentConfig) -> UncertainGraph {
        let mut rng = config.rng("flickr-reduced");
        let (reduced, _) = forest_fire_sample(&self.flickr, config.reduced_vertices, 0.7, &mut rng);
        reduced
    }

    /// The density-sweep synthetics (15/30/50/90 % of the complete graph)
    /// built from an induced Flickr-like base, as in Table 1 (bottom).
    pub(crate) fn density_sweep(&self, config: &ExperimentConfig) -> Vec<(f64, UncertainGraph)> {
        let mut rng = config.rng("density-sweep");
        let (base, _) =
            forest_fire_sample(&self.flickr, config.density_base_vertices, 0.7, &mut rng);
        density_sweep(&base, ProbabilityModel::FlickrLike, &mut rng)
    }
}

/// The four methods compared throughout Section 6.2–6.3, with the paper's
/// representative variants: `GDB` = `GDB^A` on a random backbone, `EMD` =
/// `EMD^R-t` (relative discrepancy, spanning backbone), plus the `NI` and
/// `SS` baselines.
pub(crate) fn representative_methods(alpha: f64) -> Vec<(String, Box<dyn Sparsifier>)> {
    vec![
        (
            "NI".to_string(),
            Box::new(NagamochiIbaraki::new(alpha)) as Box<dyn Sparsifier>,
        ),
        ("SS".to_string(), Box::new(SpannerSparsifier::new(alpha))),
        (
            "GDB".to_string(),
            Box::new(
                SparsifierSpec::gdb()
                    .alpha(alpha)
                    .backbone(BackboneKind::Random),
            ),
        ),
        (
            "EMD".to_string(),
            Box::new(
                SparsifierSpec::emd()
                    .alpha(alpha)
                    .discrepancy(DiscrepancyKind::Relative),
            ),
        ),
    ]
}

/// The proposed-method variants evaluated in Table 2 and Figure 4
/// (superscript = discrepancy, subscript = cut rule, `-t` = spanning
/// backbone).
pub(crate) fn proposed_variants(alpha: f64) -> Vec<(String, Box<dyn Sparsifier>)> {
    let random = BackboneKind::Random;
    let spanning = BackboneKind::SpanningForests;
    vec![
        (
            "LP".into(),
            Box::new(SparsifierSpec::lp().alpha(alpha).backbone(random)) as Box<dyn Sparsifier>,
        ),
        (
            "GDB^A".into(),
            Box::new(SparsifierSpec::gdb().alpha(alpha).backbone(random)),
        ),
        (
            "GDB^R".into(),
            Box::new(
                SparsifierSpec::gdb()
                    .alpha(alpha)
                    .backbone(random)
                    .discrepancy(DiscrepancyKind::Relative),
            ),
        ),
        (
            "GDB^A_2".into(),
            Box::new(
                SparsifierSpec::gdb()
                    .alpha(alpha)
                    .backbone(random)
                    .cut_rule(CutRule::Cuts(2)),
            ),
        ),
        (
            "GDB^A_n".into(),
            Box::new(
                SparsifierSpec::gdb()
                    .alpha(alpha)
                    .backbone(random)
                    .cut_rule(CutRule::AllCuts),
            ),
        ),
        (
            "EMD^A".into(),
            Box::new(SparsifierSpec::emd().alpha(alpha).backbone(random)),
        ),
        (
            "EMD^R".into(),
            Box::new(
                SparsifierSpec::emd()
                    .alpha(alpha)
                    .backbone(random)
                    .discrepancy(DiscrepancyKind::Relative),
            ),
        ),
        (
            "LP-t".into(),
            Box::new(SparsifierSpec::lp().alpha(alpha).backbone(spanning)),
        ),
        (
            "GDB^A-t".into(),
            Box::new(SparsifierSpec::gdb().alpha(alpha).backbone(spanning)),
        ),
        (
            "GDB^R-t".into(),
            Box::new(
                SparsifierSpec::gdb()
                    .alpha(alpha)
                    .backbone(spanning)
                    .discrepancy(DiscrepancyKind::Relative),
            ),
        ),
        (
            "EMD^A-t".into(),
            Box::new(SparsifierSpec::emd().alpha(alpha).backbone(spanning)),
        ),
        (
            "EMD^R-t".into(),
            Box::new(
                SparsifierSpec::emd()
                    .alpha(alpha)
                    .backbone(spanning)
                    .discrepancy(DiscrepancyKind::Relative),
            ),
        ),
    ]
}

/// Prints a set of reports as paper-style tables, separated by headers.
pub fn print_reports(reports: &[ugs_metrics::ExperimentReport]) {
    for report in reports {
        println!("== {} — {}", report.id, report.description);
        println!(
            "   rows: method, columns: {}, values: {}",
            report.x_label, report.y_label
        );
        println!("{}", report.to_table().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_scale_monotonically() {
        let tiny = ExperimentConfig::for_scale(Scale::Tiny);
        let small = ExperimentConfig::for_scale(Scale::Small);
        let paper = ExperimentConfig::for_scale(Scale::Paper);
        assert!(tiny.num_worlds < small.num_worlds && small.num_worlds <= paper.num_worlds);
        assert!(tiny.num_pairs < small.num_pairs && small.num_pairs <= paper.num_pairs);
        assert_eq!(paper.num_worlds, 500);
        assert_eq!(paper.num_pairs, 1000);
        assert_eq!(paper.variance_repetitions, 100);
        assert_eq!(tiny.alphas(), vec![0.08, 0.16, 0.32, 0.64]);
    }

    #[test]
    fn rng_streams_are_deterministic_and_label_dependent() {
        use rand::RngCore;
        let config = ExperimentConfig::for_scale(Scale::Tiny);
        let a = config.rng("x").next_u64();
        let b = config.rng("x").next_u64();
        let c = config.rng("y").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_generation_matches_scale() {
        let config = ExperimentConfig::for_scale(Scale::Tiny);
        let w = Workload::generate(&config);
        assert_eq!(w.flickr.num_vertices(), 200);
        assert_eq!(w.twitter.num_vertices(), 200);
        let reduced = w.flickr_reduced(&config);
        assert_eq!(reduced.num_vertices(), 80);
        let sweep = w.density_sweep(&config);
        assert_eq!(sweep.len(), 4);
        assert!(sweep[0].1.num_edges() < sweep[3].1.num_edges());
    }

    #[test]
    fn method_sets_have_the_expected_composition() {
        let methods = representative_methods(0.16);
        let names: Vec<&str> = methods.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["NI", "SS", "GDB", "EMD"]);
        let variants = proposed_variants(0.16);
        assert_eq!(variants.len(), 12);
        assert!(variants.iter().any(|(n, _)| n == "EMD^R-t"));
        assert!(variants.iter().any(|(n, _)| n == "GDB^A_n"));
    }
}
