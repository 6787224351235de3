//! End-to-end and per-layer benchmark of the uncertain-graph stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_mix --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Four workloads run on one generated graph (`preferential_attachment(
//! 60000, 4, p = 0.09)`, seeded from `--seed`): `plan_mix`,
//! `sparsify_query`, `server_mix` and `fleet`.  Every op's answers are
//! checked; a wrong answer or a failed call counts in `failed` instead of
//! aborting the run.  `--trace 0` prints the end-to-end metrics; `--trace
//! 1` runs the load untraced and traced, times the layer ladder inside
//! spans, writes the spans to `perfbench/target/traces/` and prints the
//! per-layer metrics.  Human-readable `#` lines come first; the last line
//! of standard output is one JSON object.

mod fleet;
mod forward;
mod ops;
mod plan_mix;
mod queries;
mod server_mix;
mod sparsify_query;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use uncertain_graph::UncertainGraph;

use crate::stats::median;
use crate::trace::Tracer;

/// End-to-end metrics (`--trace 0`), with units; every workload reports
/// all of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("plan_p50_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.  A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("datasets.generate_s", "s"),
    ("queries.engine_build_ms", "ms"),
    ("ugraph.sample_us_per_world", "us"),
    ("graphalg.materialise_us_per_world", "us"),
    ("queries.kernel_us_per_world.connectivity", "us"),
    ("queries.kernel_us_per_world.degree_histogram", "us"),
    ("queries.kernel_us_per_world.edge_frequency", "us"),
    ("queries.kernel_us_per_world.pagerank", "us"),
    ("queries.kernel_us_per_world.knn", "us"),
    ("queries.batch_us_per_world.t1", "us"),
    ("queries.batch_us_per_world.t2", "us"),
    ("queries.merge_us_per_world", "us"),
    ("queries.thread_speedup", "x"),
    ("service.plan_overhead_ms", "ms"),
    ("service.render_ms", "ms"),
    ("service.report_bytes", "B"),
    ("minijson.parse_ms", "ms"),
    ("server.submit_ack_ms", "ms"),
    ("server.polls_per_plan", "count"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.evictions", "count"),
    ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("dist.wire_bytes_per_world", "B"),
    ("dist.round_trips_per_world", "count"),
    ("dist.fleet_over_inproc", "x"),
    ("core.backbone_ms", "ms"),
    ("core.gdb_ms", "ms"),
    ("core.emd_ms", "ms"),
    ("core.materialise_ms", "ms"),
    ("core.emd_swaps", "count"),
    ("core.emd_iterations", "count"),
    ("core.sparsify_s", "s"),
    ("quality.answer_rel_error", "ratio"),
    ("quality.entropy_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["plan_mix", "sparsify_query", "server_mix", "fleet"];

/// Times the set-up is repeated per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// A closed loop runs at least this many ops, however long they take.
const MIN_OPS: u64 = 3;

/// Parsed command line.
pub struct RunArgs {
    /// Which workload.
    pub workload: String,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Op counts of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed: an error, a timeout or a wrong answer.
    pub failed: u64,
    /// Of those, ops whose answer was wrong.
    pub wrong: u64,
}

impl Outcome {
    /// Counts one op: `Some(correct)` when its answers were checked,
    /// `None` when it failed with an error (typed or a timeout) instead.
    pub fn record(&mut self, checked: Option<bool>) {
        self.attempted += 1;
        if checked != Some(true) {
            self.failed += 1;
        }
        if checked == Some(false) {
            self.wrong += 1;
        }
    }
}

/// Named metric values of one run; its methods also print the `#` report
/// lines that go with them.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets (or overwrites) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Prints the run header: cores, graph identity, load shape.
    pub fn header(&self, graph: &UncertainGraph, callers: usize, connections: usize) {
        println!(
            "# nproc={} graph_fingerprint={:016x} vertices={} edges={} callers={callers} \
             connections={connections} load=closed-loop",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            graph.fingerprint(),
            graph.num_vertices(),
            graph.num_edges(),
        );
    }

    /// Records a plan-latency sample set: its median, and its tail with
    /// the percentile and sample count it honestly is.
    pub fn plan_latencies(&mut self, ms: &[f64]) {
        self.set("plan_p50_ms", median(ms));
        let (min, max) = ms
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        println!(
            "# plan_ms: min {min:.3} p50 {:.3} max {max:.3} over {} plans",
            median(ms),
            ms.len()
        );
        match stats::tail(ms) {
            Some(tail) => println!("# plan_tail_ms = {:.3} ms ({})", tail.value, tail.label()),
            None => println!(
                "# plan_tail_ms = n/a ({} samples; a tail needs {} beyond it)",
                ms.len(),
                stats::MIN_BEYOND
            ),
        }
    }

    /// `trace.overhead_frac`: traced over untraced median op time, minus 1,
    /// from `(traced, ms)` op samples.
    pub fn trace_overhead(&mut self, ops: &[(bool, f64)]) {
        let split = |traced: bool| -> Vec<f64> {
            ops.iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, ms)| *ms)
                .collect()
        };
        self.set(
            "trace.overhead_frac",
            median(&split(true)) / median(&split(false)) - 1.0,
        );
    }

    /// Ends a traced run: times graph generation on its own, writes the
    /// spans out and prints the self time per span name.
    pub fn finish_trace(&mut self, tracer: &Tracer, args: &RunArgs) {
        let generate: Vec<f64> = (0..SETUP_REPEATS)
            .map(|_| {
                tracer.span("datasets.generate", None, 0, |_| {
                    let started = Instant::now();
                    drop(queries::generate_graph(args.seed));
                    started.elapsed().as_secs_f64()
                })
            })
            .collect();
        self.set("datasets.generate_s", median(&generate));
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(error) => println!("# could not write spans to {}: {error}", path.display()),
        }
        println!("# self time by span (ms total, spans):");
        for (name, self_ns, count) in trace::self_time_by_name(&tracer.spans()) {
            println!("#   {name:<44} {:>12.3} {count:>6}", self_ns as f64 / 1e6);
        }
    }
}

/// Runs `op(index, tracer)` back to back — a closed loop with one caller —
/// until `budget` has passed and at least [`MIN_OPS`] ops ran.  With an
/// enabled `tracer` every other op gets it and the rest a disabled one, so
/// traced and untraced ops share the machine's conditions and their ratio
/// is the tracing overhead.
pub fn closed_loop(budget: Duration, tracer: &Tracer, mut op: impl FnMut(u64, &Tracer)) {
    let off = Tracer::new(false);
    let started = Instant::now();
    let mut index = 0;
    while index < MIN_OPS || started.elapsed() < budget {
        let traced = tracer.enabled() && index % 2 == 1;
        op(index, if traced { tracer } else { &off });
        index += 1;
    }
}

/// Runs the set-up [`SETUP_REPEATS`] times (dropping each result before the
/// next starts) and returns the median seconds and the last result.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (median(&seconds), last.expect("at least one set-up"))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut metrics = Metrics::default();
    let outcome = match args.workload.as_str() {
        "plan_mix" => plan_mix::run(&args, &mut metrics),
        "sparsify_query" => sparsify_query::run(&args, &mut metrics),
        "server_mix" => server_mix::run(&args, &mut metrics),
        _ => fleet::run(&args, &mut metrics),
    };
    metrics.set("peak_rss_mib", peak_rss_mib());
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# attempted={} failed={} wrong_answers={} failed_frac={failed_frac}",
        outcome.attempted, outcome.failed, outcome.wrong
    );

    let mut correct = outcome.wrong == 0 && outcome.attempted > 0;
    let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(selected.len());
    for &(name, unit) in selected {
        let value = match metrics.get(name) {
            Some(value) if value.is_finite() => value,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            _ => {
                println!("# metric {name} is missing or not finite");
                correct = false;
                0.0
            }
        };
        println!("# {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists of this binary are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = minijson::Value::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|entry| {
                    (
                        entry.get_str("name").expect("name").to_string(),
                        entry.get_str("unit").unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_input() {
        let parse = |line: &str| RunArgs::parse(line.split_whitespace().map(String::from));
        let args = parse("--workload fleet --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("fleet", 9, 5, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload fleet").is_err());
        assert!(parse("--workload fleet --seed 1 --trace 2").is_err());
        assert!(parse("--workload fleet --seed").is_err());
    }
}
