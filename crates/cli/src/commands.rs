//! Implementation of the CLI subcommands.
//!
//! Every command returns its report as a `String` so it can be unit tested
//! without capturing stdout; `main` only prints the result.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::{io, GraphStatistics, UncertainGraph};

use crate::args::{ArgsError, ParsedArgs};
use ugs_baselines::{NagamochiIbaraki, SpannerSparsifier};
use ugs_core::prelude::*;
use ugs_datasets::prelude::*;
use ugs_metrics::cuts::CutSamplingConfig;
use ugs_metrics::degree::MetricDiscrepancy;
use ugs_queries::prelude::*;
use ugs_service::{QueryPlan, QueryResult, QuerySpec, SEED_LIMIT};

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing / validation error.
    Args(ArgsError),
    /// Graph I/O or validation error.
    Graph(uncertain_graph::GraphError),
    /// Sparsification error.
    Sparsify(SparsifyError),
    /// Any other user-facing problem.
    Message(String),
    /// The command ran to the end but failed; `report` still goes to stdout.
    Failed {
        /// The command's report.
        report: String,
        /// Why the command failed.
        message: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Sparsify(e) => write!(f, "{e}"),
            CliError::Message(m) | CliError::Failed { message: m, .. } => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}
impl From<uncertain_graph::GraphError> for CliError {
    fn from(e: uncertain_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}
impl From<SparsifyError> for CliError {
    fn from(e: SparsifyError) -> Self {
        CliError::Sparsify(e)
    }
}

/// One subcommand's help entry.  The `OPTIONS` consts below are each
/// command's option allowlist, enforced with [`ParsedArgs::expect_options`]
/// at the top of the command implementation.
struct CommandHelp {
    name: &'static str,
    usage: &'static str,
}

const GENERATE_OPTIONS: &[&str] = &[
    "dataset",
    "scale",
    "seed",
    "output",
    "er-vertices",
    "er-density",
];
const STATS_OPTIONS: &[&str] = &[];
const SPARSIFY_OPTIONS: &[&str] = &[
    "alpha",
    "method",
    "discrepancy",
    "backbone",
    "h",
    "k",
    "seed",
    "output",
    "time",
];
const QUERY_OPTIONS: &[&str] = &[
    "query",
    "worlds",
    "pairs",
    "top",
    "source",
    "seed",
    "threads",
    "sequential",
    "mode",
    "epsilon",
    "delta",
    "deadline-ms",
    "max-worlds",
];
const COMPARE_OPTIONS: &[&str] = &[
    "worlds",
    "pairs",
    "cuts",
    "seed",
    "threads",
    "sequential",
    "mode",
];
const BATCH_OPTIONS: &[&str] = &[
    "queries",
    "worlds",
    "pairs",
    "top",
    "source",
    "seed",
    "threads",
    "sequential",
    "mode",
    "compact",
    "epsilon",
    "delta",
    "deadline-ms",
    "max-worlds",
];
const PLAN_OPTIONS: &[&str] = &[
    "graph",
    "compact",
    "epsilon",
    "delta",
    "deadline-ms",
    "max-worlds",
];
const SERVE_OPTIONS: &[&str] = &[
    "addr",
    "executors",
    "queue",
    "max-inflight",
    "cache-bytes",
    "max-plan-threads",
    "max-line-bytes",
    "announce",
    "shard",
    "shards",
    "fault-plan",
];
const REQUEST_OPTIONS: &[&str] = &["op", "plan", "compact", "timeout-ms"];
const COORDINATE_OPTIONS: &[&str] = &[
    "workers",
    "standbys",
    "timeout-ms",
    "retries",
    "backoff-ms",
    "fault-plan",
    "compact",
];
const SUPERVISE_OPTIONS: &[&str] = &[
    "ports",
    "shards",
    "shard-base",
    "host",
    "announce",
    "max-respawns",
    "backoff-ms",
    "max-backoff-ms",
    "crash-loop",
    "ping-ms",
    "compact",
];
const HELP_OPTIONS: &[&str] = &[];

const COMMANDS: &[CommandHelp] = &[
    CommandHelp {
        name: "generate",
        usage: "generate   --dataset flickr|twitter|er --scale tiny|small|medium|paper
               [--seed N] [--er-vertices N] [--er-density Q] --output FILE
               Generate a synthetic uncertain graph and write it as a text edge list.",
    },
    CommandHelp {
        name: "stats",
        usage: "stats      <graph.txt>
               Print Table-1-style statistics of an uncertain graph.",
    },
    CommandHelp {
        name: "sparsify",
        usage: "sparsify   <graph.txt> --alpha A [--method gdb|emd|lp|ni|ss]
               [--discrepancy absolute|relative] [--backbone random|spanning|local-degree]
               [--h H] [--k K] [--seed N] [--output FILE] [--time]
               Sparsify the graph to A·|E| edges and report diagnostics.
               --k K > 1 makes gdb preserve cuts of up to K vertices
               (emd and lp run the degree rule only and refuse it).
               lp solves the absolute degree discrepancy Δ1 only and
               refuses --discrepancy relative and --h; the ni and ss
               baselines read only --alpha and --seed (with --output and
               --time) and refuse the other options.  --time appends a
               JSON field with per-phase wall-clock times.",
    },
    CommandHelp {
        name: "query",
        usage: "query      <graph.txt> --query pagerank|cc|sp|rl|connectivity|knn
               [--worlds N] [--pairs N] [--top K] [--source V] [--seed N]
               [--threads N] [--sequential] [--mode auto|skip|per-edge]
               [--epsilon E] [--delta D] [--deadline-ms MS] [--max-worlds N]
               Run a Monte-Carlo query and print a summary.  Worlds are
               evaluated on all cores by default (--threads 0 = auto);
               --sequential forces the machine-independent single-thread
               path and --mode overrides the world-sampling strategy.
               --epsilon E makes the world budget adaptive: sampling stops
               at the first epoch whose confidence half-width reaches E
               (failure probability --delta, default 0.05), capped by
               --worlds/--max-worlds and the optional --deadline-ms.",
    },
    CommandHelp {
        name: "compare",
        usage: "compare    <original.txt> <sparsified.txt> [--worlds N] [--pairs N] [--cuts N] [--seed N]
               [--threads N] [--sequential] [--mode auto|skip|per-edge]
               Compare a sparsified graph against its original (degree/cut MAE,
               relative entropy, earth mover's distance of PageRank and reliability).",
    },
    CommandHelp {
        name: "batch",
        usage: "batch      <graph.txt> --queries q1,q2,... [--worlds N] [--pairs N] [--top K]
               [--source V] [--seed N] [--threads N] [--sequential]
               [--mode auto|skip|per-edge] [--compact]
               [--epsilon E] [--delta D] [--deadline-ms MS] [--max-worlds N]
               Evaluate several Monte-Carlo queries over ONE shared set of
               sampled worlds (queries: pagerank|cc|sp|connectivity|
               degree-hist|edge-freq|knn) and print the results as JSON.
               Sampling and world materialisation are paid once for the whole
               query mix instead of once per query.  --seed must be below
               2^53, the largest integer the JSON report echoes exactly.
               With --epsilon the shared budget is adaptive (sequential
               stopping; the report gains worlds_used/half_width).  A thin
               wrapper over the query-plan path (`ugs plan`).",
    },
    CommandHelp {
        name: "plan",
        usage: "plan       <plan.json> [--graph FILE] [--compact]
               [--epsilon E] [--delta D] [--deadline-ms MS] [--max-worlds N]
               Execute a JSON query plan end-to-end and print the full report
               as JSON.  The plan names the graph (overridable with --graph),
               the shared world budget, the worker count, the sampling mode,
               the seed (an integer below 2^53) and a list of query specs
               such as {\"type\": \"knn\", \"source\": 0, \"k\": 5}; all
               queries share one set of sampled worlds, split across the
               workers.  A \"shards\" field is echoed but changes no answer.
               An optional \"precision\" block in the plan — or --epsilon and
               friends, which override it — makes the budget adaptive.",
    },
    CommandHelp {
        name: "serve",
        usage: "serve      <graph.txt> [--addr HOST:PORT] [--executors N] [--queue N]
               [--max-inflight N] [--cache-bytes N] [--max-plan-threads N]
               [--announce FILE] [--shard K --shards W]
               Serve the graph over a line-delimited JSON TCP protocol
               (submit/poll/cancel on query-plan documents) with a
               deterministic result cache and typed admission control.
               --addr defaults to 127.0.0.1:0 (a free loopback port; the
               bound address is printed to stderr and, with --announce,
               written to FILE).  Runs until a client sends
               {\"op\": \"shutdown\"}.  With --shard K --shards W the server
               declares itself slot K of a W-worker fleet for
               `ugs coordinate`, which checks the slot when it connects.
               Every server holds the full graph and answers the
               world_block op: it runs its slot's share of a plan's world
               blocks and pages out the exact partials.  --max-line-bytes caps the accepted
               request-line length (oversized lines get a typed bad_request
               and the connection survives).  --fault-plan SPEC (requires
               UGS_FAULTS=1; see `ugs help coordinate`) arms seeded wire
               fault injection for chaos tests.",
    },
    CommandHelp {
        name: "coordinate",
        usage: "coordinate <graph.txt> <plan.json> --workers HOST:PORT,HOST:PORT,...
               [--standbys HOST:PORT,...] [--timeout-ms MS] [--retries N]
               [--backoff-ms MS] [--compact]
               Execute a JSON query plan over a fleet of workers (each an
               `ugs serve --shard K --shards W` process, one per listed
               address, in order) and print the full report as JSON —
               bit-identical to running the plan in-process, for every
               query kind.  The plan's worlds split into `threads` world
               blocks exactly as in-process; block b runs on worker
               b mod W, so a plan with fewer threads than workers leaves
               the rest idle.  A worker that stops responding is retried
               (reconnect + deterministic resubmit, --backoff-ms between
               attempts); when its retries run out its slot fails over to
               the first --standbys address that validates and re-runs its
               blocks, still bit-identically.
               Only an exhausted standby pool degrades the plan to a typed
               worker_lost error.  --fault-plan SPEC (requires UGS_FAULTS=1)
               arms seeded coordinator-side fault injection; SPEC is
               comma-separated key=value pairs: seed=N,count=N,horizon=N
               for a seeded schedule, at=N / wedge=N for explicit ops,
               kind=drop|delay|disconnect|garble, delay-ms=N.",
    },
    CommandHelp {
        name: "supervise",
        usage: "supervise  <graph.txt> --ports P1,P2,... [--shards W] [--shard-base B]
               [--host H] [--announce FILE] [--max-respawns N] [--backoff-ms MS]
               [--max-backoff-ms MS] [--crash-loop N] [--ping-ms MS] [--compact]
               Launch one `ugs serve --shard K --shards W` worker per listed
               port (fleet slots B.., W defaulting to B + the port count — so
               on a single host just list the ports; across hosts give each
               supervisor its --shard-base slice of the fleet-wide --shards W)
               and babysit the fleet: liveness is
               watched via process exits and periodic pings (--ping-ms 0
               disables probes), a crashed or wedged worker is respawned on
               its fixed port with exponential backoff (--backoff-ms base,
               capped by --max-backoff-ms) up to --max-respawns times, and
               --crash-loop consecutive fast exits give a worker up as
               crash-looping.  A worker that exits 0 (a client sent
               {\"op\": \"shutdown\"}) is done and never respawned.
               --announce FILE is rewritten atomically with one
               `name addr pid` line per running worker on every membership
               change.  Prints a JSON report once every worker is terminal,
               and exits 1 unless every worker ended gracefully.",
    },
    CommandHelp {
        name: "request",
        usage: "request    <host:port> [--op ping|stats|shutdown] [--plan FILE]
               [--timeout-ms MS] [--compact]
               Talk to a running `ugs serve` instance.  --plan submits the
               JSON plan document in FILE (no \"graph\" field: the server
               owns its graph), polls until the report arrives and prints
               it; otherwise --op sends a single control request.",
    },
    CommandHelp {
        name: "help",
        usage: "help       [command]
               Show this message, or the usage of one command.",
    },
];

/// The usage / help text for every subcommand.
pub fn usage() -> String {
    let mut out = String::from(
        "ugs — uncertain graph sparsification toolkit

USAGE:
    ugs <command> [arguments] [--option value ...]

COMMANDS:
",
    );
    for command in COMMANDS {
        out.push_str("    ");
        out.push_str(command.usage);
        out.push_str("\n\n");
    }
    out.pop();
    out
}

/// The usage text of one subcommand (`ugs help <command>`).
pub(crate) fn usage_for(name: &str) -> Option<String> {
    COMMANDS
        .iter()
        .find(|command| command.name == name)
        .map(|command| format!("USAGE:\n    {}\n", command.usage))
}

fn load(path: &str) -> Result<UncertainGraph, CliError> {
    Ok(io::read_text_file(path)?)
}

/// `ugs generate`.
pub(crate) fn generate(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(GENERATE_OPTIONS)?;
    let dataset = args.option_or("dataset", "flickr");
    let scale_name = args.option_or("scale", "tiny");
    let scale = Scale::parse(&scale_name).ok_or_else(|| {
        CliError::Message(format!(
            "unknown scale {scale_name:?}; expected tiny|small|medium|paper"
        ))
    })?;
    let seed = args.u64_or("seed", 42)?;
    let output = args.required("output")?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = match dataset.as_str() {
        "flickr" => flickr_like(scale, &mut rng),
        "twitter" => twitter_like(scale, &mut rng),
        "er" => {
            let vertices = args.usize_or("er-vertices", 500)?;
            let density = args.f64_or("er-density", 0.05)?;
            erdos_renyi(vertices, density, ProbabilityModel::FlickrLike, &mut rng)
        }
        other => {
            return Err(CliError::Message(format!(
                "unknown dataset {other:?}; expected flickr|twitter|er"
            )))
        }
    };
    io::write_text_file(&graph, output)?;
    let stats = GraphStatistics::compute(&graph);
    Ok(format!(
        "wrote {} ({} vertices, {} edges, E[p] = {:.3}) to {}",
        dataset, stats.num_vertices, stats.num_edges, stats.mean_edge_probability, output
    ))
}

/// `ugs stats`.
pub(crate) fn stats(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(STATS_OPTIONS)?;
    let path = args.positional(0, "graph.txt")?;
    let graph = load(path)?;
    let stats = GraphStatistics::compute(&graph);
    let mut out = String::new();
    out.push_str(&GraphStatistics::table_header());
    out.push('\n');
    out.push_str(&stats.table_row(path));
    out.push('\n');
    out.push_str(&format!(
        "entropy: {:.2} bits   density: {:.4}   support connected: {}\n",
        stats.entropy, stats.density, stats.support_connected
    ));
    Ok(out)
}

fn build_sparsifier(args: &ParsedArgs, alpha: f64) -> Result<Box<dyn Sparsifier>, CliError> {
    let method = args.option_or("method", "gdb");
    // Options the method never reads are refused, not dropped: the NI and
    // SS baselines take only `--alpha` and `--seed`, and LP's Δ1 program
    // has no entropy term.
    let unread: &[&str] = match method.as_str() {
        "ni" | "ss" => &["discrepancy", "backbone", "h", "k"],
        "lp" => &["h"],
        _ => &[],
    };
    if let Some(option) = unread.iter().find(|option| args.flag(option)) {
        return Err(ArgsError::UnusedOption {
            option: option.to_string(),
            command: args.command.clone(),
            mode: format!("--method {method}"),
        }
        .into());
    }
    let discrepancy = match args.option_or("discrepancy", "absolute").as_str() {
        "absolute" | "abs" => DiscrepancyKind::Absolute,
        "relative" | "rel" => DiscrepancyKind::Relative,
        other => {
            return Err(CliError::Message(format!(
                "unknown discrepancy {other:?}; expected absolute|relative"
            )))
        }
    };
    let backbone = match args.option_or("backbone", "spanning").as_str() {
        "random" => BackboneKind::Random,
        "spanning" => BackboneKind::SpanningForests,
        "local-degree" => BackboneKind::LocalDegree,
        other => {
            return Err(CliError::Message(format!(
                "unknown backbone {other:?}; expected random|spanning|local-degree"
            )))
        }
    };
    let h = args.f64_or("h", 0.05)?;
    let k = args.usize_or("k", 1)?;
    let cut_rule = if k <= 1 {
        CutRule::Degree
    } else {
        CutRule::Cuts(k)
    };
    let spec = |base: SparsifierSpec| {
        base.alpha(alpha)
            .discrepancy(discrepancy)
            .backbone(backbone)
            .entropy_h(h)
            .cut_rule(cut_rule)
    };
    Ok(match method.as_str() {
        "gdb" => Box::new(spec(SparsifierSpec::gdb())),
        "emd" => Box::new(spec(SparsifierSpec::emd())),
        "lp" => Box::new(spec(SparsifierSpec::lp())),
        "ni" => Box::new(NagamochiIbaraki::new(alpha)),
        "ss" => Box::new(SpannerSparsifier::new(alpha)),
        other => {
            return Err(CliError::Message(format!(
                "unknown method {other:?}; expected gdb|emd|lp|ni|ss"
            )))
        }
    })
}

/// `ugs sparsify`.
pub(crate) fn sparsify(args: &ParsedArgs) -> Result<String, CliError> {
    use minijson::ObjBuilder;

    args.expect_options(SPARSIFY_OPTIONS)?;
    let path = args.positional(0, "graph.txt")?;
    let alpha = args.f64_or("alpha", 0.16)?;
    let seed = args.u64_or("seed", 42)?;
    let graph = load(path)?;
    let sparsifier = build_sparsifier(args, alpha)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let output = sparsifier.sparsify_dyn(&graph, &mut rng)?;
    let mut report = format!(
        "method          : {}\nedges           : {} -> {}\nrelative entropy: {:.4}\ndegree MAE      : {:.6}\niterations      : {}\ntime            : {:?}\n",
        output.diagnostics.method,
        graph.num_edges(),
        output.graph.num_edges(),
        output.diagnostics.relative_entropy(),
        ugs_metrics::degree_discrepancy_mae(&graph, &output.graph, MetricDiscrepancy::Absolute),
        output.diagnostics.iterations,
        output.diagnostics.elapsed,
    );
    if args.flag("time") {
        let phases = output.diagnostics.phases;
        let ms = |phase: std::time::Duration| phase.as_secs_f64() * 1e3;
        let mut timings = ObjBuilder::new()
            .field("backbone_ms", ms(phases.backbone))
            .field("optimize_ms", ms(phases.optimize))
            .field("materialize_ms", ms(phases.materialize))
            .field("total_ms", ms(output.diagnostics.elapsed));
        if args.option_or("method", "gdb") == "emd" {
            timings = timings
                .field("e_phase_ms", ms(phases.e_phase))
                .field("m_phase_ms", ms(phases.m_phase));
        }
        let timings = timings.build();
        report.push_str(&format!("timings         : {}\n", timings.render()));
    }
    if let Some(out_path) = args.options.get("output") {
        io::write_text_file(&output.graph, out_path)?;
        report.push_str(&format!("written to      : {out_path}\n"));
    }
    Ok(report)
}

/// Builds the Monte-Carlo configuration shared by `query` and `compare`:
/// `--worlds`, `--threads` (0 = all cores), `--sequential` and `--mode`.
fn monte_carlo_config(args: &ParsedArgs, default_worlds: usize) -> Result<MonteCarlo, CliError> {
    let worlds = args.usize_or("worlds", default_worlds)?;
    let threads = if args.flag("sequential") {
        1
    } else {
        match args.usize_or("threads", 0)? {
            0 => ugs_queries::mc::available_threads(),
            n => n,
        }
    };
    let mode = args.option_or("mode", "auto");
    let method = ugs_service::parse_mode(&mode).ok_or_else(|| {
        CliError::Message(format!(
            "unknown sampling mode {mode:?}; expected auto|skip|per-edge"
        ))
    })?;
    Ok(MonteCarlo::worlds(worlds)
        .with_threads(threads)
        .with_method(method))
}

/// Parses the adaptive-precision flags shared by `query`, `batch` and
/// `plan`.  `--epsilon` switches the world budget to sequential stopping;
/// `--delta`, `--deadline-ms` and `--max-worlds` refine the target and are
/// rejected without it.
fn precision_from_args(args: &ParsedArgs) -> Result<Option<Precision>, CliError> {
    if !args.options.contains_key("epsilon") {
        for dependent in ["delta", "deadline-ms", "max-worlds"] {
            if args.options.contains_key(dependent) {
                return Err(CliError::Message(format!(
                    "--{dependent} requires --epsilon (the adaptive-precision target)"
                )));
            }
        }
        return Ok(None);
    }
    let epsilon = args.f64_or("epsilon", 0.0)?;
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(CliError::Message(format!(
            "--epsilon must be a finite positive number, got {epsilon}"
        )));
    }
    let mut precision = Precision::new(epsilon);
    if args.options.contains_key("delta") {
        let delta = args.f64_or("delta", precision.delta)?;
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CliError::Message(format!(
                "--delta must lie strictly between 0 and 1, got {delta}"
            )));
        }
        precision = precision.with_delta(delta);
    }
    if args.options.contains_key("deadline-ms") {
        let ms = args.u64_or("deadline-ms", 0)?;
        precision = precision.with_deadline(std::time::Duration::from_millis(ms));
    }
    if args.options.contains_key("max-worlds") {
        precision = precision.with_max_worlds(args.usize_or("max-worlds", 0)?);
    }
    Ok(Some(precision))
}

/// `ugs query`.
pub(crate) fn query(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(QUERY_OPTIONS)?;
    let path = args.positional(0, "graph.txt")?;
    let graph = load(path)?;
    let query = args.option_or("query", "pagerank");
    let seed = args.u64_or("seed", 42)?;
    let mut mc = monte_carlo_config(args, 500)?;
    if let Some(precision) = precision_from_args(args)? {
        mc = mc.with_precision(precision);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let top = args.usize_or("top", 10)?;
    match query.as_str() {
        "pagerank" | "pr" => {
            let scores = expected_pagerank(&graph, &mc, &mut rng);
            Ok(format_top("expected PageRank", &scores, top))
        }
        "cc" | "clustering" => {
            let scores = expected_clustering_coefficients(&graph, &mc, &mut rng);
            Ok(format_top("expected clustering coefficient", &scores, top))
        }
        "sp" | "rl" | "reliability" | "distance" => {
            let pairs = random_pairs(graph.num_vertices(), args.usize_or("pairs", 100)?, &mut rng);
            let result = pair_queries(&graph, &pairs, &mc, &mut rng);
            let finite = result.finite_distances();
            let mean_sp = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
            let mean_rl =
                result.reliability.iter().sum::<f64>() / result.reliability.len().max(1) as f64;
            Ok(format!(
                "pairs evaluated      : {}\nmean shortest path   : {:.3} hops (over {} reachable pairs)\nmean reliability     : {:.3}\n",
                pairs.len(),
                mean_sp,
                finite.len(),
                mean_rl
            ))
        }
        "connectivity" => {
            let estimate = ugs_queries::connectivity_query(&graph, &mc, &mut rng);
            let mut out = format!(
                "P(connected)             : {:.4}\nexpected #components     : {:.3}\nexpected largest component: {:.2} vertices\nexpected isolated fraction: {:.4}\n",
                estimate.probability_connected,
                estimate.expected_components,
                estimate.expected_largest_component,
                estimate.expected_isolated_fraction
            );
            if mc.precision.is_some() {
                out.push_str(&format!(
                    "worlds sampled (adaptive) : {}\n",
                    estimate.num_worlds
                ));
            }
            Ok(out)
        }
        "knn" => {
            let source = args.usize_or("source", 0)?;
            let neighbors = k_nearest_neighbors(&graph, source, top, &mc, &mut rng);
            let mut out = format!("{top} nearest neighbours of vertex {source}:\n");
            for n in neighbors {
                out.push_str(&format!(
                    "  vertex {:>6}  E[distance] {:.3}  reachability {:.3}\n",
                    n.vertex, n.expected_distance, n.reachability
                ));
            }
            Ok(out)
        }
        other => Err(CliError::Message(format!(
            "unknown query {other:?}; expected pagerank|cc|sp|rl|connectivity|knn"
        ))),
    }
}

/// `ugs batch`: one shared sampling pass over `--worlds` possible worlds
/// feeding every query named in `--queries`, reported as a JSON document.
///
/// A thin wrapper over the query-plan path: the query names become
/// [`QuerySpec`]s, run as one [`QueryPlan`] (a single shared-world
/// `QueryBatch` pass), and the typed [`QueryResult`]s are rendered in the
/// classic `batch` report shape.
pub(crate) fn batch(args: &ParsedArgs) -> Result<String, CliError> {
    use minijson::{ObjBuilder, Value};

    args.expect_options(BATCH_OPTIONS)?;
    let path = args.positional(0, "graph.txt")?;
    let graph = load(path)?;
    let n = graph.num_vertices();
    let seed = args.u64_or("seed", 42)?;
    if seed >= SEED_LIMIT {
        return Err(ArgsError::InvalidValue {
            option: "seed".to_string(),
            value: seed.to_string(),
            expected: format!(
                "an integer below 2^53 = {SEED_LIMIT}, the largest the JSON report echoes exactly"
            ),
        }
        .into());
    }
    let mc = monte_carlo_config(args, 500)?;
    let top = args.usize_or("top", 10)?;
    let list = args.option_or("queries", "pagerank,connectivity");
    let mut rng = SmallRng::seed_from_u64(seed);

    // Map the query names to (report key, spec), deduplicating repeats.
    let mut entries: Vec<(&'static str, QuerySpec)> = Vec::new();
    for query in list.split(',').map(str::trim).filter(|q| !q.is_empty()) {
        let key = match query {
            "pagerank" | "pr" => "pagerank",
            "cc" | "clustering" => "clustering",
            "sp" | "rl" | "reliability" | "distance" => "sp",
            "connectivity" => "connectivity",
            "degree-hist" | "degrees" => "degree_histogram",
            "edge-freq" | "frequencies" => "edge_frequencies",
            "knn" => "knn",
            other => {
                return Err(CliError::Message(format!(
                    "unknown query {other:?}; expected \
                     pagerank|cc|sp|connectivity|degree-hist|edge-freq|knn"
                )))
            }
        };
        if entries.iter().any(|(existing, _)| *existing == key) {
            continue;
        }
        let spec = match key {
            "pagerank" => QuerySpec::pagerank(),
            "clustering" => QuerySpec::Clustering,
            "sp" => QuerySpec::PairQueries {
                pairs: random_pairs(n, args.usize_or("pairs", 100)?, &mut rng),
            },
            "connectivity" => QuerySpec::Connectivity,
            "degree_histogram" => QuerySpec::DegreeHistogram,
            "edge_frequencies" => QuerySpec::EdgeFrequency,
            "knn" => QuerySpec::Knn {
                source: args.usize_or("source", 0)?,
                k: top,
            },
            other => unreachable!("unmapped canonical query {other}"),
        };
        entries.push((key, spec));
    }
    if entries.is_empty() {
        return Err(CliError::Message(
            "no queries given; try --queries pagerank,connectivity".to_string(),
        ));
    }
    // Validate up front so a bad spec fails the whole command, exactly like
    // the pre-plan implementation.
    for (_, spec) in &entries {
        spec.validate(&graph)
            .map_err(|e| CliError::Message(e.to_string()))?;
    }

    let precision = precision_from_args(args)?;
    let plan = QueryPlan {
        graph: None,
        worlds: mc.num_worlds,
        threads: mc.threads,
        shards: 1,
        mode: mc.method,
        seed: rng.gen::<u64>(),
        precision,
        queries: entries.iter().map(|(_, spec)| spec.clone()).collect(),
    };
    let detailed = plan.execute_detailed(graph);
    // All queries share the plan's batch, so the adaptive effort is one
    // number for the whole report.
    let effort = detailed
        .iter()
        .find_map(|outcome| outcome.as_ref().ok())
        .map(|answer| (answer.worlds_used, answer.half_width));
    let outcomes: Vec<_> = detailed
        .into_iter()
        .map(|outcome| outcome.map(|answer| answer.result))
        .collect();

    let ranked = |scores: &[f64]| -> Value {
        Value::Arr(
            ranked_vertices(scores, top)
                .into_iter()
                .map(|v| {
                    ObjBuilder::new()
                        .field("vertex", v)
                        .field("score", scores[v])
                        .build()
                })
                .collect(),
        )
    };
    let mut queries: Vec<(String, Value)> = Vec::new();
    for ((key, _), outcome) in entries.iter().zip(outcomes) {
        let result = outcome.map_err(|e| CliError::Message(e.to_string()))?;
        let value = match result {
            QueryResult::PageRank(scores) => ranked(&scores),
            QueryResult::Clustering(scores) => ranked(&scores),
            QueryResult::PairQueries(pair_result) => {
                let finite = pair_result.finite_distances();
                let mean_sp = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
                let mean_rl = pair_result.reliability.iter().sum::<f64>()
                    / pair_result.reliability.len().max(1) as f64;
                ObjBuilder::new()
                    .field("pairs", pair_result.pairs.len())
                    .field("reachable_pairs", finite.len())
                    .field("mean_shortest_path", mean_sp)
                    .field("mean_reliability", mean_rl)
                    .build()
            }
            QueryResult::Connectivity(estimate) => ObjBuilder::new()
                .field("probability_connected", estimate.probability_connected)
                .field("expected_components", estimate.expected_components)
                .field(
                    "expected_largest_component",
                    estimate.expected_largest_component,
                )
                .field(
                    "expected_isolated_fraction",
                    estimate.expected_isolated_fraction,
                )
                .build(),
            QueryResult::DegreeHistogram(histogram) => {
                Value::Arr(histogram.into_iter().map(Value::from).collect())
            }
            QueryResult::EdgeFrequency(frequencies) => {
                Value::Arr(frequencies.into_iter().map(Value::from).collect())
            }
            QueryResult::Knn(neighbors) => Value::Arr(
                neighbors
                    .into_iter()
                    .map(|neighbor| {
                        ObjBuilder::new()
                            .field("vertex", neighbor.vertex)
                            .field("expected_distance", neighbor.expected_distance)
                            .field("reachability", neighbor.reachability)
                            .build()
                    })
                    .collect(),
            ),
        };
        queries.push((key.to_string(), value));
    }
    let mut document = ObjBuilder::new()
        .field("graph", path)
        .field("worlds", mc.num_worlds)
        .field("threads", mc.threads)
        .field("mode", args.option_or("mode", "auto"))
        .field("seed", seed as f64);
    if precision.is_some() {
        if let Some((worlds_used, half_width)) = effort {
            document = document.field("worlds_used", worlds_used);
            if let Some(half_width) = half_width.filter(|hw| hw.is_finite()) {
                document = document.field("half_width", half_width);
            }
        }
    }
    let document = document.field("queries", Value::Obj(queries)).build();
    Ok(if args.flag("compact") {
        document.render()
    } else {
        document.pretty()
    })
}

/// `ugs plan`: execute a JSON query-plan file end-to-end as one shared-world
/// batch and print the full report as JSON.
pub(crate) fn plan(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(PLAN_OPTIONS)?;
    let plan_path = args.positional(0, "plan.json")?;
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::Message(format!("cannot read plan {plan_path:?}: {e}")))?;
    let mut plan =
        QueryPlan::parse_str(&text).map_err(|e| CliError::Message(format!("{plan_path}: {e}")))?;
    // --epsilon and friends override the plan document's precision block.
    if let Some(precision) = precision_from_args(args)? {
        plan.precision = Some(precision);
    }
    let graph_path = match args.options.get("graph") {
        Some(path) => path.clone(),
        None => plan.graph.clone().ok_or_else(|| {
            CliError::Message(format!("{plan_path} names no \"graph\"; pass --graph FILE"))
        })?,
    };
    let graph = load(&graph_path)?;
    let report = plan.run_report(graph, &graph_path);
    Ok(if args.flag("compact") {
        report.render()
    } else {
        report.pretty()
    })
}

/// The top `top` vertex ids by descending score, ties broken by ascending
/// vertex id — the ranking shared by `query` and `batch` reports.
fn ranked_vertices(scores: &[f64], top: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..scores.len()).collect();
    ranked.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    ranked.truncate(top);
    ranked
}

fn format_top(label: &str, scores: &[f64], top: usize) -> String {
    let mut out = format!("top {} vertices by {label}:\n", top.min(scores.len()));
    for v in ranked_vertices(scores, top) {
        out.push_str(&format!("  vertex {:>6}  {:.6}\n", v, scores[v]));
    }
    out
}

/// `ugs compare`.
pub(crate) fn compare(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(COMPARE_OPTIONS)?;
    let original = load(args.positional(0, "original.txt")?)?;
    let sparsified = load(args.positional(1, "sparsified.txt")?)?;
    if original.num_vertices() != sparsified.num_vertices() {
        return Err(CliError::Message(format!(
            "vertex counts differ: {} vs {}",
            original.num_vertices(),
            sparsified.num_vertices()
        )));
    }
    let seed = args.u64_or("seed", 42)?;
    let num_pairs = args.usize_or("pairs", 100)?;
    let num_cuts = args.usize_or("cuts", 500)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mc = monte_carlo_config(args, 200)?;

    let degree_mae =
        ugs_metrics::degree_discrepancy_mae(&original, &sparsified, MetricDiscrepancy::Absolute);
    let cut_mae = ugs_metrics::cut_discrepancy_mae(
        &original,
        &sparsified,
        &CutSamplingConfig {
            num_cuts,
            max_cardinality: original.num_vertices(),
        },
        &mut rng,
    );
    let rel_entropy = ugs_metrics::relative_entropy(&original, &sparsified);

    let pr_original = expected_pagerank(&original, &mc, &mut rng);
    let pr_sparse = expected_pagerank(&sparsified, &mc, &mut rng);
    let pairs = random_pairs(original.num_vertices(), num_pairs, &mut rng);
    let rl_original = pair_queries(&original, &pairs, &mc, &mut rng);
    let rl_sparse = pair_queries(&sparsified, &pairs, &mc, &mut rng);

    Ok(format!(
        "edges                  : {} -> {}\ndegree discrepancy MAE : {:.6}\ncut discrepancy MAE    : {:.6}\nrelative entropy       : {:.4}\nD_em (PageRank)        : {:.6}\nD_em (reliability)     : {:.6}\n",
        original.num_edges(),
        sparsified.num_edges(),
        degree_mae,
        cut_mae,
        rel_entropy,
        ugs_metrics::earth_movers_distance(&pr_original, &pr_sparse),
        ugs_metrics::earth_movers_distance(&rl_original.reliability, &rl_sparse.reliability),
    ))
}

/// Parses a `--fault-plan SPEC` option, gated behind `UGS_FAULTS=1`: fault
/// injection is a test/bench surface and must not be reachable by a stray
/// flag in production.
fn fault_plan_option(args: &ParsedArgs) -> Result<Option<ugs_server::FaultPlan>, CliError> {
    let Some(spec) = args.options.get("fault-plan") else {
        return Ok(None);
    };
    if std::env::var("UGS_FAULTS").as_deref() != Ok("1") {
        return Err(CliError::Message(
            "--fault-plan is a test/bench surface; set UGS_FAULTS=1 to enable it".to_string(),
        ));
    }
    ugs_server::FaultPlan::parse(spec)
        .map(Some)
        .map_err(CliError::Message)
}

/// Parses a comma-separated address list option.
fn addr_list(args: &ParsedArgs, option: &str) -> Vec<String> {
    args.options
        .get(option)
        .map(|list| {
            list.split(',')
                .map(|addr| addr.trim().to_string())
                .filter(|addr| !addr.is_empty())
                .collect()
        })
        .unwrap_or_default()
}

/// `ugs serve`: run the TCP query front-end over a graph until a client
/// sends `{"op": "shutdown"}`.
pub(crate) fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_options(SERVE_OPTIONS)?;
    let path = args.positional(0, "graph.txt")?;
    let graph = load(path)?;
    let shard = match (args.options.get("shard"), args.options.get("shards")) {
        (None, None) => None,
        (Some(_), None) | (None, Some(_)) => {
            return Err(CliError::Message(
                "--shard and --shards come as a pair (shard K of W workers)".to_string(),
            ))
        }
        (Some(_), Some(_)) => Some((args.usize_or("shard", 0)?, args.usize_or("shards", 1)?)),
    };
    let config = ugs_server::ServerConfig {
        addr: args.option_or("addr", "127.0.0.1:0"),
        executors: args.usize_or("executors", 2)?.max(1),
        queue_capacity: args.usize_or("queue", 64)?.max(1),
        max_inflight: args.usize_or("max-inflight", 8)?.max(1),
        cache_bytes: args.usize_or("cache-bytes", 1 << 20)?,
        max_plan_threads: args.usize_or("max-plan-threads", 8)?.max(1),
        max_line_bytes: args
            .usize_or("max-line-bytes", ugs_server::protocol::MAX_LINE_BYTES)?
            .max(64),
        shard,
        fault_plan: fault_plan_option(args)?,
    };
    let handle = ugs_server::serve(graph, config)
        .map_err(|e| CliError::Message(format!("cannot serve: {e}")))?;
    let addr = handle.addr();
    if let Some(announce) = args.options.get("announce") {
        std::fs::write(announce, addr.to_string())
            .map_err(|e| CliError::Message(format!("cannot write {announce:?}: {e}")))?;
    }
    eprintln!(
        "serving {path} on {addr} (line-delimited JSON; send {{\"op\": \"shutdown\"}} to stop)"
    );
    handle.wait();
    Ok(format!("server on {addr} stopped"))
}

/// `ugs coordinate`: execute a query plan over a fleet of world-block
/// workers and print the report — bit-identical to the in-process run.
pub(crate) fn coordinate(args: &ParsedArgs) -> Result<String, CliError> {
    use std::time::Duration;

    args.expect_options(COORDINATE_OPTIONS)?;
    let graph_path = args.positional(0, "graph.txt")?;
    let plan_path = args.positional(1, "plan.json")?;
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::Message(format!("cannot read plan {plan_path:?}: {e}")))?;
    let plan =
        QueryPlan::parse_str(&text).map_err(|e| CliError::Message(format!("{plan_path}: {e}")))?;
    let workers = args
        .options
        .get("workers")
        .ok_or_else(|| CliError::Message("--workers HOST:PORT,... is required".to_string()))?;
    let addrs: Vec<String> = workers
        .split(',')
        .map(|addr| addr.trim().to_string())
        .filter(|addr| !addr.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(CliError::Message(
            "--workers names no addresses".to_string(),
        ));
    }
    let graph = load(graph_path)?;
    let config = ugs_dist::CoordinatorConfig {
        timeout: Duration::from_millis(args.u64_or("timeout-ms", 10_000)?),
        retries: args.usize_or("retries", 2)?,
        reconnect_backoff: Duration::from_millis(args.u64_or("backoff-ms", 25)?),
        standbys: addr_list(args, "standbys"),
        faults: fault_plan_option(args)?,
        ..ugs_dist::CoordinatorConfig::default()
    };
    let mut coordinator = ugs_dist::DistCoordinator::connect(graph, &addrs, config)
        .map_err(|e| CliError::Message(format!("cannot assemble the fleet: {e}")))?;
    let report = coordinator.run_report(&plan);
    coordinator.shutdown();
    Ok(if args.flag("compact") {
        report.render()
    } else {
        report.pretty()
    })
}

/// `ugs supervise`: launch one `ugs serve --shard` worker per port and
/// babysit the fleet — respawn crashes with backoff, detect crash loops,
/// kill and respawn workers that stop answering pings.
pub(crate) fn supervise(args: &ParsedArgs) -> Result<String, CliError> {
    use std::time::Duration;

    args.expect_options(SUPERVISE_OPTIONS)?;
    let graph_path = args.positional(0, "graph.txt")?;
    // Validate the graph up front: an unreadable file should be one typed
    // error here, not a fleet of crash-looping workers.
    load(graph_path)?;
    let ports = args
        .options
        .get("ports")
        .ok_or_else(|| CliError::Message("--ports P1,P2,... is required".to_string()))?;
    let ports: Vec<u16> = ports
        .split(',')
        .map(|port| port.trim())
        .filter(|port| !port.is_empty())
        .map(|port| {
            port.parse::<u16>()
                .map_err(|_| CliError::Message(format!("--ports entry {port:?} is not a port")))
        })
        .collect::<Result<_, _>>()?;
    if ports.is_empty() {
        return Err(CliError::Message("--ports names no ports".to_string()));
    }
    // One host may supervise a slice of a wider fleet: --shard-base is the
    // first shard index here, --shards the fleet-wide count (defaulting to
    // base + port count, i.e. this host completes the fleet).
    let base = args.usize_or("shard-base", 0)?;
    let shards = match args.options.get("shards") {
        None => base + ports.len(),
        Some(declared) => {
            let declared: usize = declared
                .parse()
                .map_err(|_| CliError::Message(format!("--shards {declared:?} is not a count")))?;
            if declared < base + ports.len() {
                return Err(CliError::Message(format!(
                    "--shards {declared} cannot hold shards {base}..{} \
                     (shard-base {base} + {} listed ports)",
                    base + ports.len(),
                    ports.len()
                )));
            }
            declared
        }
    };
    let host = args.option_or("host", "127.0.0.1");
    let program = std::env::current_exe()
        .map_err(|e| CliError::Message(format!("cannot locate the ugs binary: {e}")))?;
    let specs: Vec<ugs_dist::WorkerSpec> = ports
        .iter()
        .enumerate()
        .map(|(i, port)| {
            let k = base + i;
            let addr = format!("{host}:{port}");
            ugs_dist::WorkerSpec {
                name: format!("shard-{k}"),
                addr: addr.clone(),
                program: program.clone(),
                args: vec![
                    "serve".to_string(),
                    graph_path.to_string(),
                    "--shard".to_string(),
                    k.to_string(),
                    "--shards".to_string(),
                    shards.to_string(),
                    "--addr".to_string(),
                    addr,
                ],
            }
        })
        .collect();
    let ping_ms = args.u64_or("ping-ms", 500)?;
    let defaults = ugs_dist::SupervisorConfig::default();
    let config = ugs_dist::SupervisorConfig {
        ping_interval: (ping_ms > 0).then(|| Duration::from_millis(ping_ms)),
        backoff: Duration::from_millis(args.u64_or("backoff-ms", 200)?),
        max_backoff: Duration::from_millis(args.u64_or("max-backoff-ms", 5_000)?),
        max_respawns: args.usize_or("max-respawns", defaults.max_respawns)?,
        crash_loop_limit: args
            .usize_or("crash-loop", defaults.crash_loop_limit)?
            .max(1),
        ..defaults
    };
    let announce = args.options.get("announce").map(std::path::PathBuf::from);
    let report = ugs_dist::supervise(specs, config, announce.as_deref(), |line| {
        eprintln!("{line}")
    })
    .map_err(|e| CliError::Message(format!("supervisor failed: {e}")))?;
    let rendered = report.render();
    let rendered = if args.flag("compact") {
        rendered.render()
    } else {
        rendered.pretty()
    };
    if report.all_done() {
        Ok(rendered)
    } else {
        Err(CliError::Failed {
            report: rendered,
            message: "not every worker ended gracefully".to_string(),
        })
    }
}

/// `ugs request`: one round-trip against a running `ugs serve` instance —
/// either a control op or a plan submission polled to completion.
pub(crate) fn request(args: &ParsedArgs) -> Result<String, CliError> {
    use std::time::Duration;

    args.expect_options(REQUEST_OPTIONS)?;
    let addr = args.positional(0, "host:port")?;
    let timeout = Duration::from_millis(args.u64_or("timeout-ms", 30_000)?);
    let mut client = ugs_server::LineClient::connect(addr)
        .map_err(|e| CliError::Message(format!("cannot connect to {addr}: {e}")))?;
    client
        .set_read_timeout(Some(timeout))
        .map_err(|e| CliError::Message(e.to_string()))?;
    let render = |value: &minijson::Value| {
        if args.flag("compact") {
            value.render()
        } else {
            value.pretty()
        }
    };
    if let Some(plan_path) = args.options.get("plan") {
        let text = std::fs::read_to_string(plan_path)
            .map_err(|e| CliError::Message(format!("cannot read plan {plan_path:?}: {e}")))?;
        // Re-render to one line: the wire protocol frames by newline, and a
        // plan file is usually pretty-printed.
        let plan = minijson::Value::parse(&text)
            .map_err(|e| CliError::Message(format!("{plan_path}: {e}")))?;
        let accepted = client
            .submit(&plan.render())
            .map_err(|e| CliError::Message(format!("submit failed: {e}")))?;
        if accepted.get_str("status") != Some("ok") {
            return Err(CliError::Message(format!(
                "server refused the plan: {}",
                accepted.render()
            )));
        }
        let job = accepted
            .get_usize("job")
            .ok_or_else(|| CliError::Message("submit response names no job".to_string()))?;
        let report = client
            .wait_for_report(job as u64)
            .map_err(|e| CliError::Message(format!("poll failed: {e}")))?;
        return Ok(render(&report));
    }
    let op = args.option_or("op", "ping");
    if !matches!(op.as_str(), "ping" | "stats" | "shutdown") {
        return Err(CliError::Message(format!(
            "unknown op {op:?}; expected ping|stats|shutdown (or --plan FILE)"
        )));
    }
    let response = client
        .request(&format!(r#"{{"op": "{op}"}}"#))
        .map_err(|e| CliError::Message(format!("{op} failed: {e}")))?;
    if response.get_str("status") != Some("ok") {
        return Err(CliError::Message(format!(
            "server answered: {}",
            response.render()
        )));
    }
    Ok(render(&response))
}

/// Dispatches a parsed command line.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => generate(args),
        "stats" => stats(args),
        "sparsify" => sparsify(args),
        "query" => query(args),
        "compare" => compare(args),
        "batch" => batch(args),
        "plan" => plan(args),
        "serve" => serve(args),
        "coordinate" => coordinate(args),
        "supervise" => supervise(args),
        "request" => request(args),
        "help" | "--help" | "-h" => {
            args.expect_options(HELP_OPTIONS)?;
            match args.positionals.first() {
                None => Ok(usage()),
                Some(command) => usage_for(command).ok_or_else(|| {
                    CliError::Message(format!("unknown command {command:?}\n\n{}", usage()))
                }),
            }
        }
        other => Err(CliError::Message(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ugs-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn write_toy_graph(name: &str) -> String {
        let g = UncertainGraph::from_edges(
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
                (2, 4, 0.35),
                (3, 5, 0.45),
            ],
        )
        .unwrap();
        let path = temp_path(name);
        io::write_text_file(&g, &path).unwrap();
        path.to_string_lossy().to_string()
    }

    #[test]
    fn generate_then_stats_round_trip() {
        let out = temp_path("generated.txt").to_string_lossy().to_string();
        let args = ParsedArgs::parse([
            "generate",
            "--dataset",
            "twitter",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--output",
            &out,
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("wrote twitter"));
        let stats_args = ParsedArgs::parse(["stats", out.as_str()]).unwrap();
        let report = run(&stats_args).unwrap();
        assert!(report.contains("entropy"));
        assert!(report.contains("200"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn generate_rejects_unknown_inputs() {
        let args =
            ParsedArgs::parse(["generate", "--dataset", "mars", "--output", "/tmp/x"]).unwrap();
        assert!(run(&args).is_err());
        let args =
            ParsedArgs::parse(["generate", "--scale", "galactic", "--output", "/tmp/x"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["generate"]).unwrap();
        assert!(run(&args).is_err()); // missing --output
    }

    #[test]
    fn sparsify_writes_output_and_reports_diagnostics() {
        let input = write_toy_graph("sparsify-in.txt");
        let output = temp_path("sparsify-out.txt").to_string_lossy().to_string();
        let args = ParsedArgs::parse([
            "sparsify",
            &input,
            "--alpha",
            "0.5",
            "--method",
            "emd",
            "--discrepancy",
            "relative",
            "--output",
            &output,
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("EMD^R-t"), "{report}");
        assert!(report.contains("10 -> 5"), "{report}");
        let written = io::read_text_file(&output).unwrap();
        assert_eq!(written.num_edges(), 5);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn sparsify_supports_every_method_name() {
        let input = write_toy_graph("methods.txt");
        for method in ["gdb", "emd", "lp", "ni", "ss"] {
            let mut argv = vec!["sparsify", &input, "--alpha", "0.5", "--method", method];
            if !matches!(method, "ni" | "ss") {
                argv.extend(["--backbone", "random"]);
            }
            let report = run(&ParsedArgs::parse(argv).unwrap()).unwrap();
            assert!(report.contains("edges"), "{method}: {report}");
        }
        let bad = ParsedArgs::parse(["sparsify", &input, "--method", "magic"]).unwrap();
        assert!(run(&bad).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn sparsify_reports_are_stable_and_report_timings() {
        let input = write_toy_graph("stable-reports.txt");
        let timed = |method: &str| {
            let args = ParsedArgs::parse([
                "sparsify", &input, "--alpha", "0.5", "--method", method, "--time",
            ])
            .unwrap();
            run(&args).unwrap()
        };
        // Everything except the wall-clock lines is a deterministic
        // snapshot.
        let stable = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|line| !line.starts_with("time") && !line.starts_with("timings"))
                .map(str::to_string)
                .collect()
        };
        for method in ["gdb", "emd"] {
            let report = timed(method);
            assert_eq!(stable(&report), stable(&timed(method)), "{method}");
            assert!(!report.contains("engine"), "{report}");
            // --time emits a parseable JSON object with the per-phase fields.
            let timings_line = report
                .lines()
                .find(|line| line.starts_with("timings"))
                .expect("timings line present");
            let json = timings_line.split_once(':').unwrap().1.trim();
            let doc = minijson::Value::parse(json).expect("valid timings JSON");
            for field in ["backbone_ms", "optimize_ms", "materialize_ms", "total_ms"] {
                let value = doc.get_f64(field).unwrap_or(-1.0);
                assert!(value >= 0.0, "{method}: {field} = {value}");
            }
            // EMD also splits its optimisation time into its two phases.
            let phases = ["e_phase_ms", "m_phase_ms"].map(|field| doc.get_f64(field));
            if method == "emd" {
                let [e_phase, m_phase] = phases.map(|ms| ms.expect("an EMD phase time"));
                let optimize = doc.get_f64("optimize_ms").unwrap();
                assert!(e_phase >= 0.0 && m_phase >= 0.0, "{report}");
                assert!(e_phase + m_phase <= optimize, "{report}");
            } else {
                assert_eq!(phases, [None, None], "{report}");
            }
        }
        // Without --time no timings line appears.
        let plain =
            run(&ParsedArgs::parse(["sparsify", &input, "--alpha", "0.5"]).unwrap()).unwrap();
        assert!(!plain.contains("timings"), "{plain}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn sparsify_refuses_the_engine_option_as_unknown() {
        let input = write_toy_graph("no-engine.txt");
        for method in ["gdb", "emd"] {
            let args = ParsedArgs::parse([
                "sparsify", &input, "--method", method, "--engine", "indexed",
            ])
            .unwrap();
            match run(&args) {
                Err(CliError::Args(ArgsError::UnknownOption {
                    option, command, ..
                })) => assert_eq!((option.as_str(), command.as_str()), ("engine", "sparsify")),
                other => panic!("{method}: expected an unknown-option refusal, got {other:?}"),
            }
        }
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn sparsify_refuses_options_its_method_never_reads() {
        let input = write_toy_graph("unread-options.txt");
        let sparsify = |method: &str, extra: &[&str]| {
            let mut argv = vec!["sparsify", &input, "--alpha", "0.5", "--method", method];
            argv.extend(extra);
            run(&ParsedArgs::parse(argv).unwrap())
        };
        let refusals = [
            ("ni", "discrepancy", "absolute"),
            ("ni", "backbone", "random"),
            ("ni", "h", "0.7"),
            ("ni", "k", "1"),
            ("ss", "discrepancy", "relative"),
            ("ss", "backbone", "spanning"),
            ("ss", "h", "0.05"),
            ("ss", "k", "4"),
            ("lp", "h", "1"),
        ];
        for (method, option, value) in refusals {
            let flag = format!("--{option}");
            match sparsify(method, &[&flag, value]) {
                Err(CliError::Args(ArgsError::UnusedOption {
                    option: refused,
                    mode,
                    ..
                })) => {
                    assert_eq!(
                        (refused.as_str(), mode),
                        (option, format!("--method {method}"))
                    );
                }
                other => panic!("{method} {flag} {value}: expected a refusal, got {other:?}"),
            }
            let message = sparsify(method, &[&flag, value]).unwrap_err().to_string();
            assert!(message.contains(&flag), "{message}");
        }
        // The options each method does read stay accepted.
        let kept: [(&str, &[&str]); 3] = [
            ("ni", &["--seed", "3", "--time"]),
            ("ss", &["--seed", "3"]),
            (
                "lp",
                &[
                    "--backbone",
                    "random",
                    "--discrepancy",
                    "absolute",
                    "--k",
                    "1",
                ],
            ),
        ];
        for (method, extra) in kept {
            let report = sparsify(method, extra).unwrap();
            assert!(report.contains("edges"), "{method}: {report}");
        }
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn query_commands_produce_summaries() {
        let input = write_toy_graph("query.txt");
        for (query, needle) in [
            ("pagerank", "PageRank"),
            ("cc", "clustering"),
            ("sp", "reliability"),
            ("connectivity", "P(connected)"),
            ("knn", "nearest neighbours"),
        ] {
            let args = ParsedArgs::parse([
                "query", &input, "--query", query, "--worlds", "50", "--pairs", "5", "--top", "3",
            ])
            .unwrap();
            let report = run(&args).unwrap();
            assert!(report.contains(needle), "{query}: {report}");
        }
        let bad = ParsedArgs::parse(["query", &input, "--query", "nope"]).unwrap();
        assert!(run(&bad).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn query_honours_engine_options() {
        let input = write_toy_graph("query-engine.txt");
        // same seed + sequential ⇒ identical reports, whatever the mode
        let run_with = |extra: &[&str]| {
            let mut argv = vec!["query", &input, "--query", "pagerank", "--worlds", "80"];
            argv.extend_from_slice(extra);
            run(&ParsedArgs::parse(argv).unwrap()).unwrap()
        };
        let sequential_a = run_with(&["--sequential"]);
        let sequential_b = run_with(&["--sequential"]);
        assert_eq!(sequential_a, sequential_b);
        let skip = run_with(&["--sequential", "--mode", "skip"]);
        let per_edge = run_with(&["--sequential", "--mode", "per-edge"]);
        assert!(skip.contains("PageRank") && per_edge.contains("PageRank"));
        let threaded = run_with(&["--threads", "2"]);
        assert!(threaded.contains("PageRank"));
        let bad = ParsedArgs::parse(["query", &input, "--mode", "psychic"]).unwrap();
        assert!(run(&bad).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn batch_evaluates_several_queries_in_one_json_report() {
        let input = write_toy_graph("batch.txt");
        let args = ParsedArgs::parse([
            "batch",
            &input,
            "--queries",
            "pagerank,cc,sp,connectivity,degree-hist,edge-freq,knn",
            "--worlds",
            "60",
            "--pairs",
            "5",
            "--top",
            "3",
            "--sequential",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        let doc = minijson::Value::parse(&report).expect("valid JSON");
        assert_eq!(doc.get_usize("worlds"), Some(60));
        let queries = doc.get("queries").expect("queries object");
        for key in [
            "pagerank",
            "clustering",
            "sp",
            "connectivity",
            "degree_histogram",
            "edge_frequencies",
            "knn",
        ] {
            assert!(queries.get(key).is_some(), "{key} missing: {report}");
        }
        assert_eq!(
            queries
                .get("pagerank")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(3)
        );
        // Deterministic: same seed, same report, byte for byte.
        assert_eq!(report, run(&args).unwrap());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn batch_rejects_bad_query_lists() {
        let input = write_toy_graph("batch-bad.txt");
        let bad = ParsedArgs::parse(["batch", &input, "--queries", "psychic"]).unwrap();
        assert!(run(&bad).is_err());
        let empty = ParsedArgs::parse(["batch", &input, "--queries", ","]).unwrap();
        assert!(run(&empty).is_err());
        let out_of_range =
            ParsedArgs::parse(["batch", &input, "--queries", "knn", "--source", "999"]).unwrap();
        assert!(run(&out_of_range).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn batch_refuses_seeds_its_report_cannot_echo() {
        let input = write_toy_graph("batch-seed.txt");
        let batch = |seed: &str| {
            run(&ParsedArgs::parse([
                "batch",
                &input,
                "--queries",
                "connectivity",
                "--worlds",
                "20",
                "--seed",
                seed,
                "--compact",
            ])
            .unwrap())
        };
        // 2^53 - 1 is the largest seed a JSON number holds exactly.
        let report = batch("9007199254740991").unwrap();
        assert!(report.contains(r#""seed":9007199254740991"#), "{report}");
        // 2^53 and 2^53 + 1 would both echo as 2^53 while sampling apart.
        for seed in ["9007199254740992", "9007199254740993"] {
            let error = batch(seed).unwrap_err().to_string();
            assert!(error.contains("--seed"), "{error}");
            assert!(error.contains("2^53"), "{error}");
        }
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn shard_options_and_the_partition_command_are_gone() {
        let input = write_toy_graph("no-shards.txt");
        let batch = ParsedArgs::parse(["batch", &input, "--shards", "2"]).unwrap();
        let error = run(&batch).unwrap_err().to_string();
        assert!(error.contains("unknown option --shards"), "{error}");
        let plan = ParsedArgs::parse(["plan", "plan.json", "--shards", "2"]).unwrap();
        let error = run(&plan).unwrap_err().to_string();
        assert!(error.contains("unknown option --shards"), "{error}");
        let partition = ParsedArgs::parse(["partition", &input]).unwrap();
        let error = run(&partition).unwrap_err().to_string();
        assert!(error.contains("unknown command"), "{error}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn plan_parse_errors_point_at_the_failing_query() {
        let plan_path = temp_path("bad-query-plan.json")
            .to_string_lossy()
            .to_string();
        std::fs::write(
            &plan_path,
            r#"{"queries": [{"type": "connectivity"}, {"type": "knn"}]}"#,
        )
        .unwrap();
        let error = run(&ParsedArgs::parse(["plan", plan_path.as_str()]).unwrap())
            .unwrap_err()
            .to_string();
        // Snapshot of the improved validation message: the plan path, the
        // failing entry's index and name, and the underlying cause.
        assert!(error.contains(&plan_path), "{error}");
        assert!(error.contains("queries[1] (\"knn\")"), "{error}");
        assert!(error.contains("source"), "{error}");
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn compare_reports_all_metrics() {
        let input = write_toy_graph("compare-in.txt");
        let sparse_path = temp_path("compare-sparse.txt")
            .to_string_lossy()
            .to_string();
        let sparsify_args = ParsedArgs::parse([
            "sparsify",
            &input,
            "--alpha",
            "0.5",
            "--output",
            &sparse_path,
        ])
        .unwrap();
        run(&sparsify_args).unwrap();
        let args = ParsedArgs::parse([
            "compare",
            &input,
            &sparse_path,
            "--worlds",
            "50",
            "--pairs",
            "5",
            "--cuts",
            "50",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        for needle in [
            "degree discrepancy",
            "cut discrepancy",
            "relative entropy",
            "D_em",
        ] {
            assert!(report.contains(needle), "{report}");
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&sparse_path).ok();
    }

    #[test]
    fn help_and_unknown_commands() {
        let help = run(&ParsedArgs::parse(["help"]).unwrap()).unwrap();
        assert!(help.contains("USAGE"));
        assert!(run(&ParsedArgs::parse(["frobnicate"]).unwrap()).is_err());
    }

    #[test]
    fn help_knows_every_subcommand() {
        let full = run(&ParsedArgs::parse(["help"]).unwrap()).unwrap();
        for command in [
            "generate", "stats", "sparsify", "query", "compare", "batch", "plan",
        ] {
            assert!(full.contains(command), "{command} missing from help");
            let single = run(&ParsedArgs::parse(["help", command]).unwrap()).unwrap();
            assert!(single.contains("USAGE"), "{command}: {single}");
            assert!(single.contains(command), "{command}: {single}");
        }
        assert!(run(&ParsedArgs::parse(["help", "frobnicate"]).unwrap()).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_per_subcommand() {
        let input = write_toy_graph("unknown-options.txt");
        // A typo'd --worlds must fail loudly, not silently use the default.
        let typo = ParsedArgs::parse(["query", &input, "--world", "50"]).unwrap();
        let error = run(&typo).unwrap_err().to_string();
        assert!(error.contains("unknown option --world"), "{error}");
        assert!(
            error.contains("--worlds"),
            "suggests the allowed set: {error}"
        );
        // Options of one command are not valid for another.
        let crossed = ParsedArgs::parse(["stats", &input, "--alpha", "0.5"]).unwrap();
        assert!(run(&crossed).is_err());
        let crossed = ParsedArgs::parse(["sparsify", &input, "--queries", "pagerank"]).unwrap();
        assert!(run(&crossed).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn plan_executes_a_json_query_plan_end_to_end() {
        let input = write_toy_graph("plan-graph.txt");
        let plan_path = temp_path("plan.json").to_string_lossy().to_string();
        std::fs::write(
            &plan_path,
            format!(
                r#"{{"graph": {input:?}, "worlds": 80, "threads": 2, "mode": "skip", "seed": 9,
                    "queries": [
                      {{"type": "pagerank"}},
                      {{"type": "connectivity"}},
                      {{"type": "knn", "source": 0, "k": 3}},
                      {{"type": "edge_frequency"}}
                    ]}}"#
            ),
        )
        .unwrap();
        let args = ParsedArgs::parse(["plan", plan_path.as_str()]).unwrap();
        let report = run(&args).unwrap();
        assert_eq!(report, run(&args).unwrap(), "plan reports are snapshots");
        let doc = minijson::Value::parse(&report).expect("valid JSON");
        assert_eq!(doc.get_usize("worlds"), Some(80));
        assert_eq!(doc.get_str("mode"), Some("skip"));
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 4);
        for entry in results {
            assert_eq!(entry.get_str("status"), Some("ok"), "{report}");
        }
        assert_eq!(
            results[0].get("query").unwrap().get_str("type"),
            Some("pagerank")
        );
        // --graph overrides the plan's graph path.
        let override_args =
            ParsedArgs::parse(["plan", plan_path.as_str(), "--graph", input.as_str()]).unwrap();
        assert!(run(&override_args).is_ok());
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn plan_rejects_missing_files_and_bad_documents() {
        assert!(run(&ParsedArgs::parse(["plan", "/nonexistent/plan.json"]).unwrap()).is_err());
        let bad_path = temp_path("bad-plan.json").to_string_lossy().to_string();
        std::fs::write(&bad_path, r#"{"queries": []}"#).unwrap();
        assert!(run(&ParsedArgs::parse(["plan", bad_path.as_str()]).unwrap()).is_err());
        // A plan without a graph needs --graph.
        std::fs::write(&bad_path, r#"{"queries": [{"type": "connectivity"}]}"#).unwrap();
        assert!(run(&ParsedArgs::parse(["plan", bad_path.as_str()]).unwrap()).is_err());
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn query_accepts_an_adaptive_precision_target() {
        let input = write_toy_graph("adaptive-query.txt");
        let args = ParsedArgs::parse([
            "query",
            &input,
            "--query",
            "connectivity",
            "--worlds",
            "100000",
            "--sequential",
            "--epsilon",
            "0.05",
            "--delta",
            "0.1",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("worlds sampled (adaptive)"), "{report}");
        let sampled: usize = report
            .lines()
            .find(|line| line.starts_with("worlds sampled"))
            .and_then(|line| line.split(':').nth(1))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(0 < sampled && sampled < 100_000, "{report}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn precision_flags_require_epsilon_and_validate() {
        let input = write_toy_graph("precision-flags.txt");
        for bad in [
            vec!["query", input.as_str(), "--delta", "0.1"],
            vec!["query", input.as_str(), "--max-worlds", "50"],
            vec!["query", input.as_str(), "--epsilon", "0"],
            vec!["query", input.as_str(), "--epsilon", "-0.5"],
            vec!["query", input.as_str(), "--epsilon", "0.1", "--delta", "2"],
            vec!["batch", input.as_str(), "--deadline-ms", "100"],
        ] {
            let what = bad.join(" ");
            let args = ParsedArgs::parse(bad).unwrap();
            assert!(run(&args).is_err(), "{what} should be rejected");
        }
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn batch_reports_adaptive_effort() {
        let input = write_toy_graph("adaptive-batch.txt");
        let args = ParsedArgs::parse([
            "batch",
            &input,
            "--queries",
            "connectivity,edge-freq",
            "--worlds",
            "100000",
            "--sequential",
            "--epsilon",
            "0.05",
            "--seed",
            "5",
            "--compact",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        let doc = minijson::Value::parse(&report).unwrap();
        let worlds_used = doc.get("worlds_used").unwrap().as_usize().unwrap();
        assert!(0 < worlds_used && worlds_used < 100_000, "{report}");
        let half_width = doc.get("half_width").unwrap().as_f64().unwrap();
        assert!(half_width <= 0.05, "{report}");
        // Without --epsilon the report has no effort fields.
        let fixed = ParsedArgs::parse([
            "batch",
            &input,
            "--queries",
            "connectivity",
            "--worlds",
            "50",
            "--compact",
        ])
        .unwrap();
        let fixed_report = run(&fixed).unwrap();
        let fixed_doc = minijson::Value::parse(&fixed_report).unwrap();
        assert!(fixed_doc.get("worlds_used").is_none(), "{fixed_report}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn plan_documents_and_flags_drive_adaptive_precision() {
        let input = write_toy_graph("adaptive-plan.txt");
        let plan_path = temp_path("adaptive-plan.json")
            .to_string_lossy()
            .to_string();
        std::fs::write(
            &plan_path,
            r#"{"worlds": 100000, "seed": 9, "threads": 1,
                "precision": {"epsilon": 0.05},
                "queries": [{"type": "connectivity"}]}"#,
        )
        .unwrap();
        let args = ParsedArgs::parse([
            "plan",
            plan_path.as_str(),
            "--graph",
            input.as_str(),
            "--compact",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        let doc = minijson::Value::parse(&report).unwrap();
        assert!(doc.get("precision").is_some(), "{report}");
        let entry = &doc.get("results").unwrap().as_array().unwrap()[0];
        let worlds_used = entry.get("worlds_used").unwrap().as_usize().unwrap();
        assert!(0 < worlds_used && worlds_used < 100_000, "{report}");
        assert!(entry.get("half_width").is_some(), "{report}");
        // The CLI flag overrides the document's block: a looser target must
        // not use more worlds.
        let loose = ParsedArgs::parse([
            "plan",
            plan_path.as_str(),
            "--graph",
            input.as_str(),
            "--epsilon",
            "0.2",
            "--compact",
        ])
        .unwrap();
        let loose_report = run(&loose).unwrap();
        let loose_doc = minijson::Value::parse(&loose_report).unwrap();
        let loose_entry = &loose_doc.get("results").unwrap().as_array().unwrap()[0];
        let loose_worlds = loose_entry.get("worlds_used").unwrap().as_usize().unwrap();
        assert!(loose_worlds <= worlds_used, "{loose_report}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn serve_and_request_round_trip_over_loopback() {
        let input = write_toy_graph("serve-input.txt");
        let announce = temp_path("serve-addr.txt").to_string_lossy().to_string();
        std::fs::remove_file(&announce).ok();
        let plan_path = temp_path("serve-plan.json").to_string_lossy().to_string();
        std::fs::write(
            &plan_path,
            "{\n  \"worlds\": 60,\n  \"seed\": 3,\n  \"queries\": [{\"type\": \"connectivity\"}, {\"type\": \"edge_frequency\"}]\n}\n",
        )
        .unwrap();

        let serve_args = ParsedArgs::parse([
            "serve",
            input.as_str(),
            "--addr",
            "127.0.0.1:0",
            "--announce",
            &announce,
        ])
        .unwrap();
        let server = std::thread::spawn(move || run(&serve_args).unwrap());
        // The announce file is the handshake: wait for the bound address.
        let addr = loop {
            match std::fs::read_to_string(&announce) {
                Ok(addr) if !addr.is_empty() => break addr,
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };

        let ping = ParsedArgs::parse(["request", &addr, "--op", "ping", "--compact"]).unwrap();
        assert!(run(&ping).unwrap().contains("pong"));

        let submit =
            ParsedArgs::parse(["request", &addr, "--plan", &plan_path, "--compact"]).unwrap();
        let report = run(&submit).unwrap();
        assert!(report.contains("\"results\""), "{report}");
        assert!(report.contains("fingerprint:"), "{report}");
        // Identical resubmission is served from the cache, bit-identically.
        assert_eq!(run(&submit).unwrap(), report);

        let stats = ParsedArgs::parse(["request", &addr, "--op", "stats", "--compact"]).unwrap();
        let stats_report = run(&stats).unwrap();
        assert!(stats_report.contains("\"hits\""), "{stats_report}");

        let shutdown =
            ParsedArgs::parse(["request", &addr, "--op", "shutdown", "--compact"]).unwrap();
        assert!(run(&shutdown).unwrap().contains("stopping"));
        let farewell = server.join().unwrap();
        assert!(farewell.contains("stopped"), "{farewell}");

        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&announce).ok();
        std::fs::remove_file(&plan_path).ok();
    }

    #[test]
    fn request_rejects_bad_targets_and_ops_typed() {
        let bad_op = ParsedArgs::parse(["request", "127.0.0.1:1", "--op", "warp"]).unwrap();
        let message = run(&bad_op).unwrap_err().to_string();
        assert!(message.contains("cannot connect") || message.contains("unknown op"));
        let unknown_option =
            ParsedArgs::parse(["request", "127.0.0.1:1", "--frobnicate", "yes"]).unwrap();
        assert!(run(&unknown_option).is_err());
    }

    #[test]
    fn supervise_rejects_a_fleet_its_shard_slice_cannot_fit() {
        let input = write_toy_graph("supervise-slice.txt");
        // shard-base 3 + 2 ports needs shards >= 5; declaring 4 is typed.
        let args = ParsedArgs::parse([
            "supervise",
            input.as_str(),
            "--ports",
            "7991,7992",
            "--shards",
            "4",
            "--shard-base",
            "3",
        ])
        .unwrap();
        let message = run(&args).unwrap_err().to_string();
        assert!(message.contains("cannot hold shards 3..5"), "{message}");
        std::fs::remove_file(&input).ok();
    }
}
