//! Distributed world blocks: a `ugs-dist` coordinator over 2 and 4
//! loopback fleet workers versus the in-process run of the same plan, on a
//! 60k-vertex power-law graph in the paper's probability regime
//! (p̄ = 0.09), for two plans — the count plan (connectivity, degree
//! histogram, edge frequency) and the neighbourhood plan (PageRank at
//! tolerance 1e-4 plus k-NN from vertex 0, 4 worlds).  Recorded in
//! `BENCH_dist.json`.
//!
//! Each plan runs with `threads` = the fleet size, so every worker holds
//! one world block.  Two times are reported per fleet, because the
//! loopback workers share the host's cores:
//!
//! * **loopback wall** — one full `DistCoordinator::execute`, every worker
//!   on this host at once;
//! * **per-worker critical path** — each worker's `world_block` job timed
//!   alone over the wire (connect, submit, run, page out its partials), the
//!   slowest one taken: the wall-clock of a fleet with one host per worker.
//!
//! Answers are asserted bit-identical to the in-process run before any
//! time is reported; every time is the fastest of [`RUNS`] runs.

use std::sync::Arc;
use std::time::Duration;

use minijson::{ObjBuilder, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::UncertainGraph;

use ugs_bench::harness::{fastest, write_bench_json};
use ugs_datasets::{preferential_attachment, ProbabilityModel};
use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_queries::BlockPlan;
use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::{mode_name, QueryPlan};

const VERTICES: usize = 60_000;
const EDGES_PER_VERTEX: usize = 4;
const MEAN_P: f64 = 0.09;
const FLEETS: [usize; 2] = [2, 4];
/// Timed runs per measurement; the fastest is kept (the host's other load
/// only ever adds time).
const RUNS: usize = 3;

/// One benchmarked plan: its name, world budget, seed and query list.
struct BenchPlan {
    name: &'static str,
    worlds: usize,
    seed: u64,
    queries: &'static str,
}

const PLANS: [BenchPlan; 2] = [
    BenchPlan {
        name: "count",
        worlds: 48,
        seed: 11,
        queries: r#"[{"type": "connectivity"}, {"type": "degree_histogram"},
                     {"type": "edge_frequency"}]"#,
    },
    BenchPlan {
        name: "pagerank+knn",
        worlds: 4,
        seed: 17,
        queries: r#"[{"type": "pagerank", "tolerance": 0.0001},
                     {"type": "knn", "source": 0, "k": 10}]"#,
    },
];

impl BenchPlan {
    fn with_threads(&self, threads: usize) -> QueryPlan {
        QueryPlan::parse_str(&format!(
            r#"{{"worlds": {}, "threads": {threads}, "seed": {}, "queries": {}}}"#,
            self.worlds, self.seed, self.queries
        ))
        .expect("bench plan parses")
    }
}

fn powerlaw_graph() -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(0xBB);
    Arc::new(preferential_attachment(
        VERTICES,
        EDGES_PER_VERTEX,
        ProbabilityModel::Fixed(MEAN_P),
        &mut rng,
    ))
}

fn spawn_fleet(graph: &Arc<UncertainGraph>, workers: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..workers)
        .map(|k| {
            let config = ServerConfig {
                shard: Some((k, workers)),
                ..ServerConfig::default()
            };
            serve(graph.clone(), config).expect("bind loopback worker")
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// One worker's block job driven over the wire on its own, from connect
/// to the last page: returns the bytes of every response.
fn isolated_block_job(addr: &str, plan: &QueryPlan, slot: usize, slots: usize) -> usize {
    let mut client = LineClient::connect(addr).expect("connect worker");
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let blocks = BlockPlan::fixed(plan.worlds, plan.threads);
    let seed = SmallRng::seed_from_u64(plan.seed).gen::<u64>();
    let queries = Value::Arr(plan.queries.iter().map(|spec| spec.to_json()).collect()).render();
    let submitted = client
        .request(&format!(
            "{{\"op\": \"world_block\", \"queries\": {queries}, \"mode\": \"{}\", \
             \"seed\": \"{seed}\", \"worlds\": {}, \"epoch\": {}, \"blocks\": {}, \
             \"slot\": {slot}, \"slots\": {slots}, \"epochs\": 1, \"finish\": true}}",
            mode_name(plan.mode),
            blocks.cap(),
            blocks.epoch(),
            blocks.blocks()
        ))
        .expect("submit world block");
    let job = submitted.get_usize("job").expect("job id");
    let (mut received, mut bytes) = (0usize, 0usize);
    loop {
        let line = client
            .request_raw(&format!(
                "{{\"op\": \"poll\", \"job\": {job}, \"from\": {received}}}"
            ))
            .expect("poll")
            .expect("worker answered");
        bytes += line.len();
        let page = Value::parse(&line).expect("page parses");
        if page.get("done").and_then(Value::as_bool) != Some(true) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let text = page.get_str("values").expect("values");
        received += ugs_queries::partial::decode_values(text).count();
        if received == page.get_usize("total").expect("total") {
            return bytes;
        }
    }
}

struct FleetMeasurement {
    workers: usize,
    in_process: Duration,
    loopback: Duration,
    per_worker: Vec<Duration>,
    wire_bytes: usize,
}

impl FleetMeasurement {
    fn critical_path(&self) -> Duration {
        self.per_worker.iter().copied().max().unwrap_or_default()
    }
}

fn measure(graph: &Arc<UncertainGraph>, bench: &BenchPlan, workers: usize) -> FleetMeasurement {
    let plan = bench.with_threads(workers);
    let (handles, addrs) = spawn_fleet(graph, workers);
    let mut coordinator =
        DistCoordinator::connect(graph.clone(), &addrs, CoordinatorConfig::default())
            .expect("assemble fleet");
    // Parity first, at benchmark scale: the fleet's answers equal the
    // in-process answers bitwise.  Then the timed passes.
    let expected = plan.execute_detailed(graph.clone());
    assert!(expected.iter().all(Result::is_ok));
    assert_eq!(
        coordinator.execute(&plan),
        expected,
        "{} parity at {workers} workers",
        bench.name
    );
    let in_process = fastest(RUNS, || plan.execute_detailed(graph.clone()));
    let loopback = fastest(RUNS, || coordinator.execute(&plan));
    coordinator.shutdown();
    let (mut per_worker, mut wire_bytes) = (Vec::new(), 0);
    for (slot, addr) in addrs.iter().enumerate() {
        let mut bytes = 0;
        per_worker.push(fastest(RUNS, || {
            bytes = isolated_block_job(addr, &plan, slot, workers);
        }));
        wire_bytes += bytes;
    }
    for handle in handles {
        handle.shutdown();
    }
    FleetMeasurement {
        workers,
        in_process,
        loopback,
        per_worker,
        wire_bytes,
    }
}

fn main() {
    let graph = powerlaw_graph();
    println!(
        "p̄ = {MEAN_P}  |V| = {VERTICES}  |E| = {}",
        graph.num_edges()
    );
    let mut plans = Vec::new();
    for bench in &PLANS {
        let fleets = FLEETS.map(|workers| measure(&graph, bench, workers));
        // The one-thread in-process run: what a single host does alone.
        let plan = bench.with_threads(1);
        let one_thread = fastest(RUNS, || plan.execute_detailed(graph.clone()));
        println!("  {}: in-process, 1 thread {one_thread:.2?}", bench.name);
        let fleets = fleets.map(|fleet| {
            let over_one_thread = fleet.critical_path().as_secs_f64() / one_thread.as_secs_f64();
            println!(
                "  {} @ {} workers: loopback {:.2?} (in-process, same threads, {:.2?}); \
                 per-worker critical path {:.2?} = {over_one_thread:.2}x the 1-thread \
                 in-process run",
                bench.name,
                fleet.workers,
                fleet.loopback,
                fleet.in_process,
                fleet.critical_path(),
            );
            let per_worker = fleet
                .per_worker
                .iter()
                .map(|time| Value::from(time.as_nanos() as f64))
                .collect::<Vec<_>>();
            ObjBuilder::new()
                .field("workers", fleet.workers)
                .field("loopback_wall_ns", fleet.loopback.as_nanos() as f64)
                .field(
                    "in_process_same_threads_ns",
                    fleet.in_process.as_nanos() as f64,
                )
                .field("critical_path_ns", fleet.critical_path().as_nanos() as f64)
                .field(
                    "critical_path_over_one_thread",
                    (over_one_thread * 1000.0).round() / 1000.0,
                )
                .field("per_worker_ns", per_worker)
                .field(
                    "wire_bytes_per_world",
                    (fleet.wire_bytes as f64 / bench.worlds as f64).round(),
                )
                .build()
        });
        let queries = plan
            .queries
            .iter()
            .map(|spec| spec.to_json())
            .collect::<Vec<_>>();
        plans.push(
            ObjBuilder::new()
                .field("plan", bench.name)
                .field("worlds", bench.worlds)
                .field("queries", queries)
                .field("in_process_one_thread_ns", one_thread.as_nanos() as f64)
                .field("fleets", fleets.to_vec())
                .build(),
        );
    }

    write_bench_json(
        "dist",
        ObjBuilder::new()
            .field(
                "graph",
                format!(
                    "preferential_attachment({VERTICES} vertices, m = {EDGES_PER_VERTEX}, \
                     p = {MEAN_P})"
                ),
            )
            .field("edges", graph.num_edges())
            .field("runs", RUNS)
            .field(
                "notes",
                "world-block fleets: each plan runs with threads = workers, so every loopback \
                 worker holds one world block (world_block op: replay to the block, observe it, \
                 page out the exact partials; the coordinator folds them in block order). \
                 Answers are asserted bit-identical to the in-process run before timing. \
                 loopback_wall_ns is one DistCoordinator::execute with every worker sharing \
                 this host's cores; critical_path_ns is the slowest worker's block job timed \
                 alone over the wire (connect to last page), the wall-clock of a \
                 one-host-per-worker fleet; critical_path_over_one_thread compares it with the \
                 1-thread in-process run. Every time is the fastest of `runs` runs. \
                 wire_bytes_per_world sums every worker's response bytes of the isolated jobs \
                 per world",
            )
            .field("plans", plans)
            .build(),
    );
}
