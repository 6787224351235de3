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
//!   alone over the wire (submit, run, page out its partials), the slowest
//!   one taken: the wall-clock of a fleet with one host per worker.
//!
//! Answers are asserted bit-identical to the in-process run before any
//! time is reported; every time is the fastest of three runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minijson::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::UncertainGraph;

use ugs_datasets::{preferential_attachment, ProbabilityModel};
use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_queries::BlockPlan;
use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::{mode_name, QueryPlan};

const VERTICES: usize = 60_000;
const EDGES_PER_VERTEX: usize = 4;
const MEAN_P: f64 = 0.09;
const FLEETS: [usize; 2] = [2, 4];

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

/// One worker's block job driven over the wire on its own: returns the
/// time from submit to the last page, and the bytes of every response.
fn isolated_block_job(
    addr: &str,
    plan: &QueryPlan,
    slot: usize,
    slots: usize,
) -> (Duration, usize) {
    let mut client = LineClient::connect(addr).expect("connect worker");
    client
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let blocks = BlockPlan::fixed(plan.worlds, plan.threads);
    let seed = SmallRng::seed_from_u64(plan.seed).gen::<u64>();
    let queries = Value::Arr(plan.queries.iter().map(|spec| spec.to_json()).collect()).render();
    let started = Instant::now();
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
            return (started.elapsed(), bytes);
        }
    }
}

/// Repetitions per timing; the fastest is kept (the host's other load
/// only ever adds time).
const REPS: usize = 3;

/// The fastest of [`REPS`] runs of `run`, each returning its own time.
fn fastest(run: impl FnMut() -> Duration) -> Duration {
    std::iter::repeat_with(run)
        .take(REPS)
        .min()
        .expect("at least one repetition")
}

/// The wall-clock of one call.
fn timed(run: impl FnOnce()) -> Duration {
    let started = Instant::now();
    run();
    started.elapsed()
}

struct FleetMeasurement {
    plan: &'static str,
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
    let in_process = fastest(|| {
        timed(|| {
            black_box(plan.execute_detailed(graph.clone()));
        })
    });
    let loopback = fastest(|| {
        timed(|| {
            black_box(coordinator.execute(&plan));
        })
    });
    coordinator.shutdown();
    let (mut per_worker, mut wire_bytes) = (Vec::new(), 0);
    for (slot, addr) in addrs.iter().enumerate() {
        let mut bytes = 0;
        per_worker.push(fastest(|| {
            let (time, sent) = isolated_block_job(addr, &plan, slot, workers);
            bytes = sent;
            time
        }));
        wire_bytes += bytes;
    }
    for handle in handles {
        handle.shutdown();
    }
    FleetMeasurement {
        plan: bench.name,
        workers,
        in_process,
        loopback,
        per_worker,
        wire_bytes,
    }
}

fn dist_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100));

    let graph = powerlaw_graph();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sequential = Vec::new();
    let mut fleets = Vec::new();
    for bench in &PLANS {
        // The one-thread in-process run: what a single host does alone.
        let plan = bench.with_threads(1);
        sequential.push((
            bench.name,
            fastest(|| {
                timed(|| {
                    black_box(plan.execute_detailed(graph.clone()));
                })
            }),
        ));
        for workers in FLEETS {
            fleets.push(measure(&graph, bench, workers));
        }
    }

    for fleet in &fleets {
        group.bench_with_input(
            BenchmarkId::new(format!("{}/critical_path", fleet.plan), fleet.workers),
            &fleet.critical_path(),
            |b, &d| b.iter(|| black_box(d)),
        );
    }
    group.finish();

    println!(
        "p̄ = {MEAN_P}  |V| = {VERTICES}  |E| = {}  cores = {cores}",
        graph.num_edges()
    );
    for (name, time) in &sequential {
        println!("  {name}: in-process, 1 thread {time:.2?}");
    }
    for fleet in &fleets {
        let (_, one_thread) = sequential
            .iter()
            .find(|(name, _)| *name == fleet.plan)
            .expect("sequential baseline");
        println!(
            "  {} @ {} workers: loopback {:.2?} (in-process, same threads, {:.2?}); \
             per-worker critical path {:.2?} = {:.2}x the 1-thread in-process run",
            fleet.plan,
            fleet.workers,
            fleet.loopback,
            fleet.in_process,
            fleet.critical_path(),
            fleet.critical_path().as_secs_f64() / one_thread.as_secs_f64(),
        );
    }
    write_trajectory(graph.num_edges(), cores, &sequential, &fleets);
}

/// Persists the measurements as `BENCH_dist.json` at the repo root.
fn write_trajectory(
    edges: usize,
    cores: usize,
    sequential: &[(&str, Duration)],
    fleets: &[FleetMeasurement],
) {
    let mut plans = String::new();
    for (i, (bench, (name, one_thread))) in PLANS.iter().zip(sequential).enumerate() {
        if i > 0 {
            plans.push_str(",\n");
        }
        let mut entries = String::new();
        for fleet in fleets.iter().filter(|fleet| fleet.plan == *name) {
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            let per_worker: Vec<String> = fleet
                .per_worker
                .iter()
                .map(|time| time.as_nanos().to_string())
                .collect();
            entries.push_str(&format!(
                "        {{\"workers\": {}, \"loopback_wall_ns\": {}, \
                 \"in_process_same_threads_ns\": {}, \"critical_path_ns\": {}, \
                 \"critical_path_over_one_thread\": {:.3}, \"per_worker_ns\": [{}], \
                 \"wire_bytes_per_world\": {:.0}}}",
                fleet.workers,
                fleet.loopback.as_nanos(),
                fleet.in_process.as_nanos(),
                fleet.critical_path().as_nanos(),
                fleet.critical_path().as_secs_f64() / one_thread.as_secs_f64(),
                per_worker.join(", "),
                fleet.wire_bytes as f64 / bench.worlds as f64,
            ));
        }
        let queries: Vec<String> = bench
            .with_threads(1)
            .queries
            .iter()
            .map(|spec| spec.to_json().render())
            .collect();
        plans.push_str(&format!(
            "    {{\"plan\": \"{name}\", \"worlds\": {}, \"queries\": [{}], \
             \"in_process_one_thread_ns\": {},\n      \"fleets\": [\n{entries}\n      ]}}",
            bench.worlds,
            queries.join(", "),
            one_thread.as_nanos(),
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"dist\",\n  \
         \"graph\": \"preferential_attachment({VERTICES} vertices, m = {EDGES_PER_VERTEX}, \
         p = {MEAN_P})\",\n  \"edges\": {edges},\n  \"cores\": {cores},\n  \
         \"notes\": \"world-block fleets: each plan runs with threads = workers, so every \
         loopback worker holds one world block (world_block op: replay to the block, observe \
         it, page out the exact partials; the coordinator folds them in block order). Answers \
         are asserted bit-identical to the in-process run before timing. loopback_wall_ns is \
         one DistCoordinator::execute with every worker sharing this host's cores; \
         critical_path_ns is the slowest worker's block job timed alone over the wire (submit \
         to last page), the wall-clock of a one-host-per-worker fleet; \
         critical_path_over_one_thread compares it with the 1-thread in-process run. Every \
         time is the fastest of 3 runs. \
         wire_bytes_per_world sums every worker's response bytes of the isolated jobs per \
         world\",\n  \"plans\": [\n{plans}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write BENCH_dist.json: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, dist_bench);
criterion_main!(benches);
