//! `fleet`: a `DistCoordinator` drives two in-process loopback shard
//! workers through connectivity, degree histogram and edge frequency (16
//! worlds, 2 threads, a fresh plan seed per op).  Boundary encoding, the
//! wire and DSU glue take most of the time; every answer must equal the
//! in-process `execute_detailed` run.  The traced run puts a byte- and
//! line-counting forwarder in front of each worker.
//!
//! k-NN is left out: its halo BFS costs ~63 loopback round trips per world
//! (against ~2 for the three count queries), so its plan time follows the
//! host's wake-up latency rather than the program — on 2 shared cores the
//! median of a run moved by up to 60% between runs of the same code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertain_graph::UncertainGraph;

use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_server::{serve, ServerConfig, ServerHandle};
use ugs_service::QuerySpec;

use crate::forward::{Forwarder, Traffic};
use crate::ops::Seeds;
use crate::queries;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{closed_loop, setup_median, Metrics, Outcome, RunArgs};

/// Worlds per plan.
const WORLDS: usize = 16;
/// Shard workers.
const WORKERS: usize = 2;

fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Connectivity,
        QuerySpec::DegreeHistogram,
        QuerySpec::EdgeFrequency,
    ]
}

/// Shard workers and a coordinator, optionally talking through forwarders.
struct Fleet {
    coordinator: DistCoordinator,
    forwarders: Vec<Forwarder>,
    workers: Vec<ServerHandle>,
}

impl Fleet {
    fn start(graph: &Arc<UncertainGraph>, forwarded: bool) -> Fleet {
        let workers: Vec<ServerHandle> = (0..WORKERS)
            .map(|k| {
                let config = ServerConfig {
                    shard: Some((k, WORKERS)),
                    ..ServerConfig::default()
                };
                serve(Arc::clone(graph), config).expect("bind a loopback shard worker")
            })
            .collect();
        let forwarders: Vec<Forwarder> = if forwarded {
            workers
                .iter()
                .map(|worker| Forwarder::start(worker.addr()).expect("start a forwarder"))
                .collect()
        } else {
            Vec::new()
        };
        let addrs: Vec<String> = if forwarded {
            forwarders.iter().map(|f| f.addr().to_string()).collect()
        } else {
            workers.iter().map(|w| w.addr().to_string()).collect()
        };
        let coordinator =
            DistCoordinator::connect(Arc::clone(graph), &addrs, CoordinatorConfig::default())
                .expect("assemble the fleet");
        Fleet {
            coordinator,
            forwarders,
            workers,
        }
    }

    fn traffic(&self) -> Traffic {
        self.forwarders
            .iter()
            .map(Forwarder::traffic)
            .fold(Traffic::default(), |sum, t| Traffic {
                bytes_up: sum.bytes_up + t.bytes_up,
                bytes_down: sum.bytes_down + t.bytes_down,
                lines_up: sum.lines_up + t.lines_up,
                lines_down: sum.lines_down + t.lines_down,
            })
    }

    /// Coordinator first (its connections close), then the forwarders,
    /// then the workers; every thread is joined.
    fn shutdown(self) {
        self.coordinator.shutdown();
        for forwarder in self.forwarders {
            forwarder.shutdown();
        }
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

/// What one op produced.
struct FleetOp {
    ms: f64,
    inproc_ms: f64,
    /// `None` when the fleet returned an error (e.g. `worker_lost`).
    checked: Option<bool>,
}

/// One op: the timed fleet plan, then (untimed) the same plan in-process,
/// which the answers must equal.
fn op(
    tracer: &Tracer,
    fleet: &mut Fleet,
    graph: &Arc<UncertainGraph>,
    index: u64,
    seed: u64,
) -> FleetOp {
    let plan = queries::plan(specs(), WORLDS, 2, seed);
    let root = tracer.open("fleet.op", None, index);
    let started = Instant::now();
    let answers = tracer.span("dist.execute", root, index, |_| {
        fleet.coordinator.execute(&plan)
    });
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let (inproc_ms, expected) = tracer.span("service.execute_detailed", root, index, |_| {
        let started = Instant::now();
        let expected = plan.execute_detailed(Arc::clone(graph));
        (started.elapsed().as_secs_f64() * 1e3, expected)
    });
    tracer.close(root);
    let ok = answers.iter().all(Result::is_ok);
    FleetOp {
        ms,
        inproc_ms,
        checked: ok.then(|| answers == expected),
    }
}

/// Runs the workload; see the [module docs](self).
pub fn run(args: &RunArgs, out: &mut Metrics) -> Outcome {
    let (setup_s, (graph, fleet)) = setup_median(|| {
        let graph = queries::generate_graph(args.seed);
        let fleet = Fleet::start(&graph, false);
        (graph, fleet)
    });
    out.set("setup_s", setup_s);
    out.header(&graph, 1, WORKERS);
    let warm_seed = Seeds::new(args.seed, "warm-up").next_seed();

    let mut outcome = Outcome::default();
    let off = Tracer::new(false);
    let mut measure = |tracer: &Tracer, fleet: &mut Fleet, budget: Duration| {
        // Warm-up: connections, scratch and halo plans, outside the timing.
        op(&off, fleet, &graph, 0, warm_seed);
        let before = fleet.traffic();
        let mut seeds = Seeds::new(args.seed, "plan");
        let mut ops = Vec::new();
        // A phase is traced or not as a whole: the forwarder sees every op.
        closed_loop(budget, &off, |index, _| {
            let result = op(tracer, fleet, &graph, index, seeds.next_seed());
            outcome.record(result.checked);
            // A failed op counts only in `failed`, not in the timings.
            if result.checked.is_some() {
                ops.push(result);
            }
        });
        let after = fleet.traffic();
        (
            ops,
            after.bytes_up + after.bytes_down - before.bytes_up - before.bytes_down,
            after.lines_up - before.lines_up,
        )
    };
    if !args.trace {
        let mut fleet = fleet;
        let (ops, _, _) = measure(&off, &mut fleet, args.budget());
        fleet.shutdown();
        let ms: Vec<f64> = ops.iter().map(|op| op.ms).collect();
        out.plan_latencies(&ms);
        out.set(
            "plans_per_s",
            ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        );
        let inproc: Vec<f64> = ops.iter().map(|op| op.inproc_ms).collect();
        println!(
            "# in-process p50 {:.3} ms for the same plans; fleet/in-process = {:.2}",
            median(&inproc),
            median(&ms) / median(&inproc)
        );
        return outcome;
    }
    // Untraced phases on a direct fleet alternate with traced phases on a
    // forwarded one, so slow drift in the machine's speed touches both.
    let tracer = Tracer::new(true);
    let (mut ops, mut bytes, mut round_trips) = (Vec::new(), 0, 0);
    let mut setup_fleet = Some(fleet);
    for phase in 0..4 {
        let traced = phase % 2 == 1;
        let mut fleet = setup_fleet
            .take()
            .unwrap_or_else(|| Fleet::start(&graph, traced));
        let (phase_ops, phase_bytes, phase_round_trips) = measure(
            if traced { &tracer } else { &off },
            &mut fleet,
            args.budget() / 4,
        );
        fleet.shutdown();
        bytes += phase_bytes;
        round_trips += phase_round_trips;
        ops.extend(phase_ops.into_iter().map(|op| (traced, op)));
    }
    let op_ms: Vec<(bool, f64)> = ops.iter().map(|(traced, op)| (*traced, op.ms)).collect();
    out.trace_overhead(&op_ms);
    // The fleet-to-in-process ratio from the direct phases: the forwarder
    // hop is tracing cost, not the fleet's.
    let direct = ops.iter().filter(|(t, _)| !*t).map(|(_, op)| op);
    let ms: Vec<f64> = direct.clone().map(|op| op.ms).collect();
    let inproc: Vec<f64> = direct.map(|op| op.inproc_ms).collect();
    out.plan_latencies(&ms);
    let worlds = (ops.iter().filter(|(t, _)| *t).count() * WORLDS) as f64;
    out.set("dist.wire_bytes_per_world", bytes as f64 / worlds);
    out.set("dist.round_trips_per_world", round_trips as f64 / worlds);
    out.set("dist.fleet_over_inproc", median(&ms) / median(&inproc));
    let ladder_seed = Seeds::new(args.seed, "ladder").next_seed();
    queries::ladder(&tracer, None, &graph, ladder_seed, false, out);
    out.finish_trace(&tracer, args);
    outcome
}
