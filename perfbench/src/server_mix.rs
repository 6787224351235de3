//! `server_mix`: two `LineClient` connections to `ugs_server::serve`
//! (2 executors) send a seeded plan stream, closed loop.  70% of the
//! requests repeat an answered plan (cache hits: reads); the rest carry an
//! unseen seed (misses: the server executes and inserts: writes).  The
//! three templates — counts, k-NN and edge frequency, whose megabyte report
//! makes rendering and parsing a hit's cost — get equal shares.  The cache
//! budget holds the repeated working set, while fresh plans still evict.  After the load, every report — hit or miss — is compared byte
//! for byte with `QueryPlan::report_for` of an in-process run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minijson::Value;
use uncertain_graph::UncertainGraph;

use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::{QueryPlan, QuerySpec};

use crate::ops::{fnv1a, PlanKey, RequestStream, Seeds, Template};
use crate::queries::{self, MirrorBatch};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{setup_median, Metrics, Outcome, RunArgs};

/// Worlds per plan (small: this workload is about the serving layers).
const WORLDS: usize = 8;
/// Client connections, one caller thread each.
const CONNECTIONS: usize = 2;
/// Result-cache budget: the repeated windows of both connections (18
/// plans, six of them ~1 MB edge-frequency answers) fit, and the stream of
/// fresh plans keeps evicting older ones.
const CACHE_BYTES: usize = 16 << 20;
/// Sleep between polls of a running job (what `LineClient::wait_for_report`
/// does).
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// A request that takes longer than this fails.
const TIMEOUT: Duration = Duration::from_secs(30);

fn specs(template: Template) -> Vec<QuerySpec> {
    match template {
        Template::Counts => vec![QuerySpec::Connectivity, QuerySpec::DegreeHistogram],
        Template::Knn => vec![queries::knn_spec()],
        Template::EdgeFrequency => vec![QuerySpec::EdgeFrequency],
    }
}

fn plan(key: PlanKey) -> QueryPlan {
    queries::plan(specs(key.template), WORLDS, 1, key.seed)
}

/// The bytes of the `report` field of a finished poll response, exactly as
/// they crossed the wire (`report` is the response's last field).
fn report_bytes(line: &str) -> Option<&str> {
    const KEY: &str = ",\"report\":";
    let start = line.find(KEY)? + KEY.len();
    line.strip_suffix('}')
        .map(|body| &body[start.min(body.len())..])
}

/// One answered request.
struct Request {
    key: PlanKey,
    traced: bool,
    cached: bool,
    ms: f64,
    ack_ms: f64,
    polls: u32,
    report: (u64, usize),
}

/// Submits `key` and polls to delivery; `Err` carries the typed error
/// code or the I/O failure.
fn request(
    client: &mut LineClient,
    tracer: &Tracer,
    op: u64,
    key: PlanKey,
    submit_line: &str,
) -> Result<Request, String> {
    let root = tracer.open("server.request", None, op);
    let started = Instant::now();
    let result = (|| {
        let ack = tracer
            .span("server.submit", root, op, |_| client.request(submit_line))
            .map_err(|e| format!("io: {e}"))?;
        let ack_ms = started.elapsed().as_secs_f64() * 1e3;
        if ack.get_str("status") != Some("ok") {
            return Err(ack.get_str("code").unwrap_or("unknown").to_string());
        }
        let cached = ack.get("cached").and_then(Value::as_bool) == Some(true);
        let job = ack.get_usize("job").ok_or("submit ack without a job id")?;
        let poll_line = format!(r#"{{"op": "poll", "job": {job}}}"#);
        let mut polls = 0;
        loop {
            let line = tracer
                .span("server.poll", root, op, |_| client.request_raw(&poll_line))
                .map_err(|e| format!("io: {e}"))?
                .ok_or("server closed the connection")?;
            polls += 1;
            let response = tracer
                .span("minijson.parse", root, op, |_| Value::parse(&line))
                .map_err(|e| format!("unparseable poll response: {e}"))?;
            if response.get_str("status") != Some("ok") {
                return Err(response.get_str("code").unwrap_or("unknown").to_string());
            }
            if response.get("done").and_then(Value::as_bool) == Some(true) {
                let report = report_bytes(&line).ok_or("done poll without a report")?;
                return Ok(Request {
                    key,
                    traced: tracer.enabled(),
                    cached,
                    ms: 0.0,
                    ack_ms,
                    polls,
                    report: (fnv1a(report.as_bytes()), report.len()),
                });
            }
            if started.elapsed() > TIMEOUT {
                return Err("timeout".to_string());
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    })();
    tracer.close(root);
    result.map(|request| Request {
        ms: started.elapsed().as_secs_f64() * 1e3,
        ..request
    })
}

fn connect(server: &ServerHandle) -> std::io::Result<LineClient> {
    let mut client = LineClient::connect(server.addr())?;
    client.set_read_timeout(Some(TIMEOUT))?;
    client.set_write_timeout(Some(TIMEOUT))?;
    Ok(client)
}

struct Phase {
    requests: Vec<Request>,
    errors: Vec<String>,
    wall_s: f64,
    hits: u64,
    lookups: u64,
    evictions: u64,
}

/// Runs both connections' closed loops for `budget`, continuing their
/// request streams.  With an enabled `tracer` every other request of a
/// connection is traced, so traced and untraced requests share the
/// machine's conditions.
fn load(
    server: &ServerHandle,
    clients: &mut [LineClient],
    streams: &mut [RequestStream],
    tracer: &Tracer,
    budget: Duration,
) -> Phase {
    let before = server.cache_stats();
    let started = Instant::now();
    let per_connection: Vec<(Vec<Request>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(connection, (client, stream))| {
                scope.spawn(move || {
                    let off = Tracer::new(false);
                    let (mut done, mut errors) = (Vec::new(), Vec::new());
                    let mut index = 0u64;
                    while started.elapsed() < budget {
                        let (key, _) = stream.next_request();
                        let line = format!(
                            r#"{{"op": "submit", "plan": {}}}"#,
                            plan(key).to_json().render()
                        );
                        let op = (connection as u64) << 32 | index;
                        index += 1;
                        let traced = tracer.enabled() && op % 2 == 1;
                        let tracer = if traced { tracer } else { &off };
                        match request(client, tracer, op, key, &line) {
                            Ok(request) => done.push(request),
                            Err(error) => {
                                // A broken or stuck connection is replaced;
                                // a typed error leaves it usable.
                                let broken = error.starts_with("io:")
                                    || error == "timeout"
                                    || error == "server closed the connection";
                                if broken {
                                    if let Ok(fresh) = connect(server) {
                                        *client = fresh;
                                    }
                                }
                                errors.push(error);
                            }
                        }
                    }
                    (done, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("connection thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = server.cache_stats();
    let (mut requests, mut errors) = (Vec::new(), Vec::new());
    for (done, failed) in per_connection {
        requests.extend(done);
        errors.extend(failed);
    }
    Phase {
        requests,
        errors,
        wall_s,
        hits: after.hits - before.hits,
        lookups: (after.hits + after.misses) - (before.hits + before.misses),
        evictions: after.evictions - before.evictions,
    }
}

/// Compares every delivered report with the in-process report of its plan
/// (computed once per distinct plan, on two threads); returns, per
/// request, whether its report bytes match.
fn verify(graph: &Arc<UncertainGraph>, label: &str, requests: &[Request]) -> Vec<bool> {
    let mut keys: Vec<PlanKey> = requests.iter().map(|r| r.key).collect();
    keys.sort();
    keys.dedup();
    let expected: BTreeMap<PlanKey, (u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&key| {
                            let plan = plan(key);
                            let answers = plan.execute_detailed(Arc::clone(graph));
                            let report = plan.report_for(label, &answers).render();
                            (key, (fnv1a(report.as_bytes()), report.len()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("verification thread"))
            .collect()
    });
    requests
        .iter()
        .map(|request| expected.get(&request.key) == Some(&request.report))
        .collect()
}

/// Times the serving layers a miss and a hit pass through: the plan
/// overhead over a bare `QueryBatch` (mean over one plan per template), and
/// the render and parse of an edge-frequency report.  Plans use `seed`.
fn serving_layers(
    tracer: &Tracer,
    graph: &Arc<UncertainGraph>,
    label: &str,
    seed: u64,
    out: &mut Metrics,
) {
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let ms: Vec<f64> = (0..5)
            .map(|_| {
                tracer.span(name, None, 0, |_| {
                    let started = Instant::now();
                    f();
                    started.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        median(&ms)
    };
    let engine = ugs_queries::WorldEngine::new(graph);
    let mut overhead = Vec::new();
    for template in Template::ALL {
        let key = PlanKey { template, seed };
        let plan = plan(key);
        let plan_ms = timed("service.execute_detailed", &mut || {
            std::hint::black_box(plan.execute_detailed(Arc::clone(graph)));
        });
        let batch_ms = timed("queries.batch.t1", &mut || {
            std::hint::black_box(
                MirrorBatch::new(&engine, &plan.queries, WORLDS, 1, key.seed).run(),
            );
        });
        overhead.push(plan_ms - batch_ms);
    }
    out.set("service.plan_overhead_ms", mean(&overhead));

    // Render and parse: the edge-frequency report dominates hit latency.
    let plan = plan(PlanKey {
        template: Template::EdgeFrequency,
        seed,
    });
    let answers = plan.execute_detailed(Arc::clone(graph));
    let mut rendered = String::new();
    let render_ms = timed("service.render", &mut || {
        rendered = plan.report_for(label, &answers).render();
    });
    let parse_ms = timed("minijson.parse_report", &mut || {
        std::hint::black_box(Value::parse(&rendered).expect("own report parses"));
    });
    out.set("service.render_ms", render_ms);
    out.set("service.report_bytes", rendered.len() as f64);
    out.set("minijson.parse_ms", parse_ms);
}

/// Runs the workload; see the [module docs](self).
pub fn run(args: &RunArgs, out: &mut Metrics) -> Outcome {
    let (setup_s, (graph, server, mut clients)) = setup_median(|| {
        let graph = queries::generate_graph(args.seed);
        let server = serve(
            Arc::clone(&graph),
            ServerConfig {
                executors: 2,
                cache_bytes: CACHE_BYTES,
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback server");
        let clients: Vec<LineClient> = (0..CONNECTIONS)
            .map(|_| connect(&server).expect("connect to the loopback server"))
            .collect();
        (graph, server, clients)
    });
    out.set("setup_s", setup_s);
    out.header(&graph, CONNECTIONS, CONNECTIONS);
    let label = format!("fingerprint:{:016x}", graph.fingerprint());

    // Warm-up: one miss per template, with a seed the stream never draws
    // (stream seeds are below 2^40).
    let warm_seed = 1 << 41 | Seeds::new(args.seed, "warm-up").next_seed();
    for template in Template::ALL {
        let key = PlanKey {
            template,
            seed: warm_seed,
        };
        let line = format!(
            r#"{{"op": "submit", "plan": {}}}"#,
            plan(key).to_json().render()
        );
        let warm = request(&mut clients[0], &Tracer::new(false), 0, key, &line);
        if let Err(error) = warm {
            println!("# warm-up request failed: {error}");
        }
    }

    let mut streams: Vec<RequestStream> = (0..CONNECTIONS)
        .map(|c| RequestStream::new(args.seed, c))
        .collect();
    let mut outcome = Outcome::default();
    let mut finish = |phase: &Phase, out: &mut Metrics| {
        for correct in verify(&graph, &label, &phase.requests) {
            outcome.record(Some(correct));
        }
        for error in &phase.errors {
            println!("# failed request: {error}");
            outcome.record(None);
        }
        let ms: Vec<f64> = phase.requests.iter().map(|r| r.ms).collect();
        let split = |cached: bool| -> Vec<f64> {
            phase
                .requests
                .iter()
                .filter(|r| r.cached == cached)
                .map(|r| r.ms)
                .collect()
        };
        let (hits, misses) = (split(true), split(false));
        out.plan_latencies(&ms);
        out.set("plans_per_s", ms.len() as f64 / phase.wall_s);
        out.set("server.hit_p50_ms", median(&hits));
        out.set("server.miss_p50_ms", median(&misses));
        out.set(
            "server.cache_hit_ratio",
            phase.hits as f64 / phase.lookups.max(1) as f64,
        );
        out.set("server.evictions", phase.evictions as f64);
        println!(
            "# requests={} hits={} (p50 {:.3} ms) misses={} (p50 {:.3} ms) evictions={} \
             cache_hit_ratio={:.3}",
            ms.len(),
            hits.len(),
            median(&hits),
            misses.len(),
            median(&misses),
            phase.evictions,
            phase.hits as f64 / phase.lookups.max(1) as f64
        );
        for template in Template::ALL {
            for cached in [true, false] {
                let ms: Vec<f64> = phase
                    .requests
                    .iter()
                    .filter(|r| r.key.template == template && r.cached == cached)
                    .map(|r| r.ms)
                    .collect();
                println!(
                    "#   {:<15} {:<4} n={:<5} p50 {:.3} ms",
                    template.name(),
                    if cached { "hit" } else { "miss" },
                    ms.len(),
                    median(&ms)
                );
            }
        }
    };
    let tracer = Tracer::new(args.trace);
    let phase = load(&server, &mut clients, &mut streams, &tracer, args.budget());
    finish(&phase, out);
    if !args.trace {
        return outcome;
    }
    let op_ms: Vec<(bool, f64)> = phase.requests.iter().map(|r| (r.traced, r.ms)).collect();
    out.trace_overhead(&op_ms);
    let traced = phase.requests.iter().filter(|r| r.traced);
    let acks: Vec<f64> = traced.clone().map(|r| r.ack_ms).collect();
    let polls: Vec<f64> = traced.map(|r| f64::from(r.polls)).collect();
    out.set("server.submit_ack_ms", median(&acks));
    out.set("server.polls_per_plan", mean(&polls));
    drop(clients);
    server.shutdown();
    let ladder_seed = Seeds::new(args.seed, "ladder").next_seed();
    queries::ladder(&tracer, None, &graph, ladder_seed, false, out);
    serving_layers(&tracer, &graph, &label, ladder_seed, out);
    out.finish_trace(&tracer, args);
    outcome
}
