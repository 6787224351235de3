//! The `world_block` op over real loopback sockets: a worker's pages
//! reassemble exactly the partials and statistics an in-process
//! [`SlotRun`] produces, paging and the pause/advance cycle follow the
//! wire grammar, every bound answers a typed error — and a seeded
//! mutation run shows that no byte sequence on this op kills the
//! connection.

use std::time::Duration;

use minijson::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_queries::batch::BoxedObserver;
use ugs_queries::partial::decode_values;
use ugs_queries::{BlockPlan, SampleMethod, SlotRun, WorldEngine};
use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::QuerySpec;
use uncertain_graph::UncertainGraph;

/// Generous read timeout: a hung response fails the test loudly.
const SAFETY: Duration = Duration::from_secs(30);

fn graph() -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(0xB10C);
    let n = 24;
    let mut edges: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (i, (i + 1) % n, 0.2 + 0.7 * rng.gen::<f64>()))
        .collect();
    for i in (0..n).step_by(4) {
        edges.push((i, (i + 9) % n, 0.5));
    }
    UncertainGraph::from_edges(n, edges).unwrap()
}

fn start(config: ServerConfig) -> ServerHandle {
    serve(graph(), config).unwrap()
}

fn client(server: &ServerHandle) -> LineClient {
    let mut client = LineClient::connect(server.addr()).unwrap();
    client.set_read_timeout(Some(SAFETY)).unwrap();
    client
}

const QUERIES: &str = r#"[{"type": "connectivity"}, {"type": "edge_frequency"},
    {"type": "pagerank", "tolerance": 0.01}, {"type": "pair_queries", "pairs": [[0, 7], [3, 19]]}]"#;

fn specs() -> Vec<QuerySpec> {
    Value::parse(QUERIES)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|q| QuerySpec::parse(q).unwrap())
        .collect()
}

fn observers(g: &UncertainGraph) -> Vec<BoxedObserver> {
    specs()
        .iter()
        .map(|s| s.make_observer(g).unwrap())
        .collect()
}

#[allow(clippy::too_many_arguments)] // mirrors the request's fields one to one
fn block_line(
    seed: u64,
    plan: BlockPlan,
    slot: usize,
    slots: usize,
    epochs: usize,
    finish: bool,
) -> String {
    format!(
        r#"{{"op": "world_block", "queries": {QUERIES}, "mode": "skip", "seed": "{seed}",
            "worlds": {}, "epoch": {}, "blocks": {}, "slot": {slot}, "slots": {slots},
            "epochs": {epochs}, "finish": {finish}}}"#,
        plan.cap(),
        plan.epoch(),
        plan.blocks()
    )
    .replace('\n', " ")
}

fn ok(client: &mut LineClient, line: &str) -> Value {
    let response = client.request(line).unwrap();
    assert_eq!(
        response.get_str("status"),
        Some("ok"),
        "{line} -> {}",
        response.render()
    );
    response
}

/// Polls until the job's step is done, then pages its output `max`
/// values at a time; returns the values and the last page's response.
fn collect(client: &mut LineClient, job: usize, max: usize) -> (Vec<f64>, Value) {
    let mut values = Vec::new();
    loop {
        let from = values.len();
        let page = ok(
            client,
            &format!(r#"{{"op": "poll", "job": {job}, "from": {from}, "max": {max}}}"#),
        );
        if page.get("done").and_then(Value::as_bool) != Some(true) {
            assert!(page.get_usize("pos").is_some());
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        assert_eq!(page.get_usize("from"), Some(from));
        let text = page.get_str("values").unwrap();
        let got: Vec<f64> = decode_values(text).collect::<Result<_, _>>().unwrap();
        assert!(got.len() <= max);
        values.extend(got);
        if values.len() == page.get_usize("total").unwrap() {
            return (values, page);
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn fixed_blocks_page_out_exactly_the_in_process_partials() {
    let g = graph();
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let seed = u64::MAX - 5;
    let plan = BlockPlan::fixed(90, 5);
    for (slot, slots) in [(0, 1), (0, 2), (1, 2), (2, 3)] {
        let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut local = SlotRun::new(&engine, seed, plan, slot, slots, observers(&g));
        assert!(local.run_epoch(None, None));
        let mut expected = Vec::new();
        local.export_partials(&mut expected);

        let job = ok(&mut c, &block_line(seed, plan, slot, slots, 1, true))
            .get_usize("job")
            .unwrap();
        // Small pages exercise the cursor; the last one delivers the job.
        let (values, last) = collect(&mut c, job, 97);
        assert!(same_bits(&values, &expected), "slot {slot} of {slots}");
        assert_eq!(last.get("partials").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get_usize("epochs"), Some(1));
        let gone = c.poll(job as u64).unwrap();
        assert_eq!(gone.get_str("code"), Some("unknown_job"));
    }
    server.shutdown();
}

#[test]
fn adaptive_jobs_pause_with_statistics_and_resume_on_advance() {
    let g = graph();
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let seed = 77;
    let plan = BlockPlan::adaptive(200, 32, 3);
    let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
    let mut local = SlotRun::new(&engine, seed, plan, 1, 2, observers(&g));

    let job = ok(&mut c, &block_line(seed, plan, 1, 2, 1, false))
        .get_usize("job")
        .unwrap();
    for epochs in 1..=3 {
        let mut expected = Vec::new();
        assert!(local.run_epoch(Some(&mut expected), None));
        let (stats, last) = collect(&mut c, job, usize::MAX);
        assert!(same_bits(&stats, &expected), "epoch {epochs}");
        assert_eq!(last.get("partials").and_then(Value::as_bool), Some(false));
        assert_eq!(last.get_usize("epochs"), Some(epochs));
        // A paused job stays: re-reading a page is idempotent.
        let again = ok(
            &mut c,
            &format!(r#"{{"op": "poll", "job": {job}, "from": 0}}"#),
        );
        assert_eq!(again.get_usize("total"), Some(stats.len()));
        if epochs < 3 {
            ok(
                &mut c,
                &format!(
                    r#"{{"op": "world_block", "job": {job}, "epochs": {}, "finish": false}}"#,
                    epochs + 1
                ),
            );
        }
    }
    // Going backwards, or advancing a running job, is a typed error.
    let back = c
        .request(&format!(
            r#"{{"op": "world_block", "job": {job}, "epochs": 2, "finish": true}}"#
        ))
        .unwrap();
    assert_eq!(back.get_str("code"), Some("bad_request"));
    ok(
        &mut c,
        &format!(r#"{{"op": "world_block", "job": {job}, "epochs": 3, "finish": true}}"#),
    );
    let mut expected = Vec::new();
    local.export_partials(&mut expected);
    let (partials, _) = collect(&mut c, job, usize::MAX);
    assert!(same_bits(&partials, &expected));

    // A fresh job asked straight for epoch 3 replays epochs 1 and 2 and
    // pauses with the same statistics.
    let replay = ok(&mut c, &block_line(seed, plan, 1, 2, 3, false))
        .get_usize("job")
        .unwrap();
    let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
    let mut fresh = SlotRun::new(&engine, seed, plan, 1, 2, observers(&g));
    let mut expected = Vec::new();
    for _ in 0..3 {
        expected.clear();
        fresh.run_epoch(Some(&mut expected), None);
    }
    let (stats, _) = collect(&mut c, replay, usize::MAX);
    assert!(same_bits(&stats, &expected));
    server.shutdown();
}

#[test]
fn world_block_bounds_answer_typed_errors_and_the_connection_survives() {
    let server = start(ServerConfig {
        max_plan_threads: 2,
        max_inflight: 2,
        ..ServerConfig::default()
    });
    let mut c = client(&server);
    // Slot 0 of 1 over 3 blocks holds 3 registries > max_plan_threads 2.
    let refused = c
        .request(&block_line(1, BlockPlan::fixed(30, 3), 0, 1, 1, true))
        .unwrap();
    assert_eq!(
        refused.get_str("code"),
        Some("plan"),
        "{}",
        refused.render()
    );
    // Over two slots each holds at most 2: accepted.
    let job = ok(
        &mut c,
        &block_line(1, BlockPlan::fixed(30, 3), 0, 2, 1, true),
    )
    .get_usize("job")
    .unwrap();
    // A query the graph cannot run is a plan error.
    let bad_source = block_line(1, BlockPlan::fixed(30, 1), 0, 1, 1, true).replace(
        r#"{"type": "connectivity"}"#,
        r#"{"type": "knn", "source": 999}"#,
    );
    assert_eq!(
        c.request(&bad_source).unwrap().get_str("code"),
        Some("plan")
    );
    // Advancing a fixed job (never paused) is a bad request.
    let advance = c
        .request(&format!(
            r#"{{"op": "world_block", "job": {job}, "epochs": 1, "finish": true}}"#
        ))
        .unwrap();
    assert_eq!(advance.get_str("code"), Some("bad_request"));
    // The in-flight budget counts world-block jobs like submits.
    ok(
        &mut c,
        &block_line(2, BlockPlan::fixed(30, 1), 0, 1, 1, true),
    );
    let over = c
        .request(&block_line(3, BlockPlan::fixed(30, 1), 0, 1, 1, true))
        .unwrap();
    assert_eq!(over.get_str("code"), Some("over_budget"));
    // A 10^12 page size is bounded by the output itself: one page
    // delivers everything and drops the job.
    let page = loop {
        let page = ok(
            &mut c,
            &format!(r#"{{"op": "poll", "job": {job}, "from": 0, "max": 1000000000000}}"#),
        );
        if page.get("done").and_then(Value::as_bool) == Some(true) {
            break page;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let text = page.get_str("values").unwrap();
    assert_eq!(
        decode_values(text).count(),
        page.get_usize("total").unwrap()
    );
    let gone = c.poll(job as u64).unwrap();
    assert_eq!(gone.get_str("code"), Some("unknown_job"));
    let pong = c.request(r#"{"op": "ping"}"#).unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

/// Replaces the value of one top-level field of a JSON object line with
/// `replacement` (or removes the field when `None`).
fn with_field(line: &str, field: &str, replacement: Option<&str>) -> String {
    let value = Value::parse(line).unwrap();
    let Value::Obj(entries) = value else {
        unreachable!("requests are objects")
    };
    let body: Vec<String> = entries
        .iter()
        .filter_map(|(key, value)| {
            if key != field {
                return Some(format!("{:?}: {}", key, value.render()));
            }
            replacement.map(|text| format!("{key:?}: {text}"))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A seeded mutation of one valid request: byte flips, inserts and cuts,
/// or a field replaced by an edge value, dropped, or added.
fn mutate(rng: &mut SmallRng, line: &str) -> String {
    const EDGES: &[&str] = &[
        "-1",
        "0",
        "1",
        "2",
        "3",
        "1.5",
        "1e300",
        "9007199254740993",
        "1000000000000",
        "18446744073709551616",
        "null",
        "true",
        "false",
        r#""""#,
        r#""7""#,
        r#""-7""#,
        r#""18446744073709551616""#,
        "[]",
        "{}",
        r#"[{"type": "knn", "source": 1}]"#,
        r#"[{"type": "pagerank", "damping": 2}]"#,
        r#""skip""#,
        r#""warp""#,
    ];
    const FIELDS: &[&str] = &[
        "op", "queries", "mode", "seed", "worlds", "epoch", "blocks", "slot", "slots", "epochs",
        "finish", "job", "from", "max", "extra",
    ];
    match rng.gen_range(0..4) {
        0 => {
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..3) {
                    0 => bytes[at] = rng.gen::<u8>(),
                    1 => bytes.insert(at, b"{}[],:\"0-9x\\"[rng.gen_range(0..12usize)]),
                    _ => {
                        bytes.remove(at);
                    }
                }
                if bytes.is_empty() {
                    bytes.push(b'{');
                }
            }
            // A newline would split the line into two requests.
            bytes.retain(|&b| b != b'\n' && b != b'\r');
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let mut end = rng.gen_range(0..line.len());
            while !line.is_char_boundary(end) {
                end -= 1;
            }
            line[..end].to_string()
        }
        2 => {
            let field = FIELDS[rng.gen_range(0..FIELDS.len())];
            let value = EDGES[rng.gen_range(0..EDGES.len())];
            with_field(line, field, Some(value))
        }
        _ => {
            let field = FIELDS[rng.gen_range(0..FIELDS.len())];
            with_field(line, field, None)
        }
    }
}

#[test]
fn ten_thousand_seeded_mutations_get_typed_answers_and_the_connection_survives() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let valid = [
        block_line(9, BlockPlan::fixed(40, 3), 1, 2, 1, true),
        block_line(9, BlockPlan::adaptive(100, 16, 2), 0, 2, 2, false),
        r#"{"op": "world_block", "job": 1, "epochs": 3, "finish": false}"#.to_string(),
        r#"{"op": "poll", "job": 1, "from": 0, "max": 10}"#.to_string(),
    ];
    let mut accepted = 0;
    for round in 0..10_000 {
        let mut line = mutate(&mut rng, &valid[round % valid.len()]);
        if line.trim().is_empty() {
            // Blank lines are not requests: the server skips them unanswered.
            line.push('{');
        }
        let response = c.request(&line).unwrap_or_else(|error| {
            panic!("round {round}: {line:?} broke the connection: {error}")
        });
        match response.get_str("status") {
            Some("ok") => {
                // An accepted job is cancelled at once, so a mutated world
                // budget cannot keep an executor busy.
                if let (Some(job), Some("world_block")) = (
                    response.get_usize("job"),
                    Value::parse(&line)
                        .ok()
                        .as_ref()
                        .and_then(|v| v.get_str("op")),
                ) {
                    if response.get("epochs").is_none() {
                        accepted += 1;
                        c.cancel(job as u64).unwrap();
                    }
                }
            }
            Some("error") => {
                assert!(response.get_str("code").is_some(), "{}", response.render());
                assert!(response.get_str("message").is_some());
            }
            other => panic!("round {round}: {line:?} answered {other:?}"),
        }
    }
    assert!(accepted > 0, "some mutations stay valid and run");
    // The same connection still serves a normal plan end to end.
    let submitted = c
        .submit(r#"{"worlds": 30, "seed": 4, "queries": [{"type": "connectivity"}]}"#)
        .unwrap();
    let job = submitted.get_usize("job").unwrap() as u64;
    let report = c.wait_for_report(job).unwrap();
    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get_str("status"), Some("ok"));
    server.shutdown();
}
