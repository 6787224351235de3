//! Distributed loopback, over real process boundaries: two `ugs serve
//! --shard K --shards 2` worker processes are driven by `ugs coordinate`,
//! and the distributed report must carry exactly the results the
//! in-process `ugs plan` run produces — for one plan holding every query
//! kind, pair queries included.  A dead fleet must fail with the typed
//! `worker_lost` error — quickly, never a hang.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use uncertain_graph::{io, UncertainGraph};

const UGS: &str = env!("CARGO_BIN_EXE_ugs");

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ugs-dist-loopback");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn write_graph(name: &str) -> String {
    let n = 30;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n, 0.15 + 0.02 * i as f64));
    }
    for i in (0..n).step_by(5) {
        edges.push((i, (i + 11) % n, 0.55));
    }
    let g = UncertainGraph::from_edges(n, edges).unwrap();
    let path = temp_path(name);
    io::write_text_file(&g, &path).unwrap();
    path.to_string_lossy().to_string()
}

/// Spawns `ugs serve --shard k --shards 2` and waits for its announce file.
fn spawn_worker(graph: &str, k: usize) -> (Child, String) {
    let announce = temp_path(&format!("worker-{k}.addr"));
    std::fs::remove_file(&announce).ok();
    let child = Command::new(UGS)
        .args([
            "serve",
            graph,
            "--shard",
            &k.to_string(),
            "--shards",
            "2",
            "--announce",
            &announce.to_string_lossy(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&announce) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "worker {k} never announced");
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

fn run_ugs(args: &[&str]) -> Output {
    Command::new(UGS).args(args).output().expect("run ugs")
}

fn shutdown(addr: &str, mut child: Child) {
    let output = run_ugs(&["request", addr, "--op", "shutdown"]);
    assert!(output.status.success(), "shutdown request failed");
    child.wait().expect("worker did not exit");
}

#[test]
fn coordinator_over_two_worker_processes_matches_the_in_process_run() {
    let graph = write_graph("loopback.txt");
    let plan_path = temp_path("loopback-plan.json");
    std::fs::write(
        &plan_path,
        r#"{"worlds": 150, "threads": 2, "seed": 11,
            "queries": [{"type": "connectivity"},
                        {"type": "degree_histogram"},
                        {"type": "edge_frequency"},
                        {"type": "pagerank", "tolerance": 0.01},
                        {"type": "clustering"},
                        {"type": "knn", "source": 4, "k": 6},
                        {"type": "pair_queries", "pairs": [[0, 1], [4, 15]]}]}"#,
    )
    .unwrap();
    let plan = plan_path.to_string_lossy().to_string();

    let (child0, addr0) = spawn_worker(&graph, 0);
    let (child1, addr1) = spawn_worker(&graph, 1);

    let distributed = run_ugs(&[
        "coordinate",
        &graph,
        &plan,
        "--workers",
        &format!("{addr0},{addr1}"),
        "--compact",
    ]);
    assert!(
        distributed.status.success(),
        "coordinate failed: {}",
        String::from_utf8_lossy(&distributed.stderr)
    );
    let in_process = run_ugs(&["plan", &plan, "--graph", &graph, "--compact"]);
    assert!(in_process.status.success());

    // Same plan, same worlds: the per-query results must agree byte for
    // byte (the report envelopes differ only in the graph label — the
    // coordinator reports the fleet's fingerprint, `ugs plan` the path).
    let parse = |output: &Output| {
        minijson::Value::parse(std::str::from_utf8(&output.stdout).unwrap().trim()).unwrap()
    };
    let (dist_doc, mono_doc) = (parse(&distributed), parse(&in_process));
    assert_eq!(
        dist_doc.get("results").unwrap().render(),
        mono_doc.get("results").unwrap().render(),
        "distributed results differ from the in-process run"
    );
    for field in ["worlds", "threads", "seed", "mode"] {
        assert_eq!(
            dist_doc.get(field).map(minijson::Value::render),
            mono_doc.get(field).map(minijson::Value::render),
            "envelope field {field} differs"
        );
    }

    // Fault path: with the fleet gone, coordinate degrades to the typed
    // error in bounded time instead of hanging.
    shutdown(&addr0, child0);
    shutdown(&addr1, child1);
    let started = Instant::now();
    let dead = run_ugs(&[
        "coordinate",
        &graph,
        &plan,
        "--workers",
        &format!("{addr0},{addr1}"),
    ]);
    assert!(!dead.status.success());
    assert!(
        String::from_utf8_lossy(&dead.stderr).contains("worker_lost"),
        "expected worker_lost, got: {}",
        String::from_utf8_lossy(&dead.stderr)
    );
    assert!(started.elapsed() < Duration::from_secs(60), "must not hang");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&plan_path).ok();
}
