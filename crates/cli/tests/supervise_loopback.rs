//! Process-level failover, end to end: `ugs supervise` launches a real
//! two-worker fleet, a worker is SIGKILLed while `ugs coordinate` drives a
//! plan through it, the supervisor respawns the corpse on its fixed port,
//! and the plan still completes with results byte-identical to the
//! in-process `ugs plan` run.  A standby address backs the coordinator so
//! the test never depends on respawn timing.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use uncertain_graph::{io, UncertainGraph};

const UGS: &str = env!("CARGO_BIN_EXE_ugs");

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ugs-supervise-loopback");
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

fn run_ugs(args: &[&str]) -> Output {
    Command::new(UGS).args(args).output().expect("run ugs")
}

/// Two ports the OS considers free right now (bound then released; the
/// supervisor's workers re-bind them moments later).
fn free_ports() -> (u16, u16) {
    let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    (
        a.local_addr().unwrap().port(),
        b.local_addr().unwrap().port(),
    )
}

/// Parses the announce file into `(name, addr, pid)` rows.
fn read_announce(path: &PathBuf) -> Vec<(String, String, u32)> {
    let Ok(content) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    content
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            Some((
                parts.next()?.to_string(),
                parts.next()?.to_string(),
                parts.next()?.parse().ok()?,
            ))
        })
        .collect()
}

/// Waits until the announce file lists a running `shard-1` whose pid
/// differs from `not` (pass 0 to accept any), returning its `(addr, pid)`.
fn wait_for_shard1(path: &PathBuf, not: u32, what: &str) -> (String, u32) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some((_, addr, pid)) = read_announce(path)
            .into_iter()
            .find(|(name, _, pid)| name == "shard-1" && *pid != not)
        {
            return (addr, pid);
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Spawns a standby `ugs serve --shard 1 --shards 2` and returns its
/// address once announced.
fn spawn_standby(graph: &str) -> (Child, String) {
    let announce = temp_path("standby.addr");
    std::fs::remove_file(&announce).ok();
    let child = Command::new(UGS)
        .args([
            "serve",
            graph,
            "--shard",
            "1",
            "--shards",
            "2",
            "--announce",
            &announce.to_string_lossy(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn standby");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&announce) {
            if !addr.trim().is_empty() {
                break addr.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "standby never announced");
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

#[test]
fn a_sigkilled_worker_is_respawned_and_the_plan_completes_bit_identically() {
    let graph = write_graph("fleet.txt");
    let plan_path = temp_path("fleet-plan.json");
    // Enough worlds that the coordinate run below is still paging when the
    // kill lands (and cheap enough to finish promptly either way).
    std::fs::write(
        &plan_path,
        r#"{"worlds": 400000, "threads": 2, "seed": 23,
            "queries": [{"type": "connectivity"},
                        {"type": "degree_histogram"},
                        {"type": "edge_frequency"}]}"#,
    )
    .unwrap();
    let plan = plan_path.to_string_lossy().to_string();
    let announce = temp_path("fleet.announce");
    std::fs::remove_file(&announce).ok();

    let (port0, port1) = free_ports();
    let mut supervisor = Command::new(UGS)
        .args([
            "supervise",
            &graph,
            "--ports",
            &format!("{port0},{port1}"),
            "--announce",
            &announce.to_string_lossy(),
            // Generous budgets: this test ends the fleet with graceful
            // shutdowns, never by exhausting the supervisor.
            "--max-respawns",
            "300",
            "--crash-loop",
            "300",
            "--backoff-ms",
            "300",
            "--ping-ms",
            "200",
            "--compact",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");

    let (victim_addr, victim_pid) = wait_for_shard1(&announce, 0, "the fleet to come up");
    let worker0_addr = format!("127.0.0.1:{port0}");
    assert_eq!(victim_addr, format!("127.0.0.1:{port1}"));
    let (standby_child, standby_addr) = spawn_standby(&graph);

    // Drive the plan through the fleet while the kill lands.  The retry
    // budget rides out the respawn window; the standby catches the case
    // where the respawn loses the race entirely.
    let started = Instant::now();
    let coordinate = Command::new(UGS)
        .args([
            "coordinate",
            &graph,
            &plan,
            "--workers",
            &format!("{worker0_addr},{victim_addr}"),
            "--standbys",
            &standby_addr,
            "--retries",
            "60",
            "--backoff-ms",
            "150",
            "--timeout-ms",
            "4000",
            "--compact",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinate");

    std::thread::sleep(Duration::from_millis(250));
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {victim_pid} failed");

    let distributed = coordinate.wait_with_output().expect("coordinate exits");
    assert!(
        distributed.status.success(),
        "coordinate failed after the kill: {}",
        String::from_utf8_lossy(&distributed.stderr)
    );
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "recovery must be bounded, took {:?}",
        started.elapsed()
    );

    // Byte-identical results despite losing a worker mid-plan.
    let in_process = run_ugs(&["plan", &plan, "--graph", &graph, "--compact"]);
    assert!(in_process.status.success());
    let parse = |output: &Output| {
        minijson::Value::parse(std::str::from_utf8(&output.stdout).unwrap().trim()).unwrap()
    };
    let (dist_doc, mono_doc) = (parse(&distributed), parse(&in_process));
    assert_eq!(
        dist_doc.get("results").unwrap().render(),
        mono_doc.get("results").unwrap().render(),
        "recovered distributed results differ from the in-process run"
    );

    // Respawn proof: the supervisor brings shard-1 back on its fixed port
    // under a fresh pid.
    let (respawned_addr, respawned_pid) =
        wait_for_shard1(&announce, victim_pid, "the respawned worker");
    assert_eq!(respawned_addr, victim_addr, "respawns re-bind the address");
    assert_ne!(respawned_pid, victim_pid);

    // Graceful teardown: shutdown ops exit every worker with status 0, so
    // the supervisor finishes on its own and reports what it did.
    for addr in [&worker0_addr, &victim_addr] {
        let output = run_ugs(&["request", addr, "--op", "shutdown"]);
        assert!(
            output.status.success(),
            "shutdown of {addr} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let report = loop {
        match supervisor.try_wait().expect("poll supervisor") {
            Some(status) => {
                assert!(status.success(), "supervisor exited with {status}");
                break supervisor.wait_with_output().expect("supervisor output");
            }
            None => {
                assert!(Instant::now() < deadline, "supervisor never finished");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let report =
        minijson::Value::parse(std::str::from_utf8(&report.stdout).unwrap().trim()).unwrap();
    let workers = report.get("workers").unwrap().as_array().unwrap();
    assert_eq!(workers.len(), 2);
    for worker in workers {
        assert_eq!(
            worker.get_str("outcome"),
            Some("done"),
            "{}",
            report.render()
        );
    }
    let shard1 = workers
        .iter()
        .find(|w| w.get_str("name") == Some("shard-1"))
        .unwrap();
    assert!(
        shard1.get_usize("respawns").unwrap() >= 1,
        "the kill must show up as a respawn: {}",
        report.render()
    );

    let _ = run_ugs(&["request", &standby_addr, "--op", "shutdown"]);
    let mut standby_child = standby_child;
    standby_child.wait().ok();
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&announce).ok();
}

/// A worker that can never bind its port crash-loops; the supervisor still
/// prints its report, and its exit status says the fleet did not end well.
#[test]
fn a_crash_looping_fleet_exits_nonzero_after_its_report() {
    let graph = write_graph("held-port.txt");
    // Hold the port for the whole run, so every spawned worker fails to bind.
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = held.local_addr().unwrap().port().to_string();
    let output = run_ugs(&[
        "supervise",
        &graph,
        "--ports",
        &port,
        "--crash-loop",
        "2",
        "--backoff-ms",
        "1",
        "--max-backoff-ms",
        "5",
        "--ping-ms",
        "0",
        "--compact",
    ]);
    drop(held);
    assert_eq!(
        output.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report =
        minijson::Value::parse(std::str::from_utf8(&output.stdout).unwrap().trim()).unwrap();
    let workers = report.get("workers").unwrap().as_array().unwrap();
    assert_eq!(workers.len(), 1);
    assert_eq!(
        workers[0].get_str("outcome"),
        Some("crash_looping"),
        "{}",
        report.render()
    );
    std::fs::remove_file(&graph).ok();
}
