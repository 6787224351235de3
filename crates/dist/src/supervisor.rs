//! A worker-fleet supervisor: launches the `ugs serve --shard` processes
//! of a fleet, watches their liveness, and respawns the dead — the
//! process-level half of the failover story (the coordinator's standby
//! promotion is the connection-level half).
//!
//! ## Model
//!
//! Each [`WorkerSpec`] names one worker: the command to run and the
//! address it serves on.  The supervisor polls every worker:
//!
//! * an exit with status **0** is a graceful stop ([`WorkerOutcome::Done`]
//!   — the worker answered a `shutdown` op) and is **not** respawned;
//! * any other exit (including a kill) is a crash: the worker is respawned
//!   after an exponential backoff (base [`SupervisorConfig::backoff`],
//!   doubling per consecutive fast exit, capped by
//!   [`SupervisorConfig::max_backoff`]), up to
//!   [`SupervisorConfig::max_respawns`] times
//!   ([`WorkerOutcome::RespawnsExhausted`] afterwards);
//! * [`SupervisorConfig::crash_loop_limit`] consecutive exits within
//!   [`SupervisorConfig::crash_loop_window`] of their spawn trip the
//!   **crash-loop detector** ([`WorkerOutcome::CrashLooping`]): a worker
//!   that cannot even start (bad flags, unreadable graph) must not burn
//!   respawns forever;
//! * a running worker that stops answering `ping`
//!   ([`SupervisorConfig::ping_failures`] consecutive probe failures,
//!   probes every [`SupervisorConfig::ping_interval`] after a startup
//!   grace) is killed and treated as a crash — a wedged process is as dead
//!   as a gone one.
//!
//! Respawned workers re-bind their **fixed address**, so a coordinator
//! with enough retry budget (see
//! [`CoordinatorConfig`](crate::CoordinatorConfig)) reconnects to the
//! respawned process and the plan completes bit-identically — the
//! deterministic-replay property means a fresh worker re-derives the
//! exact world stream.  A failed bind surfaces as a fast exit and is
//! retried through the same backoff, which rides out `TIME_WAIT` windows.
//!
//! On every membership change the supervisor rewrites the announce file
//! (one `name addr pid` line per **running** worker), which is how the
//! loopback suite finds the pid to kill and proves a respawn happened.
//! The supervisor returns when every worker is terminal (all done, or
//! given up on).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use minijson::{ObjBuilder, Value};
use ugs_server::LineClient;

/// One worker the supervisor owns: the command to run and the address the
/// worker serves on (empty disables ping probes for this worker).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Display name (e.g. `shard-0`), used in logs and the announce file.
    pub name: String,
    /// The worker's fixed serve address; respawns re-bind it.  Empty
    /// means "no ping probes" (useful for non-server children in tests).
    pub addr: String,
    /// Program to launch.
    pub program: PathBuf,
    /// Arguments to the program.
    pub args: Vec<String>,
}

/// Knobs of one [`supervise`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Sleep between supervision passes.
    pub poll_interval: Duration,
    /// No ping probes until this long after a spawn (the worker is still
    /// loading its graph and binding).
    pub startup_grace: Duration,
    /// Interval between ping probes per worker; `None` disables probing
    /// (exit statuses are still watched).
    pub ping_interval: Option<Duration>,
    /// Connect/read bound of one ping probe.
    pub ping_timeout: Duration,
    /// Consecutive failed probes before a worker is declared wedged,
    /// killed and respawned.
    pub ping_failures: usize,
    /// Base respawn backoff; doubles per consecutive fast exit.
    pub backoff: Duration,
    /// Cap on the doubled backoff.
    pub max_backoff: Duration,
    /// Respawns per worker before the supervisor gives up on it.
    pub max_respawns: usize,
    /// An exit within this window of its spawn counts as a **fast exit**
    /// for the crash-loop detector.
    pub crash_loop_window: Duration,
    /// Consecutive fast exits that trip the crash-loop detector.
    pub crash_loop_limit: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            poll_interval: Duration::from_millis(25),
            startup_grace: Duration::from_secs(1),
            ping_interval: Some(Duration::from_millis(500)),
            ping_timeout: Duration::from_secs(2),
            ping_failures: 3,
            backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(5),
            max_respawns: 16,
            crash_loop_window: Duration::from_secs(2),
            crash_loop_limit: 4,
        }
    }
}

/// How one supervised worker ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerOutcome {
    /// Exited with status 0 — a graceful stop, never respawned.
    Done,
    /// Tripped the crash-loop detector (consecutive fast exits).
    CrashLooping,
    /// Crashed more than [`SupervisorConfig::max_respawns`] times.
    RespawnsExhausted,
    /// The program could not be spawned at all.
    SpawnFailed(String),
}

impl WorkerOutcome {
    /// Wire/report spelling of the outcome.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            WorkerOutcome::Done => "done",
            WorkerOutcome::CrashLooping => "crash_looping",
            WorkerOutcome::RespawnsExhausted => "respawns_exhausted",
            WorkerOutcome::SpawnFailed(_) => "spawn_failed",
        }
    }
}

/// Final record of one supervised worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerReport {
    /// The spec's display name.
    pub(crate) name: String,
    /// The spec's serve address.
    pub(crate) addr: String,
    /// Respawns performed (0 for a worker that never crashed).
    pub(crate) respawns: usize,
    /// How the worker ended.
    pub(crate) outcome: WorkerOutcome,
}

/// What a [`supervise`] run did, one record per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Per-worker records, in spec order.
    pub(crate) workers: Vec<WorkerReport>,
}

impl SupervisorReport {
    /// Whether every worker stopped gracefully.
    pub fn all_done(&self) -> bool {
        self.workers
            .iter()
            .all(|worker| worker.outcome == WorkerOutcome::Done)
    }

    /// Renders the report as the JSON document `ugs supervise` prints.
    pub fn render(&self) -> Value {
        let workers = Value::Arr(
            self.workers
                .iter()
                .map(|worker| {
                    let mut builder = ObjBuilder::new()
                        .field("name", worker.name.as_str())
                        .field("addr", worker.addr.as_str())
                        .field("respawns", worker.respawns)
                        .field("outcome", worker.outcome.label());
                    if let WorkerOutcome::SpawnFailed(why) = &worker.outcome {
                        builder = builder.field("detail", why.as_str());
                    }
                    builder.build()
                })
                .collect(),
        );
        ObjBuilder::new().field("workers", workers).build()
    }
}

enum State {
    Waiting {
        until: Instant,
    },
    Running {
        child: Child,
        spawned: Instant,
        last_ping: Instant,
        ping_fails: usize,
    },
    Terminal(WorkerOutcome),
}

struct Slot {
    spec: WorkerSpec,
    state: State,
    respawns: usize,
    /// Consecutive fast exits (the crash-loop counter); resets on a slow
    /// exit or a ping-detected wedge.
    fast_exits: usize,
}

/// What one supervision pass decided for a slot.
enum Action {
    Nothing,
    Spawn,
    Done,
    Crashed { fast: bool, why: String },
}

/// One liveness probe: connect, ping, expect an ok envelope.
fn ping(addr: &str, timeout: Duration) -> bool {
    let Ok(mut client) = LineClient::connect_timeout(addr, timeout) else {
        return false;
    };
    if client.set_read_timeout(Some(timeout)).is_err()
        || client.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    match client.request("{\"op\": \"ping\"}") {
        Ok(response) => response.get_str("status") == Some("ok"),
        Err(_) => false,
    }
}

/// Launches and supervises `specs` until every worker is terminal: a
/// crashed or wedged worker is respawned on its address with exponential
/// backoff, up to [`SupervisorConfig::max_respawns`] times, and a worker
/// whose fast exits reach [`SupervisorConfig::crash_loop_limit`] is given
/// up as crash-looping.  `announce` (when given) is
/// rewritten with one `name addr pid` line per running worker on every
/// membership change; `log` receives one human-readable line per event.
pub fn supervise(
    specs: Vec<WorkerSpec>,
    config: SupervisorConfig,
    announce: Option<&Path>,
    mut log: impl FnMut(&str),
) -> io::Result<SupervisorReport> {
    let now = Instant::now();
    let mut slots: Vec<Slot> = specs
        .into_iter()
        .map(|spec| Slot {
            spec,
            state: State::Waiting { until: now },
            respawns: 0,
            fast_exits: 0,
        })
        .collect();
    loop {
        let mut changed = false;
        for slot in &mut slots {
            step(slot, &config, &mut log, &mut changed)?;
        }
        if changed {
            write_announce(announce, &slots)?;
        }
        if slots
            .iter()
            .all(|slot| matches!(slot.state, State::Terminal(_)))
        {
            break;
        }
        std::thread::sleep(config.poll_interval);
    }
    Ok(SupervisorReport {
        workers: slots
            .into_iter()
            .map(|slot| {
                let outcome = match slot.state {
                    State::Terminal(outcome) => outcome,
                    _ => unreachable!("the loop exits only when all slots are terminal"),
                };
                WorkerReport {
                    name: slot.spec.name,
                    addr: slot.spec.addr,
                    respawns: slot.respawns,
                    outcome,
                }
            })
            .collect(),
    })
}

/// One supervision pass over one slot: observe, then transition.
fn step(
    slot: &mut Slot,
    config: &SupervisorConfig,
    log: &mut impl FnMut(&str),
    changed: &mut bool,
) -> io::Result<()> {
    let action = match &mut slot.state {
        State::Terminal(_) => Action::Nothing,
        State::Waiting { until } => {
            if Instant::now() >= *until {
                Action::Spawn
            } else {
                Action::Nothing
            }
        }
        State::Running {
            child,
            spawned,
            last_ping,
            ping_fails,
        } => match child.try_wait()? {
            Some(status) if status.success() => Action::Done,
            Some(status) => Action::Crashed {
                fast: spawned.elapsed() < config.crash_loop_window,
                why: describe_exit(status),
            },
            None => match config.ping_interval {
                Some(interval)
                    if !slot.spec.addr.is_empty()
                        && spawned.elapsed() >= config.startup_grace
                        && last_ping.elapsed() >= interval =>
                {
                    *last_ping = Instant::now();
                    if ping(&slot.spec.addr, config.ping_timeout) {
                        *ping_fails = 0;
                        Action::Nothing
                    } else {
                        *ping_fails += 1;
                        if *ping_fails >= config.ping_failures.max(1) {
                            // A wedged process is as dead as a gone one —
                            // but it is not crash-looping, it *started*.
                            let _ = child.kill();
                            let _ = child.wait();
                            slot.fast_exits = 0;
                            Action::Crashed {
                                fast: false,
                                why: format!(
                                    "stopped answering pings ({} consecutive failures)",
                                    config.ping_failures.max(1)
                                ),
                            }
                        } else {
                            Action::Nothing
                        }
                    }
                }
                _ => Action::Nothing,
            },
        },
    };
    match action {
        Action::Nothing => {}
        Action::Spawn => {
            *changed = true;
            // Workers keep stderr (their logs interleave with the
            // supervisor's) but never the supervisor's stdin/stdout: the
            // supervisor's own stdout carries its report.
            let spawned = Command::new(&slot.spec.program)
                .args(&slot.spec.args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => {
                    log(&format!(
                        "supervisor: {} running as pid {} at {}",
                        slot.spec.name,
                        child.id(),
                        slot.spec.addr
                    ));
                    let now = Instant::now();
                    slot.state = State::Running {
                        child,
                        spawned: now,
                        last_ping: now,
                        ping_fails: 0,
                    };
                }
                Err(error) => {
                    log(&format!(
                        "supervisor: {} failed to spawn: {error}",
                        slot.spec.name
                    ));
                    slot.state = State::Terminal(WorkerOutcome::SpawnFailed(error.to_string()));
                }
            }
        }
        Action::Done => {
            *changed = true;
            log(&format!(
                "supervisor: {} stopped gracefully",
                slot.spec.name
            ));
            slot.state = State::Terminal(WorkerOutcome::Done);
        }
        Action::Crashed { fast, why } => {
            *changed = true;
            slot.fast_exits = if fast { slot.fast_exits + 1 } else { 0 };
            if slot.fast_exits >= config.crash_loop_limit.max(1) {
                log(&format!(
                    "supervisor: {} is crash-looping ({} fast exits): {why}",
                    slot.spec.name, slot.fast_exits
                ));
                slot.state = State::Terminal(WorkerOutcome::CrashLooping);
            } else if slot.respawns >= config.max_respawns {
                log(&format!(
                    "supervisor: {} out of respawns ({}): {why}",
                    slot.spec.name, slot.respawns
                ));
                slot.state = State::Terminal(WorkerOutcome::RespawnsExhausted);
            } else {
                slot.respawns += 1;
                let doubled = config
                    .backoff
                    .saturating_mul(1 << slot.fast_exits.min(6) as u32);
                let backoff = doubled.min(config.max_backoff.max(config.backoff));
                log(&format!(
                    "supervisor: {} {why}; respawn {} in {backoff:?}",
                    slot.spec.name, slot.respawns
                ));
                slot.state = State::Waiting {
                    until: Instant::now() + backoff,
                };
            }
        }
    }
    Ok(())
}

fn describe_exit(status: ExitStatus) -> String {
    format!("exited with {status}")
}

/// Rewrites the announce file: one `name addr pid` line per running
/// worker, written to a temp file and renamed so a concurrent reader never
/// sees a torn write.
fn write_announce(path: Option<&Path>, slots: &[Slot]) -> io::Result<()> {
    let Some(path) = path else { return Ok(()) };
    let mut content = String::new();
    for slot in slots {
        if let State::Running { child, .. } = &slot.state {
            content.push_str(&format!(
                "{} {} {}\n",
                slot.spec.name,
                slot.spec.addr,
                child.id()
            ));
        }
    }
    let tmp = path.with_extension("announce-tmp");
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(name: &str, script: &str) -> WorkerSpec {
        WorkerSpec {
            name: name.to_string(),
            addr: String::new(),
            program: PathBuf::from("sh"),
            args: vec!["-c".to_string(), script.to_string()],
        }
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            poll_interval: Duration::from_millis(5),
            startup_grace: Duration::from_millis(50),
            ping_interval: None,
            ping_timeout: Duration::from_millis(200),
            ping_failures: 2,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            max_respawns: 8,
            crash_loop_window: Duration::from_millis(500),
            crash_loop_limit: 3,
        }
    }

    #[test]
    fn a_graceful_exit_is_done_and_never_respawned() {
        let report = supervise(vec![sh("ok", "true")], quick_config(), None, |_| {}).unwrap();
        assert_eq!(report.workers[0].outcome, WorkerOutcome::Done);
        assert_eq!(report.workers[0].respawns, 0);
        assert!(report.all_done());
    }

    #[test]
    fn consecutive_fast_exits_trip_the_crash_loop_detector_in_bounded_time() {
        let started = Instant::now();
        let report = supervise(vec![sh("boom", "exit 3")], quick_config(), None, |_| {}).unwrap();
        assert_eq!(report.workers[0].outcome, WorkerOutcome::CrashLooping);
        // crash_loop_limit fast exits = limit - 1 respawns before giving up.
        assert_eq!(report.workers[0].respawns, 2);
        assert!(!report.all_done());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "crash loops must resolve quickly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_crashed_worker_is_respawned_and_can_finish_gracefully() {
        let marker =
            std::env::temp_dir().join(format!("ugs-supervisor-flaky-{}", std::process::id()));
        let _ = fs::remove_file(&marker);
        let script = format!(
            "if [ -e {m} ]; then exit 0; else : > {m}; exit 1; fi",
            m = marker.display()
        );
        let report = supervise(vec![sh("flaky", &script)], quick_config(), None, |_| {}).unwrap();
        let _ = fs::remove_file(&marker);
        assert_eq!(report.workers[0].outcome, WorkerOutcome::Done);
        assert_eq!(report.workers[0].respawns, 1);
    }

    #[test]
    fn an_unspawnable_program_is_a_typed_terminal_outcome() {
        let spec = WorkerSpec {
            name: "ghost".to_string(),
            addr: String::new(),
            program: PathBuf::from("/nonexistent/definitely-missing-binary"),
            args: Vec::new(),
        };
        let report = supervise(vec![spec], quick_config(), None, |_| {}).unwrap();
        match &report.workers[0].outcome {
            WorkerOutcome::SpawnFailed(_) => {}
            other => panic!("expected SpawnFailed, got {other:?}"),
        }
        assert_eq!(report.workers[0].outcome.label(), "spawn_failed");
    }

    #[test]
    fn a_worker_that_never_answers_pings_is_killed_and_bounded() {
        let mut config = quick_config();
        config.ping_interval = Some(Duration::from_millis(20));
        config.max_respawns = 2;
        // The child runs but nothing serves its address: every probe fails.
        let mut spec = sh("wedged", "sleep 30");
        spec.addr = "127.0.0.1:1".to_string();
        let started = Instant::now();
        let report = supervise(vec![spec], config, None, |_| {}).unwrap();
        assert_eq!(report.workers[0].outcome, WorkerOutcome::RespawnsExhausted);
        assert_eq!(report.workers[0].respawns, 2);
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "ping-detected wedges must resolve in bounded time, took {:?}",
            started.elapsed()
        );
    }
}
