//! Seeded, deterministic fault injection for the wire path.
//!
//! A [`FaultPlan`] names *which* wire exchanges misbehave and *how*: a set
//! of one-shot [`FaultEvent`]s at scheduled operation counts (derived from
//! a seed, so every chaos run is reproducible and shrinkable), plus an
//! optional **wedge** — a terminal fault that fires on every exchange from
//! a given count onward, the deterministic in-crate stand-in for a worker
//! that dies mid-plan and never comes back.
//!
//! The plan is pure data; a [`FaultClock`] turns it into runtime behaviour
//! by counting operations.  Both ends of the wire consume the same types:
//!
//! * **worker side** — [`crate::ServerConfig::fault_plan`] arms a clock
//!   that every connection of the server ticks once per request line
//!   (server-global, so a reconnecting coordinator cannot reset the
//!   schedule and re-fire the same event forever);
//! * **coordinator side** — `ugs-dist` arms a clock over its own request
//!   path, ticking once per worker exchange.
//!
//! Fault injection is a **test/bench surface**: the CLI gates its
//! `--fault-plan` flags behind the `UGS_FAULTS=1` environment variable.

use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How one faulted exchange misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the exchange: the request is read (or sent) but no response
    /// ever arrives — the peer's read timeout is what surfaces it.
    Drop,
    /// Answer (or send), but only after sleeping the plan's
    /// [`FaultPlan::delay`].
    Delay,
    /// Close the connection instead of answering.
    Disconnect,
    /// Answer with a garbled, unparseable line.
    Garble,
}

impl FaultKind {
    fn parse(text: &str) -> Option<FaultKind> {
        match text {
            "drop" => Some(FaultKind::Drop),
            "delay" => Some(FaultKind::Delay),
            "disconnect" => Some(FaultKind::Disconnect),
            "garble" => Some(FaultKind::Garble),
            _ => None,
        }
    }

    /// All kinds, in the order the seeded schedule draws from.
    const ALL: [FaultKind; 4] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Disconnect,
        FaultKind::Garble,
    ];
}

/// One scheduled fault: the zero-based operation count it fires at, and how
/// that exchange misbehaves.  Events are **one-shot** — the clock fires each
/// at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based index of the wire exchange this event hits.
    pub at_op: usize,
    /// How the exchange misbehaves.
    pub kind: FaultKind,
}

/// A deterministic schedule of wire faults; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// One-shot events, fired by operation count.
    pub events: Vec<FaultEvent>,
    /// A terminal fault: from `wedge.at_op` onward **every** exchange
    /// misbehaves with `wedge.kind` — the stand-in for a dead worker.
    pub wedge: Option<FaultEvent>,
    /// Sleep applied by [`FaultKind::Delay`] faults.
    pub delay: Duration,
}

impl FaultPlan {
    /// Derives `count` one-shot events at distinct operation counts in
    /// `0..horizon` from `seed` — the same seed always yields the same
    /// schedule, so a failing chaos run reproduces exactly.  Kinds are
    /// drawn uniformly over all four.
    pub fn seeded(seed: u64, count: usize, horizon: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let count = count.min(horizon);
        let mut ops: Vec<usize> = Vec::with_capacity(count);
        while ops.len() < count {
            let op = rng.gen_range(0..horizon.max(1));
            if !ops.contains(&op) {
                ops.push(op);
            }
        }
        ops.sort_unstable();
        let events = ops
            .into_iter()
            .map(|at_op| FaultEvent {
                at_op,
                kind: FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())],
            })
            .collect();
        FaultPlan {
            events,
            wedge: None,
            delay: Duration::from_millis(10),
        }
    }

    /// A plan whose only behaviour is the terminal wedge: every exchange
    /// from `at_op` onward faults with `kind`.
    pub fn wedge_after(at_op: usize, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            events: Vec::new(),
            wedge: Some(FaultEvent { at_op, kind }),
            delay: Duration::from_millis(10),
        }
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.wedge.is_none()
    }

    /// Parses a `key=value` comma-separated spec string, the `--fault-plan`
    /// CLI surface.  Keys:
    ///
    /// * `seed=N`, `count=N`, `horizon=N` — the [`FaultPlan::seeded`]
    ///   schedule (`count` defaults to 1, `horizon` to 64);
    /// * `kind=drop|delay|disconnect|garble` — force every seeded event to
    ///   one kind;
    /// * `wedge=N` — wedge from op `N` on (kind from `kind=`, default
    ///   `disconnect`);
    /// * `at=N` — one explicit event at op `N` (kind from `kind=`, default
    ///   `disconnect`);
    /// * `delay-ms=N` — the sleep of `delay` faults.
    ///
    /// `seed=3,count=2,horizon=40` and `wedge=8,kind=drop` are typical
    /// specs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed: Option<u64> = None;
        let mut count = 1usize;
        let mut horizon = 64usize;
        let mut kind: Option<FaultKind> = None;
        let mut wedge_at: Option<usize> = None;
        let mut at: Option<usize> = None;
        let mut delay = Duration::from_millis(10);
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let int = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec {what}={value:?} is not an integer"))
            };
            match key {
                "seed" => seed = Some(int("seed")?),
                "count" => count = int("count")? as usize,
                "horizon" => horizon = int("horizon")? as usize,
                "wedge" => wedge_at = Some(int("wedge")? as usize),
                "at" => at = Some(int("at")? as usize),
                "delay-ms" => delay = Duration::from_millis(int("delay-ms")?),
                "kind" => {
                    kind = Some(FaultKind::parse(value).ok_or_else(|| {
                        format!(
                            "unknown fault kind {value:?}; expected drop|delay|disconnect|garble"
                        )
                    })?)
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        let mut plan = match seed {
            Some(seed) => FaultPlan::seeded(seed, count, horizon),
            None => FaultPlan::default(),
        };
        if let Some(forced) = kind {
            for event in &mut plan.events {
                event.kind = forced;
            }
        }
        if let Some(at_op) = at {
            plan.events.push(FaultEvent {
                at_op,
                kind: kind.unwrap_or(FaultKind::Disconnect),
            });
            plan.events.sort_unstable_by_key(|event| event.at_op);
        }
        if let Some(at_op) = wedge_at {
            plan.wedge = Some(FaultEvent {
                at_op,
                kind: kind.unwrap_or(FaultKind::Disconnect),
            });
        }
        plan.delay = delay;
        if plan.is_empty() {
            return Err(format!(
                "fault spec {spec:?} schedules nothing; give seed=, at= or wedge="
            ));
        }
        Ok(plan)
    }
}

/// Runtime state of one armed [`FaultPlan`]: a monotone operation counter
/// plus a cursor over the one-shot events.  Shared (behind a mutex) by
/// every connection of a server, so reconnects cannot rewind the schedule.
#[derive(Debug)]
pub struct FaultClock {
    plan: FaultPlan,
    state: Mutex<ClockState>,
}

#[derive(Debug)]
struct ClockState {
    op: usize,
    cursor: usize,
    fired: usize,
}

impl FaultClock {
    /// Arms a plan; events fire in `at_op` order as operations tick.
    pub fn new(mut plan: FaultPlan) -> FaultClock {
        plan.events.sort_unstable_by_key(|event| event.at_op);
        FaultClock {
            plan,
            state: Mutex::new(ClockState {
                op: 0,
                cursor: 0,
                fired: 0,
            }),
        }
    }

    /// Counts one wire exchange; `Some(kind)` means this exchange must
    /// misbehave.  The wedge dominates one-shot events.
    pub fn next(&self) -> Option<FaultKind> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let op = state.op;
        state.op += 1;
        // Advance the cursor past any events this op skipped over (a wedge
        // can shadow them); only an exact match fires.
        while state.cursor < self.plan.events.len() && self.plan.events[state.cursor].at_op < op {
            state.cursor += 1;
        }
        if let Some(wedge) = self.plan.wedge {
            if op >= wedge.at_op {
                state.fired += 1;
                return Some(wedge.kind);
            }
        }
        if state.cursor < self.plan.events.len() && self.plan.events[state.cursor].at_op == op {
            state.cursor += 1;
            state.fired += 1;
            return Some(self.plan.events[state.cursor - 1].kind);
        }
        None
    }

    /// The sleep a [`FaultKind::Delay`] verdict must apply.
    pub fn delay(&self) -> Duration {
        self.plan.delay
    }

    /// How many faults have fired so far (the `faults` stats gauge).
    pub(crate) fn fired(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible_and_distinct() {
        let a = FaultPlan::seeded(7, 5, 100);
        let b = FaultPlan::seeded(7, 5, 100);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        let ops: Vec<usize> = a.events.iter().map(|e| e.at_op).collect();
        let mut deduped = ops.clone();
        deduped.dedup();
        assert_eq!(ops, deduped, "distinct, sorted op counts");
        assert!(ops.iter().all(|&op| op < 100));
        assert_ne!(a, FaultPlan::seeded(8, 5, 100));
    }

    #[test]
    fn the_clock_fires_events_once_and_wedges_forever() {
        let mut plan = FaultPlan::wedge_after(4, FaultKind::Drop);
        plan.events = vec![
            FaultEvent {
                at_op: 1,
                kind: FaultKind::Garble,
            },
            FaultEvent {
                at_op: 5,
                kind: FaultKind::Delay,
            },
        ];
        let clock = FaultClock::new(plan);
        let verdicts: Vec<Option<FaultKind>> = (0..8).map(|_| clock.next()).collect();
        assert_eq!(
            verdicts,
            vec![
                None,
                Some(FaultKind::Garble),
                None,
                None,
                Some(FaultKind::Drop),
                Some(FaultKind::Drop), // the wedge shadows the op-5 event
                Some(FaultKind::Drop),
                Some(FaultKind::Drop),
            ]
        );
        assert_eq!(clock.fired(), 5);
    }

    #[test]
    fn spec_strings_round_trip_the_knobs() {
        let seeded = FaultPlan::parse("seed=3,count=2,horizon=40").unwrap();
        assert_eq!(seeded.events.len(), 2);
        let forced = FaultPlan::parse("seed=3,count=2,horizon=40,kind=drop").unwrap();
        assert!(forced.events.iter().all(|e| e.kind == FaultKind::Drop));
        let wedge = FaultPlan::parse("wedge=8,kind=drop,delay-ms=5").unwrap();
        assert_eq!(
            wedge.wedge,
            Some(FaultEvent {
                at_op: 8,
                kind: FaultKind::Drop,
            })
        );
        assert_eq!(wedge.delay, Duration::from_millis(5));
        let single = FaultPlan::parse("at=12").unwrap();
        assert_eq!(
            single.events,
            vec![FaultEvent {
                at_op: 12,
                kind: FaultKind::Disconnect,
            }]
        );
        assert!(
            FaultPlan::parse("").is_err(),
            "empty spec schedules nothing"
        );
        assert!(FaultPlan::parse("kind=warp").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
    }
}
