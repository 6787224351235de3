//! The line-delimited minijson wire protocol: request parsing (strict about
//! unknown fields) and response rendering; see the [crate docs](crate) for
//! the full grammar.
//!
//! Every parse failure maps to an [`ErrorCode`] plus a human-readable
//! message — a malformed line is answered, never dropped, and never kills
//! the connection.

use minijson::{ObjBuilder, Value};
use ugs_queries::{BlockPlan, SampleMethod};
use ugs_service::{parse_mode, QueryPlan, QuerySpec};

/// Hard cap on one request line; longer lines are answered with
/// [`ErrorCode::BadRequest`] so a runaway client cannot balloon the
/// connection thread's buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Machine-readable error class of a `{"status": "error"}` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, not an object, missing a required
    /// field, carried an unknown field, or exceeded [`MAX_LINE_BYTES`].
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The submitted plan document failed to parse or validate.
    Plan,
    /// The connection already has `max_inflight` undelivered jobs.
    OverBudget,
    /// The server-wide submission queue is full; retry after draining.
    Overloaded,
    /// `poll`/`cancel` named a job this connection does not hold (unknown,
    /// already delivered, or already cancelled).
    UnknownJob,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A distributed worker process was lost mid-plan (connection died,
    /// request timed out, or bounded retries ran out); the coordinator
    /// degrades to this typed error instead of hanging.
    WorkerLost,
    /// An internal invariant broke (a typed answer, never a panic).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::Plan => "plan",
            ErrorCode::OverBudget => "over_budget",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::WorkerLost => "worker_lost",
            ErrorCode::Internal => "internal",
        }
    }

    /// Whether a client may usefully retry the failed request as-is.
    ///
    /// `worker_lost` names a transient fleet condition (a worker died and
    /// may be respawned or failed over), `overloaded` and `over_budget`
    /// clear as jobs drain — all three are worth retrying after a backoff.
    /// Everything else (malformed requests, plan errors, unknown jobs,
    /// shutdown, internal invariants) would fail identically again.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::WorkerLost | ErrorCode::Overloaded | ErrorCode::OverBudget
        )
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op": "submit", "plan": {...}}` — enqueue a plan, get a job id.
    Submit(QueryPlan),
    /// `{"op": "poll", "job": N}` — probe a job; a finished report is
    /// delivered exactly once and frees the job's in-flight slot.  On a
    /// `world_block` job, `"from": F, "max": M` (defaults 0 and
    /// unbounded) select the page of its output values to return.
    Poll {
        /// Job id from `submit` or `world_block`.
        job: u64,
        /// First output value requested (world-block jobs).
        from: usize,
        /// Most output values to return (world-block jobs).
        max: usize,
    },
    /// `{"op": "cancel", "job": N}` — abandon a job (queued jobs are never
    /// executed; a running job stops after its current world, or an
    /// adaptive plan at its next epoch checkpoint, and its answer is
    /// neither delivered nor cached).
    Cancel(u64),
    /// `{"op": "stats"}` — server and cache counters.
    Stats,
    /// `{"op": "ping"}` — liveness probe.
    Ping,
    /// `{"op": "shutdown"}` — ask the server to stop gracefully.
    Shutdown,
    /// `{"op": "world_block", "seed": "S", …}` without a `job` field —
    /// start a world-block job; see [`BlockRequest`].
    WorldBlock(BlockRequest),
    /// `{"op": "world_block", "job": N, "epochs": K, "finish": F}` —
    /// resume a paused adaptive world-block job: run until `K` epochs are
    /// done, then pause again (`finish` false) or export the partials.
    Advance {
        /// The paused job.
        job: u64,
        /// Epoch target (at least the epochs already run).
        epochs: usize,
        /// Export the partials once the target is reached.
        finish: bool,
    },
}

/// The parsed body of a `world_block` request: one fleet slot's share of a
/// plan's world blocks ([`ugs_queries::SlotRun`]).
///
/// The job replays the stream of batch seed `seed` and runs blocks `slot,
/// slot + slots, …` of the [`BlockPlan`] (`worlds` cap, `epoch` worlds per
/// epoch, `blocks` blocks per epoch) for `epochs` epochs.  It then either
/// pauses with the last epoch's tracked statistics (`finish` false, an
/// adaptive plan's checkpoint) or exports every block's partials
/// (`finish` true).  A fixed-budget plan is one epoch of `worlds` worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRequest {
    /// The plan's valid queries, in plan order.
    pub queries: Vec<QuerySpec>,
    /// Sampling method; `auto` resolves on the worker through the one
    /// shared rule, so every worker samples the same stream.
    pub mode: SampleMethod,
    /// Batch seed of the shared replay stream.  Carried as a **decimal
    /// string** on the wire: JSON numbers are f64 here, which cannot hold
    /// every u64 seed bit-exactly.
    pub seed: u64,
    /// The block geometry.
    pub plan: BlockPlan,
    /// This job's fleet slot.
    pub slot: usize,
    /// Fleet size (the stride between this job's blocks).
    pub slots: usize,
    /// Epochs to run before answering.
    pub epochs: usize,
    /// Export the partials after the last epoch instead of pausing.
    pub finish: bool,
}

/// A typed protocol error: the code plus the message the client sees.
pub type RequestError = (ErrorCode, String);

/// Plan-document fields the server accepts.  `graph` is deliberately
/// absent: the server owns its graph, a client cannot point it elsewhere.
const PLAN_FIELDS: &[&str] = &[
    "worlds",
    "threads",
    "shards",
    "mode",
    "seed",
    "precision",
    "queries",
];

fn check_fields(value: &Value, allowed: &[&str], what: &str) -> Result<(), RequestError> {
    let Value::Obj(entries) = value else {
        return Err((
            ErrorCode::BadRequest,
            format!("{what} must be a JSON object"),
        ));
    };
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "unknown field {key:?} in {what} (allowed: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn required_usize(value: &Value, field: &str) -> Result<usize, RequestError> {
    value.get_usize(field).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("field {field:?} must be a non-negative integer"),
        )
    })
}

fn optional_usize(value: &Value, field: &str, default: usize) -> Result<usize, RequestError> {
    match value.get(field) {
        None => Ok(default),
        Some(_) => required_usize(value, field),
    }
}

fn required_bool(value: &Value, field: &str) -> Result<bool, RequestError> {
    value.get(field).and_then(Value::as_bool).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("field {field:?} must be a boolean"),
        )
    })
}

fn job_id(value: &Value) -> Result<u64, RequestError> {
    value.get_usize("job").map(|job| job as u64).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "field \"job\" must be a non-negative integer".to_string(),
        )
    })
}

fn wire_seed(value: &Value) -> Result<u64, RequestError> {
    value
        .get_str("seed")
        .and_then(|text| text.parse::<u64>().ok())
        .ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "field \"seed\" must be a decimal u64 carried as a string".to_string(),
            )
        })
}

fn wire_mode(value: &Value) -> Result<SampleMethod, RequestError> {
    let mode_name = value.get_str("mode").unwrap_or("auto");
    parse_mode(mode_name).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("unknown mode {mode_name:?}; expected auto|skip|per-edge"),
        )
    })
}

/// Longest epoch a world-block job may pause after: a paused job holds the
/// epoch's tracked statistics until they are paged out, so this bounds that
/// buffer (2²⁰ worlds × one `f64` per tracked query).
pub const MAX_PAUSE_WORLDS: usize = 1 << 20;

/// Fields of a `world_block` request that starts a job.
const BLOCK_FIELDS: &[&str] = &[
    "op", "queries", "mode", "seed", "worlds", "epoch", "blocks", "slot", "slots", "epochs",
    "finish",
];

fn bad_geometry(message: String) -> RequestError {
    (ErrorCode::BadRequest, message)
}

fn world_block(value: &Value) -> Result<Request, RequestError> {
    if value.get("job").is_some() {
        check_fields(
            value,
            &["op", "job", "epochs", "finish"],
            "a world_block advance",
        )?;
        return Ok(Request::Advance {
            job: job_id(value)?,
            epochs: required_usize(value, "epochs")?,
            finish: required_bool(value, "finish")?,
        });
    }
    check_fields(value, BLOCK_FIELDS, "a world_block request")?;
    let queries = value
        .get("queries")
        .and_then(Value::as_array)
        .filter(|queries| !queries.is_empty())
        .ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "a world_block request requires a non-empty array field \"queries\"".to_string(),
            )
        })?
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            QuerySpec::parse(entry)
                .map_err(|error| (ErrorCode::Plan, format!("queries[{index}]: {error}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let worlds = required_usize(value, "worlds")?;
    let epoch = required_usize(value, "epoch")?;
    let blocks = required_usize(value, "blocks")?;
    let slot = required_usize(value, "slot")?;
    let slots = required_usize(value, "slots")?;
    let epochs = required_usize(value, "epochs")?;
    let finish = required_bool(value, "finish")?;
    if worlds == 0 || epoch == 0 || blocks == 0 || blocks > worlds {
        return Err(bad_geometry(format!(
            "world_block needs 1 <= blocks <= worlds and epoch >= 1 \
             (worlds {worlds}, epoch {epoch}, blocks {blocks})"
        )));
    }
    if slot >= slots || slot >= blocks {
        return Err(bad_geometry(format!(
            "slot {slot} holds no block of {blocks} over {slots} slots"
        )));
    }
    let plan = BlockPlan::adaptive(worlds, epoch, blocks);
    if epochs == 0 || epochs > plan.num_epochs() {
        return Err(bad_geometry(format!(
            "epochs must be in 1..={} for {worlds} worlds in epochs of {epoch}, got {epochs}",
            plan.num_epochs()
        )));
    }
    if !finish && epoch > MAX_PAUSE_WORLDS {
        // Well-formed but over this server's bound: a `plan` refusal, which
        // no retry can change.
        return Err((
            ErrorCode::Plan,
            format!(
                "a pausing world_block epoch holds at most {MAX_PAUSE_WORLDS} worlds, got {epoch}"
            ),
        ));
    }
    Ok(Request::WorldBlock(BlockRequest {
        queries,
        mode: wire_mode(value)?,
        seed: wire_seed(value)?,
        plan,
        slot,
        slots,
        epochs,
        finish,
    }))
}

/// Parses one request line; every failure is a typed [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value = Value::parse(line).map_err(|error| (ErrorCode::BadRequest, error.to_string()))?;
    let op = match &value {
        Value::Obj(_) => value.get_str("op").ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "a request requires a string field \"op\"".to_string(),
            )
        })?,
        _ => {
            return Err((
                ErrorCode::BadRequest,
                "a request must be a JSON object".to_string(),
            ))
        }
    };
    match op {
        "submit" => {
            check_fields(&value, &["op", "plan"], "a submit request")?;
            let plan_value = value.get("plan").ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    "a submit request requires an object field \"plan\"".to_string(),
                )
            })?;
            if plan_value.get("graph").is_some() {
                return Err((
                    ErrorCode::Plan,
                    "the plan must not name a \"graph\": the server serves its own graph"
                        .to_string(),
                ));
            }
            check_fields(plan_value, PLAN_FIELDS, "a plan")?;
            let plan = QueryPlan::parse(plan_value)
                .map_err(|error| (ErrorCode::Plan, error.to_string()))?;
            Ok(Request::Submit(plan))
        }
        "poll" => {
            check_fields(&value, &["op", "job", "from", "max"], "a poll request")?;
            let max = optional_usize(&value, "max", usize::MAX)?;
            if max == 0 {
                return Err((
                    ErrorCode::BadRequest,
                    "field \"max\" must be at least 1".to_string(),
                ));
            }
            Ok(Request::Poll {
                job: job_id(&value)?,
                from: optional_usize(&value, "from", 0)?,
                max,
            })
        }
        "cancel" => {
            check_fields(&value, &["op", "job"], "a cancel request")?;
            Ok(Request::Cancel(job_id(&value)?))
        }
        "stats" => {
            check_fields(&value, &["op"], "a stats request")?;
            Ok(Request::Stats)
        }
        "ping" => {
            check_fields(&value, &["op"], "a ping request")?;
            Ok(Request::Ping)
        }
        "shutdown" => {
            check_fields(&value, &["op"], "a shutdown request")?;
            Ok(Request::Shutdown)
        }
        "world_block" => world_block(&value),
        other => Err((
            ErrorCode::UnknownOp,
            format!(
                "unknown op {other:?}; expected submit|poll|cancel|stats|ping|shutdown|\
                 world_block"
            ),
        )),
    }
}

/// Renders the `{"status": "error", ...}` envelope for one line.  The
/// `retryable` field mirrors [`ErrorCode::retryable`] so clients can route
/// transient failures to a retry loop without a code table of their own.
pub fn error_line(code: ErrorCode, message: &str) -> String {
    ObjBuilder::new()
        .field("status", "error")
        .field("code", code.as_str())
        .field("retryable", code.retryable())
        .field("message", message)
        .build()
        .render()
}

/// Starts an `{"status": "ok"}` response; callers add their fields and
/// render with [`finish_ok`].
pub fn ok_builder() -> ObjBuilder {
    ObjBuilder::new().field("status", "ok")
}

/// Renders an ok-response builder to its wire line.
pub fn finish_ok(builder: ObjBuilder) -> String {
    builder.build().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_requests_parse() {
        let submit = parse_request(
            r#"{"op": "submit", "plan": {"worlds": 10, "queries": [{"type": "connectivity"}]}}"#,
        )
        .unwrap();
        match submit {
            Request::Submit(plan) => {
                assert_eq!(plan.worlds, 10);
                assert_eq!(plan.queries.len(), 1);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op": "poll", "job": 3}"#).unwrap(),
            Request::Poll {
                job: 3,
                from: 0,
                max: usize::MAX,
            }
        );
        assert_eq!(
            parse_request(r#"{"op": "poll", "job": 3, "from": 10, "max": 5}"#).unwrap(),
            Request::Poll {
                job: 3,
                from: 10,
                max: 5,
            }
        );
        assert_eq!(
            parse_request(r#"{"op": "cancel", "job": 0}"#).unwrap(),
            Request::Cancel(0)
        );
        assert_eq!(parse_request(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op": "stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    /// A valid `world_block` line with one field replaced.
    fn block_line<'a>(field: &'a str, value: &'a str) -> String {
        let mut fields: Vec<(&str, &str)> = vec![
            (
                "queries",
                r#"[{"type": "connectivity"}, {"type": "pagerank"}]"#,
            ),
            ("mode", r#""skip""#),
            ("seed", r#""18446744073709551615""#),
            ("worlds", "100"),
            ("epoch", "32"),
            ("blocks", "3"),
            ("slot", "1"),
            ("slots", "2"),
            ("epochs", "2"),
            ("finish", "false"),
        ];
        match fields.iter_mut().find(|entry| entry.0 == field) {
            Some(entry) => entry.1 = value,
            None if !field.is_empty() => fields.push((field, value)),
            None => {}
        }
        let body: Vec<String> = fields
            .iter()
            .filter(|(_, value)| !value.is_empty())
            .map(|(key, value)| format!(r#""{key}": {value}"#))
            .collect();
        format!(r#"{{"op": "world_block", {}}}"#, body.join(", "))
    }

    #[test]
    fn world_block_requests_parse_with_string_seeds() {
        match parse_request(&block_line("", "")).unwrap() {
            Request::WorldBlock(request) => {
                assert_eq!(request.queries.len(), 2);
                assert_eq!(request.mode, SampleMethod::Skip);
                assert_eq!(request.seed, u64::MAX);
                assert_eq!(request.plan, BlockPlan::adaptive(100, 32, 3));
                assert_eq!((request.slot, request.slots), (1, 2));
                assert_eq!((request.epochs, request.finish), (2, false));
            }
            other => panic!("unexpected request {other:?}"),
        }
        // `mode` defaults to auto.
        match parse_request(&block_line("mode", "")).unwrap() {
            Request::WorldBlock(request) => assert_eq!(request.mode, SampleMethod::Auto),
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op": "world_block", "job": 4, "epochs": 3, "finish": true}"#)
                .unwrap(),
            Request::Advance {
                job: 4,
                epochs: 3,
                finish: true,
            }
        );
    }

    #[test]
    fn malformed_world_block_requests_are_typed_errors() {
        let pause_epoch = (MAX_PAUSE_WORLDS + 1).to_string();
        let cases: Vec<(String, ErrorCode)> = vec![
            // A numeric seed is rejected: it must travel as a decimal string.
            (block_line("seed", "7"), ErrorCode::BadRequest),
            (block_line("seed", r#""-1""#), ErrorCode::BadRequest),
            (block_line("mode", r#""warp""#), ErrorCode::BadRequest),
            (block_line("queries", "[]"), ErrorCode::BadRequest),
            (
                block_line("queries", r#"[{"type": "warp"}]"#),
                ErrorCode::Plan,
            ),
            (block_line("worlds", "0"), ErrorCode::BadRequest),
            (block_line("epoch", "0"), ErrorCode::BadRequest),
            (block_line("blocks", "0"), ErrorCode::BadRequest),
            (block_line("blocks", "101"), ErrorCode::BadRequest),
            (block_line("slot", "2"), ErrorCode::BadRequest),
            (block_line("slots", "0"), ErrorCode::BadRequest),
            (block_line("epochs", "0"), ErrorCode::BadRequest),
            (block_line("epochs", "5"), ErrorCode::BadRequest),
            (block_line("finish", "1"), ErrorCode::BadRequest),
            (block_line("worlds", "1.5"), ErrorCode::BadRequest),
            (block_line("budget", "5"), ErrorCode::BadRequest),
            (
                r#"{"op": "world_block", "job": 4, "epochs": 3}"#.to_string(),
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op": "world_block", "job": 4, "epochs": 3, "finish": true, "slot": 0}"#
                    .to_string(),
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op": "poll", "job": 1, "max": 0}"#.to_string(),
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op": "poll", "job": 1, "from": -1}"#.to_string(),
                ErrorCode::BadRequest,
            ),
        ];
        for (line, expected) in cases {
            let (code, message) = parse_request(&line).unwrap_err();
            assert_eq!(code, expected, "{line}: {message}");
        }
        // An epoch past the pause bound is a `plan` refusal for a pausing
        // job; a fixed plan's one-epoch job may be arbitrarily long: it
        // never pauses, so it holds no statistics.
        let long = |finish: bool| {
            format!(
                r#"{{"op": "world_block", "queries": [{{"type": "connectivity"}}], "seed": "1",
                    "worlds": {pause_epoch}, "epoch": {pause_epoch}, "blocks": 1, "slot": 0,
                    "slots": 1, "epochs": 1, "finish": {finish}}}"#
            )
        };
        assert_eq!(parse_request(&long(false)).unwrap_err().0, ErrorCode::Plan);
        assert!(parse_request(&long(true)).is_ok());
    }

    #[test]
    fn malformed_and_unknown_field_requests_are_typed_errors() {
        let cases: [(&str, ErrorCode); 8] = [
            ("{not json", ErrorCode::BadRequest),
            ("[1, 2]", ErrorCode::BadRequest),
            (r#"{"op": "warp"}"#, ErrorCode::UnknownOp),
            (r#"{"op": "ping", "extra": 1}"#, ErrorCode::BadRequest),
            (r#"{"op": "poll"}"#, ErrorCode::BadRequest),
            (
                r#"{"op": "submit", "plan": {"queries": []}}"#,
                ErrorCode::Plan,
            ),
            (
                r#"{"op": "submit", "plan": {"budget": 5, "queries": [{"type": "connectivity"}]}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op": "submit", "plan": {"graph": "g.txt", "queries": [{"type": "connectivity"}]}}"#,
                ErrorCode::Plan,
            ),
        ];
        for (line, expected) in cases {
            let (code, message) = parse_request(line).unwrap_err();
            assert_eq!(code, expected, "{line}: {message}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let line = format!(
            r#"{{"op": "ping", "pad": "{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let (code, _) = parse_request(&line).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn error_lines_carry_the_envelope() {
        let line = error_line(ErrorCode::Overloaded, "queue full");
        let value = Value::parse(&line).unwrap();
        assert_eq!(value.get_str("status"), Some("error"));
        assert_eq!(value.get_str("code"), Some("overloaded"));
        assert_eq!(value.get_str("message"), Some("queue full"));
        assert_eq!(value.get("retryable").and_then(Value::as_bool), Some(true));
        let fatal = Value::parse(&error_line(ErrorCode::Plan, "bad plan")).unwrap();
        assert_eq!(fatal.get("retryable").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn retryable_codes_name_transient_conditions_only() {
        for code in [
            ErrorCode::WorkerLost,
            ErrorCode::Overloaded,
            ErrorCode::OverBudget,
        ] {
            assert!(code.retryable(), "{} is transient", code.as_str());
        }
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::Plan,
            ErrorCode::UnknownJob,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert!(!code.retryable(), "{} is fatal", code.as_str());
        }
    }
}
