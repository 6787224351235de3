//! JSON query plans: a [`QueryPlan`] bundles a list of [`QuerySpec`]s with
//! the Monte-Carlo configuration they share, parses from a plan document and
//! executes end-to-end as **one [`QueryBatch`] run**.

use std::any::Any;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use minijson::{ObjBuilder, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_queries::batch::{BatchError, BoxedObserver, DynHandle, QueryBatch};
use ugs_queries::engine::{SampleMethod, WorldEngine};
use ugs_queries::variance::Precision;

use crate::spec::{
    optional_usize, parse_precision, precision_to_json, QueryResult, QuerySpec, SpecError,
};

/// The exclusive upper bound of a plan document's `seed`: 2^53, the first
/// integer an `f64` JSON number cannot tell from its successor.
pub const SEED_LIMIT: u64 = 1 << 53;

/// Why a plan query has no answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The spec did not validate against the plan's graph.
    Spec(SpecError),
    /// The plan's configuration does not fit its graph (more shards than
    /// vertices); every query of such a plan resolves with this error.
    Policy(String),
    /// A distributed worker process was lost (connection died, timed out,
    /// or exhausted its bounded retries) and the plan could not complete.
    /// The coordinator degrades to this typed error instead of hanging.
    /// It is the one transient variant: a supervisor may respawn the
    /// worker, so resubmitting the plan may succeed.  Every other variant
    /// but [`ServiceError::Cancelled`] would fail identically again.
    WorkerLost(String),
    /// An internal driver invariant broke (a kernel panic, a redemption
    /// error).
    Internal(String),
    /// The caller's cancel flag stopped a fixed-budget plan before its last
    /// world, so the plan has no answer (see [`QueryPlan::execute_on`]).
    Cancelled,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Spec(e) => write!(f, "{e}"),
            ServiceError::Policy(m) => write!(f, "batch policy rejected: {m}"),
            ServiceError::WorkerLost(m) => write!(f, "worker_lost: {m}"),
            ServiceError::Internal(m) => write!(f, "internal query service error: {m}"),
            ServiceError::Cancelled => write!(f, "cancelled before the plan's last world"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SpecError> for ServiceError {
    fn from(e: SpecError) -> Self {
        ServiceError::Spec(e)
    }
}

/// One answered plan query: the typed result plus the sampling effort the
/// plan's batch actually spent.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The typed query result.
    pub result: QueryResult,
    /// Worlds the batch sampled — equal to [`QueryPlan::worlds`] for
    /// fixed-budget plans, possibly fewer under a
    /// [`QueryPlan::precision`] target.
    pub worlds_used: usize,
    /// Achieved pooled half-width at the stopping checkpoint; `None` for
    /// fixed-budget plans (no stopping rule ran).
    pub half_width: Option<f64>,
}

/// A [`QueryAnswer`] whose result is rendered once: the compact JSON of
/// [`QueryResult::to_json`], shared by every report that carries it, plus
/// the sampling effort.  [`QueryPlan::write_report`] splices it into a
/// report as is, so a result cache that holds these answers a hit by
/// copying bytes instead of rendering the result again.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedAnswer {
    /// Private so it always holds a result's rendering: reports splice it
    /// in unchecked.
    result: Arc<str>,
    worlds_used: usize,
    half_width: Option<f64>,
}

impl RenderedAnswer {
    /// The compact JSON of the answer's result.
    pub fn result(&self) -> &str {
        &self.result
    }
}

impl QueryAnswer {
    /// Renders the result, keeping the effort metadata.
    pub fn render(&self) -> RenderedAnswer {
        RenderedAnswer {
            result: self.result.to_json().render().into(),
            worlds_used: self.worlds_used,
            half_width: self.half_width,
        }
    }
}

/// A parsed query-plan document.
///
/// The plan document is the file format of the CLI's `ugs plan` subcommand:
///
/// ```json
/// {
///   "graph": "graph.txt",
///   "worlds": 400,
///   "threads": 2,
///   "mode": "skip",
///   "seed": 7,
///   "queries": [
///     {"type": "pagerank"},
///     {"type": "connectivity"},
///     {"type": "knn", "source": 0, "k": 5}
///   ]
/// }
/// ```
///
/// Every field except `queries` is optional: `graph` may instead be given by
/// the caller, and `worlds`, `threads`, `shards`, `mode` and `seed` default
/// to 500, 1, 1, `auto` and 42.
///
/// ## Execution
///
/// Each valid query registers its observer with one [`QueryBatch`], so all
/// queries share one set of sampled worlds.  The batch seed is the first
/// `u64` drawn from `SmallRng::seed_from_u64(seed)`, and the world budget
/// is split across `threads` workers by the batch's replay partitioning
/// (every worker re-derives the shared world stream and observes its own
/// contiguous block; partials merge in worker order).  Answers are
/// therefore a pure function of the plan and the graph: count-valued
/// answers are invariant to `threads`, and a one-query plan with seed `s`
/// is bit-identical to the legacy free function run on a fresh
/// `SmallRng::seed_from_u64(s)` (`tests/plan_parity.rs`).
///
/// Every plan samples from one [`WorldEngine`].  The `shards` field is
/// accepted and echoed in the report but never changes an answer; a plan
/// whose `shards` exceeds `max(|V|, 1)` is refused: every query answers
/// [`ServiceError::Policy`] ([`QueryPlan::shard_refusal`]).
///
/// A `seed` must be an integer below 2^53 ([`SEED_LIMIT`]): the JSON codec
/// stores numbers as `f64`, so a larger seed would be silently rounded.
///
/// An optional `"precision": {"epsilon": 0.01, "delta": 0.05, "deadline_ms":
/// 2000, "max_worlds": 50000}` block makes the batch **adaptive**: `worlds`
/// becomes a cap and sampling stops at the first epoch whose pooled
/// empirical-Bernstein half-width reaches `epsilon`; report entries then
/// carry `worlds_used` and the achieved `half_width`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Path of the graph to query, if the plan names one (the CLI lets a
    /// positional argument override it).
    pub graph: Option<String>,
    /// Shared world budget (default 500).
    pub worlds: usize,
    /// Workers the world budget is split across (default 1).
    pub threads: usize,
    /// Shard count (default 1).  Accepted and echoed in the report, but it
    /// never changes an answer: every plan samples from one [`WorldEngine`].
    /// A count above `max(|V|, 1)` refuses the plan
    /// ([`QueryPlan::shard_refusal`]).
    pub shards: usize,
    /// World-sampling method (default [`SampleMethod::Auto`]).
    pub mode: SampleMethod,
    /// Plan seed (default 42); the batch seed is its RNG's first draw.  A
    /// plan document's seed must be below [`SEED_LIMIT`].
    pub seed: u64,
    /// Optional adaptive-precision target (`"precision": {"epsilon": …}`):
    /// turns [`QueryPlan::worlds`] into a cap and stops sampling at the
    /// first epoch whose pooled confidence half-width reaches the target.
    /// The worlds consumed are a deterministic function of the seed and the
    /// target, invariant over [`QueryPlan::threads`].
    pub precision: Option<Precision>,
    /// The queries, answered in order.
    pub queries: Vec<QuerySpec>,
}

/// Wraps a query-spec parse failure with the **index and name** of the
/// failing entry in the plan's `queries` array, so a 40-query plan document
/// points straight at the culprit instead of raising a bare spec error.
fn plan_query_error(index: usize, entry: &Value, error: SpecError) -> SpecError {
    let name = entry.get_str("type").unwrap_or("<missing type>");
    match error {
        SpecError::Json(message) => {
            SpecError::Json(format!("queries[{index}] (\"{name}\"): {message}"))
        }
        SpecError::Invalid(message) => {
            SpecError::Invalid(format!("queries[{index}] (\"{name}\"): {message}"))
        }
    }
}

/// Parses a `mode` string (`auto` | `skip` | `per-edge`).
pub fn parse_mode(name: &str) -> Option<SampleMethod> {
    match name {
        "auto" => Some(SampleMethod::Auto),
        "skip" => Some(SampleMethod::Skip),
        "per-edge" | "peredge" => Some(SampleMethod::PerEdge),
        _ => None,
    }
}

/// The canonical name of a [`SampleMethod`] (inverse of [`parse_mode`]).
pub fn mode_name(mode: SampleMethod) -> &'static str {
    match mode {
        SampleMethod::Auto => "auto",
        SampleMethod::Skip => "skip",
        SampleMethod::PerEdge => "per-edge",
    }
}

impl QueryPlan {
    /// Parses a plan document.
    pub fn parse(value: &Value) -> Result<QueryPlan, SpecError> {
        let graph = match value.get("graph") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| SpecError::Json("field \"graph\" must be a string".to_string()))?
                    .to_string(),
            ),
        };
        let worlds = optional_usize(value, "worlds", 500)?;
        let threads = optional_usize(value, "threads", 1)?;
        let shards = optional_usize(value, "shards", 1)?;
        let mode = match value.get("mode") {
            None => SampleMethod::Auto,
            Some(v) => {
                let name = v.as_str().ok_or_else(|| {
                    SpecError::Json("field \"mode\" must be a string".to_string())
                })?;
                parse_mode(name).ok_or_else(|| {
                    SpecError::Json(format!(
                        "unknown mode {name:?}; expected auto|skip|per-edge"
                    ))
                })?
            }
        };
        let seed = match value.get("seed") {
            None => 42,
            Some(v) => {
                let seed = v
                    .as_f64()
                    .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                    .ok_or_else(|| {
                        SpecError::Json("field \"seed\" must be a non-negative integer".to_string())
                    })?;
                // Exact: an integer text at or above 2^53 parses to an f64 at
                // or above 2^53.
                if seed >= SEED_LIMIT as f64 {
                    return Err(SpecError::Json(format!(
                        "field \"seed\" must be below 2^53 = {SEED_LIMIT}; \
                         a JSON number cannot hold a larger integer exactly"
                    )));
                }
                seed as u64
            }
        };
        let precision = match value.get("precision") {
            None => None,
            Some(v) => Some(parse_precision(v).map_err(|error| match error {
                SpecError::Json(message) => SpecError::Json(format!("precision: {message}")),
                other => other,
            })?),
        };
        let queries = value
            .get("queries")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                SpecError::Json("a plan requires an array field \"queries\"".to_string())
            })?
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                QuerySpec::parse(entry).map_err(|error| plan_query_error(index, entry, error))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if queries.is_empty() {
            return Err(SpecError::Json(
                "a plan must contain at least one query".to_string(),
            ));
        }
        Ok(QueryPlan {
            graph,
            worlds,
            threads,
            shards,
            mode,
            seed,
            precision,
            queries,
        })
    }

    /// Parses a plan from a JSON string.
    pub fn parse_str(json: &str) -> Result<QueryPlan, SpecError> {
        let value = Value::parse(json).map_err(|e| SpecError::Json(e.to_string()))?;
        Self::parse(&value)
    }

    /// Serialises the plan back to its JSON document.
    pub fn to_json(&self) -> Value {
        let mut builder = ObjBuilder::new();
        if let Some(graph) = &self.graph {
            builder = builder.field("graph", graph.as_str());
        }
        builder = builder
            .field("worlds", self.worlds)
            .field("threads", self.threads)
            .field("shards", self.shards)
            .field("mode", mode_name(self.mode))
            .field("seed", self.seed as usize);
        if let Some(precision) = &self.precision {
            builder = builder.field("precision", precision_to_json(precision));
        }
        builder
            .field(
                "queries",
                Value::Arr(self.queries.iter().map(QuerySpec::to_json).collect()),
            )
            .build()
    }

    /// Executes the plan against `graph` as one [`QueryBatch`] run (shared
    /// sampled worlds, split across [`QueryPlan::threads`] workers).
    /// Answers come back in plan order, each with its effort metadata
    /// (worlds consumed, achieved half-width under a
    /// [`QueryPlan::precision`] target).
    pub fn execute_detailed(
        &self,
        graph: impl Into<Arc<UncertainGraph>>,
    ) -> Vec<Result<QueryAnswer, ServiceError>> {
        self.execute_detailed_with_cancel(graph, None)
    }

    /// Like [`QueryPlan::execute_detailed`], with a caller-owned cooperative
    /// cancellation flag (see [`QueryBatch::with_cancel`]).  Raising the
    /// flag aborts an **adaptive** plan at its next epoch checkpoint: the
    /// answers still arrive (reflecting the worlds consumed up to the
    /// abort) instead of running to the full budget.  A **fixed-budget**
    /// plan stops after the world each thread is on, and every query
    /// answers [`ServiceError::Cancelled`].
    pub(crate) fn execute_detailed_with_cancel(
        &self,
        graph: impl Into<Arc<UncertainGraph>>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Vec<Result<QueryAnswer, ServiceError>> {
        let graph = graph.into();
        self.execute_on(&WorldEngine::new(&graph).with_method(self.mode), cancel)
    }

    /// Executes the plan on a prebuilt engine over the engine's graph, with
    /// an optional cooperative cancellation flag (see
    /// [`QueryBatch::with_cancel`]) — the one path every plan execution
    /// takes.  The engine must sample the way the plan's
    /// [`QueryPlan::mode`] resolves on that graph
    /// ([`SampleMethod::resolve_for`]); a caller that runs many plans keeps
    /// one engine per resolved method and pays each construction once.
    pub fn execute_on(
        &self,
        engine: &WorldEngine<'_>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Vec<Result<QueryAnswer, ServiceError>> {
        let graph = engine.graph();
        if let Some(refusal) = self.shard_refusal(graph) {
            return self.refuse(refusal);
        }
        debug_assert_eq!(
            engine.effective_method(),
            self.mode.resolve_for(graph),
            "the engine must sample with the plan's mode"
        );
        let mut batch = QueryBatch::on_engine(engine, self.worlds, self.threads);
        if let Some(precision) = self.precision {
            batch = batch.with_precision(precision);
        }
        if let Some(cancel) = cancel {
            batch = batch.with_cancel(cancel);
        }
        // An invalid query answers its own typed error without stopping the
        // others.
        let handles: Vec<Result<DynHandle, ServiceError>> = self
            .observers(graph)
            .into_iter()
            .map(|observer| Ok(batch.register_boxed(observer?)))
            .collect();
        let mut results = batch.run(&mut SmallRng::seed_from_u64(self.seed));
        let worlds_used = results.num_worlds();
        let half_width = results.adaptive().map(|report| report.half_width);
        let outputs = handles
            .into_iter()
            .map(|handle| {
                results
                    .try_take_boxed(handle?)
                    .map_err(|error| match error {
                        BatchError::Cancelled => ServiceError::Cancelled,
                        other => ServiceError::Internal(other.to_string()),
                    })
            })
            .collect();
        self.answers(outputs, worlds_used, half_width)
    }

    /// The plan-level refusal of a shard count `graph` cannot fill (more
    /// shards than `max(|V|, 1)`).  Every query of a refused plan answers
    /// with this error, in process, on the server and on a fleet alike.
    pub fn shard_refusal(&self, graph: &UncertainGraph) -> Option<ServiceError> {
        let vertices = graph.num_vertices();
        (self.shards > 1 && self.shards > vertices.max(1)).then(|| {
            ServiceError::Policy(format!(
                "{} shards exceed the graph's {vertices} vertices",
                self.shards
            ))
        })
    }

    /// Answers every query with the same plan-level error.
    pub fn refuse(&self, error: ServiceError) -> Vec<Result<QueryAnswer, ServiceError>> {
        self.queries.iter().map(|_| Err(error.clone())).collect()
    }

    /// Validates every query against `graph` and builds its observer, in
    /// plan order; an invalid query keeps its typed error.  The registry a
    /// plan run — in process or on a fleet — fills.
    pub fn observers(&self, graph: &UncertainGraph) -> Vec<Result<BoxedObserver, ServiceError>> {
        self.queries
            .iter()
            .map(|spec| Ok(spec.make_observer(graph)?))
            .collect()
    }

    /// Redeems finished observer outputs (in plan order) as answers that
    /// report the batch's effort.
    pub fn answers(
        &self,
        outputs: Vec<Result<Box<dyn Any + Send>, ServiceError>>,
        worlds_used: usize,
        half_width: Option<f64>,
    ) -> Vec<Result<QueryAnswer, ServiceError>> {
        self.queries
            .iter()
            .zip(outputs)
            .map(|(spec, output)| {
                let result = spec.result_of(output?).ok_or_else(|| {
                    ServiceError::Internal("observer output did not match its spec".to_string())
                })?;
                Ok(QueryAnswer {
                    result,
                    worlds_used,
                    half_width,
                })
            })
            .collect()
    }

    /// Executes the plan and renders the full JSON report the CLI prints:
    /// the configuration, then one entry per query with its spec and its
    /// result (or error).
    pub fn run_report(&self, graph: impl Into<Arc<UncertainGraph>>, graph_label: &str) -> Value {
        let results = self.execute_detailed(graph);
        self.report_for(graph_label, &results)
    }

    /// Renders the report envelope for already-computed answers — the same
    /// bytes [`QueryPlan::run_report`] produces for a fresh run.  This is
    /// the seam a result cache needs: answers replayed from the cache and
    /// answers from a live execution flow through one renderer, so
    /// bit-identical answers yield bit-identical reports.
    pub fn report_for(
        &self,
        graph_label: &str,
        results: &[Result<QueryAnswer, ServiceError>],
    ) -> Value {
        let entries = self
            .queries
            .iter()
            .zip(results)
            .map(|(spec, outcome)| match outcome {
                Ok(answer) => {
                    let mut entry = ObjBuilder::new()
                        .field("query", spec.to_json())
                        .field("status", "ok")
                        .field("result", answer.result.to_json())
                        .field("worlds_used", answer.worlds_used);
                    if let Some(half_width) = reported_half_width(answer.half_width) {
                        entry = entry.field("half_width", half_width);
                    }
                    entry.build()
                }
                Err(error) => error_entry(spec, error),
            })
            .collect();
        self.report_head(graph_label)
            .field("results", Value::Arr(entries))
            .build()
    }

    /// Appends the compact report for answers whose results are already
    /// rendered: byte for byte `report_for(..).render()` of the same
    /// answers, with each result spliced in instead of rendered again.
    pub fn write_report(
        &self,
        graph_label: &str,
        results: &[Result<RenderedAnswer, ServiceError>],
        out: &mut String,
    ) {
        // The envelope is `report_for`'s, rendered without its closing
        // brace; `results` is its last field.
        let head = self.report_head(graph_label).build().render();
        out.push_str(head.strip_suffix('}').expect("the envelope is an object"));
        out.push_str(",\"results\":[");
        for (index, (spec, outcome)) in self.queries.iter().zip(results).enumerate() {
            if index > 0 {
                out.push(',');
            }
            match outcome {
                Ok(answer) => {
                    out.push_str("{\"query\":");
                    out.push_str(&spec.to_json().render());
                    out.push_str(",\"status\":\"ok\",\"result\":");
                    out.push_str(&answer.result);
                    out.push_str(",\"worlds_used\":");
                    out.push_str(&Value::from(answer.worlds_used).render());
                    if let Some(half_width) = reported_half_width(answer.half_width) {
                        out.push_str(",\"half_width\":");
                        out.push_str(&Value::from(half_width).render());
                    }
                    out.push('}');
                }
                Err(error) => out.push_str(&error_entry(spec, error).render()),
            }
        }
        out.push_str("]}");
    }

    /// The report's configuration fields, every field but `results`.
    fn report_head(&self, graph_label: &str) -> ObjBuilder {
        let mut report = ObjBuilder::new()
            .field("graph", graph_label)
            .field("worlds", self.worlds)
            .field("threads", self.threads)
            .field("shards", self.shards)
            .field("mode", mode_name(self.mode))
            .field("seed", self.seed as usize);
        if let Some(precision) = &self.precision {
            report = report.field("precision", precision_to_json(precision));
        }
        report
    }
}

/// The half-width a report entry carries: infinite means "nothing was
/// tracked", omitted rather than rendered as minijson's `null`.
fn reported_half_width(half_width: Option<f64>) -> Option<f64> {
    half_width.filter(|hw| hw.is_finite())
}

/// The report entry of a query without an answer.
fn error_entry(spec: &QuerySpec, error: &ServiceError) -> Value {
    ObjBuilder::new()
        .field("query", spec.to_json())
        .field("status", "error")
        .field("error", error.to_string())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    impl QueryPlan {
        /// [`QueryPlan::execute_detailed`] without the effort metadata.
        fn execute(
            &self,
            graph: impl Into<Arc<UncertainGraph>>,
        ) -> Vec<Result<QueryResult, ServiceError>> {
            self.execute_detailed(graph)
                .into_iter()
                .map(|outcome| outcome.map(|answer| answer.result))
                .collect()
        }
    }

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap()
    }

    #[test]
    fn plans_parse_with_defaults_and_round_trip() {
        let plan = QueryPlan::parse_str(
            r#"{"queries": [{"type": "connectivity"}, {"type": "knn", "source": 1, "k": 2}]}"#,
        )
        .unwrap();
        assert_eq!(plan.graph, None);
        assert_eq!(plan.worlds, 500);
        assert_eq!(plan.threads, 1);
        assert_eq!(plan.mode, SampleMethod::Auto);
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.queries.len(), 2);
        let back = QueryPlan::parse(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            r#"{"queries": []}"#,
            r#"{"worlds": 10}"#,
            r#"{"queries": [{"type": "psychic"}]}"#,
            r#"{"queries": [{"type": "pagerank"}], "mode": "psychic"}"#,
            r#"{"queries": [{"type": "pagerank"}], "graph": 3}"#,
        ] {
            assert!(QueryPlan::parse_str(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn seeds_below_two_to_the_53_parse_and_round_trip() {
        let plan = QueryPlan::parse_str(
            r#"{"seed": 9007199254740991, "queries": [{"type": "connectivity"}]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, SEED_LIMIT - 1);
        let back = QueryPlan::parse(&plan.to_json()).unwrap();
        assert_eq!(back.seed, SEED_LIMIT - 1);
        assert_eq!(back, plan);
    }

    #[test]
    fn seeds_at_or_above_two_to_the_53_are_refused() {
        // 2^53 + 1 parses to the same f64 as 2^53: without the limit the two
        // plans would silently run with one seed.
        for seed in ["9007199254740992", "9007199254740993", "1e300"] {
            let error = QueryPlan::parse_str(&format!(
                r#"{{"seed": {seed}, "queries": [{{"type": "connectivity"}}]}}"#
            ))
            .unwrap_err();
            match error {
                SpecError::Json(message) => {
                    assert!(message.contains("\"seed\""), "{message}");
                    assert!(message.contains("2^53"), "{message}");
                }
                other => panic!("seed {seed}: expected a JSON error, got {other:?}"),
            }
        }
    }

    #[test]
    fn query_parse_errors_name_the_failing_entry() {
        // The second entry is broken: the error must carry its index and
        // its declared type, not just the bare spec error.
        let error = QueryPlan::parse_str(
            r#"{"queries": [{"type": "connectivity"}, {"type": "knn"}, {"type": "pagerank"}]}"#,
        )
        .unwrap_err();
        let message = error.to_string();
        assert!(message.contains("queries[1]"), "{message}");
        assert!(message.contains("\"knn\""), "{message}");
        assert!(message.contains("source"), "{message}");
        // An entry with no type field is named as such.
        let error = QueryPlan::parse_str(r#"{"queries": [{"worlds": 5}]}"#).unwrap_err();
        let message = error.to_string();
        assert!(message.contains("queries[0]"), "{message}");
        assert!(message.contains("<missing type>"), "{message}");
    }

    #[test]
    fn sharded_plans_execute_and_match_the_monolithic_results() {
        let g = UncertainGraph::from_edges(
            5,
            [
                (0, 1, 0.9),
                (1, 2, 0.5),
                (2, 3, 0.7),
                (3, 4, 0.4),
                (4, 0, 0.6),
            ],
        )
        .unwrap();
        let run = |shards: usize| {
            let plan = QueryPlan::parse_str(&format!(
                r#"{{"worlds": 150, "seed": 3, "shards": {shards},
                    "queries": [{{"type": "edge_frequency"}}, {{"type": "connectivity"}}]}}"#
            ))
            .unwrap();
            assert_eq!(plan.shards, shards);
            plan.execute(g.clone())
        };
        let monolithic = run(1);
        let sharded = run(2);
        for (a, b) in monolithic.iter().zip(&sharded) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn sharded_plans_answer_halo_queries_too() {
        // A plan's shard count never changes an answer, so every query kind
        // answers under `shards > 1` as it does monolithically.
        let g = UncertainGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 40, "seed": 1, "shards": 2,
                "queries": [{"type": "pagerank"}, {"type": "degree_histogram"},
                            {"type": "clustering"}, {"type": "knn", "source": 0}]}"#,
        )
        .unwrap();
        let results = plan.execute(g);
        for (i, result) in results.iter().enumerate() {
            assert!(result.is_ok(), "entry {i}: {result:?}");
        }
    }

    #[test]
    fn execute_answers_in_plan_order() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 100, "seed": 3,
                "queries": [{"type": "edge_frequency"}, {"type": "connectivity"}]}"#,
        )
        .unwrap();
        let results = plan.execute(g);
        assert!(matches!(results[0], Ok(QueryResult::EdgeFrequency(_))));
        assert!(matches!(results[1], Ok(QueryResult::Connectivity(_))));
    }

    #[test]
    fn run_report_is_deterministic_and_reports_errors_per_query() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 60, "seed": 5, "threads": 2,
                "queries": [{"type": "pagerank"}, {"type": "knn", "source": 99}]}"#,
        )
        .unwrap();
        let report_a = plan.run_report(g.clone(), "toy").render();
        let report_b = plan.run_report(g, "toy").render();
        assert_eq!(report_a, report_b, "same plan, same report");
        let doc = Value::parse(&report_a).unwrap();
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get_str("status"), Some("ok"));
        assert_eq!(results[1].get_str("status"), Some("error"));
        assert!(results[1]
            .get_str("error")
            .unwrap()
            .contains("out of range"));
    }

    #[test]
    fn written_reports_equal_rendered_reports_byte_for_byte() {
        let g = toy();
        let queries = r#"[{"type": "pagerank"}, {"type": "clustering"},
            {"type": "pair_queries", "pairs": [[0, 3], [1, 2]]}, {"type": "connectivity"},
            {"type": "degree_histogram"}, {"type": "knn", "source": 0, "k": 2},
            {"type": "edge_frequency"}, {"type": "knn", "source": 99, "k": 2}]"#;
        for (seed, precision) in [(7, ""), (8, r#", "precision": {"epsilon": 0.05}"#)] {
            let plan = QueryPlan::parse_str(&format!(
                r#"{{"worlds": 300, "threads": 2, "seed": {seed}{precision},
                    "queries": {queries}}}"#
            ))
            .unwrap();
            let answers = plan.execute_detailed(g.clone());
            assert!(answers[..7].iter().all(Result::is_ok));
            assert!(matches!(answers[7], Err(ServiceError::Spec(_))));
            assert_eq!(
                answers[0].as_ref().unwrap().half_width.is_some(),
                !precision.is_empty(),
                "only an adaptive plan reports a half-width"
            );
            let rendered: Vec<Result<RenderedAnswer, ServiceError>> = answers
                .iter()
                .map(|outcome| {
                    outcome
                        .as_ref()
                        .map(QueryAnswer::render)
                        .map_err(Clone::clone)
                })
                .collect();
            let mut written = String::from("prefix:");
            plan.write_report("toy", &rendered, &mut written);
            assert_eq!(
                written.strip_prefix("prefix:").unwrap(),
                plan.report_for("toy", &answers).render(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn queries_resolve_to_their_typed_results() {
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 300, "threads": 2, "seed": 7,
                "queries": [{"type": "connectivity"}, {"type": "edge_frequency"}]}"#,
        )
        .unwrap();
        let results = plan.execute(toy());
        match &results[0] {
            Ok(QueryResult::Connectivity(estimate)) => {
                assert!(estimate.probability_connected <= 1.0);
                assert_eq!(estimate.num_worlds, 300);
            }
            other => panic!("unexpected result {other:?}"),
        }
        match &results[1] {
            Ok(QueryResult::EdgeFrequency(freq)) => {
                assert_eq!(freq.len(), 3);
                assert!((freq[0] - 0.9).abs() < 0.1);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn invalid_specs_are_rejected_without_stopping_the_plan() {
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 50, "seed": 1,
                "queries": [{"type": "knn", "source": 99, "k": 3}, {"type": "connectivity"}]}"#,
        )
        .unwrap();
        let results = plan.execute(toy());
        assert!(matches!(results[0], Err(ServiceError::Spec(_))));
        assert!(results[1].is_ok());
    }

    #[test]
    fn adaptive_plans_stop_early_and_report_their_effort() {
        let plan = QueryPlan {
            precision: Some(Precision::new(0.05)),
            ..QueryPlan::parse_str(
                r#"{"worlds": 100000, "threads": 2, "seed": 21,
                    "queries": [{"type": "connectivity"}]}"#,
            )
            .unwrap()
        };
        let answer = plan.execute_detailed(toy()).remove(0).unwrap();
        assert!(answer.worlds_used < 100_000, "stopped early");
        assert!(answer.half_width.unwrap() <= 0.05, "target met");
        match answer.result {
            QueryResult::Connectivity(estimate) => {
                assert_eq!(estimate.num_worlds, answer.worlds_used);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn a_raised_cancel_flag_stops_adaptive_and_fixed_plans() {
        let fixed = QueryPlan::parse_str(
            r#"{"worlds": 100000, "threads": 2, "seed": 3,
                "queries": [{"type": "connectivity"}]}"#,
        )
        .unwrap();
        let adaptive = QueryPlan {
            precision: Some(Precision::new(1e-9).with_epoch(64)),
            ..fixed.clone()
        };
        let cancel = Arc::new(AtomicBool::new(true));
        let answer = adaptive
            .execute_detailed_with_cancel(toy(), Some(Arc::clone(&cancel)))
            .remove(0)
            .unwrap();
        assert_eq!(answer.worlds_used, 64, "one epoch, then the checkpoint");
        assert!(cancel.load(Ordering::SeqCst), "the flag stays caller-owned");
        // A fixed-budget plan stops after a world and has no answer.
        let outcome = fixed
            .execute_detailed_with_cancel(toy(), Some(cancel))
            .remove(0);
        assert!(
            matches!(outcome, Err(ServiceError::Cancelled)),
            "{outcome:?}"
        );
        // An unraised flag changes nothing.
        let plain = fixed.execute_detailed(toy()).remove(0).unwrap();
        let flagged = fixed
            .execute_detailed_with_cancel(toy(), Some(Arc::new(AtomicBool::new(false))))
            .remove(0)
            .unwrap();
        assert_eq!(plain.worlds_used, 100_000);
        assert_eq!(flagged.result, plain.result);
    }

    #[test]
    fn shard_counts_beyond_the_vertex_count_are_refused_before_partitioning() {
        let g = toy();
        let with_shards = |shards: usize| {
            let mut plan = QueryPlan::parse_str(
                r#"{"worlds": 30, "seed": 9,
                    "queries": [{"type": "connectivity"}, {"type": "pagerank"}]}"#,
            )
            .unwrap();
            plan.shards = shards;
            plan.execute_detailed(g.clone())
        };
        // 10^12 shards of a 4-vertex graph: refused at once, before any
        // world is sampled.
        for shards in [1_000_000_000_000, g.num_vertices() + 1] {
            for outcome in with_shards(shards) {
                match outcome {
                    Err(ServiceError::Policy(message)) => {
                        assert!(message.contains(&format!("{shards} shards")), "{message}")
                    }
                    other => panic!("{shards} shards: expected a policy error, got {other:?}"),
                }
            }
        }
        // One shard per vertex is the largest accepted count, and it answers
        // like the monolithic run.
        assert_eq!(with_shards(g.num_vertices()), with_shards(1));
        // An empty graph takes at most one shard.
        let empty = UncertainGraph::from_edges(0, []).unwrap();
        let plan = QueryPlan::parse_str(
            r#"{"worlds": 10, "shards": 2, "queries": [{"type": "edge_frequency"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            plan.execute_detailed(empty)[0],
            Err(ServiceError::Policy(_))
        ));
    }
}
