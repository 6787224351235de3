//! Data-first query descriptions: a [`QuerySpec`] names a query *as data*
//! (variant + parameters, JSON-serialisable via `minijson`) and a
//! [`QueryResult`] carries its answer.
//!
//! Every Monte-Carlo query surface of `ugs-queries` has a spec variant, and
//! every spec knows how to
//!
//! * serialise itself ([`QuerySpec::to_json`] / [`QuerySpec::parse`] — the
//!   wire format of query plans),
//! * validate itself against a concrete graph ([`QuerySpec::validate`]),
//! * build its type-erased observer ([`QuerySpec::make_observer`] →
//!   [`BoxedObserver`], the registry entry a heterogeneous `QueryBatch`
//!   run drives), and
//! * recover its typed answer from the erased output
//!   ([`QuerySpec::result_of`]).

use std::any::Any;
use std::time::Duration;

use graph_algos::pagerank::PageRankConfig;
use minijson::{ObjBuilder, Value};
use uncertain_graph::UncertainGraph;

use ugs_queries::batch::BoxedObserver;
use ugs_queries::components::{ConnectivityObserver, DegreeHistogramObserver};
use ugs_queries::knn::KnnObserver;
use ugs_queries::node_queries::{ClusteringObserver, PageRankObserver};
use ugs_queries::pair_queries::PairQueriesObserver;
use ugs_queries::variance::Precision;
use ugs_queries::{ConnectivityEstimate, EdgeFrequencyObserver, Neighbor, PairQueryResult};

/// A Monte-Carlo query described as data: one variant per query surface of
/// `ugs-queries`, each carrying its parameters.
///
/// The JSON shape is `{"type": "<kind>", ...parameters}`; omitted optional
/// parameters take the library defaults, so `{"type": "pagerank"}` is a
/// complete spec.  `type` accepts the same aliases as the CLI (`pr`, `cc`,
/// `sp`, `degree-hist`, `edge-freq`, …).
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Expected PageRank of every vertex
    /// ([`ugs_queries::expected_pagerank`]).
    PageRank {
        /// Damping factor of the power iteration.
        damping: f64,
        /// Maximum number of power iterations.
        max_iterations: usize,
        /// L1 convergence tolerance.
        tolerance: f64,
    },
    /// Expected local clustering coefficient of every vertex
    /// ([`ugs_queries::expected_clustering_coefficients`]).
    Clustering,
    /// Shortest-path distance and reliability for a fixed pair list
    /// ([`ugs_queries::pair_queries()`]).
    PairQueries {
        /// The `(source, target)` pairs to evaluate.
        pairs: Vec<(usize, usize)>,
    },
    /// Connectivity structure of the whole graph
    /// ([`ugs_queries::connectivity_query`]).
    Connectivity,
    /// Expected degree histogram
    /// ([`ugs_queries::expected_degree_histogram`]).
    DegreeHistogram,
    /// k-nearest neighbours of a source vertex
    /// ([`ugs_queries::k_nearest_neighbors`]).
    Knn {
        /// The query vertex.
        source: usize,
        /// How many neighbours to return.
        k: usize,
    },
    /// Per-edge empirical appearance frequencies
    /// ([`EdgeFrequencyObserver`]).
    EdgeFrequency,
}

/// The answer to a [`QuerySpec`], one variant per spec variant.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Per-vertex expected PageRank.
    PageRank(Vec<f64>),
    /// Per-vertex expected local clustering coefficient.
    Clustering(Vec<f64>),
    /// Distances, reliabilities and counts for the requested pairs.
    PairQueries(PairQueryResult),
    /// Connectivity structure estimates.
    Connectivity(ConnectivityEstimate),
    /// Expected degree histogram.
    DegreeHistogram(Vec<f64>),
    /// The nearest neighbours, closest first.
    Knn(Vec<Neighbor>),
    /// Per-edge empirical frequencies, indexed by edge id.
    EdgeFrequency(Vec<f64>),
}

/// Why a [`QuerySpec`] could not be parsed or applied to a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The JSON document does not describe a query spec.
    Json(String),
    /// The spec is structurally fine but does not fit the target graph
    /// (e.g. a vertex id out of range).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(m) => write!(f, "invalid query spec: {m}"),
            SpecError::Invalid(m) => write!(f, "query spec does not fit the graph: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl QuerySpec {
    /// A PageRank spec with the default power-iteration configuration.
    pub fn pagerank() -> Self {
        let config = PageRankConfig::default();
        QuerySpec::PageRank {
            damping: config.damping,
            max_iterations: config.max_iterations,
            tolerance: config.tolerance,
        }
    }

    /// The canonical kind name (the JSON `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::PageRank { .. } => "pagerank",
            QuerySpec::Clustering => "clustering",
            QuerySpec::PairQueries { .. } => "pair_queries",
            QuerySpec::Connectivity => "connectivity",
            QuerySpec::DegreeHistogram => "degree_histogram",
            QuerySpec::Knn { .. } => "knn",
            QuerySpec::EdgeFrequency => "edge_frequency",
        }
    }

    /// Serialises the spec as `{"type": "<kind>", ...parameters}`.
    pub fn to_json(&self) -> Value {
        let builder = ObjBuilder::new().field("type", self.kind());
        match self {
            QuerySpec::PageRank {
                damping,
                max_iterations,
                tolerance,
            } => builder
                .field("damping", *damping)
                .field("max_iterations", *max_iterations)
                .field("tolerance", *tolerance)
                .build(),
            QuerySpec::PairQueries { pairs } => builder
                .field(
                    "pairs",
                    Value::Arr(
                        pairs
                            .iter()
                            .map(|&(u, v)| Value::Arr(vec![u.into(), v.into()]))
                            .collect(),
                    ),
                )
                .build(),
            QuerySpec::Knn { source, k } => builder.field("source", *source).field("k", *k).build(),
            QuerySpec::Clustering
            | QuerySpec::Connectivity
            | QuerySpec::DegreeHistogram
            | QuerySpec::EdgeFrequency => builder.build(),
        }
    }

    /// Parses a spec from its JSON representation.  Optional parameters
    /// default to the library defaults; `type` accepts the CLI aliases.
    pub fn parse(value: &Value) -> Result<Self, SpecError> {
        let kind = value
            .get_str("type")
            .ok_or_else(|| SpecError::Json("missing string field \"type\"".to_string()))?;
        match kind {
            "pagerank" | "pr" => {
                let defaults = PageRankConfig::default();
                Ok(QuerySpec::PageRank {
                    damping: optional_f64(value, "damping", defaults.damping)?,
                    max_iterations: optional_usize(
                        value,
                        "max_iterations",
                        defaults.max_iterations,
                    )?,
                    tolerance: optional_f64(value, "tolerance", defaults.tolerance)?,
                })
            }
            "clustering" | "cc" => Ok(QuerySpec::Clustering),
            "pair_queries" | "pairs" | "sp" | "rl" | "reliability" | "distance" => {
                let pairs = value
                    .get("pairs")
                    .and_then(Value::as_array)
                    .ok_or_else(|| {
                        SpecError::Json(
                            "pair_queries requires an array field \"pairs\"".to_string(),
                        )
                    })?
                    .iter()
                    .map(|entry| {
                        let pair = entry.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                            SpecError::Json(
                                "each pair must be a two-element array [source, target]"
                                    .to_string(),
                            )
                        })?;
                        match (pair[0].as_usize(), pair[1].as_usize()) {
                            (Some(u), Some(v)) => Ok((u, v)),
                            _ => Err(SpecError::Json(
                                "pair endpoints must be non-negative integers".to_string(),
                            )),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(QuerySpec::PairQueries { pairs })
            }
            "connectivity" => Ok(QuerySpec::Connectivity),
            "degree_histogram" | "degree-hist" | "degrees" => Ok(QuerySpec::DegreeHistogram),
            "knn" => Ok(QuerySpec::Knn {
                source: value.get_usize("source").ok_or_else(|| {
                    SpecError::Json("knn requires an integer field \"source\"".to_string())
                })?,
                k: optional_usize(value, "k", 10)?,
            }),
            "edge_frequency" | "edge-freq" | "frequencies" => Ok(QuerySpec::EdgeFrequency),
            other => Err(SpecError::Json(format!(
                "unknown query type {other:?}; expected pagerank|clustering|pair_queries|\
                 connectivity|degree_histogram|knn|edge_frequency"
            ))),
        }
    }

    /// Parses a spec from a JSON string.
    pub fn parse_str(json: &str) -> Result<Self, SpecError> {
        let value = Value::parse(json).map_err(|e| SpecError::Json(e.to_string()))?;
        Self::parse(&value)
    }

    /// Checks that the spec can run against `g` (vertex ids in range, …).
    pub fn validate(&self, g: &UncertainGraph) -> Result<(), SpecError> {
        let n = g.num_vertices();
        match self {
            QuerySpec::PageRank {
                damping,
                max_iterations: _,
                tolerance,
            } => {
                if !(0.0..=1.0).contains(damping) {
                    return Err(SpecError::Invalid(format!(
                        "damping {damping} outside [0, 1]"
                    )));
                }
                if !tolerance.is_finite() || *tolerance < 0.0 {
                    return Err(SpecError::Invalid(format!(
                        "tolerance {tolerance} must be a non-negative number"
                    )));
                }
                Ok(())
            }
            QuerySpec::PairQueries { pairs } => {
                for &(u, v) in pairs {
                    if u >= n || v >= n {
                        return Err(SpecError::Invalid(format!(
                            "pair ({u}, {v}) out of range (graph has {n} vertices)"
                        )));
                    }
                }
                Ok(())
            }
            QuerySpec::Knn { source, k: _ } => {
                if *source >= n {
                    return Err(SpecError::Invalid(format!(
                        "knn source {source} out of range (graph has {n} vertices)"
                    )));
                }
                Ok(())
            }
            QuerySpec::Clustering
            | QuerySpec::Connectivity
            | QuerySpec::DegreeHistogram
            | QuerySpec::EdgeFrequency => Ok(()),
        }
    }

    /// Validates the spec against `g` and builds its type-erased observer —
    /// the entry a heterogeneous batch/service registry stores.
    pub fn make_observer(&self, g: &UncertainGraph) -> Result<BoxedObserver, SpecError> {
        self.validate(g)?;
        Ok(match self {
            QuerySpec::PageRank {
                damping,
                max_iterations,
                tolerance,
            } => BoxedObserver::new(PageRankObserver::with_config(
                g,
                PageRankConfig {
                    damping: *damping,
                    max_iterations: *max_iterations,
                    tolerance: *tolerance,
                },
            )),
            QuerySpec::Clustering => BoxedObserver::new(ClusteringObserver::new(g)),
            QuerySpec::PairQueries { pairs } => BoxedObserver::new(PairQueriesObserver::new(pairs)),
            QuerySpec::Connectivity => BoxedObserver::new(ConnectivityObserver::new(g)),
            QuerySpec::DegreeHistogram => BoxedObserver::new(DegreeHistogramObserver::new(g)),
            QuerySpec::Knn { source, k } => BoxedObserver::new(KnnObserver::new(g, *source, *k)),
            QuerySpec::EdgeFrequency => BoxedObserver::new(EdgeFrequencyObserver::new(g)),
        })
    }

    /// Downcasts the erased observer output produced by this spec's
    /// observer back into the typed [`QueryResult`].  Returns `None` if the
    /// output does not belong to this spec (an internal driver error).
    pub fn result_of(&self, output: Box<dyn Any>) -> Option<QueryResult> {
        Some(match self {
            QuerySpec::PageRank { .. } => QueryResult::PageRank(*output.downcast().ok()?),
            QuerySpec::Clustering => QueryResult::Clustering(*output.downcast().ok()?),
            QuerySpec::PairQueries { .. } => QueryResult::PairQueries(*output.downcast().ok()?),
            QuerySpec::Connectivity => QueryResult::Connectivity(*output.downcast().ok()?),
            QuerySpec::DegreeHistogram => QueryResult::DegreeHistogram(*output.downcast().ok()?),
            QuerySpec::Knn { .. } => QueryResult::Knn(*output.downcast().ok()?),
            QuerySpec::EdgeFrequency => QueryResult::EdgeFrequency(*output.downcast().ok()?),
        })
    }
}

fn optional_f64(value: &Value, key: &str, default: f64) -> Result<f64, SpecError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SpecError::Json(format!("field {key:?} must be a number"))),
    }
}

/// `value[key]` as a non-negative integer, or `default` when absent (shared
/// with the plan-document parser).
pub(crate) fn optional_usize(value: &Value, key: &str, default: usize) -> Result<usize, SpecError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            SpecError::Json(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

/// Parses an adaptive-precision block — the wire form of
/// [`ugs_queries::variance::Precision`]:
///
/// ```json
/// {"epsilon": 0.01, "delta": 0.05, "deadline_ms": 2000, "max_worlds": 50000}
/// ```
///
/// `epsilon` is required (finite, positive); `delta` is optional in `(0, 1)`
/// (default 0.05); `deadline_ms` and `max_worlds` are optional non-negative
/// integers.  Unknown keys are rejected naming the allowed set, like the
/// query-spec parsers.
pub fn parse_precision(value: &Value) -> Result<Precision, SpecError> {
    let entries = match value {
        Value::Obj(entries) => entries,
        _ => {
            return Err(SpecError::Json(
                "field \"precision\" must be an object".to_string(),
            ))
        }
    };
    const ALLOWED: [&str; 4] = ["epsilon", "delta", "deadline_ms", "max_worlds"];
    for (key, _) in entries {
        if !ALLOWED.contains(&key.as_str()) {
            return Err(SpecError::Json(format!(
                "unknown precision field {key:?}; expected epsilon|delta|deadline_ms|max_worlds"
            )));
        }
    }
    let epsilon = value
        .get("epsilon")
        .ok_or_else(|| {
            SpecError::Json("a precision block requires a number \"epsilon\"".to_string())
        })?
        .as_f64()
        .ok_or_else(|| SpecError::Json("field \"epsilon\" must be a number".to_string()))?;
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(SpecError::Json(format!(
            "field \"epsilon\" must be a finite positive number, got {epsilon}"
        )));
    }
    let mut precision = Precision::new(epsilon);
    if let Some(v) = value.get("delta") {
        let delta = v
            .as_f64()
            .ok_or_else(|| SpecError::Json("field \"delta\" must be a number".to_string()))?;
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SpecError::Json(format!(
                "field \"delta\" must lie strictly between 0 and 1, got {delta}"
            )));
        }
        precision = precision.with_delta(delta);
    }
    if value.get("deadline_ms").is_some() {
        let ms = optional_usize(value, "deadline_ms", 0)?;
        precision = precision.with_deadline(Duration::from_millis(ms as u64));
    }
    if value.get("max_worlds").is_some() {
        precision = precision.with_max_worlds(optional_usize(value, "max_worlds", 0)?);
    }
    Ok(precision)
}

/// Renders a [`Precision`] back to its JSON block (inverse of
/// [`parse_precision`]; the epoch size is an engine tuning knob, not part of
/// the wire format).
pub fn precision_to_json(precision: &Precision) -> Value {
    let mut builder = ObjBuilder::new()
        .field("epsilon", precision.epsilon)
        .field("delta", precision.delta);
    if let Some(deadline) = precision.deadline {
        builder = builder.field("deadline_ms", deadline.as_millis() as usize);
    }
    if let Some(max_worlds) = precision.max_worlds {
        builder = builder.field("max_worlds", max_worlds);
    }
    builder.build()
}

impl QueryResult {
    /// The canonical kind name, matching [`QuerySpec::kind`].
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            QueryResult::PageRank(_) => "pagerank",
            QueryResult::Clustering(_) => "clustering",
            QueryResult::PairQueries(_) => "pair_queries",
            QueryResult::Connectivity(_) => "connectivity",
            QueryResult::DegreeHistogram(_) => "degree_histogram",
            QueryResult::Knn(_) => "knn",
            QueryResult::EdgeFrequency(_) => "edge_frequency",
        }
    }

    /// Serialises the result as `{"type": "<kind>", ...payload}`
    /// (non-finite numbers render as `null`, as everywhere in `minijson`).
    pub fn to_json(&self) -> Value {
        let builder = ObjBuilder::new().field("type", self.kind());
        let float_array = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::from(x)).collect());
        match self {
            QueryResult::PageRank(scores) => builder.field("scores", float_array(scores)).build(),
            QueryResult::Clustering(coefficients) => builder
                .field("coefficients", float_array(coefficients))
                .build(),
            QueryResult::PairQueries(result) => builder
                .field(
                    "pairs",
                    Value::Arr(
                        result
                            .pairs
                            .iter()
                            .map(|&(u, v)| Value::Arr(vec![u.into(), v.into()]))
                            .collect(),
                    ),
                )
                .field("mean_distance", float_array(&result.mean_distance))
                .field("reliability", float_array(&result.reliability))
                .field(
                    "connected_worlds",
                    Value::Arr(result.connected_worlds.iter().map(|&c| c.into()).collect()),
                )
                .field("num_worlds", result.num_worlds)
                .build(),
            QueryResult::Connectivity(estimate) => builder
                .field("probability_connected", estimate.probability_connected)
                .field("expected_components", estimate.expected_components)
                .field(
                    "expected_largest_component",
                    estimate.expected_largest_component,
                )
                .field(
                    "expected_isolated_fraction",
                    estimate.expected_isolated_fraction,
                )
                .field("num_worlds", estimate.num_worlds)
                .build(),
            QueryResult::DegreeHistogram(histogram) => {
                builder.field("histogram", float_array(histogram)).build()
            }
            QueryResult::Knn(neighbors) => builder
                .field(
                    "neighbors",
                    Value::Arr(
                        neighbors
                            .iter()
                            .map(|n| {
                                ObjBuilder::new()
                                    .field("vertex", n.vertex)
                                    .field("expected_distance", n.expected_distance)
                                    .field("reachability", n.reachability)
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .build(),
            QueryResult::EdgeFrequency(frequencies) => builder
                .field("frequencies", float_array(frequencies))
                .build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7)]).unwrap()
    }

    #[test]
    fn defaults_fill_in_for_omitted_parameters() {
        let spec = QuerySpec::parse_str(r#"{"type": "pagerank"}"#).unwrap();
        assert_eq!(spec, QuerySpec::pagerank());
        let spec = QuerySpec::parse_str(r#"{"type": "knn", "source": 2}"#).unwrap();
        assert_eq!(spec, QuerySpec::Knn { source: 2, k: 10 });
    }

    #[test]
    fn aliases_parse_to_canonical_variants() {
        for (alias, expected) in [
            ("pr", "pagerank"),
            ("cc", "clustering"),
            ("degree-hist", "degree_histogram"),
            ("edge-freq", "edge_frequency"),
        ] {
            let spec = QuerySpec::parse_str(&format!(r#"{{"type": "{alias}"}}"#)).unwrap();
            assert_eq!(spec.kind(), expected);
        }
        let spec = QuerySpec::parse_str(r#"{"type": "sp", "pairs": [[0, 1]]}"#).unwrap();
        assert_eq!(
            spec,
            QuerySpec::PairQueries {
                pairs: vec![(0, 1)]
            }
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            r#"{"type": "psychic"}"#,
            r#"{"worlds": 3}"#,
            r#"{"type": "knn"}"#,
            r#"{"type": "pair_queries"}"#,
            r#"{"type": "pair_queries", "pairs": [[0]]}"#,
            r#"{"type": "pair_queries", "pairs": [[0, -1]]}"#,
            r#"{"type": "pagerank", "damping": "high"}"#,
        ] {
            assert!(QuerySpec::parse_str(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn validation_checks_vertex_ranges_and_parameters() {
        let g = toy();
        assert!(QuerySpec::Knn { source: 3, k: 2 }.validate(&g).is_ok());
        assert!(QuerySpec::Knn { source: 4, k: 2 }.validate(&g).is_err());
        assert!(QuerySpec::PairQueries {
            pairs: vec![(0, 9)]
        }
        .validate(&g)
        .is_err());
        assert!(QuerySpec::PageRank {
            damping: 1.5,
            max_iterations: 10,
            tolerance: 1e-9
        }
        .validate(&g)
        .is_err());
        assert!(QuerySpec::pagerank().validate(&g).is_ok());
    }

    #[test]
    fn observer_output_round_trips_through_result_of() {
        let g = toy();
        let spec = QuerySpec::EdgeFrequency;
        let observer = spec.make_observer(&g).unwrap();
        let output = observer.finalize(0);
        match spec.result_of(output) {
            Some(QueryResult::EdgeFrequency(freq)) => assert_eq!(freq, vec![0.0; 3]),
            other => panic!("unexpected result {other:?}"),
        }
        // A foreign output type is reported as None, not a panic.
        let connectivity = QuerySpec::Connectivity.make_observer(&g).unwrap();
        assert!(spec.result_of(connectivity.finalize(0)).is_none());
    }

    #[test]
    fn result_json_includes_kind_and_payload() {
        let result = QueryResult::DegreeHistogram(vec![0.5, 1.5]);
        let json = result.to_json();
        assert_eq!(json.get_str("type"), Some("degree_histogram"));
        assert_eq!(json.get("histogram").unwrap().as_array().unwrap().len(), 2);
    }
}
