//! JSON round-trip suite for [`QuerySpec`] (and the [`QueryPlan`] document
//! that embeds them): `parse(to_json(spec)) == spec` for every variant, the
//! parameters survive exactly, and malformed documents fail with a
//! [`SpecError`] instead of panicking.  A seeded mutation run over a full
//! plan document checks the same of hostile plans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_queries::variance::Precision;
use ugs_service::{parse_precision, precision_to_json, QueryPlan, QuerySpec, SpecError};
use uncertain_graph::UncertainGraph;

fn all_variants() -> Vec<QuerySpec> {
    vec![
        QuerySpec::pagerank(),
        QuerySpec::PageRank {
            damping: 0.5,
            max_iterations: 7,
            tolerance: 1e-6,
        },
        QuerySpec::Clustering,
        QuerySpec::PairQueries {
            pairs: vec![(0, 1), (5, 2), (3, 3)],
        },
        QuerySpec::PairQueries { pairs: vec![] },
        QuerySpec::Connectivity,
        QuerySpec::DegreeHistogram,
        QuerySpec::Knn { source: 4, k: 3 },
        QuerySpec::EdgeFrequency,
    ]
}

#[test]
fn every_variant_round_trips_through_json() {
    for spec in all_variants() {
        let json = spec.to_json();
        let back = QuerySpec::parse(&json).unwrap_or_else(|e| panic!("{json:?}: {e}"));
        assert_eq!(back, spec, "{json:?}");
        // And through the rendered string, i.e. the actual wire format.
        let rendered = json.render();
        let reparsed = QuerySpec::parse_str(&rendered).unwrap();
        assert_eq!(reparsed, spec, "{rendered}");
    }
}

#[test]
fn the_type_field_matches_the_kind() {
    for spec in all_variants() {
        assert_eq!(spec.to_json().get_str("type"), Some(spec.kind()));
    }
}

#[test]
fn plans_round_trip_with_their_embedded_specs() {
    let plan = QueryPlan {
        graph: Some("graph.txt".to_string()),
        worlds: 123,
        threads: 4,
        shards: 2,
        mode: ugs_queries::SampleMethod::PerEdge,
        seed: 77,
        precision: None,
        queries: all_variants(),
    };
    let back = QueryPlan::parse(&plan.to_json()).unwrap();
    assert_eq!(back, plan);
    let back = QueryPlan::parse_str(&plan.to_json().render()).unwrap();
    assert_eq!(back, plan);
}

#[test]
fn precision_blocks_round_trip_through_json() {
    for precision in [
        Precision::new(0.01),
        Precision::new(0.05).with_delta(0.1),
        Precision::new(0.02)
            .with_delta(0.25)
            .with_deadline(Duration::from_millis(1500))
            .with_max_worlds(40_000),
    ] {
        let json = precision_to_json(&precision);
        let back = parse_precision(&json).unwrap_or_else(|e| panic!("{}: {e}", json.render()));
        assert_eq!(back, precision, "{}", json.render());
    }
}

#[test]
fn plans_round_trip_their_precision_block() {
    let plan = QueryPlan::parse_str(
        r#"{"worlds": 5000, "seed": 3,
            "precision": {"epsilon": 0.02, "delta": 0.1, "max_worlds": 4000},
            "queries": [{"type": "connectivity"}]}"#,
    )
    .unwrap();
    let precision = plan.precision.expect("parsed precision");
    assert_eq!(precision.epsilon, 0.02);
    assert_eq!(precision.delta, 0.1);
    assert_eq!(precision.max_worlds, Some(4000));
    assert_eq!(precision.deadline, None);
    let back = QueryPlan::parse(&plan.to_json()).unwrap();
    assert_eq!(back, plan);
}

#[test]
fn malformed_precision_blocks_fail_with_named_errors() {
    // (document, fragment the error must mention)
    for (bad, needle) in [
        (r#"{"precision": 3}"#, "must be an object"),
        (r#"{"precision": {}}"#, "epsilon"),
        (r#"{"precision": {"epsilon": "tight"}}"#, "must be a number"),
        (r#"{"precision": {"epsilon": 0}}"#, "finite positive"),
        (r#"{"precision": {"epsilon": -0.5}}"#, "finite positive"),
        (
            r#"{"precision": {"epsilon": 0.1, "delta": 1.5}}"#,
            "strictly between 0 and 1",
        ),
        (
            r#"{"precision": {"epsilon": 0.1, "delta": 0}}"#,
            "strictly between 0 and 1",
        ),
        (
            r#"{"precision": {"epsilon": 0.1, "deadline_ms": -2}}"#,
            "non-negative integer",
        ),
        // Unknown keys are rejected naming the allowed set.
        (
            r#"{"precision": {"epsilon": 0.1, "budget": 9}}"#,
            "epsilon|delta|deadline_ms|max_worlds",
        ),
    ] {
        let doc = format!(
            r#"{{"queries": [{{"type": "connectivity"}}], {}"#,
            &bad[1..]
        );
        match QueryPlan::parse_str(&doc) {
            Err(SpecError::Json(message)) => {
                assert!(message.contains(needle), "{doc}: {message}");
                assert!(message.contains("precision"), "{doc}: {message}");
            }
            other => panic!("{doc}: expected SpecError::Json, got {other:?}"),
        }
    }
}

#[test]
fn malformed_documents_fail_with_spec_errors() {
    for bad in [
        "",
        "{",
        "[]",
        r#""pagerank""#,
        r#"{"type": 3}"#,
        r#"{"type": "knn", "source": -1}"#,
        r#"{"type": "knn", "source": 0, "k": 1.5}"#,
        r#"{"type": "pagerank", "max_iterations": -2}"#,
        r#"{"type": "pair_queries", "pairs": "all"}"#,
        r#"{"type": "pair_queries", "pairs": [[0, 1, 2]]}"#,
    ] {
        match QuerySpec::parse_str(bad) {
            Err(SpecError::Json(_)) => {}
            other => panic!("{bad:?}: expected SpecError::Json, got {other:?}"),
        }
    }
}

/// A plan document that sets every plan field and uses all seven query kinds.
const FULL_PLAN: &str = r#"{"graph": "g.txt", "worlds": 64, "threads": 2, "shards": 1,
  "mode": "skip", "seed": 7,
  "precision": {"epsilon": 0.05, "delta": 0.1, "deadline_ms": 5000, "max_worlds": 48},
  "queries": [
    {"type": "pagerank", "damping": 0.85, "max_iterations": 20, "tolerance": 0.0001},
    {"type": "clustering"},
    {"type": "pair_queries", "pairs": [[0, 1], [2, 4], [3, 3]]},
    {"type": "connectivity"},
    {"type": "degree_histogram"},
    {"type": "knn", "source": 1, "k": 3},
    {"type": "edge_frequency"}]}"#;

/// Mutated plan documents.
const ROUNDS: usize = if cfg!(debug_assertions) {
    4_000
} else {
    40_000
};

/// JSON tokens a mutation inserts or writes over a byte.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "5",
    "9",
    "-",
    ".",
    "e",
    "-1",
    "1e400",
    "0.5",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    " ",
    "null",
    "true",
    "false",
    "\"type\"",
    "\"knn\"",
    "\"source\"",
    "\"pairs\"",
    "\"precision\"",
    "\"shards\"",
    "\"mode\"",
    "\"seed\"",
    "\"per-edge\"",
    "[[9, 0]]",
    "{\"type\": \"pagerank\"}",
];

/// One to four token inserts, byte deletes or byte replacements (the
/// document and the tokens are ASCII, so every cut is a char boundary).
fn mutate(rng: &mut SmallRng, text: &mut String) {
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..text.len() + 1);
        let token = TOKENS[rng.gen_range(0..TOKENS.len())];
        match rng.gen_range(0..3) {
            0 => text.insert_str(at, token),
            1 if at < text.len() => {
                text.remove(at);
            }
            _ if at < text.len() => text.replace_range(at..at + 1, token),
            _ => text.push_str(token),
        }
    }
}

#[test]
fn mutated_plans_are_refused_typed_or_round_trip() {
    // Five vertices: mutated pairs and k-NN sources land in and out of range.
    let g = UncertainGraph::from_edges(5, [(0, 1, 0.5), (1, 2, 0.9), (2, 3, 0.3), (3, 4, 0.7)])
        .unwrap();
    let full = QueryPlan::parse_str(FULL_PLAN).unwrap();
    assert_eq!(full.queries.len(), 7);
    assert!(full.precision.is_some());
    let mut rng = SmallRng::seed_from_u64(0x9_1a_4e);
    let (mut refused, mut accepted) = (0usize, 0usize);
    for _ in 0..ROUNDS {
        let mut document = FULL_PLAN.to_string();
        mutate(&mut rng, &mut document);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(plan) = QueryPlan::parse_str(&document) else {
                return false;
            };
            let back = QueryPlan::parse(&plan.to_json())
                .unwrap_or_else(|e| panic!("{document}: the plan's own JSON is refused: {e}"));
            assert_eq!(back, plan, "{document}");
            assert_eq!(plan.observers(&g).len(), plan.queries.len(), "{document}");
            true
        }));
        match outcome {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("a mutated plan panicked: {document}"),
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}
