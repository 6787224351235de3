//! Error types for uncertain-graph construction and manipulation.

use std::fmt;

/// Errors raised when building or mutating an [`crate::UncertainGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A vertex index was at least the number of vertices of the graph.
    VertexOutOfRange {
        /// Offending vertex index.
        vertex: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// An edge index was at least the number of edges of the graph.
    EdgeOutOfRange {
        /// Offending edge index.
        edge: usize,
        /// Number of edges in the graph.
        num_edges: usize,
    },
    /// An edge probability was outside the half-open interval `(0, 1]`.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
    /// A self loop `(u, u)` was supplied; the paper assumes simple graphs.
    SelfLoop {
        /// The looping vertex.
        vertex: usize,
    },
    /// A parallel (duplicate) edge was supplied.
    DuplicateEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// The requested edge does not exist.
    MissingEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// A graph was too large for exact possible-world enumeration.
    TooManyEdgesForEnumeration {
        /// Number of edges in the graph.
        num_edges: usize,
        /// Maximum number of edges supported by exact enumeration.
        max_edges: usize,
    },
    /// An error occurred while parsing the text edge-list format.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error occurred while reading or writing a graph.
    Io(String),
    /// A vertex count exceeded [`crate::graph::MAX_VERTICES`], so some
    /// vertex ids would not fit the graph's `u32` endpoint table.
    TooManyVertices {
        /// The rejected vertex count.
        num_vertices: usize,
        /// The largest vertex count a graph may have.
        max_vertices: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::EdgeOutOfRange { edge, num_edges } => {
                write!(
                    f,
                    "edge {edge} out of range for a graph with {num_edges} edges"
                )
            }
            GraphError::InvalidProbability { value } => {
                write!(f, "edge probability {value} is outside (0, 1]")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop on vertex {vertex}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::MissingEdge { u, v } => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::TooManyEdgesForEnumeration {
                num_edges,
                max_edges,
            } => write!(
                f,
                "exact enumeration supports at most {max_edges} edges, graph has {num_edges}"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
            GraphError::TooManyVertices {
                num_vertices,
                max_vertices,
            } => write!(
                f,
                "{num_vertices} vertices exceed the limit of {max_vertices}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(err: std::io::Error) -> Self {
        GraphError::Io(err.to_string())
    }
}

/// Validates that a probability lies in `(0, 1]`.
///
/// The paper defines `p : E → (0, 1]`; a probability of exactly zero means
/// the edge does not exist and must simply be omitted from the graph.
pub fn validate_probability(p: f64) -> Result<(), GraphError> {
    if p.is_finite() && p > 0.0 && p <= 1.0 {
        Ok(())
    } else {
        Err(GraphError::InvalidProbability { value: p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_open_unit_interval() {
        assert!(validate_probability(1e-12).is_ok());
        assert!(validate_probability(0.5).is_ok());
        assert!(validate_probability(1.0).is_ok());
    }

    #[test]
    fn validate_rejects_zero_negative_and_above_one() {
        assert!(validate_probability(0.0).is_err());
        assert!(validate_probability(-0.1).is_err());
        assert!(validate_probability(1.0 + 1e-9).is_err());
    }

    #[test]
    fn validate_rejects_non_finite() {
        assert!(validate_probability(f64::NAN).is_err());
        assert!(validate_probability(f64::INFINITY).is_err());
        assert!(validate_probability(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn errors_display_useful_messages() {
        let cases: Vec<(GraphError, &str)> = vec![
            (
                GraphError::VertexOutOfRange {
                    vertex: 7,
                    num_vertices: 5,
                },
                "vertex 7 out of range",
            ),
            (
                GraphError::EdgeOutOfRange {
                    edge: 9,
                    num_edges: 3,
                },
                "edge 9 out of range",
            ),
            (
                GraphError::InvalidProbability { value: 2.0 },
                "outside (0, 1]",
            ),
            (GraphError::SelfLoop { vertex: 3 }, "self loop"),
            (GraphError::DuplicateEdge { u: 1, v: 2 }, "duplicate edge"),
            (GraphError::MissingEdge { u: 0, v: 4 }, "does not exist"),
            (
                GraphError::TooManyEdgesForEnumeration {
                    num_edges: 64,
                    max_edges: 30,
                },
                "exact enumeration",
            ),
            (
                GraphError::Parse {
                    line: 12,
                    message: "bad float".into(),
                },
                "line 12",
            ),
            (GraphError::Io("disk on fire".into()), "disk on fire"),
            (
                GraphError::TooManyVertices {
                    num_vertices: 5,
                    max_vertices: 4,
                },
                "exceed the limit of 4",
            ),
        ];
        for (err, needle) in cases {
            let shown = err.to_string();
            assert!(
                shown.contains(needle),
                "{shown:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let err: GraphError = io.into();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
