//! Error types shared by all sparsifiers.

use std::fmt;

use uncertain_graph::GraphError;

/// Errors raised while sparsifying an uncertain graph.
#[derive(Debug, Clone, PartialEq)]
pub enum SparsifyError {
    /// The sparsification ratio was outside the open interval `(0, 1)`.
    InvalidAlpha {
        /// The rejected ratio.
        alpha: f64,
    },
    /// The requested ratio leaves no edges at all (`⌊α|E|⌉ = 0`).
    NoEdgesSelected {
        /// The requested ratio.
        alpha: f64,
        /// Number of edges in the input graph.
        num_edges: usize,
    },
    /// The input graph has no edges.
    EmptyGraph,
    /// A configuration parameter was invalid (e.g. `h` outside `[0, 1]`).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An underlying graph operation failed (should not happen for valid
    /// inputs; indicates a bug).
    Graph(GraphError),
}

impl fmt::Display for SparsifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparsifyError::InvalidAlpha { alpha } => {
                write!(f, "sparsification ratio {alpha} must be in (0, 1)")
            }
            SparsifyError::NoEdgesSelected { alpha, num_edges } => write!(
                f,
                "ratio {alpha} of {num_edges} edges rounds to zero edges; nothing to sparsify into"
            ),
            SparsifyError::EmptyGraph => write!(f, "the input graph has no edges"),
            SparsifyError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            SparsifyError::Graph(err) => write!(f, "graph error: {err}"),
        }
    }
}

impl std::error::Error for SparsifyError {}

impl From<GraphError> for SparsifyError {
    fn from(err: GraphError) -> Self {
        SparsifyError::Graph(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(SparsifyError, &str)> = vec![
            (
                SparsifyError::InvalidAlpha { alpha: 1.5 },
                "must be in (0, 1)",
            ),
            (
                SparsifyError::NoEdgesSelected {
                    alpha: 0.001,
                    num_edges: 10,
                },
                "zero edges",
            ),
            (SparsifyError::EmptyGraph, "no edges"),
            (
                SparsifyError::InvalidParameter {
                    name: "h",
                    message: "must be in [0,1]".into(),
                },
                "invalid parameter h",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn graph_error_converts() {
        let err: SparsifyError = GraphError::SelfLoop { vertex: 3 }.into();
        assert!(matches!(err, SparsifyError::Graph(_)));
        assert!(err.to_string().contains("self loop"));
    }
}
