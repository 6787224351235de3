//! Validated construction of [`UncertainGraph`] values.

use std::collections::HashSet;

use crate::error::{validate_probability, GraphError};
use crate::graph::{UncertainGraph, VertexId, MAX_VERTICES};

/// Incremental, validating builder for [`UncertainGraph`].
///
/// The builder enforces the invariants assumed by the paper and by every
/// algorithm in this workspace:
///
/// * vertex identifiers are in `0..num_vertices`,
/// * no self loops,
/// * no parallel edges (in either orientation),
/// * probabilities are in `(0, 1]`.
///
/// Vertex ids must also fit the graph's `u32` endpoint table: a builder made
/// for more than [`MAX_VERTICES`] vertices refuses an id of `MAX_VERTICES` or
/// more with [`GraphError::TooManyVertices`].
///
/// Duplicate detection costs one hash probe per edge: the normalised pair
/// `(min, max)` is packed into one `u64`, and [`add_edge`] learns from the
/// set's `insert` whether the pair is new.  The set keeps std's keyed
/// `RandomState` hasher on purpose: the pairs of a graph file come from
/// outside the program, and a fixed hasher would let a crafted file make
/// every probe collide.
///
/// [`add_edge`]: UncertainGraphBuilder::add_edge
///
/// ```
/// use uncertain_graph::UncertainGraphBuilder;
///
/// let mut b = UncertainGraphBuilder::new(3);
/// b.add_edge(0, 1, 0.4).unwrap();
/// b.add_edge(1, 2, 1.0).unwrap();
/// assert!(b.add_edge(1, 0, 0.2).is_err()); // parallel edge
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UncertainGraphBuilder {
    num_vertices: usize,
    /// Exclusive bound on accepted vertex ids: `num_vertices`, capped at
    /// [`MAX_VERTICES`].
    id_bound: usize,
    endpoints: Vec<(u32, u32)>,
    probabilities: Vec<f64>,
    /// [`pair_key`] of every added edge.
    seen: HashSet<u64>,
}

/// The duplicate-set key of the pair `{u, v}`: the smaller id in the high
/// half, the larger in the low half.
fn pair_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

impl UncertainGraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices and no
    /// edges yet.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_capacity(num_vertices, 0)
    }

    /// Creates a builder with pre-allocated room for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        let max_vertices = usize::try_from(MAX_VERTICES).unwrap_or(usize::MAX);
        UncertainGraphBuilder {
            num_vertices,
            id_bound: num_vertices.min(max_vertices),
            endpoints: Vec::with_capacity(num_edges),
            probabilities: Vec::with_capacity(num_edges),
            seen: HashSet::with_capacity(num_edges),
        }
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// `vertex` as a stored id, or the error that refuses it.
    fn checked_id(&self, vertex: VertexId) -> Result<u32, GraphError> {
        if vertex < self.id_bound {
            // `id_bound <= MAX_VERTICES`, so the id fits.
            return Ok(vertex as u32);
        }
        Err(if vertex >= self.num_vertices {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices: self.num_vertices,
            }
        } else {
            GraphError::TooManyVertices {
                num_vertices: self.num_vertices,
                max_vertices: MAX_VERTICES,
            }
        })
    }

    /// The stored ids of the edge `(u, v)`, checked in the order every
    /// insertion reports: `u`'s range, `v`'s range, then a self loop.
    fn checked_pair(&self, u: VertexId, v: VertexId) -> Result<(u32, u32), GraphError> {
        let (a, b) = (self.checked_id(u)?, self.checked_id(v)?);
        if a == b {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok((a, b))
    }

    /// Returns `true` if an edge between `u` and `v` has already been added.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        match (u32::try_from(u), u32::try_from(v)) {
            (Ok(a), Ok(b)) => self.seen.contains(&pair_key(a, b)),
            _ => false,
        }
    }

    /// Appends an edge whose pair the duplicate set has just taken in.
    fn push(&mut self, a: u32, b: u32, p: f64) -> usize {
        self.endpoints.push((a, b));
        self.probabilities.push(p);
        self.endpoints.len() - 1
    }

    /// Adds an undirected uncertain edge `(u, v)` with probability `p`.
    ///
    /// Returns the edge id on success.  Errors are checked in this order:
    /// `u`'s range, `v`'s range, a self loop, the probability, a duplicate.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<usize, GraphError> {
        let (a, b) = self.checked_pair(u, v)?;
        validate_probability(p)?;
        if !self.seen.insert(pair_key(a, b)) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        Ok(self.push(a, b, p))
    }

    /// Adds the edge if it is not present yet, otherwise leaves the existing
    /// probability untouched.  Returns `true` if the edge was inserted.
    ///
    /// A present edge answers `Ok(false)` whatever `p` is; the vertex and
    /// self-loop checks come first, as in [`UncertainGraphBuilder::add_edge`].
    /// Useful for generators that may propose the same pair twice.
    pub fn add_edge_if_absent(
        &mut self,
        u: VertexId,
        v: VertexId,
        p: f64,
    ) -> Result<bool, GraphError> {
        let (a, b) = self.checked_pair(u, v)?;
        let key = pair_key(a, b);
        if let Err(invalid) = validate_probability(p) {
            return if self.seen.contains(&key) {
                Ok(false)
            } else {
                Err(invalid)
            };
        }
        if !self.seen.insert(key) {
            return Ok(false);
        }
        self.push(a, b, p);
        Ok(true)
    }

    /// Finalises the builder into an immutable-topology [`UncertainGraph`].
    ///
    /// The duplicate set is freed before the adjacency is laid out, so the
    /// build's peak memory holds the edge table and the CSR arrays, not the
    /// set.
    pub fn build(self) -> UncertainGraph {
        let UncertainGraphBuilder {
            num_vertices,
            endpoints,
            probabilities,
            seen,
            ..
        } = self;
        drop(seen);
        UncertainGraph::from_validated_parts(num_vertices, endpoints, probabilities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = UncertainGraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        let mut b = UncertainGraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(2, 0, 0.5),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
        assert!(matches!(
            b.add_edge(0, 5, 0.5),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn rejects_self_loops_and_bad_probabilities() {
        let mut b = UncertainGraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(1, 1, 0.5),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        assert!(matches!(
            b.add_edge(0, 1, 0.0),
            Err(GraphError::InvalidProbability { .. })
        ));
        assert!(matches!(
            b.add_edge(0, 1, -3.0),
            Err(GraphError::InvalidProbability { .. })
        ));
        assert!(matches!(
            b.add_edge(0, 1, 2.0),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn rejects_parallel_edges_in_both_orientations() {
        let mut b = UncertainGraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        assert!(matches!(
            b.add_edge(0, 1, 0.7),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            b.add_edge(1, 0, 0.7),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn add_edge_if_absent_is_idempotent() {
        let mut b = UncertainGraphBuilder::new(3);
        assert!(b.add_edge_if_absent(0, 1, 0.5).unwrap());
        assert!(!b.add_edge_if_absent(1, 0, 0.9).unwrap());
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!((g.edge_probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_ids_are_insertion_order() {
        let mut b = UncertainGraphBuilder::with_capacity(4, 3);
        let e0 = b.add_edge(0, 1, 0.1).unwrap();
        let e1 = b.add_edge(1, 2, 0.2).unwrap();
        let e2 = b.add_edge(2, 3, 0.3).unwrap();
        assert_eq!((e0, e1, e2), (0, 1, 2));
        let g = b.build();
        assert!((g.edge_probability(1) - 0.2).abs() < 1e-12);
        assert_eq!(g.edge_endpoints(2), (2, 3));
    }

    #[test]
    fn ids_beyond_the_u32_endpoint_table_are_refused() {
        // Only edges are added: `build()` would allocate O(n) here.
        let n = (MAX_VERTICES + 10) as usize;
        let big = (MAX_VERTICES + 5) as usize;
        let refused = GraphError::TooManyVertices {
            num_vertices: n,
            max_vertices: MAX_VERTICES,
        };
        let mut b = UncertainGraphBuilder::new(n);
        assert_eq!(b.add_edge(big, 0, 0.5), Err(refused.clone()));
        assert_eq!(b.add_edge(0, big, 0.5), Err(refused.clone()));
        assert_eq!(b.add_edge_if_absent(big, 0, 0.5), Err(refused));
        assert!(!b.contains_edge(big, 0));
        // The pair the id would wrap to is still new, and ids that fit the
        // table are accepted.
        assert_eq!(b.add_edge(5, 0, 0.5), Ok(0));
        assert!(!b.contains_edge(big, 0));
        let top = (MAX_VERTICES - 1) as usize;
        assert_eq!(b.add_edge(top, 0, 0.5), Ok(1));
        assert!(b.contains_edge(0, top));
        assert_eq!(b.num_edges(), 2);

        // On an ordinary builder such ids are out of range, never aliases.
        let mut small = UncertainGraphBuilder::new(3);
        small.add_edge(0, 1, 0.5).unwrap();
        let alias = (MAX_VERTICES + 1) as usize;
        assert!(!small.contains_edge(alias, 0));
        assert_eq!(
            small.add_edge_if_absent(alias, 0, 0.5),
            Err(GraphError::VertexOutOfRange {
                vertex: alias,
                num_vertices: 3,
            })
        );
    }

    #[test]
    fn contains_edge_tracks_insertions() {
        let mut b = UncertainGraphBuilder::new(4);
        assert!(!b.contains_edge(0, 1));
        b.add_edge(0, 1, 0.3).unwrap();
        assert!(b.contains_edge(0, 1));
        assert!(b.contains_edge(1, 0));
        assert!(!b.contains_edge(2, 3));
    }
}
