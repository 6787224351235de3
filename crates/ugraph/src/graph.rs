//! The [`UncertainGraph`] type: a compact, CSR-backed undirected graph in
//! which every edge carries an existence probability in `(0, 1]`.

use crate::error::{validate_probability, GraphError};

/// Index of a vertex. Vertices are always the dense range `0..num_vertices()`.
pub type VertexId = usize;

/// Index of an edge. Edges are the dense range `0..num_edges()` in insertion
/// order; the identity of an edge is stable for the lifetime of the graph.
pub type EdgeId = usize;

/// Largest vertex count a graph may have: vertex ids are stored as `u32`,
/// so every id of a graph with at most `2^32` vertices fits.
pub const MAX_VERTICES: u64 = 1 << 32;

/// A borrowed view of a single uncertain edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Identifier of the edge inside its graph.
    pub id: EdgeId,
    /// Smaller endpoint as stored (construction order, not sorted).
    pub u: VertexId,
    /// Other endpoint.
    pub v: VertexId,
    /// Existence probability in `(0, 1]`.
    pub p: f64,
}

/// An undirected uncertain graph `G = (V, E, p)`.
///
/// * Vertices are the dense integer range `0..n`.
/// * Edges are simple (no self loops, no parallel edges) and undirected.
/// * Every edge has a probability of existence in `(0, 1]`.
///
/// Internally the graph stores a flat edge table plus a CSR adjacency
/// structure (offsets + packed `(neighbour, edge)` pairs) so that
/// neighbourhood iteration is cache friendly and edge-probability lookups are
/// O(1).  A graph is immutable once built: every sparsifier keeps its
/// probability assignment in its own arrays and materialises the result as
/// a new graph ([`UncertainGraph::subgraph_with_probabilities`]).
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainGraph {
    num_vertices: usize,
    /// Endpoints of every edge, `edge_endpoints[e] = (u, v)`.
    endpoints: Vec<(u32, u32)>,
    /// Probability of every edge.
    probabilities: Vec<f64>,
    /// CSR offsets: adjacency of vertex `u` is `adj[offsets[u]..offsets[u+1]]`.
    offsets: Vec<usize>,
    /// Packed adjacency entries `(neighbour, edge id)`.
    adj: Vec<(u32, u32)>,
}

impl UncertainGraph {
    /// Builds a graph directly from an edge list.
    ///
    /// This is a convenience wrapper around [`crate::UncertainGraphBuilder`];
    /// it performs the same validation (vertex range, probability range, no
    /// self loops, no duplicates), and refuses a vertex count above
    /// [`MAX_VERTICES`] before allocating anything.  The builder is sized
    /// from the iterator's lower size bound, capped at the edge count of a
    /// simple graph on `num_vertices` vertices.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, f64)>,
    {
        if num_vertices as u64 > MAX_VERTICES {
            return Err(GraphError::TooManyVertices {
                num_vertices,
                max_vertices: MAX_VERTICES,
            });
        }
        let edges = edges.into_iter();
        let max_edges = num_vertices.saturating_mul(num_vertices.saturating_sub(1)) / 2;
        let mut builder = crate::builder::UncertainGraphBuilder::with_capacity(
            num_vertices,
            edges.size_hint().0.min(max_edges),
        );
        for (u, v, p) in edges {
            builder.add_edge(u, v, p)?;
        }
        Ok(builder.build())
    }

    /// Internal constructor used by the builder and the subgraph paths:
    /// inputs are already validated (every endpoint below `num_vertices`, no
    /// self loop, no repeated pair, every probability in `(0, 1]`).
    pub(crate) fn from_validated_parts(
        num_vertices: usize,
        endpoints: Vec<(u32, u32)>,
        probabilities: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(endpoints.len(), probabilities.len());
        // Build CSR adjacency with a counting pass followed by a fill pass.
        let mut degree = vec![0usize; num_vertices];
        for &(u, v) in &endpoints {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0usize);
        for d in &degree {
            let last = *offsets.last().expect("offsets non-empty");
            offsets.push(last + d);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(0u32, 0u32); endpoints.len() * 2];
        for (e, &(u, v)) in endpoints.iter().enumerate() {
            adj[cursor[u as usize]] = (v, e as u32);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (u, e as u32);
            cursor[v as usize] += 1;
        }
        UncertainGraph {
            num_vertices,
            endpoints,
            probabilities,
            offsets,
            adj,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Iterator over all vertex identifiers `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices
    }

    /// Iterator over all edges in identifier order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.endpoints
            .iter()
            .zip(self.probabilities.iter())
            .enumerate()
            .map(|(id, (&(u, v), &p))| EdgeRef {
                id,
                u: u as usize,
                v: v as usize,
                p,
            })
    }

    /// Endpoints of every edge, indexed by [`EdgeId`]: `endpoints()[e]` is
    /// the `(u, v)` pair of edge `e`, as stored.
    #[inline]
    pub fn endpoints(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// Endpoints `(u, v)` of edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let (u, v) = self.endpoints[e];
        (u as usize, v as usize)
    }

    /// Probability of edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_probability(&self, e: EdgeId) -> f64 {
        self.probabilities[e]
    }

    /// Slice of all edge probabilities indexed by [`EdgeId`].
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// A deterministic 64-bit structural fingerprint: FNV-1a over the
    /// vertex count, every edge's endpoints in id order, and the **exact
    /// bits** of every probability.  Two graphs fingerprint equal iff they
    /// have the same vertex count and the same edge list (ids, endpoints,
    /// bitwise probabilities) — the identity a deterministic result cache
    /// keys on: equal fingerprints + equal seeds/budgets replay the same
    /// worlds and therefore the same answers, bit for bit.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.num_vertices as u64);
        mix(self.endpoints.len() as u64);
        for (&(u, v), &p) in self.endpoints.iter().zip(&self.probabilities) {
            mix(u64::from(u));
            mix(u64::from(v));
            mix(p.to_bits());
        }
        hash
    }

    /// Degree of `u` in the *support* graph (number of incident edges,
    /// ignoring probabilities).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Expected degree of `u`: the sum of the probabilities of its incident
    /// edges (linearity of expectation).
    pub fn expected_degree(&self, u: VertexId) -> f64 {
        self.neighbors(u).map(|(_, _, p)| p).sum()
    }

    /// Expected degrees of all vertices as a dense vector indexed by vertex.
    pub fn expected_degrees(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.num_vertices];
        for e in self.edges() {
            d[e.u] += e.p;
            d[e.v] += e.p;
        }
        d
    }

    /// Iterator over the neighbourhood of `u`, yielding
    /// `(neighbour, edge id, probability)` triples.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId, f64)> + '_ {
        self.adj[self.offsets[u]..self.offsets[u + 1]]
            .iter()
            .map(move |&(v, e)| (v as usize, e as usize, self.probabilities[e as usize]))
    }

    /// Looks up the edge between `u` and `v`, if any.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u >= self.num_vertices || v >= self.num_vertices {
            return None;
        }
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[self.offsets[a]..self.offsets[a + 1]]
            .iter()
            .find(|&&(w, _)| w as usize == b)
            .map(|&(_, e)| e as usize)
    }

    /// Returns `true` if the edge `(u, v)` exists (in either orientation).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Sum of all edge probabilities, i.e. the expected number of edges of a
    /// sampled possible world.
    pub fn expected_num_edges(&self) -> f64 {
        self.probabilities.iter().sum()
    }

    /// Mean edge probability `E[p_e]`, or 0 for an edgeless graph.
    pub fn mean_edge_probability(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.expected_num_edges() / self.num_edges() as f64
        }
    }

    /// Entropy of the graph, `H(G) = Σ_e H(p_e)` (see [`crate::entropy`]).
    pub fn entropy(&self) -> f64 {
        crate::entropy::graph_entropy(self)
    }

    /// Returns `true` if the *support* graph (every edge present) is
    /// connected.  An empty graph and a single-vertex graph are connected by
    /// convention.
    pub fn support_is_connected(&self) -> bool {
        if self.num_vertices <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_vertices];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (v, _, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.num_vertices
    }

    /// Builds a new uncertain graph over the *same vertex set* containing only
    /// the listed edges (by id), each with a freshly specified probability.
    ///
    /// This is the primitive used by all sparsifiers: the sparsified graph
    /// `G' = (V, E', p')` keeps `V` and selects `E' ⊂ E`.  Edge `i` of the
    /// result is the `i`-th listed edge, with this graph's stored endpoints.
    ///
    /// Returns an error if an edge id is out of range or a probability is
    /// invalid. Duplicated edge ids are rejected as duplicate edges.  Each
    /// item is checked in that order: id range, probability, repeated id.
    ///
    /// No pair is hashed: this graph is simple, so distinct edge ids are
    /// distinct vertex pairs, and one flag per edge of this graph catches a
    /// repeated id.  The errors, and their order, are those of adding the
    /// listed edges to an [`crate::UncertainGraphBuilder`].
    pub fn subgraph_with_probabilities<I>(&self, edges: I) -> Result<UncertainGraph, GraphError>
    where
        I: IntoIterator<Item = (EdgeId, f64)>,
    {
        let edges = edges.into_iter();
        let capacity = edges.size_hint().0.min(self.num_edges());
        let mut endpoints = Vec::with_capacity(capacity);
        let mut probabilities = Vec::with_capacity(capacity);
        let mut listed = vec![false; self.num_edges()];
        for (e, p) in edges {
            let Some(seen) = listed.get_mut(e) else {
                return Err(GraphError::EdgeOutOfRange {
                    edge: e,
                    num_edges: self.num_edges(),
                });
            };
            validate_probability(p)?;
            if std::mem::replace(seen, true) {
                let (u, v) = self.edge_endpoints(e);
                return Err(GraphError::DuplicateEdge { u, v });
            }
            endpoints.push(self.endpoints[e]);
            probabilities.push(p);
        }
        Ok(UncertainGraph::from_validated_parts(
            self.num_vertices,
            endpoints,
            probabilities,
        ))
    }

    /// Builds a new uncertain graph keeping the listed edges with their
    /// *current* probabilities.
    pub fn subgraph_with_edges<I>(&self, edges: I) -> Result<UncertainGraph, GraphError>
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let with_p: Result<Vec<(EdgeId, f64)>, GraphError> = edges
            .into_iter()
            .map(|e| {
                if e >= self.num_edges() {
                    Err(GraphError::EdgeOutOfRange {
                        edge: e,
                        num_edges: self.num_edges(),
                    })
                } else {
                    Ok((e, self.probabilities[e]))
                }
            })
            .collect();
        self.subgraph_with_probabilities(with_p?)
    }

    /// Builds the induced subgraph on a set of vertices, relabelling the kept
    /// vertices to `0..k` in the order given. Returns the new graph along with
    /// the mapping `new id -> old id`.
    pub fn induced_subgraph(
        &self,
        vertices: &[VertexId],
    ) -> Result<(UncertainGraph, Vec<VertexId>), GraphError> {
        let (graph, vertex_map, _) = self.induced_subgraph_with_edges(vertices)?;
        Ok((graph, vertex_map))
    }

    /// [`UncertainGraph::induced_subgraph`] plus the **edge** mapping: the
    /// third component maps every new edge id to the id of the original edge
    /// it was copied from (`new edge id -> old edge id`, in new-id order).
    ///
    /// A vertex listed twice takes its last position; its earlier positions
    /// become isolated vertices.  No pair is hashed: that relabelling is
    /// injective, so the kept edges of this simple graph stay distinct pairs
    /// without self loops, and only the vertex ids need checking.
    pub fn induced_subgraph_with_edges(
        &self,
        vertices: &[VertexId],
    ) -> Result<(UncertainGraph, Vec<VertexId>, Vec<EdgeId>), GraphError> {
        if vertices.len() as u64 > MAX_VERTICES {
            return Err(GraphError::TooManyVertices {
                num_vertices: vertices.len(),
                max_vertices: MAX_VERTICES,
            });
        }
        let mut new_id = vec![usize::MAX; self.num_vertices];
        for (i, &v) in vertices.iter().enumerate() {
            if v >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: self.num_vertices,
                });
            }
            new_id[v] = i;
        }
        let mut endpoints = Vec::new();
        let mut probabilities = Vec::new();
        let mut edge_map = Vec::new();
        for (e, (&(u, v), &p)) in self.endpoints.iter().zip(&self.probabilities).enumerate() {
            let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
            if nu != usize::MAX && nv != usize::MAX {
                // New ids are below `vertices.len() <= MAX_VERTICES`.
                endpoints.push((nu as u32, nv as u32));
                probabilities.push(p);
                edge_map.push(e);
            }
        }
        let graph = UncertainGraph::from_validated_parts(vertices.len(), endpoints, probabilities);
        Ok((graph, vertices.to_vec(), edge_map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-cycle-plus-diagonals example used throughout the paper
    /// (Figure 1(a)): K4 with p = 0.3 everywhere.
    fn figure1a() -> UncertainGraph {
        UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.3),
                (0, 2, 0.3),
                (0, 3, 0.3),
                (1, 2, 0.3),
                (1, 3, 0.3),
                (2, 3, 0.3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = figure1a();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.is_empty());
        assert_eq!(g.vertices().count(), 4);
        assert_eq!(g.edges().count(), 6);
    }

    #[test]
    fn vertex_counts_beyond_u32_ids_are_refused_before_allocating() {
        let too_many = (MAX_VERTICES + 1) as usize;
        assert_eq!(
            UncertainGraph::from_edges(too_many, []),
            Err(GraphError::TooManyVertices {
                num_vertices: too_many,
                max_vertices: MAX_VERTICES,
            })
        );
    }

    #[test]
    fn degrees_and_expected_degrees() {
        let g = figure1a();
        for u in g.vertices() {
            assert_eq!(g.degree(u), 3);
            assert!((g.expected_degree(u) - 0.9).abs() < 1e-12);
        }
        let d = g.expected_degrees();
        assert_eq!(d.len(), 4);
        assert!(d.iter().all(|&x| (x - 0.9).abs() < 1e-12));
    }

    #[test]
    fn expected_degree_sum_equals_twice_probability_mass() {
        let g = UncertainGraph::from_edges(5, [(0, 1, 0.2), (1, 2, 0.9), (3, 4, 0.5)]).unwrap();
        let sum: f64 = g.expected_degrees().iter().sum();
        assert!((sum - 2.0 * g.expected_num_edges()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_enumerates_incident_edges() {
        let g = figure1a();
        let mut ns: Vec<usize> = g.neighbors(0).map(|(v, _, _)| v).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2, 3]);
        for (_, e, p) in g.neighbors(0) {
            assert_eq!(g.edge_probability(e), p);
        }
    }

    #[test]
    fn find_edge_both_orientations() {
        let g = figure1a();
        let e = g.find_edge(2, 3).unwrap();
        assert_eq!(g.find_edge(3, 2), Some(e));
        let (u, v) = g.edge_endpoints(e);
        assert_eq!((u.min(v), u.max(v)), (2, 3));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.find_edge(0, 99), None);
    }

    #[test]
    fn expected_num_edges_and_mean_probability() {
        let g = figure1a();
        assert!((g.expected_num_edges() - 1.8).abs() < 1e-12);
        assert!((g.mean_edge_probability() - 0.3).abs() < 1e-12);
        let empty = UncertainGraph::from_edges(3, []).unwrap();
        assert_eq!(empty.mean_edge_probability(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn support_connectivity() {
        let g = figure1a();
        assert!(g.support_is_connected());
        let disconnected = UncertainGraph::from_edges(4, [(0, 1, 0.5), (2, 3, 0.5)]).unwrap();
        assert!(!disconnected.support_is_connected());
        let single = UncertainGraph::from_edges(1, []).unwrap();
        assert!(single.support_is_connected());
        let empty = UncertainGraph::from_edges(0, []).unwrap();
        assert!(empty.support_is_connected());
    }

    #[test]
    fn subgraph_with_probabilities_keeps_vertex_set() {
        let g = figure1a();
        // Figure 1(b): the sparsified graph keeps half the edges with p = 0.6.
        let kept = vec![
            (g.find_edge(0, 1).unwrap(), 0.6),
            (g.find_edge(1, 2).unwrap(), 0.6),
            (g.find_edge(2, 3).unwrap(), 0.6),
        ];
        let s = g.subgraph_with_probabilities(kept).unwrap();
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 3);
        assert!((s.expected_num_edges() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn subgraph_with_edges_preserves_probabilities() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.25), (1, 2, 0.75)]).unwrap();
        let s = g.subgraph_with_edges([1]).unwrap();
        assert_eq!(s.num_edges(), 1);
        assert!((s.edge_probability(0) - 0.75).abs() < 1e-12);
        assert!(g.subgraph_with_edges([7]).is_err());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = figure1a();
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // triangle 1-2-3
        assert_eq!(map, vec![1, 2, 3]);
        assert!(g.induced_subgraph(&[0, 9]).is_err());
    }

    #[test]
    fn induced_subgraph_with_edges_maps_edge_ids() {
        let g = figure1a();
        let (sub, vmap, emap) = g.induced_subgraph_with_edges(&[1, 2, 3]).unwrap();
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(emap.len(), 3);
        assert_eq!(vmap, vec![1, 2, 3]);
        // Every mapped edge must connect the same global endpoints with the
        // same probability.
        for (local, &global) in emap.iter().enumerate() {
            let (lu, lv) = sub.edge_endpoints(local);
            let (gu, gv) = g.edge_endpoints(global);
            let (lu, lv) = (vmap[lu], vmap[lv]);
            assert_eq!((lu.min(lv), lu.max(lv)), (gu.min(gv), gu.max(gv)));
            assert_eq!(sub.edge_probability(local), g.edge_probability(global));
        }
        // Edge ids are handed out in ascending global-edge order.
        let mut sorted = emap.clone();
        sorted.sort_unstable();
        assert_eq!(emap, sorted);
    }

    #[test]
    fn from_edges_rejects_invalid_input() {
        assert!(UncertainGraph::from_edges(2, [(0, 0, 0.5)]).is_err());
        assert!(UncertainGraph::from_edges(2, [(0, 1, 0.0)]).is_err());
        assert!(UncertainGraph::from_edges(2, [(0, 3, 0.5)]).is_err());
        assert!(UncertainGraph::from_edges(2, [(0, 1, 0.5), (1, 0, 0.6)]).is_err());
        // An endless iterator's size hint must not size the builder.
        assert_eq!(
            UncertainGraph::from_edges(3, std::iter::repeat((0, 1, 0.5))),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    fn fingerprints_identify_the_exact_graph() {
        let build = |p: f64| UncertainGraph::from_edges(3, [(0, 1, p), (1, 2, 0.5)]).unwrap();
        // Stable: rebuilding the same graph reproduces the fingerprint.
        assert_eq!(build(0.9).fingerprint(), build(0.9).fingerprint());
        // Sensitive to probability bits …
        assert_ne!(build(0.9).fingerprint(), build(0.9 + 1e-12).fingerprint());
        // … to endpoints …
        let other = UncertainGraph::from_edges(3, [(0, 2, 0.9), (1, 2, 0.5)]).unwrap();
        assert_ne!(build(0.9).fingerprint(), other.fingerprint());
        // … and to isolated vertices the edge list alone cannot see.
        let padded = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.5)]).unwrap();
        assert_ne!(build(0.9).fingerprint(), padded.fingerprint());
    }
}
