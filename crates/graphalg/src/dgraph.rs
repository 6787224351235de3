//! Unweighted deterministic graphs in CSR form.
//!
//! A [`DeterministicGraph`] is the materialisation of one possible world of
//! an uncertain graph (or any plain undirected graph).  The Monte-Carlo query
//! engine builds one per sampled world and runs classical algorithms
//! (BFS, PageRank, clustering coefficient, …) on it.

use uncertain_graph::{PossibleWorld, UncertainGraph};

/// An undirected, unweighted graph in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicGraph {
    num_vertices: usize,
    num_edges: usize,
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl DeterministicGraph {
    /// Builds a graph from an explicit undirected edge list.  Self loops and
    /// duplicate edges are kept as provided (the caller is responsible for
    /// simplicity if required).
    pub fn from_edges(num_vertices: usize, edges: &[(usize, usize)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(u, v) in edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0);
        for d in &degree {
            let last = *offsets.last().expect("non-empty");
            offsets.push(last + d);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; edges.len() * 2];
        for &(u, v) in edges {
            neighbors[cursor[u]] = v as u32;
            cursor[u] += 1;
            neighbors[cursor[v]] = u as u32;
            cursor[v] += 1;
        }
        DeterministicGraph {
            num_vertices,
            num_edges: edges.len(),
            offsets,
            neighbors,
        }
    }

    /// Materialises the possible world `world` of the uncertain graph `g`.
    pub fn from_world(g: &UncertainGraph, world: &PossibleWorld) -> Self {
        let edges: Vec<(usize, usize)> =
            world.present_edges().map(|e| g.edge_endpoints(e)).collect();
        Self::from_edges(g.num_vertices(), &edges)
    }

    /// Materialises the *support* of `g` (every edge present).
    pub fn support(g: &UncertainGraph) -> Self {
        let edges: Vec<(usize, usize)> = g.edges().map(|e| (e.u, e.v)).collect();
        Self::from_edges(g.num_vertices(), &edges)
    }

    /// Creates an empty graph whose internal buffers are pre-sized for any
    /// world of `g` (`|V| + 1` offsets, `2|E|` adjacency entries), so that
    /// later [`DeterministicGraph::materialize_from_endpoints`] calls with
    /// `g`'s vertex count never allocate.
    pub fn with_capacity_for(g: &UncertainGraph) -> Self {
        DeterministicGraph {
            num_vertices: 0,
            num_edges: 0,
            offsets: Vec::with_capacity(g.num_vertices() + 1),
            neighbors: Vec::with_capacity(2 * g.num_edges()),
        }
    }

    /// Rebuilds `self` in place as the world over `num_vertices` vertices
    /// whose present edges have the endpoints `pairs` (`pairs[i]` are the
    /// endpoints of the `i`-th present edge).
    ///
    /// Cost is `O(|V| + |pairs|)`: a degree-count pass, prefix sums and a
    /// fill pass, all scanning `pairs` sequentially.  The CSR is compacted
    /// into `self`'s existing buffers, so steady-state materialisation
    /// performs **zero** heap allocations.  The adjacency of every vertex
    /// lists neighbours in the order the pairs are given — pairs in
    /// ascending edge-id order reproduce the exact layout of
    /// [`DeterministicGraph::from_world`].
    pub fn materialize_from_endpoints(&mut self, num_vertices: usize, pairs: &[(u32, u32)]) {
        let n = num_vertices;
        let k = pairs.len();
        self.num_vertices = n;
        self.num_edges = k;
        // Degree-count pass into offsets[1..], then prefix sums: offsets[u]
        // becomes the start of u's range (and doubles as the fill cursor).
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in pairs {
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;
        // offsets[1..=n] now hold the range starts; use them as cursors.
        self.neighbors.resize(2 * k, 0);
        for &(u, v) in pairs {
            let cu = self.offsets[u as usize + 1];
            self.neighbors[cu] = v;
            self.offsets[u as usize + 1] = cu + 1;
            let cv = self.offsets[v as usize + 1];
            self.neighbors[cv] = u;
            self.offsets[v as usize + 1] = cv + 1;
        }
        // After the fill, offsets[u + 1] has advanced to the end of u's
        // range — exactly the CSR offset array.
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Neighbourhood of `u` as a slice.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors[self.offsets[u]..self.offsets[u + 1]]
            .iter()
            .map(|&v| v as usize)
    }

    /// Neighbourhood of `u` as the raw `u32` slice (used by hot loops).
    #[inline]
    pub fn neighbor_slice(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Arcs the adjacency buffer holds without reallocating: a bound on the
    /// arcs of every world later materialised into these recycled buffers.
    pub(crate) fn arc_capacity(&self) -> usize {
        self.neighbors.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_graph::UncertainGraph;

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.neighbor_slice(2), &[1, 3]);
    }

    #[test]
    fn from_world_keeps_only_present_edges() {
        let ug = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let world = uncertain_graph::PossibleWorld::new(vec![true, false]);
        let g = DeterministicGraph::from_world(&ug, &world);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn support_keeps_all_edges() {
        let ug = UncertainGraph::from_edges(3, [(0, 1, 0.2), (1, 2, 0.2), (0, 2, 0.2)]).unwrap();
        let g = DeterministicGraph::support(&ug);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn empty_graph() {
        let g = DeterministicGraph::from_edges(2, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(1).count(), 0);
    }

    /// Exhaustively checks that in-place materialisation agrees with
    /// `from_world` on all 2^|E| worlds of a small graph.
    #[test]
    fn all_materialisation_paths_agree_with_from_world() {
        let ug = UncertainGraph::from_edges(
            5,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (2, 3, 0.5),
                (3, 4, 0.5),
                (0, 2, 0.5),
                (1, 4, 0.5),
            ],
        )
        .unwrap();
        let m = ug.num_edges();
        let mut from_endpoints = DeterministicGraph::with_capacity_for(&ug);
        for bits in 0..(1u32 << m) {
            let mask: Vec<bool> = (0..m).map(|e| (bits >> e) & 1 == 1).collect();
            let pairs: Vec<(u32, u32)> = (0..m)
                .filter(|&e| mask[e])
                .map(|e| ug.endpoints()[e])
                .collect();
            let reference =
                DeterministicGraph::from_world(&ug, &uncertain_graph::PossibleWorld::new(mask));
            from_endpoints.materialize_from_endpoints(ug.num_vertices(), &pairs);
            // Ascending present order ⇒ the layout matches from_world
            // exactly, adjacency order included.
            assert_eq!(from_endpoints, reference, "world {bits:#b}");
        }
    }

    /// The buffer-reuse contract: materialising a large world after a small
    /// one (and vice versa) leaves no stale state behind.
    #[test]
    fn materialisation_reuse_resets_previous_world() {
        let ug =
            UncertainGraph::from_edges(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.5)])
                .unwrap();
        let n = ug.num_vertices();
        let pairs = ug.endpoints();
        let mut world = DeterministicGraph::with_capacity_for(&ug);
        world.materialize_from_endpoints(n, pairs);
        assert_eq!(world.num_edges(), 4);
        assert_eq!(world.degree(0), 2);
        world.materialize_from_endpoints(n, &pairs[1..2]);
        assert_eq!(world.num_edges(), 1);
        assert_eq!(world.degree(0), 0);
        assert_eq!(world.neighbors(1).collect::<Vec<_>>(), vec![2]);
        world.materialize_from_endpoints(n, &pairs[3..]);
        assert_eq!(world.num_edges(), 1);
        assert_eq!(world.neighbors(0).collect::<Vec<_>>(), vec![3]);
    }
}
