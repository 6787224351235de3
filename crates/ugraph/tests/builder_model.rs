//! `UncertainGraphBuilder` against a model kept here.
//!
//! Seeded streams of `add_edge`, `add_edge_if_absent` and `contains_edge`
//! calls are checked, answer by answer and error variant by error variant,
//! against a `BTreeSet` of accepted pairs.  The streams mix duplicates in
//! both orientations, self loops, out-of-range endpoints and odd
//! probabilities; one family draws ids near `2^32 - 1` and never builds.  A
//! built graph's edges must equal the model's accepted list in order, and
//! every adjacency list the order the CSR fill gives it.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::graph::MAX_VERTICES;
use uncertain_graph::{GraphError, UncertainGraphBuilder, VertexId};

/// Probabilities drawn besides uniform ones in `(0, 1]`: three invalid
/// values, NaN, and the two ends of the valid range.
const ODD_PROBABILITIES: [f64; 6] = [0.0, -1.0, 1.5, f64::NAN, 1.0, 5e-324];

/// The builder's contract, written out with a `BTreeSet`.
struct Model {
    num_vertices: usize,
    pairs: BTreeSet<(VertexId, VertexId)>,
    accepted: Vec<(VertexId, VertexId, f64)>,
}

impl Model {
    fn new(num_vertices: usize) -> Self {
        Model {
            num_vertices,
            pairs: BTreeSet::new(),
            accepted: Vec::new(),
        }
    }

    fn pair(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        (u.min(v), u.max(v))
    }

    /// Vertex range (and the `u32` id table), then the self loop.
    fn check_vertices(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        for vertex in [u, v] {
            if vertex >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex,
                    num_vertices: self.num_vertices,
                });
            }
            if vertex as u64 >= MAX_VERTICES {
                return Err(GraphError::TooManyVertices {
                    num_vertices: self.num_vertices,
                    max_vertices: MAX_VERTICES,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok(())
    }

    fn check_probability(p: f64) -> Result<(), GraphError> {
        if p > 0.0 && p <= 1.0 {
            Ok(())
        } else {
            Err(GraphError::InvalidProbability { value: p })
        }
    }

    fn accept(&mut self, u: VertexId, v: VertexId, p: f64) {
        self.pairs.insert(Self::pair(u, v));
        self.accepted.push((u, v, p));
    }

    fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<usize, GraphError> {
        self.check_vertices(u, v)?;
        Self::check_probability(p)?;
        if self.contains_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.accept(u, v, p);
        Ok(self.accepted.len() - 1)
    }

    fn add_edge_if_absent(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<bool, GraphError> {
        self.check_vertices(u, v)?;
        if self.contains_edge(u, v) {
            return Ok(false);
        }
        Self::check_probability(p)?;
        self.accept(u, v, p);
        Ok(true)
    }

    fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.pairs.contains(&Self::pair(u, v))
    }

    /// Adjacency in CSR fill order: edges by id, `u`'s entry then `v`'s.
    fn adjacency(&self) -> Vec<Vec<(VertexId, usize)>> {
        let mut adj = vec![Vec::new(); self.num_vertices];
        for (e, &(u, v, _)) in self.accepted.iter().enumerate() {
            adj[u].push((v, e));
            adj[v].push((u, e));
        }
        adj
    }
}

/// Compares two answers by their `Debug` text, which tells error variants
/// and fields apart and prints NaN equal to itself.
fn assert_same<T: std::fmt::Debug>(got: &T, want: &T, call: usize, what: &str) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "call {call}: {what}"
    );
}

/// One seeded stream of `calls` calls on ids in `low..high`, checked call by
/// call; returns the builder and the model for the caller's final checks.
fn run_stream(
    seed: u64,
    num_vertices: usize,
    (low, high): (usize, usize),
    calls: usize,
) -> (UncertainGraphBuilder, Model) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = UncertainGraphBuilder::new(num_vertices);
    let mut model = Model::new(num_vertices);
    for call in 0..calls {
        let (mut u, mut v) = (rng.gen_range(low..high), rng.gen_range(low..high));
        match rng.gen_range(0..10) {
            // A duplicate, in either orientation.
            0..=2 if !model.accepted.is_empty() => {
                let (a, b, _) = model.accepted[rng.gen_range(0..model.accepted.len())];
                (u, v) = if rng.gen::<bool>() { (a, b) } else { (b, a) };
            }
            3 => v = u,
            // One endpoint just past the range.
            4 => v = num_vertices + rng.gen_range(0..3usize),
            _ => {}
        }
        let p = if rng.gen_range(0..4) == 0 {
            ODD_PROBABILITIES[rng.gen_range(0..ODD_PROBABILITIES.len())]
        } else {
            1.0 - rng.gen::<f64>()
        };
        let what = format!("({u}, {v}, {p:?})");
        match rng.gen_range(0..3) {
            0 => assert_same(
                &builder.add_edge(u, v, p),
                &model.add_edge(u, v, p),
                call,
                &what,
            ),
            1 => assert_same(
                &builder.add_edge_if_absent(u, v, p),
                &model.add_edge_if_absent(u, v, p),
                call,
                &what,
            ),
            _ => assert_same(
                &builder.contains_edge(u, v),
                &model.contains_edge(u, v),
                call,
                &what,
            ),
        }
        assert_eq!(builder.num_edges(), model.accepted.len(), "call {call}");
    }
    (builder, model)
}

#[test]
fn builder_answers_and_graphs_match_the_model() {
    for (seed, n) in [(1, 1), (2, 2), (3, 3), (4, 6), (5, 12), (6, 40), (7, 200)] {
        let (builder, model) = run_stream(seed, n, (0, n + 1), 3_000);
        let g = builder.build();
        assert_eq!(g.num_vertices(), n);
        let edges: Vec<(VertexId, VertexId, u64)> =
            g.edges().map(|e| (e.u, e.v, e.p.to_bits())).collect();
        let accepted: Vec<(VertexId, VertexId, u64)> = model
            .accepted
            .iter()
            .map(|&(u, v, p)| (u, v, p.to_bits()))
            .collect();
        assert_eq!(edges, accepted, "seed {seed}");
        for (u, want) in model.adjacency().iter().enumerate() {
            let got: Vec<(VertexId, usize)> = g.neighbors(u).map(|(v, e, _)| (v, e)).collect();
            assert_eq!(&got, want, "seed {seed}, neighbors of {u}");
        }
    }
}

#[test]
fn ids_near_the_u32_limit_match_the_model_without_building() {
    let max = MAX_VERTICES as usize;
    // A full-size builder, and one made for more vertices than ids fit.
    for (seed, n) in [(11, max), (12, max + 4)] {
        let (builder, model) = run_stream(seed, n, (max - 8, max + 2), 3_000);
        assert!(model.accepted.len() > 10, "seed {seed}: too few accepted");
        assert_eq!(builder.num_edges(), model.accepted.len());
        for &(u, v, _) in &model.accepted {
            assert!(builder.contains_edge(v, u));
        }
    }
}
