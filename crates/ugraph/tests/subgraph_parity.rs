//! The hash-free subgraph paths against builder-based references kept here.
//!
//! `subgraph_with_probabilities` (every sparsifier's materialisation) and
//! `induced_subgraph_with_edges` (forest-fire sampling) build their graphs
//! without an `UncertainGraphBuilder`.  On seeded random graphs they must
//! give what adding the same edges to a builder gives: the same
//! fingerprint, endpoint orientation, adjacency order and edge map, and the
//! same error variant and fields for an out-of-range id, an invalid
//! probability, a repeated id, and a repeated id carrying an invalid
//! probability (the probability is reported first).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uncertain_graph::{EdgeId, GraphError, UncertainGraph, UncertainGraphBuilder, VertexId};

/// The sparsifiers' materialisation, through a builder.
fn reference_subgraph(
    g: &UncertainGraph,
    edges: &[(EdgeId, f64)],
) -> Result<UncertainGraph, GraphError> {
    let mut builder = UncertainGraphBuilder::new(g.num_vertices());
    for &(e, p) in edges {
        if e >= g.num_edges() {
            return Err(GraphError::EdgeOutOfRange {
                edge: e,
                num_edges: g.num_edges(),
            });
        }
        let (u, v) = g.edge_endpoints(e);
        builder.add_edge(u, v, p)?;
    }
    Ok(builder.build())
}

type Induced = (UncertainGraph, Vec<VertexId>, Vec<EdgeId>);

/// The induced subgraph, through a builder.
fn reference_induced(g: &UncertainGraph, vertices: &[VertexId]) -> Result<Induced, GraphError> {
    let mut new_id = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in vertices.iter().enumerate() {
        if v >= g.num_vertices() {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: g.num_vertices(),
            });
        }
        new_id[v] = i;
    }
    let mut builder = UncertainGraphBuilder::new(vertices.len());
    let mut edge_map = Vec::new();
    for e in g.edges() {
        let (nu, nv) = (new_id[e.u], new_id[e.v]);
        if nu != usize::MAX && nv != usize::MAX {
            builder.add_edge(nu, nv, e.p)?;
            edge_map.push(e.id);
        }
    }
    Ok((builder.build(), vertices.to_vec(), edge_map))
}

/// A random simple graph with both edge orientations and probabilities
/// in `(0, 1]`.
fn random_graph(rng: &mut SmallRng, n: usize, m: usize) -> UncertainGraph {
    let mut builder = UncertainGraphBuilder::new(n);
    for _ in 0..m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            builder
                .add_edge_if_absent(u, v, 1.0 - rng.gen::<f64>())
                .unwrap();
        }
    }
    builder.build()
}

fn assert_same_graph(got: &UncertainGraph, want: &UncertainGraph, context: &str) {
    assert_eq!(got.fingerprint(), want.fingerprint(), "{context}");
    assert_eq!(got.num_vertices(), want.num_vertices(), "{context}");
    assert_eq!(got.endpoints(), want.endpoints(), "{context}");
    for u in want.vertices() {
        let adjacency = |g: &UncertainGraph| -> Vec<(VertexId, EdgeId, u64)> {
            g.neighbors(u)
                .map(|(v, e, p)| (v, e, p.to_bits()))
                .collect()
        };
        assert_eq!(adjacency(got), adjacency(want), "{context}, vertex {u}");
    }
}

/// Errors compare by `Debug` text, which prints NaN equal to itself.
fn assert_same_error(got: &GraphError, want: &GraphError, context: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{context}");
}

fn check_subgraph(g: &UncertainGraph, edges: &[(EdgeId, f64)], context: &str) {
    let got = g.subgraph_with_probabilities(edges.iter().copied());
    match (got, reference_subgraph(g, edges)) {
        (Ok(got), Ok(want)) => assert_same_graph(&got, &want, context),
        (Err(got), Err(want)) => assert_same_error(&got, &want, context),
        (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
    }
}

fn check_induced(g: &UncertainGraph, vertices: &[VertexId], context: &str) {
    match (
        g.induced_subgraph_with_edges(vertices),
        reference_induced(g, vertices),
    ) {
        (Ok(got), Ok(want)) => {
            assert_same_graph(&got.0, &want.0, context);
            assert_eq!(got.1, want.1, "{context}: vertex map");
            assert_eq!(got.2, want.2, "{context}: edge map");
            let (graph, vertex_map) = g.induced_subgraph(vertices).unwrap();
            assert_same_graph(&graph, &want.0, context);
            assert_eq!(vertex_map, want.1, "{context}: induced_subgraph map");
        }
        (Err(got), Err(want)) => {
            assert_same_error(&got, &want, context);
            assert_same_error(&g.induced_subgraph(vertices).unwrap_err(), &want, context);
        }
        (got, want) => panic!("{context}: got {got:?}, want {want:?}"),
    }
}

/// A random selection of distinct edge ids in random order, each with a
/// fresh probability in `(0, 1]` (now and then exactly 1 or the smallest
/// subnormal), as a sparsifier hands it over.
fn random_selection(rng: &mut SmallRng, g: &UncertainGraph) -> Vec<(EdgeId, f64)> {
    let mut ids: Vec<EdgeId> = (0..g.num_edges()).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids.truncate(rng.gen_range(0..=g.num_edges()));
    ids.into_iter()
        .map(|e| {
            let p = match rng.gen_range(0..10) {
                0 => 1.0,
                1 => 5e-324,
                _ => 1.0 - rng.gen::<f64>(),
            };
            (e, p)
        })
        .collect()
}

#[test]
fn subgraph_with_probabilities_matches_the_builder() {
    let mut rng = SmallRng::seed_from_u64(0x5EB6);
    for round in 0..60 {
        let n = rng.gen_range(2..60);
        let m = rng.gen_range(0..4 * n);
        let g = random_graph(&mut rng, n, m);
        let selection = random_selection(&mut rng, &g);
        check_subgraph(&g, &selection, &format!("round {round}: valid"));
        if selection.is_empty() {
            continue;
        }
        let at = rng.gen_range(0..selection.len());
        let (e, _) = selection[at];

        let mut out_of_range = selection.clone();
        let far = g.num_edges() + rng.gen_range(0..3usize);
        out_of_range.insert(at, (far, 0.5));
        check_subgraph(&g, &out_of_range, &format!("round {round}: id {far}"));

        for bad in [0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            let mut invalid = selection.clone();
            invalid[at].1 = bad;
            check_subgraph(&g, &invalid, &format!("round {round}: p {bad}"));

            // A repeated id with an invalid probability: the probability
            // is reported, not the repeat.
            let mut repeated_invalid = selection.clone();
            repeated_invalid.push((e, bad));
            check_subgraph(
                &g,
                &repeated_invalid,
                &format!("round {round}: repeated {e} with p {bad}"),
            );
        }

        let mut repeated = selection.clone();
        repeated.push((e, 0.25));
        check_subgraph(&g, &repeated, &format!("round {round}: repeated {e}"));

        // An out-of-range id after a repeat: the repeat is reported.
        repeated.push((g.num_edges(), 0.5));
        check_subgraph(&g, &repeated, &format!("round {round}: repeat first"));
    }
}

#[test]
fn induced_subgraph_with_edges_matches_the_builder() {
    let mut rng = SmallRng::seed_from_u64(0x1D5C);
    for round in 0..60 {
        let n = rng.gen_range(1..60);
        let m = rng.gen_range(0..4 * n);
        let g = random_graph(&mut rng, n, m);
        let mut vertices: Vec<VertexId> = (0..n).collect();
        for i in (1..n).rev() {
            vertices.swap(i, rng.gen_range(0..=i));
        }
        vertices.truncate(rng.gen_range(0..=n));
        check_induced(&g, &vertices, &format!("round {round}: subset"));
        check_induced(&g, &[], &format!("round {round}: empty"));
        if vertices.is_empty() {
            continue;
        }

        // A vertex listed twice keeps its last position.
        let mut twice = vertices.clone();
        let again = twice[rng.gen_range(0..twice.len())];
        twice.insert(rng.gen_range(0..=twice.len()), again);
        check_induced(&g, &twice, &format!("round {round}: {again} twice"));

        let mut out_of_range = vertices.clone();
        out_of_range.insert(
            rng.gen_range(0..=vertices.len()),
            n + rng.gen_range(0..3usize),
        );
        check_induced(&g, &out_of_range, &format!("round {round}: out of range"));
    }
}

#[test]
fn induced_subgraph_with_a_vertex_listed_twice() {
    // A triangle plus a pendant edge; vertex 1 is listed first and last.
    let g = UncertainGraph::from_edges(4, [(0, 1, 0.3), (2, 1, 0.6), (0, 2, 0.9), (2, 3, 0.2)])
        .unwrap();
    let (sub, map) = g.induced_subgraph(&[1, 2, 0, 1]).unwrap();
    assert_eq!(map, vec![1, 2, 0, 1]);
    assert_eq!(sub.num_vertices(), 4);
    // Vertex 1 lives at position 3; position 0 is isolated.
    assert_eq!(sub.endpoints(), &[(2, 3), (1, 3), (2, 1)]);
    assert_eq!(sub.degree(0), 0);
    let (_, _, edge_map) = g.induced_subgraph_with_edges(&[1, 2, 0, 1]).unwrap();
    assert_eq!(edge_map, vec![0, 1, 2]);
}
