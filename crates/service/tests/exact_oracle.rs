//! Ground truth for every query kind: on graphs of at most 12 edges,
//! [`enumerate_worlds`] walks all `2^|E|` weighted worlds and gives the
//! exact expectation of every count answer a plan reports — edge
//! frequencies, the degree histogram, every [`ConnectivityEstimate`] field
//! and the pair reliabilities (the paper's `RL` query) — of the hop
//! distances behind the pair (`SP`) and k-NN answers, and of every
//! vertex's PageRank (`PR`) and local clustering coefficient (`CC`).  The
//! per-world truth is computed here, not by the kernels under test:
//! distances by a BFS over the world's present edges, PageRank as the
//! exact fixed point of a dense linear solve, clustering from triangle
//! counts.
//!
//! A k-NN query with `k = |V| − 1` cannot cut any reached vertex, so its
//! answer carries every vertex's reachability and, through
//! `expected_distance × reachability`, its distance mass
//! `E[d · 1{reachable}]`; a pair's `mean_distance × reliability` is the same
//! mass for that pair.  A vertex missing from the answer, or a pair never
//! connected, reads as 0.
//!
//! PageRank's truth is the fixed point of the kernel's own definition —
//! teleport `(1 − d)/n`, the dangling (degree-0) vertices' mass spread
//! uniformly, and one share `d · r(u)/deg(u)` per arc `u → v` — solved
//! exactly rather than iterated, so the kernel's stopping error counts
//! against it.
//!
//! Each per-world value lies in a known range `[lo, hi]`, so by Hoeffding's
//! inequality a mean over `N` independent worlds misses its expectation by
//! more than `(hi − lo) · √(ln(2/δ) / (2N))` with probability at most `δ`.
//! Every plan runs 20 000 worlds under both sampling modes, one and two
//! threads and three fixed seeds, and every estimate must land inside that
//! half-width at `δ = 1e-9`.

use uncertain_graph::worlds::enumerate_worlds;
use uncertain_graph::UncertainGraph;

use graph_algos::pagerank::PageRankConfig;
use ugs_queries::knn::Neighbor;
use ugs_queries::{ConnectivityEstimate, PairQueryResult, SampleMethod};
use ugs_service::{QueryPlan, QueryResult, QuerySpec};

const WORLDS: usize = 20_000;
const DELTA: f64 = 1e-9;
const SEEDS: [u64; 3] = [1, 0x5eed, 9_007_199_254_740_991];
const MODES: [SampleMethod; 2] = [SampleMethod::Skip, SampleMethod::PerEdge];

/// The Hoeffding half-width of a mean of `WORLDS` values spanning `range`.
fn half_width(range: f64) -> f64 {
    range * ((2.0 / DELTA).ln() / (2.0 * WORLDS as f64)).sqrt()
}

/// Exact expectations of every count answer, by world enumeration.
struct Exact {
    edge_frequency: Vec<f64>,
    degree_histogram: Vec<f64>,
    components: f64,
    largest_component: f64,
    probability_connected: f64,
    isolated_fraction: f64,
    reliability: Vec<f64>,
    /// `E[d(u, v) · 1{u ~ v}]` per pair.
    pair_distance_mass: Vec<f64>,
    /// Probability that each vertex is reachable from the k-NN source.
    reachability: Vec<f64>,
    /// `E[d(source, v) · 1{source ~ v}]` per vertex.
    distance_mass: Vec<f64>,
    /// Expected PageRank per vertex, at the default damping.
    pagerank: Vec<f64>,
    /// Expected local clustering coefficient per vertex.
    clustering: Vec<f64>,
}

/// Hop distances from `source` over an adjacency list, `None` where
/// unreachable.
fn hops(adjacency: &[Vec<usize>], source: usize) -> Vec<Option<usize>> {
    let mut distance = vec![None; adjacency.len()];
    distance[source] = Some(0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let next = distance[u].map(|d| d + 1);
        for &v in &adjacency[u] {
            if distance[v].is_none() {
                distance[v] = next;
                queue.push_back(v);
            }
        }
    }
    distance
}

/// The exact PageRank of one world: the solution of
/// `r(v) = (1 − d)/n + d · Σ_{deg u = 0} r(u)/n + d · Σ_{u → v} r(u)/deg(u)`
/// by Gaussian elimination with partial pivoting on the dense `n × n`
/// system `(I − d·M) r = (1 − d)/n`.
fn exact_pagerank(adjacency: &[Vec<usize>], damping: f64) -> Vec<f64> {
    let n = adjacency.len();
    let mut a: Vec<Vec<f64>> = (0..n)
        .map(|v| (0..n).map(|u| f64::from(u8::from(u == v))).collect())
        .collect();
    for (u, neighbours) in adjacency.iter().enumerate() {
        if neighbours.is_empty() {
            for row in &mut a {
                row[u] -= damping / n as f64;
            }
        }
        for &v in neighbours {
            a[v][u] -= damping / neighbours.len() as f64;
        }
    }
    let mut b = vec![(1.0 - damping) / n as f64; n];
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("a non-empty column");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in col + 1..n {
            let factor = a[row][col] / pivot_row[col];
            for (x, p) in a[row].iter_mut().zip(&pivot_row).skip(col) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut rank = vec![0.0; n];
    for row in (0..n).rev() {
        let known: f64 = (row + 1..n).map(|k| a[row][k] * rank[k]).sum();
        rank[row] = (b[row] - known) / a[row][row];
    }
    rank
}

/// The local clustering coefficient of every vertex of one world: the
/// share of its neighbour pairs that are adjacent themselves (each such
/// pair closes one triangle), 0 below degree 2.
fn exact_clustering(adjacency: &[Vec<usize>]) -> Vec<f64> {
    adjacency
        .iter()
        .map(|neighbours| {
            let k = neighbours.len();
            if k < 2 {
                return 0.0;
            }
            let triangles = (0..k)
                .flat_map(|i| (i + 1..k).map(move |j| (neighbours[i], neighbours[j])))
                .filter(|&(v, w)| adjacency[v].contains(&w))
                .count();
            triangles as f64 / (k * (k - 1) / 2) as f64
        })
        .collect()
}

fn exact(g: &UncertainGraph, pairs: &[(usize, usize)], source: usize) -> Exact {
    let n = g.num_vertices();
    let max_degree = (0..n).map(|u| g.degree(u)).max().unwrap_or(0);
    let mut truth = Exact {
        edge_frequency: vec![0.0; g.num_edges()],
        degree_histogram: vec![0.0; max_degree + 1],
        components: 0.0,
        largest_component: 0.0,
        probability_connected: 0.0,
        isolated_fraction: 0.0,
        reliability: vec![0.0; pairs.len()],
        pair_distance_mass: vec![0.0; pairs.len()],
        reachability: vec![0.0; n],
        distance_mass: vec![0.0; n],
        pagerank: vec![0.0; n],
        clustering: vec![0.0; n],
    };
    let damping = PageRankConfig::default().damping;
    let mut total = 0.0;
    enumerate_worlds(g, |world, pr| {
        total += pr;
        let mut degree = vec![0usize; n];
        let mut adjacency = vec![Vec::new(); n];
        for e in world.present_edges() {
            truth.edge_frequency[e] += pr;
            let (u, v) = g.edge_endpoints(e);
            degree[u] += 1;
            degree[v] += 1;
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        for &d in &degree {
            truth.degree_histogram[d] += pr;
        }
        let (labels, count) = world.connected_components(g);
        let mut sizes = vec![0usize; count];
        for &label in &labels {
            sizes[label] += 1;
        }
        truth.components += pr * count as f64;
        truth.largest_component += pr * sizes.iter().copied().max().unwrap_or(0) as f64;
        truth.probability_connected += pr * f64::from(u8::from(count == 1));
        let isolated = degree.iter().filter(|&&d| d == 0).count();
        truth.isolated_fraction += pr * isolated as f64 / n as f64;
        for (r, &(u, v)) in truth.reliability.iter_mut().zip(pairs) {
            if labels[u] == labels[v] {
                *r += pr;
            }
        }
        for (mass, &(u, v)) in truth.pair_distance_mass.iter_mut().zip(pairs) {
            if let Some(d) = hops(&adjacency, u)[v] {
                *mass += pr * d as f64;
            }
        }
        for (v, d) in hops(&adjacency, source).into_iter().enumerate() {
            match d {
                Some(d) if v != source => {
                    truth.reachability[v] += pr;
                    truth.distance_mass[v] += pr * d as f64;
                }
                _ => {}
            }
        }
        for (mean, rank) in truth
            .pagerank
            .iter_mut()
            .zip(exact_pagerank(&adjacency, damping))
        {
            *mean += pr * rank;
        }
        for (mean, cc) in truth
            .clustering
            .iter_mut()
            .zip(exact_clustering(&adjacency))
        {
            *mean += pr * cc;
        }
    })
    .expect("small enough to enumerate");
    assert!(
        (total - 1.0).abs() < 1e-12,
        "world probabilities sum to {total}"
    );
    truth
}

/// Asserts `estimate` lies within the Hoeffding half-width of `exact`.
fn assert_within(estimate: f64, exact: f64, range: f64, what: &str) {
    let bound = half_width(range);
    assert!(
        (estimate - exact).abs() <= bound,
        "{what}: estimate {estimate} vs exact {exact} (|error| {} > half-width {bound})",
        (estimate - exact).abs()
    );
}

/// Runs the four count queries, a k-NN query from `source`, PageRank and
/// clustering over every mode, thread count and seed and checks each
/// answer against the enumerated truth.
fn check(name: &str, g: &UncertainGraph, pairs: &[(usize, usize)], source: usize) {
    assert!(g.num_edges() <= 12, "{name}: the oracle graphs stay small");
    let truth = exact(g, pairs, source);
    let n = g.num_vertices() as f64;
    for mode in MODES {
        for threads in [1, 2] {
            for seed in SEEDS {
                let plan = QueryPlan {
                    graph: None,
                    worlds: WORLDS,
                    threads,
                    shards: 1,
                    mode,
                    seed,
                    precision: None,
                    queries: vec![
                        QuerySpec::EdgeFrequency,
                        QuerySpec::DegreeHistogram,
                        QuerySpec::Connectivity,
                        QuerySpec::PairQueries {
                            pairs: pairs.to_vec(),
                        },
                        QuerySpec::Knn {
                            source,
                            k: g.num_vertices() - 1,
                        },
                        QuerySpec::pagerank(),
                        QuerySpec::Clustering,
                    ],
                };
                let run = format!("{name} {mode:?} threads {threads} seed {seed}");
                let answers: Vec<QueryResult> = plan
                    .execute_detailed(g.clone())
                    .into_iter()
                    .map(|answer| {
                        let answer = answer.unwrap_or_else(|e| panic!("{run}: {e}"));
                        assert_eq!(answer.worlds_used, WORLDS, "{run}");
                        answer.result
                    })
                    .collect();
                let [QueryResult::EdgeFrequency(frequency), QueryResult::DegreeHistogram(histogram), QueryResult::Connectivity(connectivity), QueryResult::PairQueries(pair_answers), QueryResult::Knn(neighbors), QueryResult::PageRank(ranks), QueryResult::Clustering(clustering)] =
                    &answers[..]
                else {
                    panic!("{run}: answers out of plan order");
                };
                check_frequencies(frequency, &truth, &run);
                check_histogram(histogram, &truth, n, &run);
                check_connectivity(connectivity, &truth, n, &run);
                check_pairs(pair_answers, &truth, n, &run);
                check_knn(neighbors, &truth, source, n, &run);
                check_per_vertex(ranks, &truth.pagerank, "PageRank", &run);
                check_per_vertex(clustering, &truth.clustering, "clustering", &run);
            }
        }
    }
}

fn check_frequencies(frequency: &[f64], truth: &Exact, run: &str) {
    assert_eq!(frequency.len(), truth.edge_frequency.len(), "{run}");
    for (e, (&f, &p)) in frequency.iter().zip(&truth.edge_frequency).enumerate() {
        assert_within(f, p, 1.0, &format!("{run}: frequency of edge {e}"));
    }
}

fn check_histogram(histogram: &[f64], truth: &Exact, n: f64, run: &str) {
    // The answer drops trailing zero bins; the missing ones read as zero.
    assert!(histogram.len() <= truth.degree_histogram.len(), "{run}");
    for (d, &exact) in truth.degree_histogram.iter().enumerate() {
        let estimate = histogram.get(d).copied().unwrap_or(0.0);
        assert_within(
            estimate,
            exact,
            n,
            &format!("{run}: vertices of degree {d}"),
        );
    }
}

fn check_connectivity(estimate: &ConnectivityEstimate, truth: &Exact, n: f64, run: &str) {
    assert_eq!(estimate.num_worlds, WORLDS, "{run}");
    assert_within(
        estimate.expected_components,
        truth.components,
        n - 1.0,
        &format!("{run}: expected components"),
    );
    assert_within(
        estimate.expected_largest_component,
        truth.largest_component,
        n - 1.0,
        &format!("{run}: expected largest component"),
    );
    assert_within(
        estimate.probability_connected,
        truth.probability_connected,
        1.0,
        &format!("{run}: probability connected"),
    );
    assert_within(
        estimate.expected_isolated_fraction,
        truth.isolated_fraction,
        1.0,
        &format!("{run}: expected isolated fraction"),
    );
}

fn check_pairs(result: &PairQueryResult, truth: &Exact, n: f64, run: &str) {
    assert_eq!(result.num_worlds, WORLDS, "{run}");
    for (i, &(u, v)) in result.pairs.iter().enumerate() {
        let reliability = result.reliability[i];
        assert_within(
            reliability,
            truth.reliability[i],
            1.0,
            &format!("{run}: reliability of ({u}, {v})"),
        );
        // A never-connected pair has a NaN mean distance and zero mass.
        let mass = if result.connected_worlds[i] == 0 {
            0.0
        } else {
            result.mean_distance[i] * reliability
        };
        assert_within(
            mass,
            truth.pair_distance_mass[i],
            n - 1.0,
            &format!("{run}: distance mass of ({u}, {v})"),
        );
    }
}

fn check_knn(neighbors: &[Neighbor], truth: &Exact, source: usize, n: f64, run: &str) {
    let mut reachability = vec![0.0; truth.reachability.len()];
    let mut distance_mass = vec![0.0; truth.distance_mass.len()];
    for neighbor in neighbors {
        assert_ne!(neighbor.vertex, source, "{run}: the source is no neighbour");
        reachability[neighbor.vertex] = neighbor.reachability;
        distance_mass[neighbor.vertex] = neighbor.expected_distance * neighbor.reachability;
    }
    for v in (0..reachability.len()).filter(|&v| v != source) {
        assert_within(
            reachability[v],
            truth.reachability[v],
            1.0,
            &format!("{run}: reachability of {v} from {source}"),
        );
        assert_within(
            distance_mass[v],
            truth.distance_mass[v],
            n - 1.0,
            &format!("{run}: distance mass of {v} from {source}"),
        );
    }
}

/// Checks a per-vertex answer with values in `[0, 1]` (PageRank,
/// clustering) against its truth.
fn check_per_vertex(estimate: &[f64], truth: &[f64], what: &str, run: &str) {
    assert_eq!(estimate.len(), truth.len(), "{run}: {what}");
    for (v, (&estimate, &exact)) in estimate.iter().zip(truth).enumerate() {
        assert_within(estimate, exact, 1.0, &format!("{run}: {what} of {v}"));
    }
}

#[test]
fn count_queries_match_the_enumerated_expectations_on_a_mixed_graph() {
    // Vertex 7 is isolated, edge (2, 3) is certain, the rest spread from
    // 0.02 to 0.95.
    let g = UncertainGraph::from_edges(
        8,
        [
            (0, 1, 0.9),
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 0, 0.3),
            (3, 4, 0.6),
            (4, 5, 0.2),
            (1, 3, 0.45),
            (0, 2, 0.02),
            (4, 1, 0.75),
            (5, 2, 0.33),
            (6, 5, 0.95),
            (6, 0, 0.1),
        ],
    )
    .unwrap();
    let pairs = [(0, 5), (2, 3), (6, 1), (0, 7), (4, 4), (5, 0)];
    check("mixed", &g, &pairs, 0);
}

#[test]
fn count_queries_match_the_enumerated_expectations_on_figure_1a() {
    // The paper's Figure 1(a): K4 with every edge at 0.3, connected with
    // probability ≈ 0.219.
    let mut edges = Vec::new();
    for u in 0..4 {
        for v in u + 1..4 {
            edges.push((u, v, 0.3));
        }
    }
    let g = UncertainGraph::from_edges(4, edges).unwrap();
    check("figure 1(a)", &g, &[(0, 1), (0, 3), (2, 1)], 0);
}
