//! Optimal probability assignment for `Δ1` (Section 4.1, Theorem 1).
//!
//! Lemma 1 shows an optimal assignment never exceeds the original expected
//! degrees, so minimising `Δ1 = Σ_u |d_u − d'_u|` over a fixed backbone is
//! equivalent to the LP
//!
//! ```text
//!   maximise   Σ_e p'_e
//!   subject to A_b p' ≤ d      (incidence matrix of the backbone)
//!              0 ≤ p'_e ≤ 1
//! ```
//!
//! The paper treats this LP as the accuracy reference (Table 2).  It is a
//! fractional b-matching with unit edge capacities, so a maximum flow on the
//! backbone's bipartite double cover solves it exactly (Schrijver,
//! *Combinatorial Optimization*, ch. 31).  Every vertex `u` the backbone
//! touches is split into `u_L` and `u_R`, with arcs `s → u_L` and `u_R → t`
//! of capacity `d_u`; every backbone edge `(u, v)` adds arcs `u_L → v_R` and
//! `v_L → u_R` of capacity 1.  Averaging an edge's two arc flows gives a
//! feasible `p'` of value half the flow, and any feasible `p'` routed on
//! both arcs is a flow of twice its value, so `Σ p'_e` is half the maximum
//! flow.  Dinic's algorithm (1970) computes that flow; the source side `S`
//! of its final residual graph is a minimum cut, and
//! `y_u = ([u_L ∉ S] + [u_R ∈ S]) / 2` with `z_e` half the number of `e`'s
//! arcs leaving `S` is a dual solution of the same value, which certifies
//! optimality.

use uncertain_graph::{EdgeId, UncertainGraph};

use crate::error::SparsifyError;
use crate::gdb::validate_backbone;

/// Output of the LP probability assignment.
#[derive(Debug, Clone)]
pub struct LpAssignResult {
    /// Final probability of every backbone edge (same order as the input
    /// backbone).  Values may be exactly 0; callers materialising an
    /// uncertain graph floor them at a tiny positive value.
    pub probabilities: Vec<(EdgeId, f64)>,
    /// Number of max-flow phases (level graphs built by Dinic's algorithm).
    pub(crate) phases: usize,
}

/// Computes the `Δ1`-optimal probability assignment for the backbone
/// (Theorem 1).  The backbone edge ids must be distinct and valid for `g`,
/// as for `GDB`.
pub fn lp_assign(g: &UncertainGraph, backbone: &[EdgeId]) -> Result<LpAssignResult, SparsifyError> {
    validate_backbone(g, backbone, &mut Vec::new())?;
    let mut cover = DoubleCover::new(g, backbone);
    let phases = cover.max_flow();
    let probabilities: Vec<(EdgeId, f64)> = backbone
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, cover.edge_flow(i)))
        .collect();
    Ok(LpAssignResult {
        probabilities,
        phases,
    })
}

/// Residual capacities at or below this are treated as saturated.
const RESIDUAL_TOLERANCE: f64 = 1e-12;

/// Level of a node the last breadth-first search did not reach.
const UNREACHED: usize = usize::MAX;

/// The backbone's bipartite double cover as a residual flow network.  With
/// `n = |V|`, node `u` is `u_L`, node `n + u` is `u_R`, `2n` is the source
/// and `2n + 1` the sink.  Arc `a ^ 1` is the reverse of arc `a`; backbone
/// edge `i` owns arcs `4i` (`u_L → v_R`) and `4i + 2` (`v_L → u_R`).
struct DoubleCover {
    /// Head node of every arc.
    head: Vec<usize>,
    /// Residual capacity of every arc.
    residual: Vec<f64>,
    /// The arcs leaving every node, in arc order.
    out: Vec<Vec<usize>>,
    /// Breadth-first level of every node in the current level graph.
    level: Vec<usize>,
    /// Dinic's current-arc pointer of every node (an index into `out`).
    current: Vec<usize>,
}

impl DoubleCover {
    fn new(g: &UncertainGraph, backbone: &[EdgeId]) -> Self {
        let n = g.num_vertices();
        let (source, sink) = (2 * n, 2 * n + 1);
        let mut cover = DoubleCover {
            head: Vec::new(),
            residual: Vec::new(),
            out: vec![Vec::new(); 2 * n + 2],
            level: vec![UNREACHED; 2 * n + 2],
            current: vec![0; 2 * n + 2],
        };
        let mut touched = vec![false; n];
        for &e in backbone {
            let (u, v) = g.edge_endpoints(e);
            cover.add_arc(u, n + v, 1.0);
            cover.add_arc(v, n + u, 1.0);
            touched[u] = true;
            touched[v] = true;
        }
        for (u, &d) in g.expected_degrees().iter().enumerate() {
            if touched[u] {
                cover.add_arc(source, u, d);
                cover.add_arc(n + u, sink, d);
            }
        }
        cover
    }

    fn add_arc(&mut self, from: usize, to: usize, capacity: f64) {
        self.out[from].push(self.head.len());
        self.out[to].push(self.head.len() + 1);
        self.head.extend([to, from]);
        self.residual.extend([capacity, 0.0]);
    }

    fn terminals(&self) -> (usize, usize) {
        (self.level.len() - 2, self.level.len() - 1)
    }

    /// `p'` of backbone edge `i`: the mean of its two arc flows.
    fn edge_flow(&self, i: usize) -> f64 {
        (0.5 * (self.residual[4 * i + 1] + self.residual[4 * i + 3])).clamp(0.0, 1.0)
    }

    /// Runs Dinic's algorithm to a maximum flow; returns the number of
    /// phases.  Afterwards `level[x] != UNREACHED` exactly for the nodes on
    /// the source side of the final residual graph.
    fn max_flow(&mut self) -> usize {
        let mut phases = 0;
        while self.build_levels() {
            phases += 1;
            self.current.fill(0);
            self.blocking_flow();
        }
        phases
    }

    /// Breadth-first levels over arcs with residual capacity; returns
    /// whether the sink is reachable.
    fn build_levels(&mut self) -> bool {
        let (source, sink) = self.terminals();
        self.level.fill(UNREACHED);
        self.level[source] = 0;
        let mut queue = vec![source];
        let mut next = 0;
        while let Some(&x) = queue.get(next) {
            next += 1;
            for &a in &self.out[x] {
                let y = self.head[a];
                if self.residual[a] > RESIDUAL_TOLERANCE && self.level[y] == UNREACHED {
                    self.level[y] = self.level[x] + 1;
                    queue.push(y);
                }
            }
        }
        self.level[sink] != UNREACHED
    }

    /// Saturates the level graph with an iterative augmenting walk: advance
    /// along current arcs, push the bottleneck on reaching the sink and
    /// retreat to the first saturated arc, and drop dead-end arcs.
    fn blocking_flow(&mut self) {
        let (source, sink) = self.terminals();
        let mut path: Vec<usize> = Vec::new();
        let mut x = source;
        loop {
            if x == sink {
                let push = path
                    .iter()
                    .fold(f64::INFINITY, |m, &a| m.min(self.residual[a]));
                for &a in &path {
                    self.residual[a] -= push;
                    self.residual[a ^ 1] += push;
                }
                let saturated = path
                    .iter()
                    .position(|&a| self.residual[a] <= RESIDUAL_TOLERANCE)
                    .expect("the bottleneck arc saturates");
                path.truncate(saturated);
                x = path.last().map_or(source, |&a| self.head[a]);
                continue;
            }
            let out = &self.out[x];
            let skipped = out[self.current[x]..].iter().position(|&a| {
                self.residual[a] > RESIDUAL_TOLERANCE
                    && self.level[self.head[a]] == self.level[x] + 1
            });
            if let Some(skipped) = skipped {
                self.current[x] += skipped;
                let a = out[self.current[x]];
                path.push(a);
                x = self.head[a];
            } else if let Some(a) = path.pop() {
                self.current[x] = out.len();
                x = self.head[a ^ 1];
                self.current[x] += 1;
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{build_backbone, BackboneConfig};
    use crate::discrepancy::{DegreeTracker, DiscrepancyKind};
    use crate::gdb::{gradient_descent_assign, CutRule, GdbConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uncertain_graph::UncertainGraphBuilder;

    /// The LP objective `Σ_e p'_e` the assignment reached.
    fn total_probability(result: &LpAssignResult) -> f64 {
        result.probabilities.iter().map(|&(_, p)| p).sum()
    }

    fn figure2_graph() -> (UncertainGraph, Vec<EdgeId>) {
        let g = UncertainGraph::from_edges(
            4,
            [
                (0, 1, 0.4),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 3, 0.2),
                (2, 3, 0.1),
            ],
        )
        .unwrap();
        (g, vec![2, 3, 4])
    }

    /// A ring plus random chords, shaped like `emd::tests::random_graph`;
    /// `m` is capped at the complete graph's edge count.
    fn random_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = UncertainGraphBuilder::new(n);
        let m = m.min(n * (n - 1) / 2);
        let mut added = 0;
        for u in 0..n {
            let p = 0.1 + 0.8 * rng.gen::<f64>();
            added += usize::from(b.add_edge_if_absent(u, (u + 1) % n, p).unwrap());
        }
        while added < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v
                && b.add_edge_if_absent(u, v, 0.05 + 0.9 * rng.gen::<f64>())
                    .unwrap()
            {
                added += 1;
            }
        }
        b.build()
    }

    fn delta1(g: &UncertainGraph, assignment: &[(EdgeId, f64)]) -> f64 {
        let mut tracker = DegreeTracker::new(g, DiscrepancyKind::Absolute);
        for &(e, p) in assignment {
            let (u, v) = g.edge_endpoints(e);
            tracker.apply_edge_change(u, v, 0.0, p);
        }
        tracker.delta1()
    }

    #[test]
    fn lp_solution_respects_degree_caps_and_bounds() {
        let (g, backbone) = figure2_graph();
        let result = lp_assign(&g, &backbone).unwrap();
        assert_eq!(result.probabilities.len(), 3);
        let degrees = g.expected_degrees();
        let mut new_degrees = vec![0.0; g.num_vertices()];
        for &(e, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p));
            let (u, v) = g.edge_endpoints(e);
            new_degrees[u] += p;
            new_degrees[v] += p;
        }
        // Lemma 1: no vertex exceeds its original expected degree.
        for u in g.vertices() {
            assert!(new_degrees[u] <= degrees[u] + 1e-6, "vertex {u}");
        }
    }

    /// Lemma 1 makes the LP the minimum of `Δ1` over all of `[0, 1]^{E_b}`,
    /// so no `GDB` variant beats it on the same backbone.  `EMD` is left
    /// out: its E-phase swaps backbone edges, so the LP on the initial
    /// backbone does not bound it (on the Figure 2 graph the LP's `Δ1` is
    /// 1.2, while `EMD^A` reaches 0.6 at `h = 0.05` and 0 at `h = 1`).
    #[test]
    fn lp_is_at_least_as_good_as_gdb_for_delta1() {
        let (g, backbone) = figure2_graph();
        let mut cases = vec![(g, backbone)];
        for seed in 1..=2 {
            let g = random_graph(seed, 30, 120);
            for alpha in [0.1, 0.3, 0.6] {
                for config in [BackboneConfig::random(), BackboneConfig::spanning()] {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let backbone = build_backbone(&g, alpha, &config, &mut rng).unwrap();
                    cases.push((g.clone(), backbone));
                }
            }
        }
        for (g, backbone) in &cases {
            let lp_delta1 = delta1(g, &lp_assign(g, backbone).unwrap().probabilities);
            for discrepancy in [DiscrepancyKind::Absolute, DiscrepancyKind::Relative] {
                for entropy_h in [0.05, 1.0] {
                    for cut_rule in [CutRule::Degree, CutRule::Cuts(2)] {
                        let config = GdbConfig {
                            discrepancy,
                            cut_rule,
                            entropy_h,
                            ..Default::default()
                        };
                        let gdb = gradient_descent_assign(g, backbone, &config).unwrap();
                        let gdb_delta1 = delta1(g, &gdb.probabilities);
                        assert!(
                            lp_delta1 <= gdb_delta1 + 1e-9,
                            "LP Δ1 = {lp_delta1}, GDB Δ1 = {gdb_delta1} ({config:?})"
                        );
                    }
                }
            }
        }
    }

    /// Checks `lp_assign`'s answer against the min-cut dual: `p'` is
    /// feasible and `Σ p'` reaches the objective of the dual solution read
    /// off the source side `S` of the final residual graph, which bounds
    /// every feasible `Σ p'` from above.
    fn assert_certified(g: &UncertainGraph, backbone: &[EdgeId]) {
        let result = lp_assign(g, backbone).unwrap();
        let n = g.num_vertices();
        let degrees = g.expected_degrees();
        let mut new_degrees = vec![0.0; n];
        let mut touched = vec![false; n];
        for &(e, p) in &result.probabilities {
            assert!((0.0..=1.0).contains(&p), "p'_{e} = {p}");
            let (u, v) = g.edge_endpoints(e);
            new_degrees[u] += p;
            new_degrees[v] += p;
            touched[u] = true;
            touched[v] = true;
        }
        for u in g.vertices() {
            assert!(new_degrees[u] <= degrees[u] + 1e-9, "vertex {u}");
        }
        let total: f64 = result.probabilities.iter().map(|&(_, p)| p).sum();

        let mut cover = DoubleCover::new(g, backbone);
        cover.max_flow();
        let in_s = |x: usize| cover.level[x] != UNREACHED;
        let half = |b: bool| if b { 0.5 } else { 0.0 };
        let y: Vec<f64> = (0..n).map(|u| half(!in_s(u)) + half(in_s(n + u))).collect();
        let mut dual: f64 = (0..n)
            .filter(|&u| touched[u])
            .map(|u| degrees[u] * y[u])
            .sum();
        for &e in backbone {
            let (u, v) = g.edge_endpoints(e);
            let z = half(in_s(u) && !in_s(n + v)) + half(in_s(v) && !in_s(n + u));
            assert!(y[u] + y[v] + z >= 1.0, "dual infeasible on edge {e}");
            dual += z;
        }
        assert!(
            total >= dual - 1e-9 * total.max(1.0),
            "Σp' = {total} below the cut bound {dual} ({} edges)",
            backbone.len()
        );
    }

    #[test]
    fn max_flow_optimum_is_certified_by_its_min_cut() {
        let mut cases: Vec<(UncertainGraph, Vec<EdgeId>)> = Vec::new();
        for (seed, n) in (0u64..).zip([2, 3, 5, 8, 13, 21, 34, 60]) {
            let g = random_graph(seed, n, 3 * n);
            let m = g.num_edges();
            for alpha in [0.1, 0.3, 0.6] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut ids: Vec<EdgeId> = (0..m).collect();
                ids.sort_by_cached_key(|_| rng.gen::<u64>());
                ids.truncate(((alpha * m as f64).round() as usize).max(1));
                cases.push((g.clone(), ids));
            }
            cases.push((g.clone(), (0..m).collect()));
            cases.push((g, vec![seed as usize % m]));
        }
        // A star whose centre's cap (5 × 0.1) binds: every leaf can take a
        // whole unit through its ring edges.
        let mut star: Vec<(usize, usize, f64)> = (1..=5).map(|leaf| (0, leaf, 0.1)).collect();
        star.extend((1..=5).map(|leaf| (leaf, leaf % 5 + 1, 0.9)));
        let star = UncertainGraph::from_edges(6, star).unwrap();
        let spokes = vec![0, 1, 2, 3, 4];
        let total = total_probability(&lp_assign(&star, &spokes).unwrap());
        assert!((total - 0.5).abs() < 1e-12, "Σp' = {total}");
        cases.push((star, spokes));
        // Edges with p = 1: the complete graph K5, and a random graph with
        // every third edge made certain.
        let k5: Vec<(usize, usize, f64)> = (0..5)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v, 1.0)))
            .collect();
        let k5 = UncertainGraph::from_edges(5, k5).unwrap();
        cases.push((k5.clone(), (0..10).collect()));
        cases.push((k5, vec![0, 4, 7, 9]));
        let g = random_graph(9, 40, 120);
        let certain = g
            .edges()
            .map(|e| (e.u, e.v, if e.id % 3 == 0 { 1.0 } else { e.p }));
        let certain = UncertainGraph::from_edges(40, certain).unwrap();
        cases.push((certain.clone(), (0..60).collect()));
        cases.push((certain, (0..120).step_by(2).collect()));
        assert!(cases.len() >= 40);
        for (g, backbone) in &cases {
            assert_certified(g, backbone);
        }
    }

    #[test]
    fn lp_matches_hand_computed_optimum_on_the_paper_backbone() {
        // For the Figure 2 backbone (three edges incident to u4, degree cap
        // d(u4) = 0.5) the best Δ1 assignment puts total probability 0.5 on
        // the star: Δ1 = |0.8-a| + |0.6-b| + |0.3-c| + 0 with a+b+c = 0.5
        // and a,b,c ≤ their other endpoints' caps — total objective Σp = 0.5.
        let (g, backbone) = figure2_graph();
        let result = lp_assign(&g, &backbone).unwrap();
        assert!((total_probability(&result) - 0.5).abs() < 1e-6);
        let d1 = delta1(&g, &result.probabilities);
        // Δ1 = (0.8+0.6+0.3) - 0.5 (mass placed on u1..u3 side) - 0.5 (u4)
        assert!((d1 - 1.2).abs() < 1e-6, "Δ1 = {d1}");
    }

    #[test]
    fn full_backbone_recovers_probabilities_with_zero_discrepancy_bound() {
        // When the backbone is the whole edge set, the optimum saturates all
        // degree constraints and Δ1 = 0; the LP objective equals the total
        // original probability mass.
        let g = UncertainGraph::from_edges(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.9)]).unwrap();
        let backbone = vec![0, 1, 2];
        let result = lp_assign(&g, &backbone).unwrap();
        assert!((total_probability(&result) - g.expected_num_edges()).abs() < 1e-6);
        assert!(delta1(&g, &result.probabilities) < 1e-6);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (g, _) = figure2_graph();
        assert!(matches!(lp_assign(&g, &[]), Err(SparsifyError::EmptyGraph)));
        assert!(matches!(lp_assign(&g, &[42]), Err(SparsifyError::Graph(_))));
    }
}
