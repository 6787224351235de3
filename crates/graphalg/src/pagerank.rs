//! PageRank on deterministic graphs.
//!
//! The paper evaluates PageRank (`PR`) as one of the four query workloads:
//! the PageRank of every vertex is estimated by averaging deterministic
//! PageRank over sampled possible worlds.  This module implements the
//! deterministic power-iteration kernel; the Monte-Carlo averaging lives in
//! `ugs-queries`.
//!
//! # Operation order
//!
//! Each iteration sets every vertex's next rank to `base` — the teleport
//! term plus the uniformly spread mass of the dangling (degree-0) vertices
//! — adds `damping · rank[u] / deg(u)` once per arc `u → v`, and measures
//! the L1 change.  The kernel fixes the order of every floating-point
//! operation; that order is what keeps [`pagerank_into`] bit-identical to
//! the plain reference loop in `tests/pagerank_oracle.rs`:
//!
//! * **Per-target ascending-source order.**  Each `next[v]` starts at
//!   `base` and adds its neighbours' shares in ascending source order, one
//!   addition per arc (a multi-edge or self loop adds its share once per
//!   arc).
//! * **Dangling mass.**  Dangling vertices receive no shares, so they all
//!   hold the same rank bits in every iteration: `1/n` first, the previous
//!   iteration's `base` after that.  The mass adds that shared rank once
//!   per dangling vertex onto `0.0`, which is bitwise the reference loop's
//!   ascending sum of the dangling ranks.
//! * **Ascending delta fold.**  The convergence delta is a left fold of
//!   `|rank[v] − next[v]|` over `v = 0..n` ascending; the iteration stops
//!   after the first pass whose delta is `< tolerance`.

use crate::dgraph::DeterministicGraph;

/// Configuration of the PageRank power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (the classical 0.85).
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-10,
        }
    }
}

/// The dangling mass of one iteration: `count` repeated additions of the
/// rank every dangling vertex holds, onto `0.0` — bitwise the sum of the
/// dangling ranks in ascending vertex order, because they all carry the
/// same bits (see the [module docs](self)).
fn dangling_mass(rank_d: f64, count: usize) -> f64 {
    let mut acc = 0.0;
    for _ in 0..count {
        acc += rank_d;
    }
    acc
}

/// Reusable buffers of [`pagerank_into`].
///
/// The default value is empty; the first call sizes the buffers, and later
/// calls on graphs with no more vertices, whose adjacency buffers hold no
/// more arcs, allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PageRankScratch {
    /// Per vertex, its slot: slot 0 is shared by every dangling vertex, and
    /// the active (degree > 0) vertices take slots `1..` in ascending order.
    slots: Vec<u32>,
    /// Per slot, the degree (0 for the dangling slot).
    degrees: Vec<f64>,
    /// Every arc as `(source slot, target slot)`, in CSR order.
    arcs: Vec<(u32, u32)>,
    /// Per slot, `damping * rank / degree` of the current iteration.
    shares: Vec<f64>,
    /// Per slot, the current ranks.
    rank: Vec<f64>,
    /// Per slot, the ranks being accumulated.
    next: Vec<f64>,
    /// Per vertex, the final ranks.
    ranks: Vec<f64>,
}

impl PageRankScratch {
    /// Assigns the slots of `g`'s vertices and flattens its arcs; returns
    /// the number of dangling vertices.
    fn load(&mut self, g: &DeterministicGraph) -> usize {
        let n = g.num_vertices();
        self.slots.clear();
        self.slots.reserve(n);
        for buffer in [
            &mut self.degrees,
            &mut self.shares,
            &mut self.rank,
            &mut self.next,
        ] {
            buffer.clear();
            buffer.reserve(n + 1);
        }
        self.degrees.push(0.0);
        for u in 0..n {
            let degree = g.degree(u);
            if degree == 0 {
                self.slots.push(0);
            } else {
                self.slots.push(self.degrees.len() as u32);
                self.degrees.push(degree as f64);
            }
        }
        let slots = &self.slots;
        self.arcs.clear();
        // A world materialised into recycled buffers never outgrows them,
        // so reserving as much keeps every later world allocation-free.
        self.arcs.reserve(g.arc_capacity());
        for (u, &source) in slots.iter().enumerate() {
            let targets = g.neighbor_slice(u).iter();
            self.arcs
                .extend(targets.map(|&v| (source, slots[v as usize])));
        }
        n + 1 - self.degrees.len()
    }
}

/// Computes PageRank scores for an undirected deterministic graph using
/// power iteration.  Dangling vertices (degree 0) redistribute their mass
/// uniformly, the standard correction.  The returned vector sums to 1 (for a
/// non-empty vertex set).
///
/// Allocates a fresh [`PageRankScratch`]; loops over many graphs should
/// call [`pagerank_into`] with one scratch instead.
pub fn pagerank(g: &DeterministicGraph, config: &PageRankConfig) -> Vec<f64> {
    let mut scratch = PageRankScratch::default();
    pagerank_into(g, config, &mut scratch);
    scratch.ranks
}

/// [`pagerank`] into reusable buffers: returns the per-vertex scores, which
/// live in `scratch` until its next use.
///
/// Every floating-point operation runs in the order the [module docs](self)
/// fix, so any driver that keeps that order reproduces the result bit for
/// bit, `NaN` tolerances and zero iterations included.  Vertices are
/// classified once per call, and the dangling ones share one rank slot, so
/// an iteration costs O(active + arcs) — one share per active vertex, then
/// one addition per arc along a flattened arc list — plus one O(n) pass
/// that folds the delta over all vertices and, as an independent chain,
/// the next iteration's dangling mass.
pub fn pagerank_into<'s>(
    g: &DeterministicGraph,
    config: &PageRankConfig,
    scratch: &'s mut PageRankScratch,
) -> &'s [f64] {
    let n = g.num_vertices();
    scratch.ranks.clear();
    if n == 0 {
        return &scratch.ranks;
    }
    let dangling = scratch.load(g);
    let PageRankScratch {
        slots,
        degrees,
        arcs,
        shares,
        rank,
        next,
        ranks,
    } = scratch;
    let damping = config.damping;
    let uniform = 1.0 / n as f64;
    rank.resize(degrees.len(), uniform);
    next.resize(degrees.len(), 0.0);
    shares.resize(degrees.len(), 0.0);
    let mut mass = dangling_mass(uniform, dangling);
    for _ in 0..config.max_iterations {
        let base = (1.0 - damping) * uniform + damping * mass * uniform;
        let active = shares[1..].iter_mut().zip(&rank[1..]).zip(&degrees[1..]);
        for ((share, &rank_u), &degree) in active {
            *share = damping * rank_u / degree;
        }
        next.fill(base);
        for &(source, target) in arcs.iter() {
            next[target as usize] += shares[source as usize];
        }
        let delta;
        (delta, mass) = fold_delta_and_mass(slots, rank, next, base, dangling);
        std::mem::swap(rank, next);
        if delta < config.tolerance {
            break;
        }
    }
    ranks.extend(slots.iter().map(|&slot| rank[slot as usize]));
    ranks
}

/// One ascending pass over the vertices carrying two independent chains:
/// the convergence delta (the left fold of `|rank − next|` per vertex) and
/// the next iteration's dangling mass, `dangling_mass(base, dangling)`,
/// whose additions ride along the first `dangling` trips.
fn fold_delta_and_mass(
    slots: &[u32],
    rank: &[f64],
    next: &[f64],
    base: f64,
    dangling: usize,
) -> (f64, f64) {
    let term = |slot: u32| (rank[slot as usize] - next[slot as usize]).abs();
    let (head, tail) = slots.split_at(dangling);
    let (mut delta, mut mass) = (0.0, 0.0);
    for &slot in head {
        delta += term(slot);
        mass += base;
    }
    for &slot in tail {
        delta += term(slot);
    }
    (delta, mass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_sums_to_one() {
        let g = DeterministicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_graph_gives_uniform_ranks() {
        // A cycle is vertex-transitive: all ranks equal.
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for &x in &pr {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn star_center_has_highest_rank() {
        let g = DeterministicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
            assert!((pr[leaf] - pr[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_vertices_keep_distribution_normalised() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // isolated vertices still receive teleport + dangling mass
        assert!(pr[2] > 0.0);
        assert!((pr[2] - pr[3]).abs() < 1e-12);
        assert!(pr[0] > pr[2]);
    }

    #[test]
    fn empty_graph_returns_empty_vector() {
        let g = DeterministicGraph::from_edges(0, &[]);
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn respects_iteration_limit() {
        let g = DeterministicGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let rough = pagerank(
            &g,
            &PageRankConfig {
                damping: 0.85,
                max_iterations: 1,
                tolerance: 0.0,
            },
        );
        let precise = pagerank(&g, &PageRankConfig::default());
        // With only one iteration the result should differ from the converged one.
        let diff: f64 = rough
            .iter()
            .zip(precise.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6);
    }

    #[test]
    fn dangling_mass_matches_the_ascending_fold() {
        let r = 0.123456789;
        let ascending: f64 = std::iter::repeat_n(r, 7).sum();
        assert_eq!(dangling_mass(r, 7).to_bits(), ascending.to_bits());
        assert_eq!(dangling_mass(r, 0), 0.0);
    }
}
