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
//! the L1 change.  [`pagerank_into`] returns the bits of the plain
//! reference loop in `tests/pagerank_oracle.rs`, which fixes the order of
//! every floating-point operation.  The kernel keeps that order where it
//! shows in the answer and takes an exact shortcut where it does not:
//!
//! * **Per-target ascending-source order.**  Each `next[v]` starts at
//!   `base` and adds its neighbours' shares in ascending source order, one
//!   addition per arc (a multi-edge or self loop adds its share once per
//!   arc).
//! * **Dangling mass: the repeated addition, by binade jumps.**  Dangling
//!   vertices receive no shares, so they all hold the same rank bits in
//!   every iteration: `1/n` first, the previous iteration's `base` after
//!   that.  The reference sums those ranks in ascending vertex order, which
//!   is `count` additions of one value `x` onto `0.0`.  While the
//!   accumulator stays in one binade `[2^e, 2^(e+1))` its rounding grid is
//!   fixed, so each addition adds `x` rounded to that grid.  The one
//!   exception is a tie, which rounds to the even grid point and so depends
//!   on the accumulator's last bit; but every result of a tie is even, so
//!   from the second addition inside a binade on, every addition adds the
//!   same increment.  A run of additions inside one binade is then one
//!   exact multiply-add on the accumulator's bits, and each binade crossing
//!   is one plain addition: the mass is bitwise the repeated addition in
//!   a few steps per binade instead of one per dangling vertex.
//! * **Stop decision: the ascending fold's `< tolerance`.**  The reference
//!   stops after the first pass whose delta, the left fold of
//!   `|rank[v] − next[v]|` over `v = 0..n` ascending, is `< tolerance`.
//!   Only that comparison reaches the answer.  Summing `n` non-negative
//!   terms in any order lands within `γ(n−1)·S` of their exact sum `S`,
//!   with `γ(k) = k·u / (1 − k·u)` and `u = 2^-53` (Higham, *Accuracy and
//!   Stability of Numerical Algorithms*, 2nd ed., 2002, §4.2).  So the
//!   kernel estimates the delta from an eight-lane sum over the contiguous
//!   active slots plus `dangling · |rank[0] − next[0]|`, and decides from
//!   the estimate alone when it lies farther from the tolerance than
//!   `8(n+8)ε` of itself plus `(n+8)` smallest subnormals (a margin that
//!   covers both sums' rounding, the product's underflow and the margin's
//!   own rounding many times over).  Inside the margin, and whenever a NaN
//!   (or an infinite estimate) leaves both comparisons false, it runs the
//!   ascending fold itself, so the decision is always the fold's.

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
    add_repeatedly(0.0, rank_d, count)
}

/// `count` repeated additions of `value` onto `acc`, bit for bit, in a few
/// steps per binade the accumulator passes through (see the
/// [module docs](self)).  `acc` must be zero or of `value`'s sign, so every
/// addition moves the accumulator away from zero and its bits, read as an
/// integer, grow by the increment in units of the binade's grid.  The
/// kernel starts from zero; any other start is for the tests, which reach
/// stagnation (a value below half a grid step) that way instead of after
/// 2^53 additions.
fn add_repeatedly(mut acc: f64, value: f64, mut count: usize) -> f64 {
    // Whether the last addition started and ended in `acc`'s binade, which
    // leaves `acc` on an even grid point whenever the addition was a tie.
    let mut settled = false;
    while count > 0 {
        let step = acc + value;
        count -= 1;
        // An addition that changes nothing changes nothing again; an
        // infinity or a NaN absorbs every later addition.
        if step.to_bits() == acc.to_bits() || !step.is_finite() {
            return step;
        }
        // Sign and exponent bits: equal for two values of one binade.
        let binade = step.to_bits() >> 52;
        let inside = acc != 0.0 && binade == acc.to_bits() >> 52;
        if inside && settled {
            // From a settled accumulator every addition that stays below
            // the binade's top adds the same grid increment.
            let increment = step.to_bits() - acc.to_bits();
            let top = (binade + 1) << 52;
            let runs = ((top - 1 - step.to_bits()) / increment).min(count as u64);
            acc = f64::from_bits(step.to_bits() + runs * increment);
            count -= runs as usize;
        } else {
            acc = step;
        }
        settled = inside;
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
/// The result is bitwise the reference loop's, by the operation order and
/// the exact shortcuts of the [module docs](self), `NaN` tolerances and
/// zero iterations included.  Vertices are classified once per call
/// (O(n)), and the dangling ones share one rank slot, so an iteration
/// costs O(active + arcs): one share per active vertex, one addition per
/// arc along a flattened arc list — the largest cost — and an eight-lane
/// sum over the active slots for the stop decision, plus a few steps per
/// binade for the dangling mass.  Only an iteration whose delta lies
/// within rounding of the tolerance pays the O(n) ascending fold.
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
    for _ in 0..config.max_iterations {
        let mass = dangling_mass(rank[0], dangling);
        let base = (1.0 - damping) * uniform + damping * mass * uniform;
        let active = shares[1..].iter_mut().zip(&rank[1..]).zip(&degrees[1..]);
        for ((share, &rank_u), &degree) in active {
            *share = damping * rank_u / degree;
        }
        next.fill(base);
        for &(source, target) in arcs.iter() {
            next[target as usize] += shares[source as usize];
        }
        let converged = delta_below(slots, rank, next, dangling, config.tolerance);
        std::mem::swap(rank, next);
        if converged {
            break;
        }
    }
    ranks.extend(slots.iter().map(|&slot| rank[slot as usize]));
    ranks
}

/// Whether the iteration's delta — [`ascending_delta`] — is `< tolerance`,
/// decided from a lane-summed estimate whenever the estimate lies outside
/// its rounding margin around the tolerance (see the
/// [module docs](self)).
fn delta_below(slots: &[u32], rank: &[f64], next: &[f64], dangling: usize, tolerance: f64) -> bool {
    let shared = dangling as f64 * (rank[0] - next[0]).abs();
    let estimate = lane_delta(&rank[1..], &next[1..]) + shared;
    let terms = slots.len() as f64 + 8.0;
    let margin = estimate * (8.0 * f64::EPSILON * terms) + terms * f64::from_bits(1);
    if estimate + margin < tolerance {
        true
    } else if estimate - margin >= tolerance {
        false
    } else {
        ascending_delta(slots, rank, next) < tolerance
    }
}

/// `Σ |rank[s] − next[s]|` over equally long slot ranges, in eight
/// independent lanes.
fn lane_delta(rank: &[f64], next: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut lanes = [0.0; LANES];
    let (rank_chunks, next_chunks) = (rank.chunks_exact(LANES), next.chunks_exact(LANES));
    let tail = rank_chunks.remainder().iter().zip(next_chunks.remainder());
    let tail = tail.fold(0.0, |sum, (a, b)| sum + (a - b).abs());
    for (a, b) in rank_chunks.zip(next_chunks) {
        for lane in 0..LANES {
            lanes[lane] += (a[lane] - b[lane]).abs();
        }
    }
    lanes.iter().sum::<f64>() + tail
}

/// The reference loop's convergence delta: the left fold of
/// `|rank − next|` per vertex, over the vertices in ascending order.
fn ascending_delta(slots: &[u32], rank: &[f64], next: &[f64]) -> f64 {
    slots.iter().fold(0.0, |delta, &slot| {
        delta + (rank[slot as usize] - next[slot as usize]).abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The reference's repeated addition, one step per addition.
    fn serial_sum(mut acc: f64, value: f64, count: usize) -> f64 {
        for _ in 0..count {
            acc += value;
        }
        acc
    }

    #[test]
    fn binade_jumps_equal_the_repeated_addition_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xB1AD);
        let check = |acc: f64, value: f64, count: usize| {
            let want = serial_sum(acc, value, count);
            let got = add_repeatedly(acc, value, count);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{count} additions of {value:e} onto {acc:e}: {got:e}, serially {want:e}"
            );
        };
        // Values with few significant bits (exact runs, and ties once the
        // grid coarsens), values that never round exactly, and subnormals.
        let mut specials = vec![0.5, 0.1, 1.0 / 3.0, 1.0, f64::MIN_POSITIVE];
        specials.extend((0..60).map(|k| 3.0 * 2f64.powi(-k)));
        specials.extend([1, 2, 3, 1 << 20, (1 << 52) - 1].map(f64::from_bits));
        for &value in &specials {
            for count in [0, 1, 2, 3, 1000, 1 << 17] {
                check(0.0, value, count);
                check(0.0, -value, count);
            }
        }
        let mut long_runs = 0;
        for _ in 0..10_000 {
            let value = match rng.gen_range(0..4) {
                // A full 53-bit significand: ties on the coarser grids.
                0 => rng.gen::<f64>() * 2f64.powi(-rng.gen_range(0..40i32)),
                1 => specials[rng.gen_range(0..specials.len())],
                // Subnormal.
                2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                _ => (rng.gen_range(1..1u64 << 12) as f64) * 2f64.powi(-rng.gen_range(0..70i32)),
            };
            let value = if rng.gen_bool(0.1) { -value } else { value };
            let bits = rng.gen_range(0..=18u32);
            let count = rng.gen_range(0..1usize << bits);
            long_runs += usize::from(count >= 1 << 17);
            check(0.0, value, count);
        }
        assert!(
            long_runs > 100,
            "{long_runs} draws of at least 2^17 additions"
        );
        // Stagnation: from a start whose half grid step exceeds the value
        // (or equals it, a tie onto an even or an odd grid point), nothing
        // or one rounding step ever changes the sum.
        let one_up = f64::from_bits(1.0f64.to_bits() + 1);
        for (acc, value) in [
            (1.0, 2f64.powi(-54)),
            (1.0, 2f64.powi(-53)),
            (one_up, 2f64.powi(-53)),
            (2f64.powi(60), 1.0),
            (2f64.powi(60), 100.0),
            (-1.0, -2f64.powi(-53)),
        ] {
            for count in [0, 1, 2, 3, 1 << 17] {
                check(acc, value, count);
            }
        }
        // Starts inside a binade that the additions then cross.
        for _ in 0..200 {
            let acc = rng.gen::<f64>() * 1e6;
            let value = rng.gen::<f64>() * 2f64.powi(-rng.gen_range(0..30i32));
            check(acc, value, rng.gen_range(0..1usize << 17));
        }
        // Zeros, infinities and NaN.
        for count in [0, 1, 2, 5] {
            check(0.0, 0.0, count);
            check(0.0, -0.0, count);
            check(-0.0, -0.0, count);
            check(-0.0, 0.0, count);
            check(0.0, f64::INFINITY, count);
            check(f64::MAX, f64::MAX, count);
        }
        assert!(add_repeatedly(0.0, f64::NAN, 3).is_nan());
    }

    /// A slot layout over `n` vertices (each dangling with probability
    /// `dangling_share`) with rank vectors whose differences span many
    /// binades, as `pagerank_into` hands them to [`delta_below`].
    fn random_iteration(
        rng: &mut SmallRng,
        n: usize,
        dangling_share: f64,
    ) -> (Vec<u32>, Vec<f64>, Vec<f64>, usize) {
        let mut slots = Vec::with_capacity(n);
        let mut active = 0u32;
        for _ in 0..n {
            if rng.gen_bool(dangling_share) {
                slots.push(0);
            } else {
                active += 1;
                slots.push(active);
            }
        }
        let dangling = n - active as usize;
        let len = active as usize + 1;
        let rank: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() / n as f64).collect();
        let next = (rank.iter())
            .map(|&r| r + (rng.gen::<f64>() - 0.5) * 2f64.powi(-rng.gen_range(0..40i32)) * r)
            .collect();
        (slots, rank, next, dangling)
    }

    #[test]
    fn the_stop_decision_is_the_ascending_folds_at_every_tolerance_near_it() {
        let mut rng = SmallRng::seed_from_u64(0x570);
        let mut estimates_off = 0;
        let mut cases = 0;
        for case in 0..3_000 {
            let n = match case % 4 {
                0 => rng.gen_range(1..8),
                1 => rng.gen_range(8..200),
                _ => rng.gen_range(200..4_000),
            };
            let share = [0.0, 0.3, 0.55, 1.0][rng.gen_range(0..4usize)];
            let (slots, rank, next, dangling) = random_iteration(&mut rng, n, share);
            let fold = ascending_delta(&slots, &rank, &next);
            let shared = dangling as f64 * (rank[0] - next[0]).abs();
            let estimate = lane_delta(&rank[1..], &next[1..]) + shared;
            estimates_off += usize::from(estimate != fold);
            for tolerance in [fold.next_down(), fold, fold.next_up()] {
                cases += 1;
                assert_eq!(
                    delta_below(&slots, &rank, &next, dangling, tolerance),
                    fold < tolerance,
                    "n {n}, {dangling} dangling, fold {fold:e}, tolerance {tolerance:e}"
                );
            }
        }
        // Guards the test itself: it proves the fallback only if the
        // estimate often misses the fold in its last bits.
        assert!(
            estimates_off > 500,
            "{estimates_off} of {cases} estimates off"
        );
        // A zero delta, and the tolerances no estimate can decide alone.
        let (slots, rank) = (vec![0, 1, 0, 2], vec![0.25, 0.5, 0.25]);
        for tolerance in [-0.0, 0.0, f64::from_bits(1), f64::INFINITY, f64::NAN] {
            assert_eq!(
                delta_below(&slots, &rank, &rank, 2, tolerance),
                0.0 < tolerance,
                "{tolerance:e}"
            );
        }
    }

    #[test]
    fn dangling_mass_matches_the_ascending_fold() {
        let r = 0.123456789;
        let ascending: f64 = std::iter::repeat_n(r, 7).sum();
        assert_eq!(dangling_mass(r, 7).to_bits(), ascending.to_bits());
        assert_eq!(dangling_mass(r, 0), 0.0);
    }
}
