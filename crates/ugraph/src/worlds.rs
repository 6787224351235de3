//! Possible-world semantics: exact enumeration and Monte-Carlo sampling.
//!
//! An uncertain graph `G = (V, E, p)` denotes a distribution over the
//! `2^|E|` deterministic graphs (*possible worlds*) obtained by keeping each
//! edge independently with its probability.  The probability of a world
//! `G ⊑ 𝒢` with edge set `E_G ⊆ E` is
//!
//! ```text
//! Pr(G) = Π_{e ∈ E_G} p_e · Π_{e ∈ E \ E_G} (1 - p_e)
//! ```
//!
//! Two world representations serve two purposes:
//!
//! * **Present-edge lists** — the Monte-Carlo path.  [`SkipSampler`] and
//!   [`WorldSampler::sample_present_into`] append the ids of a world's
//!   present edges into a caller-owned buffer, allocation-free; the world
//!   engine (`ugs_queries::engine`) resolves them to endpoints and compacts
//!   them into a CSR.
//! * **[`PossibleWorld`] masks** — the reference path.  [`enumerate_worlds`]
//!   iterates all worlds exactly (only feasible for small `|E|`) and
//!   [`WorldSampler::sample`] draws one owned world; tests compare the
//!   engine against both.

use rand::Rng;

use crate::error::GraphError;
use crate::graph::{EdgeId, UncertainGraph, VertexId};

/// Ziggurat sampler for the standard exponential distribution
/// (Marsaglia & Tsang, 2000; 256 layers).
///
/// The skip sampler converts `E ~ Exp(1)` into geometric jump lengths via
/// `⌊E / λ⌋` with `λ = −ln(1 − p)`; the ziggurat makes drawing `E` cost a
/// single `u64` draw plus two comparisons in ~98.9 % of cases — an order of
/// magnitude cheaper than the naive `−ln(U)` inversion, which pays a
/// logarithm per draw.
mod exponential {
    use rand::Rng;
    use std::sync::OnceLock;

    /// Right edge of the base layer.
    const R: f64 = 7.697117470131487;
    /// Area of each layer.
    const V: f64 = 3.949_659_822_581_557e-3;
    const LAYERS: usize = 256;
    const U53: f64 = 1.0 / (1u64 << 53) as f64;

    struct Tables {
        /// Layer x-coordinates, `LAYERS + 1` entries, decreasing to 0.
        x: [f64; LAYERS + 1],
        /// Density at every `x`, increasing to 1.
        f: [f64; LAYERS + 1],
    }

    fn tables() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let density = |x: f64| (-x).exp();
            let mut x = [0.0; LAYERS + 1];
            x[0] = V / density(R);
            x[1] = R;
            for i in 2..LAYERS {
                // x[i] solves V = x[i-1] · (f(x[i]) − f(x[i-1])):
                x[i] = -(V / x[i - 1] + density(x[i - 1])).ln();
            }
            x[LAYERS] = 0.0;
            let mut f = [0.0; LAYERS + 1];
            for i in 0..=LAYERS {
                f[i] = density(x[i]);
            }
            Tables { x, f }
        })
    }

    /// A handle on the (lazily built, then immutable) ziggurat tables:
    /// resolve once per sampler, draw many times without re-touching the
    /// `OnceLock`.
    #[derive(Clone, Copy)]
    pub struct Exp1 {
        tables: &'static Tables,
    }

    impl std::fmt::Debug for Exp1 {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Exp1")
        }
    }

    impl Default for Exp1 {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Exp1 {
        /// Resolves the shared tables.
        pub fn new() -> Self {
            Exp1 { tables: tables() }
        }

        /// Draws one standard exponential variate.
        #[inline]
        pub fn sample<R2: Rng + ?Sized>(&self, rng: &mut R2) -> f64 {
            let t = self.tables;
            loop {
                let bits = rng.gen::<u64>();
                let i = (bits & 0xff) as usize;
                let u = (bits >> 11) as f64 * U53;
                let x = u * t.x[i];
                if x < t.x[i + 1] {
                    return x; // inside the layer: the common case (~98 %)
                }
                if i == 0 {
                    // Tail: E > R is distributed as R + Exp(1); 1 − gen()
                    // maps [0, 1) onto (0, 1] so the logarithm is finite.
                    return R - (1.0 - rng.gen::<f64>()).ln();
                }
                // Wedge: accept against the true density.
                if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < (-x).exp() {
                    return x;
                }
            }
        }
    }
}

/// Maximum number of edges for which exact possible-world enumeration is
/// permitted (`2^26` worlds ≈ 67 million — a few seconds of work).
pub const MAX_ENUMERATION_EDGES: usize = 26;

/// One deterministic possible world of an uncertain graph, represented as an
/// inclusion mask over the parent graph's edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PossibleWorld {
    present: Vec<bool>,
}

impl PossibleWorld {
    /// Creates a world from an explicit inclusion mask.
    pub fn new(present: Vec<bool>) -> Self {
        PossibleWorld { present }
    }

    /// Creates the world in which every edge of `g` is present.
    pub fn full(g: &UncertainGraph) -> Self {
        PossibleWorld {
            present: vec![true; g.num_edges()],
        }
    }

    /// Creates the world with no edges.
    pub fn empty(g: &UncertainGraph) -> Self {
        PossibleWorld {
            present: vec![false; g.num_edges()],
        }
    }

    /// Returns `true` if edge `e` exists in this world.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.present[e]
    }

    /// Number of edges in the mask (present or not) — equals the parent
    /// graph's edge count.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Returns `true` if the mask covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Number of edges present in this world.
    pub fn num_present(&self) -> usize {
        self.present.iter().filter(|&&b| b).count()
    }

    /// The raw inclusion mask.
    pub fn mask(&self) -> &[bool] {
        &self.present
    }

    /// Iterator over the ids of the edges present in this world.
    pub fn present_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(e, _)| e)
    }

    /// Probability of this world under graph `g`.
    ///
    /// # Panics
    /// Panics if the mask length differs from `g.num_edges()`.
    pub fn probability(&self, g: &UncertainGraph) -> f64 {
        assert_eq!(
            self.present.len(),
            g.num_edges(),
            "world mask does not match graph"
        );
        let mut pr = 1.0;
        for (e, &present) in self.present.iter().enumerate() {
            let p = g.edge_probability(e);
            pr *= if present { p } else { 1.0 - p };
        }
        pr
    }

    /// Returns `true` if all vertices of `g` belong to a single connected
    /// component in this world.  Isolated-vertex graphs with `|V| ≤ 1` are
    /// connected by convention.
    pub fn is_connected(&self, g: &UncertainGraph) -> bool {
        let n = g.num_vertices();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack: Vec<VertexId> = vec![0];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (v, e, _) in g.neighbors(u) {
                if self.present[e] && !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Connected components of this world as a label vector (`labels[u]` is
    /// the component id of `u`, components numbered from 0 in discovery
    /// order), plus the number of components.
    pub fn connected_components(&self, g: &UncertainGraph) -> (Vec<usize>, usize) {
        let n = g.num_vertices();
        let mut labels = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if labels[start] != usize::MAX {
                continue;
            }
            labels[start] = next;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for (v, e, _) in g.neighbors(u) {
                    if self.present[e] && labels[v] == usize::MAX {
                        labels[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        (labels, next)
    }
}

/// Monte-Carlo sampler of possible worlds (the *per-edge* reference path).
///
/// Sampling a world costs `O(|E|)` random draws — one Bernoulli draw per
/// edge, in edge-id order — the dominant cost of every sampling-based query
/// evaluation, which is precisely why sparsification (fewer edges) speeds
/// queries up.  The [`SkipSampler`] replaces the per-draw loop with
/// geometric skips and costs `O(Σ pₑ)` expected work per world instead; this
/// type is kept both as the simplest possible reference implementation and
/// as the exact draw-order contract the engine's per-edge mode reproduces.
#[derive(Debug, Clone, Default)]
pub struct WorldSampler;

impl WorldSampler {
    /// Creates a sampler.
    pub fn new() -> Self {
        WorldSampler
    }

    /// Draws one world from `g` using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, g: &UncertainGraph, rng: &mut R) -> PossibleWorld {
        let present = g
            .probabilities()
            .iter()
            .map(|&p| rng.gen::<f64>() < p)
            .collect();
        PossibleWorld::new(present)
    }

    /// Draws one world as a list of present edge ids (ascending), appended
    /// into a caller-owned buffer.  Consumes the RNG exactly like
    /// [`WorldSampler::sample`]; allocation-free once `out` has capacity
    /// `g.num_edges()`.
    pub fn sample_present_into<R: Rng + ?Sized>(
        &self,
        g: &UncertainGraph,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for (e, &p) in g.probabilities().iter().enumerate() {
            if rng.gen::<f64>() < p {
                out.push(e as u32);
            }
        }
    }
}

/// Skip-based (geometric) Monte-Carlo world sampler: `O(Σ pₑ)` expected cost
/// per world instead of one Bernoulli draw per edge.
///
/// Construction sorts the edges once by descending probability.  Sampling
/// walks the sorted order jumping directly between *candidate* edges with
/// geometric skips: at position `i` the remaining maximum probability is
/// `p⁺ = p[i]`, the number of skipped edges is `⌊ln U / ln(1 − p⁺)⌋`
/// (`U` uniform on `(0, 1]`), and the candidate edge `j` it lands on is
/// accepted with probability `p[j]/p⁺` (thinning) — which makes every edge
/// present with exactly its own probability while never touching the edges
/// in between.  On the low-entropy sparsified graphs the paper produces
/// (mean probability well below 1) this is the difference between `O(|E|)`
/// and `O(Σ pₑ)` work per world.
///
/// The sampler is immutable after construction and can be shared freely
/// across threads; all per-world state lives in the caller-owned output
/// buffer, so steady-state sampling allocates nothing.
#[derive(Debug, Clone)]
pub struct SkipSampler {
    /// Total number of edges of the parent graph.
    num_edges: usize,
    /// One packed entry per edge, sorted by descending probability — a
    /// single cache line serves the whole candidate step.
    entries: Vec<SkipEntry>,
    /// `Σ pₑ` — the expected number of present edges per world.
    expected_present: f64,
    /// Ziggurat exponential sampler (tables resolved once).
    exp: exponential::Exp1,
}

/// Per-edge sampling data, packed for locality in the skip walk (24 bytes,
/// no padding).
#[derive(Debug, Clone, Copy)]
struct SkipEntry {
    /// Edge probability.
    prob: f64,
    /// `1 / λ = −1 / ln(1 − p)` (`0.0` for `p = 1`, never read in that
    /// case): converts a standard exponential variate into a geometric skip
    /// length.
    inv_lambda: f64,
    /// The edge id this sorted position refers to.
    edge: u32,
    /// One past the end of the run of equal-probability entries this
    /// position belongs to (its *plateau*).  Within a plateau the walk can
    /// keep the bound in registers and skip the thinning test entirely.
    plateau_end: u32,
}

impl SkipSampler {
    /// Builds the sampler for `g` (one `O(|E| log |E|)` sort).
    pub fn new(g: &UncertainGraph) -> Self {
        let probs = g.probabilities();
        let mut entries: Vec<SkipEntry> = probs
            .iter()
            .enumerate()
            .map(|(e, &p)| SkipEntry {
                prob: p,
                // ln_1p avoids cancellation in 1 − p for tiny p (and
                // yields exactly 0.0 for p = 1, which is never read).
                inv_lambda: -(-p).ln_1p().recip(),
                edge: e as u32,
                plateau_end: 0,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.prob
                .partial_cmp(&a.prob)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Mark runs of equal probability.
        let mut run_start = 0usize;
        for i in 0..=entries.len() {
            if i == entries.len() || entries[i].prob != entries[run_start].prob {
                for entry in &mut entries[run_start..i] {
                    entry.plateau_end = i as u32;
                }
                run_start = i;
            }
        }
        SkipSampler {
            num_edges: probs.len(),
            entries,
            expected_present: probs.iter().sum(),
            exp: exponential::Exp1::new(),
        }
    }

    /// Number of edges of the parent graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `Σ pₑ` — the expected number of present edges per sampled world.
    pub fn expected_present(&self) -> f64 {
        self.expected_present
    }

    /// Draws one world as a list of present edge ids appended into a
    /// caller-owned buffer (allocation-free once `out` has capacity
    /// `num_edges`).  The ids arrive in descending-probability order, **not**
    /// ascending id order.
    // `!(skip < remaining)` is deliberate: it also routes a NaN skip (which
    // cannot arise from finite inputs, but would otherwise corrupt the walk)
    // to the "past the end" exit.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn sample_present_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u32>) {
        out.clear();
        let entries = self.entries.as_slice();
        let m = entries.len();
        // Exponential variates are drawn in small stack-resident batches:
        // the draws are independent of the walk positions, so batching
        // decouples the RNG/ziggurat dependency chain from the
        // position-to-position chain of the walk itself (a sizeable win on
        // out-of-order cores; the walk is otherwise latency-bound).
        const BATCH: usize = 64;
        let batch = BATCH.min(m.max(1));
        let mut exponentials = [0.0f64; BATCH];
        let mut next = batch; // forces a refill on first use
                              // Minimum plateau length for which the register-resident truncated
                              // walk below beats a thinning jump.
        const PLATEAU_MIN: usize = 8;
        let mut i = 0usize;
        while i < m {
            let start = entries[i];
            let bound = start.prob;
            let plateau_end = start.plateau_end as usize;
            if bound >= 1.0 {
                // Deterministic prefix: every edge with p = 1 is present.
                out.extend(entries[i..plateau_end].iter().map(|entry| entry.edge));
                i = plateau_end;
                continue;
            }
            if plateau_end - i >= PLATEAU_MIN {
                // Plateau fast path: bound and 1/λ stay in registers, every
                // landing inside the run is accepted outright (identical
                // probability), and a jump clearing the run is *truncated*
                // there — exact, because a truncated geometric simulates the
                // Bernoulli run directly and the continuation at the run end
                // is independent by memorylessness.
                let inv_lambda = start.inv_lambda;
                loop {
                    if next == batch {
                        for slot in exponentials[..batch].iter_mut() {
                            *slot = self.exp.sample(rng);
                        }
                        next = 0;
                    }
                    let skip = exponentials[next] * inv_lambda;
                    next += 1;
                    if !(skip < (plateau_end - i) as f64) {
                        i = plateau_end;
                        break;
                    }
                    let j = i + skip as usize;
                    out.push(entries[j].edge);
                    i = j + 1;
                    if i >= plateau_end {
                        break;
                    }
                }
                continue;
            }
            if next == batch {
                for slot in exponentials[..batch].iter_mut() {
                    *slot = self.exp.sample(rng);
                }
                next = 0;
            }
            // Thinning jump across heterogeneous probabilities: with
            // λ = −ln(1 − p⁺), ⌊E/λ⌋ is geometric with success probability
            // p⁺; the candidate it lands on is accepted with `p/p⁺`.
            let skip = exponentials[next] * start.inv_lambda;
            next += 1;
            let remaining = (m - i) as f64;
            if !(skip < remaining) {
                // The geometric jump clears the end of the edge list: no
                // further edge is present in this world.
                break;
            }
            let j = i + skip as usize;
            let candidate = entries[j];
            // When probabilities are equal no extra draw is consumed.
            if candidate.prob >= bound || rng.gen::<f64>() * bound < candidate.prob {
                out.push(candidate.edge);
            }
            i = j + 1;
        }
    }
}

/// Exactly enumerates all `2^|E|` worlds of `g`, calling `visit(world, pr)`
/// for each.  Fails if the graph has more than [`MAX_ENUMERATION_EDGES`]
/// edges.
pub fn enumerate_worlds<F>(g: &UncertainGraph, mut visit: F) -> Result<(), GraphError>
where
    F: FnMut(&PossibleWorld, f64),
{
    let m = g.num_edges();
    if m > MAX_ENUMERATION_EDGES {
        return Err(GraphError::TooManyEdgesForEnumeration {
            num_edges: m,
            max_edges: MAX_ENUMERATION_EDGES,
        });
    }
    let total = 1u64 << m;
    let mut mask = vec![false; m];
    for bits in 0..total {
        let mut pr = 1.0;
        for (e, slot) in mask.iter_mut().enumerate() {
            let present = (bits >> e) & 1 == 1;
            *slot = present;
            let p = g.edge_probability(e);
            pr *= if present { p } else { 1.0 - p };
        }
        let world = PossibleWorld::new(mask.clone());
        visit(&world, pr);
    }
    Ok(())
}

/// Exact probability that a query predicate holds, by enumeration
/// (Equation 1 of the paper).  Only feasible for small graphs.
pub fn exact_query_probability<Q>(g: &UncertainGraph, mut predicate: Q) -> Result<f64, GraphError>
where
    Q: FnMut(&PossibleWorld) -> bool,
{
    let mut total = 0.0;
    enumerate_worlds(g, |world, pr| {
        if predicate(world) {
            total += pr;
        }
    })?;
    Ok(total)
}

/// Exact probability that the uncertain graph is connected (single connected
/// component spanning all vertices), computed by enumeration.
///
/// For Figure 1(a) of the paper this returns ≈ 0.219.
pub fn exact_connected_probability(g: &UncertainGraph) -> Result<f64, GraphError> {
    exact_query_probability(g, |world| world.is_connected(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    fn figure1b() -> UncertainGraph {
        UncertainGraph::from_edges(4, [(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6)]).unwrap()
    }

    #[test]
    fn world_probability_sums_to_one() {
        let g = figure1a();
        let mut total = 0.0;
        enumerate_worlds(&g, |_, pr| total += pr).unwrap();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure1_connected_probabilities_match_paper() {
        // The paper reports Pr[G connected] = 0.219 for Figure 1(a) and
        // 0.216 for the sparsified graph of Figure 1(b).
        let p_a = exact_connected_probability(&figure1a()).unwrap();
        assert!((p_a - 0.219).abs() < 2e-3, "got {p_a}");
        let p_b = exact_connected_probability(&figure1b()).unwrap();
        assert!((p_b - 0.216).abs() < 1e-9, "got {p_b}");
    }

    #[test]
    fn enumeration_counts_all_worlds() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let mut count = 0usize;
        enumerate_worlds(&g, |_, _| count += 1).unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn enumeration_rejects_large_graphs() {
        let edges: Vec<(usize, usize, f64)> = (0..40).map(|i| (i, i + 1, 0.5)).collect();
        let g = UncertainGraph::from_edges(41, edges).unwrap();
        assert!(matches!(
            enumerate_worlds(&g, |_, _| ()),
            Err(GraphError::TooManyEdgesForEnumeration { .. })
        ));
    }

    #[test]
    fn world_mask_and_probability() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.25), (1, 2, 0.5)]).unwrap();
        let w = PossibleWorld::new(vec![true, false]);
        assert!(w.contains(0));
        assert!(!w.contains(1));
        assert_eq!(w.num_present(), 1);
        assert_eq!(w.present_edges().collect::<Vec<_>>(), vec![0]);
        assert!((w.probability(&g) - 0.25 * 0.5).abs() < 1e-12);
        assert_eq!(PossibleWorld::full(&g).num_present(), 2);
        assert_eq!(PossibleWorld::empty(&g).num_present(), 0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn connectivity_and_components_of_worlds() {
        let g = UncertainGraph::from_edges(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]).unwrap();
        let all = PossibleWorld::full(&g);
        assert!(all.is_connected(&g));
        let (labels, k) = all.connected_components(&g);
        assert_eq!(k, 1);
        assert!(labels.iter().all(|&l| l == 0));

        let broken = PossibleWorld::new(vec![true, false, true]);
        assert!(!broken.is_connected(&g));
        let (labels, k) = broken.connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn ziggurat_exponential_has_unit_mean_and_variance() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut tail = 0usize;
        let exp = super::exponential::Exp1::new();
        for _ in 0..n {
            let e = exp.sample(&mut rng);
            assert!(e >= 0.0);
            sum += e;
            sum_sq += e * e;
            tail += usize::from(e > 2.0);
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
        // P(E > 2) = e^{-2} ≈ 0.1353
        let p_tail = tail as f64 / n as f64;
        assert!((p_tail - (-2.0f64).exp()).abs() < 0.005, "tail {p_tail}");
    }

    #[test]
    fn skip_sampler_matches_per_edge_frequencies_on_heterogeneous_probabilities() {
        // Mixed probability levels, including a deterministic edge and a big
        // probability drop right after it (the worst case for the thinning
        // bound).
        let probs = [1.0, 0.9, 0.9, 0.02, 0.02, 0.02, 0.5, 0.004, 0.3];
        let edges: Vec<(usize, usize, f64)> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, i + 1, p))
            .collect();
        let g = UncertainGraph::from_edges(probs.len() + 1, edges).unwrap();
        let sampler = SkipSampler::new(&g);
        assert_eq!(sampler.num_edges(), probs.len());
        assert!((sampler.expected_present() - probs.iter().sum::<f64>()).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(17);
        let worlds = 80_000;
        let mut hits = vec![0usize; probs.len()];
        let mut out = Vec::new();
        for _ in 0..worlds {
            sampler.sample_present_into(&mut rng, &mut out);
            for &e in &out {
                hits[e as usize] += 1;
            }
        }
        for (e, &p) in probs.iter().enumerate() {
            let freq = hits[e] as f64 / worlds as f64;
            let sigma = (p * (1.0 - p) / worlds as f64).sqrt();
            assert!(
                (freq - p).abs() < 5.0 * sigma + 1e-9,
                "edge {e}: frequency {freq} vs probability {p}"
            );
        }
    }

    #[test]
    fn sampler_matches_expected_edge_frequency() {
        let g = UncertainGraph::from_edges(2, [(0, 1, 0.25)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let sampler = WorldSampler::new();
        let worlds = 20_000;
        let hits = (0..worlds)
            .filter(|_| sampler.sample(&g, &mut rng).contains(0))
            .count();
        let freq = hits as f64 / worlds as f64;
        assert!((freq - 0.25).abs() < 0.02, "frequency {freq}");
    }

    #[test]
    fn exact_query_probability_for_edge_presence_is_its_probability() {
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.37), (1, 2, 0.8)]).unwrap();
        let p = exact_query_probability(&g, |w| w.contains(0)).unwrap();
        assert!((p - 0.37).abs() < 1e-12);
    }
}
