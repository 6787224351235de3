//! The reusable world-sampling engine: samples possible worlds and
//! materialises them as [`DeterministicGraph`]s with **zero heap
//! allocations per world** in steady state.
//!
//! The engine splits per-graph from per-world state:
//!
//! * [`WorldEngine`] — immutable, built once per graph: the borrowed
//!   [`UncertainGraph`] (whose endpoint table resolves each present edge)
//!   and a [`SkipSampler`] (edges sorted by descending probability,
//!   geometric skips — `O(Σ pₑ)` expected draws per world).  Shareable
//!   across threads.
//! * [`WorldScratch`] — mutable, one per thread: the present-edge and
//!   endpoint buffers and a [`DeterministicGraph`] whose CSR buffers are
//!   recycled world after world.  Observers read the world as its CSR or
//!   as its present endpoints.
//!
//! A world has one representation on this path: the list of its present
//! edge ids, resolved to endpoints and compacted into a CSR by
//! [`DeterministicGraph::materialize_from_endpoints`].
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use uncertain_graph::UncertainGraph;
//! use ugs_queries::engine::WorldEngine;
//!
//! let g = UncertainGraph::from_edges(3, [(0, 1, 0.9), (1, 2, 0.4)]).unwrap();
//! let engine = WorldEngine::new(&g);
//! let mut scratch = engine.make_scratch();
//! let mut rng = SmallRng::seed_from_u64(7);
//! for _ in 0..100 {
//!     let world = engine.sample_world(&mut rng, &mut scratch);
//!     assert!(world.num_edges() <= 2); // no allocation happened here
//! }
//! ```

use rand::Rng;
use uncertain_graph::{SkipSampler, UncertainGraph, WorldSampler};

use graph_algos::DeterministicGraph;

/// How the engine draws the Bernoulli edge outcomes of a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleMethod {
    /// Pick automatically: skip-sampling when the mean edge probability is
    /// at most 0.5 (the sparsified-graph
    /// regime the paper targets), per-edge otherwise.
    #[default]
    Auto,
    /// One Bernoulli draw per edge in edge-id order — consumes the RNG
    /// exactly like [`WorldSampler::sample`], so results are bit-identical
    /// to the pre-engine driver for the same seed.
    PerEdge,
    /// Geometric skip-sampling over the edges sorted by descending
    /// probability: `O(Σ pₑ)` expected draws per world.
    Skip,
}

impl SampleMethod {
    /// Mean edge probability at or below which [`SampleMethod::Auto`]
    /// selects skip-sampling.  Above it, a plain per-edge sweep is cheaper
    /// than paying a logarithm per (almost always present) edge.
    pub(crate) const AUTO_SKIP_THRESHOLD: f64 = 0.5;

    /// The method an engine built for `g` with this method samples with
    /// ([`WorldEngine::effective_method`]), worked out from the graph
    /// alone in `O(|E|)`: it lets a caller that keeps one engine per
    /// method find the engine an [`SampleMethod::Auto`] request resolves
    /// to without building one.
    pub fn resolve_for(self, g: &UncertainGraph) -> SampleMethod {
        // Summed in edge order, exactly as `SkipSampler::new` sums
        // `expected_present`.
        self.resolve_mean(g.probabilities().iter().sum(), g.num_edges())
    }

    /// Resolves [`SampleMethod::Auto`] against a graph's [`SkipSampler`];
    /// concrete methods pass through.
    fn resolve(self, sampler: &SkipSampler) -> SampleMethod {
        self.resolve_mean(sampler.expected_present(), sampler.num_edges())
    }

    /// **The single resolution rule**: [`SampleMethod::Auto`] becomes
    /// skip-sampling when the mean edge probability (`expected_present`
    /// over `m` edges) is at most [`SampleMethod::AUTO_SKIP_THRESHOLD`],
    /// per-edge otherwise.  Every engine built for the same graph and
    /// method takes the same sampling path, so plans, server jobs and fleet
    /// blocks replay one world stream.
    fn resolve_mean(self, expected_present: f64, m: usize) -> SampleMethod {
        match self {
            SampleMethod::Auto => {
                let mean = if m == 0 {
                    0.0
                } else {
                    expected_present / m as f64
                };
                if mean <= SampleMethod::AUTO_SKIP_THRESHOLD {
                    SampleMethod::Skip
                } else {
                    SampleMethod::PerEdge
                }
            }
            other => other,
        }
    }
}

/// Per-thread scratch state: reused buffers for one world at a time.
///
/// Create with [`WorldEngine::make_scratch`]; every buffer is pre-sized for
/// the engine's graph so the sample–materialise cycle never allocates.
#[derive(Debug, Clone)]
pub struct WorldScratch {
    /// Present edge ids of the current world.
    present: Vec<u32>,
    /// Endpoints of the present edges (resolved once per world, so the
    /// materialisation passes scan sequentially instead of gathering from
    /// the edge table).
    endpoints: Vec<(u32, u32)>,
    /// The materialised world (buffers recycled between worlds).
    world: DeterministicGraph,
}

impl WorldScratch {
    /// Present edge ids of the most recently sampled world.
    pub fn present_edges(&self) -> &[u32] {
        &self.present
    }

    /// Endpoints of the most recently materialised world's present edges,
    /// in [`WorldScratch::present_edges`] order: the world's edge list, for
    /// kernels that only need its edges (like [`WorldScratch::world`], stale
    /// after [`WorldEngine::advance_world`]).
    pub(crate) fn present_endpoints(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// The most recently materialised world.
    pub(crate) fn world(&self) -> &DeterministicGraph {
        &self.world
    }
}

/// Immutable world-sampling engine for one uncertain graph.
///
/// Construction costs one `O(|E| log |E|)` sort (for the skip order, 24 B
/// per edge); the graph itself is borrowed, not copied.  Afterwards
/// [`WorldEngine::sample_world`] runs in `O(|V| + Σ pₑ)` expected time per
/// world with zero heap allocations.
#[derive(Debug, Clone)]
pub struct WorldEngine<'g> {
    graph: &'g UncertainGraph,
    sampler: SkipSampler,
    method: SampleMethod,
}

impl<'g> WorldEngine<'g> {
    /// Builds the engine for `g` with [`SampleMethod::Auto`].
    pub fn new(g: &'g UncertainGraph) -> Self {
        WorldEngine {
            sampler: SkipSampler::new(g),
            method: SampleMethod::Auto,
            graph: g,
        }
    }

    /// Overrides the sampling method.
    pub fn with_method(mut self, method: SampleMethod) -> Self {
        self.method = method;
        self
    }

    /// The graph this engine samples from.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.graph
    }

    /// The method the engine will actually use (resolves
    /// [`SampleMethod::Auto`] from the mean edge probability, in O(1)).
    pub fn effective_method(&self) -> SampleMethod {
        self.method.resolve(&self.sampler)
    }

    /// Creates a pre-sized per-thread scratch.
    pub fn make_scratch(&self) -> WorldScratch {
        let m = self.graph.num_edges();
        WorldScratch {
            present: Vec::with_capacity(m),
            endpoints: Vec::with_capacity(m),
            world: DeterministicGraph::with_capacity_for(self.graph),
        }
    }

    /// Draws the edge outcomes of one world into `scratch.present` without
    /// materialising the CSR.
    fn sample_present<R: Rng + ?Sized>(&self, rng: &mut R, present: &mut Vec<u32>) {
        match self.effective_method() {
            SampleMethod::PerEdge => {
                WorldSampler::new().sample_present_into(self.graph, rng, present);
            }
            SampleMethod::Skip => {
                self.sampler.sample_present_into(rng, present);
            }
            SampleMethod::Auto => unreachable!("effective_method always resolves Auto"),
        }
    }

    /// Advances the RNG past one world without materialising it: draws
    /// exactly the same edge outcomes as [`WorldEngine::sample_world`]
    /// (consuming the RNG identically, so a subsequent `sample_world` sees
    /// the same stream it would have after a full sample) but skips both CSR
    /// materialisation passes.  Used by the batch driver to hand each
    /// parallel worker the same deterministic world sequence regardless of
    /// the thread count.  `scratch.world()` is left stale; only
    /// `scratch.present_edges()` reflects the advanced-past world.
    pub fn advance_world<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut WorldScratch) {
        self.sample_present(rng, &mut scratch.present);
    }

    /// Samples one world and materialises it into `scratch`, returning the
    /// materialised [`DeterministicGraph`].  Allocation-free in steady
    /// state.
    pub fn sample_world<'s, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &'s mut WorldScratch,
    ) -> &'s DeterministicGraph {
        self.sample_present(rng, &mut scratch.present);
        // Resolve endpoints once; the two materialisation passes then run
        // over this compact sequential buffer.
        let endpoints = self.graph.endpoints();
        scratch.endpoints.clear();
        scratch
            .endpoints
            .extend(scratch.present.iter().map(|&e| endpoints[e as usize]));
        scratch
            .world
            .materialize_from_endpoints(self.graph.num_vertices(), &scratch.endpoints);
        &scratch.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uncertain_graph::PossibleWorld;

    fn toy(p: f64) -> UncertainGraph {
        UncertainGraph::from_edges(
            5,
            [
                (0, 1, p),
                (1, 2, p),
                (2, 3, p),
                (3, 4, p),
                (4, 0, p),
                (0, 2, p),
            ],
        )
        .unwrap()
    }

    #[test]
    fn auto_method_tracks_mean_probability() {
        let sparse = toy(0.2);
        let dense = toy(0.9);
        assert_eq!(
            WorldEngine::new(&sparse).effective_method(),
            SampleMethod::Skip
        );
        assert_eq!(
            WorldEngine::new(&dense).effective_method(),
            SampleMethod::PerEdge
        );
        let forced = WorldEngine::new(&dense).with_method(SampleMethod::Skip);
        assert_eq!(forced.effective_method(), SampleMethod::Skip);
    }

    #[test]
    fn resolving_from_the_graph_matches_the_engine() {
        // Mean 0.5 sits on the threshold (skip); the empty graph resolves
        // like an engine over it.
        for g in [
            toy(0.2),
            toy(0.5),
            toy(0.9),
            UncertainGraph::from_edges(3, []).unwrap(),
        ] {
            for method in [
                SampleMethod::Auto,
                SampleMethod::Skip,
                SampleMethod::PerEdge,
            ] {
                let engine = WorldEngine::new(&g).with_method(method);
                assert_eq!(method.resolve_for(&g), engine.effective_method());
            }
        }
    }

    #[test]
    fn per_edge_mode_reproduces_the_reference_sampler_exactly() {
        // Same seed ⇒ the engine's per-edge mode draws the exact same worlds
        // as the legacy `WorldSampler::sample` path, world after world.
        let g = toy(0.4);
        let engine = WorldEngine::new(&g).with_method(SampleMethod::PerEdge);
        let mut scratch = engine.make_scratch();
        let mut rng_engine = SmallRng::seed_from_u64(99);
        let mut rng_reference = SmallRng::seed_from_u64(99);
        let reference = WorldSampler::new();
        for _ in 0..500 {
            engine.sample_world(&mut rng_engine, &mut scratch);
            let world = reference.sample(&g, &mut rng_reference);
            let expected: Vec<u32> = world.present_edges().map(|e| e as u32).collect();
            assert_eq!(scratch.present_edges(), expected.as_slice());
        }
    }

    #[test]
    fn sampled_worlds_match_reference_materialisation() {
        // For every method, the materialised CSR must equal what the legacy
        // from_world path builds for the same edge set.
        let g = toy(0.35);
        for method in [SampleMethod::PerEdge, SampleMethod::Skip] {
            let engine = WorldEngine::new(&g).with_method(method);
            let mut scratch = engine.make_scratch();
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..200 {
                engine.sample_world(&mut rng, &mut scratch);
                let mut mask = vec![false; g.num_edges()];
                for &e in scratch.present_edges() {
                    mask[e as usize] = true;
                }
                let world = scratch.world();
                let reference = DeterministicGraph::from_world(&g, &PossibleWorld::new(mask));
                assert_eq!(world.num_vertices(), reference.num_vertices());
                assert_eq!(world.num_edges(), reference.num_edges());
                for u in 0..world.num_vertices() {
                    let mut got: Vec<usize> = world.neighbors(u).collect();
                    let mut want: Vec<usize> = reference.neighbors(u).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{method:?} vertex {u}");
                }
            }
        }
    }

    #[test]
    fn skip_sampling_matches_edge_frequencies() {
        let g =
            UncertainGraph::from_edges(4, [(0, 1, 0.05), (1, 2, 0.35), (2, 3, 0.85), (0, 3, 1.0)])
                .unwrap();
        let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut scratch = engine.make_scratch();
        let mut rng = SmallRng::seed_from_u64(3);
        let worlds = 60_000;
        let mut hits = [0usize; 4];
        for _ in 0..worlds {
            engine.sample_world(&mut rng, &mut scratch);
            for &e in scratch.present_edges() {
                hits[e as usize] += 1;
            }
        }
        for (e, &expected) in [0.05, 0.35, 0.85, 1.0].iter().enumerate() {
            let freq = hits[e] as f64 / worlds as f64;
            assert!(
                (freq - expected).abs() < 0.01,
                "edge {e}: {freq} vs {expected}"
            );
        }
    }

    #[test]
    fn advance_world_consumes_the_rng_exactly_like_sample_world() {
        let g = toy(0.35);
        for method in [SampleMethod::PerEdge, SampleMethod::Skip] {
            let engine = WorldEngine::new(&g).with_method(method);
            let mut sampled = engine.make_scratch();
            let mut advanced = engine.make_scratch();
            let mut rng_sample = SmallRng::seed_from_u64(17);
            let mut rng_advance = SmallRng::seed_from_u64(17);
            for _ in 0..200 {
                engine.sample_world(&mut rng_sample, &mut sampled);
                engine.advance_world(&mut rng_advance, &mut advanced);
                assert_eq!(
                    sampled.present_edges(),
                    advanced.present_edges(),
                    "{method:?}"
                );
            }
            // Both RNGs must be in the same state afterwards.
            assert_eq!(
                rng_sample.gen::<u64>(),
                rng_advance.gen::<u64>(),
                "{method:?}"
            );
        }
    }

    #[test]
    fn scratch_buffers_do_not_grow_after_warmup() {
        let g = toy(0.5);
        let engine = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut scratch = engine.make_scratch();
        let mut rng = SmallRng::seed_from_u64(5);
        engine.sample_world(&mut rng, &mut scratch);
        let present_cap = scratch.present.capacity();
        for _ in 0..1_000 {
            engine.sample_world(&mut rng, &mut scratch);
        }
        assert_eq!(scratch.present.capacity(), present_cap);
    }

    #[test]
    fn empty_graph_samples_empty_worlds() {
        let g = UncertainGraph::from_edges(3, []).unwrap();
        let engine = WorldEngine::new(&g);
        let mut scratch = engine.make_scratch();
        let mut rng = SmallRng::seed_from_u64(1);
        let world = engine.sample_world(&mut rng, &mut scratch);
        assert_eq!(world.num_edges(), 0);
        assert_eq!(world.num_vertices(), 3);
        assert_eq!(world.degree(2), 0);
    }
}
