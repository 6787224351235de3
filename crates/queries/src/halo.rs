//! Ghost-halo exchange: superstep evaluation of neighbourhood queries
//! (PageRank, clustering coefficients, k-NN) over sharded worlds.
//!
//! Count-style queries cross shard boundaries with a *cut correction* (DSU
//! gluing, boundary degree stamps).  Neighbourhood queries cannot: PageRank
//! needs every neighbour's rank each iteration, and a clustering coefficient
//! needs the edges *among* a vertex's neighbours.  This module closes that
//! gap with a ghost halo: every shard replicates the cut endpoints owned by
//! other shards (its *ghosts*, [`uncertain_graph::HaloPlan`]) plus all
//! support edges inside that extended vertex set, filters them by the
//! current world's edge presence ([`WorldPresence`]), runs the kernel
//! locally, and exchanges boundary values between supersteps —
//! Pregel-style iteration for PageRank, one-shot halo materialisation for
//! clustering, frontier exchange for BFS/k-NN.
//!
//! The exchange is in-process only.  Across processes a fleet splits
//! *worlds*, not vertices: every worker holds the whole graph and ships
//! back observer partials ([world blocks](crate::batch#world-blocks)), so
//! no halo value ever crosses a wire and this module carries no codec.
//!
//! # PageRank iteration equivalence
//!
//! The sharded PageRank is not merely "close" to the monolithic kernel
//! (`graph_algos::pagerank::pagerank_into`) — it reproduces it **bit for
//! bit**, iteration for iteration, because it keeps the operation order
//! that kernel's contract fixes ([`graph_algos::pagerank`]), term by term:
//!
//! * **Per-target ascending-source order.**  The kernel adds the shares
//!   into each `next[v]` in ascending source order, one addition per arc.
//!   A shard's push list ([`uncertain_graph::PushEdge`]) is sorted by
//!   `(global source, edge)` and covers exactly the edges with an owned
//!   target, so each owned `next[v]` folds the identical addends in the
//!   identical order — and floating-point addition, while not associative,
//!   is deterministic for a fixed sequence.  A share is the expression
//!   `damping * rank_u / deg` of the same bits wherever it is evaluated,
//!   so recomputing it per push edge yields the kernel's value.
//! * **Dangling mass.**  Every dangling (world-degree-0) vertex holds the
//!   same rank `r_d`, so the mass is [`dangling_mass`]`(r_d, k)` for the
//!   global dangling count `k`, which any shard can replay locally, no
//!   exchange needed.  The driver tracks `r_d` as `1/n` initially and the
//!   previous iteration's `base` thereafter.
//! * **Ascending delta fold.**  The kernel's delta is a left fold of
//!   `|rank[v] − next[v]|` over `v = 0..n` ascending.  Each shard writes
//!   its owned diffs into a global buffer that is folded once in
//!   ascending global order ([`ShardPageRank::write_diffs`]) — exact for
//!   *any* labelling.
//!
//! Identical per-iteration ranks and an identical delta give an identical
//! stop decision (`delta < tolerance`), hence the same iteration count and
//! bitwise-identical final ranks: iteration equivalence in the strongest
//! sense.
//!
//! Clustering coefficients are exact because `cc(v)` is a pure function of
//! integer degree and triangle counts, and the present-filtered halo world
//! of `v`'s shard contains `v`'s full neighbourhood plus every present edge
//! among it (ghost–ghost edges included).  BFS distances are integers and
//! order-free, so the frontier-exchange variant trivially matches.
//!
//! # Example: sharded PageRank, bit-identical to monolithic
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use uncertain_graph::{GraphPartition, UncertainGraph};
//! use ugs_queries::batch::QueryBatch;
//! use ugs_queries::mc::MonteCarlo;
//! use ugs_queries::node_queries::PageRankObserver;
//! use ugs_queries::sharded::ShardedWorldEngine;
//!
//! let g = UncertainGraph::from_edges(
//!     6,
//!     [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.6), (3, 4, 0.7), (4, 5, 0.5), (5, 0, 0.4)],
//! )
//! .unwrap();
//! let partition = GraphPartition::contiguous(&g, 2).unwrap();
//! let engine = ShardedWorldEngine::new(&g, &partition);
//!
//! // Same world budget and thread count as the monolithic batch below —
//! // per-world ranks are bitwise equal, so equal accumulation structure
//! // makes the *expectations* bitwise equal too.
//! let mut sharded = QueryBatch::from_sharded(&engine, 50, 1);
//! let hs = sharded.register(PageRankObserver::new(&g));
//! let sharded_pr = sharded.run(&mut SmallRng::seed_from_u64(9)).take(hs);
//!
//! let mut monolithic = QueryBatch::new(&g, &MonteCarlo::worlds(50));
//! let hm = monolithic.register(PageRankObserver::new(&g));
//! let monolithic_pr = monolithic.run(&mut SmallRng::seed_from_u64(9)).take(hm);
//!
//! // Not approximately equal: the same bits.
//! for (s, m) in sharded_pr.iter().zip(monolithic_pr.iter()) {
//!     assert_eq!(s.to_bits(), m.to_bits());
//! }
//! ```

use graph_algos::clustering::local_clustering_coefficients;
use graph_algos::pagerank::{dangling_mass, PageRankConfig};
use graph_algos::DeterministicGraph;
use uncertain_graph::{HaloPlan, ShardHalo, UncertainGraph, VertexId};

use crate::sharded::ShardedWorld;

/// Global edge-presence and degree structure of one sampled world, stamped
/// from the replayed full-graph present list that every shard-aware
/// consumer holds.  Resets incrementally between worlds (O(previous
/// present)), so steady-state stamping allocates nothing.
#[derive(Debug, Clone)]
pub struct WorldPresence {
    num_vertices: usize,
    present: Vec<bool>,
    degrees: Vec<u32>,
    touched_edges: Vec<u32>,
    touched_vertices: Vec<u32>,
}

impl WorldPresence {
    /// Pre-sized presence buffers for worlds of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        WorldPresence {
            num_vertices: g.num_vertices(),
            present: vec![false; g.num_edges()],
            degrees: vec![0; g.num_vertices()],
            touched_edges: Vec::with_capacity(g.num_edges()),
            touched_vertices: Vec::with_capacity(g.num_vertices()),
        }
    }

    /// Stamps the world whose present global edge ids are `present_edges`,
    /// rebuilding the per-vertex world degrees and the dangling count.
    pub fn stamp(&mut self, g: &UncertainGraph, present_edges: &[u32]) {
        let WorldPresence {
            present,
            degrees,
            touched_edges,
            touched_vertices,
            ..
        } = self;
        for &e in touched_edges.iter() {
            present[e as usize] = false;
        }
        for &v in touched_vertices.iter() {
            degrees[v as usize] = 0;
        }
        touched_edges.clear();
        touched_vertices.clear();
        for &e in present_edges {
            present[e as usize] = true;
            touched_edges.push(e);
            let (u, v) = g.edge_endpoints(e as usize);
            if degrees[u] == 0 {
                touched_vertices.push(u as u32);
            }
            degrees[u] += 1;
            if degrees[v] == 0 {
                touched_vertices.push(v as u32);
            }
            degrees[v] += 1;
        }
    }

    /// Whether global edge `e` is present in the stamped world.
    #[inline]
    pub fn edge_present(&self, e: u32) -> bool {
        self.present[e as usize]
    }

    /// World degree of global vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    /// Number of dangling (world-degree-0) vertices.
    pub fn dangling(&self) -> usize {
        self.num_vertices - self.touched_vertices.len()
    }
}

/// Per-shard PageRank superstep state: a halo-local rank vector (owned
/// vertices first, then ghosts in plan order) and the owned `next` buffer.
#[derive(Debug, Clone)]
pub struct ShardPageRank {
    owned: usize,
    rank: Vec<f64>,
    next: Vec<f64>,
}

impl ShardPageRank {
    /// State sized for one shard's halo.
    pub fn new(halo: &ShardHalo) -> Self {
        ShardPageRank {
            owned: halo.owned(),
            rank: vec![0.0; halo.halo_len()],
            next: vec![0.0; halo.owned()],
        }
    }

    /// Resets every rank (owned and ghost) to the uniform start value.
    pub fn reset(&mut self, uniform: f64) {
        self.rank.fill(uniform);
    }

    /// Installs an exchanged ghost rank (`ghost` indexes
    /// [`ShardHalo::ghosts`]).
    #[inline]
    pub fn set_ghost_rank(&mut self, ghost: usize, rank: f64) {
        self.rank[self.owned + ghost] = rank;
    }

    /// One push superstep: refills the owned `next` buffer with `base` and
    /// folds the present push contributions in `(global source, edge)`
    /// order — the monolithic per-target order (see the [module
    /// docs](self)).  Ranks of ghost sources must have been exchanged for
    /// this iteration first.
    pub fn superstep(
        &mut self,
        halo: &ShardHalo,
        presence: &WorldPresence,
        damping: f64,
        base: f64,
    ) {
        self.next.fill(base);
        for push in halo.push_edges() {
            if presence.edge_present(push.edge) {
                let rank_u = self.rank[push.source_halo as usize];
                let deg = presence.degree(push.source);
                self.next[push.target_local as usize] += damping * rank_u / deg as f64;
            }
        }
    }

    /// Writes the owned `|rank − next|` terms into a *global* diff buffer
    /// (`owned_globals` = the shard's local→global vertex map); folding
    /// that buffer once over ascending global ids reproduces the monolithic
    /// delta for any labelling.
    pub fn write_diffs(&self, owned_globals: &[VertexId], diffs: &mut [f64]) {
        for (local, &global) in owned_globals.iter().enumerate() {
            diffs[global] = (self.rank[local] - self.next[local]).abs();
        }
    }

    /// Commits the superstep: owned ranks take the `next` values.
    pub fn commit(&mut self) {
        self.rank[..self.owned].copy_from_slice(&self.next);
    }

    /// The owned ranks (halo-local ids `0..owned`).
    pub fn owned_ranks(&self) -> &[f64] {
        &self.rank[..self.owned]
    }
}

/// In-process sharded PageRank driver: per-shard [`ShardPageRank`] states
/// exchanging boundary ranks through a global rank board each superstep.
/// Produces bitwise the monolithic `pagerank` result on every world (see
/// the [module docs](self) for the argument).
#[derive(Debug, Clone, Default)]
pub struct HaloPageRank {
    states: Vec<ShardPageRank>,
    /// Global rank board: the in-process form of the boundary exchange.
    board: Vec<f64>,
    diffs: Vec<f64>,
    presence: Option<WorldPresence>,
}

impl HaloPageRank {
    /// An empty driver; buffers are sized lazily on the first world.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, view: &ShardedWorld<'_>, plan: &HaloPlan) {
        if self.presence.is_none() {
            self.presence = Some(WorldPresence::new(view.graph()));
            self.states = (0..plan.num_shards())
                .map(|s| ShardPageRank::new(plan.shard(s)))
                .collect();
            self.board = vec![0.0; view.num_vertices()];
            self.diffs = vec![0.0; view.num_vertices()];
        }
    }

    /// Runs the superstep loop on the current world of `view`; the returned
    /// slice holds the final global ranks.
    ///
    /// Callers must short-circuit 1-shard views to the monolithic kernel
    /// (their replay scatter skips the full-graph present list this driver
    /// stamps presence from).
    pub fn run(&mut self, view: &ShardedWorld<'_>, config: &PageRankConfig) -> &[f64] {
        let plan = view.halo_plan();
        let partition = view.partition();
        let n = view.num_vertices();
        self.ensure(view, plan);
        if n == 0 {
            return &self.board;
        }
        let presence = self.presence.as_mut().expect("ensured above");
        presence.stamp(view.graph(), view.all_present());
        let uniform = 1.0 / n as f64;
        self.board.fill(uniform);
        for state in &mut self.states {
            state.reset(uniform);
        }
        let mut rank_d = uniform;
        for _ in 0..config.max_iterations {
            let mass = dangling_mass(rank_d, presence.dangling());
            let base = (1.0 - config.damping) * uniform + config.damping * mass * uniform;
            for (s, state) in self.states.iter_mut().enumerate() {
                let halo = plan.shard(s);
                for (j, &ghost) in halo.ghosts().iter().enumerate() {
                    state.set_ghost_rank(j, self.board[ghost]);
                }
                state.superstep(halo, presence, config.damping, base);
            }
            for (s, state) in self.states.iter().enumerate() {
                state.write_diffs(partition.shard(s).vertices(), &mut self.diffs);
            }
            let delta: f64 = self.diffs.iter().sum();
            for (s, state) in self.states.iter_mut().enumerate() {
                state.commit();
                for (local, &global) in partition.shard(s).vertices().iter().enumerate() {
                    self.board[global] = state.owned_ranks()[local];
                }
            }
            rank_d = base;
            if delta < config.tolerance {
                break;
            }
        }
        &self.board
    }
}

/// One-shot halo materialisation for clustering coefficients: per shard,
/// filter the halo edge set by world presence, materialise the halo world,
/// run the monolithic clustering kernel, and keep the owned coefficients.
#[derive(Debug, Clone)]
pub struct HaloClustering {
    presence: Option<WorldPresence>,
    endpoints: Vec<(u32, u32)>,
    world: DeterministicGraph,
    coefficients: Vec<f64>,
}

impl Default for HaloClustering {
    fn default() -> Self {
        Self::new()
    }
}

impl HaloClustering {
    /// An empty driver; buffers are sized lazily on the first world.
    pub fn new() -> Self {
        HaloClustering {
            presence: None,
            endpoints: Vec::new(),
            world: DeterministicGraph::from_edges(0, &[]),
            coefficients: Vec::new(),
        }
    }

    /// Computes the per-vertex clustering coefficients of the current
    /// world of `view`, exactly as the monolithic kernel would.
    ///
    /// Callers must short-circuit 1-shard views to the monolithic kernel
    /// (see [`HaloPageRank::run`]).
    pub fn run(&mut self, view: &ShardedWorld<'_>) -> &[f64] {
        let plan = view.halo_plan();
        let partition = view.partition();
        let presence = self
            .presence
            .get_or_insert_with(|| WorldPresence::new(view.graph()));
        presence.stamp(view.graph(), view.all_present());
        self.coefficients.resize(view.num_vertices(), 0.0);
        for s in 0..plan.num_shards() {
            let halo = plan.shard(s);
            self.endpoints.clear();
            for &(a, b, e) in halo.halo_edges() {
                if presence.edge_present(e) {
                    self.endpoints.push((a, b));
                }
            }
            self.world
                .materialize_from_endpoints(halo.halo_len(), &self.endpoints);
            let cc = local_clustering_coefficients(&self.world);
            for (local, &global) in partition.shard(s).vertices().iter().enumerate() {
                self.coefficients[global] = cc[local];
            }
        }
        &self.coefficients
    }
}

/// Per-shard state of a level-synchronous halo BFS (the distributed k-NN /
/// shortest-path superstep): the shard expands its owned frontier over the
/// present halo adjacency, reports every newly settled halo vertex, and
/// absorbs the settlements the driver routes back.
#[derive(Debug, Clone, Default)]
pub struct ShardBfs {
    owned: usize,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    touched: Vec<u32>,
}

impl ShardBfs {
    /// An empty state; size with [`ShardBfs::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the state for a fresh traversal over a halo of
    /// `halo.halo_len()` vertices.
    pub fn reset(&mut self, halo: &ShardHalo) {
        self.owned = halo.owned();
        if self.dist.len() != halo.halo_len() {
            self.dist.clear();
            self.dist.resize(halo.halo_len(), u32::MAX);
            self.touched.clear();
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = u32::MAX;
            }
            self.touched.clear();
        }
        self.frontier.clear();
        self.next_frontier.clear();
    }

    /// Absorbs a routed settlement `(halo-local vertex, level)`: marks it
    /// visited and, when owned and newly settled, schedules it for the next
    /// expansion.
    pub fn absorb(&mut self, halo_local: u32, level: u32) {
        if self.dist[halo_local as usize] == u32::MAX {
            self.dist[halo_local as usize] = level;
            self.touched.push(halo_local);
            if (halo_local as usize) < self.owned {
                self.frontier.push(halo_local);
            }
        }
    }

    /// Expands the owned frontier one level over the present halo
    /// adjacency; every newly settled halo vertex is appended to `out` as
    /// `(halo-local vertex, level + 1)`, and newly settled *owned* vertices
    /// also seed the next expansion.
    pub fn expand(
        &mut self,
        halo: &ShardHalo,
        presence: &WorldPresence,
        level: u32,
        out: &mut Vec<(u32, u32)>,
    ) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        self.frontier.clear();
        for &v in &self.next_frontier {
            for &(neighbor, edge) in halo.halo_neighbors(v as usize) {
                if presence.edge_present(edge) && self.dist[neighbor as usize] == u32::MAX {
                    self.dist[neighbor as usize] = level + 1;
                    self.touched.push(neighbor);
                    out.push((neighbor, level + 1));
                    if (neighbor as usize) < self.owned {
                        self.frontier.push(neighbor);
                    }
                }
            }
        }
        self.next_frontier.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SampleMethod, WorldEngine};
    use crate::sharded::ShardedWorldEngine;
    use crate::source::{WorldSource, WorldView};
    use graph_algos::pagerank::pagerank;
    use graph_algos::traversal::bfs_distances;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uncertain_graph::GraphPartition;

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(
            9,
            [
                (0, 1, 0.9),
                (1, 2, 0.8),
                (0, 2, 0.7),
                (3, 4, 0.6),
                (4, 5, 0.5),
                (3, 5, 0.4),
                (2, 3, 0.3),
                (0, 5, 0.2),
                (6, 7, 0.55),
                (5, 6, 0.35),
            ],
        )
        .unwrap()
    }

    #[test]
    fn world_presence_tracks_degrees_and_dangling_across_worlds() {
        let g = toy();
        let mut presence = WorldPresence::new(&g);
        presence.stamp(&g, &[0, 6]); // edges (0,1) and (2,3)
        assert!(presence.edge_present(0));
        assert!(!presence.edge_present(1));
        assert_eq!(presence.degree(0), 1);
        assert_eq!(presence.degree(2), 1);
        assert_eq!(presence.dangling(), 5);
        presence.stamp(&g, &[]); // empty world resets everything
        assert!(!presence.edge_present(0));
        assert_eq!(presence.degree(0), 0);
        assert_eq!(presence.dangling(), 9);
    }

    #[test]
    fn halo_pagerank_is_bitwise_monolithic_over_worlds_and_labellings() {
        let g = toy();
        let labellings: Vec<Vec<usize>> = vec![
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2],
            (0..9).map(|v| v % 3).collect(),
            vec![1, 0, 1, 0, 1, 0, 1, 0, 1],
        ];
        for labels in labellings {
            let partition = GraphPartition::from_labels(&g, &labels, 3).unwrap();
            let sharded =
                ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::PerEdge);
            let monolithic = WorldEngine::new(&g).with_method(SampleMethod::PerEdge);
            let mut sharded_scratch = WorldSource::make_scratch(&sharded);
            let mut mono_scratch = monolithic.make_scratch();
            let mut rng_s = SmallRng::seed_from_u64(99);
            let mut rng_m = SmallRng::seed_from_u64(99);
            let mut driver = HaloPageRank::new();
            let config = PageRankConfig::default();
            for world in 0..60 {
                let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
                let expected = pagerank(mono_world, &config);
                let view = match sharded.sample_world(&mut rng_s, &mut sharded_scratch) {
                    WorldView::Sharded(view) => view,
                    _ => unreachable!(),
                };
                let got = driver.run(&view, &config);
                assert_eq!(got.len(), expected.len());
                for (v, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "world {world} vertex {v} labels {labels:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn halo_clustering_is_bitwise_monolithic() {
        let g = toy();
        let labels: Vec<usize> = (0..9).map(|v| v % 3).collect();
        let partition = GraphPartition::from_labels(&g, &labels, 3).unwrap();
        let sharded = ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::Skip);
        let monolithic = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut sharded_scratch = WorldSource::make_scratch(&sharded);
        let mut mono_scratch = monolithic.make_scratch();
        let mut rng_s = SmallRng::seed_from_u64(7);
        let mut rng_m = SmallRng::seed_from_u64(7);
        let mut driver = HaloClustering::new();
        for world in 0..80 {
            let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
            let expected = local_clustering_coefficients(mono_world);
            let view = match sharded.sample_world(&mut rng_s, &mut sharded_scratch) {
                WorldView::Sharded(view) => view,
                _ => unreachable!(),
            };
            let got = driver.run(&view);
            for (v, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "world {world} vertex {v}");
            }
        }
    }

    #[test]
    fn shard_bfs_supersteps_reproduce_monolithic_distances() {
        // Drive the per-shard BFS states exactly like the sharded driver
        // does: route settlements to owner shards, expand
        // level-synchronously, stop on a quiet superstep.
        let g = toy();
        let partition = GraphPartition::from_labels(&g, &[0, 1, 2, 0, 1, 2, 0, 1, 2], 3).unwrap();
        let plan = HaloPlan::new(&g, &partition);
        let engine = ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::Skip);
        let monolithic = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut sharded_scratch = WorldSource::make_scratch(&engine);
        let mut mono_scratch = monolithic.make_scratch();
        let mut rng_s = SmallRng::seed_from_u64(3);
        let mut rng_m = SmallRng::seed_from_u64(3);
        let mut presence = WorldPresence::new(&g);
        let mut states: Vec<ShardBfs> = (0..3).map(|_| ShardBfs::new()).collect();
        for world in 0..60 {
            let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
            let view = match engine.sample_world(&mut rng_s, &mut sharded_scratch) {
                WorldView::Sharded(view) => view,
                _ => unreachable!(),
            };
            presence.stamp(&g, view.all_present());
            for source in [0usize, 4, 8] {
                let expected = bfs_distances(mono_world, source);
                let mut global: Vec<u32> = vec![u32::MAX; g.num_vertices()];
                for (s, state) in states.iter_mut().enumerate() {
                    state.reset(plan.shard(s));
                }
                global[source] = 0;
                let mut settlements = vec![(source as u32, 0u32)];
                let mut level = 0u32;
                let mut reported: Vec<(u32, u32)> = Vec::new();
                loop {
                    // Route to owners, then expand every shard.
                    for &(v, lvl) in &settlements {
                        let owner = partition.shard_of(v as usize);
                        let halo_local = plan.shard(owner).halo_index(v as usize);
                        states[owner].absorb(halo_local, lvl);
                    }
                    settlements.clear();
                    for (s, state) in states.iter_mut().enumerate() {
                        reported.clear();
                        state.expand(plan.shard(s), &presence, level, &mut reported);
                        let halo = plan.shard(s);
                        for &(halo_local, lvl) in &reported {
                            let gid = if (halo_local as usize) < halo.owned() {
                                partition.shard(s).global_vertex(halo_local as usize) as u32
                            } else {
                                halo.ghosts()[halo_local as usize - halo.owned()] as u32
                            };
                            if global[gid as usize] == u32::MAX {
                                global[gid as usize] = lvl;
                                settlements.push((gid, lvl));
                            }
                        }
                    }
                    if settlements.is_empty() {
                        break;
                    }
                    level += 1;
                }
                for v in 0..g.num_vertices() {
                    let want = expected[v];
                    if want == usize::MAX {
                        assert_eq!(global[v], u32::MAX, "world {world} source {source} v {v}");
                    } else {
                        assert_eq!(
                            global[v] as usize, want,
                            "world {world} source {source} v {v}"
                        );
                    }
                }
            }
        }
    }
}
