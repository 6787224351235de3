//! Pins the graphs every generator builds, bit for bit.
//!
//! Each constant is the graph's [`UncertainGraph::fingerprint`] (FNV-1a over
//! the vertex count, every edge's endpoints in id order and the bits of every
//! probability), computed at commit `564b422`, before graph construction
//! moved to one duplicate-set probe per edge.  A change to how graphs are
//! built must leave these constants alone; a change that alters a
//! generator's output on purpose re-pins them and says so in CHANGES.md.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_datasets::prelude::*;
use uncertain_graph::UncertainGraph;

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

const UNIFORM: ProbabilityModel = ProbabilityModel::Uniform {
    low: 0.05,
    high: 0.95,
};

/// 64-bit FNV-1a over bytes: hashes the forest-fire vertex map, and names
/// perfbench's seed streams.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every pinned small graph, by name, with its fingerprint (and, for the
/// forest-fire sample, the hash of its vertex map as its own row).
fn small_graphs() -> Vec<(&'static str, u64)> {
    let fingerprint = |g: &UncertainGraph| g.fingerprint();
    let mut rows = vec![
        (
            "preferential_attachment Fixed",
            fingerprint(&preferential_attachment(
                300,
                3,
                ProbabilityModel::Fixed(0.3),
                &mut rng(1),
            )),
        ),
        (
            "preferential_attachment Uniform",
            fingerprint(&preferential_attachment(300, 4, UNIFORM, &mut rng(2))),
        ),
        (
            "preferential_attachment FlickrLike",
            fingerprint(&preferential_attachment(
                250,
                5,
                ProbabilityModel::FlickrLike,
                &mut rng(3),
            )),
        ),
        (
            "preferential_attachment TwitterLike",
            fingerprint(&preferential_attachment(
                250,
                4,
                ProbabilityModel::TwitterLike,
                &mut rng(4),
            )),
        ),
        (
            "preferential_attachment dense",
            fingerprint(&preferential_attachment(
                7,
                5,
                ProbabilityModel::Fixed(1.0),
                &mut rng(5),
            )),
        ),
        (
            "erdos_renyi",
            fingerprint(&erdos_renyi(120, 0.08, UNIFORM, &mut rng(6))),
        ),
        (
            "flickr_like Tiny",
            fingerprint(&flickr_like(Scale::Tiny, &mut rng(7))),
        ),
        (
            "twitter_like Tiny",
            fingerprint(&twitter_like(Scale::Tiny, &mut rng(8))),
        ),
    ];

    let mut fire = rng(9);
    let source = preferential_attachment(1_500, 5, ProbabilityModel::TwitterLike, &mut fire);
    let (sample, vertex_map) = forest_fire_sample(&source, 400, 0.7, &mut fire);
    rows.push(("forest_fire_sample", fingerprint(&sample)));
    rows.push((
        "forest_fire_sample vertex map",
        fnv1a(vertex_map.iter().flat_map(|&v| (v as u64).to_le_bytes())),
    ));

    let mut dense = rng(10);
    let base = preferential_attachment(80, 3, ProbabilityModel::FlickrLike, &mut dense);
    rows.push((
        "densified 0.3",
        fingerprint(&densified(
            &base,
            0.3,
            ProbabilityModel::FlickrLike,
            &mut dense,
        )),
    ));
    let names = [
        "density_sweep 0.15",
        "density_sweep 0.30",
        "density_sweep 0.50",
        "density_sweep 0.90",
    ];
    let sweep = density_sweep(&base, ProbabilityModel::TwitterLike, &mut dense);
    for (name, (_, g)) in names.into_iter().zip(&sweep) {
        rows.push((name, fingerprint(g)));
    }
    rows
}

const SMALL_PINS: [(&str, u64); 15] = [
    ("preferential_attachment Fixed", 0xdffa970d0cacdf2e),
    ("preferential_attachment Uniform", 0xe1643d3965e26560),
    ("preferential_attachment FlickrLike", 0x9b5b2c6a3f051c8a),
    ("preferential_attachment TwitterLike", 0x4953a3f02469ec77),
    ("preferential_attachment dense", 0x32ba2ef910904301),
    ("erdos_renyi", 0x90aa7663ff71f2ca),
    ("flickr_like Tiny", 0xc4c911f0ebc3dcf0),
    ("twitter_like Tiny", 0x5722d87751451947),
    ("forest_fire_sample", 0xb7a6d91cf24a7f97),
    ("forest_fire_sample vertex map", 0xd8e5feed6126e5ca),
    ("densified 0.3", 0x5a82046d8ee8f517),
    ("density_sweep 0.15", 0x4608daa3dfe11c4a),
    ("density_sweep 0.30", 0x18aee0c296188d2b),
    ("density_sweep 0.50", 0xfa3645d261c258ef),
    ("density_sweep 0.90", 0xfc9346f646ac461e),
];

#[test]
fn generators_build_the_pinned_graphs() {
    let rows = small_graphs();
    let table: String = rows
        .iter()
        .map(|(name, hash)| format!("    ({name:?}, 0x{hash:016x}),\n"))
        .collect();
    let expected: Vec<(&str, u64)> = SMALL_PINS.to_vec();
    assert_eq!(rows, expected, "fingerprints now read:\n{table}");
}

/// perfbench's graph seed for a workload seed: the first `u64` of the
/// workload seed's `"graph"` stream, as `perfbench/src/ops.rs` derives it.
fn perfbench_graph_seed(workload_seed: u64) -> u64 {
    SmallRng::seed_from_u64(workload_seed ^ fnv1a(*b"graph")).gen()
}

/// perfbench's 60 000-vertex, 240k-edge graph for workload seed 901: every
/// perfbench header prints this fingerprint.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds a 60 000-vertex graph; runs in release builds"
)]
fn perfbench_graph_is_pinned() {
    let g = preferential_attachment(
        60_000,
        4,
        ProbabilityModel::Fixed(0.09),
        &mut rng(perfbench_graph_seed(901)),
    );
    assert_eq!(g.num_edges(), 10 + (60_000 - 5) * 4);
    assert_eq!(format!("{:016x}", g.fingerprint()), "977ef6aa87b80e37");
}
