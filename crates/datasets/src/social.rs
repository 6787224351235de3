//! Flickr-like and Twitter-like uncertain social networks (Table 1, top).
//!
//! The real datasets are not redistributable; these generators reproduce
//! their statistical shape (heavy-tailed degrees, edge-to-vertex ratio and
//! edge-probability distribution) at several scales so that every experiment
//! of the paper can be re-run on a laptop.  The `Paper` scale matches the
//! published vertex counts and densities and is only intended for long,
//! offline runs.

use rand::Rng;
use uncertain_graph::UncertainGraph;

use crate::powerlaw::preferential_attachment;
use crate::probability::ProbabilityModel;

/// Dataset scale.  Each scale fixes the vertex count and the average degree
/// of the generated graphs; the probability distributions are identical
/// across scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A few hundred vertices — unit tests and doc examples.
    Tiny,
    /// ~1 000 vertices — the default for the experiment harness; every
    /// experiment finishes in minutes.
    #[default]
    Small,
    /// ~5 000 vertices — closer to the reduced Flickr instance the paper
    /// uses for its LP comparison.
    Medium,
    /// The published sizes (Flickr: 78 322 vertices / |E|/|V| ≈ 130,
    /// Twitter: 26 362 vertices / |E|/|V| ≈ 25).  Hours of compute; not run
    /// by default.
    Paper,
}

impl Scale {
    /// `(num_vertices, edges_per_vertex)` for a Flickr-shaped graph
    /// (|E|/|V| ≈ 130 at paper scale, reduced proportionally below).
    pub(crate) fn flickr_parameters(&self) -> (usize, usize) {
        match self {
            Scale::Tiny => (200, 8),
            Scale::Small => (1_000, 24),
            Scale::Medium => (5_000, 48),
            Scale::Paper => (78_322, 130),
        }
    }

    /// `(num_vertices, edges_per_vertex)` for a Twitter-shaped graph
    /// (|E|/|V| ≈ 25 at paper scale).
    pub(crate) fn twitter_parameters(&self) -> (usize, usize) {
        match self {
            Scale::Tiny => (200, 4),
            Scale::Small => (1_000, 10),
            Scale::Medium => (5_000, 18),
            Scale::Paper => (26_362, 25),
        }
    }

    /// Parses a scale name (`"tiny"`, `"small"`, `"medium"`, `"paper"`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Generates a Flickr-shaped uncertain graph: preferential-attachment
/// topology with the dense hub structure of the original (|E|/|V| ≈ 130 at
/// full scale) and low, skewed edge probabilities (mean ≈ 0.09).
pub fn flickr_like<R: Rng + ?Sized>(scale: Scale, rng: &mut R) -> UncertainGraph {
    let (n, m) = scale.flickr_parameters();
    preferential_attachment(n, m, ProbabilityModel::FlickrLike, rng)
}

/// Generates a Twitter-shaped uncertain graph: sparser than Flickr
/// (|E|/|V| ≈ 25) with higher edge probabilities (mean ≈ 0.15) and a
/// deterministic tail.
pub fn twitter_like<R: Rng + ?Sized>(scale: Scale, rng: &mut R) -> UncertainGraph {
    let (n, m) = scale.twitter_parameters();
    preferential_attachment(n, m, ProbabilityModel::TwitterLike, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uncertain_graph::GraphStatistics;

    #[test]
    fn flickr_like_matches_target_statistics_at_small_scale() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = flickr_like(Scale::Small, &mut rng);
        let stats = GraphStatistics::compute(&g);
        assert_eq!(stats.num_vertices, 1_000);
        assert!(
            stats.edge_vertex_ratio > 20.0,
            "ratio {}",
            stats.edge_vertex_ratio
        );
        assert!((stats.mean_edge_probability - 0.09).abs() < 0.03);
        assert!(stats.support_connected);
    }

    #[test]
    fn twitter_like_is_sparser_but_more_certain_than_flickr_like() {
        let mut rng = SmallRng::seed_from_u64(2);
        let flickr = flickr_like(Scale::Small, &mut rng);
        let twitter = twitter_like(Scale::Small, &mut rng);
        let fs = GraphStatistics::compute(&flickr);
        let ts = GraphStatistics::compute(&twitter);
        assert!(ts.edge_vertex_ratio < fs.edge_vertex_ratio);
        assert!(ts.mean_edge_probability > fs.mean_edge_probability);
        assert!((ts.mean_edge_probability - 0.15).abs() < 0.04);
    }

    #[test]
    fn tiny_scale_graphs_are_cheap_and_connected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = flickr_like(Scale::Tiny, &mut rng);
        assert_eq!(g.num_vertices(), 200);
        assert!(g.support_is_connected());
        let g = twitter_like(Scale::Tiny, &mut rng);
        assert_eq!(g.num_vertices(), 200);
        assert!(g.support_is_connected());
    }

    #[test]
    fn scale_parsing_round_trips() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("Medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("galactic"), None);
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn paper_scale_parameters_match_table_1() {
        let (n, m) = Scale::Paper.flickr_parameters();
        assert_eq!(n, 78_322);
        assert_eq!(m, 130);
        let (n, m) = Scale::Paper.twitter_parameters();
        assert_eq!(n, 26_362);
        assert_eq!(m, 25);
    }
}
