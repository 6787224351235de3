//! Edge-probability distributions matched to the paper's datasets.
//!
//! * Flickr probabilities come from a Jaccard-style similarity of user
//!   interests: most edges are very unlikely (mean 0.09) with a long thin
//!   tail towards 1.
//! * Twitter probabilities model user-to-user influence: the mean is higher
//!   (0.15) and a noticeable fraction of edges is (almost) certain, which is
//!   why the paper observes that Twitter backbones become "almost
//!   deterministic" at small `α`.
//!
//! Both are modelled with simple transformed-uniform mixtures; the generators
//! only need the mean and the qualitative skew to reproduce the paper's
//! behaviour.

use rand::Rng;

/// A distribution over edge probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbabilityModel {
    /// Every edge gets the same probability.
    Fixed(f64),
    /// Uniform on `[low, high]` (clamped to `(0, 1]`).
    Uniform {
        /// Lower bound (exclusive of 0 after clamping).
        low: f64,
        /// Upper bound.
        high: f64,
    },
    /// Skewed low-probability distribution matched to Flickr
    /// (`E[p] ≈ 0.09`): `p = 0.01 + 0.6·u³` for `u ~ U(0,1)`, occasionally
    /// boosted to model the few strong ties.
    FlickrLike,
    /// Higher-mean distribution matched to Twitter (`E[p] ≈ 0.15`) with a
    /// deterministic tail: with probability 0.05 the edge is nearly certain,
    /// otherwise `p = 0.02 + 0.35·u²`.
    TwitterLike,
}

impl ProbabilityModel {
    /// Draws one probability.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let p = match *self {
            ProbabilityModel::Fixed(p) => p,
            ProbabilityModel::Uniform { low, high } => {
                if high > low {
                    rng.gen_range(low..=high)
                } else {
                    low
                }
            }
            ProbabilityModel::FlickrLike => {
                let u: f64 = rng.gen();
                let base = 0.01 + 0.27 * u * u * u;
                if rng.gen::<f64>() < 0.02 {
                    // a few strong ties
                    0.5 + 0.5 * rng.gen::<f64>()
                } else {
                    base
                }
            }
            ProbabilityModel::TwitterLike => {
                if rng.gen::<f64>() < 0.05 {
                    0.9 + 0.1 * rng.gen::<f64>()
                } else {
                    let u: f64 = rng.gen();
                    0.02 + 0.28 * u * u
                }
            }
        };
        p.clamp(f64::MIN_POSITIVE, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    impl ProbabilityModel {
        /// Draws `count` probabilities.
        fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<f64> {
            (0..count).map(|_| self.sample(rng)).collect()
        }
    }

    fn empirical_mean(model: ProbabilityModel, samples: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(99);
        model.sample_many(samples, &mut rng).iter().sum::<f64>() / samples as f64
    }

    #[test]
    fn all_models_produce_valid_probabilities() {
        let mut rng = SmallRng::seed_from_u64(1);
        for model in [
            ProbabilityModel::Fixed(0.3),
            ProbabilityModel::Uniform {
                low: 0.1,
                high: 0.9,
            },
            ProbabilityModel::FlickrLike,
            ProbabilityModel::TwitterLike,
        ] {
            for _ in 0..5_000 {
                let p = model.sample(&mut rng);
                assert!(p > 0.0 && p <= 1.0, "{model:?} produced {p}");
            }
        }
    }

    #[test]
    fn flickr_model_matches_the_papers_mean_probability() {
        // Table 1: E[p_e] = 0.09 for Flickr.
        let mean = empirical_mean(ProbabilityModel::FlickrLike, 200_000);
        assert!((mean - 0.09).abs() < 0.03, "mean {mean}");
        // strongly skewed: the median is far below the mean
        let mut rng = SmallRng::seed_from_u64(5);
        let mut samples = ProbabilityModel::FlickrLike.sample_many(10_001, &mut rng);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(samples[5_000] < mean);
    }

    #[test]
    fn twitter_model_matches_the_papers_mean_probability() {
        // Table 1: E[p_e] = 0.15 for Twitter.
        let mean = empirical_mean(ProbabilityModel::TwitterLike, 200_000);
        assert!((mean - 0.15).abs() < 0.04, "mean {mean}");
        // and it has a deterministic tail
        let mut rng = SmallRng::seed_from_u64(5);
        let near_one = ProbabilityModel::TwitterLike
            .sample_many(20_000, &mut rng)
            .iter()
            .filter(|&&p| p > 0.9)
            .count();
        assert!(
            near_one > 500,
            "expected a deterministic tail, got {near_one}"
        );
    }

    #[test]
    fn fixed_and_uniform_models_behave_as_configured() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(ProbabilityModel::Fixed(0.4).sample(&mut rng), 0.4);
        let mean = empirical_mean(
            ProbabilityModel::Uniform {
                low: 0.2,
                high: 0.6,
            },
            50_000,
        );
        assert!((mean - 0.4).abs() < 0.01);
        assert_eq!(
            ProbabilityModel::Uniform {
                low: 0.5,
                high: 0.5
            }
            .sample(&mut rng),
            0.5
        );
    }

    #[test]
    fn samples_are_reproducible_for_a_fixed_seed() {
        let a = ProbabilityModel::FlickrLike.sample_many(100, &mut SmallRng::seed_from_u64(3));
        let b = ProbabilityModel::FlickrLike.sample_many(100, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
