//! Order statistics shared by every report line.

/// Samples a tail percentile must leave above itself before the report may
/// name it: fewer, and the "percentile" is really one of the last few
/// samples, i.e. close to the maximum.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.  Returns the value and its 1-based rank.
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    // The epsilon keeps `99.9 % of 10 000` at rank 9990 despite rounding.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    Some((sorted[rank - 1], rank))
}

/// A tail latency together with what it honestly is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

impl Tail {
    /// `p99 over 1234 samples (12 beyond)`-style label.
    pub fn label(&self) -> String {
        format!(
            "p{} over {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// samples above it; `None` when even the lowest candidate does not.
pub fn tail(values: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let (value, rank) = percentile(values, p)?;
        let beyond = values.len() - rank;
        (beyond >= MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            samples: values.len(),
            beyond,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the picker has to sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values = one_to(100);
        assert_eq!(percentile(&values, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&values, 99.0), Some((99.0, 99)));
        assert_eq!(percentile(&values, 99.9), Some((100.0, 100)));
        assert_eq!(percentile(&[7.0], 99.0), Some((7.0, 1)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p99 leaves 1 above it, p95 leaves 5, p90 leaves 10.
        let tail100 = tail(&one_to(100)).unwrap();
        assert_eq!((tail100.percentile, tail100.value), (90.0, 90.0));
        assert_eq!((tail100.samples, tail100.beyond), (100, 10));
        // 1000 samples: p99 has exactly ten above it.
        let tail1000 = tail(&one_to(1000)).unwrap();
        assert_eq!((tail1000.percentile, tail1000.value), (99.0, 990.0));
        // 10 000 samples: p99.9 has exactly ten above it.
        assert_eq!(tail(&one_to(10_000)).unwrap().percentile, 99.9);
        // 40 samples: only p75 leaves ten above it.
        let tail40 = tail(&one_to(40)).unwrap();
        assert_eq!(
            (tail40.percentile, tail40.value, tail40.beyond),
            (75.0, 30.0, 10)
        );
        // 16 samples (the old "p99 over 16 cold samples"): no honest tail.
        assert_eq!(tail(&one_to(16)), None);
        assert_eq!(tail(&[]), None);
    }
}
