//! Run-to-run variance of Monte-Carlo estimators (Section 6.3, Figure 12)
//! and the streaming accumulators behind adaptive-precision sampling.
//!
//! Different executions of the same Monte-Carlo estimator yield different
//! results; the paper quantifies this with the unbiased sample variance over
//! 100 repetitions and compares `σ̂(G')/σ̂(G)` between the sparsified and the
//! original graph.  A low relative variance means far fewer samples are
//! needed on the sparsified graph for the same confidence width, since
//! `N'/N = (σ(G')/σ(G))²`.
//!
//! Estimators in this workspace return a *vector* of per-item values (one
//! per vertex or per pair); [`estimator_variance`] therefore reports the
//! per-item unbiased variances and summarises them by their mean, which is
//! the scalar used in the figures.
//!
//! The second half of this module turns that offline analysis into an online
//! control loop: a streaming Welford accumulator (single-pass mean and
//! variance) per statistic, which knows the a-priori range of its
//! statistic, and a [`StoppingRule`] that pools registered accumulators into
//! an empirical-Bernstein confidence half-width and decides — at epoch
//! checkpoints only, so the decision is a deterministic function of
//! `(seed, ε, δ, epoch size)` — whether a Monte-Carlo run may stop early.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Variance of a repeated vector-valued estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceEstimate {
    /// Unbiased per-item variance across repetitions.
    pub(crate) per_item: Vec<f64>,
    /// Per-item mean across repetitions.
    pub(crate) mean: Vec<f64>,
    /// Number of repetitions.
    pub(crate) repetitions: usize,
}

impl VarianceEstimate {
    /// Mean of the per-item variances — the scalar summary used when
    /// comparing graphs.
    pub(crate) fn mean_variance(&self) -> f64 {
        if self.per_item.is_empty() {
            0.0
        } else {
            self.per_item.iter().sum::<f64>() / self.per_item.len() as f64
        }
    }

    /// Ratio of this estimate's mean variance to a baseline's (the paper's
    /// relative variance `σ̂(G')/σ̂(G)`).
    ///
    /// A degenerate baseline (zero variance) is not the same thing as a
    /// ratio of zero: dividing a *noisy* estimator by a noiseless baseline
    /// is an infinitely *bad* ratio, not an infinitely good one.  The
    /// convention is therefore:
    ///
    /// * baseline variance > 0 — the ordinary ratio `self / baseline`;
    /// * both variances 0 — `0.0` (two exact estimators are equally good);
    /// * baseline 0 but `self` > 0 — [`f64::INFINITY`].
    pub fn relative_to(&self, baseline: &VarianceEstimate) -> f64 {
        let own = self.mean_variance();
        let base = baseline.mean_variance();
        if base > 0.0 {
            own / base
        } else if own <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// Runs `estimator` `repetitions` times and computes per-item mean and
/// unbiased variance.  Non-finite observations (e.g. the `NAN` distance of a
/// never-connected pair) are treated as missing for that item and repetition.
///
/// # Panics
/// Panics if the estimator returns vectors of inconsistent lengths.
pub fn estimator_variance<F>(repetitions: usize, mut estimator: F) -> VarianceEstimate
where
    F: FnMut(usize) -> Vec<f64>,
{
    assert!(repetitions >= 2, "variance needs at least two repetitions");
    let mut runs: Vec<Vec<f64>> = Vec::with_capacity(repetitions);
    for rep in 0..repetitions {
        let values = estimator(rep);
        if let Some(first) = runs.first() {
            assert_eq!(
                first.len(),
                values.len(),
                "estimator changed its output length"
            );
        }
        runs.push(values);
    }
    let items = runs.first().map_or(0, Vec::len);
    let mut mean = vec![0.0; items];
    let mut per_item = vec![0.0; items];
    for item in 0..items {
        let observations: Vec<f64> = runs
            .iter()
            .map(|r| r[item])
            .filter(|x| x.is_finite())
            .collect();
        if observations.len() < 2 {
            mean[item] = observations.first().copied().unwrap_or(0.0);
            per_item[item] = 0.0;
            continue;
        }
        let n = observations.len() as f64;
        let m = observations.iter().sum::<f64>() / n;
        let var = observations.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0);
        mean[item] = m;
        per_item[item] = var;
    }
    VarianceEstimate {
        per_item,
        mean,
        repetitions,
    }
}

/// Streaming mean/variance accumulator (Welford's online algorithm).
///
/// One pass, O(1) state, numerically stable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of observations pushed (or merged) so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Unbiased sample variance (`M2 / (n - 1)`); `0.0` with fewer than two
    /// observations, matching [`estimator_variance`]'s convention.
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Adds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }
}

/// A [`Welford`] accumulator plus the a-priori closed range of its
/// statistic — everything the empirical-Bernstein bound needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AccumulatorStats {
    welford: Welford,
    lo: f64,
    hi: f64,
}

impl AccumulatorStats {
    /// A new accumulator for a statistic with values in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `lo <= hi` and both are finite.
    pub(crate) fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid statistic range [{lo}, {hi}]"
        );
        Self {
            welford: Welford::new(),
            lo,
            hi,
        }
    }

    /// Adds one per-world observation.
    pub(crate) fn record(&mut self, value: f64) {
        self.welford.push(value);
    }

    /// Empirical-Bernstein confidence half-width at confidence level
    /// `1 - delta` (Audibert–Munos–Szepesvári / Maurer–Pontil): with
    /// probability at least `1 - delta`,
    ///
    /// `|mean − truth| ≤ sqrt(2·V̂·ln(3/δ)/n) + 3·R·ln(3/δ)/n`
    ///
    /// where `V̂` is the sample variance and `R = hi − lo`.  The variance
    /// term dominates for concentrated statistics — this is what lets a
    /// low-variance estimator (e.g. the isolated-vertex fraction of a large
    /// sparse graph) stop far earlier than the range-only Hoeffding bound
    /// would allow.  Returns
    /// [`f64::INFINITY`] while empty.
    pub(crate) fn half_width(&self, delta: f64) -> f64 {
        let n = self.welford.count();
        if n == 0 {
            return f64::INFINITY;
        }
        let n = n as f64;
        let log = (3.0 / delta).ln();
        let range = self.hi - self.lo;
        (2.0 * self.welford.variance() * log / n).sqrt() + 3.0 * range * log / n
    }
}

/// Why an adaptive run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every tracked statistic reached the target half-width `ε`.
    Converged,
    /// The world budget (`num_worlds`, possibly capped by
    /// [`Precision::max_worlds`]) ran out first.
    BudgetExhausted,
    /// The wall-clock [`Precision::deadline`] expired first.
    DeadlineExpired,
    /// A cooperative cancellation flag was raised; the run aborted at the
    /// next epoch checkpoint (partial results are still well-defined — the
    /// worlds consumed so far were observed normally).
    Cancelled,
}

/// Accuracy target for adaptive Monte-Carlo: stop as soon as every tracked
/// statistic's confidence half-width is at most `epsilon`, at confidence
/// `1 - delta`, subject to an optional wall-clock `deadline` and world cap.
///
/// Sampling proceeds in fixed blocks of `epoch` worlds with the bound
/// checked only at block boundaries, so the number of worlds consumed is a
/// deterministic function of `(seed, ε, δ, epoch)` — independent of thread
/// count and (absent a deadline) of wall-clock speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Target confidence half-width for every tracked statistic.
    pub epsilon: f64,
    /// Allowed failure probability, split across checkpoints and tracked
    /// statistics by a union bound.
    pub delta: f64,
    /// Optional wall-clock budget; checked at epoch boundaries, after the
    /// convergence and world-budget checks (so a deadline can only make a
    /// run *shorter*, never change a converged answer).
    pub deadline: Option<Duration>,
    /// Optional hard cap on worlds, tightening the batch's `num_worlds`.
    pub max_worlds: Option<usize>,
    /// Worlds per epoch between stopping checks.
    pub epoch: usize,
}

impl Precision {
    /// Default failure probability (95% confidence).
    pub(crate) const DEFAULT_DELTA: f64 = 0.05;
    /// Default worlds per epoch.
    pub(crate) const DEFAULT_EPOCH: usize = 64;

    /// A target half-width at the default `delta` and epoch size.
    ///
    /// # Panics
    /// Panics unless `epsilon` is finite and positive.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be finite and positive, got {epsilon}"
        );
        Self {
            epsilon,
            delta: Self::DEFAULT_DELTA,
            deadline: None,
            max_worlds: None,
            epoch: Self::DEFAULT_EPOCH,
        }
    }

    /// Sets the failure probability.
    ///
    /// # Panics
    /// Panics unless `delta` is in `(0, 1)`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0, 1), got {delta}"
        );
        self.delta = delta;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the hard world cap.
    pub fn with_max_worlds(mut self, max_worlds: usize) -> Self {
        self.max_worlds = Some(max_worlds);
        self
    }

    /// Sets the epoch (worlds per stopping check; clamped to at least 1).
    pub fn with_epoch(mut self, epoch: usize) -> Self {
        self.epoch = epoch.max(1);
        self
    }

    /// The effective world budget given a batch's `num_worlds`.
    pub fn cap(&self, num_worlds: usize) -> usize {
        self.max_worlds.map_or(num_worlds, |m| m.min(num_worlds))
    }
}

/// Sequential stopping rule: registered per-statistic accumulators pooled
/// into an empirical-Bernstein bound, with the confidence budget `δ` split
/// `δ_k = δ / (k(k+1))` over checkpoints `k = 1, 2, …` (a convergent series
/// summing to `δ`) and uniformly over the tracked statistics — a union
/// bound, so the *final* answer is within `ε` of truth with probability at
/// least `1 − δ` no matter how many checkpoints the run needed.
///
/// ```
/// use std::time::Instant;
/// use ugs_queries::variance::{Precision, StopReason, StoppingRule};
///
/// let mut rule = StoppingRule::new(Precision::new(0.2));
/// rule.register(0.0, 1.0);
/// let worlds: Vec<f64> = (0..256).map(|i| f64::from(i % 2)).collect();
/// rule.record_worlds(&worlds);
/// // One checkpoint after 256 Bernoulli worlds: comfortably within ε=0.2.
/// let verdict = rule.checkpoint(worlds.len(), 1_000, Instant::now(), None);
/// assert_eq!(verdict, Some(StopReason::Converged));
/// assert!(rule.half_width() <= 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingRule {
    precision: Precision,
    stats: Vec<AccumulatorStats>,
    checks: u64,
    half_width: f64,
}

impl StoppingRule {
    /// A fresh rule for the given target; statistics are added with
    /// [`StoppingRule::register`].
    pub fn new(precision: Precision) -> Self {
        Self {
            precision,
            stats: Vec::new(),
            checks: 0,
            half_width: f64::INFINITY,
        }
    }

    /// Registers a statistic with values in `[lo, hi]`; returns its slot
    /// index, the position of its value in every world's run of values
    /// that [`StoppingRule::record_worlds`] reads.
    pub fn register(&mut self, lo: f64, hi: f64) -> usize {
        self.stats.push(AccumulatorStats::new(lo, hi));
        self.stats.len() - 1
    }

    /// Number of registered statistics.
    pub fn num_tracked(&self) -> usize {
        self.stats.len()
    }

    /// Records a run of worlds laid out world-major: for each world, one
    /// value per tracked slot in slot order (the layout a world block
    /// reports its statistics in).
    pub fn record_worlds(&mut self, stats: &[f64]) {
        let tracked = self.stats.len();
        if tracked == 0 {
            return;
        }
        for world in stats.chunks(tracked) {
            for (slot, &value) in world.iter().enumerate() {
                self.stats[slot].record(value);
            }
        }
    }

    /// Runs checkpoint `k` (incrementing the internal counter): recomputes
    /// the pooled half-width — the maximum over tracked statistics at the
    /// split confidence `δ_k / num_tracked` — and returns whether it meets
    /// `ε`.  With no tracked statistics the rule never converges (the run
    /// falls back to its world budget).
    pub(crate) fn check(&mut self) -> bool {
        self.checks += 1;
        if self.stats.is_empty() {
            self.half_width = f64::INFINITY;
            return false;
        }
        let k = self.checks as f64;
        let delta_k = self.precision.delta / (k * (k + 1.0)) / self.stats.len() as f64;
        self.half_width = self
            .stats
            .iter()
            .map(|s| s.half_width(delta_k))
            .fold(0.0, f64::max);
        self.half_width <= self.precision.epsilon
    }

    /// Number of checkpoints run so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Pooled half-width from the most recent checkpoint;
    /// [`f64::INFINITY`] before the first one.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// The epoch checkpoint after `worlds` of `cap` worlds: convergence
    /// (the pooled half-width at the split `δ_k` meets `ε`), then the
    /// budget, then the deadline, then
    /// the cooperative `cancel` flag — the one verdict order every adaptive
    /// driver (in process or across a fleet) uses, so a deadline or a
    /// cancel can only shorten a run, never change a converged answer.
    /// `None` means sample another epoch.
    pub fn checkpoint(
        &mut self,
        worlds: usize,
        cap: usize,
        started: Instant,
        cancel: Option<&AtomicBool>,
    ) -> Option<StopReason> {
        if self.check() {
            Some(StopReason::Converged)
        } else if worlds >= cap {
            Some(StopReason::BudgetExhausted)
        } else if self.deadline_expired(started) {
            Some(StopReason::DeadlineExpired)
        } else if cancel.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            Some(StopReason::Cancelled)
        } else {
            None
        }
    }

    /// Whether the rule's optional wall-clock deadline has expired relative
    /// to `started`.  Intentionally *not* part of the convergence test:
    /// the bound must stay a deterministic function of the recorded values,
    /// with the (inherently timing-dependent) deadline consulted separately
    /// and last.
    pub fn deadline_expired(&self, started: Instant) -> bool {
        self.precision
            .deadline
            .is_some_and(|d| started.elapsed() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constant_estimator_has_zero_variance() {
        let estimate = estimator_variance(10, |_| vec![1.0, 2.0, 3.0]);
        assert_eq!(estimate.per_item, vec![0.0; 3]);
        assert_eq!(estimate.mean, vec![1.0, 2.0, 3.0]);
        assert_eq!(estimate.mean_variance(), 0.0);
        assert_eq!(estimate.repetitions, 10);
    }

    #[test]
    fn known_variance_is_recovered() {
        // Alternating 0/1 observations: sample variance with n=2k is
        // k/(2k-1) * ... simpler: for values {0,1} repeated 50/50, unbiased
        // variance = n/(n-1) * 0.25.
        let reps = 100;
        let estimate = estimator_variance(reps, |rep| vec![(rep % 2) as f64]);
        let expected = (reps as f64) / (reps as f64 - 1.0) * 0.25;
        assert!((estimate.per_item[0] - expected).abs() < 1e-12);
        assert!((estimate.mean[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_observations_are_skipped() {
        let estimate = estimator_variance(4, |rep| {
            if rep == 0 {
                vec![f64::NAN, 1.0]
            } else {
                vec![2.0, 1.0]
            }
        });
        assert_eq!(estimate.per_item, vec![0.0, 0.0]);
        assert_eq!(estimate.mean, vec![2.0, 1.0]);
    }

    #[test]
    fn relative_variance_compares_estimators() {
        let mut rng = SmallRng::seed_from_u64(1);
        let noisy = estimator_variance(200, |_| vec![rng.gen_range(0.0..1.0)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let tight = estimator_variance(200, |_| vec![0.5 + 0.01 * rng.gen_range(-1.0..1.0)]);
        let ratio = tight.relative_to(&noisy);
        assert!(ratio < 0.05, "ratio {ratio}");
    }

    #[test]
    fn degenerate_baseline_is_infinitely_bad_not_zero() {
        // A noiseless baseline under a noisy estimator used to report ratio
        // 0 — "infinitely better" — when it is the exact opposite.
        let mut rng = SmallRng::seed_from_u64(1);
        let noisy = estimator_variance(200, |_| vec![rng.gen_range(0.0..1.0)]);
        let zero = estimator_variance(5, |_| vec![1.0]);
        assert_eq!(noisy.relative_to(&zero), f64::INFINITY);
        // Two exact estimators really are equally good.
        let other_zero = estimator_variance(7, |_| vec![3.0]);
        assert_eq!(zero.relative_to(&other_zero), 0.0);
        // And a noisy baseline under an exact estimator is an honest 0.
        assert_eq!(zero.relative_to(&noisy), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two repetitions")]
    fn single_repetition_panics() {
        estimator_variance(1, |_| vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "changed its output length")]
    fn inconsistent_lengths_panic() {
        estimator_variance(3, |rep| vec![0.0; rep + 1]);
    }

    #[test]
    fn empty_observation_vectors_are_fine() {
        let estimate = estimator_variance(3, |_| Vec::new());
        assert_eq!(estimate.mean_variance(), 0.0);
        assert!(estimate.per_item.is_empty());
    }

    #[test]
    fn welford_agrees_with_the_two_pass_oracle_to_1e12() {
        // Satellite contract: single-pass Welford within 1e-12 of the
        // existing two-pass estimator_variance on random data.
        for seed in [3_u64, 17, 0xFEED] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let values: Vec<f64> = (0..500).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let mut acc = Welford::new();
            for &x in &values {
                acc.push(x);
            }
            let mut at = 0;
            let oracle = estimator_variance(values.len(), |_| {
                let v = vec![values[at]];
                at += 1;
                v
            });
            assert!((acc.mean - oracle.mean[0]).abs() < 1e-12, "seed {seed}");
            assert!(
                (acc.variance() - oracle.per_item[0]).abs() < 1e-12,
                "seed {seed}: {} vs {}",
                acc.variance(),
                oracle.per_item[0]
            );
        }
    }

    #[test]
    fn welford_of_one_to_four() {
        let mut acc = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            acc.push(x);
        }
        assert_eq!(acc.count(), 4);
        assert!((acc.mean - 2.5).abs() < 1e-12);
        assert!((acc.variance() - 5.0 / 3.0).abs() < 1e-12); // unbiased
    }

    #[test]
    fn bernstein_half_width_after_400_bernoulli_worlds() {
        let mut stats = AccumulatorStats::new(0.0, 1.0);
        for i in 0..400 {
            stats.record(f64::from(i % 2));
        }
        // Empirical-Bernstein half-width at 95% confidence: a few percent
        // after 400 Bernoulli observations.
        let hw = stats.half_width(0.05);
        assert!(hw > 0.0 && hw < 0.2, "half-width {hw}");
    }

    #[test]
    fn empirical_bernstein_tightens_with_samples_and_variance() {
        // More samples → smaller half-width.
        let mut few = AccumulatorStats::new(0.0, 1.0);
        let mut many = AccumulatorStats::new(0.0, 1.0);
        for i in 0..64 {
            few.record(f64::from(i % 2));
        }
        for i in 0..4096 {
            many.record(f64::from(i % 2));
        }
        assert!(many.half_width(0.05) < few.half_width(0.05));
        // Lower variance → smaller half-width at equal n.
        let mut constant = AccumulatorStats::new(0.0, 1.0);
        for _ in 0..64 {
            constant.record(0.5);
        }
        assert!(constant.half_width(0.05) < few.half_width(0.05));
        // Empty accumulator knows nothing.
        assert_eq!(
            AccumulatorStats::new(0.0, 1.0).half_width(0.05),
            f64::INFINITY
        );
    }

    #[test]
    fn stopping_rule_splits_delta_and_converges() {
        let mut rule = StoppingRule::new(Precision::new(0.25).with_delta(0.1));
        let slot = rule.register(0.0, 1.0);
        // First checkpoint after a small epoch: not converged.
        for i in 0..16 {
            rule.stats[slot].record(f64::from(i % 2));
        }
        assert!(!rule.check());
        let first = rule.half_width();
        assert!(first.is_finite() && first > 0.25);
        // Keep sampling; later checkpoints pay a stricter δ_k yet still
        // tighten, and eventually converge.
        let mut converged = false;
        for round in 0..64 {
            for i in 0..64 {
                rule.stats[slot].record(f64::from(i % 2));
            }
            if rule.check() {
                converged = true;
                break;
            }
            assert!(round < 63, "rule never converged: {}", rule.half_width());
        }
        assert!(converged);
        assert!(rule.half_width() <= 0.25);
        assert!(rule.checks() >= 2);
    }

    #[test]
    fn stopping_rule_without_tracked_statistics_never_converges() {
        let mut rule = StoppingRule::new(Precision::new(0.5));
        assert!(!rule.check());
        assert_eq!(rule.half_width(), f64::INFINITY);
        assert_eq!(rule.num_tracked(), 0);
    }

    #[test]
    fn deadline_is_separate_from_the_statistical_check() {
        let rule = StoppingRule::new(Precision::new(0.5).with_deadline(Duration::ZERO));
        assert!(rule.deadline_expired(Instant::now()));
        let lenient =
            StoppingRule::new(Precision::new(0.5).with_deadline(Duration::from_secs(3600)));
        assert!(!lenient.deadline_expired(Instant::now()));
        let none = StoppingRule::new(Precision::new(0.5));
        assert!(!none.deadline_expired(Instant::now()));
    }

    #[test]
    fn precision_cap_combines_budgets() {
        assert_eq!(Precision::new(0.1).cap(500), 500);
        assert_eq!(Precision::new(0.1).with_max_worlds(200).cap(500), 200);
        assert_eq!(Precision::new(0.1).with_max_worlds(900).cap(500), 500);
        assert_eq!(Precision::new(0.1).with_epoch(0).epoch, 1);
    }
}
