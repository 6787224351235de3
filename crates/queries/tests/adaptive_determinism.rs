//! Determinism contract of the adaptive (sequential-stopping) batch driver.
//!
//! The tentpole invariant: the number of worlds an adaptive run consumes is
//! a deterministic function of `(seed, ε, δ, epoch size)` — **independent of
//! the thread count** — because workers sample fixed world-blocks and, at
//! every epoch checkpoint, the leading slot replays the raw per-world
//! statistics into the pooled accumulators in world order.  Count-valued
//! observer state is then bit-identical across thread counts too, exactly
//! like the fixed-budget driver.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use uncertain_graph::UncertainGraph;

use ugs_queries::prelude::*;

const SEEDS: [u64; 3] = [1, 0xDEAD_BEEF, 9_999_999_999];
const MODES: [SampleMethod; 2] = [SampleMethod::Skip, SampleMethod::PerEdge];

fn fixture() -> UncertainGraph {
    // The batch_parity fixture: plateaus for the skip sampler's exact fast
    // path, heterogeneous tails for the thinning path, one certain edge.
    UncertainGraph::from_edges(
        10,
        [
            (0, 1, 0.9),
            (1, 2, 0.8),
            (2, 3, 0.7),
            (3, 4, 0.6),
            (4, 5, 0.5),
            (5, 6, 0.4),
            (6, 7, 0.3),
            (7, 8, 0.2),
            (8, 9, 0.1),
            (9, 0, 1.0),
            (0, 5, 0.25),
            (1, 6, 0.25),
            (2, 7, 0.25),
            (3, 8, 0.05),
        ],
    )
    .unwrap()
}

fn adaptive_mc(mode: SampleMethod, threads: usize, epsilon: f64) -> MonteCarlo {
    MonteCarlo::worlds(100_000)
        .with_threads(threads)
        .with_method(mode)
        .with_precision(Precision::new(epsilon).with_epoch(64))
}

/// Runs one adaptive connectivity batch and returns (worlds consumed,
/// estimate, report half-width).
fn run_once(
    mode: SampleMethod,
    threads: usize,
    seed: u64,
    epsilon: f64,
) -> (usize, ConnectivityEstimate, f64) {
    let g = fixture();
    let mc = adaptive_mc(mode, threads, epsilon);
    let mut batch = QueryBatch::new(&g, &mc);
    let handle = batch.register(ConnectivityObserver::new(&g));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut results = batch.run(&mut rng);
    let report = *results.adaptive().expect("adaptive batch reports");
    let estimate = results.take(handle);
    (report.worlds_used, estimate, report.half_width)
}

#[test]
fn worlds_consumed_are_invariant_over_threads_modes_and_seeds() {
    for mode in MODES {
        for seed in SEEDS {
            let (worlds_1, est_1, hw_1) = run_once(mode, 1, seed, 0.05);
            for threads in [2, 4] {
                let what = format!("{mode:?} seed {seed} threads {threads}");
                let (worlds_t, est_t, hw_t) = run_once(mode, threads, seed, 0.05);
                assert_eq!(worlds_1, worlds_t, "{what}: worlds consumed differ");
                // Count-valued accumulators: bit-identical across threads.
                assert_eq!(
                    est_1.probability_connected.to_bits(),
                    est_t.probability_connected.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    est_1.expected_components.to_bits(),
                    est_t.expected_components.to_bits(),
                    "{what}"
                );
                assert_eq!(est_1.num_worlds, est_t.num_worlds, "{what}");
                // The pooled stopping statistics are replayed in world
                // order, so even the achieved half-width is bit-identical.
                assert_eq!(hw_1.to_bits(), hw_t.to_bits(), "{what}");
            }
            // The run actually stopped early (the whole point).
            assert!(worlds_1 < 100_000, "{mode:?} seed {seed}: never stopped");
            assert!(hw_1 <= 0.05, "{mode:?} seed {seed}: loose stop");
        }
    }
}

#[test]
fn tighter_epsilon_needs_at_least_as_many_worlds() {
    for seed in SEEDS {
        let (loose, _, _) = run_once(SampleMethod::Skip, 1, seed, 0.1);
        let (tight, _, _) = run_once(SampleMethod::Skip, 1, seed, 0.02);
        assert!(
            tight >= loose,
            "seed {seed}: ε=0.02 used {tight} < ε=0.1's {loose}"
        );
    }
}

#[test]
fn max_worlds_caps_the_run() {
    let g = fixture();
    let mc = MonteCarlo::worlds(100_000)
        .with_method(SampleMethod::Skip)
        // Unreachable target, tiny cap (not a multiple of the epoch).
        .with_precision(Precision::new(1e-9).with_epoch(64).with_max_worlds(100));
    let mut batch = QueryBatch::new(&g, &mc);
    let handle = batch.register(ConnectivityObserver::new(&g));
    let mut rng = SmallRng::seed_from_u64(7);
    let mut results = batch.run(&mut rng);
    let report = *results.adaptive().unwrap();
    assert_eq!(report.worlds_used, 100);
    assert_eq!(report.stopped, StopReason::BudgetExhausted);
    assert_eq!(results.take(handle).num_worlds, 100);
}

#[test]
fn an_expired_deadline_stops_before_the_first_epoch() {
    // An already-expired deadline (deadline_ms = 0) must not charge a full
    // epoch of sampling: the run stops deterministically with zero worlds,
    // pristine observers, and no RNG state beyond the single seed draw —
    // on every thread count.
    let g = fixture();
    for threads in [1, 4] {
        let mc = MonteCarlo::worlds(100_000)
            .with_method(SampleMethod::Skip)
            .with_threads(threads)
            .with_precision(
                Precision::new(1e-9)
                    .with_epoch(64)
                    .with_deadline(Duration::ZERO),
            );
        let mut batch = QueryBatch::new(&g, &mc);
        let handle = batch.register(EdgeFrequencyObserver::new(&g));
        let mut rng = SmallRng::seed_from_u64(7);
        let mut results = batch.run(&mut rng);
        let report = *results.adaptive().unwrap();
        assert_eq!(report.stopped, StopReason::DeadlineExpired);
        assert_eq!(report.worlds_used, 0, "threads {threads}: no epoch paid");
        assert_eq!(report.epochs, 0);
        assert!(report.half_width.is_infinite());
        assert_eq!(results.take(handle), vec![0.0; g.num_edges()]);
    }
}

#[test]
fn untracked_observers_ride_along_to_the_full_budget() {
    // PageRank exposes no tracked statistic: alone, it cannot converge the
    // rule, so the run exhausts its (small) budget.
    let g = fixture();
    let mc = MonteCarlo::worlds(200)
        .with_method(SampleMethod::Skip)
        .with_precision(Precision::new(0.05).with_epoch(64));
    let mut batch = QueryBatch::new(&g, &mc);
    let handle = batch.register(PageRankObserver::new(&g));
    let mut rng = SmallRng::seed_from_u64(5);
    let mut results = batch.run(&mut rng);
    let report = *results.adaptive().unwrap();
    assert_eq!(report.stopped, StopReason::BudgetExhausted);
    assert_eq!(report.worlds_used, 200);
    assert_eq!(report.tracked, 0);
    assert!(report.half_width.is_infinite());
    let scores = results.take(handle);
    assert_eq!(scores.len(), 10);
}

#[test]
fn adaptive_runs_share_the_fixed_driver_world_stream() {
    // An adaptive run that exhausts its budget consumed exactly the worlds
    // a fixed-budget run of that size samples: same seed ⇒ count observers
    // agree bit for bit.
    let g = fixture();
    for mode in MODES {
        let seed = 99;
        let worlds = 256;
        let fixed = {
            let mc = MonteCarlo::worlds(worlds).with_method(mode);
            let mut batch = QueryBatch::new(&g, &mc);
            let handle = batch.register(EdgeFrequencyObserver::new(&g));
            let mut rng = SmallRng::seed_from_u64(seed);
            batch.run(&mut rng).take(handle)
        };
        let adaptive = {
            let mc = MonteCarlo::worlds(worlds)
                .with_method(mode)
                .with_precision(Precision::new(1e-9).with_epoch(64));
            let mut batch = QueryBatch::new(&g, &mc);
            let handle = batch.register(EdgeFrequencyObserver::new(&g));
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut results = batch.run(&mut rng);
            assert_eq!(results.adaptive().unwrap().worlds_used, worlds);
            results.take(handle)
        };
        for (i, (a, b)) in adaptive.iter().zip(fixed.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{mode:?} edge {i}: {a} vs {b}");
        }
    }
}

#[test]
fn a_raised_cancel_flag_aborts_at_the_first_epoch_checkpoint() {
    // Cooperative cancellation: the flag is consulted at epoch checkpoints
    // only (after convergence, budget and deadline), so a pre-raised flag
    // still pays exactly one epoch — deterministically, on every thread
    // count — and the observers reflect that epoch's worlds.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let g = fixture();
    let run = |threads: usize, epsilon: f64, cancel: Option<&Arc<AtomicBool>>| {
        let mut batch = QueryBatch::new(&g, &adaptive_mc(SampleMethod::Skip, threads, epsilon));
        if let Some(cancel) = cancel {
            batch = batch.with_cancel(Arc::clone(cancel));
        }
        let handle = batch.register(ConnectivityObserver::new(&g));
        let mut results = batch.run(&mut SmallRng::seed_from_u64(7));
        (*results.adaptive().unwrap(), results.take(handle))
    };
    for threads in [1, 4] {
        let cancel = Arc::new(AtomicBool::new(true));
        let (report, estimate) = run(threads, 1e-9, Some(&cancel));
        assert_eq!(report.stopped, StopReason::Cancelled, "threads {threads}");
        assert_eq!(report.worlds_used, 64, "threads {threads}");
        assert_eq!(report.epochs, 1);
        assert_eq!(estimate.num_worlds, 64);
        assert!(cancel.load(Ordering::SeqCst), "flag is caller-owned");
    }
    // An unraised flag changes nothing: bit-identical to a batch without one.
    let cancel = Arc::new(AtomicBool::new(false));
    let (cancellable, with_flag) = run(1, 0.05, Some(&cancel));
    let (plain, without_flag) = run(1, 0.05, None);
    assert_eq!(cancellable, plain);
    assert_eq!(with_flag, without_flag);
}

#[test]
fn fixed_budget_batches_ignore_precision_free_rng_discipline() {
    // Precision or not, run() draws exactly one u64 when there is work.
    let g = fixture();
    let mc = MonteCarlo::worlds(128).with_precision(Precision::new(0.5));
    let mut batch = QueryBatch::new(&g, &mc);
    let _ = batch.register(ConnectivityObserver::new(&g));
    let mut rng = SmallRng::seed_from_u64(13);
    batch.run(&mut rng);
    let mut expected = SmallRng::seed_from_u64(13);
    expected.gen::<u64>();
    assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
}
