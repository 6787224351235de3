//! The Monte-Carlo configuration every query runs from.
//!
//! Every query samples `N` possible worlds and folds a per-world kernel over
//! them.  [`crate::QueryBatch`] drives every such run — a standalone query
//! is a batch with one observer — and [`MonteCarlo`] is its configuration:
//! the world budget, the thread count, the sampling method and an optional
//! adaptive-precision target.  The batch owes its throughput to two
//! properties of [`crate::engine::WorldEngine`]:
//!
//! * **skip-sampling** — drawing a world costs `O(Σ pₑ)` expected RNG work
//!   instead of one Bernoulli draw per edge, a large win on the low-entropy
//!   sparsified graphs the paper produces;
//! * **scratch reuse** — each world is materialised by compacting into
//!   per-thread scratch buffers, so the sample–materialise cycle performs
//!   zero heap allocations in steady state.
//!
//! See the [`batch`](crate::batch) module docs for how a run splits its
//! worlds across threads and what it draws from the caller's RNG.

use crate::engine::SampleMethod;
use crate::variance::Precision;

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Number of possible worlds to sample (the paper uses 500 for the
    /// query-quality experiments).
    pub num_worlds: usize,
    /// Number of worker threads; 1 means fully sequential evaluation.
    pub threads: usize,
    /// How worlds are sampled; [`SampleMethod::Auto`] picks skip-sampling
    /// on sparse-probability graphs.
    pub method: SampleMethod,
    /// Optional adaptive-precision target: batch runs built from this
    /// configuration ([`crate::QueryBatch::new`]) stop at the first epoch
    /// where every tracked statistic meets the `(ε, δ)` bound, with
    /// `num_worlds` as the hard budget.  `None` (the default) keeps the
    /// fixed-budget behaviour bit-for-bit.
    pub precision: Option<Precision>,
}

impl Default for MonteCarlo {
    /// 500 worlds on all available cores with automatic sampling.
    fn default() -> Self {
        MonteCarlo {
            num_worlds: 500,
            threads: available_threads(),
            method: SampleMethod::Auto,
            precision: None,
        }
    }
}

/// The number of worker threads a parallel run uses by default
/// (`std::thread::available_parallelism`, falling back to 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl MonteCarlo {
    /// A sequential run over `num_worlds` sampled worlds.  Sequential runs
    /// are machine-independent: the same seed yields the same result on any
    /// host (parallel runs are deterministic only for a fixed thread
    /// count).
    pub fn worlds(num_worlds: usize) -> Self {
        MonteCarlo {
            num_worlds,
            threads: 1,
            method: SampleMethod::Auto,
            precision: None,
        }
    }

    /// A run over `num_worlds` worlds on all available cores.
    pub fn parallel(num_worlds: usize) -> Self {
        MonteCarlo {
            num_worlds,
            threads: available_threads(),
            method: SampleMethod::Auto,
            precision: None,
        }
    }

    /// Enables multi-threaded evaluation with `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the world-sampling method.
    pub fn with_method(mut self, method: SampleMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets an adaptive-precision target (see [`MonteCarlo::precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps_to_at_least_one() {
        let mc = MonteCarlo::worlds(10).with_threads(0);
        assert_eq!(mc.threads, 1);
        assert_eq!(MonteCarlo::default().num_worlds, 500);
        assert!(MonteCarlo::default().threads >= 1);
        assert!(MonteCarlo::parallel(10).threads >= 1);
    }
}
