//! # ugs-metrics
//!
//! Evaluation metrics used throughout the paper's experimental study:
//!
//! * [`degree`] — mean absolute error of the degree discrepancy `δ(u)`
//!   (Table 2, Figures 6–7),
//! * [`cuts`] — mean absolute error of the expected-cut-size discrepancy
//!   `δ(S)` over randomly sampled vertex sets (Figures 4, 6, 7),
//! * [`relative_entropy`] — `H(G')/H(G)` (Figures 5, 8),
//! * [`earth_movers_distance`] — the earth mover's distance between two empirical result
//!   distributions (Equation 17, Figures 10–11),
//! * [`ExperimentReport`] / [`TextTable`] — small table/series containers
//!   the experiment binaries use to print paper-style rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod degree;
mod emd;
mod entropy;
mod report;

pub use cuts::cut_discrepancy_mae;
pub use degree::degree_discrepancy_mae;
pub use emd::earth_movers_distance;
pub use entropy::relative_entropy;
pub use report::{ExperimentReport, SeriesPoint, TextTable};

/// Commonly used items, suitable for a glob import.
///
/// (`relative_entropy` is intentionally not re-exported here because the
/// `uncertain-graph` prelude already provides a function of the same name;
/// use `ugs_metrics::relative_entropy` explicitly when needed.)
pub mod prelude {
    pub use crate::degree::degree_discrepancy_mae;
    pub use crate::emd::earth_movers_distance;
}
