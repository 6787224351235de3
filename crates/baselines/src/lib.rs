//! # ugs-baselines
//!
//! Benchmark sparsifiers adapted from the *deterministic* graph
//! sparsification literature, exactly as Section 3.2 and the appendix of the
//! paper adapt them to the uncertain setting:
//!
//! * [`NagamochiIbaraki`] — `NI`, the Nagamochi–Ibaraki cut sparsifier: edge probabilities
//!   are converted to integer weights (`w_e = ⌊p_e / p_min⌉`), the iterated
//!   spanning-forest index determines a per-edge sampling probability, the
//!   sampled weights are converted back to probabilities capped at 1, and an
//!   `ε` calibration loop plus probability-proportional top-up force the
//!   result to exactly `α|E|` edges.
//! * [`SpannerSparsifier`] — `SS`, the Baswana–Sen `(2t−1)`-spanner run on the weights
//!   `w_e = −log p_e` (preserving most-probable paths), with the stretch `t`
//!   calibrated so the spanner has at most `α|E|` edges, original
//!   probabilities retained, and the same top-up step.
//!
//! Both implement the [`ugs_core::Sparsifier`] trait so experiments can treat
//! them interchangeably with `GDB`/`EMD`/`LP`.  As the paper demonstrates
//! (Figures 6–12), these adaptations perform poorly on uncertain graphs —
//! they redistribute little or no probability mass and do not reduce entropy
//! — which is precisely the motivation for purpose-built uncertain
//! sparsifiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod ni;
mod spanner;

pub use ni::NagamochiIbaraki;
pub use spanner::SpannerSparsifier;

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::ni::NagamochiIbaraki;
    pub use crate::spanner::SpannerSparsifier;
}
