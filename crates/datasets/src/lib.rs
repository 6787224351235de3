//! # ugs-datasets
//!
//! Dataset substrate for the experimental evaluation.
//!
//! The paper evaluates on two real uncertain graphs — Flickr (78 322
//! vertices, 10.2 M edges, mean probability 0.09) and Twitter (26 362
//! vertices, 664 K edges, mean probability 0.15) — plus four synthetic
//! graphs obtained by densifying a 1 000-vertex induced subgraph of Flickr.
//! Neither real dataset is redistributable, so this crate provides synthetic
//! generators that reproduce their *statistical shape*: the degree
//! distribution family (heavy-tailed, preferential attachment), the
//! edge-to-vertex ratio and the edge-probability distribution (low-mean
//! skewed for Flickr, higher-mean with a deterministic tail for Twitter).
//! All of the paper's qualitative findings depend only on these properties,
//! which is why the substitutes stand in for the real datasets.
//!
//! * [`ProbabilityModel`] — edge-probability distributions matched to the
//!   datasets' reported means,
//! * [`preferential_attachment`] — preferential-attachment topology generator,
//! * [`flickr_like`] / [`twitter_like`] at several [`Scale`]s,
//! * [`density_sweep`] — the density-sweep construction of Table 1 (bottom),
//! * [`forest_fire_sample`] — Forest Fire subgraph sampling \[22\], used by the paper
//!   to produce the reduced Flickr instance on which LP is feasible,
//! * [`erdos_renyi`] — Erdős–Rényi graphs for tests and micro-benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod er;
mod forest_fire;
mod powerlaw;
mod probability;
mod social;
mod synthetic;

pub use er::erdos_renyi;
pub use forest_fire::forest_fire_sample;
pub use powerlaw::preferential_attachment;
pub use probability::ProbabilityModel;
pub use social::{flickr_like, twitter_like, Scale};
pub use synthetic::{densified, density_sweep};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::er::erdos_renyi;
    pub use crate::forest_fire::forest_fire_sample;
    pub use crate::powerlaw::preferential_attachment;
    pub use crate::probability::ProbabilityModel;
    pub use crate::social::{flickr_like, twitter_like, Scale};
    pub use crate::synthetic::{densified, density_sweep};
}
