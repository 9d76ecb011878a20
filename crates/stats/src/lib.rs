//! Statistical building blocks for the incast-bursts reproduction.
//!
//! Everything in this crate is deterministic: the random number generator is a
//! seeded [xoshiro256\*\*](https://prng.di.unimi.it/) implemented locally so that
//! experiment outputs are bit-reproducible regardless of external crate versions.
//!
//! The crate provides:
//!
//! - [`Rng`]: the seeded generator used by every stochastic component,
//! - [`dist`]: samplable probability distributions (uniform, exponential,
//!   normal, log-normal, Pareto, and weighted mixtures),
//! - [`Cdf`]: empirical cumulative distribution functions with percentile
//!   queries, used to regenerate the paper's CDF figures,
//! - [`TimeSeries`]: fixed-interval time-series buckets,
//! - [`Histogram`]: simple linear-bucket histograms,
//! - [`QuantileSketch`]: mergeable fixed-memory quantile sketches for
//!   streaming sweep aggregation,
//! - [`summary`]: scalar summary statistics (mean, variance, percentiles),
//! - [`retry_with_backoff`]: bounded retry for transient IO in the sweep
//!   machinery,
//! - [`Leaves`] / [`Visit`]: the one exhaustive walk over a value's
//!   fields, the one JSON text it writes and reads back
//!   ([`leaves::write`] / [`leaves::read`]), and [`ConfigError`], what
//!   validating or reading one reports.

#![forbid(unsafe_code)]

pub mod cdf;
pub mod dist;
pub mod histogram;
pub mod leaves;
pub mod retry;
pub mod rng;
pub mod sketch;
pub mod summary;
pub mod timeseries;

pub use cdf::Cdf;
pub use dist::Dist;
pub use histogram::Histogram;
pub use leaves::{ConfigError, Leaves, Visit};
pub use retry::retry_with_backoff;
pub use rng::Rng;
pub use sketch::QuantileSketch;
pub use summary::Summary;
pub use timeseries::TimeSeries;
