//! Monitoring and statistics: the simulated counterpart of the paper's
//! DCGM / Prometheus / IPMI stack plus the statistics its figures are built
//! from.
//!
//! * [`cdf::Cdf`] — empirical CDFs and quantiles (Figures 2, 3, 6, 7, 8, 21),
//!   the one summary for closed-world series;
//! * [`sketch::QuantileSketch`] — deterministic mergeable quantile sketch,
//!   the one summary for the fleet's 10⁶⁺-sample stream;
//! * [`boxplot::BoxplotStats`] — quartiles with 1.5×IQR whiskers (Figure 5);
//! * [`series::TimeSeries`] — timestamped gauges sampled at the paper's 15 s
//!   monitoring cadence;
//! * [`counters::MetricStore`] — a DCGM-like registry of per-entity metrics;
//! * [`table`] — plain-text rendering for the repro harness output; exact
//!   CDFs and sketches print through one [`table::render_quantiles`].

#![warn(missing_docs)]

pub mod boxplot;
pub mod cdf;
pub mod counters;
pub mod series;
pub mod sketch;
pub mod table;

pub use boxplot::BoxplotStats;
pub use cdf::Cdf;
pub use counters::MetricStore;
pub use series::TimeSeries;
pub use sketch::QuantileSketch;
pub use table::{Quantiles, Table};
