//! LLM development workloads: the synthetic stand-in for the released
//! AcmeTrace dataset.
//!
//! The paper's §3 characterization is entirely distributional — CDFs of
//! duration and demand, per-type shares of job count and GPU time, status
//! breakdowns. This crate generates six-month job populations whose
//! distributions are *calibrated to the published aggregates*:
//!
//! * [`job`] — the job record vocabulary (types, statuses, demand,
//!   duration);
//! * [`generator`] — the Seren/Kalos generators (Figures 3–6, 17);
//! * [`datacenters`] — Philly/Helios/PAI-shaped reference generators for the
//!   cross-datacenter comparisons (Table 2, Figure 2);
//! * [`stats`] — the aggregation used to regenerate every §3 figure,
//!   including the bounded-memory [`stats::StreamTraceStats`];
//! * [`stream`] — the open-system fleet: sharded multi-tenant Zipf/Poisson
//!   arrival streams for 10⁶⁺-job runs.

#![warn(missing_docs)]

pub mod datacenters;
pub mod generator;
pub mod job;
pub mod stats;
pub mod stream;

pub use generator::{ClusterWorkload, StreamingGenerator, WorkloadGenerator};
pub use job::{JobRecord, JobStatus, JobType};
pub use stats::{StreamTraceStats, TraceStats};
pub use stream::{FleetConfig, FleetJob, FleetShardStats, FleetStream};
