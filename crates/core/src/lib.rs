//! `acme` — the top-level facade over the Acme datacenter reproduction.
//!
//! This crate ties the substrates together:
//!
//! * [`datacenter`] — builds the two clusters, their workload generators
//!   and failure injector, and runs the six-month end-to-end simulation;
//! * [`monitor`] — the infrastructure monitor: samples GPU/node state at
//!   the paper's 15 s cadence into one vector per DCGM/IPMI metric
//!   (Figures 7, 8, 21);
//! * [`experiments`] — one function per paper table/figure, each returning
//!   printable rows; the `repro` binary in `acme-bench` drives them;
//! * [`storm`] — replays an adversarial fault storm under the recovery
//!   escalation ladder's ablation arms (naive restart / retry + backoff /
//!   full orchestrator with spares);
//! * [`progress`] — Figure 14's training progress under failures, manual
//!   recovery against the §6.1 automatic system;
//! * [`ledger`] — the one job timeline that the storm, netstorm, pipeline
//!   and progress replays book their recoveries on.
//!
//! # Quickstart
//!
//! ```
//! use acme::datacenter::Acme;
//!
//! let acme = Acme::new(42);
//! let trace = acme.run_days(7.0);
//! let stats = acme_workload::TraceStats::new(&trace.kalos.jobs);
//! println!("Kalos: {} jobs, {:.1} GPU-hours", stats.len(), stats.total_gpu_hours());
//! ```

#![warn(missing_docs)]

pub mod datacenter;
pub mod experiments;
pub mod ledger;
pub mod monitor;
pub mod netstorm;
pub mod pipeline;
pub mod progress;
pub mod storm;

pub use datacenter::{Acme, AcmeTrace};
pub use netstorm::{NetStormOutcome, NetStormRunner};
pub use pipeline::{DevelopmentPipeline, FaultTolerantTrainer};
pub use storm::{StormOutcome, StormPolicy, StormRunner};
