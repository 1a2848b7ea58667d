//! The cluster scheduler simulation.
//!
//! Acme's production schedulers (Slurm on Seren, Kubernetes on Kalos) share
//! one policy that shapes Figure 6: **quota reservation** guarantees
//! resources to large pretraining jobs, evaluation trials run at the lowest
//! priority on the limited remainder, and a best-effort mechanism lets
//! oversized non-pretraining jobs borrow idle reserved capacity (§2.2).
//! The result is the paper's headline inversion — evaluation jobs have the
//! *smallest* demands and *shortest* runtimes yet the *longest* queue
//! delays.
//!
//! [`sim::ClusterScheduler`] is a discrete-event simulator implementing that
//! policy (reserving no GPUs is the single-pool ablation), and
//! [`sim::coalesce_eval_batches`] models the paper's observation that
//! evaluation trials are submitted in simultaneous batches. The §3.1
//! ablation, [`preempt::PreemptiveScheduler`], runs the same loop on one
//! pool with eviction in place of the reservation, so the two arms share
//! one queue discipline and their outcomes one type.

#![warn(missing_docs)]

pub mod config;
pub mod preempt;
pub mod sim;
#[cfg(test)]
mod testkit;

pub use config::SchedulerConfig;
pub use preempt::PreemptiveScheduler;
pub use sim::{coalesce_eval_batches, ClusterScheduler, ScheduleOutcome};
