//! Evaluation workloads and the decoupled trial coordinator (§4.2, §6.2).
//!
//! Evaluation is the *quantity*-intensive workload: every pretraining
//! checkpoint fans out over ~60 benchmark datasets, and the resulting
//! trials dominate job count while starving on spare GPUs. This crate
//! provides:
//!
//! * [`benchmarks`] — a 63-dataset registry with per-dataset inference and
//!   metric-computation cost profiles (coding sandboxes, LLM-as-judge
//!   calls, plain accuracy);
//! * [`trial`] — the four-stage trial model (model load → preprocess →
//!   GPU inference → metric computation) behind Figure 13's GPU-idle
//!   analysis;
//! * [`coordinator`] — the baseline one-dataset-per-trial scheduler and
//!   the trial coordinator with decoupled model loading, decoupled metric
//!   computation and prior-based elastic packing, reproducing the
//!   1.3× / 1.8× makespan reductions of §6.2; each [`Scheduler`] is a
//!   trial layout, run fault-free by the campaign simulation of [`faults`];
//! * [`faults`] — the crate's one evaluation event loop: deterministic
//!   fault injection for campaigns (the Table-3 evaluation failure mix,
//!   node losses, stragglers, degraded storage, flaky metric jobs) and the
//!   three recovery arms replayed against it, up to the fault-tolerant one
//!   that retries, tracks per-dataset completion, speculates on stragglers
//!   and elastically re-packs stranded work.

#![warn(missing_docs)]

pub mod benchmarks;
pub mod cache;
pub mod coordinator;
pub mod faults;
pub mod trial;

pub use benchmarks::{registry, Dataset, MetricKind};
pub use cache::TokenCache;
pub use coordinator::{CoordinatorError, EvalRun, Scheduler};
pub use faults::{run_campaign, CampaignOutcome, CampaignPolicy, FaultConfig, FaultPlan};
pub use trial::{StageKind, TrialProfile};
