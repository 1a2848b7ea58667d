//! The pretraining substrate: an analytic + discrete-event model of
//! InternEvo-style LLM training.
//!
//! Figures 10–12 and 19–22 of the paper are consequences of parallelization
//! arithmetic, which this crate computes directly:
//!
//! * [`model`] — transformer configurations (7B…123B dense, Mistral-style
//!   MoE) and their parameter/FLOP/memory footprints;
//! * [`parallelism`] — 3D parallelism (InternEvo V1, Megatron-like) and
//!   hierarchical ZeRO (InternEvo V2) placement math;
//! * [`memory`] — the mixed-precision memory model (2Ψ + 2Ψ + 12Ψ), ZeRO
//!   sharding, activation footprints, and the 1F1B pipeline-rank imbalance;
//! * [`timeline`] — per-millisecond SM-utilization traces of a training
//!   step (compute bursts, pipeline bubbles, collective phases, MoE
//!   all-to-all stalls);
//! * [`checkpoint`] — synchronous vs asynchronous checkpointing cost
//!   (§6.1's 3.6–58.7× blocking-time reduction);
//! * [`progress`] — long-horizon training progress under failures and
//!   restarts (Figure 14).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod hpo;
pub mod lessons;
pub mod longseq;
pub mod loss;
pub mod memory;
pub mod model;
pub mod parallelism;
pub mod progress;
pub mod timeline;

pub use checkpoint::{CheckpointEngine, CheckpointMode, CheckpointScenario};
pub use loss::{LossCurve, SpikeDetector};
pub use memory::{MemoryModel, MemorySnapshot};
pub use model::ModelConfig;
pub use parallelism::Strategy;
pub use progress::{ProgressSim, RecoveryPolicy};
pub use timeline::StepTimeline;
