//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation every other `acme-*` crate builds on. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time, so
//!   that no simulated result ever depends on wall-clock behaviour;
//! * [`rng::SimRng`] — a seedable xoshiro256++ generator with cheap
//!   independent substreams, so every experiment is bit-reproducible;
//! * [`dist`] — the probability distributions used to calibrate workloads
//!   and failures (exponential, log-normal, categorical, Zipf);
//! * [`event::EventQueue`] — a stable (FIFO tie-break) time-ordered event
//!   queue over a binary heap;
//! * [`stats`] — the per-thread activity counters that the event queue and
//!   the fat-tree flow scheduler deposit and the harness reports per
//!   experiment.
//!
//! The kernel deliberately has no dependencies: determinism is the core
//! guarantee, and the fewer moving parts under it the easier that guarantee
//! is to keep.

#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
