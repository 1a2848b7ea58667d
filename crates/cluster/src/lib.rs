//! The Acme datacenter hardware model.
//!
//! This crate is the simulated stand-in for the physical plant described in
//! §2.2 / Table 1 of the paper: two homogeneous A100 clusters (*Seren*,
//! *Kalos*), their nodes, GPUs, InfiniBand fabric, the all-NVMe shared
//! parallel file system, and the power/thermal envelope that Figures 8, 9,
//! 16 (left), 18 and 21 are drawn from.
//!
//! The plant models are closed-form functions of a hardware spec, with the
//! paper's calibration as module constants: power as a function of
//! activity, temperature as a function of power, energy and carbon as
//! multiples of power. The fabric and the shared storage model bandwidth
//! shares under contention; the fat tree also keeps its failed links as
//! state. The discrete-event crates (`acme-scheduler`,
//! `acme-training`, `acme-evaluation`) drive these models, and
//! `acme::monitor` samples them for the utilization, power and temperature
//! figures.

#![warn(missing_docs)]

pub mod comm;
pub mod gpu;
pub mod net;
pub mod node;
pub mod power;
pub mod spec;
pub mod storage;
pub mod thermal;

pub use comm::{Collective, FabricSpec};
pub use gpu::GpuActivity;
pub use net::{FatTree, Flow, FlowSim, NetConfig, NetFabric};
pub use node::HostMemoryBreakdown;
pub use power::ServerPowerBreakdown;
pub use spec::{ClusterSpec, GpuSpec, NodeSpec, SchedulerKind};
pub use storage::SharedStorage;
pub use thermal::ThermalModel;
