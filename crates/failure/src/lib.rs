//! Failures: taxonomy, injection, diagnosis, localization, recovery.
//!
//! §5 of the paper characterizes 2,575 job failures across 29 reasons
//! (Table 3); §6.1 builds the fault-tolerance system around them. This
//! crate implements both sides:
//!
//! * [`taxonomy`] — the Table-3 failure vocabulary with its published
//!   statistics (occurrences, demand, time-to-failure, restart cost);
//! * [`inject`] — a calibrated injector producing six-month failure event
//!   sets and per-job failure schedules;
//! * [`logs`] — synthetic runtime logs (noise + error signatures +
//!   cascading secondary errors) for the diagnosis pipeline to chew on;
//! * [`compress`] — the Filter-Rules log compressor with its
//!   template-mining Log Agent (the deterministic stand-in for the paper's
//!   LLM-based agent);
//! * [`diagnose`] — rule-based matching backed by a vector-store Failure
//!   Agent with self-consistency voting and continuous rule learning;
//! * [`detect`] — the two-round NCCL allgather test that pinpoints faulty
//!   nodes;
//! * [`recovery`] — the decision policy mapping a diagnosis to an action
//!   (auto-restart, node cordon, loss-spike rollback, or human handoff);
//!   a hang raises no error, so a stuck job reaches it once the replay's
//!   watchdog timeout has passed;
//! * [`storm`] — adversarial fault-storm generation: correlated cascades,
//!   flapping nodes, corrupt checkpoints and hangs that strike during
//!   recovery, all deterministic from a seed;
//! * [`orchestrator`] — the stateful escalation ladder around the recovery
//!   policy: per-node strike counts, retry budgets with exponential
//!   backoff, and escalation to a human when restart-looping would
//!   otherwise burn the fleet.

#![warn(missing_docs)]

pub mod compress;
pub mod detect;
pub mod diagnose;
pub mod inject;
pub mod logs;
pub mod orchestrator;
pub mod recovery;
pub mod storm;
pub mod taxonomy;

pub use compress::{LogAgent, LogCompressor};
pub use detect::{NcclTester, TwoRoundResult};
pub use diagnose::{full_rule_report, DiagnosisPipeline, DiagnosisReport, DiagnosisSource};
pub use inject::{FailureEvent, FailureInjector};
pub use logs::LogBundle;
pub use orchestrator::{OrchestratedDecision, OrchestratorConfig, RecoveryOrchestrator};
pub use recovery::{RecoveryAction, RecoveryManager};
pub use storm::{
    NetFault, NetStormConfig, NetStormEvent, SecondaryEvent, StormCampaign, StormConfig,
    StormEngine, StormEvent,
};
pub use taxonomy::{FailureCategory, FailureReason, FailureSpec};
