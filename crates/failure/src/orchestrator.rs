//! Stateful recovery orchestration: the escalation ladder.
//!
//! [`crate::RecoveryManager`] is a *stateless* policy: every incident is
//! decided in isolation, so a flapping node is re-admitted forever and a
//! deterministic bug restart-loops until a human happens to look. The
//! orchestrator wraps that policy with the state production systems carry
//! (ByteDance's retry → backoff → degrade → page ladder):
//!
//! * **per-node strike counts** — repeated implications of the same node
//!   feed a cordon decision once a threshold is crossed, even when each
//!   individual diagnosis alone would not cordon;
//! * **per-incident retry budget with exponential backoff** — identical
//!   failures inside a sliding window consume a budget; while budget
//!   remains, each retry waits exponentially longer before restarting;
//!   once exhausted the incident escalates to
//!   [`RecoveryAction::NotifyUser`] instead of restart-looping;
//! * **checkpoint validation** — part of every ladder, not a setting: a
//!   campaign runner that consults the orchestrator verifies each
//!   checkpoint on load and falls back a generation when it is corrupt
//!   (see `acme-training`'s `DurabilityTracker`).

use std::collections::{BTreeMap, BTreeSet};

use acme_policy::{CordonPolicy, RetryPolicy};
use acme_sim_core::{SimDuration, SimTime};

use crate::diagnose::DiagnosisReport;
use crate::recovery::{RecoveryAction, RecoveryManager};
use crate::taxonomy::FailureReason;

/// Full orchestrator configuration.
#[derive(Debug, Clone, Copy)]
pub struct OrchestratorConfig {
    /// Retry budget and backoff.
    pub retry: RetryPolicy,
    /// Strike-threshold cordoning policy.
    pub cordon: CordonPolicy,
}

impl OrchestratorConfig {
    /// The deployed ladder: production retry policy, two strikes to
    /// cordon.
    pub fn production() -> Self {
        OrchestratorConfig {
            retry: RetryPolicy::production(),
            cordon: CordonPolicy::two_strikes(),
        }
    }
}

/// What the orchestrator says about one incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestratedDecision {
    /// The action to take (possibly escalated from the base policy).
    pub action: RecoveryAction,
    /// Wait before acting (exponential backoff; zero on first attempts).
    pub backoff: SimDuration,
    /// Which attempt within the sliding window this is (1-based).
    pub attempt: u32,
    /// True when the retry budget was exhausted and the base action was
    /// escalated to a human handoff.
    pub escalated: bool,
}

/// The stateful escalation ladder around [`RecoveryManager`].
#[derive(Debug, Clone)]
pub struct RecoveryOrchestrator {
    config: OrchestratorConfig,
    strikes: BTreeMap<u32, u32>,
    cordoned: BTreeSet<u32>,
    cordon_actions: u32,
    /// Retry accounting: repeated failures with the same root cause are
    /// what consume the budget.
    last_seen: BTreeMap<FailureReason, (SimTime, u32)>,
}

impl RecoveryOrchestrator {
    /// Build with a config.
    pub fn new(config: OrchestratorConfig) -> Self {
        RecoveryOrchestrator {
            config,
            strikes: BTreeMap::new(),
            cordoned: BTreeSet::new(),
            cordon_actions: 0,
            last_seen: BTreeMap::new(),
        }
    }

    /// The config.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// Decide the action for a diagnosed failure at `at`: the stateless
    /// manager's action, run through the retry ladder.
    pub fn decide(&mut self, at: SimTime, report: &DiagnosisReport) -> OrchestratedDecision {
        let base = RecoveryManager.decide(report);
        let reason = report.reason;
        let window = self.config.retry.window;
        let attempt = match self.last_seen.get(&reason) {
            Some(&(last, n)) if !window.is_zero() && at.saturating_since(last) <= window => n + 1,
            _ => 1,
        };
        self.last_seen.insert(reason, (at, attempt));

        if attempt > self.config.retry.budget && !base.needs_human() {
            return OrchestratedDecision {
                action: RecoveryAction::NotifyUser {
                    hint: format!(
                        "retry budget exhausted: {attempt} identical incidents ({reason:?}) \
                         within the window; paging a human instead of restart-looping"
                    ),
                },
                backoff: SimDuration::ZERO,
                attempt,
                escalated: true,
            };
        }
        OrchestratedDecision {
            backoff: self.config.retry.backoff(attempt),
            action: base,
            attempt,
            escalated: false,
        }
    }

    /// Record a strike against a node; returns its strike count.
    pub fn record_strike(&mut self, node: u32) -> u32 {
        let n = self.strikes.entry(node).or_insert(0);
        *n += 1;
        *n
    }

    /// A node's current strike count.
    pub fn strikes(&self, node: u32) -> u32 {
        self.strikes.get(&node).copied().unwrap_or(0)
    }

    /// Whether the node's strikes have crossed the cordon threshold (and
    /// it is not already cordoned).
    pub fn should_cordon(&self, node: u32) -> bool {
        !self.cordoned.contains(&node) && self.config.cordon.should_cordon(self.strikes(node))
    }

    /// Mark a node cordoned. One human action per newly cordoned node
    /// (re-cordoning an already cordoned node costs nothing).
    pub fn mark_cordoned(&mut self, node: u32) {
        if self.cordoned.insert(node) {
            self.cordon_actions += 1;
        }
    }

    /// Cordon an entire fault domain (the nodes under one dead switch) as
    /// ONE human action: the operator drains the switch, not each node.
    /// Returns how many nodes were newly cordoned; zero new nodes costs
    /// zero actions.
    pub fn mark_domain_cordoned(&mut self, nodes: &[u32]) -> u32 {
        let newly = nodes.iter().filter(|&&n| self.cordoned.insert(n)).count() as u32;
        if newly > 0 {
            self.cordon_actions += 1;
        }
        newly
    }

    /// Nodes cordoned so far.
    pub fn cordoned_count(&self) -> u32 {
        self.cordoned.len() as u32
    }

    /// Human cordon actions so far. Node-level cordons cost one action
    /// each; a switch-level (domain) cordon costs one action regardless
    /// of how many nodes it drains.
    pub fn cordon_actions(&self) -> u32 {
        self.cordon_actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::DiagnosisPipeline;
    use crate::logs::LogBundle;
    use acme_sim_core::SimRng;

    fn report_for(reason: FailureReason, seed: u64) -> DiagnosisReport {
        let mut rng = SimRng::new(seed);
        let b = LogBundle::generate(reason, 80, &mut rng);
        DiagnosisPipeline::with_all_rules()
            .diagnose(&b.lines)
            .unwrap()
    }

    fn t(mins: u64) -> SimTime {
        SimTime::from_secs(mins * 60)
    }

    #[test]
    fn repeated_identical_failures_escalate() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let report = report_for(FailureReason::NcclTimeoutError, 1);
        let budget = orch.config().retry.budget;
        let mut escalated_at = None;
        for rep in 0..6u64 {
            let d = orch.decide(t(rep * 10), &report);
            if d.escalated {
                escalated_at = Some(d.attempt);
                assert!(d.action.needs_human());
                break;
            }
            assert_eq!(d.action, RecoveryAction::AutoRestart { cordon_nodes: true });
        }
        assert_eq!(escalated_at, Some(budget + 1));
    }

    #[test]
    fn window_resets_the_attempt_count() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let report = report_for(FailureReason::CudaError, 2);
        let window = orch.config().retry.window;
        let d1 = orch.decide(t(0), &report);
        assert_eq!(d1.attempt, 1);
        let d2 = orch.decide(t(10), &report);
        assert_eq!(d2.attempt, 2);
        // Far outside the window: a fresh incident.
        let later = t(10) + window + SimDuration::from_mins(1);
        let d3 = orch.decide(later, &report);
        assert_eq!(d3.attempt, 1);
        assert_eq!(d3.backoff, SimDuration::ZERO);
    }

    #[test]
    fn distinct_reasons_do_not_share_a_budget() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let a = report_for(FailureReason::CudaError, 3);
        let b = report_for(FailureReason::EccError, 4);
        for rep in 0..3u64 {
            assert!(!orch.decide(t(rep * 2), &a).escalated);
            assert!(!orch.decide(t(rep * 2 + 1), &b).escalated);
        }
    }

    #[test]
    fn strikes_cross_the_cordon_threshold() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        assert!(!orch.should_cordon(7));
        assert_eq!(orch.record_strike(7), 1);
        assert!(!orch.should_cordon(7));
        assert_eq!(orch.record_strike(7), 2);
        assert!(orch.should_cordon(7));
        orch.mark_cordoned(7);
        assert!(!orch.should_cordon(7), "already cordoned");
        assert_eq!(orch.cordoned_count(), 1);
        assert_eq!(orch.cordon_actions(), 1);
        // Other nodes unaffected.
        assert_eq!(orch.strikes(8), 0);
    }

    #[test]
    fn domain_cordon_is_one_human_action() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        // Draining a whole switch domain: one action, many nodes.
        assert_eq!(orch.mark_domain_cordoned(&[4, 5, 6, 7]), 4);
        assert_eq!(orch.cordoned_count(), 4);
        assert_eq!(orch.cordon_actions(), 1);
        // Re-cordoning the same domain is free.
        assert_eq!(orch.mark_domain_cordoned(&[4, 5, 6, 7]), 0);
        assert_eq!(orch.cordon_actions(), 1);
        // A partially overlapping domain costs one more action.
        assert_eq!(orch.mark_domain_cordoned(&[7, 8]), 1);
        assert_eq!(orch.cordoned_count(), 5);
        assert_eq!(orch.cordon_actions(), 2);
        // Node-level cordons still cost one action per new node.
        orch.mark_cordoned(9);
        orch.mark_cordoned(9);
        assert_eq!(orch.cordon_actions(), 3);
    }

    #[test]
    fn already_human_actions_are_not_double_escalated() {
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let report = report_for(FailureReason::TypeError, 5);
        for rep in 0..6u64 {
            let d = orch.decide(t(rep), &report);
            assert!(d.action.needs_human());
            assert!(
                !d.escalated,
                "NotifyUser is the base action, not an escalation"
            );
        }
    }
}
