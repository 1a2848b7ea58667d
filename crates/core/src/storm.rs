//! Running a pretraining campaign *through* a fault storm.
//!
//! [`crate::pipeline::FaultTolerantTrainer`] measures the §6.1 system in a
//! friendly world. [`StormRunner`] replays the same campaign shape against
//! an adversarial [`StormCampaign`] — flapping nodes, corrupt checkpoints,
//! hangs that strike during recovery — under one of three recovery
//! policies, so the value of each escalation-ladder rung can be priced:
//!
//! * [`StormPolicy::NaiveRestart`] — the pre-ladder baseline: every
//!   incident is answered with an immediate restart, nothing is cordoned,
//!   checkpoints are loaded unvalidated. Deterministic bugs and flapping
//!   nodes crash-loop until the on-call notices ([`NAIVE_LOOP_LIMIT`]
//!   wasted restart cycles per loop), and a corrupt checkpoint defeats
//!   restart after restart until a human restores an older generation.
//! * [`StormPolicy::RetryBackoff`] — the middle rung: retry budgets with
//!   exponential backoff and checkpoint validation, but no strike-based
//!   cordoning and no spare pool. Flapping nodes exhaust their budget and
//!   page a human, who replaces the node by hand.
//! * [`StormPolicy::FullOrchestrator`] — the deployed ladder: strike
//!   counts cordon flapping nodes automatically, a hot-spare pool absorbs
//!   the first cordons, and once spares are exhausted the campaign
//!   *degrades gracefully* — it continues at reduced data-parallel width
//!   (throughput scaled by the surviving fleet fraction) instead of
//!   stalling for hardware. Cordoned nodes come back after a repair
//!   turnaround, first refilling lost width and then restocking the spare
//!   pool.
//!
//! Everything is a pure function of (campaign, policy, rng): byte-identical
//! across reruns at a fixed seed.

use acme_cluster::SparePool;
use acme_failure::storm::StormCampaign;
use acme_failure::{
    DiagnosisMemo, OrchestratorConfig, RecoveryAction, RecoveryOrchestrator, RetryPolicy, Watchdog,
};
use acme_obs::{ArgValue, Rec};
use acme_policy::{CheckpointChoice, CordonPolicy, RepairModel};
use acme_sim_core::{SimDuration, SimRng, SimTime};
use acme_training::checkpoint::{
    CheckpointEngine, CheckpointMode, CheckpointScenario, DurabilityTracker,
};

/// Restart cycles a crash loop burns before the on-call is paged under the
/// naive policy (nobody watches a restart counter, someone watches a
/// dashboard).
pub const NAIVE_LOOP_LIMIT: u32 = 3;

/// The recovery-policy ablation arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPolicy {
    /// Always restart, never cordon, never validate.
    NaiveRestart,
    /// Retry budget + exponential backoff + checkpoint validation; no
    /// cordons, no spares.
    RetryBackoff,
    /// The whole ladder: strikes → cordon → spare pool → graceful
    /// degradation.
    FullOrchestrator,
}

impl StormPolicy {
    /// Human-readable table label.
    pub fn label(&self) -> &'static str {
        match self {
            StormPolicy::NaiveRestart => "naive always-restart",
            StormPolicy::RetryBackoff => "retry + backoff",
            StormPolicy::FullOrchestrator => "full orchestrator (spares)",
        }
    }

    fn orchestrator_config(&self) -> OrchestratorConfig {
        match self {
            // Never consulted for decisions, but constructed uniformly.
            StormPolicy::NaiveRestart => OrchestratorConfig::benign(),
            StormPolicy::RetryBackoff => OrchestratorConfig {
                retry: RetryPolicy::production(),
                cordon: CordonPolicy::disabled(),
                validate_checkpoints: true,
            },
            StormPolicy::FullOrchestrator => OrchestratorConfig::production(),
        }
    }
}

/// The full recovery-policy bundle one storm replay runs under: every
/// choice of the three-arm ablation as a policy object.
/// [`StormPolicies::for_arm`] builds each arm (the golden outputs pin them
/// byte for byte); the policy lab sweeps the other combinations.
#[derive(Debug, Clone, Copy)]
pub struct StormPolicies {
    /// Table / shard label.
    pub label: &'static str,
    /// Naive always-restart: no ladder is consulted at all.
    pub naive: bool,
    /// Retry ladder, cordon threshold and checkpoint validation.
    pub orchestrator: OrchestratorConfig,
    /// Whether the hot-spare pool absorbs cordons.
    pub use_spares: bool,
    /// How cordoned nodes return to service.
    pub repair: RepairModel,
    /// Checkpoint-cadence strategy.
    pub checkpoint: CheckpointChoice,
    /// Noise lines per incident log bundle. The depth never changes a
    /// diagnosis (see [`DiagnosisMemo`]), but every noise line consumes rng
    /// draws, so it selects the replay's draw stream: the ablation arms
    /// use 150 and sweep cells 24, the streams the golden outputs pin.
    pub noise_lines: usize,
}

impl StormPolicies {
    /// The policy bundle of one ablation arm.
    pub fn for_arm(policy: StormPolicy) -> Self {
        StormPolicies {
            label: policy.label(),
            naive: policy == StormPolicy::NaiveRestart,
            orchestrator: policy.orchestrator_config(),
            use_spares: policy == StormPolicy::FullOrchestrator,
            repair: RepairModel::datacenter_default(),
            checkpoint: CheckpointChoice::fixed(),
            noise_lines: 150,
        }
    }
}

/// What one policy achieved against one storm.
#[derive(Debug, Clone)]
pub struct StormOutcome {
    /// Primary incidents handled.
    pub incidents: u32,
    /// Times a human had to act.
    pub manual_interventions: u32,
    /// Retry-budget escalations (subset of the manual interventions).
    pub escalations: u32,
    /// Wasted restart cycles spent crash-looping.
    pub crash_loop_restarts: u32,
    /// Nodes taken out of service.
    pub nodes_cordoned: u32,
    /// Cordons covered by a hot spare.
    pub spares_used: u32,
    /// Total downtime.
    pub downtime: SimDuration,
    /// Training progress rolled back, seconds.
    pub rollback_secs: f64,
    /// Useful training seconds kept (degradation-weighted, net of
    /// rollback).
    pub useful_secs: f64,
    /// Seconds spent running at reduced data-parallel width.
    pub degraded_secs: f64,
    /// Throughput lost to that reduced width: Σ span × (1 − factor),
    /// seconds of full-width-equivalent training. Not printed by the storm
    /// tables; the `blame` analyzer charges it to the cordon/spare stage.
    pub degraded_loss_secs: f64,
    /// The campaign horizon.
    pub horizon: SimDuration,
    /// The checkpoint interval the cadence policy chose, seconds.
    pub checkpoint_interval_secs: f64,
    /// GPU-seconds of checkpoint write traffic over the horizon:
    /// (horizon / interval) × time-to-durable. Shorter intervals buy
    /// cheaper rollbacks with more of this — the waste axis the Pareto
    /// sweep trades against. Not printed by the storm tables.
    pub checkpoint_traffic_secs: f64,
    /// Rush repair dispatches: one field-engineer page per cordon under an
    /// expedited [`RepairModel`]. Zero for the three ablation arms.
    pub rush_dispatches: u32,
    /// Total detect-stage seconds across incidents (diagnosis + watchdog
    /// timeouts). Mirrors the flight recorder's stage instants, but is
    /// accumulated even when no recorder is attached.
    pub detect_secs: f64,
    /// Total localize-stage seconds (NCCL sweeps + checkpoint validation).
    pub localize_secs: f64,
    /// Total restart/backoff-stage seconds (the recovery-wait residual).
    pub restart_secs: f64,
}

impl StormOutcome {
    /// Useful training time over the horizon.
    pub fn goodput(&self) -> f64 {
        self.useful_secs / self.horizon.as_secs_f64()
    }

    /// Mean time to recovery per incident, minutes.
    pub fn mttr_mins(&self) -> f64 {
        if self.incidents == 0 {
            return 0.0;
        }
        self.downtime.as_mins_f64() / self.incidents as f64
    }

    /// GPU-seconds thrown away: training rolled back, width-degradation
    /// loss, restart cycles burnt crash-looping, and checkpoint write
    /// traffic. One of the three Pareto axes of the policy lab.
    pub fn wasted_gpu_secs(&self) -> f64 {
        self.rollback_secs
            + self.degraded_loss_secs
            + RESTART.as_secs_f64() * self.crash_loop_restarts as f64
            + self.checkpoint_traffic_secs
    }

    /// Humans in the loop: on-call interventions plus rush repair
    /// dispatches. One of the three Pareto axes of the policy lab.
    pub fn human_actions(&self) -> u32 {
        self.manual_interventions + self.rush_dispatches
    }
}

/// Fixed wall-time costs of the recovery machinery (shared with the
/// topology-aware netstorm runner so both storms price the same
/// machinery identically).
pub(crate) const DIAGNOSE: SimDuration = SimDuration::from_mins(2);
pub(crate) const NCCL_LOCALIZE: SimDuration = SimDuration::from_mins(5);
pub(crate) const RESTART: SimDuration = SimDuration::from_mins(10);
pub(crate) const FLAP_REFAIL: SimDuration = SimDuration::from_mins(5);
pub(crate) const BUG_REFAIL: SimDuration = SimDuration::from_mins(2);

/// Live fleet capacity: spare pool, uncovered losses, and the repair
/// queue that eventually returns cordoned nodes to service. Repair
/// turnaround comes from the bundle's [`RepairModel`] (historically a
/// hardwired 36 h constant).
struct Fleet {
    total: u32,
    lost: u32,
    spares: SparePool,
    repair_model: RepairModel,
    repairs: std::collections::BinaryHeap<std::cmp::Reverse<SimTime>>,
}

impl Fleet {
    fn new(total: u32, spares: SparePool, repair_model: RepairModel) -> Self {
        Fleet {
            total,
            lost: 0,
            spares,
            repair_model,
            repairs: std::collections::BinaryHeap::new(),
        }
    }

    /// Current throughput factor: 1.0 at full data-parallel width.
    fn factor(&self) -> f64 {
        (self.total - self.lost) as f64 / self.total as f64
    }

    /// Cordon a node at `at`; returns `true` when a hot spare covered it,
    /// `false` when the fleet degrades instead. Either way the node enters
    /// the repair queue.
    fn cordon(&mut self, at: SimTime) -> bool {
        self.repairs
            .push(std::cmp::Reverse(self.repair_model.return_at(at)));
        if self.spares.draw() {
            true
        } else {
            self.lost += 1;
            false
        }
    }

    /// Apply one completed repair: an uncovered loss rejoins the fleet
    /// first; otherwise the repaired node restocks the spare pool.
    fn repair(&mut self) {
        if self.lost > 0 {
            self.lost -= 1;
        } else {
            self.spares.restock(1);
        }
    }

    /// Pop the next repair completing at or before `by`, if any.
    fn next_repair_by(&mut self, by: SimTime) -> Option<SimTime> {
        match self.repairs.peek() {
            Some(&std::cmp::Reverse(r)) if r <= by => {
                self.repairs.pop();
                Some(r)
            }
            _ => None,
        }
    }
}

/// Accrue throughput-weighted uptime from `from` to `to`, applying repair
/// completions (which restore the throughput factor) as they occur inside
/// the span. Repairs that completed before `from` (during downtime) are
/// applied without accrual.
fn accrue(
    fleet: &mut Fleet,
    out: &mut StormOutcome,
    trained: &mut f64,
    from: SimTime,
    to: SimTime,
) {
    let mut cursor = from;
    while let Some(r) = fleet.next_repair_by(to) {
        if r > cursor {
            let span = (r - cursor).as_secs_f64();
            let factor = fleet.factor();
            *trained += span * factor;
            if factor < 1.0 {
                out.degraded_secs += span;
                out.degraded_loss_secs += span * (1.0 - factor);
            }
            cursor = r;
        }
        fleet.repair();
    }
    if to > cursor {
        let span = (to - cursor).as_secs_f64();
        let factor = fleet.factor();
        *trained += span * factor;
        if factor < 1.0 {
            out.degraded_secs += span;
            out.degraded_loss_secs += span * (1.0 - factor);
        }
    }
}

/// The deployment's configured checkpoint cadence (async writes); the
/// bundle's [`CheckpointChoice`] starts from it.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_mins(30);

/// Replays a [`StormCampaign`] under a policy bundle, on the Kalos-default
/// hot-spare pool (drawn from only when the bundle uses spares).
#[derive(Debug, Clone, Copy)]
pub struct StormRunner {
    /// Nodes in the training fleet.
    pub fleet_nodes: u32,
}

impl StormRunner {
    /// The deployed shape: the storm's fleet, the Kalos-default spare
    /// pool, 30-minute async checkpoints.
    pub fn deployed(fleet_nodes: u32) -> Self {
        StormRunner { fleet_nodes }
    }

    /// Run `campaign` under a policy bundle ([`StormPolicies::for_arm`]
    /// for one of the three ablation arms). Deterministic in (campaign,
    /// bundle, rng-seed).
    pub fn run_with(
        &self,
        campaign: &StormCampaign,
        policies: &StormPolicies,
        rng: &mut SimRng,
    ) -> StormOutcome {
        self.run_with_traced(campaign, policies, rng, &mut Rec::off())
    }

    /// [`Self::run_with`] with a flight recorder attached: every incident
    /// becomes a span named by its root cause and tagged with its
    /// [`acme_failure::FailureCategory`], with instant events decomposing
    /// the recovery wait into detect → localize → restart/backoff stages
    /// (plus rollback and cordon markers). Recording never touches the
    /// simulation: outcome and rng stream are identical to
    /// [`Self::run_with`].
    pub fn run_with_traced(
        &self,
        campaign: &StormCampaign,
        policies: &StormPolicies,
        rng: &mut SimRng,
        rec: &mut Rec<'_>,
    ) -> StormOutcome {
        let engine = CheckpointEngine::new(CheckpointScenario::paper_123b());
        // The cadence policy sees the observed campaign conditions: the
        // storm's empirical MTTF and how much of it cascades.
        let events_n = campaign.events.len().max(1) as f64;
        let mttf_secs = campaign.horizon.as_secs_f64() / events_n;
        let cascade_fraction = campaign
            .events
            .iter()
            .filter(|e| !e.secondaries.is_empty())
            .count() as f64
            / events_n;
        let tracker = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &policies.checkpoint,
            CHECKPOINT_INTERVAL.as_secs_f64(),
            mttf_secs,
            cascade_fraction,
        );
        let mut diagnoses = DiagnosisMemo::default();
        let mut orch = RecoveryOrchestrator::new(policies.orchestrator);
        let mut fleet = Fleet::new(
            self.fleet_nodes,
            if policies.use_spares {
                SparePool::kalos_default()
            } else {
                SparePool::new(0)
            },
            policies.repair,
        );

        let interval = tracker.interval_secs;
        let mut out = StormOutcome {
            incidents: 0,
            manual_interventions: 0,
            escalations: 0,
            crash_loop_restarts: 0,
            nodes_cordoned: 0,
            spares_used: 0,
            downtime: SimDuration::ZERO,
            rollback_secs: 0.0,
            useful_secs: 0.0,
            degraded_secs: 0.0,
            degraded_loss_secs: 0.0,
            horizon: campaign.horizon,
            checkpoint_interval_secs: interval,
            checkpoint_traffic_secs: campaign.horizon.as_secs_f64() / interval
                * engine.durable_secs(CheckpointMode::Asynchronous),
            rush_dispatches: 0,
            detect_secs: 0.0,
            localize_secs: 0.0,
            restart_secs: 0.0,
        };

        // Nodes permanently out of the fault pool: cordoned by the ladder
        // or physically replaced by a human. Either way they stop flapping.
        let mut fixed: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut up_since = SimTime::ZERO;
        let mut trained_weighted = 0.0f64;

        for e in &campaign.events {
            if e.at < up_since {
                continue; // absorbed by ongoing recovery
            }
            accrue(&mut fleet, &mut out, &mut trained_weighted, up_since, e.at);
            out.incidents += 1;
            let cat = e.reason.spec().category.label();
            rec.begin(
                e.at.as_secs_f64(),
                e.reason.label(),
                cat,
                &[("node", ArgValue::U64(u64::from(e.node)))],
            );

            // Diagnose: the cascade's secondary errors are exactly what the
            // log renderer buries the root cause under.
            let report = diagnoses.diagnose(e.reason, policies.noise_lines, rng);

            let base_needs_human = acme_failure::RecoveryManager.decide(report).needs_human();
            let decision = if policies.naive {
                None
            } else {
                Some(orch.decide(e.at, report))
            };

            let mut wait = DIAGNOSE;
            let mut rollback = tracker.loss_at(e.at.as_secs_f64());
            let mut human = false;
            // Recovery-stage decomposition for the flight recorder: detect
            // (diagnosis + watchdog timeouts) and localize (NCCL sweeps +
            // checkpoint validation) are tracked at their sources;
            // restart/backoff is the residual, so the three stages always
            // sum to `wait` exactly.
            let mut detect = DIAGNOSE;
            let mut localize = SimDuration::ZERO;

            // The event's flap only matters while its node is in service.
            let flapping = e.flapping && !fixed.contains(&e.node);

            match &decision {
                // ---- ladder policies --------------------------------
                Some(d) => {
                    wait += d.backoff;
                    if d.escalated {
                        out.escalations += 1;
                    }
                    if d.action.needs_human() {
                        // Base NotifyUser or an escalation: a human fixes
                        // the underlying cause outright.
                        human = true;
                        wait += manual_delay(e.at, rng);
                        if e.corrupt_checkpoint {
                            rollback += interval; // restores an older generation
                        }
                        if flapping {
                            fixed.insert(e.node); // node replaced by hand
                        }
                        wait += RESTART;
                    } else {
                        // Automated path.
                        if let RecoveryAction::AutoRestart { cordon_nodes: true } = d.action {
                            wait += NCCL_LOCALIZE;
                            localize += NCCL_LOCALIZE;
                            orch.record_strike(e.node);
                            if orch.should_cordon(e.node) {
                                orch.mark_cordoned(e.node);
                                fixed.insert(e.node);
                                out.nodes_cordoned += 1;
                                if policies.repair.rush {
                                    out.rush_dispatches += 1;
                                }
                                let covered = fleet.cordon(e.at + wait);
                                if covered {
                                    out.spares_used += 1;
                                }
                                rec.instant(
                                    (e.at + wait).as_secs_f64(),
                                    "cordon",
                                    cat,
                                    &[(
                                        "spare",
                                        ArgValue::Str(if covered { "covered" } else { "degraded" }),
                                    )],
                                );
                            }
                        }
                        // Checkpoint load, validated.
                        if e.corrupt_checkpoint && orch.config().validate_checkpoints {
                            // Integrity check catches it; fall back one
                            // generation automatically.
                            let pos = tracker.durable_position_at(e.at.as_secs_f64());
                            rollback += pos - tracker.fallback_position(pos);
                            let validate = SimDuration::from_secs_f64(tracker.validation_secs());
                            wait += validate;
                            localize += validate;
                        }
                        wait += RESTART;

                        // A hang during recovery: the restarted job comes
                        // back wedged; the tight recovery watchdog catches
                        // it and one more restart cycle runs.
                        if e.hang_in_recovery {
                            let mut w = Watchdog::recovery(e.at + wait);
                            let timeout = SimDuration::from_mins(11);
                            assert_eq!(
                                w.check(e.at + wait + timeout),
                                acme_failure::WatchdogState::Stuck
                            );
                            wait += timeout + RESTART;
                            detect += timeout;
                            out.crash_loop_restarts += 1;
                        }

                        // Flapping: the node re-fails right after every
                        // restart until cordoned or the budget pages a
                        // human to replace it.
                        if flapping && !fixed.contains(&e.node) {
                            let budget = orch.config().retry.budget;
                            let mut attempt = d.attempt;
                            loop {
                                wait += FLAP_REFAIL;
                                out.crash_loop_restarts += 1;
                                orch.record_strike(e.node);
                                if orch.should_cordon(e.node) {
                                    orch.mark_cordoned(e.node);
                                    fixed.insert(e.node);
                                    out.nodes_cordoned += 1;
                                    if policies.repair.rush {
                                        out.rush_dispatches += 1;
                                    }
                                    let covered = fleet.cordon(e.at + wait);
                                    if covered {
                                        out.spares_used += 1;
                                    }
                                    rec.instant(
                                        (e.at + wait).as_secs_f64(),
                                        "cordon",
                                        cat,
                                        &[(
                                            "spare",
                                            ArgValue::Str(if covered {
                                                "covered"
                                            } else {
                                                "degraded"
                                            }),
                                        )],
                                    );
                                    wait += RESTART;
                                    break;
                                }
                                attempt += 1;
                                if attempt > budget {
                                    // Budget exhausted mid-loop: escalate;
                                    // a human swaps the hardware.
                                    out.escalations += 1;
                                    human = true;
                                    wait += manual_delay(e.at + wait, rng);
                                    fixed.insert(e.node);
                                    wait += RESTART;
                                    break;
                                }
                                wait += orch.config().retry.backoff(attempt) + RESTART;
                            }
                        }
                    }
                }

                // ---- naive always-restart ---------------------------
                None => {
                    // Corrupt checkpoint: the unvalidated load defeats
                    // restart after restart until the on-call restores an
                    // older generation by hand.
                    if e.corrupt_checkpoint {
                        out.crash_loop_restarts += NAIVE_LOOP_LIMIT;
                        wait += RESTART * NAIVE_LOOP_LIMIT as u64;
                        human = true;
                        wait += manual_delay(e.at + wait, rng);
                        rollback += interval;
                        wait += RESTART;
                    } else {
                        wait += RESTART;
                    }

                    if e.hang_in_recovery {
                        // Nobody armed a recovery watchdog: the wedge sits
                        // until the steady-state 30-minute watchdog fires.
                        wait += SimDuration::from_mins(31) + RESTART;
                        detect += SimDuration::from_mins(31);
                        out.crash_loop_restarts += 1;
                    }

                    // Deterministic bugs re-fail on every naive restart.
                    if base_needs_human {
                        out.crash_loop_restarts += NAIVE_LOOP_LIMIT;
                        wait += (BUG_REFAIL + RESTART) * NAIVE_LOOP_LIMIT as u64;
                        human = true;
                        wait += manual_delay(e.at + wait, rng);
                    }

                    // Flapping node, never cordoned: crash-loop, then a
                    // human replaces the hardware.
                    if flapping {
                        out.crash_loop_restarts += NAIVE_LOOP_LIMIT;
                        wait += (FLAP_REFAIL + RESTART) * NAIVE_LOOP_LIMIT as u64;
                        human = true;
                        wait += manual_delay(e.at + wait, rng);
                        fixed.insert(e.node);
                        wait += RESTART;
                    }
                }
            }

            if human {
                out.manual_interventions += 1;
            }
            out.downtime += wait;
            out.rollback_secs += rollback;
            // Stage attribution, recorder or not: the three stages always
            // partition the recovery wait exactly.
            out.detect_secs += detect.as_secs_f64();
            out.localize_secs += localize.as_secs_f64();
            out.restart_secs += (wait - detect - localize).as_secs_f64();
            if rec.enabled() {
                let t0 = e.at.as_secs_f64();
                let restart = wait - detect - localize;
                rec.instant(
                    t0 + detect.as_secs_f64(),
                    "stage/detect",
                    cat,
                    &[("secs", ArgValue::F64(detect.as_secs_f64()))],
                );
                rec.instant(
                    t0 + (detect + localize).as_secs_f64(),
                    "stage/localize",
                    cat,
                    &[("secs", ArgValue::F64(localize.as_secs_f64()))],
                );
                rec.instant(
                    t0 + wait.as_secs_f64(),
                    "stage/restart",
                    cat,
                    &[("secs", ArgValue::F64(restart.as_secs_f64()))],
                );
                if rollback > 0.0 {
                    rec.instant(t0, "rollback", cat, &[("secs", ArgValue::F64(rollback))]);
                }
                rec.end(t0 + wait.as_secs_f64(), e.reason.label());
            }
            up_since = e.at + wait;
        }

        let end = SimTime::ZERO + campaign.horizon;
        if up_since < end {
            accrue(&mut fleet, &mut out, &mut trained_weighted, up_since, end);
        }
        out.useful_secs = (trained_weighted - out.rollback_secs).max(0.0);
        if rec.enabled() {
            let end_s = end.as_secs_f64();
            if out.degraded_secs > 0.0 {
                rec.instant(
                    end_s,
                    "degraded",
                    "Infrastructure",
                    &[
                        ("secs", ArgValue::F64(out.degraded_secs)),
                        ("loss_secs", ArgValue::F64(out.degraded_loss_secs)),
                    ],
                );
            }
            if up_since > end {
                // The last incident's recovery ran past the horizon: that
                // slice of its wait is not lost goodput (the horizon had
                // already ended), so the blame analyzer subtracts it.
                rec.instant(
                    end_s,
                    "overshoot",
                    "",
                    &[("lost_secs", ArgValue::F64((up_since - end).as_secs_f64()))],
                );
            }
        }
        out
    }
}

/// Human reaction time: short in the day, until-morning at night (§5.3) —
/// the same clock the friendly-world campaign uses (and the netstorm
/// runner, so network pages cost what node pages cost).
pub(crate) fn manual_delay(at: SimTime, rng: &mut SimRng) -> SimDuration {
    let hour = (at.as_secs() / 3600) % 24;
    if (8..23).contains(&hour) {
        SimDuration::from_mins(rng.range_u64(15, 45))
    } else {
        let secs_into_day = at.as_secs() % 86_400;
        let to_morning = if secs_into_day < 8 * 3600 {
            8 * 3600 - secs_into_day
        } else {
            86_400 - secs_into_day + 8 * 3600
        };
        SimDuration::from_secs(to_morning) + SimDuration::from_mins(rng.range_u64(10, 40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_failure::storm::{StormConfig, StormEngine};

    fn storm(seed: u64) -> StormCampaign {
        let mut rng = SimRng::new(seed).fork(1001);
        StormEngine::new(StormConfig::default_storm()).generate(&mut rng)
    }

    fn outcome(seed: u64, policy: StormPolicy) -> StormOutcome {
        let campaign = storm(seed);
        let mut rng = SimRng::new(seed).fork(2000 + policy as u64);
        StormRunner::deployed(campaign.fleet_nodes).run_with(
            &campaign,
            &StormPolicies::for_arm(policy),
            &mut rng,
        )
    }

    #[test]
    fn full_orchestrator_strictly_beats_naive_under_the_default_storm() {
        // The acceptance bar: better goodput AND fewer humans, at the
        // default seed and a couple of others for robustness.
        for seed in [42, 7, 3] {
            let naive = outcome(seed, StormPolicy::NaiveRestart);
            let full = outcome(seed, StormPolicy::FullOrchestrator);
            assert!(
                full.goodput() > naive.goodput(),
                "seed {seed}: goodput full {:.4} vs naive {:.4}",
                full.goodput(),
                naive.goodput()
            );
            assert!(
                full.manual_interventions < naive.manual_interventions,
                "seed {seed}: manual full {} vs naive {}",
                full.manual_interventions,
                naive.manual_interventions
            );
        }
    }

    #[test]
    fn every_ladder_rung_helps() {
        let naive = outcome(42, StormPolicy::NaiveRestart);
        let mid = outcome(42, StormPolicy::RetryBackoff);
        let full = outcome(42, StormPolicy::FullOrchestrator);
        // Retry+backoff already beats naive on wasted restarts…
        assert!(mid.crash_loop_restarts < naive.crash_loop_restarts);
        // …and the full ladder converts the middle rung's hardware pages
        // into automatic cordons.
        assert!(full.manual_interventions <= mid.manual_interventions);
        assert!(full.nodes_cordoned > 0);
        assert!(mid.nodes_cordoned == 0, "middle rung has no cordon rung");
    }

    #[test]
    fn spare_exhaustion_degrades_instead_of_stalling() {
        let full = outcome(42, StormPolicy::FullOrchestrator);
        if full.nodes_cordoned > full.spares_used {
            assert!(
                full.degraded_secs > 0.0,
                "uncovered cordons must show up as degraded time"
            );
        }
        // Restocked spares can serve several cordons over the campaign,
        // but never more than one per cordon.
        assert!(full.spares_used <= full.nodes_cordoned);
        // Degradation is a throughput haircut, not a stall: goodput stays
        // well above zero.
        assert!(full.goodput() > 0.5, "goodput {:.3}", full.goodput());
    }

    #[test]
    fn for_arm_pins_the_legacy_constants() {
        // The hardwired values the refactor lifted into policy objects —
        // changing any of these breaks golden byte-compatibility.
        for policy in [
            StormPolicy::NaiveRestart,
            StormPolicy::RetryBackoff,
            StormPolicy::FullOrchestrator,
        ] {
            let b = StormPolicies::for_arm(policy);
            assert_eq!(b.label, policy.label());
            assert_eq!(b.noise_lines, 150);
            assert_eq!(b.repair, RepairModel::datacenter_default());
            assert_eq!(b.repair.turnaround, SimDuration::from_hours(36));
            assert!(!b.repair.rush);
            assert_eq!(b.checkpoint, CheckpointChoice::fixed());
        }
        assert!(StormPolicies::for_arm(StormPolicy::NaiveRestart).naive);
        assert!(!StormPolicies::for_arm(StormPolicy::RetryBackoff).use_spares);
        assert!(StormPolicies::for_arm(StormPolicy::FullOrchestrator).use_spares);
    }

    #[test]
    fn shallow_log_bundles_remain_diagnosable() {
        // Sweep cells draw 24-line log bundles instead of 150: the
        // diagnosis signature lines are always present, so every incident
        // still diagnoses (the runner would panic otherwise). The rng
        // stream advances differently, which is why the ablation arms pin
        // 150 for golden byte-compatibility.
        let campaign = storm(42);
        let runner = StormRunner::deployed(campaign.fleet_nodes);
        let mut shallow = StormPolicies::for_arm(StormPolicy::FullOrchestrator);
        shallow.noise_lines = 24;
        let o = runner.run_with(&campaign, &shallow, &mut SimRng::new(1).fork(77));
        assert!(o.incidents > 20, "{} incidents", o.incidents);
        assert!(o.goodput() > 0.5 && o.goodput() < 1.0);
        // And determinism holds at the shallow depth.
        let o2 = runner.run_with(&campaign, &shallow, &mut SimRng::new(1).fork(77));
        assert_eq!(o.useful_secs, o2.useful_secs);
        assert_eq!(o.downtime, o2.downtime);
    }

    #[test]
    fn stage_totals_partition_the_downtime() {
        for policy in [
            StormPolicy::NaiveRestart,
            StormPolicy::RetryBackoff,
            StormPolicy::FullOrchestrator,
        ] {
            let o = outcome(42, policy);
            let staged = o.detect_secs + o.localize_secs + o.restart_secs;
            assert!(
                (staged - o.downtime.as_secs_f64()).abs() < 1e-6,
                "{policy:?}: stages {staged:.1}s vs downtime {:.1}s",
                o.downtime.as_secs_f64()
            );
        }
    }

    #[test]
    fn expedited_repair_pages_per_cordon() {
        let campaign = storm(42);
        let runner = StormRunner::deployed(campaign.fleet_nodes);
        let mut rush = StormPolicies::for_arm(StormPolicy::FullOrchestrator);
        rush.repair = RepairModel::expedited();
        let o = runner.run_with(&campaign, &rush, &mut SimRng::new(42).fork(88));
        assert_eq!(o.rush_dispatches, o.nodes_cordoned);
        assert_eq!(o.human_actions(), o.manual_interventions + o.nodes_cordoned);
        let default = outcome(42, StormPolicy::FullOrchestrator);
        assert_eq!(default.rush_dispatches, 0);
    }

    #[test]
    fn storm_outcomes_are_deterministic() {
        for policy in [
            StormPolicy::NaiveRestart,
            StormPolicy::RetryBackoff,
            StormPolicy::FullOrchestrator,
        ] {
            let a = outcome(9, policy);
            let b = outcome(9, policy);
            assert_eq!(a.incidents, b.incidents);
            assert_eq!(a.manual_interventions, b.manual_interventions);
            assert_eq!(a.useful_secs, b.useful_secs);
            assert_eq!(a.downtime, b.downtime);
        }
    }

    #[test]
    fn mttr_and_goodput_are_sane() {
        for policy in [
            StormPolicy::NaiveRestart,
            StormPolicy::RetryBackoff,
            StormPolicy::FullOrchestrator,
        ] {
            let o = outcome(42, policy);
            assert!(o.incidents > 20, "{policy:?}: {} incidents", o.incidents);
            assert!(o.mttr_mins() > 10.0, "{policy:?} MTTR {:.1}", o.mttr_mins());
            assert!(o.goodput() > 0.0 && o.goodput() < 1.0);
        }
    }
}
