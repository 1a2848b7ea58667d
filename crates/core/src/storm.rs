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
//!   cordoning, so the spare pool is never drawn. Flapping nodes exhaust
//!   their budget and page a human, who replaces the node by hand.
//! * [`StormPolicy::FullOrchestrator`] — the deployed ladder: strike
//!   counts cordon flapping nodes automatically, a hot-spare pool absorbs
//!   the first cordons, and once spares are exhausted the campaign
//!   *degrades gracefully* — it continues at reduced data-parallel width
//!   (throughput scaled by the surviving fleet fraction) instead of
//!   stalling for hardware. Cordoned nodes come back after a repair
//!   turnaround, first refilling lost width and then restocking the spare
//!   pool.
//!
//! The runner only decides each incident's answer. Its [`Ledger`] books
//! the answer on the job's timeline: each recovery wait split into detect
//! → localize → restart stages per fault category, with rollback,
//! degraded loss and the horizon overshoot beside it. `repro blame` and
//! the policy lab read those books, and a flight recorder
//! ([`StormRunner::run_with_traced`]) only exports the same values as
//! instants.
//!
//! Everything is a pure function of (campaign, policy, rng): byte-identical
//! across reruns at a fixed seed.

use acme_failure::storm::StormCampaign;
use acme_failure::{full_rule_report, OrchestratorConfig, RecoveryAction, RecoveryOrchestrator};
use acme_obs::{ArgValue, Rec};
use acme_policy::{CheckpointChoice, CordonPolicy, RepairModel, RetryPolicy};
use acme_sim_core::{SimDuration, SimRng, SimTime};
use acme_training::checkpoint::{CheckpointMode, CheckpointScenario, DurabilityTracker};

use crate::ledger::Ledger;

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
    /// All arms, weakest first.
    pub const ALL: [StormPolicy; 3] = [
        StormPolicy::NaiveRestart,
        StormPolicy::RetryBackoff,
        StormPolicy::FullOrchestrator,
    ];

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
            // The naive arm never consults its orchestrator; it carries the
            // production config only so every bundle has one.
            StormPolicy::NaiveRestart | StormPolicy::FullOrchestrator => {
                OrchestratorConfig::production()
            }
            StormPolicy::RetryBackoff => OrchestratorConfig {
                retry: RetryPolicy::production(),
                cordon: CordonPolicy::disabled(),
            },
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
    /// Retry ladder and cordon threshold.
    pub orchestrator: OrchestratorConfig,
    /// How cordoned nodes return to service.
    pub repair: RepairModel,
    /// Checkpoint-cadence strategy.
    pub checkpoint: CheckpointChoice,
    /// Noise lines per incident log bundle. The depth never changes a
    /// diagnosis (see [`full_rule_report`]), but every noise line consumes rng
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
            repair: RepairModel::datacenter_default(),
            checkpoint: CheckpointChoice::fixed(),
            noise_lines: 150,
        }
    }
}

/// What one policy achieved against one storm.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The job's books: downtime, rollback, degraded time and loss (the
    /// storm tables print the time, `blame` the loss), the stage matrix,
    /// useful time and goodput.
    pub ledger: Ledger,
}

impl StormOutcome {
    /// Mean time to recovery per incident, minutes.
    pub fn mttr_mins(&self) -> f64 {
        if self.incidents == 0 {
            return 0.0;
        }
        self.ledger.downtime.as_mins_f64() / self.incidents as f64
    }

    /// GPU-seconds thrown away: training rolled back, width-degradation
    /// loss, restart cycles burnt crash-looping, and checkpoint write
    /// traffic. One of the three Pareto axes of the policy lab.
    pub fn wasted_gpu_secs(&self) -> f64 {
        self.ledger.rollback_secs
            + self.ledger.degraded_loss_secs
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

/// The stuck-job watchdog (§5.3, Appendix A.1): a hang raises no error, and
/// the paper's users found such jobs only "upon manual inspection". After
/// 30 minutes without an iteration it declares the job stuck, in the first
/// whole minute past the timeout, and recovery runs as for a diagnosis.
pub(crate) const WATCHDOG: SimDuration = SimDuration::from_mins(31);
/// The tighter watchdog the escalation ladder arms over a restart window: a
/// restarted job silent for 10 minutes is wedged, and waiting out the
/// steady-state timeout would only burn fleet time. It fires at 11 minutes.
pub(crate) const RECOVERY_WATCHDOG: SimDuration = SimDuration::from_mins(11);

/// Hot spares a Kalos-sized pretraining fleet holds in reserve: enough
/// for the common single-node loss, not for a storm.
const HOT_SPARES: u32 = 2;

/// Live fleet capacity: the hot spares still in reserve, uncovered
/// losses, and the repair queue that eventually returns cordoned nodes to
/// service. Repair turnaround comes from the bundle's [`RepairModel`]
/// (historically a hardwired 36 h constant).
struct Fleet {
    total: u32,
    lost: u32,
    spares: u32,
    repair_model: RepairModel,
    repairs: std::collections::BinaryHeap<std::cmp::Reverse<SimTime>>,
}

impl Fleet {
    fn new(total: u32, repair_model: RepairModel) -> Self {
        Fleet {
            total,
            lost: 0,
            spares: HOT_SPARES,
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
        if self.spares > 0 {
            self.spares -= 1;
            true
        } else {
            self.lost += 1;
            false
        }
    }

    /// Apply one completed repair: an uncovered loss rejoins the fleet
    /// first; otherwise the repaired node becomes a spare again. Each
    /// repair answers one cordon, so a restock only ever returns a spare
    /// that a cordon drew and the reserve never exceeds [`HOT_SPARES`].
    fn repair(&mut self) {
        if self.lost > 0 {
            self.lost -= 1;
        } else {
            self.spares += 1;
        }
    }

    /// Run the job on this fleet until `to`: it trains at the fleet's
    /// width, which each repair completing on the way restores (repairs
    /// that completed while the job was down restore it at no accrual).
    fn run_until(&mut self, ledger: &mut Ledger, to: SimTime) {
        while let Some(&std::cmp::Reverse(r)) = self.repairs.peek() {
            if r > to {
                break;
            }
            self.repairs.pop();
            ledger.run_until(r, self.factor());
            self.repair();
        }
        ledger.run_until(to, self.factor());
    }
}

/// The deployment's configured checkpoint cadence (async writes); the
/// bundle's [`CheckpointChoice`] starts from it, and netstorm runs at it.
pub(crate) const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_mins(30);

/// Replays a [`StormCampaign`] under a policy bundle, with two hot spares
/// in reserve (drawn from only when the bundle's ladder cordons).
#[derive(Debug, Clone, Copy)]
pub struct StormRunner {
    /// Nodes in the training fleet.
    pub fleet_nodes: u32,
}

impl StormRunner {
    /// The deployed shape: the storm's fleet, two hot spares, 30-minute
    /// async checkpoints.
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
        let scenario = CheckpointScenario::paper_123b();
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
            scenario,
            CheckpointMode::Asynchronous,
            &policies.checkpoint,
            CHECKPOINT_INTERVAL.as_secs_f64(),
            mttf_secs,
            cascade_fraction,
        );
        let mut orch = RecoveryOrchestrator::new(policies.orchestrator);
        let mut fleet = Fleet::new(self.fleet_nodes, policies.repair);

        let interval = tracker.interval_secs;
        let mut out = StormOutcome {
            checkpoint_interval_secs: interval,
            checkpoint_traffic_secs: campaign.horizon.as_secs_f64() / interval
                * scenario.durable_secs(CheckpointMode::Asynchronous),
            ledger: Ledger::new(campaign.horizon),
            ..StormOutcome::default()
        };

        // Nodes permanently out of the fault pool: cordoned by the ladder
        // or physically replaced by a human. Either way they stop flapping.
        let mut fixed: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();

        for e in &campaign.events {
            if out.ledger.is_down(e.at) {
                continue; // absorbed by ongoing recovery
            }
            fleet.run_until(&mut out.ledger, e.at);
            out.incidents += 1;
            let category = e.reason.spec().category;
            let cat = category.label();
            rec.begin(
                e.at.as_secs_f64(),
                e.reason.label(),
                cat,
                &[("node", ArgValue::U64(u64::from(e.node)))],
            );

            // Diagnose: the cascade's secondary errors are exactly what the
            // log renderer buries the root cause under.
            let report = full_rule_report(e.reason, policies.noise_lines, rng);

            let base_needs_human = acme_failure::RecoveryManager.decide(report).needs_human();
            let decision = if policies.naive {
                None
            } else {
                Some(orch.decide(e.at, report))
            };

            let mut wait = DIAGNOSE;
            let mut rollback = tracker.loss_at(e.at.as_secs_f64());
            let mut human = false;
            // Recovery-stage decomposition: detect (diagnosis + watchdog
            // timeouts) and localize (NCCL sweeps + checkpoint validation)
            // are tracked at their sources; restart/backoff is the
            // residual, so the three stages always sum to `wait` exactly.
            let mut detect = DIAGNOSE;
            let mut localize = SimDuration::ZERO;
            // When this incident's strikes cordoned its node.
            let mut cordoned_at = None;

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
                            if strike(&mut orch, &mut fixed, e.node) {
                                cordoned_at = Some(e.at + wait);
                            }
                        }
                        // Checkpoint load, validated.
                        if e.corrupt_checkpoint {
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
                            wait += RECOVERY_WATCHDOG + RESTART;
                            detect += RECOVERY_WATCHDOG;
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
                                if strike(&mut orch, &mut fixed, e.node) {
                                    cordoned_at = Some(e.at + wait);
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
                        // until the steady-state watchdog fires.
                        wait += WATCHDOG + RESTART;
                        detect += WATCHDOG;
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

            // A cordoned node leaves for repair; a hot spare covers it
            // while the pool lasts, otherwise the fleet runs degraded.
            if let Some(at) = cordoned_at {
                let covered = fleet.cordon(at);
                out.spares_used += u32::from(covered);
                rec.instant(
                    at.as_secs_f64(),
                    "cordon",
                    cat,
                    &[(
                        "spare",
                        ArgValue::Str(if covered { "covered" } else { "degraded" }),
                    )],
                );
            }
            if human {
                out.manual_interventions += 1;
            }
            let stages = [detect, localize, wait - detect - localize];
            let name = e.reason.label();
            out.ledger.book(e.at, name, category, stages, rollback, rec);
        }

        let end = out.ledger.end();
        fleet.run_until(&mut out.ledger, end);
        out.ledger.close(rec);
        // Every cordon marked a node the orchestrator had not cordoned
        // yet, and an expedited repair model pages once per cordon.
        out.nodes_cordoned = orch.cordoned_count();
        if policies.repair.rush {
            out.rush_dispatches = out.nodes_cordoned;
        }
        out
    }
}

/// Record a strike against `node` and cordon it once its strikes cross the
/// threshold: out of the fault pool for good. True when this strike
/// cordoned it.
fn strike(
    orch: &mut RecoveryOrchestrator,
    fixed: &mut std::collections::BTreeSet<u32>,
    node: u32,
) -> bool {
    orch.record_strike(node);
    let cordon = orch.should_cordon(node);
    if cordon {
        orch.mark_cordoned(node);
        fixed.insert(node);
    }
    cordon
}

/// Human reaction time to a page at `at` (§5.3): `daytime` draws it from
/// 08:00 to 23:00; at night the on-call sleeps until 08:00 and then takes
/// a 10–40 min coffee. The one on-call clock of every replay.
pub(crate) fn reaction(
    at: SimTime,
    rng: &mut SimRng,
    daytime: impl FnOnce(&mut SimRng) -> SimDuration,
) -> SimDuration {
    let secs_into_day = at.as_secs() % 86_400;
    if (8 * 3600..23 * 3600).contains(&secs_into_day) {
        daytime(rng)
    } else {
        let to_morning = (86_400 + 8 * 3600 - secs_into_day) % 86_400;
        SimDuration::from_secs(to_morning) + SimDuration::from_mins(rng.range_u64(10, 40))
    }
}

/// The on-call [`reaction`] of the storm, netstorm and pipeline replays:
/// 15–45 min by day, so network pages cost what node pages cost.
pub(crate) fn manual_delay(at: SimTime, rng: &mut SimRng) -> SimDuration {
    reaction(at, rng, |rng| SimDuration::from_mins(rng.range_u64(15, 45)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use acme_failure::storm::{StormConfig, StormEngine};
    use acme_failure::FailureCategory;
    use acme_obs::{Phase, Recorder};

    fn storm(seed: u64) -> StormCampaign {
        let mut rng = SimRng::new(seed).fork(1001);
        StormEngine::new(StormConfig::default_storm()).generate(&mut rng)
    }

    pub(crate) fn outcome(seed: u64, policy: StormPolicy) -> StormOutcome {
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
                full.ledger.goodput() > naive.ledger.goodput(),
                "seed {seed}: goodput full {:.4} vs naive {:.4}",
                full.ledger.goodput(),
                naive.ledger.goodput()
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
                full.ledger.degraded_secs > 0.0,
                "uncovered cordons must show up as degraded time"
            );
        }
        // Restocked spares can serve several cordons over the campaign,
        // but never more than one per cordon.
        assert!(full.spares_used <= full.nodes_cordoned);
        // Degradation is a throughput haircut, not a stall: goodput stays
        // well above zero.
        assert!(
            full.ledger.goodput() > 0.5,
            "goodput {:.3}",
            full.ledger.goodput()
        );
    }

    #[test]
    fn spares_cover_cordons_and_repairs_refill_width_before_restocking() {
        let mut fleet = Fleet::new(10, RepairModel::datacenter_default());
        assert!(fleet.cordon(SimTime::ZERO));
        assert!(fleet.cordon(SimTime::ZERO));
        assert!(!fleet.cordon(SimTime::ZERO), "no spare left for a third");
        assert_eq!(fleet.factor(), 0.9);
        fleet.repair();
        assert_eq!(fleet.factor(), 1.0, "a repair refills lost width first");
        fleet.repair();
        assert!(
            fleet.cordon(SimTime::ZERO),
            "the second repair restocked a spare"
        );
        assert_eq!(fleet.factor(), 1.0);
    }

    #[test]
    fn for_arm_pins_the_legacy_constants() {
        // The hardwired values the refactor lifted into policy objects —
        // changing any of these breaks golden byte-compatibility.
        for policy in StormPolicy::ALL {
            let b = StormPolicies::for_arm(policy);
            assert_eq!(b.label, policy.label());
            assert_eq!(b.noise_lines, 150);
            assert_eq!(b.repair, RepairModel::datacenter_default());
            assert_eq!(b.repair.turnaround, SimDuration::from_hours(36));
            assert!(!b.repair.rush);
            assert_eq!(b.checkpoint, CheckpointChoice::fixed());
        }
        assert!(StormPolicies::for_arm(StormPolicy::NaiveRestart).naive);
    }

    #[test]
    fn shallow_log_bundles_remain_diagnosable() {
        // Sweep cells draw 24-line log bundles instead of 150. The depth
        // never changes a full-rule report, but the rng stream advances
        // differently, which is why the ablation arms pin 150 for golden
        // byte-compatibility.
        let campaign = storm(42);
        let runner = StormRunner::deployed(campaign.fleet_nodes);
        let mut shallow = StormPolicies::for_arm(StormPolicy::FullOrchestrator);
        shallow.noise_lines = 24;
        let o = runner.run_with(&campaign, &shallow, &mut SimRng::new(1).fork(77));
        assert!(o.incidents > 20, "{} incidents", o.incidents);
        assert!(o.ledger.goodput() > 0.5 && o.ledger.goodput() < 1.0);
        // And determinism holds at the shallow depth.
        let o2 = runner.run_with(&campaign, &shallow, &mut SimRng::new(1).fork(77));
        assert_eq!(o, o2);
    }

    #[test]
    fn the_export_sums_to_the_outcome_bit_for_bit() {
        // The recording is an export of the outcome's own accounting: its
        // `stage/*` and `rollback` instants, summed per category in
        // recording order, are the outcome's matrices bit for bit.
        for seed in [42, 7, 3] {
            let campaign = storm(seed);
            let mut r = Recorder::new();
            let o = StormRunner::deployed(campaign.fleet_nodes).run_with_traced(
                &campaign,
                &StormPolicies::for_arm(StormPolicy::FullOrchestrator),
                &mut SimRng::new(seed).fork(2002),
                &mut Rec::on(&mut r),
            );
            let mut stages = [[0.0; 3]; 3];
            let mut rollback = [0.0; 3];
            let (mut incidents, mut cordons, mut overshoot) = (0, 0, 0.0);
            for ev in r.events() {
                incidents += u32::from(ev.phase == Phase::Begin);
                let secs = |key| {
                    ev.args.iter().find_map(|&(k, v)| match v {
                        ArgValue::F64(x) if k == key => Some(x),
                        _ => None,
                    })
                };
                let ci = FailureCategory::ALL
                    .iter()
                    .position(|c| c.label() == ev.cat);
                match (ev.name.as_str(), ci) {
                    ("stage/detect", Some(ci)) => stages[ci][0] += secs("secs").unwrap(),
                    ("stage/localize", Some(ci)) => stages[ci][1] += secs("secs").unwrap(),
                    ("stage/restart", Some(ci)) => stages[ci][2] += secs("secs").unwrap(),
                    ("rollback", Some(ci)) => rollback[ci] += secs("secs").unwrap(),
                    ("cordon", _) => cordons += 1,
                    ("overshoot", _) => overshoot += secs("lost_secs").unwrap(),
                    _ => {}
                }
            }
            assert_eq!(stages, o.ledger.stage_secs, "seed {seed}");
            assert_eq!(rollback, o.ledger.category_rollback_secs, "seed {seed}");
            assert_eq!(overshoot, o.ledger.overshoot_secs(), "seed {seed}");
            assert_eq!(incidents, o.incidents, "seed {seed}");
            assert_eq!(cordons, o.nodes_cordoned, "seed {seed}");
            assert!(o.nodes_cordoned > 0, "seed {seed}: the full arm cordons");
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
        for policy in StormPolicy::ALL {
            assert_eq!(outcome(9, policy), outcome(9, policy));
        }
    }

    #[test]
    fn mttr_and_goodput_are_sane() {
        for policy in StormPolicy::ALL {
            let o = outcome(42, policy);
            assert!(o.incidents > 20, "{policy:?}: {} incidents", o.incidents);
            assert!(o.mttr_mins() > 10.0, "{policy:?} MTTR {:.1}", o.mttr_mins());
            assert!(o.ledger.goodput() > 0.0 && o.ledger.goodput() < 1.0);
        }
    }
}
