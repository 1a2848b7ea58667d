//! The LLM development pipeline, end to end (Figure 1), and the integrated
//! fault-tolerant pretraining system (Figure 15).
//!
//! [`FaultTolerantTrainer`] wires the §6.1 pieces together the way the
//! deployed system does: failures strike a long pretraining campaign; each
//! produces a runtime log; the diagnosis pipeline (compression → rules →
//! agent) names the root cause; the recovery manager picks an action
//! (auto-restart with optional NCCL-localized cordoning, loss-spike
//! rollback-and-skip, or a human handoff); and training resumes from the
//! newest *durable* checkpoint. Silent hangs, which raise no error at all,
//! are caught by the watchdog.
//!
//! [`DevelopmentPipeline`] walks the five Figure-1 stages — data
//! preparation, pretraining, alignment, evaluation (deployment is out of
//! Acme's scope, §7) — producing one report per stage.

use acme_cluster::SharedStorage;
use acme_data::pipeline::{DataPipeline, PipelineStats};
use acme_evaluation::coordinator::{run as run_eval, Scheduler};
use acme_failure::taxonomy::FailureCategory;
use acme_failure::{
    DiagnosisMemo, FailureInjector, FailureReason, NcclTester, OrchestratorConfig, RecoveryAction,
    RecoveryOrchestrator, Watchdog, WatchdogState,
};
use acme_obs::{ArgValue, Rec};
use acme_sim_core::dist::Categorical;
use acme_sim_core::{SimDuration, SimRng, SimTime};
use acme_training::checkpoint::{
    CheckpointEngine, CheckpointMode, CheckpointScenario, DurabilityTracker,
};

use crate::storm::manual_delay;

/// What interrupted the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interruption {
    /// A failure that produced an error log.
    Error(FailureReason),
    /// A silent hang (no error; the watchdog must catch it).
    SilentHang,
    /// A loss spike (the framework's metric monitor raises it).
    LossSpike,
}

/// One handled incident.
#[derive(Debug, Clone)]
pub struct Incident {
    /// When it struck.
    pub at: SimTime,
    /// What happened.
    pub kind: Interruption,
    /// What the system did.
    pub action: RecoveryAction,
    /// Wall time until training was back up.
    pub downtime: SimDuration,
    /// Training progress discarded by the rollback, seconds.
    pub rollback_secs: f64,
}

/// The outcome of a fault-tolerant campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every incident, in order.
    pub incidents: Vec<Incident>,
    /// Incidents that needed a human.
    pub manual_interventions: u32,
    /// Nodes cordoned by the NCCL localizer.
    pub nodes_cordoned: u32,
    /// Total downtime.
    pub downtime: SimDuration,
    /// Total rolled-back progress, seconds of training.
    pub rollback_secs: f64,
    /// Useful training seconds kept by the end of the horizon.
    pub useful_secs: f64,
}

impl CampaignReport {
    /// Fraction of incidents handled without a human.
    pub fn automation_fraction(&self) -> f64 {
        if self.incidents.is_empty() {
            return 1.0;
        }
        1.0 - self.manual_interventions as f64 / self.incidents.len() as f64
    }

    /// Goodput: useful training time over the horizon.
    pub fn goodput(&self, horizon: SimDuration) -> f64 {
        self.useful_secs / horizon.as_secs_f64()
    }
}

/// The integrated §6.1 system.
#[derive(Debug)]
pub struct FaultTolerantTrainer {
    /// Checkpoint cadence.
    pub checkpoint_interval: SimDuration,
    /// Whether the automatic system is active; when false every incident
    /// is handled like the early manual workflow.
    pub automatic: bool,
}

impl FaultTolerantTrainer {
    /// The deployed configuration: 30-minute async checkpoints, automatic
    /// recovery, a Kalos-sized fleet.
    pub fn deployed() -> Self {
        FaultTolerantTrainer {
            checkpoint_interval: SimDuration::from_mins(30),
            automatic: true,
        }
    }

    /// The pre-§6.1 baseline: sparse checkpoints, humans on call.
    pub fn manual_baseline() -> Self {
        FaultTolerantTrainer {
            checkpoint_interval: SimDuration::from_hours(5),
            automatic: false,
        }
    }

    /// Run a campaign over `horizon` against interruptions with the given
    /// mean spacing.
    pub fn run_campaign(
        &self,
        rng: &mut SimRng,
        mean_between: SimDuration,
        horizon: SimDuration,
    ) -> CampaignReport {
        self.run_campaign_traced(rng, mean_between, horizon, &mut Rec::off())
    }

    /// [`run_campaign`](Self::run_campaign) with a flight recorder: each
    /// incident becomes a span named after its interruption, tagged with
    /// the failure category, and decomposed into detect → localize →
    /// restart stage instants (DESIGN.md §10). With [`Rec::off`] this is
    /// exactly `run_campaign` — tracing never branches the simulation or
    /// consumes rng.
    pub fn run_campaign_traced(
        &self,
        rng: &mut SimRng,
        mean_between: SimDuration,
        horizon: SimDuration,
        rec: &mut Rec<'_>,
    ) -> CampaignReport {
        // Nodes the NCCL localizer searches: a Kalos-sized fleet.
        const FLEET_NODES: usize = 302;
        let times = FailureInjector::pretrain_schedule(rng, mean_between, horizon);
        // Infrastructure-heavy mix, as §5.2 observes for pretraining, with
        // a sprinkle of hangs and loss spikes.
        let infra: Vec<FailureReason> = FailureReason::ALL
            .iter()
            .copied()
            .filter(|r| r.is_infrastructure())
            .collect();
        let weights: Vec<f64> = infra.iter().map(|r| r.spec().num as f64).collect();
        let infra_picker = Categorical::new(&weights);

        let tracker = DurabilityTracker::new(
            CheckpointEngine::new(CheckpointScenario::paper_123b()),
            CheckpointMode::Asynchronous,
            self.checkpoint_interval.as_secs_f64(),
        );
        let mut diagnoses = DiagnosisMemo::default();
        // Benign disables every ladder rung, so the orchestrator decides
        // exactly as the stateless `RecoveryManager` does (the
        // differential test below pins this incident for incident).
        let mut orchestrator = RecoveryOrchestrator::new(OrchestratorConfig::benign());

        let mut incidents = Vec::new();
        let mut manual = 0;
        let mut cordoned = 0;
        let mut downtime = SimDuration::ZERO;
        let mut rollback = 0.0;
        let mut trained = SimDuration::ZERO; // cumulative useful time
        let mut up_since = SimTime::ZERO;

        for at in times {
            if at < up_since {
                continue; // absorbed by ongoing recovery
            }
            trained += at - up_since;

            let kind = match rng.below(10) {
                0 => Interruption::SilentHang,
                1 => Interruption::LossSpike,
                _ => Interruption::Error(infra[infra_picker.sample_index(rng)]),
            };

            let (action, diagnose_mins) = match kind {
                Interruption::Error(reason) => {
                    let report = diagnoses.diagnose(reason, 150, rng);
                    (orchestrator.decide(at, report).action, 2.0)
                }
                Interruption::SilentHang => {
                    // The watchdog fires after its timeout of silence.
                    let mut w = Watchdog::standard(at);
                    let noticed = at + SimDuration::from_mins(31);
                    assert_eq!(w.check(noticed), WatchdogState::Stuck);
                    (orchestrator.decide_stuck(at).action, 31.0)
                }
                Interruption::LossSpike => (orchestrator.decide_loss_spike(at).action, 1.0),
            };

            // Rollback: to the durable checkpoint (one interval earlier
            // still for a loss spike, which also skips data).
            let run_secs = at.as_secs_f64();
            let mut lost = tracker.loss_at(run_secs);
            if action == RecoveryAction::RollbackAndSkipData {
                lost += self.checkpoint_interval.as_secs_f64();
            }

            // Recovery wall time.
            let mut wait = SimDuration::from_mins_f64(diagnose_mins);
            let mut localize = SimDuration::ZERO;
            let needs_human = if self.automatic {
                action.needs_human()
            } else {
                true // the baseline pages a human for everything
            };
            if needs_human {
                manual += 1;
                wait += manual_delay(at, rng);
            }
            if self.automatic {
                if let RecoveryAction::AutoRestart { cordon_nodes: true } = action {
                    let faulty = std::iter::once(rng.below(FLEET_NODES as u64) as usize).collect();
                    let result = NcclTester::new(FLEET_NODES).run(&faulty);
                    cordoned += result.identified.len() as u32;
                    wait += SimDuration::from_mins(5); // two NCCL rounds
                    localize += SimDuration::from_mins(5);
                }
            }
            wait += SimDuration::from_mins(10); // cold start + checkpoint load

            if rec.enabled() {
                let (name, cat) = match kind {
                    Interruption::Error(reason) => (reason.label(), reason.spec().category.label()),
                    Interruption::SilentHang => ("Silent Hang", FailureCategory::Framework.label()),
                    Interruption::LossSpike => ("Loss Spike", FailureCategory::Script.label()),
                };
                let t0 = at.as_secs_f64();
                rec.begin(
                    t0,
                    name,
                    cat,
                    &[(
                        "manual",
                        ArgValue::Str(if needs_human { "yes" } else { "no" }),
                    )],
                );
                // detect (diagnosis) → localize (NCCL rounds) → restart
                // (human reaction + cold start) partition `wait` exactly.
                let detect = SimDuration::from_mins_f64(diagnose_mins);
                let restart = wait - detect - localize;
                rec.instant(
                    (at + detect).as_secs_f64(),
                    "stage/detect",
                    cat,
                    &[("secs", ArgValue::F64(detect.as_secs_f64()))],
                );
                if localize > SimDuration::ZERO {
                    rec.instant(
                        (at + detect + localize).as_secs_f64(),
                        "stage/localize",
                        cat,
                        &[("secs", ArgValue::F64(localize.as_secs_f64()))],
                    );
                }
                rec.instant(
                    (at + wait).as_secs_f64(),
                    "stage/restart",
                    cat,
                    &[("secs", ArgValue::F64(restart.as_secs_f64()))],
                );
                if lost > 0.0 {
                    rec.instant(t0, "rollback", cat, &[("secs", ArgValue::F64(lost))]);
                }
                rec.end((at + wait).as_secs_f64(), name);
            }

            incidents.push(Incident {
                at,
                kind,
                action,
                downtime: wait,
                rollback_secs: lost,
            });
            downtime += wait;
            rollback += lost;
            up_since = at + wait;
        }
        let end = SimTime::ZERO + horizon;
        if up_since < end {
            trained += end - up_since;
        }

        CampaignReport {
            incidents,
            manual_interventions: manual,
            nodes_cordoned: cordoned,
            downtime,
            rollback_secs: rollback,
            useful_secs: trained.as_secs_f64() - rollback,
        }
    }
}

/// A per-stage report for the Figure-1 walk.
#[derive(Debug)]
pub struct PipelineReport {
    /// Stage 1: data preparation.
    pub data: PipelineStats,
    /// Stage 2: pretraining under faults.
    pub pretraining: CampaignReport,
    /// Stage 3: alignment (SFT) — GPU-hours spent.
    pub alignment_gpu_hours: f64,
    /// Stage 4: evaluation — coordinator makespan, seconds.
    pub evaluation_makespan_secs: f64,
}

/// The five-stage development pipeline of Figure 1.
#[derive(Debug)]
pub struct DevelopmentPipeline {
    seed: u64,
    scale: u32,
}

impl DevelopmentPipeline {
    /// Build with a seed at default scale.
    pub fn new(seed: u64) -> Self {
        Self::with_scale(seed, 1)
    }

    /// Build with a seed and a workload multiplier: `scale`× the raw
    /// corpus and a `scale`×-longer pretraining campaign. `scale == 1` is
    /// exactly [`new`](Self::new).
    pub fn with_scale(seed: u64, scale: u32) -> Self {
        DevelopmentPipeline {
            seed,
            scale: scale.max(1),
        }
    }

    /// Walk the stages once and report.
    pub fn run(&self) -> PipelineReport {
        let mut rng = SimRng::new(self.seed).fork(901);
        let (_, _, data) =
            DataPipeline::new(512).run_synthetic(&mut rng, 300 * self.scale as usize, 1200, 80.0);

        let mut train_rng = SimRng::new(self.seed).fork(902);
        let pretraining = FaultTolerantTrainer::deployed().run_campaign(
            &mut train_rng,
            SimDuration::from_hours(15),
            SimDuration::from_days(14 * self.scale as u64),
        );

        // Alignment: SFT on a 7B over 32 GPUs for ~6 hours (§2.1's
        // "smaller set of high-quality labeled corpora").
        let alignment_gpu_hours = 32.0 * 6.0;

        let evaluation = run_eval(
            Scheduler::FullCoordinator,
            &acme_evaluation::benchmarks::registry(),
            4,
            &SharedStorage::seren(),
            14.0,
        )
        .expect("the benchmark registry is non-empty and four nodes is non-zero");

        PipelineReport {
            data,
            pretraining,
            alignment_gpu_hours,
            evaluation_makespan_secs: evaluation.makespan_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(automatic: bool, seed: u64) -> CampaignReport {
        let trainer = if automatic {
            FaultTolerantTrainer::deployed()
        } else {
            FaultTolerantTrainer::manual_baseline()
        };
        let mut rng = SimRng::new(seed);
        trainer.run_campaign(
            &mut rng,
            SimDuration::from_hours(15),
            SimDuration::from_days(21),
        )
    }

    #[test]
    fn deployed_system_is_mostly_automatic() {
        let r = campaign(true, 1);
        assert!(!r.incidents.is_empty());
        // §6.1: manual intervention reduced by ~90%.
        assert!(
            r.automation_fraction() > 0.85,
            "automation {:.2}",
            r.automation_fraction()
        );
        assert!(r.nodes_cordoned > 0, "hardware faults should cordon nodes");
    }

    #[test]
    fn baseline_pages_humans_for_everything() {
        let r = campaign(false, 1);
        assert_eq!(r.manual_interventions as usize, r.incidents.len());
        assert_eq!(r.automation_fraction(), 0.0);
    }

    #[test]
    fn deployed_system_wins_on_goodput_and_rollback() {
        let auto = campaign(true, 2);
        let manual = campaign(false, 2);
        let horizon = SimDuration::from_days(21);
        assert!(auto.goodput(horizon) > manual.goodput(horizon));
        // Denser durable checkpoints → less rollback.
        assert!(auto.rollback_secs < manual.rollback_secs);
        assert!(auto.downtime < manual.downtime);
    }

    #[test]
    fn incident_mix_covers_all_kinds() {
        let r = campaign(true, 3);
        let errors = r
            .incidents
            .iter()
            .filter(|i| matches!(i.kind, Interruption::Error(_)))
            .count();
        assert!(
            errors > r.incidents.len() / 2,
            "errors dominate pretraining failures"
        );
        // Goodput stays positive and below 1.
        assert!(r.goodput(SimDuration::from_days(21)) > 0.5);
        assert!(r.goodput(SimDuration::from_days(21)) < 1.0);
    }

    #[test]
    fn loss_spikes_roll_back_further() {
        let r = campaign(true, 4);
        if let Some(spike) = r
            .incidents
            .iter()
            .find(|i| i.kind == Interruption::LossSpike)
        {
            assert_eq!(spike.action, RecoveryAction::RollbackAndSkipData);
            assert!(spike.rollback_secs >= 1800.0, "extra interval discarded");
        }
    }

    #[test]
    fn figure1_pipeline_walks_all_stages() {
        let report = DevelopmentPipeline::new(5).run();
        assert!(report.data.curated_docs > 0);
        assert!(report.pretraining.useful_secs > 0.0);
        assert!(report.alignment_gpu_hours > 0.0);
        assert!(report.evaluation_makespan_secs > 0.0);
    }

    #[test]
    fn benign_orchestrator_matches_recovery_manager_incident_for_incident() {
        // The differential guarantee behind the orchestrator swap: with an
        // infinite retry budget, no corruption handling and no strike
        // cordons, the stateful orchestrator must reproduce the stateless
        // RecoveryManager's decision for every incident of a campaign.
        use acme_failure::{DiagnosisPipeline, LogBundle, RecoveryManager};
        use acme_sim_core::dist::Categorical;

        let mut rng = SimRng::new(1234);
        let times = FailureInjector::pretrain_schedule(
            &mut rng,
            SimDuration::from_hours(9),
            SimDuration::from_days(28),
        );
        let infra: Vec<FailureReason> = FailureReason::ALL
            .iter()
            .copied()
            .filter(|r| r.is_infrastructure())
            .collect();
        let weights: Vec<f64> = infra.iter().map(|r| r.spec().num as f64).collect();
        let picker = Categorical::new(&weights);

        let manager = RecoveryManager;
        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::benign());
        let mut pipeline = DiagnosisPipeline::with_all_rules();
        assert!(times.len() > 20, "campaign too quiet to be a real test");
        for (i, &at) in times.iter().enumerate() {
            match i % 5 {
                3 => {
                    let d = orch.decide_stuck(at);
                    assert_eq!(d.action, manager.decide_stuck(), "incident {i}");
                    assert_eq!(d.backoff, SimDuration::ZERO);
                }
                4 => {
                    let d = orch.decide_loss_spike(at);
                    assert_eq!(d.action, manager.decide_loss_spike(), "incident {i}");
                }
                _ => {
                    let reason = infra[picker.sample_index(&mut rng)];
                    let bundle = LogBundle::generate(reason, 120, &mut rng);
                    let report = pipeline.diagnose(&bundle.lines).unwrap();
                    let d = orch.decide(at, &report);
                    assert_eq!(
                        d.action,
                        manager.decide(&report),
                        "incident {i}: {reason:?}"
                    );
                    assert_eq!(d.backoff, SimDuration::ZERO);
                    assert!(!d.escalated);
                }
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = campaign(true, 9);
        let b = campaign(true, 9);
        assert_eq!(a.incidents.len(), b.incidents.len());
        assert_eq!(a.manual_interventions, b.manual_interventions);
        assert_eq!(a.useful_secs, b.useful_secs);
    }
}
