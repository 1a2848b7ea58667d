//! Replaying a fault storm *on the network substrate*.
//!
//! [`crate::storm::StormRunner`] prices node-level recovery ladders, but
//! every network symptom in it is just another crash. [`NetStormRunner`]
//! replays the same campaign — primaries *plus* the
//! [`NetStormEvent`](acme_failure::storm::NetStormEvent) stream — against
//! a live [`NetFabric`], so link flaps, switch deaths and congestion
//! windows are priced by what the topology actually does to the job:
//!
//! * a **link flap** leaves `k/2 − 1` ECMP siblings up: a reroute is a
//!   30-second hiccup, a restart is ten minutes plus a rollback;
//! * an **edge (ToR) switch death** strands its whole fault domain: the
//!   job *must* restart at reduced width, and the only question is
//!   whether the operator drains one switch (one action) or chases
//!   `k/2` "bad nodes" one page at a time;
//! * an **aggregation switch death** removes one of `k/2` uplink planes:
//!   nothing is unreachable, the fabric is merely slower — restarting
//!   buys nothing;
//! * a **congestion window** is a straggler, not a fault: the
//!   topology-aware arm rides it out degraded, the others burn restarts
//!   or pages on a "failure" that no probe will ever localize.
//!
//! The two-round localization probes run through
//! [`acme_failure::NcclTester`] and are priced over the *live* fabric
//! ([`NetFabric::collective_secs`]); probe worlds that cross dead links
//! hit the NCCL timeout instead of completing. Primaries are handled
//! identically under every arm (diagnose + restart + rollback, no rng),
//! so the three-arm ablation isolates exactly the network dimension of
//! recovery. Everything is a pure function of (campaign, policy, rng).

use std::collections::BTreeSet;

use acme_cluster::comm::Collective;
use acme_cluster::net::{NetConfig, NetFabric};
use acme_cluster::FabricSpec;
use acme_failure::storm::{NetFault, StormCampaign};
use acme_failure::{NcclTester, OrchestratorConfig, RecoveryOrchestrator};
use acme_policy::{CheckpointChoice, NetRecoveryPolicy};
use acme_sim_core::{SimDuration, SimRng, SimTime};
use acme_training::checkpoint::{
    CheckpointEngine, CheckpointMode, CheckpointScenario, DurabilityTracker,
};

use crate::storm::{manual_delay, DIAGNOSE, NAIVE_LOOP_LIMIT, NCCL_LOCALIZE, RESTART};
use crate::storm::{BUG_REFAIL, FLAP_REFAIL};

/// An ECMP reroute around a localized fault: drain the path, repin the
/// rings. A hiccup, not an incident.
pub(crate) const REROUTE: SimDuration = SimDuration::from_secs(30);

/// Overlap-free compute per training step, seconds — a 123B dense step on
/// the fleet with the exposed all-reduce below.
const STEP_COMPUTE_SECS: f64 = 0.35;

/// Exposed all-reduce bytes per GPU per step (gradient bucket tail that
/// overlap cannot hide).
const STEP_ALLREDUCE_BYTES: f64 = 0.25e9;

/// Async checkpoint cadence, matching the storm deployment.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_mins(30);

/// What one recovery policy achieved against one network storm.
#[derive(Debug, Clone)]
pub struct NetStormOutcome {
    /// Node-level primary incidents handled (identical across arms).
    pub incidents: u32,
    /// Network faults handled.
    pub net_faults: u32,
    /// Times a human was paged.
    pub manual_interventions: u32,
    /// Cordon actions (node- or switch-level) the orchestrator issued.
    pub cordon_actions: u32,
    /// Job restarts (full stop + checkpoint load).
    pub restarts: u32,
    /// ECMP reroutes executed instead of restarts.
    pub reroutes: u32,
    /// Total downtime.
    pub downtime: SimDuration,
    /// Training progress rolled back across restarts, seconds.
    pub rollback_secs: f64,
    /// Full-width-equivalent seconds lost to running degraded (reduced
    /// width after a domain cordon, or a congested/derated fabric).
    pub degraded_loss_secs: f64,
    /// The campaign horizon.
    pub horizon: SimDuration,
}

impl NetStormOutcome {
    /// Useful training time over the horizon: what is left after
    /// downtime, degradation and rollbacks.
    pub fn goodput(&self) -> f64 {
        let h = self.horizon.as_secs_f64();
        ((h - self.downtime.as_secs_f64() - self.degraded_loss_secs - self.rollback_secs) / h)
            .max(0.0)
    }

    /// Humans in the loop: pages plus cordon actions. This is where the
    /// switch-level accounting shows: draining one dead ToR is one
    /// action topology-aware, `k/2` actions topology-blind.
    pub fn human_actions(&self) -> u32 {
        self.manual_interventions + self.cordon_actions
    }
}

/// Replays a [`StormCampaign`] (with its network fault stream) against a
/// fat-tree fabric under a [`NetRecoveryPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct NetStormRunner {
    /// Fat-tree radix (fleet = `k³/4` hosts).
    pub radix: u32,
}

impl NetStormRunner {
    /// The deployed shape on a radix-`radix` tree (k=8: 128 hosts, 1024
    /// GPUs), with 30-minute async checkpoints as in the storm deployment.
    pub fn deployed(radix: u32) -> Self {
        NetStormRunner { radix }
    }

    /// Price one localization round over the live fabric: each probe
    /// world runs a small all-gather; worlds crossing dead links hit the
    /// NCCL timeout ([`NCCL_LOCALIZE`]) instead of completing.
    fn probe_round_secs(fabric: &NetFabric, worlds: &[Vec<u32>]) -> SimDuration {
        let per_gpu = fabric.fabric().gpus_per_node;
        let mut worst = 0.0f64;
        for hosts in worlds {
            let gpus = hosts.len() as u32 * per_gpu;
            let secs = fabric.collective_secs(Collective::AllGather, 128e6, gpus, hosts);
            worst = worst.max(secs.min(NCCL_LOCALIZE.as_secs_f64()));
        }
        SimDuration::from_secs_f64(worst)
    }

    /// Run `campaign` under `policy`. Deterministic in (campaign, policy,
    /// rng-seed); the rng is consumed only by human reaction delays, in
    /// event order.
    pub fn run(
        &self,
        campaign: &StormCampaign,
        policy: &NetRecoveryPolicy,
        rng: &mut SimRng,
    ) -> NetStormOutcome {
        let spec = FabricSpec::kalos();
        let mut fabric = NetFabric::new(spec, NetConfig::for_fabric(&spec, self.radix));
        let tree_hosts = fabric.tree().hosts();
        let hosts: Vec<u32> = (0..tree_hosts).collect();
        let gpus = tree_hosts * spec.gpus_per_node;
        let half = self.radix / 2;

        // Checkpoint writes push shards up the same tree: the effective
        // per-writer bandwidth is the analytic storage term clamped by
        // the network share (a no-op while the fabric is healthy — the
        // differential tests pin that).
        let base = CheckpointScenario::paper_123b();
        let writers: Vec<u32> = (0..base.writers)
            .map(|w| w * tree_hosts / base.writers)
            .collect();
        let net_write = fabric.checkpoint_write_gbps(&writers);
        let scenario = base.with_remote_gbps(base.remote_gbps_per_writer.min(net_write));
        let engine = CheckpointEngine::new(scenario);
        let events_n = (campaign.events.len() + campaign.net_events.len()).max(1) as f64;
        let tracker = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &CheckpointChoice::fixed(),
            CHECKPOINT_INTERVAL.as_secs_f64(),
            campaign.horizon.as_secs_f64() / events_n,
            0.0,
        );

        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let tester = NcclTester::new(tree_hosts as usize);
        let healthy_step = STEP_COMPUTE_SECS
            + fabric.collective_secs(Collective::AllReduce, STEP_ALLREDUCE_BYTES, gpus, &hosts);

        let mut out = NetStormOutcome {
            incidents: 0,
            net_faults: 0,
            manual_interventions: 0,
            cordon_actions: 0,
            restarts: 0,
            reroutes: 0,
            downtime: SimDuration::ZERO,
            rollback_secs: 0.0,
            degraded_loss_secs: 0.0,
            horizon: campaign.horizon,
        };

        // Merge primaries and net faults into one strike-ordered stream.
        // Net faults sort after primaries at equal instants (they were
        // generated later).
        enum Strike<'a> {
            Primary(SimTime),
            Net(&'a acme_failure::storm::NetStormEvent),
        }
        let mut stream: Vec<Strike<'_>> = campaign
            .events
            .iter()
            .map(|e| Strike::Primary(e.at))
            .chain(campaign.net_events.iter().map(Strike::Net))
            .collect();
        stream.sort_by_key(|s| match s {
            Strike::Primary(at) => (*at, 0u8),
            Strike::Net(e) => (e.at, 1u8),
        });

        for strike in &stream {
            match strike {
                // Primaries cost the same under every arm: diagnose,
                // restart, roll back to the durable position. The ablation
                // isolates the network dimension.
                Strike::Primary(at) => {
                    out.incidents += 1;
                    out.restarts += 1;
                    out.downtime += DIAGNOSE + RESTART;
                    out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                }
                Strike::Net(e) => {
                    out.net_faults += 1;
                    let at = e.at;
                    let dur = e.duration;
                    match e.fault {
                        NetFault::LinkFlap { edge, port } => {
                            let edge = edge % fabric.tree().edge_switches();
                            let port = port % half;
                            fabric.fail_edge_uplink(edge, port);
                            let factor = fabric.step_throughput_factor(
                                STEP_COMPUTE_SECS,
                                STEP_ALLREDUCE_BYTES,
                                gpus,
                                &hosts,
                            );
                            if policy.reroutes() {
                                // ECMP around the dead uplink. The blind
                                // arm first burns a probe sweep proving no
                                // node is at fault; the aware arm reads
                                // the link telemetry straight off.
                                let mut wait = REROUTE;
                                if !policy.sees_fault_domains() {
                                    wait += DIAGNOSE
                                        + Self::probe_round_secs(
                                            &fabric,
                                            std::slice::from_ref(&hosts),
                                        );
                                }
                                out.reroutes += 1;
                                out.downtime += wait;
                                let remaining = (dur.as_secs_f64() - wait.as_secs_f64()).max(0.0);
                                out.degraded_loss_secs += remaining * (1.0 - factor);
                            } else {
                                // Naive: the NCCL timeout is a crash. The
                                // flap outlives the first restart, so the
                                // job crash-loops until the on-call pulls
                                // up a dashboard.
                                let mut wait = DIAGNOSE + RESTART;
                                let mut restarts = 1;
                                if dur > wait {
                                    restarts += NAIVE_LOOP_LIMIT;
                                    wait += (FLAP_REFAIL + RESTART) * u64::from(NAIVE_LOOP_LIMIT);
                                    out.manual_interventions += 1;
                                    wait += manual_delay(at + wait, rng) + RESTART;
                                    restarts += 1;
                                }
                                out.restarts += restarts;
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                            }
                            fabric.heal();
                        }

                        NetFault::EdgeSwitchFail { edge } => {
                            let edge = edge % fabric.tree().edge_switches();
                            fabric.fail_edge_switch(edge);
                            let domain: Vec<u32> = fabric.tree().hosts_under_edge(edge).collect();
                            // Whatever the arm does, the fault domain is
                            // gone for the replacement lead time: the job
                            // continues at reduced width.
                            let width_loss = domain.len() as f64 / f64::from(tree_hosts);

                            if policy.sees_fault_domains() {
                                // Round one of the probe pattern blankets
                                // the fleet; the tree maps the failing
                                // worlds onto ONE fault domain. Drain the
                                // switch — one action — and restart at
                                // reduced width.
                                let faulty: BTreeSet<usize> =
                                    domain.iter().map(|&h| h as usize).collect();
                                let probe = tester.run(&faulty);
                                let located: Vec<u32> =
                                    probe.identified.iter().map(|&n| n as u32).collect();
                                debug_assert_eq!(
                                    fabric.tree().common_edge_domain(&located),
                                    Some(edge)
                                );
                                out.cordon_actions +=
                                    u32::from(orch.mark_domain_cordoned(&located) > 0);
                                let wait = DIAGNOSE
                                    + Self::probe_round_secs(
                                        &fabric,
                                        std::slice::from_ref(&domain),
                                    )
                                    + RESTART;
                                out.restarts += 1;
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                            } else if policy.reroutes() {
                                // Topology-blind ladder: the two-round
                                // sweep correctly names every stranded
                                // node, then cordons them one by one —
                                // k/2 actions for one dead switch.
                                let faulty: BTreeSet<usize> =
                                    domain.iter().map(|&h| h as usize).collect();
                                let probe = tester.run(&faulty);
                                for &n in &probe.identified {
                                    let before = orch.cordoned_count();
                                    orch.mark_cordoned(n as u32);
                                    out.cordon_actions += u32::from(orch.cordoned_count() > before);
                                }
                                let wait = DIAGNOSE
                                    + Self::probe_round_secs(
                                        &fabric,
                                        std::slice::from_ref(&domain),
                                    )
                                    + Self::probe_round_secs(
                                        &fabric,
                                        std::slice::from_ref(&domain),
                                    )
                                    + RESTART;
                                out.restarts += 1;
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                            } else {
                                // Naive: four "bad nodes" crash-loop one
                                // after another; each gets its own page.
                                let mut wait = DIAGNOSE
                                    + (FLAP_REFAIL + RESTART) * u64::from(NAIVE_LOOP_LIMIT);
                                out.restarts += NAIVE_LOOP_LIMIT;
                                for _ in &domain {
                                    out.manual_interventions += 1;
                                    wait += manual_delay(at + wait, rng);
                                }
                                wait += RESTART;
                                out.restarts += 1;
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                            }
                            out.degraded_loss_secs += dur.as_secs_f64() * width_loss;
                            fabric.heal();
                        }

                        NetFault::AggSwitchFail { pod, agg } => {
                            let pod = pod % fabric.tree().pods();
                            let agg = agg % half;
                            fabric.fail_agg_switch(pod, agg);
                            let factor = fabric.step_throughput_factor(
                                STEP_COMPUTE_SECS,
                                STEP_ALLREDUCE_BYTES,
                                gpus,
                                &hosts,
                            );
                            if policy.reroutes() {
                                // Nothing is unreachable — reroute. The
                                // blind arm still pays a full two-round
                                // sweep (which names nobody) plus a
                                // restart before concluding that.
                                let mut wait = REROUTE;
                                if !policy.sees_fault_domains() {
                                    wait += DIAGNOSE
                                        + Self::probe_round_secs(
                                            &fabric,
                                            std::slice::from_ref(&hosts),
                                        )
                                        + Self::probe_round_secs(
                                            &fabric,
                                            std::slice::from_ref(&hosts),
                                        )
                                        + RESTART;
                                    out.restarts += 1;
                                    out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                                }
                                out.reroutes += 1;
                                out.downtime += wait;
                                let remaining = (dur.as_secs_f64() - wait.as_secs_f64()).max(0.0);
                                out.degraded_loss_secs += remaining * (1.0 - factor);
                            } else {
                                // Naive: timeouts crash-loop into a page.
                                let mut wait = DIAGNOSE
                                    + (FLAP_REFAIL + RESTART) * u64::from(NAIVE_LOOP_LIMIT);
                                out.restarts += NAIVE_LOOP_LIMIT;
                                out.manual_interventions += 1;
                                wait += manual_delay(at + wait, rng) + RESTART;
                                out.restarts += 1;
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                                let remaining = (dur.as_secs_f64() - wait.as_secs_f64()).max(0.0);
                                out.degraded_loss_secs += remaining * (1.0 - factor);
                            }
                            fabric.heal();
                        }

                        NetFault::Congestion { pod, factor_pct } => {
                            let pod = pod % fabric.tree().pods();
                            fabric.congest_pod(pod, f64::from(factor_pct) / 100.0);
                            let factor = fabric.step_throughput_factor(
                                STEP_COMPUTE_SECS,
                                STEP_ALLREDUCE_BYTES,
                                gpus,
                                &hosts,
                            );
                            if policy.degrades_on_congestion() {
                                // Link telemetry says "hot, not broken":
                                // ride the window out degraded. No
                                // downtime, no humans.
                                out.degraded_loss_secs += dur.as_secs_f64() * (1.0 - factor);
                            } else if policy.reroutes() {
                                // The ladder probes for a faulty node; the
                                // sweep names nobody (nothing is down) and
                                // the straggler escalates to a page.
                                let mut wait = DIAGNOSE
                                    + Self::probe_round_secs(&fabric, std::slice::from_ref(&hosts))
                                    + Self::probe_round_secs(&fabric, std::slice::from_ref(&hosts));
                                out.manual_interventions += 1;
                                wait += manual_delay(at + wait, rng);
                                out.downtime += wait;
                                let remaining = (dur.as_secs_f64() - wait.as_secs_f64()).max(0.0);
                                out.degraded_loss_secs += remaining * (1.0 - factor);
                            } else {
                                // Naive: stragglers read as hangs; futile
                                // restarts, then a page.
                                let mut wait =
                                    DIAGNOSE + (BUG_REFAIL + RESTART) * u64::from(NAIVE_LOOP_LIMIT);
                                out.restarts += NAIVE_LOOP_LIMIT;
                                out.manual_interventions += 1;
                                wait += manual_delay(at + wait, rng);
                                out.downtime += wait;
                                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                                let remaining = (dur.as_secs_f64() - wait.as_secs_f64()).max(0.0);
                                out.degraded_loss_secs += remaining * (1.0 - factor);
                            }
                            fabric.heal();
                        }
                    }
                }
            }
        }

        debug_assert!(healthy_step > STEP_COMPUTE_SECS);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_failure::storm::{NetStormConfig, StormConfig, StormEngine};

    fn net_campaign(seed: u64) -> StormCampaign {
        let mut cfg = StormConfig::default_storm();
        cfg.fleet_nodes = 128;
        cfg.net = Some(NetStormConfig::default_net());
        let mut rng = SimRng::new(seed).fork(1101);
        StormEngine::new(cfg).generate(&mut rng)
    }

    fn outcome(seed: u64, policy: &NetRecoveryPolicy, arm: u64) -> NetStormOutcome {
        let campaign = net_campaign(seed);
        let mut rng = SimRng::new(seed).fork(4000 + arm);
        NetStormRunner::deployed(8).run(&campaign, policy, &mut rng)
    }

    #[test]
    fn topology_aware_strictly_beats_naive_at_the_pinned_seeds() {
        // The ISSUE acceptance bar: better goodput AND fewer human
        // actions at seeds 42, 7 and 3.
        for seed in [42, 7, 3] {
            let naive = outcome(seed, &NetRecoveryPolicy::naive(), 0);
            let aware = outcome(seed, &NetRecoveryPolicy::topology_aware(), 2);
            assert!(
                aware.goodput() > naive.goodput(),
                "seed {seed}: goodput aware {:.4} vs naive {:.4}",
                aware.goodput(),
                naive.goodput()
            );
            assert!(
                aware.human_actions() < naive.human_actions(),
                "seed {seed}: humans aware {} vs naive {}",
                aware.human_actions(),
                naive.human_actions()
            );
        }
    }

    #[test]
    fn topology_blind_sits_between_the_extremes() {
        for seed in [42, 7, 3] {
            let naive = outcome(seed, &NetRecoveryPolicy::naive(), 0);
            let blind = outcome(seed, &NetRecoveryPolicy::topology_blind(), 1);
            let aware = outcome(seed, &NetRecoveryPolicy::topology_aware(), 2);
            assert!(
                blind.goodput() > naive.goodput(),
                "seed {seed}: blind {:.4} vs naive {:.4}",
                blind.goodput(),
                naive.goodput()
            );
            assert!(
                aware.goodput() >= blind.goodput(),
                "seed {seed}: aware {:.4} vs blind {:.4}",
                aware.goodput(),
                blind.goodput()
            );
            assert!(aware.human_actions() <= blind.human_actions());
        }
    }

    #[test]
    fn switch_cordons_cost_one_action_aware_and_k_half_blind() {
        let campaign = net_campaign(42);
        let edge_fails = campaign
            .net_events
            .iter()
            .filter(|e| matches!(e.fault, NetFault::EdgeSwitchFail { .. }))
            .count() as u32;
        let blind = outcome(42, &NetRecoveryPolicy::topology_blind(), 1);
        let aware = outcome(42, &NetRecoveryPolicy::topology_aware(), 2);
        // Aware: at most one action per edge-switch death (repeat deaths
        // of an already-drained switch are free).
        assert!(aware.cordon_actions <= edge_fails);
        if edge_fails > 0 {
            assert!(aware.cordon_actions >= 1);
            // Blind pays per node: strictly more actions than aware for
            // the same dead switches.
            assert!(
                blind.cordon_actions > aware.cordon_actions,
                "blind {} vs aware {}",
                blind.cordon_actions,
                aware.cordon_actions
            );
        }
    }

    #[test]
    fn primaries_cost_the_same_under_every_arm() {
        let naive = outcome(7, &NetRecoveryPolicy::naive(), 0);
        let aware = outcome(7, &NetRecoveryPolicy::topology_aware(), 2);
        assert_eq!(naive.incidents, aware.incidents);
        assert_eq!(naive.net_faults, aware.net_faults);
        // Aware never restarts for flaps/congestion: strictly fewer
        // restarts overall.
        assert!(aware.restarts < naive.restarts);
        assert!(aware.reroutes > 0);
        assert_eq!(naive.reroutes, 0);
    }

    #[test]
    fn outcomes_are_deterministic() {
        for (arm, p) in [
            NetRecoveryPolicy::naive(),
            NetRecoveryPolicy::topology_blind(),
            NetRecoveryPolicy::topology_aware(),
        ]
        .iter()
        .enumerate()
        {
            let a = outcome(9, p, arm as u64);
            let b = outcome(9, p, arm as u64);
            assert_eq!(a.downtime, b.downtime);
            assert_eq!(a.rollback_secs, b.rollback_secs);
            assert_eq!(a.degraded_loss_secs, b.degraded_loss_secs);
            assert_eq!(a.human_actions(), b.human_actions());
        }
    }

    #[test]
    fn checkpoint_path_is_analytic_while_healthy() {
        // The clamp `remote.min(net share)` is a no-op on the healthy
        // tree: the runner's rollback model is byte-identical to the
        // analytic scenario's.
        let spec = FabricSpec::kalos();
        let fabric = NetFabric::new(spec, NetConfig::for_fabric(&spec, 8));
        let base = CheckpointScenario::paper_123b();
        let writers: Vec<u32> = (0..base.writers).map(|w| w * 128 / base.writers).collect();
        let clamped = base
            .remote_gbps_per_writer
            .min(fabric.checkpoint_write_gbps(&writers));
        assert_eq!(clamped.to_bits(), base.remote_gbps_per_writer.to_bits());
    }
}
