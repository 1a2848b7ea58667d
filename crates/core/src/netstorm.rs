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
//!
//! Each network fault goes through the same three steps: break the
//! fabric, decide the arm's answer (wait, restarts, pages, reroute,
//! rollback) from a (fault, arm) table, then book that answer, charge
//! the degraded loss and heal the fabric in one place.

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

    /// Price one localization round over the live fabric: the probe
    /// world on `hosts` runs a small all-gather; a world crossing dead
    /// links hits the NCCL timeout ([`NCCL_LOCALIZE`]) instead of
    /// completing.
    fn probe_round_secs(fabric: &NetFabric, hosts: &[u32]) -> SimDuration {
        let gpus = hosts.len() as u32 * fabric.fabric().gpus_per_node;
        let secs = fabric.collective_secs(Collective::AllGather, 128e6, gpus, hosts);
        SimDuration::from_secs_f64(secs.min(NCCL_LOCALIZE.as_secs_f64()))
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
        let (edges, pods, half) = (
            fabric.tree().edge_switches(),
            fabric.tree().pods(),
            self.radix / 2,
        );

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

        // A training step's wall time on the fabric as it stands; priced
        // here once on the healthy tree, before the first fault.
        let step_secs = |fabric: &NetFabric| {
            STEP_COMPUTE_SECS
                + fabric.collective_secs(Collective::AllReduce, STEP_ALLREDUCE_BYTES, gpus, &hosts)
        };
        let healthy_step = step_secs(&fabric);

        let mut orch = RecoveryOrchestrator::new(OrchestratorConfig::production());
        let tester = NcclTester::new(tree_hosts as usize);

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
            let e = match strike {
                // Primaries cost the same under every arm: diagnose,
                // restart, roll back to the durable position. The ablation
                // isolates the network dimension.
                Strike::Primary(at) => {
                    out.incidents += 1;
                    out.restarts += 1;
                    out.downtime += DIAGNOSE + RESTART;
                    out.rollback_secs += tracker.loss_at(at.as_secs_f64());
                    continue;
                }
                Strike::Net(e) => e,
            };
            out.net_faults += 1;
            let at = e.at;

            // Break the fabric. A dead ToR strands every host under it
            // for the replacement lead time, whatever the arm does.
            let stranded: Option<Vec<u32>> = match e.fault {
                NetFault::LinkFlap { edge, port } => {
                    fabric.fail_edge_uplink(edge % edges, port % half);
                    None
                }
                NetFault::EdgeSwitchFail { edge } => {
                    fabric.fail_edge_switch(edge % edges);
                    Some(fabric.tree().hosts_under_edge(edge % edges).collect())
                }
                NetFault::AggSwitchFail { pod, agg } => {
                    fabric.fail_agg_switch(pod % pods, agg % half);
                    None
                }
                NetFault::Congestion { pod, factor_pct } => {
                    fabric.congest_pod(pod % pods, f64::from(factor_pct) / 100.0);
                    None
                }
            };
            // The share of throughput the job gives up while it runs on
            // the broken fabric: the stranded width, or the step slowdown.
            let loss = match &stranded {
                Some(domain) => domain.len() as f64 / f64::from(tree_hosts),
                None => 1.0 - (healthy_step / step_secs(&fabric)).min(1.0),
            };
            // The hosts localization sweeps: the stranded domain, else
            // the whole fleet.
            let world = stranded.as_deref().unwrap_or(&hosts);
            let probe = || Self::probe_round_secs(&fabric, world);
            let locate = || -> Vec<u32> {
                let faulty: BTreeSet<usize> = world.iter().map(|&h| h as usize).collect();
                tester
                    .run(&faulty)
                    .identified
                    .iter()
                    .map(|&n| n as u32)
                    .collect()
            };
            // Naive: diagnose, then restart into the fault until the
            // on-call is paged.
            let crash_loop =
                |refail: SimDuration| DIAGNOSE + (refail + RESTART) * u64::from(NAIVE_LOOP_LIMIT);
            let page = |wait: SimDuration, rng: &mut SimRng| wait + manual_delay(at + wait, rng);

            // The arm's answer: (wait, restarts, pages, rerouted, rolled
            // back to the durable position).
            let (wait, restarts, pages, reroute, rollback) = match (e.fault, policy) {
                // ECMP around the dead uplink or aggregation plane: the
                // aware arm reads the link telemetry straight off.
                (
                    NetFault::LinkFlap { .. } | NetFault::AggSwitchFail { .. },
                    NetRecoveryPolicy::TopologyAware,
                ) => (REROUTE, 0, 0, true, false),
                // The blind arm first burns a probe sweep proving no node
                // is at fault…
                (NetFault::LinkFlap { .. }, NetRecoveryPolicy::TopologyBlind) => {
                    (REROUTE + DIAGNOSE + probe(), 0, 0, true, false)
                }
                // …and behind a dead aggregation switch a full two-round
                // sweep (which names nobody) plus a restart.
                (NetFault::AggSwitchFail { .. }, NetRecoveryPolicy::TopologyBlind) => {
                    (REROUTE + DIAGNOSE + probe() * 2 + RESTART, 1, 0, true, true)
                }
                // Naive: the NCCL timeout is a crash. A flap that outlives
                // the first restart crash-loops until the on-call pulls up
                // a dashboard.
                (NetFault::LinkFlap { .. }, NetRecoveryPolicy::Naive) => {
                    if e.duration > DIAGNOSE + RESTART {
                        let wait = page(crash_loop(FLAP_REFAIL) + RESTART, rng) + RESTART;
                        (wait, NAIVE_LOOP_LIMIT + 2, 1, false, true)
                    } else {
                        (DIAGNOSE + RESTART, 1, 0, false, true)
                    }
                }
                // Naive: the timeouts behind a dead aggregation switch
                // crash-loop into a page.
                (NetFault::AggSwitchFail { .. }, NetRecoveryPolicy::Naive) => {
                    let wait = page(crash_loop(FLAP_REFAIL), rng) + RESTART;
                    (wait, NAIVE_LOOP_LIMIT + 1, 1, false, true)
                }
                // Round one of the probe pattern blankets the fleet; the
                // tree maps the failing worlds onto ONE fault domain.
                // Drain the switch — one action — and restart at reduced
                // width.
                (NetFault::EdgeSwitchFail { edge }, NetRecoveryPolicy::TopologyAware) => {
                    let located = locate();
                    debug_assert_eq!(
                        fabric.tree().common_edge_domain(&located),
                        Some(edge % edges)
                    );
                    orch.mark_domain_cordoned(&located);
                    (DIAGNOSE + probe() + RESTART, 1, 0, false, true)
                }
                // Topology-blind: the two-round sweep correctly names
                // every stranded node, then cordons them one by one — k/2
                // actions for one dead switch.
                (NetFault::EdgeSwitchFail { .. }, NetRecoveryPolicy::TopologyBlind) => {
                    for n in locate() {
                        orch.mark_cordoned(n);
                    }
                    (DIAGNOSE + probe() * 2 + RESTART, 1, 0, false, true)
                }
                // Naive: the stranded "bad nodes" crash-loop one after
                // another; each gets its own page.
                (NetFault::EdgeSwitchFail { .. }, NetRecoveryPolicy::Naive) => {
                    let wait = world
                        .iter()
                        .fold(crash_loop(FLAP_REFAIL), |wait, _| page(wait, rng));
                    (
                        wait + RESTART,
                        NAIVE_LOOP_LIMIT + 1,
                        world.len() as u32,
                        false,
                        true,
                    )
                }
                // Link telemetry says "hot, not broken": ride the window
                // out degraded. No downtime, no humans.
                (NetFault::Congestion { .. }, NetRecoveryPolicy::TopologyAware) => {
                    (SimDuration::ZERO, 0, 0, false, false)
                }
                // The ladder probes for a faulty node; the sweep names
                // nobody (nothing is down) and the straggler escalates to
                // a page.
                (NetFault::Congestion { .. }, NetRecoveryPolicy::TopologyBlind) => {
                    (page(DIAGNOSE + probe() * 2, rng), 0, 1, false, false)
                }
                // Naive: stragglers read as hangs; futile restarts, then
                // a page.
                (NetFault::Congestion { .. }, NetRecoveryPolicy::Naive) => (
                    page(crash_loop(BUG_REFAIL), rng),
                    NAIVE_LOOP_LIMIT,
                    1,
                    false,
                    true,
                ),
            };

            out.restarts += restarts;
            out.manual_interventions += pages;
            out.reroutes += u32::from(reroute);
            out.downtime += wait;
            if rollback {
                out.rollback_secs += tracker.loss_at(at.as_secs_f64());
            }
            // The job runs degraded for the whole lead time of a dead
            // ToR, never on a flapping link it keeps restarting over, and
            // otherwise for whatever the fault outlasts the wait.
            let dur = e.duration.as_secs_f64();
            let degraded = match e.fault {
                NetFault::EdgeSwitchFail { .. } => dur,
                NetFault::LinkFlap { .. } if !reroute => 0.0,
                _ => (dur - wait.as_secs_f64()).max(0.0),
            };
            out.degraded_loss_secs += degraded * loss;
            fabric.heal();
        }

        out.cordon_actions = orch.cordon_actions();
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
    fn each_fault_kind_books_its_pinned_costs_under_every_arm() {
        // One network fault on an otherwise quiet fortnight, per arm:
        // (restarts, reroutes, pages, cordon actions, downtime µs,
        // rollback s, degraded loss s), pinned bit for bit. The long flap
        // outlives DIAGNOSE + RESTART, which the generator's 60–600 s
        // flaps never do.
        type Row = (u32, u32, u32, u32, u64, f64, f64);
        let flap = NetFault::LinkFlap { edge: 5, port: 2 };
        let cases: [(&str, NetFault, SimDuration, [Row; 3]); 5] = [
            (
                "short flap",
                flap,
                SimDuration::from_secs(300),
                [
                    (1, 0, 0, 0, 720_000_000, 1043.0, 0.0),
                    (0, 1, 0, 0, 150_019_247, 0.0, 5.651438287545823),
                    (0, 1, 0, 0, 30_000_000, 0.0, 10.173894363881292),
                ],
            ),
            (
                "long flap",
                flap,
                SimDuration::from_mins(40),
                [
                    (5, 0, 1, 0, 6_480_000_000, 1043.0, 0.0),
                    (0, 1, 0, 0, 150_019_247, 0.0, 84.78172778440032),
                    (0, 1, 0, 0, 30_000_000, 0.0, 89.30418386073579),
                ],
            ),
            (
                "edge-switch death",
                NetFault::EdgeSwitchFail { edge: 9 },
                SimDuration::from_hours(24),
                [
                    (4, 0, 4, 0, 10_620_000_000, 1043.0, 2700.0),
                    (1, 0, 0, 4, 1_320_000_000, 1043.0, 2700.0),
                    (1, 0, 0, 1, 1_020_000_000, 1043.0, 2700.0),
                ],
            ),
            (
                "aggregation-switch death",
                NetFault::AggSwitchFail { pod: 3, agg: 1 },
                SimDuration::from_hours(24),
                [
                    (4, 0, 1, 0, 5_880_000_000, 1043.0, 3034.0813858508213),
                    (1, 1, 0, 0, 750_038_494, 1043.0, 3227.3839282686786),
                    (0, 1, 0, 0, 30_000_000, 0.0, 3254.5157637349157),
                ],
            ),
            (
                "congestion window",
                NetFault::Congestion {
                    pod: 7,
                    factor_pct: 400,
                },
                SimDuration::from_hours(2),
                [
                    (3, 0, 1, 0, 4_740_000_000, 1043.0, 641.0235945561892),
                    (0, 0, 1, 0, 1_020_102_682, 0.0, 1610.3495905579323),
                    (0, 0, 0, 0, 0, 0.0, 1876.1666182132367),
                ],
            ),
        ];
        let arms = [
            NetRecoveryPolicy::naive(),
            NetRecoveryPolicy::topology_blind(),
            NetRecoveryPolicy::topology_aware(),
        ];
        for (name, fault, duration, rows) in cases {
            let campaign = StormCampaign {
                horizon: SimDuration::from_days(14),
                fleet_nodes: 128,
                events: Vec::new(),
                net_events: vec![acme_failure::storm::NetStormEvent {
                    at: SimTime::from_secs(3 * 86_400 + 10 * 3600 + 1043),
                    fault,
                    duration,
                }],
            };
            for ((arm, policy), want) in arms.iter().enumerate().zip(rows) {
                let mut rng = SimRng::new(42).fork(4000 + arm as u64);
                let o = NetStormRunner::deployed(8).run(&campaign, policy, &mut rng);
                assert_eq!((o.incidents, o.net_faults), (0, 1));
                let got = (
                    o.restarts,
                    o.reroutes,
                    o.manual_interventions,
                    o.cordon_actions,
                    o.downtime.as_micros(),
                    o.rollback_secs,
                    o.degraded_loss_secs,
                );
                assert_eq!(got, want, "{name} under {}", policy.label());
            }
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
