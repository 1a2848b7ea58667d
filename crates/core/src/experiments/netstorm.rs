//! `netstorm` — the topology-aware network-recovery ablation.
//!
//! The storm (#37) and policylab (#41) ablations price node-level
//! recovery; every network symptom in them is just another crash. This
//! experiment replays the default fault storm *plus* its network fault
//! stream — link flaps, ToR/aggregation switch deaths, oversubscription
//! windows — against a live k=8 fat tree ([`acme_cluster::net`]) under
//! three [`NetRecoveryPolicy`] arms: naive (every symptom is a crash),
//! topology-blind (the ladder localizes and cordons *nodes*, one page per
//! node) and topology-aware (localization maps onto fault domains: drain
//! the switch in one action, reroute around partial faults, ride out
//! congestion degraded).
//!
//! The checkpoint-write path is demonstrated on the same tree with the
//! flow-level scheduler: 32 writers push their shards through the fabric
//! to the storage pod, healthy and then with that pod congested — the
//! max-min makespans land in the summary table and the flow counters in
//! `--timings-json`.

use acme_cluster::net::{Flow, FlowSim, NetConfig, NetFabric};
use acme_cluster::FabricSpec;
use acme_failure::storm::{NetStormConfig, StormConfig, StormEngine};
use acme_policy::NetRecoveryPolicy;
use acme_sim_core::{SimRng, SimTime};
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;
use acme_training::checkpoint::CheckpointScenario;

use super::shard::{run_shards, shard};
use super::RunParams;
use crate::netstorm::NetStormRunner;

/// Fat-tree radix of the netstorm fleet: 128 hosts, 1024 GPUs.
const RADIX: u32 = 8;

/// The storm the ablation replays: the default hostile fortnight
/// (stretched by `scale`) over the tree's 128 hosts, with the default
/// network fault surface switched on.
fn storm_config(scale: u32) -> StormConfig {
    let mut c = StormConfig::scaled(scale);
    c.fleet_nodes = RADIX * RADIX * RADIX / 4;
    c.net = Some(NetStormConfig::default_net());
    c
}

/// The three ablation arms, naive → blind → aware.
fn arms() -> [NetRecoveryPolicy; 3] {
    [
        NetRecoveryPolicy::naive(),
        NetRecoveryPolicy::topology_blind(),
        NetRecoveryPolicy::topology_aware(),
    ]
}

/// Validate every netstorm input for a `--scale` value: the fat-tree
/// shape and the scaled storm config (with its net surface). The `repro`
/// arg path calls this before dispatching `netstorm`, so a degenerate
/// configuration surfaces as a structured usage error instead of a panic
/// mid-replay.
pub fn validate_inputs(scale: u32) -> Result<(), String> {
    NetConfig::for_fabric(&FabricSpec::kalos(), RADIX)
        .validate()
        .map_err(|e| format!("netstorm fabric: {e}"))?;
    storm_config(scale.max(1))
        .validate()
        .map_err(|e| format!("netstorm storm: {e}"))?;
    Ok(())
}

/// Push the 123B checkpoint shards through the tree with the flow-level
/// scheduler and return the max-min makespan in seconds: 32 writers,
/// spread across the pods, each shipping its shard to the storage pod
/// (the last one), two writers per gateway host.
fn checkpoint_makespan_secs(fabric: &NetFabric) -> f64 {
    let scenario = CheckpointScenario::paper_123b();
    let hosts = fabric.tree().hosts();
    let gateways: Vec<u32> = fabric
        .tree()
        .hosts_under_pod(fabric.tree().pods() - 1)
        .collect();
    let flows: Vec<Flow> = (0..scenario.writers)
        .map(|w| Flow {
            src: w * hosts / scenario.writers,
            dst: gateways[w as usize % gateways.len()],
            gb: scenario.shard_gb(),
            start: SimTime::ZERO,
            tag: u64::from(w),
        })
        .collect();
    FlowSim::new(fabric)
        .run(&flows)
        .iter()
        .filter_map(|o| o.finish)
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max)
}

/// `netstorm` — replay the default storm (horizon scaled by `scale`) with
/// its network fault stream against a k=8 fat tree and ablate naive vs
/// topology-blind vs topology-aware recovery. Deterministic in
/// (seed, scale) and byte-identical at any `--jobs`.
pub fn netstorm(p: RunParams) -> String {
    if let Err(e) = validate_inputs(p.scale) {
        panic!("{e}");
    }
    let config = storm_config(p.scale);
    let mut rng = SimRng::new(p.seed).fork(1101);
    let campaign = StormEngine::new(config).generate(&mut rng);

    let spec = FabricSpec::kalos();
    let mut fabric = NetFabric::new(spec, NetConfig::for_fabric(&spec, RADIX));
    let healthy_ckpt = checkpoint_makespan_secs(&fabric);
    // An oversubscription window over the storage pod: every shard crosses
    // its aggregation tier, so the write path degrades end to end.
    fabric.congest_pod(
        fabric.tree().pods() - 1,
        f64::from(NetStormConfig::default_net().congestion_factor_pct) / 100.0,
    );
    let congested_ckpt = checkpoint_makespan_secs(&fabric);
    fabric.heal();

    let mut summary = Table::new(["netstorm property", "value"]);
    summary.row([
        "fat tree".to_owned(),
        format!(
            "k={} ({} hosts, {} switches)",
            RADIX,
            fabric.tree().hosts(),
            fabric.tree().edge_switches()
                + fabric.tree().agg_switches()
                + fabric.tree().core_switches(),
        ),
    ]);
    summary.row(["horizon".to_owned(), campaign.horizon.to_string()]);
    summary.row([
        "primary events".to_owned(),
        campaign.events.len().to_string(),
    ]);
    summary.row([
        "link flaps".to_owned(),
        campaign.link_flap_count().to_string(),
    ]);
    summary.row([
        "switch deaths".to_owned(),
        campaign.switch_fault_count().to_string(),
    ]);
    summary.row([
        "congestion windows".to_owned(),
        campaign.congestion_count().to_string(),
    ]);
    summary.row([
        "ckpt shards via tree (healthy)".to_owned(),
        format!("{} s", f(healthy_ckpt, 2)),
    ]);
    summary.row([
        "ckpt shards via tree (pod congested)".to_owned(),
        format!("{} s", f(congested_ckpt, 2)),
    ]);

    let runner = NetStormRunner::deployed(RADIX);
    // Each arm replays the same campaign with its own forked rng stream,
    // so the arms differ only by policy, never by draw order — which also
    // makes them independent shards (results consumed in arm order).
    let outcomes = run_shards(
        p.workers,
        arms()
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                let runner = &runner;
                let campaign = &campaign;
                shard(format!("arm/{}", policy.label()), move || {
                    let mut arm_rng = SimRng::new(p.seed).fork(4000 + i as u64);
                    runner.run(campaign, &policy, &mut arm_rng)
                })
            })
            .collect(),
    );

    let mut ablation = Table::new([
        "recovery policy",
        "net faults",
        "reroutes",
        "restarts",
        "pages",
        "cordon actions",
        "downtime (h)",
        "degraded loss (h)",
        "rollback (h)",
        "goodput",
    ]);
    let mut naive_goodput = 0.0;
    let mut naive_humans = 0;
    let mut aware_goodput = 0.0;
    let mut aware_humans = 0;
    for (policy, o) in arms().into_iter().zip(&outcomes) {
        if policy == NetRecoveryPolicy::naive() {
            naive_goodput = o.goodput();
            naive_humans = o.human_actions();
        }
        if policy == NetRecoveryPolicy::topology_aware() {
            aware_goodput = o.goodput();
            aware_humans = o.human_actions();
        }
        ablation.row([
            policy.label().to_owned(),
            o.net_faults.to_string(),
            o.reroutes.to_string(),
            o.restarts.to_string(),
            o.manual_interventions.to_string(),
            o.cordon_actions.to_string(),
            f(o.downtime.as_secs_f64() / 3600.0, 1),
            f(o.degraded_loss_secs / 3600.0, 1),
            f(o.rollback_secs / 3600.0, 1),
            pct(o.goodput()),
        ]);
    }

    format!(
        "{}{}network faults as first-class failures: topology-aware recovery \
         (drain the fault domain, reroute around partial faults, ride out \
         congestion) keeps {} goodput with {} human actions where naive \
         always-restart keeps {} with {} — on a fat tree the unit of repair \
         is the switch, not the node\n",
        summary.render(),
        ablation.render(),
        pct(aware_goodput),
        aware_humans,
        pct(naive_goodput),
        naive_humans,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netstorm_inputs_validate() {
        validate_inputs(1).unwrap();
        validate_inputs(4).unwrap();
    }

    #[test]
    fn aware_beats_naive_on_both_axes_at_the_pinned_seeds() {
        // The ISSUE acceptance bar, read straight off the rendered table
        // tail at each pinned seed.
        for seed in [42, 7, 3] {
            let out = netstorm(RunParams::new(seed));
            let tail = out.lines().last().unwrap();
            // The tail sentence interpolates aware goodput/humans first,
            // naive second; recompute from the runner to compare exactly.
            let campaign = {
                let mut rng = SimRng::new(seed).fork(1101);
                StormEngine::new(storm_config(1)).generate(&mut rng)
            };
            let runner = NetStormRunner::deployed(RADIX);
            let naive = runner.run(
                &campaign,
                &NetRecoveryPolicy::naive(),
                &mut SimRng::new(seed).fork(4000),
            );
            let aware = runner.run(
                &campaign,
                &NetRecoveryPolicy::topology_aware(),
                &mut SimRng::new(seed).fork(4002),
            );
            assert!(aware.goodput() > naive.goodput(), "seed {seed}: {tail}");
            assert!(
                aware.human_actions() < naive.human_actions(),
                "seed {seed}: {tail}"
            );
        }
    }

    #[test]
    fn congestion_slows_the_checkpoint_flows() {
        let spec = FabricSpec::kalos();
        let mut fabric = NetFabric::new(spec, NetConfig::for_fabric(&spec, RADIX));
        let healthy = checkpoint_makespan_secs(&fabric);
        assert!(healthy > 0.0);
        fabric.congest_pod(fabric.tree().pods() - 1, 4.0);
        let congested = checkpoint_makespan_secs(&fabric);
        assert!(
            congested > 1.5 * healthy,
            "healthy {healthy:.2}s vs congested {congested:.2}s"
        );
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(netstorm(RunParams::new(42)), netstorm(RunParams::new(42)));
        assert_ne!(netstorm(RunParams::new(42)), netstorm(RunParams::new(7)));
    }
}
