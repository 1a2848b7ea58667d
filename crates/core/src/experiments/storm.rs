//! `storm` — the adversarial fault-storm policy ablation.
//!
//! The paper's §6.1 fault-tolerant pretraining numbers are measured
//! against a *memoryless* failure process. This experiment subjects the
//! same recovery machinery to a deliberately hostile campaign — correlated
//! cascades, flapping nodes that re-fail after every restart, checkpoints
//! that corrupt on load, hangs that strike during recovery — and ablates
//! the escalation ladder rung by rung ([`crate::storm::StormPolicy`]).

use acme_failure::storm::{StormConfig, StormEngine};
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;

use super::shard::{run_shards, shard};
use super::RunParams;
use crate::storm::{StormPolicies, StormPolicy, StormRunner};

/// `storm` — generate the default storm for the seed (horizon scaled by
/// `scale`) and report each recovery policy's outcome. Deterministic in
/// (seed, scale).
pub fn storm(p: RunParams) -> String {
    let config = StormConfig::scaled(p.scale);
    let mut rng = SimRng::new(p.seed).fork(1001);
    let campaign = StormEngine::new(config).generate(&mut rng);

    let mut summary = Table::new(["storm property", "value"]);
    summary.row(["horizon".to_owned(), campaign.horizon.to_string()]);
    summary.row(["fleet nodes".to_owned(), campaign.fleet_nodes.to_string()]);
    summary.row([
        "primary events".to_owned(),
        campaign.events.len().to_string(),
    ]);
    summary.row([
        "cascade secondaries".to_owned(),
        campaign.secondary_count().to_string(),
    ]);
    summary.row([
        "flapping primaries".to_owned(),
        campaign.flapping_count().to_string(),
    ]);
    summary.row([
        "corrupt-on-load checkpoints".to_owned(),
        campaign.corrupt_count().to_string(),
    ]);
    summary.row([
        "hangs during recovery".to_owned(),
        campaign.hang_count().to_string(),
    ]);

    let runner = StormRunner::deployed(campaign.fleet_nodes);
    let mut ablation = Table::new([
        "recovery policy",
        "incidents",
        "manual",
        "escalated",
        "wasted restarts",
        "cordons",
        "MTTR (min)",
        "rollback (h)",
        "degraded (h)",
        "goodput",
    ]);
    let policies = [
        StormPolicy::NaiveRestart,
        StormPolicy::RetryBackoff,
        StormPolicy::FullOrchestrator,
    ];
    // Each arm replays the same campaign with its own forked rng stream,
    // so the arms differ only by policy, never by draw order — which also
    // makes them independent shards (results consumed in policy order).
    let outcomes = run_shards(
        p.workers,
        policies
            .iter()
            .map(|&policy| {
                let runner = &runner;
                let campaign = &campaign;
                shard(format!("arm/{}", policy.label()), move || {
                    let policies = StormPolicies::for_arm(policy);
                    let mut arm_rng = SimRng::new(p.seed).fork(1002 + policy as u64);
                    if p.trace {
                        let mut r = acme_obs::Recorder::new();
                        let o = runner.run_with_traced(
                            campaign,
                            &policies,
                            &mut arm_rng,
                            &mut acme_obs::Rec::on(&mut r),
                        );
                        acme_obs::deposit(r.into_chunk(format!("arm/{}", policy.label())));
                        o
                    } else {
                        runner.run_with(campaign, &policies, &mut arm_rng)
                    }
                })
            })
            .collect(),
    );
    let mut naive_goodput = 0.0;
    let mut full_goodput = 0.0;
    for (policy, o) in policies.into_iter().zip(outcomes) {
        match policy {
            StormPolicy::NaiveRestart => naive_goodput = o.goodput(),
            StormPolicy::FullOrchestrator => full_goodput = o.goodput(),
            StormPolicy::RetryBackoff => {}
        }
        ablation.row([
            policy.label().to_owned(),
            o.incidents.to_string(),
            o.manual_interventions.to_string(),
            o.escalations.to_string(),
            o.crash_loop_restarts.to_string(),
            format!("{} ({} spared)", o.nodes_cordoned, o.spares_used),
            f(o.mttr_mins(), 1),
            f(o.rollback_secs / 3600.0, 1),
            f(o.degraded_secs / 3600.0, 1),
            pct(o.goodput()),
        ]);
    }

    format!(
        "{}{}escalation ladder under a hostile storm: the full orchestrator \
         (retry budgets + strike cordons + hot spares + graceful degradation) \
         keeps {} goodput where naive always-restart keeps {} — crash loops \
         and midnight pages, not the failures themselves, are what burn the \
         fleet\n",
        summary.render(),
        ablation.render(),
        pct(full_goodput),
        pct(naive_goodput),
    )
}
