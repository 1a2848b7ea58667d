//! `evalstorm` — fault-tolerant evaluation campaigns under injected faults.
//!
//! The §6.2 trial coordinator is measured fault-free, but Table 3 says
//! evaluation-style short jobs fail constantly. This experiment drops the
//! same seeded fault campaign — trial crashes from the Table-3 evaluation
//! failure mix, a node loss, straggler windows, a degraded-storage window,
//! flaky metric jobs — on three recovery policies and reports what each
//! one costs ([`acme_evaluation::faults`]).

use acme_cluster::SharedStorage;
use acme_evaluation::benchmarks::registry;
use acme_evaluation::coordinator::{run as run_clean, Scheduler};
use acme_evaluation::faults::{
    run_campaign, run_campaign_traced, CampaignPolicy, FaultConfig, FaultPlan,
};
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;

use super::shard::{run_shards, shard};
use super::RunParams;

/// Nodes in the evaluation fleet (the §6.2 four-node configuration).
pub(super) const NODES: u32 = 4;
/// Checkpoint size: the 7B model's 14 GB of weights.
pub(super) const MODEL_GB: f64 = 14.0;

/// `evalstorm` — generate the default fault campaign for the seed (horizon
/// proportional to the fault-free makespan, which grows with `scale`) and
/// ablate naive restart vs retry-only vs the full fault-tolerant
/// coordinator. Deterministic in (seed, scale).
pub fn evalstorm(p: RunParams) -> String {
    let storage = SharedStorage::seren();
    // `--scale` repeats the benchmark registry N×: a campaign over N
    // checkpoints' worth of datasets. The fault horizon follows the
    // fault-free makespan automatically.
    let mut datasets = Vec::new();
    for _ in 0..p.scale {
        datasets.extend(registry());
    }

    let clean = run_clean(
        Scheduler::FullCoordinator,
        &datasets,
        NODES,
        &storage,
        MODEL_GB,
    )
    .expect("the registry is non-empty and the fleet has nodes");
    let config = FaultConfig::default_campaign(NODES, clean.makespan_secs);
    let mut rng = SimRng::new(p.seed).fork(1101);
    let plan = FaultPlan::generate(&config, &mut rng);

    let mut summary = Table::new(["campaign property", "value"]);
    summary.row([
        "dataset shards".to_owned(),
        format!("{} over {} GPUs", datasets.len(), NODES * 8),
    ]);
    summary.row([
        "fault-free makespan".to_owned(),
        format!("{} s", f(clean.makespan_secs, 1)),
    ]);
    summary.row([
        "fault horizon".to_owned(),
        format!("{} s", f(plan.horizon_secs, 1)),
    ]);
    summary.row(["trial crashes".to_owned(), plan.crashes.len().to_string()]);
    summary.row([
        "node failures".to_owned(),
        plan.node_failures.len().to_string(),
    ]);
    summary.row([
        "straggler windows".to_owned(),
        plan.stragglers.len().to_string(),
    ]);
    summary.row([
        "degraded-storage windows".to_owned(),
        plan.storage_windows.len().to_string(),
    ]);
    summary.row([
        "metric flake probability".to_owned(),
        pct(plan.metric_flake_prob),
    ]);

    let mut ablation = Table::new([
        "recovery policy",
        "makespan (s)",
        "inflation",
        "wasted GPU-s",
        "redundant loads",
        "retries",
        "restarts",
        "spec copies",
        "dup results",
        "coverage",
    ]);
    // Every arm replays the *same* plan: the arms differ only by recovery
    // mechanism, never by the adversity they face — so each arm is an
    // independent shard (results consumed in policy order).
    let outcomes = run_shards(
        p.workers,
        CampaignPolicy::ALL
            .iter()
            .map(|&policy| {
                let (datasets, storage, plan) = (&datasets, &storage, &plan);
                shard(format!("arm/{}", policy.label()), move || {
                    if p.trace {
                        let mut r = acme_obs::Recorder::new();
                        let o = run_campaign_traced(
                            policy,
                            datasets,
                            NODES,
                            storage,
                            MODEL_GB,
                            plan,
                            &mut acme_obs::Rec::on(&mut r),
                        )
                        .expect("the campaign inputs were already validated");
                        acme_obs::deposit(r.into_chunk(format!("arm/{}", policy.label())));
                        o
                    } else {
                        run_campaign(policy, datasets, NODES, storage, MODEL_GB, plan)
                            .expect("the campaign inputs were already validated")
                    }
                })
            })
            .collect(),
    );
    let mut naive_inflation = 0.0;
    let mut full_inflation = 0.0;
    let mut naive_wasted = 0.0;
    let mut full_wasted = 0.0;
    let mut full_coverage = 0.0;
    for (policy, o) in CampaignPolicy::ALL.into_iter().zip(outcomes) {
        let inflation = o.inflation_vs(clean.makespan_secs);
        match policy {
            CampaignPolicy::NaiveRestart => {
                naive_inflation = inflation;
                naive_wasted = o.wasted_gpu_secs;
            }
            CampaignPolicy::FaultTolerant => {
                full_inflation = inflation;
                full_wasted = o.wasted_gpu_secs;
                full_coverage = o.coverage();
            }
            CampaignPolicy::RetryOnly => {}
        }
        ablation.row([
            policy.label().to_owned(),
            f(o.makespan_secs, 1),
            format!("{}x", f(inflation, 2)),
            f(o.wasted_gpu_secs, 0),
            o.redundant_remote_loads.to_string(),
            o.retries.to_string(),
            o.campaign_restarts.to_string(),
            o.speculative_copies.to_string(),
            o.duplicate_results.to_string(),
            pct(o.coverage()),
        ]);
    }

    format!(
        "{}{}{}",
        summary.render(),
        ablation.render(),
        closing_claim(
            full_inflation,
            naive_inflation,
            naive_wasted / full_wasted.max(1.0),
            full_coverage,
        ),
    )
}

/// The closing sentence, from the fault-tolerant arm's numbers. Its last
/// clause claims every dataset's metric landed exactly once only when the
/// arm's coverage is complete; otherwise it prints the measured share.
fn closing_claim(
    full_inflation: f64,
    naive_inflation: f64,
    waste_cut: f64,
    coverage: f64,
) -> String {
    let landed = if coverage >= 1.0 {
        "every dataset's metric".to_owned()
    } else {
        format!("{} of dataset metrics", pct(coverage))
    };
    format!(
        "fault-tolerant evaluation under the same storm: retries with \
         backoff, dataset-granular completion tracking, speculative \
         re-execution and elastic re-packing hold makespan inflation to \
         {}x (naive restart-the-campaign: {}x) and cut wasted GPU-seconds \
         {}x, with {landed} landing exactly once\n",
        f(full_inflation, 2),
        f(naive_inflation, 2),
        f(waste_cut, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closing_claim_says_every_metric_at_full_coverage() {
        assert_eq!(
            closing_claim(1.42, 3.17, 5.06, 1.0),
            "fault-tolerant evaluation under the same storm: retries with backoff, \
             dataset-granular completion tracking, speculative re-execution and elastic \
             re-packing hold makespan inflation to 1.42x (naive restart-the-campaign: 3.17x) \
             and cut wasted GPU-seconds 5.1x, with every dataset's metric landing exactly \
             once\n"
        );
    }

    #[test]
    fn closing_claim_prints_the_measured_share_below_full_coverage() {
        assert!(closing_claim(1.42, 3.17, 5.06, 0.984)
            .ends_with("5.1x, with 98.4% of dataset metrics landing exactly once\n"));
    }
}
