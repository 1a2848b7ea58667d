//! `policylab` — the recovery-policy Pareto sweep.
//!
//! The storm (#37) and evalstorm (#38) ablations each compare three
//! hardwired arms. This experiment is the generalization ROADMAP item 4
//! asked for: every hardwired recovery choice is a policy object
//! (`acme-policy`), and the sweep harness replays the fault storm for
//! every (policy bundle, seed, fault intensity) combination — the
//! intensity axis reuses `StormConfig::scaled`, stretching the campaign
//! horizon 1×/2×/3× — then reports each bundle's position in the Pareto
//! space over (goodput, human actions, wasted GPU-time).
//!
//! Policy dimensions swept: the escalation-ladder arm (naive / retry /
//! full orchestrator), the checkpoint cadence (fixed 30 min, Young/Daly
//! MTTF-optimal, adaptive-on-cascade), the retry ladder (production vs
//! patient), the cordon strike threshold (2 vs 3) and the repair model
//! (36 h datacenter default vs 12 h rush dispatch, which pages a field
//! engineer per cordon).
//!
//! Every cell is a pure function of its (seed, intensity, bundle) — cells
//! fan out through the shard pool and aggregate in grid order, so stdout
//! is byte-identical at any `--jobs`. Sweep cells draw 24-line log
//! bundles and the legacy arms 150-line ones. The depth never changes a
//! diagnosis, but it picks the rng stream: 150 keeps the `storm`
//! experiment's output and 24 the sweep's as the golden report pins them.

use acme_failure::storm::{StormConfig, StormEngine};
use acme_policy::{
    CheckpointChoice, CordonPolicy, FrontierPoint, RepairModel, RetryPolicy, SweepCell, SweepGrid,
    SweepHarness, SweepOutcome,
};
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;

use super::shard::{run_shards, shard};
use super::RunParams;
use crate::storm::{StormOutcome, StormPolicies, StormPolicy, StormRunner};

/// Noise lines per sweep-cell log bundle (the legacy arms use 150).
const SWEEP_NOISE_LINES: usize = 24;

/// The seed axis the ISSUE pins: every sweep runs these three seeds.
const SWEEP_SEEDS: [u64; 3] = [42, 7, 3];

/// Index of the deployed full orchestrator in [`sweep_bundles`].
const FULL_ARM: usize = 2;

/// The policy bundles the lab sweeps. The first three are the legacy
/// storm arms (at sweep log depth); the rest vary one policy dimension
/// each off the full orchestrator.
pub fn sweep_bundles() -> Vec<StormPolicies> {
    let mut v: Vec<StormPolicies> = [
        StormPolicy::NaiveRestart,
        StormPolicy::RetryBackoff,
        StormPolicy::FullOrchestrator,
    ]
    .iter()
    .map(|&arm| {
        let mut b = StormPolicies::for_arm(arm);
        b.noise_lines = SWEEP_NOISE_LINES;
        b
    })
    .collect();
    let full = v[FULL_ARM];

    let mut b = full;
    b.label = "full + Young/Daly ckpt";
    b.checkpoint = CheckpointChoice::young_daly();
    v.push(b);

    let mut b = full;
    b.label = "full + adaptive ckpt";
    b.checkpoint = CheckpointChoice::adaptive();
    v.push(b);

    let mut b = full;
    b.label = "full + patient retry";
    b.orchestrator.retry = RetryPolicy::patient();
    v.push(b);

    let mut b = full;
    b.label = "full + 3-strike cordon";
    b.orchestrator.cordon = CordonPolicy::strikes(3);
    v.push(b);

    let mut b = full;
    b.label = "full + rush repair";
    b.repair = RepairModel::expedited();
    v.push(b);

    v
}

/// Validate every sweep input for a `--scale` value: each bundle's
/// orchestrator/repair policies and each scaled storm config. The `repro`
/// arg path calls this before dispatching `policylab`, so a degenerate
/// configuration surfaces as a structured usage error instead of a panic
/// mid-sweep.
pub fn validate_inputs(scale: u32) -> Result<(), String> {
    for b in sweep_bundles() {
        b.orchestrator
            .validate()
            .map_err(|e| format!("policylab bundle '{}': {e}", b.label))?;
        b.repair
            .validate()
            .map_err(|e| format!("policylab bundle '{}': {e}", b.label))?;
    }
    for intensity in [scale.max(1), 2 * scale.max(1), 3 * scale.max(1)] {
        StormConfig::scaled(intensity)
            .validate()
            .map_err(|e| format!("policylab intensity {intensity}: {e}"))?;
    }
    Ok(())
}

/// Run one sweep cell: regenerate the storm for (seed, intensity), replay
/// it under the bundle. Pure function of its arguments — the arm rng
/// stream is forked per (policy, intensity) so no cell shares draws.
fn run_cell(
    bundle: StormPolicies,
    policy_idx: usize,
    cell: SweepCell,
    trace: bool,
    label: String,
) -> StormOutcome {
    let config = StormConfig::scaled(cell.intensity);
    let mut rng = SimRng::new(cell.seed).fork(1001);
    let campaign = StormEngine::new(config).generate(&mut rng);
    let runner = StormRunner::deployed(campaign.fleet_nodes);
    let mut arm_rng =
        SimRng::new(cell.seed).fork(3000 + policy_idx as u64 * 16 + u64::from(cell.intensity));
    if trace {
        let mut r = acme_obs::Recorder::new();
        let o = runner.run_with_traced(
            &campaign,
            &bundle,
            &mut arm_rng,
            &mut acme_obs::Rec::on(&mut r),
        );
        acme_obs::deposit(r.into_chunk(label));
        o
    } else {
        runner.run_with(&campaign, &bundle, &mut arm_rng)
    }
}

/// `policylab` — sweep the policy grid across seeds 42/7/3 × fault
/// intensities (`--scale`·{1,2,3}) and print the Pareto frontier over
/// (goodput, human actions, wasted GPU-time). Deterministic in
/// (seed, scale) and byte-identical at any `--jobs`.
pub fn policylab(p: RunParams) -> String {
    if let Err(e) = validate_inputs(p.scale) {
        panic!("{e}");
    }
    let bundles = sweep_bundles();
    let intensities = vec![p.scale, 2 * p.scale, 3 * p.scale];
    let grid = SweepGrid {
        n_policies: bundles.len(),
        seeds: SWEEP_SEEDS.to_vec(),
        intensities: intensities.clone(),
    };
    let harness = SweepHarness::new(grid.clone());
    let cells = grid.cells();

    // Fan every cell out through the shard pool; results come back in
    // grid (policy-major) order regardless of worker count.
    let outcomes: Vec<StormOutcome> = run_shards(
        p.workers,
        cells
            .iter()
            .map(|&c| {
                let bundle = bundles[c.policy];
                let label = format!("cell/{}/s{}/i{}", bundle.label, c.seed, c.intensity);
                let trace = p.trace;
                let shard_label = label.clone();
                shard(shard_label, move || {
                    run_cell(bundle, c.policy, c, trace, label)
                })
            })
            .collect(),
    );

    let per_cell: Vec<FrontierPoint> = outcomes
        .iter()
        .map(|o| FrontierPoint {
            goodput: o.goodput(),
            manual_interventions: f64::from(o.human_actions()),
            wasted_gpu_hours: o.wasted_gpu_secs() / 3600.0,
        })
        .collect();
    let sweep = harness.collect(per_cell);

    let mut summary = Table::new(["sweep axis", "value"]);
    summary.row(["policy bundles".to_owned(), bundles.len().to_string()]);
    summary.row([
        "seeds".to_owned(),
        SWEEP_SEEDS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ]);
    summary.row([
        "fault intensities (horizon x)".to_owned(),
        intensities
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ]);
    summary.row(["cells".to_owned(), cells.len().to_string()]);

    let cells_per_policy = SWEEP_SEEDS.len() * intensities.len();
    let mut frontier_table = Table::new([
        "policy bundle",
        "ckpt interval (min)",
        "goodput",
        "human actions",
        "wasted GPU-h",
        "frontier",
    ]);
    let mut stages = Table::new([
        "policy bundle",
        "detect (h)",
        "localize (h)",
        "restart (h)",
        "MTTR (min)",
    ]);
    for (i, b) in bundles.iter().enumerate() {
        let chunk = &outcomes[i * cells_per_policy..(i + 1) * cells_per_policy];
        let n = chunk.len() as f64;
        let mean = |g: &dyn Fn(&StormOutcome) -> f64| chunk.iter().map(g).sum::<f64>() / n;
        let agg = &sweep.per_policy[i];
        frontier_table.row([
            b.label.to_owned(),
            f(mean(&|o| o.checkpoint_interval_secs) / 60.0, 0),
            pct(agg.goodput),
            f(agg.manual_interventions, 1),
            f(agg.wasted_gpu_hours, 1),
            (if sweep.frontier.contains(&i) {
                "yes"
            } else {
                "-"
            })
            .to_owned(),
        ]);
        stages.row([
            b.label.to_owned(),
            f(mean(&|o| o.detect_secs) / 3600.0, 1),
            f(mean(&|o| o.localize_secs) / 3600.0, 1),
            f(mean(&|o| o.restart_secs) / 3600.0, 1),
            f(mean(&|o| o.mttr_mins()), 1),
        ]);
    }

    let labels: Vec<&str> = bundles.iter().map(|b| b.label).collect();
    format!(
        "{}{}{}{}",
        summary.render(),
        frontier_table.render(),
        stages.render(),
        frontier_claim(&labels, &sweep),
    )
}

/// The closing sentence: the Pareto frontier, then either that no bundle
/// dominates the deployed full orchestrator or which bundles do.
fn frontier_claim(labels: &[&str], sweep: &SweepOutcome) -> String {
    let frontier: Vec<&str> = sweep.frontier.iter().map(|&i| labels[i]).collect();
    let full = &sweep.per_policy[FULL_ARM];
    let dominators: Vec<&str> = sweep
        .per_policy
        .iter()
        .zip(labels)
        .filter(|(p, _)| p.dominates(full))
        .map(|(_, &label)| label)
        .collect();
    let verdict = if dominators.is_empty() {
        "No swept policy dominates the deployed full orchestrator — each frontier bundle \
         buys one axis with another (rush repair trades pages for goodput, Young/Daly \
         trades rollback for checkpoint traffic)"
            .to_owned()
    } else {
        format!(
            "The deployed full orchestrator is off the frontier, dominated by {}",
            dominators.join("; ")
        )
    };
    format!(
        "Pareto frontier over (goodput, human actions, wasted GPU-h), averaged across the \
         seed x intensity plane: {}. {verdict}\n",
        frontier.join("; ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_inputs_validate() {
        validate_inputs(1).unwrap();
        validate_inputs(4).unwrap();
    }

    #[test]
    fn bundle_labels_are_unique_and_dimensions_covered() {
        let bundles = sweep_bundles();
        let labels: std::collections::BTreeSet<&str> = bundles.iter().map(|b| b.label).collect();
        assert_eq!(labels.len(), bundles.len());
        // ≥ 4 policy dimensions actually vary across the sweep.
        assert!(bundles.iter().any(|b| b.naive) && bundles.iter().any(|b| !b.naive));
        let checkpoints: std::collections::BTreeSet<&str> =
            bundles.iter().map(|b| b.checkpoint.label()).collect();
        assert!(checkpoints.len() >= 3, "checkpoint dimension");
        assert!(
            bundles
                .iter()
                .map(|b| b.orchestrator.retry.budget)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 2,
            "retry dimension"
        );
        assert!(
            bundles
                .iter()
                .map(|b| b.orchestrator.cordon.strike_threshold)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 2,
            "cordon dimension"
        );
        assert!(
            bundles.iter().any(|b| b.repair.rush) && bundles.iter().any(|b| !b.repair.rush),
            "repair dimension"
        );
    }

    #[test]
    fn closing_claim_names_what_dominates_the_full_arm() {
        let point = |goodput, manual_interventions, wasted_gpu_hours| FrontierPoint {
            goodput,
            manual_interventions,
            wasted_gpu_hours,
        };
        let labels = ["naive", "retry", "full", "rush"];
        let outcome = |per_policy: Vec<FrontierPoint>| SweepOutcome {
            per_cell: Vec::new(),
            frontier: acme_policy::pareto_frontier(&per_policy),
            per_policy,
        };
        // Full arm trades axes with rush: both on the frontier.
        let kept = outcome(vec![
            point(0.5, 9.0, 90.0),
            point(0.6, 5.0, 80.0),
            point(0.8, 2.0, 40.0),
            point(0.9, 4.0, 40.0),
        ]);
        assert_eq!(
            frontier_claim(&labels, &kept),
            "Pareto frontier over (goodput, human actions, wasted GPU-h), averaged across the \
             seed x intensity plane: full; rush. No swept policy dominates the deployed full \
             orchestrator — each frontier bundle buys one axis with another (rush repair trades \
             pages for goodput, Young/Daly trades rollback for checkpoint traffic)\n"
        );
        // Rush now matches full on pages and beats it on goodput.
        let dominated = outcome(vec![
            point(0.5, 9.0, 90.0),
            point(0.6, 5.0, 80.0),
            point(0.8, 2.0, 40.0),
            point(0.9, 2.0, 40.0),
        ]);
        assert_eq!(
            frontier_claim(&labels, &dominated),
            "Pareto frontier over (goodput, human actions, wasted GPU-h), averaged across the \
             seed x intensity plane: rush. The deployed full orchestrator is off the frontier, \
             dominated by rush\n"
        );
    }

    #[test]
    fn full_orchestrator_is_on_the_frontier() {
        // The ISSUE's acceptance proptest anchor, checked directly: at the
        // pinned seeds the deployed full-orchestrator arm is never
        // strictly dominated.
        let out = policylab(RunParams::new(42));
        let line = out
            .lines()
            .find(|l| l.contains("full orchestrator (spares)"))
            .expect("full arm row");
        assert!(
            line.trim_end().ends_with("yes"),
            "full arm off the frontier: {line}"
        );
    }
}
