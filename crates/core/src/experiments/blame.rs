//! `blame` — fault-stage blame attribution.
//!
//! The storm and evaluation-campaign outcomes attribute every recovery
//! stage and every wasted GPU-second to the fault category that caused it
//! ([`Ledger::stage_secs`], [`CampaignOutcome::waste_secs`]). This
//! experiment replays the seed's storm (`repro storm`, full orchestrator
//! arm) and evaluation storm (`repro evalstorm`, fault-tolerant arm) and
//! tabulates those matrices Lablup-style: lost goodput and wasted GPU time
//! decomposed per fault category × recovery stage (detect → localize →
//! restart/backoff → cordon/spare). Under `--trace` the replays also
//! record, and their recordings join the export; the tables never read
//! them.
//!
//! The tables reconcile exactly with the ablation experiments they replay:
//! the storm rows (plus rollback, degraded capacity and the horizon
//! overshoot credit) sum to `horizon − useful`, and the evalstorm rows sum
//! to the coordinator's `wasted GPU-s` column — both checked in tests, and
//! both printed next to the recomputed outcome so a drift is visible in
//! the artifact itself.

use acme_evaluation::faults::{CampaignOutcome, CampaignPolicy};
use acme_failure::FailureCategory;
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;

use super::shard::{run_shards, shard};
use super::{evalstorm, storm, RunParams};
use crate::ledger::Ledger;
use crate::storm::{StormOutcome, StormPolicy};

/// Seconds per hour, for the storm table.
const HOUR: f64 = 3600.0;

/// Lost goodput the storm's books attribute, seconds: every stage and
/// rollback second plus degraded capacity, less the recovery wait past the
/// horizon (which costs no goodput).
fn attributed_lost_secs(l: &Ledger) -> f64 {
    let stages: f64 = l.stage_secs.iter().flatten().sum();
    let rollback: f64 = l.category_rollback_secs.iter().sum();
    stages + rollback + l.degraded_loss_secs - l.overshoot_secs()
}

/// The closing claim, from the storm's stage totals in hours (detect,
/// localize, restart, rollback): the two largest stages, and whether
/// diagnosis (detect + localize) or restart costs more — the larger of the
/// two is where a faster recovery step buys back more goodput.
fn stage_claim(hours: [f64; 4]) -> String {
    const STAGES: [&str; 4] = ["detect", "localize", "restart", "rollback"];
    let mut order = [0, 1, 2, 3];
    order.sort_by(|&a, &b| hours[b].total_cmp(&hours[a]));
    let diagnosis = hours[0] + hours[1];
    let verdict = if diagnosis > hours[2] {
        "more than restart, so faster diagnosis buys more goodput than faster reboots"
    } else {
        "less than restart, so faster reboots buy more goodput than faster diagnosis"
    };
    format!(
        "{} ({} h) and {} ({} h) dominate; diagnosis (detect + localize, {} h) costs {verdict}",
        STAGES[order[0]],
        f(hours[order[0]], 1),
        STAGES[order[1]],
        f(hours[order[1]], 1),
        f(diagnosis, 1),
    )
}

/// The two replayed arms, as shard results.
enum Piece {
    Storm(Box<StormOutcome>),
    Eval(Box<CampaignOutcome>),
}

/// Replay the seed's storm under the full orchestrator, as the storm
/// ablation does.
fn replay_storm(p: RunParams) -> StormOutcome {
    let campaign = storm::campaign(p.seed, p.scale);
    storm::replay(p, &campaign, StormPolicy::FullOrchestrator, "replay/storm")
}

/// Replay the seed's evaluation storm under the full coordinator, as the
/// evalstorm ablation does.
fn replay_evalstorm(p: RunParams) -> CampaignOutcome {
    let (datasets, _, plan) = evalstorm::campaign(p);
    let policy = CampaignPolicy::FaultTolerant;
    evalstorm::replay(p, &datasets, &plan, policy, "replay/evalstorm")
}

/// `blame` — replay the storm and evalstorm arms and attribute every lost
/// second to a fault category × recovery stage. Deterministic in
/// (seed, scale); the replays fork the exact rng streams the ablation
/// experiments use, so the totals reconcile with their printed numbers.
pub fn blame(p: RunParams) -> String {
    // The two replays are independent pure functions of the seed: shards.
    let replays = vec![
        shard("replay/storm", move || {
            Piece::Storm(Box::new(replay_storm(p)))
        }),
        shard("replay/evalstorm", move || {
            Piece::Eval(Box::new(replay_evalstorm(p)))
        }),
    ];
    let mut pieces = run_shards(p.workers, replays);
    let eval_piece = pieces.pop().expect("two shards");
    let storm_piece = pieces.pop().expect("two shards");
    let (Piece::Storm(so), Piece::Eval(eo)) = (storm_piece, eval_piece) else {
        unreachable!("shards return in order")
    };

    // ---- storm: lost pretraining goodput --------------------------------
    let sl = &so.ledger;
    let attributed = attributed_lost_secs(sl);
    let outcome_lost = sl.horizon.as_secs_f64() - sl.useful_secs();
    let mut st = Table::new([
        "fault category",
        "detect (h)",
        "localize (h)",
        "restart (h)",
        "rollback (h)",
        "lost (h)",
        "share",
    ]);
    let rows = sl.stage_secs.iter().zip(&sl.category_rollback_secs);
    for ((stages, rollback), cat) in rows.zip(FailureCategory::ALL) {
        let row = stages.iter().sum::<f64>() + rollback;
        st.row([
            cat.label().to_owned(),
            f(stages[0] / HOUR, 1),
            f(stages[1] / HOUR, 1),
            f(stages[2] / HOUR, 1),
            f(rollback / HOUR, 1),
            f(row / HOUR, 1),
            pct(row / attributed.max(f64::MIN_POSITIVE)),
        ]);
    }
    st.row([
        "degraded capacity".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        f(sl.degraded_loss_secs / HOUR, 1),
        pct(sl.degraded_loss_secs / attributed.max(f64::MIN_POSITIVE)),
    ]);
    st.row([
        "horizon overshoot".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("-{}", f(sl.overshoot_secs() / HOUR, 1)),
        "credit".to_owned(),
    ]);
    let [detect, localize, restart] = sl.stage_totals();
    let rollback: f64 = sl.category_rollback_secs.iter().sum();

    // ---- evalstorm: wasted evaluation GPU time --------------------------
    let e_attributed: f64 = eo.waste_secs.iter().flatten().sum();
    let mut et = Table::new([
        "fault category",
        "detect (GPU-s)",
        "restart/backoff (GPU-s)",
        "cordon/spare (GPU-s)",
        "wasted (GPU-s)",
        "share",
    ]);
    for (stages, cat) in eo.waste_secs.iter().zip(FailureCategory::ALL) {
        let row: f64 = stages.iter().sum();
        et.row([
            cat.label().to_owned(),
            f(stages[0], 0),
            f(stages[1], 0),
            f(stages[2], 0),
            f(row, 0),
            pct(row / e_attributed.max(f64::MIN_POSITIVE)),
        ]);
    }

    // On the fault-tolerant arm every trial crash is retried in place, so
    // `retries` counts the crashes.
    format!(
        "pretraining storm, full-orchestrator arm ({} incidents, {} cordons):\n\
         {}\
         lost goodput: {} h attributed = {} h outcome (horizon {} h - useful {} h); \
         goodput {} as in the storm ablation\n\
         evaluation storm, fault-tolerant arm ({} crashes, {} speculations, \
         {} node failures, {} campaign restarts, {} metric flakes):\n\
         {}\
         wasted GPU time: {} GPU-s attributed = {} GPU-s outcome, as in the \
         evalstorm ablation\n\
         blame: every lost second carries the fault category that caused it \
         and the recovery stage that spent it — {}\n",
        so.incidents,
        so.nodes_cordoned,
        st.render(),
        f(attributed / HOUR, 1),
        f(outcome_lost / HOUR, 1),
        f(sl.horizon.as_secs_f64() / HOUR, 1),
        f(sl.useful_secs() / HOUR, 1),
        pct(sl.goodput()),
        eo.retries,
        eo.speculative_copies,
        eo.nodes_lost,
        eo.campaign_restarts,
        eo.metric_reruns,
        et.render(),
        f(e_attributed, 0),
        f(eo.wasted_gpu_secs, 0),
        stage_claim([detect, localize, restart, rollback].map(|secs| secs / HOUR)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_blame_reconciles_with_the_outcome() {
        let o = replay_storm(RunParams::new(42));
        let l = &o.ledger;
        let outcome_lost = l.horizon.as_secs_f64() - l.useful_secs();
        let attributed = attributed_lost_secs(l);
        assert!(
            (attributed - outcome_lost).abs() < 1e-6 * outcome_lost.max(1.0),
            "attributed {attributed} vs outcome {outcome_lost}"
        );
        assert!(o.nodes_cordoned > 0 && l.degraded_loss_secs > 0.0);
    }

    #[test]
    fn evalstorm_blame_reconciles_with_wasted_gpu_seconds() {
        let o = replay_evalstorm(RunParams::new(42));
        let attributed: f64 = o.waste_secs.iter().flatten().sum();
        assert!(
            (attributed - o.wasted_gpu_secs).abs() < 1e-6 * o.wasted_gpu_secs.max(1.0),
            "attributed {attributed} vs outcome {}",
            o.wasted_gpu_secs
        );
        assert!(o.retries > 0, "the default campaign injects trial crashes");
    }

    #[test]
    fn closing_claim_follows_the_stage_totals() {
        assert_eq!(
            stage_claim([2.3, 4.3, 25.9, 21.8]),
            "restart (25.9 h) and rollback (21.8 h) dominate; diagnosis (detect + localize, \
             6.6 h) costs less than restart, so faster reboots buy more goodput than faster \
             diagnosis"
        );
        assert_eq!(
            stage_claim([9.0, 6.5, 4.0, 7.0]),
            "detect (9.0 h) and rollback (7.0 h) dominate; diagnosis (detect + localize, \
             15.5 h) costs more than restart, so faster diagnosis buys more goodput than \
             faster reboots"
        );
    }

    #[test]
    fn blame_is_deterministic_and_reports_both_tables() {
        let a = blame(RunParams::new(42));
        let b = blame(RunParams::new(42));
        assert_eq!(a, b);
        for needle in [
            "fault category",
            "Infrastructure",
            "lost goodput",
            "wasted GPU time",
            "degraded capacity",
        ] {
            assert!(a.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn recording_does_not_change_either_outcome() {
        // Under `--trace` the replays record; the outcomes the tables read
        // must not move, and the recordings join the export in shard order.
        acme_obs::take();
        let p = RunParams::new(42);
        assert_eq!(replay_storm(p.with_trace(true)), replay_storm(p));
        assert_eq!(replay_evalstorm(p.with_trace(true)), replay_evalstorm(p));
        let chunks = acme_obs::take().chunks;
        let labels: Vec<&str> = chunks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["replay/storm", "replay/evalstorm"]);
    }
}
