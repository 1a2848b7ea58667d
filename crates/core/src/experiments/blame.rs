//! `blame` — fault-stage blame attribution from flight-recorder replays.
//!
//! The flight recorder (`acme-obs`, DESIGN.md §10) tags every recovery
//! stage and every wasted GPU-second with the fault category that caused
//! it. This experiment replays the seed's storm (`repro storm`, full
//! orchestrator arm) and evaluation storm (`repro evalstorm`,
//! fault-tolerant arm) with a recorder attached and folds the recordings
//! into Lablup-style attribution tables: lost goodput and wasted GPU time
//! decomposed per fault category × recovery stage (detect → localize →
//! restart/backoff → cordon/spare).
//!
//! The tables reconcile exactly with the ablation experiments they replay:
//! the storm rows (plus rollback, degraded capacity and the horizon
//! overshoot credit) sum to `horizon − useful`, and the evalstorm rows sum
//! to the coordinator's `wasted GPU-s` column — both checked in tests, and
//! both printed next to the recomputed outcome so a drift is visible in
//! the artifact itself.

use acme_cluster::SharedStorage;
use acme_evaluation::benchmarks::registry;
use acme_evaluation::coordinator::{run as run_clean, Scheduler};
use acme_evaluation::faults::{
    run_campaign_traced, CampaignOutcome, CampaignPolicy, FaultConfig, FaultPlan,
};
use acme_failure::storm::{StormConfig, StormEngine};
use acme_obs::{ArgValue, Phase, Rec, Recorder, TraceEvent};
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;

use super::evalstorm::{MODEL_GB, NODES};
use super::shard::{run_shards, shard};
use super::RunParams;
use crate::storm::{StormOutcome, StormPolicy, StormRunner};

/// Category rows, in taxonomy order ([`acme_failure::taxonomy`]).
const CATEGORIES: [&str; 3] = ["Infrastructure", "Framework", "Script"];

/// Seconds per hour, for the storm table.
const HOUR: f64 = 3600.0;

fn f64_arg(ev: &TraceEvent, key: &str) -> f64 {
    ev.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            ArgValue::F64(x) => *x,
            ArgValue::U64(x) => *x as f64,
            ArgValue::Str(_) => 0.0,
        })
        .unwrap_or(0.0)
}

fn str_arg(ev: &TraceEvent, key: &str) -> &'static str {
    ev.args
        .iter()
        .find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == key => Some(*s),
            _ => None,
        })
        .unwrap_or("")
}

fn cat_index(cat: &str) -> Option<usize> {
    CATEGORIES.iter().position(|c| *c == cat)
}

/// Everything the blame analyzer distills from the storm recording.
#[derive(Debug, Default)]
struct StormBlame {
    /// `[category][stage]` seconds; stages are detect, localize, restart.
    stage_secs: [[f64; 3]; 3],
    /// Rolled-back progress per category, seconds.
    rollback_secs: [f64; 3],
    /// Goodput lost to degraded (uncovered-cordon) capacity, seconds.
    degraded_loss_secs: f64,
    /// Recovery wait past the horizon end: not lost goodput, credited back.
    overshoot_secs: f64,
    /// Incident spans seen (equals the outcome's incident count).
    incidents: u32,
    /// Cordon instants seen.
    cordons: u32,
}

impl StormBlame {
    fn from_events(events: &[TraceEvent]) -> StormBlame {
        let mut b = StormBlame::default();
        for ev in events {
            match (ev.phase, ev.name.as_str()) {
                (Phase::Begin, _) => b.incidents += 1,
                (Phase::Instant, "cordon") => b.cordons += 1,
                (Phase::Instant, "rollback") => {
                    if let Some(ci) = cat_index(ev.cat) {
                        b.rollback_secs[ci] += f64_arg(ev, "secs");
                    }
                }
                (Phase::Instant, "degraded") => {
                    b.degraded_loss_secs += f64_arg(ev, "loss_secs");
                }
                (Phase::Instant, "overshoot") => {
                    b.overshoot_secs += f64_arg(ev, "lost_secs");
                }
                (Phase::Instant, name) => {
                    let Some(stage) = name.strip_prefix("stage/") else {
                        continue;
                    };
                    let si = match stage {
                        "detect" => 0,
                        "localize" => 1,
                        "restart" => 2,
                        _ => continue,
                    };
                    if let Some(ci) = cat_index(ev.cat) {
                        b.stage_secs[ci][si] += f64_arg(ev, "secs");
                    }
                }
                _ => {}
            }
        }
        b
    }

    /// Total lost goodput the recording accounts for, seconds.
    fn recorded_lost_secs(&self) -> f64 {
        let stages: f64 = self.stage_secs.iter().flatten().sum();
        let rollback: f64 = self.rollback_secs.iter().sum();
        stages + rollback + self.degraded_loss_secs - self.overshoot_secs
    }

    /// The storm table's stage columns summed over categories, seconds:
    /// detect, localize, restart, rollback.
    fn stage_totals(&self) -> [f64; 4] {
        let mut totals = [0.0; 4];
        for (stages, rollback) in self.stage_secs.iter().zip(&self.rollback_secs) {
            for (total, secs) in totals.iter_mut().zip(stages) {
                *total += secs;
            }
            totals[3] += rollback;
        }
        totals
    }
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

/// Everything the blame analyzer distills from the evalstorm recording.
#[derive(Debug, Default)]
struct EvalBlame {
    /// `[category][stage]` wasted GPU-seconds; stages are detect,
    /// restart/backoff, cordon/spare.
    waste_secs: [[f64; 3]; 3],
    crashes: u32,
    speculations: u32,
    node_failures: u32,
    campaign_restarts: u32,
    metric_flakes: u32,
}

impl EvalBlame {
    fn from_events(events: &[TraceEvent]) -> EvalBlame {
        let mut b = EvalBlame::default();
        for ev in events {
            if ev.phase != Phase::Instant {
                continue;
            }
            match ev.name.as_str() {
                "waste" => {
                    let si = match str_arg(ev, "stage") {
                        "detect" => 0,
                        "restart/backoff" => 1,
                        "cordon/spare" => 2,
                        _ => continue,
                    };
                    if let Some(ci) = cat_index(ev.cat) {
                        b.waste_secs[ci][si] += f64_arg(ev, "secs");
                    }
                }
                "trial/crash" => b.crashes += 1,
                "trial/speculate" => b.speculations += 1,
                "node/failure" => b.node_failures += 1,
                "campaign/restart" => b.campaign_restarts += 1,
                "metric/flake" => b.metric_flakes += 1,
                _ => {}
            }
        }
        b
    }

    /// Total wasted GPU-seconds the recording accounts for.
    fn recorded_wasted_secs(&self) -> f64 {
        self.waste_secs.iter().flatten().sum()
    }
}

/// The two replayed arms, as shard results.
enum Piece {
    Storm(Box<StormOutcome>, Recorder),
    Eval(Box<CampaignOutcome>, Recorder),
}

/// Replay the seed's storm under the full orchestrator, recording.
fn replay_storm(p: RunParams) -> (StormOutcome, Recorder) {
    let config = StormConfig::scaled(p.scale);
    let mut rng = SimRng::new(p.seed).fork(1001);
    let campaign = StormEngine::new(config).generate(&mut rng);
    let runner = StormRunner::deployed(campaign.fleet_nodes);
    let policy = StormPolicy::FullOrchestrator;
    let mut arm_rng = SimRng::new(p.seed).fork(1002 + policy as u64);
    let mut r = Recorder::new();
    let o = runner.run_traced(&campaign, policy, &mut arm_rng, &mut Rec::on(&mut r));
    (o, r)
}

/// Replay the seed's evaluation storm under the full coordinator,
/// recording.
fn replay_evalstorm(p: RunParams) -> (CampaignOutcome, Recorder) {
    let storage = SharedStorage::seren();
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
    let mut r = Recorder::new();
    let o = run_campaign_traced(
        CampaignPolicy::FaultTolerant,
        &datasets,
        NODES,
        &storage,
        MODEL_GB,
        &plan,
        &mut Rec::on(&mut r),
    )
    .expect("the campaign inputs were already validated");
    (o, r)
}

/// `blame` — replay the storm and evalstorm recordings and attribute every
/// lost second to a fault category × recovery stage. Deterministic in
/// (seed, scale); the replays fork the exact rng streams the ablation
/// experiments use, so the totals reconcile with their printed numbers.
pub fn blame(p: RunParams) -> String {
    // The two replays are independent pure functions of the seed: shards.
    let mut pieces = run_shards(vec![
        shard("replay/storm", move || {
            let (o, r) = replay_storm(p);
            Piece::Storm(Box::new(o), r)
        }),
        shard("replay/evalstorm", move || {
            let (o, r) = replay_evalstorm(p);
            Piece::Eval(Box::new(o), r)
        }),
    ]);
    let eval_piece = pieces.pop().expect("two shards");
    let storm_piece = pieces.pop().expect("two shards");
    let (Piece::Storm(storm_out, storm_rec), Piece::Eval(eval_out, eval_rec)) =
        (storm_piece, eval_piece)
    else {
        unreachable!("shards return in order")
    };

    let sb = StormBlame::from_events(storm_rec.events());
    let eb = EvalBlame::from_events(eval_rec.events());
    if p.trace {
        // Under `--trace` the replay recordings join the export, as the
        // blame experiment's own chunks.
        acme_obs::deposit(storm_rec.into_chunk("replay/storm"));
        acme_obs::deposit(eval_rec.into_chunk("replay/evalstorm"));
    }

    // ---- storm: lost pretraining goodput --------------------------------
    let recorded = sb.recorded_lost_secs();
    let outcome_lost = storm_out.horizon.as_secs_f64() - storm_out.useful_secs;
    let mut st = Table::new([
        "fault category",
        "detect (h)",
        "localize (h)",
        "restart (h)",
        "rollback (h)",
        "lost (h)",
        "share",
    ]);
    for (ci, cat) in CATEGORIES.iter().enumerate() {
        let row = sb.stage_secs[ci].iter().sum::<f64>() + sb.rollback_secs[ci];
        st.row([
            (*cat).to_owned(),
            f(sb.stage_secs[ci][0] / HOUR, 1),
            f(sb.stage_secs[ci][1] / HOUR, 1),
            f(sb.stage_secs[ci][2] / HOUR, 1),
            f(sb.rollback_secs[ci] / HOUR, 1),
            f(row / HOUR, 1),
            pct(row / recorded.max(f64::MIN_POSITIVE)),
        ]);
    }
    st.row([
        "degraded capacity".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        f(sb.degraded_loss_secs / HOUR, 1),
        pct(sb.degraded_loss_secs / recorded.max(f64::MIN_POSITIVE)),
    ]);
    st.row([
        "horizon overshoot".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("-{}", f(sb.overshoot_secs / HOUR, 1)),
        "credit".to_owned(),
    ]);

    // ---- evalstorm: wasted evaluation GPU time --------------------------
    let e_recorded = eb.recorded_wasted_secs();
    let e_outcome = eval_out.wasted_gpu_secs;
    let mut et = Table::new([
        "fault category",
        "detect (GPU-s)",
        "restart/backoff (GPU-s)",
        "cordon/spare (GPU-s)",
        "wasted (GPU-s)",
        "share",
    ]);
    for (ci, cat) in CATEGORIES.iter().enumerate() {
        let row: f64 = eb.waste_secs[ci].iter().sum();
        et.row([
            (*cat).to_owned(),
            f(eb.waste_secs[ci][0], 0),
            f(eb.waste_secs[ci][1], 0),
            f(eb.waste_secs[ci][2], 0),
            f(row, 0),
            pct(row / e_recorded.max(f64::MIN_POSITIVE)),
        ]);
    }

    format!(
        "pretraining storm, full-orchestrator arm ({} incidents, {} cordons):\n\
         {}\
         lost goodput: {} h recorded = {} h outcome (horizon {} h - useful {} h); \
         goodput {} as in the storm ablation\n\
         evaluation storm, fault-tolerant arm ({} crashes, {} speculations, \
         {} node failures, {} campaign restarts, {} metric flakes):\n\
         {}\
         wasted GPU time: {} GPU-s recorded = {} GPU-s outcome, as in the \
         evalstorm ablation\n\
         blame: every lost second carries the fault category that caused it \
         and the recovery stage that spent it — {}\n",
        storm_out.incidents,
        storm_out.nodes_cordoned,
        st.render(),
        f(recorded / HOUR, 1),
        f(outcome_lost / HOUR, 1),
        f(storm_out.horizon.as_secs_f64() / HOUR, 1),
        f(storm_out.useful_secs / HOUR, 1),
        pct(storm_out.goodput()),
        eb.crashes,
        eb.speculations,
        eb.node_failures,
        eb.campaign_restarts,
        eb.metric_flakes,
        et.render(),
        f(e_recorded, 0),
        f(e_outcome, 0),
        stage_claim(sb.stage_totals().map(|secs| secs / HOUR)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_blame_reconciles_with_the_outcome() {
        let (o, r) = replay_storm(RunParams::new(42));
        let b = StormBlame::from_events(r.events());
        assert_eq!(b.incidents, o.incidents);
        assert_eq!(b.cordons, o.nodes_cordoned);
        let outcome_lost = o.horizon.as_secs_f64() - o.useful_secs;
        let recorded = b.recorded_lost_secs();
        assert!(
            (recorded - outcome_lost).abs() < 1e-6 * outcome_lost.max(1.0),
            "recorded {recorded} vs outcome {outcome_lost}"
        );
    }

    #[test]
    fn evalstorm_blame_reconciles_with_wasted_gpu_seconds() {
        let (o, r) = replay_evalstorm(RunParams::new(42));
        let b = EvalBlame::from_events(r.events());
        let recorded = b.recorded_wasted_secs();
        assert!(
            (recorded - o.wasted_gpu_secs).abs() < 1e-6 * o.wasted_gpu_secs.max(1.0),
            "recorded {recorded} vs outcome {}",
            o.wasted_gpu_secs
        );
        assert!(b.crashes > 0, "the default campaign injects trial crashes");
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
        // The replays must match the untraced ablation arms draw for draw.
        let p = RunParams::new(42);
        let (traced, _) = replay_storm(p);
        let config = StormConfig::scaled(p.scale);
        let mut rng = SimRng::new(p.seed).fork(1001);
        let campaign = StormEngine::new(config).generate(&mut rng);
        let runner = StormRunner::deployed(campaign.fleet_nodes);
        let mut arm_rng = SimRng::new(p.seed).fork(1002 + StormPolicy::FullOrchestrator as u64);
        let bare = runner.run(&campaign, StormPolicy::FullOrchestrator, &mut arm_rng);
        assert_eq!(traced.useful_secs, bare.useful_secs);
        assert_eq!(traced.incidents, bare.incidents);
        assert_eq!(traced.downtime, bare.downtime);
    }
}
