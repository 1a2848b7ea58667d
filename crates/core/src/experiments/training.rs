//! Pretraining experiments: Figures 10–12, 14, 19, 20, 22 and the §6.1
//! checkpointing headline.

use acme_failure::FailureInjector;
use acme_sim_core::{SimDuration, SimRng};
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;
use acme_training::checkpoint::{CheckpointMode, CheckpointScenario};
use acme_training::{MemoryModel, ModelConfig, StepTimeline, Strategy};

use crate::progress::{ProgressSim, RecoveryPolicy};

/// Tokens per optimizer step in the §4.1 profiles.
const GLOBAL_BATCH: u64 = 4 * 1024 * 1024;

fn timeline_summary(gpus: u32) -> String {
    let model = ModelConfig::dense_123b();
    let v1 = StepTimeline::dense(&model, &Strategy::three_d_paper(gpus), GLOBAL_BATCH);
    let v2 = StepTimeline::dense(&model, &Strategy::hierarchical_paper(gpus), GLOBAL_BATCH);
    let mut t = Table::new([
        "strategy",
        "step (ms)",
        "mean SM %",
        "peak SM %",
        "idle (<20%) share",
    ]);
    for tl in [&v1, &v2] {
        t.row([
            tl.label().to_owned(),
            f(tl.step_ms(), 0),
            f(tl.mean_sm_util(), 1),
            f(tl.peak_sm_util(), 1),
            pct(tl.idle_fraction(20.0)),
        ]);
    }
    let speedup = v1.step_ms() / v2.step_ms();
    let samples = v1.samples(v1.step_ms() / 40.0);
    let mut series = String::from("V1 SM-utilization profile (40 samples across one step):\n");
    for chunk in samples.chunks(10) {
        let row: Vec<String> = chunk.iter().map(|&(_, u)| format!("{u:>3.0}")).collect();
        series.push_str(&format!("  {}\n", row.join(" ")));
    }
    format!(
        "{}V2 speedup over V1: {:.2}x (paper: ~16%)\n{}",
        t.render(),
        speedup,
        series
    )
}

/// Figure 10 — 123B over 2048 GPUs, V1 vs V2.
pub fn fig10(_seed: u64) -> String {
    timeline_summary(2048)
}

/// Figure 19 — the same profile over 1024 GPUs (Appendix A.4).
pub fn fig19(_seed: u64) -> String {
    timeline_summary(1024)
}

fn memory_summary(gpus: u32) -> String {
    let model = ModelConfig::dense_123b();
    let mut t = Table::new([
        "strategy",
        "static GB/GPU",
        "peak activations GB/GPU",
        "peak total GB/GPU",
    ]);
    for strat in [
        Strategy::three_d_paper(gpus),
        Strategy::hierarchical_paper(gpus),
    ] {
        let mm = MemoryModel::new(model, strat, GLOBAL_BATCH);
        let snap = mm.snapshot_for_rank(0);
        t.row([
            strat.label().to_owned(),
            f(snap.static_gb, 1),
            f(snap.activation_peak_gb, 1),
            f(snap.total_gb(), 1),
        ]);
    }
    t.render()
}

/// Figure 11 — memory snapshot per strategy at 2048 GPUs.
pub fn fig11(_seed: u64) -> String {
    let model = ModelConfig::dense_123b();
    let mm = MemoryModel::new(model, Strategy::three_d_paper(2048), GLOBAL_BATCH);
    let timeline = mm.step_timeline(24);
    let mut series = String::from("3D-parallelism allocated memory across one step (GB):\n");
    for chunk in timeline.chunks(8) {
        let row: Vec<String> = chunk
            .iter()
            .map(|&(_, s, d)| format!("{:>5.1}", s + d))
            .collect();
        series.push_str(&format!("  {}\n", row.join(" ")));
    }
    format!("{}{}", memory_summary(2048), series)
}

/// Figure 20 — the 1024-GPU variant (Appendix A.4).
pub fn fig20(_seed: u64) -> String {
    memory_summary(1024)
}

/// Figure 12 — per-pipeline-rank memory under 1F1B.
pub fn fig12(_seed: u64) -> String {
    let mm = MemoryModel::new(
        ModelConfig::dense_123b(),
        Strategy::three_d_paper(2048),
        GLOBAL_BATCH,
    );
    let mut t = Table::new(["pipeline rank", "activations GB", "static GB", "total GB"]);
    for (rank, snap) in mm.per_rank_peaks() {
        t.row([
            rank.to_string(),
            f(snap.activation_peak_gb, 1),
            f(snap.static_gb, 1),
            f(snap.total_gb(), 1),
        ]);
    }
    t.render()
}

/// Figure 22 — MoE pretraining utilization (Appendix A.6).
pub fn fig22(_seed: u64) -> String {
    let moe = ModelConfig::moe_mistral_8x7b();
    let single = StepTimeline::moe(&moe, 1024, true);
    let multi = StepTimeline::moe(&moe, 1024, false);
    let dense = StepTimeline::dense(
        &ModelConfig::dense_123b(),
        &Strategy::hierarchical_paper(1024),
        GLOBAL_BATCH,
    );
    let mut t = Table::new(["configuration", "mean SM %", "idle (<20%) share"]);
    for (name, tl) in [
        ("MoE 8x7B, single IB HCA (Seren)", &single),
        ("MoE 8x7B, 4 IB HCAs (Kalos-like)", &multi),
        ("dense 123B, hierarchical ZeRO", &dense),
    ] {
        t.row([
            name.to_owned(),
            f(tl.mean_sm_util(), 1),
            pct(tl.idle_fraction(20.0)),
        ]);
    }
    format!(
        "{}all-to-all on a single 200Gb/s HCA exposes {} of the step as communication\n",
        t.render(),
        pct(single.idle_fraction(20.0))
    )
}

/// §6.1 — checkpointing blocking time and overhead.
pub fn ckpt(_seed: u64) -> String {
    let mut t = Table::new([
        "model",
        "shard GB/writer",
        "sync block (s)",
        "async block (s)",
        "speedup",
        "sync overhead @30min",
        "async overhead @30min",
    ]);
    let mut speedups = Vec::new();
    for scenario in [
        CheckpointScenario::paper_7b(),
        CheckpointScenario::paper_123b(),
    ] {
        let sync = scenario.blocking_secs(CheckpointMode::Synchronous);
        let async_ = scenario.blocking_secs(CheckpointMode::Asynchronous);
        speedups.push(scenario.speedup());
        t.row([
            scenario.model.name.to_owned(),
            f(scenario.shard_gb(), 2),
            f(sync, 2),
            f(async_, 2),
            format!("{:.1}x", scenario.speedup()),
            pct(scenario.overhead_fraction(CheckpointMode::Synchronous, 1800.0)),
            pct(scenario.overhead_fraction(CheckpointMode::Asynchronous, 1800.0)),
        ]);
    }
    let mut sweep = Table::new([
        "interval (min)",
        "123B sync overhead",
        "123B async overhead",
    ]);
    let flagship = CheckpointScenario::paper_123b();
    for mins in [5.0, 15.0, 30.0, 60.0, 240.0] {
        sweep.row([
            f(mins, 0),
            pct(flagship.overhead_fraction(CheckpointMode::Synchronous, mins * 60.0)),
            pct(flagship.overhead_fraction(CheckpointMode::Asynchronous, mins * 60.0)),
        ]);
    }
    format!(
        "{}blocking-time reduction: {:.1}x – {:.1}x (paper: 3.6–58.7x)\n\n== interval sweep ==\n{}",
        t.render(),
        speedups[0],
        speedups[1],
        sweep.render()
    )
}

/// Figure 14 — training progress of the 104B and 123B campaigns under the
/// same failure schedule, plus the §6.1 automatic-recovery system.
pub fn fig14(seed: u64) -> String {
    let horizon = SimDuration::from_days(21);
    let mut sched_rng = SimRng::new(seed).fork(401);
    let failures =
        FailureInjector::pretrain_schedule(&mut sched_rng, SimDuration::from_hours(15), horizon);
    let mut t = Table::new([
        "campaign",
        "kept iterations",
        "lost to rollback",
        "downtime (h)",
        "restarts",
        "manual interventions",
        "goodput (iters/h)",
    ]);
    let configs = [
        (
            "104B (early, manual)",
            SimDuration::from_secs(13),
            RecoveryPolicy::early_104b(),
        ),
        (
            "123B (improved, manual)",
            SimDuration::from_secs(15),
            RecoveryPolicy::improved_123b(),
        ),
        (
            "123B + §6.1 automatic recovery",
            SimDuration::from_secs(15),
            RecoveryPolicy::automatic(),
        ),
    ];
    let mut manual_counts = Vec::new();
    for (name, iter_time, policy) in configs {
        let mut rng = SimRng::new(seed).fork(402);
        let trace = ProgressSim::new(iter_time, policy).run(&mut rng, &failures, horizon);
        manual_counts.push(trace.manual_interventions);
        t.row([
            name.to_owned(),
            trace.final_iteration.to_string(),
            trace.lost_iterations.to_string(),
            f(trace.ledger.downtime.as_hours_f64(), 1),
            trace.restarts.to_string(),
            trace.manual_interventions.to_string(),
            f(trace.goodput_iters_per_hour(), 0),
        ]);
    }
    format!(
        "{}failures injected: {} over {:.0} days (MTBF 15h)\nautomatic recovery removes all {} on-call restarts\n",
        t.render(),
        failures.len(),
        horizon.as_hours_f64() / 24.0,
        manual_counts[1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_shows_v2_speedup() {
        let s = fig10(0);
        assert!(s.contains("V2 speedup over V1: 1."));
        assert!(s.contains("InternEvo V1"));
        assert!(s.contains("profile (40 samples"));
    }

    #[test]
    fn fig11_and_fig12_report_memory() {
        let s11 = fig11(0);
        assert!(s11.contains("static GB/GPU"));
        assert!(s11.contains("allocated memory across one step"));
        let s12 = fig12(0);
        // Four pipeline ranks.
        assert_eq!(
            s12.lines()
                .filter(|l| l.starts_with(char::is_numeric))
                .count(),
            4
        );
    }

    #[test]
    fn fig19_fig20_mirror_the_2048_shapes() {
        assert!(fig19(0).contains("V2 speedup"));
        assert!(fig20(0).contains("hierarchical ZeRO"));
    }

    #[test]
    fn fig22_moe_is_much_lower() {
        let s = fig22(0);
        assert!(s.contains("MoE 8x7B"));
        assert!(s.contains("all-to-all"));
    }

    #[test]
    fn ckpt_brackets_the_headline() {
        let s = ckpt(0);
        assert!(s.contains("blocking-time reduction"));
        assert!(s.contains("paper: 3.6–58.7x"));
        assert!(s.contains("interval sweep"));
    }

    #[test]
    fn fig14_shows_improvement_ordering() {
        let s = fig14(42);
        assert!(s.contains("104B (early"));
        assert!(s.contains("automatic recovery"));
        // The automatic row reports zero manual interventions.
        let auto_row = s.lines().find(|l| l.contains("§6.1 automatic")).unwrap();
        let cols: Vec<&str> = auto_row.split_whitespace().collect();
        assert!(cols.contains(&"0"), "{auto_row}");
    }
}
