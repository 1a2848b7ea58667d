//! Fault-tolerant pretraining, end to end (§6.1).
//!
//! Simulates a three-week 123B pretraining campaign against one failure
//! schedule under three regimes — the early manual workflow, the improved
//! manual workflow, and the automatic fault-tolerance system — and shows
//! where the wins come from: asynchronous checkpointing, automated
//! diagnosis, and automatic restart.
//!
//! ```text
//! cargo run -p acme --example pretrain_fault_tolerance
//! ```

use acme::progress::{ProgressSim, RecoveryPolicy};
use acme_failure::{
    DiagnosisPipeline, FailureInjector, FailureReason, LogBundle, NcclTester, RecoveryAction,
    RecoveryManager,
};
use acme_sim_core::{SimDuration, SimRng};
use acme_training::checkpoint::{CheckpointMode, CheckpointScenario};

fn main() {
    let horizon = SimDuration::from_days(21);
    let mut rng = SimRng::new(42);
    let failures =
        FailureInjector::pretrain_schedule(&mut rng, SimDuration::from_hours(15), horizon);
    println!(
        "123B pretraining campaign: {} days, {} infrastructure interruptions (MTBF 15 h)\n",
        horizon.as_hours_f64() / 24.0,
        failures.len()
    );

    // 1. Checkpointing: why the async engine matters.
    println!("-- asynchronous checkpointing (§6.1.1) --");
    let scenario = CheckpointScenario::paper_123b();
    let sync = scenario.blocking_secs(CheckpointMode::Synchronous);
    let async_ = scenario.blocking_secs(CheckpointMode::Asynchronous);
    println!(
        "  blocking per checkpoint: sync {:.0}s vs async {:.1}s  ({:.1}x reduction; paper: up to 58.7x)",
        sync,
        async_,
        scenario.speedup()
    );
    println!(
        "  at a 30-min interval that is {:.1}% vs {:.2}% of training time\n",
        scenario.overhead_fraction(CheckpointMode::Synchronous, 1800.0) * 100.0,
        scenario.overhead_fraction(CheckpointMode::Asynchronous, 1800.0) * 100.0
    );

    // 2. Diagnosis + localization for one representative failure.
    println!("-- failure diagnosis (§6.1.2) --");
    let mut pipeline = DiagnosisPipeline::with_all_rules();
    let bundle = LogBundle::generate(FailureReason::NvLinkError, 5_000, &mut rng);
    let report = pipeline.diagnose(&bundle.lines).expect("diagnosable");
    println!(
        "  raw log: {} lines; root cause: {}",
        bundle.lines.len(),
        report.reason.label()
    );
    println!("  mitigation: {}", report.mitigation);
    match RecoveryManager.decide(&report) {
        RecoveryAction::AutoRestart { cordon_nodes: true } => {
            let faulty = std::iter::once(rng.below(302) as usize).collect();
            let result = NcclTester::new(302).run(&faulty);
            println!(
                "  two-round NCCL test over 302 nodes: {} worlds, faulty node(s) {:?} cordoned\n",
                result.round1_worlds + result.round2_worlds,
                result.identified
            );
        }
        other => println!("  recovery action: {other:?}\n"),
    }

    // 3. The campaign under each recovery regime.
    println!("-- training progress under failures (Figure 14) --");
    let iter_time = SimDuration::from_secs(15);
    for (name, policy) in [
        ("104B-era manual recovery ", RecoveryPolicy::early_104b()),
        ("123B-era manual recovery ", RecoveryPolicy::improved_123b()),
        ("automatic fault tolerance", RecoveryPolicy::automatic()),
    ] {
        let mut run_rng = SimRng::new(7);
        let trace = ProgressSim::new(iter_time, policy).run(&mut run_rng, &failures, horizon);
        println!(
            "  {name}: {:>7} iterations kept | {:>6} recomputed | {:>5.1} h down | {} manual interventions",
            trace.final_iteration,
            trace.lost_iterations,
            trace.ledger.downtime.as_hours_f64(),
            trace.manual_interventions
        );
    }
}
