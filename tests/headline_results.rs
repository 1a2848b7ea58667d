//! The paper's headline numbers, asserted end to end through public APIs.
//! Each test names the claim it guards; EXPERIMENTS.md cites these.

use acme_cluster::{ClusterSpec, SharedStorage};
use acme_evaluation::benchmarks::registry;
use acme_evaluation::coordinator::{run as run_eval, Scheduler};
use acme_failure::taxonomy::{FailureCategory, FailureReason};
use acme_failure::{DiagnosisPipeline, FailureInjector, LogBundle};
use acme_sim_core::dist::Categorical;
use acme_sim_core::SimRng;
use acme_training::checkpoint::CheckpointScenario;
use acme_training::{ModelConfig, StepTimeline, Strategy};
use acme_workload::stats::duration_cdf;
use acme_workload::{TraceStats, WorkloadGenerator};

/// §1/§3.2 — "pretraining jobs only account for 3.2% of the total job count
/// but consume 94.0% of the whole compute resource in Kalos ... evaluation
/// jobs, despite constituting 92.9% of all jobs, only utilize 0.8%".
#[test]
fn headline_kalos_resource_imbalance() {
    let mut rng = SimRng::new(1);
    let jobs = WorkloadGenerator::kalos().generate(&mut rng, 183.0, 0).jobs;
    let stats = TraceStats::new(&jobs);
    let shares = stats.type_shares();
    let get = |ty| {
        shares
            .iter()
            .find(|&&(t, _, _)| t == ty)
            .map(|&(_, c, g)| (c, g))
            .unwrap()
    };
    let (pre_count, pre_time) = get(acme_workload::JobType::Pretrain);
    let (eval_count, eval_time) = get(acme_workload::JobType::Evaluation);
    assert!(
        (pre_count - 0.032).abs() < 0.006,
        "pretrain count {pre_count:.3}"
    );
    assert!(
        (pre_time - 0.94).abs() < 0.05,
        "pretrain GPU time {pre_time:.3}"
    );
    assert!(
        (eval_count - 0.929).abs() < 0.012,
        "eval count {eval_count:.3}"
    );
    assert!(eval_time < 0.02, "eval GPU time {eval_time:.4}");
}

/// §6.1 — asynchronous checkpointing reduces blocking time by 3.6–58.7×.
#[test]
fn headline_checkpoint_speedup() {
    let small = CheckpointScenario::paper_7b().speedup();
    let big = CheckpointScenario::paper_123b().speedup();
    assert!((3.0..6.0).contains(&small), "7B speedup {small:.1}");
    assert!((45.0..70.0).contains(&big), "123B speedup {big:.1}");
}

/// §6.1 — the diagnosis system reduces manual intervention by ~90%.
#[test]
fn headline_manual_intervention_reduction() {
    let mut rng = SimRng::new(2);
    let seeded: Vec<FailureReason> = FailureReason::ALL
        .iter()
        .copied()
        .filter(|r| r.is_infrastructure())
        .collect();
    let mut pipeline = DiagnosisPipeline::new(&seeded);
    let weights: Vec<f64> = FailureReason::ALL
        .iter()
        .map(|r| r.spec().num as f64)
        .collect();
    let picker = Categorical::new(&weights);
    for _ in 0..300 {
        let truth = FailureReason::ALL[picker.sample_index(&mut rng)];
        let bundle = LogBundle::generate(truth, 80, &mut rng);
        let _ = pipeline.diagnose(&bundle.lines);
    }
    let automation = pipeline.stats.automation_fraction();
    assert!(automation >= 0.9, "automation {automation:.3}");
}

/// §6.2 — the trial coordinator reduces evaluation makespan by 1.3× (one
/// node) and 1.8× (four nodes).
#[test]
fn headline_evaluation_makespan() {
    let datasets = registry();
    let storage = SharedStorage::seren();
    let ratio = |nodes| {
        run_eval(Scheduler::Baseline, &datasets, nodes, &storage, 14.0)
            .unwrap()
            .makespan_secs
            / run_eval(Scheduler::FullCoordinator, &datasets, nodes, &storage, 14.0)
                .unwrap()
                .makespan_secs
    };
    let r1 = ratio(1);
    let r4 = ratio(4);
    assert!((1.15..1.55).contains(&r1), "one node: {r1:.2}x");
    assert!((1.55..2.1).contains(&r4), "four nodes: {r4:.2}x");
    assert!(r4 > r1);
}

/// §4.1 — InternEvo V2 (hierarchical ZeRO) is ~16% faster than V1 (3D
/// parallelism) on the 123B/2048-GPU profile.
#[test]
fn headline_internevo_v2_speedup() {
    let model = ModelConfig::dense_123b();
    let batch = 4 * 1024 * 1024;
    let v1 = StepTimeline::dense(&model, &Strategy::three_d_paper(2048), batch);
    let v2 = StepTimeline::dense(&model, &Strategy::hierarchical_paper(2048), batch);
    let speedup = v1.step_ms() / v2.step_ms();
    assert!((1.10..1.25).contains(&speedup), "speedup {speedup:.3}");
}

/// §5.2 — infrastructure failures: ~11% of failures, > 82% of failed GPU
/// time.
#[test]
fn headline_infrastructure_failure_impact() {
    let mut rng = SimRng::new(3);
    let events = FailureInjector::six_months().generate(&mut rng);
    assert_eq!(events.len(), 2575, "Table 3 population");
    let shares = FailureInjector::category_shares(&events);
    let (cat, count, time) = shares[0];
    assert_eq!(cat, FailureCategory::Infrastructure);
    assert!((0.08..0.14).contains(&count), "count share {count:.3}");
    assert!(time > 0.7, "GPU-time share {time:.3}");
}

/// §1/Table 1 — 4,704 A100s across the two clusters.
#[test]
fn headline_fleet_size() {
    let [s, k] = ClusterSpec::acme();
    assert_eq!(s.total_gpus() + k.total_gpus(), 4704);
}

/// §3.1 — Acme's median GPU-job runtime is ~2 minutes, far shorter than
/// prior DL traces.
#[test]
fn headline_short_job_durations() {
    let mut rng = SimRng::new(4);
    let jobs = WorkloadGenerator::kalos().generate(&mut rng, 60.0, 0).jobs;
    let med = duration_cdf(&jobs).median();
    assert!((1.0..4.0).contains(&med), "median {med:.2} min");
}
