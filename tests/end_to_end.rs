//! Cross-crate integration: the whole pipeline — workload generation →
//! scheduling → monitoring → failure injection → diagnosis → recovery —
//! wired together the way the experiments use it.

use acme::datacenter::Acme;
use acme::monitor::{self, Metric};
use acme_cluster::{ClusterSpec, ThermalModel};
use acme_failure::{DiagnosisPipeline, LogBundle, RecoveryAction, RecoveryManager};
use acme_scheduler::{coalesce_eval_batches, ClusterScheduler, SchedulerConfig};
use acme_sim_core::{SimDuration, SimRng};
use acme_workload::stats::queue_delay_cdf_by_type;
use acme_workload::{JobStatus, JobType};

/// Generate → schedule → aggregate: the Figure-6 pipeline holds together
/// and conserves jobs.
#[test]
fn generate_schedule_aggregate() {
    let acme = Acme::new(11);
    let mut jobs = acme.run_days(14.0).kalos.jobs;
    let n = jobs.len();
    coalesce_eval_batches(&mut jobs, SimDuration::from_hours(24));
    let outcome = ClusterScheduler::new(SchedulerConfig::with_reservation(2560, 0.985)).run(jobs);
    assert_eq!(outcome.jobs.len(), n, "scheduler must not lose jobs");

    // Every job eventually started (queue delays finite) and the makespan
    // extends past the last submission.
    assert!(outcome.finished_at > outcome.jobs.iter().map(|j| j.submit).max().unwrap());
    // The scheduler wrote queue delays: some evaluation job waited.
    let eval_delays = queue_delay_cdf_by_type(&outcome.jobs)
        .into_iter()
        .find(|(ty, _)| *ty == JobType::Evaluation)
        .map(|(_, c)| c)
        .unwrap();
    assert!(eval_delays.max() > 0.0, "no evaluation job ever queued");
}

/// The monitor's samples are consistent with the workload story: high GPU
/// occupancy, idle CPUs, the Kalos memory profile.
#[test]
fn monitor_is_consistent_with_characterization() {
    let mut rng = SimRng::new(12);
    let samples = monitor::sample(&ClusterSpec::kalos(), &mut rng, 48, 4);
    let sm = samples.cdf(Metric::SmActive);
    let cpu = samples.cdf(Metric::CpuUtil);
    // GPUs work harder than CPUs by a wide margin (Figure 7).
    assert!(sm.median() > 2.5 * cpu.median());
    // Power never exceeds the physical ceiling; temperature tracks power,
    // so the largest power sample runs hottest.
    let p = samples.cdf(Metric::GpuPowerW);
    assert!(p.max() <= 600.0 && p.min() >= 55.0);
    let hottest = ThermalModel::normal().memory_temp_c(p.max());
    assert!(hottest < 110.0, "thermal model out of physical range");
}

/// Failure events drive the diagnosis pipeline end to end, and recovery
/// decisions match the event category.
#[test]
fn failures_flow_into_diagnosis_and_recovery() {
    let acme = Acme::new(13);
    let trace = acme.run_days(30.0);
    let mut rng = acme.rng(99);
    let mut pipeline = DiagnosisPipeline::with_all_rules();
    let manager = RecoveryManager;

    let mut infra_auto = 0;
    let mut infra_total = 0;
    for event in trace.failures.iter().take(150) {
        let bundle = LogBundle::generate(event.reason, 50, &mut rng);
        let report = pipeline
            .diagnose(&bundle.lines)
            .expect("generated logs are diagnosable");
        assert_eq!(report.reason, event.reason, "full rule set must be exact");
        let action = manager.decide(&report);
        if event.reason.is_infrastructure() {
            infra_total += 1;
            if let RecoveryAction::AutoRestart { .. } = action {
                infra_auto += 1;
            }
        }
    }
    assert!(
        infra_total > 0,
        "a 30-day trace must contain infrastructure failures"
    );
    assert_eq!(
        infra_auto, infra_total,
        "every infrastructure failure auto-recovers"
    );
}

/// Determinism across the entire stack: same seed, same bytes.
#[test]
fn whole_stack_determinism() {
    let run = |seed| {
        let mut out = String::new();
        for e in acme::experiments::all() {
            // A fast subset keeps this test quick but still spans crates.
            if ["table1", "fig5", "fig9", "fig12", "fig16l", "ckpt"].contains(&e.id) {
                out.push_str(&(e.run)(acme::experiments::RunParams::new(seed)));
            }
        }
        out
    };
    assert_eq!(run(21), run(21));
    assert_ne!(run(21), run(22), "seed must matter somewhere");
}

/// The trace's status mix is preserved through scheduling (the scheduler
/// reorders time, not outcomes).
#[test]
fn scheduler_preserves_job_outcomes() {
    let acme = Acme::new(14);
    let jobs = acme.run_days(7.0).kalos.jobs;
    let failed_before = jobs
        .iter()
        .filter(|j| j.status == JobStatus::Failed)
        .count();
    let outcome = ClusterScheduler::new(SchedulerConfig::without_reservation(2560)).run(jobs);
    let failed_after = outcome
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Failed)
        .count();
    assert_eq!(failed_before, failed_after);
}
