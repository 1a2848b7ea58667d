//! Figure 6: per-type duration and queuing delay under the production
//! scheduling policy, plus the no-reservation ablation.
//!
//! The experiment replays a month of Kalos workload (with evaluation
//! trials batched, as §3.2 observes) through the quota-reservation
//! scheduler. The cluster is sized to the workload's operating regime —
//! 2,560 schedulable GPUs with 98.5% reserved for pretraining — which is
//! where the paper's queue-delay inversion lives: evaluation jobs have the
//! smallest demand and shortest runs yet the longest *typical* wait,
//! because they contend at the lowest priority for the sliver of
//! unreserved capacity. Large best-effort debug/other jobs show heavy
//! *tails* instead: they fit nowhere until the quota has idle headroom.

use acme_scheduler::{coalesce_eval_batches, ClusterScheduler, SchedulerConfig};
use acme_sim_core::{SimDuration, SimRng};
use acme_telemetry::table::f;
use acme_telemetry::Table;
use acme_workload::stats::{duration_cdf_by_type, queue_delay_cdf_by_type};
use acme_workload::{JobRecord, JobType, WorkloadGenerator};

/// GPUs the Figure-6 experiment schedules over (must cover the largest
/// pretraining demand of 2048).
pub const EXPERIMENT_GPUS: u32 = 2560;

/// Fraction of GPUs reserved for pretraining.
pub const RESERVED_FRACTION: f64 = 0.985;

/// Evaluation batch-submission window.
pub const EVAL_BATCH_WINDOW: SimDuration = SimDuration::from_hours(24);

/// The month of Kalos workload Figure 6 replays, evaluation trials
/// batched.
fn kalos_month(seed: u64) -> Vec<JobRecord> {
    let mut rng = SimRng::new(seed).fork(201);
    let mut workload = WorkloadGenerator::kalos().generate(&mut rng, 30.0, 0).jobs;
    coalesce_eval_batches(&mut workload, EVAL_BATCH_WINDOW);
    workload
}

/// Schedule `workload` under one policy and return per-type stats.
pub fn run_policy(
    workload: Vec<JobRecord>,
    with_reservation: bool,
) -> Vec<(JobType, f64, f64, f64)> {
    let config = if with_reservation {
        SchedulerConfig::with_reservation(EXPERIMENT_GPUS, RESERVED_FRACTION)
    } else {
        SchedulerConfig::without_reservation(EXPERIMENT_GPUS)
    };
    let outcome = ClusterScheduler::new(config).run(workload);
    let durations = duration_cdf_by_type(&outcome.jobs);
    let delays = queue_delay_cdf_by_type(&outcome.jobs);
    durations
        .iter()
        .map(|(ty, dur)| {
            let delay = delays
                .iter()
                .find(|(t, _)| t == ty)
                .map(|(_, c)| c)
                .unwrap();
            (*ty, dur.median(), delay.median(), delay.quantile(0.95))
        })
        .collect()
}

/// Figure 6 — the table, for both policies.
pub fn fig6(seed: u64) -> String {
    let month = kalos_month(seed);
    let mut out = String::new();
    for (name, with_reservation) in [
        ("production policy (quota reservation)", true),
        ("ablation: no reservation", false),
    ] {
        let mut t = Table::new([
            "type",
            "median duration (min)",
            "median queue delay (min)",
            "p95 queue delay (min)",
        ]);
        for (ty, dur, med, p95) in run_policy(month.clone(), with_reservation) {
            t.row([ty.label().to_owned(), f(dur, 1), f(med, 2), f(p95, 1)]);
        }
        out.push_str(&format!("== {name} ==\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay_of(rows: &[(JobType, f64, f64, f64)], ty: JobType) -> (f64, f64) {
        let r = rows.iter().find(|(t, _, _, _)| *t == ty).unwrap();
        (r.2, r.3)
    }

    #[test]
    fn evaluation_waits_longest_under_reservation() {
        let rows = run_policy(kalos_month(42), true);
        let (eval_med, eval_p95) = delay_of(&rows, JobType::Evaluation);
        let (pre_med, pre_p95) = delay_of(&rows, JobType::Pretrain);
        // The §3.2 inversion: the smallest, shortest jobs have the longest
        // typical wait — evaluation's *median* delay tops every other type.
        for (ty, _, med, _) in &rows {
            if *ty != JobType::Evaluation {
                assert!(
                    eval_med > *med,
                    "eval med {eval_med:.2} vs {} {med:.2}",
                    ty.label()
                );
            }
        }
        assert!(
            eval_p95 > pre_p95,
            "eval p95 {eval_p95:.1} vs pretrain {pre_p95:.1}"
        );
        // Pretraining rarely queues: that's what the quota buys.
        assert!(
            pre_med < 0.5 && pre_p95 < 30.0,
            "pretrain med {pre_med:.2} p95 {pre_p95:.1}"
        );
        // Evaluation queues for real time.
        assert!(eval_p95 > 10.0, "eval p95 {eval_p95:.1} min");
    }

    #[test]
    fn removing_reservation_reverses_the_inversion() {
        let month = kalos_month(42);
        let with = run_policy(month.clone(), true);
        let without = run_policy(month, false);
        let (_, eval_p95_with) = delay_of(&with, JobType::Evaluation);
        let (_, eval_p95_without) = delay_of(&without, JobType::Evaluation);
        // Without the reservation, evals spread over the whole cluster.
        assert!(
            eval_p95_without < eval_p95_with,
            "without {eval_p95_without:.1} vs with {eval_p95_with:.1}"
        );
    }

    #[test]
    fn durations_per_type_within_an_order_of_magnitude() {
        let rows = run_policy(kalos_month(7), true);
        let meds: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let max = meds.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = meds.iter().fold(f64::MAX, |a, &b| a.min(b));
        // §3.2: pretraining surpasses others "within an order of magnitude
        // in the median" — allow a bit of slack around 10×.
        assert!(max / min < 30.0, "spread {:.1}x", max / min);
    }

    #[test]
    fn fig6_renders_both_policies() {
        let s = fig6(1);
        assert!(s.contains("production policy"));
        assert!(s.contains("ablation"));
        assert!(s.contains("evaluation"));
    }
}
