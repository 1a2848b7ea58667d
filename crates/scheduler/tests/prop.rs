//! Property-based tests for the schedulers.

use acme_scheduler::{ClusterScheduler, PreemptiveScheduler, SchedulerConfig};
use acme_sim_core::{SimDuration, SimTime};
use acme_workload::job::Cluster;
use acme_workload::{JobRecord, JobStatus, JobType};
use proptest::prelude::*;

fn arb_jobs(max_gpus: u32) -> impl Strategy<Value = Vec<JobRecord>> {
    prop::collection::vec(
        (
            0u64..10_000, // submit seconds
            1u32..=64,    // gpus (scaled below)
            1u64..5_000,  // duration seconds
            0usize..6,    // type index
        ),
        1..60,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (submit, gpus, dur, ty))| JobRecord {
                id: i as u64,
                cluster: Cluster::Kalos,
                job_type: [
                    JobType::Pretrain,
                    JobType::Sft,
                    JobType::Mllm,
                    JobType::Evaluation,
                    JobType::Debug,
                    JobType::Other,
                ][ty],
                submit: SimTime::from_secs(submit),
                queue_delay: SimDuration::ZERO,
                duration: SimDuration::from_secs(dur),
                gpus: gpus.min(max_gpus),
                status: JobStatus::Completed,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The non-preemptive scheduler never loses jobs, never over-commits
    /// GPUs at any instant, and every job starts at or after submission.
    #[test]
    fn cluster_scheduler_conserves_and_fits(jobs in arb_jobs(64)) {
        let total = 64;
        let out = ClusterScheduler::new(SchedulerConfig::without_reservation(total)).run(jobs.clone());
        prop_assert_eq!(out.jobs.len(), jobs.len());
        for (before, after) in jobs.iter().zip(out.jobs.iter()) {
            prop_assert_eq!(before.id, after.id);
            prop_assert!(after.start() >= after.submit);
        }
        // Capacity holds at every instant, read from the jobs' own start
        // and end times: at equal times a finish frees its GPUs before a
        // start claims them.
        let mut edges: Vec<(SimTime, bool, u32)> = out
            .jobs
            .iter()
            .flat_map(|j| [(j.start(), true, j.gpus), (j.end(), false, j.gpus)])
            .collect();
        edges.sort();
        let mut used = 0;
        for (_, starts, gpus) in edges {
            if starts {
                used += gpus;
                prop_assert!(used <= total, "{} GPUs in use of {}", used, total);
            } else {
                used -= gpus;
            }
        }
        // Makespan covers the longest-finishing job.
        let max_end = out.jobs.iter().map(|j| j.end()).max().unwrap();
        prop_assert_eq!(out.finished_at, max_end);
    }

    /// With reservation enabled, the same set of jobs still completes (the
    /// generator caps demands at the shared-pool-or-borrowable size).
    #[test]
    fn reservation_still_drains(jobs in arb_jobs(32)) {
        // Reserved 96 of 128 → shared 32; any job ≤ 32 fits the shared
        // pool, bigger jobs would borrow (none exist at this cap).
        let out = ClusterScheduler::new(SchedulerConfig::with_reservation(128, 0.75)).run(jobs.clone());
        prop_assert_eq!(out.jobs.len(), jobs.len());
    }

    /// The preemptive scheduler never loses a job, its waste is never
    /// negative and is zero when nothing was preempted, and every job
    /// starts at or after its submission.
    #[test]
    fn preemptive_scheduler_conserves(jobs in arb_jobs(48)) {
        let sched = PreemptiveScheduler {
            total_gpus: 48,
            checkpoint_interval: SimDuration::from_secs(600),
            restore_overhead: SimDuration::from_secs(60),
        };
        let out = sched.run(jobs.clone());
        prop_assert_eq!(out.jobs.len(), jobs.len());
        prop_assert!(out.wasted_gpu_seconds >= 0.0);
        // Waste only exists if preemptions happened.
        if out.preemptions == 0 {
            prop_assert_eq!(out.wasted_gpu_seconds, 0.0);
        }
        for j in &out.jobs {
            prop_assert!(j.start() >= j.submit);
        }
    }

    /// Determinism: scheduling the same trace twice gives identical output.
    /// Demands are capped at the shared-pool size (48) so every job is
    /// schedulable under the reservation.
    #[test]
    fn scheduling_is_deterministic(jobs in arb_jobs(48)) {
        let a = ClusterScheduler::new(SchedulerConfig::with_reservation(96, 0.5)).run(jobs.clone());
        let b = ClusterScheduler::new(SchedulerConfig::with_reservation(96, 0.5)).run(jobs);
        prop_assert_eq!(a.jobs, b.jobs);
        prop_assert_eq!(a.finished_at, b.finished_at);
    }
}
