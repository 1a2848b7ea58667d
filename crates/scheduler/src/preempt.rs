//! The preemption ablation (§3.1).
//!
//! Prior DL schedulers guarantee priority by *preempting* running jobs.
//! The paper argues that "the considerable recovery overhead makes them
//! not applicable to LLM workloads": every preemption of a big job
//! discards the work since its last checkpoint and pays a restore cost on
//! resume. [`PreemptiveScheduler`] is that policy as an eviction option of
//! the one scheduler loop in [`crate::sim`], so the experiment compares it
//! against quota reservation on the same trace and queue discipline, and
//! prices the wasted GPU time.

use acme_sim_core::SimDuration;
use acme_workload::JobRecord;

use crate::config::SchedulerConfig;
use crate::sim::{schedule, ScheduleOutcome};

/// A priority scheduler that preempts instead of reserving.
#[derive(Debug, Clone, Copy)]
pub struct PreemptiveScheduler {
    /// Total GPUs.
    pub total_gpus: u32,
    /// Checkpoint cadence of running jobs — work since the last checkpoint
    /// is lost on preemption.
    pub checkpoint_interval: SimDuration,
    /// Fixed cost to restore a preempted job (reload checkpoint,
    /// rebuild process groups).
    pub restore_overhead: SimDuration,
}

impl PreemptiveScheduler {
    /// Run the trace on one pool of `total_gpus` with no reservation. A
    /// job that does not fit evicts running jobs of strictly lower
    /// priority, most recently started first, if that makes room.
    ///
    /// # Panics
    /// Panics if a job demands more GPUs than the cluster has.
    pub fn run(&self, jobs: Vec<JobRecord>) -> ScheduleOutcome {
        let config = SchedulerConfig::without_reservation(self.total_gpus);
        schedule(&config, Some(self), jobs)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use acme_sim_core::{EventQueue, SimTime};
    use acme_workload::JobType;
    use proptest::prelude::*;

    use super::*;
    use crate::sim::ClusterScheduler;
    use crate::testkit::{arb_trace, job, TRACE_GPUS};

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Arrive(usize),
        /// Finish attempt carrying the generation at scheduling time; stale
        /// generations (the job was preempted meanwhile) are ignored.
        Finish(usize, u32),
    }

    #[derive(Debug, Clone, Copy)]
    struct Running {
        started: SimTime,
        remaining_at_start: SimDuration,
        generation: u32,
    }

    impl PreemptiveScheduler {
        /// The loop before victims came from the running set, kept
        /// verbatim as the oracle: every job that does not fit scans all
        /// n jobs for victims, and every event rebuilds each level's
        /// queue.
        fn run_reference(&self, mut jobs: Vec<JobRecord>) -> ScheduleOutcome {
            for j in &jobs {
                assert!(
                    j.gpus <= self.total_gpus,
                    "job {} demands {} GPUs of {}",
                    j.id,
                    j.gpus,
                    self.total_gpus
                );
            }
            let n = jobs.len();
            let mut queue = EventQueue::with_capacity(n + 1);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| jobs[i].submit);
            for &i in &order {
                queue.schedule(jobs[i].submit, Event::Arrive(i));
            }

            let mut waiting: Vec<VecDeque<usize>> = (0..SchedulerConfig::PRIORITY_LEVELS)
                .map(|_| VecDeque::new())
                .collect();
            let mut running: Vec<Option<Running>> = vec![None; n];
            let mut remaining: Vec<SimDuration> = jobs.iter().map(|j| j.duration).collect();
            let mut first_start: Vec<Option<SimTime>> = vec![None; n];
            let mut used: u32 = 0;
            let mut preemptions = 0u32;
            let mut wasted = 0.0f64;
            let mut finished_at = SimTime::ZERO;

            while let Some((now, event)) = queue.pop() {
                match event {
                    Event::Arrive(i) => {
                        let p = SchedulerConfig::priority(jobs[i].job_type) as usize;
                        waiting[p].push_back(i);
                    }
                    Event::Finish(i, generation) => {
                        let Some(r) = running[i] else { continue };
                        if r.generation != generation {
                            continue; // stale: the job was preempted
                        }
                        running[i] = None;
                        used -= jobs[i].gpus;
                        remaining[i] = SimDuration::ZERO;
                        finished_at = finished_at.max(now);
                    }
                }

                // Start waiting jobs in priority order, preempting lower
                // priorities when a higher-priority job doesn't fit.
                for p in 0..waiting.len() {
                    let mut still_waiting = VecDeque::new();
                    while let Some(i) = waiting[p].pop_front() {
                        let mut free = self.total_gpus - used;
                        if free < jobs[i].gpus {
                            // Try to evict strictly-lower-priority victims,
                            // most recently started first (least sunk work).
                            let mut victims: Vec<usize> = (0..n)
                                .filter(|&v| {
                                    running[v].is_some()
                                        && SchedulerConfig::priority(jobs[v].job_type) as usize > p
                                })
                                .collect();
                            victims
                                .sort_by_key(|&v| std::cmp::Reverse(running[v].unwrap().started));
                            let mut evict = Vec::new();
                            for v in victims {
                                if free >= jobs[i].gpus {
                                    break;
                                }
                                free += jobs[v].gpus;
                                evict.push(v);
                            }
                            if free >= jobs[i].gpus {
                                for v in evict {
                                    let r = running[v].take().unwrap();
                                    used -= jobs[v].gpus;
                                    preemptions += 1;
                                    // Progress made this run, minus the tail
                                    // since the last checkpoint (lost).
                                    let ran = now - r.started;
                                    let lost = SimDuration::from_micros(
                                        ran.as_micros()
                                            % self.checkpoint_interval.as_micros().max(1),
                                    );
                                    let kept = ran.saturating_sub(lost);
                                    remaining[v] = r.remaining_at_start.saturating_sub(kept)
                                        + self.restore_overhead;
                                    wasted += jobs[v].gpus as f64
                                        * (lost + self.restore_overhead).as_secs_f64();
                                    let vp = SchedulerConfig::priority(jobs[v].job_type) as usize;
                                    waiting[vp].push_back(v);
                                }
                            }
                        }
                        if self.total_gpus - used >= jobs[i].gpus {
                            let generation = first_start[i].map_or(0, |_| 1) + preemptions; // unique-enough
                            running[i] = Some(Running {
                                started: now,
                                remaining_at_start: remaining[i],
                                generation,
                            });
                            used += jobs[i].gpus;
                            if first_start[i].is_none() {
                                first_start[i] = Some(now);
                                jobs[i].queue_delay = now.saturating_since(jobs[i].submit);
                            }
                            queue.schedule_in(remaining[i], Event::Finish(i, generation));
                        } else {
                            still_waiting.push_back(i);
                        }
                    }
                    waiting[p] = still_waiting;
                }
            }

            assert!(
                running.iter().all(Option::is_none),
                "jobs still running after the event queue drained"
            );
            ScheduleOutcome {
                jobs,
                preemptions,
                wasted_gpu_seconds: wasted,
                finished_at,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Victims drawn from the index-ordered running set, and queues
        /// swept in place, give the n-job scan's schedule, preemptions
        /// and waste to the bit.
        #[test]
        fn running_set_matches_the_full_scan(jobs in arb_trace()) {
            let s = PreemptiveScheduler {
                total_gpus: TRACE_GPUS,
                checkpoint_interval: SimDuration::from_secs(600),
                restore_overhead: SimDuration::from_secs(120),
            };
            let got = s.run(jobs.clone());
            let want = s.run_reference(jobs);
            prop_assert_eq!(got.jobs, want.jobs);
            prop_assert_eq!(got.finished_at, want.finished_at);
            prop_assert_eq!(got.preemptions, want.preemptions);
            prop_assert_eq!(
                got.wasted_gpu_seconds.to_bits(),
                want.wasted_gpu_seconds.to_bits()
            );
        }

        /// With every job at one priority level nothing is ever evicted,
        /// and the preemptive arm schedules exactly as the single-pool
        /// cluster scheduler: the two §3.1 arms share one queue discipline.
        #[test]
        fn one_priority_level_schedules_as_one_pool(jobs in arb_trace(), ty in 0usize..3) {
            let ty = [JobType::Pretrain, JobType::Debug, JobType::Evaluation][ty];
            let jobs: Vec<JobRecord> = jobs
                .into_iter()
                .map(|j| JobRecord { job_type: ty, ..j })
                .collect();
            let s = PreemptiveScheduler {
                total_gpus: TRACE_GPUS,
                checkpoint_interval: SimDuration::from_secs(600),
                restore_overhead: SimDuration::from_secs(120),
            };
            let got = s.run(jobs.clone());
            let want = ClusterScheduler::new(SchedulerConfig::without_reservation(TRACE_GPUS))
                .run(jobs);
            prop_assert_eq!(got.jobs, want.jobs);
            prop_assert_eq!(got.finished_at, want.finished_at);
            prop_assert_eq!(got.preemptions, 0);
            prop_assert_eq!(got.wasted_gpu_seconds, 0.0);
        }
    }

    fn sched() -> PreemptiveScheduler {
        PreemptiveScheduler {
            total_gpus: 100,
            checkpoint_interval: SimDuration::from_secs(600),
            restore_overhead: SimDuration::from_secs(120),
        }
    }

    #[test]
    fn no_contention_no_preemption() {
        let out = sched().run(vec![
            job(0, JobType::Evaluation, 10, 0, 100),
            job(1, JobType::Pretrain, 50, 10, 100),
        ]);
        assert_eq!(out.preemptions, 0);
        assert_eq!(out.wasted_gpu_seconds, 0.0);
        assert!(out.jobs.iter().all(|j| j.queue_delay.is_zero()));
    }

    #[test]
    fn pretrain_preempts_eval_and_pays_recovery() {
        // Eval holds 80 GPUs; a pretrain wanting 90 arrives mid-run.
        let out = sched().run(vec![
            job(0, JobType::Evaluation, 80, 0, 2_000),
            job(1, JobType::Pretrain, 90, 300, 1_000),
        ]);
        assert_eq!(out.preemptions, 1);
        // The pretrain starts immediately at its arrival.
        assert!(out.jobs[1].queue_delay.is_zero());
        // The eval lost its sub-checkpoint progress (300 s) plus restore.
        assert!(
            (out.wasted_gpu_seconds - 80.0 * (300.0 + 120.0)).abs() < 1.0,
            "wasted {}",
            out.wasted_gpu_seconds
        );
        // The eval still completes eventually.
        assert!(out.finished_at > SimTime::from_secs(2_000));
    }

    #[test]
    fn checkpointing_bounds_the_loss() {
        // With a 600 s interval, a job preempted at t=1500 loses only 300 s.
        let out = sched().run(vec![
            job(0, JobType::Evaluation, 80, 0, 10_000),
            job(1, JobType::Pretrain, 90, 1_500, 100),
        ]);
        let expected = 80.0 * (300.0 + 120.0);
        assert!(
            (out.wasted_gpu_seconds - expected).abs() < 1.0,
            "wasted {} vs {expected}",
            out.wasted_gpu_seconds
        );
    }

    #[test]
    fn equal_priority_never_preempts() {
        let out = sched().run(vec![
            job(0, JobType::Pretrain, 90, 0, 1_000),
            job(1, JobType::Pretrain, 90, 100, 1_000),
        ]);
        assert_eq!(out.preemptions, 0);
        assert_eq!(out.jobs[1].queue_delay, SimDuration::from_secs(900));
    }

    #[test]
    fn most_recent_victim_evicted_first() {
        // Two evals: old (started t=0) and young (t=100). A pretrain needing
        // only the young one's GPUs must evict the young one.
        let out = sched().run(vec![
            job(0, JobType::Evaluation, 40, 0, 5_000),
            job(1, JobType::Evaluation, 40, 100, 5_000),
            job(2, JobType::Pretrain, 60, 200, 100),
        ]);
        assert_eq!(out.preemptions, 1);
        // The old eval ran undisturbed: it finishes at exactly t=5000.
        // The young one finishes later than its undisturbed time.
        assert!(out.finished_at > SimTime::from_secs(5_100));
    }

    #[test]
    fn repeated_preemption_compounds_waste() {
        // A big eval repeatedly trampled by short pretrains.
        let mut jobs = vec![job(0, JobType::Evaluation, 80, 0, 20_000)];
        for k in 0..5u64 {
            jobs.push(job(k + 1, JobType::Pretrain, 90, 1_000 + k * 2_000, 300));
        }
        let out = sched().run(jobs);
        assert_eq!(out.preemptions, 5);
        assert!(
            out.waste_fraction() > 0.05,
            "waste {:.3}",
            out.waste_fraction()
        );
    }
}
