//! The discrete-event scheduler: one loop for both §3.1 arms.
//!
//! Events are job arrivals and completions, and the work each does is in
//! proportion to what it changes. An arrival tries only itself: it starts
//! if it fits and otherwise joins the back of its priority's queue. A
//! completion frees GPUs, so the scheduler sweeps its priority queues in
//! order and starts every queued job that fits — FIFO within a priority
//! with backfill (a job that doesn't fit does not block smaller jobs behind
//! it, mirroring Slurm's backfill scheduler). That is the schedule a sweep
//! on every event gives, because an arrival frees nothing and a job that
//! does not fit never fits in less room.
//!
//! Allocation policy (per [`SchedulerConfig`]):
//! * pretraining draws from the reserved quota first and may overflow into
//!   the shared pool;
//! * other types draw from the shared pool;
//! * a non-pretraining job that can never fit in the shared pool alone may
//!   borrow idle reserved GPUs best-effort.
//!
//! With no GPUs reserved, every job draws from the one shared pool. That
//! is the pool [`PreemptiveScheduler`] runs the same loop on, with
//! eviction: a job that does not fit may evict running jobs of strictly
//! lower priority. Then every event sweeps, because an eviction can leave
//! more GPUs free than the job it made room for needs.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use acme_sim_core::{EventQueue, SimDuration, SimTime};
use acme_workload::{JobRecord, JobType};

use crate::config::SchedulerConfig;
use crate::preempt::PreemptiveScheduler;

/// What the scheduler produced for a trace.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The input jobs with `queue_delay` filled in, original order. An
    /// evicted job keeps the delay to its first start.
    pub jobs: Vec<JobRecord>,
    /// Makespan: when the last job finished.
    pub finished_at: SimTime,
    /// Evictions; zero without preemption.
    pub preemptions: u32,
    /// GPU-seconds of work discarded plus restore overhead paid.
    pub wasted_gpu_seconds: f64,
}

impl ScheduleOutcome {
    /// Wasted GPU time as a fraction of useful GPU time.
    pub fn waste_fraction(&self) -> f64 {
        let useful: f64 = self.jobs.iter().map(|j| j.gpu_seconds()).sum();
        self.wasted_gpu_seconds / useful
    }
}

/// Per-running-job allocation bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Allocation {
    reserved: u32,
    shared: u32,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive(usize),
    /// A finish carrying its job's eviction count at the start; the finish
    /// of a job evicted since is stale.
    Finish(usize, u32),
}

/// The scheduler simulator.
#[derive(Debug)]
pub struct ClusterScheduler {
    config: SchedulerConfig,
}

impl ClusterScheduler {
    /// Build a scheduler with the given policy.
    pub fn new(config: SchedulerConfig) -> Self {
        ClusterScheduler { config }
    }

    /// Run the trace to completion and fill in queue delays.
    ///
    /// # Panics
    /// Panics if any job demands more GPUs than the cluster has — such a job
    /// could never start and the trace is malformed for this cluster.
    pub fn run(&self, jobs: Vec<JobRecord>) -> ScheduleOutcome {
        schedule(&self.config, None, jobs)
    }
}

/// The state only eviction needs, built only when evicting.
struct Evictions<'a> {
    policy: &'a PreemptiveScheduler,
    /// The running jobs by index, ascending, with their start times: the
    /// order in which a scan over all n jobs meets them, which the stable
    /// victim sort keeps among jobs that started at the same instant.
    running: BTreeMap<usize, SimTime>,
    /// Per job, the work left when it last started.
    remaining: Vec<SimDuration>,
    /// Per job, how often it was evicted: the generation of its finish.
    generation: Vec<u32>,
}

/// One schedule in progress.
struct Run<'a> {
    config: &'a SchedulerConfig,
    jobs: Vec<JobRecord>,
    queue: EventQueue<Event>,
    allocs: Vec<Option<Allocation>>,
    used_reserved: u32,
    used_shared: u32,
    evictions: Option<Evictions<'a>>,
    preemptions: u32,
    wasted: f64,
}

/// Run `jobs` to completion under `config`, evicting as `eviction` says
/// if given. See [`ClusterScheduler::run`] for the panics.
pub(crate) fn schedule(
    config: &SchedulerConfig,
    eviction: Option<&PreemptiveScheduler>,
    jobs: Vec<JobRecord>,
) -> ScheduleOutcome {
    for j in &jobs {
        assert!(
            j.gpus <= config.total_gpus,
            "job {} demands {} GPUs but the cluster has {}",
            j.id,
            j.gpus,
            config.total_gpus
        );
    }
    let n = jobs.len();

    // Arrival order must be chronological for FIFO semantics.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| jobs[i].submit);

    // One arrival per job now, plus at most one finish per running job
    // later: size the future-event list once, up front. (Under eviction,
    // the stale finishes of evicted jobs can outgrow it.)
    let mut queue = EventQueue::with_capacity(n + 1);
    for &i in &order {
        queue.schedule(jobs[i].submit, Event::Arrive(i));
    }

    let evicting = eviction.is_some();
    let evictions = eviction.map(|policy| Evictions {
        policy,
        running: BTreeMap::new(),
        remaining: jobs.iter().map(|j| j.duration).collect(),
        generation: vec![0; n],
    });
    let mut run = Run {
        config,
        jobs,
        queue,
        allocs: vec![None; n],
        used_reserved: 0,
        used_shared: 0,
        evictions,
        preemptions: 0,
        wasted: 0.0,
    };
    let mut waiting: Vec<Vec<usize>> = vec![Vec::new(); SchedulerConfig::PRIORITY_LEVELS];
    let mut finished_at = SimTime::ZERO;

    while let Some((now, event)) = run.queue.pop() {
        let arrival = match event {
            Event::Arrive(i) => Some(i),
            Event::Finish(i, generation) => {
                if let Some(e) = &mut run.evictions {
                    if e.generation[i] != generation {
                        continue; // stale: the job was evicted
                    }
                    e.running.remove(&i);
                }
                run.release(i);
                finished_at = finished_at.max(now);
                None
            }
        };

        match arrival {
            // Without eviction an arrival tries only itself, which is
            // exact. Every event ends with no waiting job able to fit; a
            // job that does not fit keeps not fitting as free GPUs shrink
            // (`try_allocate` is monotone in both pools); and an arrival
            // frees none. So a full sweep would miss on every job ahead of
            // the arrival and, whether or not it starts, on every job
            // behind it.
            Some(i) if !evicting => {
                if !run.start(i, now) {
                    waiting[run.level(i)].push(i);
                }
            }
            // A release, or any event under eviction, sweeps priorities
            // high→low, FIFO within each, starting everything that fits.
            // Backfill: a job that does not fit keeps its place and the
            // scan goes on to smaller jobs behind it. Victims rejoin their
            // own, lower levels, which the sweep reaches later.
            _ => {
                if let Some(i) = arrival {
                    waiting[run.level(i)].push(i);
                }
                for p in 0..waiting.len() {
                    let (level, lower) = waiting.split_at_mut(p + 1);
                    level[p].retain(|&i| {
                        if evicting {
                            run.make_room(i, p, lower, now);
                        }
                        !run.start(i, now)
                    });
                }
            }
        }
    }

    for (p, q) in waiting.iter().enumerate() {
        assert!(q.is_empty(), "priority-{p} queue never drained");
    }
    ScheduleOutcome {
        jobs: run.jobs,
        finished_at,
        preemptions: run.preemptions,
        wasted_gpu_seconds: run.wasted,
    }
}

impl Run<'_> {
    fn level(&self, i: usize) -> usize {
        SchedulerConfig::priority(self.jobs[i].job_type) as usize
    }

    /// Start job `i` now if it fits; false leaves it waiting. Inlined
    /// into the sweep, which tries ~100k jobs in one `fig6` pass.
    #[inline]
    fn start(&mut self, i: usize, now: SimTime) -> bool {
        let job = &mut self.jobs[i];
        let Some(a) =
            self.config
                .try_allocate(job.job_type, job.gpus, self.used_reserved, self.used_shared)
        else {
            return false;
        };
        self.used_reserved += a.reserved;
        self.used_shared += a.shared;
        self.allocs[i] = Some(a);
        let (mut work, mut generation) = (job.duration, 0);
        if let Some(e) = &mut self.evictions {
            e.running.insert(i, now);
            (work, generation) = (e.remaining[i], e.generation[i]);
        }
        // Only a job never evicted is starting for the first time.
        if generation == 0 {
            job.queue_delay = now.saturating_since(job.submit);
        }
        self.queue.schedule_in(work, Event::Finish(i, generation));
        true
    }

    fn release(&mut self, i: usize) {
        let a = self.allocs[i]
            .take()
            .expect("releasing a job that is not running");
        self.used_reserved -= a.reserved;
        self.used_shared -= a.shared;
    }

    /// Under eviction, make room for job `i` of level `p` by evicting jobs
    /// of the `lower` levels, most recently started first (least sunk
    /// work), or evict none if they cannot make enough.
    fn make_room(&mut self, i: usize, p: usize, lower: &mut [Vec<usize>], now: SimTime) {
        let Some(e) = &self.evictions else { return };
        let need = self.jobs[i].gpus;
        let free = self.config.total_gpus - self.used_reserved - self.used_shared;
        // The lowest level has no lower one to take victims from.
        if free >= need || lower.is_empty() {
            return;
        }
        let mut victims: Vec<(usize, SimTime)> = (e.running.iter())
            .filter(|&(&v, _)| self.level(v) > p)
            .map(|(&v, &started)| (v, started))
            .collect();
        victims.sort_by_key(|&(_, started)| Reverse(started));
        // The fewest victims, in that order, that free enough, if any.
        let mut freed = victims.iter().scan(free, |free, &(v, _)| {
            *free += self.jobs[v].gpus;
            Some(*free)
        });
        let Some(last) = freed.position(|free| free >= need) else {
            return;
        };
        for &(v, started) in &victims[..=last] {
            self.release(v);
            let e = self.evictions.as_mut().expect("evicting");
            e.running.remove(&v);
            e.generation[v] += 1;
            // Progress made this run, minus the tail since the last
            // checkpoint (lost).
            let ran = now - started;
            let lost = SimDuration::from_micros(
                ran.as_micros() % e.policy.checkpoint_interval.as_micros().max(1),
            );
            let kept = ran.saturating_sub(lost);
            e.remaining[v] = e.remaining[v].saturating_sub(kept) + e.policy.restore_overhead;
            self.preemptions += 1;
            self.wasted +=
                self.jobs[v].gpus as f64 * (lost + e.policy.restore_overhead).as_secs_f64();
            lower[self.level(v) - p - 1].push(v);
        }
    }
}

impl SchedulerConfig {
    /// Where would a job of this type/size run right now, if anywhere?
    fn try_allocate(
        &self,
        ty: JobType,
        gpus: u32,
        used_reserved: u32,
        used_shared: u32,
    ) -> Option<Allocation> {
        let free_reserved = self.reserved_gpus - used_reserved;
        let free_shared = self.shared_gpus() - used_shared;

        if ty == JobType::Pretrain {
            // Reserved first, overflow into shared.
            let from_reserved = gpus.min(free_reserved);
            let from_shared = gpus - from_reserved;
            if from_shared <= free_shared {
                return Some(Allocation {
                    reserved: from_reserved,
                    shared: from_shared,
                });
            }
            return None;
        }

        // Non-pretraining: shared pool.
        if gpus <= free_shared {
            return Some(Allocation {
                reserved: 0,
                shared: gpus,
            });
        }
        // Best-effort: a job that can NEVER fit in the shared pool may
        // borrow idle reserved GPUs wholesale.
        if gpus > self.shared_gpus() && gpus <= free_reserved {
            return Some(Allocation {
                reserved: gpus,
                shared: 0,
            });
        }
        None
    }
}

/// Snap evaluation submissions down to the start of `window`-sized buckets,
/// modelling the paper's "evaluation jobs are typically submitted as a batch
/// simultaneously" (§3.2). Other job types are untouched.
pub fn coalesce_eval_batches(jobs: &mut [JobRecord], window: SimDuration) {
    assert!(!window.is_zero(), "batch window must be positive");
    let w = window.as_micros();
    for j in jobs.iter_mut() {
        if j.job_type == JobType::Evaluation {
            let t = j.submit.as_micros();
            j.submit = SimTime::from_micros(t - t % w);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::testkit::{arb_trace, job, TRACE_GPUS, TRACE_QUOTA};

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Arrive(usize),
        Finish(usize),
    }

    impl ClusterScheduler {
        /// The loop before it worked per event, kept verbatim as the
        /// oracle: every event sweeps every waiting job and rebuilds each
        /// level's queue.
        fn run_reference(&self, mut jobs: Vec<JobRecord>) -> ScheduleOutcome {
            for j in &jobs {
                assert!(
                    j.gpus <= self.config.total_gpus,
                    "job {} demands {} GPUs but the cluster has {}",
                    j.id,
                    j.gpus,
                    self.config.total_gpus
                );
            }

            // Arrival order must be chronological for FIFO semantics.
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            order.sort_by_key(|&i| jobs[i].submit);

            // One arrival per job now, plus at most one finish per running job
            // later: size the future-event list once, up front.
            let mut queue = EventQueue::with_capacity(jobs.len() + 1);
            for &i in &order {
                queue.schedule(jobs[i].submit, Event::Arrive(i));
            }

            let mut queues: Vec<VecDeque<usize>> = (0..SchedulerConfig::PRIORITY_LEVELS)
                .map(|_| VecDeque::new())
                .collect();
            let mut allocs: Vec<Option<Allocation>> = vec![None; jobs.len()];
            let mut used_reserved: u32 = 0;
            let mut used_shared: u32 = 0;
            let mut finished_at = SimTime::ZERO;

            while let Some((now, event)) = queue.pop() {
                match event {
                    Event::Arrive(i) => {
                        let p = SchedulerConfig::priority(jobs[i].job_type) as usize;
                        queues[p].push_back(i);
                    }
                    Event::Finish(i) => {
                        let a = allocs[i]
                            .take()
                            .expect("releasing a job that is not running");
                        used_reserved -= a.reserved;
                        used_shared -= a.shared;
                        finished_at = finished_at.max(now);
                    }
                }

                // Sweep priorities high→low, starting everything that fits.
                for level in queues.iter_mut() {
                    let mut remaining = VecDeque::new();
                    while let Some(i) = level.pop_front() {
                        match self.config.try_allocate(
                            jobs[i].job_type,
                            jobs[i].gpus,
                            used_reserved,
                            used_shared,
                        ) {
                            Some(a) => {
                                used_reserved += a.reserved;
                                used_shared += a.shared;
                                allocs[i] = Some(a);
                                jobs[i].queue_delay = now.saturating_since(jobs[i].submit);
                                queue.schedule_in(jobs[i].duration, Event::Finish(i));
                            }
                            // Backfill: keep scanning smaller jobs behind it.
                            None => remaining.push_back(i),
                        }
                    }
                    *level = remaining;
                }
            }

            for (p, q) in queues.iter().enumerate() {
                assert!(q.is_empty(), "priority-{p} queue never drained");
            }

            ScheduleOutcome {
                jobs,
                finished_at,
                preemptions: 0,
                wasted_gpu_seconds: 0.0,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Trying only the arrival and sweeping in place on a release
        /// start every job when the full per-event sweep does, with and
        /// without a reservation.
        #[test]
        fn per_event_loop_matches_the_full_sweep(jobs in arb_trace()) {
            let reserved = SchedulerConfig {
                total_gpus: TRACE_GPUS,
                reserved_gpus: TRACE_QUOTA,
            };
            for config in [reserved, SchedulerConfig::without_reservation(TRACE_GPUS)] {
                let s = ClusterScheduler::new(config);
                let got = s.run(jobs.clone());
                let want = s.run_reference(jobs.clone());
                prop_assert_eq!(got.jobs, want.jobs);
                prop_assert_eq!(got.finished_at, want.finished_at);
            }
        }
    }

    fn delays(outcome: &ScheduleOutcome) -> Vec<(u64, f64)> {
        outcome
            .jobs
            .iter()
            .map(|j| (j.id, j.queue_delay.as_secs_f64()))
            .collect()
    }

    #[test]
    fn uncontended_jobs_start_immediately() {
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(100));
        let out = s.run(vec![
            job(0, JobType::Evaluation, 4, 0, 60),
            job(1, JobType::Debug, 8, 10, 60),
        ]);
        assert!(out.jobs.iter().all(|j| j.queue_delay.is_zero()));
        assert_eq!(out.finished_at, SimTime::from_secs(70));
    }

    #[test]
    fn fifo_queueing_under_contention() {
        // 10-GPU pool; two 8-GPU jobs must serialize.
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(10));
        let out = s.run(vec![
            job(0, JobType::Debug, 8, 0, 100),
            job(1, JobType::Debug, 8, 0, 100),
        ]);
        let d = delays(&out);
        assert_eq!(d[0].1, 0.0);
        assert_eq!(d[1].1, 100.0);
    }

    #[test]
    fn backfill_lets_small_jobs_slip_past() {
        // 10 GPUs: a running 8-GPU job, a queued 8-GPU job, then a 2-GPU job
        // that fits right now and should NOT wait behind the 8-GPU job.
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(10));
        let out = s.run(vec![
            job(0, JobType::Debug, 8, 0, 100),
            job(1, JobType::Debug, 8, 1, 100),
            job(2, JobType::Debug, 2, 2, 10),
        ]);
        let d = delays(&out);
        assert_eq!(d[1].1, 99.0, "8-GPU job waits for the first to finish");
        assert_eq!(d[2].1, 0.0, "2-GPU job backfills immediately");
    }

    #[test]
    fn pretraining_priority_beats_earlier_eval() {
        // 10 GPUs, all busy until t=100. At t=5 an eval (8 GPUs) queues; at
        // t=6 a pretrain (8 GPUs) queues. Pretrain must start first despite
        // arriving later.
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(10));
        let out = s.run(vec![
            job(0, JobType::Debug, 10, 0, 100),
            job(1, JobType::Evaluation, 8, 5, 50),
            job(2, JobType::Pretrain, 8, 6, 50),
        ]);
        let d = delays(&out);
        let pretrain_start = 100.0 - 6.0;
        let eval_start = 150.0 - 5.0;
        assert_eq!(d[2].1, pretrain_start);
        assert_eq!(d[1].1, eval_start);
    }

    #[test]
    fn reservation_shields_pretraining_from_eval_load() {
        // 100 GPUs, 90 reserved. A burst of evals saturates the 10 shared
        // GPUs; a pretrain arriving later starts instantly on the quota.
        let mut jobs: Vec<JobRecord> = (0..10)
            .map(|i| job(i, JobType::Evaluation, 2, 0, 1000))
            .collect();
        jobs.push(job(100, JobType::Pretrain, 80, 50, 500));
        let s = ClusterScheduler::new(SchedulerConfig::with_reservation(100, 0.9));
        let out = s.run(jobs);
        let pre = out.jobs.iter().find(|j| j.id == 100).unwrap();
        assert!(pre.queue_delay.is_zero(), "pretrain should never queue");
        // Only 5 of the 10 evals fit in the shared pool at once.
        let queued_evals = out
            .jobs
            .iter()
            .filter(|j| j.job_type == JobType::Evaluation && !j.queue_delay.is_zero())
            .count();
        assert_eq!(queued_evals, 5);
    }

    #[test]
    fn borrowing_rescues_oversized_debug_jobs() {
        // Shared pool is 10; a 50-GPU debug job can never fit there, but the
        // reserved quota is idle, so borrowing lets it run.
        let s = ClusterScheduler::new(SchedulerConfig::with_reservation(100, 0.9));
        let out = s.run(vec![job(0, JobType::Debug, 50, 0, 10)]);
        assert!(out.jobs[0].queue_delay.is_zero());
    }

    #[test]
    fn borrowing_yields_to_running_pretrain() {
        // Pretrain occupies the whole quota; the oversized debug job must
        // wait until it finishes.
        let s = ClusterScheduler::new(SchedulerConfig::with_reservation(100, 0.9));
        let out = s.run(vec![
            job(0, JobType::Pretrain, 90, 0, 100),
            job(1, JobType::Debug, 50, 10, 10),
        ]);
        let d = delays(&out);
        assert_eq!(d[1].1, 90.0);
    }

    #[test]
    fn pretrain_overflows_into_shared_pool() {
        // Quota 90, shared 10: a 95-GPU pretrain takes 90 reserved + 5 shared.
        let s = ClusterScheduler::new(SchedulerConfig::with_reservation(100, 0.9));
        let out = s.run(vec![
            job(0, JobType::Pretrain, 95, 0, 100),
            job(1, JobType::Evaluation, 8, 1, 10),
            job(2, JobType::Evaluation, 4, 1, 10),
        ]);
        let d = delays(&out);
        // Only 5 shared GPUs remain: the 4-GPU eval runs, the 8-GPU waits.
        assert_eq!(d[2].1, 0.0);
        assert_eq!(d[1].1, 99.0);
    }

    #[test]
    #[should_panic(expected = "demands")]
    fn oversized_job_rejected() {
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(8));
        s.run(vec![job(0, JobType::Pretrain, 16, 0, 10)]);
    }

    #[test]
    fn coalesce_eval_batches_floors_submit_times() {
        let mut jobs = vec![
            job(0, JobType::Evaluation, 1, 3700, 10),
            job(1, JobType::Evaluation, 1, 7300, 10),
            job(2, JobType::Pretrain, 8, 3700, 10),
        ];
        coalesce_eval_batches(&mut jobs, SimDuration::from_secs(3600));
        assert_eq!(jobs[0].submit, SimTime::from_secs(3600));
        assert_eq!(jobs[1].submit, SimTime::from_secs(7200));
        assert_eq!(
            jobs[2].submit,
            SimTime::from_secs(3700),
            "non-eval untouched"
        );
    }

    #[test]
    fn queue_delay_measured_from_submission() {
        let s = ClusterScheduler::new(SchedulerConfig::without_reservation(4));
        let out = s.run(vec![
            job(0, JobType::Debug, 4, 0, 100),
            job(1, JobType::Evaluation, 4, 30, 10),
        ]);
        assert_eq!(delays(&out)[1].1, 70.0);
    }
}
