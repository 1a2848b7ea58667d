//! Trace aggregation: the numbers behind Table 2 and Figures 3, 4, 5, 6
//! and 17.
//!
//! [`TraceStats`] is a bounded-memory accumulator — fixed-size
//! per-type/per-status/per-demand-bucket counters — that jobs are
//! `push`ed into one at a time and shards `merge` together; it never
//! retains a job, so the closed-world traces and the fleet stream fold
//! into the same tables. [`TraceSummary`] adds a count per type and exact
//! GPU demand, which gives Figure 5's boxplots exactly, so the §3 figures
//! read one summary per cluster and keep no trace. Figure 6's CDFs, over
//! a scheduler run's queue delays, read a materialized slice through
//! [`duration_cdf_by_type`] and [`queue_delay_cdf_by_type`]. Counts are
//! integers, exact in any order; each float accumulator receives exactly
//! the additions the historical per-figure passes performed, in the same
//! order, keeping the floating-point output bit-identical.

use acme_telemetry::{BoxplotStats, Cdf};

use crate::job::{JobRecord, JobStatus, JobType};

/// Power-of-two GPU-demand thresholds 1..4096 (Figure 3's x-axis).
const DEMAND_K: usize = 13;

/// Bounded-memory aggregate statistics over a job trace or stream (see
/// module docs). `push` jobs in, `merge` shards together, read the Figure
/// 3/4/17 tables out — memory is O(1) in stream length. Job counts (per
/// type, per status, per demand bucket) are integers; GPU time is an
/// `f64` sum per table entry, and the demand table adds each job's GPU
/// time into every threshold ≥ its demand.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    jobs: usize,
    gpus_sum: f64,
    total_gpu_seconds: f64,
    type_counts: [usize; JobType::ALL.len()],
    type_gpu_secs: [f64; JobType::ALL.len()],
    status_counts: [usize; JobStatus::ALL.len()],
    status_gpu_secs: [f64; JobStatus::ALL.len()],
    /// Jobs whose smallest power-of-two threshold ≥ their demand is
    /// `2^k`, per `k`.
    demand_counts: [u64; DEMAND_K],
    demand_time_sums: [f64; DEMAND_K],
    demand_time_total: f64,
}

impl TraceStats {
    /// Aggregate a trace by pushing its jobs in order.
    ///
    /// # Panics
    /// Panics on an empty trace — every consumer needs at least one job.
    pub fn new(jobs: &[JobRecord]) -> Self {
        assert!(!jobs.is_empty(), "empty trace");
        let mut stats = TraceStats::default();
        for j in jobs {
            stats.push(j);
        }
        stats
    }

    /// Fold one job into every aggregate.
    #[inline]
    pub fn push(&mut self, j: &JobRecord) {
        self.jobs += 1;
        self.gpus_sum += f64::from(j.gpus);
        let gs = j.gpu_seconds();
        self.total_gpu_seconds += gs;

        // `JobType::ALL` and `JobStatus::ALL` list variants in declaration
        // order, so a discriminant is its table index.
        let ti = j.job_type as usize;
        self.type_counts[ti] += 1;
        self.type_gpu_secs[ti] += gs;

        let si = j.status as usize;
        self.status_counts[si] += 1;
        self.status_gpu_secs[si] += gs;

        // Smallest k with 2^k ≥ gpus (jobs over 4096 GPUs fall past the
        // last threshold and contribute only to the totals). A count lands
        // in its own bucket; GPU time is scattered into every threshold
        // ≥ the demand, because a float sum depends on its order.
        let k = if j.gpus <= 1 {
            0
        } else {
            (32 - (j.gpus - 1).leading_zeros()) as usize
        };
        self.demand_time_total += gs;
        if k < DEMAND_K {
            self.demand_counts[k] += 1;
            for s in &mut self.demand_time_sums[k..] {
                *s += gs;
            }
        }
    }

    /// Combine another shard's aggregates into this one. Integer counts,
    /// and the count shares and count CDF read from them, equal sequential
    /// pushes exactly. Float sums reassociate across shard boundaries, so
    /// merged GPU-time totals are equal up to rounding, not bit-identical;
    /// the result is deterministic for a fixed merge order (the fleet
    /// experiment always merges in shard order).
    pub fn merge(&mut self, other: &TraceStats) {
        self.jobs += other.jobs;
        self.gpus_sum += other.gpus_sum;
        self.total_gpu_seconds += other.total_gpu_seconds;
        for i in 0..JobType::ALL.len() {
            self.type_counts[i] += other.type_counts[i];
            self.type_gpu_secs[i] += other.type_gpu_secs[i];
        }
        for i in 0..JobStatus::ALL.len() {
            self.status_counts[i] += other.status_counts[i];
            self.status_gpu_secs[i] += other.status_gpu_secs[i];
        }
        for k in 0..DEMAND_K {
            self.demand_counts[k] += other.demand_counts[k];
            self.demand_time_sums[k] += other.demand_time_sums[k];
        }
        self.demand_time_total += other.demand_time_total;
    }

    /// Number of jobs pushed.
    pub fn len(&self) -> usize {
        self.jobs
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.jobs == 0
    }

    /// Total GPU time in GPU-hours.
    pub fn total_gpu_hours(&self) -> f64 {
        self.total_gpu_seconds / 3600.0
    }

    /// Total GPU time in GPU-seconds.
    pub fn total_gpu_seconds(&self) -> f64 {
        self.total_gpu_seconds
    }

    /// Average requested GPUs per job.
    pub fn avg_gpus(&self) -> f64 {
        self.gpus_sum / self.jobs as f64
    }

    /// `(type, count_share, gpu_time_share)` rows — Figure 4. Types absent
    /// from the stream are omitted. Emitted in `JobType::ALL` order, which
    /// is the type's `Ord` order.
    pub fn type_shares(&self) -> Vec<(JobType, f64, f64)> {
        JobType::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.type_counts[i] > 0)
            .map(|(i, &ty)| {
                (
                    ty,
                    self.type_counts[i] as f64 / self.jobs as f64,
                    self.type_gpu_secs[i] / self.total_gpu_seconds,
                )
            })
            .collect()
    }

    /// `(status, count_share, gpu_time_share)` rows — Figure 17. All three
    /// statuses are always emitted.
    pub fn status_shares(&self) -> Vec<(JobStatus, f64, f64)> {
        JobStatus::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    self.status_counts[i] as f64 / self.jobs as f64,
                    self.status_gpu_secs[i] / self.total_gpu_seconds,
                )
            })
            .collect()
    }

    /// Figure 3(a): cumulative fraction of *job count* at each
    /// power-of-two GPU demand: the prefix sum of the per-bucket counts
    /// over the job count. Both are integers below 2⁵³, so each is exact
    /// as an `f64` and the quotient is the correctly rounded fraction.
    pub fn demand_count_cdf(&self) -> Vec<(u32, f64)> {
        let mut at_most = 0u64;
        (0..DEMAND_K)
            .map(|k| {
                at_most += self.demand_counts[k];
                (1u32 << k, at_most as f64 / self.jobs as f64)
            })
            .collect()
    }

    /// Figure 3(b): cumulative fraction of *GPU time* at each power-of-two
    /// GPU demand.
    pub fn demand_gpu_time_cdf(&self) -> Vec<(u32, f64)> {
        (0..DEMAND_K)
            .map(|k| (1u32 << k, self.demand_time_sums[k] / self.demand_time_total))
            .collect()
    }
}

/// A cluster trace's §3 figures without the trace: its [`TraceStats`] and
/// its jobs per type and exact GPU demand, folded in by
/// [`WorkloadGenerator::summarize`](crate::WorkloadGenerator::summarize).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// The aggregate tables.
    pub trace: TraceStats,
    /// Per type, in `JobType::ALL` order: `(gpus, jobs)`, sorted by demand.
    demand_counts: [Vec<(f64, u64)>; JobType::ALL.len()],
}

impl TraceSummary {
    #[inline]
    pub(crate) fn push(&mut self, j: &JobRecord) {
        self.trace.push(j);
        let counts = &mut self.demand_counts[j.job_type as usize];
        let gpus = f64::from(j.gpus);
        match counts.binary_search_by(|&(g, _)| g.total_cmp(&gpus)) {
            Ok(i) => counts[i].1 += 1,
            Err(i) => counts.insert(i, (gpus, 1)),
        }
    }

    /// Per-type GPU-demand box plots — Figure 5, equal bit for bit to the
    /// box plots of each type's demand samples. Types absent from the trace
    /// are omitted.
    pub fn demand_boxplots(&self) -> Vec<(JobType, BoxplotStats)> {
        JobType::ALL
            .iter()
            .zip(&self.demand_counts)
            .filter_map(|(&ty, counts)| BoxplotStats::from_counts(counts).map(|b| (ty, b)))
            .collect()
    }
}

/// CDF of job runtimes in minutes: §3.1's short-job headline, a median
/// GPU-job runtime of about 2 minutes.
///
/// # Panics
/// Panics on an empty trace.
pub fn duration_cdf(jobs: &[JobRecord]) -> Cdf {
    Cdf::from_samples(jobs.iter().map(|j| j.duration.as_mins_f64()).collect()).expect("empty trace")
}

/// Per-type duration CDFs in minutes — Figure 6(a/c).
pub fn duration_cdf_by_type(jobs: &[JobRecord]) -> Vec<(JobType, Cdf)> {
    per_type_cdf(jobs, |j| j.duration.as_mins_f64())
}

/// Per-type queue-delay CDFs in minutes — Figure 6(b/d).
pub fn queue_delay_cdf_by_type(jobs: &[JobRecord]) -> Vec<(JobType, Cdf)> {
    per_type_cdf(jobs, |j| j.queue_delay.as_mins_f64())
}

fn per_type_cdf(jobs: &[JobRecord], f: impl Fn(&JobRecord) -> f64) -> Vec<(JobType, Cdf)> {
    JobType::ALL
        .iter()
        .zip(partition_by_type(jobs, f))
        .filter_map(|(&ty, xs)| Cdf::from_samples(xs).map(|c| (ty, c)))
        .collect()
}

/// One pass splitting `f(job)` into per-type sample vectors, ordered as
/// `JobType::ALL`; job order within each type is trace order, the same
/// order the per-type filter passes produced.
fn partition_by_type(jobs: &[JobRecord], f: impl Fn(&JobRecord) -> f64) -> Vec<Vec<f64>> {
    let mut per: Vec<Vec<f64>> = (0..JobType::ALL.len()).map(|_| Vec::new()).collect();
    for j in jobs {
        per[j.job_type as usize].push(f(j));
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::job::Cluster;
    use acme_sim_core::{SimDuration, SimRng, SimTime};

    fn mk(id: u64, ty: JobType, gpus: u32, mins: u64, status: JobStatus) -> JobRecord {
        JobRecord {
            id,
            cluster: Cluster::Kalos,
            job_type: ty,
            submit: SimTime::from_secs(id),
            queue_delay: SimDuration::from_mins(id % 5),
            duration: SimDuration::from_mins(mins),
            gpus,
            status,
        }
    }

    fn tiny_trace() -> Vec<JobRecord> {
        vec![
            mk(0, JobType::Evaluation, 1, 2, JobStatus::Completed),
            mk(1, JobType::Evaluation, 1, 4, JobStatus::Failed),
            mk(2, JobType::Pretrain, 512, 60, JobStatus::Canceled),
            mk(3, JobType::Debug, 8, 10, JobStatus::Completed),
        ]
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        TraceStats::new(&[]);
    }

    #[test]
    fn totals() {
        let jobs = tiny_trace();
        let s = TraceStats::new(&jobs);
        assert_eq!(s.len(), 4);
        // 1*2 + 1*4 + 512*60 + 8*10 = 30806 GPU-min.
        assert!((s.total_gpu_hours() - 30806.0 / 60.0).abs() < 1e-9);
        assert_eq!(s.avg_gpus(), (1.0 + 1.0 + 512.0 + 8.0) / 4.0);
    }

    #[test]
    fn type_shares_sum_to_one() {
        let jobs = tiny_trace();
        let s = TraceStats::new(&jobs);
        let shares = s.type_shares();
        let count: f64 = shares.iter().map(|&(_, c, _)| c).sum();
        let time: f64 = shares.iter().map(|&(_, _, t)| t).sum();
        assert!((count - 1.0).abs() < 1e-12);
        assert!((time - 1.0).abs() < 1e-12);
        // Pretrain dominates GPU time here.
        let pre = shares
            .iter()
            .find(|&&(ty, _, _)| ty == JobType::Pretrain)
            .unwrap();
        assert!(pre.2 > 0.95);
    }

    #[test]
    fn status_shares_cover_all() {
        let jobs = tiny_trace();
        let s = TraceStats::new(&jobs);
        let shares = s.status_shares();
        assert_eq!(shares.len(), 3);
        let count: f64 = shares.iter().map(|&(_, c, _)| c).sum();
        assert!((count - 1.0).abs() < 1e-12);
        let canceled = shares
            .iter()
            .find(|&&(st, _, _)| st == JobStatus::Canceled)
            .unwrap();
        assert!(
            canceled.2 > 0.9,
            "the big canceled pretrain owns the GPU time"
        );
    }

    #[test]
    fn demand_cdfs_monotone_and_terminate_at_one() {
        let mut rng = SimRng::new(9);
        let w = WorkloadGenerator::kalos().generate(&mut rng, 30.0, 0);
        let s = TraceStats::new(&w.jobs);
        for cdf in [s.demand_count_cdf(), s.demand_gpu_time_cdf()] {
            for w in cdf.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12);
            }
            assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        // Figure 3's divergence: at ≤8 GPUs most of the *count* but almost
        // none of the *GPU time* is covered.
        let count_at_8 = s
            .demand_count_cdf()
            .iter()
            .find(|&&(g, _)| g == 8)
            .unwrap()
            .1;
        let time_at_8 = s
            .demand_gpu_time_cdf()
            .iter()
            .find(|&&(g, _)| g == 8)
            .unwrap()
            .1;
        assert!(count_at_8 > 0.9);
        assert!(time_at_8 < 0.05);
    }

    #[test]
    fn boxplots_reflect_demand_ordering() {
        let mut rng = SimRng::new(10);
        let boxes = WorkloadGenerator::kalos()
            .summarize(&mut rng, 30.0)
            .demand_boxplots();
        let get = |ty: JobType| {
            boxes
                .iter()
                .find(|&&(t, _)| t == ty)
                .map(|&(_, b)| b)
                .unwrap()
        };
        // Figure 5: pretrain demands ≫ evaluation demands.
        assert!(get(JobType::Pretrain).median >= 256.0);
        assert!(get(JobType::Evaluation).median <= 4.0);
        // Debug spans a wide range.
        assert!(get(JobType::Debug).iqr() > 4.0);
    }

    #[test]
    fn per_type_cdfs_skip_absent_types() {
        let jobs = tiny_trace();
        let durs = duration_cdf_by_type(&jobs);
        assert!(durs.iter().all(|(ty, _)| *ty != JobType::Sft));
        assert_eq!(durs.len(), 3);
        let delays = queue_delay_cdf_by_type(&jobs);
        assert_eq!(delays.len(), 3);
    }

    #[test]
    fn duration_cdf_median() {
        let c = duration_cdf(&tiny_trace());
        assert!((c.median() - 7.0).abs() < 1e-9); // between 4 and 10
    }

    #[test]
    fn merged_shards_agree_with_sequential_stream() {
        let mut rng = SimRng::new(22);
        let w = WorkloadGenerator::kalos().generate(&mut rng, 20.0, 0);
        let seq = TraceStats::new(&w.jobs);
        let mid = w.jobs.len() / 2;
        let mut left = TraceStats::new(&w.jobs[..mid]);
        left.merge(&TraceStats::new(&w.jobs[mid..]));
        assert_eq!(left.len(), seq.len());
        // Integer counters are exact across the merge.
        for (a, b) in left.status_shares().iter().zip(seq.status_shares()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        for (a, b) in left.type_shares().iter().zip(seq.type_shares()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        for (a, b) in left.demand_count_cdf().iter().zip(seq.demand_count_cdf()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Float sums reassociate across the shard boundary: equal up to
        // rounding, not bitwise.
        assert!((left.total_gpu_hours() - seq.total_gpu_hours()).abs() < 1e-6);
    }

    #[test]
    fn demand_count_cdf_is_the_filtered_count_over_n() {
        let mut rng = SimRng::new(23);
        let mut jobs = WorkloadGenerator::kalos().generate(&mut rng, 30.0, 0).jobs;
        // Past the last threshold: counted in n only.
        jobs.push(mk(
            jobs.len() as u64,
            JobType::Pretrain,
            4_097,
            60,
            JobStatus::Completed,
        ));
        let cdf = TraceStats::new(&jobs).demand_count_cdf();
        assert_eq!(cdf.len(), DEMAND_K);
        let n = jobs.len() as f64;
        for (k, &(threshold, share)) in cdf.iter().enumerate() {
            assert_eq!(threshold, 1 << k);
            let at_most = jobs.iter().filter(|j| j.gpus <= threshold).count();
            assert_eq!(
                share.to_bits(),
                (at_most as f64 / n).to_bits(),
                "2^{k} GPUs"
            );
        }
        assert!(cdf[DEMAND_K - 1].1 < 1.0);
    }

    #[test]
    fn empty_stream_stats() {
        let s = TraceStats::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
