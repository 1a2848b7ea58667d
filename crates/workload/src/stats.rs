//! Trace aggregation: the numbers behind Figures 3, 4, 5, 6 and 17.
//!
//! Two layers. [`StreamTraceStats`] is a bounded-memory accumulator —
//! fixed-size per-type/per-status/per-demand-bucket counters plus an
//! optional duration sketch — that jobs are `push`ed into one at a time
//! and shards `merge` together; it never retains a job. [`TraceStats`]
//! wraps a materialized slice (the closed-world figures need per-type
//! sample vectors for boxplots and CDFs) and delegates every aggregate
//! table to an internal `StreamTraceStats` built by pushing the slice in
//! job order — each accumulator then receives exactly the additions the
//! historical per-figure passes performed, in the same order, keeping the
//! floating-point output bit-identical.

use acme_telemetry::{BoxplotStats, Cdf, QuantileSketch};

use crate::job::{JobRecord, JobStatus, JobType};

/// Power-of-two GPU-demand thresholds 1..4096 (Figure 3's x-axis).
const DEMAND_K: usize = 13;

/// Bounded-memory aggregate statistics over a job stream (see module
/// docs). `push` jobs in, `merge` shards together, read the Figure 3/4/17
/// tables out — memory is O(1) in stream length (plus the optional
/// duration sketch).
#[derive(Debug, Clone)]
pub struct StreamTraceStats {
    jobs: usize,
    gpus_sum: f64,
    total_gpu_seconds: f64,
    type_counts: [usize; JobType::ALL.len()],
    type_gpu_secs: [f64; JobType::ALL.len()],
    status_counts: [usize; JobStatus::ALL.len()],
    status_gpu_secs: [f64; JobStatus::ALL.len()],
    demand_count_sums: [f64; DEMAND_K],
    demand_count_total: f64,
    demand_time_sums: [f64; DEMAND_K],
    demand_time_total: f64,
    duration_sketch: Option<QuantileSketch>,
}

impl Default for StreamTraceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamTraceStats {
    /// An empty accumulator with no duration sketch.
    pub fn new() -> Self {
        StreamTraceStats {
            jobs: 0,
            gpus_sum: 0.0,
            total_gpu_seconds: 0.0,
            type_counts: [0; JobType::ALL.len()],
            type_gpu_secs: [0.0; JobType::ALL.len()],
            status_counts: [0; JobStatus::ALL.len()],
            status_gpu_secs: [0.0; JobStatus::ALL.len()],
            demand_count_sums: [0.0; DEMAND_K],
            demand_count_total: 0.0,
            demand_time_sums: [0.0; DEMAND_K],
            demand_time_total: 0.0,
            duration_sketch: None,
        }
    }

    /// An empty accumulator that additionally sketches job durations
    /// (minutes) at per-level capacity `k`, for quantile reporting over
    /// streams too large to materialize.
    pub fn with_duration_sketch(k: usize) -> Self {
        let mut s = Self::new();
        s.duration_sketch = Some(QuantileSketch::with_capacity(k));
        s
    }

    /// Fold one job into every aggregate.
    pub fn push(&mut self, j: &JobRecord) {
        self.jobs += 1;
        self.gpus_sum += f64::from(j.gpus);
        let gs = j.gpu_seconds();
        self.total_gpu_seconds += gs;

        let ti = JobType::ALL
            .iter()
            .position(|&t| t == j.job_type)
            .expect("type outside JobType::ALL");
        self.type_counts[ti] += 1;
        self.type_gpu_secs[ti] += gs;

        let si = JobStatus::ALL
            .iter()
            .position(|&s| s == j.status)
            .expect("status outside JobStatus::ALL");
        self.status_counts[si] += 1;
        self.status_gpu_secs[si] += gs;

        // Smallest k with 2^k ≥ gpus (jobs over 4096 GPUs fall past the
        // last threshold and contribute only to the totals).
        let k = if j.gpus <= 1 {
            0
        } else {
            (32 - (j.gpus - 1).leading_zeros()) as usize
        };
        self.demand_count_total += 1.0;
        self.demand_time_total += gs;
        if k < DEMAND_K {
            for s in &mut self.demand_count_sums[k..] {
                *s += 1.0;
            }
            for s in &mut self.demand_time_sums[k..] {
                *s += gs;
            }
        }

        if let Some(sketch) = &mut self.duration_sketch {
            sketch.insert(j.duration.as_mins_f64());
        }
    }

    /// Release slack sketch capacity (see
    /// [`QuantileSketch::shrink_to_fit`]). No-op without a sketch.
    pub fn shrink_to_fit(&mut self) {
        if let Some(sketch) = &mut self.duration_sketch {
            sketch.shrink_to_fit();
        }
    }

    /// Combine another shard's aggregates into this one. Counters add;
    /// sketches merge. Deterministic for a fixed merge order (float sums
    /// reassociate across shard boundaries, so merged totals are equal to
    /// sequential pushes up to rounding, not bit-identical — the fleet
    /// experiment always merges in shard order).
    ///
    /// # Panics
    /// Panics when exactly one side carries a duration sketch.
    pub fn merge(&mut self, other: &StreamTraceStats) {
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
            self.demand_count_sums[k] += other.demand_count_sums[k];
            self.demand_time_sums[k] += other.demand_time_sums[k];
        }
        self.demand_count_total += other.demand_count_total;
        self.demand_time_total += other.demand_time_total;
        match (&mut self.duration_sketch, &other.duration_sketch) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("cannot merge stats with and without a duration sketch"),
        }
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
    /// power-of-two GPU demand.
    pub fn demand_count_cdf(&self) -> Vec<(u32, f64)> {
        (0..DEMAND_K)
            .map(|k| {
                (
                    1u32 << k,
                    self.demand_count_sums[k] / self.demand_count_total,
                )
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

    /// The duration sketch (minutes), when this accumulator carries one.
    pub fn duration_sketch(&self) -> Option<&QuantileSketch> {
        self.duration_sketch.as_ref()
    }
}

/// Aggregate statistics over a job trace.
#[derive(Debug)]
pub struct TraceStats<'a> {
    jobs: &'a [JobRecord],
    agg: StreamTraceStats,
}

impl<'a> TraceStats<'a> {
    /// Wrap a trace.
    ///
    /// # Panics
    /// Panics on an empty trace — every consumer needs at least one job.
    pub fn new(jobs: &'a [JobRecord]) -> Self {
        assert!(!jobs.is_empty(), "empty trace");
        let mut agg = StreamTraceStats::new();
        for j in jobs {
            agg.push(j);
        }
        TraceStats { jobs, agg }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Never true (construction rejects empty traces).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total GPU time in GPU-hours.
    pub fn total_gpu_hours(&self) -> f64 {
        self.agg.total_gpu_hours()
    }

    /// Average requested GPUs per job.
    pub fn avg_gpus(&self) -> f64 {
        self.agg.avg_gpus()
    }

    /// CDF of job runtimes in minutes (Figure 2a / 6a).
    pub fn duration_cdf(&self) -> Cdf {
        Cdf::from_samples(self.jobs.iter().map(|j| j.duration.as_mins_f64()).collect()).unwrap()
    }

    /// `(type, count_share, gpu_time_share)` rows — Figure 4. Types absent
    /// from the trace are omitted. Each type's accumulator received
    /// exactly the additions the historical per-type map made, in job
    /// order, so shares are bit-identical to the materialized original.
    pub fn type_shares(&self) -> Vec<(JobType, f64, f64)> {
        self.agg.type_shares()
    }

    /// `(status, count_share, gpu_time_share)` rows — Figure 17.
    pub fn status_shares(&self) -> Vec<(JobStatus, f64, f64)> {
        self.agg.status_shares()
    }

    /// Per-type GPU-demand box plots — Figure 5.
    pub fn demand_boxplots(&self) -> Vec<(JobType, BoxplotStats)> {
        JobType::ALL
            .iter()
            .zip(self.partition_by_type(|j| j.gpus as f64))
            .filter_map(|(&ty, demands)| BoxplotStats::from_samples(demands).map(|b| (ty, b)))
            .collect()
    }

    /// One pass splitting `f(job)` into per-type sample vectors, ordered
    /// as `JobType::ALL`; job order within each type is trace order, the
    /// same order the per-type filter passes produced.
    fn partition_by_type(&self, f: impl Fn(&JobRecord) -> f64) -> Vec<Vec<f64>> {
        let mut per: Vec<Vec<f64>> = (0..JobType::ALL.len()).map(|_| Vec::new()).collect();
        for j in self.jobs {
            let i = JobType::ALL
                .iter()
                .position(|&t| t == j.job_type)
                .expect("type outside JobType::ALL");
            per[i].push(f(j));
        }
        per
    }

    /// Figure 3(a): cumulative fraction of *job count* for jobs requesting
    /// ≤ each power-of-two GPU demand. The streaming accumulator scattered
    /// each job's weight into every threshold ≥ its demand, in job order —
    /// exactly the additions the original 13 filtered passes performed,
    /// so results are bit-identical.
    pub fn demand_count_cdf(&self) -> Vec<(u32, f64)> {
        self.agg.demand_count_cdf()
    }

    /// Figure 3(b): cumulative fraction of *GPU time* for jobs requesting
    /// ≤ each power-of-two GPU demand.
    pub fn demand_gpu_time_cdf(&self) -> Vec<(u32, f64)> {
        self.agg.demand_gpu_time_cdf()
    }

    /// Per-type duration CDFs in minutes — Figure 6(a/c).
    pub fn duration_cdf_by_type(&self) -> Vec<(JobType, Cdf)> {
        self.per_type_cdf(|j| j.duration.as_mins_f64())
    }

    /// Per-type queue-delay CDFs in minutes — Figure 6(b/d).
    pub fn queue_delay_cdf_by_type(&self) -> Vec<(JobType, Cdf)> {
        self.per_type_cdf(|j| j.queue_delay.as_mins_f64())
    }

    fn per_type_cdf(&self, f: impl Fn(&JobRecord) -> f64) -> Vec<(JobType, Cdf)> {
        JobType::ALL
            .iter()
            .zip(self.partition_by_type(f))
            .filter_map(|(&ty, xs)| Cdf::from_samples(xs).map(|c| (ty, c)))
            .collect()
    }
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
        let w = WorkloadGenerator::kalos().generate(&mut rng, 30.0, 0);
        let s = TraceStats::new(&w.jobs);
        let boxes = s.demand_boxplots();
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
        let s = TraceStats::new(&jobs);
        let durs = s.duration_cdf_by_type();
        assert!(durs.iter().all(|(ty, _)| *ty != JobType::Sft));
        assert_eq!(durs.len(), 3);
        let delays = s.queue_delay_cdf_by_type();
        assert_eq!(delays.len(), 3);
    }

    #[test]
    fn duration_cdf_median() {
        let jobs = tiny_trace();
        let s = TraceStats::new(&jobs);
        let c = s.duration_cdf();
        assert!((c.median() - 7.0).abs() < 1e-9); // between 4 and 10
    }

    #[test]
    fn streaming_push_matches_trace_stats_bitwise() {
        let mut rng = SimRng::new(21);
        let w = WorkloadGenerator::seren().generate(&mut rng, 5.0, 0);
        let trace = TraceStats::new(&w.jobs);
        let mut stream = StreamTraceStats::new();
        for j in &w.jobs {
            stream.push(j);
        }
        assert_eq!(stream.len(), trace.len());
        assert_eq!(stream.avg_gpus().to_bits(), trace.avg_gpus().to_bits());
        assert_eq!(
            stream.total_gpu_hours().to_bits(),
            trace.total_gpu_hours().to_bits()
        );
        for (a, b) in stream.type_shares().iter().zip(trace.type_shares()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        for (a, b) in stream
            .demand_count_cdf()
            .iter()
            .zip(trace.demand_count_cdf())
        {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn merged_shards_agree_with_sequential_stream() {
        let mut rng = SimRng::new(22);
        let w = WorkloadGenerator::kalos().generate(&mut rng, 20.0, 0);
        let mut seq = StreamTraceStats::with_duration_sketch(256);
        for j in &w.jobs {
            seq.push(j);
        }
        let mid = w.jobs.len() / 2;
        let mut left = StreamTraceStats::with_duration_sketch(256);
        let mut right = StreamTraceStats::with_duration_sketch(256);
        for j in &w.jobs[..mid] {
            left.push(j);
        }
        for j in &w.jobs[mid..] {
            right.push(j);
        }
        left.merge(&right);
        assert_eq!(left.len(), seq.len());
        // Integer counters are exact across the merge.
        for (a, b) in left.status_shares().iter().zip(seq.status_shares()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
        // Float sums reassociate across the shard boundary: equal up to
        // rounding, not bitwise.
        assert!((left.total_gpu_hours() - seq.total_gpu_hours()).abs() < 1e-6);
        // Sketch survives the merge with the full population.
        let sk = left.duration_sketch().unwrap();
        assert_eq!(sk.count(), w.jobs.len() as u64);
        assert_eq!(sk.min(), seq.duration_sketch().unwrap().min());
    }

    #[test]
    fn empty_stream_stats() {
        let s = StreamTraceStats::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.duration_sketch().is_none());
    }

    #[test]
    #[should_panic(expected = "with and without a duration sketch")]
    fn merge_rejects_sketch_mismatch() {
        let mut a = StreamTraceStats::new();
        a.merge(&StreamTraceStats::with_duration_sketch(64));
    }
}
