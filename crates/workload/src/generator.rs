//! Calibrated Seren/Kalos workload generators.
//!
//! Each cluster is described by a set of per-type profiles — count weight,
//! GPU-demand distribution, duration distribution, and final-status mix —
//! whose parameters were solved so that the *expected* aggregates match the
//! paper's published numbers:
//!
//! * Kalos: evaluation = 92.9% of jobs but 0.8% of GPU time; pretraining =
//!   3.2% of jobs but 94.0% of GPU time; average request 26.8 GPUs; ≥256-GPU
//!   jobs take > 96% of GPU time (§3.1–3.2, Figures 3–5);
//! * Seren: pretraining = 0.9% of jobs, 69.5% of GPU time; SFT and MLLM
//!   appear only here; average request 5.7 GPUs;
//! * both: median job runtime ≈ 2 minutes (Figure 2a); ~40% of jobs fail
//!   using ~10% of resources, ~7% are canceled holding > 60% of resources
//!   (Figure 17).
//!
//! Durations are log-normal (median, mean) with a status-dependent
//! multiplier: failures cut runs short (errors strike early, §5), while
//! canceled jobs are disproportionately the long-running pretrains users
//! eventually stop (Appendix A.1).

use acme_sim_core::dist::{Categorical, Distribution, Exponential, LogNormal};
use acme_sim_core::{SimDuration, SimRng, SimTime};

use crate::job::{Cluster, JobRecord, JobStatus, JobType};

/// Calibration for one workload type in one cluster.
#[derive(Debug, Clone)]
pub struct TypeProfile {
    /// Workload category.
    pub job_type: JobType,
    /// Relative share of job count.
    pub count_weight: f64,
    /// `(gpus, weight)` demand buckets.
    pub demand: Vec<(u32, f64)>,
    /// Base runtime median, minutes.
    pub duration_median_mins: f64,
    /// Base runtime mean, minutes.
    pub duration_mean_mins: f64,
    /// `(completed, failed, canceled)` weights.
    pub status_weights: [f64; 3],
    /// Runtime multiplier per status, same order.
    pub status_duration_mult: [f64; 3],
}

impl TypeProfile {
    /// Expected GPUs requested per job.
    pub fn mean_gpus(&self) -> f64 {
        let total: f64 = self.demand.iter().map(|&(_, w)| w).sum();
        self.demand.iter().map(|&(g, w)| g as f64 * w / total).sum()
    }
}

/// A generated trace for one cluster.
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    /// Which cluster.
    pub cluster: Cluster,
    /// Jobs sorted by submission time.
    pub jobs: Vec<JobRecord>,
}

/// Samples a cluster's six-month job population.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    cluster: Cluster,
    profiles: Vec<TypeProfile>,
    jobs_per_day: f64,
}

impl WorkloadGenerator {
    /// The Kalos generator (§2.3: 20K GPU jobs over six months).
    pub fn kalos() -> Self {
        WorkloadGenerator {
            cluster: Cluster::Kalos,
            jobs_per_day: 110.0,
            profiles: vec![
                TypeProfile {
                    job_type: JobType::Evaluation,
                    count_weight: 92.9,
                    demand: vec![(1, 0.70), (2, 0.15), (4, 0.10), (8, 0.05)],
                    duration_median_mins: 1.5,
                    duration_mean_mins: 15.0,
                    status_weights: [0.57, 0.38, 0.05],
                    status_duration_mult: [1.0, 0.35, 3.0],
                },
                TypeProfile {
                    job_type: JobType::Pretrain,
                    count_weight: 3.2,
                    demand: vec![
                        (128, 0.05),
                        (256, 0.20),
                        (512, 0.35),
                        (1024, 0.30),
                        (2048, 0.10),
                    ],
                    duration_median_mins: 20.0,
                    duration_mean_mins: 73.0,
                    status_weights: [0.35, 0.30, 0.35],
                    status_duration_mult: [1.0, 0.40, 3.0],
                },
                TypeProfile {
                    job_type: JobType::Debug,
                    count_weight: 2.0,
                    demand: vec![(1, 0.30), (8, 0.30), (32, 0.20), (128, 0.15), (512, 0.05)],
                    duration_median_mins: 8.0,
                    duration_mean_mins: 91.0,
                    status_weights: [0.50, 0.40, 0.10],
                    status_duration_mult: [1.0, 0.50, 2.0],
                },
                TypeProfile {
                    job_type: JobType::Other,
                    count_weight: 1.9,
                    demand: vec![(8, 0.40), (32, 0.30), (128, 0.20), (256, 0.10)],
                    duration_median_mins: 5.0,
                    duration_mean_mins: 59.0,
                    status_weights: [0.55, 0.40, 0.05],
                    status_duration_mult: [1.0, 0.50, 2.0],
                },
            ],
        }
    }

    /// The Seren generator (§2.3: 664K GPU jobs over six months).
    pub fn seren() -> Self {
        WorkloadGenerator {
            cluster: Cluster::Seren,
            jobs_per_day: 3630.0,
            profiles: vec![
                TypeProfile {
                    job_type: JobType::Evaluation,
                    count_weight: 78.0,
                    demand: vec![(1, 0.70), (2, 0.15), (4, 0.10), (8, 0.05)],
                    duration_median_mins: 1.5,
                    duration_mean_mins: 15.0,
                    status_weights: [0.57, 0.38, 0.05],
                    status_duration_mult: [1.0, 0.35, 3.0],
                },
                TypeProfile {
                    job_type: JobType::Pretrain,
                    count_weight: 0.9,
                    demand: vec![
                        (64, 0.10),
                        (128, 0.25),
                        (256, 0.35),
                        (512, 0.25),
                        (1024, 0.05),
                    ],
                    duration_median_mins: 25.0,
                    duration_mean_mins: 81.0,
                    status_weights: [0.30, 0.30, 0.40],
                    status_duration_mult: [1.0, 0.40, 3.2],
                },
                TypeProfile {
                    job_type: JobType::Sft,
                    count_weight: 5.0,
                    demand: vec![(8, 0.50), (16, 0.30), (32, 0.20)],
                    duration_median_mins: 20.0,
                    duration_mean_mins: 60.0,
                    status_weights: [0.60, 0.35, 0.05],
                    status_duration_mult: [1.0, 0.35, 2.0],
                },
                TypeProfile {
                    job_type: JobType::Mllm,
                    count_weight: 4.0,
                    demand: vec![(1, 0.20), (8, 0.40), (16, 0.20), (32, 0.15), (64, 0.05)],
                    duration_median_mins: 10.0,
                    duration_mean_mins: 80.0,
                    status_weights: [0.50, 0.40, 0.10],
                    status_duration_mult: [1.0, 0.40, 2.0],
                },
                TypeProfile {
                    job_type: JobType::Debug,
                    count_weight: 9.0,
                    demand: vec![(1, 0.45), (4, 0.20), (8, 0.20), (32, 0.12), (128, 0.03)],
                    duration_median_mins: 5.0,
                    duration_mean_mins: 40.0,
                    status_weights: [0.50, 0.40, 0.10],
                    status_duration_mult: [1.0, 0.50, 2.0],
                },
                TypeProfile {
                    job_type: JobType::Other,
                    count_weight: 3.1,
                    demand: vec![(1, 0.50), (4, 0.25), (8, 0.25)],
                    duration_median_mins: 3.0,
                    duration_mean_mins: 30.0,
                    status_weights: [0.55, 0.40, 0.05],
                    status_duration_mult: [1.0, 0.50, 2.0],
                },
            ],
        }
    }

    /// The cluster this generator models.
    pub fn cluster(&self) -> Cluster {
        self.cluster
    }

    /// The per-type calibration table.
    pub fn profiles(&self) -> &[TypeProfile] {
        &self.profiles
    }

    /// Jobs submitted per day at calibration scale.
    pub fn jobs_per_day(&self) -> f64 {
        self.jobs_per_day
    }

    /// Generate a trace covering `days` of submissions, starting at `t = 0`.
    ///
    /// Arrivals follow a Poisson process at the calibrated rate; job ids
    /// start at `first_id`. Queue delays are zero — the scheduler simulation
    /// fills them in for Figure 6.
    ///
    /// This is exactly [`Self::stream`] collected: the closed-world trace
    /// is the materialization of the open-system arrival stream, drawing
    /// the same RNG values in the same order.
    pub fn generate(&self, rng: &mut SimRng, days: f64, first_id: u64) -> ClusterWorkload {
        ClusterWorkload {
            cluster: self.cluster,
            jobs: self.stream(rng, days, first_id).collect(),
        }
    }

    /// Lazily yield `days` of submissions one [`JobRecord`] at a time —
    /// the open-system view of the same process [`Self::generate`]
    /// materializes. The generator borrows `rng`, so sequential callers
    /// observe the identical post-stream RNG state the closed-world loop
    /// left behind.
    pub fn stream<'a>(
        &'a self,
        rng: &'a mut SimRng,
        days: f64,
        first_id: u64,
    ) -> StreamingGenerator<'a> {
        StreamingGenerator {
            generator: self,
            rng,
            horizon: SimDuration::from_secs_f64(days * 86_400.0),
            interarrival: Exponential::with_mean(86_400.0 / self.jobs_per_day),
            type_picker: Categorical::new(
                &self
                    .profiles
                    .iter()
                    .map(|p| p.count_weight)
                    .collect::<Vec<_>>(),
            ),
            samplers: self.profiles.iter().map(ProfileSampler::new).collect(),
            t: SimTime::ZERO,
            id: first_id,
            done: false,
        }
    }
}

/// A lazy open-system arrival stream over one cluster's calibrated
/// workload: each `next()` draws one Poisson inter-arrival gap and one
/// job's type/demand/status/duration, in the exact order the historical
/// closed-world loop drew them. Memory is O(1) in stream length, which is
/// what lets the fleet experiment push 10⁶⁺ jobs without materializing a
/// trace.
pub struct StreamingGenerator<'a> {
    generator: &'a WorkloadGenerator,
    rng: &'a mut SimRng,
    horizon: SimDuration,
    interarrival: Exponential,
    type_picker: Categorical,
    samplers: Vec<ProfileSampler>,
    t: SimTime,
    id: u64,
    done: bool,
}

impl StreamingGenerator<'_> {
    /// The id the next yielded job will carry.
    pub fn next_id(&self) -> u64 {
        self.id
    }
}

impl Iterator for StreamingGenerator<'_> {
    type Item = JobRecord;

    fn next(&mut self) -> Option<JobRecord> {
        if self.done {
            return None;
        }
        self.t += SimDuration::from_secs_f64(self.interarrival.sample(self.rng));
        if self.t.saturating_since(SimTime::ZERO) > self.horizon {
            self.done = true;
            return None;
        }
        let p = self.type_picker.sample_index(self.rng);
        let job = self.samplers[p].sample(
            self.generator.cluster,
            self.id,
            self.t,
            &self.generator.profiles[p],
            self.rng,
        );
        self.id += 1;
        Some(job)
    }
}

/// Cached samplers for one profile. `pub(crate)` so the fleet stream in
/// [`crate::stream`] can draw per-job attributes with the exact
/// closed-world draw order.
pub(crate) struct ProfileSampler {
    demand: Categorical,
    duration: LogNormal,
    status: Categorical,
}

impl ProfileSampler {
    pub(crate) fn new(p: &TypeProfile) -> Self {
        ProfileSampler {
            demand: Categorical::new(&p.demand.iter().map(|&(_, w)| w).collect::<Vec<_>>()),
            duration: LogNormal::from_median_mean(p.duration_median_mins, p.duration_mean_mins),
            status: Categorical::new(&p.status_weights),
        }
    }

    pub(crate) fn sample(
        &self,
        cluster: Cluster,
        id: u64,
        submit: SimTime,
        profile: &TypeProfile,
        rng: &mut SimRng,
    ) -> JobRecord {
        let gpus = profile.demand[self.demand.sample_index(rng)].0;
        let status_idx = self.status.sample_index(rng);
        let status = JobStatus::ALL[status_idx];
        let mins = self.duration.sample(rng) * profile.status_duration_mult[status_idx];
        // Floor at 5 simulated seconds: even instantly failing jobs occupy
        // the scheduler briefly.
        let duration = SimDuration::from_secs_f64((mins * 60.0).max(5.0));
        JobRecord {
            id,
            cluster,
            job_type: profile.job_type,
            submit,
            queue_delay: SimDuration::ZERO,
            duration,
            gpus,
            status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_gpu_seconds(jobs: &[JobRecord]) -> f64 {
        jobs.iter().map(|j| j.gpu_seconds()).sum()
    }

    fn share_of_count(jobs: &[JobRecord], ty: JobType) -> f64 {
        jobs.iter().filter(|j| j.job_type == ty).count() as f64 / jobs.len() as f64
    }

    fn share_of_time(jobs: &[JobRecord], ty: JobType) -> f64 {
        jobs.iter()
            .filter(|j| j.job_type == ty)
            .map(|j| j.gpu_seconds())
            .sum::<f64>()
            / total_gpu_seconds(jobs)
    }

    fn kalos_trace() -> ClusterWorkload {
        let mut rng = SimRng::new(42);
        WorkloadGenerator::kalos().generate(&mut rng, 183.0, 0)
    }

    fn seren_trace() -> ClusterWorkload {
        let mut rng = SimRng::new(43);
        // A month of Seren is ~110K jobs — plenty for distribution checks.
        WorkloadGenerator::seren().generate(&mut rng, 30.0, 0)
    }

    #[test]
    fn kalos_job_count_scale_matches_trace() {
        let w = kalos_trace();
        // §2.3: ~20K GPU jobs over six months.
        assert!(
            (15_000..25_000).contains(&w.jobs.len()),
            "n = {}",
            w.jobs.len()
        );
    }

    #[test]
    fn kalos_count_and_time_shares() {
        let w = kalos_trace();
        let eval_count = share_of_count(&w.jobs, JobType::Evaluation);
        let pre_count = share_of_count(&w.jobs, JobType::Pretrain);
        let eval_time = share_of_time(&w.jobs, JobType::Evaluation);
        let pre_time = share_of_time(&w.jobs, JobType::Pretrain);
        assert!(
            (eval_count - 0.929).abs() < 0.01,
            "eval count {eval_count:.3}"
        );
        assert!(
            (pre_count - 0.032).abs() < 0.006,
            "pretrain count {pre_count:.3}"
        );
        assert!(eval_time < 0.02, "eval time {eval_time:.4}");
        assert!(
            (0.88..0.97).contains(&pre_time),
            "pretrain time {pre_time:.3}"
        );
    }

    #[test]
    fn kalos_average_gpus_near_paper() {
        let w = kalos_trace();
        let avg = w.jobs.iter().map(|j| j.gpus as f64).sum::<f64>() / w.jobs.len() as f64;
        // Table 2: 26.8 average requested GPUs in Kalos.
        assert!((22.0..33.0).contains(&avg), "avg gpus {avg:.1}");
    }

    #[test]
    fn kalos_demand_skew_matches_fig3() {
        let w = kalos_trace();
        let total = total_gpu_seconds(&w.jobs);
        let single: f64 = w
            .jobs
            .iter()
            .filter(|j| j.gpus == 1)
            .map(|j| j.gpu_seconds())
            .sum();
        let large: f64 = w
            .jobs
            .iter()
            .filter(|j| j.gpus >= 256)
            .map(|j| j.gpu_seconds())
            .sum();
        // Single-GPU jobs: majority of count, < 2% of GPU time.
        let single_count =
            w.jobs.iter().filter(|j| j.gpus == 1).count() as f64 / w.jobs.len() as f64;
        assert!(
            single_count > 0.5,
            "single-GPU count share {single_count:.2}"
        );
        assert!(
            single / total < 0.02,
            "single-GPU time share {:.4}",
            single / total
        );
        // ≥256-GPU jobs dominate GPU time (paper: > 96%).
        assert!(
            large / total > 0.90,
            "large-job time share {:.3}",
            large / total
        );
        // < 7% of jobs request more than 8 GPUs.
        let over8 = w.jobs.iter().filter(|j| j.gpus > 8).count() as f64 / w.jobs.len() as f64;
        assert!(over8 < 0.08, "over-8 count share {over8:.3}");
    }

    #[test]
    fn median_duration_is_about_two_minutes() {
        for trace in [kalos_trace(), seren_trace()] {
            let mut durs: Vec<f64> = trace
                .jobs
                .iter()
                .map(|j| j.duration.as_mins_f64())
                .collect();
            durs.sort_by(|a, b| a.total_cmp(b));
            let med = durs[durs.len() / 2];
            assert!(
                (1.0..4.0).contains(&med),
                "{}: median {med:.2} min",
                trace.cluster.label()
            );
        }
    }

    #[test]
    fn seren_count_and_time_shares() {
        let w = seren_trace();
        let pre_count = share_of_count(&w.jobs, JobType::Pretrain);
        let pre_time = share_of_time(&w.jobs, JobType::Pretrain);
        assert!(
            (pre_count - 0.009).abs() < 0.003,
            "pretrain count {pre_count:.4}"
        );
        assert!(
            (0.60..0.78).contains(&pre_time),
            "pretrain time {pre_time:.3}"
        );
        // SFT and MLLM exist only in Seren.
        assert!(share_of_count(&w.jobs, JobType::Sft) > 0.02);
        assert!(share_of_count(&w.jobs, JobType::Mllm) > 0.02);
        let k = kalos_trace();
        assert_eq!(share_of_count(&k.jobs, JobType::Sft), 0.0);
        assert_eq!(share_of_count(&k.jobs, JobType::Mllm), 0.0);
    }

    #[test]
    fn figure17_status_breakdown() {
        for trace in [kalos_trace(), seren_trace()] {
            let jobs = &trace.jobs;
            let n = jobs.len() as f64;
            let total = total_gpu_seconds(jobs);
            let count = |s: JobStatus| jobs.iter().filter(|j| j.status == s).count() as f64 / n;
            let time = |s: JobStatus| {
                jobs.iter()
                    .filter(|j| j.status == s)
                    .map(|j| j.gpu_seconds())
                    .sum::<f64>()
                    / total
            };
            let name = trace.cluster.label();
            assert!(
                (0.30..0.46).contains(&count(JobStatus::Failed)),
                "{name} failed count {:.3}",
                count(JobStatus::Failed)
            );
            assert!(
                (0.03..0.12).contains(&count(JobStatus::Canceled)),
                "{name} canceled count {:.3}",
                count(JobStatus::Canceled)
            );
            assert!(
                time(JobStatus::Canceled) > 0.5,
                "{name} canceled resources {:.3}",
                time(JobStatus::Canceled)
            );
            assert!(
                (0.10..0.40).contains(&time(JobStatus::Completed)),
                "{name} completed resources {:.3}",
                time(JobStatus::Completed)
            );
            assert!(
                time(JobStatus::Failed) < 0.20,
                "{name} failed resources {:.3}",
                time(JobStatus::Failed)
            );
        }
    }

    #[test]
    fn arrivals_sorted_and_ids_sequential() {
        let w = kalos_trace();
        for pair in w.jobs.windows(2) {
            assert!(pair[1].submit >= pair[0].submit);
            assert_eq!(pair[1].id, pair[0].id + 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let a = WorkloadGenerator::kalos().generate(&mut r1, 10.0, 0);
        let b = WorkloadGenerator::kalos().generate(&mut r2, 10.0, 0);
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn stream_collect_equals_generate() {
        let g = WorkloadGenerator::seren();
        let mut r1 = SimRng::new(11);
        let mut r2 = SimRng::new(11);
        let closed = g.generate(&mut r1, 3.0, 50);
        let streamed: Vec<JobRecord> = g.stream(&mut r2, 3.0, 50).collect();
        assert_eq!(closed.jobs, streamed);
        // Parent RNG state advances identically (next draw agrees).
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn stream_is_lazy_and_fused() {
        let g = WorkloadGenerator::kalos();
        let mut rng = SimRng::new(5);
        let mut s = g.stream(&mut rng, 2.0, 0);
        assert_eq!(s.next_id(), 0);
        let first = s.next().unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(s.next_id(), 1);
        let rest: Vec<JobRecord> = s.by_ref().collect();
        assert!(!rest.is_empty());
        assert!(s.next().is_none(), "stays exhausted after the horizon");
        assert!(s.next().is_none());
    }

    #[test]
    fn mean_gpus_helper() {
        let g = WorkloadGenerator::kalos();
        let eval = g
            .profiles()
            .iter()
            .find(|p| p.job_type == JobType::Evaluation)
            .unwrap();
        assert!((eval.mean_gpus() - 1.8).abs() < 1e-9);
    }
}

/// A CPU-only job (§2.3: Seren carries 368K of them, Kalos 42K). The
/// paper's analysis "concentrates predominantly on GPU jobs", so these are
/// kept out of [`ClusterWorkload`] and generated separately — they matter
/// for the Table-2 job totals and for CPU-side metric jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuJobRecord {
    /// Unique id.
    pub id: u64,
    /// Which cluster.
    pub cluster: Cluster,
    /// Submission time.
    pub submit: SimTime,
    /// Runtime.
    pub duration: SimDuration,
    /// Logical CPUs requested.
    pub cpus: u32,
}

impl WorkloadGenerator {
    /// CPU jobs submitted per day at calibration scale.
    pub fn cpu_jobs_per_day(&self) -> f64 {
        match self.cluster {
            // 368K / 183 days and 42K / 183 days respectively.
            Cluster::Seren => 2_010.0,
            Cluster::Kalos => 230.0,
        }
    }

    /// Generate `days` of CPU-only jobs (data preprocessing, metric
    /// computation, tooling).
    pub fn generate_cpu(&self, rng: &mut SimRng, days: f64, first_id: u64) -> Vec<CpuJobRecord> {
        let horizon = SimDuration::from_secs_f64(days * 86_400.0);
        let interarrival = Exponential::with_mean(86_400.0 / self.cpu_jobs_per_day());
        let duration = LogNormal::from_median_mean(5.0, 45.0);
        let cpus = Categorical::new(&[0.45, 0.25, 0.2, 0.1]);
        const CPU_BUCKETS: [u32; 4] = [1, 4, 16, 64];
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let mut id = first_id;
        loop {
            t += SimDuration::from_secs_f64(interarrival.sample(rng));
            if t.saturating_since(SimTime::ZERO) > horizon {
                break;
            }
            out.push(CpuJobRecord {
                id,
                cluster: self.cluster,
                submit: t,
                duration: SimDuration::from_secs_f64((duration.sample(rng) * 60.0).max(1.0)),
                cpus: CPU_BUCKETS[cpus.sample_index(rng)],
            });
            id += 1;
        }
        out
    }
}

#[cfg(test)]
mod cpu_job_tests {
    use super::*;

    #[test]
    fn six_month_cpu_job_counts_match_section23() {
        let mut rng = SimRng::new(1);
        let seren = WorkloadGenerator::seren().generate_cpu(&mut rng, 183.0, 0);
        let kalos = WorkloadGenerator::kalos().generate_cpu(&mut rng, 183.0, 0);
        // §2.3: 368K and 42K CPU jobs.
        assert!(
            (330_000..410_000).contains(&seren.len()),
            "seren {}",
            seren.len()
        );
        assert!(
            (36_000..48_000).contains(&kalos.len()),
            "kalos {}",
            kalos.len()
        );
    }

    #[test]
    fn acme_total_job_count_matches_table2() {
        let mut rng = SimRng::new(2);
        let s = WorkloadGenerator::seren();
        let k = WorkloadGenerator::kalos();
        let total = s.generate(&mut rng, 183.0, 0).jobs.len()
            + s.generate_cpu(&mut rng, 183.0, 0).len()
            + k.generate(&mut rng, 183.0, 0).jobs.len()
            + k.generate_cpu(&mut rng, 183.0, 0).len();
        // Table 2: ~1.09M jobs across Acme.
        assert!((950_000..1_250_000).contains(&total), "total {total}");
    }

    #[test]
    fn cpu_jobs_are_modest_and_sorted() {
        let mut rng = SimRng::new(3);
        let jobs = WorkloadGenerator::kalos().generate_cpu(&mut rng, 30.0, 100);
        assert!(jobs.iter().all(|j| j.cpus <= 64 && j.cpus >= 1));
        for w in jobs.windows(2) {
            assert!(w[1].submit >= w[0].submit);
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }
}
