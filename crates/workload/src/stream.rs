//! Open-system fleet workload: multi-tenant, multi-cluster job arrivals
//! as a sharded lazy stream.
//!
//! The closed-world generators model one cluster at calibration scale and
//! materialize the trace. This module models what the paper's §2.1
//! deployment actually serves — the *fleet*: both clusters side by side,
//! hundreds of tenants with Zipf-skewed activity, and diurnally bursty
//! arrivals — at job counts (10⁶–10⁷) where materializing is off the
//! table. Three design rules keep it deterministic and parallel:
//!
//! * **Sharding by arrival index, not time.** The stream is cut into
//!   fixed-size runs of consecutive arrivals ([`FleetConfig::shard_jobs`]
//!   apiece). Shard `i` seeds its own RNG as
//!   `SimRng::new(seed).fork(i + 1)` — a pure function of `(seed, i)` — so
//!   any worker can produce any shard independently and the work-stealing
//!   pool's schedule cannot leak into the output.
//! * **Thinned Poisson arrivals.** Candidates arrive at the peak rate
//!   `λ̄·(1 + amp)`; each is accepted with probability
//!   `rate(t)/λmax` where `rate(t) = λ̄·(1 + amp·sin(2πt/day))` — the
//!   standard acceptance–rejection construction of an inhomogeneous
//!   Poisson process, two RNG draws per candidate, no inverse integrals.
//! * **Per-job attribute draws reuse the closed-world samplers.** After
//!   tenant and cluster are chosen, type/demand/status/duration come from
//!   the exact `ProfileSampler` sequence `WorkloadGenerator::generate`
//!   uses, so fleet jobs are distributionally the same population the
//!   calibrated figures were validated against.
//!
//! Shard clocks start at `lo · mean_gap` (the expected submit time of
//! arrival `lo`), so shard boundaries introduce a seam in absolute time
//! but leave every aggregate this module reports — tenant shares,
//! hour-of-day burst profile, inter-arrival quantiles, per-type tables —
//! statistically untouched.

use acme_sim_core::dist::{Categorical, Distribution, Exponential, Zipf};
use acme_sim_core::{SimRng, SimTime};
use acme_telemetry::QuantileSketch;

use crate::generator::{ProfileSampler, WorkloadGenerator};
use crate::job::JobRecord;
use crate::stats::StreamTraceStats;

/// Configuration for a fleet-scale open-system run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Base RNG seed; shard `i` derives its stream from `(seed, i)`.
    pub seed: u64,
    /// Total jobs across the whole run.
    pub jobs: u64,
    /// Number of tenants sharing the fleet.
    pub tenants: usize,
    /// Zipf exponent for tenant activity skew.
    pub zipf_s: f64,
    /// Diurnal burst amplitude in `[0, 1)`: arrival rate swings between
    /// `λ̄·(1−amp)` and `λ̄·(1+amp)` over each simulated day.
    pub burst_amp: f64,
    /// Arrivals per shard; `0` picks a default that keeps shard count
    /// (and therefore merged-state memory) small at any scale.
    pub shard_jobs: u64,
}

impl FleetConfig {
    /// The default fleet: 10⁶ jobs, 512 tenants, `s = 1.1` skew, ±60%
    /// diurnal swing, auto shard size.
    pub fn new(seed: u64) -> Self {
        FleetConfig {
            seed,
            jobs: 1_000_000,
            tenants: 512,
            zipf_s: 1.1,
            burst_amp: 0.6,
            shard_jobs: 0,
        }
    }

    /// This config with a different total job count.
    pub fn with_jobs(mut self, jobs: u64) -> Self {
        self.jobs = jobs;
        self
    }

    /// Effective arrivals per shard (resolves the `0` default: at least
    /// 64 Ki arrivals so tiny shards never dominate, at most 64 shards so
    /// merged per-shard state stays O(1) in `jobs`).
    pub fn shard_jobs(&self) -> u64 {
        if self.shard_jobs > 0 {
            self.shard_jobs
        } else {
            (self.jobs / 64).max(65_536)
        }
    }

    /// Number of shards covering [`Self::jobs`].
    pub fn shard_count(&self) -> usize {
        if self.jobs == 0 {
            0
        } else {
            (self.jobs.div_ceil(self.shard_jobs())) as usize
        }
    }

    /// Global arrival-index range `[lo, hi)` of shard `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn shard_range(&self, i: usize) -> (u64, u64) {
        assert!(i < self.shard_count(), "shard {i} out of range");
        let lo = i as u64 * self.shard_jobs();
        (lo, (lo + self.shard_jobs()).min(self.jobs))
    }

    /// Mean arrival rate in jobs/day: both clusters' calibrated rates
    /// combined (§2.3: Seren 3630 + Kalos 110).
    pub fn jobs_per_day(&self) -> f64 {
        WorkloadGenerator::seren().jobs_per_day() + WorkloadGenerator::kalos().jobs_per_day()
    }

    /// Simulated days the whole run spans in expectation.
    pub fn expected_days(&self) -> f64 {
        self.jobs as f64 / self.jobs_per_day()
    }
}

/// One fleet arrival: a [`JobRecord`] plus the tenant that submitted it.
/// Tenants are identified by Zipf rank, so tenant `0` is the fleet's
/// heaviest user everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Submitting tenant (Zipf rank, 0 = most active).
    pub tenant: u32,
    /// The job itself; `id` is the global arrival index.
    pub job: JobRecord,
}

/// Per-cluster sampling state reused from the closed-world generators.
struct ClusterArm {
    generator: WorkloadGenerator,
    type_picker: Categorical,
    samplers: Vec<ProfileSampler>,
}

impl ClusterArm {
    fn new(generator: WorkloadGenerator) -> Self {
        let weights: Vec<f64> = generator
            .profiles()
            .iter()
            .map(|p| p.count_weight)
            .collect();
        ClusterArm {
            type_picker: Categorical::new(&weights),
            samplers: generator
                .profiles()
                .iter()
                .map(ProfileSampler::new)
                .collect(),
            generator,
        }
    }
}

/// The lazy arrival stream of one fleet shard: yields exactly
/// `hi − lo` [`FleetJob`]s, O(1) memory, pure function of
/// `(config, shard index)`.
pub struct FleetStream {
    rng: SimRng,
    candidate_gap: Exponential,
    burst_amp: f64,
    zipf: Zipf,
    cluster_picker: Categorical,
    arms: [ClusterArm; 2],
    t_secs: f64,
    next_id: u64,
    remaining: u64,
    candidates: u64,
}

impl FleetStream {
    /// The stream for shard `i` of `config`.
    ///
    /// # Panics
    /// Panics when `i` is out of range or `burst_amp` is outside `[0, 1)`.
    pub fn shard(config: &FleetConfig, i: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&config.burst_amp),
            "burst_amp must be in [0, 1), got {}",
            config.burst_amp
        );
        let (lo, hi) = config.shard_range(i);
        let seren = WorkloadGenerator::seren();
        let kalos = WorkloadGenerator::kalos();
        let combined_per_day = seren.jobs_per_day() + kalos.jobs_per_day();
        let peak_rate = combined_per_day * (1.0 + config.burst_amp) / 86_400.0;
        FleetStream {
            rng: SimRng::new(config.seed).fork(i as u64 + 1),
            candidate_gap: Exponential::with_mean(1.0 / peak_rate),
            burst_amp: config.burst_amp,
            zipf: Zipf::new(config.tenants, config.zipf_s),
            cluster_picker: Categorical::new(&[seren.jobs_per_day(), kalos.jobs_per_day()]),
            arms: [ClusterArm::new(seren), ClusterArm::new(kalos)],
            t_secs: lo as f64 * 86_400.0 / combined_per_day,
            next_id: lo,
            remaining: hi - lo,
            candidates: 0,
        }
    }

    /// Thinned-Poisson candidates drawn so far (accepted + rejected) —
    /// the acceptance ratio is `yielded / candidates`.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }
}

impl Iterator for FleetStream {
    type Item = FleetJob;

    fn next(&mut self) -> Option<FleetJob> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Acceptance–rejection thinning: candidates at the peak rate,
        // accepted with rate(t)/λmax.
        loop {
            self.candidates += 1;
            self.t_secs += self.candidate_gap.sample(&mut self.rng);
            let phase = std::f64::consts::TAU * (self.t_secs / 86_400.0);
            let accept = (1.0 + self.burst_amp * phase.sin()) / (1.0 + self.burst_amp);
            if self.rng.f64() < accept {
                break;
            }
        }
        let tenant = self.zipf.sample_index(&mut self.rng) as u32;
        let arm = &self.arms[self.cluster_picker.sample_index(&mut self.rng)];
        let p = arm.type_picker.sample_index(&mut self.rng);
        let job = arm.samplers[p].sample(
            arm.generator.cluster(),
            self.next_id,
            SimTime::from_secs_f64(self.t_secs),
            &arm.generator.profiles()[p],
            &mut self.rng,
        );
        self.next_id += 1;
        Some(FleetJob { tenant, job })
    }
}

/// Bounded-memory aggregates of one fleet shard (mergeable across
/// shards): the full [`StreamTraceStats`] table set plus tenant-skew
/// counters, an hour-of-day arrival profile, an inter-arrival sketch, and
/// the thinning acceptance ratio.
#[derive(Debug, Clone)]
pub struct FleetShardStats {
    /// Per-type / per-status / per-demand aggregate tables, with a
    /// duration sketch.
    pub trace: StreamTraceStats,
    /// Jobs submitted per tenant rank.
    pub tenant_jobs: Vec<u64>,
    /// GPU-seconds consumed per tenant rank.
    pub tenant_gpu_secs: Vec<f64>,
    /// Accepted arrivals per hour of day (0–23).
    pub hourly_arrivals: [u64; 24],
    /// Sketch of inter-arrival gaps between consecutive accepted jobs in
    /// this shard, seconds.
    pub gap_sketch: QuantileSketch,
    /// Thinned-Poisson candidates drawn (accepted + rejected).
    pub candidates: u64,
    last_submit_secs: Option<f64>,
}

/// Sketch capacity for per-shard duration/gap sketches: 64 shards × two
/// sketches × k=1024 stays a few MiB merged.
const FLEET_SKETCH_K: usize = 1024;

impl FleetShardStats {
    /// Empty aggregates for a fleet with `tenants` tenants.
    pub fn new(tenants: usize) -> Self {
        FleetShardStats {
            trace: StreamTraceStats::with_duration_sketch(FLEET_SKETCH_K),
            tenant_jobs: vec![0; tenants],
            tenant_gpu_secs: vec![0.0; tenants],
            hourly_arrivals: [0; 24],
            gap_sketch: QuantileSketch::with_capacity(FLEET_SKETCH_K),
            candidates: 0,
            last_submit_secs: None,
        }
    }

    /// Fold one arrival into every aggregate.
    pub fn push(&mut self, fj: &FleetJob) {
        self.trace.push(&fj.job);
        let tenant = fj.tenant as usize;
        self.tenant_jobs[tenant] += 1;
        self.tenant_gpu_secs[tenant] += fj.job.gpu_seconds();
        let submit_secs = fj.job.submit.as_secs_f64();
        let hour = ((submit_secs / 3600.0) as u64 % 24) as usize;
        self.hourly_arrivals[hour] += 1;
        if let Some(prev) = self.last_submit_secs {
            self.gap_sketch.insert(submit_secs - prev);
        }
        self.last_submit_secs = Some(submit_secs);
    }

    /// Run shard `i` of `config` to completion and return its aggregates.
    /// This is the unit of work the experiment hands to the shard pool.
    pub fn collect(config: &FleetConfig, i: usize) -> Self {
        let mut stream = FleetStream::shard(config, i);
        let mut stats = FleetShardStats::new(config.tenants);
        for fj in &mut stream {
            stats.push(&fj);
        }
        stats.candidates = stream.candidates();
        // This result will sit in the shard pool's buffer until every
        // shard lands; drop the sketches' slack capacity so 64 buffered
        // shards cost retained items, not high-water marks.
        stats.trace.shrink_to_fit();
        stats.gap_sketch.shrink_to_fit();
        stats
    }

    /// Merge another shard's aggregates (shard-order merges keep the
    /// result deterministic).
    ///
    /// # Panics
    /// Panics on tenant-count mismatch.
    pub fn merge(&mut self, other: &FleetShardStats) {
        assert_eq!(
            self.tenant_jobs.len(),
            other.tenant_jobs.len(),
            "tenant count mismatch"
        );
        self.trace.merge(&other.trace);
        for (a, b) in self.tenant_jobs.iter_mut().zip(&other.tenant_jobs) {
            *a += b;
        }
        for (a, b) in self.tenant_gpu_secs.iter_mut().zip(&other.tenant_gpu_secs) {
            *a += b;
        }
        for (a, b) in self.hourly_arrivals.iter_mut().zip(&other.hourly_arrivals) {
            *a += b;
        }
        self.gap_sketch.merge(&other.gap_sketch);
        self.candidates += other.candidates;
        self.last_submit_secs = None;
    }

    /// Fraction of all jobs submitted by the `n` most active tenant ranks.
    pub fn top_tenant_job_share(&self, n: usize) -> f64 {
        let top: u64 = self.tenant_jobs.iter().take(n).sum();
        top as f64 / self.trace.len() as f64
    }

    /// Fraction of all GPU time consumed by the `n` most active tenant
    /// ranks.
    pub fn top_tenant_time_share(&self, n: usize) -> f64 {
        let top: f64 = self.tenant_gpu_secs.iter().take(n).sum();
        top / self.trace.total_gpu_seconds()
    }

    /// Number of tenant ranks that submitted at least one job.
    pub fn active_tenants(&self) -> usize {
        self.tenant_jobs.iter().filter(|&&n| n > 0).count()
    }

    /// Peak-hour arrivals over mean-hour arrivals — the burstiness the
    /// diurnal modulation induces (1.0 = flat).
    pub fn burst_ratio(&self) -> f64 {
        let peak = *self.hourly_arrivals.iter().max().expect("24 buckets") as f64;
        let mean = self.hourly_arrivals.iter().sum::<u64>() as f64 / 24.0;
        peak / mean
    }

    /// Accepted arrivals / thinned-Poisson candidates.
    pub fn acceptance_ratio(&self) -> f64 {
        self.trace.len() as f64 / self.candidates as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            jobs: 30_000,
            shard_jobs: 10_000,
            ..FleetConfig::new(42)
        }
    }

    #[test]
    fn shard_ranges_tile_the_run() {
        let c = small();
        assert_eq!(c.shard_count(), 3);
        let mut expect = 0;
        for i in 0..c.shard_count() {
            let (lo, hi) = c.shard_range(i);
            assert_eq!(lo, expect);
            assert!(hi > lo);
            expect = hi;
        }
        assert_eq!(expect, c.jobs);
        // The auto shard size caps shard count at 64 regardless of scale.
        let big = FleetConfig::new(1).with_jobs(50_000_000);
        assert!(big.shard_count() <= 64);
        assert_eq!(FleetConfig::new(1).with_jobs(0).shard_count(), 0);
    }

    #[test]
    fn shards_yield_exact_counts_with_global_ids() {
        let c = small();
        let mut next_id = 0u64;
        for i in 0..c.shard_count() {
            let (lo, hi) = c.shard_range(i);
            let jobs: Vec<FleetJob> = FleetStream::shard(&c, i).collect();
            assert_eq!(jobs.len(), (hi - lo) as usize);
            for (k, fj) in jobs.iter().enumerate() {
                assert_eq!(fj.job.id, lo + k as u64, "global arrival index");
                assert!((fj.tenant as usize) < c.tenants);
            }
            assert_eq!(jobs[0].job.id, next_id);
            next_id = hi;
        }
    }

    #[test]
    fn arrivals_are_increasing_within_a_shard() {
        let c = small();
        let jobs: Vec<FleetJob> = FleetStream::shard(&c, 1).collect();
        for pair in jobs.windows(2) {
            assert!(pair[1].job.submit > pair[0].job.submit);
        }
        // Shard 1's clock starts at its expected offset, not zero.
        assert!(jobs[0].job.submit.as_secs_f64() > 86_400.0);
    }

    #[test]
    fn shards_are_pure_functions_of_seed_and_index() {
        let c = small();
        let a: Vec<FleetJob> = FleetStream::shard(&c, 2).collect();
        let b: Vec<FleetJob> = FleetStream::shard(&c, 2).collect();
        assert_eq!(a, b);
        let other_seed: Vec<FleetJob> =
            FleetStream::shard(&FleetConfig { seed: 7, ..small() }, 2).collect();
        assert_ne!(a, other_seed);
    }

    #[test]
    fn tenant_skew_is_zipf_like() {
        let c = small();
        let stats = FleetShardStats::collect(&c, 0);
        // Rank 0 is the heaviest tenant, and the head dominates.
        let top = stats.tenant_jobs[0];
        assert!(stats.tenant_jobs.iter().all(|&n| n <= top));
        assert!(stats.top_tenant_job_share(10) > 0.2);
        assert!(stats.top_tenant_job_share(c.tenants) > 0.999);
        assert!(stats.active_tenants() > c.tenants / 2);
    }

    #[test]
    fn diurnal_bursts_show_up_and_flatten_without_amplitude() {
        let c = small();
        let bursty = FleetShardStats::collect(&c, 0);
        assert!(bursty.burst_ratio() > 1.2, "ratio {}", bursty.burst_ratio());
        // Thinning accepts ~1/(1+amp) of candidates on average (biased a
        // little high here: the shard spans 2.7 days, so the sinusoid's
        // leading positive half-day is over-represented).
        let expected = 1.0 / (1.0 + c.burst_amp);
        assert!((bursty.acceptance_ratio() - expected).abs() < 0.08);

        // Flat control over a whole number of expected days, so hour
        // buckets see equal coverage and only Poisson noise remains.
        let flat_cfg = FleetConfig {
            burst_amp: 0.0,
            jobs: 4 * 3_740,
            shard_jobs: 4 * 3_740,
            ..FleetConfig::new(42)
        };
        let flat = FleetShardStats::collect(&flat_cfg, 0);
        assert!(flat.burst_ratio() < 1.15, "ratio {}", flat.burst_ratio());
        assert!(flat.burst_ratio() < bursty.burst_ratio());
        assert!((flat.acceptance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_shards_cover_the_whole_run() {
        let c = small();
        let mut merged = FleetShardStats::new(c.tenants);
        for i in 0..c.shard_count() {
            merged.merge(&FleetShardStats::collect(&c, i));
        }
        assert_eq!(merged.trace.len() as u64, c.jobs);
        assert_eq!(merged.hourly_arrivals.iter().sum::<u64>(), c.jobs);
        assert_eq!(merged.trace.duration_sketch().unwrap().count(), c.jobs);
        // Gap sketch misses the (unobservable) cross-shard seams only.
        assert_eq!(merged.gap_sketch.count(), c.jobs - c.shard_count() as u64);
        // Population mix matches the cluster weights: Seren ≈ 97% of jobs.
        let seren_share = merged
            .trace
            .type_shares()
            .iter()
            .map(|&(_, count, _)| count)
            .sum::<f64>();
        assert!((seren_share - 1.0).abs() < 1e-9, "shares sum to 1");
        assert!(merged.acceptance_ratio() > 0.5);
    }

    #[test]
    fn mean_gap_matches_the_calibrated_rate() {
        let c = FleetConfig {
            jobs: 50_000,
            shard_jobs: 50_000,
            ..FleetConfig::new(3)
        };
        let stats = FleetShardStats::collect(&c, 0);
        let mean_gap = stats.gap_sketch.mean();
        let expected = 86_400.0 / c.jobs_per_day();
        assert!(
            (mean_gap - expected).abs() / expected < 0.05,
            "mean gap {mean_gap:.2}s vs expected {expected:.2}s"
        );
    }

    #[test]
    #[should_panic(expected = "burst_amp")]
    fn rejects_unit_amplitude() {
        let c = FleetConfig {
            burst_amp: 1.0,
            ..FleetConfig::new(1)
        };
        FleetStream::shard(&c, 0);
    }
}
