//! Open-system fleet workload: multi-tenant, multi-cluster job arrivals
//! as a sharded lazy stream.
//!
//! The closed-world generators model one cluster at calibration scale over
//! a fixed horizon. This module models what the paper's §2.1
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
//!   A per-shard table brackets the acceptance probability over each
//!   1/256 of a day, so only the candidates whose uniform falls inside
//!   their cell's bracket (under 1%) evaluate `sin`; every decision is
//!   the one the exact expression makes.
//! * **One job sampler for the trace and the fleet.** After tenant and
//!   cluster are chosen, type/demand/status/duration come from the
//!   cluster's `JobSampler`, the one `WorkloadGenerator::generate` draws
//!   every trace job with, so fleet jobs are distributionally the same
//!   population the calibrated figures were validated against.
//!
//! Shard clocks start at `lo · mean_gap` (the expected submit time of
//! arrival `lo`), so shard boundaries introduce a seam in absolute time
//! but leave every aggregate this module reports — tenant shares,
//! hour-of-day burst profile, inter-arrival quantiles, per-type tables —
//! statistically untouched.

use acme_sim_core::dist::{Categorical, Distribution, Exponential, Zipf};
use acme_sim_core::{SimRng, SimTime};
use acme_telemetry::QuantileSketch;

use crate::generator::{JobSampler, WorkloadGenerator};
use crate::job::JobRecord;
use crate::stats::TraceStats;

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

/// The lazy arrival stream of one fleet shard: yields exactly
/// `hi − lo` [`FleetJob`]s, O(1) memory, pure function of
/// `(config, shard index)`.
pub struct FleetStream {
    rng: SimRng,
    candidate_gap: Exponential,
    burst_amp: f64,
    /// The thinning bracket, `(accept_lo, accept_hi)` per cell. Cell `c`
    /// covers the day fractions `[c/256, (c+1)/256]`, where the sine is
    /// monotone, so the exact sine of any candidate in the cell lies
    /// between the sines at the cell's edges. Widened by [`MARGIN`] and
    /// mapped through the monotone [`acceptance`], the edge sines bound
    /// the candidate's exact acceptance probability: a uniform below
    /// `accept_lo` accepts, one at or above `accept_hi` rejects, and only
    /// one in between needs `sin`.
    bracket: [(f64, f64); CELLS],
    zipf: Zipf,
    cluster_picker: Categorical,
    arms: [JobSampler; 2],
    t_secs: f64,
    next_id: u64,
    remaining: u64,
    candidates: u64,
    /// Candidates the bracket left to the exact expression.
    #[cfg(test)]
    exact_evals: u64,
}

/// Cells per simulated day in the thinning bracket. A multiple of 4, so
/// the sine's extrema at ¼ and ¾ day fall on cell edges and the sine is
/// monotone inside every cell.
const CELLS: usize = 256;

/// How far each cell's sine range is widened before it is mapped to
/// acceptance probabilities. The computed phase `fl(τ·days)` is within
/// about `1e-15·days` of `2π·days`, and libm's `sin` within an ulp, so
/// below [`DAY_GUARD`] the computed sine never leaves the widened range.
const MARGIN: f64 = 1e-6;

/// Candidates at or past this many simulated days skip the bracket and
/// take the exact expression: the phase's rounding bound (~1e-9 here)
/// must stay far below [`MARGIN`].
const DAY_GUARD: f64 = (1u64 << 20) as f64;

/// Thinning acceptance `rate(t)/λmax` for the sine of the diurnal phase.
/// Each rounding step is monotone, so this is non-decreasing in `sine`
/// for `amp ≥ 0`.
#[inline]
fn acceptance(amp: f64, sine: f64) -> f64 {
    (1.0 + amp * sine) / (1.0 + amp)
}

impl FleetStream {
    /// The stream for shard `i` of `config`, with its thinning bracket
    /// tabulated.
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
        let edge_sine = |c: usize| (std::f64::consts::TAU * (c as f64 / CELLS as f64)).sin();
        let bracket = std::array::from_fn(|c| {
            let (a, b) = (edge_sine(c), edge_sine(c + 1));
            (
                acceptance(config.burst_amp, a.min(b) - MARGIN),
                acceptance(config.burst_amp, a.max(b) + MARGIN),
            )
        });
        FleetStream {
            rng: SimRng::new(config.seed).fork(i as u64 + 1),
            candidate_gap: Exponential::with_mean(1.0 / peak_rate),
            burst_amp: config.burst_amp,
            bracket,
            zipf: Zipf::new(config.tenants, config.zipf_s),
            cluster_picker: Categorical::new(&[seren.jobs_per_day(), kalos.jobs_per_day()]),
            arms: [JobSampler::new(&seren), JobSampler::new(&kalos)],
            t_secs: lo as f64 * 86_400.0 / combined_per_day,
            next_id: lo,
            remaining: hi - lo,
            candidates: 0,
            #[cfg(test)]
            exact_evals: 0,
        }
    }

    /// Thinned-Poisson candidates drawn so far (accepted + rejected) —
    /// the acceptance ratio is `yielded / candidates`.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// The bracket's decision for a candidate at `days` simulated days
    /// with uniform `u`: `Some(accept)` when the cell's table settles it,
    /// `None` when only the exact expression can (or `days` is past
    /// [`DAY_GUARD`]).
    #[inline]
    fn bracket_verdict(&self, days: f64, u: f64) -> Option<bool> {
        if days >= DAY_GUARD {
            return None;
        }
        // `days · 256` is exact and below 2²⁸, so the cast is its floor.
        let (lo, hi) = self.bracket[(days * CELLS as f64) as usize % CELLS];
        if u < lo {
            Some(true)
        } else if u >= hi {
            Some(false)
        } else {
            None
        }
    }

    /// The accepted candidate's tenant, cluster and job, drawn in the
    /// closed-world generator's order.
    #[inline]
    fn arrival(&mut self) -> FleetJob {
        let tenant = self.zipf.sample_index(&mut self.rng) as u32;
        let arm = &self.arms[self.cluster_picker.sample_index(&mut self.rng)];
        let submit = SimTime::from_secs_f64(self.t_secs);
        let job = arm.sample(self.next_id, submit, &mut self.rng);
        self.next_id += 1;
        FleetJob { tenant, job }
    }
}

impl Iterator for FleetStream {
    type Item = FleetJob;

    #[inline]
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
            let days = self.t_secs / 86_400.0;
            let u = self.rng.f64();
            let accept = match self.bracket_verdict(days, u) {
                Some(verdict) => verdict,
                None => {
                    #[cfg(test)]
                    {
                        self.exact_evals += 1;
                    }
                    let phase = std::f64::consts::TAU * days;
                    u < acceptance(self.burst_amp, phase.sin())
                }
            };
            if accept {
                break;
            }
        }
        Some(self.arrival())
    }
}

/// Bounded-memory aggregates of one fleet shard (mergeable across
/// shards): the full [`TraceStats`] table set plus a duration sketch,
/// tenant-skew counters, an hour-of-day arrival profile, an inter-arrival
/// sketch, and the thinning acceptance ratio.
#[derive(Debug, Clone)]
pub struct FleetShardStats {
    /// Per-type / per-status / per-demand aggregate tables.
    pub trace: TraceStats,
    /// Jobs submitted per tenant rank.
    pub tenant_jobs: Vec<u64>,
    /// GPU-seconds consumed per tenant rank.
    pub tenant_gpu_secs: Vec<f64>,
    /// Accepted arrivals per hour of day (0–23).
    pub hourly_arrivals: [u64; 24],
    /// Sketch of job durations, minutes.
    pub duration_sketch: QuantileSketch,
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
            trace: TraceStats::default(),
            tenant_jobs: vec![0; tenants],
            tenant_gpu_secs: vec![0.0; tenants],
            hourly_arrivals: [0; 24],
            duration_sketch: QuantileSketch::with_capacity(FLEET_SKETCH_K),
            gap_sketch: QuantileSketch::with_capacity(FLEET_SKETCH_K),
            candidates: 0,
            last_submit_secs: None,
        }
    }

    /// Fold one arrival into every aggregate.
    #[inline]
    pub fn push(&mut self, fj: &FleetJob) {
        self.trace.push(&fj.job);
        self.duration_sketch.insert(fj.job.duration.as_mins_f64());
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
        stats.duration_sketch.shrink_to_fit();
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
        self.duration_sketch.merge(&other.duration_sketch);
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
    use crate::job::Cluster;

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
        assert_eq!(merged.duration_sketch.count(), c.jobs);
        // Gap sketch misses the (unobservable) cross-shard seams only.
        assert_eq!(merged.gap_sketch.count(), c.jobs - c.shard_count() as u64);
        // Every merged job lands in exactly one type row.
        let type_share_sum = merged
            .trace
            .type_shares()
            .iter()
            .map(|&(_, count, _)| count)
            .sum::<f64>();
        assert!((type_share_sum - 1.0).abs() < 1e-9, "shares sum to 1");
        assert!(merged.acceptance_ratio() > 0.5);
        // Population mix matches the clusters' calibrated rates: Seren
        // submits 3630 of the fleet's 3740 jobs a day. `TraceStats` keeps
        // no per-cluster table, so count the shards' jobs by cluster and
        // hold the Seren share within 5 binomial standard deviations
        // (±0.49 points at 30,000 jobs).
        let seren = (0..c.shard_count())
            .flat_map(|i| FleetStream::shard(&c, i))
            .filter(|fj| fj.job.cluster == Cluster::Seren)
            .count();
        let (n, p) = (c.jobs as f64, 3630.0 / 3740.0);
        let band = 5.0 * (p * (1.0 - p) / n).sqrt();
        let share = seren as f64 / n;
        assert!(
            (share - p).abs() < band,
            "Seren share {share:.4}, expected {p:.4} ± {band:.4}"
        );
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

    /// The thinning loop before the bracket, `sin` on every candidate:
    /// the oracle the bracketed [`FleetStream::next`] must match draw for
    /// draw.
    fn next_exact(s: &mut FleetStream) -> Option<FleetJob> {
        if s.remaining == 0 {
            return None;
        }
        s.remaining -= 1;
        loop {
            s.candidates += 1;
            s.t_secs += s.candidate_gap.sample(&mut s.rng);
            let phase = std::f64::consts::TAU * (s.t_secs / 86_400.0);
            let accept = (1.0 + s.burst_amp * phase.sin()) / (1.0 + s.burst_amp);
            if s.rng.f64() < accept {
                break;
            }
        }
        Some(s.arrival())
    }

    /// The first `n` arrivals of shard `i`, bracketed and exact, must be
    /// the same jobs from the same number of candidates. Returns the
    /// bracketed stream.
    fn assert_matches_exact(c: &FleetConfig, i: usize, n: usize) -> FleetStream {
        let mut fast = FleetStream::shard(c, i);
        let mut exact = FleetStream::shard(c, i);
        for k in 0..n {
            let (a, b) = (fast.next(), next_exact(&mut exact));
            assert_eq!(
                a, b,
                "seed {} amp {} shard {i} arrival {k}",
                c.seed, c.burst_amp
            );
        }
        assert_eq!(fast.candidates(), exact.candidates());
        fast
    }

    #[test]
    fn bracketed_thinning_matches_the_exact_loop() {
        for seed in [1, 7, 42] {
            for burst_amp in [0.0, 0.6, 0.99] {
                let c = FleetConfig {
                    burst_amp,
                    ..FleetConfig::new(seed)
                };
                for i in [0, c.shard_count() - 1] {
                    assert_matches_exact(&c, i, 4_000);
                }
            }
        }
    }

    #[test]
    fn candidates_past_the_day_guard_take_the_exact_expression() {
        for seed in [1, 7, 42] {
            let c = FleetConfig::new(seed).with_jobs(4_000_000_000);
            let last = c.shard_count() - 1;
            let start_days = FleetStream::shard(&c, last).t_secs / 86_400.0;
            assert!(start_days > DAY_GUARD, "shard starts at day {start_days}");
            let s = assert_matches_exact(&c, last, 3_000);
            assert_eq!(s.exact_evals, s.candidates());
        }
    }

    /// `x` moved by `ulps` units in the last place (`x` positive).
    fn ulp_step(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    #[test]
    fn bracket_verdicts_at_cell_edges_equal_the_exact_decision() {
        for burst_amp in [0.0, 0.6, 0.99] {
            let s = FleetStream::shard(
                &FleetConfig {
                    burst_amp,
                    ..FleetConfig::new(42)
                },
                0,
            );
            let mut decided = 0u64;
            for whole in [0.0, 1.0, 9.0, 1000.0, 524_291.0, DAY_GUARD - 1.0] {
                for c in 0..CELLS {
                    let edge = whole + c as f64 / CELLS as f64;
                    let below = (edge > 0.0).then(|| ulp_step(edge, -1));
                    for days in [Some(edge), below, Some(ulp_step(edge, 1))]
                        .into_iter()
                        .flatten()
                    {
                        let phase = std::f64::consts::TAU * days;
                        let exact = (1.0 + burst_amp * phase.sin()) / (1.0 + burst_amp);
                        let cell = (days * CELLS as f64) as usize % CELLS;
                        let (lo, hi) = s.bracket[cell];
                        for x in [exact, lo, hi] {
                            for u in [ulp_step(x, -1), x, ulp_step(x, 1)] {
                                if let Some(verdict) = s.bracket_verdict(days, u) {
                                    assert_eq!(
                                        verdict,
                                        u < exact,
                                        "amp {burst_amp} day {days} u {u}"
                                    );
                                    decided += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert!(decided > 0);
        }
    }

    #[test]
    fn the_bracket_leaves_under_one_percent_to_sin() {
        // The seed-42 `repro fleet` run: 16 shards, 10⁶ arrivals.
        let c = FleetConfig::new(42);
        let (mut exact, mut candidates) = (0, 0);
        for i in 0..c.shard_count() {
            let mut s = FleetStream::shard(&c, i);
            for _ in &mut s {}
            exact += s.exact_evals;
            candidates += s.candidates();
        }
        let share = exact as f64 / candidates as f64;
        assert!((0.004..0.008).contains(&share), "fallback share {share}");
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
