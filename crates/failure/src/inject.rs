//! Calibrated failure injection.
//!
//! Regenerates six-month failure event populations from the Table-3
//! statistics: per reason, `num` events with log-normal GPU demand and
//! time-to-failure/time-to-restart fitted to the published (median, mean)
//! pairs. Also provides per-job failure schedules for the Figure-14
//! training-progress experiments.

use acme_sim_core::dist::{Distribution, Exponential, LogNormal};
use acme_sim_core::{SimDuration, SimRng, SimTime};

use crate::taxonomy::{FailureCategory, FailureReason};

/// One injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Root cause.
    pub reason: FailureReason,
    /// When the job failed.
    pub at: SimTime,
    /// GPUs the failing job held.
    pub gpu_demand: u32,
    /// How long the job had been running.
    pub time_to_failure: SimDuration,
    /// How long until the job was restarted.
    pub time_to_restart: SimDuration,
}

impl FailureEvent {
    /// GPU time destroyed: demand × time-to-failure, GPU-minutes.
    pub fn gpu_time_mins(&self) -> f64 {
        self.gpu_demand as f64 * self.time_to_failure.as_mins_f64()
    }
}

/// Samples failure events from the Table-3 calibration.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    horizon: SimDuration,
}

impl FailureInjector {
    /// An injector covering the paper's six-month window.
    pub fn six_months() -> Self {
        FailureInjector {
            horizon: SimDuration::from_days(183),
        }
    }

    /// An injector over an arbitrary horizon; event counts scale
    /// proportionally.
    pub fn over(horizon: SimDuration) -> Self {
        assert!(!horizon.is_zero(), "horizon must be positive");
        FailureInjector { horizon }
    }

    /// Generate the full event population, sorted by time.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<FailureEvent> {
        let scale = self.horizon.as_secs_f64() / SimDuration::from_days(183).as_secs_f64();
        let mut events = Vec::new();
        for &reason in FailureReason::ALL.iter() {
            let spec = reason.spec();
            let n =
                ((spec.num as f64 * scale).round() as u32).max(if scale >= 1.0 { 1 } else { 0 });
            // Fit (median, mean) log-normals; Table 3 has zero medians for
            // sub-minute quantities, floored to keep the fit well-defined.
            let demand =
                LogNormal::from_median_mean(spec.demand_median.max(1.0), spec.demand_avg.max(1.0));
            let ttf = LogNormal::from_median_mean(
                spec.ttf_median_mins.max(0.1),
                spec.ttf_avg_mins.max(0.1),
            );
            let ttr = LogNormal::from_median_mean(
                spec.ttr_median_mins.max(0.05),
                spec.ttr_avg_mins.max(0.05),
            );
            for _ in 0..n {
                let at = SimTime::from_secs_f64(rng.f64() * self.horizon.as_secs_f64());
                let gpus = round_to_plausible_demand(demand.sample(rng));
                events.push(FailureEvent {
                    reason,
                    at,
                    gpu_demand: gpus,
                    time_to_failure: SimDuration::from_mins_f64(ttf.sample(rng)),
                    time_to_restart: SimDuration::from_mins_f64(ttr.sample(rng)),
                });
            }
        }
        events.sort_by_key(|e| e.at);
        events
    }

    /// A failure schedule for one long pretraining job (Figure 14): times
    /// at which *infrastructure-class* interruptions strike, Poisson with
    /// the given mean interval, over `horizon`.
    pub fn pretrain_schedule(
        rng: &mut SimRng,
        mean_between_failures: SimDuration,
        horizon: SimDuration,
    ) -> Vec<SimTime> {
        assert!(!mean_between_failures.is_zero(), "MTBF must be positive");
        let exp = Exponential::with_mean(mean_between_failures.as_secs_f64());
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += exp.sample(rng);
            if t >= horizon.as_secs_f64() {
                break;
            }
            out.push(SimTime::from_secs_f64(t));
        }
        out
    }

    /// Aggregate an event population into per-category `(count_share,
    /// gpu_time_share)` rows — the §5.2 headline numbers.
    pub fn category_shares(events: &[FailureEvent]) -> Vec<(FailureCategory, f64, f64)> {
        assert!(!events.is_empty(), "no events to aggregate");
        let total_n = events.len() as f64;
        let total_t: f64 = events.iter().map(|e| e.gpu_time_mins()).sum();
        FailureCategory::ALL
            .into_iter()
            .map(|cat| {
                let n = events.iter().filter(|e| e.reason.category() == cat).count() as f64;
                let t: f64 = events
                    .iter()
                    .filter(|e| e.reason.category() == cat)
                    .map(|e| e.gpu_time_mins())
                    .sum();
                (cat, n / total_n, t / total_t)
            })
            .collect()
    }
}

/// Round a sampled demand to a realistic allocation (powers of two up to
/// 2048, preserving small odd counts).
fn round_to_plausible_demand(x: f64) -> u32 {
    let x = x.clamp(1.0, 2048.0);
    if x <= 8.0 {
        return x.round().max(1.0) as u32;
    }
    // Nearest power of two in log space.
    let log = x.log2().round() as u32;
    1u32 << log.min(11)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<FailureEvent> {
        let mut rng = SimRng::new(42);
        FailureInjector::six_months().generate(&mut rng)
    }

    #[test]
    fn population_size_matches_table3() {
        assert_eq!(events().len(), 2575);
    }

    #[test]
    fn events_sorted_by_time_within_horizon() {
        let ev = events();
        for w in ev.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        let horizon = SimDuration::from_days(183);
        assert!(ev
            .iter()
            .all(|e| e.at.saturating_since(SimTime::ZERO) <= horizon));
    }

    #[test]
    fn infrastructure_shares_match_section52() {
        let ev = events();
        let shares = FailureInjector::category_shares(&ev);
        let (_, count, time) = shares[0];
        // ~11% of failures, >82% of GPU time (generous tolerance for
        // sampling noise in the heavy tails).
        assert!((0.08..0.14).contains(&count), "infra count {count:.3}");
        assert!(time > 0.70, "infra GPU time {time:.3}");
        let total_count: f64 = shares.iter().map(|&(_, c, _)| c).sum();
        let total_time: f64 = shares.iter().map(|&(_, _, t)| t).sum();
        assert!((total_count - 1.0).abs() < 1e-9);
        assert!((total_time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_reason_statistics_track_the_table() {
        let ev = events();
        // NVLink: 54 events, median TTF ≈ 155 min.
        let nv: Vec<_> = ev
            .iter()
            .filter(|e| e.reason == FailureReason::NvLinkError)
            .collect();
        assert_eq!(nv.len(), 54);
        let mut ttfs: Vec<f64> = nv.iter().map(|e| e.time_to_failure.as_mins_f64()).collect();
        ttfs.sort_by(|a, b| a.total_cmp(b));
        let med = ttfs[ttfs.len() / 2];
        assert!(
            (50.0..450.0).contains(&med),
            "NVLink median TTF {med:.0} min"
        );
        // Demands are large (the paper's 896 median).
        let mut demands: Vec<u32> = nv.iter().map(|e| e.gpu_demand).collect();
        demands.sort_unstable();
        assert!(demands[demands.len() / 2] >= 256);
    }

    #[test]
    fn script_failures_die_young() {
        let ev = events();
        let type_errors: Vec<f64> = ev
            .iter()
            .filter(|e| e.reason == FailureReason::TypeError)
            .map(|e| e.time_to_failure.as_mins_f64())
            .collect();
        assert_eq!(type_errors.len(), 620);
        let mean = type_errors.iter().sum::<f64>() / type_errors.len() as f64;
        assert!(mean < 3.0, "TypeError mean TTF {mean:.2} min");
    }

    #[test]
    fn scaled_horizon_scales_counts() {
        let mut rng = SimRng::new(1);
        let month = FailureInjector::over(SimDuration::from_days(30)).generate(&mut rng);
        // ~2575 × 30/183 ≈ 422, ± rounding.
        assert!((350..500).contains(&month.len()), "n = {}", month.len());
    }

    #[test]
    fn pretrain_schedule_poisson() {
        let mut rng = SimRng::new(2);
        let sched = FailureInjector::pretrain_schedule(
            &mut rng,
            SimDuration::from_hours(12),
            SimDuration::from_days(30),
        );
        // Expect ~60 failures; allow wide slack.
        assert!((35..90).contains(&sched.len()), "n = {}", sched.len());
        for w in sched.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn demand_rounding() {
        assert_eq!(round_to_plausible_demand(0.3), 1);
        assert_eq!(round_to_plausible_demand(5.4), 5);
        assert_eq!(round_to_plausible_demand(700.0), 512);
        assert_eq!(round_to_plausible_demand(900.0), 1024);
        assert_eq!(round_to_plausible_demand(1e9), 2048);
    }

    #[test]
    fn deterministic() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        assert_eq!(
            FailureInjector::six_months().generate(&mut a),
            FailureInjector::six_months().generate(&mut b)
        );
    }
}
