//! Property-based tests for workload generation and aggregation.

use acme_sim_core::{SimDuration, SimRng};
use acme_workload::{TraceStats, WorkloadGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated traces are well-formed for any seed and horizon: sorted
    /// arrivals, sequential ids, positive durations, plausible demands.
    #[test]
    fn traces_well_formed(seed in any::<u64>(), days in 1.0f64..30.0) {
        let mut rng = SimRng::new(seed);
        let w = WorkloadGenerator::kalos().generate(&mut rng, days, 7);
        for pair in w.jobs.windows(2) {
            prop_assert!(pair[1].submit >= pair[0].submit);
            prop_assert_eq!(pair[1].id, pair[0].id + 1);
        }
        for j in &w.jobs {
            prop_assert!(j.duration >= SimDuration::from_secs(5));
            prop_assert!(j.gpus >= 1 && j.gpus <= 2048);
            prop_assert!(j.submit.as_secs_f64() <= days * 86_400.0);
        }
        if let Some(first) = w.jobs.first() {
            prop_assert_eq!(first.id, 7);
        }
    }

    /// Aggregation identities hold on every generated trace: type shares
    /// and status shares each sum to one; the demand CDFs are monotone and
    /// end at 1.
    #[test]
    fn aggregation_identities(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let w = WorkloadGenerator::seren().generate(&mut rng, 3.0, 0);
        prop_assume!(!w.jobs.is_empty());
        let stats = TraceStats::new(&w.jobs);
        let type_count: f64 = stats.type_shares().iter().map(|&(_, c, _)| c).sum();
        let type_time: f64 = stats.type_shares().iter().map(|&(_, _, t)| t).sum();
        prop_assert!((type_count - 1.0).abs() < 1e-9);
        prop_assert!((type_time - 1.0).abs() < 1e-9);
        let status_count: f64 = stats.status_shares().iter().map(|&(_, c, _)| c).sum();
        prop_assert!((status_count - 1.0).abs() < 1e-9);
        for cdf in [stats.demand_count_cdf(), stats.demand_gpu_time_cdf()] {
            for w in cdf.windows(2) {
                prop_assert!(w[1].1 >= w[0].1 - 1e-12);
            }
            prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }
}
