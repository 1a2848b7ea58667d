//! Property-based tests for the failure stack.

use std::collections::BTreeSet;

use acme_failure::compress::{normalize, LogAgent, LogCompressor};
use acme_failure::storm::{StormConfig, StormEngine};
use acme_failure::{full_rule_report, DiagnosisPipeline, FailureReason, LogBundle, NcclTester};
use acme_sim_core::SimRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Normalization is idempotent and length-non-increasing.
    #[test]
    fn normalize_idempotent(line in ".{0,200}") {
        let once = normalize(&line);
        prop_assert_eq!(normalize(&once), once.clone());
        prop_assert!(once.chars().count() <= line.chars().count());
    }

    /// Compression never invents lines and never drops protected ones.
    #[test]
    fn compression_is_a_filter(seed in any::<u64>(), reason_idx in 0usize..29, noise in 10usize..200) {
        let reason = FailureReason::ALL[reason_idx];
        let mut rng = SimRng::new(seed);
        let bundle = LogBundle::generate(reason, noise, &mut rng);
        let mut c = LogCompressor::new();
        LogAgent::default().learn_into(&mut c, &bundle.lines);
        let kept = c.compress(&bundle.lines);
        prop_assert!(kept.len() <= bundle.lines.len());
        // Every kept line exists in the original, in order.
        let mut idx = 0;
        for line in &kept {
            while idx < bundle.lines.len() && &bundle.lines[idx] != *line {
                idx += 1;
            }
            prop_assert!(idx < bundle.lines.len(), "kept line not in source");
        }
        // Error lines always survive.
        for line in &bundle.lines {
            if line.contains("ERROR") {
                prop_assert!(kept.contains(&line));
            }
        }
    }

    /// The full-rule pipeline classifies every generated log exactly, and
    /// the campaign replays' report table stands in for it:
    /// `LogBundle::draw` consumes exactly `generate`'s rng draws, and
    /// `full_rule_report` on incidents of mixed causes and depths returns
    /// the reports one persistent pipeline gives on the rendered text,
    /// leaving the same rng state.
    #[test]
    fn diagnosis_exact_with_full_rules(
        seed in any::<u64>(),
        reason_idx in 0usize..29,
        depth in 0usize..200,
        incidents in prop::collection::vec((0usize..29, 0usize..200), 30..50),
    ) {
        let reason = FailureReason::ALL[reason_idx];
        let mut rng = SimRng::new(seed);
        let mut drawn = rng.clone();
        let bundle = LogBundle::generate(reason, depth, &mut rng);
        LogBundle::draw(reason, depth, &mut drawn);
        prop_assert_eq!(drawn.next_u64(), rng.clone().next_u64());
        let mut p = DiagnosisPipeline::with_all_rules();
        let report = p.diagnose(&bundle.lines);
        prop_assert!(report.is_some());
        prop_assert_eq!(report.unwrap().reason, reason);

        let mut table_rng = rng.clone();
        for &(idx, depth) in &incidents {
            let reason = FailureReason::ALL[idx];
            let text = LogBundle::generate(reason, depth, &mut rng);
            let expected = p.diagnose(&text.lines);
            prop_assert_eq!(Some(full_rule_report(reason, depth, &mut table_rng)), expected.as_ref());
        }
        prop_assert_eq!(table_rng.next_u64(), rng.next_u64());
    }

    /// The two-round NCCL test identifies exactly the faulty set whenever
    /// at least one world passes round one.
    #[test]
    fn nccl_two_round_exact(nodes in 4usize..64, faulty_bits in prop::collection::vec(any::<bool>(), 4..64)) {
        let faulty: BTreeSet<usize> = faulty_bits
            .iter()
            .take(nodes)
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| i)
            .collect();
        let result = NcclTester::new(nodes).run(&faulty);
        if result.degraded {
            // Over-approximation is allowed but must never miss.
            prop_assert!(result.identified.is_superset(&faulty));
        } else {
            prop_assert_eq!(result.identified, faulty.clone());
        }
        // Suspects always include the faulty nodes.
        if !faulty.is_empty() {
            prop_assert!(result.suspects.is_superset(&faulty));
        }
    }

    /// Injection scales with the horizon and never produces out-of-range
    /// values.
    #[test]
    fn injection_ranges(seed in any::<u64>(), days in 1.0f64..400.0) {
        use acme_failure::FailureInjector;
        use acme_sim_core::SimDuration;
        let mut rng = SimRng::new(seed);
        let events = FailureInjector::over(SimDuration::from_secs_f64(days * 86_400.0))
            .generate(&mut rng);
        for e in &events {
            prop_assert!(e.gpu_demand >= 1 && e.gpu_demand <= 2048);
            prop_assert!(e.time_to_failure > SimDuration::ZERO);
            prop_assert!(e.at.as_secs_f64() <= days * 86_400.0);
        }
    }

    /// The same seed regenerates the same storm, event for event.
    #[test]
    fn storm_is_deterministic_in_the_seed(seed in any::<u64>()) {
        let engine = StormEngine::new(StormConfig::default_storm());
        let a = engine.generate(&mut SimRng::new(seed));
        let b = engine.generate(&mut SimRng::new(seed));
        prop_assert_eq!(a.events, b.events);
    }

    /// No storm activity — primary or cascade secondary — lands past the
    /// configured horizon, and events are time-ordered.
    #[test]
    fn storm_stays_inside_its_horizon(seed in any::<u64>(), scale in 1u32..6) {
        let config = StormConfig::scaled(scale);
        let horizon = config.horizon;
        let campaign = StormEngine::new(config).generate(&mut SimRng::new(seed));
        let mut prev = acme_sim_core::SimTime::ZERO;
        for e in &campaign.events {
            prop_assert!(e.at >= prev, "events out of order");
            prev = e.at;
            prop_assert!(e.at.saturating_since(acme_sim_core::SimTime::ZERO) <= horizon);
            for s in &e.secondaries {
                prop_assert!((e.at + s.delay).saturating_since(acme_sim_core::SimTime::ZERO) <= horizon);
            }
        }
    }

    /// Every cascade secondary carries its primary's correlation id, and
    /// distinct primaries never share one.
    #[test]
    fn storm_correlation_ids_bind_cascades(seed in any::<u64>()) {
        let campaign = StormEngine::new(StormConfig::default_storm())
            .generate(&mut SimRng::new(seed));
        let mut seen = BTreeSet::new();
        for e in &campaign.events {
            prop_assert!(seen.insert(e.correlation), "duplicate primary correlation id");
            for s in &e.secondaries {
                prop_assert_eq!(s.correlation, e.correlation);
            }
        }
    }
}
