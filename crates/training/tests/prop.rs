//! Property-based tests for the training models.

use acme_training::checkpoint::{CheckpointMode, CheckpointScenario};
use acme_training::{MemoryModel, ModelConfig, StepTimeline, Strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memory: pipeline ranks are monotone non-increasing and everything
    /// positive; the step timeline's dynamic peak never exceeds the rank-0
    /// snapshot.
    #[test]
    fn memory_invariants(gpus_exp in 5u32..8, batch_exp in 21u32..24) {
        let gpus = 1u32 << gpus_exp; // 32..128 (×32 keeps divisibility)
        let gpus = gpus * 32;
        let batch = 1u64 << batch_exp;
        let m = MemoryModel::new(ModelConfig::dense_123b(), Strategy::three_d_paper(gpus), batch);
        let peaks = m.per_rank_peaks();
        for w in peaks.windows(2) {
            prop_assert!(w[0].1.activation_peak_gb >= w[1].1.activation_peak_gb);
        }
        for (_, snap) in &peaks {
            prop_assert!(snap.static_gb > 0.0 && snap.activation_peak_gb > 0.0);
        }
        let tl = m.step_timeline(32);
        let peak = tl.iter().map(|&(_, _, d)| d).fold(0.0, f64::max);
        prop_assert!(peak <= peaks[0].1.activation_peak_gb + 1e-9);
    }

    /// Step timelines: durations positive, mean ≤ peak, samples within the
    /// phase vocabulary's range.
    #[test]
    fn timeline_invariants(gpus_mult in 1u32..8) {
        let gpus = 256 * gpus_mult;
        let model = ModelConfig::dense_123b();
        for strat in [Strategy::three_d_paper(gpus), Strategy::hierarchical_paper(gpus)] {
            let tl = StepTimeline::dense(&model, &strat, 4 * 1024 * 1024);
            prop_assert!(tl.step_ms() > 0.0);
            prop_assert!(tl.mean_sm_util() <= tl.peak_sm_util());
            prop_assert!(tl.idle_fraction(101.0) == 1.0);
            prop_assert!(tl.idle_fraction(0.0) == 0.0);
        }
    }

    /// Checkpointing: speedup > 1, overhead strictly decreasing in the
    /// interval, durability ≥ blocking.
    #[test]
    fn checkpoint_invariants(writers in 8u32..256, remote in 0.1f64..4.0) {
        let scenario = CheckpointScenario {
            writers,
            remote_gbps_per_writer: remote,
            ..CheckpointScenario::paper_123b()
        };
        prop_assert!(scenario.speedup() > 1.0);
        let o1 = scenario.overhead_fraction(CheckpointMode::Synchronous, 600.0);
        let o2 = scenario.overhead_fraction(CheckpointMode::Synchronous, 1800.0);
        prop_assert!(o2 < o1);
        for mode in [CheckpointMode::Synchronous, CheckpointMode::Asynchronous] {
            prop_assert!(scenario.durable_secs(mode) >= scenario.blocking_secs(mode) - 1e-12);
        }
    }
}
