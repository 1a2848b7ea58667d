//! Long-sequence pretraining (§7, "we are actively refining our system to
//! accommodate advanced training workloads, including long sequence
//! pretraining").
//!
//! Sequence length changes the cost structure in two ways this module
//! quantifies:
//!
//! * **compute**: attention FLOPs grow with the sequence —
//!   `12·L·h·s` extra FLOPs per token on top of the parameter term `6Ψ`
//!   (FlashAttention removes the *memory* quadratic, not the compute);
//! * **memory**: activations grow linearly per token, so at fixed memory
//!   the per-GPU token budget caps the usable sequence length, pushing
//!   long-sequence training toward sequence/context parallelism.

use crate::model::ModelConfig;
use crate::parallelism::Strategy;

/// Training FLOPs per token at sequence length `seq` — the `6Ψ` parameter
/// term plus the attention term `12·L·h·seq` (forward 4 + backward 8
/// matmul passes over the `s×s` score computation, at `h` width).
pub fn flops_per_token_at_seq(model: &ModelConfig, seq: u32) -> f64 {
    assert!(seq > 0, "sequence length must be positive");
    let attention = 12.0 * model.layers as f64 * model.hidden as f64 * seq as f64;
    model.train_flops_per_token() + attention
}

/// The fraction of compute going to attention at a sequence length.
pub fn attention_compute_fraction(model: &ModelConfig, seq: u32) -> f64 {
    let attn = 12.0 * model.layers as f64 * model.hidden as f64 * seq as f64;
    attn / flops_per_token_at_seq(model, seq)
}

/// The longest single sequence one 80 GB GPU can hold, given the strategy's
/// static footprint and the recompute activation model.
pub fn max_seq_on_one_gpu(model: &ModelConfig, strategy: &Strategy) -> u32 {
    let budget = 80e9 * 0.92 - strategy.static_bytes_per_gpu(model);
    if budget <= 0.0 {
        return 0;
    }
    let per_token = 2.0 * model.hidden as f64 * model.layers as f64;
    (budget / per_token) as u32
}

/// Degree of sequence (context) parallelism needed to train at `seq`.
pub fn required_sequence_parallelism(model: &ModelConfig, strategy: &Strategy, seq: u32) -> u32 {
    let cap = max_seq_on_one_gpu(model, strategy);
    if cap == 0 {
        return u32::MAX;
    }
    seq.div_ceil(cap).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_fraction_grows_with_sequence() {
        let m = ModelConfig::dense_7b();
        let short = attention_compute_fraction(&m, 4_096);
        let long = attention_compute_fraction(&m, 262_144);
        assert!(short < 0.2, "at 4k attention is a minor term: {short:.3}");
        assert!(long > 0.5, "at 256k attention dominates: {long:.3}");
        // Monotone.
        let mut last = 0.0;
        for s in [1_024u32, 8_192, 65_536, 524_288] {
            let f = attention_compute_fraction(&m, s);
            assert!(f > last);
            last = f;
        }
    }

    #[test]
    fn flops_reduce_to_dense_at_short_sequences() {
        let m = ModelConfig::dense_123b();
        let at_4k = flops_per_token_at_seq(&m, 4_096);
        // Within ~7% of the parameter-only estimate.
        assert!((at_4k - m.train_flops_per_token()) / m.train_flops_per_token() < 0.07);
    }

    #[test]
    fn memory_caps_the_sequence_length() {
        let m = ModelConfig::dense_7b();
        let strat = Strategy::hierarchical_paper(64);
        let cap = max_seq_on_one_gpu(&m, &strat);
        // A 7B under hierarchical ZeRO: the cap is in the hundreds of
        // thousands of tokens with recompute.
        assert!(cap > 32_768, "cap {cap}");
        // Bigger models cap earlier.
        let big_cap = max_seq_on_one_gpu(
            &ModelConfig::dense_123b(),
            &Strategy::hierarchical_paper(2048),
        );
        assert!(big_cap < cap);
    }

    #[test]
    fn sequence_parallelism_requirement_scales() {
        let m = ModelConfig::dense_123b();
        let strat = Strategy::hierarchical_paper(2048);
        let cap = max_seq_on_one_gpu(&m, &strat);
        assert_eq!(required_sequence_parallelism(&m, &strat, cap), 1);
        assert_eq!(required_sequence_parallelism(&m, &strat, cap * 2), 2);
        assert!(required_sequence_parallelism(&m, &strat, 4_000_000) >= 4);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_sequence() {
        flops_per_token_at_seq(&ModelConfig::dense_7b(), 0);
    }
}
