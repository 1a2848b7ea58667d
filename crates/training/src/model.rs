//! Transformer model configurations.
//!
//! Acme develops decoder-only transformers from 7B to over 123B parameters
//! (§2.2), plus a Mistral-style MoE used in Appendix A.6. Parameter counts
//! derive from the standard decoder arithmetic: each layer carries ≈ 12·h²
//! weights (4·h² attention + 8·h² MLP) and the embedding adds `vocab · h`.

/// Bytes per parameter for (fp16/bf16 params, fp16 grads, fp32 Adam states):
/// 2Ψ + 2Ψ + 12Ψ (§4.1).
pub const BYTES_PER_PARAM_MIXED_PRECISION: f64 = 16.0;

/// A decoder-only transformer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Human name ("InternLM-123B").
    pub name: &'static str,
    /// Transformer layers.
    pub layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// Training sequence length.
    pub seq_len: u32,
    /// Mixture-of-experts configuration, if any.
    pub moe: Option<MoeConfig>,
}

/// Sparse mixture-of-experts parameters (Appendix A.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeConfig {
    /// Experts per MLP layer.
    pub experts: u32,
    /// Experts activated per token.
    pub top_k: u32,
}

impl ModelConfig {
    /// The 7B workhorse (evaluation experiments, overheating episode).
    pub fn dense_7b() -> Self {
        ModelConfig {
            name: "LLM-7B",
            layers: 32,
            hidden: 4096,
            heads: 32,
            vocab: 100_000,
            seq_len: 4096,
            moe: None,
        }
    }

    /// The 123B flagship profiled in §4.1.
    pub fn dense_123b() -> Self {
        ModelConfig {
            name: "LLM-123B",
            layers: 96,
            hidden: 10_240,
            heads: 80,
            vocab: 100_000,
            seq_len: 4096,
            moe: None,
        }
    }

    /// Mistral-7B-shaped MoE (8 experts, top-2), Appendix A.6.
    pub fn moe_mistral_8x7b() -> Self {
        ModelConfig {
            name: "MoE-8x7B",
            layers: 32,
            hidden: 4096,
            heads: 32,
            vocab: 32_000,
            seq_len: 4096,
            moe: Some(MoeConfig {
                experts: 8,
                top_k: 2,
            }),
        }
    }

    /// Total parameters.
    ///
    /// Dense: `layers · 12h² + vocab·h`. MoE replicates the MLP block's
    /// `8h²` per expert.
    pub fn params(&self) -> f64 {
        let h = self.hidden as f64;
        let l = self.layers as f64;
        let attn = 4.0 * h * h;
        let mlp = 8.0 * h * h;
        let per_layer = match self.moe {
            None => attn + mlp,
            Some(m) => attn + mlp * m.experts as f64,
        };
        l * per_layer + self.vocab as f64 * h
    }

    /// Parameters *active* per token (differs from total only for MoE).
    pub fn active_params(&self) -> f64 {
        let h = self.hidden as f64;
        let l = self.layers as f64;
        let per_layer = match self.moe {
            None => 12.0 * h * h,
            Some(m) => 4.0 * h * h + 8.0 * h * h * m.top_k as f64,
        };
        l * per_layer + self.vocab as f64 * h
    }

    /// Training FLOPs per token: the standard `6 · active parameters`
    /// (forward 2Ψ + backward 4Ψ).
    pub fn train_flops_per_token(&self) -> f64 {
        6.0 * self.active_params()
    }

    /// Total model-state bytes under mixed-precision Adam (all GPUs
    /// combined): `16Ψ` — TB-scale for the flagship models (§6.1).
    pub fn model_state_bytes(&self) -> f64 {
        self.params() * BYTES_PER_PARAM_MIXED_PRECISION
    }

    /// Model-state gigabytes.
    pub fn model_state_gb(&self) -> f64 {
        self.model_state_bytes() / 1e9
    }

    /// Checkpoint size in GB. Acme checkpoints persist the full training
    /// state (parameters + optimizer), i.e. the model states.
    pub fn checkpoint_gb(&self) -> f64 {
        self.model_state_gb()
    }

    /// Bytes of activations per token per layer without recomputation.
    ///
    /// The standard estimate for a transformer layer is ≈ 34·h bytes/token
    /// (attention + MLP intermediates at bf16), ignoring the
    /// attention-matrix term that FlashAttention eliminates.
    pub fn activation_bytes_per_token_per_layer(&self) -> f64 {
        34.0 * self.hidden as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_names() {
        assert!((6.5e9..8.0e9).contains(&ModelConfig::dense_7b().params()));
        assert!((119.0e9..127.0e9).contains(&ModelConfig::dense_123b().params()));
    }

    #[test]
    fn moe_total_vs_active() {
        let m = ModelConfig::moe_mistral_8x7b();
        // 8-expert MLPs: tens of billions total, ~13B active (Mistral
        // 8x7B shape; our MLP width is 8h² vs Mistral's 3·h·14336).
        assert!(
            (33.0..52.0).contains(&(m.params() / 1e9)),
            "{}",
            m.params() / 1e9
        );
        assert!((10.0..15.0).contains(&(m.active_params() / 1e9)));
        assert!(m.active_params() < m.params());
        // Dense models have active == total.
        let d = ModelConfig::dense_7b();
        assert_eq!(d.active_params(), d.params());
    }

    #[test]
    fn model_states_are_tb_scale_for_flagship() {
        // §6.1: "LLMs can produce TB-scale model states".
        let gb = ModelConfig::dense_123b().model_state_gb();
        assert!(gb > 1000.0, "123B states = {gb:.0} GB");
        assert_eq!(ModelConfig::dense_123b().checkpoint_gb(), gb);
    }

    #[test]
    fn flops_per_token_is_6x_active() {
        let m = ModelConfig::dense_7b();
        assert_eq!(m.train_flops_per_token(), 6.0 * m.active_params());
    }

    #[test]
    fn activation_bytes_scale_with_hidden() {
        let small = ModelConfig::dense_7b().activation_bytes_per_token_per_layer();
        let big = ModelConfig::dense_123b().activation_bytes_per_token_per_layer();
        assert!(big > 2.0 * small);
    }
}
