//! The per-GPU activity → power model.
//!
//! DCGM exposes SM activity and tensor-pipe activity as fractions; the
//! paper's Figure 8(a) shows idle GPUs pinned at ~60 W, 12–22% of GPUs above
//! the 400 W TDP, and a tail reaching 600 W. We model power as an affine
//! function of SM activity up to TDP, with tensor-core activity pushing the
//! draw into the above-TDP region — matching the observation that the
//! over-TDP GPUs are the ones running dense, highly optimized LLM kernels.

use crate::spec::GpuSpec;

/// An instantaneous activity snapshot for one GPU. The default is a fully
/// idle GPU.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuActivity {
    /// `PROF_SM_ACTIVE`: fraction of cycles any SM was busy (0–1).
    pub sm_active: f64,
    /// `PROF_PIPE_TENSOR_ACTIVE`: tensor pipe activity (0–1), ≤ `sm_active`.
    pub tensor_active: f64,
    /// Framebuffer memory in use, GB.
    pub memory_used_gb: f64,
}

impl GpuActivity {
    /// Clamp all fields into their physical ranges against `spec`.
    pub fn clamped(self, spec: &GpuSpec) -> GpuActivity {
        let sm = self.sm_active.clamp(0.0, 1.0);
        GpuActivity {
            sm_active: sm,
            tensor_active: self.tensor_active.clamp(0.0, sm),
            memory_used_gb: self.memory_used_gb.clamp(0.0, spec.memory_gb),
        }
    }
}

impl GpuSpec {
    /// Instantaneous power draw, W, at `activity` (clamped to physical
    /// ranges first).
    ///
    /// * idle → `idle_power_w` (~60 W);
    /// * SM activity alone scales linearly toward TDP;
    /// * tensor-pipe activity adds the above-TDP excursion, capped at
    ///   `max_power_w` (~600 W).
    pub fn power_w(&self, activity: GpuActivity) -> f64 {
        let a = activity.clamped(self);
        let sm_term = (self.tdp_w - self.idle_power_w) * a.sm_active;
        let tc_term = (self.max_power_w - self.tdp_w) * a.tensor_active;
        (self.idle_power_w + sm_term + tc_term).min(self.max_power_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A100: GpuSpec = GpuSpec::a100_sxm_80gb();

    fn power(sm_active: f64, tensor_active: f64, memory_used_gb: f64) -> f64 {
        A100.power_w(GpuActivity {
            sm_active,
            tensor_active,
            memory_used_gb,
        })
    }

    #[test]
    fn idle_draws_idle_power() {
        assert_eq!(A100.power_w(GpuActivity::default()), 60.0);
    }

    #[test]
    fn full_sm_activity_reaches_tdp() {
        assert_eq!(power(1.0, 0.0, 40.0), 400.0);
    }

    #[test]
    fn tensor_activity_exceeds_tdp() {
        let p = power(1.0, 0.8, 60.0);
        assert!(p > 400.0 && p <= 600.0, "p = {p}");
    }

    #[test]
    fn power_is_capped_at_max() {
        assert_eq!(power(1.0, 1.0, 80.0), 600.0);
    }

    #[test]
    fn activity_is_clamped() {
        let wild = GpuActivity {
            sm_active: 2.0,
            tensor_active: 5.0,
            memory_used_gb: 500.0,
        };
        let a = wild.clamped(&A100);
        assert_eq!(a.sm_active, 1.0);
        assert_eq!(a.tensor_active, 1.0);
        assert_eq!(a.memory_used_gb, 80.0);
        // Power reads the clamped activity.
        assert_eq!(A100.power_w(wild), 600.0);
    }

    #[test]
    fn tensor_cannot_exceed_sm() {
        let a = GpuActivity {
            sm_active: 0.3,
            tensor_active: 0.9,
            memory_used_gb: 1.0,
        };
        assert_eq!(a.clamped(&A100).tensor_active, 0.3);
        assert_eq!(A100.power_w(a), power(0.3, 0.3, 1.0));
    }

    #[test]
    fn power_monotone_in_activity() {
        let mut last = 0.0;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let p = power(u, u * 0.5, 0.0);
            assert!(p >= last);
            last = p;
        }
    }
}
