//! The per-GPU activity → power model.
//!
//! DCGM exposes SM activity and tensor-pipe activity as fractions; the
//! paper's Figure 8(a) shows idle GPUs pinned at ~60 W, 12–22% of GPUs above
//! the 400 W TDP, and a tail reaching 600 W. We model power as an affine
//! function of SM activity up to TDP, with tensor-core activity pushing the
//! draw into the above-TDP region — matching the observation that the
//! over-TDP GPUs are the ones running dense, highly optimized LLM kernels.

use crate::spec::GpuSpec;

/// An instantaneous activity snapshot for one GPU.
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
    /// A fully idle GPU.
    pub const IDLE: GpuActivity = GpuActivity {
        sm_active: 0.0,
        tensor_active: 0.0,
        memory_used_gb: 0.0,
    };

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

/// One GPU: spec plus current activity.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    activity: GpuActivity,
}

impl GpuDevice {
    /// A new, idle device.
    pub fn new(spec: GpuSpec) -> Self {
        GpuDevice {
            spec,
            activity: GpuActivity::IDLE,
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current activity.
    pub fn activity(&self) -> GpuActivity {
        self.activity
    }

    /// Replace the activity snapshot (clamped to physical ranges).
    pub fn set_activity(&mut self, activity: GpuActivity) {
        self.activity = activity.clamped(&self.spec);
    }

    /// Instantaneous power draw, W.
    ///
    /// * idle → `idle_power_w` (~60 W);
    /// * SM activity alone scales linearly toward TDP;
    /// * tensor-pipe activity adds the above-TDP excursion, capped at
    ///   `max_power_w` (~600 W).
    pub fn power_w(&self) -> f64 {
        let s = &self.spec;
        let sm_term = (s.tdp_w - s.idle_power_w) * self.activity.sm_active;
        let tc_term = (s.max_power_w - s.tdp_w) * self.activity.tensor_active;
        (s.idle_power_w + sm_term + tc_term).min(s.max_power_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn dev() -> GpuDevice {
        GpuDevice::new(GpuSpec::a100_sxm_80gb())
    }

    #[test]
    fn idle_draws_idle_power() {
        let g = dev();
        assert_eq!(g.activity(), GpuActivity::IDLE);
        assert_eq!(g.power_w(), 60.0);
    }

    #[test]
    fn full_sm_activity_reaches_tdp() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 1.0,
            tensor_active: 0.0,
            memory_used_gb: 40.0,
        });
        assert_eq!(g.power_w(), 400.0);
    }

    #[test]
    fn tensor_activity_exceeds_tdp() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 1.0,
            tensor_active: 0.8,
            memory_used_gb: 60.0,
        });
        let p = g.power_w();
        assert!(p > 400.0 && p <= 600.0, "p = {p}");
    }

    #[test]
    fn power_is_capped_at_max() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 1.0,
            tensor_active: 1.0,
            memory_used_gb: 80.0,
        });
        assert_eq!(g.power_w(), 600.0);
    }

    #[test]
    fn activity_is_clamped() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 2.0,
            tensor_active: 5.0,
            memory_used_gb: 500.0,
        });
        let a = g.activity();
        assert_eq!(a.sm_active, 1.0);
        assert_eq!(a.tensor_active, 1.0);
        assert_eq!(a.memory_used_gb, 80.0);
    }

    #[test]
    fn tensor_cannot_exceed_sm() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 0.3,
            tensor_active: 0.9,
            memory_used_gb: 1.0,
        });
        assert_eq!(g.activity().tensor_active, 0.3);
    }

    #[test]
    fn release_returns_to_idle() {
        let mut g = dev();
        g.set_activity(GpuActivity {
            sm_active: 0.5,
            tensor_active: 0.1,
            memory_used_gb: 10.0,
        });
        g.set_activity(GpuActivity::IDLE);
        assert_eq!(g.activity(), GpuActivity::IDLE);
        assert_eq!(g.power_w(), 60.0);
    }

    #[test]
    fn power_monotone_in_activity() {
        let mut g = dev();
        let mut last = 0.0;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            g.set_activity(GpuActivity {
                sm_active: u,
                tensor_active: u * 0.5,
                memory_used_gb: 0.0,
            });
            let p = g.power_w();
            assert!(p >= last);
            last = p;
        }
    }
}
