//! Property-based tests for the hardware models.

use acme_cluster::comm::{Collective, FabricSpec};
use acme_cluster::{GpuActivity, GpuSpec, SharedStorage, ThermalModel};
use proptest::prelude::*;

proptest! {
    /// GPU power always lies within the physical envelope and is monotone
    /// in SM activity for fixed tensor activity.
    #[test]
    fn power_within_envelope(sm in 0.0f64..=1.0, tc in 0.0f64..=1.0, mem in 0.0f64..100.0) {
        let spec = GpuSpec::a100_sxm_80gb();
        let p = spec.power_w(GpuActivity { sm_active: sm, tensor_active: tc, memory_used_gb: mem });
        prop_assert!((60.0..=600.0).contains(&p));
        // Monotone in sm.
        let half = GpuActivity { sm_active: (sm * 0.5).min(sm), tensor_active: tc, memory_used_gb: mem };
        prop_assert!(spec.power_w(half) <= p + 1e-9);
    }

    /// Thermal model: memory ≥ core, both monotone in power, cooling
    /// factor reduces temperature.
    #[test]
    fn thermal_monotone(p1 in 60.0f64..600.0, p2 in 60.0f64..600.0) {
        let m = ThermalModel::normal();
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(m.core_temp_c(lo) <= m.core_temp_c(hi));
        prop_assert!(m.memory_temp_c(lo) >= m.core_temp_c(lo));
        let upgraded = ThermalModel::upgraded_cooling();
        prop_assert!(upgraded.memory_temp_c(hi) < m.memory_temp_c(hi));
    }

    /// Storage: per-trial speed never increases with concurrency and never
    /// exceeds the single-stream cap.
    #[test]
    fn storage_speed_monotone(trials in 1u32..64, nodes in 1u32..32) {
        let s = SharedStorage::seren();
        let v = s.per_trial_speed_gbps(trials, nodes);
        prop_assert!(v > 0.0 && v <= s.single_stream_gbps + 1e-12);
        let v_more = s.per_trial_speed_gbps(trials + 1, nodes);
        prop_assert!(v_more <= v + 1e-12);
        // Load time is consistent with speed.
        let t = s.remote_load_secs(14.0, trials, nodes);
        prop_assert!((t - 14.0 / v).abs() < 1e-9);
    }

    /// Collectives: time is positive, monotone in bytes, and allreduce
    /// dominates allgather at the same size.
    #[test]
    fn collective_time_sane(bytes in 1.0f64..1e10, gpus in 2u32..2048) {
        let f = FabricSpec::kalos();
        let ar = f.collective_secs(Collective::AllReduce, bytes, gpus);
        let ag = f.collective_secs(Collective::AllGather, bytes, gpus);
        prop_assert!(ar > 0.0 && ag > 0.0);
        prop_assert!(ar >= ag - 1e-12);
        let bigger = f.collective_secs(Collective::AllReduce, bytes * 2.0, gpus);
        prop_assert!(bigger >= ar);
    }
}
