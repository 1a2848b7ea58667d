//! The infrastructure monitor: DCGM/Prometheus/IPMI sampling (§2.3).
//!
//! Samples per-GPU and per-node state into an [`acme_telemetry::MetricStore`]
//! at the 15-second cadence the paper's monitors use. GPU operating points
//! are drawn from per-cluster mixtures calibrated to §3.3–3.4:
//!
//! * ~30% of GPUs idle at ~60 W (Figure 8a);
//! * median SM activity ≈ 40% — twice PAI's 20% (Figure 7a);
//! * 22.1% (Seren) / 12.5% (Kalos) of GPUs above the 400 W TDP, driven by
//!   the heavily optimized tensor-core-saturating jobs;
//! * in Kalos, half the GPUs hold > 60 GB (75%) of framebuffer (Figure 7b);
//! * host CPUs and memory far under-utilized; Seren's IB NICs idle > 60%
//!   of the time and rarely beyond 25% of line rate (Figure 7c/d).

use acme_cluster::{ClusterSpec, GpuActivity, GpuDevice, ServerPowerModel, ThermalModel};
use acme_sim_core::dist::Categorical;
use acme_sim_core::{SimRng, SimTime};
use acme_telemetry::counters::metric;
use acme_telemetry::series::MONITOR_CADENCE;
use acme_telemetry::MetricStore;

/// Which operating regime a sampled GPU is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GpuState {
    /// Allocated-but-idle or unallocated.
    Idle,
    /// Ordinary training/inference work.
    Busy,
    /// Heavily optimized large-scale pretraining (tensor cores saturated).
    Peak,
}

/// Per-cluster mixture weights for the GPU operating regimes.
#[derive(Debug, Clone, Copy)]
struct GpuMixture {
    idle: f64,
    busy: f64,
    peak: f64,
}

impl GpuMixture {
    fn for_cluster(spec: &ClusterSpec) -> GpuMixture {
        match spec.name {
            // Figure 8a: 22.1% of Seren GPUs above TDP, 12.5% of Kalos'.
            "Seren" => GpuMixture {
                idle: 0.30,
                busy: 0.479,
                peak: 0.221,
            },
            "Kalos" => GpuMixture {
                idle: 0.28,
                busy: 0.595,
                peak: 0.125,
            },
            _ => GpuMixture {
                idle: 0.3,
                busy: 0.5,
                peak: 0.2,
            },
        }
    }
}

/// Samples cluster state into a metric store.
#[derive(Debug)]
pub struct ClusterMonitor {
    spec: ClusterSpec,
    thermal: ThermalModel,
    power: ServerPowerModel,
}

impl ClusterMonitor {
    /// A monitor for one cluster at the design-point cooling.
    pub fn new(spec: ClusterSpec) -> Self {
        ClusterMonitor {
            spec,
            thermal: ThermalModel::normal(),
            power: ServerPowerModel::default(),
        }
    }

    /// Replace the thermal model (heat-wave / upgraded-cooling scenarios).
    pub fn with_thermal(mut self, thermal: ThermalModel) -> Self {
        self.thermal = thermal;
        self
    }

    /// The cluster being monitored.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Sample `rounds` monitoring sweeps over `nodes_sampled` nodes into a
    /// fresh store. Each sweep records every GPU of every sampled node plus
    /// node-level CPU/memory/IB/power gauges, 15 s apart.
    pub fn sample(&self, rng: &mut SimRng, nodes_sampled: u32, rounds: u32) -> MetricStore {
        assert!(nodes_sampled > 0 && rounds > 0, "need nodes and rounds");
        let mut store = MetricStore::new();
        let mixture = GpuMixture::for_cluster(&self.spec);
        let picker = Categorical::new(&[mixture.idle, mixture.busy, mixture.peak]);
        let kalos = self.spec.name == "Kalos";

        // One scratch node reused across every window: each iteration
        // rewrites every GPU's activity and all node-level gauges, so
        // reusing the buffers is safe and avoids a per-node-per-round
        // allocation over the six simulated months of 15 s windows.
        let mut node = acme_cluster::Node::new(self.spec.node);

        for round in 0..rounds {
            let t = SimTime::ZERO + MONITOR_CADENCE * round as u64;
            for node_idx in 0..nodes_sampled {
                let mut busy_gpus = 0;
                for g in 0..self.spec.node.gpus {
                    let gpu_id = node_idx * self.spec.node.gpus + g;
                    let state = match picker.sample_index(rng) {
                        0 => GpuState::Idle,
                        1 => GpuState::Busy,
                        _ => GpuState::Peak,
                    };
                    let activity = self.draw_activity(state, kalos, rng);
                    if state != GpuState::Idle {
                        busy_gpus += 1;
                    }
                    node.gpu_mut(g as usize).set_activity(activity);
                    let dev: &GpuDevice = &node.gpus()[g as usize];
                    let p = dev.power_w();
                    store.record(metric::SM_ACTIVE, gpu_id, t, activity.sm_active);
                    store.record(metric::TENSOR_ACTIVE, gpu_id, t, activity.tensor_active);
                    store.record(metric::FB_USED_GB, gpu_id, t, activity.memory_used_gb);
                    store.record(metric::GPU_POWER_W, gpu_id, t, p);
                    store.record(metric::GPU_TEMP_C, gpu_id, t, self.thermal.core_temp_c(p));
                    store.record(
                        metric::GPU_MEM_TEMP_C,
                        gpu_id,
                        t,
                        self.thermal.memory_temp_c(p),
                    );
                }

                // Node-level gauges: 16 CPUs per GPU keeps hosts cool
                // (Figure 7c); dataloaders scale with busy GPUs.
                let cpu = (0.02 + 0.015 * busy_gpus as f64 + rng.f64() * 0.05).min(1.0);
                node.set_cpu_util(cpu);
                store.record(metric::CPU_UTIL, node_idx, t, cpu);

                // Host memory: system + FS client + per-busy-GPU working
                // set; far below 50% of either cluster's DRAM.
                let host_gb = 48.0 + 14.0 * busy_gpus as f64 + rng.f64() * 40.0;
                store.record(metric::HOST_MEM_GB, node_idx, t, host_gb);

                // IB: symmetric; idle > 60% of samples, active share rarely
                // past 25% of line rate (Figure 7d, Seren).
                let ib = if rng.chance(0.62) {
                    0.0
                } else {
                    let base = rng.f64().powi(2) * 0.25;
                    if rng.chance(0.03) {
                        base + rng.f64() * 0.4
                    } else {
                        base
                    }
                };
                node.set_ib_bandwidth(ib, ib);
                store.record(metric::IB_SEND, node_idx, t, ib);
                store.record(metric::IB_RECV, node_idx, t, ib);

                // Whole-server power via IPMI.
                let server_w = self.power.breakdown(&node).total_w();
                store.record(metric::SERVER_POWER_W, node_idx, t, server_w);
            }
        }
        store
    }

    fn draw_activity(&self, state: GpuState, kalos: bool, rng: &mut SimRng) -> GpuActivity {
        match state {
            GpuState::Idle => GpuActivity {
                sm_active: rng.f64() * 0.01,
                tensor_active: 0.0,
                memory_used_gb: rng.f64() * 2.0,
            },
            GpuState::Busy => {
                let sm = rng.range_f64(0.25, 0.75);
                let mem = if kalos {
                    // Kalos: 50% of all GPUs above 60 GB → most busy GPUs
                    // sit high in the framebuffer.
                    if rng.chance(0.72) {
                        rng.range_f64(60.0, 79.0)
                    } else {
                        rng.range_f64(15.0, 60.0)
                    }
                } else {
                    rng.range_f64(15.0, 75.0)
                };
                GpuActivity {
                    sm_active: sm,
                    tensor_active: sm * rng.range_f64(0.2, 0.6),
                    memory_used_gb: mem,
                }
            }
            GpuState::Peak => {
                let sm = rng.range_f64(0.88, 1.0);
                GpuActivity {
                    sm_active: sm,
                    tensor_active: rng.range_f64(0.35, 0.95).min(sm),
                    memory_used_gb: rng.range_f64(60.0, 79.5),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(spec: ClusterSpec, seed: u64) -> MetricStore {
        let mut rng = SimRng::new(seed);
        ClusterMonitor::new(spec).sample(&mut rng, 64, 8)
    }

    #[test]
    fn sm_activity_median_near_40_percent() {
        for spec in [ClusterSpec::seren(), ClusterSpec::kalos()] {
            let s = store(spec, 1);
            let med = s.cdf(metric::SM_ACTIVE).unwrap().median();
            // §3.3: "median SM activity in both clusters is approximately 40%".
            assert!((0.30..0.55).contains(&med), "median SM {med:.2}");
        }
    }

    #[test]
    fn kalos_memory_half_above_60gb() {
        let s = store(ClusterSpec::kalos(), 2);
        let cdf = s.cdf(metric::FB_USED_GB).unwrap();
        let above_60 = 1.0 - cdf.fraction_le(60.0);
        // §3.3: "50% of GPUs consume over 75% of GPU memory (60 GB)".
        assert!(
            (0.40..0.60).contains(&above_60),
            "share above 60 GB {above_60:.2}"
        );
    }

    #[test]
    fn power_distribution_matches_fig8a() {
        let seren = store(ClusterSpec::seren(), 3);
        let kalos = store(ClusterSpec::kalos(), 4);
        let idle_share = |s: &MetricStore| s.cdf(metric::GPU_POWER_W).unwrap().fraction_le(65.0);
        let over_tdp =
            |s: &MetricStore| 1.0 - s.cdf(metric::GPU_POWER_W).unwrap().fraction_le(400.0);
        // ~30% of GPUs idle around 60 W.
        assert!(
            (0.22..0.38).contains(&idle_share(&seren)),
            "{}",
            idle_share(&seren)
        );
        // 22.1% / 12.5% above TDP.
        let s_tdp = over_tdp(&seren);
        let k_tdp = over_tdp(&kalos);
        assert!((0.16..0.28).contains(&s_tdp), "Seren over-TDP {s_tdp:.3}");
        assert!((0.08..0.17).contains(&k_tdp), "Kalos over-TDP {k_tdp:.3}");
        assert!(s_tdp > k_tdp);
        // Nothing beyond the 600 W ceiling.
        assert!(seren.cdf(metric::GPU_POWER_W).unwrap().max() <= 600.0);
    }

    #[test]
    fn associated_resources_underutilized() {
        let s = store(ClusterSpec::seren(), 5);
        // CPU utilization low (Figure 7c).
        let cpu_med = s.cdf(metric::CPU_UTIL).unwrap().median();
        assert!(cpu_med < 0.25, "median CPU {cpu_med:.2}");
        // Host memory below 50% of 1 TB (Figure 7b).
        let mem = s.cdf(metric::HOST_MEM_GB).unwrap();
        assert!(
            mem.quantile(0.95) < 512.0,
            "p95 host mem {:.0} GB",
            mem.quantile(0.95)
        );
        // IB idle > 60% of the time, active rarely past 25% of line rate.
        let ib = s.cdf(metric::IB_SEND).unwrap();
        assert!(
            ib.fraction_le(0.001) > 0.55,
            "idle share {:.2}",
            ib.fraction_le(0.001)
        );
        assert!(ib.fraction_le(0.25) > 0.9);
    }

    #[test]
    fn ib_send_and_recv_symmetric() {
        let s = store(ClusterSpec::seren(), 6);
        let send = s.cdf(metric::IB_SEND).unwrap();
        let recv = s.cdf(metric::IB_RECV).unwrap();
        for q in [0.25, 0.5, 0.75, 0.9] {
            assert!((send.quantile(q) - recv.quantile(q)).abs() < 1e-9);
        }
    }

    #[test]
    fn temperatures_track_fig21() {
        let s = store(ClusterSpec::seren(), 7);
        let core = s.cdf(metric::GPU_TEMP_C).unwrap();
        let mem = s.cdf(metric::GPU_MEM_TEMP_C).unwrap();
        // Memory runs hotter than core at every quantile.
        for q in [0.1, 0.5, 0.9] {
            assert!(mem.quantile(q) > core.quantile(q));
        }
        // Some GPUs exceed 65 °C under heavy load.
        assert!(mem.max() > 65.0);
        // Idle GPUs stay cool.
        assert!(core.min() < 35.0);
    }

    #[test]
    fn heat_wave_raises_overheat_share() {
        let mut r1 = SimRng::new(8);
        let mut r2 = SimRng::new(8);
        let normal = ClusterMonitor::new(ClusterSpec::kalos()).sample(&mut r1, 64, 4);
        let wave = ClusterMonitor::new(ClusterSpec::kalos())
            .with_thermal(ThermalModel::heat_wave())
            .sample(&mut r2, 64, 4);
        let hot = |s: &MetricStore| 1.0 - s.cdf(metric::GPU_MEM_TEMP_C).unwrap().fraction_le(65.0);
        assert!(
            hot(&wave) > hot(&normal) + 0.05,
            "wave {:.2} vs normal {:.2}",
            hot(&wave),
            hot(&normal)
        );
    }

    #[test]
    fn server_power_plausible() {
        let s = store(ClusterSpec::seren(), 9);
        let p = s.cdf(metric::SERVER_POWER_W).unwrap();
        // 8×A100 servers: between ~1 kW idle-ish and ~6.5 kW flat out.
        assert!(p.min() > 800.0, "min {:.0}", p.min());
        assert!(p.max() < 7000.0, "max {:.0}", p.max());
        assert!(p.median() > 2000.0);
    }

    #[test]
    fn deterministic_sampling() {
        let mut a = SimRng::new(10);
        let mut b = SimRng::new(10);
        let m = ClusterMonitor::new(ClusterSpec::seren());
        let s1 = m.sample(&mut a, 8, 2);
        let s2 = m.sample(&mut b, 8, 2);
        assert_eq!(
            s1.all_values(metric::GPU_POWER_W),
            s2.all_values(metric::GPU_POWER_W)
        );
    }
}
