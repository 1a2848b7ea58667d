//! The infrastructure monitor: DCGM/Prometheus/IPMI sampling (§2.3).
//!
//! Samples per-GPU and per-node gauges at the 15-second cadence the
//! paper's monitors use, one vector of [`Samples`] per [`Metric`]. GPU
//! operating points are drawn from per-cluster mixtures calibrated to
//! §3.3–3.4:
//!
//! * ~30% of GPUs idle at ~60 W (Figure 8a);
//! * median SM activity ≈ 40% — twice PAI's 20% (Figure 7a);
//! * 22.1% (Seren) / 12.5% (Kalos) of GPUs above the 400 W TDP, driven by
//!   the heavily optimized tensor-core-saturating jobs;
//! * in Kalos, half the GPUs hold > 60 GB (75%) of framebuffer (Figure 7b);
//! * host CPUs and memory far under-utilized; Seren's IB NICs idle > 60%
//!   of the time and rarely beyond 25% of line rate (Figure 7c/d).
//!
//! GPU temperatures are not stored: they are a function of the sampled
//! power under a cooling scenario ([`acme_cluster::ThermalModel`]), which
//! each reader picks and maps through [`Samples::cdf_of`].

use acme_cluster::{ClusterSpec, GpuActivity, ServerPowerBreakdown};
use acme_sim_core::dist::Categorical;
use acme_sim_core::SimRng;
use acme_telemetry::Cdf;

/// One monitored gauge, named after the DCGM / IPMI field it mirrors. The
/// first four are sampled per GPU, the rest per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `PROF_SM_ACTIVE`: streaming-multiprocessor activity fraction (0–1).
    SmActive,
    /// `PROF_PIPE_TENSOR_ACTIVE`: tensor-core pipe activity fraction (0–1).
    TensorActive,
    /// `DEV_FB_USED`: GPU framebuffer memory used, GB.
    FbUsedGb,
    /// `DEV_POWER_USAGE`: GPU power draw, W.
    GpuPowerW,
    /// `HOST_CPU_UTIL`: host CPU utilization fraction (0–1).
    CpuUtil,
    /// `HOST_MEM_USED`: host memory used, GB.
    HostMemGb,
    /// `IB_SEND_NORM`: IB HCA send bandwidth, normalized 0–1 of line rate.
    /// The links are symmetric, so it is the receive bandwidth too.
    IbSend,
    /// `IPMI_SERVER_POWER`: whole-server power, W.
    ServerPowerW,
}

impl Metric {
    /// Every metric, in declaration (and storage) order.
    const ALL: [Metric; 8] = [
        Metric::SmActive,
        Metric::TensorActive,
        Metric::FbUsedGb,
        Metric::GpuPowerW,
        Metric::CpuUtil,
        Metric::HostMemGb,
        Metric::IbSend,
        Metric::ServerPowerW,
    ];

    /// Sampled once per GPU rather than once per node.
    fn per_gpu(self) -> bool {
        (self as usize) <= Metric::GpuPowerW as usize
    }
}

/// What one [`sample`] call observed: one vector per [`Metric`],
/// entity-major. A sample sits at `entity × rounds + round`, where the
/// entity is the GPU (`node × gpus_per_node + gpu`) for per-GPU metrics
/// and the node for per-node ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    by_metric: [Vec<f64>; Metric::ALL.len()],
}

impl Samples {
    /// Every sample of `metric`, entity-major.
    pub fn values(&self, metric: Metric) -> &[f64] {
        &self.by_metric[metric as usize]
    }

    /// Empirical CDF of every sample of `metric`.
    pub fn cdf(&self, metric: Metric) -> Cdf {
        self.cdf_of(metric, |v| v)
    }

    /// Empirical CDF of `f` over every sample of `metric`: a temperature
    /// of each `GpuPowerW` sample under a cooling scenario, say.
    pub fn cdf_of(&self, metric: Metric, f: impl Fn(f64) -> f64) -> Cdf {
        Cdf::from_samples(self.values(metric).iter().map(|&v| f(v)).collect())
            .expect("sample draws at least one round of one node")
    }
}

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

/// Sample `rounds` monitoring sweeps of `spec`, 15 s apart, over
/// `nodes_sampled` nodes. Each sweep records every GPU of every sampled
/// node plus node-level CPU/memory/IB/power gauges.
pub fn sample(spec: &ClusterSpec, rng: &mut SimRng, nodes_sampled: u32, rounds: u32) -> Samples {
    assert!(nodes_sampled > 0 && rounds > 0, "need nodes and rounds");
    let gpus = spec.node.gpus;
    let node_samples = nodes_sampled as usize * rounds as usize;
    let mut by_metric = Metric::ALL.map(|m| {
        let per_entity = if m.per_gpu() { gpus as usize } else { 1 };
        vec![0.0; node_samples * per_entity]
    });
    let mut put = |m: Metric, entity: u32, round: u32, value: f64| {
        by_metric[m as usize][entity as usize * rounds as usize + round as usize] = value;
    };
    let mixture = GpuMixture::for_cluster(spec);
    let picker = Categorical::new(&[mixture.idle, mixture.busy, mixture.peak]);
    let kalos = spec.name == "Kalos";

    for round in 0..rounds {
        for node_idx in 0..nodes_sampled {
            let mut busy_gpus = 0;
            // The node's GPU watts, summed one GPU at a time as drawn.
            let mut gpus_w = 0.0;
            for g in 0..gpus {
                let gpu_id = node_idx * gpus + g;
                let state = match picker.sample_index(rng) {
                    0 => GpuState::Idle,
                    1 => GpuState::Busy,
                    _ => GpuState::Peak,
                };
                let activity = draw_activity(state, kalos, rng);
                if state != GpuState::Idle {
                    busy_gpus += 1;
                }
                let p = spec.node.gpu.power_w(activity);
                gpus_w += p;
                put(Metric::SmActive, gpu_id, round, activity.sm_active);
                put(Metric::TensorActive, gpu_id, round, activity.tensor_active);
                put(Metric::FbUsedGb, gpu_id, round, activity.memory_used_gb);
                put(Metric::GpuPowerW, gpu_id, round, p);
            }

            // Node-level gauges: 16 CPUs per GPU keeps hosts cool
            // (Figure 7c); dataloaders scale with busy GPUs.
            let cpu = (0.02 + 0.015 * busy_gpus as f64 + rng.f64() * 0.05).min(1.0);
            put(Metric::CpuUtil, node_idx, round, cpu);

            // Host memory: system + FS client + per-busy-GPU working
            // set; far below 50% of either cluster's DRAM.
            let host_gb = 48.0 + 14.0 * busy_gpus as f64 + rng.f64() * 40.0;
            put(Metric::HostMemGb, node_idx, round, host_gb);

            // IB: idle > 60% of samples, active share rarely past 25% of
            // line rate (Figure 7d, Seren).
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
            put(Metric::IbSend, node_idx, round, ib);

            // Whole-server power via IPMI.
            let server_w = ServerPowerBreakdown::new(&spec.node, gpus_w, cpu).total_w();
            put(Metric::ServerPowerW, node_idx, round, server_w);
        }
    }
    Samples { by_metric }
}

fn draw_activity(state: GpuState, kalos: bool, rng: &mut SimRng) -> GpuActivity {
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

#[cfg(test)]
mod tests {
    use super::*;
    use acme_cluster::ThermalModel;

    fn sampled(spec: ClusterSpec, seed: u64) -> Samples {
        sample(&spec, &mut SimRng::new(seed), 64, 8)
    }

    #[test]
    fn sm_activity_median_near_40_percent() {
        for spec in [ClusterSpec::seren(), ClusterSpec::kalos()] {
            let s = sampled(spec, 1);
            let med = s.cdf(Metric::SmActive).median();
            // §3.3: "median SM activity in both clusters is approximately 40%".
            assert!((0.30..0.55).contains(&med), "median SM {med:.2}");
        }
    }

    #[test]
    fn kalos_memory_half_above_60gb() {
        let s = sampled(ClusterSpec::kalos(), 2);
        let cdf = s.cdf(Metric::FbUsedGb);
        let above_60 = 1.0 - cdf.fraction_le(60.0);
        // §3.3: "50% of GPUs consume over 75% of GPU memory (60 GB)".
        assert!(
            (0.40..0.60).contains(&above_60),
            "share above 60 GB {above_60:.2}"
        );
    }

    #[test]
    fn power_distribution_matches_fig8a() {
        let seren = sampled(ClusterSpec::seren(), 3);
        let kalos = sampled(ClusterSpec::kalos(), 4);
        let idle_share = |s: &Samples| s.cdf(Metric::GpuPowerW).fraction_le(65.0);
        let over_tdp = |s: &Samples| 1.0 - s.cdf(Metric::GpuPowerW).fraction_le(400.0);
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
        assert!(seren.cdf(Metric::GpuPowerW).max() <= 600.0);
    }

    #[test]
    fn associated_resources_underutilized() {
        let s = sampled(ClusterSpec::seren(), 5);
        // CPU utilization low (Figure 7c).
        let cpu_med = s.cdf(Metric::CpuUtil).median();
        assert!(cpu_med < 0.25, "median CPU {cpu_med:.2}");
        // Host memory below 50% of 1 TB (Figure 7b).
        let mem = s.cdf(Metric::HostMemGb);
        assert!(
            mem.quantile(0.95) < 512.0,
            "p95 host mem {:.0} GB",
            mem.quantile(0.95)
        );
        // IB idle > 60% of the time, active rarely past 25% of line rate.
        let ib = s.cdf(Metric::IbSend);
        assert!(
            ib.fraction_le(0.001) > 0.55,
            "idle share {:.2}",
            ib.fraction_le(0.001)
        );
        assert!(ib.fraction_le(0.25) > 0.9);
    }

    #[test]
    fn temperatures_track_fig21() {
        let s = sampled(ClusterSpec::seren(), 7);
        let thermal = ThermalModel::normal();
        let core = s.cdf_of(Metric::GpuPowerW, |p| thermal.core_temp_c(p));
        let mem = s.cdf_of(Metric::GpuPowerW, |p| thermal.memory_temp_c(p));
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
        // One sweep: the draws never read the cooling.
        let s = sample(&ClusterSpec::kalos(), &mut SimRng::new(8), 64, 4);
        let hot = |m: ThermalModel| {
            1.0 - s
                .cdf_of(Metric::GpuPowerW, |p| m.memory_temp_c(p))
                .fraction_le(65.0)
        };
        let (normal, wave) = (hot(ThermalModel::normal()), hot(ThermalModel::heat_wave()));
        assert!(wave > normal + 0.05, "wave {wave:.2} vs normal {normal:.2}");
    }

    #[test]
    fn server_power_plausible() {
        let s = sampled(ClusterSpec::seren(), 9);
        let p = s.cdf(Metric::ServerPowerW);
        // 8×A100 servers: between ~1 kW idle-ish and ~6.5 kW flat out.
        assert!(p.min() > 800.0, "min {:.0}", p.min());
        assert!(p.max() < 7000.0, "max {:.0}", p.max());
        assert!(p.median() > 2000.0);
    }

    #[test]
    fn deterministic_sampling() {
        let spec = ClusterSpec::seren();
        let mut a = SimRng::new(10);
        let mut b = SimRng::new(10);
        assert_eq!(sample(&spec, &mut a, 8, 2), sample(&spec, &mut b, 8, 2));
    }

    #[test]
    fn samples_are_entity_major() {
        // Round 0 draws first, so a one-round sweep equals round 0 of a
        // two-round sweep from the same seed: each entity's samples sit
        // together, at `entity × rounds + round`.
        let spec = ClusterSpec::kalos();
        let one = sample(&spec, &mut SimRng::new(11), 8, 1);
        let two = sample(&spec, &mut SimRng::new(11), 8, 2);
        for metric in Metric::ALL {
            let entities = if metric.per_gpu() { 64 } else { 8 };
            assert_eq!(one.values(metric).len(), entities);
            assert_eq!(two.values(metric).len(), 2 * entities);
            for e in 0..entities {
                assert_eq!(two.values(metric)[2 * e], one.values(metric)[e]);
            }
        }
    }
}
