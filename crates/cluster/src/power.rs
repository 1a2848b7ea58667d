//! Server- and datacenter-level power accounting.
//!
//! Calibrated to §3.4 and Appendix A.3:
//!
//! * Figure 9 — in a Seren GPU server, GPUs draw ≈ 2/3 of total power, CPUs
//!   11.2%, the PSU loses 9.6% in conversion, and the remainder goes to
//!   DRAM, fans, NICs and drives;
//! * Figure 8(b) — GPU servers average ≈ 5× the power of CPU-only servers;
//! * Appendix A.3 — PUE 1.25, 30.61% carbon-free energy, 0.478 tCO₂e/MWh,
//!   Seren ≈ 673 MWh in May 2023 → 321.7 tCO₂e effective emissions.

use crate::spec::NodeSpec;

// The affine per-component server model, calibrated so that an *average*
// busy Seren node lands on the Figure-9 split: GPUs ≈ 2/3, CPUs ≈ 11.2%,
// PSU ≈ 9.6%.
/// CPU package idle power (both sockets), W.
const CPU_IDLE_W: f64 = 200.0;
/// CPU package max additional power at 100% utilization, W.
const CPU_DYNAMIC_W: f64 = 420.0;
/// DRAM power, W (roughly constant for registered DIMMs).
const MEMORY_W: f64 = 240.0;
/// Fan power at idle, W.
const FANS_IDLE_W: f64 = 60.0;
/// Additional fan power at full thermal load, W.
const FANS_DYNAMIC_W: f64 = 90.0;
/// Peripheral power, W.
const OTHER_W: f64 = 60.0;
/// PSU conversion-loss fraction of delivered power.
const PSU_LOSS_FRACTION: f64 = 0.106;

/// Datacenter power usage effectiveness (Appendix A.3).
pub const PUE: f64 = 1.25;
/// Fraction of energy from carbon-free sources (informational; already
/// folded into [`TCO2E_PER_MWH`]).
pub const CARBON_FREE_FRACTION: f64 = 0.3061;
/// *Effective* emission rate, tCO₂e per MWh consumed. The appendix
/// multiplies the measured energy directly by this rate, the footprint the
/// datacenter achieves after its 30.61% carbon-free mix (673 MWh → 321.7
/// tCO₂e).
pub const TCO2E_PER_MWH: f64 = 0.478;

/// Instantaneous power split for one GPU server, W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerBreakdown {
    /// All GPUs.
    pub gpus_w: f64,
    /// Both CPU packages.
    pub cpus_w: f64,
    /// DRAM.
    pub memory_w: f64,
    /// Fans and cooling internals.
    pub fans_w: f64,
    /// NICs, drives, BMC and other peripherals.
    pub other_w: f64,
    /// PSU conversion loss.
    pub psu_loss_w: f64,
}

impl ServerPowerBreakdown {
    /// The split for a server built to `node` whose GPUs draw `gpus_w` in
    /// total while its CPUs run at `cpu_util` (clamped to 0–1).
    pub fn new(node: &NodeSpec, gpus_w: f64, cpu_util: f64) -> Self {
        let cpus_w = CPU_IDLE_W + CPU_DYNAMIC_W * cpu_util.clamp(0.0, 1.0);
        // Fans track the thermal load, dominated by the GPUs.
        let max_gpu_w = node.gpus as f64 * node.gpu.max_power_w;
        let fans_w = FANS_IDLE_W + FANS_DYNAMIC_W * (gpus_w / max_gpu_w);
        let delivered = gpus_w + cpus_w + MEMORY_W + fans_w + OTHER_W;
        ServerPowerBreakdown {
            gpus_w,
            cpus_w,
            memory_w: MEMORY_W,
            fans_w,
            other_w: OTHER_W,
            psu_loss_w: delivered * PSU_LOSS_FRACTION,
        }
    }

    /// Wall power: everything including conversion loss.
    pub fn total_w(&self) -> f64 {
        self.gpus_w + self.cpus_w + self.memory_w + self.fans_w + self.other_w + self.psu_loss_w
    }

    /// `(label, watts, fraction_of_total)` rows for rendering Figure 9.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let total = self.total_w();
        [
            ("GPUs", self.gpus_w),
            ("CPUs", self.cpus_w),
            ("memory", self.memory_w),
            ("fans", self.fans_w),
            ("other", self.other_w),
            ("PSU loss", self.psu_loss_w),
        ]
        .into_iter()
        .map(|(name, w)| (name, w, w / total))
        .collect()
    }
}

/// Power of a CPU-only server at the given utilization (clamped to 0–1),
/// W. Figure 8(b) includes six such servers in Seren at ≈ 1/5 of
/// GPU-server power.
pub fn cpu_server_w(cpu_util: f64) -> f64 {
    let delivered =
        CPU_IDLE_W + CPU_DYNAMIC_W * cpu_util.clamp(0.0, 1.0) + MEMORY_W + FANS_IDLE_W + OTHER_W;
    delivered * (1.0 + PSU_LOSS_FRACTION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuActivity;
    use crate::spec::ClusterSpec;

    /// A server whose eight GPUs all run at `activity`, summed one GPU at a
    /// time.
    fn server(activity: GpuActivity, cpu_util: f64) -> ServerPowerBreakdown {
        let node = ClusterSpec::seren().node;
        let gpus_w = (0..node.gpus).map(|_| node.gpu.power_w(activity)).sum();
        ServerPowerBreakdown::new(&node, gpus_w, cpu_util)
    }

    /// A server at the cluster's *average* operating point — Figure 9
    /// reports the average power split, which folds in partially idle GPUs.
    fn busy_server() -> ServerPowerBreakdown {
        let activity = GpuActivity {
            sm_active: 0.7,
            tensor_active: 0.15,
            memory_used_gb: 62.0,
        };
        server(activity, 0.55)
    }

    #[test]
    fn busy_server_matches_figure9_split() {
        let b = busy_server();
        let total = b.total_w();
        let gpu_frac = b.gpus_w / total;
        let cpu_frac = b.cpus_w / total;
        let psu_frac = b.psu_loss_w / total;
        assert!(
            (gpu_frac - 2.0 / 3.0).abs() < 0.05,
            "gpu share {gpu_frac:.3}"
        );
        assert!((cpu_frac - 0.112).abs() < 0.03, "cpu share {cpu_frac:.3}");
        assert!((psu_frac - 0.096).abs() < 0.02, "psu share {psu_frac:.3}");
    }

    #[test]
    fn rows_sum_to_total() {
        let b = busy_server();
        let sum: f64 = b.rows().iter().map(|&(_, w, _)| w).sum();
        assert!((sum - b.total_w()).abs() < 1e-9);
        let frac_sum: f64 = b.rows().iter().map(|&(_, _, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_server_roughly_5x_cpu_server() {
        let ratio = busy_server().total_w() / cpu_server_w(0.3);
        assert!((4.0..7.0).contains(&ratio), "ratio = {ratio:.2}");
    }

    #[test]
    fn idle_server_draws_much_less() {
        let idle = server(GpuActivity::default(), 0.0);
        let busy = busy_server().total_w();
        // 8 idle A100s at 60 W.
        assert_eq!(idle.gpus_w, 480.0);
        assert!(
            idle.total_w() < busy * 0.4,
            "idle {:.0} vs busy {busy:.0}",
            idle.total_w()
        );
        // Idle still pays the 8×60 W GPU floor.
        assert!(idle.total_w() > 480.0);
    }

    #[test]
    fn clamps_cpu() {
        let node = ClusterSpec::seren().node;
        let at = |util| ServerPowerBreakdown::new(&node, 480.0, util);
        assert_eq!(at(3.0), at(1.0));
        assert_eq!(at(-1.0), at(0.0));
        assert_eq!(cpu_server_w(3.0), cpu_server_w(1.0));
        assert_eq!(cpu_server_w(-1.0), cpu_server_w(0.0));
        assert!(cpu_server_w(1.0) > cpu_server_w(0.0));
    }

    #[test]
    fn carbon_model_reproduces_appendix_a3() {
        // Seren consumed ≈ 673 MWh in May 2023 → 321.7 tCO₂e effective.
        let t = 673.0 * TCO2E_PER_MWH;
        assert!((t - 321.7).abs() < 1.0, "tCO2e = {t:.1}");
        assert_eq!(100.0 * PUE, 125.0);
    }
}
