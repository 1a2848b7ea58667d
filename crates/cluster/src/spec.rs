//! Static hardware specifications — Table 1 of the paper.

/// Which production scheduler fronts the cluster (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Seren runs atop Slurm.
    Slurm,
    /// Kalos runs atop Kubernetes.
    Kubernetes,
}

/// One GPU model. Acme is homogeneous: NVIDIA A100-SXM 80 GB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Framebuffer capacity, GB.
    pub memory_gb: f64,
    /// Idle draw, W (the paper observes idle A100s at ~60 W).
    pub idle_power_w: f64,
    /// Thermal design power, W.
    pub tdp_w: f64,
    /// Observed worst-case draw, W (the paper sees up to 600 W).
    pub max_power_w: f64,
    /// Dense BF16 tensor throughput, TFLOP/s (with sparsity off).
    pub peak_tflops_bf16: f64,
}

impl GpuSpec {
    /// The A100-SXM 80 GB every Acme node carries.
    pub const fn a100_sxm_80gb() -> Self {
        GpuSpec {
            name: "NVIDIA A100-SXM 80GB",
            memory_gb: 80.0,
            idle_power_w: 60.0,
            tdp_w: 400.0,
            max_power_w: 600.0,
            peak_tflops_bf16: 312.0,
        }
    }
}

/// Per-node hardware (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Logical CPUs (2× Xeon Platinum 8358P = 128 threads).
    pub cpus: u32,
    /// GPUs per node.
    pub gpus: u32,
    /// Host DRAM, GB.
    pub host_memory_gb: f64,
    /// Application-facing InfiniBand HCAs.
    pub ib_hcas: u32,
    /// Line rate per HCA, Gb/s.
    pub ib_gbps_per_hca: f64,
    /// Whether a dedicated storage HCA exists (Kalos) or storage shares a
    /// 25 Gb/s NIC (Seren, per Figure 16).
    pub dedicated_storage_hca: bool,
    /// Storage NIC bandwidth, Gb/s.
    pub storage_nic_gbps: f64,
    /// GPU model.
    pub gpu: GpuSpec,
}

impl NodeSpec {
    /// Total application IB bandwidth, Gb/s.
    pub fn total_ib_gbps(&self) -> f64 {
        self.ib_hcas as f64 * self.ib_gbps_per_hca
    }

    /// CPU-to-GPU ratio; the paper notes 16 CPUs per GPU drives the CPU
    /// underutilization of Figure 7(c).
    pub fn cpus_per_gpu(&self) -> f64 {
        self.cpus as f64 / self.gpus as f64
    }
}

/// A whole cluster (one column of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name.
    pub name: &'static str,
    /// Node count.
    pub nodes: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Production scheduler fronting this cluster.
    pub scheduler: SchedulerKind,
}

impl ClusterSpec {
    /// Seren: 286 nodes × 8 A100, 1 TB host memory, one 200 Gb/s HCA,
    /// storage over a shared 25 Gb/s NIC, Slurm.
    pub fn seren() -> Self {
        ClusterSpec {
            name: "Seren",
            nodes: 286,
            node: NodeSpec {
                cpus: 128,
                gpus: 8,
                host_memory_gb: 1024.0,
                ib_hcas: 1,
                ib_gbps_per_hca: 200.0,
                dedicated_storage_hca: false,
                storage_nic_gbps: 25.0,
                gpu: GpuSpec::a100_sxm_80gb(),
            },
            scheduler: SchedulerKind::Slurm,
        }
    }

    /// Kalos: 302 nodes × 8 A100, 2 TB host memory, four application HCAs
    /// plus one dedicated storage HCA (all 200 Gb/s), Kubernetes.
    pub fn kalos() -> Self {
        ClusterSpec {
            name: "Kalos",
            nodes: 302,
            node: NodeSpec {
                cpus: 128,
                gpus: 8,
                host_memory_gb: 2048.0,
                ib_hcas: 4,
                ib_gbps_per_hca: 200.0,
                dedicated_storage_hca: true,
                storage_nic_gbps: 200.0,
                gpu: GpuSpec::a100_sxm_80gb(),
            },
            scheduler: SchedulerKind::Kubernetes,
        }
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.node.gpus
    }

    /// Both Acme clusters, Seren first.
    pub fn acme() -> [ClusterSpec; 2] {
        [ClusterSpec::seren(), ClusterSpec::kalos()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_seren() {
        let s = ClusterSpec::seren();
        assert_eq!(s.nodes, 286);
        assert_eq!(s.node.cpus, 128);
        assert_eq!(s.node.gpus, 8);
        assert_eq!(s.node.host_memory_gb, 1024.0);
        assert_eq!(s.node.total_ib_gbps(), 200.0);
        assert_eq!(s.scheduler, SchedulerKind::Slurm);
        assert_eq!(s.total_gpus(), 2288);
    }

    #[test]
    fn table1_kalos() {
        let k = ClusterSpec::kalos();
        assert_eq!(k.nodes, 302);
        assert_eq!(k.node.host_memory_gb, 2048.0);
        assert_eq!(k.node.total_ib_gbps(), 800.0);
        assert!(k.node.dedicated_storage_hca);
        assert_eq!(k.scheduler, SchedulerKind::Kubernetes);
        assert_eq!(k.total_gpus(), 2416);
    }

    #[test]
    fn acme_total_matches_paper() {
        let [s, k] = ClusterSpec::acme();
        // 4,704 A100s in total (§1).
        assert_eq!(s.total_gpus() + k.total_gpus(), 4704);
    }

    #[test]
    fn cpu_gpu_ratio_is_sixteen() {
        assert_eq!(ClusterSpec::seren().node.cpus_per_gpu(), 16.0);
    }

    #[test]
    fn a100_envelope() {
        let g = GpuSpec::a100_sxm_80gb();
        assert_eq!(g.memory_gb, 80.0);
        assert!(g.idle_power_w < g.tdp_w && g.tdp_w < g.max_power_w);
    }
}
