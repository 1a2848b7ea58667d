//! Nodes: GPUs plus the host CPU load, the two inputs of the server power
//! model.
//!
//! [`HostMemoryBreakdown`] is the host-memory split Figure 18 reports for a
//! Seren pretraining node: training processes, the on-the-fly dataloader,
//! TensorBoard, the distributed-file-system client daemon, and a small
//! remainder of system services — typically ~123 GB of the 1 TB total,
//! which is exactly the headroom the asynchronous checkpointer (§6.1)
//! exploits.

use crate::gpu::GpuDevice;
use crate::spec::NodeSpec;

/// Host memory consumers on a pretraining node (Figure 18, GB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMemoryBreakdown {
    /// The training processes proper (parameters staged on host, CUDA
    /// context, NCCL buffers).
    pub training_gb: f64,
    /// Dataloader working set (on-the-fly loading; Megatron-style metadata
    /// preloading would be much larger).
    pub dataloader_gb: f64,
    /// TensorBoard (Figure 18 reports 6.5 GB).
    pub tensorboard_gb: f64,
    /// Distributed-FS client daemon + data/metadata caches (45.3 GB).
    pub fs_client_gb: f64,
    /// In-memory checkpoint staging used by asynchronous checkpointing.
    pub checkpoint_staging_gb: f64,
    /// Prometheus exporters, drivers, Slurm daemon, sensors (0.6 GB).
    pub system_gb: f64,
}

impl HostMemoryBreakdown {
    /// The Figure-18 snapshot: ~123 GB active out of 1 TB.
    pub fn figure18_pretraining() -> Self {
        HostMemoryBreakdown {
            training_gb: 58.2,
            dataloader_gb: 12.4,
            tensorboard_gb: 6.5,
            fs_client_gb: 45.3,
            checkpoint_staging_gb: 0.0,
            system_gb: 0.6,
        }
    }

    /// Total GB in use.
    pub fn total_gb(&self) -> f64 {
        self.training_gb
            + self.dataloader_gb
            + self.tensorboard_gb
            + self.fs_client_gb
            + self.checkpoint_staging_gb
            + self.system_gb
    }

    /// `(label, GB)` rows for rendering Figure 18.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("training processes", self.training_gb),
            ("dataloader", self.dataloader_gb),
            ("tensorboard", self.tensorboard_gb),
            ("distributed-fs client", self.fs_client_gb),
            ("checkpoint staging", self.checkpoint_staging_gb),
            ("system services", self.system_gb),
        ]
    }
}

/// One compute node.
#[derive(Debug, Clone)]
pub struct Node {
    spec: NodeSpec,
    gpus: Vec<GpuDevice>,
    /// CPU utilization fraction (0–1) across all 128 threads.
    cpu_util: f64,
}

impl Node {
    /// A new idle node built from its spec.
    pub fn new(spec: NodeSpec) -> Self {
        let gpus = (0..spec.gpus).map(|_| GpuDevice::new(spec.gpu)).collect();
        Node {
            spec,
            gpus,
            cpu_util: 0.0,
        }
    }

    /// The node spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// All GPUs.
    pub fn gpus(&self) -> &[GpuDevice] {
        &self.gpus
    }

    /// Mutable access to one GPU.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn gpu_mut(&mut self, idx: usize) -> &mut GpuDevice {
        &mut self.gpus[idx]
    }

    /// CPU utilization fraction.
    pub fn cpu_util(&self) -> f64 {
        self.cpu_util
    }

    /// Set CPU utilization (clamped to 0–1).
    pub fn set_cpu_util(&mut self, util: f64) {
        self.cpu_util = util.clamp(0.0, 1.0);
    }

    /// Sum of GPU power draws, W.
    pub fn gpu_power_w(&self) -> f64 {
        self.gpus.iter().map(|g| g.power_w()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuActivity;
    use crate::spec::ClusterSpec;

    fn node() -> Node {
        Node::new(ClusterSpec::seren().node)
    }

    #[test]
    fn new_node_is_idle() {
        let n = node();
        assert_eq!(n.gpus().len(), 8);
        assert!(n.gpus().iter().all(|g| g.activity() == GpuActivity::IDLE));
        assert_eq!(n.cpu_util(), 0.0);
        // 8 idle A100s at 60 W.
        assert_eq!(n.gpu_power_w(), 480.0);
    }

    #[test]
    fn figure18_breakdown_totals() {
        let m = HostMemoryBreakdown::figure18_pretraining();
        // The paper reports ~123 GB of the 1 TB in use.
        assert!(
            (m.total_gb() - 123.0).abs() < 1.0,
            "total = {}",
            m.total_gb()
        );
        assert_eq!(m.tensorboard_gb, 6.5);
        assert_eq!(m.fs_client_gb, 45.3);
        assert_eq!(m.rows().len(), 6);
    }

    #[test]
    fn memory_accounting() {
        let m = HostMemoryBreakdown::figure18_pretraining();
        let dram = ClusterSpec::seren().node.host_memory_gb;
        assert!(
            m.total_gb() / dram < 0.5,
            "CPU memory stays under 50% (Fig 7b)"
        );
        assert!(dram - m.total_gb() > 800.0);
    }

    #[test]
    fn gpu_state_flows_through() {
        let mut n = node();
        n.gpu_mut(3).set_activity(GpuActivity {
            sm_active: 1.0,
            tensor_active: 0.5,
            memory_used_gb: 60.0,
        });
        assert!(n.gpu_power_w() > 480.0);
    }

    #[test]
    fn clamps_cpu() {
        let mut n = node();
        n.set_cpu_util(3.0);
        assert_eq!(n.cpu_util(), 1.0);
        n.set_cpu_util(-1.0);
        assert_eq!(n.cpu_util(), 0.0);
    }
}
