//! Host memory on a node.
//!
//! [`HostMemoryBreakdown`] is the host-memory split Figure 18 reports for a
//! Seren pretraining node: training processes, the on-the-fly dataloader,
//! TensorBoard, the distributed-file-system client daemon, and a small
//! remainder of system services — typically ~123 GB of the 1 TB total,
//! which is exactly the headroom the asynchronous checkpointer (§6.1)
//! exploits.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

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
}
