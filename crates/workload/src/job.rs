//! The job-record vocabulary shared by every crate.

use acme_sim_core::{SimDuration, SimTime};

/// The workload categories of §3.2 / Figure 4. `Sft` and `Mllm` appear only
/// in Seren.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobType {
    /// Large-scale self-supervised pretraining.
    Pretrain,
    /// Supervised fine-tuning for alignment (Seren only).
    Sft,
    /// Multimodal-LLM jobs with their own mini pipeline (Seren only).
    Mllm,
    /// Benchmark evaluation of checkpoints.
    Evaluation,
    /// Debugging / testing runs.
    Debug,
    /// Unclassified jobs.
    Other,
}

impl JobType {
    /// All types, in the order Figure 4 lists them.
    pub const ALL: [JobType; 6] = [
        JobType::Pretrain,
        JobType::Sft,
        JobType::Mllm,
        JobType::Evaluation,
        JobType::Debug,
        JobType::Other,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JobType::Pretrain => "pretrain",
            JobType::Sft => "sft",
            JobType::Mllm => "mllm",
            JobType::Evaluation => "evaluation",
            JobType::Debug => "debug",
            JobType::Other => "other",
        }
    }
}

/// Final status of a job (Figure 17 / Appendix A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Terminated by an error.
    Failed,
    /// Canceled by the user (parameter adjustment, stalled job, early
    /// satisfaction — Appendix A.1).
    Canceled,
}

impl JobStatus {
    /// All statuses.
    pub const ALL: [JobStatus; 3] = [JobStatus::Completed, JobStatus::Failed, JobStatus::Canceled];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Canceled => "canceled",
        }
    }
}

/// Identifies which cluster a job ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cluster {
    /// The Slurm cluster (286 × 8 A100).
    Seren,
    /// The Kubernetes cluster (302 × 8 A100).
    Kalos,
}

impl Cluster {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Cluster::Seren => "Seren",
            Cluster::Kalos => "Kalos",
        }
    }
}

/// One GPU job, as it would appear in the scheduler database (§2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Unique id within the trace.
    pub id: u64,
    /// Which cluster the job ran in.
    pub cluster: Cluster,
    /// Workload category.
    pub job_type: JobType,
    /// Submission time.
    pub submit: SimTime,
    /// Time spent waiting in queue (filled in by the scheduler simulation;
    /// zero for generator-only traces).
    pub queue_delay: SimDuration,
    /// Runtime once started (excludes queueing).
    pub duration: SimDuration,
    /// GPUs requested.
    pub gpus: u32,
    /// Final status.
    pub status: JobStatus,
}

impl JobRecord {
    /// GPU time: requested GPUs × runtime (the Figure 3(b) / Figure 4
    /// resource metric), in GPU-seconds.
    pub fn gpu_seconds(&self) -> f64 {
        self.gpus as f64 * self.duration.as_secs_f64()
    }

    /// When the job started running.
    pub fn start(&self) -> SimTime {
        self.submit + self.queue_delay
    }

    /// When the job left the system.
    pub fn end(&self) -> SimTime {
        self.start() + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_seconds_product() {
        let j = JobRecord {
            id: 1,
            cluster: Cluster::Kalos,
            job_type: JobType::Pretrain,
            submit: SimTime::from_secs(100),
            queue_delay: SimDuration::from_secs(50),
            duration: SimDuration::from_secs(10),
            gpus: 512,
            status: JobStatus::Completed,
        };
        assert_eq!(j.gpu_seconds(), 5120.0);
        assert_eq!(j.start(), SimTime::from_secs(150));
        assert_eq!(j.end(), SimTime::from_secs(160));
    }

    #[test]
    fn labels_are_distinct() {
        // The stats tables index by discriminant: `ALL` must list every
        // variant in declaration order.
        for (i, &t) in JobType::ALL.iter().enumerate() {
            assert_eq!(t as usize, i, "{t:?}");
        }
        for (i, &s) in JobStatus::ALL.iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?}");
        }
        let labels: std::collections::HashSet<_> = JobType::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), JobType::ALL.len());
        let s: std::collections::HashSet<_> = JobStatus::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(s.len(), 3);
    }
}
