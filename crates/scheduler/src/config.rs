//! Scheduler policy configuration.

use acme_workload::JobType;

/// Static policy knobs for one cluster's scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Total schedulable GPUs.
    pub total_gpus: u32,
    /// GPUs reserved for pretraining (the quota). Must be ≤ `total_gpus`.
    /// Zero is one undifferentiated pool (the Figure-6 ablation).
    pub reserved_gpus: u32,
}

impl SchedulerConfig {
    /// A reservation policy holding back `reserved_fraction` of the GPUs
    /// for pretraining.
    ///
    /// # Panics
    /// Panics if the fraction is outside `[0, 1]` or `total_gpus == 0`.
    pub fn with_reservation(total_gpus: u32, reserved_fraction: f64) -> Self {
        assert!(total_gpus > 0, "scheduler needs at least one GPU");
        assert!(
            (0.0..=1.0).contains(&reserved_fraction),
            "bad reserved fraction {reserved_fraction}"
        );
        SchedulerConfig {
            total_gpus,
            reserved_gpus: (total_gpus as f64 * reserved_fraction).round() as u32,
        }
    }

    /// One undifferentiated pool (the ablation baseline).
    pub fn without_reservation(total_gpus: u32) -> Self {
        assert!(total_gpus > 0, "scheduler needs at least one GPU");
        SchedulerConfig {
            total_gpus,
            reserved_gpus: 0,
        }
    }

    /// GPUs outside the reservation.
    pub fn shared_gpus(&self) -> u32 {
        self.total_gpus - self.reserved_gpus
    }

    /// Scheduling priority: lower value schedules first. Pretraining is
    /// guaranteed, evaluation is explicitly lowest (§3.2).
    pub fn priority(job_type: JobType) -> u8 {
        match job_type {
            JobType::Pretrain => 0,
            JobType::Sft | JobType::Mllm | JobType::Debug | JobType::Other => 1,
            JobType::Evaluation => 2,
        }
    }

    /// Number of distinct priority levels.
    pub const PRIORITY_LEVELS: usize = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_split() {
        let c = SchedulerConfig::with_reservation(1000, 0.9);
        assert_eq!(c.reserved_gpus, 900);
        assert_eq!(c.shared_gpus(), 100);
    }

    #[test]
    fn no_reservation_single_pool() {
        let c = SchedulerConfig::without_reservation(512);
        assert_eq!(c.shared_gpus(), 512);
        assert_eq!(c.reserved_gpus, 0);
    }

    #[test]
    fn priorities_ordered() {
        assert!(
            SchedulerConfig::priority(JobType::Pretrain)
                < SchedulerConfig::priority(JobType::Debug)
        );
        assert!(
            SchedulerConfig::priority(JobType::Debug)
                < SchedulerConfig::priority(JobType::Evaluation)
        );
        assert_eq!(
            SchedulerConfig::priority(JobType::Sft),
            SchedulerConfig::priority(JobType::Mllm)
        );
    }

    #[test]
    #[should_panic(expected = "bad reserved fraction")]
    fn rejects_bad_fraction() {
        SchedulerConfig::with_reservation(10, 1.5);
    }
}
