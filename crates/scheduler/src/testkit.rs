//! Jobs and traces shared by the schedulers' unit tests.

use acme_sim_core::{SimDuration, SimTime};
use acme_workload::job::Cluster;
use acme_workload::{JobRecord, JobStatus, JobType};
use proptest::prelude::*;

/// A completed Kalos job of `gpus` GPUs submitted at `submit_s` for
/// `dur_s` seconds.
pub(crate) fn job(id: u64, ty: JobType, gpus: u32, submit_s: u64, dur_s: u64) -> JobRecord {
    JobRecord {
        id,
        cluster: Cluster::Kalos,
        job_type: ty,
        submit: SimTime::from_secs(submit_s),
        queue_delay: SimDuration::ZERO,
        duration: SimDuration::from_secs(dur_s),
        gpus,
        status: JobStatus::Completed,
    }
}

/// GPUs of the cluster the oracle traces run on.
pub(crate) const TRACE_GPUS: u32 = 64;

/// The reserved policy's pretraining quota, leaving a shared pool of 16.
pub(crate) const TRACE_QUOTA: u32 = 48;

/// Traces that crowd the schedulers' ties and pool edges:
/// * submissions on a grid of 10-minute slots, so batches arrive at the
///   same instant;
/// * five durations, all multiples of 5 minutes, so finishes tie with
///   each other and with arrivals, and the starts they trigger tie too;
/// * one job in four large: pretraining up to the whole cluster, which
///   overflows the quota into the shared pool, and other jobs up to the
///   quota's size, which is above the shared pool's, so they borrow.
pub(crate) fn arb_trace() -> impl Strategy<Value = Vec<JobRecord>> {
    const TYPES: [JobType; 6] = [
        JobType::Pretrain,
        JobType::Sft,
        JobType::Mllm,
        JobType::Evaluation,
        JobType::Debug,
        JobType::Other,
    ];
    const DURATIONS: [u64; 5] = [300, 600, 900, 1_800, 3_600];
    prop::collection::vec(
        (0u64..12, 0usize..6, 0u32..4, 1u32..=TRACE_GPUS, 0usize..5),
        1..80,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (slot, ty, size, gpus, dur))| {
                let ty = TYPES[ty];
                let cap = if ty == JobType::Pretrain {
                    TRACE_GPUS
                } else {
                    TRACE_QUOTA
                };
                let gpus = if size < 3 {
                    1 + gpus % 8
                } else {
                    gpus.min(cap)
                };
                job(i as u64, ty, gpus, slot * 600, DURATIONS[dur])
            })
            .collect()
    })
}
