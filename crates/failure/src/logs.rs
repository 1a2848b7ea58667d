//! Synthetic runtime logs.
//!
//! Pretraining jobs emit hundreds of megabytes of stdout/stderr — mostly
//! initialization banners, per-step metric records and framework chatter,
//! with the actual error buried at the end, often accompanied by *secondary*
//! errors that obscure the root cause (§6.1: "a job might fail with messages
//! that include NCCLTimeoutError, CUDAError, and multiple kinds of
//! RuntimeError, whereas the root cause is CUDAError").
//!
//! [`LogBundle::generate`] renders such a log for a chosen root cause, so
//! the compression + diagnosis pipeline can be measured against ground
//! truth.

use std::fmt;

use acme_sim_core::SimRng;

use crate::taxonomy::FailureReason;

/// A generated log with its ground-truth root cause.
#[derive(Debug, Clone)]
pub struct LogBundle {
    /// The log lines.
    pub lines: Vec<String>,
    /// What actually went wrong.
    pub root_cause: FailureReason,
}

/// The distinctive error line each failure reason produces.
pub fn signature(reason: FailureReason) -> &'static str {
    use FailureReason::*;
    match reason {
        NvLinkError => "NVLink Error: fatal error detected on link 3 (GPU 00000000:4E:00.0)",
        CudaError => "CUDA error: an illegal memory access was encountered",
        NodeFailure => "node health check failed: lost contact with node agent",
        EccError => "uncorrectable ECC error encountered (volatile DBE count > 0)",
        NetworkError => "NetworkError: ibv_poll_cq failed: transport retry counter exceeded",
        ConnectionError => {
            "ConnectionError: HTTPSConnectionPool(host='metrics.internal'): Max retries exceeded"
        }
        S3StorageError => {
            "S3StorageError: failed to put object: RequestTimeout on bucket ckpt-prod"
        }
        NcclTimeoutError => {
            "NCCL watchdog thread terminated: Watchdog caught collective operation timeout"
        }
        NcclRemoteError => {
            "NCCL remote process exited or there was a network error: ncclRemoteError"
        }
        DataloaderKilled => {
            "RuntimeError: DataLoader worker (pid 21473) is killed by signal: Killed"
        }
        AttributeError => "AttributeError: 'NoneType' object has no attribute 'shape'",
        OutOfMemoryError => {
            "torch.cuda.OutOfMemoryError: CUDA out of memory. Tried to allocate 2.50 GiB"
        }
        RuntimeError => {
            "RuntimeError: The size of tensor a (4096) must match the size of tensor b (2048)"
        }
        AssertionError => "AssertionError: micro_num should be divisible by pipeline parallel size",
        ValueError => "ValueError: invalid literal for int() with base 10: 'auto'",
        ZeroDivisionError => "ZeroDivisionError: division by zero",
        ModelLoadingError => {
            "ModelLoadingError: checkpoint shard 00003-of-00008 not found in object store"
        }
        DatasetLoadingError => "DatasetLoadingError: failed to open tokenized dataset meta file",
        FileNotFoundError => {
            "FileNotFoundError: [Errno 2] No such file or directory: '/mnt/petrel/configs/exp42.py'"
        }
        OsError => "OSError: [Errno 122] Disk quota exceeded",
        TypeError => "TypeError: forward() got an unexpected keyword argument 'use_cache'",
        NameError => "NameError: name 'micro_bsz' is not defined",
        PermissionError => "PermissionError: [Errno 13] Permission denied: '/mnt/shared/outputs'",
        ImportError => "ImportError: cannot import name 'flash_attn_varlen_func' from 'flash_attn'",
        KeyError => "KeyError: 'rotary_emb_base'",
        SyntaxError => "SyntaxError: invalid syntax (train.py, line 217)",
        ArgumentError => "ArgumentError: argument --tensor-parallel: invalid int value",
        CalledProcessError => {
            "CalledProcessError: Command 'srun --ntasks=256' returned non-zero exit status 137"
        }
        IndexError => "IndexError: list index out of range",
    }
}

/// Plausible secondary errors that accompany a root cause, in the order
/// they'd appear. Hardware deaths cascade into NCCL/runtime noise.
pub fn secondary_signatures(reason: FailureReason) -> Vec<&'static str> {
    use FailureReason::*;
    match reason {
        CudaError | EccError => vec![
            signature(NcclTimeoutError),
            "RuntimeError: NCCL communicator was aborted on rank 131",
        ],
        NvLinkError => vec![
            signature(NcclTimeoutError),
            signature(CudaError),
            "RuntimeError: NCCL communicator was aborted on rank 88",
        ],
        NodeFailure | NetworkError => vec![signature(NcclRemoteError)],
        DataloaderKilled => vec!["RuntimeError: Pin memory thread exited unexpectedly"],
        _ => vec![],
    }
}

impl LogBundle {
    /// Render a log for `root_cause`: `noise_lines` of regular output
    /// followed by the (secondary + root) error block and a traceback.
    pub fn generate(root_cause: FailureReason, noise_lines: usize, rng: &mut SimRng) -> Self {
        let mut lines = Vec::with_capacity(noise_lines + 16);
        Self::generate_into(&mut lines, root_cause, noise_lines, rng);
        LogBundle { lines, root_cause }
    }

    /// Render the same log as [`LogBundle::generate`] into `lines`,
    /// reusing its line allocations (the diagnosis benchmark streams
    /// hundreds of bundles; recycling one buffer keeps the hot loop free
    /// of per-line allocation). Content is byte-identical to `generate`.
    pub fn generate_into(
        lines: &mut Vec<String>,
        root_cause: FailureReason,
        noise_lines: usize,
        rng: &mut SimRng,
    ) {
        use std::fmt::Write as _;
        let mut used = 0usize;
        // Reuse the String at the cursor when one exists, extend otherwise.
        render(root_cause, noise_lines, rng, |args| {
            if used == lines.len() {
                lines.push(String::new());
            }
            let line = &mut lines[used];
            line.clear();
            line.write_fmt(args)
                .expect("writing to a String is infallible");
            used += 1;
        });
        lines.truncate(used);
    }

    /// Advance `rng` exactly as [`LogBundle::generate`] would for the same
    /// arguments, formatting nothing: the draw stream of a log whose text
    /// is not needed.
    pub fn draw(root_cause: FailureReason, noise_lines: usize, rng: &mut SimRng) {
        render(root_cause, noise_lines, rng, |_| {});
    }

    /// Total rendered size in bytes.
    pub fn byte_len(&self) -> usize {
        self.lines.iter().map(|l| l.len() + 1).sum()
    }
}

/// The one renderer behind [`LogBundle::generate_into`] and
/// [`LogBundle::draw`]: `noise_lines` of regular output, then the
/// (secondary + root) error block and a traceback, one `emit` per line.
/// Every rng draw is an argument of the `format_args!` that fills its
/// line, so the draws happen in the same order whether or not `emit`
/// formats anything.
fn render(
    root_cause: FailureReason,
    noise_lines: usize,
    rng: &mut SimRng,
    mut emit: impl FnMut(fmt::Arguments<'_>),
) {
    emit(format_args!(
        "INFO colossal launcher: initializing distributed environment"
    ));
    emit(format_args!(
        "INFO topo: world_size={} tp=8 pp=4 zero=1",
        8 * (1 + rng.below(256))
    ));
    emit(format_args!(
        "INFO dataloader: on-the-fly tokenization enabled"
    ));
    for i in 0..noise_lines {
        // Per-step metric records: the bulk of real logs, and exactly
        // what the Filter Rules must learn to strip.
        let step = i as u64 + 1;
        match i % 4 {
            0 => emit(format_args!(
                "INFO train: step={step} loss={:.4} lr={:.2e} tgs={:.1}",
                8.0 / (step as f64).sqrt() + rng.f64() * 0.05,
                4e-4 * (1.0 - step as f64 * 1e-6),
                3950.0 + rng.f64() * 100.0
            )),
            1 => emit(format_args!(
                "INFO memory: step={step} allocated={:.1}GB reserved={:.1}GB",
                55.0 + rng.f64() * 5.0,
                71.0 + rng.f64() * 2.0
            )),
            2 => emit(format_args!(
                "INFO grad_norm: step={step} norm={:.3}",
                1.0 + rng.f64()
            )),
            _ => emit(format_args!(
                "DEBUG ckpt: step={step} snapshot staged in {:.0}ms",
                180.0 + rng.f64() * 40.0
            )),
        }
    }
    for s in secondary_signatures(root_cause) {
        emit(format_args!("ERROR rank {}: {s}", rng.below(2048)));
    }
    emit(format_args!("Traceback (most recent call last):"));
    emit(format_args!("  File \"train.py\", line 412, in main"));
    emit(format_args!(
        "ERROR rank {}: {}",
        rng.below(2048),
        signature(root_cause)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_are_unique() {
        let sigs: std::collections::HashSet<_> =
            FailureReason::ALL.iter().map(|&r| signature(r)).collect();
        assert_eq!(sigs.len(), FailureReason::ALL.len());
    }

    #[test]
    fn generated_log_contains_root_signature_last() {
        let mut rng = SimRng::new(1);
        for &r in FailureReason::ALL.iter() {
            let b = LogBundle::generate(r, 50, &mut rng);
            assert_eq!(b.root_cause, r);
            let last = b.lines.last().unwrap();
            assert!(last.contains(signature(r)), "{r:?}: {last}");
        }
    }

    #[test]
    fn hardware_failures_cascade() {
        let mut rng = SimRng::new(2);
        let b = LogBundle::generate(FailureReason::NvLinkError, 20, &mut rng);
        let text = b.lines.join("\n");
        // The confusing secondary errors are present...
        assert!(text.contains("Watchdog caught collective operation timeout"));
        assert!(text.contains("CUDA error"));
        // ...and the root signature too.
        assert!(text.contains("NVLink Error"));
    }

    #[test]
    fn script_errors_have_no_cascade() {
        assert!(secondary_signatures(FailureReason::TypeError).is_empty());
        assert!(secondary_signatures(FailureReason::KeyError).is_empty());
    }

    #[test]
    fn noise_dominates_line_count() {
        let mut rng = SimRng::new(3);
        let b = LogBundle::generate(FailureReason::CudaError, 1000, &mut rng);
        assert!(b.lines.len() >= 1000);
        assert!(b.byte_len() > 40_000);
        let info = b
            .lines
            .iter()
            .filter(|l| l.starts_with("INFO") || l.starts_with("DEBUG"))
            .count();
        assert!(info as f64 / b.lines.len() as f64 > 0.95);
    }
}
