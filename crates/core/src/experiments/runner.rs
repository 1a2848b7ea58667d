//! Deterministic parallel execution of experiment selections.
//!
//! Every experiment is a pure function of its seed, so independent
//! experiments can run on separate worker threads — the only requirement
//! for bit-reproducibility (DESIGN.md §6) is that results are *emitted* in
//! selection order, not *computed* in it. The runner buffers each
//! experiment's output in a per-slot cell and hands back the slots in
//! order, so `repro all --jobs N` is byte-identical to `--jobs 1`.
//!
//! A panicking experiment does not take the selection down with it: each
//! run is contained with `catch_unwind`, the panic becomes a `FAILED`
//! report block ([`ExperimentRun::failed`]), and the remaining experiments
//! still run — the `repro` binary turns any failed run into a nonzero
//! exit.
//!
//! No thread pool dependency: workers are `std::thread::scope` threads
//! pulling indices from one atomic counter (the same worker-fan-out shape
//! the Berserker workload drivers use).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use super::shard::{self, ShardTiming};
use super::{Experiment, RunParams};

/// One finished experiment: its formatted report plus the wall time the
/// run took on its worker.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Short id (`fig10`, `table3`, …).
    pub id: &'static str,
    /// Human title, as shown in the report header.
    pub title: &'static str,
    /// The full printable artifact: `### <id> — <title>\n<body>`.
    pub output: String,
    /// Wall-clock time spent inside the experiment function.
    pub wall: Duration,
    /// True when the experiment panicked; `output` then carries the
    /// `FAILED` block instead of the artifact.
    pub failed: bool,
    /// Per-shard wall times, in shard order, for experiments that fan out
    /// internally (see [`super::shard`]); empty for unsharded experiments.
    pub shards: Vec<ShardTiming>,
    /// Flight-recorder chunks the experiment deposited (shard order);
    /// empty unless `RunParams::trace` was set and the experiment is
    /// instrumented.
    pub trace: Vec<acme_obs::TraceChunk>,
    /// Event-queue activity (schedules/pops/peak depth) summed
    /// over every queue the experiment dropped, for `--timings-json`.
    pub queue: acme_sim_core::stats::QueueStats,
    /// Network-substrate activity (flows routed through the fat tree,
    /// peak link utilization) for `--timings-json`; zero for experiments
    /// that never touch `acme_cluster::net`.
    pub net: acme_cluster::net::stats::NetStats,
}

/// How many workers to use when the caller does not say: one per available
/// core (and 1 if parallelism cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// `panic!`, `assert!`, `unwrap`, …).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn run_one(e: &Experiment, params: RunParams) -> ExperimentRun {
    // Drop whatever a previous (failed) run left in this thread's side
    // channels, then collect what this experiment records: `run_shards`
    // re-deposits everything on the thread that called it, which is
    // exactly this one.
    shard::take_timings();
    acme_obs::take_chunks();
    acme_sim_core::stats::take();
    acme_cluster::net::stats::take();
    let started = Instant::now();
    let body = catch_unwind(AssertUnwindSafe(|| (e.run)(params)));
    let wall = started.elapsed();
    let shards = shard::take_timings();
    let trace = acme_obs::take_chunks();
    let queue = acme_sim_core::stats::take();
    let net = acme_cluster::net::stats::take();
    match body {
        Ok(body) => ExperimentRun {
            id: e.id,
            title: e.title,
            output: format!("### {} — {}\n{}", e.id, e.title, body),
            wall,
            failed: false,
            shards,
            trace,
            queue,
            net,
        },
        Err(payload) => ExperimentRun {
            id: e.id,
            title: e.title,
            output: format!(
                "### {} — FAILED\nexperiment panicked: {}\n",
                e.id,
                panic_message(payload.as_ref())
            ),
            wall,
            failed: true,
            shards,
            trace,
            queue,
            net,
        },
    }
}

/// Run `selection` at `params` across up to `jobs` worker threads,
/// returning results **in selection order** regardless of completion
/// order.
///
/// `jobs` is clamped to `[1, selection.len()]`; `jobs == 1` runs inline on
/// the calling thread (no spawn overhead, the exact sequential path).
/// Panicking experiments are contained either way: they yield a `FAILED`
/// run and the rest of the selection still executes.
pub fn run_selection(
    selection: &[Experiment],
    params: RunParams,
    jobs: usize,
) -> Vec<ExperimentRun> {
    let jobs = jobs.max(1).min(selection.len().max(1));
    if jobs == 1 {
        return selection.iter().map(|e| run_one(e, params)).collect();
    }

    // One pre-allocated slot per experiment; each is written by exactly one
    // worker, so plain `Mutex<Option<_>>` cells are contention-free.
    let slots: Vec<std::sync::Mutex<Option<ExperimentRun>>> = selection
        .iter()
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(e) = selection.get(i) else { break };
                let run = run_one(e, params);
                *slots[i].lock().expect("result slot poisoned") = Some(run);
            });
        }
    });

    slots
        .into_iter()
        .zip(selection)
        .map(|(slot, e)| {
            // `run_one` never panics (it contains the experiment), so the
            // slot is always filled; the fallback is pure defence.
            slot.into_inner()
                .unwrap_or(None)
                .unwrap_or_else(|| ExperimentRun {
                    id: e.id,
                    title: e.title,
                    output: format!("### {} — FAILED\nworker exited without a result\n", e.id),
                    wall: Duration::ZERO,
                    failed: true,
                    shards: Vec::new(),
                    trace: Vec::new(),
                    queue: acme_sim_core::stats::QueueStats::ZERO,
                    net: acme_cluster::net::stats::NetStats::ZERO,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::all;

    #[test]
    fn parallel_matches_sequential_on_a_subset() {
        let registry = all();
        let subset: Vec<Experiment> = registry.into_iter().take(6).collect();
        let seq = run_selection(&subset, RunParams::new(42), 1);
        for jobs in [2, 3, 8] {
            let par = run_selection(&subset, RunParams::new(42), jobs);
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.id, p.id);
                assert_eq!(s.output, p.output, "jobs={jobs} diverged on {}", s.id);
                assert!(!s.failed && !p.failed);
            }
        }
    }

    #[test]
    fn jobs_clamped_and_empty_selection_ok() {
        assert!(run_selection(&[], RunParams::new(1), 0).is_empty());
        assert!(run_selection(&[], RunParams::new(1), 64).is_empty());
        let one = &all()[..1];
        let r = run_selection(one, RunParams::new(7), 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, one[0].id);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn wall_times_are_recorded() {
        let subset = &all()[..2];
        for run in run_selection(subset, RunParams::new(42), 2) {
            assert!(!run.output.is_empty());
            // Duration is non-negative by type; just confirm it was set by
            // checking the output header matches the experiment.
            assert!(run.output.starts_with(&format!("### {}", run.id)));
        }
    }

    #[test]
    fn panicking_experiment_is_contained() {
        let boom = Experiment {
            id: "boom",
            title: "always panics",
            desc: "always panics",
            run: |_| panic!("injected failure for the runner test"),
        };
        let mut selection = vec![all()[0], boom, all()[1]];
        for jobs in [1usize, 3] {
            let runs = run_selection(&selection, RunParams::new(42), jobs);
            assert_eq!(runs.len(), 3, "jobs={jobs}");
            assert!(!runs[0].failed && !runs[2].failed, "jobs={jobs}");
            assert!(runs[1].failed, "jobs={jobs}");
            assert!(runs[1].output.starts_with("### boom — FAILED"));
            assert!(runs[1]
                .output
                .contains("experiment panicked: injected failure for the runner test"));
            // The healthy neighbours still produced their artifacts.
            assert!(runs[0].output.starts_with(&format!("### {}", runs[0].id)));
            assert!(runs[2].output.starts_with(&format!("### {}", runs[2].id)));
        }
        // Non-&str payloads are reported too.
        selection[1].run = |_| panic!("{}", String::from("formatted payload"));
        let runs = run_selection(&selection, RunParams::new(42), 1);
        assert!(runs[1].output.contains("formatted payload"));
    }
}
