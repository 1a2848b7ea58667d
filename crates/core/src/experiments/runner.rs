//! Deterministic parallel execution of experiment selections.
//!
//! Every experiment is a pure function of its seed, so independent
//! experiments can run on separate worker threads — the only requirement
//! for bit-reproducibility (DESIGN.md §6) is that results are *emitted* in
//! selection order, not *computed* in it. The runner fans the selection
//! out over the harness's one worker pool, `shard::fan_out`, which
//! hands results back in selection order, so `repro all --jobs N` is
//! byte-identical to `--jobs 1`. Each experiment's [`acme_obs::Tally`]
//! (trace chunks, shard timings, counters) is taken on the thread that
//! ran it.
//!
//! A panicking experiment does not take the selection down with it: each
//! run is contained with `catch_unwind`, the panic becomes a `FAILED`
//! report block ([`ExperimentRun::failed`]), and the remaining experiments
//! still run — the `repro` binary turns any failed run into a nonzero
//! exit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use super::shard::{fan_out, ShardTiming};
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
    pub net: acme_sim_core::stats::NetStats,
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
    // Drop whatever a previous (failed) run left in this thread's tally;
    // everything this experiment deposits, including what `run_shards`
    // carries back from its workers, then lands on this thread.
    acme_obs::take();
    let started = Instant::now();
    let body = catch_unwind(AssertUnwindSafe(|| (e.run)(params)));
    let wall = started.elapsed();
    let tally = acme_obs::take();
    let (output, failed) = match body {
        Ok(body) => (format!("### {} — {}\n{}", e.id, e.title, body), false),
        Err(payload) => (
            format!(
                "### {} — FAILED\nexperiment panicked: {}\n",
                e.id,
                panic_message(payload.as_ref())
            ),
            true,
        ),
    };
    ExperimentRun {
        id: e.id,
        title: e.title,
        output,
        wall,
        failed,
        shards: tally.shards,
        trace: tally.chunks,
        queue: tally.counters.queue,
        net: tally.counters.net,
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
    fan_out(
        jobs,
        selection
            .iter()
            .map(|e| move || run_one(e, params))
            .collect(),
    )
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
