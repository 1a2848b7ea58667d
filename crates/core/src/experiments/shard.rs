//! The harness's one worker pool, and intra-experiment sharding on top of
//! it.
//!
//! `fan_out` runs independent tasks on scoped `std` threads pulling from
//! one shared queue and hands their results back **in task order**. The
//! runner ([`super::run_selection`]) uses it across experiments;
//! [`run_shards`] uses it inside the fattest experiments, whose
//! internally independent pieces — per-policy ablation arms,
//! per-datacenter CDF builds, independent dataloaders — run as shards.
//!
//! Determinism contract: a shard must be a pure function of its inputs
//! (its own forked RNG stream, never a slice of a shared sequential
//! stream), and the caller must consume results in shard order. Under
//! those two rules stdout is byte-identical at any worker count —
//! enforced by CI's sharded-determinism smoke.
//!
//! Shard worker count comes from a process-wide hint ([`set_workers`],
//! set by `repro --jobs`); with one worker (or one shard) everything runs
//! inline on the calling thread, which is the exact sequential path and
//! costs no spawn at all. Per-shard wall times travel in the
//! [`acme_obs::Tally`] and the runner drains them into
//! [`super::runner::ExperimentRun`], surfacing in `repro --timings-json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use acme_obs::ShardTiming;

/// One piece of an experiment: runs on a worker, returns its result.
pub type ShardFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Worker-pool size hint; 0 means "unset, use `default_jobs()`".
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set the shard worker-pool size for the whole process (from `--jobs`).
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => super::runner::default_jobs(),
        n => n,
    }
}

/// Run `tasks` on up to `workers` threads and return their results **in
/// task order** regardless of completion order.
///
/// With one worker or one task this runs inline on the calling thread —
/// the exact sequential execution. Otherwise each task's
/// [`acme_obs::Tally`] is taken on its worker right after it finishes and
/// absorbed on the calling thread in task order, so trace exports and
/// `--timings-json` counters match the inline run at any worker count. A
/// panicking task propagates after all workers have joined (the runner's
/// `catch_unwind` turns it into the experiment's `FAILED` block).
pub(crate) fn fan_out<T: Send, F: FnOnce() -> T + Send>(workers: usize, tasks: Vec<F>) -> Vec<T> {
    let n = tasks.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((i, f)) = queue.lock().expect("task queue poisoned").next() else {
                    break;
                };
                let out = f();
                // Take this task's tally before the next task runs on this
                // worker, so attribution stays per task.
                let tally = acme_obs::take();
                done.lock().expect("results poisoned").push((i, out, tally));
            });
        }
    });
    let mut done = done.into_inner().expect("results poisoned");
    done.sort_unstable_by_key(|&(i, ..)| i);
    done.into_iter()
        .map(|(_, out, tally)| {
            acme_obs::absorb(tally);
            out
        })
        .collect()
}

/// Run `shards` across the shard worker pool ([`set_workers`]) and return
/// their results **in shard order**, recording each shard's wall time in
/// the tally after whatever the shard deposited itself.
pub fn run_shards<'a, T: Send>(shards: Vec<(String, ShardFn<'a, T>)>) -> Vec<T> {
    let tasks = shards
        .into_iter()
        .map(|(label, f)| {
            move || {
                let started = Instant::now();
                let out = f();
                acme_obs::absorb(acme_obs::Tally {
                    shards: vec![ShardTiming {
                        label,
                        wall: started.elapsed(),
                    }],
                    ..Default::default()
                });
                out
            }
        })
        .collect();
    fan_out(workers(), tasks)
}

/// Convenience: box a closure as a [`ShardFn`].
pub fn shard<'a, T, F>(label: impl Into<String>, f: F) -> (String, ShardFn<'a, T>)
where
    F: FnOnce() -> T + Send + 'a,
{
    (label.into(), Box::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_shard_order() {
        for workers in [1, 2, 8] {
            set_workers(workers);
            let out = run_shards(
                (0..16)
                    .map(|i| shard(format!("s{i}"), move || i * i))
                    .collect(),
            );
            assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        }
        set_workers(1);
    }

    #[test]
    fn timings_are_recorded_in_shard_order() {
        set_workers(4);
        acme_obs::take();
        let _ = run_shards(vec![
            shard("alpha", || 1),
            shard("beta", || 2),
            shard("gamma", || 3),
        ]);
        let t = acme_obs::take().shards;
        assert_eq!(
            t.iter().map(|s| s.label.as_str()).collect::<Vec<_>>(),
            ["alpha", "beta", "gamma"]
        );
        assert!(
            acme_obs::take().shards.is_empty(),
            "drain leaves nothing behind"
        );
        set_workers(1);
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        set_workers(2);
        let data = [10u64, 20, 30];
        let out = run_shards(
            data.iter()
                .map(|x| shard("borrow", move || x + 1))
                .collect(),
        );
        assert_eq!(out, vec![11, 21, 31]);
        set_workers(1);
    }
}
