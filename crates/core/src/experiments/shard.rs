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
//! Each sharded experiment passes its `RunParams::workers` to
//! [`run_shards`], and [`super::run_selection`] sets that count from its
//! `jobs`, so one argument sizes both pools. With one worker (or one
//! shard) everything runs inline on the calling thread, which is the
//! exact sequential path and costs no spawn at all. Per-shard wall times
//! travel in the [`acme_obs::Tally`] and the runner drains them into
//! [`super::runner::ExperimentRun`], surfacing in `repro --timings-json`.

use std::sync::Mutex;
use std::time::Instant;

pub use acme_obs::ShardTiming;

/// One piece of an experiment: runs on a worker, returns its result.
pub type ShardFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Does nothing: the shard worker count is [`super::run_selection`]'s
/// `jobs`. Kept only so `perfbench/tracer`, which still calls it, builds
/// unchanged.
pub fn set_workers(_: usize) {}

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

/// Run `shards` on up to `workers` threads and return their results **in
/// shard order**, recording each shard's wall time in the tally after
/// whatever the shard deposited itself.
pub fn run_shards<'a, T: Send>(workers: usize, shards: Vec<(String, ShardFn<'a, T>)>) -> Vec<T> {
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
    fan_out(workers, tasks)
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
        let caller = std::thread::current().id();
        for workers in [1, 2, 8] {
            let (squares, inline): (Vec<_>, Vec<_>) = run_shards(
                workers,
                (0..16)
                    .map(|i| {
                        shard(format!("s{i}"), move || {
                            (i * i, std::thread::current().id() == caller)
                        })
                    })
                    .collect(),
            )
            .into_iter()
            .unzip();
            assert_eq!(squares, (0..16).map(|i| i * i).collect::<Vec<_>>());
            assert!(
                workers > 1 || inline.iter().all(|&x| x),
                "one worker runs every shard inline"
            );
        }
    }

    #[test]
    fn timings_are_recorded_in_shard_order() {
        acme_obs::take();
        let _ = run_shards(
            4,
            vec![
                shard("alpha", || 1),
                shard("beta", || 2),
                shard("gamma", || 3),
            ],
        );
        let t = acme_obs::take().shards;
        assert_eq!(
            t.iter().map(|s| s.label.as_str()).collect::<Vec<_>>(),
            ["alpha", "beta", "gamma"]
        );
        assert!(
            acme_obs::take().shards.is_empty(),
            "drain leaves nothing behind"
        );
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        let data = [10u64, 20, 30];
        let out = run_shards(
            2,
            data.iter()
                .map(|x| shard("borrow", move || x + 1))
                .collect(),
        );
        assert_eq!(out, vec![11, 21, 31]);
    }
}
