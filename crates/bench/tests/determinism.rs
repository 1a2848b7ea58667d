//! The tentpole invariant of the parallel harness: `repro all --jobs N`
//! produces **byte-identical stdout** to the sequential run, for every
//! seed. These tests exercise the exact code path the binary uses
//! (`select` → `run_selection` → `render_report`), so a pass here is a
//! pass for the shipped tool.

use acme::experiments::{run_selection, select, set_workers, ExperimentRun, RunParams};
use acme_bench::render_report;

fn full_report(seed: u64, jobs: usize) -> String {
    let selection = select(&["all".to_string()]).expect("`all` always resolves");
    let runs = run_selection(&selection, RunParams::new(seed), jobs);
    render_report(seed, &runs)
}

#[test]
fn parallel_report_is_byte_identical_seed_42() {
    let sequential = full_report(42, 1);
    let parallel = full_report(42, 4);
    assert!(
        sequential == parallel,
        "jobs=4 diverged from jobs=1 at seed 42"
    );
}

#[test]
fn parallel_report_is_byte_identical_seed_7() {
    let sequential = full_report(7, 1);
    let parallel = full_report(7, 4);
    assert!(
        sequential == parallel,
        "jobs=4 diverged from jobs=1 at seed 7"
    );
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More workers than experiments in the subset: jobs is clamped and the
    // report is still identical.
    let ids: Vec<String> = ["fig6", "table3", "ckpt"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let selection = select(&ids).unwrap();
    let sequential = render_report(42, &run_selection(&selection, RunParams::new(42), 1));
    let parallel = render_report(42, &run_selection(&selection, RunParams::new(42), 64));
    assert_eq!(sequential, parallel);
}

/// The experiments that fan out internally. Shard workers must never
/// change a byte of output, at any seed.
const SHARDED: [&str; 10] = [
    "diag",
    "pipeline",
    "data",
    "fig2",
    "storm",
    "evalstorm",
    "fleet",
    "blame",
    "policylab",
    "netstorm",
];

#[test]
fn intra_experiment_sharding_is_byte_identical() {
    let ids: Vec<String> = SHARDED.iter().map(|s| s.to_string()).collect();
    let selection = select(&ids).unwrap();
    let labels =
        |r: &ExperimentRun| -> Vec<String> { r.shards.iter().map(|s| s.label.clone()).collect() };
    for seed in [42, 7] {
        set_workers(1);
        let inline = run_selection(&selection, RunParams::new(seed), 1);
        set_workers(8);
        let sharded = run_selection(&selection, RunParams::new(seed), 2);
        set_workers(1);
        assert!(
            render_report(seed, &inline) == render_report(seed, &sharded),
            "8 shard workers diverged from inline at seed {seed}"
        );
        // Each experiment's tally comes back from the workers intact: the
        // same counters and the same shards in the same order.
        for (a, b) in inline.iter().zip(&sharded) {
            assert_eq!(a.queue, b.queue, "{} queue counters, seed {seed}", a.id);
            assert_eq!(a.net, b.net, "{} flow counters, seed {seed}", a.id);
            assert_eq!(labels(a), labels(b), "{} shard labels, seed {seed}", a.id);
        }
        let net = inline
            .iter()
            .find(|r| r.id == "netstorm")
            .expect("netstorm is selected")
            .net;
        assert!(
            net.flows_routed > 0,
            "netstorm routed no flows, seed {seed}"
        );
        assert!(
            net.max_link_utilization > 0.0 && net.max_link_utilization <= 1.0,
            "netstorm peak link utilization {} out of (0, 1], seed {seed}",
            net.max_link_utilization
        );
    }
}

#[test]
fn sharded_experiments_report_shard_timings() {
    let ids: Vec<String> = SHARDED.iter().map(|s| s.to_string()).collect();
    let selection = select(&ids).unwrap();
    let runs = run_selection(&selection, RunParams::new(42), 1);
    for run in &runs {
        assert!(
            !run.shards.is_empty(),
            "{} is sharded but recorded no shard timings",
            run.id
        );
    }
    // And the labels within each experiment are unique — `--timings-json`
    // consumers key on (experiment, shard).
    for run in &runs {
        let mut labels: Vec<&str> = run.shards.iter().map(|s| s.label.as_str()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(before, labels.len(), "duplicate shard label in {}", run.id);
    }
}

#[test]
fn report_starts_with_seed_header() {
    let report = full_report(7, 2);
    assert!(report.starts_with("# Acme reproduction — seed 7\n\n"));
    // Every experiment contributes a `### id — title` section.
    assert_eq!(report.matches("\n### ").count(), 42);
}
