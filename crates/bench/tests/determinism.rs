//! Every byte-determinism contract of the harness, held through the exact
//! code path the `repro` binary uses (`select` → `run_selection` →
//! `render_report`):
//!
//! 1. `repro all --seed 42` equals the archived `docs/repro_seed42.txt`,
//!    and a drift names the first `### id` block that changed.
//! 2. stdout, counters and shard labels are identical at `jobs` 1 and
//!    [`JOBS`]; `jobs` sizes every shard pool too, so `jobs == 1` is the
//!    exact inline path.
//! 3. The flight recorder (DESIGN.md §10) moves no stdout byte, and its
//!    exports are identical across reruns and worker counts.
//!
//! Each distinct run is computed once per process ([`runs`]). When an
//! *intentional* output change lands, regenerate the golden file with
//! `repro all --seed 42 > docs/repro_seed42.txt` in the same commit.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use acme::experiments::{run_selection, select, ExperimentRun, RunParams};
use acme_bench::{render_report, trace_processes};
use acme_obs::{chrome_trace_json, journal, TraceProcess};

const GOLDEN: &str = include_str!("../../../docs/repro_seed42.txt");

/// The threaded side of every inline-vs-threaded comparison.
const JOBS: usize = 4;

/// The experiments that fan out internally, in registry order.
const SHARDED: &str = "fig2 data pipeline storm evalstorm fleet blame policylab netstorm";

/// The experiments that record flight-recorder chunks, in registry order.
const INSTRUMENTED: &str = "pipeline storm evalstorm fleet blame policylab";

/// The runs of `ids` (space-separated) at this seed, jobs count and
/// tracing flag, computed once per process. Each key has its own cell, so
/// tests that want the same run wait for one computation while different
/// runs compute in parallel.
fn runs(ids: &'static str, seed: u64, jobs: usize, trace: bool) -> &'static [ExperimentRun] {
    type Key = (&'static str, u64, usize, bool);
    type Cell = &'static OnceLock<Vec<ExperimentRun>>;
    static CELLS: Mutex<BTreeMap<Key, Cell>> = Mutex::new(BTreeMap::new());
    let cell: Cell = *CELLS
        .lock()
        .expect("run cache poisoned")
        .entry((ids, seed, jobs, trace))
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let ids: Vec<String> = ids.split(' ').map(String::from).collect();
        let selection = select(&ids).expect("known experiment ids");
        run_selection(&selection, RunParams::new(seed).with_trace(trace), jobs)
    })
}

fn full_report(seed: u64, jobs: usize) -> String {
    render_report(seed, runs("all", seed, jobs, false))
}

/// Split a report into its header and one `(id, block)` pair per
/// experiment, in report order. A block runs from its `### id — title`
/// line to the next one.
fn blocks(report: &str) -> (&str, Vec<(&str, &str)>) {
    let mut starts: Vec<usize> = report.match_indices("\n### ").map(|(i, _)| i + 1).collect();
    let header = &report[..starts.first().copied().unwrap_or(report.len())];
    starts.push(report.len());
    let blocks = starts
        .windows(2)
        .map(|w| {
            let block = &report[w[0]..w[1]];
            let id = block["### ".len()..]
                .split_whitespace()
                .next()
                .unwrap_or_default();
            (id, block)
        })
        .collect();
    (header, blocks)
}

/// `None` when `actual` equals `golden`; otherwise a message naming the
/// first golden block that drifted or went missing, else the first extra
/// block.
fn first_drift(golden: &str, actual: &str) -> Option<String> {
    if golden == actual {
        return None;
    }
    let (golden_header, golden_blocks) = blocks(golden);
    let (actual_header, actual_blocks) = blocks(actual);
    if golden_header != actual_header {
        return Some(format!(
            "the report header drifted: {actual_header:?}, golden {golden_header:?}"
        ));
    }
    for &(id, g) in &golden_blocks {
        let Some(a) = find(&actual_blocks, id) else {
            return Some(format!("### {id} is missing"));
        };
        if g != a {
            let n = g
                .lines()
                .zip(a.lines())
                .take_while(|(gl, al)| gl == al)
                .count();
            let line = |b: &str| b.lines().nth(n).unwrap_or("<end of block>").to_owned();
            return Some(format!(
                "### {id} drifted at its line {}:\n  golden: {}\n  actual: {}",
                n + 1,
                line(g),
                line(a)
            ));
        }
    }
    Some(
        actual_blocks
            .iter()
            .find(|b| find(&golden_blocks, b.0).is_none())
            .map_or("the blocks are reordered or repeated".to_owned(), |b| {
                format!("### {} is extra", b.0)
            }),
    )
}

/// The block with this id, if the report has one.
fn find<'a>(blocks: &[(&str, &'a str)], id: &str) -> Option<&'a str> {
    blocks.iter().find(|b| b.0 == id).map(|b| b.1)
}

/// Panics when two labels in `labels` are equal.
fn assert_unique<'a>(labels: impl Iterator<Item = &'a str>, what: &str) {
    let mut labels: Vec<&str> = labels.collect();
    labels.sort_unstable();
    let before = labels.len();
    labels.dedup();
    assert_eq!(before, labels.len(), "duplicate {what}");
}

#[test]
fn repro_all_seed42_matches_golden_file() {
    if let Some(drift) = first_drift(GOLDEN, &full_report(42, 1)) {
        panic!(
            "seed-42 report differs from docs/repro_seed42.txt: {drift}\nIf the change is \
             intentional, regenerate the file with `repro all --seed 42 > docs/repro_seed42.txt`."
        );
    }
}

#[test]
fn first_drift_names_the_first_changed_block() {
    assert_eq!(first_drift(GOLDEN, GOLDEN), None);
    let (_, golden_blocks) = blocks(GOLDEN);
    assert_eq!(golden_blocks.len(), 42);
    assert_eq!(golden_blocks[0].0, "table1");

    let drifted = GOLDEN.replacen("Seren    128", "Seren    129", 1);
    let drift = first_drift(GOLDEN, &drifted).unwrap();
    assert!(
        drift.starts_with("### table1 drifted at its line 4:"),
        "{drift}"
    );

    let fig6 = find(&golden_blocks, "fig6").unwrap();
    let missing = GOLDEN.replacen(fig6, "", 1);
    assert_eq!(
        first_drift(GOLDEN, &missing).unwrap(),
        "### fig6 is missing"
    );

    let extra = GOLDEN.replacen(fig6, &format!("### fig99 — doctored\nx\n\n{fig6}"), 1);
    assert_eq!(first_drift(GOLDEN, &extra).unwrap(), "### fig99 is extra");

    let header = GOLDEN.replacen("seed 42", "seed 7", 1);
    assert!(first_drift(GOLDEN, &header)
        .unwrap()
        .starts_with("the report header drifted"));
}

#[test]
fn parallel_report_is_byte_identical_seed_42() {
    assert!(
        full_report(42, 1) == full_report(42, JOBS),
        "jobs={JOBS} diverged from jobs=1 at seed 42"
    );
}

#[test]
fn parallel_report_is_byte_identical_seed_7() {
    assert!(
        full_report(7, 1) == full_report(7, JOBS),
        "jobs={JOBS} diverged from jobs=1 at seed 7"
    );
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More workers than experiments in the subset: jobs is clamped and the
    // report is still identical.
    assert_eq!(
        render_report(42, runs("fig6 table3 ckpt", 42, 1, false)),
        render_report(42, runs("fig6 table3 ckpt", 42, 64, false))
    );
}

#[test]
fn intra_experiment_sharding_is_byte_identical() {
    let labels =
        |r: &ExperimentRun| -> Vec<String> { r.shards.iter().map(|s| s.label.clone()).collect() };
    for seed in [42, 7] {
        let inline = runs("all", seed, 1, false);
        // Each experiment's tally comes back from the workers intact: the
        // same counters and the same shards in the same order.
        for (a, b) in inline.iter().zip(runs("all", seed, JOBS, false)) {
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
    let runs = runs("all", 42, 1, false);
    // Exactly the sharded experiments record shard timings.
    let sharded: Vec<&str> = runs
        .iter()
        .filter(|r| !r.shards.is_empty())
        .map(|r| r.id)
        .collect();
    assert_eq!(sharded.join(" "), SHARDED);
    // And the labels within each experiment are unique — `--timings-json`
    // consumers key on (experiment, shard).
    for run in runs {
        let labels = run.shards.iter().map(|s| s.label.as_str());
        assert_unique(labels, &format!("shard label in {}", run.id));
    }
}

#[test]
fn report_starts_with_seed_header() {
    let report = full_report(7, JOBS);
    assert!(report.starts_with("# Acme reproduction — seed 7\n\n"));
    // Every experiment contributes a `### id — title` section.
    assert_eq!(report.matches("\n### ").count(), 42);
}

#[test]
fn stdout_is_byte_identical_with_tracing_on_vs_off() {
    let off = runs("all", 42, JOBS, false);
    let on = runs("all", 42, JOBS, true);
    assert!(
        render_report(42, off) == render_report(42, on),
        "enabling the flight recorder changed experiment output at seed 42"
    );
    // Exactly the instrumented experiments record chunks when traced, and
    // nothing records when tracing is off.
    let names: Vec<String> = trace_processes(on).into_iter().map(|p| p.name).collect();
    assert_eq!(names.join(" "), INSTRUMENTED);
    assert!(
        trace_processes(off).is_empty(),
        "tracing off must record nothing"
    );
}

#[test]
fn trace_exports_are_byte_identical_across_reruns_and_jobs() {
    let same = |a: &[TraceProcess], b: &[TraceProcess], what: String| {
        assert_eq!(
            chrome_trace_json(a),
            chrome_trace_json(b),
            "chrome trace {what}"
        );
        assert_eq!(journal(a), journal(b), "journal {what}");
    };
    // The one deliberate recomputation: the traced full run and the traced
    // instrumented subset are separate runs of the same experiments.
    same(
        &trace_processes(runs("all", 42, JOBS, true)),
        &trace_processes(runs(INSTRUMENTED, 42, JOBS, true)),
        "differs across reruns at seed 42".into(),
    );
    for seed in [42, 7] {
        same(
            &trace_processes(runs(INSTRUMENTED, seed, 1, true)),
            &trace_processes(runs(INSTRUMENTED, seed, JOBS, true)),
            format!("differs between jobs 1 and {JOBS} at seed {seed}"),
        );
    }
}

#[test]
fn every_instrumented_experiment_records_chunks() {
    for run in runs(INSTRUMENTED, 42, 1, true) {
        assert!(
            !run.trace.is_empty(),
            "{} is instrumented but recorded no chunks",
            run.id
        );
        // Chunk labels are unique within each experiment: they become
        // Perfetto thread names, and duplicates would silently merge tracks.
        let labels = run.trace.iter().map(|c| c.label.as_str());
        assert_unique(labels, &format!("chunk label in {}", run.id));
    }
}

#[test]
fn chrome_export_shape_is_valid() {
    let json = chrome_trace_json(&trace_processes(runs(INSTRUMENTED, 42, 1, true)));
    assert!(json.starts_with("{\"traceEvents\": [\n"));
    assert!(json.ends_with("], \"displayTimeUnit\": \"ms\"}\n"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // One process-name metadata row per instrumented experiment.
    for id in INSTRUMENTED.split(' ') {
        assert!(
            json.contains(&format!(
                "\"process_name\", \"args\": {{\"name\": \"{id}\"}}"
            )),
            "no process row for {id}"
        );
    }
    // Spans balance within the storm recording (every B has its E).
    assert_eq!(
        json.matches("\"ph\": \"B\"").count(),
        json.matches("\"ph\": \"E\"").count()
    );
}

#[test]
fn queue_counters_surface_event_activity() {
    // evalstorm runs on the sim-core event queue, so its counters must be
    // live; they also must not depend on tracing (they are always on).
    let evalstorm = |trace| {
        runs("all", 42, JOBS, trace)
            .iter()
            .find(|r| r.id == "evalstorm")
            .expect("evalstorm is selected")
            .queue
    };
    let (off, on) = (evalstorm(false), evalstorm(true));
    assert!(off.pops > 0, "evalstorm popped no events?");
    assert!(off.max_depth > 0);
    assert_eq!(off, on, "tracing changed queue activity");
}
