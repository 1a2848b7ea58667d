//! `acme-bench`: the experiment harness and its regression guard.
//!
//! * The `repro` binary regenerates every table and figure:
//!
//!   ```text
//!   cargo run -p acme-bench --bin repro -- all
//!   cargo run -p acme-bench --bin repro -- all --jobs 8
//!   cargo run -p acme-bench --bin repro -- fig10 table3 --seed 7
//!   cargo run -p acme-bench --bin repro -- all --timings-json timings.json
//!   cargo run -p acme-bench --bin repro -- --list
//!   ```
//!
//!   Experiments run across `--jobs` worker threads (default: all cores).
//!   stdout is **byte-identical for every jobs value** — results are
//!   buffered and emitted in selection order — so the parallel run is safe
//!   to diff against golden output. The per-experiment wall-time report
//!   goes to stderr, and `--timings-json PATH` writes a machine-readable
//!   dump for the bench trajectory (`BENCH_repro_all.json`).
//!
//! * The `bench_guard` binary compares such a dump against a checked-in
//!   baseline and fails when an experiment got slower than a set factor.

#![warn(missing_docs)]

use acme::experiments::ExperimentRun;

/// Default seed used by the harness when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Experiment ids to run (possibly containing `all`).
    pub ids: Vec<String>,
    /// Seed shared by every experiment.
    pub seed: u64,
    /// Just list the registry and exit.
    pub list_only: bool,
    /// Worker threads; `None` means one per available core.
    pub jobs: Option<usize>,
    /// Workload multiplier for the heavy experiments (≥ 1).
    pub scale: u32,
    /// Arrival count for the open-system `fleet` experiment.
    pub fleet_jobs: u64,
    /// Write a machine-readable timing dump to this path.
    pub timings_json: Option<String>,
    /// Record a flight-recorder trace: Chrome trace-event JSON at this
    /// path, plus the compact journal next to it ([`journal_path`]).
    pub trace: Option<String>,
    /// Just print the usage summary and exit.
    pub help: bool,
}

/// The `repro --help` text. One place, so the binary's help, its
/// flag-error hint, and the doc tests can never drift apart.
pub const USAGE: &str = "\
repro — regenerate the paper's tables and figures

usage: repro [OPTIONS] [all | <id>...]

  all                  run every experiment, in registry order
  <id>...              run a selection (ids from --list)

options:
  --list               list every experiment id with a one-line description
  --seed N             simulation seed (default 42)
  --jobs N             worker threads (default: one per core); stdout is
                       byte-identical for every value
  --scale N            multiply the heavy-experiment workloads (default 1)
  --fleet-jobs N       arrival count for the open-system fleet experiment
                       (default 1000000)
  --timings-json PATH  write a machine-readable dump: per-experiment wall
                       time, event-queue counters, per-shard timings, RSS
  --trace PATH         flight-recorder trace of the instrumented
                       experiments: Chrome trace-event JSON at PATH (open
                       in Perfetto), compact journal at PATH's `.journal`
                       sibling; both deterministic for (seed, scale)
  --help               print this summary

The report goes to stdout and is byte-identical for every --jobs value;
the wall-time table goes to stderr so golden diffs never see it.
";

/// Parse harness arguments: experiment ids plus `--seed N`, `--jobs N`,
/// `--scale N`, `--fleet-jobs N`, `--timings-json PATH`, `--trace PATH`,
/// `--list`, and `--help`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs {
        ids: Vec::new(),
        seed: DEFAULT_SEED,
        list_only: false,
        jobs: None,
        scale: 1,
        fleet_jobs: acme::experiments::DEFAULT_FLEET_JOBS,
        timings_json: None,
        trace: None,
        help: false,
    };
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--jobs" => {
                let v = iter.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                parsed.jobs = Some(n);
            }
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if n == 0 {
                    return Err("--scale must be at least 1".into());
                }
                parsed.scale = n;
            }
            "--fleet-jobs" => {
                let v = iter.next().ok_or("--fleet-jobs needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad fleet job count: {v}"))?;
                if n == 0 {
                    return Err("--fleet-jobs must be at least 1".into());
                }
                parsed.fleet_jobs = n;
            }
            "--timings-json" => {
                let v = iter.next().ok_or("--timings-json needs a path")?;
                parsed.timings_json = Some(v);
            }
            "--trace" => {
                let v = iter.next().ok_or("--trace needs a path")?;
                parsed.trace = Some(v);
            }
            "--list" => parsed.list_only = true,
            "--help" | "-h" => parsed.help = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag: {a}")),
            _ => parsed.ids.push(a),
        }
    }
    Ok(parsed)
}

/// Whether any run in the batch failed (panicked experiment): the harness
/// exits nonzero when this is true, so CI catches a broken artifact even
/// though the rest of the report still renders.
pub fn any_failed(runs: &[ExperimentRun]) -> bool {
    runs.iter().any(|r| r.failed)
}

/// The exact stdout of a harness run: the seed header followed by every
/// experiment's report, in selection order. Shared by the `repro` binary
/// and the determinism tests so what is tested is what ships.
pub fn render_report(seed: u64, runs: &[ExperimentRun]) -> String {
    let mut out =
        String::with_capacity(64 + runs.iter().map(|r| r.output.len() + 1).sum::<usize>());
    out.push_str(&format!("# Acme reproduction — seed {seed}\n\n"));
    for run in runs {
        out.push_str(&run.output);
        out.push('\n');
    }
    out
}

/// The stderr wall-time report: one line per experiment (slowest first),
/// then totals. `jobs` is the worker count `run_selection` was given.
pub fn render_timings(runs: &[ExperimentRun], jobs: usize, elapsed: std::time::Duration) -> String {
    let mut by_cost: Vec<&ExperimentRun> = runs.iter().collect();
    by_cost.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.id.cmp(b.id)));
    let cpu_total: std::time::Duration = runs.iter().map(|r| r.wall).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "# timings — {} experiment(s), {jobs} worker(s)\n",
        runs.len()
    ));
    for run in by_cost {
        out.push_str(&format!(
            "  {:<8} {:>9.3} ms  {}\n",
            run.id,
            run.wall.as_secs_f64() * 1e3,
            run.title
        ));
    }
    out.push_str(&format!(
        "  total experiment cpu {:>9.3} ms, wall {:>9.3} ms\n",
        cpu_total.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3
    ));
    out
}

/// Peak resident set size of this process in bytes, read from the
/// `VmHWM` line of `/proc/self/status`. Returns `0` where that interface
/// does not exist (non-Linux) — consumers treat `0` as "unavailable",
/// never as "used no memory".
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<u64>().ok().map(|kb| kb * 1024)
            })
        })
        .unwrap_or(0)
}

/// Group each run's flight-recorder chunks into one Perfetto "process"
/// per experiment, in selection order; runs that recorded nothing are
/// skipped. Chunks are already in shard order (the shard pool re-deposits
/// worker chunks on the calling thread in shard order), so the exported
/// bytes are a pure function of (selection, seed, scale) — independent of
/// `--jobs`.
pub fn trace_processes(runs: &[ExperimentRun]) -> Vec<acme_obs::TraceProcess> {
    runs.iter()
        .filter(|r| !r.trace.is_empty())
        .map(|r| acme_obs::TraceProcess {
            name: r.id.to_owned(),
            chunks: r.trace.clone(),
        })
        .collect()
}

/// Where the compact journal goes for a `--trace PATH` run: `t.json` →
/// `t.journal`, anything without a `.json` extension gets `.journal`
/// appended.
pub fn journal_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.journal"),
        None => format!("{trace_path}.journal"),
    }
}

/// Machine-readable timing dump (hand-rolled JSON; no serde in-tree).
/// Schema: `{seed, jobs, wall_ms, peak_rss_bytes, experiments:
/// [{id, ms, events_processed, max_queue_depth, flows_routed,
/// max_link_utilization}, ...], shards:
/// [{experiment, shard, ms}, ...]}` with experiments in selection order
/// and shards in per-experiment shard order. The flat `shards` section
/// comes *after* the experiments array, so scanners that stop at the
/// array's closing bracket (the `bench_guard` parser) are unaffected; its
/// objects deliberately carry no `id` key. The counters come from
/// `acme_sim_core::stats`: `events_processed` and `max_queue_depth` are
/// events popped and peak pending depth across every event queue the
/// experiment dropped, and `flows_routed` and `max_link_utilization` are
/// flows pushed through the fat-tree scheduler and the busiest link's
/// time-averaged utilization — 0 for experiments that never use the
/// event queue or route traffic. `peak_rss` is the
/// caller's [`peak_rss_bytes`] reading, taken as a parameter so the
/// renderer stays a pure function.
pub fn render_timings_json(
    seed: u64,
    runs: &[ExperimentRun],
    jobs: usize,
    elapsed: std::time::Duration,
    peak_rss: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!(
        "  \"wall_ms\": {:.3},\n",
        elapsed.as_secs_f64() * 1e3
    ));
    out.push_str(&format!("  \"peak_rss_bytes\": {peak_rss},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"ms\": {:.3}, \"events_processed\": {}, \
             \"max_queue_depth\": {}, \"flows_routed\": {}, \
             \"max_link_utilization\": {:.3}}}{comma}\n",
            run.id,
            run.wall.as_secs_f64() * 1e3,
            run.queue.pops,
            run.queue.max_depth,
            run.net.flows_routed,
            run.net.max_link_utilization
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"shards\": [\n");
    let shard_rows: Vec<(&str, &acme::experiments::ShardTiming)> = runs
        .iter()
        .flat_map(|r| r.shards.iter().map(move |s| (r.id, s)))
        .collect();
    for (i, (id, s)) in shard_rows.iter().enumerate() {
        let comma = if i + 1 == shard_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"experiment\": \"{id}\", \"shard\": \"{}\", \"ms\": {:.3}}}{comma}\n",
            s.label,
            s.wall.as_secs_f64() * 1e3
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn v(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn fake_run(id: &'static str, ms: u64) -> ExperimentRun {
        ExperimentRun {
            id,
            title: "t",
            output: format!("### {id} — t\nrow"),
            wall: Duration::from_millis(ms),
            failed: false,
            shards: Vec::new(),
            trace: Vec::new(),
            queue: acme_sim_core::stats::QueueStats::ZERO,
            net: acme_sim_core::stats::NetStats::ZERO,
        }
    }

    #[test]
    fn parses_ids_and_seed() {
        let p = parse_args(v(&["fig10", "table3", "--seed", "7"])).unwrap();
        assert_eq!(p.ids, vec!["fig10", "table3"]);
        assert_eq!(p.seed, 7);
        assert!(!p.list_only);
        assert_eq!(p.jobs, None);
        assert_eq!(p.timings_json, None);
    }

    #[test]
    fn defaults() {
        let p = parse_args(v(&[])).unwrap();
        assert!(p.ids.is_empty());
        assert_eq!(p.seed, DEFAULT_SEED);
        assert!(!p.list_only);
    }

    #[test]
    fn list_flag() {
        assert!(parse_args(v(&["--list"])).unwrap().list_only);
    }

    #[test]
    fn jobs_and_timings_json() {
        let p = parse_args(v(&["all", "--jobs", "4", "--timings-json", "t.json"])).unwrap();
        assert_eq!(p.jobs, Some(4));
        assert_eq!(p.timings_json.as_deref(), Some("t.json"));
        assert_eq!(p.scale, 1);
        assert_eq!(p.fleet_jobs, acme::experiments::DEFAULT_FLEET_JOBS);
        assert_eq!(p.trace, None);
        assert!(!p.help);
    }

    #[test]
    fn trace_flag() {
        let p = parse_args(v(&["storm", "--trace", "t.json"])).unwrap();
        assert_eq!(p.trace.as_deref(), Some("t.json"));
        assert_eq!(p.ids, vec!["storm"]);
    }

    #[test]
    fn help_flag_and_usage_text() {
        assert!(parse_args(v(&["--help"])).unwrap().help);
        assert!(parse_args(v(&["-h"])).unwrap().help);
        // The summary documents every flag parse_args accepts.
        for flag in [
            "--list",
            "--seed",
            "--jobs",
            "--scale",
            "--fleet-jobs",
            "--timings-json",
            "--trace",
            "--help",
        ] {
            assert!(USAGE.contains(flag), "USAGE is missing {flag}");
        }
    }

    #[test]
    fn journal_path_replaces_json_extension() {
        assert_eq!(journal_path("t.json"), "t.journal");
        assert_eq!(journal_path("out/trace.json"), "out/trace.journal");
        assert_eq!(journal_path("trace"), "trace.journal");
    }

    #[test]
    fn trace_processes_skip_untraced_runs() {
        let mut traced = fake_run("storm", 2);
        let mut r = acme_obs::Recorder::new();
        acme_obs::Rec::on(&mut r).instant(1.0, "x", "", &[]);
        traced.trace.push(r.into_chunk("arm/full"));
        let runs = [fake_run("fig2", 1), traced];
        let procs = trace_processes(&runs);
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].name, "storm");
        assert_eq!(procs[0].chunks.len(), 1);
        assert_eq!(procs[0].chunks[0].label, "arm/full");
    }

    #[test]
    fn fleet_jobs_flag() {
        let p = parse_args(v(&["fleet", "--fleet-jobs", "100000"])).unwrap();
        assert_eq!(p.fleet_jobs, 100_000);
    }

    #[test]
    fn scale_flag() {
        let p = parse_args(v(&["data", "--scale", "16"])).unwrap();
        assert_eq!(p.scale, 16);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(v(&["--seed"])).is_err());
        assert!(parse_args(v(&["--seed", "x"])).is_err());
        assert!(parse_args(v(&["--bogus"])).is_err());
        assert!(parse_args(v(&["--jobs"])).is_err());
        assert!(parse_args(v(&["--jobs", "x"])).is_err());
        assert!(parse_args(v(&["--jobs", "0"])).is_err());
        assert!(parse_args(v(&["--scale"])).is_err());
        assert!(parse_args(v(&["--scale", "0"])).is_err());
        assert!(parse_args(v(&["--scale", "x"])).is_err());
        assert!(parse_args(v(&["--fleet-jobs"])).is_err());
        assert!(parse_args(v(&["--fleet-jobs", "0"])).is_err());
        assert!(parse_args(v(&["--fleet-jobs", "x"])).is_err());
        assert!(parse_args(v(&["--timings-json"])).is_err());
    }

    #[test]
    fn report_has_header_and_selection_order() {
        let runs = [fake_run("b", 1), fake_run("a", 2)];
        let report = render_report(9, &runs);
        assert!(report.starts_with("# Acme reproduction — seed 9\n\n"));
        let b_pos = report.find("### b").unwrap();
        let a_pos = report.find("### a").unwrap();
        assert!(b_pos < a_pos, "report must keep selection order");
    }

    #[test]
    fn timings_sorted_slowest_first() {
        let runs = [fake_run("fast", 1), fake_run("slow", 50)];
        let t = render_timings(&runs, 2, Duration::from_millis(51));
        let slow_pos = t.find("slow").unwrap();
        let fast_pos = t.find("fast").unwrap();
        assert!(slow_pos < fast_pos);
        assert!(t.contains("2 worker(s)"));
    }

    #[test]
    fn any_failed_flags_a_failed_run() {
        let mut runs = [fake_run("a", 1), fake_run("b", 1)];
        assert!(!any_failed(&runs));
        runs[1].failed = true;
        assert!(any_failed(&runs));
        assert!(!any_failed(&[]));
    }

    #[test]
    fn timings_json_shape() {
        let mut runs = [fake_run("x", 3), fake_run("y", 4)];
        runs[1].queue = acme_sim_core::stats::QueueStats {
            schedules: 12,
            pops: 11,
            max_depth: 5,
        };
        runs[1].net = acme_sim_core::stats::NetStats {
            flows_routed: 64,
            max_link_utilization: 0.875,
        };
        let j = render_timings_json(42, &runs, 8, Duration::from_millis(7), 12_345_678);
        assert!(j.contains("\"seed\": 42"));
        assert!(j.contains("\"jobs\": 8"));
        // RSS comes before the experiments array, after the scalar header
        // fields, so `bench_guard`'s id scanner never sees it.
        assert!(j.contains("\"peak_rss_bytes\": 12345678,\n"));
        assert!(j.find("\"peak_rss_bytes\"").unwrap() < j.find("\"experiments\"").unwrap());
        // Queue and network counters ride along per experiment (0 when the
        // experiment never touched the event queue or the fat tree).
        assert!(j.contains(
            "{\"id\": \"x\", \"ms\": 3.000, \"events_processed\": 0, \"max_queue_depth\": 0, \
             \"flows_routed\": 0, \"max_link_utilization\": 0.000},"
        ));
        assert!(j.contains(
            "{\"id\": \"y\", \"ms\": 4.000, \"events_processed\": 11, \"max_queue_depth\": 5, \
             \"flows_routed\": 64, \"max_link_utilization\": 0.875}\n"
        ));
        // Unsharded runs still emit the (empty) shards section.
        assert!(j.contains("\"shards\": [\n  ]\n}\n"));
        // Crude but effective: balanced braces/brackets, trailing newline.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn timings_json_reports_shards_after_experiments() {
        let mut sharded = fake_run("diag", 9);
        sharded.shards = vec![
            acme::experiments::ShardTiming {
                label: "nccl/0".to_owned(),
                wall: Duration::from_millis(2),
            },
            acme::experiments::ShardTiming {
                label: "nccl/1".to_owned(),
                wall: Duration::from_millis(3),
            },
        ];
        let runs = [fake_run("x", 3), sharded];
        let j = render_timings_json(7, &runs, 2, Duration::from_millis(12), 0);
        assert!(j.contains("{\"experiment\": \"diag\", \"shard\": \"nccl/0\", \"ms\": 2.000},"));
        assert!(j.contains("{\"experiment\": \"diag\", \"shard\": \"nccl/1\", \"ms\": 3.000}\n"));
        // Shard objects live after the experiments array (and have no `id`
        // key), so id-scanning consumers never see them.
        let exp_end = j.find("],").unwrap();
        assert!(j.find("\"shard\"").unwrap() > exp_end);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn peak_rss_reads_vmhwm_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // The test process has certainly touched a few MiB.
            assert!(rss > 1024 * 1024, "VmHWM reported {rss} bytes");
            assert_eq!(rss % 1024, 0, "VmHWM is reported in kB");
        }
    }
}
