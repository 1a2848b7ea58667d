//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --help                     # full usage/flag summary
//! repro --list                     # experiment ids with descriptions
//! repro all                        # run everything (the EXPERIMENTS.md source)
//! repro all --jobs 8               # same bytes, computed on 8 workers
//! repro fig10 table3               # run a selection
//! repro fig6 --seed 7              # override the seed
//! repro data --scale 16            # 16× the heavy-experiment workloads
//! repro fleet --fleet-jobs 100000  # shrink the open-system fleet run
//! repro all --timings-json t.json  # machine-readable timing dump
//! repro storm --trace t.json       # flight-recorder trace (Perfetto)
//! ```
//!
//! The report goes to stdout and is byte-identical for every `--jobs`
//! value; the per-experiment wall-time table goes to stderr so it never
//! perturbs golden-output diffs. `--trace` additionally writes Chrome
//! trace-event JSON plus a compact journal, both byte-identical across
//! reruns and worker counts (docs/perfetto.md).

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = match acme_bench::parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", acme_bench::USAGE);
            return ExitCode::FAILURE;
        }
    };

    if args.help {
        print!("{}", acme_bench::USAGE);
        return ExitCode::SUCCESS;
    }

    if args.list_only || args.ids.is_empty() {
        println!("available experiments (run with `repro all` or `repro <id>...`):");
        for e in &acme::experiments::all() {
            println!("  {:<10} {}", e.id, e.title);
            println!("  {:<10}   {}", "", e.desc);
        }
        return ExitCode::SUCCESS;
    }

    let selection = match acme::experiments::select(&args.ids) {
        Ok(selection) => selection,
        Err(unknown) => {
            for id in unknown {
                eprintln!("error: unknown experiment id `{id}` (try --list)");
            }
            return ExitCode::FAILURE;
        }
    };

    // `run_selection` sizes both the experiment pool and each sharded
    // experiment's shard pool from this one count.
    let jobs = args.jobs.unwrap_or_else(acme::experiments::default_jobs);
    let params = acme::experiments::RunParams::with_scale(args.seed, args.scale)
        .with_fleet_jobs(args.fleet_jobs)
        .with_trace(args.trace.is_some());
    let started = Instant::now();
    let runs = acme::experiments::run_selection(&selection, params, jobs);
    let elapsed = started.elapsed();

    print!("{}", acme_bench::render_report(args.seed, &runs));
    eprint!("{}", acme_bench::render_timings(&runs, jobs, elapsed));

    if let Some(path) = &args.trace {
        let procs = acme_bench::trace_processes(&runs);
        if procs.is_empty() {
            eprintln!(
                "note: no experiment in this selection is instrumented; \
                 the trace files hold only the (empty) envelope"
            );
        }
        let journal = acme_bench::journal_path(path);
        for (p, contents) in [
            (path.clone(), acme_obs::chrome_trace_json(&procs)),
            (journal, acme_obs::journal(&procs)),
        ] {
            if let Err(e) = std::fs::write(&p, contents) {
                eprintln!("error: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.timings_json {
        let json = acme_bench::render_timings_json(
            args.seed,
            &runs,
            jobs,
            elapsed,
            acme_bench::peak_rss_bytes(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if acme_bench::any_failed(&runs) {
        let failed: Vec<&str> = runs.iter().filter(|r| r.failed).map(|r| r.id).collect();
        eprintln!(
            "error: {} experiment(s) FAILED: {}",
            failed.len(),
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
