//! `bench_guard` — fail CI when an experiment regresses past a factor.
//!
//! Compares a fresh `repro all --timings-json` dump against the checked-in
//! baseline (`BENCH_repro_all.json`) and exits non-zero if any experiment
//! got slower than `--factor` × its baseline (default 2.0 — a loose bound
//! chosen to catch real algorithmic regressions without flaking on shared
//! CI-runner noise). Experiments under a small absolute noise floor are
//! never flagged: at sub-millisecond durations the timer jitter exceeds
//! any signal.
//!
//! ```text
//! bench_guard --baseline BENCH_repro_all.json --current current.json
//! bench_guard --baseline a.json --current b.json --factor 3.0
//! ```
//!
//! The JSON is parsed with a purpose-built scanner (schema:
//! `{seed, jobs, wall_ms, experiments: [{id, ms}, ...]}`) — the workspace
//! deliberately carries no serde. The scanner keys on `id` and `ms` only,
//! so extra per-experiment fields (`events_processed`, `max_queue_depth`
//! from the flight-recorder PR) and extra header fields pass through
//! untouched.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Regressions smaller than this many milliseconds are ignored outright —
/// timer noise, not signal.
const NOISE_FLOOR_MS: f64 = 1.0;

/// Extract `(id, ms)` pairs from a timings dump. Tolerant of whitespace
/// and field order within each experiment object; returns an error when no
/// experiment entry can be found (wrong file, wrong schema).
fn parse_timings(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let body = json
        .split_once("\"experiments\"")
        .ok_or("no \"experiments\" key")?
        .1;
    // Stop at the experiments array's closing bracket: later sections of
    // the dump (the per-shard timings) hold objects without an `id` key.
    let body = match body.find(']') {
        Some(end) => &body[..end],
        None => body,
    };
    // Each experiment object is `{...}`; scan object by object.
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or("unterminated experiment object")?
            + open;
        let obj = &rest[open + 1..close];
        let id = field_str(obj, "id").ok_or_else(|| format!("object without id: {obj}"))?;
        let ms = field_num(obj, "ms").ok_or_else(|| format!("object without ms: {obj}"))?;
        out.insert(id, ms);
        rest = &rest[close + 1..];
    }
    if out.is_empty() {
        return Err("no experiment entries found".into());
    }
    Ok(out)
}

/// `"key": "value"` within one flat JSON object body.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let tail = obj.split_once(&format!("\"{key}\""))?.1;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let tail = tail.strip_prefix('"')?;
    Some(tail.split_once('"')?.0.to_owned())
}

/// `"key": 12.345` within one flat JSON object body.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let tail = obj.split_once(&format!("\"{key}\""))?.1;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

struct Args {
    baseline: String,
    current: String,
    factor: f64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut baseline, mut current, mut factor) = (None, None, 2.0f64);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = Some(args.next().ok_or("--baseline needs a path")?),
            "--current" => current = Some(args.next().ok_or("--current needs a path")?),
            "--factor" => {
                let v = args.next().ok_or("--factor needs a value")?;
                factor = v.parse().map_err(|_| format!("bad factor: {v}"))?;
                if factor < 1.0 || factor.is_nan() {
                    return Err("--factor must be >= 1.0".into());
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        factor,
    })
}

/// Ids present in the current dump but absent from the baseline — newly
/// added experiments (e.g. `storm` before a baseline refresh). These are
/// reported as an informative notice, never an error: a new experiment has
/// no baseline to regress against.
fn unbaselined(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> Vec<String> {
    current
        .keys()
        .filter(|id| !baseline.contains_key(*id))
        .cloned()
        .collect()
}

/// The ids that regressed: `(id, baseline ms, current ms)`.
fn regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    factor: f64,
) -> Vec<(String, f64, f64)> {
    let mut bad = Vec::new();
    for (id, &base_ms) in baseline {
        let Some(&cur_ms) = current.get(id) else {
            continue; // experiment removed/renamed: not a perf regression
        };
        if cur_ms > base_ms * factor && cur_ms - base_ms > NOISE_FLOOR_MS {
            bad.push((id.clone(), base_ms, cur_ms));
        }
    }
    bad
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bench_guard --baseline PATH --current PATH [--factor F]");
            return ExitCode::FAILURE;
        }
    };
    let load = |path: &str| -> Result<BTreeMap<String, f64>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_timings(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (load(&args.baseline), load(&args.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    let new_ids = unbaselined(&baseline, &current);
    if !new_ids.is_empty() {
        println!(
            "bench_guard: {} experiment(s) not in baseline (skipped, refresh the baseline to cover them): {}",
            new_ids.len(),
            new_ids.join(", ")
        );
    }

    let bad = regressions(&baseline, &current, args.factor);
    if bad.is_empty() {
        println!(
            "bench_guard: {} experiment(s) within {}x of baseline",
            baseline.len(),
            args.factor
        );
        return ExitCode::SUCCESS;
    }
    for (id, base_ms, cur_ms) in &bad {
        eprintln!(
            "REGRESSION {id}: {cur_ms:.3} ms vs baseline {base_ms:.3} ms ({:.2}x, limit {}x)",
            cur_ms / base_ms,
            args.factor
        );
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "seed": 42,
  "jobs": 1,
  "wall_ms": 100.0,
  "experiments": [
    {"id": "fig2", "ms": 10.000},
    {"id": "data", "ms": 50.250}
  ],
  "shards": [
    {"experiment": "data", "shard": "loader/on-the-fly", "ms": 24.000}
  ]
}
"#;

    #[test]
    fn parses_the_repro_dump_schema() {
        let t = parse_timings(SAMPLE).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t["fig2"], 10.0);
        assert_eq!(t["data"], 50.25);
    }

    #[test]
    fn shard_section_is_ignored() {
        // The per-shard section has id-less objects; the scan must stop at
        // the experiments array rather than choke on them.
        let t = parse_timings(SAMPLE).unwrap();
        assert!(!t.contains_key("loader/on-the-fly"));
        // And a dump without the section still parses.
        let legacy = SAMPLE.split(",\n  \"shards\"").next().unwrap().to_owned() + "\n}\n";
        assert_eq!(parse_timings(&legacy).unwrap().len(), 2);
    }

    #[test]
    fn tolerates_event_queue_counter_fields() {
        // The flight-recorder PR added per-experiment queue counters; the
        // scanner must keep extracting (id, ms) and ignore the rest.
        let with_counters = r#"{
  "seed": 42,
  "jobs": 4,
  "wall_ms": 100.0,
  "peak_rss_bytes": 123456,
  "experiments": [
    {"id": "fig2", "ms": 10.000, "events_processed": 0, "max_queue_depth": 0},
    {"id": "evalstorm", "ms": 20.500, "events_processed": 51234, "max_queue_depth": 87}
  ],
  "shards": []
}
"#;
        let t = parse_timings(with_counters).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t["fig2"], 10.0);
        assert_eq!(t["evalstorm"], 20.5);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_timings("{}").is_err());
        assert!(parse_timings("{\"experiments\": []}").is_err());
    }

    #[test]
    fn flags_only_real_regressions() {
        let base = parse_timings(SAMPLE).unwrap();
        let mut cur = base.clone();
        // Within factor: fine.
        cur.insert("data".into(), 90.0);
        assert!(regressions(&base, &cur, 2.0).is_empty());
        // Past factor: flagged.
        cur.insert("data".into(), 120.0);
        let bad = regressions(&base, &cur, 2.0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "data");
    }

    #[test]
    fn noise_floor_protects_fast_experiments() {
        let mut base = BTreeMap::new();
        base.insert("tiny".to_string(), 0.2);
        let mut cur = BTreeMap::new();
        // 5x "regression" but only 0.8 ms of it: ignored.
        cur.insert("tiny".to_string(), 1.0);
        assert!(regressions(&base, &cur, 2.0).is_empty());
    }

    #[test]
    fn missing_current_entry_is_not_a_regression() {
        let base = parse_timings(SAMPLE).unwrap();
        let cur = BTreeMap::new();
        assert!(regressions(&base, &cur, 2.0).is_empty());
    }

    #[test]
    fn new_experiment_is_a_notice_not_an_error() {
        let base = parse_timings(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur.insert("storm".to_string(), 500.0);
        // Not in the baseline: surfaced by name…
        assert_eq!(unbaselined(&base, &cur), vec!["storm".to_string()]);
        // …but never counted as a regression, however slow it is.
        assert!(regressions(&base, &cur, 2.0).is_empty());
        // Established ids don't show up as new.
        assert!(unbaselined(&base, &base).is_empty());
    }

    #[test]
    fn arg_parsing() {
        let ok = parse_args(
            ["--baseline", "a", "--current", "b", "--factor", "3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(ok.factor, 3.0);
        assert!(parse_args(["--baseline", "a"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(
            ["--baseline", "a", "--current", "b", "--factor", "0.5"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }
}
