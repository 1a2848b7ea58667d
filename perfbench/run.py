#!/usr/bin/env python3
"""The repo benchmark: four `repro` workloads, timed end to end, plus a
traced pass that charges host time to the layers behind them.

    python3 perfbench/run.py --workload suite --seed 42 --seconds 30 --trace 0

Run from the repository root. The benchmark reads its metric tables from
`BENCHMARK.json`, builds the release `repro` binary, the tracer and the
calibration run in `perfbench/tracer` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs passes until `--seconds` have gone by. Every pass is one fresh
process, one at a time, and its stdout is checked byte for byte: at seed 42
against the matching blocks of `docs/repro_seed42.txt`, at any other seed
against an untimed reference pass of the same selection.

`--trace 0` reports the end-to-end metrics, medians over the run's passes,
with every time scaled to the box's reference speed by a calibration run
before and after each pass; `--trace 1` runs traced passes and reports the
per-layer metrics. The last stdout line is the result as JSON. See
`perfbench/README.md` for the workloads, the calibration and the layer map.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SEED = 42

# name -> repro experiment ids
WORKLOADS = {
    "suite": ["all"],
    "fleet": ["fleet"],
    "recovery": ["diag", "storm", "blame", "policylab", "netstorm"],
    "scheduling": ["fig6", "fig16r", "evalstorm"],
}

# Every pass runs one experiment at a time (see README, "Workloads").
JOBS = 1

# Seconds one calibration process (`tracer/src/bin/calibrate.rs`) takes on
# a 2-core 2.1 GHz Intel Xeon VM at its usual speed. End-to-end times are
# reported at the speed at which it takes this long.
REFERENCE_CALIBRATION_S = 0.040

MIN_PASSES = 3


class BenchError(Exception):
    pass


# ---- build -------------------------------------------------------------------

def dep_sources(exe):
    """The source files cargo's dep-info (`<exe>.d`) lists for `exe`."""
    rule = Path(exe + ".d").read_text().split(": ", 1)[1].replace("\\\n", " ")
    return [p.replace("\\ ", " ") for p in re.split(r"(?<!\\)\s+", rule.strip()) if p]


def cargo_build(args, artifact):
    """Build with cargo and return the executable of `artifact`, refusing a
    binary built without optimisation or older than any source it was
    built from."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics", *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    exe = None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == artifact:
            exe, profile = msg.get("executable"), msg["profile"]
    if exe is None:
        raise BenchError(f"cargo built no {artifact} executable")
    if profile["opt_level"] == "0" or profile["debug_assertions"]:
        raise BenchError(f"{exe} is a debug build; the benchmark measures release builds only")
    built = os.stat(exe).st_mtime
    stale = [p for p in dep_sources(exe) if os.stat(p).st_mtime > built]
    if stale:
        raise BenchError(f"{exe} is older than its source {stale[0]}")
    return exe


# ---- environment ---------------------------------------------------------------

def capture(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    # Only this checkout's own history counts, never an enclosing repository.
    commit = dirty = None
    if capture(["git", "rev-parse", "--show-toplevel"]) == str(ROOT):
        commit = capture(["git", "rev-parse", "HEAD"])
        dirty = bool(capture(["git", "status", "--porcelain", "--untracked-files=no"]))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": capture(["rustc", "--version"]),
        "git_commit": commit,
        "git_dirty": dirty,
    }


# ---- passes --------------------------------------------------------------------

def spawn(argv, stdout_path, stderr_path):
    """Run one process to completion with stdout and stderr in files:
    (wall seconds, cpu seconds, exit code)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = (time.perf_counter_ns() - start) / 1e9
    return wall, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status)


class Bench:
    def __init__(self, workload, seed, work):
        self.ids = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.log = benchlib.PassLog()
        self.expected = None

    def calibrate(self):
        """Seconds one calibration process takes."""
        wall, _, code = spawn([self.calibrator], os.devnull, self.work / "calibrate_err.txt")
        if code != 0:
            raise BenchError(f"calibration exited with code {code}")
        return wall

    def untraced(self):
        """One `repro` pass: its measurements, or None when it failed."""
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        argv = [self.repro, *self.ids, "--seed", str(self.seed), "--jobs", str(JOBS),
                "--timings-json", str(self.work / "timings.json")]
        wall, cpu, code = spawn(argv, out, err)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        if self.expected is None:
            # The reference pass itself: it can still fail by exit code or
            # a FAILED block.
            ok, why = benchlib.check_pass(code, stdout, stdout)
        else:
            ok, why = benchlib.check_pass(code, stdout, self.expected)
        if not self.log.record(ok):
            print(f"pass {self.log.attempted} failed: {why}", file=sys.stderr)
            return None, stdout
        timings = json.loads((self.work / "timings.json").read_text())
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mib": timings["peak_rss_bytes"] / 2**20,
            "setup_s": wall - timings["wall_ms"] / 1e3,
        }, stdout

    def traced(self, names):
        """One tracer pass: its per-layer metrics `names` and the self time
        charged to each layer, or None when it failed."""
        report, spans = self.work / "traced_report.txt", self.work / "spans.json"
        argv = [self.tracer, "--pass", str(self.log.attempted + 1), "--seed", str(self.seed),
                "--report", str(report), "--spans", str(spans), *self.ids]
        _, _, code = spawn(argv, self.work / "tracer_out.txt", self.work / "tracer_err.txt")
        stdout = report.read_text(encoding="utf-8", errors="replace") if report.exists() else ""
        ok, why = benchlib.check_pass(code, stdout, self.expected)
        if not self.log.record(ok):
            print(f"pass {self.log.attempted} failed: traced {why}", file=sys.stderr)
            return None
        return benchlib.layer_metrics(json.loads(spans.read_text()), names)

    def reference(self):
        if self.seed == GOLDEN_SEED:
            golden = (ROOT / "docs" / "repro_seed42.txt").read_text(encoding="utf-8")
            self.expected = benchlib.expected_report(golden, self.ids, self.seed)
            # Warm-up pass: checked and counted, never timed.
            self.untraced()
        else:
            _, stdout = self.untraced()
            if self.log.failed:
                raise BenchError("the reference pass failed")
            self.expected = stdout


# ---- reporting -------------------------------------------------------------------

def number(v):
    return int(v) if float(v).is_integer() and abs(v) < 2**53 else v


def summarize(name, unit, values, host=None):
    q1, q2, q3 = benchlib.quartiles(values)
    line = f"  {name:<14} median {q2:.6g} {unit}  quartiles {q1:.6g}..{q3:.6g}"
    tail = benchlib.tail_percentile(values)
    if tail:
        line += f"  p{tail[0]:g} {tail[1]:.6g}"
    line += f"  (n={len(values)})"
    if host is not None:
        line += f"  host median {statistics.median(host):.6g} {unit}"
    return line


def run_untraced(bench, deadline, table):
    """Passes with a calibration run before the first and after each; every
    time is reported at the reference speed."""
    calibrations, results = [bench.calibrate()], []
    while len(results) < MIN_PASSES or time.monotonic() < deadline:
        m, _ = bench.untraced()
        results.append(m)
        calibrations.append(bench.calibrate())
    factors = benchlib.speed_factors(calibrations, REFERENCE_CALIBRATION_S)
    passes = [(m, f) for m, f in zip(results, factors) if m]
    if not passes:
        raise BenchError("no pass succeeded")
    print(f"end-to-end over {len(passes)} timed passes (tracing off), times at the reference speed;")
    q1, q2, q3 = benchlib.quartiles([f for _, f in passes])
    print(f"  box speed factor median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g} "
          f"(calibration median {statistics.median(calibrations) * 1e3:.4g} ms)")
    metrics = {}
    for name, unit in table:
        host = [m[name] for m, _ in passes]
        if unit == "s":
            values = [m[name] * f for m, f in passes]
            print(summarize(name, unit, values, host))
        else:
            values = host
            print(summarize(name, unit, values))
        metrics[name] = statistics.median(values)
    print(f"  {'fail_ratio':<14} {bench.log.fail_ratio():.6g} ({bench.log.failed} of {bench.log.attempted} passes)")
    return metrics


def run_traced(bench, deadline, table):
    names = [name for name, _ in table]
    traced, charged, attempts = [], [], 0
    while attempts < MIN_PASSES or time.monotonic() < deadline:
        attempts += 1
        t = bench.traced(names)
        if t:
            traced.append(t[0])
            charged.append(t[1])
    if not traced:
        raise BenchError("no traced pass succeeded")
    # Means, not medians, so that named layers plus the unattributed
    # remainder still add up to the traced wall, and the unattributed share
    # is that remainder's share of it.
    metrics = {name: statistics.fmean(p[name] for p in traced) for name in names}
    wall = metrics["trace.wall_s"]
    metrics["trace.unattributed_share"] = metrics["trace.unattributed_s"] / wall
    print(f"per-layer, mean over {len(traced)} traced passes:")
    print(f"  traced wall {wall:.6f} s, tracing overhead {metrics['trace.overhead_s']:.6f} s "
          f"({100 * metrics['trace.overhead_s'] / wall:.2f}%)")
    print("  share of the traced wall charged to each layer (self time):")
    for name in benchlib.LAYER_TIME:
        share = statistics.fmean(c.get(name, 0.0) for c in charged)
        if share:
            print(f"    {name:<24} {share:.6f} s  {100 * share / wall:5.1f}%")
    print(f"    {'(unattributed)':<24} {metrics['trace.unattributed_s']:.6f} s  "
          f"{100 * metrics['trace.unattributed_share']:5.1f}%")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    work = Path(os.environ["CARGO_TARGET_DIR"]) / "perfbench"
    try:
        end_to_end, per_layer = benchlib.metric_tables(json.loads((ROOT / "BENCHMARK.json").read_text()))
        errors = benchlib.metric_table_errors(end_to_end, per_layer)
        if errors:
            raise BenchError("BENCHMARK.json: " + "; ".join(errors))
        work.mkdir(parents=True, exist_ok=True)
        bench = Bench(args.workload, args.seed, work)
        # The builds run on every run, so only a checkout's first run pays them.
        bench.repro = cargo_build(["-p", "acme-bench", "--bin", "repro"], "repro")
        manifest = ["--manifest-path", str(ROOT / "perfbench" / "tracer" / "Cargo.toml")]
        bench.tracer = cargo_build([*manifest, "--bin", "perfbench-tracer"], "perfbench-tracer")
        bench.calibrator = cargo_build([*manifest, "--bin", "calibrate"], "calibrate")
        env = environment()
        print("env: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "jobs": JOBS, "trace": args.trace, **env}))
        bench.reference()
        deadline = time.monotonic() + args.seconds
        table = per_layer if args.trace else end_to_end
        run = run_traced if args.trace else run_untraced
        metrics = run(bench, deadline, table)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": bench.log.failed == 0,
        "attempted": bench.log.attempted,
        "failed": bench.log.failed,
        "metrics": {name: {"value": number(metrics[name]), "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
