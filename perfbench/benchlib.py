"""Pure logic of the repo benchmark: metric-table validation, statistics,
speed calibration, the block-by-block golden diff, and per-layer accounting
from a traced pass.

Nothing here runs a process or reads the clock; `run.py` does that and the
tests in `tests/` cover this module directly.
"""

import math
import re
import statistics
from collections import defaultdict

# ---- metric tables ----------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def metric_tables(spec):
    """The ([(name, unit)] end-to-end, [(name, unit)] per-layer) tables of
    a parsed `BENCHMARK.json`."""
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def metric_table_errors(end_to_end, per_layer):
    """Every way the two metric tables break the naming rules: names made
    of `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long,
    used once; units of at most 16 of `[A-Za-z0-9_/%.-]`; at most 16
    end-to-end and 128 per-layer metrics."""
    errors = []
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        errors.append(f"{len(end_to_end)} end-to-end metrics (1 to {MAX_END_TO_END} allowed)")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        errors.append(f"{len(per_layer)} per-layer metrics (1 to {MAX_PER_LAYER} allowed)")
    seen = set()
    for name, unit in list(end_to_end) + list(per_layer):
        if not NAME_RE.fullmatch(name):
            errors.append(f"bad metric name {name!r}")
        if not UNIT_RE.fullmatch(unit):
            errors.append(f"bad unit {unit!r} for {name}")
        if name in seen:
            errors.append(f"metric {name} defined twice")
        seen.add(name)
    return errors


# ---- statistics --------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """The p-th percentile of `values`, nearest rank."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """(p, value) for the highest percentile on the ladder with at least 10
    samples beyond it (nearest rank), or None with fewer than 20 samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10 - 1e-9:
            return p, percentile(values, p)
    return None


def speed_factors(calibrations, reference):
    """One factor per pass for passes run between consecutive calibration
    runs: `reference` ÷ the mean of the calibration before and after the
    pass. A pass time times its factor is the time it would have taken at
    the speed that makes the calibration take `reference`."""
    return [reference / ((a + b) / 2) for a, b in zip(calibrations, calibrations[1:])]


class PassLog:
    """Pass outcomes of one run: every pass counts as attempted, and one
    that exits nonzero, prints a FAILED block or drifts from the reference
    counts as failed and stays out of the timing statistics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok

    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


# ---- golden report diff ------------------------------------------------------

def split_blocks(text):
    """Split a `repro` report into its header and `### id` blocks, in
    order: [(id, block text)]. Each block runs up to the next `### `
    line, so concatenating header and blocks gives the text back."""
    parts = re.split(r"(?m)^(?=### )", text)
    header = parts[0]
    blocks = []
    for part in parts[1:]:
        first = part.split("\n", 1)[0]
        blocks.append((first[4:].split(" ", 1)[0], part))
    return header, blocks


def expected_report(golden_text, ids, seed):
    """The stdout `repro <ids> --seed <seed>` must print, cut from a full
    golden report: the seed header, then each selected id's block in
    selection order (`all` selects every block)."""
    _, blocks = split_blocks(golden_text)
    by_id = dict(blocks)
    order = [b[0] for b in blocks] if "all" in ids else ids
    missing = [i for i in order if i not in by_id]
    if missing:
        raise KeyError(f"golden report has no block for {missing}")
    return f"# Acme reproduction — seed {seed}\n\n" + "".join(by_id[i] for i in order)


def first_drift(expected, actual):
    """None when the reports are byte-identical; otherwise the id of the
    first `### id` block that differs (`header` when the header does)."""
    if expected == actual:
        return None
    eh, eb = split_blocks(expected)
    ah, ab = split_blocks(actual)
    if eh != ah:
        return "header"
    for (eid, etext), actual_block in zip(eb, ab):
        if (eid, etext) != actual_block:
            return eid
    if len(eb) > len(ab):
        return eb[len(ab)][0]
    if len(ab) > len(eb):
        return ab[len(eb)][0]
    return "header"


def check_pass(exit_code, stdout, expected):
    """(ok, why) for one pass: a nonzero exit, a FAILED block, or stdout
    that differs from the reference fails it."""
    if exit_code != 0:
        return False, f"exit code {exit_code}"
    failed = re.search(r"(?m)^### (\S+) — FAILED$", stdout)
    if failed:
        return False, f"FAILED block {failed.group(1)}"
    drift = first_drift(expected, stdout)
    if drift is not None:
        return False, f"drift at ### {drift}"
    return True, None


# ---- per-layer accounting ----------------------------------------------------

# Span name (as the tracer records it) -> the metric holding its total time.
LAYER_TIME = {
    "workload.stream": "workload.stream.s",
    "workload.stats": "workload.stats.s",
    "telemetry.sketch": "telemetry.sketch.s",
    "telemetry.sketch.merge": "telemetry.sketch.merge_s",
    "failure.storm": "failure.storm.s",
    "core.storm": "core.storm.s",
    "failure.logs": "failure.logs.s",
    "failure.diagnose": "failure.diagnose.s",
    "core.netstorm": "core.netstorm.s",
    "workload.generator": "workload.generator.s",
    "scheduler": "scheduler.s",
    "evaluation": "evaluation.s",
    "sim_core.queue": "sim_core.queue.s",
}

EXPERIMENT_TIME = re.compile(r"experiment\.(.+)\.s")


def layer_metrics(trace, names):
    """The per-layer metrics `names` of one traced pass (the tracer's
    JSON), and the self time charged to each layer.

    A span's self time is its duration minus its children's. Replayed
    calls hang under the experiment (or the replayed call) they stand for,
    so the self time of every span below an experiment is time charged to
    its layer; whatever no layer covers is the unattributed remainder.
    Named layers plus that remainder add up to the traced wall by
    construction. A layer or experiment the pass never reached reads the
    cost of one span that timed nothing, never 0; a count it never reached
    reads 0. The tracing overhead is the cost of one span times the number
    of spans the tracer timed."""
    spans = trace["spans"]
    counts = trace["counts"]
    span_s = trace["span_ns"] / 1e9
    dur = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[i]
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        total[s["name"]] += dur[i]
        self_time[s["name"]] += dur[i] - child_time[i]

    def time_of(name):
        return total[name] if name in total else span_s

    selection = next(i for i, s in enumerate(spans) if s["name"] == "run_selection")
    wall = dur[selection]
    experiments = {i for i, s in enumerate(spans) if s["kind"] == "reported"}
    busy = sum(dur[i] for i in experiments)

    def under_experiment(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
            if i in experiments:
                return True
        return False

    charged = defaultdict(float)
    for i, s in enumerate(spans):
        if s["name"] in LAYER_TIME and under_experiment(i):
            charged[s["name"]] += dur[i] - child_time[i]
    unattributed = wall - sum(charged.values())

    arrivals = counts.get("workload.stream.arrivals", 0)
    candidates = counts.get("workload.stream.candidates", 0)
    incidents = counts.get("core.storm.incidents", 0)
    derived = {metric: time_of(name) for name, metric in LAYER_TIME.items()}
    derived.update({
        "runner.busy_s": busy,
        "runner.occupancy": busy / wall,
        "workload.stream.acceptance": arrivals / candidates if candidates else 0.0,
        "workload.stream.ns_per_arrival": time_of("workload.stream") * 1e9 / max(arrivals, 1),
        "core.storm.self_s": self_time["core.storm"] if "core.storm" in total else span_s,
        "core.storm.us_per_incident": time_of("core.storm") * 1e6 / max(incidents, 1),
        "trace.wall_s": wall,
        "trace.overhead_s": span_s * sum(s["kind"] == "call" for s in spans),
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall,
    })
    m = {}
    for name in names:
        experiment = EXPERIMENT_TIME.fullmatch(name)
        if name in derived:
            m[name] = derived[name]
        elif experiment:
            m[name] = time_of(f"experiment.{experiment.group(1)}")
        else:
            m[name] = float(counts.get(name, 0))
    return m, dict(charged)
