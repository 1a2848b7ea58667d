"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent.parent


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchlib.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchlib.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles(values)[1], statistics.median(values))
        odd = [3.0, 1.0, 2.0]
        self.assertEqual(benchlib.quartiles(odd)[1], statistics.median(odd))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([0.25]), (0.25, 0.25, 0.25))

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(benchlib.percentile([0.25], 10), 0.25)
        self.assertEqual(benchlib.percentile([float(i) for i in range(10, 0, -1)], 10), 1.0)
        self.assertEqual(benchlib.percentile([float(i) for i in range(1, 12)], 10), 2.0)
        self.assertEqual(benchlib.percentile([float(i) for i in range(1, 101)], 10), 10.0)
        self.assertEqual(benchlib.percentile([float(i) for i in range(1, 101)], 100), 100.0)

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        self.assertEqual(benchlib.tail_percentile([float(i) for i in range(1, 21)]), (50.0, 10.0))
        self.assertEqual(benchlib.tail_percentile([float(i) for i in range(1, 101)]), (90.0, 90.0))
        self.assertEqual(benchlib.tail_percentile([float(i) for i in range(1, 1001)]), (99.0, 990.0))
        self.assertEqual(benchlib.tail_percentile([float(i) for i in range(1, 10001)])[0], 99.9)

    def test_speed_factors_use_the_calibrations_around_each_pass(self):
        # Three passes between four calibrations; the box slows 1.5x
        # during the second pass.
        factors = benchlib.speed_factors([0.02, 0.02, 0.03, 0.02], 0.02)
        self.assertEqual(len(factors), 3)
        self.assertAlmostEqual(factors[0], 1.0)
        self.assertAlmostEqual(factors[1], 0.8)
        self.assertAlmostEqual(factors[2], 0.8)
        # A pass that took 1.5x as long in a 1.5x slower spell reads as fast.
        self.assertAlmostEqual(0.45 * benchlib.speed_factors([0.03, 0.03], 0.02)[0], 0.30)


class FailureCounting(unittest.TestCase):
    def test_failed_passes_count_against_attempted(self):
        log = benchlib.PassLog()
        self.assertEqual(log.fail_ratio(), 0.0)
        self.assertTrue(log.record(True))
        self.assertFalse(log.record(False))
        self.assertTrue(log.record(True))
        self.assertFalse(log.record(False))
        self.assertEqual((log.attempted, log.failed), (4, 2))
        self.assertEqual(log.fail_ratio(), 0.5)

    def test_check_pass_fails_on_exit_code_and_failed_block(self):
        ok = "# Acme reproduction — seed 1\n\n### a — A\nx\n\n"
        self.assertEqual(benchlib.check_pass(0, ok, ok), (True, None))
        self.assertEqual(benchlib.check_pass(101, ok, ok), (False, "exit code 101"))
        failed = "# Acme reproduction — seed 1\n\n### a — FAILED\nexperiment panicked: x\n\n"
        self.assertEqual(benchlib.check_pass(0, failed, failed), (False, "FAILED block a"))


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END, PER_LAYER = benchlib.metric_tables(SPEC)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(benchlib.metric_table_errors(END_TO_END, PER_LAYER), [])
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_bad_names_units_duplicates_and_counts_are_rejected(self):
        e2e = [("wall_s", "s")]
        for bad in ["", "_lead", "has space", "x!", "a" * 65, "é"]:
            errors = benchlib.metric_table_errors(e2e, [(bad, "s")])
            self.assertTrue(any("bad metric name" in e for e in errors), bad)
        self.assertEqual(benchlib.metric_table_errors(e2e, [("a.b-c_9", "1/s")]), [])
        self.assertTrue(benchlib.metric_table_errors(e2e, [("x", "seconds-per-arrival")]))
        self.assertTrue(benchlib.metric_table_errors(e2e, [("wall_s", "s")]))
        many = [(f"m{i}", "s") for i in range(17)]
        self.assertTrue(any("end-to-end" in e for e in benchlib.metric_table_errors(many, e2e)))
        self.assertEqual(benchlib.metric_table_errors(many[:16], [("x", "s")]), [])
        layers = [(f"l{i}", "s") for i in range(129)]
        self.assertTrue(any("per-layer" in e for e in benchlib.metric_table_errors(e2e, layers)))
        self.assertEqual(benchlib.metric_table_errors(e2e, layers[:128]), [])


class GoldenDiff(unittest.TestCase):
    GOLDEN = (ROOT / "docs" / "repro_seed42.txt").read_text(encoding="utf-8")

    def test_blocks_split_and_rejoin_exactly(self):
        header, blocks = benchlib.split_blocks(self.GOLDEN)
        self.assertEqual(header, "# Acme reproduction — seed 42\n\n")
        self.assertEqual(len(blocks), 42)
        self.assertEqual(header + "".join(text for _, text in blocks), self.GOLDEN)
        self.assertEqual(blocks[0][0], "table1")

    def test_selection_is_cut_in_request_order(self):
        report = benchlib.expected_report(self.GOLDEN, ["storm", "fig6"], 42)
        _, blocks = benchlib.split_blocks(report)
        self.assertEqual([b[0] for b in blocks], ["storm", "fig6"])
        self.assertEqual(benchlib.expected_report(self.GOLDEN, ["all"], 42), self.GOLDEN)
        with self.assertRaises(KeyError):
            benchlib.expected_report(self.GOLDEN, ["nope"], 42)

    def test_first_drifted_block_is_named(self):
        expected = benchlib.expected_report(self.GOLDEN, ["fig6", "storm", "fleet"], 42)
        self.assertIsNone(benchlib.first_drift(expected, expected))
        _, blocks = benchlib.split_blocks(expected)
        storm = blocks[1][1]
        drifted = expected.replace(storm, storm.replace("goodput", "goodpot", 1))
        self.assertNotEqual(drifted, expected)
        self.assertEqual(benchlib.first_drift(expected, drifted), "storm")
        self.assertEqual(benchlib.check_pass(0, drifted, expected), (False, "drift at ### storm"))
        # A block that went missing, one too many, and a changed header.
        self.assertEqual(benchlib.first_drift(expected, expected.replace(storm, "")), "storm")
        self.assertEqual(benchlib.first_drift(expected, expected + blocks[0][1]), "fig6")
        self.assertEqual(benchlib.first_drift(expected, expected.replace("seed 42", "seed 7")), "header")


def span(name, parent, start, end, kind="call"):
    return {"name": name, "parent": parent, "start_ns": start, "end_ns": end, "kind": kind}


class LayerAccounting(unittest.TestCase):
    NAMES = [name for name, _ in PER_LAYER]

    def trace(self):
        # run_selection 0..100; two experiments of 60 and 40; the storm
        # experiment's replay: one run_with of 50 with render 20 and
        # diagnose 25 below it; fig2 ran two shards. One span costs 2.
        return {
            "span_ns": 2.0,
            "spans": [
                span("run_selection", None, 0, 100),
                span("experiment.storm", 0, 0, 60, "reported"),
                span("experiment.fig2", 0, 60, 100, "reported"),
                span("core.storm", 1, 200, 250),
                span("failure.logs", 3, 250, 270),
                span("failure.diagnose", 3, 270, 295),
            ],
            "counts": {"core.storm.incidents": 5, "core.storm.calls": 1,
                       "shard.count": 2, "shard.busy_s": 30e-9, "shard.max_s": 20e-9},
        }

    def test_self_time_and_attribution_add_up_to_the_wall(self):
        m, charged = benchlib.layer_metrics(self.trace(), self.NAMES)
        self.assertAlmostEqual(m["trace.wall_s"], 100e-9)
        self.assertAlmostEqual(m["runner.busy_s"], 100e-9)
        self.assertAlmostEqual(m["runner.occupancy"], 1.0)
        self.assertAlmostEqual(m["experiment.storm.s"], 60e-9)
        self.assertAlmostEqual(m["core.storm.s"], 50e-9)
        self.assertAlmostEqual(m["core.storm.self_s"], 5e-9)
        self.assertAlmostEqual(m["core.storm.us_per_incident"], 50e-9 * 1e6 / 5)
        self.assertEqual(m["core.storm.calls"], 1.0)
        self.assertAlmostEqual(charged["failure.logs"], 20e-9)
        self.assertAlmostEqual(charged["failure.diagnose"], 25e-9)
        self.assertAlmostEqual(charged["core.storm"], 5e-9)
        # fig2 (40) and the storm experiment's own 10 are unattributed.
        self.assertAlmostEqual(m["trace.unattributed_s"], 50e-9)
        self.assertAlmostEqual(sum(charged.values()) + m["trace.unattributed_s"], m["trace.wall_s"])

    def test_tracing_overhead_prices_every_timed_span(self):
        # Four spans were timed (run_selection and three replayed calls);
        # the experiments' walls were reported by the runner.
        m, _ = benchlib.layer_metrics(self.trace(), self.NAMES)
        self.assertAlmostEqual(m["trace.overhead_s"], 4 * 2e-9)

    def test_unreached_layers_read_one_span_and_zero_counts(self):
        m, charged = benchlib.layer_metrics(self.trace(), self.NAMES)
        for name in ("workload.stream.s", "failure.storm.s", "experiment.fleet.s"):
            self.assertAlmostEqual(m[name], 2e-9, msg=name)
        self.assertAlmostEqual(m["workload.stream.ns_per_arrival"], 2.0)
        self.assertEqual(m["workload.stream.arrivals"], 0.0)
        self.assertEqual(m["workload.stream.acceptance"], 0.0)
        self.assertNotIn("workload.stream", charged)

    def test_every_per_layer_metric_is_produced(self):
        m, _ = benchlib.layer_metrics(self.trace(), self.NAMES)
        self.assertEqual(list(m), self.NAMES)
        times = [name for name, unit in PER_LAYER if unit == "s" and name != "trace.unattributed_s"]
        self.assertEqual([name for name in times if m[name] <= 0], [])


if __name__ == "__main__":
    unittest.main()
