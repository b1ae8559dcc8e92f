"""Tests for the benchmark's own logic.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        for values in ([1.0, 2.0, 3.0, 4.0],
                       [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0],
                       [2.5, 2.5], [0.3, 0.1, 0.2]):
            self.assertEqual(list(run.quartiles(values)),
                             statistics.quantiles(values, n=4))

    def test_single_value(self):
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_interquartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 20.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / median)

    def test_envelope_sums_each_runs_fastest_repetition(self):
        reps = [{"per_run": {"a": {"wall_s": 3.0}, "b": {"wall_s": 1.0}}},
                {"per_run": {"a": {"wall_s": 2.0}, "b": {"wall_s": 4.0}}},
                {"per_run": {"a": {"wall_s": 5.0}}}]
        total, least = run.envelope(reps, "wall_s")
        self.assertEqual(total, 3.0)
        self.assertEqual(least, {"a": 2.0, "b": 1.0})

    def test_end_to_end_takes_the_fastest_and_median_memory(self):
        spec = run.load_spec()
        reps = [{"wall_s": 2.0, "peak_rss_mb": 10.0,
                 "per_run": {"a": {"wall_s": 2.0, "setup_s": 0.3,
                                   "measure_s": 1.0, "instructions": 1000}}},
                {"wall_s": 1.5, "peak_rss_mb": 12.0,
                 "per_run": {"a": {"wall_s": 1.5, "setup_s": 0.4,
                                   "measure_s": 0.5, "instructions": 1000}}},
                {"peak_rss_mb": 11.0}]
        metrics = run.end_to_end(reps, spec)
        self.assertEqual(metrics, {"wall_s": 1.5, "setup_s": 0.3,
                                   "kips": 2.0, "peak_rss_mb": 11.0})


class Agreement(unittest.TestCase):
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "kips", "unit": "kinst/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}
    steady = {"wall_s": [1.0, 1.01, 0.99, 1.0], "kips": [100, 101, 99, 100],
              "setup_s": [0.1, 0.1, 0.1, 0.1]}

    def verdicts(self, second):
        return {row["metric"]: row["agree"]
                for row in run.agreement(self.steady, second, self.spec)}

    def test_identical_sets_agree(self):
        self.assertTrue(all(self.verdicts(self.steady).values()))

    def test_slower_second_set_disagrees(self):
        second = copy.deepcopy(self.steady)
        second["wall_s"] = [v * 1.2 for v in second["wall_s"]]
        self.assertFalse(self.verdicts(second)["wall_s"])

    def test_faster_second_set_agrees(self):
        second = copy.deepcopy(self.steady)
        second["wall_s"] = [v * 0.7 for v in second["wall_s"]]
        second["kips"] = [v * 1.4 for v in second["kips"]]
        self.assertTrue(all(self.verdicts(second).values()))

    def test_lower_throughput_disagrees(self):
        second = copy.deepcopy(self.steady)
        second["kips"] = [v * 0.8 for v in second["kips"]]
        self.assertFalse(self.verdicts(second)["kips"])

    def test_wide_spread_disagrees_for_every_metric(self):
        second = copy.deepcopy(self.steady)
        second["wall_s"] = [0.8, 1.0, 1.0, 1.2]
        second["setup_s"] = [0.08, 0.1, 0.1, 0.12]
        verdicts = self.verdicts(second)
        self.assertFalse(verdicts["wall_s"])
        self.assertFalse(verdicts["setup_s"])
        self.assertTrue(verdicts["kips"])


class FailedRuns(unittest.TestCase):
    expected = {"astar_like/base": "aa", "astar_like/pubs": "bb"}

    def test_matching_digests_pass(self):
        self.assertEqual(run.check_runs(dict(self.expected), self.expected),
                         0)

    def test_changed_digest_counts_as_failed_run(self):
        observed = {"astar_like/base": "aa", "astar_like/pubs": "cc"}
        self.assertEqual(run.check_runs(observed, self.expected), 1)

    def test_thrown_or_missing_run_counts_as_failed(self):
        observed = {"astar_like/base": None, "astar_like/pubs": "bb"}
        self.assertEqual(run.check_runs(observed, self.expected), 1)
        self.assertEqual(run.check_runs(observed, None), 1)

    def test_a_pass_where_every_run_threw_is_still_reported(self):
        doc = {"wall_s": 0.02, "setup_s": 0.0, "measure_s": 0.0,
               "instructions": 0,
               "runs": [{"program": "astar_like", "machine": machine,
                         "ok": False, "error": "unknown workload"}
                        for machine in run.MACHINES]}
        rep = run.serial_result(doc, list(self.expected), self.expected)
        self.assertEqual(rep["failed"], 2)
        self.assertEqual(rep["kips"], 0.0)
        rep.update(attempted=2, peak_rss_mb=40.0)
        spec = run.load_spec()
        line = json.loads(run.result_line(run.end_to_end([rep], spec),
                                          spec["end_to_end"], 2, 2))
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (2, 2))
        self.assertEqual(line["metrics"]["kips"]["value"], 0.0)

    def test_pinned_reference_catches_a_changed_statistic(self):
        sets = dict(run.WORKLOADS, fig8=run.SWEEP)
        reference = json.loads(run.REFERENCE.read_text())
        self.assertEqual(set(reference), set(sets))
        for name, workload in sets.items():
            ref = reference[name]
            self.assertEqual(ref["budgets"], run.budgets(workload))
            for pins in (ref["runs"], ref.get("sampled", ref["runs"])):
                observed = dict(pins)
                self.assertEqual(set(observed), set(run.run_keys(workload)))
                observed[sorted(observed)[0]] += "0"
                self.assertEqual(run.check_runs(observed, pins), 1)

    def test_sweep_rows_and_skips(self):
        with tempfile.TemporaryDirectory() as tmp:
            csv_dir = Path(tmp)
            (csv_dir / "simspeed.csv").write_text(
                "workload,pubs,instructions,cycles,sim_seconds,kips\n"
                "astar_like,0,1000,2000,0.5,2.0\n")
            rows = run.sweep_rows(csv_dir)
            digests = run.sweep_digests(rows, list(self.expected))
            self.assertEqual(digests, {"astar_like/base": "1000:2000",
                                       "astar_like/pubs": None})
            self.assertEqual(run.check_runs(
                digests, {"astar_like/base": "1000:2000",
                          "astar_like/pubs": "1000:2100"}), 1)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def rejects(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        with self.assertRaises(run.BenchError):
            run.validate_spec(spec)

    def test_repository_spec_is_valid(self):
        run.validate_spec(self.spec)

    def test_workloads_are_the_ones_run_py_knows(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_rejects_bad_names_units_and_bounds(self):
        self.rejects(lambda s: s["per_layer"][0].update(name="bad name"))
        self.rejects(lambda s: s["per_layer"][0].update(name="_lead"))
        self.rejects(lambda s: s["per_layer"][1].update(
            name=s["per_layer"][0]["name"]))
        self.rejects(lambda s: s["per_layer"][0].update(unit="x" * 17))
        self.rejects(lambda s: s["end_to_end"][0].update(bound=0.3))
        self.rejects(lambda s: s["end_to_end"][0].update(better="up"))
        self.rejects(lambda s: s["per_layer"][0].update(bound=0.1))
        self.rejects(lambda s: s.update(extra=1))
        self.rejects(lambda s: s["end_to_end"].pop(
            [m["name"] for m in s["end_to_end"]].index("setup_s")))
        self.rejects(lambda s: s.update(paths=["../elsewhere"]))

    def test_result_line_carries_exactly_the_named_metrics(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        metrics = {name: 1.25 for name in names}
        metrics["not_listed"] = 2.0
        line = json.loads(run.result_line(metrics, self.spec["end_to_end"],
                                          10, 1))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]), names)
        self.assertFalse(line["correct"])
        self.assertEqual(line["metrics"]["wall_s"],
                         {"value": 1.25, "unit": "s"})
        with self.assertRaises(KeyError):
            run.result_line({}, self.spec["end_to_end"], 1, 0)


if __name__ == "__main__":
    unittest.main()
