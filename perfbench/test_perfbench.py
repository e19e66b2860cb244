"""Tests of the benchmark's metric arithmetic, its catalogue, and a tiny-size
smoke run of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the driver on first use (into $CARGO_TARGET_DIR,
default .bench_build).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent


class TailRule(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 99), 99)
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail(list(range(1000)))[0], 99.0)
        # 999 samples leave only 9 beyond p99, so the rule falls to p95.
        self.assertEqual(metrics.tail(list(range(999)))[0], 95.0)
        self.assertEqual(metrics.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(metrics.tail(list(range(20)))[0], 50.0)

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(metrics.tail(list(range(19))))
        self.assertIsNone(metrics.summary(list(range(5)))["tail_pct"])

    def test_tail_value_has_ten_beyond(self):
        xs = [float(i) for i in range(1000)]
        p, v = metrics.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > v), 10)
        self.assertEqual(p, 99.0)

    def test_summary_quartiles(self):
        s = metrics.summary([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertEqual((s["min"], s["median"], s["max"], s["n"]), (1, 4.5, 8, 8))
        self.assertLessEqual(s["q1"], s["median"])
        self.assertGreaterEqual(s["q3"], s["median"])


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            ["trial", 0.0, 10.0, -1, 0, -1],
            ["a", 1.0, 3.0, 0, 0, -1],
            ["b", 2.0, 5.0, 0, 0, -1],   # overlaps a: counted once
            ["c", 8.0, 12.0, 0, 0, -1],  # clipped to the parent's end
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[3], 4.0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            ["trial", 0.0, 10.0, -1, 0, -1],
            ["solve", 0.0, 6.0, 0, 0, -1],
            ["spmv", 1.0, 2.0, 1, 0, -1],
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 4.0)
        self.assertAlmostEqual(selfs[1], 5.0)
        self.assertAlmostEqual(selfs[2], 1.0)

    def test_span_objects_become_rows(self):
        obj = {"request": 3, "name": "x", "trial": 2, "end": 1.5, "parent": -1, "start": 1.0}
        self.assertEqual(metrics.span_rows([obj]), [["x", 1.0, 1.5, -1, 2, 3]])

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(metrics.self_times([["x", 1.0, 1.5, -1, 0, -1]]), [0.5])


class Counting(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(metrics.failed_frac(10, 2), 0.2)
        self.assertEqual(metrics.failed_frac(0, 0), 0.0)

    def test_stalls_are_strictly_beyond_ten_medians(self):
        self.assertEqual(metrics.stalls([1.0] * 9 + [11.0]), 1)
        self.assertEqual(metrics.stalls([1.0, 1.0, 1.0, 10.0]), 0)
        self.assertEqual(metrics.stalls([]), 0)

    def run_record(self):
        return {
            "attempted": 40, "failed": 1, "failures": ["x"],
            "samples": {
                "solver.iteration_s": [0.010, 0.012, 0.011],
                "setup_s": [1.0, 1.2, 30.0],
                "multilevel.aggregation_s": [0.1, 0.3, 0.2],
                "multilevel.galerkin_s": [0.5, 0.7, 0.6],
                "latency_ms": [10.0, 12.0, 11.0],
                "trace.trial_untraced_s": [2.0, 2.0],
                "trace.trial_traced_s": [2.2, 2.2],
            },
            "counters": {"solver.scratch_grows": [0, 3, 0], "iterations": [7, 7, 8, 8, 7]},
            "spans": [
                ["trial", 0.0, 1.0, -1, 0, -1],
                ["graph.spmv", 0.1, 0.104, 0, 0, -1],
                ["solver.prec_apply", 0.2, 0.205, 0, 0, -1],
            ],
        }

    def test_compute_derived_rows(self):
        e2e = metrics.compute(self.run_record(), metrics.END_TO_END)
        self.assertEqual(e2e["setup_s"][0], 1.2)
        self.assertEqual(e2e["latency_p50_ms"][0], 11.0)
        # Iterations are a mean: a median would read 7 until half the
        # solves need 8, then jump.
        self.assertAlmostEqual(e2e["iterations"][0], 7.4)
        layer = metrics.compute(self.run_record(), metrics.PER_LAYER)
        self.assertAlmostEqual(layer["failed_frac"][0], 1 / 40)
        self.assertAlmostEqual(layer["solver.other_s"][0], 0.011 - 0.004 - 0.005)
        # The setup parts are medians; the residual row makes them add up.
        self.assertEqual(layer["setup.total_s"][0], 1.2)
        self.assertAlmostEqual(layer["setup.unattributed_s"][0], 1.2 - 0.2 - 0.6)
        self.assertEqual(layer["solver.solve_s"][0], 0.0)  # no solve_s series
        self.assertEqual(layer["solver.scratch_grows"][0], 3)
        self.assertEqual(layer["stalls"][0], 1)  # setup 30 s > 10 x median 1.2 s
        self.assertAlmostEqual(layer["trace.overhead_frac"][0], 0.1)
        self.assertAlmostEqual(layer["bench.trial_self_s"][0], 1.0 - 0.009)
        # Layers a workload does not run read 0.
        self.assertEqual(layer["serve.pool.evictions"][0], 0.0)


    def test_probe_series_take_precedence(self):
        run = self.run_record()
        run["samples"]["solve_s"] = [0.02, 0.02]  # served, uncontended
        run["samples"]["probe.solve_s"] = [0.05, 0.07, 0.06]
        layer = metrics.compute(run, metrics.PER_LAYER)
        self.assertAlmostEqual(layer["solver.solve_s"][0], 0.06)
        self.assertEqual(metrics.compute(run, metrics.END_TO_END)["solve_s"][0], 0.02)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for section, cat in (("end_to_end", metrics.END_TO_END),
                             ("per_layer", metrics.PER_LAYER)):
            names = [m["name"] for m in spec[section]]
            self.assertEqual(sorted(names), sorted(cat), section)
            for m in spec[section]:
                self.assertEqual(m["unit"], cat[m["name"]][0], m["name"])
                self.assertEqual(m["better"], cat[m["name"]][1], m["name"])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_every_metric_is_documented(self):
        doc = (HERE / "METRICS.md").read_text()
        for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
            self.assertIn(f"`{name}`", doc, name)


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        r = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny")
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        cat = metrics.PER_LAYER if trace else metrics.END_TO_END
        self.assertEqual(set(result["metrics"]), set(cat))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
        for line in lines[:-1]:
            row = json.loads(line)
            if row["row"] == "metric":
                self.assertIn("provenance", row)
                self.assertEqual(row["provenance"]["seed"], 7)
        if not trace:
            for name in ("setup_s", "solve_s", "mis2_s", "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_mesh_amg(self):
        self.check("mesh_amg", 0)
        self.check("mesh_amg", 1)

    def test_powerlaw_setup(self):
        self.check("powerlaw_setup", 0)
        self.check("powerlaw_setup", 1)

    def test_serve_customize(self):
        self.check("serve_customize", 0)
        self.check("serve_customize", 1)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, Path(d) / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", d)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = run_bench("--workload", "mesh_amg", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=d, env=env)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
