#!/usr/bin/env python3
"""Tests of the benchmark itself, on small inputs.

Run from anywhere:  python3 perfbench/test_perfbench.py

The first test builds perfbench through run.py (a few minutes cold).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_eval", "linux_scale_build", "serve_mixed"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, root=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--small", *extra],
        cwd=root, capture_output=True, text=True, timeout=900)
    return out


def result(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def table_value(out, name):
    """A value from the readable metric table printed before the JSON."""
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    raise AssertionError(name + " not printed")


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_emitted_with_its_unit(self):
        b = spec()
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    res = result(out)
                    self.assertEqual(set(res),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(res["correct"], out.stdout)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = [(m["name"], m["unit"]) for m in b[key]]
                    got = [(n, v["unit"]) for n, v in res["metrics"].items()]
                    self.assertEqual(got, want)
                    if trace == 0:
                        for n, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, n)
                    self.assertEqual(table_value(out, "error_rate"), 0)

    def test_corrupted_input_raises_error_rate(self):
        for workload in ["paper_eval", "linux_scale_build"]:
            with self.subTest(workload=workload):
                out = run(workload, 0, "--corrupt")
                self.assertEqual(out.returncode, 0, out.stderr)
                res = result(out)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(table_value(out, "error_rate"), 0)

    def test_layer_self_times_add_up_to_traced_total(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = run(workload, 1)
                metrics = result(out)["metrics"]
                total = metrics["trace.total_ms"]["value"]
                target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
                path = os.path.join(ROOT, target, "perfbench-out",
                                    workload + ".self.tsv")
                with open(path) as f:
                    rows = [l.split("\t") for l in f.read().splitlines()[1:]]
                self_sum = sum(float(r[3]) for r in rows)
                self.assertAlmostEqual(self_sum, total,
                                       delta=1e-6 * total + 1e-6)
                root = [r for r in rows if r[0] == workload]
                self.assertAlmostEqual(
                    float(root[0][3]),
                    metrics["trace.unattributed_ms"]["value"], delta=1e-6)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("paper_eval", 0, root=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
