#!/usr/bin/env python3
"""The benchmark's own tests: tiny-scale runs of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that each workload
emits every metric metrics.json lists for it, with its unit, in both an
untraced and a traced run; that the traced run writes a Chrome trace-event
file; that a perturbed pinned digest raises failed_frac; and that bad
arguments exit non-zero.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(HERE, "metrics.json")) as f:
    METRICS = json.load(f)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def perfbench(*args):
    """Runs the benchmark binary at tiny scale; returns (code, result)."""
    command = [run.BINARY, "--scale", "tiny", "--seconds", "0.5",
               "--pins", os.path.join(HERE, "pins.tsv")] + list(args)
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assertUnits(self, measured, expected):
        for name, unit in expected.items():
            self.assertIn(name, measured)
            self.assertEqual(measured[name]["unit"], unit, name)

    def test_untraced_runs_emit_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = perfbench("--workload", w, "--seed", "7",
                                         "--trace", "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], result["errors"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)
                self.assertUnits(result["metrics"], METRICS["end_to_end"][w])
                ctx = result["context"]
                for key in ("nproc", "compiler", "build_type", "commit",
                            "seed", "params"):
                    self.assertIn(key, ctx)
                self.assertTrue(ctx["optimized"])

    def test_traced_runs_emit_per_layer_metrics_and_a_trace(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "trace.json")
                code, result = perfbench("--workload", w, "--seed", "7",
                                         "--trace", "1", "--trace-out", path)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], result["errors"])
                expected = {name: m["unit"]
                            for name, m in METRICS["per_layer"].items()
                            if w in m["workloads"]}
                expected.update({m["name"]: m["unit"]
                                 for m in BENCHMARK["per_layer"]})
                self.assertUnits(result["metrics"], expected)
                with open(path) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertGreater(len(events), 0)
                for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
                    self.assertIn(key, events[0])

    def test_default_seed_matches_pins_and_perturbed_pin_fails(self):
        for w in ("sweep", "mssp"):
            with self.subTest(workload=w):
                code, result = perfbench("--workload", w, "--seed", "0",
                                         "--trace", "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], result["errors"])
                code, result = perfbench("--workload", w, "--seed", "0",
                                         "--trace", "0", "--perturb-pin")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["metrics"]["failed_frac"]["value"], 0)

    def test_bad_arguments_exit_nonzero(self):
        for args in (["--workload", "nosuch", "--seed", "1"],
                     ["--workload", "sweep", "--seed", "12x"],
                     ["--workload", "sweep", "--seed", "-1"]):
            with self.subTest(args=args):
                code, result = perfbench(*(args + ["--trace", "0"]))
                self.assertNotEqual(code, 0)
                self.assertIsNone(result)
                proc = subprocess.run(
                    [sys.executable, RUN] + args +
                    ["--seconds", "1", "--trace", "0", "--scale", "tiny"],
                    capture_output=True, text=True, cwd=ROOT, timeout=600)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip(), "")

    def test_run_py_prints_the_benchmark_json_schema(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "serve", "--seed", "3",
             "--seconds", "0.5", "--trace", "0", "--scale", "tiny"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
