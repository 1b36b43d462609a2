#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every declared workload in smoke mode (tiny inputs, one set-up, two
seconds), untraced and traced, and the serve workloads, which run but are
not declared (see README.md), untraced. Checks the result line against
BENCHMARK.json:
exactly the keys correct/attempted/failed/metrics, all checks passed, and
exactly the declared metric names with their declared units. Also checks
that the benchmark refuses to run, without a result line, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(cwd, workload, trace, seed=7, seconds=2):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):

    def check_run(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        records = {}
        for line in lines[:-1]:
            if line.startswith("{"):
                records.update(json.loads(line))
        for key in ("build_type", "compiler", "nproc", "cpu_model", "kernel",
                    "client_cpus", "daemon_cpus"):
            self.assertIn(key, records["config"])
        if workload in ("build", "answers") and not trace:
            for key in ("kept", "kept_cpus", "kept_probe_median_us"):
                self.assertIn(key, records["windows"])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_run", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, "build", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def add_smoke_tests():
    runs = [(w["name"], trace) for w in BENCH["workloads"] for trace in (0, 1)]
    runs += [("serve_read", 0), ("serve_write", 0)]
    for workload, trace in runs:
        def test(self, workload=workload, trace=trace):
            self.check_run(workload, trace)
        setattr(SmokeTest, "test_%s_trace%d" % (workload, trace), test)


add_smoke_tests()

if __name__ == "__main__":
    unittest.main()
