#!/usr/bin/env python3
"""Builds and runs the relspec benchmark.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library, relspecd, trace_check and the benchmark driver into .bench_build/
(RelWithDebInfo, the repository default); later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is always the
driver's result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Workloads: build, answers, serve_read, serve_write (see perfbench/README.md).
--smoke runs a tiny version of the workload for the benchmark's own tests.
Exits non-zero, without a result, when the build fails (for instance when
the repository sources are missing).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("build", "answers", "serve_read", "serve_write")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
TARGETS = ("relspec_perfbench", "relspecd", "trace_check")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark targets; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                 + list(TARGETS))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def tool(name):
    for sub in ("", "relspec/tools"):
        path = os.path.join(BUILD_DIR, sub, name)
        if os.path.exists(path):
            return path
    return os.path.join(BUILD_DIR, name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    run_dir = os.path.join(RUN_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [tool("relspec_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--relspecd", tool("relspecd"),
           "--trace-check", tool("trace_check"),
           "--run-dir", run_dir]
    if args.smoke:
        cmd.append("--smoke")
    # The driver binary stops its own daemons; the timeout is a backstop.
    # Its own session, so a timeout can stop any daemon it started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{\"correct\""):
        print("run.py: benchmark exited with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
