#!/usr/bin/env python3
"""Google-benchmark suites of the perf gate (tools/bench_compare).

The one place that names each gated microbenchmark suite, its benchmark
binary and filter, and converts google-benchmark JSON into a
relspec-bench-v1 report. tools/regen_baseline.sh and the CI perf job both
call it, so the baseline and the gated runs measure the same benchmarks.

Usage:
  tools/bench_suites.py run BUILD_DIR SUITE OUT.json
      Runs SUITE's benchmark binary (BUILD_DIR/bench/...) with its filter
      and writes a relspec-bench-v1 report holding that one suite and the
      configuration it ran under (build type, compiler, CPUs).
  tools/bench_suites.py baseline OUT.json REPORT.json...
      Merges the suites of the given relspec-bench-v1 reports, in order,
      into a committed-baseline file that keeps the first report's
      configuration.
"""

import json
import os
import subprocess
import sys

# suite -> (benchmark binary under BUILD_DIR/bench, --benchmark_filter)
SUITES = {
    "bench_query": (
        "bench_query",
        r"BM_Query_(Incremental|NonUniform|CachedWarm)/8$"
        r"|BM_Query_(ColdStartPipeline|WarmStartSnapshot)/14$"
        r"|BM_Query_EnumerateDeadEnd/6$|BM_ParseQuery_Membership$"),
    "bench_trace": (
        "bench_trace",
        r"BM_Trace_Disabled_CallSite$|BM_Trace_Enabled_Idle$"
        r"|BM_Trace_Export$"),
    "bench_delta": (
        "bench_delta",
        r"BM_Delta_(Apply|FullRecompute)/14$|BM_Delta_NoopBatch$"),
    "bench_wal": (
        "bench_wal",
        r"BM_Wal_Append/0$|BM_Wal_ScanBytes/512$|BM_Wal_DurableUpdate/0$"
        r"|BM_Wal_Recover/16$"),
    "bench_slowlog": (
        "bench_slowlog",
        r"BM_Slowlog_(Disabled|Sampled|AlwaysOn|Dump)$"),
    "bench_graph_spec": (
        "bench_graph_spec",
        r"BM_AlgorithmQ_Chain/512$|BM_SnapshotSave_Chain/512$"
        r"|BM_LabelGraphCopy_Chain/512$|BM_GraphSpecCopy_Rotation/420$"),
    "bench_fixpoint": (
        "bench_fixpoint",
        r"BM_Fixpoint_Chain/512$|BM_Fixpoint_Rotation/420$"
        r"|BM_Fixpoint_Subset/10$"),
    "bench_transform": (
        "bench_transform",
        r"BM_FrontEnd_(Counter/9|Mixed/18)$"
        r"|BM_Parse_(Counter/9|Rotation/420)$|BM_Ground_Rotation/420$"),
}

# Generous on purpose: shared runners swing wildly, so the gate catches
# order-of-magnitude regressions, not 10% drift (default 3.0 = 4x allowed).
THRESHOLDS = {"default": 3.0}

SCHEMA = "relspec-bench-v1"


def suite_from_gbench(benchmarks):
    """Google-benchmark records -> {metric: {value, dir}} (real_time, ns)."""
    metrics = {}
    for b in benchmarks:
        name = b["name"].replace("/", "_")
        assert b["time_unit"] in ("ns", "us", "ms"), b["time_unit"]
        scale = {"ns": 1, "us": 1e3, "ms": 1e6}[b["time_unit"]]
        metrics[name + "_ns"] = {
            "value": round(b["real_time"] * scale, 3),
            "dir": "lower",
        }
    return metrics


def build_config(build_dir):
    """The build type and compiler of BUILD_DIR, and the host's CPUs."""
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and not key.startswith(("#", "//")):
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            out = subprocess.run(
                [compiler, "--version"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True).stdout
            version = (out.splitlines() or [""])[0].strip()
        except OSError:
            pass
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"CMAKE_BUILD_TYPE": cache.get("CMAKE_BUILD_TYPE", ""),
            "CMAKE_CXX_COMPILER": compiler,
            "CMAKE_CXX_COMPILER_VERSION": version,
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model}


def run(build_dir, suite, out_path):
    binary, bench_filter = SUITES[suite]
    result = subprocess.run(
        [f"{build_dir}/bench/{binary}", f"--benchmark_filter={bench_filter}",
         "--benchmark_min_time=0.05", "--benchmark_format=json"],
        check=True, stdout=subprocess.PIPE)
    metrics = suite_from_gbench(json.loads(result.stdout)["benchmarks"])
    report = {"schema": SCHEMA,
              "config": build_config(build_dir),
              "suites": {suite: {"thresholds": dict(THRESHOLDS),
                                 "metrics": metrics}}}
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def baseline(out_path, report_paths):
    suites = {}
    config = None
    for path in report_paths:
        with open(path) as f:
            report = json.load(f)
        suites.update(report["suites"])
        if config is None:
            config = report.get("config")
    merged = {
        "schema": SCHEMA,
        "note": "committed perf baseline; regenerate with "
                "tools/regen_baseline.sh and commit whenever an intentional "
                "perf change lands",
    }
    if config is not None:
        merged["config"] = config
    merged["suites"] = suites
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    total = sum(len(s["metrics"]) for s in suites.values())
    print(f"wrote {out_path}: {len(suites)} suites, {total} metrics")


def main(argv):
    if len(argv) == 5 and argv[1] == "run" and argv[3] in SUITES:
        run(argv[2], argv[3], argv[4])
        return 0
    if len(argv) >= 4 and argv[1] == "baseline":
        baseline(argv[2], argv[3:])
        return 0
    sys.stderr.write(__doc__)
    sys.stderr.write(f"suites: {', '.join(SUITES)}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
