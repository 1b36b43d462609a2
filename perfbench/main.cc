// relspec_perfbench: one benchmark run of one workload.
//
//   relspec_perfbench --workload build|answers|serve_read|serve_write
//       --seed N --seconds S --trace 0|1 [--smoke]
//       --relspecd PATH --trace-check PATH --run-dir DIR
//
// Normally started by perfbench/run.py, which builds the binaries first.
// Prints a "config" line, then as the last line of stdout one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"
#include "src/base/trace.h"

namespace {

bool IsWorkload(const std::string& name) {
  return name == "build" || name == "answers" || name == "serve_read" ||
         name == "serve_write";
}

/// The traced run: the per-layer breakdown of every workload, so that each
/// traced run reports every per-layer metric. The named workload gets 55% of
/// the time and the other three 15% each; all spans land in one trace.
int RunTraced(const perfbench::Options& options) {
  using perfbench::Report;
  Report report;
  const perfbench::CoreSets cores = perfbench::ChooseCoreSets();
  perfbench::PrintConfigLine(
      options, perfbench::CpuListString(cores.client),
      perfbench::CpuListString(cores.daemon),
      {{"traced", "every workload's layers; the named one gets 55% of the time"},
       {"in_process", "build and answers layers run on the main thread, "
                      "unpinned"}});
  relspec::Tracer::Global().SetCurrentThreadName("main");
  auto slice = [&](const char* workload) {
    return options.seconds * (options.workload == workload ? 0.55 : 0.15);
  };
  auto named = [&](const char* workload) {
    return options.workload == workload;
  };
  perfbench::BuildLayers(options, slice("build"), named("build"), &report);
  perfbench::AnswersLayers(options, slice("answers"), named("answers"),
                           &report);
  perfbench::ServeLayers(options, false, slice("serve_read"),
                         named("serve_read"), &report);
  perfbench::ServeLayers(options, true, slice("serve_write"),
                         named("serve_write"), &report);
  const std::string trace_path = "perfbench.trace.json";
  relspec::Status written =
      relspec::Tracer::Global().WriteChromeJson(trace_path);
  report.Attempt();
  if (!written.ok()) {
    report.Fail("trace export: " + written.ToString());
  } else {
    perfbench::CheckTraceFile(options, trace_path, &report);
  }
  report.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
        exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value() == "1";
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--relspecd") {
      options.relspecd = value();
    } else if (flag == "--trace-check") {
      options.trace_check = value();
    } else if (flag == "--run-dir") {
      options.run_dir = value();
    } else {
      fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!IsWorkload(options.workload)) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n",
            options.workload.c_str());
    return 2;
  }
  if (options.seconds <= 0 || options.run_dir.empty() ||
      options.relspecd.empty() || options.trace_check.empty()) {
    fprintf(stderr,
            "perfbench: need --seconds > 0, --run-dir, --relspecd and "
            "--trace-check\n");
    return 2;
  }
  // Sockets, logs and traces are all relative to the run directory, which
  // keeps Unix socket paths short however deep the checkout is.
  if (chdir(options.run_dir.c_str()) != 0) {
    fprintf(stderr, "perfbench: cannot enter %s: %s\n",
            options.run_dir.c_str(), strerror(errno));
    return 3;
  }
  if (options.trace) return RunTraced(options);
  if (options.workload == "build") return perfbench::RunBuild(options);
  if (options.workload == "answers") return perfbench::RunAnswers(options);
  if (options.workload == "serve_read") return perfbench::RunServeRead(options);
  return perfbench::RunServeWrite(options);
}
