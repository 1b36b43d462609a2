// Workload `build`: one thread builds a fixed set of generated programs
// (subset, rotation, binary-counter and mixed families), each through
// FromSource -> BuildGraphSpec -> BuildEquationalSpec -> Snapshot::Serialize.
//
// RunBuild times each program's build (the end-to-end metrics). BuildLayers,
// part of every traced run, alternates untraced FromSource passes with
// staged passes, untraced and traced, which call each pipeline stage on its
// own under a span and check that the staged snapshot bytes equal
// FromSource's.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/programs.h"
#include "src/ast/validate.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/core/analysis.h"
#include "src/core/engine.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"

namespace perfbench {
namespace {

using relspec::Status;
using relspec::StatusOr;

constexpr double kWindowSeconds = 0.3;

/// Both specifications serialized back to back: the bytes a build yields.
std::string SpecBytes(const relspec::GraphSpecification& graph,
                      const relspec::EquationalSpecification& eq) {
  return relspec::Snapshot::Serialize(graph) + relspec::Snapshot::Serialize(eq);
}

/// The public build path every user takes.
StatusOr<std::string> BuildFromSource(const std::string& source) {
  RELSPEC_ASSIGN_OR_RETURN(auto db,
                           relspec::FunctionalDatabase::FromSource(source));
  RELSPEC_ASSIGN_OR_RETURN(auto graph, db->BuildGraphSpec());
  RELSPEC_ASSIGN_OR_RETURN(auto eq, db->BuildEquationalSpec());
  return SpecBytes(graph, eq);
}

// Stage indices of the staged pipeline, in call order.
enum Stage {
  kParse,
  kValidate,
  kNormalize,
  kPurify,
  kGround,
  kFixpoint,
  kAlgorithmQ,
  kGraphSpec,
  kEqSpec,
  kSnapshotSave,
  kNumStages
};
const char* const kStageMetric[kNumStages] = {
    "parser.parse_ms",     "ast.validate_ms",      "core.normalize_ms",
    "core.purify_ms",      "core.ground_ms",       "core.fixpoint_ms",
    "core.algorithm_q_ms", "core.graph_spec_ms",   "core.eqspec_ms",
    "core.snapshot_save_ms"};

/// Times one stage call into `ms[stage]` under a bench-side span.
#define TIMED_STAGE(stage, span_name, id, expr)                        \
  do {                                                                 \
    RELSPEC_TRACE_SPAN1("perfbench", span_name, "program", id);        \
    const auto stage_start = Clock::now();                             \
    expr;                                                              \
    ms[stage] += MsSince(stage_start);                                 \
  } while (0)

/// The same build as BuildFromSource, one public stage call at a time,
/// mirroring FunctionalDatabase::FromProgram.
StatusOr<std::string> BuildStaged(const std::string& source, uint64_t id,
                                  double ms[kNumStages]) {
  StatusOr<relspec::Program> parsed = Status::Internal("not run");
  TIMED_STAGE(kParse, "parser.parse", id,
              parsed = relspec::ParseProgram(source));
  RELSPEC_RETURN_NOT_OK(parsed.status());
  relspec::Program program = std::move(parsed).value();
  Status valid = Status::OK();
  TIMED_STAGE(kValidate, "ast.validate", id, {
    valid = relspec::ValidateProgram(program);
    if (valid.ok()) valid = relspec::CheckDomainIndependence(program);
  });
  RELSPEC_RETURN_NOT_OK(valid);
  StatusOr<relspec::NormalizeStats> normalized = Status::Internal("not run");
  TIMED_STAGE(kNormalize, "core.normalize", id,
              normalized = relspec::NormalizeProgram(&program));
  RELSPEC_RETURN_NOT_OK(normalized.status());
  StatusOr<relspec::MixedToPureStats> purified = Status::Internal("not run");
  TIMED_STAGE(kPurify, "core.purify", id,
              purified = relspec::MixedToPure(&program));
  RELSPEC_RETURN_NOT_OK(purified.status());
  StatusOr<relspec::GroundProgram> grounded = Status::Internal("not run");
  TIMED_STAGE(kGround, "core.ground", id,
              grounded = relspec::Ground(program, relspec::GroundOptions()));
  RELSPEC_RETURN_NOT_OK(grounded.status());
  // The labeling keeps a pointer to the ground program: pin its address.
  auto ground =
      std::make_unique<relspec::GroundProgram>(std::move(grounded).value());
  StatusOr<relspec::Labeling> labeled = Status::Internal("not run");
  TIMED_STAGE(kFixpoint, "core.fixpoint", id,
              labeled = relspec::ComputeFixpoint(*ground,
                                                 relspec::FixpointOptions()));
  RELSPEC_RETURN_NOT_OK(labeled.status());
  relspec::Labeling labeling = std::move(labeled).value();
  StatusOr<relspec::LabelGraph> graph = Status::Internal("not run");
  TIMED_STAGE(kAlgorithmQ, "core.algorithm_q", id,
              graph = relspec::BuildLabelGraph(&labeling,
                                               relspec::LabelGraphOptions()));
  RELSPEC_RETURN_NOT_OK(graph.status());
  StatusOr<relspec::GraphSpecification> graph_spec = Status::Internal("not run");
  TIMED_STAGE(kGraphSpec, "core.graph_spec", id,
              graph_spec = relspec::BuildGraphSpecification(
                  *graph, &labeling, program.symbols));
  RELSPEC_RETURN_NOT_OK(graph_spec.status());
  StatusOr<relspec::EquationalSpecification> eq_spec = Status::Internal("not run");
  TIMED_STAGE(kEqSpec, "core.eqspec", id,
              eq_spec = relspec::BuildEquationalSpecification(
                  *graph, &labeling, program.symbols));
  RELSPEC_RETURN_NOT_OK(eq_spec.status());
  std::string bytes;
  TIMED_STAGE(kSnapshotSave, "core.snapshot_save", id,
              bytes = SpecBytes(*graph_spec, *eq_spec));
  return bytes;
}

struct Setup {
  std::vector<SourceProgram> programs;
  std::vector<std::string> reference_bytes;
};

/// Generates the programs, builds each once for its reference bytes and
/// checks the quotient-model certificate (Verify) on every one.
Setup MakeSetup(const Options& options, Report* report) {
  Setup setup;
  setup.programs = BuildPassPrograms(options.seed, options.smoke);
  for (const SourceProgram& p : setup.programs) {
    report->Attempt();
    auto db = relspec::FunctionalDatabase::FromSource(p.source);
    if (!db.ok()) {
      report->Fail(p.family + ": " + db.status().ToString());
      setup.reference_bytes.push_back("");
      continue;
    }
    Status verified = (*db)->Verify();
    if (!verified.ok()) report->Fail(p.family + " Verify: " + verified.ToString());
    auto graph = (*db)->BuildGraphSpec();
    auto eq = (*db)->BuildEquationalSpec();
    if (!graph.ok() || !eq.ok()) {
      report->Fail(p.family + ": spec build failed");
      setup.reference_bytes.push_back("");
      continue;
    }
    setup.reference_bytes.push_back(SpecBytes(*graph, *eq));
  }
  return setup;
}

/// One untraced pass; records each program's build time (µs) in `window`
/// when given and returns the pass total in ms.
double FromSourcePass(const Setup& setup, Window* window, Report* report) {
  double pass_ms = 0;
  for (size_t i = 0; i < setup.programs.size(); ++i) {
    report->Attempt();
    const auto start = Clock::now();
    StatusOr<std::string> bytes = BuildFromSource(setup.programs[i].source);
    const double us = UsSince(start);
    pass_ms += us / 1000;
    if (window != nullptr) {
      window->latency_us.push_back(us);
      window->op.push_back(i);
    }
    if (!bytes.ok()) {
      report->Fail(setup.programs[i].family + ": " + bytes.status().ToString());
    } else if (*bytes != setup.reference_bytes[i]) {
      report->Fail(setup.programs[i].family + ": snapshot bytes changed");
    }
  }
  return pass_ms;
}

/// A staged pass: every program through BuildStaged, with the per-program
/// registry reads. With `traced`, the event trace and the metrics registry
/// are on for the pass; otherwise the same code runs with both off.
struct StagedPassResult {
  double wall_ms = 0;
  double stage_ms[kNumStages] = {};
  double clusters = 0, chi_entries = 0, equations = 0;
  relspec::MetricsSnapshot counters;
};
StagedPassResult StagedPass(const Setup& setup, uint64_t pass, bool traced,
                            Report* report) {
  StagedPassResult r;
  if (traced) {
    relspec::MetricsRegistry::Global().Reset();
    relspec::EnableMetrics(true);
    relspec::EnableEventTrace(true);
  }
  const auto start = Clock::now();
  for (size_t i = 0; i < setup.programs.size(); ++i) {
    report->Attempt();
    StatusOr<std::string> bytes =
        BuildStaged(setup.programs[i].source, pass * 1000 + i, r.stage_ms);
    // Per-program gauges are last-written: read them after each build.
    relspec::MetricsSnapshot s = relspec::MetricsRegistry::Global().Snapshot();
    r.clusters += static_cast<double>(s.gauge("labelgraph.clusters"));
    r.chi_entries += static_cast<double>(s.gauge("fixpoint.chi_entries"));
    r.equations += static_cast<double>(s.gauge("eqspec.equations"));
    if (!bytes.ok()) {
      report->Fail("staged " + setup.programs[i].family + ": " +
                   bytes.status().ToString());
    } else if (*bytes != setup.reference_bytes[i]) {
      report->Fail("staged " + setup.programs[i].family +
                   ": bytes differ from FromSource");
    }
  }
  r.wall_ms = MsSince(start);
  if (traced) {
    relspec::EnableEventTrace(false);
    relspec::EnableMetrics(false);
    r.counters = relspec::MetricsRegistry::Global().Snapshot();
  }
  return r;
}

}  // namespace

int RunBuild(const Options& options) {
  Report report;
  PrintConfigLine(options, SingleThreadPinning(), "no daemon",
                  {{"threads", "1"}});
  const int setup_reps = options.smoke ? 1 : 9;
  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < setup_reps; ++r) {
    PinToFastestCpu();
    const auto start = Clock::now();
    Report scratch;  // only the last set-up's checks count
    setup = MakeSetup(options, r + 1 == setup_reps ? &report : &scratch);
    setup_s.push_back(SecondsSince(start));
  }
  // Windows of whole passes, each at least kWindowSeconds of build time.
  std::vector<Window> windows(1);
  const auto begin = Clock::now();
  while (windows.size() < 2 || SecondsSince(begin) < options.seconds) {
    Window& w = windows.back();
    if (w.latency_us.empty()) {
      const CpuChoice choice = PinToFastestCpu();
      w.cpu = choice.cpu;
      w.probe_us = choice.probe_us;
    }
    w.seconds += FromSourcePass(setup, &w, &report) / 1000;
    if (w.seconds >= kWindowSeconds) windows.emplace_back();
  }
  if (windows.back().latency_us.empty()) windows.pop_back();
  const std::vector<bool> keep = FastWindows(windows);
  const WindowSummary kept = Summarize(windows, keep);
  PrintWindowsLine(windows, keep);
  report.Add("ops_per_s", kept.ops_per_s, "1/s");
  report.Add("latency_p50_us", Quantile(kept.latency_us, 0.5), "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
  report.Print();
  return 0;
}

void BuildLayers(const Options& options, double seconds, bool named,
                 Report* report) {
  Setup setup = MakeSetup(options, report);
  // Each round runs an untraced FromSource pass, then the staged pass with
  // tracing off and again with tracing on. The stage times come from the
  // untraced staged pass; the traced one yields the spans, the registry
  // counts and, against the untraced one, the tracing overhead.
  std::vector<double> from_source, staged, unattributed, residue_pct,
      overhead_pct;
  Window untraced_ops;  // for the per-build p99
  std::vector<std::vector<double>> stage_ms(kNumStages);
  StagedPassResult traced;
  uint64_t pass = 0;
  const auto begin = Clock::now();
  while (staged.empty() || SecondsSince(begin) < seconds) {
    const double source_ms = FromSourcePass(setup, &untraced_ops, report);
    const StagedPassResult plain = StagedPass(setup, ++pass, false, report);
    traced = StagedPass(setup, ++pass, true, report);
    double sum = 0;
    for (int s = 0; s < kNumStages; ++s) {
      stage_ms[static_cast<size_t>(s)].push_back(plain.stage_ms[s]);
      sum += plain.stage_ms[s];
    }
    from_source.push_back(source_ms);
    staged.push_back(plain.wall_ms);
    unattributed.push_back(plain.wall_ms - sum);
    residue_pct.push_back((source_ms - plain.wall_ms) / source_ms * 100.0);
    overhead_pct.push_back((traced.wall_ms / plain.wall_ms - 1) * 100.0);
  }

  // Means per staged pass, so the stage times plus build.unattributed_ms
  // (registry reads between programs, moves) add up to
  // build.staged_pass_ms exactly. build.residue_pct is what that sum misses
  // of the untraced FromSource pass (build_pass_ms), median over rounds.
  report->Add("build_pass_ms", Median(from_source), "ms");
  report->Add("build.latency_p99_us", Quantile(untraced_ops.latency_us, 0.99),
              "us");
  for (int s = 0; s < kNumStages; ++s) {
    report->Add(kStageMetric[s], Mean(stage_ms[static_cast<size_t>(s)]), "ms");
  }
  report->Add("build.unattributed_ms", Mean(unattributed), "ms");
  report->Add("build.staged_pass_ms", Mean(staged), "ms");
  const double residue = Median(residue_pct);
  report->Add("build.residue_pct", residue, "%");
  report->Attempt();
  if (std::abs(residue) > kMaxResiduePct) {
    report->Fail("build: stages plus unattributed miss the FromSource pass by " +
                 std::to_string(residue) + "%");
  }
  const relspec::MetricsSnapshot& counters = traced.counters;
  const double lookups = static_cast<double>(counters.counter("chi.lookups"));
  report->Add("chi.lookups", lookups, "count");
  report->Add("chi.hit_ratio",
              lookups > 0
                  ? static_cast<double>(counters.counter("chi.hits")) / lookups
                  : 0,
              "ratio");
  report->Add("fixpoint.rounds",
              static_cast<double>(counters.counter("fixpoint.rounds")), "count");
  report->Add("fixpoint.chi_entries", traced.chi_entries, "count");
  report->Add("labelgraph.clusters", traced.clusters, "count");
  report->Add("eqspec.equations", traced.equations, "count");
  if (named) report->Add("trace.overhead_pct", Median(overhead_pct), "%");
}

}  // namespace perfbench
