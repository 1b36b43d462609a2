// E16 (internals) — the chi-table saturation behind Theorem 4.1's decision
// procedure, and the Section 4 remark that "finite least fixpoints can be of
// double exponential size" (the trunk alone is |Sigma|^c).
//
// Expected shape: chi entries track the number of distinct node states
// (linear for rotations, exponential for the subset family); the trunk size
// is c+1 for one symbol and 2^(c+1)-1 for two symbols — exponential in the
// depth of the deepest ground term.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/base/metrics.h"
#include "src/core/engine.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

/// One untimed build of `source` and its fixpoint, read for the counters
/// after a timed loop: the engine keeps only its spec. The labeling points
/// into db's ground program.
struct CountedFixpoint {
  std::unique_ptr<FunctionalDatabase> db;
  Labeling labeling;
};
CountedFixpoint CountFixpoint(const std::string& source) {
  CountedFixpoint out;
  out.db = FunctionalDatabase::FromSource(source).value();
  out.labeling = ComputeFixpoint(out.db->ground()).value();
  return out;
}

void BM_Fixpoint_ChiEntries_Rotation(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  int k = static_cast<int>(state.range(0));
  std::string source = RotationProgram(k);
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  CountedFixpoint counted = CountFixpoint(source);
  const size_t entries = counted.labeling.chi().num_entries();
  const size_t rounds = counted.labeling.rounds();
  state.counters["k"] = k;
  state.counters["chi_entries"] = static_cast<double>(entries);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_Fixpoint_ChiEntries_Rotation)->DenseRange(2, 12, 2);

void BM_Fixpoint_ChiEntries_Subset(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  int n = static_cast<int>(state.range(0));
  std::string source = SubsetProgram(n);
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  CountedFixpoint counted = CountFixpoint(source);
  const size_t entries = counted.labeling.chi().num_entries();
  const size_t rounds = counted.labeling.rounds();
  state.counters["n"] = n;
  state.counters["chi_entries"] = static_cast<double>(entries);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_Fixpoint_ChiEntries_Subset)
    ->DenseRange(2, 7, 1)
    ->Unit(benchmark::kMillisecond);

// Trunk growth with the depth c of the deepest ground fact: linear for one
// symbol, 2^(c+1)-1 for two — the exponential-size remark of Section 4.
void BM_Fixpoint_TrunkGrowth(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  int c = static_cast<int>(state.range(0));
  int syms = static_cast<int>(state.range(1));
  std::string term = "0";
  for (int i = 0; i < c; ++i) term = "f(" + term + ")";
  std::string source = "P(" + term + ").\nP(t) -> P(f(t)).\n";
  if (syms == 2) source += "P(t) -> P(g(t)).\n";
  size_t clusters = 0;
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    clusters = (*db)->label_graph().num_clusters();
    benchmark::DoNotOptimize(db);
  }
  const size_t trunk = CountFixpoint(source).labeling.trunk_paths().size();
  state.counters["c"] = c;
  state.counters["trunk_nodes"] = static_cast<double>(trunk);
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_Fixpoint_TrunkGrowth)
    ->Args({2, 1})
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({2, 2})
    ->Args({6, 2})
    ->Args({10, 2})
    ->Unit(benchmark::kMillisecond);

// Times ComputeFixpoint alone on `source`: parsing and grounding happen
// once, outside the loop. The counters are the chi entries, and on one
// counted run the closures, the body tests (rule_visits) and the bits the
// rules set (rule_firings).
void TimeFixpoint(benchmark::State& state, const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  const GroundProgram& ground = (*db)->ground();
  size_t entries = 0;
  for (auto _ : state) {
    auto labeling = ComputeFixpoint(ground);
    if (!labeling.ok()) {
      state.SkipWithError(labeling.status().ToString().c_str());
      return;
    }
    entries = labeling->chi().num_entries();
    benchmark::DoNotOptimize(labeling);
  }
  // Work is counted on one extra, untimed run, so the timed loop keeps the
  // metrics registry's disabled path.
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto counted = ComputeFixpoint(ground);
  EnableMetrics(false);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().Reset();
  benchmark::DoNotOptimize(counted);
  state.counters["chi_entries"] = static_cast<double>(entries);
  state.counters["closures"] =
      static_cast<double>(snap.counter("chi.close_node_calls"));
  state.counters["rule_visits"] =
      static_cast<double>(snap.counter("chi.rule_visits"));
  state.counters["rule_firings"] =
      static_cast<double>(snap.counter("chi.rule_firings"));
}

// E26 — the chi worklist on a chain: a log2(n)-bit counter is a chain of n
// states below the root, n + 1 chi entries, each closed exactly once.
void BM_Fixpoint_Chain(benchmark::State& state) {
  int bits = 0;
  while ((int64_t{1} << bits) < state.range(0)) ++bits;
  TimeFixpoint(state, BinaryCounterProgram(bits));
}
BENCHMARK(BM_Fixpoint_Chain)->Arg(512)->Unit(benchmark::kMicrosecond);

// E28, E36 — the chi closure on a k-team rotation: k local rules with k
// bodies, so k groups, and k + 1 chi entries, each of whose closures fires
// one group. A closure tests only the items its label bits and child moves
// offer, so the time is linear in k; evaluating every rule per closure made
// it quadratic.
void BM_Fixpoint_Rotation(benchmark::State& state) {
  TimeFixpoint(state, RotationProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Fixpoint_Rotation)->Arg(420)->Unit(benchmark::kMicrosecond);

// E36 — the subset family: 2^(n-1) chi entries, and n(2n - 1) child-head
// rules that share n bodies. A closure tests and fires one group per label
// bit, where a per-rule count was kept and decremented for every rule.
void BM_Fixpoint_Subset(benchmark::State& state) {
  TimeFixpoint(state, SubsetProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Fixpoint_Subset)->Arg(10)->Unit(benchmark::kMicrosecond);

}  // namespace
