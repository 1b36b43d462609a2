// E21 — applying a base-fact delta (docs/INCREMENTAL.md): a batch through
// FunctionalDatabase::ApplyDeltas edits the facts and rebuilds, so its cost
// is the rebuild's plus the edit and the commit. BM_Delta_Apply against
// BM_Delta_FullRecompute measures that overhead; noop batches are near-free.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/core/engine.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

// WidePredicateProgram(n) plus an inert two-fact predicate to toggle.
std::string WideWithInert(int n) {
  return WidePredicateProgram(n) + "Q(1, c0).\nQ(2, c0).\n";
}

std::unique_ptr<FunctionalDatabase> Build(benchmark::State& state,
                                          const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*db);
}

// Toggle an inert fact: delete while present, re-insert after. Every
// iteration is one effective single-fact batch.
void BM_Delta_Apply(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(static_cast<int>(state.range(0))));
  if (!db) return;
  bool present = true;
  for (auto _ : state) {
    auto stats =
        db->ApplyDeltaText(present ? "- Q(1, c0).\n" : "+ Q(1, c0).\n");
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Delta_Apply)->DenseRange(2, 14, 4);

// The from-scratch baseline for the same toggle: rebuild via FromProgram on
// the edited program (no parse cost).
void BM_Delta_FullRecompute(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(static_cast<int>(state.range(0))));
  if (!db) return;
  Program with = db->original_program();
  auto edited = db->ApplyDeltaText("- Q(1, c0).\n");
  if (!edited.ok()) {
    state.SkipWithError(edited.status().ToString().c_str());
    return;
  }
  Program without = db->original_program();
  bool present = true;
  for (auto _ : state) {
    auto fresh = FunctionalDatabase::FromProgram(present ? without : with);
    if (!fresh.ok()) {
      state.SkipWithError(fresh.status().ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize(fresh);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Delta_FullRecompute)->DenseRange(2, 14, 4);

// An all-noop batch (insert of a present fact) must early-return without
// touching the engine.
void BM_Delta_NoopBatch(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(8));
  if (!db) return;
  for (auto _ : state) {
    auto stats = db->ApplyDeltaText("+ Q(2, c0).\n");
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_Delta_NoopBatch);

}  // namespace
