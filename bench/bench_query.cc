// E9 — Section 5 / Theorem 5.1: query answer specifications (Q(B), F) that
// reuse the existing fixpoint representation.
//
// Expected shape: answering joins the query against each cluster's label,
// so its cost follows the number of clusters of the rotation program, not a
// rebuild. A non-uniform query (OnCall(t+1, x)) pays one successor step per
// cluster on top of the uniform one (OnCall(t, x)).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

struct Setup {
  std::unique_ptr<FunctionalDatabase> db;
  Query query;
};

bool Prepare(benchmark::State& state, int k, Setup* out,
             const char* query = "?(t, x) OnCall(t, x).") {
  auto db = FunctionalDatabase::FromSource(RotationProgram(k));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return false;
  }
  out->db = std::move(*db);
  auto q = ParseQuery(query, out->db->program().symbols);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return false;
  }
  out->query = *q;
  return true;
}

// Answers the prepared query every iteration.
void RunAnswerLoop(benchmark::State& state, Setup* setup) {
  size_t spec_tuples = 0;
  for (auto _ : state) {
    auto ans = AnswerQuery(setup->db.get(), setup->query);
    if (!ans.ok()) {
      state.SkipWithError(ans.status().ToString().c_str());
      return;
    }
    spec_tuples = ans->NumSpecTuples();
    benchmark::DoNotOptimize(ans);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
  state.counters["spec_tuples"] = static_cast<double>(spec_tuples);
}

void BM_Query_Incremental(benchmark::State& state) {
  Setup setup;
  if (!Prepare(state, static_cast<int>(state.range(0)), &setup)) return;
  RunAnswerLoop(state, &setup);
}
BENCHMARK(BM_Query_Incremental)->DenseRange(2, 14, 3);

void BM_Query_NonUniform(benchmark::State& state) {
  Setup setup;
  if (!Prepare(state, static_cast<int>(state.range(0)), &setup,
               "?(t, x) OnCall(t+1, x).")) {
    return;
  }
  RunAnswerLoop(state, &setup);
}
BENCHMARK(BM_Query_NonUniform)->DenseRange(2, 14, 3);

// Join-shaped uniform query (two atoms).
void BM_Query_JoinIncremental(benchmark::State& state) {
  auto db = FunctionalDatabase::FromSource(RotationProgram(8));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto q = ParseQuery("?(t, x, y) OnCall(t, x), Rotate(x, y).",
                      (*db)->program().symbols);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto ans = AnswerQuery(db->get(), *q);
    benchmark::DoNotOptimize(ans);
  }
}
BENCHMARK(BM_Query_JoinIncremental);

// ROADMAP item 20 — a membership request's parse: one ground atom read
// against the table of a rotation program with 420 members, as the daemon
// reads it. Expected shape: a few microseconds, independent of the table's
// size; the table is read in place, never copied.
void BM_ParseQuery_Membership(benchmark::State& state) {
  auto program = ParseProgram(RotationProgram(420));
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  const SymbolTable& symbols = program->symbols;
  for (auto _ : state) {
    auto q = ParseQuery("? OnCall(3, m217).", symbols);
    if (!q.ok()) {
      state.SkipWithError(q.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery_Membership);

// E18 — repeated-query throughput with the LRU answer cache. The warm loop
// must beat the uncached incremental path by >= 5x (ISSUE acceptance bar):
// a hit is one fingerprint hash + one map lookup, no joins.
void BM_Query_CachedWarm(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  Setup setup;
  if (!Prepare(state, static_cast<int>(state.range(0)), &setup)) return;
  QueryCache cache;
  // Populate once; every timed iteration is a hit.
  auto first = AnswerQueryCached(setup.db.get(), setup.query, &cache);
  if (!first.ok()) {
    state.SkipWithError(first.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto ans = AnswerQueryCached(setup.db.get(), setup.query, &cache);
    benchmark::DoNotOptimize(ans);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Query_CachedWarm)->DenseRange(2, 14, 3);

// The cold path: every iteration misses (the cache is cleared), measuring
// the cache's bookkeeping overhead on top of the incremental join.
void BM_Query_CachedCold(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  Setup setup;
  if (!Prepare(state, static_cast<int>(state.range(0)), &setup)) return;
  QueryCache cache;
  for (auto _ : state) {
    cache.Clear();
    auto ans = AnswerQueryCached(setup.db.get(), setup.query, &cache);
    benchmark::DoNotOptimize(ans);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Query_CachedCold)->DenseRange(2, 14, 3);

// E18 — cold vs warm start: the full parse/ground/fixpoint/Q pipeline
// against reloading the finished specification from a binary snapshot.
void BM_Query_ColdStartPipeline(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  std::string source = RotationProgram(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    auto spec = (*db)->BuildGraphSpec();
    benchmark::DoNotOptimize(spec);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Query_ColdStartPipeline)->DenseRange(2, 14, 3);

void BM_Query_WarmStartSnapshot(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db =
      FunctionalDatabase::FromSource(RotationProgram(static_cast<int>(state.range(0))));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto spec = (*db)->BuildGraphSpec();
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::string bin = Snapshot::Serialize(*spec);
  for (auto _ : state) {
    auto reloaded = Snapshot::ParseGraphSpec(bin);
    if (!reloaded.ok()) {
      state.SkipWithError(reloaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(reloaded);
  }
  state.counters["k"] = static_cast<double>(state.range(0));
  state.counters["snapshot_bytes"] = static_cast<double>(bin.size());
}
BENCHMARK(BM_Query_WarmStartSnapshot)->DenseRange(2, 14, 3);

// Answer enumeration scales linearly with the requested horizon.
void BM_Query_Enumerate(benchmark::State& state) {
  auto db = FunctionalDatabase::FromSource(RotationProgram(6));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto q = ParseQuery("?(t, x) OnCall(t, x).", (*db)->program().symbols);
  if (!q.ok()) return;
  auto ans = AnswerQuery(db->get(), *q);
  if (!ans.ok()) return;
  int depth = static_cast<int>(state.range(0));
  size_t answers = 0;
  for (auto _ : state) {
    auto list = ans->Enumerate(depth, 1u << 20);
    if (list.ok()) answers = list->size();
    benchmark::DoNotOptimize(list);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Query_Enumerate)->RangeMultiplier(4)->Range(16, 1024);

// E23 — enumeration on a dead-end answer: a robot on a 3-place triangle
// (9 move symbols), where almost every term lies in an answer-free cluster.
// Only terms that can still reach an answer are expanded, so the cost
// follows the answers printed, not the 9^depth terms below the horizon.
void BM_Query_EnumerateDeadEnd(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = FunctionalDatabase::FromSource(R"(
    At(0, p0).
    Connected(p0, p1).
    Connected(p1, p2).
    Connected(p2, p0).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto q = ParseQuery("?(y) At(y, p2).", (*db)->program().symbols);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  auto ans = AnswerQuery(db->get(), *q);
  if (!ans.ok()) {
    state.SkipWithError(ans.status().ToString().c_str());
    return;
  }
  int depth = static_cast<int>(state.range(0));
  size_t answers = 0;
  for (auto _ : state) {
    auto list = ans->Enumerate(depth, 64);
    if (list.ok()) answers = list->size();
    benchmark::DoNotOptimize(list);
  }
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["symbols"] = static_cast<double>(ans->alphabet().size());
}
BENCHMARK(BM_Query_EnumerateDeadEnd)->DenseRange(4, 8, 2);

}  // namespace
