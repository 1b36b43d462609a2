// E13 — the DATALOG substrate: semi-naive vs naive bottom-up evaluation.
//
// Expected shape: the classic separation — naive evaluation re-derives the
// entire relation every round (superlinear blowup in rule firings), while
// semi-naive touches only the deltas.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/datalog/database.h"
#include "src/datalog/frontend.h"
#include "src/parser/parser.h"
#include "src/datalog/evaluator.h"

namespace {

using namespace relspec::datalog;

// Transitive closure of a path graph with n nodes.
void RunClosure(benchmark::State& state, Strategy strategy) {
  relspec_bench::ScopedBenchMetrics bench_metrics(__func__);
  int n = static_cast<int>(state.range(0));
  size_t firings = 0, tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    (void)db.Declare(0, 2);
    (void)db.Declare(1, 2);
    for (int i = 0; i + 1 < n; ++i) {
      db.Insert(0, {static_cast<Value>(i), static_cast<Value>(i + 1)});
    }
    DRule base;
    base.num_vars = 2;
    base.head = DAtom{1, {DTerm::Var(0), DTerm::Var(1)}};
    base.body = {DAtom{0, {DTerm::Var(0), DTerm::Var(1)}}};
    DRule step;
    step.num_vars = 3;
    step.head = DAtom{1, {DTerm::Var(0), DTerm::Var(2)}};
    step.body = {DAtom{1, {DTerm::Var(0), DTerm::Var(1)}},
                 DAtom{0, {DTerm::Var(1), DTerm::Var(2)}}};
    EvalOptions opts;
    opts.strategy = strategy;
    state.ResumeTiming();
    auto stats = Evaluate({base, step}, &db, opts);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    firings = stats->rule_firings;
    tuples = db.relation(1).size();
    benchmark::DoNotOptimize(db);
  }
  state.counters["n"] = n;
  state.counters["rule_firings"] = static_cast<double>(firings);
  state.counters["closure_tuples"] = static_cast<double>(tuples);
}

void BM_Datalog_Naive(benchmark::State& state) {
  RunClosure(state, Strategy::kNaive);
}
BENCHMARK(BM_Datalog_Naive)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMillisecond);

void BM_Datalog_SemiNaive(benchmark::State& state) {
  RunClosure(state, Strategy::kSemiNaive);
}
BENCHMARK(BM_Datalog_SemiNaive)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMillisecond);

// Ablation: a function-free program run through the relational frontend vs
// through the functional pipeline (which grounds it to propositional rules
// first). Expected shape: grounding pays |domain|^v rule instantiation and
// loses the benefit of on-the-fly variable binding.
std::string PathProgram(int n) {
  std::string out;
  for (int i = 0; i + 1 < n; ++i) {
    out += "Edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
           ").\n";
  }
  out += "Edge(x, y) -> Reach(x, y).\n";
  out += "Reach(x, y), Edge(y, z) -> Reach(x, z).\n";
  return out;
}

void BM_Datalog_RelationalFrontend(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto p = relspec::ParseProgram(PathProgram(n));
  if (!p.ok()) {
    state.SkipWithError(p.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto db = EvaluateDatalogProgram(*p);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_Datalog_RelationalFrontend)
    ->RangeMultiplier(2)
    ->Range(8, 32)
    ->Unit(benchmark::kMillisecond);

void BM_Datalog_GroundedPipeline(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::string source = PathProgram(n);
  for (auto _ : state) {
    auto db = relspec::FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_Datalog_GroundedPipeline)
    ->RangeMultiplier(2)
    ->Range(8, 32)
    ->Unit(benchmark::kMillisecond);

// Join with index probes: a star join Q(x) :- A(x,y), B(y,z), C(z,w).
void BM_Datalog_IndexedJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  (void)db.Declare(0, 2);
  (void)db.Declare(1, 2);
  (void)db.Declare(2, 2);
  for (int i = 0; i < n; ++i) {
    Value v = static_cast<Value>(i);
    db.Insert(0, {v, v % 16});
    db.Insert(1, {v % 16, v % 8});
    db.Insert(2, {v % 8, v});
  }
  std::vector<DAtom> body = {DAtom{0, {DTerm::Var(0), DTerm::Var(1)}},
                             DAtom{1, {DTerm::Var(1), DTerm::Var(2)}},
                             DAtom{2, {DTerm::Var(2), DTerm::Var(3)}}};
  for (auto _ : state) {
    auto result = JoinProject(db, body, 4, {0});
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_Datalog_IndexedJoin)->RangeMultiplier(4)->Range(64, 1024);

}  // namespace
