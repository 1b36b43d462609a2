// E8 — Theorem 4.3: equational specifications cost up to D2EXPTIME in
// general (DEXPTIME for temporal rules), and Section 4 remarks that the
// graph specification is the more economical encoding when fixpoints are
// large.
//
// Expected shape: |R| tracks the number of inactive Potential terms (edges
// of the graph minus the active ones), so on the subset family both
// representations blow up together but R carries whole term paths while F
// stores single integers per edge — the counters expose the gap.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/engine.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

void BuildAndReport(benchmark::State& state, const std::string& source) {
  size_t equations = 0, reps = 0, tuples = 0;
  size_t graph_edges = 0;
  size_t eq_path_symbols = 0;  // total symbols stored in R (its real size)
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    auto espec = (*db)->BuildEquationalSpec();
    if (!espec.ok()) {
      state.SkipWithError(espec.status().ToString().c_str());
      return;
    }
    equations = espec->num_equations();
    reps = espec->spec().num_clusters();
    tuples = espec->spec().num_slice_tuples();
    eq_path_symbols = 0;
    for (const Equation& eq : espec->equations()) {
      const auto [t1, t2] = espec->EquationPaths(eq);
      eq_path_symbols += static_cast<size_t>(t1.depth() + t2.depth());
    }
    graph_edges = (*db)->label_graph().num_clusters() *
                  (*db)->ground().num_symbols();
    benchmark::DoNotOptimize(espec);
  }
  state.counters["equations"] = static_cast<double>(equations);
  state.counters["eq_sym_footprint"] = static_cast<double>(eq_path_symbols);
  state.counters["graph_edges"] = static_cast<double>(graph_edges);
  state.counters["representatives"] = static_cast<double>(reps);
  state.counters["tuples_B"] = static_cast<double>(tuples);
}

void BM_EqSpec_Rotation(benchmark::State& state) {
  BuildAndReport(state, RotationProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EqSpec_Rotation)->DenseRange(2, 16, 2);

void BM_EqSpec_Subset(benchmark::State& state) {
  BuildAndReport(state, SubsetProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_EqSpec_Subset)->DenseRange(2, 6, 1)->Unit(benchmark::kMillisecond);

// A congruence test over (B, R) is two Link walks, like membership
// through (B, F) is one: Congruent on the membership walk's deep terms,
// against the representative they are congruent to.
void BM_EqSpec_CongruentWalk(benchmark::State& state) {
  auto db = FunctionalDatabase::FromSource(RotationProgram(6));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto espec = (*db)->BuildEquationalSpec();
  if (!espec.ok()) return;
  FuncId succ = *espec->spec().symbols().FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(state.range(0)), succ);
  Path deep{std::move(syms)};
  const LabelGraph& graph = espec->spec().graph();
  const Path rep = graph.Representative(graph.ClusterOf(deep));
  for (auto _ : state) {
    bool congruent = espec->Congruent(deep, rep);
    benchmark::DoNotOptimize(congruent);
  }
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EqSpec_CongruentWalk)->RangeMultiplier(4)->Range(6, 1536);

void BM_GraphSpec_MembershipWalk(benchmark::State& state) {
  auto db = FunctionalDatabase::FromSource(RotationProgram(6));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto gspec = (*db)->BuildGraphSpec();
  if (!gspec.ok()) return;
  PredId oncall = *gspec->symbols().FindPredicate("OnCall");
  ConstId m0 = *gspec->symbols().FindConstant("m0");
  FuncId succ = *gspec->symbols().FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(state.range(0)), succ);
  Path deep{std::move(syms)};
  for (auto _ : state) {
    bool holds = gspec->Holds(deep, oncall, std::vector<ConstId>{m0});
    benchmark::DoNotOptimize(holds);
  }
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_GraphSpec_MembershipWalk)->RangeMultiplier(4)->Range(6, 1536);

}  // namespace
