// E7 — Theorem 4.2: the graph specification is computable in DEXPTIME and
// its size has exponential upper and lower bounds. E24 — Algorithm Q's cost
// in chain depth (BM_AlgorithmQ_Chain, below). E29 — snapshot save on the
// same chain (BM_SnapshotSave_Chain). E38 — copying that chain's label
// graph (BM_LabelGraphCopy_Chain). E40 — copying a 420-team rotation's
// whole graph specification (BM_GraphSpecCopy_Rotation).
//
// Expected shape: construction time and specification size grow linearly in
// k on the benign rotation family and exponentially in n on the subset
// family (the lower-bound witness: 2^(n-1) distinct states force that many
// clusters).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/snapshot.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

void BuildAndReport(benchmark::State& state, const std::string& source) {
  size_t clusters = 0, tuples = 0, edges = 0;
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    auto spec = (*db)->BuildGraphSpec();
    if (!spec.ok()) {
      state.SkipWithError(spec.status().ToString().c_str());
      return;
    }
    clusters = spec->num_clusters();
    tuples = spec->num_slice_tuples();
    edges = spec->num_edges();
    benchmark::DoNotOptimize(spec);
  }
  state.counters["clusters"] = static_cast<double>(clusters);
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["edges"] = static_cast<double>(edges);
}

void BM_GraphSpec_Rotation(benchmark::State& state) {
  BuildAndReport(state, RotationProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_GraphSpec_Rotation)->DenseRange(2, 16, 2);

void BM_GraphSpec_Subset(benchmark::State& state) {
  BuildAndReport(state, SubsetProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_GraphSpec_Subset)
    ->DenseRange(2, 7, 1)
    ->Unit(benchmark::kMillisecond);

void BM_GraphSpec_WideSlices(benchmark::State& state) {
  BuildAndReport(state, WidePredicateProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_GraphSpec_WideSlices)->DenseRange(8, 64, 8);

// Ablation: the footnote-3 merged frontier shrinks the spec on programs
// with deep trunks at no membership cost.
void BM_GraphSpec_MergedFrontier(benchmark::State& state) {
  std::string source = "P(" + std::to_string(state.range(0)) + ").\n" +
                       "P(t) -> P(t+1).\n";
  EngineOptions options;
  options.graph.merge_trunk_frontier = state.range(1) != 0;
  size_t clusters = 0;
  for (auto _ : state) {
    auto db = FunctionalDatabase::FromSource(source, options);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    clusters = (*db)->label_graph().num_clusters();
    benchmark::DoNotOptimize(db);
  }
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_GraphSpec_MergedFrontier)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// E24 — Algorithm Q against chain depth: a log2(n)-bit counter is a chain
// of n states below the root (n + 1 clusters). The BFS carries each term's
// chi entry and follows each Active cluster's recorded child entries, so it
// closes nothing: the cost is one label hash per Potential term.
void BM_AlgorithmQ_Chain(benchmark::State& state) {
  int bits = 0;
  while ((int64_t{1} << bits) < state.range(0)) ++bits;
  auto db = FunctionalDatabase::FromSource(BinaryCounterProgram(bits));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  size_t clusters = 0;
  for (auto _ : state) {
    // A fresh labeling per iteration, as every build makes one.
    state.PauseTiming();
    auto labeling = ComputeFixpoint((*db)->ground());
    state.ResumeTiming();
    if (!labeling.ok()) {
      state.SkipWithError(labeling.status().ToString().c_str());
      return;
    }
    auto graph = BuildLabelGraph(&*labeling);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    clusters = graph->num_clusters();
    benchmark::DoNotOptimize(graph);
  }
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_AlgorithmQ_Chain)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// E38 — copying and destroying BM_AlgorithmQ_Chain's label graph, the bulk
// of the spec copy FunctionalDatabase::BuildGraphSpec() makes. The clusters
// are arrays (parent, symbol, trunk flag, a label word arena and a
// successor array), so the copy is a handful of vector copies whatever the
// cluster count.
void BM_LabelGraphCopy_Chain(benchmark::State& state) {
  int bits = 0;
  while ((int64_t{1} << bits) < state.range(0)) ++bits;
  auto db = FunctionalDatabase::FromSource(BinaryCounterProgram(bits));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  const LabelGraph& graph = (*db)->label_graph();
  for (auto _ : state) {
    LabelGraph copy = graph;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["clusters"] = static_cast<double>(graph.num_clusters());
}
BENCHMARK(BM_LabelGraphCopy_Chain)->Arg(512)->Unit(benchmark::kMicrosecond);

// E40 — the copy FunctionalDatabase::BuildGraphSpec() returns, on a
// 420-team rotation: 420 constants, 420 slice atoms and 420 globals over
// a small graph. The symbol table, the dictionary and the globals are flat
// arrays with IdIndex indexes, so the copy is a fixed number of vector
// copies whatever the number of names, atoms and globals.
void BM_GraphSpecCopy_Rotation(benchmark::State& state) {
  auto db = FunctionalDatabase::FromSource(
      RotationProgram(static_cast<int>(state.range(0))));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto copy = (*db)->BuildGraphSpec();
    benchmark::DoNotOptimize(copy);
  }
  state.counters["atoms"] =
      static_cast<double>((*db)->spec()->atom_dictionary().size());
  state.counters["globals"] =
      static_cast<double>((*db)->spec()->globals().size());
}
BENCHMARK(BM_GraphSpecCopy_Rotation)->Arg(420)->Unit(benchmark::kMicrosecond);

// E29 — snapshot save against chain depth: the graph and equational
// snapshots of BM_AlgorithmQ_Chain's counter program, serialized back to
// back as a build writes them. A representative is one (parent, symbol)
// tree edge and an equation one (cluster, symbol, cluster) triple, so the
// bytes, and the time, grow linearly in the clusters.
void BM_SnapshotSave_Chain(benchmark::State& state) {
  int bits = 0;
  while ((int64_t{1} << bits) < state.range(0)) ++bits;
  auto db = FunctionalDatabase::FromSource(BinaryCounterProgram(bits));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto graph = (*db)->BuildGraphSpec();
  auto eq = (*db)->BuildEquationalSpec();
  if (!graph.ok() || !eq.ok()) {
    state.SkipWithError("spec build failed");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string graph_bytes = Snapshot::Serialize(*graph);
    std::string eq_bytes = Snapshot::Serialize(*eq);
    bytes = graph_bytes.size() + eq_bytes.size();
    benchmark::DoNotOptimize(graph_bytes);
    benchmark::DoNotOptimize(eq_bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["clusters"] = static_cast<double>(graph->num_clusters());
}
BENCHMARK(BM_SnapshotSave_Chain)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
