// E10 — Section 2.4 and the appendix: normalization and the mixed-to-pure
// transformation produce output polynomial in the input.
//
// Expected shape: normalization output grows linearly with the rule depth d
// (one peel predicate per level); mixed-to-pure output grows with n^v where
// v is the number of mixed-argument variables (here v = 2, so quadratic in
// the number of constants) — polynomial, as Section 2.4 claims.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/ground.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/parser/parser.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

void BM_Normalize_DeepRule(benchmark::State& state) {
  int d = static_cast<int>(state.range(0));
  std::string source = DeepRuleProgram(d);
  int rules_out = 0, aux = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto p = ParseProgram(source);
    state.ResumeTiming();
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    auto stats = NormalizeProgram(&*p);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    rules_out = stats->rules_out;
    aux = stats->aux_predicates;
    benchmark::DoNotOptimize(p);
  }
  state.counters["depth"] = d;
  state.counters["rules_out"] = rules_out;
  state.counters["aux_preds"] = aux;
}
BENCHMARK(BM_Normalize_DeepRule)->RangeMultiplier(2)->Range(2, 64);

void BM_MixedToPure_Domain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::string source = MixedProgram(n);
  int rules_out = 0, symbols = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto p = ParseProgram(source);
    state.ResumeTiming();
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    auto stats = MixedToPure(&*p);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    rules_out = stats->rules_out;
    symbols = stats->new_symbols;
    benchmark::DoNotOptimize(p);
  }
  state.counters["n_constants"] = n;
  state.counters["rules_out"] = rules_out;
  state.counters["new_symbols"] = symbols;
}
BENCHMARK(BM_MixedToPure_Domain)->RangeMultiplier(2)->Range(2, 32);

void BM_FullTransformPipeline(benchmark::State& state) {
  // Normalization then purification on a program that needs both.
  int n = static_cast<int>(state.range(0));
  std::string source = MixedProgram(n) + "At(s, x) -> Far(s+2, x).\n";
  for (auto _ : state) {
    state.PauseTiming();
    auto p = ParseProgram(source);
    state.ResumeTiming();
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    auto ns = NormalizeProgram(&*p);
    auto ms = MixedToPure(&*p);
    if (!ns.ok() || !ms.ok()) {
      state.SkipWithError("transform failed");
      return;
    }
    benchmark::DoNotOptimize(p);
  }
  state.counters["n_constants"] = n;
}
BENCHMARK(BM_FullTransformPipeline)->RangeMultiplier(2)->Range(2, 16);

// ROADMAP item 14 — the whole front end of a build: parse (which validates),
// normalize, purify and ground, on the two families whose front end costs
// most: counter(9) parses the most text, and mixed(18) grounds 324 purified
// rules of which only 18 match a Connected fact. Expected shape: cost
// follows the text parsed and the rule instances emitted.
void RunFrontEnd(benchmark::State& state, const std::string& source) {
  size_t rules = 0;
  for (auto _ : state) {
    auto p = ParseProgram(source);
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    auto ns = NormalizeProgram(&*p);
    auto ms = MixedToPure(&*p);
    if (!ns.ok() || !ms.ok()) {
      state.SkipWithError("transform failed");
      return;
    }
    auto g = Ground(*p);
    if (!g.ok()) {
      state.SkipWithError(g.status().ToString().c_str());
      return;
    }
    rules = g->local_rules().size() + g->global_rules().size();
    benchmark::DoNotOptimize(g);
  }
  state.counters["source_bytes"] = static_cast<double>(source.size());
  state.counters["ground_rules"] = static_cast<double>(rules);
}

void BM_FrontEnd_Counter(benchmark::State& state) {
  RunFrontEnd(state, BinaryCounterProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FrontEnd_Counter)->Arg(9);

void BM_FrontEnd_Mixed(benchmark::State& state) {
  RunFrontEnd(state, MixedProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FrontEnd_Mixed)->Arg(18);

// E40 — Ground alone on the build workload's rotation(420): 420 rule
// instances, each interning two slice atoms from one reused buffer into
// the flat universe. Expected shape: one rule vector per new ground rule,
// no heap block per atom.
void BM_Ground_Rotation(benchmark::State& state) {
  auto p = ParseProgram(RotationProgram(static_cast<int>(state.range(0))));
  if (!p.ok() || !NormalizeProgram(&*p).ok() || !MixedToPure(&*p).ok()) {
    state.SkipWithError("front end failed");
    return;
  }
  size_t rules = 0, atoms = 0;
  for (auto _ : state) {
    auto g = Ground(*p);
    if (!g.ok()) {
      state.SkipWithError(g.status().ToString().c_str());
      return;
    }
    rules = g->local_rules().size() + g->global_rules().size();
    atoms = g->num_atoms();
    benchmark::DoNotOptimize(g);
  }
  state.counters["ground_rules"] = static_cast<double>(rules);
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_Ground_Rotation)->Arg(420);

// ROADMAP item 20 — the parser alone, at input speed: ParseProgram (lex,
// syntax, lowering and validation) on the build workload's counter(9) and
// rotation(420) texts. Expected shape: time follows the bytes read, so the
// two report similar bytes per second.
void RunParse(benchmark::State& state, const std::string& source) {
  for (auto _ : state) {
    auto p = ParseProgram(source);
    if (!p.ok()) {
      state.SkipWithError(p.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
  state.counters["source_bytes"] = static_cast<double>(source.size());
}

void BM_Parse_Counter(benchmark::State& state) {
  RunParse(state, BinaryCounterProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Parse_Counter)->Arg(9);

void BM_Parse_Rotation(benchmark::State& state) {
  RunParse(state, RotationProgram(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Parse_Rotation)->Arg(420);

}  // namespace
