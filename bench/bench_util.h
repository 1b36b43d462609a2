// Shared workload generators for the benchmark harness.
//
// Each experiment (DESIGN.md, Section 4) sweeps one of these families:
//
//  * RotationProgram(k): a k-team on-call rotation — the benign, linear
//    family (k states; the temporal/PSPACE side of Theorem 4.1).
//  * SubsetProgram(n): the worst-case family for Theorem 4.2's exponential
//    lower bound: n "bit" constants and n set_i symbols; reachable states
//    are all subsets containing bit 0, so the state count is 2^(n-1).
//  * DeepRuleProgram(d): a single rule with a depth-d head, for the
//    normalization sweep (E10).
//  * WidePredicateProgram(n): one chain with n parallel constants, for
//    spec-size comparisons (E8).

#ifndef RELSPEC_BENCH_BENCH_UTIL_H_
#define RELSPEC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/base/metrics.h"

namespace relspec_bench {

/// Opt-in per-benchmark metrics dump: when the RELSPEC_BENCH_METRICS
/// environment variable is set (to anything), enables the metrics registry
/// for the benchmark's lifetime and emits one machine-readable line
///   {"bench": "<name>", "metrics": {...}}
/// to stderr on destruction. Without the variable the registry stays
/// disabled, so the timed loops measure the disabled-path overhead.
class ScopedBenchMetrics {
 public:
  explicit ScopedBenchMetrics(std::string name) : name_(std::move(name)) {
    enabled_ = std::getenv("RELSPEC_BENCH_METRICS") != nullptr;
    if (!enabled_) return;
    relspec::MetricsRegistry::Global().Reset();
    relspec::EnableMetrics(true);
  }

  ~ScopedBenchMetrics() {
    if (!enabled_) return;
    relspec::EnableMetrics(false);
    std::string json =
        relspec::MetricsRegistry::Global().Snapshot().ToJson(/*pretty=*/false);
    fprintf(stderr, "{\"bench\": \"%s\", \"metrics\": %s}\n", name_.c_str(),
            json.c_str());
  }

  ScopedBenchMetrics(const ScopedBenchMetrics&) = delete;
  ScopedBenchMetrics& operator=(const ScopedBenchMetrics&) = delete;

 private:
  std::string name_;
  bool enabled_ = false;
};

/// k-team rotation: OnCall(t, team_i) cycles with period k.
inline std::string RotationProgram(int k) {
  std::string out = "OnCall(0, m0).\n";
  for (int i = 0; i < k; ++i) {
    out += "Rotate(m" + std::to_string(i) + ", m" +
           std::to_string((i + 1) % k) + ").\n";
  }
  out += "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
  return out;
}

/// Exponential-state family: bit constants b0..b{n-1}, symbols s0..s{n-1};
/// applying s_i sets bit i and keeps the others. Reachable states from
/// {b0}: all subsets containing b0 -> 2^(n-1) distinct states.
inline std::string SubsetProgram(int n) {
  std::string out = "B(0, b0).\n";
  for (int i = 0; i < n; ++i) {
    // Symbol names must not look like variables, hence the "set" prefix.
    std::string sym = "set";
    sym += std::to_string(i);
    out += "B(t, x) -> B(" + sym + "(t), x).\n";           // copy all bits
    out += "B(t, x) -> B(" + sym + "(t), b" + std::to_string(i) + ").\n";
  }
  return out;
}

/// One deep rule: P(t) -> P(t+d), plus a seed fact.
inline std::string DeepRuleProgram(int d) {
  return "P(0).\nP(t) -> P(t+" + std::to_string(d) + ").\n";
}

/// A +1 chain carrying n constants forever (wide slices, tiny graph).
inline std::string WidePredicateProgram(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "P(0, k" + std::to_string(i) + ").\n";
  }
  out += "P(t, x) -> P(t+1, x).\n";
  return out;
}

/// An n-bit binary counter over the single symbol +1: Bit_i / NotBit_i
/// track the i-th bit, a bit flips exactly when all lower bits are set.
/// The least fixpoint's lasso has period 2^n — the exponential-period
/// witness for the PSPACE side of Theorem 4.1.
inline std::string BinaryCounterProgram(int n) {
  std::string out;
  // Start at zero: all bits clear.
  for (int i = 0; i < n; ++i) {
    out += "Nobit" + std::to_string(i) + "(0).\n";
  }
  auto all_lower_set = [&](int i) {
    std::string body;
    for (int j = 0; j < i; ++j) body += ", Bit" + std::to_string(j) + "(t)";
    return body;
  };
  for (int i = 0; i < n; ++i) {
    std::string bit = "Bit" + std::to_string(i);
    std::string nobit = "Nobit" + std::to_string(i);
    // Flip when every lower bit is set.
    out += nobit + "(t)" + all_lower_set(i) + " -> " + bit + "(t+1).\n";
    out += bit + "(t)" + all_lower_set(i) + " -> " + nobit + "(t+1).\n";
    // Hold when some lower bit is clear.
    for (int j = 0; j < i; ++j) {
      std::string lowclear = "Nobit" + std::to_string(j);
      out += bit + "(t), " + lowclear + "(t) -> " + bit + "(t+1).\n";
      out += nobit + "(t), " + lowclear + "(t) -> " + nobit + "(t+1).\n";
    }
  }
  return out;
}

/// Mixed-symbol program whose purification multiplies rules by n^2.
inline std::string MixedProgram(int n) {
  std::string out = "At(0, q0).\n";
  for (int i = 0; i < n; ++i) {
    out += "Connected(q" + std::to_string(i) + ", q" +
           std::to_string((i + 1) % n) + ").\n";
  }
  out += "At(s, x), Connected(x, y) -> At(move(s, x, y), y).\n";
  return out;
}

}  // namespace relspec_bench

#endif  // RELSPEC_BENCH_BENCH_UTIL_H_
