// A process-wide metrics registry: named counters, gauges, log-bucketed
// histograms and phase spans, plus a JSON-serializable snapshot.
//
// Design goals, in order:
//
//  1. Near-zero overhead when disabled. Collection is off by default; every
//     macro below first performs one relaxed atomic load and branches away.
//     No registry lookup, no allocation, no clock read happens while
//     metrics are disabled.
//  2. Thread-safe when enabled. Instruments are plain atomics; the registry
//     map is guarded by a mutex and instrument pointers are stable for the
//     process lifetime (entries are never erased, Reset only zeroes values),
//     so call sites may cache the pointer in a function-local static.
//  3. Machine-readable. MetricsSnapshot::ToJson emits a stable JSON schema
//     (documented in docs/OBSERVABILITY.md) consumed by `relspec_cli
//     --stats`, the bench harness and the check script; FromJson parses it
//     back for round-trip validation.
//
// Usage (mirrors the RELSPEC_LOG idiom):
//
//   RELSPEC_COUNTER("chi.lookups");           // += 1
//   RELSPEC_COUNTER_ADD("uf.path_compressions", n);
//   RELSPEC_GAUGE_SET("fixpoint.trunk_nodes", trunk.size());
//   RELSPEC_GAUGE_MAX("cc.pending_peak", pending_.size());
//   RELSPEC_HISTOGRAM("datalog.rule_batch", batch_size);
//   RELSPEC_SCOPED_TIMER("eqspec.congruent_ns");  // histogram of ns, RAII
//   RELSPEC_PHASE("fixpoint");                // phase span, RAII; also
//                                             // emits begin/end trace lines
//                                             // when tracing is enabled

#ifndef RELSPEC_BASE_METRICS_H_
#define RELSPEC_BASE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace relspec {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// Turns metric collection on or off for the whole process. Off by default.
void EnableMetrics(bool on);
/// Inline, so a disabled RELSPEC_COUNTER in a hot loop costs one relaxed
/// load and a branch, not a call.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns phase tracing on or off: RELSPEC_PHASE spans log begin/end lines
/// (with wall time) through RELSPEC_LOG(kInfo). Off by default. The log
/// level must admit kInfo for the lines to actually appear.
void EnableTracing(bool on);
bool TracingEnabled();

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written (or maximum) instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the gauge to v if v is larger (peak tracking).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram over uint64 samples: bucket i holds samples whose
/// bit width is i, i.e. values in [2^(i-1), 2^i). Bucket 0 holds zeros.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  void Record(uint64_t v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Minimum / maximum recorded sample; 0 when empty.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Accumulated wall time of a named pipeline phase.
class PhaseStat {
 public:
  void Record(uint64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  /// (bucket exponent, count) for every non-empty bucket: exponent e covers
  /// samples in [2^(e-1), 2^e); e == 0 covers exactly 0.
  std::vector<std::pair<int, uint64_t>> buckets;

  /// The quantiles ToJson surfaces under "quantiles" (as pN keys: p50 is
  /// q = 0.50, p999 is q = 0.999).
  static constexpr double kReportedQuantiles[] = {0.50, 0.90, 0.95, 0.99,
                                                  0.999};

  /// Value at quantile q in [0, 1], linearly interpolated inside the log
  /// bucket containing the target rank and clamped to [min, max] (so a
  /// single-sample histogram returns the sample exactly). Monotone in q;
  /// 0 for an empty histogram. q outside [0, 1] is clamped.
  uint64_t ValueAtQuantile(double q) const;
};

struct PhaseSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

/// A point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<PhaseSnapshot> phases;

  /// Value of a named counter/gauge/phase; 0 when absent (convenient for
  /// invariant assertions in tests).
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  const PhaseSnapshot* phase(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;

  /// Serializes to the stable JSON schema (see docs/OBSERVABILITY.md).
  /// `pretty` adds indentation; pass false for a single-line blob suitable
  /// for embedding in another JSON line.
  std::string ToJson(bool pretty = true) const;
  /// Parses a ToJson string back (round-trip validation; also the parser
  /// behind `tools/run_checks.sh`'s snapshot check).
  static StatusOr<MetricsSnapshot> FromJson(std::string_view json);

  /// Renders the snapshot in the Prometheus text exposition format
  /// (version 0.0.4): counters and phase totals as `counter` families,
  /// gauges as `gauge` families, histograms as `summary` families whose
  /// quantile series come from ValueAtQuantile over kReportedQuantiles.
  /// Metric names are the registry names with '.' mapped to '_' and a
  /// `relspec_` prefix (e.g. serve.accepts -> relspec_serve_accepts); the
  /// full name table is pinned in docs/OPERATIONS.md. Deterministic:
  /// families and series are emitted in sorted-name order.
  std::string ToPrometheusText() const;
};

/// The process-wide instrument registry. Instruments are created on first
/// use and never destroyed; returned pointers stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);
  PhaseStat* GetPhase(std::string_view name);

  /// Copies every instrument into a snapshot.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered instrument (registrations and cached pointers
  /// stay valid).
  void Reset();

  /// Total registered instruments (tests: the disabled path registers none).
  size_t NumInstruments() const;

 private:
  struct Impl;
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // process-lifetime singleton
  Impl* impl_;
};

namespace internal {

/// RAII nanosecond timer recording into a histogram; inert when given null.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h),
        start_(h ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point()) {}
  ~ScopedTimer() {
    if (h_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    h_->Record(static_cast<uint64_t>(ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII phase span: accumulates wall time into the registry's PhaseStat when
/// metrics are enabled, emits begin/end lines through the logger when
/// tracing is enabled, and records a timeline span in the event tracer
/// (base/trace.h) when event tracing is enabled — one RELSPEC_PHASE yields
/// all three views. `name` must be a string literal (stored by pointer).
class PhaseSpan {
 public:
  explicit PhaseSpan(const char* name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  const char* name_;
  bool metrics_on_;
  bool tracing_on_;
  bool event_trace_on_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace internal
}  // namespace relspec

#define RELSPEC_METRICS_CONCAT_INNER(a, b) a##b
#define RELSPEC_METRICS_CONCAT(a, b) RELSPEC_METRICS_CONCAT_INNER(a, b)

// Each macro caches the instrument pointer in a function-local static, so
// the registry's mutex is taken once per call site, not per call.
#define RELSPEC_COUNTER(name) RELSPEC_COUNTER_ADD(name, 1)

#define RELSPEC_COUNTER_ADD(name, n)                              \
  do {                                                            \
    if (::relspec::MetricsEnabled()) {                            \
      static ::relspec::Counter* relspec_counter =                \
          ::relspec::MetricsRegistry::Global().GetCounter(name);  \
      relspec_counter->Add(static_cast<uint64_t>(n));             \
    }                                                             \
  } while (0)

#define RELSPEC_GAUGE_SET(name, v)                              \
  do {                                                          \
    if (::relspec::MetricsEnabled()) {                          \
      static ::relspec::Gauge* relspec_gauge =                  \
          ::relspec::MetricsRegistry::Global().GetGauge(name);  \
      relspec_gauge->Set(static_cast<int64_t>(v));              \
    }                                                           \
  } while (0)

#define RELSPEC_GAUGE_ADD(name, d)                              \
  do {                                                          \
    if (::relspec::MetricsEnabled()) {                          \
      static ::relspec::Gauge* relspec_gauge =                  \
          ::relspec::MetricsRegistry::Global().GetGauge(name);  \
      relspec_gauge->Add(static_cast<int64_t>(d));              \
    }                                                           \
  } while (0)

#define RELSPEC_GAUGE_MAX(name, v)                              \
  do {                                                          \
    if (::relspec::MetricsEnabled()) {                          \
      static ::relspec::Gauge* relspec_gauge =                  \
          ::relspec::MetricsRegistry::Global().GetGauge(name);  \
      relspec_gauge->SetMax(static_cast<int64_t>(v));           \
    }                                                           \
  } while (0)

#define RELSPEC_HISTOGRAM(name, v)                                  \
  do {                                                              \
    if (::relspec::MetricsEnabled()) {                              \
      static ::relspec::Histogram* relspec_hist =                   \
          ::relspec::MetricsRegistry::Global().GetHistogram(name);  \
      relspec_hist->Record(static_cast<uint64_t>(v));               \
    }                                                               \
  } while (0)

#define RELSPEC_SCOPED_TIMER(name)                                          \
  ::relspec::internal::ScopedTimer RELSPEC_METRICS_CONCAT(                  \
      relspec_scoped_timer_, __LINE__)(                                     \
      ::relspec::MetricsEnabled()                                           \
          ? [] {                                                            \
              static ::relspec::Histogram* relspec_hist =                   \
                  ::relspec::MetricsRegistry::Global().GetHistogram(name);  \
              return relspec_hist;                                          \
            }()                                                             \
          : nullptr)

#define RELSPEC_PHASE(name)                       \
  ::relspec::internal::PhaseSpan RELSPEC_METRICS_CONCAT(relspec_phase_, \
                                                        __LINE__)(name)

#endif  // RELSPEC_BASE_METRICS_H_
