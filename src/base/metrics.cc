#include "src/base/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

namespace {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace

void EnableMetrics(bool on) {
  internal::g_metrics_enabled.store(on, std::memory_order_relaxed);
}
void EnableTracing(bool on) {
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}
bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::Record(uint64_t v) {
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The target cumulative rank. Walk the (sorted, sparse) buckets until the
  // running count reaches it, then interpolate linearly inside that bucket's
  // value range [2^(e-1), 2^e).
  const double target = q * static_cast<double>(count);
  uint64_t cum = 0;
  double value = 0.0;
  for (const auto& [exp, n] : buckets) {
    const double lo = exp == 0 ? 0.0 : std::ldexp(1.0, exp - 1);
    const double hi =
        exp == 0 ? 0.0
                 : (exp >= 64 ? 18446744073709551615.0  // UINT64_MAX
                              : std::ldexp(1.0, exp) - 1.0);
    const double before = static_cast<double>(cum);
    cum += n;
    value = hi;  // carried forward if rounding never reaches `target`
    if (static_cast<double>(cum) >= target) {
      double frac =
          n == 0 ? 1.0 : (target - before) / static_cast<double>(n);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      value = lo + frac * (hi - lo);
      break;
    }
  }
  // Clamp into the observed range: exact for single-sample histograms,
  // immune to interpolation overshoot at the extremes, and UB-free at
  // UINT64_MAX (never casts a double >= 2^64).
  if (value <= static_cast<double>(min)) return min;
  if (value >= static_cast<double>(max)) return max;
  return static_cast<uint64_t>(value);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // std::map: sorted iteration for stable snapshots; unique_ptr: instrument
  // addresses survive rehashing/rebalancing, so call sites can cache them.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<PhaseStat>, std::less<>> phases;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instruments must outlive every static destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {
template <typename T>
T* GetOrCreate(std::mutex& mu,
               std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
               std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return it->second.get();
}
}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(impl_->mu, impl_->counters, name);
}
Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(impl_->mu, impl_->gauges, name);
}
Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return GetOrCreate(impl_->mu, impl_->histograms, name);
}
PhaseStat* MetricsRegistry::GetPhase(std::string_view name) {
  return GetOrCreate(impl_->mu, impl_->phases, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  MetricsSnapshot snap;
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : impl_->gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : impl_->histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t n = h->bucket(i);
      if (n > 0) hs.buckets.emplace_back(i, n);
    }
    snap.histograms.push_back(std::move(hs));
  }
  for (const auto& [name, p] : impl_->phases) {
    snap.phases.push_back(PhaseSnapshot{name, p->count(), p->total_ns()});
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->Reset();
  for (auto& [name, g] : impl_->gauges) g->Reset();
  for (auto& [name, h] : impl_->histograms) h->Reset();
  for (auto& [name, p] : impl_->phases) p->Reset();
}

size_t MetricsRegistry::NumInstruments() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->counters.size() + impl_->gauges.size() +
         impl_->histograms.size() + impl_->phases.size();
}

// ---------------------------------------------------------------------------
// MetricsSnapshot accessors
// ---------------------------------------------------------------------------

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const PhaseSnapshot* MetricsSnapshot::phase(std::string_view name) const {
  for (const PhaseSnapshot& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

// JSON labels for HistogramSnapshot::kReportedQuantiles, index-aligned.
constexpr const char* kQuantileLabels[] = {"p50", "p90", "p95", "p99",
                                           "p999"};
static_assert(std::size(kQuantileLabels) ==
              std::size(HistogramSnapshot::kReportedQuantiles));

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          *out += StrFormat("\\u%04x", ch);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsSnapshot::ToJson(bool pretty) const {
  const std::string item_first = pretty ? "\n    " : "";
  const std::string item_next = pretty ? ",\n    " : ", ";
  const std::string section_close = pretty ? "\n  }" : "}";
  const std::string section_sep = pretty ? ",\n  " : ", ";
  std::string out = pretty ? "{\n  \"counters\": {" : "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? item_first : item_next;
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(": %llu", static_cast<unsigned long long>(v));
  }
  out += first ? "}" : section_close;
  out += section_sep + "\"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? item_first : item_next;
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(": %lld", static_cast<long long>(v));
  }
  out += first ? "}" : section_close;
  out += section_sep + "\"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += first ? item_first : item_next;
    first = false;
    AppendJsonString(h.name, &out);
    out += StrFormat(
        ": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, \"max\": %llu, "
        "\"buckets\": [",
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum),
        static_cast<unsigned long long>(h.min),
        static_cast<unsigned long long>(h.max));
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("[%d, %llu]", h.buckets[i].first,
                       static_cast<unsigned long long>(h.buckets[i].second));
    }
    out += "], \"quantiles\": {";
    for (size_t i = 0; i < std::size(kQuantileLabels); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat(
          "\"%s\": %llu", kQuantileLabels[i],
          static_cast<unsigned long long>(h.ValueAtQuantile(
              HistogramSnapshot::kReportedQuantiles[i])));
    }
    out += "}}";
  }
  out += first ? "}" : section_close;
  out += section_sep + "\"phases\": {";
  first = true;
  for (const PhaseSnapshot& p : phases) {
    out += first ? item_first : item_next;
    first = false;
    AppendJsonString(p.name, &out);
    out += StrFormat(": {\"count\": %llu, \"total_ns\": %llu}",
                     static_cast<unsigned long long>(p.count),
                     static_cast<unsigned long long>(p.total_ns));
  }
  out += first ? "}" : section_close;
  out += pretty ? "\n}\n" : "}";
  return out;
}

namespace {

// Registry names use '.'/'-' separators; Prometheus metric names may not.
std::string PrometheusName(std::string_view name) {
  std::string out = "relspec_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    const std::string pname = PrometheusName(name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", pname.c_str(),
                     pname.c_str(), static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    const std::string pname = PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n%s %lld\n", pname.c_str(),
                     pname.c_str(), static_cast<long long>(v));
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string pname = PrometheusName(h.name);
    out += StrFormat("# TYPE %s summary\n", pname.c_str());
    for (double q : HistogramSnapshot::kReportedQuantiles) {
      out += StrFormat(
          "%s{quantile=\"%g\"} %llu\n", pname.c_str(), q,
          static_cast<unsigned long long>(h.ValueAtQuantile(q)));
    }
    out += StrFormat("%s_sum %llu\n%s_count %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(h.sum), pname.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  for (const PhaseSnapshot& p : phases) {
    const std::string pname = PrometheusName(p.name);
    out += StrFormat("# TYPE %s_count counter\n%s_count %llu\n",
                     pname.c_str(), pname.c_str(),
                     static_cast<unsigned long long>(p.count));
    out += StrFormat("# TYPE %s_total_ns counter\n%s_total_ns %llu\n",
                     pname.c_str(), pname.c_str(),
                     static_cast<unsigned long long>(p.total_ns));
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON parsing (the subset ToJson emits) — shared parser in base/json.h
// ---------------------------------------------------------------------------

StatusOr<MetricsSnapshot> MetricsSnapshot::FromJson(std::string_view json) {
  MetricsSnapshot snap;
  JsonParser p(json);
  Status status = p.ParseObject([&](const std::string& section) -> Status {
    if (section == "counters") {
      return p.ParseObject([&](const std::string& name) -> Status {
        RELSPEC_ASSIGN_OR_RETURN(uint64_t v, p.ParseUint());
        snap.counters.emplace_back(name, v);
        return Status::OK();
      });
    }
    if (section == "gauges") {
      return p.ParseObject([&](const std::string& name) -> Status {
        RELSPEC_ASSIGN_OR_RETURN(int64_t v, p.ParseInt());
        snap.gauges.emplace_back(name, v);
        return Status::OK();
      });
    }
    if (section == "histograms") {
      return p.ParseObject([&](const std::string& name) -> Status {
        HistogramSnapshot hs;
        hs.name = name;
        RELSPEC_RETURN_NOT_OK(
            p.ParseObject([&](const std::string& field) -> Status {
              if (field == "quantiles") {
                // Derived from the buckets (ToJson recomputes them), so the
                // values are validated as well-formed numbers and dropped:
                // the parsed snapshot re-emits byte-identical quantiles.
                return p.ParseObject([&](const std::string&) -> Status {
                  return p.ParseUint().status();
                });
              }
              if (field == "buckets") {
                if (!p.Eat('[')) return p.Error("expected '['");
                while (!p.Peek(']')) {
                  if (!p.Eat('[')) return p.Error("expected '['");
                  RELSPEC_ASSIGN_OR_RETURN(int64_t exp, p.ParseInt());
                  RELSPEC_ASSIGN_OR_RETURN(uint64_t n, p.ParseUint());
                  if (!p.Eat(']')) return p.Error("expected ']'");
                  hs.buckets.emplace_back(static_cast<int>(exp), n);
                }
                if (!p.Eat(']')) return p.Error("expected ']'");
                return Status::OK();
              }
              RELSPEC_ASSIGN_OR_RETURN(uint64_t v, p.ParseUint());
              if (field == "count") hs.count = v;
              else if (field == "sum") hs.sum = v;
              else if (field == "min") hs.min = v;
              else if (field == "max") hs.max = v;
              else return p.Error("unknown histogram field " + field);
              return Status::OK();
            }));
        snap.histograms.push_back(std::move(hs));
        return Status::OK();
      });
    }
    if (section == "phases") {
      return p.ParseObject([&](const std::string& name) -> Status {
        PhaseSnapshot ps;
        ps.name = name;
        RELSPEC_RETURN_NOT_OK(
            p.ParseObject([&](const std::string& field) -> Status {
              RELSPEC_ASSIGN_OR_RETURN(uint64_t v, p.ParseUint());
              if (field == "count") ps.count = v;
              else if (field == "total_ns") ps.total_ns = v;
              else return p.Error("unknown phase field " + field);
              return Status::OK();
            }));
        snap.phases.push_back(std::move(ps));
        return Status::OK();
      });
    }
    return p.Error("unknown section " + section);
  });
  RELSPEC_RETURN_NOT_OK(status);
  if (!p.AtEnd()) return Status::InvalidArgument("trailing JSON content");
  return snap;
}

// ---------------------------------------------------------------------------
// PhaseSpan
// ---------------------------------------------------------------------------

namespace internal {

namespace {
// Nesting depth for trace indentation; per thread so concurrent phases from
// different threads don't garble each other's indent.
thread_local int g_phase_depth = 0;
}  // namespace

PhaseSpan::PhaseSpan(const char* name)
    : name_(name),
      metrics_on_(MetricsEnabled()),
      tracing_on_(TracingEnabled()),
      event_trace_on_(EventTraceEnabled()) {
  if (event_trace_on_) Tracer::Global().Begin("phase", name_);
  if (!metrics_on_ && !tracing_on_) return;
  if (tracing_on_) {
    RELSPEC_LOG(kInfo) << "trace: " << std::string(static_cast<size_t>(g_phase_depth) * 2, ' ')
                       << ">> " << name_;
    ++g_phase_depth;
  }
  start_ = std::chrono::steady_clock::now();
}

PhaseSpan::~PhaseSpan() {
  if (event_trace_on_) Tracer::Global().End("phase", name_);
  if (!metrics_on_ && !tracing_on_) return;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  if (metrics_on_) {
    MetricsRegistry::Global().GetPhase(name_)->Record(
        static_cast<uint64_t>(ns));
  }
  if (tracing_on_) {
    --g_phase_depth;
    RELSPEC_LOG(kInfo) << "trace: " << std::string(static_cast<size_t>(g_phase_depth) * 2, ' ')
                       << "<< " << name_ << " ("
                       << StrFormat("%.3f ms", static_cast<double>(ns) / 1e6)
                       << ")";
  }
}

}  // namespace internal
}  // namespace relspec
