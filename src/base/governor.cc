#include "src/base/governor.h"

#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {

namespace {

std::chrono::steady_clock::time_point ComputeDeadline(
    std::chrono::steady_clock::time_point start, int64_t deadline_ms) {
  if (deadline_ms <= 0) return std::chrono::steady_clock::time_point::max();
  return start + std::chrono::milliseconds(deadline_ms);
}

void BumpMax(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

ResourceGovernor::ResourceGovernor(GovernorLimits limits)
    : limits_(limits),
      start_(std::chrono::steady_clock::now()),
      deadline_(ComputeDeadline(start_, limits.deadline_ms)) {}

Status ResourceGovernor::Check() {
  if (breached_.load(std::memory_order_acquire)) return status();
  if (cancel_.load(std::memory_order_relaxed)) {
    return RecordBreach(Status::Cancelled(
        "cancellation requested (" + ProgressString() + ")"));
  }
  if (deadline_ != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline_) {
    return RecordBreach(Status::DeadlineExceeded(
        StrFormat("deadline of %lld ms exceeded (",
                  static_cast<long long>(limits_.deadline_ms)) +
        ProgressString() + ")"));
  }
  return Status::OK();
}

Status ResourceGovernor::CheckTuples(uint64_t level) {
  BumpMax(&peak_tuples_, level);
  RELSPEC_RETURN_NOT_OK(Check());
  if (limits_.max_tuples != 0 && level > limits_.max_tuples) {
    return RecordBreach(Status::ResourceExhausted(
        StrFormat("derived tuples %llu exceeded max_tuples=%llu",
                  static_cast<unsigned long long>(level),
                  static_cast<unsigned long long>(limits_.max_tuples))));
  }
  return Status::OK();
}

Status ResourceGovernor::CheckNodes(uint64_t level) {
  BumpMax(&peak_nodes_, level);
  RELSPEC_RETURN_NOT_OK(Check());
  if (limits_.max_nodes != 0 && level > limits_.max_nodes) {
    return RecordBreach(Status::ResourceExhausted(
        StrFormat("nodes %llu exceeded max_nodes=%llu",
                  static_cast<unsigned long long>(level),
                  static_cast<unsigned long long>(limits_.max_nodes))));
  }
  return Status::OK();
}

Status ResourceGovernor::CheckDepth(uint64_t level) {
  BumpMax(&peak_depth_, level);
  RELSPEC_RETURN_NOT_OK(Check());
  if (limits_.max_depth != 0 && level > limits_.max_depth) {
    return RecordBreach(Status::ResourceExhausted(
        StrFormat("depth %llu exceeded max_depth=%llu",
                  static_cast<unsigned long long>(level),
                  static_cast<unsigned long long>(limits_.max_depth))));
  }
  return Status::OK();
}

Status ResourceGovernor::ChargeRound() {
  uint64_t r = rounds_.fetch_add(1, std::memory_order_relaxed) + 1;
  RELSPEC_RETURN_NOT_OK(Check());
  if (limits_.max_rounds != 0 && r > limits_.max_rounds) {
    return RecordBreach(Status::ResourceExhausted(
        StrFormat("fixpoint round %llu exceeded max_rounds=%llu",
                  static_cast<unsigned long long>(r),
                  static_cast<unsigned long long>(limits_.max_rounds))));
  }
  return Status::OK();
}

Status ResourceGovernor::ChargeBytes(uint64_t delta) {
  uint64_t total = bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  RELSPEC_RETURN_NOT_OK(Check());
  if (limits_.max_bytes != 0 && total > limits_.max_bytes) {
    return RecordBreach(Status::ResourceExhausted(
        StrFormat("tracked allocation %llu bytes exceeded max_bytes=%llu",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(limits_.max_bytes))));
  }
  return Status::OK();
}

Status ResourceGovernor::status() const {
  if (!breached_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(breach_mu_);
  return breach_;
}

Status ResourceGovernor::RecordBreach(Status s) {
  std::lock_guard<std::mutex> lock(breach_mu_);
  if (!breached_.load(std::memory_order_relaxed)) {
    RELSPEC_TRACE_INSTANT1("governor", "breach", "code",
                           static_cast<int>(s.code()));
    const uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
    if (trace_id != 0) {
      RELSPEC_TRACE_INSTANT1("governor", "breach_trace", "trace_id",
                             trace_id);
    }
    breach_ = std::move(s);
    // Release so that readers who observe breached_ == true see breach_.
    breached_.store(true, std::memory_order_release);
  }
  return breach_;
}

int64_t ResourceGovernor::elapsed_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

std::string ResourceGovernor::ProgressString() const {
  return StrFormat(
      "rounds=%llu tuples=%llu nodes=%llu depth=%llu bytes=%llu "
      "elapsed_ms=%lld",
      static_cast<unsigned long long>(rounds()),
      static_cast<unsigned long long>(peak_tuples()),
      static_cast<unsigned long long>(peak_nodes()),
      static_cast<unsigned long long>(peak_depth()),
      static_cast<unsigned long long>(bytes()),
      static_cast<long long>(elapsed_ms()));
}

void ResourceGovernor::RecordMetrics() const {
  RELSPEC_GAUGE_MAX("governor.rounds", rounds());
  RELSPEC_GAUGE_MAX("governor.peak_tuples", peak_tuples());
  RELSPEC_GAUGE_MAX("governor.peak_nodes", peak_nodes());
  RELSPEC_GAUGE_MAX("governor.peak_depth", peak_depth());
  RELSPEC_GAUGE_MAX("governor.bytes", bytes());
  RELSPEC_GAUGE_MAX("governor.elapsed_ms", elapsed_ms());
  Status s = status();
  if (s.ok()) return;
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
      RELSPEC_COUNTER("governor.breach.deadline");
      break;
    case StatusCode::kCancelled:
      RELSPEC_COUNTER("governor.breach.cancelled");
      break;
    case StatusCode::kResourceExhausted:
      RELSPEC_COUNTER("governor.breach.budget");
      break;
    default:
      RELSPEC_COUNTER("governor.breach.other");
      break;
  }
}

}  // namespace relspec
