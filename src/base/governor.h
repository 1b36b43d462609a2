// ResourceGovernor: one object that decides when a computation must stop.
//
// The paper's least fixpoints are infinite objects; their finite
// specifications can still be astronomically large, and no static check can
// predict which inputs blow up. A governor makes every long-running phase
// interruptible by carrying:
//
//   - a wall-clock deadline (steady clock, armed at construction),
//   - a cooperative cancellation token (async-signal-safe to request),
//   - budget counters: derived tuples, chi-table/trunk nodes, fixpoint
//     rounds, term depth, and tracked allocation bytes.
//
// Engine phases poll it at natural safe points (once per round, per table
// entry, per rule batch). A breach is *sticky*: the first one wins, every
// later poll returns the same Status, and the phases unwind through the
// normal Status plumbing. Budget breaches (not errors) are eligible for
// graceful degradation: with allow_partial the engine keeps the monotone
// state it has already computed — a sound under-approximation of the
// fixpoint — and returns it marked `truncated` together with the breach
// reason and progress metrics.
//
// Thread safety: every method is safe to call concurrently; RequestCancel
// is additionally async-signal-safe (one relaxed atomic store) so a SIGINT
// handler can use it.

#ifndef RELSPEC_BASE_GOVERNOR_H_
#define RELSPEC_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/base/status.h"

namespace relspec {

/// Budgets for one governed computation. Zero means "unlimited" for every
/// field; a default-constructed Limits governs nothing but still supports
/// cancellation.
struct GovernorLimits {
  /// Wall-clock budget in milliseconds, measured from ResourceGovernor
  /// construction. Breach -> kDeadlineExceeded.
  int64_t deadline_ms = 0;
  /// Maximum derived tuples across all DATALOG strata. Breach ->
  /// kResourceExhausted.
  uint64_t max_tuples = 0;
  /// Maximum nodes: fixpoint chi-table entries plus trunk labels, and the
  /// frontier of answer enumeration. Breach -> kResourceExhausted.
  uint64_t max_nodes = 0;
  /// Maximum Kleene-iteration rounds of the core fixpoint. Breach ->
  /// kResourceExhausted.
  uint64_t max_rounds = 0;
  /// Maximum term/path depth accepted by governed traversals. Breach ->
  /// kResourceExhausted.
  uint64_t max_depth = 0;
  /// Maximum tracked allocation bytes (self-reported by phases that charge
  /// their large structures). Breach -> kResourceExhausted.
  uint64_t max_bytes = 0;
};

class ResourceGovernor {
 public:
  /// Arms the deadline clock immediately (if deadline_ms > 0).
  explicit ResourceGovernor(GovernorLimits limits = {});

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  const GovernorLimits& limits() const { return limits_; }

  /// Requests cooperative cancellation. Async-signal-safe; the next poll on
  /// any thread observes it.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Polls cancellation and the deadline; records and returns the first
  /// breach (sticky — once non-OK, every later call returns that Status).
  Status Check();

  /// Check() plus a budget comparison against the current *level* of a
  /// monotone quantity. Levels, not deltas: callers pass "how big is the
  /// structure now", which is race-free to re-report from many threads.
  Status CheckTuples(uint64_t level);
  Status CheckNodes(uint64_t level);
  Status CheckDepth(uint64_t level);

  /// Check() plus one round charged against max_rounds.
  Status ChargeRound();

  /// Check() plus `delta` bytes added to the tracked-allocation account.
  Status ChargeBytes(uint64_t delta);

  /// The first breach, or OK while none has occurred.
  Status status() const;
  bool breached() const { return breached_.load(std::memory_order_acquire); }

  /// Progress observed so far (peaks of the reported levels) — the numbers
  /// attached to truncated results and exported by RecordMetrics.
  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }
  uint64_t peak_tuples() const {
    return peak_tuples_.load(std::memory_order_relaxed);
  }
  uint64_t peak_nodes() const {
    return peak_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Milliseconds elapsed since construction.
  int64_t elapsed_ms() const;

  /// Request-scoped trace context (docs/OPERATIONS.md): the serving layer
  /// stamps the request's 64-bit trace ID on its per-request governor so a
  /// breach instant in the exported timeline carries the ID of the request
  /// that breached, not just the breach code. 0 = no trace context.
  void set_trace_id(uint64_t id) {
    trace_id_.store(id, std::memory_order_relaxed);
  }
  uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// One-line progress summary, e.g. for breach messages and --stats.
  std::string ProgressString() const;

  /// Publishes governor.* metrics: breach counters keyed by code, progress
  /// gauges, and elapsed time. Call once when the governed run finishes
  /// (normally or by breach); no-op while metrics are disabled.
  void RecordMetrics() const;

 private:
  /// Records `s` as the breach if none is recorded yet; returns the stored
  /// first breach either way.
  Status RecordBreach(Status s);

  const GovernorLimits limits_;
  const std::chrono::steady_clock::time_point start_;
  const std::chrono::steady_clock::time_point deadline_;  // time_point::max() if none

  std::atomic<bool> cancel_{false};
  std::atomic<bool> breached_{false};
  mutable std::mutex breach_mu_;
  Status breach_;  // guarded by breach_mu_; set once

  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> peak_tuples_{0};
  std::atomic<uint64_t> peak_nodes_{0};
  std::atomic<uint64_t> peak_depth_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> trace_id_{0};
};

}  // namespace relspec

#endif  // RELSPEC_BASE_GOVERNOR_H_
