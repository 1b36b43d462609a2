// The relspecd serving core: a socket front-end over one FunctionalDatabase
// (docs/DAEMON.md).
//
// Design: a thin layer over the existing engine API, not a fork of it. One
// poll() loop (the thread that calls Serve()) owns the listener and every
// connection; complete RSRV frames are handed to the TaskPool as
// task-per-request work (the mxtasking-style scheduler/worker split). At
// most one request per connection is in flight at a time — the loop stops
// polling a connection while its task runs — so responses never reorder
// within a connection, while distinct connections proceed concurrently.
//
// Concurrency model over the engine:
//   * membership / query / ping / stats / trace-dump run under a shared
//     lock. Every read goes to one shared GraphSpecification — the engine's
//     own spec, or the one loaded from a snapshot in spec-only mode — and
//     no read writes it: membership and queries parse read-only against
//     its symbol table (ParseQuery keeps unknown names inside the Query).
//     The fingerprint is pre-materialized whenever the exclusive lock is
//     held, so shared readers never race its lazy computation.
//   * update runs under the exclusive lock: it rewrites the engine, then
//     re-reads the engine's spec pointer. Answers and cache entries taken
//     earlier keep the spec they were computed from.
// The shared QueryCache has its own internal mutex, so concurrent queries
// share its entries safely.
//
// Shutdown (SIGTERM/SIGINT -> RequestShutdown, async-signal-safe) drains:
// the listener closes, one final read pass harvests request frames already
// delivered to each idle connection's socket buffer, every in-flight
// request runs to completion and its response is written, then Serve()
// returns so the caller can flush stats/trace exactly like the CLI.

#ifndef RELSPEC_SERVE_SERVER_H_
#define RELSPEC_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/governor.h"
#include "src/base/status.h"
#include "src/base/task_pool.h"
#include "src/core/engine.h"
#include "src/core/graph_spec.h"
#include "src/core/query.h"
#include "src/serve/protocol.h"
#include "src/serve/slowlog.h"

namespace relspec {
namespace serve {

struct ServerOptions {
  /// Unix-domain socket path. A stale file at the path is unlinked first.
  std::string unix_path;
  /// TCP listener on 127.0.0.1 when >= 0 (0 picks an ephemeral port —
  /// read it back with tcp_port()). Exactly one of unix_path / tcp_port
  /// must be set.
  int tcp_port = -1;
  /// TaskPool lanes for request execution. 1 runs requests inline on the
  /// poll loop (fork-friendly: no threads at all).
  int threads = 2;
  /// Shared query cache configuration.
  QueryCache::Options cache;
  /// Server-side default budgets for requests that carry none in their
  /// header (0 fields). A request's own nonzero header fields win.
  GovernorLimits default_limits;
  /// Slow-query audit log policy (threshold_ms < 0 disables it; then
  /// kSlowlogDump answers kFailedPrecondition). See docs/OPERATIONS.md.
  SlowLog::Options slowlog;
  /// Append "  -- elapsed N ns" to every kQuery reply text (the daemon's
  /// --reply-timing flag). Off by default so reply bytes stay canonical.
  bool reply_timing = false;
};

class Server {
 public:
  /// Full-engine serving: every request type. Takes ownership of the
  /// database (which may be durable — updates then go through
  /// LogAndApplyDeltas and acks imply durability).
  static StatusOr<std::unique_ptr<Server>> Create(
      std::unique_ptr<FunctionalDatabase> db, const ServerOptions& options);

  /// Spec-only serving (--load-snapshot warm start without a program): every
  /// read — membership and queries included — answers from `spec` exactly
  /// as a full server answers from its engine's spec. Update requests get a
  /// kFailedPrecondition reply (a saved spec has no rules).
  static StatusOr<std::unique_ptr<Server>> CreateSpecOnly(
      GraphSpecification spec, const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the accept/poll/dispatch loop until RequestShutdown. Returns OK
  /// after a clean drain; call at most once.
  Status Serve();

  /// Initiates drain-then-exit. Async-signal-safe (atomic store + one
  /// write() to the self-pipe) — call it straight from a SIGTERM handler.
  void RequestShutdown();

  /// The bound TCP port (meaningful after Create with tcp_port >= 0).
  int tcp_port() const { return bound_port_; }
  const std::string& unix_path() const { return options_.unix_path; }
  uint64_t requests_served() const { return served_.load(); }
  /// The served database (null in spec-only mode). The caller may inspect
  /// it after Serve() returns; touching it while serving races.
  FunctionalDatabase* db() { return db_.get(); }
  /// The slow-query audit ring (always present; enabled() reflects the
  /// configured policy). Safe to dump after Serve() returns — the drain
  /// flush in relspecd reads it exactly like a kSlowlogDump request.
  const SlowLog& slowlog() const { return slowlog_; }

 private:
  struct Conn;

  /// Sliding 60-second window of request/error counts, one bucket per
  /// second, backing the serve.qps_1m / serve.error_rate_1m gauges.
  /// Lock-free and approximate: a bucket reset racing an increment can
  /// miscount one request, which is noise for a rate gauge.
  struct RateWindow {
    static constexpr int kSlots = 64;
    std::array<std::atomic<uint64_t>, kSlots> stamp{};  // second + 1; 0 = empty
    std::array<std::atomic<uint64_t>, kSlots> requests{};
    std::array<std::atomic<uint64_t>, kSlots> errors{};
    void Tick(uint64_t now_sec, bool error);
    void Sum60(uint64_t now_sec, uint64_t* reqs, uint64_t* errs) const;
  };

  Server(std::unique_ptr<FunctionalDatabase> db,
         std::shared_ptr<const GraphSpecification> spec,
         const ServerOptions& options);

  Status Listen();
  void Wake();
  void AcceptAll();
  /// Reads everything available; returns false when the peer is gone.
  bool ReadAvailable(Conn* conn);
  /// Dispatches the complete frame at the head of conn->inbuf, if any.
  void MaybeDispatch(Conn* conn);
  void ExecuteFrame(Conn* conn, std::string frame);
  /// Governor setup + dispatch + headroom capture for one decoded request;
  /// returns the response payload and sets *out. Phase timings and cache
  /// attribution land in *entry (always non-null).
  std::string Handle(const RequestHeader& req, std::string_view payload,
                     uint64_t trace_id, Status* out, SlowlogEntry* entry);
  std::string HandleRequest(const RequestHeader& req, std::string_view payload,
                            ResourceGovernor* governor, Status* out,
                            SlowlogEntry* entry);
  /// Re-publishes the live gauges (cache.entries/bytes, trace.dropped,
  /// serve.qps_1m, serve.error_rate_1m, serve.uptime_ms) so a stats or
  /// health reply never reports stale values.
  void RefreshLiveGauges();
  uint64_t UptimeSec() const;
  static bool WriteAll(int fd, std::string_view bytes);

  ServerOptions options_;
  std::unique_ptr<FunctionalDatabase> db_;  // null in spec-only mode
  /// What every read answers from: db_->spec(), re-read after each update,
  /// or the loaded spec in spec-only mode.
  std::shared_ptr<const GraphSpecification> spec_;
  QueryCache cache_;
  std::unique_ptr<TaskPool> pool_;

  /// Engine lock: shared = membership/query/ping/stats/trace, exclusive =
  /// update (see the header comment).
  std::shared_mutex state_mu_;
  /// Materialized under the exclusive lock; 0 in spec-only mode, where the
  /// state never changes.
  uint64_t fingerprint_ = 0;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  int wake_r_ = -1;
  std::atomic<int> wake_w_{-1};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> served_{0};
  std::atomic<int> in_flight_{0};
  std::vector<std::unique_ptr<Conn>> conns_;

  SlowLog slowlog_;
  RateWindow rates_;
  /// Fallback trace-ID source for requests that arrive with request_id 0:
  /// the high bit marks the ID as server-assigned, the counter keeps it
  /// unique (and nonzero) within the process.
  std::atomic<uint64_t> next_trace_id_{1};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace serve
}  // namespace relspec

#endif  // RELSPEC_SERVE_SERVER_H_
