#include "src/serve/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/parser/parser.h"

namespace relspec {
namespace serve {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, strerror(errno)));
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Marks a trace ID as server-assigned (the client sent request_id 0).
constexpr uint64_t kServerTraceIdBit = 1ULL << 63;

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

/// One accepted connection. The poll loop owns the struct; the atomics are
/// the only fields a request task touches after dispatch.
struct Server::Conn {
  int fd = -1;
  std::string inbuf;
  /// True while a request task for this connection is in flight; the loop
  /// neither polls nor reads the fd until the task clears it.
  std::atomic<bool> busy{false};
  /// Set by a task that answered a malformed frame: close once idle.
  std::atomic<bool> close_after_reply{false};
  /// Peer closed or write failed — reap once idle.
  bool dead = false;
  /// Drain bookkeeping: this connection already got its final read pass.
  bool drained = false;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

Server::Server(std::unique_ptr<FunctionalDatabase> db,
               std::shared_ptr<const GraphSpecification> spec,
               const ServerOptions& options)
    : options_(options),
      db_(std::move(db)),
      spec_(std::move(spec)),
      cache_(options.cache),
      pool_(std::make_unique<TaskPool>(std::max(1, options.threads))),
      slowlog_(options.slowlog) {}

StatusOr<std::unique_ptr<Server>> Server::Create(
    std::unique_ptr<FunctionalDatabase> db, const ServerOptions& options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  uint64_t fp = db->Fingerprint();  // materialize before concurrent readers
  auto spec = db->spec();
  std::unique_ptr<Server> server(
      new Server(std::move(db), std::move(spec), options));
  server->fingerprint_ = fp;
  RELSPEC_RETURN_NOT_OK(server->Listen());
  return server;
}

StatusOr<std::unique_ptr<Server>> Server::CreateSpecOnly(
    GraphSpecification spec, const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(
      nullptr, std::make_shared<const GraphSpecification>(std::move(spec)),
      options));
  RELSPEC_RETURN_NOT_OK(server->Listen());
  return server;
}

Server::~Server() {
  // Drain before the pool dies: Submit tasks still queued would be dropped.
  while (in_flight_.load() > 0) usleep(1000);
  pool_.reset();
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_r_ >= 0) close(wake_r_);
  int w = wake_w_.exchange(-1);
  if (w >= 0) close(w);
  if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
}

Status Server::Listen() {
  if (options_.unix_path.empty() == (options_.tcp_port < 0)) {
    return Status::InvalidArgument(
        "exactly one of unix_path / tcp_port must be set");
  }
  int pipefd[2];
  if (pipe(pipefd) != 0) return Errno("pipe");
  wake_r_ = pipefd[0];
  wake_w_.store(pipefd[1]);
  RELSPEC_RETURN_NOT_OK(SetNonBlocking(wake_r_));

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument(
          StrFormat("unix socket path too long (%zu bytes, max %zu)",
                    options_.unix_path.size(), sizeof(addr.sun_path) - 1));
    }
    memcpy(addr.sun_path, options_.unix_path.c_str(),
           options_.unix_path.size() + 1);
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket(AF_UNIX)");
    unlink(options_.unix_path.c_str());  // stale path from a crashed run
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Errno("bind(unix)");
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket(AF_INET)");
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Errno("bind(tcp)");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Errno("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  }
  if (listen(listen_fd_, 64) != 0) return Errno("listen");
  RELSPEC_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  return Status::OK();
}

void Server::RequestShutdown() {
  shutdown_.store(true, std::memory_order_release);
  Wake();
}

void Server::Wake() {
  int w = wake_w_.load(std::memory_order_acquire);
  if (w >= 0) {
    char b = 'w';
    // Best-effort: a full pipe already guarantees a pending wake-up.
    [[maybe_unused]] ssize_t n = write(w, &b, 1);
  }
}

void Server::AcceptAll() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: back to poll
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    RELSPEC_COUNTER("serve.accepts");
  }
}

bool Server::ReadAvailable(Conn* conn) {
  char buf[4096];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      // A peer streaming an over-long frame gets cut off here; the frame
      // prefix check below rejects it as soon as 16 bytes are in anyway.
      if (conn->inbuf.size() > kRequestHeaderSize + kMaxPayload) return false;
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

void Server::MaybeDispatch(Conn* conn) {
  if (conn->busy.load(std::memory_order_acquire) || conn->dead ||
      conn->close_after_reply.load(std::memory_order_acquire)) {
    return;
  }
  StatusOr<size_t> size = RequestFrameSize(conn->inbuf);
  if (!size.ok()) {
    // Malformed prefix: answer with a structured error, then hang up — the
    // stream offset is unrecoverable once framing is broken.
    ResponseHeader resp;
    resp.status = static_cast<uint32_t>(size.status().code());
    WriteAll(conn->fd, EncodeResponse(resp, size.status().message()));
    RELSPEC_COUNTER("serve.malformed");
    conn->dead = true;
    return;
  }
  if (*size == 0 || conn->inbuf.size() < *size) return;  // incomplete
  std::string frame = conn->inbuf.substr(0, *size);
  conn->inbuf.erase(0, *size);
  conn->busy.store(true, std::memory_order_release);
  in_flight_.fetch_add(1);
  pool_->Submit([this, conn, frame = std::move(frame)]() mutable {
    ExecuteFrame(conn, std::move(frame));
  });
}

void Server::ExecuteFrame(Conn* conn, std::string frame) {
  const auto start = std::chrono::steady_clock::now();
  RequestHeader req;
  std::string_view payload;
  Status decoded = DecodeRequest(frame, &req, &payload);
  // Trace-context assignment: the client's request_id IS the trace ID when
  // nonzero; otherwise the server mints one (high bit marks it assigned).
  // Echoed in the reply header either way, stamped on the request span and
  // the per-request governor, and carried by the slow-log entry — one ID
  // correlates the wire, the timeline, and the audit log.
  const uint64_t trace_id =
      req.request_id != 0
          ? req.request_id
          : (kServerTraceIdBit |
             next_trace_id_.fetch_add(1, std::memory_order_relaxed));
  RELSPEC_TRACE_SPAN1("serve", "request", "trace_id", trace_id);
  SlowlogEntry entry;
  entry.trace_id = trace_id;
  entry.type = static_cast<uint32_t>(req.type);
  Status status = Status::OK();
  std::string out;
  if (!decoded.ok()) {
    status = decoded;
    ResponseHeader resp;
    resp.status = static_cast<uint32_t>(decoded.code());
    // Echo whatever id the decoder salvaged (0 when the prefix itself was
    // broken) — a minted trace ID is a service for well-formed requests,
    // not a promise a hostile frame can rely on. The slow-log entry still
    // carries the minted id so the rejection is auditable.
    resp.request_id = req.request_id;
    out = EncodeResponse(resp, decoded.message());
    conn->close_after_reply.store(true, std::memory_order_release);
    RELSPEC_COUNTER("serve.malformed");
  } else {
    entry.query_hash = SlowlogHash(payload);
    std::string body = Handle(req, payload, trace_id, &status, &entry);
    ResponseHeader resp;
    resp.status = static_cast<uint32_t>(status.code());
    resp.request_id = trace_id;
    out = EncodeResponse(resp, status.ok() ? std::string_view(body)
                                           : std::string_view(status.message()));
    if (!status.ok()) {
      RELSPEC_COUNTER("serve.errors");
      if (status.IsResourceBreach()) RELSPEC_COUNTER("serve.breaches");
    }
  }
  const auto write_start = std::chrono::steady_clock::now();
  if (!WriteAll(conn->fd, out)) conn->close_after_reply.store(true);
  entry.write_ns = ElapsedNs(write_start);
  entry.total_ns = ElapsedNs(start);
  entry.status = static_cast<uint32_t>(status.code());
  rates_.Tick(UptimeSec(), !status.ok());
  RELSPEC_HISTOGRAM("serve.request_ns", entry.total_ns);
  slowlog_.MaybeRecord(entry);
  served_.fetch_add(1);
  conn->busy.store(false, std::memory_order_release);
  in_flight_.fetch_sub(1);
  Wake();  // the loop re-arms the connection (or reaps it)
}

std::string Server::Handle(const RequestHeader& req, std::string_view payload,
                           uint64_t trace_id, Status* out,
                           SlowlogEntry* entry) {
  // Per-request admission control: the request header's budgets, falling
  // back to the server-wide defaults. A breach becomes an error reply
  // carrying the governor's sticky status — never a process exit.
  GovernorLimits limits = options_.default_limits;
  if (req.deadline_ms > 0) limits.deadline_ms = static_cast<int64_t>(req.deadline_ms);
  if (req.max_tuples > 0) limits.max_tuples = req.max_tuples;
  std::optional<ResourceGovernor> governor;
  if (limits.deadline_ms > 0 || limits.max_tuples > 0) {
    governor.emplace(limits);
    governor->set_trace_id(trace_id);
  }
  std::string body =
      HandleRequest(req, payload, governor ? &*governor : nullptr, out, entry);
  if (governor) {
    // Governor headroom at completion: what was left of the budgets when
    // the request finished (negative = how far past them it ran).
    if (limits.deadline_ms > 0) {
      entry->headroom_ms = limits.deadline_ms - governor->elapsed_ms();
    }
    if (limits.max_tuples > 0) {
      entry->headroom_tuples =
          static_cast<int64_t>(limits.max_tuples) -
          static_cast<int64_t>(governor->peak_tuples());
    }
  }
  return body;
}

std::string Server::HandleRequest(const RequestHeader& req,
                                  std::string_view payload,
                                  ResourceGovernor* governor, Status* out,
                                  SlowlogEntry* entry) {
  *out = Status::OK();
  switch (req.type) {
    case RequestType::kPing: {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      std::string body;
      body.resize(8);
      uint64_t fp = fingerprint_;
      for (int i = 0; i < 8; ++i) {
        body[static_cast<size_t>(i)] = static_cast<char>((fp >> (8 * i)) & 0xff);
      }
      return body;
    }
    case RequestType::kMembership: {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      // Parsed read-only against the spec's own table: no copy, no writes.
      const auto parse_start = std::chrono::steady_clock::now();
      auto q = ParseQuery("? " + std::string(payload) + ".", spec_->symbols());
      if (!q.ok()) {
        *out = q.status();
        return "";
      }
      entry->parse_ns = ElapsedNs(parse_start);
      const auto eval_start = std::chrono::steady_clock::now();
      StatusOr<bool> holds = spec_->HoldsFact(*q);
      if (!holds.ok()) {
        *out = holds.status();
        return "";
      }
      entry->eval_ns = ElapsedNs(eval_start);
      return std::string(1, *holds ? '\1' : '\0');
    }
    case RequestType::kQuery: {
      // Shared: the query parses read-only against the spec's table and
      // answering reads the spec, so queries run alongside each other and
      // alongside membership; only updates take the lock exclusively.
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      const auto parse_start = std::chrono::steady_clock::now();
      auto query = ParseQuery(std::string(payload), spec_->symbols());
      if (!query.ok()) {
        *out = query.status();
        return "";
      }
      entry->parse_ns = ElapsedNs(parse_start);
      const auto answer_start = std::chrono::steady_clock::now();
      bool cache_hit = false;
      auto answer = AnswerQueryCached(spec_, fingerprint_, *query, &cache_,
                                      governor, &cache_hit);
      // The answer time is the cache phase on a hit (a map lookup) and the
      // eval phase on a miss (the full answer pipeline).
      const uint64_t answer_ns = ElapsedNs(answer_start);
      entry->cache_hit = cache_hit ? 1 : 0;
      (cache_hit ? entry->cache_ns : entry->eval_ns) = answer_ns;
      if (!answer.ok()) {
        *out = answer.status();
        return "";
      }
      const auto render_start = std::chrono::steady_clock::now();
      QueryResult result;
      result.spec_tuples = (*answer)->NumSpecTuples();
      result.functional = (*answer)->has_functional_answer();
      result.text = RenderAnswerText(
          **answer, options_.reply_timing
                        ? static_cast<int64_t>(ElapsedNs(parse_start))
                        : -1);
      std::string body = EncodeQueryResult(result);
      entry->render_ns = ElapsedNs(render_start);
      return body;
    }
    case RequestType::kUpdate: {
      if (db_ == nullptr) {
        *out = Status::FailedPrecondition(
            "spec-only server (no rules): updates need a program, not just a "
            "snapshot");
        return "";
      }
      std::unique_lock<std::shared_mutex> lock(state_mu_);
      // Updates run ungoverned, so a read-sized request budget never refuses
      // a write; a failed batch leaves the engine unchanged either way
      // (docs/INCREMENTAL.md). Through the WAL when durable, so an OK ack
      // means applied *and* logged.
      const auto eval_start = std::chrono::steady_clock::now();
      StatusOr<DeltaStats> stats =
          db_->durable() ? db_->LogAndApplyDeltas(payload)
                         : db_->ApplyDeltaText(payload);
      // Re-read for shared readers, also when a durable batch was applied
      // but its log write failed.
      fingerprint_ = db_->Fingerprint();
      spec_ = db_->spec();
      if (!stats.ok()) {
        *out = stats.status();
        return "";
      }
      entry->eval_ns = ElapsedNs(eval_start);
      UpdateResult result;
      result.fingerprint = fingerprint_;
      result.inserted = stats->inserted;
      result.deleted = stats->deleted;
      result.noops = stats->noops;
      result.deleted_bits = stats->deleted_bits;
      result.rebuilt = stats->rebuilt;
      result.durable = db_->durable();
      return EncodeUpdateResult(result);
    }
    case RequestType::kStats: {
      RefreshLiveGauges();
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      const auto eval_start = std::chrono::steady_clock::now();
      MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      std::string body;
      if (payload == "prometheus") {
        body = snap.ToPrometheusText();
      } else if (payload.empty()) {
        body = snap.ToJson();
      } else {
        *out = Status::InvalidArgument(
            "unknown stats format (want an empty payload for JSON or "
            "\"prometheus\")");
        return "";
      }
      entry->eval_ns = ElapsedNs(eval_start);
      return body;
    }
    case RequestType::kTraceDump: {
      if (!EventTraceEnabled()) {
        *out = Status::FailedPrecondition(
            "event tracing is off: start relspecd with --trace-out FILE");
        return "";
      }
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      const auto eval_start = std::chrono::steady_clock::now();
      std::string body = Tracer::Global().ExportChromeJson();
      entry->eval_ns = ElapsedNs(eval_start);
      return body;
    }
    case RequestType::kSlowlogDump: {
      if (!slowlog_.enabled()) {
        *out = Status::FailedPrecondition(
            "slow log is off: start relspecd with --slowlog-ms N");
        return "";
      }
      // The ring is lock-free; no engine lock needed. The dump cannot
      // contain its own request — this entry is recorded after the reply.
      const auto eval_start = std::chrono::steady_clock::now();
      std::string body = slowlog_.DumpJsonl();
      entry->eval_ns = ElapsedNs(eval_start);
      return body;
    }
    case RequestType::kHealth: {
      RefreshLiveGauges();
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      HealthResult health;
      health.live = true;
      health.ready = true;  // the listener answered and the engine is built
      health.fingerprint = fingerprint_;
      health.uptime_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start_time_)
              .count());
      health.wal_seq =
          (db_ != nullptr && db_->wal() != nullptr) ? db_->wal()->next_seq()
                                                    : 0;
      health.served = served_.load(std::memory_order_relaxed);
      return EncodeHealthResult(health);
    }
  }
  *out = Status::InvalidArgument("unknown request type");
  return "";
}

uint64_t Server::UptimeSec() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void Server::RateWindow::Tick(uint64_t now_sec, bool error) {
  const size_t slot = now_sec % kSlots;
  const uint64_t want = now_sec + 1;  // 0 marks a never-used slot
  uint64_t have = stamp[slot].load(std::memory_order_relaxed);
  if (have != want &&
      stamp[slot].compare_exchange_strong(have, want,
                                          std::memory_order_relaxed)) {
    requests[slot].store(0, std::memory_order_relaxed);
    errors[slot].store(0, std::memory_order_relaxed);
  }
  requests[slot].fetch_add(1, std::memory_order_relaxed);
  if (error) errors[slot].fetch_add(1, std::memory_order_relaxed);
}

void Server::RateWindow::Sum60(uint64_t now_sec, uint64_t* reqs,
                               uint64_t* errs) const {
  *reqs = 0;
  *errs = 0;
  for (int i = 0; i < kSlots; ++i) {
    const uint64_t have = stamp[i].load(std::memory_order_relaxed);
    if (have == 0) continue;
    const uint64_t sec = have - 1;
    if (sec > now_sec || now_sec - sec >= 60) continue;
    *reqs += requests[i].load(std::memory_order_relaxed);
    *errs += errors[i].load(std::memory_order_relaxed);
  }
}

void Server::RefreshLiveGauges() {
  RELSPEC_GAUGE_SET("cache.entries", static_cast<int64_t>(cache_.size()));
  RELSPEC_GAUGE_SET("cache.bytes", static_cast<int64_t>(cache_.bytes()));
  RELSPEC_GAUGE_SET("trace.dropped",
                    static_cast<int64_t>(Tracer::Global().dropped()));
  RELSPEC_GAUGE_SET(
      "serve.uptime_ms",
      static_cast<int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start_time_)
              .count()));
  const uint64_t now_sec = UptimeSec();
  uint64_t reqs = 0, errs = 0;
  rates_.Sum60(now_sec, &reqs, &errs);
  // The effective window is shorter than a minute while the daemon warms
  // up; divide by the real window so early readings aren't diluted.
  const uint64_t window = std::max<uint64_t>(1, std::min<uint64_t>(60, now_sec + 1));
  RELSPEC_GAUGE_SET("serve.qps_1m", static_cast<int64_t>(reqs / window));
  // Errors per 10,000 requests over the window (basis points): an integer
  // gauge that still resolves sub-percent error rates.
  RELSPEC_GAUGE_SET(
      "serve.error_rate_1m",
      reqs == 0 ? 0 : static_cast<int64_t>(errs * 10000 / reqs));
}

bool Server::WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-reply yields EPIPE here, not a
    // process-killing SIGPIPE (the daemon must outlive any one client).
    ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Nonblocking fd with a full socket buffer: wait for drainage. A
      // worker parking here is acceptable — slow clients get backpressure.
      pollfd p{fd, POLLOUT, 0};
      poll(&p, 1, 1000);
      continue;
    }
    return false;
  }
  return true;
}

Status Server::Serve() {
  RELSPEC_TRACE_SPAN("serve", "loop");
  bool listener_open = true;
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  while (true) {
    bool draining = shutdown_.load(std::memory_order_acquire);
    if (draining && listener_open) {
      // Stop accepting; existing connections get one final harvest pass
      // below (frames already in their socket buffers are still served).
      close(listen_fd_);
      listen_fd_ = -1;
      listener_open = false;
    }

    // Reap and dispatch.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = it->get();
      if (!conn->busy.load(std::memory_order_acquire) &&
          (conn->dead || conn->close_after_reply.load())) {
        it = conns_.erase(it);
        continue;
      }
      if (draining && !conn->drained &&
          !conn->busy.load(std::memory_order_acquire)) {
        conn->drained = true;
        if (!ReadAvailable(conn)) conn->dead = true;
      }
      MaybeDispatch(conn);
      if (draining && !conn->busy.load(std::memory_order_acquire) &&
          !conn->dead && conn->drained) {
        // Drained, idle, and nothing dispatchable left: we're done with it.
        StatusOr<size_t> size = RequestFrameSize(conn->inbuf);
        if (!size.ok() || *size == 0 || conn->inbuf.size() < *size) {
          conn->dead = true;
        }
      }
      ++it;
    }
    // Re-run the reap after drain marking (avoids one extra poll round).
    if (draining) {
      conns_.erase(
          std::remove_if(conns_.begin(), conns_.end(),
                         [](const std::unique_ptr<Conn>& c) {
                           return !c->busy.load() &&
                                  (c->dead || c->close_after_reply.load());
                         }),
          conns_.end());
      if (conns_.empty() && in_flight_.load() == 0) break;
    }

    fds.clear();
    polled.clear();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    if (listener_open) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (auto& conn : conns_) {
      if (!conn->busy.load(std::memory_order_acquire) && !conn->dead) {
        fds.push_back(pollfd{conn->fd, POLLIN, 0});
        polled.push_back(conn.get());
      }
    }
    int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (rc < 0 && errno != EINTR) return Errno("poll");

    // Drain the wake pipe.
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_r_, buf, sizeof(buf)) > 0) {
      }
    }
    size_t base = 1;
    if (listener_open) {
      if (fds[1].revents & POLLIN) AcceptAll();
      base = 2;
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      short revents = fds[base + i].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!ReadAvailable(polled[i])) {
          // EOF: serve whatever complete frames are already buffered, then
          // let the reap pass close it.
          polled[i]->dead = polled[i]->inbuf.empty() ||
                            polled[i]->busy.load(std::memory_order_acquire);
          if (!polled[i]->dead) {
            MaybeDispatch(polled[i]);
            if (!polled[i]->busy.load(std::memory_order_acquire)) {
              polled[i]->dead = true;
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace relspec
