// relspecd: the long-lived query-serving daemon (docs/DAEMON.md).
//
//   relspecd [PROGRAM.rsp] [flags]
//
//   Exactly one source of truth must be given: a PROGRAM.rsp positional,
//   --rotation K (the builtin k-team rotation program — the serving
//   benchmark family), or --load-snapshot FILE (spec-only warm start: every
//   read, queries included, answers from the loaded spec; updates are
//   refused, since a saved spec has no rules). The engine is built ONCE;
//   clients then speak the RSRV length-prefixed binary protocol over a
//   Unix-domain or TCP socket.
//
//     --socket PATH             listen on a Unix-domain socket at PATH
//     --tcp-port N              listen on 127.0.0.1:N instead (0 picks an
//                               ephemeral port, printed on the ready line)
//     --threads N               TaskPool lanes for request execution
//                               (default 2; 1 = run requests inline)
//     --rotation K              serve the builtin k-team rotation program
//     --load-snapshot FILE      spec-only warm start from a binary snapshot
//     --wal FILE                durable serving: open the engine through a
//                               write-ahead log (docs/DURABILITY.md);
//                               update acks then mean applied AND logged.
//                               Needs a program (positional or --rotation)
//     --fsync always|batch|off  WAL durability policy (default always)
//     --checkpoint-every N      checkpoint + rotate after N logged batches
//     --cache-entries N         shared query-cache entry ceiling (default 64)
//     --cache-bytes N           shared query-cache byte ceiling (default 16M)
//     --deadline-ms N           default per-request deadline for requests
//                               that carry none in their header
//     --max-tuples N            default per-request tuple budget, likewise
//     --slowlog-ms N            slow-query audit log: record every request
//                               whose total latency is >= N ms (0 records
//                               all); arms the `slowlog-dump` request type.
//                               Off by default (docs/OPERATIONS.md)
//     --slowlog-sample N        also record 1-in-N of the requests under
//                               the --slowlog-ms threshold (0 = none)
//     --slowlog-out FILE        flush the slow log as JSONL on drain
//     --reply-timing            append "  -- elapsed N ns" to every query
//                               reply text (off: reply bytes stay canonical)
//     --stats[=FILE]            dump a JSON metrics snapshot on exit
//                               (stdout when no FILE); also enables the
//                               live `stats` request type's metrics
//     --trace-out FILE          record a Chrome trace timeline, written on
//                               exit; also arms the live `trace-dump`
//                               request type
//     --ping ADDR               client mode: connect to a running daemon at
//                               ADDR (unix path or host:port), ping it,
//                               print "pong fp=0x..." and exit 0 (1 on
//                               failure). No server is started.
//     --help                    this summary
//
//   On SIGTERM/SIGINT the daemon drains: the listener closes, in-flight
//   requests complete and their responses are written, then stats and
//   trace are flushed exactly like the CLI and the process exits 0. A
//   per-request resource breach is always an error *reply* (the exit-7
//   taxonomy mapped to RSRV status codes) — the daemon never exits 7.
//
//   Exit codes: 0 clean shutdown, 2 usage error, 3 I/O error, 4 parse
//   error, 5 engine error.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "src/ast/printer.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace relspec {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitParse = 4;
constexpr int kExitEngine = 5;

serve::Server* g_server = nullptr;

void HandleShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

int UsageError(const std::string& message) {
  fprintf(stderr, "relspecd: %s\n", message.c_str());
  return kExitUsage;
}

int Fail(int code, const Status& status) {
  fprintf(stderr, "relspecd: %s\n", status.ToString().c_str());
  return code;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void PrintHelp(const char* argv0) {
  printf(
      "usage: %s [PROGRAM.rsp] [flags]\n"
      "\n"
      "Serve a relational specification over the RSRV binary protocol\n"
      "(docs/DAEMON.md). Exactly one program source: PROGRAM.rsp,\n"
      "--rotation K, or --load-snapshot FILE (spec-only).\n"
      "\n"
      "  --socket PATH             Unix-domain socket to listen on\n"
      "  --tcp-port N              listen on 127.0.0.1:N (0 = ephemeral)\n"
      "  --threads N               request-execution lanes (default 2)\n"
      "  --rotation K              builtin k-team rotation program\n"
      "  --load-snapshot FILE      spec-only warm start (reads only)\n"
      "  --wal FILE                durable serving through a write-ahead log\n"
      "  --fsync always|batch|off  WAL durability policy (default always)\n"
      "  --checkpoint-every N      checkpoint + rotate after N batches\n"
      "  --cache-entries N         query-cache entry ceiling (default 64)\n"
      "  --cache-bytes N           query-cache byte ceiling (default 16M)\n"
      "  --deadline-ms N           default per-request deadline\n"
      "  --max-tuples N            default per-request tuple budget\n"
      "  --slowlog-ms N            record requests slower than N ms (0 = all)\n"
      "  --slowlog-sample N        sample 1-in-N of the faster requests\n"
      "  --slowlog-out FILE        flush the slow log as JSONL on drain\n"
      "  --reply-timing            append elapsed-ns to query reply text\n"
      "  --stats[=FILE]            JSON metrics snapshot on exit\n"
      "  --trace-out FILE          Chrome trace timeline, written on exit\n"
      "  --ping ADDR               client mode: ping a running daemon\n"
      "  --help                    this summary\n",
      argv0);
}

int RunDaemon(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      PrintHelp(argv[0]);
      return kExitOk;
    }
  }
  std::string program_path;
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    program_path = argv[1];
    first_flag = 2;
  }
  std::string load_snapshot, wal_path, ping_addr;
  std::string stats_file, trace_file, slowlog_file;
  bool want_stats = false;
  bool fsync_given = false, checkpoint_given = false;
  int rotation = 0;
  DurableOptions durable;
  serve::ServerOptions options;
  for (int i = first_flag; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--socket") {
      options.unix_path = next();
    } else if (flag == "--tcp-port") {
      options.tcp_port = atoi(next());
    } else if (flag == "--threads") {
      options.threads = atoi(next());
    } else if (flag == "--rotation") {
      rotation = atoi(next());
    } else if (flag == "--load-snapshot") {
      load_snapshot = next();
    } else if (flag == "--wal") {
      wal_path = next();
    } else if (flag == "--fsync") {
      std::string value = next();
      auto mode = ParseFsyncMode(value);
      if (!mode.ok()) {
        return UsageError("--fsync expects always|batch|off, got \"" + value +
                          "\"");
      }
      durable.wal.fsync = *mode;
      fsync_given = true;
    } else if (flag == "--checkpoint-every") {
      durable.checkpoint_every = static_cast<uint64_t>(atoll(next()));
      checkpoint_given = true;
    } else if (flag == "--cache-entries") {
      options.cache.max_entries = static_cast<size_t>(atoll(next()));
    } else if (flag == "--cache-bytes") {
      options.cache.max_bytes = static_cast<size_t>(atoll(next()));
    } else if (flag == "--deadline-ms") {
      options.default_limits.deadline_ms = atoll(next());
    } else if (flag == "--max-tuples") {
      options.default_limits.max_tuples =
          static_cast<uint64_t>(atoll(next()));
    } else if (flag == "--slowlog-ms") {
      options.slowlog.threshold_ms = atoll(next());
    } else if (flag == "--slowlog-sample") {
      options.slowlog.sample_every = static_cast<uint64_t>(atoll(next()));
    } else if (flag == "--slowlog-out") {
      slowlog_file = next();
    } else if (flag == "--reply-timing") {
      options.reply_timing = true;
    } else if (flag == "--stats") {
      want_stats = true;
    } else if (flag.rfind("--stats=", 0) == 0) {
      want_stats = true;
      stats_file = flag.substr(strlen("--stats="));
    } else if (flag == "--trace-out") {
      trace_file = next();
    } else if (flag == "--ping") {
      ping_addr = next();
    } else {
      return UsageError("unknown flag " + flag + " (see --help)");
    }
  }

  // Client mode: ping a running daemon and report its fingerprint.
  if (!ping_addr.empty()) {
    auto client = serve::ServeClient::Connect(ping_addr);
    if (!client.ok()) {
      fprintf(stderr, "relspecd: %s\n", client.status().ToString().c_str());
      return 1;
    }
    auto fp = (*client)->Ping();
    if (!fp.ok()) {
      fprintf(stderr, "relspecd: %s\n", fp.status().ToString().c_str());
      return 1;
    }
    printf("pong fp=0x%016llx\n", static_cast<unsigned long long>(*fp));
    return kExitOk;
  }

  int sources = (program_path.empty() ? 0 : 1) + (rotation > 0 ? 1 : 0) +
                (load_snapshot.empty() ? 0 : 1);
  if (sources != 1) {
    return UsageError(
        "give exactly one of PROGRAM.rsp, --rotation K, or "
        "--load-snapshot FILE");
  }
  if (options.unix_path.empty() == (options.tcp_port < 0)) {
    return UsageError("give exactly one of --socket PATH or --tcp-port N");
  }
  if (wal_path.empty() && (fsync_given || checkpoint_given)) {
    return UsageError(
        "--fsync / --checkpoint-every only apply to durable mode: add "
        "--wal FILE");
  }
  if (!wal_path.empty() && !load_snapshot.empty()) {
    return UsageError(
        "--wal is exclusive with --load-snapshot: the WAL's own checkpoint "
        "is the durable warm start (docs/DURABILITY.md)");
  }
  if (options.slowlog.threshold_ms < 0 &&
      (options.slowlog.sample_every > 0 || !slowlog_file.empty())) {
    return UsageError(
        "--slowlog-sample / --slowlog-out only apply with the slow log on: "
        "add --slowlog-ms N");
  }

  // --stats / --trace-out arm the live request types too.
  if (want_stats) EnableMetrics(true);
  if (!trace_file.empty()) {
    EnableEventTrace(true);
    // The poll loop runs on this thread; name its lane like the CLI does so
    // trace_check --require-lane main holds for daemon timelines too.
    Tracer::Global().SetCurrentThreadName("main");
  }

  // Build the engine once, before any client connects.
  StatusOr<std::unique_ptr<serve::Server>> server =
      Status::Internal("unreachable");
  if (!load_snapshot.empty()) {
    auto bytes = ReadFile(load_snapshot);
    if (!bytes.ok()) return Fail(kExitIo, bytes.status());
    auto spec = Snapshot::ParseGraphSpec(*bytes);
    if (!spec.ok()) return Fail(kExitParse, spec.status());
    server = serve::Server::CreateSpecOnly(std::move(spec).value(), options);
  } else {
    std::string source;
    if (rotation > 0) {
      source = relspec_bench::RotationProgram(rotation);
    } else {
      auto text = ReadFile(program_path);
      if (!text.ok()) return Fail(kExitIo, text.status());
      source = std::move(text).value();
    }
    auto parsed = FunctionalDatabase::ParseSource(source);
    if (!parsed.ok()) return Fail(kExitParse, parsed.status());
    StatusOr<std::unique_ptr<FunctionalDatabase>> db =
        Status::Internal("unreachable");
    if (wal_path.empty()) {
      db = FunctionalDatabase::FromParsed(std::move(parsed).value());
    } else {
      // Durable mode anchors on the rendered program (like the CLI), so
      // comments never shift the recovery fingerprint.
      RecoveryStats recovery;
      db = FunctionalDatabase::OpenDurable(ToString(parsed->program()),
                                           wal_path, durable, {}, &recovery);
      if (db.ok()) {
        fprintf(stderr,
                "relspecd: durable open: %s, %llu batch(es) replayed, "
                "checkpoint_loaded=%d used_fallback=%d truncated_bytes=%llu\n",
                recovery.created ? "fresh log" : "recovered",
                static_cast<unsigned long long>(recovery.replayed_batches),
                recovery.checkpoint_loaded ? 1 : 0,
                recovery.used_fallback ? 1 : 0,
                static_cast<unsigned long long>(recovery.truncated_bytes));
      }
    }
    if (!db.ok()) return Fail(kExitEngine, db.status());
    server = serve::Server::Create(std::move(db).value(), options);
  }
  if (!server.ok()) return Fail(kExitEngine, server.status());

  g_server = server->get();
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  // A client vanishing mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  if (!options.unix_path.empty()) {
    printf("relspecd: serving on %s (pid %d)\n", options.unix_path.c_str(),
           getpid());
  } else {
    printf("relspecd: serving on 127.0.0.1:%d (pid %d)\n",
           (*server)->tcp_port(), getpid());
  }
  fflush(stdout);

  Status served = (*server)->Serve();
  g_server = nullptr;
  if (!served.ok()) return Fail(kExitIo, served);
  printf("relspecd: drained after %llu request(s)\n",
         static_cast<unsigned long long>((*server)->requests_served()));

  int code = kExitOk;
  // Slow-log flush on drain: the same JSONL a kSlowlogDump request returns,
  // written after every in-flight request has completed and recorded.
  if (!slowlog_file.empty()) {
    std::ofstream out(slowlog_file);
    if (!out) {
      RELSPEC_LOG(kError) << "cannot write --slowlog-out file "
                          << slowlog_file;
      code = kExitIo;
    } else {
      out << (*server)->slowlog().DumpJsonl();
    }
  }
  // Trace before stats, like the CLI: the exporter's trace.dropped gauge
  // then lands in the stats JSON.
  if (!trace_file.empty()) {
    EnableEventTrace(false);
    Status written = Tracer::Global().WriteChromeJson(trace_file);
    if (!written.ok()) {
      RELSPEC_LOG(kError) << "cannot write --trace-out file " << trace_file
                          << ": " << written.ToString();
      code = kExitIo;
    }
  }
  if (want_stats) {
    std::string json = MetricsRegistry::Global().Snapshot().ToJson();
    if (stats_file.empty()) {
      printf("%s\n", json.c_str());
    } else {
      std::ofstream out(stats_file);
      if (!out) {
        RELSPEC_LOG(kError) << "cannot write --stats file " << stats_file;
        code = kExitIo;
      } else {
        out << json << "\n";
      }
    }
  }
  return code;
}

}  // namespace
}  // namespace relspec

int main(int argc, char** argv) {
  return relspec::RunDaemon(argc, argv);
}
