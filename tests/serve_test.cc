// RSRV protocol conformance + daemon behavior suite (docs/DAEMON.md).
//
// Three layers:
//   1. Golden byte vectors: hand-written frames for requests, responses and
//      the typed payloads, asserting the exact little-endian layout the wire
//      doc promises — an encoder change that shifts a byte fails here first.
//   2. Decoder hostility: bad magic, wrong version, forged payload length,
//      truncated frames, unknown request types — every rejection is a
//      Status, and the request id stays echoable where the header allows.
//   3. Live server: an in-process serve::Server on a unix socket, driven
//      through serve::ServeClient — request/response round-trips for every
//      type, malformed-frame handling on a real connection, governor
//      breaches as structured replies, spec-only serving, durable update
//      acks that survive a reopen, and (parameterized over 15 random
//      programs) concurrent clients whose query replies must be
//      byte-identical to in-process AnswerQueryCached answers.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/slowlog.h"
#include "src/term/path.h"
#include "tests/random_program.h"

namespace relspec {
namespace {

using serve::DecodeHealthResult;
using serve::DecodeQueryResult;
using serve::DecodeRequest;
using serve::DecodeResponse;
using serve::DecodeUpdateResult;
using serve::EncodeHealthResult;
using serve::EncodeQueryResult;
using serve::EncodeRequest;
using serve::EncodeResponse;
using serve::EncodeUpdateResult;
using serve::QueryResult;
using serve::RequestFrameSize;
using serve::RequestHeader;
using serve::RequestType;
using serve::ResponseFrameSize;
using serve::ResponseHeader;
using serve::ServeClient;
using serve::UpdateResult;

std::string Bytes(const unsigned char* data, size_t n) {
  return std::string(reinterpret_cast<const char*>(data), n);
}

// A tiny rotation program every live test shares: ground base fact plus a
// derivation rule, so queries have spec tuples and updates have valid facts.
std::string RotationSource() {
  return "OnCall(0, m0).\n"
         "Rotate(m0, m1).\nRotate(m1, m2).\nRotate(m2, m0).\n"
         "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
}

// ---------------------------------------------------------------------------
// Golden byte vectors
// ---------------------------------------------------------------------------

TEST(ServeProtocolGolden, PingRequestFrameBytes) {
  RequestHeader h;
  h.type = RequestType::kPing;
  h.request_id = 0x0102030405060708ULL;
  const unsigned char want[40] = {
      'R', 'S', 'R', 'V',          // magic
      0x01, 0x00, 0x00, 0x00,      // version 1
      0x00, 0x00, 0x00, 0x00,      // type kPing
      0x00, 0x00, 0x00, 0x00,      // payload length 0
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request id LE
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline_ms 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max_tuples 0
  };
  EXPECT_EQ(EncodeRequest(h, ""), Bytes(want, sizeof(want)));
}

TEST(ServeProtocolGolden, MembershipRequestFrameBytes) {
  RequestHeader h;
  h.type = RequestType::kMembership;
  h.request_id = 42;
  h.deadline_ms = 1000;
  h.max_tuples = 5;
  const unsigned char want_header[40] = {
      'R', 'S', 'R', 'V',
      0x01, 0x00, 0x00, 0x00,      // version 1
      0x01, 0x00, 0x00, 0x00,      // type kMembership
      0x08, 0x00, 0x00, 0x00,      // payload length 8
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 42
      0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline 1000
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // max_tuples 5
  };
  EXPECT_EQ(EncodeRequest(h, "P0(0, a)"),
            Bytes(want_header, sizeof(want_header)) + "P0(0, a)");
}

TEST(ServeProtocolGolden, ErrorResponseFrameBytes) {
  ResponseHeader h;
  h.status = 8;  // kResourceExhausted
  h.request_id = 7;
  const unsigned char want_header[24] = {
      'R', 'S', 'R', 'V',
      0x01, 0x00, 0x00, 0x00,      // version 1
      0x08, 0x00, 0x00, 0x00,      // status 8
      0x06, 0x00, 0x00, 0x00,      // payload length 6
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 7
  };
  EXPECT_EQ(EncodeResponse(h, "budget"),
            Bytes(want_header, sizeof(want_header)) + "budget");
}

TEST(ServeProtocolGolden, QueryResultPayloadBytes) {
  QueryResult r;
  r.spec_tuples = 3;
  r.functional = true;
  r.text = "T";
  const unsigned char want[14] = {
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // spec_tuples 3
      0x01,                                             // functional
      0x01, 0x00, 0x00, 0x00,                           // text length 1
      'T',
  };
  EXPECT_EQ(EncodeQueryResult(r), Bytes(want, sizeof(want)));
}

TEST(ServeProtocolGolden, UpdateResultPayloadBytes) {
  UpdateResult r;
  r.fingerprint = 0x10;
  r.inserted = 1;
  r.deleted = 2;
  r.noops = 3;
  r.deleted_bits = 4;
  r.rebuilt = true;
  r.durable = false;
  const unsigned char want[42] = {
      0x10, 0, 0, 0, 0, 0, 0, 0,  // fingerprint
      0x01, 0, 0, 0, 0, 0, 0, 0,  // inserted
      0x02, 0, 0, 0, 0, 0, 0, 0,  // deleted
      0x03, 0, 0, 0, 0, 0, 0, 0,  // noops
      0x04, 0, 0, 0, 0, 0, 0, 0,  // deleted_bits
      0x01,                       // rebuilt
      0x00,                       // durable
  };
  EXPECT_EQ(EncodeUpdateResult(r), Bytes(want, sizeof(want)));
}

TEST(ServeProtocolGolden, HealthResultPayloadBytes) {
  serve::HealthResult h;
  h.ready = true;
  h.live = true;
  h.fingerprint = 0x1122334455667788ULL;
  h.uptime_ms = 0x0102030405060708ULL;
  h.wal_seq = 0xff;
  h.served = 0x1000;
  const unsigned char want[] = {
      0x01,                                            // ready
      0x01,                                            // live
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // fingerprint
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // uptime_ms
      0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // wal_seq
      0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // served
  };
  EXPECT_EQ(EncodeHealthResult(h), Bytes(want, sizeof(want)));
}

// Every request type and both payload codecs must round-trip losslessly.
TEST(ServeProtocol, RequestRoundTripEveryType) {
  const RequestType kTypes[] = {
      RequestType::kPing,      RequestType::kMembership,
      RequestType::kQuery,     RequestType::kUpdate,
      RequestType::kStats,     RequestType::kTraceDump,
      RequestType::kSlowlogDump, RequestType::kHealth,
  };
  uint64_t id = 100;
  for (RequestType type : kTypes) {
    RequestHeader h;
    h.type = type;
    h.request_id = id++;
    h.deadline_ms = 250;
    h.max_tuples = 1u << 20;
    std::string payload = "payload for " + std::string(RequestTypeName(type));
    std::string frame = EncodeRequest(h, payload);

    auto size = RequestFrameSize(frame);
    ASSERT_TRUE(size.ok()) << size.status().ToString();
    EXPECT_EQ(*size, frame.size());

    RequestHeader got;
    std::string_view got_payload;
    ASSERT_TRUE(DecodeRequest(frame, &got, &got_payload).ok());
    EXPECT_EQ(got.type, type);
    EXPECT_EQ(got.request_id, h.request_id);
    EXPECT_EQ(got.deadline_ms, h.deadline_ms);
    EXPECT_EQ(got.max_tuples, h.max_tuples);
    EXPECT_EQ(got_payload, payload);
  }
}

TEST(ServeProtocol, ResponseRoundTrip) {
  ResponseHeader h;
  h.status = 4;
  h.request_id = 0xdeadbeefcafef00dULL;
  std::string frame = EncodeResponse(h, "precondition text");
  auto size = ResponseFrameSize(frame);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, frame.size());
  ResponseHeader got;
  std::string_view payload;
  ASSERT_TRUE(DecodeResponse(frame, &got, &payload).ok());
  EXPECT_EQ(got.status, 4u);
  EXPECT_EQ(got.request_id, h.request_id);
  EXPECT_EQ(payload, "precondition text");
}

TEST(ServeProtocol, TypedPayloadRoundTrip) {
  QueryResult q;
  q.spec_tuples = 0xffffffffffULL;
  q.functional = false;
  q.text = "OnCall: 12 tuples\n  f(0), m1\n";
  auto q2 = DecodeQueryResult(EncodeQueryResult(q));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->spec_tuples, q.spec_tuples);
  EXPECT_EQ(q2->functional, q.functional);
  EXPECT_EQ(q2->text, q.text);

  UpdateResult u;
  u.fingerprint = 0x1122334455667788ULL;
  u.noops = 9;
  u.durable = true;
  auto u2 = DecodeUpdateResult(EncodeUpdateResult(u));
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(u2->fingerprint, u.fingerprint);
  EXPECT_EQ(u2->noops, u.noops);
  EXPECT_TRUE(u2->durable);

  serve::HealthResult health;
  health.ready = true;
  health.live = false;
  health.fingerprint = 0xfeedfacecafebeefULL;
  health.uptime_ms = 123456;
  health.wal_seq = 42;
  health.served = 7;
  auto h2 = DecodeHealthResult(EncodeHealthResult(health));
  ASSERT_TRUE(h2.ok());
  EXPECT_TRUE(h2->ready);
  EXPECT_FALSE(h2->live);
  EXPECT_EQ(h2->fingerprint, health.fingerprint);
  EXPECT_EQ(h2->uptime_ms, health.uptime_ms);
  EXPECT_EQ(h2->wal_seq, health.wal_seq);
  EXPECT_EQ(h2->served, health.served);
}

// ---------------------------------------------------------------------------
// Decoder hostility
// ---------------------------------------------------------------------------

TEST(ServeProtocolMalformed, ShortBufferNeedsMoreBytes) {
  // Fewer than 16 bytes cannot be judged yet: 0, not an error.
  auto size = RequestFrameSize(std::string(15, 'R'));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST(ServeProtocolMalformed, BadMagicRejected) {
  std::string frame = EncodeRequest(RequestHeader(), "");
  frame[0] = 'X';
  EXPECT_FALSE(RequestFrameSize(frame).ok());
  RequestHeader h;
  std::string_view p;
  EXPECT_FALSE(DecodeRequest(frame, &h, &p).ok());
}

TEST(ServeProtocolMalformed, WrongVersionRejected) {
  // A version-2 frame must be refused by this version-1 build — both by the
  // stream reassembler and by the one-shot decoder.
  RequestHeader h;
  h.version = 2;
  std::string frame = EncodeRequest(h, "");
  auto size = RequestFrameSize(frame);
  EXPECT_FALSE(size.ok());
  EXPECT_NE(size.status().message().find("version 2"), std::string::npos);
  RequestHeader got;
  std::string_view p;
  EXPECT_FALSE(DecodeRequest(frame, &got, &p).ok());
}

TEST(ServeProtocolMalformed, ForgedPayloadLengthRejected) {
  // Advertised length over the ceiling is refused at the 16-byte prefix,
  // before any payload buffering could be provoked.
  std::string frame = EncodeRequest(RequestHeader(), "");
  const uint32_t huge = serve::kMaxPayload + 1;
  frame[12] = static_cast<char>(huge & 0xff);
  frame[13] = static_cast<char>((huge >> 8) & 0xff);
  frame[14] = static_cast<char>((huge >> 16) & 0xff);
  frame[15] = static_cast<char>((huge >> 24) & 0xff);
  EXPECT_FALSE(RequestFrameSize(frame).ok());
}

TEST(ServeProtocolMalformed, TruncatedFrameRejectedByDecode) {
  RequestHeader h;
  h.type = RequestType::kMembership;
  std::string frame = EncodeRequest(h, "P0(0, a)");
  // Strip payload bytes but keep the advertised length: the exact-size
  // decoder must refuse the disagreement.
  RequestHeader got;
  std::string_view p;
  EXPECT_FALSE(DecodeRequest(frame.substr(0, frame.size() - 3), &got, &p).ok());
  EXPECT_FALSE(DecodeRequest(frame + "x", &got, &p).ok());
  // And a frame shorter than its own header is truncated outright.
  EXPECT_FALSE(DecodeRequest(frame.substr(0, 20), &got, &p).ok());
}

TEST(ServeProtocolMalformed, UnknownTypeRejectedButIdSurvives) {
  RequestHeader h;
  h.type = static_cast<RequestType>(serve::kMaxRequestType + 7);
  h.request_id = 555;
  std::string frame = EncodeRequest(h, "");
  RequestHeader got;
  std::string_view p;
  Status st = DecodeRequest(frame, &got, &p);
  EXPECT_FALSE(st.ok());
  // The id parses before the type check so the server can echo it.
  EXPECT_EQ(got.request_id, 555u);
}

TEST(ServeProtocolMalformed, TypedPayloadSizeChecks) {
  EXPECT_FALSE(DecodeQueryResult("short").ok());
  std::string q = EncodeQueryResult(QueryResult{.spec_tuples = 1, .text = "ab"});
  EXPECT_FALSE(DecodeQueryResult(q.substr(0, q.size() - 1)).ok());
  EXPECT_FALSE(DecodeQueryResult(q + "x").ok());
  std::string u = EncodeUpdateResult(UpdateResult{});
  EXPECT_FALSE(DecodeUpdateResult(u.substr(0, 41)).ok());
  EXPECT_FALSE(DecodeUpdateResult(u + "x").ok());
  std::string h = EncodeHealthResult(serve::HealthResult{});
  EXPECT_FALSE(DecodeHealthResult(h.substr(0, h.size() - 1)).ok());
  EXPECT_FALSE(DecodeHealthResult(h + "x").ok());
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

/// An in-process Server on a unix socket with its Serve() loop on a thread.
class LiveServer {
 public:
  static std::unique_ptr<LiveServer> Start(
      std::unique_ptr<FunctionalDatabase> db, const std::string& tag,
      serve::ServerOptions options = {}) {
    options.unix_path = ::testing::TempDir() + "serve_test_" + tag + ".sock";
    auto server = serve::Server::Create(std::move(db), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return nullptr;
    return std::unique_ptr<LiveServer>(
        new LiveServer(std::move(server).value()));
  }

  static std::unique_ptr<LiveServer> StartSpecOnly(GraphSpecification spec,
                                                   const std::string& tag) {
    serve::ServerOptions options;
    options.unix_path = ::testing::TempDir() + "serve_test_" + tag + ".sock";
    auto server = serve::Server::CreateSpecOnly(std::move(spec), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return nullptr;
    return std::unique_ptr<LiveServer>(
        new LiveServer(std::move(server).value()));
  }

  ~LiveServer() {
    if (server_ != nullptr) Stop();
  }

  void Stop() {
    server_->RequestShutdown();
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    server_.reset();
  }

  serve::Server* server() { return server_.get(); }

  std::unique_ptr<ServeClient> Connect() {
    auto client = ServeClient::ConnectUnix(server_->unix_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

 private:
  explicit LiveServer(std::unique_ptr<serve::Server> server)
      : server_(std::move(server)),
        thread_([this] { serve_status_ = server_->Serve(); }) {}

  std::unique_ptr<serve::Server> server_;
  Status serve_status_ = Status::OK();
  std::thread thread_;
};

/// The daemon's membership semantics, computed locally: parse the fact
/// read-only against the spec's symbols, then GraphSpecification::HoldsFact.
/// Mirrors Server::Handle(kMembership).
StatusOr<bool> LocalHolds(const GraphSpecification& spec,
                          const std::string& fact) {
  RELSPEC_ASSIGN_OR_RETURN(Query q,
                           ParseQuery("? " + fact + ".", spec.symbols()));
  return spec.HoldsFact(q);
}

TEST(ServeLive, EveryRequestTypeRoundTrips) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const uint64_t fp0 = (*db)->Fingerprint();
  auto ref_db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(ref_db.ok());
  auto ref_spec = (*ref_db)->BuildGraphSpec();
  ASSERT_TRUE(ref_spec.ok());

  auto live = LiveServer::Start(std::move(db).value(), "alltypes");
  ASSERT_NE(live, nullptr);
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);

  // Ping: the engine fingerprint, pre-materialized.
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(*ping, fp0);

  // Membership: both polarities, equal to the local spec's Holds.
  for (const char* fact : {"OnCall(0, m0)", "OnCall(0, m1)", "OnCall(0+1, m1)"}) {
    auto remote = client->Membership(fact);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto local = LocalHolds(*ref_spec, fact);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(*remote, *local) << fact;
  }

  // Query: byte-identical to the in-process cached answer.
  const std::string query_text = "?(t, x) OnCall(t, x).";
  auto ref_query = ParseQuery(query_text, (*ref_db)->program().symbols);
  ASSERT_TRUE(ref_query.ok());
  QueryCache ref_cache;
  auto ref_answer =
      AnswerQueryCached(ref_db->get(), *ref_query, &ref_cache, nullptr);
  ASSERT_TRUE(ref_answer.ok());
  auto remote_answer = client->Query(query_text);
  ASSERT_TRUE(remote_answer.ok()) << remote_answer.status().ToString();
  EXPECT_EQ(remote_answer->spec_tuples, (*ref_answer)->NumSpecTuples());
  EXPECT_EQ(remote_answer->functional, (*ref_answer)->has_functional_answer());
  EXPECT_EQ(remote_answer->text, serve::RenderAnswerText(**ref_answer));

  // Update: insert toggles the fingerprint, delete restores it, and the
  // post-update ping agrees with the update reply.
  auto ins = client->Update("+ OnCall(0, m1).\n");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->inserted, 1u);
  EXPECT_FALSE(ins->durable);
  EXPECT_NE(ins->fingerprint, fp0);
  auto ping2 = client->Ping();
  ASSERT_TRUE(ping2.ok());
  EXPECT_EQ(*ping2, ins->fingerprint);
  auto membership_after = client->Membership("OnCall(0, m1)");
  ASSERT_TRUE(membership_after.ok());
  EXPECT_TRUE(*membership_after) << "update must be visible to membership";
  auto del = client->Update("- OnCall(0, m1).\n");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fingerprint, fp0);

  // Stats: the metrics registry JSON, the Prometheus selector, and a
  // rejection for any other payload.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->empty());
  EXPECT_EQ((*stats)[0], '{');
  // With metrics off the exposition is legitimately empty; armed, the
  // kStats request itself refreshes the live serve gauges.
  EnableMetrics(true);
  auto prom = client->StatsPrometheus();
  EnableMetrics(false);
  MetricsRegistry::Global().Reset();
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom->find("# TYPE relspec_serve_uptime_ms gauge"),
            std::string::npos)
      << *prom;
  auto bad_format = client->Call(RequestType::kStats, "xml");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_EQ(bad_format->status_code,
            static_cast<uint32_t>(StatusCode::kInvalidArgument));

  // Trace dump: precondition error while tracing is off, JSON once on.
  auto off = client->TraceDump();
  EXPECT_FALSE(off.ok());
  EXPECT_EQ(off.status().code(), StatusCode::kFailedPrecondition);
  EnableEventTrace(true);
  auto on = client->TraceDump();
  EnableEventTrace(false);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_NE(on->find("traceEvents"), std::string::npos);

  // Slow-log dump: precondition error — this server runs without a
  // threshold (the default), so the ring never arms.
  auto slowlog = client->SlowlogDump();
  EXPECT_FALSE(slowlog.ok());
  EXPECT_EQ(slowlog.status().code(), StatusCode::kFailedPrecondition);

  // Health: live + ready, fingerprint matching ping, a served count that
  // covers at least the requests this test already made.
  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->ready);
  EXPECT_TRUE(health->live);
  EXPECT_EQ(health->fingerprint, fp0);
  EXPECT_EQ(health->wal_seq, 0u) << "non-durable server must report wal_seq 0";
  EXPECT_GE(health->served, 10u);
}

// One ID correlates all three observability surfaces: a client-supplied
// request id is echoed in the reply header, recorded in the slow-query log,
// and stamped as a span arg on the request's trace timeline; id 0 gets a
// server-minted ID (high bit set) that flows the same way.
TEST(ServeLive, TraceIdFlowsThroughReplySlowlogAndTrace) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  serve::ServerOptions options;
  options.slowlog.threshold_ms = 0;  // record every request
  auto live = LiveServer::Start(std::move(db).value(), "traceid", options);
  ASSERT_NE(live, nullptr);
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);

  Tracer::Global().Reset();
  EnableEventTrace(true);
  const uint64_t id = 0xABCDEF0123456789ULL;
  const std::string query_text = "?(t, x) OnCall(t, x).";
  auto tagged = client->CallWithId(id, RequestType::kQuery, query_text);
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  EXPECT_EQ(tagged->status_code, 0u);
  EXPECT_EQ(tagged->request_id, id) << "client trace ID must echo verbatim";

  // The same query again: the server cache now hits, and the slow log must
  // attribute the second request to the cache phase.
  auto repeat = client->Query(query_text);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();

  // id 0 asks the server to assign a trace ID: nonzero, high bit marks it
  // server-minted, and it still tags the span + slow-log entry.
  auto minted = client->CallWithId(0, RequestType::kPing, "");
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  EXPECT_EQ(minted->status_code, 0u);
  EXPECT_NE(minted->request_id, 0u);
  EXPECT_NE(minted->request_id & (1ULL << 63), 0u)
      << "server-assigned IDs carry the high marker bit";

  auto trace_json = client->TraceDump();
  EnableEventTrace(false);
  ASSERT_TRUE(trace_json.ok()) << trace_json.status().ToString();
  auto validated = ValidateChromeTraceJson(*trace_json);
  ASSERT_TRUE(validated.ok()) << validated.status().ToString();
  const std::string tagged_arg = StrFormat(
      "\"trace_id\":%llu", static_cast<unsigned long long>(id));
  EXPECT_NE(trace_json->find(tagged_arg), std::string::npos)
      << "client trace ID missing from the request span args";
  const std::string minted_arg = StrFormat(
      "\"trace_id\":%llu",
      static_cast<unsigned long long>(minted->request_id));
  EXPECT_NE(trace_json->find(minted_arg), std::string::npos)
      << "server-minted trace ID missing from the request span args";

  auto slowlog = client->SlowlogDump();
  ASSERT_TRUE(slowlog.ok()) << slowlog.status().ToString();
  EXPECT_NE(slowlog->find(tagged_arg), std::string::npos)
      << "client trace ID missing from the slow log";
  EXPECT_NE(slowlog->find(minted_arg), std::string::npos)
      << "server-minted trace ID missing from the slow log";
  EXPECT_NE(slowlog->find("\"cache\":\"miss\""), std::string::npos)
      << "first query must record a cache miss";
  EXPECT_NE(slowlog->find("\"cache\":\"hit\""), std::string::npos)
      << "repeated query must record a cache hit";
  // Both queries hash the same normalized payload.
  const std::string hash_field = StrFormat(
      "\"query_hash\":\"%016llx\"",
      static_cast<unsigned long long>(serve::SlowlogHash(query_text)));
  EXPECT_NE(slowlog->find(hash_field), std::string::npos);

  // The in-process ring agrees with the wire dump, and every entry's phase
  // breakdown fits inside its total.
  const std::vector<serve::SlowlogEntry> entries =
      live->server()->slowlog().Snapshot();
  ASSERT_GE(entries.size(), 3u);
  for (const serve::SlowlogEntry& e : entries) {
    EXPECT_GT(e.total_ns, 0u);
    EXPECT_LE(e.parse_ns + e.cache_ns + e.eval_ns + e.render_ns + e.write_ns,
              e.total_ns)
        << "phase sum must be monotone under the total (seq " << e.seq << ")";
  }
}

// --reply-timing appends a single trailing "  -- elapsed N ns" line to the
// rendered query text; the default keeps reply bytes canonical (the
// concurrency suite asserts byte-identity against in-process rendering).
TEST(ServeLive, ReplyTimingAppendsElapsedLineWhenOptedIn) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto ref_db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(ref_db.ok());

  serve::ServerOptions options;
  options.reply_timing = true;
  auto live = LiveServer::Start(std::move(db).value(), "replytiming", options);
  ASSERT_NE(live, nullptr);
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);

  const std::string query_text = "?(t, x) OnCall(t, x).";
  auto ref_query = ParseQuery(query_text, (*ref_db)->program().symbols);
  ASSERT_TRUE(ref_query.ok());
  QueryCache ref_cache;
  auto ref_answer =
      AnswerQueryCached(ref_db->get(), *ref_query, &ref_cache, nullptr);
  ASSERT_TRUE(ref_answer.ok());
  const std::string canonical = serve::RenderAnswerText(**ref_answer);

  auto remote = client->Query(query_text);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_GT(remote->text.size(), canonical.size());
  EXPECT_EQ(remote->text.compare(0, canonical.size(), canonical), 0)
      << "timing must only append, never alter the canonical rows";
  const std::string tail = remote->text.substr(canonical.size());
  EXPECT_EQ(tail.rfind("  -- elapsed ", 0), 0u) << "tail: " << tail;
  EXPECT_EQ(tail.substr(tail.size() - 4), " ns\n") << "tail: " << tail;
}

// The audit ring itself: threshold + sampling admission, wrap-around
// keeping the newest entries, and the documented JSONL schema.
TEST(SlowLogRing, AdmissionPolicyAndWrapAround) {
  serve::SlowLog::Options options;
  options.threshold_ms = 10;
  options.sample_every = 4;
  options.capacity = 8;
  serve::SlowLog log(options);
  ASSERT_TRUE(log.enabled());

  serve::SlowlogEntry slow;
  slow.total_ns = 25'000'000;  // over the 10ms threshold
  serve::SlowlogEntry fast;
  fast.total_ns = 1'000'000;  // under it

  // Offer 0 is fast and lands on the 1-in-4 sample; offers 1..3 are fast
  // non-samples and must drop; a slow offer always records.
  EXPECT_TRUE(log.MaybeRecord(fast));
  EXPECT_FALSE(log.MaybeRecord(fast));
  EXPECT_FALSE(log.MaybeRecord(fast));
  EXPECT_FALSE(log.MaybeRecord(fast));
  EXPECT_TRUE(log.MaybeRecord(slow));
  ASSERT_EQ(log.recorded(), 2u);
  std::vector<serve::SlowlogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].sampled) << "threshold-missing entry is a sample";
  EXPECT_FALSE(entries[1].sampled) << "threshold-reaching entry is not";

  // Wrap-around: 20 more slow entries through the 8-slot ring keep only
  // the newest 8, still sorted by admission order.
  for (uint64_t i = 0; i < 20; ++i) {
    slow.trace_id = 100 + i;
    ASSERT_TRUE(log.MaybeRecord(slow));
  }
  EXPECT_EQ(log.recorded(), 22u);
  entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 8u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 14 + i);
    EXPECT_EQ(entries[i].trace_id, 112 + i);
  }

  serve::SlowLog disabled(serve::SlowLog::Options{});
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.MaybeRecord(slow));
  EXPECT_TRUE(disabled.DumpJsonl().empty());
}

TEST(SlowLogRing, EntryJsonSchemaGolden) {
  serve::SlowlogEntry e;
  e.seq = 3;
  e.trace_id = 0xABCDEF0123456789ULL;
  e.type = static_cast<uint32_t>(RequestType::kQuery);
  e.status = 8;  // kResourceExhausted
  e.query_hash = serve::SlowlogHash("?(t, x) OnCall(t, x).");
  e.total_ns = 1234567;
  e.parse_ns = 1000;
  e.cache_ns = 0;
  e.eval_ns = 1200000;
  e.render_ns = 30000;
  e.write_ns = 4000;
  e.cache_hit = 0;
  e.headroom_ms = -3;
  e.headroom_tuples = 42;
  e.sampled = false;
  EXPECT_EQ(
      serve::SlowLog::EntryJson(e),
      StrFormat("{\"seq\":3,\"trace_id\":12379813738877118345,"
                "\"type\":\"query\",\"status\":8,\"query_hash\":\"%016llx\","
                "\"total_ns\":1234567,\"parse_ns\":1000,\"cache_ns\":0,"
                "\"eval_ns\":1200000,\"render_ns\":30000,\"write_ns\":4000,"
                "\"cache\":\"miss\",\"headroom_ms\":-3,"
                "\"headroom_tuples\":42,\"sampled\":false}",
                static_cast<unsigned long long>(e.query_hash)));
}

TEST(ServeLive, MalformedFramesGetErrorRepliesThenHangup) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok());
  auto live = LiveServer::Start(std::move(db).value(), "malformed");
  ASSERT_NE(live, nullptr);

  {
    // Garbage magic: structured error with request id 0, then the server
    // hangs up (the stream offset is unrecoverable).
    auto client = live->Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->SendRaw(std::string(40, 'X')).ok());
    auto reply = client->ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_NE(reply->status_code, 0u);
    EXPECT_EQ(reply->request_id, 0u);
    EXPECT_FALSE(client->ReadReply().ok()) << "server must close after a "
                                              "broken frame";
  }
  {
    // Forged length: rejected from the 16-byte prefix alone.
    auto client = live->Connect();
    ASSERT_NE(client, nullptr);
    std::string frame = EncodeRequest(RequestHeader(), "");
    const uint32_t huge = serve::kMaxPayload + 1;
    memcpy(&frame[12], &huge, 4);  // test runs little-endian like the wire
    ASSERT_TRUE(client->SendRaw(frame).ok());
    auto reply = client->ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(reply->status_code, 0u);
    EXPECT_FALSE(client->ReadReply().ok());
  }
  {
    // Unsupported version: same treatment.
    auto client = live->Connect();
    ASSERT_NE(client, nullptr);
    RequestHeader v2;
    v2.version = 2;
    v2.request_id = 9;
    ASSERT_TRUE(client->SendRaw(EncodeRequest(v2, "")).ok());
    auto reply = client->ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(reply->status_code, 0u);
    EXPECT_FALSE(client->ReadReply().ok());
  }
  {
    // Unknown type: the frame itself parses, so the id is echoed back.
    auto client = live->Connect();
    ASSERT_NE(client, nullptr);
    RequestHeader h;
    h.type = static_cast<RequestType>(99);
    h.request_id = 77;
    ASSERT_TRUE(client->SendRaw(EncodeRequest(h, "")).ok());
    auto reply = client->ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(reply->status_code, 0u);
    EXPECT_EQ(reply->request_id, 77u);
    EXPECT_FALSE(client->ReadReply().ok());
  }

  // The server survived all of it: a fresh connection still serves.
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServeLive, GovernorBreachIsAReplyNotAnExit) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok());
  auto live = LiveServer::Start(std::move(db).value(), "breach");
  ASSERT_NE(live, nullptr);
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);

  // A one-tuple budget breaches on the miss path; the reply carries the
  // breach status code, and the connection (and daemon) live on.
  auto breached =
      client->Query("?(t, x) OnCall(t, x).", /*deadline_ms=*/0,
                    /*max_tuples=*/1);
  ASSERT_FALSE(breached.ok());
  EXPECT_TRUE(breached.status().IsResourceBreach())
      << breached.status().ToString();

  auto unbounded = client->Query("?(t, x) OnCall(t, x).");
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_GT(unbounded->spec_tuples, 1u);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServeLive, SpecOnlyServingRefusesQueryAndUpdate) {
  auto db = FunctionalDatabase::FromSource(RotationSource());
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  auto ref_spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(ref_spec.ok());

  auto live = LiveServer::StartSpecOnly(*std::move(spec), "speconly");
  ASSERT_NE(live, nullptr);
  auto client = live->Connect();
  ASSERT_NE(client, nullptr);

  EXPECT_TRUE(client->Ping().ok());
  auto member = client->Membership("OnCall(0, m0)");
  ASSERT_TRUE(member.ok()) << member.status().ToString();
  auto local = LocalHolds(*ref_spec, "OnCall(0, m0)");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*member, *local);

  auto query = client->Query("?(t, x) OnCall(t, x).");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);
  auto update = client->Update("+ OnCall(0, m1).\n");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServeLive, DurableUpdateAckSurvivesReopen) {
  const std::string wal_path = ::testing::TempDir() + "serve_test_durable.wal";
  for (const char* suffix :
       {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev", ".ckpt.tmp"}) {
    std::remove((wal_path + suffix).c_str());
  }
  const std::string source = RotationSource();
  auto db = FunctionalDatabase::OpenDurable(source, wal_path, DurableOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  uint64_t acked_fp = 0;
  {
    auto live = LiveServer::Start(std::move(db).value(), "durable");
    ASSERT_NE(live, nullptr);
    auto client = live->Connect();
    ASSERT_NE(client, nullptr);
    auto update = client->Update("+ OnCall(0, m2).\n");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_TRUE(update->durable) << "a durable server must ack durably";
    EXPECT_EQ(update->inserted, 1u);
    acked_fp = update->fingerprint;
    live->Stop();  // drains, then the destructor closes the WAL
  }

  auto reopened = FunctionalDatabase::OpenDurable(source, wal_path,
                                                  DurableOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Fingerprint(), acked_fp)
      << "the acked update must be in the log";
  for (const char* suffix :
       {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev", ".ckpt.tmp"}) {
    std::remove((wal_path + suffix).c_str());
  }
}

// ---------------------------------------------------------------------------
// Concurrent byte-identity over random programs
// ---------------------------------------------------------------------------

class ServeConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(ServeConcurrencyTest, ConcurrentClientsMatchInProcessAnswersByteForByte) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  std::mt19937 rng(seed * 7919u + 3u);
  // Guarantee both functional predicates exist regardless of which rule
  // templates the generator drew, so the fixed query list always parses.
  const std::string source =
      testutil::RandomProgramRich(&rng) + "P0(0, a).\nP1(f(0)).\n";
  SCOPED_TRACE(source);

  const std::vector<std::string> query_texts = {
      "?(t, x1) P0(t, x1).",
      "?(t) P1(t).",
      "?(x1) P0(f(t), x1).",   // non-uniform: recompute path
      "?(t) P0(t, a).",
  };
  const std::vector<std::string> probe_texts = {
      "P0(0, a)", "P0(f(0), b)", "P1(f(0))", "P0(f(f(0)), a)",
  };

  // In-process reference, computed sequentially through the same cached API
  // the server uses.
  auto ref_db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(ref_db.ok()) << ref_db.status().ToString();
  auto ref_spec = (*ref_db)->BuildGraphSpec();
  ASSERT_TRUE(ref_spec.ok());
  QueryCache ref_cache;
  struct Expected {
    uint64_t spec_tuples;
    bool functional;
    std::string text;
  };
  std::vector<Expected> expected;
  for (const std::string& text : query_texts) {
    auto query = ParseQuery(text, (*ref_db)->program().symbols);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    auto answer = AnswerQueryCached(ref_db->get(), *query, &ref_cache, nullptr);
    ASSERT_TRUE(answer.ok()) << text << ": " << answer.status().ToString();
    expected.push_back({(*answer)->NumSpecTuples(),
                        (*answer)->has_functional_answer(),
                        serve::RenderAnswerText(**answer)});
  }
  std::vector<bool> expected_holds;
  for (const std::string& probe : probe_texts) {
    auto holds = LocalHolds(*ref_spec, probe);
    ASSERT_TRUE(holds.ok()) << probe << ": " << holds.status().ToString();
    expected_holds.push_back(*holds);
  }

  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok());
  serve::ServerOptions options;
  options.threads = 3;
  auto live = LiveServer::Start(std::move(db).value(),
                                "conc" + std::to_string(seed), options);
  ASSERT_NE(live, nullptr);

  // Three concurrent clients, two rounds each, all queries and probes per
  // round. Results are collected per-thread and asserted after the join.
  constexpr int kClients = 3;
  constexpr int kRounds = 2;
  struct GotReply {
    std::string label;
    Status status = Status::OK();
    QueryResult query;
    bool holds = false;
    bool is_query = false;
  };
  std::vector<std::vector<GotReply>> got(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = ServeClient::ConnectUnix(live->server()->unix_path());
      if (!client.ok()) {
        got[static_cast<size_t>(t)].push_back(
            {"connect", client.status(), {}, false, false});
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (const std::string& text : query_texts) {
          GotReply r;
          r.label = text;
          r.is_query = true;
          auto result = (*client)->Query(text);
          if (result.ok()) {
            r.query = *std::move(result);
          } else {
            r.status = result.status();
          }
          got[static_cast<size_t>(t)].push_back(std::move(r));
        }
        for (const std::string& probe : probe_texts) {
          GotReply r;
          r.label = probe;
          auto holds = (*client)->Membership(probe);
          if (holds.ok()) {
            r.holds = *holds;
          } else {
            r.status = holds.status();
          }
          got[static_cast<size_t>(t)].push_back(std::move(r));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kClients; ++t) {
    const auto& replies = got[static_cast<size_t>(t)];
    ASSERT_EQ(replies.size(),
              static_cast<size_t>(kRounds) *
                  (query_texts.size() + probe_texts.size()))
        << "client " << t << " failed early: "
        << (replies.empty() ? "no replies" : replies.back().status.ToString());
    size_t i = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < query_texts.size(); ++q, ++i) {
        const GotReply& r = replies[i];
        ASSERT_TRUE(r.status.ok())
            << "client " << t << " " << r.label << ": " << r.status.ToString();
        EXPECT_EQ(r.query.spec_tuples, expected[q].spec_tuples) << r.label;
        EXPECT_EQ(r.query.functional, expected[q].functional) << r.label;
        EXPECT_EQ(r.query.text, expected[q].text)
            << "client " << t << " round " << round << " " << r.label
            << ": daemon answer must be byte-identical to in-process";
      }
      for (size_t p = 0; p < probe_texts.size(); ++p, ++i) {
        const GotReply& r = replies[i];
        ASSERT_TRUE(r.status.ok())
            << "client " << t << " " << r.label << ": " << r.status.ToString();
        EXPECT_EQ(r.holds, expected_holds[p]) << r.label;
      }
    }
  }
  // The reply write precedes the served_ increment, so a client can observe
  // its answer a beat before the counter ticks: wait it out.
  const uint64_t want_served = static_cast<uint64_t>(kClients) * kRounds *
                               (query_texts.size() + probe_texts.size());
  for (int i = 0; i < 1000 && live->server()->requests_served() < want_served;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(live->server()->requests_served(), want_served);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeConcurrencyTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace relspec
