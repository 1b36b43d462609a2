// Workloads `serve_read` and `serve_write`: a child `relspecd --threads 2`
// on a Unix socket, driven by a closed loop of two synchronous ServeClient
// connections (the protocol allows one request in flight per connection,
// and callers block on replies). Clients and daemon run on disjoint cores
// when at least four are available. The load loop never sleeps; each
// latency is timed from send to decoded reply.
//
// serve_read mixes membership and queries over more keys than the daemon's
// 64-entry query cache, with Zipf skew, a few non-uniform (recompute)
// queries and a share of names the program lacks. Every reply is checked
// against the in-process answer: query replies byte for byte against
// EncodeQueryResult(RenderAnswerText(AnswerQueryCached(...))), membership
// against GraphSpecification::Holds.
//
// serve_write runs the daemon durable (--wal, fsync always, checkpoint
// every 64 batches). A fifth of operations toggle base facts: most take
// the in-place repair path, every 16th update of a lane forces a rebuild.
// Reads name only constants the program holds. After the run the daemon is
// killed with SIGKILL, the log is reopened in-process, and the recovered
// fingerprint must equal the last acknowledged UpdateResult.fingerprint.
//
// ServeLayers, part of every traced run, has three phases: the untraced
// daemon (per-type latencies and the baseline of trace.overhead_pct), a
// daemon with --trace-out and --slowlog-ms 0 that serves fewer requests
// than its slow-log ring holds, and an in-process replay of the same
// request stream that times each layer's calls.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/programs.h"
#include "src/ast/printer.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"

namespace perfbench {
namespace {

using relspec::Status;
using relspec::StatusOr;
using relspec::serve::RequestType;
using relspec::serve::ServeClient;

constexpr int kLanes = 2;
constexpr double kZipfSkew = 0.99;
constexpr int kCheckpointEvery = 64;
constexpr int kRebuildEvery = 16;  // every 16th update of a lane rebuilds
constexpr double kWindowSeconds = 0.2;
const char* const kSocket = "relspecd.sock";
const char* const kProgramFile = "serve.rsp";
const char* const kWal = "serve.rwal";

enum OpType { kMembership, kQuery, kUpdate, kNumOps };

/// The request material, indexed by popularity rank. The shape at each
/// rank is fixed; the seed only picks names, so every seed has the same mix.
struct Material {
  ServeProgram program;
  std::vector<std::string> queries;
  std::vector<std::string> probes;
  /// serve_read only: the expected reply payload per rank.
  std::vector<std::string> expected_query;
  std::vector<uint8_t> expected_member;
};

Material MakeMaterial(const Options& options, bool write) {
  Material m;
  m.program = MakeServeProgram(options.seed, options.smoke);
  const ServeProgram& p = m.program;
  const size_t keys = options.smoke ? 24 : 256;
  // Each shape walks its own name list, so ranks of one shape name distinct
  // constants until the list wraps.
  size_t next[5] = {};
  auto pick = [&](const std::vector<std::string>& names, int shape) {
    return names[next[shape]++ % names.size()];
  };
  auto unknown = [&]() { return "n" + std::to_string(next[4]++ % 64); };
  for (size_t r = 0; r < keys; ++r) {
    // Queries: cheap uniform and finite shapes, plus (reads only) the
    // recompute shape at one rank in 64 and a constant the program lacks at
    // one rank in 8.
    if (!write && r % 64 == 7) {
      m.queries.push_back("?(t) OnCall(t+1, " + pick(p.members, 0) + ").");
    } else if (!write && r % 8 == 3) {
      m.queries.push_back("?(t) OnCall(t, " + unknown() + ").");
    } else if (r % 3 == 0) {
      m.queries.push_back("?(x) Contact(x, " + pick(p.contacts, 1) + ").");
    } else if (r % 3 == 1) {
      m.queries.push_back("?(t) Covered(t, " + pick(p.skills, 2) + ").");
    } else {
      m.queries.push_back("?(t) OnCall(t, " + pick(p.members, 3) + ").");
    }
    // Membership probes: a quarter built to hold (member i is on call at
    // time i), the rest arbitrary; (reads only) one in 8 names a constant
    // the program lacks.
    const size_t time = (r * 7) % 48;
    const std::string n = std::to_string(time);
    if (!write && r % 8 == 5) {
      m.probes.push_back("OnCall(" + n + ", " + unknown() + ")");
    } else if (r % 4 == 0) {
      m.probes.push_back("OnCall(" + n + ", " +
                         p.members[time % p.members.size()] + ")");
    } else if (r % 4 == 1) {
      m.probes.push_back("OnCall(" + n + ", " + pick(p.members, 3) + ")");
    } else {
      m.probes.push_back("Covered(" + n + ", " + pick(p.skills, 2) + ")");
    }
  }
  return m;
}

/// The daemon's membership path, in-process: parse against a copy of the
/// spec's symbols, purify, then GraphSpecification::Holds.
StatusOr<bool> HoldsInProcess(const relspec::GraphSpecification& spec,
                              const std::string& fact) {
  relspec::Program scratch;
  scratch.symbols = spec.symbols();
  RELSPEC_ASSIGN_OR_RETURN(relspec::Query q,
                           relspec::ParseQuery("? " + fact + ".", &scratch));
  if (q.atoms.size() != 1 || !q.atoms[0].fterm.has_value()) {
    return Status::InvalidArgument("probe is not one functional fact");
  }
  RELSPEC_ASSIGN_OR_RETURN(
      relspec::FuncTerm pure,
      relspec::PurifyGroundTerm(*q.atoms[0].fterm, &scratch.symbols));
  std::vector<relspec::FuncId> syms;
  for (const relspec::FuncApply& a : pure.apps) syms.push_back(a.fn);
  std::vector<relspec::ConstId> args;
  for (const relspec::NfArg& a : q.atoms[0].args) args.push_back(a.id);
  return spec.Holds(relspec::Path(std::move(syms)), q.atoms[0].pred, args);
}

StatusOr<std::string> QueryReplyInProcess(relspec::FunctionalDatabase* db,
                                          relspec::QueryCache* cache,
                                          const std::string& text) {
  RELSPEC_ASSIGN_OR_RETURN(relspec::Query q,
                           relspec::ParseQuery(text, db->mutable_program()));
  RELSPEC_ASSIGN_OR_RETURN(auto answer,
                           relspec::AnswerQueryCached(db, q, cache));
  relspec::serve::QueryResult result;
  result.spec_tuples = answer->NumSpecTuples();
  result.functional = answer->has_functional_answer();
  result.text = relspec::serve::RenderAnswerText(*answer);
  return relspec::serve::EncodeQueryResult(result);
}

/// Fills the expected replies of serve_read from an in-process engine.
Status ComputeExpectations(Material* m) {
  RELSPEC_ASSIGN_OR_RETURN(
      auto db, relspec::FunctionalDatabase::FromSource(m->program.source));
  RELSPEC_ASSIGN_OR_RETURN(relspec::GraphSpecification spec,
                           db->BuildGraphSpec());
  relspec::QueryCache cache;
  m->expected_query.clear();
  m->expected_member.clear();
  for (const std::string& q : m->queries) {
    RELSPEC_ASSIGN_OR_RETURN(std::string reply,
                             QueryReplyInProcess(db.get(), &cache, q));
    m->expected_query.push_back(std::move(reply));
  }
  for (const std::string& p : m->probes) {
    RELSPEC_ASSIGN_OR_RETURN(bool holds, HoldsInProcess(spec, p));
    m->expected_member.push_back(holds ? 1 : 0);
  }
  return Status::OK();
}

/// A running relspecd child.
struct Daemon {
  pid_t pid = -1;
  std::string log;
};

void RemoveWalFiles() {
  for (const char* suffix :
       {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev", ".ckpt.tmp"}) {
    std::remove((std::string(kWal) + suffix).c_str());
  }
}

StatusOr<Daemon> StartDaemon(const Options& options, const CoreSets& cores,
                             bool write, bool traced, int generation) {
  Daemon d;
  d.log = "relspecd." + std::to_string(generation) + ".log";
  std::remove(d.log.c_str());
  std::vector<std::string> argv = {options.relspecd, kProgramFile,
                                   "--socket",       kSocket,
                                   "--threads",      "2"};
  if (write) {
    argv.insert(argv.end(), {"--wal", kWal, "--fsync", "always",
                             "--checkpoint-every",
                             std::to_string(kCheckpointEvery)});
  }
  if (traced) {
    argv.insert(argv.end(), {"--trace-out", "relspecd.trace.json",
                             "--slowlog-ms", "0", "--slowlog-out",
                             "relspecd.slowlog.jsonl",
                             "--stats=relspecd.stats.json"});
  }
  d.pid = Spawn(argv, d.log, cores.daemon);
  if (d.pid < 0) return Status::Internal("cannot start relspecd");
  // Wait for the listener: set-up time, not part of any latency.
  const auto start = Clock::now();
  while (SecondsSince(start) < 60) {
    auto client = ServeClient::ConnectUnix(kSocket);
    if (client.ok() && (*client)->Ping().ok()) return d;
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
      return Status::Internal("relspecd exited during start-up; see " + d.log);
    }
    usleep(200);
  }
  kill(d.pid, SIGKILL);
  WaitExit(d.pid);
  return Status::DeadlineExceeded("relspecd did not come up within 60 s");
}

/// SIGTERM drains the daemon (trace, slow log and stats are flushed).
bool StopDaemon(Daemon* d) {
  if (d->pid < 0) return true;
  kill(d->pid, SIGTERM);
  const int code = WaitExit(d->pid);
  d->pid = -1;
  return code == 0;
}

// --- the closed loop ---------------------------------------------------------

/// One measured request. The trace ID joins it with the daemon's slow log.
struct Sample {
  uint64_t id = 0;
  OpType type = kMembership;
  double rtt_us = 0;
  double end_s = 0;  // completion, in seconds since the measurement began
};

struct Lane {
  int index = 0;
  std::unique_ptr<ServeClient> client;
  uint64_t rng = 0;
  uint64_t next_id = 0;
  uint64_t updates = 0;
  /// Toggle keys this lane owns, and whether each fact is present now.
  std::vector<std::string> repair_keys, rebuild_keys;
  std::vector<uint8_t> repair_present, rebuild_present;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  uint64_t last_fingerprint = 0;
  uint64_t rebuilt = 0;
  uint64_t effective_updates = 0;
};

struct LoadSpec {
  bool write = false;
  double warmup_s = 0;
  double seconds = 0;
  /// When nonzero, each lane stops after this many measured requests.
  uint64_t max_ops = 0;
};

/// The lane's next request: type, rank, and the payload text.
struct Op {
  OpType type;
  size_t rank;
  std::string payload;
  bool rebuild = false;
  size_t toggle = 0;
};

Op NextOp(const Material& m, const Zipf& zipf, bool write, Lane* lane) {
  Op op{kMembership, 0, "", false, 0};
  const uint64_t roll = RandomBelow(&lane->rng, 10);
  if (write && roll < 2) {
    op.type = kUpdate;
    ++lane->updates;
    op.rebuild = lane->updates % kRebuildEvery == 0 &&
                 !lane->rebuild_keys.empty();
    const std::vector<std::string>& keys =
        op.rebuild ? lane->rebuild_keys : lane->repair_keys;
    const std::vector<uint8_t>& present =
        op.rebuild ? lane->rebuild_present : lane->repair_present;
    op.toggle = op.rebuild ? (lane->updates / kRebuildEvery) % keys.size()
                           : RandomBelow(&lane->rng, keys.size());
    op.payload = std::string(present[op.toggle] ? "- " : "+ ") +
                 keys[op.toggle] + ".\n";
    return op;
  }
  op.type = (roll % 2 == 0) ? kMembership : kQuery;
  op.rank = zipf.Sample(&lane->rng);
  op.payload = op.type == kMembership ? m.probes[op.rank] : m.queries[op.rank];
  return op;
}

void LaneFail(Lane* lane, const std::string& why) {
  ++lane->failed;
  if (lane->first_failure.empty()) lane->first_failure = why;
}

/// Sends one request and checks its reply. Returns the round trip in µs.
double Execute(const Material& m, bool write, const Op& op, Lane* lane) {
  const uint64_t id = (static_cast<uint64_t>(lane->index + 1) << 40) |
                      ++lane->next_id;
  const RequestType type = op.type == kMembership ? RequestType::kMembership
                           : op.type == kQuery    ? RequestType::kQuery
                                                  : RequestType::kUpdate;
  ++lane->attempted;
  RELSPEC_TRACE_SPAN1("perfbench", "serve.request", "trace_id", id);
  const auto start = Clock::now();
  auto reply = lane->client->CallWithId(id, type, op.payload);
  // Decode inside the timed region: latency ends at the decoded reply.
  bool member = false;
  bool decoded = false;
  relspec::serve::UpdateResult update;
  if (reply.ok() && reply->ok()) {
    if (op.type == kMembership) {
      decoded = reply->payload.size() == 1;
      member = decoded && reply->payload[0] == 1;
    } else if (op.type == kQuery) {
      decoded = relspec::serve::DecodeQueryResult(reply->payload).ok();
    } else {
      auto result = relspec::serve::DecodeUpdateResult(reply->payload);
      decoded = result.ok();
      if (decoded) update = *result;
    }
  }
  const double rtt = UsSince(start);
  if (!reply.ok()) {
    LaneFail(lane, "transport: " + reply.status().ToString());
    return rtt;
  }
  if (!reply->ok() || reply->request_id != id) {
    LaneFail(lane, op.payload + ": " + reply->ToStatus().ToString());
    return rtt;
  }
  switch (op.type) {
    case kMembership:
      if (!decoded) {
        LaneFail(lane, "membership reply is not one byte");
      } else if (!write && member != (m.expected_member[op.rank] != 0)) {
        LaneFail(lane, "membership " + op.payload + " differs from Holds");
      }
      break;
    case kQuery:
      if (!decoded) {
        LaneFail(lane, "query reply does not decode");
      } else if (!write && reply->payload != m.expected_query[op.rank]) {
        LaneFail(lane, "query " + op.payload + " differs from in-process");
      }
      break;
    case kUpdate: {
      if (!decoded || !update.durable || update.inserted + update.deleted != 1) {
        LaneFail(lane, "update " + op.payload + " was not one durable edit");
        break;
      }
      std::vector<uint8_t>& present =
          op.rebuild ? lane->rebuild_present : lane->repair_present;
      present[op.toggle] ^= 1;
      lane->last_fingerprint = update.fingerprint;
      ++lane->effective_updates;
      if (update.rebuilt) ++lane->rebuilt;
      break;
    }
    case kNumOps:
      break;
  }
  return rtt;
}

void RunLane(const Material& m, const LoadSpec& spec, const CoreSets& cores,
             Lane* lane) {
  if (cores.pinned()) {
    PinCurrentThread({cores.client[static_cast<size_t>(lane->index) %
                                   cores.client.size()]});
  }
  relspec::Tracer::Global().SetCurrentThreadName(
      lane->index == 0 ? "client-0" : "client-1");
  const Zipf zipf(m.queries.size(), kZipfSkew);
  const auto start = Clock::now();
  while (SecondsSince(start) < spec.warmup_s) {
    Execute(m, spec.write, NextOp(m, zipf, spec.write, lane), lane);
  }
  const auto measure = Clock::now();
  uint64_t done = 0;
  while (spec.max_ops > 0 ? done < spec.max_ops
                          : SecondsSince(measure) < spec.seconds) {
    const Op op = NextOp(m, zipf, spec.write, lane);
    const double rtt = Execute(m, spec.write, op, lane);
    lane->samples.push_back(
        Sample{(static_cast<uint64_t>(lane->index + 1) << 40) | lane->next_id,
               op.type, rtt, SecondsSince(measure)});
    ++done;
  }
}

struct LoadResult {
  double wall_s = 0;
  std::vector<Sample> samples;
};

/// Runs the closed loop on `lanes` (already connected) to completion.
LoadResult RunLoad(const Material& m, const LoadSpec& spec,
                   const CoreSets& cores, std::vector<Lane>* lanes) {
  for (Lane& lane : *lanes) lane.samples.clear();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (Lane& lane : *lanes) {
    threads.emplace_back(RunLane, std::cref(m), std::cref(spec),
                         std::cref(cores), &lane);
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.wall_s = SecondsSince(start) - spec.warmup_s;
  for (Lane& lane : *lanes) {
    out.samples.insert(out.samples.end(), lane.samples.begin(),
                       lane.samples.end());
  }
  return out;
}

/// Splits the load into kWindowSeconds windows by completion time; only
/// samples of `type` count, or all of them when `type` is kNumOps. A
/// trailing partial window is dropped.
std::vector<Window> LoadWindows(const LoadResult& load, OpType type) {
  std::vector<Window> windows(
      std::max<size_t>(1, static_cast<size_t>(load.wall_s / kWindowSeconds)));
  for (Window& w : windows) w.seconds = kWindowSeconds;
  for (const Sample& s : load.samples) {
    const size_t i = static_cast<size_t>(s.end_s / kWindowSeconds);
    if (i < windows.size() && (type == kNumOps || s.type == type)) {
      windows[i].latency_us.push_back(s.rtt_us);
    }
  }
  return windows;
}

std::vector<double> AllLatencies(const LoadResult& load) {
  std::vector<double> all;
  for (const Sample& s : load.samples) all.push_back(s.rtt_us);
  return all;
}

/// Lane `index`: its request stream and the toggle keys it owns. Lanes own
/// disjoint keys, so their presence bits stay exact.
Lane MakeLane(const Material& m, int index, uint64_t seed) {
  Lane lane;
  lane.index = index;
  lane.rng = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) + 1;
  for (size_t k = static_cast<size_t>(index);
       k < m.program.repair_toggles.size(); k += kLanes) {
    lane.repair_keys.push_back(m.program.repair_toggles[k]);
  }
  for (size_t k = static_cast<size_t>(index);
       k < m.program.rebuild_toggles.size(); k += kLanes) {
    lane.rebuild_keys.push_back(m.program.rebuild_toggles[k]);
  }
  lane.repair_present.assign(lane.repair_keys.size(), 1);
  lane.rebuild_present.assign(lane.rebuild_keys.size(), 1);
  return lane;
}

StatusOr<std::vector<Lane>> ConnectLanes(const Material& m, uint64_t seed) {
  std::vector<Lane> lanes;
  for (int i = 0; i < kLanes; ++i) {
    lanes.push_back(MakeLane(m, i, seed));
    RELSPEC_ASSIGN_OR_RETURN(lanes.back().client,
                             ServeClient::ConnectUnix(kSocket));
  }
  return lanes;
}

void CollectLaneChecks(std::vector<Lane>* lanes, Report* report) {
  for (Lane& lane : *lanes) {
    report->Attempt(lane.attempted);
    for (uint64_t i = 0; i < lane.failed; ++i) {
      report->Fail("lane " + std::to_string(lane.index) + ": " +
                   lane.first_failure);
    }
    lane.attempted = 0;
    lane.failed = 0;
  }
}

// --- set-up ------------------------------------------------------------------

struct Session {
  Material material;
  Daemon daemon;
  std::vector<Lane> lanes;
};

/// Generates the material, writes the program, (re)starts the daemon and
/// connects the lanes.
Status SetUp(const Options& options, const CoreSets& cores, bool write,
             bool traced, int generation, Session* s) {
  s->material = MakeMaterial(options, write);
  if (!write) RELSPEC_RETURN_NOT_OK(ComputeExpectations(&s->material));
  FILE* f = fopen(kProgramFile, "w");
  if (f == nullptr) return Status::Internal("cannot write the program file");
  fputs(s->material.program.source.c_str(), f);
  fclose(f);
  if (write) RemoveWalFiles();
  RELSPEC_ASSIGN_OR_RETURN(s->daemon,
                           StartDaemon(options, cores, write, traced, generation));
  RELSPEC_ASSIGN_OR_RETURN(s->lanes,
                           ConnectLanes(s->material, options.seed));
  return Status::OK();
}

void TearDown(Session* s) {
  s->lanes.clear();
  StopDaemon(&s->daemon);
}

/// serve_write: one last toggle from the main thread (so "last acked" is
/// unambiguous), SIGKILL, then recovery must land on that fingerprint.
void CheckRecovery(Session* s, Report* report) {
  report->Attempt();
  Lane& lane = s->lanes[0];
  const Zipf zipf(s->material.queries.size(), kZipfSkew);
  Op op = NextOp(s->material, zipf, true, &lane);
  while (op.type != kUpdate) op = NextOp(s->material, zipf, true, &lane);
  const uint64_t before = lane.failed;
  Execute(s->material, true, op, &lane);
  report->Attempt(lane.attempted);
  lane.attempted = 0;
  if (lane.failed != before) {
    report->Fail("final update: " + lane.first_failure);
    return;
  }
  const uint64_t acked = lane.last_fingerprint;
  kill(s->daemon.pid, SIGKILL);
  WaitExit(s->daemon.pid);
  s->daemon.pid = -1;
  s->lanes.clear();
  // relspecd anchors durable mode on the rendered program.
  auto parsed = relspec::Parse(s->material.program.source);
  if (!parsed.ok()) {
    report->Fail("reparse: " + parsed.status().ToString());
    return;
  }
  relspec::DurableOptions durable;
  durable.wal.fsync = relspec::FsyncMode::kAlways;
  durable.checkpoint_every = kCheckpointEvery;
  relspec::RecoveryStats recovery;
  auto db = relspec::FunctionalDatabase::OpenDurable(
      relspec::ToString(parsed->program), kWal, durable, {}, &recovery);
  if (!db.ok()) {
    report->Fail("recovery: " + db.status().ToString());
  } else if ((*db)->Fingerprint() != acked) {
    report->Fail("recovered fingerprint differs from the last ack");
  }
  fprintf(stderr,
          "perfbench: recovery: checkpoint_loaded=%d used_fallback=%d "
          "replayed=%llu\n",
          recovery.checkpoint_loaded ? 1 : 0, recovery.used_fallback ? 1 : 0,
          static_cast<unsigned long long>(recovery.replayed_batches));
}

// --- traced-run helpers ----------------------------------------------------

uint64_t JsonU64(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

struct SlowlogPhases {
  double parse = 0, cache = 0, eval = 0, render = 0, write = 0, total = 0;
  double outside = 0;
  uint64_t joined = 0;
};

/// Joins the daemon's slow log with the client samples by trace ID and
/// averages each phase over the measured requests.
SlowlogPhases JoinSlowlog(const std::string& jsonl,
                          const std::vector<Sample>& samples) {
  std::map<uint64_t, double> rtt;
  for (const Sample& s : samples) rtt[s.id] = s.rtt_us;
  SlowlogPhases p;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    pos = end + 1;
    auto it = rtt.find(JsonU64(line, "trace_id"));
    if (it == rtt.end()) continue;
    const double total = JsonU64(line, "total_ns") / 1000.0;
    p.parse += JsonU64(line, "parse_ns") / 1000.0;
    p.cache += JsonU64(line, "cache_ns") / 1000.0;
    p.eval += JsonU64(line, "eval_ns") / 1000.0;
    p.render += JsonU64(line, "render_ns") / 1000.0;
    p.write += JsonU64(line, "write_ns") / 1000.0;
    p.total += total;
    p.outside += it->second - total;
    ++p.joined;
  }
  if (p.joined > 0) {
    const double n = static_cast<double>(p.joined);
    p.parse /= n;
    p.cache /= n;
    p.eval /= n;
    p.render /= n;
    p.write /= n;
    p.total /= n;
    p.outside /= n;
  }
  return p;
}

StatusOr<relspec::MetricsSnapshot> DaemonStats() {
  RELSPEC_ASSIGN_OR_RETURN(auto client, ServeClient::ConnectUnix(kSocket));
  RELSPEC_ASSIGN_OR_RETURN(std::string json, client->Stats());
  return relspec::MetricsSnapshot::FromJson(json);
}

/// Per-call layer costs from the in-process replay.
struct Replay {
  std::vector<double> codec, parse, answer, render, holds;
  std::vector<double> apply, spec_rebuild, deleted_bits;
  uint64_t updates = 0, rebuilt = 0, delta_bytes = 0;
};

/// Replays lane 0's request stream in-process, timing each layer's calls.
Status RunReplay(const Options& options, const Material& m, bool write,
                 double seconds, Replay* r, Report* report) {
  std::unique_ptr<relspec::FunctionalDatabase> db;
  if (write) {
    relspec::DurableOptions durable;
    durable.wal.fsync = relspec::FsyncMode::kAlways;
    durable.checkpoint_every = kCheckpointEvery;
    RemoveWalFiles();
    RELSPEC_ASSIGN_OR_RETURN(auto parsed, relspec::Parse(m.program.source));
    RELSPEC_ASSIGN_OR_RETURN(
        db, relspec::FunctionalDatabase::OpenDurable(
                relspec::ToString(parsed.program), kWal, durable));
  } else {
    RELSPEC_ASSIGN_OR_RETURN(
        db, relspec::FunctionalDatabase::FromSource(m.program.source));
  }
  RELSPEC_ASSIGN_OR_RETURN(relspec::GraphSpecification spec,
                           db->BuildGraphSpec());
  relspec::QueryCache cache;
  Lane lane = MakeLane(m, 0, options.seed);
  const Zipf zipf(m.queries.size(), kZipfSkew);
  const auto start = Clock::now();
  uint64_t id = 0;
  while (SecondsSince(start) < seconds) {
    const Op op = NextOp(m, zipf, write, &lane);
    ++id;
    report->Attempt();
    RELSPEC_TRACE_SPAN1("perfbench", "replay.request", "request", id);
    // Wire codec: request and response frames, both directions.
    const RequestType type = op.type == kMembership ? RequestType::kMembership
                             : op.type == kQuery    ? RequestType::kQuery
                                                    : RequestType::kUpdate;
    std::string reply_body;
    auto t0 = Clock::now();
    {
      RELSPEC_TRACE_SPAN1("perfbench", "protocol.codec", "request", id);
      relspec::serve::RequestHeader h;
      h.type = type;
      h.request_id = id;
      const std::string frame = relspec::serve::EncodeRequest(h, op.payload);
      relspec::serve::RequestHeader back;
      std::string_view payload;
      if (!relspec::serve::DecodeRequest(frame, &back, &payload).ok()) {
        report->Fail("request codec round trip");
      }
    }
    double codec = UsSince(t0);
    switch (op.type) {
      case kMembership: {
        relspec::Program scratch;
        t0 = Clock::now();
        StatusOr<relspec::Query> q = Status::Internal("not run");
        {
          RELSPEC_TRACE_SPAN1("perfbench", "parser.parse_query", "request", id);
          scratch.symbols = spec.symbols();
          q = relspec::ParseQuery("? " + op.payload + ".", &scratch);
        }
        r->parse.push_back(UsSince(t0));
        if (!q.ok()) {
          report->Fail("replay parse: " + q.status().ToString());
          break;
        }
        auto pure = relspec::PurifyGroundTerm(*q->atoms[0].fterm,
                                              &scratch.symbols);
        if (!pure.ok()) {
          report->Fail("replay purify: " + pure.status().ToString());
          break;
        }
        std::vector<relspec::FuncId> syms;
        for (const relspec::FuncApply& a : pure->apps) syms.push_back(a.fn);
        std::vector<relspec::ConstId> args;
        for (const relspec::NfArg& a : q->atoms[0].args) args.push_back(a.id);
        const relspec::Path path(std::move(syms));
        t0 = Clock::now();
        bool holds = false;
        {
          RELSPEC_TRACE_SPAN1("perfbench", "spec.holds", "request", id);
          holds = spec.Holds(path, q->atoms[0].pred, args);
        }
        r->holds.push_back(UsSince(t0));
        if (!write && holds != (m.expected_member[op.rank] != 0)) {
          report->Fail("replay membership differs");
        }
        reply_body.assign(1, holds ? '\1' : '\0');
        break;
      }
      case kQuery: {
        t0 = Clock::now();
        StatusOr<relspec::Query> q = Status::Internal("not run");
        {
          RELSPEC_TRACE_SPAN1("perfbench", "parser.parse_query", "request", id);
          q = relspec::ParseQuery(op.payload, db->mutable_program());
        }
        r->parse.push_back(UsSince(t0));
        if (!q.ok()) {
          report->Fail("replay parse: " + q.status().ToString());
          break;
        }
        t0 = Clock::now();
        StatusOr<std::shared_ptr<const relspec::QueryAnswer>> answer =
            Status::Internal("not run");
        {
          RELSPEC_TRACE_SPAN1("perfbench", "query.answer_cached", "request", id);
          answer = relspec::AnswerQueryCached(db.get(), *q, &cache);
        }
        r->answer.push_back(UsSince(t0));
        if (!answer.ok()) {
          report->Fail("replay answer: " + answer.status().ToString());
          break;
        }
        t0 = Clock::now();
        {
          RELSPEC_TRACE_SPAN1("perfbench", "protocol.render", "request", id);
          relspec::serve::QueryResult result;
          result.spec_tuples = (*answer)->NumSpecTuples();
          result.functional = (*answer)->has_functional_answer();
          result.text = relspec::serve::RenderAnswerText(**answer);
          reply_body = relspec::serve::EncodeQueryResult(result);
        }
        r->render.push_back(UsSince(t0));
        if (!write && reply_body != m.expected_query[op.rank]) {
          report->Fail("replay query reply differs");
        }
        break;
      }
      case kUpdate: {
        t0 = Clock::now();
        StatusOr<relspec::DeltaStats> stats = Status::Internal("not run");
        {
          RELSPEC_TRACE_SPAN1("perfbench", "engine.apply_deltas", "request", id);
          stats = db->LogAndApplyDeltas(op.payload);
        }
        r->apply.push_back(UsSince(t0));
        if (!stats.ok() || stats->inserted + stats->deleted != 1) {
          report->Fail("replay update " + op.payload);
          break;
        }
        (op.rebuild ? lane.rebuild_present : lane.repair_present)[op.toggle] ^= 1;
        t0 = Clock::now();
        StatusOr<relspec::GraphSpecification> rebuilt =
            Status::Internal("not run");
        {
          RELSPEC_TRACE_SPAN1("perfbench", "core.graph_spec_rebuild", "request",
                              id);
          rebuilt = db->BuildGraphSpec();
        }
        r->spec_rebuild.push_back(UsSince(t0));
        if (!rebuilt.ok()) {
          report->Fail("replay spec rebuild");
          break;
        }
        spec = std::move(rebuilt).value();
        ++r->updates;
        if (stats->rebuilt) ++r->rebuilt;
        r->deleted_bits.push_back(static_cast<double>(stats->deleted_bits));
        r->delta_bytes += op.payload.size();
        relspec::serve::UpdateResult result;
        result.fingerprint = db->Fingerprint();
        result.durable = true;
        reply_body = relspec::serve::EncodeUpdateResult(result);
        break;
      }
      case kNumOps:
        break;
    }
    t0 = Clock::now();
    {
      RELSPEC_TRACE_SPAN1("perfbench", "protocol.codec", "request", id);
      relspec::serve::ResponseHeader h;
      h.request_id = id;
      const std::string frame = relspec::serve::EncodeResponse(h, reply_body);
      relspec::serve::ResponseHeader back;
      std::string_view payload;
      if (!relspec::serve::DecodeResponse(frame, &back, &payload).ok()) {
        report->Fail("response codec round trip");
      }
      if (op.type == kQuery) relspec::serve::DecodeQueryResult(payload);
      if (op.type == kUpdate) relspec::serve::DecodeUpdateResult(payload);
    }
    codec += UsSince(t0);
    r->codec.push_back(codec);
  }
  // At least one timed checkpoint, however short the replay was.
  if (write) RELSPEC_RETURN_NOT_OK(db->Checkpoint());
  return Status::OK();
}

// --- the workloads -----------------------------------------------------------

void PrintServeConfig(const Options& options, const CoreSets& cores,
                      bool write) {
  PrintConfigLine(
      options, CpuListString(cores.client), CpuListString(cores.daemon),
      {{"load", "closed loop, 2 synchronous clients, relspecd --threads 2"},
       {"mix", write ? "20% updates, 40% membership, 40% queries"
                     : "50% membership, 50% queries"},
       {"fsync", write ? "always, checkpoint every 64 batches" : "none"}});
}

/// The untraced load: set-up (three times, the last one is used), the
/// closed loop, then teardown or, for serve_write, the recovery check.
struct Measured {
  std::vector<double> setup_s;
  LoadResult load;
  double daemon_rss_mb = 0;
};

Status MeasureLoad(const Options& options, const CoreSets& cores, bool write,
                   int setup_reps, double seconds, Measured* out,
                   Report* report) {
  // A previous run's socket must not leak in.
  std::remove(kSocket);
  Session session;
  for (int r = 0; r < setup_reps; ++r) {
    if (r > 0) TearDown(&session);
    const auto start = Clock::now();
    Status up = SetUp(options, cores, write, false, r, &session);
    out->setup_s.push_back(SecondsSince(start));
    if (!up.ok()) {
      TearDown(&session);
      return up;
    }
  }
  LoadSpec spec;
  spec.write = write;
  spec.warmup_s = std::min(1.0, seconds / 10);
  spec.seconds = seconds;
  out->load = RunLoad(session.material, spec, cores, &session.lanes);
  out->daemon_rss_mb = PeakRssMbOf(session.daemon.pid);
  CollectLaneChecks(&session.lanes, report);
  uint64_t rebuilt = 0, effective = 0;
  for (const Lane& lane : session.lanes) {
    rebuilt += lane.rebuilt;
    effective += lane.effective_updates;
  }
  fprintf(stderr, "perfbench: %zu ops, %llu effective updates, %llu rebuilt\n",
          out->load.samples.size(),
          static_cast<unsigned long long>(effective),
          static_cast<unsigned long long>(rebuilt));
  if (write) {
    CheckRecovery(&session, report);
  } else {
    TearDown(&session);
  }
  return Status::OK();
}

int RunServe(const Options& options, bool write) {
  signal(SIGPIPE, SIG_IGN);
  Report report;
  const CoreSets cores = ChooseCoreSets();
  PrintServeConfig(options, cores, write);
  Measured m;
  Status done = MeasureLoad(options, cores, write, options.smoke ? 1 : 5,
                            options.seconds, &m, &report);
  if (!done.ok()) {
    fprintf(stderr, "perfbench: %s\n", done.ToString().c_str());
    return 1;
  }
  const std::vector<Window> windows = LoadWindows(m.load, kNumOps);
  const WindowSummary kept = Summarize(windows, FastWindows(windows));
  report.Add("ops_per_s", kept.ops_per_s, "1/s");
  report.Add("latency_p50_us", Quantile(kept.latency_us, 0.5), "us");
  report.Add("setup_s", Median(m.setup_s), "s");
  report.Add("peak_rss_mb", m.daemon_rss_mb, "MB");
  report.Print();
  return 0;
}

}  // namespace

int RunServeRead(const Options& options) { return RunServe(options, false); }
int RunServeWrite(const Options& options) { return RunServe(options, true); }

void ServeLayers(const Options& options, bool write, double seconds,
                 bool named, Report* report) {
  signal(SIGPIPE, SIG_IGN);
  const CoreSets cores = ChooseCoreSets();
  const char* prefix = write ? "serve_write: " : "serve_read: ";
  // Phase A: the untraced daemon, for the per-type latencies and the
  // baseline of trace.overhead_pct.
  Measured m;
  report->Attempt();
  Status done = MeasureLoad(options, cores, write, 1, seconds / 3, &m, report);
  if (!done.ok()) {
    report->Fail(prefix + done.ToString());
    return;
  }
  // Per-type latencies over the same fast windows as the whole mix.
  const std::vector<bool> keep = FastWindows(LoadWindows(m.load, kNumOps));
  auto latencies = [&](OpType type) {
    return Summarize(LoadWindows(m.load, type), keep).latency_us;
  };
  if (write) {
    const std::vector<double> update = latencies(kUpdate);
    report->Add("update_p50_us", Quantile(update, 0.5), "us");
    report->Add("update_p99_us", Quantile(update, 0.99), "us");
  } else {
    const std::vector<double> member = latencies(kMembership);
    const std::vector<double> query = latencies(kQuery);
    report->Add("membership_p50_us", Quantile(member, 0.5), "us");
    report->Add("membership_p99_us", Quantile(member, 0.99), "us");
    report->Add("query_p50_us", Quantile(query, 0.5), "us");
    report->Add("query_p99_us", Quantile(query, 0.99), "us");
  }

  // Phase B: the traced daemon. It serves fewer requests than its slow-log
  // ring holds (4096), so the drain flush holds every one of them.
  for (const char* f : {"relspecd.trace.json", "relspecd.slowlog.jsonl",
                        "relspecd.stats.json"}) {
    std::remove(f);
  }
  Session session;
  Status up = SetUp(options, cores, write, true, 9, &session);
  if (!up.ok()) {
    report->Fail(prefix + std::string("traced set-up: ") + up.ToString());
    TearDown(&session);
    return;
  }
  LoadSpec traced;
  traced.write = write;
  traced.max_ops = options.smoke ? 100 : 1600;
  auto stats_before = DaemonStats();
  relspec::EnableEventTrace(true);
  LoadResult traced_load =
      RunLoad(session.material, traced, cores, &session.lanes);
  relspec::EnableEventTrace(false);
  auto stats_after = DaemonStats();
  CollectLaneChecks(&session.lanes, report);
  session.lanes.clear();
  report->Attempt();
  if (!StopDaemon(&session.daemon)) {
    report->Fail(prefix + std::string("traced relspecd did not drain"));
  }
  report->Attempt();
  CheckTraceFile(options, "relspecd.trace.json", report);
  const SlowlogPhases phases = JoinSlowlog(
      ReadFileOrEmpty("relspecd.slowlog.jsonl"), traced_load.samples);
  report->Attempt();
  if (phases.joined != traced_load.samples.size()) {
    report->Fail(prefix + std::string("slow log holds ") +
                 std::to_string(phases.joined) + " of " +
                 std::to_string(traced_load.samples.size()) + " requests");
  }
  if (!write) {
    report->Add("serve.parse_us", phases.parse, "us");
    report->Add("serve.cache_us", phases.cache, "us");
    report->Add("serve.eval_us", phases.eval, "us");
    report->Add("serve.render_us", phases.render, "us");
    report->Add("serve.write_us", phases.write, "us");
    report->Add("serve.server_total_us", phases.total, "us");
    report->Add("serve.outside_server_us", phases.outside, "us");
    report->Attempt();
    if (stats_before.ok() && stats_after.ok()) {
      auto delta = [&](const char* name) {
        return static_cast<double>(stats_after->counter(name) -
                                   stats_before->counter(name));
      };
      const double lookups = delta("cache.hit") + delta("cache.miss");
      report->Add("cache.hit_ratio",
                  lookups > 0 ? delta("cache.hit") / lookups : 0, "ratio");
      report->Add("cache.evictions", delta("cache.evict"), "count");
    } else {
      report->Fail("daemon stats unavailable");
    }
  }

  // Phase C: the in-process replay, with the registry on for the WAL.
  relspec::MetricsRegistry::Global().Reset();
  relspec::EnableMetrics(true);
  relspec::EnableEventTrace(true);
  Replay replay;
  report->Attempt();
  Status replayed =
      RunReplay(options, session.material, write, seconds / 3, &replay, report);
  relspec::EnableEventTrace(false);
  relspec::EnableMetrics(false);
  if (!replayed.ok()) report->Fail(prefix + replayed.ToString());
  const relspec::MetricsSnapshot local =
      relspec::MetricsRegistry::Global().Snapshot();
  if (!write) {
    report->Add("protocol.codec_us", Mean(replay.codec), "us");
    report->Add("parser.parse_query_us", Mean(replay.parse), "us");
    report->Add("query.answer_cached_us", Mean(replay.answer), "us");
    report->Add("protocol.render_us", Mean(replay.render), "us");
    report->Add("spec.holds_us", Mean(replay.holds), "us");
  } else {
    report->Add("engine.apply_deltas_us", Median(replay.apply), "us");
    report->Add("core.graph_spec_rebuild_us", Median(replay.spec_rebuild),
                "us");
    report->Add("delta.rebuilt_ratio",
                replay.updates > 0 ? static_cast<double>(replay.rebuilt) /
                                         static_cast<double>(replay.updates)
                                   : 0,
                "ratio");
    report->Add("delta.deleted_bits", Mean(replay.deleted_bits), "count");
    report->Add("wal.bytes_per_update_byte",
                replay.delta_bytes > 0
                    ? static_cast<double>(local.counter("wal.appended_bytes")) /
                          static_cast<double>(replay.delta_bytes)
                    : 0,
                "ratio");
    const relspec::HistogramSnapshot* fsync = local.histogram("wal.fsync_ns");
    report->Add("wal.fsync_p50_us",
                fsync ? fsync->ValueAtQuantile(0.5) / 1000.0 : 0, "us");
    report->Add("wal.fsync_p99_us",
                fsync ? fsync->ValueAtQuantile(0.99) / 1000.0 : 0, "us");
    const relspec::PhaseSnapshot* ckpt = local.phase("wal.checkpoint");
    report->Add("wal.checkpoint_ms",
                ckpt && ckpt->count > 0
                    ? static_cast<double>(ckpt->total_ns) /
                          static_cast<double>(ckpt->count) / 1e6
                    : 0,
                "ms");
    RemoveWalFiles();
  }
  if (named) {
    const double base = Mean(AllLatencies(m.load));
    report->Add("trace.overhead_pct",
                base > 0 ? (Mean(AllLatencies(traced_load)) - base) / base * 100.0
                         : 0,
                "%");
  }
}

}  // namespace perfbench
