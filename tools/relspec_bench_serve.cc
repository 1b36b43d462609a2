// relspec_bench_serve: open-loop serving-SLO load harness.
//
// Replays a deterministic mixed request stream against an in-process engine
// and reports latency percentiles plus error/breach counts as a
// machine-readable BENCH_serve.json (schema relspec-bench-v1, directly
// consumable by tools/bench_compare). See docs/SERVING.md.
//
//   relspec_bench_serve [PROGRAM.rsp] [flags]
//
// The request schedule (arrival time, request type, key) is precomputed from
// --seed before any client starts, so the stream is byte-deterministic for a
// fixed seed: --dump-requests writes it out and the report embeds a
// request_seq_hash over it. Arrivals are open-loop — evenly spaced at the
// target QPS, independent of completions — and each request's latency is
// measured from its *scheduled* arrival, so queueing delay when the engine
// falls behind is included (no coordinated omission).
//
// Request types (weights set by --mix):
//   membership  GraphSpecification::Holds on a precomputed probe fact
//   cached      AnswerQueryCached through a per-client QueryCache
//   uncached    AnswerQuery with no cache (uniform or successor-step
//               shape, depending on the key)
//   snapshot    warm-start: parse the binary snapshot, then one Holds
//   update      FunctionalDatabase::ApplyDeltas toggling one base fact
//               (delete if present, re-insert otherwise) on this lane's
//               engine — edit, then rebuild, under live load
//               (docs/INCREMENTAL.md); weight 0 by default
//
// Durable updates (--wal PREFIX): each lane opens its engine through a
// write-ahead log at PREFIX.laneN.rwal and update requests go through
// LogAndApplyDeltas, so the update latency quantiles include the WAL append
// and fsync cost under the --fsync policy (docs/DURABILITY.md). After the
// run, every lane's log is closed and recovered from scratch; a recovered
// fingerprint that differs from the lane's final in-memory fingerprint is a
// harness failure, so the report doubles as a durability check.
//
// Daemon replay (--connect ADDR): the same precomputed stream is shipped to a
// running relspecd over the RSRV protocol (src/serve/protocol.h) instead of
// being executed in-process — membership and snapshot requests become wire
// membership lookups, cached/uncached become wire queries, updates become
// wire deltas. The per-type answer mixing is identical, so an update-free mix
// replayed against a daemon serving the same program produces the same
// answers_hash as the in-process run (the acceptance check in
// tools/check_serve.sh daemon mode relies on this). See docs/DAEMON.md.
//
// Each client lane owns its own FunctionalDatabase, GraphSpecification and
// QueryCache (the cache and parts of the engine are documented
// not-thread-safe); each lane runs on its own thread, named client-N in the
// Perfetto timeline. Requests slower than --slow-ms emit a "slow_request"
// instant into the trace.
//
// Per-request SLO: --deadline-ms / --request-max-tuples construct a fresh
// ResourceGovernor per request. A breach is an *error reply* counted in the
// report ("requests.breaches"), never a process exit — the harness exits 0
// as long as the run itself completed.
//
// Exit codes: 0 run completed (even with error replies), 2 usage,
// 3 I/O error, 4 program parse/build error.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/ast/printer.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/term/path.h"

namespace relspec {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitParse = 4;

enum RequestType : uint8_t {
  kMembership = 0,
  kCached = 1,
  kUncached = 2,
  kSnapshot = 3,
  kUpdate = 4,
};
constexpr const char* kTypeNames[] = {"membership", "cached", "uncached",
                                      "snapshot", "update"};
constexpr int kNumTypes = 5;

struct Options {
  std::string program_file;  // empty: builtin rotation program
  int rotation = 8;
  double qps = 2000.0;
  int clients = 2;
  int64_t duration_ms = 1000;
  uint64_t requests = 0;  // 0: derived from qps * duration
  uint64_t seed = 42;
  double zipf = 0.99;
  int population = 64;
  // The default update weight is 0 so existing seeds keep byte-identical
  // schedules (BuildSchedule draws `pick % weight_sum` and the sum stays 100).
  uint64_t mix[kNumTypes] = {60, 25, 10, 5, 0};
  int64_t slow_ms = 10;
  int64_t deadline_ms = 0;          // per-request; 0 = off
  uint64_t request_max_tuples = 0;  // per-request; 0 = off
  std::string out_file = "BENCH_serve.json";
  /// Suite name for the embedded relspec-bench-v1 block; a durable CI
  /// replay sets its own name so bench_compare gates it against the
  /// matching baseline suite instead of the plain-serve numbers.
  std::string suite_name = "bench_serve";
  std::string trace_file;
  std::string stats_file;  // "-" = stdout
  bool want_stats = false;
  std::string dump_requests_file;
  /// Durable updates: when set, lane i serves through a WAL at
  /// PREFIX.lane<i>.rwal and update requests are logged before they are
  /// acknowledged (stale logs from earlier runs are removed first, so the
  /// schedule stays deterministic).
  std::string wal_prefix;
  DurableOptions durable;
  /// Daemon replay: when set, every lane connects to a running relspecd at
  /// this address (unix path or host:port) and requests go over the RSRV
  /// protocol instead of in-process calls. The PROGRAM/--rotation flags
  /// must describe the same program the daemon serves; the per-key request
  /// material (probe facts, query text, deltas) is still derived locally,
  /// so an update-free mix replays to the same answers_hash as in-process
  /// mode. Mixes with updates are still deterministic across daemon replays
  /// at --clients 1, but diverge from in-process: the daemon rebuilds its
  /// spec after every update, while in-process lanes probe a spec built at
  /// setup. See docs/DAEMON.md.
  std::string connect;
};

void PrintHelp() {
  printf(
      "relspec_bench_serve - open-loop serving-SLO load harness\n"
      "\n"
      "usage: relspec_bench_serve [PROGRAM.rsp] [flags]\n"
      "\n"
      "With no PROGRAM.rsp a builtin k-team rotation program is served\n"
      "(--rotation sets k). The request stream is precomputed from --seed\n"
      "and is byte-identical across runs with the same flags.\n"
      "\n"
      "load shape:\n"
      "  --qps N                       target request rate (default 2000)\n"
      "  --clients N                   client lanes, one thread each\n"
      "                                (default 2)\n"
      "  --duration-ms N               run length; request count is\n"
      "                                qps * duration (default 1000)\n"
      "  --requests N                  exact request count (overrides\n"
      "                                --duration-ms)\n"
      "  --seed N                      PRNG seed for the schedule (default 42)\n"
      "  --zipf S                      Zipf skew exponent for key popularity\n"
      "                                (default 0.99; 0 = uniform)\n"
      "  --population N                number of distinct request keys\n"
      "                                (default 64)\n"
      "  --mix T=W,...                 request-type weights, e.g.\n"
      "                                membership=60,cached=25,uncached=10,\n"
      "                                snapshot=5,update=0 (the default;\n"
      "                                update requests apply base-fact deltas\n"
      "                                and run ungoverned, see\n"
      "                                docs/INCREMENTAL.md)\n"
      "\n"
      "durable updates:\n"
      "  --wal PREFIX                  open each lane's engine through a\n"
      "                                write-ahead log at PREFIX.laneN.rwal;\n"
      "                                update requests are logged before they\n"
      "                                are acknowledged, and every lane's log\n"
      "                                is recovered and fingerprint-checked\n"
      "                                after the run (docs/DURABILITY.md)\n"
      "  --fsync always|batch|off      WAL durability policy (default always)\n"
      "  --checkpoint-every N          checkpoint + rotate a lane's log after\n"
      "                                every N logged batches (default 0)\n"
      "\n"
      "daemon replay:\n"
      "  --connect ADDR                replay the stream against a running\n"
      "                                relspecd (unix path or host:port) over\n"
      "                                the RSRV protocol instead of\n"
      "                                in-process calls; PROGRAM/--rotation\n"
      "                                must match the daemon's program, and\n"
      "                                an update-free mix reproduces the\n"
      "                                in-process answers_hash exactly\n"
      "                                (docs/DAEMON.md); excludes --wal\n"
      "\n"
      "per-request SLO:\n"
      "  --deadline-ms N               per-request deadline; a breach is an\n"
      "                                error reply, not a process exit\n"
      "  --request-max-tuples N        per-request derived-tuple budget\n"
      "                                (deterministic breach for tests)\n"
      "  --slow-ms N                   requests slower than this emit a\n"
      "                                slow_request trace instant (default\n"
      "                                10; 0 marks every request)\n"
      "\n"
      "output:\n"
      "  --out FILE                    machine-readable report (default\n"
      "                                BENCH_serve.json)\n"
      "  --suite-name NAME             suite name for the report's embedded\n"
      "                                relspec-bench-v1 block (default\n"
      "                                bench_serve; the CI durable replay\n"
      "                                uses bench_serve_durable)\n"
      "  --dump-requests FILE          write the precomputed schedule, one\n"
      "                                'seq arrival_us type key' line per\n"
      "                                request (determinism checks)\n"
      "  --trace-out FILE              write a Chrome trace-event JSON\n"
      "                                timeline of the run\n"
      "  --stats[=FILE]                dump the full metrics registry JSON\n"
      "  --help                        this text\n");
}

int Usage(const std::string& msg) {
  fprintf(stderr, "relspec_bench_serve: %s\n(--help for usage)\n",
          msg.c_str());
  return kExitUsage;
}

// --- deterministic PRNG -----------------------------------------------------

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NextUnit(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

// --- request schedule -------------------------------------------------------

struct Request {
  uint64_t arrival_ns = 0;
  uint32_t key = 0;
  RequestType type = kMembership;
};

/// Zipf(s) sampler over [0, n): precomputed CDF + binary search.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Sample(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::vector<Request> BuildSchedule(const Options& opt, uint64_t total) {
  std::vector<Request> reqs(total);
  ZipfSampler zipf(opt.population, opt.zipf);
  uint64_t weight_sum = 0;
  for (uint64_t w : opt.mix) weight_sum += w;
  uint64_t rng = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
  const double ns_per_req = 1e9 / opt.qps;
  for (uint64_t i = 0; i < total; ++i) {
    Request& r = reqs[i];
    r.arrival_ns = static_cast<uint64_t>(static_cast<double>(i) * ns_per_req);
    uint64_t pick = SplitMix64(&rng) % weight_sum;
    int type = 0;
    for (; type < kNumTypes - 1; ++type) {
      if (pick < opt.mix[type]) break;
      pick -= opt.mix[type];
    }
    r.type = static_cast<RequestType>(type);
    r.key = zipf.Sample(NextUnit(&rng));
  }
  return reqs;
}

uint64_t HashSchedule(const std::vector<Request>& reqs) {
  uint64_t h = 0x243f6a8885a308d3ULL;  // pi
  for (size_t i = 0; i < reqs.size(); ++i) {
    uint64_t mixed = h ^ (static_cast<uint64_t>(i) << 40) ^
                     (static_cast<uint64_t>(reqs[i].type) << 32) ^
                     (static_cast<uint64_t>(reqs[i].key) << 1) ^
                     reqs[i].arrival_ns;
    h = SplitMix64(&mixed);
  }
  return h;
}

// --- workload ---------------------------------------------------------------

/// Per-key request material, derived once from a prototype engine build and
/// shared read-only by every client lane.
struct Workload {
  std::string source;
  /// Membership probe for key k: Holds(path, pred, args) on the spec.
  struct Probe {
    Path path;
    PredId pred;
    std::vector<ConstId> args;
  };
  std::vector<Probe> probes;
  /// The same probes rendered as fact text ("Pred(f(g(0)), c)") — the
  /// --connect mode ships membership requests as text over the wire, and the
  /// daemon re-parses them against the same program, so Holds sees the same
  /// (path, pred, args) triple.
  std::vector<std::string> probe_text;
  /// Query text for key k (parsed per client; ~1 in 5 keys get a
  /// non-uniform shape whose atom sits one successor step above t).
  std::vector<std::string> queries;
  /// Serialized graph-spec snapshot (warm-start requests re-parse it).
  std::string snapshot_bytes;
  /// Per-key base fact for update requests (taken from the program's own
  /// facts, so every delta is valid and the grounded universe never grows).
  /// Empty when the update weight is 0.
  std::vector<Atom> delta_facts;
  /// The same facts rendered as source text — durable lanes log deltas
  /// through LogAndApplyDeltas, which takes delta *text*.
  std::vector<std::string> delta_fact_text;
};

std::string RenderTerm(const std::string& func_name, const std::string& base) {
  // "+1"-style suffix operators render as base+1; ordinary symbols as f(base).
  if (!func_name.empty() && func_name[0] == '+') return base + func_name;
  return func_name + "(" + base + ")";
}

bool UsableConstant(const std::string& name) {
  // Must re-parse as a constant token: lowercase start outside the variable
  // range [s-z].
  return !name.empty() && name[0] >= 'a' && name[0] < 's';
}

bool UsablePredicate(const std::string& name) {
  if (name.empty() || name[0] < 'A' || name[0] > 'Z') return false;
  for (char c : name) {
    if (!isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

StatusOr<Workload> BuildWorkload(const Options& opt, std::string source) {
  Workload w;
  w.source = std::move(source);

  RELSPEC_ASSIGN_OR_RETURN(std::unique_ptr<FunctionalDatabase> db,
                           FunctionalDatabase::FromSource(w.source));
  RELSPEC_ASSIGN_OR_RETURN(GraphSpecification spec, db->BuildGraphSpec());
  w.snapshot_bytes = Snapshot::Serialize(spec);

  const SymbolTable& sym = spec.symbols();
  std::vector<PredId> fpreds;
  for (PredId p = 0; p < sym.num_predicates(); ++p) {
    if (sym.predicate(p).functional && UsablePredicate(sym.predicate(p).name)) {
      fpreds.push_back(p);
    }
  }
  if (fpreds.empty()) {
    return Status::InvalidArgument(
        "program has no queryable functional predicate");
  }
  std::vector<ConstId> consts;
  for (ConstId c = 0; c < sym.num_constants(); ++c) {
    if (UsableConstant(sym.constant_name(c))) consts.push_back(c);
  }
  const std::vector<FuncId>& alphabet = spec.alphabet();

  w.probes.reserve(static_cast<size_t>(opt.population));
  w.queries.reserve(static_cast<size_t>(opt.population));
  for (int k = 0; k < opt.population; ++k) {
    uint64_t rng = opt.seed ^ (0xabcdef12345678ULL + static_cast<uint64_t>(k));
    SplitMix64(&rng);

    // Membership probe: a pseudo-random path (bounded depth) and a
    // pseudo-random argument tuple. Probes that answer false are as useful
    // as ones that answer true — both exercise the Link walk.
    Workload::Probe probe;
    probe.pred = fpreds[SplitMix64(&rng) % fpreds.size()];
    if (!alphabet.empty()) {
      int depth = static_cast<int>(SplitMix64(&rng) % 12);
      std::vector<FuncId> syms(static_cast<size_t>(depth));
      for (FuncId& f : syms) f = alphabet[SplitMix64(&rng) % alphabet.size()];
      probe.path = Path(std::move(syms));
    }
    int arity = sym.predicate(probe.pred).arity;
    for (int a = 1; a < arity; ++a) {
      if (consts.empty()) break;
      probe.args.push_back(consts[SplitMix64(&rng) % consts.size()]);
    }
    // Rendered form of the same probe. Path symbols are innermost-first, so
    // folding RenderTerm over them rebuilds the nested term left to right:
    // [f, g] -> g(f(0)). Requires a surface-renderable alphabet, the same
    // constraint the successor-step query shape below already imposes.
    std::string term = "0";
    for (FuncId f : probe.path.symbols()) {
      term = RenderTerm(sym.function(f).name, term);
    }
    std::string fact = sym.predicate(probe.pred).name + "(" + term;
    for (ConstId carg : probe.args) fact += ", " + sym.constant_name(carg);
    fact += ")";
    w.probe_text.push_back(std::move(fact));
    w.probes.push_back(std::move(probe));

    // Query text. Shapes (per-key, fixed by the seed):
    //   A  ?(t, x1, ...) P(t, x1, ...).        full projection, uniform
    //   B  ?(t, ...) P(t, ..., c, ...).        one constant pin, uniform
    //   C  ?(x1, ...) P(f(t), x1, ...).        non-uniform, one successor step
    PredId qp = fpreds[SplitMix64(&rng) % fpreds.size()];
    int qarity = sym.predicate(qp).arity;
    uint64_t shape = SplitMix64(&rng) % 5;
    bool step_shape = shape == 4 && !alphabet.empty();
    int pin = (shape >= 2 && shape < 4 && qarity > 1 && !consts.empty())
                  ? static_cast<int>(1 + SplitMix64(&rng) %
                                             static_cast<uint64_t>(qarity - 1))
                  : -1;
    std::string head = "?(";
    std::string body = sym.predicate(qp).name + "(";
    std::string fterm = "t";
    if (step_shape) {
      fterm = RenderTerm(
          sym.function(alphabet[SplitMix64(&rng) % alphabet.size()]).name, "t");
    } else {
      head += "t";
    }
    body += fterm;
    for (int a = 1; a < qarity; ++a) {
      body += ", ";
      if (a == pin) {
        body += sym.constant_name(consts[SplitMix64(&rng) % consts.size()]);
      } else {
        std::string var = "x";
        var += std::to_string(a);
        body += var;
        if (head.size() > 2) head += ", ";
        head += var;
      }
    }
    if (head == "?(") head += "t";  // degenerate: keep at least one column
    w.queries.push_back(head + ") " + body + ").");
  }

  if (opt.mix[kUpdate] > 0) {
    const std::vector<Atom>& facts = db->original_program().facts;
    if (facts.empty()) {
      return Status::InvalidArgument(
          "update requests need a program with base facts");
    }
    w.delta_facts.reserve(static_cast<size_t>(opt.population));
    w.delta_fact_text.reserve(static_cast<size_t>(opt.population));
    for (int k = 0; k < opt.population; ++k) {
      uint64_t rng = opt.seed ^ (0x5bd1e9955bd1e995ULL + static_cast<uint64_t>(k));
      SplitMix64(&rng);
      w.delta_facts.push_back(facts[SplitMix64(&rng) % facts.size()]);
      w.delta_fact_text.push_back(
          ToString(w.delta_facts.back(), db->original_program().symbols));
    }
  }
  return w;
}

// --- per-client serving loop ------------------------------------------------

struct ClientState {
  std::unique_ptr<FunctionalDatabase> db;
  GraphSpecification spec;
  std::unique_ptr<QueryCache> cache;
  std::vector<Query> queries;  // parsed against this client's program
  /// --connect mode: this lane's RSRV connection to the daemon (the in-process
  /// members above stay empty).
  std::unique_ptr<serve::ServeClient> remote;
  /// Update-toggle state per key: true while the key's delta fact is present
  /// in this lane's program (all facts start present).
  std::vector<uint8_t> fact_present;

  uint64_t done = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t breaches = 0;
  uint64_t slow = 0;
  uint64_t by_type[kNumTypes] = {};
  uint64_t answers_hash = 0x6a09e667f3bcc908ULL;
  uint64_t last_end_ns = 0;
  Status fatal;  // setup failure for this lane
  std::string wal_path;  // durable mode: this lane's log
};

Status SetupClient(const Options& opt, const Workload& w, size_t lane,
                   ClientState* c) {
  if (!opt.connect.empty()) {
    // Daemon replay: no local engine at all — every lane is just a socket.
    RELSPEC_ASSIGN_OR_RETURN(c->remote,
                             serve::ServeClient::Connect(opt.connect));
    c->fact_present.assign(w.delta_facts.size(), 1);
    return Status::OK();
  }
  if (opt.wal_prefix.empty()) {
    RELSPEC_ASSIGN_OR_RETURN(c->db, FunctionalDatabase::FromSource(w.source));
  } else {
    c->wal_path = StrFormat("%s.lane%zu.rwal", opt.wal_prefix.c_str(), lane);
    // The bench always starts from a clean log: a stale WAL from an earlier
    // run would replay into this lane and break schedule determinism.
    const char* suffixes[] = {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev",
                              ".ckpt.tmp"};
    for (const char* suffix : suffixes) {
      std::remove((c->wal_path + suffix).c_str());
    }
    RELSPEC_ASSIGN_OR_RETURN(
        c->db,
        FunctionalDatabase::OpenDurable(w.source, c->wal_path, opt.durable));
  }
  RELSPEC_ASSIGN_OR_RETURN(c->spec, c->db->BuildGraphSpec());
  c->cache = std::make_unique<QueryCache>();
  c->queries.reserve(w.queries.size());
  for (const std::string& text : w.queries) {
    RELSPEC_ASSIGN_OR_RETURN(Query q,
                             ParseQuery(text, c->db->program().symbols));
    c->queries.push_back(std::move(q));
  }
  c->fact_present.assign(w.delta_facts.size(), 1);
  return Status::OK();
}

void MixAnswer(ClientState* c, uint64_t v) {
  uint64_t mixed = c->answers_hash ^ v;
  c->answers_hash = SplitMix64(&mixed);
}

/// Executes one request. Returns the reply status: OK, a resource breach
/// (per-request governor), or an engine error.
Status ExecuteRequest(const Workload& w, const Request& r,
                      ResourceGovernor* governor, ClientState* c) {
  switch (r.type) {
    case kMembership: {
      const Workload::Probe& p = w.probes[r.key];
      MixAnswer(c, c->spec.Holds(p.path, p.pred, p.args) ? 1 : 0);
      return Status::OK();
    }
    case kCached: {
      auto answer = AnswerQueryCached(c->db.get(), c->queries[r.key],
                                      c->cache.get(), governor);
      if (!answer.ok()) return answer.status();
      MixAnswer(c, (*answer)->NumSpecTuples());
      return Status::OK();
    }
    case kUncached: {
      auto answer = AnswerQuery(c->db.get(), c->queries[r.key], governor);
      if (!answer.ok()) return answer.status();
      MixAnswer(c, answer->NumSpecTuples());
      return Status::OK();
    }
    case kSnapshot: {
      auto spec = Snapshot::ParseGraphSpec(w.snapshot_bytes);
      if (!spec.ok()) return spec.status();
      const Workload::Probe& p = w.probes[r.key];
      MixAnswer(c, spec->Holds(p.path, p.pred, p.args) ? 1 : 0);
      return Status::OK();
    }
    case kUpdate: {
      // Toggle this key's base fact: delete while present, re-insert after.
      // Updates run *ungoverned* (the per-request governor is ignored), as
      // the daemon runs them; a failed batch would leave the engine
      // unchanged. The update latency histogram is the SLO signal instead.
      const bool insert = c->fact_present[r.key] == 0;
      StatusOr<DeltaStats> stats = Status::Internal("unreachable");
      if (c->db->durable()) {
        // Logged before acknowledged: the measured latency includes the WAL
        // append and (policy-dependent) fsync.
        stats = c->db->LogAndApplyDeltas(
            StrFormat("%c %s.\n", insert ? '+' : '-',
                      w.delta_fact_text[r.key].c_str()));
      } else {
        FactDelta d;
        d.insert = insert;
        d.fact = w.delta_facts[r.key];
        stats = c->db->ApplyDeltas({d});
      }
      if (!stats.ok()) return stats.status();
      c->fact_present[r.key] = insert ? 1 : 0;
      MixAnswer(c, c->db->Fingerprint());
      return Status::OK();
    }
  }
  return Status::Internal("unreachable request type");
}

/// --connect mode: the same request, shipped over RSRV instead of called
/// in-process. Each type mixes the same value into answers_hash as its
/// in-process twin, so an update-free replay against a daemon serving the
/// same program reproduces the in-process report's answers_hash exactly.
/// Updates mix the daemon's post-apply fingerprint; at --clients 1 the apply
/// order is fixed, so the hash is stable across daemon replays (though not
/// equal to in-process, whose membership probes see a setup-time spec while
/// the daemon's spec tracks every delta).
Status ExecuteRemote(const Options& opt, const Workload& w, const Request& r,
                     ClientState* c) {
  switch (r.type) {
    case kMembership:
    case kSnapshot: {
      // Both map to a daemon membership lookup: the daemon *is* the
      // warm-started spec, so the snapshot type degenerates to Holds.
      auto holds = c->remote->Membership(w.probe_text[r.key]);
      if (!holds.ok()) return holds.status();
      MixAnswer(c, *holds ? 1 : 0);
      return Status::OK();
    }
    case kCached:
    case kUncached: {
      // The daemon routes every query through its shared cache; the
      // distinction between the two types lives server-side only. Both mix
      // the spec-tuple count, which is cache-invariant.
      auto result = c->remote->Query(
          w.queries[r.key],
          opt.deadline_ms > 0 ? static_cast<uint64_t>(opt.deadline_ms) : 0,
          opt.request_max_tuples);
      if (!result.ok()) return result.status();
      MixAnswer(c, result->spec_tuples);
      return Status::OK();
    }
    case kUpdate: {
      const bool insert = c->fact_present[r.key] == 0;
      auto result = c->remote->Update(
          StrFormat("%c %s.\n", insert ? '+' : '-',
                    w.delta_fact_text[r.key].c_str()));
      if (!result.ok()) return result.status();
      c->fact_present[r.key] = insert ? 1 : 0;
      MixAnswer(c, result->fingerprint);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable request type");
}

void ServeLane(const Options& opt, const Workload& w,
               const std::vector<Request>& reqs,
               std::chrono::steady_clock::time_point start, size_t lane,
               size_t num_lanes, Histogram* lat_all, Histogram* svc_all,
               Histogram* lat_type[kNumTypes], ClientState* c) {
  const GovernorLimits limits = [&] {
    GovernorLimits l;
    l.deadline_ms = opt.deadline_ms;
    l.max_tuples = opt.request_max_tuples;
    return l;
  }();
  const bool governed = opt.deadline_ms > 0 || opt.request_max_tuples > 0;
  const uint64_t slow_ns = static_cast<uint64_t>(opt.slow_ms) * 1000000ull;

  for (size_t i = lane; i < reqs.size(); i += num_lanes) {
    const Request& r = reqs[i];
    auto scheduled = start + std::chrono::nanoseconds(r.arrival_ns);
    std::this_thread::sleep_until(scheduled);
    auto t0 = std::chrono::steady_clock::now();

    Status reply;
    if (c->remote != nullptr) {
      // Daemon replay: the SLO limits travel in the request header and the
      // governor lives server-side; a breach comes back as an error reply
      // whose status code IsResourceBreach() recognizes.
      reply = ExecuteRemote(opt, w, r, c);
    } else if (governed) {
      // Constructed per request: the governor arms its deadline at
      // construction, so each request gets a fresh budget.
      ResourceGovernor governor(limits);
      reply = ExecuteRequest(w, r, &governor, c);
    } else {
      reply = ExecuteRequest(w, r, nullptr, c);
    }

    auto t1 = std::chrono::steady_clock::now();
    uint64_t latency_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - scheduled)
            .count());
    uint64_t service_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    lat_all->Record(latency_ns);
    svc_all->Record(service_ns);
    lat_type[r.type]->Record(latency_ns);

    ++c->done;
    ++c->by_type[r.type];
    if (reply.ok()) {
      ++c->ok;
    } else {
      ++c->errors;
      if (reply.IsResourceBreach()) ++c->breaches;
    }
    if (latency_ns > slow_ns) {
      ++c->slow;
      RELSPEC_TRACE_INSTANT1("serve", "slow_request", "lat_us",
                             latency_ns / 1000);
    }
    c->last_end_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - start)
            .count());
  }
}

// --- report -----------------------------------------------------------------

void AppendQuantiles(const HistogramSnapshot* h, std::string* out) {
  const char* labels[] = {"p50", "p90", "p95", "p99", "p999"};
  for (size_t i = 0; i < 5; ++i) {
    out->append(StrFormat(
        "\"%s\": %llu, ", labels[i],
        static_cast<unsigned long long>(
            h == nullptr
                ? 0
                : h->ValueAtQuantile(HistogramSnapshot::kReportedQuantiles[i]))));
  }
  uint64_t mean = (h == nullptr || h->count == 0) ? 0 : h->sum / h->count;
  out->append(StrFormat(
      "\"min\": %llu, \"max\": %llu, \"mean\": %llu, \"count\": %llu",
      static_cast<unsigned long long>(h == nullptr ? 0 : h->min),
      static_cast<unsigned long long>(h == nullptr ? 0 : h->max),
      static_cast<unsigned long long>(mean),
      static_cast<unsigned long long>(h == nullptr ? 0 : h->count)));
}

#ifndef RELSPEC_BUILD_TYPE
#define RELSPEC_BUILD_TYPE ""
#endif
#ifndef RELSPEC_CXX_COMPILER
#define RELSPEC_CXX_COMPILER ""
#endif
#ifndef RELSPEC_CXX_COMPILER_VERSION
#define RELSPEC_CXX_COMPILER_VERSION ""
#endif

/// `s` as the body of a JSON string.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

/// The first "model name" of /proc/cpuinfo, or "" when there is none.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

std::string BuildReport(const Options& opt, const std::string& program_label,
                        uint64_t total_requests, uint64_t seq_hash,
                        const std::vector<ClientState>& clients,
                        const MetricsSnapshot& snap, double achieved_qps) {
  uint64_t done = 0, ok = 0, errors = 0, breaches = 0, slow = 0;
  uint64_t by_type[kNumTypes] = {};
  uint64_t answers_hash = 0x243f6a8885a308d3ULL;
  for (const ClientState& c : clients) {
    done += c.done;
    ok += c.ok;
    errors += c.errors;
    breaches += c.breaches;
    slow += c.slow;
    for (int t = 0; t < kNumTypes; ++t) by_type[t] += c.by_type[t];
    // Lane order is fixed (lane i serves requests i mod clients), so this
    // combined hash is deterministic too.
    uint64_t mixed = answers_hash ^ c.answers_hash;
    answers_hash = SplitMix64(&mixed);
  }

  const HistogramSnapshot* lat = snap.histogram("serve.latency_ns");
  const HistogramSnapshot* svc = snap.histogram("serve.service_ns");

  std::string out = "{\n  \"schema\": \"relspec-bench-v1\",\n";
  out += "  \"tool\": \"relspec_bench_serve\",\n";
  out += "  \"config\": {\n";
  // The build and host fields tools/bench_suites.py records for the
  // microbenchmark suites.
  out += StrFormat(
      "    \"CMAKE_BUILD_TYPE\": \"%s\", \"CMAKE_CXX_COMPILER\": \"%s\",\n"
      "    \"CMAKE_CXX_COMPILER_VERSION\": \"%s\", \"cpu_count\": %u, "
      "\"cpu_model\": \"%s\",\n",
      JsonEscape(RELSPEC_BUILD_TYPE).c_str(),
      JsonEscape(RELSPEC_CXX_COMPILER).c_str(),
      JsonEscape(RELSPEC_CXX_COMPILER_VERSION).c_str(),
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str());
  out += StrFormat("    \"program\": \"%s\",\n", program_label.c_str());
  out += StrFormat("    \"connect\": \"%s\",\n", opt.connect.c_str());
  out += StrFormat(
      "    \"qps\": %.3f, \"clients\": %d, \"duration_ms\": %lld,\n", opt.qps,
      opt.clients, static_cast<long long>(opt.duration_ms));
  out += StrFormat(
      "    \"requests\": %llu, \"seed\": %llu, \"zipf\": %.4f, "
      "\"population\": %d,\n",
      static_cast<unsigned long long>(total_requests),
      static_cast<unsigned long long>(opt.seed), opt.zipf, opt.population);
  out += "    \"mix\": {";
  for (int t = 0; t < kNumTypes; ++t) {
    out += StrFormat("%s\"%s\": %llu", t == 0 ? "" : ", ", kTypeNames[t],
                     static_cast<unsigned long long>(opt.mix[t]));
  }
  out += "},\n";
  out += StrFormat(
      "    \"slow_ms\": %lld, \"deadline_ms\": %lld, "
      "\"request_max_tuples\": %llu,\n",
      static_cast<long long>(opt.slow_ms),
      static_cast<long long>(opt.deadline_ms),
      static_cast<unsigned long long>(opt.request_max_tuples));
  out += StrFormat(
      "    \"wal\": {\"enabled\": %s, \"fsync\": \"%s\", "
      "\"checkpoint_every\": %llu}\n",
      opt.wal_prefix.empty() ? "false" : "true",
      FsyncModeName(opt.durable.wal.fsync),
      static_cast<unsigned long long>(opt.durable.checkpoint_every));
  out += "  },\n";
  out += StrFormat("  \"request_seq_hash\": \"0x%016llx\",\n",
                   static_cast<unsigned long long>(seq_hash));
  out += StrFormat("  \"answers_hash\": \"0x%016llx\",\n",
                   static_cast<unsigned long long>(answers_hash));
  out += StrFormat(
      "  \"requests\": {\"total\": %llu, \"ok\": %llu, \"errors\": %llu, "
      "\"breaches\": %llu, \"slow\": %llu,\n    \"by_type\": {",
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(breaches),
      static_cast<unsigned long long>(slow));
  for (int t = 0; t < kNumTypes; ++t) {
    out += StrFormat("%s\"%s\": %llu", t == 0 ? "" : ", ", kTypeNames[t],
                     static_cast<unsigned long long>(by_type[t]));
  }
  out += "}},\n";
  out += "  \"latency_ns\": {";
  AppendQuantiles(lat, &out);
  out += "},\n  \"service_ns\": {";
  AppendQuantiles(svc, &out);
  out += "},\n";
  for (int t = 0; t < kNumTypes; ++t) {
    const HistogramSnapshot* h =
        snap.histogram(std::string("serve.latency_ns.") + kTypeNames[t]);
    out += StrFormat("  \"latency_ns_%s\": {", kTypeNames[t]);
    AppendQuantiles(h, &out);
    out += "},\n";
  }
  out += StrFormat("  \"qps\": {\"target\": %.3f, \"achieved\": %.3f},\n",
                   opt.qps, achieved_qps);
  out += StrFormat(
      "  \"cache\": {\"hits\": %llu, \"misses\": %llu},\n",
      static_cast<unsigned long long>(snap.counter("cache.hit")),
      static_cast<unsigned long long>(snap.counter("cache.miss")));
  out += StrFormat("  \"trace\": {\"dropped\": %lld},\n",
                   static_cast<long long>(snap.gauge("trace.dropped")));

  // Embedded relspec-bench-v1 suite: bench_compare consumes this report
  // directly. Thresholds are generous (shared CI runners); tests that want
  // a tight gate override them with bench_compare --threshold.
  out += StrFormat("  \"suites\": {\n    \"%s\": {\n",
                   opt.suite_name.c_str());
  out +=
      "      \"thresholds\": {\"default\": 3.0, \"achieved_qps\": 0.6},\n"
      "      \"metrics\": {\n";
  const char* labels[] = {"p50", "p90", "p95", "p99", "p999"};
  for (size_t i = 0; i < 5; ++i) {
    out += StrFormat(
        "        \"%s_ns\": {\"value\": %llu, \"dir\": \"lower\"},\n",
        labels[i],
        static_cast<unsigned long long>(
            lat == nullptr ? 0
                           : lat->ValueAtQuantile(
                                 HistogramSnapshot::kReportedQuantiles[i])));
  }
  out += StrFormat(
      "        \"achieved_qps\": {\"value\": %.3f, \"dir\": \"higher\"}\n",
      achieved_qps);
  out += "      }\n    }\n  }\n}\n";
  return out;
}

// --- main -------------------------------------------------------------------

bool ParseMix(const std::string& spec, uint64_t mix[kNumTypes]) {
  for (int t = 0; t < kNumTypes; ++t) mix[t] = 0;
  std::stringstream ss(spec);
  std::string item;
  bool any = false;
  while (std::getline(ss, item, ',')) {
    size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    std::string name = item.substr(0, eq);
    int type = -1;
    for (int t = 0; t < kNumTypes; ++t) {
      if (name == kTypeNames[t]) type = t;
    }
    if (type < 0) return false;
    mix[type] = strtoull(item.c_str() + eq + 1, nullptr, 10);
    any = any || mix[type] > 0;
  }
  return any;
}

int Run(int argc, char** argv) {
  Options opt;
  auto value_of = [&](int* i, const char* flag) -> std::string {
    std::string arg = argv[*i];
    std::string prefix = std::string(flag) + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (*i + 1 < argc) return argv[++*i];
    return "";
  };
  auto matches = [&](const char* arg, const char* flag) {
    return strcmp(arg, flag) == 0 ||
           std::string(arg).rfind(std::string(flag) + "=", 0) == 0;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return kExitOk;
    } else if (matches(argv[i], "--rotation")) {
      opt.rotation = atoi(value_of(&i, "--rotation").c_str());
    } else if (matches(argv[i], "--qps")) {
      opt.qps = atof(value_of(&i, "--qps").c_str());
    } else if (matches(argv[i], "--clients")) {
      opt.clients = atoi(value_of(&i, "--clients").c_str());
    } else if (matches(argv[i], "--duration-ms")) {
      opt.duration_ms = atoll(value_of(&i, "--duration-ms").c_str());
    } else if (matches(argv[i], "--requests")) {
      opt.requests = strtoull(value_of(&i, "--requests").c_str(), nullptr, 10);
    } else if (matches(argv[i], "--seed")) {
      opt.seed = strtoull(value_of(&i, "--seed").c_str(), nullptr, 10);
    } else if (matches(argv[i], "--zipf")) {
      opt.zipf = atof(value_of(&i, "--zipf").c_str());
    } else if (matches(argv[i], "--population")) {
      opt.population = atoi(value_of(&i, "--population").c_str());
    } else if (matches(argv[i], "--mix")) {
      if (!ParseMix(value_of(&i, "--mix"), opt.mix)) {
        return Usage("bad --mix (want e.g. membership=60,cached=25)");
      }
    } else if (matches(argv[i], "--wal")) {
      opt.wal_prefix = value_of(&i, "--wal");
    } else if (matches(argv[i], "--connect")) {
      opt.connect = value_of(&i, "--connect");
    } else if (matches(argv[i], "--fsync")) {
      std::string value = value_of(&i, "--fsync");
      auto mode = ParseFsyncMode(value);
      if (!mode.ok()) return Usage("--fsync expects always|batch|off");
      opt.durable.wal.fsync = *mode;
    } else if (matches(argv[i], "--checkpoint-every")) {
      opt.durable.checkpoint_every = strtoull(
          value_of(&i, "--checkpoint-every").c_str(), nullptr, 10);
    } else if (matches(argv[i], "--slow-ms")) {
      opt.slow_ms = atoll(value_of(&i, "--slow-ms").c_str());
    } else if (matches(argv[i], "--deadline-ms")) {
      opt.deadline_ms = atoll(value_of(&i, "--deadline-ms").c_str());
    } else if (matches(argv[i], "--request-max-tuples")) {
      opt.request_max_tuples =
          strtoull(value_of(&i, "--request-max-tuples").c_str(), nullptr, 10);
    } else if (matches(argv[i], "--out")) {
      opt.out_file = value_of(&i, "--out");
    } else if (matches(argv[i], "--suite-name")) {
      opt.suite_name = value_of(&i, "--suite-name");
    } else if (matches(argv[i], "--dump-requests")) {
      opt.dump_requests_file = value_of(&i, "--dump-requests");
    } else if (matches(argv[i], "--trace-out")) {
      opt.trace_file = value_of(&i, "--trace-out");
    } else if (arg == "--stats" || arg.rfind("--stats=", 0) == 0) {
      opt.want_stats = true;
      if (arg.rfind("--stats=", 0) == 0) opt.stats_file = arg.substr(8);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage("unknown flag " + arg);
    } else if (opt.program_file.empty()) {
      opt.program_file = arg;
    } else {
      return Usage("more than one PROGRAM argument");
    }
  }
  if (opt.qps <= 0) return Usage("--qps must be positive");
  if (opt.clients < 1) return Usage("--clients must be >= 1");
  if (opt.population < 1) return Usage("--population must be >= 1");
  if (opt.rotation < 1) return Usage("--rotation must be >= 1");
  if (opt.duration_ms < 1 && opt.requests == 0) {
    return Usage("--duration-ms must be >= 1");
  }
  if (!opt.connect.empty() && !opt.wal_prefix.empty()) {
    // In daemon replay the lanes own no engine: durability belongs to the
    // daemon's own --wal flag, not the harness.
    return Usage("--connect and --wal are mutually exclusive");
  }

  EnableMetrics(true);  // the report is built from histograms
  if (!opt.trace_file.empty()) {
    Tracer::Global().SetCurrentThreadName("main");
    EnableEventTrace(true);
  }

  std::string source;
  std::string program_label;
  if (opt.program_file.empty()) {
    source = relspec_bench::RotationProgram(opt.rotation);
    program_label = StrFormat("builtin:rotation%d", opt.rotation);
  } else {
    std::ifstream in(opt.program_file);
    if (!in) {
      fprintf(stderr, "relspec_bench_serve: cannot read %s\n",
              opt.program_file.c_str());
      return kExitIo;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    source = buf.str();
    program_label = opt.program_file;
  }

  uint64_t total = opt.requests > 0
                       ? opt.requests
                       : static_cast<uint64_t>(
                             opt.qps * static_cast<double>(opt.duration_ms) /
                             1000.0);
  if (total == 0) total = 1;

  const std::vector<Request> reqs = BuildSchedule(opt, total);
  const uint64_t seq_hash = HashSchedule(reqs);
  if (!opt.dump_requests_file.empty()) {
    std::ofstream out(opt.dump_requests_file);
    if (!out) {
      fprintf(stderr, "relspec_bench_serve: cannot write %s\n",
              opt.dump_requests_file.c_str());
      return kExitIo;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      out << i << " " << reqs[i].arrival_ns / 1000 << " "
          << kTypeNames[reqs[i].type] << " " << reqs[i].key << "\n";
    }
  }

  StatusOr<Workload> workload = [&] {
    RELSPEC_PHASE("serve.build");
    return BuildWorkload(opt, std::move(source));
  }();
  if (!workload.ok()) {
    fprintf(stderr, "relspec_bench_serve: workload build failed: %s\n",
            workload.status().ToString().c_str());
    return kExitParse;
  }

  std::vector<ClientState> clients(static_cast<size_t>(opt.clients));
  {
    RELSPEC_PHASE("serve.setup");
    for (size_t lane = 0; lane < clients.size(); ++lane) {
      Status st = SetupClient(opt, *workload, lane, &clients[lane]);
      if (!st.ok()) {
        fprintf(stderr, "relspec_bench_serve: client setup failed: %s\n",
                st.ToString().c_str());
        return kExitParse;
      }
    }
  }

  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* lat_all = reg.GetHistogram("serve.latency_ns");
  Histogram* svc_all = reg.GetHistogram("serve.service_ns");
  Histogram* lat_type[kNumTypes];
  for (int t = 0; t < kNumTypes; ++t) {
    lat_type[t] =
        reg.GetHistogram(std::string("serve.latency_ns.") + kTypeNames[t]);
  }

  auto wall0 = std::chrono::steady_clock::now();
  {
    RELSPEC_PHASE("serve.run");
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> lanes;
    lanes.reserve(clients.size());
    for (size_t lane = 0; lane < clients.size(); ++lane) {
      lanes.emplace_back([&, lane] {
        Tracer::Global().SetCurrentThreadName(
            StrFormat("client-%zu", lane));
        ServeLane(opt, *workload, reqs, start, lane, clients.size(), lat_all,
                  svc_all, lat_type, &clients[lane]);
      });
    }
    for (std::thread& t : lanes) t.join();
  }
  auto wall1 = std::chrono::steady_clock::now();

  // Durable mode closes every lane's log and proves recovery: reopening the
  // WAL from scratch must rebuild an engine with the lane's exact final
  // fingerprint. A mismatch is a harness failure, not a metric.
  if (!opt.wal_prefix.empty()) {
    RELSPEC_PHASE("serve.recover_verify");
    uint64_t replayed = 0;
    for (size_t lane = 0; lane < clients.size(); ++lane) {
      ClientState& c = clients[lane];
      const uint64_t want = c.db->Fingerprint();
      c.db.reset();  // closes (and syncs) the lane's log
      RecoveryStats rec;
      auto re = FunctionalDatabase::OpenDurable(workload->source, c.wal_path,
                                                opt.durable, EngineOptions(),
                                                &rec);
      if (!re.ok()) {
        fprintf(stderr,
                "relspec_bench_serve: lane %zu WAL recovery failed: %s\n",
                lane, re.status().ToString().c_str());
        return kExitParse;
      }
      if ((*re)->Fingerprint() != want) {
        fprintf(stderr,
                "relspec_bench_serve: lane %zu recovered fingerprint "
                "mismatch (wal %s)\n",
                lane, c.wal_path.c_str());
        return kExitParse;
      }
      replayed += rec.replayed_batches;
    }
    fprintf(stderr,
            "serve: wal recovery verified on %zu lanes (%llu batches "
            "replayed)\n",
            clients.size(), static_cast<unsigned long long>(replayed));
  }

  uint64_t span_ns = 0;
  for (const ClientState& c : clients) span_ns = std::max(span_ns, c.last_end_ns);
  if (span_ns == 0) {
    span_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
            .count());
  }
  double achieved_qps =
      static_cast<double>(total) / (static_cast<double>(span_ns) / 1e9);

  int code = kExitOk;
  // The trace is exported before the snapshot so the trace.dropped gauge is
  // reflected in both the report and the --stats JSON.
  if (!opt.trace_file.empty()) {
    EnableEventTrace(false);
    Status written = Tracer::Global().WriteChromeJson(opt.trace_file);
    if (!written.ok()) {
      fprintf(stderr, "relspec_bench_serve: cannot write --trace-out %s: %s\n",
              opt.trace_file.c_str(), written.ToString().c_str());
      code = kExitIo;
    }
  }

  MetricsSnapshot snap = reg.Snapshot();
  std::string report = BuildReport(opt, program_label, total, seq_hash,
                                   clients, snap, achieved_qps);
  {
    std::ofstream out(opt.out_file);
    if (!out) {
      fprintf(stderr, "relspec_bench_serve: cannot write --out %s\n",
              opt.out_file.c_str());
      return kExitIo;
    }
    out << report;
  }

  if (opt.want_stats) {
    std::string json = snap.ToJson();
    if (opt.stats_file.empty() || opt.stats_file == "-") {
      printf("%s\n", json.c_str());
    } else {
      std::ofstream out(opt.stats_file);
      if (!out) {
        fprintf(stderr, "relspec_bench_serve: cannot write --stats %s\n",
                opt.stats_file.c_str());
        return kExitIo;
      }
      out << json << "\n";
    }
  }

  uint64_t done = 0, errors = 0, breaches = 0, slow = 0;
  for (const ClientState& c : clients) {
    done += c.done;
    errors += c.errors;
    breaches += c.breaches;
    slow += c.slow;
  }
  const HistogramSnapshot* lat = snap.histogram("serve.latency_ns");
  fprintf(stderr,
          "serve: %llu requests (%llu errors, %llu breaches, %llu slow), "
          "qps %.1f/%.1f, p50 %llu us, p99 %llu us -> %s\n",
          static_cast<unsigned long long>(done),
          static_cast<unsigned long long>(errors),
          static_cast<unsigned long long>(breaches),
          static_cast<unsigned long long>(slow), achieved_qps, opt.qps,
          static_cast<unsigned long long>(
              (lat != nullptr ? lat->ValueAtQuantile(0.5) : 0) / 1000),
          static_cast<unsigned long long>(
              (lat != nullptr ? lat->ValueAtQuantile(0.99) : 0) / 1000),
          opt.out_file.c_str());
  return code;
}

}  // namespace
}  // namespace relspec

int main(int argc, char** argv) { return relspec::Run(argc, argv); }
