// Fuzz target for the parser/lexer front end and the binary snapshot
// loader.
//
// Dual mode:
//
//  * With clang's libFuzzer (-fsanitize=fuzzer), LLVMFuzzerTestOneInput is
//    the entry point and the runtime drives input generation.
//  * Without libFuzzer (RELSPEC_FUZZ_STANDALONE, the gcc path), a standalone
//    main() replays every seed corpus file given on the command line, then
//    runs a time-bounded deterministic mutation loop over the seeds. The
//    budget defaults to 30 seconds; override with RELSPEC_FUZZ_SECONDS.
//
// The invariant under test: Parse() must return a Status for every input —
// never crash, hang, or trip a sanitizer. The parser's recursion depth guard
// (kMaxTermDepth) is what makes deeply nested inputs safe.
//
// Inputs starting with a binary magic route to the matching binary decoder
// instead of the parser; there the invariant is the same — truncated
// sections, bad checksums, wrong versions, and out-of-range ids must all
// come back as InvalidArgument:
//
//  * "RSNP" → the graph snapshot loader (tests/fuzz_corpus/snapshots/
//    *.rsnp; the equational seeds exercise its kind check), once as given
//    and once with the checksum resealed, so that mutations reach the
//    section decoders. Every graph spec that loads must then answer reads
//    without throwing: membership on each path to depth frontier+1 for the
//    first dictionary atom, Congruent(0, path) and ExplainCongruence(0,
//    path) over the (B, R) built on it, and one query per functional
//    predicate, answered and enumerated. Each proof must run from 0 to the
//    path, and each of its steps must name an equation of R;
//  * "RWAL" → the delta-log scanner (tests/fuzz_corpus/wal/*.rwal). Torn
//    tails are by-design not errors, so the scanner additionally must
//    report them consistently, never read past the buffer, and never
//    accept a record whose checksum does not hold;
//  * "RCKP" → the checkpoint parser (tests/fuzz_corpus/wal/*.rckp), whose
//    symbol-table sections carry attacker-controlled counts and lengths;
//  * "RSRV" → the serving protocol (tests/fuzz_corpus/serve/*.rsrv).
//    Requests and responses share the magic, so the input is fed to both
//    framers and both decoders: attacker-controlled payload lengths,
//    versions, types, and typed result payloads (QueryResult/UpdateResult)
//    must all come back as Status, never out-of-bounds reads.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/core/equational_spec.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/protocol.h"

namespace {

constexpr size_t kSnapshotHeaderSize = 20;  // magic | version | kind | sum

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The snapshot with its header checksum recomputed over the body
// (docs/SNAPSHOT_FORMAT.md: chained splitmix over 8-byte words).
std::string Resealed(std::string_view input) {
  std::string out(input);
  if (out.size() < kSnapshotHeaderSize) return out;
  std::string_view body = std::string_view(out).substr(kSnapshotHeaderSize);
  uint64_t h = Mix64(0x243f6a8885a308d3ull ^ body.size());
  size_t i = 0;
  for (; i + 8 <= body.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, body.data() + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < body.size()) {
    uint64_t word = 0;
    std::memcpy(&word, body.data() + i, body.size() - i);
    h = Mix64(h ^ word);
  }
  for (int b = 0; b < 8; ++b) out[12 + b] = static_cast<char>(h >> (8 * b));
  return out;
}

// A violated invariant is a crash, which the fuzzer reports.
void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz invariant violated: %s\n", what);
  std::abort();
}

using EquationSet = std::set<std::tuple<uint32_t, relspec::FuncId, uint32_t>>;

// A proof from (B, R) that 0 == p: a chain from 0 to p of steps that each
// name an equation of R (`in_r`).
void CheckProof(const relspec::EquationalSpecification& eq,
                const EquationSet& in_r, const relspec::Path& p) {
  auto proof = eq.ExplainCongruence(relspec::Path::Zero(), p);
  Require(proof.ok() == eq.Congruent(relspec::Path::Zero(), p),
          "ExplainCongruence and Congruent disagree");
  if (!proof.ok()) return;
  const std::vector<relspec::CongruenceStep>& steps = proof->steps;
  Require(proof->lhs.empty() && proof->rhs == p, "proof of other terms");
  Require(steps.empty() ? p.empty()
                        : steps.front().lhs.empty() && steps.back().rhs == p,
          "proof endpoints");
  for (size_t i = 0; i < steps.size(); ++i) {
    Require(i == 0 || steps[i - 1].rhs == steps[i].lhs, "broken chain");
    const relspec::Equation& e = steps[i].equation;
    Require(in_r.count({e.cluster, e.symbol, e.target}) == 1,
            "proof step is not an equation of R");
  }
}

// The reads a daemon serves from a loaded spec, and the (B, R) over it.
// None may throw or crash.
void ReadLoadedSpec(relspec::GraphSpecification loaded) {
  auto spec =
      std::make_shared<const relspec::GraphSpecification>(std::move(loaded));
  auto eq = relspec::BuildEquationalSpecification(spec);
  EquationSet in_r;
  if (eq.ok()) {
    (void)relspec::Snapshot::Serialize(*eq);
    for (const relspec::Equation& e : eq->equations()) {
      in_r.insert({e.cluster, e.symbol, e.target});
    }
  }
  const std::vector<relspec::FuncId>& alphabet = spec->alphabet();
  if (!spec->atom_dictionary().empty()) {
    const relspec::AtomRef atom = spec->atom_dictionary()[0];
    std::vector<relspec::Path> layer{relspec::Path::Zero()};
    for (int depth = 0; depth <= spec->graph().frontier_depth() + 1; ++depth) {
      std::vector<relspec::Path> next;
      for (const relspec::Path& p : layer) {
        (void)spec->Holds(p, atom.pred, atom.args);
        if (eq.ok()) CheckProof(*eq, in_r, p);
        for (relspec::FuncId f : alphabet) {
          if (next.size() < 4096) next.push_back(p.Extend(f));
        }
      }
      layer = std::move(next);
    }
  }
  const relspec::SymbolTable& symbols = spec->symbols();
  for (relspec::PredId p = 0; p < symbols.num_predicates(); ++p) {
    const relspec::PredicateInfo& info = symbols.predicate(p);
    if (!info.functional || info.arity < 1 || info.arity > 8) continue;
    // ?(s, x1, ...) P(s, x1, ...), over the query's own variable names.
    relspec::Query q;
    q.local.constant_base = static_cast<relspec::ConstId>(symbols.num_constants());
    q.local.function_base = static_cast<relspec::FuncId>(symbols.num_functions());
    q.local.variable_base = static_cast<relspec::VarId>(symbols.num_variables());
    relspec::Atom atom;
    atom.pred = p;
    atom.fterm = relspec::FuncTerm::Var(q.local.variable_base);
    q.local.variables.push_back("s");
    q.answer_vars.push_back(q.local.variable_base);
    for (int k = 1; k < info.arity; ++k) {
      const relspec::VarId v = q.local.variable_base + static_cast<uint32_t>(k);
      // Appended, not "x" + to_string(k): GCC's -O3 -Werror=restrict
      // rejects that concatenation.
      std::string name = "x";
      name += std::to_string(k);
      q.local.variables.push_back(std::move(name));
      atom.args.push_back(relspec::NfArg::Variable(v));
      q.answer_vars.push_back(v);
    }
    q.atoms.push_back(std::move(atom));
    auto answer = relspec::AnswerQuery(spec, q);
    if (answer.ok()) (void)answer->Enumerate(3, 16);
  }
}

void LoadSnapshot(std::string_view input) {
  // The loader must survive any byte stream. A snapshot that loads
  // re-serializes, which walks every representative's tree edges.
  auto graph = relspec::Snapshot::ParseGraphSpec(input);
  if (graph.ok()) {
    (void)relspec::Snapshot::Serialize(*graph);
    ReadLoadedSpec(*std::move(graph));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  if (input.size() >= 4 && input.substr(0, 4) == "RSNP") {
    LoadSnapshot(input);
    const std::string resealed = Resealed(input);
    if (resealed != input) LoadSnapshot(resealed);
    return 0;
  }
  if (input.size() >= 4 && input.substr(0, 4) == "RWAL") {
    auto scan = relspec::DeltaWal::ScanBytes(input);
    (void)scan;
    return 0;
  }
  if (input.size() >= 4 && input.substr(0, 4) == "RCKP") {
    auto ckpt = relspec::ParseCheckpoint(input);
    (void)ckpt;
    return 0;
  }
  if (input.size() >= 4 && input.substr(0, 4) == "RSRV") {
    // The request and response framings share the magic; run the input
    // through both, then through the typed result decoders (whose inputs
    // are a decoded response's payload bytes on the client side).
    if (auto size = relspec::serve::RequestFrameSize(input);
        size.ok() && *size > 0 && input.size() >= *size) {
      relspec::serve::RequestHeader header;
      std::string_view payload;
      auto decoded = relspec::serve::DecodeRequest(input.substr(0, *size),
                                                   &header, &payload);
      (void)decoded;
    }
    if (auto size = relspec::serve::ResponseFrameSize(input);
        size.ok() && *size > 0 && input.size() >= *size) {
      relspec::serve::ResponseHeader header;
      std::string_view payload;
      auto decoded = relspec::serve::DecodeResponse(input.substr(0, *size),
                                                    &header, &payload);
      if (decoded.ok()) {
        auto query = relspec::serve::DecodeQueryResult(payload);
        (void)query;
        auto update = relspec::serve::DecodeUpdateResult(payload);
        (void)update;
      }
    }
    return 0;
  }
  // The result (well-formed or error Status) is irrelevant; surviving is
  // the assertion.
  auto result = relspec::Parse(input);
  (void)result;
  return 0;
}

#ifdef RELSPEC_FUZZ_STANDALONE

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// xorshift64* — deterministic across runs so failures reproduce.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }

 private:
  uint64_t state_;
};

// One mutation step: byte flips, splices, truncations, duplications, and
// insertion of grammar-relevant tokens.
std::string Mutate(const std::string& base, Rng* rng) {
  static const char* kTokens[] = {"(", ")", ",", ".", "->", "+", "?",
                                  "0",  "t", "f(", "%", " ", "\n"};
  std::string out = base;
  int steps = 1 + static_cast<int>(rng->Next() % 4);
  for (int i = 0; i < steps; ++i) {
    uint64_t choice = rng->Next() % 5;
    if (out.empty()) choice = 3;
    switch (choice) {
      case 0: {  // flip a byte
        size_t pos = rng->Next() % out.size();
        out[pos] = static_cast<char>(rng->Next() % 256);
        break;
      }
      case 1: {  // truncate
        out.resize(rng->Next() % (out.size() + 1));
        break;
      }
      case 2: {  // duplicate a slice
        size_t a = rng->Next() % out.size();
        size_t b = a + rng->Next() % (out.size() - a);
        out.insert(rng->Next() % out.size(), out.substr(a, b - a));
        break;
      }
      case 3: {  // insert a grammar token
        const char* tok =
            kTokens[rng->Next() % (sizeof(kTokens) / sizeof(kTokens[0]))];
        out.insert(rng->Next() % (out.size() + 1), tok);
        break;
      }
      case 4: {  // nest: wrap a prefix in f(...)
        size_t pos = rng->Next() % out.size();
        out = out.substr(0, pos) + "f(" + out.substr(pos) + ")";
        break;
      }
    }
    if (out.size() > 1 << 16) out.resize(1 << 16);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> corpus;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      fprintf(stderr, "fuzz_parser: cannot read seed %s\n", argv[i]);
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.push_back(buf.str());
  }
  if (corpus.empty()) corpus.push_back("P(0).\nP(t) -> P(t+1).\n");

  // Replay the seeds verbatim first.
  for (const std::string& seed : corpus) {
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(seed.data()),
                           seed.size());
  }

  int seconds = 30;
  if (const char* env = std::getenv("RELSPEC_FUZZ_SECONDS")) {
    seconds = std::atoi(env);
  }
  Rng rng(0xC1A559EC);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  uint64_t iterations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string& base = corpus[rng.Next() % corpus.size()];
    std::string mutated = Mutate(base, &rng);
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(mutated.data()),
                           mutated.size());
    ++iterations;
  }
  printf("fuzz_parser: %llu inputs survived (%d s budget, %zu seeds)\n",
         static_cast<unsigned long long>(iterations), seconds, corpus.size());
  return 0;
}

#endif  // RELSPEC_FUZZ_STANDALONE
