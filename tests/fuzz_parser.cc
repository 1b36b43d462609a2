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
//  * "RSNP" → the snapshot loader (tests/fuzz_corpus/snapshots/*.rsnp);
//  * "RWAL" → the delta-log scanner (tests/fuzz_corpus/wal/*.rwal). Torn
//    tails are by-design not errors, so the scanner additionally must
//    report them consistently, never read past the buffer, and never
//    accept a record whose checksum does not hold;
//  * "RCKP" → the checkpoint parser (tests/fuzz_corpus/wal/*.rckp), whose
//    symbol-table sections carry attacker-controlled counts and lengths;
//  * "relspec-graph-spec v1" / "relspec-eq-spec v1" → the text spec
//    loaders (tests/fuzz_corpus/specs/*.spec): out-of-range label, cluster
//    and successor ids and non-numeric fields come back as InvalidArgument,
//    and a spec that loads re-serializes;
//  * "RSRV" → the serving protocol (tests/fuzz_corpus/serve/*.rsrv).
//    Requests and responses share the magic, so the input is fed to both
//    framers and both decoders: attacker-controlled payload lengths,
//    versions, types, and typed result payloads (QueryResult/UpdateResult)
//    must all come back as Status, never out-of-bounds reads.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  if (input.size() >= 4 && input.substr(0, 4) == "RSNP") {
    // Both loaders must survive any byte stream; the kind check rejects the
    // mismatched one cheaply, so running both costs little and covers both
    // section decoders.
    // A snapshot that loads re-serializes, which walks every
    // representative's tree edges.
    auto graph = relspec::Snapshot::ParseGraphSpec(input);
    if (graph.ok()) (void)relspec::Snapshot::Serialize(*graph);
    auto eq = relspec::Snapshot::ParseEquationalSpec(input);
    if (eq.ok()) (void)relspec::Snapshot::Serialize(*eq);
    return 0;
  }
  if (input.starts_with("relspec-graph-spec v1") ||
      input.starts_with("relspec-eq-spec v1")) {
    auto graph = relspec::SpecIo::ParseGraphSpec(input);
    if (graph.ok()) (void)relspec::SpecIo::Serialize(*graph);
    auto eq = relspec::SpecIo::ParseEquationalSpec(input);
    if (eq.ok()) (void)relspec::SpecIo::Serialize(*eq);
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
