// Unit tests for the versioned binary snapshot format (src/core/snapshot.*):
// round trips, header validation, and robustness against corrupted input —
// every malformed byte stream must come back as InvalidArgument, never a
// crash or a silently wrong specification.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

constexpr char kMeets[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(f(t), y).
)";

constexpr char kLists[] = R"(
  Equal(0).
  Equal(t) -> Equal(a(b(t))).
  Equal(t) -> Grown(a(t)).
)";

StatusOr<GraphSpecification> BuildGraph(const std::string& source) {
  RELSPEC_ASSIGN_OR_RETURN(std::unique_ptr<FunctionalDatabase> db,
                           FunctionalDatabase::FromSource(source));
  return db->BuildGraphSpec();
}

StatusOr<EquationalSpecification> BuildEq(const std::string& source) {
  RELSPEC_ASSIGN_OR_RETURN(std::unique_ptr<FunctionalDatabase> db,
                           FunctionalDatabase::FromSource(source));
  return db->BuildEquationalSpec();
}

TEST(SnapshotTest, GraphRoundTripPreservesBytes) {
  auto spec = BuildGraph(kMeets);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::string bin = Snapshot::Serialize(*spec);
  auto reloaded = Snapshot::ParseGraphSpec(bin);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  // Binary and text serializations are both byte-stable across the trip.
  EXPECT_EQ(bin, Snapshot::Serialize(*reloaded));
  EXPECT_EQ(SpecIo::Serialize(*spec), SpecIo::Serialize(*reloaded));
  EXPECT_EQ(spec->num_clusters(), reloaded->num_clusters());
  EXPECT_EQ(spec->num_slice_tuples(), reloaded->num_slice_tuples());
}

TEST(SnapshotTest, GraphRoundTripPreservesMembership) {
  auto spec = BuildGraph(kMeets);
  ASSERT_TRUE(spec.ok());
  auto reloaded = Snapshot::ParseGraphSpec(Snapshot::Serialize(*spec));
  ASSERT_TRUE(reloaded.ok());
  auto tony = spec->symbols().FindConstant("Tony");
  auto jan = spec->symbols().FindConstant("Jan");
  auto meets = spec->symbols().FindPredicate("Meets");
  auto f = spec->symbols().FindFunction("f");
  ASSERT_TRUE(tony.ok() && jan.ok() && meets.ok() && f.ok());
  Path p = Path::Zero();
  for (int d = 0; d <= 9; ++d) {
    EXPECT_EQ(spec->Holds(p, *meets, std::vector<ConstId>{*tony}),
              reloaded->Holds(p, *meets, std::vector<ConstId>{*tony}));
    EXPECT_EQ(spec->Holds(p, *meets, std::vector<ConstId>{*jan}),
              reloaded->Holds(p, *meets, std::vector<ConstId>{*jan}));
    p = p.Extend(*f);
  }
}

// (B, R) snapshots are written, not read: a graph snapshot carries all of
// B, so (B, R) built over the reloaded (B, F) gives the engine's bytes.
TEST(SnapshotTest, EquationalRoundTrip) {
  auto spec = BuildEq(kLists);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::string bin = Snapshot::Serialize(*spec);
  auto graph = Snapshot::ParseGraphSpec(Snapshot::Serialize(spec->spec()));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto reloaded = BuildEquationalSpecification(
      std::make_shared<const GraphSpecification>(*std::move(graph)));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(bin, Snapshot::Serialize(*reloaded));
  EXPECT_EQ(spec->num_equations(), reloaded->num_equations());
  // Congruence answers survive the trip.
  for (const Equation& eq : spec->equations()) {
    const auto [lhs, rhs] = spec->EquationPaths(eq);
    EXPECT_TRUE(reloaded->Congruent(lhs, rhs));
  }
}

TEST(SnapshotTest, PeekKindDistinguishesSpecs) {
  auto g = BuildGraph(kMeets);
  auto e = BuildEq(kMeets);
  ASSERT_TRUE(g.ok() && e.ok());
  auto gk = Snapshot::PeekKind(Snapshot::Serialize(*g));
  auto ek = Snapshot::PeekKind(Snapshot::Serialize(*e));
  ASSERT_TRUE(gk.ok() && ek.ok());
  EXPECT_EQ(*gk, Snapshot::Kind::kGraph);
  EXPECT_EQ(*ek, Snapshot::Kind::kEquational);
}

TEST(SnapshotTest, KindMismatchIsRejected) {
  auto e = BuildEq(kMeets);
  ASSERT_TRUE(e.ok());
  const std::string bin = Snapshot::Serialize(*e);
  auto as_graph = Snapshot::ParseGraphSpec(bin);
  EXPECT_FALSE(as_graph.ok());
  EXPECT_EQ(as_graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Snapshot::Upgrade(bin).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, EmptyAndTruncatedHeadersAreRejected) {
  for (size_t len : {size_t{0}, size_t{1}, size_t{4}, size_t{19}}) {
    auto spec = Snapshot::ParseGraphSpec(std::string(len, '\0'));
    EXPECT_FALSE(spec.ok()) << len;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << len;
  }
}

TEST(SnapshotTest, BadMagicIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g);
  bin[0] = 'X';
  auto spec = Snapshot::ParseGraphSpec(bin);
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, UnsupportedVersionIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g);
  bin[4] = static_cast<char>(99);  // version field
  auto spec = Snapshot::ParseGraphSpec(bin);
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TruncatedBodyIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g);
  for (size_t len = 20; len < bin.size(); len += 7) {
    auto spec = Snapshot::ParseGraphSpec(bin.substr(0, len));
    EXPECT_FALSE(spec.ok()) << len;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << len;
  }
}

// Every single-byte corruption must be rejected (the checksum covers the
// body; header fields are validated individually) — and must never crash.
TEST(SnapshotTest, EveryByteFlipIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g);
  for (size_t i = 0; i < bin.size(); ++i) {
    std::string corrupt = bin;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    auto spec = Snapshot::ParseGraphSpec(corrupt);
    EXPECT_FALSE(spec.ok()) << "flip at byte " << i;
  }
}

TEST(SnapshotTest, AppendedGarbageIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g) + "trailing";
  auto spec = Snapshot::ParseGraphSpec(bin);
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Forged length prefixes
// ---------------------------------------------------------------------------
//
// The checksum stops accidental corruption, but an adversarial file can carry
// a *valid* checksum over absurd length and count fields. These tests reseal
// the header checksum after planting huge values and verify the parser stays
// bounds-checked: InvalidArgument, never a crash or a multi-gigabyte
// allocation driven by a 4-byte prefix. The checksum below reimplements the
// documented chained-splitmix algorithm, which doubles as a wire-format pin.

constexpr size_t kSnapHeaderSize = 20;  // magic | version | kind | checksum

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t BodyChecksum(std::string_view bytes) {
  uint64_t h = Mix64(0x243f6a8885a308d3ull ^ bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < bytes.size()) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    h = Mix64(h ^ word);
  }
  return h;
}

void SealChecksum(std::string* bin) {
  uint64_t sum =
      BodyChecksum(std::string_view(*bin).substr(kSnapHeaderSize));
  for (int i = 0; i < 8; ++i) {
    (*bin)[12 + i] = static_cast<char>(sum >> (8 * i));
  }
}

void PatchU32(std::string* bin, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*bin)[off + i] = static_cast<char>(v >> (8 * i));
}

void PatchU64(std::string* bin, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*bin)[off + i] = static_cast<char>(v >> (8 * i));
}

// Sanity check for the attacks below: resealing an untouched file is a
// byte-level no-op, so the test's checksum matches the library's.
TEST(SnapshotTest, TestChecksumMatchesLibraryChecksum) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  std::string bin = Snapshot::Serialize(*g);
  std::string resealed = bin;
  SealChecksum(&resealed);
  EXPECT_EQ(bin, resealed);
}

// Every section's u64 length field, replaced with values far beyond the file
// (and with all-ones), must be rejected after the checksum passes.
TEST(SnapshotTest, ForgedSectionLengthBeyondFileIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  // Walk the section framing: u32 tag | u64 len | payload, starting at the
  // body. Collect each length field's offset and true value.
  std::vector<std::pair<size_t, uint64_t>> len_fields;
  size_t pos = kSnapHeaderSize;
  while (pos + 12 <= bin.size()) {
    uint64_t len = 0;
    std::memcpy(&len, bin.data() + pos + 4, 8);
    len_fields.emplace_back(pos + 4, len);
    pos += 12 + len;
  }
  ASSERT_EQ(pos, bin.size());
  ASSERT_GT(len_fields.size(), 2u);
  for (auto [off, true_len] : len_fields) {
    const uint64_t evils[] = {~0ull, 1ull << 40,
                              static_cast<uint64_t>(bin.size()), true_len + 1};
    for (uint64_t evil : evils) {
      std::string forged = bin;
      PatchU64(&forged, off, evil);
      SealChecksum(&forged);
      auto spec = Snapshot::ParseGraphSpec(forged);
      EXPECT_FALSE(spec.ok()) << "len field at " << off << " = " << evil;
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
          << "len field at " << off;
    }
  }
}

// Overwrite every 4-byte-aligned word of the body with 0xffffffff and reseal.
// Count fields become absurd (4 billion symbols from a few-hundred-byte
// file); the parser must bail bounds-checked. Offsets landing inside string
// payloads or boolean flags may legitimately still parse — then the result
// must serialize to a stable canonical form (serialize-parse-serialize is a
// fixed point), never a silently unstable spec.
TEST(SnapshotTest, ForgedCountWordsNeverCrashOrOverAllocate) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  for (size_t off = kSnapHeaderSize; off + 4 <= bin.size(); off += 4) {
    std::string forged = bin;
    PatchU32(&forged, off, 0xffffffffu);
    SealChecksum(&forged);
    auto spec = Snapshot::ParseGraphSpec(forged);
    if (spec.ok()) {
      std::string canon = Snapshot::Serialize(*spec);
      auto again = Snapshot::ParseGraphSpec(canon);
      ASSERT_TRUE(again.ok()) << "word at " << off;
      EXPECT_EQ(Snapshot::Serialize(*again), canon) << "word at " << off;
    } else {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
          << "word at " << off;
    }
  }
}

// ---------------------------------------------------------------------------
// Version 2 tree edges
// ---------------------------------------------------------------------------

uint32_t ReadU32(const std::string& bin, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, bin.data() + off, 4);
  return v;
}

// Offset of the payload of the section tagged `tag`.
size_t SectionPayload(const std::string& bin, uint32_t tag) {
  size_t pos = kSnapHeaderSize;
  while (pos + 12 <= bin.size()) {
    uint64_t len = 0;
    std::memcpy(&len, bin.data() + pos + 4, 8);
    if (ReadU32(bin, pos) == tag) return pos + 12;
    pos += 12 + len;
  }
  ADD_FAILURE() << "no section " << tag;
  return 0;
}

void ExpectRejectedAfterPatch(const std::string& bin, size_t off,
                              uint32_t v) {
  std::string forged = bin;
  PatchU32(&forged, off, v);
  SealChecksum(&forged);
  Status st = Snapshot::ParseGraphSpec(forged).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
      << "offset " << off << " = " << v << ": " << st.ToString();
}

// A representative is a tree edge to an earlier cluster by an alphabet
// symbol; the root has neither parent nor symbol.
TEST(SnapshotTest, TreeEdgesOutOfRangeAreRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  ASSERT_GE(g->num_clusters(), 2u);
  // Cluster 0: u8 trunk | u32 parent | u32 symbol | label | successors.
  const size_t c0 = SectionPayload(bin, 5) + 4;
  ASSERT_EQ(ReadU32(bin, c0 + 1), kInvalidId);
  const size_t label = c0 + 9;
  const size_t succ = label + 8 + 4 * ReadU32(bin, label + 4);
  const size_t c1 = succ + 4 + 4 * ReadU32(bin, succ);
  ASSERT_EQ(ReadU32(bin, c1 + 1), 0u);  // cluster 1 extends the root
  ExpectRejectedAfterPatch(bin, c0 + 1, 0);      // its own parent
  ExpectRejectedAfterPatch(bin, c0 + 5, 1);      // symbol, no parent
  ExpectRejectedAfterPatch(bin, c1 + 1, 1);      // its own parent
  ExpectRejectedAfterPatch(bin, c1 + 1, 2);      // a later parent
  ExpectRejectedAfterPatch(bin, c1 + 5, 999);    // not a symbol
  ExpectRejectedAfterPatch(bin, succ + 4, 999);  // successor range
}

// A record holds one successor per alphabet symbol, so a forged file with a
// wide alphabet and records that hold none is rejected at its first record:
// the loader never sizes successor rows by the alphabet for records whose
// bytes it does not have.
TEST(SnapshotTest, ShortRecordsUnderAWideAlphabetAreRejected) {
  std::string source = "P(0).\n";
  for (int i = 0; i < 200; ++i) {
    source += "P(t) -> Q(f" + std::to_string(i) + "(t)).\n";
  }
  auto g = BuildGraph(source);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->alphabet().size(), 200u);
  const std::string bin = Snapshot::Serialize(*g);
  const size_t payload = SectionPayload(bin, 5);
  const size_t c0 = payload + 4;
  const uint32_t num_atoms = ReadU32(bin, c0 + 9);
  // 5,000 roots, each: u8 trunk | u32 parent | u32 symbol | an empty label
  // over the atoms | no successor.
  constexpr uint32_t kRecords = 5000;
  std::string records(4, '\0');
  PatchU32(&records, 0, kRecords);
  for (uint32_t i = 0; i < kRecords; ++i) {
    std::string r(21, '\0');
    PatchU32(&r, 1, kInvalidId);
    PatchU32(&r, 9, num_atoms);
    records += r;
  }
  const size_t header = payload - 12;
  uint64_t len = 0;
  std::memcpy(&len, bin.data() + header + 4, 8);
  std::string forged = bin.substr(0, payload) + records +
                       bin.substr(payload + len);
  PatchU64(&forged, header + 4, records.size());
  SealChecksum(&forged);
  Status st = Snapshot::ParseGraphSpec(forged).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(st.message(), "snapshot: successor count mismatch");
}

// The Link walk reads a path above the frontier off its trunk cluster and
// enters the rest at a frontier path, so forged depths that disagree with
// the trunk clusters would make reads throw. The loader rejects them.
TEST(SnapshotTest, ForgedDepthsAreRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->trunk_depth(), 0);
  ASSERT_EQ(g->graph().frontier_depth(), 1);
  const std::string bin = Snapshot::Serialize(*g);
  // Meta: i32 trunk_depth | i32 frontier_depth | ...
  const size_t meta = SectionPayload(bin, 1);
  ASSERT_EQ(ReadU32(bin, meta), 0u);
  ASSERT_EQ(ReadU32(bin, meta + 4), 1u);
  ExpectRejectedAfterPatch(bin, meta + 4, 2);
  ExpectRejectedAfterPatch(bin, meta + 4, 3);
  ExpectRejectedAfterPatch(bin, meta + 4, static_cast<uint32_t>(-1));
  ExpectRejectedAfterPatch(bin, meta, static_cast<uint32_t>(-5));
  ExpectRejectedAfterPatch(bin, meta, 3);
  // Trunk and frontier both one deeper: the depths agree with each other
  // but not with the one trunk cluster.
  std::string deeper = bin;
  PatchU32(&deeper, meta, 1);
  ExpectRejectedAfterPatch(deeper, meta + 4, 2);

  // The unpatched snapshot still loads and answers.
  auto loaded = Snapshot::ParseGraphSpec(bin);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto q = ParseQuery("? Meets(0+1, Tony).", loaded->symbols());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto holds = loaded->HoldsFact(*q);
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_FALSE(*holds);
}

// Successor indexes are found by binary search over the alphabet, so the
// loader takes only a strictly ascending one.
TEST(SnapshotTest, AlphabetMustBeStrictlyAscending) {
  auto g = BuildGraph(kLists);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  // Alphabet: u32 count, then the function ids.
  const size_t alphabet = SectionPayload(bin, 3);
  ASSERT_EQ(ReadU32(bin, alphabet), 2u);
  const uint32_t first = ReadU32(bin, alphabet + 4);
  const uint32_t second = ReadU32(bin, alphabet + 8);
  ASSERT_LT(first, second);
  std::string swapped = bin;
  PatchU32(&swapped, alphabet + 4, second);
  ExpectRejectedAfterPatch(swapped, alphabet + 8, first);
  ExpectRejectedAfterPatch(bin, alphabet + 8, first);  // duplicated
}

// The dictionary and the globals are indexed by their rows, so a row may
// appear once: a file that repeats one would have its readers find
// whichever copy the index probes first.
void ExpectDuplicateRejected(const std::string& forged, const char* what) {
  Status st = Snapshot::ParseGraphSpec(forged).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find(std::string("duplicate ") + what),
            std::string::npos)
      << st.ToString();
}

TEST(SnapshotTest, DuplicateAtomIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  // Atoms: u32 count, then (pred, argc = 1, constant) per Meets atom.
  const size_t atoms = SectionPayload(bin, 4);
  ASSERT_EQ(ReadU32(bin, atoms), 2u);
  ASSERT_EQ(ReadU32(bin, atoms + 4), ReadU32(bin, atoms + 16));
  ASSERT_NE(ReadU32(bin, atoms + 12), ReadU32(bin, atoms + 24));
  std::string forged = bin;
  PatchU32(&forged, atoms + 24, ReadU32(bin, atoms + 12));
  SealChecksum(&forged);
  ExpectDuplicateRejected(forged, "atom");
}

TEST(SnapshotTest, DuplicateGlobalIsRejected) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  const std::string bin = Snapshot::Serialize(*g);
  // Globals: u32 count, then (pred, argc = 2, x, y) per Next fact.
  const size_t globals = SectionPayload(bin, 8);
  ASSERT_EQ(ReadU32(bin, globals), 2u);
  ASSERT_EQ(ReadU32(bin, globals + 4), ReadU32(bin, globals + 20));
  std::string forged = bin;
  PatchU32(&forged, globals + 28, ReadU32(bin, globals + 12));
  PatchU32(&forged, globals + 32, ReadU32(bin, globals + 16));
  SealChecksum(&forged);
  ExpectDuplicateRejected(forged, "global");
}

// The Link walk follows the trunk's edges from cluster 0, and the boundary
// section is a stored copy of the frontier ones. A file whose copy says f(0)
// is cluster 1 while cluster 0's f edge leads to cluster 2 would answer
// membership and enumeration from two different graphs, so it is rejected.
TEST(SnapshotTest, TrunkEdgesMustMatchTheBoundary) {
  auto g = BuildGraph(kMeets);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_clusters(), 3u);
  const std::string bin = Snapshot::Serialize(*g);
  // Cluster 0: u8 trunk | u32 parent | u32 symbol | label | successors.
  const size_t c0 = SectionPayload(bin, 5) + 4;
  const size_t label = c0 + 9;
  const size_t succ = label + 8 + 4 * ReadU32(bin, label + 4);
  ASSERT_EQ(ReadU32(bin, succ), 1u);      // one symbol, f
  ASSERT_EQ(ReadU32(bin, succ + 4), 1u);  // f(0) is cluster 1
  ExpectRejectedAfterPatch(bin, succ + 4, 2);
  ExpectRejectedAfterPatch(bin, succ + 4, 0);
}

// With trunk depth 1 over {a, b}, the trunk is 0, a(0), b(0) as clusters
// 0, 1, 2: a heap. A trunk edge that skips its trunk child, or a trunk
// cluster that is not its heap position's path, is rejected.
TEST(SnapshotTest, TrunkMustBeAHeapOfThePathsAboveTheFrontier) {
  auto g = BuildGraph(R"(
    P(a(0)).  Q(b(0)).
    P(t) -> Q(a(t)).
  )");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->trunk_depth(), 1);
  const std::string bin = Snapshot::Serialize(*g);
  ASSERT_TRUE(Snapshot::ParseGraphSpec(bin).ok());
  const size_t c0 = SectionPayload(bin, 5) + 4;
  const size_t label0 = c0 + 9;
  const size_t succ0 = label0 + 8 + 4 * ReadU32(bin, label0 + 4);
  ASSERT_EQ(ReadU32(bin, succ0), 2u);
  ASSERT_EQ(ReadU32(bin, succ0 + 4), 1u);
  ASSERT_EQ(ReadU32(bin, succ0 + 8), 2u);
  const size_t c1 = succ0 + 12;
  ASSERT_EQ(ReadU32(bin, c1 + 1), 0u);
  ExpectRejectedAfterPatch(bin, succ0 + 4, 2);  // a(0) -> b(0)
  ExpectRejectedAfterPatch(bin, succ0 + 8, 1);  // b(0) -> a(0)
  // Cluster 1 claims to be b(0): two trunk clusters name the same path.
  ExpectRejectedAfterPatch(bin, c1 + 5, g->alphabet()[1]);
  // Cluster 1 unmarked as trunk (the word also covers three bytes of its
  // parent, 0, which stay 0).
  ExpectRejectedAfterPatch(bin, c1, 0);
}

}  // namespace
}  // namespace relspec
