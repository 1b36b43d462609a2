// Golden-file tests: the text serialization of the graph specification for
// the example programs is pinned under tests/golden/*.snap, their binary
// snapshots under tests/golden/v2/ (with version 1 fixtures beside them in
// tests/golden/v1/, which must load to the same specifications), and
// tests/golden/chi_builds.txt pins one fingerprint line per build of a fixed
// corpus (random programs, programs aimed at the chi closure's schedule and
// four benchmark families, each in six build modes, truncated ones
// included). Any engine
// change that alters the bytes must regenerate the goldens deliberately
// (tools/regen_goldens.sh) — an unintended diff here is a determinism or
// semantics regression.
//
// Run with UPDATE_GOLDENS=1 to rewrite the files from current output.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <utility>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/governor.h"
#include "src/base/str_util.h"
#include "src/core/engine.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"
#include "tests/closure_oracle.h"
#include "tests/random_program.h"
#include "tests/replay_fixpoint.h"

#ifndef RELSPEC_SOURCE_DIR
#error "RELSPEC_SOURCE_DIR must point at the repository root"
#endif

namespace relspec {
namespace {

struct GoldenCase {
  const char* name;     // test label and golden stem
  const char* program;  // path under examples/programs/
};

// Without this, gtest prints the case as its raw pointer bytes, which change
// with address-space randomisation and so make the listed test names unstable.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.program; }

const GoldenCase kCases[] = {
    {"meets", "meets.rsp"},
    {"even", "even.rsp"},
    {"lists", "lists.rsp"},
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// A compact readable diff: the first few differing lines, with line numbers.
std::string LineDiff(const std::string& want, const std::string& got) {
  std::vector<std::string> a = Lines(want), b = Lines(got);
  std::string out;
  int shown = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()) && shown < 8; ++i) {
    const std::string* wa = i < a.size() ? &a[i] : nullptr;
    const std::string* gb = i < b.size() ? &b[i] : nullptr;
    if (wa != nullptr && gb != nullptr && *wa == *gb) continue;
    out += "  line " + std::to_string(i + 1) + ":\n";
    out += "    golden: " + (wa != nullptr ? *wa : "<eof>") + "\n";
    out += "    actual: " + (gb != nullptr ? *gb : "<eof>") + "\n";
    ++shown;
  }
  return out;
}

struct ExampleSpecs {
  std::unique_ptr<FunctionalDatabase> db;
  GraphSpecification graph;
  std::optional<EquationalSpecification> eq;
};

// Parses separately: example programs may carry "? ..." query statements,
// which FromSource rejects.
ExampleSpecs BuildExample(const GoldenCase& c) {
  ExampleSpecs out;
  auto parsed = Parse(ReadFileOrDie(std::string(RELSPEC_SOURCE_DIR) +
                                    "/examples/programs/" + c.program));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return out;
  auto db = FunctionalDatabase::FromProgram(std::move(parsed->program));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return out;
  auto graph = (*db)->BuildGraphSpec();
  auto eq = (*db)->BuildEquationalSpec();
  EXPECT_TRUE(graph.ok() && eq.ok());
  if (!graph.ok() || !eq.ok()) return out;
  out.db = std::move(*db);
  out.graph = std::move(*graph);
  out.eq = std::move(*eq);
  return out;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, GraphSpecMatchesGolden) {
  const GoldenCase& c = GetParam();
  ExampleSpecs specs = BuildExample(c);
  ASSERT_NE(specs.db, nullptr);
  std::string actual = SpecIo::Serialize(specs.graph);

  std::string golden_path = std::string(RELSPEC_SOURCE_DIR) +
                            "/tests/golden/" + std::string(c.name) + ".snap";
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::string want = ReadFileOrDie(golden_path);
  EXPECT_EQ(want, actual) << "golden mismatch for " << c.name
                          << " (regenerate with tools/regen_goldens.sh):\n"
                          << LineDiff(want, actual);
}

// tests/golden/v2/<case>.{graph,eq}.rsnp: the examples' binary snapshots at
// the current version. tests/golden/v1/<case>.graph.rsnp holds the same
// graph specifications as written by the version 1 writer, which stored
// representatives as paths; they are fixtures and are never regenerated.
std::string GoldenSnapshotPath(const GoldenCase& c, const char* version,
                               const char* kind) {
  return std::string(RELSPEC_SOURCE_DIR) + "/tests/golden/" + version + "/" +
         c.name + "." + kind + ".rsnp";
}

TEST_P(GoldenTest, SnapshotsMatchGolden) {
  const GoldenCase& c = GetParam();
  ExampleSpecs specs = BuildExample(c);
  ASSERT_NE(specs.db, nullptr);
  const std::pair<const char*, std::string> snapshots[] = {
      {"graph", Snapshot::Serialize(specs.graph)},
      {"eq", Snapshot::Serialize(*specs.eq)}};
  for (const auto& [kind, bytes] : snapshots) {
    const std::string path = GoldenSnapshotPath(c, "v2", kind);
    if (std::getenv("UPDATE_GOLDENS") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << bytes;
      continue;
    }
    EXPECT_TRUE(ReadFileOrDie(path) == bytes)
        << "snapshot golden mismatch for " << path
        << " (regenerate with tools/regen_goldens.sh)";
  }
}

// The load-equality oracle for version 1: each graph fixture loads,
// re-serializes byte for byte to the current golden, prints the same text
// golden, and gives a (B, R) with the current (B, R) golden bytes. The
// loaded (B, F) answers every membership the fresh build answers, the same
// way, and the loaded (B, R) agrees with the [DST80] oracle.
TEST_P(GoldenTest, VersionOneSnapshotsLoadToGolden) {
  const GoldenCase& c = GetParam();
  ExampleSpecs specs = BuildExample(c);
  ASSERT_NE(specs.db, nullptr);
  auto loaded = Snapshot::ParseGraphSpec(
      ReadFileOrDie(GoldenSnapshotPath(c, "v1", "graph")));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto graph =
      std::make_shared<const GraphSpecification>(*std::move(loaded));
  auto eq = BuildEquationalSpecification(graph);
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_TRUE(Snapshot::Serialize(*graph) ==
              ReadFileOrDie(GoldenSnapshotPath(c, "v2", "graph")));
  EXPECT_TRUE(Snapshot::Serialize(*eq) ==
              ReadFileOrDie(GoldenSnapshotPath(c, "v2", "eq")));
  EXPECT_EQ(SpecIo::Serialize(*graph),
            ReadFileOrDie(std::string(RELSPEC_SOURCE_DIR) + "/tests/golden/" +
                          c.name + ".snap"));

  // Every atom of the dictionary at every path up to depth c+4.
  std::vector<Path> layer = {Path::Zero()};
  const int max_depth = specs.graph.trunk_depth() + 4;
  for (int depth = 0; depth <= max_depth; ++depth) {
    std::vector<Path> next;
    for (const Path& path : layer) {
      for (const AtomRef atom : specs.graph.atom_dictionary()) {
        const bool want = specs.graph.Holds(path, atom.pred, atom.args);
        EXPECT_EQ(graph->Holds(path, atom.pred, atom.args), want)
            << c.name << " graph " << path.ToString(specs.graph.symbols());
      }
      for (FuncId f : specs.graph.alphabet()) next.push_back(path.Extend(f));
    }
    layer = std::move(next);
  }
  testutil::ExpectWalkAgreesWithOracle(*eq, c.name);
}

INSTANTIATE_TEST_SUITE_P(Examples, GoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

// 64-bit FNV-1a: a fixed hash, so the golden lines do not depend on the
// standard library's std::hash.
class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  std::string Hex() const {
    return StrFormat("%016llx", static_cast<unsigned long long>(h_));
  }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

struct ChiBuildProgram {
  std::string name;
  std::string source;
};

// The corpus: 200 seeds of each random generator, programs whose rules read
// derived child atoms or wait behind the up pass, the programs whose chi
// entries are closed more than once, and small members of the rotation,
// subset, binary-counter and mixed (purified) families.
std::vector<ChiBuildProgram> ChiBuildPrograms() {
  std::vector<ChiBuildProgram> out;
  for (int seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed));
    out.push_back({"random/" + std::to_string(seed),
                   testutil::RandomProgram(&rng)});
  }
  for (int seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed));
    out.push_back({"rich/" + std::to_string(seed),
                   testutil::RandomProgramRich(&rng)});
  }
  // Rules that read a child atom the child's own closure derives, while a
  // sibling rule grows that child's seed: the grown seed's fresh entry
  // lacks the atom until it is closed. The deep variants put the A node
  // below the trunk, so a chi closure (not the trunk pass) sees the child's
  // label shrink.
  for (const char* prefix : {"A(0).\n", "S(0).\nS(t) -> A(t+1).\n"}) {
    std::string depth = prefix[0] == 'A' ? "trunk" : "deep";
    out.push_back({"childread/" + depth + "/0",
                   std::string(prefix) +
                       "A(t) -> B(t+1).\nB(t) -> C(t).\n"
                       "C(t+1) -> D(t+1).\nC(t+1) -> U(t).\n"});
    out.push_back({"childread/" + depth + "/1",
                   std::string(prefix) +
                       "A(t) -> B(t+1).\nB(t) -> C(t).\n"
                       "C(t+1) -> D(t+1).\nC(t+1), A(t) -> U(t).\n"
                       "U(t) -> V(t+1).\nV(t+1) -> W(t).\n"});
  }
  // An up rule that becomes ready behind the up pass's scan: the grounder
  // orders X -> Y before A -> X, so Y waits for the next pass, and the
  // restart in between demands the seed {P} before {P, Q}.
  out.push_back({"uporder/0",
                 "S(0).\nS(t) -> A(t+1).\nA(t) -> X(t).\nX(t) -> Y(t).\n"
                 "X(t) -> P(t+1).\nY(t) -> Q(t+1).\n"});
  std::vector<std::string> reclosure = testutil::ReclosurePrograms();
  for (size_t i = 0; i < reclosure.size(); ++i) {
    out.push_back({"reclosure/" + std::to_string(i), reclosure[i]});
  }
  for (int k : {3, 8, 40, 105}) {
    out.push_back({"rotation/" + std::to_string(k),
                   relspec_bench::RotationProgram(k)});
  }
  for (int n : {3, 5, 8}) {
    out.push_back({"subset/" + std::to_string(n),
                   relspec_bench::SubsetProgram(n)});
  }
  for (int n : {3, 5, 8}) {
    out.push_back({"counter/" + std::to_string(n),
                   relspec_bench::BinaryCounterProgram(n)});
  }
  for (int n : {3, 8}) {
    out.push_back({"mixed/" + std::to_string(n),
                   relspec_bench::MixedProgram(n)});
  }
  return out;
}

// Hashes LabelOf over the first `limit` paths in shortlex order, up to
// depth c+3. On a truncated build these reads close queued chi entries, so
// the walk order is part of what the line pins.
std::string LabelHash(Labeling& labeling, size_t limit) {
  const std::vector<FuncId>& alphabet = labeling.ground().alphabet();
  const int max_depth = labeling.trunk_depth() + 3;
  Fnv1a h;
  std::vector<Path> layer = {Path::Zero()};
  size_t seen = 0;
  for (int depth = 0; depth <= max_depth && !layer.empty(); ++depth) {
    std::vector<Path> next;
    for (const Path& path : layer) {
      if (seen++ == limit) return h.Hex();
      for (size_t a : labeling.LabelOf(path).ToVector()) h.Add(uint64_t{a});
      h.Add(~uint64_t{0});
      if (depth < max_depth) {
        for (FuncId f : alphabet) next.push_back(path.Extend(f));
      }
    }
    layer = std::move(next);
  }
  return h.Hex();
}

constexpr const char* kChiBuildModes[] = {"complete", "clusters3", "nodes3"};

// One corpus build and its fixpoint, replayed with the same options: the
// engine keeps only the spec, and the labeling is the reference it is held
// to.
struct ModeBuild {
  std::unique_ptr<FunctionalDatabase> db;
  testutil::ReplayedFixpoint fixpoint;
};

// Builds `program` in one of the corpus modes: complete, cut at 3 clusters,
// or cut by a 3-node governor budget (both with allow_partial).
StatusOr<ModeBuild> BuildInMode(const ChiBuildProgram& program, bool merge,
                                std::string_view mode) {
  GovernorLimits limits;
  limits.max_nodes = 3;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.graph.merge_trunk_frontier = merge;
  if (mode == "clusters3") {
    options.graph.max_clusters = 3;
    options.allow_partial = true;
  } else if (mode == "nodes3") {
    options.governor = &governor;
    options.allow_partial = true;
  }
  ModeBuild out;
  RELSPEC_ASSIGN_OR_RETURN(out.db,
                           FunctionalDatabase::FromSource(program.source,
                                                          options));
  RELSPEC_ASSIGN_OR_RETURN(out.fixpoint,
                           testutil::ReplayFixpoint(*out.db, options));
  return out;
}

// One line per build: the hashes of its graph snapshot bytes and of its
// equational snapshot bytes, the chi entry count, a hash of every entry's
// value in id order, the truncated flag and the LabelOf hash.
std::string ChiBuildLine(const ChiBuildProgram& program, bool merge,
                         const char* mode) {
  std::string line = program.name + " merge=" + (merge ? "1" : "0") + " " +
                     mode + " ";
  auto build = BuildInMode(program, merge, mode);
  if (!build.ok()) return line + "error=" + build.status().ToString();
  const FunctionalDatabase& db = *build->db;
  Labeling& labeling = build->fixpoint.labeling;
  Fnv1a gsnap;
  auto graph = db.BuildGraphSpec();
  gsnap.Add(graph.ok() ? Snapshot::Serialize(*graph)
                       : "!" + graph.status().ToString());
  Fnv1a eqsnap;
  auto eq = db.BuildEquationalSpec();
  eqsnap.Add(eq.ok() ? Snapshot::Serialize(*eq)
                     : "!" + eq.status().ToString());
  std::string labels = LabelHash(labeling, 2000);
  const ChiEngine& chi = labeling.chi();
  Fnv1a table;
  for (uint32_t e = 0; e < chi.num_entries(); ++e) {
    for (size_t a : chi.Value(e).ToVector()) table.Add(uint64_t{a});
    table.Add(~uint64_t{0});
  }
  return line + "gsnap=" + gsnap.Hex() + " eqsnap=" + eqsnap.Hex() +
         " entries=" + std::to_string(chi.num_entries()) +
         " table=" + table.Hex() +
         " truncated=" + (db.truncated() ? "1" : "0") +
         " labels=" + labels;
}

// The χ table's behaviour, pinned build by build: a change to how entries
// are closed must leave every line, truncated builds included, unchanged.
TEST(ChiBuildsGolden, EveryBuildMatchesGolden) {
  std::string actual;
  for (const ChiBuildProgram& program : ChiBuildPrograms()) {
    for (bool merge : {false, true}) {
      for (const char* mode : kChiBuildModes) {
        actual += ChiBuildLine(program, merge, mode) + "\n";
      }
    }
  }
  std::string golden_path =
      std::string(RELSPEC_SOURCE_DIR) + "/tests/golden/chi_builds.txt";
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::string want = ReadFileOrDie(golden_path);
  EXPECT_EQ(want, actual) << "chi build lines differ "
                          << "(regenerate with tools/regen_goldens.sh):\n"
                          << LineDiff(want, actual);
}

// (B, R) decides Cl(R) by the Link walk; the paper's [DST80] closure over
// R is the reference. On every corpus build, truncated ones included, the
// two agree on each pair of the first 64 terms to depth frontier+1, every
// walk proof is a chain of equations of R, and the paper's membership
// equals spec().Holds.
TEST(ChiBuildsGolden, WalkAgreesWithClosureOracle) {
  for (const ChiBuildProgram& program : ChiBuildPrograms()) {
    for (bool merge : {false, true}) {
      for (const char* mode : kChiBuildModes) {
        auto build = BuildInMode(program, merge, mode);
        if (!build.ok()) continue;
        auto eq = build->db->BuildEquationalSpec();
        ASSERT_TRUE(eq.ok()) << eq.status().ToString();
        testutil::ExpectWalkAgreesWithOracle(
            *eq, program.name + " merge=" + (merge ? "1 " : "0 ") + mode);
      }
    }
  }
}

// Membership reads the engine's (B, F); the fixpoint's labeling is the
// reference. Over every fact of the corpus builds — each path over the
// alphabet to depth c+3 with each dictionary atom — the two agree on
// complete builds. Both are sound on truncated builds, so there the spec may
// only miss facts the labeling holds: the graph routes an unexplored path to
// the unknown sink, where a read of the frozen labeling may still close its
// entry (EXPERIMENTS.md E30).
TEST(ChiBuildsGolden, SpecMembershipAgreesWithLabeling) {
  size_t builds[2] = {0, 0};  // complete, truncated
  size_t facts[2] = {0, 0};
  size_t missed = 0, missed_builds = 0, unsound = 0;
  for (const ChiBuildProgram& program : ChiBuildPrograms()) {
    for (bool merge : {false, true}) {
      for (const char* mode : kChiBuildModes) {
        auto build = BuildInMode(program, merge, mode);
        if (!build.ok()) continue;
        const FunctionalDatabase& db = *build->db;
        const bool truncated = db.truncated();
        const GraphSpecification& spec = *db.spec();
        Labeling& labeling = build->fixpoint.labeling;
        // The spec records the fixpoint's own truncation and breach.
        if (labeling.truncated()) {
          EXPECT_TRUE(truncated);
          EXPECT_EQ(db.breach().ToString(), labeling.breach().ToString());
        }
        const AtomTable& atoms = spec.atom_dictionary();
        const int max_depth = labeling.trunk_depth() + 3;
        ++builds[truncated];
        size_t missed_here = 0;
        std::vector<Path> layer = {Path::Zero()};
        for (int depth = 0; depth <= max_depth; ++depth) {
          std::vector<Path> next;
          for (const Path& path : layer) {
            const DynamicBitset label(labeling.LabelOf(path));
            for (AtomIdx i = 0; i < atoms.size(); ++i) {
              const bool by_labeling = label.Test(i);
              const bool by_spec =
                  spec.Holds(path, atoms[i].pred, atoms[i].args);
              ++facts[truncated];
              if (by_labeling == by_spec) continue;
              if (truncated && by_labeling) {
                ++missed_here;
              } else {
                ++unsound;
                ADD_FAILURE() << program.name << " merge=" << merge << " "
                              << mode << " " << path.ToWord(spec.symbols())
                              << " atom " << i << ": labeling "
                              << by_labeling << ", spec " << by_spec;
              }
            }
            if (depth < max_depth) {
              for (FuncId f : spec.alphabet()) next.push_back(path.Extend(f));
            }
          }
          layer = std::move(next);
        }
        missed += missed_here;
        if (missed_here > 0) ++missed_builds;
      }
    }
  }
  EXPECT_EQ(unsound, 0u);
  printf("complete builds %zu (%zu facts), truncated builds %zu (%zu facts): "
         "%zu facts in %zu truncated builds held by the labeling only\n",
         builds[0], facts[0], builds[1], facts[1], missed, missed_builds);
}

}  // namespace
}  // namespace relspec
