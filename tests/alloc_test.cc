// Heap blocks of the build. The chi table and the label graph keep their
// entries and clusters in flat arrays, so the blocks that ComputeFixpoint
// and BuildLabelGraph allocate grow with the doublings of those arrays, not
// with the number of chi entries or clusters. A congruence test or proof
// over (B, R) walks its terms, so its blocks do not grow with the clusters
// or the equations of R either. The front end is flat the same way: the
// symbol table, the ground universe and the dictionary and globals of
// (B, F) allocate per array doubling, not per name, atom or global, and the
// grounder allocates per new ground rule at most. This binary replaces the
// global operator new with a counting one, which is why it is a binary of
// its own. A sanitizer build interposes its own allocator and skips it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/fixpoint.h"
#include "src/core/graph_spec.h"
#include "src/core/ground.h"
#include "src/core/label_graph.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RELSPEC_ALLOC_TEST_SANITIZED 1
#else
#define RELSPEC_ALLOC_TEST_SANITIZED 0
#endif

namespace {
std::atomic<size_t> g_blocks{0};
}  // namespace

#if !RELSPEC_ALLOC_TEST_SANITIZED
void* operator new(std::size_t n) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace relspec {
namespace {

struct Blocks {
  size_t fixpoint = 0;
  size_t graph = 0;
  size_t entries = 0;
  size_t clusters = 0;
};

// The heap blocks ComputeFixpoint and BuildLabelGraph allocate on
// SubsetProgram(n), whose 2^(n-1) states are chi entries and clusters.
Blocks Measure(int n) {
  Blocks out;
  auto program = ParseProgram(relspec_bench::SubsetProgram(n));
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(NormalizeProgram(&*program).ok());
  EXPECT_TRUE(MixedToPure(&*program).ok());
  auto ground = Ground(*program);
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  const size_t start = g_blocks.load();
  auto labeling = ComputeFixpoint(*ground);
  EXPECT_TRUE(labeling.ok()) << labeling.status().ToString();
  const size_t fixpoint_done = g_blocks.load();
  auto graph = BuildLabelGraph(&*labeling);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  out.fixpoint = fixpoint_done - start;
  out.graph = g_blocks.load() - fixpoint_done;
  out.entries = labeling->chi().num_entries();
  out.clusters = graph->num_clusters();
  std::printf("subset(%d): %zu chi entries, %zu clusters; blocks: fixpoint "
              "%zu, Algorithm Q %zu\n",
              n, out.entries, out.clusters, out.fixpoint, out.graph);
  return out;
}

// subset(10) has four times the entries and clusters of subset(8). A
// table of doubling arrays gains about two blocks per array from that, and
// the symbols the two programs differ by add a few per symbol; a block per
// entry or cluster would add hundreds.
TEST(HeapBlocks, BackEndBlocksDoNotGrowPerEntryOrCluster) {
  if (RELSPEC_ALLOC_TEST_SANITIZED) {
    GTEST_SKIP() << "the sanitizer's allocator replaces operator new";
  }
  const Blocks small = Measure(8);
  const Blocks large = Measure(10);
  ASSERT_GE(large.entries, small.entries + 300);
  ASSERT_GE(large.clusters, small.clusters + 300);
  constexpr size_t kSlack = 64;
  EXPECT_LE(large.fixpoint, small.fixpoint + kSlack);
  EXPECT_LE(large.graph, small.graph + kSlack);
}

// The heap blocks that Congruent and ExplainCongruence allocate on
// SubsetProgram(n) for two depth-12 terms over set0..set7, which reach the
// state {b0, ..., b7} in opposite orders and so are congruent.
size_t CongruenceBlocks(int n) {
  auto db = FunctionalDatabase::FromSource(relspec_bench::SubsetProgram(n));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  auto eq = (*db)->BuildEquationalSpec();
  EXPECT_TRUE(eq.ok()) << eq.status().ToString();
  const SymbolTable& symbols = eq->spec().symbols();
  std::vector<FuncId> up, down;
  for (int i = 0; i < 12; ++i) {
    up.push_back(*symbols.FindFunction("set" + std::to_string(i % 8)));
    down.push_back(*symbols.FindFunction("set" + std::to_string(7 - i % 8)));
  }
  const Path a(std::move(up)), b(std::move(down));
  const size_t start = g_blocks.load();
  const bool congruent = eq->Congruent(a, b);
  auto proof = eq->ExplainCongruence(a, b);
  const size_t blocks = g_blocks.load() - start;
  EXPECT_TRUE(congruent);
  EXPECT_TRUE(proof.ok()) << proof.status().ToString();
  std::printf("subset(%d): %zu clusters, %zu equations; congruence blocks "
              "%zu\n",
              n, eq->spec().num_clusters(), eq->num_equations(), blocks);
  return blocks;
}

// subset(10) has four times the clusters and equations of subset(8), but
// the two terms and their walks are the same in both: a closure over R
// would allocate per cluster and per equation.
TEST(HeapBlocks, CongruenceDoesNotGrowWithClusters) {
  if (RELSPEC_ALLOC_TEST_SANITIZED) {
    GTEST_SKIP() << "the sanitizer's allocator replaces operator new";
  }
  const size_t small = CongruenceBlocks(8);
  const size_t large = CongruenceBlocks(10);
  constexpr size_t kSlack = 16;
  EXPECT_LE(large, small + kSlack);
  EXPECT_LE(small, large + kSlack);
}

struct FrontEndBlocks {
  size_t symbols_copy = 0;
  size_t ground = 0;
  size_t graph_spec = 0;
  size_t graph_spec_copy = 0;
  size_t snapshot = 0;
  size_t ground_rules = 0;
  size_t atoms = 0;
  size_t globals = 0;
};

// The heap blocks of the front half of a build of RotationProgram(k): a
// copy of the parsed symbol table, Ground, BuildGraphSpecification, a copy
// of the specification (the one FunctionalDatabase::BuildGraphSpec
// returns) and its snapshot. The program has k constants, k slice atoms,
// k globals and k ground rules.
FrontEndBlocks MeasureFrontEnd(int k) {
  FrontEndBlocks out;
  auto program = ParseProgram(relspec_bench::RotationProgram(k));
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(NormalizeProgram(&*program).ok());
  EXPECT_TRUE(MixedToPure(&*program).ok());
  size_t start = g_blocks.load();
  {
    const SymbolTable copy = program->symbols;
    out.symbols_copy = g_blocks.load() - start;
  }
  start = g_blocks.load();
  auto ground = Ground(*program);
  out.ground = g_blocks.load() - start;
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  auto labeling = ComputeFixpoint(*ground);
  EXPECT_TRUE(labeling.ok()) << labeling.status().ToString();
  auto graph = BuildLabelGraph(&*labeling);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  start = g_blocks.load();
  auto spec = BuildGraphSpecification(std::move(*graph), &*labeling,
                                      program->symbols);
  out.graph_spec = g_blocks.load() - start;
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  start = g_blocks.load();
  {
    const GraphSpecification copy = *spec;
    out.graph_spec_copy = g_blocks.load() - start;
  }
  start = g_blocks.load();
  {
    const std::string bytes = Snapshot::Serialize(*spec);
    out.snapshot = g_blocks.load() - start;
  }
  out.ground_rules =
      ground->local_rules().size() + ground->global_rules().size();
  out.atoms = ground->num_atoms();
  out.globals = spec->globals().size();
  std::printf("rotation(%d): %zu rules, %zu atoms, %zu globals; blocks: "
              "symbol table copy %zu, Ground %zu, BuildGraphSpecification "
              "%zu, spec copy %zu, snapshot %zu\n",
              k, out.ground_rules, out.atoms, out.globals, out.symbols_copy,
              out.ground, out.graph_spec, out.graph_spec_copy, out.snapshot);
  return out;
}

// rotation(400) has 300 more constants, slice atoms, globals and ground
// rules than rotation(100). The copies and the
// specification build gain a few blocks from array doublings at most, the
// snapshot is sized before it is written, and Ground may gain a small
// constant per ground rule (its rule vectors); a block per name, atom or
// global would add hundreds everywhere.
TEST(HeapBlocks, FrontEndBlocksDoNotGrowPerNameOrAtom) {
  if (RELSPEC_ALLOC_TEST_SANITIZED) {
    GTEST_SKIP() << "the sanitizer's allocator replaces operator new";
  }
  const FrontEndBlocks small = MeasureFrontEnd(100);
  const FrontEndBlocks large = MeasureFrontEnd(400);
  ASSERT_EQ(large.ground_rules, small.ground_rules + 300);
  ASSERT_EQ(large.atoms, small.atoms + 300);
  ASSERT_EQ(large.globals, small.globals + 300);
  constexpr size_t kDoublings = 16;
  EXPECT_LE(large.symbols_copy, small.symbols_copy + kDoublings);
  EXPECT_LE(large.graph_spec, small.graph_spec + kDoublings);
  EXPECT_LE(large.graph_spec_copy, small.graph_spec_copy + kDoublings);
  // The snapshot's buffer, sized first, and the boundary walk's symbol
  // buffer, once to size the section and once to write it.
  EXPECT_LE(large.snapshot, 3u);
  EXPECT_EQ(large.snapshot, small.snapshot);
  constexpr size_t kPerRule = 2;
  EXPECT_LE(large.ground,
            small.ground + kDoublings +
                kPerRule * (large.ground_rules - small.ground_rules));
}

}  // namespace
}  // namespace relspec
