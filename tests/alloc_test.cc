// Heap blocks of the back end. The chi table and the label graph keep their
// entries and clusters in flat arrays, so the blocks that ComputeFixpoint
// and BuildLabelGraph allocate grow with the doublings of those arrays, not
// with the number of chi entries or clusters. A congruence test or proof
// over (B, R) walks its terms, so its blocks do not grow with the clusters
// or the equations of R either. This binary replaces the
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
#include "src/core/ground.h"
#include "src/core/label_graph.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
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

}  // namespace
}  // namespace relspec
