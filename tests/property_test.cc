// Property-based tests: randomly generated functional programs are run
// through the whole pipeline and checked against
//   (a) the quotient-model certificate (completeness: L ⊆ spec),
//   (b) the bounded brute-force fixpoint (soundness: bounded ⊆ spec, and
//       equality on stabilized regions),
//   (c) agreement between the graph and equational specifications,
//   (d) serialization round trips,
//   (e) query answers from (B, F) vs the rebuild oracle (Theorem 5.1),
//   (f) bounded CONGR evaluation (Section 3.6).
// Fixed programs that close chi entries more than once run (a)-(d) too.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/base/metrics.h"
#include "src/core/congr.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"
#include "tests/query_oracle.h"
#include "tests/random_program.h"

namespace relspec {
namespace {

using testutil::RandomProgram;
using testutil::RandomProgramRich;
using testutil::UniverseUpTo;

class RandomProgramTest : public ::testing::TestWithParam<int> {};

void RunPipelineInvariants(const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // (a) Certificate: the quotient structure is a model, so together with
  // the constructive lower bound the spec equals LFP(Z, D).
  ASSERT_TRUE((*db)->Verify().ok());

  auto gspec = (*db)->BuildGraphSpec();
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(gspec.ok());
  ASSERT_TRUE(espec.ok());

  // (b) Brute force at depth 10 is sound; when two consecutive bounds agree
  // on the inner region, they match the engine exactly there.
  constexpr int kBound = 10;
  constexpr int kInner = 6;
  auto b1 = ComputeBoundedFixpoint((*db)->ground(), kBound);
  auto b2 = ComputeBoundedFixpoint((*db)->ground(), kBound + 2);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  const GroundProgram& ground = (*db)->ground();
  std::vector<Path> inner = UniverseUpTo(ground, kInner);
  for (const Path& p : inner) {
    const DynamicBitset& exact = (*db)->labeling().LabelOf(p);
    const DynamicBitset& approx1 = b1->LabelOf(p);
    const DynamicBitset& approx2 = b2->LabelOf(p);
    ASSERT_TRUE(approx1.IsSubsetOf(exact)) << p.depth();  // soundness
    if (approx1 == approx2) {
      EXPECT_EQ(approx1, exact)
          << "stabilized bounded fixpoint disagrees with the engine";
    }
  }

  // (c) Graph and equational specifications agree on every atom over the
  // inner universe.
  for (const Path& p : inner) {
    for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
      const SliceAtom& atom = ground.atom(i);
      bool g = gspec->Holds(p, atom.pred, atom.args);
      bool e = espec->Holds(p, atom.pred, atom.args);
      bool l = (*db)->labeling().LabelOf(p).Test(i);
      EXPECT_EQ(g, l) << "graph spec vs labeling";
      EXPECT_EQ(e, l) << "equational spec vs labeling";
    }
  }

  // (d) Serialization round trips preserve membership.
  auto greload = SpecIo::ParseGraphSpec(SpecIo::Serialize(*gspec));
  ASSERT_TRUE(greload.ok()) << greload.status().ToString();
  auto ereload = SpecIo::ParseEquationalSpec(SpecIo::Serialize(*espec));
  ASSERT_TRUE(ereload.ok()) << ereload.status().ToString();
  for (const Path& p : inner) {
    for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
      const SliceAtom& atom = ground.atom(i);
      EXPECT_EQ(greload->Holds(p, atom.pred, atom.args),
                gspec->Holds(p, atom.pred, atom.args));
      EXPECT_EQ(ereload->Holds(p, atom.pred, atom.args),
                espec->Holds(p, atom.pred, atom.args));
    }
  }
}

TEST_P(RandomProgramTest, PipelineInvariants) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);
  RunPipelineInvariants(source);
}

TEST_P(RandomProgramTest, RichPipelineInvariants) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u + 99u);
  std::string source = RandomProgramRich(&rng);
  SCOPED_TRACE(source);
  RunPipelineInvariants(source);
}

// The random generators rarely make the chi worklist close an entry twice;
// these programs do (see ReclosurePrograms), and must still match the
// bounded brute force.
TEST(ReclosureProgramTest, PipelineInvariants) {
  for (const std::string& source : testutil::ReclosurePrograms()) {
    SCOPED_TRACE(source);
    MetricsRegistry::Global().Reset();
    EnableMetrics(true);
    auto db = FunctionalDatabase::FromSource(source);
    EnableMetrics(false);
    uint64_t closures =
        MetricsRegistry::Global().Snapshot().counter("chi.close_node_calls");
    MetricsRegistry::Global().Reset();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_GT(closures, (*db)->labeling().chi().num_entries());
    RunPipelineInvariants(source);
  }
}

TEST_P(RandomProgramTest, UniformQueriesIncrementalEqualsRecompute) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);
  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Query each predicate uniformly; AnswerQuery must equal the rebuild.
  for (PredId p = 0; p < (*db)->program().symbols.num_predicates(); ++p) {
    const PredicateInfo& info = (*db)->program().symbols.predicate(p);
    if (!info.functional || info.name[0] == '$') continue;
    std::string qtext = "?(s" + std::string(info.arity == 2 ? ", x" : "") +
                        ") " + info.name + "(s" +
                        (info.arity == 2 ? ", x" : "") + ").";
    auto q = ParseQuery(qtext, (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << qtext;
    testutil::ExpectAnswerMatchesOracle(db->get(), *q, qtext);
  }
}

TEST_P(RandomProgramTest, CongrBoundedAgreement) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 7u);
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);
  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());

  // The bound must cover B and R; representative depth is small for these
  // programs. Keep the universe tight: the eq relation is quadratic in it.
  auto congr = EvaluateCongrBounded(*espec, 6);
  if (!congr.ok()) {
    GTEST_SKIP() << "universe too deep for the bounded CONGR check";
  }
  const GroundProgram& ground = (*db)->ground();
  for (const Path& p : UniverseUpTo(ground, 4)) {
    for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
      const SliceAtom& atom = ground.atom(i);
      EXPECT_EQ(congr->Holds(p, atom.pred, atom.args),
                espec->Holds(p, atom.pred, atom.args))
          << p.depth();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 25));

// The footnote-3 (merged frontier) variant must agree with the default on
// every membership question.
class MergedFrontierTest : public ::testing::TestWithParam<int> {};

TEST_P(MergedFrontierTest, AgreesWithDefaultTraversal) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 5u);
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);
  auto db1 = FunctionalDatabase::FromSource(source);
  EngineOptions merged;
  merged.graph.merge_trunk_frontier = true;
  auto db2 = FunctionalDatabase::FromSource(source, merged);
  ASSERT_TRUE(db1.ok());
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)->Verify().ok());
  auto s1 = (*db1)->BuildGraphSpec();
  auto s2 = (*db2)->BuildGraphSpec();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // The merged graph is never larger.
  EXPECT_LE(s2->num_clusters(), s1->num_clusters());
  const GroundProgram& ground = (*db1)->ground();
  for (const Path& p : UniverseUpTo(ground, 6)) {
    for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
      const SliceAtom& atom = ground.atom(i);
      EXPECT_EQ(s1->Holds(p, atom.pred, atom.args),
                s2->Holds(p, atom.pred, atom.args));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergedFrontierTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace relspec
