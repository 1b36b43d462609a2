// Differential testing: the same program evaluated along independent
// implementation paths must produce byte-identical artifacts.
//
//   (a) snapshot save -> load -> re-serialize -> byte-identical to the
//       direct run, in both the binary and the text format,
//   (b) naive vs semi-naive DATALOG evaluation of CONGR -> identical
//       materialized databases,
//   (c) cached vs uncached query answers -> identical enumerations,
//   (d) incremental deltas -> identical to a rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/core/congr.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"
#include "tests/random_program.h"

namespace relspec {
namespace {

using testutil::RandomProgram;
using testutil::RandomProgramRich;
using testutil::UniverseUpTo;

std::unique_ptr<FunctionalDatabase> Build(const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

// Every relation of the database, predicates and rows sorted, as one string.
std::string RenderDatabase(const datalog::Database& db) {
  std::vector<PredId> preds = db.Predicates();
  std::sort(preds.begin(), preds.end());
  std::string out;
  for (PredId p : preds) {
    std::vector<datalog::Tuple> rows = db.relation(p).CopyRows();
    std::sort(rows.begin(), rows.end());
    out += "pred " + std::to_string(p) + "\n";
    for (const auto& row : rows) {
      for (datalog::Value v : row) {
        out += " ";
        out += std::to_string(v);
      }
      out += "\n";
    }
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

// (a) A snapshot-reloaded specification is indistinguishable from the
// directly built one: binary and text serializations round-trip to the
// same bytes, and membership agrees over the inner universe.
TEST_P(DifferentialTest, SnapshotReloadIsByteIdentical) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 48271u + 3u);
  std::string source = RandomProgramRich(&rng);
  SCOPED_TRACE(source);

  auto db = Build(source);
  ASSERT_TRUE(db);
  auto spec = db->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());

  std::string bin = Snapshot::Serialize(*spec);
  auto reloaded = Snapshot::ParseGraphSpec(bin);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  EXPECT_EQ(bin, Snapshot::Serialize(*reloaded));
  EXPECT_EQ(SpecIo::Serialize(*spec), SpecIo::Serialize(*reloaded));

  const GroundProgram& ground = db->ground();
  for (const Path& p : UniverseUpTo(ground, 5)) {
    for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
      const SliceAtom& atom = ground.atom(i);
      ASSERT_EQ(spec->Holds(p, atom.pred, atom.args),
                reloaded->Holds(p, atom.pred, atom.args));
    }
  }

  auto espec = db->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  std::string ebin = Snapshot::Serialize(*espec);
  auto ereloaded = Snapshot::ParseEquationalSpec(ebin);
  ASSERT_TRUE(ereloaded.ok()) << ereloaded.status().ToString();
  EXPECT_EQ(ebin, Snapshot::Serialize(*ereloaded));
}

// (b) Naive and semi-naive evaluation of the CONGR canonical form must
// materialize exactly the same database.
TEST_P(DifferentialTest, NaiveVsSemiNaiveCongr) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 16807u + 7u);
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);

  auto db = Build(source);
  ASSERT_TRUE(db);
  auto espec = db->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());

  auto semi = EvaluateCongrBounded(*espec, 5, datalog::Strategy::kSemiNaive);
  auto naive = EvaluateCongrBounded(*espec, 5, datalog::Strategy::kNaive);
  if (!semi.ok() || !naive.ok()) {
    GTEST_SKIP() << "universe too deep for the bounded CONGR differential";
  }
  EXPECT_EQ(RenderDatabase(semi->db), RenderDatabase(naive->db));
}

// (c) A warm cache must hand back answers identical to a cold evaluation,
// and a fingerprint change must miss.
TEST_P(DifferentialTest, CachedAnswersMatchUncached) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 69621u + 11u);
  std::string source = RandomProgram(&rng);
  SCOPED_TRACE(source);

  auto db = Build(source);
  ASSERT_TRUE(db);
  QueryCache cache;

  for (PredId p = 0; p < db->program().symbols.num_predicates(); ++p) {
    const PredicateInfo& info = db->program().symbols.predicate(p);
    if (!info.functional || info.name[0] == '$') continue;
    std::string qtext = "?(s" + std::string(info.arity == 2 ? ", x" : "") +
                        ") " + info.name + "(s" +
                        (info.arity == 2 ? ", x" : "") + ").";
    auto q = ParseQuery(qtext, db->program().symbols);
    ASSERT_TRUE(q.ok()) << qtext;

    auto direct = AnswerQuery(db.get(), *q);
    auto cold = AnswerQueryCached(db.get(), *q, &cache);
    auto warm = AnswerQueryCached(db.get(), *q, &cache);
    ASSERT_TRUE(direct.ok() && cold.ok() && warm.ok());
    EXPECT_EQ(cold->get(), warm->get()) << "second lookup must be a hit";

    auto e_direct = direct->Enumerate(5, 100000);
    auto e_warm = (*warm)->Enumerate(5, 100000);
    ASSERT_TRUE(e_direct.ok() && e_warm.ok());
    EXPECT_EQ(*e_direct, *e_warm) << qtext;
  }
}

// (d) Incremental maintenance (paper Section 5, docs/INCREMENTAL.md):
// applying a mixed insert/delete sequence batch by batch must be
// indistinguishable from rebuilding from the edited program — identical
// spec text, identical snapshot bytes, identical equational spec, identical
// fingerprint — and the repaired spec must still round-trip through the
// binary snapshot byte-identically.
TEST_P(DifferentialTest, IncrementalDeltasMatchRebuild) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 25173u + 13u);
  std::string source = RandomProgramRich(&rng);
  SCOPED_TRACE(source);

  // Candidate edits over the generator's guaranteed signature (P0 and R
  // always exist; P1/Seen only sometimes, so they stay out of the pool).
  // Only `f` and the existing constants, so most edits keep the grounded
  // universe and take the in-place repair path; deletes of never-present
  // facts are noops, which must also preserve equivalence.
  std::vector<std::string> pool;
  for (const char* t : {"0", "f(0)", "f(f(0))"}) {
    pool.push_back(std::string("P0(") + t + ", a)");
    pool.push_back(std::string("P0(") + t + ", b)");
  }
  pool.push_back("R(a)");
  pool.push_back("R(b)");

  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::string> batches;
  for (int b = 0; b < 4; ++b) {
    std::string text;
    int edits = 1 + static_cast<int>(pick(3));
    for (int e = 0; e < edits; ++e) {
      // Insert-biased early, delete-biased late, so later batches retract
      // facts earlier ones derived from (the interesting DRed case).
      bool insert = pick(4) >= static_cast<size_t>(b);
      text += std::string(insert ? "+ " : "- ") + pool[pick(pool.size())] +
              ".\n";
    }
    batches.push_back(text);
  }
  // One batch with a brand-new constant: the active domain grows, forcing
  // the full-rebuild fallback, which must be equivalent too.
  batches.push_back("+ P0(f(0), c).\n");

  EngineOptions opts;
  auto db = FunctionalDatabase::FromSource(source, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const std::string& batch : batches) {
    SCOPED_TRACE(batch);
    auto stats = (*db)->ApplyDeltaText(batch, opts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    auto fresh =
        FunctionalDatabase::FromProgram((*db)->original_program(), opts);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    auto ispec = (*db)->BuildGraphSpec();
    auto fspec = (*fresh)->BuildGraphSpec();
    ASSERT_TRUE(ispec.ok() && fspec.ok());
    EXPECT_EQ(SpecIo::Serialize(*ispec), SpecIo::Serialize(*fspec));
    std::string ibin = Snapshot::Serialize(*ispec);
    EXPECT_EQ(ibin, Snapshot::Serialize(*fspec));
    EXPECT_EQ((*db)->Fingerprint(), (*fresh)->Fingerprint());

    auto reloaded = Snapshot::ParseGraphSpec(ibin);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(ibin, Snapshot::Serialize(*reloaded));

    auto iespec = (*db)->BuildEquationalSpec();
    auto fespec = (*fresh)->BuildEquationalSpec();
    ASSERT_TRUE(iespec.ok() && fespec.ok());
    EXPECT_EQ(SpecIo::Serialize(*iespec), SpecIo::Serialize(*fespec));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace relspec
