// Unit tests for the CONGR canonical form (Section 3.6): the rule set is
// database-independent, and LFP(CONGR, B ∪ R) agrees with the specification.

#include <gtest/gtest.h>

#include "src/core/congr.h"
#include "src/core/engine.h"

namespace relspec {
namespace {

constexpr const char* kMeets = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

Path NatPath(const SymbolTable& symbols, int n) {
  FuncId succ = *symbols.FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(n), succ);
  return Path(std::move(syms));
}

TEST(Congr, RulesTextListsClosureAndTransferRules) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = CongrRulesText(*spec);
  EXPECT_NE(text.find("eq(x,x) :- term(x)."), std::string::npos);
  EXPECT_NE(text.find("eq(x,y) :- eq(y,x)."), std::string::npos);
  EXPECT_NE(text.find("eq(x,y) :- eq(x,z), eq(z,y)."), std::string::npos);
  EXPECT_NE(text.find("apply_+1"), std::string::npos);
  EXPECT_NE(text.find("Meets(t,z1) :- Meets(s,z1), eq(s,t)."),
            std::string::npos);
}

TEST(Congr, RulesAreDatabaseIndependent) {
  // Two different databases under the same predicates produce the same
  // CONGR rule text: the canonical-form property.
  auto db1 = FunctionalDatabase::FromSource(kMeets);
  auto db2 = FunctionalDatabase::FromSource(R"(
    Meets(3, Ann).
    Next(Ann, Ann).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  ASSERT_TRUE(db1.ok());
  ASSERT_TRUE(db2.ok());
  auto s1 = (*db1)->BuildEquationalSpec();
  auto s2 = (*db2)->BuildEquationalSpec();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(CongrRulesText(*s1), CongrRulesText(*s2));
}

TEST(Congr, BoundedEvaluationMatchesSpecification) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  constexpr int kBound = 10;
  auto result = EvaluateCongrBounded(*spec, kBound);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PredId meets = *spec->spec().symbols().FindPredicate("Meets");
  ConstId tony = *spec->spec().symbols().FindConstant("Tony");
  ConstId jan = *spec->spec().symbols().FindConstant("Jan");
  for (int n = 0; n <= kBound; ++n) {
    Path p = NatPath(spec->spec().symbols(), n);
    EXPECT_EQ(result->Holds(p, meets, std::vector<ConstId>{tony}),
              spec->spec().Holds(p, meets, std::vector<ConstId>{tony}))
        << n;
    EXPECT_EQ(result->Holds(p, meets, std::vector<ConstId>{jan}),
              spec->spec().Holds(p, meets, std::vector<ConstId>{jan}))
        << n;
  }
  EXPECT_GT(result->stats.tuples_derived, 0u);
}

TEST(Congr, EvenExampleBothStrategies) {
  EngineOptions options;
  options.graph.merge_trunk_frontier = true;  // Section 3.5's R = {(0,2)}
  auto db = FunctionalDatabase::FromSource("Even(0).\nEven(t) -> Even(t+2).",
                                           options);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  for (auto strategy :
       {datalog::Strategy::kNaive, datalog::Strategy::kSemiNaive}) {
    auto result = EvaluateCongrBounded(*spec, 9, strategy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    PredId even = *spec->spec().symbols().FindPredicate("Even");
    for (int n = 0; n <= 9; ++n) {
      EXPECT_EQ(result->Holds(NatPath(spec->spec().symbols(), n), even, {}),
                n % 2 == 0)
          << n;
    }
    // eq contains the lifted congruence pairs: (1,3) from (0,2).
    uint32_t t1 = result->TermIndex(NatPath(spec->spec().symbols(), 1));
    uint32_t t3 = result->TermIndex(NatPath(spec->spec().symbols(), 3));
    EXPECT_TRUE(result->db.Contains(result->eq_pred, {t1, t3}));
    uint32_t t2 = result->TermIndex(NatPath(spec->spec().symbols(), 2));
    EXPECT_FALSE(result->db.Contains(result->eq_pred, {t1, t2}));
  }
}

TEST(Congr, ListExampleAgreement) {
  auto db = FunctionalDatabase::FromSource(R"(
    P(a).
    P(b).
    P(x) -> Member(ext(0, x), x).
    P(y), Member(s, x) -> Member(ext(s, y), y).
    P(y), Member(s, x) -> Member(ext(s, y), x).
  )");
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  auto result = EvaluateCongrBounded(*spec, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PredId member = *spec->spec().symbols().FindPredicate("Member");
  ConstId a = *spec->spec().symbols().FindConstant("a");
  // Exhaustive agreement over the bounded universe.
  for (const Path& p : result->terms) {
    EXPECT_EQ(result->Holds(p, member, std::vector<ConstId>{a}),
              spec->spec().Holds(p, member, std::vector<ConstId>{a}))
        << p.depth();
  }
}

TEST(Congr, BoundTooSmallRejected) {
  auto db = FunctionalDatabase::FromSource("P(4).\nP(t) -> P(t+1).");
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  // Representatives reach depth 5; bound 2 cannot host B.
  EXPECT_FALSE(EvaluateCongrBounded(*spec, 2).ok());
}

TEST(Congr, UnknownTermOutsideUniverse) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  auto result = EvaluateCongrBounded(*spec, 3);
  ASSERT_TRUE(result.ok());
  PredId meets = *spec->spec().symbols().FindPredicate("Meets");
  ConstId tony = *spec->spec().symbols().FindConstant("Tony");
  // Depth 4 exceeds the bound: reported absent (not an error).
  EXPECT_FALSE(result->Holds(NatPath(spec->spec().symbols(), 4), meets,
                             std::vector<ConstId>{tony}));
}

}  // namespace
}  // namespace relspec
