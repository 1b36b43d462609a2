// Unit tests for the [RBS87] safety baseline: unboundedness analysis and the
// query gate — and the contrast with relspec's finite specifications.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/safety/safety.h"

namespace relspec {
namespace {

constexpr const char* kMeets = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

TEST(Safety, RecursiveGrowingPredicateIsUnbounded) {
  auto p = ParseProgram(kMeets);
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  PredId meets = *p->symbols.FindPredicate("Meets");
  PredId next = *p->symbols.FindPredicate("Next");
  EXPECT_TRUE(report.IsUnbounded(meets));
  EXPECT_FALSE(report.IsUnbounded(next));
  EXPECT_NE(report.ToString(p->symbols).find("Meets"), std::string::npos);
}

TEST(Safety, NonRecursiveGrowthIsBounded) {
  // One growth step with no recursion: extension stays finite.
  auto p = ParseProgram(R"(
    P(0).
    P(t) -> Q(t+1).
  )");
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  PredId q = *p->symbols.FindPredicate("Q");
  EXPECT_FALSE(report.IsUnbounded(q));
}

TEST(Safety, UnboundednessPropagatesDownstream) {
  auto p = ParseProgram(R"(
    P(0).
    P(t) -> P(t+1).
    P(s) -> Copy(s).
  )");
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  EXPECT_TRUE(report.IsUnbounded(*p->symbols.FindPredicate("Copy")));
}

TEST(Safety, IndirectRecursionDetected) {
  auto p = ParseProgram(R"(
    P(0).
    P(t) -> Q(t+1).
    Q(t) -> P(t).
  )");
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  EXPECT_TRUE(report.IsUnbounded(*p->symbols.FindPredicate("P")));
  EXPECT_TRUE(report.IsUnbounded(*p->symbols.FindPredicate("Q")));
}

TEST(Safety, PureDatalogAlwaysBounded) {
  auto p = ParseProgram(R"(
    Edge(a, b).
    Edge(x, y) -> Reach(x, y).
    Reach(x, y), Edge(y, z) -> Reach(x, z).
  )");
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  EXPECT_TRUE(report.unbounded_predicates.empty());
}

TEST(Safety, QueryGateRejectsInfiniteAnswers) {
  auto p = ParseProgram(kMeets);
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  auto unsafe = ParseQuery("?(t, x) Meets(t, x).", &*p);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_FALSE(IsQuerySafe(*p, report, *unsafe));
  // Projecting the functional variable away restores safety.
  auto safe = ParseQuery("?(x) Meets(t, x).", &*p);
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(IsQuerySafe(*p, report, *safe));
  // Queries without functional variables are always safe.
  auto plain = ParseQuery("?(x, y) Next(x, y).", &*p);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(IsQuerySafe(*p, report, *plain));
}

TEST(Safety, BoundedBinderMakesQuerySafe) {
  // The functional variable is also bound by a bounded predicate.
  auto p = ParseProgram(R"(
    P(0).
    P(t) -> P(t+1).
    Start(0).
    Start(s), P(s) -> Hit(s).
  )");
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  auto q = ParseQuery("?(s) P(s), Start(s).", &*p);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(IsQuerySafe(*p, report, *q));
}

TEST(Safety, RelspecAnswersWhatRbs87Rejects) {
  // The paper's motivating contrast (Section 1): [RBS87] rejects the query;
  // relspec returns a finite specification of the infinite answer.
  auto p = ParseProgram(kMeets);
  ASSERT_TRUE(p.ok());
  SafetyReport report = AnalyzeSafety(*p);
  auto q = ParseQuery("?(t, x) Meets(t, x).", &*p);
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(IsQuerySafe(*p, report, *q));  // the 1987 answer: "reject"

  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto q2 = ParseQuery("?(t, x) Meets(t, x).", (*db)->program().symbols);
  ASSERT_TRUE(q2.ok());
  auto ans = AnswerQuery(db->get(), *q2);  // the 1989 answer: a finite spec
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->has_functional_answer());
  EXPECT_FALSE(ans->IsEmpty());
  EXPECT_GT(ans->NumSpecTuples(), 0u);
}

}  // namespace
}  // namespace relspec
