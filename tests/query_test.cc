// Unit tests for query answering (Section 5): answers from (B, F) against
// the rebuild oracle, enumeration, membership, yes-no, and the read-only
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include "src/ast/printer.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "tests/query_oracle.h"
#include "tests/random_program.h"

namespace relspec {
namespace {

constexpr const char* kMeets = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

std::unique_ptr<FunctionalDatabase> BuildMeets() {
  auto db = FunctionalDatabase::FromSource(kMeets);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

Path NatPath(const FunctionalDatabase& db, int n) {
  FuncId succ = *db.program().symbols.FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(n), succ);
  return Path(std::move(syms));
}

TEST(Query, FunctionalAnswerEnumeration) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(ans->has_functional_answer());
  EXPECT_FALSE(ans->IsEmpty());
  auto ten = ans->Enumerate(/*max_depth=*/9, /*max_count=*/1000);
  ASSERT_TRUE(ten.ok());
  EXPECT_EQ(ten->size(), 10u);  // one student per day, days 0..9
}

TEST(Query, EnumerationHonorsCountLimit) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok());
  auto three = ans->Enumerate(/*max_depth=*/100, /*max_count=*/3);
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->size(), 3u);
}

TEST(Query, MembershipViaContains) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok());
  ConstId tony = *ans->symbols().FindConstant("Tony");
  ConstId jan = *ans->symbols().FindConstant("Jan");
  EXPECT_TRUE(*ans->Contains(NatPath(*db, 4), {tony}));
  EXPECT_FALSE(*ans->Contains(NatPath(*db, 4), {jan}));
  EXPECT_TRUE(*ans->Contains(NatPath(*db, 5), {jan}));
  // Wrong shapes are rejected.
  EXPECT_FALSE(ans->Contains(std::nullopt, {tony}).ok());
}

TEST(Query, ExistentialFunctionalVariableGivesFiniteAnswer) {
  auto db = BuildMeets();
  // Who ever meets? (t projected away)
  auto q = ParseQuery("?(x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_FALSE(ans->has_functional_answer());
  auto all = ans->Enumerate(0, 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);  // Tony and Jan
}

TEST(Query, PureNonFunctionalQuery) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(x, y) Next(x, y).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_FALSE(ans->has_functional_answer());
  auto all = ans->Enumerate(0, 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(Query, GroundTermAtomConstrainsJoin) {
  auto db = BuildMeets();
  // Who meets on day 4 and is followed by whom? Meets(4, x), Next(x, y).
  auto q =
      ParseQuery("?(x, y) Meets(4, x), Next(x, y).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  auto all = ans->Enumerate(0, 10);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ(ans->symbols().constant_name((*all)[0].tuple[0]), "Tony");
  EXPECT_EQ(ans->symbols().constant_name((*all)[0].tuple[1]), "Jan");
}

TEST(Query, IncrementalMatchesRecomputeOnJoinQuery) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x, y) Meets(t, x), Next(x, y).",
                      db->program().symbols);
  ASSERT_TRUE(q.ok());
  testutil::ExpectAnswerMatchesOracle(db.get(), *q, "join");
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  auto list = ans->Enumerate(8, 10000);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 9u);
}

TEST(Query, NonUniformQueryMatchesRecomputeOracle) {
  auto db = BuildMeets();
  // Meets(t+1, x): non-uniform (non-ground, non-variable functional term),
  // answered by walking one successor step from each cluster.
  auto q = ParseQuery("?(t, x) Meets(t+1, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  testutil::ExpectAnswerMatchesOracle(db.get(), *q, "t+1");
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  // Answers: t such that Meets(t+1, x): day t+1 is x's day.
  ConstId jan = *ans->symbols().FindConstant("Jan");
  EXPECT_TRUE(*ans->Contains(NatPath(*db, 0), {jan}));   // day 1 is Jan
  ConstId tony = *ans->symbols().FindConstant("Tony");
  EXPECT_FALSE(*ans->Contains(NatPath(*db, 0), {tony}));
  EXPECT_TRUE(*ans->Contains(NatPath(*db, 1), {tony}));  // day 2 is Tony
}

TEST(Query, YesNoQueries) {
  auto db = BuildMeets();
  auto yes = ParseQuery("? Meets(t, Tony).", db->program().symbols);
  ASSERT_TRUE(yes.ok());
  auto r1 = YesNo(db.get(), *yes);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(*r1);
  // No one meets twice in a row: Meets(t,x), Meets(t+1... needs two atoms
  // with the same x; use a constant instead: is there a day Jan and Tony
  // both meet? (Never.)
  auto no = ParseQuery("? Meets(t, Tony), Meets(t, Jan).",
                       db->program().symbols);
  ASSERT_TRUE(no.ok());
  auto r2 = YesNo(db.get(), *no);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(Query, EmptyAnswerIsEmpty) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t) Meets(t, Tony), Meets(t, Jan).",
                      db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->IsEmpty());
  EXPECT_EQ(ans->NumSpecTuples(), 0u);
  auto list = ans->Enumerate(10, 10);
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty());
}

TEST(Query, ColumnsFollowAnswerVarOrder) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(x, t) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans->columns().size(), 2u);
  EXPECT_EQ(ans->columns()[0], "x");
  EXPECT_EQ(ans->columns()[1], "t");
  EXPECT_FALSE(ans->ToString().empty());
}

TEST(Query, ListMembershipUniformAnswers) {
  auto db = FunctionalDatabase::FromSource(R"(
    P(a).
    P(b).
    P(x) -> Member(ext(0, x), x).
    P(y), Member(s, x) -> Member(ext(s, y), y).
    P(y), Member(s, x) -> Member(ext(s, y), x).
  )");
  ASSERT_TRUE(db.ok());
  auto q = ParseQuery("?(s) Member(s, b).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  // Lists of depth <= 2 containing b: b, ab, ba, bb -> 4 answers.
  auto list = ans->Enumerate(2, 1000);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 4u);
}

TEST(Query, RepeatedQueriesDoNotInterfere) {
  auto db = BuildMeets();
  for (int i = 0; i < 3; ++i) {
    auto q = ParseQuery("?(t) Meets(t+1, Tony).", db->program().symbols);
    ASSERT_TRUE(q.ok());
    auto ans = AnswerQuery(db.get(), *q);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    auto list = ans->Enumerate(4, 100);
    ASSERT_TRUE(list.ok());
    EXPECT_EQ(list->size(), 2u);  // days 1 and 3 precede Tony's days
  }
}

// --- per-request governors --------------------------------------------------

TEST(Query, NullGovernorLeavesAnswersUnchanged) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  auto without = AnswerQuery(db.get(), *q);
  auto with = AnswerQuery(db.get(), *q, nullptr);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(without->NumSpecTuples(), with->NumSpecTuples());
}

TEST(Query, GenerousGovernorDoesNotBreach) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  GovernorLimits limits;
  limits.max_tuples = 1000000;
  ResourceGovernor governor(limits);
  auto ans = AnswerQuery(db.get(), *q, &governor);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_FALSE(ans->IsEmpty());
}

TEST(Query, TinyTupleBudgetBreachesIncremental) {
  auto db = BuildMeets();
  // AnswerQuery polls CheckTuples per cluster.
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  GovernorLimits limits;
  limits.max_tuples = 1;
  ResourceGovernor governor(limits);
  auto ans = AnswerQuery(db.get(), *q, &governor);
  ASSERT_FALSE(ans.ok());
  EXPECT_TRUE(ans.status().IsResourceBreach()) << ans.status().ToString();
  // The breach is per-request state: a fresh governor (or none) answers.
  auto retry = AnswerQuery(db.get(), *q);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(Query, PreBreachedGovernorRejectsNonUniformQuery) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(x) Meets(t+1, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  GovernorLimits limits;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  auto ans = AnswerQuery(db.get(), *q, &governor);
  ASSERT_FALSE(ans.ok());
  EXPECT_TRUE(ans.status().IsResourceBreach()) << ans.status().ToString();
}

TEST(Query, TinyTupleBudgetBreachesNonUniformQuery) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t+1, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  GovernorLimits limits;
  limits.max_tuples = 1;  // every cluster holds one answer tuple
  ResourceGovernor governor(limits);
  auto ans = AnswerQuery(db.get(), *q, &governor);
  ASSERT_FALSE(ans.ok());
  EXPECT_TRUE(ans.status().IsResourceExhausted()) << ans.status().ToString();
  // The database itself is untouched: ungoverned answers still work.
  auto retry = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->IsEmpty());
}

TEST(Query, CachedHitSkipsGovernorMissConsultsIt) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  QueryCache cache;
  // Populate the cache ungoverned.
  auto first = AnswerQueryCached(db.get(), *q, &cache);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // A hit must not consult the (breached) governor.
  GovernorLimits limits;
  ResourceGovernor breached(limits);
  breached.RequestCancel();
  auto hit = AnswerQueryCached(db.get(), *q, &cache, &breached);
  EXPECT_TRUE(hit.ok()) << hit.status().ToString();
  // A miss with the same breached governor is rejected.
  cache.Clear();
  auto miss = AnswerQueryCached(db.get(), *q, &cache, &breached);
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsResourceBreach()) << miss.status().ToString();
}

// The cache key is the printed query, answer columns included: the same
// atoms with different columns are different queries.
TEST(Query, CacheKeyIncludesAnswerColumns) {
  auto db = BuildMeets();
  QueryCache cache;
  auto tuples = ParseQuery("?(x) Meets(t, x).", db->program().symbols);
  auto terms = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(tuples.ok() && terms.ok());
  EXPECT_EQ(ToString(*tuples, db->program().symbols), "?(x) Meets(t,x).");
  ASSERT_TRUE(AnswerQueryCached(db.get(), *tuples, &cache).ok());
  bool hit = true;
  auto answer = AnswerQueryCached(db.get(), *terms, &cache, nullptr, &hit);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_TRUE((*answer)->has_functional_answer());
  EXPECT_EQ((*answer)->columns(), (std::vector<std::string>{"t", "x"}));
}

// --- answers against the rebuild oracle ------------------------------------

// Query shapes over one functional predicate of a random program: a
// successor step, a two-step walk joined with a uniform atom, and the
// existential form of the first. `g` falls back to f when the program has
// one symbol; the constants a and b occur in every generated program.
std::vector<std::string> ShapesFor(const SymbolTable& symbols,
                                   const PredicateInfo& info) {
  const std::string g = symbols.FindFunction("g").ok() ? "g" : "f";
  const std::string& p = info.name;
  if (info.arity == 2) {
    return {"?(s, x) " + p + "(f(s), x).",
            "?(s) " + p + "(f(" + g + "(s)), a), " + p + "(s, b).",
            "?(x) " + p + "(f(s), x)."};
  }
  return {"?(s) " + p + "(f(s)).",
          "?(s) " + p + "(f(" + g + "(s))), " + p + "(s).",
          "? " + p + "(f(s))."};
}

void ExpectShapesMatchOracle(const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const SymbolTable& symbols = (*db)->program().symbols;
  const size_t num_predicates = symbols.num_predicates();
  for (PredId p = 0; p < num_predicates; ++p) {
    const PredicateInfo info = symbols.predicate(p);
    if (!info.functional || info.name[0] == '$') continue;
    for (const std::string& qtext : ShapesFor(symbols, info)) {
      auto q = ParseQuery(qtext, (*db)->program().symbols);
      ASSERT_TRUE(q.ok()) << qtext << ": " << q.status().ToString();
      testutil::ExpectAnswerMatchesOracle(db->get(), *q, qtext);
    }
  }
}

class AnswerOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(AnswerOracleTest, RandomProgramMatchesOracle) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::string source = testutil::RandomProgram(&rng);
  SCOPED_TRACE(source);
  ExpectShapesMatchOracle(source);
}

TEST_P(AnswerOracleTest, RichProgramMatchesOracle) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u + 99u);
  std::string source = testutil::RandomProgramRich(&rng);
  SCOPED_TRACE(source);
  ExpectShapesMatchOracle(source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerOracleTest, ::testing::Range(0, 25));

constexpr const char* kLists = R"(
  P(a).
  P(b).
  P(c).
  P(x) -> Member(ext(0, x), x).
  P(y), Member(s, x) -> Member(ext(s, y), y).
  P(y), Member(s, x) -> Member(ext(s, y), x).
)";

TEST(Query, MixedTermShapesMatchOracle) {
  auto db = FunctionalDatabase::FromSource(kLists);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const char* qtext : {
           // Variable mixed arguments range over the alphabet's ext{a}.
           "?(s, y, x) Member(ext(s, y), x).",
           "?(s, y) Member(ext(s, y), y).",
           "?(s, x, y) Member(ext(ext(s, y), x), y).",
           // 0-based terms, with and without a functional variable.
           "?(y, x) Member(ext(0, y), x).",
           "?(s, y) Member(ext(0, y), y), Member(s, y).",
           "?(x) Member(ext(ext(0, a), b), x).",
           // Constant mixed arguments, known and unknown.
           "?(s) Member(ext(s, c), a).",
           "?(s) Member(ext(s, c9), a).",
           "?(x) Member(ext(0, c9), x).",
           // A pure symbol the engine never saw.
           "?(s) Member(h(s), a).",
           // A mixed-variable atom joined with a global atom.
           "?(s, y) Member(ext(s, y), a), P(y).",
       }) {
    auto q = ParseQuery(qtext, (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << qtext << ": " << q.status().ToString();
    testutil::ExpectAnswerMatchesOracle(db->get(), *q, qtext,
                                        /*contains_depth=*/4,
                                        /*enumerate_depth=*/5);
  }
}

// An answer shares the spec it was computed from. An update gives the engine
// a new spec and leaves the old one to its holders: the answer taken before
// the batch enumerates its old rows, and a fresh answer reflects the batch.
TEST(Query, AnswerOutlivesUpdate) {
  auto db = BuildMeets();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto before = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto old_rows = before->Enumerate(4, 100);
  ASSERT_TRUE(old_rows.ok());
  const std::string old_text = before->ToString();
  const std::shared_ptr<const GraphSpecification> old_spec = db->spec();

  auto stats = db->ApplyDeltaText("+ Meets(0, Jan).\n- Meets(0, Tony).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_NE(db->spec(), old_spec);
  EXPECT_EQ(&before->spec(), old_spec.get());

  auto rows = before->Enumerate(4, 100);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, *old_rows);
  EXPECT_EQ(before->ToString(), old_text);

  auto after = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto new_rows = after->Enumerate(4, 100);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_NE(*new_rows, *old_rows);
  // Tony and Jan swapped places: Jan now meets at every even time.
  const ConstId jan = *db->program().symbols.FindConstant("Jan");
  ASSERT_FALSE(new_rows->empty());
  EXPECT_EQ((*new_rows)[0].term, std::optional<Path>(Path::Zero()));
  EXPECT_EQ((*new_rows)[0].tuple, std::vector<ConstId>{jan});
}

// AnswerQuery reads the engine and changes none of it: no symbols interned,
// the same fingerprint, however many distinct deep terms and non-uniform
// shapes are asked.
TEST(Query, AnswersLeaveEngineStateUnchanged) {
  auto db = FunctionalDatabase::FromSource(kLists);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<Query> queries;
  const char* kConsts[] = {"a", "b", "c"};
  for (int i = 0; i < 50; ++i) {
    // A distinct ground list of length 8 + i; every fifth one ends in a
    // constant the program never mentions.
    std::string term = "0";
    for (int d = 0; d < 8 + i; ++d) {
      term = "ext(" + term + ", " + kConsts[(d * 7 + i) % 3] + ")";
    }
    if (i % 5 == 0) term = "ext(" + term + ", c9)";
    std::string qtext = "?(x) Member(" + term + ", x).";
    auto q = ParseQuery(qtext, (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    queries.push_back(*q);
  }
  const char* kShapes[] = {
      "?(s, y, x) Member(ext(s, y), x).",
      "?(s) Member(ext(s, c9), a).",
      "?(s) Member(h(s), a).",
      "?(y, x) Member(ext(0, y), x).",
      "?(s, x, y) Member(ext(ext(s, y), x), y).",
  };
  for (int i = 0; i < 50; ++i) {
    auto q = ParseQuery(kShapes[i % 5], (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    queries.push_back(*q);
  }
  const SymbolTable& symbols = (*db)->program().symbols;
  const size_t functions = symbols.num_functions();
  const size_t constants = symbols.num_constants();
  const size_t predicates = symbols.num_predicates();
  const size_t variables = symbols.num_variables();
  const uint64_t fingerprint = (*db)->Fingerprint();
  for (int round = 0; round < 100; ++round) {
    for (const Query& q : queries) {
      auto ans = AnswerQuery(db->get(), q);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    }
  }
  EXPECT_EQ(symbols.num_functions(), functions);
  EXPECT_EQ(symbols.num_constants(), constants);
  EXPECT_EQ(symbols.num_predicates(), predicates);
  EXPECT_EQ(symbols.num_variables(), variables);
  EXPECT_EQ((*db)->Fingerprint(), fingerprint);
}

// On a truncated graph a ground term whose walk runs into the unknown sink
// reads the sink's empty label: a sound under-approximation, as Contains.
TEST(Query, TruncatedGroundTermThroughSinkReadsEmpty) {
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->truncated());
  const LabelGraph& graph = (*db)->label_graph();
  auto full = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  int through_sink = 0;
  for (int n = 0; n <= 8; ++n) {
    auto q = ParseQuery("?(x) Meets(" + std::to_string(n) + ", x).",
                        (*db)->program().symbols);
    ASSERT_TRUE(q.ok());
    auto ans = AnswerQuery(db->get(), *q);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    if (graph.ClusterOf(NatPath(**db, n)) == graph.unknown_cluster()) {
      ++through_sink;
      EXPECT_TRUE(ans->IsEmpty()) << "day " << n;
    }
    auto list = ans->Enumerate(0, 100);
    ASSERT_TRUE(list.ok());
    for (const ConcreteAnswer& a : *list) {
      const std::string fact = "Meets(" + std::to_string(n) + ", " +
                               ans->symbols().constant_name(a.tuple[0]) + ")";
      auto holds = (*full)->HoldsFactText(fact);
      ASSERT_TRUE(holds.ok()) << holds.status().ToString();
      EXPECT_TRUE(*holds) << fact;
    }
  }
  EXPECT_GT(through_sink, 0);
}

// --- output-sensitive enumeration ------------------------------------------

// The unpruned breadth-first walk: every term up to max_depth, in shortlex
// order. The oracle for Enumerate, which expands only terms that can still
// reach an answer and must emit the same answers in the same order.
std::vector<ConcreteAnswer> UnprunedEnumerate(const QueryAnswer& ans,
                                              int max_depth,
                                              size_t max_count) {
  std::vector<ConcreteAnswer> out;
  const LabelGraph& graph = ans.graph();
  std::deque<std::pair<Path, uint32_t>> queue;
  queue.emplace_back(Path::Zero(), graph.ClusterOf(Path::Zero()));
  while (!queue.empty() && out.size() < max_count) {
    auto [path, cluster] = std::move(queue.front());
    queue.pop_front();
    for (const auto& tuple : ans.tuples_per_cluster()[cluster]) {
      if (out.size() >= max_count) break;
      out.push_back(ConcreteAnswer{path, tuple});
    }
    if (path.depth() < max_depth) {
      for (size_t s = 0; s < ans.alphabet().size(); ++s) {
        queue.emplace_back(path.Extend(ans.alphabet()[s]),
                           graph.SuccessorOf(cluster, static_cast<SymIdx>(s)));
      }
    }
  }
  return out;
}

// Answers as raw symbol and constant ids, in emission order.
std::vector<std::string> Ids(const std::vector<ConcreteAnswer>& list) {
  std::vector<std::string> out;
  for (const ConcreteAnswer& a : list) {
    std::string s;
    for (FuncId f : a.term->symbols()) s += std::to_string(f) + ".";
    s += "|";
    for (ConstId c : a.tuple) s += std::to_string(c) + ",";
    out.push_back(std::move(s));
  }
  return out;
}

// Depths 0-6 and counts that cut mid-cluster, against the oracle.
void ExpectMatchesOracle(const QueryAnswer& ans, const std::string& label) {
  ASSERT_TRUE(ans.has_functional_answer()) << label;
  for (int depth = 0; depth <= 6; ++depth) {
    for (size_t count : {size_t{1}, size_t{3}, size_t{64}, size_t{1} << 20}) {
      auto got = ans.Enumerate(depth, count);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      std::vector<ConcreteAnswer> want = UnprunedEnumerate(ans, depth, count);
      EXPECT_EQ(Ids(*got), Ids(want))
          << label << " depth=" << depth << " count=" << count;
    }
  }
}

// Every functional predicate of `source`, queried at s and at f(s).
void ExpectProgramMatchesOracle(const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const SymbolTable& symbols = (*db)->program().symbols;
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    if (!info.functional || info.name[0] == '$') continue;
    std::string cols = info.arity == 2 ? "s, x" : "s";
    std::string args = info.arity == 2 ? ", x" : "";
    for (const char* term : {"s", "f(s)"}) {
      std::string qtext =
          "?(" + cols + ") " + info.name + "(" + term + args + ").";
      auto q = ParseQuery(qtext, (*db)->program().symbols);
      ASSERT_TRUE(q.ok()) << qtext;
      auto ans = AnswerQuery(db->get(), *q);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      ExpectMatchesOracle(*ans, qtext);
    }
  }
}

class EnumerateOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateOracleTest, PrunedWalkMatchesUnprunedWalk) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::string source = testutil::RandomProgram(&rng);
  SCOPED_TRACE(source);
  ExpectProgramMatchesOracle(source);
}

TEST_P(EnumerateOracleTest, RichPrunedWalkMatchesUnprunedWalk) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u + 99u);
  std::string source = testutil::RandomProgramRich(&rng);
  SCOPED_TRACE(source);
  ExpectProgramMatchesOracle(source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerateOracleTest, ::testing::Range(0, 25));

TEST(Query, TruncatedGraphEnumerationMatchesOracle) {
  // A node budget breach under allow_partial leaves a truncated label graph
  // whose unresolved successors lead to the empty, self-looping sink.
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->truncated());
  auto q = ParseQuery("?(t, x) Meets(t, x).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  ASSERT_NE(ans->graph().unknown_cluster(), kInvalidId);
  EXPECT_FALSE(ans->IsEmpty());
  ExpectMatchesOracle(*ans, "truncated");
}

constexpr const char* kRobot = R"(
  At(0, p0).
  Connected(p0, p1).
  Connected(p1, p2).
  Connected(p2, p0).
  Connected(p0, p3).
  At(s, x), Connected(x, y) -> At(move(s, x, y), y).
)";

TEST(Query, DeadEndEnumerationIsOutputSensitive) {
  auto db = FunctionalDatabase::FromSource(kRobot);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto q = ParseQuery("?(y) At(y, p2).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto list = ans->Enumerate(/*max_depth=*/7, /*max_count=*/64);
  EnableMetrics(false);
  uint64_t expanded =
      MetricsRegistry::Global().Snapshot().counter("query.enumerate_nodes");
  MetricsRegistry::Global().Reset();
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->size(), 2u);  // plans of 2 and 5 moves reach p2
  // The unpruned walk expands all |Sigma|^7 terms; the pruned walk only the
  // terms along the 5-move plan, whose prefix is the 2-move plan.
  EXPECT_GT(expanded, 0u);
  EXPECT_LE(expanded, 100u);
}

TEST(Query, NodeBudgetBoundsEnumerationFrontier) {
  auto db = FunctionalDatabase::FromSource(R"(
    P(a).
    P(b).
    P(c).
    P(x) -> Member(ext(0, x), x).
    P(y), Member(s, x) -> Member(ext(s, y), y).
    P(y), Member(s, x) -> Member(ext(s, y), x).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto q = ParseQuery("?(s, x) Member(s, x).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  GovernorLimits limits;
  limits.max_nodes = 4;
  ResourceGovernor governor(limits);
  auto list = ans->Enumerate(/*max_depth=*/6, /*max_count=*/1u << 20,
                             &governor);
  ASSERT_FALSE(list.ok());
  EXPECT_TRUE(list.status().IsResourceExhausted()) << list.status().ToString();
  // Ungoverned, the same answer enumerates in full.
  auto full = ans->Enumerate(/*max_depth=*/6, /*max_count=*/1u << 20);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GT(full->size(), 4u);
}

// --- delta-driven cache invalidation (docs/INCREMENTAL.md) ------------------

// Counter-reading fixture: the registry is process-global, so start clean
// and leave metrics disabled for the next suite.
class DeltaCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    EnableMetrics(true);
  }
  void TearDown() override {
    EnableMetrics(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(DeltaCacheTest, EffectiveDeltaInvalidatesFingerprintAndCache) {
  auto db = BuildMeets();
  uint64_t fp_before = db->Fingerprint();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());

  QueryCache cache;
  auto cold = AnswerQueryCached(db.get(), *q, &cache);
  auto warm = AnswerQueryCached(db.get(), *q, &cache);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->get(), warm->get());
  {
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snap.counter("cache.miss"), 1u);
    EXPECT_EQ(snap.counter("cache.hit"), 1u);
  }

  auto stats = db->ApplyDeltaText("+ Meets(0, Jan).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->inserted, 1u);
  EXPECT_NE(db->Fingerprint(), fp_before)
      << "an effective delta must change the fingerprint";

  // The stale entry is keyed under the old fingerprint: same query, same
  // cache, but a miss — and the recomputed answer reflects the new fact.
  auto after = AnswerQueryCached(db.get(), *q, &cache);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->get(), warm->get());
  {
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snap.counter("cache.miss"), 2u);
    EXPECT_EQ(snap.counter("cache.hit"), 1u);
  }

  auto direct = AnswerQuery(db.get(), *q);
  ASSERT_TRUE(direct.ok());
  auto e_cached = (*after)->Enumerate(5, 100000);
  auto e_direct = direct->Enumerate(5, 100000);
  ASSERT_TRUE(e_cached.ok() && e_direct.ok());
  EXPECT_EQ(*e_cached, *e_direct);
}

TEST_F(DeltaCacheTest, NoopDeltaKeepsFingerprintAndHits) {
  auto db = BuildMeets();
  uint64_t fp_before = db->Fingerprint();
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  QueryCache cache;
  auto cold = AnswerQueryCached(db.get(), *q, &cache);
  ASSERT_TRUE(cold.ok());

  // Inserting a present fact and deleting an absent one are both noops: the
  // batch must not touch the engine or the fingerprint.
  auto stats = db->ApplyDeltaText("+ Meets(0, Tony).\n- Next(Tony, Felix).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->inserted, 0u);
  EXPECT_EQ(stats->deleted, 0u);
  EXPECT_EQ(stats->noops, 2u);
  EXPECT_EQ(db->Fingerprint(), fp_before);

  auto warm = AnswerQueryCached(db.get(), *q, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->get(), warm->get()) << "noop batch must keep cache hits";
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("cache.hit"), 1u);
  EXPECT_EQ(snap.counter("cache.miss"), 1u);
}

TEST_F(DeltaCacheTest, StaleEntriesAgeOutThroughLru) {
  auto db = BuildMeets();
  QueryCache::Options copts;
  copts.max_entries = 1;  // the stale entry must be evicted, not retained
  QueryCache cache(copts);
  auto q = ParseQuery("?(t, x) Meets(t, x).", db->program().symbols);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(AnswerQueryCached(db.get(), *q, &cache).ok());

  auto stats = db->ApplyDeltaText("+ Meets(0, Jan).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Re-answering under the new fingerprint inserts a second entry; with
  // max_entries=1 the stale one is the LRU victim.
  ASSERT_TRUE(AnswerQueryCached(db.get(), *q, &cache).ok());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("cache.evict"), 1u);
  EXPECT_EQ(snap.counter("cache.miss"), 2u);
}

// Regression: a batch whose tail line is invalid must leave the engine fully
// untouched, even when earlier lines were valid, effective edits. The whole
// batch is validated before any mutation — a partial application here would
// desynchronize the WAL replay path, which logs batches all-or-nothing.
TEST_F(DeltaCacheTest, InvalidTailLineLeavesWholeBatchUnapplied) {
  auto db = BuildMeets();
  const uint64_t fp_before = db->Fingerprint();
  const size_t constants_before = db->program().symbols.num_constants();
  const size_t predicates_before = db->program().symbols.num_predicates();

  // Three failure shapes after two valid effective edits: garbage syntax, a
  // non-ground fact, and an unknown predicate.
  const char* bad_batches[] = {
      "+ Meets(0, Jan).\n- Next(Tony, Jan).\nnot a delta line\n",
      "+ Meets(0, Jan).\n- Next(Tony, Jan).\n+ Meets(t, x).\n",
      "+ Meets(0, Jan).\n- Next(Tony, Jan).\n+ Zorp(0, Tony).\n",
  };
  for (const char* batch : bad_batches) {
    auto stats = db->ApplyDeltaText(batch);
    ASSERT_FALSE(stats.ok()) << batch;
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument) << batch;
    EXPECT_EQ(db->Fingerprint(), fp_before)
        << "rejected batch mutated the engine: " << batch;
    // No phantom symbols may leak from the abandoned batch's parse.
    EXPECT_EQ(db->program().symbols.num_constants(), constants_before);
    EXPECT_EQ(db->program().symbols.num_predicates(), predicates_before);
  }

  // The engine is still healthy: the same valid prefix applies cleanly.
  auto stats = db->ApplyDeltaText("+ Meets(0, Jan).\n- Next(Tony, Jan).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->inserted, 1u);
  EXPECT_EQ(stats->deleted, 1u);
  EXPECT_NE(db->Fingerprint(), fp_before);
}

}  // namespace
}  // namespace relspec
