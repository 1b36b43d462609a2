// Unit tests for the FunctionalDatabase facade: pipeline wiring, error
// paths, resource limits, and edge-case programs.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/ast/printer.h"
#include "src/base/metrics.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"
#include "tests/replay_fixpoint.h"

namespace relspec {
namespace {

TEST(Engine, RejectsSourceWithQueries) {
  auto db = FunctionalDatabase::FromSource("P(0).\n? P(s).");
  EXPECT_TRUE(db.status().IsInvalidArgument());
}

TEST(Engine, RejectsDomainDependentPrograms) {
  auto db = FunctionalDatabase::FromSource("P(0).\nP(s) -> Q(s, y).\nQ(0, a).");
  EXPECT_TRUE(db.status().IsInvalidArgument());
}

// Validation errors keep their exact text on both ways in: source text
// (validated by the parser) and a program built through the API (validated
// by FromProgram).
TEST(Engine, ValidationMessageFromSource) {
  auto db = FunctionalDatabase::FromSource("P(0).\nP(s) -> Q(s, y).\nQ(0, a).");
  EXPECT_TRUE(db.status().IsInvalidArgument());
  EXPECT_EQ(db.status().message(),
            "rule is not range-restricted (domain-dependent): head variable 'y' does not occur in the body: P(s) -> Q(s,y).");
}

TEST(Engine, ValidationMessageFromProgram) {
  auto parsed = ParseProgram("Next(Tony, Jan).\nMeets(0, Tony).\n"
                             "Meets(t, x), Next(x, y) -> Meets(t+1, y).");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program open = *parsed;
  open.facts[1].fterm = FuncTerm::Var(open.symbols.InternVariable("t"));
  auto db = FunctionalDatabase::FromProgram(open);
  EXPECT_TRUE(db.status().IsInvalidArgument());
  EXPECT_EQ(db.status().message(),
            "database fact is not ground: Meets(t,Tony)");

  Program unbound = *parsed;
  unbound.rules[0].body.pop_back();  // y no longer occurs in the body
  db = FunctionalDatabase::FromProgram(unbound);
  EXPECT_TRUE(db.status().IsInvalidArgument());
  EXPECT_EQ(db.status().message(),
            "rule is not range-restricted (domain-dependent): head variable 'y' does not occur in the body: Meets(t,x) -> Meets(t+1,y).");

  Program head = *parsed;
  head.rules[0].head.args.push_back(head.rules[0].head.args[0]);
  db = FunctionalDatabase::FromProgram(head);
  EXPECT_TRUE(db.status().IsInvalidArgument());
  EXPECT_EQ(db.status().message(),
            "rule Meets(t,x), Next(x,y) -> Meets(t+1,y,y).: predicate 'Meets' has arity 2 but atom has 3 arguments");
}

TEST(Engine, EmptyProgramWorks) {
  auto db = FunctionalDatabase::FromSource("");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->label_graph().num_clusters(), 1u);  // just the term 0
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(Engine, FactsOnlyProgram) {
  auto db = FunctionalDatabase::FromSource(R"(
    Meets(2, Tony).
    Next(Tony, Jan).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("Meets(2, Tony)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Meets(1, Tony)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Meets(3, Tony)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Next(Tony, Jan)"));
}

TEST(Engine, PureDatalogProgram) {
  auto db = FunctionalDatabase::FromSource(R"(
    Edge(a, b).
    Edge(b, c).
    Edge(x, y) -> Reach(x, y).
    Reach(x, y), Edge(y, z) -> Reach(x, z).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("Reach(a, c)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Reach(c, a)"));
  EXPECT_TRUE((*db)->Verify().ok());
  // Queries over a function-free program are finite.
  auto q = ParseQuery("?(x) Reach(a, x).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok());
  auto ans = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_FALSE(ans->has_functional_answer());
  auto list = ans->Enumerate(0, 10);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);  // b and c
}

TEST(Engine, HoldsFactErrors) {
  auto db = FunctionalDatabase::FromSource("Meets(0, Tony).");
  ASSERT_TRUE(db.ok());
  // Open atoms are rejected.
  EXPECT_FALSE((*db)->HoldsFactText("Meets(t, Tony)").ok());
  // Unknown predicates are rejected at parse time.
  EXPECT_FALSE((*db)->HoldsFactText("Unknown(0)").ok());
  // Unknown constants are simply false (they are outside the universe).
  auto unknown_const = (*db)->HoldsFactText("Meets(0, Nobody)");
  ASSERT_TRUE(unknown_const.ok());
  EXPECT_FALSE(*unknown_const);
}

TEST(Engine, FactsWithUnknownSymbolsAreFalse) {
  auto db = FunctionalDatabase::FromSource("Meets(0, Tony).\nMeets(t, x) -> Meets(t+1, x).");
  ASSERT_TRUE(db.ok());
  // A ground term using a function symbol the program never mentions.
  EXPECT_FALSE(*(*db)->HoldsFactText("Meets(ghost(0), Tony)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Meets(1, Tony)"));
}

TEST(Engine, DeepMembershipProbesAnswerFromTheSpec) {
  std::ifstream in(std::string(RELSPEC_SOURCE_DIR) +
                   "/examples/programs/meets.rsp");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  auto db = FunctionalDatabase::FromSource(source.str());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // 10,000 distinct terms, each deeper than the boundary (c = 0). Tony
  // meets on even days and Jan on odd ones.
  for (int d = 2; d < 10'002; ++d) {
    auto holds = (*db)->HoldsFactText("Meets(0+" + std::to_string(d) +
                                      ", Tony)");
    ASSERT_TRUE(holds.ok()) << holds.status().ToString();
    ASSERT_EQ(*holds, d % 2 == 0) << d;
  }
}

// Everything a read could grow: the symbol table, the snapshot built from
// it, and the fingerprint.
struct GrowthState {
  size_t predicates = 0, functions = 0, constants = 0, variables = 0;
  std::string snapshot;
  uint64_t fingerprint = 0;
};

GrowthState GrowthOf(FunctionalDatabase* db) {
  GrowthState s;
  const SymbolTable& symbols = db->program().symbols;
  s.predicates = symbols.num_predicates();
  s.functions = symbols.num_functions();
  s.constants = symbols.num_constants();
  s.variables = symbols.num_variables();
  auto spec = db->BuildGraphSpec();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  if (spec.ok()) s.snapshot = Snapshot::Serialize(*spec);
  s.fingerprint = db->Fingerprint();
  return s;
}

void ExpectUnchanged(FunctionalDatabase* db, const GrowthState& before) {
  const GrowthState after = GrowthOf(db);
  EXPECT_EQ(after.predicates, before.predicates);
  EXPECT_EQ(after.functions, before.functions);
  EXPECT_EQ(after.constants, before.constants);
  EXPECT_EQ(after.variables, before.variables);
  EXPECT_EQ(after.snapshot.size(), before.snapshot.size());
  EXPECT_TRUE(after.snapshot == before.snapshot);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
}

// Reads resolve names read-only. 10,000 distinct reads naming fresh
// variables, constants, function symbols and mixed encodings answer empty or
// false and leave the engine exactly as it was.
TEST(Engine, ReadsDoNotGrowTheEngine) {
  std::ifstream in(std::string(RELSPEC_SOURCE_DIR) +
                   "/examples/programs/meets.rsp");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  auto meets = FunctionalDatabase::FromSource(source.str());
  ASSERT_TRUE(meets.ok()) << meets.status().ToString();
  auto robot = FunctionalDatabase::FromSource(R"(
    At(0, p0).
    Connected(p0, p1).  Connected(p1, p2).  Connected(p2, p0).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(robot.ok()) << robot.status().ToString();
  const GrowthState meets_before = GrowthOf(meets->get());
  const GrowthState robot_before = GrowthOf(robot->get());

  for (int i = 0; i < 2'500; ++i) {
    const std::string n = std::to_string(i);
    auto q = ParseQuery("?(v" + n + ") Meets(v" + n + ", G" + n + ").",
                        (*meets)->program().symbols);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto answer = AnswerQuery(meets->get(), *q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_TRUE(answer->IsEmpty()) << n;
    ASSERT_EQ(answer->columns(), std::vector<std::string>{"v" + n});
    for (const std::string& fact :
         {"Meets(4, F" + n + ")", "Meets(zz" + n + "(0), Tony)"}) {
      auto holds = (*meets)->HoldsFactText(fact);
      ASSERT_TRUE(holds.ok()) << fact << ": " << holds.status().ToString();
      ASSERT_FALSE(*holds) << fact;
    }
    const std::string fact = "At(move(0, p0, nowhere" + n + "), p1)";
    auto holds = (*robot)->HoldsFactText(fact);
    ASSERT_TRUE(holds.ok()) << fact << ": " << holds.status().ToString();
    ASSERT_FALSE(*holds) << fact;
  }
  ExpectUnchanged(meets->get(), meets_before);
  ExpectUnchanged(robot->get(), robot_before);
  // The known names still answer as before.
  EXPECT_TRUE(*(*meets)->HoldsFactText("Meets(4, Tony)"));
  EXPECT_TRUE(*(*robot)->HoldsFactText("At(move(0, p0, p1), p1)"));
}

TEST(Engine, InfoAndStatsPopulated) {
  auto db = FunctionalDatabase::FromSource(R"(
    Even(0).
    Even(t) -> Even(t+2).
  )");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->info().is_normal);  // post-transformation
  EXPECT_GT((*db)->normalize_stats().aux_predicates, 0);
  EXPECT_EQ((*db)->purify_stats().new_symbols, 0);
  EXPECT_FALSE((*db)->original_program().rules.empty());
  EXPECT_GE((*db)->program().rules.size(),
            (*db)->original_program().rules.size());
}

TEST(Engine, GroundRuleCapPropagates) {
  EngineOptions options;
  options.ground.max_rules = 1;
  auto db = FunctionalDatabase::FromSource(R"(
    OnCall(0, a).
    Rotate(a, b).
    Rotate(b, a).
    OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).
  )", options);
  EXPECT_TRUE(db.status().IsResourceExhausted());
}

TEST(Engine, TrunkCapPropagates) {
  EngineOptions options;
  options.fixpoint.max_trunk_nodes = 2;
  // c = 3 with two symbols would need 15 trunk nodes.
  auto db = FunctionalDatabase::FromSource(R"(
    P(f(f(f(0)))).
    P(t) -> P(g(t)).
  )", options);
  EXPECT_TRUE(db.status().IsResourceExhausted());
}

TEST(Engine, PathOfGroundTermPurifies) {
  auto db = FunctionalDatabase::FromSource(R"(
    At(0, p0).
    Connected(p0, p1).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(db.ok());
  FuncId mv = *(*db)->program().symbols.FindFunction("move");
  ConstId p0 = *(*db)->program().symbols.FindConstant("p0");
  ConstId p1 = *(*db)->program().symbols.FindConstant("p1");
  FuncTerm t = FuncTerm::Zero().Apply(mv, {NfArg::Constant(p0),
                                           NfArg::Constant(p1)});
  auto path = (*db)->spec()->PathOfGroundTerm(t);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->depth(), 1);
  auto q = ParseQuery("?(s) At(s, p1).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  FuncTerm open = FuncTerm::Var(q->answer_vars[0]);
  EXPECT_TRUE(
      (*db)->spec()->PathOfGroundTerm(open).status().IsInvalidArgument());
}

TEST(Engine, SelfLoopRule) {
  // A rule deriving its own body atom: the fixpoint must not diverge.
  auto db = FunctionalDatabase::FromSource(R"(
    P(0).
    P(t) -> P(t).
    P(t) -> P(t+1).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("P(5)"));
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(Engine, TwoSymbolCrossPropagation) {
  // Facts hop between branches in both directions.
  auto db = FunctionalDatabase::FromSource(R"(
    P(0).
    P(t) -> Q(f(t)).
    Q(f(t)) -> R(g(t)).
    R(g(t)) -> S(t).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("Q(f(0))"));
  EXPECT_TRUE(*(*db)->HoldsFactText("R(g(0))"));
  EXPECT_TRUE(*(*db)->HoldsFactText("S(0)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("S(f(0))"));
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(Engine, ThreeWayRotationHasPeriodThree) {
  auto db = FunctionalDatabase::FromSource(R"(
    OnCall(0, alice).
    Rotate(alice, bob).
    Rotate(bob, carol).
    Rotate(carol, alice).
    OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // alice at t % 3 == 0, bob at 1, carol at 2.
  EXPECT_TRUE(*(*db)->HoldsFactText("OnCall(0, alice)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("OnCall(4, bob)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("OnCall(7, carol)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("OnCall(9, alice)"));
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(Engine, DeepGroundFactTrunk) {
  // A fact at depth 6 forces a deep trunk; everything still works.
  auto db = FunctionalDatabase::FromSource(R"(
    P(6).
    P(t) -> P(t+1).
    P(t+1) -> Q(t).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->ground().trunk_depth(), 6);
  EXPECT_FALSE(*(*db)->HoldsFactText("P(5)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("P(9)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Q(5)"));   // down from P(6)
  EXPECT_FALSE(*(*db)->HoldsFactText("Q(4)"));  // no P(5)
  EXPECT_TRUE((*db)->Verify().ok());
}

// A source file with queries, as relspec_cli and relspecd read one: the
// parse keeps its queries, validates the program once, and the build from
// it does not validate again. It answers as FromSource of the rules does.
TEST(Engine, ParseSourceKeepsQueriesAndValidatesOnce) {
  constexpr const char* kRules = R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Next(Jan, Tony).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )";
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto parsed = FunctionalDatabase::ParseSource(
      std::string(kRules) + "?(t) Meets(t, Jan).\n? Meets(2, Tony).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->queries().size(), 2u);
  EXPECT_EQ(ToString(parsed->queries()[0], parsed->program().symbols),
            "?(t) Meets(t,Jan).");
  auto db = FunctionalDatabase::FromParsed(std::move(parsed).value());
  EnableMetrics(false);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().Reset();
  ASSERT_NE(snap.phase("validate"), nullptr);
  EXPECT_EQ(snap.phase("validate")->count, 1u);
  auto reference = FunctionalDatabase::FromSource(kRules);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(Snapshot::Serialize(*(*db)->spec()),
            Snapshot::Serialize(*(*reference)->spec()));

  auto invalid = FunctionalDatabase::ParseSource("P(0).\nP(s) -> Q(s, y).");
  EXPECT_TRUE(invalid.status().IsInvalidArgument());
}

TEST(Engine, MetricsCoverWholePipeline) {
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto db = FunctionalDatabase::FromSource(R"(
    Even(0).
    Even(t) -> Even(t+2).
  )");
  EnableMetrics(false);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Every pipeline stage left a phase span behind.
  for (const char* name : {"parse", "engine.build", "validate", "normalize",
                           "purify", "ground", "fixpoint", "algorithm_q"}) {
    const PhaseSnapshot* p = snap.phase(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_GE(p->count, 1u) << name;
  }
  // The program is validated once, where it enters (the parser), and not
  // again on the hand-off to FromProgram.
  EXPECT_EQ(snap.phase("validate")->count, 1u);
  auto replay = testutil::ReplayFixpoint(**db);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(snap.gauge("fixpoint.trunk_nodes"),
            static_cast<int64_t>(replay->labeling.trunk_paths().size()));
  EXPECT_GT(snap.counter("fixpoint.rounds"), 0u);
  EXPECT_EQ(snap.counter("chi.hits") + snap.counter("chi.misses"),
            snap.counter("chi.lookups"));
  EXPECT_EQ(snap.gauge("labelgraph.clusters"),
            static_cast<int64_t>((*db)->label_graph().num_clusters()));
  MetricsRegistry::Global().Reset();
}

TEST(Engine, MetricsDisabledLeavesNoTrace) {
  MetricsRegistry::Global().Reset();
  ASSERT_FALSE(MetricsEnabled());
  size_t before = MetricsRegistry::Global().NumInstruments();
  auto db = FunctionalDatabase::FromSource("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The disabled fast path performs no registrations at all.
  EXPECT_EQ(MetricsRegistry::Global().NumInstruments(), before);
}

}  // namespace
}  // namespace relspec
