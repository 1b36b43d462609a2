// End-to-end reproduction of the paper's worked examples (experiments E1-E3).

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "tests/closure_oracle.h"
#include "tests/query_oracle.h"

namespace relspec {
namespace {

// --- E2: the introductory Meets/Next example (Section 1) ---

constexpr const char* kMeetsSource = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

TEST(MeetsExample, MembershipMatchesPaper) {
  auto db = FunctionalDatabase::FromSource(kMeetsSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Tony meets on even days, Jan on odd days.
  for (int n = 0; n <= 20; ++n) {
    std::string tony = "Meets(" + std::to_string(n) + ", Tony)";
    std::string jan = "Meets(" + std::to_string(n) + ", Jan)";
    auto t = (*db)->HoldsFactText(tony);
    auto j = (*db)->HoldsFactText(jan);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_EQ(*t, n % 2 == 0) << tony;
    EXPECT_EQ(*j, n % 2 == 1) << jan;
  }
}

TEST(MeetsExample, TwoClustersWithFlipFlopSuccessors) {
  auto db = FunctionalDatabase::FromSource(kMeetsSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const LabelGraph& graph = (*db)->label_graph();
  // c = 0: one trunk cluster (the term 0) plus the BFS clusters. The paper's
  // two congruence classes {0,2,4,...} and {1,3,5,...}: 0 is a singleton
  // trunk cluster, and the BFS yields the odd-days cluster (repr 1) and the
  // even-days cluster (repr 2), whose label equals cluster 0's.
  EXPECT_EQ((*db)->ground().trunk_depth(), 0);
  // The two-element quotient of the paper shows up as two distinct states.
  EXPECT_EQ(graph.EquivalenceScope(), 2u);
  // f(odd) = even-state and f(even-state) = odd: a 2-cycle in F.
  uint32_t c0 = graph.ClusterOf(Path::Zero());
  uint32_t c1 = graph.SuccessorOf(c0, 0);
  uint32_t c2 = graph.SuccessorOf(c1, 0);
  uint32_t c3 = graph.SuccessorOf(c2, 0);
  EXPECT_NE(graph.label(c1), graph.label(c0));
  EXPECT_EQ(graph.label(c2), graph.label(c0));
  EXPECT_EQ(graph.label(c3), graph.label(c1));
  EXPECT_EQ(c3, c1);  // the walk has entered the 2-cycle
}

TEST(MeetsExample, QuotientModelCertified) {
  auto db = FunctionalDatabase::FromSource(kMeetsSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(MeetsExample, InfiniteQueryAnswerSpecification) {
  auto db = FunctionalDatabase::FromSource(kMeetsSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto q = ParseQuery("? Meets(t, x).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->has_functional_answer());
  auto concrete = answer->Enumerate(/*max_depth=*/6, /*max_count=*/100);
  ASSERT_TRUE(concrete.ok());
  // Days 0..6 -> 7 answers alternating Tony/Jan.
  ASSERT_EQ(concrete->size(), 7u);
  const SymbolTable& symbols = answer->symbols();
  for (const ConcreteAnswer& a : *concrete) {
    ASSERT_TRUE(a.term.has_value());
    ASSERT_EQ(a.tuple.size(), 1u);
    const std::string& who = symbols.constant_name(a.tuple[0]);
    EXPECT_EQ(who, a.term->depth() % 2 == 0 ? "Tony" : "Jan");
  }
}

// --- E1: the list-membership example (Section 3.4) ---

constexpr const char* kListSource = R"(
  P(a).
  P(b).
  P(x) -> Member(ext(0, x), x).
  P(y), Member(s, x) -> Member(ext(s, y), y).
  P(y), Member(s, x) -> Member(ext(s, y), x).
)";

TEST(ListExample, MembershipSemantics) {
  auto db = FunctionalDatabase::FromSource(kListSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Slices from the paper: L[ab] = {Member(ab,a), Member(ab,b)}, etc.
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(0,a), a)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Member(ext(0,a), b)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(ext(0,a),b), a)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(ext(0,a),b), b)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(ext(0,b),a), a)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(ext(0,a),a), a)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Member(ext(ext(0,a),a), b)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Member(0, a)"));
  // Deeper: aba contains both.
  EXPECT_TRUE(*(*db)->HoldsFactText("Member(ext(ext(ext(0,a),b),a), b)"));
}

TEST(ListExample, FourClustersAsInPaper) {
  // Section 3.4's worked run has Active = {a, b, ab} and representative
  // terms {0, a, b, ab}: it starts the traversal at depth c (footnote 3).
  EngineOptions options;
  options.graph.merge_trunk_frontier = true;
  auto db = FunctionalDatabase::FromSource(kListSource, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const LabelGraph& graph = (*db)->label_graph();
  EXPECT_EQ(graph.CongruenceScope(), 4u);
  EXPECT_EQ(graph.num_active(), 3u);
  EXPECT_TRUE((*db)->Verify().ok());
  // Successor mappings from the paper: f_a(a)=a, f_b(a)=ab, f_a(b)=ab,
  // f_b(b)=b, f_a(ab)=f_b(ab)=ab.
  const SymbolTable& sym = (*db)->program().symbols;
  auto fa = sym.FindFunction("ext{a}");
  auto fb = sym.FindFunction("ext{b}");
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  Path pa = Path::Zero().Extend(*fa);
  Path pb = Path::Zero().Extend(*fb);
  Path pab = pa.Extend(*fb);
  uint32_t ca = graph.ClusterOf(pa);
  uint32_t cb = graph.ClusterOf(pb);
  uint32_t cab = graph.ClusterOf(pab);
  EXPECT_NE(ca, cb);
  EXPECT_NE(ca, cab);
  EXPECT_EQ(graph.ClusterOf(pa.Extend(*fa)), ca);     // aa ~ a
  EXPECT_EQ(graph.ClusterOf(pb.Extend(*fb)), cb);     // bb ~ b
  EXPECT_EQ(graph.ClusterOf(pb.Extend(*fa)), cab);    // ba ~ ab
  EXPECT_EQ(graph.ClusterOf(pab.Extend(*fa)), cab);   // aba ~ ab
  EXPECT_EQ(graph.ClusterOf(pab.Extend(*fb)), cab);   // abb ~ ab
}

TEST(ListExample, DefaultModeSixClusters) {
  // Without the footnote-3 improvement the trunk (depth <= c = 1) terms are
  // singleton clusters: {0, a, b} plus BFS representatives {aa, ab, bb}.
  auto db = FunctionalDatabase::FromSource(kListSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const LabelGraph& graph = (*db)->label_graph();
  EXPECT_EQ(graph.CongruenceScope(), 6u);
  EXPECT_EQ(graph.num_active(), 3u);
  EXPECT_TRUE((*db)->Verify().ok());
}

TEST(ListExample, IncrementalQueryMatchesPaper) {
  auto db = FunctionalDatabase::FromSource(kListSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Section 5: Member(s, a) -> QUERY(s). The incremental primary database
  // holds QUERY(a) and QUERY(ab).
  auto q = ParseQuery("?(s) Member(s, a).", (*db)->program().symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = AnswerQuery(db->get(), *q);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  // Lists containing a: exactly those whose term includes an ext(.,a).
  auto path_a = (*db)->spec()->PathOfGroundTerm(
      FuncTerm::Zero().Apply(*(*db)->program().symbols.FindFunction("ext{a}")));
  ASSERT_TRUE(path_a.ok());
  EXPECT_TRUE(*answer->Contains(*path_a, {}));
  EXPECT_FALSE(*answer->Contains(Path::Zero(), {}));
}

// --- E3 partner: answers from (B, F) equal the rebuild (Section 5) ---

TEST(ListExample, IncrementalEqualsRecompute) {
  auto db = FunctionalDatabase::FromSource(kListSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The uniform query of Theorem 5.1 and a non-uniform one, whose mixed
  // argument y ranges over the alphabet's ext{a}, ext{b}.
  for (const char* qtext :
       {"?(s,x) Member(s, x).", "?(s, y, x) Member(ext(s, y), x)."}) {
    auto q = ParseQuery(qtext, (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    testutil::ExpectAnswerMatchesOracle(db->get(), *q, qtext);
  }
}

// --- E3: the Even example (Section 3.5) ---

constexpr const char* kEvenSource = R"(
  Even(0).
  Even(t) -> Even(t+2).
)";

TEST(EvenExample, EquationalSpecificationMatchesPaper) {
  // Section 3.5 presents R = {(0,2)} for the Even program; that spec uses
  // the improved traversal start of footnote 3 (depth c instead of c+1).
  EngineOptions options;
  options.graph.merge_trunk_frontier = true;
  auto db = FunctionalDatabase::FromSource(kEvenSource, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // R = {(2, 0)}: exactly one equation, relating 2 and 0.
  ASSERT_EQ(spec->num_equations(), 1u);
  const auto [t1, t2] = spec->EquationPaths(spec->equations()[0]);
  EXPECT_EQ(t1.depth() + t2.depth(), 2);

  auto succ = (*db)->program().symbols.FindFunction("+1");
  ASSERT_TRUE(succ.ok());
  auto nat = [&](int n) {
    std::vector<FuncId> syms(static_cast<size_t>(n), *succ);
    return Path(std::move(syms));
  };
  // The paper: R = {(0,2)}; (0,4) in Cl(R), (1,3) in Cl(R), (0,3) not.
  EXPECT_TRUE(spec->Congruent(nat(0), nat(2)));
  EXPECT_TRUE(spec->Congruent(nat(0), nat(4)));
  EXPECT_TRUE(spec->Congruent(nat(1), nat(3)));
  EXPECT_FALSE(spec->Congruent(nat(0), nat(3)));
  EXPECT_FALSE(spec->Congruent(nat(0), nat(1)));

  auto even = (*db)->program().symbols.FindPredicate("Even");
  ASSERT_TRUE(even.ok());
  // Membership reads the walk's cluster; the paper's test, congruence
  // closure against T = {t : Even(t) in B}, agrees.
  testutil::ClosureOracle oracle(*spec);
  for (int n = 0; n <= 12; ++n) {
    EXPECT_EQ(spec->spec().Holds(nat(n), *even, {}), n % 2 == 0) << n;
    EXPECT_EQ(oracle.Holds(nat(n), *even, {}), n % 2 == 0) << n;
  }
}

TEST(EvenExample, MembershipViaEngine) {
  auto db = FunctionalDatabase::FromSource(kEvenSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int n = 0; n <= 16; ++n) {
    auto holds = (*db)->HoldsFactText("Even(" + std::to_string(n) + ")");
    ASSERT_TRUE(holds.ok());
    EXPECT_EQ(*holds, n % 2 == 0) << n;
  }
  EXPECT_TRUE((*db)->Verify().ok());
}

// --- Robot planning (Section 1, situation calculus) ---

constexpr const char* kRobotSource = R"(
  At(0, p0).
  Connected(p0, p1).
  Connected(p1, p2).
  Connected(p2, p0).
  At(s, x), Connected(x, y) -> At(move(s, x, y), y).
)";

TEST(RobotExample, ReachabilityAlongMoves) {
  auto db = FunctionalDatabase::FromSource(kRobotSource);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("At(0, p0)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("At(move(0,p0,p1), p1)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("At(move(move(0,p0,p1),p1,p2), p2)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("At(move(0,p0,p1), p0)"));
  // An impossible move: from p0 straight to p2.
  EXPECT_FALSE(*(*db)->HoldsFactText("At(move(0,p0,p2), p2)"));
  // Cycle closes: three moves return to p0.
  EXPECT_TRUE(*(*db)->HoldsFactText(
      "At(move(move(move(0,p0,p1),p1,p2),p2,p0), p0)"));
  EXPECT_TRUE((*db)->Verify().ok());
}

}  // namespace
}  // namespace relspec
