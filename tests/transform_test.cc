// Unit tests for the program transformations: normalization (appendix) and
// the mixed-to-pure rewriting (Section 2.4), plus the analysis pass.

#include <gtest/gtest.h>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/core/analysis.h"
#include "src/core/engine.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

// ---------- analysis ----------

TEST(Analyze, ReportsParameters) {
  auto p = ParseProgram(R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  ASSERT_TRUE(p.ok());
  ProgramInfo info = Analyze(*p);
  EXPECT_EQ(info.num_predicates, 2);
  EXPECT_EQ(info.max_arity, 2);
  EXPECT_EQ(info.num_constants, 2);
  EXPECT_EQ(info.max_ground_depth, 0);
  EXPECT_EQ(info.num_pure_functions, 1);
  EXPECT_TRUE(info.is_normal);
  EXPECT_TRUE(info.is_pure);
  EXPECT_TRUE(info.domain_independent);
  EXPECT_FALSE(info.ToString().empty());
}

TEST(Analyze, DetectsNonNormalAndMixed) {
  auto p = ParseProgram(R"(
    Even(0).
    Even(t) -> Even(t+2).
  )");
  ASSERT_TRUE(p.ok());
  ProgramInfo info = Analyze(*p);
  EXPECT_FALSE(info.is_normal);  // depth-2 head

  auto q = ParseProgram(R"(
    At(0, p0).
    Connected(p0, p1).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Analyze(*q).is_pure);
  EXPECT_EQ(Analyze(*q).num_mixed_functions, 1);
}

// ---------- normalization ----------

TEST(Normalize, IdempotentOnNormalPrograms) {
  auto p = ParseProgram(R"(
    Meets(0, Tony).
    Meets(t, x) -> Meets(t+1, x).
  )");
  ASSERT_TRUE(p.ok());
  std::string before = ToString(*p);
  auto stats = NormalizeProgram(&*p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rules_in, stats->rules_out);
  EXPECT_EQ(stats->aux_predicates, 0);
  EXPECT_EQ(ToString(*p), before);
}

TEST(Normalize, FlattensDeepHead) {
  auto p = ParseProgram("Even(0).\nEven(t) -> Even(t+2).");
  ASSERT_TRUE(p.ok());
  ASSERT_FALSE(IsNormalProgram(*p));
  auto stats = NormalizeProgram(&*p);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(IsNormalProgram(*p));
  EXPECT_GT(stats->aux_predicates, 0);
  EXPECT_TRUE(ValidateProgram(*p).ok());
}

TEST(Normalize, FlattensDeepBody) {
  auto p = ParseProgram("P(0).\nP(t+3) -> Q(t).\nQ(0) -> R(a).");
  ASSERT_TRUE(p.ok());
  auto stats = NormalizeProgram(&*p);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(IsNormalProgram(*p));
}

TEST(Normalize, SplitsMultipleFunctionalVariables) {
  // Two functional variables: s stays (head), t is projected away.
  auto p = ParseProgram(R"(
    P(0, a).
    Q(0, a).
    P(s, x), Q(t, x) -> P(s+1, x).
  )");
  ASSERT_TRUE(p.ok());
  auto stats = NormalizeProgram(&*p);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(IsNormalProgram(*p));
  EXPECT_GT(stats->aux_predicates, 0);
  EXPECT_TRUE(ValidateProgram(*p).ok());
}

TEST(Normalize, SemanticsPreservedOnOriginalPredicates) {
  // Compare engine results with hand-normalized equivalent.
  auto deep = FunctionalDatabase::FromSource("Even(0).\nEven(t) -> Even(t+2).");
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  for (int n = 0; n <= 10; ++n) {
    auto h = (*deep)->HoldsFactText("Even(" + std::to_string(n) + ")");
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, n % 2 == 0) << n;
  }
}

TEST(Normalize, MultiVariableSemantics) {
  // The projected variable acts as an existential test: P grows only while
  // some Q exists.
  auto db = FunctionalDatabase::FromSource(R"(
    P(0, a).
    Q(3, b).
    P(s, x), Q(t, y) -> P(s+1, x).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("P(5, a)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("P(5, b)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("Q(3, b)"));
  EXPECT_FALSE(*(*db)->HoldsFactText("Q(4, b)"));
}

TEST(Normalize, CrossGroupJoinPreserved) {
  // x is shared between the two projected groups only; the join must
  // survive projection. With A(s,a) and B(t,b) there is no common x, so G
  // must stay empty; adding B(3,a) enables it.
  auto db1 = FunctionalDatabase::FromSource(R"(
    A(0, a).
    B(3, b).
    A(s, x), B(t, x) -> G(x).
  )");
  ASSERT_TRUE(db1.ok()) << db1.status().ToString();
  EXPECT_FALSE(*(*db1)->HoldsFactText("G(a)"));
  auto db2 = FunctionalDatabase::FromSource(R"(
    A(0, a).
    B(3, b).
    B(3, a).
    A(s, x), B(t, x) -> G(x).
  )");
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_TRUE(*(*db2)->HoldsFactText("G(a)"));
  EXPECT_FALSE(*(*db2)->HoldsFactText("G(b)"));
}

TEST(Normalize, AppendixExampleShape) {
  // The appendix rule: P(s), W(x) -> P1(g(f(s), x)) — deep mixed head.
  auto p = ParseProgram(R"(
    P(0).
    W(a).
    P(s), W(x) -> P1(g(f(s), x)).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto stats = NormalizeProgram(&*p);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(IsNormalProgram(*p));
  EXPECT_TRUE(ValidateProgram(*p).ok());
}

// ---------- mixed to pure ----------

TEST(MixedToPure, NoopOnPurePrograms) {
  auto p = ParseProgram("Even(0).\nEven(t) -> Even(t+1).");
  ASSERT_TRUE(p.ok());
  auto stats = MixedToPure(&*p);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rules_in, stats->rules_out);
  EXPECT_EQ(stats->new_symbols, 0);
}

TEST(MixedToPure, InstantiatesOverActiveDomain) {
  auto p = ParseProgram(R"(
    P(a).
    P(b).
    P(y), Member(s, x) -> Member(ext(s, y), y).
    Member(ext(0,a), a).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  int rules_before = static_cast<int>(p->rules.size());
  auto stats = MixedToPure(&*p);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // One rule with one mixed-arg variable over a 2-constant domain -> 2 rules.
  EXPECT_EQ(stats->rules_out, rules_before * 2);
  EXPECT_EQ(stats->new_symbols, 2);  // ext{a}, ext{b}
  EXPECT_FALSE(HasMixedOccurrences(*p));
  EXPECT_TRUE(p->symbols.FindFunction("ext{a}").ok());
  EXPECT_TRUE(p->symbols.FindFunction("ext{b}").ok());
}

TEST(MixedToPure, SubstitutesConsistentlyAcrossRule) {
  // The variable y occurs both in the mixed argument and elsewhere; the
  // instantiation must substitute it everywhere (Section 2.4).
  auto p = ParseProgram(R"(
    P(a).
    P(y) -> Member(ext(0, y), y).
  )");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(MixedToPure(&*p).ok());
  // The instantiated rule body must be P(a), head Member(ext{a}(0), a).
  ASSERT_EQ(p->rules.size(), 1u);
  const Rule& r = p->rules[0];
  EXPECT_TRUE(r.head.args[0].IsConstant());
  EXPECT_TRUE(r.body[0].args[0].IsConstant());
}

TEST(MixedToPure, PurifyGroundTermHelper) {
  auto p = ParseProgram(R"(
    At(0, p0).
    Connected(p0, p1).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(p.ok());
  FuncId mv = *p->symbols.FindFunction("move");
  ConstId p0 = *p->symbols.FindConstant("p0");
  ConstId p1 = *p->symbols.FindConstant("p1");
  // Purification interns the encodings; PurifyGroundTerm only looks them up.
  ASSERT_TRUE(MixedToPure(&*p).ok());
  const size_t functions = p->symbols.num_functions();
  FuncTerm t = FuncTerm::Zero().Apply(
      mv, {NfArg::Constant(p0), NfArg::Constant(p1)});
  auto pure = PurifyGroundTerm(t, &p->symbols);
  ASSERT_TRUE(pure.ok()) << pure.status().ToString();
  EXPECT_TRUE(pure->IsPure());
  EXPECT_EQ(pure->depth(), 1);
  EXPECT_EQ(pure->apps[0].fn, *p->symbols.FindFunction("move{p0,p1}"));
  // An encoding the table lacks is NotFound, and nothing is interned.
  ConstId p2 = p->symbols.InternConstant("p2");
  FuncTerm absent = FuncTerm::Zero().Apply(
      mv, {NfArg::Constant(p0), NfArg::Constant(p2)});
  EXPECT_EQ(PurifyGroundTerm(absent, &p->symbols).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(p->symbols.num_functions(), functions);
  EXPECT_FALSE(p->symbols.FindFunction("move{p0,p2}").ok());
  // Non-ground input is rejected.
  VarId x = p->symbols.InternVariable("x");
  FuncTerm open = FuncTerm::Zero().Apply(mv, {NfArg::Variable(x),
                                              NfArg::Constant(p1)});
  EXPECT_TRUE(PurifyGroundTerm(open, &p->symbols).status().IsInvalidArgument());
}

TEST(MixedToPure, GroundFactsRewrittenDirectly) {
  auto p = ParseProgram(R"(
    Member(ext(0, a), a).
    P(a).
    P(y), Member(s, x) -> Member(ext(s, y), x).
  )");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(MixedToPure(&*p).ok());
  ASSERT_EQ(p->facts.size(), 2u);
  // The functional fact's term is now pure.
  for (const Atom& f : p->facts) {
    if (f.fterm.has_value()) {
      EXPECT_TRUE(f.fterm->IsPure());
    }
  }
}

TEST(MixedToPure, MultipleMixedVarsMultiply) {
  auto p = ParseProgram(R"(
    At(0, p0).
    Connected(p0, p1).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(p.ok());
  auto stats = MixedToPure(&*p);
  ASSERT_TRUE(stats.ok());
  // Two mixed-arg variables (x, y) over a 2-constant domain -> 4 instances.
  EXPECT_EQ(stats->rules_out, 4);
  EXPECT_EQ(stats->new_symbols, 4);
}

// ---------- full pipeline on a mixed, non-normal program ----------

TEST(Pipeline, DeepMixedProgramEndToEnd) {
  auto db = FunctionalDatabase::FromSource(R"(
    P(0).
    W(a).
    W(b).
    P(s), W(x) -> P1(g(f(s), x)).
    P1(s) -> P(s).
  )");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(*(*db)->HoldsFactText("P(0)"));
  EXPECT_TRUE(*(*db)->HoldsFactText("P1(g(f(0), a))"));
  EXPECT_TRUE(*(*db)->HoldsFactText("P(g(f(0), b))"));
  EXPECT_TRUE(*(*db)->HoldsFactText("P1(g(f(g(f(0), a)), b))"));
  EXPECT_FALSE(*(*db)->HoldsFactText("P1(f(0))"));
  EXPECT_TRUE((*db)->Verify().ok());
}

}  // namespace
}  // namespace relspec
