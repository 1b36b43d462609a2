// Unit tests for src/ast: term/atom construction, program accessors,
// validation, printing.

#include <gtest/gtest.h>

#include "src/ast/ast.h"
#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

// Builds a tiny table and helpers used across the tests.
struct Fixture {
  Program program;
  PredId meets, next;
  FuncId succ;
  ConstId tony, jan;
  VarId t, x, y;

  Fixture() {
    meets = *program.symbols.InternPredicate("Meets", 2, true);
    next = *program.symbols.InternPredicate("Next", 2, false);
    succ = *program.symbols.InternFunction("+1", 1);
    tony = program.symbols.InternConstant("Tony");
    jan = program.symbols.InternConstant("Jan");
    t = program.symbols.InternVariable("t");
    x = program.symbols.InternVariable("x");
    y = program.symbols.InternVariable("y");
  }

  Atom MeetsAtom(FuncTerm term, NfArg who) const {
    Atom a;
    a.pred = meets;
    a.fterm = std::move(term);
    a.args = {who};
    return a;
  }
  Atom NextAtom(NfArg a1, NfArg a2) const {
    Atom a;
    a.pred = next;
    a.args = {a1, a2};
    return a;
  }
};

TEST(FuncTerm, GroundnessAndDepth) {
  Fixture f;
  FuncTerm zero = FuncTerm::Zero();
  EXPECT_TRUE(zero.IsGround());
  EXPECT_EQ(zero.depth(), 0);
  FuncTerm succ2 = zero.Apply(f.succ).Apply(f.succ);
  EXPECT_TRUE(succ2.IsGround());
  EXPECT_EQ(succ2.depth(), 2);
  FuncTerm var = FuncTerm::Var(f.t).Apply(f.succ);
  EXPECT_FALSE(var.IsGround());
  EXPECT_TRUE(var.IsPure());
}

TEST(FuncTerm, MixedArgumentsAffectGroundness) {
  Fixture f;
  FuncId ext = *f.program.symbols.InternFunction("ext", 2);
  FuncTerm ground = FuncTerm::Zero().Apply(ext, {NfArg::Constant(f.tony)});
  EXPECT_TRUE(ground.IsGround());
  EXPECT_FALSE(ground.IsPure());
  FuncTerm open = FuncTerm::Zero().Apply(ext, {NfArg::Variable(f.x)});
  EXPECT_FALSE(open.IsGround());
}

TEST(FuncTerm, TermIdRoundTrip) {
  Fixture f;
  TermArena arena;
  FuncTerm succ3 = FuncTerm::Zero().Apply(f.succ).Apply(f.succ).Apply(f.succ);
  auto id = succ3.ToTermId(&arena);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(arena.Depth(*id), 3);
  FuncTerm back = FuncTerm::FromTermId(arena, *id);
  EXPECT_EQ(back, succ3);
  EXPECT_TRUE(
      FuncTerm::Var(f.t).ToTermId(&arena).status().IsFailedPrecondition());
}

TEST(Atom, Groundness) {
  Fixture f;
  Atom ground = f.MeetsAtom(FuncTerm::Zero(), NfArg::Constant(f.tony));
  EXPECT_TRUE(ground.IsGround());
  Atom open = f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Constant(f.tony));
  EXPECT_FALSE(open.IsGround());
}

TEST(Program, PredicateAndFunctionPartitions) {
  Fixture f;
  EXPECT_EQ(f.program.FunctionalPredicates(), std::vector<PredId>{f.meets});
  EXPECT_EQ(f.program.NonFunctionalPredicates(), std::vector<PredId>{f.next});
  EXPECT_EQ(f.program.PureFunctions(), std::vector<FuncId>{f.succ});
  EXPECT_TRUE(f.program.MixedFunctions().empty());
}

TEST(Program, ActiveDomainCollectsConstants) {
  Fixture f;
  f.program.facts.push_back(f.NextAtom(NfArg::Constant(f.tony),
                                       NfArg::Constant(f.jan)));
  std::vector<ConstId> domain = f.program.ActiveDomain();
  EXPECT_EQ(domain.size(), 2u);
}

TEST(Program, MaxGroundDepthIgnoresNonGroundTerms) {
  Fixture f;
  Rule r;
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  r.head = f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.x));
  f.program.rules.push_back(r);
  EXPECT_EQ(f.program.MaxGroundDepth(), 0);
  // A ground fact of depth 3 raises c to 3.
  f.program.facts.push_back(f.MeetsAtom(
      FuncTerm::Zero().Apply(f.succ).Apply(f.succ).Apply(f.succ),
      NfArg::Constant(f.tony)));
  EXPECT_EQ(f.program.MaxGroundDepth(), 3);
}

TEST(CollectVariables, FindsFunctionalAndNonFunctional) {
  Fixture f;
  Atom a = f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x));
  std::vector<VarId> nf;
  std::optional<VarId> fv;
  CollectVariables(a, &nf, &fv);
  ASSERT_TRUE(fv.has_value());
  EXPECT_EQ(*fv, f.t);
  EXPECT_EQ(nf, std::vector<VarId>{f.x});
}

// ---------- validation ----------

TEST(Validate, RangeRestrictionAcceptsAndRejects) {
  Fixture f;
  Rule good;
  good.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  good.body.push_back(f.NextAtom(NfArg::Variable(f.x), NfArg::Variable(f.y)));
  good.head =
      f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.y));
  EXPECT_TRUE(CheckRangeRestricted(good, f.program.symbols).ok());

  Rule bad = good;
  bad.body.pop_back();  // y no longer bound in the body
  EXPECT_TRUE(
      CheckRangeRestricted(bad, f.program.symbols).IsInvalidArgument());

  Rule bad_func;  // head functional variable not in body
  bad_func.body.push_back(f.NextAtom(NfArg::Variable(f.x), NfArg::Variable(f.x)));
  bad_func.head = f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x));
  EXPECT_TRUE(
      CheckRangeRestricted(bad_func, f.program.symbols).IsInvalidArgument());
}

TEST(Validate, NormalityDetectsDeepAndMultiVariableRules) {
  Fixture f;
  Rule normal;
  normal.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  normal.head =
      f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.x));
  EXPECT_TRUE(IsNormalRule(normal));

  Rule deep = normal;
  deep.head = f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ).Apply(f.succ),
                          NfArg::Variable(f.x));
  EXPECT_FALSE(IsNormalRule(deep));

  VarId s2 = f.program.symbols.InternVariable("s2");
  Rule twovars = normal;
  twovars.body.push_back(f.MeetsAtom(FuncTerm::Var(s2), NfArg::Variable(f.x)));
  EXPECT_FALSE(IsNormalRule(twovars));

  // Deep *ground* terms are allowed in normal rules.
  Rule ground_deep = normal;
  ground_deep.body.push_back(f.MeetsAtom(
      FuncTerm::Zero().Apply(f.succ).Apply(f.succ), NfArg::Constant(f.tony)));
  EXPECT_TRUE(IsNormalRule(ground_deep));
}

TEST(Validate, ProgramChecksFactsAndArity) {
  Fixture f;
  f.program.facts.push_back(
      f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Constant(f.tony)));
  EXPECT_TRUE(ValidateProgram(f.program).IsInvalidArgument());  // open fact
  f.program.facts.clear();
  Atom wrong_arity;
  wrong_arity.pred = f.next;
  wrong_arity.args = {NfArg::Constant(f.tony)};
  f.program.facts.push_back(wrong_arity);
  EXPECT_TRUE(ValidateProgram(f.program).IsInvalidArgument());
}

// The exact message of every failure kind ValidateProgram reports. The
// context (the offending fact or rule) is rendered only when a check fails,
// and these pin that its bytes never change.
TEST(ValidateMessage, FactWithBadArity) {
  Fixture f;
  Atom fact;
  fact.pred = f.next;
  fact.args = {NfArg::Constant(f.tony)};
  f.program.facts.push_back(fact);
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "fact Next(Tony): predicate 'Next' has arity 2 but atom has 1 arguments");
}

TEST(ValidateMessage, FactNotGround) {
  Fixture f;
  f.program.facts.push_back(
      f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Constant(f.tony)));
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "database fact is not ground: Meets(t,Tony)");
}

TEST(ValidateMessage, RuleHeadShape) {
  Fixture f;
  Rule r;
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  r.head = f.NextAtom(NfArg::Variable(f.x), NfArg::Variable(f.x));
  r.head.args.pop_back();  // Next/2 with one argument
  f.program.rules.push_back(r);
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "rule Meets(t,x) -> Next(x).: predicate 'Next' has arity 2 but atom has 1 arguments");
}

TEST(ValidateMessage, RuleBodyShape) {
  Fixture f;
  Rule r;
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  // +1 is unary: it takes no non-functional argument.
  FuncTerm bad = FuncTerm::Var(f.t);
  bad.apps.push_back(FuncApply{f.succ, {NfArg::Constant(f.jan)}});
  r.body.push_back(f.MeetsAtom(bad, NfArg::Variable(f.x)));
  r.head = f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.x));
  f.program.rules.push_back(r);
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "rule Meets(t,x), Meets(+1(t,Jan),x) -> Meets(t+1,x).: function symbol '+1' expects 0 non-functional arguments, got 1");
}

TEST(ValidateMessage, FunctionalMismatch) {
  Fixture f;
  // A fact of the non-functional Next carrying a functional term...
  Atom carries = f.NextAtom(NfArg::Constant(f.tony), NfArg::Constant(f.jan));
  carries.fterm = FuncTerm::Zero();
  f.program.facts.push_back(carries);
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "fact Next(0,Tony,Jan): predicate 'Next' is non-functional but the atom carries a functional term");

  // ...and a rule body atom of the functional Meets lacking one.
  f.program.facts.clear();
  Rule r;
  Atom lacks = f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x));
  lacks.fterm.reset();
  lacks.args.push_back(NfArg::Variable(f.y));
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  r.body.push_back(lacks);
  r.head = f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.y));
  f.program.rules.push_back(r);
  s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "rule Meets(t,x), Meets(x,y) -> Meets(t+1,y).: predicate 'Meets' is functional but the atom lacks a functional term");
}

TEST(ValidateMessage, RangeRestriction) {
  Fixture f;
  Rule r;
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  r.head = f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.y));
  f.program.rules.push_back(r);
  Status s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "rule is not range-restricted (domain-dependent): head variable 'y' does not occur in the body: Meets(t,x) -> Meets(t+1,y).");

  Rule func;  // head functional variable t not in the body
  func.body.push_back(f.NextAtom(NfArg::Variable(f.x), NfArg::Variable(f.y)));
  func.head = f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x));
  f.program.rules = {func};
  s = ValidateProgram(f.program);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(),
            "rule is not range-restricted (domain-dependent): head functional variable 't' does not occur in the body: Next(x,y) -> Meets(t,x).");
}

TEST(Validate, QueryShape) {
  Fixture f;
  Query q;
  q.atoms.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  q.answer_vars = {f.t, f.x};
  EXPECT_TRUE(ValidateQuery(q, f.program.symbols).ok());

  Query empty;
  EXPECT_TRUE(ValidateQuery(empty, f.program.symbols).IsInvalidArgument());

  Query bad_var = q;
  bad_var.answer_vars.push_back(f.y);  // y not in the query
  EXPECT_TRUE(ValidateQuery(bad_var, f.program.symbols).IsInvalidArgument());

  // Functional terms above the variable, and ground ones, are valid too.
  Query nonuniform;
  nonuniform.atoms.push_back(
      f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.x)));
  nonuniform.answer_vars = {f.t};
  EXPECT_TRUE(ValidateQuery(nonuniform, f.program.symbols).ok());

  Query with_ground = q;
  with_ground.atoms.push_back(
      f.MeetsAtom(FuncTerm::Zero().Apply(f.succ), NfArg::Variable(f.x)));
  EXPECT_TRUE(ValidateQuery(with_ground, f.program.symbols).ok());
}

// ---------- printing ----------

TEST(Printer, RendersPaperSyntax) {
  Fixture f;
  Rule r;
  r.body.push_back(f.MeetsAtom(FuncTerm::Var(f.t), NfArg::Variable(f.x)));
  r.body.push_back(f.NextAtom(NfArg::Variable(f.x), NfArg::Variable(f.y)));
  r.head =
      f.MeetsAtom(FuncTerm::Var(f.t).Apply(f.succ), NfArg::Variable(f.y));
  EXPECT_EQ(ToString(r, f.program.symbols),
            "Meets(t,x), Next(x,y) -> Meets(t+1,y).");
  Atom fact = f.MeetsAtom(FuncTerm::Zero(), NfArg::Constant(f.tony));
  Rule fact_rule;
  fact_rule.head = fact;
  EXPECT_EQ(ToString(fact_rule, f.program.symbols), "Meets(0,Tony).");
}

TEST(Printer, ProgramRoundTripsThroughParser) {
  auto parsed = ParseProgram(R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string text = ToString(*parsed);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(ToString(*reparsed), text);
}

}  // namespace
}  // namespace relspec
