// Unit tests for src/parser: lexer, grammar, functional inference, errors.

#include <gtest/gtest.h>

#include <random>

#include "src/ast/printer.h"
#include "src/parser/lexer.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

// ---------- lexer ----------

TEST(Lexer, TokenKinds) {
  auto toks = Tokenize("Meets(t, x) -> P :- ? + = 42 .");
  ASSERT_TRUE(toks.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdent, TokenKind::kLParen, TokenKind::kIdent,
                       TokenKind::kComma, TokenKind::kIdent, TokenKind::kRParen,
                       TokenKind::kArrow, TokenKind::kIdent,
                       TokenKind::kColonDash, TokenKind::kQuestion,
                       TokenKind::kPlus, TokenKind::kEquals,
                       TokenKind::kInteger, TokenKind::kDot, TokenKind::kEof}));
}

TEST(Lexer, CommentsAndPositions) {
  auto toks = Tokenize("% whole line\nP. // trailing\nQ.");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 4u);
  EXPECT_EQ((*toks)[0].text, "P");
  EXPECT_EQ((*toks)[0].line, 2);
  EXPECT_EQ((*toks)[2].text, "Q");
  EXPECT_EQ((*toks)[2].line, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_TRUE(Tokenize("P@Q").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("P - Q").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("P : Q").status().IsInvalidArgument());
}

TEST(Lexer, IntegersAndPrimedIdents) {
  auto toks = Tokenize("x' 123");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "x'");
  EXPECT_EQ((*toks)[1].value, 123);
}

// An integer too large for a long is an error, not an exception: a query
// naming one reaches the lexer from a client.
TEST(Lexer, RejectsIntegersOutOfRange) {
  auto toks = Tokenize("P(99999999999999999999999).");
  EXPECT_TRUE(toks.status().IsInvalidArgument());
  EXPECT_EQ(toks.status().message(),
            "line 1:3: integer 99999999999999999999999 out of range");
  EXPECT_TRUE(ParseQuery("? P(99999999999999999999999).", SymbolTable())
                  .status()
                  .IsInvalidArgument());
}

// ---------- parsing & inference ----------

TEST(Parser, MeetsProgramShapes) {
  auto result = Parse(R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
    ? Meets(s, Tony).
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Program& p = result->program;
  EXPECT_EQ(p.facts.size(), 2u);
  EXPECT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(result->queries.size(), 1u);

  auto meets = p.symbols.FindPredicate("Meets");
  auto next = p.symbols.FindPredicate("Next");
  ASSERT_TRUE(meets.ok());
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(p.symbols.predicate(*meets).functional);
  EXPECT_FALSE(p.symbols.predicate(*next).functional);
}

TEST(Parser, PrologStyleRuleEquivalent) {
  auto a = ParseProgram("P(x) -> Q(x).\nP(a).");
  auto b = ParseProgram("Q(x) :- P(x).\nP(a).");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ToString(*a), ToString(*b));
}

TEST(Parser, FunctionalInferencePropagatesThroughVariables) {
  // R is functional only because s flows from Meets' functional position.
  auto p = ParseProgram(R"(
    Meets(0, a).
    Meets(s, x) -> R(s).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto r = p->symbols.FindPredicate("R");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(p->symbols.predicate(*r).functional);
}

TEST(Parser, PureDatalogStaysNonFunctional) {
  auto p = ParseProgram(R"(
    Edge(a, b).
    Edge(b, c).
    Edge(x, y) -> Reach(x, y).
    Reach(x, y), Edge(y, z) -> Reach(x, z).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  for (PredId id = 0; id < p->symbols.num_predicates(); ++id) {
    EXPECT_FALSE(p->symbols.predicate(id).functional);
  }
  EXPECT_TRUE(p->PureFunctions().empty());
}

TEST(Parser, NumeralSugarBuildsSuccessorChains) {
  auto p = ParseProgram("Meets(3, a).");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->facts.size(), 1u);
  EXPECT_EQ(p->facts[0].fterm->depth(), 3);
  EXPECT_TRUE(p->facts[0].fterm->IsGround());
  auto succ = p->symbols.FindFunction(std::string(kSuccessorName));
  EXPECT_TRUE(succ.ok());
}

TEST(Parser, PlusSugarOnVariables) {
  auto p = ParseProgram("E(0).\nE(t) -> E(t+2).");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->rules.size(), 1u);
  EXPECT_EQ(p->rules[0].head.fterm->depth(), 2);
  EXPECT_TRUE(p->rules[0].head.fterm->has_var);
}

TEST(Parser, ZeroAloneDoesNotInternSuccessor) {
  auto p = ParseProgram("P(a).\nP(x) -> Member(ext(0,x), x).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(
      p->symbols.FindFunction(std::string(kSuccessorName)).status().IsNotFound());
}

TEST(Parser, MixedFunctionSymbols) {
  auto p = ParseProgram(R"(
    At(0, p0).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto mv = p->symbols.FindFunction("move");
  ASSERT_TRUE(mv.ok());
  EXPECT_EQ(p->symbols.function(*mv).arity, 3);
}

TEST(Parser, VariableConventionSToZ) {
  // s..z (with digits/primes) are variables; a..r identifiers are constants.
  auto p = ParseProgram("P(a, Tony, jan, q, b).\nP(x1, u, v, w, t9) -> Q(x1).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->facts.size(), 1u);
  EXPECT_TRUE(p->symbols.FindConstant("Tony").ok());
  EXPECT_TRUE(p->symbols.FindConstant("jan").ok());
  EXPECT_TRUE(p->symbols.FindConstant("q").ok());
  EXPECT_TRUE(p->symbols.FindConstant("x1").status().IsNotFound());
  EXPECT_TRUE(p->symbols.FindConstant("t9").status().IsNotFound());
}

TEST(Parser, QueriesDefaultAndExplicitAnswerVars) {
  auto result = Parse(R"(
    Meets(0, a).
    ? Meets(s, x).
    ?(x) Meets(s, x).
  )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_EQ(result->queries[0].answer_vars.size(), 2u);
  EXPECT_EQ(result->queries[1].answer_vars.size(), 1u);
}

TEST(Parser, ParseQueryAgainstExistingProgram) {
  auto p = ParseProgram("Meets(0, a).");
  ASSERT_TRUE(p.ok());
  auto q = ParseQuery("? Meets(s, a).", &*p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atoms.size(), 1u);
  // Unknown predicates are rejected.
  EXPECT_FALSE(ParseQuery("? Unknown(s).", &*p).ok());
}

// ParseQuery writes nothing: names the table lacks, and every variable,
// become the query's own, numbered past the table's counts.
TEST(Parser, ParseQueryKeepsUnknownNamesInTheQuery) {
  auto p = ParseProgram(R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const SymbolTable& symbols = p->symbols;
  const size_t constants = symbols.num_constants();
  const size_t functions = symbols.num_functions();
  const size_t variables = symbols.num_variables();
  auto q = ParseQuery(
      "?(v, y) Meets(zz(v), Bob), Next(Tony, y), Next(y, Bob).", symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(symbols.num_constants(), constants);
  EXPECT_EQ(symbols.num_functions(), functions);
  EXPECT_EQ(symbols.num_variables(), variables);
  EXPECT_EQ(q->local.constants, std::vector<std::string>{"Bob"});
  ASSERT_EQ(q->local.functions.size(), 1u);
  EXPECT_EQ(q->local.functions[0].name, "zz");
  EXPECT_EQ(q->local.variables, (std::vector<std::string>{"v", "y"}));
  // Bob is one local constant wherever it occurs; Tony is the table's.
  EXPECT_EQ(q->atoms[0].args[0].id, constants);
  EXPECT_EQ(q->atoms[2].args[1].id, constants);
  EXPECT_EQ(q->atoms[1].args[0].id, *symbols.FindConstant("Tony"));
  EXPECT_TRUE(q->MentionsLocalSymbol(q->atoms[0]));
  EXPECT_FALSE(q->MentionsLocalSymbol(q->atoms[1]));
  EXPECT_EQ(ToString(*q, symbols),
            "?(v,y) Meets(zz(v),Bob), Next(Tony,y), Next(y,Bob).");

  // Known names keep their declarations, and the table is not marked.
  EXPECT_FALSE(ParseQuery("? Meets(t, Tony, Jan).", symbols).ok());
  EXPECT_FALSE(ParseQuery("? Meets(zz(zz(0, Tony)), Tony).", symbols).ok());
  EXPECT_FALSE(ParseQuery("? Next(3, Tony).", symbols).ok());
  EXPECT_FALSE(symbols.predicate(*symbols.FindPredicate("Next")).functional);
}

// ---------- error paths ----------

TEST(ParserErrors, NonGroundFact) {
  auto p = ParseProgram("P(x).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, DomainDependentRuleRejected) {
  // Head variable y not bound in the body (Section 2.3's example shape).
  auto p = ParseProgram("P(s) -> Q(s, y).\nP(0).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, VariableUsedBothWays) {
  auto p = ParseProgram("P(0, a).\nP(s, x), Q(x, s) -> P(s+1, x).\nQ(a, b).");
  // s functional in P but non-functional in... Q(x, s): since Q is inferred
  // non-functional, s appears as a plain argument: conflict.
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, ConstantInFunctionalPosition) {
  auto p = ParseProgram("Meets(0, x) -> Meets(tony, x).\nMeets(0, a).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, FunctionInNonFunctionalPosition) {
  auto p = ParseProgram("P(a, f(b)).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, MissingDot) {
  auto p = ParseProgram("P(a)");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, ArityMismatchAcrossStatements) {
  auto p = ParseProgram("P(a).\nP(a, b).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, HugeNumeralRejected) {
  auto p = ParseProgram("Meets(99999999, a).");
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(ParserErrors, DeeplyNestedTermRejectedNotCrashed) {
  // 100k nested applications: without the depth guard the recursive descent
  // would overflow the stack; with it the parser reports InvalidArgument.
  constexpr int kDepth = 100000;
  std::string input = "P(";
  for (int i = 0; i < kDepth; ++i) input += "f(";
  input += "0";
  for (int i = 0; i < kDepth; ++i) input += ")";
  input += ").";
  auto p = ParseProgram(input);
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument());
  EXPECT_NE(p.status().message().find("depth"), std::string::npos);
}

TEST(ParserErrors, ModeratelyNestedTermStillAccepted) {
  // Well under the guard: nesting must keep working.
  constexpr int kDepth = 100;
  std::string input = "P(";
  for (int i = 0; i < kDepth; ++i) input += "f(";
  input += "0";
  for (int i = 0; i < kDepth; ++i) input += ")";
  input += ").";
  EXPECT_TRUE(ParseProgram(input).ok());
}

// ---------- fuzz: no crash on arbitrary input ----------

TEST(ParserFuzz, RandomBytesNeverCrash) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    size_t len = rng() % 120;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(32 + rng() % 95));  // printable ASCII
    }
    auto result = Parse(input);
    (void)result;  // ok or error; must not crash
  }
}

TEST(ParserFuzz, RandomTokenSoupNeverCrash) {
  std::mt19937 rng(99);
  const std::vector<std::string> pool = {
      "P",  "Q(", ")",  ",",  ".",  "->", ":-", "?",  "x",  "y",   "s",
      "0",  "1",  "42", "+1", "f(", "a",  "b",  "(",  "?(", "ext(", "%c\n"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    size_t len = rng() % 30;
    for (size_t i = 0; i < len; ++i) input += pool[rng() % pool.size()] + " ";
    auto result = Parse(input);
    (void)result;
  }
}

TEST(ParserFuzz, ValidProgramsAlwaysReparse) {
  // Printer output of any accepted random program must parse back.
  std::mt19937 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::string input;
    size_t len = rng() % 40;
    const std::vector<std::string> pool = {"P(", "Q(", "0", "x", ",", ")",
                                           "->", ".",  "a", "t", "+1"};
    for (size_t i = 0; i < len; ++i) input += pool[rng() % pool.size()];
    auto parsed = ParseProgram(input);
    if (!parsed.ok()) continue;
    auto again = ParseProgram(ToString(*parsed));
    EXPECT_TRUE(again.ok()) << input;
  }
}

}  // namespace
}  // namespace relspec
