// Unit tests for src/parser: lexer, grammar, functional inference, errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/ast/printer.h"
#include "src/core/engine.h"
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

// Characters are classified as ASCII: every byte from 0x80 up is rejected
// where it starts a token, and ends an identifier it follows.
TEST(Lexer, RejectsBytesOutsideAscii) {
  for (int b = 0x80; b <= 0xff; ++b) {
    const char c = static_cast<char>(b);
    auto toks = Tokenize(std::string("P(ab") + c + ").");
    ASSERT_FALSE(toks.ok());
    EXPECT_EQ(toks.status().message(),
              std::string("line 1:5: unexpected character '") + c + "'");
    EXPECT_EQ(
        Parse(std::string(1, c)).status().ToString(),
        std::string("invalid argument: line 1:1: unexpected character '") + c +
            "'");
  }
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

// A parse expands at most kMaxFunctionalNumeral (1,000,000) successor
// applications in all, whatever the numerals and '+n' increments are.
constexpr std::string_view kBudgetMessage =
    "functional terms expand to more than 1000000 successor applications "
    "in one parse";

TEST(Parser, SuccessorBudgetBoundsNumeralsAcrossAParse) {
  ASSERT_TRUE(ParseProgram("P(500000).\nP(500000).").ok());
  auto p = ParseProgram("P(400000).\nP(400000).\nP(400000).");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().message(),
            "line 3:3: " + std::string(kBudgetMessage));
}

TEST(Parser, SuccessorBudgetBoundsRepeatedIncrements) {
  ASSERT_TRUE(ParseProgram("P(0).\nP(t) -> P(t+500000+500000).").ok());
  auto p = ParseProgram("P(0).\nP(t) -> P(t+600000+600000).");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().message(),
            "line 2:12: " + std::string(kBudgetMessage));
  // Increments on an application count too.
  auto q = ParseQuery("?(t) P(f(t+700000)+700000).", &*ParseProgram("P(0)."));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().message(),
            "line 1:19: " + std::string(kBudgetMessage));
}

TEST(Parser, SuccessorBudgetBoundsADeltaLine) {
  auto db = FunctionalDatabase::FromSource("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto applied = (*db)->ApplyDeltaText("+ P(600000+600000).\n");
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.status().message().find(kBudgetMessage),
            std::string::npos)
      << applied.status().ToString();
  EXPECT_TRUE((*db)->ApplyDeltaText("+ P(2+1).\n").ok());
}

TEST(Parser, SuccessorBudgetBoundsADeltaBatch) {
  auto db = FunctionalDatabase::FromSource("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Each line is within the budget; the batch is not, and fails whole.
  auto applied =
      (*db)->ApplyDeltaText("+ P(600000).\n+ P(600000).\n+ P(600000).\n");
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().message(),
            "delta line 2: invalid argument: line 1:3: " +
                std::string(kBudgetMessage));
  EXPECT_TRUE((*db)->ApplyDeltaText("+ P(500000).\n- P(500000).\n").ok());
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

// The inputs of the two never-crash tests below; the diagnostics golden
// records what each of them parses to.
std::vector<std::string> RandomByteInputs() {
  std::mt19937 rng(1234);
  std::vector<std::string> inputs;
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    size_t len = rng() % 120;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(32 + rng() % 95));  // printable ASCII
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

std::vector<std::string> RandomTokenSoupInputs() {
  std::mt19937 rng(99);
  const std::vector<std::string> pool = {
      "P",  "Q(", ")",  ",",  ".",  "->", ":-", "?",  "x",  "y",   "s",
      "0",  "1",  "42", "+1", "f(", "a",  "b",  "(",  "?(", "ext(", "%c\n"};
  std::vector<std::string> inputs;
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    size_t len = rng() % 30;
    for (size_t i = 0; i < len; ++i) input += pool[rng() % pool.size()] + " ";
    inputs.push_back(std::move(input));
  }
  return inputs;
}

TEST(ParserFuzz, RandomBytesNeverCrash) {
  for (const std::string& input : RandomByteInputs()) {
    auto result = Parse(input);
    (void)result;  // ok or error; must not crash
  }
}

TEST(ParserFuzz, RandomTokenSoupNeverCrash) {
  for (const std::string& input : RandomTokenSoupInputs()) {
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

// ---------- diagnostics golden ----------
//
// tests/golden/parse_diagnostics.txt records, for every input below, what
// Parse, ParseProgram seeded with a reference table, ParseQuery and
// ParseFunctionalTerm against that table return: the error text, or the
// printed result with its symbols in id order. It pins every message, the
// error precedence (lexing, then syntax, then lowering, then validation;
// the first in source order within each) and the interning order.
// Regenerate with tools/regen_goldens.sh.

#ifndef RELSPEC_SOURCE_DIR
#error "RELSPEC_SOURCE_DIR must point at the repository root"
#endif

constexpr char kReferenceProgram[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
  At(0, p0).
  Connected(p0, p1).
  At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  P(a).
  Q(a, b).
)";

// Hand-made inputs, each with more than one thing wrong or an error only
// one entry point reports.
const std::vector<std::pair<std::string, std::string>>& HandMadeInputs() {
  static const auto* inputs = [] {
    std::string deep = "P(x).\nR(";
    for (int i = 0; i < 1001; ++i) deep += "f(";
    deep += "0";
    for (int i = 0; i < 1001; ++i) deep += ")";
    deep += ").\n";
    return new std::vector<std::pair<std::string, std::string>>{
        {"empty", ""},
        {"comments only", "% nothing\n// here\n"},
        {"lexing error after a syntax error", "P(a.\nQ(b) @ R."},
        {"lexing error: lone '-'", "P(a) - Q(a)."},
        {"lexing error: lone ':'", "P(a) : Q(a)."},
        {"integer out of range", "P(99999999999999999999999)."},
        {"syntax error after a non-ground fact", "P(x).\nQ(a"},
        {"depth error after a non-ground fact", deep},
        {"lowering errors in source order", "P(x).\nQ(a, b).\nQ(a)."},
        {"arity clash before a functional/non-functional clash",
         "P(a).\nP(a, b).\nR(0, a).\nR(s, x), S(x, s) -> R(s+1, x).\n"
         "S(a, b)."},
        {"functional/non-functional clash before an arity clash",
         "R(0, a).\nR(s, x), S(x, s) -> R(s+1, x).\nS(a, b).\nP(a).\n"
         "P(a, b)."},
        {"lowering error before a validation error",
         "P(s) -> Q(s, y).\nP(0).\nR(a).\nR(a, b)."},
        {"validation error", "P(s) -> Q(s, y).\nP(0)."},
        {"bad successor increment", "P(0+a).\nP(t+2000000) -> P(t)."},
        {"increment out of range", "P(0).\nP(t) -> P(t+2000000)."},
        {"fact of two atoms", "P(a), Q(b)."},
        {"':-' after two atoms", "P(a), Q(b) :- R(c)."},
        {"missing statement end", "P(a) Q(b)."},
        {"both rule arrows", "P(a) :- Q(a) -> R(a)."},
        {"functional predicate without arguments", "P.\nP(0)."},
        {"numeral out of range", "Meets(99999999, a)."},
        {"function in a non-functional position", "P(a, f(b))."},
        {"successor in a non-functional position",
         "P(a, b).\nP(a, x) -> P(a, x+1)."},
        {"constant in a functional position",
         "Meets(0, x) -> Meets(tony, x).\nMeets(0, a)."},
        {"function arity clash", "P(f(0)).\nP(f(0, a))."},
        {"mixed chain", "At(0, p0).\nC(p0, p1).\n"
                        "At(s, x), C(x, y) -> At(go(f(s+1, x)+2, y), y)."},
        {"numeral sugar", "E(3).\nE(t) -> E(t+2).\nE(0+0+1)."},
        {"queries", "Meets(0, a).\n? Meets(s, x).\n?(x) Meets(s, x).\n"
                    "? Meets(s, x), Meets(t, y)."},
        {"query answer list", "P(a).\n?(0) P(a)."},
        {"unclosed query answer list", "P(a).\n?(x P(x)."},
        {"two queries", "? P(x). ? Q(x, y)."},
        {"query of an unknown predicate", "? Unknown(s)."},
        {"query with a wrong arity", "? Meets(t, Tony, Jan)."},
        {"query with local names", "?(v, y) Meets(zz(v), Bob), Next(Tony, y)."},
        {"query with a local function clash", "? At(zz(zz(0, a)), a)."},
        {"query treating a functional predicate as plain", "? Next(3, Tony)."},
        {"term", "move(0, p0, p1)+1"},
        {"term with trailing tokens", "0 0"},
        {"term that is a constant", "a"},
        {"unclosed term", "f("},
        {"term with a function argument", "move(0, f(a), p1)"},
        {"non-ASCII byte", "P(caf\xc3\xa9)."},
        {"non-ASCII byte alone", "\xff"},
    };
  }();
  return *inputs;
}

// The golden is text: newlines, backslashes and bytes outside printable
// ASCII are escaped.
std::string Escape(std::string_view text) {
  std::string out;
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u > 0x7e) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string SymbolsInIdOrder(const SymbolTable& symbols) {
  std::string out = "preds=[";
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    out += (p ? " " : "") + info.name + "/" + std::to_string(info.arity) +
           (info.functional ? "f" : "");
  }
  out += "] funcs=[";
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    const FunctionInfo& info = symbols.function(f);
    out += (f ? " " : "") + info.name + "/" + std::to_string(info.arity);
  }
  out += "] consts=[";
  for (ConstId c = 0; c < symbols.num_constants(); ++c) {
    out += (c ? " " : "") + symbols.constant_name(c);
  }
  out += "] vars=[";
  for (VarId v = 0; v < symbols.num_variables(); ++v) {
    out += (v ? " " : "") + symbols.variable_name(v);
  }
  return out + "]";
}

void DescribeParses(const std::string& label, const std::string& input,
                    const SymbolTable& reference, std::string* out) {
  *out += "== " + label + "\n";
  *out += "input: " + Escape(input) + "\n";
  auto describe_program = [&](const char* call, const Program& program,
                              const std::vector<Query>& queries) {
    *out += std::string(call) + ": " + Escape(ToString(program)) + "\n";
    for (const Query& q : queries) {
      *out += "  query: " + Escape(ToString(q, program.symbols)) + "\n";
    }
    *out += "  symbols: " + Escape(SymbolsInIdOrder(program.symbols)) + "\n";
  };
  auto error = [&](const char* call, const Status& status) {
    *out += std::string(call) + ": " + Escape(status.ToString()) + "\n";
  };

  if (auto r = Parse(input); r.ok()) {
    describe_program("Parse", r->program, r->queries);
  } else {
    error("Parse", r.status());
  }
  if (auto p = ParseProgram(input, reference); p.ok()) {
    describe_program("ParseProgram(seeded)", *p, {});
  } else {
    error("ParseProgram(seeded)", p.status());
  }
  if (auto q = ParseQuery(input, reference); q.ok()) {
    *out += "ParseQuery: " + Escape(ToString(*q, reference)) + "\n";
    *out += "  local: consts=" + std::to_string(q->local.constants.size()) +
            " funcs=" + std::to_string(q->local.functions.size()) +
            " vars=" + std::to_string(q->local.variables.size()) + "\n";
  } else {
    error("ParseQuery", q.status());
  }
  if (auto t = ParseFunctionalTerm(input, reference); t.ok()) {
    // By id: the term's own names are numbered past the table's counts.
    std::string term = t->has_var ? "v" + std::to_string(t->var) : "0";
    for (const FuncApply& app : t->apps) {
      std::string head = "f";
      head += std::to_string(app.fn);
      head += '(';
      term.insert(0, head);
      for (const NfArg& arg : app.args) {
        term += (arg.IsConstant() ? ",c" : ",v") + std::to_string(arg.id);
      }
      term += ")";
    }
    *out += "ParseFunctionalTerm: " + term + "\n";
  } else {
    error("ParseFunctionalTerm", t.status());
  }
}

TEST(ParserDiagnostics, MatchGolden) {
  auto reference = ParseProgram(kReferenceProgram);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string root = RELSPEC_SOURCE_DIR;

  std::string actual;
  std::vector<std::string> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/examples/programs")) {
    if (entry.path().extension() == ".rsp") {
      examples.push_back(entry.path().filename().string());
    }
  }
  std::sort(examples.begin(), examples.end());
  for (const std::string& name : examples) {
    std::ifstream in(root + "/examples/programs/" + name, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    DescribeParses("examples/programs/" + name, text.str(),
                   reference->symbols, &actual);
  }
  for (const auto& [label, input] : HandMadeInputs()) {
    DescribeParses(label, input, reference->symbols, &actual);
  }
  int trial = 0;
  for (const std::string& input : RandomByteInputs()) {
    DescribeParses("random bytes " + std::to_string(trial++), input,
                   reference->symbols, &actual);
  }
  trial = 0;
  for (const std::string& input : RandomTokenSoupInputs()) {
    DescribeParses("token soup " + std::to_string(trial++), input,
                   reference->symbols, &actual);
  }

  const std::string path = root + "/tests/golden/parse_diagnostics.txt";
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), actual)
      << "parse diagnostics differ from " << path
      << " (regenerate with tools/regen_goldens.sh)";
}

}  // namespace
}  // namespace relspec
