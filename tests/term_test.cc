// Unit tests for src/term: symbol interning, hash-consed terms, paths.

#include <gtest/gtest.h>

#include "src/term/path.h"
#include "src/term/symbol_table.h"
#include "src/term/term.h"

namespace relspec {
namespace {

// ---------- SymbolTable ----------

TEST(SymbolTable, InternPredicateIsIdempotent) {
  SymbolTable t;
  auto p1 = t.InternPredicate("Meets", 2, true);
  auto p2 = t.InternPredicate("Meets", 2, false);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);
  EXPECT_TRUE(t.predicate(*p1).functional);  // sticky once set
  EXPECT_EQ(t.num_predicates(), 1u);
}

TEST(SymbolTable, PredicateArityConflictRejected) {
  SymbolTable t;
  ASSERT_TRUE(t.InternPredicate("P", 2, false).ok());
  auto bad = t.InternPredicate("P", 3, false);
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(SymbolTable, SetFunctionalPromotes) {
  SymbolTable t;
  auto p = t.InternPredicate("P", 1, false);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(t.predicate(*p).functional);
  ASSERT_TRUE(t.SetFunctional(*p).ok());
  EXPECT_TRUE(t.predicate(*p).functional);
  EXPECT_TRUE(t.SetFunctional(99).IsOutOfRange());
}

TEST(SymbolTable, FunctionArity) {
  SymbolTable t;
  auto f = t.InternFunction("f", 1);
  auto g = t.InternFunction("ext", 2);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(t.function(*f).arity, 1);
  EXPECT_EQ(t.function(*g).arity, 2);
  EXPECT_TRUE(t.InternFunction("f", 2).status().IsInvalidArgument());
  EXPECT_TRUE(t.InternFunction("h", 0).status().IsInvalidArgument());
}

TEST(SymbolTable, FindMissingReturnsNotFound) {
  SymbolTable t;
  EXPECT_TRUE(t.FindPredicate("Q").status().IsNotFound());
  EXPECT_TRUE(t.FindFunction("g").status().IsNotFound());
  EXPECT_TRUE(t.FindConstant("c").status().IsNotFound());
}

TEST(SymbolTable, ConstantsAndVariablesInternDensely) {
  SymbolTable t;
  ConstId a = t.InternConstant("a");
  ConstId b = t.InternConstant("b");
  EXPECT_EQ(t.InternConstant("a"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.constant_name(b), "b");
  VarId x = t.InternVariable("x");
  EXPECT_EQ(t.InternVariable("x"), x);
  EXPECT_EQ(t.variable_name(x), "x");
}

// ---------- TermArena ----------

TEST(TermArena, ZeroIsPreinterned) {
  TermArena arena;
  EXPECT_EQ(arena.Zero(), kZeroTerm);
  EXPECT_EQ(arena.Depth(kZeroTerm), 0);
  EXPECT_TRUE(arena.IsZero(kZeroTerm));
  EXPECT_EQ(arena.size(), 1u);
}

TEST(TermArena, HashConsingDeduplicates) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  FuncId g = *t.InternFunction("g", 1);
  TermArena arena;
  TermId f0 = arena.Apply(f, arena.Zero());
  TermId f0_again = arena.Apply(f, arena.Zero());
  EXPECT_EQ(f0, f0_again);
  TermId gf0 = arena.Apply(g, f0);
  EXPECT_NE(gf0, f0);
  EXPECT_EQ(arena.Depth(gf0), 2);
  EXPECT_EQ(arena.size(), 3u);  // 0, f(0), g(f(0))
}

TEST(TermArena, MixedTermsCarryArguments) {
  SymbolTable t;
  FuncId ext = *t.InternFunction("ext", 2);
  ConstId a = t.InternConstant("a");
  ConstId b = t.InternConstant("b");
  TermArena arena;
  TermId ta = arena.Apply(ext, arena.Zero(), {a});
  TermId tb = arena.Apply(ext, arena.Zero(), {b});
  EXPECT_NE(ta, tb);
  EXPECT_EQ(arena.Apply(ext, arena.Zero(), {a}), ta);
  EXPECT_FALSE(arena.IsPure(ta));
  EXPECT_TRUE(arena.ToSymbols(ta).status().IsFailedPrecondition());
  EXPECT_EQ(arena.ToString(ta, t), "ext(0,a)");
}

TEST(TermArena, SymbolsRoundTrip) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  FuncId g = *t.InternFunction("g", 1);
  TermArena arena;
  std::vector<FuncId> word = {f, g, g, f};
  TermId id = arena.FromSymbols(word);
  auto back = arena.ToSymbols(id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, word);
  EXPECT_EQ(arena.ToString(id, t), "f(g(g(f(0))))");
  EXPECT_TRUE(arena.IsPure(id));
}

// ---------- Path ----------

TEST(Path, ZeroProperties) {
  Path z = Path::Zero();
  EXPECT_TRUE(z.empty());
  EXPECT_EQ(z.depth(), 0);
}

TEST(Path, ExtendAndParent) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  FuncId g = *t.InternFunction("g", 1);
  Path p = Path::Zero().Extend(f).Extend(g);  // g(f(0))
  EXPECT_EQ(p.depth(), 2);
  EXPECT_EQ(p.Outermost(), g);
  EXPECT_EQ(p.Parent(), Path::Zero().Extend(f));
  EXPECT_EQ(p.ToString(t), "g(f(0))");
  EXPECT_EQ(p.ToWord(t), "f.g");
}

TEST(Path, ShortlexOrdering) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  FuncId g = *t.InternFunction("g", 1);
  Path z = Path::Zero();
  Path pf = z.Extend(f);
  Path pg = z.Extend(g);
  Path pff = pf.Extend(f);
  EXPECT_TRUE(z < pf);
  EXPECT_TRUE(pf < pg);   // same length: lexicographic by FuncId
  EXPECT_TRUE(pg < pff);  // shorter first
}

TEST(Path, TermRoundTrip) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  TermArena arena;
  Path p = Path::Zero().Extend(f).Extend(f);
  TermId id = p.ToTerm(&arena);
  auto back = Path::FromTerm(arena, id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Path, HashConsistency) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  Path a = Path::Zero().Extend(f);
  Path b = Path::Zero().Extend(f);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(Path, AllPathsOfDepthEnumeratesShortlexLayer) {
  SymbolTable t;
  FuncId f = *t.InternFunction("f", 1);
  FuncId g = *t.InternFunction("g", 1);
  std::vector<Path> layer = AllPathsOfDepth({f, g}, 2);
  ASSERT_EQ(layer.size(), 4u);
  EXPECT_EQ(layer[0].ToWord(t), "f.f");
  EXPECT_EQ(layer[1].ToWord(t), "f.g");
  EXPECT_EQ(layer[2].ToWord(t), "g.f");
  EXPECT_EQ(layer[3].ToWord(t), "g.g");
  EXPECT_EQ(AllPathsOfDepth({f, g}, 0).size(), 1u);
}

}  // namespace
}  // namespace relspec
