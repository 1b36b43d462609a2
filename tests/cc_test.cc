// Unit tests for union-find and the DST80 congruence closure, and for the
// (B, R) walk proof held to that closure.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

#include "src/cc/congruence_closure.h"
#include "src/cc/union_find.h"
#include "src/core/engine.h"
#include "src/term/symbol_table.h"
#include "tests/closure_oracle.h"

namespace relspec {
namespace {

TEST(UnionFind, BasicUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_FALSE(uf.Same(0, 1));
  uf.Union(0, 1);
  EXPECT_TRUE(uf.Same(0, 1));
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_FALSE(uf.Same(0, 3));
  EXPECT_EQ(uf.NumSets(), 3u);
  // Idempotent union.
  uf.Union(0, 2);
  EXPECT_EQ(uf.NumSets(), 3u);
}

TEST(UnionFind, GrowsOnDemand) {
  UnionFind uf;
  uf.EnsureSize(2);
  uf.Union(0, 1);
  uf.EnsureSize(10);
  EXPECT_EQ(uf.NumSets(), 9u);
  EXPECT_TRUE(uf.Same(0, 1));
  EXPECT_FALSE(uf.Same(0, 9));
}

TEST(UnionFind, RandomizedAgainstNaive) {
  std::mt19937 rng(42);
  constexpr int kN = 60;
  UnionFind uf(kN);
  std::vector<int> naive(kN);
  for (int i = 0; i < kN; ++i) naive[i] = i;
  auto naive_find = [&](int x) {
    while (naive[x] != x) x = naive[x];
    return x;
  };
  for (int step = 0; step < 500; ++step) {
    int a = static_cast<int>(rng() % kN);
    int b = static_cast<int>(rng() % kN);
    if (step % 3 == 0) {
      uf.Union(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
      naive[naive_find(a)] = naive_find(b);
    } else {
      EXPECT_EQ(uf.Same(static_cast<uint32_t>(a), static_cast<uint32_t>(b)),
                naive_find(a) == naive_find(b));
    }
  }
}

// ---------- congruence closure ----------

class CcFixture : public ::testing::Test {
 protected:
  CcFixture() : cc_(&arena_) {
    f_ = *symbols_.InternFunction("f", 1);
    g_ = *symbols_.InternFunction("g", 1);
  }

  TermId Nat(int n) {  // f^n(0)
    TermId t = arena_.Zero();
    for (int i = 0; i < n; ++i) t = arena_.Apply(f_, t);
    return t;
  }

  SymbolTable symbols_;
  TermArena arena_;
  CongruenceClosure cc_;
  FuncId f_, g_;
};

TEST_F(CcFixture, ReflexiveByDefault) {
  EXPECT_TRUE(cc_.AreCongruent(Nat(3), Nat(3)));
  EXPECT_FALSE(cc_.AreCongruent(Nat(3), Nat(4)));
}

TEST_F(CcFixture, MergePropagatesUpward) {
  // The paper's Section 3.5 example: R = {(0, 2)}.
  cc_.Merge(Nat(0), Nat(2));
  EXPECT_TRUE(cc_.AreCongruent(Nat(0), Nat(2)));
  EXPECT_TRUE(cc_.AreCongruent(Nat(0), Nat(4)));   // lifted twice
  EXPECT_TRUE(cc_.AreCongruent(Nat(1), Nat(3)));   // lifted once
  EXPECT_TRUE(cc_.AreCongruent(Nat(1), Nat(13)));  // odd ~ odd
  EXPECT_FALSE(cc_.AreCongruent(Nat(0), Nat(3)));  // even vs odd
  EXPECT_FALSE(cc_.AreCongruent(Nat(0), Nat(1)));
}

TEST_F(CcFixture, LazyTermsJoinExistingClasses) {
  cc_.Merge(Nat(0), Nat(2));
  // Terms interned after the merge still resolve correctly.
  EXPECT_TRUE(cc_.AreCongruent(Nat(10), Nat(0)));
  EXPECT_FALSE(cc_.AreCongruent(Nat(11), Nat(0)));
}

TEST_F(CcFixture, MixedSymbolsWithDifferentArgsStayApart) {
  FuncId ext = *symbols_.InternFunction("ext", 2);
  ConstId a = symbols_.InternConstant("a");
  ConstId b = symbols_.InternConstant("b");
  TermId ea = arena_.Apply(ext, arena_.Zero(), {a});
  TermId eb = arena_.Apply(ext, arena_.Zero(), {b});
  EXPECT_FALSE(cc_.AreCongruent(ea, eb));
  // ext(x, a) == ext(y, a) follows from x == y...
  TermId one = Nat(1);
  cc_.Merge(arena_.Zero(), one);
  TermId ea1 = arena_.Apply(ext, one, {a});
  EXPECT_TRUE(cc_.AreCongruent(ea, ea1));
  // ...but never across different constant arguments.
  TermId eb1 = arena_.Apply(ext, one, {b});
  EXPECT_FALSE(cc_.AreCongruent(ea, eb1));
  EXPECT_TRUE(cc_.AreCongruent(eb, eb1));
}

TEST_F(CcFixture, TwoSymbolWordCongruence) {
  // a ~ ab (from the list example): then any suffix extension agrees.
  TermId ta = arena_.Apply(f_, arena_.Zero());
  TermId tab = arena_.Apply(g_, ta);
  cc_.Merge(ta, tab);
  // a.b.b ~ a.b ~ a
  TermId tabb = arena_.Apply(g_, tab);
  EXPECT_TRUE(cc_.AreCongruent(tabb, ta));
  // g(0) unaffected.
  EXPECT_FALSE(cc_.AreCongruent(arena_.Apply(g_, arena_.Zero()), ta));
}

TEST_F(CcFixture, TransitivityAcrossSeparateMerges) {
  cc_.Merge(Nat(1), Nat(4));
  cc_.Merge(Nat(4), Nat(7));
  EXPECT_TRUE(cc_.AreCongruent(Nat(1), Nat(7)));
  EXPECT_TRUE(cc_.AreCongruent(Nat(2), Nat(8)));  // lifted
}

TEST_F(CcFixture, NumClassesTracksMerges) {
  Nat(4);  // interns 0..4
  cc_.AreCongruent(Nat(4), Nat(4));
  size_t before = cc_.NumClasses();
  EXPECT_EQ(before, 5u);
  cc_.Merge(Nat(0), Nat(1));
  // 0~1 collapses everything: 1~2, 2~3, 3~4 by congruence.
  EXPECT_EQ(cc_.NumClasses(), 1u);
}

TEST_F(CcFixture, DiamondMergeTriggersCascade) {
  // Merge g(0) with f(0); then f(f(0)) ~ g(f(0)) requires signature
  // propagation through the merged child class... build the diamond first.
  TermId f0 = arena_.Apply(f_, arena_.Zero());
  TermId g0 = arena_.Apply(g_, arena_.Zero());
  TermId ff0 = arena_.Apply(f_, f0);
  TermId fg0 = arena_.Apply(f_, g0);
  EXPECT_FALSE(cc_.AreCongruent(ff0, fg0));
  cc_.Merge(f0, g0);
  EXPECT_TRUE(cc_.AreCongruent(ff0, fg0));
  EXPECT_FALSE(cc_.AreCongruent(ff0, f0));
}

TEST_F(CcFixture, RandomizedAgainstBruteForce) {
  // Random unary-term universes; compare the closure against a brute-force
  // fixpoint of the congruence rules over the bounded universe.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    TermArena arena;
    CongruenceClosure cc(&arena);
    constexpr int kDepth = 8;
    std::vector<TermId> terms;  // f/g words up to depth kDepth... linear f-chain
    // Universe: all f/g words of depth <= 4 (21 terms over 2 symbols).
    std::vector<TermId> layer = {arena.Zero()};
    terms.push_back(arena.Zero());
    for (int d = 0; d < 4; ++d) {
      std::vector<TermId> next;
      for (TermId t : layer) {
        for (FuncId fn : {f_, g_}) {
          TermId u = arena.Apply(fn, t);
          next.push_back(u);
          terms.push_back(u);
        }
      }
      layer = next;
    }
    (void)kDepth;
    // Random equations between terms.
    std::vector<std::pair<TermId, TermId>> eqs;
    for (int e = 0; e < 3; ++e) {
      eqs.emplace_back(terms[rng() % terms.size()], terms[rng() % terms.size()]);
    }
    for (auto [a, b] : eqs) cc.Merge(a, b);

    // Brute force: union-find over the universe, iterate congruence.
    std::map<TermId, TermId> parent;
    for (TermId t : terms) parent[t] = t;
    std::function<TermId(TermId)> find = [&](TermId x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    auto unite = [&](TermId a, TermId b) { parent[find(a)] = find(b); };
    for (auto [a, b] : eqs) unite(a, b);
    bool changed = true;
    while (changed) {
      changed = false;
      for (TermId a : terms) {
        for (TermId b : terms) {
          if (find(a) != find(b)) continue;
          for (FuncId fn : {f_, g_}) {
            TermId fa = arena.Apply(fn, a);
            TermId fb = arena.Apply(fn, b);
            if (parent.count(fa) > 0 && parent.count(fb) > 0 &&
                find(fa) != find(fb)) {
              unite(fa, fb);
              changed = true;
            }
          }
        }
      }
    }
    for (TermId a : terms) {
      for (TermId b : terms) {
        // Brute force under-approximates on the clipped frontier (congruence
        // via deeper terms is impossible for unary words), so equality holds.
        EXPECT_EQ(cc.AreCongruent(a, b), find(a) == find(b))
            << "trial " << trial;
      }
    }
  }
}

// ---------- proof production: the (B, R) walk proof ----------
//
// The closure proves nothing itself; EquationalSpecification::
// ExplainCongruence proves (a, b) in Cl(R) by the Link walk. These cases
// merge R's equations into the fixture's closure and hold the walk's proofs
// to it.

// The (B, R) of `source`, with each of its equations merged into `cc`.
StatusOr<EquationalSpecification> MergedSpec(const char* source,
                                              TermArena* arena,
                                              CongruenceClosure* cc) {
  RELSPEC_ASSIGN_OR_RETURN(auto db, FunctionalDatabase::FromSource(source));
  RELSPEC_ASSIGN_OR_RETURN(auto eq, db->BuildEquationalSpec());
  for (const Equation& e : eq.equations()) {
    const auto [t1, t2] = eq.EquationPaths(e);
    cc->Merge(t1.ToTerm(arena), t2.ToTerm(arena));
  }
  return eq;
}

// +1^n(0) over the spec's successor symbol.
Path Succ(const EquationalSpecification& eq, int n) {
  const FuncId succ = *eq.spec().symbols().FindFunction("+1");
  return Path(std::vector<FuncId>(static_cast<size_t>(n), succ));
}

TEST_F(CcFixture, ExplainNonCongruentIsNotFound) {
  // The paper's Section 3.5 example. Past the trunk {0}, R is the one
  // equation +1^3(0) == +1(0): day 0 stays alone, then odd and even days.
  auto eq = MergedSpec("Even(0). Even(t) -> Even(t+2).", &arena_, &cc_);
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_TRUE(eq->ExplainCongruence(Succ(*eq, 0), Succ(*eq, 1))
                  .status()
                  .IsNotFound());
  size_t refused = 0;
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) {
      const Path a = Succ(*eq, i), b = Succ(*eq, j);
      if (cc_.AreCongruent(a.ToTerm(&arena_), b.ToTerm(&arena_))) continue;
      EXPECT_TRUE(eq->ExplainCongruence(a, b).status().IsNotFound())
          << i << "," << j;
      ++refused;
    }
  }
  EXPECT_EQ(refused, 48u);  // 81 pairs less 1 + 4 * 4 + 4 * 4 congruent
}

TEST_F(CcFixture, ExplainTransitiveChain) {
  // Past the trunk {0}, R is the one equation +1^4(0) == +1(0), and 1 == 7
  // chains through 4: the equation itself, then lifted three times.
  auto eq = MergedSpec("P(0). P(t) -> P(t+3).", &arena_, &cc_);
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  ASSERT_EQ(eq->num_equations(), 1u);
  EXPECT_EQ(eq->EquationPaths(eq->equations()[0]),
            std::make_pair(Succ(*eq, 4), Succ(*eq, 1)));
  auto proof = eq->ExplainCongruence(Succ(*eq, 1), Succ(*eq, 7));
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_EQ(proof->steps.size(), 2u);  // no detours
  EXPECT_EQ(proof->steps[0].lhs, Succ(*eq, 1));
  EXPECT_EQ(proof->steps[0].rhs, Succ(*eq, 4));
  EXPECT_EQ(proof->steps[0].lifted, 0);
  EXPECT_EQ(proof->steps[1].lhs, Succ(*eq, 4));
  EXPECT_EQ(proof->steps[1].rhs, Succ(*eq, 7));
  EXPECT_EQ(proof->steps[1].lifted, 3);
  for (const CongruenceStep& step : proof->steps) {
    EXPECT_TRUE(
        cc_.AreCongruent(step.lhs.ToTerm(&arena_), step.rhs.ToTerm(&arena_)));
  }
}

TEST_F(CcFixture, ExplainSurvivesManyMerges) {
  // Two symbols and several equations; every congruent pair must be proved
  // from equations that R actually holds.
  auto eq = MergedSpec(R"(
    Start(0).
    Start(t) -> A(f(t)).
    Start(t) -> B(g(t)).
    A(t) -> B(f(t)).
    B(t) -> A(g(t)).
    A(t) -> C(g(t)).
  )", &arena_, &cc_);
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  ASSERT_GE(eq->num_equations(), 3u);
  std::set<std::tuple<uint32_t, FuncId, uint32_t>> in_r;
  for (const Equation& e : eq->equations()) {
    in_r.insert({e.cluster, e.symbol, e.target});
  }
  const std::vector<Path> paths =
      testutil::ShortlexPaths(eq->spec().alphabet(), 5, 63);
  size_t proved = 0;
  for (const Path& a : paths) {
    for (const Path& b : paths) {
      if (!cc_.AreCongruent(a.ToTerm(&arena_), b.ToTerm(&arena_))) continue;
      auto proof = eq->ExplainCongruence(a, b);
      ASSERT_TRUE(proof.ok()) << proof.status().ToString();
      EXPECT_EQ(testutil::ProofDefect(*eq, in_r, a, b, *proof), "");
      if (a != b) ++proved;
    }
  }
  EXPECT_GT(proved, 0u);
}

}  // namespace
}  // namespace relspec
