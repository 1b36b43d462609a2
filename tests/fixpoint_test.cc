// Unit tests for the least-fixpoint machinery: trunk labels, the chi table,
// context propagation, bounded brute-force evaluation.

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/core/fixpoint.h"
#include "src/core/ground.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

struct Built {
  Program program;
  GroundProgram ground;
};

StatusOr<Built> Build(std::string_view source) {
  RELSPEC_ASSIGN_OR_RETURN(Program p, ParseProgram(source));
  RELSPEC_ASSIGN_OR_RETURN(NormalizeStats ns, NormalizeProgram(&p));
  (void)ns;
  RELSPEC_ASSIGN_OR_RETURN(MixedToPureStats ms, MixedToPure(&p));
  (void)ms;
  RELSPEC_ASSIGN_OR_RETURN(GroundProgram g, Ground(p));
  return Built{std::move(p), std::move(g)};
}

// Looks up a slice atom id by predicate name + constant names.
SliceAtom AtomOf(const Built& b, const std::string& pred,
                 const std::vector<std::string>& consts) {
  SliceAtom a;
  a.pred = *b.program.symbols.FindPredicate(pred);
  for (const auto& c : consts) a.args.push_back(*b.program.symbols.FindConstant(c));
  return a;
}

// Membership read straight off the labeling: the atom's bit in the label of
// `path`.
bool Holds(Labeling& l, const Path& path, const SliceAtom& atom) {
  const AtomIdx idx = l.ground().FindAtom(atom.pred, atom.args);
  return idx != kInvalidId && l.LabelOf(path).Test(idx);
}

bool HoldsGlobal(const Labeling& l, PredId pred,
                 const std::vector<ConstId>& args) {
  const CtxIdx idx = l.ground().FindGlobal(pred, args);
  return idx != kInvalidId && l.ctx().Test(idx);
}

Path NatPath(const Built& b, int n) {
  FuncId succ = *b.program.symbols.FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(n), succ);
  return Path(std::move(syms));
}

TEST(Fixpoint, ForwardChainLabels) {
  auto b = Build("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  SliceAtom p = AtomOf(*b, "P", {});
  for (int n = 0; n <= 10; ++n) {
    EXPECT_TRUE(Holds(*l, NatPath(*b, n), p)) << n;
  }
}

TEST(Fixpoint, DownPropagation) {
  // Q flows downward: Q(t+1) -> Q(t); seeded at depth 4 via P-chain.
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    P(4), P(t) -> Q(t+4).
    Q(t+1) -> Q(t).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  SliceAtom q = AtomOf(*b, "Q", {});
  // Q holds at t+4 for every t, and propagates down to everything.
  for (int n = 0; n <= 10; ++n) {
    EXPECT_TRUE(Holds(*l, NatPath(*b, n), q)) << n;
  }
}

TEST(Fixpoint, DownPropagationBounded) {
  // Q seeded only at the pinned position 3, flows down but not up.
  auto b = Build(R"(
    Q(3).
    Q(t+1) -> Q(t).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  SliceAtom q = AtomOf(*b, "Q", {});
  for (int n = 0; n <= 8; ++n) {
    EXPECT_EQ(Holds(*l, NatPath(*b, n), q), n <= 3) << n;
  }
}

TEST(Fixpoint, ExistentialGlobalFromDeepNode) {
  // Witness(a) becomes true because SOME node (depth 5) satisfies P&Marker.
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    Marker(5).
    P(t), Marker(t) -> Witness(a).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  ConstId a = *b->program.symbols.FindConstant("a");
  PredId witness = *b->program.symbols.FindPredicate("Witness");
  EXPECT_TRUE(HoldsGlobal(*l, witness, {a}));
}

TEST(Fixpoint, GlobalFeedsBackIntoChain) {
  // The chain only advances once Go(a) is derived, which requires reaching
  // depth 2 first: tests the context feedback loop.
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    P(2) -> Go(a).
    P(t), Go(x) -> R(t).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  SliceAtom r = AtomOf(*b, "R", {});
  EXPECT_TRUE(Holds(*l, NatPath(*b, 0), r));
  EXPECT_TRUE(Holds(*l, NatPath(*b, 7), r));
}

TEST(Fixpoint, SiblingPropagationAcrossSymbols) {
  // Facts jump between sibling branches: P at f-child implies Q at g-child.
  auto b = Build(R"(
    P(0).
    P(t) -> P(f(t)).
    P(f(t)) -> Q(g(t)).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  FuncId f = *b->program.symbols.FindFunction("f");
  FuncId g = *b->program.symbols.FindFunction("g");
  SliceAtom q = AtomOf(*b, "Q", {});
  SliceAtom p = AtomOf(*b, "P", {});
  EXPECT_TRUE(Holds(*l, Path({g}), q));
  EXPECT_TRUE(Holds(*l, Path({f, g}), q));
  EXPECT_FALSE(Holds(*l, Path({g, g}), q));  // no P below g-branches
  EXPECT_FALSE(Holds(*l, Path({g}), p));
}

TEST(Fixpoint, UnknownSymbolsHaveEmptyLabels) {
  auto b = Build("P(0).\nP(t) -> P(f(t)).");
  ASSERT_TRUE(b.ok());
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok());
  SliceAtom p = AtomOf(*b, "P", {});
  // A path through a symbol absent from the program: nothing holds there.
  FuncId ghost = *b->program.symbols.InternFunction("ghost", 1);
  EXPECT_FALSE(Holds(*l, Path({ghost}), p));
  FuncId f = *b->program.symbols.FindFunction("f");
  EXPECT_FALSE(Holds(*l, Path({ghost, f}), p));
  EXPECT_TRUE(Holds(*l, Path({f}), p));
}

TEST(Fixpoint, StatesRepeatAndChiTableStaysSmall) {
  auto b = Build("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(b.ok());
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok());
  // Deep labels resolve through the finite chi table.
  SliceAtom p = AtomOf(*b, "P", {});
  EXPECT_TRUE(Holds(*l, NatPath(*b, 200), p));
  EXPECT_LT(l->chi().num_entries(), 10u);
}

TEST(Fixpoint, ChiEntryCapEnforced) {
  auto b = Build(R"(
    P(0, a).
    P(0, b).
    P(t, x) -> P(t+1, x).
  )");
  ASSERT_TRUE(b.ok());
  FixpointOptions options;
  options.max_chi_entries = 0;
  auto l = ComputeFixpoint(b->ground, options);
  EXPECT_TRUE(l.status().IsResourceExhausted());
}

// ---------- bounded brute force ----------

TEST(BoundedFixpoint, MatchesExactEngineOnRegion) {
  auto b = Build(R"(
    Meets(0, Tony).
    Next(Tony, Jan).
    Next(Jan, Tony).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  ASSERT_TRUE(b.ok());
  auto exact = ComputeFixpoint(b->ground);
  ASSERT_TRUE(exact.ok());
  auto bounded = ComputeBoundedFixpoint(b->ground, 12);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  SliceAtom tony = AtomOf(*b, "Meets", {"Tony"});
  SliceAtom jan = AtomOf(*b, "Meets", {"Jan"});
  for (int n = 0; n <= 12; ++n) {
    EXPECT_EQ(bounded->Holds(NatPath(*b, n), tony),
              Holds(*exact, NatPath(*b, n), tony))
        << n;
    EXPECT_EQ(bounded->Holds(NatPath(*b, n), jan),
              Holds(*exact, NatPath(*b, n), jan))
        << n;
  }
  EXPECT_GT(bounded->TotalFacts(), 0u);
  EXPECT_EQ(bounded->num_nodes(), 13u);
}

TEST(BoundedFixpoint, UnderApproximatesWithDownPropagation) {
  // With down-propagation, facts near the bound need derivations that
  // excursion above the bound; the bounded fixpoint soundly misses them.
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    P(4), P(t) -> Q(t+4).
    Q(t+1) -> Q(t).
  )");
  ASSERT_TRUE(b.ok());
  auto exact = ComputeFixpoint(b->ground);
  ASSERT_TRUE(exact.ok());
  auto bounded = ComputeBoundedFixpoint(b->ground, 6);
  ASSERT_TRUE(bounded.ok());
  SliceAtom q = AtomOf(*b, "Q", {});
  // Soundness: everything the bounded engine derives is in the fixpoint.
  for (int n = 0; n <= 6; ++n) {
    if (bounded->Holds(NatPath(*b, n), q)) {
      EXPECT_TRUE(Holds(*exact, NatPath(*b, n), q)) << n;
    }
  }
}

TEST(BoundedFixpoint, BoundSmallerThanTrunkRejected) {
  auto b = Build("P(5).\nP(t) -> P(t+1).");
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(ComputeBoundedFixpoint(b->ground, 2).ok());
}

TEST(Fixpoint, TrunkDeeperThanZero) {
  // Facts at several depths; the trunk covers them all.
  auto b = Build(R"(
    P(3, a).
    P(1, b).
    P(t, x) -> P(t+1, x).
  )");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->ground.trunk_depth(), 3);
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(Holds(*l, NatPath(*b, 3), AtomOf(*b, "P", {"a"})));
  EXPECT_FALSE(Holds(*l, NatPath(*b, 2), AtomOf(*b, "P", {"a"})));
  EXPECT_TRUE(Holds(*l, NatPath(*b, 2), AtomOf(*b, "P", {"b"})));
  EXPECT_TRUE(Holds(*l, NatPath(*b, 9), AtomOf(*b, "P", {"a"})));
  EXPECT_TRUE(Holds(*l, NatPath(*b, 9), AtomOf(*b, "P", {"b"})));
}

// RAII guard for tests that assert on the process-global metrics registry.
class ScopedMetrics {
 public:
  ScopedMetrics() {
    MetricsRegistry::Global().Reset();
    EnableMetrics(true);
  }
  ~ScopedMetrics() {
    EnableMetrics(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST(FixpointMetrics, ChiHitsPlusMissesEqualLookups) {
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    P(t+1) -> Q(t).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ScopedMetrics metrics;
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snap.counter("chi.lookups"), 0u);
  EXPECT_EQ(snap.counter("chi.hits") + snap.counter("chi.misses"),
            snap.counter("chi.lookups"));
  // Every miss creates a chi entry, and the entry gauge reflects the table.
  EXPECT_EQ(snap.gauge("fixpoint.chi_entries"),
            static_cast<int64_t>(l->chi().num_entries()));
}

TEST(FixpointMetrics, RoundCounterMatchesLabeling) {
  auto b = Build(R"(
    P(0).
    P(t) -> P(t+1).
    Q(3).
    Q(t+1) -> Q(t).
  )");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ScopedMetrics metrics;
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("fixpoint.rounds"),
            static_cast<uint64_t>(l->rounds()));
  EXPECT_EQ(snap.gauge("fixpoint.trunk_nodes"),
            static_cast<int64_t>(l->trunk_paths().size()));
  const PhaseSnapshot* phase = snap.phase("fixpoint");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 1u);
}

TEST(FixpointMetrics, RoundCounterCappedByMaxRounds) {
  auto b = Build("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ScopedMetrics metrics;
  FixpointOptions options;
  options.max_rounds = 1;
  auto l = ComputeFixpoint(b->ground, options);
  EXPECT_TRUE(l.status().IsResourceExhausted());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // The counter tracks rounds entered, and the cap aborts in round
  // max_rounds + 1.
  EXPECT_EQ(snap.counter("fixpoint.rounds"), options.max_rounds + 1);
}

// The chi worklist closes an entry again only when an entry it read grew or
// the context grew. On a counter neither happens after the first closure, so
// every entry is closed exactly once.
TEST(Fixpoint, ClosesEachChiEntryOnceOnACounter) {
  auto b = Build(relspec_bench::BinaryCounterProgram(9));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ScopedMetrics metrics;
  auto l = ComputeFixpoint(b->ground);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(l->chi().num_entries(), 513u);
  EXPECT_EQ(snap.counter("chi.close_node_calls"), l->chi().num_entries());
}

// A closure touches only the rules that read the bits it sets
// (Dowling–Gallier). Each rotation entry's closure fires one of the k
// rules, so the count work grows linearly in k; evaluating every rule in
// every sweep grew 4x per doubling.
TEST(Fixpoint, ChiClosureWorkIsLinearOnRotation) {
  std::vector<uint64_t> visits;
  for (int k : {105, 210, 420}) {
    auto b = Build(relspec_bench::RotationProgram(k));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ScopedMetrics metrics;
    auto l = ComputeFixpoint(b->ground);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(l->chi().num_entries(), static_cast<size_t>(k) + 1);
    EXPECT_GE(snap.counter("chi.rule_firings"), static_cast<uint64_t>(k));
    visits.push_back(snap.counter("chi.rule_visits"));
  }
  EXPECT_GT(visits[0], 0u);
  EXPECT_LE(static_cast<double>(visits[2]),
            2.2 * static_cast<double>(visits[1]))
      << visits[0] << " " << visits[1] << " " << visits[2];
}

// The closure's schedule fixes which seeds it looks up and which bits it
// sets, so the lookup, firing and closure counts of the bench families are
// pinned: a faster closure must keep them exactly.
TEST(Fixpoint, ChiClosureCountsArePinned) {
  struct Case {
    const char* name;
    std::string source;
    uint64_t firings, lookups, closures;
  };
  const Case cases[] = {
      {"subset(10)", relspec_bench::SubsetProgram(10), 30464, 5653, 513},
      {"counter(9)", relspec_bench::BinaryCounterProgram(9), 4608, 1027, 513},
      {"rotation(420)", relspec_bench::RotationProgram(420), 420, 843, 421},
      {"mixed(18)", relspec_bench::MixedProgram(18), 18, 685, 19},
  };
  for (const Case& c : cases) {
    auto b = Build(c.source);
    ASSERT_TRUE(b.ok()) << c.name << ": " << b.status().ToString();
    ScopedMetrics metrics;
    auto l = ComputeFixpoint(b->ground);
    ASSERT_TRUE(l.ok()) << c.name << ": " << l.status().ToString();
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snap.counter("chi.rule_firings"), c.firings) << c.name;
    EXPECT_EQ(snap.counter("chi.lookups"), c.lookups) << c.name;
    EXPECT_EQ(snap.counter("chi.close_node_calls"), c.closures) << c.name;
  }
}

// The chi engine closes child-head rules with one body as one group, whose
// heads it ORs into the child seeds word by word. Each label to depth c+3,
// and the context, must equal the brute-force bounded fixpoint's, computed
// three levels deeper so that the up-propagation into that region is
// complete.
void ExpectLabelsMatchBounded(std::string_view source) {
  auto b = Build(source);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const int depth = b->ground.trunk_depth() + 3;
  auto exact = ComputeFixpoint(b->ground);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  auto bounded = ComputeBoundedFixpoint(b->ground, depth + 3);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  std::vector<Path> level = {Path()};
  for (int d = 0; d <= depth; ++d) {
    std::vector<Path> next;
    for (const Path& path : level) {
      EXPECT_EQ(exact->LabelOf(path), bounded->LabelOf(path))
          << path.ToString(b->program.symbols);
      for (FuncId f : b->ground.alphabet()) next.push_back(path.Extend(f));
    }
    level = std::move(next);
  }
  EXPECT_EQ(exact->ctx(), bounded->ctx());
}

// One body, heads on two symbols, and two heads in one word of one symbol.
TEST(ChiGroups, OneBodyHeadsOnTwoSymbolsAndInOneWord) {
  ExpectLabelsMatchBounded(R"(
    P(0).
    P(t) -> Q(f(t)).
    P(t) -> R(f(t)).
    P(t) -> Q(g(t)).
    Q(t) -> P(f(t)).
    R(t) -> S(g(t)).
  )");
}

// An eps-head rule with the body of a child-head rule stays its own item:
// it fires into the node's label, in rule order, not into a child seed.
TEST(ChiGroups, EpsHeadWithAChildHeadBodyIsNotGrouped) {
  ExpectLabelsMatchBounded(R"(
    P(0).
    P(t) -> Q(t).
    P(t) -> Q(f(t)).
    Q(t) -> P(g(t)).
    Q(t) -> R(f(t)).
  )");
}

// The group {P, B at f} reads an atom that child f's own closure derives
// (A -> B), and B at f adds E to the node, which restarts the closure from
// empty seeds: every group that held before the restart must fire again.
TEST(ChiGroups, GroupReadingADerivedChildAtomRefiresAfterARestart) {
  ExpectLabelsMatchBounded(R"(
    P(0).
    P(t) -> P(g(t)).
    P(t) -> A(f(t)).
    A(t) -> B(t).
    P(t), B(f(t)) -> C(g(t)).
    P(t), B(f(t)) -> D(f(t)).
    B(f(t)) -> E(t).
    E(t) -> F(g(t)).
  )");
}

// An eps-head rule offered during the up pass past the scan position fires
// in that pass, as an ascending scan over the live label would; one behind
// it waits for the pass after the next restart. Closing the seed {P}: with
// the ground rules of the chain P -> Q -> R -> S in chain order, the chain
// closes in one up pass and one restart; in reverse order it needs a
// restart per link. Each restart looks the empty seed and the child seed
// {P} up again: 1 + 4 + 1 + 2 = 8 lookups (the seed, its two closures, the
// empty entry's) against 1 + 8 + 1 + 2 = 12.
TEST(ChiGroups, UpRulesOfferedPastTheScanFireInTheSamePass) {
  std::vector<uint64_t> lookups_by_order(2, 0);
  for (std::string_view chain : {"P(t) -> Q(t).\nQ(t) -> R(t).\nR(t) -> S(t).\n",
                                 "R(t) -> S(t).\nQ(t) -> R(t).\nP(t) -> Q(t).\n"}) {
    auto b = Build("P(t) -> P(f(t)).\n" + std::string(chain));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const GroundProgram& g = b->ground;
    auto rule_with_head = [&](const std::string& pred) {
      const AtomIdx head = g.FindAtom(AtomOf(*b, pred, {}).pred, {});
      for (size_t r = 0; r < g.local_rules().size(); ++r) {
        const GroundRule& rule = g.local_rules()[r];
        if (rule.head_kind == GroundRule::HeadKind::kEps &&
            rule.head_id == head) {
          return r;
        }
      }
      return g.local_rules().size();
    };
    const bool in_chain_order = rule_with_head("Q") < rule_with_head("R") &&
                                rule_with_head("R") < rule_with_head("S");
    DynamicBitset ctx(g.num_ctx());
    ChiEngine chi(&g, &ctx);
    DynamicBitset seed(g.num_atoms());
    seed.Set(g.FindAtom(AtomOf(*b, "P", {}).pred, {}));
    ScopedMetrics metrics;
    const uint32_t entry = chi.EntryFor(seed.words());
    ASSERT_TRUE(chi.ProcessAllOnce().ok());
    EXPECT_EQ(chi.Value(entry).Count(), 4u);
    lookups_by_order[in_chain_order] =
        MetricsRegistry::Global().Snapshot().counter("chi.lookups");
  }
  EXPECT_EQ(lookups_by_order[1], 8u);
  EXPECT_EQ(lookups_by_order[0], 12u);
}

// The chi table keys entries by seed through an id index over a seed arena.
// Thousands of distinct two-word seeds, through many index growths, must
// each get one new id in order, and every repeated lookup must hit it.
TEST(ChiEngine, EntryForGivesEachSeedOneIdThroughTableGrowth) {
  std::string source = "Q(t, x) -> Q(t+1, x).\n";
  for (int i = 0; i < 130; ++i) source += StrFormat("Q(0, c%d).\n", i);
  auto b = Build(source);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const size_t num_atoms = b->ground.num_atoms();
  ASSERT_GE(num_atoms, 130u);
  DynamicBitset ctx(b->ground.num_ctx());
  ChiEngine chi(&b->ground, &ctx);
  // Seed i holds atom 10*j for each set bit j of i: distinct for distinct i,
  // and every seed from 64 on has a bit in the second word.
  constexpr uint32_t kSeeds = 5000;
  auto seed_of = [&](uint32_t i) {
    DynamicBitset seed(num_atoms);
    for (size_t j = 0; j < 13; ++j) {
      if ((i >> j) & 1) seed.Set(10 * j);
    }
    return seed;
  };
  ScopedMetrics metrics;
  for (uint32_t i = 0; i < kSeeds; ++i) {
    ASSERT_EQ(chi.EntryFor(seed_of(i).words()), i);
  }
  ASSERT_EQ(chi.num_entries(), kSeeds);
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t i = kSeeds; i-- > 0;) {
      ASSERT_EQ(chi.EntryFor(seed_of(i).words()), i);
    }
  }
  EXPECT_EQ(chi.num_entries(), kSeeds);
  EXPECT_EQ(chi.Value(4999), seed_of(4999));
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("chi.lookups"), 3u * kSeeds);
  EXPECT_EQ(snap.counter("chi.misses"), kSeeds);
  EXPECT_EQ(snap.counter("chi.hits"), 2u * kSeeds);
  EXPECT_EQ(snap.counter("chi.hits") + snap.counter("chi.misses"),
            snap.counter("chi.lookups"));
}

// Children of a queued entry are unclosed: reading them before the fixpoint
// converged is a bug, except on a frozen engine, which closes the entry.
TEST(ChiEngineDeathTest, QueuedChildrenReadOnlyWhenFrozen) {
  auto b = Build("P(0).\nP(t) -> P(t+1).");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  DynamicBitset ctx(b->ground.num_ctx());
  ChiEngine chi(&b->ground, &ctx);
  uint32_t entry =
      chi.EntryFor(DynamicBitset(b->ground.num_atoms()).words());
  EXPECT_DEATH(chi.Children(entry),
               "read before the fixpoint converged: seed=\\{\\}");
  chi.set_frozen(true);
  EXPECT_EQ(chi.Children(entry).size(), b->ground.num_symbols());
}

}  // namespace
}  // namespace relspec
