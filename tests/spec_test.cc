// Unit tests for specifications: Algorithm Q's label graph, the graph
// specification (B, F), the equational specification (B, R), and the
// quotient-model certificate.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/core/engine.h"
#include "src/core/verify.h"
#include "src/parser/parser.h"
#include "src/core/snapshot.h"
#include "tests/closure_oracle.h"
#include "tests/random_program.h"
#include "tests/replay_fixpoint.h"

namespace relspec {
namespace {

using relspec_bench::BinaryCounterProgram;

constexpr const char* kMeets = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

Path NatPath(const FunctionalDatabase& db, int n) {
  FuncId succ = *db.program().symbols.FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(n), succ);
  return Path(std::move(syms));
}

TEST(LabelGraph, ClusterWalkAgreesWithLabeling) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const LabelGraph& graph = (*db)->label_graph();
  auto replay = testutil::ReplayFixpoint(**db);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  for (int n = 0; n <= 30; ++n) {
    Path p = NatPath(**db, n);
    uint32_t cl = graph.ClusterOf(p);
    ASSERT_NE(cl, kInvalidId);
    EXPECT_EQ(graph.label(cl), replay->labeling.LabelOf(p)) << n;
  }
}

TEST(LabelGraph, ScopesSatisfyLemmas) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  const LabelGraph& graph = (*db)->label_graph();
  // Lemma 3.1: scope_~ <= 2^gsize; here gsize-ish = 2 atoms -> <= 4.
  EXPECT_LE(graph.EquivalenceScope(), 4u);
  // Lemma 3.2: the congruence scope is finite and >= the equivalence scope.
  EXPECT_GE(graph.CongruenceScope(), graph.EquivalenceScope());
  EXPECT_GT(graph.num_potential(), 0u);
}

TEST(LabelGraph, ClusterCapEnforced) {
  EngineOptions options;
  options.graph.max_clusters = 1;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  EXPECT_TRUE(db.status().IsResourceExhausted());
}

// Trunk path i (shortlex) is cluster i and its f_s child cluster k*i+1+s;
// the boundary entries are the last trunk layer's edges, and the Link walk
// from cluster 0 reaches every trunk and frontier path's cluster.
TEST(LabelGraph, TrunkIsAHeapAndBoundaryEntriesAreItsFrontierEdges) {
  constexpr const char* kDeepTrunk = R"(
    P(a(b(0))).  Q(b(a(0))).
    P(t) -> Q(a(t)).
    Q(t) -> P(b(t)).
  )";
  for (bool merge : {false, true}) {
    EngineOptions options;
    options.graph.merge_trunk_frontier = merge;
    auto db = FunctionalDatabase::FromSource(kDeepTrunk, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const LabelGraph& graph = (*db)->label_graph();
    ASSERT_EQ(graph.trunk_depth(), 2);
    const std::vector<FuncId>& alphabet = graph.alphabet();
    ASSERT_EQ(alphabet.size(), 2u);
    std::vector<Path> layer = {Path::Zero()};
    std::vector<Path> trunk;
    for (int depth = 0; depth < graph.frontier_depth(); ++depth) {
      std::vector<Path> next;
      for (const Path& p : layer) {
        trunk.push_back(p);
        for (FuncId f : alphabet) next.push_back(p.Extend(f));
      }
      layer = std::move(next);
    }
    for (uint32_t i = 0; i < trunk.size(); ++i) {
      EXPECT_TRUE(graph.is_trunk(i)) << i;
      EXPECT_EQ(graph.Representative(i), trunk[i]) << i;
      EXPECT_EQ(graph.ClusterOf(trunk[i]), i) << i;
    }
    EXPECT_FALSE(graph.is_trunk(static_cast<uint32_t>(trunk.size())));
    std::vector<std::pair<Path, uint32_t>> entries;
    graph.ForEachBoundaryEntry(
        [&](std::span<const FuncId> path, uint32_t cluster) {
          entries.emplace_back(Path(path), cluster);
        });
    ASSERT_EQ(entries.size(), layer.size()) << "merge=" << merge;
    for (size_t j = 0; j < layer.size(); ++j) {
      EXPECT_EQ(entries[j].first, layer[j]) << j;
      EXPECT_EQ(entries[j].second, graph.ClusterOf(layer[j])) << j;
    }
  }
}

// HoldsGlobal probes the globals' index instead of scanning them: on a
// 420-team rotation every Rotate fact holds, a reversed pair (no fact) does
// not, and neither does a fact naming a constant the table lacks.
TEST(GraphSpec, HoldsGlobalFindsEveryGlobalOfRotation420) {
  constexpr int kTeams = 420;
  auto db =
      FunctionalDatabase::FromSource(relspec_bench::RotationProgram(kTeams));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const GraphSpecification& spec = *(*db)->spec();
  const SymbolTable& symbols = spec.symbols();
  const PredId rotate = *symbols.FindPredicate("Rotate");
  ASSERT_EQ(spec.globals().size(), static_cast<size_t>(kTeams));
  for (const auto& [pred, args] : spec.globals()) {
    EXPECT_TRUE(spec.HoldsGlobal(pred, args));
  }
  auto team = [&](int i) {
    return *symbols.FindConstant("m" + std::to_string(i % kTeams));
  };
  for (int i = 0; i < kTeams; ++i) {
    EXPECT_TRUE(spec.HoldsGlobal(
        rotate, std::vector<ConstId>{team(i), team(i + 1)}))
        << i;
    EXPECT_FALSE(spec.HoldsGlobal(
        rotate, std::vector<ConstId>{team(i + 1), team(i)}))
        << i;
  }
  const ConstId unknown = static_cast<ConstId>(symbols.num_constants());
  EXPECT_FALSE(
      spec.HoldsGlobal(rotate, std::vector<ConstId>{team(0), unknown}));
  auto q = ParseQuery("? Rotate(m0, nobody).", symbols);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto holds = spec.HoldsFact(*q);
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_FALSE(*holds);
}

TEST(GraphSpec, SelfContainedMembership) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  PredId meets = *spec->symbols().FindPredicate("Meets");
  ConstId tony = *spec->symbols().FindConstant("Tony");
  ConstId jan = *spec->symbols().FindConstant("Jan");
  for (int n = 0; n <= 20; ++n) {
    EXPECT_EQ(spec->Holds(NatPath(**db, n), meets, std::vector<ConstId>{tony}),
              n % 2 == 0) << n;
    EXPECT_EQ(spec->Holds(NatPath(**db, n), meets, std::vector<ConstId>{jan}),
              n % 2 == 1) << n;
  }
  // Non-functional relations are part of B.
  PredId next = *spec->symbols().FindPredicate("Next");
  EXPECT_TRUE(spec->HoldsGlobal(next, std::vector<ConstId>{tony, jan}));
  EXPECT_FALSE(spec->HoldsGlobal(next, std::vector<ConstId>{tony, tony}));
}

TEST(GraphSpec, SlicesMatchPaperExample) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  // Slice of day 0: {Meets(.,Tony)}; day 1: {Meets(.,Jan)}.
  auto slice0 = spec->SliceOf(NatPath(**db, 0));
  auto slice1 = spec->SliceOf(NatPath(**db, 1));
  ASSERT_EQ(slice0.size(), 1u);
  ASSERT_EQ(slice1.size(), 1u);
  EXPECT_EQ(spec->symbols().constant_name(slice0[0].args[0]), "Tony");
  EXPECT_EQ(spec->symbols().constant_name(slice1[0].args[0]), "Jan");
  EXPECT_GT(spec->num_slice_tuples(), 0u);
  EXPECT_GT(spec->num_edges(), 0u);
  EXPECT_FALSE(spec->ToString().empty());
}

TEST(GraphSpec, UnknownTermsAndAtomsAreFalse) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  PredId meets = *spec->symbols().FindPredicate("Meets");
  // A constant the program never mentions.
  EXPECT_FALSE(
      spec->Holds(NatPath(**db, 0), meets, std::vector<ConstId>{9999}));
  // A path through an unknown symbol.
  SymbolTable copy = spec->symbols();
  (void)copy;
  EXPECT_TRUE(spec->SliceOf(Path({kInvalidId - 1})).empty());
}

// Algorithm Q runs over states: each Active cluster's children are the
// recorded children of its chi entry, so a converged labeling serves the
// whole graph with no closure, and no term is looked up or interned by path.
TEST(LabelGraph, ConvergedGraphMakesNoClosure) {
  auto db = FunctionalDatabase::FromSource(BinaryCounterProgram(9));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto labeling = ComputeFixpoint((*db)->ground());
  ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
  const size_t terms = labeling->terms().size();
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto graph = BuildLabelGraph(&*labeling);
  EnableMetrics(false);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().Reset();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_clusters(), 513u);
  EXPECT_EQ(snap.counter("chi.close_node_calls"), 0u);
  EXPECT_EQ(labeling->terms().size(), terms);
}

// Checks every successor edge against the labeling's own per-path walk: the
// f-successor of cluster C has the label of f(representative of C). In a
// truncated graph an edge may lead to the unknown sink instead, but a
// non-trunk cluster's edge only does so when no explored cluster has the
// child's label. `options` are the ones db was built with.
void ExpectSuccessorsMatchLabeling(FunctionalDatabase* db,
                                   const EngineOptions& options) {
  const LabelGraph& graph = db->label_graph();
  auto replay = testutil::ReplayFixpoint(*db, options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  Labeling& labeling = replay->labeling;
  const std::vector<FuncId>& alphabet = db->ground().alphabet();
  std::unordered_set<DynamicBitset, DynamicBitsetHash> explored;
  for (uint32_t ci = 0; ci < graph.num_clusters(); ++ci) {
    if (!graph.is_trunk(ci) && ci != graph.unknown_cluster()) {
      explored.insert(DynamicBitset(graph.label(ci)));
    }
  }
  for (uint32_t ci = 0; ci < graph.num_clusters(); ++ci) {
    if (ci == graph.unknown_cluster()) continue;
    ASSERT_EQ(graph.successors(ci).size(), alphabet.size());
    for (SymIdx s = 0; s < alphabet.size(); ++s) {
      uint32_t succ = graph.successors(ci)[s];
      ASSERT_LT(succ, graph.num_clusters()) << "cluster " << ci;
      // A copy: a boundary label points into the chi table, which a later
      // LabelOf may grow.
      DynamicBitset want(
          labeling.LabelOf(graph.Representative(ci).Extend(alphabet[s])));
      if (succ == graph.unknown_cluster()) {
        EXPECT_TRUE(graph.truncated());
        if (!graph.is_trunk(ci)) {
          EXPECT_EQ(explored.count(want), 0u) << "cluster " << ci;
        }
        continue;
      }
      EXPECT_EQ(graph.label(succ), want)
          << "cluster " << ci << " symbol " << s;
    }
  }
}

TEST(LabelGraph, SuccessorsMatchPerPathLabels) {
  for (int seed = 0; seed < 25; ++seed) {
    for (bool rich : {false, true}) {
      std::mt19937 rng(static_cast<unsigned>(seed) * 2654435761u + 11u);
      std::string source = rich ? testutil::RandomProgramRich(&rng)
                                : testutil::RandomProgram(&rng);
      for (bool merge : {false, true}) {
        SCOPED_TRACE(source);
        SCOPED_TRACE(merge ? "merge_trunk_frontier" : "c+1 frontier");
        EngineOptions options;
        options.graph.merge_trunk_frontier = merge;
        auto db = FunctionalDatabase::FromSource(source, options);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        ExpectSuccessorsMatchLabeling(db->get(), options);
      }
    }
  }
}

TEST(LabelGraph, TruncatedSuccessorsMatchPerPathLabels) {
  // A governor breach in the fixpoint freezes chi; Algorithm Q then runs on
  // the partial labeling and stops at the same budget.
  std::vector<std::string> governed = testutil::ReclosurePrograms();
  governed.push_back(kMeets);
  governed.push_back(BinaryCounterProgram(5));
  for (const std::string& source : governed) {
    for (uint64_t max_nodes : {2u, 3u}) {
      SCOPED_TRACE(source);
      GovernorLimits limits;
      limits.max_nodes = max_nodes;
      ResourceGovernor governor(limits);
      EngineOptions options;
      options.governor = &governor;
      options.allow_partial = true;
      auto db = FunctionalDatabase::FromSource(source, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)->label_graph().truncated());
      ExpectSuccessorsMatchLabeling(db->get(), options);
    }
  }
  // A cluster cap over a converged labeling: the BFS stops with children
  // still queued, and those whose state has a cluster keep their edge.
  std::vector<std::string> sources = {BinaryCounterProgram(6)};
  for (int seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed) * 2654435761u + 11u);
    sources.push_back(testutil::RandomProgramRich(&rng));
  }
  for (const std::string& source : sources) {
    for (size_t max_clusters : {3u, 6u, 20u}) {
      for (bool merge : {false, true}) {
        SCOPED_TRACE(source);
        EngineOptions options;
        options.graph.max_clusters = max_clusters;
        options.graph.merge_trunk_frontier = merge;
        options.allow_partial = true;
        auto db = FunctionalDatabase::FromSource(source, options);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        auto replay = testutil::ReplayFixpoint(**db, options);
        ASSERT_TRUE(replay.ok()) << replay.status().ToString();
        EXPECT_FALSE(replay->labeling.truncated());
        ExpectSuccessorsMatchLabeling(db->get(), options);
      }
    }
  }
}

// The boundary terms f(0) and g(0) have different seeds, {A} and {B}, and
// both close to {A, B}: two chi entries, one value.
constexpr const char* kTwoSeedsOneValue = R"(
  Start(0).
  Start(t) -> A(f(t)).
  Start(t) -> B(g(t)).
  A(t) -> B(t).
  B(t) -> A(t).
)";

// Algorithm Q finds a term's cluster by its chi entry once it has seen that
// entry, and by the entry's value otherwise: two entries with different
// seeds and equal values must share one cluster, in either frontier mode.
TEST(LabelGraph, EntriesWithEqualValuesShareACluster) {
  for (bool merge : {false, true}) {
    SCOPED_TRACE(merge ? "merge_trunk_frontier" : "c+1 frontier");
    EngineOptions options;
    options.graph.merge_trunk_frontier = merge;
    auto db = FunctionalDatabase::FromSource(kTwoSeedsOneValue, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto replay = testutil::ReplayFixpoint(**db, options);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    Labeling& labeling = replay->labeling;
    const SymbolTable& symbols = (*db)->program().symbols;
    const Path f(std::vector<FuncId>{*symbols.FindFunction("f")});
    const Path g(std::vector<FuncId>{*symbols.FindFunction("g")});
    const uint32_t entry_f = labeling.BoundaryEntry(f.symbols());
    const uint32_t entry_g = labeling.BoundaryEntry(g.symbols());
    ASSERT_NE(entry_f, entry_g);
    EXPECT_EQ(labeling.chi().Value(entry_f), labeling.chi().Value(entry_g));
    EXPECT_EQ(labeling.chi().Value(entry_f).Count(), 2u);

    const LabelGraph& graph = (*db)->label_graph();
    const uint32_t cluster = graph.ClusterOf(f);
    EXPECT_FALSE(graph.is_trunk(cluster));
    EXPECT_EQ(graph.ClusterOf(g), cluster);
    // The root, the {A, B} state and the empty state below it.
    EXPECT_EQ(graph.num_clusters(), 3u);
    EXPECT_EQ(graph.EquivalenceScope(), 3u);
    ExpectSuccessorsMatchLabeling(db->get(), options);
  }
}

// The same program under a node budget that only the fixpoint sees: the
// breach freezes the chi engine with entries still queued, so Algorithm Q's
// traversal closes them on first read and creates entries as it goes. Every
// edge must still lead to the cluster of the child's label, and no two
// traversal clusters may share a label.
TEST(LabelGraph, LazyClosesDuringTheTraversalKeepEdgesExact) {
  auto db = FunctionalDatabase::FromSource(kTwoSeedsOneValue);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const GroundProgram& ground = (*db)->ground();
  bool grew = false;
  for (uint64_t max_nodes : {1u, 2u, 3u}) {
    for (bool merge : {false, true}) {
      SCOPED_TRACE(StrFormat("max_nodes=%llu merge=%d",
                             static_cast<unsigned long long>(max_nodes),
                             merge ? 1 : 0));
      GovernorLimits limits;
      limits.max_nodes = max_nodes;
      ResourceGovernor governor(limits);
      FixpointOptions fixpoint;
      fixpoint.governor = &governor;
      fixpoint.allow_partial = true;
      auto labeling = ComputeFixpoint(ground, fixpoint);
      ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
      ASSERT_TRUE(labeling->truncated());
      const size_t entries_before = labeling->chi().num_entries();
      LabelGraphOptions options;
      options.merge_trunk_frontier = merge;
      options.allow_partial = true;
      auto graph = BuildLabelGraph(&*labeling, options);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      EXPECT_TRUE(graph->truncated());
      grew |= labeling->chi().num_entries() > entries_before;
      std::unordered_set<DynamicBitset, DynamicBitsetHash> labels;
      for (uint32_t ci = 0; ci < graph->num_clusters(); ++ci) {
        if (graph->is_trunk(ci) || ci == graph->unknown_cluster()) continue;
        EXPECT_TRUE(labels.insert(DynamicBitset(graph->label(ci))).second)
            << "cluster " << ci;
      }
      const std::vector<FuncId>& alphabet = graph->alphabet();
      for (uint32_t ci = 0; ci < graph->num_clusters(); ++ci) {
        if (ci == graph->unknown_cluster()) continue;
        for (SymIdx s = 0; s < alphabet.size(); ++s) {
          const uint32_t succ = graph->SuccessorOf(ci, s);
          ASSERT_LT(succ, graph->num_clusters());
          if (succ == graph->unknown_cluster()) continue;
          DynamicBitset want(
              labeling->LabelOf(graph->Representative(ci).Extend(alphabet[s])));
          EXPECT_EQ(graph->label(succ), want)
              << "cluster " << ci << " symbol " << s;
        }
      }
    }
  }
  // At least one budget leaves entries for the traversal to create.
  EXPECT_TRUE(grew);
}

// ---------- equational specification ----------

TEST(EquationalSpec, AgreesWithGraphSpecEverywhere) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto gspec = (*db)->BuildGraphSpec();
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(gspec.ok());
  ASSERT_TRUE(espec.ok());
  PredId meets = *gspec->symbols().FindPredicate("Meets");
  ConstId tony = *gspec->symbols().FindConstant("Tony");
  // The paper's (B, R) membership: congruence closure against T.
  testutil::ClosureOracle oracle(*espec);
  for (int n = 0; n <= 25; ++n) {
    Path p = NatPath(**db, n);
    EXPECT_EQ(oracle.Holds(p, meets, std::vector<ConstId>{tony}),
              gspec->Holds(p, meets, std::vector<ConstId>{tony}))
        << n;
  }
}

TEST(EquationalSpec, EquationsRelateEqualStateTerms) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  EXPECT_GT(espec->num_equations(), 0u);
  // Every equation's two sides must be state-equivalent in the labeling.
  auto replay = testutil::ReplayFixpoint(**db);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  Labeling& labeling = replay->labeling;
  for (const Equation& eq : espec->equations()) {
    const auto [t1, t2] = espec->EquationPaths(eq);
    EXPECT_EQ(labeling.LabelOf(t1), labeling.LabelOf(t2));
  }
  EXPECT_FALSE(espec->ToString().empty());
}

// (B, R) lists the frontier layer's equations in shortlex order of their
// terms, so its bytes depend on no hash map's iteration order. On the
// 3-place mixed program an unordered_map<Path> order differs from shortlex.
TEST(EquationalSpec, FrontierEquationsComeInShortlexOrder) {
  auto db = FunctionalDatabase::FromSource(relspec_bench::MixedProgram(3));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok()) << espec.status().ToString();
  std::vector<Path> frontier;
  for (const Equation& eq : espec->equations()) {
    if (espec->spec().graph().is_trunk(eq.cluster)) {
      frontier.push_back(espec->EquationPaths(eq).first);
    }
  }
  ASSERT_GT(frontier.size(), 2u);
  EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
}

TEST(EquationalSpec, CongruentRespectsParity) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  // All even days >= frontier are congruent; even vs odd never.
  EXPECT_TRUE(espec->Congruent(NatPath(**db, 1), NatPath(**db, 3)));
  EXPECT_TRUE(espec->Congruent(NatPath(**db, 2), NatPath(**db, 8)));
  EXPECT_FALSE(espec->Congruent(NatPath(**db, 1), NatPath(**db, 2)));
}

TEST(EquationalSpec, GraphSpecMoreEconomicalOnWideStates) {
  // Section 4's remark: when B is large, the graph spec's successor table is
  // a more economical encoding than R. We check both exist and report sizes.
  auto db = FunctionalDatabase::FromSource(R"(
    P(0, a). P(0, b). P(0, c). P(0, d).
    P(t, x) -> P(t+1, x).
  )");
  ASSERT_TRUE(db.ok());
  auto gspec = (*db)->BuildGraphSpec();
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(gspec.ok());
  ASSERT_TRUE(espec.ok());
  EXPECT_GT(gspec->num_slice_tuples(), 0u);
  EXPECT_GT(espec->num_equations(), 0u);
}

TEST(EquationalSpec, ExplainCongruenceUsesR) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  // Day 8 ~ day 2: the proof uses only equations of R (lifted).
  auto proof = espec->ExplainCongruence(NatPath(**db, 8), NatPath(**db, 2));
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_GT(proof->steps.size(), 0u);
  auto text = espec->ExplainCongruenceText(NatPath(**db, 8), NatPath(**db, 2));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("[asserted]"), std::string::npos);
  // Non-congruent terms: NotFound.
  EXPECT_TRUE(espec->ExplainCongruence(NatPath(**db, 1), NatPath(**db, 2))
                  .status()
                  .IsNotFound());
}

// An equation of R is its own proof: one asserted step.
TEST(EquationalSpec, ProofOfAnEquationIsOneAssertedStep) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  ASSERT_FALSE(espec->equations().empty());
  for (const Equation& eq : espec->equations()) {
    const auto [t1, t2] = espec->EquationPaths(eq);
    auto proof = espec->ExplainCongruence(t1, t2);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    ASSERT_EQ(proof->steps.size(), 1u);
    const CongruenceStep& step = proof->steps[0];
    EXPECT_EQ(step.lifted, 0);
    EXPECT_EQ(step.lhs, t1);
    EXPECT_EQ(step.rhs, t2);
    EXPECT_EQ(step.equation.cluster, eq.cluster);
    EXPECT_EQ(step.equation.symbol, eq.symbol);
    EXPECT_EQ(step.equation.target, eq.target);
  }
}

// A term equals itself with no step, even one whose walk rewrites.
TEST(EquationalSpec, ProofOfATermWithItselfIsEmpty) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  for (int n : {0, 3, 8}) {
    auto proof = espec->ExplainCongruence(NatPath(**db, n), NatPath(**db, n));
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_TRUE(proof->steps.empty()) << n;
  }
}

// meets's R is the one equation +1(+1(+1(0))) == +1(0). Day 8 reaches
// day 2 by lifting it three times, through 5, 3 and 1 outer symbols, each
// step starting where the one before it ends.
TEST(EquationalSpec, ProofLiftsEquationsThroughOuterSymbols) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  ASSERT_EQ(espec->num_equations(), 1u);
  const Path a = NatPath(**db, 8);
  const Path b = NatPath(**db, 2);
  auto proof = espec->ExplainCongruence(a, b);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_EQ(proof->steps.size(), 3u);
  const int lifted[] = {5, 3, 1};
  for (size_t i = 0; i < 3; ++i) {
    const CongruenceStep& step = proof->steps[i];
    EXPECT_EQ(step.lifted, lifted[i]);
    EXPECT_EQ(step.lhs, i == 0 ? a : proof->steps[i - 1].rhs);
    EXPECT_EQ(step.lhs, NatPath(**db, 8 - 2 * static_cast<int>(i)));
  }
  EXPECT_EQ(proof->steps.back().rhs, b);
  const std::string text = proof->ToString(espec->spec().symbols());
  EXPECT_NE(text.find("[congruence]"), std::string::npos);
  EXPECT_NE(text.find("[asserted]"), std::string::npos);
}

// (B, R) is R over the engine's (B, F): it shares that spec, not a copy.
TEST(EquationalSpec, SharesTheEnginesPrimaryDatabase) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  EXPECT_EQ(&espec->spec(), (*db)->spec().get());
}

// The shared (B, F) lives as long as the (B, R) does: an update replaces
// the engine's spec and the engine goes away, and the (B, R) built before
// both still answers, and serializes, as it did.
TEST(EquationalSpec, OutlivesItsEngineAndUpdates) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  const std::string bytes = Snapshot::Serialize(*espec);
  const PredId meets = *(*db)->program().symbols.FindPredicate("Meets");
  const ConstId tony = *(*db)->program().symbols.FindConstant("Tony");
  const ConstId jan = *(*db)->program().symbols.FindConstant("Jan");
  std::vector<Path> days;
  for (int n = 0; n <= 9; ++n) days.push_back(NatPath(**db, n));

  auto stats = (*db)->ApplyDeltaText("+ Meets(0, Jan).\n- Meets(0, Tony).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_NE((*db)->spec().get(), &espec->spec());
  db->reset();

  // R and B are first read here, after the engine is gone.
  for (int n = 0; n <= 9; ++n) {
    EXPECT_EQ(espec->spec().Holds(days[n], meets, std::vector<ConstId>{tony}),
              n % 2 == 0) << n;
    EXPECT_EQ(espec->spec().Holds(days[n], meets, std::vector<ConstId>{jan}),
              n % 2 == 1) << n;
  }
  EXPECT_TRUE(espec->Congruent(days[1], days[3]));
  EXPECT_TRUE(espec->Congruent(days[2], days[8]));
  EXPECT_FALSE(espec->Congruent(days[1], days[2]));
  EXPECT_EQ(Snapshot::Serialize(*espec), bytes);
}

// ---------- certificates ----------

TEST(Verify, AcceptsAllWorkedExamples) {
  for (const char* source : {
           kMeets,
           "Even(0).\nEven(t) -> Even(t+2).",
           "P(a).\nP(b).\nP(x) -> Member(ext(0,x), x).\n"
           "P(y), Member(s,x) -> Member(ext(s,y), y).\n"
           "P(y), Member(s,x) -> Member(ext(s,y), x).",
       }) {
    auto db = FunctionalDatabase::FromSource(source);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->Verify().ok()) << source;
  }
}

// Clears bit `atom` of cluster c's label, writing through the const view.
void ResetLabelBit(const LabelGraph& graph, uint32_t c, size_t atom) {
  uint64_t* words = const_cast<uint64_t*>(graph.label(c).words().data());
  words[atom / 64] &= ~(uint64_t{1} << (atom % 64));
}

// Each tampered copy of a built spec breaks the model somewhere; Verify must
// notice, reading the context from the model alone. The copies are not
// const, so writing through the const accessors is well defined.
TEST(Verify, DetectsTamperedGraph) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  // Corrupt a copy of the spec: clear a label.
  GraphSpecification spec = *(*db)->spec();
  ASSERT_TRUE(VerifyQuotientModel(spec, (*db)->ground()).ok());
  const LabelGraph& graph = spec.graph();
  bool corrupted = false;
  for (uint32_t c = 0; c < graph.num_clusters() && !corrupted; ++c) {
    if (graph.label(c).Any()) {
      for (size_t atom : graph.label(c).ToVector()) {
        ResetLabelBit(graph, c, atom);
      }
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(VerifyQuotientModel(spec, (*db)->ground()).ok());
}

TEST(Verify, DetectsDroppedGlobal) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  GraphSpecification spec = *(*db)->spec();
  auto& globals = const_cast<AtomTable&>(spec.globals());
  ASSERT_FALSE(globals.empty());
  AtomTable rest;
  for (uint32_t i = 1; i < globals.size(); ++i) {
    rest.Intern(globals[i].pred, globals[i].args);
  }
  globals = rest;
  EXPECT_FALSE(VerifyQuotientModel(spec, (*db)->ground()).ok());
}

TEST(Verify, DetectsClearedPinnedTrunkBit) {
  // Even(4) is a pinned proposition: Done(a) reads it from the trunk.
  auto db = FunctionalDatabase::FromSource(
      "Even(0).\nEven(t) -> Even(t+2).\nEven(4) -> Done(a).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  GraphSpecification spec = *(*db)->spec();
  ASSERT_TRUE(VerifyQuotientModel(spec, (*db)->ground()).ok());
  const GroundProgram& ground = (*db)->ground();
  bool cleared = false;
  for (CtxIdx i = 0; i < ground.num_ctx() && !cleared; ++i) {
    const CtxProp prop = ground.ctx_prop(i);
    if (prop.kind != CtxProp::Kind::kPinned) continue;
    const uint32_t c = spec.graph().ClusterOf(prop.path);
    ASSERT_NE(c, kInvalidId);
    ASSERT_TRUE(spec.graph().is_trunk(c));
    if (!spec.graph().label(c).Test(prop.atom)) continue;
    ResetLabelBit(spec.graph(), c, prop.atom);
    cleared = true;
  }
  ASSERT_TRUE(cleared);
  EXPECT_FALSE(VerifyQuotientModel(spec, (*db)->ground()).ok());
}

TEST(Verify, DetectsClearedLocalRuleHead) {
  // Beyond the trunk every label bit is the head of a local rule: clear
  // one on one cluster and that rule is no longer closed there.
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  GraphSpecification spec = *(*db)->spec();
  const LabelGraph& graph = spec.graph();
  bool cleared = false;
  for (uint32_t c = 0; c < graph.num_clusters() && !cleared; ++c) {
    if (graph.is_trunk(c) || !graph.label(c).Any()) continue;
    ResetLabelBit(graph, c, graph.label(c).ToVector().front());
    cleared = true;
  }
  ASSERT_TRUE(cleared);
  Status verified = VerifyQuotientModel(spec, (*db)->ground());
  EXPECT_FALSE(verified.ok());
  EXPECT_NE(verified.message().find("local rule not closed"),
            std::string::npos)
      << verified.ToString();
}

// The certificate needs no engine state but the ground program: a spec
// loaded from a snapshot passes it for every example program that
// converges; a budget-truncated one is refused by the engine.
TEST(Verify, AcceptsSnapshotLoadedSpecsOfExamples) {
  size_t verified = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(RELSPEC_SOURCE_DIR) + "/examples/programs")) {
    if (entry.path().extension() != ".rsp") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = Parse(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    GovernorLimits limits;
    limits.max_nodes = 20000;
    ResourceGovernor governor(limits);
    EngineOptions options;
    options.governor = &governor;
    options.allow_partial = true;
    auto db = FunctionalDatabase::FromProgram(parsed->program, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    if ((*db)->truncated()) {
      EXPECT_TRUE((*db)->Verify().IsFailedPrecondition());
      continue;
    }
    auto loaded = Snapshot::ParseGraphSpec(Snapshot::Serialize(*(*db)->spec()));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(VerifyQuotientModel(*loaded, (*db)->ground()).ok());
    ++verified;
  }
  EXPECT_GE(verified, 4u);
}

}  // namespace
}  // namespace relspec
