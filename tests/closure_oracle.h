// The test-local reference for (B, R): the paper's decision procedure of
// Section 3.5. ClosureOracle interns every cluster's representative and
// merges every equation of R into a [DST80] congruence closure; its
// membership test collects T = {t : P(t, a...) in B} and accepts iff
// (t0, t) in Cl(R) for some t. EquationalSpecification decides Cl(R) by
// the Link walk instead; ExpectWalkAgreesWithOracle holds it to this
// closure on congruence, membership and proofs.

#ifndef RELSPEC_TESTS_CLOSURE_ORACLE_H_
#define RELSPEC_TESTS_CLOSURE_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/cc/congruence_closure.h"
#include "src/core/equational_spec.h"

namespace relspec {
namespace testutil {

class ClosureOracle {
 public:
  explicit ClosureOracle(const EquationalSpecification& eq)
      : spec_(eq.spec()), closure_(&arena_) {
    // Parents precede their children, so each term extends an interned one.
    const LabelGraph& graph = spec_.graph();
    cluster_terms_.resize(graph.num_clusters());
    for (uint32_t i = 0; i < graph.num_clusters(); ++i) {
      const uint32_t parent = graph.parent(i);
      cluster_terms_[i] =
          parent == kInvalidId
              ? arena_.Zero()
              : arena_.Apply(graph.symbol(i), cluster_terms_[parent]);
    }
    for (const Equation& eq : eq.equations()) {
      closure_.Merge(arena_.Apply(eq.symbol, cluster_terms_[eq.cluster]),
                     cluster_terms_[eq.target]);
    }
  }

  /// (a, b) in Cl(R).
  bool Congruent(const Path& a, const Path& b) {
    return closure_.AreCongruent(a.ToTerm(&arena_), b.ToTerm(&arena_));
  }

  /// Membership of the functional fact pred(path, args...).
  bool Holds(const Path& path, PredId pred, std::span<const ConstId> args) {
    const AtomIdx atom = spec_.FindAtom(pred, args);
    if (atom == kInvalidId) return false;
    TermId t0 = path.ToTerm(&arena_);
    // T = {t : P(t, a...) in B}; accept iff (t0, t) in Cl(R) for some t.
    const LabelGraph& graph = spec_.graph();
    for (uint32_t i = 0; i < graph.num_clusters(); ++i) {
      if (!graph.label(i).Test(atom)) continue;
      if (closure_.AreCongruent(t0, cluster_terms_[i])) return true;
    }
    return false;
  }

 private:
  const GraphSpecification& spec_;
  TermArena arena_;
  CongruenceClosure closure_;
  /// cluster_terms_[i]: the representative of cluster i, interned.
  std::vector<TermId> cluster_terms_;
};

/// The first `limit` paths over `alphabet` in shortlex order, up to depth
/// `max_depth`.
inline std::vector<Path> ShortlexPaths(const std::vector<FuncId>& alphabet,
                                       int max_depth, size_t limit) {
  std::vector<Path> out = {Path::Zero()};
  for (size_t i = 0; i < out.size() && out.size() < limit; ++i) {
    if (out[i].depth() == max_depth) break;
    for (FuncId f : alphabet) {
      if (out.size() == limit) break;
      out.push_back(out[i].Extend(f));
    }
  }
  return out;
}

/// Empty when `proof` proves a == b from the equations of R: a chain from
/// a to b whose every step is an equation of R (`in_r`), lifted through the
/// same outer symbols on both sides. Otherwise what is wrong with it.
inline std::string ProofDefect(
    const EquationalSpecification& eq,
    const std::set<std::tuple<uint32_t, FuncId, uint32_t>>& in_r,
    const Path& a, const Path& b, const CongruenceProof& proof) {
  if (proof.lhs != a || proof.rhs != b) return "proof of other terms";
  if (proof.steps.empty()) return a == b ? "" : "empty proof of a != b";
  if (proof.steps.front().lhs != a) return "chain does not start at a";
  if (proof.steps.back().rhs != b) return "chain does not end at b";
  for (size_t i = 0; i < proof.steps.size(); ++i) {
    const CongruenceStep& step = proof.steps[i];
    if (i > 0 && proof.steps[i - 1].rhs != step.lhs) {
      return "step " + std::to_string(i) + " does not start where " +
             "the one before it ends";
    }
    const Equation& e = step.equation;
    if (in_r.count({e.cluster, e.symbol, e.target}) == 0) {
      return "step " + std::to_string(i) + " is not an equation of R";
    }
    const auto [t1, t2] = eq.EquationPaths(e);
    const std::vector<FuncId>& l = step.lhs.symbols();
    const std::vector<FuncId>& r = step.rhs.symbols();
    const size_t k = static_cast<size_t>(step.lifted);
    if (k > l.size() || k > r.size() ||
        !std::equal(l.end() - k, l.end(), r.end() - k, r.end())) {
      return "step " + std::to_string(i) + " lifts its sides differently";
    }
    const Path inner_l(std::vector<FuncId>(l.begin(), l.end() - k));
    const Path inner_r(std::vector<FuncId>(r.begin(), r.end() - k));
    if (!(inner_l == t1 && inner_r == t2) &&
        !(inner_l == t2 && inner_r == t1)) {
      return "step " + std::to_string(i) + " is not its equation, lifted";
    }
  }
  return "";
}

/// Holds the walk to the [DST80] oracle on the first `limit` paths over the
/// alphabet in shortlex order, up to depth frontier+1: Congruent equals the
/// closure on every pair, ExplainCongruence proves every congruent pair
/// from R and refuses the others, and the paper's membership equals
/// spec().Holds on every path and dictionary atom. Stops at the first
/// disagreement, naming `label`.
inline void ExpectWalkAgreesWithOracle(const EquationalSpecification& eq,
                                       const std::string& label,
                                       size_t limit = 64) {
  const GraphSpecification& spec = eq.spec();
  ClosureOracle oracle(eq);
  std::set<std::tuple<uint32_t, FuncId, uint32_t>> in_r;
  for (const Equation& e : eq.equations()) {
    in_r.insert({e.cluster, e.symbol, e.target});
  }
  const std::vector<Path> paths = ShortlexPaths(
      spec.alphabet(), spec.graph().frontier_depth() + 1, limit);
  const SymbolTable& symbols = spec.symbols();
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i; j < paths.size(); ++j) {
      const Path& a = paths[i];
      const Path& b = paths[j];
      const bool want = oracle.Congruent(a, b);
      const std::string pair =
          label + " (" + a.ToString(symbols) + ", " + b.ToString(symbols) + ")";
      if (eq.Congruent(a, b) != want) {
        ADD_FAILURE() << pair << ": walk says " << !want << ", closure "
                      << want;
        return;
      }
      auto proof = eq.ExplainCongruence(a, b);
      if (proof.ok() != want) {
        ADD_FAILURE() << pair << ": " << proof.status().ToString();
        return;
      }
      if (!want) continue;
      const std::string defect = ProofDefect(eq, in_r, a, b, *proof);
      if (!defect.empty()) {
        ADD_FAILURE() << pair << ": " << defect << "\n"
                      << proof->ToString(symbols);
        return;
      }
    }
  }
  for (const Path& path : paths) {
    for (const AtomRef atom : spec.atom_dictionary()) {
      if (oracle.Holds(path, atom.pred, atom.args) !=
          spec.Holds(path, atom.pred, atom.args)) {
        ADD_FAILURE() << label << " " << path.ToString(symbols)
                      << ": the paper's membership and spec().Holds differ";
        return;
      }
    }
  }
}

}  // namespace testutil
}  // namespace relspec

#endif  // RELSPEC_TESTS_CLOSURE_ORACLE_H_
