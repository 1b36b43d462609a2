// EquationalSpecification: the paper's (B, R) — primary database + ground
// equations (Section 3.5).
//
// R contains the pairs (t1, t2) with Active(t1), Potential(t2) and t1 ~ t2
// extracted from Algorithm Q. Cl(R) — the reflexive, symmetric, transitive,
// congruent closure of R — equals the state congruence beyond the trunk. The
// paper decides a membership test P(t0, a...) by collecting
// T = {t : P(t, a...) in B} and deciding (t0, t) in Cl(R) with the
// congruence closure procedure [DST80].
//
// B is not copied: the specification holds the (B, F) it was built from
// through a shared pointer and keeps only R. Both halves of an equation are
// cluster terms: t1 is f(representative of a cluster C) and t2 the
// representative of the cluster D that the non-tree edge (C, f) leads to,
// so R is stored as (cluster, symbol, cluster) triples over the
// representatives' BFS tree (label_graph.h).
//
// Oriented towards the representatives, R is a convergent ground rewrite
// system: its left sides are pairwise distinct, their proper subterms are
// representatives (irreducible), and each rewrite moves down in shortlex
// order. So two terms are congruent iff their normal forms are equal, and a
// term's normal form is its Link walk from cluster 0 (Theorem 3.1): a tree
// edge keeps the term as written, a non-tree edge rewrites by one equation
// lifted through the symbols outside it. Congruent compares two walks, and
// ExplainCongruence chains their rewrites; neither builds a closure, and
// both take time and memory in the terms asked, not in R. Membership is
// spec().Holds, which reads the label of the walk's cluster: the one
// representative the term can be congruent to. [DST80] closure over R
// stays only as the test oracle the walk is checked against
// (tests/closure_oracle.h).

#ifndef RELSPEC_CORE_EQUATIONAL_SPEC_H_
#define RELSPEC_CORE_EQUATIONAL_SPEC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/graph_spec.h"
#include "src/core/label_graph.h"
#include "src/term/symbol_table.h"

namespace relspec {

/// One equation of R: symbol(representative of `cluster`) equals the
/// representative of `target`.
struct Equation {
  uint32_t cluster = 0;
  FuncId symbol = 0;
  uint32_t target = 0;
};

/// One step of a congruence proof: an equation of R, lifted by congruence
/// through the `lifted` symbols a term applies outside it. Without those
/// outermost symbols, lhs and rhs are the equation's two sides, in either
/// order. An asserted step (lifted == 0) is the equation itself.
struct CongruenceStep {
  Path lhs;
  Path rhs;
  Equation equation;
  int lifted = 0;
};

/// A proof that lhs == rhs in Cl(R): a chain lhs = t0 == t1 == ... ==
/// tn = rhs, each step starting where the one before it ends. Empty when
/// lhs and rhs are the same term.
struct CongruenceProof {
  Path lhs;
  Path rhs;
  std::vector<CongruenceStep> steps;

  /// The chain, one line per step, each lifted step followed by the
  /// equation it lifts; steps are tagged [asserted] or [congruence].
  std::string ToString(const SymbolTable& symbols) const;
};

class EquationalSpecification {
 public:
  /// Decides (a, b) in Cl(R): the two terms have the same normal form.
  bool Congruent(const Path& a, const Path& b) const;

  /// A proof of (a, b) in Cl(R) from the equations of R: a's rewrites to
  /// its normal form, then b's, reversed. NotFound when the terms are not
  /// congruent.
  StatusOr<CongruenceProof> ExplainCongruence(const Path& a,
                                              const Path& b) const;
  /// The same proof, rendered.
  StatusOr<std::string> ExplainCongruenceText(const Path& a,
                                              const Path& b) const;

  /// The equations R: the frontier layer's in shortlex order of their
  /// terms, then those beyond it by cluster and symbol.
  const std::vector<Equation>& equations() const { return equations_; }
  size_t num_equations() const { return equations_.size(); }
  /// An equation as its (term, representative) path pair.
  std::pair<Path, Path> EquationPaths(const Equation& eq) const {
    return {spec_->graph().Representative(eq.cluster).Extend(eq.symbol),
            spec_->graph().Representative(eq.target)};
  }

  /// The (B, F) that R was read off, shared, not copied: its clusters and
  /// slices, atom dictionary, globals and symbols are the primary database
  /// B, and its truncation marker says whether R is partial. A truncated
  /// graph's R omits equations through the unknown cluster, so Cl(R) — and
  /// hence membership — under-approximates the state congruence soundly.
  /// Membership is spec().Holds: a term is congruent to at most one
  /// representative, its walk's cluster.
  const GraphSpecification& spec() const { return *spec_; }

  std::string ToString() const;

 private:
  friend StatusOr<EquationalSpecification> BuildEquationalSpecification(
      std::shared_ptr<const GraphSpecification>);

  explicit EquationalSpecification(
      std::shared_ptr<const GraphSpecification> spec)
      : spec_(std::move(spec)) {}

  /// A term's normal form under R: the representative of `cluster` with
  /// the term's symbols from position `leave` on applied outside it.
  struct NormalForm {
    uint32_t cluster = 0;
    int leave = 0;
  };
  /// The Link walk of `path` from cluster 0. It stops (leave < depth) at a
  /// symbol outside the alphabet or an edge into a truncated graph's
  /// unknown sink: R has no equation there, so the rest of the term stays
  /// as written. When `crossed` is set, appends (position, equation) for
  /// each non-tree edge the walk follows, in walk order.
  NormalForm Walk(const Path& path,
                  std::vector<std::pair<int, Equation>>* crossed) const;
  /// True when the two normal forms are the same term.
  static bool SameNormalForm(const Path& a, const NormalForm& na,
                             const Path& b, const NormalForm& nb);

  std::shared_ptr<const GraphSpecification> spec_;
  std::vector<Equation> equations_;
};

/// The (B, R) of a (B, F): R read off the successor graph, over `spec` as
/// its primary database, which it shares. Works on an engine's spec and on
/// one loaded from a snapshot alike. InvalidArgument for a null `spec`.
StatusOr<EquationalSpecification> BuildEquationalSpecification(
    std::shared_ptr<const GraphSpecification> spec);

/// The (B, R) of BuildGraphSpecification(graph, labeling, symbols), which
/// it builds and shares. For perfbench's staged pass; it goes with that
/// pass's next change (ROADMAP item 7).
StatusOr<EquationalSpecification> BuildEquationalSpecification(
    const LabelGraph& graph, Labeling* labeling, const SymbolTable& symbols);

}  // namespace relspec

#endif  // RELSPEC_CORE_EQUATIONAL_SPEC_H_
