// EquationalSpecification: the paper's (B, R) — primary database + ground
// equations (Section 3.5).
//
// R contains the pairs (t1, t2) with Active(t1), Potential(t2) and t1 ~ t2
// extracted from Algorithm Q. Cl(R) — the reflexive, symmetric, transitive,
// congruent closure of R — equals the state congruence beyond the trunk. A
// membership test P(t0, a...) first collects T = {t : P(t, a...) in B} and
// then decides (t0, t) in Cl(R) with the congruence closure procedure
// [DST80]; although Cl(R) is infinite, the test only examines the finitely
// many subterms of R, t0 and t.
//
// B is not copied: the specification holds the (B, F) it was built from
// through a shared pointer and keeps only R and the closure it builds
// lazily. Both halves of an equation are cluster terms: t1 is
// f(representative of a cluster) and t2 a representative, so R is stored as
// (cluster, symbol, cluster) triples over the representatives' BFS tree
// (label_graph.h), and the closure interns one term per cluster.

#ifndef RELSPEC_CORE_EQUATIONAL_SPEC_H_
#define RELSPEC_CORE_EQUATIONAL_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cc/congruence_closure.h"
#include "src/core/graph_spec.h"
#include "src/core/label_graph.h"
#include "src/term/symbol_table.h"
#include "src/term/term.h"

namespace relspec {

/// One equation of R: symbol(representative of `cluster`) equals the
/// representative of `target`.
struct Equation {
  uint32_t cluster = 0;
  FuncId symbol = 0;
  uint32_t target = 0;
};

class EquationalSpecification {
 public:
  /// Membership of the functional fact pred(path, args...), via congruence
  /// closure against the representatives holding this tuple. Global facts
  /// are answered by spec().HoldsGlobal.
  bool Holds(const Path& path, PredId pred, const std::vector<ConstId>& args);

  /// Decides (a, b) in Cl(R).
  bool Congruent(const Path& a, const Path& b);

  /// A proof of (a, b) in Cl(R): the chain of R-equations and congruence
  /// liftings used (Nelson-Oppen explanation over [DST80] closure).
  /// NotFound when the terms are not congruent.
  StatusOr<EqProof> ExplainCongruence(const Path& a, const Path& b);
  /// The same proof, rendered.
  StatusOr<std::string> ExplainCongruenceText(const Path& a, const Path& b);

  /// The equations R, in the order the closure merges them.
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
  /// hence Holds — under-approximates the state congruence soundly.
  const GraphSpecification& spec() const { return *spec_; }

  /// Optional resource governor for the lazily-built congruence closure
  /// (polled per pending merge). Must be set before the first membership
  /// test and outlive this specification.
  void set_governor(ResourceGovernor* g) { governor_ = g; }

  std::string ToString() const;

 private:
  friend StatusOr<EquationalSpecification> BuildEquationalSpecification(
      std::shared_ptr<const GraphSpecification>);

  explicit EquationalSpecification(
      std::shared_ptr<const GraphSpecification> spec)
      : spec_(std::move(spec)) {}

  /// Lazily constructs the congruence closure over the equations.
  void EnsureClosure();

  std::shared_ptr<const GraphSpecification> spec_;
  std::vector<Equation> equations_;
  ResourceGovernor* governor_ = nullptr;

  std::unique_ptr<TermArena> arena_;
  std::unique_ptr<CongruenceClosure> closure_;
  /// cluster_terms_[i]: the representative of cluster i, interned in arena_
  /// by EnsureClosure.
  std::vector<TermId> cluster_terms_;
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
