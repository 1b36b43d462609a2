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
// Both halves of an equation are cluster terms: t1 is f(representative of a
// cluster) and t2 a representative, so R is stored as (cluster, symbol,
// cluster) triples over the representatives' BFS tree (label_graph.h), and
// the closure interns one term per cluster.

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
  /// closure against the representatives holding this tuple.
  bool Holds(const Path& path, PredId pred, const std::vector<ConstId>& args);

  bool HoldsGlobal(PredId pred, const std::vector<ConstId>& args) const;

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
    return {Representative(eq.cluster).Extend(eq.symbol),
            Representative(eq.target)};
  }

  /// Representatives and their slices (the primary database B), aligned with
  /// the graph specification's clusters. Successor maps are not kept.
  const std::vector<Cluster>& clusters() const { return clusters_; }
  /// The representative of `cluster` as a path. O(depth).
  Path Representative(uint32_t cluster) const {
    return RepresentativePath(clusters_, cluster);
  }
  const std::vector<SliceAtom>& atom_dictionary() const { return atoms_; }
  const std::vector<std::pair<PredId, std::vector<ConstId>>>& globals() const {
    return globals_;
  }
  const SymbolTable& symbols() const { return symbols_; }
  /// The pure function symbols: the symbol table's unary ones.
  std::vector<FuncId> alphabet() const;
  int trunk_depth() const { return trunk_depth_; }

  size_t num_slice_tuples() const;

  /// Optional resource governor for the lazily-built congruence closure
  /// (polled per pending merge). Must be set before the first membership
  /// test and outlive this specification.
  void set_governor(ResourceGovernor* g) { governor_ = g; }

  /// True when the source label graph was truncated by a resource breach:
  /// R omits equations through the unknown cluster, so Cl(R) — and hence
  /// Holds — under-approximates the state congruence soundly.
  bool truncated() const { return truncated_; }
  /// The breach that truncated the source graph; OK unless truncated().
  const Status& breach() const { return breach_; }

  std::string ToString() const;

 private:
  friend StatusOr<EquationalSpecification> BuildEquationalSpecification(
      const GraphSpecification&);
  friend StatusOr<EquationalSpecification> BuildEquationalSpecification(
      const LabelGraph&, Labeling*, const SymbolTable&);
  friend class Snapshot;

  /// The body of both builders: (B, R) over `graph`'s clusters with its
  /// spec's atom dictionary, globals and symbols.
  static EquationalSpecification FromGraph(
      const LabelGraph& graph, const std::vector<SliceAtom>& atoms,
      const std::vector<std::pair<PredId, std::vector<ConstId>>>& globals,
      const SymbolTable& symbols);

  /// Lazily constructs the congruence closure over the equations.
  void EnsureClosure();

  std::vector<Cluster> clusters_;  // successors left empty
  std::vector<Equation> equations_;
  std::vector<SliceAtom> atoms_;
  std::unordered_map<SliceAtom, AtomIdx, SliceAtomHasher> atom_index_;
  std::vector<std::pair<PredId, std::vector<ConstId>>> globals_;
  SymbolTable symbols_;
  int trunk_depth_ = 0;
  bool truncated_ = false;
  Status breach_;
  ResourceGovernor* governor_ = nullptr;

  std::unique_ptr<TermArena> arena_;
  std::unique_ptr<CongruenceClosure> closure_;
  /// cluster_terms_[i]: the representative of cluster i, interned in arena_
  /// by EnsureClosure.
  std::vector<TermId> cluster_terms_;
};

/// Resolves equations given as (term, representative) path pairs, as
/// version 1 snapshots store them, into triples over the representatives
/// of `clusters`: each term must be symbol(representative) with a symbol of
/// `alphabet` (ascending). InvalidArgument otherwise.
StatusOr<std::vector<Equation>> EquationsFromPaths(
    const std::vector<Cluster>& clusters,
    const std::vector<std::pair<Path, Path>>& pairs,
    const std::vector<FuncId>& alphabet);

/// The self-contained (B, R) of a (B, F): the same clusters, slices, atom
/// dictionary, globals and symbols, with R read off the successor graph.
/// Works on an engine's spec and on one loaded from a snapshot alike.
StatusOr<EquationalSpecification> BuildEquationalSpecification(
    const GraphSpecification& spec);

/// The (B, R) that BuildEquationalSpecification of
/// BuildGraphSpecification(graph, labeling, symbols) returns, built from
/// the graph, the labeling's atoms and globals and `symbols` without an
/// intermediate (B, F). For perfbench's staged pass; it goes with that
/// pass's next change (ROADMAP item 7).
StatusOr<EquationalSpecification> BuildEquationalSpecification(
    const LabelGraph& graph, Labeling* labeling, const SymbolTable& symbols);

}  // namespace relspec

#endif  // RELSPEC_CORE_EQUATIONAL_SPEC_H_
