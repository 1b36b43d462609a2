// GraphSpecification: the paper's (B, F) — primary database + successor
// graph (Section 3.4).
//
// Self-contained by design ("once it is computed, the original deductive
// rules may be forgotten"): the specification owns a copy of the symbol
// table, the slice-atom dictionary, the globals, the clusters with their
// slices, and the successor maps. Membership of any ground fact is decided
// by the Link walk (find the representative of the term's cluster, check the
// slice) without consulting Z or D.
//
// Every part is flat: the symbol table's names and indexes, the dictionary
// and the globals (AtomTables, each row found by probing its index) and the
// label graph's cluster arrays. So a copy of the specification, such as
// FunctionalDatabase::BuildGraphSpec returns, is a fixed number of array
// copies whatever the number of names, atoms, globals or clusters.
//
// It is also the one copy of the primary database B: the equational
// specification (B, R) (equational_spec.h) shares a GraphSpecification
// through a shared pointer and adds only the equations R.

#ifndef RELSPEC_CORE_GRAPH_SPEC_H_
#define RELSPEC_CORE_GRAPH_SPEC_H_

#include <span>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/core/atom_table.h"
#include "src/core/label_graph.h"
#include "src/term/symbol_table.h"

namespace relspec {

class GraphSpecification {
 public:
  /// Membership of the functional fact pred(path, args...).
  bool Holds(const Path& path, PredId pred,
             std::span<const ConstId> args) const;
  /// The index of the slice atom pred(args...) in atom_dictionary(), or
  /// kInvalidId when no slice can hold it. (B, R) finds its atoms here too.
  AtomIdx FindAtom(PredId pred, std::span<const ConstId> args) const {
    return atoms_.Find(pred, args);
  }
  /// Membership of a ground non-functional fact: a probe of the globals'
  /// index.
  bool HoldsGlobal(PredId pred, std::span<const ConstId> args) const {
    return globals_.Find(pred, args) != kInvalidId;
  }
  /// Membership of one ground fact over symbols(), functional or global.
  /// A term naming a mixed encoding the table lacks holds nowhere.
  /// InvalidArgument unless the atom is ground.
  StatusOr<bool> HoldsFact(const Atom& fact) const;
  /// The same for a fact given as a query parsed read-only against
  /// symbols(), e.g. ParseQuery("? P(f(0), a).", spec.symbols()).
  /// InvalidArgument unless the query is one ground atom. A fact naming a
  /// constant or function symbol the table lacks holds nowhere.
  StatusOr<bool> HoldsFact(const Query& fact) const;

  /// A ground functional term over symbols() in pure path form (mixed
  /// terms are purified). NotFound when the term names a symbol or mixed
  /// encoding the table lacks; InvalidArgument unless it is ground.
  StatusOr<Path> PathOfGroundTerm(const FuncTerm& term) const;

  /// The slice L[t] of the cluster containing `path`, as explicit tuples.
  std::vector<SliceAtom> SliceOf(const Path& path) const;

  const LabelGraph& graph() const { return graph_; }
  const SymbolTable& symbols() const { return symbols_; }
  /// The slice atoms, in the ground program's AtomIdx order.
  const AtomTable& atom_dictionary() const { return atoms_; }
  /// The ground non-functional facts of B, in context order.
  const AtomTable& globals() const { return globals_; }
  const std::vector<FuncId>& alphabet() const { return graph_.alphabet(); }
  int trunk_depth() const { return graph_.trunk_depth(); }

  // --- size measures (Theorem 4.2 experiments) ---
  size_t num_clusters() const { return graph_.num_clusters(); }
  /// Total tuples across all slices (the size of B's functional part).
  size_t num_slice_tuples() const;
  /// Successor edges (the size of F).
  size_t num_edges() const;

  /// True when the underlying label graph was truncated by a resource
  /// breach: Holds answers are a sound under-approximation (everything
  /// reported holds; paths routed through the unknown cluster answer false).
  bool truncated() const { return graph_.truncated(); }
  /// The breach that truncated the graph; OK unless truncated().
  const Status& breach() const { return graph_.breach(); }

  /// Multi-line human-readable rendering (clusters, slices, successors).
  std::string ToString() const;

 private:
  friend StatusOr<GraphSpecification> BuildGraphSpecification(
      LabelGraph, const Labeling*, const SymbolTable&);
  friend class Snapshot;

  LabelGraph graph_;
  SymbolTable symbols_;
  AtomTable atoms_;
  AtomTable globals_;
};

/// The spec's globals: the ground non-functional atoms true in `labeling`'s
/// context, in context order.
AtomTable GlobalsOf(const Labeling& labeling);

/// Extracts the self-contained (B, F) from a computed label graph, which it
/// takes by value: pass an rvalue to move the graph in without a copy. The
/// atom dictionary and the globals are read from `labeling`; the symbol
/// table is copied into the specification.
StatusOr<GraphSpecification> BuildGraphSpecification(
    LabelGraph graph, const Labeling* labeling, const SymbolTable& symbols);

}  // namespace relspec

#endif  // RELSPEC_CORE_GRAPH_SPEC_H_
