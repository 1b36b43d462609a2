// GraphSpecification: the paper's (B, F) — primary database + successor
// graph (Section 3.4).
//
// Self-contained by design ("once it is computed, the original deductive
// rules may be forgotten"): the specification owns a copy of the symbol
// table, the slice-atom dictionary, the globals, the clusters with their
// slices, and the successor maps. Membership of any ground fact is decided
// by the Link walk (find the representative of the term's cluster, check the
// slice) without consulting Z or D.

#ifndef RELSPEC_CORE_GRAPH_SPEC_H_
#define RELSPEC_CORE_GRAPH_SPEC_H_

#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/core/label_graph.h"
#include "src/term/symbol_table.h"

namespace relspec {

class GraphSpecification {
 public:
  /// Membership of the functional fact pred(path, args...).
  bool Holds(const Path& path, PredId pred,
             const std::vector<ConstId>& args) const;
  /// Membership of a ground non-functional fact.
  bool HoldsGlobal(PredId pred, const std::vector<ConstId>& args) const;
  /// Membership of one ground functional fact, given as a query parsed
  /// read-only against symbols(), e.g. ParseQuery("? P(f(0), a).",
  /// spec.symbols()). InvalidArgument unless the query is one ground
  /// functional atom. A fact naming a constant, function symbol or mixed
  /// encoding the table lacks holds nowhere.
  StatusOr<bool> HoldsFact(const Query& fact) const;

  /// The slice L[t] of the cluster containing `path`, as explicit tuples.
  std::vector<SliceAtom> SliceOf(const Path& path) const;

  const LabelGraph& graph() const { return graph_; }
  const SymbolTable& symbols() const { return symbols_; }
  const std::vector<SliceAtom>& atom_dictionary() const { return atoms_; }
  const std::vector<std::pair<PredId, std::vector<ConstId>>>& globals() const {
    return globals_;
  }
  const std::vector<FuncId>& alphabet() const { return alphabet_; }
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
      const LabelGraph&, Labeling*, const SymbolTable&);
  friend class SpecIo;
  friend class Snapshot;

  LabelGraph graph_;
  SymbolTable symbols_;
  std::vector<SliceAtom> atoms_;
  std::unordered_map<SliceAtom, AtomIdx, SliceAtomHasher> atom_index_;
  std::vector<std::pair<PredId, std::vector<ConstId>>> globals_;
  std::vector<FuncId> alphabet_;
};

/// Extracts the self-contained (B, F) from a computed label graph. The
/// symbol table is copied into the specification.
StatusOr<GraphSpecification> BuildGraphSpecification(const LabelGraph& graph,
                                                     Labeling* labeling,
                                                     const SymbolTable& symbols);

}  // namespace relspec

#endif  // RELSPEC_CORE_GRAPH_SPEC_H_
