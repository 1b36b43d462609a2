// Algorithm Q (the paper's Figure 1): the quotient model as a finite graph.
//
// Clusters of the finite state congruence (Section 3.2):
//   * every trunk term (depth <= c) is its own cluster;
//   * beyond the trunk, terms are clustered by state equivalence ~ (equal
//     labels), which is a congruence there (Theorem 3.1).
//
// The algorithm traverses terms breadth-first in the shortlex precedence
// ordering starting from depth c+1 (the Potential set). A term is Active —
// becomes a cluster representative — iff no earlier Active term has the same
// state. Only Active branches are extended; successor mappings point from
// each cluster to the cluster of f(representative).
//
// The traversal runs over states: each queued term carries its chi entry,
// the boundary entry at depth c+1 and otherwise children[f] of its parent
// cluster's entry, as recorded when the fixpoint closed that entry (a
// depth-c frontier term reads its trunk label instead). So no term is
// looked up by path, a converged labeling closes nothing, and a successor
// edge is set the moment the child term resolves to a cluster. A term is
// resolved by its entry: each entry's cluster is kept in an array the entry
// id indexes, and only an entry's first visit (or a depth-c term, which has
// no entry) looks its label up, in an IdIndex over the clusters' labels.
//
// Every representative is f(representative of an earlier cluster): a trunk
// path extends its trunk parent, a frontier term a depth-c (or depth c-1)
// trunk path, and an Active term the cluster it was queued from. So a
// cluster stores its representative as (parent cluster, symbol), and the
// representatives form a BFS tree rooted at 0; a Path is built from it only
// where one is printed or asked for (LabelGraph::Representative).
//
// The clusters are stored as structure-of-arrays, so no cluster owns a heap
// block: parent, symbol and trunk flag in one array each, the labels in one
// word arena (row c is cluster c's label, NumWords(atoms) words), and the
// successors in one id array of stride |Sigma| (row c is cluster c's
// edges). label(c) is a BitView into the arena and successors(c) a span
// into the edge array. A graph grows by appending a row to each, and a copy
// of it is a handful of vector copies.
//
// The trunk is the complete |Sigma|-ary tree above the frontier, listed in
// shortlex order, so it is laid out as a heap: trunk path i is cluster i and
// its f_s child is cluster |Sigma|*i+1+s. A frontier term sets its trunk
// parent's edge when it resolves, like every deeper term, so every cluster
// carries its successors and the Link walk (LabelGraph::ClusterOf) follows
// them from cluster 0. No term is ever found by its path.

#ifndef RELSPEC_CORE_LABEL_GRAPH_H_
#define RELSPEC_CORE_LABEL_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/status.h"
#include "src/core/fixpoint.h"
#include "src/term/path.h"

namespace relspec {

struct LabelGraphOptions {
  /// Cap on |Sigma|^(c+1) initial Potential terms + discovered clusters.
  size_t max_clusters = 1'000'000;
  /// Start the traversal at depth c instead of c+1 (the paper's footnote 3,
  /// stated for temporal rules; sound in general because no pinned fact lies
  /// strictly below a depth-c node). Reproduces Section 3.5's R = {(0,2)}
  /// for the Even example.
  bool merge_trunk_frontier = false;
  /// Optional resource governor, polled once per BFS visit. Must outlive
  /// the call.
  ResourceGovernor* governor = nullptr;
  /// Graceful degradation: a resource breach stops the BFS and returns the
  /// clusters discovered so far, marked truncated(). Unresolved successor
  /// edges point at a synthetic empty-label "unknown" cluster (a self-loop
  /// sink), keeping the graph structurally well-formed; membership answers
  /// routed through it are sound "unknown -> false" under-approximations.
  bool allow_partial = false;
};

/// The computed quotient model: clusters, successors, and the Link walk.
/// Each cluster is one congruence class of the finite state congruence.
class LabelGraph {
 public:
  size_t num_clusters() const { return parent_.size(); }

  /// The state of cluster `c`: slice atoms true at every term of it.
  BitView label(uint32_t c) const {
    return {label_words_.data() + c * label_stride_, num_atoms_};
  }
  /// successors(c)[sym]: the cluster of f_sym(representative of c), one
  /// per alphabet symbol.
  std::span<const uint32_t> successors(uint32_t c) const {
    return {successors_.data() + c * alphabet_.size(), alphabet_.size()};
  }
  /// The representative of `c` is symbol(c)(representative of parent(c)).
  /// kInvalidId: the representative is 0 (the trunk root, a depth-0 merged
  /// frontier, or the unknown sink of a truncated graph), and symbol(c) is
  /// 0.
  uint32_t parent(uint32_t c) const { return parent_[c]; }
  FuncId symbol(uint32_t c) const { return symbol_[c]; }
  /// True for trunk clusters (depth <= c, singleton classes).
  bool is_trunk(uint32_t c) const { return trunk_[c] != 0; }
  /// The universe of the labels: the slice atoms.
  size_t num_atoms() const { return num_atoms_; }
  /// Bytes held by the cluster arrays and the alphabet.
  size_t ApproxBytes() const;

  /// The representative of `cluster` as a path: its (parent, symbol) chain
  /// read back to 0. Parents precede their children, so the walk ends.
  /// O(depth).
  Path Representative(uint32_t cluster) const;

  /// The cluster containing `path`, or kInvalidId for paths that use symbols
  /// outside the alphabet (their labels are empty): the Link walk along
  /// successor edges from cluster 0. O(depth · log |Sigma|).
  uint32_t ClusterOf(std::span<const FuncId> path) const;
  uint32_t ClusterOf(const Path& path) const {
    return ClusterOf(path.symbols());
  }

  /// The ascending alphabet; successor lists are indexed in its order.
  const std::vector<FuncId>& alphabet() const { return alphabet_; }
  /// The successor index of alphabet symbol `f`; kInvalidId for a symbol
  /// outside the alphabet.
  SymIdx SymIndexOf(FuncId f) const { return AlphabetIndex(alphabet_, f); }

  /// The cluster of f(representative of `cluster`).
  uint32_t SuccessorOf(uint32_t cluster, SymIdx sym) const {
    return successors_[cluster * alphabet_.size() + sym];
  }

  int trunk_depth() const { return trunk_depth_; }
  /// Depth at which label-based clustering starts (c+1, or c when
  /// merge_trunk_frontier is set).
  int frontier_depth() const { return frontier_depth_; }

  /// scope_~ (Lemma 3.1): number of distinct states among all clusters.
  size_t EquivalenceScope() const;
  /// scope_congruence (Lemma 3.2): number of clusters.
  size_t CongruenceScope() const { return num_clusters(); }
  /// Number of Active (non-trunk representative) terms.
  size_t num_active() const { return num_active_; }
  /// Number of Potential terms examined by the traversal.
  size_t num_potential() const { return num_potential_; }

  /// The Link walk's entry points: calls fn(path, cluster) for each
  /// frontier-depth path, in shortlex order, with the cluster its trunk
  /// parent's edge leads to. `path` holds the symbols innermost first and
  /// is valid during the call only. Paths whose edge reaches the unknown
  /// sink of a truncated graph are left out.
  template <typename Fn>
  void ForEachBoundaryEntry(Fn&& fn) const;

  /// True when the BFS was interrupted by a resource breach under
  /// allow_partial; unresolved edges lead to unknown_cluster().
  bool truncated() const { return truncated_; }
  /// The breach that interrupted the BFS; OK unless truncated().
  const Status& breach() const { return breach_; }
  /// The synthetic sink for unresolved successors of a truncated graph;
  /// kInvalidId when the graph is complete.
  uint32_t unknown_cluster() const { return unknown_cluster_; }

 private:
  friend StatusOr<LabelGraph> BuildLabelGraph(Labeling*, const LabelGraphOptions&);
  friend class Snapshot;

  /// The first cluster of the trunk's last layer, the frontier terms'
  /// parents: in heap order, the first trunk cluster i whose first child
  /// k*i+1 lies past the `num_trunk` trunk clusters.
  static size_t LastTrunkLayer(size_t num_trunk, size_t k) {
    return num_trunk == 0 || k == 0 ? 0 : (num_trunk - 1 + k - 1) / k;
  }

  /// Sets the label universe; the graph must have no cluster yet.
  void SetNumAtoms(size_t num_atoms);
  /// Appends a cluster with an empty label and every successor kInvalidId;
  /// returns its id.
  uint32_t AddCluster(uint32_t parent, FuncId symbol, bool trunk);
  /// The words of cluster c's label and its successor row, to fill.
  uint64_t* MutableLabel(uint32_t c) {
    return label_words_.data() + c * label_stride_;
  }
  uint32_t* MutableSuccessors(uint32_t c) {
    return successors_.data() + c * alphabet_.size();
  }
  /// Rebuilds each cluster's (parent, symbol) from representative paths
  /// listed in cluster order, as version 1 snapshots store them. A
  /// non-empty path must extend an earlier cluster's representative by an
  /// alphabet symbol; otherwise InvalidArgument. An empty path has no
  /// parent.
  Status LinkRepresentatives(const std::vector<Path>& reps);

  /// Per cluster, in id order; see the accessors.
  std::vector<uint32_t> parent_;
  std::vector<FuncId> symbol_;
  std::vector<uint8_t> trunk_;
  size_t num_atoms_ = 0;
  size_t label_stride_ = 0;
  std::vector<uint64_t> label_words_;
  std::vector<uint32_t> successors_;
  std::vector<FuncId> alphabet_;
  int trunk_depth_ = 0;
  int frontier_depth_ = 1;
  size_t num_active_ = 0;
  size_t num_potential_ = 0;
  bool truncated_ = false;
  Status breach_;
  uint32_t unknown_cluster_ = kInvalidId;
};

template <typename Fn>
void LabelGraph::ForEachBoundaryEntry(Fn&& fn) const {
  if (frontier_depth_ == 0) {
    if (num_clusters() > 0 && unknown_cluster_ != 0) {
      fn(std::span<const FuncId>(), uint32_t{0});
    }
    return;
  }
  const size_t k = alphabet_.size();
  size_t num_trunk = 0;
  while (num_trunk < num_clusters() && trunk_[num_trunk]) ++num_trunk;
  std::vector<FuncId> path;
  for (size_t i = LastTrunkLayer(num_trunk, k); i < num_trunk; ++i) {
    path.clear();
    for (uint32_t c = static_cast<uint32_t>(i); parent_[c] != kInvalidId;
         c = parent_[c]) {
      path.push_back(symbol_[c]);
    }
    std::reverse(path.begin(), path.end());
    path.push_back(0);
    for (SymIdx s = 0; s < k; ++s) {
      path.back() = alphabet_[s];
      const uint32_t cluster = SuccessorOf(static_cast<uint32_t>(i), s);
      if (cluster != unknown_cluster_) {
        fn(std::span<const FuncId>(path), cluster);
      }
    }
  }
}

/// Runs Algorithm Q against a converged least-fixpoint labeling.
StatusOr<LabelGraph> BuildLabelGraph(Labeling* labeling,
                                     const LabelGraphOptions& options = {});

}  // namespace relspec

#endif  // RELSPEC_CORE_LABEL_GRAPH_H_
