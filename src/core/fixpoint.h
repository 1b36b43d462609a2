// The least-fixpoint computation for grounded functional programs.
//
// The least fixpoint LFP(Z, D) is represented as
//   * exact labels for every *trunk* node (paths of depth <= c, where ground
//     facts are pinned),
//   * seeds for the boundary layer (depth c+1), whose labels — and all
//     deeper labels — live in the ChiEngine table,
//   * the context bitset: true ground non-functional atoms ("globals") and
//     pinned facts, closed under the propositional global rules.
//
// ComputeFixpoint runs a chaotic iteration (global rules, pinned syncs,
// trunk rules, a chi worklist drain) until a full round changes nothing;
// monotonicity over finite lattices gives termination and leastness.
//
// ComputeBoundedFixpoint is the brute-force reference: the least fixpoint of
// the rule system restricted to nodes of depth <= bound. It
// under-approximates LFP(Z, D) and converges to it on any fixed region as
// the bound grows — the property tests and the materialization baseline
// (experiment E11) are built on it.

#ifndef RELSPEC_CORE_FIXPOINT_H_
#define RELSPEC_CORE_FIXPOINT_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/status.h"
#include "src/core/ground.h"
#include "src/core/subtree_closure.h"
#include "src/term/path.h"
#include "src/term/term.h"

namespace relspec {

class ResourceGovernor;

struct FixpointOptions {
  /// Cap on |Sigma|^c trunk nodes.
  size_t max_trunk_nodes = 2'000'000;
  /// Cap on chi-table entries (distinct demanded seeds).
  size_t max_chi_entries = 1'000'000;
  /// Cap on chaotic-iteration rounds (safety net; 0 = unlimited).
  size_t max_rounds = 0;
  /// Optional resource governor (deadline, cancellation, budgets), polled
  /// once per round and per chi-table entry. Must outlive the call.
  ResourceGovernor* governor = nullptr;
  /// Graceful degradation: when a resource breach (kResourceExhausted,
  /// kCancelled, kDeadlineExceeded) interrupts the iteration, return the
  /// partial labeling marked truncated() instead of the error. The partial
  /// labeling is a sound under-approximation of LFP(Z, D): the iteration is
  /// monotone, so every fact it reports is in the least fixpoint.
  bool allow_partial = false;
};

/// The converged least fixpoint, queryable by path.
class Labeling {
 public:
  /// The label (set of slice atoms true) of an arbitrary path. Paths using
  /// function symbols outside the program's alphabet have empty labels.
  /// A path deeper than c+1 is walked from its boundary entry along the
  /// chi entries' recorded children: O(depth), and it interns no path and
  /// closes nothing. Non-const because a frozen (truncated) chi engine
  /// closes a still-queued entry on first read. A label beyond the trunk
  /// is a view into the chi table, which such a read may grow: copy the
  /// result to keep it past the next call.
  BitView LabelOf(const Path& path);

  /// The chi entry of a boundary (depth c+1) path over the alphabet.
  uint32_t BoundaryEntry(std::span<const FuncId> symbols);

  const DynamicBitset& ctx() const { return shared_->ctx; }
  const GroundProgram& ground() const { return *ground_; }
  ChiEngine& chi() { return *chi_; }
  int trunk_depth() const { return ground_->trunk_depth(); }

  /// All trunk paths (depth <= c) in shortlex order.
  const std::vector<Path>& trunk_paths() const { return trunk_paths_; }
  const DynamicBitset& TrunkLabel(const Path& path) const {
    return trunk_labels_.at(terms_.FindSymbols(path.symbols()));
  }

  /// The interner holding the trunk and boundary paths (depth <= c+1).
  /// Label maps are keyed by its TermIds; lookups never grow it.
  const TermInterner& terms() const { return terms_; }

  size_t rounds() const { return rounds_; }

  /// True when the iteration was interrupted by a resource breach under
  /// allow_partial: labels are a sound under-approximation of LFP(Z, D)
  /// (everything reported holds; some facts may be missing).
  bool truncated() const { return truncated_; }
  /// The breach that interrupted the iteration; OK unless truncated().
  const Status& breach() const { return breach_; }

 private:
  friend StatusOr<Labeling> ComputeFixpoint(const GroundProgram&,
                                            const FixpointOptions&);
  // Heap-allocated so ChiEngine's pointers into it survive moves of the
  // enclosing Labeling.
  struct ChiShared {
    DynamicBitset ctx;
  };
  /// The chaotic iteration (global rules, pinned syncs, trunk rules, a chi
  /// worklist drain) run from the base facts ComputeFixpoint has asserted,
  /// until a round changes nothing: no trunk label, seed or context bit
  /// grows and the drain finds its worklist empty.
  Status RunToFixpoint(const FixpointOptions& options);

  const GroundProgram* ground_ = nullptr;  // owned by the caller
  std::unique_ptr<ChiShared> shared_;
  std::unique_ptr<ChiEngine> chi_;
  std::vector<Path> trunk_paths_;
  /// Canonical ids for every path key below: hashing a path is hashing one
  /// uint32 instead of walking its symbols, and a trunk child lookup is one
  /// O(1) Apply instead of a Path allocation.
  TermInterner terms_;
  std::unordered_map<TermId, DynamicBitset> trunk_labels_;
  /// Boundary (depth c+1) seeds.
  std::unordered_map<TermId, DynamicBitset> boundary_seeds_;
  size_t rounds_ = 0;
  bool truncated_ = false;
  Status breach_;
  DynamicBitset empty_label_;
};

/// Computes the least fixpoint. `ground` must outlive the result.
StatusOr<Labeling> ComputeFixpoint(const GroundProgram& ground,
                                   const FixpointOptions& options = {});

/// Brute-force bounded fixpoint: labels for every path of depth <= bound.
class BoundedLabeling {
 public:
  const DynamicBitset& LabelOf(const Path& path) const;
  bool Holds(const Path& path, const SliceAtom& atom) const;
  bool HoldsGlobal(PredId pred, const std::vector<ConstId>& args) const;
  const DynamicBitset& ctx() const { return ctx_; }
  int bound() const { return bound_; }
  size_t num_nodes() const { return labels_.size(); }
  /// Total facts stored (sum of label cardinalities) — the materialization
  /// footprint used by experiment E11.
  size_t TotalFacts() const;

 private:
  friend StatusOr<BoundedLabeling> ComputeBoundedFixpoint(const GroundProgram&,
                                                          int, size_t);
  const GroundProgram* ground_ = nullptr;
  int bound_ = 0;
  TermInterner terms_;
  std::unordered_map<TermId, DynamicBitset> labels_;
  DynamicBitset ctx_;
  DynamicBitset empty_label_;
};

/// Least fixpoint of the rule system restricted to nodes of depth <= bound.
StatusOr<BoundedLabeling> ComputeBoundedFixpoint(const GroundProgram& ground,
                                                 int bound,
                                                 size_t max_nodes = 5'000'000);

}  // namespace relspec

#endif  // RELSPEC_CORE_FIXPOINT_H_
