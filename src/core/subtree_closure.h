// The subtree-closure function chi (Section 3 machinery).
//
// Below the trunk (nodes deeper than c) the infinite tree is homogeneous: no
// pinned facts, identical rules everywhere. The label of such a node in the
// least fixpoint is therefore a pure function chi(S) of the set S of facts
// pushed into it from above (its "seed"): the least T >= S closed under all
// local rules evaluated at the node and, recursively, at its descendants —
// including up-propagation (body at children, head at the node),
// down-propagation (head at a child) and sibling interaction.
//
// ChiEngine tabulates chi by Kleene iteration over the finite function
// lattice: entries are keyed by seed, values grow monotonically, and a full
// processing pass that changes nothing certifies the least fixpoint. This
// table is the computational heart of the paper's finite representability
// results (and of the DEXPTIME bound of Theorem 4.1: the table has at most
// 2^|U| entries).
//
// Existential rules (heads that are context propositions) fire during entry
// processing into the shared context bitset; this is sound because every
// demanded seed under-approximates the final seed of a real tree node.

#ifndef RELSPEC_CORE_SUBTREE_CLOSURE_H_
#define RELSPEC_CORE_SUBTREE_CLOSURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/status.h"
#include "src/core/ground.h"

namespace relspec {

class ResourceGovernor;

/// Evaluates a ground rule body against a node label, its children's labels
/// and the context. `child_label` is any callable SymIdx -> const
/// DynamicBitset&.
template <typename ChildLabelFn>
bool BodySatisfied(const GroundRule& rule, const DynamicBitset& label,
                   const DynamicBitset& ctx, ChildLabelFn&& child_label) {
  for (AtomIdx a : rule.body_eps) {
    if (!label.Test(a)) return false;
  }
  for (CtxIdx c : rule.body_ctx) {
    if (!ctx.Test(c)) return false;
  }
  for (const auto& [sym, a] : rule.body_child) {
    if (!child_label(sym).Test(a)) return false;
  }
  return true;
}

class ChiEngine {
 public:
  /// `ctx` is shared with the trunk fixpoint; context emissions set bits in
  /// it and raise `*ctx_changed`. Both must outlive the engine.
  ChiEngine(const GroundProgram* ground, DynamicBitset* ctx, bool* ctx_changed)
      : ground_(ground), ctx_(ctx), ctx_changed_(ctx_changed) {}

  /// Looks up (or creates, with value = seed) the entry for `seed`.
  uint32_t EntryFor(const DynamicBitset& seed);

  /// Current value of an entry. Monotonically grows across passes.
  const DynamicBitset& Value(uint32_t entry) const {
    return entries_[entry].value;
  }

  /// Processes every entry once. Returns true if any value, context bit or
  /// table membership changed.
  ///
  /// This is Gauss-Seidel: entries demanded during the pass are appended and
  /// processed within the same pass, and each closure sees every update made
  /// before it. Newly demanded entries count as a change so the surrounding
  /// loop always runs another pass to close them.
  StatusOr<bool> ProcessAllOnce();

  /// Child labels of a node with (converged) label `label` at depth >= c.
  /// Only meaningful once the surrounding fixpoint has converged. Cached;
  /// the cache is dropped whenever anything changes.
  const std::vector<DynamicBitset>& Expand(const DynamicBitset& label);

  size_t num_entries() const { return entries_.size(); }

  /// Caps the table size; exceeded -> ResourceExhausted from ProcessAllOnce.
  void set_max_entries(size_t n) { max_entries_ = n; }

  /// Attaches a governor (may be null). ProcessAllOnce then polls it per
  /// entry; breaches surface as that governor's Status. The governor must
  /// outlive the engine.
  void set_governor(ResourceGovernor* g) { governor_ = g; }

  /// Freezes the engine after an interrupted (truncated) fixpoint: Expand no
  /// longer insists that labels are closed — it closes them on the fly —
  /// because a breached iteration legitimately leaves non-converged labels.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

 private:
  struct Entry {
    DynamicBitset seed;
    DynamicBitset value;
  };

  /// Runs the node-local closure for label T: iterates child seeds and
  /// labels to their mutual fixpoint (demanding child seeds from the live
  /// table), fires eps-head additions into T and context emissions into the
  /// shared context. Returns true if T or ctx changed. On return,
  /// `child_labels` holds the children's labels for the final T.
  bool CloseNode(DynamicBitset* T, std::vector<DynamicBitset>* child_labels);

  const GroundProgram* ground_;
  DynamicBitset* ctx_;
  bool* ctx_changed_;
  ResourceGovernor* governor_ = nullptr;
  bool frozen_ = false;
  std::unordered_map<DynamicBitset, uint32_t, DynamicBitsetHash> index_;
  std::vector<Entry> entries_;
  std::unordered_map<DynamicBitset, std::vector<DynamicBitset>,
                     DynamicBitsetHash>
      expand_cache_;
  size_t max_entries_ = 5'000'000;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SUBTREE_CLOSURE_H_
