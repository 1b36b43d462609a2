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
// ChiEngine tabulates chi by chaotic iteration over the finite function
// lattice, run as a worklist: entries are keyed by seed, values grow
// monotonically, and each entry records the child entries its latest closure
// demanded (one per symbol) plus the entries whose closure read it. An entry
// is closed again only when an entry it read has grown or the shared context
// has grown, so a drained worklist certifies the least fixpoint. This table
// is the computational heart of the paper's finite representability results
// (and of the DEXPTIME bound of Theorem 4.1: the table has at most 2^|U|
// entries). Once converged, each entry's recorded children are the labels of
// its node's children, so Algorithm Q and deep label walks follow entry ids
// and close nothing.
//
// Existential rules (heads that are context propositions) fire during entry
// processing into the shared context bitset; this is sound because every
// demanded seed under-approximates the final seed of a real tree node.

#ifndef RELSPEC_CORE_SUBTREE_CLOSURE_H_
#define RELSPEC_CORE_SUBTREE_CLOSURE_H_

#include <cstdint>
#include <deque>
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
  /// it. It must outlive the engine.
  ChiEngine(const GroundProgram* ground, DynamicBitset* ctx)
      : ground_(ground), ctx_(ctx), ctx_seen_(*ctx) {}

  /// Looks up (or creates, with value = seed, and queues) the entry for
  /// `seed`.
  uint32_t EntryFor(const DynamicBitset& seed);

  /// Current value of an entry. Monotonically grows while the worklist
  /// drains. The reference is invalidated by the next table growth.
  const DynamicBitset& Value(uint32_t entry) const {
    return entries_[entry].value;
  }

  /// children[s]: the entry whose value is the label of child s of a node
  /// labelled Value(entry). Reading the children of a still-queued entry is
  /// a RELSPEC_CHECK failure unless the engine is frozen; a frozen engine
  /// closes the entry here, once. The reference is invalidated by the next
  /// table growth.
  const std::vector<uint32_t>& Children(uint32_t entry);

  /// Drains the worklist: closes every queued entry, re-queueing the readers
  /// of each entry that grows and every entry when the context grows (here or
  /// since the last drain). Returns true if any value or context bit changed.
  ///
  /// Entries demanded during the drain are queued and closed within it, and
  /// each closure sees every update made before it.
  StatusOr<bool> ProcessAllOnce();

  size_t num_entries() const { return entries_.size(); }

  /// Caps the table size; exceeded -> ResourceExhausted from ProcessAllOnce.
  void set_max_entries(size_t n) { max_entries_ = n; }

  /// Attaches a governor (may be null). ProcessAllOnce then polls it per
  /// entry; breaches surface as that governor's Status. The governor must
  /// outlive the engine.
  void set_governor(ResourceGovernor* g) { governor_ = g; }

  /// Freezes the engine after an interrupted (truncated) fixpoint: Children
  /// no longer insists that an entry is closed — it closes queued entries on
  /// first read — because a breached iteration legitimately leaves
  /// non-converged values.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

 private:
  struct Entry {
    DynamicBitset seed;
    DynamicBitset value;
    /// Child entry per symbol from the latest closure; empty until closed.
    std::vector<uint32_t> children;
    /// Entries whose closure read this one, ascending: re-queued when this
    /// value grows.
    std::vector<uint32_t> readers;
    /// In queue_. A frozen engine's lazy close clears it and leaves the id.
    bool queued = true;
  };

  /// Runs the node-local closure for label T: iterates child seeds and
  /// labels to their mutual fixpoint (demanding child seeds from the live
  /// table), fires eps-head additions into T and context emissions into the
  /// shared context. Returns true if it emitted a context bit. On return,
  /// `children` holds the child entries for the final T and `reads` every
  /// entry whose value the closure read.
  bool CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                 std::vector<uint32_t>* reads);

  /// Closes a dequeued entry, records its children and reverse edges, and
  /// re-queues what its growth invalidates. Returns true on a change.
  bool Close(uint32_t entry);
  void Enqueue(uint32_t entry);
  void EnqueueAll();

  const GroundProgram* ground_;
  DynamicBitset* ctx_;
  /// The context every closed entry has seen; a drain that finds the
  /// context grown since re-queues every entry.
  DynamicBitset ctx_seen_;
  ResourceGovernor* governor_ = nullptr;
  bool frozen_ = false;
  std::unordered_map<DynamicBitset, uint32_t, DynamicBitsetHash> index_;
  std::vector<Entry> entries_;
  std::deque<uint32_t> queue_;
  size_t max_entries_ = 5'000'000;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SUBTREE_CLOSURE_H_
