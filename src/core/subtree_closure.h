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
// Every state is known by its entry id. The seeds live once, in a word arena
// the id indexes, behind an IdIndex that hashes and compares arena words in
// place: a lookup builds no heap object, and only a new entry copies its
// seed.
//
// Closing one entry is a propositional Horn closure over the local rules,
// run as Dowling–Gallier's counter algorithm. The engine indexes the local
// rules once by body atom (eps atom, context proposition, child symbol) and
// keeps per rule a count of its unsatisfied body atoms, whose context part
// is cached across closures and follows the shared context as it grows.
// Setting a label bit, emitting a context bit or moving a child to another
// entry (whose label may lack bits the old one had, so counts can rise)
// touches only the rules that read it, and a rule whose count reaches 0 is
// ready. The closure keeps the schedule of the sweep formulation exactly —
// child-head rules fire at sweep boundaries, where each grown seed is looked
// up; eps and context heads fire in one pass in ascending rule order over
// the live label and context; a label change restarts from empty seeds — so
// it demands, reads and emits the same entries in the same order. Counts of
// the rules a closure touched are restored from the cache when it ends.
//
// Existential rules (heads that are context propositions) fire during entry
// processing into the shared context bitset; this is sound because every
// demanded seed under-approximates the final seed of a real tree node.

#ifndef RELSPEC_CORE_SUBTREE_CLOSURE_H_
#define RELSPEC_CORE_SUBTREE_CLOSURE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/id_index.h"
#include "src/base/status.h"
#include "src/core/ground.h"

namespace relspec {

class ResourceGovernor;

/// Evaluates a ground rule body against a node label, its children's labels
/// and the context. `child_label` is any callable SymIdx -> const
/// DynamicBitset&. The trunk pass, Verify and the bounded fixpoint use it;
/// ChiEngine counts satisfied body atoms instead.
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
  /// it. It must outlive the engine. Indexes the local rules by body atom.
  ChiEngine(const GroundProgram* ground, DynamicBitset* ctx);

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
    DynamicBitset value;
    /// Child entry per symbol from the latest closure; empty until closed.
    std::vector<uint32_t> children;
    /// Entries whose closure read this one, ascending: re-queued when this
    /// value grows.
    std::vector<uint32_t> readers;
    /// In queue_. A frozen engine's lazy close clears it and leaves the id.
    bool queued = true;
  };

  /// Compressed rows: row k holds items[begin[k], begin[k+1]).
  template <typename T>
  struct Rows {
    std::vector<uint32_t> begin;
    std::vector<T> items;
    std::span<const T> operator[](size_t k) const {
      return {items.data() + begin[k], items.data() + begin[k + 1]};
    }
    /// Calls `for_each(add)` twice, once to size the rows and once to fill
    /// them; `add(key, item)` appends `item` to row `key`.
    template <typename ForEach>
    void Build(size_t num_keys, ForEach&& for_each);
  };

  /// Runs the node-local closure for label T: iterates child seeds and
  /// labels to their mutual fixpoint (demanding child seeds from the live
  /// table), fires eps-head additions into T and context emissions into the
  /// shared context. Returns true if it emitted a context bit. On return,
  /// `children` holds the child entries for the final T and `reads` every
  /// entry whose value the closure read.
  bool CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                 std::vector<uint32_t>* reads);
  /// Brings the cached context counts up to the shared context, which the
  /// trunk steps grow between drains. Runs between closures.
  void SyncContextCounts(uint64_t* visits);

  /// Closes a dequeued entry, records its children and reverse edges, and
  /// re-queues what its growth invalidates. Returns true on a change.
  bool Close(uint32_t entry);
  /// Runs CloseNode on a copy of the entry's value in `closed_`, with the
  /// children and reads in `children_` and `reads_`.
  bool CloseScratch(uint32_t entry);
  /// The words of an entry's seed in `seed_words_`.
  std::span<const uint64_t> Seed(uint32_t entry) const {
    return {seed_words_.data() + entry * seed_stride_, seed_stride_};
  }
  void Enqueue(uint32_t entry);
  void EnqueueAll();

  const GroundProgram* ground_;
  DynamicBitset* ctx_;
  /// The context every closed entry has seen; a drain that finds the
  /// context grown since re-queues every entry.
  DynamicBitset ctx_seen_;
  ResourceGovernor* governor_ = nullptr;
  bool frozen_ = false;
  /// Entry e's seed is words [e * seed_stride_, (e + 1) * seed_stride_) of
  /// `seed_words_`; `index_` finds an entry by its seed.
  size_t seed_stride_;
  std::vector<uint64_t> seed_words_;
  IdIndex index_;
  std::vector<Entry> entries_;
  std::deque<uint32_t> queue_;
  size_t max_entries_ = 5'000'000;

  /// The local rules by body atom, one item per occurrence: readers of each
  /// eps atom, of each context proposition, and (atom, rule) per child
  /// symbol.
  Rows<uint32_t> eps_readers_;
  Rows<uint32_t> ctx_readers_;
  Rows<std::pair<AtomIdx, uint32_t>> child_readers_;
  /// Per local rule: its eps and child atoms plus the context atoms that
  /// `ctx_counted_` lacks. A closure works on `count_`, which equals
  /// `base_` between closures.
  std::vector<uint32_t> base_;
  std::vector<uint32_t> count_;
  /// The context `base_` counts.
  DynamicBitset ctx_counted_;
  /// Rules whose base count is 0, ready at the start of every closure.
  std::vector<uint32_t> base_ready_;

  // Closure scratch, kept across closures for its allocations.
  /// The label a closure grows, its child entries and the entries it read.
  DynamicBitset closed_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> reads_;
  /// Rules whose count this closure changed, restored to `base_` at its end.
  std::vector<char> touched_;
  std::vector<uint32_t> touched_rules_;
  DynamicBitset empty_seed_;
  std::vector<DynamicBitset> seeds_;
  /// Symbols whose seed grew: in this sweep (marked in `stale_mark_`), and
  /// since the last restart.
  std::vector<SymIdx> stale_;
  std::vector<char> stale_mark_;
  std::vector<SymIdx> seeded_;
  /// Child-head rules that reached count 0 since the last sweep, and those
  /// a sweep of this restart found at 0 (to fire again after a restart).
  std::vector<uint32_t> child_ready_;
  std::vector<uint32_t> child_done_;
  /// Eps- and context-head rules ready for the running up pass (a min-heap)
  /// and for the next one.
  std::vector<uint32_t> up_heap_;
  std::vector<uint32_t> up_next_;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SUBTREE_CLOSURE_H_
