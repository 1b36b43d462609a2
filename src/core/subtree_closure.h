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
// Every state is known by its entry id, and the table is flat: no entry
// owns a heap block. Seeds and values live in two word arenas of one
// stride, the words of a set over the atoms, indexed by entry id; an
// IdIndex hashes and compares the seed words in place, so a lookup builds
// no heap object and a new entry appends its seed to both arenas. Value()
// is a BitView into the value arena. The reverse edges (the entries whose
// closure read an entry) are singly linked lists in one edge arena: a
// closure appends an edge per entry it read, skipping an entry whose stamp
// already names the closing entry, and an entry that grows walks its list,
// sorts it, drops repeats and re-queues the readers in ascending id order.
// The children of entry e are row e of one id array of stride |Sigma|, and
// a closure's child seeds are rows of one word arena, one per symbol. The
// index is reserved up front from the bound of Theorem 4.1 (see the
// constructor), so a small table never rehashes.
//
// Closing one entry is a propositional Horn closure over the local rules.
// The engine compiles them once into items. Child-head rules with the same
// body (eps atoms, context propositions, child atoms) form one item, a
// group, whose heads are (symbol, word, mask) chunks; an eps- or
// context-head rule is an item of its own, numbered in rule order. Each
// item's body is a list of (where, word, mask) words, where is the label,
// the context or one child's label. A closure tests a candidate's whole
// body once, word by word, against the live label, context and children,
// when it consumes the candidate. Candidates come from the items whose
// first eps atom is in the starting label (a watch index), and then from
// reader indexes by body atom: setting a label or context bit, or moving a
// child to an entry whose label gains a bit, offers the items that read it.
// Every local rule reads an eps or a child atom (range restriction), and a
// body only becomes true through such a gain, so no satisfied item is
// missed, and the closure keeps no per-rule state between closures.
//
// The closure keeps the schedule of the sweep formulation exactly: a sweep
// fires every satisfied group, ORing its chunks into the child seeds, then
// looks up each grown seed in ascending symbol order; eps and context
// heads fire in one pass in ascending rule order over the live label and
// context (a min-heap of item ids); a label change restarts from empty
// seeds, and the groups a sweep found satisfied since the last restart are
// offered again. So it demands, reads and emits the same entries in the
// same order as a closure that evaluates every rule in every sweep.
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
/// and the context. `child_label` is any callable SymIdx -> BitView (or
/// const DynamicBitset&). The trunk pass, Verify and the bounded fixpoint
/// use it; ChiEngine tests its compiled body words instead.
template <typename ChildLabelFn>
bool BodySatisfied(const GroundRule& rule, BitView label, BitView ctx,
                   ChildLabelFn&& child_label) {
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
  /// it. It must outlive the engine. Compiles the local rules into items
  /// and indexes them by body atom.
  ChiEngine(const GroundProgram* ground, DynamicBitset* ctx);

  /// Looks up (or creates, with value = seed, and queues) the entry for
  /// the seed whose words are `seed` (a set over the ground atoms).
  uint32_t EntryFor(std::span<const uint64_t> seed);

  /// Current value of an entry. Monotonically grows while the worklist
  /// drains. The view is invalidated by the next table growth.
  BitView Value(uint32_t entry) const {
    return {value_words_.data() + entry * seed_stride_, num_atoms_};
  }

  /// children[s]: the entry whose value is the label of child s of a node
  /// labelled Value(entry). Reading the children of a still-queued entry is
  /// a RELSPEC_CHECK failure unless the engine is frozen; a frozen engine
  /// closes the entry here, once. The span is invalidated by the next table
  /// growth.
  std::span<const uint32_t> Children(uint32_t entry);

  /// Drains the worklist: closes every queued entry, re-queueing the readers
  /// of each entry that grows and every entry when the context grows (here or
  /// since the last drain). Returns true if any value or context bit changed.
  ///
  /// Entries demanded during the drain are queued and closed within it, and
  /// each closure sees every update made before it.
  StatusOr<bool> ProcessAllOnce();

  size_t num_entries() const { return queued_.size(); }

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
  /// One reverse edge: `reader`'s closure read the entry whose list holds
  /// it. `next` is the list's next edge, kNoEdge at its end.
  struct ReaderEdge {
    uint32_t reader;
    uint32_t next;
  };
  static constexpr uint32_t kNoEdge = UINT32_MAX;

  /// Compressed rows: row k holds items[begin[k], begin[k+1]).
  template <typename T>
  struct Rows {
    std::vector<uint32_t> begin;
    std::vector<T> items;
    std::span<const T> operator[](size_t k) const {
      return {items.data() + begin[k], items.data() + begin[k + 1]};
    }
    /// Built in two passes over the items: Size, Count(key) once per item,
    /// Place, Add(key, item) for the same items in the same order, Finish.
    /// Several Rows can be built by the same passes.
    void Size(size_t num_keys) { begin.assign(num_keys + 1, 0); }
    void Count(size_t key) { ++begin[key + 1]; }
    void Place();
    void Add(size_t key, const T& item) { items[begin[key]++] = item; }
    void Finish();
  };

  /// One word of an item's body: the bits `mask` of word `word` of the
  /// label (where = kLabel), the context (kContext) or the label of child
  /// where - kFirstChild.
  struct BodyWord {
    uint32_t where;
    uint32_t word;
    uint64_t mask;
  };
  static constexpr uint32_t kLabel = 0;
  static constexpr uint32_t kContext = 1;
  static constexpr uint32_t kFirstChild = 2;
  /// One word of a group's heads: the bits `mask` of word `word` of child
  /// `sym`'s seed.
  struct HeadChunk {
    SymIdx sym;
    uint32_t word;
    uint64_t mask;
  };

  /// Compiles the local rules into items, their body words and heads, and
  /// the watch and reader indexes.
  void Compile();

  /// Runs the node-local closure for label T: iterates child seeds and
  /// labels to their mutual fixpoint (demanding child seeds from the live
  /// table), fires eps-head additions into T and context emissions into the
  /// shared context. Returns true if it emitted a context bit. On return,
  /// `children` holds the child entries for the final T and `reads` every
  /// entry whose value the closure read.
  bool CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                 std::vector<uint32_t>* reads);
  /// True if every body word of `item` holds in label T, the shared
  /// context and the child labels `children`.
  bool BodyHolds(uint32_t item, const DynamicBitset& T,
                 const std::vector<uint32_t>& children) const;

  /// Closes a dequeued entry, records its children and reverse edges, and
  /// re-queues what its growth invalidates. Returns true on a change.
  bool Close(uint32_t entry);
  /// Runs CloseNode on a copy of the entry's value in `closed_`, with the
  /// children and reads in `children_` and `reads_`, and stores the
  /// children in the entry's row of `child_ids_`.
  bool CloseScratch(uint32_t entry);
  /// Re-queues the readers of `entry` in ascending id order, and rewrites
  /// its edge list in that order without repeats.
  void EnqueueReaders(uint32_t entry);
  /// The words of an entry's seed in `seed_words_`.
  std::span<const uint64_t> Seed(uint32_t entry) const {
    return {seed_words_.data() + entry * seed_stride_, seed_stride_};
  }
  /// Child `s`'s seed in the closure scratch `sweep_words_`.
  uint64_t* SweepSeed(SymIdx s) {
    return sweep_words_.data() + s * seed_stride_;
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
  /// `seed_words_`, and its value the same words of `value_words_`;
  /// `index_` finds an entry by its seed.
  size_t num_atoms_;
  size_t seed_stride_;
  std::vector<uint64_t> seed_words_;
  std::vector<uint64_t> value_words_;
  IdIndex index_;
  /// Per entry: in queue_ (a frozen engine's lazy close clears it and
  /// leaves the id), the first edge of its reader list, and the last entry
  /// that recorded an edge on it (kNoEntry before any).
  std::vector<char> queued_;
  std::vector<uint32_t> first_reader_;
  std::vector<uint32_t> read_stamp_;
  std::vector<ReaderEdge> reader_edges_;
  /// Entry e's children are ids [e * |Sigma|, (e + 1) * |Sigma|) of
  /// `child_ids_`, UINT32_MAX until it is closed.
  std::vector<uint32_t> child_ids_;
  std::deque<uint32_t> queue_;
  size_t max_entries_ = 5'000'000;

  /// The compiled rules. Item i is a group of child-head rules when
  /// head_kind_[i] is kChild, with its heads in heads_[i]; otherwise one
  /// eps- or context-head rule with head id head_id_[i]. Items are numbered
  /// in the order of their first rule.
  std::vector<GroundRule::HeadKind> head_kind_;
  std::vector<uint32_t> head_id_;
  Rows<BodyWord> bodies_;
  Rows<HeadChunk> heads_;
  /// The items by first eps atom: a closure's starting candidates.
  Rows<uint32_t> watch_;
  /// The items by body atom, one per item and atom: readers of each eps
  /// atom, of each context proposition, and (atom, item) per child symbol.
  Rows<uint32_t> eps_readers_;
  Rows<uint32_t> ctx_readers_;
  Rows<std::pair<AtomIdx, uint32_t>> child_readers_;

  // Closure scratch, kept across closures for its allocations.
  /// The label a closure grows, its child entries and the entries it read.
  DynamicBitset closed_;
  std::vector<uint32_t> children_;
  std::vector<uint32_t> reads_;
  /// A grown entry's readers, sorted before they are re-queued.
  std::vector<uint32_t> requeue_;
  DynamicBitset empty_seed_;
  /// Child s's seed is words [s * seed_stride_, (s + 1) * seed_stride_).
  std::vector<uint64_t> sweep_words_;
  /// Symbols whose seed grew: in this sweep (marked in `stale_mark_`), and
  /// since the last restart.
  std::vector<SymIdx> stale_;
  std::vector<char> stale_mark_;
  std::vector<SymIdx> seeded_;
  /// Per item: offered and not yet tested (in child_ready_, up_heap_ or
  /// up_next_), and a group found satisfied since the last restart (in
  /// child_done_).
  std::vector<char> offered_;
  std::vector<char> done_;
  /// Groups offered for the next sweep, and those a sweep of this restart
  /// found satisfied (offered again after a restart).
  std::vector<uint32_t> child_ready_;
  std::vector<uint32_t> child_done_;
  /// Eps- and context-head items offered for the running up pass (a
  /// min-heap) and for the next one.
  std::vector<uint32_t> up_heap_;
  std::vector<uint32_t> up_next_;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SUBTREE_CLOSURE_H_
