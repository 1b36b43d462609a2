#include "src/core/subtree_closure.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

namespace {

/// The child slot of a closure that has not looked up its empty seed yet
/// (an empty label), and of an entry that has not been closed.
constexpr uint32_t kNoEntry = UINT32_MAX;

/// The most entries the chi index is reserved for before the first lookup:
/// 1,024 ids in 2,048 slots, 16 KB.
constexpr size_t kReservedEntries = 1024;

}  // namespace

template <typename T>
void ChiEngine::Rows<T>::Place() {
  // begin[k + 1] held row k's size; now begin[k] is its start, from which
  // Add fills it.
  for (size_t k = 1; k < begin.size(); ++k) begin[k] += begin[k - 1];
  items.resize(begin.back());
}

template <typename T>
void ChiEngine::Rows<T>::Finish() {
  // Add left begin[k] at row k's end, which is row k + 1's start.
  for (size_t k = begin.size() - 1; k > 0; --k) begin[k] = begin[k - 1];
  begin[0] = 0;
}

ChiEngine::ChiEngine(const GroundProgram* ground, DynamicBitset* ctx)
    : ground_(ground),
      ctx_(ctx),
      ctx_seen_(*ctx),
      num_atoms_(ground->num_atoms()),
      seed_stride_(DynamicBitset::NumWords(ground->num_atoms())),
      empty_seed_(ground->num_atoms()),
      sweep_words_(ground->num_symbols() * seed_stride_, 0),
      stale_mark_(ground->num_symbols(), 0) {
  Compile();
  // Every seed is a set of atoms, so the table holds at most 2^|atoms|
  // entries (Theorem 4.1's bound). The index is reserved for that many, up
  // to kReservedEntries, so a small table never rehashes and a large one
  // starts past its smallest sizes.
  index_.Reserve(num_atoms_ < std::bit_width(kReservedEntries)
                     ? size_t{1} << num_atoms_
                     : kReservedEntries);
}

void ChiEngine::Compile() {
  using HeadKind = GroundRule::HeadKind;
  const std::vector<GroundRule>& rules = ground_->local_rules();

  // Items in the order of their first rule; a child-head rule joins the
  // group of the first earlier child-head rule with its body. A new item's
  // body words are the label words, then the context words, then the child
  // words; each id list is ascending, so ids sharing a word are adjacent.
  std::vector<uint32_t> first_rule;
  std::vector<std::pair<uint32_t, std::pair<SymIdx, AtomIdx>>> child_heads;
  IdIndex groups;
  first_rule.reserve(rules.size());
  head_kind_.reserve(rules.size());
  head_id_.reserve(rules.size());
  child_heads.reserve(rules.size());
  groups.Reserve(rules.size());
  bodies_.begin.reserve(rules.size() + 1);
  bodies_.begin.assign(1, 0);
  bodies_.items.reserve(rules.size());
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const GroundRule& rule = rules[r];
    const bool child = rule.head_kind == HeadKind::kChild;
    uint32_t item = IdIndex::kNone;
    const uint64_t hash = child ? GroundBodyHash(rule) : 0;
    if (child) {
      item = groups.Find(hash, [&](uint32_t g) {
        return rules[first_rule[g]].SameBody(rule);
      });
    }
    if (item == IdIndex::kNone) {
      // Range restriction puts a positional atom in every local rule's body,
      // so each item is offered by a label bit or a child move.
      RELSPEC_CHECK(!rule.body_eps.empty() || !rule.body_child.empty())
          << "local rule " << r << " has no eps or child body atom";
      item = static_cast<uint32_t>(first_rule.size());
      first_rule.push_back(r);
      head_kind_.push_back(rule.head_kind);
      head_id_.push_back(child ? 0 : rule.head_id);
      if (child) groups.Insert(hash, item);
      std::vector<BodyWord>& words = bodies_.items;
      auto add = [&](uint32_t where, uint32_t id) {
        const uint32_t word = id / 64;
        const uint64_t bit = uint64_t{1} << (id % 64);
        if (words.size() > bodies_.begin.back() &&
            words.back().where == where && words.back().word == word) {
          words.back().mask |= bit;
        } else {
          words.push_back(BodyWord{where, word, bit});
        }
      };
      for (AtomIdx a : rule.body_eps) add(kLabel, a);
      for (CtxIdx c : rule.body_ctx) add(kContext, c);
      for (const auto& [s, a] : rule.body_child) add(kFirstChild + s, a);
      bodies_.begin.push_back(static_cast<uint32_t>(words.size()));
    }
    if (child) child_heads.push_back({item, {rule.head_sym, rule.head_id}});
  }
  const size_t num_items = first_rule.size();

  // A group's heads, one chunk per (symbol, word) in order of first use.
  // Only a group of several heads looks its chunks up.
  Rows<std::pair<SymIdx, AtomIdx>> group_heads;
  group_heads.Size(num_items);
  for (const auto& [item, head] : child_heads) group_heads.Count(item);
  group_heads.Place();
  for (const auto& [item, head] : child_heads) group_heads.Add(item, head);
  group_heads.Finish();
  IdIndex chunk_index;
  heads_.begin.reserve(num_items + 1);
  heads_.begin.assign(1, 0);
  heads_.items.reserve(child_heads.size());
  for (uint32_t item = 0; item < num_items; ++item) {
    const auto row = group_heads[item];
    const size_t first = heads_.items.size();
    for (const auto& [sym, atom] : row) {
      const uint32_t word = atom / 64;
      const uint64_t hash =
          (uint64_t{item} << 32) ^ (uint64_t{sym} << 16) ^ word;
      uint32_t c = IdIndex::kNone;
      if (row.size() > 1) {
        c = chunk_index.Find(hash, [&](uint32_t k) {
          return k >= first && heads_.items[k].sym == sym &&
                 heads_.items[k].word == word;
        });
      }
      if (c == IdIndex::kNone) {
        c = static_cast<uint32_t>(heads_.items.size());
        heads_.items.push_back(HeadChunk{sym, word, 0});
        if (row.size() > 1) chunk_index.Insert(hash, c);
      }
      heads_.items[c].mask |= uint64_t{1} << (atom % 64);
    }
    heads_.begin.push_back(static_cast<uint32_t>(heads_.items.size()));
  }

  // The watch and reader indexes, read off the body words: one pass sizes
  // their rows, a second fills them.
  auto for_each_reader = [&](auto&& add) {
    for (uint32_t item = 0; item < num_items; ++item) {
      const std::span<const BodyWord> body = bodies_[item];
      const BodyWord& first = body.front();
      if (first.where == kLabel) {
        add(watch_, first.word * 64 + std::countr_zero(first.mask), item);
      }
      for (const BodyWord& w : body) {
        for (uint64_t bits = w.mask; bits != 0; bits &= bits - 1) {
          const uint32_t id = w.word * 64 + std::countr_zero(bits);
          if (w.where == kLabel) {
            add(eps_readers_, id, item);
          } else if (w.where == kContext) {
            add(ctx_readers_, id, item);
          } else {
            add(child_readers_, w.where - kFirstChild,
                std::pair<AtomIdx, uint32_t>(id, item));
          }
        }
      }
    }
  };
  watch_.Size(ground_->num_atoms());
  eps_readers_.Size(ground_->num_atoms());
  ctx_readers_.Size(ground_->num_ctx());
  child_readers_.Size(ground_->num_symbols());
  for_each_reader([](auto& rows, size_t key, const auto&) { rows.Count(key); });
  watch_.Place();
  eps_readers_.Place();
  ctx_readers_.Place();
  child_readers_.Place();
  for_each_reader(
      [](auto& rows, size_t key, const auto& item) { rows.Add(key, item); });
  watch_.Finish();
  eps_readers_.Finish();
  ctx_readers_.Finish();
  child_readers_.Finish();
  offered_.assign(num_items, 0);
  done_.assign(num_items, 0);
}

uint32_t ChiEngine::EntryFor(std::span<const uint64_t> words) {
  RELSPEC_COUNTER("chi.lookups");
  assert(words.size() == seed_stride_);
  const uint64_t hash = BitView(words.data(), num_atoms_).Hash();
  uint32_t id = index_.Find(hash, [&](uint32_t e) {
    return std::equal(words.begin(), words.end(), Seed(e).begin());
  });
  if (id != IdIndex::kNone) {
    RELSPEC_COUNTER("chi.hits");
    return id;
  }
  RELSPEC_COUNTER("chi.misses");
  id = static_cast<uint32_t>(queued_.size());
  // The value starts as a copy of the new seed, read from the seed arena:
  // `words` may be a view into the value arena, which the append moves.
  seed_words_.insert(seed_words_.end(), words.begin(), words.end());
  value_words_.insert(value_words_.end(), seed_words_.end() - seed_stride_,
                      seed_words_.end());
  queued_.push_back(1);
  first_reader_.push_back(kNoEdge);
  read_stamp_.push_back(kNoEntry);
  child_ids_.resize(child_ids_.size() + ground_->num_symbols(), kNoEntry);
  index_.Insert(hash, id);
  queue_.push_back(id);
  return id;
}

void ChiEngine::Enqueue(uint32_t entry) {
  if (queued_[entry]) return;
  queued_[entry] = 1;
  queue_.push_back(entry);
}

void ChiEngine::EnqueueAll() {
  for (uint32_t i = 0; i < queued_.size(); ++i) Enqueue(i);
}

bool ChiEngine::BodyHolds(uint32_t item, const DynamicBitset& T,
                          const std::vector<uint32_t>& children) const {
  const uint64_t* label = T.words().data();
  const uint64_t* ctx = ctx_->words().data();
  for (const BodyWord& w : bodies_[item]) {
    uint64_t have;
    if (w.where == kLabel) {
      have = label[w.word];
    } else if (w.where == kContext) {
      have = ctx[w.word];
    } else {
      have = value_words_[children[w.where - kFirstChild] * seed_stride_ +
                          w.word];
    }
    if ((have & w.mask) != w.mask) return false;
  }
  return true;
}

bool ChiEngine::CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                          std::vector<uint32_t>* reads) {
  RELSPEC_COUNTER("chi.close_node_calls");
  using HeadKind = GroundRule::HeadKind;
  const size_t num_syms = ground_->num_symbols();
  // Work counters: a visit tests one item's body; a firing sets a bit.
  uint64_t visits = 0;
  uint64_t firings = 0;
  // A group's firings are a popcount, a library call on the baseline ISA,
  // so they are counted only when the counter records them.
  const bool count_firings = MetricsEnabled();
  bool emitted = false;

  auto head_set = [&](uint32_t item) {
    return head_kind_[item] == HeadKind::kEps ? T->Test(head_id_[item])
                                              : ctx_->Test(head_id_[item]);
  };
  // An offered item waits for its phase. A group waits for the next sweep.
  // An eps- or context-head item offered during the up pass, past the item
  // at `up_pos`, joins that pass, as the ascending scan would still reach
  // it; any other waits for the next. Outside the up pass `up_pos` is past
  // every item. An item whose head is set never fires again in this
  // closure, so it is not offered.
  uint32_t up_pos = UINT32_MAX;
  auto offer = [&](uint32_t item) {
    if (offered_[item]) return;
    if (head_kind_[item] == HeadKind::kChild) {
      child_ready_.push_back(item);
    } else if (head_set(item)) {
      return;
    } else if (item > up_pos) {
      up_heap_.push_back(item);
      std::push_heap(up_heap_.begin(), up_heap_.end(), std::greater<>());
    } else {
      up_next_.push_back(item);
    }
    offered_[item] = 1;
  };
  // Moves child `s` to entry `to` and offers the items that read a bit of
  // child `s` that the new label has and the old one lacked.
  auto move_child = [&](SymIdx s, uint32_t to) {
    const uint32_t from = (*children)[s];
    (*children)[s] = to;
    if (from == to || child_readers_[s].empty()) return;
    const BitView now = Value(to);
    const BitView had = from == kNoEntry ? BitView(empty_seed_) : Value(from);
    if (now.IsSubsetOf(had)) return;
    for (const auto& [a, item] : child_readers_[s]) {
      if (now.Test(a) && !had.Test(a)) offer(item);
    }
  };

  T->ForEach([&](size_t a) {
    for (uint32_t item : watch_[a]) offer(item);
  });
  children->assign(num_syms, kNoEntry);
  while (true) {
    // Every child starts at the empty seed's entry. Values are viewed only
    // between lookups, so the value arena does not move under them.
    if (num_syms > 0) {
      uint32_t empty = EntryFor(empty_seed_.words());
      reads->push_back(empty);
      for (SymIdx s = 0; s < num_syms; ++s) move_child(s, empty);
    }
    for (SymIdx s : seeded_) std::fill_n(SweepSeed(s), seed_stride_, 0);
    seeded_.clear();
    // The seeds restart empty, so the groups a sweep found satisfied before
    // the restart fire again if they still hold.
    for (uint32_t g : child_done_) {
      done_[g] = 0;
      offer(g);
    }
    child_done_.clear();

    // Mutual fixpoint of child seeds and child labels given the node label:
    // each sweep fires every offered group whose body holds, then looks up
    // each seed that grew and moves its child to the new entry.
    while (true) {
      for (uint32_t g : child_ready_) {
        offered_[g] = 0;
        ++visits;
        if (!BodyHolds(g, *T, *children)) continue;
        if (!done_[g]) {
          done_[g] = 1;
          child_done_.push_back(g);
        }
        for (const HeadChunk& head : heads_[g]) {
          uint64_t& word = SweepSeed(head.sym)[head.word];
          const uint64_t added = head.mask & ~word;
          if (added == 0) continue;
          word |= head.mask;
          if (count_firings) {
            firings += static_cast<uint64_t>(std::popcount(added));
          }
          if (!stale_mark_[head.sym]) {
            stale_mark_[head.sym] = 1;
            stale_.push_back(head.sym);
          }
        }
      }
      child_ready_.clear();
      if (stale_.empty()) break;
      std::sort(stale_.begin(), stale_.end());
      for (SymIdx s : stale_) {
        stale_mark_[s] = 0;
        uint32_t e = EntryFor({SweepSeed(s), seed_stride_});
        reads->push_back(e);
        move_child(s, e);
      }
      seeded_.insert(seeded_.end(), stale_.begin(), stale_.end());
      stale_.clear();
    }

    // Up-propagation into the node label and existential context emissions,
    // in ascending rule order over the live label and context.
    up_heap_.swap(up_next_);
    up_next_.clear();
    std::make_heap(up_heap_.begin(), up_heap_.end(), std::greater<>());
    bool t_changed = false;
    while (!up_heap_.empty()) {
      std::pop_heap(up_heap_.begin(), up_heap_.end(), std::greater<>());
      const uint32_t r = up_heap_.back();
      up_heap_.pop_back();
      up_pos = r;
      offered_[r] = 0;
      if (head_set(r)) continue;
      ++visits;
      if (!BodyHolds(r, *T, *children)) continue;
      const uint32_t head = head_id_[r];
      if (head_kind_[r] == HeadKind::kEps) {
        T->Set(head);
        for (uint32_t reader : eps_readers_[head]) offer(reader);
        t_changed = true;
      } else {
        ctx_->Set(head);
        for (uint32_t reader : ctx_readers_[head]) offer(reader);
        emitted = true;
      }
      ++firings;
    }
    up_pos = UINT32_MAX;
    if (!t_changed) break;
  }

  // A context emission in the last up pass may leave groups offered, and
  // items offered for a next pass that does not run.
  for (uint32_t item : child_ready_) offered_[item] = 0;
  for (uint32_t item : up_next_) offered_[item] = 0;
  for (uint32_t g : child_done_) done_[g] = 0;
  child_ready_.clear();
  up_next_.clear();
  child_done_.clear();
  RELSPEC_COUNTER_ADD("chi.rule_visits", visits);
  RELSPEC_COUNTER_ADD("chi.rule_firings", firings);
  return emitted;
}

bool ChiEngine::CloseScratch(uint32_t entry) {
  closed_.Assign(Value(entry));
  reads_.clear();
  const bool emitted = CloseNode(&closed_, &children_, &reads_);
  std::copy(children_.begin(), children_.end(),
            child_ids_.begin() + entry * ground_->num_symbols());
  return emitted;
}

void ChiEngine::EnqueueReaders(uint32_t entry) {
  requeue_.clear();
  for (uint32_t e = first_reader_[entry]; e != kNoEdge;
       e = reader_edges_[e].next) {
    requeue_.push_back(reader_edges_[e].reader);
  }
  std::sort(requeue_.begin(), requeue_.end());
  requeue_.erase(std::unique(requeue_.begin(), requeue_.end()),
                 requeue_.end());
  // The list keeps its first requeue_.size() edges, now in ascending order;
  // the rest stay in the arena, unlinked.
  uint32_t e = first_reader_[entry];
  for (size_t i = 0; i < requeue_.size(); ++i) {
    reader_edges_[e].reader = requeue_[i];
    if (i + 1 == requeue_.size()) reader_edges_[e].next = kNoEdge;
    e = reader_edges_[e].next;
  }
  for (uint32_t r : requeue_) Enqueue(r);
}

bool ChiEngine::Close(uint32_t entry) {
  bool emitted = CloseScratch(entry);
  // An entry whose stamp names this one already lists it as a reader:
  // this closure read it before, or the entry's last closure did.
  for (uint32_t r : reads_) {
    if (read_stamp_[r] == entry) continue;
    read_stamp_[r] = entry;
    reader_edges_.push_back(ReaderEdge{entry, first_reader_[r]});
    first_reader_[r] = static_cast<uint32_t>(reader_edges_.size() - 1);
  }
  bool changed = emitted;
  uint64_t* value = value_words_.data() + entry * seed_stride_;
  const std::span<const uint64_t> closed = closed_.words();
  if (!std::equal(closed.begin(), closed.end(), value)) {
    std::copy(closed.begin(), closed.end(), value);
    changed = true;
    EnqueueReaders(entry);
  }
  if (emitted) {
    ctx_seen_ = *ctx_;
    EnqueueAll();
  }
  return changed;
}

StatusOr<bool> ChiEngine::ProcessAllOnce() {
  RELSPEC_COUNTER("chi.passes");
  RELSPEC_SCOPED_TIMER("chi.pass_ns");
  // Before any breach point, so that at every breach an entry that is not
  // queued is closed under the current context.
  if (*ctx_ != ctx_seen_) {
    ctx_seen_ = *ctx_;
    EnqueueAll();
  }
  RELSPEC_FAILPOINT("chi.pass");
  bool changed = false;
  while (!queue_.empty()) {
    RELSPEC_COUNTER("chi.entries_processed");
    if (num_entries() > max_entries_) {
      return Status::ResourceExhausted(
          StrFormat("chi table exceeded max_entries=%zu", max_entries_));
    }
    if (governor_ != nullptr) {
      RELSPEC_RETURN_NOT_OK(governor_->CheckNodes(num_entries()));
    }
    uint32_t entry = queue_.front();
    queue_.pop_front();
    queued_[entry] = 0;
    changed |= Close(entry);
  }
  return changed;
}

std::span<const uint32_t> ChiEngine::Children(uint32_t entry) {
  if (queued_[entry]) {
    // At convergence the worklist is drained. A frozen engine serves a
    // truncated (interrupted) fixpoint, so it closes the entry now. It keeps
    // the value, since labels already served must not change, and leaves
    // the id in the queue, which a frozen engine never drains again.
    RELSPEC_CHECK(frozen_)
        << "children of chi entry " << entry
        << " read before the fixpoint converged: seed="
        << DynamicBitset(ground_->num_atoms(), Seed(entry)).ToString();
    CloseScratch(entry);
    queued_[entry] = 0;
  }
  const size_t k = ground_->num_symbols();
  return {child_ids_.data() + entry * k, k};
}

}  // namespace relspec