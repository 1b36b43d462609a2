#include "src/core/subtree_closure.h"

#include <algorithm>
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

/// The child slot of a closure that has not looked up its empty seed yet:
/// an empty label.
constexpr uint32_t kNoEntry = UINT32_MAX;

}  // namespace

template <typename T>
template <typename ForEach>
void ChiEngine::Rows<T>::Build(size_t num_keys, ForEach&& for_each) {
  begin.assign(num_keys + 1, 0);
  for_each([&](size_t key, const T&) { ++begin[key + 1]; });
  for (size_t k = 0; k < num_keys; ++k) begin[k + 1] += begin[k];
  items.resize(begin[num_keys]);
  std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
  for_each([&](size_t key, const T& item) { items[fill[key]++] = item; });
}

ChiEngine::ChiEngine(const GroundProgram* ground, DynamicBitset* ctx)
    : ground_(ground),
      ctx_(ctx),
      ctx_seen_(*ctx),
      seed_stride_(DynamicBitset::NumWords(ground->num_atoms())),
      ctx_counted_(ground->num_ctx()),
      empty_seed_(ground->num_atoms()),
      seeds_(ground->num_symbols(), DynamicBitset(ground->num_atoms())),
      stale_mark_(ground->num_symbols(), 0) {
  const std::vector<GroundRule>& rules = ground->local_rules();
  eps_readers_.Build(ground->num_atoms(), [&](auto&& add) {
    for (uint32_t r = 0; r < rules.size(); ++r) {
      for (AtomIdx a : rules[r].body_eps) add(a, r);
    }
  });
  ctx_readers_.Build(ground->num_ctx(), [&](auto&& add) {
    for (uint32_t r = 0; r < rules.size(); ++r) {
      for (CtxIdx c : rules[r].body_ctx) add(c, r);
    }
  });
  child_readers_.Build(ground->num_symbols(), [&](auto&& add) {
    for (uint32_t r = 0; r < rules.size(); ++r) {
      for (const auto& [sym, a] : rules[r].body_child) {
        add(sym, std::pair<AtomIdx, uint32_t>(a, r));
      }
    }
  });
  base_.resize(rules.size());
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const GroundRule& rule = rules[r];
    base_[r] = static_cast<uint32_t>(
        rule.body_eps.size() + rule.body_child.size() + rule.body_ctx.size());
    if (base_[r] == 0) base_ready_.push_back(r);
  }
  count_ = base_;
  touched_.assign(rules.size(), 0);
}

uint32_t ChiEngine::EntryFor(const DynamicBitset& seed) {
  RELSPEC_COUNTER("chi.lookups");
  assert(seed.size() == ground_->num_atoms());
  const std::span<const uint64_t> words = seed.words();
  const uint64_t hash = seed.Hash();
  uint32_t id = index_.Find(hash, [&](uint32_t e) {
    return std::equal(words.begin(), words.end(), Seed(e).begin());
  });
  if (id != IdIndex::kNone) {
    RELSPEC_COUNTER("chi.hits");
    return id;
  }
  RELSPEC_COUNTER("chi.misses");
  id = static_cast<uint32_t>(entries_.size());
  seed_words_.insert(seed_words_.end(), words.begin(), words.end());
  entries_.push_back(Entry{seed, {}, {}, true});
  index_.Insert(hash, id);
  queue_.push_back(id);
  return id;
}

void ChiEngine::Enqueue(uint32_t entry) {
  if (entries_[entry].queued) return;
  entries_[entry].queued = true;
  queue_.push_back(entry);
}

void ChiEngine::EnqueueAll() {
  for (uint32_t i = 0; i < entries_.size(); ++i) Enqueue(i);
}

void ChiEngine::SyncContextCounts(uint64_t* visits) {
  if (*ctx_ == ctx_counted_) return;
  DynamicBitset grown = *ctx_;
  grown.SubtractWith(ctx_counted_);
  grown.ForEach([&](size_t c) {
    for (uint32_t r : ctx_readers_[c]) {
      ++*visits;
      count_[r] = --base_[r];
      if (base_[r] == 0) base_ready_.push_back(r);
    }
  });
  ctx_counted_ = *ctx_;
}

bool ChiEngine::CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                          std::vector<uint32_t>* reads) {
  RELSPEC_COUNTER("chi.close_node_calls");
  using HeadKind = GroundRule::HeadKind;
  const std::vector<GroundRule>& rules = ground_->local_rules();
  const size_t num_syms = ground_->num_symbols();
  // Work counters: a visit reads or writes one rule's count (decrements,
  // increments, context-cache updates, ready checks and the final restore);
  // a firing sets a bit.
  uint64_t visits = 0;
  uint64_t firings = 0;
  bool emitted = false;
  SyncContextCounts(&visits);
  child_ready_.clear();
  child_done_.clear();
  up_heap_.clear();
  up_next_.clear();

  // A rule whose count reaches 0 waits for its phase. An up rule that does
  // so during the up pass, past the rule at `up_pos`, joins that pass, as
  // the ascending scan would still reach it; any other waits for the next.
  // Outside the up pass `up_pos` is past every rule.
  uint32_t up_pos = UINT32_MAX;
  auto ready = [&](uint32_t r) {
    if (rules[r].head_kind == HeadKind::kChild) {
      child_ready_.push_back(r);
    } else if (r > up_pos) {
      up_heap_.push_back(r);
      std::push_heap(up_heap_.begin(), up_heap_.end(), std::greater<>());
    } else {
      up_next_.push_back(r);
    }
  };
  auto touch = [&](uint32_t r) {
    ++visits;
    if (!touched_[r]) {
      touched_[r] = 1;
      touched_rules_.push_back(r);
    }
  };
  auto satisfy = [&](uint32_t r) {
    touch(r);
    if (--count_[r] == 0) ready(r);
  };
  auto set_label_bit = [&](size_t a) {
    for (uint32_t r : eps_readers_[a]) satisfy(r);
  };
  // Moves child `s` to entry `to` and applies the label diff to the rules
  // that read child `s`: a bit the new label lacks raises a count.
  auto move_child = [&](SymIdx s, uint32_t to) {
    uint32_t from = (*children)[s];
    (*children)[s] = to;
    if (from == to) return;
    const DynamicBitset& now = entries_[to].value;
    for (const auto& [a, r] : child_readers_[s]) {
      bool had = from != kNoEntry && entries_[from].value.Test(a);
      if (had == now.Test(a)) continue;
      if (had) {
        touch(r);
        ++count_[r];
      } else {
        satisfy(r);
      }
    }
  };

  for (uint32_t r : base_ready_) ready(r);
  T->ForEach(set_label_bit);
  children->assign(num_syms, kNoEntry);
  while (true) {
    // Every child starts at the empty seed's entry. Values are read by
    // reference only between lookups, so entries_ does not move under them.
    if (num_syms > 0) {
      uint32_t empty = EntryFor(empty_seed_);
      reads->push_back(empty);
      for (SymIdx s = 0; s < num_syms; ++s) move_child(s, empty);
    }
    for (SymIdx s : seeded_) seeds_[s].Clear();
    seeded_.clear();
    // The seeds restart empty, so the child rules a sweep found at 0 before
    // the restart fire again if they still hold.
    child_ready_.insert(child_ready_.end(), child_done_.begin(),
                        child_done_.end());
    child_done_.clear();

    // Mutual fixpoint of child seeds and child labels given the node label:
    // each sweep fires every ready child rule, then looks up each seed that
    // grew and moves its child to the new entry.
    while (true) {
      for (uint32_t r : child_ready_) {
        ++visits;
        if (count_[r] != 0) continue;
        child_done_.push_back(r);
        const GroundRule& rule = rules[r];
        DynamicBitset& seed = seeds_[rule.head_sym];
        if (seed.Test(rule.head_id)) continue;
        seed.Set(rule.head_id);
        if (!stale_mark_[rule.head_sym]) {
          stale_mark_[rule.head_sym] = 1;
          stale_.push_back(rule.head_sym);
        }
        ++firings;
      }
      child_ready_.clear();
      if (stale_.empty()) break;
      std::sort(stale_.begin(), stale_.end());
      for (SymIdx s : stale_) {
        stale_mark_[s] = 0;
        uint32_t e = EntryFor(seeds_[s]);
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
      uint32_t r = up_heap_.back();
      up_heap_.pop_back();
      up_pos = r;
      ++visits;
      if (count_[r] != 0) continue;
      const GroundRule& rule = rules[r];
      if (rule.head_kind == HeadKind::kEps) {
        if (T->Test(rule.head_id)) continue;
        T->Set(rule.head_id);
        set_label_bit(rule.head_id);
        t_changed = true;
      } else {
        if (ctx_->Test(rule.head_id)) continue;
        ctx_->Set(rule.head_id);
        ctx_counted_.Set(rule.head_id);
        for (uint32_t reader : ctx_readers_[rule.head_id]) {
          ++visits;
          if (--base_[reader] == 0) base_ready_.push_back(reader);
          if (--count_[reader] == 0) ready(reader);
        }
        emitted = true;
      }
      ++firings;
    }
    up_pos = UINT32_MAX;
    if (!t_changed) break;
  }

  for (uint32_t r : touched_rules_) {
    count_[r] = base_[r];
    touched_[r] = 0;
  }
  visits += touched_rules_.size();
  touched_rules_.clear();
  RELSPEC_COUNTER_ADD("chi.rule_visits", visits);
  RELSPEC_COUNTER_ADD("chi.rule_firings", firings);
  return emitted;
}

bool ChiEngine::CloseScratch(uint32_t entry) {
  closed_ = entries_[entry].value;
  reads_.clear();
  return CloseNode(&closed_, &children_, &reads_);
}

bool ChiEngine::Close(uint32_t entry) {
  bool emitted = CloseScratch(entry);
  std::sort(reads_.begin(), reads_.end());
  reads_.erase(std::unique(reads_.begin(), reads_.end()), reads_.end());
  for (uint32_t r : reads_) {
    std::vector<uint32_t>& readers = entries_[r].readers;
    auto it = std::lower_bound(readers.begin(), readers.end(), entry);
    if (it == readers.end() || *it != entry) readers.insert(it, entry);
  }
  // Both assignments reuse the entry's storage once it has been closed: the
  // children hold |Sigma| ids and the value keeps its universe.
  Entry& e = entries_[entry];
  e.children.assign(children_.begin(), children_.end());
  bool changed = emitted;
  if (closed_ != e.value) {
    e.value = closed_;
    changed = true;
    for (uint32_t r : e.readers) Enqueue(r);
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
    if (entries_.size() > max_entries_) {
      return Status::ResourceExhausted(
          StrFormat("chi table exceeded max_entries=%zu", max_entries_));
    }
    if (governor_ != nullptr) {
      RELSPEC_RETURN_NOT_OK(governor_->CheckNodes(entries_.size()));
    }
    uint32_t entry = queue_.front();
    queue_.pop_front();
    entries_[entry].queued = false;
    changed |= Close(entry);
  }
  return changed;
}

const std::vector<uint32_t>& ChiEngine::Children(uint32_t entry) {
  if (entries_[entry].queued) {
    // At convergence the worklist is drained. A frozen engine serves a
    // truncated (interrupted) fixpoint, so it closes the entry now. It keeps
    // the value, since labels already served must not change, and leaves
    // the id in the queue, which a frozen engine never drains again.
    RELSPEC_CHECK(frozen_)
        << "children of chi entry " << entry
        << " read before the fixpoint converged: seed="
        << DynamicBitset(ground_->num_atoms(), Seed(entry)).ToString();
    CloseScratch(entry);
    entries_[entry].children.assign(children_.begin(), children_.end());
    entries_[entry].queued = false;
  }
  return entries_[entry].children;
}

}  // namespace relspec
