#include "src/core/subtree_closure.h"

#include <algorithm>
#include <utility>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

uint32_t ChiEngine::EntryFor(const DynamicBitset& seed) {
  RELSPEC_COUNTER("chi.lookups");
  auto it = index_.find(seed);
  if (it != index_.end()) {
    RELSPEC_COUNTER("chi.hits");
    return it->second;
  }
  RELSPEC_COUNTER("chi.misses");
  uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{seed, seed, {}, {}, true});
  index_.emplace(seed, id);
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

bool ChiEngine::CloseNode(DynamicBitset* T, std::vector<uint32_t>* children,
                          std::vector<uint32_t>* reads) {
  RELSPEC_COUNTER("chi.close_node_calls");
  const size_t num_syms = ground_->num_symbols();
  const size_t num_atoms = ground_->num_atoms();
  bool emitted = false;
  // Values are read by reference: no entry is demanded while rules are
  // evaluated, so entries_ does not move under them.
  auto child_label = [&](SymIdx s) -> const DynamicBitset& {
    return entries_[(*children)[s]].value;
  };

  while (true) {
    // Mutual fixpoint of child seeds and child labels given the node label.
    // Only a seed that grew in the last sweep is looked up again.
    std::vector<DynamicBitset> seeds(num_syms, DynamicBitset(num_atoms));
    std::vector<char> stale(num_syms, 1);
    children->assign(num_syms, 0);
    bool seeds_changed = true;
    while (seeds_changed) {
      seeds_changed = false;
      for (size_t f = 0; f < num_syms; ++f) {
        if (!stale[f]) continue;
        (*children)[f] = EntryFor(seeds[f]);
        reads->push_back((*children)[f]);
        stale[f] = 0;
      }
      for (const GroundRule& rule : ground_->local_rules()) {
        if (rule.head_kind != GroundRule::HeadKind::kChild) continue;
        if (seeds[rule.head_sym].Test(rule.head_id)) continue;
        if (BodySatisfied(rule, *T, *ctx_, child_label)) {
          seeds[rule.head_sym].Set(rule.head_id);
          stale[rule.head_sym] = 1;
          seeds_changed = true;
        }
      }
    }

    // Up-propagation into the node label and existential context emissions.
    bool t_changed = false;
    for (const GroundRule& rule : ground_->local_rules()) {
      if (rule.head_kind == GroundRule::HeadKind::kChild) continue;
      bool is_eps = rule.head_kind == GroundRule::HeadKind::kEps;
      if (is_eps && T->Test(rule.head_id)) continue;
      if (!is_eps && ctx_->Test(rule.head_id)) continue;
      if (BodySatisfied(rule, *T, *ctx_, child_label)) {
        if (is_eps) {
          T->Set(rule.head_id);
          t_changed = true;
        } else {
          ctx_->Set(rule.head_id);
          emitted = true;
        }
      }
    }
    if (!t_changed) break;
  }
  return emitted;
}

bool ChiEngine::Close(uint32_t entry) {
  DynamicBitset T = entries_[entry].value;
  std::vector<uint32_t> children;
  std::vector<uint32_t> reads;
  bool emitted = CloseNode(&T, &children, &reads);
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  for (uint32_t r : reads) {
    std::vector<uint32_t>& readers = entries_[r].readers;
    auto it = std::lower_bound(readers.begin(), readers.end(), entry);
    if (it == readers.end() || *it != entry) readers.insert(it, entry);
  }
  Entry& e = entries_[entry];
  e.children = std::move(children);
  bool changed = emitted;
  if (T != e.value) {
    e.value = std::move(T);
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
        << entries_[entry].seed.ToString();
    DynamicBitset T = entries_[entry].value;
    std::vector<uint32_t> children;
    std::vector<uint32_t> reads;
    CloseNode(&T, &children, &reads);
    entries_[entry].children = std::move(children);
    entries_[entry].queued = false;
  }
  return entries_[entry].children;
}

}  // namespace relspec
