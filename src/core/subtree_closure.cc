#include "src/core/subtree_closure.h"

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
  entries_.push_back(Entry{seed, seed});
  index_.emplace(seed, id);
  return id;
}

bool ChiEngine::CloseNode(DynamicBitset* T,
                          std::vector<DynamicBitset>* child_labels) {
  RELSPEC_COUNTER("chi.close_node_calls");
  const size_t num_syms = ground_->num_symbols();
  const size_t num_atoms = ground_->num_atoms();
  bool changed = false;

  while (true) {
    // Mutual fixpoint of child seeds and child labels given the node label.
    std::vector<DynamicBitset> seeds(num_syms, DynamicBitset(num_atoms));
    child_labels->assign(num_syms, DynamicBitset(num_atoms));
    bool seeds_changed = true;
    while (seeds_changed) {
      seeds_changed = false;
      for (size_t f = 0; f < num_syms; ++f) {
        (*child_labels)[f] = Value(EntryFor(seeds[f]));
      }
      for (const GroundRule& rule : ground_->local_rules()) {
        if (rule.head_kind != GroundRule::HeadKind::kChild) continue;
        if (seeds[rule.head_sym].Test(rule.head_id)) continue;
        if (BodySatisfied(rule, *T, *ctx_,
                          [&](SymIdx s) -> const DynamicBitset& {
                            return (*child_labels)[s];
                          })) {
          seeds[rule.head_sym].Set(rule.head_id);
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
      if (BodySatisfied(rule, *T, *ctx_,
                        [&](SymIdx s) -> const DynamicBitset& {
                          return (*child_labels)[s];
                        })) {
        if (is_eps) {
          T->Set(rule.head_id);
          t_changed = true;
          changed = true;
        } else {
          ctx_->Set(rule.head_id);
          *ctx_changed_ = true;
          changed = true;
        }
      }
    }
    if (!t_changed) break;
  }
  return changed;
}

StatusOr<bool> ChiEngine::ProcessAllOnce() {
  RELSPEC_COUNTER("chi.passes");
  RELSPEC_SCOPED_TIMER("chi.pass_ns");
  RELSPEC_FAILPOINT("chi.pass");
  bool changed = false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    RELSPEC_COUNTER("chi.entries_processed");
    if (entries_.size() > max_entries_) {
      return Status::ResourceExhausted(
          StrFormat("chi table exceeded max_entries=%zu", max_entries_));
    }
    if (governor_ != nullptr) {
      RELSPEC_RETURN_NOT_OK(governor_->CheckNodes(entries_.size()));
    }
    // Copy out: entries_ may reallocate while children are demanded.
    DynamicBitset T = entries_[i].value;
    std::vector<DynamicBitset> child_labels;
    bool entry_changed = CloseNode(&T, &child_labels);
    if (T != entries_[i].value) {
      entries_[i].value = std::move(T);
      entry_changed = true;
    }
    changed |= entry_changed;
  }
  if (changed) expand_cache_.clear();
  return changed;
}

const std::vector<DynamicBitset>& ChiEngine::Expand(
    const DynamicBitset& label) {
  auto it = expand_cache_.find(label);
  if (it != expand_cache_.end()) {
    RELSPEC_COUNTER("chi.expand_cache_hits");
    return it->second;
  }
  RELSPEC_COUNTER("chi.expansions");
  DynamicBitset T = label;
  std::vector<DynamicBitset> child_labels;
  CloseNode(&T, &child_labels);
  // At convergence of the surrounding fixpoint, a real node's label is
  // already closed; CloseNode must not grow it. A frozen engine serves a
  // truncated (interrupted) fixpoint whose labels are legitimately
  // non-closed under-approximations, so the invariant is waived there.
  if (!frozen_) {
    RELSPEC_CHECK(T == label)
        << "Expand called on a non-closed label (fixpoint not converged?): "
        << "label=" << label.ToString() << " closed=" << T.ToString();
  }
  return expand_cache_.emplace(label, std::move(child_labels)).first->second;
}

}  // namespace relspec
