#include "src/temporal/temporal_engine.h"

#include <unordered_map>

#include "src/ast/validate.h"
#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/str_util.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"

namespace relspec {

const DynamicBitset& TemporalSpec::LabelAt(uint64_t n) const {
  if (n < prefix_.size()) return prefix_[n];
  uint64_t k = (n - prefix_.size()) % cycle_.size();
  return cycle_[k];
}

bool TemporalSpec::Holds(uint64_t n, PredId pred,
                         const std::vector<ConstId>& args) const {
  AtomIdx idx = ground_->FindAtom(pred, args);
  if (idx == kInvalidId) return false;
  return LabelAt(n).Test(idx);
}

PeriodicSet TemporalSpec::AnswersFor(PredId pred,
                                     const std::vector<ConstId>& args) const {
  PeriodicSet out;
  AtomIdx idx = ground_->FindAtom(pred, args);
  if (idx == kInvalidId) return out;
  for (size_t n = 0; n < prefix_.size(); ++n) {
    if (prefix_[n].Test(idx)) out.AddPoint(n);
  }
  for (size_t k = 0; k < cycle_.size(); ++k) {
    if (cycle_[k].Test(idx)) {
      out.AddProgression(prefix_.size() + k, cycle_.size());
    }
  }
  return out;
}

bool TemporalSpec::HoldsGlobal(PredId pred,
                               const std::vector<ConstId>& args) const {
  CtxIdx idx = ground_->FindGlobal(pred, args);
  return idx != kInvalidId && ctx_.Test(idx);
}

StatusOr<std::unique_ptr<TemporalEngine>> TemporalEngine::Build(Program program) {
  auto engine = std::unique_ptr<TemporalEngine>(new TemporalEngine());
  RELSPEC_RETURN_NOT_OK(ValidateProgram(program));
  engine->program_ = std::move(program);
  RELSPEC_ASSIGN_OR_RETURN(NormalizeStats nstats,
                           NormalizeProgram(&engine->program_));
  (void)nstats;
  RELSPEC_ASSIGN_OR_RETURN(MixedToPureStats pstats,
                           MixedToPure(&engine->program_));
  (void)pstats;
  RELSPEC_ASSIGN_OR_RETURN(GroundProgram ground, Ground(engine->program_));
  if (ground.num_symbols() > 1) {
    return Status::FailedPrecondition(
        "temporal engine requires a single function symbol (+1)");
  }
  for (const GroundRule& rule : ground.local_rules()) {
    if (!rule.body_child.empty()) {
      return Status::FailedPrecondition(
          "temporal engine handles the forward fragment only: a rule reads "
          "at position s+1 (this is what [CI88] could not handle in "
          "general; use the full engine)");
    }
  }
  engine->ground_ = std::make_unique<GroundProgram>(std::move(ground));
  return engine;
}

StatusOr<TemporalSpec> TemporalEngine::ComputeSpec(size_t max_states,
                                                   ResourceGovernor* governor) {
  const GroundProgram& ground = *ground_;
  const size_t num_atoms = ground.num_atoms();
  const int c = ground.trunk_depth();

  TemporalSpec spec;
  spec.ground_ = &ground;
  spec.ctx_ = DynamicBitset(ground.num_ctx());
  DynamicBitset& ctx = spec.ctx_;
  for (CtxIdx g : ground.global_facts()) ctx.Set(g);

  // Pinned facts by time position.
  std::vector<DynamicBitset> pinned(static_cast<size_t>(c) + 1,
                                    DynamicBitset(num_atoms));
  for (size_t i = 0; i < ground.num_pinned_facts(); ++i) {
    const auto [path, atom] = ground.pinned_fact(i);
    pinned[path.size()].Set(atom);
  }

  // Local closure at one position; returns ctx emissions via the shared ctx.
  auto close_position = [&](DynamicBitset* label, bool* ctx_changed) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const GroundRule& rule : ground.local_rules()) {
        if (rule.head_kind == GroundRule::HeadKind::kChild) continue;
        bool sat = true;
        for (AtomIdx a : rule.body_eps) sat = sat && label->Test(a);
        for (CtxIdx b : rule.body_ctx) sat = sat && ctx.Test(b);
        if (!sat) continue;
        if (rule.head_kind == GroundRule::HeadKind::kEps) {
          if (!label->Test(rule.head_id)) {
            label->Set(rule.head_id);
            changed = true;
          }
        } else if (!ctx.Test(rule.head_id)) {
          ctx.Set(rule.head_id);
          *ctx_changed = true;
        }
      }
    }
  };

  auto step = [&](const DynamicBitset& label) {
    DynamicBitset seed(num_atoms);
    for (const GroundRule& rule : ground.local_rules()) {
      if (rule.head_kind != GroundRule::HeadKind::kChild) continue;
      bool sat = true;
      for (AtomIdx a : rule.body_eps) sat = sat && label.Test(a);
      for (CtxIdx b : rule.body_ctx) sat = sat && ctx.Test(b);
      if (sat) seed.Set(rule.head_id);
    }
    return seed;
  };

  // Outer loop: recompute the chain whenever the context grows.
  while (true) {
    bool ctx_changed = false;

    // Global rules closure.
    bool gchanged = true;
    while (gchanged) {
      gchanged = false;
      for (const GroundRule& rule : ground.global_rules()) {
        if (ctx.Test(rule.head_id)) continue;
        bool sat = true;
        for (CtxIdx b : rule.body_ctx) sat = sat && ctx.Test(b);
        if (sat) {
          ctx.Set(rule.head_id);
          gchanged = true;
        }
      }
    }

    // Pinned context propositions into their positions.
    for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
      const CtxProp prop = ground.ctx_prop(i);
      if (prop.kind == CtxProp::Kind::kPinned && ctx.Test(i)) {
        pinned[prop.path.size()].Set(prop.atom);
      }
    }

    // Walk the chain, lasso-detecting from position c on.
    std::vector<DynamicBitset> labels;
    std::unordered_map<DynamicBitset, size_t, DynamicBitsetHash> seen;
    DynamicBitset current = pinned[0];
    size_t cycle_start = 0;
    bool found = false;
    for (size_t n = 0; !found; ++n) {
      if (n > max_states) {
        return Status::ResourceExhausted("temporal lasso exceeded max_states");
      }
      RELSPEC_FAILPOINT("temporal.step");
      if (governor != nullptr) {
        RELSPEC_RETURN_NOT_OK(governor->CheckNodes(n));
      }
      close_position(&current, &ctx_changed);
      // label -> ctx pinned sync.
      for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
        const CtxProp prop = ground.ctx_prop(i);
        if (prop.kind == CtxProp::Kind::kPinned && !ctx.Test(i) &&
            prop.path.size() == n &&
            current.Test(prop.atom)) {
          ctx.Set(i);
          ctx_changed = true;
        }
      }
      if (n >= static_cast<size_t>(c)) {
        auto it = seen.find(current);
        if (it != seen.end()) {
          cycle_start = it->second;
          found = true;
          break;
        }
        seen.emplace(current, n);
      }
      labels.push_back(current);
      DynamicBitset next = step(current);
      if (n + 1 <= static_cast<size_t>(c)) next.UnionWith(pinned[n + 1]);
      current = std::move(next);
    }

    if (ctx_changed) continue;  // context grew: recompute the chain

    spec.prefix_.assign(labels.begin(),
                        labels.begin() + static_cast<long>(cycle_start));
    spec.cycle_.assign(labels.begin() + static_cast<long>(cycle_start),
                       labels.end());
    if (spec.cycle_.empty()) {
      // Degenerate (no function symbol): repeat the last state forever.
      spec.cycle_.push_back(labels.empty() ? DynamicBitset(num_atoms)
                                           : labels.back());
    }
    return spec;
  }
}

}  // namespace relspec
