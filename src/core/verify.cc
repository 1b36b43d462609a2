#include "src/core/verify.h"

#include "src/base/str_util.h"
#include "src/core/subtree_closure.h"

namespace relspec {

Status VerifyQuotientModel(const GraphSpecification& spec,
                           const GroundProgram& ground) {
  const LabelGraph& graph = spec.graph();
  if (spec.atom_dictionary() != ground.atoms() ||
      spec.alphabet() != ground.alphabet()) {
    return Status::InvalidArgument(
        "specification and ground program disagree on atoms or alphabet");
  }

  // The context as the model states it. An earlier check compared the
  // fixpoint's own context bits with the trunk labels; with the spec as the
  // one source of both, that agreement holds by construction, so the rules
  // below are evaluated on exactly the structure that is served.
  DynamicBitset ctx(ground.num_ctx());
  for (const auto& [pred, args] : spec.globals()) {
    const CtxIdx i = ground.FindGlobal(pred, args);
    if (i != kInvalidId) ctx.Set(i);
  }
  for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
    const CtxProp prop = ground.ctx_prop(i);
    if (prop.kind != CtxProp::Kind::kPinned) continue;
    const uint32_t cl = graph.ClusterOf(prop.path);
    if (cl != kInvalidId && graph.label(cl).Test(prop.atom)) {
      ctx.Set(i);
    }
  }

  // 1. Database facts are present.
  for (size_t i = 0; i < ground.num_pinned_facts(); ++i) {
    const auto [path, atom] = ground.pinned_fact(i);
    uint32_t cl = graph.ClusterOf(path);
    if (cl == kInvalidId || !graph.label(cl).Test(atom)) {
      return Status::Internal("quotient model is missing a pinned fact of D");
    }
  }
  for (CtxIdx g : ground.global_facts()) {
    if (!ctx.Test(g)) {
      return Status::Internal("quotient model is missing a global fact of D");
    }
  }

  // 2. Global rules are closed.
  for (const GroundRule& rule : ground.global_rules()) {
    bool sat = true;
    for (CtxIdx b : rule.body_ctx) sat = sat && ctx.Test(b);
    if (sat && !ctx.Test(rule.head_id)) {
      return Status::Internal("global rule not closed in the quotient model");
    }
  }

  // 3. Local rules are closed on every cluster. Because every tree node
  // folds onto a cluster with ClusterOf(w.f) == successor_f(ClusterOf(w)),
  // per-cluster closure is exactly per-node closure on the infinite tree.
  for (uint32_t c = 0; c < graph.num_clusters(); ++c) {
    const BitView label = graph.label(c);
    for (const GroundRule& rule : ground.local_rules()) {
      auto child_label = [&](SymIdx s) {
        return graph.label(graph.SuccessorOf(c, s));
      };
      if (!BodySatisfied(rule, label, ctx, child_label)) continue;
      bool ok = true;
      switch (rule.head_kind) {
        case GroundRule::HeadKind::kEps:
          ok = label.Test(rule.head_id);
          break;
        case GroundRule::HeadKind::kChild:
          ok = child_label(rule.head_sym).Test(rule.head_id);
          break;
        case GroundRule::HeadKind::kCtx:
          ok = ctx.Test(rule.head_id);
          break;
      }
      if (!ok) {
        return Status::Internal(StrFormat(
            "local rule not closed on cluster %u (repr depth %d)", c,
            graph.Representative(c).depth()));
      }
    }
  }
  return Status::OK();
}

}  // namespace relspec
