#include "src/core/fixpoint.h"

#include <span>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {

namespace {

// All paths of depth 0..max_depth in shortlex order.
StatusOr<std::vector<Path>> PathsUpToDepth(const std::vector<FuncId>& alphabet,
                                           int max_depth, size_t cap) {
  std::vector<Path> out = {Path::Zero()};
  std::vector<Path> layer = {Path::Zero()};
  for (int d = 1; d <= max_depth; ++d) {
    std::vector<Path> next;
    next.reserve(layer.size() * alphabet.size());
    for (const Path& p : layer) {
      for (FuncId f : alphabet) next.push_back(p.Extend(f));
    }
    out.insert(out.end(), next.begin(), next.end());
    if (out.size() > cap) {
      return Status::ResourceExhausted(
          StrFormat("trunk enumeration exceeded %zu nodes at depth %d", cap, d));
    }
    layer = std::move(next);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Labeling
// ---------------------------------------------------------------------------

BitView Labeling::LabelOf(const Path& path) {
  int c = trunk_depth();
  // Reject paths using symbols outside the alphabet: their labels are empty
  // (no rule or fact can place anything there; see ground.h).
  for (FuncId f : path.symbols()) {
    if (ground_->SymIndexOf(f) == kInvalidId) return empty_label_;
  }
  if (path.depth() <= c) return TrunkLabel(path);
  // A deeper path is found by its depth-(c+1) prefix, so a lookup interns
  // nothing; below it, each symbol follows one recorded child entry.
  std::span<const FuncId> symbols = path.symbols();
  uint32_t entry = BoundaryEntry(symbols.first(c + 1));
  for (int i = c + 1; i < path.depth(); ++i) {
    entry = chi_->Children(entry)[ground_->SymIndexOf(path.at(i))];
  }
  return chi_->Value(entry);
}

uint32_t Labeling::BoundaryEntry(std::span<const FuncId> symbols) {
  return chi_->EntryFor(
      boundary_seeds_.at(terms_.FindSymbols(symbols)).words());
}

// ---------------------------------------------------------------------------
// ComputeFixpoint
// ---------------------------------------------------------------------------

StatusOr<Labeling> ComputeFixpoint(const GroundProgram& ground,
                                   const FixpointOptions& options) {
  RELSPEC_PHASE("fixpoint");
  Labeling out;
  out.ground_ = &ground;
  out.shared_ = std::make_unique<Labeling::ChiShared>();
  out.shared_->ctx = DynamicBitset(ground.num_ctx());
  out.empty_label_ = DynamicBitset(ground.num_atoms());
  out.chi_ = std::make_unique<ChiEngine>(&ground, &out.shared_->ctx);
  DynamicBitset& ctx = out.shared_->ctx;

  const int c = ground.trunk_depth();
  const size_t num_atoms = ground.num_atoms();
  RELSPEC_ASSIGN_OR_RETURN(
      out.trunk_paths_,
      PathsUpToDepth(ground.alphabet(), c, options.max_trunk_nodes));
  TermInterner& terms = out.terms_;
  for (const Path& p : out.trunk_paths_) {
    out.trunk_labels_.emplace(terms.FromSymbols(p.symbols()),
                              DynamicBitset(num_atoms));
  }
  RELSPEC_GAUGE_SET("fixpoint.trunk_nodes", out.trunk_paths_.size());
  // Boundary seeds: children of depth-c trunk nodes.
  for (const Path& p : out.trunk_paths_) {
    if (p.depth() != c) continue;
    TermId pid = terms.FromSymbols(p.symbols());
    for (FuncId f : ground.alphabet()) {
      out.boundary_seeds_.emplace(terms.Apply(f, pid),
                                  DynamicBitset(num_atoms));
    }
  }

  // Initial facts.
  for (CtxIdx g : ground.global_facts()) ctx.Set(g);
  for (size_t i = 0; i < ground.num_pinned_facts(); ++i) {
    const auto [path, atom] = ground.pinned_fact(i);
    auto it = out.trunk_labels_.find(terms.FromSymbols(path));
    if (it == out.trunk_labels_.end()) {
      return Status::Internal("pinned fact at a non-trunk path");
    }
    it->second.Set(atom);
  }

  RELSPEC_RETURN_NOT_OK(out.RunToFixpoint(options));
  return out;
}

Status Labeling::RunToFixpoint(const FixpointOptions& options) {
  const GroundProgram& ground = *ground_;
  const int c = ground.trunk_depth();
  DynamicBitset& ctx = shared_->ctx;
  TermInterner& terms = terms_;
  ChiEngine& chi = *chi_;
  chi.set_max_entries(options.max_chi_entries);
  chi.set_governor(options.governor);

  // Turns a resource breach into graceful degradation when allowed: the
  // monotone state built so far is a sound under-approximation of the least
  // fixpoint, so it is kept, marked truncated, and served frozen. Non-breach
  // errors (and breaches without allow_partial) propagate unchanged.
  auto degrade = [&](Status st) -> Status {
    if (!options.allow_partial || !st.IsResourceBreach()) return st;
    truncated_ = true;
    breach_ = std::move(st);
    chi_->set_frozen(true);
    return Status::OK();
  };

  auto boundary_label = [&](TermId p) -> BitView {
    return chi.Value(chi.EntryFor(boundary_seeds_.at(p).words()));
  };

  bool changed = true;
  while (changed && !truncated_) {
    changed = false;
    ++rounds_;
    RELSPEC_COUNTER("fixpoint.rounds");
    RELSPEC_SCOPED_TIMER("fixpoint.round_ns");
    RELSPEC_TRACE_SPAN1("fixpoint", "round", "round", rounds_);
    if (options.max_rounds > 0 && rounds_ > options.max_rounds) {
      RELSPEC_RETURN_NOT_OK(
          degrade(Status::ResourceExhausted("fixpoint round limit exceeded")));
      break;
    }
    {
      Status st;
      if (failpoint::Active()) st = failpoint::Evaluate("fixpoint.round");
      if (st.ok() && options.governor != nullptr) {
        st = options.governor->ChargeRound();
      }
      if (!st.ok()) {
        RELSPEC_RETURN_NOT_OK(degrade(std::move(st)));
        break;
      }
    }

    // 1. Propositional closure of the global rules.
    bool gchanged = true;
    while (gchanged) {
      gchanged = false;
      for (const GroundRule& rule : ground.global_rules()) {
        if (ctx.Test(rule.head_id)) continue;
        bool sat = true;
        for (CtxIdx b : rule.body_ctx) {
          if (!ctx.Test(b)) {
            sat = false;
            break;
          }
        }
        if (sat) {
          ctx.Set(rule.head_id);
          RELSPEC_COUNTER("fixpoint.global_rule_firings");
          gchanged = true;
          changed = true;
        }
      }
    }

    // 2. Context -> trunk pinned sync.
    for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
      const CtxProp prop = ground.ctx_prop(i);
      if (prop.kind != CtxProp::Kind::kPinned || !ctx.Test(i)) continue;
      DynamicBitset& label =
          trunk_labels_.at(terms.FromSymbols(prop.path));
      if (!label.Test(prop.atom)) {
        label.Set(prop.atom);
        RELSPEC_COUNTER("fixpoint.pinned_syncs");
        changed = true;
      }
    }

    // 3. Trunk rules, one pass over nodes in shortlex order.
    for (const Path& w : trunk_paths_) {
      TermId wid = terms.FromSymbols(w.symbols());
      DynamicBitset& label = trunk_labels_.at(wid);
      bool is_frontier = w.depth() == c;  // children are boundary nodes
      for (const GroundRule& rule : ground.local_rules()) {
        auto child_of = [&](SymIdx s) -> BitView {
          TermId child = terms.Apply(ground.alphabet()[s], wid);
          if (is_frontier) return boundary_label(child);
          return trunk_labels_.at(child);
        };
        if (!BodySatisfied(rule, label, ctx, child_of)) continue;
        switch (rule.head_kind) {
          case GroundRule::HeadKind::kEps:
            if (!label.Test(rule.head_id)) {
              label.Set(rule.head_id);
              RELSPEC_COUNTER("fixpoint.trunk_rule_firings");
              changed = true;
            }
            break;
          case GroundRule::HeadKind::kChild: {
            TermId child = terms.Apply(ground.alphabet()[rule.head_sym], wid);
            DynamicBitset& target = is_frontier
                                        ? boundary_seeds_.at(child)
                                        : trunk_labels_.at(child);
            if (!target.Test(rule.head_id)) {
              target.Set(rule.head_id);
              RELSPEC_COUNTER("fixpoint.trunk_rule_firings");
              changed = true;
            }
            break;
          }
          case GroundRule::HeadKind::kCtx:
            if (!ctx.Test(rule.head_id)) {
              ctx.Set(rule.head_id);
              RELSPEC_COUNTER("fixpoint.trunk_rule_firings");
              changed = true;
            }
            break;
        }
      }
    }

    // 3b. Demand every boundary entry: even if no trunk rule reads through a
    // child, the boundary node's own closure (eps rules at depth c+1) must
    // be computed before its label is served.
    for (const auto& [path, seed] : boundary_seeds_) {
      chi.EntryFor(seed.words());
    }

    // 4. Trunk -> context pinned sync.
    for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
      const CtxProp prop = ground.ctx_prop(i);
      if (prop.kind != CtxProp::Kind::kPinned || ctx.Test(i)) continue;
      if (trunk_labels_.at(terms.FromSymbols(prop.path))
              .Test(prop.atom)) {
        ctx.Set(i);
        changed = true;
      }
    }

    // 5. Drain the chi worklist.
    StatusOr<bool> chi_changed = chi.ProcessAllOnce();
    if (!chi_changed.ok()) {
      RELSPEC_RETURN_NOT_OK(degrade(chi_changed.status()));
      break;
    }
    changed |= *chi_changed;
    RELSPEC_TRACE_COUNTER("fixpoint.nodes",
                          trunk_paths_.size() + chi.num_entries());
    RELSPEC_TRACE_COUNTER("fixpoint.chi_entries", chi.num_entries());

    // Node budget across trunk + chi table (the chi engine checks its own
    // growth mid-pass; this covers the combined footprint).
    if (options.governor != nullptr) {
      Status st = options.governor->CheckNodes(trunk_paths_.size() +
                                               chi.num_entries());
      if (!st.ok()) {
        RELSPEC_RETURN_NOT_OK(degrade(std::move(st)));
        break;
      }
    }
  }
  RELSPEC_GAUGE_SET("fixpoint.chi_entries", chi.num_entries());
  terms.RecordMetrics();
  if (truncated_) {
    RELSPEC_COUNTER("fixpoint.truncated");
    RELSPEC_LOG(kWarning) << "fixpoint truncated after " << rounds_
                          << " rounds: " << breach_.ToString();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bounded (brute-force) fixpoint
// ---------------------------------------------------------------------------

const DynamicBitset& BoundedLabeling::LabelOf(const Path& path) const {
  TermId t = terms_.FindSymbols(path.symbols());
  if (t == kInvalidId) return empty_label_;
  auto it = labels_.find(t);
  return it == labels_.end() ? empty_label_ : it->second;
}

bool BoundedLabeling::Holds(const Path& path, const SliceAtom& atom) const {
  AtomIdx idx = ground_->FindAtom(atom.pred, atom.args);
  if (idx == kInvalidId) return false;
  return LabelOf(path).Test(idx);
}

bool BoundedLabeling::HoldsGlobal(PredId pred,
                                  const std::vector<ConstId>& args) const {
  CtxIdx idx = ground_->FindGlobal(pred, args);
  return idx != kInvalidId && ctx_.Test(idx);
}

size_t BoundedLabeling::TotalFacts() const {
  size_t n = 0;
  for (const auto& [path, label] : labels_) n += label.Count();
  return n;
}

StatusOr<BoundedLabeling> ComputeBoundedFixpoint(const GroundProgram& ground,
                                                 int bound, size_t max_nodes) {
  BoundedLabeling out;
  out.ground_ = &ground;
  out.bound_ = bound;
  out.empty_label_ = DynamicBitset(ground.num_atoms());
  out.ctx_ = DynamicBitset(ground.num_ctx());

  RELSPEC_ASSIGN_OR_RETURN(std::vector<Path> nodes,
                           PathsUpToDepth(ground.alphabet(), bound, max_nodes));
  TermInterner& terms = out.terms_;
  for (const Path& p : nodes) {
    out.labels_.emplace(terms.FromSymbols(p.symbols()),
                        DynamicBitset(ground.num_atoms()));
  }

  for (CtxIdx g : ground.global_facts()) out.ctx_.Set(g);
  for (size_t i = 0; i < ground.num_pinned_facts(); ++i) {
    const auto [path, atom] = ground.pinned_fact(i);
    auto it = out.labels_.find(terms.FromSymbols(path));
    if (it == out.labels_.end()) {
      return Status::InvalidArgument(
          "bounded fixpoint bound is smaller than the trunk depth");
    }
    it->second.Set(atom);
  }

  DynamicBitset empty(ground.num_atoms());
  bool changed = true;
  while (changed) {
    changed = false;
    // Global rules.
    for (const GroundRule& rule : ground.global_rules()) {
      if (out.ctx_.Test(rule.head_id)) continue;
      bool sat = true;
      for (CtxIdx b : rule.body_ctx) sat = sat && out.ctx_.Test(b);
      if (sat) {
        out.ctx_.Set(rule.head_id);
        changed = true;
      }
    }
    // Pinned syncs.
    for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
      const CtxProp prop = ground.ctx_prop(i);
      if (prop.kind != CtxProp::Kind::kPinned) continue;
      auto it = out.labels_.find(terms.FromSymbols(prop.path));
      if (it == out.labels_.end()) continue;
      if (out.ctx_.Test(i) && !it->second.Test(prop.atom)) {
        it->second.Set(prop.atom);
        changed = true;
      } else if (!out.ctx_.Test(i) && it->second.Test(prop.atom)) {
        out.ctx_.Set(i);
        changed = true;
      }
    }
    // Local rules at every node of depth <= bound.
    for (const Path& w : nodes) {
      TermId wid = terms.FromSymbols(w.symbols());
      DynamicBitset& label = out.labels_.at(wid);
      bool has_children = w.depth() < bound;
      for (const GroundRule& rule : ground.local_rules()) {
        auto child_of = [&](SymIdx s) -> BitView {
          if (!has_children) return empty;
          return out.labels_.at(terms.Apply(ground.alphabet()[s], wid));
        };
        // Truncation: rules writing to depth bound+1 cannot fire.
        if (rule.head_kind == GroundRule::HeadKind::kChild && !has_children) {
          continue;
        }
        if (!BodySatisfied(rule, label, out.ctx_, child_of)) continue;
        switch (rule.head_kind) {
          case GroundRule::HeadKind::kEps:
            if (!label.Test(rule.head_id)) {
              label.Set(rule.head_id);
              changed = true;
            }
            break;
          case GroundRule::HeadKind::kChild: {
            DynamicBitset& target =
                out.labels_.at(terms.Apply(ground.alphabet()[rule.head_sym],
                                           wid));
            if (!target.Test(rule.head_id)) {
              target.Set(rule.head_id);
              changed = true;
            }
            break;
          }
          case GroundRule::HeadKind::kCtx:
            if (!out.ctx_.Test(rule.head_id)) {
              out.ctx_.Set(rule.head_id);
              changed = true;
            }
            break;
        }
      }
    }
  }
  return out;
}

}  // namespace relspec
