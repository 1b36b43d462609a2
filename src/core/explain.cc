#include "src/core/explain.h"

#include <unordered_map>

#include "src/base/bitset.h"
#include "src/base/str_util.h"

namespace relspec {
namespace {

// Canonical identity of a derived fact. Pinned context propositions are
// identified with their positional fact (they are the same statement).
struct FactKey {
  bool positional = true;
  Path path;       // positional only
  AtomIdx atom = kInvalidId;
  CtxIdx ctx = kInvalidId;  // global propositions only

  bool operator==(const FactKey& o) const {
    return positional == o.positional && path == o.path && atom == o.atom &&
           ctx == o.ctx;
  }
};

struct FactKeyHash {
  size_t operator()(const FactKey& k) const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.positional);
    mix(k.path.Hash());
    mix(k.atom);
    mix(k.ctx);
    return static_cast<size_t>(h);
  }
};

struct Just {
  Derivation::Kind kind = Derivation::Kind::kDatabaseFact;
  Path at;
  uint32_t rule_index = 0;
  std::vector<FactKey> premises;
};

FactKey PositionalKey(Path path, AtomIdx atom) {
  FactKey k;
  k.positional = true;
  k.path = std::move(path);
  k.atom = atom;
  return k;
}

FactKey GlobalKey(CtxIdx ctx) {
  FactKey k;
  k.positional = false;
  k.ctx = ctx;
  return k;
}

// Runs the bounded fixpoint while recording the first justification of
// every derived fact.
class Recorder {
 public:
  Recorder(const GroundProgram& ground, int bound)
      : ground_(ground), bound_(bound) {}

  Status Run(size_t max_nodes) {
    const size_t num_atoms = ground_.num_atoms();
    // Enumerate nodes up to the bound.
    std::vector<Path> layer = {Path::Zero()};
    nodes_ = layer;
    for (int d = 0; d < bound_; ++d) {
      std::vector<Path> next;
      for (const Path& p : layer) {
        for (FuncId f : ground_.alphabet()) next.push_back(p.Extend(f));
      }
      nodes_.insert(nodes_.end(), next.begin(), next.end());
      if (nodes_.size() > max_nodes) {
        return Status::ResourceExhausted("explanation universe too large");
      }
      layer = std::move(next);
    }
    for (const Path& p : nodes_) labels_.emplace(p, DynamicBitset(num_atoms));
    global_ctx_ = DynamicBitset(ground_.num_ctx());

    // Database facts are axioms.
    for (size_t i = 0; i < ground_.num_pinned_facts(); ++i) {
      const auto [path, atom] = ground_.pinned_fact(i);
      SetPositional(Path(path), atom, Just{});
    }
    for (CtxIdx g : ground_.global_facts()) {
      SetGlobal(g, Just{});
    }

    bool changed = true;
    while (changed) {
      changed = false;
      // Global rules.
      for (uint32_t ri = 0; ri < ground_.global_rules().size(); ++ri) {
        const GroundRule& rule = ground_.global_rules()[ri];
        std::vector<FactKey> premises;
        if (!CtxBodySatisfied(rule, &premises)) continue;
        Just just;
        just.kind = Derivation::Kind::kGlobalRule;
        just.rule_index = ri;
        just.premises = std::move(premises);
        changed |= SetHead(rule, Path::Zero(), std::move(just));
      }
      // Local rules at every node.
      for (const Path& w : nodes_) {
        bool has_children = w.depth() < bound_;
        for (uint32_t ri = 0; ri < ground_.local_rules().size(); ++ri) {
          const GroundRule& rule = ground_.local_rules()[ri];
          if (rule.head_kind == GroundRule::HeadKind::kChild && !has_children) {
            continue;
          }
          std::vector<FactKey> premises;
          bool sat = CtxBodySatisfied(rule, &premises);
          const DynamicBitset& label = labels_.at(w);
          for (AtomIdx a : rule.body_eps) {
            if (!sat) break;
            if (!label.Test(a)) {
              sat = false;
            } else {
              premises.push_back(PositionalKey(w, a));
            }
          }
          for (const auto& [sym, a] : rule.body_child) {
            if (!sat) break;
            if (!has_children) {
              sat = false;
              break;
            }
            Path child = w.Extend(ground_.alphabet()[sym]);
            if (!labels_.at(child).Test(a)) {
              sat = false;
            } else {
              premises.push_back(PositionalKey(child, a));
            }
          }
          if (!sat) continue;
          Just just;
          just.kind = Derivation::Kind::kLocalRule;
          just.at = w;
          just.rule_index = ri;
          just.premises = std::move(premises);
          changed |= SetHead(rule, w, std::move(just));
        }
      }
    }
    return Status::OK();
  }

  bool Derived(const FactKey& key) const { return justs_.count(key) > 0; }

  StatusOr<Derivation> Build(const FactKey& key) const {
    auto it = justs_.find(key);
    if (it == justs_.end()) {
      return Status::NotFound("fact is not derivable within the bound");
    }
    Derivation d;
    d.kind = it->second.kind;
    d.is_positional = key.positional;
    d.position = key.path;
    d.atom = key.atom;
    d.ctx = key.ctx;
    d.at = it->second.at;
    d.rule_index = it->second.rule_index;
    for (const FactKey& premise : it->second.premises) {
      RELSPEC_ASSIGN_OR_RETURN(Derivation sub, Build(premise));
      d.premises.push_back(std::move(sub));
    }
    return d;
  }

 private:
  // Evaluates a context proposition and appends its key on success.
  bool CtxPropHolds(CtxIdx c, std::vector<FactKey>* premises) {
    const CtxProp prop = ground_.ctx_prop(c);
    if (prop.kind == CtxProp::Kind::kGlobal) {
      if (!global_ctx_.Test(c)) return false;
      premises->push_back(GlobalKey(c));
      return true;
    }
    const Path path(prop.path);
    auto it = labels_.find(path);
    if (it == labels_.end() || !it->second.Test(prop.atom)) return false;
    premises->push_back(PositionalKey(path, prop.atom));
    return true;
  }

  bool CtxBodySatisfied(const GroundRule& rule, std::vector<FactKey>* premises) {
    for (CtxIdx c : rule.body_ctx) {
      if (!CtxPropHolds(c, premises)) return false;
    }
    return true;
  }

  bool SetPositional(const Path& path, AtomIdx atom, Just just) {
    auto it = labels_.find(path);
    if (it == labels_.end()) return false;  // outside the bound
    if (it->second.Test(atom)) return false;
    it->second.Set(atom);
    justs_.emplace(PositionalKey(path, atom), std::move(just));
    return true;
  }

  bool SetGlobal(CtxIdx c, Just just) {
    if (global_ctx_.Test(c)) return false;
    global_ctx_.Set(c);
    justs_.emplace(GlobalKey(c), std::move(just));
    return true;
  }

  bool SetHead(const GroundRule& rule, const Path& w, Just just) {
    switch (rule.head_kind) {
      case GroundRule::HeadKind::kEps:
        return SetPositional(w, rule.head_id, std::move(just));
      case GroundRule::HeadKind::kChild:
        return SetPositional(w.Extend(ground_.alphabet()[rule.head_sym]),
                             rule.head_id, std::move(just));
      case GroundRule::HeadKind::kCtx: {
        const CtxProp prop = ground_.ctx_prop(rule.head_id);
        if (prop.kind == CtxProp::Kind::kGlobal) {
          return SetGlobal(rule.head_id, std::move(just));
        }
        return SetPositional(Path(prop.path), prop.atom, std::move(just));
      }
    }
    return false;
  }

  const GroundProgram& ground_;
  int bound_;
  std::vector<Path> nodes_;
  std::unordered_map<Path, DynamicBitset, PathHash> labels_;
  DynamicBitset global_ctx_;
  std::unordered_map<FactKey, Just, FactKeyHash> justs_;
};

StatusOr<Derivation> Search(const GroundProgram& ground, const FactKey& target,
                            int min_bound, const ExplainOptions& options) {
  int bound = std::max(min_bound, ground.trunk_depth() + 1);
  if (bound > options.max_bound) {
    return Status::NotFound(StrFormat(
        "term depth exceeds the explanation bound max_bound=%d",
        options.max_bound));
  }
  while (true) {
    Recorder recorder(ground, bound);
    RELSPEC_RETURN_NOT_OK(recorder.Run(options.max_nodes));
    if (recorder.Derived(target)) return recorder.Build(target);
    if (bound >= options.max_bound) {
      return Status::NotFound(StrFormat(
          "fact is not derivable with nodes of depth <= %d", bound));
    }
    bound = std::min(options.max_bound, bound * 2);
  }
}

}  // namespace

size_t Derivation::NumSteps() const {
  size_t n = kind == Kind::kDatabaseFact ? 0 : 1;
  for (const Derivation& p : premises) n += p.NumSteps();
  return n;
}

namespace {
void Render(const Derivation& d, const GroundProgram& ground,
            const SymbolTable& symbols, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (d.is_positional) {
    const AtomRef a = ground.atom(d.atom);
    *out += symbols.predicate(a.pred).name + "(" + d.position.ToString(symbols);
    for (ConstId c : a.args) *out += "," + symbols.constant_name(c);
    *out += ")";
  } else {
    *out += ground.CtxToString(d.ctx, symbols);
  }
  switch (d.kind) {
    case Derivation::Kind::kDatabaseFact:
      *out += "   [database fact]\n";
      break;
    case Derivation::Kind::kLocalRule:
      *out += StrFormat("   [rule %u at s=%s]\n", d.rule_index,
                        d.at.ToString(symbols).c_str());
      break;
    case Derivation::Kind::kGlobalRule:
      *out += StrFormat("   [global rule %u]\n", d.rule_index);
      break;
  }
  for (const Derivation& p : d.premises) {
    Render(p, ground, symbols, indent + 1, out);
  }
}
}  // namespace

std::string Derivation::ToString(const GroundProgram& ground,
                                 const SymbolTable& symbols) const {
  std::string out;
  Render(*this, ground, symbols, 0, &out);
  return out;
}

StatusOr<Derivation> ExplainFact(const GroundProgram& ground, const Path& path,
                                 const SliceAtom& fact,
                                 const ExplainOptions& options) {
  AtomIdx atom = ground.FindAtom(fact.pred, fact.args);
  if (atom == kInvalidId) {
    return Status::NotFound("fact is outside the derivable atom universe");
  }
  for (FuncId f : path.symbols()) {
    if (ground.SymIndexOf(f) == kInvalidId) {
      return Status::NotFound("term uses a function symbol outside Z and D");
    }
  }
  return Search(ground, PositionalKey(path, atom), path.depth() + 1, options);
}

StatusOr<Derivation> ExplainGlobal(const GroundProgram& ground, PredId pred,
                                   const std::vector<ConstId>& args,
                                   const ExplainOptions& options) {
  CtxIdx ctx = ground.FindGlobal(pred, args);
  if (ctx == kInvalidId) {
    return Status::NotFound("fact is outside the derivable atom universe");
  }
  return Search(ground, GlobalKey(ctx), 1, options);
}

}  // namespace relspec
