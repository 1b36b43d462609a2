#include "src/core/ground.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>

#include "src/ast/printer.h"
#include "src/core/analysis.h"
#include "src/ast/validate.h"
#include "src/base/id_index.h"
#include "src/base/logging.h"
#include "src/base/str_util.h"

namespace relspec {

namespace {
uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}
}  // namespace

size_t SliceAtomHasher::operator()(const SliceAtom& a) const {
  uint64_t h = 1469598103934665603ull;
  h = MixHash(h, a.pred);
  for (ConstId c : a.args) h = MixHash(h, c);
  return static_cast<size_t>(h);
}

size_t GroundProgram::SliceAtomHash::operator()(const SliceAtom& a) const {
  return SliceAtomHasher{}(a);
}

size_t GroundProgram::CtxPropHash::operator()(const CtxProp& p) const {
  uint64_t h = 1469598103934665603ull;
  h = MixHash(h, static_cast<uint64_t>(p.kind));
  h = MixHash(h, p.pred);
  for (ConstId c : p.args) h = MixHash(h, c);
  h = MixHash(h, p.path.Hash());
  h = MixHash(h, p.atom);
  return static_cast<size_t>(h);
}

AtomIdx GroundProgram::FindAtom(const SliceAtom& key) const {
  auto it = atom_index_.find(key);
  return it == atom_index_.end() ? kInvalidId : it->second;
}

CtxIdx GroundProgram::FindGlobal(PredId pred,
                                 const std::vector<ConstId>& args) const {
  CtxProp key;
  key.kind = CtxProp::Kind::kGlobal;
  key.pred = pred;
  key.args = args;
  auto it = ctx_index_.find(key);
  return it == ctx_index_.end() ? kInvalidId : it->second;
}

std::string GroundProgram::AtomToString(AtomIdx i,
                                        const SymbolTable& symbols) const {
  const SliceAtom& a = atoms_[i];
  std::string out = symbols.predicate(a.pred).name + "(@";
  for (ConstId c : a.args) {
    out += ",";
    out += symbols.constant_name(c);
  }
  out += ")";
  return out;
}

std::string GroundProgram::CtxToString(CtxIdx i,
                                       const SymbolTable& symbols) const {
  const CtxProp& p = ctx_props_[i];
  if (p.kind == CtxProp::Kind::kGlobal) {
    std::string out = symbols.predicate(p.pred).name + "(";
    for (size_t k = 0; k < p.args.size(); ++k) {
      if (k > 0) out += ",";
      out += symbols.constant_name(p.args[k]);
    }
    out += ")";
    return out;
  }
  return StrFormat("pinned[%s: %s]", p.path.ToString(symbols).c_str(),
                   AtomToString(p.atom, symbols).c_str());
}

std::string GroundProgram::RuleToString(const GroundRule& r,
                                        const SymbolTable& symbols) const {
  std::vector<std::string> parts;
  for (AtomIdx a : r.body_eps) parts.push_back(AtomToString(a, symbols) + "@s");
  for (const auto& [sym, a] : r.body_child) {
    parts.push_back(AtomToString(a, symbols) + "@" +
                    symbols.function(alphabet_[sym]).name + "(s)");
  }
  for (CtxIdx c : r.body_ctx) parts.push_back(CtxToString(c, symbols));
  std::string head;
  switch (r.head_kind) {
    case GroundRule::HeadKind::kEps:
      head = AtomToString(r.head_id, symbols) + "@s";
      break;
    case GroundRule::HeadKind::kChild:
      head = AtomToString(r.head_id, symbols) + "@" +
             symbols.function(alphabet_[r.head_sym]).name + "(s)";
      break;
    case GroundRule::HeadKind::kCtx:
      head = CtxToString(r.head_id, symbols);
      break;
  }
  return Join(parts, ", ") + " -> " + head;
}

uint64_t GroundBodyHash(const GroundRule& r) {
  uint64_t h = 1469598103934665603ull;
  for (AtomIdx a : r.body_eps) h = MixHash(h, a);
  for (const auto& [s, a] : r.body_child) h = MixHash(h, (uint64_t{s} << 32) | a);
  for (CtxIdx c : r.body_ctx) h = MixHash(h, c);
  return h;
}

namespace {

struct GroundRuleHash {
  size_t operator()(const GroundRule& r) const {
    uint64_t h = GroundBodyHash(r);
    h = MixHash(h, static_cast<uint64_t>(r.head_kind));
    h = MixHash(h, r.head_sym);
    h = MixHash(h, r.head_id);
    return static_cast<size_t>(h);
  }
};

}  // namespace

// Friend of GroundProgram; see ground.h.
//
// Each rule is compiled once into a plan over dense variable slots (its
// non-functional variables in id order), so an instance is a vector of
// constants rather than a map. Body atoms over EDB predicates are matched
// against the facts, looked up by one bound argument through a per-(predicate,
// position) index, so a rule whose EDB atoms are mostly constants costs what
// it emits. The remaining slots range over the active domain. Instances are
// emitted in the same order as a nested scan of the facts followed by an
// odometer over the domain (first free slot fastest), which fixes every atom
// and rule index downstream.
class Grounder {
 public:
  Grounder(const Program& program, const GroundOptions& options)
      : program_(program), options_(options) {}

  StatusOr<GroundProgram> Run() {
    if (HasMixedOccurrences(program_)) {
      return Status::FailedPrecondition(
          "grounding requires a pure program; run MixedToPure first");
    }
    if (!IsNormalProgram(program_)) {
      return Status::FailedPrecondition(
          "grounding requires a normal program; run NormalizeProgram first");
    }
    // Validity was checked where the program entered (ParseProgram or
    // FromProgram), and normalization and purification keep it.
    assert(ValidateProgram(program_).ok());

    out_.alphabet_ = program_.PureFunctions();
    out_.trunk_depth_ = program_.MaxGroundDepth();
    domain_ = program_.ActiveDomain();

    // EDB non-functional predicates: never derived by any rule.
    const size_t num_preds = program_.symbols.num_predicates();
    std::vector<bool> is_head(num_preds, false);
    for (const Rule& r : program_.rules) is_head[r.head.pred] = true;
    edb_.resize(num_preds);
    for (PredId p = 0; p < num_preds; ++p) {
      edb_[p].is_edb = !program_.symbols.predicate(p).functional && !is_head[p];
    }
    for (const Atom& f : program_.facts) {
      if (edb_[f.pred].is_edb) edb_[f.pred].facts.push_back(&f);
    }

    RELSPEC_RETURN_NOT_OK(GroundFacts());
    for (const Rule& r : program_.rules) {
      RELSPEC_RETURN_NOT_OK(GroundOneRule(r));
    }
    return std::move(out_);
  }

 private:
  static constexpr ConstId kUnbound = kInvalidId;

  /// One argument of a compiled atom: a constant, or a variable's slot.
  struct PlanArg {
    bool is_slot;
    uint32_t id;  // ConstId, or slot index
  };

  /// Where a compiled atom lands in a ground rule.
  enum class Place { kGlobal, kPinned, kEps, kChild };

  struct PlanAtom {
    PredId pred = kInvalidId;
    std::vector<PlanArg> args;
    Place place = Place::kGlobal;
    Path path;       // kPinned
    SymIdx sym = 0;  // kChild
    std::vector<uint32_t> binds;  // EDB atoms: the slots they bind first
  };

  /// An EDB predicate's facts and their per-position index, built the
  /// first time a rule probes that position: constant -> ascending fact
  /// positions.
  struct EdbFacts {
    bool is_edb = false;
    std::vector<const Atom*> facts;
    std::vector<std::unordered_map<ConstId, std::vector<uint32_t>>> by_arg;
  };

  struct Plan {
    std::vector<PlanAtom> edb;    // matched against facts, in body order
    std::vector<PlanAtom> other;  // emitted into the ground rule
    PlanAtom head;
    std::vector<uint32_t> free;   // slots no EDB atom binds, ascending
  };

  /// The ascending non-functional variables of `rule`: slot i is vars[i].
  static std::vector<VarId> RuleVariables(const Rule& rule) {
    std::vector<VarId> vars;
    std::optional<VarId> fv;
    CollectVariables(rule.head, &vars, &fv);
    for (const Atom& a : rule.body) CollectVariables(a, &vars, &fv);
    std::sort(vars.begin(), vars.end());
    return vars;
  }

  PlanAtom Compile(const Atom& atom, const std::vector<VarId>& vars) const {
    PlanAtom out;
    out.pred = atom.pred;
    out.args.reserve(atom.args.size());
    for (const NfArg& a : atom.args) {
      if (a.IsConstant()) {
        out.args.push_back(PlanArg{false, a.id});
      } else {
        auto it = std::lower_bound(vars.begin(), vars.end(), a.id);
        out.args.push_back(
            PlanArg{true, static_cast<uint32_t>(it - vars.begin())});
      }
    }
    if (!atom.fterm.has_value()) {
      out.place = Place::kGlobal;
    } else if (atom.fterm->IsGround()) {
      out.place = Place::kPinned;
      std::vector<FuncId> syms;
      syms.reserve(atom.fterm->apps.size());
      for (const FuncApply& a : atom.fterm->apps) syms.push_back(a.fn);
      out.path = Path(std::move(syms));
    } else if (atom.fterm->depth() == 0) {
      out.place = Place::kEps;
    } else {  // depth 1: f(s)
      out.place = Place::kChild;
      out.sym = out_.SymIndexOf(atom.fterm->apps[0].fn);
      RELSPEC_CHECK_NE(out.sym, kInvalidId);
    }
    return out;
  }

  AtomIdx InternAtom(SliceAtom a) {
    auto it = out_.atom_index_.find(a);
    if (it != out_.atom_index_.end()) return it->second;
    AtomIdx id = static_cast<AtomIdx>(out_.atoms_.size());
    out_.atoms_.push_back(a);
    out_.atom_index_.emplace(std::move(a), id);
    return id;
  }

  CtxIdx InternCtx(CtxProp p) {
    auto it = out_.ctx_index_.find(p);
    if (it != out_.ctx_index_.end()) return it->second;
    CtxIdx id = static_cast<CtxIdx>(out_.ctx_props_.size());
    out_.ctx_props_.push_back(p);
    out_.ctx_index_.emplace(std::move(p), id);
    return id;
  }

  CtxIdx InternGlobal(PredId pred, std::vector<ConstId> args) {
    CtxProp prop;
    prop.kind = CtxProp::Kind::kGlobal;
    prop.pred = pred;
    prop.args = std::move(args);
    return InternCtx(std::move(prop));
  }

  CtxIdx InternPinned(Path path, AtomIdx atom) {
    CtxProp prop;
    prop.kind = CtxProp::Kind::kPinned;
    prop.path = std::move(path);
    prop.atom = atom;
    return InternCtx(std::move(prop));
  }

  Status GroundFacts() {
    for (const Atom& f : program_.facts) {
      std::vector<ConstId> args;
      args.reserve(f.args.size());
      for (const NfArg& a : f.args) args.push_back(a.id);
      if (f.fterm.has_value()) {
        std::vector<FuncId> syms;
        syms.reserve(f.fterm->apps.size());
        for (const FuncApply& a : f.fterm->apps) syms.push_back(a.fn);
        AtomIdx atom = InternAtom(SliceAtom{f.pred, std::move(args)});
        out_.pinned_facts_.emplace_back(Path(std::move(syms)), atom);
      } else {
        out_.global_facts_.push_back(InternGlobal(f.pred, std::move(args)));
      }
    }
    return Status::OK();
  }

  // --- per-rule grounding ---

  Status GroundOneRule(const Rule& rule) {
    const std::vector<VarId> vars = RuleVariables(rule);
    Plan plan;
    std::vector<bool> bound(vars.size(), false);
    for (const Atom& a : rule.body) {
      if (options_.edb_pruning && !a.fterm.has_value() && edb_[a.pred].is_edb) {
        PlanAtom& atom = plan.edb.emplace_back(Compile(a, vars));
        for (const PlanArg& arg : atom.args) {
          if (arg.is_slot && !bound[arg.id]) {
            bound[arg.id] = true;
            atom.binds.push_back(arg.id);
          }
        }
      } else {
        plan.other.push_back(Compile(a, vars));
      }
    }
    plan.head = Compile(rule.head, vars);
    for (uint32_t v = 0; v < vars.size(); ++v) {
      if (!bound[v]) plan.free.push_back(v);
    }
    subst_.assign(vars.size(), kUnbound);
    return MatchEdb(plan, 0);
  }

  /// The fact positions `atom` can match under the current bindings: the
  /// smallest index bucket among its bound arguments, or null to scan every
  /// fact. Sets `*none` when some bound argument matches no fact at all.
  const std::vector<uint32_t>* Candidates(const PlanAtom& atom, bool* none) {
    EdbFacts& e = edb_[atom.pred];
    const std::vector<uint32_t>* best = nullptr;
    for (size_t k = 0; k < atom.args.size(); ++k) {
      const PlanArg& arg = atom.args[k];
      const ConstId val = arg.is_slot ? subst_[arg.id] : arg.id;
      if (val == kUnbound) continue;
      if (e.by_arg.empty()) e.by_arg.resize(atom.args.size());
      if (e.by_arg[k].empty()) {  // MatchEdb only probes predicates with facts
        for (uint32_t i = 0; i < e.facts.size(); ++i) {
          e.by_arg[k][e.facts[i]->args[k].id].push_back(i);
        }
      }
      auto it = e.by_arg[k].find(val);
      if (it == e.by_arg[k].end()) {
        *none = true;
        return nullptr;
      }
      if (best == nullptr || it->second.size() < best->size()) {
        best = &it->second;
      }
    }
    return best;
  }

  Status MatchEdb(const Plan& plan, size_t i) {
    if (i == plan.edb.size()) return EnumerateFreeVars(plan);
    const PlanAtom& atom = plan.edb[i];
    const std::vector<const Atom*>& facts = edb_[atom.pred].facts;
    if (facts.empty()) return Status::OK();  // no facts: no match
    bool none = false;
    const std::vector<uint32_t>* candidates = Candidates(atom, &none);
    if (none) return Status::OK();
    const size_t n = candidates != nullptr ? candidates->size() : facts.size();
    for (size_t c = 0; c < n; ++c) {
      const Atom& fact = *facts[candidates != nullptr ? (*candidates)[c] : c];
      bool ok = true;
      for (size_t k = 0; k < atom.args.size() && ok; ++k) {
        const PlanArg& pat = atom.args[k];
        const ConstId val = fact.args[k].id;
        if (!pat.is_slot) {
          ok = pat.id == val;
        } else if (subst_[pat.id] == kUnbound) {
          subst_[pat.id] = val;
        } else {
          ok = subst_[pat.id] == val;
        }
      }
      if (ok) RELSPEC_RETURN_NOT_OK(MatchEdb(plan, i + 1));
      for (uint32_t v : atom.binds) subst_[v] = kUnbound;
    }
    return Status::OK();
  }

  Status EnumerateFreeVars(const Plan& plan) {
    const std::vector<uint32_t>& free = plan.free;
    if (free.empty()) return EmitInstance(plan);
    if (domain_.empty()) return Status::OK();  // cannot bind
    std::vector<size_t> idx(free.size(), 0);
    while (true) {
      for (size_t k = 0; k < free.size(); ++k) {
        subst_[free[k]] = domain_[idx[k]];
      }
      RELSPEC_RETURN_NOT_OK(EmitInstance(plan));
      size_t k = 0;
      for (; k < idx.size(); ++k) {
        if (++idx[k] < domain_.size()) break;
        idx[k] = 0;
      }
      if (k == idx.size()) break;
    }
    for (uint32_t v : free) subst_[v] = kUnbound;
    return Status::OK();
  }

  std::vector<ConstId> Instantiate(const PlanAtom& atom) const {
    std::vector<ConstId> args;
    args.reserve(atom.args.size());
    for (const PlanArg& a : atom.args) {
      args.push_back(a.is_slot ? subst_[a.id] : a.id);
    }
    return args;
  }

  Status EmitInstance(const Plan& plan) {
    GroundRule g;
    for (const PlanAtom& a : plan.other) {
      std::vector<ConstId> args = Instantiate(a);
      switch (a.place) {
        case Place::kGlobal:
          g.body_ctx.push_back(InternGlobal(a.pred, std::move(args)));
          break;
        case Place::kPinned:
          g.body_ctx.push_back(
              InternPinned(a.path, InternAtom(SliceAtom{a.pred, std::move(args)})));
          break;
        case Place::kEps:
          g.body_eps.push_back(InternAtom(SliceAtom{a.pred, std::move(args)}));
          break;
        case Place::kChild:
          g.body_child.emplace_back(
              a.sym, InternAtom(SliceAtom{a.pred, std::move(args)}));
          break;
      }
    }

    const PlanAtom& h = plan.head;
    std::vector<ConstId> head_args = Instantiate(h);
    switch (h.place) {
      case Place::kGlobal:
        g.head_kind = GroundRule::HeadKind::kCtx;
        g.head_id = InternGlobal(h.pred, std::move(head_args));
        break;
      case Place::kPinned:
        g.head_kind = GroundRule::HeadKind::kCtx;
        g.head_id = InternPinned(
            h.path, InternAtom(SliceAtom{h.pred, std::move(head_args)}));
        break;
      case Place::kEps:
        g.head_kind = GroundRule::HeadKind::kEps;
        g.head_id = InternAtom(SliceAtom{h.pred, std::move(head_args)});
        break;
      case Place::kChild:
        g.head_kind = GroundRule::HeadKind::kChild;
        g.head_sym = h.sym;
        g.head_id = InternAtom(SliceAtom{h.pred, std::move(head_args)});
        break;
    }

    // Canonicalize for deduplication.
    std::sort(g.body_eps.begin(), g.body_eps.end());
    g.body_eps.erase(std::unique(g.body_eps.begin(), g.body_eps.end()),
                     g.body_eps.end());
    std::sort(g.body_child.begin(), g.body_child.end());
    g.body_child.erase(std::unique(g.body_child.begin(), g.body_child.end()),
                       g.body_child.end());
    std::sort(g.body_ctx.begin(), g.body_ctx.end());
    g.body_ctx.erase(std::unique(g.body_ctx.begin(), g.body_ctx.end()),
                     g.body_ctx.end());

    const uint64_t hash = GroundRuleHash{}(g);
    if (seen_rules_.Find(hash, [&](uint32_t id) { return RuleOf(id) == g; }) !=
        IdIndex::kNone) {
      return Status::OK();
    }
    if (seen_rules_.size() + 1 > options_.max_rules) {
      return Status::ResourceExhausted(
          StrFormat("grounding exceeded max_rules=%zu", options_.max_rules));
    }
    if (g.IsLocal()) {
      seen_rules_.Insert(hash, static_cast<uint32_t>(out_.local_rules_.size()));
      out_.local_rules_.push_back(std::move(g));
    } else {
      seen_rules_.Insert(hash, kGlobalRule | static_cast<uint32_t>(
                                                 out_.global_rules_.size()));
      out_.global_rules_.push_back(std::move(g));
    }
    return Status::OK();
  }

  /// The emitted rule `id` names in `seen_rules_`: a local rule's index, or
  /// a global rule's index with kGlobalRule set.
  const GroundRule& RuleOf(uint32_t id) const {
    return (id & kGlobalRule) != 0 ? out_.global_rules_[id & ~kGlobalRule]
                                   : out_.local_rules_[id];
  }
  static constexpr uint32_t kGlobalRule = uint32_t{1} << 31;

  const Program& program_;
  GroundOptions options_;
  GroundProgram out_;
  std::vector<ConstId> domain_;
  std::vector<EdbFacts> edb_;  // by predicate id
  std::vector<ConstId> subst_;  // by slot of the rule being grounded
  /// The emitted rules by GroundRuleHash, compared in place.
  IdIndex seen_rules_;
};

StatusOr<GroundProgram> Ground(const Program& program,
                               const GroundOptions& options) {
  Grounder grounder(program, options);
  return grounder.Run();
}

}  // namespace relspec
