#include "src/core/ground.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "src/ast/printer.h"
#include "src/core/analysis.h"
#include "src/ast/validate.h"
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

SymIdx GroundProgram::SymIndexOf(FuncId f) const {
  auto it = sym_index_.find(f);
  return it == sym_index_.end() ? kInvalidId : it->second;
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

namespace {

struct GroundRuleHash {
  size_t operator()(const GroundRule& r) const {
    uint64_t h = 1469598103934665603ull;
    for (AtomIdx a : r.body_eps) h = MixHash(h, a);
    for (const auto& [s, a] : r.body_child) h = MixHash(h, (uint64_t{s} << 32) | a);
    for (CtxIdx c : r.body_ctx) h = MixHash(h, c);
    h = MixHash(h, static_cast<uint64_t>(r.head_kind));
    h = MixHash(h, r.head_sym);
    h = MixHash(h, r.head_id);
    return static_cast<size_t>(h);
  }
};

}  // namespace

// Friend of GroundProgram; see ground.h.
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
    RELSPEC_RETURN_NOT_OK(ValidateProgram(program_));

    out_.alphabet_ = program_.PureFunctions();
    for (SymIdx i = 0; i < out_.alphabet_.size(); ++i) {
      out_.sym_index_.emplace(out_.alphabet_[i], i);
    }
    out_.trunk_depth_ = program_.MaxGroundDepth();
    domain_ = program_.ActiveDomain();

    // EDB non-functional predicates: never derived by any rule.
    std::set<PredId> head_preds;
    for (const Rule& r : program_.rules) head_preds.insert(r.head.pred);
    for (PredId p = 0; p < program_.symbols.num_predicates(); ++p) {
      if (!program_.symbols.predicate(p).functional && head_preds.count(p) == 0) {
        edb_preds_.insert(p);
      }
    }
    for (const Atom& f : program_.facts) {
      facts_by_pred_[f.pred].push_back(&f);
    }

    RELSPEC_RETURN_NOT_OK(GroundFacts());
    for (const Rule& r : program_.rules) {
      RELSPEC_RETURN_NOT_OK(GroundOneRule(r));
    }
    return std::move(out_);
  }

 private:
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

  // The functional term of a ground atom as a Path.
  StatusOr<Path> GroundPath(const FuncTerm& t) const {
    if (!t.IsGround()) return Status::Internal("GroundPath on non-ground term");
    std::vector<FuncId> syms;
    syms.reserve(t.apps.size());
    for (const FuncApply& a : t.apps) syms.push_back(a.fn);
    return Path(std::move(syms));
  }

  Status GroundFacts() {
    for (const Atom& f : program_.facts) {
      if (f.fterm.has_value()) {
        RELSPEC_ASSIGN_OR_RETURN(Path path, GroundPath(*f.fterm));
        SliceAtom atom;
        atom.pred = f.pred;
        for (const NfArg& a : f.args) atom.args.push_back(a.id);
        out_.pinned_facts_.emplace_back(std::move(path), InternAtom(atom));
      } else {
        CtxProp prop;
        prop.kind = CtxProp::Kind::kGlobal;
        prop.pred = f.pred;
        for (const NfArg& a : f.args) prop.args.push_back(a.id);
        out_.global_facts_.push_back(InternCtx(std::move(prop)));
      }
    }
    return Status::OK();
  }

  // --- per-rule grounding ---

  Status GroundOneRule(const Rule& rule) {
    // Split body into EDB-prunable atoms and the rest.
    std::vector<const Atom*> edb_atoms;
    std::vector<const Atom*> other_body;
    for (const Atom& a : rule.body) {
      if (options_.edb_pruning && !a.fterm.has_value() &&
          edb_preds_.count(a.pred) > 0) {
        edb_atoms.push_back(&a);
      } else {
        other_body.push_back(&a);
      }
    }
    std::map<VarId, ConstId> subst;
    return MatchEdb(rule, edb_atoms, other_body, 0, &subst);
  }

  Status MatchEdb(const Rule& rule, const std::vector<const Atom*>& edb_atoms,
                  const std::vector<const Atom*>& other_body, size_t i,
                  std::map<VarId, ConstId>* subst) {
    if (i == edb_atoms.size()) {
      return EnumerateFreeVars(rule, other_body, subst);
    }
    const Atom& atom = *edb_atoms[i];
    auto it = facts_by_pred_.find(atom.pred);
    if (it == facts_by_pred_.end()) return Status::OK();  // no facts: no match
    for (const Atom* fact : it->second) {
      std::vector<VarId> bound_here;
      bool ok = true;
      for (size_t k = 0; k < atom.args.size() && ok; ++k) {
        const NfArg& pat = atom.args[k];
        ConstId val = fact->args[k].id;
        if (pat.IsConstant()) {
          ok = pat.id == val;
        } else {
          auto sit = subst->find(pat.id);
          if (sit == subst->end()) {
            (*subst)[pat.id] = val;
            bound_here.push_back(pat.id);
          } else {
            ok = sit->second == val;
          }
        }
      }
      if (ok) {
        RELSPEC_RETURN_NOT_OK(MatchEdb(rule, edb_atoms, other_body, i + 1, subst));
      }
      for (VarId v : bound_here) subst->erase(v);
    }
    return Status::OK();
  }

  Status EnumerateFreeVars(const Rule& rule,
                           const std::vector<const Atom*>& other_body,
                           std::map<VarId, ConstId>* subst) {
    // Remaining unbound non-functional variables of the rule.
    std::set<VarId> vars;
    auto collect = [&vars](const Atom& a) {
      std::vector<VarId> nf;
      std::optional<VarId> fv;
      CollectVariables(a, &nf, &fv);
      vars.insert(nf.begin(), nf.end());
    };
    collect(rule.head);
    for (const Atom& a : rule.body) collect(a);
    std::vector<VarId> free;
    for (VarId v : vars) {
      if (subst->count(v) == 0) free.push_back(v);
    }
    if (!free.empty() && domain_.empty()) return Status::OK();  // cannot bind

    std::vector<size_t> idx(free.size(), 0);
    while (true) {
      for (size_t k = 0; k < free.size(); ++k) (*subst)[free[k]] = domain_[idx[k]];
      RELSPEC_RETURN_NOT_OK(EmitInstance(rule, other_body, *subst));
      size_t k = 0;
      for (; k < idx.size(); ++k) {
        if (++idx[k] < domain_.size()) break;
        idx[k] = 0;
      }
      if (k == idx.size() || free.empty()) break;
    }
    for (VarId v : free) subst->erase(v);
    return Status::OK();
  }

  StatusOr<SliceAtom> SubstSliceAtom(const Atom& atom,
                                     const std::map<VarId, ConstId>& subst) {
    SliceAtom out;
    out.pred = atom.pred;
    for (const NfArg& a : atom.args) {
      if (a.IsConstant()) {
        out.args.push_back(a.id);
      } else {
        auto it = subst.find(a.id);
        if (it == subst.end()) {
          return Status::Internal("unbound variable during grounding");
        }
        out.args.push_back(it->second);
      }
    }
    return out;
  }

  Status EmitInstance(const Rule& rule, const std::vector<const Atom*>& body,
                      const std::map<VarId, ConstId>& subst) {
    GroundRule g;
    for (const Atom* ap : body) {
      const Atom& a = *ap;
      if (!a.fterm.has_value()) {
        RELSPEC_ASSIGN_OR_RETURN(SliceAtom sa, SubstSliceAtom(a, subst));
        CtxProp prop;
        prop.kind = CtxProp::Kind::kGlobal;
        prop.pred = sa.pred;
        prop.args = std::move(sa.args);
        g.body_ctx.push_back(InternCtx(std::move(prop)));
        continue;
      }
      RELSPEC_ASSIGN_OR_RETURN(SliceAtom sa, SubstSliceAtom(a, subst));
      const FuncTerm& t = *a.fterm;
      if (t.IsGround()) {
        RELSPEC_ASSIGN_OR_RETURN(Path path, GroundPath(t));
        CtxProp prop;
        prop.kind = CtxProp::Kind::kPinned;
        prop.path = std::move(path);
        prop.atom = InternAtom(std::move(sa));
        g.body_ctx.push_back(InternCtx(std::move(prop)));
      } else if (t.depth() == 0) {
        g.body_eps.push_back(InternAtom(std::move(sa)));
      } else {  // depth 1: f(s)
        SymIdx sym = out_.SymIndexOf(t.apps[0].fn);
        RELSPEC_CHECK_NE(sym, kInvalidId);
        g.body_child.emplace_back(sym, InternAtom(std::move(sa)));
      }
    }

    const Atom& h = rule.head;
    RELSPEC_ASSIGN_OR_RETURN(SliceAtom hs, SubstSliceAtom(h, subst));
    if (!h.fterm.has_value()) {
      CtxProp prop;
      prop.kind = CtxProp::Kind::kGlobal;
      prop.pred = hs.pred;
      prop.args = std::move(hs.args);
      g.head_kind = GroundRule::HeadKind::kCtx;
      g.head_id = InternCtx(std::move(prop));
    } else if (h.fterm->IsGround()) {
      RELSPEC_ASSIGN_OR_RETURN(Path path, GroundPath(*h.fterm));
      CtxProp prop;
      prop.kind = CtxProp::Kind::kPinned;
      prop.path = std::move(path);
      prop.atom = InternAtom(std::move(hs));
      g.head_kind = GroundRule::HeadKind::kCtx;
      g.head_id = InternCtx(std::move(prop));
    } else if (h.fterm->depth() == 0) {
      g.head_kind = GroundRule::HeadKind::kEps;
      g.head_id = InternAtom(std::move(hs));
    } else {
      g.head_kind = GroundRule::HeadKind::kChild;
      g.head_sym = out_.SymIndexOf(h.fterm->apps[0].fn);
      RELSPEC_CHECK_NE(g.head_sym, kInvalidId);
      g.head_id = InternAtom(std::move(hs));
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

    if (!seen_rules_.insert(g).second) return Status::OK();
    if (seen_rules_.size() > options_.max_rules) {
      return Status::ResourceExhausted(
          StrFormat("grounding exceeded max_rules=%zu", options_.max_rules));
    }
    if (g.IsLocal()) {
      out_.local_rules_.push_back(std::move(g));
    } else {
      out_.global_rules_.push_back(std::move(g));
    }
    return Status::OK();
  }

  const Program& program_;
  GroundOptions options_;
  GroundProgram out_;
  std::vector<ConstId> domain_;
  std::set<PredId> edb_preds_;
  std::map<PredId, std::vector<const Atom*>> facts_by_pred_;
  std::unordered_set<GroundRule, GroundRuleHash> seen_rules_;
};

StatusOr<GroundProgram> Ground(const Program& program,
                               const GroundOptions& options) {
  Grounder grounder(program, options);
  return grounder.Run();
}

}  // namespace relspec
