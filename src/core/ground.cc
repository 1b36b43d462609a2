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

CtxProp GroundProgram::ctx_prop(CtxIdx i) const {
  const AtomRef row = ctx_[i];
  CtxProp out;
  if ((row.pred & kPinnedRow) == 0) {
    out.pred = row.pred;
    out.args = row.args;
  } else {
    out.kind = CtxProp::Kind::kPinned;
    out.path = row.args;
    out.atom = row.pred & ~kPinnedRow;
  }
  return out;
}

std::string GroundProgram::AtomToString(AtomIdx i,
                                        const SymbolTable& symbols) const {
  const AtomRef a = atoms_[i];
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
  const CtxProp p = ctx_prop(i);
  if (p.kind == CtxProp::Kind::kGlobal) {
    std::string out = symbols.predicate(p.pred).name + "(";
    for (size_t k = 0; k < p.args.size(); ++k) {
      if (k > 0) out += ",";
      out += symbols.constant_name(p.args[k]);
    }
    out += ")";
    return out;
  }
  return StrFormat("pinned[%s: %s]", Path(p.path).ToString(symbols).c_str(),
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
//
// One plan, one instance buffer and one scratch rule are reused across rules
// and instances: atoms are interned from the buffer, and a rule is copied out
// only when it is new. So an instance whose atoms and rule already exist
// allocates nothing.
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

    GroundFacts();
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

  /// A compiled atom. Its arguments, pinned path and first bindings are runs
  /// [begin, end) of the plan's arrays.
  struct PlanAtom {
    PredId pred = kInvalidId;
    uint32_t args_begin = 0, args_end = 0;  // into Plan::args
    Place place = Place::kGlobal;
    uint32_t path_begin = 0, path_end = 0;    // kPinned: into Plan::paths
    SymIdx sym = 0;                           // kChild
    uint32_t binds_begin = 0, binds_end = 0;  // EDB atoms: into Plan::binds
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
    std::vector<PlanArg> args;    // every atom's arguments
    std::vector<FuncId> paths;    // pinned atoms' symbols, innermost first
    std::vector<uint32_t> binds;  // the slots each EDB atom binds first

    void Clear() {
      edb.clear();
      other.clear();
      free.clear();
      args.clear();
      paths.clear();
      binds.clear();
    }
  };

  std::span<const PlanArg> ArgsOf(const PlanAtom& atom) const {
    return std::span<const PlanArg>(plan_.args)
        .subspan(atom.args_begin, atom.args_end - atom.args_begin);
  }

  /// Compiles `atom` over the slots of vars_ into plan_.
  PlanAtom Compile(const Atom& atom) {
    PlanAtom out;
    out.pred = atom.pred;
    out.args_begin = static_cast<uint32_t>(plan_.args.size());
    for (const NfArg& a : atom.args) {
      if (a.IsConstant()) {
        plan_.args.push_back(PlanArg{false, a.id});
      } else {
        auto it = std::lower_bound(vars_.begin(), vars_.end(), a.id);
        plan_.args.push_back(
            PlanArg{true, static_cast<uint32_t>(it - vars_.begin())});
      }
    }
    out.args_end = static_cast<uint32_t>(plan_.args.size());
    if (!atom.fterm.has_value()) {
      out.place = Place::kGlobal;
    } else if (atom.fterm->IsGround()) {
      out.place = Place::kPinned;
      out.path_begin = static_cast<uint32_t>(plan_.paths.size());
      for (const FuncApply& a : atom.fterm->apps) plan_.paths.push_back(a.fn);
      out.path_end = static_cast<uint32_t>(plan_.paths.size());
    } else if (atom.fterm->depth() == 0) {
      out.place = Place::kEps;
    } else {  // depth 1: f(s)
      out.place = Place::kChild;
      out.sym = out_.SymIndexOf(atom.fterm->apps[0].fn);
      RELSPEC_CHECK_NE(out.sym, kInvalidId);
    }
    return out;
  }

  AtomIdx InternAtom(PredId pred, std::span<const ConstId> args) {
    return out_.atoms_.Intern(pred, args);
  }

  CtxIdx InternGlobal(PredId pred, std::span<const ConstId> args) {
    return out_.ctx_.Intern(pred, args);
  }

  CtxIdx InternPinned(std::span<const FuncId> path, AtomIdx atom) {
    return out_.ctx_.Intern(atom | GroundProgram::kPinnedRow, path);
  }

  void GroundFacts() {
    for (const Atom& f : program_.facts) {
      buf_.clear();
      for (const NfArg& a : f.args) buf_.push_back(a.id);
      if (f.fterm.has_value()) {
        const AtomIdx atom = InternAtom(f.pred, buf_);
        buf_.clear();
        for (const FuncApply& a : f.fterm->apps) buf_.push_back(a.fn);
        out_.pinned_facts_.Intern(atom, buf_);
      } else {
        out_.global_facts_.push_back(InternGlobal(f.pred, buf_));
      }
    }
  }

  // --- per-rule grounding ---

  Status GroundOneRule(const Rule& rule) {
    // The ascending non-functional variables of `rule`: slot i is vars_[i].
    vars_.clear();
    std::optional<VarId> fv;
    CollectVariables(rule.head, &vars_, &fv);
    for (const Atom& a : rule.body) CollectVariables(a, &vars_, &fv);
    std::sort(vars_.begin(), vars_.end());

    plan_.Clear();
    bound_.assign(vars_.size(), false);
    for (const Atom& a : rule.body) {
      if (options_.edb_pruning && !a.fterm.has_value() && edb_[a.pred].is_edb) {
        PlanAtom atom = Compile(a);
        atom.binds_begin = static_cast<uint32_t>(plan_.binds.size());
        for (const PlanArg& arg : ArgsOf(atom)) {
          if (arg.is_slot && !bound_[arg.id]) {
            bound_[arg.id] = true;
            plan_.binds.push_back(arg.id);
          }
        }
        atom.binds_end = static_cast<uint32_t>(plan_.binds.size());
        plan_.edb.push_back(atom);
      } else {
        plan_.other.push_back(Compile(a));
      }
    }
    plan_.head = Compile(rule.head);
    for (uint32_t v = 0; v < vars_.size(); ++v) {
      if (!bound_[v]) plan_.free.push_back(v);
    }
    subst_.assign(vars_.size(), kUnbound);
    return MatchEdb(0);
  }

  /// The fact positions `atom` can match under the current bindings: the
  /// smallest index bucket among its bound arguments, or null to scan every
  /// fact. Sets `*none` when some bound argument matches no fact at all.
  const std::vector<uint32_t>* Candidates(const PlanAtom& atom, bool* none) {
    EdbFacts& e = edb_[atom.pred];
    const std::span<const PlanArg> args = ArgsOf(atom);
    const std::vector<uint32_t>* best = nullptr;
    for (size_t k = 0; k < args.size(); ++k) {
      const PlanArg& arg = args[k];
      const ConstId val = arg.is_slot ? subst_[arg.id] : arg.id;
      if (val == kUnbound) continue;
      if (e.by_arg.empty()) e.by_arg.resize(args.size());
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

  Status MatchEdb(size_t i) {
    if (i == plan_.edb.size()) return EnumerateFreeVars();
    const PlanAtom& atom = plan_.edb[i];
    const std::vector<const Atom*>& facts = edb_[atom.pred].facts;
    if (facts.empty()) return Status::OK();  // no facts: no match
    bool none = false;
    const std::vector<uint32_t>* candidates = Candidates(atom, &none);
    if (none) return Status::OK();
    const std::span<const PlanArg> args = ArgsOf(atom);
    const size_t n = candidates != nullptr ? candidates->size() : facts.size();
    for (size_t c = 0; c < n; ++c) {
      const Atom& fact = *facts[candidates != nullptr ? (*candidates)[c] : c];
      bool ok = true;
      for (size_t k = 0; k < args.size() && ok; ++k) {
        const PlanArg& pat = args[k];
        const ConstId val = fact.args[k].id;
        if (!pat.is_slot) {
          ok = pat.id == val;
        } else if (subst_[pat.id] == kUnbound) {
          subst_[pat.id] = val;
        } else {
          ok = subst_[pat.id] == val;
        }
      }
      if (ok) RELSPEC_RETURN_NOT_OK(MatchEdb(i + 1));
      for (uint32_t b = atom.binds_begin; b < atom.binds_end; ++b) {
        subst_[plan_.binds[b]] = kUnbound;
      }
    }
    return Status::OK();
  }

  Status EnumerateFreeVars() {
    const std::vector<uint32_t>& free = plan_.free;
    if (free.empty()) return EmitInstance();
    if (domain_.empty()) return Status::OK();  // cannot bind
    odometer_.assign(free.size(), 0);
    while (true) {
      for (size_t k = 0; k < free.size(); ++k) {
        subst_[free[k]] = domain_[odometer_[k]];
      }
      RELSPEC_RETURN_NOT_OK(EmitInstance());
      size_t k = 0;
      for (; k < odometer_.size(); ++k) {
        if (++odometer_[k] < domain_.size()) break;
        odometer_[k] = 0;
      }
      if (k == odometer_.size()) break;
    }
    for (uint32_t v : free) subst_[v] = kUnbound;
    return Status::OK();
  }

  /// `atom`'s arguments under the current substitution, in buf_.
  std::span<const ConstId> Instantiate(const PlanAtom& atom) {
    buf_.clear();
    for (const PlanArg& a : ArgsOf(atom)) {
      buf_.push_back(a.is_slot ? subst_[a.id] : a.id);
    }
    return buf_;
  }

  std::span<const FuncId> PathOf(const PlanAtom& atom) const {
    return std::span<const FuncId>(plan_.paths)
        .subspan(atom.path_begin, atom.path_end - atom.path_begin);
  }

  Status EmitInstance() {
    GroundRule& g = rule_;
    g.body_eps.clear();
    g.body_child.clear();
    g.body_ctx.clear();
    g.head_sym = 0;
    for (const PlanAtom& a : plan_.other) {
      const std::span<const ConstId> args = Instantiate(a);
      switch (a.place) {
        case Place::kGlobal:
          g.body_ctx.push_back(InternGlobal(a.pred, args));
          break;
        case Place::kPinned:
          g.body_ctx.push_back(
              InternPinned(PathOf(a), InternAtom(a.pred, args)));
          break;
        case Place::kEps:
          g.body_eps.push_back(InternAtom(a.pred, args));
          break;
        case Place::kChild:
          g.body_child.emplace_back(a.sym, InternAtom(a.pred, args));
          break;
      }
    }

    const PlanAtom& h = plan_.head;
    const std::span<const ConstId> head_args = Instantiate(h);
    switch (h.place) {
      case Place::kGlobal:
        g.head_kind = GroundRule::HeadKind::kCtx;
        g.head_id = InternGlobal(h.pred, head_args);
        break;
      case Place::kPinned:
        g.head_kind = GroundRule::HeadKind::kCtx;
        g.head_id = InternPinned(PathOf(h), InternAtom(h.pred, head_args));
        break;
      case Place::kEps:
        g.head_kind = GroundRule::HeadKind::kEps;
        g.head_id = InternAtom(h.pred, head_args);
        break;
      case Place::kChild:
        g.head_kind = GroundRule::HeadKind::kChild;
        g.head_sym = h.sym;
        g.head_id = InternAtom(h.pred, head_args);
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
      out_.local_rules_.push_back(g);
    } else {
      seen_rules_.Insert(hash, kGlobalRule | static_cast<uint32_t>(
                                                 out_.global_rules_.size()));
      out_.global_rules_.push_back(g);
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
  // Reused by every rule and instance:
  std::vector<VarId> vars_;      // the rule's variables, by slot
  std::vector<bool> bound_;      // by slot: some EDB atom binds it
  Plan plan_;                    // the rule's compiled atoms
  std::vector<ConstId> subst_;   // by slot of the rule being grounded
  std::vector<size_t> odometer_; // free slots' domain positions
  std::vector<ConstId> buf_;     // the atom being interned
  GroundRule rule_;              // the instance being emitted
  /// The emitted rules by GroundRuleHash, compared in place.
  IdIndex seen_rules_;
};

StatusOr<GroundProgram> Ground(const Program& program,
                               const GroundOptions& options) {
  Grounder grounder(program, options);
  return grounder.Run();
}

}  // namespace relspec
