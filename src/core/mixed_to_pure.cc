#include "src/core/mixed_to_pure.h"

#include <map>
#include <set>

#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {
namespace {

// The pure encoding of g applied with constant arguments (a, b) is the unary
// symbol named "g{a,b}". '{' cannot occur in user identifiers, so encodings
// never collide with user symbols.
std::string PureName(const SymbolTable& symbols, FuncId g,
                     const std::vector<ConstId>& args) {
  std::string name = symbols.function(g).name + "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) name += ",";
    name += symbols.constant_name(args[i]);
  }
  name += "}";
  return name;
}

StatusOr<FuncId> PureSymbolFor(SymbolTable* symbols, FuncId g,
                               const std::vector<ConstId>& args,
                               int* new_symbols) {
  std::string name = PureName(*symbols, g, args);
  bool existed = symbols->FindFunction(name).ok();
  RELSPEC_ASSIGN_OR_RETURN(FuncId id, symbols->InternFunction(name, 1));
  if (!existed && new_symbols != nullptr) ++(*new_symbols);
  return id;
}

// Collects rule variables that occur as arguments of mixed applications.
void CollectMixedArgVars(const Atom& atom, const SymbolTable& symbols,
                         std::set<VarId>* vars) {
  if (!atom.fterm.has_value()) return;
  for (const FuncApply& app : atom.fterm->apps) {
    if (symbols.function(app.fn).arity < 2) continue;
    for (const NfArg& a : app.args) {
      if (a.IsVariable()) vars->insert(a.id);
    }
  }
}

NfArg SubstArg(const NfArg& a, const std::map<VarId, ConstId>& subst) {
  if (a.IsVariable()) {
    auto it = subst.find(a.id);
    if (it != subst.end()) return NfArg::Constant(it->second);
  }
  return a;
}

// Applies the substitution everywhere and purifies mixed applications whose
// arguments are now all constants.
StatusOr<Atom> RewriteAtom(const Atom& atom, const std::map<VarId, ConstId>& subst,
                           SymbolTable* symbols, int* new_symbols) {
  Atom out = atom;
  for (NfArg& a : out.args) a = SubstArg(a, subst);
  if (out.fterm.has_value()) {
    for (FuncApply& app : out.fterm->apps) {
      for (NfArg& a : app.args) a = SubstArg(a, subst);
      if (symbols->function(app.fn).arity >= 2) {
        std::vector<ConstId> consts;
        consts.reserve(app.args.size());
        for (const NfArg& a : app.args) {
          if (!a.IsConstant()) {
            return Status::Internal(
                "mixed application still has a variable argument after "
                "substitution");
          }
          consts.push_back(a.id);
        }
        RELSPEC_ASSIGN_OR_RETURN(
            FuncId pure, PureSymbolFor(symbols, app.fn, consts, new_symbols));
        app.fn = pure;
        app.args.clear();
      }
    }
  }
  return out;
}

bool AtomHasMixed(const Atom& atom, const SymbolTable& symbols) {
  if (!atom.fterm.has_value()) return false;
  for (const FuncApply& app : atom.fterm->apps) {
    if (symbols.function(app.fn).arity >= 2) return true;
  }
  return false;
}

}  // namespace

StatusOr<FuncTerm> PurifyGroundTerm(const FuncTerm& term,
                                    const SymbolTable* symbols) {
  if (!term.IsGround()) {
    return Status::InvalidArgument("PurifyGroundTerm needs a ground term");
  }
  FuncTerm out;
  std::vector<ConstId> consts;
  for (const FuncApply& app : term.apps) {
    if (app.fn >= symbols->num_functions()) {
      return Status::NotFound("unknown function symbol in term");
    }
    if (symbols->function(app.fn).arity < 2) {
      out.apps.push_back(FuncApply{app.fn, {}});
      continue;
    }
    consts.clear();
    for (const NfArg& a : app.args) {
      if (a.id >= symbols->num_constants()) {
        return Status::NotFound("unknown constant in term");
      }
      consts.push_back(a.id);
    }
    RELSPEC_ASSIGN_OR_RETURN(
        FuncId pure, symbols->FindFunction(PureName(*symbols, app.fn, consts)));
    out.apps.push_back(FuncApply{pure, {}});
  }
  return out;
}

bool DecodePureSymbol(const SymbolTable& symbols, FuncId f, FuncId* mixed,
                      std::vector<ConstId>* args) {
  const std::string& name = symbols.function(f).name;
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return false;
  StatusOr<FuncId> g = symbols.FindFunction(name.substr(0, brace));
  if (!g.ok() || symbols.function(*g).arity < 2) return false;
  args->clear();
  for (const std::string& part :
       Split(std::string_view(name).substr(brace + 1, name.size() - brace - 2),
             ',')) {
    StatusOr<ConstId> c = symbols.FindConstant(part);
    if (!c.ok()) return false;
    args->push_back(*c);
  }
  if (args->size() + 1 != static_cast<size_t>(symbols.function(*g).arity)) {
    return false;
  }
  *mixed = *g;
  return true;
}

StatusOr<MixedToPureStats> MixedToPure(Program* program) {
  RELSPEC_PHASE("purify");
  MixedToPureStats stats;
  stats.rules_in = static_cast<int>(program->rules.size());

  // The active domain must be captured before rewriting (rewriting does not
  // add constants, but keep the semantics obvious).
  std::vector<ConstId> domain = program->ActiveDomain();

  for (Atom& fact : program->facts) {
    RELSPEC_ASSIGN_OR_RETURN(
        fact, RewriteAtom(fact, {}, &program->symbols, &stats.new_symbols));
  }

  std::vector<Rule> out_rules;
  for (const Rule& rule : program->rules) {
    std::set<VarId> mixed_vars;
    CollectMixedArgVars(rule.head, program->symbols, &mixed_vars);
    for (const Atom& a : rule.body) {
      CollectMixedArgVars(a, program->symbols, &mixed_vars);
    }
    bool has_mixed = AtomHasMixed(rule.head, program->symbols);
    for (const Atom& a : rule.body) has_mixed |= AtomHasMixed(a, program->symbols);

    if (!has_mixed) {
      out_rules.push_back(rule);
      continue;
    }
    if (mixed_vars.empty()) {
      Rule r;
      RELSPEC_ASSIGN_OR_RETURN(
          r.head, RewriteAtom(rule.head, {}, &program->symbols, &stats.new_symbols));
      for (const Atom& a : rule.body) {
        RELSPEC_ASSIGN_OR_RETURN(
            Atom b, RewriteAtom(a, {}, &program->symbols, &stats.new_symbols));
        r.body.push_back(std::move(b));
      }
      out_rules.push_back(std::move(r));
      continue;
    }

    // Instantiate the mixed-argument variables over the active domain. If
    // the domain is empty, the rule can never fire and is dropped.
    std::vector<VarId> vars(mixed_vars.begin(), mixed_vars.end());
    std::vector<size_t> idx(vars.size(), 0);
    if (domain.empty()) continue;
    while (true) {
      std::map<VarId, ConstId> subst;
      for (size_t i = 0; i < vars.size(); ++i) subst[vars[i]] = domain[idx[i]];
      Rule r;
      RELSPEC_ASSIGN_OR_RETURN(
          r.head,
          RewriteAtom(rule.head, subst, &program->symbols, &stats.new_symbols));
      for (const Atom& a : rule.body) {
        RELSPEC_ASSIGN_OR_RETURN(
            Atom b, RewriteAtom(a, subst, &program->symbols, &stats.new_symbols));
        r.body.push_back(std::move(b));
      }
      out_rules.push_back(std::move(r));
      // Advance the odometer.
      size_t i = 0;
      for (; i < idx.size(); ++i) {
        if (++idx[i] < domain.size()) break;
        idx[i] = 0;
      }
      if (i == idx.size()) break;
    }
  }
  program->rules = std::move(out_rules);
  stats.rules_out = static_cast<int>(program->rules.size());
  RELSPEC_GAUGE_SET("purify.rules_in", stats.rules_in);
  RELSPEC_GAUGE_SET("purify.rules_out", stats.rules_out);
  RELSPEC_GAUGE_SET("purify.new_symbols", stats.new_symbols);
  return stats;
}

}  // namespace relspec
