#include "src/ast/validate.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/ast/printer.h"
#include "src/base/str_util.h"

namespace relspec {

namespace {

// A query with no names of its own: every id resolves in the table.
const Query kTableNames;

// `names` resolves function symbols, so a query's own symbols check against
// the arity the query gave them.
Status CheckAtomShape(const Atom& atom, const SymbolTable& symbols,
                      const Query& names = kTableNames) {
  if (atom.pred >= symbols.num_predicates()) {
    return Status::InvalidArgument("atom references unknown predicate id");
  }
  const PredicateInfo& info = symbols.predicate(atom.pred);
  if (info.functional != atom.fterm.has_value()) {
    return Status::InvalidArgument(StrFormat(
        "predicate '%s' is %s but the atom %s a functional term",
        info.name.c_str(), info.functional ? "functional" : "non-functional",
        atom.fterm.has_value() ? "carries" : "lacks"));
  }
  int got = static_cast<int>(atom.args.size()) + (atom.fterm.has_value() ? 1 : 0);
  if (got != info.arity) {
    return Status::InvalidArgument(
        StrFormat("predicate '%s' has arity %d but atom has %d arguments",
                  info.name.c_str(), info.arity, got));
  }
  if (atom.fterm.has_value()) {
    for (const FuncApply& a : atom.fterm->apps) {
      if (a.fn < names.local.function_base && a.fn >= symbols.num_functions()) {
        return Status::InvalidArgument("unknown function symbol id in term");
      }
      const FunctionInfo& fn = names.Function(a.fn, symbols);
      int want = fn.arity - 1;
      if (static_cast<int>(a.args.size()) != want) {
        return Status::InvalidArgument(StrFormat(
            "function symbol '%s' expects %d non-functional arguments, got %zu",
            fn.name.c_str(), want, a.args.size()));
      }
    }
  }
  return Status::OK();
}

// Collects the variables of a set of atoms.
void CollectAll(const std::vector<Atom>& atoms, std::set<VarId>* nf_vars,
                std::set<VarId>* func_vars) {
  for (const Atom& a : atoms) {
    std::vector<VarId> nf;
    std::optional<VarId> fv;
    CollectVariables(a, &nf, &fv);
    nf_vars->insert(nf.begin(), nf.end());
    if (fv.has_value()) func_vars->insert(*fv);
  }
}

}  // namespace

Status CheckRangeRestricted(const Rule& rule, const SymbolTable& symbols) {
  std::set<VarId> body_nf, body_fv;
  CollectAll(rule.body, &body_nf, &body_fv);
  std::set<VarId> head_nf, head_fv;
  CollectAll({rule.head}, &head_nf, &head_fv);
  for (VarId v : head_nf) {
    if (body_nf.count(v) == 0) {
      return Status::InvalidArgument(
          StrFormat("rule is not range-restricted (domain-dependent): head "
                    "variable '%s' does not occur in the body: %s",
                    symbols.variable_name(v).c_str(),
                    ToString(rule, symbols).c_str()));
    }
  }
  for (VarId v : head_fv) {
    if (body_fv.count(v) == 0) {
      return Status::InvalidArgument(
          StrFormat("rule is not range-restricted (domain-dependent): head "
                    "functional variable '%s' does not occur in the body: %s",
                    symbols.variable_name(v).c_str(),
                    ToString(rule, symbols).c_str()));
    }
  }
  return Status::OK();
}

bool IsNormalRule(const Rule& rule) {
  std::set<VarId> func_vars;
  auto scan = [&func_vars](const Atom& a) -> bool {
    if (!a.fterm.has_value()) return true;
    if (a.fterm->has_var) {
      func_vars.insert(a.fterm->var);
      if (a.fterm->depth() > 1) return false;  // non-ground term too deep
    }
    return true;
  };
  if (!scan(rule.head)) return false;
  for (const Atom& a : rule.body) {
    if (!scan(a)) return false;
  }
  return func_vars.size() <= 1;
}

bool IsNormalProgram(const Program& program) {
  return std::all_of(program.rules.begin(), program.rules.end(), IsNormalRule);
}

Status ValidateProgram(const Program& program) {
  for (const Atom& f : program.facts) {
    RELSPEC_RETURN_NOT_OK(CheckAtomShape(f, program.symbols)
                              .WithContext("fact " + ToString(f, program.symbols)));
    if (!f.IsGround()) {
      return Status::InvalidArgument("database fact is not ground: " +
                                     ToString(f, program.symbols));
    }
  }
  for (const Rule& r : program.rules) {
    RELSPEC_RETURN_NOT_OK(CheckAtomShape(r.head, program.symbols)
                              .WithContext("rule " + ToString(r, program.symbols)));
    for (const Atom& a : r.body) {
      RELSPEC_RETURN_NOT_OK(CheckAtomShape(a, program.symbols)
                                .WithContext("rule " + ToString(r, program.symbols)));
    }
    RELSPEC_RETURN_NOT_OK(CheckRangeRestricted(r, program.symbols));
  }
  return Status::OK();
}

Status ValidateQuery(const Query& query, const SymbolTable& symbols) {
  if (query.atoms.empty()) {
    return Status::InvalidArgument("query has no atoms");
  }
  std::set<VarId> nf_vars, func_vars;
  for (const Atom& a : query.atoms) {
    RELSPEC_RETURN_NOT_OK(
        CheckAtomShape(a, symbols, query).WithContext("query atom"));
  }
  CollectAll(query.atoms, &nf_vars, &func_vars);
  if (func_vars.size() > 1) {
    return Status::InvalidArgument(
        "query has more than one functional variable (Section 5 restricts "
        "queries to at most one)");
  }
  for (VarId v : query.answer_vars) {
    if (nf_vars.count(v) == 0 && func_vars.count(v) == 0) {
      return Status::InvalidArgument(
          StrFormat("answer variable '%s' does not occur in the query",
                    query.VariableName(v, symbols).c_str()));
    }
  }
  return Status::OK();
}

}  // namespace relspec
