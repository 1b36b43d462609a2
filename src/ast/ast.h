// Abstract syntax for functional deductive databases (Section 2.1).
//
// A Program holds a symbol table, a set of Horn rules Z, and a finite
// database D of ground facts. Functional predicates carry their functional
// term in the fixed argument position 0; the remaining arguments are
// non-functional (constants or non-functional variables).
//
// Functional terms are linear chains: every function symbol has exactly one
// functional argument, so an AST functional term is a base (the constant 0
// or one functional variable) plus a sequence of applications, innermost
// first. Mixed (k-ary) symbols carry their non-functional arguments with
// each application.

#ifndef RELSPEC_AST_AST_H_
#define RELSPEC_AST_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/term/symbol_table.h"
#include "src/term/term.h"

namespace relspec {

/// A non-functional argument: a database constant or a non-functional
/// variable.
struct NfArg {
  enum class Kind { kConstant, kVariable };
  Kind kind = Kind::kConstant;
  uint32_t id = 0;  // ConstId or VarId according to kind

  static NfArg Constant(ConstId c) { return NfArg{Kind::kConstant, c}; }
  static NfArg Variable(VarId v) { return NfArg{Kind::kVariable, v}; }
  bool IsConstant() const { return kind == Kind::kConstant; }
  bool IsVariable() const { return kind == Kind::kVariable; }
  bool operator==(const NfArg& o) const { return kind == o.kind && id == o.id; }
};

/// One function-symbol application within a functional term.
struct FuncApply {
  FuncId fn = kInvalidId;
  /// Non-functional arguments of a mixed symbol; empty for pure symbols.
  std::vector<NfArg> args;
  bool operator==(const FuncApply& o) const { return fn == o.fn && args == o.args; }
};

/// An AST-level functional term: base (0 or a functional variable) plus a
/// chain of applications, innermost first. Examples:
///   0              -> has_var=false, apps={}
///   s              -> has_var=true(var=s), apps={}
///   f(g(s))        -> has_var=true, apps={g, f}
///   ext(0, x)      -> has_var=false, apps={ext[x]}
struct FuncTerm {
  bool has_var = false;
  VarId var = kInvalidId;
  std::vector<FuncApply> apps;

  static FuncTerm Zero() { return FuncTerm{}; }
  static FuncTerm Var(VarId v) { return FuncTerm{true, v, {}}; }

  /// f(this) or f(this, args...).
  FuncTerm Apply(FuncId fn, std::vector<NfArg> args = {}) const;

  /// Number of applications above the base.
  int depth() const { return static_cast<int>(apps.size()); }
  /// True if the base is 0 and all mixed arguments are constants.
  bool IsGround() const;
  /// True if no mixed symbol occurs.
  bool IsPure() const;
  bool operator==(const FuncTerm& o) const {
    return has_var == o.has_var && (!has_var || var == o.var) && apps == o.apps;
  }

  /// Interns a ground functional term into `arena`. Fails if not ground.
  StatusOr<TermId> ToTermId(TermArena* arena) const;
  /// The AST form of an interned ground term.
  static FuncTerm FromTermId(const TermArena& arena, TermId id);
};

/// A functional or non-functional atom. For functional predicates, `fterm`
/// is the argument in the fixed functional position; `args` are the other
/// arguments in order.
struct Atom {
  PredId pred = kInvalidId;
  std::optional<FuncTerm> fterm;
  std::vector<NfArg> args;

  bool IsFunctional() const { return fterm.has_value(); }
  /// True if every argument is ground (a fact).
  bool IsGround() const;
  bool operator==(const Atom& o) const {
    return pred == o.pred && fterm == o.fterm && args == o.args;
  }
};

/// A Horn rule: body atoms imply the head atom.
struct Rule {
  std::vector<Atom> body;
  Atom head;
};

/// A positive conjunctive query. Variables not listed in `answer_vars` are
/// existentially quantified. At most one functional variable may occur
/// (Section 5).
///
/// A query read against a symbol table it may not write (ParseQuery) keeps
/// its own names in `local`: every variable, and each constant or function
/// symbol the table lacks. Their ids start at the table's counts when the
/// query was parsed, and `local` records those bases, so an id at or past a
/// base names the query's own symbol even after the table grows. A query's
/// own constant or function symbol occurs in no fact.
struct Query {
  struct LocalNames {
    ConstId constant_base = kInvalidId;
    FuncId function_base = kInvalidId;
    VarId variable_base = kInvalidId;
    std::vector<std::string> constants;
    std::vector<FunctionInfo> functions;
    std::vector<std::string> variables;
  };

  std::vector<Atom> atoms;
  /// Free variables, in output-column order. May include the functional
  /// variable.
  std::vector<VarId> answer_vars;
  /// Empty, with every base kInvalidId, for a query lowered into a table.
  LocalNames local;

  /// Names and metadata by id: the query's own when local, else the table's.
  const std::string& ConstantName(ConstId c, const SymbolTable& symbols) const {
    return c >= local.constant_base ? local.constants[c - local.constant_base]
                                    : symbols.constant_name(c);
  }
  const FunctionInfo& Function(FuncId f, const SymbolTable& symbols) const {
    return f >= local.function_base ? local.functions[f - local.function_base]
                                    : symbols.function(f);
  }
  const std::string& VariableName(VarId v, const SymbolTable& symbols) const {
    return v >= local.variable_base ? local.variables[v - local.variable_base]
                                    : symbols.variable_name(v);
  }
  /// True if `atom` mentions one of the query's own constants or function
  /// symbols: no fact has it, so the atom holds nowhere.
  bool MentionsLocalSymbol(const Atom& atom) const;
};

/// A functional deductive database: rules Z plus ground facts D, sharing a
/// symbol table.
struct Program {
  SymbolTable symbols;
  std::vector<Rule> rules;
  std::vector<Atom> facts;

  /// All functional predicate ids, in id order.
  std::vector<PredId> FunctionalPredicates() const;
  /// All non-functional predicate ids, in id order.
  std::vector<PredId> NonFunctionalPredicates() const;
  /// All pure / all mixed function symbols, in id order.
  std::vector<FuncId> PureFunctions() const;
  std::vector<FuncId> MixedFunctions() const;
  /// All constants mentioned anywhere (the active domain), in id order.
  std::vector<ConstId> ActiveDomain() const;

  /// The parameter c of Section 2.5: the maximum depth of a ground
  /// functional term occurring in the rules or the database (0 if none).
  int MaxGroundDepth() const;
};

/// Collects the distinct variables of an atom, in first-occurrence order.
void CollectVariables(const Atom& atom, std::vector<VarId>* nf_vars,
                      std::optional<VarId>* func_var);

}  // namespace relspec

#endif  // RELSPEC_AST_AST_H_
