#include "src/ast/printer.h"

#include "src/base/str_util.h"

namespace relspec {

namespace {

// Names are looked up through a query, whose own names shadow the table's;
// this one has none, so every id resolves in the table.
const Query kTableNames;

std::string ArgString(const NfArg& arg, const SymbolTable& symbols,
                      const Query& names) {
  return arg.IsConstant() ? names.ConstantName(arg.id, symbols)
                          : names.VariableName(arg.id, symbols);
}

std::string TermString(const FuncTerm& term, const SymbolTable& symbols,
                       const Query& names) {
  std::string out =
      term.has_var ? names.VariableName(term.var, symbols) : "0";
  for (const FuncApply& a : term.apps) {
    const std::string& name = names.Function(a.fn, symbols).name;
    if (name == "+1" && a.args.empty()) {
      // Successor sugar: print "t+1" so the output re-parses.
      out += "+1";
      continue;
    }
    std::string inner = std::move(out);
    out = name + "(" + inner;
    for (const NfArg& arg : a.args) {
      out += ",";
      out += ArgString(arg, symbols, names);
    }
    out += ")";
  }
  return out;
}

std::string AtomString(const Atom& atom, const SymbolTable& symbols,
                       const Query& names) {
  std::string out = symbols.predicate(atom.pred).name;
  std::vector<std::string> parts;
  if (atom.fterm.has_value()) {
    parts.push_back(TermString(*atom.fterm, symbols, names));
  }
  for (const NfArg& a : atom.args) {
    parts.push_back(ArgString(a, symbols, names));
  }
  if (!parts.empty()) {
    out += "(";
    out += Join(parts, ",");
    out += ")";
  }
  return out;
}

}  // namespace

std::string ToString(const NfArg& arg, const SymbolTable& symbols) {
  return ArgString(arg, symbols, kTableNames);
}

std::string ToString(const FuncTerm& term, const SymbolTable& symbols) {
  return TermString(term, symbols, kTableNames);
}

std::string ToString(const Atom& atom, const SymbolTable& symbols) {
  return AtomString(atom, symbols, kTableNames);
}

std::string ToString(const Rule& rule, const SymbolTable& symbols) {
  if (rule.body.empty()) return ToString(rule.head, symbols) + ".";
  std::vector<std::string> body;
  body.reserve(rule.body.size());
  for (const Atom& a : rule.body) body.push_back(ToString(a, symbols));
  return Join(body, ", ") + " -> " + ToString(rule.head, symbols) + ".";
}

std::string ToString(const Query& query, const SymbolTable& symbols) {
  std::vector<std::string> parts;
  parts.reserve(query.atoms.size());
  for (const Atom& a : query.atoms) {
    parts.push_back(AtomString(a, symbols, query));
  }
  std::string atoms = Join(parts, ", ") + ".";
  if (query.answer_vars.empty()) return "? " + atoms;
  parts.clear();
  for (VarId v : query.answer_vars) {
    parts.push_back(query.VariableName(v, symbols));
  }
  return "?(" + Join(parts, ",") + ") " + atoms;
}

std::string ToString(const Program& program) {
  std::string out;
  for (const Atom& f : program.facts) {
    out += ToString(f, program.symbols);
    out += ".\n";
  }
  for (const Rule& r : program.rules) {
    out += ToString(r, program.symbols);
    out += "\n";
  }
  return out;
}

}  // namespace relspec
