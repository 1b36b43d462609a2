#include "src/ast/printer.h"

#include "src/base/str_util.h"

namespace relspec {

std::string ToString(const NfArg& arg, const SymbolTable& symbols) {
  return arg.IsConstant() ? symbols.constant_name(arg.id)
                          : symbols.variable_name(arg.id);
}

std::string ToString(const FuncTerm& term, const SymbolTable& symbols) {
  std::string out = term.has_var ? symbols.variable_name(term.var) : "0";
  for (const FuncApply& a : term.apps) {
    const std::string& name = symbols.function(a.fn).name;
    if (name == "+1" && a.args.empty()) {
      // Successor sugar: print "t+1" so the output re-parses.
      out += "+1";
      continue;
    }
    std::string inner = std::move(out);
    out = name + "(" + inner;
    for (const NfArg& arg : a.args) {
      out += ",";
      out += ToString(arg, symbols);
    }
    out += ")";
  }
  return out;
}

std::string ToString(const Atom& atom, const SymbolTable& symbols) {
  std::string out = symbols.predicate(atom.pred).name;
  std::vector<std::string> parts;
  if (atom.fterm.has_value()) parts.push_back(ToString(*atom.fterm, symbols));
  for (const NfArg& a : atom.args) parts.push_back(ToString(a, symbols));
  if (!parts.empty()) {
    out += "(";
    out += Join(parts, ",");
    out += ")";
  }
  return out;
}

std::string ToString(const Rule& rule, const SymbolTable& symbols) {
  if (rule.body.empty()) return ToString(rule.head, symbols) + ".";
  std::vector<std::string> body;
  body.reserve(rule.body.size());
  for (const Atom& a : rule.body) body.push_back(ToString(a, symbols));
  return Join(body, ", ") + " -> " + ToString(rule.head, symbols) + ".";
}

std::string ToString(const Query& query, const SymbolTable& symbols) {
  std::vector<std::string> atoms;
  atoms.reserve(query.atoms.size());
  for (const Atom& a : query.atoms) atoms.push_back(ToString(a, symbols));
  return "? " + Join(atoms, ", ") + ".";
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
