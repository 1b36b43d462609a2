// Pretty printing of AST nodes in the paper's surface syntax:
//   Meets(t,x), Next(x,y) -> Meets(f(t),y).

#ifndef RELSPEC_AST_PRINTER_H_
#define RELSPEC_AST_PRINTER_H_

#include <string>

#include "src/ast/ast.h"

namespace relspec {

std::string ToString(const NfArg& arg, const SymbolTable& symbols);
std::string ToString(const FuncTerm& term, const SymbolTable& symbols);
std::string ToString(const Atom& atom, const SymbolTable& symbols);
std::string ToString(const Rule& rule, const SymbolTable& symbols);
/// "?(x,y) P(x), Q(y)." — the answer columns, then the atoms, with the
/// query's own names (Query::local) where it has them. Re-parses to the
/// same query.
std::string ToString(const Query& query, const SymbolTable& symbols);

/// The whole program: facts first, then rules, one per line.
std::string ToString(const Program& program);

}  // namespace relspec

#endif  // RELSPEC_AST_PRINTER_H_
