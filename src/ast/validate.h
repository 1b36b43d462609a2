// Structural validation of programs, rules and queries.
//
// Checks the paper's syntactic restrictions:
//  * facts are ground;
//  * arities match the symbol table;
//  * functional predicates always carry a functional term, non-functional
//    predicates never do;
//  * domain independence == range restriction (Section 2.3): every variable
//    of a rule head occurs in its body;
//  * normality (Section 2.4): a rule has at most one functional variable and
//    its non-ground functional terms have depth <= 1;
//  * queries are positive with at most one functional variable (Section 5).

#ifndef RELSPEC_AST_VALIDATE_H_
#define RELSPEC_AST_VALIDATE_H_

#include "src/ast/ast.h"
#include "src/base/status.h"

namespace relspec {

/// Full structural validation of a program (facts + rules). A program is
/// validated once, where it enters: ParseProgram for source text,
/// FunctionalDatabase::FromProgram for programs built in code. Error
/// context is rendered only when a check fails.
Status ValidateProgram(const Program& program);

/// One database fact: its shape matches the symbol table and it is ground.
Status ValidateFact(const Atom& fact, const SymbolTable& symbols);

/// Range restriction for one rule (== domain independence, Section 2.3).
Status CheckRangeRestricted(const Rule& rule, const SymbolTable& symbols);

/// True if the rule is normal (Section 2.4): at most one functional variable
/// and every non-ground functional term has depth <= 1.
bool IsNormalRule(const Rule& rule);

/// True if every rule of the program is normal.
bool IsNormalProgram(const Program& program);

/// Validates a query: positive, known predicates, arity match, at most one
/// functional variable, answer_vars all occur in the atoms.
Status ValidateQuery(const Query& query, const SymbolTable& symbols);

}  // namespace relspec

#endif  // RELSPEC_AST_VALIDATE_H_
