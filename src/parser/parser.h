// Parser for the relspec surface language.
//
// Grammar (statements end with '.'):
//
//   fact    :=  atom '.'
//   rule    :=  atom {',' atom} '->' atom '.'        // paper style
//            |  atom ':-' atom {',' atom} '.'        // Prolog style
//   query   :=  '?' atom {',' atom} '.'              // all variables free
//            |  '?' '(' var {',' var} ')' atom {',' atom} '.'
//   atom    :=  IDENT [ '(' term {',' term} ')' ]
//   term    :=  IDENT                                // variable or constant
//            |  IDENT '(' term {',' term} ')'        // function application
//            |  INTEGER                              // 0, or +1^n(0) sugar
//            |  term '+' INTEGER                     // successor sugar
//
// Conventions (match the paper, Section 2.1):
//  * identifiers matching [s-z][0-9']* are variables (x, y, s, t, x1, s');
//    every other identifier in argument position is a constant;
//  * the functional position of a functional predicate is argument 0;
//  * whether a predicate is functional is inferred: an arg-0 expression that
//    is an integer, a function application or a '+'-term makes the predicate
//    functional, and functionality propagates through shared variables to a
//    fixpoint; inconsistent use is an error;
//  * 'n' in a functional position denotes the n-fold application of the
//    builtin successor symbol "+1" to 0; 't+n' applies "+1" n times to t.
//
// Comments run from '%' or '//' to end of line.

#ifndef RELSPEC_PARSER_PARSER_H_
#define RELSPEC_PARSER_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/ast/ast.h"
#include "src/base/status.h"

namespace relspec {

/// A parsed source file: the program (facts + rules) and the queries, in
/// source order.
struct ParseResult {
  Program program;
  std::vector<Query> queries;
};

/// Parses a complete source text and validates the resulting program.
StatusOr<ParseResult> Parse(std::string_view input);

/// Parses a source text that must contain exactly one program (queries
/// allowed but dropped). Convenience for tests and examples.
StatusOr<Program> ParseProgram(std::string_view input);

/// Like ParseProgram, but interning into `seed_symbols` (moved in): names
/// already present keep their ids, and nothing in the seed is renumbered.
/// Symbol ids are assigned by first appearance, so a program rendered with
/// ToString does not generally re-parse to the engine's historical interning
/// order (facts move under delete/re-insert, and noop edits intern symbols
/// no surviving fact mentions). Durable checkpoint recovery (src/core/wal.h)
/// stores the engine's table and seeds the re-parse with it so the rebuilt
/// engine is byte-identical.
StatusOr<Program> ParseProgram(std::string_view input,
                               SymbolTable seed_symbols);

/// Parses a single query against an existing symbol table, without writing
/// it. The query may mention only predicates the table has, with their
/// arity and functionality. Every variable, and each constant or function
/// symbol the table lacks, becomes the query's own name (Query::local),
/// numbered past the table's counts: it prints and names answer columns but
/// occurs in no fact, so an atom that mentions one holds nowhere. Those ids
/// stay the query's own if the table later grows, so a query parsed before
/// an update never aliases a symbol the update adds (re-parse to match it).
/// Reading an engine with many distinct names therefore leaves the engine
/// as it was.
StatusOr<Query> ParseQuery(std::string_view input, const SymbolTable& symbols);
/// The same, against a program's table.
StatusOr<Query> ParseQuery(std::string_view input, const Program* program);

/// Name of the builtin successor function symbol used by numeral sugar.
inline constexpr std::string_view kSuccessorName = "+1";

}  // namespace relspec

#endif  // RELSPEC_PARSER_PARSER_H_
