// The mixed-to-pure transformation of Section 2.4.
//
// For a domain-independent set of rules, every mixed (k-ary) function symbol
// g can be compiled away: for each vector a of non-functional constants from
// the active domain, a new unary symbol g_a is created, and each rule
// containing g(s, x...) is instantiated with x := a and the occurrence
// replaced by g_a(s). The number and arity of predicates do not change; the
// number of new rules is polynomial in the database size, and normality is
// preserved.

#ifndef RELSPEC_CORE_MIXED_TO_PURE_H_
#define RELSPEC_CORE_MIXED_TO_PURE_H_

#include "src/ast/ast.h"
#include "src/base/status.h"

namespace relspec {

struct MixedToPureStats {
  int rules_in = 0;
  int rules_out = 0;
  int new_symbols = 0;
};

/// Replaces all mixed function symbols in `program` (rules and facts) by
/// fresh pure symbols, instantiating rule variables that occur as mixed
/// arguments over the active domain. Idempotent on pure programs.
StatusOr<MixedToPureStats> MixedToPure(Program* program);

/// Rewrites a ground functional term, replacing mixed applications by their
/// pure encodings, found by read-only lookup in `symbols`. NotFound when the
/// term names a symbol or constant outside the table, or an encoding the
/// table lacks: no fact holds at such a term.
StatusOr<FuncTerm> PurifyGroundTerm(const FuncTerm& term,
                                    const SymbolTable* symbols);

/// The inverse of the pure encoding, by read-only lookup: if `f` is the pure
/// symbol g{a,...} of a mixed application g(s, a, ...), sets `*mixed` to g
/// and `*args` to (a, ...) and returns true. False for every other symbol.
bool DecodePureSymbol(const SymbolTable& symbols, FuncId f, FuncId* mixed,
                      std::vector<ConstId>* args);

}  // namespace relspec

#endif  // RELSPEC_CORE_MIXED_TO_PURE_H_
