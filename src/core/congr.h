// The canonical form CONGR (Section 3.6).
//
// Any set of functional rules Z with database D is equivalent to the single,
// database-independent rule set CONGR applied to the database C = B ∪ R:
//
//   eq(x, x)                      <- term(x).
//   eq(x, y)                      <- eq(y, x).
//   eq(x, y)                      <- eq(x, z), eq(z, y).
//   eq(x', y')                    <- eq(x, y), apply_f(x, x'), apply_f(y, y').
//   P(t, z...)                    <- P(s, z...), eq(s, t).      (per P)
//
// CONGR's rules are not functional (eq has two functional components), so
// they are evaluated with the plain DATALOG substrate over a bounded term
// universe; EvaluateCongrBounded materializes LFP(CONGR, C) for all terms of
// depth <= bound and the tests check it coincides with the specification.
// The rule set depends only on the predicates of Z, not on Z's rules — the
// canonical-form property.

#ifndef RELSPEC_CORE_CONGR_H_
#define RELSPEC_CORE_CONGR_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/equational_spec.h"
#include "src/datalog/database.h"
#include "src/datalog/evaluator.h"

namespace relspec {

/// The materialized LFP(CONGR, C) over a bounded universe.
struct BoundedCongrResult {
  /// Terms of depth <= bound in shortlex order; relation columns holding
  /// functional components store indices into this vector.
  std::vector<Path> terms;
  /// eq and apply_f get synthetic predicate ids above the user predicates.
  PredId eq_pred = kInvalidId;
  PredId term_pred = kInvalidId;
  std::vector<std::pair<FuncId, PredId>> apply_preds;
  datalog::Database db;
  datalog::EvalStats stats;

  /// Index of a path in `terms`, or kInvalidId.
  uint32_t TermIndex(const Path& path) const;
  /// Membership of pred(path, args...) in the materialized fixpoint.
  bool Holds(const Path& path, PredId pred,
             std::span<const ConstId> args) const;
};

/// Pretty-prints the CONGR rule set for the given specification's
/// predicates (the database-independent canonical form).
std::string CongrRulesText(const EquationalSpecification& eq);

/// Evaluates LFP(CONGR, B ∪ R) over all terms of depth <= bound using the
/// DATALOG engine. `bound` must cover every term in B and R.
StatusOr<BoundedCongrResult> EvaluateCongrBounded(
    const EquationalSpecification& eq, int bound,
    datalog::Strategy strategy = datalog::Strategy::kSemiNaive);

}  // namespace relspec

#endif  // RELSPEC_CORE_CONGR_H_
