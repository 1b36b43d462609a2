// Bottom-up evaluation of DATALOG rule sets: naive and semi-naive.
//
// Semi-naive evaluation is the default; the naive strategy is kept as the
// textbook baseline for bench/bench_datalog (experiment E13).

#ifndef RELSPEC_DATALOG_EVALUATOR_H_
#define RELSPEC_DATALOG_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/datalog/database.h"

namespace relspec {

class ResourceGovernor;

namespace datalog {

enum class Strategy { kNaive, kSemiNaive };

struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  /// Hard cap on fixpoint rounds; 0 means unlimited.
  size_t max_iterations = 0;
  /// Hard cap on total stored tuples; exceeded -> ResourceExhausted.
  size_t max_tuples = 50'000'000;
  /// Optional resource governor (deadline, cancellation, tuple budget),
  /// polled once per iteration and per rule pass. Must outlive the call.
  ResourceGovernor* governor = nullptr;
};

struct EvalStats {
  size_t iterations = 0;
  size_t tuples_derived = 0;
  size_t rule_firings = 0;  // successful body matches
  /// Aligned with the `rules` argument to Evaluate: per-rule successful body
  /// matches and per-rule newly derived (inserted) tuples.
  std::vector<size_t> per_rule_firings;
  std::vector<size_t> per_rule_derived;
};

/// Runs `rules` on `db` to fixpoint. All predicates referenced by the rules
/// must be declared in `db` beforehand. Rules with negated body atoms are
/// evaluated under stratified-negation semantics (the rule set must be
/// stratifiable).
StatusOr<EvalStats> Evaluate(const std::vector<DRule>& rules, Database* db,
                             const EvalOptions& options = {});

/// Splits rules into strata: every rule lands in the stratum of its head
/// predicate, lower strata are fully evaluated before higher ones, and a
/// negated body atom's predicate must live in a strictly lower stratum.
/// Fails with InvalidArgument on recursion through negation.
StatusOr<std::vector<std::vector<DRule>>> StratifyRules(
    const std::vector<DRule>& rules);

/// Joins `body` against `db` and projects each match onto `projection`
/// (variable indices). Duplicates are eliminated. Used for query evaluation
/// over materialized databases and primary-database slices.
std::vector<Tuple> JoinProject(const Database& db,
                               const std::vector<DAtom>& body,
                               uint32_t num_vars,
                               const std::vector<uint32_t>& projection);

}  // namespace datalog
}  // namespace relspec

#endif  // RELSPEC_DATALOG_EVALUATOR_H_
