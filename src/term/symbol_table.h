// SymbolTable: interning of predicate, function, constant and variable names.
//
// All engine data structures work with dense integer ids; names only matter
// at parse and print time. Id spaces are separate per symbol kind.
//
// Each kind keeps its names in one vector indexed by id, and an IdIndex over
// that vector finds a name's id: a probe hashes the string_view and compares
// it with the stored name in place. So interning or finding a name allocates
// nothing beyond the name itself and the arrays' doublings, and a copy of the
// table is a handful of vector copies.
//
// Terminology follows the paper (Section 2.1):
//  * predicates are functional (carry a functional argument in a fixed
//    position) or non-functional (plain DATALOG);
//  * function symbols are "pure" (unary: one functional argument) or "mixed"
//    (arity >= 2: one functional argument plus non-functional arguments);
//  * there is exactly one functional constant, written 0;
//  * non-functional constants are ordinary database constants.

#ifndef RELSPEC_TERM_SYMBOL_TABLE_H_
#define RELSPEC_TERM_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/id_index.h"
#include "src/base/status.h"

namespace relspec {

using PredId = uint32_t;
using FuncId = uint32_t;
using ConstId = uint32_t;
using VarId = uint32_t;

inline constexpr uint32_t kInvalidId = UINT32_MAX;

/// Metadata recorded for each predicate.
struct PredicateInfo {
  std::string name;
  /// Total number of arguments, including the functional one if any.
  int arity = 0;
  /// True once the predicate has been seen with a functional term in
  /// argument position 0. Fixed position per the paper's restriction.
  bool functional = false;
};

/// Metadata recorded for each function symbol.
struct FunctionInfo {
  std::string name;
  /// 1 for pure symbols; >= 2 for mixed symbols (functional argument plus
  /// arity-1 non-functional arguments).
  int arity = 1;
};

/// Interns names and hands out dense ids. Not thread-safe (one table per
/// program/engine instance).
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Interns predicate `name` with the given arity/functionality; returns the
  /// existing id if already present. Fails if the arity conflicts.
  StatusOr<PredId> InternPredicate(std::string_view name, int arity,
                                   bool functional);
  /// Looks up a predicate by name.
  StatusOr<PredId> FindPredicate(std::string_view name) const;
  /// Marks an existing predicate functional (used by inference passes).
  Status SetFunctional(PredId id);

  StatusOr<FuncId> InternFunction(std::string_view name, int arity);
  StatusOr<FuncId> FindFunction(std::string_view name) const;

  ConstId InternConstant(std::string_view name);
  StatusOr<ConstId> FindConstant(std::string_view name) const;

  VarId InternVariable(std::string_view name);

  const PredicateInfo& predicate(PredId id) const { return predicates_[id]; }
  const FunctionInfo& function(FuncId id) const { return functions_[id]; }
  const std::string& constant_name(ConstId id) const { return constants_[id]; }
  const std::string& variable_name(VarId id) const { return variables_[id]; }

  size_t num_predicates() const { return predicates_.size(); }
  size_t num_functions() const { return functions_.size(); }
  size_t num_constants() const { return constants_.size(); }
  size_t num_variables() const { return variables_.size(); }

 private:
  std::vector<PredicateInfo> predicates_;
  std::vector<FunctionInfo> functions_;
  std::vector<std::string> constants_;
  std::vector<std::string> variables_;
  // Each kind's ids by name; the names stay in the vectors above.
  IdIndex predicate_index_;
  IdIndex function_index_;
  IdIndex constant_index_;
  IdIndex variable_index_;
};

}  // namespace relspec

#endif  // RELSPEC_TERM_SYMBOL_TABLE_H_
