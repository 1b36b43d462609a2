#include "src/term/symbol_table.h"

#include "src/base/str_util.h"

namespace relspec {

StatusOr<PredId> SymbolTable::InternPredicate(std::string_view name, int arity,
                                              bool functional) {
  auto it = predicate_index_.find(name);
  if (it != predicate_index_.end()) {
    PredicateInfo& info = predicates_[it->second];
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "predicate '%s' used with arity %d but declared with arity %d",
          info.name.c_str(), arity, info.arity));
    }
    if (functional) info.functional = true;
    return it->second;
  }
  PredId id = static_cast<PredId>(predicates_.size());
  predicates_.push_back(PredicateInfo{std::string(name), arity, functional});
  predicate_index_.emplace(std::string(name), id);
  return id;
}

StatusOr<PredId> SymbolTable::FindPredicate(std::string_view name) const {
  auto it = predicate_index_.find(name);
  if (it == predicate_index_.end()) {
    return Status::NotFound("unknown predicate '" + std::string(name) + "'");
  }
  return it->second;
}

Status SymbolTable::SetFunctional(PredId id) {
  if (id >= predicates_.size()) {
    return Status::OutOfRange("bad predicate id");
  }
  predicates_[id].functional = true;
  return Status::OK();
}

StatusOr<FuncId> SymbolTable::InternFunction(std::string_view name, int arity) {
  auto it = function_index_.find(name);
  if (it != function_index_.end()) {
    const FunctionInfo& info = functions_[it->second];
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "function symbol '%s' used with arity %d but declared with arity %d",
          info.name.c_str(), arity, info.arity));
    }
    return it->second;
  }
  if (arity < 1) {
    return Status::InvalidArgument(
        "function symbol '" + std::string(name) + "' must have arity >= 1");
  }
  FuncId id = static_cast<FuncId>(functions_.size());
  functions_.push_back(FunctionInfo{std::string(name), arity});
  function_index_.emplace(std::string(name), id);
  return id;
}

StatusOr<FuncId> SymbolTable::FindFunction(std::string_view name) const {
  auto it = function_index_.find(name);
  if (it == function_index_.end()) {
    return Status::NotFound("unknown function symbol '" + std::string(name) + "'");
  }
  return it->second;
}

ConstId SymbolTable::InternConstant(std::string_view name) {
  auto it = constant_index_.find(name);
  if (it != constant_index_.end()) return it->second;
  ConstId id = static_cast<ConstId>(constants_.size());
  constants_.emplace_back(name);
  constant_index_.emplace(std::string(name), id);
  return id;
}

StatusOr<ConstId> SymbolTable::FindConstant(std::string_view name) const {
  auto it = constant_index_.find(name);
  if (it == constant_index_.end()) {
    return Status::NotFound("unknown constant '" + std::string(name) + "'");
  }
  return it->second;
}

VarId SymbolTable::InternVariable(std::string_view name) {
  auto it = variable_index_.find(name);
  if (it != variable_index_.end()) return it->second;
  VarId id = static_cast<VarId>(variables_.size());
  variables_.emplace_back(name);
  variable_index_.emplace(std::string(name), id);
  return id;
}

}  // namespace relspec
