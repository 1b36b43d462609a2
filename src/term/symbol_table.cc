#include "src/term/symbol_table.h"

#include <functional>

#include "src/base/str_util.h"

namespace relspec {

namespace {

uint64_t NameHash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

static_assert(IdIndex::kNone == kInvalidId);

/// The id `index` holds for `name`, or kInvalidId; `name_of(id)` is the
/// stored name of id.
template <typename NameOf>
uint32_t FindName(const IdIndex& index, std::string_view name,
                  NameOf&& name_of) {
  return index.Find(NameHash(name),
                    [&](uint32_t id) { return name_of(id) == name; });
}

}  // namespace

StatusOr<PredId> SymbolTable::InternPredicate(std::string_view name, int arity,
                                              bool functional) {
  const PredId found = FindName(predicate_index_, name, [&](PredId id) {
    return std::string_view(predicates_[id].name);
  });
  if (found != kInvalidId) {
    PredicateInfo& info = predicates_[found];
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "predicate '%s' used with arity %d but declared with arity %d",
          info.name.c_str(), arity, info.arity));
    }
    if (functional) info.functional = true;
    return found;
  }
  PredId id = static_cast<PredId>(predicates_.size());
  predicates_.push_back(PredicateInfo{std::string(name), arity, functional});
  predicate_index_.Insert(NameHash(name), id);
  return id;
}

StatusOr<PredId> SymbolTable::FindPredicate(std::string_view name) const {
  const PredId id = FindName(predicate_index_, name, [&](PredId id) {
    return std::string_view(predicates_[id].name);
  });
  if (id == kInvalidId) {
    return Status::NotFound("unknown predicate '" + std::string(name) + "'");
  }
  return id;
}

Status SymbolTable::SetFunctional(PredId id) {
  if (id >= predicates_.size()) {
    return Status::OutOfRange("bad predicate id");
  }
  predicates_[id].functional = true;
  return Status::OK();
}

StatusOr<FuncId> SymbolTable::InternFunction(std::string_view name, int arity) {
  const FuncId found = FindName(function_index_, name, [&](FuncId id) {
    return std::string_view(functions_[id].name);
  });
  if (found != kInvalidId) {
    const FunctionInfo& info = functions_[found];
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "function symbol '%s' used with arity %d but declared with arity %d",
          info.name.c_str(), arity, info.arity));
    }
    return found;
  }
  if (arity < 1) {
    return Status::InvalidArgument(
        "function symbol '" + std::string(name) + "' must have arity >= 1");
  }
  FuncId id = static_cast<FuncId>(functions_.size());
  functions_.push_back(FunctionInfo{std::string(name), arity});
  function_index_.Insert(NameHash(name), id);
  return id;
}

StatusOr<FuncId> SymbolTable::FindFunction(std::string_view name) const {
  const FuncId id = FindName(function_index_, name, [&](FuncId id) {
    return std::string_view(functions_[id].name);
  });
  if (id == kInvalidId) {
    return Status::NotFound("unknown function symbol '" + std::string(name) + "'");
  }
  return id;
}

ConstId SymbolTable::InternConstant(std::string_view name) {
  const ConstId found = FindName(constant_index_, name, [&](ConstId id) {
    return std::string_view(constants_[id]);
  });
  if (found != kInvalidId) return found;
  ConstId id = static_cast<ConstId>(constants_.size());
  constants_.emplace_back(name);
  constant_index_.Insert(NameHash(name), id);
  return id;
}

StatusOr<ConstId> SymbolTable::FindConstant(std::string_view name) const {
  const ConstId id = FindName(constant_index_, name, [&](ConstId id) {
    return std::string_view(constants_[id]);
  });
  if (id == kInvalidId) {
    return Status::NotFound("unknown constant '" + std::string(name) + "'");
  }
  return id;
}

VarId SymbolTable::InternVariable(std::string_view name) {
  const VarId found = FindName(variable_index_, name, [&](VarId id) {
    return std::string_view(variables_[id]);
  });
  if (found != kInvalidId) return found;
  VarId id = static_cast<VarId>(variables_.size());
  variables_.emplace_back(name);
  variable_index_.Insert(NameHash(name), id);
  return id;
}

}  // namespace relspec
