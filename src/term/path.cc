#include "src/term/path.h"

#include "src/base/logging.h"

namespace relspec {

StatusOr<Path> Path::FromTerm(const TermArena& arena, TermId id) {
  RELSPEC_ASSIGN_OR_RETURN(std::vector<FuncId> syms, arena.ToSymbols(id));
  return Path(std::move(syms));
}

Path Path::Extend(FuncId f) const {
  std::vector<FuncId> syms = symbols_;
  syms.push_back(f);
  return Path(std::move(syms));
}

Path Path::Parent() const {
  RELSPEC_CHECK(!empty());
  std::vector<FuncId> syms(symbols_.begin(), symbols_.end() - 1);
  return Path(std::move(syms));
}

bool Path::operator<(const Path& other) const {
  if (symbols_.size() != other.symbols_.size()) {
    return symbols_.size() < other.symbols_.size();
  }
  return symbols_ < other.symbols_;
}

std::string Path::ToString(const SymbolTable& symbols) const {
  std::string out = "0";
  for (FuncId f : symbols_) {
    out = symbols.function(f).name + "(" + out + ")";
  }
  return out;
}

std::string Path::ToWord(const SymbolTable& symbols) const {
  std::string out;
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (i > 0) out += ".";
    out += symbols.function(symbols_[i]).name;
  }
  return out;
}

size_t Path::Hash() const {
  uint64_t h = 1469598103934665603ull;
  for (FuncId f : symbols_) {
    h ^= f;
    h *= 1099511628211ull;
  }
  h ^= symbols_.size();
  h *= 1099511628211ull;
  return static_cast<size_t>(h);
}

std::vector<Path> AllPathsOfDepth(const std::vector<FuncId>& alphabet, int d) {
  std::vector<Path> layer = {Path::Zero()};
  for (int i = 0; i < d; ++i) {
    std::vector<Path> next;
    next.reserve(layer.size() * alphabet.size());
    for (const Path& p : layer) {
      for (FuncId f : alphabet) next.push_back(p.Extend(f));
    }
    layer = std::move(next);
  }
  return layer;
}

}  // namespace relspec
