// Path: a ground *pure* functional term viewed as a string over the alphabet
// of pure function symbols.
//
// After the mixed-to-pure transformation (Section 2.4) every functional term
// is pure, so the set of ground functional terms is exactly the set of
// strings over the function-symbol alphabet, with the functional constant 0
// as the empty string and f(t) as "t followed by f". The engine's fixpoint
// machinery (trunk labels, Algorithm Q traversal, Link walks) operates on
// Paths.
//
// The precedence ordering of Section 3.4 ("breadth-first traversal of the
// term tree") is shortlex: shorter paths first, ties broken by the symbol
// order given by FuncId.

#ifndef RELSPEC_TERM_PATH_H_
#define RELSPEC_TERM_PATH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/term/symbol_table.h"
#include "src/term/term.h"

namespace relspec {

/// A pure ground functional term as an innermost-first symbol string.
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<FuncId> symbols) : symbols_(std::move(symbols)) {}
  explicit Path(std::span<const FuncId> symbols)
      : symbols_(symbols.begin(), symbols.end()) {}

  /// The functional constant 0.
  static Path Zero() { return Path(); }

  /// Conversion from an interned term; fails on mixed terms.
  static StatusOr<Path> FromTerm(const TermArena& arena, TermId id);

  /// Interns this path as a term.
  TermId ToTerm(TermArena* arena) const { return arena->FromSymbols(symbols_); }

  int depth() const { return static_cast<int>(symbols_.size()); }
  bool empty() const { return symbols_.empty(); }
  const std::vector<FuncId>& symbols() const { return symbols_; }

  /// The symbol applied i-th (innermost-first).
  FuncId at(int i) const { return symbols_[static_cast<size_t>(i)]; }

  /// f(this): this path extended by one outermost application.
  Path Extend(FuncId f) const;

  /// The path without its outermost symbol. Precondition: !empty().
  Path Parent() const;

  /// The outermost symbol. Precondition: !empty().
  FuncId Outermost() const { return symbols_.back(); }

  /// Shortlex ("precedence") comparison: by depth, then lexicographic.
  bool operator<(const Path& other) const;
  bool operator==(const Path& other) const { return symbols_ == other.symbols_; }
  bool operator!=(const Path& other) const { return !(*this == other); }

  /// Term syntax, e.g. "f(g(0))".
  std::string ToString(const SymbolTable& symbols) const;
  /// Compact word syntax, e.g. "g.f" ("" for 0) — innermost first.
  std::string ToWord(const SymbolTable& symbols) const;

  size_t Hash() const;

 private:
  std::vector<FuncId> symbols_;
};

struct PathHash {
  size_t operator()(const Path& p) const { return p.Hash(); }
};

/// Enumerates all paths of exactly depth d over `alphabet`, in shortlex
/// order. Used to seed Algorithm Q's Potential set with the depth c+1 layer.
std::vector<Path> AllPathsOfDepth(const std::vector<FuncId>& alphabet, int d);

}  // namespace relspec

#endif  // RELSPEC_TERM_PATH_H_
