// Grounding: from a normal, pure, domain-independent program to positional
// rules over a finite atom universe (the "generalized database", Section 2.5).
//
// After normalization and the mixed-to-pure transformation, every rule has at
// most one functional variable s, and its non-ground functional terms are s
// or f(s). Instantiating the non-functional variables over the active domain
// turns each rule into a *positional rule* whose parts are:
//
//   * slice atoms at offset epsilon (at s) or at a child offset f (at f(s)),
//     drawn from the finite atom universe U = {(P, a...)};
//   * context propositions: ground non-functional atoms ("globals") and
//     ground-functional-term atoms ("pinned", e.g. At(0, p0)), which behave
//     like position-independent propositions;
//   * a head that is a slice atom at epsilon or at a child, or a context
//     proposition (fired existentially: some node satisfies the body).
//
// The least fixpoint of the program is then a labeling of the infinite tree
// Sigma* (Sigma = pure function symbols) by subsets of U, plus a set of true
// context propositions; src/core/fixpoint.h computes it.
//
// Layout: U, the context propositions and the pinned facts are flat
// AtomTables (src/core/atom_table.h), read through views (AtomRef, CtxProp,
// PinnedFact) that point into them. The grounder interns every atom from one
// reused buffer, so the universe costs the tables' array doublings, not a
// heap block per atom.

#ifndef RELSPEC_CORE_GROUND_H_
#define RELSPEC_CORE_GROUND_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/base/status.h"
#include "src/core/atom_table.h"
#include "src/term/path.h"

namespace relspec {

/// Index into the slice-atom universe U.
using AtomIdx = uint32_t;
/// Index into the context-proposition space (globals + pinned).
using CtxIdx = uint32_t;
/// Index into the grounded alphabet (dense renumbering of the pure symbols).
using SymIdx = uint32_t;

/// The index of `f` in `alphabet`, which is strictly ascending; kInvalidId
/// when `f` is not in it. A binary search.
inline SymIdx AlphabetIndex(const std::vector<FuncId>& alphabet, FuncId f) {
  auto it = std::lower_bound(alphabet.begin(), alphabet.end(), f);
  return it == alphabet.end() || *it != f
             ? kInvalidId
             : static_cast<SymIdx>(it - alphabet.begin());
}

/// A slice atom as an owning value: functional predicate + non-functional
/// constant arguments. The functional component is implicit (the tree
/// position). Tables store atoms flat (AtomTable); this is for results such
/// as GraphSpecification::SliceOf and for keys built by hand.
struct SliceAtom {
  PredId pred = kInvalidId;
  std::vector<ConstId> args;
  bool operator==(const SliceAtom& o) const {
    return pred == o.pred && args == o.args;
  }
};

/// A context proposition, read in place from its GroundProgram.
struct CtxProp {
  enum class Kind { kGlobal, kPinned };
  Kind kind = Kind::kGlobal;
  /// kGlobal: a ground non-functional atom.
  PredId pred = kInvalidId;
  std::span<const ConstId> args;
  /// kPinned: the position of the pinned slice atom (its symbols, innermost
  /// first)...
  std::span<const FuncId> path;
  /// ...and the atom itself.
  AtomIdx atom = 0;
};

/// A database fact at a ground position, read in place: the position's
/// symbols (innermost first) and the slice atom.
struct PinnedFact {
  std::span<const FuncId> path;
  AtomIdx atom = 0;
};

/// One grounded positional rule. Offsets: epsilon = the node s itself;
/// child(sym) = the node f(s). All vectors are deduplicated.
struct GroundRule {
  enum class HeadKind { kEps, kChild, kCtx };

  std::vector<AtomIdx> body_eps;
  std::vector<std::pair<SymIdx, AtomIdx>> body_child;
  std::vector<CtxIdx> body_ctx;

  HeadKind head_kind = HeadKind::kEps;
  SymIdx head_sym = 0;   // kChild only
  uint32_t head_id = 0;  // AtomIdx (kEps/kChild) or CtxIdx (kCtx)

  /// True if the rule quantifies over tree nodes (has any positional part).
  bool IsLocal() const {
    return head_kind != HeadKind::kCtx || !body_eps.empty() ||
           !body_child.empty();
  }
  /// True if `o` has this rule's eps atoms, child atoms and context
  /// propositions.
  bool SameBody(const GroundRule& o) const {
    return body_eps == o.body_eps && body_child == o.body_child &&
           body_ctx == o.body_ctx;
  }
  bool operator==(const GroundRule& o) const {
    return SameBody(o) && head_kind == o.head_kind && head_sym == o.head_sym &&
           head_id == o.head_id;
  }
};

/// A hash of a rule's body (eps atoms, child atoms, context propositions):
/// equal for rules with SameBody.
uint64_t GroundBodyHash(const GroundRule& rule);

/// The grounded program: universe, alphabet, rules and initial facts.
///
/// The universe U, the context propositions and the pinned facts are
/// AtomTables: flat rows in first-seen order, so an atom, a proposition or
/// a fact costs no heap block of its own. Global and pinned propositions
/// share one table, so they share one CtxIdx space.
class GroundProgram {
 public:
  // --- universe ---
  size_t num_atoms() const { return atoms_.size(); }
  size_t num_ctx() const { return ctx_.size(); }
  AtomRef atom(AtomIdx i) const { return atoms_[i]; }
  const AtomTable& atoms() const { return atoms_; }
  CtxProp ctx_prop(CtxIdx i) const;

  /// Finds an interned slice atom; kInvalidId if the atom never occurs (it
  /// is then certainly false everywhere).
  AtomIdx FindAtom(PredId pred, std::span<const ConstId> args) const {
    return atoms_.Find(pred, args);
  }
  /// Finds an interned global proposition; kInvalidId if absent.
  CtxIdx FindGlobal(PredId pred, std::span<const ConstId> args) const {
    return ctx_.Find(pred, args);
  }

  // --- alphabet ---
  /// Pure function symbols occurring in the program, dense-renumbered in
  /// ascending FuncId order.
  const std::vector<FuncId>& alphabet() const { return alphabet_; }
  size_t num_symbols() const { return alphabet_.size(); }
  /// Maps a FuncId to its SymIdx; kInvalidId if not in the alphabet.
  SymIdx SymIndexOf(FuncId f) const { return AlphabetIndex(alphabet_, f); }

  /// The trunk depth c (max depth of a ground functional term in Z and D).
  int trunk_depth() const { return trunk_depth_; }

  // --- rules and facts ---
  const std::vector<GroundRule>& local_rules() const { return local_rules_; }
  const std::vector<GroundRule>& global_rules() const { return global_rules_; }
  /// Initial pinned facts from D, each once, in first-seen order.
  size_t num_pinned_facts() const { return pinned_facts_.size(); }
  PinnedFact pinned_fact(size_t i) const {
    const AtomRef row = pinned_facts_[static_cast<uint32_t>(i)];
    return PinnedFact{row.args, row.pred};
  }
  /// Initial global facts from D.
  const std::vector<CtxIdx>& global_facts() const { return global_facts_; }

  /// Human-readable rendering (for tests and debugging).
  std::string AtomToString(AtomIdx i, const SymbolTable& symbols) const;
  std::string CtxToString(CtxIdx i, const SymbolTable& symbols) const;
  std::string RuleToString(const GroundRule& r, const SymbolTable& symbols) const;

 private:
  friend class Grounder;

  /// Set on the row of a pinned proposition in ctx_.
  static constexpr uint32_t kPinnedRow = uint32_t{1} << 31;

  AtomTable atoms_;
  /// A global's row is (pred, args); a pinned proposition's row is
  /// (atom | kPinnedRow, path symbols).
  AtomTable ctx_;
  std::vector<FuncId> alphabet_;
  int trunk_depth_ = 0;
  std::vector<GroundRule> local_rules_;
  std::vector<GroundRule> global_rules_;
  /// A pinned fact's row is (atom, path symbols).
  AtomTable pinned_facts_;
  std::vector<CtxIdx> global_facts_;
};

struct GroundOptions {
  /// Cap on grounded rule instances; exceeded -> ResourceExhausted.
  size_t max_rules = 10'000'000;
  /// Prune substitutions against facts of EDB non-functional predicates
  /// (predicates that occur in no rule head). Purely an optimization.
  bool edb_pruning = true;
};

/// Grounds a validated, normal, pure, domain-independent program.
StatusOr<GroundProgram> Ground(const Program& program,
                               const GroundOptions& options = {});

}  // namespace relspec

#endif  // RELSPEC_CORE_GROUND_H_
