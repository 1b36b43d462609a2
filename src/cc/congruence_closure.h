// Congruence closure over ground functional terms, after Downey, Sethi and
// Tarjan [DST80] (signature hashing + union-find).
//
// This is the paper's decision procedure for the equational specifications
// of Section 3.5: given the finite relation R, the test (t0, t) in Cl(R) is
// the ground word problem "R |- t0 = t", which congruence closure over the
// subterm-closed set of R ∪ {t0, t} decides soundly and completely.
//
// The served core does not use it. (B, R)'s R is convergent when oriented
// towards the representatives, so EquationalSpecification decides Cl(R) by
// the Link walk (equational_spec.h). This closure is the oracle the tests
// hold the walk to (tests/closure_oracle.h), and bench_cc measures it.

#ifndef RELSPEC_CC_CONGRUENCE_CLOSURE_H_
#define RELSPEC_CC_CONGRUENCE_CLOSURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cc/union_find.h"
#include "src/term/term.h"

namespace relspec {

/// Incremental congruence closure: assert ground equations with Merge and
/// test with AreCongruent. Terms live in an external TermArena; new terms may
/// be interned at any time and enter the closure lazily.
class CongruenceClosure {
 public:
  /// The arena must outlive the closure.
  explicit CongruenceClosure(const TermArena* arena) : arena_(arena) {}

  /// Asserts a == b (and, transitively, the congruence consequences
  /// f(a) == f(b) for every known parent application).
  void Merge(TermId a, TermId b);

  /// True iff a == b follows from the asserted equations by reflexivity,
  /// symmetry, transitivity and congruence.
  bool AreCongruent(TermId a, TermId b);

  /// The representative of t's congruence class (stable between Merges).
  TermId Find(TermId t);

  /// Number of congruence classes among the terms added so far.
  size_t NumClasses();

  /// Total terms known to the closure.
  size_t NumTerms() const { return known_.size(); }

  /// Number of union operations performed (for benchmarking).
  size_t num_unions() const { return num_unions_; }

 private:
  struct Signature {
    FuncId fn;
    uint32_t child_root;
    std::vector<ConstId> args;
    bool operator==(const Signature& o) const {
      return fn == o.fn && child_root == o.child_root && args == o.args;
    }
  };
  struct SignatureHash {
    size_t operator()(const Signature& s) const {
      uint64_t h = 1469598103934665603ull;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      mix(s.fn);
      mix(s.child_root);
      for (ConstId a : s.args) mix(a);
      return static_cast<size_t>(h);
    }
  };

  struct Pending {
    TermId a;
    TermId b;
  };

  /// Adds t and its whole subterm chain to the closure (idempotent).
  void AddTerm(TermId t);
  Signature SignatureOf(TermId t);
  /// Re-canonicalizes the parents of a just-merged class, merging any
  /// signature collisions (the congruence propagation step).
  void PropagateFrom(uint32_t root);
  /// Processes queued merges until the closure is congruence-closed.
  void DrainPending();

  const TermArena* arena_;
  UnionFind uf_;
  std::vector<bool> known_bits_;
  std::vector<TermId> known_;
  // parents_[root]: application terms whose child is in this class.
  std::unordered_map<uint32_t, std::vector<TermId>> parents_;
  std::unordered_map<Signature, TermId, SignatureHash> signatures_;
  std::vector<Pending> pending_;
  size_t num_unions_ = 0;
};

}  // namespace relspec

#endif  // RELSPEC_CC_CONGRUENCE_CLOSURE_H_
