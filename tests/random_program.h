// Shared random-program generators for the property-based and differential
// test suites. Kept header-only so each suite compiles them with its own
// seeds; determinism comes from the caller-supplied mt19937.

#ifndef RELSPEC_TESTS_RANDOM_PROGRAM_H_
#define RELSPEC_TESTS_RANDOM_PROGRAM_H_

#include <random>
#include <string>
#include <vector>

#include "src/core/ground.h"
#include "src/term/path.h"

namespace relspec {
namespace testutil {

// Generates a random functional program over predicates P0..P{np-1}
// (functional, arity 1 or 2), symbols f/g, constants a/b.
inline std::string RandomProgram(std::mt19937* rng) {
  auto pick = [rng](int n) { return static_cast<int>((*rng)() % n); };
  int num_preds = 1 + pick(3);
  int num_syms = 1 + pick(2);
  std::vector<int> arity(num_preds);
  for (int& a : arity) a = 1 + pick(2);
  auto pred_atom = [&](int p, const std::string& term,
                       const std::string& cst) {
    std::string s = "P";
    s += std::to_string(p);
    s += "(";
    s += term;
    if (arity[p] == 2) s += ", " + cst;
    return s + ")";
  };
  auto rand_const = [&]() { return pick(2) == 0 ? "a" : "b"; };
  auto rand_sym = [&]() { return num_syms == 1 || pick(2) == 0 ? "f" : "g"; };

  std::string out;
  // 1-2 facts at depth <= 2.
  int num_facts = 1 + pick(2);
  for (int i = 0; i < num_facts; ++i) {
    int depth = pick(3);
    std::string term = "0";
    for (int d = 0; d < depth; ++d) term = std::string(rand_sym()) + "(" + term + ")";
    out += pred_atom(pick(num_preds), term, rand_const()) + ".\n";
  }
  // 2-5 rules.
  int num_rules = 2 + pick(4);
  for (int i = 0; i < num_rules; ++i) {
    // Body: 1-2 atoms at offsets s or sym(s).
    int body_atoms = 1 + pick(2);
    std::vector<std::string> body;
    for (int b = 0; b < body_atoms; ++b) {
      std::string term = pick(2) == 0 ? "s" : std::string(rand_sym()) + "(s)";
      body.push_back(pred_atom(pick(num_preds), term, rand_const()));
    }
    // Head: at s or sym(s).
    std::string hterm = pick(2) == 0 ? "s" : std::string(rand_sym()) + "(s)";
    std::string head = pred_atom(pick(num_preds), hterm, rand_const());
    std::string rule;
    for (size_t b = 0; b < body.size(); ++b) {
      if (b > 0) rule += ", ";
      rule += body[b];
    }
    out += rule + " -> " + head + ".\n";
  }
  return out;
}

// A richer generator with a fixed predicate signature — P0/2 and P1/1
// functional, R/1 non-functional — drawing rules from templates that cover
// non-functional-variable joins, down-propagation, pinned body atoms,
// existential global heads, and globals feeding back into the chain.
inline std::string RandomProgramRich(std::mt19937* rng) {
  auto pick = [rng](int n) { return static_cast<int>((*rng)() % n); };
  int num_syms = 1 + pick(2);
  auto rand_sym = [&]() {
    return std::string(num_syms == 1 || pick(2) == 0 ? "f" : "g");
  };
  auto rand_const = [&]() { return std::string(pick(2) == 0 ? "a" : "b"); };

  std::string out = "R(a).\n";
  if (pick(2) == 0) out += "R(b).\n";
  // Seed facts.
  {
    int depth = pick(3);
    std::string term = "0";
    for (int d = 0; d < depth; ++d) term = rand_sym() + "(" + term + ")";
    out += "P0(" + term + ", " + rand_const() + ").\n";
  }
  if (pick(2) == 0) out += "P1(" + rand_sym() + "(0)).\n";

  int num_rules = 3 + pick(3);
  for (int i = 0; i < num_rules; ++i) {
    switch (pick(7)) {
      case 0:  // join through a non-functional variable
        out += "P0(t, x), R(x) -> P0(" + rand_sym() + "(t), x).\n";
        break;
      case 1:  // cross-predicate step
        out += "P0(t, " + rand_const() + ") -> P1(" + rand_sym() + "(t)).\n";
        break;
      case 2:  // constant introduction
        out += "P1(t) -> P0(t, " + rand_const() + ").\n";
        break;
      case 3:  // down-propagation
        out += "P0(" + rand_sym() + "(t), x) -> P1(t).\n";
        break;
      case 4:  // existential global head
        out += "P0(t, x) -> Seen(x).\n";
        break;
      case 5:  // pinned body atom gating a step
        out += "P1(" + rand_sym() + "(0)), P0(t, x) -> P0(" + rand_sym() +
               "(t), x).\n";
        break;
      case 6:  // a derived global feeding back into the chain
        out += "Seen(x), P1(t) -> P0(t, x).\n";
        break;
    }
  }
  return out;
}

// Programs whose chi entries must be closed more than once: the worklist
// closes an entry again only when an entry it read grew or the context
// grew, and the random generators rarely do either after a first closure.
//   (a) the deep entry {D} fires a context-head rule, and the already-closed
//       entry {B} reads that context bit in an eps rule;
//   (b) the child entry {C} grows by up-propagation after its reader {B}
//       has closed, and {B} then fires an eps rule on the grown child;
//   (c) as (a), but the bit {B} reads comes from a global rule in the
//       next round, so the context grows between two worklist drains.
inline std::vector<std::string> ReclosurePrograms() {
  return {
      "A(0).\nA(t) -> B(t+1).\nB(t) -> C(t+1).\nC(t) -> D(t+1).\n"
      "D(t) -> Seen(k).\nSeen(k), B(t) -> S(t).\nS(t+1) -> U(t).\n",
      "A(0).\nA(t) -> B(t+1).\nB(t) -> C(t+1).\nC(t) -> D(t+1).\n"
      "D(t+1) -> E(t).\nE(t+1) -> F(t).\nF(t+1) -> G(t).\n",
      "A(0).\nA(t) -> B(t+1).\nB(t) -> C(t+1).\nC(t) -> Seen(k).\n"
      "Seen(x) -> Glob(x).\nGlob(k), B(t) -> S(t).\nS(t+1) -> U(t).\n",
  };
}

// All paths over the program's alphabet up to `depth`, shortlex.
inline std::vector<Path> UniverseUpTo(const GroundProgram& ground, int depth) {
  std::vector<Path> out = {Path::Zero()};
  std::vector<Path> layer = {Path::Zero()};
  for (int d = 0; d < depth; ++d) {
    std::vector<Path> next;
    for (const Path& p : layer) {
      for (FuncId f : ground.alphabet()) next.push_back(p.Extend(f));
    }
    out.insert(out.end(), next.begin(), next.end());
    layer = std::move(next);
  }
  return out;
}

}  // namespace testutil
}  // namespace relspec

#endif  // RELSPEC_TESTS_RANDOM_PROGRAM_H_
