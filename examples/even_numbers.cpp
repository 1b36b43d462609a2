// The paper's Section 3.5 example: Even numbers and the equational
// specification, plus the CONGR canonical form of Section 3.6.
//
// The specification is (B, R) with B = {Even(0)} and R = {(0, 2)}: from the
// single equation 0 == 2, congruence derives 1 == 3, 2 == 4 and so on — the
// whole of Cl(R) — but each test only ever touches finitely many terms. The
// paper decides them with the [DST80] congruence closure procedure; here
// each term is rewritten by R to its normal form, the Link walk.

#include <cstdio>

#include "src/core/congr.h"
#include "src/core/engine.h"

int main() {
  using namespace relspec;

  EngineOptions options;
  options.graph.merge_trunk_frontier = true;  // footnote 3: R = {(0,2)}
  auto db = FunctionalDatabase::FromSource(R"(
    Even(0).
    Even(t) -> Even(t+2).
  )", options);
  if (!db.ok()) {
    fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  auto spec = (*db)->BuildEquationalSpec();
  if (!spec.ok()) return 1;
  printf("== the equational specification (B, R) ==\n%s",
         spec->ToString().c_str());

  auto nat = [&](int n) {
    FuncId succ = *spec->spec().symbols().FindFunction("+1");
    std::vector<FuncId> syms(static_cast<size_t>(n), succ);
    return Path(std::move(syms));
  };

  printf("\n== congruence tests from the paper ==\n");
  struct Pair {
    int a, b;
  };
  for (Pair p : {Pair{0, 2}, Pair{0, 4}, Pair{1, 3}, Pair{0, 3}, Pair{1, 4}}) {
    printf("  (%d, %d) in Cl(R)?  %s\n", p.a, p.b,
           spec->Congruent(nat(p.a), nat(p.b)) ? "yes" : "no");
  }

  printf("\n== membership via (B, R) ==\n");
  // The paper's test: Even(t0) iff (t0, t) in Cl(R) for some t in
  // T = {t : Even(t) in B}, the representatives whose state holds it.
  const GraphSpecification& b = spec->spec();
  PredId even = *b.symbols().FindPredicate("Even");
  const AtomIdx atom = b.FindAtom(even, {});
  std::vector<Path> t_set;
  for (uint32_t c = 0; c < b.graph().num_clusters(); ++c) {
    if (atom != kInvalidId && b.graph().label(c).Test(atom)) {
      t_set.push_back(b.graph().Representative(c));
    }
  }
  for (int n = 0; n <= 9; ++n) {
    bool holds = false;
    for (const Path& t : t_set) holds = holds || spec->Congruent(nat(n), t);
    printf("  Even(%d) -> %s\n", n, holds ? "true" : "false");
  }

  printf("\n== why is (0, 4) in Cl(R)? a machine-checked proof ==\n");
  auto proof = spec->ExplainCongruenceText(nat(0), nat(4));
  if (proof.ok()) printf("%s", proof->c_str());

  printf("\n== the CONGR canonical form (Section 3.6) ==\n");
  printf("%s", CongrRulesText(*spec).c_str());
  printf("\nEvaluating LFP(CONGR, B u R) with the plain DATALOG engine over\n"
         "terms of depth <= 8 (the canonical form needs no knowledge of the\n"
         "original rules):\n");
  auto congr = EvaluateCongrBounded(*spec, 8);
  if (!congr.ok()) return 1;
  for (int n = 0; n <= 8; ++n) {
    printf("  Even(%d) -> %s\n", n,
           congr->Holds(nat(n), even, {}) ? "true" : "false");
  }
  printf("(%zu tuples derived in %zu semi-naive rounds)\n",
         congr->stats.tuples_derived, congr->stats.iterations);
  return 0;
}
