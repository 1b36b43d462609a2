// Verifying a protocol with an infinite trace space.
//
// A two-node token-ring with a fault action. States of the protocol live in
// the functional position (traces of actions applied to the initial state);
// the trace space is infinite, but the relational specification is finite,
// so safety questions ("is there any reachable trace where both nodes hold
// the token?") become yes-no queries over the spec.

#include <cstdio>

#include "src/core/engine.h"
#include "src/core/explain.h"
#include "src/core/query.h"
#include "src/parser/parser.h"

int main() {
  using namespace relspec;

  auto db = FunctionalDatabase::FromSource(R"(
    % Initially node n1 holds the token.
    Holds(0, n1).
    % pass: the token moves around the ring.
    Peer(n1, n2).
    Peer(n2, n1).
    Holds(t, x), Peer(x, y) -> Holds(pass(t), y).
    % dup: a faulty action that re-grants the token to the peer
    % WITHOUT revoking it — the bug under verification.
    Holds(t, x), Peer(x, y) -> Holds(dup(t), y).
    Holds(t, x) -> Holds(dup(t), x).
  )");
  if (!db.ok()) {
    fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  printf("== the reachable state space, finitely ==\n");
  auto spec = (*db)->BuildGraphSpec();
  if (!spec.ok()) return 1;
  printf("  %zu clusters cover every one of the infinitely many traces\n",
         spec->num_clusters());
  printf("  certificate: %s\n", (*db)->Verify().ToString().c_str());

  printf("\n== safety check: can both nodes hold the token? ==\n");
  auto violation = ParseQuery("?(t) Holds(t, n1), Holds(t, n2).",
                              (*db)->program().symbols);
  if (!violation.ok()) return 1;
  auto answer = AnswerQuery(db->get(), *violation);
  if (!answer.ok()) return 1;
  if (answer->IsEmpty()) {
    printf("  SAFE: no reachable trace violates mutual exclusion.\n");
  } else {
    printf("  VIOLATION: mutual exclusion fails. Shortest witness traces:\n");
    auto witnesses = answer->Enumerate(/*max_depth=*/2, /*max_count=*/3);
    if (witnesses.ok()) {
      for (const ConcreteAnswer& w : *witnesses) {
        printf("    %s\n", w.term->ToString(answer->symbols()).c_str());
      }
    }
    // Explain the first bad fact end to end.
    if (witnesses.ok() && !witnesses->empty()) {
      PredId holds = *(*db)->program().symbols.FindPredicate("Holds");
      ConstId n1 = *(*db)->program().symbols.FindConstant("n1");
      auto d = ExplainFact((*db)->ground(), *(*witnesses)[0].term,
                           SliceAtom{holds, {n1}});
      if (d.ok()) {
        printf("  why n1 still holds the token on that trace:\n%s",
               d->ToString((*db)->ground(), (*db)->program().symbols).c_str());
      }
    }
  }

  printf("\n== the fix: drop the faulty dup rules ==\n");
  auto fixed = FunctionalDatabase::FromSource(R"(
    Holds(0, n1).
    Peer(n1, n2).
    Peer(n2, n1).
    Holds(t, x), Peer(x, y) -> Holds(pass(t), y).
  )");
  if (!fixed.ok()) return 1;
  auto q2 = ParseQuery("?(t) Holds(t, n1), Holds(t, n2).",
                       (*fixed)->program().symbols);
  if (!q2.ok()) return 1;
  auto a2 = AnswerQuery(fixed->get(), *q2);
  if (!a2.ok()) return 1;
  printf("  %s\n", a2->IsEmpty()
                       ? "SAFE: mutual exclusion holds on every trace."
                       : "still broken?!");
  return 0;
}
