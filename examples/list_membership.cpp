// The paper's Section 3.4 worked example: list membership.
//
// Lists are built with ext(s, x) ("cons" with reversed arguments); Member's
// least fixpoint is infinite. Algorithm Q collapses it to four clusters with
// representative terms 0, a, b and ab — reproduced here exactly, including
// the successor mappings, followed by the Section 5 query Member(s, a).

#include <cstdio>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"

int main() {
  using namespace relspec;

  // Footnote 3's traversal start (depth c) matches the paper's worked run.
  EngineOptions options;
  options.graph.merge_trunk_frontier = true;
  auto db = FunctionalDatabase::FromSource(R"(
    P(a).
    P(b).
    P(x) -> Member(ext(0, x), x).
    P(y), Member(s, x) -> Member(ext(s, y), y).
    P(y), Member(s, x) -> Member(ext(s, y), x).
  )", options);
  if (!db.ok()) {
    fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  printf("== the quotient model of Section 3.4 ==\n");
  auto spec = (*db)->BuildGraphSpec();
  if (!spec.ok()) return 1;
  printf("%s", spec->ToString().c_str());
  printf("(the paper's representative terms: 0, a, b, ab)\n");

  printf("\n== membership in the infinite relation Member ==\n");
  for (const char* fact : {
           "Member(ext(0,a), a)",
           "Member(ext(ext(0,a),b), a)",
           "Member(ext(ext(0,a),b), b)",
           "Member(ext(ext(0,a),a), b)",
           "Member(ext(ext(ext(0,b),a),b), a)",
       }) {
    auto holds = (*db)->HoldsFactText(fact);
    printf("  %-34s -> %s\n", fact,
           holds.ok() ? (*holds ? "true" : "false") : "error");
  }

  printf("\n== Section 5: the query Member(s, a) ==\n");
  auto query = ParseQuery("?(s) Member(s, a).", (*db)->program().symbols);
  if (!query.ok()) return 1;
  auto answer = AnswerQuery(db->get(), *query);
  if (!answer.ok()) return 1;
  printf("  answer specification (Q(B), F): %s", answer->ToString().c_str());
  auto lists = answer->Enumerate(/*max_depth=*/3, /*max_count=*/100);
  if (lists.ok()) {
    printf("  lists of length <= 3 containing a:\n");
    for (const ConcreteAnswer& a : *lists) {
      printf("    %s\n", a.term->ToString(answer->symbols()).c_str());
    }
  }
  printf("  ... and infinitely many longer ones, all covered by the spec.\n");
  return 0;
}
