// Quickstart: the paper's introductory example (Section 1).
//
// A rule schedules the meetings of graduate students with their common
// advisor. The least fixpoint — and the answer to "when does who meet?" —
// is infinite; relspec represents both finitely.

#include <cstdio>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"

int main() {
  using namespace relspec;

  auto db = FunctionalDatabase::FromSource(R"(
    % The fact Meets(t, x): student x meets the advisor on day t.
    Meets(0, Tony).
    Next(Tony, Jan).
    Next(Jan, Tony).
    Meets(t, x), Next(x, y) -> Meets(t+1, y).
  )");
  if (!db.ok()) {
    fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  printf("== membership in the infinite least fixpoint ==\n");
  for (const char* fact :
       {"Meets(0, Tony)", "Meets(1, Jan)", "Meets(2, Tony)", "Meets(7, Tony)",
        "Meets(7, Jan)", "Meets(100, Tony)"}) {
    auto holds = (*db)->HoldsFactText(fact);
    printf("  %-18s -> %s\n", fact,
           holds.ok() ? (*holds ? "true" : "false") : "error");
  }

  printf("\n== the finite graph specification (B, F) ==\n");
  auto spec = (*db)->BuildGraphSpec();
  if (spec.ok()) printf("%s", spec->ToString().c_str());

  printf("\n== certified ==\n");
  Status verified = (*db)->Verify();
  printf("  quotient model check: %s\n", verified.ToString().c_str());

  printf("\n== the infinite answer to ?(t,x) Meets(t,x), finitely ==\n");
  auto query = ParseQuery("?(t,x) Meets(t, x).", (*db)->program().symbols);
  if (!query.ok()) return 1;
  auto answer = AnswerQuery(db->get(), *query);
  if (!answer.ok()) return 1;
  printf("  %s", answer->ToString().c_str());
  auto some = answer->Enumerate(/*max_depth=*/5, /*max_count=*/10);
  if (some.ok()) {
    for (const ConcreteAnswer& a : *some) {
      printf("  day %d: %s\n", a.term->depth(),
             answer->symbols().constant_name(a.tuple[0]).c_str());
    }
  }
  printf("  ... and so on, forever (every second day each).\n");
  return 0;
}
