// Situation-calculus planning (paper Section 1).
//
// The functional position holds a *situation*; move(s, p1, p2) is the
// operator "the robot moves from p1 to p2". The set of action sequences
// reaching a position is infinite (every cycle can be traversed any number
// of times); its relational specification is finite because "once the robot
// is again in the same position it faces the same set of possible moves".

#include <cstdio>
#include <initializer_list>
#include <string>

#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"

int main() {
  using namespace relspec;

  auto db = FunctionalDatabase::FromSource(R"(
    % A small floor plan: a triangle p0-p1-p2 plus a dead end p3.
    At(0, p0).
    Connected(p0, p1).
    Connected(p1, p2).
    Connected(p2, p0).
    Connected(p0, p3).
    At(s, x), Connected(x, y) -> At(move(s, x, y), y).
  )");
  if (!db.ok()) {
    fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  printf("== plan validity checks ==\n");
  struct Check {
    const char* plan;
    const char* where;
  };
  for (const Check& c : std::initializer_list<Check>{
           {"move(0,p0,p1)", "p1"},
           {"move(move(0,p0,p1),p1,p2)", "p2"},
           {"move(move(move(0,p0,p1),p1,p2),p2,p0)", "p0"},
           {"move(0,p0,p2)", "p2"},             // illegal: no edge p0-p2
           {"move(move(0,p0,p3),p3,p0)", "p0"},  // illegal: p3 is a dead end
       }) {
    std::string fact = std::string("At(") + c.plan + ", " + c.where + ")";
    auto holds = (*db)->HoldsFactText(fact);
    printf("  %-46s -> %s\n", fact.c_str(),
           holds.ok() ? (*holds ? "valid plan" : "invalid") : "error");
  }

  printf("\n== the infinite plan space, finitely ==\n");
  auto spec = (*db)->BuildGraphSpec();
  if (spec.ok()) {
    printf("  clusters: %zu (intuition: one per reachable position, plus\n"
           "  the start and the stuck states)\n",
           spec->num_clusters());
  }
  Status cert = (*db)->Verify();
  printf("  certificate: %s\n", cert.ToString().c_str());

  printf("\n== all plans that reach p2, as a specification ==\n");
  auto query = ParseQuery("?(y) At(y, p2).", (*db)->program().symbols);
  if (!query.ok()) {
    fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto answer = AnswerQuery(db->get(), *query);
  if (!answer.ok()) return 1;
  auto plans = answer->Enumerate(/*max_depth=*/3, /*max_count=*/50);
  if (plans.ok()) {
    printf("  plans of <= 3 moves reaching p2:\n");
    for (const ConcreteAnswer& a : *plans) {
      printf("    %s\n", a.term->ToString(answer->symbols()).c_str());
    }
  }
  printf("  (every longer plan folds onto one of the clusters above)\n");
  return 0;
}
