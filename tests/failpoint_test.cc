// Failpoint framework tests plus per-phase fault-injection coverage: every
// pipeline phase with a planted site must unwind with a clean Status when
// its site fires, and a retry after failpoint::Clear() must produce a
// byte-identical result to an uninjected run.

#include <gtest/gtest.h>

#include <string>

#include "src/ast/printer.h"
#include "src/base/failpoint.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/datalog/database.h"
#include "src/datalog/evaluator.h"
#include "src/parser/parser.h"
#include "src/temporal/temporal_engine.h"

namespace relspec {
namespace {

// Every test must leave the process pristine, or later tests (and the
// byte-identical-retry assertions) see leftover sites.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }
};

constexpr char kMeets[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

// ---------------------------------------------------------------------------
// Framework semantics
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, InactiveByDefault) {
  EXPECT_FALSE(failpoint::Active());
  // The macro's guarded path: nothing fires, nothing is recorded.
  auto probe = []() -> Status {
    RELSPEC_FAILPOINT("test.unconfigured");
    return Status::OK();
  };
  EXPECT_TRUE(probe().ok());
  EXPECT_EQ(failpoint::HitCount("test.unconfigured"), 0u);
}

TEST_F(FailpointTest, EachActionInjectsItsStatusCode) {
  ASSERT_TRUE(failpoint::Configure("a=error,b=alloc,c=cancel,d=deadline").ok());
  EXPECT_TRUE(failpoint::Active());
  EXPECT_TRUE(failpoint::Evaluate("a").IsInternal());
  EXPECT_TRUE(failpoint::Evaluate("b").IsResourceExhausted());
  EXPECT_TRUE(failpoint::Evaluate("c").IsCancelled());
  EXPECT_TRUE(failpoint::Evaluate("d").IsDeadlineExceeded());
}

TEST_F(FailpointTest, OneInNFiresDeterministicallyOnEveryNthHit) {
  ASSERT_TRUE(failpoint::Configure("p=1in3").ok());
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(failpoint::Evaluate("p").ok());
    EXPECT_TRUE(failpoint::Evaluate("p").ok());
    EXPECT_TRUE(failpoint::Evaluate("p").IsInternal());
  }
  EXPECT_EQ(failpoint::HitCount("p"), 9u);
}

TEST_F(FailpointTest, OffCountsButNeverFires) {
  ASSERT_TRUE(failpoint::Configure("trace.me=off").ok());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(failpoint::Evaluate("trace.me").ok());
  EXPECT_EQ(failpoint::HitCount("trace.me"), 5u);
  auto sites = failpoint::EvaluatedSites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "trace.me");
}

TEST_F(FailpointTest, MalformedSpecInstallsNothing) {
  EXPECT_TRUE(failpoint::Configure("ok.site=error,bad").IsInvalidArgument());
  EXPECT_TRUE(failpoint::Configure("x=bogus").IsInvalidArgument());
  EXPECT_TRUE(failpoint::Configure("x=1in0").IsInvalidArgument());
  EXPECT_TRUE(failpoint::Configure("=error").IsInvalidArgument());
  // The valid prefix of a rejected spec must not be armed.
  EXPECT_FALSE(failpoint::Active());
  EXPECT_TRUE(failpoint::Evaluate("ok.site").ok());
}

TEST_F(FailpointTest, ClearReturnsToPristineState) {
  ASSERT_TRUE(failpoint::Configure("z=error").ok());
  EXPECT_TRUE(failpoint::Evaluate("z").IsInternal());
  failpoint::Clear();
  EXPECT_FALSE(failpoint::Active());
  EXPECT_EQ(failpoint::HitCount("z"), 0u);
  EXPECT_TRUE(failpoint::EvaluatedSites().empty());
}

// ---------------------------------------------------------------------------
// Per-phase unwind + byte-identical retry
// ---------------------------------------------------------------------------

// Builds kMeets with `site` armed as `action`, expecting the build to fail
// with `want_internal ? Internal : breach`; then clears and rebuilds,
// asserting the serialized graph spec is byte-identical to `baseline`.
void ExpectEngineUnwindAndCleanRetry(const char* site,
                                     const std::string& baseline) {
  ASSERT_TRUE(
      failpoint::Configure(std::string(site) + "=error").ok());
  auto broken = FunctionalDatabase::FromSource(kMeets);
  ASSERT_FALSE(broken.ok()) << "site " << site << " did not fire";
  EXPECT_TRUE(broken.status().IsInternal()) << broken.status().ToString();
  EXPECT_GE(failpoint::HitCount(site), 1u) << "site " << site << " not reached";

  failpoint::Clear();
  auto retried = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  auto spec = (*retried)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(SpecIo::Serialize(*spec), baseline)
      << "retry after Clear() diverged for site " << site;
}

TEST_F(FailpointTest, EnginePhasesUnwindCleanly) {
  auto clean = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto clean_spec = (*clean)->BuildGraphSpec();
  ASSERT_TRUE(clean_spec.ok());
  const std::string baseline = SpecIo::Serialize(*clean_spec);

  ExpectEngineUnwindAndCleanRetry("ground.build", baseline);
  ExpectEngineUnwindAndCleanRetry("fixpoint.round", baseline);
  ExpectEngineUnwindAndCleanRetry("chi.pass", baseline);
  ExpectEngineUnwindAndCleanRetry("algorithm_q.visit", baseline);
}

// A delta batch whose rebuild fails mid-pipeline must leave the engine
// exactly as it was (strong guarantee), and a retry after Clear() must land
// on the bytes a from-scratch build of the edited program produces.
TEST_F(FailpointTest, FailedDeltaBatchLeavesEngineUnchanged) {
  // A wide +1 chain plus an inert twin-fact predicate; deleting Q(1, c0)
  // keeps the deeper Q(2, c0), so the batch is effective but small.
  constexpr char kWide[] = R"(
    P(0, k0).  P(0, k1).  P(0, k2).  P(0, k3).  P(0, k4).  P(0, k5).
    P(t, x) -> P(t+1, x).
    Q(1, c0).
    Q(2, c0).
  )";
  for (const char* site : {"chi.pass", "algorithm_q.visit"}) {
    SCOPED_TRACE(site);
    failpoint::Clear();
    auto db = FunctionalDatabase::FromSource(kWide);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const uint64_t fingerprint = (*db)->Fingerprint();
    const std::string program = ToString((*db)->original_program());
    auto spec = (*db)->BuildGraphSpec();
    ASSERT_TRUE(spec.ok());
    const std::string snapshot = Snapshot::Serialize(*spec);

    ASSERT_TRUE(failpoint::Configure(std::string(site) + "=error").ok());
    auto failed = (*db)->ApplyDeltaText("- Q(1, c0).\n");
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsInternal()) << failed.status().ToString();
    EXPECT_GE(failpoint::HitCount(site), 1u);
    failpoint::Clear();

    auto holds = (*db)->HoldsFactText("Q(1, c0)");
    ASSERT_TRUE(holds.ok()) << holds.status().ToString();
    EXPECT_TRUE(*holds);
    EXPECT_EQ((*db)->Fingerprint(), fingerprint);
    EXPECT_EQ(ToString((*db)->original_program()), program);
    auto after = (*db)->BuildGraphSpec();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(Snapshot::Serialize(*after), snapshot);

    auto retried = (*db)->ApplyDeltaText("- Q(1, c0).\n");
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(retried->deleted, 1u);
    auto holds_after = (*db)->HoldsFactText("Q(1, c0)");
    ASSERT_TRUE(holds_after.ok());
    EXPECT_FALSE(*holds_after);
    auto rebuilt = FunctionalDatabase::FromProgram((*db)->original_program());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ((*db)->Fingerprint(), (*rebuilt)->Fingerprint());
    auto retried_spec = (*db)->BuildGraphSpec();
    auto rebuilt_spec = (*rebuilt)->BuildGraphSpec();
    ASSERT_TRUE(retried_spec.ok());
    ASSERT_TRUE(rebuilt_spec.ok());
    EXPECT_EQ(Snapshot::Serialize(*retried_spec),
              Snapshot::Serialize(*rebuilt_spec));
  }
}

TEST_F(FailpointTest, DatalogIterationUnwinds) {
  ASSERT_TRUE(failpoint::Configure("datalog.iteration=cancel").ok());
  datalog::Database db;
  ASSERT_TRUE(db.Declare(0, 2).ok());  // Edge
  ASSERT_TRUE(db.Declare(1, 2).ok());  // Reach
  for (uint32_t i = 0; i + 1 < 6; ++i) db.Insert(0, {i, i + 1});
  std::vector<datalog::DRule> rules;
  {
    datalog::DRule r;  // Reach(x,y) <- Edge(x,y).
    r.num_vars = 2;
    r.head = datalog::DAtom{1, {datalog::DTerm::Var(0), datalog::DTerm::Var(1)}};
    r.body = {datalog::DAtom{0, {datalog::DTerm::Var(0), datalog::DTerm::Var(1)}}};
    rules.push_back(r);
  }
  auto stats = datalog::Evaluate(rules, &db);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCancelled()) << stats.status().ToString();
  EXPECT_GE(failpoint::HitCount("datalog.iteration"), 1u);

  failpoint::Clear();
  auto retried = datalog::Evaluate(rules, &db);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(db.relation(1).size(), 5u);
}

TEST_F(FailpointTest, CongruenceClosureDrainInterruptsStickily) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  Path a = Path::Zero();
  Path big = a;
  for (int i = 0; i < 6; ++i) big = big.Extend(0);

  ASSERT_TRUE(failpoint::Configure("cc.drain=alloc").ok());
  // The membership test still answers (soundly, possibly under-approximate):
  // the closure keeps whatever merges landed before the interrupt.
  (void)espec->Congruent(a, big);
  EXPECT_GE(failpoint::HitCount("cc.drain"), 1u);
  // The interrupt surfaces as a Status on the explaining API.
  auto proof = espec->ExplainCongruence(a, big);
  ASSERT_FALSE(proof.ok());
  EXPECT_TRUE(proof.status().IsResourceExhausted())
      << proof.status().ToString();

  failpoint::Clear();
  // A fresh spec (fresh closure) answers normally after the clear: every
  // equation of R is trivially in Cl(R).
  auto fresh = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(fresh.ok());
  ASSERT_FALSE(fresh->equations().empty());
  for (const auto& [t1, t2] : fresh->equations()) {
    EXPECT_TRUE(fresh->Congruent(t1, t2));
  }
}

TEST_F(FailpointTest, TemporalStepUnwinds) {
  constexpr char kRotation[] = R"(
    OnCall(0, m0).
    Rotate(m0, m1).  Rotate(m1, m0).
    OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).
  )";
  auto prog = ParseProgram(kRotation);
  ASSERT_TRUE(prog.ok());
  auto engine = TemporalEngine::Build(*prog);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  ASSERT_TRUE(failpoint::Configure("temporal.step=deadline").ok());
  auto spec = (*engine)->ComputeSpec();
  ASSERT_FALSE(spec.ok());
  EXPECT_TRUE(spec.status().IsDeadlineExceeded()) << spec.status().ToString();
  EXPECT_GE(failpoint::HitCount("temporal.step"), 1u);

  failpoint::Clear();
  auto retried = (*engine)->ComputeSpec();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->period(), 2u);
}

TEST_F(FailpointTest, QueryEnumerationUnwinds) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto query = ParseQuery("?(t) Meets(t, Tony).", (*db)->program().symbols);
  ASSERT_TRUE(query.ok());
  auto answer = AnswerQuery(db->get(), *query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  ASSERT_TRUE(failpoint::Configure("query.enumerate=error").ok());
  auto list = answer->Enumerate(/*max_depth=*/4, /*max_count=*/100);
  ASSERT_FALSE(list.ok());
  EXPECT_TRUE(list.status().IsInternal());

  failpoint::Clear();
  auto retried = answer->Enumerate(/*max_depth=*/4, /*max_count=*/100);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(retried->empty());
}

}  // namespace
}  // namespace relspec
