// ResourceGovernor unit tests plus end-to-end budget/cancellation coverage:
// sticky first breach, graceful degradation soundness, truncated-spec
// serialization round-trips, and prompt cancellation of the fixpoint.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/base/governor.h"
#include "src/core/engine.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"

namespace relspec {
namespace {

constexpr char kMeets[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

// ---------------------------------------------------------------------------
// Governor unit semantics
// ---------------------------------------------------------------------------

TEST(Governor, DefaultLimitsGovernNothing) {
  ResourceGovernor g;
  EXPECT_TRUE(g.Check().ok());
  EXPECT_TRUE(g.CheckTuples(1u << 30).ok());
  EXPECT_TRUE(g.CheckNodes(1u << 30).ok());
  EXPECT_TRUE(g.CheckDepth(1u << 30).ok());
  EXPECT_TRUE(g.ChargeRound().ok());
  EXPECT_TRUE(g.ChargeBytes(1ull << 40).ok());
  EXPECT_FALSE(g.breached());
}

TEST(Governor, CancellationIsSticky) {
  ResourceGovernor g;
  g.RequestCancel();
  Status first = g.Check();
  EXPECT_TRUE(first.IsCancelled()) << first.ToString();
  // Every later poll — including budget polls — returns the first breach.
  EXPECT_TRUE(g.CheckTuples(0).IsCancelled());
  EXPECT_TRUE(g.status().IsCancelled());
  EXPECT_TRUE(g.breached());
}

TEST(Governor, DeadlineBreachesWithDeadlineExceeded) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor g(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(g.Check().IsDeadlineExceeded()) << g.Check().ToString();
  EXPECT_GE(g.elapsed_ms(), 1);
}

TEST(Governor, LevelBudgetsBreachAtFirstExcess) {
  GovernorLimits limits;
  limits.max_tuples = 10;
  limits.max_nodes = 20;
  limits.max_depth = 5;
  limits.max_rounds = 2;
  limits.max_bytes = 100;
  {
    ResourceGovernor g(limits);
    EXPECT_TRUE(g.CheckTuples(10).ok());
    EXPECT_TRUE(g.CheckTuples(11).IsResourceExhausted());
  }
  {
    ResourceGovernor g(limits);
    EXPECT_TRUE(g.CheckNodes(20).ok());
    EXPECT_TRUE(g.CheckNodes(21).IsResourceExhausted());
  }
  {
    ResourceGovernor g(limits);
    EXPECT_TRUE(g.CheckDepth(5).ok());
    EXPECT_TRUE(g.CheckDepth(6).IsResourceExhausted());
  }
  {
    ResourceGovernor g(limits);
    EXPECT_TRUE(g.ChargeRound().ok());
    EXPECT_TRUE(g.ChargeRound().ok());
    EXPECT_TRUE(g.ChargeRound().IsResourceExhausted());
  }
  {
    ResourceGovernor g(limits);
    EXPECT_TRUE(g.ChargeBytes(60).ok());
    EXPECT_TRUE(g.ChargeBytes(60).IsResourceExhausted());
  }
}

TEST(Governor, FirstBreachWinsAndPeaksTrackProgress) {
  GovernorLimits limits;
  limits.max_nodes = 5;
  ResourceGovernor g(limits);
  EXPECT_TRUE(g.CheckNodes(3).ok());
  Status first = g.CheckNodes(9);
  EXPECT_TRUE(first.IsResourceExhausted());
  // A later, different breach condition does not replace the first.
  g.RequestCancel();
  EXPECT_EQ(g.Check().code(), first.code());
  EXPECT_EQ(g.Check().message(), first.message());
  EXPECT_EQ(g.peak_nodes(), 9u);
  // ProgressString carries the observed peaks for breach messages.
  EXPECT_NE(g.ProgressString().find("nodes=9"), std::string::npos)
      << g.ProgressString();
}

// ---------------------------------------------------------------------------
// Graceful degradation: soundness of truncated results
// ---------------------------------------------------------------------------

TEST(GovernorEngine, BreachWithoutAllowPartialFailsTheBuild) {
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsResourceExhausted()) << db.status().ToString();
  EXPECT_TRUE(db.status().IsResourceBreach());
}

TEST(GovernorEngine, AllowPartialYieldsSoundTruncatedDatabase) {
  auto full = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(full.ok());

  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto partial = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE((*partial)->truncated());
  EXPECT_TRUE((*partial)->breach().IsResourceExhausted());
  // A truncated database is not a model of the program; Verify must say so.
  EXPECT_TRUE((*partial)->Verify().IsFailedPrecondition());

  // Soundness: every fact the partial database reports true is true in the
  // full least fixpoint (monotone iteration => under-approximation).
  const char* probes[] = {"Meets(0, Tony)", "Meets(1, Jan)",  "Meets(2, Tony)",
                          "Meets(3, Jan)",  "Meets(1, Tony)", "Meets(4, Jan)"};
  for (const char* probe : probes) {
    auto in_partial = (*partial)->HoldsFactText(probe);
    ASSERT_TRUE(in_partial.ok()) << probe;
    if (*in_partial) {
      auto in_full = (*full)->HoldsFactText(probe);
      ASSERT_TRUE(in_full.ok());
      EXPECT_TRUE(*in_full) << probe << " claimed by the truncated database "
                            << "but absent from the least fixpoint";
    }
  }
}

TEST(GovernorEngine, TruncatedGraphSpecRoundTripsThroughSpecIo) {
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->truncated());

  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(spec->truncated());
  std::string text = SpecIo::Serialize(*spec);
  EXPECT_NE(text.find("truncated "), std::string::npos);

  // Saved and loaded back through the one load path (a snapshot), the spec
  // keeps its truncation and breach and prints the same text.
  auto parsed = Snapshot::ParseGraphSpec(Snapshot::Serialize(*spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->truncated());
  EXPECT_EQ(parsed->breach().code(), spec->breach().code());
  EXPECT_EQ(parsed->breach().message(), spec->breach().message());
  EXPECT_EQ(SpecIo::Serialize(*parsed), text);
}

TEST(GovernorEngine, TruncatedEquationalSpecRoundTripsThroughSpecIo) {
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto espec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(espec.ok());
  ASSERT_TRUE(espec->spec().truncated());
  std::string text = SpecIo::Serialize(*espec);
  // (B, R) over the reloaded (B, F) keeps the truncation and the bytes.
  auto graph = Snapshot::ParseGraphSpec(Snapshot::Serialize(espec->spec()));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto parsed = BuildEquationalSpecification(
      std::make_shared<const GraphSpecification>(*std::move(graph)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->spec().truncated());
  EXPECT_EQ(parsed->spec().breach().code(), espec->spec().breach().code());
  EXPECT_EQ(Snapshot::Serialize(*parsed), Snapshot::Serialize(*espec));
  EXPECT_EQ(SpecIo::Serialize(*parsed), text);
}

// ---------------------------------------------------------------------------
// The fixpoint observes cancellation, deadlines and budgets promptly
// ---------------------------------------------------------------------------

TEST(GovernorFixpoint, ObservesCancellationPromptly) {
  // A program whose chi table is non-trivial: the on-call rotation with a
  // wide constant set.
  std::string source;
  for (int i = 0; i < 12; ++i) {
    source += "P(0, k" + std::to_string(i) + ").\n";
  }
  source += "P(t, x) -> P(t+1, x).\n";

  GovernorLimits limits;
  ResourceGovernor governor(limits);
  governor.RequestCancel();  // cancelled before the run even starts

  EngineOptions options;
  options.governor = &governor;
  auto start = std::chrono::steady_clock::now();
  auto db = FunctionalDatabase::FromSource(source, options);
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCancelled()) << db.status().ToString();
  // The fixpoint polls per round and per chi entry: the whole run must die
  // well under a second even though the uncancelled build is non-trivial.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000)
      << "cancellation was not observed at the next poll";
}

TEST(GovernorFixpoint, HonorsAnExpiredDeadline) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor governor(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  EngineOptions options;
  options.governor = &governor;
  auto start = std::chrono::steady_clock::now();
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsDeadlineExceeded()) << db.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000)
      << "expired deadline was not observed at the next poll";
}

TEST(GovernorFixpoint, TruncationIsSound) {
  // A node budget breach under allow_partial must produce a sound truncated
  // database that still holds the base facts.
  GovernorLimits limits;
  limits.max_nodes = 2;
  ResourceGovernor governor(limits);
  EngineOptions options;
  options.governor = &governor;
  options.allow_partial = true;
  auto db = FunctionalDatabase::FromSource(kMeets, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->truncated());
  auto holds = (*db)->HoldsFactText("Meets(0, Tony)");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds) << "base fact lost under truncation";
}

}  // namespace
}  // namespace relspec
