// Unit tests for src/base: Status/StatusOr, DynamicBitset, string utils.

#include <gtest/gtest.h>

#include <set>

#include "src/base/bitset.h"
#include "src/base/status.h"
#include "src/base/str_util.h"

namespace relspec {
namespace {

// ---------- Status ----------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "invalid argument: bad rule");
}

TEST(Status, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
}

TEST(Status, CodeNameRoundTripsForEveryCode) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kDeadlineExceeded); ++i) {
    StatusCode code = static_cast<StatusCode>(i);
    const char* name = StatusCodeToString(code);
    EXPECT_STRNE(name, "unknown") << "code " << i << " has no name";
    auto back = StatusCodeFromString(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, code) << name;
    // Names must be pairwise distinct for the round trip to be well-defined.
    for (int j = 0; j < i; ++j) {
      EXPECT_STRNE(name, StatusCodeToString(static_cast<StatusCode>(j)));
    }
  }
  EXPECT_FALSE(StatusCodeFromString("no such code").has_value());
  EXPECT_FALSE(StatusCodeFromString("").has_value());
}

TEST(Status, ResourceBreachCoversExactlyTheBudgetCodes) {
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceBreach());
  EXPECT_TRUE(Status::Cancelled("x").IsResourceBreach());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsResourceBreach());
  EXPECT_FALSE(Status::OK().IsResourceBreach());
  EXPECT_FALSE(Status::Internal("x").IsResourceBreach());
  EXPECT_FALSE(Status::InvalidArgument("x").IsResourceBreach());
}

TEST(Status, WithContextPrepends) {
  Status s = Status::NotFound("predicate P").WithContext("parsing rule 3");
  EXPECT_EQ(s.message(), "parsing rule 3: predicate P");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(Status, CopyIsCheapAndEqual) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "boom");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(7), 7);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> DoubledPositive(int x) {
  RELSPEC_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOr, AssignOrReturnMacro) {
  auto ok = DoubledPositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto err = DoubledPositive(-1);
  EXPECT_FALSE(err.ok());
}

// ---------- DynamicBitset ----------

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitset, SubsetAndUnion) {
  DynamicBitset a(100), b(100);
  a.Set(3);
  a.Set(70);
  b.Set(3);
  b.Set(70);
  b.Set(99);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.UnionWith(b));   // changed
  EXPECT_FALSE(a.UnionWith(b));  // no further change
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_EQ(a, b);
}

TEST(DynamicBitset, IntersectSubtract) {
  DynamicBitset a(64), b(64);
  for (size_t i = 0; i < 64; i += 2) a.Set(i);
  for (size_t i = 0; i < 64; i += 3) b.Set(i);
  DynamicBitset inter = a;
  inter.IntersectWith(b);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(inter.Test(i), i % 6 == 0) << i;
  }
  DynamicBitset diff = a;
  diff.SubtractWith(b);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(diff.Test(i), i % 2 == 0 && i % 3 != 0) << i;
  }
}

TEST(DynamicBitset, ForEachVisitsAscending) {
  DynamicBitset b(200);
  std::vector<size_t> want = {0, 63, 64, 65, 127, 128, 199};
  for (size_t i : want) b.Set(i);
  EXPECT_EQ(b.ToVector(), want);
  EXPECT_EQ(b.ToString(), "{0,63,64,65,127,128,199}");
}

TEST(DynamicBitset, HashDistinguishesAndAgrees) {
  DynamicBitset a(100), b(100), c(100);
  a.Set(5);
  b.Set(5);
  c.Set(6);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  std::set<DynamicBitset> s = {a, b, c};
  EXPECT_EQ(s.size(), 2u);
}

// A view of arena words reads, hashes and compares like the DynamicBitset
// with the same bits: the chi and cluster indexes look arena rows up with
// either.
TEST(BitView, AgreesWithDynamicBitset) {
  DynamicBitset a(130);
  a.Set(0);
  a.Set(64);
  a.Set(129);
  const std::vector<uint64_t> arena = {7, a.words()[0], a.words()[1],
                                       a.words()[2], 9};
  const BitView v(arena.data() + 1, 130);
  EXPECT_EQ(v.Hash(), a.Hash());
  EXPECT_EQ(v, a);
  EXPECT_EQ(a, v);
  EXPECT_EQ(v.Count(), 3u);
  EXPECT_TRUE(v.Test(64));
  EXPECT_FALSE(v.Test(63));
  EXPECT_EQ(v.ToVector(), a.ToVector());
  EXPECT_EQ(v.ToString(), "{0,64,129}");
  EXPECT_TRUE(v.IsSubsetOf(a));
  EXPECT_EQ(DynamicBitset(v), a);
  // The universe is part of the set: the same words over a wider universe
  // hash and compare differently.
  const BitView wider(arena.data() + 1, 140);
  EXPECT_NE(wider, v);
  EXPECT_NE(wider.Hash(), v.Hash());
  a.Reset(129);
  EXPECT_NE(v, a);
  EXPECT_TRUE(BitView(a).IsSubsetOf(v));
  EXPECT_FALSE(v.IsSubsetOf(a));
}

TEST(DynamicBitset, OrderingIsTotal) {
  DynamicBitset a(64), b(64);
  a.Set(1);
  b.Set(2);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(DynamicBitset, EmptyUniverse) {
  DynamicBitset b(0);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  DynamicBitset c(0);
  EXPECT_EQ(b, c);
  EXPECT_TRUE(b.IsSubsetOf(c));
}

// ---------- string utils ----------

TEST(StrUtil, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtil, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StrUtil, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("relspec-graph", "relspec"));
  EXPECT_FALSE(StartsWith("rel", "relspec"));
  EXPECT_TRUE(EndsWith("file.spec", ".spec"));
  EXPECT_FALSE(EndsWith("spec", ".spec"));
}

TEST(StrUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%zu", static_cast<size_t>(123)), "123");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace relspec
