// Unit tests for specification serialization: round trips preserve
// queryability, and parsing rejects malformed inputs.

#include <gtest/gtest.h>

#include <string>

#include "src/core/engine.h"
#include "src/core/spec_io.h"

namespace relspec {
namespace {

constexpr const char* kMeets = R"(
  Meets(0, Tony).
  Next(Tony, Jan).
  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

constexpr const char* kList = R"(
  P(a).
  P(b).
  P(x) -> Member(ext(0, x), x).
  P(y), Member(s, x) -> Member(ext(s, y), y).
  P(y), Member(s, x) -> Member(ext(s, y), x).
)";

Path NatPath(const SymbolTable& symbols, int n) {
  FuncId succ = *symbols.FindFunction("+1");
  std::vector<FuncId> syms(static_cast<size_t>(n), succ);
  return Path(std::move(syms));
}

TEST(SpecIo, GraphSpecRoundTripMeets) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  auto back = SpecIo::ParseGraphSpec(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;

  // The parsed spec answers membership identically — the rules have been
  // "forgotten".
  PredId meets = *back->symbols().FindPredicate("Meets");
  ConstId tony = *back->symbols().FindConstant("Tony");
  ConstId jan = *back->symbols().FindConstant("Jan");
  for (int n = 0; n <= 15; ++n) {
    Path p = NatPath(back->symbols(), n);
    EXPECT_EQ(back->Holds(p, meets, {tony}), n % 2 == 0) << n;
    EXPECT_EQ(back->Holds(p, meets, {jan}), n % 2 == 1) << n;
  }
  PredId next = *back->symbols().FindPredicate("Next");
  EXPECT_TRUE(back->HoldsGlobal(next, {tony, jan}));

  // Serialization is stable (idempotent round trip).
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

TEST(SpecIo, GraphSpecRoundTripListWithTwoSymbols) {
  auto db = FunctionalDatabase::FromSource(kList);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  auto back = SpecIo::ParseGraphSpec(SpecIo::Serialize(*spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  PredId member = *back->symbols().FindPredicate("Member");
  ConstId a = *back->symbols().FindConstant("a");
  ConstId b = *back->symbols().FindConstant("b");
  FuncId fa = *back->symbols().FindFunction("ext{a}");
  FuncId fb = *back->symbols().FindFunction("ext{b}");
  Path ab = Path({fa, fb});
  EXPECT_TRUE(back->Holds(ab, member, {a}));
  EXPECT_TRUE(back->Holds(ab, member, {b}));
  Path aa = Path({fa, fa});
  EXPECT_TRUE(back->Holds(aa, member, {a}));
  EXPECT_FALSE(back->Holds(aa, member, {b}));
}

TEST(SpecIo, EquationalSpecRoundTrip) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  auto back = SpecIo::ParseEquationalSpec(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  EXPECT_EQ(back->num_equations(), spec->num_equations());
  PredId meets = *back->symbols().FindPredicate("Meets");
  ConstId tony = *back->symbols().FindConstant("Tony");
  for (int n = 0; n <= 15; ++n) {
    Path p = NatPath(back->symbols(), n);
    EXPECT_EQ(back->Holds(p, meets, {tony}), n % 2 == 0) << n;
  }
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

TEST(SpecIo, RejectsWrongMagic) {
  EXPECT_FALSE(SpecIo::ParseGraphSpec("not a spec\n").ok());
  EXPECT_FALSE(SpecIo::ParseEquationalSpec("relspec-graph-spec v1\n").ok());
}

TEST(SpecIo, RejectsTruncatedInput) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  // Drop the trailing "end" and some clusters.
  std::string truncated = text.substr(0, text.size() * 2 / 3);
  EXPECT_FALSE(SpecIo::ParseGraphSpec(truncated).ok());
}

TEST(SpecIo, RejectsUnknownSymbolsInBody) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  size_t pos = text.find("Meets");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "Meats");  // atom refers to an undeclared predicate
  EXPECT_FALSE(SpecIo::ParseGraphSpec(text).ok());
}

TEST(SpecIo, CommentsAndBlankLinesIgnored) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  std::string commented = "# a comment\n\n" + text;
  EXPECT_TRUE(SpecIo::ParseGraphSpec(commented).ok());
}

// Replaces the first occurrence of `from` in `text`, which must exist.
std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

std::string MeetsGraphText() {
  auto db = FunctionalDatabase::FromSource(kMeets);
  EXPECT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  EXPECT_TRUE(spec.ok());
  return SpecIo::Serialize(*spec);
}

std::string MeetsEqText() {
  auto db = FunctionalDatabase::FromSource(kMeets);
  EXPECT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  EXPECT_TRUE(spec.ok());
  return SpecIo::Serialize(*spec);
}

void ExpectInvalidGraph(const std::string& text) {
  auto parsed = SpecIo::ParseGraphSpec(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

void ExpectInvalidEq(const std::string& text) {
  auto parsed = SpecIo::ParseEquationalSpec(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << parsed.status().ToString();
}

// The meets graph spec has two atoms and three clusters; its cluster lines
// read "cluster trunk 0 label 0 succ 1", "cluster bfs +1 label 1 succ 2" and
// "cluster bfs +1.+1 label 0 succ 1".
TEST(SpecIo, RejectsLabelIndexBeyondAtoms) {
  const std::string text = MeetsGraphText();
  ExpectInvalidGraph(ReplaceOnce(text, "label 1 succ", "label 2 succ"));
  ExpectInvalidGraph(ReplaceOnce(text, "label 1 succ", "label 4000000 succ"));
  ExpectInvalidEq(ReplaceOnce(MeetsEqText(), "label 1\n", "label 2\n"));
}

TEST(SpecIo, RejectsNonNumericFields) {
  const std::string text = MeetsGraphText();
  ExpectInvalidGraph(ReplaceOnce(text, "trunk_depth 0", "trunk_depth zero"));
  ExpectInvalidGraph(
      ReplaceOnce(text, "frontier_depth 1", "frontier_depth 1x"));
  ExpectInvalidGraph(ReplaceOnce(text, "atoms 2", "atoms two"));
  ExpectInvalidGraph(ReplaceOnce(text, "clusters 3", "clusters -3"));
  ExpectInvalidGraph(ReplaceOnce(text, "label 1 succ", "label one succ"));
  ExpectInvalidGraph(ReplaceOnce(text, "succ 2", "succ two"));
  ExpectInvalidGraph(ReplaceOnce(text, "boundary +1 1", "boundary +1 x"));
  ExpectInvalidGraph(ReplaceOnce(text, "fn +1 1", "fn +1 unary"));
  ExpectInvalidGraph(
      ReplaceOnce(text, "pred Meets 2", "pred Meets 99999999999"));
  ExpectInvalidGraph(ReplaceOnce(text, "frontier_depth 1\n",
                                 "frontier_depth 1\ntruncated oops why\n"));
  ExpectInvalidEq(ReplaceOnce(MeetsEqText(), "trunk_depth 0", "trunk_depth ?"));
}

TEST(SpecIo, RejectsOutOfRangeClusterIds) {
  const std::string text = MeetsGraphText();
  ExpectInvalidGraph(ReplaceOnce(text, "succ 2", "succ 3"));
  ExpectInvalidGraph(ReplaceOnce(text, "succ 2", "succ 2 1"));
  ExpectInvalidGraph(ReplaceOnce(text, "boundary +1 1", "boundary +1 3"));
  ExpectInvalidGraph(ReplaceOnce(text, "frontier_depth 1\n",
                                 "frontier_depth 1\nunknown_cluster 3\n"));
  ExpectInvalidGraph(ReplaceOnce(text, "global Next Tony Jan", "global"));
}

// A line of only a form feed has no fields; the loaders skip it like a
// blank line instead of reading its first field.
TEST(SpecIo, SkipsLinesWithoutFields) {
  const std::string text = MeetsGraphText();
  ExpectInvalidGraph(text.substr(0, text.find("atoms 2\n") + 8) + "\f\n");
  auto back =
      SpecIo::ParseGraphSpec(ReplaceOnce(text, "end\n", "\f\v\nend\n"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

// A representative must extend an earlier cluster's representative by an
// alphabet symbol: that is how the loader rebuilds the BFS tree.
TEST(SpecIo, RejectsRepresentativesOffTheTree) {
  const std::string text = MeetsGraphText();
  ExpectInvalidGraph(ReplaceOnce(text, "cluster bfs +1.+1 label",
                                 "cluster bfs +1.+1.+1 label"));
  ExpectInvalidEq(ReplaceOnce(MeetsEqText(), "eq +1.+1.+1 +1", "eq 0 +1"));
  ExpectInvalidEq(ReplaceOnce(MeetsEqText(), "eq +1.+1.+1 +1",
                              "eq +1.+1.+1.+1.+1 +1"));
}

// Equational text written before cluster lines dropped their successor
// lists still loads, and re-serializes in the current form.
TEST(SpecIo, EquationalSpecAcceptsSuccessorLists) {
  const std::string text = MeetsEqText();
  std::string old = ReplaceOnce(text, "label 0\n", "label 0 succ 1\n");
  old = ReplaceOnce(old, "label 1\n", "label 1 succ 2\n");
  auto back = SpecIo::ParseEquationalSpec(old);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

}  // namespace
}  // namespace relspec
