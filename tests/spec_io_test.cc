// Unit tests for the text rendering of specifications. The text is printed,
// not loaded: a spec saved as a snapshot and loaded back (the one load path)
// answers membership like the original and prints the same text.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/engine.h"
#include "src/core/snapshot.h"
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
  auto back = Snapshot::ParseGraphSpec(Snapshot::Serialize(*spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  // The loaded spec answers membership identically — the rules have been
  // "forgotten".
  PredId meets = *back->symbols().FindPredicate("Meets");
  ConstId tony = *back->symbols().FindConstant("Tony");
  ConstId jan = *back->symbols().FindConstant("Jan");
  for (int n = 0; n <= 15; ++n) {
    Path p = NatPath(back->symbols(), n);
    EXPECT_EQ(back->Holds(p, meets, std::vector<ConstId>{tony}),
              n % 2 == 0) << n;
    EXPECT_EQ(back->Holds(p, meets, std::vector<ConstId>{jan}),
              n % 2 == 1) << n;
  }
  PredId next = *back->symbols().FindPredicate("Next");
  EXPECT_TRUE(back->HoldsGlobal(next, std::vector<ConstId>{tony, jan}));

  // The loaded spec prints the same text.
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

TEST(SpecIo, GraphSpecRoundTripListWithTwoSymbols) {
  auto db = FunctionalDatabase::FromSource(kList);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok());
  auto back = Snapshot::ParseGraphSpec(Snapshot::Serialize(*spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SpecIo::Serialize(*back), SpecIo::Serialize(*spec));
  PredId member = *back->symbols().FindPredicate("Member");
  ConstId a = *back->symbols().FindConstant("a");
  ConstId b = *back->symbols().FindConstant("b");
  FuncId fa = *back->symbols().FindFunction("ext{a}");
  FuncId fb = *back->symbols().FindFunction("ext{b}");
  Path ab = Path({fa, fb});
  EXPECT_TRUE(back->Holds(ab, member, std::vector<ConstId>{a}));
  EXPECT_TRUE(back->Holds(ab, member, std::vector<ConstId>{b}));
  Path aa = Path({fa, fa});
  EXPECT_TRUE(back->Holds(aa, member, std::vector<ConstId>{a}));
  EXPECT_FALSE(back->Holds(aa, member, std::vector<ConstId>{b}));
}

TEST(SpecIo, EquationalSpecRoundTrip) {
  auto db = FunctionalDatabase::FromSource(kMeets);
  ASSERT_TRUE(db.ok());
  auto spec = (*db)->BuildEquationalSpec();
  ASSERT_TRUE(spec.ok());
  std::string text = SpecIo::Serialize(*spec);
  // (B, R) is built over the reloaded (B, F), not loaded.
  auto graph = Snapshot::ParseGraphSpec(Snapshot::Serialize(spec->spec()));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto back = BuildEquationalSpecification(
      std::make_shared<const GraphSpecification>(*std::move(graph)));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Snapshot::Serialize(*back), Snapshot::Serialize(*spec));
  EXPECT_EQ(back->num_equations(), spec->num_equations());
  const SymbolTable& symbols = back->spec().symbols();
  PredId meets = *symbols.FindPredicate("Meets");
  ConstId tony = *symbols.FindConstant("Tony");
  for (int n = 0; n <= 15; ++n) {
    Path p = NatPath(symbols, n);
    EXPECT_EQ(back->spec().Holds(p, meets, std::vector<ConstId>{tony}),
              n % 2 == 0) << n;
  }
  EXPECT_EQ(SpecIo::Serialize(*back), text);
}

}  // namespace
}  // namespace relspec
