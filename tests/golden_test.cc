// Golden-file tests: the text serialization of the graph specification for
// the example programs is pinned under tests/golden/*.snap. Any engine
// change that alters the bytes must regenerate the goldens deliberately
// (tools/regen_goldens.sh) — an unintended diff here is a determinism or
// semantics regression.
//
// Run with UPDATE_GOLDENS=1 to rewrite the files from current output.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"

#ifndef RELSPEC_SOURCE_DIR
#error "RELSPEC_SOURCE_DIR must point at the repository root"
#endif

namespace relspec {
namespace {

struct GoldenCase {
  const char* name;     // test label and golden stem
  const char* program;  // path under examples/programs/
};

// Without this, gtest prints the case as its raw pointer bytes, which change
// with address-space randomisation and so make the listed test names unstable.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.program; }

const GoldenCase kCases[] = {
    {"meets", "meets.rsp"},
    {"even", "even.rsp"},
    {"lists", "lists.rsp"},
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// A compact readable diff: the first few differing lines, with line numbers.
std::string LineDiff(const std::string& want, const std::string& got) {
  std::vector<std::string> a = Lines(want), b = Lines(got);
  std::string out;
  int shown = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()) && shown < 8; ++i) {
    const std::string* wa = i < a.size() ? &a[i] : nullptr;
    const std::string* gb = i < b.size() ? &b[i] : nullptr;
    if (wa != nullptr && gb != nullptr && *wa == *gb) continue;
    out += "  line " + std::to_string(i + 1) + ":\n";
    out += "    golden: " + (wa != nullptr ? *wa : "<eof>") + "\n";
    out += "    actual: " + (gb != nullptr ? *gb : "<eof>") + "\n";
    ++shown;
  }
  return out;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, GraphSpecMatchesGolden) {
  const GoldenCase& c = GetParam();
  std::string root = RELSPEC_SOURCE_DIR;
  std::string source =
      ReadFileOrDie(root + "/examples/programs/" + c.program);
  // Parse separately: example programs may carry "? ..." query statements,
  // which FromSource rejects.
  auto parsed = Parse(source);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto db = FunctionalDatabase::FromProgram(std::move(parsed->program));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto spec = (*db)->BuildGraphSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::string actual = SpecIo::Serialize(*spec);

  std::string golden_path =
      root + "/tests/golden/" + std::string(c.name) + ".snap";
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::string want = ReadFileOrDie(golden_path);
  EXPECT_EQ(want, actual) << "golden mismatch for " << c.name
                          << " (regenerate with tools/regen_goldens.sh):\n"
                          << LineDiff(want, actual);
}

INSTANTIATE_TEST_SUITE_P(Examples, GoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace relspec
