#include "perfbench/programs.h"

#include <numeric>

#include "perfbench/common.h"

namespace perfbench {
namespace {

std::vector<int> Permutation(int n, uint64_t* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(&perm, rng);
  return perm;
}

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// 2^(n-1) reachable states: symbol set_i adds bit i and keeps the rest.
std::string Subset(int n, uint64_t* rng) {
  std::vector<int> names = Permutation(n, rng);
  std::vector<std::string> rules;
  for (int i = 0; i < n; ++i) {
    const std::string sym = "set" + std::to_string(names[static_cast<size_t>(i)]);
    const std::string bit = "b" + std::to_string(names[static_cast<size_t>(i)]);
    rules.push_back("B(t, x) -> B(" + sym + "(t), x).");
    rules.push_back("B(t, x) -> B(" + sym + "(t), " + bit + ").");
  }
  Shuffle(&rules, rng);
  return "B(0, b" + std::to_string(names[0]) + ").\n" + Joined(rules);
}

/// A k-member on-call cycle in seeded order.
std::string Rotation(int k, uint64_t* rng) {
  std::vector<int> order = Permutation(k, rng);
  std::vector<std::string> facts;
  for (int i = 0; i < k; ++i) {
    facts.push_back("Rotate(m" + std::to_string(order[static_cast<size_t>(i)]) +
                    ", m" +
                    std::to_string(order[static_cast<size_t>((i + 1) % k)]) +
                    ").");
  }
  Shuffle(&facts, rng);
  return "OnCall(0, m" + std::to_string(order[0]) + ").\n" + Joined(facts) +
         "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
}

/// An n-bit counter over +1: period 2^n.
std::string BinaryCounter(int n, uint64_t* rng) {
  std::vector<std::string> facts, rules;
  for (int i = 0; i < n; ++i) facts.push_back("Nobit" + std::to_string(i) + "(0).");
  for (int i = 0; i < n; ++i) {
    std::string lower;
    for (int j = 0; j < i; ++j) lower += ", Bit" + std::to_string(j) + "(t)";
    const std::string bit = "Bit" + std::to_string(i);
    const std::string nobit = "Nobit" + std::to_string(i);
    rules.push_back(nobit + "(t)" + lower + " -> " + bit + "(t+1).");
    rules.push_back(bit + "(t)" + lower + " -> " + nobit + "(t+1).");
    for (int j = 0; j < i; ++j) {
      const std::string clear = "Nobit" + std::to_string(j) + "(t)";
      rules.push_back(bit + "(t), " + clear + " -> " + bit + "(t+1).");
      rules.push_back(nobit + "(t), " + clear + " -> " + nobit + "(t+1).");
    }
  }
  Shuffle(&rules, rng);
  return Joined(facts) + Joined(rules);
}

/// Mixed symbols: purification turns move(s, x, y) into n^2 pure symbols.
std::string Mixed(int n, uint64_t* rng) {
  std::vector<int> order = Permutation(n, rng);
  std::vector<std::string> facts;
  for (int i = 0; i < n; ++i) {
    facts.push_back("Connected(q" + std::to_string(order[static_cast<size_t>(i)]) +
                    ", q" +
                    std::to_string(order[static_cast<size_t>((i + 1) % n)]) +
                    ").");
  }
  Shuffle(&facts, rng);
  return "At(0, q" + std::to_string(order[0]) + ").\n" + Joined(facts) +
         "At(s, x), Connected(x, y) -> At(move(s, x, y), y).\n";
}

}  // namespace

std::vector<SourceProgram> BuildPassPrograms(uint64_t seed, bool smoke) {
  uint64_t rng = seed ^ 0x6275696c64ULL;  // "build"
  std::vector<SourceProgram> out;
  if (smoke) {
    out.push_back({"subset", Subset(5, &rng)});
    out.push_back({"rotation", Rotation(16, &rng)});
    out.push_back({"counter", BinaryCounter(3, &rng)});
    out.push_back({"mixed", Mixed(4, &rng)});
    return out;
  }
  // Two of each, so every cost level is a band of at least two builds:
  // counter(8) < subset(10) ~ mixed(18) < rotation(420) < counter(9).
  // The median build falls inside the subset/mixed band and the p99 inside
  // the counter(9) band, and no family takes more than ~40% of a pass.
  for (int copy = 0; copy < 2; ++copy) {
    out.push_back({"counter", BinaryCounter(8, &rng)});
    out.push_back({"subset", Subset(10, &rng)});
    out.push_back({"mixed", Mixed(18, &rng)});
    out.push_back({"rotation", Rotation(420, &rng)});
    out.push_back({"counter", BinaryCounter(9, &rng)});
  }
  return out;
}

std::vector<AnswerCase> AnswerPassCases(uint64_t seed, bool smoke) {
  uint64_t rng = seed ^ 0x616e73776572ULL;  // "answer"
  std::vector<AnswerCase> out;
  // Robot-style: three places, so purification yields 9 move symbols and
  // the depth-6 walk visits 9^6 terms, almost all in answer-free clusters.
  auto robot = [&](bool triangle) {
    std::vector<int> p = Permutation(3, &rng);
    auto place = [&](int i) { return "p" + std::to_string(p[static_cast<size_t>(i)]); };
    std::vector<std::string> edges;
    if (triangle) {
      edges = {"Connected(" + place(0) + ", " + place(1) + ").",
               "Connected(" + place(1) + ", " + place(2) + ").",
               "Connected(" + place(2) + ", " + place(0) + ")."};
    } else {
      // A two-place cycle with a dead-end branch.
      edges = {"Connected(" + place(0) + ", " + place(1) + ").",
               "Connected(" + place(1) + ", " + place(0) + ").",
               "Connected(" + place(0) + ", " + place(2) + ")."};
    }
    Shuffle(&edges, &rng);
    AnswerCase c;
    c.kind = "dead_end";
    c.source = "At(0, " + place(0) + ").\n" + Joined(edges) +
               "At(s, x), Connected(x, y) -> At(move(s, x, y), y).\n";
    c.queries.push_back("?(y) At(y, " + place(triangle ? 2 : 1) + ").");
    return c;
  };
  // Lists-style: lists over m constants; every list extends to more lists
  // that hold each constant, so every subtree holds answers.
  auto lists = [&](int m) {
    std::vector<int> names = Permutation(m, &rng);
    AnswerCase c;
    c.kind = "dense";
    std::vector<std::string> facts;
    for (int i = 0; i < m; ++i) {
      facts.push_back("P(c" + std::to_string(names[static_cast<size_t>(i)]) + ").");
    }
    Shuffle(&facts, &rng);
    c.source = Joined(facts) +
               "P(x) -> Member(ext(0, x), x).\n"
               "P(y), Member(s, x) -> Member(ext(s, y), y).\n"
               "P(y), Member(s, x) -> Member(ext(s, y), x).\n";
    for (int i = 0; i < m; ++i) {
      c.queries.push_back("?(s) Member(s, c" +
                          std::to_string(names[static_cast<size_t>(i)]) + ").");
    }
    c.queries.push_back("?(s, x) Member(s, x).");
    // Non-uniform: the functional term is not a bare variable, so the
    // answer is computed by the recompute method.
    c.queries.push_back("?(s) Member(ext(s, c" + std::to_string(names[0]) +
                        "), c" + std::to_string(names[1 % m]) + ").");
    return c;
  };
  if (smoke) {
    out.push_back(robot(true));
    out.push_back(lists(3));
    return out;
  }
  out.push_back(robot(true));
  out.push_back(robot(false));
  for (int i = 0; i < 6; ++i) out.push_back(lists(5));
  return out;
}

ServeProgram MakeServeProgram(uint64_t seed, bool smoke) {
  uint64_t rng = seed ^ 0x7365727665ULL;  // "serve"
  const int members = smoke ? 6 : 16;
  const int skills = smoke ? 6 : 24;
  const int contacts = smoke ? 20 : 260;
  const int repair_members = smoke ? 2 : 8;
  const int repair_skills = smoke ? 2 : 6;
  const int rebuild_facts = smoke ? 1 : 4;
  ServeProgram out;
  auto names = [&](const char* prefix, int n) {
    std::vector<std::string> v;
    for (int i : Permutation(n, &rng)) v.push_back(prefix + std::to_string(i));
    return v;
  };
  out.members = names("m", members);
  out.skills = names("k", skills);
  out.contacts = names("p", contacts);

  std::vector<std::string> facts;
  facts.push_back("OnCall(0, " + out.members[0] + ")");
  for (int i = 0; i < members; ++i) {
    facts.push_back("Rotate(" + out.members[static_cast<size_t>(i)] + ", " +
                    out.members[static_cast<size_t>((i + 1) % members)] + ")");
  }
  for (int i = 0; i < members; ++i) {
    // Two distinct skills per member; every skill is held by someone.
    for (int j : {2 * i, 2 * i + 1}) {
      facts.push_back("Skill(" + out.members[static_cast<size_t>(i)] + ", " +
                      out.skills[static_cast<size_t>(j % skills)] + ")");
    }
  }
  // Rebuild toggles: skills of the last members (deleting a global fact
  // changes the grounded universe).
  for (int i = 0; i < rebuild_facts; ++i) {
    const size_t m = static_cast<size_t>(members - 1 - i);
    out.rebuild_toggles.push_back("Skill(" + out.members[m] + ", " +
                                  out.skills[(2 * m) % out.skills.size()] + ")");
  }
  for (int j = 0; j < contacts; ++j) {
    facts.push_back("Contact(" + out.members[static_cast<size_t>(j % members)] +
                    ", " + out.contacts[static_cast<size_t>(j)] + ")");
  }
  // Twin facts: F(1, c) directly followed by F(2, c). Deleting F(1, c)
  // retracts trunk bits but keeps the atom F(@, c) at the same interning
  // position and the trunk depth at 2, so the universe is unchanged.
  for (int i = 0; i < repair_members; ++i) {
    const std::string& m = out.members[static_cast<size_t>(i)];
    facts.push_back("OnCall(1, " + m + ")");
    facts.push_back("OnCall(2, " + m + ")");
    out.repair_toggles.push_back("OnCall(1, " + m + ")");
  }
  for (int j = 0; j < repair_skills; ++j) {
    const std::string& k = out.skills[static_cast<size_t>(j)];
    facts.push_back("Covered(1, " + k + ")");
    facts.push_back("Covered(2, " + k + ")");
    out.repair_toggles.push_back("Covered(1, " + k + ")");
  }
  for (const std::string& f : facts) out.source += f + ".\n";
  out.source +=
      "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n"
      "OnCall(t, x), Skill(x, w) -> Covered(t, w).\n";
  return out;
}

}  // namespace perfbench
