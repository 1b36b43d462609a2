// Seeded program generators for the benchmark workloads. A seed only
// relabels and reorders: it permutes constant names, cycle orders and rule
// order, so every seed yields programs of the same shape and size, and the
// cost of a pass does not depend on which seed was drawn.

#ifndef RELSPEC_PERFBENCH_PROGRAMS_H_
#define RELSPEC_PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SourceProgram {
  std::string family;
  std::string source;
};

/// The `build` pass: subset, rotation, binary-counter and mixed families,
/// sized so that no family takes more than about 40% of the pass.
std::vector<SourceProgram> BuildPassPrograms(uint64_t seed, bool smoke);

struct AnswerCase {
  /// "dead_end" (robot-style: most subtrees hold no answer) or "dense"
  /// (lists-style: every subtree holds answers).
  std::string kind;
  std::string source;
  std::vector<std::string> queries;
};

/// The `answers` pass: robot-style and lists-style programs with queries.
std::vector<AnswerCase> AnswerPassCases(uint64_t seed, bool smoke);

/// The program behind both serve workloads: a short on-call rotation with
/// skills and coverage, a few hundred contact constants (so the symbol table
/// the daemon copies per membership request is sizeable), and twin facts
/// whose toggles stay on the in-place repair path.
struct ServeProgram {
  std::string source;
  std::vector<std::string> members;   // m* constants, all in the rotation
  std::vector<std::string> skills;    // k* constants
  std::vector<std::string> contacts;  // p* constants
  /// Base facts (without the trailing '.') whose delete/insert keeps the
  /// grounded universe, so the engine repairs in place.
  std::vector<std::string> repair_toggles;
  /// Base facts whose delete/insert changes the universe: full rebuild.
  std::vector<std::string> rebuild_toggles;
};
ServeProgram MakeServeProgram(uint64_t seed, bool smoke);

}  // namespace perfbench

#endif  // RELSPEC_PERFBENCH_PROGRAMS_H_
