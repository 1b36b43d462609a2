// Text rendering of relational specifications.
//
// A line-oriented, human-readable form of (B, F) and (B, R), printed by
// `relspec_cli --save-spec` for reading and diffing (docs/FORMAT.md). It is
// printed, not loaded: the one load path for a saved specification is the
// binary snapshot (snapshot.h), which answers every read without the rules.

#ifndef RELSPEC_CORE_SPEC_IO_H_
#define RELSPEC_CORE_SPEC_IO_H_

#include <string>

#include "src/core/equational_spec.h"
#include "src/core/graph_spec.h"

namespace relspec {

class SpecIo {
 public:
  /// Prints a graph specification (B, F).
  static std::string Serialize(const GraphSpecification& spec);
  /// Prints an equational specification (B, R).
  static std::string Serialize(const EquationalSpecification& spec);
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SPEC_IO_H_
