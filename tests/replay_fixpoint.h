// The fixpoint an engine was built from, computed again.
//
// After a build the engine keeps only its spec. Tests that hold the spec to
// the fixpoint's own per-path labels (Labeling::LabelOf, the independent
// reference) replay ComputeFixpoint and Algorithm Q on the engine's ground
// program with the build's options. A governed build replays under a fresh
// governor with the same limits, so a node, tuple or round budget breaches
// at the same point and leaves the labeling as the build left it.

#ifndef RELSPEC_TESTS_REPLAY_FIXPOINT_H_
#define RELSPEC_TESTS_REPLAY_FIXPOINT_H_

#include <memory>

#include "src/base/governor.h"
#include "src/core/engine.h"

namespace relspec {
namespace testutil {

struct ReplayedFixpoint {
  std::unique_ptr<ResourceGovernor> governor;  // null for ungoverned builds
  Labeling labeling;
};

/// Replays the build of `db`, which was made with `options`. An options'
/// governor must still be alive; only its limits are read.
inline StatusOr<ReplayedFixpoint> ReplayFixpoint(
    const FunctionalDatabase& db, const EngineOptions& options = {}) {
  ReplayedFixpoint out;
  FixpointOptions fixpoint = options.fixpoint;
  LabelGraphOptions graph = options.graph;
  if (options.governor != nullptr) {
    out.governor =
        std::make_unique<ResourceGovernor>(options.governor->limits());
    fixpoint.governor = out.governor.get();
    graph.governor = out.governor.get();
  }
  if (options.allow_partial) {
    fixpoint.allow_partial = true;
    graph.allow_partial = true;
  }
  RELSPEC_ASSIGN_OR_RETURN(out.labeling, ComputeFixpoint(db.ground(), fixpoint));
  RELSPEC_RETURN_NOT_OK(BuildLabelGraph(&out.labeling, graph).status());
  return out;
}

}  // namespace testutil
}  // namespace relspec

#endif  // RELSPEC_TESTS_REPLAY_FIXPOINT_H_
