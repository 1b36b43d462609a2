#include "src/temporal/periodic_answers.h"

#include <unordered_map>
#include <vector>

namespace relspec {

StatusOr<PeriodicSet> PeriodicAnswers(const GraphSpecification& spec,
                                      PredId pred,
                                      const std::vector<ConstId>& args) {
  if (spec.alphabet().size() != 1) {
    return Status::FailedPrecondition(
        "periodic answers require a single function symbol");
  }
  const LabelGraph& graph = spec.graph();

  // Is the atom in a given cluster's slice?
  auto holds_in = [&](uint32_t cluster) {
    for (const SliceAtom& a : spec.SliceOf(graph.Representative(cluster))) {
      if (a.pred == pred && a.args == args) return true;
    }
    return false;
  };

  // Walk the chain 0, 1, 2, ... by successor until a cluster repeats.
  std::vector<uint32_t> chain;
  std::unordered_map<uint32_t, size_t> seen;
  uint32_t cur = graph.ClusterOf(Path::Zero());
  size_t cycle_start = 0;
  while (true) {
    auto it = seen.find(cur);
    if (it != seen.end()) {
      cycle_start = it->second;
      break;
    }
    seen.emplace(cur, chain.size());
    chain.push_back(cur);
    cur = graph.SuccessorOf(cur, 0);
  }

  PeriodicSet out;
  size_t period = chain.size() - cycle_start;
  for (size_t n = 0; n < chain.size(); ++n) {
    if (!holds_in(chain[n])) continue;
    if (n < cycle_start) {
      out.AddPoint(n);
    } else {
      out.AddProgression(n, period);
    }
  }
  return out;
}

}  // namespace relspec
