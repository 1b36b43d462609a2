#include "src/core/equational_spec.h"

#include <algorithm>

#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

EquationalSpecification::NormalForm EquationalSpecification::Walk(
    const Path& path, std::vector<std::pair<int, Equation>>* crossed) const {
  const LabelGraph& graph = spec_->graph();
  const uint32_t unknown = graph.unknown_cluster();
  NormalForm nf;
  for (; nf.leave < path.depth(); ++nf.leave) {
    const FuncId f = path.at(nf.leave);
    const SymIdx s = graph.SymIndexOf(f);
    if (s == kInvalidId) break;
    const uint32_t next = graph.SuccessorOf(nf.cluster, s);
    // R has no equation into or out of the unknown sink, which a forged
    // snapshot may place at cluster 0.
    if (next == unknown || nf.cluster == unknown) break;
    const bool tree_edge =
        graph.parent(next) == nf.cluster && graph.symbol(next) == f;
    if (!tree_edge && crossed != nullptr) {
      crossed->emplace_back(nf.leave, Equation{nf.cluster, f, next});
    }
    nf.cluster = next;
  }
  return nf;
}

bool EquationalSpecification::SameNormalForm(const Path& a,
                                             const NormalForm& na,
                                             const Path& b,
                                             const NormalForm& nb) {
  // Representatives are distinct, and no representative extended by a
  // symbol the walk stopped at is another one, so the normal forms are
  // equal iff the clusters are and so are the symbols left as written.
  const std::vector<FuncId>& sa = a.symbols();
  const std::vector<FuncId>& sb = b.symbols();
  return na.cluster == nb.cluster &&
         std::equal(sa.begin() + na.leave, sa.end(), sb.begin() + nb.leave,
                    sb.end());
}

bool EquationalSpecification::Congruent(const Path& a, const Path& b) const {
  RELSPEC_COUNTER("eqspec.congruent_tests");
  RELSPEC_SCOPED_TIMER("eqspec.congruent_ns");
  return SameNormalForm(a, Walk(a, nullptr), b, Walk(b, nullptr));
}

StatusOr<CongruenceProof> EquationalSpecification::ExplainCongruence(
    const Path& a, const Path& b) const {
  RELSPEC_COUNTER("eqspec.cl_proofs");
  std::vector<std::pair<int, Equation>> crossed_a, crossed_b;
  const NormalForm na = Walk(a, &crossed_a);
  const NormalForm nb = Walk(b, &crossed_b);
  if (!SameNormalForm(a, na, b, nb)) {
    return Status::NotFound("terms are not congruent");
  }
  // The step of `path` at position i: its equation with the symbols after
  // i applied outside both sides.
  auto lifted = [this](const Path& path, int i, const Equation& eq) {
    auto [lhs, rhs] = EquationPaths(eq);
    std::vector<FuncId> l = lhs.symbols(), r = rhs.symbols();
    const std::vector<FuncId>& outer = path.symbols();
    l.insert(l.end(), outer.begin() + i + 1, outer.end());
    r.insert(r.end(), outer.begin() + i + 1, outer.end());
    return CongruenceStep{Path(std::move(l)), Path(std::move(r)), eq,
                          path.depth() - i - 1};
  };
  CongruenceProof proof{a, b, {}};
  for (const auto& [i, eq] : crossed_a) {
    proof.steps.push_back(lifted(a, i, eq));
  }
  // b's rewrites run backwards from the shared normal form. A step that
  // undoes the chain's last one cancels it, so a == a has no step.
  for (auto it = crossed_b.rbegin(); it != crossed_b.rend(); ++it) {
    CongruenceStep step = lifted(b, it->first, it->second);
    std::swap(step.lhs, step.rhs);
    if (!proof.steps.empty() && proof.steps.back().lhs == step.rhs) {
      proof.steps.pop_back();
    } else {
      proof.steps.push_back(std::move(step));
    }
  }
  return proof;
}

StatusOr<std::string> EquationalSpecification::ExplainCongruenceText(
    const Path& a, const Path& b) const {
  RELSPEC_ASSIGN_OR_RETURN(CongruenceProof proof, ExplainCongruence(a, b));
  return proof.ToString(spec_->symbols());
}

std::string CongruenceProof::ToString(const SymbolTable& symbols) const {
  std::string out = lhs.ToString(symbols) + " == " + rhs.ToString(symbols) +
                    "\n";
  for (const CongruenceStep& step : steps) {
    out += "  " + step.lhs.ToString(symbols) + " == " +
           step.rhs.ToString(symbols) +
           (step.lifted == 0 ? "   [asserted]" : "   [congruence]") + "\n";
    if (step.lifted == 0) continue;
    // The equation it lifts: both sides without the outer symbols.
    auto unlift = [&](const Path& p) {
      const std::vector<FuncId>& syms = p.symbols();
      return Path(std::vector<FuncId>(syms.begin(), syms.end() - step.lifted))
          .ToString(symbols);
    };
    out += "    " + unlift(step.lhs) + " == " + unlift(step.rhs) +
           "   [asserted]\n";
  }
  return out;
}

std::string EquationalSpecification::ToString() const {
  const GraphSpecification& b = *spec_;
  std::string out = StrFormat(
      "equational specification: %zu representatives, %zu tuples, %zu "
      "equations%s\n",
      b.num_clusters(), b.num_slice_tuples(), equations_.size(),
      b.truncated() ? " [truncated]" : "");
  if (b.truncated()) {
    out += StrFormat("  (partial result, sound under-approximation: %s)\n",
                     b.breach().message().c_str());
  }
  for (const Equation& eq : equations_) {
    const auto [t1, t2] = EquationPaths(eq);
    out += "  " + t1.ToString(b.symbols()) + " == " +
           t2.ToString(b.symbols()) + "\n";
  }
  return out;
}

StatusOr<EquationalSpecification> BuildEquationalSpecification(
    std::shared_ptr<const GraphSpecification> spec) {
  if (spec == nullptr) {
    return Status::InvalidArgument("(B, R) needs a graph specification");
  }
  RELSPEC_PHASE("eqspec.build");
  const LabelGraph& graph = spec->graph();
  EquationalSpecification out(std::move(spec));

  // R(t1, t2) iff Active(t1), Potential(t2), t1 ~ t2 (Section 3.6): i.e. one
  // equation per Potential term that did not become Active, pairing it with
  // its cluster's representative. A Potential term f(representative of C)
  // is Active exactly when it is its own cluster's representative, i.e.
  // that cluster's tree edge is (C, f). A truncated graph's unknown cluster
  // is a synthetic sink, not a congruence class: equations into or out of
  // it would merge unrelated terms, so they are omitted (dropping equations
  // only shrinks Cl(R) — still a sound under-approximation).
  const std::vector<FuncId>& alphabet = graph.alphabet();
  // At most one equation per successor edge.
  out.equations_.reserve(graph.num_clusters() * alphabet.size());
  auto is_tree_edge = [&](uint32_t parent, FuncId f, uint32_t cluster) {
    return graph.parent(cluster) == parent && graph.symbol(cluster) == f;
  };
  //  (a) the initial frontier layer, whose terms extend trunk paths, in
  //      shortlex order;
  graph.ForEachBoundaryEntry(
      [&](std::span<const FuncId> path, uint32_t cluster) {
        if (path.empty()) return;  // 0 itself: the first, Active, term
        const uint32_t parent = graph.ClusterOf(path.first(path.size() - 1));
        if (!is_tree_edge(parent, path.back(), cluster)) {
          out.equations_.push_back({parent, path.back(), cluster});
        }
      });
  //  (b) children of Active representatives beyond the trunk.
  for (uint32_t ci = 0; ci < graph.num_clusters(); ++ci) {
    if (ci == graph.unknown_cluster()) continue;
    if (graph.is_trunk(ci)) continue;
    const std::span<const uint32_t> successors = graph.successors(ci);
    for (size_t s = 0; s < successors.size(); ++s) {
      const uint32_t succ = successors[s];
      if (succ == graph.unknown_cluster()) continue;
      if (!is_tree_edge(ci, alphabet[s], succ)) {
        out.equations_.push_back({ci, alphabet[s], succ});
      }
    }
  }
  RELSPEC_GAUGE_SET("eqspec.equations", out.equations_.size());
  return out;
}

StatusOr<EquationalSpecification> BuildEquationalSpecification(
    const LabelGraph& graph, Labeling* labeling, const SymbolTable& symbols) {
  RELSPEC_ASSIGN_OR_RETURN(GraphSpecification spec,
                           BuildGraphSpecification(graph, labeling, symbols));
  return BuildEquationalSpecification(
      std::make_shared<const GraphSpecification>(std::move(spec)));
}

}  // namespace relspec
