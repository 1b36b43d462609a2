#include "src/core/equational_spec.h"

#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {

void EquationalSpecification::EnsureClosure() {
  if (closure_ != nullptr) return;
  RELSPEC_PHASE("eqspec.close_r");
  arena_ = std::make_unique<TermArena>();
  closure_ = std::make_unique<CongruenceClosure>(arena_.get());
  closure_->set_governor(governor_);
  // Parents precede their children, so each term extends an interned one.
  const LabelGraph& graph = spec_->graph();
  cluster_terms_.resize(graph.num_clusters());
  for (uint32_t i = 0; i < graph.num_clusters(); ++i) {
    const uint32_t parent = graph.parent(i);
    cluster_terms_[i] =
        parent == kInvalidId
            ? arena_->Zero()
            : arena_->Apply(graph.symbol(i), cluster_terms_[parent]);
  }
  for (const Equation& eq : equations_) {
    closure_->Merge(arena_->Apply(eq.symbol, cluster_terms_[eq.cluster]),
                    cluster_terms_[eq.target]);
  }
}

bool EquationalSpecification::Congruent(const Path& a, const Path& b) {
  RELSPEC_COUNTER("eqspec.congruent_tests");
  RELSPEC_SCOPED_TIMER("eqspec.congruent_ns");
  EnsureClosure();
  return closure_->AreCongruent(a.ToTerm(arena_.get()), b.ToTerm(arena_.get()));
}

StatusOr<EqProof> EquationalSpecification::ExplainCongruence(const Path& a,
                                                             const Path& b) {
  RELSPEC_COUNTER("eqspec.cl_proofs");
  EnsureClosure();
  // An interrupted closure under-approximates Cl(R); a proof search against
  // it could miss valid chains, so surface the breach instead.
  RELSPEC_RETURN_NOT_OK(closure_->interrupt());
  return closure_->Explain(a.ToTerm(arena_.get()), b.ToTerm(arena_.get()));
}

StatusOr<std::string> EquationalSpecification::ExplainCongruenceText(
    const Path& a, const Path& b) {
  RELSPEC_ASSIGN_OR_RETURN(EqProof proof, ExplainCongruence(a, b));
  return proof.ToString(*arena_, spec_->symbols());
}

bool EquationalSpecification::Holds(const Path& path, PredId pred,
                                    const std::vector<ConstId>& args) {
  RELSPEC_COUNTER("eqspec.membership_checks");
  RELSPEC_SCOPED_TIMER("eqspec.holds_ns");
  const AtomIdx atom = spec_->FindAtom(pred, args);
  if (atom == kInvalidId) return false;
  EnsureClosure();
  TermId t0 = path.ToTerm(arena_.get());
  // T = {t : P(t, a...) in B}; accept iff (t0, t) in Cl(R) for some t.
  const LabelGraph& graph = spec_->graph();
  for (uint32_t i = 0; i < graph.num_clusters(); ++i) {
    if (!graph.label(i).Test(atom)) continue;
    if (closure_->AreCongruent(t0, cluster_terms_[i])) return true;
  }
  return false;
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
  for (const auto& [path, cluster] : graph.BoundaryEntries()) {
    if (path.empty()) continue;  // 0 itself: the first, Active, term
    const uint32_t parent = graph.ClusterOf(path.Parent());
    if (!is_tree_edge(parent, path.Outermost(), cluster)) {
      out.equations_.push_back({parent, path.Outermost(), cluster});
    }
  }
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
