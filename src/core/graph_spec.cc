#include "src/core/graph_spec.h"

#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/core/mixed_to_pure.h"

namespace relspec {

bool GraphSpecification::Holds(const Path& path, PredId pred,
                               std::span<const ConstId> args) const {
  const AtomIdx atom = FindAtom(pred, args);
  if (atom == kInvalidId) return false;
  uint32_t cluster = graph_.ClusterOf(path);
  if (cluster == kInvalidId) return false;
  return graph_.label(cluster).Test(atom);
}

StatusOr<bool> GraphSpecification::HoldsFact(const Atom& fact) const {
  if (!fact.IsGround()) {
    return Status::InvalidArgument("membership wants a ground fact");
  }
  std::vector<ConstId> args;
  args.reserve(fact.args.size());
  for (const NfArg& a : fact.args) args.push_back(a.id);
  if (!fact.fterm.has_value()) return HoldsGlobal(fact.pred, args);
  StatusOr<Path> path = PathOfGroundTerm(*fact.fterm);
  if (path.status().code() == StatusCode::kNotFound) return false;
  RELSPEC_RETURN_NOT_OK(path.status());
  return Holds(*path, fact.pred, args);
}

StatusOr<Path> GraphSpecification::PathOfGroundTerm(
    const FuncTerm& term) const {
  if (!term.IsGround()) return Status::InvalidArgument("term is not ground");
  RELSPEC_ASSIGN_OR_RETURN(FuncTerm pure, PurifyGroundTerm(term, &symbols_));
  std::vector<FuncId> syms;
  syms.reserve(pure.apps.size());
  for (const FuncApply& a : pure.apps) syms.push_back(a.fn);
  return Path(std::move(syms));
}

StatusOr<bool> GraphSpecification::HoldsFact(const Query& fact) const {
  if (fact.atoms.size() != 1 || !fact.atoms[0].IsGround()) {
    return Status::InvalidArgument(
        "membership wants one ground fact, e.g. \"OnCall(m0+1, m1)\"");
  }
  if (fact.MentionsLocalSymbol(fact.atoms[0])) return false;
  return HoldsFact(fact.atoms[0]);
}

std::vector<SliceAtom> GraphSpecification::SliceOf(const Path& path) const {
  std::vector<SliceAtom> out;
  uint32_t cluster = graph_.ClusterOf(path);
  if (cluster == kInvalidId) return out;
  graph_.label(cluster).ForEach([&](size_t i) {
    const AtomRef atom = atoms_[static_cast<AtomIdx>(i)];
    out.push_back(SliceAtom{atom.pred, {atom.args.begin(), atom.args.end()}});
  });
  return out;
}

size_t GraphSpecification::num_slice_tuples() const {
  size_t n = 0;
  for (uint32_t c = 0; c < graph_.num_clusters(); ++c) {
    n += graph_.label(c).Count();
  }
  return n;
}

size_t GraphSpecification::num_edges() const {
  return graph_.num_clusters() * graph_.alphabet().size();
}

std::string GraphSpecification::ToString() const {
  std::string out;
  out += StrFormat("graph specification: %zu clusters, %zu tuples, %zu edges%s\n",
                   num_clusters(), num_slice_tuples(), num_edges(),
                   truncated() ? " [truncated]" : "");
  if (truncated()) {
    out += StrFormat("  (partial result, sound under-approximation: %s)\n",
                     breach().message().c_str());
  }
  for (uint32_t i = 0; i < graph_.num_clusters(); ++i) {
    const std::string repr = graph_.Representative(i).ToString(symbols_);
    out += StrFormat("cluster %u%s: repr=%s\n", i,
                     graph_.is_trunk(i) ? " (trunk)" : "", repr.c_str());
    graph_.label(i).ForEach([&](size_t a) {
      const AtomRef atom = atoms_[static_cast<AtomIdx>(a)];
      std::string tuple = symbols_.predicate(atom.pred).name + "(" + repr;
      for (ConstId cc : atom.args) {
        tuple += "," + symbols_.constant_name(cc);
      }
      tuple += ")";
      out += "  " + tuple + "\n";
    });
    const std::span<const uint32_t> successors = graph_.successors(i);
    for (size_t s = 0; s < successors.size(); ++s) {
      out += StrFormat("  successor_%s -> cluster %u\n",
                       symbols_.function(alphabet()[s]).name.c_str(),
                       successors[s]);
    }
  }
  for (const auto& [pred, args] : globals_) {
    std::string tuple = symbols_.predicate(pred).name + "(";
    for (size_t k = 0; k < args.size(); ++k) {
      if (k > 0) tuple += ",";
      tuple += symbols_.constant_name(args[k]);
    }
    tuple += ")";
    out += "global " + tuple + "\n";
  }
  return out;
}

AtomTable GlobalsOf(const Labeling& labeling) {
  const GroundProgram& ground = labeling.ground();
  auto for_each_global = [&](auto&& fn) {
    for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
      const CtxProp prop = ground.ctx_prop(i);
      if (prop.kind == CtxProp::Kind::kGlobal && labeling.ctx().Test(i)) {
        fn(prop);
      }
    }
  };
  // Sized first, so the table allocates each array once.
  size_t rows = 0, args = 0;
  for_each_global([&](const CtxProp& prop) {
    ++rows;
    args += prop.args.size();
  });
  AtomTable out;
  out.Reserve(rows, args);
  for_each_global(
      [&](const CtxProp& prop) { out.Intern(prop.pred, prop.args); });
  return out;
}

StatusOr<GraphSpecification> BuildGraphSpecification(
    LabelGraph graph, const Labeling* labeling, const SymbolTable& symbols) {
  RELSPEC_PHASE("graph_spec.build");
  GraphSpecification out;
  out.graph_ = std::move(graph);
  out.symbols_ = symbols;
  const GroundProgram& ground = labeling->ground();
  out.atoms_ = ground.atoms();
  out.globals_ = GlobalsOf(*labeling);
  return out;
}

}  // namespace relspec
