#include "src/core/graph_spec.h"

#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/core/mixed_to_pure.h"

namespace relspec {

bool GraphSpecification::Holds(const Path& path, PredId pred,
                               const std::vector<ConstId>& args) const {
  auto it = atom_index_.find(SliceAtom{pred, args});
  if (it == atom_index_.end()) return false;
  uint32_t cluster = graph_.ClusterOf(path);
  if (cluster == kInvalidId) return false;
  return graph_.cluster(cluster).label.Test(it->second);
}

bool GraphSpecification::HoldsGlobal(PredId pred,
                                     const std::vector<ConstId>& args) const {
  for (const auto& [p, a] : globals_) {
    if (p == pred && a == args) return true;
  }
  return false;
}

StatusOr<bool> GraphSpecification::HoldsFact(const Query& fact) const {
  if (fact.atoms.size() != 1 || !fact.atoms[0].IsGround() ||
      !fact.atoms[0].fterm.has_value()) {
    return Status::InvalidArgument(
        "membership wants one ground functional fact, e.g. "
        "\"OnCall(m0+1, m1)\"");
  }
  const Atom& atom = fact.atoms[0];
  if (fact.MentionsLocalSymbol(atom)) return false;
  StatusOr<FuncTerm> pure = PurifyGroundTerm(*atom.fterm, &symbols_);
  if (pure.status().code() == StatusCode::kNotFound) return false;
  RELSPEC_RETURN_NOT_OK(pure.status());
  std::vector<FuncId> syms;
  syms.reserve(pure->apps.size());
  for (const FuncApply& a : pure->apps) syms.push_back(a.fn);
  std::vector<ConstId> args;
  args.reserve(atom.args.size());
  for (const NfArg& a : atom.args) args.push_back(a.id);
  return Holds(Path(std::move(syms)), atom.pred, args);
}

std::vector<SliceAtom> GraphSpecification::SliceOf(const Path& path) const {
  std::vector<SliceAtom> out;
  uint32_t cluster = graph_.ClusterOf(path);
  if (cluster == kInvalidId) return out;
  graph_.cluster(cluster).label.ForEach(
      [&](size_t i) { out.push_back(atoms_[i]); });
  return out;
}

size_t GraphSpecification::num_slice_tuples() const {
  size_t n = 0;
  for (const Cluster& c : graph_.clusters()) n += c.label.Count();
  return n;
}

size_t GraphSpecification::num_edges() const {
  size_t n = 0;
  for (const Cluster& c : graph_.clusters()) n += c.successors.size();
  return n;
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
  for (size_t i = 0; i < graph_.num_clusters(); ++i) {
    const Cluster& c = graph_.cluster(static_cast<uint32_t>(i));
    out += StrFormat("cluster %zu%s: repr=%s\n", i, c.trunk ? " (trunk)" : "",
                     c.representative.ToString(symbols_).c_str());
    c.label.ForEach([&](size_t a) {
      const SliceAtom& atom = atoms_[a];
      std::string tuple = symbols_.predicate(atom.pred).name + "(" +
                          c.representative.ToString(symbols_);
      for (ConstId cc : atom.args) {
        tuple += "," + symbols_.constant_name(cc);
      }
      tuple += ")";
      out += "  " + tuple + "\n";
    });
    for (size_t s = 0; s < c.successors.size(); ++s) {
      out += StrFormat("  successor_%s -> cluster %u\n",
                       symbols_.function(alphabet_[s]).name.c_str(),
                       c.successors[s]);
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

StatusOr<GraphSpecification> BuildGraphSpecification(
    const LabelGraph& graph, Labeling* labeling, const SymbolTable& symbols) {
  RELSPEC_PHASE("graph_spec.build");
  GraphSpecification out;
  out.graph_ = graph;
  out.symbols_ = symbols;
  const GroundProgram& ground = labeling->ground();
  out.alphabet_ = ground.alphabet();
  out.atoms_.reserve(ground.num_atoms());
  for (AtomIdx i = 0; i < ground.num_atoms(); ++i) {
    out.atoms_.push_back(ground.atom(i));
    out.atom_index_.emplace(ground.atom(i), i);
  }
  for (CtxIdx i = 0; i < ground.num_ctx(); ++i) {
    const CtxProp& prop = ground.ctx_prop(i);
    if (prop.kind == CtxProp::Kind::kGlobal && labeling->ctx().Test(i)) {
      out.globals_.emplace_back(prop.pred, prop.args);
    }
  }
  return out;
}

}  // namespace relspec
