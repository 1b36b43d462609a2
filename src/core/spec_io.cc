#include "src/core/spec_io.h"

#include <sstream>

namespace relspec {
namespace {

// Paths are serialized as innermost-first dot-words; "0" is the constant.
std::string PathWord(const Path& p, const SymbolTable& symbols) {
  if (p.empty()) return "0";
  return p.ToWord(symbols);
}

void SerializeSymbols(const SymbolTable& symbols, std::ostringstream* out) {
  *out << "symbols\n";
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    *out << "pred " << info.name << " " << info.arity << " "
         << (info.functional ? "functional" : "plain") << "\n";
  }
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    const FunctionInfo& info = symbols.function(f);
    *out << "fn " << info.name << " " << info.arity << "\n";
  }
  for (ConstId c = 0; c < symbols.num_constants(); ++c) {
    *out << "const " << symbols.constant_name(c) << "\n";
  }
  *out << "end\n";
}

void SerializeAtoms(const AtomTable& atoms, const SymbolTable& symbols,
                    std::ostringstream* out) {
  *out << "atoms " << atoms.size() << "\n";
  for (const AtomRef a : atoms) {
    *out << symbols.predicate(a.pred).name;
    for (ConstId c : a.args) *out << " " << symbols.constant_name(c);
    *out << "\n";
  }
}

void SerializeGlobals(const AtomTable& globals, const SymbolTable& symbols,
                      std::ostringstream* out) {
  for (const auto& [pred, args] : globals) {
    *out << "global " << symbols.predicate(pred).name;
    for (ConstId c : args) *out << " " << symbols.constant_name(c);
    *out << "\n";
  }
}

// A graph cluster line ends in its successor list; an equational one, whose
// clusters keep no successors, stops after the label.
void SerializeClusters(const LabelGraph& graph, bool successors,
                       const SymbolTable& symbols, std::ostringstream* out) {
  *out << "clusters " << graph.num_clusters() << "\n";
  for (uint32_t i = 0; i < graph.num_clusters(); ++i) {
    *out << "cluster " << (graph.is_trunk(i) ? "trunk" : "bfs") << " "
         << PathWord(graph.Representative(i), symbols) << " label";
    graph.label(i).ForEach([&](size_t a) { *out << " " << a; });
    if (successors) {
      *out << " succ";
      for (uint32_t s : graph.successors(i)) *out << " " << s;
    }
    *out << "\n";
  }
}

// Optional marker emitted for partial (--allow-partial) specifications:
//   truncated <code_int> <message...>
void SerializeTruncated(bool truncated, const Status& breach,
                        std::ostringstream* out) {
  if (!truncated) return;
  *out << "truncated " << static_cast<int>(breach.code()) << " "
       << breach.message() << "\n";
}

}  // namespace

std::string SpecIo::Serialize(const GraphSpecification& spec) {
  std::ostringstream out;
  out << "relspec-graph-spec v1\n";
  out << "trunk_depth " << spec.trunk_depth() << "\n";
  out << "frontier_depth " << spec.graph().frontier_depth() << "\n";
  SerializeTruncated(spec.truncated(), spec.breach(), &out);
  if (spec.graph().unknown_cluster() != kInvalidId) {
    out << "unknown_cluster " << spec.graph().unknown_cluster() << "\n";
  }
  SerializeSymbols(spec.symbols(), &out);
  out << "alphabet";
  for (FuncId f : spec.alphabet()) out << " " << spec.symbols().function(f).name;
  out << "\n";
  SerializeAtoms(spec.atom_dictionary(), spec.symbols(), &out);
  SerializeClusters(spec.graph(), /*successors=*/true,
                    spec.symbols(), &out);
  spec.graph().ForEachBoundaryEntry(
      [&](std::span<const FuncId> path, uint32_t cluster) {
        out << "boundary " << PathWord(Path(path), spec.symbols()) << " "
            << cluster << "\n";
      });
  SerializeGlobals(spec.globals(), spec.symbols(), &out);
  out << "end\n";
  return out.str();
}

std::string SpecIo::Serialize(const EquationalSpecification& eq) {
  const GraphSpecification& spec = eq.spec();
  std::ostringstream out;
  out << "relspec-eq-spec v1\n";
  out << "trunk_depth " << spec.trunk_depth() << "\n";
  SerializeTruncated(spec.truncated(), spec.breach(), &out);
  SerializeSymbols(spec.symbols(), &out);
  SerializeAtoms(spec.atom_dictionary(), spec.symbols(), &out);
  SerializeClusters(spec.graph(), /*successors=*/false,
                    spec.symbols(), &out);
  for (const Equation& e : eq.equations()) {
    const auto [t1, t2] = eq.EquationPaths(e);
    out << "eq " << PathWord(t1, spec.symbols()) << " "
        << PathWord(t2, spec.symbols()) << "\n";
  }
  SerializeGlobals(spec.globals(), spec.symbols(), &out);
  out << "end\n";
  return out.str();
}

}  // namespace relspec
