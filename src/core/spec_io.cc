#include "src/core/spec_io.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

#include "src/base/str_util.h"

namespace relspec {
namespace {

// A whole field as a decimal integer in [lo, hi]: a malformed spec is an
// InvalidArgument, never an exception.
StatusOr<int64_t> ParseNumber(const std::string& field, int64_t lo,
                              int64_t hi) {
  int64_t v = 0;
  const char* last = field.data() + field.size();
  auto [end, ec] = std::from_chars(field.data(), last, v);
  if (ec != std::errc() || end != last || v < lo || v > hi) {
    return Status::InvalidArgument("bad number: " + field);
  }
  return v;
}

constexpr int64_t kMaxInt = std::numeric_limits<int32_t>::max();
constexpr int64_t kMaxId = std::numeric_limits<uint32_t>::max();

// Paths are serialized as innermost-first dot-words; "0" is the constant.
std::string PathWord(const Path& p, const SymbolTable& symbols) {
  if (p.empty()) return "0";
  return p.ToWord(symbols);
}

StatusOr<Path> ParsePathWord(std::string_view word, const SymbolTable& symbols) {
  if (word == "0") return Path::Zero();
  std::vector<FuncId> syms;
  for (const std::string& name : Split(word, '.')) {
    RELSPEC_ASSIGN_OR_RETURN(FuncId f, symbols.FindFunction(name));
    syms.push_back(f);
  }
  return Path(std::move(syms));
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

void SerializeAtoms(const std::vector<SliceAtom>& atoms,
                    const SymbolTable& symbols, std::ostringstream* out) {
  *out << "atoms " << atoms.size() << "\n";
  for (const SliceAtom& a : atoms) {
    *out << symbols.predicate(a.pred).name;
    for (ConstId c : a.args) *out << " " << symbols.constant_name(c);
    *out << "\n";
  }
}

void SerializeGlobals(
    const std::vector<std::pair<PredId, std::vector<ConstId>>>& globals,
    const SymbolTable& symbols, std::ostringstream* out) {
  for (const auto& [pred, args] : globals) {
    *out << "global " << symbols.predicate(pred).name;
    for (ConstId c : args) *out << " " << symbols.constant_name(c);
    *out << "\n";
  }
}

// A graph cluster line ends in its successor list; an equational one, whose
// clusters keep no successors, stops after the label.
void SerializeClusters(const std::vector<Cluster>& clusters, bool successors,
                       const SymbolTable& symbols, std::ostringstream* out) {
  *out << "clusters " << clusters.size() << "\n";
  for (uint32_t i = 0; i < clusters.size(); ++i) {
    const Cluster& c = clusters[i];
    *out << "cluster " << (c.trunk ? "trunk" : "bfs") << " "
         << PathWord(RepresentativePath(clusters, i), symbols) << " label";
    c.label.ForEach([&](size_t a) { *out << " " << a; });
    if (successors) {
      *out << " succ";
      for (uint32_t s : c.successors) *out << " " << s;
    }
    *out << "\n";
  }
}

// Line-based reader with a one-line pushback.
class Reader {
 public:
  explicit Reader(std::string_view text) : stream_(std::string(text)) {}

  bool Next(std::string* line) {
    if (pushback_.has_value()) {
      *line = std::move(*pushback_);
      pushback_.reset();
      return true;
    }
    while (std::getline(stream_, *line)) {
      std::string_view s = StripWhitespace(*line);
      // Fields() splits on \f and \v too: a line of only those has none.
      if (s.find_first_not_of(" \t\n\v\f\r") == std::string_view::npos ||
          s[0] == '#') {
        continue;
      }
      *line = std::string(s);
      return true;
    }
    return false;
  }
  void Pushback(std::string line) { pushback_ = std::move(line); }

 private:
  std::istringstream stream_;
  std::optional<std::string> pushback_;
};

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string field;
  while (ss >> field) out.push_back(field);
  return out;
}

// Optional marker emitted for partial (--allow-partial) specifications:
//   truncated <code_int> <message...>
void SerializeTruncated(bool truncated, const Status& breach,
                        std::ostringstream* out) {
  if (!truncated) return;
  *out << "truncated " << static_cast<int>(breach.code()) << " "
       << breach.message() << "\n";
}

// Consumes a "truncated" line if present (pushing back anything else),
// reconstructing the breach into *truncated / *breach.
Status ParseTruncated(Reader* reader, bool* truncated, Status* breach) {
  std::string line;
  if (!reader->Next(&line)) return Status::OK();
  std::vector<std::string> f = Fields(line);
  if (f.empty() || f[0] != "truncated") {
    reader->Pushback(std::move(line));
    return Status::OK();
  }
  if (f.size() < 2) {
    return Status::InvalidArgument("bad truncated line: " + line);
  }
  StatusOr<int64_t> code = ParseNumber(
      f[1], 1, static_cast<int64_t>(StatusCode::kDeadlineExceeded));
  if (!code.ok()) {
    return Status::InvalidArgument("bad truncated code: " + f[1]);
  }
  std::string message;
  for (size_t i = 2; i < f.size(); ++i) {
    if (i > 2) message += " ";
    message += f[i];
  }
  *truncated = true;
  *breach = Status(static_cast<StatusCode>(*code), std::move(message));
  return Status::OK();
}

Status ParseSymbols(Reader* reader, SymbolTable* symbols) {
  std::string line;
  if (!reader->Next(&line) || line != "symbols") {
    return Status::InvalidArgument("expected 'symbols' section");
  }
  while (reader->Next(&line)) {
    if (line == "end") return Status::OK();
    std::vector<std::string> f = Fields(line);
    if (f[0] == "pred" && f.size() == 4) {
      RELSPEC_ASSIGN_OR_RETURN(int64_t arity, ParseNumber(f[2], 0, kMaxInt));
      RELSPEC_ASSIGN_OR_RETURN(
          PredId id, symbols->InternPredicate(f[1], static_cast<int>(arity),
                                              f[3] == "functional"));
      (void)id;
    } else if (f[0] == "fn" && f.size() == 3) {
      RELSPEC_ASSIGN_OR_RETURN(int64_t arity, ParseNumber(f[2], 0, kMaxInt));
      RELSPEC_ASSIGN_OR_RETURN(
          FuncId id, symbols->InternFunction(f[1], static_cast<int>(arity)));
      (void)id;
    } else if (f[0] == "const" && f.size() == 2) {
      symbols->InternConstant(f[1]);
    } else {
      return Status::InvalidArgument("bad symbols line: " + line);
    }
  }
  return Status::InvalidArgument("unterminated symbols section");
}

StatusOr<std::vector<SliceAtom>> ParseAtoms(Reader* reader,
                                            const SymbolTable& symbols) {
  std::string line;
  if (!reader->Next(&line)) return Status::InvalidArgument("missing atoms");
  std::vector<std::string> header = Fields(line);
  if (header.size() != 2 || header[0] != "atoms") {
    return Status::InvalidArgument("expected 'atoms <n>'");
  }
  RELSPEC_ASSIGN_OR_RETURN(int64_t n, ParseNumber(header[1], 0, kMaxId));
  std::vector<SliceAtom> atoms;
  for (int64_t i = 0; i < n; ++i) {
    if (!reader->Next(&line)) return Status::InvalidArgument("truncated atoms");
    std::vector<std::string> f = Fields(line);
    SliceAtom a;
    RELSPEC_ASSIGN_OR_RETURN(a.pred, symbols.FindPredicate(f[0]));
    for (size_t k = 1; k < f.size(); ++k) {
      RELSPEC_ASSIGN_OR_RETURN(ConstId c, symbols.FindConstant(f[k]));
      a.args.push_back(c);
    }
    atoms.push_back(std::move(a));
  }
  return atoms;
}

// Reads the "clusters <n>" header and its n cluster lines, then rebuilds
// the representatives' tree. Graph clusters must list one in-range
// successor per alphabet symbol; an equational cluster line may carry a
// successor list (the format before successors were dropped from it),
// which is skipped.
Status ParseClusters(Reader* reader, const SymbolTable& symbols,
                     const std::vector<FuncId>& alphabet, size_t num_atoms,
                     bool successors, std::vector<Cluster>* clusters) {
  std::string line;
  if (!reader->Next(&line)) return Status::InvalidArgument("truncated spec");
  std::vector<std::string> header = Fields(line);
  if (header.size() != 2 || header[0] != "clusters") {
    return Status::InvalidArgument("expected clusters");
  }
  RELSPEC_ASSIGN_OR_RETURN(int64_t n, ParseNumber(header[1], 0, kMaxId - 1));
  std::vector<Path> reps;
  for (int64_t k = 0; k < n; ++k) {
    if (!reader->Next(&line)) return Status::InvalidArgument("truncated spec");
    std::vector<std::string> f = Fields(line);
    if (f.size() < 4 || f[0] != "cluster" || f[3] != "label") {
      return Status::InvalidArgument("bad cluster line: " + line);
    }
    Cluster& c = clusters->emplace_back();
    c.trunk = f[1] == "trunk";
    RELSPEC_ASSIGN_OR_RETURN(Path rep, ParsePathWord(f[2], symbols));
    reps.push_back(std::move(rep));
    c.label = DynamicBitset(num_atoms);
    size_t i = 4;
    for (; i < f.size() && f[i] != "succ"; ++i) {
      RELSPEC_ASSIGN_OR_RETURN(
          int64_t atom,
          ParseNumber(f[i], 0, static_cast<int64_t>(num_atoms) - 1));
      c.label.Set(static_cast<size_t>(atom));
    }
    if (successors && i == f.size()) {
      return Status::InvalidArgument("expected 'succ'");
    }
    for (++i; i < f.size(); ++i) {
      RELSPEC_ASSIGN_OR_RETURN(int64_t succ, ParseNumber(f[i], 0, n - 1));
      if (successors) c.successors.push_back(static_cast<uint32_t>(succ));
    }
    if (successors && c.successors.size() != alphabet.size()) {
      return Status::InvalidArgument("successor count mismatch: " + line);
    }
  }
  return LinkRepresentatives(reps, alphabet, clusters);
}

StatusOr<std::pair<PredId, std::vector<ConstId>>> ParseGlobalLine(
    const std::string& line, const SymbolTable& symbols) {
  std::vector<std::string> f = Fields(line);
  if (f.size() < 2) return Status::InvalidArgument("bad global line: " + line);
  std::pair<PredId, std::vector<ConstId>> out;
  RELSPEC_ASSIGN_OR_RETURN(out.first, symbols.FindPredicate(f[1]));
  for (size_t k = 2; k < f.size(); ++k) {
    RELSPEC_ASSIGN_OR_RETURN(ConstId c, symbols.FindConstant(f[k]));
    out.second.push_back(c);
  }
  return out;
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
  SerializeClusters(spec.graph().clusters(), /*successors=*/true,
                    spec.symbols(), &out);
  // Shortlex order, so the serialization is independent of the
  // unordered_map's iteration order (snapshot round-trips re-serialize
  // byte-identically; the parser accepts any order).
  std::vector<std::pair<Path, uint32_t>> boundary(
      spec.graph().boundary_clusters().begin(),
      spec.graph().boundary_clusters().end());
  std::sort(boundary.begin(), boundary.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [path, cluster] : boundary) {
    out << "boundary " << PathWord(path, spec.symbols()) << " " << cluster
        << "\n";
  }
  SerializeGlobals(spec.globals(), spec.symbols(), &out);
  out << "end\n";
  return out.str();
}

StatusOr<GraphSpecification> SpecIo::ParseGraphSpec(std::string_view text) {
  Reader reader(text);
  std::string line;
  if (!reader.Next(&line) || line != "relspec-graph-spec v1") {
    return Status::InvalidArgument("not a relspec graph specification");
  }
  GraphSpecification spec;
  if (!reader.Next(&line)) return Status::InvalidArgument("truncated spec");
  {
    std::vector<std::string> f = Fields(line);
    if (f.size() != 2 || f[0] != "trunk_depth") {
      return Status::InvalidArgument("expected trunk_depth");
    }
    RELSPEC_ASSIGN_OR_RETURN(spec.graph_.trunk_depth_,
                             ParseNumber(f[1], 0, kMaxInt));
  }
  if (!reader.Next(&line)) return Status::InvalidArgument("truncated spec");
  {
    std::vector<std::string> f = Fields(line);
    if (f.size() != 2 || f[0] != "frontier_depth") {
      return Status::InvalidArgument("expected frontier_depth");
    }
    RELSPEC_ASSIGN_OR_RETURN(spec.graph_.frontier_depth_,
                             ParseNumber(f[1], 0, kMaxInt));
  }
  RELSPEC_RETURN_NOT_OK(ParseTruncated(&reader, &spec.graph_.truncated_,
                                       &spec.graph_.breach_));
  if (reader.Next(&line)) {
    std::vector<std::string> f = Fields(line);
    if (f.size() == 2 && f[0] == "unknown_cluster") {
      RELSPEC_ASSIGN_OR_RETURN(spec.graph_.unknown_cluster_,
                               ParseNumber(f[1], 0, kMaxId - 1));
    } else {
      reader.Pushback(std::move(line));
    }
  }
  RELSPEC_RETURN_NOT_OK(ParseSymbols(&reader, &spec.symbols_));
  if (!reader.Next(&line)) return Status::InvalidArgument("truncated spec");
  {
    std::vector<std::string> f = Fields(line);
    if (f.empty() || f[0] != "alphabet") {
      return Status::InvalidArgument("expected alphabet");
    }
    for (size_t i = 1; i < f.size(); ++i) {
      RELSPEC_ASSIGN_OR_RETURN(FuncId fn, spec.symbols_.FindFunction(f[i]));
      spec.alphabet_.push_back(fn);
      spec.graph_.sym_index_.emplace(fn, static_cast<uint32_t>(i - 1));
    }
    spec.graph_.num_symbols_ = spec.alphabet_.size();
  }
  RELSPEC_ASSIGN_OR_RETURN(spec.atoms_, ParseAtoms(&reader, spec.symbols_));
  for (AtomIdx i = 0; i < spec.atoms_.size(); ++i) {
    spec.atom_index_.emplace(spec.atoms_[i], i);
  }
  LabelGraph& g = spec.graph_;
  RELSPEC_RETURN_NOT_OK(ParseClusters(&reader, spec.symbols_, spec.alphabet_,
                                      spec.atoms_.size(), /*successors=*/true,
                                      &g.clusters_));
  const int64_t num_clusters = static_cast<int64_t>(g.clusters_.size());
  if (g.unknown_cluster_ != kInvalidId && g.unknown_cluster_ >= num_clusters) {
    return Status::InvalidArgument("unknown_cluster out of range");
  }
  for (uint32_t i = 0; i < g.clusters_.size(); ++i) {
    if (g.clusters_[i].trunk) g.trunk_cluster_.emplace(g.Representative(i), i);
  }
  while (reader.Next(&line)) {
    if (line == "end") return spec;
    std::vector<std::string> f = Fields(line);
    if (f[0] == "boundary" && f.size() == 3) {
      RELSPEC_ASSIGN_OR_RETURN(Path p, ParsePathWord(f[1], spec.symbols_));
      RELSPEC_ASSIGN_OR_RETURN(int64_t cluster,
                               ParseNumber(f[2], 0, num_clusters - 1));
      g.boundary_cluster_.emplace(std::move(p),
                                  static_cast<uint32_t>(cluster));
    } else if (f[0] == "global") {
      RELSPEC_ASSIGN_OR_RETURN(auto global,
                               ParseGlobalLine(line, spec.symbols_));
      spec.globals_.push_back(std::move(global));
    } else {
      return Status::InvalidArgument("unexpected line: " + line);
    }
  }
  return Status::InvalidArgument("missing 'end'");
}

std::string SpecIo::Serialize(const EquationalSpecification& spec) {
  std::ostringstream out;
  out << "relspec-eq-spec v1\n";
  out << "trunk_depth " << spec.trunk_depth() << "\n";
  SerializeTruncated(spec.truncated(), spec.breach(), &out);
  SerializeSymbols(spec.symbols(), &out);
  SerializeAtoms(spec.atom_dictionary(), spec.symbols(), &out);
  SerializeClusters(spec.clusters(), /*successors=*/false, spec.symbols(),
                    &out);
  for (const Equation& eq : spec.equations()) {
    const auto [t1, t2] = spec.EquationPaths(eq);
    out << "eq " << PathWord(t1, spec.symbols()) << " "
        << PathWord(t2, spec.symbols()) << "\n";
  }
  SerializeGlobals(spec.globals(), spec.symbols(), &out);
  out << "end\n";
  return out.str();
}

StatusOr<EquationalSpecification> SpecIo::ParseEquationalSpec(
    std::string_view text) {
  Reader reader(text);
  std::string line;
  if (!reader.Next(&line) || line != "relspec-eq-spec v1") {
    return Status::InvalidArgument("not a relspec equational specification");
  }
  EquationalSpecification spec;
  if (!reader.Next(&line)) return Status::InvalidArgument("truncated spec");
  {
    std::vector<std::string> f = Fields(line);
    if (f.size() != 2 || f[0] != "trunk_depth") {
      return Status::InvalidArgument("expected trunk_depth");
    }
    RELSPEC_ASSIGN_OR_RETURN(spec.trunk_depth_, ParseNumber(f[1], 0, kMaxInt));
  }
  RELSPEC_RETURN_NOT_OK(
      ParseTruncated(&reader, &spec.truncated_, &spec.breach_));
  RELSPEC_RETURN_NOT_OK(ParseSymbols(&reader, &spec.symbols_));
  RELSPEC_ASSIGN_OR_RETURN(spec.atoms_, ParseAtoms(&reader, spec.symbols_));
  for (AtomIdx i = 0; i < spec.atoms_.size(); ++i) {
    spec.atom_index_.emplace(spec.atoms_[i], i);
  }
  const std::vector<FuncId> alphabet = spec.alphabet();
  RELSPEC_RETURN_NOT_OK(ParseClusters(&reader, spec.symbols_, alphabet,
                                      spec.atoms_.size(), /*successors=*/false,
                                      &spec.clusters_));
  std::vector<std::pair<Path, Path>> pairs;
  while (reader.Next(&line)) {
    if (line == "end") {
      RELSPEC_ASSIGN_OR_RETURN(
          spec.equations_, EquationsFromPaths(spec.clusters_, pairs, alphabet));
      return spec;
    }
    std::vector<std::string> f = Fields(line);
    if (f[0] == "eq" && f.size() == 3) {
      RELSPEC_ASSIGN_OR_RETURN(Path t1, ParsePathWord(f[1], spec.symbols_));
      RELSPEC_ASSIGN_OR_RETURN(Path t2, ParsePathWord(f[2], spec.symbols_));
      pairs.emplace_back(std::move(t1), std::move(t2));
    } else if (f[0] == "global") {
      RELSPEC_ASSIGN_OR_RETURN(auto global,
                               ParseGlobalLine(line, spec.symbols_));
      spec.globals_.push_back(std::move(global));
    } else {
      return Status::InvalidArgument("unexpected line: " + line);
    }
  }
  return Status::InvalidArgument("missing 'end'");
}

}  // namespace relspec
